"""The page-update-method driver contract (Figure 10's seam).

Every method the paper compares — OPU, IPU, IPL, and PDL — implements
:class:`PageUpdateMethod`.  The contract mirrors the paper's architecture
discussion:

* ``read_page`` recreates a logical page from flash (the *reading step*);
* ``write_page`` reflects an updated logical page into flash (the
  *writing step*), optionally with the DBMS-provided update logs that only
  the tightly-coupled log-based method consumes;
* ``flush`` is the write-through command of Section 4.5;
* ``load_page`` bulk-loads the initial database image.

Loosely-coupled drivers (OPU, IPU, PDL) ignore ``update_logs`` entirely —
they can sit below an unmodified disk-based DBMS.  IPL requires them; when
a caller cannot supply logs, IPL degrades to logging the whole page as one
change, which is exactly the penalty of coupling the paper describes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..flash.chip import FlashChip
from ..flash.errors import WrongPageError
from ..flash.spec import FlashSpec
from ..flash.stats import StatsView


class ChangeRun(NamedTuple):
    """One contiguous modification to a logical page.

    ``offset`` is the byte position within the page; ``data`` is the new
    content written there.  A DBMS update command produces one or more
    runs; log-based methods persist them as update logs.
    """

    offset: int
    data: bytes

    @property
    def length(self) -> int:
        return len(self.data)

    @property
    def end(self) -> int:
        return self.offset + len(self.data)


def apply_runs(page: bytes, runs: Sequence[ChangeRun]) -> bytes:
    """Apply change runs to a page image, returning the new image."""
    if not runs:
        return page
    buf = bytearray(page)
    for run in runs:
        if run.offset < 0 or run.end > len(buf):
            raise ValueError(
                f"change run [{run.offset}, {run.end}) outside page of {len(buf)} bytes"
            )
        buf[run.offset : run.end] = run.data
    return bytes(buf)


def wrong_pid(pid: int, addr: int, found: Optional[int]) -> WrongPageError:
    """What a page-mapped baseline's read raises when the page at
    ``addr`` is labelled pid ``found``, not ``pid``.  OPU, IPU and IPL
    spares carry a pid and no timestamp, so the pid is all their read
    can check: a stale copy of the same pid stays undetectable there."""
    return WrongPageError(
        f"read of pid {pid}: page {addr} holds pid {found}, the mapping expects pid {pid}",
        addr,
    )


def format_size(n_bytes: int) -> str:
    """Format a byte count the way the paper labels methods (256B, 18KB)."""
    if n_bytes % 1024 == 0:
        return f"{n_bytes // 1024}KB"
    return f"{n_bytes}B"


class PageUpdateMethod(ABC):
    """Abstract base for the four page-update methods.

    Subclasses must set :attr:`name` (the label used in the paper's
    figures, e.g. ``"PDL (256B)"``) and implement the three page
    operations.  The shared helpers validate page sizes and expose the
    chip's stats, so experiment code never touches driver internals.
    """

    #: Figure label, set by each subclass constructor.
    name: str = "abstract"

    #: True when the driver consumes DBMS update logs (Table 2's coupling
    #: row); used by reports, and by the buffer pool to decide whether
    #: its pages record change logs at all.
    tightly_coupled: bool = False

    def __init__(self, chip: FlashChip):
        self.chip = chip

    # ------------------------------------------------------------------
    # Required operations
    # ------------------------------------------------------------------
    @abstractmethod
    def load_page(self, pid: int, data: bytes) -> None:
        """Bulk-load a logical page during initial database creation."""

    @abstractmethod
    def read_page(self, pid: int) -> bytes:
        """Recreate logical page ``pid`` from flash memory."""

    @abstractmethod
    def write_page(
        self, pid: int, data: bytes, update_logs: Optional[List[ChangeRun]] = None
    ) -> None:
        """Reflect the updated logical page ``pid`` into flash memory."""

    # ------------------------------------------------------------------
    # Optional operations
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Write-through: push any buffered state into flash (no-op by
        default; PDL flushes its differential write buffer, IPL its
        in-memory log buffers)."""

    def end_of_load(self) -> None:
        """Hook invoked once after the initial bulk load completes."""

    # ------------------------------------------------------------------
    # Batched operations (semantically N single calls; drivers override
    # them to reach the chip's batched entry points where they can)
    # ------------------------------------------------------------------
    def load_pages(self, pages: Sequence[Tuple[int, bytes]]) -> None:
        """Bulk-load many ``(pid, data)`` pairs.

        The default loops :meth:`load_page`; PDL batches the programs
        into :meth:`repro.flash.chip.FlashChip.program_pages` calls.
        """
        for pid, data in pages:
            self.load_page(pid, data)

    def write_pages(
        self,
        pages: Sequence[Tuple[int, bytes]],
        update_logs: Optional[Dict[int, List[ChangeRun]]] = None,
    ) -> None:
        """Reflect many updated logical pages (a buffer-pool flush).

        ``update_logs`` maps pid → change runs for tightly-coupled
        drivers.  The default loops :meth:`write_page`; PDL batches the
        base-page re-reads the differential computation needs.
        """
        for pid, data in pages:
            logs = update_logs.get(pid) if update_logs else None
            self.write_page(pid, data, update_logs=logs)

    # ------------------------------------------------------------------
    # Devices and their lifecycle (multi-chip drivers override all three)
    # ------------------------------------------------------------------
    @property
    def chips(self) -> List[FlashChip]:
        """The chip(s) behind this driver, in shard order."""
        return [self.chip]

    def sync(self) -> None:
        """Push the device backend to durable media (no-op in memory)."""
        self.chip.sync()

    def close(self) -> None:
        """Sync and release the device backend; the driver must not be
        used afterwards."""
        self.chip.close()

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @property
    def spec(self) -> FlashSpec:
        return self.chip.spec

    @property
    def stats(self) -> StatsView:
        return self.chip.stats

    @property
    def page_size(self) -> int:
        """Logical page size; equal to the physical data area size, as the
        paper assumes for ease of exposition."""
        return self.chip.spec.page_data_size

    @property
    def total_blocks(self) -> int:
        """Erase blocks behind this driver; multi-chip drivers override
        this with the whole array's count."""
        return self.spec.n_blocks

    def _check_page(self, pid: int, data: bytes) -> None:
        if pid < 0:
            raise ValueError(f"logical page id {pid} must be non-negative")
        if len(data) != self.page_size:
            raise ValueError(
                f"logical page must be exactly {self.page_size} bytes, got {len(data)}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
