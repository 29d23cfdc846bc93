"""IPL — the log-based baseline (in-page logging, Lee & Moon 2007).

Section 3 of the paper: IPL divides every block into *original pages* and
*log pages* (``IPL(y)`` reserves ``y`` bytes of log region per block).
Logical pages map statically to block-local slots; updates append *update
logs* — the per-command change records the DBMS must expose, which is why
the method is tightly coupled — into a per-logical-page log buffer of
1/16 of a page (footnote 13).  Reflecting a page writes
``⌈log bytes / log-buffer size⌉`` flash operations into the block's log
region; recreating a page reads the original page plus every distinct log
page holding its logs.  When a block's log region fills, the block is
*merged*: originals + logs are read, merged images are written into a
fresh block, and the old block is erased (the paper counts merging as
IPL's garbage collection, footnote 11).

Log-region writes use slot-granular partial page programming
(``FlashSpec.max_log_page_programs``); docs/paper-map.md, "Substitutions",
says why this matches the paper's cost model.

On-flash slot format (little-endian)::

    u32 pid | u16 n_runs | n_runs × (u16 offset, u16 length, data…)
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..flash.chip import FlashChip
from ..flash.spare import PageType, SpareArea
from ..flash.stats import GC, READ_STEP, WRITE_STEP
from .base import ChangeRun, PageUpdateMethod, apply_runs, format_size, wrong_pid
from .errors import ConfigurationError, OutOfSpaceError, UnknownPageError

_SLOT_HEADER = struct.Struct("<IH")
_RUN_HEADER = struct.Struct("<HH")

SLOT_HEADER_SIZE = _SLOT_HEADER.size  # 6 bytes
RUN_HEADER_SIZE = _RUN_HEADER.size  # 4 bytes

#: The paper sets the per-logical-page log buffer to page size / 16.
LOG_BUFFER_DIVISOR = 16

#: Free blocks group creation leaves for merges to relocate into.
SPARE_BLOCKS = 2


def encode_slot(pid: int, runs: List[ChangeRun]) -> bytes:
    """Serialize one log-slot payload."""
    parts = [_SLOT_HEADER.pack(pid, len(runs))]
    for run in runs:
        parts.append(_RUN_HEADER.pack(run.offset, len(run.data)))
        parts.append(run.data)
    return b"".join(parts)


def decode_slot(raw: bytes) -> Tuple[int, List[ChangeRun]]:
    """Parse a log-slot payload back into ``(pid, runs)``."""
    pid, n_runs = _SLOT_HEADER.unpack_from(raw, 0)
    pos = SLOT_HEADER_SIZE
    runs: List[ChangeRun] = []
    for _ in range(n_runs):
        offset, length = _RUN_HEADER.unpack_from(raw, pos)
        pos += RUN_HEADER_SIZE
        runs.append(ChangeRun(offset, bytes(raw[pos : pos + length])))
        pos += length
    return pid, runs


@dataclass
class _Group:
    """State of one block group (a physical block's worth of pages)."""

    block: int
    #: In-block data slots that hold loaded logical pages.
    loaded: Set[int] = field(default_factory=set)
    #: Log slots consumed so far.
    log_fill: int = 0
    #: pid -> ordered slot indices holding its update logs.
    placements: Dict[int, List[int]] = field(default_factory=dict)


class IplDriver(PageUpdateMethod):
    """In-page logging with a ``log_region_bytes`` log area per block."""

    tightly_coupled = True

    def __init__(self, chip: FlashChip, log_region_bytes: int):
        super().__init__(chip)
        spec = chip.spec
        if log_region_bytes <= 0:
            raise ConfigurationError("log region must be positive")
        self.log_pages_per_block = -(-log_region_bytes // spec.page_data_size)
        self.data_pages_per_block = spec.pages_per_block - self.log_pages_per_block
        if self.data_pages_per_block <= 0:
            raise ConfigurationError(
                f"log region of {log_region_bytes} bytes leaves no data pages "
                f"in a {spec.block_data_size}-byte block"
            )
        self.log_region_bytes = log_region_bytes
        self.slot_size = spec.page_data_size // LOG_BUFFER_DIVISOR
        if self.slot_size <= SLOT_HEADER_SIZE + RUN_HEADER_SIZE:
            raise ConfigurationError("pages too small for IPL log slots")
        self.slots_per_page = spec.page_data_size // self.slot_size
        self.total_slots = self.log_pages_per_block * self.slots_per_page
        if spec.max_log_page_programs < self.slots_per_page:
            raise ConfigurationError(
                f"chip allows {spec.max_log_page_programs} partial programs per "
                f"page but IPL needs {self.slots_per_page}"
            )
        self.name = f"IPL ({format_size(log_region_bytes)})"
        self._free: Deque[int] = deque(range(spec.n_blocks))
        self._groups: Dict[int, _Group] = {}
        self.merges = 0

    # ------------------------------------------------------------------
    # Capacity helper
    # ------------------------------------------------------------------
    def max_database_pages(self) -> int:
        """Largest database this chip/configuration can host."""
        usable_blocks = self.spec.n_blocks - SPARE_BLOCKS
        return usable_blocks * self.data_pages_per_block

    # ------------------------------------------------------------------
    # PageUpdateMethod
    # ------------------------------------------------------------------
    def load_page(self, pid: int, data: bytes) -> None:
        self._check_page(pid, data)
        gid, slot = divmod(pid, self.data_pages_per_block)
        group = self._groups.get(gid)
        if group is None:
            group = _Group(block=self._take_free_block())
            self._groups[gid] = group
        if slot in group.loaded:
            raise ValueError(f"logical page {pid} already loaded")
        addr = group.block * self.spec.pages_per_block + slot
        with self.chip.stats.phase("load"):
            self.chip.program_page(addr, data, SpareArea(type=PageType.DATA, pid=pid))
        group.loaded.add(slot)

    def read_page(self, pid: int) -> bytes:
        group, slot = self._locate(pid)
        with self.chip.stats.phase(READ_STEP):
            return self._recreate(group, slot, pid)

    def write_page(
        self, pid: int, data: bytes, update_logs: Optional[List[ChangeRun]] = None
    ) -> None:
        """Reflect a page by appending its update logs to the log region.

        Without DBMS-provided logs the whole page becomes a single change
        run — the degradation a loosely-coupled deployment would suffer.
        """
        self._check_page(pid, data)
        gid, slot = divmod(pid, self.data_pages_per_block)
        group = self._groups.get(gid)
        if group is None or slot not in group.loaded:
            # First write of a page never loaded: program the original page
            # in its static slot, attributed to the write step.
            if group is None:
                group = _Group(block=self._take_free_block())
                self._groups[gid] = group
            addr = group.block * self.spec.pages_per_block + slot
            with self.chip.stats.phase(WRITE_STEP):
                self.chip.program_page(
                    addr, data, SpareArea(type=PageType.DATA, pid=pid)
                )
            group.loaded.add(slot)
            return
        runs = update_logs if update_logs else [ChangeRun(0, data)]
        with self.chip.stats.phase(WRITE_STEP):
            for chunk in self._chunk_runs(runs):
                self._flush_slot(group, pid, chunk)

    # ------------------------------------------------------------------
    # Log management
    # ------------------------------------------------------------------
    def _chunk_runs(self, runs: List[ChangeRun]) -> List[List[ChangeRun]]:
        """Split runs into slot-sized payload chunks of whole (sub-)runs.

        A run longer than a slot's payload is divided into sub-runs so
        each slot decodes independently; chunk count approximates the
        paper's ⌈log size / log buffer size⌉ write formula.
        """
        max_run_data = self.slot_size - SLOT_HEADER_SIZE - RUN_HEADER_SIZE
        flat: List[ChangeRun] = []
        for run in runs:
            if run.offset < 0 or run.end > self.page_size:
                raise ValueError(f"update log {run.offset}+{run.length} outside page")
            data = run.data
            pos = 0
            while pos < len(data):
                piece = data[pos : pos + max_run_data]
                flat.append(ChangeRun(run.offset + pos, piece))
                pos += len(piece)
        chunks: List[List[ChangeRun]] = []
        current: List[ChangeRun] = []
        used = SLOT_HEADER_SIZE
        for run in flat:
            need = RUN_HEADER_SIZE + len(run.data)
            if current and used + need > self.slot_size:
                chunks.append(current)
                current = []
                used = SLOT_HEADER_SIZE
            current.append(run)
            used += need
        if current:
            chunks.append(current)
        return chunks

    def _flush_slot(self, group: _Group, pid: int, runs: List[ChangeRun]) -> None:
        if group.log_fill >= self.total_slots:
            self._merge(group)
        slot = group.log_fill
        group.log_fill += 1
        page_idx = self.data_pages_per_block + slot // self.slots_per_page
        offset = (slot % self.slots_per_page) * self.slot_size
        addr = group.block * self.spec.pages_per_block + page_idx
        payload = encode_slot(pid, runs)
        assert len(payload) <= self.slot_size
        self.chip.program_partial(
            addr, offset, payload, spare=SpareArea(type=PageType.LOG)
        )
        group.placements.setdefault(pid, []).append(slot)

    def _recreate(self, group: _Group, slot: int, pid: int) -> bytes:
        """Original page + replayed logs (charges one read per distinct
        log page holding this pid's logs).  An original page whose spare
        names another pid raises
        :class:`~repro.flash.errors.WrongPageError`; the spare carries no
        timestamp, so a stale copy of the same pid is not detected."""
        addr = group.block * self.spec.pages_per_block + slot
        data, spare = self.chip.read_page(addr)
        if spare.pid != pid:
            raise wrong_pid(pid, addr, spare.pid)
        slots = group.placements.get(pid)
        if not slots:
            return data
        pages = sorted({self.data_pages_per_block + s // self.slots_per_page for s in slots})
        raw_pages: Dict[int, bytes] = {}
        for page_idx in pages:
            log_addr = group.block * self.spec.pages_per_block + page_idx
            raw_pages[page_idx], _ = self.chip.read_page(log_addr)
        image = data
        for s in slots:
            page_idx = self.data_pages_per_block + s // self.slots_per_page
            offset = (s % self.slots_per_page) * self.slot_size
            raw = raw_pages[page_idx][offset : offset + self.slot_size]
            slot_pid, runs = decode_slot(raw)
            if slot_pid != pid:
                raise UnknownPageError(
                    f"log slot {s} of group block {group.block} holds pid "
                    f"{slot_pid}, expected {pid}"
                )
            image = apply_runs(image, runs)
        return image

    # ------------------------------------------------------------------
    # Merging (IPL's garbage collection)
    # ------------------------------------------------------------------
    def _merge(self, group: _Group) -> None:
        """Merge originals with logs into a fresh block, erase the old."""
        with self.chip.stats.phase(GC):
            new_block = self._take_free_block(for_merge=True)
            # Read every used log page once.
            used_log_pages = sorted(
                {
                    self.data_pages_per_block + s // self.slots_per_page
                    for slots in group.placements.values()
                    for s in slots
                }
            )
            raw_pages: Dict[int, bytes] = {}
            for page_idx in used_log_pages:
                addr = group.block * self.spec.pages_per_block + page_idx
                raw_pages[page_idx], _ = self.chip.read_page(addr)
            for slot in sorted(group.loaded):
                old_addr = group.block * self.spec.pages_per_block + slot
                data, spare = self.chip.read_page(old_addr)
                pid = spare.pid
                image = data
                for s in group.placements.get(pid, ()):
                    page_idx = self.data_pages_per_block + s // self.slots_per_page
                    offset = (s % self.slots_per_page) * self.slot_size
                    raw = raw_pages[page_idx][offset : offset + self.slot_size]
                    _slot_pid, runs = decode_slot(raw)
                    image = apply_runs(image, runs)
                new_addr = new_block * self.spec.pages_per_block + slot
                self.chip.program_page(
                    new_addr, image, SpareArea(type=PageType.DATA, pid=pid)
                )
            old_block = group.block
            self.chip.erase_block(old_block)
            self._free.append(old_block)
            group.block = new_block
            group.log_fill = 0
            group.placements = {}
            self.merges += 1

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _take_free_block(self, for_merge: bool = False) -> int:
        """Pop a free block.

        Group creation must leave :data:`SPARE_BLOCKS` free so merging always
        has a relocation target; merges themselves may use the reserve.
        """
        available = len(self._free) - (0 if for_merge else SPARE_BLOCKS)
        if available <= 0:
            raise OutOfSpaceError(
                "IPL has no free blocks; database exceeds "
                f"{self.max_database_pages()} pages for this log-region size"
            )
        return self._free.popleft()

    def _locate(self, pid: int) -> Tuple[_Group, int]:
        gid, slot = divmod(pid, self.data_pages_per_block)
        group = self._groups.get(gid)
        if group is None or slot not in group.loaded:
            raise UnknownPageError(f"logical page {pid} was never written")
        return group, slot
