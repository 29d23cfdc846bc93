"""OPU — the page-based method with the out-place update scheme.

This is the paper's strongest page-based baseline (Section 3): page-level
logical-to-physical mapping, writing each reflected logical page to a
fresh physical page, and marking the superseded copy obsolete.  Per
update it costs exactly one read to recreate a page and two writes to
reflect one (program new copy + obsolete the old copy), plus amortized
garbage collection — matching Figure 12's accounting.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..flash.chip import FlashChip
from ..flash.spare import PageType, SpareArea
from ..flash.stats import READ_STEP, WRITE_STEP
from .allocator import COLD_STREAM, HOT_STREAM, BlockManager
from .base import ChangeRun, PageUpdateMethod, wrong_pid
from .errors import UnknownPageError
from .gc import GarbageCollector, GcConfig


class OpuDriver(PageUpdateMethod):
    """Out-place update with a page-level mapping table."""

    tightly_coupled = False

    def __init__(
        self,
        chip: FlashChip,
        gc_config: Optional[GcConfig] = None,
    ):
        super().__init__(chip)
        self.name = "OPU"
        self.gc_config = gc_config if gc_config is not None else GcConfig()
        if self.gc_config.policy != "greedy":
            self.name += f" gc={self.gc_config.policy}"
        self.blocks = BlockManager(chip)
        self.gc = GarbageCollector(chip, self.blocks, handler=self, config=self.gc_config)
        # Hot/cold separation for a page-mapping FTL: fresh updates are
        # hot, pages that survived a collection are cold — the classic
        # generational split that keeps victims garbage-dense.
        self._write_stream = HOT_STREAM if self.gc_config.hot_cold else COLD_STREAM
        self._gc_stream = COLD_STREAM
        #: Logical-to-physical mapping table (the FTL's page-level map).
        self.mapping: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # PageUpdateMethod
    # ------------------------------------------------------------------
    def load_page(self, pid: int, data: bytes) -> None:
        self._check_page(pid, data)
        if pid in self.mapping:
            raise ValueError(f"logical page {pid} already loaded")
        with self.chip.stats.phase("load"):
            self._program(pid, data)

    def read_page(self, pid: int) -> bytes:
        """One flash read; a page whose spare names another pid raises
        :class:`~repro.flash.errors.WrongPageError`.  The spare carries
        no timestamp, so a stale copy of the same pid is not detected."""
        addr = self._addr_of(pid)
        with self.chip.stats.phase(READ_STEP):
            data, spare = self.chip.read_page(addr)
        if spare.pid != pid:
            raise wrong_pid(pid, addr, spare.pid)
        return data

    def write_page(
        self, pid: int, data: bytes, update_logs: Optional[List[ChangeRun]] = None
    ) -> None:
        self._check_page(pid, data)
        with self.chip.stats.phase(WRITE_STEP):
            self.gc.on_write_begin()
            try:
                # Allocate first: allocation may trigger GC, which can
                # relocate this very page — the superseded address must be
                # read *after* any collection so the obsolete mark hits
                # the live copy.
                addr = self.blocks.allocate(stream=self._write_stream)
                old = self.mapping.get(pid)
                spare = SpareArea(type=PageType.DATA, pid=pid)
                self.chip.program_page(addr, data, spare)
                self.blocks.note_valid(addr)
                self.mapping[pid] = addr
                if old is not None:
                    # Out-place update: the superseded copy is marked
                    # obsolete with a spare program, the paper's second
                    # write per update.
                    self.chip.mark_obsolete(old)
                    self.blocks.note_invalid(old)
            finally:
                self.gc.on_write_end()

    # ------------------------------------------------------------------
    # GC relocation handler
    # ------------------------------------------------------------------
    def relocate_page(self, addr: int, data: bytes, spare: SpareArea) -> None:
        pid = spare.pid
        if pid is None or self.mapping.get(pid) != addr:
            # The validity bitmap and the mapping table must agree; a
            # mismatch means FTL state corruption, not a recoverable event.
            raise UnknownPageError(f"GC found unmapped valid page at {addr}")
        new = self.blocks.allocate(for_gc=True, stream=self._gc_stream)
        self.chip.program_page(new, data, spare)
        self.blocks.note_valid(new)
        self.mapping[pid] = new
        # No obsolete mark: the victim block is erased once fully drained.

    def finish_victim(self, block: int) -> None:
        """OPU relocates page-at-a-time; nothing is buffered."""

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _program(self, pid: int, data: bytes) -> None:
        addr = self.blocks.allocate(stream=self._write_stream)
        spare = SpareArea(type=PageType.DATA, pid=pid)
        self.chip.program_page(addr, data, spare)
        self.blocks.note_valid(addr)
        self.mapping[pid] = addr

    def _addr_of(self, pid: int) -> int:
        try:
            return self.mapping[pid]
        except KeyError:
            raise UnknownPageError(f"logical page {pid} was never written") from None
