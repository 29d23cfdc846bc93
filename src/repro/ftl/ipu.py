"""IPU — the page-based method with the in-place update scheme.

The paper describes (and then dismisses) in-place update: a logical page
always lives at the same physical page, so reflecting it requires reading
every other page in the block, erasing the whole block, and re-programming
everything (Section 3, the four-step sequence).  It exists here as the
worst-case baseline of Figures 12–14: one erase plus ``Npage`` writes plus
``Npage − 1`` reads per reflected page, independent of how little data
changed.

IPU needs no garbage collection and no obsolete marking — there is never
more than one physical copy of a logical page.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..flash.chip import FlashChip
from ..flash.spare import PageType, SpareArea
from ..flash.stats import READ_STEP, WRITE_STEP
from .base import ChangeRun, PageUpdateMethod, wrong_pid
from .errors import OutOfSpaceError, UnknownPageError


class IpuDriver(PageUpdateMethod):
    """In-place update: fixed logical-to-physical placement."""

    tightly_coupled = False

    def __init__(self, chip: FlashChip):
        super().__init__(chip)
        self.name = "IPU"
        #: Fixed mapping assigned at load time.
        self.mapping: Dict[int, int] = {}
        self._next_addr = 0
        #: In-block page slots occupied per block (needed to rewrite the
        #: block's survivors after the erase).
        self._occupied: Dict[int, Set[int]] = {}
        #: pid stored at each occupied physical address.
        self._pid_at: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # PageUpdateMethod
    # ------------------------------------------------------------------
    def load_page(self, pid: int, data: bytes) -> None:
        self._check_page(pid, data)
        if pid in self.mapping:
            raise ValueError(f"logical page {pid} already loaded")
        if self._next_addr >= self.spec.n_pages:
            raise OutOfSpaceError("chip full during in-place load")
        addr = self._next_addr
        self._next_addr += 1
        with self.chip.stats.phase("load"):
            self.chip.program_page(addr, data, SpareArea(type=PageType.DATA, pid=pid))
        self.mapping[pid] = addr
        self._pid_at[addr] = pid
        block = addr // self.spec.pages_per_block
        self._occupied.setdefault(block, set()).add(addr % self.spec.pages_per_block)

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
        """The paper's four-step in-place overwrite.

        (1) read every other occupied page of the block, (2) erase the
        block, (3) write the updated page back in place, (4) rewrite the
        pages read in step (1).
        """
        self._check_page(pid, data)
        if pid not in self.mapping:
            # First write of a page never loaded: claim the next in-place
            # slot, identical to a load but attributed to the write step.
            if self._next_addr >= self.spec.n_pages:
                raise OutOfSpaceError("chip full during in-place first write")
            addr = self._next_addr
            self._next_addr += 1
            with self.chip.stats.phase(WRITE_STEP):
                self.chip.program_page(
                    addr, data, SpareArea(type=PageType.DATA, pid=pid)
                )
            self.mapping[pid] = addr
            self._pid_at[addr] = pid
            block = addr // self.spec.pages_per_block
            self._occupied.setdefault(block, set()).add(
                addr % self.spec.pages_per_block
            )
            return
        addr = self._addr_of(pid)
        block = addr // self.spec.pages_per_block
        base = block * self.spec.pages_per_block
        with self.chip.stats.phase(WRITE_STEP):
            survivors = []
            for slot in sorted(self._occupied.get(block, ())):
                other = base + slot
                if other == addr:
                    continue
                other_data, other_spare = self.chip.read_page(other)
                survivors.append((other, other_data, other_spare))
            self.chip.erase_block(block)
            self.chip.program_page(addr, data, SpareArea(type=PageType.DATA, pid=pid))
            for other, other_data, other_spare in survivors:
                self.chip.program_page(other, other_data, other_spare)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _addr_of(self, pid: int) -> int:
        try:
            return self.mapping[pid]
        except KeyError:
            raise UnknownPageError(f"logical page {pid} was never written") from None
