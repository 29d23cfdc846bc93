"""Free-space management for out-place drivers (OPU and PDL).

NAND forbids in-place overwrite, so out-place drivers append new physical
pages and leave superseded copies behind as garbage.  :class:`BlockManager`
owns that lifecycle:

* blocks start *free* (erased); an *active* block per append stream
  serves allocations page-by-page — the default is one ``cold`` stream,
  and drivers practising hot/cold separation open a second ``hot``
  stream so short-lived pages (differential pages, fresh OPU writes) and
  long-lived ones (base pages, GC survivors) never share a block;
* a RAM validity bitmap tracks which physical pages hold live data —
  drivers call :meth:`note_valid` when they program a page and
  :meth:`note_invalid` when its contents are superseded;
* per-block metadata for victim selection: the last-write clock reading
  (block *age* for cost-benefit policies) and the erase count (wear for
  wear-aware policies), both readable without charging I/O time;
* when the free-block pool falls to the reserve level, the registered
  garbage collector is invoked *before* the pool is tapped, and GC
  relocations allocate with ``for_gc=True`` so they can dip into the
  reserve without recursing.

The reserve (default 2 blocks) guarantees GC can always relocate a
victim's valid pages: a victim holds at most one block's worth of valid
data, which fits in the active blocks' tails plus the reserve — one
fresh block per stream the relocations may append to.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, Iterable, List, Optional

import numpy as np

from ..flash.chip import FlashChip
from ..flash.spec import FlashSpec
from .errors import ConfigurationError, OutOfSpaceError

if TYPE_CHECKING:
    from .gc import GarbageCollector

#: Append stream for long-lived data: base pages, GC-relocated survivors.
COLD_STREAM = "cold"

#: Append stream for short-lived data: differential pages, fresh updates.
HOT_STREAM = "hot"


class BlockManager:
    """Tracks free blocks, per-stream allocation points, and page validity."""

    def __init__(
        self, chip: FlashChip, reserve_blocks: int = 2, exclude_blocks: int = 0
    ):
        if reserve_blocks < 1:
            raise ValueError("reserve_blocks must be at least 1")
        if exclude_blocks < 0:
            raise ValueError("exclude_blocks must be non-negative")
        if chip.spec.n_blocks <= reserve_blocks + exclude_blocks:
            raise ValueError(
                f"chip of {chip.spec.n_blocks} blocks cannot sustain a reserve "
                f"of {reserve_blocks} plus {exclude_blocks} excluded blocks"
            )
        self.chip = chip
        self.spec: FlashSpec = chip.spec
        self.reserve_blocks = reserve_blocks
        #: The first ``exclude_blocks`` blocks are owned by someone else
        #: (the mapping region) and never allocated or collected.
        self.exclude_blocks = exclude_blocks
        self._free: Deque[int] = deque(range(exclude_blocks, self.spec.n_blocks))
        self._is_free: List[bool] = [
            block >= exclude_blocks for block in range(self.spec.n_blocks)
        ]
        #: stream name -> its open active block (absent until first use).
        self._active: Dict[str, int] = {}
        self._next_page: Dict[str, int] = {}
        #: One byte per physical page (0/1), so the snapshot's validity
        #: bitmap is a single ``packbits`` over the buffer.
        self._valid = bytearray(self.spec.n_pages)
        self._valid_per_block: List[int] = [0] * self.spec.n_blocks
        #: Chip-clock reading of each block's most recent page program —
        #: the "age" input of cost-benefit victim selection.
        self._last_write_us: List[float] = [0.0] * self.spec.n_blocks
        #: The registered collector, held weakly: it owns this manager.
        self._gc: "Optional[weakref.ref[GarbageCollector]]" = None
        #: Fired with the block id every time a stream opens a fresh
        #: block, *before* any page of it is programmed.  The mapping
        #: journal uses this to make its OPEN_BLOCK record durable before
        #: the first data program can land in the block — the tail-scan
        #: set after a crash is exactly the journaled open blocks.
        self.on_block_open: Optional[Callable[[int], None]] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def set_gc(self, collector: "Optional[GarbageCollector]") -> None:
        """Register the collector whose ``collect()`` runs when free
        blocks run low (``None`` unregisters it).

        Held by weak reference and the method looked up per call: the
        collector owns this manager, so a strong edge back would make
        every engine a reference cycle that only a full cyclic
        collection frees.
        """
        self._gc = None if collector is None else weakref.ref(collector)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(self, for_gc: bool = False, stream: str = COLD_STREAM) -> int:
        """Return the next free physical page address on ``stream``.

        Regular allocations trigger GC when the pool is at the reserve
        level; GC relocations (``for_gc=True``) may consume the reserve.
        Streams are independent append points over one shared free pool.
        """
        if (
            stream not in self._active
            or self._next_page[stream] >= self.spec.pages_per_block
        ):
            self._open_new_block(for_gc, stream)
        addr = (
            self._active[stream] * self.spec.pages_per_block
            + self._next_page[stream]
        )
        self._next_page[stream] += 1
        return addr

    def _open_new_block(self, for_gc: bool, stream: str) -> None:
        if not for_gc and self._gc is not None and len(self._free) <= self.reserve_blocks:
            collector = self._gc()
            if collector is None:
                raise ConfigurationError(
                    "BlockManager: its garbage collector was freed; the "
                    "driver that owned both is gone"
                )
            collector.collect()
            # GC relocations may have opened a fresh block on this very
            # stream and left room in it; abandoning that tail (by
            # unconditionally popping another block) would strand
            # unprogrammed pages as instant garbage and inflate the
            # erase count.
            if (
                stream in self._active
                and self._next_page[stream] < self.spec.pages_per_block
            ):
                return
        if not self._free:
            raise OutOfSpaceError("no free blocks remain on the chip")
        block = self._free.popleft()
        self._is_free[block] = False
        self._active[stream] = block
        self._next_page[stream] = 0
        if self.on_block_open is not None:
            self.on_block_open(block)

    # ------------------------------------------------------------------
    # Validity tracking
    # ------------------------------------------------------------------
    def note_valid(self, addr: int) -> None:
        """Record that ``addr`` now holds live data."""
        block = addr // self.spec.pages_per_block
        if not self._valid[addr]:
            self._valid[addr] = True
            self._valid_per_block[block] += 1
        self._last_write_us[block] = self.chip.clock_us

    def note_invalid(self, addr: int) -> None:
        """Record that ``addr`` no longer holds live data."""
        if self._valid[addr]:
            self._valid[addr] = False
            self._valid_per_block[addr // self.spec.pages_per_block] -= 1

    def is_valid(self, addr: int) -> bool:
        return self._valid[addr] != 0

    def valid_count(self, block: int) -> int:
        return self._valid_per_block[block]

    def valid_bitmap(self) -> bytes:
        """One bit per physical page, set when valid; bit ``addr & 7`` of
        byte ``addr >> 3`` (snapshot input)."""
        flags = np.frombuffer(self._valid, dtype=np.uint8)
        return np.packbits(flags, bitorder="little").tobytes()

    def valid_pages_in(self, block: int) -> List[int]:
        start = block * self.spec.pages_per_block
        return [
            addr
            for addr in range(start, start + self.spec.pages_per_block)
            if self._valid[addr]
        ]

    # ------------------------------------------------------------------
    # Per-block metadata (victim-policy inputs)
    # ------------------------------------------------------------------
    def block_age(self, block: int) -> float:
        """Simulated microseconds since the block last took a program."""
        return self.chip.clock_us - self._last_write_us[block]

    def erase_count(self, block: int) -> int:
        """Lifetime erases of ``block`` (wear), from the device backend."""
        return self.chip.erase_count(block)

    # ------------------------------------------------------------------
    # Block lifecycle
    # ------------------------------------------------------------------
    @property
    def active_block(self) -> Optional[int]:
        """The cold (default) stream's active block."""
        return self._active.get(COLD_STREAM)

    def active_blocks(self) -> List[int]:
        """Every stream's open active block."""
        return list(self._active.values())

    def pages_left(self, stream: str = COLD_STREAM) -> int:
        """Allocations ``stream``'s active block can still serve without
        opening a new block (and therefore without any chance of
        triggering GC).  Batched writers use this to bound a batch so GC
        never runs while staged-but-unprogrammed allocations exist."""
        if stream not in self._active:
            return 0
        return self.spec.pages_per_block - self._next_page[stream]

    @property
    def pages_left_in_active(self) -> int:
        """``pages_left`` of the cold (default) stream."""
        return self.pages_left(COLD_STREAM)

    @property
    def free_block_count(self) -> int:
        return len(self._free)

    def is_free(self, block: int) -> bool:
        return self._is_free[block]

    def victim_candidates(self) -> Iterable[int]:
        """Blocks eligible for GC: programmed, not active, with garbage.

        Garbage includes both obsolete pages and never-programmed tail
        pages of sealed blocks (e.g. the active block at crash time).
        """
        active = set(self._active.values())
        for block in range(self.exclude_blocks, self.spec.n_blocks):
            if self._is_free[block] or block in active:
                continue
            if self._valid_per_block[block] < self.spec.pages_per_block:
                yield block

    def garbage_in(self, block: int) -> int:
        return self.spec.pages_per_block - self._valid_per_block[block]

    def on_block_erased(self, block: int) -> None:
        """Return an erased block to the free pool and clear its validity."""
        start = block * self.spec.pages_per_block
        for addr in range(start, start + self.spec.pages_per_block):
            self._valid[addr] = False
        self._valid_per_block[block] = 0
        self._last_write_us[block] = self.chip.clock_us
        self._is_free[block] = True
        self._free.append(block)

    # ------------------------------------------------------------------
    # Recovery support
    # ------------------------------------------------------------------
    def rebuild(self, valid: bytearray) -> None:
        """Reconstruct allocator state after a crash.

        ``valid`` is the validity bitmap the recovery scan or the restart
        determined, in this manager's own form: one byte per physical
        page, 1 for a live page and 0 otherwise.  The manager takes it
        over as its bitmap and counts each block's live pages in one
        numpy pass.  Fully-erased blocks return to the free pool; every
        other block is sealed (its unprogrammed tail is treated as garbage
        until GC reclaims it), and allocation resumes from a fresh block.
        """
        self._free.clear()
        self._active.clear()
        self._next_page.clear()
        self._valid = valid
        flags = np.frombuffer(valid, dtype=np.uint8)
        self._valid_per_block = (
            flags.reshape(self.spec.n_blocks, -1).sum(axis=1, dtype=np.int64).tolist()
        )
        # Pre-crash write times are unknowable; restart every block's age
        # clock at "now" so cost-benefit scores stay well-defined.
        self._last_write_us = [self.chip.clock_us] * self.spec.n_blocks
        self._is_free = [False] * self.spec.n_blocks
        for block in self.chip.erased_blocks():
            if block >= self.exclude_blocks:
                self._is_free[block] = True
                self._free.append(block)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def utilization(self) -> float:
        """Fraction of chip pages currently valid."""
        return sum(self._valid_per_block) / self.spec.n_pages
