"""PDL — the page-differential logging driver (Section 4).

A logical page is stored as a *base page* plus at most one current
*differential*; differentials of many pages share differential pages via
the one-page write buffer.  The driver implements:

* **PDL_Writing** (Figure 7): read the base page, compute the
  differential, then Case 1 (fits in the buffer), Case 2 (flush the
  buffer first), or Case 3 (differential exceeds Max_Differential_Size —
  discard it and write the page as a fresh base, degenerating to the
  page-based method for that reflection);
* **PDL_Reading** (Figure 9): base page + differential from the write
  buffer or the differential page, at most two flash reads;
* garbage collection with differential-page *compaction* (Section 4.1):
  relocated differential pages carry only their still-valid entries, and
  the compaction buffer is flushed before each victim erase so every
  valid byte always exists somewhere in flash (crash-safe GC);
* the write-through ``flush`` of Section 4.5.

Timestamps are driver-issued monotonic counters persisted in spare areas
and differential entries; GC copies preserve them (copies are identical,
so recovery may keep either), while every new base page or differential
gets a fresh, strictly larger stamp.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from ..flash.chip import FlashChip
from ..flash.errors import WrongPageError
from ..flash.spare import PageType, SpareArea
from ..flash.stats import READ_STEP, WRITE_STEP
from ..ftl.allocator import COLD_STREAM, HOT_STREAM, BlockManager
from ..ftl.base import ChangeRun, PageUpdateMethod, format_size
from ..ftl.errors import UnknownPageError
from ..ftl.gc import GarbageCollector, GcConfig
from .differential import (
    DEFAULT_DIFF_UNIT,
    PAGE_HEADER_SIZE,
    Differential,
    DifferentialError,
    decode_differential_page,
    differential_page_stamps,
    encode_differential_page,
    entry_starts,
    merge_from_page,
)
from .fsck import FsckReport, fsck_driver
from .mapping import REC_VDCT_DROP, JournaledVdct, MappingConfig, TieredMappingTable
from .mapping_store import MappingStore
from .tables import (
    MappingEntry, PhysicalPageMappingTable, ValidDifferentialCountTable, stamp_mismatch
)
from .write_buffer import DifferentialWriteBuffer


class PdlDriver(PageUpdateMethod):
    """Page-differential logging with Max_Differential_Size = ``x``."""

    tightly_coupled = False

    def __init__(
        self,
        chip: FlashChip,
        max_differential_size: int = 256,
        diff_unit: "int | None" = DEFAULT_DIFF_UNIT,
        gc_config: Optional[GcConfig] = None,
        mapping: Optional[MappingConfig] = None,
    ) -> None:
        super().__init__(chip)
        if max_differential_size <= 0:
            raise ValueError("max_differential_size must be positive")
        self.name = f"PDL ({format_size(max_differential_size)})"
        self.max_differential_size = max_differential_size
        self.diff_unit = diff_unit
        self.gc_config = gc_config if gc_config is not None else GcConfig()
        if self.gc_config.policy != "greedy":
            self.name += f" gc={self.gc_config.policy}"
        #: Journal/snapshot store of the tiered mapping table, or None
        #: when the classic all-RAM tables are in use.
        self.mapping: Optional[MappingStore] = None
        if mapping is not None:
            self.mapping = MappingStore(chip, mapping)
        # The mapping region is the device's first blocks; the allocator
        # and GC never see them.
        self.blocks = BlockManager(
            chip, exclude_blocks=mapping.region_blocks if mapping is not None else 0
        )
        self.gc = GarbageCollector(chip, self.blocks, handler=self, config=self.gc_config)
        # Hot/cold separation: differential pages churn (hot) while base
        # pages persist (cold); giving each its own active block keeps
        # victims garbage-dense and cuts compaction's relocation volume.
        self._base_stream = COLD_STREAM
        self._diff_stream = HOT_STREAM if self.gc_config.hot_cold else COLD_STREAM
        self.ppmt: "PhysicalPageMappingTable | TieredMappingTable"
        self.vdct: ValidDifferentialCountTable
        if self.mapping is not None:
            assert mapping is not None
            self.ppmt = TieredMappingTable(
                self.mapping, cache_entries=mapping.cache_entries
            )
            self.vdct = JournaledVdct(self.mapping)
            self.mapping.bind(self)
            # Journal the open *before* the block's first program can
            # land: after a crash the tail scan visits exactly the
            # journaled open blocks plus the snapshot's active ones.
            self.blocks.on_block_open = self.mapping.note_block_open
        else:
            self.ppmt = PhysicalPageMappingTable()
            self.vdct = ValidDifferentialCountTable()
        buffer_capacity = self.page_size - PAGE_HEADER_SIZE
        self.buffer = DifferentialWriteBuffer(buffer_capacity)
        # A differential larger than the buffer can never be staged, so the
        # effective threshold is capped at the buffer capacity; with
        # Max_Differential_Size = one page this makes a fully-changed page
        # take Case 3 exactly as the paper describes.
        self.effective_max = min(max_differential_size, buffer_capacity)
        self._gc_buffer = DifferentialWriteBuffer(buffer_capacity)
        #: Differential pages of the in-flight GC victim whose vdct rows
        #: were dropped wholesale at relocation time.  With incremental
        #: GC, ordinary writes run between relocation and the victim's
        #: erase; a write superseding one of those differentials must not
        #: decrement the (already removed) count again.
        self._gc_victim_diffs: set = set()
        self._ts = 0
        # Counters for experiments and tests (Case 1/2/3 frequencies).
        self.case_counts = {1: 0, 2: 0, 3: 0}
        self.buffer_flushes = 0

    # ------------------------------------------------------------------
    # Timestamping
    # ------------------------------------------------------------------
    def _next_ts(self) -> int:
        self._ts += 1
        return self._ts

    @property
    def current_ts(self) -> int:
        return self._ts

    def resume_ts(self, last_seen: int) -> None:
        """Continue the timestamp sequence after recovery."""
        self._ts = max(self._ts, last_seen)

    # ------------------------------------------------------------------
    # Mapping-tier pacing
    # ------------------------------------------------------------------
    def _mapping_tick(self, force: bool = False) -> None:
        """Driver safe point: let the mapping store group-commit its
        journal and take a due snapshot.  Called after each top-level
        mutating entry point, outside every accounting phase and with no
        GC victim in flight mid-step state to capture."""
        if self.mapping is not None:
            self.mapping.tick(force=force)

    # ------------------------------------------------------------------
    # PageUpdateMethod: load / read / write / flush
    # ------------------------------------------------------------------
    def load_page(self, pid: int, data: bytes) -> None:
        self._check_page(pid, data)
        if pid in self.ppmt:
            raise ValueError(f"logical page {pid} already loaded")
        with self.chip.stats.phase("load"):
            self._program_base(pid, data)
        self._mapping_tick()

    def read_page(self, pid: int) -> bytes:
        """PDL_Reading (Figure 9): at most two flash reads."""
        entry = self.ppmt.get(pid)
        if entry is None:
            raise UnknownPageError(f"logical page {pid} was never written")
        chip = self.chip
        with chip.stats.phase(READ_STEP):
            base, spare = chip.read_page(entry.base_addr)
            # A checksum proves the page whole, not that it is this
            # pid's current base: its spare must carry the row's stamp.
            wrong = stamp_mismatch(pid, entry, "base", [(spare.pid, spare.timestamp)])
            if wrong is not None:
                raise WrongPageError(f"read of pid {pid}: {wrong}", entry.base_addr)
            # Step 2: the write buffer is consulted before flash.
            diff = self.buffer.get(pid)
            diff_addr = entry.diff_addr
            try:
                if diff is not None:
                    return diff.apply(base)
                if diff_addr is None:
                    return base
                # Steps 2–3 on flash: find the entry and merge it, one
                # pass.  A page whose checksum the read verified is as the
                # writer laid it out, so the row's entry offset is a safe
                # place to start; any other page is walked from its first
                # entry, which names damage in front of the entry too.
                diff_page, spare = chip.read_page(diff_addr)
                if spare.type is PageType.DIFFERENTIAL:
                    at = entry.diff_at if spare.checksum is not None else None
                    image = merge_from_page(diff_page, pid, base, at, entry.diff_ts)
                    if image is not None:
                        return image
                    found = differential_page_stamps(diff_page)
                else:
                    found = []  # a page of another type holds no entry
            except DifferentialError as exc:
                raise DifferentialError(
                    f"read of pid {pid}: differential page {diff_addr}: {exc}"
                ) from exc
            wrong = stamp_mismatch(pid, entry, "differential", found)
            raise WrongPageError(f"read of pid {pid}: {wrong}", diff_addr)

    def write_page(
        self, pid: int, data: bytes, update_logs: Optional[List[ChangeRun]] = None
    ) -> None:
        """PDL_Writing (Figure 7).

        ``update_logs`` is accepted and ignored: PDL computes the
        differential itself by re-reading the base page, which is what
        makes it DBMS-independent.
        """
        self._check_page(pid, data)
        with self.chip.stats.phase(WRITE_STEP):
            self.gc.on_write_begin()
            try:
                # Mapping lookups run after the incremental GC step:
                # relocation may have just moved this page's base.
                entry = self.ppmt.get(pid)
                if entry is None:
                    # First write of an unloaded page: a fresh base.
                    self._program_base(pid, data)
                    return
                # Step 1: read the base page, and check it is this
                # pid's current base before diffing against it.
                base, spare = self.chip.read_page(entry.base_addr)
                wrong = stamp_mismatch(pid, entry, "base", [(spare.pid, spare.timestamp)])
                if wrong is not None:
                    raise WrongPageError(f"write of pid {pid}: {wrong}", entry.base_addr)
                self._reflect(pid, data, base, entry)
            finally:
                self.gc.on_write_end()
        self._mapping_tick()

    def _reflect(
        self, pid: int, data: bytes, base: bytes, entry: MappingEntry
    ) -> None:
        """Steps 2–3 of PDL_Writing, given the (pre-read) base image and
        the mapping row it was read through (looked up after this write's
        incremental GC step)."""
        # Step 2: create the differential by comparison.
        diff = Differential.from_pages(
            pid,
            self._next_ts(),
            base,
            data,
            unit=self.diff_unit,
        )
        if diff.is_empty and entry.diff_addr is None and pid not in self.buffer:
            # The page matches its base exactly and no stale differential
            # exists anywhere: a pure no-op reflection.  When a stale
            # differential *does* exist, the empty differential flows
            # through the normal cases below — its fresh timestamp
            # supersedes the stale one both at runtime and in recovery.
            return
        # Every case below ends in a mutator of this row — now, or at the
        # flush that takes the differential out of the buffer; the table
        # keeps the row where that mutator finds it.
        self.ppmt.hold(pid, entry)
        # Step 3: three cases by differential size.
        if diff.size > self.effective_max:
            self.case_counts[3] += 1
            self._write_new_base(pid, data)
        else:
            self.buffer.remove(pid)
            if diff.size > self.buffer.free_space:
                self.case_counts[2] += 1
                self._flush_buffer()
            else:
                self.case_counts[1] += 1
            self.buffer.put(diff)

    def flush(self) -> None:
        """Write-through (Section 4.5): force the write buffer to flash."""
        with self.chip.stats.phase(WRITE_STEP):
            # A flush is a write-path entry point: it paces incremental
            # steps and meters any GC it absorbs (its buffer-flush
            # allocation can invoke the backstop) as a stall sample, so
            # the stall histogram misses no collection on the write path.
            self.gc.on_write_begin()
            try:
                self._flush_buffer()
            finally:
                self.gc.on_write_end()
        self._mapping_tick(force=True)

    def end_of_load(self) -> None:
        """Initial bulk load finished: force the mapping journal down so
        the freshly loaded table is durable before the workload starts."""
        self._mapping_tick(force=True)

    def fsck(self, repair: bool = True) -> FsckReport:
        """Scan for single-page corruption and repair it online.

        Returns a :class:`repro.core.fsck.FsckReport`; see that module
        for the detection sweep and the per-page repair decision tree.
        """
        return fsck_driver(self, repair=repair)

    # ------------------------------------------------------------------
    # Batched entry points
    # ------------------------------------------------------------------
    def load_pages(self, pages: Iterable[Tuple[int, bytes]]) -> None:
        """Bulk-load many pages via batched chip programs.

        Charges are identical to looping :meth:`load_page`; batches are
        bounded by the active block so the allocator can only trigger GC
        while nothing is staged (a staged-but-unprogrammed page must
        never be visible to GC as valid).
        """
        with self.chip.stats.phase("load"):
            staged: List[tuple] = []  # (addr, data, spare, pid, ts)
            staged_pids = set()

            def commit() -> None:
                if not staged:
                    return
                self.chip.program_pages([(a, d, s) for a, d, s, _p, _t in staged])
                for addr, _d, _s, pid, ts in staged:
                    self.blocks.note_valid(addr)
                    self.ppmt.set_base(pid, addr, ts)
                staged.clear()
                staged_pids.clear()

            for pid, data in pages:
                self._check_page(pid, data)
                if pid in self.ppmt or pid in staged_pids:
                    commit()
                    raise ValueError(f"logical page {pid} already loaded")
                if self.blocks.pages_left(self._base_stream) == 0:
                    commit()
                ts = self._next_ts()
                addr = self.blocks.allocate(stream=self._base_stream)
                spare = SpareArea(type=PageType.BASE, pid=pid, timestamp=ts)
                staged.append((addr, data, spare, pid, ts))
                staged_pids.add(pid)
            commit()
        self._mapping_tick()

    def write_pages(
        self,
        pages: Iterable[Tuple[int, bytes]],
        update_logs: Optional[List[ChangeRun]] = None,
    ) -> None:
        """Reflect many pages, batching the base-page re-reads.

        PDL_Writing's step 1 re-reads every target's base page; a
        buffer-pool flush of N pages turns those N reads into one
        batched chip call, then runs steps 2–3 sequentially (the write
        buffer's state evolves across the batch).  Base images are
        immutable while mapped — GC relocations copy them bit-identically
        — so prefetching them up front cannot read stale data.
        ``update_logs`` is accepted and ignored, as in
        :meth:`write_page`.
        """
        pages = list(pages)
        pids = [pid for pid, _ in pages]
        if len(set(pids)) != len(pids):
            # Duplicate pids must observe each other's effects in order;
            # fall back to the sequential path.
            super().write_pages(pages, update_logs)
            return
        for pid, data in pages:
            self._check_page(pid, data)
        with self.chip.stats.phase(WRITE_STEP):
            entries = [(pid, self.ppmt.get(pid)) for pid, _ in pages]
            mapped = [(pid, entry) for pid, entry in entries if entry is not None]
            bases = {}
            if mapped:
                images = self.chip.read_pages([entry.base_addr for _, entry in mapped])
                # Every base is checked, as in write_page, before any
                # page of the batch is reflected.
                for (pid, entry), (base, spare) in zip(mapped, images):
                    wrong = stamp_mismatch(pid, entry, "base", [(spare.pid, spare.timestamp)])
                    if wrong is not None:
                        raise WrongPageError(f"write of pid {pid}: {wrong}", entry.base_addr)
                    bases[pid] = base
            for pid, data in pages:
                self.gc.on_write_begin()
                try:
                    if pid not in bases:
                        self._program_base(pid, data)
                    else:
                        # Re-resolved per page: the GC step just above may
                        # have re-pointed the row since the batched read.
                        self._reflect(pid, data, bases[pid], self.ppmt.require(pid))
                finally:
                    self.gc.on_write_end()
        self._mapping_tick()

    # ------------------------------------------------------------------
    # Writing paths
    # ------------------------------------------------------------------
    def _program_base(self, pid: int, data: bytes) -> Optional[MappingEntry]:
        """Program ``data`` as ``pid``'s new base page and map it; returns
        the row ``set_base`` displaced (None for a page new to the table)."""
        ts = self._next_ts()
        addr = self.blocks.allocate(stream=self._base_stream)
        self.chip.program_page(
            addr, data, SpareArea(type=PageType.BASE, pid=pid, timestamp=ts)
        )
        self.blocks.note_valid(addr)
        return self.ppmt.set_base(pid, addr, ts)

    def _write_new_base(self, pid: int, data: bytes) -> None:
        """writingNewBasePage (Figure 8): Case 3.

        The superseded addresses are the row ``set_base`` displaces, read
        after the allocation: it may trigger GC, which can relocate this
        page's base page or differential page, and the obsolete marks
        must hit the live copies.
        """
        old = self._program_base(pid, data)  # also clears the differential
        if old is None:
            raise KeyError(f"logical page {pid} has no mapping entry")
        self.chip.mark_obsolete(old.base_addr)
        self.blocks.note_invalid(old.base_addr)
        self.buffer.remove(pid)
        self._gc_buffer.remove(pid)  # a staged compaction copy is now stale
        if old.diff_addr is not None:
            self._drop_diff_ref(old.diff_addr)

    def _flush_buffer(self) -> None:
        """writingDifferentialWriteBuffer (Figure 8)."""
        if self.buffer.is_empty:
            return
        diffs = self.buffer.drain()
        addr, starts = self._program_differentials(diffs, self._diff_stream)
        self.buffer_flushes += 1
        for diff, at in zip(diffs, starts):
            entry = self.ppmt.require(diff.pid)
            if entry.diff_addr is not None:
                self._drop_diff_ref(entry.diff_addr)
            self.ppmt.set_diff(diff.pid, addr, diff.timestamp, at)
            self.vdct.increment(addr)
            # A compaction copy staged from the in-flight GC victim is
            # superseded by this flush; flushing it later would re-point
            # the entry back at stale data.
            self._gc_buffer.remove(diff.pid)

    def _program_differentials(
        self, diffs: List[Differential], stream: str, for_gc: bool = False
    ) -> Tuple[int, List[int]]:
        """Write ``diffs`` as one new differential page on ``stream``;
        return its address and where each entry starts in it, for the
        caller to re-point their rows at.  The buffer flush, GC
        compaction and fsck's salvage all write here."""
        payload = encode_differential_page(diffs, self.page_size)
        addr = self.blocks.allocate(for_gc=for_gc, stream=stream)
        spare = SpareArea(type=PageType.DIFFERENTIAL, timestamp=self._next_ts())
        self.chip.program_page(addr, payload, spare)
        self.blocks.note_valid(addr)
        return addr, entry_starts(diffs)

    def _drop_diff_ref(self, addr: int) -> None:
        """decreaseValidDifferentialCount (Figure 8).

        Differential pages of the in-flight GC victim had their count
        rows removed wholesale when compaction picked them up; the page
        dies with the victim's erase, so there is nothing to decrement
        or obsolete here.
        """
        if addr in self._gc_victim_diffs:
            return
        if self.vdct.decrement(addr):
            self.chip.mark_obsolete(addr)
            self.blocks.note_invalid(addr)

    # ------------------------------------------------------------------
    # GC relocation handler (Section 4.1's valid-page moves + compaction)
    # ------------------------------------------------------------------
    def relocate_page(self, addr: int, data: bytes, spare: SpareArea) -> None:
        if spare.type is PageType.BASE:
            pid = spare.pid
            entry = None if pid is None else self.ppmt.get(pid)
            if pid is None or entry is None or entry.base_addr != addr:
                raise UnknownPageError(f"GC found unmapped valid base page at {addr}")
            self.ppmt.hold(pid, entry)  # move_base below re-points this row
            new = self.blocks.allocate(for_gc=True, stream=self._base_stream)
            self.chip.program_page(new, data, spare)  # timestamp preserved
            self.blocks.note_valid(new)
            self.ppmt.move_base(pid, new)
        elif spare.type is PageType.DIFFERENTIAL:
            try:
                diffs = decode_differential_page(data)
            except DifferentialError as exc:
                raise DifferentialError(
                    f"gc-compaction: differential page {addr}: {exc}"
                ) from exc
            # Compaction: keep only still-valid differentials.  The vdct
            # row is dropped through the plain base class on purpose:
            # the journal must not learn of the drop until every entry
            # has been re-pointed at the compacted copy (finish_victim
            # emits the REC_VDCT_DROP records after the compaction
            # flush, before the erase) — a replayed early drop would
            # retire a differential page the table still references.
            ValidDifferentialCountTable.remove(self.vdct, addr)
            self._gc_victim_diffs.add(addr)
            for diff in diffs:
                entry = self.ppmt.get(diff.pid)
                if entry is None or entry.diff_addr != addr:
                    continue  # superseded entry: garbage
                self.ppmt.hold(diff.pid, entry)  # the compaction flush re-points it
                if diff.size > self._gc_buffer.free_space:
                    self._flush_gc_buffer()
                self._gc_buffer.put(diff)
                # Until the compaction buffer is flushed, the entry keeps
                # pointing at the victim copy, which stays in flash until
                # finish_victim() runs — reads remain consistent.
        else:
            raise UnknownPageError(
                f"GC found page of unexpected type {spare.type!r} at {addr}"
            )

    def finish_victim(self, block: int) -> None:
        """Flush compacted differentials before the victim is erased.

        With the mapping journal enabled this is also a forced group
        commit: the victim's relocation records (MOVE_BASE, the
        compaction SET_DIFFs, and the VDCT_DROPs emitted here) must be
        durable before the erase destroys the old copies — a crash
        after the erase would otherwise replay a table that points into
        the erased block.
        """
        self._flush_gc_buffer()
        if self.mapping is not None:
            for addr in sorted(self._gc_victim_diffs):
                self.mapping.record(REC_VDCT_DROP, addr)
            self.mapping.commit()
        self._gc_victim_diffs.clear()

    def _flush_gc_buffer(self) -> None:
        if self._gc_buffer.is_empty:
            return
        diffs = self._gc_buffer.drain()
        # Generational promotion: a differential that survived a whole
        # collection belongs to a cold page (hot pages' differentials die
        # before GC reaches them), so compacted pages go to the cold
        # stream rather than back among the fast-churning fresh ones.
        addr, starts = self._program_differentials(diffs, self._base_stream, for_gc=True)
        for diff, at in zip(diffs, starts):
            # The old reference was inside the victim block (vdct entry
            # already dropped); just re-point.  GC copies preserve their
            # timestamps, so the entry stamp is unchanged.
            self.ppmt.set_diff(diff.pid, addr, diff.timestamp, at)
            self.vdct.increment(addr)

    # ------------------------------------------------------------------
    # Internals / introspection
    # ------------------------------------------------------------------
    def differential_page_count(self) -> int:
        """Differential pages currently referenced (for space reports)."""
        return len(self.vdct)
