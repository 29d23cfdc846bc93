"""Crash restart of a mapping-enabled driver — O(dirty tail), in three parts.

1. **survey** (:func:`survey_region`) reads the mapping region once —
   two seals, the meta pages, the journal; O(dirty-since-snapshot),
   never O(device) — into a :class:`~repro.core.restart_plan.RegionSurvey`.
2. **plan** (:func:`~repro.core.restart_plan.plan_restart`) decides,
   purely, between the journal and the scan.
3. **execute** (:func:`restart_driver`) is the only part that touches the
   driver.  ``Fast``: adopt the snapshot, read the snapshot pages the
   journal prefix names in one batch, replay the prefix, run
   a *seeded* Figure-11 scan over only the snapshot-active and
   journaled-open blocks to recover mutations whose records were still
   pending at the crash.  ``Fallback``: the full Figure-11 scan, which is
   always sound.  A restart whose journal cannot simply be continued
   ends with a fresh repair snapshot.

``docs/recovery.md`` walks the decision tree and every crash window.
"""

from __future__ import annotations

import logging
import struct
import zlib
from typing import Any, Callable, Iterable, Set, Tuple, Union

import numpy as np

from ..flash.chip import FlashChip
from ..flash.errors import ChecksumError, ProgramError, SpareProgramError
from ..flash.spare import PageType
from .differential import DifferentialError, differential_page_stamps
from .mapping import (
    JOURNAL_HEADER,
    MAPPING_PHASE,
    PAGE_HEADER,
    REC_CLEAR_DIFF,
    REC_MOVE_BASE,
    REC_OPEN_BLOCK,
    REC_REMOVE,
    REC_SET_BASE,
    REC_SET_DIFF,
    REC_VDCT_DEC,
    REC_VDCT_DROP,
    REC_VDCT_INC,
    RECORD,
    MappingConfig,
    MappingFormatError,
    TieredMappingTable,
)
from .mapping_store import (
    JOURNAL_MAGIC,
    META_MAGIC,
    OVERFLOW_MAGIC,
    SEAL,
    SEAL_MAGIC,
    MappingStore,
    decode_meta,
)
from .pdl import PdlDriver
from .recovery import RECOVERY_PHASE, RecoveryReport, recover_tables
from .restart_plan import (
    ERASED,
    UNREADABLE,
    Fallback,
    FallbackReason,
    Fast,
    JournalPage,
    Meta,
    PageKind,
    Record,
    RegionSurvey,
    RestartPlan,
    Seal,
    Unread,
    newest_seal,
    plan_restart,
    repair_seq,
)
from .tables import PhysicalPageMappingTable, ValidDifferentialCountTable

log = logging.getLogger(__name__)

#: The page types the per-page loops test, as module constants: a global
#: load, not the enum's member lookup, on every scanned spare.
_ERASED_PAGE = PageType.ERASED
_BASE = PageType.BASE
_DIFFERENTIAL = PageType.DIFFERENTIAL
_CHECKPOINT = PageType.CHECKPOINT
_CORRUPT = PageType.CORRUPT

#: Journal records that re-point a mapping row (``a`` is its pid).
_ROW_RECORDS = frozenset((REC_SET_BASE, REC_MOVE_BASE, REC_SET_DIFF, REC_CLEAR_DIFF, REC_REMOVE))


def restart_driver(
    chip: FlashChip, *, mapping: MappingConfig, **driver_kwargs: Any
) -> Tuple[PdlDriver, RecoveryReport]:
    """Restart a mapping-enabled PDL driver after a crash or shutdown.

    Survey, plan, execute (above); the plan carried out is ``report.plan``
    and one log line.  Either way the driver comes back fully operational
    and, when the journal could not simply continue, a fresh repair
    snapshot is written so the *next* restart is fast again.

    ``driver_kwargs`` are :class:`PdlDriver`'s own keywords, forwarded as
    given.  The return contract matches
    :func:`repro.core.recovery.recover_driver` (which delegates here when
    ``mapping`` is set).
    """
    driver = PdlDriver(chip, mapping=mapping, **driver_kwargs)
    store = driver.mapping
    assert store is not None
    survey = survey_region(store)
    plan = plan_restart(survey)
    report = RecoveryReport(pages_scanned=survey.pages_read)
    with store.suppressed():
        if isinstance(plan, Fast):
            plan = _execute_fast(driver, store, survey, plan, report)
        if isinstance(plan, Fallback):
            report = _execute_fallback(driver, store, plan, report.pages_scanned)
    report.plan = plan
    log.log(logging.WARNING if report.repaired else logging.INFO, "restart plan: %r", plan)
    if report.repaired:
        # One repair snapshot re-arms the fast path; it runs only when
        # the journal could not be continued, so the common clean-prefix
        # restart stays strictly O(dirty tail).
        store.snapshot()
    return driver, report


# ----------------------------------------------------------------------
# Survey
# ----------------------------------------------------------------------
def survey_region(store: MappingStore) -> RegionSurvey:
    """Read the mapping region once, with no early exit: what a damaged
    region still holds is what the repair epoch is computed from."""
    with store.stats.phase(MAPPING_PHASE):
        seals = (_read_seal(store, 0), _read_seal(store, 1))
        newest = newest_seal(seals)
        meta: Union[Meta, Unread, None] = None
        pages_read = 2
        if newest is not None and UNREADABLE not in seals:
            meta = _read_meta(store, newest)
            pages_read += newest.n_meta
        slots = range(store.journal_pages)
        spares = store.chip.read_spares([store.journal_page_addr(i) for i in slots])
        journal = tuple(
            _read_journal_page(store, index)
            for index in (slots[-1], *slots[:-1])  # the overflow slot first
            if not spares[index].is_erased
        )
    pages_read += len(slots) + len(journal)
    return RegionSurvey(seals, meta, journal, len(slots), pages_read)


def _read_seal(store: MappingStore, half: int) -> Union[Seal, Unread]:
    """One half's seal page: erased, a valid seal, or anything else."""
    try:
        data, spare = store.chip.read_page(store.seal_addr(half))
    except ChecksumError:
        return UNREADABLE
    if spare.is_erased:
        return ERASED
    magic, *fields = SEAL.unpack_from(data, 0)
    seal = Seal(*fields)
    if (
        spare.type is not _CHECKPOINT
        or magic != SEAL_MAGIC
        or seal.seq % 2 != half
        or seal.n_data + seal.n_meta + 1 > store.half_pages
    ):
        return UNREADABLE
    return seal


def _read_meta(store: MappingStore, seal: Seal) -> Union[Meta, Unread]:
    start = store.half_start_page(seal.seq % 2) + seal.n_data
    try:
        pages = store.chip.read_pages(list(range(start, start + seal.n_meta)))
    except ChecksumError:
        return UNREADABLE
    chunks = []
    for index, (data, _spare) in enumerate(pages, seal.n_data):
        magic, page_seq, page_index, size = PAGE_HEADER.unpack_from(data, 0)
        if (magic, page_seq, page_index) != (META_MAGIC, seal.seq, index):
            return UNREADABLE
        chunks.append(data[PAGE_HEADER.size : PAGE_HEADER.size + size])
    blob = b"".join(chunks)
    if zlib.crc32(blob) != seal.meta_crc:
        return UNREADABLE
    try:
        directory, active, vdct_rows, bitmap = decode_meta(blob)
    except (MappingFormatError, struct.error):
        return UNREADABLE
    if len(directory) != seal.n_data:
        return UNREADABLE
    return Meta(tuple(directory), tuple(active), tuple(vdct_rows), bitmap)


def _read_journal_page(store: MappingStore, index: int) -> JournalPage:
    try:
        data, _spare = store.chip.read_page(store.journal_page_addr(index))
    except ChecksumError:
        return JournalPage(index, PageKind.DAMAGED, -1)
    magic, epoch, page_index, n_records, crc = JOURNAL_HEADER.unpack_from(data, 0)
    if magic == OVERFLOW_MAGIC:
        return JournalPage(index, PageKind.OVERFLOW, epoch)
    if magic == JOURNAL_MAGIC and page_index == index:
        size = n_records * RECORD.size
        body = data[JOURNAL_HEADER.size : JOURNAL_HEADER.size + size]
        if len(body) == size and zlib.crc32(body) == crc:
            records = tuple(RECORD.iter_unpack(body))
            return JournalPage(index, PageKind.RECORDS, epoch, records)
    return JournalPage(index, PageKind.DAMAGED, -1)


# ----------------------------------------------------------------------
# Execute: Fast
# ----------------------------------------------------------------------
def _execute_fast(
    driver: PdlDriver,
    store: MappingStore,
    survey: RegionSurvey,
    plan: Fast,
    report: RecoveryReport,
) -> RestartPlan:
    """Carry out ``plan``; returns it, or the fallback it is demoted to."""
    table = driver.ppmt
    assert isinstance(table, TieredMappingTable)
    # Page validity in the allocator's own form from here to the rebuild:
    # one byte per physical page, 1 when live.
    valid = bytearray(store.spec.n_pages)
    max_ts = 0
    seal, meta = newest_seal(survey.seals), survey.meta
    if seal is not None:  # else the implicit empty snapshot of epoch 0
        assert isinstance(meta, Meta)
        store.adopt(seal.seq, meta.directory, meta.active_blocks)
        report.snapshot_seq = seal.seq
        table.seed_counts(seal.count, seal.max_pid1 - 1)
        driver.vdct.seed(meta.vdct_rows)
        bits = np.frombuffer(meta.bitmap, dtype=np.uint8)
        valid = bytearray(np.unpackbits(bits, count=len(valid), bitorder="little"))
        max_ts = seal.max_ts
    retire: Set[int] = set()
    try:
        # Every snapshot page a row record names is read once, up front,
        # in one batch: the clean cache is far smaller than the table, so
        # paging them in record by record reads evicted pages again.
        with table.staged(a for kind, a, _b, _ts in plan.records if kind in _ROW_RECORDS):
            max_ts = max(
                max_ts, _replay(driver, store, table, plan.records, valid, retire, report)
            )
    except (KeyError, struct.error, ChecksumError, MappingFormatError):
        # Replay and the tail scan read the snapshot: a data page that is
        # programmed but unreadable, or a record stream the tables reject
        # — corrupt in a way the CRCs could not see.  What was adopted
        # and replayed is void; the scan stays sound.
        store.abandon()
        table.on_snapshot()
        table.seed_counts(0, -1)
        return Fallback(FallbackReason.REPLAY_REJECTED, repair_seq(survey))
    report.journal_pages = plan.prefix_pages
    report.journal_records = len(plan.records)
    _retire_sweep(driver, retire, valid, report)
    driver.blocks.rebuild(valid)
    driver.resume_ts(max_ts)
    store.resume_journal(plan.prefix_pages, len(plan.records))
    return plan


def _replay(
    driver: PdlDriver,
    store: MappingStore,
    table: TieredMappingTable,
    records: Iterable[Record],
    valid: bytearray,
    retire: Set[int],
    report: RecoveryReport,
) -> int:
    """Apply the journal records, then tail-scan; returns the max stamp."""
    vdct = driver.vdct
    max_ts = 0
    scan_blocks: Set[int] = set(store.snapshot_active_blocks)
    for kind, a, b, ts in records:
        max_ts = max(max_ts, ts)
        if kind == REC_SET_BASE:
            old = table.set_base(a, b, ts)
            valid[b] = 1
            if old is not None and old.base_addr >= 0 and old.base_addr != b:
                valid[old.base_addr] = 0
                retire.add(old.base_addr)
        elif kind == REC_MOVE_BASE:
            old = table.require(a)
            if old.base_addr >= 0 and old.base_addr != b:
                valid[old.base_addr] = 0
                retire.add(old.base_addr)
            table.hold(a, old)  # the row move_base re-points
            table.move_base(a, b)
            valid[b] = 1
        elif kind == REC_SET_DIFF:
            table.set_diff(a, b, ts)
        elif kind == REC_CLEAR_DIFF:
            table.set_diff(a, None)
        elif kind == REC_REMOVE:
            old = table.remove(a)
            if old is not None and old.base_addr >= 0:
                valid[old.base_addr] = 0
                retire.add(old.base_addr)
        elif kind == REC_VDCT_INC:
            if vdct.count(a) == 0:
                valid[a] = 1
            vdct.increment(a)
        elif kind == REC_VDCT_DEC:
            if vdct.decrement(a):
                valid[a] = 0
                retire.add(a)
        elif kind == REC_VDCT_DROP:
            vdct.remove(a)
            valid[a] = 0
            retire.add(a)
        elif kind == REC_OPEN_BLOCK:
            scan_blocks.add(a)
        else:
            raise MappingFormatError(f"unknown journal record kind {kind}")
    return max(max_ts, _tail_scan(driver, valid, retire, scan_blocks, report))


def _tail_scan(
    driver: PdlDriver,
    valid: bytearray,
    retire: Set[int],
    scan_blocks: Set[int],
    report: RecoveryReport,
) -> int:
    """Seeded Figure-11 scan over only the blocks writes could have
    reached since the snapshot: re-derives every mutation whose journal
    record was still pending (unflushed) at the crash."""
    chip = driver.chip
    table = driver.ppmt
    assert isinstance(table, TieredMappingTable)
    vdct = driver.vdct
    spec = chip.spec
    placeholders: Set[int] = set()
    max_ts = 0

    def drop_ref(addr: int) -> None:
        if vdct.decrement(addr):
            valid[addr] = 0
            retire.add(addr)

    with chip.stats.phase(RECOVERY_PHASE):
        for block in sorted(scan_blocks):
            if block < driver.blocks.exclude_blocks or block >= spec.n_blocks:
                continue
            start = block * spec.pages_per_block
            addrs = range(start, start + spec.pages_per_block)
            spares = chip.read_spares(addrs)
            report.tail_pages_scanned += len(addrs)
            report.pages_scanned += len(addrs)
            for addr, spare in zip(addrs, spares):
                kind = spare.type
                if kind is _ERASED_PAGE:
                    continue
                max_ts = max(max_ts, spare.timestamp or 0)
                if spare.obsolete or kind is _CHECKPOINT:
                    continue
                if kind is _CORRUPT or (kind is _BASE and spare.pid is None):
                    retire.add(addr)
                    valid[addr] = 0
                    continue
                if kind is _BASE:
                    _tail_scan_base(
                        table, addr, spare.pid, spare.timestamp or 0,
                        valid, retire, drop_ref, report,
                    )
                elif kind is _DIFFERENTIAL:
                    if vdct.count(addr) > 0:
                        continue  # fully described by replayed records
                    try:
                        data, _ = chip.read_page(addr)
                        stamps = differential_page_stamps(data)
                    except (ChecksumError, DifferentialError):
                        retire.add(addr)
                        valid[addr] = 0
                        continue
                    report.pages_scanned += 1
                    adopted = 0
                    for pid, timestamp in stamps:
                        entry = table.get(pid)
                        base_ts = (
                            entry.base_ts
                            if entry is not None and entry.base_addr >= 0
                            else -1
                        )
                        if timestamp <= base_ts:
                            continue
                        current = (
                            entry.diff_ts
                            if entry is not None and entry.diff_ts is not None
                            else -1
                        )
                        if timestamp <= current:
                            continue
                        if entry is None:
                            table.set_base(pid, -1, -1)
                            placeholders.add(pid)
                        elif entry.diff_addr is not None:
                            drop_ref(entry.diff_addr)
                        table.set_diff(pid, addr, timestamp)
                        vdct.increment(addr)
                        adopted += 1
                        max_ts = max(max_ts, timestamp)
                    report.differentials_adopted += adopted
                    if vdct.count(addr) > 0:
                        valid[addr] = 1
                    else:
                        retire.add(addr)
        # Differentials whose base never materialized (torn load).
        for pid in placeholders:
            entry = table.get(pid)
            if entry is not None and entry.base_addr < 0:
                if entry.diff_addr is not None:
                    drop_ref(entry.diff_addr)
                table.remove(pid)
                report.orphan_pids.append(pid)
    return max_ts


def _tail_scan_base(
    table: TieredMappingTable,
    addr: int,
    pid: int,
    ts: int,
    valid: bytearray,
    retire: Set[int],
    drop_ref: Callable[[int], None],
    report: RecoveryReport,
) -> None:
    entry = table.get(pid)
    if entry is not None and addr == entry.base_addr:
        return  # already adopted via the snapshot or a replayed record
    if entry is None or entry.base_addr < 0 or ts > entry.base_ts:
        old_addr = entry.base_addr if entry is not None else None
        old_diff = entry.diff_addr if entry is not None else None
        old_diff_ts = entry.diff_ts if entry is not None else None
        table.set_base(pid, addr, ts)
        valid[addr] = 1
        report.base_pages_adopted += 1
        if old_addr is not None and old_addr >= 0:
            valid[old_addr] = 0
            retire.add(old_addr)
        if old_diff is not None:
            if ts > (old_diff_ts if old_diff_ts is not None else -1):
                drop_ref(old_diff)  # the newer base supersedes it
            else:
                table.set_diff(pid, old_diff, old_diff_ts)
        return
    # Stale or tie (identical GC copy): the adopted mapping wins.
    valid[addr] = 0
    retire.add(addr)


def _retire_sweep(
    driver: PdlDriver, retire: Set[int], valid: bytearray, report: RecoveryReport
) -> None:
    """Obsolete pages that lost their last reference during replay/scan.

    All checks are cost-free peeks; only the actual obsolete mark is
    charged.  Pages the final tables still reference, and pages already
    obsolete or erased (the runtime mark landed before the crash, or the
    block was erased), are skipped — the sweep is idempotent across
    repeated crashes and never burns spare-program budget twice.
    """
    chip = driver.chip
    table = driver.ppmt
    vdct = driver.vdct
    with chip.stats.phase(RECOVERY_PHASE):
        for addr in sorted(retire):
            if valid[addr]:
                continue
            spare = chip.peek_spare(addr)
            kind = spare.type
            if kind is _ERASED_PAGE or spare.obsolete or kind is _CHECKPOINT:
                continue
            if kind is _BASE and spare.pid is not None:
                entry = table.get(spare.pid)
                if entry is not None and entry.base_addr == addr:
                    continue  # pragma: no cover - defensive
            if kind is _DIFFERENTIAL and vdct.count(addr) > 0:
                continue  # pragma: no cover - defensive
            try:
                chip.mark_obsolete(addr)
            except (ProgramError, SpareProgramError):
                continue
            report.stale_pages_obsoleted += 1


# ----------------------------------------------------------------------
# Execute: Fallback
# ----------------------------------------------------------------------
def _execute_fallback(
    driver: PdlDriver, store: MappingStore, plan: Fallback, pages_read: int
) -> RecoveryReport:
    """Figure-11 fallback for a mapping-enabled driver.

    The scan runs against plain RAM tables — its adoption logic is the
    verified reference implementation — and the result is transferred
    into the tiered table as one big dirty overlay, which the repair
    snapshot then persists as ``plan.repair_seq``.  The report is the
    scan's own, plus the ``pages_read`` before it (the survey's, and a
    rejected replay's).
    """
    table = driver.ppmt
    assert isinstance(table, TieredMappingTable)
    plain_ppmt = PhysicalPageMappingTable()
    plain_vdct = ValidDifferentialCountTable()
    # The region is the store's own: nothing in it can be a data page.
    region_pages = store.config.region_blocks * store.spec.pages_per_block
    report = recover_tables(store.chip, plain_ppmt, plain_vdct, first_page=region_pages)
    report.pages_scanned += pages_read
    store.seq = plan.repair_seq - 1  # snapshot() seals seq + 1
    valid = bytearray(store.spec.n_pages)
    for pid, entry in plain_ppmt.items():
        table.set_base(pid, entry.base_addr, entry.base_ts)
        valid[entry.base_addr] = 1
        if entry.diff_addr is not None:
            table.set_diff(pid, entry.diff_addr, entry.diff_ts)
    driver.vdct.seed(list(plain_vdct.items()))
    for diff_page in plain_vdct.pages():
        valid[diff_page] = 1
    driver.blocks.rebuild(valid)
    driver.resume_ts(report.max_timestamp)
    return report
