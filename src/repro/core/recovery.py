"""PDL crash recovery — PDL_RecoveringfromCrash (Section 4.5, Figure 11).

After a failure the physical page mapping table and the valid differential
count table are volatile losses.  One scan over the flash reconstructs
them: every page's spare area is read; differential pages additionally
have their data areas read and parsed.  Creation time stamps disambiguate
co-existing copies (a crash between "program new copy" and "obsolete old
copy" leaves both):

* a base page is adopted when strictly newer than the currently adopted
  base for its pid; otherwise it is marked obsolete (ties arise only from
  GC relocation, where both copies are identical, so either is fine);
* a differential is adopted when strictly newer than both the adopted
  base and the currently adopted differential for its pid;
* differential pages ending the scan with zero adopted entries, and
  superseded base pages, are marked obsolete — the scan's only writes,
  which is why recovery is idempotent under repeated crashes.

The tables recover exactly the state last made durable (buffer flush or
write-through); differentials still in the in-memory write buffer at
crash time are lost, the paper's file-buffer analogy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..flash.chip import FlashChip
from ..flash.spare import NO_CHECKSUM, NO_PID, NO_TS, PageType, data_checksum, spare_kinds
from .differential import differential_page_stamps_batch
from .fsck import mark_obsolete_quietly
from .pdl import PdlDriver
from .restart_plan import Fallback, Fast, RestartPlan
from .tables import MappingEntry, PhysicalPageMappingTable, ValidDifferentialCountTable

#: Accounting phase for the recovery scan.
RECOVERY_PHASE = "recovery"


#: The page types the scan's triage tells apart, as the plain ints
#: :func:`~repro.flash.spare.spare_kinds` yields.
_ERASED = int(PageType.ERASED)
_BASE = int(PageType.BASE)
_DIFFERENTIAL = int(PageType.DIFFERENTIAL)
_CORRUPT = int(PageType.CORRUPT)

#: Pages per batched spare read during the scan.  On the file backend the
#: spare region is contiguous, so each chunk is a single sequential read.
SCAN_CHUNK_PAGES = 4096


@dataclass
class RecoveryReport:
    """What the scan found — useful for tests and operational logging."""

    pages_scanned: int = 0
    base_pages_adopted: int = 0
    differentials_adopted: int = 0
    stale_pages_obsoleted: int = 0
    corrupt_differential_pages: int = 0
    #: Base pages whose spare lost its pid (e.g. a torn spare program) —
    #: unusable without knowing which logical page they hold.
    corrupt_base_pages: int = 0
    #: Pages whose spare type byte decoded to no known page type.
    corrupt_spare_pages: int = 0
    orphan_pids: List[int] = field(default_factory=list)
    max_timestamp: int = 0
    #: Batched differential-data reads: pages read through
    #: ``read_data_areas`` and the number of chip calls that took.  The
    #: same page count the old one-read-per-page loop charged, in
    #: ``diff_read_batches`` calls instead of ``diff_pages_read``.
    diff_pages_read: int = 0
    diff_read_batches: int = 0
    #: Mapping-tier restart fields (repro.core.restart.restart_driver):
    #: the plan that was carried out, and what carrying it out counted.
    plan: Optional[RestartPlan] = None
    snapshot_seq: Optional[int] = None
    journal_records: int = 0
    journal_pages: int = 0
    tail_pages_scanned: int = 0

    @property
    def fast_path(self) -> bool:
        """Snapshot load + journal-tail replay satisfied the restart."""
        return isinstance(self.plan, Fast)

    @property
    def fallback(self) -> bool:
        """The journal was unusable; the full Figure-11 scan ran instead."""
        return isinstance(self.plan, Fallback)

    @property
    def repaired(self) -> bool:
        """The restart ended by writing a fresh snapshot."""
        return self.fallback or (
            isinstance(self.plan, Fast) and self.plan.repair is not None
        )


def recover_tables(
    chip: FlashChip,
    ppmt: PhysicalPageMappingTable,
    vdct: ValidDifferentialCountTable,
    driver: "Optional[PdlDriver]" = None,
    first_page: int = 0,
) -> RecoveryReport:
    """Rebuild ppmt and vdct by scanning flash (Figure 11).

    The scan covers pages ``first_page`` onward: a mapping-enabled driver
    starts it past its mapping region, where a misdirected write can
    leave a base-typed page the next snapshot will erase.

    Both tables must be empty (``ValueError`` otherwise): the scan builds
    its rows locally and installs them once at the end.  The report
    carries scan statistics and the largest timestamp seen.
    ``report.max_timestamp`` covers *every* programmed spare area and
    adopted differential entry — including stale copies and
    differential-page headers, whose flush-time stamps are strictly newer
    than the entries inside them — so resuming from it restores the
    invariant that every post-recovery program gets a stamp strictly
    larger than anything already on flash.  When ``driver`` is supplied,
    its timestamp counter is resumed here, so callers cannot forget to do
    it.

    Each chunk of spares is read as one buffer and triaged as one record
    array (erased, obsolete, corrupt, base, differential); the chunk's
    differential pages are read as another buffer and their entry
    stamps in one batched walk.  Adoption then walks the chunk's
    surviving pages in address order over local rows and counts, which
    keeps every adoption, counter and obsolete mark in the order the
    page-at-a-time algorithm makes them.
    """
    for name, table in (("ppmt", ppmt), ("vdct", vdct)):
        if len(table):
            raise ValueError(
                f"recover_tables needs an empty {name}; it holds {len(table)} rows"
            )
    report = RecoveryReport()
    # The ppmt's rows, one entry made per pid and updated in place; a
    # base_addr (and base_ts) of -1 marks a differential adopted before
    # its base page was seen.
    rows: Dict[int, MappingEntry] = {}
    # differential page -> number of its entries currently adopted.
    counts: Dict[int, int] = {}

    def drop_diff(row: MappingEntry) -> None:
        """decreaseValidDifferentialCount for the row's adopted differential."""
        addr = row.diff_addr
        left = counts[addr] - 1
        if left:
            counts[addr] = left
        else:
            del counts[addr]
            chip.mark_obsolete(addr)
            report.stale_pages_obsoleted += 1
        row.diff_addr = row.diff_ts = row.diff_at = None

    n_pages = chip.spec.n_pages
    with chip.stats.phase(RECOVERY_PHASE):
        for start in range(first_page, n_pages, SCAN_CHUNK_PAGES):
            addrs = range(start, min(start + SCAN_CHUNK_PAGES, n_pages))
            report.pages_scanned += len(addrs)
            pages, kinds, pids, stamps, checksums = _triage(chip, addrs, report)
            differential = kinds == _DIFFERENTIAL
            diff_pages = _read_diff_stamps(
                chip, pages[differential].tolist(), checksums[differential].tolist(), report
            )
            for addr, kind, pid, ts in zip(
                pages.tolist(), kinds.tolist(), pids.tolist(), stamps.tolist()
            ):
                if kind == _DIFFERENTIAL:
                    _adopt_diff_page(
                        chip, addr, next(diff_pages), rows, counts, drop_diff, report
                    )
                    continue
                # Case 1 of Figure 11: the scanned page is a base page.
                if pid == NO_PID:
                    # A base page without a pid (torn spare program) cannot
                    # be mapped to any logical page; count it under its own
                    # bucket and mark it obsolete so later scans and the
                    # allocator never trust it.
                    report.corrupt_base_pages += 1
                    if mark_obsolete_quietly(chip, addr):
                        report.stale_pages_obsoleted += 1
                    continue
                row = rows.get(pid)
                if row is None:
                    rows[pid] = MappingEntry(addr, ts)
                    report.base_pages_adopted += 1
                    continue
                if row.base_addr >= 0:
                    if ts <= row.base_ts:
                        # The adopted base is at least as recent: a stale copy.
                        chip.mark_obsolete(addr)
                        report.stale_pages_obsoleted += 1
                        continue
                    # A more recent base page; the old one is obsolete.
                    chip.mark_obsolete(row.base_addr)
                    report.stale_pages_obsoleted += 1
                row.base_addr = addr
                row.base_ts = ts
                report.base_pages_adopted += 1
                if row.diff_addr is not None and ts > row.diff_ts:
                    # The new base supersedes the adopted differential.
                    drop_diff(row)

        # Entries whose base page never appeared cannot be served; their
        # differentials alone cannot recreate a page.  This indicates an
        # interrupted initial load; report and drop them.
        for pid in [pid for pid, row in rows.items() if row.base_addr < 0]:
            row = rows.pop(pid)
            if row.diff_addr is not None:
                drop_diff(row)
            report.orphan_pids.append(pid)

    ppmt.install(rows)
    vdct.seed(counts.items())
    if driver is not None:
        driver.resume_ts(report.max_timestamp)
    return report


def _triage(
    chip: FlashChip, addrs: range, report: RecoveryReport
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read a chunk's spares as one record array and sort its pages out:
    returns the address, kind, pid, timestamp (0 for none) and data
    checksum (``NO_CHECKSUM`` for none) of each live base or
    differential page, in address order, as arrays.

    Every programmed stamp bounds ``report.max_timestamp`` here, and a
    live page with a damaged type byte is quarantined.  The chunk's
    record array is dropped on return, before its differential pages
    are read, and the caller lists the survivors only after that.
    """
    records = chip.read_spare_records(addrs)
    kinds = spare_kinds(records["type"])
    stamps = records["ts"]
    programmed = kinds != _ERASED
    # Even stale/obsolete stamps must bound the resumed counter: a
    # reused timestamp would break recovery's strictly-newer adoption
    # rule on the next crash.
    stamped = stamps[programmed & (stamps != NO_TS)]
    if stamped.size:
        report.max_timestamp = max(report.max_timestamp, int(stamped.max()))
    live = programmed & (records["valid"] == 0xFF)
    for at in (live & (kinds == _CORRUPT)).nonzero()[0].tolist():
        # A damaged type byte: the page holds *something* that was
        # programmed, so it must not be treated as erased.  Quarantine
        # by obsoleting — its block stays sealed until GC.
        report.corrupt_spare_pages += 1
        if mark_obsolete_quietly(chip, addrs.start + at):
            report.stale_pages_obsoleted += 1
    # Pages of other types (the mapping region's) are left untouched:
    # recovery never destroys data it does not own.
    survivors = (live & ((kinds == _BASE) | (kinds == _DIFFERENTIAL))).nonzero()[0]
    survivor_stamps = stamps[survivors]
    survivor_stamps[survivor_stamps == NO_TS] = 0
    if "checksum" in records.dtype.names:
        checksums = records["checksum"][survivors]
    else:  # a spare too small to carry one
        checksums = np.full(len(survivors), NO_CHECKSUM, np.uint32)
    return (
        survivors + addrs.start,
        kinds[survivors],
        records["pid"][survivors],
        survivor_stamps,
        checksums,
    )


def _read_diff_stamps(
    chip: FlashChip, diff_addrs: List[int], checksums: List[int], report: RecoveryReport
) -> Iterator[Optional[List[Tuple[int, int, int]]]]:
    """The chunk's differential pages' ``(pid, timestamp, at)`` lists
    (``at``: where the entry starts in its page), in ``diff_addrs``
    order, with ``None`` for a page to quarantine.

    One ``read_data_areas`` call reads every data area into one buffer
    (the per-page Tread charge is that of one ``read_page`` each), each
    page is checked against the data checksum its spare carries
    (``checksums``, from the spare scan), and one
    :func:`differential_page_stamps_batch` walk reads every page's entry
    stamps; all of it happens before this returns.  The checks are made
    here by hand, with the checksum-stat accounting a verified read
    performs, because the scan must go on past a corrupt page and
    quarantine only that page.  A page fails on its checksum or when
    ``differential_page_stamps`` would raise on it.
    """
    if not diff_addrs:
        return iter(())
    report.diff_read_batches += 1
    report.diff_pages_read += len(diff_addrs)
    stats = chip.stats
    size = chip.spec.page_data_size
    images = chip.read_data_areas(diff_addrs)
    view = memoryview(images)
    intact: List[bool] = []
    for at, checksum in zip(range(0, len(images), size), checksums):
        if checksum != NO_CHECKSUM:
            stats.record_checksum_check()
            if data_checksum(view[at : at + size]) != checksum:
                stats.record_checksum_failure()
                intact.append(False)
                continue
        intact.append(True)
    view.release()
    walked = differential_page_stamps_batch(images, size)
    return (walked[page] if ok else None for page, ok in enumerate(intact))


def _adopt_diff_page(
    chip: FlashChip,
    addr: int,
    stamps: Optional[List[Tuple[int, int, int]]],
    rows: Dict[int, MappingEntry],
    counts: Dict[int, int],
    drop_diff: Callable[[MappingEntry], None],
    report: RecoveryReport,
) -> None:
    """Case 2 of Figure 11: the scanned page is a differential page.

    ``stamps`` are its entries' ``(pid, timestamp, at)``, or None when
    its data failed its checksum or does not parse: it is quarantined.
    An adopted row records ``at``, where its entry starts in the page.
    """
    if stamps is None:
        report.corrupt_differential_pages += 1
        if mark_obsolete_quietly(chip, addr):
            report.stale_pages_obsoleted += 1
        return
    adopted = 0
    max_ts = report.max_timestamp
    for pid, timestamp, at in stamps:
        row = rows.get(pid)
        if row is None:
            # The differential precedes its base in scan order; register a
            # placeholder row (base_addr < 0 marks "not yet seen").
            rows[pid] = MappingEntry(-1, -1, addr, timestamp, at)
        elif timestamp <= row.base_ts:
            continue  # older than the adopted base: stale
        elif row.diff_addr is None:
            row.diff_addr = addr
            row.diff_ts = timestamp
            row.diff_at = at
        elif timestamp <= row.diff_ts:
            continue  # an at-least-as-recent differential was adopted
        elif row.diff_addr == addr:
            # A newer entry of the pid on this same page: the page already
            # counts the row once, and a drop would take it to 0 and mark
            # obsolete the page the row is adopting from.
            row.diff_ts = timestamp
            row.diff_at = at
            counts[addr] -= 1  # counted again below
        else:
            drop_diff(row)
            row.diff_addr = addr
            row.diff_ts = timestamp
            row.diff_at = at
        counts[addr] = counts.get(addr, 0) + 1
        adopted += 1
        if timestamp > max_ts:
            max_ts = timestamp
    report.max_timestamp = max_ts
    report.differentials_adopted += adopted
    if addr not in counts:
        # No valid differential remains in r.
        chip.mark_obsolete(addr)
        report.stale_pages_obsoleted += 1


def recover_driver(
    chip: FlashChip, **driver_kwargs: Any
) -> "tuple[PdlDriver, RecoveryReport]":
    """Build a fully operational :class:`PdlDriver` from post-crash flash.

    Reconstructs the tables (Figure 11), the allocator's validity bitmap
    and free-block pool, and resumes the timestamp counter.  Fully-erased
    blocks return to the free pool; partially-written blocks are sealed
    until GC reclaims them.  ``driver_kwargs`` are :class:`PdlDriver`'s
    own keywords, forwarded as given: the differential size and GC tuning
    are runtime state, not flash state — callers re-supply them on every
    restart.

    When a ``mapping`` configuration is passed (the tiered, journaled
    mapping table), restart is delegated to
    :func:`repro.core.restart.restart_driver`: snapshot load plus journal
    tail replay, with the scan below as its verifier/fallback.  The
    return contract is identical, so recovery-driven callers
    (``recover_all``, ``Database.open``) need no changes.
    """
    if driver_kwargs.get("mapping") is not None:
        # Local import: restart imports this module (the scan is its
        # fallback and RecoveryReport its return type).
        from .restart import restart_driver

        return restart_driver(chip, **driver_kwargs)
    # The fresh driver assumes an empty chip; the scan fills its tables.
    driver = PdlDriver(chip, **driver_kwargs)
    # recover_tables resumes the timestamp counter itself (from the
    # global maximum over all programmed stamps, stale copies included).
    report = recover_tables(chip, driver.ppmt, driver.vdct, driver=driver)
    valid = bytearray(chip.spec.n_pages)
    for _pid, entry in driver.ppmt.items():
        valid[entry.base_addr] = 1
    for addr in driver.vdct.pages():
        valid[addr] = 1
    driver.blocks.rebuild(valid)
    return driver, report
