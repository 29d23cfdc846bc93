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
from typing import Any, Callable, Dict, List, Optional

from ..flash.chip import FlashChip
from ..flash.errors import ProgramError
from ..flash.spare import PageType, data_checksum
from .differential import DifferentialError, differential_page_stamps
from .pdl import PdlDriver
from .restart_plan import Fallback, Fast, RestartPlan
from .tables import PhysicalPageMappingTable, ValidDifferentialCountTable

#: Accounting phase for the recovery scan.
RECOVERY_PHASE = "recovery"


#: The page types the scan's triage tells apart, bound once: the loop
#: runs once per physical page.
_ERASED = PageType.ERASED
_BASE = PageType.BASE
_DIFFERENTIAL = PageType.DIFFERENTIAL
_CORRUPT = PageType.CORRUPT

#: Pages per batched spare read during the scan.  On the file backend the
#: spare region is contiguous, so each chunk is a single sequential read.
SCAN_CHUNK_PAGES = 4096


def _quarantine_corrupt(chip: FlashChip, addr: int, report: "RecoveryReport") -> None:
    """Obsolete a corrupt page, tolerating damage to the spare area itself.

    A page being quarantined is by definition damaged, so its spare may
    be torn or have its program budget exhausted; a failed obsolete mark
    must not abort the whole scan — the page is already outside every
    rebuilt table, which is what matters.  Only an actual write counts
    toward ``stale_pages_obsoleted``.
    """
    try:
        chip.mark_obsolete(addr)
    except ProgramError:
        return
    report.stale_pages_obsoleted += 1


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
    #: Batched differential-data reads: pages prefetched through
    #: ``read_pages`` and the number of chip calls that took.  The same
    #: page count the old one-read-per-page loop charged, in
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

    The caller provides empty tables; the report carries scan statistics
    and the largest timestamp seen.  ``report.max_timestamp`` covers
    *every* programmed spare area and differential entry — including
    stale copies and differential-page headers, whose flush-time stamps
    are strictly newer than the entries inside them — so resuming from
    it restores the invariant that every post-recovery program gets a
    stamp strictly larger than anything already on flash.  When
    ``driver`` is supplied, its timestamp counter is resumed here, so
    callers cannot forget to do it.
    """
    report = RecoveryReport()

    def drop_diff(pid: int) -> None:
        """decreaseValidDifferentialCount for pid's adopted differential."""
        entry = ppmt.get(pid)
        if entry is None or entry.diff_addr is None:
            return
        addr = entry.diff_addr
        if vdct.decrement(addr):
            chip.mark_obsolete(addr)
            report.stale_pages_obsoleted += 1
        ppmt.set_diff(pid, None)

    n_pages = chip.spec.n_pages
    with chip.stats.phase(RECOVERY_PHASE):
        for start in range(first_page, n_pages, SCAN_CHUNK_PAGES):
            addrs = range(start, min(start + SCAN_CHUNK_PAGES, n_pages))
            report.pages_scanned += len(addrs)
            max_ts = report.max_timestamp
            survivors: List[tuple] = []  # (addr, type, pid, timestamp) surviving triage
            diff_addrs: List[int] = []
            for addr, spare in zip(addrs, chip.read_spares(addrs)):
                kind = spare.type
                if kind is _ERASED:
                    continue
                # Even stale/obsolete stamps must bound the resumed
                # counter: a reused timestamp would break recovery's
                # strictly-newer adoption rule on the next crash.
                ts = spare.timestamp
                if ts is not None and ts > max_ts:
                    max_ts = ts
                if spare.obsolete:
                    continue
                if kind is _BASE:
                    survivors.append((addr, kind, spare.pid, ts or 0))
                elif kind is _DIFFERENTIAL:
                    survivors.append((addr, kind, None, 0))
                    diff_addrs.append(addr)
                elif kind is _CORRUPT:
                    # A damaged type byte: the page holds *something* that
                    # was programmed, so it must not be treated as erased
                    # (the old behaviour re-allocated over it).  Quarantine
                    # by obsoleting — its block stays sealed until GC.
                    report.corrupt_spare_pages += 1
                    _quarantine_corrupt(chip, addr, report)
                # Pages of other types (the mapping region's) are
                # left untouched: recovery never destroys data it does not
                # own.
            report.max_timestamp = max_ts
            images = _prefetch_diff_pages(chip, diff_addrs, report)
            for addr, kind, pid, ts in survivors:
                if kind is _BASE:
                    _scan_base_page(chip, addr, pid, ts, ppmt, drop_diff, report)
                else:
                    _scan_diff_page(chip, addr, images[addr], ppmt, vdct,
                                    drop_diff, report)

        # Entries whose base page never appeared cannot be served; their
        # differentials alone cannot recreate a page.  This indicates an
        # interrupted initial load; report and drop them.
        orphans = [pid for pid, entry in ppmt.items() if entry.base_addr < 0]
        for pid in orphans:
            drop_diff(pid)
            report.orphan_pids.append(pid)
        for pid in orphans:
            ppmt.remove(pid)

    if driver is not None:
        driver.resume_ts(report.max_timestamp)
    return report


def _prefetch_diff_pages(
    chip: FlashChip, diff_addrs: List[int], report: RecoveryReport
) -> Dict[int, Optional[bytes]]:
    """Batch-read the chunk's differential-page data areas.

    One ``read_pages`` call replaces one ``read_page`` per differential
    page; the per-page Tread charge is identical by construction.
    Verification is done here by hand — ``verify=True`` would abort the
    whole batch at the first corrupt page, while the scan must keep
    going and quarantine only that page — with the same checksum-stat
    accounting a verified read performs.  Corrupt pages map to ``None``.
    """
    images: Dict[int, Optional[bytes]] = {}
    if not diff_addrs:
        return images
    report.diff_read_batches += 1
    report.diff_pages_read += len(diff_addrs)
    for addr, (data, spare) in zip(
        diff_addrs, chip.read_pages(diff_addrs, verify=False)
    ):
        if spare.checksum is not None:
            chip.stats.record_checksum_check()
            if data_checksum(data) != spare.checksum:
                chip.stats.record_checksum_failure()
                images[addr] = None
                continue
        images[addr] = data
    return images


def _scan_base_page(
    chip: FlashChip,
    addr: int,
    pid: Optional[int],
    ts: int,
    ppmt: PhysicalPageMappingTable,
    drop_diff: Callable[[int], None],
    report: RecoveryReport,
) -> None:
    """Case 1 of Figure 11: the scanned page is a base page."""
    if pid is None:
        # A base page without a pid (torn spare program) cannot be mapped
        # to any logical page; count it under its own bucket and mark it
        # obsolete so later scans and the allocator never trust it.
        report.corrupt_base_pages += 1
        _quarantine_corrupt(chip, addr, report)
        return
    entry = ppmt.get(pid)
    if entry is None:
        ppmt.set_base(pid, addr, ts)
        report.base_pages_adopted += 1
        report.max_timestamp = max(report.max_timestamp, ts)
        return
    current_diff = entry.diff_addr
    current_diff_ts = entry.diff_ts
    if entry.base_addr >= 0 and ts <= entry.base_ts:
        # The adopted base is at least as recent: r is a stale copy.
        chip.mark_obsolete(addr)
        report.stale_pages_obsoleted += 1
        return
    if entry.base_addr >= 0:
        # r is a more recent base page; the old one is obsolete.
        chip.mark_obsolete(entry.base_addr)
        report.stale_pages_obsoleted += 1
    ppmt.set_base(pid, addr, ts)
    if current_diff is not None:
        # set_base clears the differential; keep it for the check below.
        ppmt.set_diff(pid, current_diff, current_diff_ts)
    report.base_pages_adopted += 1
    report.max_timestamp = max(report.max_timestamp, ts)
    if current_diff is not None and ts > (
        current_diff_ts if current_diff_ts is not None else -1
    ):
        # The new base supersedes the adopted differential.
        drop_diff(pid)


def _scan_diff_page(
    chip: FlashChip,
    addr: int,
    data: Optional[bytes],
    ppmt: PhysicalPageMappingTable,
    vdct: ValidDifferentialCountTable,
    drop_diff: Callable[[int], None],
    report: RecoveryReport,
) -> None:
    """Case 2 of Figure 11: the scanned page is a differential page.

    ``data`` is the prefetched data area (None when its checksum failed
    in the batch read).
    """
    try:
        if data is None:
            raise DifferentialError("differential page data failed its checksum")
        stamps = differential_page_stamps(data)
    except DifferentialError:
        report.corrupt_differential_pages += 1
        _quarantine_corrupt(chip, addr, report)
        return
    adopted = 0
    max_ts = report.max_timestamp
    for pid, timestamp in stamps:
        entry = ppmt.get(pid)
        base_ts = entry.base_ts if entry is not None and entry.base_addr >= 0 else -1
        if timestamp <= base_ts:
            continue  # older than the adopted base: stale
        current = entry.diff_ts if entry is not None and entry.diff_ts is not None else -1
        if timestamp <= current:
            continue  # an at-least-as-recent differential was adopted
        if entry is None:
            # The differential precedes its base in scan order; register a
            # placeholder row (base_addr < 0 marks "not yet seen").
            ppmt.set_base(pid, -1, -1)
        elif entry.diff_addr is not None:
            drop_diff(pid)
        ppmt.set_diff(pid, addr, timestamp)
        vdct.increment(addr)
        adopted += 1
        if timestamp > max_ts:
            max_ts = timestamp
    report.max_timestamp = max_ts
    report.differentials_adopted += adopted
    if vdct.count(addr) == 0:
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
    valid = {entry.base_addr for _pid, entry in driver.ppmt.items()}
    valid.update(driver.vdct.pages())
    driver.blocks.rebuild(valid)
    return driver, report
