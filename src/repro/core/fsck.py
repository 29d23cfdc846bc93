"""Online single-page failure detection and repair (fsck).

:func:`fsck_driver` is the online repair companion to the offline
invariant checker (:mod:`repro.core.check`) and the crash-recovery scan
(:mod:`repro.core.recovery`).  Where ``check_driver`` only *flags*
damage and the Figure-11 scan rebuilds volatile tables from trusted
flash, fsck assumes the flash itself may lie — bit rot, misdirected
writes and torn spare programs, the single-page failure class of Graefe
& Kuno — and repairs what it can **online**, without a full-device
restore, using the redundancy PDL leaves lying around:

* a stale or relocated **copy** of a base page (GC crash residue, Case-3
  predecessors) can be re-adopted, relocated to a fresh page, and the
  surviving differential chain replays onto it at read time;
* an **older differential** (obsoleted by a newer flush but still
  physically present) can substitute for a corrupted differential page,
  rolling the page back to its most recent surviving version;
* a page with no surviving copy anywhere is **declared lost** with a
  precise report, and its mapping is removed so reads fail loudly
  instead of serving garbage.

The decision tree per damaged page (see ``docs/integrity.md``):

1. live base page damaged → exact-timestamp copy? relocate it, keep the
   differential chain (`repaired_copy`); older copy only? adopt it and
   drop now-inapplicable differentials (`repaired_stale`); no copy?
   remove the mapping (`lost`).
2. referenced differential page damaged → surviving older differential
   with ``ts > base_ts``? re-flush it to a fresh page
   (`repaired_chain`); none? revert the pid to its base image
   (`reverted`).
3. mapping-region damage (role ``"checkpoint"``: seal, snapshot, meta
   and journal pages) is *reported* only — the ping-pong snapshot
   protocol self-heals on the next restart (an unreadable seal or
   snapshot page falls back to the full Figure-11 scan, whose repair
   snapshot replaces the damaged half).
4. unreferenced damaged pages are quarantined (marked obsolete) so the
   allocator and future scans never trust them.

fsck charges real simulated I/O (it is an online scan, not a debug
peek): one Tread per spare area plus one per programmed data area, and
Twrites for every repair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..flash.chip import FlashChip
from ..flash.errors import ProgramError
from ..flash.spare import CHECKSUM_HEADER_SIZE, PageType, SpareArea, data_checksum
from ..ftl.errors import OutOfSpaceError
from .check import CheckReport, check_driver
from .differential import (
    Differential,
    DifferentialError,
    decode_differential_page,
    encode_differential_page,
)
from .tables import MappingEntry

if TYPE_CHECKING:
    from .pdl import PdlDriver  # pdl imports this module

#: Accounting phase for fsck I/O.
FSCK_PHASE = "fsck"

#: Pages per batched read during the sweep (matches the recovery scan).
FSCK_CHUNK_PAGES = 4096


@dataclass(frozen=True)
class PageFault:
    """One detected fault and what fsck did about it."""

    addr: int
    role: str  #: "base" | "differential" | "checkpoint" | "unreferenced"
    kind: str  #: "checksum" | "spare" | "decode" | "missing"
    pid: Optional[int]
    action: str  #: repaired_copy | repaired_stale | repaired_chain |
    #: reverted | quarantined | lost | reported
    detail: str = ""


@dataclass
class FsckReport:
    """Outcome of one fsck pass (or a merged per-shard set)."""

    pages_scanned: int = 0
    checksum_failures: int = 0
    corrupt_spare_pages: int = 0
    faults: List[PageFault] = field(default_factory=list)
    repaired_base_pages: int = 0
    repaired_differentials: int = 0
    stale_pids: List[int] = field(default_factory=list)
    reverted_pids: List[int] = field(default_factory=list)
    lost_pids: List[int] = field(default_factory=list)
    quarantined_pages: int = 0
    scan_reads: int = 0
    repair_writes: int = 0
    check: Optional[CheckReport] = None
    per_shard: Optional[List["FsckReport"]] = None

    @property
    def detected(self) -> int:
        """Faults found (one per damaged page/pid pairing)."""
        return len(self.faults)

    @property
    def clean(self) -> bool:
        return not self.faults

    @property
    def repaired(self) -> int:
        """Pages restored to full service (copy, stale or chain repair)."""
        return (
            self.repaired_base_pages
            + self.repaired_differentials
            + len(self.stale_pids)
        )

    @property
    def data_loss_pids(self) -> List[int]:
        """Pids whose newest version could not be recovered (any rollback
        or loss counts — ``lost_pids`` alone is total loss)."""
        return sorted(set(self.stale_pids) | set(self.reverted_pids) | set(self.lost_pids))

    def add(self, fault: PageFault) -> None:
        self.faults.append(fault)

    @classmethod
    def merge(cls, reports: List["FsckReport"]) -> "FsckReport":
        """Sum per-shard reports into one array-level view."""
        merged = cls(per_shard=list(reports))
        for report in reports:
            merged.pages_scanned += report.pages_scanned
            merged.checksum_failures += report.checksum_failures
            merged.corrupt_spare_pages += report.corrupt_spare_pages
            merged.faults.extend(report.faults)
            merged.repaired_base_pages += report.repaired_base_pages
            merged.repaired_differentials += report.repaired_differentials
            merged.stale_pids.extend(report.stale_pids)
            merged.reverted_pids.extend(report.reverted_pids)
            merged.lost_pids.extend(report.lost_pids)
            merged.quarantined_pages += report.quarantined_pages
            merged.scan_reads += report.scan_reads
            merged.repair_writes += report.repair_writes
        return merged


def fsck_driver(driver: PdlDriver, repair: bool = True) -> FsckReport:
    """Scan a live PDL driver's chip, detect corruption, repair online.

    With ``repair=False`` the scan only detects and reports (a dry run);
    with the default ``repair=True`` every repairable page is fixed in
    place and the pass ends with a full :func:`check_driver` whose
    outcome is attached as ``report.check``.
    """
    chip = driver.chip
    report = FsckReport(pages_scanned=chip.spec.n_pages)
    io_before = chip.stats.of_phase(FSCK_PHASE)
    with chip.stats.phase(FSCK_PHASE):
        state = _sweep(chip, report)
        state.expect_checksum = _checksum_capable(driver) and bool(state.verified)
        _check_bases(driver, state, report, repair)
        _check_differentials(driver, state, report, repair)
        _quarantine_unreferenced(driver, state, report, repair)
    io_after = chip.stats.of_phase(FSCK_PHASE)
    report.scan_reads = io_after.reads - io_before.reads
    report.repair_writes = io_after.writes - io_before.writes

    if repair:
        report.check = check_driver(driver)
    return report


class _SweepState:
    """Everything the repair passes need from the full-media sweep."""

    def __init__(self) -> None:
        #: addr -> decoded spare, programmed pages only.
        self.spares: Dict[int, SpareArea] = {}
        #: addr -> data image for BASE/DIFFERENTIAL pages (repair donors).
        self.data: Dict[int, bytes] = {}
        #: Pages whose stored checksum mismatched the data read back.
        self.bad_data: set = set()
        #: Pages whose data checksum was present and verified.
        self.verified: set = set()
        #: Whether a missing checksum on this image counts as damage —
        #: set after the sweep (see :func:`_checksum_capable`).
        self.expect_checksum: bool = False
        #: pid -> [(ts, addr, obsolete)] over every BASE copy on flash.
        self.base_copies: Dict[int, List[Tuple[int, int, bool]]] = {}
        #: Every DIFFERENTIAL-typed page (valid and obsolete).
        self.diff_pages: List[int] = []
        #: Pages already dispositioned by the base/differential passes
        #: (the unreferenced sweep must not report them twice).
        self.handled: set = set()
        #: Lazily decoded differential pages (salvage candidates).
        self._decoded: Dict[int, Optional[List[Differential]]] = {}

    def decoded_diffs(self, addr: int) -> Optional[List[Differential]]:
        """Decode a differential page once; None when undecodable."""
        if addr not in self._decoded:
            try:
                self._decoded[addr] = decode_differential_page(self.data[addr])
            except (DifferentialError, KeyError):
                self._decoded[addr] = None
        return self._decoded[addr]


def _sweep(chip: FlashChip, report: FsckReport) -> _SweepState:
    """Full-media scan: every spare area, then every programmed data area."""
    state = _SweepState()
    for start in range(0, chip.spec.n_pages, FSCK_CHUNK_PAGES):
        addrs = range(start, min(start + FSCK_CHUNK_PAGES, chip.spec.n_pages))
        for addr, spare in zip(addrs, chip.read_spares(addrs)):
            if spare.is_erased:
                continue
            state.spares[addr] = spare
            if spare.is_corrupt:
                report.corrupt_spare_pages += 1
            elif spare.type is PageType.BASE and spare.pid is not None:
                state.base_copies.setdefault(spare.pid, []).append(
                    (spare.timestamp or 0, addr, spare.obsolete)
                )
            elif spare.type is PageType.DIFFERENTIAL:
                state.diff_pages.append(addr)

    programmed = sorted(state.spares)
    for start in range(0, len(programmed), FSCK_CHUNK_PAGES):
        chunk = programmed[start : start + FSCK_CHUNK_PAGES]
        for addr, (data, spare) in zip(
            chunk, chip.read_pages(chunk, verify=False)
        ):
            if spare.checksum is not None:
                if data_checksum(data) != spare.checksum:
                    state.bad_data.add(addr)
                    report.checksum_failures += 1
                else:
                    state.verified.add(addr)
            if spare.type in (PageType.BASE, PageType.DIFFERENTIAL):
                state.data[addr] = data
    return state


def _mark_obsolete_quietly(chip: FlashChip, addr: int) -> None:
    """Quarantine a page, tolerating damage to the spare area itself."""
    try:
        chip.mark_obsolete(addr)
    except ProgramError:
        # Erased or budget-exhausted spare: nothing more to clear; the
        # page is already outside every table, which is what matters.
        pass


def _checkpoint_region_pages(driver: PdlDriver) -> int:
    """Pages reserved for restart metadata (the mapping region).

    The allocator's ``exclude_blocks`` is the single source of truth: for
    demand-paged drivers it covers the mapping journal/snapshot region
    at the head of the device, which holds only CRC-sealed
    CHECKPOINT-type pages; fsck reports damage there and never touches
    it.
    """
    return driver.blocks.exclude_blocks * driver.spec.pages_per_block


def _checksum_capable(driver: PdlDriver) -> bool:
    """Whether this chip's geometry can carry data checksums at all.

    Geometry alone is *necessary but not sufficient* evidence that a
    missing checksum means a torn spare program: a pre-checksum image
    written on a wide-spare chip (the default 64-byte spare) decodes
    ``checksum=None`` on every page — indistinguishable, page by page,
    from a chip-wide torn-spare event.  The missing-checksum-is-torn
    rule is therefore armed (``state.expect_checksum``) only when the
    geometry has room **and** at least one checksum actually verified
    during the sweep: on a current-format image essentially every
    healthy page does, while a pre-checksum image has none, so old
    images come back clean without a format flag (``docs/integrity.md``).
    """
    return driver.spec.page_spare_size >= CHECKSUM_HEADER_SIZE


def _check_bases(
    driver: PdlDriver, state: _SweepState, report: FsckReport, repair: bool
) -> None:
    """Decision-tree step 1: every live base page, against the mapping."""
    expect_checksum = state.expect_checksum
    for pid, entry in list(driver.ppmt.items()):
        addr = entry.base_addr
        spare = state.spares.get(addr)
        kind = None
        if spare is None or spare.is_erased:
            kind = "missing"
        elif spare.is_corrupt:
            kind = "spare"
        elif (
            spare.type is not PageType.BASE
            or spare.obsolete
            or spare.pid != pid
            or (spare.timestamp or 0) != entry.base_ts
        ):
            kind = "spare"
        elif addr in state.bad_data:
            kind = "checksum"
        elif spare.checksum is None and expect_checksum:
            kind = "spare"  # torn away: every program here stamps one
        if kind is None:
            continue
        if not repair:
            report.add(PageFault(addr, "base", kind, pid, "reported"))
            continue
        _repair_base(driver, state, report, pid, entry, kind)


def _repair_base(
    driver: PdlDriver,
    state: _SweepState,
    report: FsckReport,
    pid: int,
    entry: MappingEntry,
    kind: str,
) -> None:
    chip = driver.chip
    bad_addr = entry.base_addr
    donors = [
        (ts, addr)
        for ts, addr, _obsolete in state.base_copies.get(pid, [])
        if addr != bad_addr
        and addr not in state.bad_data
        and addr in state.data
        # A donor whose checksum was torn away is as unverifiable as
        # the page it would repair; never rebuild from one.
        and not (state.expect_checksum and state.spares[addr].checksum is None)
        and ts <= entry.base_ts
    ]
    exact = [(ts, addr) for ts, addr in donors if ts == entry.base_ts]
    older = sorted((ts, addr) for ts, addr in donors if ts < entry.base_ts)

    def retire_bad_page() -> None:
        if driver.blocks.is_valid(bad_addr):
            driver.blocks.note_invalid(bad_addr)
        state.handled.add(bad_addr)
        # A "missing" page reads back erased: there is nothing on flash
        # to mark obsolete, so it is not a quarantine.
        if bad_addr in state.spares:
            _mark_obsolete_quietly(chip, bad_addr)
            report.quarantined_pages += 1

    try:
        if exact:
            # An identical copy survives (GC relocation residue or a
            # crash window left both): relocate it and keep the
            # differential chain — it still applies bit-for-bit.
            _ts, donor = exact[0]
            new_addr = driver.blocks.allocate(stream=driver._base_stream)
            chip.program_page(
                new_addr,
                state.data[donor],
                SpareArea(type=PageType.BASE, pid=pid, timestamp=entry.base_ts),
            )
            driver.blocks.note_valid(new_addr)
            driver.ppmt.move_base(pid, new_addr)
            retire_bad_page()
            report.repaired_base_pages += 1
            report.add(
                PageFault(
                    bad_addr, "base", kind, pid, "repaired_copy",
                    f"relocated surviving copy {donor} to {new_addr}",
                )
            )
            return
        if older:
            # Only an older version survives: adopt it and drop every
            # differential — they were computed against the lost image.
            donor_ts, donor = older[-1]
            new_addr = driver.blocks.allocate(stream=driver._base_stream)
            chip.program_page(
                new_addr,
                state.data[donor],
                SpareArea(type=PageType.BASE, pid=pid, timestamp=donor_ts),
            )
            driver.blocks.note_valid(new_addr)
            old_diff = entry.diff_addr
            driver.ppmt.set_base(pid, new_addr, donor_ts)  # clears diff
            driver.buffer.remove(pid)
            if old_diff is not None:
                driver._drop_diff_ref(old_diff)
            retire_bad_page()
            report.stale_pids.append(pid)
            report.add(
                PageFault(
                    bad_addr, "base", kind, pid, "repaired_stale",
                    f"rolled back to copy {donor} at ts {donor_ts}",
                )
            )
            return
    except OutOfSpaceError:
        report.add(
            PageFault(
                bad_addr, "base", kind, pid, "reported",
                "no free page available for relocation",
            )
        )
        return

    # No surviving copy anywhere: the page is lost.  Remove the mapping
    # so reads raise UnknownPageError instead of serving damaged bytes.
    old_diff = entry.diff_addr
    driver.buffer.remove(pid)
    if old_diff is not None:
        driver._drop_diff_ref(old_diff)
    driver.ppmt.remove(pid)
    retire_bad_page()
    report.lost_pids.append(pid)
    report.add(PageFault(bad_addr, "base", kind, pid, "lost"))


def _check_differentials(
    driver: PdlDriver, state: _SweepState, report: FsckReport, repair: bool
) -> None:
    """Decision-tree step 2: every referenced differential page."""
    expect_checksum = state.expect_checksum
    referenced: Dict[int, List[int]] = {}
    for pid, entry in driver.ppmt.items():
        if entry.diff_addr is not None:
            referenced.setdefault(entry.diff_addr, []).append(pid)

    for addr, pids in sorted(referenced.items()):
        spare = state.spares.get(addr)
        kind = None
        if spare is None or spare.is_erased:
            kind = "missing"
        elif spare.is_corrupt:
            kind = "spare"
        elif spare.type is not PageType.DIFFERENTIAL or spare.obsolete:
            kind = "spare"
        elif addr in state.bad_data:
            kind = "checksum"
        elif spare.checksum is None and expect_checksum:
            # The data may decode fine, but with the checksum torn away
            # it is unverifiable; treat like checksum damage (salvage or
            # revert) rather than trust bytes nothing vouches for.
            kind = "spare"
        elif state.decoded_diffs(addr) is None:
            kind = "decode"
        else:
            decoded = {d.pid for d in state.decoded_diffs(addr)}
            if any(pid not in decoded for pid in pids):
                kind = "decode"
        if kind is None:
            continue
        if not repair:
            for pid in pids:
                report.add(PageFault(addr, "differential", kind, pid, "reported"))
            continue
        _repair_differential_page(driver, state, report, addr, pids, kind)


def _repair_differential_page(
    driver: PdlDriver,
    state: _SweepState,
    report: FsckReport,
    addr: int,
    pids: List[int],
    kind: str,
) -> None:
    """Salvage what the corrupted differential page held, then retire it."""
    chip = driver.chip
    salvaged: List[Tuple[int, Differential]] = []
    for pid in pids:
        entry = driver.ppmt.require(pid)
        buffered = driver.buffer.get(pid)
        if buffered is not None and buffered.timestamp > entry.base_ts:
            # A newer buffered differential shadows the flash page on
            # every read; detaching the damaged page loses nothing.
            driver.ppmt.set_diff(pid, None)
            report.repaired_differentials += 1
            report.add(
                PageFault(
                    addr, "differential", kind, pid, "repaired_chain",
                    "newer buffered differential supersedes the damaged page",
                )
            )
            continue
        best: Optional[Differential] = None
        for other in state.diff_pages:
            if other == addr or other in state.bad_data:
                continue
            if state.expect_checksum and state.spares[other].checksum is None:
                # Same rule as for referenced pages: with its checksum
                # torn away the donor's bytes are unverifiable —
                # reverting beats re-flushing bytes nothing vouches for.
                continue
            diffs = state.decoded_diffs(other)
            if diffs is None:
                continue
            for diff in diffs:
                if diff.pid != pid or diff.timestamp <= entry.base_ts:
                    continue
                if best is None or diff.timestamp > best.timestamp:
                    best = diff
        if best is not None:
            salvaged.append((pid, best))
        else:
            # Nothing newer than the base survives: the page rolls back
            # to its base image.
            driver.ppmt.set_diff(pid, None)
            report.reverted_pids.append(pid)
            report.add(
                PageFault(
                    addr, "differential", kind, pid, "reverted",
                    "no surviving differential newer than the base",
                )
            )

    # Retire the damaged page before re-flushing (its vdct rows are void).
    driver.vdct.remove(addr)
    if driver.blocks.is_valid(addr):
        driver.blocks.note_invalid(addr)
    state.handled.add(addr)
    if addr in state.spares:  # a "missing" page has nothing to quarantine
        _mark_obsolete_quietly(chip, addr)
        report.quarantined_pages += 1

    if not salvaged:
        return
    try:
        _reflush_salvaged(driver, salvaged)
    except OutOfSpaceError:
        # Could not write the salvage page: the affected pids revert.
        for pid, _diff in salvaged:
            driver.ppmt.set_diff(pid, None)
            report.reverted_pids.append(pid)
            report.add(
                PageFault(
                    addr, "differential", kind, pid, "reverted",
                    "salvage found but no free page to re-flush it",
                )
            )
        return
    for pid, diff in salvaged:
        report.repaired_differentials += 1
        report.add(
            PageFault(
                addr, "differential", kind, pid, "repaired_chain",
                f"re-flushed surviving differential at ts {diff.timestamp}",
            )
        )


def _reflush_salvaged(
    driver: PdlDriver, salvaged: List[Tuple[int, Differential]]
) -> None:
    """Write salvaged differentials to fresh pages, re-pointing entries."""
    chip = driver.chip
    capacity = driver.buffer.capacity
    group: List[Tuple[int, Differential]] = []
    used = 0

    def flush_group() -> None:
        nonlocal group, used
        if not group:
            return
        payload = encode_differential_page(
            [diff for _pid, diff in group], driver.page_size
        )
        new_addr = driver.blocks.allocate(stream=driver._diff_stream)
        chip.program_page(
            new_addr,
            payload,
            SpareArea(type=PageType.DIFFERENTIAL, timestamp=driver._next_ts()),
        )
        driver.blocks.note_valid(new_addr)
        for pid, diff in group:
            driver.ppmt.set_diff(pid, new_addr, diff.timestamp)
            driver.vdct.increment(new_addr)
        group = []
        used = 0

    for pid, diff in salvaged:
        if used + diff.size > capacity:
            flush_group()
        group.append((pid, diff))
        used += diff.size
    flush_group()


def _quarantine_unreferenced(
    driver: PdlDriver, state: _SweepState, report: FsckReport, repair: bool
) -> None:
    """Decision-tree steps 3–4: mapping region and unreferenced damage."""
    chip = driver.chip
    region_end = _checkpoint_region_pages(driver)
    expect_checksum = state.expect_checksum

    # Mapping-region pages only ever hold CHECKPOINT pages written by
    # program_page; anything else there — wrong type (a misdirected
    # write), failed or missing checksum (rot / a torn program), corrupt
    # spare — is reported but never touched: snapshots are CRC-sealed
    # and restart falls back to the Figure-11 scan, which self-heals.
    for addr in range(region_end):
        spare = state.spares.get(addr)
        if spare is None:
            continue
        kind = None
        if spare.is_corrupt:
            kind = "spare"
        elif spare.type is not PageType.CHECKPOINT:
            kind = "spare"
        elif addr in state.bad_data:
            kind = "checksum"
        elif spare.checksum is None and expect_checksum:
            kind = "spare"
        if kind is None:
            continue
        state.handled.add(addr)
        report.add(
            PageFault(
                addr, "checkpoint", kind, None, "reported",
                "snapshot protocol falls back to the full scan",
            )
        )

    referenced = {entry.base_addr for _pid, entry in driver.ppmt.items()}
    referenced |= {
        entry.diff_addr
        for _pid, entry in driver.ppmt.items()
        if entry.diff_addr is not None
    }
    for addr in sorted(set(state.bad_data) | {
        a for a, s in state.spares.items() if s.is_corrupt
    }):
        if addr in referenced or addr in state.handled or addr < region_end:
            continue  # handled by the base/differential/region passes
        spare = state.spares.get(addr)
        kind = "spare" if spare is not None and spare.is_corrupt else "checksum"
        if spare is not None and spare.obsolete:
            continue  # already-garbage pages need no quarantine
        if not repair:
            report.add(PageFault(addr, "unreferenced", kind, None, "reported"))
            continue
        _mark_obsolete_quietly(chip, addr)
        report.quarantined_pages += 1
        report.add(PageFault(addr, "unreferenced", kind, None, "quarantined"))
