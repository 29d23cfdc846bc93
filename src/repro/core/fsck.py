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
* an **older differential** of the pid on another page (obsoleted by a
  newer flush, or still live for other pids) can substitute for a
  corrupted differential page, rolling the page back to its most recent
  surviving version;
* a page with no surviving copy anywhere is **declared lost** with a
  precise report, and its mapping is removed so reads fail loudly
  instead of serving garbage.

The decision tree — which disposition each damaged page gets — is the
table in ``docs/integrity.md`` ("fsck: scan, diagnose, repair"); it is
stated nowhere else.  :func:`_repair_base` and
:func:`_repair_differential_page` implement its rows.

fsck charges real simulated I/O (it is an online scan, not a debug
peek): one Tread per spare area plus one per programmed data area, and
Twrites for every repair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from ..flash.chip import FlashChip
from ..flash.errors import ProgramError
from ..flash.spare import CHECKSUM_HEADER_SIZE, PageType, SpareArea, data_checksum
from ..ftl.errors import OutOfSpaceError
from .check import CheckReport, check_driver
from .differential import Differential, DifferentialError, decode_differential_page
from .tables import MappingEntry, stamp_mismatch

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
    """Outcome of one fsck pass (or a merged per-shard set).

    ``faults`` is the one record of what fsck found and did; every
    disposition count below is a view of it.
    """

    pages_scanned: int = 0
    checksum_failures: int = 0
    corrupt_spare_pages: int = 0
    faults: List[PageFault] = field(default_factory=list)
    scan_reads: int = 0
    repair_writes: int = 0
    check: Optional[CheckReport] = None
    per_shard: Optional[List["FsckReport"]] = None

    def _pids(self, action: str) -> List[int]:
        return [f.pid for f in self.faults if f.action == action and f.pid is not None]

    @property
    def repaired_base_pages(self) -> int:
        return len(self._pids("repaired_copy"))

    @property
    def repaired_differentials(self) -> int:
        return len(self._pids("repaired_chain"))

    @property
    def stale_pids(self) -> List[int]:
        return self._pids("repaired_stale")

    @property
    def reverted_pids(self) -> List[int]:
        return self._pids("reverted")

    @property
    def lost_pids(self) -> List[int]:
        return self._pids("lost")

    @property
    def quarantined_pages(self) -> int:
        """Damaged pages fsck marked obsolete: every page it acted on,
        except a ``missing`` one, which reads back erased."""
        return len(
            {f.addr for f in self.faults if f.action != "reported" and f.kind != "missing"}
        )

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
        repairs = ("repaired_copy", "repaired_chain", "repaired_stale")
        return sum(fault.action in repairs for fault in self.faults)

    @property
    def data_loss_pids(self) -> List[int]:
        """Pids whose newest version could not be recovered (any rollback
        or loss counts — ``lost_pids`` alone is total loss)."""
        return sorted(set(self.stale_pids) | set(self.reverted_pids) | set(self.lost_pids))

    def add(self, fault: PageFault) -> None:
        self.faults.append(fault)

    @classmethod
    def merge(cls, reports: List["FsckReport"]) -> "FsckReport":
        """One array-level view of per-shard reports: faults in shard
        order, I/O counters summed, and the shards' post-repair checks
        as one check whose violations name their shard."""
        counters = (
            "pages_scanned", "checksum_failures", "corrupt_spare_pages",
            "scan_reads", "repair_writes",
        )
        merged = cls(
            faults=[fault for report in reports for fault in report.faults],
            per_shard=list(reports),
        )
        for name in counters:
            setattr(merged, name, sum(getattr(report, name) for report in reports))
        checks = [(i, r.check) for i, r in enumerate(reports) if r.check is not None]
        if checks:
            merged.check = CheckReport(
                pages_checked=sum(check.pages_checked for _i, check in checks),
                violations=[f"shard {i}: {v}" for i, check in checks for v in check.violations],
            )
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
    faults = report.faults
    io_before = chip.stats.of_phase(FSCK_PHASE)
    with chip.stats.phase(FSCK_PHASE):
        state = _sweep(chip, report)
        state.expect_checksum = _checksum_capable(driver) and bool(state.verified)
        rows = list(driver.ppmt.items())  # the one walk of the table
        referenced = {entry.base_addr for _pid, entry in rows}
        dropped: Set[int] = set()
        for pid, entry in rows:
            fault = _fault_kind(state, entry.base_addr, PageType.BASE, [(pid, entry)])
            if fault is None:
                continue
            kind, detail = fault
            if not repair:
                faults.append(PageFault(entry.base_addr, "base", kind, pid, "reported", detail))
                continue
            fixed = _repair_base(driver, state, pid, entry, kind)
            if any(f.action in ("repaired_stale", "lost") for f in fixed):
                dropped.add(pid)
            faults.extend(fixed)

        # The post-repair view: a rolled-back or lost base took its
        # differential reference with it.
        diff_refs: Dict[int, List[Tuple[int, MappingEntry]]] = {}
        for pid, entry in rows:
            if entry.diff_addr is not None and pid not in dropped:
                diff_refs.setdefault(entry.diff_addr, []).append((pid, entry))
        referenced.update(diff_refs)
        for addr, refs in sorted(diff_refs.items()):
            fault = _fault_kind(state, addr, PageType.DIFFERENTIAL, refs)
            if fault is None:
                continue
            kind = fault[0]
            if not repair:
                for pid, row in refs:  # each pid's detail is its own row's mismatch
                    own = _fault_kind(state, addr, PageType.DIFFERENTIAL, [(pid, row)])
                    detail = own[1] if own else ""
                    faults.append(PageFault(addr, "differential", kind, pid, "reported", detail))
                continue
            faults.extend(_repair_differential_page(driver, state, addr, refs, kind))

        faults.extend(_unreferenced_faults(driver, state, referenced, repair))
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
        #: pid -> [(ts, addr)] over every BASE copy on flash.
        self.base_copies: Dict[int, List[Tuple[int, int]]] = {}
        #: Every DIFFERENTIAL-typed page (valid and obsolete).
        self.diff_pages: List[int] = []
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

    def trusted(self, addr: int) -> bool:
        """Whether a repair donor's bytes are vouched for: its checksum
        verified, or this image carries none.  A donor whose checksum was
        torn away is as unverifiable as the page it would repair."""
        if addr in self.bad_data:
            return False
        return not (self.expect_checksum and self.spares[addr].checksum is None)


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
                    (spare.timestamp or 0, addr)
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


def _fault_kind(
    state: _SweepState,
    addr: int,
    page_type: PageType,
    rows: Sequence[Tuple[int, MappingEntry]] = (),
) -> Optional[Tuple[str, str]]:
    """Why the page at ``addr`` cannot serve as a live ``page_type`` page,
    as ``(kind, detail)``, or ``None`` when it can.  The page must carry
    the stamp of each ``(pid, row)`` pointing here (``detail`` is
    :func:`~repro.core.tables.stamp_mismatch`'s description otherwise):
    a base's is in its spare (kind ``spare``), a differential's among
    its entries (kind ``decode``)."""
    spare = state.spares.get(addr)
    if spare is None:
        return "missing", ""
    if spare.is_corrupt or spare.type is not page_type or spare.obsolete:
        return "spare", ""
    if page_type is PageType.BASE:
        for pid, row in rows:
            wrong = stamp_mismatch(pid, row, "base", [(spare.pid, spare.timestamp)])
            if wrong is not None:
                return "spare", wrong
    if addr in state.bad_data:
        return "checksum", ""
    if spare.checksum is None and state.expect_checksum:
        # Torn away: every program on this image stamps one.  The bytes
        # may still decode, but nothing vouches for them.
        return "spare", ""
    if page_type is PageType.DIFFERENTIAL:
        diffs = state.decoded_diffs(addr)
        if diffs is None:
            return "decode", ""
        stamps = [(diff.pid, diff.timestamp) for diff in diffs]
        for pid, row in rows:
            wrong = stamp_mismatch(pid, row, "differential", stamps)
            if wrong is not None:
                return "decode", wrong
    return None


def mark_obsolete_quietly(chip: FlashChip, addr: int) -> bool:
    """Quarantine a damaged page; True when the obsolete mark was written.

    A page being quarantined is by definition damaged, so its spare may
    be erased, torn or out of program budget.  A failed mark must not
    abort the caller (an fsck sweep or the recovery scan): the page is
    already outside every table, which is what matters.
    """
    try:
        chip.mark_obsolete(addr)
    except ProgramError:
        return False
    return True


def _retire(driver: PdlDriver, addr: int, kind: str) -> None:
    """Take a dispositioned page out of the bitmap and quarantine it.  A
    ``missing`` page reads back erased: there is nothing to mark."""
    if driver.blocks.is_valid(addr):
        driver.blocks.note_invalid(addr)
    if kind != "missing":
        mark_obsolete_quietly(driver.chip, addr)


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


def _repair_base(
    driver: PdlDriver, state: _SweepState, pid: int, entry: MappingEntry, kind: str
) -> List[PageFault]:
    """Disposition of ``pid``'s damaged base page: relocate an identical
    copy, roll back to the newest older one, or declare the pid lost."""
    bad_addr = entry.base_addr
    donors = sorted(
        (ts, addr)
        for ts, addr in state.base_copies.get(pid, [])
        if addr != bad_addr and ts <= entry.base_ts and state.trusted(addr)
    )
    exact = [donor for donor in donors if donor[0] == entry.base_ts]
    if donors:
        donor_ts, donor = exact[0] if exact else donors[-1]
        try:
            new_addr = driver.blocks.allocate(stream=driver._base_stream)
        except OutOfSpaceError:
            return [
                PageFault(
                    bad_addr, "base", kind, pid, "reported",
                    "no free page available for relocation",
                )
            ]
        driver.chip.program_page(
            new_addr,
            state.data[donor],
            SpareArea(type=PageType.BASE, pid=pid, timestamp=donor_ts),
        )
        driver.blocks.note_valid(new_addr)

    old_diff = entry.diff_addr
    if exact:
        # The chain was computed against this very image: it still applies.
        driver.ppmt.move_base(pid, new_addr)
        fault = PageFault(
            bad_addr, "base", kind, pid, "repaired_copy",
            f"relocated surviving copy {donor} to {new_addr}",
        )
    else:
        # An older copy or none: the differentials were computed against
        # the lost image, so they go; with no copy the mapping goes too,
        # and reads raise UnknownPageError instead of serving damage.
        if donors:
            driver.ppmt.set_base(pid, new_addr, donor_ts)  # clears diff
            fault = PageFault(
                bad_addr, "base", kind, pid, "repaired_stale",
                f"rolled back to copy {donor} at ts {donor_ts}",
            )
        else:
            fault = PageFault(bad_addr, "base", kind, pid, "lost")
        driver.buffer.remove(pid)
        if old_diff is not None:
            driver._drop_diff_ref(old_diff)
        if not donors:
            driver.ppmt.remove(pid)
    _retire(driver, bad_addr, kind)
    return [fault]


def _repair_differential_page(
    driver: PdlDriver,
    state: _SweepState,
    addr: int,
    refs: List[Tuple[int, MappingEntry]],
    kind: str,
) -> List[PageFault]:
    """Disposition of a damaged differential page and the ``(pid, entry)``
    rows referencing it: salvage what survives elsewhere, then retire it."""
    faults: List[PageFault] = []
    salvaged: List[Differential] = []
    for pid, entry in refs:
        buffered = driver.buffer.get(pid)
        if buffered is not None and buffered.timestamp > entry.base_ts:
            # A newer buffered differential shadows the flash page on
            # every read; detaching the damaged page loses nothing.
            driver.ppmt.set_diff(pid, None)
            faults.append(
                PageFault(
                    addr, "differential", kind, pid, "repaired_chain",
                    "newer buffered differential supersedes the damaged page",
                )
            )
            continue
        survivors = [
            diff
            for other in state.diff_pages
            if other != addr and state.trusted(other)
            for diff in state.decoded_diffs(other) or ()
            if diff.pid == pid and diff.timestamp > entry.base_ts
        ]
        if survivors:
            salvaged.append(max(survivors, key=lambda diff: diff.timestamp))
        else:
            # Nothing newer than the base survives: the page rolls back
            # to its base image.
            driver.ppmt.set_diff(pid, None)
            faults.append(
                PageFault(
                    addr, "differential", kind, pid, "reverted",
                    "no surviving differential newer than the base",
                )
            )

    # Retire the damaged page before re-flushing (its vdct rows are void).
    driver.vdct.remove(addr)
    _retire(driver, addr, kind)
    if not salvaged:
        return faults
    try:
        _reflush_salvaged(driver, salvaged)
    except OutOfSpaceError:
        # Could not write the salvage page: the affected pids revert.
        for diff in salvaged:
            driver.ppmt.set_diff(diff.pid, None)
            faults.append(
                PageFault(
                    addr, "differential", kind, diff.pid, "reverted",
                    "salvage found but no free page to re-flush it",
                )
            )
        return faults
    faults.extend(
        PageFault(
            addr, "differential", kind, diff.pid, "repaired_chain",
            f"re-flushed surviving differential at ts {diff.timestamp}",
        )
        for diff in salvaged
    )
    return faults


def _reflush_salvaged(driver: PdlDriver, salvaged: List[Differential]) -> None:
    """Write salvaged differentials to fresh pages of the differential
    stream, as many per page as fit, re-pointing their entries."""
    groups: List[List[Differential]] = [[]]
    used = 0
    for diff in salvaged:
        if groups[-1] and used + diff.size > driver.buffer.capacity:
            groups.append([])
            used = 0
        groups[-1].append(diff)
        used += diff.size
    for group in groups:
        new_addr, starts = driver._program_differentials(group, driver._diff_stream)
        for diff, at in zip(group, starts):
            driver.ppmt.set_diff(diff.pid, new_addr, diff.timestamp, at)
            driver.vdct.increment(new_addr)


def _unreferenced_faults(
    driver: PdlDriver, state: _SweepState, referenced: Set[int], repair: bool
) -> List[PageFault]:
    """Damage outside the table: the mapping region and unreferenced pages.

    The mapping region holds only CRC-sealed CHECKPOINT pages; damage
    there is reported but never touched — restart falls back to the
    Figure-11 scan, which self-heals.  An unreferenced damaged page that
    is not already garbage is quarantined."""
    region_end = _checkpoint_region_pages(driver)
    faults: List[PageFault] = []
    for addr in sorted(a for a in state.spares if a < region_end):
        fault = _fault_kind(state, addr, PageType.CHECKPOINT)
        if fault is not None:
            faults.append(
                PageFault(
                    addr, "checkpoint", fault[0], None, "reported",
                    "snapshot protocol falls back to the full scan",
                )
            )
    damaged = state.bad_data | {a for a, s in state.spares.items() if s.is_corrupt}
    for addr in sorted(damaged):
        spare = state.spares[addr]
        if addr < region_end or addr in referenced or spare.obsolete:
            continue
        kind = "spare" if spare.is_corrupt else "checksum"
        if repair:
            mark_obsolete_quietly(driver.chip, addr)
        action = "quarantined" if repair else "reported"
        faults.append(PageFault(addr, "unreferenced", kind, None, action))
    return faults
