"""Consistency checking for PDL state.

Cross-validates the four representations of truth a running PDL driver
maintains — the physical page mapping table, the valid differential
count table, the allocator's validity bitmap, and the flash contents
themselves — without charging simulated I/O (it uses the chip's
cost-free peek interface).  Violations indicate a driver bug, not a
recoverable condition; tests run the checker after soak workloads and
after crash recovery.

Checked invariants:

1. every ppmt base address holds a valid BASE page whose spare reads
   ``(pid, base_ts)``;
2. every ppmt differential address holds a valid DIFFERENTIAL page with
   an entry stamped ``(pid, diff_ts)``, newer than the base page (both
   stamps are tested by :func:`~repro.core.tables.stamp_mismatch`);
3. vdct counts equal the number of ppmt rows referencing each page;
4. the allocator's validity bitmap marks exactly the referenced pages;
5. no two ppmt rows share a base address;
6. buffered differentials (not yet in flash) are newer than both the
   base page and any flash differential for their pid;
7. every referenced page whose spare area records a data checksum still
   matches it (single-page failure detection — ``fsck`` repairs what
   this check can only flag).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Sequence

from ..flash.spare import PageType, data_checksum
from .differential import DifferentialError, differential_page_stamps
from .tables import Stamp, stamp_mismatch

if TYPE_CHECKING:
    from .pdl import PdlDriver  # pdl imports fsck, which imports this module


@dataclass
class CheckReport:
    """Outcome of a consistency check."""

    pages_checked: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)

    def raise_if_inconsistent(self) -> None:
        if self.violations:
            summary = "; ".join(self.violations[:5])
            more = len(self.violations) - 5
            if more > 0:
                summary += f" (+{more} more)"
            raise AssertionError(f"PDL state inconsistent: {summary}")


def check_driver(driver: PdlDriver) -> CheckReport:
    """Run all invariant checks against a live driver."""
    report = CheckReport()
    chip = driver.chip
    base_addrs = Counter()
    diff_refs = Counter()

    for pid, entry in driver.ppmt.items():
        report.pages_checked += 1
        base_addrs[entry.base_addr] += 1
        pages = [("base", entry.base_addr, PageType.BASE)]
        if entry.diff_addr is not None:
            diff_refs[entry.diff_addr] += 1
            pages.append(("differential", entry.diff_addr, PageType.DIFFERENTIAL))
        # (1), (2) and (7): each page the row points at, the same way
        for role, addr, page_type in pages:
            spare = chip.peek_spare(addr)
            if spare.type is not page_type:
                report.add(f"pid {pid}: {role} addr {addr} holds {spare.type!r}")
                break
            if spare.obsolete:
                report.add(f"pid {pid}: {role} page {addr} is obsolete")
            if not driver.blocks.is_valid(addr):
                report.add(f"pid {pid}: {role} page {addr} not in bitmap")
            data = chip.peek_data(addr)
            if spare.checksum is not None and data_checksum(data) != spare.checksum:
                report.add(f"pid {pid}: {role} page {addr} fails its data checksum")
            found: Sequence[Stamp] = [(spare.pid, spare.timestamp)]
            if page_type is PageType.DIFFERENTIAL:
                try:
                    found = differential_page_stamps(data)
                except DifferentialError as exc:
                    report.add(f"pid {pid}: {role} page {addr} corrupt: {exc}")
                    break
            wrong = stamp_mismatch(pid, entry, role, found)
            if wrong is not None:
                report.add(f"pid {pid}: {wrong}")
        if entry.diff_ts is not None and entry.diff_ts <= entry.base_ts:
            report.add(
                f"pid {pid}: flash differential ts {entry.diff_ts} "
                f"not newer than base ts {entry.base_ts}"
            )

        # (6) buffered differential freshness
        buffered = driver.buffer.get(pid)
        if buffered is not None and buffered.timestamp <= entry.base_ts:
            report.add(
                f"pid {pid}: buffered differential ts {buffered.timestamp} "
                f"not newer than base ts {entry.base_ts}"
            )

    # (5) base addresses unique
    for addr, count in base_addrs.items():
        if count > 1:
            report.add(f"base address {addr} referenced by {count} pids")

    # (3) vdct counts match references
    vdct_counts = dict(driver.vdct.items())
    if vdct_counts != dict(diff_refs):
        missing = {a: c for a, c in diff_refs.items() if vdct_counts.get(a) != c}
        extra = {a: c for a, c in vdct_counts.items() if a not in diff_refs}
        report.add(f"vdct mismatch: refs={missing} orphan_counts={extra}")

    # (4) bitmap marks exactly the referenced pages
    referenced = set(base_addrs) | set(diff_refs)
    for addr in range(chip.spec.n_pages):
        if driver.blocks.is_valid(addr) and addr not in referenced:
            report.add(f"bitmap marks unreferenced page {addr} valid")

    return report
