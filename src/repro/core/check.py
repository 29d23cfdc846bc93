"""Consistency checking (fsck) for PDL state.

Cross-validates the four representations of truth a running PDL driver
maintains — the physical page mapping table, the valid differential
count table, the allocator's validity bitmap, and the flash contents
themselves — without charging simulated I/O (it uses the chip's
cost-free peek interface).  Violations indicate a driver bug, not a
recoverable condition; tests run the checker after soak workloads and
after crash recovery.

Checked invariants:

1. every ppmt base address holds a valid BASE page whose spare pid and
   timestamp match the table;
2. every ppmt differential address holds a valid DIFFERENTIAL page that
   actually contains an entry for that pid, newer than the base page;
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
from typing import TYPE_CHECKING, List

from ..flash.spare import PageType, data_checksum
from .differential import DifferentialError, decode_differential_page

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
        # (1) base page integrity
        spare = chip.peek_spare(entry.base_addr)
        if spare.type is not PageType.BASE:
            report.add(f"pid {pid}: base addr {entry.base_addr} holds {spare.type!r}")
            continue
        if spare.obsolete:
            report.add(f"pid {pid}: base page {entry.base_addr} is obsolete")
        if spare.pid != pid:
            report.add(
                f"pid {pid}: base page {entry.base_addr} labelled pid {spare.pid}"
            )
        if spare.timestamp != entry.base_ts:
            report.add(
                f"pid {pid}: base ts {entry.base_ts} != spare ts {spare.timestamp}"
            )
        if not driver.blocks.is_valid(entry.base_addr):
            report.add(f"pid {pid}: base page {entry.base_addr} not in bitmap")
        # (7) base data matches its stored checksum
        if (
            spare.checksum is not None
            and data_checksum(chip.peek_data(entry.base_addr)) != spare.checksum
        ):
            report.add(
                f"pid {pid}: base page {entry.base_addr} fails its data checksum"
            )

        # (2) differential page integrity
        if entry.diff_addr is not None:
            diff_refs[entry.diff_addr] += 1
            dspare = chip.peek_spare(entry.diff_addr)
            if dspare.type is not PageType.DIFFERENTIAL:
                report.add(
                    f"pid {pid}: diff addr {entry.diff_addr} holds {dspare.type!r}"
                )
                continue
            if dspare.obsolete:
                report.add(f"pid {pid}: diff page {entry.diff_addr} is obsolete")
            # (7) differential data matches its stored checksum
            diff_data = chip.peek_data(entry.diff_addr)
            if (
                dspare.checksum is not None
                and data_checksum(diff_data) != dspare.checksum
            ):
                report.add(
                    f"pid {pid}: diff page {entry.diff_addr} fails its data checksum"
                )
            try:
                diffs = decode_differential_page(diff_data)
            except DifferentialError as exc:
                report.add(f"pid {pid}: diff page {entry.diff_addr} corrupt: {exc}")
                continue
            match = [d for d in diffs if d.pid == pid]
            if not match:
                report.add(
                    f"pid {pid}: diff page {entry.diff_addr} has no entry for it"
                )
            elif match[0].timestamp <= entry.base_ts:
                report.add(
                    f"pid {pid}: flash differential ts {match[0].timestamp} "
                    f"not newer than base ts {entry.base_ts}"
                )
            if not driver.blocks.is_valid(entry.diff_addr):
                report.add(f"pid {pid}: diff page {entry.diff_addr} not in bitmap")

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
