"""PDL's in-memory tables (Section 4.2, Figure 6).

* :class:`PhysicalPageMappingTable` (*ppmt*) maps a logical page id to its
  base-page address and, when one exists, the address of the differential
  page holding its current differential.  Indirection is required because
  the out-place scheme moves physical pages.
* :class:`ValidDifferentialCountTable` (*vdct*) counts, per differential
  page, how many of its differentials are still current.  When the count
  reaches zero the page is garbage and is marked obsolete.

Both tables are volatile; :mod:`repro.core.recovery` reconstructs them
from flash after a crash.  Their demand-paged, journaled twins
(:mod:`repro.core.mapping`, persisted by :mod:`repro.core.mapping_store`) are
the one way a table survives a restart without that scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple


@dataclass(slots=True)
class MappingEntry:
    """One ppmt row: where a logical page currently lives.

    ``base_ts`` mirrors the creation time stamp stored in the base page's
    spare area; keeping it in memory lets runtime code and the mapping
    snapshot reason about recency without extra flash reads.
    ``diff_ts`` mirrors the adopted differential's entry stamp the same
    way — recovery's seeded tail scan and the mapping journal both need
    it to apply the strictly-newer adoption rule without re-reading the
    differential page.
    ``diff_at`` is where that differential's entry starts in its
    differential page, recorded wherever the entry is placed (a buffer
    flush, GC compaction, fsck's salvage, the Figure-11 scan) so
    PDL_Reading goes straight to it.  It is RAM only: a row restored
    from a mapping snapshot or the journal has ``None``, and the read
    walks the page's entry headers instead.
    """

    base_addr: int
    base_ts: int
    diff_addr: Optional[int] = None
    diff_ts: Optional[int] = None
    diff_at: Optional[int] = field(default=None, compare=False)


#: ``(pid, timestamp)`` as a base spare or a differential entry records it.
Stamp = Tuple[Optional[int], Optional[int]]


def stamp_mismatch(pid: int, row: MappingEntry, role: str, found: Sequence[Stamp]) -> Optional[str]:
    """Whether the ``role`` page (``"base"`` or ``"differential"``) that
    ``pid``'s ``row`` points at carries the row's stamp: ``None`` when it
    does, else ``"<role> page A holds (pid Q, ts T), the mapping row
    expects (pid P, ts E)"``.  ``found`` is every ``(pid, timestamp)`` on
    the page: the base spare's one, or a differential page's entry stamps,
    of which only ``pid``'s are named.  A checksum proves a page whole,
    not that it is the row's.  The read, the write's base re-read, fsck
    and :func:`~repro.core.check.check_driver` all ask this one test."""
    expected = row.base_ts if role == "base" else row.diff_ts
    if (pid, expected) in found:
        return None
    addr = row.base_addr if role == "base" else row.diff_addr
    if role != "base":  # a differential page: name only pid's own entries
        found = [stamp for stamp in found if stamp[0] == pid]
    held = ", ".join(f"(pid {p}, ts {ts})" for p, ts in found) or f"no entry for pid {pid}"
    return f"{role} page {addr} holds {held}, the mapping row expects (pid {pid}, ts {expected})"


class PhysicalPageMappingTable:
    """pid → (base page address, differential page address)."""

    def __init__(self) -> None:
        self._entries: Dict[int, MappingEntry] = {}

    def get(self, pid: int) -> Optional[MappingEntry]:
        return self._entries.get(pid)

    def require(self, pid: int) -> MappingEntry:
        entry = self._entries.get(pid)
        if entry is None:
            raise KeyError(f"logical page {pid} has no mapping entry")
        return entry

    def hold(self, pid: int, entry: MappingEntry) -> None:
        """The caller just looked ``entry`` up as ``pid``'s row and has work
        pending on it.  Every row is RAM-resident here, so nothing is done;
        the demand-paged table keeps the row where the pending mutator
        finds it without a second translation."""

    def set_base(self, pid: int, addr: int, timestamp: int) -> Optional[MappingEntry]:
        """Point ``pid`` at a new base page and clear its differential;
        returns the row this displaced (``None``: the pid was unmapped)."""
        old = self._entries.get(pid)
        self._entries[pid] = MappingEntry(base_addr=addr, base_ts=timestamp)
        return old

    def move_base(self, pid: int, addr: int) -> None:
        """Relocate the base page (GC) without touching the differential."""
        self.require(pid).base_addr = addr

    def set_diff(
        self,
        pid: int,
        addr: Optional[int],
        timestamp: Optional[int] = None,
        at: Optional[int] = None,
    ) -> None:
        """Point ``pid`` at the differential stamped ``timestamp`` whose
        entry starts ``at`` bytes into differential page ``addr`` (``at``
        unknown: ``None``); ``addr=None`` clears the differential."""
        entry = self._entries.get(pid)
        if entry is None:
            self.require(pid)  # raises: the row is missing
        entry.diff_addr = addr
        if addr is None:
            entry.diff_ts = entry.diff_at = None
        else:
            entry.diff_ts = timestamp
            entry.diff_at = at

    def install(self, entries: Dict[int, MappingEntry]) -> None:
        """Take over ``entries`` as the table's rows, replacing its
        contents: the recovery scan builds its rows locally and installs
        them once, as :meth:`ValidDifferentialCountTable.seed` does for
        the counts.  The caller must not touch the dict afterwards."""
        self._entries = entries

    def remove(self, pid: int) -> Optional[MappingEntry]:
        """Drop a row entirely (fsck's repair of an unrecoverable pid)."""
        return self._entries.pop(pid, None)

    def __contains__(self, pid: int) -> bool:
        return pid in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def max_pid(self) -> int:
        """Largest mapped pid, -1 when empty (allocation-horizon input)."""
        return max(self._entries, default=-1)

    def items(self) -> Iterator[Tuple[int, MappingEntry]]:
        return iter(self._entries.items())

    def pids(self) -> Iterator[int]:
        return iter(self._entries.keys())


class ValidDifferentialCountTable:
    """differential page address → count of still-valid differentials."""

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}

    def increment(self, addr: int) -> None:
        self._counts[addr] = self._counts.get(addr, 0) + 1

    def decrement(self, addr: int) -> bool:
        """Decrease the count; True when it reached zero (page is garbage).

        The entry is removed at zero — the caller marks the physical page
        obsolete (decreaseValidDifferentialCount in Figure 8).
        """
        count = self._counts.get(addr)
        if count is None:
            raise KeyError(f"differential page {addr} not tracked")
        if count <= 1:
            del self._counts[addr]
            return True
        self._counts[addr] = count - 1
        return False

    def count(self, addr: int) -> int:
        return self._counts.get(addr, 0)

    def seed(self, rows: Iterable[Tuple[int, int]]) -> None:
        """Bulk-load (addr, count) rows (snapshot restore path)."""
        self._counts = {addr: n for addr, n in rows if n > 0}

    def remove(self, addr: int) -> int:
        """Forget a page entirely (its block was erased by GC)."""
        return self._counts.pop(addr, 0)

    def pages(self) -> Iterator[int]:
        return iter(self._counts.keys())

    def items(self) -> Iterator[Tuple[int, int]]:
        return iter(self._counts.items())

    def __len__(self) -> int:
        return len(self._counts)

    def total_valid(self) -> int:
        return sum(self._counts.values())
