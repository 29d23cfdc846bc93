"""Heap files: unordered record storage over slotted pages.

A heap file owns a set of logical pages and places records wherever room
exists, returning stable :class:`RID` handles.  A RAM free-space hint map
avoids probing full pages (the catalog is process-lifetime state, like
the rest of the mini engine — the experiments never reopen a database).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .db import Database
from .slotted import SlottedPage


class RID(NamedTuple):
    """A record identifier: logical page id + slot number."""

    pid: int
    slot: int


class HeapFile:
    """An unordered collection of variable-length records."""

    def __init__(self, db: Database, name: str):
        self.db = db
        self.name = name
        self.pages: List[int] = []
        #: pid -> last observed free space (hint only; verified on use).
        self._free_hint: Dict[int, int] = {}
        self.record_count = 0

    # ------------------------------------------------------------------
    # Record operations
    # ------------------------------------------------------------------
    def insert(self, record: bytes) -> RID:
        """Store a record, growing the file when no page has room."""
        if len(record) > self.db.page_size // 2:
            raise ValueError(
                f"record of {len(record)} bytes exceeds half a page; "
                "large objects are out of scope"
            )
        for pid in self._candidate_pages(len(record)):
            spage = SlottedPage(self.db.page(pid))
            slot = spage.insert(record)
            if slot is not None:
                self._free_hint[pid] = spage.free_space
                self.record_count += 1
                return RID(pid, slot)
            self._free_hint[pid] = spage.free_space
        page = self.db.allocate_page()
        spage = SlottedPage.format(page)
        slot = spage.insert(record)
        assert slot is not None, "fresh page must accept a half-page record"
        self.pages.append(page.pid)
        self._free_hint[page.pid] = spage.free_space
        self.record_count += 1
        return RID(page.pid, slot)

    def read(self, rid: RID) -> bytes:
        return SlottedPage(self.db.page(rid.pid)).read(rid.slot)

    def update(self, rid: RID, record: bytes) -> RID:
        """Overwrite a record; relocates it when it no longer fits."""
        spage = SlottedPage(self.db.page(rid.pid))
        if spage.update(rid.slot, record):
            self._free_hint[rid.pid] = spage.free_space
            return rid
        spage.delete(rid.slot)
        self._free_hint[rid.pid] = spage.free_space
        self.record_count -= 1
        return self.insert(record)

    def delete(self, rid: RID) -> None:
        spage = SlottedPage(self.db.page(rid.pid))
        spage.delete(rid.slot)
        self._free_hint[rid.pid] = spage.free_space
        self.record_count -= 1

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def scan(self) -> Iterator[Tuple[RID, bytes]]:
        """Yield every live record in page order."""
        for pid in self.pages:
            # A page's records are copied out before the first is yielded:
            # the consumer may fetch pages in between and evict this one.
            for slot, record in list(SlottedPage(self.db.page(pid)).records()):
                yield RID(pid, slot), record

    def __len__(self) -> int:
        return self.record_count

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _candidate_pages(self, need: int) -> Iterator[int]:
        """Pages whose hinted free space may fit the record (best effort)."""
        for pid in reversed(self.pages):
            if self._free_hint.get(pid, 0) >= need:
                yield pid
