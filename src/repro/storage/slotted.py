"""Slotted-page record layout.

The classic DBMS heap-page organization: a header, record data growing
forward from the header, and a slot directory growing backward from the
page end.  Every slot holds the record's offset and length; deleting a
record tombstones its slot.  All mutations go through :class:`Page`, so
update logs are recorded when the page's driver is tightly coupled.

Layout (little-endian)::

    header:  u16 magic 0x51A7 | u16 slot_count | u16 free_start | u16 live
    slots:   directory entry i at page_end - 4*(i+1): u16 offset | u16 length
             offset 0xFFFF marks a tombstone

``free_start`` is the first byte available for record data; free space is
the gap between it and the lowest slot-directory entry.
"""

from __future__ import annotations

import struct
from typing import Iterator, Optional, Tuple

from .page import Page

_HEADER = struct.Struct("<HHHH")
_SLOT = struct.Struct("<HH")

HEADER_SIZE = _HEADER.size  # 8
SLOT_SIZE = _SLOT.size  # 4
MAGIC = 0x51A7
TOMBSTONE = 0xFFFF


class SlottedPageError(RuntimeError):
    """Raised on malformed pages or invalid slot references."""


class SlottedPage:
    """A slotted-record view over a buffered :class:`Page`.

    The view decodes the header once, when it is made, and keeps its copy
    current as it writes — so it is good exactly as long as its page
    handle is (see :mod:`repro.storage.page`).  Make one per operation,
    as :class:`~repro.storage.heap.HeapFile` does.
    """

    __slots__ = ("page", "_view", "slot_count", "_free_start", "live_records")

    def __init__(self, page: Page):
        self.page = page
        self._view = view = page.view
        magic, self.slot_count, self._free_start, self.live_records = (
            _HEADER.unpack_from(view)
        )
        # Slot offsets count back from the page end: a count that cannot fit
        # would take one below zero, which struct reads from the end.
        if magic != MAGIC or HEADER_SIZE + self.slot_count * SLOT_SIZE > len(view):
            raise SlottedPageError(
                f"page {page.pid} is not a slotted page (magic 0x{magic:04X}, "
                f"{self.slot_count} slots in {len(view)} bytes)"
            )

    @classmethod
    def format(cls, page: Page) -> "SlottedPage":
        """Initialize an empty slotted page in-place."""
        page.write(0, _HEADER.pack(MAGIC, 0, HEADER_SIZE, 0))
        return cls(page)

    def _set_header(self, slot_count: int, free_start: int, live: int) -> None:
        self.page.write(0, _HEADER.pack(MAGIC, slot_count, free_start, live))
        self.slot_count, self._free_start, self.live_records = slot_count, free_start, live

    @property
    def free_space(self) -> int:
        """Bytes available for a new record (excluding its slot entry)."""
        directory_start = self.page.size - self.slot_count * SLOT_SIZE
        return max(0, directory_start - self._free_start - SLOT_SIZE)

    # ------------------------------------------------------------------
    # Slot directory access
    # ------------------------------------------------------------------
    def _read_slot(self, slot: int) -> Tuple[int, int]:
        if not 0 <= slot < self.slot_count:
            raise SlottedPageError(
                f"slot {slot} out of range (page {self.page.pid} has {self.slot_count})"
            )
        return _SLOT.unpack_from(self._view, len(self._view) - SLOT_SIZE * (slot + 1))

    def _live_slot(self, slot: int) -> Tuple[int, int]:
        offset, length = self._read_slot(slot)
        if offset == TOMBSTONE:
            raise SlottedPageError(f"slot {slot} of page {self.page.pid} is deleted")
        return offset, length

    def _write_slot(self, slot: int, offset: int, length: int) -> None:
        self.page.write(
            self.page.size - SLOT_SIZE * (slot + 1), _SLOT.pack(offset, length)
        )

    # ------------------------------------------------------------------
    # Record operations
    # ------------------------------------------------------------------
    def insert(self, record: bytes) -> Optional[int]:
        """Store a record; returns its slot number, or None if full.

        Tombstoned slots are reused (their directory entry is recycled,
        record space is not compacted — standard lazy reclamation).
        """
        if not record:
            raise ValueError("empty records are not supported")
        slot_count, free_start = self.slot_count, self._free_start
        slot = slot_count
        if self.live_records < slot_count:  # a tombstone exists: take the first
            tombstones = (
                s for s in range(slot_count) if self._read_slot(s)[0] == TOMBSTONE
            )
            slot = next(tombstones, slot_count)
        needed = len(record) + (SLOT_SIZE if slot == slot_count else 0)
        if self.page.size - slot_count * SLOT_SIZE - free_start < needed:
            return None
        self.page.write(free_start, record)
        self._write_slot(slot, free_start, len(record))
        self._set_header(
            max(slot_count, slot + 1), free_start + len(record), self.live_records + 1
        )
        return slot

    def read(self, slot: int) -> bytes:
        return self.page.read(*self._live_slot(slot))

    def update(self, slot: int, record: bytes) -> bool:
        """Overwrite a record in place.

        Same-size updates (the common DBMS case with fixed-size records)
        always succeed; shrinking succeeds in place; growth relocates the
        record within the page if space allows, else returns False so the
        caller can delete + reinsert elsewhere.
        """
        offset, length = self._live_slot(slot)
        if len(record) <= length:
            self.page.write_delta(offset, record)
            if len(record) != length:
                self._write_slot(slot, offset, len(record))
            return True
        free_start = self._free_start
        if self.page.size - self.slot_count * SLOT_SIZE - free_start < len(record):
            return False
        self.page.write(free_start, record)
        self._write_slot(slot, free_start, len(record))
        self._set_header(self.slot_count, free_start + len(record), self.live_records)
        return True

    def delete(self, slot: int) -> None:
        self._live_slot(slot)
        self._write_slot(slot, TOMBSTONE, 0)
        self._set_header(self.slot_count, self._free_start, self.live_records - 1)

    def records(self) -> Iterator[Tuple[int, bytes]]:
        """Yield ``(slot, record)`` for every live record."""
        for slot in range(self.slot_count):
            offset, length = self._read_slot(slot)
            if offset != TOMBSTONE:
                yield slot, self.page.read(offset, length)

    @classmethod
    def capacity_for(cls, record_size: int, page_size: int) -> int:
        """How many fixed-size records fit in one formatted page."""
        return (page_size - HEADER_SIZE) // (record_size + SLOT_SIZE)
