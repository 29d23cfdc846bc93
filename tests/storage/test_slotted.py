"""Unit tests for the slotted-page record layout."""

import pytest

from repro.storage.page import Page
from repro.storage.slotted import (
    HEADER_SIZE,
    SLOT_SIZE,
    SlottedPage,
    SlottedPageError,
)


@pytest.fixture
def spage():
    return SlottedPage.format(Page(0, bytes(256)))


class TestFormat:
    def test_fresh_page(self, spage):
        assert spage.slot_count == 0
        assert spage.live_records == 0
        assert spage.free_space == 256 - HEADER_SIZE - SLOT_SIZE

    def test_unformatted_page_rejected(self):
        with pytest.raises(SlottedPageError):
            SlottedPage(Page(0, bytes(256))).slot_count

    def test_slot_count_larger_than_the_page_rejected(self):
        # Slot offsets count back from the page end; a corrupt count must
        # not turn into a negative offset that struct reads from the end.
        page = Page(0, bytes(64))
        SlottedPage.format(page)
        page.write(2, (64 // SLOT_SIZE).to_bytes(2, "little"))
        with pytest.raises(SlottedPageError, match="16 slots in 64 bytes"):
            SlottedPage(page)

    def test_capacity_for(self):
        assert SlottedPage.capacity_for(20, 256) == (256 - HEADER_SIZE) // 24


class TestInsertRead:
    def test_roundtrip(self, spage):
        slot = spage.insert(b"hello")
        assert spage.read(slot) == b"hello"
        assert spage.live_records == 1

    def test_multiple_records(self, spage):
        slots = [spage.insert(bytes([i]) * 10) for i in range(5)]
        for i, slot in enumerate(slots):
            assert spage.read(slot) == bytes([i]) * 10

    def test_full_page_returns_none(self, spage):
        while spage.insert(b"x" * 20) is not None:
            pass
        assert spage.insert(b"x" * 20) is None

    def test_empty_record_rejected(self, spage):
        with pytest.raises(ValueError):
            spage.insert(b"")

    def test_bad_slot(self, spage):
        with pytest.raises(SlottedPageError):
            spage.read(0)


class TestUpdate:
    def test_same_size_in_place(self, spage):
        slot = spage.insert(b"aaaa")
        assert spage.update(slot, b"bbbb")
        assert spage.read(slot) == b"bbbb"

    def test_shrink(self, spage):
        slot = spage.insert(b"aaaaaa")
        assert spage.update(slot, b"bb")
        assert spage.read(slot) == b"bb"

    def test_grow_relocates_within_page(self, spage):
        slot = spage.insert(b"aa")
        assert spage.update(slot, b"bbbbbbbb")
        assert spage.read(slot) == b"bbbbbbbb"

    def test_grow_fails_when_page_full(self, spage):
        slots = []
        while True:
            slot = spage.insert(b"x" * 20)
            if slot is None:
                break
            slots.append(slot)
        assert spage.update(slots[0], b"y" * 100) is False
        assert spage.read(slots[0]) == b"x" * 20  # unchanged

    def test_update_deleted_fails(self, spage):
        slot = spage.insert(b"aaaa")
        spage.delete(slot)
        with pytest.raises(SlottedPageError):
            spage.update(slot, b"bbbb")


class TestDelete:
    def test_delete_tombstones(self, spage):
        slot = spage.insert(b"abc")
        spage.delete(slot)
        assert spage.live_records == 0
        with pytest.raises(SlottedPageError):
            spage.read(slot)

    def test_double_delete_fails(self, spage):
        slot = spage.insert(b"abc")
        spage.delete(slot)
        with pytest.raises(SlottedPageError):
            spage.delete(slot)

    def test_slot_reuse(self, spage):
        a = spage.insert(b"abc")
        spage.delete(a)
        b = spage.insert(b"def")
        assert b == a  # tombstoned slot recycled
        assert spage.read(b) == b"def"


class TestScan:
    def test_records_skips_deleted(self, spage):
        a = spage.insert(b"aa")
        b = spage.insert(b"bb")
        c = spage.insert(b"cc")
        spage.delete(b)
        assert [(s, r) for s, r in spage.records()] == [(a, b"aa"), (c, b"cc")]


class TestChangeLogging:
    def test_mutations_are_logged(self):
        page = Page(0, bytes(256))
        spage = SlottedPage.format(page)
        page.clear_log()
        spage.insert(b"abcd")
        assert page.change_log, "insert must record update logs"
        logged = sum(len(run.data) for run in page.change_log)
        assert logged <= 4 + SLOT_SIZE + HEADER_SIZE
