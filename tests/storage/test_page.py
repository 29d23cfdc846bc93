"""Unit tests for buffered pages and change-log recording."""

import struct
import sys

import pytest

from repro.core.differential import compute_runs
from repro.ftl.base import ChangeRun
from repro.storage.page import BufferError, Page


@pytest.fixture
def page():
    return Page(0, bytes(64))


class TestReadWrite:
    def test_initial_state(self, page):
        assert not page.dirty
        assert page.change_log == []
        assert page.data == bytes(64)

    def test_write_applies_and_logs(self, page):
        page.write(4, b"abc")
        assert page.data[4:7] == b"abc"
        assert page.dirty
        assert len(page.change_log) == 1
        assert page.change_log[0].offset == 4
        assert page.change_log[0].data == b"abc"

    def test_multiple_writes_accumulate(self, page):
        page.write(0, b"x")
        page.write(10, b"y")
        assert len(page.change_log) == 2

    def test_empty_write_is_noop(self, page):
        page.write(0, b"")
        assert not page.dirty
        assert page.change_log == []

    def test_bounds_checked(self, page):
        with pytest.raises(ValueError):
            page.write(62, b"abc")
        with pytest.raises(ValueError):
            page.read(60, 10)

    def test_negative_length_read_rejected(self, page):
        with pytest.raises(ValueError):
            page.read(0, -1)  # a bare slice would return all but the last byte
        with pytest.raises(ValueError):
            page.read(10, -5)

    def test_read_returns_copy(self, page):
        page.write(0, b"abc")
        chunk = page.read(0, 3)
        assert chunk == b"abc"

    def test_clear_log(self, page):
        page.write(0, b"abc")
        page.clear_log()
        assert not page.dirty
        assert page.change_log == []
        assert page.data[:3] == b"abc"  # content kept


class TestWriteDelta:
    def test_logs_only_changed_bytes(self, page):
        page.write(0, b"AAAA")
        page.clear_log()
        page.write_delta(0, b"AABA")
        assert len(page.change_log) == 1
        assert page.change_log[0].offset == 2
        assert page.change_log[0].data == b"B"

    def test_identical_content_logs_nothing(self, page):
        page.write(0, b"AAAA")
        page.clear_log()
        page.write_delta(0, b"AAAA")
        assert page.change_log == []
        assert not page.dirty

    def test_logs_the_runs_of_the_region_diff_in_order(self, page):
        """One assignment, but the log a run-by-run writer would leave."""
        old = bytes(range(40, 64))
        new = bytes([0, 41, 42, 0, 0, 45]) + old[6:20] + b"zz" + old[22:]
        page.write(8, old)
        page.clear_log()
        version = page.version
        page.write_delta(8, new)
        assert page.read(8, len(new)) == new
        assert page.change_log == [
            ChangeRun(8 + run.offset, run.data) for run in compute_runs(old, new)
        ]
        assert len(page.change_log) == 2 and page.version > version


class _Observer:
    """The pool's side of the contract: the pin count of a frame it owns
    — and nothing else; a write or a clean calls the pool for nothing."""

    def __init__(self):
        self.events = []

    def _pin(self, page):
        self.events.append(("pin", page.pid))
        page.pin_count += 1
        return True

    def _unpin(self, page):
        self.events.append(("unpin", page.pid))
        page.pin_count -= 1


class TestUnlogged:
    """What a pool over a loosely-coupled driver hands out: the same page
    in every respect but the log."""

    @pytest.fixture(params=[True, False], ids=["logged", "unlogged"])
    def watched(self, request):
        page = Page(3, bytes(64), logged=request.param)
        observer = _Observer()
        page.attach(observer)
        return page, observer

    def test_dirty_version_and_notifications_do_not_depend_on_logging(self, watched):
        page, observer = watched
        page.write(4, b"abc")
        page.write_delta(4, b"abd")
        assert page.data[4:7] == b"abd"
        assert page.dirty and page.version == 2
        snapshot = page.writeback_snapshot()
        assert snapshot[0] == page.data and snapshot[2] == 2
        assert page.finish_writeback(snapshot[2], len(snapshot[1]))
        assert not page.dirty and page.change_log == []
        assert observer.events == []

    def test_noop_write_delta_stays_clean(self, watched):
        page, observer = watched
        page.write_delta(0, bytes(16))
        page.write(0, b"")
        assert not page.dirty and page.version == 0
        assert observer.events == []

    def test_bounds_checked(self, watched):
        page, _observer = watched
        for attempt in (page.write, page.write_delta):
            with pytest.raises(ValueError):
                attempt(62, b"abc")
            with pytest.raises(ValueError):
                attempt(-1, b"a")
        assert not page.dirty

    def test_unlogged_page_records_nothing(self):
        page = Page(0, bytes(64), logged=False)
        page.write(0, b"abc")
        page.write_delta(0, b"xbz")
        assert page.data[:3] == b"xbz" and page.dirty
        assert page.change_log == []
        assert page.writeback_snapshot()[1] == []


class TestView:
    def test_decodes_in_place(self, page):
        layout = struct.Struct("<HI")
        page.write(10, layout.pack(0xBEEF, 123456))
        view = page.view
        assert layout.unpack_from(view, 10) == (0xBEEF, 123456)
        page.write(10, layout.pack(7, 8))
        assert layout.unpack_from(view, 10) == (7, 8)  # live, not a snapshot
        assert page.view is view  # one per frame

    def test_bounds_checked(self, page):
        layout = struct.Struct("<Q")
        assert layout.unpack_from(page.view, 56) == (0,)
        with pytest.raises(struct.error):
            layout.unpack_from(page.view, 57)
        with pytest.raises(TypeError):
            page.view[0] = 1  # writes go through Page.write, never the view


def test_latch_free_reads_rest_on_the_gil():
    gil_enabled = getattr(sys, "_is_gil_enabled", lambda: True)()
    assert gil_enabled, (
        "free-threaded interpreter: Page.read, Page.data and decodes from "
        "Page.view take no latch (repro/storage/page.py, 'Concurrency'); "
        "without the GIL they can tear against a concurrent Page.write"
    )


class TestPinning:
    def test_pin_unpin(self, page):
        page.pin()
        page.pin()
        assert page.pin_count == 2
        page.unpin()
        page.unpin()
        assert page.pin_count == 0

    def test_over_unpin(self, page):
        with pytest.raises(RuntimeError):
            page.unpin()

    def test_pinned_context_manager(self, page):
        with page.pinned() as same:
            assert same is page
            assert page.pin_count == 1
        assert page.pin_count == 0

    def test_pinned_releases_on_exception(self, page):
        with pytest.raises(ValueError):
            with page.pinned():
                page.write(1_000, b"x")  # out of bounds
        assert page.pin_count == 0

    def test_pinned_nests(self, page):
        with page.pinned(), page.pinned():
            assert page.pin_count == 2
        assert page.pin_count == 0

    def test_an_attached_frame_pins_through_its_pool(self):
        page, observer = Page(3, bytes(64)), _Observer()
        page.attach(observer)
        with page.pinned():
            assert page.pin_count == 1
        assert observer.events == [("pin", 3), ("unpin", 3)]

    def test_a_dropped_frame_cannot_be_pinned(self):
        """Dropped before the pin, or while the pin waited for the pool."""

        class Evicting(_Observer):
            def _pin(self, page):
                page.detach()
                return False

        dropped, racing = Page(3, bytes(64)), Page(3, bytes(64))
        dropped.attach(_Observer())
        dropped.detach()
        racing.attach(Evicting())
        for page in (dropped, racing):
            with pytest.raises(BufferError, match="pin page 3 .* re-fetch"):
                page.pin()
            assert page.pin_count == 0
