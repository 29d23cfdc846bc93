"""Unit tests for the buffer-pool subsystem.

Covers the eviction-policy registry and the two built-in policies,
the LRU reclaim cursor (parked pinned frames are not rescanned),
write-back on flush, a closed pool's refusals, capacity resizing, pin
context managers, and the merged stats report.  The byte-for-byte legacy-equivalence test
lives in ``test_bufferpool_equivalence.py``.
"""

import threading

import pytest

from repro.core.pdl import PdlDriver
from repro.flash.chip import FlashChip
from repro.flash.spec import spec_for_database
from repro.ftl.errors import ConfigurationError
from repro.methods import make_method
from repro.storage.bufferpool import (
    BufferError,
    BufferManager,
    eviction_policy_names,
    make_eviction_policy,
    register_eviction_policy,
)
from repro.storage.bufferpool.policy import (
    EvictionPolicy,
    LruPolicy,
    TwoQPolicy,
)
from repro.storage.db import Database


@pytest.fixture
def driver(chip):
    return PdlDriver(chip, max_differential_size=64)


def _load(driver, n):
    driver.load_pages(
        [(pid, bytes([pid]) * driver.page_size) for pid in range(n)]
    )
    driver.end_of_load()


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_names(self):
        names = eviction_policy_names()
        assert {"lru", "2q"} <= set(names)

    def test_unknown_policy_raises(self):
        with pytest.raises(ConfigurationError, match="unknown eviction policy"):
            make_eviction_policy("nope", 8)

    def test_case_insensitive(self):
        assert isinstance(make_eviction_policy("LRU", 4), LruPolicy)
        assert isinstance(make_eviction_policy("2Q", 4), TwoQPolicy)

    def test_custom_registration(self, driver):
        class Fifo(LruPolicy):
            name = "fifo-test"

            def touch(self, pid):
                pass  # no recency: admission order only

        register_eviction_policy("fifo-test", Fifo)
        assert "fifo-test" in eviction_policy_names()
        pool = BufferManager(driver, 2, policy="fifo-test")
        _load(driver, 3)
        pool.get_page(0)
        pool.get_page(1)
        pool.get_page(0)  # touch is a no-op: 0 stays coldest
        pool.get_page(2)
        assert 0 not in pool

    def test_manager_accepts_policy_instance(self, driver):
        pool = BufferManager(driver, 4, policy=TwoQPolicy(4))
        assert pool.stats.policy == "2q"


# ----------------------------------------------------------------------
# LRU reclaim cursor (the pinned-frame O(n) rescan fix)
# ----------------------------------------------------------------------
class TestLruCursor:
    def test_pinned_frames_are_parked_not_rescanned(self, driver):
        pool = BufferManager(driver, 4, policy="lru")
        _load(driver, 16)
        cold = [pool.get_page(pid) for pid in (0, 1)]
        for page in cold:
            page.pin()
        pool.get_page(2)
        pool.get_page(3)
        pool.get_page(4)  # evicts 2: skips the two pinned cold frames once
        assert pool.stats.pinned_skips == 2
        assert pool.stats.policy_counters.get("parked") == 2
        pool.get_page(5)  # evicts 3: the parked frames are NOT re-skipped
        assert pool.stats.pinned_skips == 2
        assert 0 in pool and 1 in pool

    def test_unpin_returns_frame_to_eviction_order(self, driver):
        pool = BufferManager(driver, 4, policy="lru")
        _load(driver, 16)
        pinned = pool.get_page(0)
        pinned.pin()
        for pid in (1, 2, 3, 4):
            pool.get_page(pid)  # parks 0, evicts 1
        assert 0 in pool
        pinned.unpin()
        pool.get_page(5)  # 0 is the coldest reclaimable frame again
        assert 0 not in pool

    def test_all_pinned_raises(self, driver):
        pool = BufferManager(driver, 2)
        _load(driver, 3)
        pool.get_page(0).pin()
        pool.get_page(1).pin()
        with pytest.raises(BufferError):
            pool.get_page(2)


# ----------------------------------------------------------------------
# 2Q
# ----------------------------------------------------------------------
class TestTwoQ:
    def test_ghost_promotion(self):
        policy = TwoQPolicy(4)
        for pid in (1, 2, 3, 4):
            policy.admit(pid)
        victim = policy.select_victim(lambda pid: True)
        assert victim == 1  # FIFO head of the probation queue
        policy.remove(victim)
        assert 1 in policy._a1out
        policy.admit(1)  # re-reference after probation: hot
        assert 1 in policy._am
        assert policy.counters["ghost_promotions"] == 1

    def test_scan_resistance_beats_lru(self, tiny_spec):
        """The same hot-set-plus-scan trace, replayed on LRU and 2Q.

        Hot pages are re-referenced while scans sweep past; 2Q promotes
        them to its protected queue and must end with the hot set
        resident and a strictly better hit count, while LRU lets every
        sweep flush them.
        """
        hot = (0, 1, 2)

        def trace():
            ops = []
            for cycle in range(6):
                for _ in range(6):
                    ops.extend(hot)  # OLTP burst
                for pid in range(8 + cycle, 56, 3):  # a sweep...
                    ops.append(pid)
                    ops.append(hot[pid % len(hot)])  # ...with OLTP under it
            return ops

        hits = {}
        resident = {}
        for name in ("lru", "2q"):
            chip = FlashChip(tiny_spec)
            driver = PdlDriver(chip, max_differential_size=64)
            _load(driver, 64)
            pool = BufferManager(driver, 8, policy=name)
            for pid in trace():
                pool.get_page(pid)
            hits[name] = pool.stats.hits
            resident[name] = all(pid in pool for pid in hot)
        assert resident["2q"], "2q lost the hot set to the scans"
        assert hits["2q"] > hits["lru"]
        assert pool.policy.counters["ghost_promotions"] > 0

    def test_resize_recomputes_thresholds(self):
        policy = TwoQPolicy(40)
        assert policy.kin == 10
        policy.resize(8)
        assert policy.kin == 2
        assert policy.kout == 4


# ----------------------------------------------------------------------
# Capacity / pinning ergonomics
# ----------------------------------------------------------------------
class TestManager:
    def test_capacity_shrink_evicts(self, driver):
        pool = BufferManager(driver, 8)
        _load(driver, 8)
        for pid in range(8):
            pool.get_page(pid)
        pool.capacity = 3
        assert len(pool) == 3
        assert pool.stats.evictions == 5
        with pytest.raises(ValueError):
            pool.capacity = 0

    def test_pool_pinned_context_manager(self, driver):
        pool = BufferManager(driver, 4)
        _load(driver, 4)
        with pool.pinned(0) as page:
            assert page.pin_count == 1
            assert pool.pinned_count() == 1
        assert page.pin_count == 0

    def test_pinned_does_not_leak_on_exception(self, driver):
        pool = BufferManager(driver, 4)
        _load(driver, 4)
        with pytest.raises(RuntimeError, match="boom"):
            with pool.pinned(0):
                raise RuntimeError("boom")
        assert pool.get_page(0).pin_count == 0

    def test_page_pinned_context_manager(self, driver):
        pool = BufferManager(driver, 4)
        _load(driver, 4)
        page = pool.get_page(1)
        with pytest.raises(ValueError):
            with page.pinned():
                assert page.pin_count == 1
                page.read(10_000, 1)  # raises: out of bounds
        assert page.pin_count == 0

    def test_eviction_stall_samples_cover_every_eviction(self, driver):
        pool = BufferManager(driver, 2)
        _load(driver, 8)
        for pid in range(6):
            page = pool.get_page(pid)
            page.write(0, b"\xAA")
        assert pool.stats.eviction_stalls.count == pool.stats.evictions
        assert pool.stats.eviction_stall_percentile(99) > 0.0

    def test_write_through_an_evicted_handle_is_loud(self, driver):
        """A stale handle must not swallow an update nothing will flush."""
        pool = BufferManager(driver, 2)
        _load(driver, 4)
        stale = pool.get_page(0)
        stale.write(0, b"\x11")  # dirty: the eviction writes it back
        pool.get_page(1)
        pool.get_page(2)  # evicts 0
        assert 0 not in pool
        for attempt in (stale.write, stale.write_delta):
            with pytest.raises(BufferError, match="page 0"):
                attempt(1, b"\x22")
        stale.write_delta(0, b"\x11")  # nothing to lose: not an error
        fresh = pool.get_page(0)
        assert fresh is not stale and fresh.data[:2] == b"\x11\x00"

    def test_pin_through_a_dropped_handle_is_loud(self, driver):
        """A pin on a frame the pool no longer holds would count a pin no
        eviction ever checks: evicted or cleared, it fails like a write."""
        pool = BufferManager(driver, 2)
        _load(driver, 4)
        evicted, cleared = pool.get_page(0), pool.get_page(1)
        pool.get_page(2)  # evicts 0
        assert pool.clear() == 2  # drops 1 and 2
        for stale in (evicted, cleared):
            with pytest.raises(BufferError, match=f"page {stale.pid} .* re-fetch"):
                stale.pin()
            with pytest.raises(BufferError, match=f"page {stale.pid} .* re-fetch"):
                with stale.pinned():
                    pass
            assert stale.pin_count == 0
        with pool.pinned(0) as fresh:
            assert fresh.pin_count == 1 and fresh is not evicted

    def test_clear_retires_the_handles_it_drops(self, driver):
        pool = BufferManager(driver, 4)
        _load(driver, 4)
        dropped, kept = pool.get_page(0), pool.get_page(1)
        kept.write(0, b"\x33")  # dirty frames survive clear()
        assert pool.clear() == 1
        with pytest.raises(BufferError, match="page 0"):
            dropped.write(0, b"\x44")
        kept.write(1, b"\x55")


# ----------------------------------------------------------------------
# Write-back: only on eviction, flush_page or flush_all
# ----------------------------------------------------------------------
class TestWriteback:
    def test_flush_all_is_durable(self, driver):
        pool = BufferManager(driver, 8)
        _load(driver, 8)
        for pid in range(8):
            pool.get_page(pid).write(0, bytes([0xC0 + pid]))
        assert pool.dirty_count == 8
        pool.flush_all()
        assert pool.dirty_count == 0
        assert pool.stats.flushes == pool.stats.flashed_pages == 8
        for pid in range(8):
            assert driver.read_page(pid)[0] == 0xC0 + pid

    def test_concurrent_writer_keeps_residual_log(self):
        """Over a tightly-coupled driver, a page dirtied mid-flush stays
        dirty with only the new runs."""
        ipl = make_method("IPL (18KB)", FlashChip(spec_for_database(16, 0.25)))
        pool = BufferManager(ipl, 4)
        ipl.load_page(0, bytes(ipl.page_size))
        page = pool.get_page(0)
        page.write(0, b"\x01")
        data, logs, version = page.writeback_snapshot()
        assert [run.offset for run in logs] == [0]
        page.write(1, b"\x02")  # races the in-flight snapshot
        assert not page.finish_writeback(version, len(logs))
        assert page.dirty
        assert len(page.change_log) == 1
        assert page.change_log[0].offset == 1

    def test_concurrent_writer_on_loose_driver_stays_dirty_without_a_log(self, driver):
        """The twin over PDL: the race is caught by the version alone —
        the pool never asked the page for update logs."""
        pool = BufferManager(driver, 4)
        _load(driver, 4)
        page = pool.get_page(0)
        page.write(0, b"\x01")
        data, logs, version = page.writeback_snapshot()
        assert logs == []
        page.write(1, b"\x02")  # races the in-flight snapshot
        assert not page.finish_writeback(version, len(logs))
        assert page.dirty
        assert page.change_log == []
        pool.flush_all()
        assert not page.dirty
        assert driver.read_page(0)[:2] == b"\x01\x02"

    def test_close_is_idempotent(self, driver):
        pool = BufferManager(driver, 4)
        pool.close()
        pool.close()
        with pytest.raises(BufferError, match="get_page of page 0 on a closed"):
            pool.get_page(0)


# ----------------------------------------------------------------------
# Database plumbing
# ----------------------------------------------------------------------
class TestDatabasePlumbing:
    def test_open_with_policy(self, tmp_path):
        path = tmp_path / "db"
        with Database.open(path, buffer_capacity=16, buffer_policy="2q") as db:
            assert db.pool.stats.policy == "2q"
            page = db.allocate_page()
            page.write(0, b"hello")
            db.flush()
            pid = page.pid
        # Reopen with defaults: runtime knobs do not persist.
        with Database.open(path) as db:
            assert db.pool.stats.policy == "lru"
            assert db.page(pid).data[:5] == b"hello"

    def test_report_merges_buffer_stats(self, tmp_path):
        with Database.open(tmp_path / "db", buffer_capacity=8) as db:
            page = db.allocate_page()
            page.write(0, b"x")
            db.flush()
            report = db.report()
        assert report["writes"] > 0
        assert report["buffer"]["policy"] == "lru"
        assert report["buffer"]["flushes"] == 1

    @pytest.mark.parametrize("backend", ["memory", "file"])
    def test_a_closed_database_refuses_loudly(self, backend, driver, tmp_path):
        """No write may be buffered where nothing will ever flush it."""
        if backend == "file":
            db = Database.open(tmp_path / "db", buffer_capacity=4)
        else:
            db = Database(driver, 4)
        page = db.allocate_page()
        page.write(0, b"kept")
        db.close()
        db.close()  # twice is fine
        for action, call in (
            ("get_page of page 0", lambda: db.page(0)),
            ("create_page of page 1", db.allocate_page),
            ("flush_page of page 0", lambda: db.pool.flush_page(0)),
            ("flush_all", db.flush),
        ):
            with pytest.raises(BufferError, match=f"^{action} on a closed buffer pool"):
                call()
        if backend == "file":
            with Database.open(tmp_path / "db") as reopened:
                assert reopened.page(0).data[:4] == b"kept"

    def test_unknown_policy_surfaces_configuration_error(self, driver):
        with pytest.raises(ConfigurationError):
            Database(driver, 8, buffer_policy="mru")


# ----------------------------------------------------------------------
# Policy base-class contract
# ----------------------------------------------------------------------
class TestPolicyContract:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            LruPolicy(0)

    def test_abstract_surface(self):
        policy = EvictionPolicy(4)
        for call in (
            lambda: policy.admit(0),
            lambda: policy.touch(0),
            lambda: policy.remove(0),
            lambda: policy.select_victim(lambda pid: True),
            lambda: policy.iter_pids(),
        ):
            with pytest.raises(NotImplementedError):
                call()

    def test_concurrent_hits_are_safe(self, driver):
        """Many threads hammering hits on one pool corrupt nothing."""
        pool = BufferManager(driver, 8)
        _load(driver, 8)
        for pid in range(8):
            pool.get_page(pid)
        errors = []

        def worker(seed):
            try:
                for i in range(300):
                    with pool.pinned((seed + i) % 8) as page:
                        page.read(0, 4)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert pool.stats.misses == 8  # the warm-up loads only
        assert pool.stats.hits == 6 * 300
        assert pool.pinned_count() == 0
