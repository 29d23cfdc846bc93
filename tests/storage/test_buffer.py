"""Unit tests for the LRU buffer pool."""

import pytest

from repro.core.pdl import PdlDriver
from repro.flash.chip import FlashChip
from repro.ftl.ipl import IplDriver
from repro.storage.bufferpool import BufferError, BufferManager


@pytest.fixture
def driver(chip):
    return PdlDriver(chip, max_differential_size=64)


@pytest.fixture
def pool(driver):
    return BufferManager(driver, capacity=4)


def _load(driver, n):
    for pid in range(n):
        driver.load_page(pid, bytes([pid]) * driver.page_size)


class TestHitsAndMisses:
    def test_miss_then_hit(self, pool, driver):
        _load(driver, 2)
        pool.get_page(0)
        pool.get_page(0)
        assert pool.stats.misses == 1
        assert pool.stats.hits == 1
        assert pool.stats.hit_ratio == 0.5

    def test_miss_reads_flash(self, pool, driver, chip):
        _load(driver, 1)
        snap = chip.stats.snapshot()
        pool.get_page(0)
        assert chip.stats.delta_since(snap).totals().reads >= 1
        snap = chip.stats.snapshot()
        pool.get_page(0)  # hit: no flash traffic
        assert chip.stats.delta_since(snap).totals().reads == 0


class TestEviction:
    def test_lru_order(self, pool, driver):
        _load(driver, 6)
        for pid in range(4):
            pool.get_page(pid)
        pool.get_page(0)  # refresh 0
        pool.get_page(4)  # evicts 1 (least recently used)
        assert 1 not in pool
        assert 0 in pool

    def test_dirty_eviction_writes_back(self, pool, driver, chip):
        _load(driver, 6)
        page = pool.get_page(0)
        page.write(0, b"\xEE")
        for pid in range(1, 5):
            pool.get_page(pid)  # evicts 0
        assert pool.stats.dirty_evictions == 1
        assert driver.read_page(0)[0] == 0xEE

    def test_clean_eviction_is_silent(self, pool, driver, chip):
        _load(driver, 6)
        pool.get_page(0)
        snap = chip.stats.snapshot()
        for pid in range(1, 5):
            pool.get_page(pid)
        assert chip.stats.delta_since(snap).totals().writes == 0

    def test_pinned_pages_survive(self, pool, driver):
        _load(driver, 6)
        with pool.get_page(0).pinned():
            for pid in range(1, 5):
                pool.get_page(pid)
            assert 0 in pool

    def test_all_pinned_raises(self, driver):
        pool = BufferManager(driver, capacity=2)
        _load(driver, 3)
        with pool.pinned(0), pool.pinned(1):
            with pytest.raises(BufferError):
                pool.get_page(2)


class TestCreateAndFlush:
    def test_create_page_is_dirty(self, pool, driver):
        page = pool.create_page(0, bytes(driver.page_size))
        assert page.dirty

    def test_create_duplicate_fails(self, pool, driver):
        pool.create_page(0, bytes(driver.page_size))
        with pytest.raises(BufferError):
            pool.create_page(0, bytes(driver.page_size))

    def test_flush_all_persists_everything(self, pool, driver):
        _load(driver, 3)
        for pid in range(3):
            pool.get_page(pid).write(0, bytes([0xA0 + pid]))
        pool.flush_all()
        for pid in range(3):
            assert driver.read_page(pid)[0] == 0xA0 + pid

    def test_flush_clears_dirty_state(self, pool, driver):
        _load(driver, 1)
        page = pool.get_page(0)
        page.write(0, b"\x01")
        pool.flush_page(0)
        assert not page.dirty
        assert page.change_log == []


class TestCoupling:
    def test_update_logs_reach_tightly_coupled_driver(self, tiny_spec):
        chip = FlashChip(tiny_spec)
        ipl = IplDriver(chip, log_region_bytes=512)
        pool = BufferManager(ipl, capacity=2)
        ipl.load_page(0, bytes(ipl.page_size))
        page = pool.get_page(0)
        page.write(7, b"\x42")
        pool.flush_page(0)
        # IPL stored the change as an update log, not a page write
        assert ipl.read_page(0)[7] == 0x42
        assert ipl._groups[0].log_fill == 1

    def test_loosely_coupled_driver_gets_no_logs(self, pool, driver, monkeypatch):
        _load(driver, 1)
        seen = {}

        original = driver.write_page

        def spy(pid, data, update_logs=None):
            seen["logs"] = update_logs
            return original(pid, data, update_logs=update_logs)

        monkeypatch.setattr(driver, "write_page", spy)
        page = pool.get_page(0)
        page.write(0, b"\x01")
        pool.flush_page(0)
        assert seen["logs"] is None
