"""Unit tests for the sharded multi-chip driver and aggregate stats."""

import random

import pytest

from repro.core.pdl import PdlDriver
from repro.flash.backend import FaultInjector
from repro.flash.chip import FlashChip
from repro.flash.errors import WrongPageError
from repro.flash.spec import FlashSpec
from repro.flash.stats import WRITE_STEP
from repro.ftl.errors import ConfigurationError
from repro.ftl.opu import OpuDriver
from repro.config import EngineConfig
from repro.methods import make_method
from repro.sharding.driver import ShardedDriver
from repro.sharding.recovery import recover_all

SPEC = FlashSpec(n_blocks=8, pages_per_block=8, page_data_size=256, page_spare_size=16)
PAGE = SPEC.page_data_size


def _chips(n):
    return [FlashChip(SPEC) for _ in range(n)]


def _sharded(n, label="PDL (64B)", **kwargs):
    chips = _chips(n)
    return chips, make_method(f"{label} x{n}", chips, **kwargs)


class TestConstruction:
    def test_label_builds_sharded_driver(self):
        chips, driver = _sharded(3)
        assert isinstance(driver, ShardedDriver)
        assert driver.name == "PDL (64B) x3"
        assert driver.n_shards == 3
        assert driver.chips == chips
        assert driver.total_blocks == 3 * SPEC.n_blocks
        assert all(isinstance(s, PdlDriver) for s in driver.shards)

    def test_x1_still_builds_the_facade(self):
        _, driver = _sharded(1)
        assert isinstance(driver, ShardedDriver)
        assert driver.n_shards == 1

    def test_any_base_method_shards(self):
        _, driver = _sharded(2, label="OPU")
        assert all(isinstance(s, OpuDriver) for s in driver.shards)

    def test_kwargs_forwarded_per_shard(self):
        _, driver = _sharded(2, diff_unit=None)
        assert all(s.diff_unit is None for s in driver.shards)

    def test_single_chip_for_sharded_label_rejected(self):
        with pytest.raises(ConfigurationError):
            make_method("PDL (64B) x2", FlashChip(SPEC))

    def test_chip_count_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            make_method("PDL (64B) x3", _chips(2))

    def test_page_size_mismatch_rejected(self):
        other = FlashSpec(
            n_blocks=8, pages_per_block=8, page_data_size=512, page_spare_size=16
        )
        shards = [
            PdlDriver(FlashChip(SPEC), max_differential_size=64),
            PdlDriver(FlashChip(other), max_differential_size=64),
        ]
        with pytest.raises(ConfigurationError):
            ShardedDriver(shards)

    def test_one_driver_twice_rejected(self):
        """Two shards over one device would put two gates on it."""
        shard = PdlDriver(FlashChip(SPEC), max_differential_size=64)
        with pytest.raises(ConfigurationError, match="shards 0 and 1 share one flash chip"):
            ShardedDriver([shard, shard])

    def test_two_drivers_over_one_chip_rejected(self):
        chip = FlashChip(SPEC)
        shards = [
            PdlDriver(FlashChip(SPEC), max_differential_size=64),
            PdlDriver(chip, max_differential_size=64),
            OpuDriver(chip),
        ]
        with pytest.raises(ConfigurationError, match="shards 1 and 2 share one flash chip"):
            ShardedDriver(shards)

    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedDriver([])

    def test_label_parsing(self):
        assert EngineConfig.parse("PDL (256B) x4").n_shards == 4
        assert EngineConfig.parse("opu X2") == EngineConfig(method="OPU", n_shards=2)
        assert EngineConfig.parse("PDL (256B)").n_shards is None
        assert EngineConfig.parse("IPU").n_shards is None


class TestRoutingBehaviour:
    def test_pages_land_on_router_chosen_shard(self):
        chips, driver = _sharded(4)
        for pid in range(24):
            driver.load_page(pid, bytes([pid]) * PAGE)
        for pid in range(24):
            owner = driver.shard_index(pid)
            assert pid in driver.shards[owner].ppmt
            for i, shard in enumerate(driver.shards):
                if i != owner:
                    assert pid not in shard.ppmt

    def test_read_write_round_trip(self):
        _, driver = _sharded(3)
        rng = random.Random(11)
        images = {}
        for pid in range(18):
            images[pid] = rng.randbytes(PAGE)
            driver.load_page(pid, images[pid])
        for _ in range(150):
            pid = rng.randrange(18)
            image = bytearray(images[pid])
            offset = rng.randrange(PAGE - 8)
            image[offset : offset + 8] = rng.randbytes(8)
            images[pid] = bytes(image)
            driver.write_page(pid, images[pid])
        for pid, expected in images.items():
            assert driver.read_page(pid) == expected


class TestGroupFlush:
    def test_group_flush_drains_every_shard_buffer(self):
        _, driver = _sharded(3)
        for pid in range(12):
            driver.load_page(pid, bytes([pid]) * PAGE)
        for pid in range(12):
            image = bytearray(bytes([pid]) * PAGE)
            image[0:4] = b"beef"
            driver.write_page(pid, bytes(image))
        assert any(not s.buffer.is_empty for s in driver.shards)
        driver.group_flush()
        assert all(s.buffer.is_empty for s in driver.shards)
        assert driver.group_flushes == 1

    def test_flush_is_group_flush(self):
        _, driver = _sharded(2)
        driver.flush()
        assert driver.group_flushes == 1

    def test_flushed_state_survives_recovery(self):
        chips, driver = _sharded(2)
        rng = random.Random(5)
        images = {}
        for pid in range(10):
            images[pid] = rng.randbytes(PAGE)
            driver.load_page(pid, images[pid])
        for pid in range(10):
            image = bytearray(images[pid])
            image[10:16] = rng.randbytes(6)
            images[pid] = bytes(image)
            driver.write_page(pid, images[pid])
        driver.group_flush()
        recovered, reports = recover_all(chips, max_differential_size=64)
        assert len(reports) == 2
        for pid, expected in images.items():
            assert recovered.read_page(pid) == expected
        # recovered array keeps accepting traffic
        recovered.write_page(0, bytes(PAGE))
        assert recovered.read_page(0) == bytes(PAGE)

    def test_recover_all_validates_router(self):
        with pytest.raises(ConfigurationError):
            recover_all([])


class TestAggregateStats:
    def test_totals_sum_over_shards(self):
        chips, driver = _sharded(3)
        for pid in range(12):
            driver.load_page(pid, bytes([pid]) * PAGE)
        agg = driver.stats.totals()
        per_chip = [chip.stats.totals() for chip in chips]
        assert agg.writes == sum(c.writes for c in per_chip)
        assert agg.time_us == pytest.approx(sum(c.time_us for c in per_chip))

    def test_snapshot_delta_window(self):
        chips, driver = _sharded(2)
        for pid in range(8):
            driver.load_page(pid, bytes([pid]) * PAGE)
        snap = driver.stats.snapshot()
        image = bytearray(bytes([0]) * PAGE)
        image[0:4] = b"wxyz"
        driver.write_page(0, bytes(image))
        driver.group_flush()
        delta = driver.stats.delta_since(snap)
        assert delta.of_phase(WRITE_STEP).writes >= 1
        assert delta.totals().reads >= 1
        assert len(delta.block_erases) == 2 * SPEC.n_blocks

    def test_reset_clears_every_shard(self):
        chips, driver = _sharded(2)
        for pid in range(8):
            driver.load_page(pid, bytes([pid]) * PAGE)
        driver.stats.reset()
        assert driver.stats.totals().total_ops == 0
        assert all(chip.stats.totals().total_ops == 0 for chip in chips)

    def test_wear_report_shape(self):
        _, driver = _sharded(2)
        report = driver.wear_report()
        assert report["per_shard_erases"] == [0, 0]
        assert report["total_erases"] == 0
        assert report["max_block_erases"] == 0

    def test_chip_clocks_advance_independently(self):
        chips, driver = _sharded(2)
        pid = 0
        while driver.shard_index(pid) != 0:
            pid += 1
        driver.load_page(pid, bytes(PAGE))
        clocks = driver.chip_clocks()
        assert clocks[0] > 0.0
        assert clocks[1] == 0.0


class TestGcReport:
    def test_fresh_array_reports_zeros(self):
        _, driver = _sharded(2)
        report = driver.gc_report()
        assert len(report["per_shard"]) == 2
        assert report["total_collections"] == 0
        assert report["total_incremental_steps"] == 0
        assert report["write_stall_p99_us"] == 0.0
        assert all(entry["policy"] == "greedy" for entry in report["per_shard"])

    def test_report_aggregates_incremental_work(self):
        from repro.ftl.gc import GcConfig

        chips, driver = _sharded(
            2, gc=GcConfig(incremental_steps=2, hot_cold=True)
        )
        rng = random.Random(23)
        images = {pid: rng.randbytes(PAGE) for pid in range(12)}
        for pid, data in images.items():
            driver.load_page(pid, data)
        for _ in range(600):
            pid = rng.randrange(12)
            image = bytearray(images[pid])
            offset = rng.randrange(PAGE - 40)
            image[offset : offset + 40] = rng.randbytes(40)
            images[pid] = bytes(image)
            driver.write_page(pid, images[pid])
        report = driver.gc_report()
        assert report["total_collections"] > 0
        assert report["total_incremental_steps"] > 0
        assert report["total_pages_relocated"] == sum(
            shard.gc.pages_relocated for shard in driver.shards
        )
        # Stall samples pooled across shards: one per logical write.
        assert len(driver.stats.write_stall_us) == 600
        assert report["write_stall_p99_us"] >= 0.0
        for entry, shard in zip(report["per_shard"], driver.shards):
            assert entry["collections"] == shard.gc.collections
            assert entry["debt_blocks"] == shard.gc.gc_debt()

    def test_shards_without_collector_report_none(self):
        chips = _chips(1)
        from repro.ftl.ipu import IpuDriver

        driver = ShardedDriver([IpuDriver(chips[0])])
        report = driver.gc_report()
        assert report["per_shard"] == [None]
        assert report["total_collections"] == 0


class TestShardNamesItsFailures:
    """A shard's driver does not know its index, so the array names it: a
    checksum or wrong-page failure comes out of the façade as the same
    type, with the same ``addr``, prefixed ``shard i of N:`` and chained
    to the shard's own error."""

    @staticmethod
    def _misdirected():
        _, driver = _sharded(4)
        for pid in range(16):
            driver.load_page(pid, bytes([pid + 1]) * PAGE)
        pid = 3
        index = driver.shard_index(pid)
        shard = driver.shards[index]
        donor = next(q for q in range(16) if q != pid and driver.shard_index(q) == index)
        row, other = shard.ppmt.require(pid), shard.ppmt.require(donor)
        FaultInjector(shard.chip.backend).inject(
            "misdirected_write", row.base_addr, donor=other.base_addr
        )
        expected = (
            f"base page {row.base_addr} holds (pid {donor}, ts {other.base_ts}), "
            f"the mapping row expects (pid {pid}, ts {row.base_ts})"
        )
        return driver, pid, index, row.base_addr, expected

    def test_read_names_the_shard(self):
        driver, pid, index, addr, expected = self._misdirected()
        with pytest.raises(WrongPageError) as err:
            driver.read_page(pid)
        assert str(err.value) == f"shard {index} of 4: read of pid {pid}: {expected}"
        assert err.value.addr == addr
        cause = err.value.__cause__
        assert type(cause) is WrongPageError and str(cause) == f"read of pid {pid}: {expected}"
        assert driver.read_page(pid + 1) == bytes([pid + 2]) * PAGE

    def test_write_names_the_shard(self):
        driver, pid, index, addr, expected = self._misdirected()
        with pytest.raises(WrongPageError) as err:
            driver.write_page(pid, b"\x77" * PAGE)
        assert str(err.value) == f"shard {index} of 4: write of pid {pid}: {expected}"
        assert err.value.addr == addr
        assert isinstance(err.value.__cause__, WrongPageError)

    def test_batched_write_names_the_shard_and_still_writes_the_others(self):
        driver, pid, index, addr, expected = self._misdirected()
        other = next(q for q in range(16) if driver.shard_index(q) != index)
        with pytest.raises(WrongPageError) as err:
            driver.write_pages([(pid, b"\x77" * PAGE), (other, b"\x66" * PAGE)])
        assert str(err.value) == f"shard {index} of 4: write of pid {pid}: {expected}"
        assert err.value.addr == addr
        cause = err.value.__cause__
        assert type(cause) is WrongPageError and str(cause) == f"write of pid {pid}: {expected}"
        assert driver.read_page(other) == b"\x66" * PAGE
