"""Unit tests for phase accounting and snapshots."""

import pickle
import random

import pytest

from repro.flash.stats import (
    COUNTERS,
    GC,
    READ_STEP,
    WRITE_STEP,
    AggregateStats,
    FlashStats,
    OpCounts,
)


@pytest.fixture
def stats() -> FlashStats:
    return FlashStats(n_blocks=4, t_read_us=10.0, t_write_us=100.0, t_erase_us=1000.0)


class TestPhases:
    def test_default_phase(self, stats):
        stats.record_read()
        assert stats.of_phase("unattributed").reads == 1

    def test_named_phase(self, stats):
        with stats.phase(READ_STEP):
            stats.record_read()
        assert stats.of_phase(READ_STEP).reads == 1
        assert stats.of_phase(WRITE_STEP).reads == 0

    def test_nested_phase_charges_innermost(self, stats):
        with stats.phase(WRITE_STEP):
            stats.record_write()
            with stats.phase(GC):
                stats.record_erase(0)
            stats.record_write()
        assert stats.of_phase(WRITE_STEP).writes == 2
        assert stats.of_phase(GC).erases == 1
        assert stats.of_phase(WRITE_STEP).erases == 0

    def test_phase_restored_after_exception(self, stats):
        with pytest.raises(RuntimeError):
            with stats.phase(GC):
                raise RuntimeError()
        assert stats.current_phase == "unattributed"


class TestTimeAccounting:
    def test_time_per_op(self, stats):
        stats.record_read()
        stats.record_write()
        stats.record_erase(1)
        assert stats.total_time_us == 10.0 + 100.0 + 1000.0

    def test_per_block_wear(self, stats):
        stats.record_erase(2)
        stats.record_erase(2)
        stats.record_erase(3)
        assert stats.block_erases == [0, 0, 2, 1]
        assert stats.total_erases == 3


class TestSnapshots:
    def test_delta_isolates_window(self, stats):
        with stats.phase(WRITE_STEP):
            stats.record_write()
        snap = stats.snapshot()
        with stats.phase(WRITE_STEP):
            stats.record_write()
            stats.record_write()
        delta = stats.delta_since(snap)
        assert delta.of_phase(WRITE_STEP).writes == 2
        assert stats.of_phase(WRITE_STEP).writes == 3

    def test_delta_block_erases(self, stats):
        stats.record_erase(0)
        snap = stats.snapshot()
        stats.record_erase(0)
        stats.record_erase(1)
        delta = stats.delta_since(snap)
        assert delta.block_erases == [1, 1, 0, 0]
        assert delta.max_block_erases() == 1

    def test_snapshot_is_frozen(self, stats):
        snap = stats.snapshot()
        stats.record_read()
        assert snap.totals().reads == 0

    def test_time_of_sums_phases(self, stats):
        with stats.phase(WRITE_STEP):
            stats.record_write()
        with stats.phase(GC):
            stats.record_erase(0)
        snap = stats.snapshot()
        assert snap.time_of(WRITE_STEP, GC) == 100.0 + 1000.0

    def test_reset(self, stats):
        stats.record_read()
        stats.record_erase(0)
        stats.reset()
        assert stats.total_time_us == 0
        assert stats.block_erases == [0, 0, 0, 0]


class TestOpCounts:
    def test_add_sub(self):
        a = OpCounts(reads=2, writes=1, erases=0, time_us=30.0)
        b = OpCounts(reads=1, writes=1, erases=1, time_us=20.0)
        assert a.add(b).reads == 3
        assert a.add(b).time_us == 50.0
        assert a.sub(b).reads == 1
        assert a.sub(b).time_us == 10.0

    def test_total_ops(self):
        assert OpCounts(reads=1, writes=2, erases=3).total_ops == 6

    def test_copy_is_independent(self):
        a = OpCounts(reads=1)
        b = a.copy()
        b.reads = 9
        assert a.reads == 1


class TestWriteStalls:
    def test_percentile_nearest_rank(self, stats):
        for us in (0.0, 0.0, 0.0, 100.0, 1000.0):
            stats.record_write_stall(us)
        assert stats.write_stall_percentile(50) == 0.0
        assert stats.write_stall_percentile(80) == 100.0
        assert stats.write_stall_percentile(99) == 1000.0
        assert stats.write_stall_percentile(100) == 1000.0
        assert stats.max_write_stall_us == 1000.0

    def test_empty_and_invalid_percentiles(self, stats):
        assert stats.write_stall_percentile(99) == 0.0
        with pytest.raises(ValueError):
            stats.write_stall_percentile(150)
        stats.record_write_stall(5.0)
        with pytest.raises(ValueError):
            stats.write_stall_percentile(0)
        with pytest.raises(ValueError):
            stats.write_stall_percentile(101)

    def test_gc_step_counters_and_reset(self, stats):
        stats.record_gc_step(3)
        stats.record_gc_step(0)
        stats.record_write_stall(7.0)
        assert stats.gc_steps == 2
        assert stats.gc_step_pages == 3
        stats.reset()
        assert stats.gc_steps == 0
        assert stats.gc_step_pages == 0
        assert list(stats.write_stall_us) == []


class TestPhasePartition:
    """Regression (GC phase accounting audit): every device operation of
    a GC-heavy PDL workload is charged to exactly one phase — the
    per-phase totals must equal independently counted raw device ops,
    and write_step + gc + load must partition the mutating traffic."""

    def test_phase_totals_equal_raw_device_ops(self):
        import random

        from repro.core.pdl import PdlDriver
        from repro.flash.chip import FlashChip
        from repro.flash.spec import FlashSpec
        from repro.ftl.gc import GcConfig

        spec = FlashSpec(
            n_blocks=12, pages_per_block=8, page_data_size=256, page_spare_size=16
        )
        chip = FlashChip(spec)
        raw = {"reads": 0, "writes": 0, "erases": 0}

        def count_mutating(op):
            raw["erases" if op == "erase_block" else "writes"] += 1

        chip.on_operation(count_mutating)
        # Reads have no observer hook; wrap the chip's read entry points.
        for name, weight in (
            ("read_page", lambda a: 1),
            ("read_spare", lambda a: 1),
            ("read_pages", len),
            ("read_spares", len),
        ):
            original = getattr(chip, name)

            def wrapped(arg, _original=original, _weight=weight):
                raw["reads"] += _weight(arg)
                return _original(arg)

            setattr(chip, name, wrapped)

        driver = PdlDriver(
            chip,
            max_differential_size=64,
            gc_config=GcConfig(incremental_steps=2, hot_cold=True),
        )
        rng = random.Random(5)
        images = {pid: rng.randbytes(256) for pid in range(10)}
        for pid, data in images.items():
            driver.load_page(pid, data)
        for i in range(400):
            pid = rng.randrange(10)
            image = bytearray(images[pid])
            offset = rng.randrange(200)
            image[offset : offset + 40] = rng.randbytes(40)
            images[pid] = bytes(image)
            driver.write_page(pid, images[pid])
            if i % 16 == 15:
                driver.flush()
            if i % 32 == 31:
                driver.read_page(rng.randrange(10))

        assert driver.gc.collections > 0, "workload never exercised GC"
        assert chip.stats.gc_steps > 0, "workload never stepped incrementally"
        totals = chip.stats.totals()
        assert totals.reads == raw["reads"]
        assert totals.writes == raw["writes"]
        assert totals.erases == raw["erases"]
        # The write path is partitioned between write_step and gc, with
        # nothing falling into the default (unattributed) phase.
        assert set(chip.stats.phases) <= {"load", WRITE_STEP, READ_STEP, GC}
        assert chip.stats.of_phase(GC).erases == totals.erases
        by_phase = sum(counts.total_ops for counts in chip.stats.phases.values())
        assert by_phase == totals.total_ops


def test_flash_stats_round_trip_preserves_counters():
    # copy.deepcopy(chip) goes through __getstate__/__setstate__ too.
    stats = FlashStats(n_blocks=8, t_read_us=25.0, t_write_us=200.0, t_erase_us=1500.0)
    stats.record_read()
    stats.record_write()
    stats.record_erase(0)
    clone = pickle.loads(pickle.dumps(stats))
    assert clone.totals() == stats.totals()
    assert clone.phases == stats.phases
    assert clone.block_erases == stats.block_erases


class TestCounters:
    """``COUNTERS`` is the one list of scalar counters: reset, the merged
    view and report all walk it, so a counter missing from it would be
    silently left out of all three."""

    @staticmethod
    def _busy(seed):
        stats = FlashStats(n_blocks=4, t_read_us=10.0, t_write_us=100.0, t_erase_us=1000.0)
        for offset, name in enumerate(COUNTERS):
            setattr(stats, name, seed * 10 + offset)
        with stats.phase(WRITE_STEP):
            for _ in range(seed):
                stats.record_write()
        with stats.phase(GC):
            stats.record_erase(seed % 4)
        stats.record_read()
        for us in range(seed):
            stats.record_write_stall(float(us * seed))
        return stats

    def test_counters_are_exactly_the_scalar_counters_of_a_collector(self, stats):
        scalars = {
            name
            for name, value in vars(stats).items()
            if isinstance(value, int) and not name.startswith("_")
        }
        assert set(COUNTERS) == scalars
        assert len(COUNTERS) == len(scalars)

    def test_reset_zeroes_every_counter(self):
        stats = self._busy(3)
        assert all(getattr(stats, name) for name in COUNTERS)
        stats.reset()
        assert {name: getattr(stats, name) for name in COUNTERS} == dict.fromkeys(
            COUNTERS, 0
        )

    def test_merged_counters_are_the_sums_of_the_parts(self):
        parts = [self._busy(seed) for seed in (1, 2, 5)]
        merged = AggregateStats(parts)
        for name in COUNTERS:
            assert getattr(merged, name) == sum(getattr(part, name) for part in parts)
        assert merged.totals() == OpCounts(reads=3, writes=8, erases=3, time_us=3830.0)
        assert merged.block_erases == [n for part in parts for n in part.block_erases]
        assert sorted(merged.write_stall_us) == sorted(
            us for part in parts for us in part.write_stall_us
        )
        assert merged.max_write_stall_us == 20.0
        assert not hasattr(merged, "not_a_counter")

    def test_merged_view_over_one_collector_reports_like_it(self):
        stats = self._busy(4)
        assert AggregateStats([stats]).report() == stats.report()

    def test_sharded_database_report_sums_its_chips(self):
        from repro.flash.chip import FlashChip
        from repro.flash.spec import TINY_SPEC
        from repro.ftl.gc import GcConfig
        from repro.methods import make_method
        from repro.storage.db import Database

        chips = [FlashChip(TINY_SPEC) for _ in range(3)]
        driver = make_method(
            "PDL (128B) x3",
            chips,
            gc=GcConfig(incremental_steps=2),
            mapping_cache=8,
            snapshot_interval=24,
        )
        db = Database.resume(driver, buffer_capacity=4, allocated_pages=0)
        rng = random.Random(11)
        pids = [db.allocate_page().pid for _ in range(18)]
        for _ in range(400):
            db.page(rng.choice(pids)).write(rng.randrange(200), rng.randbytes(40))
        db.flush()
        report = db.report()
        per_chip = [chip.stats.report() for chip in chips]
        assert report["n_shards"] == 3
        for key in ("reads", "writes", "erases", "io_time_us", *COUNTERS):
            assert report[key] == sum(part[key] for part in per_chip), key
        assert report["write_stall_max_us"] == max(
            part["write_stall_max_us"] for part in per_chip
        )
        assert report["gc_steps"] > 0 and report["mapping_misses"] > 0
        assert report["checksum_checks"] > 0
        db.close()
