"""Unit tests for the measurement runner and steady-state warm-up."""

import pytest

from repro.flash.spec import TINY_SPEC
from repro.sharding.driver import ShardedDriver
from repro.workloads.runner import (
    MethodMeasurement,
    aging_horizon,
    build_workload,
    measure_updates,
    warm_to_steady_state,
)


class TestAgingHorizon:
    def test_pdl_horizon_grows_with_max_diff(self, small_runner):
        wl_small = build_workload("PDL (64B)", small_runner, 2.0, 1)
        wl_big = build_workload("PDL (256B)", small_runner, 2.0, 1)
        h_small = aging_horizon(wl_small.driver, wl_small.change_size)
        h_big = aging_horizon(wl_big.driver, wl_big.change_size)
        assert h_big > h_small >= 1

    def test_non_pdl_horizon_is_one(self, small_runner):
        wl = build_workload("OPU", small_runner, 2.0, 1)
        assert aging_horizon(wl.driver, wl.change_size) == 1

    def test_large_changes_cap_horizon(self, small_runner):
        wl = build_workload("PDL (256B)", small_runner, 100.0, 1)
        assert aging_horizon(wl.driver, wl.change_size) == 1


class TestWarmup:
    def test_warmup_reaches_gc_activity(self, small_runner):
        wl = build_workload("OPU", small_runner, 2.0, 1)
        warm_to_steady_state(wl, small_runner)
        assert wl.driver.stats.total_erases >= TINY_SPEC.n_blocks // 2

    def test_warmup_preserves_data(self, small_runner):
        wl = build_workload("PDL (64B)", small_runner, 2.0, 1)
        warm_to_steady_state(wl, small_runner)
        wl.verify_all()

    def test_ipu_warmup_is_short(self, small_runner):
        wl = build_workload("IPU", small_runner, 2.0, 1)
        ops = warm_to_steady_state(wl, small_runner)
        assert ops == small_runner.database_pages  # aging pass only


class TestMeasurement:
    def test_measure_updates_shape(self, small_runner):
        m = measure_updates("OPU", small_runner, pct_changed=2.0)
        assert isinstance(m, MethodMeasurement)
        assert m.n_ops == small_runner.measure_ops
        assert m.read_us > 0
        assert m.write_us > 0
        assert m.overall_us == pytest.approx(m.read_us + m.write_us + m.gc_us)

    def test_opu_exact_costs(self, small_runner):
        """OPU's per-op cost is deterministic: 1 read + 2 writes (+GC)."""
        m = measure_updates("OPU", small_runner, pct_changed=2.0)
        assert m.read_us == pytest.approx(TINY_SPEC.t_read_us)
        assert m.write_us == pytest.approx(2 * TINY_SPEC.t_write_us)

    def test_as_dict_roundtrip(self, small_runner):
        m = measure_updates("IPU", small_runner, pct_changed=2.0)
        d = m.as_dict()
        assert d["label"] == "IPU"
        assert d["overall_us"] == pytest.approx(m.overall_us)

    def test_spec_scaling(self, small_runner):
        spec = small_runner.spec()
        assert spec.n_pages >= small_runner.database_pages / small_runner.utilization


class TestWallClockMeasurement:
    """An old ``par`` label still builds, as the one gated array."""

    def test_par_workload_builds_parallel_driver(self, small_runner):
        wl = build_workload("PDL (64B) x2 par", small_runner, 2.0, 1)
        assert type(wl.driver) is ShardedDriver and wl.driver.name == "PDL (64B) x2"
