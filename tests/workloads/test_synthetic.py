"""Unit tests for the synthetic update-operation workload."""

import pytest

from repro.flash.chip import FlashChip
from repro.methods import make_method
from repro.workloads.synthetic import (
    SyntheticConfig,
    SyntheticWorkload,
    VerificationError,
)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticConfig(database_pages=0)
        with pytest.raises(ValueError):
            SyntheticConfig(database_pages=1, pct_changed=0.0)
        with pytest.raises(ValueError):
            SyntheticConfig(database_pages=1, pct_changed=101.0)
        with pytest.raises(ValueError):
            SyntheticConfig(database_pages=1, n_updates_till_write=0)

    def test_change_size_from_pct(self, tiny_spec):
        chip = FlashChip(tiny_spec)
        driver = make_method("OPU", chip)
        wl = SyntheticWorkload(
            driver, SyntheticConfig(database_pages=4, pct_changed=2.0)
        )
        assert wl.change_size == round(tiny_spec.page_data_size * 0.02)

    def test_change_size_minimum_one(self, tiny_spec):
        chip = FlashChip(tiny_spec)
        driver = make_method("OPU", chip)
        wl = SyntheticWorkload(
            driver, SyntheticConfig(database_pages=4, pct_changed=0.1)
        )
        assert wl.change_size >= 1


class TestOperations:
    def test_load_populates_all_pages(self, workload):
        for pid in range(12):
            assert workload.driver.read_page(pid) == workload.shadow[pid]

    def test_update_cycle_changes_shadow(self, workload):
        before = workload.shadow[0]
        workload.update_cycle(0)
        assert workload.shadow[0] != before
        assert workload.driver.read_page(0) == workload.shadow[0]

    def test_update_cycle_n_updates_override(self, workload):
        workload.update_cycle(0, n_updates=5)
        assert workload.update_cycles == 1

    def test_read_only_op(self, workload):
        data = workload.read_only_op(3)
        assert data == workload.shadow[3]
        assert workload.read_ops == 1

    def test_run_mix_counts(self, workload):
        workload.run_mix(50, pct_update=40.0)
        assert workload.update_cycles + workload.read_ops == 50
        assert workload.update_cycles > 0
        assert workload.read_ops > 0

    def test_mix_extremes(self, workload):
        workload.run_mix(10, pct_update=0.0)
        assert workload.update_cycles == 0
        workload.run_mix(10, pct_update=100.0)
        assert workload.update_cycles == 10

    def test_mix_validation(self, workload):
        with pytest.raises(ValueError):
            workload.run_mix(1, pct_update=150.0)

    def test_verify_all(self, workload):
        workload.run_updates(30)
        workload.verify_all()  # must not raise

    def test_verification_catches_corruption(self, workload):
        workload.update_cycle(0)
        workload._shadow[0] = b"\x00" * len(workload.shadow[0])
        with pytest.raises(VerificationError):
            workload.read_only_op(0)

    def test_determinism(self, tiny_spec):
        def run():
            chip = FlashChip(tiny_spec)
            wl = SyntheticWorkload(
                make_method("PDL (64B)", chip),
                SyntheticConfig(database_pages=8, seed=5),
            )
            wl.load()
            wl.run_updates(40)
            return chip.stats.total_time_us, [bytes(s) for s in wl.shadow]

        assert run() == run()

