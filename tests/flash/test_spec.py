"""Unit tests for FlashSpec geometry, validation, and presets."""

import pytest

from repro.flash.spec import (
    BENCH_SPEC,
    BENCH_SPEC_8K,
    SAMSUNG_K9L8G08U0M,
    TINY_SPEC,
    FlashSpec,
    spec_for_database,
)


class TestTable1Values:
    """The default spec must match the paper's Table 1 exactly."""

    def test_block_count(self):
        assert SAMSUNG_K9L8G08U0M.n_blocks == 32768

    def test_pages_per_block(self):
        assert SAMSUNG_K9L8G08U0M.pages_per_block == 64

    def test_page_size(self):
        assert SAMSUNG_K9L8G08U0M.page_size == 2112

    def test_data_area(self):
        assert SAMSUNG_K9L8G08U0M.page_data_size == 2048

    def test_spare_area(self):
        assert SAMSUNG_K9L8G08U0M.page_spare_size == 64

    def test_block_size(self):
        assert SAMSUNG_K9L8G08U0M.block_size == 135_168

    def test_timings(self):
        assert SAMSUNG_K9L8G08U0M.t_read_us == 110.0
        assert SAMSUNG_K9L8G08U0M.t_write_us == 1010.0
        assert SAMSUNG_K9L8G08U0M.t_erase_us == 1500.0

    def test_read_write_ratio_matches_paper(self):
        """The paper: read is 9.2x faster than write."""
        ratio = SAMSUNG_K9L8G08U0M.t_write_us / SAMSUNG_K9L8G08U0M.t_read_us
        assert ratio == pytest.approx(9.18, abs=0.01)

    def test_endurance(self):
        assert SAMSUNG_K9L8G08U0M.erase_endurance == 100_000


class TestDerivedGeometry:
    def test_n_pages(self, tiny_spec):
        assert tiny_spec.n_pages == 16 * 8

    def test_data_capacity(self, tiny_spec):
        assert tiny_spec.data_capacity == 16 * 8 * 256

    def test_block_data_size(self, tiny_spec):
        assert tiny_spec.block_data_size == 8 * 256

    def test_8k_preset_page(self):
        assert BENCH_SPEC_8K.page_data_size == 8192

    def test_bench_preset_shares_geometry(self):
        assert BENCH_SPEC.pages_per_block == SAMSUNG_K9L8G08U0M.pages_per_block
        assert BENCH_SPEC.page_data_size == SAMSUNG_K9L8G08U0M.page_data_size


class TestValidation:
    def test_rejects_zero_blocks(self):
        with pytest.raises(ValueError):
            FlashSpec(n_blocks=0)

    def test_rejects_zero_pages(self):
        with pytest.raises(ValueError):
            FlashSpec(pages_per_block=0)

    def test_rejects_tiny_spare(self):
        with pytest.raises(ValueError):
            FlashSpec(page_spare_size=8)

    @pytest.mark.parametrize("budget", ["max_spare_programs", "max_log_page_programs"])
    @pytest.mark.parametrize("value", [0, 256, 300])
    def test_rejects_a_program_budget_a_u8_counter_cannot_hold(self, budget, value):
        with pytest.raises(ValueError, match=f"{budget} must be in 1..255: .*u8 counter"):
            FlashSpec(**{budget: value})

    def test_accepts_program_budgets_up_to_255(self):
        spec = FlashSpec(max_spare_programs=255, max_log_page_programs=255)
        assert (spec.max_spare_programs, spec.max_log_page_programs) == (255, 255)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            FlashSpec(t_read_us=-1.0)


class TestModifiers:
    def test_with_timings_replaces_selected(self):
        spec = SAMSUNG_K9L8G08U0M.with_timings(t_read_us=10.0)
        assert spec.t_read_us == 10.0
        assert spec.t_write_us == 1010.0

    def test_with_timings_keeps_original(self):
        SAMSUNG_K9L8G08U0M.with_timings(t_read_us=10.0)
        assert SAMSUNG_K9L8G08U0M.t_read_us == 110.0

    def test_scaled_changes_only_blocks(self):
        spec = SAMSUNG_K9L8G08U0M.scaled(100)
        assert spec.n_blocks == 100
        assert spec.page_data_size == 2048

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SAMSUNG_K9L8G08U0M.n_blocks = 1  # type: ignore[misc]


class TestSpecForDatabase:
    def test_utilization_honoured(self):
        spec = spec_for_database(1024, utilization=0.25)
        assert spec.n_pages >= 4096

    def test_has_headroom_at_full_utilization(self):
        spec = spec_for_database(640, utilization=1.0)
        assert spec.n_pages >= 640 + 2 * spec.pages_per_block

    def test_rejects_bad_utilization(self):
        with pytest.raises(ValueError):
            spec_for_database(100, utilization=0.0)

    def test_rejects_bad_pages(self):
        with pytest.raises(ValueError):
            spec_for_database(0)

    def test_preserves_base_geometry(self):
        spec = spec_for_database(100, base=TINY_SPEC)
        assert spec.page_data_size == TINY_SPEC.page_data_size
        assert spec.pages_per_block == TINY_SPEC.pages_per_block
