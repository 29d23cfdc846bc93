"""Cell replay, oracle, and matrix tests for the scenario suite.

The tier-1 tests run a reduced grid, plus ``scripts/run_scenarios.py
--tiny`` once (the scenario-matrix-smoke job's grid) to hold the tracked
``bench_results/scenarios.json`` to what the script writes; the complete
default grid is exercised by the ``slow``-marked matrix test below.
"""

import dataclasses
import runpy
from pathlib import Path

import pytest

from repro.ftl.errors import ConfigurationError
from repro.scenarios.cells import Cell, CellResult, replay_cell
from repro.scenarios.matrix import (
    DEFAULT_CONFIGS,
    DEFAULT_SEED,
    TINY_CONFIGS,
    default_patterns,
    run_matrix,
    tiny_patterns,
)
from repro.scenarios.oracle import OracleDivergence, compare_cells
from repro.scenarios.stream import build_stream
from repro.workloads.patterns import make_pattern

N_PAGES = 32
N_OPS = 120

ROOT = Path(__file__).resolve().parent.parent.parent


def small_stream(pattern="zipf-0.9", seed=DEFAULT_SEED):
    return build_stream(
        make_pattern(pattern),
        n_pages=N_PAGES,
        n_ops=N_OPS,
        page_size=256,
        seed=seed,
    )


class TestEngineConfig:
    """A grid cell: a name, a backend and a ``repro.config.EngineConfig``."""

    def test_validation(self):
        # Every mistake is caught when the cell is made, not at replay.
        with pytest.raises(ConfigurationError):
            Cell.of("x", "OPU", backend="network")
        with pytest.raises(ConfigurationError):
            Cell.of("x", "OPU", buffer_capacity=-1)
        with pytest.raises(ConfigurationError):
            Cell.of("x", "OPU", writeback="background", buffer_capacity=4)
        with pytest.raises(ConfigurationError):
            Cell.of("x", "LSM (4KB)")
        with pytest.raises(ConfigurationError):
            Cell.of("x", "OPU", buffer_capacity=4, buffer_policy="mru")

    def test_describe_mentions_every_axis(self):
        config = Cell.of(
            "x", "PDL (256B)", backend="file", buffer_capacity=8, buffer_policy="2q"
        )
        text = config.describe()
        assert "PDL (256B)" in text and "file" in text
        assert "buffer=8/2q" in text

    def test_grids_have_unique_names(self):
        for grid in (DEFAULT_CONFIGS, TINY_CONFIGS):
            names = [c.name for c in grid]
            assert len(set(names)) == len(names)


class TestReplayCell:
    def test_cell_matches_expected_images(self):
        stream = small_stream()
        cell = replay_cell(Cell.of("pdl", "PDL (256B)"), stream)
        assert cell.n_reads == stream.n_reads
        assert cell.n_updates == stream.n_updates
        assert cell.check_ok is True
        assert cell.audit_ok, cell.audit_notes
        assert cell.device_writes > 0

    def test_state_hash_is_the_expected_images_hash(self):
        import hashlib

        stream = small_stream("sequential")
        cell = replay_cell(Cell.of("opu", "OPU"), stream)
        digest = hashlib.sha256()
        expected = stream.expected_images()
        for pid in range(stream.n_pages):
            digest.update(expected[pid])
        assert cell.state_hash == digest.hexdigest()

    def test_methods_without_checker_report_none(self):
        cell = replay_cell(Cell.of("ipu", "IPU"), small_stream())
        assert cell.check_ok is None

    def test_buffered_cell_replays_identically(self):
        stream = small_stream("ycsb-a")
        direct = replay_cell(Cell.of("d", "PDL (256B)"), stream)
        buffered = replay_cell(
            Cell.of("b", "PDL (256B)", buffer_capacity=8), stream
        )
        assert buffered.state_hash == direct.state_hash

    def test_file_backend_writes_under_workdir(self, tmp_path):
        cell = replay_cell(
            Cell.of("f", "PDL (256B)", backend="file"),
            small_stream(),
            workdir=tmp_path,
        )
        assert cell.audit_ok
        assert list(tmp_path.glob("*.flash"))


class TestOracle:
    def _cell(self, **overrides):
        base = CellResult(
            scenario="s",
            config="a",
            state_hash="abc123" * 8,
            n_reads=10,
            n_updates=20,
            device_reads=30,
            device_writes=25,
            device_erases=2,
            io_time_us=1000.0,
            check_ok=True,
        )
        return dataclasses.replace(base, **overrides)

    def test_identical_cells_are_equivalent(self):
        verdict = compare_cells([self._cell(), self._cell(config="b")])
        assert verdict.equivalent
        verdict.raise_if_diverged()  # must not raise

    def test_device_counters_may_differ(self):
        verdict = compare_cells(
            [self._cell(), self._cell(config="b", device_writes=999, io_time_us=5.0)]
        )
        assert verdict.equivalent

    def test_state_hash_divergence_detected(self):
        verdict = compare_cells(
            [self._cell(), self._cell(config="b", state_hash="f" * 48)]
        )
        assert not verdict.equivalent
        with pytest.raises(OracleDivergence, match="state hash"):
            verdict.raise_if_diverged()

    def test_traffic_divergence_detected(self):
        verdict = compare_cells([self._cell(), self._cell(config="b", n_updates=19)])
        assert not verdict.equivalent
        assert any("logical traffic" in f for f in verdict.failures)

    def test_failed_check_flags_cell(self):
        verdict = compare_cells(
            [self._cell(check_ok=False, check_violations=["bad table"])]
        )
        assert not verdict.equivalent
        assert any("consistency check" in f for f in verdict.failures)

    def test_none_check_is_vacuously_clean(self):
        assert compare_cells([self._cell(check_ok=None)]).equivalent

    def test_failed_audit_flags_cell(self):
        verdict = compare_cells(
            [self._cell(audit_ok=False, audit_notes=["erase split"])]
        )
        assert not verdict.equivalent

    def test_mixed_scenarios_rejected(self):
        with pytest.raises(ValueError):
            compare_cells([self._cell(), self._cell(scenario="other")])
        with pytest.raises(ValueError):
            compare_cells([])


class TestMatrix:
    def test_small_matrix_is_equivalent(self):
        patterns = [make_pattern("sequential"), make_pattern("ycsb-a")]
        configs = [
            Cell.of("pdl", "PDL (256B)"),
            Cell.of("opu", "OPU"),
            Cell.of("pdl-x2", "PDL (256B) x2"),
        ]
        result = run_matrix(patterns, configs, n_pages=N_PAGES, n_ops=N_OPS)
        assert result.equivalent, result.divergences
        assert len(result.cells) == len(patterns) * len(configs)
        result.raise_if_diverged()
        data = result.table.to_dict()
        assert len(data["rows"]) == len(result.cells)

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            run_matrix([], [Cell.of("a", "OPU")])
        with pytest.raises(ValueError):
            run_matrix([make_pattern("sequential")], [])
        with pytest.raises(ValueError, match="duplicate"):
            run_matrix(
                [make_pattern("sequential")],
                [Cell.of("a", "OPU"), Cell.of("a", "IPU")],
            )

    def test_pattern_set_helpers_include_trace(self, tmp_path):
        from repro.workloads.patterns import ZipfPattern, record_pattern

        path = record_pattern(ZipfPattern(0.9), 16, 40, seed=3).save(
            tmp_path / "t.trace"
        )
        assert len(default_patterns(path)) == len(default_patterns()) + 1
        assert len(tiny_patterns(path)) == len(tiny_patterns()) + 1

    def test_tracked_results_are_the_tiny_grid_byte_for_byte(self, tmp_path):
        """The one result file the repository tracks holds only cells
        every run repeats: regenerating it must be a no-op."""
        main = runpy.run_path(str(ROOT / "scripts" / "run_scenarios.py"))["main"]
        assert main(["--tiny", "--out", str(tmp_path)]) == 0
        tracked = ROOT / "bench_results" / "scenarios.json"
        assert (tmp_path / "scenarios.json").read_bytes() == tracked.read_bytes()


@pytest.mark.slow
class TestFullMatrix:
    """The complete default grid — the CI slow tier's oracle sweep."""

    def test_default_grid_is_equivalent(self):
        result = run_matrix(
            default_patterns(),
            DEFAULT_CONFIGS,
            n_pages=96,
            n_ops=600,
        )
        assert result.equivalent, result.divergences
        assert len(result.verdicts) == len(default_patterns())

    def test_every_registered_pattern_is_equivalent_on_the_tiny_grid(self):
        from repro.workloads.patterns import default_pattern_set

        result = run_matrix(
            default_pattern_set(), TINY_CONFIGS, n_pages=48, n_ops=240
        )
        assert result.equivalent, result.divergences
