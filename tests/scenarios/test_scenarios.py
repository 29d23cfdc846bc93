"""Cell replay, the equivalence grid and its oracle.

The grid is the ``equivalence`` entry of ``FIGURES``; its ``check`` is
the differential-equivalence oracle.  The tier-1 tests run a reduced
grid, plus ``python -m repro.bench equivalence --scale smoke`` once (the
scenario-matrix-smoke job's run) to hold the tracked reference
``tests/scenarios/scenarios.json`` to what it writes; the ``small``
grid and every registered pattern run in the ``slow`` tier below.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench.__main__ import main
from repro.bench.figures import FIGURES, SCALES, TRACE, Grid, run
from repro.bench.reporting import ResultTable
from repro.ftl.errors import ConfigurationError
from repro.scenarios.cells import Cell, replay_cell
from repro.scenarios.stream import build_stream
from repro.workloads.patterns import make_pattern, pattern_names

N_PAGES = 32
N_OPS = 120
SEED = 20100121

EQUIVALENCE = FIGURES["equivalence"]


def small_stream(pattern="zipf-0.9", seed=SEED):
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

    def test_grids_have_unique_names(self):
        for scale in SCALES.values():
            names = [c.name for c in scale.grid.cells]
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


def _row(scenario="s", config="a", **fields):
    """One table row of the equivalence figure, as a replay would fill it."""
    row = dict(
        scenario=scenario, config=config, reads=10, updates=20, dev_reads=30,
        dev_writes=25, erases=2, io_time_ms=1.0, check="ok", state_hash="abc123abc123",
    )
    row.update(fields)
    return [row[column] for column in EQUIVALENCE.columns]


def _table(*rows):
    table = ResultTable("scenarios", "t", EQUIVALENCE.columns)
    for row in rows:
        table.add_row(*row)
    return table


class TestOracle:
    """The equivalence figure's ``check`` over hand-made table rows."""

    def test_identical_cells_are_equivalent(self):
        EQUIVALENCE.check(_table(_row(), _row(config="b")))  # must not raise

    def test_device_counters_may_differ(self):
        EQUIVALENCE.check(
            _table(_row(), _row(config="b", dev_writes=999, io_time_ms=0.005))
        )

    def test_state_hash_divergence_detected(self):
        with pytest.raises(AssertionError, match="scenario 's', config 'b': state"):
            EQUIVALENCE.check(_table(_row(), _row(config="b", state_hash="f" * 12)))

    def test_traffic_divergence_detected(self):
        with pytest.raises(AssertionError, match="config 'b': 10r/19u != 10r/20u of 'a'"):
            EQUIVALENCE.check(_table(_row(), _row(config="b", updates=19)))

    def test_failed_check_flags_cell(self):
        with pytest.raises(AssertionError, match="config 'b': check_driver"):
            EQUIVALENCE.check(_table(_row(), _row(config="b", check="FAIL")))
        # A failing replay carries its first violation into the message.
        with pytest.raises(AssertionError, match=r"FAIL \(shard 0: torn page\)"):
            EQUIVALENCE.check(_table(_row(check="FAIL (shard 0: torn page)")))

    def test_none_check_is_vacuously_clean(self):
        EQUIVALENCE.check(_table(_row(check="n/a")))

    def test_failed_audit_flags_cell(self):
        for check in ("ok+audit", "n/a+audit"):
            with pytest.raises(AssertionError, match="config 'a': the accounting audit"):
                EQUIVALENCE.check(_table(_row(check=check)))

    def test_scenarios_are_judged_apart_and_an_empty_table_fails(self):
        # Two scenarios reach different states: each is compared only
        # with its own configs.
        EQUIVALENCE.check(
            _table(_row(), _row(config="b"), _row("t", state_hash="f" * 12),
                   _row("t", config="b", state_hash="f" * 12))
        )
        with pytest.raises(AssertionError, match="scenario 't', config 'b'"):
            EQUIVALENCE.check(_table(_row(), _row("t"), _row("t", config="b", reads=0)))
        with pytest.raises(AssertionError, match="no cell"):
            EQUIVALENCE.check(_table())

    def test_every_problem_is_listed(self):
        with pytest.raises(AssertionError) as failure:
            EQUIVALENCE.check(
                _table(_row(), _row(config="b", updates=19), _row(config="c", check="ok+audit"))
            )
        message = str(failure.value)
        assert "config 'b': 10r/19u" in message
        assert "config 'c': the accounting audit" in message


def _scale_with(grid):
    return replace(SCALES["smoke"], grid=grid)


class TestMatrix:
    def test_small_matrix_is_equivalent(self):
        configs = (
            Cell.of("pdl", "PDL (256B)"),
            Cell.of("opu", "OPU"),
            Cell.of("pdl-x2", "PDL (256B) x2"),
        )
        grid = Grid(("sequential", "ycsb-a"), configs, N_PAGES, N_OPS)
        table = run(EQUIVALENCE, _scale_with(grid))
        EQUIVALENCE.check(table)
        assert len(table.rows) == 3 * len(configs)  # two patterns + the trace
        assert set(table.column("check")) == {"ok", "n/a"}

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            Grid(("sequential",), (), N_PAGES, N_OPS)
        with pytest.raises(ValueError, match="unique"):
            Grid(("sequential",), (Cell.of("a", "OPU"), Cell.of("a", "IPU")), N_PAGES, N_OPS)
        with pytest.raises(ValueError, match="unknown pattern"):
            Grid(("no-such-shape",), (Cell.of("a", "OPU"),), N_PAGES, N_OPS).scenarios()

    def test_pattern_set_helpers_include_trace(self):
        for scale in SCALES.values():
            names = [p.name for p in scale.grid.scenarios()]
            assert len(names) == len(scale.grid.patterns) + 1
            assert names[-1] == f"trace-{TRACE.stem}"

    def test_tracked_results_are_the_tiny_grid_byte_for_byte(self, tmp_path, monkeypatch):
        """The one result file the repository tracks holds only cells
        every run repeats: regenerating it must be a no-op."""
        monkeypatch.setenv("REPRO_BENCH_RESULTS", str(tmp_path))
        assert main(["equivalence", "--scale", "smoke"]) == 0
        tracked = Path(__file__).with_name("scenarios.json")
        assert (tmp_path / "scenarios.json").read_bytes() == tracked.read_bytes()


@pytest.mark.slow
class TestFullMatrix:
    """Runs of the equivalence figure beyond smoke — the CI slow tier."""

    def test_default_grid_is_equivalent(self):
        scale = SCALES["small"]
        table = run(EQUIVALENCE, scale)
        EQUIVALENCE.check(table)
        grid = scale.grid
        assert len(table.rows) == (len(grid.patterns) + 1) * len(grid.cells)

    def test_every_registered_pattern_is_equivalent_on_the_tiny_grid(self):
        smoke = SCALES["smoke"].grid
        table = run(EQUIVALENCE, _scale_with(replace(smoke, patterns=tuple(pattern_names()), n_ops=240)))
        EQUIVALENCE.check(table)
        assert len(table.rows) == (len(pattern_names()) + 1) * len(smoke.cells)
