"""The paper suite's table: scales, tiny-scale runs, and the slow tier.

``test_figure_reproduces_its_shape`` runs every entry of ``FIGURES`` at
``smoke`` scale and holds it to its shape check — the same
``check(run(figure, scale))`` that ``python -m repro.bench`` does.
"""

import pytest

from repro.bench.figures import FIGURES, SCALES, BenchScale, current_scale, run
from repro.workloads.runner import RunnerConfig
from repro.workloads.tpcc.schema import TpccScale

TINY = BenchScale(
    name="tiny",
    runner=RunnerConfig(database_pages=128, measure_ops=40),
    exp1_ops=60,
    tpcc_scale=TpccScale(1, 2, 20, 60, 15),
    tpcc_transactions=40,
    grid=SCALES["smoke"].grid,
)


class TestConfig:
    def test_scales_exist(self):
        assert {"smoke", "small", "paper"} <= set(SCALES)

    def test_current_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")
        assert current_scale().name == "smoke"

    def test_unknown_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "galactic")
        with pytest.raises(ValueError):
            current_scale()


class TestTable1:
    def test_matches_paper(self):
        table = run(FIGURES["table1"], TINY)
        assert table.value("value", symbol="Npage") == 64
        assert table.value("value", symbol="Tread") == 110.0
        assert table.value("value", symbol="Sdata") == 2048


class TestExperiment1Tiny:
    def test_runs_and_orders_sanely(self):
        table = run(FIGURES["exp1"], TINY)
        methods = set(table.column("method"))
        assert "PDL (256B)" in methods and "IPU" in methods
        ipu = table.value("overall_us", method="IPU")
        opu = table.value("overall_us", method="OPU")
        pdl = table.value("overall_us", method="PDL (256B)")
        # the paper's headline orderings hold even at tiny scale
        assert ipu > opu > pdl
        # OPU read step is exactly one page read
        assert table.value("read_us", method="OPU") == pytest.approx(110.0)


class TestAblationTiny:
    def test_max_diff_sweep_runs(self):
        figure = FIGURES["ablation_max_diff"]
        assert [size for (size,) in figure.sweep] == [64, 128, 256, 512, 1024, 2048]
        for size in (64, 256):
            read_us, _write, _overall = figure.measure(TINY, size)
            assert 110.0 <= read_us <= 2 * 110.0 + 1


@pytest.mark.slow
@pytest.mark.parametrize("name", list(FIGURES))
def test_figure_reproduces_its_shape(name):
    figure = FIGURES[name]
    figure.check(run(figure, SCALES["smoke"]))
