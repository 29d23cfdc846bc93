"""Tests for the ``python -m repro.bench`` command-line interface."""

from dataclasses import replace

import pytest

from repro.bench.__main__ import main
from repro.bench.figures import FIGURES
from repro.flash.backend import FileBackend


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "exp1" in out
        assert "exp7" in out
        assert "ablation_max_diff" in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["not_an_experiment"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["table1", "--scale", "galactic"])

    def test_runs_table1(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BENCH_RESULTS", str(tmp_path))
        assert main(["table1", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Tread" in out
        assert (tmp_path / "table1_chip.json").is_file()

    def test_a_failed_check_exits_1_naming_figure_and_assertion(self, capsys, monkeypatch):
        def check(table):
            assert table.value("value", symbol="Tread") == 1.0

        monkeypatch.setitem(FIGURES, "table1", replace(FIGURES["table1"], check=check))
        assert main(["table1", "--no-save", "--scale", "smoke"]) == 1
        err = capsys.readouterr().err
        assert "table1" in err
        assert 'assert table.value("value", symbol="Tread") == 1.0' in err

    def test_a_divergent_cell_fails_the_equivalence_oracle(self, capsys, monkeypatch):
        # One cell — the first file-backed PDL shard the grid replays,
        # sequential × pdl-256-file — reports a seeded check_driver violation.
        import repro.scenarios.cells as cells

        seeded = []

        def check_driver(shard):
            report = real_check_driver(shard)
            if not seeded and isinstance(shard.chip.backend, FileBackend):
                seeded.append(shard)
                report.add("seeded violation")
            return report

        real_check_driver = cells.check_driver
        monkeypatch.setattr(cells, "check_driver", check_driver)
        assert main(["equivalence", "--no-save", "--scale", "smoke"]) == 1
        assert len(seeded) == 1
        err = capsys.readouterr().err
        assert "equivalence" in err
        assert "scenario 'sequential', config 'pdl-256-file'" in err
        assert "seeded violation" in err
