"""The checked-in benchmark series: every ``BENCH_*.json`` at the
repository root is a whole ``benchmarks/e2e/run.py --out`` record.

A record is what a later change is compared against, so a partial one
(a single workload, a smoke run, a run whose oracle failed, a metric
missing) would let a regression through.  Which workloads and which
end-to-end metrics a record must carry is read from ``BENCHMARK.json``,
the benchmark's own declaration; nothing here imports the benchmark.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = sorted(workload["name"] for workload in DECLARED["workloads"])
METRICS = [metric["name"] for metric in DECLARED["end_to_end"]]


def test_the_series_has_started():
    assert RECORDS, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_is_whole(path):
    record = json.loads(path.read_text())
    assert record["schema"] == 1
    assert record["env"], "no host stamp"
    assert record["smoke"] is False, "a smoke run is not a record"
    assert record["correct"] is True
    assert sorted(record["workloads"]) == WORKLOADS
    for name in WORKLOADS:
        metrics = record["workloads"][name]["end_to_end"]["metrics"]
        missing = [metric for metric in METRICS if metric not in metrics]
        assert not missing, f"{name} lacks {missing}"
        for metric in METRICS:
            value = metrics[metric]["value"]
            assert isinstance(value, (int, float)) and math.isfinite(value), (name, metric)
