"""The checked-in benchmark series: every ``BENCH_<n>.json`` at the
repository root is a whole ``benchmarks/e2e/run.py --out`` record.

A record is what a later change is compared against, so a partial one
(a single workload, a smoke run, a run whose oracle failed, a metric
missing) would let a regression through.  Which workloads and which
end-to-end metrics a record must carry is read from ``BENCHMARK.json``,
the benchmark's own declaration; nothing here imports the benchmark.

The newest record must also equal its predecessor on every exact
metric: the simulated flash time and the op counts (units ``sim_us``
and ``count``) are deterministic, so a change that moves one moved
flash behaviour.  A change that moves one on purpose says so in
``BENCH_MOVES.json`` (PR number → workload → metric → reason): the
newest record may move exactly the metrics listed under its own PR
number, and each of them must move.  Host timings are not compared
here: one run against one run spreads wider than their bounds.
"""

import json
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def _pr_number(path):
    return int(re.fullmatch(r"BENCH_(\d+)\.json", path.name).group(1))


#: The records in PR order (``BENCH_100`` after ``BENCH_41``).
RECORDS = sorted(ROOT.glob("BENCH_[0-9]*.json"), key=_pr_number)
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = sorted(workload["name"] for workload in DECLARED["workloads"])
METRICS = [metric["name"] for metric in DECLARED["end_to_end"]]
EXACT_METRICS = [
    metric["name"] for metric in DECLARED["end_to_end"] if metric["unit"] in ("sim_us", "count")
]
#: PR number -> workload -> metric -> why that record moves it.
MOVES = json.loads((ROOT / "BENCH_MOVES.json").read_text())


def test_the_series_has_started():
    assert RECORDS, "no BENCH_<n>.json at the repository root"


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


def exact_differences(old, new):
    """Every ``(workload, metric, old, new)`` on which two records'
    exact metrics differ."""
    rows = []
    for name in WORKLOADS:
        before = old["workloads"][name]["end_to_end"]["metrics"]
        after = new["workloads"][name]["end_to_end"]["metrics"]
        rows += [
            (name, metric, before[metric]["value"], after[metric]["value"])
            for metric in EXACT_METRICS
            if before[metric]["value"] != after[metric]["value"]
        ]
    return rows


def unexplained(rows, listed):
    """The ``rows`` of :func:`exact_differences` that ``listed`` (workload
    -> metric -> reason) does not name, and the listed ``(workload,
    metric)`` pairs that did not move."""
    named = {(name, metric) for name, metrics in listed.items() for metric in metrics}
    moved = {(name, metric) for name, metric, _old, _new in rows}
    return [row for row in rows if row[:2] not in named], sorted(named - moved)


def test_records_sort_by_pr_number():
    names = [Path(f"BENCH_{n}.json") for n in (100, 41, 9, 45)]
    assert [path.name for path in sorted(names, key=_pr_number)] == [
        "BENCH_9.json", "BENCH_41.json", "BENCH_45.json", "BENCH_100.json"
    ]


def test_exact_differences_lists_every_row():
    record = json.loads(RECORDS[-1].read_text())
    moved = json.loads(RECORDS[-1].read_text())
    for name in WORKLOADS:
        moved["workloads"][name]["end_to_end"]["metrics"]["flash_programs_per_op"]["value"] += 1
    rows = exact_differences(record, moved)
    assert [(name, metric) for name, metric, _old, _new in rows] == [
        (name, "flash_programs_per_op") for name in WORKLOADS
    ]
    assert exact_differences(record, record) == []


def test_listed_moves_pass_and_only_they_do():
    record = json.loads(RECORDS[-1].read_text())
    moved = json.loads(RECORDS[-1].read_text())
    for name, metric in (("crash-restart", "restart_sim_us"), ("uniform-driver", "erases_per_kop")):
        moved["workloads"][name]["end_to_end"]["metrics"][metric]["value"] += 1
    rows = exact_differences(record, moved)
    listed = {"crash-restart": {"restart_sim_us": "why"}}
    unlisted, stale = unexplained(rows, listed)
    assert [(name, metric) for name, metric, _old, _new in unlisted] == [
        ("uniform-driver", "erases_per_kop")
    ]
    assert stale == []
    listed["tpcc-spot"] = {"sim_us_per_op": "a move that did not happen"}
    assert unexplained(rows, listed)[1] == [("tpcc-spot", "sim_us_per_op")]
    assert unexplained([], {}) == ([], [])


def test_every_listed_move_names_a_record_workload_and_exact_metric():
    numbers = {str(_pr_number(path)) for path in RECORDS}
    for pr, workloads in MOVES.items():
        assert pr in numbers, f"BENCH_MOVES.json lists PR {pr}, which has no record"
        for name, metrics in workloads.items():
            assert name in WORKLOADS, (pr, name)
            for metric, reason in metrics.items():
                assert metric in EXACT_METRICS, (pr, name, metric)
                assert isinstance(reason, str) and reason.strip(), (pr, name, metric)


def test_newest_record_keeps_every_exact_metric():
    old, new = (json.loads(path.read_text()) for path in RECORDS[-2:])
    listed = MOVES.get(str(_pr_number(RECORDS[-1])), {})
    unlisted, stale = unexplained(exact_differences(old, new), listed)
    assert not unlisted, (
        f"{RECORDS[-1].name} moved against {RECORDS[-2].name} where BENCH_MOVES.json "
        "gives no reason:\n"
        + "\n".join(
            f"  {name} {metric}: {old_value} -> {new_value}"
            for name, metric, old_value, new_value in unlisted
        )
    )
    assert not stale, f"BENCH_MOVES.json lists moves {RECORDS[-1].name} does not make: {stale}"
