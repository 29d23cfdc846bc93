"""Self-checks of the end-to-end benchmark (outside tier-1's testpaths).

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
import signal
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import compare  # noqa: E402
import spec as bench  # noqa: E402
import trace as e2e_trace  # noqa: E402
import workloads  # noqa: E402
from harness import run_window, steady  # noqa: E402
from reference import Pace, Reference, Sampled  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SIM_METRICS = [m.name for m in bench.END_TO_END if m.clock == "sim"]


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Two complete smoke runs of the same commit and seed."""
    out = tmp_path_factory.mktemp("smoke")
    results = []
    for i in range(2):
        path = out / f"run{i}.json"
        done = _run("--smoke", "--out", str(path))
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        results.append((path, json.loads(path.read_text()), done.stdout))
    return results


def test_benchmark_json_matches_spec():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared == bench.benchmark_json(declared["command"], ["benchmarks/e2e"])
    assert declared["command"][-1] == "benchmarks/e2e/run.py"
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += [w["name"] for w in declared["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in declared["end_to_end"])


def test_schema_and_every_metric_present(smoke_runs):
    _path, result, stdout = smoke_runs[0]
    assert result["schema"] == 1 and result["seed"] == bench.DEFAULT_SEED
    for key in ("nproc", "cpu_count", "python", "platform", "git_commit", "pythonhashseed"):
        assert key in result["env"]
    assert set(result["workloads"]) == {w.name for w in bench.WORKLOADS}
    for name, runs in result["workloads"].items():
        for kind, metrics in (("end_to_end", bench.END_TO_END), ("per_layer", bench.PER_LAYER)):
            record = runs[kind]
            assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
            assert record["detail"]["failed_op_frac"] == 0
            assert record["wall_s"] > 0
            assert list(record["metrics"]) == [m.name for m in metrics], (name, kind)
            for metric in metrics:
                got = record["metrics"][metric.name]
                assert NAME.fullmatch(metric.name)
                assert got["unit"] == metric.unit
                assert isinstance(got["value"], float)
                # Printed by name with its unit.
                assert re.search(rf"{re.escape(metric.name)}\s+\S+ {metric.unit}\n", stdout)
        # The contract wants end-to-end metrics that are never 0.
        assert all(m["value"] > 0 for m in runs["end_to_end"]["metrics"].values()), name
        detail = runs["end_to_end"]["detail"]
        assert detail["host_batches"] >= 30 and detail["sim_window_ops"] >= 1


def test_two_runs_agree_on_simulated_metrics(smoke_runs):
    (path_a, a, _), (path_b, b, _) = smoke_runs
    for name in a["workloads"]:
        for metric in SIM_METRICS:
            assert (
                a["workloads"][name]["end_to_end"]["metrics"][metric]
                == b["workloads"][name]["end_to_end"]["metrics"][metric]
            ), (name, metric)
    rows = compare.compare(a, b)
    assert all(row[5] == "ok" for row in rows if row[1] in SIM_METRICS + ["failed_op_frac"])
    # compare.py names an offender when a simulated metric moves.
    b["workloads"]["uniform-driver"]["end_to_end"]["metrics"]["sim_us_per_op"]["value"] += 1
    tampered = path_b.with_name("tampered.json")
    tampered.write_text(json.dumps(b))
    done = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(path_a), str(tampered)],
        capture_output=True, text=True,
    )
    assert done.returncode == 1
    assert "uniform-driver sim_us_per_op" in done.stderr


def test_layer_split_discriminates(smoke_runs):
    layers = {
        name: runs["per_layer"]["metrics"]
        for name, runs in smoke_runs[0][1]["workloads"].items()
    }

    def value(workload, metric):
        return layers[workload][metric]["value"]

    file_backed = ("zipf-pool-file", "scan-hot-pool")
    for name in layers:
        assert value(name, "trace.coverage") >= 0.85, name
        assert value(name, "fsck.findings") == 0
        on_mapping = name == "crash-restart"
        assert (value(name, "mapping.self_us_per_op") > 0) == on_mapping
        assert (value(name, "journal.records_per_op") > 0) == on_mapping
        assert (value(name, "storage.self_us_per_op") > 0) == (name == "tpcc-spot")
        sharded = name == "uniform-x4-thread"
        assert (value(name, "sharding.transport_us_per_op") > 0) == sharded
        if name not in file_backed:
            # Per call, not per op: how many backend calls an op makes is
            # the workload's (most zipf ops hit the pool and make none,
            # crash-restart pays several mapping-page reads an op, a
            # TPC-C op is a whole transaction).
            assert all(
                value(name, "backend.self_us_per_call") < value(f, "backend.self_us_per_call")
                for f in file_backed
            )
    # The round trip through the executor is one of the two largest host
    # shares on the sharded workload (the codec is the other, and under
    # the shims the two are close), and absent on the bare driver.
    x4 = smoke_runs[0][1]["workloads"]["uniform-x4-thread"]["per_layer"]["detail"]
    shares = dict(x4["layer_self_us_per_op"])
    routed = shares.pop("sharding") + shares.pop("transport")
    assert sorted([routed, *shares.values()])[-2] <= routed
    bare = smoke_runs[0][1]["workloads"]["uniform-driver"]["per_layer"]["detail"]
    assert not {"sharding", "transport"} & set(bare["layer_self_us_per_op"])


def _smoke_workload(name: str, tmp_path: Path, seed: int = bench.DEFAULT_SEED):
    return workloads.make_workload(bench.WORKLOAD_BY_NAME[name], seed, True, tmp_path)


def test_shims_are_removed_and_children_fit_in_parents(tmp_path):
    from repro.core import recovery
    from repro.core.differential import Differential
    from repro.flash.chip import FlashChip
    from repro.sharding import recovery as sharding_recovery

    originals = (
        FlashChip.read_page,
        vars(Differential)["from_pages"],
        recovery.recover_driver,
        sharding_recovery.recover_driver,
        workloads.Workload.execute,
    )
    workload = _smoke_workload("uniform-x4-thread", tmp_path)
    tracer = e2e_trace.Tracer()
    with tracer.installed():
        assert FlashChip.read_page is not originals[0]
        # A ``from ... import`` alias is patched where it is looked up.
        assert sharding_recovery.recover_driver is recovery.recover_driver
        workload.setup()
        assert not tracer.spans  # set-up is not recorded
        tracer.recording = True
        batch = workload.spec.batch_ops
        run_window(workload, 4, 0.0)
        tracer.recording = False
    workload.teardown()
    assert originals == (
        FlashChip.read_page,
        vars(Differential)["from_pages"],
        recovery.recover_driver,
        sharding_recovery.recover_driver,
        workloads.Workload.execute,
    )
    assert workload.tally.failed == 0
    spans = tracer.spans
    assert tracer.op_id == 4 * batch
    threads = {rec[e2e_trace.THREAD] for rec in spans}
    assert len(threads) > 1  # worker-thread spans were captured
    for rec in spans:
        start, end, parent = rec[e2e_trace.START], rec[e2e_trace.END], rec[e2e_trace.PARENT]
        assert end >= start
        # Children fit in their parent while one op is in flight; the
        # harness's parallel restart fans out, so its children overlap.
        if rec[e2e_trace.ROOT] != e2e_trace.HARNESS_LAYER:
            assert rec[e2e_trace.CHILD_NS] <= end - start, rec[:3]
        if parent is not None:
            assert parent[e2e_trace.START] <= start and end <= parent[e2e_trace.END]
            assert parent[e2e_trace.OP] == rec[e2e_trace.OP]
    summary = tracer.summary()
    assert len(summary.op_ns) == 4 * batch
    # Self times partition the time inside outermost spans exactly.
    assert summary.total_self_ns == sum(
        rec[e2e_trace.END] - rec[e2e_trace.START]
        for rec in spans if rec[e2e_trace.PARENT] is None
    )
    assert len(workload.window_restarts) == 2
    # The timed restarts are traced, but apart from the per-op figures.
    assert summary.outside_self_ns["harness"] > 0 and "harness" not in summary.layer_self_ns
    for rec in spans:
        top = rec
        while top[e2e_trace.PARENT] is not None:
            top = top[e2e_trace.PARENT]
        assert rec[e2e_trace.ROOT] == top[e2e_trace.LAYER]
    # Export round-trips.
    tracer.write_jsonl(tmp_path / "spans.jsonl")
    tracer.write_chrome_trace(tmp_path / "chrome.json")
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert len(lines) == len(spans) and json.loads(lines[0])["layer"] == "workloads"
    assert len(json.loads((tmp_path / "chrome.json").read_text())["traceEvents"]) == len(spans)


def _stream_digest(name: str, seed: int, tmp_path: Path, n_ops: int = 2000) -> str:
    digest = hashlib.sha256()
    for op in itertools.islice(_smoke_workload(name, tmp_path, seed).op_stream(), n_ops):
        digest.update(repr(op).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "name", [w.name for w in bench.WORKLOADS if w.name != "tpcc-spot"]
)
def test_seed_is_the_only_source_of_randomness(name, tmp_path):
    default = _stream_digest(name, bench.DEFAULT_SEED, tmp_path)
    held_out = _stream_digest(name, bench.HELD_OUT_SEED, tmp_path)
    assert default != held_out
    assert default == _stream_digest(name, bench.DEFAULT_SEED, tmp_path)
    assert held_out == _stream_digest(name, bench.HELD_OUT_SEED, tmp_path)


def test_uniform_workloads_share_one_op_stream(tmp_path):
    assert _stream_digest("uniform-driver", 7, tmp_path) == _stream_digest(
        "uniform-x4-thread", 7, tmp_path
    )


def test_seed_changes_tpcc_too(tmp_path):
    def sim_samples(seed):
        workload = _smoke_workload("tpcc-spot", tmp_path, seed)
        workload.setup()
        return run_window(workload, 5, 0.0).sim_us

    assert sim_samples(1) == sim_samples(1) != sim_samples(2)
    assert isinstance(sim_samples(1), array)


def test_host_times_are_divided_by_the_slowdown_around_them(tmp_path):
    # A host twice as slow doubles the timing and the kernel alike.
    assert steady([10.0, 40.0, 30.0], [1.0, 2.0, 1.0]) == 20.0

    class Scripted(Reference):
        def __init__(self, readings):
            self.readings = iter(readings)

        def slowdown(self):
            return next(self.readings)

    pace = Pace(Scripted([1.0, 3.0, 2.0]))
    assert [pace.since_last(), pace.since_last()] == [2.0, 2.5]
    assert Pace(None).since_last() == 1.0  # the traced pass is raw

    # The kernel does the same work on every run, whatever the seed.
    one, two = Reference(), Reference()
    one.run(), two.run()
    assert one._state == two._state and one._pages == two._pages

    # A long stretch is read from the inside, a short one right after;
    # the kernel's own time is not the stretch's.
    handler = signal.getsignal(signal.SIGALRM)
    with Sampled(one) as long_stretch:
        deadline = time.perf_counter() + 3.5 * Sampled.PERIOD_S
        while time.perf_counter() < deadline:
            pass
    with Sampled(one) as short_stretch:
        pass
    assert len(long_stretch.slowdowns) >= 3 and len(short_stretch.slowdowns) == 1
    assert long_stretch.raw_seconds < 3.5 * Sampled.PERIOD_S
    assert long_stretch.seconds == long_stretch.raw_seconds / statistics.median(
        long_stretch.slowdowns
    )
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    # One reading per batch and per timed restart; no reference, no division.
    workload = _smoke_workload("uniform-driver", tmp_path)
    workload.setup()
    window = run_window(workload, 4, 0.0, Reference())
    assert len(window.batch_slowdown) == len(window.batch_ns) == 4
    assert len(window.restart_slowdown) == len(workload.window_restarts) == 2
    assert all(0.2 < slow < 20.0 for slow in window.batch_slowdown)
    assert run_window(workload, 2, 0.0).batch_slowdown == [1.0, 1.0]


def test_mismatch_is_counted_and_named(tmp_path):
    workload = _smoke_workload("uniform-driver", tmp_path)
    workload.setup()
    workload.shadow[0] = bytes(len(workload.shadow[0]))  # the oracle now disagrees
    workload.finish()
    assert workload.tally.failed >= 1
    assert "uniform-driver: readback pid 0" in str(workload.tally.failures[0])


def test_contract_line_and_missing_sources(tmp_path):
    done = _run("--workload", "zipf-pool-file", "--seed", "3", "--seconds", "1",
                "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == [m.name for m in bench.END_TO_END]
    assert not (HERE / "_work").exists()  # scratch space is cleaned up
    # A directory holding only BENCHMARK.json and the benchmark's files
    # cannot run: non-zero exit, no result line.
    bare = tmp_path / "bare"
    (bare / "benchmarks").mkdir(parents=True)
    (bare / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for source in HERE.glob("*.py"):
        target = bare / "benchmarks" / "e2e" / source.name
        target.parent.mkdir(exist_ok=True)
        target.write_text(source.read_text())
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "uniform-driver",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout.strip() == ""
