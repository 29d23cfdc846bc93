"""One workload, one pass: set up, measure a window, check, report.

Runs inside the fresh subprocess ``run.py`` starts per (workload, pass).

Two clocks, always named.  *Simulated* microseconds are the Table-1 NAND
latencies the emulator charges (``FlashStats`` / ``FlashChip.clock_us``);
they are taken over a fixed op count and repeat exactly for a seed.
*Host* microseconds are what this Python process took on this machine,
divided by how slow the machine was at that moment (``reference.py``);
they are medians over as many equal batches as ``--seconds`` allows.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import subprocess
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.flash.stats import percentile

import spec as bench
from reference import Pace, Reference, Sampled
from trace import Tracer, TraceSummary
from workloads import FinishReport, OpTotals, Tally, Workload, make_workload


@dataclass
class Window:
    """What one measured window observed.

    Simulated readings cover the first ``prefix`` batches only; the
    host batch times (and the host's slowdown around each) cover every
    batch run.
    """

    ops: int
    totals: OpTotals
    sim_us: array  # per-op simulated us, prefix
    host_ns: array  # per-op host ns, prefix
    batch_ns: List[int]
    batch_slowdown: List[float]
    restart_slowdown: List[float]  # one per ``workload.window_restarts``
    #: High-water mark of the process at the end of the prefix: the
    #: batches after it are as many as the host's speed allows, and
    #: memory that grows with them is the host's figure, not the engine's.
    peak_rss_mb: float
    counters: Dict[str, float]
    gauges: Dict[str, float]


def run_window(
    workload: Workload, prefix: int, seconds: float,
    reference: Optional[Reference] = None,
) -> Window:
    batch_ops = workload.spec.batch_ops
    sim_buf = array("d", bytes(8 * batch_ops))
    host_buf = array("q", bytes(8 * batch_ops))
    sim_us, host_ns = array("d"), array("q")
    batch_ns: List[int] = []
    batch_slowdown: List[float] = []
    restart_slowdown: List[float] = []
    restarts = workload.window_restarts
    pace = Pace(reference)

    def timed(stretch: Callable[[], Optional[int]]) -> None:
        """Run one timed stretch (a batch returns its nanoseconds) and
        read the host's slowdown around it, which is also that of every
        restart the stretch timed."""
        elapsed = stretch()
        slowdown = pace.since_last()
        restart_slowdown.extend([slowdown] * (len(restarts) - len(restart_slowdown)))
        if elapsed is not None:
            batch_ns.append(elapsed)
            batch_slowdown.append(slowdown)

    def batch() -> int:
        return workload.run_batch(sim_buf, host_buf)

    totals0, counters0 = workload.op_totals(), workload.counters()
    deadline = time.perf_counter() + seconds
    samples = workload.spec.restart_samples
    sample_every = max(1, prefix // samples) if samples else 0
    for i in range(prefix):
        timed(batch)
        sim_us.extend(sim_buf)
        host_ns.extend(host_buf)
        if sample_every and (i + 1) % sample_every == 0:
            timed(workload.sample_restart)
    totals1, counters1 = workload.op_totals(), workload.counters()
    gauges = workload.gauges()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    most = prefix * workload.spec.window_factor
    while len(batch_ns) < most and time.perf_counter() < deadline:
        timed(batch)
    return Window(
        ops=prefix * batch_ops,
        totals=tuple(b - a for a, b in zip(totals0, totals1)),  # type: ignore[arg-type]
        sim_us=sim_us,
        host_ns=host_ns,
        batch_ns=batch_ns,
        batch_slowdown=batch_slowdown,
        restart_slowdown=restart_slowdown,
        peak_rss_mb=peak_rss_mb,
        counters={k: v - counters0.get(k, 0) for k, v in counters1.items()},
        gauges=gauges,
    )


def timed_setups(
    make: Callable[[], Workload], reference: Reference
) -> Tuple[Workload, List[Sampled]]:
    """Build and set up ``spec.setups`` engines one after another (same
    seed, same state), each discarded before the next is built; the
    last one is measured."""
    workload, setups = make(), []
    while True:
        with Sampled(reference) as sampled:
            workload.setup()
        setups.append(sampled)
        if len(setups) >= workload.spec.setups:
            return workload, setups
        workload.teardown()
        workload = make()  # drops the old engine; the new one is not built yet
        gc.collect()  # ... and its cycles, or peak memory is two engines'


def _quartiles(values) -> List[float]:
    values = list(values)
    if len(values) < 2:
        return [float(values[0])] * 3
    return statistics.quantiles(values, n=4)


def steady(host_times, slowdowns) -> float:
    """The figure reported for a repeated host timing: the median of
    the repeats, each divided by the host's slowdown around it."""
    return statistics.median(t / slow for t, slow in zip(host_times, slowdowns))


def _restart_cost(workload: Workload, window: Window, prefix: int):
    """(host ms, simulated us) of one restart over the window's timed
    restarts; the simulated median over the fixed prefix's only
    (crash-restart keeps restarting in the host window's tail)."""
    restarts = workload.window_restarts
    return (
        steady([s.host_ms for s in restarts], window.restart_slowdown),
        statistics.median(s.sim_us for s in restarts[:prefix]),
    )


def tail_mean(samples, pct: float) -> float:
    """Mean of the slowest ``pct`` percent of ``samples``."""
    ordered = sorted(samples)
    tail = ordered[-max(1, round(len(ordered) * pct / 100.0)):]
    return sum(tail) / len(tail)


def end_to_end_pass(make: Callable[[], Workload], seconds: float) -> dict:
    """The untraced pass: every end-to-end metric plus its detail."""
    reference = Reference()
    workload, setups = timed_setups(make, reference)
    try:
        prefix = workload.spec.prefix_batches
        window = run_window(workload, prefix, seconds, reference)
        finish = workload.finish()
    finally:
        workload.teardown()
    reads, programs, erases, sim_total, _gc = window.totals
    ops = window.ops
    batch_us = [ns / 1e3 / workload.spec.batch_ops for ns in window.batch_ns]
    # A pool hit charges no flash time: the median is taken over the ops
    # that reached flash, or it would be a degenerate 0 on a cached run.
    charged = [us for us in window.sim_us if us > 0.0]
    restart_host_ms, restart_sim_us = _restart_cost(workload, window, prefix)
    values = {
        "setup_s": statistics.median(s.seconds for s in setups),
        "host_us_per_op": steady(batch_us, window.batch_slowdown),
        "sim_us_per_op": sim_total / ops,
        "sim_op_us_tail_mean": tail_mean(window.sim_us, 1.0),
        "flash_reads_per_op": reads / ops,
        "flash_programs_per_op": programs / ops,
        "erases_per_kop": 1000.0 * erases / ops,
        "peak_rss_mb": window.peak_rss_mb,
        "restart_host_ms": restart_host_ms,
        "restart_sim_us": restart_sim_us,
    }
    host_us = [ns / 1e3 for ns in window.host_ns]
    detail = {
        "sim_op_us_p50": percentile(charged, 50),
        "sim_op_us_p99": percentile(list(window.sim_us), 99),
        "sim_window_ops": ops,
        "sim_samples": len(window.sim_us),
        "sim_zero_op_frac": 1.0 - len(charged) / len(window.sim_us),
        "host_batches": len(batch_us),
        "host_batch_ops": workload.spec.batch_ops,
        # As timed, before the division by the host's slowdown.
        "host_us_per_op_raw_quartiles": _quartiles(batch_us),
        "host_slowdown_quartiles": _quartiles(window.batch_slowdown),
        "host_batch_us_raw": batch_us,
        "host_batch_slowdown": window.batch_slowdown,
        "setup_s_raw": [s.raw_seconds for s in setups],
        "setup_slowdown": [statistics.median(s.slowdowns) for s in setups],
        "restart_host_ms_raw": statistics.median(
            s.host_ms for s in workload.window_restarts
        ),
        "restart_host_ms_raw_all": [s.host_ms for s in workload.window_restarts],
        "restart_slowdown": window.restart_slowdown,
        "op_host_us_p50": percentile(host_us, 50),
        "op_host_us_p99": percentile(host_us, 99),
        "restart_samples": len(workload.window_restarts),
        "final_restart_host_ms": finish.restart.host_ms,
        "fsck_findings": finish.fsck_findings,
        "final_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {"metrics": _with_units(values, bench.END_TO_END), "detail": detail}


def traced_pass(make: Callable[[], Workload], trace_out: Optional[Path]) -> dict:
    """The per-layer numbers: an untraced reference pass over the first
    quarter of the simulated window, then the same ops on a second,
    identically built engine with the shims in.  The two must charge
    identical simulated counters."""
    reference = make()
    quarter = max(1, reference.spec.prefix_batches // 4)
    try:
        reference.setup()
        ref = run_window(reference, quarter, 0.0)
    finally:
        reference.teardown()
    del reference

    traced = make()
    tracer = Tracer()
    try:
        with tracer.installed():
            traced.setup()
            tracer.recording = True
            start = time.perf_counter_ns()
            win = run_window(traced, quarter, 0.0)
            traced_ns = time.perf_counter_ns() - start
            tracer.recording = False
        finish = traced.finish()
    finally:
        traced.teardown()
    if ref.totals != win.totals or ref.sim_us != win.sim_us:
        traced.fail(
            "traced-pass", None,
            f"simulated counters diverge from the untraced pass: "
            f"{ref.totals} != {win.totals}",
        )
    if trace_out is not None:
        trace_out.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(trace_out / f"{traced.name}.spans.jsonl")
        tracer.write_chrome_trace(trace_out / f"{traced.name}.chrome.json")
    summary = tracer.summary()
    values = _layer_values(traced, ref, win, finish, summary, tracer.measured, traced_ns)
    detail = {
        "traced_ops": win.ops,
        "spans": summary.n_spans,
        "layer_self_us_per_op": _per_op(summary.layer_self_ns, win.ops),
        # The harness's own between-op work (timed restarts of flash
        # copies; crash-restart's restart + durability check), by layer.
        "outside_ops_self_us_per_op": _per_op(summary.outside_self_ns, win.ops),
    }
    return {"metrics": _with_units(values, bench.PER_LAYER), "detail": detail}


def _layer_values(
    workload: Workload, ref: Window, win: Window, finish: FinishReport,
    summary: TraceSummary, measured: Dict[str, float], traced_ns: int,
) -> Dict[str, float]:
    ops = win.ops
    kops = ops / 1000.0
    counters = win.counters
    _reads, _programs, _erases, sim_total, gc_sim = win.totals

    def self_us_per_op(*layers: str) -> float:
        return sum(summary.layer_self_ns.get(layer, 0) for layer in layers) / 1e3 / ops

    def per_call(ns: int, calls: int) -> float:
        return ns / 1e3 / calls if calls else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def count(key: str) -> float:
        return counters.get(key, 0)

    calls, self_ns, total_ns = summary.calls, summary.self_ns, summary.total_ns
    ref_host_us = [ns / 1e3 for ns in ref.host_ns]
    pool_accesses = count("pool.hits") + count("pool.misses")
    map_lookups = count("mapping.hits") + count("mapping.misses")
    diffs = count("pdl.case1") + count("pdl.case2")
    shard_writes = [v for k, v in counters.items() if k.startswith("shard_writes.")]
    restarts = workload.window_restarts
    # Without a mapping tier every restart *is* the Figure-11 scan.
    scans = workload.scans or [
        (s.host_ms, s.sim_us) for s in restarts if not s.fast_path
    ]
    return {
        "workloads.self_us_per_op": self_us_per_op("workloads"),
        "workloads.op_host_us_p50": percentile(ref_host_us, 50),
        "workloads.op_host_us_p99": percentile(ref_host_us, 99),
        "bufferpool.self_us_per_op": self_us_per_op("bufferpool"),
        "bufferpool.hit_ratio": ratio(count("pool.hits"), pool_accesses),
        "bufferpool.evictions_per_kop": count("pool.evictions") / kops,
        "bufferpool.sync_writebacks_per_kop": count("pool.sync_writebacks") / kops,
        "bufferpool.eviction_stall_us_p99": win.gauges.get("eviction_stall_us_p99", 0.0),
        "storage.self_us_per_op": self_us_per_op("storage"),
        "storage.page_fetches_per_op": summary.edges(
            "BufferManager.get_page", "BTree.", "HeapFile."
        ) / ops,
        "sharding.self_us_per_op": self_us_per_op("sharding"),
        "sharding.transport_us_per_op": self_us_per_op("transport"),
        "sharding.shard_imbalance": (
            ratio(max(shard_writes), sum(shard_writes) / len(shard_writes))
            if len(shard_writes) > 1 else 0.0
        ),
        "sharding.group_flush_host_us": (
            finish.flush_host_us if len(shard_writes) > 1 else 0.0
        ),
        "pdl.read_self_us_per_call": per_call(
            self_ns("PdlDriver.read_page"), calls("PdlDriver.read_page")
        ),
        "pdl.write_self_us_per_call": per_call(
            self_ns("PdlDriver.write_page", "PdlDriver.write_pages"),
            calls("PdlDriver.write_page", "PdlDriver.write_pages"),
        ),
        "pdl.flush_self_us_per_call": per_call(
            self_ns("PdlDriver.flush"), calls("PdlDriver.flush")
        ),
        "pdl.new_base_frac": ratio(count("pdl.case3"), diffs + count("pdl.case3")),
        "pdl.diffs_per_diff_page": ratio(diffs, count("pdl.buffer_flushes")),
        "pdl.diff_page_count": win.gauges["diff_page_count"],
        "codec.self_us_per_op": self_us_per_op("codec"),
        "codec.calls_per_op": summary.layer_calls.get("codec", 0) / ops,
        "codec.compute_us_per_call": per_call(
            total_ns("compute_unit_runs"), calls("compute_unit_runs")
        ),
        "codec.encode_us_per_call": per_call(
            total_ns("Differential.encode"), calls("Differential.encode")
        ),
        "codec.decode_us_per_call": per_call(
            total_ns("Differential.decode_from"), calls("Differential.decode_from")
        ),
        "codec.apply_us_per_call": per_call(
            total_ns("Differential.apply"), calls("Differential.apply")
        ),
        "codec.diff_bytes_mean": ratio(
            measured["codec"], calls("Differential.from_pages")
        ),
        "mapping.self_us_per_op": self_us_per_op("mapping"),
        "mapping.lookups_per_op": map_lookups / ops,
        "mapping.hit_ratio": ratio(count("mapping.hits"), map_lookups),
        "mapping.writebacks_per_kop": count("mapping.writebacks") / kops,
        "journal.records_per_op": count("journal.records") / ops,
        "journal.commit_pages_per_kop": summary.edges(
            "FlashChip.program_page", "MappingStore.commit"
        ) / kops,
        "journal.snapshots": count("journal.snapshots"),
        "journal.snapshot_host_ms": per_call(
            total_ns("MappingStore.snapshot"), calls("MappingStore.snapshot")
        ) / 1e3,
        "gc.self_us_per_op": self_us_per_op("gc"),
        "gc.collections_per_kop": count("gc.collections") / kops,
        "gc.relocations_per_erase": ratio(
            count("gc.pages_relocated"), count("gc.collections")
        ),
        "gc.sim_time_share": ratio(gc_sim, sim_total),
        "ftl.occupied_page_ratio": win.gauges["occupied_page_ratio"],
        "chip.self_us_per_op": self_us_per_op("chip"),
        "chip.read_calls_per_op": calls(
            "FlashChip.read_page", "FlashChip.read_pages", "FlashChip.read_spares"
        ) / ops,
        "chip.program_calls_per_op": calls(
            "FlashChip.program_page", "FlashChip.program_pages"
        ) / ops,
        "chip.spare_programs_per_op": calls(
            "FlashChip.program_spare", "FlashChip.mark_obsolete"
        ) / ops,
        "chip.read_self_us_per_call": per_call(
            self_ns("FlashChip.read_page"), calls("FlashChip.read_page")
        ),
        "chip.program_self_us_per_call": per_call(
            self_ns("FlashChip.program_page"), calls("FlashChip.program_page")
        ),
        "backend.self_us_per_op": self_us_per_op("backend"),
        "backend.self_us_per_call": per_call(
            summary.layer_self_ns.get("backend", 0), summary.layer_calls.get("backend", 0)
        ),
        "backend.read_calls_per_op": calls(
            "Backend.read_data", "Backend.read_spare",
            "Backend.read_pages", "Backend.read_spares",
        ) / ops,
        "backend.write_calls_per_op": calls(
            "Backend.program_page", "Backend.program_pages",
            "Backend.write_data", "Backend.write_spare",
        ) / ops,
        "backend.bytes_written_per_op": measured["backend"] / ops,
        "backend.syncs": calls("Backend.sync"),
        "recovery.host_ms_p90": percentile([s.host_ms for s in restarts], 90),
        "recovery.reads_per_restart": statistics.mean(s.reads for s in restarts),
        "recovery.journal_records_replayed": statistics.mean(
            s.journal_records for s in restarts
        ),
        "recovery.fast_path_frac": ratio(
            sum(1 for s in restarts if s.fast_path), len(restarts)
        ),
        "recovery.scan_host_ms": statistics.median(h for h, _s in scans) if scans else 0.0,
        "recovery.scan_sim_us": statistics.median(s for _h, s in scans) if scans else 0.0,
        "fsck.host_ms": finish.fsck_host_ms,
        "fsck.reads_per_page": finish.fsck_reads_per_page,
        "fsck.findings": finish.fsck_findings,
        "trace.overhead_ratio": ratio(
            statistics.median(win.batch_ns), statistics.median(ref.batch_ns)
        ),
        "trace.spans_per_op": summary.n_spans / ops,
        "trace.coverage": ratio(summary.total_self_ns, traced_ns),
    }


def _per_op(layer_ns: Dict[str, int], ops: int) -> Dict[str, float]:
    return {layer: ns / 1e3 / ops for layer, ns in sorted(layer_ns.items())}


def _with_units(values: Dict[str, float], metrics) -> Dict[str, dict]:
    by_name = {m.name: m for m in metrics}
    if set(values) != set(by_name):
        raise AssertionError(
            f"metric set drifted from spec.py: {sorted(set(values) ^ set(by_name))}"
        )
    return {
        m.name: {"value": float(values[m.name]), "unit": m.unit} for m in metrics
    }


def run_pass(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool,
    workdir: Path, trace_out: Optional[Path],
) -> dict:
    """One (workload, pass) in this process; returns the result record."""
    spec = bench.WORKLOAD_BY_NAME[name]
    start = time.perf_counter()
    tally = Tally()

    def make() -> Workload:
        return make_workload(spec, seed, smoke, workdir, tally)

    if trace:
        result = traced_pass(make, trace_out)
    else:
        result = end_to_end_pass(make, 0.0 if smoke else seconds)
    result["detail"]["failed_op_frac"] = tally.failed / max(1, tally.attempted)
    result.update(
        workload=name,
        seed=seed,
        trace=int(trace),
        smoke=smoke,
        attempted=tally.attempted,
        failed=tally.failed,
        correct=tally.failed == 0 and tally.attempted > 0,
        failures=[str(f) for f in tally.failures],
        wall_s=time.perf_counter() - start,
    )
    return result


def environment(root: Path) -> dict:
    """Host stamp, so a number can be attributed to host, shape or code."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # not a git checkout
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }
