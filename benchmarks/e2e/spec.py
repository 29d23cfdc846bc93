"""The benchmark's fixed vocabulary: workloads, metrics, units, bounds.

Every other file of the benchmark (and ``BENCHMARK.json`` at the repo
root, which ``test_e2e.py`` holds equal to this module) takes its names
from here, so a later issue that says "``host_us_per_op`` on
``uniform-x4-thread``" means exactly one number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

#: The paper's arXiv date (the repo-wide default seed) and the held-out
#: seed no tuning run of this benchmark used.
DEFAULT_SEED = 20100121
HELD_OUT_SEED = 20260928

#: Measured seconds per run when the caller passes none (BENCHMARK.json's
#: ``run_seconds``).
RUN_SECONDS = 12

#: Common engine shape (Table 1 chip geometry and latencies come from
#: ``repro.flash.spec.SAMSUNG_K9L8G08U0M`` through ``spec_for_database``).
METHOD = "PDL (256B)"
UTILIZATION = 0.25
PCT_CHANGED = 2.0  # % of the page one update changes: 41 of 2048 bytes
FLUSH_EVERY = 1000  # pool workloads: db.flush() after every N-th op


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of one workload.

    The *simulated window* is the first ``prefix_batches`` batches of
    ``batch_ops`` ops: a fixed op count, so every simulated counter
    repeats exactly for a seed on any host.  The *host window* keeps
    running whole batches past it until ``--seconds`` have elapsed (at
    most ``window_factor`` times the prefix), so the host medians
    rest on as many batches as the time cap allows.
    """

    name: str
    why: str
    pages: int
    batch_ops: int
    prefix_batches: int
    setups: int  # timed set-ups per run; setup_s is their median
    #: Timed restarts of a copy of the flash, spread evenly through the
    #: simulated window (crash-restart: 0, every cycle restarts for real).
    restart_samples: int
    #: The host window never exceeds this many times the prefix.  TPC-C
    #: inserts rows, so its database (and GC pressure) grows with every
    #: transaction; a tight cap keeps a faster host in the same regime.
    window_factor: int = 8


WORKLOADS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        "uniform-driver",
        "Paper Exp. 1: uniform read-change-write cycles on a bare PdlDriver; "
        "codec, PDL, chip and GC do all the work, pool/sharding/mapping/file I/O none.",
        pages=1024, batch_ops=1000, prefix_batches=40, setups=3, restart_samples=16,
    ),
    WorkloadSpec(
        "zipf-pool-file",
        "YCSB-A zipf 0.99 through a 15% LRU pool on FileBackend: hot set mostly "
        "fits, so pool hits and file writes dominate; the fits-in-cache case.",
        pages=1024, batch_ops=2000, prefix_batches=40, setups=3, restart_samples=16,
    ),
    WorkloadSpec(
        "scan-hot-pool",
        "Sequential sweeps + 10% hot set through the same pool: working set "
        "exceeds the cache, so misses drive the PDL read path and backend reads.",
        # One batch is one cycle of the pattern over 1 024 pages (40 hot
        # updates, then a 1 024-page sweep with 512 hot updates in it),
        # so every batch does the same mix of work.
        pages=1024, batch_ops=1576, prefix_batches=38, setups=3, restart_samples=16,
    ),
    WorkloadSpec(
        "uniform-x4-thread",
        "uniform-driver's op stream through 4 hash-routed shards on worker "
        "threads, one client: isolates router + executor round-trip cost.",
        pages=1024, batch_ops=500, prefix_batches=48, setups=3, restart_samples=16,
    ),
    WorkloadSpec(
        "crash-restart",
        "Mapping table 10x its RAM cache, journaled; update/flush/power-loss/"
        "restart cycles check acked-write durability and time every restart.",
        pages=8192, batch_ops=272, prefix_batches=30, setups=3, restart_samples=0,
    ),
    WorkloadSpec(
        "tpcc-spot",
        "Paper Exp. 7: TPC-C mix over B+tree/heap/slotted pages with a 5% pool; "
        "the only workload where the storage layer does most of the host work.",
        pages=0, batch_ops=25, prefix_batches=40, setups=1, restart_samples=16,
        window_factor=2,
    ),
)

WORKLOAD_BY_NAME: Dict[str, WorkloadSpec] = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float = 0.0  # end-to-end only
    clock: str = "host"  # "sim" metrics repeat exactly for a seed


#: End-to-end metrics, as gated by BENCHMARK.json.  The benchmark
#: contract wants metrics that are never 0 and never read the same on
#: every seed, so three numbers a reader may expect here travel
#: elsewhere: ``failed_op_frac`` (must stay 0) is the ``failed`` /
#: ``attempted`` keys of the result line, and the per-op percentiles
#: ``sim_op_us_p50`` / ``sim_op_us_p99`` (sums of Table-1 latencies, so
#: they sit on one lattice point for every seed) are in each run's
#: ``detail``; the gated tail metric is ``sim_op_us_tail_mean``.
#:
#: Each bound is at least three times the widest spread (quartile
#: distance ÷ median) seen over ten seeds on any workload, as the
#: benchmark contract asks.  A simulated metric repeats exactly for a
#: seed (``compare.py`` holds it to equality); its bound covers the
#: seed-to-seed spread, which TPC-C's 1 000-transaction sample sets
#: (4-6 %).  Raw host times on the 2-core shared sandbox move by up to
#: a factor of 1.6 between identical runs; ``host_us_per_op`` and
#: ``restart_host_ms`` are divided by the host's slowdown as read by a
#: fixed kernel (``reference.py``), which leaves 2-7 %, and their bounds
#: sit at the contract's cap.  ``setup_s`` is as timed.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("host_us_per_op", "host_us", "lower", 0.25),
    Metric("sim_us_per_op", "sim_us", "lower", 0.15, "sim"),
    Metric("sim_op_us_tail_mean", "sim_us", "lower", 0.25, "sim"),
    Metric("flash_reads_per_op", "count", "lower", 0.25, "sim"),
    Metric("flash_programs_per_op", "count", "lower", 0.15, "sim"),
    Metric("erases_per_kop", "count", "lower", 0.15, "sim"),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
    Metric("restart_host_ms", "host_ms", "lower", 0.25),
    Metric("restart_sim_us", "sim_us", "lower", 0.15, "sim"),
)


def _layer(prefix: str, unit_by_name: Dict[str, Tuple[str, str]]) -> List[Metric]:
    return [
        Metric(f"{prefix}.{name}", unit, better)
        for name, (unit, better) in unit_by_name.items()
    ]


_US, _CNT, _RATIO, _MS = "host_us", "count", "ratio", "host_ms"

#: Per-layer metrics of the traced pass (no bounds).  ``*.self_us_per_op``
#: is span time minus child-span time, summed per op.
PER_LAYER: Tuple[Metric, ...] = tuple(
    _layer("workloads", {
        "self_us_per_op": (_US, "lower"),
        "op_host_us_p50": (_US, "lower"),
        "op_host_us_p99": (_US, "lower"),
    })
    + _layer("bufferpool", {
        "self_us_per_op": (_US, "lower"),
        "hit_ratio": (_RATIO, "higher"),
        "evictions_per_kop": (_CNT, "lower"),
        "sync_writebacks_per_kop": (_CNT, "lower"),
        "eviction_stall_us_p99": (_US, "lower"),
    })
    + _layer("storage", {
        "self_us_per_op": (_US, "lower"),
        "page_fetches_per_op": (_CNT, "lower"),
    })
    + _layer("sharding", {
        "self_us_per_op": (_US, "lower"),
        "transport_us_per_op": (_US, "lower"),
        "shard_imbalance": (_RATIO, "lower"),
        "group_flush_host_us": (_US, "lower"),
    })
    + _layer("pdl", {
        "read_self_us_per_call": (_US, "lower"),
        "write_self_us_per_call": (_US, "lower"),
        "flush_self_us_per_call": (_US, "lower"),
        "new_base_frac": (_RATIO, "lower"),
        "diffs_per_diff_page": (_CNT, "higher"),
        "diff_page_count": (_CNT, "lower"),
    })
    + _layer("codec", {
        "self_us_per_op": (_US, "lower"),
        "calls_per_op": (_CNT, "lower"),
        "compute_us_per_call": (_US, "lower"),
        "encode_us_per_call": (_US, "lower"),
        "decode_us_per_call": (_US, "lower"),
        "apply_us_per_call": (_US, "lower"),
        "diff_bytes_mean": ("B", "lower"),
    })
    + _layer("mapping", {
        "self_us_per_op": (_US, "lower"),
        "lookups_per_op": (_CNT, "lower"),
        "hit_ratio": (_RATIO, "higher"),
        "writebacks_per_kop": (_CNT, "lower"),
    })
    + _layer("journal", {
        "records_per_op": (_CNT, "lower"),
        "commit_pages_per_kop": (_CNT, "lower"),
        "snapshots": (_CNT, "lower"),
        "snapshot_host_ms": (_MS, "lower"),
    })
    + _layer("gc", {
        "self_us_per_op": (_US, "lower"),
        "collections_per_kop": (_CNT, "lower"),
        "relocations_per_erase": (_CNT, "lower"),
        "sim_time_share": (_RATIO, "lower"),
    })
    + _layer("ftl", {"occupied_page_ratio": (_RATIO, "lower")})
    + _layer("chip", {
        "self_us_per_op": (_US, "lower"),
        "read_calls_per_op": (_CNT, "lower"),
        "program_calls_per_op": (_CNT, "lower"),
        "spare_programs_per_op": (_CNT, "lower"),
        "read_self_us_per_call": (_US, "lower"),
        "program_self_us_per_call": (_US, "lower"),
    })
    + _layer("backend", {
        "self_us_per_op": (_US, "lower"),
        "self_us_per_call": (_US, "lower"),
        "read_calls_per_op": (_CNT, "lower"),
        "write_calls_per_op": (_CNT, "lower"),
        "bytes_written_per_op": ("B", "lower"),
        "syncs": (_CNT, "lower"),
    })
    + _layer("recovery", {
        "host_ms_p90": (_MS, "lower"),
        "reads_per_restart": (_CNT, "lower"),
        "journal_records_replayed": (_CNT, "lower"),
        "fast_path_frac": (_RATIO, "higher"),
        "scan_host_ms": (_MS, "lower"),
        "scan_sim_us": ("sim_us", "lower"),
    })
    + _layer("fsck", {
        "host_ms": (_MS, "lower"),
        "reads_per_page": (_CNT, "lower"),
        "findings": (_CNT, "lower"),
    })
    + _layer("trace", {
        "overhead_ratio": (_RATIO, "lower"),
        "spans_per_op": (_CNT, "lower"),
        "coverage": (_RATIO, "higher"),  # summed self time / traced wall time
    })
)


def benchmark_json(command: List[str], paths: List[str]) -> dict:
    """The exact content BENCHMARK.json must have."""
    return {
        "command": command,
        "paths": paths,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
