"""Measurement harness for the synthetic experiments.

Builds a chip + driver for a method label, loads the database, warms it
into steady state (the paper re-executes until GC has touched every block
repeatedly; we warm by overwriting a multiple of the database), then
measures a window of operations and reports per-operation simulated I/O
time split the way Figure 12 splits it: read step, write step, and the
GC share amortized into writes.

Sharded labels (``"PDL (256B) x4"``) build one chip per shard, each
sized so its slice of the database keeps the paper's utilization ratio;
:func:`measure_sharded_updates` additionally reports *parallel* time
(the busiest chip's share of the window) next to the serial total, the
metric the shard-scaling benchmark plots.  A ``par`` label executes the
shards on real worker threads, and the measurement window is always
wall-clock timed (``ShardScalingPoint.wall_s``) so the simulated
parallel model can be compared against observed elapsed time — with
``client_threads > 1`` driving a parallel driver from several
concurrent clients (see ``docs/concurrency.md``).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..config import EngineConfig
from ..core.pdl import PdlDriver
from ..flash.chip import FlashChip
from ..flash.spec import FlashSpec, spec_for_database
from ..flash.stats import GC, READ_STEP, WRITE_STEP
from ..ftl.base import PageUpdateMethod
from ..ftl.errors import ConfigurationError
from ..ftl.ipu import IpuDriver
from ..sharding.driver import ShardedDriver
from ..sharding.executor import ParallelShardedDriver
from ..storage.db import Database
from .synthetic import SyntheticConfig, SyntheticWorkload


@dataclass
class MethodMeasurement:
    """Per-operation simulated I/O costs of one method under one workload."""

    label: str
    n_ops: int
    read_us: float
    write_us: float
    gc_us: float
    erases: int
    reads: int
    writes: int

    @property
    def overall_us(self) -> float:
        """Total time per operation (read + write + amortized GC)."""
        return self.read_us + self.write_us + self.gc_us

    @property
    def write_with_gc_us(self) -> float:
        """The writing-step bar of Figure 12(b), GC included."""
        return self.write_us + self.gc_us

    @property
    def erases_per_op(self) -> float:
        """Figure 17's longevity metric."""
        return self.erases / self.n_ops if self.n_ops else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "label": self.label,
            "n_ops": self.n_ops,
            "read_us": self.read_us,
            "write_us": self.write_us,
            "gc_us": self.gc_us,
            "overall_us": self.overall_us,
            "erases_per_op": self.erases_per_op,
        }


@dataclass
class RunnerConfig:
    """Knobs shared by all synthetic experiments."""

    database_pages: int = 2048
    utilization: float = 0.25  # the paper's 1 GB DB on the Table-1 chip
    measure_ops: int = 1000
    warmup_multiplier: float = 1.5  # warm-up cycles = multiplier × DB pages
    seed: int = 20100121
    verify: bool = True
    base_spec: Optional[FlashSpec] = None

    def _base_spec(self) -> FlashSpec:
        if self.base_spec is not None:
            return self.base_spec
        from ..flash.spec import SAMSUNG_K9L8G08U0M

        return SAMSUNG_K9L8G08U0M

    def spec(self) -> FlashSpec:
        return spec_for_database(self.database_pages, self.utilization, self._base_spec())

    def shard_spec(self, n_shards: int) -> FlashSpec:
        """Per-shard chip spec: each shard holds ~1/N of the database at
        the same utilization ratio, so GC pressure per shard matches the
        single-chip setup."""
        if n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        pages = -(-self.database_pages // n_shards)  # ceil division
        spec = spec_for_database(pages, self.utilization, self._base_spec())
        # Tiny shards need allocation headroom beyond the utilization
        # fit: an active block, the 2-block GC reserve, and at least one
        # reclaimable victim — otherwise a shard can wedge with all its
        # data in the active block and nothing to collect.
        min_blocks = -(-pages // spec.pages_per_block) + 4
        if spec.n_blocks < min_blocks:
            spec = spec.scaled(min_blocks)
        return spec



def aging_horizon(driver: PageUpdateMethod, change_size: int) -> int:
    """How many accumulated updates a page carries in steady state.

    PDL's state per page is its position in the Case-3 cycle: updates
    accumulate into the differential until it exceeds
    Max_Differential_Size, when a fresh base resets it.  With updates of
    ``change_size`` random bytes, expected coverage after k updates is
    ``1 - (1 - s)^k`` of the page, so the cycle length solves
    ``coverage × page = effective_max``.  Other methods carry no
    accumulated per-page flash state, so their horizon is 1.
    """
    if isinstance(driver, ShardedDriver):
        # Shards age independently but identically; use a representative.
        driver = driver.shards[0]
    if not isinstance(driver, PdlDriver):
        return 1
    effective_max = driver.effective_max
    page = driver.page_size
    s = min(change_size / page, 0.98)
    frac = min(effective_max / page, 0.98)
    if s >= frac:
        return 1
    horizon = math.log(1.0 - frac) / math.log(1.0 - s)
    return max(1, int(math.ceil(horizon)))


def warm_to_steady_state(workload: SyntheticWorkload, runner: RunnerConfig) -> int:
    """Bring the database to the paper's steady state; returns ops used.

    Two phases:

    1. *Aging*: every page receives one collapsed reflection of
       ``k ~ U(1, K_max)`` accumulated updates, seeding PDL's
       differential-size distribution (uniform position in the Case-3
       cycle) without replaying the full history.
    2. *Churn*: regular update cycles until the chip's erase count
       reaches its block count (every block reclaimed once on average —
       GC/merging active and the allocator wrapped), bounded by
       ``16 × database_pages`` cycles.

    The paper instead re-executes until GC has hit each block ten times;
    the aging pass reproduces the same per-page state directly (see
    DESIGN.md, substitutions).
    """
    driver = workload.driver
    ops = 0
    k_max = aging_horizon(driver, workload.change_size)
    rng = workload.rng
    pids = list(range(workload.config.database_pages))
    rng.shuffle(pids)
    for pid in pids:
        workload.update_cycle(pid, n_updates=rng.randint(1, k_max))
        ops += 1
    shard = driver.shards[0] if isinstance(driver, ShardedDriver) else driver
    if isinstance(shard, IpuDriver):
        return ops  # in-place update has no free-space state to churn
    # total_blocks covers the whole array for sharded drivers.
    target_erases = driver.total_blocks
    max_ops = 16 * workload.config.database_pages
    chunk = max(64, workload.config.database_pages // 4)
    while driver.stats.total_erases < target_erases and ops < max_ops:
        workload.run_updates(chunk)
        ops += chunk
    return ops


def _build_driver(
    label: str, runner: RunnerConfig, method_kwargs: Optional[Dict]
) -> PageUpdateMethod:
    """The engine ``label`` (+ fields) names, over chips sized by ``runner``."""
    engine = EngineConfig.parse(label, **(method_kwargs or {}))
    spec = runner.spec() if engine.n_shards is None else runner.shard_spec(engine.n_shards)
    return engine.build([FlashChip(spec) for _ in range(engine.n_chips)])


def build_workload(
    label: str,
    runner: RunnerConfig,
    pct_changed: float,
    n_updates_till_write: int,
    method_kwargs: Optional[Dict] = None,
) -> SyntheticWorkload:
    """Chip + driver + loaded synthetic database for one method.

    ``method_kwargs`` are further :class:`~repro.config.EngineConfig`
    fields (ablations: ``diff_unit``, ``gc``, …).  Sharded labels build
    one chip per shard via :meth:`RunnerConfig.shard_spec`.
    """
    driver = _build_driver(label, runner, method_kwargs)
    config = SyntheticConfig(
        database_pages=runner.database_pages,
        pct_changed=pct_changed,
        n_updates_till_write=n_updates_till_write,
        seed=runner.seed,
        verify=runner.verify,
    )
    workload = SyntheticWorkload(driver, config)
    workload.load()
    return workload


def measure_updates(
    label: str,
    runner: RunnerConfig,
    pct_changed: float = 2.0,
    n_updates_till_write: int = 1,
    method_kwargs: Optional[Dict] = None,
) -> MethodMeasurement:
    """Steady-state cost of pure update cycles (Experiments 1–3, 5, 6)."""
    workload = build_workload(
        label, runner, pct_changed, n_updates_till_write, method_kwargs
    )
    warm_to_steady_state(workload, runner)
    stats = workload.driver.stats
    snap = stats.snapshot()
    workload.run_updates(runner.measure_ops)
    delta = stats.delta_since(snap)
    return _measurement(label, runner.measure_ops, delta)


def measure_mix(
    label: str,
    runner: RunnerConfig,
    pct_update: float,
    pct_changed: float = 2.0,
    n_updates_till_write: int = 1,
    method_kwargs: Optional[Dict] = None,
) -> MethodMeasurement:
    """Steady-state cost of a read-only/update mix (Experiment 4).

    The warm-up is pure updates so that the database is in its updated
    steady state even when the measured mix is read-only — the paper's
    "read-only on updated pages" special case.
    """
    workload = build_workload(
        label, runner, pct_changed, n_updates_till_write, method_kwargs
    )
    warm_to_steady_state(workload, runner)
    stats = workload.driver.stats
    snap = stats.snapshot()
    workload.run_mix(runner.measure_ops, pct_update)
    delta = stats.delta_since(snap)
    return _measurement(label, runner.measure_ops, delta)


@dataclass
class ShardScalingPoint:
    """One point of the shard-scaling sweep (``bench_sharding``).

    ``serial_us_per_op`` is total device busy time per operation (the
    single-chip metric, invariant-ish in the shard count);
    ``parallel_us_per_op`` is the busiest chip's busy time per operation
    — elapsed time with the chips operating concurrently, the number
    that should shrink ~linearly as shards are added.
    """

    label: str
    n_shards: int
    n_ops: int
    serial_us_per_op: float
    parallel_us_per_op: float
    gc_us_per_op: float
    erases: int
    per_shard_erases: List[int] = field(default_factory=list)
    #: Erase totals since chip creation (includes warm-up): short
    #: measurement windows may see no GC at all, but reclamation history
    #: still shows how many shards collect independently.
    lifetime_shard_erases: List[int] = field(default_factory=list)
    group_flushes: int = 0
    #: Measured host wall-clock seconds of the measurement window — the
    #: *observed* counterpart of the simulated parallel model, so the
    #: two can be compared (see docs/concurrency.md).  Unlike the
    #: simulated numbers this depends on host speed and, for pure
    #: in-memory work, on the GIL.
    wall_s: float = 0.0
    #: Client threads that drove the window (1 = single caller; more
    #: requires a thread-safe ParallelShardedDriver).
    client_threads: int = 1
    #: Whether shard operations actually executed on worker threads.
    measured_parallel: bool = False

    @property
    def parallel_speedup(self) -> float:
        """How much of the fleet the workload keeps busy (≤ n_shards)."""
        if self.parallel_us_per_op == 0.0:
            return 1.0
        return self.serial_us_per_op / self.parallel_us_per_op

    @property
    def wall_us_per_op(self) -> float:
        """Measured wall-clock per operation, in host microseconds."""
        return self.wall_s * 1e6 / self.n_ops if self.n_ops else 0.0

    @property
    def gc_parallelism(self) -> int:
        """Shards whose GC has done work so far (reclamation spread)."""
        return sum(1 for erases in self.lifetime_shard_erases if erases > 0)

    def as_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "n_shards": self.n_shards,
            "n_ops": self.n_ops,
            "serial_us_per_op": self.serial_us_per_op,
            "parallel_us_per_op": self.parallel_us_per_op,
            "parallel_speedup": self.parallel_speedup,
            "gc_us_per_op": self.gc_us_per_op,
            "erases": self.erases,
            "gc_parallelism": self.gc_parallelism,
            "wall_s": self.wall_s,
            "wall_us_per_op": self.wall_us_per_op,
            "client_threads": self.client_threads,
            "measured_parallel": self.measured_parallel,
        }


def measure_sharded_updates(
    label: str,
    runner: RunnerConfig,
    pct_changed: float = 2.0,
    n_updates_till_write: int = 1,
    method_kwargs: Optional[Dict] = None,
    client_threads: int = 1,
) -> ShardScalingPoint:
    """Steady-state update cost with per-chip parallel-time accounting.

    Works for sharded *and* plain labels (a plain label reports equal
    serial and parallel time), so a sweep can include the bare
    single-chip driver as its baseline.

    Besides the simulated serial/parallel split, the measurement window
    is timed with the host clock (``wall_s``), so the simulated model
    can be compared against observed elapsed time.  ``client_threads``
    greater than 1 drives the window from that many concurrent client
    threads on disjoint pid partitions of one pre-drawn plan — the same
    seeded operation stream a serial window executes, so the measured
    work (and final database state) is thread-count-invariant.  Only
    valid for ``par`` labels, whose executor serializes each shard's
    operations at its gate.
    """
    workload = build_workload(
        label, runner, pct_changed, n_updates_till_write, method_kwargs
    )
    driver = workload.driver
    is_parallel = isinstance(driver, ParallelShardedDriver)
    if client_threads > 1 and not is_parallel:
        raise ConfigurationError(
            f"label {label!r} builds a serial driver; concurrent client "
            "threads need a parallel one (append ' par' to the label)"
        )
    warm_to_steady_state(workload, runner)
    chips = driver.chips
    stats = driver.stats
    clocks_before = [chip.clock_us for chip in chips]
    erases_before = [chip.stats.total_erases for chip in chips]
    cycles_before = workload.update_cycles
    snap = stats.snapshot()
    wall_start = time.perf_counter()
    try:
        if client_threads > 1:
            workload.run_updates_threaded(runner.measure_ops, client_threads)
        else:
            workload.run_updates(runner.measure_ops)
        wall_s = time.perf_counter() - wall_start
    finally:
        if is_parallel:
            # The workload is done with the driver; stop the worker
            # pool so repeated measurements do not leak threads.  The
            # chips stay open for the counter reads below.
            driver.executor.shutdown()
    delta = stats.delta_since(snap)
    clock_deltas = [
        chip.clock_us - before for chip, before in zip(chips, clocks_before)
    ]
    per_shard_erases = [
        chip.stats.total_erases - before
        for chip, before in zip(chips, erases_before)
    ]
    n_ops = workload.update_cycles - cycles_before
    return ShardScalingPoint(
        label=label,
        n_shards=len(chips),
        n_ops=n_ops,
        serial_us_per_op=sum(clock_deltas) / n_ops,
        parallel_us_per_op=max(clock_deltas) / n_ops,
        gc_us_per_op=delta.of_phase(GC).time_us / n_ops,
        erases=delta.total_erases,
        per_shard_erases=per_shard_erases,
        lifetime_shard_erases=[chip.stats.total_erases for chip in chips],
        group_flushes=driver.group_flushes if isinstance(driver, ShardedDriver) else 0,
        wall_s=wall_s,
        client_threads=client_threads,
        measured_parallel=is_parallel,
    )


@dataclass
class BufferPoolMeasurement:
    """One point of the buffer-pool sweep (``bench_exp7_fig18 --tiny``).

    Captures what the subsystem's knobs actually move: how evictions
    were served (clean reclaim vs synchronous backstop), the
    client-visible eviction-stall tail in host microseconds, the hit
    ratio, and the flash traffic behind it all.
    """

    label: str
    workload: str  # "skewed-update" or "scan-mix"
    policy: str
    writeback: str  # "sync" or "background"
    buffer_pages: int
    n_ops: int
    hit_ratio: float
    eviction_stall_p99_us: float
    eviction_stall_max_us: float
    evictions: int
    clean_reclaims: int
    sync_writebacks: int
    writeback_batches: int
    writeback_pages: int
    flash_reads: int
    flash_writes: int
    io_time_us: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "workload": self.workload,
            "policy": self.policy,
            "writeback": self.writeback,
            "buffer_pages": self.buffer_pages,
            "n_ops": self.n_ops,
            "hit_ratio": self.hit_ratio,
            "eviction_stall_p99_us": self.eviction_stall_p99_us,
            "eviction_stall_max_us": self.eviction_stall_max_us,
            "evictions": self.evictions,
            "clean_reclaims": self.clean_reclaims,
            "sync_writebacks": self.sync_writebacks,
            "writeback_batches": self.writeback_batches,
            "writeback_pages": self.writeback_pages,
            "flash_reads": self.flash_reads,
            "flash_writes": self.flash_writes,
            "io_time_us": self.io_time_us,
        }


def build_buffered_db(
    label: str,
    runner: RunnerConfig,
    buffer_pages: int,
    *,
    policy: str = "lru",
    writeback=None,
    method_kwargs: Optional[Dict] = None,
) -> Database:
    """Chip(s) + driver + loaded database behind a configured pool.

    The initial image is bulk-loaded straight through the driver (not
    the pool), then a :class:`~repro.storage.db.Database` is resumed on
    top with the requested eviction policy and write-back mode, and the
    stats are reset so measurements see only buffered traffic.
    """
    driver = _build_driver(label, runner, method_kwargs)
    rng = random.Random(runner.seed)
    driver.load_pages(
        [(pid, rng.randbytes(driver.page_size)) for pid in range(runner.database_pages)]
    )
    driver.end_of_load()
    driver.stats.reset()
    return Database.resume(
        driver,
        buffer_pages,
        runner.database_pages,
        buffer_policy=policy,
        writeback=writeback,
    )


def _pool_measurement(
    db: Database, label: str, workload: str, n_ops: int
) -> BufferPoolMeasurement:
    stats = db.buffer_stats
    totals = db.driver.stats.totals()
    return BufferPoolMeasurement(
        label=label,
        workload=workload,
        policy=stats.policy,
        writeback="background" if db.pool.writeback is not None else "sync",
        buffer_pages=db.pool.capacity,
        n_ops=n_ops,
        hit_ratio=stats.hit_ratio,
        eviction_stall_p99_us=stats.eviction_stall_percentile(99),
        eviction_stall_max_us=stats.max_eviction_stall_us,
        evictions=stats.evictions,
        clean_reclaims=stats.clean_reclaims,
        sync_writebacks=stats.sync_writebacks,
        writeback_batches=stats.writeback_batches,
        writeback_pages=stats.writeback_pages,
        flash_reads=totals.reads,
        flash_writes=totals.writes,
        io_time_us=totals.time_us,
    )


def measure_buffered_updates(
    label: str,
    runner: RunnerConfig,
    *,
    buffer_fraction: float = 0.15,
    policy: str = "lru",
    writeback=None,
    hot_fraction: float = 0.9,
    change_bytes: int = 16,
    method_kwargs: Optional[Dict] = None,
) -> BufferPoolMeasurement:
    """Skewed updates through the buffer pool (the write-back workload).

    90 % of updates hit 10 % of the pages (the shape heavy user traffic
    has); the pool is far smaller than the working set, so almost every
    miss needs an eviction.  With synchronous write-back each dirty
    eviction stalls the client on flash; with the background daemon the
    eviction path mostly reclaims frames the daemon already cleaned —
    ``eviction_stall_p99_us`` is the comparison the buffer-pool
    benchmark asserts.
    """
    buffer_pages = max(4, int(runner.database_pages * buffer_fraction))
    db = build_buffered_db(
        label, runner, buffer_pages,
        policy=policy, writeback=writeback, method_kwargs=method_kwargs,
    )
    try:
        rng = random.Random(runner.seed + 1)
        n_pages = runner.database_pages
        hot_pages = max(1, n_pages // 10)
        for _ in range(runner.measure_ops):
            if rng.random() < hot_fraction:
                pid = rng.randrange(hot_pages)
            else:
                pid = rng.randrange(n_pages)
            with db.pool.pinned(pid) as page:
                offset = rng.randrange(page.size - change_bytes)
                page.write(offset, rng.randbytes(change_bytes))
        db.flush()
        return _pool_measurement(db, label, "skewed-update", runner.measure_ops)
    finally:
        db.pool.close()
        db.driver.close()


def measure_scan_mix(
    label: str,
    runner: RunnerConfig,
    *,
    buffer_fraction: float = 0.15,
    policy: str = "lru",
    writeback=None,
    scan_every: int = 400,
    write_fraction: float = 0.5,
    warmup_cycles: int = 2,
    method_kwargs: Optional[Dict] = None,
) -> BufferPoolMeasurement:
    """A TPC-C-shaped mix: hot-record traffic with table scans underneath.

    Point accesses hammer a hot set that fits in the pool; full
    sequential scans (the STOCK-LEVEL / reporting shape) sweep every
    page *while the point traffic keeps running*, which is how a real
    system meets a scan.  Under LRU every sweep floods the pool and
    flushes the hot set; the scan-resistant 2Q policy keeps scan pages
    in its FIFO probation queue while re-referenced hot pages live in
    the protected LRU, so the hot set survives the sweep — higher hit
    ratio *and* fewer dirty evictions, hence no extra flash writes.
    Measured over a steady window after ``warmup_cycles`` scan cycles.
    """
    buffer_pages = max(8, int(runner.database_pages * buffer_fraction))
    db = build_buffered_db(
        label, runner, buffer_pages,
        policy=policy, writeback=writeback, method_kwargs=method_kwargs,
    )
    try:
        rng = random.Random(runner.seed + 2)
        n_pages = runner.database_pages
        hot_pages = max(1, n_pages // 10)

        def hot_access() -> None:
            pid = rng.randrange(hot_pages)
            with db.pool.pinned(pid) as page:
                if rng.random() < write_fraction:
                    offset = rng.randrange(page.size - 8)
                    page.write(offset, rng.randbytes(8))
                else:
                    page.read(0, 8)

        def one_cycle() -> int:
            ops = 0
            for _ in range(scan_every):  # pure OLTP burst
                hot_access()
                ops += 1
            for pid in range(n_pages):  # the scan, OLTP still running
                db.page(pid).read(0, 8)
                ops += 1
                if pid % 2 == 0:
                    hot_access()
                    ops += 1
            return ops

        for _ in range(warmup_cycles):
            one_cycle()
        # Everything below is windowed past the warm-up — buffer
        # counters included, so stall/eviction columns describe the
        # same steady window as the hit ratio and flash traffic.
        stats = db.buffer_stats
        before = stats.as_dict()
        stalls0 = stats.eviction_stalls.count
        snap = db.driver.stats.snapshot()
        n_ops = 0
        cycles = max(2, runner.measure_ops // (scan_every + n_pages))
        for _ in range(cycles):
            n_ops += one_cycle()
        db.flush()
        delta = db.driver.stats.delta_since(snap)
        after = stats.as_dict()

        def window(key: str) -> int:
            return after[key] - before[key]

        hits, misses = window("hits"), window("misses")
        accesses = hits + misses
        window_stalls = stats.eviction_stalls.samples[stalls0:]
        from ..flash.stats import percentile

        return BufferPoolMeasurement(
            label=label,
            workload="scan-mix",
            policy=stats.policy,
            writeback="background" if db.pool.writeback is not None else "sync",
            buffer_pages=db.pool.capacity,
            n_ops=n_ops,
            hit_ratio=hits / accesses if accesses else 0.0,
            eviction_stall_p99_us=percentile(window_stalls, 99),
            eviction_stall_max_us=max(window_stalls, default=0.0),
            evictions=window("evictions"),
            clean_reclaims=window("clean_reclaims"),
            sync_writebacks=window("sync_writebacks"),
            writeback_batches=window("writeback_batches"),
            writeback_pages=window("writeback_pages"),
            flash_reads=delta.totals().reads,
            flash_writes=delta.totals().writes,
            io_time_us=delta.totals().time_us,
        )
    finally:
        db.pool.close()
        db.driver.close()


def _measurement(label: str, n_ops: int, delta) -> MethodMeasurement:
    read = delta.of_phase(READ_STEP)
    write = delta.of_phase(WRITE_STEP)
    gc = delta.of_phase(GC)
    return MethodMeasurement(
        label=label,
        n_ops=n_ops,
        read_us=read.time_us / n_ops,
        write_us=write.time_us / n_ops,
        gc_us=gc.time_us / n_ops,
        erases=delta.total_erases,
        reads=delta.totals().reads,
        writes=delta.totals().writes,
    )
