"""The six workloads: engine set-up, one op, the oracle, and restart.

Each workload owns one engine configuration and one seeded op stream.
The program under test only ever sees generated ops; every source of
randomness is a ``random.Random`` seeded from ``--seed`` through
:func:`lane_seed` (one lane per concern, as ``repro.scenarios.stream``
does, so re-tuning mutations never shifts which pages are touched).

The loop is closed: one client, the next op issued when the previous one
returned; no write-back daemon and no timers, so simulated counters
repeat exactly for a seed.
"""

from __future__ import annotations

import copy
import os
import random
import shutil
import tempfile
import time
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.mapping import MappingConfig
from repro.core.pdl import PdlDriver
from repro.core.recovery import RecoveryReport, recover_driver
from repro.ext.journal import restart_driver
from repro.flash.chip import FlashChip
from repro.flash.spec import SAMSUNG_K9L8G08U0M, spec_for_database
from repro.flash.stats import GC
from repro.ftl.base import ChangeRun
from repro.methods import make_method
from repro.sharding.recovery import recover_all
from repro.storage.db import Database
from repro.workloads.patterns import READ, make_pattern
from repro.workloads.runner import RunnerConfig, warm_to_steady_state
from repro.workloads.synthetic import SyntheticConfig, SyntheticWorkload
from repro.workloads.tpcc.driver import estimate_database_pages
from repro.workloads.tpcc.loader import TpccDatabase
from repro.workloads.tpcc.schema import TpccScale
from repro.workloads.tpcc.transactions import TpccWorkload

from spec import FLUSH_EVERY, METHOD, PCT_CHANGED, UTILIZATION, WorkloadSpec

#: Failure details kept per run (the count is always exact).
MAX_FAILURE_DETAILS = 20

#: Table 1's page size, and the bytes one update changes (2 % = 41).
PAGE_SIZE = SAMSUNG_K9L8G08U0M.page_data_size
CHANGE = max(1, round(PAGE_SIZE * PCT_CHANGED / 100.0))


def lane_seed(seed: int, stream: str, lane: str) -> int:
    """A stable RNG seed per (seed, op stream, lane); no builtin hash()."""
    return (seed << 16) ^ zlib.crc32(f"{stream}/{lane}".encode("utf-8"))


@dataclass(frozen=True)
class Failure:
    workload: str
    phase: str
    pid: Optional[int]
    detail: str

    def __str__(self) -> str:
        where = "" if self.pid is None else f" pid {self.pid}"
        return f"{self.workload}: {self.phase}{where}: {self.detail}"


@dataclass
class Tally:
    """Ops attempted and failed over every engine a run builds (the
    discarded set-ups verify their warm-up reads too)."""

    attempted: int = 0
    failed: int = 0
    failures: List[Failure] = field(default_factory=list)

    def fail(self, failure: Failure) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_DETAILS:
            self.failures.append(failure)


@dataclass
class FinishReport:
    """What the end-of-run oracle and the timed restarts observed."""

    flush_host_us: float = 0.0
    fsck_host_ms: float = 0.0
    fsck_reads_per_page: float = 0.0
    fsck_findings: int = 0
    restart: Optional["RestartSample"] = None  # the verified, final one


@dataclass(frozen=True)
class RestartSample:
    host_ms: float
    sim_us: float
    reads: int
    fast_path: bool
    journal_records: int


#: Cumulative flash cost attributed to ops: reads, programs, erases,
#: simulated us, and the GC phase's share of that time.
OpTotals = Tuple[int, int, int, float, float]


class Workload:
    """Base class; subclasses build an engine and define one op."""

    #: Name of the op stream (workloads sharing it replay identical ops).
    stream = ""

    def __init__(
        self, spec: WorkloadSpec, seed: int, smoke: bool, workdir: Path,
        tally: Optional[Tally] = None,
    ):
        if smoke:
            # ~1/20 of the ops on a quarter of the pages, one set-up.
            spec = replace(
                spec,
                pages=spec.pages // 4,
                batch_ops=max(1, spec.batch_ops // 20),
                setups=1,
                restart_samples=min(spec.restart_samples, 2),
            )
        self.spec = spec
        self.name = spec.name
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.tally = tally if tally is not None else Tally()
        #: Timed restarts taken inside the window, and the timings of
        #: crash-restart's Figure-11 scan cross-checks.
        self.window_restarts: List[RestartSample] = []
        self.scans: List[Tuple[float, float]] = []  # (host_ms, sim_us)

    # -- randomness ----------------------------------------------------
    def rng(self, lane: str) -> random.Random:
        return random.Random(lane_seed(self.seed, self.stream, lane))

    # -- bookkeeping ---------------------------------------------------
    def fail(self, phase: str, pid: Optional[int], detail: str) -> None:
        self.tally.fail(Failure(self.name, phase, pid, detail))

    # -- lifecycle -----------------------------------------------------
    def setup(self) -> None:
        """Build chip(s), driver and database, bulk load, warm up, and
        rewind the op stream.  Identical state for an identical seed."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Release the engine built by :meth:`setup`."""

    # -- the measured surface ------------------------------------------
    def execute(self) -> None:
        """One op of the closed loop.  A raise is a failed op, not a crash."""
        self.tally.attempted += 1
        try:
            self._op()
        except Exception as exc:  # boundary: the run must finish and report
            self.fail("op", None, f"{type(exc).__name__}: {exc}")

    def _op(self) -> None:
        raise NotImplementedError

    def run_batch(self, sim_out, host_out) -> int:
        """Run ``batch_ops`` ops; fill per-op simulated-us and host-ns
        samples; return the batch's host nanoseconds."""
        execute = self.execute  # bound late: the tracer may have wrapped it
        clock = self.clock
        now = time.perf_counter_ns
        start = now()
        for i in range(self.spec.batch_ops):
            c0 = clock()
            h0 = now()
            execute()
            host_out[i] = now() - h0
            sim_out[i] = clock() - c0
        return now() - start

    def chips(self) -> Sequence[FlashChip]:
        raise NotImplementedError

    def clock(self) -> float:
        """Simulated microseconds charged so far, over all chips."""
        total = 0.0
        for chip in self.chips():
            total += chip.clock_us
        return total

    def op_totals(self) -> OpTotals:
        reads = writes = erases = 0
        time_us = gc_us = 0.0
        for chip in self.chips():
            totals = chip.stats.totals()
            reads += totals.reads
            writes += totals.writes
            erases += totals.erases
            time_us += totals.time_us
            gc_us += chip.stats.of_phase(GC).time_us
        return reads, writes, erases, time_us, gc_us

    def shards(self) -> List[PdlDriver]:
        """The PDL driver(s) under the engine, in shard order."""
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Cumulative layer counters (the harness diffs two readings)."""
        out: Dict[str, float] = {}
        for shard in self.shards():
            _accumulate(out, _driver_counters(shard))
        for index, chip in enumerate(self.chips()):
            _accumulate(out, _chip_counters(index, chip))
        return out

    def gauges(self) -> Dict[str, float]:
        """Point-in-time layer readings at window end."""
        programmed = sum(
            sum(1 for _ in chip.iter_programmed_pages()) for chip in self.chips()
        )
        return {
            "diff_page_count": sum(s.differential_page_count() for s in self.shards()),
            "occupied_page_ratio": programmed / max(1, self.logical_pages()),
        }

    def logical_pages(self) -> int:
        return self.spec.pages

    # -- end-of-run oracle and restart ---------------------------------
    def finish(self) -> FinishReport:
        """Flush, read every page back against the shadow, fsck, then
        lose power and restart (timed), and read everything back again."""
        report = FinishReport()
        start = time.perf_counter_ns()
        self._flush()
        report.flush_host_us = (time.perf_counter_ns() - start) / 1e3
        self._read_back("readback")
        start = time.perf_counter_ns()
        fsck = self._fsck()
        report.fsck_host_ms = (time.perf_counter_ns() - start) / 1e6
        report.fsck_reads_per_page = fsck.scan_reads / max(1, fsck.pages_scanned)
        report.fsck_findings = fsck.detected
        for fault in fsck.faults:
            self.fail("fsck", fault.pid, f"{fault.role} {fault.kind} at {fault.addr}")
        self._power_off()
        sample, engine = self._timed_boot(self._flash())
        self._adopt(engine)
        report.restart = sample
        self._read_back("post-restart")
        return report

    def _read_back(self, phase: str) -> None:
        for pid, expected in self._shadow_items():
            try:
                data = self._read_durable(pid)
            except Exception as exc:  # boundary: count it, keep checking
                self.fail(phase, pid, f"{type(exc).__name__}: {exc}")
                continue
            if data != expected:
                self.fail(phase, pid, "page differs from the shadow copy")

    def sample_restart(self) -> None:
        """Between two batches: what would a power loss right now cost?
        Boot a copy of the flash as it stands (whatever is not flushed
        is lost with the power), time the boot, throw the copy away.
        The live engine is not touched, and sampling through the window
        rather than at its end keeps one burst of host interference
        from landing on every sample."""
        sample, engine = self._timed_boot(self._clone(self._flash()))
        self._discard(engine)
        self.window_restarts.append(sample)

    def _timed_boot(self, flash) -> Tuple[RestartSample, object]:
        start = time.perf_counter_ns()
        engine, sim_us, reads, reports = self._boot(flash)
        host_ms = (time.perf_counter_ns() - start) / 1e6
        sample = RestartSample(
            host_ms=host_ms,
            sim_us=sim_us,
            reads=reads,
            fast_path=bool(reports) and all(r.fast_path for r in reports),
            journal_records=sum(r.journal_records for r in reports),
        )
        return sample, engine

    def _flush(self) -> None:
        raise NotImplementedError

    def _fsck(self):
        raise NotImplementedError

    def _read_durable(self, pid: int) -> bytes:
        raise NotImplementedError

    def _shadow_items(self) -> Iterator[Tuple[int, bytes]]:
        raise NotImplementedError

    def _flash(self):
        """The live engine's flash: its chips, or its directory."""
        raise NotImplementedError

    def _clone(self, flash):
        """An independent copy of ``flash`` (chips: a deep copy)."""
        return copy.deepcopy(flash)

    def _power_off(self) -> None:
        """Power loss: drop the live engine, keep its flash."""
        raise NotImplementedError

    def _boot(self, flash) -> Tuple[object, float, int, List[RecoveryReport]]:
        """Restart an engine on ``flash``.  Returns the engine (for
        :meth:`_adopt` or :meth:`_discard`), the simulated us and page
        reads the restart charged, and the per-shard recovery reports."""
        raise NotImplementedError

    def _adopt(self, engine) -> None:
        """Make a booted engine the live one."""
        raise NotImplementedError

    def _discard(self, engine) -> None:
        """Release a booted engine that will not be used."""


def _chip_cost(chips: Sequence[FlashChip]) -> Tuple[float, int]:
    """(simulated us, page reads) charged so far over ``chips``."""
    return (
        sum(chip.clock_us for chip in chips),
        sum(chip.stats.totals().reads for chip in chips),
    )


def uniform_updates(
    pattern: random.Random, mutation: random.Random, n_pages: int
) -> Iterator[Tuple[int, int, bytes]]:
    """Endless (pid, offset, payload) updates: uniform pids from the
    pattern lane, offsets and payloads from the mutation lane."""
    span = PAGE_SIZE - CHANGE + 1
    while True:
        yield pattern.randrange(n_pages), mutation.randrange(span), mutation.randbytes(CHANGE)


def _accumulate(into: Dict[str, float], add: Dict[str, float]) -> None:
    for key, value in add.items():
        into[key] = into.get(key, 0) + value


def _driver_counters(driver: PdlDriver) -> Dict[str, float]:
    """Counters that live in the driver object (and die with it)."""
    out = {
        "pdl.case1": driver.case_counts[1],
        "pdl.case2": driver.case_counts[2],
        "pdl.case3": driver.case_counts[3],
        "pdl.buffer_flushes": driver.buffer_flushes,
        "gc.collections": driver.gc.collections,
        "gc.pages_relocated": driver.gc.pages_relocated,
    }
    if driver.mapping is not None:
        out["journal.records"] = driver.mapping.journal_records
        out["journal.snapshots"] = driver.mapping.snapshots_taken
    return out


def _chip_counters(index: int, chip: FlashChip) -> Dict[str, float]:
    """Counters that live in the chip's FlashStats (and survive restarts)."""
    stats = chip.stats
    return {
        "mapping.hits": stats.mapping_hits,
        "mapping.misses": stats.mapping_misses,
        "mapping.writebacks": stats.mapping_writebacks,
        # One stall sample is recorded per logical write.
        f"shard_writes.{index}": len(stats.write_stall_us),
    }


class Pooled(Workload):
    """A workload whose engine is a ``Database`` (``self.db``): adds the
    buffer pool's readings to the layer counters and gauges."""

    db: Database

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        stats = self.db.buffer_stats
        out.update({
            "pool.hits": stats.hits,
            "pool.misses": stats.misses,
            "pool.evictions": stats.evictions,
            "pool.sync_writebacks": stats.sync_writebacks,
        })
        return out

    def gauges(self) -> Dict[str, float]:
        stall = self.db.buffer_stats.eviction_stall_percentile(99)
        return {**super().gauges(), "eviction_stall_us_p99": stall}


def read_change_write(workload, pid: int, offset: int, payload: bytes) -> bytes:
    """The paper's update operation against ``workload.driver``: read the
    page (checked against the shadow), overwrite ``payload`` at
    ``offset``, write the page back.  Returns the new image."""
    data = workload.driver.read_page(pid)
    if data != workload.shadow[pid]:
        workload.fail("read", pid, "page differs from the shadow copy")
    image = bytearray(data)
    image[offset : offset + len(payload)] = payload
    new = bytes(image)
    workload.shadow[pid] = new
    workload.driver.write_page(pid, new, update_logs=[ChangeRun(offset, payload)])
    return new


# ----------------------------------------------------------------------
# uniform-driver / uniform-x4-thread
# ----------------------------------------------------------------------
class UniformDirect(Workload):
    """The paper's update operation straight against the driver:
    read the page, change 2 % of it at a random offset, write it back."""

    stream = "uniform"
    label = METHOD

    def setup(self) -> None:
        runner = RunnerConfig(database_pages=self.spec.pages, utilization=UTILIZATION)
        self._chips = self._build_chips(runner)
        chip_arg = self._chips[0] if len(self._chips) == 1 else self._chips
        self.driver = make_method(self.label, chip_arg)
        synthetic = SyntheticWorkload(
            self.driver,
            SyntheticConfig(
                database_pages=self.spec.pages,
                pct_changed=PCT_CHANGED,
                seed=lane_seed(self.seed, self.stream, "load"),
            ),
        )
        synthetic.load()
        warm_to_steady_state(synthetic, runner)
        self.shadow: List[bytes] = synthetic.shadow
        self.ops = self.op_stream()

    def _build_chips(self, runner: RunnerConfig) -> List[FlashChip]:
        return [FlashChip(runner.spec())]

    def op_stream(self) -> Iterator[Tuple[int, int, bytes]]:
        return uniform_updates(self.rng("pattern"), self.rng("mutation"), self.spec.pages)

    def _op(self) -> None:
        read_change_write(self, *next(self.ops))

    def chips(self) -> Sequence[FlashChip]:
        return self._chips

    def shards(self) -> List[PdlDriver]:
        return [self.driver]

    def _flush(self) -> None:
        self.driver.flush()

    def _fsck(self):
        return self.driver.fsck(repair=False)

    def _read_durable(self, pid: int) -> bytes:
        return self.driver.read_page(pid)

    def _shadow_items(self) -> Iterator[Tuple[int, bytes]]:
        return enumerate(self.shadow)

    def _flash(self) -> List[FlashChip]:
        return self._chips

    def _power_off(self) -> None:
        self.driver = None

    def _recover(self, chips: List[FlashChip]):
        driver, report = recover_driver(chips[0])
        return driver, [report]

    def _boot(self, flash: List[FlashChip]):
        clock0, reads0 = _chip_cost(flash)
        driver, reports = self._recover(flash)
        clock1, reads1 = _chip_cost(flash)
        return (driver, flash), clock1 - clock0, reads1 - reads0, reports

    def _adopt(self, engine) -> None:
        self.driver, self._chips = engine


class UniformSharded(UniformDirect):
    """The same op stream through four hash-routed shards, each on its
    own worker thread; one client, so one command is in flight.

    The client and the workers are confined to one CPU.  Under the GIL
    only one of them runs at a time, so nothing is lost; what is gained
    is that a hand-off is a context switch instead of the wake-up of an
    idle virtual CPU, whose latency is the hypervisor's (identical runs
    on the sandbox flipped between 135 and 300 host us per op for
    minutes at a time) and not the engine's.
    """

    label = f"{METHOD} x4 par"
    n_shards = 4

    def setup(self) -> None:
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(self._affinity)})  # threads inherit it
        super().setup()

    def _build_chips(self, runner: RunnerConfig) -> List[FlashChip]:
        shard_spec = runner.shard_spec(self.n_shards)
        return [FlashChip(shard_spec) for _ in range(self.n_shards)]

    def shards(self) -> List[PdlDriver]:
        return list(self.driver.shards)

    def teardown(self) -> None:
        self._stop_workers()
        os.sched_setaffinity(0, self._affinity)

    def _stop_workers(self) -> None:
        driver = getattr(self, "driver", None)
        if driver is not None:
            driver.executor.shutdown()  # idempotent

    def _power_off(self) -> None:
        self._stop_workers()  # they die with the power
        super()._power_off()

    def _recover(self, chips: List[FlashChip]):
        return recover_all(chips, parallel=True)

    def _discard(self, engine) -> None:
        engine[0].executor.shutdown()


# ----------------------------------------------------------------------
# zipf-pool-file / scan-hot-pool
# ----------------------------------------------------------------------
class PoolFile(Pooled):
    """A named access pattern through ``Database`` on ``FileBackend``:
    15 % LRU pool, synchronous write-back, ``db.flush()`` every 1000 ops.

    Set-up creates the database, ages its flash to steady state straight
    through the driver, closes it, reopens it (the Figure-11 scan a real
    restart pays) and warms the pool with the pattern's first ops.
    """

    pool_fraction = 0.15
    pool_warm_ops = 4000

    def __init__(self, spec, seed, smoke, workdir, tally, pattern: str):
        self.stream = pattern
        super().__init__(spec, seed, smoke, workdir, tally)
        self.pool_pages = max(8, int(self.spec.pages * self.pool_fraction))
        self.path: Optional[str] = None
        self.db: Optional[Database] = None

    def setup(self) -> None:
        n_pages = self.spec.pages
        self.path = tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.workdir)
        runner = RunnerConfig(database_pages=n_pages, utilization=UTILIZATION)
        db = Database.open(self.path, spec=runner.spec(), n_shards=1)
        synthetic = SyntheticWorkload(
            db.driver,
            SyntheticConfig(
                database_pages=n_pages,
                pct_changed=PCT_CHANGED,
                seed=lane_seed(self.seed, self.stream, "load"),
            ),
        )
        synthetic.load()
        warm_to_steady_state(synthetic, runner)
        db.close()
        self.db = Database.open(self.path, buffer_capacity=self.pool_pages)
        self.shadow = [bytearray(image) for image in synthetic.shadow]
        self.ops = self.op_stream()
        self.n_ops = 0
        for _ in range(self.pool_warm_ops // (20 if self.smoke else 1)):
            self._op()

    def op_stream(self) -> Iterator[Tuple[bool, int, int, bytes]]:
        pattern, mutation = self.rng("pattern"), self.rng("mutation")
        span = PAGE_SIZE - CHANGE + 1
        # Patterns are lazy generators; the op budget is "never runs out".
        for op in make_pattern(self.stream).ops(self.spec.pages, 1 << 62, pattern):
            if op.kind == READ:
                yield False, op.pid, 0, b""
            else:
                yield True, op.pid, mutation.randrange(span), mutation.randbytes(CHANGE)

    def _op(self) -> None:
        update, pid, offset, payload = next(self.ops)
        with self.db.pool.pinned(pid) as page:
            if update:
                page.write(offset, payload)
                self.shadow[pid][offset : offset + len(payload)] = payload
            elif page.read(0, PAGE_SIZE) != self.shadow[pid]:
                self.fail("read", pid, "page differs from the shadow copy")
        self.n_ops += 1
        if self.n_ops % FLUSH_EVERY == 0:
            self.db.flush()

    def teardown(self) -> None:
        if self.db is not None:
            self._discard(self.db)
            self.db = None

    def _flash(self) -> str:
        return self.path

    def _clone(self, flash: str) -> str:
        copy_path = tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.workdir)
        shutil.copytree(flash, copy_path, dirs_exist_ok=True)
        return copy_path

    def _power_off(self) -> None:
        """Drop the engine without a flush; the images stay on disk."""
        self._close(self.db)
        self.db = None

    @staticmethod
    def _close(db: Database) -> None:
        db.pool.close()
        db.driver.chip.close()

    def chips(self) -> Sequence[FlashChip]:
        return [self.db.driver.chip]

    def shards(self) -> List[PdlDriver]:
        return [self.db.driver]

    def _flush(self) -> None:
        self.db.flush()

    def _fsck(self):
        return self.db.fsck(repair=False)

    def _read_durable(self, pid: int) -> bytes:
        return self.db.driver.read_page(pid)

    def _shadow_items(self) -> Iterator[Tuple[int, bytes]]:
        return enumerate(self.shadow)

    def _boot(self, flash: str):
        db = Database.open(flash, buffer_capacity=self.pool_pages)
        # Fresh chip objects: everything they have charged is the restart.
        return (db, *_chip_cost([db.driver.chip]), [])

    def _adopt(self, engine: Database) -> None:
        self.db, self.path = engine, engine.path

    def _discard(self, engine: Database) -> None:
        self._close(engine)
        shutil.rmtree(engine.path, ignore_errors=True)


# ----------------------------------------------------------------------
# crash-restart
# ----------------------------------------------------------------------
class CrashRestart(Workload):
    """Update / flush / power-loss / restart cycles over a demand-paged,
    journaled mapping table ten times larger than its RAM cache.

    One batch is one cycle: ``flushed`` update ops, ``flush()``, then
    ``unflushed`` more update ops, power loss, a timed ``restart_driver``
    and a read-back of every page the cycle touched plus as many random
    others.  The ops (and the flush) are what ``host_us_per_op`` and the
    simulated per-op metrics cover; restart has its own metrics and the
    read-back is the oracle's cost, not the engine's.
    """

    stream = "crash-restart"
    scan_every = 10  # cycles between Figure-11 scan cross-checks
    warm_cycles = 4

    def __init__(self, spec, seed, smoke, workdir, tally=None):
        super().__init__(spec, seed, smoke, workdir, tally)
        self.unflushed = max(1, self.spec.batch_ops // 17)
        self.flushed = self.spec.batch_ops - self.unflushed

    def setup(self) -> None:
        n_pages = self.spec.pages
        spec = spec_for_database(n_pages, UTILIZATION)
        self.chip = FlashChip(spec)
        # A cycle journals ~2 records per op, so this snapshots about
        # once a cycle: the window spans ~30 snapshot periods (their
        # count, which drives erases and the stall tail, moves by a few
        # percent between seeds, not by 1 in 15) and restart cost is the
        # steady sawtooth, not one ever-growing journal tail.
        self.mapping = MappingConfig.auto(
            spec, cache_entries=n_pages // 10, snapshot_interval=2 * self.spec.batch_ops
        )
        self.driver = PdlDriver(self.chip, mapping=self.mapping)
        load = self.rng("load")
        self.shadow = [load.randbytes(PAGE_SIZE) for _ in range(n_pages)]
        self.driver.load_pages(list(enumerate(self.shadow)))
        self.driver.end_of_load()
        self.ops = self.op_stream()
        self.verify_rng = self.rng("verify")
        self.cycle = 0
        self._carry: Dict[str, float] = {}
        self._totals: List[float] = [0, 0, 0, 0.0, 0.0]
        self._touched: Dict[int, List[bytes]] = {}
        attempted = self.tally.attempted
        for _ in range(self.warm_cycles):
            self._cycle(None, None, verify=False)
        self.tally.attempted = attempted  # warm-up ops are not the window's
        self._totals = [0, 0, 0, 0.0, 0.0]
        self.window_restarts.clear()
        self.scans.clear()

    op_stream = UniformDirect.op_stream

    def _op(self) -> None:
        pid, offset, payload = next(self.ops)
        # Every image the page held this phase: after a power loss an
        # un-acked page may legally hold any of them.
        images = self._touched.setdefault(pid, [self.shadow[pid]])
        images.append(read_change_write(self, pid, offset, payload))

    def run_batch(self, sim_out, host_out) -> int:
        return self._cycle(sim_out, host_out, verify=True)

    def _cycle(self, sim_out, host_out, verify: bool) -> int:
        execute = self.execute
        clock = self.clock
        now = time.perf_counter_ns
        before = super().op_totals()
        self._touched = {}
        acked: Dict[int, List[bytes]] = {}
        start = now()
        for i in range(self.spec.batch_ops):
            if i == self.flushed:
                # Everything so far is acknowledged durable ...
                self.driver.flush()
                acked, self._touched = self._touched, {}
            c0 = clock()
            h0 = now()
            execute()
            if host_out is not None:
                host_out[i] = now() - h0
                sim_out[i] = clock() - c0
        elapsed = now() - start
        after = super().op_totals()
        for i in range(5):
            self._totals[i] += after[i] - before[i]
        # ... and the ops after the flush are not: power goes now.
        self._crash_and_verify(acked, self._touched, verify)
        return elapsed

    def _crash_and_verify(self, acked, unacked, verify: bool) -> None:
        """Power loss, a timed restart of the live engine in place, and
        the durability check (warm-up cycles only resync the shadow)."""
        self._power_off()
        sample, engine = self._timed_boot(self.chip)
        self._adopt(engine)
        self.window_restarts.append(sample)
        self.cycle += 1
        if verify:
            self._verify_cycle(acked, unacked)
        else:
            for pid in unacked:
                self.shadow[pid] = self.driver.read_page(pid)

    def _verify_cycle(
        self, acked: Dict[int, List[bytes]], unacked: Dict[int, List[bytes]]
    ) -> None:
        """The durability contract: an acked page equals the shadow; an
        un-acked page equals its pre-image or one of its post-images
        (and the shadow follows whichever survived)."""
        for pid, images in unacked.items():
            data = self.driver.read_page(pid)
            if data not in images:
                self.fail("durability", pid, "un-acked write left none of its images")
            self.shadow[pid] = data
        n_pages = self.spec.pages
        others = [self.verify_rng.randrange(n_pages) for _ in range(self.flushed)]
        for pid in list(acked) + others:
            if pid not in unacked and self.driver.read_page(pid) != self.shadow[pid]:
                self.fail("durability", pid, "acked write lost across restart")
        if self.cycle % self.scan_every == 0:
            self._scan_cross_check()

    def _scan_cross_check(self) -> None:
        """Figure-11 scan of a deep copy must rebuild the same mapping."""
        twin = copy.deepcopy(self.chip)
        clock0 = twin.clock_us
        start = time.perf_counter_ns()
        scanned, _report = recover_driver(twin)
        self.scans.append(
            ((time.perf_counter_ns() - start) / 1e6, twin.clock_us - clock0)
        )
        for pid in range(self.spec.pages):
            ours, theirs = self.driver.ppmt.get(pid), scanned.ppmt.get(pid)
            if (
                ours is None
                or theirs is None
                or (ours.base_addr, ours.diff_addr) != (theirs.base_addr, theirs.diff_addr)
            ):
                self.fail("scan-equality", pid, f"restart {ours} != scan {theirs}")

    def chips(self) -> Sequence[FlashChip]:
        return [self.chip]

    def clock(self) -> float:
        return self.chip.clock_us

    def op_totals(self) -> OpTotals:
        return tuple(self._totals)  # type: ignore[return-value]

    def shards(self) -> List[PdlDriver]:
        return [self.driver]

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        _accumulate(out, self._carry)  # what earlier drivers counted
        return out

    def _flush(self) -> None:
        self.driver.flush()

    def _fsck(self):
        return self.driver.fsck(repair=False)

    def _read_durable(self, pid: int) -> bytes:
        return self.driver.read_page(pid)

    def _shadow_items(self) -> Iterator[Tuple[int, bytes]]:
        return enumerate(self.shadow)

    def sample_restart(self) -> None:
        """Every cycle already ends in a real, timed restart."""

    def _flash(self) -> FlashChip:
        return self.chip

    def _power_off(self) -> None:
        _accumulate(self._carry, _driver_counters(self.driver))
        self.driver = None

    def _boot(self, flash: FlashChip):
        clock0, reads0 = _chip_cost([flash])
        driver, report = restart_driver(flash, mapping=self.mapping)
        clock1, reads1 = _chip_cost([flash])
        return driver, clock1 - clock0, reads1 - reads0, [report]

    def _adopt(self, engine: PdlDriver) -> None:
        self.driver = engine


# ----------------------------------------------------------------------
# tpcc-spot
# ----------------------------------------------------------------------
class ShadowedDriver:
    """Driver-boundary oracle for workloads whose ops are not page ops:
    remembers every page image written, checks every image read."""

    def __init__(self, inner: PdlDriver, workload: Workload):
        self.inner = inner
        self.shadow: Dict[int, bytes] = {}
        self._workload = workload

    def read_page(self, pid: int) -> bytes:
        data = self.inner.read_page(pid)
        if data != self.shadow.get(pid, data):
            self._workload.fail("read", pid, "page differs from the last image written")
        return data

    def write_page(self, pid, data, update_logs=None) -> None:
        self.shadow[pid] = bytes(data)
        self.inner.write_page(pid, data, update_logs=update_logs)

    def write_pages(self, pages, update_logs=None) -> None:
        pages = list(pages)
        for pid, data in pages:
            self.shadow[pid] = bytes(data)
        self.inner.write_pages(pages, update_logs=update_logs)

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


#: The repo's ``small`` and ``smoke`` TPC-C scales (``repro.bench.config``).
TPCC_SMALL = TpccScale(
    warehouses=1, districts_per_warehouse=4, customers_per_district=100,
    items=500, initial_orders_per_district=80,
)
TPCC_SMOKE = TpccScale(
    warehouses=1, districts_per_warehouse=2, customers_per_district=60,
    items=200, initial_orders_per_district=40,
)


class TpccSpot(Pooled):
    """TPC-C standard mix; op = one transaction; pool = 5 % of the
    loaded pages.  Warm-up runs at least ``min_warm`` transactions and
    on until the collector has reclaimed its first block, so GC is part
    of the whole window rather than starting somewhere inside it."""

    stream = "tpcc"
    pool_fraction = 0.05
    min_warm = 300
    max_warm = 2000

    def setup(self) -> None:
        scale = TPCC_SMOKE if self.smoke else TPCC_SMALL
        est_pages = estimate_database_pages(scale)
        self.chip = FlashChip(spec_for_database(est_pages, UTILIZATION))
        self.driver = ShadowedDriver(make_method(METHOD, self.chip), self)
        # Load through a generous pool, then shrink to the measured size.
        self.db = Database(self.driver, buffer_capacity=max(est_pages // 2, 256))
        tpcc = TpccDatabase(self.db, scale, seed=lane_seed(self.seed, self.stream, "load"))
        tpcc.load()
        self.loaded_pages = self.db.allocated_pages
        self.db.pool.capacity = max(4, int(self.loaded_pages * self.pool_fraction))
        self.tpcc = TpccWorkload(tpcc, seed=lane_seed(self.seed, self.stream, "pattern"))
        warm = 0
        min_warm = self.min_warm // (10 if self.smoke else 1)
        while warm < min_warm or (
            self.chip.stats.total_erases == 0 and warm < self.max_warm
        ):
            self.tpcc.run_one()
            warm += 1

    def _op(self) -> None:
        self.tpcc.run_one()

    def chips(self) -> Sequence[FlashChip]:
        return [self.chip]

    def clock(self) -> float:
        return self.chip.clock_us

    def shards(self) -> List[PdlDriver]:
        return [self.driver.inner]

    def logical_pages(self) -> int:
        return self.db.allocated_pages

    def _flush(self) -> None:
        self.db.flush()

    def _fsck(self):
        return self.db.fsck(repair=False)

    def _read_durable(self, pid: int) -> bytes:
        return self.driver.inner.read_page(pid)

    def _shadow_items(self) -> Iterator[Tuple[int, bytes]]:
        return iter(self.driver.shadow.items())

    def _flash(self) -> FlashChip:
        return self.chip

    def _power_off(self) -> None:
        self.driver.inner = None

    def _boot(self, flash: FlashChip):
        clock0, reads0 = _chip_cost([flash])
        driver, report = recover_driver(flash)
        clock1, reads1 = _chip_cost([flash])
        return (driver, flash), clock1 - clock0, reads1 - reads0, [report]

    def _adopt(self, engine) -> None:
        self.driver.inner, self.chip = engine


def make_workload(
    spec: WorkloadSpec, seed: int, smoke: bool, workdir: Path,
    tally: Optional[Tally] = None,
) -> Workload:
    if spec.name == "uniform-driver":
        return UniformDirect(spec, seed, smoke, workdir, tally)
    if spec.name == "uniform-x4-thread":
        return UniformSharded(spec, seed, smoke, workdir, tally)
    if spec.name == "zipf-pool-file":
        return PoolFile(spec, seed, smoke, workdir, tally, "ycsb-a")
    if spec.name == "scan-hot-pool":
        return PoolFile(spec, seed, smoke, workdir, tally, "scan-hot")
    if spec.name == "crash-restart":
        return CrashRestart(spec, seed, smoke, workdir, tally)
    if spec.name == "tpcc-spot":
        return TpccSpot(spec, seed, smoke, workdir, tally)
    raise ValueError(f"unknown workload {spec.name!r}")
