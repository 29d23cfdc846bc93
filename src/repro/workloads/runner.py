"""Measurement harness for the synthetic experiments.

Builds a chip + driver for a method label, loads the database, warms it
into steady state (the paper re-executes until GC has touched every block
repeatedly; we warm by overwriting a multiple of the database), then
measures a window of operations and reports per-operation simulated I/O
time split the way Figure 12 splits it: read step, write step, and the
GC share amortized into writes.

Sharded labels (``"PDL (256B) x4"``) build one chip per shard, each
sized so its slice of the database keeps the paper's utilization ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from ..config import EngineConfig
from ..core.pdl import PdlDriver
from ..flash.chip import FlashChip
from ..flash.spec import FlashSpec, spec_for_database
from ..flash.stats import GC, READ_STEP, WRITE_STEP
from ..ftl.base import PageUpdateMethod
from ..ftl.ipu import IpuDriver
from ..sharding.driver import ShardedDriver
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
