"""One matrix cell: replay a resolved stream against one engine config.

A cell is (scenario stream × :class:`Cell`).  The replay builds
the configured engine from scratch, loads the stream's initial images,
executes every operation in order, flushes, and then interrogates the
engine three ways:

1. **logical state** — every page is read back, verified against the
   stream's shadow model, and folded into a SHA-256 state hash (what the
   oracle compares across configurations);
2. **self-consistency** — ``check_driver`` over every PDL shard;
3. **accounting** — the device-counter window of the replay, with a
   phase/per-block audit (erase totals must agree between the phase
   buckets and the per-block wear counters, checksum verification must
   never have failed, and flash traffic must exist exactly when the
   stream implies it).

Everything is deterministic given the stream; file-backed cells write
their images under ``workdir``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..config import EngineConfig
from ..core.check import check_driver
from ..core.pdl import PdlDriver
from ..flash.backend import FileBackend
from ..flash.chip import FlashChip
from ..flash.spec import FlashSpec
from ..ftl.base import apply_runs
from ..ftl.errors import ConfigurationError
from ..sharding.driver import ShardedDriver
from ..storage.db import Database
from ..workloads.patterns import READ, UPDATE
from ..workloads.runner import RunnerConfig
from .stream import ScenarioStream


class CellReplayError(AssertionError):
    """A configuration returned wrong page contents during replay."""


@dataclass(frozen=True)
class Cell:
    """One engine configuration of the grid: a name, an
    :class:`~repro.config.EngineConfig` and the device backend under it.

    A config with ``buffer_capacity`` set routes the replay through a
    :class:`~repro.storage.db.Database` buffer pool; without one the
    method is driven directly, the paper's "exclude the buffering
    effect" setup.  Chips are sized from the stream (``spec`` stays
    unset).  The differential-equivalence oracle holds every cell to the
    same logical state hash — for mapping-tier cells that is exactly
    the tier's correctness contract.
    """

    name: str
    config: EngineConfig
    backend: str = "memory"

    def __post_init__(self) -> None:
        if self.backend not in ("memory", "file"):
            raise ConfigurationError(f"unknown backend {self.backend!r}")

    @classmethod
    def of(cls, name: str, label: str, backend: str = "memory", **fields) -> "Cell":
        """The cell for a method label plus ``EngineConfig`` fields."""
        return cls(name, EngineConfig.parse(label, **fields), backend)

    def describe(self) -> str:
        config = self.config
        parts = [config.label, self.backend]
        if config.buffer_capacity is not None:
            parts.append(f"buffer={config.buffer_capacity}/{config.buffer_policy}")
        if config.mapping_cache is not None:
            parts.append(f"mapping={config.mapping_cache}")
        return " ".join(parts)


@dataclass
class CellResult:
    """What one cell's replay observed (the oracle's comparison unit)."""

    scenario: str
    config: str
    state_hash: str
    n_reads: int
    n_updates: int
    device_reads: int
    device_writes: int
    device_erases: int
    io_time_us: float
    check_ok: Optional[bool]  # None = driver has no checker (OPU/IPU/IPL)
    check_violations: List[str] = field(default_factory=list)
    audit_ok: bool = True
    audit_notes: List[str] = field(default_factory=list)


def _base_spec(page_size: int) -> FlashSpec:
    """A small chip geometry matching the stream's page size."""
    return FlashSpec(
        n_blocks=16, pages_per_block=8, page_data_size=page_size, page_spare_size=32
    )


def _build_chips(
    cell: Cell, stream: ScenarioStream, utilization: float, workdir: Path
) -> List[FlashChip]:
    runner = RunnerConfig(
        database_pages=stream.n_pages,
        utilization=utilization,
        base_spec=_base_spec(stream.page_size),
    )
    n_shards = cell.config.n_shards
    spec = runner.spec() if n_shards is None else runner.shard_spec(n_shards)

    def backend(index: int) -> Optional[FileBackend]:
        if cell.backend == "memory":
            return None
        slug = "".join(c if c.isalnum() else "-" for c in cell.name.lower())
        return FileBackend(workdir / f"{slug}-shard{index:02d}.flash", spec)

    return [FlashChip(spec, backend=backend(i)) for i in range(cell.config.n_chips)]


def replay_cell(
    cell: Cell,
    stream: ScenarioStream,
    *,
    utilization: float = 0.25,
    workdir: Optional[Union[str, Path]] = None,
) -> CellResult:
    """Replay ``stream`` on a freshly built engine; see the module doc.

    Raises :class:`CellReplayError` on any mid-replay or final content
    mismatch — a wrong byte is a driver bug, not a reportable metric.
    """
    import tempfile

    if workdir is None:
        with tempfile.TemporaryDirectory(prefix="repro-scenario-") as tmp:
            return replay_cell(cell, stream, utilization=utilization, workdir=tmp)
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    config = cell.config
    driver = config.build(_build_chips(cell, stream, utilization, workdir))
    db: Optional[Database] = None
    try:
        driver.load_pages(stream.initial_images())
        driver.end_of_load()
        if config.buffer_capacity is not None:
            db = Database.resume(
                driver,
                config.buffer_capacity,
                stream.n_pages,
                buffer_policy=config.buffer_policy,
            )
        shadow: Dict[int, bytes] = dict(stream.initial_images())
        snap = driver.stats.snapshot()
        n_reads = n_updates = 0
        for index, op in enumerate(stream.ops):
            if op.kind == READ:
                data = _read(driver, db, op.pid, stream.page_size)
                if data != shadow[op.pid]:
                    raise CellReplayError(
                        f"{cell.name} / {stream.scenario}: op {index} read "
                        f"wrong contents for pid {op.pid}"
                    )
                n_reads += 1
            elif op.kind == UPDATE:
                shadow[op.pid] = apply_runs(shadow[op.pid], op.runs)
                _update(driver, db, op, stream.page_size, shadow[op.pid])
                n_updates += 1
            else:  # pragma: no cover - ResolvedOp validates kinds
                raise CellReplayError(f"unknown op kind {op.kind!r}")
        if db is not None:
            db.flush()
        else:
            driver.flush()
        delta = driver.stats.delta_since(snap)

        # Logical state: verify + hash outside the measured window.
        digest = hashlib.sha256()
        for pid in range(stream.n_pages):
            data = driver.read_page(pid)
            if data != shadow[pid]:
                raise CellReplayError(
                    f"{cell.name} / {stream.scenario}: final state of pid "
                    f"{pid} diverges from the shadow model"
                )
            digest.update(data)

        check_ok, violations = _consistency(driver)
        audit_ok, notes = _audit(delta, n_reads, n_updates, driver)
        return CellResult(
            scenario=stream.scenario,
            config=cell.name,
            state_hash=digest.hexdigest(),
            n_reads=n_reads,
            n_updates=n_updates,
            device_reads=delta.totals().reads,
            device_writes=delta.totals().writes,
            device_erases=delta.total_erases,
            io_time_us=delta.total_time_us,
            check_ok=check_ok,
            check_violations=violations,
            audit_ok=audit_ok,
            audit_notes=notes,
        )
    finally:
        if db is not None:
            db.pool.close()
        driver.close()


def _read(driver, db: Optional[Database], pid: int, page_size: int) -> bytes:
    if db is None:
        return driver.read_page(pid)
    with db.pool.pinned(pid) as page:
        return page.read(0, page_size)


def _update(driver, db: Optional[Database], op, page_size: int, image: bytes) -> None:
    if db is None:
        driver.read_page(op.pid)  # the paper's read-modify-write cycle
        driver.write_page(op.pid, image, update_logs=list(op.runs))
        return
    with db.pool.pinned(op.pid) as page:
        for run in op.runs:
            page.write(run.offset, run.data)


def _consistency(driver) -> tuple:
    """Self-consistency of the replayed engine.

    PDL shards run :func:`check_driver` (free: it uses the chip's peek
    interface).  Drivers without a checker (OPU/IPU/IPL) return ``None``
    — "no checker", which the oracle treats as vacuously clean.
    """
    shards = driver.shards if isinstance(driver, ShardedDriver) else [driver]
    pdl_shards = [s for s in shards if isinstance(s, PdlDriver)]
    if not pdl_shards:
        return None, []
    violations: List[str] = []
    for index, shard in enumerate(pdl_shards):
        report = check_driver(shard)
        violations.extend(f"shard {index}: {v}" for v in report.violations)
    return not violations, violations


def _audit(delta, n_reads: int, n_updates: int, driver) -> tuple:
    """Per-cell accounting audit: device counters explained by policy."""
    notes: List[str] = []
    totals = delta.totals()
    # Erase totals must agree between the phase buckets and the
    # per-block wear counters — two independent accounting paths.
    block_erases = sum(delta.block_erases)
    if block_erases != totals.erases:
        notes.append(
            f"erase accounting split: phases say {totals.erases}, "
            f"block counters say {block_erases}"
        )
    if n_updates > 0 and totals.writes == 0:
        notes.append(f"{n_updates} updates produced no device writes")
    if n_updates == 0 and totals.writes > 0:
        notes.append(f"read-only stream produced {totals.writes} device writes")
    if (n_reads + n_updates) > 0 and totals.reads == 0:
        notes.append("replay touched pages but read nothing from the device")
    failures = driver.stats.checksum_failures
    if failures:
        notes.append(f"{failures} checksum verification failures")
    return not notes, notes
