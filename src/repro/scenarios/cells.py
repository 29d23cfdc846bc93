"""One matrix cell: replay a resolved stream against one engine config.

A cell is (scenario stream × :class:`EngineConfig`).  The replay builds
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

from ..core.check import check_driver
from ..core.pdl import PdlDriver
from ..flash.backend import FileBackend
from ..flash.chip import FlashChip
from ..flash.spec import FlashSpec
from ..ftl.base import apply_runs
from ..methods import make_method, parse_gc_label, parse_parallel_label, parse_sharded_label
from ..sharding.driver import ShardedDriver
from ..storage.bufferpool import WritebackConfig
from ..storage.db import Database
from ..workloads.patterns import READ, UPDATE
from ..workloads.runner import RunnerConfig
from .stream import ScenarioStream


class CellReplayError(AssertionError):
    """A configuration returned wrong page contents during replay."""


@dataclass(frozen=True)
class EngineConfig:
    """One engine configuration of the grid.

    ``label`` is any :func:`repro.methods.make_method` label — method,
    ``xN`` shard count, ``par`` executor and ``gc=`` policy
    tokens included.  ``buffer_pages`` > 0 routes the replay through a
    :class:`~repro.storage.db.Database` buffer pool with the given
    eviction policy (``writeback="background"`` adds the write-back
    daemon); 0 drives the method directly, the paper's "exclude the
    buffering effect" setup.

    ``mapping_cache`` (PDL labels only) enables the demand-paged
    mapping tier on every shard with that many table entries of RAM
    (``0`` = resident but still journaled/snapshotted);
    ``mapping_interval`` overrides the snapshot cadence in journal
    records.  The differential-equivalence oracle holds these cells to
    the same logical state hash as the plain in-RAM table, which is
    exactly the tier's correctness contract.
    """

    name: str
    label: str
    backend: str = "memory"
    buffer_pages: int = 0
    buffer_policy: str = "lru"
    writeback: Optional[str] = None
    mapping_cache: Optional[int] = None
    mapping_interval: Optional[int] = None

    def __post_init__(self) -> None:
        if self.backend not in ("memory", "file"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.buffer_pages < 0:
            raise ValueError("buffer_pages must be non-negative")
        if self.writeback not in (None, "background"):
            raise ValueError(f"unknown writeback mode {self.writeback!r}")
        if self.writeback is not None and self.buffer_pages == 0:
            raise ValueError("writeback needs a buffer pool (buffer_pages > 0)")
        if self.mapping_cache is not None and self.mapping_cache < 0:
            raise ValueError("mapping_cache must be non-negative")
        if self.mapping_interval is not None and self.mapping_cache is None:
            raise ValueError("mapping_interval requires mapping_cache")

    @property
    def buffered(self) -> bool:
        return self.buffer_pages > 0

    def describe(self) -> str:
        parts = [self.label, self.backend]
        if self.buffered:
            mode = self.writeback or "sync"
            parts.append(f"buffer={self.buffer_pages}/{self.buffer_policy}/{mode}")
        if self.mapping_cache is not None:
            parts.append(f"mapping={self.mapping_cache}")
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
    config: EngineConfig, stream: ScenarioStream, utilization: float, workdir: Path
) -> Union[FlashChip, List[FlashChip]]:
    runner = RunnerConfig(
        database_pages=stream.n_pages,
        utilization=utilization,
        base_spec=_base_spec(stream.page_size),
    )
    plain, _gc = parse_gc_label(config.label)
    plain, _par = parse_parallel_label(plain)
    _base, n_shards = parse_sharded_label(plain)

    def chip(spec: FlashSpec, index: int) -> FlashChip:
        if config.backend == "memory":
            return FlashChip(spec)
        path = workdir / f"{_slug(config.name)}-shard{index:02d}.flash"
        return FlashChip(spec, backend=FileBackend(path, spec))

    if n_shards is None:
        return chip(runner.spec(), 0)
    spec = runner.shard_spec(n_shards)
    return [chip(spec, i) for i in range(n_shards)]


def _slug(name: str) -> str:
    return "".join(c if c.isalnum() else "-" for c in name.lower())


def replay_cell(
    config: EngineConfig,
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
            return replay_cell(
                config, stream, utilization=utilization, workdir=tmp
            )
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    chips = _build_chips(config, stream, utilization, workdir)
    method_kwargs: Dict[str, object] = {}
    if config.mapping_cache is not None:
        from ..core.mapping import MappingConfig

        spec = chips.spec if isinstance(chips, FlashChip) else chips[0].spec
        method_kwargs["mapping"] = MappingConfig.auto(
            spec,
            cache_entries=config.mapping_cache,
            snapshot_interval=config.mapping_interval,
        )
    driver = make_method(config.label, chips, **method_kwargs)
    db: Optional[Database] = None
    try:
        driver.load_pages(stream.initial_images())
        driver.end_of_load()
        if config.buffered:
            writeback = (
                WritebackConfig() if config.writeback == "background" else None
            )
            db = Database.resume(
                driver,
                config.buffer_pages,
                stream.n_pages,
                buffer_policy=config.buffer_policy,
                writeback=writeback,
            )
        shadow: Dict[int, bytes] = dict(stream.initial_images())
        snap = driver.stats.snapshot()
        n_reads = n_updates = 0
        for index, op in enumerate(stream.ops):
            if op.kind == READ:
                data = _read(driver, db, op.pid, stream.page_size)
                if data != shadow[op.pid]:
                    raise CellReplayError(
                        f"{config.name} / {stream.scenario}: op {index} read "
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
                    f"{config.name} / {stream.scenario}: final state of pid "
                    f"{pid} diverges from the shadow model"
                )
            digest.update(data)

        check_ok, violations = _consistency(driver)
        audit_ok, notes = _audit(delta, n_reads, n_updates, driver)
        return CellResult(
            scenario=stream.scenario,
            config=config.name,
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
