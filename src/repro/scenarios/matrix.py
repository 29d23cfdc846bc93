"""The scenario × configuration matrix harness.

Runs a set of named patterns against a grid of engine configurations,
feeds every scenario's cells through the differential-equivalence
oracle, and emits one cross-scenario report table
(``bench_results/scenarios.json`` via the paper suite's
:class:`~repro.bench.reporting.ResultTable`).

The default grid covers every axis the engine has grown: the four
page-update methods, shard counts,
GC victim policies, both device backends, and buffered configurations
with each eviction policy and write-back mode.  ``TINY_CONFIGS`` /
:func:`tiny_patterns` are the reduced CI smoke grid — same axes, fewer
cells and operations (see ``scripts/run_scenarios.py --tiny``).
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..bench.reporting import ResultTable
from ..workloads.patterns import AccessPattern, TracePattern, make_pattern
from .cells import Cell, CellResult, replay_cell
from .oracle import OracleVerdict, compare_cells
from .stream import build_stream

#: The paper's seed (runner default), reused for scenario streams.
DEFAULT_SEED = 20100121

#: The full configuration grid: methods × shards × GC policy
#: × backend × buffer policy/write-back × mapping tier.
DEFAULT_CONFIGS: Tuple[Cell, ...] = (
    Cell.of("pdl-256", "PDL (256B)"),
    Cell.of("pdl-2k", "PDL (2KB)"),
    Cell.of("opu", "OPU"),
    Cell.of("ipu", "IPU"),
    Cell.of("ipl-512", "IPL (512B)"),
    Cell.of("pdl-256-file", "PDL (256B)", backend="file"),
    Cell.of("pdl-x4", "PDL (256B) x4"),
    Cell.of("pdl-x4-cb", "PDL (256B) x4 gc=cb"),
    Cell.of("opu-x2-file", "OPU x2", backend="file"),
    Cell.of("pdl-buf-lru", "PDL (256B)", buffer_capacity=12),
    Cell.of(
        "pdl-buf-2q-bg",
        "PDL (256B)",
        buffer_capacity=12,
        buffer_policy="2q",
        writeback="background",
    ),
    # Demand-paged mapping tier: the oracle holds these to the identical
    # logical state hash as the in-RAM table (tight cache, resident
    # cache and sharded variants).
    Cell.of("pdl-map-16", "PDL (256B)", mapping_cache=16, snapshot_interval=48),
    Cell.of("pdl-map-res", "PDL (256B)", mapping_cache=0),
    Cell.of("pdl-map-x2", "PDL (256B) x2", mapping_cache=16),
)

#: The CI smoke grid: one representative per axis, eight configs.
TINY_CONFIGS: Tuple[Cell, ...] = (
    Cell.of("pdl-256", "PDL (256B)"),
    Cell.of("opu", "OPU"),
    Cell.of("ipu", "IPU"),
    Cell.of("ipl-512", "IPL (512B)"),
    Cell.of("pdl-256-file", "PDL (256B)", backend="file"),
    Cell.of("pdl-x4-cb", "PDL (256B) x4 gc=cb"),
    Cell.of("pdl-x2-thread", "PDL (256B) x2"),  # name kept: scenarios.json is keyed by it
    Cell.of("pdl-buf-2q-bg", "PDL (256B)", buffer_capacity=10,
            buffer_policy="2q", writeback="background"),
    Cell.of("pdl-map-16", "PDL (256B)", mapping_cache=16, snapshot_interval=48),
)

_DEFAULT_PATTERN_NAMES = (
    "sequential",
    "strided",
    "zipf-0.9",
    "zipf-1.2",
    "scan-hot",
    "ycsb-a",
    "ycsb-b",
    "ycsb-d",
    "ycsb-f",
)

_TINY_PATTERN_NAMES = (
    "sequential",
    "strided",
    "zipf-0.9",
    "scan-hot",
    "ycsb-a",
    "ycsb-f",
)


def default_patterns(trace: Optional[Union[str, Path]] = None) -> List[AccessPattern]:
    """The full pattern set; ``trace`` appends a trace-replay scenario."""
    patterns = [make_pattern(name) for name in _DEFAULT_PATTERN_NAMES]
    if trace is not None:
        patterns.append(TracePattern(trace))
    return patterns


def tiny_patterns(trace: Optional[Union[str, Path]] = None) -> List[AccessPattern]:
    """The reduced CI pattern set (six scenarios)."""
    patterns = [make_pattern(name) for name in _TINY_PATTERN_NAMES]
    if trace is not None:
        patterns.append(TracePattern(trace))
    return patterns


@dataclass
class MatrixResult:
    """Everything one matrix run produced."""

    table: ResultTable
    cells: Dict[Tuple[str, str], CellResult] = field(default_factory=dict)
    verdicts: List[OracleVerdict] = field(default_factory=list)

    @property
    def equivalent(self) -> bool:
        return all(v.equivalent for v in self.verdicts)

    @property
    def divergences(self) -> List[str]:
        return [f for v in self.verdicts for f in v.failures]

    def raise_if_diverged(self) -> None:
        for verdict in self.verdicts:
            verdict.raise_if_diverged()


def run_matrix(
    patterns: Sequence[AccessPattern],
    configs: Sequence[Cell],
    *,
    n_pages: int = 96,
    n_ops: int = 600,
    page_size: int = 256,
    seed: int = DEFAULT_SEED,
    utilization: float = 0.25,
    workdir: Optional[Union[str, Path]] = None,
) -> MatrixResult:
    """Replay every pattern against every configuration.

    Each pattern is resolved into one seeded stream, replayed in every
    cell, and the cells are compared by the oracle.  The report table
    carries one row per cell plus a per-scenario verdict note; nothing
    raises — inspect :attr:`MatrixResult.equivalent` or call
    :meth:`MatrixResult.raise_if_diverged`.
    """
    if not patterns:
        raise ValueError("run_matrix needs at least one pattern")
    if not configs:
        raise ValueError("run_matrix needs at least one configuration")
    names = [c.name for c in configs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate config names in grid: {names}")
    table = ResultTable(
        experiment="scenarios",
        title=(
            f"Scenario × config differential-equivalence matrix "
            f"({len(patterns)} patterns × {len(configs)} configs, "
            f"{n_ops} ops over {n_pages} pages)"
        ),
        columns=(
            "scenario",
            "config",
            "reads",
            "updates",
            "dev_reads",
            "dev_writes",
            "erases",
            "io_time_ms",
            "check",
            "state_hash",
        ),
    )
    result = MatrixResult(table=table)
    with tempfile.TemporaryDirectory(prefix="repro-scenarios-") as tmp:
        base_dir = Path(workdir) if workdir is not None else Path(tmp)
        for pattern in patterns:
            stream = build_stream(
                pattern,
                n_pages=n_pages,
                n_ops=n_ops,
                page_size=page_size,
                seed=seed,
            )
            cells: List[CellResult] = []
            for config in configs:
                cell = replay_cell(
                    config,
                    stream,
                    utilization=utilization,
                    workdir=base_dir / stream.scenario,
                )
                cells.append(cell)
                result.cells[(stream.scenario, config.name)] = cell
                device = (
                    cell.device_reads,
                    cell.device_writes,
                    cell.device_erases,
                    cell.io_time_us / 1000.0,
                )
                if config.config.writeback is not None:
                    # The write-back daemon decides when dirty frames
                    # reach flash: device traffic moves with the thread
                    # scheduler, so the table leaves it out (the
                    # CellResult keeps it).
                    device = (None,) * len(device)
                table.add_row(
                    cell.scenario,
                    cell.config,
                    cell.n_reads,
                    cell.n_updates,
                    *device,
                    _check_cell(cell),
                    cell.state_hash[:12],
                )
            verdict = compare_cells(cells)
            result.verdicts.append(verdict)
            if verdict.equivalent:
                table.note(
                    f"{stream.scenario}: {len(cells)} configs equivalent "
                    f"(state {verdict.state_hash[:12]}…)"
                )
            else:
                for failure in verdict.failures:
                    table.note(f"{stream.scenario}: DIVERGED — {failure}")
    oks = sum(1 for v in result.verdicts if v.equivalent)
    table.note(
        f"oracle: {oks}/{len(result.verdicts)} scenarios equivalent across "
        f"{len(configs)} configs"
    )
    return result


def _check_cell(cell: CellResult) -> str:
    if cell.check_ok is None:
        status = "n/a"
    else:
        status = "ok" if cell.check_ok else "FAIL"
    if not cell.audit_ok:
        status += "+audit"
    return status
