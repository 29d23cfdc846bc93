"""The paper suite as one table: :data:`FIGURES`.

Every table and figure of the evaluation is one :class:`Figure` entry:
its title, columns and notes, one sweep (the paper's parameter ranges),
the measurement per point, and ``check(table)`` — the figure's shape
assertions.  Every point is an independent seeded run on a fresh chip,
so a row never depends on which other points ran.  ``python -m
repro.bench`` and the slow-tier test in ``tests/bench/`` both call
:func:`run` and then ``check``.

One more entry, ``equivalence``, is the scenario grid of the scale
(:class:`Grid`): a point is (scenario, config), its measurement one
:func:`~repro.scenarios.cells.replay_cell`, and its check the
differential-equivalence oracle.

Absolute microseconds differ from the paper (a scaled chip with the same
Table-1 latencies); the *shapes* — orderings, crossovers, trends — are
what the checks hold.  What is scaled, and why, is in docs/paper-map.md,
"Substitutions".
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product
from pathlib import Path
from typing import Callable, Dict, List, Tuple, Union

from ..flash.spec import BENCH_SPEC_8K, SAMSUNG_K9L8G08U0M
from ..ftl.base import format_size
from ..ftl.gc import GcConfig
from ..methods import PAPER_METHODS, PAPER_METHODS_NO_IPU
from ..scenarios.cells import Cell, replay_cell
from ..scenarios.stream import ScenarioStream, build_stream
from ..workloads.patterns import AccessPattern, TracePattern, make_pattern
from ..workloads.runner import RunnerConfig, measure_mix, measure_updates
from ..workloads.tpcc.driver import run_tpcc
from ..workloads.tpcc.schema import TpccScale
from .reporting import ResultTable

# ----------------------------------------------------------------------
# Scales
# ----------------------------------------------------------------------

#: Names the CLI's default scale when ``--scale`` is not given.
SCALE_VAR = "REPRO_BENCH_SCALE"

#: The checked-in replay trace, the last scenario of every grid.
TRACE = Path(__file__).resolve().parents[3] / "benchmarks" / "traces" / "oltp_hotset.trace"


@dataclass(frozen=True)
class Grid:
    """The equivalence figure's sweep: scenarios × engine cells.

    The scenarios are the registered ``patterns`` followed by the
    checked-in trace, each resolved into ``n_ops`` operations over
    ``n_pages`` 256-byte pages.  Cells are looked up by name, so names
    are unique.
    """

    patterns: Tuple[str, ...]
    cells: Tuple[Cell, ...]
    n_pages: int
    n_ops: int

    def __post_init__(self) -> None:
        names = [cell.name for cell in self.cells]
        if not names or len(set(names)) != len(names):
            raise ValueError(f"a grid needs unique cell names, got {names}")

    def scenarios(self) -> List[AccessPattern]:
        return [*map(make_pattern, self.patterns), TracePattern(TRACE)]


@dataclass(frozen=True)
class BenchScale:
    """One named size of the whole suite.

    ``runner`` is the window every synthetic sweep point measures;
    Experiment 1, one point per method, affords the longer ``exp1_ops``.
    Every scale keeps the paper's invariants: 2 KB pages, 64-page blocks,
    Table-1 latencies, a database filling ~25 % of the chip.  ``grid`` is
    the equivalence figure's scenario × config grid, its streams seeded
    with ``runner.seed``.
    """

    name: str
    runner: RunnerConfig
    exp1_ops: int
    tpcc_scale: TpccScale
    tpcc_transactions: int
    grid: Grid


#: The suite's sizes.  ``TpccScale`` is positional: warehouses, districts
#: per warehouse, customers per district, items, orders per district.
SCALES = {
    # seconds per figure; CI-sized.  The grid has one cell per axis: the
    # four methods, a file backend, shards with a GC policy, a buffer
    # pool and the demand-paged mapping tier.
    "smoke": BenchScale(
        "smoke",
        RunnerConfig(database_pages=256, measure_ops=100),
        exp1_ops=150,
        tpcc_scale=TpccScale(1, 2, 60, 200, 40),
        tpcc_transactions=120,
        grid=Grid(
            ("sequential", "strided", "zipf-0.9", "scan-hot", "ycsb-a", "ycsb-f"),
            (
                Cell.of("pdl-256", "PDL (256B)"),
                Cell.of("opu", "OPU"),
                Cell.of("ipu", "IPU"),
                Cell.of("ipl-512", "IPL (512B)"),
                Cell.of("pdl-256-file", "PDL (256B)", backend="file"),
                Cell.of("pdl-x4-cb", "PDL (256B) x4 gc=cb"),
                # name kept: scenarios.json is keyed by it
                Cell.of("pdl-x2-thread", "PDL (256B) x2"),
                Cell.of("pdl-buf-2q", "PDL (256B)", buffer_capacity=10, buffer_policy="2q"),
                Cell.of("pdl-map-16", "PDL (256B)", mapping_cache=16, snapshot_interval=48),
            ),
            n_pages=48,
            n_ops=220,
        ),
    ),
    # the default: minutes for the suite, every shape emerges.  The grid
    # covers every axis: methods × shards × GC policy × backend × buffer
    # policy × mapping tier.
    "small": BenchScale(
        "small",
        RunnerConfig(database_pages=1024, measure_ops=400),
        exp1_ops=1000,
        tpcc_scale=TpccScale(1, 4, 100, 500, 80),
        tpcc_transactions=400,
        grid=Grid(
            (
                "sequential", "strided", "zipf-0.9", "zipf-1.2", "scan-hot",
                "ycsb-a", "ycsb-b", "ycsb-d", "ycsb-f",
            ),
            (
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
                Cell.of("pdl-buf-2q", "PDL (256B)", buffer_capacity=12, buffer_policy="2q"),
                # The demand-paged mapping tier: a tight cache, a resident
                # cache and a sharded one.
                Cell.of("pdl-map-16", "PDL (256B)", mapping_cache=16, snapshot_interval=48),
                Cell.of("pdl-map-res", "PDL (256B)", mapping_cache=0),
                Cell.of("pdl-map-x2", "PDL (256B) x2", mapping_cache=16),
            ),
            n_pages=96,
            n_ops=600,
        ),
    ),
}
# closest to the paper's 1 GB database (still scaled); small's grid
SCALES["paper"] = BenchScale(
    "paper",
    RunnerConfig(database_pages=8192, measure_ops=1500),
    exp1_ops=4000,
    tpcc_scale=TpccScale(2, 10, 300, 2000, 300),
    tpcc_transactions=1500,
    grid=SCALES["small"].grid,
)


def current_scale() -> BenchScale:
    """The scale ``$REPRO_BENCH_SCALE`` names (default ``small``)."""
    name = os.environ.get(SCALE_VAR, "small").strip().lower()
    if name not in SCALES:
        raise ValueError(f"{SCALE_VAR}={name!r} unknown; choose from {sorted(SCALES)}")
    return SCALES[name]


# ----------------------------------------------------------------------
# The entry and its runner
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Figure:
    """One table or figure: row = point + ``measure(scale, *point)``.

    ``sweep`` is the points, or a function of the scale giving them.
    """

    experiment: str  # the result file's name
    title: str
    columns: Tuple[str, ...]
    sweep: Union[Tuple[tuple, ...], Callable[[BenchScale], Tuple[tuple, ...]]]
    measure: Callable[..., tuple]
    check: Callable[[ResultTable], None]
    notes: Tuple[str, ...] = ()


def run(figure: Figure, scale: BenchScale) -> ResultTable:
    """Measure every point of ``figure``'s sweep at ``scale``."""
    table = ResultTable(figure.experiment, figure.title, figure.columns)
    sweep = figure.sweep(scale) if callable(figure.sweep) else figure.sweep
    for point in sweep:
        table.add_row(*point, *figure.measure(scale, *point))
    for note in (*figure.notes, f"scale={scale.name}"):
        table.note(note)
    return table


# ----------------------------------------------------------------------
# Sweeps and measurements
# ----------------------------------------------------------------------

N_UPDATES_SWEEP = (1, 2, 3, 4, 5, 6, 7, 8)
PCT_CHANGED_SWEEP = (0.1, 0.5, 2.0, 10.0, 50.0, 100.0)
PCT_UPDATE_SWEEP = (0.0, 20.0, 40.0, 60.0, 80.0, 100.0)
TREAD_SWEEP = (10.0, 110.0, 500.0, 1000.0, 1500.0)
TWRITE_POINTS = (500.0, 1000.0)
BUFFER_FRACTIONS = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1)

#: Table 1: symbol -> (definition, ``FlashSpec`` attribute).
TABLE1 = {
    "Nblock": ("number of blocks", "n_blocks"),
    "Npage": ("pages per block", "pages_per_block"),
    "Sblock": ("block size (bytes)", "block_size"),
    "Spage": ("page size (bytes)", "page_size"),
    "Sdata": ("data area (bytes)", "page_data_size"),
    "Sspare": ("spare area (bytes)", "page_spare_size"),
    "Tread": ("page read time (us)", "t_read_us"),
    "Twrite": ("page write time (us)", "t_write_us"),
    "Terase": ("block erase time (us)", "t_erase_us"),
}

#: Ablation row name -> registered GC victim policy.
VICTIM_POLICIES = {"greedy": "greedy", "round_robin": "rr", "wear_aware": "wear"}


def _overall(runner: RunnerConfig, label: str, n: int, pct: float = 2.0) -> tuple:
    return (measure_updates(label, runner, pct, n).overall_us,)


def _exp1(scale: BenchScale, label: str) -> tuple:
    m = measure_updates(label, replace(scale.runner, measure_ops=scale.exp1_ops), 2.0, 1)
    return m.read_us, m.write_us, m.gc_us, m.write_with_gc_us, m.overall_us


def _exp2_8k(scale: BenchScale, label: str, n: int) -> tuple:
    pages = max(scale.runner.database_pages // 4, 128)
    return _overall(replace(scale.runner, base_spec=BENCH_SPEC_8K, database_pages=pages), label, n)


def _exp5(scale: BenchScale, label: str, t_write: float, t_read: float) -> tuple:
    spec = SAMSUNG_K9L8G08U0M.with_timings(t_read_us=t_read, t_write_us=t_write)
    return _overall(replace(scale.runner, base_spec=spec), label, 1)


def _exp6(scale: BenchScale, label: str, n: int) -> tuple:
    runner = scale.runner
    window = replace(runner, measure_ops=max(runner.measure_ops, 2 * runner.database_pages))
    return (measure_updates(label, window, 2.0, n).erases_per_op,)


def _exp7(scale: BenchScale, label: str, fraction: float) -> tuple:
    m = run_tpcc(label, scale.tpcc_scale, fraction, n_transactions=scale.tpcc_transactions)
    return m.buffer_pages, m.io_us_per_txn, m.hit_ratio


def _table2(scale: BenchScale, label: str) -> tuple:
    m = measure_updates(label, scale.runner, 2.0, 1)
    spec = scale.runner.spec()
    coupling = "tightly-coupled" if m.tightly_coupled else "loosely-coupled"
    return m.read_us / spec.t_read_us, m.write_with_gc_us / spec.t_write_us, coupling


def _pdl_ablation(scale: BenchScale, label: str, **fields: object) -> tuple:
    m = measure_updates(label, scale.runner, 2.0, 1, method_kwargs=fields)
    return m.read_us, m.write_with_gc_us, m.overall_us


def _victim_policy(scale: BenchScale, name: str) -> tuple:
    gc = GcConfig(policy=VICTIM_POLICIES[name])
    m = measure_updates("PDL (256B)", scale.runner, 2.0, 1, method_kwargs={"gc": gc})
    return m.overall_us, m.gc_us, m.erases_per_op, m.max_block_wear


def _grid_points(scale: BenchScale) -> Tuple[tuple, ...]:
    grid = scale.grid
    return tuple(product([p.name for p in grid.scenarios()], [c.name for c in grid.cells]))


@lru_cache(maxsize=1)
def _stream(grid: Grid, seed: int, scenario: str) -> ScenarioStream:
    """One scenario's stream; the sweep is scenario-major, so every cell
    of a scenario after the first reuses it."""
    pattern = next(p for p in grid.scenarios() if p.name == scenario)
    return build_stream(pattern, n_pages=grid.n_pages, n_ops=grid.n_ops, page_size=256, seed=seed)


def _equivalence(scale: BenchScale, scenario: str, config: str) -> tuple:
    """Replay one scenario's seeded stream on a fresh engine of one cell."""
    grid = scale.grid
    cell = next(c for c in grid.cells if c.name == config)
    r = replay_cell(cell, _stream(grid, scale.runner.seed, scenario))
    check = "n/a" if r.check_ok is None else "ok" if r.check_ok else "FAIL"
    if not r.audit_ok:
        check += "+audit"
    problems = [*r.check_violations, *r.audit_notes]
    if problems:
        check += f" ({problems[0]})"
    return (
        r.n_reads, r.n_updates, r.device_reads, r.device_writes, r.device_erases,
        r.io_time_us / 1000.0, check, r.state_hash[:12],
    )


# ----------------------------------------------------------------------
# Shape checks
# ----------------------------------------------------------------------

def _check_table1(table: ResultTable) -> None:
    assert table.value("value", symbol="Tread") == 110.0
    assert table.value("value", symbol="Npage") == 64


def _check_exp1(table: ResultTable) -> None:
    """Read step (12a): OPU/IPU one read, PDL at most two, IPL(64KB) most;
    write step (12b): IPU far worst, PDL(256B) best; overall (12c):
    PDL(256B) best of all six."""
    methods = set(table.column("method"))
    read = {m: table.value("read_us", method=m) for m in methods}
    write = {m: table.value("write_with_gc_us", method=m) for m in methods}
    overall = {m: table.value("overall_us", method=m) for m in methods}
    t_read = 110.0

    assert read["OPU"] == t_read
    assert read["IPU"] == t_read
    assert t_read <= read["PDL (256B)"] <= 2 * t_read + 1
    assert t_read <= read["PDL (2KB)"] <= 2 * t_read + 1
    assert read["IPL (64KB)"] > read["PDL (2KB)"]
    assert read["IPL (64KB)"] > read["IPL (18KB)"]

    assert write["IPU"] > 10 * write["OPU"]
    assert min(write.values()) == write["PDL (256B)"]
    assert write["PDL (256B)"] < write["OPU"] / 2

    assert min(overall, key=overall.get) == "PDL (256B)"


def _check_exp2(table: ResultTable) -> None:
    """OPU/IPU flat in N; IPL rising; PDL(256B) rising toward OPU from a
    clear win at N=1; PDL(2KB) below OPU at low N."""

    def series(method):
        return [table.value("overall_us", method=method, n_updates=n) for n in (1, 2, 4, 6, 8)]

    opu = series("OPU")
    ipu = series("IPU")
    ipl18 = series("IPL (18KB)")
    pdl256 = series("PDL (256B)")
    pdl2k = series("PDL (2KB)")

    assert max(opu) - min(opu) < 0.15 * min(opu)
    assert max(ipu) - min(ipu) < 0.05 * min(ipu)
    assert ipl18[-1] > ipl18[0] * 1.5
    assert pdl256[-1] > pdl256[0]
    assert pdl256[-1] > 0.5 * opu[-1]
    assert pdl256[0] < 0.6 * opu[0]
    assert all(p < o for p, o in zip(pdl2k[:2], opu[:2]))
    assert 0.7 * opu[-1] <= pdl256[-1] <= 1.15 * opu[-1]


def _check_exp2_8k(table: ResultTable) -> None:
    """Figure 13(b): the 2 KB tendency holds — flat OPU, PDL wins at low N."""
    opu = [table.value("overall_us", method="OPU", n_updates=n) for n in (1, 4, 8)]
    pdl = [table.value("overall_us", method="PDL (256B)", n_updates=n) for n in (1, 4, 8)]
    assert max(opu) - min(opu) < 0.15 * min(opu)
    assert pdl[0] < 0.6 * opu[0]


def _check_exp3(table: ResultTable) -> None:
    """PDL(256B) dominates small changes; at 100 % PDL(2KB) is page-based
    plus extra reads (at or slightly above OPU); OPU flat; IPL degrades."""

    def v(method, n, pct):
        return table.value("overall_us", method=method, n_updates=n, pct_changed=pct)

    assert v("PDL (256B)", 1, 0.1) < 0.6 * v("OPU", 1, 0.1)
    assert v("PDL (256B)", 1, 2.0) < v("IPL (18KB)", 1, 2.0)
    assert v("PDL (2KB)", 1, 100.0) >= v("OPU", 1, 100.0)
    assert v("PDL (2KB)", 1, 100.0) <= 1.4 * v("OPU", 1, 100.0)
    opu = [v("OPU", 1, pct) for pct in (0.1, 2.0, 10.0, 100.0)]
    assert max(opu) - min(opu) < 0.15 * min(opu)
    assert v("IPL (18KB)", 1, 100.0) > 3 * v("IPL (18KB)", 1, 2.0)
    assert v("PDL (256B)", 5, 0.1) < v("OPU", 5, 0.1)


def _check_exp4(table: ResultTable) -> None:
    """Read-only on an updated database: OPU beats PDL by about 2x; with
    updates PDL(256B) overtakes OPU, and beats IPL across the range."""

    def v(method, pct):
        return table.value("overall_us", method=method, n_updates=1, pct_update=pct)

    assert v("OPU", 0.0) < v("PDL (256B)", 0.0)
    ratio = v("PDL (256B)", 0.0) / v("OPU", 0.0)
    assert 1.3 <= ratio <= 2.2, f"read-only PDL/OPU ratio {ratio:.2f}"
    for pct in (40.0, 80.0, 100.0):
        assert v("PDL (256B)", pct) < v("OPU", pct)
    for pct in (0.0, 40.0, 80.0, 100.0):
        assert v("PDL (256B)", pct) < v("IPL (18KB)", pct)
        assert v("PDL (256B)", pct) < v("IPL (64KB)", pct)
    assert v("PDL (256B)", 100.0) < v("OPU", 100.0)


def _check_exp5(table: ResultTable) -> None:
    """PDL(256B) beats OPU and IPL wherever 2*Tread <= Twrite; as Tread
    grows, OPU gains on read-heavy IPL(64KB)."""

    def v(method, t_write, t_read):
        return table.value("overall_us", method=method, t_write_us=t_write, t_read_us=t_read)

    for t_write in TWRITE_POINTS:
        for t_read in (10.0, 110.0, 1000.0):
            pdl = v("PDL (256B)", t_write, t_read)
            if 2 * t_read <= t_write:
                assert pdl < v("OPU", t_write, t_read)
                assert pdl < v("IPL (18KB)", t_write, t_read)
                assert pdl < v("IPL (64KB)", t_write, t_read)
            else:
                assert pdl < 1.5 * v("OPU", t_write, t_read)
                assert pdl < 1.5 * v("IPL (18KB)", t_write, t_read)

    gap_cheap_reads = v("IPL (64KB)", 1000.0, 10.0) - v("OPU", 1000.0, 10.0)
    gap_costly_reads = v("IPL (64KB)", 1000.0, 1000.0) - v("OPU", 1000.0, 1000.0)
    assert gap_costly_reads > gap_cheap_reads


def _check_exp6(table: ResultTable) -> None:
    """OPU erases most, PDL(256B) least; the larger IPL log region merges
    less; OPU flat in N, PDL(256B) erasing more as N grows."""

    def v(method, n):
        return table.value("erases_per_op", method=method, n_updates=n)

    assert v("OPU", 1) > v("PDL (2KB)", 1)
    assert v("OPU", 1) > v("PDL (256B)", 1)
    assert v("PDL (256B)", 1) <= v("PDL (2KB)", 1)
    assert v("IPL (64KB)", 8) <= v("IPL (18KB)", 8)
    assert abs(v("OPU", 8) - v("OPU", 1)) < 0.5 * v("OPU", 1) + 1e-6
    assert v("PDL (256B)", 8) >= v("PDL (256B)", 1)


def _check_exp7(table: ResultTable) -> None:
    """At every buffer size OPU > PDL(2KB) > PDL(256B) and IPL(64KB) >
    0.9 x IPL(18KB) (the two run close at small scales), PDL(256B) winning
    by the paper's 1.2-6.1x ballpark; a larger buffer means less I/O."""

    def v(method, fraction):
        return table.value("io_us_per_txn", method=method, buffer_fraction=fraction)

    for fraction in (0.002, 0.01, 0.05, 0.1):
        pdl256 = v("PDL (256B)", fraction)
        pdl2k = v("PDL (2KB)", fraction)
        opu = v("OPU", fraction)
        ipl18 = v("IPL (18KB)", fraction)
        ipl64 = v("IPL (64KB)", fraction)
        assert ipl64 > 0.9 * ipl18
        assert opu > pdl2k > pdl256
        assert ipl18 > pdl256
        assert 1.1 <= opu / pdl256 <= 8.0

    for method in ("PDL (256B)", "OPU", "IPL (18KB)"):
        assert v(method, 0.1) < v(method, 0.002)


def _check_table2(table: ResultTable) -> None:
    """Page-based methods read one page, PDL at most two, IPL many; PDL
    reflects below OPU; only the log-based method is tightly coupled."""

    def reads(method):
        return table.value("reads_per_recreate", method=method)

    def writes(method):
        return table.value("writes_per_reflect", method=method)

    def coupling(method):
        return table.value("coupling", method=method)

    assert reads("OPU") == 1.0
    assert reads("IPU") == 1.0
    assert 1.0 <= reads("PDL (256B)") <= 2.0
    assert 1.0 <= reads("PDL (2KB)") <= 2.0
    assert reads("IPL (64KB)") > 2.0
    assert writes("PDL (256B)") < writes("OPU")
    assert writes("IPU") > 10 * writes("OPU")
    assert coupling("IPL (18KB)") == "tightly-coupled"
    assert coupling("IPL (64KB)") == "tightly-coupled"
    for method in ("PDL (256B)", "PDL (2KB)", "OPU", "IPU"):
        assert coupling(method) == "loosely-coupled"


def _check_max_diff(table: ResultTable) -> None:
    """Small thresholds beat the page-sized one; every read stays within
    the at-most-two-pages principle."""
    overall = dict(zip(table.column("max_diff_size"), table.column("overall_us")))
    assert overall[256] < overall[2048]
    for value in table.column("read_us"):
        assert value <= 2 * 110.0 + 1


def _check_diff_unit(table: ResultTable) -> None:
    """Byte-wise maximal runs cost more in the write step than 16-byte units."""
    col = dict(zip(table.column("diff_unit"), table.column("write_with_gc_us")))
    assert col["bytewise"] > col[16]


def _check_victim_policy(table: ResultTable) -> None:
    """Greedy reclaims the most garbage per erase: it does not lose badly."""
    rows = {row[0]: row for row in table.rows}
    assert set(rows) == {"greedy", "round_robin", "wear_aware"}
    greedy_overall = rows["greedy"][1]
    rr_overall = rows["round_robin"][1]
    assert greedy_overall <= rr_overall * 1.25


def _check_equivalence(table: ResultTable) -> None:
    """The differential-equivalence oracle: within a scenario every config
    reaches the same state through the same logical traffic, and no
    config failed its self-check (``FAIL``) or its accounting audit
    (``+audit``).  Every problem is listed, and it raises even under
    ``python -O``."""
    if not table.rows:
        raise AssertionError("no cell was replayed")
    columns = list(table.columns)
    config, reads, updates, check, state = (
        columns.index(name) for name in ("config", "reads", "updates", "check", "state_hash")
    )
    problems = []
    for scenario in dict.fromkeys(table.column("scenario")):
        rows = table.lookup(scenario=scenario)
        ref = rows[0]
        for row in rows:
            where = f"scenario {scenario!r}, config {row[config]!r}"
            if row[state] != ref[state]:
                problems.append(f"{where}: state {row[state]} != {ref[state]} of {ref[config]!r}")
            if (row[reads], row[updates]) != (ref[reads], ref[updates]):
                problems.append(
                    f"{where}: {row[reads]}r/{row[updates]}u != "
                    f"{ref[reads]}r/{ref[updates]}u of {ref[config]!r}"
                )
            if "FAIL" in row[check]:
                problems.append(f"{where}: check_driver found a violation: {row[check]}")
            if "+audit" in row[check]:
                problems.append(f"{where}: the accounting audit failed: {row[check]}")
    if problems:
        raise AssertionError("; ".join(problems))


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------

_UPDATE_TITLE = "overall time per update operation"

FIGURES: Dict[str, Figure] = {
    "table1": Figure(
        "table1_chip",
        "Table 1: flash memory parameters (Samsung K9L8G08U0M model)",
        ("symbol", "definition", "value"),
        sweep=tuple((symbol, d) for symbol, (d, _) in TABLE1.items()),
        measure=lambda _s, symbol, _d: (getattr(SAMSUNG_K9L8G08U0M, TABLE1[symbol][1]),),
        check=_check_table1,
    ),
    "exp1": Figure(
        "exp1_fig12",
        "Experiment 1 (Figure 12): time per update operation, "
        "N_updates_till_write=1, %Changed=2",
        ("method", "read_us", "write_us", "gc_us", "write_with_gc_us", "overall_us"),
        sweep=tuple((label,) for label in PAPER_METHODS),
        measure=_exp1,
        check=_check_exp1,
    ),
    "exp2": Figure(
        "exp2_fig13_2k",
        f"Experiment 2 (Figure 13, 2KB pages): {_UPDATE_TITLE} vs N_updates_till_write "
        "(%Changed=2)",
        ("method", "n_updates", "overall_us"),
        sweep=tuple(product(PAPER_METHODS, N_UPDATES_SWEEP)),
        measure=lambda s, label, n: _overall(s.runner, label, n),
        check=_check_exp2,
        notes=(
            "deviation: PDL (2KB) crosses OPU near N=4-6 instead of staying just "
            "below it; the unit-granular encoder's per-cycle differentials "
            "saturate the write buffer sooner",
        ),
    ),
    "exp2_8k": Figure(
        "exp2_fig13_8k",
        f"Experiment 2 (Figure 13, 8KB pages): {_UPDATE_TITLE} vs N_updates_till_write "
        "(%Changed=2)",
        ("method", "n_updates", "overall_us"),
        sweep=tuple(product(PAPER_METHODS, N_UPDATES_SWEEP)),
        measure=_exp2_8k,
        check=_check_exp2_8k,
        notes=("database: a quarter of the 2KB runs' page count, at least 128 pages",),
    ),
    "exp3": Figure(
        "exp3_fig14",
        f"Experiment 3 (Figure 14): {_UPDATE_TITLE} vs %ChangedByOneU_Op",
        ("method", "n_updates", "pct_changed", "overall_us"),
        sweep=tuple(
            (label, n, pct)
            for n in (1, 5)
            for label in PAPER_METHODS
            for pct in PCT_CHANGED_SWEEP
        ),
        measure=lambda s, label, n, pct: _overall(s.runner, label, n, pct),
        check=_check_exp3,
    ),
    "exp4": Figure(
        "exp4_fig15",
        "Experiment 4 (Figure 15): overall time per operation for "
        "read-only/update mixes (%Changed=2)",
        ("method", "n_updates", "pct_update", "overall_us"),
        sweep=tuple(
            (label, n, pct)
            for n in (1, 5)
            for label in PAPER_METHODS
            for pct in PCT_UPDATE_SWEEP
        ),
        measure=lambda s, label, n, pct: (measure_mix(label, s.runner, pct, 2.0, n).overall_us,),
        check=_check_exp4,
    ),
    "exp5": Figure(
        "exp5_fig16",
        f"Experiment 5 (Figure 16): {_UPDATE_TITLE} as flash timing parameters vary "
        "(N=1, %Changed=2)",
        ("method", "t_write_us", "t_read_us", "overall_us"),
        sweep=tuple(
            (label, t_write, t_read)
            for t_write in TWRITE_POINTS
            for t_read in TREAD_SWEEP
            for label in PAPER_METHODS_NO_IPU
        ),
        measure=_exp5,
        check=_check_exp5,
        notes=(
            "Terase fixed at 1500us, as in the paper",
            "deviation: where 2*Tread > Twrite (no real NAND part) the one-read "
            "methods overtake PDL (256B), against the paper's 'always'; the check "
            "holds it within 1.5x of OPU and IPL (18KB) there",
        ),
    ),
    "exp6": Figure(
        "exp6_fig17",
        "Experiment 6 (Figure 17): erase operations per update "
        "operation vs N_updates_till_write (%Changed=2)",
        ("method", "n_updates", "erases_per_op"),
        sweep=tuple(product(PAPER_METHODS_NO_IPU, N_UPDATES_SWEEP)),
        measure=_exp6,
        check=_check_exp6,
        notes=(
            "IPU excluded as in the paper's Figure 17 (1 erase per op)",
            "window: at least twice the database, erases being rare events",
        ),
    ),
    "exp7": Figure(
        "exp7_fig18",
        "Experiment 7 (Figure 18): TPC-C I/O time per transaction "
        "as the DBMS buffer size is varied",
        ("method", "buffer_fraction", "buffer_pages", "io_us_per_txn", "hit_ratio"),
        sweep=tuple(product(PAPER_METHODS_NO_IPU, BUFFER_FRACTIONS)),
        measure=_exp7,
        check=_check_exp7,
    ),
    "table2": Figure(
        "table2_properties",
        "Table 2 (measured): per-operation flash ops and coupling",
        ("method", "reads_per_recreate", "writes_per_reflect", "coupling"),
        sweep=tuple((label,) for label in PAPER_METHODS),
        measure=_table2,
        check=_check_table2,
        notes=("writes include amortized GC, expressed in Twrite units",),
    ),
    "ablation_max_diff": Figure(
        "ablation_max_diff",
        "Ablation: PDL Max_Differential_Size sweep (N=1, %Changed=2)",
        ("max_diff_size", "read_us", "write_with_gc_us", "overall_us"),
        sweep=tuple((size,) for size in (64, 128, 256, 512, 1024, 2048)),
        measure=lambda s, size: _pdl_ablation(s, f"PDL ({format_size(size)})"),
        check=_check_max_diff,
    ),
    "ablation_diff_unit": Figure(
        "ablation_diff_unit",
        "Ablation: differential encoding granularity for PDL (2KB)",
        ("diff_unit", "read_us", "write_with_gc_us", "overall_us"),
        sweep=tuple((unit,) for unit in ("bytewise", 8, 16, 32, 64)),
        measure=lambda s, unit: _pdl_ablation(
            s, "PDL (2KB)", diff_unit=None if unit == "bytewise" else unit
        ),
        check=_check_diff_unit,
        notes=(
            "byte-wise maximal runs suppress Case 3 (footnote 16's sawtooth); the "
            "default 16-byte unit reproduces it",
        ),
    ),
    "ablation_victim_policy": Figure(
        "ablation_victim_policy",
        "Ablation: GC victim selection for PDL (256B)",
        ("policy", "overall_us", "gc_us", "erases_per_op", "max_block_wear"),
        sweep=tuple((name,) for name in VICTIM_POLICIES),
        measure=_victim_policy,
        check=_check_victim_policy,
    ),
    "equivalence": Figure(
        "scenarios",
        "Scenario × config differential-equivalence grid",
        ("scenario", "config", "reads", "updates", "dev_reads", "dev_writes", "erases",
         "io_time_ms", "check", "state_hash"),
        sweep=_grid_points,
        measure=_equivalence,
        check=_check_equivalence,
        notes=(
            "each row replays the scenario's seeded stream on a fresh engine; a "
            "wrong byte read back raises CellReplayError",
            "state_hash: SHA-256 over every final page (first 12 hex digits); "
            "check: check_driver over every PDL shard (n/a: no checker), "
            "+audit if the device counters fail their audit; a failing cell adds "
            "its first violation or audit note",
            "device counters differ across configs by design and are never compared",
        ),
    ),
}
