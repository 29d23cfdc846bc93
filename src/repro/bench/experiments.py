"""Experiment orchestrators: one function per table/figure in the paper.

Every function returns a :class:`ResultTable` whose rows are the series
the corresponding figure plots.  Absolute microseconds differ from the
paper (different chip scale, same Table-1 latencies); the *shapes* —
orderings, crossovers, trends — are the reproduction targets recorded in
EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..flash.spec import BENCH_SPEC_8K, SAMSUNG_K9L8G08U0M
from ..methods import method_labels
from ..workloads.runner import RunnerConfig, measure_mix, measure_updates
from ..workloads.tpcc.driver import run_tpcc
from .config import BenchScale, current_scale
from .reporting import ResultTable

#: Sweep points used by the experiments (the paper's parameter ranges).
N_UPDATES_SWEEP = (1, 2, 3, 4, 5, 6, 7, 8)
PCT_CHANGED_SWEEP = (0.1, 0.5, 2.0, 10.0, 50.0, 100.0)
PCT_UPDATE_SWEEP = (0.0, 20.0, 40.0, 60.0, 80.0, 100.0)
TREAD_SWEEP = (10.0, 110.0, 500.0, 1000.0, 1500.0)
TWRITE_POINTS = (500.0, 1000.0)
BUFFER_FRACTIONS = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1)


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------

def table1_chip_parameters() -> ResultTable:
    """Table 1: the emulated chip's parameters."""
    spec = SAMSUNG_K9L8G08U0M
    table = ResultTable(
        experiment="table1_chip",
        title="Table 1: flash memory parameters (Samsung K9L8G08U0M model)",
        columns=("symbol", "definition", "value"),
    )
    table.add_row("Nblock", "number of blocks", spec.n_blocks)
    table.add_row("Npage", "pages per block", spec.pages_per_block)
    table.add_row("Sblock", "block size (bytes)", spec.block_size)
    table.add_row("Spage", "page size (bytes)", spec.page_size)
    table.add_row("Sdata", "data area (bytes)", spec.page_data_size)
    table.add_row("Sspare", "spare area (bytes)", spec.page_spare_size)
    table.add_row("Tread", "page read time (us)", spec.t_read_us)
    table.add_row("Twrite", "page write time (us)", spec.t_write_us)
    table.add_row("Terase", "block erase time (us)", spec.t_erase_us)
    return table


# ----------------------------------------------------------------------
# Experiment 1 — Figure 12
# ----------------------------------------------------------------------

def experiment1(scale: Optional[BenchScale] = None) -> ResultTable:
    """Read/write/overall time per update operation (Figure 12)."""
    scale = scale or current_scale()
    runner = scale.runner()
    table = ResultTable(
        experiment="exp1_fig12",
        title="Experiment 1 (Figure 12): time per update operation, "
        "N_updates_till_write=1, %Changed=2",
        columns=(
            "method",
            "read_us",
            "write_us",
            "gc_us",
            "write_with_gc_us",
            "overall_us",
        ),
    )
    for label in method_labels(include_ipu=True):
        m = measure_updates(label, runner, pct_changed=2.0, n_updates_till_write=1)
        table.add_row(
            label, m.read_us, m.write_us, m.gc_us, m.write_with_gc_us, m.overall_us
        )
    table.note(f"scale={scale.name}, db={runner.database_pages} pages")
    return table


# ----------------------------------------------------------------------
# Experiment 2 — Figure 13
# ----------------------------------------------------------------------

def experiment2(
    scale: Optional[BenchScale] = None,
    page_size: int = 2048,
    n_points: Sequence[int] = N_UPDATES_SWEEP,
) -> ResultTable:
    """Overall time vs N_updates_till_write (Figure 13a, 13b for 8 KB)."""
    scale = scale or current_scale()
    if page_size == 2048:
        runner = scale.sweep_runner()
        suffix = "2k"
    elif page_size == 8192:
        runner = scale.sweep_runner(
            base_spec=BENCH_SPEC_8K,
            database_pages=max(scale.database_pages // 4, 128),
        )
        suffix = "8k"
    else:
        raise ValueError("page_size must be 2048 or 8192")
    table = ResultTable(
        experiment=f"exp2_fig13_{suffix}",
        title=f"Experiment 2 (Figure 13, {page_size // 1024}KB pages): overall "
        "time per update operation vs N_updates_till_write (%Changed=2)",
        columns=("method", "n_updates", "overall_us"),
    )
    for label in method_labels(include_ipu=True):
        for n in n_points:
            m = measure_updates(label, runner, pct_changed=2.0, n_updates_till_write=n)
            table.add_row(label, n, m.overall_us)
    table.note(f"scale={scale.name}, db={runner.database_pages} pages")
    return table


# ----------------------------------------------------------------------
# Experiment 3 — Figure 14
# ----------------------------------------------------------------------

def experiment3(
    scale: Optional[BenchScale] = None,
    n_updates_points: Sequence[int] = (1, 5),
    pct_points: Sequence[float] = PCT_CHANGED_SWEEP,
) -> ResultTable:
    """Overall time vs %ChangedByOneU_Op (Figure 14)."""
    scale = scale or current_scale()
    runner = scale.sweep_runner()
    table = ResultTable(
        experiment="exp3_fig14",
        title="Experiment 3 (Figure 14): overall time per update operation "
        "vs %ChangedByOneU_Op",
        columns=("method", "n_updates", "pct_changed", "overall_us"),
    )
    for n in n_updates_points:
        for label in method_labels(include_ipu=True):
            for pct in pct_points:
                m = measure_updates(
                    label, runner, pct_changed=pct, n_updates_till_write=n
                )
                table.add_row(label, n, pct, m.overall_us)
    table.note(f"scale={scale.name}, db={runner.database_pages} pages")
    return table


# ----------------------------------------------------------------------
# Experiment 4 — Figure 15
# ----------------------------------------------------------------------

def experiment4(
    scale: Optional[BenchScale] = None,
    n_updates_points: Sequence[int] = (1, 5),
    mix_points: Sequence[float] = PCT_UPDATE_SWEEP,
) -> ResultTable:
    """Read-only/update mixes vs %UpdateOps (Figure 15)."""
    scale = scale or current_scale()
    runner = scale.sweep_runner()
    table = ResultTable(
        experiment="exp4_fig15",
        title="Experiment 4 (Figure 15): overall time per operation for "
        "read-only/update mixes (%Changed=2)",
        columns=("method", "n_updates", "pct_update", "overall_us"),
    )
    for n in n_updates_points:
        for label in method_labels(include_ipu=True):
            for pct in mix_points:
                m = measure_mix(
                    label,
                    runner,
                    pct_update=pct,
                    pct_changed=2.0,
                    n_updates_till_write=n,
                )
                table.add_row(label, n, pct, m.overall_us)
    table.note(f"scale={scale.name}, db={runner.database_pages} pages")
    return table


# ----------------------------------------------------------------------
# Experiment 5 — Figure 16
# ----------------------------------------------------------------------

def experiment5(
    scale: Optional[BenchScale] = None,
    tread_points: Sequence[float] = TREAD_SWEEP,
    twrite_points: Sequence[float] = TWRITE_POINTS,
) -> ResultTable:
    """Overall time as Tread/Twrite vary (Figure 16)."""
    scale = scale or current_scale()
    table = ResultTable(
        experiment="exp5_fig16",
        title="Experiment 5 (Figure 16): overall time per update operation "
        "as flash timing parameters vary (N=1, %Changed=2)",
        columns=("method", "t_write_us", "t_read_us", "overall_us"),
    )
    labels = [l for l in method_labels(include_ipu=False)]
    for t_write in twrite_points:
        for t_read in tread_points:
            spec = SAMSUNG_K9L8G08U0M.with_timings(
                t_read_us=t_read, t_write_us=t_write
            )
            runner = scale.sweep_runner(base_spec=spec)
            for label in labels:
                m = measure_updates(
                    label, runner, pct_changed=2.0, n_updates_till_write=1
                )
                table.add_row(label, t_write, t_read, m.overall_us)
    table.note("Terase fixed at 1500us, as in the paper")
    table.note(f"scale={scale.name}")
    return table


# ----------------------------------------------------------------------
# Experiment 6 — Figure 17
# ----------------------------------------------------------------------

def experiment6(
    scale: Optional[BenchScale] = None,
    n_points: Sequence[int] = N_UPDATES_SWEEP,
) -> ResultTable:
    """Erase operations per update operation (Figure 17, longevity).

    Erases are rare events (one per reclaimed block), so this experiment
    uses a measurement window of at least twice the database size to get
    stable rates.
    """
    scale = scale or current_scale()
    runner = scale.sweep_runner(
        measure_ops=max(scale.sweep_measure_ops, scale.database_pages * 2)
    )
    table = ResultTable(
        experiment="exp6_fig17",
        title="Experiment 6 (Figure 17): erase operations per update "
        "operation vs N_updates_till_write (%Changed=2)",
        columns=("method", "n_updates", "erases_per_op"),
    )
    for label in method_labels(include_ipu=False):
        for n in n_points:
            m = measure_updates(label, runner, pct_changed=2.0, n_updates_till_write=n)
            table.add_row(label, n, m.erases_per_op)
    table.note("IPU excluded as in the paper's Figure 17 (1 erase per op)")
    table.note(f"scale={scale.name}, db={runner.database_pages} pages")
    return table


# ----------------------------------------------------------------------
# Experiment 7 — Figure 18
# ----------------------------------------------------------------------

def experiment7(
    scale: Optional[BenchScale] = None,
    buffer_fractions: Sequence[float] = BUFFER_FRACTIONS,
) -> ResultTable:
    """TPC-C I/O time per transaction vs DBMS buffer size (Figure 18)."""
    scale = scale or current_scale()
    table = ResultTable(
        experiment="exp7_fig18",
        title="Experiment 7 (Figure 18): TPC-C I/O time per transaction "
        "as the DBMS buffer size is varied",
        columns=(
            "method",
            "buffer_fraction",
            "buffer_pages",
            "io_us_per_txn",
            "hit_ratio",
        ),
    )
    for label in method_labels(include_ipu=False):
        for fraction in buffer_fractions:
            m = run_tpcc(
                label,
                scale.tpcc_scale,
                buffer_fraction=fraction,
                n_transactions=scale.tpcc_transactions,
            )
            table.add_row(
                label, fraction, m.buffer_pages, m.io_us_per_txn, m.hit_ratio
            )
    table.note(f"scale={scale.name}")
    return table


# ----------------------------------------------------------------------
# Table 2 — measured qualitative properties
# ----------------------------------------------------------------------

def table2_properties(scale: Optional[BenchScale] = None) -> ResultTable:
    """Table 2's comparison, measured: flash ops per reflection/recreation."""
    scale = scale or current_scale()
    runner = scale.sweep_runner()
    table = ResultTable(
        experiment="table2_properties",
        title="Table 2 (measured): per-operation flash ops and coupling",
        columns=(
            "method",
            "reads_per_recreate",
            "writes_per_reflect",
            "coupling",
        ),
    )
    for label in method_labels(include_ipu=True):
        m = measure_updates(label, runner, pct_changed=2.0, n_updates_till_write=1)
        reads_per_op = m.read_us / runner.spec().t_read_us
        writes_per_op = (m.write_us + m.gc_us) / runner.spec().t_write_us
        from ..methods import make_method
        from ..flash.chip import FlashChip

        coupling = (
            "tightly-coupled"
            if make_method(label, FlashChip(runner.spec())).tightly_coupled
            else "loosely-coupled"
        )
        table.add_row(label, reads_per_op, writes_per_op, coupling)
    table.note("writes include amortized GC, expressed in Twrite units")
    return table


# ----------------------------------------------------------------------
# Ablations
# ----------------------------------------------------------------------

def ablation_max_differential_size(
    scale: Optional[BenchScale] = None,
    sizes: Sequence[int] = (64, 128, 256, 512, 1024, 2048),
) -> ResultTable:
    """Sweep Max_Differential_Size (the paper's x in PDL(x))."""
    scale = scale or current_scale()
    runner = scale.sweep_runner()
    table = ResultTable(
        experiment="ablation_max_diff",
        title="Ablation: PDL Max_Differential_Size sweep (N=1, %Changed=2)",
        columns=("max_diff_size", "read_us", "write_with_gc_us", "overall_us"),
    )
    from ..core.pdl import format_size

    for size in sizes:
        label = f"PDL ({format_size(size)})"
        m = measure_updates(label, runner, pct_changed=2.0, n_updates_till_write=1)
        table.add_row(size, m.read_us, m.write_with_gc_us, m.overall_us)
    return table


def ablation_diff_granularity(
    scale: Optional[BenchScale] = None,
    units: Sequence[Optional[int]] = (None, 8, 16, 32, 64),
) -> ResultTable:
    """Differential encoder granularity (None = byte-wise maximal runs)."""
    scale = scale or current_scale()
    runner = scale.sweep_runner()
    table = ResultTable(
        experiment="ablation_diff_unit",
        title="Ablation: differential encoding granularity for PDL (2KB)",
        columns=("diff_unit", "read_us", "write_with_gc_us", "overall_us"),
    )
    for unit in units:
        m = measure_updates(
            "PDL (2KB)",
            runner,
            pct_changed=2.0,
            n_updates_till_write=1,
            method_kwargs={"diff_unit": unit},
        )
        table.add_row("bytewise" if unit is None else unit,
                      m.read_us, m.write_with_gc_us, m.overall_us)
    table.note(
        "byte-wise maximal runs suppress Case 3 (footnote 16's sawtooth); "
        "see DESIGN.md"
    )
    return table


def ablation_victim_policy(scale: Optional[BenchScale] = None) -> ResultTable:
    """GC victim-selection policy comparison (greedy / round-robin / wear)."""
    from ..ftl.gc import GcConfig

    scale = scale or current_scale()
    runner = scale.sweep_runner()
    table = ResultTable(
        experiment="ablation_victim_policy",
        title="Ablation: GC victim selection for PDL (256B)",
        columns=("policy", "overall_us", "gc_us", "erases_per_op", "max_block_wear"),
    )
    policies = {"greedy": "greedy", "round_robin": "rr", "wear_aware": "wear"}
    for name, policy in policies.items():
        from ..workloads.runner import build_workload, warm_to_steady_state

        workload = build_workload(
            "PDL (256B)", runner, 2.0, 1, method_kwargs={"gc": GcConfig(policy=policy)}
        )
        warm_to_steady_state(workload, runner)
        stats = workload.driver.stats
        snap = stats.snapshot()
        workload.run_updates(runner.measure_ops)
        delta = stats.delta_since(snap)
        from ..flash.stats import GC, READ_STEP, WRITE_STEP

        overall = delta.time_of(READ_STEP, WRITE_STEP, GC) / runner.measure_ops
        gc_us = delta.time_of(GC) / runner.measure_ops
        table.add_row(
            name,
            overall,
            gc_us,
            delta.total_erases / runner.measure_ops,
            max(delta.block_erases),
        )
    return table


ALL_EXPERIMENTS = {
    "table1": table1_chip_parameters,
    "exp1": experiment1,
    "exp2": experiment2,
    "exp2_8k": lambda scale=None: experiment2(scale, page_size=8192),
    "exp3": experiment3,
    "exp4": experiment4,
    "exp5": experiment5,
    "exp6": experiment6,
    "exp7": experiment7,
    "table2": table2_properties,
    "ablation_max_diff": ablation_max_differential_size,
    "ablation_diff_unit": ablation_diff_granularity,
    "ablation_victim_policy": ablation_victim_policy,
}
