"""Experiment-7 harness: TPC-C I/O time per transaction vs buffer size.

Builds the whole stack — chip, page-update driver, buffer pool, TPC-C
database — for one method label, loads and warms the database, then
measures simulated flash I/O per transaction for a window of the
standard mix.  The DBMS buffer size is expressed as a fraction of the
loaded database, matching the paper's 0.1 %–10 % sweep (Figure 18).

Loading happens through a large temporary buffer; the measured phase
runs with the target buffer size, so misses and dirty evictions dominate
exactly as in the paper's setup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...flash.chip import FlashChip
from ...flash.spec import SAMSUNG_K9L8G08U0M, FlashSpec, spec_for_database
from ...methods import make_method
from ...storage.db import Database
from .loader import TpccDatabase
from .schema import TpccScale
from .transactions import TpccWorkload, TxnCounts


@dataclass
class TpccMeasurement:
    """Per-transaction simulated I/O of one method at one buffer size."""

    label: str
    buffer_fraction: float
    buffer_pages: int
    database_pages: int
    transactions: int
    io_us_per_txn: float
    hit_ratio: float
    erases: int
    counts: TxnCounts
    #: Flash operations of the measured window.
    flash_reads: int = 0
    flash_writes: int = 0


def estimate_database_pages(scale: TpccScale, page_size: int = 2048) -> int:
    """Rough page count of a loaded scaled database (for chip sizing)."""
    bytes_total = (
        scale.warehouses * 92
        + scale.warehouses * scale.districts_per_warehouse * 96
        + scale.customers * 655
        + scale.items * 82
        + scale.stock_rows * 306
        + scale.warehouses
        * scale.districts_per_warehouse
        * scale.initial_orders_per_district
        * (32 + 12 + 10 * 54)
    )
    # heap slot overhead + index pages ≈ 45 %
    return int(bytes_total * 1.45 / page_size) + 64


def run_tpcc(
    label: str,
    scale: TpccScale,
    buffer_fraction: float,
    n_transactions: int = 1000,
    warmup_transactions: Optional[int] = None,
    seed: int = 7,
    base_spec: FlashSpec = SAMSUNG_K9L8G08U0M,
) -> TpccMeasurement:
    """Measure one (method, buffer size) point of Figure 18, with the
    paper's pool: LRU eviction, synchronous write-back."""
    if not 0.0 < buffer_fraction <= 1.0:
        raise ValueError("buffer_fraction must be in (0, 1]")
    est_pages = estimate_database_pages(scale)
    spec = spec_for_database(est_pages * 2, utilization=0.25, base=base_spec)
    chip = FlashChip(spec)
    driver = make_method(label, chip)
    # Load through a generous buffer, then shrink to the measured size.
    load_db = Database(driver, buffer_capacity=max(est_pages // 2, 256))
    tpcc = TpccDatabase(load_db, scale, seed=seed)
    tpcc.load()
    database_pages = load_db.allocated_pages
    buffer_pages = max(4, int(database_pages * buffer_fraction))
    load_db.pool.capacity = buffer_pages  # shrink to the measured size
    workload = TpccWorkload(tpcc, seed=seed)
    if warmup_transactions is None:
        warmup_transactions = max(100, n_transactions // 4)
    workload.run(warmup_transactions)
    snap = chip.stats.snapshot()
    stats = load_db.buffer_stats
    hits0, misses0 = stats.hits, stats.misses
    counts0 = workload.counts.total
    workload.run(n_transactions)
    delta = chip.stats.delta_since(snap)
    accesses = stats.hits - hits0 + stats.misses - misses0
    hits = stats.hits - hits0
    return TpccMeasurement(
        label=label,
        buffer_fraction=buffer_fraction,
        buffer_pages=buffer_pages,
        database_pages=database_pages,
        transactions=workload.counts.total - counts0,
        io_us_per_txn=delta.total_time_us / n_transactions,
        hit_ratio=hits / accesses if accesses else 0.0,
        erases=delta.total_erases,
        counts=workload.counts,
        flash_reads=delta.totals().reads,
        flash_writes=delta.totals().writes,
    )
