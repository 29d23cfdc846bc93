"""A deterministic stand-in for a stopwatch on the storage layer.

The twin of ``tests/core/test_call_budget.py`` one layer up: host time
per TPC-C transaction, with the pool large enough that nothing misses,
is how many Python-level calls the B+tree, heap file, slotted page and
``Page`` make — and that count repeats exactly for a seed.  Decoding
every node into lists and a dataclass, and logging one ``ChangeRun`` per
changed run under a driver that never reads them, cost 4 918 calls per
transaction; nodes and slotted pages read and patched in wire form over
unlogged pages cost 1 356.  The budget sits between the two, so
re-introducing per-run objects or whole-node decodes fails tier-1
without a timing assertion.
"""

from repro.core.pdl import PdlDriver
from repro.flash.chip import FlashChip
from repro.flash.spec import spec_for_database
from repro.storage.db import Database
from repro.workloads.tpcc import (
    TEST_SCALE,
    TpccDatabase,
    TpccWorkload,
    estimate_database_pages,
)

POOL_FRAMES = 256
WARM_UP = 100
TRANSACTIONS = 400
CALLS_PER_TRANSACTION_BUDGET = 2000


def test_transaction_stays_within_its_call_budget(count_python_calls):
    chip = FlashChip(spec_for_database(estimate_database_pages(TEST_SCALE) * 2, 0.25))
    db = Database(PdlDriver(chip, max_differential_size=256), buffer_capacity=POOL_FRAMES)
    tpcc = TpccDatabase(db, TEST_SCALE, seed=1)
    tpcc.load()
    workload = TpccWorkload(tpcc, seed=1)
    workload.run(WARM_UP)
    misses_before = db.buffer_stats.misses

    calls = count_python_calls(lambda: workload.run(TRANSACTIONS))

    assert db.allocated_pages <= POOL_FRAMES
    assert db.buffer_stats.misses == misses_before, "the window went to flash"
    per_transaction = calls / TRANSACTIONS
    assert per_transaction <= CALLS_PER_TRANSACTION_BUDGET, per_transaction
