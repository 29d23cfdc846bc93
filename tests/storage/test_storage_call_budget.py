"""A deterministic stand-in for a stopwatch on the storage layer.

The twin of ``tests/core/test_call_budget.py`` one layer up: host time
per TPC-C transaction, with the pool large enough that nothing misses,
is how many Python-level calls the B+tree, heap file, slotted page and
``Page`` make and how many locks they take — and both counts repeat
exactly for a seed.  Decoding every node into lists and a dataclass, and
logging one ``ChangeRun`` per changed run under a driver that never
reads them, cost 4 918 calls per transaction; nodes and slotted pages
read and patched in wire form over unlogged pages cost 1 356, with one
latched ``Page`` wrapper call per field decoded: 439.9 lock releases
per transaction.  Decoding from ``Page.view`` with no latch costs 1 173
calls and 135.6 releases (the pool lock once per fetch, the latch once
per write).  Each budget sits between its last two figures, so bringing
back per-run objects, whole-node decodes or a latch around a read fails
tier-1 without a timing assertion.

The second test is one fetch, ``BufferManager.get_page`` alone: a hit is
2 calls and 1 release (the pool lock); a miss that evicts a clean frame
is 28 calls, the driver's read included, and 3 releases — the pool lock
on either side of the flash read and the victim's ``detach``.  It was 29
and 5 while ``attach`` latched a frame no other thread could yet see and
every eviction called for, and locked, an empty repark queue.
"""

from repro.core.pdl import PdlDriver
from repro.flash.chip import FlashChip
from repro.flash.spec import TINY_SPEC, spec_for_database
from repro.storage.bufferpool import BufferManager
from repro.storage.db import Database
from repro.workloads.tpcc import (
    TEST_SCALE,
    TpccDatabase,
    TpccWorkload,
    estimate_database_pages,
)

POOL_FRAMES = 512
WARM_UP = 100
TRANSACTIONS = 400
CALLS_PER_TRANSACTION_BUDGET = 1280
LOCK_RELEASES_PER_TRANSACTION_BUDGET = 200

HIT_BUDGET = (2, 1)  # (Python calls, lock releases) per fetch
MISS_BUDGET = (30, 3)


def test_transaction_stays_within_its_call_budget(
    count_python_calls, count_lock_releases
):
    chip = FlashChip(spec_for_database(estimate_database_pages(TEST_SCALE) * 2, 0.25))
    db = Database(PdlDriver(chip, max_differential_size=256), buffer_capacity=POOL_FRAMES)
    tpcc = TpccDatabase(db, TEST_SCALE, seed=1)
    tpcc.load()
    workload = TpccWorkload(tpcc, seed=1)
    workload.run(WARM_UP)
    misses_before = db.buffer_stats.misses

    calls = count_python_calls(lambda: workload.run(TRANSACTIONS))
    releases = count_lock_releases(lambda: workload.run(TRANSACTIONS))

    assert db.allocated_pages <= POOL_FRAMES
    assert db.buffer_stats.misses == misses_before, "the windows went to flash"
    assert calls / TRANSACTIONS <= CALLS_PER_TRANSACTION_BUDGET
    assert releases / TRANSACTIONS <= LOCK_RELEASES_PER_TRANSACTION_BUDGET


def test_fetch_stays_within_its_budget(count_python_calls, count_lock_releases):
    frames = 4
    pool = BufferManager(PdlDriver(FlashChip(TINY_SPEC), max_differential_size=128), frames)
    for pid in range(3 * frames):
        pool.create_page(pid, bytes([pid]) * TINY_SPEC.page_data_size)
    pool.flush_all()
    hot, cold, colder = range(8, 12), range(0, 4), range(4, 8)  # hot: resident, clean
    stats = pool.stats

    def fetch(pids):
        for pid in pids:
            pool.get_page(pid)

    def calls_per_fetch(pids):  # less the lambda's call and fetch's
        return (count_python_calls(lambda: fetch(pids)) - 2) / frames

    def releases_per_fetch(pids):
        return count_lock_releases(lambda: fetch(pids)) / frames

    hit = calls_per_fetch(hot), releases_per_fetch(hot)
    assert (stats.hits, stats.misses) == (2 * frames, 0)
    miss = calls_per_fetch(cold), releases_per_fetch(colder)
    assert (stats.misses, stats.clean_reclaims) == (2 * frames, 2 * frames)

    assert hit[0] <= HIT_BUDGET[0] and hit[1] <= HIT_BUDGET[1], hit
    assert miss[0] <= MISS_BUDGET[0] and miss[1] <= MISS_BUDGET[1], miss
