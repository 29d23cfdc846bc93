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

The second test is one fetch, two ways.  ``BufferManager.get_page``: a hit
is 2 calls and 1 release (the pool lock); a miss that evicts a clean
frame is 26 calls, the driver's read included, and 4 releases — the pool
lock on either side of the flash read, the driver lock around it (every
call into a bare driver is serialized, so client threads may share the
pool) and the victim's ``detach``.  It was 27 calls while the eviction
was two methods; before the driver lock was unconditional it was 3
releases; before that, 29
and 5 while ``attach`` latched a frame no other thread could yet see and
every eviction called for, and locked, an empty repark queue, and 28.25
calls while unpin and clean events were queued for the next eviction to
replay.  ``with pool.pinned(pid):`` is that fetch plus a pin
and an unpin: 8 calls and 2 releases on a hit, 28 and 5 on a miss — the
pin is counted inside the fetch's pool lock, the unpin is one more
acquisition of it.  While a pin count sat behind the page latch and the
last unpin queued its repark event behind the dirty lock they were 9 and
4, 34.75 and 7.

The last two hold the write-back path: the first write to a clean
resident frame is 2 calls (``write``, ``_store``) and 1 release (the
latch), and ``flush_all`` of four dirty frames is 196 calls and 14
releases — 3 and 2, 208 and 20 while every dirtying and cleaning
notified the pool for a background write-back daemon, under a dirty
lock of its own.
"""

import pytest

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

HIT_BUDGET = (2, 1)  # (Python calls, lock releases) per get_page
MISS_BUDGET = (28, 4)
PINNED_HIT_BUDGET = (8, 2)  # per `with pool.pinned(pid):`
PINNED_MISS_BUDGET = (32, 5)
FIRST_WRITE_BUDGET = (2, 1)  # the first write to a clean resident frame
FLUSH_ALL_BUDGET = (196, 14)  # flush_all of four dirty frames


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


def _get_page(pool, pid):
    pool.get_page(pid)


def _pinned(pool, pid):
    with pool.pinned(pid):
        pass


@pytest.mark.parametrize(
    "access, hit_budget, miss_budget",
    [(_get_page, HIT_BUDGET, MISS_BUDGET), (_pinned, PINNED_HIT_BUDGET, PINNED_MISS_BUDGET)],
    ids=["get_page", "pinned"],
)
def test_fetch_stays_within_its_budget(
    access, hit_budget, miss_budget, count_python_calls, count_lock_releases
):
    frames = 4
    pool = BufferManager(PdlDriver(FlashChip(TINY_SPEC), max_differential_size=128), frames)
    for pid in range(3 * frames):
        pool.create_page(pid, bytes([pid]) * TINY_SPEC.page_data_size)
    pool.flush_all()
    hot, cold, colder = range(8, 12), range(0, 4), range(4, 8)  # hot: resident, clean
    stats = pool.stats

    def fetch(pids):
        for pid in pids:
            access(pool, pid)

    def calls_per_fetch(pids):  # less the lambda's call, fetch's and access's
        return (count_python_calls(lambda: fetch(pids)) - 2) / frames - 1

    def releases_per_fetch(pids):
        return count_lock_releases(lambda: fetch(pids)) / frames

    hit = calls_per_fetch(hot), releases_per_fetch(hot)
    assert (stats.hits, stats.misses) == (2 * frames, 0)
    miss = calls_per_fetch(cold), releases_per_fetch(colder)
    assert (stats.misses, stats.clean_reclaims) == (2 * frames, 2 * frames)
    assert pool.pinned_count() == 0

    assert hit[0] <= hit_budget[0] and hit[1] <= hit_budget[1], hit
    assert miss[0] <= miss_budget[0] and miss[1] <= miss_budget[1], miss


def _clean_pool(frames=4):
    pool = BufferManager(PdlDriver(FlashChip(TINY_SPEC), max_differential_size=128), frames)
    for pid in range(frames):
        pool.create_page(pid, bytes([pid]) * TINY_SPEC.page_data_size)
    pool.flush_all()
    return pool


def test_first_write_to_a_clean_frame_stays_within_its_budget(
    count_python_calls, count_lock_releases
):
    pool = _clean_pool()
    first, second = pool.get_page(0), pool.get_page(1)
    calls = count_python_calls(lambda: first.write(0, b"\xee")) - 1  # less the lambda
    releases = count_lock_releases(lambda: second.write(0, b"\xee"))
    assert first.dirty and second.dirty
    assert calls <= FIRST_WRITE_BUDGET[0] and releases <= FIRST_WRITE_BUDGET[1], (calls, releases)


def test_flush_all_stays_within_its_budget(count_python_calls, count_lock_releases):
    def dirty_pool():
        pool = _clean_pool()
        for pid in range(4):
            pool.get_page(pid).write(0, b"\xee")
        return pool

    dirty_pool().flush_all()  # the first write-back of a process pays one-off set-up
    calls = count_python_calls(dirty_pool().flush_all)
    pool = dirty_pool()
    releases = count_lock_releases(pool.flush_all)
    assert pool.dirty_count == 0 and pool.stats.flushes == 8  # 4 created, 4 rewritten
    assert calls <= FLUSH_ALL_BUDGET[0] and releases <= FLUSH_ALL_BUDGET[1], (calls, releases)
