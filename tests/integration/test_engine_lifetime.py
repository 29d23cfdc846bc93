"""A dropped engine is freed at once, by reference counting.

The engine's object graph is a tree: every edge from a component back to
its owner is a weak reference (docs/architecture.md, "Engine lifetime").
So a driver, a sharded array, a journaled mapping tier or a ``Database``
that is dropped is freed as soon as its last reference goes — it never
waits in a reference cycle for Python's next full cyclic collection,
holding its chip images, tables and frames all the while.

Each case builds an engine with the cyclic collector disabled, runs it
until its garbage collector has reclaimed a block (and, for the mapping
tier, until a snapshot was written), so every back-edge was wired and
used, then drops it.  One ``gc.collect()`` with ``DEBUG_SAVEALL`` then
lists everything that only a cyclic collection could have freed: no
object of a ``repro.`` class, and no page image (``bytearray`` or
``numpy.ndarray``), may be among it.  Objects of other modules are left
out on purpose: ``Database.open``'s ``json.dump(indent=2)`` leaves a
closure cycle of the standard library that holds no engine state.
"""

from __future__ import annotations

import gc
import random
from dataclasses import replace

import numpy as np
import pytest

from repro.core.mapping import MappingConfig
from repro.core.pdl import PdlDriver
from repro.core.recovery import recover_driver
from repro.core.restart import restart_driver
from repro.flash.chip import FlashChip
from repro.flash.spec import SAMSUNG_K9L8G08U0M, FlashSpec
from repro.ftl.base import ChangeRun
from repro.ftl.errors import ConfigurationError
from repro.methods import PAPER_METHODS, make_method
from repro.sharding.recovery import recover_all
from repro.storage.db import Database

#: Table-1 pages and blocks (so both IPL log regions fit in a block),
#: twelve blocks of them: a few hundred page writes start GC.
SPEC = replace(SAMSUNG_K9L8G08U0M, n_blocks=12)
#: Small pages, so a mapping table of a few hundred pids spans several
#: translation pages and a cache can hold fewer than all of them.
TIER_SPEC = FlashSpec(n_blocks=32, pages_per_block=16, page_data_size=256, page_spare_size=16)
PIDS = 64
WRITE_LIMIT = 20_000


def _reclaimed(driver) -> int:
    """Blocks the driver's space management has reclaimed so far."""
    shards = getattr(driver, "shards", [driver])
    if hasattr(driver, "merges"):  # IPL reclaims by merging a group
        return driver.merges
    return min(shard.gc.collections for shard in shards)


def _update_until(driver, done, rng: random.Random, pids: int = PIDS) -> None:
    """Rewrite random loaded pages whole until ``done()``."""
    for _ in range(WRITE_LIMIT):
        if done():
            return
        image = rng.randbytes(driver.page_size)
        driver.write_page(rng.randrange(pids), image, update_logs=[ChangeRun(0, image)])
    raise AssertionError(f"{driver.name}: not done after {WRITE_LIMIT} writes")


def _loaded(driver, rng: random.Random, pids: int = PIDS):
    driver.load_pages((pid, rng.randbytes(driver.page_size)) for pid in range(pids))
    driver.end_of_load()
    return driver


def _tier() -> MappingConfig:
    return MappingConfig.auto(TIER_SPEC, cache_entries=24, snapshot_interval=24)


def _cyclic_leftovers(case) -> list:
    """Run ``case()`` with the cyclic collector off, then collect once and
    return the names of the engine types only that collection found."""
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        case()  # builds, exercises and drops its engine
        gc.collect()
        return sorted(
            {
                f"{type(obj).__module__}.{type(obj).__qualname__}"
                for obj in gc.garbage
                if type(obj).__module__.startswith("repro.")
                or isinstance(obj, (bytearray, np.ndarray))
            }
        )
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def _assert_freed_at_once(case) -> None:
    leftovers = _cyclic_leftovers(case)
    assert not leftovers, f"a dropped engine left reference cycles of: {leftovers}"


@pytest.mark.parametrize("label", PAPER_METHODS)
def test_a_paper_method_is_freed_at_once(label):
    def case():
        rng = random.Random(20260928)
        driver = _loaded(make_method(label, FlashChip(SPEC)), rng)
        if label == "IPU":  # rewrites in place: nothing to reclaim
            _update_until(driver, lambda: driver.chip.stats.total_erases > 0, rng)
        else:
            _update_until(driver, lambda: _reclaimed(driver) > 0, rng)
            assert _reclaimed(driver) > 0

    _assert_freed_at_once(case)


def test_a_sharded_array_is_freed_at_once():
    def case():
        rng = random.Random(20260928)
        chips = [FlashChip(SPEC) for _ in range(4)]
        driver = _loaded(make_method("PDL (256B) x4", chips), rng, pids=4 * PIDS)
        _update_until(driver, lambda: _reclaimed(driver) > 0, rng, pids=4 * PIDS)
        assert _reclaimed(driver) > 0
        driver.close()

    _assert_freed_at_once(case)


def test_a_journaled_mapping_tier_is_freed_at_once():
    def case():
        rng = random.Random(20260928)
        driver = PdlDriver(FlashChip(TIER_SPEC), mapping=_tier())
        _loaded(driver, rng, pids=4 * PIDS)
        store = driver.mapping
        assert store.data_page_count > driver.ppmt.cache_capacity_pages

        def done():
            return driver.gc.collections > 0 and store.snapshots_taken > 0

        _update_until(driver, done, rng, pids=4 * PIDS)
        assert driver.gc.collections > 0 and store.snapshots_taken > 0

    _assert_freed_at_once(case)


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "dropped-unclosed"])
def test_a_database_with_resident_frames_is_freed_at_once(tmp_path, closed):
    def case():
        rng = random.Random(20260928)
        db = Database.open(tmp_path / "db", spec=SPEC, buffer_capacity=8)
        pages = [db.allocate_page().pid for _ in range(PIDS)]
        for _ in range(WRITE_LIMIT):
            if db.driver.gc.collections > 0:
                break
            db.page(rng.choice(pages)).write(0, rng.randbytes(db.page_size))
        assert db.driver.gc.collections > 0
        assert len(db.pool) > 0  # resident frames point back at their pool
        if closed:
            db.close()

    if closed:
        _assert_freed_at_once(case)
    else:
        # The file is closed when the engine is freed, not before.
        with pytest.warns(ResourceWarning, match="unclosed file"):
            _assert_freed_at_once(case)


def test_a_recovered_driver_is_freed_at_once():
    def case():
        rng = random.Random(20260928)
        chip = FlashChip(SPEC)
        before = _loaded(PdlDriver(chip), rng)
        _update_until(before, lambda: before.gc.collections > 0, rng)
        before.flush()
        driver, _report = recover_driver(chip)
        _update_until(driver, lambda: driver.gc.collections > 0, rng)
        assert driver.gc.collections > 0

    _assert_freed_at_once(case)


def test_a_recovered_array_is_freed_at_once():
    def case():
        rng = random.Random(20260928)
        chips = [FlashChip(SPEC) for _ in range(4)]
        before = _loaded(make_method("PDL (256B) x4", chips), rng, pids=4 * PIDS)
        before.flush()
        driver, _reports = recover_all(chips)
        _update_until(driver, lambda: _reclaimed(driver) > 0, rng, pids=4 * PIDS)
        assert _reclaimed(driver) > 0
        driver.close()

    _assert_freed_at_once(case)


def test_a_restarted_mapping_tier_is_freed_at_once():
    def case():
        rng = random.Random(20260928)
        chip = FlashChip(TIER_SPEC)
        before = _loaded(PdlDriver(chip, mapping=_tier()), rng, pids=4 * PIDS)
        before.flush()
        before.mapping.snapshot()
        driver, report = restart_driver(chip, mapping=_tier())
        assert report.fast_path
        store = driver.mapping

        def done():
            return driver.gc.collections > 0 and store.snapshots_taken > 0

        _update_until(driver, done, rng, pids=4 * PIDS)
        assert driver.gc.collections > 0 and store.snapshots_taken > 0

    _assert_freed_at_once(case)


def test_a_component_that_outlives_its_driver_names_itself():
    """The weak edges never surface as ``ReferenceError`` or a call on
    ``None``: a component used after its owner is gone says which."""
    driver = _loaded(PdlDriver(FlashChip(TIER_SPEC), mapping=_tier()), random.Random(7))
    collector, store, blocks = driver.gc, driver.mapping, driver.blocks
    del driver
    for entry in (collector.collect, lambda: collector.step(1)):
        with pytest.raises(ConfigurationError, match="^GarbageCollector: its driver"):
            entry()
    store.snapshot_due = True
    for entry in (store.snapshot, store.tick):
        with pytest.raises(ConfigurationError, match="^MappingStore: its driver"):
            entry()
    del collector
    with pytest.raises(ConfigurationError, match="^BlockManager: its garbage collector"):
        for _ in range(TIER_SPEC.n_pages):
            blocks.allocate()
