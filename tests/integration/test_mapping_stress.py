"""Mapping-cache stress: 8 clients × 4 demand-paged shards on worker threads.

Eight client threads hammer a 4-shard array whose every shard runs the
demand-paged mapping tier with a deliberately tiny translation cache.
Afterwards the array is held to the usual standards (correct images,
``check_driver``-clean shards) *plus* the mapping-tier audit:

* **raw-counter audit** (thread executor) — per chip, the stats layer's
  ``mapping_misses`` must equal the independently counted raw device
  reads landing in the mapping region, and ``mapping_writebacks`` the
  raw programs landing there: every demand-page fault and journal/
  snapshot page is attributed, none double-counted;
* **phase audit** — the same counters must equal the MAPPING-phase
  read/write buckets;
* **bounded occupancy** — no shard's cache ever exceeds its page
  budget, sampled concurrently while the clients run.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.core.check import check_driver
from repro.core.mapping import MAPPING_PHASE, MappingConfig
from repro.flash.chip import FlashChip
from repro.flash.spec import FlashSpec
from repro.methods import make_method

SPEC = FlashSpec(
    n_blocks=20, pages_per_block=8, page_data_size=256, page_spare_size=32
)
PAGE = SPEC.page_data_size

N_SHARDS = 4
N_CLIENTS = 8
N_PAGES = 160
OPS_PER_CLIENT = 100
CACHE_ENTRIES = 8  # far below a shard's pid count: faults guaranteed
INTERVAL = 48


def _mapping_cfg() -> MappingConfig:
    return MappingConfig.auto(
        SPEC, cache_entries=CACHE_ENTRIES, snapshot_interval=INTERVAL
    )


def _region_counted_chip(region_pages: int):
    """A chip counting raw device ops that land in the mapping region.

    Ground truth outside the stats layer: the read/program entry points
    are wrapped directly.  Each chip is driven by exactly one worker
    thread, so plain dicts need no lock.
    """
    chip = FlashChip(SPEC)
    raw = {"map_reads": 0, "map_programs": 0}

    orig_read = chip.read_page

    def read_page(addr, *args, _orig=orig_read, **kwargs):
        if addr < region_pages:
            raw["map_reads"] += 1
        return _orig(addr, *args, **kwargs)

    orig_reads = chip.read_pages

    def read_pages(addrs, *args, _orig=orig_reads, **kwargs):
        raw["map_reads"] += sum(1 for a in addrs if a < region_pages)
        return _orig(addrs, *args, **kwargs)

    orig_program = chip.program_page

    def program_page(addr, data, spare, _orig=orig_program):
        if addr < region_pages:
            raw["map_programs"] += 1
        return _orig(addr, data, spare)

    orig_programs = chip.program_pages

    def program_pages(items, _orig=orig_programs):
        raw["map_programs"] += sum(1 for a, _d, _s in items if a < region_pages)
        return _orig(items)

    chip.read_page = read_page  # type: ignore[method-assign]
    chip.read_pages = read_pages  # type: ignore[method-assign]
    chip.program_page = program_page  # type: ignore[method-assign]
    chip.program_pages = program_pages  # type: ignore[method-assign]
    return chip, raw


def _run_clients(driver, model):
    errors = []
    occupancy_violations = []
    shards = getattr(driver, "shards", None)

    def client(t):
        rng = random.Random(1000 + t)
        pids = list(range(t, N_PAGES, N_CLIENTS))
        try:
            for op in range(OPS_PER_CLIENT):
                pid = pids[rng.randrange(len(pids))]
                image = bytearray(model[pid])
                offset = rng.randrange(PAGE - 24)
                image[offset : offset + 24] = rng.randbytes(24)
                model[pid] = bytes(image)
                driver.write_page(pid, model[pid])
                driver.read_page(pid)
                if op % 40 == 39:
                    driver.group_flush()
                if shards is not None and op % 10 == t:
                    # Concurrent occupancy sample (reads two ints; the
                    # worst a race can produce is a stale sample).
                    shard = shards[t % len(shards)]
                    if shard.ppmt.cached_pages > shard.ppmt.cache_capacity_pages:
                        occupancy_violations.append(
                            (t, op, shard.ppmt.cached_pages)
                        )
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(t,), name=f"client-{t}")
        for t in range(N_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    assert not occupancy_violations, (
        f"mapping cache exceeded its budget mid-run: {occupancy_violations}"
    )
    driver.group_flush()


def test_mapping_audit_thread_executor():
    cfg = _mapping_cfg()
    region_pages = cfg.region_blocks * SPEC.pages_per_block
    chips, raws = [], []
    for _ in range(N_SHARDS):
        chip, raw = _region_counted_chip(region_pages)
        chips.append(chip)
        raws.append(raw)
    driver = make_method(
        f"PDL (64B) x{N_SHARDS} par",
        chips,
        mapping_cache=CACHE_ENTRIES,
        snapshot_interval=INTERVAL,
    )
    assert all(shard.mapping.config == cfg for shard in driver.shards)
    try:
        seed_rng = random.Random(20100130)
        model = [seed_rng.randbytes(PAGE) for _ in range(N_PAGES)]
        driver.load_pages(list(enumerate(model)))
        driver.end_of_load()
        _run_clients(driver, model)

        for pid in range(N_PAGES):
            assert driver.read_page(pid) == model[pid], f"pid {pid} corrupted"
        for shard in driver.shards:
            check_driver(shard).raise_if_inconsistent()
            assert shard.ppmt.cached_pages <= shard.ppmt.cache_capacity_pages

        # Raw-counter audit, chip by chip: every translation fault is
        # one mapping-region device read; every journal flush page,
        # overflow marker and snapshot page is one mapping-region
        # program.  (Demand paging is the *only* reader of the region
        # during normal operation.)
        for chip, raw in zip(chips, raws):
            assert chip.stats.mapping_misses == raw["map_reads"]
            assert chip.stats.mapping_writebacks == raw["map_programs"]
            # ...and the same equalities at the phase-bucket level.
            mapping_phase = chip.stats.of_phase(MAPPING_PHASE)
            assert mapping_phase.reads == chip.stats.mapping_misses
            assert mapping_phase.writes == chip.stats.mapping_writebacks

        merged = driver.stats
        assert merged.mapping_misses == sum(r["map_reads"] for r in raws)
        assert merged.mapping_writebacks == sum(r["map_programs"] for r in raws)
        assert merged.mapping_misses > 0, "cache never faulted under stress"
        assert merged.mapping_hits > 0
        report = merged.report()
        assert report["mapping_hits"] == merged.mapping_hits
        assert report["mapping_misses"] == merged.mapping_misses
        assert report["mapping_writebacks"] == merged.mapping_writebacks
    finally:
        driver.close()
