"""What each post-paper extension buys, as exact simulated counters.

The paper reports counts of flash reads, programs and erases turned into
Table-1 time; the subsystems built on top of it (incremental GC and its
victim policies, sharded arrays, the journaled mapping tier, fsck) are
held to the same currency.  Every number below is such a count on a
seeded workload — no host clock, no thread — so it is the same on every
run, and a change that moves one has changed what the engine does on
flash: update the integer here and say why.
"""

import copy
import random

from repro.core.fsck import fsck_driver
from repro.core.mapping import MappingConfig
from repro.core.pdl import PdlDriver
from repro.core.recovery import recover_driver
from repro.ext.journal import restart_driver
from repro.flash.chip import FlashChip
from repro.flash.spec import FlashSpec, spec_for_database
from repro.ftl.gc import GcConfig
from repro.workloads.runner import RunnerConfig, build_workload, warm_to_steady_state

# --- Space management: incremental GC, hot/cold streams, victim policies
GC_SPEC = FlashSpec(n_blocks=32, pages_per_block=32, page_data_size=256, page_spare_size=16)


def _skewed_updates(config):
    """4 000 updates, 90 % on a tenth of the pages, on a 55 %-full chip:
    mostly small patches, one in ten a near-full rewrite (Case 3)."""
    chip = FlashChip(GC_SPEC)
    driver = PdlDriver(chip, max_differential_size=256, gc_config=config)
    rng = random.Random(20100111)
    page = GC_SPEC.page_data_size
    n_pages = int(GC_SPEC.n_pages * 0.55)
    driver.load_pages((pid, rng.randbytes(page)) for pid in range(n_pages))
    model = [driver.read_page(pid) for pid in range(n_pages)]
    chip.stats.reset()
    for i in range(4000):
        pid = rng.randrange(n_pages // 10 if rng.random() < 0.9 else n_pages)
        roll = rng.random()
        n = 8 if roll < 0.4 else 24 if roll < 0.7 else 48 if roll < 0.9 else 240
        offset = rng.randrange(page - n)
        image = bytearray(model[pid])
        image[offset : offset + n] = rng.randbytes(n)
        model[pid] = bytes(image)
        driver.write_page(pid, model[pid])
        if i % 64 == 63:
            driver.flush()
    stall_p99 = chip.stats.write_stall_percentile(99)
    counters = (stall_p99, chip.stats.total_erases, driver.gc.pages_relocated)
    assert [driver.read_page(pid) for pid in range(n_pages)] == model
    return counters


INC_HC = dict(incremental_steps=1, hot_cold=True)


def test_incremental_hot_cold_gc_cuts_the_stall_tail_without_extra_wear():
    """One relocated page per write instead of a whole collection cycle
    inside one unlucky write: the p99 GC stall a write absorbs drops ×4,
    and separating hot from cold pages keeps the erase count below the
    stop-the-world baseline's."""
    assert _skewed_updates(GcConfig())[:2] == (14420.0, 104)
    assert _skewed_updates(GcConfig(**INC_HC))[:2] == (3630.0, 98)


def test_cost_benefit_victims_relocate_fewer_pages_than_greedy():
    assert _skewed_updates(GcConfig(**INC_HC))[2] == 731
    assert _skewed_updates(GcConfig(policy="cb", **INC_HC))[2] == 644


# --- Sharding: the busiest chip's share of the work
def _chip_busy_us(n_shards):
    """Per-chip simulated busy time of 150 steady-state uniform updates."""
    runner = RunnerConfig(database_pages=256, measure_ops=150)
    workload = build_workload(f"PDL (256B) x{n_shards}", runner, 2.0, 1)
    warm_to_steady_state(workload, runner)
    before = workload.driver.chip_clocks()
    workload.run_updates(runner.measure_ops)
    return [after - b for after, b in zip(workload.driver.chip_clocks(), before)]


def test_four_shards_cut_the_busiest_chips_share_without_adding_work():
    """Elapsed time with the chips serving concurrently is the busiest
    chip's busy time; total device work is the sum."""
    one, four = _chip_busy_us(1), _chip_busy_us(4)
    assert one == [144190.0]
    assert four == [39170.0, 40250.0, 29090.0, 31880.0]
    assert max(one) > 2 * max(four)  # x3.58
    assert sum(four) < 1.3 * sum(one)  # x0.97


# --- Mapping tier: restart cost follows the dirty tail, not the device
def _journaled_device(n_pages, dirty_writes):
    """``n_pages`` behind a cache of a sixteenth as many rows, snapshotted,
    then ``dirty_writes`` updates.  Returns (driver, peak cached pages)."""
    spec = spec_for_database(n_pages, utilization=0.25)
    cfg = MappingConfig.auto(spec, cache_entries=max(8, n_pages // 16), snapshot_interval=384)
    driver = PdlDriver(FlashChip(spec), max_differential_size=256, mapping=cfg)
    rng = random.Random(9)
    for pid in range(n_pages):
        driver.load_page(pid, rng.randbytes(driver.page_size))
    driver.end_of_load()
    driver.mapping.snapshot()
    peak = driver.ppmt.cached_pages
    for _ in range(dirty_writes):
        pid = rng.randrange(n_pages)
        image = bytearray(driver.read_page(pid))
        image[0:8] = rng.randbytes(8)
        driver.write_page(pid, bytes(image))
        peak = max(peak, driver.ppmt.cached_pages)
    driver.flush()
    return driver, max(peak, driver.ppmt.cached_pages)


def _recovery_cost(driver, journaled):
    """(report, flash reads, simulated µs) of recovering a copy of the
    chip: the snapshot+journal restart, or the Figure-11 scan."""
    chip = copy.deepcopy(driver.chip)
    snap = chip.stats.snapshot()
    if journaled:
        _, report = restart_driver(chip, max_differential_size=256, mapping=driver.mapping.config)
        assert report.fast_path and not report.fallback
    else:
        _, report = recover_driver(chip, max_differential_size=256)
    cost = chip.stats.delta_since(snap).totals()
    return report, cost.reads, cost.time_us


def test_restart_reads_follow_the_dirty_tail_while_the_scan_follows_the_device():
    small, _ = _journaled_device(128, 24)
    large, peak = _journaled_device(512, 24)
    assert [_recovery_cost(d, journaled=False)[1] for d in (small, large)] == [513, 2049]
    assert [_recovery_cost(d, journaled=True)[1] for d in (small, large)] == [199, 205]
    tails = [_journaled_device(128, n)[0] for n in (6, 12, 24)]
    assert [_recovery_cost(d, journaled=True)[0].journal_records for d in tails] == [13, 25, 49]
    # The large table is 16x its cache: demand-paged, never over budget.
    assert 512 >= 10 * large.mapping.config.cache_entries
    assert large.chip.stats.mapping_misses > 0
    assert peak <= large.ppmt.cache_capacity_pages


def test_clean_snapshot_restarts_an_order_of_magnitude_cheaper_than_the_scan():
    driver, _ = _journaled_device(512, 24)
    driver.mapping.snapshot()  # a clean checkpoint: the journal is empty
    report, _, restart_us = _recovery_cost(driver, journaled=True)
    _, _, scan_us = _recovery_cost(driver, journaled=False)
    assert (report.journal_records, restart_us, scan_us) == (0, 14410.0, 225390.0)
    assert 10 * restart_us < scan_us
    # One Tread per physical page: the paper estimates ~60 s per GB.
    per_gb_s = scan_us / driver.chip.spec.data_capacity * (1 << 30) / 1e6
    assert 40.0 <= per_gb_s <= 120.0  # 57.7


# --- fsck: a clean sweep is linear in the device
def test_clean_fsck_sweep_reads_each_page_about_once():
    spec = FlashSpec(n_blocks=48, pages_per_block=32)
    driver = PdlDriver(FlashChip(spec), max_differential_size=64, mapping=MappingConfig.auto(spec))
    images = [bytes([pid % 255 + 1]) * spec.page_data_size for pid in range(spec.n_pages // 4)]
    for pid, image in enumerate(images):
        driver.load_page(pid, image)
    driver.end_of_load()
    for pid, image in enumerate(images):  # a differential behind every base
        driver.write_page(pid, image[:5] + b"\xbb" + image[6:])
    driver.flush()
    driver.mapping.snapshot()
    for pid in range(3):  # and a journal tail behind the snapshot
        driver.write_page(pid, images[pid])
    driver.flush()
    report = fsck_driver(driver, repair=False)
    assert report.clean
    assert (report.pages_scanned, report.scan_reads) == (1536, 1945)
    assert report.scan_reads < 3 * report.pages_scanned  # x1.27


def test_dry_run_fsck_pages_each_snapshot_page_in_once():
    """fsck walks the mapping table once: on a table many times its
    cache, a dry run demand-pages every snapshot page exactly once."""
    spec = FlashSpec(n_blocks=64, pages_per_block=16, page_data_size=512, page_spare_size=32)
    driver = PdlDriver(
        FlashChip(spec), max_differential_size=64,
        mapping=MappingConfig.auto(spec, cache_entries=16),
    )
    images = [bytes([pid % 255 + 1]) * spec.page_data_size for pid in range(300)]
    for pid, image in enumerate(images):
        driver.load_page(pid, image)
    driver.end_of_load()
    for pid in range(0, len(images), 3):
        driver.write_page(pid, images[pid][:7] + b"\xcc" + images[pid][8:])
    driver.flush()
    driver.mapping.snapshot()
    before = driver.chip.stats.mapping_misses
    assert fsck_driver(driver, repair=False).clean
    assert driver.mapping.data_page_count == 18
    assert driver.chip.stats.mapping_misses - before == 18
