"""Recovery-cost benchmark: scan vs snapshot+journal (dirty and clean).

The paper estimates the full Figure-11 recovery scan at ~60 s per GB
(one spare read per physical page), which is why restart cost grows
with *device size*.  The demand-paged mapping tier replaces that with a
periodic snapshot plus an incremental journal, so restart cost grows
with the *dirty volume* since the last snapshot instead.  This
benchmark quantifies both restart paths and emits
``bench_results/recovery.json``:

1. **device-size sweep** — a fixed post-snapshot dirty tail on devices
   of growing capacity: the scan cost grows with the device while the
   snapshot+journal restart stays near-flat;
2. **dirty-volume sweep** — a fixed device with growing dirty tails:
   the journal restart is the path whose cost tracks the tail;
3. **10x-RAM evidence** — the largest device runs with a mapping cache
   budgeted at under a tenth of its page count, and the cache occupancy
   stays bounded for the whole workload;
4. **clean checkpoint** — ``driver.flush(); driver.mapping.snapshot()``
   leaves a snapshot with an empty journal; restarting from it must be
   at least 10x cheaper than the scan, whose cost must extrapolate to the
   paper's ~60 s per GB.

Run standalone for CI (``python benchmarks/bench_recovery.py --tiny``)
or under pytest-benchmark like every other benchmark in this directory.
"""

import copy
import random
import sys
from pathlib import Path

if __name__ == "__main__":  # standalone CI mode: pytest uses conftest's shim
    _src = Path(__file__).resolve().parent.parent / "src"
    if str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.bench.reporting import ResultTable
from repro.core.mapping import MappingConfig
from repro.core.pdl import PdlDriver
from repro.core.recovery import recover_driver
from repro.ext.journal import restart_driver
from repro.flash.chip import FlashChip
from repro.flash.spec import spec_for_database

#: Snapshot cadence (journal records) used by every mapping cell here —
#: comfortably above the largest dirty tail the sweeps apply (an update
#: journals ~2 records), so the tail under measurement never triggers a
#: mid-sweep snapshot that would reset the journal.
SNAPSHOT_INTERVAL = 384


def _build_mapping(n_pages, cache_entries, dirty_writes, seed=9):
    """A mapping-tier device with a known post-snapshot dirty tail.

    Loads ``n_pages``, forces a snapshot (the clean baseline), then
    applies exactly ``dirty_writes`` updates so the journal tail — the
    O(dirty) part a restart must replay — is controlled by the caller.
    Returns ``(chip, driver, max_cache_occupancy_pages)``.
    """
    spec = spec_for_database(n_pages, utilization=0.25)
    cfg = MappingConfig.auto(
        spec, cache_entries=cache_entries, snapshot_interval=SNAPSHOT_INTERVAL
    )
    chip = FlashChip(spec)
    driver = PdlDriver(chip, max_differential_size=256, mapping=cfg)
    rng = random.Random(seed)
    for pid in range(n_pages):
        driver.load_page(pid, rng.randbytes(driver.page_size))
    driver.end_of_load()
    driver.mapping.snapshot()  # clean baseline: restart == tail replay
    max_occupancy = driver.ppmt.cached_pages
    for _ in range(dirty_writes):
        pid = rng.randrange(n_pages)
        image = bytearray(driver.read_page(pid))
        image[0:8] = rng.randbytes(8)
        driver.write_page(pid, bytes(image))
        max_occupancy = max(max_occupancy, driver.ppmt.cached_pages)
    driver.flush()
    max_occupancy = max(max_occupancy, driver.ppmt.cached_pages)
    return chip, driver, max_occupancy


def _measure_restart(chip, cfg_kwargs):
    """Snapshot+journal restart cost on a private copy of ``chip``."""
    replica = copy.deepcopy(chip)
    snap = replica.stats.snapshot()
    driver, report = restart_driver(replica, **cfg_kwargs)
    delta = replica.stats.delta_since(snap)
    return driver, report, delta.totals().time_us, delta.totals().reads


def _measure_scan(chip, cfg_kwargs):
    """Full Figure-11 scan cost on a private copy of ``chip``.

    ``recover_driver`` without ``mapping`` ignores the mapping region's
    CHECKPOINT-typed pages, so it measures exactly the paper's scan.
    """
    replica = copy.deepcopy(chip)
    snap = replica.stats.snapshot()
    _driver, report = recover_driver(replica, **cfg_kwargs)
    delta = replica.stats.delta_since(snap)
    return report, delta.totals().time_us, delta.totals().reads


def recovery_experiment(tiny=False, database_pages=None):
    """The full scan/snapshot+journal comparison; returns a ResultTable.

    ``tiny`` shrinks the sweep for the CI smoke job; ``database_pages``
    overrides the base device size (defaults follow the bench scale).
    """
    base = database_pages or (128 if tiny else 256)
    sizes = [base, base * 2, base * 4]
    dirty = 24 if tiny else 48
    table = ResultTable(
        experiment="recovery",
        title=(
            "Restart cost: Figure-11 scan vs snapshot+journal "
            f"(fixed dirty tail of {dirty} updates)"
        ),
        columns=(
            "sweep",
            "device_pages",
            "dirty_writes",
            "path",
            "simulated_us",
            "flash_reads",
            "journal_records",
            "tail_pages",
        ),
    )

    scan_us_by_size, fast_us_by_size = [], []
    largest = None
    for n_pages in sizes:
        cache_entries = max(8, n_pages // 16)
        chip, driver, occupancy = _build_mapping(n_pages, cache_entries, dirty)
        scan_report, scan_us, scan_reads = _measure_scan(
            chip, dict(max_differential_size=256)
        )
        fast_driver, report, fast_us, fast_reads = _measure_restart(
            chip, dict(max_differential_size=256, mapping=driver.mapping.config)
        )
        assert report.fast_path and not report.fallback, (
            f"device={n_pages}: restart fell back to the scan"
        )
        # The restart must converge to the live driver's logical state.
        assert dict(fast_driver.ppmt.items()) == dict(driver.ppmt.items())
        assert dict(fast_driver.vdct.items()) == dict(driver.vdct.items())
        table.add_row("device", n_pages, dirty, "full_scan", scan_us,
                      scan_reads, 0, 0)
        table.add_row("device", n_pages, dirty, "snapshot_journal", fast_us,
                      fast_reads, report.journal_records,
                      report.tail_pages_scanned)
        scan_us_by_size.append(scan_us)
        fast_us_by_size.append(fast_us)
        if n_pages == sizes[-1]:
            largest = (chip, driver, occupancy, cache_entries, scan_report)
        else:
            chip.close()

    # Dirty-volume sweep at the base device size: the journal restart is
    # the path whose cost tracks the tail, not the device.
    fast_by_dirty = []
    for tail in (dirty // 4, dirty // 2, dirty):
        chip, driver, _occ = _build_mapping(base, max(8, base // 16), tail)
        _drv, report, fast_us, fast_reads = _measure_restart(
            chip, dict(max_differential_size=256, mapping=driver.mapping.config)
        )
        assert report.fast_path
        table.add_row("dirty", base, tail, "snapshot_journal", fast_us,
                      fast_reads, report.journal_records,
                      report.tail_pages_scanned)
        fast_by_dirty.append((tail, report.journal_records, fast_us))
        chip.close()

    chip, driver, occupancy, cache_entries, scan_report = largest
    ram_ratio = sizes[-1] / cache_entries
    table.note(
        f"largest device maps {sizes[-1]} pages through a "
        f"{cache_entries}-entry cache ({ram_ratio:.0f}x the mapping RAM); "
        f"cache occupancy peaked at {occupancy}/"
        f"{driver.ppmt.cache_capacity_pages} mapping pages"
    )
    table.note(
        f"scan cost grew {scan_us_by_size[-1] / scan_us_by_size[0]:.1f}x "
        f"across a {sizes[-1] // sizes[0]}x device sweep; snapshot+journal "
        f"restart grew {fast_us_by_size[-1] / fast_us_by_size[0]:.1f}x"
    )
    table.note(
        f"fallback scan batches differential data reads: "
        f"{scan_report.diff_pages_read} pages in "
        f"{scan_report.diff_read_batches} read_pages calls"
    )
    for tail, records, fast_us in fast_by_dirty:
        table.note(
            f"dirty tail {tail} updates -> {records} journal records, "
            f"restart {fast_us:.0f} us"
        )

    # O(dirty), not O(device): across a 4x device sweep with the tail
    # held fixed, the journal restart grows far slower than the scan.
    scan_growth = scan_us_by_size[-1] / scan_us_by_size[0]
    fast_growth = fast_us_by_size[-1] / fast_us_by_size[0]
    assert scan_growth > 2.0, (scan_us_by_size, "scan should track device size")
    assert fast_growth < scan_growth / 2.0, (
        fast_us_by_size,
        "snapshot+journal restart should not track device size",
    )
    assert fast_us_by_size[-1] * 3 < scan_us_by_size[-1]
    # ...and with the device held fixed, the replayed volume tracks the
    # dirty tail monotonically.
    assert fast_by_dirty[0][1] < fast_by_dirty[-1][1], fast_by_dirty
    # 10x-RAM acceptance: the largest device serves >=10x its mapping
    # RAM and the cache never exceeds its budget.
    assert ram_ratio >= 10.0
    assert occupancy <= driver.ppmt.cache_capacity_pages
    assert chip.stats.mapping_misses > 0, "cache never faulted: not demand-paged"

    # Clean checkpoint = a snapshot with an empty journal.  Restarting
    # from it reads two seals, the meta pages and the journal spares —
    # at least an order of magnitude cheaper than the Figure-11 scan.
    driver.flush()
    driver.mapping.snapshot()
    _scan, scan_us, scan_reads = _measure_scan(chip, dict(max_differential_size=256))
    _drv, report, clean_us, clean_reads = _measure_restart(
        chip, dict(max_differential_size=256, mapping=driver.mapping.config)
    )
    assert report.fast_path and report.journal_records == 0
    table.add_row("clean", sizes[-1], 0, "full_scan", scan_us, scan_reads, 0, 0)
    table.add_row("clean", sizes[-1], 0, "snapshot_journal", clean_us,
                  clean_reads, 0, report.tail_pages_scanned)
    assert clean_us * 10 < scan_us, (clean_us, scan_us)
    # The scan is one Tread per page plus differential-page data reads,
    # so its extrapolation lands in the paper's ballpark.
    per_gb = scan_us / chip.spec.data_capacity * (1 << 30) / 1e6
    table.note(f"full scan extrapolates to {per_gb:.1f} s per GB "
               "(paper estimates ~60 s per GB)")
    assert 40.0 <= per_gb <= 120.0, per_gb
    chip.close()
    return table


def test_recovery_snapshot_journal(run_experiment, scale):
    run_experiment(recovery_experiment, tiny=scale.database_pages <= 256)


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true",
                        help="CI smoke sweep (smaller devices)")
    parser.add_argument("--pages", type=int, default=None,
                        help="base device size in pages")
    args = parser.parse_args(argv)
    table = recovery_experiment(tiny=args.tiny, database_pages=args.pages)
    print(table.render())
    path = table.save()
    print(f"saved: {path}")


if __name__ == "__main__":
    main()
