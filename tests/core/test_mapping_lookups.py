"""One translation per page per operation — held without a stopwatch.

The demand-paged mapping tier's host and flash cost on an update cycle is
set by how often the driver asks the table for a row it already had in
hand (docs/recovery.md, "The three mapping tiers").  Each such question
that gets past the dirty overlay is a directory bisect, a packed-row
bisect and an unpack; when the bounded clean cache has meanwhile evicted
the translation page it is also a charged flash read, a 2 KB CRC and an
LRU admit/evict.  Both counts repeat exactly for a seed, so — like
``test_call_budget.py`` for the codec — they stand in for a timing:

* a read-change-write cycle through a table ten times its clean cache
  cost 4.4 clean-tier lookups, 1.65 demand page-ins and 188 Python-level
  calls here (4.85 / 1.70 on the ``crash-restart`` benchmark's geometry)
  when ``write_page``, ``_reflect`` and the buffer flush each looked the
  row up again; with the row handed down, and the write served the row
  its read just translated, it costs 0.87 (the read's, less overlay
  hits), 0.83 and 129 — 92 calls since the flash read path under it
  lost its per-check calls (``test_read_call_budget.py``), 81.8 by the
  time the device backend was one class, and 69.9 once a lookup probed
  the row a gap-free translation page puts the pid at, counted a hit
  with one increment and found the page without a call, and a page-in
  stopped asking the store for its counters and half twice; 66.4 once
  the clean cache kept its own recency order instead of paying the
  bufferpool's eviction-policy protocol on every page-in.  The budgets
  sit between;
* a row kept resident for a pending mutator must not outlive it: after a
  flush the overlay holds the pids that were dirtied, and nothing else;
* a snapshot reads the old half it merges in one chip call, charged as
  one mapping-phase read and one miss per page.
"""

import random

from repro.core.mapping import MAPPING_PHASE, MappingConfig
from repro.core.pdl import PdlDriver
from repro.flash.chip import FlashChip
from repro.flash.spec import spec_for_database

PAGES = 2048
CYCLES = 600
CHANGE = 41  # 2 % of a 2 KB page, the paper's default update
LOOKUPS_PER_CYCLE_BUDGET = 1.3
PAGE_INS_PER_CYCLE_BUDGET = 1.0
CALLS_PER_CYCLE_BUDGET = 76


def tiered_driver(pages=PAGES, **driver_kwargs):
    """A loaded driver whose mapping table is ten times its clean cache
    and wholly flash-resident (empty overlay); no snapshot falls due in
    the tests' windows, so every mapping-phase read is a demand page-in."""
    rng = random.Random(20260930)
    spec = spec_for_database(pages, 0.25)
    mapping = MappingConfig.auto(
        spec, cache_entries=pages // 10, snapshot_interval=8 * CYCLES
    )
    driver = PdlDriver(FlashChip(spec), mapping=mapping, **driver_kwargs)
    driver.load_pages([(pid, rng.randbytes(driver.page_size)) for pid in range(pages)])
    driver.end_of_load()
    driver.mapping.snapshot()
    assert driver.ppmt.overlay_size == 0
    return driver, rng


def patched(rng, image, n_bytes=CHANGE):
    offset = rng.randrange(len(image) - n_bytes + 1)
    return image[:offset] + rng.randbytes(n_bytes) + image[offset + n_bytes :]


def test_update_cycle_translates_each_page_once(count_python_calls):
    driver, rng = tiered_driver()
    store, stats = driver.mapping, driver.chip.stats
    assert store.data_page_count >= 10 * driver.ppmt.cache_capacity_pages

    # Every lookup that gets past the overlay (and the last answer) is
    # one trip through the clean tier: count those.
    lookups = 0
    clean_lookup = driver.ppmt._clean_entry

    def counted(pid):
        nonlocal lookups
        lookups += 1
        return clean_lookup(pid)

    driver.ppmt._clean_entry = counted

    def window():
        for cycle in range(CYCLES):
            if cycle == CYCLES // 2:
                driver.flush()
            pid = rng.randrange(PAGES)
            driver.write_page(pid, patched(rng, driver.read_page(pid)))

    reads_before = stats.of_phase(MAPPING_PHASE).reads
    calls = count_python_calls(window) - 1  # less the call of window() itself

    assert store.snapshots_taken == 1, "a snapshot's table walk fell into the window"
    assert driver.buffer_flushes > CYCLES // 40, "the write buffer never cycled"
    page_ins = stats.of_phase(MAPPING_PHASE).reads - reads_before
    assert lookups / CYCLES <= LOOKUPS_PER_CYCLE_BUDGET, lookups / CYCLES
    assert page_ins / CYCLES <= PAGE_INS_PER_CYCLE_BUDGET, page_ins / CYCLES
    per_cycle = (calls - lookups) / CYCLES  # less the counting shim's own calls
    assert per_cycle <= CALLS_PER_CYCLE_BUDGET, per_cycle


def test_held_rows_leave_the_overlay_as_dirty_rows_or_not_at_all():
    driver, rng = tiered_driver(pages=256, max_differential_size=256)
    table = driver.ppmt
    images = {pid: driver.read_page(pid) for pid in (3, 70, 150, 151, 200)}

    # No-op reflections: the page equals its base and no differential is
    # stale anywhere — nothing is pending, nothing may be kept.
    for pid, image in images.items():
        driver.write_page(pid, image)
    assert table.overlay_size == 0

    # Cases 1/2 keep the row until the flush re-points it ...
    for pid in (3, 70, 150):
        driver.write_page(pid, patched(rng, images[pid]))
    assert driver.case_counts[1] == 3 and table.overlay_size == 3
    # ... Case 3 dirties it on the spot (and one pid is written twice).
    driver.write_page(200, rng.randbytes(driver.page_size))
    driver.write_page(3, patched(rng, images[3]))
    assert driver.case_counts[3] == 1
    driver.flush()

    dirtied = {3, 70, 150, 200}
    assert table.overlay_size == len(dirtied)
    assert {pid for pid, _entry in table.overlay_items()} == dirtied
    assert driver.mapping.snapshots_taken == 1, "a snapshot would have emptied it"


def test_a_row_handed_back_never_replaces_one_the_overlay_has():
    """Between a lookup and the hold, a Case-2 flush can run GC, which
    re-points (or fsck, which drops) the very row: the overlay's is newer."""
    driver, _rng = tiered_driver(pages=256)
    table = driver.ppmt
    moved, dropped, kept = table.require(7), table.require(9), table.require(11)
    table.move_base(7, moved.base_addr + 1)
    table.remove(9)

    for pid, row in ((7, moved), (9, dropped), (11, kept)):
        table.hold(pid, row)

    assert table.require(7).base_addr == moved.base_addr + 1
    assert table.get(9) is None and 9 not in table
    assert table.require(11) is kept
    assert table.overlay_size == 3


def test_the_last_translation_is_reused_but_never_outdated():
    driver, _rng = tiered_driver(pages=256)
    table, stats = driver.ppmt, driver.chip.stats
    first = table.require(7)
    hits, misses = stats.mapping_hits, stats.mapping_misses
    assert table.require(7) is first  # no second trip through the clean tier
    assert (stats.mapping_hits, stats.mapping_misses) == (hits + 1, misses)

    # A mutation is answered by the overlay from then on ...
    table.set_diff(7, 4242, 99)
    assert table.require(7).diff_addr == 4242
    # ... and a snapshot, which empties the overlay, forgets the old answer.
    driver.mapping.snapshot()
    assert table.overlay_size == 0
    assert table.require(7).diff_addr == 4242
    table.remove(7)
    driver.mapping.snapshot()
    assert table.get(7) is None


def test_a_snapshot_reads_its_old_half_in_one_chip_call():
    """The merge's input — every data page of the current snapshot — is
    one batched chip read, charged as the per-page reads it replaces: one
    mapping-phase ``Tread`` and one ``mapping_miss`` a page."""
    driver, rng = tiered_driver(pages=256)
    store, chip, stats, table = driver.mapping, driver.chip, driver.chip.stats, driver.ppmt
    for pid in (3, 70, 150, 151, 200):
        driver.write_page(pid, patched(rng, driver.read_page(pid)))
    driver.flush()
    expected = [table.require(pid) for pid in range(256)]

    calls = []
    for name in ("read_page", "read_pages", "read_spares", "read_data_areas"):
        def counted(*args, _name=name, _real=getattr(chip, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        setattr(chip, name, counted)
    pages = store.data_page_count
    assert pages > 1
    reads, misses = stats.of_phase(MAPPING_PHASE).reads, stats.mapping_misses

    store.snapshot()

    assert calls == ["read_pages"]
    assert stats.of_phase(MAPPING_PHASE).reads - reads == pages
    assert stats.mapping_misses - misses == pages
    assert table.overlay_size == 0
    assert [table.require(pid) for pid in range(256)] == expected
