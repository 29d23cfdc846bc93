"""PDL_Reading's call budget: the read path's stand-in for a stopwatch.

One ``PdlDriver.read_page`` of a page whose differential is on flash is
two chip reads and one merge.  Counted in Python-level calls (which,
unlike a timing, repeat exactly) that was 39.7 on ``MemoryBackend`` and
46.0 on ``FileBackend`` while every chip read made two backend calls and
a method call per check, and the codec found the entry, sliced it out
and unpacked its run headers a second time to apply it; one backend call
per page, positional file I/O and the fused ``merge_from_page`` make it
17 and 21 (docs/architecture.md, "Read path"), and 14 and 18 once the
merge took its run-header struct from the cache without a call; 16 and
20 since the base spare's stamp is tested by the one shared predicate,
``stamp_mismatch``, and the merge calls the shared validator.  The
budget sits between, so a per-check method call or a second backend
call per page fails tier-1.  ``test_call_budget.py`` holds the whole
read-change-write cycle.  A read through a row that records where its
entry starts unpacks one entry header, where a walk unpacks one per
entry in front of it too; that is counted here as well.

The restart scan (Figure 11) is counted the same way, per scanned page
of the aged chip, with the spare-decode memo empty as in a freshly
started process: 14.9 calls on ``MemoryBackend`` and 16.5 on
``FileBackend`` while the scan decoded a ``Differential`` per entry;
6.4 and 6.8 once it walked entry headers only
(``differential_page_stamps``) but still decoded a ``SpareArea`` per
page and kept the tables up to date entry by entry; 1.11 and 1.49 once
each chunk of spares was triaged as one record array, adoption updated
one local row per pid and the tables were installed once; 0.88 and 0.90
now that the backend hands over a chunk's spares as one buffer (one
``preadv`` on file), the chunk's differential pages' data areas as
another (a few coalesced ``pread`` calls, not two per page), and one
batched walk reads every entry stamp of those pages
(docs/recovery.md, "What the scan costs on the host").  What is left is
per pid, per adopted differential page and per dropped differential,
not per scanned page.  The budgets sit just above those counts — well
under the 0.53 calls per page one call per differential entry would
add, and under one call per page — so either coming back fails tier-1;
the chip reads the restart charged are pinned exactly, so the count
cannot be bought with fewer charged reads.

The same restart is held two more ways.  Its positional reads on the
file backend are counted: one per spare chunk and a few per chunk of
differential pages (1 + 16 for the aged chip's 47), where it made 93,
one per spare run and two per differential page.  And its peak of
traced memory is bounded by what it was before the bulk reads (196.2
KiB on ``MemoryBackend``, 346.4 KiB on ``FileBackend``, rounded up;
about 107 and 139 KiB now): a walk that built per-run index arrays over
a whole chunk doubled it.  The scan's two per-chunk buffers
are anonymous maps, which ``tracemalloc`` does not see; what they cost
is the end-to-end benchmark's ``peak_rss_mb``.

A fast restart of a mapping-enabled chip is bounded the same way: it
holds page validity as the allocator's one byte per page from the
snapshot's bitmap to the rebuild, where it held a set of every valid
page's address (410.7 KiB of traced peak on the 2 048-page chip below,
against about 191 KiB now).
"""

import gc
import os
import random
import tracemalloc

import pytest

from repro.core import differential
from repro.core.mapping import MappingConfig
from repro.core.pdl import PdlDriver
from repro.core.recovery import SCAN_CHUNK_PAGES, recover_driver
from repro.core.restart import restart_driver
from repro.flash.backend import FileBackend, MemoryBackend
from repro.flash import spare as spare_codec
from repro.flash.chip import FlashChip
from repro.flash.spec import spec_for_database

PAGES = 256
CHANGE = 41  # 2 % of a 2 KB page, the paper's default update
CALLS_PER_READ_BUDGET = 24
CALLS_PER_SCANNED_PAGE_BUDGET = {"memory": 0.92, "file": 0.95}
RESTART_READS = 1071  # every spare, plus each differential page's data area
RESTART_PEAK_KIB = {"memory": 197, "file": 347}
FAST_RESTART_PAGES = 2048
FAST_RESTART_PEAK_KIB = 224


def _aged_driver(backend, pages=PAGES, mapping=None):
    """A driver past its first GC wrap with the write buffer flushed, so
    every differential that exists is on flash."""
    rng = random.Random(20261003)
    chip = FlashChip(backend.spec, backend=backend)
    driver = PdlDriver(chip, max_differential_size=256, mapping=mapping)
    size = driver.page_size
    for pid in range(pages):
        driver.load_page(pid, rng.randbytes(size))
    while chip.stats.total_erases < chip.spec.n_blocks:
        pid = rng.randrange(pages)
        image = bytearray(driver.read_page(pid))
        offset = rng.randrange(size - CHANGE + 1)
        image[offset : offset + CHANGE] = rng.randbytes(CHANGE)
        driver.write_page(pid, bytes(image))
    driver.flush()
    return driver


@pytest.mark.parametrize("kind", ["memory", "file"])
def test_read_of_a_page_with_its_differential_on_flash(kind, tmp_path, count_python_calls):
    spec = spec_for_database(PAGES, 0.25)
    backend = MemoryBackend(spec) if kind == "memory" else FileBackend(tmp_path / "chip.flash", spec)
    driver = _aged_driver(backend)
    try:
        pids = [pid for pid, entry in driver.ppmt.items() if entry.diff_addr is not None]
        assert len(pids) > PAGES // 2, "aging left too few differentials on flash"
        reads_before = driver.stats.totals().reads

        def window():
            for pid in pids:
                driver.read_page(pid)

        calls = count_python_calls(window) - 1  # less the call of window() itself

        assert driver.stats.totals().reads - reads_before == 2 * len(pids)
        per_read = calls / len(pids)
        assert per_read <= CALLS_PER_READ_BUDGET, per_read
    finally:
        driver.chip.close()


class CountingHeader:
    """A stand-in for ``differential._ENTRY_HEADER`` that counts unpacks."""

    def __init__(self, real):
        self.real = real
        self.unpacks = 0

    def unpack_from(self, *args):
        self.unpacks += 1
        return self.real.unpack_from(*args)


def test_a_placed_row_reads_one_entry_header(monkeypatch):
    """A row whose differential the writer placed says where its entry
    starts, and the read goes straight there: one entry header unpacked
    per read.  With the offsets forgotten, as on rows a mapping restart
    brings back, the same reads walk the entries in front as well."""
    driver = _aged_driver(MemoryBackend(spec_for_database(PAGES, 0.25)))
    placed = {pid: entry for pid, entry in driver.ppmt.items() if entry.diff_addr is not None}
    assert all(entry.diff_at is not None for entry in placed.values())
    header = CountingHeader(differential._ENTRY_HEADER)
    monkeypatch.setattr(differential, "_ENTRY_HEADER", header)

    images = [driver.read_page(pid) for pid in placed]
    assert header.unpacks == len(placed)

    for entry in placed.values():
        entry.diff_at = None
    header.unpacks = 0
    assert [driver.read_page(pid) for pid in placed] == images
    assert header.unpacks > 2 * len(placed)


@pytest.mark.parametrize("kind", ["memory", "file"])
def test_restart_scan_of_an_aged_chip(kind, tmp_path, count_python_calls):
    spec = spec_for_database(PAGES, 0.25)
    backend = MemoryBackend(spec) if kind == "memory" else FileBackend(tmp_path / "chip.flash", spec)
    chip = _aged_driver(backend).chip
    try:
        reads_before = chip.stats.totals().reads
        # A restart runs in a fresh process: no spare is memoized yet.
        spare_codec._DECODE_CACHE.clear()
        reports = []

        def restart():
            reports.append(recover_driver(chip)[1])

        calls = count_python_calls(restart) - 1  # less the call of restart() itself

        (report,) = reports
        assert report.pages_scanned == spec.n_pages
        assert report.differentials_adopted > PAGES, "aging left too few differentials"
        assert chip.stats.totals().reads - reads_before == RESTART_READS
        per_page = calls / report.pages_scanned
        assert per_page <= CALLS_PER_SCANNED_PAGE_BUDGET[kind], per_page
    finally:
        chip.close()


def test_restart_scan_reads_in_bulk(tmp_path, monkeypatch):
    spec = spec_for_database(PAGES, 0.25)
    chip = _aged_driver(FileBackend(tmp_path / "chip.flash", spec)).chip
    try:
        spare_reads, data_reads = [], []
        real_pread, real_preadv = os.pread, os.preadv

        def pread(fd, size, offset):
            data_reads.append(size)
            return real_pread(fd, size, offset)

        def preadv(fd, buffers, offset):
            spare_reads.append(sum(map(len, buffers)))
            return real_preadv(fd, buffers, offset)

        monkeypatch.setattr(os, "pread", pread)
        monkeypatch.setattr(os, "preadv", preadv)
        report = recover_driver(chip)[1]
        monkeypatch.undo()

        chunks = -(-spec.n_pages // SCAN_CHUNK_PAGES)
        assert spare_reads == [spec.n_pages * spec.page_spare_size] * chunks
        assert report.diff_read_batches == chunks
        assert report.diff_pages_read > 40, "aging left too few differential pages"
        # Coalesced: well under one read per page, where it was two.
        assert len(data_reads) <= report.diff_pages_read // 2, data_reads
        assert sum(data_reads) >= report.diff_pages_read * spec.page_data_size
    finally:
        chip.close()


@pytest.mark.parametrize("kind", ["memory", "file"])
def test_restart_scan_peak_memory(kind, tmp_path):
    spec = spec_for_database(PAGES, 0.25)
    backend = MemoryBackend(spec) if kind == "memory" else FileBackend(tmp_path / "chip.flash", spec)
    chip = _aged_driver(backend).chip
    try:
        spare_codec._DECODE_CACHE.clear()
        gc.collect()
        tracemalloc.start()
        try:
            recover_driver(chip)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= RESTART_PEAK_KIB[kind] * 1024, peak / 1024
    finally:
        chip.close()


def test_fast_restart_peak_memory():
    """A journal fast restart holds no per-page Python object for page
    validity: one bitmap goes from the snapshot's meta to the allocator."""
    spec = spec_for_database(FAST_RESTART_PAGES, 0.25)
    mapping = MappingConfig.auto(spec, cache_entries=FAST_RESTART_PAGES // 10)
    driver = _aged_driver(MemoryBackend(spec), FAST_RESTART_PAGES, mapping)
    driver.mapping.snapshot()
    rng = random.Random(20261021)
    for _ in range(32):  # a journal tail behind the snapshot
        pid = rng.randrange(FAST_RESTART_PAGES)
        image = bytearray(driver.read_page(pid))
        image[:CHANGE] = rng.randbytes(CHANGE)
        driver.write_page(pid, bytes(image))
    driver.flush()
    chip = driver.chip
    del driver
    spare_codec._DECODE_CACHE.clear()
    gc.collect()
    tracemalloc.start()
    try:
        report = restart_driver(chip, mapping=mapping, max_differential_size=256)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.fast_path and report.journal_records > 0
    assert peak <= FAST_RESTART_PEAK_KIB * 1024, peak / 1024
