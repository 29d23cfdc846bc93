"""Where a differential's entry starts in its page: the row says so.

Every path that places a differential on flash — a Case-1/2 buffer
flush, GC compaction, fsck's salvage and the Figure-11 scan
(``recover_driver``) — records in the ppmt row where the entry starts,
as ``MappingEntry.diff_at``, so PDL_Reading merges it without walking
the entries in front of it.  Each test below checks every row with a
differential against the start a walk of its page finds.  The offset is
RAM only: rows a mapping restart brings back from the snapshot or the
journal carry ``None``, and read the same images by walking.
"""

from __future__ import annotations

import copy
import random

import pytest

from repro.core.differential import PAGE_HEADER_SIZE, decode_differential_page
from repro.core.fsck import fsck_driver
from repro.core.mapping import MappingConfig
from repro.core.pdl import PdlDriver
from repro.core.recovery import recover_driver
from repro.flash.backend import FaultInjector, MemoryBackend
from repro.flash.chip import FlashChip
from repro.flash.spec import FlashSpec

#: A spare area with room for the data checksum, so reads verify pages.
SPEC = FlashSpec(n_blocks=16, pages_per_block=8, page_data_size=256, page_spare_size=32)
MAX_DIFF = 64
SEED = 20100121


def walked_starts(chip, addr):
    """``(pid, timestamp) -> start`` of every entry on a differential page."""
    data, _spare = chip.read_page(addr)
    starts, at = {}, PAGE_HEADER_SIZE
    for diff in decode_differential_page(data):
        starts[diff.pid, diff.timestamp] = at
        at += diff.size
    return starts


def placed_rows(driver, rows=None):
    """The rows with a differential on flash (``rows``: ``(pid, entry)``
    pairs, by default the whole table), each checked: its ``diff_at`` is
    where a walk of its page finds the entry stamped ``diff_ts``."""
    rows = {
        pid: e
        for pid, e in (driver.ppmt.items() if rows is None else rows)
        if e is not None and e.diff_addr is not None
    }
    for pid, entry in rows.items():
        starts = walked_starts(driver.chip, entry.diff_addr)
        assert entry.diff_at == starts[pid, entry.diff_ts], pid
    return rows


def patch(rng, image, n_bytes=24):
    offset = rng.randrange(len(image) - n_bytes + 1)
    return image[:offset] + rng.randbytes(n_bytes) + image[offset + n_bytes :]


def load(driver, rng, n_pids):
    images = {pid: rng.randbytes(SPEC.page_data_size) for pid in range(n_pids)}
    for pid, image in images.items():
        driver.load_page(pid, image)
    driver.end_of_load()
    return images


def age(driver, n_pids=60, n_writes=800, n_bytes=4):
    """Uniform small updates through several GC rounds: compaction
    carries still-valid differentials to shared pages, and the final
    flush leaves the write buffer empty."""
    rng = random.Random(SEED)
    images = load(driver, rng, n_pids)
    for _ in range(n_writes):
        pid = rng.randrange(n_pids)
        images[pid] = patch(rng, images[pid], n_bytes)
        driver.write_page(pid, images[pid])
    driver.flush()
    return images


def assert_reads(driver, images):
    for pid, image in images.items():
        assert driver.read_page(pid) == image, pid


@pytest.mark.parametrize("tiered", [False, True])
def test_buffer_flushes_record_entry_starts(tiered):
    mapping = MappingConfig.auto(SPEC, snapshot_interval=40) if tiered else None
    driver = PdlDriver(FlashChip(SPEC), max_differential_size=MAX_DIFF, mapping=mapping)
    rng = random.Random(SEED)
    images = load(driver, rng, 10)
    for _ in range(40):
        pid = rng.randrange(10)
        images[pid] = patch(rng, images[pid])
        driver.write_page(pid, images[pid])
    driver.flush()
    assert driver.case_counts[1] and driver.case_counts[2]
    # The demand-paged table keeps the offset on the rows a flush dirtied
    # since its last snapshot; the snapshot's own rows carry none.
    rows = placed_rows(driver, driver.ppmt.overlay_items() if tiered else None)
    assert len(rows) >= 3 and any(e.diff_at > PAGE_HEADER_SIZE for e in rows.values())
    assert_reads(driver, images)


def test_gc_compaction_records_entry_starts():
    driver = PdlDriver(FlashChip(SPEC), max_differential_size=MAX_DIFF)
    compacted = []
    program = driver._program_differentials

    def spy(diffs, stream, for_gc=False):
        addr, starts = program(diffs, stream, for_gc)
        if for_gc:
            compacted.append(addr)
        return addr, starts

    driver._program_differentials = spy
    images = age(driver)
    rows = placed_rows(driver)
    survivors = [e for e in rows.values() if e.diff_addr in compacted]
    assert any(e.diff_at > PAGE_HEADER_SIZE for e in survivors), "no compacted page shared"
    assert_reads(driver, images)


def test_fsck_salvage_records_entry_starts():
    backend = MemoryBackend(SPEC)
    injector = FaultInjector(backend, seed=7)
    driver = PdlDriver(FlashChip(SPEC, backend=backend), max_differential_size=MAX_DIFF)
    rng = random.Random(SEED)
    images = load(driver, rng, 3)
    versions = []
    for _ in range(2):  # two flushed versions, each one page of three entries
        for pid in images:
            images[pid] = patch(rng, images[pid], 1)
            driver.write_page(pid, images[pid])
        driver.flush()
        versions.append(dict(images))
    (rotted,) = {driver.ppmt.require(pid).diff_addr for pid in images}
    injector.inject("bit_rot", rotted)
    report = fsck_driver(driver)
    assert report.repaired_differentials == 3
    rows = placed_rows(driver)
    assert len(rows) == 3 and rotted not in {e.diff_addr for e in rows.values()}
    assert sorted(e.diff_at for e in rows.values())[-1] > PAGE_HEADER_SIZE
    assert_reads(driver, versions[0])  # each pid rolled back one version


def test_recovery_scan_records_entry_starts():
    driver = PdlDriver(FlashChip(SPEC), max_differential_size=MAX_DIFF)
    images = age(driver)
    recovered, _report = recover_driver(
        copy.deepcopy(driver.chip), max_differential_size=MAX_DIFF
    )
    rows = placed_rows(recovered)
    assert rows and all(e.diff_at is not None for e in rows.values())
    assert_reads(recovered, images)


def test_mapping_restart_rows_carry_no_entry_start():
    mapping = MappingConfig.auto(SPEC, cache_entries=8, snapshot_interval=40)
    driver = PdlDriver(FlashChip(SPEC), max_differential_size=MAX_DIFF, mapping=mapping)
    images = age(driver, n_pids=10, n_writes=120, n_bytes=24)
    restarted, report = recover_driver(
        copy.deepcopy(driver.chip), max_differential_size=MAX_DIFF, mapping=mapping
    )
    assert report.fast_path and report.journal_records
    rows = {pid: e for pid, e in restarted.ppmt.items() if e.diff_addr is not None}
    assert rows and all(e.diff_at is None for e in rows.values())
    assert_reads(restarted, images)
