"""PDL_Reading's call budget: the read path's stand-in for a stopwatch.

One ``PdlDriver.read_page`` of a page whose differential is on flash is
two chip reads and one merge.  Counted in Python-level calls (which,
unlike a timing, repeat exactly) that was 39.7 on ``MemoryBackend`` and
46.0 on ``FileBackend`` while every chip read made two backend calls and
a method call per check, and the codec found the entry, sliced it out
and unpacked its run headers a second time to apply it; one backend call
per page, positional file I/O and the fused ``merge_from_page`` make it
17 and 21 (docs/architecture.md, "Read path").  The budget sits between,
so a per-check method call or a second backend call per page fails
tier-1.  ``test_call_budget.py`` holds the whole read-change-write cycle.
"""

import random

import pytest

from repro.core.pdl import PdlDriver
from repro.flash.backend import FileBackend, MemoryBackend
from repro.flash.chip import FlashChip
from repro.flash.spec import spec_for_database

PAGES = 256
CHANGE = 41  # 2 % of a 2 KB page, the paper's default update
CALLS_PER_READ_BUDGET = 24


def _aged_driver(backend):
    """A driver past its first GC wrap with the write buffer flushed, so
    every differential that exists is on flash."""
    rng = random.Random(20261003)
    chip = FlashChip(backend.spec, backend=backend)
    driver = PdlDriver(chip, max_differential_size=256)
    size = driver.page_size
    for pid in range(PAGES):
        driver.load_page(pid, rng.randbytes(size))
    while chip.stats.total_erases < chip.spec.n_blocks:
        pid = rng.randrange(PAGES)
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
