"""A deterministic stand-in for a stopwatch on the update hot path.

Host time per update cycle is dominated by how many Python-level calls
the cycle makes (docs/architecture.md, "Differential codec"), and that
count — unlike a timing — repeats exactly for a seed.  With one object
and one named-tuple per 16-byte run the cycle cost 182 calls; with the
differential kept in wire form and the chip's per-call overhead trimmed
it cost 107; with one backend call per page read, the chip's checks
inline and find + apply fused (``test_read_call_budget.py``) it costs 70.
The budget sits between the last two, so re-introducing per-run object
churn or a call per check fails tier-1 without a timing assertion.
"""

import random

from repro.core.pdl import PdlDriver
from repro.flash.chip import FlashChip
from repro.flash.spec import spec_for_database

PAGES = 256
CYCLES = 4000
CHANGE = 41  # 2 % of a 2 KB page, the paper's default update
CALLS_PER_CYCLE_BUDGET = 90


def test_update_cycle_stays_within_its_call_budget(count_python_calls):
    rng = random.Random(20260917)
    chip = FlashChip(spec_for_database(PAGES, 0.25))
    driver = PdlDriver(chip, max_differential_size=256)
    size = driver.page_size
    for pid in range(PAGES):
        driver.load_page(pid, rng.randbytes(size))

    def cycle():
        pid = rng.randrange(PAGES)
        image = bytearray(driver.read_page(pid))
        offset = rng.randrange(size - CHANGE + 1)
        image[offset : offset + CHANGE] = rng.randbytes(CHANGE)
        driver.write_page(pid, bytes(image))

    # Warm up: differentials at their steady-state size, GC running.
    while chip.stats.total_erases < chip.spec.n_blocks:
        cycle()
    erases_before = chip.stats.total_erases

    def window():
        for _ in range(CYCLES):
            cycle()

    calls = count_python_calls(window) - 1  # less the call of window() itself

    assert chip.stats.total_erases > erases_before, "GC never ran in the window"
    per_cycle = (calls - CYCLES) / CYCLES  # less the call of cycle() itself
    assert per_cycle <= CALLS_PER_CYCLE_BUDGET, per_cycle
