"""A deterministic stand-in for a stopwatch on the update hot path.

Host time per update cycle is dominated by how many Python-level calls
the cycle makes (docs/architecture.md, "Differential codec"), and that
count — unlike a timing — repeats exactly for a seed.  With one object
and one named-tuple per 16-byte run the cycle cost 182 calls; with the
differential kept in wire form and the chip's per-call overhead trimmed
it cost 107; with one backend call per page read, the chip's checks
inline and find + apply fused (``test_read_call_budget.py``) it cost 70;
with the differential gathered by numpy in one pass and the program's
CRC packed by the spare's one encode call (docs/architecture.md, "Write
path") it costs 64.  The budget sits between the last two, so
re-introducing per-run object churn or a call per check fails tier-1
without a timing assertion.

The write alone — one ``PdlDriver.write_page`` — is counted too, on both
backends: 50.7 / 56.3 calls (memory / file) with a Python slice per
changed unit and a ``SpareArea`` copy per program to stamp its CRC,
44.3 / 49.9 without.  Its budgets sit less than one spare copy per
program above those counts, so either coming back fails by name.  (One
device backend, checking addresses inline, has since made them 38.4 /
42.8, and a chip program with its checks inline 37.1 / 41.5; the cycle
is 56.0.  Testing the re-read base's stamp through the shared
``stamp_mismatch`` costs one call: 38.1 / 42.5, and 58.0 per cycle.)

One chip program and one obsolete mark are counted on their own, on
both backends: ``FlashChip.program_page`` made 12 / 16 calls (memory /
file) and ``mark_obsolete`` 8 / 12 while each reached its checks through
helper frames (``_validate_program`` → ``_check_addr``, and
``_pre_mutate``); written as one straight line like ``read_page`` they
make 9 / 13 and 6 / 10.  Their budgets are those counts, so any helper
frame coming back on the happy path fails by name.

The one-shard façade is counted against the bare driver on the same
ops: a routed cycle (one read, one write) made 19.4 more calls with the
route, the gate and the GC owner guard each a chain of helpers, and
7.4 more with each one frame — the façade's own two methods, two routes,
two gates and two owner tests.  Its budget of 9 sits below the next
frame per page op, and the cycle must take exactly its two gate
releases and no simulated time beyond the bare driver's.
"""

import random
from functools import partial

import pytest

from repro.core.pdl import PdlDriver
from repro.flash.backend import FileBackend, MemoryBackend
from repro.flash.chip import FlashChip
from repro.flash.spare import PageType, SpareArea
from repro.flash.spec import spec_for_database
from repro.methods import make_method

PAGES = 256
CYCLES = 4000
WRITES = 2000
CHANGE = 41  # 2 % of a 2 KB page, the paper's default update
CALLS_PER_CYCLE_BUDGET = 67
ROUTED_EXTRA_CALLS_BUDGET = 9


def _changed(rng, driver, pid):
    image = bytearray(driver.read_page(pid))
    offset = rng.randrange(len(image) - CHANGE + 1)
    image[offset : offset + CHANGE] = rng.randbytes(CHANGE)
    return bytes(image)


def _loaded_driver(backend, rng):
    chip = FlashChip(backend.spec, backend=backend)
    driver = PdlDriver(chip, max_differential_size=256)
    for pid in range(PAGES):
        driver.load_page(pid, rng.randbytes(driver.page_size))
    return driver


def test_update_cycle_stays_within_its_call_budget(count_python_calls):
    rng = random.Random(20260917)
    driver = _loaded_driver(MemoryBackend(spec_for_database(PAGES, 0.25)), rng)
    chip = driver.chip

    def cycle():
        pid = rng.randrange(PAGES)
        driver.write_page(pid, _changed(rng, driver, pid))

    # Warm up: differentials at their steady-state size, GC running.
    while chip.stats.total_erases < chip.spec.n_blocks:
        cycle()
    erases_before = chip.stats.total_erases

    def window():
        for _ in range(CYCLES):
            cycle()

    calls = count_python_calls(window) - 1  # less the call of window() itself

    assert chip.stats.total_erases > erases_before, "GC never ran in the window"
    # Less the calls of cycle() and _changed() themselves.
    per_cycle = (calls - 2 * CYCLES) / CYCLES
    assert per_cycle <= CALLS_PER_CYCLE_BUDGET, per_cycle


@pytest.mark.parametrize("kind, budget", [("memory", 45), ("file", 51)])
def test_write_stays_within_its_call_budget(kind, budget, tmp_path, count_python_calls):
    rng = random.Random(20261016)
    spec = spec_for_database(PAGES, 0.25)
    if kind == "memory":
        backend = MemoryBackend(spec)
    else:
        backend = FileBackend(tmp_path / "chip.flash", spec)
    driver = _loaded_driver(backend, rng)
    chip = driver.chip
    try:
        while chip.stats.total_erases < chip.spec.n_blocks:
            pid = rng.randrange(PAGES)
            driver.write_page(pid, _changed(rng, driver, pid))
        erases_before = chip.stats.total_erases

        calls = 0
        for _ in range(WRITES):
            pid = rng.randrange(PAGES)
            image = _changed(rng, driver, pid)
            calls += count_python_calls(partial(driver.write_page, pid, image))

        assert chip.stats.total_erases > erases_before, "GC never ran in the window"
        per_write = calls / WRITES
        assert per_write <= budget, per_write
    finally:
        chip.close()


@pytest.mark.parametrize(
    "kind, program_budget, obsolete_budget", [("memory", 9, 6), ("file", 13, 10)]
)
def test_program_and_obsolete_mark_are_straight_lines(
    kind, program_budget, obsolete_budget, tmp_path, count_python_calls
):
    spec = spec_for_database(PAGES, 0.25)
    if kind == "memory":
        backend = MemoryBackend(spec)
    else:
        backend = FileBackend(tmp_path / "chip.flash", spec)
    chip = FlashChip(spec, backend=backend)
    try:
        data = random.Random(20261019).randbytes(spec.page_data_size)
        spare = SpareArea(type=PageType.BASE, pid=7, timestamp=9)
        program = count_python_calls(partial(chip.program_page, 3, data, spare))
        obsolete = count_python_calls(partial(chip.mark_obsolete, 3))
        assert chip.peek_data(3) == data and chip.peek_spare(3).obsolete
        assert chip.peek_spare(3).checksum is not None
        assert program <= program_budget, program
        assert obsolete <= obsolete_budget, obsolete
    finally:
        chip.close()


def test_routed_cycle_costs_one_route_and_one_gate_per_page_op(
    count_python_calls, count_lock_releases
):
    """The same seeded cycles on the one-shard façade and on the bare
    driver, over identical chips: routing and the gate may add a few
    calls, exactly one gate release per page op, and no simulated time."""

    def run(label):
        rng = random.Random(20261017)
        chip = FlashChip(spec_for_database(PAGES, 0.25))
        driver = make_method(label, [chip] if label.endswith("x1") else chip)
        for pid in range(PAGES):
            driver.load_page(pid, rng.randbytes(driver.page_size))

        def window():
            for _ in range(WRITES):
                pid = rng.randrange(PAGES)
                driver.write_page(pid, _changed(rng, driver, pid))

        while chip.stats.total_erases < chip.spec.n_blocks:
            window()
        calls = count_python_calls(window)
        releases = count_lock_releases(window)
        return calls, releases, chip.clock_us

    bare_calls, bare_releases, bare_clock = run("PDL (256B)")
    routed_calls, routed_releases, routed_clock = run("PDL (256B) x1")

    extra_calls = (routed_calls - bare_calls) / WRITES
    assert extra_calls <= ROUTED_EXTRA_CALLS_BUDGET, extra_calls
    assert routed_releases - bare_releases == 2 * WRITES  # one read + one write gate
    assert routed_clock == bare_clock
