"""Tests for the PDL consistency checker, `check_driver` (it flags; fsck repairs)."""

import random

import pytest

from repro.core.check import check_driver
from repro.core.pdl import PdlDriver
from repro.core.recovery import recover_driver
from repro.flash.chip import FlashChip
from repro.flash.errors import SimulatedPowerLoss


def _soak(driver, rng, n_pages=12, steps=300, flush_every=11):
    images = {}
    for pid in range(n_pages):
        images[pid] = rng.randbytes(driver.page_size)
        driver.load_page(pid, images[pid])
    for i in range(steps):
        pid = rng.randrange(n_pages)
        image = bytearray(images[pid])
        off = rng.randrange(len(image) - 6)
        image[off : off + 6] = rng.randbytes(6)
        images[pid] = bytes(image)
        driver.write_page(pid, images[pid])
        if i % flush_every == 0:
            driver.flush()
    return images


class TestConsistentStates:
    def test_fresh_driver(self, tiny_spec):
        chip = FlashChip(tiny_spec)
        driver = PdlDriver(chip, max_differential_size=64)
        report = check_driver(driver)
        assert report.consistent
        report.raise_if_inconsistent()

    def test_after_soak_with_gc(self, tiny_spec):
        chip = FlashChip(tiny_spec)
        driver = PdlDriver(chip, max_differential_size=64)
        _soak(driver, random.Random(1), steps=500)
        assert chip.stats.total_erases > 0
        report = check_driver(driver)
        assert report.consistent, report.violations

    def test_after_recovery(self, tiny_spec):
        chip = FlashChip(tiny_spec)
        driver = PdlDriver(chip, max_differential_size=64)
        rng = random.Random(2)
        chip.crash_after(rng.randrange(40, 150))
        try:
            _soak(driver, rng, steps=400)
        except SimulatedPowerLoss:
            pass
        recovered, _ = recover_driver(chip, max_differential_size=64)
        report = check_driver(recovered)
        assert report.consistent, report.violations


class TestDetectsCorruption:
    def test_detects_wrong_base_pointer(self, tiny_spec):
        chip = FlashChip(tiny_spec)
        driver = PdlDriver(chip, max_differential_size=64)
        driver.load_page(0, bytes(driver.page_size))
        driver.load_page(1, bytes(driver.page_size))
        # corrupt the table: point pid 0's base at pid 1's page
        row, other = driver.ppmt.require(0), driver.ppmt.require(1)
        own, row.base_addr = row.base_addr, other.base_addr
        report = check_driver(driver)
        # A wrong stamp is one violation, worded as the read words it.
        assert report.violations == [
            f"pid 0: base page {other.base_addr} holds (pid 1, ts {other.base_ts}), "
            f"the mapping row expects (pid 0, ts {row.base_ts})",
            f"base address {other.base_addr} referenced by 2 pids",
            f"bitmap marks unreferenced page {own} valid",
        ]

    def test_detects_vdct_drift(self, tiny_spec):
        chip = FlashChip(tiny_spec)
        driver = PdlDriver(chip, max_differential_size=64)
        driver.load_page(0, bytes(driver.page_size))
        image = bytearray(driver.page_size)
        image[0] = 1
        driver.write_page(0, bytes(image))
        driver.flush()
        driver.vdct.increment(driver.ppmt.require(0).diff_addr)  # drift
        report = check_driver(driver)
        assert not report.consistent
        with pytest.raises(AssertionError):
            report.raise_if_inconsistent()

    def test_detects_bitmap_drift(self, tiny_spec):
        chip = FlashChip(tiny_spec)
        driver = PdlDriver(chip, max_differential_size=64)
        driver.load_page(0, bytes(driver.page_size))
        driver.blocks.note_valid(driver.ppmt.require(0).base_addr + 1)
        report = check_driver(driver)
        assert not report.consistent
