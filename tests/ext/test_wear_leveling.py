"""Tests for the alternative GC victim policies."""

import random

import pytest

from repro.core.pdl import PdlDriver
from repro.flash.chip import FlashChip
from repro.ftl.gc import GcConfig, wear_aware_policy
from repro.ftl.opu import OpuDriver


def _soak(driver, rng, n_pages=16, steps=500):
    images = {}
    for pid in range(n_pages):
        images[pid] = rng.randbytes(driver.page_size)
        driver.load_page(pid, images[pid])
    for _ in range(steps):
        pid = rng.randrange(n_pages)
        image = bytearray(images[pid])
        off = rng.randrange(len(image) - 4)
        image[off : off + 4] = rng.randbytes(4)
        images[pid] = bytes(image)
        driver.write_page(pid, images[pid])
    return images


@pytest.mark.parametrize(
    "policy", ["greedy", "rr", "wear"], ids=["greedy", "round_robin", "wear_aware"]
)
class TestPoliciesPreserveData:
    def test_opu_soak(self, tiny_spec, policy):
        chip = FlashChip(tiny_spec)
        driver = OpuDriver(chip, gc_config=GcConfig(policy=policy))
        images = _soak(driver, random.Random(1))
        for pid, expected in images.items():
            assert driver.read_page(pid) == expected
        assert chip.stats.total_erases > 0

    def test_pdl_soak(self, tiny_spec, policy):
        chip = FlashChip(tiny_spec)
        driver = PdlDriver(
            chip, max_differential_size=64, gc_config=GcConfig(policy=policy)
        )
        images = _soak(driver, random.Random(2))
        for pid, expected in images.items():
            assert driver.read_page(pid) == expected


class TestWearBehaviour:
    def test_round_robin_spreads_erases(self, tiny_spec):
        """Round-robin wear must be at least as even as greedy's."""

        def max_wear(policy):
            chip = FlashChip(tiny_spec)
            driver = OpuDriver(chip, gc_config=GcConfig(policy=policy))
            _soak(driver, random.Random(3), steps=800)
            counts = [chip.erase_count(b) for b in range(tiny_spec.n_blocks)]
            return max(counts), sum(counts)

        greedy_max, greedy_total = max_wear("greedy")
        rr_max, rr_total = max_wear("rr")
        assert rr_max <= greedy_max + 2

    def test_wear_aware_avoids_hot_blocks(self, tiny_spec):
        chip = FlashChip(tiny_spec)
        driver = OpuDriver(chip)
        driver.gc.policy = wear_aware_policy(wear_weight=5.0)
        _soak(driver, random.Random(4), steps=800)
        counts = [chip.erase_count(b) for b in range(tiny_spec.n_blocks)]
        # no block should be erased wildly more than the mean
        mean = sum(counts) / len(counts)
        assert max(counts) <= mean * 4 + 3
