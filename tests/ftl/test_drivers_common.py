"""Behavioural tests shared by all four page-update methods.

Every driver must satisfy the same functional contract: loaded pages read
back exactly, writes are visible to subsequent reads, unknown pages fail,
and sustained update traffic (GC/merging active) never corrupts data.
"""

import random

import pytest

from repro.flash.backend import FaultInjector
from repro.flash.chip import FlashChip
from repro.flash.errors import WrongPageError
from repro.ftl.base import ChangeRun, apply_runs
from repro.ftl.errors import UnknownPageError
from repro.ftl.ipl import IplDriver
from repro.methods import make_method

LABELS = ["PDL (64B)", "PDL (256B)", "OPU", "IPU", "IPL (512B)"]


@pytest.fixture(params=LABELS)
def driver(request, tiny_spec):
    chip = FlashChip(tiny_spec)
    return make_method(request.param, chip)


def _random_page(rng, size):
    return rng.randbytes(size)


class TestContract:
    def test_load_then_read(self, driver, rng):
        data = _random_page(rng, driver.page_size)
        driver.load_page(0, data)
        assert driver.read_page(0) == data

    def test_write_then_read(self, driver, rng):
        driver.load_page(0, _random_page(rng, driver.page_size))
        new = _random_page(rng, driver.page_size)
        driver.write_page(0, new, update_logs=[ChangeRun(0, new)])
        assert driver.read_page(0) == new

    def test_partial_update_with_logs(self, driver, rng):
        base = _random_page(rng, driver.page_size)
        driver.load_page(0, base)
        run = ChangeRun(10, b"\x42" * 5)
        new = apply_runs(base, [run])
        driver.write_page(0, new, update_logs=[run])
        assert driver.read_page(0) == new

    def test_unknown_page_read_fails(self, driver):
        with pytest.raises(UnknownPageError):
            driver.read_page(99)

    def test_double_load_fails(self, driver, rng):
        driver.load_page(0, _random_page(rng, driver.page_size))
        with pytest.raises(ValueError):
            driver.load_page(0, _random_page(rng, driver.page_size))

    def test_wrong_page_size_rejected(self, driver):
        with pytest.raises(ValueError):
            driver.load_page(0, b"short")
        with pytest.raises(ValueError):
            driver.write_page(0, b"short")

    def test_negative_pid_rejected(self, driver):
        with pytest.raises(ValueError):
            driver.load_page(-1, b"\x00" * driver.page_size)

    def test_first_write_without_load(self, driver, rng):
        """Growing databases write pages that were never bulk-loaded."""
        data = _random_page(rng, driver.page_size)
        driver.write_page(3, data, update_logs=[ChangeRun(0, data)])
        assert driver.read_page(3) == data

    def test_multiple_pages_isolated(self, driver, rng):
        images = {}
        for pid in range(6):
            images[pid] = _random_page(rng, driver.page_size)
            driver.load_page(pid, images[pid])
        new = _random_page(rng, driver.page_size)
        driver.write_page(2, new, update_logs=[ChangeRun(0, new)])
        images[2] = new
        for pid, expected in images.items():
            assert driver.read_page(pid) == expected

    def test_flush_is_safe_anytime(self, driver, rng):
        driver.flush()
        driver.load_page(0, _random_page(rng, driver.page_size))
        driver.flush()
        new = _random_page(rng, driver.page_size)
        driver.write_page(0, new, update_logs=[ChangeRun(0, new)])
        driver.flush()
        assert driver.read_page(0) == new


def _home(driver, pid):
    """The physical page a page-mapped baseline reads ``pid`` from."""
    if isinstance(driver, IplDriver):
        group, slot = driver._locate(pid)
        return group.block * driver.spec.pages_per_block + slot
    return driver.mapping[pid]


@pytest.mark.parametrize("label", ["OPU", "IPU", "IPL (512B)"])
def test_baseline_read_refuses_a_page_labelled_another_pid(label, tiny_spec, rng):
    """A misdirected write leaves an intact page (its checksum holds) of
    another pid where this one should be; the spare's pid tells."""
    chip = FlashChip(tiny_spec)
    driver = make_method(label, chip)
    images = {pid: _random_page(rng, driver.page_size) for pid in range(4)}
    for pid, data in images.items():
        driver.load_page(pid, data)
    addr, donor = _home(driver, 1), _home(driver, 2)
    FaultInjector(chip.backend).inject("misdirected_write", addr, donor=donor)
    with pytest.raises(WrongPageError) as err:
        driver.read_page(1)
    assert err.value.addr == addr
    assert str(err.value) == (
        f"read of pid 1: page {addr} holds pid 2, the mapping expects pid 1"
    )
    assert driver.read_page(2) == images[2]


class TestSustainedTraffic:
    """Model-based soak: hundreds of updates with GC/merging active."""

    def test_soak(self, driver):
        rng = random.Random(99)
        page_size = driver.page_size
        model = {}
        for pid in range(16):
            model[pid] = rng.randbytes(page_size)
            driver.load_page(pid, model[pid])
        for step in range(400):
            pid = rng.randrange(16)
            image = bytearray(driver.read_page(pid))
            assert bytes(image) == model[pid], f"step {step}: read mismatch"
            size = rng.choice([1, 8, 40, page_size // 2])
            offset = rng.randrange(page_size - size + 1)
            patch = rng.randbytes(size)
            image[offset : offset + size] = patch
            model[pid] = bytes(image)
            driver.write_page(
                pid, model[pid], update_logs=[ChangeRun(offset, patch)]
            )
        for pid, expected in model.items():
            assert driver.read_page(pid) == expected
