"""Unit tests for the NAND chip emulator: semantics, costs, faults."""

import pytest

from repro.flash.chip import FlashChip
from repro.flash.errors import (
    AddressError,
    ProgramError,
    SimulatedPowerLoss,
    SpareProgramError,
    WearOutError,
)
from repro.flash.spare import PageType, SpareArea, data_checksum
from repro.flash.spec import FlashSpec


def _page(chip: FlashChip, fill: int = 0xAB) -> bytes:
    return bytes([fill]) * chip.spec.page_data_size


class TestReadSemantics:
    def test_erased_page_reads_all_ones(self, chip):
        data, spare = chip.read_page(0)
        assert data == b"\xff" * chip.spec.page_data_size
        assert spare.is_erased

    def test_program_then_read(self, chip):
        chip.program_page(3, _page(chip), SpareArea(type=PageType.DATA, pid=7))
        data, spare = chip.read_page(3)
        assert data == _page(chip)
        assert spare.pid == 7
        assert spare.type is PageType.DATA

    def test_short_data_padded_with_ones(self, chip):
        chip.program_page(0, b"\x00\x01", SpareArea(type=PageType.DATA))
        data, _ = chip.read_page(0)
        assert data[:2] == b"\x00\x01"
        assert data[2:] == b"\xff" * (chip.spec.page_data_size - 2)

    def test_read_spare_only(self, chip):
        chip.program_page(1, _page(chip), SpareArea(type=PageType.BASE, pid=5))
        assert chip.read_spare(1).pid == 5

    def test_out_of_range_read(self, chip):
        with pytest.raises(AddressError):
            chip.read_page(chip.spec.n_pages)


class TestProgramSemantics:
    def test_reprogram_without_erase_fails(self, chip):
        chip.program_page(0, _page(chip), SpareArea(type=PageType.DATA))
        with pytest.raises(ProgramError):
            chip.program_page(0, _page(chip), SpareArea(type=PageType.DATA))

    def test_oversized_data_fails(self, chip):
        with pytest.raises(ProgramError):
            chip.program_page(
                0, b"\x00" * (chip.spec.page_data_size + 1), SpareArea()
            )

    def test_erase_then_reprogram(self, chip):
        chip.program_page(0, _page(chip, 0x01), SpareArea(type=PageType.DATA))
        chip.erase_block(0)
        chip.program_page(0, _page(chip, 0x02), SpareArea(type=PageType.DATA))
        assert chip.read_page(0)[0] == _page(chip, 0x02)

    def test_erase_resets_whole_block(self, chip):
        for page in range(chip.spec.pages_per_block):
            chip.program_page(page, _page(chip), SpareArea(type=PageType.DATA))
        chip.erase_block(0)
        assert chip.is_block_erased(0)

    def test_erase_leaves_other_blocks(self, chip):
        other = chip.spec.pages_per_block  # first page of block 1
        chip.program_page(other, _page(chip), SpareArea(type=PageType.DATA))
        chip.erase_block(0)
        assert not chip.is_page_erased(other)


class TestPartialProgram:
    def test_partial_fills_slice(self, chip):
        chip.program_partial(0, 16, b"\x01\x02", SpareArea(type=PageType.LOG))
        data, spare = chip.read_page(0)
        assert data[16:18] == b"\x01\x02"
        assert data[:16] == b"\xff" * 16
        assert spare.type is PageType.LOG

    def test_partial_over_programmed_region_fails(self, chip):
        chip.program_partial(0, 0, b"\x01")
        with pytest.raises(ProgramError):
            chip.program_partial(0, 0, b"\x02")

    def test_partial_budget_enforced(self):
        spec = FlashSpec(
            n_blocks=4, pages_per_block=4, page_data_size=256,
            page_spare_size=16, max_log_page_programs=2,
        )
        chip = FlashChip(spec)
        chip.program_partial(0, 0, b"\x01")
        chip.program_partial(0, 8, b"\x02")
        with pytest.raises(ProgramError):
            chip.program_partial(0, 16, b"\x03")

    def test_partial_outside_page_fails(self, chip):
        with pytest.raises(ProgramError):
            chip.program_partial(0, chip.spec.page_data_size - 1, b"\x00\x00")


class TestObsoleteMarking:
    def test_mark_obsolete(self, chip):
        chip.program_page(0, _page(chip), SpareArea(type=PageType.BASE, pid=1))
        chip.mark_obsolete(0)
        spare = chip.read_spare(0)
        assert spare.obsolete
        assert spare.pid == 1  # other fields preserved

    def test_mark_erased_page_fails(self, chip):
        with pytest.raises(ProgramError):
            chip.mark_obsolete(0)

    def test_spare_program_budget(self, chip):
        chip.program_page(0, _page(chip), SpareArea(type=PageType.BASE, pid=1))
        for _ in range(chip.spec.max_spare_programs - 1):
            chip.mark_obsolete(0)  # idempotent bit-clear, counts programs
        with pytest.raises(SpareProgramError):
            chip.mark_obsolete(0)

    def test_spare_reprogram_rejects_bit_setting(self, chip):
        chip.program_page(
            0, _page(chip), SpareArea(type=PageType.BASE, pid=1, timestamp=0)
        )
        with pytest.raises(SpareProgramError):
            # timestamp 0 has all ts bits cleared; None would set them to 1
            chip.program_spare(0, SpareArea(type=PageType.BASE, pid=1))


class TestSpareHandedToTheBackend:
    """Every program hands the backend the caller's spare with the data
    area's CRC stamped in, or the caller's own CRC kept (GC relocations
    pass a decoded spare through); a 16-byte spare has no room for it."""

    @pytest.mark.parametrize("spare_size", [16, 20, 64])
    @pytest.mark.parametrize("supplied", [None, 0x1234ABCD], ids=["stamped", "supplied"])
    def test_program_page_pages_and_spare(self, spare_size, supplied):
        spec = FlashSpec(
            n_blocks=4, pages_per_block=4, page_data_size=256, page_spare_size=spare_size
        )
        chip = FlashChip(spec)
        spare = SpareArea(type=PageType.BASE, pid=7, timestamp=3, checksum=supplied)
        short = b"\x00\x01\x02"  # padded with 0xFF; the CRC covers the padding
        payload = short + b"\xff" * (spec.page_data_size - len(short))
        crc = data_checksum(payload) if supplied is None else supplied

        chip.program_page(0, short, spare)
        chip.program_pages([(1, short, spare), (2, payload, spare)])
        stamped = spare.with_checksum(crc).encode(spare_size)
        assert [chip.backend.read_spare(addr) for addr in (0, 1, 2)] == [stamped] * 3

        # A re-programmed spare with no CRC of its own keeps the page's.
        chip.program_spare(0, spare.with_checksum(None).as_obsolete())
        obsolete = spare.as_obsolete().with_checksum(crc).encode(spare_size)
        assert chip.backend.read_spare(0) == obsolete


class TestCostAccounting:
    def test_read_cost(self, chip):
        chip.read_page(0)
        chip.read_spare(1)
        assert chip.stats.totals().reads == 2
        assert chip.clock_us == 2 * chip.spec.t_read_us

    def test_write_cost(self, chip):
        chip.program_page(0, _page(chip), SpareArea(type=PageType.DATA))
        chip.program_partial(1, 0, b"\x00")
        chip.mark_obsolete(0)
        assert chip.stats.totals().writes == 3
        assert chip.clock_us == 3 * chip.spec.t_write_us

    def test_erase_cost_and_wear(self, chip):
        chip.erase_block(2)
        chip.erase_block(2)
        assert chip.stats.totals().erases == 2
        assert chip.erase_count(2) == 2
        assert chip.stats.block_erases[2] == 2
        assert chip.clock_us == 2 * chip.spec.t_erase_us

    def test_clock_survives_stats_reset(self, chip):
        chip.read_page(0)
        chip.stats.reset()
        assert chip.stats.total_time_us == 0
        assert chip.clock_us == chip.spec.t_read_us

    def test_peek_is_free(self, chip):
        chip.program_page(0, _page(chip), SpareArea(type=PageType.DATA))
        before = chip.clock_us
        chip.peek_data(0)
        chip.peek_spare(0)
        assert chip.clock_us == before


class TestEndurance:
    def test_wearout_enforced_when_enabled(self):
        spec = FlashSpec(
            n_blocks=4, pages_per_block=4, page_data_size=256,
            page_spare_size=16, erase_endurance=3, enforce_endurance=True,
        )
        chip = FlashChip(spec)
        for _ in range(3):
            chip.erase_block(0)
        with pytest.raises(WearOutError):
            chip.erase_block(0)

    def test_wear_counted_but_not_enforced_by_default(self, chip):
        for _ in range(10):
            chip.erase_block(0)
        assert chip.erase_count(0) == 10


class TestCrashInjection:
    def test_crash_fires_before_nth_mutation(self, chip):
        chip.crash_after(1)
        chip.program_page(0, _page(chip), SpareArea(type=PageType.DATA))  # survives
        with pytest.raises(SimulatedPowerLoss):
            chip.program_page(1, _page(chip), SpareArea(type=PageType.DATA))
        # the failed operation must not have happened
        assert chip.is_page_erased(1)
        assert not chip.is_page_erased(0)

    def test_crash_zero_fails_immediately(self, chip):
        chip.crash_after(0)
        with pytest.raises(SimulatedPowerLoss):
            chip.erase_block(0)

    def test_reads_do_not_consume_countdown(self, chip):
        chip.crash_after(1)
        for _ in range(10):
            chip.read_page(0)
        chip.program_page(0, _page(chip), SpareArea(type=PageType.DATA))
        with pytest.raises(SimulatedPowerLoss):
            chip.erase_block(0)

    def test_disarm(self, chip):
        chip.crash_after(0)
        chip.crash_after(None)
        chip.erase_block(0)  # no crash

    def test_crash_is_one_shot(self, chip):
        chip.crash_after(0)
        with pytest.raises(SimulatedPowerLoss):
            chip.erase_block(0)
        chip.erase_block(0)  # hook disarmed after firing

    def test_negative_countdown_rejected(self, chip):
        with pytest.raises(ValueError):
            chip.crash_after(-1)

    def test_crash_after_replaces_the_observer(self, chip):
        seen = []
        chip.on_operation(seen.append)
        chip.crash_after(1)
        chip.erase_block(0)  # allowed through, and unseen
        with pytest.raises(SimulatedPowerLoss):
            chip.erase_block(0)
        assert seen == []

    def test_disarm_empties_the_slot(self, chip):
        seen = []
        chip.on_operation(seen.append)
        chip.crash_after(None)
        chip.erase_block(0)
        assert seen == []

    def test_operation_observer(self, chip):
        seen = []
        chip.on_operation(seen.append)
        chip.program_page(0, _page(chip), SpareArea(type=PageType.DATA))
        chip.erase_block(0)
        assert seen == ["program_page", "erase_block"]


class TestIteration:
    def test_iter_programmed_pages(self, chip):
        chip.program_page(3, _page(chip), SpareArea(type=PageType.DATA))
        chip.program_partial(9, 0, b"\x00", SpareArea(type=PageType.LOG))
        assert sorted(chip.iter_programmed_pages()) == [3, 9]


class TestBitsCompatible:
    """The vectorized NAND legality check must agree with the big-int
    path on every input — the numpy fast path is an optimisation, not a
    semantic change."""

    @staticmethod
    def _reference(old, new):
        # The original formulation: one big-int AND over the whole buffer.
        old_int = int.from_bytes(old, "little")
        new_int = int.from_bytes(new, "little")
        return old_int & new_int == new_int

    @pytest.mark.parametrize("size", [1, 16, 127, 128, 129, 256, 2048])
    def test_matches_reference_on_random_pairs(self, size, rng):
        from repro.flash.chip import _bits_compatible

        for _ in range(50):
            old = rng.randbytes(size)
            kind = rng.randrange(3)
            if kind == 0:
                new = rng.randbytes(size)  # usually illegal
            elif kind == 1:
                # Legal program: only clears bits.
                new = bytes(b & rng.randrange(256) for b in old)
            else:
                # Near-legal: clear bits, then set one back somewhere.
                cleared = bytearray(b & rng.randrange(256) for b in old)
                i = rng.randrange(size)
                cleared[i] |= (~old[i]) & 0xFF
                new = bytes(cleared)
            assert _bits_compatible(old, new) == self._reference(old, new), (
                size,
                old.hex(),
                new.hex(),
            )

    def test_accepts_memoryviews_and_bytearrays(self):
        from repro.flash.chip import _bits_compatible

        old = bytes(range(256))
        new = bytes(b & 0x7F for b in old)
        assert _bits_compatible(memoryview(old), bytearray(new))
        assert not _bits_compatible(memoryview(new), bytearray(old))

    def test_erased_accepts_anything(self):
        from repro.flash.chip import _bits_compatible

        erased = b"\xff" * 512
        assert _bits_compatible(erased, bytes(512))
        assert _bits_compatible(erased, erased)
