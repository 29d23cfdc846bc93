"""The device fault injector and the chip's checksum verification."""

from collections import Counter

import pytest

from repro.flash.backend import (
    FAULT_KINDS,
    FaultInjectionError,
    FaultInjector,
    FileBackend,
    MemoryBackend,
)
from repro.flash.chip import FlashChip
from repro.flash.errors import ChecksumError
from repro.flash.spare import (
    CHECKSUM_HEADER_SIZE,
    PageType,
    SpareArea,
    data_checksum,
)
from repro.flash.spec import FlashSpec

SPEC = FlashSpec(n_blocks=4, pages_per_block=4, page_data_size=64, page_spare_size=32)


def _backend(kind, spec, tmp_path):
    if kind == "memory":
        return MemoryBackend(spec)
    return FileBackend(tmp_path / "chip.flash", spec)


def _chip(tmp_path, kind="memory", seed=0, **chip_kwargs):
    injector = FaultInjector(_backend(kind, SPEC, tmp_path), seed=seed)
    chip = FlashChip(SPEC, backend=injector, **chip_kwargs)
    return injector, chip


def _load(chip, n=6):
    for addr in range(n):
        chip.program_page(
            addr,
            bytes([addr + 1]) * SPEC.page_data_size,
            SpareArea(type=PageType.BASE, pid=addr, timestamp=addr + 1),
        )


@pytest.mark.parametrize("kind", ["memory", "file"])
class TestInjection:
    def test_bit_rot_breaks_checksum(self, tmp_path, kind):
        injector, chip = _chip(tmp_path, kind)
        _load(chip)
        injector.inject("bit_rot", 2)
        with pytest.raises(ChecksumError):
            chip.read_page(2)
        assert chip.stats.checksum_failures == 1
        # Other pages are untouched.
        chip.read_page(1)

    def test_bit_rot_flips_exactly_n_bits(self, tmp_path, kind):
        injector, chip = _chip(tmp_path, kind)
        _load(chip)
        before = injector.inner.read_data(2)
        injector.inject("bit_rot", 2, n_bits=3)
        after = injector.inner.read_data(2)
        flipped = sum(bin(a ^ b).count("1") for a, b in zip(before, after))
        assert flipped == 3

    def test_misdirected_write_is_self_consistent(self, tmp_path, kind):
        """The overwritten page carries the donor's data *and* spare, so
        its checksum verifies — only the mapping layer can catch it."""
        injector, chip = _chip(tmp_path, kind)
        _load(chip)
        injector.inject("misdirected_write", 3, donor=1)
        data, spare = chip.read_page(3)  # verifies: no ChecksumError
        assert data == bytes([2]) * SPEC.page_data_size
        assert spare.pid == 1

    def test_torn_spare_reverts_tail_bytes(self, tmp_path, kind):
        injector, chip = _chip(tmp_path, kind)
        _load(chip)
        injector.inject("torn_spare", 4, tear_at=2)
        raw = injector.inner.read_spare(4)
        assert raw[2:] == b"\xff" * (len(raw) - 2)
        spare = chip.read_spare(4)
        assert spare.pid is None  # the pid field tore away

    def test_default_tear_point_is_inside_header(self, tmp_path, kind):
        injector, chip = _chip(tmp_path, kind)
        _load(chip)
        injector.inject("torn_spare", 0)
        raw = injector.inner.read_spare(0)
        torn_from = len(raw)
        while torn_from > 0 and raw[torn_from - 1] == 0xFF:
            torn_from -= 1
        assert torn_from < CHECKSUM_HEADER_SIZE

    def test_erased_page_rejects_faults(self, tmp_path, kind):
        injector, chip = _chip(tmp_path, kind)
        _load(chip, n=2)
        with pytest.raises(FaultInjectionError):
            injector.inject("bit_rot", 15)
        with pytest.raises(FaultInjectionError):
            injector.inject("torn_spare", 15)

    def test_unknown_kind_rejected(self, tmp_path, kind):
        injector, chip = _chip(tmp_path, kind)
        _load(chip, n=1)
        with pytest.raises(FaultInjectionError):
            injector.inject("cosmic_ray", 0)

    def test_fault_log_and_counters(self, tmp_path, kind):
        injector, chip = _chip(tmp_path, kind)
        _load(chip)
        injector.inject("bit_rot", 0)
        injector.inject("torn_spare", 1)
        assert injector.total_injected == 2
        assert injector.injected["bit_rot"] == 1
        assert injector.injected["torn_spare"] == 1
        assert [entry[0] for entry in injector.fault_log] == ["bit_rot", "torn_spare"]
        assert set(injector.injected) <= set(FAULT_KINDS)


class TestDeterminism:
    def test_same_seed_same_faults(self, tmp_path):
        logs = []
        for run in range(2):
            injector, chip = _chip(tmp_path / str(run), seed=42)
            _load(chip)
            injector.inject("bit_rot", 2)
            injector.inject("torn_spare", 3)
            injector.inject("misdirected_write", 4)
            logs.append(
                (injector.fault_log, injector.inner.read_data(2),
                 injector.inner.read_spare(3), injector.inner.read_data(4))
            )
        assert logs[0] == logs[1]

    def test_different_seed_differs(self, tmp_path):
        datas = []
        for run, seed in enumerate([1, 2]):
            injector, chip = _chip(tmp_path / str(run), seed=seed)
            _load(chip)
            injector.inject("bit_rot", 2, n_bits=4)
            datas.append(injector.inner.read_data(2))
        assert datas[0] != datas[1]


class TestInjectorDelegation:
    def test_chip_behaves_normally_through_injector(self, tmp_path):
        """Until a fault is injected the wrapper is transparent."""
        injector, chip = _chip(tmp_path)
        _load(chip)
        for addr in range(6):
            data, spare = chip.read_page(addr)
            assert data == bytes([addr + 1]) * SPEC.page_data_size
            assert spare.pid == addr
        chip.erase_block(0)
        assert injector.inner.is_block_erased(0)

    def test_mutations_do_not_consume_program_budget(self, tmp_path):
        injector, chip = _chip(tmp_path)
        _load(chip)
        before = injector.inner.spare_programs(1)
        injector.inject("torn_spare", 1)
        assert injector.inner.spare_programs(1) == before
        # The spare program budget is still available for mark_obsolete.
        chip.mark_obsolete(1)


class CountingBackend:
    """Delegates every backend call to ``inner`` and counts it by name."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = Counter()

    def __getattr__(self, name):
        attr = getattr(self.inner, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)

        return counted


@pytest.mark.parametrize("kind", ["memory", "file"])
class TestOneBackendCallPerRead:
    """chip → counter → FaultInjector → counter → backend: a chip page
    read is one call at both seams, checks and charges intact."""

    @staticmethod
    def _stack(tmp_path, kind):
        below = CountingBackend(_backend(kind, SPEC, tmp_path))
        injector = FaultInjector(below)
        above = CountingBackend(injector)
        chip = FlashChip(SPEC, backend=above)
        _load(chip)
        above.calls.clear()
        below.calls.clear()
        return chip, injector, above, below

    def test_read_page_is_one_call(self, tmp_path, kind):
        chip, _injector, above, below = self._stack(tmp_path, kind)
        data, spare = chip.read_page(2)
        assert (data, spare.pid) == (bytes([3]) * SPEC.page_data_size, 2)
        assert above.calls == {"read_page": 1}
        assert below.calls == {"read_page": 1}  # the injector delegates it whole
        assert chip.stats.totals().reads == 1
        assert chip.stats.checksum_checks == 1

    def test_read_pages_is_one_call(self, tmp_path, kind):
        chip, _injector, above, below = self._stack(tmp_path, kind)
        assert len(chip.read_pages(range(6))) == 6
        assert above.calls == below.calls == {"read_pages": 1}
        assert chip.stats.totals().reads == 6

    def test_erased_page_reads_as_ones(self, tmp_path, kind):
        chip, _injector, above, _below = self._stack(tmp_path, kind)
        before_us = chip.clock_us
        data, spare = chip.read_page(15)
        assert data == b"\xff" * SPEC.page_data_size
        assert spare.type is PageType.ERASED and spare.pid is None
        assert above.calls == {"read_page": 1}
        assert chip.clock_us - before_us == SPEC.t_read_us  # still a Tread

    def test_unverified_read_skips_the_crc(self, tmp_path, kind):
        chip, injector, above, _below = self._stack(tmp_path, kind)
        injector.inject("bit_rot", 0)
        above.calls.clear()
        data, _spare = chip.read_page(0, verify=False)  # no raise
        assert data != bytes([1]) * SPEC.page_data_size
        assert chip.stats.checksum_checks == 0
        assert above.calls == {"read_page": 1}

    def test_bit_rot_is_detected(self, tmp_path, kind):
        chip, injector, above, _below = self._stack(tmp_path, kind)
        injector.inject("bit_rot", 5)
        above.calls.clear()
        with pytest.raises(ChecksumError, match="page b1:p1 "):
            chip.read_page(5)
        assert above.calls == {"read_page": 1}
        assert (chip.stats.checksum_checks, chip.stats.checksum_failures) == (1, 1)
        assert chip.stats.totals().reads == 1  # the device did the read

    def test_misdirected_write_shows_the_wrong_owner(self, tmp_path, kind):
        chip, injector, above, _below = self._stack(tmp_path, kind)
        injector.inject("misdirected_write", 3, donor=1)
        above.calls.clear()
        data, spare = chip.read_page(3)  # self-consistent: the CRC verifies
        assert (data, spare.pid) == (bytes([2]) * SPEC.page_data_size, 1)
        assert above.calls == {"read_page": 1}

    def test_torn_spare_is_detected(self, tmp_path, kind):
        chip, injector, above, _below = self._stack(tmp_path, kind)
        injector.inject("torn_spare", 4, tear_at=2)  # pid, stamp and CRC gone
        injector.inject("torn_spare", 5, tear_at=18)  # half of the CRC gone
        above.calls.clear()
        _data, spare = chip.read_page(4)
        assert spare.type is PageType.BASE and spare.pid is None and spare.checksum is None
        with pytest.raises(ChecksumError):
            chip.read_page(5)
        assert above.calls == {"read_page": 2}


class TestChipVerification:
    def test_verified_read_counts_check(self, tmp_path):
        _injector, chip = _chip(tmp_path)
        _load(chip, n=1)
        chip.read_page(0)
        assert chip.stats.checksum_checks == 1
        assert chip.stats.checksum_failures == 0

    def test_unverified_read_skips_check(self, tmp_path):
        injector, chip = _chip(tmp_path)
        _load(chip, n=1)
        injector.inject("bit_rot", 0)
        data, _spare = chip.read_page(0, verify=False)  # no raise
        assert chip.stats.checksum_checks == 0

    def test_batch_read_verifies_each_page(self, tmp_path):
        injector, chip = _chip(tmp_path)
        _load(chip)
        injector.inject("bit_rot", 3)
        with pytest.raises(ChecksumError):
            chip.read_pages(range(6))
        assert chip.stats.checksum_failures == 1

    def test_reserved_all_ones_crc_still_verifies(self, tmp_path, monkeypatch):
        """A data area whose CRC32 is 0xFFFFFFFF ("no checksum") is stored
        as 0; the read's raw compare misses and the exact one must pass."""
        import zlib

        _injector, chip = _chip(tmp_path)
        monkeypatch.setattr(zlib, "crc32", lambda _data: 0xFFFFFFFF)
        _load(chip, n=2)
        assert chip.peek_spare(0).checksum == 0
        chip.read_page(0)
        chip.read_pages([0, 1])
        assert (chip.stats.checksum_checks, chip.stats.checksum_failures) == (3, 0)

    def test_pre_checksum_spare_reads_without_verification(self, tmp_path):
        """A 16-byte spare has no checksum slot: reads must not fail."""
        spec = FlashSpec(
            n_blocks=4, pages_per_block=4, page_data_size=64, page_spare_size=16
        )
        chip = FlashChip(spec)
        chip.program_page(
            0, b"\x5a" * 64, SpareArea(type=PageType.BASE, pid=0, timestamp=1)
        )
        data, spare = chip.read_page(0)
        assert spare.checksum is None
        assert chip.stats.checksum_checks == 0

    def test_data_checksum_sentinel_collision_maps_to_zero(self, tmp_path):
        # Any payload hashes somewhere != the NO_CHECKSUM sentinel.
        assert data_checksum(b"anything") != 0xFFFFFFFF
