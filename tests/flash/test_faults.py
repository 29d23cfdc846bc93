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


def _backend(kind, spec, path):
    if kind == "memory":
        return MemoryBackend(spec)
    return FileBackend(path, spec)


@pytest.fixture
def make_chip(tmp_path):
    """Build ``(injector, chip)`` pairs, each chip over a fresh backend
    the injector rewrites; every chip is closed at teardown."""
    chips = []

    def make(kind="memory", seed=0):
        backend = _backend(kind, SPEC, tmp_path / f"chip{len(chips)}.flash")
        chip = FlashChip(SPEC, backend=backend)
        chips.append(chip)
        return FaultInjector(backend, seed=seed), chip

    yield make
    for chip in chips:
        chip.close()


def _load(chip, n=6):
    for addr in range(n):
        chip.program_page(
            addr,
            bytes([addr + 1]) * SPEC.page_data_size,
            SpareArea(type=PageType.BASE, pid=addr, timestamp=addr + 1),
        )


@pytest.mark.parametrize("kind", ["memory", "file"])
class TestInjection:
    def test_bit_rot_breaks_checksum(self, make_chip, kind):
        injector, chip = make_chip(kind)
        _load(chip)
        injector.inject("bit_rot", 2)
        with pytest.raises(ChecksumError):
            chip.read_page(2)
        assert chip.stats.checksum_failures == 1
        # Other pages are untouched.
        chip.read_page(1)

    def test_bit_rot_flips_exactly_n_bits(self, make_chip, kind):
        injector, chip = make_chip(kind)
        _load(chip)
        before = injector.backend.read_data(2)
        injector.inject("bit_rot", 2, n_bits=3)
        after = injector.backend.read_data(2)
        flipped = sum(bin(a ^ b).count("1") for a, b in zip(before, after))
        assert flipped == 3

    def test_misdirected_write_is_self_consistent(self, make_chip, kind):
        """The overwritten page carries the donor's data *and* spare, so
        its checksum verifies — only the mapping layer can catch it."""
        injector, chip = make_chip(kind)
        _load(chip)
        injector.inject("misdirected_write", 3, donor=1)
        data, spare = chip.read_page(3)  # verifies: no ChecksumError
        assert data == bytes([2]) * SPEC.page_data_size
        assert spare.pid == 1

    def test_torn_spare_reverts_tail_bytes(self, make_chip, kind):
        injector, chip = make_chip(kind)
        _load(chip)
        injector.inject("torn_spare", 4, tear_at=2)
        raw = injector.backend.read_spare(4)
        assert raw[2:] == b"\xff" * (len(raw) - 2)
        spare = chip.read_spare(4)
        assert spare.pid is None  # the pid field tore away

    def test_default_tear_point_is_inside_header(self, make_chip, kind):
        injector, chip = make_chip(kind)
        _load(chip)
        injector.inject("torn_spare", 0)
        raw = injector.backend.read_spare(0)
        torn_from = len(raw)
        while torn_from > 0 and raw[torn_from - 1] == 0xFF:
            torn_from -= 1
        assert torn_from < CHECKSUM_HEADER_SIZE

    def test_erased_page_rejects_faults(self, make_chip, kind):
        injector, chip = make_chip(kind)
        _load(chip, n=2)
        with pytest.raises(FaultInjectionError):
            injector.inject("bit_rot", 15)
        with pytest.raises(FaultInjectionError):
            injector.inject("torn_spare", 15)

    def test_unknown_kind_rejected(self, make_chip, kind):
        injector, chip = make_chip(kind)
        _load(chip, n=1)
        with pytest.raises(FaultInjectionError):
            injector.inject("cosmic_ray", 0)

    def test_fault_log_and_counters(self, make_chip, kind):
        injector, chip = make_chip(kind)
        _load(chip)
        injector.inject("bit_rot", 0)
        injector.inject("torn_spare", 1)
        assert injector.fault_log == [("bit_rot", 0), ("torn_spare", 1)]
        assert {kind for kind, _addr in injector.fault_log} <= set(FAULT_KINDS)

    def test_misdirected_write_onto_itself_is_rejected(self, make_chip, kind):
        """A page misdirected onto itself is unchanged: not a fault."""
        injector, chip = make_chip(kind)
        _load(chip)
        before = injector.backend.read_page(1)
        with pytest.raises(FaultInjectionError):
            injector.inject("misdirected_write", 1, donor=1)
        assert injector.backend.read_page(1) == before
        assert injector.fault_log == []

    def test_tear_past_the_spare_is_rejected(self, make_chip, kind):
        """A tear point at the spare's end reverts no byte: not a fault."""
        injector, chip = make_chip(kind)
        _load(chip)
        before = injector.backend.read_page(1)
        with pytest.raises(FaultInjectionError):
            injector.inject("torn_spare", 1, tear_at=SPEC.page_spare_size)
        assert injector.backend.read_page(1) == before
        assert injector.fault_log == []


class TestDeterminism:
    def test_same_seed_same_faults(self, make_chip):
        logs = []
        for _run in range(2):
            injector, chip = make_chip(seed=42)
            _load(chip)
            injector.inject("bit_rot", 2)
            injector.inject("torn_spare", 3)
            injector.inject("misdirected_write", 4)
            logs.append(
                (injector.fault_log, injector.backend.read_data(2),
                 injector.backend.read_spare(3), injector.backend.read_data(4))
            )
        assert logs[0] == logs[1]

    def test_different_seed_differs(self, make_chip):
        datas = []
        for seed in [1, 2]:
            injector, chip = make_chip(seed=seed)
            _load(chip)
            injector.inject("bit_rot", 2, n_bits=4)
            datas.append(injector.backend.read_data(2))
        assert datas[0] != datas[1]


class TestInjectorDelegation:
    def test_chip_behaves_normally_through_injector(self, make_chip):
        """The injector sits beside the chip: until a fault is injected
        the chip reads and erases its backend as usual."""
        injector, chip = make_chip()
        _load(chip)
        for addr in range(6):
            data, spare = chip.read_page(addr)
            assert data == bytes([addr + 1]) * SPEC.page_data_size
            assert spare.pid == addr
        chip.erase_block(0)
        assert injector.backend.is_block_erased(0)

    def test_mutations_do_not_consume_program_budget(self, make_chip):
        injector, chip = make_chip()
        _load(chip)
        before = injector.backend.spare_programs(1)
        injector.inject("torn_spare", 1)
        assert injector.backend.spare_programs(1) == before
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
    """chip → counter → backend, the injector beside them: a chip page
    read is one backend call, checks and charges intact."""

    @pytest.fixture
    def stack(self, tmp_path, kind):
        backend = _backend(kind, SPEC, tmp_path / "chip.flash")
        seam = CountingBackend(backend)
        chip = FlashChip(SPEC, backend=seam)
        _load(chip)
        seam.calls.clear()
        yield chip, FaultInjector(backend), seam
        chip.close()

    def test_read_page_is_one_call(self, stack):
        chip, _injector, seam = stack
        data, spare = chip.read_page(2)
        assert (data, spare.pid) == (bytes([3]) * SPEC.page_data_size, 2)
        assert seam.calls == {"read_page": 1}
        assert chip.stats.totals().reads == 1
        assert chip.stats.checksum_checks == 1

    def test_read_pages_is_one_call(self, stack):
        chip, _injector, seam = stack
        assert len(chip.read_pages(range(6))) == 6
        assert seam.calls == {"read_pages": 1}
        assert chip.stats.totals().reads == 6

    def test_erased_page_reads_as_ones(self, stack):
        chip, _injector, seam = stack
        before_us = chip.clock_us
        data, spare = chip.read_page(15)
        assert data == b"\xff" * SPEC.page_data_size
        assert spare.type is PageType.ERASED and spare.pid is None
        assert seam.calls == {"read_page": 1}
        assert chip.clock_us - before_us == SPEC.t_read_us  # still a Tread

    def test_unverified_read_skips_the_crc(self, stack):
        chip, injector, seam = stack
        injector.inject("bit_rot", 0)
        data, _spare = chip.read_page(0, verify=False)  # no raise
        assert data != bytes([1]) * SPEC.page_data_size
        assert chip.stats.checksum_checks == 0
        assert seam.calls == {"read_page": 1}

    def test_bit_rot_is_detected(self, stack):
        chip, injector, seam = stack
        injector.inject("bit_rot", 5)
        with pytest.raises(ChecksumError, match="page b1:p1 "):
            chip.read_page(5)
        assert seam.calls == {"read_page": 1}
        assert (chip.stats.checksum_checks, chip.stats.checksum_failures) == (1, 1)
        assert chip.stats.totals().reads == 1  # the device did the read

    def test_misdirected_write_shows_the_wrong_owner(self, stack):
        chip, injector, seam = stack
        injector.inject("misdirected_write", 3, donor=1)
        data, spare = chip.read_page(3)  # self-consistent: the CRC verifies
        assert (data, spare.pid) == (bytes([2]) * SPEC.page_data_size, 1)
        assert seam.calls == {"read_page": 1}

    def test_torn_spare_is_detected(self, stack):
        chip, injector, seam = stack
        injector.inject("torn_spare", 4, tear_at=2)  # pid, stamp and CRC gone
        injector.inject("torn_spare", 5, tear_at=18)  # half of the CRC gone
        _data, spare = chip.read_page(4)
        assert spare.type is PageType.BASE and spare.pid is None and spare.checksum is None
        with pytest.raises(ChecksumError):
            chip.read_page(5)
        assert seam.calls == {"read_page": 2}


class TestChipVerification:
    def test_verified_read_counts_check(self, make_chip):
        _injector, chip = make_chip()
        _load(chip, n=1)
        chip.read_page(0)
        assert chip.stats.checksum_checks == 1
        assert chip.stats.checksum_failures == 0

    def test_unverified_read_skips_check(self, make_chip):
        injector, chip = make_chip()
        _load(chip, n=1)
        injector.inject("bit_rot", 0)
        data, _spare = chip.read_page(0, verify=False)  # no raise
        assert chip.stats.checksum_checks == 0

    def test_batch_read_verifies_each_page(self, make_chip):
        injector, chip = make_chip()
        _load(chip)
        injector.inject("bit_rot", 3)
        with pytest.raises(ChecksumError):
            chip.read_pages(range(6))
        assert chip.stats.checksum_failures == 1

    def test_reserved_all_ones_crc_still_verifies(self, make_chip, monkeypatch):
        """A data area whose CRC32 is 0xFFFFFFFF ("no checksum") is stored
        as 0; the read's raw compare misses and the exact one must pass."""
        import zlib

        _injector, chip = make_chip()
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
