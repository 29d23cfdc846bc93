"""Unit tests for the device-backend layer (memory + file images)."""

import base64
import gc
import os
import warnings
import zlib

import pytest

from repro.flash.backend import (
    FORMAT_VERSION,
    BackendError,
    FileBackend,
    MemoryBackend,
    _address_runs,
)
from repro.flash.chip import FlashChip
from repro.flash.errors import AddressError, ProgramError, SimulatedPowerLoss
from repro.flash.spare import PageType, SpareArea
from repro.flash.spec import TINY_SPEC, FlashSpec

SPEC = FlashSpec(n_blocks=4, pages_per_block=4, page_data_size=64, page_spare_size=16)


def _spare(pid, ts):
    return SpareArea(type=PageType.BASE, pid=pid, timestamp=ts).encode(
        SPEC.page_spare_size
    )


@pytest.fixture(params=["memory", "file"])
def backend(request, tmp_path):
    if request.param == "memory":
        yield MemoryBackend(SPEC)
    else:
        b = FileBackend(tmp_path / "chip.flash", SPEC)
        yield b
        b.close()


class TestBackendContract:
    def test_fresh_backend_is_fully_erased(self, backend):
        for addr in range(SPEC.n_pages):
            assert backend.read_data(addr) is None
            assert backend.read_spare(addr) is None
            assert backend.data_programs(addr) == 0
        for block in range(SPEC.n_blocks):
            assert backend.is_block_erased(block)
            assert backend.erase_count(block) == 0
        assert list(backend.iter_programmed()) == []

    def test_program_read_roundtrip(self, backend):
        data = bytes(range(64))
        backend.program_page(5, data, _spare(1, 10))
        assert backend.read_data(5) == data
        assert backend.read_spare(5) == _spare(1, 10)
        assert backend.data_programs(5) == 1
        assert backend.spare_programs(5) == 1
        assert list(backend.iter_programmed()) == [5]
        assert not backend.is_block_erased(1)

    def test_erase_resets_pages_and_counts_wear(self, backend):
        backend.program_page(4, b"\x00" * 64, _spare(0, 1))
        backend.program_page(5, b"\x11" * 64, _spare(1, 2))
        backend.erase_block(1)
        assert backend.read_data(4) is None
        assert backend.read_spare(5) is None
        assert backend.is_block_erased(1)
        assert backend.erase_count(1) == 1
        backend.erase_block(1)
        assert backend.erase_count(1) == 2

    def test_erase_leaves_other_blocks_alone(self, backend):
        backend.program_page(4, b"\x00" * 64, _spare(0, 1))
        backend.program_page(8, b"\x22" * 64, _spare(2, 3))
        backend.erase_block(1)
        assert backend.read_page(8) == (b"\x22" * 64, _spare(2, 3))
        assert backend.read_pages([3, 4, 8]) == [
            (None, None), (None, None), (b"\x22" * 64, _spare(2, 3))
        ]

    def test_write_spare_updates_counter(self, backend):
        backend.program_page(0, b"\x00" * 64, _spare(0, 1))
        obsolete = bytearray(_spare(0, 1))
        obsolete[1] = 0x00
        backend.write_spare(0, bytes(obsolete), 2)
        assert backend.spare_programs(0) == 2
        assert backend.read_spare(0) == bytes(obsolete)
        assert backend.data_programs(0) == 1  # untouched

    def test_batched_reads_match_single_reads(self, backend):
        for addr in (0, 2, 3, 9, 10, 11):
            backend.program_page(addr, bytes([addr]) * 64, _spare(addr, addr + 1))
        addrs = list(range(SPEC.n_pages))
        pairs = backend.read_pages(addrs)
        spares = backend.read_spares(addrs)
        for addr, (data, spare), spare_only in zip(addrs, pairs, spares):
            assert data == backend.read_data(addr)
            assert spare == backend.read_spare(addr)
            assert spare_only == backend.read_spare(addr)

    def test_batched_program_matches_single(self, backend):
        items = [
            (addr, bytes([addr + 1]) * 64, _spare(addr, addr + 1))
            for addr in (4, 5, 6, 12)  # contiguous run + a stray
        ]
        backend.program_pages(items)
        for addr, data, spare in items:
            assert backend.read_data(addr) == data
            assert backend.read_spare(addr) == spare
            assert backend.data_programs(addr) == 1

    def test_read_page_is_read_data_plus_read_spare(self, backend):
        backend.program_page(5, bytes(range(64)), _spare(1, 10))
        backend.write_data(6, b"\x0f" * 64, 1)  # data programmed, spare still erased
        for addr in range(SPEC.n_pages):
            assert backend.read_page(addr) == (
                backend.read_data(addr),
                backend.read_spare(addr),
            )
        assert backend.read_page(6) == (b"\x0f" * 64, None)
        assert backend.read_page(7) == (None, None)

    def test_address_validation(self, backend):
        with pytest.raises(AddressError):
            backend.read_data(SPEC.n_pages)
        for addr in (-1, SPEC.n_pages):
            with pytest.raises(AddressError):
                backend.read_page(addr)
            for batched in (backend.read_pages, backend.read_spares, backend.read_data_areas):
                with pytest.raises(AddressError):
                    batched([0, addr])
            with pytest.raises(AddressError):
                backend.program_pages([(addr, b"\x01" * 64, _spare(0, 1))])
            with pytest.raises(AddressError):  # checked before the first run is written
                backend.program_pages(
                    [(0, b"\x01" * 64, _spare(0, 1)), (addr, b"\x02" * 64, _spare(0, 2))]
                )
        for start, stop in ((-1, 2), (0, SPEC.n_pages + 1)):
            with pytest.raises(AddressError):
                backend.read_spare_range(start, stop)
        with pytest.raises(AddressError):
            backend.erase_block(SPEC.n_blocks)
        assert list(backend.iter_programmed()) == []
        assert [backend.erase_count(block) for block in range(SPEC.n_blocks)] == [0] * 4


class TestFileBackendPersistence:
    def test_state_survives_close_and_reopen(self, tmp_path):
        path = tmp_path / "chip.flash"
        b = FileBackend(path, SPEC)
        b.program_page(3, b"\xab" * 64, _spare(7, 42))
        b.erase_block(3)
        b.close()

        b2 = FileBackend.open(path)
        assert b2.read_data(3) == b"\xab" * 64
        assert b2.read_spare(3) == _spare(7, 42)
        assert b2.data_programs(3) == 1
        assert b2.erase_count(3) == 1
        assert b2.spec.n_pages == SPEC.n_pages
        b2.close()

    def test_open_missing_and_create_existing_fail(self, tmp_path):
        with pytest.raises(BackendError):
            FileBackend.open(tmp_path / "nope.flash")
        path = tmp_path / "chip.flash"
        FileBackend.create(path, SPEC).close()
        with pytest.raises(BackendError):
            FileBackend.create(path, SPEC)

    def test_geometry_mismatch_rejected(self, tmp_path):
        path = tmp_path / "chip.flash"
        FileBackend(path, SPEC).close()
        with pytest.raises(BackendError):
            FileBackend.open(path, TINY_SPEC)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "chip.flash"
        path.write_bytes(b"NOTFLASH" + b"\x00" * 100)
        with pytest.raises(BackendError):
            FileBackend.open(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "chip.flash"
        FileBackend(path, SPEC).close()
        raw = bytearray(path.read_bytes())
        raw[8] = FORMAT_VERSION + 1
        path.write_bytes(bytes(raw))
        with pytest.raises(BackendError):
            FileBackend.open(path)

    def test_rejected_batch_program_leaves_the_image_untouched(self, tmp_path):
        """An address outside the chip lands nowhere: not on the erase
        counts or counters before the data region (-1), not past it."""
        path = tmp_path / "chip.flash"
        FileBackend(path, SPEC).close()
        for addr in (-1, SPEC.n_pages):
            b = FileBackend.open(path)
            try:
                with pytest.raises(AddressError):
                    b.program_pages([(addr, b"\x01" * 64, _spare(0, 1))])
            finally:
                b.close()
        b = FileBackend.open(path)
        try:
            assert [b.erase_count(block) for block in range(SPEC.n_blocks)] == [0] * 4
            assert list(b.iter_programmed()) == [] and b.erased_blocks() == [0, 1, 2, 3]
        finally:
            b.close()

    def test_erased_data_region_stays_sparse(self, tmp_path):
        """Erase and creation never write the data region (the counters
        are the truth), so a fresh image's payload is a hole."""
        path = tmp_path / "chip.flash"
        b = FileBackend(path, SPEC)
        b.program_page(0, b"\x00" * 64, _spare(0, 1))
        b.erase_block(0)
        b.close()
        meta_bytes = 64 + 4 * SPEC.n_blocks + 2 * SPEC.n_pages
        assert os.path.getsize(path) > meta_bytes  # logical size is full
        b2 = FileBackend.open(path)
        assert b2.read_data(0) is None
        b2.close()


def _write_recipe_image(path):
    """Every kind of backend write, in a fixed order."""
    b = FileBackend.create(path, SPEC)
    for addr in (0, 1, 2, 5, 6, 9, 12, 13):
        b.program_page(addr, bytes([addr * 17 % 251 + 1]) * 64, _spare(addr, addr + 1))
    b.program_pages(
        [(a, bytes(range(a, a + 64)), _spare(100 + a, 50 + a)) for a in (14, 15)]
    )
    obsolete = bytearray(_spare(5, 6))
    obsolete[1] = 0x00
    b.write_spare(5, bytes(obsolete), 2)
    b.write_data(10, b"\x0f" * 16 + b"\xff" * 48, 1)
    b.erase_block(0)
    b.erase_block(0)
    b.program_page(3, b"\x33" * 64, _spare(3, 99))
    b.close()


#: The image ``_write_recipe_image`` left behind at the last commit whose
#: ``FileBackend`` did ``seek`` + ``read``/``write`` (zlib + base64; 1 392
#: bytes, CRC32 649260004).
SEEK_ERA_IMAGE = (
    "eNoLcPFx8wn2MGRkYGFgAGMHIBYA4v9EASYGbICREYiZQCSIzQghqQKEKATKFAJjCgEDhSCMQpBO"
    "IWAYYDCLQsCPBv6TCCh1/1kKwT0KAR+/gKCQsIiomLiEpJS0jKycvIKikrKKqpq6hqaWto6unr6B"
    "oZGxiamZuYWllbWNrZ29g6OTs4urm7uHp5e3jy+F2v22gkOQERoa//9v/Q9iMyHxQWxmJD6InQzn"
    "o4fnVgZWIMmGpB7EZsepHkP/f04gyUWCeh4gyYtkH4jNh8QvgpahMH4xkHaE8wHIx3Tw"
)


class TestPositionalIO:
    """``os.pread`` / ``os.pwrite`` behind ``_read_at`` / ``_write_at``."""

    def test_image_format_is_unchanged(self, tmp_path):
        """A seek-era image reads back page for page, and the same writes
        made here leave the same bytes on disk."""
        old = tmp_path / "old.flash"
        old.write_bytes(zlib.decompress(base64.b64decode(SEEK_ERA_IMAGE)))
        new = tmp_path / "new.flash"
        _write_recipe_image(new)
        assert new.read_bytes() == old.read_bytes()

        a, b = FileBackend.open(old), FileBackend.open(new)
        try:
            addrs = list(range(SPEC.n_pages))
            assert [a.read_page(addr) for addr in addrs] == a.read_pages(addrs)
            assert a.read_pages(addrs) == b.read_pages(addrs)
            assert a.read_page(3) == (b"\x33" * 64, _spare(3, 99))
            assert a.read_page(0) == (None, None)  # erased after its program
            assert a.read_page(10) == (b"\x0f" * 16 + b"\xff" * 48, None)
            assert a.spare_programs(5) == 2 and a.read_spare(5)[1] == 0x00
            assert [a.erase_count(blk) for blk in range(4)] == [2, 0, 0, 0]
        finally:
            a.close()
            b.close()

    def test_syscalls_per_page(self, tmp_path, monkeypatch):
        """A page read is at most two ``pread``s (none for an erased
        page: the RAM meta mirror answers), a page program three
        ``pwrite``s — data, spare, counters — and the batched entry
        points pay the same for a whole contiguous run, not per page."""
        b = FileBackend(tmp_path / "chip.flash", SPEC)
        issued = []
        real_pread, real_pwrite = os.pread, os.pwrite

        def pread(fd, size, offset):
            issued.append("pread")
            return real_pread(fd, size, offset)

        def pwrite(fd, payload, offset):
            issued.append("pwrite")
            return real_pwrite(fd, payload, offset)

        monkeypatch.setattr(os, "pread", pread)
        monkeypatch.setattr(os, "pwrite", pwrite)
        b.program_page(2, b"\x22" * 64, _spare(2, 3))
        assert issued == ["pwrite"] * 3
        del issued[:]
        assert b.read_page(2) == (b"\x22" * 64, _spare(2, 3))
        assert issued == ["pread"] * 2
        del issued[:]
        assert b.read_page(3) == (None, None)
        assert issued == []
        run = [(addr, bytes([addr]) * 64, _spare(addr, 9)) for addr in range(4, 12)]
        b.program_pages(run)
        assert issued == ["pwrite"] * 3  # 24 as eight program_page calls
        del issued[:]
        assert b.read_pages(range(4, 12)) == [(data, spare) for _, data, spare in run]
        assert issued == ["pread"] * 2  # 16 as eight read_page calls
        b.close()

    def test_short_read_raises(self, tmp_path, monkeypatch):
        b = FileBackend(tmp_path / "chip.flash", SPEC)
        b.program_page(2, b"\x22" * 64, _spare(2, 3))
        real, real_v = os.pread, os.preadv
        with monkeypatch.context() as patch:
            patch.setattr(os, "pread", lambda fd, size, off: real(fd, size - 1, off))
            patch.setattr(os, "preadv", lambda fd, buffers, off: real_v(fd, buffers, off) - 1)
            with pytest.raises(BackendError, match="short read .*wanted 64, got 63"):
                b.read_page(2)
            with pytest.raises(BackendError, match="short read .*wanted 64, got 63"):
                b.read_spare_range(0, 4)  # four 16-byte spares, one preadv
        b.close()

    def test_short_write_is_finished(self, tmp_path, monkeypatch):
        b = FileBackend(tmp_path / "chip.flash", SPEC)
        real = os.pwrite
        calls = []

        def stingy(fd, payload, offset):
            calls.append(len(payload))
            return real(fd, bytes(payload)[: max(1, len(payload) // 3)], offset)

        with monkeypatch.context() as patch:
            patch.setattr(os, "pwrite", stingy)
            b.program_page(2, bytes(range(64)), _spare(2, 3))
        assert len(calls) > 3, "the short writes were never retried"
        assert b.read_page(2) == (bytes(range(64)), _spare(2, 3))
        assert b.data_programs(2) == 1
        b.close()
        reopened = FileBackend.open(tmp_path / "chip.flash")
        assert reopened.read_page(2) == (bytes(range(64)), _spare(2, 3))
        reopened.close()

    def test_write_that_makes_no_progress_raises(self, tmp_path, monkeypatch):
        path = tmp_path / "chip.flash"
        b = FileBackend(path, SPEC)
        real = os.pwrite
        budget = [10]  # bytes the "device" still accepts

        def full_device(fd, payload, offset):
            take = min(budget[0], len(payload))
            budget[0] -= take
            return real(fd, bytes(payload)[:take], offset) if take else 0

        with monkeypatch.context() as patch:
            patch.setattr(os, "pwrite", full_device)
            with pytest.raises(BackendError) as caught:
                b.program_page(2, b"\x22" * 64, _spare(2, 3))
        message = str(caught.value)
        assert "short write" in message and str(path) in message
        assert f"at {b._data_off + 64 * 2}" in message
        assert "wanted 64, wrote 10" in message
        # The counters are written last: the page still reads as erased.
        assert b.read_page(2) == (None, None)
        b.close()

    def test_use_after_close_raises_without_touching_a_descriptor(
        self, tmp_path, monkeypatch
    ):
        """``close()`` frees the descriptor number for the OS to reuse: no
        positional call may reach it."""
        b = FileBackend(tmp_path / "chip.flash", SPEC)
        b.program_page(2, b"\x22" * 64, _spare(2, 3))
        b.close()

        def touched(*_args):
            raise AssertionError("I/O issued on a closed backend")

        monkeypatch.setattr(os, "pread", touched)
        monkeypatch.setattr(os, "pwrite", touched)
        with pytest.raises(ValueError, match="closed file"):
            b.read_page(2)
        with pytest.raises(ValueError, match="closed file"):
            b.read_pages([2, 3])
        with pytest.raises(ValueError, match="closed file"):
            b.program_page(3, b"\x33" * 64, _spare(3, 4))
        with pytest.raises(ValueError, match="closed file"):
            b.erase_block(0)

    def test_close_closes_the_file_when_fsync_fails(self, tmp_path, monkeypatch):
        b = FileBackend(tmp_path / "chip.flash", SPEC)

        def failing_fsync(_fd):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError):
            b.close()
        assert b._file.closed

    def test_failed_create_leaks_no_file(self, tmp_path, monkeypatch):
        def failing_pwrite(_fd, _payload, _offset):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "pwrite", failing_pwrite)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(OSError):
                FileBackend(tmp_path / "chip.flash", SPEC)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestAddressRuns:
    def test_runs_are_maximal_and_ordered(self):
        assert list(_address_runs([0, 1, 2, 5, 6, 9])) == [(0, 3), (5, 2), (9, 1)]
        assert list(_address_runs([])) == []
        assert list(_address_runs([3])) == [(3, 1)]
        assert list(_address_runs([4, 2, 3])) == [(4, 1), (2, 2)]


class TestDataAreasRead:
    def test_scattered_pages_are_a_few_preads_and_match_page_reads(
        self, tmp_path, monkeypatch
    ):
        """The recovery scan's data read: nearby pages share a ``pread``
        (at most 64 KiB, so sixteen 32-page windows here) whatever the
        request order, and an erased page reads as ``0xFF``, never as
        the stale bytes still on disk."""
        spec = FlashSpec(
            n_blocks=8, pages_per_block=64, page_data_size=2048, page_spare_size=64
        )
        b = FileBackend(tmp_path / "chip.flash", spec)
        for addr in range(0, spec.n_pages, 3):
            spare = SpareArea(type=PageType.BASE, pid=addr, timestamp=1)
            b.program_page(addr, bytes([addr % 251]) * 2048, spare.encode(64))
        b.erase_block(1)
        addrs = list(reversed(range(spec.n_pages))) + [5, 5, 64]
        expected = b"".join(b.read_data(addr) or b"\xff" * 2048 for addr in addrs)
        issued = []
        real_pread = os.pread

        def pread(fd, size, offset):
            issued.append(size)
            return real_pread(fd, size, offset)

        monkeypatch.setattr(os, "pread", pread)
        assert bytes(b.read_data_areas(addrs)) == expected
        assert len(issued) == 14  # one per window with a programmed page
        assert max(issued) <= 64 * 1024
        b.close()


class TestChipOverBackends:
    """The chip's policy must be backend-independent."""

    @pytest.fixture(params=["memory", "file"])
    def chip(self, request, tmp_path):
        if request.param == "memory":
            yield FlashChip(SPEC)
        else:
            backend = FileBackend(tmp_path / "chip.flash", SPEC)
            chip = FlashChip(SPEC, backend=backend)
            yield chip
            chip.close()

    def test_nand_overwrite_rule_enforced(self, chip):
        chip.program_page(0, b"\x01" * 64, SpareArea(type=PageType.BASE, pid=0))
        with pytest.raises(ProgramError):
            chip.program_page(0, b"\x02" * 64, SpareArea(type=PageType.BASE, pid=0))

    def test_batched_program_crash_persists_prefix(self, chip):
        chip.crash_after(2)
        items = [
            (addr, bytes([addr + 1]) * 64, SpareArea(type=PageType.BASE, pid=addr))
            for addr in range(4)
        ]
        with pytest.raises(SimulatedPowerLoss):
            chip.program_pages(items)
        # Exactly the two admitted pages are on flash.
        assert chip.peek_data(0) == b"\x01" * 64
        assert chip.peek_data(1) == b"\x02" * 64
        assert chip.is_page_erased(2)
        assert chip.is_page_erased(3)
        assert chip.stats.totals().writes == 2

    def test_batched_duplicate_address_rejected(self, chip):
        spare = SpareArea(type=PageType.BASE, pid=0)
        with pytest.raises(ProgramError):
            chip.program_pages(
                [(0, b"\x01" * 64, spare), (0, b"\x02" * 64, spare)]
            )

    def test_batched_reads_charge_per_page(self, chip):
        spare = SpareArea(type=PageType.BASE, pid=0, timestamp=1)
        chip.program_pages([(a, bytes([a]) * 64, spare) for a in range(3)])
        before = chip.stats.totals().reads
        pages = chip.read_pages([0, 1, 2])
        spares = chip.read_spares(range(SPEC.n_pages))
        assert chip.stats.totals().reads == before + 3 + SPEC.n_pages
        assert [d[:1] for d, _ in pages] == [b"\x00", b"\x01", b"\x02"]
        assert sum(1 for s in spares if not s.is_erased) == 3

    def test_spec_backend_geometry_mismatch_rejected(self, tmp_path):
        backend = FileBackend(tmp_path / "chip.flash", SPEC)
        try:
            with pytest.raises(ValueError):
                FlashChip(TINY_SPEC, backend=backend)
        finally:
            backend.close()


def test_memory_erase_keeps_no_old_image():
    """An erased block's slots point back at the shared erased images, so
    the old pages are freed rather than kept, unreachable, until the
    block is programmed again."""
    backend = MemoryBackend(SPEC)
    erased = backend._data[0], backend._spare[0]
    for addr in range(4, 8):
        backend.program_page(addr, bytes([addr]) * 64, _spare(addr, 1))
    backend.write_spare(5, _spare(5, 2), 2)
    backend.erase_block(1)
    for addr in range(4, 8):
        assert (backend._data[addr], backend._spare[addr]) == erased
        assert backend._data[addr] is erased[0] and backend._spare[addr] is erased[1]
    assert bytes(backend.read_spare_range(4, 8)) == b"\xff" * (4 * SPEC.page_spare_size)


def test_file_erase_writes_nothing_to_the_data_region(tmp_path):
    """A file erase changes counters only: the stale bytes stay in the
    data and spare regions, unread, until the next program."""
    backend = FileBackend(tmp_path / "chip.flash", SPEC)
    try:
        backend.program_page(4, b"\x5a" * 64, _spare(0, 1))
        backend.erase_block(1)
        assert backend.read_page(4) == (None, None)
        assert backend._data[4] == b"\x5a" * 64
        assert backend._spare[4] == _spare(0, 1)
    finally:
        backend.close()
