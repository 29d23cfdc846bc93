"""PDL driver tests: the three design principles, the three write cases,
GC compaction, and bookkeeping invariants."""

import dataclasses
import random
import struct
import zlib

import pytest

from repro.core.differential import DifferentialError
from repro.core.pdl import PdlDriver, format_size
from repro.flash.backend import FaultInjector
from repro.flash.chip import FlashChip
from repro.flash.errors import ChecksumError, WrongPageError
from repro.flash.spare import PageType, data_checksum
from repro.flash.stats import GC, READ_STEP, WRITE_STEP


@pytest.fixture
def pdl(chip):
    return PdlDriver(chip, max_differential_size=64)


def _page(driver, fill=0x11):
    return bytes([fill]) * driver.page_size


def _patched(data, offset, patch):
    image = bytearray(data)
    image[offset : offset + len(patch)] = patch
    return bytes(image)


class TestNaming:
    def test_format_size(self):
        assert format_size(256) == "256B"
        assert format_size(2048) == "2KB"
        assert format_size(18 * 1024) == "18KB"

    def test_labels(self, chip):
        assert PdlDriver(chip, max_differential_size=256).name == "PDL (256B)"

    def test_rejects_bad_size(self, chip):
        with pytest.raises(ValueError):
            PdlDriver(chip, max_differential_size=0)


class TestAtMostTwoPageReading:
    """Design principle 3: recreating a page reads at most two pages."""

    def test_unmodified_page_one_read(self, pdl, chip):
        pdl.load_page(0, _page(pdl))
        snap = chip.stats.snapshot()
        pdl.read_page(0)
        assert chip.stats.delta_since(snap).of_phase(READ_STEP).reads == 1

    def test_buffered_diff_one_read(self, pdl, chip):
        pdl.load_page(0, _page(pdl))
        pdl.write_page(0, _patched(_page(pdl), 0, b"\x99"))
        snap = chip.stats.snapshot()
        pdl.read_page(0)
        # differential still in the write buffer: base read only
        assert chip.stats.delta_since(snap).of_phase(READ_STEP).reads == 1

    def test_flushed_diff_two_reads(self, pdl, chip):
        pdl.load_page(0, _page(pdl))
        pdl.write_page(0, _patched(_page(pdl), 0, b"\x99"))
        pdl.flush()
        snap = chip.stats.snapshot()
        pdl.read_page(0)
        assert chip.stats.delta_since(snap).of_phase(READ_STEP).reads == 2

    def test_never_more_than_two_reads(self, pdl, chip):
        """Even after many updates — unlike log-based methods."""
        pdl.load_page(0, _page(pdl))
        data = _page(pdl)
        rng = random.Random(1)
        for i in range(30):
            data = _patched(data, rng.randrange(pdl.page_size - 1), bytes([i]))
            pdl.write_page(0, data)
            pdl.flush()
        snap = chip.stats.snapshot()
        assert pdl.read_page(0) == data
        assert chip.stats.delta_since(snap).of_phase(READ_STEP).reads <= 2


class TestWritingCases:
    def test_case1_buffers_without_flash_write(self, pdl, chip):
        pdl.load_page(0, _page(pdl))
        snap = chip.stats.snapshot()
        pdl.write_page(0, _patched(_page(pdl), 5, b"\x99"))
        delta = chip.stats.delta_since(snap)
        assert pdl.case_counts[1] == 1
        assert delta.of_phase(WRITE_STEP).writes == 0  # only the base read
        assert delta.of_phase(WRITE_STEP).reads == 1

    def test_case2_flushes_buffer(self, pdl, chip):
        for pid in range(20):
            pdl.load_page(pid, _page(pdl))
        # fill the buffer with ~16-byte-unit diffs until a flush happens
        writes_before = chip.stats.totals().writes
        for pid in range(20):
            pdl.write_page(pid, _patched(_page(pdl), 0, bytes([pid + 1]) * 16))
        assert pdl.case_counts[2] + pdl.buffer_flushes >= 1 or (
            chip.stats.totals().writes > writes_before
        )

    def test_case3_writes_new_base(self, pdl, chip):
        pdl.load_page(0, _page(pdl))
        old_base = pdl.ppmt.require(0).base_addr
        new = _page(pdl, 0xEE)  # whole page changed -> diff > 64 bytes
        pdl.write_page(0, new)
        assert pdl.case_counts[3] == 1
        entry = pdl.ppmt.require(0)
        assert entry.base_addr != old_base
        assert entry.diff_addr is None
        assert chip.peek_spare(old_base).obsolete
        assert pdl.read_page(0) == new

    def test_case3_drops_flushed_diff(self, pdl, chip):
        pdl.load_page(0, _page(pdl))
        pdl.write_page(0, _patched(_page(pdl), 0, b"\x99"))
        pdl.flush()
        diff_page = pdl.ppmt.require(0).diff_addr
        assert diff_page is not None
        pdl.write_page(0, _page(pdl, 0xEE))  # Case 3
        assert pdl.ppmt.require(0).diff_addr is None
        # the old differential page held only pid 0 -> now obsolete
        assert chip.peek_spare(diff_page).obsolete

    def test_noop_write_costs_nothing_in_flash_writes(self, pdl, chip):
        pdl.load_page(0, _page(pdl))
        snap = chip.stats.snapshot()
        pdl.write_page(0, _page(pdl))  # identical content
        delta = chip.stats.delta_since(snap)
        assert delta.totals().writes == 0

    def test_revert_to_base_content_with_stale_diff(self, pdl):
        """Writing content equal to the base while a differential exists
        must supersede that differential."""
        base = _page(pdl)
        pdl.load_page(0, base)
        pdl.write_page(0, _patched(base, 0, b"\x99"))
        pdl.flush()
        pdl.write_page(0, base)  # back to base content exactly
        pdl.flush()
        assert pdl.read_page(0) == base


class TestAtMostOnePageWriting:
    """Design principle 2: one reflection writes at most one page."""

    def test_updates_accumulate_in_one_differential(self, pdl, chip):
        pdl.load_page(0, _page(pdl))
        data = _page(pdl)
        for i in range(3):
            data = _patched(data, 2, bytes([i + 1]))
            pdl.write_page(0, data)
        # the paper's aaaaaa->bbbbba->bcccba: one differential, not a history
        diff = pdl.buffer.get(0)
        assert diff is not None
        assert len(diff.runs) == 1

    def test_reflection_writes_at_most_one_page(self, pdl, chip):
        for pid in range(8):
            pdl.load_page(pid, _page(pdl))
        for pid in range(8):
            snap = chip.stats.snapshot()
            pdl.write_page(pid, _patched(_page(pdl), 0, bytes([pid + 1]) * 8))
            delta = chip.stats.delta_since(snap)
            # data-page programs (excluding obsolete marks): at most 1
            assert delta.of_phase(WRITE_STEP).writes <= 2


class TestBookkeeping:
    def test_vdct_counts_match_flash(self, pdl, chip):
        for pid in range(10):
            pdl.load_page(pid, _page(pdl, pid))
        rng = random.Random(2)
        images = {pid: _page(pdl, pid) for pid in range(10)}
        for _ in range(200):
            pid = rng.randrange(10)
            images[pid] = _patched(
                images[pid], rng.randrange(pdl.page_size - 8), rng.randbytes(8)
            )
            pdl.write_page(pid, images[pid])
        pdl.flush()
        # every vdct entry equals the number of pids whose ppmt points there
        from collections import Counter

        refs = Counter(
            entry.diff_addr
            for _pid, entry in pdl.ppmt.items()
            if entry.diff_addr is not None
        )
        assert refs == Counter(dict(pdl.vdct.items()))

    def test_diff_pages_marked_obsolete_when_empty(self, pdl, chip):
        pdl.load_page(0, _page(pdl))
        pdl.write_page(0, _patched(_page(pdl), 0, b"\x01"))
        pdl.flush()
        first = pdl.ppmt.require(0).diff_addr
        pdl.write_page(0, _patched(_page(pdl), 0, b"\x02"))
        pdl.flush()
        second = pdl.ppmt.require(0).diff_addr
        assert first != second
        assert chip.peek_spare(first).obsolete

    def test_timestamps_strictly_increase(self, pdl):
        pdl.load_page(0, _page(pdl))
        t0 = pdl.current_ts
        pdl.write_page(0, _patched(_page(pdl), 0, b"\x01"))
        assert pdl.current_ts > t0


class TestGarbageCollection:
    def test_gc_compaction_preserves_data(self, tiny_spec):
        chip = FlashChip(tiny_spec)
        pdl = PdlDriver(chip, max_differential_size=64)
        rng = random.Random(3)
        images = {}
        for pid in range(16):
            images[pid] = rng.randbytes(pdl.page_size)
            pdl.load_page(pid, images[pid])
        for step in range(600):
            pid = rng.randrange(16)
            images[pid] = _patched(
                images[pid], rng.randrange(pdl.page_size - 8), rng.randbytes(8)
            )
            pdl.write_page(pid, images[pid])
        assert chip.stats.of_phase(GC).erases > 0, "GC never ran"
        for pid, expected in images.items():
            assert pdl.read_page(pid) == expected

    def test_relocated_base_keeps_timestamp(self, tiny_spec):
        """GC copies preserve timestamps so recovery tie-breaks are safe."""
        chip = FlashChip(tiny_spec)
        pdl = PdlDriver(chip, max_differential_size=64)
        rng = random.Random(4)
        for pid in range(16):
            pdl.load_page(pid, rng.randbytes(pdl.page_size))
        ts_before = {pid: pdl.ppmt.require(pid).base_ts for pid in range(16)}
        data = {pid: pdl.read_page(pid) for pid in range(16)}
        # churn only pids 0..3 so the others' bases get relocated by GC
        for step in range(600):
            pid = rng.randrange(4)
            data[pid] = _patched(
                data[pid], rng.randrange(pdl.page_size - 8), rng.randbytes(8)
            )
            pdl.write_page(pid, data[pid])
        for pid in range(4, 16):
            entry = pdl.ppmt.require(pid)
            assert entry.base_ts == ts_before[pid]
            assert chip.peek_spare(entry.base_addr).timestamp == ts_before[pid]


def _flushed_diff_page(chip, pdl, n_pids=3):
    """Load ``n_pids`` pages, reflect one small change into each, flush;
    returns the address of the differential page that holds them."""
    rng = random.Random(20100121)
    for pid in range(n_pids):
        image = rng.randbytes(pdl.page_size)
        pdl.load_page(pid, image)
        pdl.write_page(pid, _patched(image, rng.randrange(200), rng.randbytes(8)))
    pdl.flush()
    return pdl.ppmt.require(0).diff_addr


class TestOnFlashFormat:
    def test_flushed_differential_page_is_byte_stable(self, pdl, chip):
        """Golden: the constant was recorded before differentials were
        kept in wire form (PR 16's commit), so images written by older
        code keep opening — any change to it is a format break."""
        addr = _flushed_diff_page(chip, pdl)
        assert zlib.crc32(chip.peek_data(addr)) == 0xD69EC7C6


class TestCodecErrorsNameThePage:
    """A differential page whose spare CRC is valid but whose entries are
    structurally bad is reported with the pid, its address and the step."""

    @staticmethod
    def _plant_damage(chip, addr):
        backend = chip.backend
        data = bytearray(chip.peek_data(addr))
        # First entry's n_runs (page header 4 + pid 4 + timestamp 8):
        # its run headers now run off the page.
        struct.pack_into("<H", data, 16, 0xFFFF)
        spare = chip.peek_spare(addr).with_checksum(data_checksum(bytes(data)))
        backend.write_data(addr, bytes(data), backend.data_programs(addr))
        backend.write_spare(
            addr, spare.encode(chip.spec.page_spare_size), backend.spare_programs(addr)
        )
        chip.read_page(addr)  # the CRC vouches for the damaged bytes

    def test_read_path(self, pdl, chip):
        addr = _flushed_diff_page(chip, pdl)
        self._plant_damage(chip, addr)
        with pytest.raises(DifferentialError) as err:
            pdl.read_page(0)
        assert f"read of pid 0: differential page {addr}: truncated" in str(err.value)
        assert isinstance(err.value.__cause__, DifferentialError)

    def test_gc_compaction_path(self, pdl, chip):
        addr = _flushed_diff_page(chip, pdl)
        self._plant_damage(chip, addr)
        data, spare = chip.read_page(addr)
        with pytest.raises(DifferentialError) as err:
            pdl.relocate_page(addr, data, spare)
        assert f"gc-compaction: differential page {addr}: truncated" in str(err.value)
        assert isinstance(err.value.__cause__, DifferentialError)
        # Nothing was dropped on the way to the error.
        assert pdl.vdct.count(addr) == 3


class TestReadChecksWhichPageItGot:
    """A read compares what the pages say with what the mapping row
    expects: a misdirected or stale page is intact (its checksum holds),
    so only the stamps tell that it is the wrong one."""

    @staticmethod
    def _loaded(chip):
        pdl = PdlDriver(chip, max_differential_size=128)
        for pid in range(8):
            pdl.load_page(pid, _page(pdl, fill=pid))
        return pdl

    def test_misdirected_base_is_refused(self, chip):
        pdl = self._loaded(chip)
        pdl.write_page(3, _patched(_page(pdl, fill=3), 10, b"\x99" * 8))
        pdl.flush()
        row, donor = pdl.ppmt.require(3), pdl.ppmt.require(5)
        FaultInjector(chip.backend).inject("misdirected_write", row.base_addr, donor=donor.base_addr)
        with pytest.raises(WrongPageError) as err:
            pdl.read_page(3)
        assert isinstance(err.value, ChecksumError)
        assert err.value.addr == row.base_addr
        assert str(err.value) == (
            f"read of pid 3: base page {row.base_addr} holds (pid 5, ts {donor.base_ts}), "
            f"the mapping row expects (pid 3, ts {row.base_ts})"
        )
        assert pdl.read_page(5) == _page(pdl, fill=5)

    def test_stale_differential_page_is_refused(self, chip):
        pdl = self._loaded(chip)
        first = _patched(_page(pdl, fill=3), 10, b"\x99" * 8)
        pdl.write_page(3, first)
        pdl.flush()
        old = pdl.ppmt.require(3)
        old_addr, old_ts = old.diff_addr, old.diff_ts
        pdl.write_page(3, _patched(first, 100, b"\x77" * 8))
        pdl.flush()
        row = pdl.ppmt.require(3)
        assert row.diff_addr != old_addr and row.diff_ts != old_ts
        FaultInjector(chip.backend).inject("misdirected_write", row.diff_addr, donor=old_addr)
        with pytest.raises(WrongPageError) as err:
            pdl.read_page(3)
        assert err.value.addr == row.diff_addr
        assert str(err.value) == (
            f"read of pid 3: differential page {row.diff_addr} holds (pid 3, ts {old_ts}), "
            f"the mapping row expects (pid 3, ts {row.diff_ts})"
        )

    def test_differential_page_without_the_entry_is_refused(self, chip):
        pdl = self._loaded(chip)
        for pid in (2, 3):
            pdl.write_page(pid, _patched(_page(pdl, fill=pid), 10, b"\x99" * 8))
            pdl.flush()
        row, donor = pdl.ppmt.require(3), pdl.ppmt.require(2)
        FaultInjector(chip.backend).inject("misdirected_write", row.diff_addr, donor=donor.diff_addr)
        expected = f"differential page {row.diff_addr} holds no entry for pid 3"
        with pytest.raises(WrongPageError, match=expected):
            pdl.read_page(3)


class TestWriteChecksWhichBaseItReread:
    """PDL_Writing's step 1 re-reads the base page to diff against it;
    that re-read is checked like a read's, so a misdirected base raises
    before a differential against another page's image exists.  The
    write leaves the row, the write buffer and the case counts as they
    were."""

    @staticmethod
    def _misdirected(chip):
        pdl = TestReadChecksWhichPageItGot._loaded(chip)
        pdl.write_page(2, _patched(_page(pdl, fill=2), 10, b"\x99" * 8))  # buffered
        row, donor = pdl.ppmt.require(3), pdl.ppmt.require(5)
        FaultInjector(chip.backend).inject("misdirected_write", row.base_addr, donor=donor.base_addr)
        expected = (
            f"write of pid 3: base page {row.base_addr} holds (pid 5, ts {donor.base_ts}), "
            f"the mapping row expects (pid 3, ts {row.base_ts})"
        )
        return pdl, expected

    @staticmethod
    def _state(pdl):
        rows = {pid: dataclasses.astuple(pdl.ppmt.require(pid)) for pid in (2, 3)}
        buffered = {pid: pdl.buffer.get(pid) for pid in pdl.buffer.pids()}
        return rows, buffered, pdl.buffer.used, dict(pdl.case_counts)

    def test_write_page_refuses_a_misdirected_base(self, chip):
        pdl, expected = self._misdirected(chip)
        before = self._state(pdl)
        with pytest.raises(WrongPageError) as err:
            pdl.write_page(3, _patched(_page(pdl, fill=3), 40, b"\x77" * 8))
        assert str(err.value) == expected
        assert err.value.addr == pdl.ppmt.require(3).base_addr
        assert self._state(pdl) == before

    def test_write_pages_refuses_a_misdirected_base(self, chip):
        pdl, expected = self._misdirected(chip)
        before = self._state(pdl)
        batch = [
            (pid, _patched(_page(pdl, fill=pid), 40, b"\x77" * 8)) for pid in (2, 3)
        ]
        with pytest.raises(WrongPageError) as err:
            pdl.write_pages(batch)
        assert str(err.value) == expected
        assert self._state(pdl) == before
