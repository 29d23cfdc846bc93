"""Crash-recovery tests: Figure 11's reconstruction algorithm."""

import random

import pytest

from repro.core.differential import Differential, encode_differential_page
from repro.core.pdl import PdlDriver
from repro.core.recovery import RECOVERY_PHASE, recover_driver
from repro.flash.chip import FlashChip
from repro.flash.errors import SimulatedPowerLoss
from repro.flash.spare import PageType, SpareArea


def _page(driver, fill=0x11):
    return bytes([fill]) * driver.page_size


def _patched(data, offset, patch):
    image = bytearray(data)
    image[offset : offset + len(patch)] = patch
    return bytes(image)


def _fresh(tiny_spec):
    chip = FlashChip(tiny_spec)
    return chip, PdlDriver(chip, max_differential_size=64)


class TestCleanRecovery:
    def test_tables_match_after_flush(self, tiny_spec):
        chip, pdl = _fresh(tiny_spec)
        rng = random.Random(1)
        images = {}
        for pid in range(12):
            images[pid] = rng.randbytes(pdl.page_size)
            pdl.load_page(pid, images[pid])
        for _ in range(100):
            pid = rng.randrange(12)
            images[pid] = _patched(
                images[pid], rng.randrange(pdl.page_size - 6), rng.randbytes(6)
            )
            pdl.write_page(pid, images[pid])
        pdl.flush()
        recovered, report = recover_driver(chip, max_differential_size=64)
        for pid, expected in images.items():
            assert recovered.read_page(pid) == expected
        # recovered tables equal the live ones
        for pid in range(12):
            live = pdl.ppmt.require(pid)
            rec = recovered.ppmt.require(pid)
            assert (live.base_addr, live.base_ts, live.diff_addr) == (
                rec.base_addr,
                rec.base_ts,
                rec.diff_addr,
            )
        assert dict(recovered.vdct.items()) == dict(pdl.vdct.items())

    def test_recovery_scan_cost(self, tiny_spec):
        """One spare read per page, plus data reads for differential pages
        (the paper estimates ~60 s per GB from exactly this scan)."""
        chip, pdl = _fresh(tiny_spec)
        for pid in range(8):
            pdl.load_page(pid, _page(pdl, pid))
        pdl.write_page(0, _patched(_page(pdl, 0), 0, b"\x01"))
        pdl.flush()
        snap = chip.stats.snapshot()
        recover_driver(chip, max_differential_size=64)
        delta = snap and chip.stats.delta_since(snap)
        reads = delta.of_phase(RECOVERY_PHASE).reads
        # n_pages spare reads + 1 differential-page data read
        assert reads == tiny_spec.n_pages + 1

    def test_timestamp_counter_resumes(self, tiny_spec):
        chip, pdl = _fresh(tiny_spec)
        pdl.load_page(0, _page(pdl))
        pdl.write_page(0, _patched(_page(pdl), 0, b"\x01"))
        pdl.flush()
        recovered, report = recover_driver(chip, max_differential_size=64)
        assert recovered.current_ts >= report.max_timestamp
        # new writes must get fresh timestamps
        recovered.write_page(0, _patched(_page(pdl), 0, b"\x02"))
        assert recovered.current_ts > report.max_timestamp

    def test_unflushed_buffer_is_lost(self, tiny_spec):
        """The paper's file-buffer analogy: RAM-only differentials do not
        survive; the page recovers to its last durable version."""
        chip, pdl = _fresh(tiny_spec)
        base = _page(pdl)
        pdl.load_page(0, base)
        pdl.write_page(0, _patched(base, 0, b"\x01"))  # buffered only
        recovered, _ = recover_driver(chip, max_differential_size=64)
        assert recovered.read_page(0) == base


class TestCrashWindows:
    def test_crash_between_program_and_obsolete(self, tiny_spec):
        """Both base copies survive; recovery picks the newer timestamp
        and obsoletes the stale copy."""
        chip, pdl = _fresh(tiny_spec)
        base = _page(pdl)
        pdl.load_page(0, base)
        old_addr = pdl.ppmt.require(0).base_addr
        new = _page(pdl, 0xEE)  # whole page -> Case 3 (program + obsolete)
        chip.crash_after(1)  # allow the program, crash on the obsolete mark
        with pytest.raises(SimulatedPowerLoss):
            pdl.write_page(0, new)
        recovered, report = recover_driver(chip, max_differential_size=64)
        assert recovered.read_page(0) == new
        assert chip.peek_spare(old_addr).obsolete  # cleaned by recovery
        assert report.stale_pages_obsoleted >= 1

    def test_recovery_is_idempotent(self, tiny_spec):
        """Crashing during recovery and re-running it must converge —
        the scan only obsoletes useless pages (Section 4.5)."""
        chip, pdl = _fresh(tiny_spec)
        base = _page(pdl)
        pdl.load_page(0, base)
        chip.crash_after(1)
        with pytest.raises(SimulatedPowerLoss):
            pdl.write_page(0, _page(pdl, 0xEE))
        # first recovery attempt crashes midway through its own writes
        chip.crash_after(0)
        with pytest.raises(SimulatedPowerLoss):
            recover_driver(chip, max_differential_size=64)
        recovered, _ = recover_driver(chip, max_differential_size=64)
        assert recovered.read_page(0) == _page(pdl, 0xEE)

    def test_orphan_differentials_dropped(self, tiny_spec):
        chip, pdl = _fresh(tiny_spec)
        # fill block 0 with base pages so the differential page lands in
        # block 1, then destroy block 0 (simulates an interrupted load)
        for pid in range(tiny_spec.pages_per_block):
            pdl.load_page(pid, _page(pdl, pid))
        pdl.write_page(0, _patched(_page(pdl, 0), 0, b"\x01"))
        pdl.flush()
        base_addr = pdl.ppmt.require(0).base_addr
        diff_addr = pdl.ppmt.require(0).diff_addr
        assert diff_addr // tiny_spec.pages_per_block != 0
        assert base_addr // tiny_spec.pages_per_block == 0
        chip.erase_block(0)
        recovered, report = recover_driver(chip, max_differential_size=64)
        assert 0 in report.orphan_pids
        assert recovered.ppmt.get(0) is None


class TestRecoveryEdgeCases:
    def test_empty_chip_recovers_to_empty_driver(self, tiny_spec):
        """Recovering a factory-fresh chip yields an empty but fully
        operational driver — the scan finds nothing, adopts nothing,
        writes nothing."""
        chip = FlashChip(tiny_spec)
        recovered, report = recover_driver(chip, max_differential_size=64)
        assert report.pages_scanned == tiny_spec.n_pages
        assert report.base_pages_adopted == 0
        assert report.differentials_adopted == 0
        assert report.stale_pages_obsoleted == 0
        assert report.orphan_pids == []
        assert len(list(recovered.ppmt.items())) == 0
        # the scan must not have programmed or erased anything
        assert chip.stats.totals().writes == 0
        assert chip.stats.total_erases == 0
        # and the driver is usable from scratch
        recovered.load_page(0, _page(recovered, 0x42))
        assert recovered.read_page(0) == _page(recovered, 0x42)

    def test_buffer_only_differential_lost_older_flush_survives(self, tiny_spec):
        """Section 4.4 semantics: a differential still in the RAM write
        buffer at crash time vanishes, but an OLDER flushed differential
        for the same page must still be adopted — the page rolls back to
        its last durable version, not to its base."""
        chip, pdl = _fresh(tiny_spec)
        base = _page(pdl)
        pdl.load_page(0, base)
        v1 = _patched(base, 0, b"\x01")
        pdl.write_page(0, v1)
        pdl.flush()  # v1's differential is durable
        v2 = _patched(v1, 0, b"\x02")
        pdl.write_page(0, v2)  # v2's differential is buffer-only
        assert pdl.buffer.get(0) is not None
        recovered, report = recover_driver(chip, max_differential_size=64)
        assert recovered.read_page(0) == v1
        assert report.differentials_adopted == 1

    def test_duplicate_gc_base_copies_with_equal_timestamps(self, tiny_spec):
        """A crash between GC's copy-out and the victim erase leaves two
        byte-identical base pages with EQUAL timestamps.  Recovery may
        keep either (they are identical); the other must end obsolete."""
        chip, pdl = _fresh(tiny_spec)
        image = _page(pdl, 0x5A)
        pdl.load_page(0, image)
        entry = pdl.ppmt.require(0)
        original = entry.base_addr
        # Simulate the GC relocation: identical data + spare (timestamp
        # preserved) programmed at a far-away erased address.
        copy_addr = (tiny_spec.n_blocks - 1) * tiny_spec.pages_per_block
        chip.program_page(copy_addr, chip.peek_data(original), chip.peek_spare(original))
        assert chip.peek_spare(copy_addr).timestamp == chip.peek_spare(original).timestamp
        recovered, report = recover_driver(chip, max_differential_size=64)
        assert recovered.read_page(0) == image
        kept = recovered.ppmt.require(0).base_addr
        assert kept in (original, copy_addr)
        stale = copy_addr if kept == original else original
        assert chip.peek_spare(stale).obsolete
        assert not chip.peek_spare(kept).obsolete
        assert report.stale_pages_obsoleted >= 1

    def test_duplicate_gc_differential_copies_with_equal_timestamps(self, tiny_spec):
        """Same crash window for a differential page: GC compaction wrote
        the copy, the victim survived.  Recovery adopts exactly one copy
        per pid and obsoletes the page left with zero adopted entries."""
        chip, pdl = _fresh(tiny_spec)
        base = _page(pdl)
        pdl.load_page(0, base)
        v1 = _patched(base, 0, b"\x07")
        pdl.write_page(0, v1)
        pdl.flush()
        diff_addr = pdl.ppmt.require(0).diff_addr
        assert diff_addr is not None
        assert chip.peek_spare(diff_addr).type is PageType.DIFFERENTIAL
        copy_addr = (tiny_spec.n_blocks - 1) * tiny_spec.pages_per_block
        chip.program_page(copy_addr, chip.peek_data(diff_addr), chip.peek_spare(diff_addr))
        recovered, _ = recover_driver(chip, max_differential_size=64)
        assert recovered.read_page(0) == v1
        kept = recovered.ppmt.require(0).diff_addr
        assert kept in (diff_addr, copy_addr)
        assert recovered.vdct.count(kept) == 1
        stale = copy_addr if kept == diff_addr else diff_addr
        assert chip.peek_spare(stale).obsolete


    def test_newer_entry_on_the_same_page_keeps_the_page(self, tiny_spec):
        """A differential page holding two entries of one pid: the scan
        adopts the older, then the newer from the same page.  That
        supersession must not drop the page's count, which would mark
        obsolete the page the row now points into, and the next restart
        would skip it and serve the bare base."""
        chip, pdl = _fresh(tiny_spec)
        base = _page(pdl)
        pdl.load_page(5, base)
        ts = chip.peek_spare(pdl.ppmt.require(5).base_addr).timestamp
        older = _patched(base, 0, b"\x01")
        newer = _patched(base, 8, b"\x02\x03")
        page = encode_differential_page(
            [
                Differential.from_pages(5, ts + 10, base, older),
                Differential.from_pages(5, ts + 12, base, newer),
            ],
            pdl.page_size,
        )
        addr = (tiny_spec.n_blocks - 1) * tiny_spec.pages_per_block
        chip.program_page(addr, page, SpareArea(type=PageType.DIFFERENTIAL, timestamp=ts + 13))

        recovered, report = recover_driver(chip, max_differential_size=64)
        assert recovered.ppmt.require(5).diff_addr == addr
        assert recovered.vdct.count(addr) == 1
        assert not chip.peek_spare(addr).obsolete
        assert report.stale_pages_obsoleted == 0
        assert recovered.read_page(5) == newer
        again, _ = recover_driver(chip, max_differential_size=64)
        assert again.read_page(5) == newer

class TestRandomizedCrashRecovery:
    """The strongest invariant: after a crash at an arbitrary point,
    every page recovers to SOME version it actually held, never older
    than the last write-through."""

    @pytest.mark.parametrize("seed", range(8))
    def test_crash_anywhere(self, tiny_spec, seed):
        rng = random.Random(seed)
        chip, pdl = _fresh(tiny_spec)
        history = {}
        floor = {}
        for pid in range(10):
            data = rng.randbytes(pdl.page_size)
            pdl.load_page(pid, data)
            history[pid] = [data]
            floor[pid] = 0
        chip.crash_after(rng.randrange(1, 120))
        try:
            for i in range(400):
                pid = rng.randrange(10)
                image = _patched(
                    history[pid][-1],
                    rng.randrange(pdl.page_size - 8),
                    rng.randbytes(8),
                )
                history[pid].append(image)  # record before the attempt
                pdl.write_page(pid, image)
                if i % 9 == 0:
                    pdl.flush()
                    for q in history:
                        floor[q] = len(history[q]) - 1
        except SimulatedPowerLoss:
            pass
        recovered, _ = recover_driver(chip, max_differential_size=64)
        for pid, versions in history.items():
            got = recovered.read_page(pid)
            assert got in versions, f"pid {pid}: content never existed"
            newest = max(i for i, v in enumerate(versions) if v == got)
            assert newest >= floor[pid], f"pid {pid}: lost durable data"
        # and the recovered driver keeps working
        for pid in range(10):
            new = _patched(recovered.read_page(pid), 0, b"\xAA\xBB")
            recovered.write_page(pid, new)
            assert recovered.read_page(pid) == new


class TestTimestampResume:
    """Recovery must resume the timestamp counter past *everything* on
    flash — including differential-page header stamps, which are issued
    at flush time and are strictly newer than the entries inside, and
    stamps on stale/obsolete copies.  (Regression: the counter used to
    resume from the adopted entries only, so post-recovery programs
    could re-issue stamps already present on flash, violating the
    strictly-larger invariant the adoption rules rely on.)
    """

    @staticmethod
    def _max_stamp_on_flash(chip):
        return max(
            (chip.peek_spare(addr).timestamp or 0)
            for addr in chip.iter_programmed_pages()
        )

    def test_recover_resumes_past_diff_page_header_stamp(self, tiny_spec):
        chip, pdl = _fresh(tiny_spec)
        pdl.load_page(0, _page(pdl))
        pdl.write_page(0, _patched(_page(pdl), 3, b"\x01\x02"))
        pdl.flush()  # differential page header gets the newest stamp
        recovered, report = recover_driver(chip, max_differential_size=64)
        top = self._max_stamp_on_flash(chip)
        assert report.max_timestamp >= top
        assert recovered.current_ts >= top, (
            "post-recovery writes would reuse a stamp already on flash"
        )

    def test_post_recovery_write_gets_fresh_stamp(self, tiny_spec):
        chip, pdl = _fresh(tiny_spec)
        images = {pid: _page(pdl, 0x20 + pid) for pid in range(3)}
        for pid, image in images.items():
            pdl.load_page(pid, image)
        for pid in images:
            images[pid] = _patched(images[pid], 8, b"\x07\x08\x09")
            pdl.write_page(pid, images[pid])
        pdl.flush()
        recovered, _ = recover_driver(chip, max_differential_size=64)
        before = self._max_stamp_on_flash(chip)
        images[1] = _patched(images[1], 40, b"\x55\x66")
        recovered.write_page(1, images[1])
        recovered.flush()
        assert self._max_stamp_on_flash(chip) > before
        # A second recovery must adopt the newer differential, not tie
        # with (or lose to) a stale stamp.
        again, _ = recover_driver(chip, max_differential_size=64)
        assert again.read_page(1) == images[1]

    def test_recover_tables_resumes_supplied_driver(self, tiny_spec):
        from repro.core.recovery import recover_tables
        from repro.core.tables import (
            PhysicalPageMappingTable,
            ValidDifferentialCountTable,
        )

        chip, pdl = _fresh(tiny_spec)
        pdl.load_page(0, _page(pdl))
        pdl.write_page(0, _patched(_page(pdl), 0, b"\x01"))
        pdl.flush()
        fresh = PdlDriver(FlashChip(tiny_spec), max_differential_size=64)
        fresh.ppmt = PhysicalPageMappingTable()
        fresh.vdct = ValidDifferentialCountTable()
        report = recover_tables(chip, fresh.ppmt, fresh.vdct, driver=fresh)
        assert fresh.current_ts == report.max_timestamp > 0


class TestEmptyTablesRequired:
    """The scan installs its rows in one go, so it must refuse a table
    that already holds rows instead of overwriting them."""

    @pytest.mark.parametrize("table", ["ppmt", "vdct"])
    def test_recover_tables_refuses_a_non_empty_table(self, tiny_spec, table):
        from repro.core.recovery import recover_tables
        from repro.core.tables import (
            PhysicalPageMappingTable,
            ValidDifferentialCountTable,
        )

        chip, pdl = _fresh(tiny_spec)
        pdl.load_page(0, _page(pdl))
        pdl.flush()
        ppmt = PhysicalPageMappingTable()
        vdct = ValidDifferentialCountTable()
        if table == "ppmt":
            ppmt.set_base(7, 3, 1)
        else:
            vdct.increment(5)
        reads = chip.stats.totals().reads
        with pytest.raises(ValueError, match=f"empty {table}"):
            recover_tables(chip, ppmt, vdct)
        # Refused before the scan: nothing read, the row left as it was.
        assert chip.stats.totals().reads == reads
        assert len(ppmt) + len(vdct) == 1


class TestCorruptionDuringScan:
    """Single-page damage must be quarantined by the scan, never adopted."""

    def _injected(self, tiny_spec, seed=0):
        from repro.flash.backend import FaultInjector, MemoryBackend

        backend = MemoryBackend(tiny_spec)
        injector = FaultInjector(backend, seed=seed)
        chip = FlashChip(tiny_spec, backend=backend)
        return injector, chip, PdlDriver(chip, max_differential_size=64)

    def test_base_without_pid_is_quarantined(self, tiny_spec):
        """Regression: a base page whose spare lost its pid used to be
        miscounted as a corrupt differential AND left valid."""
        injector, chip, pdl = self._injected(tiny_spec)
        pdl.load_page(0, _page(pdl))
        addr = pdl.ppmt.require(0).base_addr
        injector.inject("torn_spare", addr, tear_at=2)  # keeps type, loses pid
        recovered, report = recover_driver(chip, max_differential_size=64)
        assert report.corrupt_base_pages == 1
        assert report.corrupt_differential_pages == 0
        assert chip.peek_spare(addr).obsolete
        assert 0 not in recovered.ppmt

    def test_corrupt_type_byte_is_quarantined(self, tiny_spec):
        chip = FlashChip(tiny_spec)
        pdl = PdlDriver(chip, max_differential_size=64)
        pdl.load_page(0, _page(pdl))
        # Damage the type byte of an unrelated programmed page directly.
        victim = (tiny_spec.n_blocks - 2) * tiny_spec.pages_per_block
        from repro.flash.spare import SpareArea

        chip.program_page(
            victim, _page(pdl), SpareArea(type=PageType.BASE, pid=9, timestamp=1)
        )
        raw = bytearray(chip.backend.read_spare(victim))
        raw[0] &= 0x70  # clears bits only: NAND-legal damage, unknown type
        chip.backend.write_spare(victim, bytes(raw), chip.backend.spare_programs(victim))
        recovered, report = recover_driver(chip, max_differential_size=64)
        assert report.corrupt_spare_pages == 1
        assert chip.peek_spare(victim).obsolete
        assert 9 not in recovered.ppmt
        assert recovered.read_page(0) == _page(pdl)

    def test_checksum_corrupt_differential_dropped(self, tiny_spec):
        """A rotted differential page fails verification during the scan;
        its pid must roll back to the base image, not crash recovery."""
        injector, chip, pdl = self._injected(tiny_spec)
        base = _page(pdl)
        pdl.load_page(0, base)
        pdl.write_page(0, _patched(base, 0, b"\x01"))
        pdl.flush()
        diff_addr = pdl.ppmt.require(0).diff_addr
        injector.inject("bit_rot", diff_addr)
        recovered, report = recover_driver(chip, max_differential_size=64)
        assert report.corrupt_differential_pages == 1
        assert chip.peek_spare(diff_addr).obsolete
        assert recovered.read_page(0) == base
        assert recovered.ppmt.require(0).diff_addr is None

    def test_corrupt_page_with_exhausted_spare_budget_does_not_abort(self, tiny_spec):
        """Regression: quarantining a corrupt page whose spare-program
        budget is already spent used to raise SpareProgramError and
        abort the whole scan."""
        from repro.flash.spare import SpareArea

        chip = FlashChip(tiny_spec)
        pdl = PdlDriver(chip, max_differential_size=64)
        pdl.load_page(0, _page(pdl))
        victim = (tiny_spec.n_blocks - 2) * tiny_spec.pages_per_block
        chip.program_page(
            victim, _page(pdl), SpareArea(type=PageType.BASE, pid=9, timestamp=1)
        )
        raw = bytearray(chip.backend.read_spare(victim))
        raw[0] &= 0x70  # clears bits only: NAND-legal damage, unknown type
        chip.backend.write_spare(victim, bytes(raw), tiny_spec.max_spare_programs)
        recovered, report = recover_driver(chip, max_differential_size=64)
        assert report.corrupt_spare_pages == 1
        assert not chip.peek_spare(victim).obsolete  # no budget left to mark
        assert 9 not in recovered.ppmt
        assert recovered.read_page(0) == _page(pdl)

    def test_pidless_base_with_exhausted_spare_budget_does_not_abort(self, tiny_spec):
        injector, chip, pdl = self._injected(tiny_spec)
        pdl.load_page(0, _page(pdl))
        addr = pdl.ppmt.require(0).base_addr
        injector.inject("torn_spare", addr, tear_at=2)  # keeps type, loses pid
        backend = injector.backend
        backend.write_spare(
            addr, backend.read_spare(addr), tiny_spec.max_spare_programs
        )
        recovered, report = recover_driver(chip, max_differential_size=64)
        assert report.corrupt_base_pages == 1
        assert 0 not in recovered.ppmt

    def test_checksum_corrupt_base_not_adopted_when_copy_exists(self, tiny_spec):
        """With a stale duplicate present, recovery adopts by timestamp —
        a rotted newer copy still wins adoption (the scan reads spares
        only); fsck is the layer that validates data areas."""
        injector, chip, pdl = self._injected(tiny_spec)
        image = _page(pdl, 0x5A)
        pdl.load_page(0, image)
        addr = pdl.ppmt.require(0).base_addr
        injector.inject("bit_rot", addr)
        recovered, _ = recover_driver(chip, max_differential_size=64)
        fsck_report = recovered.fsck()
        assert fsck_report.lost_pids == [0]
        assert 0 not in recovered.ppmt
