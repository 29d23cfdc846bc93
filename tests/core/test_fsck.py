"""Online single-page repair: the fsck engine's decision tree."""

import pytest

from repro.core import check_driver, fsck_driver
from repro.core.pdl import PdlDriver
from repro.core.recovery import recover_driver
from repro.flash.backend import FaultInjector, MemoryBackend
from repro.flash.chip import FlashChip
from repro.flash.errors import WrongPageError
from repro.ftl.errors import UnknownPageError
from repro.flash.spare import PageType, SpareArea


def _page(driver, fill=0x11):
    return bytes([fill]) * driver.page_size


def _patched(data, offset, patch):
    image = bytearray(data)
    image[offset : offset + len(patch)] = patch
    return bytes(image)


@pytest.fixture
def rig(tiny_spec):
    backend = MemoryBackend(tiny_spec)
    injector = FaultInjector(backend, seed=7)
    chip = FlashChip(tiny_spec, backend=backend)
    driver = PdlDriver(chip, max_differential_size=64)
    return injector, chip, driver


def _populate(driver, n=8):
    images = {}
    for pid in range(n):
        images[pid] = _page(driver, pid + 1)
        driver.load_page(pid, images[pid])
    driver.end_of_load()
    for pid in range(n):
        images[pid] = _patched(images[pid], 3, b"\xaa")
        driver.write_page(pid, images[pid])
    driver.flush()
    return images


class TestCleanScan:
    def test_clean_device_reports_clean(self, rig):
        _injector, chip, driver = rig
        _populate(driver)
        report = fsck_driver(driver)
        assert report.clean
        assert report.detected == 0
        assert report.pages_scanned == chip.spec.n_pages
        assert report.repair_writes == 0
        assert report.check is not None and report.check.consistent

    def test_scan_charges_real_io(self, rig):
        _injector, chip, driver = rig
        _populate(driver)
        before = chip.stats.totals().reads
        report = fsck_driver(driver)
        assert chip.stats.totals().reads - before == report.scan_reads
        # one spare read per page + one data read per programmed page
        assert report.scan_reads > chip.spec.n_pages

    def test_dry_run_repairs_nothing(self, rig):
        injector, chip, driver = rig
        _populate(driver)
        addr = driver.ppmt.require(2).base_addr
        injector.inject("bit_rot", addr)
        report = fsck_driver(driver, repair=False)
        assert [f.action for f in report.faults] == ["reported"]
        assert report.repair_writes == 0
        assert report.check is None  # no post-repair invariant pass
        assert driver.ppmt.require(2).base_addr == addr  # untouched


class TestBaseRepair:
    def test_exact_copy_relocated_chain_preserved(self, rig):
        """An identical surviving copy lets fsck relocate the base while
        the differential chain keeps replaying on reads."""
        injector, chip, driver = rig
        images = _populate(driver)
        entry = driver.ppmt.require(4)
        # GC-crash residue: a byte-identical copy at an erased address.
        copy_addr = driver.blocks.allocate(stream=driver._base_stream)
        data, _ = chip.read_page(entry.base_addr)
        chip.program_page(
            copy_addr,
            data,
            SpareArea(
                type=PageType.BASE, pid=4, timestamp=entry.base_ts, obsolete=True
            ),
        )
        injector.inject("bit_rot", entry.base_addr)
        report = fsck_driver(driver)
        assert report.repaired_base_pages == 1
        assert [f.action for f in report.faults] == ["repaired_copy"]
        assert report.check.consistent
        assert driver.read_page(4) == images[4]

    def test_stale_copy_adopted_and_diffs_dropped(self, rig):
        """Only an older copy survives: the page rolls back to it and the
        now-inapplicable differentials are dropped."""
        injector, chip, driver = rig
        driver.load_page(0, _page(driver, 0x10))
        old_addr = driver.ppmt.require(0).base_addr
        old_ts = driver.ppmt.require(0).base_ts
        # Rewrite heavily so Case 3 programs a NEW base page.
        big = _page(driver, 0x20)
        driver.write_page(0, big)
        driver.flush()
        entry = driver.ppmt.require(0)
        assert entry.base_addr != old_addr, "test needs a relocated base"
        assert not chip.peek_spare(old_addr).obsolete or True
        injector.inject("bit_rot", entry.base_addr)
        report = fsck_driver(driver)
        assert report.stale_pids == [0]
        assert [f.action for f in report.faults] == ["repaired_stale"]
        assert report.check.consistent
        assert driver.read_page(0) == _page(driver, 0x10)  # rolled back
        assert driver.ppmt.require(0).base_ts == old_ts

    def test_no_copy_declares_loss(self, rig):
        injector, chip, driver = rig
        _populate(driver)
        entry = driver.ppmt.require(3)
        injector.inject("bit_rot", entry.base_addr)
        report = fsck_driver(driver)
        assert report.lost_pids == [3]
        assert report.data_loss_pids == [3]
        assert report.check.consistent
        with pytest.raises(UnknownPageError):
            driver.read_page(3)
        # Other pages still serve.
        driver.read_page(2)

    def test_lost_base_takes_its_rotted_differential_out_of_the_table(self, rig):
        """A lost base drops its differential reference, so the rotted
        differential page only it used is quarantined as unreferenced
        rather than repaired for a pid that no longer exists."""
        injector, _chip, driver = rig
        for pid in range(4):
            driver.load_page(pid, _page(driver, pid + 1))
        driver.end_of_load()
        driver.write_page(2, _patched(_page(driver, 3), 0, b"\x01"))
        driver.flush()
        entry = driver.ppmt.require(2)
        base_addr, diff_addr = entry.base_addr, entry.diff_addr
        injector.inject("bit_rot", base_addr)
        injector.inject("bit_rot", diff_addr)
        report = fsck_driver(driver)
        assert [(f.addr, f.role, f.kind, f.action) for f in report.faults] == [
            (base_addr, "base", "checksum", "lost"),
            (diff_addr, "unreferenced", "checksum", "quarantined"),
        ]
        assert report.quarantined_pages == 2
        assert report.check.consistent


class TestDifferentialRepair:
    def test_obsolete_predecessor_salvaged(self, rig):
        """The previous flush's differential page survives on flash
        (obsolete); fsck re-flushes its entry when the current one rots —
        the page rolls back one durable version instead of to its base."""
        injector, chip, driver = rig
        base = _page(driver, 0x30)
        driver.load_page(0, base)
        v1 = _patched(base, 0, b"\x01")
        driver.write_page(0, v1)
        driver.flush()
        first_diff = driver.ppmt.require(0).diff_addr
        v2 = _patched(v1, 0, b"\x02")
        driver.write_page(0, v2)
        driver.flush()
        entry = driver.ppmt.require(0)
        assert entry.diff_addr != first_diff
        injector.inject("bit_rot", entry.diff_addr)
        report = fsck_driver(driver)
        assert report.repaired_differentials == 1
        assert [f.action for f in report.faults] == ["repaired_chain"]
        assert report.check.consistent
        assert driver.read_page(0) == v1  # the surviving version

    def test_no_survivor_reverts_to_base(self, rig):
        injector, chip, driver = rig
        base = _page(driver, 0x40)
        driver.load_page(0, base)
        driver.write_page(0, _patched(base, 0, b"\x01"))
        driver.flush()
        entry = driver.ppmt.require(0)
        injector.inject("bit_rot", entry.diff_addr)
        report = fsck_driver(driver)
        assert report.reverted_pids == [0]
        assert report.check.consistent
        assert driver.read_page(0) == base

    def test_buffered_differential_supersedes_damage(self, rig):
        """A newer unflushed differential shadows the damaged flash page,
        so detaching it loses nothing."""
        injector, chip, driver = rig
        base = _page(driver, 0x50)
        driver.load_page(0, base)
        v1 = _patched(base, 0, b"\x01")
        driver.write_page(0, v1)
        driver.flush()
        diff_addr = driver.ppmt.require(0).diff_addr
        v2 = _patched(v1, 0, b"\x02")
        driver.write_page(0, v2)  # buffered only
        assert driver.buffer.get(0) is not None
        injector.inject("bit_rot", diff_addr)
        report = fsck_driver(driver)
        assert report.repaired_differentials == 1
        assert report.check.consistent
        assert driver.read_page(0) == v2  # newest version intact

    def test_live_older_page_misdirected_onto_the_current_one(self, tiny_spec):
        """D1 holds an older entry of pid 3 and stays live for pid 5; D2
        holds pid 3's current entry.  Misdirected onto D2, D1's images
        carry pid 3 at the wrong stamp: the read, fsck and check_driver
        all refuse the page alike, and the repair salvages D1's entry."""
        backend = MemoryBackend(tiny_spec)
        driver = PdlDriver(FlashChip(tiny_spec, backend=backend), max_differential_size=128)
        images = {pid: _page(driver, pid) for pid in (3, 5)}
        for pid, image in images.items():
            driver.load_page(pid, image)
        for pid in (3, 5):
            images[pid] = _patched(images[pid], 10, b"\x99" * 8)
            driver.write_page(pid, images[pid])
        driver.flush()
        d1, old_ts = driver.ppmt.require(3).diff_addr, driver.ppmt.require(3).diff_ts
        driver.write_page(3, _patched(images[3], 100, b"\x77" * 8))
        driver.flush()
        d2, ts = driver.ppmt.require(3).diff_addr, driver.ppmt.require(3).diff_ts
        assert d1 != d2 and driver.ppmt.require(5).diff_addr == d1
        FaultInjector(backend).inject_misdirected_write(d2, donor=d1)
        wrong = (
            f"differential page {d2} holds (pid 3, ts {old_ts}), "
            f"the mapping row expects (pid 3, ts {ts})"
        )

        with pytest.raises(WrongPageError) as err:
            driver.read_page(3)
        assert str(err.value) == f"read of pid 3: {wrong}" and err.value.addr == d2
        dry = fsck_driver(driver, repair=False)
        assert [(f.addr, f.role, f.kind, f.pid, f.detail) for f in dry.faults] == [
            (d2, "differential", "decode", 3, wrong)
        ]
        assert check_driver(driver).violations == [f"pid 3: {wrong}"]

        report = fsck_driver(driver)
        assert [(f.addr, f.pid, f.action) for f in report.faults] == [(d2, 3, "repaired_chain")]
        assert driver.ppmt.require(3).diff_ts == old_ts  # D1's entry, one version back
        assert driver.read_page(3) == images[3]
        assert driver.read_page(5) == images[5]
        assert report.check.consistent

    def test_dry_run_names_each_pids_own_mismatch(self, tiny_spec):
        """Two rows point at one differential page and only pid 5's stamp
        is wrong: the dry run reports the page under both pids, and only
        pid 5's fault carries a mismatch, its own."""
        driver = PdlDriver(FlashChip(tiny_spec), max_differential_size=128)
        for pid in (3, 5):
            driver.load_page(pid, _page(driver, pid))
            driver.write_page(pid, _patched(_page(driver, pid), 10, b"\x99" * 8))
        driver.flush()
        row = driver.ppmt.require(5)
        addr, ts = row.diff_addr, row.diff_ts
        assert driver.ppmt.require(3).diff_addr == addr
        driver.ppmt.set_diff(5, addr, ts + 1, row.diff_at)
        dry = fsck_driver(driver, repair=False)
        assert [(f.addr, f.kind, f.pid, f.detail) for f in dry.faults] == [
            (addr, "decode", 3, ""),
            (
                addr, "decode", 5,
                f"differential page {addr} holds (pid 5, ts {ts}), "
                f"the mapping row expects (pid 5, ts {ts + 1})",
            ),
        ]


class TestQuarantine:
    def test_unreferenced_rot_is_quarantined(self, rig):
        injector, chip, driver = rig
        _populate(driver, n=4)
        # A live page no table references (crash residue of an
        # interrupted load): program one directly, then rot it.
        victim = (chip.spec.n_blocks - 1) * chip.spec.pages_per_block
        chip.program_page(
            victim,
            _page(driver, 0x77),
            SpareArea(type=PageType.BASE, pid=77, timestamp=1),
        )
        injector.inject("bit_rot", victim)
        report = fsck_driver(driver)
        roles = {f.role for f in report.faults}
        assert roles == {"unreferenced"}
        assert report.check.consistent

    def test_checkpoint_damage_reported_not_touched(self, tiny_spec):
        from repro.core.mapping import MappingConfig

        backend = MemoryBackend(tiny_spec)
        injector = FaultInjector(backend, seed=7)
        chip = FlashChip(tiny_spec, backend=backend)
        driver = PdlDriver(
            chip, max_differential_size=64, mapping=MappingConfig.auto(tiny_spec)
        )
        driver.load_page(0, _page(driver))
        driver.flush()
        driver.mapping.snapshot()  # the clean checkpoint
        # Rot the snapshot's seal (the ping-pong half seq 1 used).
        snapshot_addr = driver.mapping.seal_addr(1)
        injector.inject("bit_rot", snapshot_addr)
        before = injector.backend.read_data(snapshot_addr)
        report = fsck_driver(driver)
        assert [(f.role, f.kind, f.action) for f in report.faults] == [
            ("checkpoint", "checksum", "reported")
        ]
        assert injector.backend.read_data(snapshot_addr) == before  # untouched
        assert report.check.consistent


def _strip_checksums(backend, addrs=None):
    """Rewrite spare areas with an erased checksum slot — simulating an
    image written before checksums existed (or a torn CRC slot when
    ``addrs`` targets specific pages)."""
    from repro.flash.spare import CHECKSUM_OFFSET, CHECKSUM_SIZE

    targets = list(backend.iter_programmed()) if addrs is None else addrs
    for addr in targets:
        raw = bytearray(backend.read_spare(addr))
        raw[CHECKSUM_OFFSET : CHECKSUM_OFFSET + CHECKSUM_SIZE] = (
            b"\xff" * CHECKSUM_SIZE
        )
        backend.write_spare(addr, bytes(raw), backend.spare_programs(addr))


class TestChecksumEvidence:
    """The torn-spare inference needs proof the image carries checksums."""

    def test_checksum_free_image_is_not_torn(self, rig):
        """Regression: on a wide-spare chip with no checksum anywhere (a
        pre-checksum image), fsck used to flag every live page as a torn
        spare and declare every pid lost."""
        injector, _chip, driver = rig
        images = _populate(driver)
        _strip_checksums(injector.backend)
        report = fsck_driver(driver)
        assert report.clean
        assert report.lost_pids == []
        assert report.check.consistent
        for pid, expected in images.items():
            assert driver.read_page(pid) == expected

    def test_checksum_only_tear_still_detected(self, rig):
        """A tear past the header (byte 16) removes only the CRC; with
        verified checksums elsewhere as evidence, fsck must still flag
        the page as torn."""
        injector, _chip, driver = rig
        _populate(driver)
        addr = driver.ppmt.require(3).base_addr
        injector.inject("torn_spare", addr, tear_at=16)
        report = fsck_driver(driver)
        assert [f.kind for f in report.faults if f.addr == addr] == ["spare"]
        assert report.lost_pids == [3]
        assert report.check.consistent

    def test_unverifiable_donor_is_not_trusted(self, rig):
        """A salvage donor whose own checksum was torn away must not be
        re-flushed as a repair; the pid reverts to its base instead."""
        injector, _chip, driver = rig
        base = _page(driver, 0x30)
        driver.load_page(0, base)
        v1 = _patched(base, 0, b"\x01")
        driver.write_page(0, v1)
        driver.flush()
        first_diff = driver.ppmt.require(0).diff_addr
        driver.write_page(0, _patched(v1, 0, b"\x02"))
        driver.flush()
        entry = driver.ppmt.require(0)
        assert entry.diff_addr != first_diff
        _strip_checksums(injector.backend, [first_diff])
        injector.inject("bit_rot", entry.diff_addr)
        report = fsck_driver(driver)
        assert report.reverted_pids == [0]
        assert report.repaired_differentials == 0
        assert report.check.consistent
        assert driver.read_page(0) == base

    def test_missing_base_is_lost_but_not_quarantined(self, rig):
        """A referenced address that reads back erased leaves nothing on
        flash to mark obsolete: the pid is lost, but no quarantine may
        be counted for it."""
        injector, chip, driver = rig
        _populate(driver, n=4)
        backend = injector.backend
        addr = driver.ppmt.require(1).base_addr
        # A program whose pulse never reached the media: both areas read
        # back erased while the tables still reference the address.
        backend.write_data(addr, b"\xff" * chip.spec.page_data_size, 0)
        backend.write_spare(addr, b"\xff" * chip.spec.page_spare_size, 0)
        report = fsck_driver(driver)
        assert [f.kind for f in report.faults if f.addr == addr] == ["missing"]
        assert report.lost_pids == [1]
        assert report.quarantined_pages == 0
        assert report.check.consistent


class TestEndToEnd:
    def test_recovery_roundtrips_after_repair(self, rig):
        """After fsck repairs, a crash-recovery scan of the same chip must
        rebuild matching tables — repairs leave flash self-describing."""
        injector, chip, driver = rig
        images = _populate(driver)
        e2, e5 = driver.ppmt.require(2), driver.ppmt.require(5)
        injector.inject("bit_rot", e2.base_addr)
        injector.inject("torn_spare", e5.base_addr)
        report = fsck_driver(driver)
        assert report.check.consistent
        assert set(report.lost_pids) == {2, 5}
        driver.flush()
        recovered, _ = recover_driver(chip, max_differential_size=64)
        assert sorted(recovered.ppmt.pids()) == sorted(driver.ppmt.pids())
        for pid in recovered.ppmt.pids():
            assert recovered.read_page(pid) == images[pid]
        assert check_driver(recovered).consistent

    def test_fsck_is_idempotent(self, rig):
        injector, chip, driver = rig
        _populate(driver)
        injector.inject("bit_rot", driver.ppmt.require(1).base_addr)
        first = fsck_driver(driver)
        assert not first.clean
        second = fsck_driver(driver)
        assert second.clean
        assert second.check.consistent

    def test_merge_sums_reports(self):
        from repro.core.fsck import FsckReport, PageFault

        a = FsckReport(pages_scanned=10, checksum_failures=1)
        a.add(PageFault(0, "base", "checksum", 1, "lost"))
        b = FsckReport(pages_scanned=10)
        b.add(PageFault(5, "base", "checksum", 2, "repaired_copy"))
        merged = FsckReport.merge([a, b])
        assert merged.pages_scanned == 20
        assert merged.detected == 2
        assert merged.lost_pids == [1]
        assert merged.repaired == 1
        assert merged.per_shard == [a, b]
