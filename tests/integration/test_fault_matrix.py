"""Fault matrix: every fault kind × every page role × both backends.

The acceptance bar for the integrity layer: for each injected
single-page fault — bit rot, misdirected write, torn spare program — at
each page role — live base, live differential, and (role ``checkpoint``)
the four page kinds of the mapping region: seal, snapshot data page,
meta page, first journal page — fsck must *detect* the damage (100% of
cells), then either *repair* the page online (when a surviving copy,
chain entry, or self-healing snapshot protocol exists) or *declare the
precise loss*; and a subsequent restart of the repaired chip (the
Figure-11 scan, then the snapshot+journal path — fast or fallback,
whichever the damage forces) must round-trip cleanly.  The matrix runs
on the memory backend and the file backend,
plus array-level smoke over ``ShardedDriver`` / ``Database`` and a
pre-checksum image compatibility check.
"""

import os

import pytest

from repro.core import check_driver, fsck_driver
from repro.core.mapping import MappingConfig
from repro.core.pdl import PdlDriver
from repro.core.recovery import recover_driver
from repro.core.restart import restart_driver
from repro.core.restart_plan import FallbackReason
from repro.flash.backend import FaultInjector, FileBackend, MemoryBackend
from repro.flash.chip import FlashChip
from repro.flash.spare import (
    CHECKSUM_OFFSET,
    CHECKSUM_SIZE,
    HEADER_SIZE,
    PageType,
    SpareArea,
)
from repro.flash.spec import FlashSpec

SPEC = FlashSpec(n_blocks=16, pages_per_block=8, page_data_size=256, page_spare_size=32)
PAGE = SPEC.page_data_size

FAULTS = ["bit_rot", "misdirected_write", "torn_spare"]
ROLES = ["base", "differential", "checkpoint"]
BACKENDS = ["memory", "file"]
MAPPING = MappingConfig.auto(SPEC)
#: The ``checkpoint`` role's targets, one per page kind of the mapping region.
REGION_KINDS = ("seal", "snapshot", "meta", "journal")


def region_targets(store):
    """One address per page kind of the mapping region: the newest
    snapshot's seal, first data page and first meta page, and the first
    journal page."""
    half = store.seq % 2
    return {
        "seal": store.seal_addr(half),
        "snapshot": store.half_start_page(half),
        "meta": store.half_start_page(half) + store.data_page_count,
        "journal": store.journal_page_addr(0),
    }


def _patched(data, offset, patch):
    image = bytearray(data)
    image[offset : offset + len(patch)] = patch
    return bytes(image)


def _build(backend_kind, tmp_path, seed=0):
    if backend_kind == "memory":
        inner = MemoryBackend(SPEC)
    else:
        inner = FileBackend(tmp_path / "chip.flash", SPEC)
    injector = FaultInjector(inner, seed=seed)
    chip = FlashChip(SPEC, backend=injector)
    driver = PdlDriver(chip, max_differential_size=64, mapping=MAPPING)
    images = {}
    for pid in range(10):
        images[pid] = bytes([pid + 1]) * PAGE
        driver.load_page(pid, images[pid])
    driver.end_of_load()
    for pid in range(10):
        images[pid] = _patched(images[pid], 5, b"\xbb")
        driver.write_page(pid, images[pid])
    driver.flush()
    driver.mapping.snapshot()  # the clean checkpoint ...
    # ... and a journal tail behind it, whose lookups leave the first
    # snapshot page cache-resident: the live driver (and so fsck's table
    # walk) never re-reads it, the restart does.
    for pid in range(3):
        images[pid] = _patched(images[pid], 9, b"\xcc")
        driver.write_page(pid, images[pid])
    driver.flush()
    return injector, chip, driver, images


def _target_addr(driver, kind, pid):
    if kind == "base":
        return driver.ppmt.require(pid).base_addr
    if kind == "differential":
        addr = driver.ppmt.require(pid).diff_addr
        assert addr is not None, "workload must leave a flash differential"
        return addr
    return region_targets(driver.mapping)[kind]


@pytest.mark.parametrize("backend_kind", BACKENDS)
@pytest.mark.parametrize("role", ROLES)
@pytest.mark.parametrize("fault", FAULTS)
def test_fault_matrix_cell(tmp_path, backend_kind, role, fault):
    pid = 6
    for kind in REGION_KINDS if role == "checkpoint" else (role,):
        (tmp_path / kind).mkdir()
        injector, chip, driver, images = _build(backend_kind, tmp_path / kind, seed=3)
        addr = _target_addr(driver, kind, pid)
        injector.inject(fault, addr)
        damaged = injector.inner.read_data(addr)

        report = fsck_driver(driver)

        # 1. Detection: every cell of the matrix must surface at least one
        #    fault anchored at the damaged page.
        assert report.detected >= 1, f"{fault} at {kind} went undetected"
        assert any(f.addr == addr for f in report.faults)

        # 2. Disposition: repaired pages serve their exact pre-fault bytes;
        #    lost/rolled-back pages are precisely reported.
        if role == "checkpoint":
            # Never touched: restart notices the damage and self-heals.
            assert [(f.role, f.action) for f in report.faults] == [
                ("checkpoint", "reported")
            ]
            assert injector.inner.read_data(addr) == damaged
        assert report.check is not None and report.check.consistent

        survivors = set(images) - set(report.lost_pids)
        rollbacks = set(report.stale_pids) | set(report.reverted_pids)
        for spid in sorted(survivors):
            got = driver.read_page(spid)
            if spid in rollbacks:
                assert got != b"", "rolled-back page must still serve"
            else:
                assert got == images[spid], f"pid {spid} serves wrong bytes"

        # 3. Round-trip: the Figure-11 scan over the repaired chip must
        #    yield a consistent driver serving the same survivors.  (Not
        #    with a damaged mapping region: only a mapping-aware restart
        #    knows to keep the scan out of it.)
        driver.flush()
        if role != "checkpoint":
            recovered, _ = recover_driver(chip, max_differential_size=64)
            assert check_driver(recovered).consistent
            for spid in sorted(survivors - rollbacks):
                assert recovered.read_page(spid) == images[spid]

        # 4. The snapshot+journal restart works: fast path, or the scan
        #    fallback (plus repair snapshot) when the damage demands it.
        restarted, restart = restart_driver(
            chip, max_differential_size=64, mapping=MAPPING
        )
        if role == "checkpoint":
            # Damage the restart cannot read past — the newest seal, its
            # meta, the snapshot page replay demand-pages — must demote
            # to the scan; a torn spare leaves the data readable, and a
            # damaged journal tail is re-derived by the seeded tail scan.
            unreadable = fault != "torn_spare" and kind != "journal"
            assert restart.fast_path == (not unreadable), restart.plan
            if unreadable:
                assert restart.plan.reason is {
                    "seal": FallbackReason.SEAL_UNREADABLE,
                    "meta": FallbackReason.META_UNREADABLE,
                    "snapshot": FallbackReason.REPLAY_REJECTED,  # replay's page-in finds it
                }[kind]
        assert check_driver(restarted).consistent
        for spid in sorted(survivors - rollbacks):
            assert restarted.read_page(spid) == images[spid], (fault, kind, spid)


class TestRepairableCells:
    """Cells engineered with surviving redundancy must repair, not lose."""

    @pytest.mark.parametrize("backend_kind", BACKENDS)
    def test_base_with_surviving_copy_repairs(self, tmp_path, backend_kind):
        injector, chip, driver, images = _build(backend_kind, tmp_path)
        pid = 2
        entry = driver.ppmt.require(pid)
        copy_addr = driver.blocks.allocate(stream=driver._base_stream)
        data, _ = chip.read_page(entry.base_addr)
        chip.program_page(
            copy_addr,
            data,
            SpareArea(type=PageType.BASE, pid=pid, timestamp=entry.base_ts,
                      obsolete=True),
        )
        injector.inject("bit_rot", entry.base_addr)
        report = fsck_driver(driver)
        assert report.repaired_base_pages == 1
        assert report.lost_pids == []
        assert driver.read_page(pid) == images[pid]

    @pytest.mark.parametrize("backend_kind", BACKENDS)
    def test_differential_with_surviving_chain_repairs(self, tmp_path, backend_kind):
        injector, chip, driver, images = _build(backend_kind, tmp_path)
        pid = 3
        v2 = _patched(images[pid], 9, b"\xcc")
        driver.write_page(pid, v2)
        driver.flush()  # leaves the previous differential page obsolete on flash
        entry = driver.ppmt.require(pid)
        injector.inject("bit_rot", entry.diff_addr)
        report = fsck_driver(driver)
        assert report.repaired_differentials == 1
        assert driver.read_page(pid) == images[pid]  # one durable version back


class TestArrayFsck:
    def _shards(self, n):
        injectors, shards = [], []
        for i in range(n):
            injector = FaultInjector(MemoryBackend(SPEC), seed=i)
            injectors.append(injector)
            shards.append(
                PdlDriver(FlashChip(SPEC, backend=injector), max_differential_size=64)
            )
        from repro.sharding.driver import ShardedDriver

        return injectors, ShardedDriver(shards)

    @staticmethod
    def _fsck(driver, parallel):
        """Run ``driver.fsck()`` on this thread, or on a client thread of
        its own when ``parallel`` — the shard gates, not the thread that
        loaded the array, decide who may touch a shard."""
        if not parallel:
            return driver.fsck()
        import threading

        out = {}

        def client():
            try:
                out["report"] = driver.fsck()
            except BaseException as exc:  # re-raised on the test thread
                out["error"] = exc

        thread = threading.Thread(target=client)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive(), "fsck on a client thread did not finish"
        if "error" in out:
            raise out["error"]
        return out["report"]

    @pytest.mark.parametrize("parallel", [False, True])
    def test_sharded_fsck_merges_per_shard(self, parallel):
        injectors, driver = self._shards(3)
        try:
            for pid in range(12):
                driver.load_page(pid, bytes([pid + 1]) * PAGE)
            driver.end_of_load()
            report = self._fsck(driver, parallel)
            assert report.clean
            assert len(report.per_shard) == 3
            assert report.pages_scanned == 3 * SPEC.n_pages
            pid = 7
            index = driver.shard_index(pid)
            shard = driver.shards[index]
            injectors[index].inject("bit_rot", shard.ppmt.require(pid).base_addr)
            report = self._fsck(driver, parallel)
            assert report.detected == 1
            assert report.lost_pids == [pid]
            assert all(r.check.consistent for r in report.per_shard)
        finally:
            driver.close()

    def test_database_fsck_drops_stale_pool_copies(self, tmp_path):
        from repro.ftl.errors import UnknownPageError
        from repro.storage.db import Database

        with Database.open(
            tmp_path / "db", n_shards=2, spec=SPEC, max_differential_size=64
        ) as db:
            pages = [db.allocate_page() for _ in range(6)]
            for i, page in enumerate(pages):
                page.write(0, bytes([i + 1]) * 16)
            db.flush()
            assert db.fsck().clean
            pid = pages[0].pid
            shard = db.driver.shard_for(pid)
            addr = shard.ppmt.require(pid).base_addr
            backend = shard.chip.backend
            raw = bytearray(backend.read_data(addr))
            raw[0] ^= 0x01
            backend.write_data(addr, bytes(raw), backend.data_programs(addr))
            report = db.fsck()
            assert report.lost_pids == [pid]
            # The pool must not resurrect its cached pre-fault copy.
            with pytest.raises(UnknownPageError):
                db.page(pid)
            # Unaffected pages still serve through the pool.
            assert db.page(pages[1].pid).data[:16] == bytes([2]) * 16


class TestPreChecksumCompatibility:
    """Images written before the checksum layout must open and recover."""

    OLD_SPEC = FlashSpec(
        n_blocks=16, pages_per_block=8, page_data_size=256, page_spare_size=16
    )

    def test_pre_checksum_image_opens_and_recovers(self, tmp_path):
        path = tmp_path / "old.flash"
        chip = FlashChip(self.OLD_SPEC, backend=FileBackend(path, self.OLD_SPEC))
        driver = PdlDriver(chip, max_differential_size=64)
        images = {}
        for pid in range(6):
            images[pid] = bytes([pid + 1]) * self.OLD_SPEC.page_data_size
            driver.load_page(pid, images[pid])
        driver.write_page(0, _patched(images[0], 0, b"\x99"))
        images[0] = _patched(images[0], 0, b"\x99")
        driver.flush()
        chip.close()

        reopened = FlashChip(self.OLD_SPEC, backend=FileBackend(path))
        assert reopened.spec.page_spare_size < HEADER_SIZE + 4
        recovered, _ = recover_driver(reopened, max_differential_size=64)
        for pid, expected in images.items():
            assert recovered.read_page(pid) == expected
        # No checksum slots -> zero verification activity, zero failures.
        assert reopened.stats.checksum_checks == 0
        report = fsck_driver(recovered)
        assert report.clean  # nothing to verify is not corruption
        assert report.checksum_failures == 0

    def test_pre_checksum_wide_spare_image_survives_fsck(self, tmp_path):
        """Regression: a checksum-free image on a chip whose spare *does*
        have room for the slot (like the default 64-byte spare) must not
        read as a chip-wide torn-spare event — fsck used to flag every
        live page and declare every pid lost."""
        path = tmp_path / "old-wide.flash"
        backend = FileBackend(path, SPEC)  # 32-byte spare: room for a CRC
        chip = FlashChip(SPEC, backend=backend)
        driver = PdlDriver(chip, max_differential_size=64)
        images = {}
        for pid in range(6):
            images[pid] = bytes([pid + 1]) * SPEC.page_data_size
            driver.load_page(pid, images[pid])
        driver.end_of_load()
        images[0] = _patched(images[0], 0, b"\x99")
        driver.write_page(0, images[0])
        driver.flush()
        # Erase every checksum slot, leaving the image exactly as a
        # pre-checksum writer would have: checksum=None on every page.
        for addr in list(backend.iter_programmed()):
            raw = bytearray(backend.read_spare(addr))
            raw[CHECKSUM_OFFSET : CHECKSUM_OFFSET + CHECKSUM_SIZE] = (
                b"\xff" * CHECKSUM_SIZE
            )
            backend.write_spare(addr, bytes(raw), backend.spare_programs(addr))
        chip.close()

        reopened = FlashChip(SPEC, backend=FileBackend(path))
        recovered, _ = recover_driver(reopened, max_differential_size=64)
        report = fsck_driver(recovered)
        assert report.clean, [str(f) for f in report.faults]
        assert report.lost_pids == []
        for pid, expected in images.items():
            assert recovered.read_page(pid) == expected
