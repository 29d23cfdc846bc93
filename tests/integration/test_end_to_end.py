"""End-to-end integration tests across the whole stack.

These cross module boundaries on purpose: chip ↔ driver ↔ buffer pool ↔
heap/B+tree ↔ workload, including crash in the middle of a database
workload and recovery underneath an unsuspecting storage engine — the
paper's DBMS-independence claim in executable form.
"""

import random

import pytest

from repro.core.pdl import PdlDriver
from repro.core.recovery import recover_driver
from repro.flash.chip import FlashChip
from repro.flash.errors import SimulatedPowerLoss
from repro.flash.spec import FlashSpec
from repro.methods import make_method
from repro.storage.btree import BTree
from repro.storage.bufferpool import BufferManager
from repro.storage.db import Database
from repro.storage.heap import HeapFile

SPEC = FlashSpec(
    n_blocks=64, pages_per_block=8, page_data_size=512, page_spare_size=16
)


class TestDbmsIndependence:
    """The same unmodified storage engine runs on every driver — only the
    'flash memory driver' differs (Figure 10)."""

    @pytest.mark.parametrize(
        "label", ["PDL (64B)", "PDL (256B)", "OPU", "IPU", "IPL (1KB)"]
    )
    def test_same_engine_any_driver(self, label):
        chip = FlashChip(SPEC)
        db = Database(make_method(label, chip), buffer_capacity=8)
        heap = HeapFile(db, "t")
        tree = BTree(db)
        rng = random.Random(1)
        rows = {}
        for i in range(150):
            record = rng.randbytes(rng.randrange(8, 80))
            rid = heap.insert(record)
            tree.insert(i, (rid.pid << 16) | rid.slot)
            rows[i] = (rid, record)
        db.flush()
        for i, (rid, record) in rows.items():
            packed = tree.get(i)
            assert packed == (rid.pid << 16) | rid.slot
            assert heap.read(rid) == record
        tree.check_invariants()


class TestCrashUnderDatabase:
    def test_crash_mid_workload_then_recover_and_continue(self):
        chip = FlashChip(SPEC)
        driver = PdlDriver(chip, max_differential_size=64)
        db = Database(driver, buffer_capacity=6)
        heap = HeapFile(db, "t")
        rng = random.Random(2)
        committed = {}
        pending = {}
        chip.crash_after(rng.randrange(40, 120))
        try:
            for i in range(500):
                record = bytes([i % 256]) * rng.randrange(8, 40)
                pending[i] = (heap.insert(record), record)
                if i % 10 == 9:
                    db.flush()
                    committed.update(pending)
                    pending.clear()
        except SimulatedPowerLoss:
            pass
        else:
            pytest.fail("crash never fired")
        # Recover the driver; committed records must be intact.
        recovered, _ = recover_driver(chip, max_differential_size=64)
        cold = Database.__new__(Database)
        cold.driver = recovered
        cold.pool = BufferManager(recovered, 6)
        cold.page_size = recovered.page_size
        cold._next_pid = db._next_pid
        cold_heap = HeapFile(cold, "t")
        cold_heap.pages = list(heap.pages)
        for i, (rid, record) in committed.items():
            assert cold_heap.read(rid) == record


class TestWriteAmplificationOrdering:
    """Integration-level check of the paper's core quantitative claim:
    under small random updates, PDL writes less to flash than OPU, which
    writes less than IPU."""

    def test_flash_write_volume(self):
        totals = {}
        for label in ["PDL (64B)", "OPU", "IPU"]:
            chip = FlashChip(SPEC)
            driver = make_method(label, chip)
            rng = random.Random(3)
            images = {}
            for pid in range(24):
                images[pid] = rng.randbytes(driver.page_size)
                driver.load_page(pid, images[pid])
            chip.stats.reset()
            for _ in range(300):
                pid = rng.randrange(24)
                image = bytearray(images[pid])
                off = rng.randrange(len(image) - 8)
                image[off : off + 8] = rng.randbytes(8)
                images[pid] = bytes(image)
                driver.write_page(pid, images[pid])
            totals[label] = chip.stats.totals().writes
        assert totals["PDL (64B)"] < totals["OPU"] < totals["IPU"]


class TestLongevityOrdering:
    def test_pdl_erases_less_than_opu(self):
        erases = {}
        for label in ["PDL (64B)", "OPU"]:
            chip = FlashChip(SPEC)
            driver = make_method(label, chip)
            rng = random.Random(4)
            images = {}
            for pid in range(32):
                images[pid] = rng.randbytes(driver.page_size)
                driver.load_page(pid, images[pid])
            for _ in range(1200):
                pid = rng.randrange(32)
                image = bytearray(images[pid])
                off = rng.randrange(len(image) - 8)
                image[off : off + 8] = rng.randbytes(8)
                images[pid] = bytes(image)
                driver.write_page(pid, images[pid])
            erases[label] = chip.stats.total_erases
        assert erases["PDL (64B)"] < erases["OPU"]
