"""Unit tests for heap files over the buffer pool and a real driver."""

import random

import pytest

from repro.core.pdl import PdlDriver
from repro.flash.chip import FlashChip
from repro.storage.db import Database
from repro.storage.heap import RID, HeapFile


@pytest.fixture
def db(tiny_spec):
    chip = FlashChip(tiny_spec.scaled(64))
    return Database(PdlDriver(chip, max_differential_size=64), buffer_capacity=8)


@pytest.fixture
def heap(db):
    return HeapFile(db, "test")


class TestBasicOperations:
    def test_insert_read(self, heap):
        rid = heap.insert(b"record-1")
        assert heap.read(rid) == b"record-1"
        assert len(heap) == 1

    def test_records_spread_across_pages(self, heap):
        rids = [heap.insert(bytes([i % 256]) * 60) for i in range(30)]
        assert len({rid.pid for rid in rids}) > 1
        for i, rid in enumerate(rids):
            assert heap.read(rid) == bytes([i % 256]) * 60

    def test_update_in_place(self, heap):
        rid = heap.insert(b"aaaa")
        new_rid = heap.update(rid, b"bbbb")
        assert new_rid == rid
        assert heap.read(rid) == b"bbbb"

    def test_update_relocates_when_grown(self, heap):
        # fill the record's page so growth forces relocation
        rid = heap.insert(b"a" * 10)
        while True:
            probe = heap.insert(b"f" * 20)
            if probe.pid != rid.pid:
                heap.delete(probe)
                break
        new_rid = heap.update(rid, b"b" * 120)
        assert heap.read(new_rid) == b"b" * 120
        assert len(heap) == 1 + len([r for r, _ in heap.scan()]) - 1

    def test_delete(self, heap):
        rid = heap.insert(b"abc")
        heap.delete(rid)
        assert len(heap) == 0

    def test_oversized_record_rejected(self, heap, db):
        with pytest.raises(ValueError):
            heap.insert(b"x" * (db.page_size // 2 + 1))


class TestScan:
    def test_scan_returns_live_records(self, heap):
        rids = [heap.insert(bytes([i]) * 8) for i in range(10)]
        heap.delete(rids[4])
        records = dict(heap.scan())
        assert len(records) == 9
        assert rids[4] not in records

    def test_scan_empty(self, heap):
        assert list(heap.scan()) == []


class TestDurability:
    def test_records_survive_flush_and_cold_read(self, db, heap):
        rids = {i: heap.insert(bytes([i]) * 40) for i in range(20)}
        db.flush()
        # re-read through a brand-new pool over the same driver
        cold = Database.__new__(Database)
        cold.driver = db.driver
        from repro.storage.bufferpool import BufferManager

        cold.pool = BufferManager(db.driver, 4)
        cold.page_size = db.page_size
        cold._next_pid = db._next_pid
        cold_heap = HeapFile(cold, "test")
        cold_heap.pages = list(heap.pages)
        for i, rid in rids.items():
            assert cold_heap.read(rid) == bytes([i]) * 40


class TestModelBased:
    def test_random_operations(self, heap):
        rng = random.Random(11)
        model = {}
        next_id = 0
        for _ in range(400):
            op = rng.random()
            if op < 0.5 or not model:
                rec = rng.randbytes(rng.randrange(4, 60))
                model[next_id] = (heap.insert(rec), rec)
                next_id += 1
            elif op < 0.8:
                key = rng.choice(list(model))
                rid, _old = model[key]
                rec = rng.randbytes(rng.randrange(4, 60))
                model[key] = (heap.update(rid, rec), rec)
            else:
                key = rng.choice(list(model))
                rid, _old = model.pop(key)
                heap.delete(rid)
        for key, (rid, rec) in model.items():
            assert heap.read(rid) == rec
        assert len(heap) == len(model)
