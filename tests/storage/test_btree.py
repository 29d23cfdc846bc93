"""Unit tests for the paged B+tree."""

import random

import pytest

from repro.core.pdl import PdlDriver
from repro.flash.chip import FlashChip
from repro.storage.btree import BTree, BTreeError
from repro.storage.db import Database


@pytest.fixture
def db(tiny_spec):
    chip = FlashChip(tiny_spec.scaled(128))
    return Database(PdlDriver(chip, max_differential_size=64), buffer_capacity=16)


@pytest.fixture
def tree(db):
    return BTree(db, "idx")


class TestBasics:
    def test_empty(self, tree):
        assert tree.get(1) is None
        assert len(tree) == 0
        assert 1 not in tree
        assert list(tree.items()) == []

    def test_insert_get(self, tree):
        tree.insert(5, 500)
        assert tree.get(5) == 500
        assert 5 in tree
        assert len(tree) == 1

    def test_upsert(self, tree):
        tree.insert(5, 500)
        tree.insert(5, 501)
        assert tree.get(5) == 501
        assert len(tree) == 1

    def test_key_bounds(self, tree):
        with pytest.raises(ValueError):
            tree.insert(-1, 0)
        with pytest.raises(ValueError):
            tree.insert(1 << 64, 0)
        tree.insert((1 << 64) - 1, 7)
        assert tree.get((1 << 64) - 1) == 7


class TestSplits:
    def test_leaf_split(self, tree):
        n = tree.leaf_capacity + 1
        for i in range(n):
            tree.insert(i, i * 10)
        assert tree.height == 2
        for i in range(n):
            assert tree.get(i) == i * 10
        tree.check_invariants()

    def test_multi_level_growth(self, tree):
        n = tree.leaf_capacity * (tree.branch_capacity + 2)
        for i in range(n):
            tree.insert(i, i)
        assert tree.height >= 3
        tree.check_invariants()
        for probe in (0, n // 2, n - 1):
            assert tree.get(probe) == probe

    def test_random_insert_order(self, tree):
        rng = random.Random(7)
        keys = list(range(500))
        rng.shuffle(keys)
        for k in keys:
            tree.insert(k, k * 3)
        tree.check_invariants()
        assert [k for k, _ in tree.items()] == sorted(keys)


class TestDelete:
    def test_delete_existing(self, tree):
        tree.insert(1, 10)
        assert tree.delete(1)
        assert tree.get(1) is None
        assert len(tree) == 0

    def test_delete_missing(self, tree):
        assert not tree.delete(42)

    def test_delete_after_splits(self, tree):
        for i in range(200):
            tree.insert(i, i)
        for i in range(0, 200, 2):
            assert tree.delete(i)
        tree.check_invariants()
        assert [k for k, _ in tree.items()] == list(range(1, 200, 2))


class TestRangeScan:
    def test_items_range(self, tree):
        for i in range(100):
            tree.insert(i, i)
        assert [k for k, _ in tree.items(10, 20)] == list(range(10, 20))

    def test_items_open_ended(self, tree):
        for i in range(50):
            tree.insert(i, i)
        assert [k for k, _ in tree.items(45)] == list(range(45, 50))
        assert [k for k, _ in tree.items(None, 5)] == list(range(5))

    def test_min_item(self, tree):
        for i in (30, 10, 20):
            tree.insert(i, i)
        assert tree.min_item() == (10, 10)
        assert tree.min_item(15) == (20, 20)
        assert tree.min_item(15, 18) is None

    def test_range_across_leaves(self, tree):
        n = tree.leaf_capacity * 3
        for i in range(n):
            tree.insert(i, i)
        lo = tree.leaf_capacity - 2
        hi = tree.leaf_capacity * 2 + 2
        assert [k for k, _ in tree.items(lo, hi)] == list(range(lo, hi))


class TestDurability:
    def test_survives_flush(self, db, tree):
        for i in range(300):
            tree.insert(i, i * 7)
        db.flush()
        # cold pool re-read
        from repro.storage.bufferpool import BufferManager

        db.pool = BufferManager(db.driver, 8)
        for probe in (0, 150, 299):
            assert tree.get(probe) == probe * 7
        tree.check_invariants()


class TestModelBased:
    def test_random_mixed_workload(self, tree):
        rng = random.Random(13)
        model = {}
        for _ in range(1500):
            op = rng.random()
            k = rng.randrange(1000)
            if op < 0.6:
                v = rng.randrange(1 << 40)
                tree.insert(k, v)
                model[k] = v
            elif op < 0.9:
                assert tree.get(k) == model.get(k)
            else:
                assert tree.delete(k) == (k in model)
                model.pop(k, None)
        tree.check_invariants()
        assert sorted(model) == [k for k, _ in tree.items()]
        for k, v in model.items():
            assert tree.get(k) == v
