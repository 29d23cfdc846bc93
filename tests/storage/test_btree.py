"""Unit tests for the paged B+tree."""

import random
import struct
import sys
import threading
import time

import pytest

from repro.core.pdl import PdlDriver
from repro.flash.chip import FlashChip
from repro.storage import btree
from repro.storage.btree import BTree, BTreeError
from repro.storage.db import Database
from repro.storage.page import Page


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


def _fresh_decode(page):
    """The node in ``page`` decoded from its bytes, memo unseen:
    (is_leaf, n_keys, next_leaf + 1, keys, child pids or ())."""
    view = page.view
    _magic, is_leaf, _r1, n, _r2, next_raw = struct.unpack_from("<HBBHHI", view)
    keys = struct.unpack_from(f"<{n}Q", view, 12)
    children = () if is_leaf else struct.unpack_from(f"<{n + 1}I", view, 12 + 8 * n)
    return is_leaf, n, next_raw, keys, children


class TestMemo:
    """A node is decoded once per ``Page.version``: every visit after a
    write must see the write, and the memo must not outlive its frame."""

    @staticmethod
    def assert_current(tree):
        """Every resident node's decode, as a visit returns it, matches
        its bytes and carries the page's current version."""
        for resident in list(tree.db.pool.pages()):
            page, memo = tree._node(resident.pid)
            assert page is resident
            assert memo[0] == page.version
            assert memo[1:] == _fresh_decode(page), f"node {page.pid} is stale"

    def test_upsert_writing_only_the_value(self, tree):
        tree.insert(5, 500)
        assert tree.get(5) == 500  # the leaf's memo is filled
        leaf = tree.db.page(tree.root_pid)
        version = leaf.version
        tree.insert(5, 501)
        assert leaf.version == version + 1
        self.assert_current(tree)
        assert tree.get(5) == 501

    def test_insert_without_split(self, tree):
        for key in (10, 30):
            tree.insert(key, key)
        assert tree.get(10) == 10
        tree.insert(20, 20)
        assert tree.height == 1
        self.assert_current(tree)
        assert [k for k, _ in tree.items()] == [10, 20, 30]

    def test_leaf_split(self, tree):
        for key in range(tree.leaf_capacity):
            tree.insert(key, key)
        assert tree.get(0) == 0
        tree.insert(tree.leaf_capacity, 0)
        assert tree.height == 2
        self.assert_current(tree)
        tree.check_invariants()

    def test_branch_and_root_splits(self, tree, monkeypatch):
        splits = set()
        split = BTree._split

        def spy(self, pid, is_leaf, *rest):
            splits.add(("leaf" if is_leaf else "branch", pid == self.root_pid))
            return split(self, pid, is_leaf, *rest)

        monkeypatch.setattr(BTree, "_split", spy)
        key = 0
        while tree.height < 3 or ("branch", False) not in splits:
            tree.insert(key, key)
            self.assert_current(tree)
            key += 1
        assert {("leaf", False), ("branch", True), ("branch", False)} <= splits
        tree.check_invariants()

    def test_delete(self, tree):
        for key in range(3 * tree.leaf_capacity):
            tree.insert(key, key)
        assert tree.get(7) == 7
        assert tree.delete(7)
        self.assert_current(tree)
        assert tree.get(7) is None

    def test_evicted_frame_comes_back_without_memo(self, tiny_spec):
        chip = FlashChip(tiny_spec.scaled(128))
        db = Database(PdlDriver(chip, max_differential_size=64), buffer_capacity=4)
        tree = BTree(db)
        for key in range(4 * tree.leaf_capacity):
            tree.insert(key, key)
        assert db.allocated_pages > 4
        page, memo = tree._node(tree.root_pid)
        assert page.memo is memo
        for pid in range(db.allocated_pages):
            if pid != tree.root_pid:
                db.page(pid)
        again = db.page(tree.root_pid)
        assert again is not page and again.memo is None
        assert tree._node(tree.root_pid)[1][1:] == _fresh_decode(again)

    def test_a_stale_stamp_forces_a_decode(self, tree):
        tree.insert(5, 500)
        page, memo = tree._node(tree.root_pid)
        page.memo = (page.version - 1, 1, 0, 0, (), ())  # an older, emptier image
        assert tree.get(5) == 500
        assert page.memo[0] == page.version
        assert page.memo[1:] == memo[1:] == _fresh_decode(page)

    def test_memo_holds_no_page(self, tree):
        for key in range(3 * tree.leaf_capacity):
            tree.insert(key, key)
        tree.check_invariants()
        for page in tree.db.pool.pages():
            # Ints only: no cycle through the memo keeps an evicted frame
            # alive until the cyclic collector runs.
            stamp, *fields, keys, children = page.memo
            assert all(type(x) is int for x in (stamp, *fields, *keys, *children))

    def test_a_write_that_lands_mid_decode_leaves_the_memo_stale(self, tree, monkeypatch):
        tree.insert(1, 10)
        page = tree.db.page(tree.root_pid)
        image = page.data
        tree.insert(2, 20)
        array = btree._array

        def racing_array(n, code):  # runs between the header and the keys
            monkeypatch.setattr(btree, "_array", array)
            page.write_delta(0, image)
            return array(n, code)

        monkeypatch.setattr(btree, "_array", racing_array)
        page.memo = None
        tree._node(page.pid)
        assert page.memo[0] == page.version - 1  # stamped before the write
        assert tree._node(page.pid)[1][1:] == _fresh_decode(page)
        assert tree.get(1) == 10 and tree.get(2) is None

    def test_a_write_racing_decodes_never_leaves_a_current_stale_memo(self, tree):
        """One writer flips a leaf between two images while three readers
        decode it: every visit the writer makes after a write sees it."""
        for key in range(tree.leaf_capacity // 2):
            tree.insert(key, key)
        page = tree.db.page(tree.root_pid)
        images = [page.data]
        tree.insert(tree.leaf_capacity, 0)
        images.append(page.data)
        decodes = [_fresh_decode(Page(page.pid, image)) for image in images]
        stop, errors = threading.Event(), []

        def read():
            while not stop.is_set():
                tree._node(page.pid)

        def write():
            try:
                deadline = time.monotonic() + 0.3
                i = 0
                while time.monotonic() < deadline:
                    i ^= 1
                    page.write_delta(0, images[i])
                    assert tree._node(page.pid)[1][1:] == decodes[i]
            except AssertionError as error:
                errors.append(error)
            finally:
                stop.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(3)]
            threads.append(threading.Thread(target=write))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[0]
