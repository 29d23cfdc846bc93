"""The wire-form B+tree must leave the bytes and logs the decoding one did.

``BTree`` reads and patches its nodes in place; the implementation it
replaced decoded every node into lists and a dataclass, edited those and
re-encoded the whole node through one ``write_delta``.  ``_OracleBTree``
below keeps that codec and those algorithms verbatim.  Both trees replay
one seeded sequence of inserts, upserts, deletes, range scans and
``min_item`` probes over identical databases whose pools hold every page
(so the page objects *are* the state), and after every operation every
node image must be byte-equal — and, over a tightly-coupled driver, every
page's update log must be the oracle's runs in the oracle's order, which
is what IPL's flash traffic is computed from.
"""

import random
import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import List, Optional

import pytest

from repro.core.pdl import PdlDriver
from repro.flash.chip import FlashChip
from repro.flash.spec import TINY_SPEC, spec_for_database
from repro.ftl.ipl import IplDriver
from repro.storage.btree import BTree
from repro.storage.db import Database

_HEADER = struct.Struct("<HBBHHI")
HEADER_SIZE = _HEADER.size
MAGIC = 0xB7EE


@dataclass
class _Node:
    pid: int
    is_leaf: bool
    keys: List[int] = field(default_factory=list)
    values: List[int] = field(default_factory=list)  # leaf only
    children: List[int] = field(default_factory=list)  # branch only
    next_leaf: Optional[int] = None  # leaf only


class _OracleBTree:
    """The decode-edit-re-encode B+tree, verbatim (minus docstrings and
    the validation helpers)."""

    def __init__(self, db):
        self.db = db
        page_size = db.page_size
        self.leaf_capacity = (page_size - HEADER_SIZE) // 16
        self.branch_capacity = (page_size - HEADER_SIZE - 4) // 12
        root = self.db.allocate_page()
        self._write_node(_Node(pid=root.pid, is_leaf=True))
        self.root_pid = root.pid
        self.key_count = 0
        self.height = 1

    def get(self, key):
        node = self._read_node(self._descend_to_leaf(key))
        idx = bisect_left(node.keys, key)
        if idx < len(node.keys) and node.keys[idx] == key:
            return node.values[idx]
        return None

    def insert(self, key, value):
        split = self._insert(self.root_pid, key, value)
        if split is not None:
            sep_key, right_pid = split
            new_root_page = self.db.allocate_page()
            new_root = _Node(
                pid=new_root_page.pid,
                is_leaf=False,
                keys=[sep_key],
                children=[self.root_pid, right_pid],
            )
            self._write_node(new_root)
            self.root_pid = new_root_page.pid
            self.height += 1

    def delete(self, key):
        node = self._read_node(self._descend_to_leaf(key))
        idx = bisect_left(node.keys, key)
        if idx >= len(node.keys) or node.keys[idx] != key:
            return False
        node.keys.pop(idx)
        node.values.pop(idx)
        self._write_node(node)
        self.key_count -= 1
        return True

    def items(self, lo=None, hi=None):
        start = lo if lo is not None else 0
        pid = self._descend_to_leaf(start)
        while pid is not None:
            node = self._read_node(pid)
            begin = bisect_left(node.keys, start) if lo is not None else 0
            for idx in range(begin, len(node.keys)):
                key = node.keys[idx]
                if hi is not None and key >= hi:
                    return
                yield key, node.values[idx]
            lo = None  # only trim inside the first leaf
            pid = node.next_leaf

    def min_item(self, lo=None, hi=None):
        for item in self.items(lo, hi):
            return item
        return None

    def _insert(self, pid, key, value):
        node = self._read_node(pid)
        if node.is_leaf:
            return self._insert_into_leaf(node, key, value)
        idx = bisect_right(node.keys, key)
        split = self._insert(node.children[idx], key, value)
        if split is None:
            return None
        sep_key, right_pid = split
        node.keys.insert(idx, sep_key)
        node.children.insert(idx + 1, right_pid)
        if len(node.keys) <= self.branch_capacity:
            self._write_node(node)
            return None
        return self._split_branch(node)

    def _insert_into_leaf(self, node, key, value):
        idx = bisect_left(node.keys, key)
        if idx < len(node.keys) and node.keys[idx] == key:
            node.values[idx] = value  # upsert
            self._write_node(node)
            return None
        node.keys.insert(idx, key)
        node.values.insert(idx, value)
        self.key_count += 1
        if len(node.keys) <= self.leaf_capacity:
            self._write_node(node)
            return None
        return self._split_leaf(node)

    def _split_leaf(self, node):
        mid = len(node.keys) // 2
        right_page = self.db.allocate_page()
        right = _Node(
            pid=right_page.pid,
            is_leaf=True,
            keys=node.keys[mid:],
            values=node.values[mid:],
            next_leaf=node.next_leaf,
        )
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        node.next_leaf = right.pid
        self._write_node(right)
        self._write_node(node)
        return right.keys[0], right.pid

    def _split_branch(self, node):
        mid = len(node.keys) // 2
        sep_key = node.keys[mid]
        right_page = self.db.allocate_page()
        right = _Node(
            pid=right_page.pid,
            is_leaf=False,
            keys=node.keys[mid + 1 :],
            children=node.children[mid + 1 :],
        )
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        self._write_node(right)
        self._write_node(node)
        return sep_key, right.pid

    def _descend_to_leaf(self, key):
        pid = self.root_pid
        while True:
            node = self._read_node(pid)
            if node.is_leaf:
                return pid
            pid = node.children[bisect_right(node.keys, key)]

    def _read_node(self, pid):
        page = self.db.page(pid)
        magic, is_leaf, _r1, n_keys, _r2, next_raw = _HEADER.unpack_from(
            page.read(0, HEADER_SIZE), 0
        )
        assert magic == MAGIC
        pos = HEADER_SIZE
        keys = list(struct.unpack_from(f"<{n_keys}Q", page.read(pos, n_keys * 8), 0))
        pos += n_keys * 8
        if is_leaf:
            values = list(
                struct.unpack_from(f"<{n_keys}Q", page.read(pos, n_keys * 8), 0)
            )
            return _Node(
                pid=pid,
                is_leaf=True,
                keys=keys,
                values=values,
                next_leaf=(next_raw - 1) if next_raw else None,
            )
        n_children = n_keys + 1
        children = list(
            struct.unpack_from(f"<{n_children}I", page.read(pos, n_children * 4), 0)
        )
        return _Node(pid=pid, is_leaf=False, keys=keys, children=children)

    def _write_node(self, node):
        n_keys = len(node.keys)
        parts = [
            _HEADER.pack(
                MAGIC,
                1 if node.is_leaf else 0,
                0,
                n_keys,
                0,
                (node.next_leaf + 1) if node.next_leaf is not None else 0,
            ),
            struct.pack(f"<{n_keys}Q", *node.keys),
        ]
        if node.is_leaf:
            parts.append(struct.pack(f"<{n_keys}Q", *node.values))
        else:
            parts.append(struct.pack(f"<{len(node.children)}I", *node.children))
        self.db.page(node.pid).write_delta(0, b"".join(parts))


def _database(page_size, logged):
    """A database whose pool never evicts, over a driver of either coupling."""
    spec = TINY_SPEC if page_size == 256 else spec_for_database(64, 0.25)
    assert spec.page_data_size == page_size
    chip = FlashChip(spec)
    if logged:
        driver = IplDriver(chip, log_region_bytes=2 * page_size)
    else:
        driver = PdlDriver(chip, max_differential_size=64)
    assert driver.tightly_coupled == logged
    return Database(driver, buffer_capacity=1 << 16)


class _Pair:
    """The tree under test and its oracle, compared page by page."""

    def __init__(self, page_size, logged):
        self.dbs = _database(page_size, logged), _database(page_size, logged)
        self.tree = BTree(self.dbs[0])
        self.oracle = _OracleBTree(self.dbs[1])
        self.logged = logged
        self._stamps = {}
        self.check()

    def check(self):
        new_db, old_db = self.dbs
        assert new_db.allocated_pages == old_db.allocated_pages
        assert (self.tree.root_pid, self.tree.height, len(self.tree)) == (
            self.oracle.root_pid, self.oracle.height, self.oracle.key_count
        )
        for new, old in zip(new_db.pool.pages(), old_db.pool.pages()):
            assert new.pid == old.pid
            stamp = (new.version, old.version)
            if self._stamps.get(new.pid) == stamp:
                continue  # neither side wrote it since the last look
            self._stamps[new.pid] = stamp
            assert new.data == old.data, f"node {new.pid} differs"
            assert new.logged == old.logged == self.logged
            assert new.change_log == old.change_log, f"log of node {new.pid} differs"
            assert bool(new.change_log) == self.logged

    def both(self, op, *args):
        result = getattr(self.tree, op)(*args)
        assert result == getattr(self.oracle, op)(*args), (op, args)
        self.check()
        return result


@pytest.mark.parametrize("logged", [False, True], ids=["loose", "tight"])
@pytest.mark.parametrize("page_size", [256, 2048])
def test_every_node_image_and_log_matches_the_decoding_tree(page_size, logged):
    rng = random.Random(20260930 + page_size)
    pair = _Pair(page_size, logged)
    tree = pair.tree
    live = []

    def scan(lo, hi):
        got = list(tree.items(lo, hi))
        assert got == list(pair.oracle.items(lo, hi)), (lo, hi)
        return got

    # Ascending load: the cheapest way through leaf splits to a branch
    # split.  (Full-width values: the appended value array then differs
    # in one long run, not one short run per small integer.)
    stride = 1 << 20
    n_bulk = (tree.branch_capacity + 2) * (tree.leaf_capacity // 2 + 1)
    for i in range(n_bulk):
        pair.both("insert", (i + 1) * stride, rng.getrandbits(64))
        live.append((i + 1) * stride)
    assert tree.height >= 3, "the load never split a branch"
    tree.check_invariants()

    for _ in range(1500 if page_size == 256 else 600):
        roll = rng.random()
        if roll < 0.35:  # a new key, anywhere (splits leaves mid-tree)
            key = rng.randrange(stride, (n_bulk + 2) * stride)
            if pair.both("get", key) is None:
                live.append(key)
            pair.both("insert", key, rng.getrandbits(64))
        elif roll < 0.50:  # upsert
            pair.both("insert", rng.choice(live), rng.getrandbits(64))
        elif roll < 0.72 and len(live) > 8:
            pair.both("delete", live.pop(rng.randrange(len(live))))
        elif roll < 0.76:
            assert pair.both("delete", rng.randrange(stride)) is False
        elif roll < 0.90:
            lo = rng.randrange((n_bulk + 2) * stride)
            hi = lo + rng.randrange(1, 3 * tree.leaf_capacity) * stride
            scan(*rng.choice([(lo, hi), (lo, None), (None, lo), (hi, lo)]))
        else:
            lo = rng.randrange((n_bulk + 2) * stride)
            pair.both("min_item", lo, lo + rng.randrange(1, 64) * stride)
    tree.check_invariants()
    assert [key for key, _value in scan(None, None)] == sorted(live)


def test_descending_and_emptied_leaves():
    """Inserts at slot 0 of every level, then leaves drained to nothing
    (deletion never rebalances) and scanned across."""
    pair = _Pair(256, logged=True)
    n = (pair.tree.branch_capacity + 2) * pair.tree.leaf_capacity
    for key in range(n, 0, -1):
        pair.both("insert", key, key * 7)
    assert pair.tree.height >= 3
    for key in range(pair.tree.leaf_capacity // 2, n - 2):
        assert pair.both("delete", key)
    assert list(pair.tree.items()) == list(pair.oracle.items())
    assert pair.both("min_item", pair.tree.leaf_capacity, None) == (n - 2, (n - 2) * 7)
    pair.tree.check_invariants()
