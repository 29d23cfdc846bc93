"""A paged B+tree index with u64 keys and values.

Every node is one logical page accessed through the buffer pool, so index
traffic participates in the paper's I/O measurements exactly like heap
traffic.  Nodes are read and edited in wire form.  A node is decoded —
header, key array and, for a branch, child array — straight from the
page image at most once per :attr:`Page.version`: the decode is kept as
the frame's :attr:`Page.memo`, stamped with the version read before
decoding, and a visit reuses it while the stamp matches, so a descent
through unchanged nodes is a fetch, a compare, a ``bisect`` and a tuple
index per level.  Every write bumps the version, so no write path
touches the memo.  An insert or delete splices the node's bytes and hands
the new image to one :meth:`Page.write_delta`, which over a
tightly-coupled driver logs its changed runs lowest offset first (IPL's
flash traffic depends on that order) and over the others is a compare
and an assignment.  See ``docs/architecture.md``, "Storage layer".

Node layout (little-endian)::

    header : u16 magic 0xB7EE | u8 is_leaf | u8 reserved | u16 n_keys
             | u16 reserved2 | u32 next_leaf (pid + 1, 0 = none)
    leaf   : n_keys × u64 key | n_keys × u64 value
    branch : n_keys × u64 key | (n_keys + 1) × u32 child pid

Semantics: upsert on duplicate key; deletion removes the key from its
leaf without rebalancing (underflowed leaves are served normally and
reclaimed only on page reuse), which matches the workloads here — TPC-C
deletes only NEW-ORDER entries, never enough to matter structurally.
Bytes past a node's last entry are stale, not zeroed.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from functools import lru_cache
from typing import Iterator, List, Optional, Tuple

from .db import Database
from .page import Page

_HEADER = struct.Struct("<HBBHHI")
_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")
_ROOT_BODY = struct.Struct("<QII")  # one key between two children
HEADER_SIZE = _HEADER.size  # 12
MAGIC = 0xB7EE
KEY_SIZE = 8
VALUE_SIZE = 8
CHILD_SIZE = 4


#: A node's decode, kept as its frame's memo: (the page version it was
#: decoded at, is_leaf, n_keys, next_leaf + 1, keys, child pids — empty
#: for a leaf, whose values are read from the page when asked for).
#: Ints and tuples only: no reference back to the page.
_Memo = Tuple[int, int, int, int, Tuple[int, ...], Tuple[int, ...]]


class BTreeError(RuntimeError):
    """Raised on malformed nodes or capacity misconfiguration."""


@lru_cache(maxsize=None)
def _array(n: int, code: str) -> struct.Struct:
    """Layout of ``n`` keys/values (``"Q"``) or child pids (``"I"``)."""
    return struct.Struct(f"<{n}{code}")


def _decode(page: Page) -> _Memo:
    """Decode the node in ``page`` and keep the decode as its memo."""
    version = page.version  # before the decode: a racing write makes it stale
    view = page.view
    magic, is_leaf, _r1, n, _r2, next_raw = _HEADER.unpack_from(view)
    if magic != MAGIC:
        raise BTreeError(
            f"page {page.pid} is not a B+tree node (magic 0x{magic:04X})"
        )
    keys = _array(n, "Q").unpack_from(view, HEADER_SIZE)
    children = (
        () if is_leaf else _array(n + 1, "I").unpack_from(view, HEADER_SIZE + n * KEY_SIZE)
    )
    memo = page.memo = (version, is_leaf, n, next_raw, keys, children)
    return memo


def _header(is_leaf: int, n_keys: int, next_raw: int = 0) -> bytes:
    return _HEADER.pack(MAGIC, is_leaf, 0, n_keys, 0, next_raw)


def _with_entry(
    body: bytes, n_keys: int, idx: int, key: int, slot_at: int, slot: bytes
) -> bytes:
    """``body`` with ``key`` inserted as key ``idx`` and ``slot`` at byte
    ``slot_at`` of the value/child array behind the keys."""
    at, cut = idx * KEY_SIZE, n_keys * KEY_SIZE + slot_at
    return b"".join((body[:at], _U64.pack(key), body[at:cut], slot, body[cut:]))


class BTree:
    """A B+tree whose nodes live in database pages."""

    def __init__(self, db: Database, name: str = "index"):
        self.db = db
        self.name = name
        page_size = db.page_size
        self.leaf_capacity = (page_size - HEADER_SIZE) // (KEY_SIZE + VALUE_SIZE)
        self.branch_capacity = (page_size - HEADER_SIZE - CHILD_SIZE) // (
            KEY_SIZE + CHILD_SIZE
        )
        if self.leaf_capacity < 3 or self.branch_capacity < 3:
            raise BTreeError(
                f"page size {page_size} too small for a B+tree node"
            )
        root = self.db.allocate_page()
        root.write_delta(0, _header(1, 0))
        self.root_pid = root.pid
        self.key_count = 0
        self.height = 1

    # ------------------------------------------------------------------
    # Public operations
    # ------------------------------------------------------------------
    def get(self, key: int) -> Optional[int]:
        """Value stored under ``key``, or None."""
        page, (_, _leaf, n, _next, keys, _none) = self._find_leaf(key)
        idx = bisect_left(keys, key)
        if idx < n and keys[idx] == key:
            return _U64.unpack_from(page.view, HEADER_SIZE + (n + idx) * KEY_SIZE)[0]
        return None

    def insert(self, key: int, value: int) -> None:
        """Insert or overwrite (upsert) a key/value pair."""
        _check_u64(key, "key")
        _check_u64(value, "value")
        split = self._insert(self.root_pid, key, value)
        if split is not None:
            sep_key, right_pid = split
            root = self.db.allocate_page()
            root.write_delta(
                0, _header(0, 1) + _ROOT_BODY.pack(sep_key, self.root_pid, right_pid)
            )
            self.root_pid = root.pid
            self.height += 1

    def delete(self, key: int) -> bool:
        """Remove a key; returns True when it existed."""
        page, (_, _leaf, n, next_raw, keys, _none) = self._find_leaf(key)
        idx = bisect_left(keys, key)
        if idx >= n or keys[idx] != key:
            return False
        body = page.read(HEADER_SIZE, n * (KEY_SIZE + VALUE_SIZE))
        key_at, value_at = idx * KEY_SIZE, (n + idx) * KEY_SIZE
        page.write_delta(
            0,
            _header(1, n - 1, next_raw)
            + body[:key_at]
            + body[key_at + KEY_SIZE : value_at]
            + body[value_at + VALUE_SIZE :],
        )
        self.key_count -= 1
        return True

    def items(
        self, lo: Optional[int] = None, hi: Optional[int] = None
    ) -> Iterator[Tuple[int, int]]:
        """Yield ``(key, value)`` pairs with lo <= key < hi, in order."""
        page, (_, is_leaf, n, next_raw, keys, _none) = self._find_leaf(lo or 0)
        begin = bisect_left(keys, lo) if lo is not None else 0
        while True:
            # Both arrays are copied out before the first yield: the
            # consumer may fetch pages in between and evict this leaf.
            values = _array(n, "Q").unpack_from(page.view, HEADER_SIZE + n * KEY_SIZE)
            end = bisect_left(keys, hi) if hi is not None else n
            yield from zip(keys[begin:end], values[begin:end])
            if end < n or not next_raw:
                return
            page, (_, is_leaf, n, next_raw, keys, _none) = self._node(next_raw - 1)
            if not is_leaf:
                raise BTreeError(f"leaf chain reaches branch node {page.pid}")
            begin = 0  # only trim inside the first leaf

    def min_item(
        self, lo: Optional[int] = None, hi: Optional[int] = None
    ) -> Optional[Tuple[int, int]]:
        """Smallest entry in [lo, hi), or None."""
        return next(self.items(lo, hi), None)

    def __len__(self) -> int:
        return self.key_count

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    # ------------------------------------------------------------------
    # Insertion internals
    # ------------------------------------------------------------------
    def _insert(self, pid: int, key: int, value: int) -> Optional[Tuple[int, int]]:
        """Recursive insert; returns (separator, new right pid) on split."""
        page, (_, is_leaf, n, next_raw, keys, children) = self._node(pid)
        if is_leaf:
            idx = bisect_left(keys, key)
            if idx < n and keys[idx] == key:  # upsert
                page.write_delta(
                    HEADER_SIZE + (n + idx) * KEY_SIZE, _U64.pack(value)
                )
                return None
            self.key_count += 1
            body = page.read(HEADER_SIZE, n * (KEY_SIZE + VALUE_SIZE))
            body = _with_entry(body, n, idx, key, idx * VALUE_SIZE, _U64.pack(value))
            if n < self.leaf_capacity:
                page.write_delta(0, _header(1, n + 1, next_raw) + body)
                return None
            return self._split(pid, 1, n + 1, next_raw, body)
        idx = bisect_right(keys, key)
        split = self._insert(children[idx], key, value)
        if split is None:
            return None
        sep_key, right_pid = split
        # Re-encoded from the decode, not read from the page: by now the
        # page may have been evicted, and a branch split must not
        # re-fetch it before allocating its sibling.
        body = _array(n, "Q").pack(*keys) + _array(n + 1, "I").pack(*children)
        body = _with_entry(
            body, n, idx, sep_key, (idx + 1) * CHILD_SIZE, _U32.pack(right_pid)
        )
        if n < self.branch_capacity:
            self.db.page(pid).write_delta(0, _header(0, n + 1) + body)
            return None
        return self._split(pid, 0, n + 1, 0, body)

    def _split(
        self, pid: int, is_leaf: int, n: int, next_raw: int, body: bytes
    ) -> Tuple[int, int]:
        """Halve the over-full node ``pid`` whose ``n`` entries are
        ``body``; returns (separator, new right pid)."""
        mid = n // 2
        (sep_key,) = _U64.unpack_from(body, mid * KEY_SIZE)
        keys, slots = body[: n * KEY_SIZE], body[n * KEY_SIZE :]
        # A leaf's separator stays as the right half's first key; a
        # branch's moves up, and the child after it leads the right half.
        up, width = (0, VALUE_SIZE) if is_leaf else (1, CHILD_SIZE)
        right = self.db.allocate_page()
        right.write_delta(
            0,
            _header(is_leaf, n - mid - up, next_raw)
            + keys[(mid + up) * KEY_SIZE :]
            + slots[(mid + up) * width :],
        )
        left = (
            _header(is_leaf, mid, right.pid + 1 if is_leaf else 0)
            + keys[: mid * KEY_SIZE]
            + slots[: (mid + up) * width]
        )
        # Re-fetched: admitting the sibling may have evicted the node.
        self.db.page(pid).write_delta(0, left)
        return sep_key, right.pid

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def _node(self, pid: int) -> Tuple[Page, _Memo]:
        """Fetch node ``pid`` with its decode: the frame's memo while the
        stamp matches, else a fresh one."""
        page = self.db.page(pid)
        memo = page.memo
        if memo is None or memo[0] != page.version:
            memo = _decode(page)
        return page, memo

    def _find_leaf(self, key: int) -> Tuple[Page, _Memo]:
        """Descend to the leaf covering ``key`` (``_node`` inlined)."""
        fetch = self.db.page
        pid = self.root_pid
        while True:
            page = fetch(pid)
            memo = page.memo
            if memo is None or memo[0] != page.version:
                memo = _decode(page)
            _, is_leaf, _n, _next, keys, children = memo
            if is_leaf:
                return page, memo
            pid = children[bisect_right(keys, key)]

    # ------------------------------------------------------------------
    # Validation (used by tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert ordering, fanout and leaf-chain invariants."""
        leaves: List[int] = []
        self._check_node(self.root_pid, None, None, leaves, is_root=True)
        chained = []
        next_raw = leaves[0] + 1
        while next_raw:
            chained.append(next_raw - 1)
            _page, (_, _leaf, _n, next_raw, _keys, _none) = self._node(next_raw - 1)
        if leaves != chained:
            raise BTreeError("leaf chain does not match tree order")

    def _check_node(
        self,
        pid: int,
        lo: Optional[int],
        hi: Optional[int],
        leaves: List[int],
        is_root: bool = False,
    ) -> None:
        _page, (_, is_leaf, n, _next, keys, children) = self._node(pid)
        if list(keys) != sorted(keys):
            raise BTreeError(f"node {pid} keys unsorted")
        for key in keys:
            if (lo is not None and key < lo) or (hi is not None and key >= hi):
                raise BTreeError(f"node {pid} key {key} outside ({lo}, {hi})")
        if is_leaf:
            if n > self.leaf_capacity:
                raise BTreeError(f"leaf {pid} overflows")
            leaves.append(pid)
            return
        if n > self.branch_capacity:
            raise BTreeError(f"branch {pid} overflows")
        if not is_root and n < 1:
            raise BTreeError(f"branch {pid} is empty")
        bounds = [lo, *keys, hi]
        for child, clo, chi in zip(children, bounds, bounds[1:]):
            self._check_node(child, clo, chi, leaves)


def _check_u64(value: int, what: str) -> None:
    if not 0 <= value < (1 << 64):
        raise ValueError(f"{what} {value} outside u64 range")
