"""Shard routing: partitioning the logical page-id space.

A :class:`ShardRouter` maps every logical page id to exactly one shard —
a *total, stable partition* of the pid space.  Totality (every
non-negative pid routes somewhere) and stability (the answer never
changes between calls or process restarts) are what make sharded
recovery sound: after a crash each shard's chip is scanned
independently, and the rebuilt mapping tables are only reachable again
because the router still sends each pid to the shard that owns its
pages.

Two concrete routers cover the standard choices:

* :class:`HashRouter` — a splitmix64-style mix of the pid modulo the
  shard count.  Spreads any workload (sequential, clustered, skewed)
  near-uniformly; the right default for update-heavy traffic because it
  balances GC pressure across shards.  Its answers for low pids are
  kept in a table, so routing a page is one lookup.
* :class:`RangeRouter` — contiguous pid ranges of a fixed width, with
  the tail clamped onto the last shard so the partition stays total.
  Preserves locality (a sequential scan touches one shard at a time),
  which matters when shards are backed by devices with different wear
  budgets or when range-partitioned workloads should not fan out.

Routers deliberately hold no reference to drivers or chips: they are
pure functions plus a shard count, so the same router instance can be
used to build a :class:`~repro.sharding.driver.ShardedDriver`, to replay
a trace, and to re-attach after :func:`~repro.sharding.recovery.recover_all`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from array import array

import numpy as np

_MASK64 = (1 << 64) - 1

#: :class:`HashRouter` answers pids below this from a table (one byte a
#: pid for up to 256 shards), built on demand by doubling; a larger pid
#: is mixed on every call.
_TABLE_LIMIT = 1 << 22


def _negative_pid(pid: int) -> ValueError:
    return ValueError(f"logical page id {pid} must be non-negative")


def _hash_shards(pids: np.ndarray, n_shards: int) -> np.ndarray:
    """``splitmix64(pid) % n_shards`` over a ``uint64`` array: the
    splitmix64 finalizer, a cheap, high-quality 64-bit mixer, whose
    ``mod 2**64`` is numpy's wrapping arithmetic."""
    x = pids + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return (x ^ (x >> np.uint64(31))) % np.uint64(n_shards)


class ShardRouter(ABC):
    """Maps logical page ids to shard indices in ``[0, n_shards)``."""

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise ValueError(f"n_shards must be at least 1, got {n_shards}")
        self.n_shards = n_shards

    @abstractmethod
    def shard_of(self, pid: int) -> int:
        """The shard owning logical page ``pid`` (total and stable)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} n_shards={self.n_shards}>"


class HashRouter(ShardRouter):
    """Hash partitioning: ``splitmix64(pid) % n_shards``.

    The mixer decorrelates the shard index from low pid bits, so
    striding workloads (every 4th page, B+tree fan-out patterns) still
    balance.  With one shard it degenerates to the identity routing.

    Routing is on every page operation's path, so :meth:`shard_of` is
    one frame and one table lookup for every pid the table covers.  The
    mix, a few 128-bit multiplications as Python ints, runs in numpy
    instead, over the whole table each time it grows.
    """

    def __init__(self, n_shards: int):
        super().__init__(n_shards)
        #: ``shard_of(pid)`` for every ``pid < len(_table)``.
        self._table = array("B" if n_shards <= 256 else "I")

    def shard_of(self, pid: int) -> int:
        table = self._table
        if 0 <= pid < len(table):
            return table[pid]
        return self._route(pid)

    def _route(self, pid: int) -> int:
        """Route a pid the table does not cover: grow the table over
        it, or mix it alone past ``_TABLE_LIMIT``."""
        if pid < 0:
            raise _negative_pid(pid)
        if pid >= _TABLE_LIMIT:
            pids = np.array([pid & _MASK64], dtype=np.uint64)
            return int(_hash_shards(pids, self.n_shards)[0])
        size = min(max(2 * len(self._table), pid + 1), _TABLE_LIMIT)
        table = array(self._table.typecode)
        shards = _hash_shards(np.arange(size, dtype=np.uint64), self.n_shards)
        table.frombytes(shards.astype(f"u{table.itemsize}").tobytes())
        self._table = table  # one store: a racing reader sees either table
        return table[pid]


class RangeRouter(ShardRouter):
    """Range partitioning: shard ``i`` owns pids ``[i*w, (i+1)*w)``.

    ``pages_per_shard`` is the range width ``w``; pids at or beyond the
    last boundary are clamped onto the final shard, keeping the
    partition total over all non-negative pids.
    """

    def __init__(self, n_shards: int, pages_per_shard: int):
        super().__init__(n_shards)
        if pages_per_shard < 1:
            raise ValueError(
                f"pages_per_shard must be at least 1, got {pages_per_shard}"
            )
        self.pages_per_shard = pages_per_shard

    @classmethod
    def for_database(cls, n_shards: int, database_pages: int) -> "RangeRouter":
        """A router splitting ``database_pages`` ids into equal ranges."""
        if database_pages < 1:
            raise ValueError("database_pages must be positive")
        width = -(-database_pages // n_shards)  # ceil division
        return cls(n_shards, width)

    def shard_of(self, pid: int) -> int:
        if pid < 0:
            raise _negative_pid(pid)
        return min(pid // self.pages_per_shard, self.n_shards - 1)


def make_router(kind: str, n_shards: int, **kwargs) -> ShardRouter:
    """Build a router by name (``"hash"`` or ``"range"``).

    ``range`` requires either ``pages_per_shard`` or ``database_pages``
    (equal split) as a keyword argument.
    """
    plain = kind.strip().lower()
    if plain == "hash":
        if kwargs:
            raise ValueError(f"hash router takes no extra options, got {kwargs}")
        return HashRouter(n_shards)
    if plain == "range":
        if "pages_per_shard" in kwargs:
            return RangeRouter(n_shards, kwargs.pop("pages_per_shard"))
        if "database_pages" in kwargs:
            return RangeRouter.for_database(n_shards, kwargs.pop("database_pages"))
        raise ValueError("range router needs pages_per_shard or database_pages")
    raise ValueError(f"unknown router kind {kind!r}; expected 'hash' or 'range'")
