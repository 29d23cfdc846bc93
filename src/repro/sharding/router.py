"""Shard routing: the array's one partition of the logical page-id space.

:class:`HashRouter` maps every logical page id to exactly one shard,
``splitmix64(pid) % n_shards`` — a *total, stable partition* of the pid
space.  Totality (every non-negative pid routes somewhere) and stability
(the answer never changes between calls or process restarts) are what
make sharded recovery sound: after a crash each shard's chip is scanned
independently, and the rebuilt mapping tables are only reachable again
because the hash still sends each pid to the shard that owns its pages.

The mixer spreads any workload (sequential, clustered, skewed, strided)
near-uniformly, which balances GC pressure across shards; its answers
for low pids are kept in a table, so routing a page is one lookup.
"""

from __future__ import annotations

from array import array

import numpy as np

_MASK64 = (1 << 64) - 1

#: :class:`HashRouter` answers pids below this from a table (one byte a
#: pid for up to 256 shards), built on demand by doubling; a larger pid
#: is mixed on every call.
_TABLE_LIMIT = 1 << 22


def _hash_shards(pids: np.ndarray, n_shards: int) -> np.ndarray:
    """``splitmix64(pid) % n_shards`` over a ``uint64`` array: the
    splitmix64 finalizer, a cheap, high-quality 64-bit mixer, whose
    ``mod 2**64`` is numpy's wrapping arithmetic."""
    x = pids + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return (x ^ (x >> np.uint64(31))) % np.uint64(n_shards)


class HashRouter:
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
        if n_shards < 1:
            raise ValueError(f"n_shards must be at least 1, got {n_shards}")
        self.n_shards = n_shards
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
            raise ValueError(f"logical page id {pid} must be non-negative")
        if pid >= _TABLE_LIMIT:
            pids = np.array([pid & _MASK64], dtype=np.uint64)
            return int(_hash_shards(pids, self.n_shards)[0])
        size = min(max(2 * len(self._table), pid + 1), _TABLE_LIMIT)
        table = array(self._table.typecode)
        shards = _hash_shards(np.arange(size, dtype=np.uint64), self.n_shards)
        table.frombytes(shards.astype(f"u{table.itemsize}").tobytes())
        self._table = table  # one store: a racing reader sees either table
        return table[pid]
