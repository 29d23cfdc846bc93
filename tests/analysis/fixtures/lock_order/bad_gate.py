"""Fixture: the pool lock taken under a shard gate (1 cycle finding).

The pool calls the driver under its own lock, so pool ``_lock`` → gate
is the documented order; a shard gate is a leaf, and anything that
reaches back into the pool while holding one closes the cycle.
"""
import threading


class Executor:
    def __init__(self, n_shards):
        self._gates = [threading.Lock() for _ in range(n_shards)]

    def run_gated(self, index, fn):
        with self._gates[index]:
            return fn()

    def evict_gated(self, index, pool):
        with self._gates[index]:
            return pool.drop_frame(index)  # takes Pool._lock under the gate


class Pool:
    def __init__(self, executor):
        self._lock = threading.RLock()
        self.executor = executor

    def fetch(self, pid):
        with self._lock:
            return self.executor.run_gated(pid % 2, lambda: pid)

    def drop_frame(self, pid):
        with self._lock:
            return pid
