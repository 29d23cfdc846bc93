"""Fixture: consistent order, an alias via Condition, and a family of
per-shard locks that is only ever a leaf (0 findings)."""
import threading


class Pool:
    def __init__(self):
        self.alloc_lock = threading.Lock()
        self.flush_lock = threading.Lock()
        self.flush_cond = threading.Condition(self.flush_lock)

    def allocate(self):
        with self.alloc_lock:
            with self.flush_lock:
                return 1

    def drain(self):
        with self.alloc_lock:
            with self.flush_cond:  # same lock as flush_lock: consistent
                return 2

    def flush_only(self):
        with self.flush_lock:
            return 3


class Daemon:
    def __init__(self, pool):
        self.cond = pool.flush_cond  # alias resolves to Pool.flush_lock

    def wait(self):
        with self.cond:
            return 4


class Executor:
    def __init__(self, n_shards):
        self._gates = [threading.Lock() for _ in range(n_shards)]

    def run_gated(self, index, fn):
        with self._gates[index]:  # a leaf: nothing is taken under it
            return fn()


class Client:
    def __init__(self, pool, executor):
        self.pool = pool
        self.executor = executor

    def fetch(self, pid):
        with self.pool.alloc_lock:
            return self.executor.run_gated(pid % 2, lambda: pid)
