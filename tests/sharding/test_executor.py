"""Unit tests for the shard worker pool (ShardExecutor)."""

import threading
import time

import pytest

from repro.ftl.errors import ConcurrencyError
from repro.sharding.executor import ShardExecutor, gather


@pytest.fixture
def pool():
    executor = ShardExecutor(4)
    yield executor
    executor.shutdown()


class TestSubmission:
    def test_result_round_trip(self, pool):
        assert pool.submit(0, lambda: 41 + 1).result() == 42

    def test_args_and_kwargs_forwarded(self, pool):
        future = pool.submit(1, lambda a, b=0: a + b, 40, b=2)
        assert future.result() == 42

    def test_exception_delivered_via_future(self, pool):
        future = pool.submit(2, lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            future.result()

    def test_invalid_worker_index_rejected(self, pool):
        with pytest.raises(ValueError):
            pool.submit(4, lambda: None)

    def test_needs_at_least_one_worker(self):
        with pytest.raises(ValueError):
            ShardExecutor(0)


class TestSingleWriterInvariant:
    def test_tasks_for_one_worker_run_on_one_thread_in_order(self, pool):
        seen = []

        def task(i):
            seen.append((i, threading.get_ident()))

        futures = [pool.submit(0, task, i) for i in range(50)]
        gather(futures)
        assert [i for i, _ in seen] == list(range(50))  # FIFO per mailbox
        assert {ident for _, ident in seen} == {pool.worker_ident(0)}

    def test_workers_are_distinct_threads(self, pool):
        idents = {pool.worker_ident(i) for i in range(4)}
        assert len(idents) == 4
        assert threading.get_ident() not in idents

    def test_workers_run_concurrently(self, pool):
        """Two blocking tasks on different workers overlap in time."""
        barrier = threading.Barrier(2, timeout=5.0)
        futures = [pool.submit(i, barrier.wait) for i in range(2)]
        gather(futures)  # would raise BrokenBarrierError if serialized

    def test_run_executes_inline_on_own_worker(self, pool):
        """A task running on worker 0 may re-enter run() for worker 0
        without deadlocking on its own mailbox."""

        def outer():
            return pool.run(0, lambda: threading.get_ident())

        assert pool.submit(0, outer).result() == pool.worker_ident(0)


class TestGather:
    def test_gather_preserves_order(self, pool):
        futures = [pool.submit(i % 4, lambda i=i: i * i) for i in range(8)]
        assert gather(futures) == [i * i for i in range(8)]

    def test_gather_raises_first_error_after_joining_all(self, pool):
        done = threading.Event()

        def slow_ok():
            time.sleep(0.05)
            done.set()

        futures = [
            pool.submit(0, lambda: 1 / 0),
            pool.submit(1, slow_ok),
        ]
        with pytest.raises(ZeroDivisionError):
            gather(futures)
        # The failing future must not abandon the in-flight sibling.
        assert done.is_set()


class TestLifecycle:
    def test_map_runs_tasks_on_named_workers(self, pool):
        results = pool.map(
            [(i, lambda i=i: (i, threading.get_ident())) for i in range(4)]
        )
        assert [i for i, _ in results] == [0, 1, 2, 3]
        assert [ident for _, ident in results] == [
            pool.worker_ident(i) for i in range(4)
        ]

    def test_shutdown_drains_queued_tasks(self):
        executor = ShardExecutor(1)
        counter = []
        for i in range(20):
            executor.submit(0, counter.append, i)
        executor.shutdown(wait=True)
        assert counter == list(range(20))

    def test_submit_after_shutdown_rejected(self):
        executor = ShardExecutor(1)
        executor.shutdown()
        with pytest.raises(ConcurrencyError):
            executor.submit(0, lambda: None)

    def test_shutdown_idempotent(self):
        executor = ShardExecutor(2)
        executor.shutdown()
        executor.shutdown()

    def test_context_manager_shuts_down(self):
        with ShardExecutor(1) as executor:
            assert executor.submit(0, lambda: "ok").result() == "ok"
        with pytest.raises(ConcurrencyError):
            executor.submit(0, lambda: None)
