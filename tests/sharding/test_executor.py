"""Unit tests for the shard gates and worker pool (ShardExecutor)."""

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


def _worker_ident(pool, index):
    return pool.submit(index, threading.get_ident).result()


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
        assert {ident for _, ident in seen} == {_worker_ident(pool, 0)}

    def test_workers_are_distinct_threads(self, pool):
        idents = {_worker_ident(pool, i) for i in range(4)}
        assert len(idents) == 4
        assert threading.get_ident() not in idents

    def test_workers_run_concurrently(self, pool):
        """Two blocking tasks on different workers overlap in time."""
        barrier = threading.Barrier(2, timeout=5.0)
        futures = [pool.submit(i, barrier.wait) for i in range(2)]
        gather(futures)  # would raise BrokenBarrierError if serialized

    def test_run_executes_inline_on_own_worker(self, pool):
        """A task running on worker 0 already holds gate 0, so it may
        re-enter run() for shard 0 without deadlocking on it."""

        def outer():
            return pool.run(0, lambda: threading.get_ident())

        assert pool.submit(0, outer).result() == _worker_ident(pool, 0)


class TestGate:
    def test_run_executes_on_the_calling_thread_holding_the_gate(self, pool):
        assert not pool.holds(0)
        ident, held, other = pool.run(
            0, lambda: (threading.get_ident(), pool.holds(0), pool.holds(1))
        )
        assert (ident, held, other) == (threading.get_ident(), True, False)
        assert not pool.holds(0)

    def test_worker_tasks_hold_their_gate(self, pool):
        assert pool.map([(i, lambda i=i: pool.holds(i)) for i in range(4)]) == [True] * 4

    def test_gate_released_when_the_call_raises(self, pool):
        with pytest.raises(ZeroDivisionError):
            pool.run(0, lambda: 1 / 0)
        assert pool.run(0, lambda: "free") == "free"

    def test_a_held_gate_excludes_callers_and_the_worker(self, pool):
        inside, release = threading.Event(), threading.Event()

        def hold():
            inside.set()
            assert release.wait(timeout=5)

        holder = threading.Thread(target=pool.run, args=(0, hold))
        holder.start()
        assert inside.wait(timeout=5)
        queued = pool.submit(0, lambda: "worker")
        assert pool.run(1, lambda: "other shard") == "other shard"
        assert not queued.done()
        release.set()
        holder.join(timeout=5)
        assert queued.result(timeout=5) == "worker"

    def test_run_reenters_from_a_client_holding_the_gate(self, pool):
        assert pool.run(0, lambda: pool.run(0, lambda: pool.holds(0)))

    def test_map_of_one_task_runs_on_the_caller(self, pool):
        assert pool.map([(2, lambda: (threading.get_ident(), pool.holds(2)))]) == [
            (threading.get_ident(), True)
        ]

    def test_fan_out_while_holding_a_target_gate_rejected(self, pool):
        """It would wait on a worker that is waiting on the caller."""
        with pytest.raises(ConcurrencyError, match="deadlock"):
            pool.run(1, lambda: pool.map([(0, int), (1, int)]))

    def test_run_after_shutdown_rejected(self):
        executor = ShardExecutor(1)
        executor.shutdown()
        with pytest.raises(ConcurrencyError, match="shut down"):
            executor.run(0, lambda: None)

    def test_run_checks_its_index_like_submit(self, pool):
        for index in (-1, 4):
            with pytest.raises(ValueError, match="outside pool"):
                pool.run(index, lambda: None)
            with pytest.raises(ValueError, match="outside pool"):
                pool.submit(index, lambda: None)

    def test_a_client_waiting_on_a_gate_never_runs_behind_shutdowns_last_task(self):
        """close() racing a client: the chip is closed by the worker's
        last task, and a caller that was queued on the gate meanwhile
        is refused under it rather than let through afterwards."""
        executor = ShardExecutor(1)
        inside, release = threading.Event(), threading.Event()
        order, refused = [], []

        def hold():
            inside.set()
            assert release.wait(timeout=5)

        def client():
            try:
                executor.run(0, order.append, "client")
            except ConcurrencyError as exc:
                refused.append(exc)

        def refuses_new_work():
            try:
                executor.submit(0, int)
            except ConcurrencyError:
                return True
            return False

        executor.submit(0, hold)
        assert inside.wait(timeout=5)  # the worker holds gate 0
        waiting = threading.Thread(target=client)
        waiting.start()
        time.sleep(0.05)  # long enough to reach the gate; right either way
        closing = threading.Thread(
            target=executor.shutdown, kwargs={"last": [(0, lambda: order.append("close"))]}
        )
        closing.start()
        deadline = time.monotonic() + 5
        while not refuses_new_work():
            assert time.monotonic() < deadline
            time.sleep(0.001)
        release.set()
        waiting.join(timeout=5)
        closing.join(timeout=5)
        assert order == ["close"]
        assert len(refused) == 1

    def test_shutdown_joins_its_last_tasks_and_raises_their_first_failure(self):
        executor = ShardExecutor(2)
        closed = []
        with pytest.raises(ZeroDivisionError):
            executor.shutdown(last=[(0, lambda: 1 / 0), (1, lambda: closed.append(1))])
        assert closed == [1]
        executor.shutdown(last=[(0, lambda: closed.append("again"))])  # a no-op now
        assert closed == [1]


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
            _worker_ident(pool, i) for i in range(4)
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
