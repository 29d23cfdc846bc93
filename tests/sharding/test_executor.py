"""Unit tests for the shard gates (ShardExecutor)."""

import threading
import time

import pytest

from repro.ftl.errors import ConcurrencyError
from repro.sharding.driver import ShardExecutor


@pytest.fixture
def pool():
    executor = ShardExecutor(4)
    yield executor
    executor.shutdown()


class TestSubmission:
    def test_result_round_trip(self, pool):
        assert pool.run(0, lambda: 41 + 1) == 42

    def test_args_and_kwargs_forwarded(self, pool):
        assert pool.run(1, lambda a, b=0: a + b, 40, b=2) == 42

    def test_invalid_worker_index_rejected(self, pool):
        with pytest.raises(ValueError):
            pool.run(4, lambda: None)

    def test_needs_at_least_one_worker(self):
        with pytest.raises(ValueError):
            ShardExecutor(0)


class TestGate:
    def test_run_executes_on_the_calling_thread_holding_the_gate(self, pool):
        assert not pool.holds(0)
        ident, held, other = pool.run(
            0, lambda: (threading.get_ident(), pool.holds(0), pool.holds(1))
        )
        assert (ident, held, other) == (threading.get_ident(), True, False)
        assert not pool.holds(0)

    def test_worker_tasks_hold_their_gate(self, pool):
        """Every task of a fan-out runs as its shard's owner."""
        assert pool.map([(i, lambda i=i: pool.holds(i)) for i in range(4)]) == [True] * 4

    def test_gate_released_when_the_call_raises(self, pool):
        with pytest.raises(ZeroDivisionError):
            pool.run(0, lambda: 1 / 0)
        assert pool.run(0, lambda: "free") == "free"

    def test_a_held_gate_excludes_callers_and_the_worker(self, pool):
        """A held gate makes another caller of that shard wait — a
        fan-out included — and no caller of any other shard."""
        inside, release = threading.Event(), threading.Event()

        def hold():
            inside.set()
            assert release.wait(timeout=5)

        holder = threading.Thread(target=pool.run, args=(0, hold))
        holder.start()
        assert inside.wait(timeout=5)
        fanned = []
        fan_out = threading.Thread(
            target=lambda: fanned.extend(pool.map([(1, lambda: 1), (0, lambda: 0)]))
        )
        fan_out.start()
        assert pool.run(1, lambda: "other shard") == "other shard"
        fan_out.join(timeout=0.1)
        assert fan_out.is_alive() and not fanned
        release.set()
        holder.join(timeout=5)
        fan_out.join(timeout=5)
        assert fanned == [1, 0]

    def test_run_reenters_from_a_client_holding_the_gate(self, pool):
        assert pool.run(0, lambda: pool.run(0, lambda: pool.holds(0)))

    def test_map_of_one_task_runs_on_the_caller(self, pool):
        assert pool.map([(2, lambda: (threading.get_ident(), pool.holds(2)))]) == [
            (threading.get_ident(), True)
        ]

    def test_fan_out_while_holding_a_target_gate_reenters(self, pool):
        """The fan-out runs on the caller, which already owns shard 1."""
        assert pool.run(1, lambda: pool.map([(0, int), (1, lambda: pool.holds(1))])) == [
            0,
            True,
        ]

    def test_fan_out_runs_every_task_in_order_then_raises_the_first_failure(self, pool):
        ran = []

        def fail(i):
            ran.append(i)
            raise KeyError(i)

        with pytest.raises(KeyError) as info:
            pool.map([(0, lambda: fail(0)), (1, lambda: ran.append(1)), (2, lambda: fail(2))])
        assert info.value.args == (0,)
        assert ran == [0, 1, 2]

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
        """close() racing a client: the chip is closed by the shutdown's
        last task, and a caller that was queued on the gate meanwhile
        is refused under it rather than let through afterwards."""
        executor = ShardExecutor(2)
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
                executor.run(1, int)
            except ConcurrencyError:
                return True
            return False

        holder = threading.Thread(target=executor.run, args=(0, hold))
        holder.start()
        assert inside.wait(timeout=5)  # another thread holds gate 0
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
        for thread in (holder, waiting, closing):
            thread.join(timeout=5)
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


class TestLifecycle:
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
            assert executor.run(0, lambda: "ok") == "ok"
        with pytest.raises(ConcurrencyError):
            executor.run(0, lambda: None)
