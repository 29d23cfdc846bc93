"""Real thread-parallel shard execution: gates, worker pool, parallel driver.

:class:`~repro.sharding.driver.ShardedDriver` routes operations to
independent per-shard drivers, but executes them one after another on
the calling thread — parallelism existed only in the *simulated* clock
model (the busiest chip's share of a window).  This module makes shard
independence real in wall-clock time:

* :class:`ShardExecutor` — one **gate** (a lock) and one persistent
  worker thread per shard.  Whoever holds shard *i*'s gate is its
  single writer: :meth:`~ShardExecutor.run` takes it and executes on
  the *calling* thread, a worker takes it around every task handed to
  it.  Each chip keeps exactly the sequential execution its crash/GC
  invariants assume — no fine-grained locks anywhere in the drivers.
* :class:`ParallelShardedDriver` — a drop-in
  :class:`~repro.sharding.driver.ShardedDriver` that swaps the parent's
  two execution primitives: single-page operations run on the caller
  under the owning shard's gate (safe to hammer from many client
  threads at once), and batched entry points (``load_pages``/
  ``write_pages``/``group_flush``/``sync``) fan out across the workers
  and join, so their per-shard waits overlap.

Per-shard :class:`~repro.flash.stats.FlashStats` collectors are only
ever mutated under their shard's gate;
:class:`~repro.sharding.stats.AggregateStats` merges them (stall
histograms included) when the caller reads after a join.

See ``docs/concurrency.md`` for the full execution model, including
which of the simulated and host time metrics answers which question.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from functools import partial
from queue import SimpleQueue
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..flash.stats import DEFAULT_PHASE
from ..ftl.base import PageUpdateMethod
from ..ftl.errors import ConcurrencyError
from .driver import ShardedDriver
from .router import ShardRouter

#: Sentinel dropped into a mailbox to stop its worker thread.
_STOP = None


class ShardExecutor:
    """One ownership gate and one persistent worker thread per shard.

    Holding gate ``i`` *is* owning shard ``i``.  :meth:`run` takes the
    gate and executes on the calling thread; a task handed to worker
    ``i`` (:meth:`submit`, :meth:`map`) runs there with the gate held,
    in FIFO order.  Either way all work on one shard is sequential (the
    single-writer invariant) while *different* shards overlap.  The gate
    is a leaf lock: no thread takes a second gate, or waits on a worker,
    while holding one (:meth:`map` refuses rather than hangs).

    The executor is intentionally dumb: it knows nothing about drivers
    or routing.  :class:`ParallelShardedDriver` supplies the policy.
    """

    def __init__(self, n_workers: int, name: str = "shard"):
        if n_workers < 1:
            raise ValueError("ShardExecutor needs at least one worker")
        self._gates = [threading.Lock() for _ in range(n_workers)]
        #: Ident of the thread holding each gate, ``None`` while free.
        self._holders: List[Optional[int]] = [None] * n_workers
        self._mailboxes: List[SimpleQueue] = [SimpleQueue() for _ in range(n_workers)]
        self._shutdown = False
        #: Serializes submit() against shutdown(): a task enqueued behind
        #: the stop sentinel would never complete, and its caller never wake.
        self._submit_lock = threading.Lock()
        self._threads = [  # daemons: a forgotten shutdown must not hang exit
            threading.Thread(
                target=self._worker, args=(i,), name=f"{name}-worker-{i}", daemon=True
            )
            for i in range(n_workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Ownership and execution
    # ------------------------------------------------------------------
    @property
    def n_workers(self) -> int:
        return len(self._mailboxes)

    def holds(self, index: int) -> bool:
        """Whether the calling thread holds shard ``index``'s gate."""
        return self._holders[index] == threading.get_ident()

    def _own(self, index: int, fn: Callable, args: tuple, kwargs: dict, live: bool = False):
        """``fn(*args, **kwargs)`` on this thread, as shard ``index``'s owner.
        ``live`` (a client's call, not a task a worker accepted earlier)
        refuses after shutdown — checked *under* the gate, so a client that
        waited for it cannot run behind :meth:`shutdown`'s last tasks."""
        with self._gates[index]:
            if live and self._shutdown:
                raise ConcurrencyError("executor is shut down")
            self._holders[index] = threading.get_ident()
            try:
                return fn(*args, **kwargs)
            finally:
                self._holders[index] = None

    def _worker(self, index: int) -> None:
        mailbox = self._mailboxes[index]
        while True:
            item = mailbox.get()
            if item is _STOP:
                return
            future, fn, args, kwargs = item
            if not future.set_running_or_notify_cancel():
                continue
            try:
                result = self._own(index, fn, args, kwargs)
            except BaseException as exc:  # delivered via future.result()
                future.set_exception(exc)
            else:
                future.set_result(result)

    def run(self, index: int, fn: Callable, *args, **kwargs):
        """Take shard ``index``'s gate and call ``fn`` on this thread.  A
        thread that already holds it (shard code re-entering the executor,
        on a worker or a client) just calls through."""
        self._check(index)
        if self.holds(index):
            return fn(*args, **kwargs)
        return self._own(index, fn, args, kwargs, live=True)

    def submit(self, index: int, fn: Callable, *args, **kwargs) -> Future:
        """Enqueue ``fn(*args, **kwargs)`` on worker ``index``'s mailbox."""
        self._check(index)
        with self._submit_lock:
            if self._shutdown:
                raise ConcurrencyError("executor is shut down")
            return self._enqueue(index, fn, args, kwargs)

    def _check(self, index: int) -> None:
        if not 0 <= index < len(self._gates):
            raise ValueError(f"worker index {index} outside pool of {len(self._gates)}")

    def _enqueue(self, index: int, fn: Callable, args: tuple, kwargs: dict) -> Future:
        future: Future = Future()
        self._mailboxes[index].put((future, fn, args, kwargs))
        return future

    def map(self, tasks: Sequence[Tuple[int, Callable]]) -> List[object]:
        """Run ``(worker index, thunk)`` tasks concurrently; join all.

        Every task is awaited even when an earlier one fails — a fan-out
        must not leave half the fleet still mutating state when control
        returns — then the first exception (in task order) is re-raised.
        A single task has nothing to overlap with and runs on the caller.
        """
        if len(tasks) == 1:
            return [self.run(*tasks[0])]
        if any(self.holds(index) for index, _fn in tasks):
            raise ConcurrencyError("fan-out while holding a target shard's gate: deadlock")
        return gather([self.submit(index, fn) for index, fn in tasks])

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True, last: Sequence[Tuple[int, Callable]] = ()) -> None:
        """Stop every worker after its queued tasks drain.  Idempotent.
        ``last`` ``(worker index, thunk)`` tasks (closing a shard's chip)
        run behind those, once all else is refused, so nothing follows
        them on a shard; they are joined and the first failure re-raised."""
        with self._submit_lock:
            if self._shutdown:
                return
            self._shutdown = True
            futures = [self._enqueue(index, fn, (), {}) for index, fn in last]
            for mailbox in self._mailboxes:
                mailbox.put(_STOP)
        if wait:
            for thread in self._threads:
                thread.join()
        gather(futures)

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def gather(futures: Sequence[Future]) -> List[object]:
    """Wait for every future; re-raise the first failure (in order)."""
    results: List[object] = []
    first_exc: Optional[BaseException] = None
    for future in futures:
        try:
            results.append(future.result())
        except BaseException as exc:
            if first_exc is None:
                first_exc = exc
            results.append(None)
    if first_exc is not None:
        raise first_exc
    return results


class ParallelShardedDriver(ShardedDriver):
    """A :class:`ShardedDriver` whose shards are owned through gates.

    Every operation is the parent's; only the two execution primitives
    differ.  A single-shard call takes that shard's gate and runs on the
    calling thread; a fan-out hands each shard's piece to its worker
    (which takes the gate) and joins.  So *all* shard and chip work
    (I/O, GC, fsck, sync, close) runs under the shard's gate, one owner
    at a time.  Construction guards each shard's GC engine with its gate
    (:meth:`~repro.ftl.gc.GarbageCollector.bind_owner`), so any code
    path that would run ``on_write_begin``/``on_write_end`` hooks
    without holding the gate fails loudly instead of corrupting shard
    state.  ``close()`` shuts the pool down; every entry point raises
    :class:`ConcurrencyError` afterwards.

    One client thread pays a lock and no hand-off per single-page
    operation; *many* client threads are serialized per shard and
    overlap across shards (a client waiting on its device holds only its
    own shard's gate).  The fan-out entry points (``load_pages``/
    ``write_pages``/``flush``/``group_flush``/``fsck``/``sync``/
    ``end_of_load``) are where a single caller sees wall-clock
    parallelism: all shards work at once and the call joins them.
    """

    def __init__(
        self,
        shards: Sequence[PageUpdateMethod],
        router: Optional[ShardRouter] = None,
        executor: Optional[ShardExecutor] = None,
    ):
        super().__init__(shards, router)
        if executor is not None and executor.n_workers != len(self.shards):
            raise ConcurrencyError(
                f"executor has {executor.n_workers} workers for {len(self.shards)} shards"
            )
        self.executor = executor if executor is not None else ShardExecutor(len(self.shards))
        self.name += " par"
        for index, shard in enumerate(self.shards):
            gc = getattr(shard, "gc", None)
            if gc is not None:
                gc.bind_owner(partial(self.executor.holds, index))
        self._counter_lock = threading.Lock()  # client threads race here

    # ------------------------------------------------------------------
    # Execution primitives: the gate, on this thread or on a worker
    # ------------------------------------------------------------------
    def _run_on(self, index: int, fn: Callable, *args):
        return self.executor.run(index, fn, *args)

    def _fan_out(self, tasks: Dict[int, Callable[[], object]]) -> List[object]:
        return self.executor.map(
            [(index, self._in_caller_phase(index, fn)) for index, fn in sorted(tasks.items())]
        )

    def _in_caller_phase(self, index: int, fn: Callable[[], object]) -> Callable[[], object]:
        """``fn``, attributed on a worker as it would be on this thread.

        Phase stacks are thread-local (see
        :class:`~repro.flash.stats.FlashStats`), so a phase the *client*
        pushed — e.g. ``AggregateStats.phase("load")`` around a bulk
        load — is captured here and re-pushed around the task on the
        worker.  Work that runs on the caller needs none of this.
        """
        stats = self.shards[index].stats
        phase = stats.current_phase
        if phase == DEFAULT_PHASE:
            return fn

        def run() -> object:
            with stats.phase(phase):
                return fn()

        return run

    # The same functions, bound here as well: benchmarks/e2e/trace.py
    # patches these names in *this* class's namespace, and an inherited
    # attribute (or a super() stub, which would open two spans per call)
    # is not there to patch.
    read_page = ShardedDriver.read_page
    write_page = ShardedDriver.write_page
    write_pages = ShardedDriver.write_pages
    group_flush = ShardedDriver.group_flush

    def close(self) -> None:
        """Close every shard chip under its gate as its worker's last
        task, and stop the workers.  Idempotent, like the executor's
        shutdown (whose flag is the only closed state there is)."""
        self.executor.shutdown(last=[(i, chip.close) for i, chip in enumerate(self.chips)])
