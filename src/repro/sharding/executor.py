"""Real thread-parallel shard execution: worker pool + parallel driver.

:class:`~repro.sharding.driver.ShardedDriver` routes operations to
independent per-shard drivers, but executes them one after another on
the calling thread — parallelism existed only in the *simulated* clock
model (the busiest chip's share of a window).  This module makes shard
independence real in wall-clock time:

* :class:`ShardExecutor` — one persistent **single-writer worker
  thread per shard**, fed through a thread-safe mailbox of
  :class:`~concurrent.futures.Future` tasks.  Everything that touches a
  shard's driver, allocator, GC engine or write buffer runs on that
  shard's one worker, so each chip keeps exactly the sequential
  execution its crash/GC invariants assume — no fine-grained locks
  anywhere in the drivers.
* :class:`ParallelShardedDriver` — a drop-in
  :class:`~repro.sharding.driver.ShardedDriver` that swaps the parent's
  two execution primitives for the mailbox: batched entry points
  (``load_pages``/``write_pages``/``group_flush``/``sync``) fan out
  across the workers and join, and single-page operations are marshalled
  through the owning shard's mailbox — which also makes the driver safe
  to hammer from many client threads at once.

Per-shard :class:`~repro.flash.stats.FlashStats` collectors double as
the per-worker accumulators: each is only ever mutated by its shard's
worker, and :class:`~repro.sharding.stats.AggregateStats` merges them
(stall histograms included) when the caller reads after a join.

See ``docs/concurrency.md`` for the full execution model, including how
measured wall-clock time relates to the simulated parallel clock and
why speedup is largest on the file backend's real I/O waits.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from queue import SimpleQueue
from typing import Callable, Dict, List, Literal, Optional, Sequence, Tuple, Union

from ..flash.stats import DEFAULT_PHASE
from ..ftl.base import PageUpdateMethod
from ..ftl.errors import ConcurrencyError, ConfigurationError
from .driver import ShardedDriver
from .router import ShardRouter

#: Sentinel dropped into a mailbox to stop its worker thread.
_STOP = None

#: What a ``parallel=`` argument may hold; ``True`` means ``"thread"``.
Parallel = Union[bool, Literal["thread"]]


def check_parallel(parallel: object) -> bool:
    """Validate a ``parallel=`` argument; True when it asks for threads."""
    if isinstance(parallel, bool) or parallel == "thread":
        return bool(parallel)
    raise ConfigurationError(
        f"parallel={parallel!r} is not an execution mode; expected False, "
        "True or 'thread'"
    )


class ShardExecutor:
    """A pool of persistent single-writer worker threads, one per shard.

    Tasks are submitted to a specific worker's mailbox and return
    :class:`~concurrent.futures.Future` objects; a worker drains its
    mailbox in FIFO order, so all tasks for one shard execute
    sequentially on one thread (the single-writer invariant), while
    tasks on *different* workers run genuinely concurrently.

    The executor is intentionally dumb: it knows nothing about drivers
    or routing.  :class:`ParallelShardedDriver` supplies the policy.
    """

    def __init__(self, n_workers: int, name: str = "shard"):
        if n_workers < 1:
            raise ValueError("ShardExecutor needs at least one worker")
        self._mailboxes: List[SimpleQueue] = [SimpleQueue() for _ in range(n_workers)]
        self._idents: List[Optional[int]] = [None] * n_workers
        self._started = threading.Event()
        self._shutdown = False
        #: Serializes submit() against shutdown(): without it a task
        #: could be enqueued behind the stop sentinel and its future
        #: would never complete (the caller would block forever).
        self._submit_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        remaining = [n_workers]
        lock = threading.Lock()

        def _note_started(index: int) -> None:
            self._idents[index] = threading.get_ident()
            with lock:
                remaining[0] -= 1
                if remaining[0] == 0:
                    self._started.set()

        for i in range(n_workers):
            thread = threading.Thread(
                target=self._worker,
                args=(i, _note_started),
                name=f"{name}-worker-{i}",
                daemon=True,  # a forgotten shutdown must not hang exit
            )
            thread.start()
            self._threads.append(thread)
        self._started.wait()

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------
    def _worker(self, index: int, note_started: Callable[[int], None]) -> None:
        note_started(index)
        mailbox = self._mailboxes[index]
        while True:
            item = mailbox.get()
            if item is _STOP:
                return
            future, fn, args, kwargs = item
            if not future.set_running_or_notify_cancel():
                continue
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:  # delivered via future.result()
                future.set_exception(exc)
            else:
                future.set_result(result)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    @property
    def n_workers(self) -> int:
        return len(self._mailboxes)

    def worker_ident(self, index: int) -> int:
        """Thread identity of worker ``index`` (for ownership guards)."""
        ident = self._idents[index]
        assert ident is not None, "workers are started in __init__"
        return ident

    def submit(self, index: int, fn: Callable, *args, **kwargs) -> Future:
        """Enqueue ``fn(*args, **kwargs)`` on worker ``index``'s mailbox."""
        if not 0 <= index < len(self._mailboxes):
            raise ValueError(
                f"worker index {index} outside pool of {len(self._mailboxes)}"
            )
        future: Future = Future()
        with self._submit_lock:
            if self._shutdown:
                raise ConcurrencyError("executor is shut down")
            self._mailboxes[index].put((future, fn, args, kwargs))
        return future

    def run(self, index: int, fn: Callable, *args, **kwargs):
        """Submit to worker ``index`` and wait for the result.

        Calls from the worker's own thread execute inline instead —
        waiting on the mailbox from inside it would deadlock (the task
        behind you in the queue can never run while you block).
        """
        if threading.get_ident() == self._idents[index]:
            return fn(*args, **kwargs)
        return self.submit(index, fn, *args, **kwargs).result()

    def map(self, tasks: Sequence[Tuple[int, Callable]]) -> List[object]:
        """Run ``(worker index, thunk)`` tasks concurrently; join all.

        Every task is awaited even when an earlier one fails — a fan-out
        must not leave half the fleet still mutating state when control
        returns — then the first exception (in task order) is re-raised.
        """
        futures = [self.submit(index, fn) for index, fn in tasks]
        return gather(futures)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop every worker after its queued tasks drain.  Idempotent."""
        with self._submit_lock:
            if self._shutdown:
                return
            self._shutdown = True
            for mailbox in self._mailboxes:
                mailbox.put(_STOP)
        if wait:
            for thread in self._threads:
                thread.join()

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
    """A :class:`ShardedDriver` whose shards execute on worker threads.

    Every operation is the parent's; only the two execution primitives
    differ — each goes through the owning shard's mailbox, so *all*
    shard and chip work (I/O, GC, fsck, sync, close) runs on that
    shard's one worker.  Construction pins each shard's GC engine to its
    worker thread
    (:meth:`~repro.ftl.gc.GarbageCollector.bind_owner_thread`), so any
    code path that would run ``on_write_begin``/``on_write_end`` hooks
    off the owning worker fails loudly instead of corrupting shard
    state.  ``close()`` shuts the pool down; the driver (like its
    serial parent) must not be used afterwards.

    Single-page operations gain nothing from one client thread, but
    *many* client threads are serialized per shard and overlap across
    shards, which is the stress-test configuration.  The fan-out entry
    points (``load_pages``/``write_pages``/``flush``/``group_flush``/
    ``fsck``/``sync``/``end_of_load``) are where a single caller sees
    wall-clock parallelism: all shards work at once and the call joins
    them.
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
                f"executor has {executor.n_workers} workers for "
                f"{len(self.shards)} shards"
            )
        self.executor = executor if executor is not None else ShardExecutor(
            len(self.shards)
        )
        self.name += " par"
        for index, shard in enumerate(self.shards):
            gc = getattr(shard, "gc", None)
            if gc is not None:
                gc.bind_owner_thread(self.executor.worker_ident(index))
        self._counter_lock = threading.Lock()  # client threads race here

    # ------------------------------------------------------------------
    # Execution primitives: the mailbox instead of the calling thread
    # ------------------------------------------------------------------
    def _task(self, index: int, fn: Callable, *args) -> Callable[[], object]:
        """Bind a shard task, propagating the caller's stats phase.

        Phase stacks are thread-local (see
        :class:`~repro.flash.stats.FlashStats`), so a phase the *client*
        thread pushed — e.g. ``AggregateStats.phase("load")`` around a
        bulk load — would not attribute work executed on a worker.  The
        innermost phase is captured here, on the submitting thread, and
        re-pushed around the task on the worker.
        """
        phase = self.shards[index].stats.current_phase

        def run() -> object:
            if phase == DEFAULT_PHASE:
                return fn(*args)
            with self.shards[index].stats.phase(phase):
                return fn(*args)

        return run

    def _run_on(self, index: int, fn: Callable, *args):
        return self.executor.run(index, self._task(index, fn, *args))

    def _fan_out(self, tasks: Dict[int, Callable[[], object]]) -> List[object]:
        return self.executor.map(
            [(index, self._task(index, fn)) for index, fn in sorted(tasks.items())]
        )

    # The same functions, bound here as well: benchmarks/e2e/trace.py
    # patches these names in *this* class's namespace, and an inherited
    # attribute (or a super() stub, which would open two spans per call)
    # is not there to patch.
    read_page = ShardedDriver.read_page
    write_page = ShardedDriver.write_page
    write_pages = ShardedDriver.write_pages
    group_flush = ShardedDriver.group_flush

    def close(self) -> None:
        """Close every shard chip on its worker, then stop the workers."""
        try:
            super().close()
        finally:
            self.executor.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ParallelShardedDriver {self.name!r} "
            f"router={type(self.router).__name__} shards={len(self.shards)}>"
        )
