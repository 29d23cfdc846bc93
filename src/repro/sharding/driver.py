"""The sharded multi-chip driver: N page-update methods behind one façade.

:class:`ShardedDriver` implements the :class:`PageUpdateMethod` contract
over a fleet of per-shard drivers, each owning its own chip, allocator,
GC engine and (for PDL) differential write buffer.  A
:class:`~repro.sharding.router.HashRouter` decides which shard owns
each logical page; shard drivers index their tables by the *global* pid,
so no id translation happens anywhere — the hash partition is the only
routing state, which is what keeps recovery trivial (rebuild each shard,
route by the same hash).

Because every shard is an independent device with its own free-space
pool, sharding multiplies the paper's mechanisms for free:

* **GC parallelism** — each shard reclaims its own blocks; a GC storm on
  one shard never stalls traffic routed to the others;
* **recovery parallelism** — the Figure-11 scan is per-chip, so an
  N-shard array recovers in the simulated time of one shard's scan;
* **group flush** — the Section-4.5 write-through generalizes to
  :meth:`group_flush`, which drains every shard's differential write
  buffer in one batched call, the natural commit point for a DBMS
  checkpoint running above the array (a buffer pool's ``flush_all`` is
  one :meth:`write_pages` of its dirty frames, then this).

Every shard sits behind an ownership **gate** (:class:`ShardExecutor`):
a single-page operation is one route and one gate, taken on the
calling thread, and a batched one runs each shard's piece under that
shard's gate, in shard order, on the calling thread too.  So an array
is safe for many client threads (serialized per shard, overlapping
across shards) and its flash behaviour is exactly the in-order one — see
``docs/concurrency.md`` for the execution model and why there are no
worker threads.

The driver is method-agnostic: any mix of PDL/OPU/IPU/IPL shards built
by :func:`repro.methods.make_method` works, although homogeneous fleets
(the ``"PDL (256B) x4"`` labels) are the measured configuration.
"""

from __future__ import annotations

import threading
from functools import partial
from threading import get_ident
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..flash.chip import FlashChip
from ..flash.errors import ChecksumError
from ..flash.spec import FlashSpec
from ..flash.stats import AggregateStats
from ..ftl.base import ChangeRun, PageUpdateMethod
from ..ftl.errors import ConcurrencyError, ConfigurationError
from .router import HashRouter


def _join(calls: Sequence[Callable[[], object]]) -> List[object]:
    """Make every call, in order, even after one fails — a fan-out must
    not leave a later shard unflushed or its file open — then re-raise
    the first failure."""
    results: List[object] = []
    first: Optional[BaseException] = None
    for call in calls:
        try:
            results.append(call())
        except BaseException as exc:
            if first is None:
                first = exc
            results.append(None)
    if first is not None:
        raise first
    return results


class ShardExecutor:
    """One ownership gate (a lock) per shard, taken on the caller.

    Holding gate ``i`` *is* owning shard ``i``: all work on one shard is
    sequential (the single-writer invariant every crash and GC argument
    assumes) while different shards' callers overlap.  A thread that
    already holds the gate calls straight through, so shard code that
    re-enters cannot deadlock on itself.  After :meth:`shutdown` every
    call is refused — checked *under* the gate, so a caller that was
    waiting for it cannot run behind the shutdown's last tasks.

    The executor knows nothing about drivers or routing;
    :class:`ShardedDriver` supplies the policy.
    """

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise ValueError("ShardExecutor needs at least one shard")
        self._gates = [threading.Lock() for _ in range(n_shards)]
        #: Ident of the thread holding each gate, ``None`` while free.
        self._holders: List[Optional[int]] = [None] * n_shards
        self._closed = False
        #: Makes :meth:`shutdown`'s test-and-set of ``_closed`` atomic.
        self._closing = threading.Lock()

    def _outside(self, index: int) -> ValueError:
        return ValueError(f"shard index {index} outside pool of {len(self._gates)}")

    def holds(self, index: int) -> bool:
        """Whether the calling thread holds shard ``index``'s gate."""
        if not 0 <= index < len(self._holders):
            raise self._outside(index)
        return self._holders[index] == get_ident()

    def owner_test(self, index: int) -> Callable[[], bool]:
        """``holds(index)`` as a zero-argument test of one frame, for a
        guard that runs on every write (the GC engine's owner check)."""
        if not 0 <= index < len(self._holders):
            raise self._outside(index)
        holders = self._holders

        def holds() -> bool:
            return holders[index] == get_ident()

        return holds

    def _own(self, index: int, fn: Callable, args: tuple, kwargs: dict):
        """``fn(*args, **kwargs)`` on this thread as shard ``index``'s
        owner, even after shutdown (a shutdown's last task); straight
        through when this thread already holds the gate."""
        if self.holds(index):
            return fn(*args, **kwargs)
        with self._gates[index]:
            self._holders[index] = get_ident()
            try:
                return fn(*args, **kwargs)
            finally:
                self._holders[index] = None

    def run(self, index: int, fn: Callable, *args, **kwargs):
        """Take shard ``index``'s gate and call ``fn`` on this thread.

        Every single-page operation passes here, so the checks of
        :meth:`holds` and the body of :meth:`_own` are written out
        inline: one frame between the façade and the shard."""
        holders = self._holders
        if not 0 <= index < len(holders):
            raise self._outside(index)
        me = get_ident()
        if holders[index] == me:
            return fn(*args, **kwargs)
        with self._gates[index]:
            if self._closed:
                raise ConcurrencyError("executor is shut down")
            holders[index] = me
            try:
                return fn(*args, **kwargs)
            finally:
                holders[index] = None

    # benchmarks/e2e/trace.py patches this name in the class namespace.
    submit = run

    def map(self, tasks: Sequence[Tuple[int, Callable[[], object]]]) -> List[object]:
        """Run ``(shard index, thunk)`` tasks in order, each under its
        gate; every task runs even when an earlier one fails, then the
        first failure is re-raised."""
        return _join([partial(self.run, index, fn) for index, fn in tasks])

    def shutdown(self, last: Sequence[Tuple[int, Callable[[], object]]] = ()) -> None:
        """Refuse all further calls, then run the ``last`` ``(shard index,
        thunk)`` tasks (closing a shard's chip) under their gates, so
        nothing follows them on a shard; the first failure is re-raised
        after all have run.  A caller that holds a task's gate runs that
        task straight through.  Idempotent: a second call does nothing."""
        with self._closing:
            if self._closed:
                return
            self._closed = True
        _join([partial(self._own, index, fn, (), {}) for index, fn in last])

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def _fsck_shard(shard: PageUpdateMethod, repair: bool):
    from ..core.fsck import FsckReport

    if hasattr(shard, "fsck"):
        return shard.fsck(repair=repair)
    return FsckReport()


class ShardedDriver(PageUpdateMethod):
    """A :class:`PageUpdateMethod` routing pages across shard drivers.

    A single-page operation is one route (``router.shard_of``, the
    array's hash partition) and one gate (:meth:`ShardExecutor.run`,
    which bounds-checks the index);
    every batched operation is stated once, here, over
    :meth:`_fan_out` (one thunk per shard, each as its shard's owner, in
    shard order).  Each shard must own its chip: two shards over one
    device would be two gates on it.  Construction guards each shard's
    GC engine with its gate
    (:meth:`~repro.ftl.gc.GarbageCollector.bind_owner`), so a call
    that bypasses the façade — ``driver.shards[0].write_page(...)`` —
    raises :class:`ConcurrencyError` instead of racing the owner.
    :meth:`close` shuts the gates; every entry point raises
    :class:`ConcurrencyError` afterwards.
    """

    def __init__(self, shards: Sequence[PageUpdateMethod]):
        # No super().__init__: there is no single chip; spec/stats/page_size
        # are overridden below instead.
        if not shards:
            raise ConfigurationError("ShardedDriver needs at least one shard")
        self.shards: List[PageUpdateMethod] = list(shards)
        self.router = HashRouter(len(self.shards))
        sizes = {shard.page_size for shard in self.shards}
        if len(sizes) != 1:
            raise ConfigurationError(
                f"shards disagree on logical page size: {sorted(sizes)}"
            )
        self.name = f"{self.shards[0].name} x{len(self.shards)}"
        self.tightly_coupled = any(s.tightly_coupled for s in self.shards)
        first_on_chip: Dict[int, int] = {}
        for index, shard in enumerate(self.shards):
            other = first_on_chip.setdefault(id(shard.chip), index)
            if other != index:
                raise ConfigurationError(
                    f"shards {other} and {index} share one flash chip; each "
                    f"shard needs its own, or one device would have two gates"
                )
        self._stats = AggregateStats([s.chip.stats for s in self.shards])
        self.group_flushes = 0
        self._counter_lock = threading.Lock()  # client threads race here
        self.executor = ShardExecutor(len(self.shards))
        for index, shard in enumerate(self.shards):
            gc = getattr(shard, "gc", None)
            if gc is not None:
                gc.bind_owner(self.executor.owner_test(index))

    # ------------------------------------------------------------------
    # Routing and execution primitives
    # ------------------------------------------------------------------
    def shard_index(self, pid: int) -> int:
        """The shard index owning ``pid``."""
        return self.router.shard_of(pid)

    def shard_for(self, pid: int) -> PageUpdateMethod:
        return self.shards[self.shard_index(pid)]

    def _split_by_shard(self, pages, update_logs=None) -> Dict[int, tuple]:
        """Group ``(pid, data)`` pairs (and their logs) by owning shard.

        Pages owned by the same shard keep their relative order;
        cross-shard order is immaterial because shards are independent
        devices.
        """
        per_shard: Dict[int, List] = {}
        for pid, data in pages:
            per_shard.setdefault(self.shard_index(pid), []).append((pid, data))
        out: Dict[int, tuple] = {}
        for index, group in per_shard.items():
            logs = None
            if update_logs is not None:
                logs = {pid: update_logs[pid] for pid, _ in group if pid in update_logs}
            out[index] = (group, logs)
        return out

    def _fan_out(self, tasks: Dict[int, Callable[[], object]]) -> List[object]:
        """Run one thunk per shard index under its gate; results in
        shard order, the first failure re-raised after all have run, a
        checksum or wrong-page failure naming its shard (:meth:`_on_shard`)."""
        return self.executor.map(
            [(index, partial(self._named, index, fn)) for index, fn in sorted(tasks.items())]
        )

    def _named(self, index: int, fn: Callable[[], object]) -> object:
        try:
            return fn()
        except ChecksumError as exc:
            raise self._on_shard(index, exc) from exc

    # ------------------------------------------------------------------
    # PageUpdateMethod contract
    # ------------------------------------------------------------------
    # The single-page operations spell out shard_index: one route frame
    # and one gate frame per page is all the façade costs.
    def load_page(self, pid: int, data: bytes) -> None:
        index = self.router.shard_of(pid)
        self.executor.run(index, self.shards[index].load_page, pid, data)

    def read_page(self, pid: int) -> bytes:
        index = self.router.shard_of(pid)
        try:
            return self.executor.run(index, self.shards[index].read_page, pid)
        except ChecksumError as exc:
            raise self._on_shard(index, exc) from exc

    def write_page(
        self, pid: int, data: bytes, update_logs: Optional[List[ChangeRun]] = None
    ) -> None:
        index = self.router.shard_of(pid)
        try:
            self.executor.run(index, self.shards[index].write_page, pid, data, update_logs)
        except ChecksumError as exc:
            raise self._on_shard(index, exc) from exc

    def _on_shard(self, index: int, exc: ChecksumError) -> ChecksumError:
        """A shard's checksum or wrong-page failure as the array reports
        it: the same type and ``addr``, the message naming the shard (a
        shard's driver does not know its own index)."""
        return type(exc)(f"shard {index} of {len(self.shards)}: {exc}", exc.addr)

    def end_of_load(self) -> None:
        self._fan_out({i: shard.end_of_load for i, shard in enumerate(self.shards)})

    def load_pages(self, pages) -> None:
        """Bulk-load a batch: each shard loads its members, in order,
        through its own batched path (PDL shards program a whole
        allocation block per chip call)."""
        self._fan_out(
            {
                index: partial(self.shards[index].load_pages, group)
                for index, (group, _logs) in self._split_by_shard(pages).items()
            }
        )

    def write_pages(self, pages, update_logs=None) -> None:
        """Reflect a batch (the sharded buffer-pool flush): each shard
        sees one batched call, so per-shard batching (PDL's prefetched
        base reads) still applies."""
        split = self._split_by_shard(pages, update_logs)
        self._fan_out(
            {
                index: partial(self.shards[index].write_pages, group, update_logs=logs)
                for index, (group, logs) in split.items()
            }
        )

    def flush(self) -> None:
        """Write-through over the whole array (see :meth:`group_flush`)."""
        self.group_flush()

    def group_flush(self) -> None:
        """Batched flush: drain every shard's buffers in one call.

        All shards flush before control returns, so a caller observing
        the return has a single durability horizon across the array —
        the sharded generalization of Section 4.5's write-through.  The
        flushes are independent per-chip programs run one after another;
        simulated parallel time is the slowest shard's share.  A buffer
        pool's ``flush_all`` is :meth:`write_pages` of its batch, then
        this.
        """
        self._fan_out({i: shard.flush for i, shard in enumerate(self.shards)})
        with self._counter_lock:
            self.group_flushes += 1

    # ------------------------------------------------------------------
    # Aggregated introspection
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def chips(self) -> List[FlashChip]:
        return [shard.chip for shard in self.shards]

    @property
    def spec(self) -> FlashSpec:
        """The per-shard chip spec (shards share one geometry in practice)."""
        return self.shards[0].spec

    @property
    def stats(self) -> AggregateStats:
        return self._stats

    @property
    def page_size(self) -> int:
        return self.shards[0].page_size

    @property
    def total_blocks(self) -> int:
        """Erase blocks across the whole array (capacity planning, GC
        steady-state targets)."""
        return sum(shard.spec.n_blocks for shard in self.shards)

    # ------------------------------------------------------------------
    # Lifecycle (persistent backends)
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Push every shard chip's backend to durable media."""
        self._fan_out({i: chip.sync for i, chip in enumerate(self.chips)})

    def close(self) -> None:
        """Shut the gates, then sync and close every shard chip's backend
        under its gate — all of them, even if one fails.  Idempotent."""
        self.executor.shutdown(last=list(enumerate(chip.close for chip in self.chips)))

    def chip_clocks(self) -> List[float]:
        """Each shard chip's monotonic clock; ``max`` of window deltas is
        the array's parallel elapsed time."""
        return [chip.clock_us for chip in self.chips]

    def gc_report(self) -> Dict[str, object]:
        """Aggregated space-management health across the array.

        Per shard: completed collections, pages relocated, incremental
        steps taken, current GC debt (blocks below the trigger level,
        in-flight victim included) and cumulative reclamation time.
        Array-wide: the same counters summed, plus the pooled per-write
        stall tail (p99 / max) — the number incremental GC exists to
        shrink.  Shards without a pluggable collector (e.g. IPU) report
        ``None``.
        """
        per_shard: List[Optional[Dict[str, object]]] = []
        for shard in self.shards:
            gc = getattr(shard, "gc", None)
            if gc is None:
                per_shard.append(None)
                continue
            per_shard.append(
                {
                    "policy": gc.config.policy,
                    "collections": gc.collections,
                    "pages_relocated": gc.pages_relocated,
                    "incremental_steps": gc.steps,
                    "debt_blocks": gc.gc_debt(),
                    "gc_time_us": gc.gc_time_us,
                }
            )
        present = [entry for entry in per_shard if entry is not None]
        return {
            "per_shard": per_shard,
            "total_collections": sum(e["collections"] for e in present),
            "total_pages_relocated": sum(e["pages_relocated"] for e in present),
            "total_incremental_steps": sum(e["incremental_steps"] for e in present),
            "total_debt_blocks": sum(e["debt_blocks"] for e in present),
            "write_stall_p99_us": self._stats.write_stall_percentile(99),
            "write_stall_max_us": self._stats.max_write_stall_us,
        }

    def wear_report(self) -> Dict[str, object]:
        """Aggregated wear: per-shard erase totals and worst block."""
        per_shard = [shard.stats.total_erases for shard in self.shards]
        return {
            "per_shard_erases": per_shard,
            "total_erases": sum(per_shard),
            "max_block_erases": self._stats.max_block_erases(),
        }

    def fsck(self, repair: bool = True):
        """Run :func:`repro.core.fsck.fsck_driver` over every shard.

        Returns one merged :class:`~repro.core.fsck.FsckReport` whose
        ``per_shard`` list holds the individual shard reports (in shard
        order; shards without an fsck-capable driver contribute an empty
        report).  Each scan runs as its shard's owner (the single-writer
        invariant covers fsck's repair writes too).
        """
        from ..core.fsck import FsckReport

        return FsckReport.merge(
            self._fan_out(
                {
                    i: partial(_fsck_shard, shard, repair)
                    for i, shard in enumerate(self.shards)
                }
            )
        )

    def differential_page_count(self) -> int:
        """Referenced differential pages, summed over PDL shards."""
        return sum(
            shard.differential_page_count()
            for shard in self.shards
            if hasattr(shard, "differential_page_count")
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r} shards={len(self.shards)}>"
