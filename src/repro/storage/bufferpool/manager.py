"""The production buffer pool: thread-safe frames over a page-update driver.

This is the DBMS buffer of the paper's Experiment 7 grown into a
subsystem: pluggable eviction (:mod:`.policy`), thread-safe pinning, and
optional watermark-driven background write-back (:mod:`.writeback`).
With the defaults — ``policy="lru"``, ``writeback=None`` — its flash
behaviour is byte-identical to the original 148-line synchronous LRU
pool, which keeps every paper experiment faithful; the new machinery is
strictly opt-in.

Locking model (see ``docs/bufferpool.md``):

* one pool lock (re-entrant) guards the frame table, the eviction
  policy, the stats and resident frames' pin counts — every public
  entry point takes it;
* per-page latches order page writes, never a read (:class:`~repro
  .storage.page.Page`); the ordering is always ``pool lock → page latch → dirty
  lock``, with the driver lock (serial drivers only) innermost;
* flash **reads** for misses happen *outside* the pool lock so client
  threads miss concurrently on a parallel sharded driver; a lost race
  discards the duplicate read and counts it in ``stats.read_races``;
* flash **writes** from evictions run under the pool lock — that is the
  synchronous stall the write-back daemon exists to avoid: with
  ``writeback="background"`` the eviction path first reclaims a clean
  frame (no flash I/O at all) and only falls back to a synchronous
  write-back when the daemon is behind.

A serial driver (plain :class:`~repro.core.pdl.PdlDriver` or
:class:`~repro.sharding.driver.ShardedDriver`) is not thread-safe, so
when one is used with the daemon (two threads!) all driver calls are
additionally serialized through an internal driver lock.  A
:class:`~repro.sharding.executor.ParallelShardedDriver` needs no such
lock — its per-shard gates are the serialization — which is the
configuration where background write-back actually overlaps with client
work.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterator, List, Optional, Union

from ...ftl.base import PageUpdateMethod
from ...sharding.driver import ShardedDriver
from ...sharding.executor import ParallelShardedDriver
from ..page import BufferError, Page
from .policy import EvictionPolicy, make_eviction_policy
from .stats import BufferStats
from .writeback import WritebackConfig, WritebackDaemon, normalize_writeback


#: Candidates examined by the bounded clean-frame scan before the
#: eviction path gives up and falls back to synchronous write-back.
CLEAN_SCAN_MIN = 8


class BufferManager:
    """A fixed-capacity buffer pool over a page-update driver."""

    def __init__(
        self,
        driver: PageUpdateMethod,
        capacity: int,
        *,
        policy: Union[str, EvictionPolicy] = "lru",
        writeback=None,
    ):
        if capacity < 1:
            raise ValueError("buffer capacity must be at least one page")
        self.driver = driver
        #: Whether frames record update logs: fixed per driver, read once.
        self._logged = driver.tightly_coupled
        self._capacity = capacity
        self._frames: Dict[int, Page] = {}
        if isinstance(policy, str):
            policy = make_eviction_policy(policy, capacity)
        self.policy = policy
        self.stats = BufferStats(policy=policy.name)
        self.stats.policy_counters = policy.counters  # live view

        self._lock = threading.RLock()
        #: Signalled when an in-flight background batch completes.
        self._inflight_cond = threading.Condition(self._lock)
        self._inflight: set = set()
        #: Per-pid eviction generation: lets a miss read that ran
        #: outside the lock detect an admit+evict cycle of the same pid
        #: (its image may be stale) and retry instead of admitting it.
        self._evict_gen: Dict[int, int] = {}
        #: Leaf lock: the dirty counter and the daemon's condition.
        self._dirty_lock = threading.Lock()
        self._dirty_cond = threading.Condition(self._dirty_lock)
        self._dirty_count = 0
        #: Serializes concurrent flush_all callers (durability points).
        self._flush_serial = threading.Lock()

        #: Serial drivers are not thread-safe; with a write-back daemon
        #: (a second thread) every driver call goes through this lock.
        #: Parallel sharded drivers serialize at their shard gates.
        parallel = isinstance(driver, ParallelShardedDriver)
        self._driver_lock: Optional[threading.Lock] = None

        config = normalize_writeback(writeback)
        self.writeback: Optional[WritebackDaemon] = None
        if config is not None:
            if not parallel:
                self._driver_lock = threading.Lock()
            self.writeback = WritebackDaemon(self, config)
        self._closed = False

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    @capacity.setter
    def capacity(self, value: int) -> None:
        """Resize the pool, evicting down when it shrinks."""
        if value < 1:
            raise ValueError("buffer capacity must be at least one page")
        with self._lock:
            while len(self._frames) > value:
                self._evict_one_locked()
            self._capacity = value
            self.policy.resize(value)

    # ------------------------------------------------------------------
    # Page access
    # ------------------------------------------------------------------
    def get_page(self, pid: int, *, pin: bool = False) -> Page:
        """Fetch a page, reading it from flash on a miss.

        The flash read happens outside the pool lock, so concurrent
        misses on *different* pages overlap on a parallel driver.  Two
        threads missing the same pid race benignly: the loser discards
        its duplicate read and both counts stay exact (every driver read
        is a recorded miss).  If the pid was admitted *and evicted
        again* while our read was in flight (the eviction may have
        written a newer image to flash), the per-pid eviction generation
        has moved and the stale read is discarded and retried — never
        admitted over the newer durable state.
        """
        while True:
            with self._lock:
                page = self._frames.get(pid)
                if page is not None:
                    self.policy.touch(pid)
                    self.stats.hits += 1
                    page.pin_count += pin  # a bool: pinned under the lookup's lock
                    return page
                generation = self._evict_gen.get(pid, 0)
            if self._driver_lock is None:
                data = self.driver.read_page(pid)
            else:
                with self._driver_lock:
                    data = self.driver.read_page(pid)
            with self._lock:
                page = self._frames.get(pid)
                if page is not None:
                    # Lost a concurrent-miss race; the read is duplicated.
                    self.policy.touch(pid)
                    self.stats.misses += 1
                    self.stats.read_races += 1
                    page.pin_count += pin
                    return page
                if self._evict_gen.get(pid, 0) != generation:
                    # Admitted and evicted behind our back: retry.
                    self.stats.misses += 1
                    self.stats.read_races += 1
                    continue
                self.stats.misses += 1
                page = Page(pid, data, self._logged)
                self._admit_locked(page)
                page.pin_count += pin
                return page

    def pinned(self, pid: int) -> "_PinnedPage":
        """Context manager: fetch ``pid`` and hold it pinned.

        The lookup and the pin happen atomically under the pool lock, so
        the page cannot be evicted between them — the thread-safe
        replacement for ``pool.get_page(pid)`` + ``page.pin()``.
        """
        return _PinnedPage(self, pid)

    def create_page(self, pid: int, data: bytes) -> Page:
        """Materialize a brand-new logical page (not yet in flash).

        The page enters the pool dirty; its first eviction or flush
        performs the initial flash write.
        """
        with self._lock:
            if pid in self._frames:
                raise BufferError(f"page {pid} already buffered")
            page = Page(pid, data, self._logged)
            page.dirty = True
            self._admit_locked(page)
            return page

    def __contains__(self, pid: int) -> bool:
        with self._lock:
            return pid in self._frames

    def __len__(self) -> int:
        with self._lock:
            return len(self._frames)

    @property
    def dirty_count(self) -> int:
        """Resident dirty pages (maintained by page notifications)."""
        with self._dirty_lock:
            return self._dirty_count

    def clear(self) -> int:
        """Drop every clean, unpinned frame; returns how many were dropped.

        Used after device-level repair (``Database.fsck``): cached page
        images may no longer match what the driver would serve, so the
        pool forgets them and re-reads on demand.  Dirty or pinned pages
        are kept — dropping unwritten changes or a page a client holds
        is never safe here.
        """
        with self._lock:
            while self._inflight:
                self._inflight_cond.wait()
            dropped = 0
            for pid, page in list(self._frames.items()):
                if page.dirty or page.pin_count > 0:
                    continue
                del self._frames[pid]
                self.policy.remove(pid)
                self._evict_gen[pid] = self._evict_gen.get(pid, 0) + 1
                page.detach()
                dropped += 1
            return dropped

    # ------------------------------------------------------------------
    # Write-back
    # ------------------------------------------------------------------
    def flush_page(self, pid: int) -> None:
        with self._lock:
            while pid in self._inflight:
                # A background batch holds this page; wait it out rather
                # than double-writing the pid concurrently.
                self._inflight_cond.wait()
            page = self._frames.get(pid)
            if page is not None and page.dirty:
                self._write_back_locked(page)
                self.stats.flushes += 1

    def flush_all(self) -> None:
        """Write back every dirty page and the driver's own buffers.

        The durability point: the write-back daemon (if any) is paused
        and its in-flight batch joined first, then the remaining dirty
        pages go down in one batched driver call — through
        ``group_flush(pages=...)`` on a sharded driver, so the page
        writes and the per-shard buffer flushes fan out in a single
        join — in cold-to-hot policy order (LRU order, as always).
        Pages dirtied *while* the batch was in flight keep their
        residual logs and stay dirty; "flush returned" covers exactly
        the writes that completed before it was called, as it always
        did.
        """
        with self._flush_serial:
            daemon = self.writeback
            daemon_error = None
            if daemon is not None:
                # A daemon that died on a driver error left its batch
                # pages dirty; surface the error once, *after* flushing
                # everything synchronously — durability first.
                daemon_error, daemon.error = daemon.error, None
                daemon.pause()
            try:
                self._flush_all_inner()
            finally:
                if daemon is not None:
                    daemon.resume()
            if daemon_error is not None:
                raise daemon_error

    def _flush_all_inner(self) -> None:
        with self._lock:
            while self._inflight:
                self._inflight_cond.wait()
            dirty = [
                self._frames[pid]
                for pid in self.policy.iter_pids()
                if pid in self._frames and self._frames[pid].dirty
            ]
            if not dirty:
                self._driver_flush()
                return
            snapshots = [page.writeback_snapshot() for page in dirty]
            logs = None
            if self._logged:
                logs = {
                    page.pid: snap[1] for page, snap in zip(dirty, snapshots)
                }
            batch = [(page.pid, snap[0]) for page, snap in zip(dirty, snapshots)]
            if isinstance(self.driver, ShardedDriver):
                # One fan-out: per-shard page writes + buffer flush.
                if self._driver_lock is not None:
                    with self._driver_lock:
                        self.driver.group_flush(pages=batch, update_logs=logs)
                else:
                    self.driver.group_flush(pages=batch, update_logs=logs)
            else:
                self._driver_write_pages(batch, update_logs=logs)
                self._driver_flush()
            for page, snap in zip(dirty, snapshots):
                page.finish_writeback(snap[2], len(snap[1]))
                self.stats.flushes += 1

    def _write_back_locked(self, page: Page) -> None:
        """Synchronous single-page write-back (pool lock held).

        The page latch is held across the driver call, so a concurrent
        writer cannot slip a change between the snapshot and the log
        clear.
        """
        with page.latch:
            logs = page.change_log if self._logged else None
            self._driver_write_page(page.pid, page.data, logs)
            page.clear_log()

    # ------------------------------------------------------------------
    # Internals: admission and eviction
    # ------------------------------------------------------------------
    def _admit_locked(self, page: Page) -> None:
        while len(self._frames) >= self._capacity:
            self._evict_one_locked()
        self._frames[page.pid] = page
        self.policy.admit(page.pid)
        page.attach(self)

    def _evict_one_locked(self) -> None:
        while True:
            if self.writeback is None:
                victim_pid = self.policy.select_victim(self._pin_evictable)
            else:
                # Fast path: drop a clean frame, no flash I/O at all.
                limit = max(CLEAN_SCAN_MIN, self._capacity // 8)
                victim_pid = self.policy.select_victim(
                    self._clean_evictable, limit=limit
                )
                if victim_pid is None:
                    # The daemon is behind the dirty rate: wake it and
                    # pay one synchronous write-back as the backstop.
                    self.stats.writeback_kicks += 1
                    self.writeback.kick()
                    victim_pid = self.policy.select_victim(
                        self._pin_evictable, include_parked=True
                    )
            if victim_pid is not None:
                self._evict_locked(victim_pid)
                return
            if self._inflight:
                # Everything reclaimable is pinned by an in-flight
                # write-back batch; it will unpin shortly.
                self.stats.pin_waits += 1
                self._inflight_cond.wait()
                continue
            raise BufferError("all buffer frames are pinned")

    def _evict_locked(self, pid: int) -> None:
        # The write-back decision reads the victim's *current* dirty
        # state, not the scan's verdict — a clean-scan candidate that a
        # racing writer dirtied in between still gets written back.
        # The frame is only removed after a successful write-back: a
        # raising driver abandons the eviction with the page still
        # dirty and resident instead of dropping it on the floor.
        victim = self._frames[pid]
        if victim.dirty:
            self.stats.dirty_evictions += 1
            self.stats.sync_writebacks += 1
            start = time.perf_counter()
            try:
                self._write_back_locked(victim)
            finally:
                self.stats.eviction_stalls.record(
                    (time.perf_counter() - start) * 1e6
                )
        else:
            self.stats.clean_reclaims += 1
            self.stats.eviction_stalls.record(0.0)
        del self._frames[pid]
        self.policy.remove(pid)
        self._evict_gen[pid] = self._evict_gen.get(pid, 0) + 1
        self.stats.evictions += 1
        victim.detach()

    def _pin_evictable(self, pid: int) -> bool:
        if self._frames[pid].pin_count != 0:
            self.stats.pinned_skips += 1
            return False
        return True

    def _clean_evictable(self, pid: int) -> bool:
        page = self._frames[pid]
        if page.pin_count != 0:
            self.stats.pinned_skips += 1
            return False
        return not page.dirty

    # ------------------------------------------------------------------
    # Pins (pool lock) and page notifications (page latch held)
    # ------------------------------------------------------------------
    def _pin(self, page: Page) -> bool:
        """``Page.pin`` on an attached frame; False if it left the pool."""
        with self._lock:
            if self._frames.get(page.pid) is not page:
                return False
            page.pin_count += 1
            return True

    def _unpin(self, page: Page) -> None:
        """Drop one pin; the last hands the frame back to the eviction order."""
        with self._lock:
            if page.pin_count <= 0:
                raise RuntimeError(f"page {page.pid} unpinned more than pinned")
            page.pin_count -= 1
            if page.pin_count == 0:
                self.policy.unpark(page.pid)

    def _page_dirtied(self, pid: int) -> None:
        with self._dirty_lock:
            self._dirty_count += 1
            if self.writeback is not None and self._dirty_count >= (
                self.writeback.config.high_pages(self._capacity)
            ):
                self.writeback.notify()

    def _page_cleaned(self, pid: int) -> None:
        # Only the pool's write-back paths clean: the pool lock is held.
        with self._dirty_lock:
            self._dirty_count -= 1
        self.policy.unpark(pid)

    # ------------------------------------------------------------------
    # Background write-back support (called by the daemon)
    # ------------------------------------------------------------------
    def _claim_dirty_batch(self, max_pages: int) -> List[Page]:
        """Pin up to ``max_pages`` cold dirty pages for a flush batch."""
        batch: List[Page] = []
        with self._lock:
            for pid in self.policy.iter_pids():
                page = self._frames.get(pid)
                if page is None or not page.dirty or pid in self._inflight:
                    continue
                page.pin_count += 1  # blocks eviction while the batch is in flight
                self._inflight.add(pid)
                batch.append(page)
                if len(batch) >= max_pages:
                    break
        return batch

    def _finish_dirty_batch(self, snapshots, claimed: List[Page]) -> None:
        """Reconcile a flushed batch; always unpins every claimed page."""
        with self._lock:
            for page, _data, logs, version in snapshots:
                page.finish_writeback(version, len(logs))
                self.stats.writeback_pages += 1
            if snapshots:
                self.stats.writeback_batches += 1
            for page in claimed:
                self._inflight.discard(page.pid)
                self._unpin(page)
            self._inflight_cond.notify_all()

    # ------------------------------------------------------------------
    # Driver access (serialized for non-thread-safe drivers)
    # ------------------------------------------------------------------
    def _driver_write_page(self, pid: int, data: bytes, logs) -> None:
        if self._driver_lock is not None:
            with self._driver_lock:
                self.driver.write_page(pid, data, update_logs=logs)
        else:
            self.driver.write_page(pid, data, update_logs=logs)

    def _driver_write_pages(self, pages, update_logs=None) -> None:
        if self._driver_lock is not None:
            with self._driver_lock:
                self.driver.write_pages(pages, update_logs=update_logs)
        else:
            self.driver.write_pages(pages, update_logs=update_logs)

    def _driver_flush(self) -> None:
        if self._driver_lock is not None:
            with self._driver_lock:
                self.driver.flush()
        else:
            self.driver.flush()

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def pages(self) -> Iterator[Page]:
        with self._lock:
            return iter(list(self._frames.values()))

    def pinned_count(self) -> int:
        """Currently pinned frames (pin-pressure gauge)."""
        with self._lock:
            return sum(1 for page in self._frames.values() if page.pin_count)

    def close(self) -> None:
        """Stop the write-back daemon (if any).  Idempotent.

        Does *not* flush — :meth:`repro.storage.db.Database.close`
        flushes first, then closes the pool, then the driver.
        """
        if self._closed:
            return
        self._closed = True
        if self.writeback is not None:
            self.writeback.stop()


class _PinnedPage:
    """Context manager returned by :meth:`BufferManager.pinned`."""

    __slots__ = ("_pool", "_pid", "_page")

    def __init__(self, pool: BufferManager, pid: int):
        self._pool = pool
        self._pid = pid

    def __enter__(self) -> Page:
        self._page = self._pool.get_page(self._pid, pin=True)
        return self._page

    def __exit__(self, *exc_info) -> None:
        self._pool._unpin(self._page)
