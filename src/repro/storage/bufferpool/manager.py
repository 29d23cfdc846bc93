"""The production buffer pool: thread-safe frames over a page-update driver.

This is the DBMS buffer of the paper's Experiment 7 grown into a
subsystem: pluggable eviction (:mod:`.policy`) and thread-safe pinning.
A dirty frame reaches flash only when it has to — on its eviction, on
:meth:`BufferManager.flush_page` or on :meth:`BufferManager.flush_all` —
which is the paper's rule of writing a page's differential once, at the
time the page needs to be reflected into flash.  With
``policy="lru"`` its flash behaviour is byte-identical to the original
148-line synchronous LRU pool, which keeps every paper experiment
faithful.

Locking model (see ``docs/bufferpool.md``):

* one pool lock (re-entrant) guards the frame table, the eviction
  policy, the stats and resident frames' pin counts — every public
  entry point takes it;
* per-page latches order page writes, never a read (:class:`~repro
  .storage.page.Page`); the ordering is always ``pool lock → page
  latch(es) → driver lock / shard gate``, and nothing reaches back up
  it — only the pool-lock holder ever holds more than one latch (the
  batch of :meth:`BufferManager.flush_all`), and no latch holder waits
  on the pool lock or on another latch;
* flash **reads** for misses happen *outside* the pool lock so client
  threads miss concurrently on a sharded driver; a lost race discards
  the duplicate read and counts it in ``stats.read_races``;
* flash **writes** — dirty evictions and flushes — run under the pool
  lock with the written frames' latches held, a synchronous stall
  recorded per eviction in ``stats.eviction_stalls``.

A bare driver (a :class:`~repro.core.pdl.PdlDriver`, say) is not
thread-safe, so every call into one is serialized through an internal
driver lock.  A :class:`~repro.sharding.driver.ShardedDriver` needs no
such lock — its per-shard gates are the serialization.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterator, Optional, Union

from ...ftl.base import PageUpdateMethod
from ...sharding.driver import ShardedDriver
from ..page import BufferError, Page
from .policy import EvictionPolicy, make_eviction_policy
from .stats import BufferStats


class BufferManager:
    """A fixed-capacity buffer pool over a page-update driver."""

    def __init__(
        self,
        driver: PageUpdateMethod,
        capacity: int,
        *,
        policy: Union[str, EvictionPolicy] = "lru",
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
        #: Per-pid eviction generation: lets a miss read that ran
        #: outside the lock detect an admit+evict cycle of the same pid
        #: (its image may be stale) and retry instead of admitting it.
        self._evict_gen: Dict[int, int] = {}

        #: A bare driver is not thread-safe: every call into it goes
        #: through this lock.  Sharded drivers serialize at their gates.
        self._driver_lock: Optional[threading.Lock] = (
            None if isinstance(driver, ShardedDriver) else threading.Lock()
        )
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
        misses on *different* pages overlap on a sharded driver.  Two
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
                if self._closed:
                    raise self._closed_error("get_page", pid)
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
            if self._closed:
                raise self._closed_error("create_page", pid)
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
        """Resident dirty pages."""
        with self._lock:
            return sum(1 for page in self._frames.values() if page.dirty)

    def clear(self) -> int:
        """Drop every clean, unpinned frame; returns how many were dropped.

        Used after device-level repair (``Database.fsck``): cached page
        images may no longer match what the driver would serve, so the
        pool forgets them and re-reads on demand.  Dirty or pinned pages
        are kept — dropping unwritten changes or a page a client holds
        is never safe here.
        """
        with self._lock:
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
            if self._closed:
                raise self._closed_error("flush_page", pid)
            page = self._frames.get(pid)
            if page is not None and page.dirty:
                self._write_back_locked(page)
                self.stats.flushes += 1

    def flush_all(self) -> None:
        """Write back every dirty page and the driver's own buffers.

        The durability point, written the way an eviction writes one
        page: under the pool lock, each dirty frame's latch is taken in
        cold-to-hot policy order (LRU order, as always) and held across
        one ``write_pages`` of the batch and the driver's ``flush``; then
        the logs are cleared and the latches released.  A client writing
        through a pinned handle meanwhile waits for the batch and then
        dirties the page again, so "flush returned" covers exactly the
        writes that completed before it was called.  An empty batch
        still flushes the driver.
        """
        with self._lock:
            if self._closed:
                raise self._closed_error("flush_all")
            dirty = [
                self._frames[pid]
                for pid in self.policy.iter_pids()
                if pid in self._frames and self._frames[pid].dirty
            ]
            for page in dirty:
                page.latch.acquire()
            try:
                batch = [(page.pid, page.data) for page in dirty]
                logs = None
                if self._logged:
                    logs = {page.pid: page.change_log for page in dirty}
                if self._driver_lock is None:
                    if batch:
                        self.driver.write_pages(batch, update_logs=logs)
                    self.driver.flush()
                else:
                    with self._driver_lock:
                        if batch:
                            self.driver.write_pages(batch, update_logs=logs)
                        self.driver.flush()
                for page in dirty:
                    page.clear_log()
                    self.stats.flushes += 1
            finally:
                for page in dirty:
                    page.latch.release()

    def _write_back_locked(self, page: Page) -> None:
        """Synchronous single-page write-back (pool lock held).

        The page latch is held across the driver call, so a concurrent
        writer cannot slip a change between the image written and the
        log clear.
        """
        with page.latch:
            logs = page.change_log if self._logged else None
            if self._driver_lock is None:
                self.driver.write_page(page.pid, page.data, update_logs=logs)
            else:
                with self._driver_lock:
                    self.driver.write_page(page.pid, page.data, update_logs=logs)
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
        # The frame is only removed after a successful write-back: a
        # raising driver abandons the eviction with the page still
        # dirty and resident instead of dropping it on the floor.
        pid = self.policy.select_victim(self._pin_evictable)
        if pid is None:
            raise BufferError("all buffer frames are pinned")
        victim = self._frames[pid]
        if victim.dirty:
            self.stats.dirty_evictions += 1
            start = time.perf_counter()
            try:
                self._write_back_locked(victim)
            finally:
                self.stats.eviction_stalls.append(
                    (time.perf_counter() - start) * 1e6
                )
        else:
            self.stats.eviction_stalls.append(0.0)
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

    # ------------------------------------------------------------------
    # Pins (pool lock)
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
        """Retire the pool.  Idempotent.

        Afterwards ``get_page``, ``create_page``, ``flush_page`` and
        ``flush_all`` raise :class:`BufferError` instead of buffering a
        write that would never land, and every resident frame is
        detached: a handle fetched before the close raises the stale
        :class:`BufferError` on ``pin`` or ``write``, as an evicted
        frame's does.  Does *not* flush —
        :meth:`repro.storage.db.Database.close` flushes first, then
        closes the pool, then the driver.
        """
        with self._lock:
            self._closed = True
            for page in self._frames.values():
                page.detach()

    def _closed_error(self, action: str, pid: Optional[int] = None) -> BufferError:
        target = "" if pid is None else f" of page {pid}"
        return BufferError(f"{action}{target} on a closed buffer pool")


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
