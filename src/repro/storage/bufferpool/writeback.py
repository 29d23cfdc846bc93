"""Watermark-driven background write-back for the buffer pool.

The flash-resident-cache line of work (arXiv:1208.0289) decouples cache
eviction from device writes: a flusher thread cleans dirty frames *ahead*
of demand so the eviction hot path almost always finds a clean frame to
drop for free.  :class:`WritebackDaemon` is that flusher:

* it sleeps until the pool's dirty count crosses the **high watermark**
  (or an eviction that found no clean frame kicks it);
* it then drains cold dirty pages down to the **low watermark**, in
  batches, through the driver's batched ``write_pages`` path — on a
  :class:`~repro.sharding.executor.ParallelShardedDriver` that single
  call groups the batch by shard and fans it out across the shard
  executor's workers, so an N-shard array cleans N batches of frames in
  the wall-clock time of one;
* the flash write happens **off every lock**: pages are pinned and
  snapshotted first (pin ⇒ the pool cannot evict them mid-flight), and
  reconciled afterwards — a page whose version moved while its snapshot
  was in flight keeps its residual log and stays dirty.

Ordering vs. crash semantics: the daemon only ever writes page images
that the client already completed (`Page.write` is atomic under the page
latch), and a durability point (``flush_all`` / ``Database.flush``)
first *pauses* the daemon, waits out its in-flight batch, then flushes
the remainder synchronously — so "flush returned" means exactly what it
meant without the daemon.  See ``docs/bufferpool.md``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .manager import BufferManager


@dataclass(frozen=True)
class WritebackConfig:
    """Tuning for one pool's background write-back.

    Watermarks are fractions of the pool capacity: the daemon wakes when
    the dirty count reaches ``high_watermark × capacity`` and drains cold
    dirty pages until it falls to ``low_watermark × capacity``, flushing
    at most ``max_batch_pages`` per driver call so one batch never
    monopolizes the shard executor.
    """

    high_watermark: float = 0.5
    low_watermark: float = 0.25
    max_batch_pages: int = 64

    def __post_init__(self) -> None:
        if not 0.0 < self.high_watermark <= 1.0:
            raise ValueError("high_watermark must be in (0, 1]")
        if not 0.0 <= self.low_watermark < self.high_watermark:
            raise ValueError("low_watermark must be in [0, high_watermark)")
        if self.max_batch_pages < 1:
            raise ValueError("max_batch_pages must be at least 1")

    def high_pages(self, capacity: int) -> int:
        return max(1, int(capacity * self.high_watermark))

    def low_pages(self, capacity: int) -> int:
        return min(int(capacity * self.low_watermark), self.high_pages(capacity) - 1)


def normalize_writeback(value) -> Optional[WritebackConfig]:
    """Coerce the ``writeback=`` knob into a config (or None for sync).

    Accepted: ``None``/``False``/``"sync"`` → synchronous write-back (the
    historical behaviour, no daemon); ``True``/``"background"`` → default
    watermarks; a :class:`WritebackConfig` → itself.
    """
    if value is None or value is False or value == "sync":
        return None
    if value is True or value == "background":
        return WritebackConfig()
    if isinstance(value, WritebackConfig):
        return value
    raise ValueError(
        f"writeback must be None, 'sync', 'background', True/False or a "
        f"WritebackConfig, got {value!r}"
    )


class WritebackDaemon:
    """The flusher thread bound to one :class:`BufferManager`."""

    def __init__(self, pool: "BufferManager", config: WritebackConfig):
        self._pool = pool
        self.config = config
        self._cond = pool._dirty_cond  # shared with the dirty counter
        self._stop = False
        self._kicked = False
        self._pause_depth = 0
        self._in_batch = False
        #: First driver exception raised inside the daemon, re-raised at
        #: the next durability point instead of dying silently.
        self.error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="bufferpool-writeback", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # Signals (callers hold the dirty lock only where noted)
    # ------------------------------------------------------------------
    def notify(self) -> None:
        """Dirty count changed; caller already holds the dirty lock."""
        self._cond.notify_all()

    def kick(self) -> None:
        """Emergency wake from the eviction path (no clean frame left)."""
        with self._cond:
            self._kicked = True
            self._cond.notify_all()

    def pause(self) -> None:
        """Block new batches and wait out the in-flight one (re-entrant)."""
        with self._cond:
            self._pause_depth += 1
            while self._in_batch:
                self._cond.wait()

    def resume(self) -> None:
        with self._cond:
            if self._pause_depth > 0:
                self._pause_depth -= 1
            self._cond.notify_all()

    def stop(self) -> None:
        """Stop the thread; idempotent, pending batch completes first."""
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        self._thread.join()

    @property
    def running(self) -> bool:
        return self._thread.is_alive()

    # ------------------------------------------------------------------
    # The flusher loop
    # ------------------------------------------------------------------
    def _should_run(self) -> bool:
        # Called with the dirty condition held: read the raw counter —
        # the public ``dirty_count`` property would re-take the
        # (non-reentrant) dirty lock and self-deadlock.
        pool = self._pool
        return pool._dirty_count >= self.config.high_pages(pool.capacity)

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._stop and (
                    self._pause_depth > 0
                    or (not self._kicked and not self._should_run())
                ):
                    self._cond.wait()
                if self._stop:
                    return
                self._kicked = False
                self._in_batch = True
            try:
                # Drain batch after batch until the dirty count reaches
                # the low watermark (or a pause/stop interrupts) — one
                # wake-up cleans the whole surplus, not one batch of it.
                while True:
                    flushed = self._flush_batch()
                    with self._cond:
                        if (
                            flushed == 0
                            or self._stop
                            or self._pause_depth > 0
                            or self._pool._dirty_count
                            <= self.config.low_pages(self._pool.capacity)
                        ):
                            break
            except BaseException as exc:  # surfaced at the next flush_all
                if self.error is None:
                    self.error = exc
                with self._cond:
                    self._in_batch = False
                    self._stop = True
                    self._cond.notify_all()
                return
            with self._cond:
                self._in_batch = False
                self._cond.notify_all()

    def _flush_batch(self) -> int:
        """Claim and flush one batch; returns the pages flushed."""
        pool = self._pool
        target = self.config.low_pages(pool.capacity)
        surplus = pool.dirty_count - target
        if surplus <= 0:
            return 0
        batch = pool._claim_dirty_batch(min(surplus, self.config.max_batch_pages))
        if not batch:
            return 0
        snapshots: List[Tuple] = []
        written = False
        try:
            for page in batch:
                data, logs, version = page.writeback_snapshot()
                snapshots.append((page, data, logs, version))
            update_logs = None
            if pool._logged:
                update_logs = {page.pid: logs for page, _d, logs, _v in snapshots}
            # The flash write itself: off every pool/page lock.  On a
            # parallel sharded driver this groups by shard and joins the
            # shard workers; only this daemon thread waits.
            pool._driver_write_pages(
                [(page.pid, data) for page, data, _l, _v in snapshots],
                update_logs=update_logs,
            )
            written = True
        finally:
            # On failure the snapshots never reached flash: pages are
            # unpinned but keep their dirty state and full logs.
            pool._finish_dirty_batch(snapshots if written else [], claimed=batch)
        return len(batch)
