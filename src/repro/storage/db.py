"""The database façade: buffer pool + logical page allocation.

This is the thin "storage system" of Figure 10: a page-oriented engine
that neither knows nor cares which page-update method sits below it.
Heap files and B+trees allocate logical pages here; all page traffic
flows through the LRU buffer pool, whose dirty evictions and misses are
the flash I/O the paper measures in Experiment 7.

The driver may just as well be a
:class:`~repro.sharding.driver.ShardedDriver` spanning many chips — the
engine is oblivious (``Database.flush`` then performs a batched group
flush across every shard), which is the paper's DBMS-independence
argument extended to device-count independence.

Persistence: :meth:`Database.open` binds the engine to a directory of
:class:`~repro.flash.backend.FileBackend` images (one per shard, plus a
small JSON manifest holding the configuration that is *deployment*
state rather than flash state: shard count, routing kind, chip
geometry).  Opening an existing directory reconstructs the drivers from
the images alone via the paper's Figure-11 spare-area scan — there is
deliberately no sidecar file of mapping tables, because the paper's
recovery claim is that flash *is* the recovery log.  The logical
allocation horizon is likewise re-derived from the recovered mapping
tables (the highest recovered pid), matching the crash semantics of the
rest of the system: pages allocated but never flushed were never
durable and simply do not exist after a restart.
"""

from __future__ import annotations

import json
import os
import threading
from typing import List, Optional

from ..flash.backend import BackendError, FileBackend
from ..flash.chip import FlashChip
from ..ftl.base import PageUpdateMethod
from ..ftl.errors import UnallocatedPageError
from ..sharding.driver import ShardedDriver
from .bufferpool import BufferManager, BufferStats
from .page import Page

#: Name of the per-database configuration manifest.
MANIFEST_NAME = "manifest.json"

#: On-disk manifest format version.
MANIFEST_VERSION = 1


def _read_manifest(manifest_path: str) -> dict:
    """The manifest as written; anything else is a loud
    :class:`BackendError` — never a reason to treat the images as new."""
    with open(manifest_path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BackendError(f"manifest {manifest_path!r} is not JSON ({exc})") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_VERSION:
        found = manifest.get("format") if isinstance(manifest, dict) else type(manifest).__name__
        raise BackendError(
            f"manifest {manifest_path!r} has format {found!r}, expected {MANIFEST_VERSION}"
        )
    return manifest


def _write_manifest(manifest_path: str, manifest: dict) -> None:
    """Atomically: a creation that dies mid-write leaves no manifest at
    all (the images are then started over), never half of one."""
    tmp_path = manifest_path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp_path, manifest_path)


class Database:
    """A minimal page-based database instance."""

    def __init__(
        self,
        driver: PageUpdateMethod,
        buffer_capacity: int,
        *,
        buffer_policy: str = "lru",
    ):
        self.driver = driver
        self.pool = BufferManager(driver, buffer_capacity, policy=buffer_policy)
        self.page_size = driver.page_size
        self._next_pid = 0
        #: Guards the allocation horizon: clients may share one engine
        #: across threads (see docs/bufferpool.md), so handing out the
        #: same pid twice must be impossible.
        self._alloc_lock = threading.Lock()
        self._closed = False
        #: Directory this database persists to; None for volatile setups.
        self.path: Optional[str] = None

    @classmethod
    def resume(
        cls,
        driver: PageUpdateMethod,
        buffer_capacity: int,
        allocated_pages: int,
        *,
        buffer_policy: str = "lru",
    ) -> "Database":
        """Re-attach to an existing (e.g. just-recovered) driver.

        ``allocated_pages`` restores the logical page allocation horizon
        the engine had reached before the crash; pages above it were
        never handed out and stay unreachable.
        """
        if allocated_pages < 0:
            raise ValueError("allocated_pages must be non-negative")
        db = cls(driver, buffer_capacity, buffer_policy=buffer_policy)
        db._next_pid = allocated_pages
        return db

    # ------------------------------------------------------------------
    # Persistent open / close
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, path: "str | os.PathLike", **fields) -> "Database":
        """Open (or create) a persistent PDL database at ``path``.

        ``path`` is a directory of one
        :class:`~repro.flash.backend.FileBackend` image per shard plus a
        JSON manifest; ``fields`` are :class:`~repro.config.EngineConfig`
        fields, documented there (table: ``docs/architecture.md``,
        "Configuration").  Without a manifest a database is created and
        its *durable* fields recorded; with one, each image is recovered
        and the engine resumes the durable state a previous process
        flushed — durable fields come from the manifest (passing a
        contradicting value raises
        :class:`~repro.ftl.errors.ConfigurationError`), the retunable
        ones are this process's to pass again.  Everything is validated
        before anything is created or opened.
        """
        from ..config import EngineConfig  # config.py builds on this package's pool table

        path = os.fspath(path)
        manifest_path = os.path.join(path, MANIFEST_NAME)
        stored = _read_manifest(manifest_path) if os.path.exists(manifest_path) else None
        config = EngineConfig.for_database(stored, path, **fields)
        os.makedirs(path, exist_ok=True)
        chips: List[FlashChip] = []
        driver: Optional[PageUpdateMethod] = None
        try:
            for i in range(config.n_chips):
                image = os.path.join(path, f"shard-{i:04d}.flash")
                if stored is None and os.path.exists(image):
                    # An image without a manifest is a creation that died
                    # before the manifest write: the database never
                    # existed, so start over rather than resurrect it.
                    os.remove(image)
                opener = FileBackend.create if stored is None else FileBackend.open
                chips.append(FlashChip(config.spec, backend=opener(image, config.spec)))
            if stored is None:
                driver = config.build(chips)
                _write_manifest(manifest_path, {"format": MANIFEST_VERSION, **config.manifest()})
            else:
                driver, _reports = config.recover(chips)
            db = cls.resume(
                driver,
                config.buffer_capacity,
                _allocation_horizon(driver),
                buffer_policy=config.buffer_policy,
            )
        except BaseException:
            # Whatever was opened so far is released before the error
            # propagates (a driver closes its own chips).
            if driver is not None:
                driver.close()
            else:
                for chip in chips:
                    chip.close()
            raise
        db.path = path
        return db

    def close(self) -> None:
        """Flush everything durable, then release the device backends.

        Safe to call twice.  After ``close`` the database (and its
        driver) must not be used — fetching, allocating or flushing a
        page raises :class:`~repro.storage.page.BufferError`; reopen with
        :meth:`open`.
        """
        if self._closed:
            return
        try:
            self.flush()
        finally:
            # Even when the flush raises, the pool is retired and the
            # device backends are released (drivers close their chips).
            self.pool.close()
            self.driver.close()
            self._closed = True

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Page management
    # ------------------------------------------------------------------
    def allocate_page(self) -> Page:
        """Create a fresh, zero-filled logical page (dirty in the pool)."""
        with self._alloc_lock:
            pid = self._next_pid
            self._next_pid += 1
        return self.pool.create_page(pid, bytes(self.page_size))

    def page(self, pid: int) -> Page:
        """Fetch a page through the buffer pool.

        Raises :class:`UnallocatedPageError` (not a bare ``ValueError``)
        for ids outside the allocated space, so callers can tell a
        missing page apart from routing or mapping corruption below.
        """
        if not 0 <= pid < self._next_pid:
            raise UnallocatedPageError(
                f"logical page {pid} was never allocated "
                f"(allocation horizon is {self._next_pid})"
            )
        return self.pool.get_page(pid)

    @property
    def allocated_pages(self) -> int:
        return self._next_pid

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Write back all dirty pages and the driver's buffers."""
        self.pool.flush_all()

    def fsck(self, repair: bool = True):
        """Scan the device(s) for single-page corruption and repair online.

        Dirty pages are flushed first so the scan sees the engine's full
        durable state, and the buffer pool's clean cache is dropped
        afterwards so no repaired (or lost) page is shadowed by a stale
        in-memory copy.  Returns a :class:`~repro.core.fsck.FsckReport`
        (merged across shards for sharded engines).
        """
        self.flush()
        report = self.driver.fsck(repair=repair)
        if repair:
            self.pool.clear()
        return report

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def buffer_stats(self) -> BufferStats:
        return self.pool.stats

    def report(self) -> dict:
        """Merged flash + buffer-pool report (one dict for dashboards).

        Flash totals, stall tails and counters come from the driver's
        stats (:meth:`repro.flash.stats.StatsView.report`, the same for
        one chip and an array), with the extended :class:`BufferStats`
        embedded under ``"buffer"``.
        """
        return self.driver.stats.report(buffer_stats=self.pool.stats)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Database pages={self._next_pid} buffer={self.pool.capacity} "
            f"driver={self.driver.name}>"
        )


def _allocation_horizon(driver: PageUpdateMethod) -> int:
    """Highest recovered pid + 1: the durable logical allocation horizon."""
    shards = driver.shards if isinstance(driver, ShardedDriver) else [driver]
    return max(shard.ppmt.max_pid for shard in shards) + 1
