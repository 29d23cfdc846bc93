"""Errors raised by the FTL layer (drivers, allocator, GC)."""

from __future__ import annotations

from ..flash.errors import FlashError


class FtlError(FlashError):
    """Base class for FTL-layer failures."""


class OutOfSpaceError(FtlError):
    """No free page can be produced, even after garbage collection.

    Raised when the chip is genuinely full of valid data — typically a
    sign the workload exceeded the provisioned utilization (the paper
    loads the database at ~25 % of chip capacity).
    """


class UnknownPageError(FtlError):
    """A logical page id was read before ever being loaded or written."""


class UnallocatedPageError(UnknownPageError):
    """A logical page id outside the allocated id space was requested.

    Raised by the storage layer (:meth:`repro.storage.db.Database.page`)
    and by sharded routing checks, so "the caller asked for a page that
    does not exist" is distinguishable from driver-internal mapping
    corruption (plain :class:`UnknownPageError`) and from arbitrary
    caller bugs (:class:`ValueError`)."""


class ConfigurationError(FtlError):
    """A driver was configured inconsistently with the chip geometry."""


class ConcurrencyError(FtlError):
    """The thread-execution contract of the sharding layer was violated.

    Raised when shard state is touched by a thread that does not own
    the shard — e.g. a GC engine guarded by a shard's gate sees its write
    hooks run without it — or when a closed array's
    :class:`~repro.sharding.driver.ShardExecutor` is called.  Single-writer-per-
    shard is what lets the drivers stay lock-free; see
    ``docs/concurrency.md``.
    """
