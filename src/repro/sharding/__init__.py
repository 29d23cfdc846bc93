"""Sharded multi-chip storage: scale PDL across independent flash devices.

The paper's driver is DBMS-independent so it can sit below any
page-oriented engine; this package makes it *device-count independent*
too.  A :class:`ShardedDriver` presents N per-shard drivers (each with
its own chip, allocator, GC and write buffer) as one
:class:`~repro.ftl.base.PageUpdateMethod`; a :class:`ShardRouter`
partitions the logical page space; :func:`recover_all` rebuilds every
shard's mapping tables after a crash.

* :mod:`repro.sharding.router` — hash and range partitioning, pluggable.
* :mod:`repro.sharding.driver` — the façade: every array operation
  (routing, batched group flush, fsck, aggregated wear reporting)
  stated once, each shard owned through its gate
  (:class:`ShardExecutor`; see ``docs/concurrency.md``).
* :mod:`repro.sharding.stats` — merged :class:`FlashStats` view plus
  per-chip clocks for serial-vs-parallel time accounting.
* :mod:`repro.sharding.recovery` — per-shard Figure-11 scans composed
  into array recovery.

Build sharded configurations from paper-style labels::

    from repro.flash.chip import FlashChip
    from repro.flash.spec import FlashSpec
    from repro.methods import make_method

    chips = [FlashChip(FlashSpec(n_blocks=64)) for _ in range(4)]
    driver = make_method("PDL (256B) x4", chips)
"""

from .driver import ShardedDriver, ShardExecutor
from .recovery import recover_all
from .router import HashRouter, RangeRouter, ShardRouter, make_router
from .stats import AggregateStats

__all__ = [
    "AggregateStats",
    "HashRouter",
    "RangeRouter",
    "ShardExecutor",
    "ShardRouter",
    "ShardedDriver",
    "make_router",
    "recover_all",
]
