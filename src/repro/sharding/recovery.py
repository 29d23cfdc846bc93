"""Sharded crash recovery: rebuild every shard's tables, reuse the router.

After a power failure the array's volatile state — every shard's
physical page mapping table, valid differential count table, allocator
pools and write buffer — is gone.  :func:`recover_all` runs Figure 11's
single-chip reconstruction (:func:`repro.core.recovery.recover_driver`)
over each chip independently and reassembles a working
:class:`~repro.sharding.driver.ShardedDriver` on top.

Two properties make this composition sound:

* shard drivers index their tables by *global* pid, so a shard's scan
  rebuilds exactly the entries the router will route back to it — no
  cross-shard reconciliation is needed;
* the router must be the **same stable partition** used before the
  crash (same kind, same shard count, same parameters).  Routing is
  pure configuration, not state, so callers persist it as part of
  deployment config rather than on flash.

The per-chip scans are independent (each reads only its own chip), so
they can run concurrently: ``recover_all(..., parallel=True)`` executes
the Figure-11 scans on one worker thread per shard and returns a
:class:`~repro.sharding.executor.ParallelShardedDriver`, making the
1/N-of-~60 s/GB recovery estimate a *measured* wall-clock property
rather than a modeling claim (``benchmarks/bench_parallel.py`` records
the serial-vs-threaded scan times; see ``docs/concurrency.md``).
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Sequence, Tuple

from ..core.recovery import RecoveryReport, recover_driver
from ..flash.chip import FlashChip
from ..ftl.errors import ConfigurationError
from .driver import ShardedDriver
from .executor import Parallel, ParallelShardedDriver, ShardExecutor, check_parallel
from .router import HashRouter, ShardRouter


def recover_all(
    chips: Sequence[FlashChip],
    router: Optional[ShardRouter] = None,
    max_differential_size: int = 256,
    parallel: Parallel = False,
    **driver_kwargs,
) -> Tuple[ShardedDriver, List[RecoveryReport]]:
    """Rebuild a sharded PDL array from post-crash flash contents.

    ``chips`` are the shard chips in shard order; ``router`` must match
    the pre-crash partition (defaults to :class:`HashRouter` over
    ``len(chips)`` shards, the :func:`repro.methods.make_method`
    default).  Remaining keyword arguments are forwarded to each
    shard's :func:`recover_driver` (e.g. ``coalesce_gap``,
    ``victim_policy``).

    With ``parallel=True`` (or ``parallel="thread"``) the per-shard
    scans run concurrently on a
    :class:`~repro.sharding.executor.ShardExecutor` (one worker per
    chip — each scan reads and heals only its own device, so the scans
    share nothing), and the worker pool is kept to drive the returned
    :class:`~repro.sharding.executor.ParallelShardedDriver`.

    Returns the operational driver plus one :class:`RecoveryReport` per
    shard, in shard order.
    """
    threaded = check_parallel(parallel)
    chips = list(chips)
    if not chips:
        raise ConfigurationError("recover_all needs at least one chip")
    if router is not None and router.n_shards != len(chips):
        raise ConfigurationError(
            f"router partitions {router.n_shards} shards but {len(chips)} "
            "chips were supplied"
        )
    router = router or HashRouter(len(chips))
    scans = [
        partial(
            recover_driver,
            chip,
            max_differential_size=max_differential_size,
            **driver_kwargs,
        )
        for chip in chips
    ]
    if threaded:
        executor = ShardExecutor(len(chips))
        try:
            recovered = executor.map(list(enumerate(scans)))
        except BaseException:
            executor.shutdown()
            raise
        build = partial(ParallelShardedDriver, executor=executor)
    else:
        recovered = [scan() for scan in scans]
        build = ShardedDriver
    shards, reports = zip(*recovered)
    return build(shards, router), list(reports)
