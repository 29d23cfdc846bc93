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

The per-chip scans are independent (each reads only its own chip) and
run one after another on the calling thread (``docs/concurrency.md``
says why there are no worker threads).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from ..core.recovery import RecoveryReport, recover_driver
from ..flash.chip import FlashChip
from .driver import ShardedDriver
from .router import ShardRouter

__all__ = ["RecoveryReport", "recover_all", "recover_driver"]


def recover_all(
    chips: Sequence[FlashChip], router: Optional[ShardRouter] = None, **fields: Any
) -> Tuple[ShardedDriver, List[RecoveryReport]]:
    """Rebuild a sharded PDL array from post-crash flash contents.

    ``chips`` are the shard chips in shard order; ``router`` must match
    the pre-crash partition (defaults to :class:`HashRouter` over
    ``len(chips)`` shards, the :func:`repro.methods.make_method`
    default).  ``fields`` are :class:`~repro.config.EngineConfig`
    fields (``max_differential_size``, ``gc``, ``mapping_cache``, …);
    :meth:`~repro.config.EngineConfig.recover`
    does the work.  Returns the operational driver plus one
    :class:`RecoveryReport` per shard, in shard order.
    """
    from ..config import EngineConfig  # config.py builds on this package's drivers

    chips = list(chips)
    return EngineConfig.of(**{"n_shards": len(chips), **fields}).recover(chips, router)
