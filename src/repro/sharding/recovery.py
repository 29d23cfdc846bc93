"""Sharded crash recovery: rebuild every shard's tables, route by the same hash.

After a power failure the array's volatile state — every shard's
physical page mapping table, valid differential count table, allocator
pools and write buffer — is gone.  :func:`recover_all` runs Figure 11's
single-chip reconstruction (:func:`repro.core.recovery.recover_driver`)
over each chip independently and reassembles a working
:class:`~repro.sharding.driver.ShardedDriver` on top.

Two properties make this composition sound:

* shard drivers index their tables by *global* pid, so a shard's scan
  rebuilds exactly the entries the hash will route back to it — no
  cross-shard reconciliation is needed;
* the partition is the **same stable hash** before and after the crash:
  it depends on nothing but the shard count, so there is no routing
  state to persist on flash.

The per-chip scans are independent (each reads only its own chip) and
run one after another on the calling thread (``docs/concurrency.md``
says why there are no worker threads).
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

from ..core.recovery import RecoveryReport, recover_driver
from ..flash.chip import FlashChip
from .driver import ShardedDriver

__all__ = ["RecoveryReport", "recover_all", "recover_driver"]


def recover_all(
    chips: Sequence[FlashChip], **fields: Any
) -> Tuple[ShardedDriver, List[RecoveryReport]]:
    """Rebuild a sharded PDL array from post-crash flash contents.

    ``chips`` are the shard chips in shard order; the array routes by
    the hash partition over ``len(chips)`` shards, as it did before the
    crash.  ``fields`` are :class:`~repro.config.EngineConfig`
    fields (``max_differential_size``, ``gc``, ``mapping_cache``, …);
    :meth:`~repro.config.EngineConfig.recover`
    does the work.  Returns the operational driver plus one
    :class:`RecoveryReport` per shard, in shard order.
    """
    from ..config import EngineConfig  # config.py builds on this package's drivers

    chips = list(chips)
    return EngineConfig.of(**{"n_shards": len(chips), **fields}).recover(chips)
