"""The buffer-pool subsystem: pluggable eviction, pinning, write-back.

Grown out of the original single-file LRU pool: an eviction-policy
registry mirroring
the GC victim-policy registry (``lru``, ``clock``, scan-resistant
``2q``), thread-safe frame pinning for many client threads over one
driver, and a watermark-driven background write-back daemon that
batches dirty pages through the driver so hot-path evictions almost
never wait on flash.  See ``docs/bufferpool.md``.
"""

from .manager import BufferError, BufferManager
from .policy import (
    ClockPolicy,
    EvictionPolicy,
    LruPolicy,
    TwoQPolicy,
    eviction_policy_names,
    make_eviction_policy,
    register_eviction_policy,
)
from .stats import BufferStats
from .writeback import WritebackConfig, WritebackDaemon, normalize_writeback

__all__ = [
    "BufferError",
    "BufferManager",
    "BufferStats",
    "ClockPolicy",
    "EvictionPolicy",
    "LruPolicy",
    "TwoQPolicy",
    "WritebackConfig",
    "WritebackDaemon",
    "eviction_policy_names",
    "make_eviction_policy",
    "normalize_writeback",
    "register_eviction_policy",
]
