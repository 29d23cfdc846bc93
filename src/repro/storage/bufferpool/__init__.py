"""The buffer-pool subsystem: pluggable eviction, pinning, write-back.

Grown out of the original single-file LRU pool: an eviction-policy
registry mirroring the GC victim-policy registry (``lru``,
scan-resistant ``2q``) and thread-safe frame pinning for many client
threads over one driver.  A dirty frame is written back only when it
has to be: on eviction, ``flush_page`` or ``flush_all``.  See
``docs/bufferpool.md``.
"""

from .manager import BufferError, BufferManager
from .policy import (
    EvictionPolicy,
    LruPolicy,
    TwoQPolicy,
    eviction_policy_names,
    make_eviction_policy,
    register_eviction_policy,
)
from .stats import BufferStats

__all__ = [
    "BufferError",
    "BufferManager",
    "BufferStats",
    "EvictionPolicy",
    "LruPolicy",
    "TwoQPolicy",
    "eviction_policy_names",
    "make_eviction_policy",
    "register_eviction_policy",
]
