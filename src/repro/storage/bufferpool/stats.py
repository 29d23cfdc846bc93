"""Buffer-pool accounting: the extended :class:`BufferStats`.

The original pool counted hits/misses/evictions; the production pool
additionally meters everything Experiment 7's knob actually moves:

* how evictions were served — ``clean_reclaims`` (a clean frame
  dropped, no flash write) vs ``sync_writebacks`` (a dirty frame written
  back on the client thread before it is dropped), both read off
  ``evictions`` and ``dirty_evictions``;
* the *client-visible eviction stall* — host microseconds a page access
  spent waiting on that write-back, recorded per eviction (zero for
  clean reclaims) so ``eviction_stall_p99_us`` is a tail over all
  evictions, mirroring the GC write-stall convention;
* pinned-frame pressure: ``pinned_skips`` counts victim-scan rejections,
  which climb long before the all-frames-pinned :class:`BufferError`
  cliff.

All counters are mutated under the pool lock, so reads after a quiesce
are exact.  Merged reporting lives in
:meth:`repro.flash.stats.StatsView.report`, which embeds
:meth:`BufferStats.as_dict` next to the flash totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ...flash.stats import percentile


@dataclass
class BufferStats:
    """Hit/miss/eviction/write-back accounting for one pool."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    flushes: int = 0
    #: Victim-scan candidates rejected because the frame was pinned.
    pinned_skips: int = 0
    #: Concurrent misses on one pid: the loser's duplicate flash read is
    #: discarded but still counted as a miss (misses == driver reads).
    read_races: int = 0
    #: Name of the eviction policy serving this pool.
    policy: str = "lru"
    #: Host-µs eviction stalls, one sample per eviction (zero included).
    eviction_stalls: List[float] = field(default_factory=list)
    #: Introspection counters owned by the eviction policy (parked
    #: frames, 2Q ghost promotions, ...).
    policy_counters: Dict[str, int] = field(default_factory=dict)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def clean_reclaims(self) -> int:
        """Evictions served by dropping a clean frame — no flash write."""
        return self.evictions - self.dirty_evictions

    @property
    def sync_writebacks(self) -> int:
        """Dirty evictions, each written back on the client thread."""
        return self.dirty_evictions

    @property
    def flashed_pages(self) -> int:
        """Pages this pool wrote to the driver (evictions + flushes) —
        equals the driver-level write count in the stress-test audit."""
        return self.dirty_evictions + self.flushes

    def eviction_stall_percentile(self, pct: float) -> float:
        """Nearest-rank percentile of per-eviction client stalls (host µs)."""
        return percentile(self.eviction_stalls, pct)

    @property
    def max_eviction_stall_us(self) -> float:
        return max(self.eviction_stalls, default=0.0)

    def as_dict(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": self.hit_ratio,
            "evictions": self.evictions,
            "dirty_evictions": self.dirty_evictions,
            "clean_reclaims": self.clean_reclaims,
            "sync_writebacks": self.sync_writebacks,
            "flushes": self.flushes,
            "pinned_skips": self.pinned_skips,
            "read_races": self.read_races,
            "eviction_stall_p99_us": self.eviction_stall_percentile(99),
            "eviction_stall_max_us": self.max_eviction_stall_us,
            "policy_counters": dict(self.policy_counters),
        }
