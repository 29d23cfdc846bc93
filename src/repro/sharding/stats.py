"""Aggregated accounting across the chips of a sharded deployment.

:class:`AggregateStats` presents N per-chip :class:`FlashStats` as one —
the same read surface (``totals``, ``of_phase``, ``snapshot`` /
``delta_since``, ``reset``) the single-chip experiment code already
uses, so the workload runner and benchmarks measure a
:class:`~repro.sharding.driver.ShardedDriver` without special-casing.

Two *simulated* time metrics matter for a multi-chip array:

* **serial time** — the sum of all chips' busy time: total device work,
  what a single chip would have taken.  This is what the merged phase
  counters report, consistent with :class:`FlashStats`.
* **parallel time** — the busy time of the *busiest* chip: elapsed
  time with the chips serving their queues concurrently, the paper's
  simulated-I/O-time metric generalized to an array.  Exposed via
  :meth:`chip_clocks` (per-chip monotonic clocks):
  ``max(clock deltas)`` over a window is its parallel cost
  (``tests/integration/test_extension_claims.py`` holds the 1-vs-4
  shard ratio).

What the gates cost in *host* time is the end-to-end benchmark's
``uniform-x4-thread`` workload (see ``docs/concurrency.md``).  The
per-shard collectors merged here need no lock — each :class:`FlashStats`
is mutated only by the thread holding its shard's gate, and every
aggregate property below (op totals, stall histograms, GC step
counters) merges them on read, which is exact once the call that wrote
them has returned.

``block_erases`` concatenates the shards' per-block wear counters in
shard order, so wear reports and Figure-16-style histograms extend to
arrays unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..flash.stats import FlashStats, OpCounts, StatsSnapshot, percentile


class AggregateStats:
    """A read-mostly merged view over per-shard :class:`FlashStats`."""

    def __init__(self, shard_stats: Sequence[FlashStats]):
        if not shard_stats:
            raise ValueError("AggregateStats needs at least one shard")
        self._shards = list(shard_stats)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    @property
    def phases(self) -> Dict[str, OpCounts]:
        """Per-phase counters summed over all shards.

        Iterates each shard's locked :meth:`FlashStats.phase_items`
        snapshot, so a monitoring thread never races a client creating
        its first bucket for a phase name.
        """
        merged: Dict[str, OpCounts] = {}
        for stats in self._shards:
            for name, counts in stats.phase_items():
                merged[name] = merged.get(name, OpCounts()).add(counts)
        return merged

    @property
    def block_erases(self) -> List[int]:
        """Per-block erase counts, shards concatenated in order."""
        flat: List[int] = []
        for stats in self._shards:
            flat.extend(stats.block_erases)
        return flat

    def totals(self) -> OpCounts:
        total = OpCounts()
        for stats in self._shards:
            total = total.add(stats.totals())
        return total

    def of_phase(self, name: str) -> OpCounts:
        total = OpCounts()
        for stats in self._shards:
            total = total.add(stats.of_phase(name))
        return total

    @property
    def total_time_us(self) -> float:
        return self.totals().time_us

    @property
    def total_erases(self) -> int:
        return self.totals().erases

    # ------------------------------------------------------------------
    # GC / write-stall aggregation
    # ------------------------------------------------------------------
    @property
    def write_stall_us(self) -> List[float]:
        """Per-write GC stall samples pooled across all shards."""
        merged: List[float] = []
        for stats in self._shards:
            merged.extend(stats.write_stall_us)
        return merged

    def write_stall_percentile(self, pct: float) -> float:
        """Nearest-rank stall percentile over the pooled samples — the
        array-level tail, since a client write lands on exactly one
        shard and stalls only on that shard's collector."""
        return percentile(self.write_stall_us, pct)

    @property
    def max_write_stall_us(self) -> float:
        return max((s.max_write_stall_us for s in self._shards), default=0.0)

    @property
    def gc_steps(self) -> int:
        return sum(stats.gc_steps for stats in self._shards)

    @property
    def gc_step_pages(self) -> int:
        return sum(stats.gc_step_pages for stats in self._shards)

    # ------------------------------------------------------------------
    # Integrity aggregation
    # ------------------------------------------------------------------
    @property
    def checksum_checks(self) -> int:
        return sum(stats.checksum_checks for stats in self._shards)

    @property
    def checksum_failures(self) -> int:
        return sum(stats.checksum_failures for stats in self._shards)

    # ------------------------------------------------------------------
    # Mapping-tier aggregation (demand-paged translation cache)
    # ------------------------------------------------------------------
    @property
    def mapping_hits(self) -> int:
        return sum(stats.mapping_hits for stats in self._shards)

    @property
    def mapping_misses(self) -> int:
        return sum(stats.mapping_misses for stats in self._shards)

    @property
    def mapping_writebacks(self) -> int:
        return sum(stats.mapping_writebacks for stats in self._shards)

    # ------------------------------------------------------------------
    # Merged reporting (flash totals + optional buffer-pool counters)
    # ------------------------------------------------------------------
    def report(self, buffer_stats=None) -> Dict[str, object]:
        """One dict with the array's flash totals and tail metrics.

        ``buffer_stats`` — a
        :class:`~repro.storage.bufferpool.stats.BufferStats` — embeds
        the buffer-pool view under ``"buffer"``, so a workload report
        shows cache behaviour, write-back activity and eviction stalls
        next to the device traffic they caused (the Experiment-7
        coupling, as one artifact).
        """
        totals = self.totals()
        out: Dict[str, object] = {
            "n_shards": len(self._shards),
            "reads": totals.reads,
            "writes": totals.writes,
            "erases": totals.erases,
            "io_time_us": totals.time_us,
            "write_stall_p99_us": self.write_stall_percentile(99),
            "write_stall_max_us": self.max_write_stall_us,
            "gc_steps": self.gc_steps,
            "gc_step_pages": self.gc_step_pages,
            "checksum_checks": self.checksum_checks,
            "checksum_failures": self.checksum_failures,
            "mapping_hits": self.mapping_hits,
            "mapping_misses": self.mapping_misses,
            "mapping_writebacks": self.mapping_writebacks,
        }
        if buffer_stats is not None:
            out["buffer"] = buffer_stats.as_dict()
        return out

    # ------------------------------------------------------------------
    # Snapshots (the steady-state measurement window protocol)
    # ------------------------------------------------------------------
    def snapshot(self) -> StatsSnapshot:
        return StatsSnapshot(
            phases={name: counts.copy() for name, counts in self.phases.items()},
            block_erases=self.block_erases,
        )

    def delta_since(self, snap: StatsSnapshot) -> StatsSnapshot:
        phases: Dict[str, OpCounts] = {}
        for name, counts in self.phases.items():
            before = snap.phases.get(name, OpCounts())
            diff = counts.sub(before)
            if diff.total_ops or diff.time_us:
                phases[name] = diff
        erases = [
            now - then for now, then in zip(self.block_erases, snap.block_erases)
        ]
        return StatsSnapshot(phases=phases, block_erases=erases)

    def reset(self) -> None:
        for stats in self._shards:
            stats.reset()
