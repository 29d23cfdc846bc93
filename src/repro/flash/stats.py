"""Operation accounting and the simulated I/O clock.

The paper's metric is *I/O time*: wall-clock time spent in the flash
emulator, which by construction equals the sum of per-operation latencies
from Table 1.  :class:`FlashStats` therefore keeps exact operation counts
and charges each operation's latency to a simulated clock — the reported
microseconds are deterministic and independent of host speed.

Costs are attributed to *phases* so experiments can split a bar the way
Figure 12 does (read step vs. write step, with the GC share of the write
step shown separately).  Drivers push a phase around each entry point::

    with chip.stats.phase("write_step"):
        ...              # programs, obsolete marks
        with chip.stats.phase("gc"):
            ...          # relocations + erase, still inside the write step

Phases nest; an operation is charged to the innermost phase only, so
"write_step" and "gc" partition the write path and Figure 12's total is
simply their sum.

Threading model (see ``docs/concurrency.md``): the phase stack is
*thread-local*, so client threads executing on different shards never
corrupt each other's nesting.  Counter mutation stays lock-free on the
hot path because the sharding layer guarantees a **single writer per
collector** (the thread holding the shard's gate); the only lock taken
guards creation of a new phase bucket against a concurrent aggregate
read, so ``totals()`` /
``snapshot()`` from a monitoring thread never observe the phases dict
mid-resize.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Phase used when no phase was pushed (initial load, ad-hoc access).
DEFAULT_PHASE = "unattributed"

#: Conventional phase names used by the drivers and reports.
READ_STEP = "read_step"
WRITE_STEP = "write_step"
GC = "gc"


def percentile(samples: List[float], pct: float) -> float:
    """Nearest-rank percentile of ``samples`` (0 when empty)."""
    if not samples:
        return 0.0
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil without math import
    return ordered[int(rank) - 1]


class LatencyRecorder:
    """A bag of latency samples with nearest-rank percentile reads.

    Shared by the stats layers that meter per-event stalls (the buffer
    pool's client-visible eviction stalls; merged views pool several
    recorders with :meth:`extend`).  Samples are microseconds; zero
    samples are recorded too, so percentiles are over *all* events
    rather than only the stalled ones — the same convention as
    :meth:`FlashStats.record_write_stall`.
    """

    __slots__ = ("samples",)

    def __init__(self) -> None:
        self.samples: List[float] = []

    def record(self, us: float) -> None:
        self.samples.append(us)

    def extend(self, other: "LatencyRecorder") -> None:
        self.samples.extend(other.samples)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def max_us(self) -> float:
        return max(self.samples, default=0.0)

    @property
    def mean_us(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    def percentile(self, pct: float) -> float:
        return percentile(self.samples, pct)

    def reset(self) -> None:
        self.samples = []


class _PhaseScope:
    """Context manager pushing a phase name for the ``with`` block.

    Holds nothing but its thread's stack and the name, so one scope per
    (thread, name) serves every ``with`` — nested in itself included.
    """

    __slots__ = ("_stack", "_name")

    def __init__(self, stack: List[str], name: str) -> None:
        self._stack = stack
        self._name = name

    def __enter__(self) -> None:
        self._stack.append(self._name)

    def __exit__(self, *exc: object) -> bool:
        self._stack.pop()
        return False


@dataclass
class OpCounts:
    """Operation counts and simulated time for one phase."""

    reads: int = 0
    writes: int = 0
    erases: int = 0
    time_us: float = 0.0

    def copy(self) -> "OpCounts":
        return OpCounts(self.reads, self.writes, self.erases, self.time_us)

    def add(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(
            self.reads + other.reads,
            self.writes + other.writes,
            self.erases + other.erases,
            self.time_us + other.time_us,
        )

    def sub(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(
            self.reads - other.reads,
            self.writes - other.writes,
            self.erases - other.erases,
            self.time_us - other.time_us,
        )

    @property
    def total_ops(self) -> int:
        return self.reads + self.writes + self.erases


class FlashStats:
    """Accumulates per-phase operation counts for one chip.

    Besides phase accounting, it tracks per-block erase counts (wear) for
    Experiment 6 and the longevity discussion, and exposes snapshot/delta
    helpers so a workload can measure only its steady-state window.
    """

    def __init__(
        self, n_blocks: int, t_read_us: float, t_write_us: float, t_erase_us: float
    ) -> None:
        self._t_read = t_read_us
        self._t_write = t_write_us
        self._t_erase = t_erase_us
        self.phases: Dict[str, OpCounts] = {}
        self.block_erases: List[int] = [0] * n_blocks
        self._local = threading.local()
        #: Guards phase-bucket creation against concurrent aggregate
        #: reads (totals/snapshot); per-op accounting itself is
        #: single-writer by the sharded driver's one-owner-per-shard gates.
        self._lock = threading.Lock()
        #: Integrity accounting (see :mod:`repro.flash.spare`): how many
        #: page reads carried a spare-area checksum and were verified,
        #: and how many of those failed (raising ``ChecksumError``).
        self.checksum_checks: int = 0
        self.checksum_failures: int = 0
        #: Per-write GC stall samples (simulated us of reclamation work a
        #: single logical write absorbed); the GC engine records one
        #: sample per write, zero included, so percentiles are over all
        #: writes rather than only the stalled ones.
        self.write_stall_us: List[float] = []
        #: Incremental-GC accounting: bounded reclamation steps taken and
        #: the victim pages they relocated in total.
        self.gc_steps: int = 0
        self.gc_step_pages: int = 0
        #: Tiered mapping-table accounting (see :mod:`repro.core.mapping`):
        #: translation lookups served from the in-RAM overlay/cache
        #: (``hits``, no flash op), demand reads that paged a mapping page
        #: in from the snapshot region (``misses``, one flash read each,
        #: charged to the ``mapping`` phase), and mapping-region page
        #: programs — journal flushes plus snapshot pages (``writebacks``).
        self.mapping_hits: int = 0
        self.mapping_misses: int = 0
        self.mapping_writebacks: int = 0

    # ------------------------------------------------------------------
    # Copying (``copy.deepcopy(chip)`` snapshots a device with its stats)
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict:
        """Counters only — the thread-local phase stack and the bucket
        lock cannot be copied or pickled and are rebuilt fresh (a copied
        collector starts with no pushed phases)."""
        state = self.__dict__.copy()
        state.pop("_local", None)
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: Dict) -> None:
        self.__dict__.update(state)
        self._local = threading.local()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Phase management
    # ------------------------------------------------------------------
    @property
    def _phase_stack(self) -> List[str]:
        """This thread's phase stack (phases travel with execution)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def phase(self, name: str) -> "_PhaseScope":
        """Attribute operations inside the ``with`` block to phase ``name``.

        The phase push/pop brackets every driver entry point, so its
        constant cost is hot-path cost: the scope is a tiny object (not
        a generator-based context manager), made once per thread and
        name and handed back on every later call.
        """
        try:
            return self._local.scopes[name]
        except (AttributeError, KeyError):
            scopes = getattr(self._local, "scopes", None)
            if scopes is None:
                scopes = self._local.scopes = {}
            scope = scopes[name] = _PhaseScope(self._phase_stack, name)
            return scope

    @property
    def current_phase(self) -> str:
        stack = self._phase_stack
        return stack[-1] if stack else DEFAULT_PHASE

    def _bucket(self) -> OpCounts:
        # ``current_phase``, inlined: this runs for every recorded flash op.
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._phase_stack  # this thread's first use: creates it
        name = stack[-1] if stack else DEFAULT_PHASE
        bucket = self.phases.get(name)
        if bucket is None:
            with self._lock:
                bucket = self.phases.get(name)
                if bucket is None:
                    bucket = OpCounts()
                    self.phases[name] = bucket
        return bucket

    # ------------------------------------------------------------------
    # Recording (called by the chip)
    # ------------------------------------------------------------------
    def record_read(self) -> None:
        # ``_bucket``'s common case, inlined — this is every page read:
        # the thread has a stack, a phase is pushed, its bucket exists.
        try:
            bucket = self.phases[self._local.stack[-1]]
        except (AttributeError, IndexError, KeyError):
            bucket = self._bucket()
        bucket.reads += 1
        bucket.time_us += self._t_read

    def record_reads(self, count: int) -> None:
        """Charge ``count`` reads at once (batched chip entry points);
        identical accounting to ``count`` :meth:`record_read` calls."""
        bucket = self._bucket()
        bucket.reads += count
        bucket.time_us += self._t_read * count

    def record_write(self) -> None:
        bucket = self._bucket()
        bucket.writes += 1
        bucket.time_us += self._t_write

    def record_erase(self, block: int) -> None:
        bucket = self._bucket()
        bucket.erases += 1
        bucket.time_us += self._t_erase
        self.block_erases[block] += 1

    def record_checksum_check(self) -> None:
        self.checksum_checks += 1

    def record_checksum_failure(self) -> None:
        self.checksum_failures += 1

    def record_write_stall(self, stall_us: float) -> None:
        """Record the GC time one logical write absorbed (0 for none)."""
        self.write_stall_us.append(stall_us)

    def record_gc_step(self, pages_relocated: int) -> None:
        """Record one bounded incremental-GC step."""
        self.gc_steps += 1
        self.gc_step_pages += pages_relocated

    def record_mapping_hit(self) -> None:
        """A translation lookup served without touching flash."""
        self.mapping_hits += 1

    def record_mapping_miss(self) -> None:
        """A translation lookup that demand-paged a mapping page in."""
        self.mapping_misses += 1

    def record_mapping_writeback(self, pages: int = 1) -> None:
        """Mapping pages written back to the flash region (journal/snapshot)."""
        self.mapping_writebacks += pages

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def phase_items(self) -> List:
        """A stable shallow copy of the phases dict for iteration.

        Taken under the bucket-creation lock, so a reader never iterates
        the dict while a writer inserts a new phase key.  The OpCounts
        values themselves are still live (single-writer mutation); exact
        readings belong after the writers return, as everywhere in the
        stats layer.
        """
        with self._lock:
            return list(self.phases.items())

    def totals(self) -> OpCounts:
        """Sum over all phases."""
        total = OpCounts()
        for _name, counts in self.phase_items():
            total = total.add(counts)
        return total

    def of_phase(self, name: str) -> OpCounts:
        return self.phases.get(name, OpCounts()).copy()

    @property
    def total_time_us(self) -> float:
        return self.totals().time_us

    @property
    def total_erases(self) -> int:
        return self.totals().erases

    def snapshot(self) -> "StatsSnapshot":
        """Freeze current counters; subtract later with ``delta_since``."""
        return StatsSnapshot(
            phases={name: counts.copy() for name, counts in self.phase_items()},
            block_erases=list(self.block_erases),
        )

    def delta_since(self, snap: "StatsSnapshot") -> "StatsSnapshot":
        """Counters accumulated since ``snap`` was taken."""
        phases: Dict[str, OpCounts] = {}
        for name, counts in self.phase_items():
            before = snap.phases.get(name, OpCounts())
            diff = counts.sub(before)
            if diff.total_ops or diff.time_us:
                phases[name] = diff
        erases = [now - then for now, then in zip(self.block_erases, snap.block_erases)]
        return StatsSnapshot(phases=phases, block_erases=erases)

    def write_stall_percentile(self, pct: float) -> float:
        """Nearest-rank percentile of per-write GC stalls, in simulated us.

        ``write_stall_percentile(99)`` is the p99 write stall — the
        tail-latency metric incremental GC exists to shrink.  Returns 0
        when no writes have been metered.
        """
        return percentile(self.write_stall_us, pct)

    @property
    def max_write_stall_us(self) -> float:
        return max(self.write_stall_us, default=0.0)

    def reset(self) -> None:
        """Clear all counters (e.g. after loading + warm-up)."""
        self.phases.clear()
        self.block_erases = [0] * len(self.block_erases)
        self.checksum_checks = 0
        self.checksum_failures = 0
        self.write_stall_us = []
        self.gc_steps = 0
        self.gc_step_pages = 0
        self.mapping_hits = 0
        self.mapping_misses = 0
        self.mapping_writebacks = 0


@dataclass
class StatsSnapshot:
    """An immutable view of counters, used for steady-state windows."""

    phases: Dict[str, OpCounts] = field(default_factory=dict)
    block_erases: List[int] = field(default_factory=list)

    def totals(self) -> OpCounts:
        total = OpCounts()
        for counts in self.phases.values():
            total = total.add(counts)
        return total

    def of_phase(self, name: str) -> OpCounts:
        return self.phases.get(name, OpCounts()).copy()

    @property
    def total_time_us(self) -> float:
        return self.totals().time_us

    @property
    def total_erases(self) -> int:
        return self.totals().erases

    def time_of(self, *names: str) -> float:
        """Simulated time summed across the given phases."""
        return sum(self.of_phase(name).time_us for name in names)

    def max_block_erases(self) -> int:
        return max(self.block_erases, default=0)
