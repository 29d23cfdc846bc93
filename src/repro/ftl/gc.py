"""Space management for the out-place drivers: victim policies + GC engine.

The paper (Section 4.1) describes the standard reclamation cycle: when no
free page remains, select a block, move its still-valid pages to a block
reserved for GC, then erase it.  PDL additionally *compacts* differential
pages — only valid differentials are copied forward.

The engine is driver-agnostic: a :class:`RelocationHandler` supplied by
the driver decides how to move each valid page (OPU re-programs it and
updates its mapping entry; PDL either relocates a base page or filters a
differential page through a compaction buffer).  ``finish_victim`` runs
*before* the victim is erased so handlers can flush any relocation
buffers — guaranteeing every valid byte exists somewhere in flash at all
times, which is what makes crash recovery during GC sound.

Two execution modes share one engine, selected by :class:`GcConfig`:

* **stop-the-world** (the paper's behaviour, ``incremental_steps=0``) —
  reclamation happens only when the free pool hits the reserve, inside
  the allocation that needed a block, and runs whole victims to
  completion.  A single unlucky write absorbs an entire multi-block
  collection cycle.
* **incremental** (``incremental_steps=N``) — reclamation starts early,
  when the pool falls to the trigger level, and each write relocates at
  most N victim pages before doing its own work.  A victim block stays
  *in flight* across many writes: its relocated pages coexist with their
  new copies (GC copies preserve timestamps, so recovery may keep
  either) and it is only erased once every valid page has moved and the
  handler's buffers are flushed.  The stop-the-world path remains as the
  backstop when the pool is exhausted faster than the steps drain debt;
  it first finishes any in-flight victim, so the two modes compose.

All reclamation work is attributed to the ``gc`` accounting phase;
because GC only ever runs from a write path, its cost is "amortized into
the write cost" exactly as the paper reports (Figure 12(b)'s slashed
areas).  The engine additionally meters the GC time each individual
write absorbed (the *write stall*) into
:meth:`~repro.flash.stats.FlashStats.record_write_stall`, which is the
tail-latency metric ``tests/integration/test_extension_claims.py``
holds across modes.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional, Protocol

from ..flash.chip import FlashChip
from ..flash.spare import SpareArea
from ..flash.stats import GC
from .allocator import BlockManager
from .errors import ConcurrencyError, ConfigurationError, OutOfSpaceError

#: A victim-selection policy: given the block manager, return the block to
#: reclaim next, or None when no candidate exists.
VictimPolicy = Callable[[BlockManager], Optional[int]]

#: Free-block headroom above the reserve at which incremental collection
#: starts.  Zero means steps begin exactly when the pool reaches the
#: reserve — the same instant the stop-the-world collector would run —
#: so victims are selected with identical garbage density and
#: incremental mode pays no extra erases for its latency; raising it
#: would trade a few early, denser-victim erases for even fewer
#: backstop stalls.
GC_TRIGGER_HEADROOM = 0


def _tie_break(blocks: BlockManager, block: int) -> tuple:
    """Deterministic preference among equal-score candidates.

    Higher is better: prefer the lower erase count (spreads wear), then
    the lower block id.  Depending on ``victim_candidates()`` iteration
    order instead would make victim choice an accident of the allocator's
    internals — and it must not be, because memory- and file-backed chips
    replaying the same workload have to erase the same blocks.
    """
    return (-blocks.erase_count(block), -block)


def greedy_policy(blocks: BlockManager) -> Optional[int]:
    """The default policy: reclaim the block with the most garbage.

    This is the behaviour the paper inherits from Woodhouse's JFFS
    collector — maximise pages reclaimed per erase.  Ties are broken by
    lowest erase count, then lowest block id.
    """
    best: Optional[int] = None
    best_key: Optional[tuple] = None
    for block in blocks.victim_candidates():
        garbage = blocks.garbage_in(block)
        if garbage <= 0:
            continue
        key = (garbage, *_tie_break(blocks, block))
        if best_key is None or key > best_key:
            best, best_key = block, key
    return best


def cost_benefit_policy(blocks: BlockManager) -> Optional[int]:
    """Cost-benefit selection: age × free space per unit relocation cost.

    The classic page-mapping-FTL score (Kawaguchi et al., carried into
    Dayan & Bonnet's GC survey): ``age * (1 - u) / (2u)`` where ``u`` is
    the block's valid-page utilization and ``age`` the simulated time
    since the block was last written.  Old, half-empty blocks win over
    young ones with slightly more garbage — on skewed workloads that
    leaves hot blocks alone until their churn has turned them into
    cheap, garbage-dense victims.  Fully-garbage blocks (``u = 0``) cost
    nothing to reclaim and always win.
    """
    best: Optional[int] = None
    best_key: Optional[tuple] = None
    ppb = blocks.spec.pages_per_block
    for block in blocks.victim_candidates():
        garbage = blocks.garbage_in(block)
        if garbage <= 0:
            continue
        u = blocks.valid_count(block) / ppb
        if u == 0.0:
            score = float("inf")
        else:
            score = blocks.block_age(block) * (1.0 - u) / (2.0 * u)
        key = (score, garbage, *_tie_break(blocks, block))
        if best_key is None or key > best_key:
            best, best_key = block, key
    return best


def wear_aware_policy(wear_weight: float = 1.0) -> VictimPolicy:
    """Greedy discounted by wear: maximize garbage / (1 + weight × erases).

    The compromise the paper defers to footnote 4: reclamation efficiency
    traded against evener wear.  ``wear_weight=0`` degenerates to the
    greedy policy; larger weights steer erases away from worn blocks
    (the longevity metric of Experiment 6).
    """

    def policy(blocks: BlockManager) -> Optional[int]:
        best: Optional[int] = None
        best_key: Optional[tuple] = None
        for block in blocks.victim_candidates():
            garbage = blocks.garbage_in(block)
            if garbage <= 0:
                continue
            score = garbage / (1.0 + wear_weight * blocks.erase_count(block))
            key = (score, *_tie_break(blocks, block))
            if best_key is None or key > best_key:
                best, best_key = block, key
        return best

    return policy


def round_robin_policy() -> VictimPolicy:
    """The pure wear-leveling extreme: cycle through the candidates in
    block order, spreading erases evenly regardless of garbage density.
    Stateful — each collector gets its own cursor."""
    cursor = 0

    def policy(blocks: BlockManager) -> Optional[int]:
        nonlocal cursor
        usable = [
            b for b in sorted(blocks.victim_candidates()) if blocks.garbage_in(b) > 0
        ]
        if not usable:
            return None
        block = next((b for b in usable if b >= cursor), usable[0])
        cursor = block + 1
        return block

    return policy


# ----------------------------------------------------------------------
# Victim-policy table
# ----------------------------------------------------------------------
#: name -> zero-argument factory returning a fresh policy instance, so
#: stateful policies never share state between drivers.  A name here is
#: the one way to select a policy: through :class:`GcConfig`
#: (``Database.open(..., gc=GcConfig(policy="cb"))``) or a method label
#: (``"PDL (256B) x4 gc=cb"``).
_POLICY_FACTORIES: Dict[str, Callable[[], VictimPolicy]] = {
    "greedy": lambda: greedy_policy,
    "cb": lambda: cost_benefit_policy,
    "wear": wear_aware_policy,
    "rr": round_robin_policy,
}


def make_victim_policy(name: str) -> VictimPolicy:
    """Build a fresh policy instance from its name (case-insensitive)."""
    factory = _POLICY_FACTORIES.get(name.lower())
    if factory is None:
        raise ConfigurationError(
            f"unknown victim policy {name!r}; registered policies: "
            f"{', '.join(sorted(_POLICY_FACTORIES))}"
        )
    return factory()


def victim_policy_names() -> tuple:
    """The policy names, sorted (for error messages and docs)."""
    return tuple(sorted(_POLICY_FACTORIES))


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GcConfig:
    """Tuning knobs of the space-management subsystem.

    ``policy`` names a victim policy (:func:`victim_policy_names`).
    ``incremental_steps`` bounds the relocations a single write performs
    (0 keeps the paper's stop-the-world collector); incremental work
    starts when the free pool falls to the allocator's reserve plus
    :data:`GC_TRIGGER_HEADROOM`.  ``hot_cold`` splits the
    append point into separate hot and cold active blocks — drivers
    route short-lived pages (PDL differential pages, OPU fresh writes)
    to the hot stream and long-lived ones (base pages, GC survivors) to
    the cold stream, so blocks die together and compaction relocates
    less.
    """

    policy: str = "greedy"
    incremental_steps: int = 0
    hot_cold: bool = False

    def __post_init__(self) -> None:
        if self.incremental_steps < 0:
            raise ValueError("incremental_steps must be non-negative")

    @property
    def incremental(self) -> bool:
        return self.incremental_steps > 0


class RelocationHandler(Protocol):
    """Driver-side hooks used by the GC engine."""

    def relocate_page(self, addr: int, data: bytes, spare: SpareArea) -> None:
        """Move one valid page out of the victim block."""

    def finish_victim(self, block: int) -> None:
        """Flush any relocation buffers before the victim is erased."""


class GarbageCollector:
    """Reclaims blocks — whole victims at the reserve level, or in
    bounded per-write steps when configured incrementally."""

    def __init__(
        self,
        chip: FlashChip,
        blocks: BlockManager,
        handler: RelocationHandler,
        config: Optional[GcConfig] = None,
    ):
        self.chip = chip
        self.blocks = blocks
        #: The driver that owns this engine, held weakly so a dropped
        #: driver is freed by reference counting (:meth:`_live_handler`).
        self._handler = weakref.ref(handler)
        self.config = config if config is not None else GcConfig()
        #: A fresh instance of the policy ``config.policy`` names.
        self.policy: VictimPolicy = make_victim_policy(self.config.policy)
        #: Incremental work starts when the free pool is at or below this.
        self.trigger_blocks = blocks.reserve_blocks + GC_TRIGGER_HEADROOM
        self.collections = 0
        self.pages_relocated = 0
        #: Incremental steps that performed any reclamation work.
        self.steps = 0
        #: Simulated time spent reclaiming, cumulative (stall metering).
        self.gc_time_us = 0.0
        self._victim: Optional[int] = None
        self._pending: Deque[int] = deque()
        self._write_mark = 0.0
        self._owner_holds: Optional[Callable[[], bool]] = None
        blocks.set_gc(self)

    # ------------------------------------------------------------------
    # Write-path hooks (stall metering + incremental pacing)
    # ------------------------------------------------------------------
    def bind_owner(self, holds: Optional[Callable[[], bool]]) -> None:
        """Guard this engine's write hooks with an ownership test
        (``None`` removes the guard).

        The sharded driver binds each shard's engine to "the calling
        thread holds this shard's gate"; the hooks then refuse
        to run for anyone else, so incremental pacing, stall metering
        and the in-flight victim can never be mutated concurrently — the
        guard that keeps GC state shard-local under real threading.
        """
        self._owner_holds = holds

    # Both hooks run on every write, so each tests the guard inline and
    # enters _check_owner only to raise.
    def _check_owner(self) -> None:
        raise ConcurrencyError(
            "GC write hook invoked by a thread that does not hold the "
            "shard's gate; route all shard operations through the "
            "sharded driver, which takes it"
        )

    def on_write_begin(self) -> None:
        """Driver hook at the start of one logical write: run the write's
        incremental step budget, and mark the stall-meter baseline."""
        holds = self._owner_holds
        if holds is not None and not holds():
            self._check_owner()
        self._write_mark = self.gc_time_us
        steps = self.config.incremental_steps
        if steps and (self._victim is not None or self._below_trigger()):
            self.step(steps)

    def on_write_end(self) -> None:
        """Driver hook at the end of one logical write: record how much
        GC time the write absorbed (its stall), backstop runs included."""
        holds = self._owner_holds
        if holds is not None and not holds():
            self._check_owner()
        self.chip.stats.record_write_stall(self.gc_time_us - self._write_mark)

    # ------------------------------------------------------------------
    # Reclamation
    # ------------------------------------------------------------------
    def collect(self) -> None:
        """Reclaim blocks until ``free > reserve`` (or raise OutOfSpace).

        The stop-the-world entry point, registered with the allocator as
        the out-of-blocks backstop.  An in-flight incremental victim is
        finished first so the free pool sees its erase."""
        handler = self._live_handler()
        start = self.chip.clock_us
        try:
            with self.chip.stats.phase(GC):
                while self.blocks.free_block_count <= self.blocks.reserve_blocks:
                    if self._victim is None and not self._select_victim():
                        raise OutOfSpaceError(
                            "garbage collection found no reclaimable block; "
                            "the chip is full of valid data"
                        )
                    self._advance(handler, self.blocks.spec.n_pages)
        finally:
            self.gc_time_us += self.chip.clock_us - start

    def step(self, max_pages: int) -> int:
        """Relocate up to ``max_pages`` victim pages; returns the count.

        Victims are erased as soon as their last valid page has moved
        (the erase rides in the same step).  New victims are only
        selected while the free pool is at or below the trigger level;
        an in-flight victim is always driven to completion so its
        relocated copies stop occupying two blocks' worth of space."""
        handler = self._live_handler()
        relocated = 0
        start = self.chip.clock_us
        try:
            with self.chip.stats.phase(GC):
                while relocated < max_pages:
                    if self._victim is None:
                        if not self._below_trigger() or not self._select_victim():
                            break
                    relocated += self._advance(handler, max_pages - relocated)
        finally:
            elapsed = self.chip.clock_us - start
            self.gc_time_us += elapsed
            if elapsed > 0.0:
                self.steps += 1
                self.chip.stats.record_gc_step(relocated)
        return relocated

    def drain_victim(self) -> None:
        """Drive any in-flight incremental victim to completion.

        Mid-compaction the tables are transiently inconsistent — a
        relocated differential page's vdct row is dropped while mapping
        entries still point into the victim until the compaction buffer
        flushes.  Consistency points (mapping snapshots, checkpoints)
        call this first so they never serialize that state.
        """
        if self._victim is None:
            return
        handler = self._live_handler()
        start = self.chip.clock_us
        try:
            with self.chip.stats.phase(GC):
                while self._victim is not None:
                    self._advance(handler, self.blocks.spec.n_pages)
        finally:
            self.gc_time_us += self.chip.clock_us - start

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def in_flight_victim(self) -> Optional[int]:
        """The partially-relocated victim block, if any."""
        return self._victim

    def gc_debt(self) -> int:
        """How far below the trigger level the free pool is, in blocks
        (an in-flight victim counts as at least one block of debt)."""
        debt = max(0, self.trigger_blocks + 1 - self.blocks.free_block_count)
        if self._victim is not None:
            debt = max(debt, 1)
        return debt

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _live_handler(self) -> RelocationHandler:
        """The owning driver, dereferenced once per entry point."""
        handler = self._handler()
        if handler is None:
            raise ConfigurationError(
                "GarbageCollector: its driver (the relocation handler) "
                "was freed; a collector cannot outlive the driver that owns it"
            )
        return handler

    def _below_trigger(self) -> bool:
        return self.blocks.free_block_count <= self.trigger_blocks

    def _select_victim(self) -> bool:
        victim = self.policy(self.blocks)
        if victim is None or self.blocks.garbage_in(victim) <= 0:
            return False
        self._victim = victim
        # Snapshot of the victim's valid pages; entries invalidated by
        # ordinary writes between incremental steps are re-checked (and
        # skipped) at relocation time.
        self._pending = deque(self.blocks.valid_pages_in(victim))
        return True

    def _advance(self, handler: RelocationHandler, budget: int) -> int:
        """Relocate up to ``budget`` pages of the in-flight victim; when
        the victim drains, flush handler buffers, erase it, and return
        the block to the free pool."""
        victim = self._victim
        assert victim is not None
        batch: list = []
        while self._pending and len(batch) < budget:
            addr = self._pending.popleft()
            if self.blocks.is_valid(addr):
                batch.append(addr)
            # else: superseded by a write since selection — skip
        # One batched read for the chunk (contiguous runs within the
        # block, which the file backend turns into a few sequential
        # reads); same N × Tread charge.  Relocating one victim page
        # never invalidates another of the same victim, so the images
        # read up front cannot go stale inside the batch.
        for addr, (data, spare) in zip(batch, self.chip.read_pages(batch)):
            handler.relocate_page(addr, data, spare)
            self.blocks.note_invalid(addr)
            self.pages_relocated += 1
        relocated = len(batch)
        if not self._pending:
            handler.finish_victim(victim)
            self.chip.erase_block(victim)
            self.blocks.on_block_erased(victim)
            self.collections += 1
            self._victim = None
        return relocated

    def _reclaim(self, victim: int) -> None:
        """Reclaim one specific block to completion (tests/ablations)."""
        assert self._victim is None, "a victim is already in flight"
        handler = self._live_handler()
        self._victim = victim
        self._pending = deque(self.blocks.valid_pages_in(victim))
        self._advance(handler, self.blocks.spec.n_pages)
