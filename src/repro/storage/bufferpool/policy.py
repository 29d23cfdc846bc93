"""Pluggable buffer-pool eviction policies and their registry.

Mirrors the GC victim-policy registry of :mod:`repro.ftl.gc`: policies
are registered under a name, selected by
``Database.open(..., buffer_policy="2q")`` or
``BufferManager(..., policy="clock")``, and each pool gets a fresh
instance so stateful policies never share bookkeeping.

A policy tracks *which* resident page to reclaim next; the
:class:`~repro.storage.bufferpool.manager.BufferManager` owns the frames
themselves and consults the policy through a small contract:

* :meth:`EvictionPolicy.admit` / :meth:`~EvictionPolicy.touch` /
  :meth:`~EvictionPolicy.remove` maintain recency state;
* :meth:`EvictionPolicy.select_victim` scans candidates best-first and
  returns the first one the manager's ``evictable`` callback accepts —
  the callback is where pin counts and (for clean-first reclamation)
  dirtiness live, so policies never see :class:`Page` objects;
* :meth:`EvictionPolicy.iter_pids` yields the resident set coldest-first
  (write-back daemons flush cold dirty pages first; ``flush_all``
  preserves the historical LRU flush order through it).

Rejected candidates are *parked* by the LRU policy (the reclaim-cursor
fix: a pinned cold frame is skipped exactly once, not rescanned on every
subsequent eviction) and returned to the reclaim order via
:meth:`EvictionPolicy.unpark` when the manager learns the frame was
unpinned or cleaned.  Clock and 2Q revisit skipped frames naturally.

This module deliberately imports nothing from the flash or FTL layers
besides the shared :class:`~repro.ftl.errors.ConfigurationError`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Iterator, List, Optional

from ...ftl.errors import ConfigurationError

#: The manager's verdict on one candidate: True = evict this frame now.
Evictable = Callable[[int], bool]


class EvictionPolicy:
    """Recency bookkeeping for one buffer pool (see module docstring)."""

    #: Registry name, set by subclasses.
    name: str = "abstract"

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("eviction policy capacity must be at least one frame")
        self.capacity = capacity
        #: Cheap per-policy introspection counters, surfaced through
        #: :attr:`BufferStats.policy_counters`.
        self.counters: Dict[str, int] = {}

    # -- state maintenance ---------------------------------------------
    def admit(self, pid: int) -> None:
        raise NotImplementedError

    def touch(self, pid: int) -> None:
        raise NotImplementedError

    def remove(self, pid: int) -> None:
        raise NotImplementedError

    def unpark(self, pid: int) -> None:
        """A previously rejected frame became reclaimable again (unpinned
        or cleaned).  Default: nothing parks, nothing to do."""

    def resize(self, capacity: int) -> None:
        """The pool capacity changed (the manager already evicted down)."""
        self.capacity = capacity

    # -- reclamation ----------------------------------------------------
    def select_victim(
        self,
        evictable: Evictable,
        limit: Optional[int] = None,
        include_parked: bool = False,
    ) -> Optional[int]:
        """Best reclaimable pid, or None.

        ``limit`` bounds how many candidates are offered to ``evictable``
        (clean-first passes stay cheap even when most of the pool is
        dirty).  ``include_parked`` additionally re-examines parked
        frames — the unbounded backstop pass uses it, since a parked
        frame may be evictable under the relaxed criteria.
        """
        raise NotImplementedError

    def iter_pids(self) -> Iterator[int]:
        """Resident pids, coldest-first (parked frames are coldest)."""
        raise NotImplementedError

    def _count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n


# ----------------------------------------------------------------------
# Registry (mirrors repro.ftl.gc's victim-policy registry)
# ----------------------------------------------------------------------
#: name -> factory taking the pool capacity, returning a fresh instance.
_POLICY_FACTORIES: Dict[str, Callable[[int], EvictionPolicy]] = {}


def register_eviction_policy(
    name: str, factory: Callable[[int], EvictionPolicy]
) -> None:
    """Register an eviction-policy factory under ``name`` (case-insensitive).

    Registered names are selectable through
    ``BufferManager(..., policy=name)`` and
    :meth:`repro.storage.db.Database.open`'s ``buffer_policy`` keyword.
    """
    _POLICY_FACTORIES[name.lower()] = factory


def make_eviction_policy(name: str, capacity: int) -> EvictionPolicy:
    """Build a fresh policy instance from its registered name."""
    factory = _POLICY_FACTORIES.get(name.lower())
    if factory is None:
        raise ConfigurationError(
            f"unknown eviction policy {name!r}; registered policies: "
            f"{', '.join(sorted(_POLICY_FACTORIES))}"
        )
    return factory(capacity)


def eviction_policy_names() -> tuple:
    """Registered policy names, sorted (for error messages and docs)."""
    return tuple(sorted(_POLICY_FACTORIES))


# ----------------------------------------------------------------------
# LRU (the historical default, with a parked-frame reclaim cursor)
# ----------------------------------------------------------------------
class LruPolicy(EvictionPolicy):
    """Least-recently-used with a parked-frame reclaim cursor.

    The resident order lives in one :class:`OrderedDict` (front =
    coldest) maintained exactly like the pre-package
    :class:`BufferManager`'s frame table, so victim choice and flush
    order are bit-identical to the original.  The difference is what
    happens to a *rejected* candidate: its pid enters the ``parked`` set
    and later scans step over it with a single hash probe instead of
    re-running the manager's pin/dirty verdict on every eviction — the
    O(pinned-cold-frames) rescan this policy exists to fix.  A parked
    frame rejoins the scan only on an :meth:`unpark` (the manager's, on
    a frame's last unpin or its cleaning) or a :meth:`touch`, which
    makes it MRU anyway.
    """

    name = "lru"

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._order: "OrderedDict[int, None]" = OrderedDict()
        self._parked: set = set()

    def admit(self, pid: int) -> None:
        self._order[pid] = None

    def touch(self, pid: int) -> None:
        self._order.move_to_end(pid)
        self._parked.discard(pid)

    def remove(self, pid: int) -> None:
        self._order.pop(pid, None)
        self._parked.discard(pid)

    def unpark(self, pid: int) -> None:
        self._parked.discard(pid)

    def select_victim(
        self,
        evictable: Evictable,
        limit: Optional[int] = None,
        include_parked: bool = False,
    ) -> Optional[int]:
        # Plain iteration, no copy: the loop only mutates the parked
        # *set*, never the order dict, and the common case returns at
        # the first candidate — copying the whole order would pay the
        # O(capacity)-per-eviction cost this cursor exists to avoid.
        offered = 0
        for pid in self._order:
            if not include_parked and pid in self._parked:
                continue
            if limit is not None and offered >= limit:
                return None
            offered += 1
            if evictable(pid):
                return pid
            if pid not in self._parked:
                self._parked.add(pid)
                self._count("parked")
        return None

    def iter_pids(self) -> Iterator[int]:
        return iter(list(self._order))


# ----------------------------------------------------------------------
# Clock (second-chance approximation of LRU)
# ----------------------------------------------------------------------
class ClockPolicy(EvictionPolicy):
    """The classic clock sweep: one reference bit per frame, a rotating
    hand that clears bits until it finds an unreferenced, evictable
    frame.  Rejected frames simply stay in the ring — the hand revisits
    them one full sweep later, which is the policy's own cursor."""

    name = "clock"

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._ring: List[Optional[int]] = []  # None = tombstone
        self._slot: Dict[int, int] = {}
        self._ref: Dict[int, bool] = {}
        self._hand = 0

    def admit(self, pid: int) -> None:
        self._slot[pid] = len(self._ring)
        self._ring.append(pid)
        # Clear, decided on measurements (docs/bufferpool.md): the first
        # sweep may take a page that was missed once and never touched.
        self._ref[pid] = False

    def touch(self, pid: int) -> None:
        self._ref[pid] = True

    def remove(self, pid: int) -> None:
        slot = self._slot.pop(pid, None)
        if slot is not None:
            self._ring[slot] = None
            self._ref.pop(pid, None)
            self._maybe_compact()

    def select_victim(
        self,
        evictable: Evictable,
        limit: Optional[int] = None,
        include_parked: bool = False,
    ) -> Optional[int]:
        if not self._slot:
            return None
        offered = 0
        # Two full sweeps suffice: the first clears every set bit, the
        # second must then stop at any evictable frame.
        for _step in range(2 * len(self._ring)):
            if self._hand >= len(self._ring):
                self._hand = 0
            pid = self._ring[self._hand]
            self._hand += 1
            if pid is None:
                continue
            if self._ref.get(pid):
                self._ref[pid] = False
                self._count("ref_clears")
                continue
            if limit is not None and offered >= limit:
                return None
            offered += 1
            if evictable(pid):
                return pid
        return None

    def iter_pids(self) -> Iterator[int]:
        n = len(self._ring)
        for i in range(n):
            pid = self._ring[(self._hand + i) % n]
            if pid is not None:
                yield pid

    def _maybe_compact(self) -> None:
        if len(self._ring) < 16 or len(self._slot) * 2 > len(self._ring):
            return
        before_hand = sum(
            1 for pid in self._ring[: self._hand] if pid is not None
        )
        self._ring = [pid for pid in self._ring if pid is not None]
        self._slot = {pid: i for i, pid in enumerate(self._ring)}
        self._hand = before_hand


# ----------------------------------------------------------------------
# 2Q (scan-resistant; Johnson & Shasha, VLDB '94)
# ----------------------------------------------------------------------
class TwoQPolicy(EvictionPolicy):
    """Simplified full 2Q: a FIFO probation queue plus a protected LRU.

    First-time pages enter the FIFO ``A1in`` queue; a sequential table
    scan streams through it and evicts only other scan pages.  A page
    evicted from ``A1in`` leaves its pid in the ``A1out`` ghost list
    (no frame); a miss on a ghosted pid re-admits the page directly
    into the protected ``Am`` LRU — surviving long enough to be
    re-referenced is what proves a page is hot.  Victims come from
    ``A1in`` while it exceeds its share (``kin``), else from ``Am``.
    """

    name = "2q"

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._a1in: "OrderedDict[int, None]" = OrderedDict()
        self._a1out: "OrderedDict[int, None]" = OrderedDict()  # ghosts
        self._am: "OrderedDict[int, None]" = OrderedDict()
        self.resize(capacity)

    def resize(self, capacity: int) -> None:
        super().resize(capacity)
        #: The paper's tuning: probation ~25 % of frames, ghosts ~50 %.
        self.kin = max(1, capacity // 4)
        self.kout = max(2, capacity // 2)
        while len(self._a1out) > self.kout:
            self._a1out.popitem(last=False)

    def admit(self, pid: int) -> None:
        if pid in self._a1out:
            del self._a1out[pid]
            self._am[pid] = None  # ghost hit: straight into the hot LRU
            self._count("ghost_promotions")
        else:
            self._a1in[pid] = None

    def touch(self, pid: int) -> None:
        if pid in self._am:
            self._am.move_to_end(pid)
        # A hit inside A1in is deliberately ignored (FIFO): correlated
        # re-references during one scan must not look like heat.

    def remove(self, pid: int) -> None:
        if pid in self._a1in:
            # Evicted from probation: remember the pid as a ghost.
            del self._a1in[pid]
            self._a1out[pid] = None
            while len(self._a1out) > self.kout:
                self._a1out.popitem(last=False)
        else:
            self._am.pop(pid, None)

    def _queues(self) -> List["OrderedDict[int, None]"]:
        if len(self._a1in) >= self.kin or not self._am:
            return [self._a1in, self._am]
        return [self._am, self._a1in]

    def select_victim(
        self,
        evictable: Evictable,
        limit: Optional[int] = None,
        include_parked: bool = False,
    ) -> Optional[int]:
        # No copies: nothing in the loop mutates the queues (2Q parks
        # nothing; ghosting happens in remove(), after selection).
        offered = 0
        for queue in self._queues():
            for pid in queue:
                if limit is not None and offered >= limit:
                    return None
                offered += 1
                if evictable(pid):
                    return pid
        return None

    def iter_pids(self) -> Iterator[int]:
        for queue in self._queues():
            yield from list(queue)


register_eviction_policy("lru", LruPolicy)
register_eviction_policy("clock", ClockPolicy)
register_eviction_policy("2q", TwoQPolicy)
