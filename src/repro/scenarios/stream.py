"""Resolved operation streams: a pattern made replayable bit-for-bit.

A pattern yields logical ``read``/``update`` ops; a *stream* resolves
every update into concrete :class:`~repro.ftl.base.ChangeRun` mutations
and fixes the initial page images, all from one seed.  Two RNG lanes
keep the resolution stable:

* the **pattern lane** (seeded from ``seed`` + pattern name) drives only
  the pattern's own draws, so adding or re-tuning mutation sizing never
  shifts which pages a scenario touches;
* the **mutation lane** (seeded from ``seed`` + pattern name + a salt)
  drives offsets and payloads.

Because mutations are content-independent byte overwrites, replaying a
stream's per-pid subsequences in order produces the same final page
images no matter how ops interleave across pids — the property the
differential-equivalence oracle relies on.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..ftl.base import ChangeRun, apply_runs
from ..workloads.patterns import READ, UPDATE, AccessPattern

#: Mixed into the mutation lane's seed so the two lanes never collide.
_MUTATION_SALT = 0x5EED_D1FF


def _lane_seed(seed: int, scenario: str, salt: int = 0) -> int:
    """A stable per-(seed, scenario) RNG seed (no builtin hash())."""
    return (seed << 16) ^ zlib.crc32(scenario.encode("utf-8")) ^ salt


@dataclass(frozen=True)
class ResolvedOp:
    """One fully resolved operation: reads carry no payload, updates
    carry the exact mutations every configuration must apply."""

    kind: str
    pid: int
    runs: Tuple[ChangeRun, ...] = ()


@dataclass
class ScenarioStream:
    """A named, seeded, fully resolved operation stream."""

    scenario: str
    n_pages: int
    page_size: int
    seed: int
    ops: List[ResolvedOp] = field(default_factory=list)

    @property
    def n_reads(self) -> int:
        return sum(1 for op in self.ops if op.kind == READ)

    @property
    def n_updates(self) -> int:
        return sum(1 for op in self.ops if op.kind == UPDATE)

    def initial_images(self) -> List[Tuple[int, bytes]]:
        """The identical initial database every configuration loads."""
        rng = random.Random(_lane_seed(self.seed, self.scenario, salt=1))
        return [(pid, rng.randbytes(self.page_size)) for pid in range(self.n_pages)]

    def expected_images(self) -> Dict[int, bytes]:
        """Golden final page images: initial images + all updates applied
        in stream order (pure computation, no driver involved)."""
        images = dict(self.initial_images())
        for op in self.ops:
            if op.kind == UPDATE:
                images[op.pid] = apply_runs(images[op.pid], op.runs)
        return images


def build_stream(
    pattern: AccessPattern,
    *,
    n_pages: int,
    n_ops: int,
    page_size: int,
    seed: int,
    change_size: int = 0,
) -> ScenarioStream:
    """Resolve ``pattern`` into a replayable stream.

    ``change_size`` is the typical mutation length per update (default
    2 % of the page, the paper's ``%ChangedByOneU_Op``); every eighth
    update grows into a near-full rewrite so PDL's Case-3 base-page
    churn is exercised, not just the differential fast path.
    """
    if n_pages < 1:
        raise ValueError("n_pages must be positive")
    if n_ops < 0:
        raise ValueError("n_ops must be non-negative")
    if change_size <= 0:
        change_size = max(1, round(page_size * 0.02))
    change_size = min(change_size, page_size)
    pattern_rng = random.Random(_lane_seed(seed, pattern.name))
    mutate_rng = random.Random(_lane_seed(seed, pattern.name, salt=_MUTATION_SALT))
    big_size = max(change_size, (page_size * 15) // 16)
    ops: List[ResolvedOp] = []
    n_updates = 0
    for op in pattern.ops(n_pages, n_ops, pattern_rng):
        if op.pid >= n_pages:
            raise ValueError(
                f"pattern {pattern.name!r} emitted pid {op.pid} for a "
                f"{n_pages}-page database"
            )
        if op.kind == READ:
            ops.append(ResolvedOp(READ, op.pid))
            continue
        n_updates += 1
        size = big_size if n_updates % 8 == 0 else change_size
        offset = mutate_rng.randrange(page_size - size + 1)
        run = ChangeRun(offset, mutate_rng.randbytes(size))
        ops.append(ResolvedOp(UPDATE, op.pid, (run,)))
    return ScenarioStream(
        scenario=pattern.name,
        n_pages=n_pages,
        page_size=page_size,
        seed=seed,
        ops=ops,
    )
