"""Named access patterns: the trace-driven scenario vocabulary.

The paper's evaluation (Sections 6–7) sweeps update ratios, localities
and buffer sizes; this module names those access shapes so every harness
— the scenario matrix, benchmarks, tests — can request "the same
workload" by a string instead of re-rolling its own loop:

* ``sequential`` — ascending pid order, wrapping (pure update churn);
* ``strided`` — a fixed prime stride, the classic index-walk shape;
* ``zipf-<theta>`` — Zipfian-skewed updates at several pre-named
  thetas (``zipf-0.6`` mild … ``zipf-1.2`` heavy), ranks scattered over
  pids so hot pages are not physically clustered;
* ``scan-hot`` — full sequential read scans interleaved with a hot-set
  update stream (the STOCK-LEVEL / reporting mix of Experiment 7's TPC-C);
* ``ycsb-a`` … ``ycsb-f`` — the YCSB core-workload read/update mixes
  (A 50/50, B 95/5, C read-only, D read-latest, E scan-heavy,
  F read-modify-write), with "insert" mapped to an update of the
  coldest page (the page array is fixed-size);
* trace replay — :class:`TracePattern` re-executes a recorded operation
  stream from the small line-based trace format documented in
  ``docs/workloads.md`` (write traces with :class:`TraceRecorder`).

A pattern is only a *shape*: it yields logical :class:`Op` records
(``read``/``update`` + pid) from a supplied RNG and never touches a
driver.  The scenario layer (:mod:`repro.scenarios`) resolves each
update into concrete page mutations, which is what makes the same
pattern replayable bit-for-bit against every engine configuration.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

READ = "read"
UPDATE = "update"

_KINDS = (READ, UPDATE)


@dataclass(frozen=True)
class Op:
    """One logical operation of a pattern: read or update page ``pid``."""

    kind: str
    pid: int

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown op kind {self.kind!r}")
        if self.pid < 0:
            raise ValueError(f"negative pid {self.pid}")


class AccessPattern:
    """Base class: a named, deterministic generator of :class:`Op`s.

    Subclasses implement :meth:`ops`; all randomness must come from the
    supplied ``rng`` so the same (pattern, seed) pair always yields the
    identical stream — the property the differential-equivalence oracle
    is built on.
    """

    #: Table name; parameterized instances refine it (``zipf-0.9``).
    name: str = "abstract"

    def ops(self, n_pages: int, n_ops: int, rng: random.Random) -> Iterator[Op]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


# ----------------------------------------------------------------------
# Synthetic shapes
# ----------------------------------------------------------------------


class SequentialPattern(AccessPattern):
    """Ascending-pid updates, wrapping around the page array."""

    name = "sequential"

    def ops(self, n_pages: int, n_ops: int, rng: random.Random) -> Iterator[Op]:
        for i in range(n_ops):
            yield Op(UPDATE, i % n_pages)


class StridedPattern(AccessPattern):
    """Fixed-stride updates (an index walk); stride co-prime with the
    page count so every page is eventually visited."""

    def __init__(self, stride: int = 7):
        if stride < 1:
            raise ValueError("stride must be positive")
        self.stride = stride
        self.name = f"strided-{stride}"

    def _effective_stride(self, n_pages: int) -> int:
        stride = self.stride
        while _gcd(stride, n_pages) != 1:
            stride += 1
        return stride

    def ops(self, n_pages: int, n_ops: int, rng: random.Random) -> Iterator[Op]:
        stride = self._effective_stride(n_pages)
        for i in range(n_ops):
            yield Op(UPDATE, (i * stride) % n_pages)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


class ZipfPattern(AccessPattern):
    """Zipfian-skewed updates: rank r drawn with probability ∝ 1/r^theta.

    Ranks are scattered over pids by a seeded shuffle so the hot set is
    not a physically contiguous prefix (contiguity would hand sharded
    configs a degenerate single-shard hot spot under range routing).
    """

    def __init__(self, theta: float = 0.9, pct_read: float = 0.0):
        if theta < 0.0:
            raise ValueError("theta must be non-negative")
        if not 0.0 <= pct_read <= 100.0:
            raise ValueError("pct_read must be within [0, 100]")
        self.theta = theta
        self.pct_read = pct_read
        self.name = f"zipf-{theta:g}"

    def _cdf(self, n_pages: int) -> List[float]:
        weights = [1.0 / (rank**self.theta) for rank in range(1, n_pages + 1)]
        total = sum(weights)
        cdf, acc = [], 0.0
        for w in weights:
            acc += w / total
            cdf.append(acc)
        cdf[-1] = 1.0  # guard against float drift at the tail
        return cdf

    def ops(self, n_pages: int, n_ops: int, rng: random.Random) -> Iterator[Op]:
        cdf = self._cdf(n_pages)
        rank_to_pid = list(range(n_pages))
        rng.shuffle(rank_to_pid)
        for _ in range(n_ops):
            rank = bisect.bisect_left(cdf, rng.random())
            pid = rank_to_pid[min(rank, n_pages - 1)]
            if self.pct_read and rng.uniform(0.0, 100.0) < self.pct_read:
                yield Op(READ, pid)
            else:
                yield Op(UPDATE, pid)


class ScanHotPattern(AccessPattern):
    """Full sequential read scans with a hot-set update stream underneath.

    Every ``scan_every`` hot-set updates, a complete ascending read scan
    sweeps the page array while hot updates keep interleaving (one per
    two scanned pages) — the shape a reporting query has against live
    OLTP traffic, and the workload scan-resistant buffer policies exist
    for.
    """

    name = "scan-hot"

    def __init__(self, scan_every: int = 40, hot_fraction: float = 0.1):
        if scan_every < 1:
            raise ValueError("scan_every must be positive")
        if not 0.0 < hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in (0, 1]")
        self.scan_every = scan_every
        self.hot_fraction = hot_fraction

    def ops(self, n_pages: int, n_ops: int, rng: random.Random) -> Iterator[Op]:
        hot_pages = max(1, int(n_pages * self.hot_fraction))
        emitted = 0
        while emitted < n_ops:
            for _ in range(self.scan_every):
                if emitted >= n_ops:
                    return
                yield Op(UPDATE, rng.randrange(hot_pages))
                emitted += 1
            for pid in range(n_pages):
                if emitted >= n_ops:
                    return
                yield Op(READ, pid)
                emitted += 1
                if pid % 2 == 0 and emitted < n_ops:
                    yield Op(UPDATE, rng.randrange(hot_pages))
                    emitted += 1


class YcsbPattern(AccessPattern):
    """The YCSB core-workload mixes, adapted to a fixed page array.

    ``workload`` selects the letter; reads and updates follow the
    published proportions over a Zipfian (theta 0.99) request
    distribution.  Two adaptations, both noted in ``docs/workloads.md``:
    *insert* becomes an update of the least-recently-touched page (the
    array cannot grow), and D's "latest" distribution reads from the
    most recently updated pages.
    """

    #: (pct_read, pct_update, flavour) per YCSB letter.
    MIXES: Dict[str, Tuple[float, float, str]] = {
        "a": (50.0, 50.0, "zipfian"),
        "b": (95.0, 5.0, "zipfian"),
        "c": (100.0, 0.0, "zipfian"),
        "d": (95.0, 5.0, "latest"),
        "e": (95.0, 5.0, "scan"),
        "f": (50.0, 50.0, "rmw"),
    }

    def __init__(self, workload: str, theta: float = 0.99, scan_len: int = 8):
        key = workload.lower()
        if key not in self.MIXES:
            raise ValueError(f"unknown YCSB workload {workload!r} (a–f)")
        self.workload = key
        self.theta = theta
        self.scan_len = scan_len
        self.name = f"ycsb-{key}"

    def ops(self, n_pages: int, n_ops: int, rng: random.Random) -> Iterator[Op]:
        pct_read, _pct_update, flavour = self.MIXES[self.workload]
        zipf = ZipfPattern(self.theta)
        cdf = zipf._cdf(n_pages)
        rank_to_pid = list(range(n_pages))
        rng.shuffle(rank_to_pid)
        recent: List[int] = []  # most recently updated pids, newest last

        def draw_pid() -> int:
            rank = bisect.bisect_left(cdf, rng.random())
            return rank_to_pid[min(rank, n_pages - 1)]

        emitted = 0
        while emitted < n_ops:
            roll = rng.uniform(0.0, 100.0)
            if flavour == "latest" and roll < pct_read and recent:
                # Read-latest: zipf over the recency stack, newest first.
                rank = bisect.bisect_left(cdf, rng.random())
                pid = recent[-1 - min(rank, len(recent) - 1)]
                yield Op(READ, pid)
                emitted += 1
            elif flavour == "scan" and roll < pct_read:
                start = draw_pid()
                for i in range(self.scan_len):
                    if emitted >= n_ops:
                        return
                    yield Op(READ, (start + i) % n_pages)
                    emitted += 1
            elif roll < pct_read:
                yield Op(READ, draw_pid())
                emitted += 1
            else:
                pid = draw_pid()
                if flavour == "rmw":
                    yield Op(READ, pid)
                    emitted += 1
                    if emitted >= n_ops:
                        return
                yield Op(UPDATE, pid)
                emitted += 1
                recent.append(pid)
                if len(recent) > n_pages:
                    del recent[: n_pages // 2]


# ----------------------------------------------------------------------
# Trace replay
# ----------------------------------------------------------------------

TRACE_MAGIC = "repro-trace"
TRACE_VERSION = 1

_OP_CODES = {READ: "r", UPDATE: "u"}
_CODE_OPS = {code: kind for kind, code in _OP_CODES.items()}


class TraceError(ValueError):
    """A trace file violated the format contract."""


@dataclass
class Trace:
    """A parsed operation trace: a page-count header plus an op list."""

    n_pages: int
    ops: List[Op]

    def __len__(self) -> int:
        return len(self.ops)


class TraceRecorder:
    """Records logical operations and writes them in trace format v1.

    The format is line-based and human-diffable (see
    ``docs/workloads.md``)::

        repro-trace v1 pages=64
        # free-form comments anywhere after the header
        r 12
        u 3

    The recorder is how scenario workloads become repeatable artifacts:
    run any pattern (or a live system's page accesses) through it once,
    check the file in, and :class:`TracePattern` replays it forever.
    """

    def __init__(self, n_pages: int):
        if n_pages < 1:
            raise ValueError("n_pages must be positive")
        self.n_pages = n_pages
        self.ops: List[Op] = []

    def record(self, kind: str, pid: int) -> None:
        if not 0 <= pid < self.n_pages:
            raise TraceError(f"pid {pid} outside the declared {self.n_pages} pages")
        self.ops.append(Op(kind, pid))

    def record_op(self, op: Op) -> None:
        self.record(op.kind, op.pid)

    def save(self, path: Union[str, Path], comment: Optional[str] = None) -> Path:
        path = Path(path)
        lines = [f"{TRACE_MAGIC} v{TRACE_VERSION} pages={self.n_pages}"]
        if comment:
            lines.extend(f"# {line}" for line in comment.splitlines())
        lines.extend(f"{_OP_CODES[op.kind]} {op.pid}" for op in self.ops)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path


def load_trace(path: Union[str, Path]) -> Trace:
    """Parse a trace file, validating the header and every pid."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise TraceError(f"{path}: empty trace file")
    header = lines[0].split()
    if (
        len(header) != 3
        or header[0] != TRACE_MAGIC
        or header[1] != f"v{TRACE_VERSION}"
        or not header[2].startswith("pages=")
    ):
        raise TraceError(f"{path}: bad header {lines[0]!r}")
    try:
        n_pages = int(header[2].removeprefix("pages="))
    except ValueError as exc:
        raise TraceError(f"{path}: bad page count in header") from exc
    if n_pages < 1:
        raise TraceError(f"{path}: page count must be positive")
    ops: List[Op] = []
    for lineno, line in enumerate(lines[1:], start=2):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != 2 or parts[0] not in _CODE_OPS:
            raise TraceError(f"{path}:{lineno}: bad op line {line!r}")
        try:
            pid = int(parts[1])
        except ValueError as exc:
            raise TraceError(f"{path}:{lineno}: bad pid {parts[1]!r}") from exc
        if not 0 <= pid < n_pages:
            raise TraceError(
                f"{path}:{lineno}: pid {pid} outside the declared {n_pages} pages"
            )
        ops.append(Op(_CODE_OPS[parts[0]], pid))
    return Trace(n_pages=n_pages, ops=ops)


class TracePattern(AccessPattern):
    """Replays a recorded trace, cycling when more ops are requested.

    Trace pids index *the trace's own* page space; replaying against a
    smaller database folds them with a modulo (and notes it in the
    name), so a checked-in trace stays usable at CI's tiny scales.
    """

    def __init__(self, source: Union[str, Path, Trace], name: Optional[str] = None):
        if isinstance(source, Trace):
            self.trace = source
            stem = "trace"
        else:
            self.trace = load_trace(source)
            stem = Path(source).stem
        if not self.trace.ops:
            raise TraceError("trace holds no operations")
        self.name = name or f"trace-{stem}"

    def ops(self, n_pages: int, n_ops: int, rng: random.Random) -> Iterator[Op]:
        recorded = self.trace.ops
        for i in range(n_ops):
            op = recorded[i % len(recorded)]
            pid = op.pid % n_pages
            yield Op(op.kind, pid) if pid != op.pid else op


def record_pattern(
    pattern: AccessPattern, n_pages: int, n_ops: int, seed: int
) -> TraceRecorder:
    """Materialize a pattern into a recorder (ready to ``save``)."""
    recorder = TraceRecorder(n_pages)
    rng = random.Random(seed)
    for op in pattern.ops(n_pages, n_ops, rng):
        recorder.record_op(op)
    return recorder


# ----------------------------------------------------------------------
# Pattern table
# ----------------------------------------------------------------------

#: name -> zero-argument factory; adding a pattern is one entry here.
_PATTERNS: Dict[str, Callable[[], AccessPattern]] = {
    "sequential": SequentialPattern,
    "strided": StridedPattern,
    "zipf-0.6": partial(ZipfPattern, 0.6),
    "zipf-0.9": partial(ZipfPattern, 0.9),
    "zipf-0.99": partial(ZipfPattern, 0.99),
    "zipf-1.2": partial(ZipfPattern, 1.2),
    "scan-hot": ScanHotPattern,
    "ycsb-a": partial(YcsbPattern, "a"),
    "ycsb-b": partial(YcsbPattern, "b"),
    "ycsb-c": partial(YcsbPattern, "c"),
    "ycsb-d": partial(YcsbPattern, "d"),
    "ycsb-e": partial(YcsbPattern, "e"),
    "ycsb-f": partial(YcsbPattern, "f"),
}


def make_pattern(name: str) -> AccessPattern:
    """Instantiate a pattern by name (case-insensitive)."""
    key = name.lower()
    factory = _PATTERNS.get(key)
    if factory is None:
        known = ", ".join(sorted(_PATTERNS))
        raise ValueError(f"unknown pattern {name!r}; registered: {known}")
    return factory()


def pattern_names() -> List[str]:
    """All pattern names, sorted."""
    return sorted(_PATTERNS)


def default_pattern_set(names: Optional[Sequence[str]] = None) -> List[AccessPattern]:
    """Instantiate a pattern list by names (defaults to the full table)."""
    return [make_pattern(name) for name in (names or pattern_names())]
