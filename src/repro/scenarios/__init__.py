"""Trace-driven scenarios: the cross-config equivalence grid's parts.

Turns the named access patterns of :mod:`repro.workloads.patterns` into
*scenarios*: fully resolved, seeded operation streams replayed against
engine configurations.  The grid itself is the ``equivalence`` entry of
:data:`repro.bench.figures.FIGURES` (``python -m repro.bench
equivalence``; see ``docs/workloads.md``): its check is the
differential-equivalence oracle — every configuration of a scenario must
converge to the identical logical database state, pass its own
consistency checks, and account for the same logical traffic — the
whole engine cross-checked against itself.

* :func:`repro.scenarios.stream.build_stream` — pattern → replayable stream;
* :func:`repro.scenarios.cells.replay_cell` — one (scenario, config) cell.
"""

from .cells import Cell, CellResult, replay_cell
from .stream import ResolvedOp, ScenarioStream, build_stream

__all__ = [
    "Cell",
    "CellResult",
    "ResolvedOp",
    "ScenarioStream",
    "build_stream",
    "replay_cell",
]
