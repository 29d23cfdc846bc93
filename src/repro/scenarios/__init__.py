"""Trace-driven scenario suite (the cross-config evaluation harness).

Turns the named access patterns of :mod:`repro.workloads.patterns` into
*scenarios*: fully resolved, seeded operation streams replayed against a
grid of engine configurations.  The heart of the package is the
differential-equivalence oracle (:mod:`repro.scenarios.oracle`): every
configuration in a cell must converge to the identical logical database
state, pass its own consistency checks, and account for the same logical
traffic — the whole engine cross-checked against itself, the way
``tests/properties/test_prop_backends.py`` cross-checks backends.

Entry points:

* :func:`repro.scenarios.stream.build_stream` — pattern → replayable stream;
* :func:`repro.scenarios.cells.replay_cell` — one (scenario, config) cell;
* :func:`repro.scenarios.matrix.run_matrix` — the full grid + report table;
* ``scripts/run_scenarios.py`` — the CLI (see ``docs/workloads.md``).
"""

from .cells import Cell, CellResult, replay_cell
from .matrix import (
    DEFAULT_CONFIGS,
    TINY_CONFIGS,
    MatrixResult,
    default_patterns,
    run_matrix,
    tiny_patterns,
)
from .oracle import OracleDivergence, OracleVerdict, compare_cells
from .stream import ResolvedOp, ScenarioStream, build_stream

__all__ = [
    "Cell",
    "CellResult",
    "DEFAULT_CONFIGS",
    "MatrixResult",
    "OracleDivergence",
    "OracleVerdict",
    "ResolvedOp",
    "ScenarioStream",
    "TINY_CONFIGS",
    "build_stream",
    "compare_cells",
    "default_patterns",
    "replay_cell",
    "run_matrix",
    "tiny_patterns",
]
