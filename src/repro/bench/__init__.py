"""The paper suite: every table and figure of the evaluation, and the
scenario grid's equivalence oracle, is one entry of
:data:`~repro.bench.figures.FIGURES`; ``python -m repro.bench --list``
for the CLI.
"""

from .figures import FIGURES, SCALES, BenchScale, Figure, current_scale, run
from .reporting import ResultTable

__all__ = [
    "FIGURES",
    "SCALES",
    "BenchScale",
    "Figure",
    "ResultTable",
    "current_scale",
    "run",
]
