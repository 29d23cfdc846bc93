"""Result tables: paper-style text rendering and JSON persistence.

Each entry of the suite, the equivalence grid included, produces a
:class:`ResultTable` — named columns, one row per (method, parameter)
point — which renders as an aligned text table (the "same rows/series
the paper reports") and serializes to JSON under ``$REPRO_BENCH_RESULTS``
(default ``bench_results/``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass
class ResultTable:
    """One experiment's output: a titled table plus provenance notes."""

    experiment: str
    title: str
    columns: Sequence[str]
    rows: List[List[object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"{self.experiment}: row of {len(values)} values for "
                f"{len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def note(self, text: str) -> None:
        self.notes.append(text)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        widths = [len(str(c)) for c in self.columns]
        formatted: List[List[str]] = []
        for row in self.rows:
            cells = [_format_cell(v) for v in row]
            formatted.append(cells)
            widths = [max(w, len(c)) for w, c in zip(widths, cells)]
        lines = [f"== {self.title} =="]
        header = "  ".join(str(c).ljust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for cells in formatted:
            lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "experiment": self.experiment,
            "title": self.title,
            "columns": list(self.columns),
            "rows": self.rows,
            "notes": self.notes,
        }

    def save(self, directory: Optional[str] = None) -> str:
        """Write ``<experiment>.json`` into ``directory``, else
        ``$REPRO_BENCH_RESULTS`` as it is now, else ``bench_results/``."""
        directory = directory or os.environ.get("REPRO_BENCH_RESULTS", "bench_results")
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.experiment}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)
        return path

    # ------------------------------------------------------------------
    # Queries (used by the figures' shape checks)
    # ------------------------------------------------------------------
    def column(self, name: str) -> List[object]:
        idx = list(self.columns).index(name)
        return [row[idx] for row in self.rows]

    def lookup(self, **criteria: object) -> List[List[object]]:
        """Rows whose named columns equal the given values."""
        indices = {name: list(self.columns).index(name) for name in criteria}
        return [
            row
            for row in self.rows
            if all(row[idx] == value for name, (idx, value) in
                   ((n, (indices[n], criteria[n])) for n in criteria))
        ]

    def value(self, column: str, **criteria: object) -> object:
        rows = self.lookup(**criteria)
        if len(rows) != 1:
            raise KeyError(
                f"{self.experiment}: {criteria} matched {len(rows)} rows"
            )
        return rows[0][list(self.columns).index(column)]


def _format_cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.1f}" if abs(value) >= 10 else f"{value:.4f}"
    return str(value)
