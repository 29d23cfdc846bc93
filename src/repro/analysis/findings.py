"""The finding record emitted by every rule, plus severity levels."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How seriously a finding should be treated.

    ``ERROR`` findings fail the build; ``WARNING`` findings are reported
    but do not affect the exit code; ``NOTE`` is informational.
    """

    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Finding:
    """One violation at one source location.

    ``path`` is stored as a POSIX-style path relative to the scan root
    so findings are stable across machines.
    """

    rule: str
    path: str
    line: int
    message: str
    severity: Severity = Severity.ERROR
    hint: str = field(default="", compare=False)

    def render(self) -> str:
        text = f"{self.path}:{self.line}: [{self.rule}] {self.severity}: {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "severity": self.severity.value,
            "message": self.message,
            "hint": self.hint,
        }
