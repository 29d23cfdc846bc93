"""The finding record every rule emits, and the rule base class."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .project import Project


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
    hint: str = field(default="", compare=False)

    def render(self) -> str:
        text = f"{self.path}:{self.line}: [{self.rule}] error: {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


class Rule:
    """Base class for one invariant check.

    Subclasses set the class attributes and implement :meth:`run`,
    which receives the whole parsed :class:`~.project.Project` (rules
    like lock-order need cross-module context) and yields
    :class:`Finding` records.  The helper :meth:`finding` fills in the
    rule id and hint so rule bodies stay terse.
    """

    id: str = ""
    summary: str = ""
    #: Shown alongside findings; tell the reader how to comply.
    hint: str = ""

    def run(self, project: "Project") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module, node, message: str) -> Finding:
        """Build a finding for ``node`` (anything with ``lineno``) in ``module``."""
        return Finding(
            rule=self.id,
            path=module.rel,
            line=getattr(node, "lineno", 0),
            message=message,
            hint=self.hint,
        )
