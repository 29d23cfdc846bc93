"""Invariant lint engine: AST-based checks of the engine's contracts.

The engine's correctness rests on contracts the docs state in prose.
Ordinary linters cannot see them and no runtime check catches them, so
this package does:

* one writer per shard — whoever holds the shard's gate;
* one lock order, pool lock → page latch(es) → driver lock / shard
  gate.  The one write-back protocol (eviction, ``flush_page`` and
  ``flush_all`` — a dirty frame reaches flash no other way) takes them
  in that order, and a page calls its pool only with its latch released;
* pins counted by the pool through its pin guard, never a raw ``pin()``;
* phase scopes and timers that close on every exit path;
* chips, backends and crash hooks released on every path;
* no swallowed errors, and no unverified reads outside fsck/recovery;
* an ``OPEN_BLOCK`` journal record committed before the block is used.

All calls run on the caller's thread: there are no worker threads, so
every lock above is taken by the thread that asked for the work.

* :mod:`.project` — source loading and AST parsing;
* :mod:`.findings` — the :class:`Finding` record and the :class:`Rule` base;
* :mod:`.rules` — the rules, listed in :data:`~.rules.RULES`.

The CLI is ``scripts/lint_invariants.py``; the rule catalogue and how to
add a rule are in ``docs/static-analysis.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from .findings import Finding, Rule
from .project import load_project
from .rules import RULES


@dataclass
class AnalysisResult:
    """Everything one analyzer run produced.

    ``new`` are the findings, sorted and de-duplicated; ``broken`` are
    files that failed to parse.  Both fail the build: an unparseable
    file is an unanalyzed file.
    """

    new: List[Finding] = field(default_factory=list)
    broken: List[tuple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.new and not self.broken


def analyze(
    paths: Iterable[Path],
    root: Path,
    rules: Optional[Sequence[Rule]] = None,
) -> AnalysisResult:
    """Parse ``paths`` and run every (or the given) rule over them."""
    project = load_project(paths, root=root)
    findings: List[Finding] = []
    seen = set()
    for rule in RULES if rules is None else rules:
        for finding in rule.run(project):
            ident = (finding.rule, finding.path, finding.line, finding.message)
            if ident not in seen:
                seen.add(ident)
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return AnalysisResult(new=findings, broken=list(project.broken))


__all__ = ["RULES", "AnalysisResult", "Finding", "Rule", "analyze"]
