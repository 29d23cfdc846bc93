"""Orchestration: load sources, run rules, apply inline suppressions."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from .findings import Finding, Severity
from .project import Project, load_project
from .registry import Rule, all_rules


@dataclass
class AnalysisResult:
    """Everything one analyzer run produced, pre-partitioned for reporting.

    ``new`` are the findings that fail the build; ``suppressed`` were
    silenced by inline ``# repro: allow[...]`` comments; ``broken`` are
    files that failed to parse (these fail the build too: an unparseable
    file is an unanalyzed file).
    """

    new: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    broken: List[tuple] = field(default_factory=list)

    @property
    def failing(self) -> List[Finding]:
        return [f for f in self.new if f.severity is Severity.ERROR] + [
            Finding(
                rule="parse-error",
                path=rel,
                line=0,
                message=msg,
                severity=Severity.ERROR,
            )
            for rel, msg in self.broken
        ]

    @property
    def ok(self) -> bool:
        return not self.failing


def run_rules(project: Project, rules: Optional[Sequence[Rule]] = None) -> List[Finding]:
    """Run every (or the given) rule over the project; sorted findings."""
    findings: List[Finding] = []
    seen = set()
    for rule in rules if rules is not None else all_rules():
        for finding in rule.run(project):
            ident = (finding.rule, finding.path, finding.line, finding.message)
            if ident not in seen:
                seen.add(ident)
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return findings


def analyze(
    paths: Iterable[Path],
    root: Path,
    rules: Optional[Sequence[Rule]] = None,
) -> AnalysisResult:
    """Full pipeline: parse → rules → inline suppressions."""
    project = load_project(paths, root=root)
    raw = run_rules(project, rules=rules)

    by_rel = {mod.rel: mod for mod in project.modules}
    kept: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in raw:
        mod = by_rel.get(finding.path)
        if mod is not None and mod.allows(finding.line, finding.rule):
            suppressed.append(finding)
        else:
            kept.append(finding)

    return AnalysisResult(
        new=kept,
        suppressed=suppressed,
        broken=list(project.broken),
    )
