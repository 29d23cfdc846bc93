"""Invariant lint engine: AST-based enforcement of the engine's contracts.

The concurrent engine's correctness rests on contracts the docs state in
prose — single-writer shard ownership, phase/timer pairing under
``try/finally``, shm/worker cleanup on every exit path, pin discipline,
a cycle-free lock order, no swallowed worker errors, no checksum
bypasses outside recovery.  PR 6/7 review fixes
showed these break silently; this package makes them machine-checked.

Architecture (mirrors the GC victim-policy registry idiom):

* :mod:`.findings` — the :class:`Finding` record every rule emits;
* :mod:`.project` — source loading, AST parsing and the
  ``# repro: allow[rule-id]`` inline-suppression scanner;
* :mod:`.registry` — rule registration/lookup by id;
* :mod:`.engine` — orchestration: load → run rules → suppress → report;
* :mod:`.rules` — the project-specific rules (importing the subpackage
  registers them all).

The CLI entry point is ``scripts/lint_invariants.py``; the rule
catalogue, suppression syntax and how to add a rule are documented in
``docs/static-analysis.md``.
"""

from .engine import AnalysisResult, analyze
from .findings import Finding, Severity
from .project import Module, Project, load_project
from .registry import all_rules, get_rule, register_rule, rule_ids

# Importing the subpackage registers every rule with the registry.
from . import rules as _rules  # noqa: F401  (import-for-side-effect)

__all__ = [
    "AnalysisResult",
    "Finding",
    "Module",
    "Project",
    "Severity",
    "all_rules",
    "analyze",
    "get_rule",
    "load_project",
    "register_rule",
    "rule_ids",
]
