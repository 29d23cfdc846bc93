#!/usr/bin/env python3
"""Run the invariant lint engine (``scripts/invariants/``) over the tree.

Usage:
    python scripts/lint_invariants.py [paths...] [--rule ID]... [--list-rules]

Exit codes: 0 = clean, 1 = findings or unparseable files, 2 = usage
error (unknown rule, missing path, a path with no Python files under it).

Defaults: scans ``src/`` relative to the repo root.  There is no
baseline and no suppression: a finding is fixed.  See
docs/static-analysis.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from invariants import RULES, analyze
from invariants.project import iter_python_files

REPO_ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lint_invariants",
        description="AST-based enforcement of the engine's concurrency "
        "and resource contracts",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to scan (default: src/)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        help="run only this rule id (repeatable)",
    )
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.id}: {rule.summary}")
        return 0

    paths = args.paths or [REPO_ROOT / "src"]
    for path in paths:
        if not path.exists():
            print(f"error: no such path: {path}", file=sys.stderr)
            return 2
        if not iter_python_files([path]):
            print(f"error: no Python files under {path}", file=sys.stderr)
            return 2

    rules = None
    if args.rule:
        by_id = {rule.id: rule for rule in RULES}
        unknown = [rid for rid in args.rule if rid not in by_id]
        if unknown:
            print(
                f"error: unknown rule {unknown[0]!r}; known rules: {', '.join(by_id)}",
                file=sys.stderr,
            )
            return 2
        rules = [by_id[rid] for rid in args.rule]

    root = REPO_ROOT
    try:
        for path in paths:
            path.resolve().relative_to(REPO_ROOT)
    except ValueError:
        # Scanning outside the repo (e.g. a fixture tree copy):
        # anchor paths at the first scanned directory instead.
        first = paths[0].resolve()
        root = first if first.is_dir() else first.parent

    result = analyze(paths, root=root, rules=rules)
    for rel, msg in result.broken:
        print(f"{rel}:0: [parse-error] error: {msg}")
    for finding in result.new:
        print(finding.render())
    print(f"{len(result.new) + len(result.broken)} error(s)")
    return 0 if result.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
