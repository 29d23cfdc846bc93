#!/usr/bin/env python3
"""Run the invariant lint engine over the tree.

Usage:
    python scripts/lint_invariants.py [paths...]
        [--format text|json] [--output FILE] [--list-rules] [--rule ID]...

Exit codes: 0 = clean, 1 = findings, 2 = usage/configuration error
(unknown rule, missing path).

Defaults: scans ``src/`` relative to the repo root.  There is no
baseline: a finding is fixed, or suppressed inline with a reason.  See
docs/static-analysis.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import analyze, get_rule, all_rules  # noqa: E402
from repro.analysis.findings import Severity  # noqa: E402


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
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="also write the report (in --format) to this file",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        help="run only this rule id (repeatable)",
    )
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="root for relative finding paths (default: repo root, or the "
        "scanned directory when it lies outside the repo)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}: {rule.summary}")
        return 0

    paths = args.paths or [REPO_ROOT / "src"]
    for path in paths:
        if not path.exists():
            print(f"error: no such path: {path}", file=sys.stderr)
            return 2

    rules = None
    if args.rule:
        try:
            rules = [get_rule(rid) for rid in args.rule]
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2

    root = args.root
    if root is None:
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
    report = render(result, args.fmt)
    print(report)
    if args.output is not None:
        args.output.write_text(report + "\n", encoding="utf-8")
    return 0 if result.ok else 1


def render(result, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(
            {
                "findings": [f.to_json() for f in result.new],
                "suppressed": [f.to_json() for f in result.suppressed],
                "parse_errors": [
                    {"path": rel, "error": msg} for rel, msg in result.broken
                ],
                "ok": result.ok,
            },
            indent=2,
        )
    lines = []
    for rel, msg in result.broken:
        lines.append(f"{rel}:0: [parse-error] error: {msg}")
    for finding in result.new:
        lines.append(finding.render())
    errors = sum(
        1 for f in result.new if f.severity is Severity.ERROR
    ) + len(result.broken)
    lines.append(f"{errors} error(s), {len(result.suppressed)} suppressed")
    return "\n".join(lines)


if __name__ == "__main__":
    raise SystemExit(main())
