"""Command-line entry point: regenerate and check the paper's figures.

Usage::

    python -m repro.bench --list
    python -m repro.bench exp1 exp7
    python -m repro.bench all --scale smoke
    python -m repro.bench equivalence --scale smoke   # the scenario grid

Each figure prints its table and notes, saves ``<experiment>.json`` under
``$REPRO_BENCH_RESULTS`` (default ``bench_results/``) and runs its shape
check.  The exit status is 1 if any check failed; each failure names the
figure and the assertion on stderr.  The shape checks are plain
``assert`` statements, so ``python -O`` skips them; the equivalence
oracle raises regardless.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from typing import List

from .figures import FIGURES, SCALE_VAR, SCALES, current_scale, run


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate and check the tables and figures of the "
        "page-differential-logging paper.",
    )
    parser.add_argument("experiments", nargs="*", help="figure ids (see --list), or 'all'")
    parser.add_argument("--list", action="store_true", help="list figure ids")
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        help=f"benchmark scale (default from ${SCALE_VAR}, else 'small')",
    )
    parser.add_argument(
        "--no-save", action="store_true", help="skip writing the JSON result files"
    )
    args = parser.parse_args(argv)

    if args.list or not args.experiments:
        print("available experiments:")
        for name in FIGURES:
            print(f"  {name}")
        return 0

    names = list(FIGURES) if args.experiments == ["all"] else args.experiments
    unknown = [n for n in names if n not in FIGURES]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}")
    scale = SCALES[args.scale] if args.scale else current_scale()

    print(f"running at scale '{scale.name}'")
    failed = False
    for name in names:
        started = time.time()
        figure = FIGURES[name]
        table = run(figure, scale)
        print()
        print(table.render())
        if not args.no_save:
            print(f"  saved: {table.save()}")
        try:
            figure.check(table)
        except AssertionError as exc:
            failed = True
            where = traceback.extract_tb(exc.__traceback__)[-1]
            detail = f" ({exc})" if str(exc) else ""
            print(
                f"shape check failed: {name}: {where.filename}:{where.lineno}: "
                f"{where.line}{detail}",
                file=sys.stderr,
            )
        print(f"  elapsed: {time.time() - started:.1f}s")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
