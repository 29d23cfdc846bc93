#!/usr/bin/env python3
"""Run the scenario × config differential-equivalence matrix.

Replays a set of named access patterns (plus the checked-in trace) over
the engine configuration grid and asserts the oracle: every config must
converge to the identical logical state with clean self-checks (see
``docs/workloads.md``).  Writes ``bench_results/scenarios.json``.

Usage::

    python scripts/run_scenarios.py              # full grid (~13 configs)
    python scripts/run_scenarios.py --tiny       # CI smoke grid
    python scripts/run_scenarios.py --list       # show patterns/configs
    python scripts/run_scenarios.py --patterns zipf-0.9,ycsb-a \
        --configs pdl-256,opu --ops 300

Exits 1 when any scenario diverges across configs, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.scenarios.matrix import (  # noqa: E402
    DEFAULT_CONFIGS,
    DEFAULT_SEED,
    TINY_CONFIGS,
    default_patterns,
    run_matrix,
    tiny_patterns,
)
from repro.workloads.patterns import make_pattern, pattern_names  # noqa: E402

#: The checked-in replay trace (see docs/workloads.md for the format).
DEFAULT_TRACE = _ROOT / "benchmarks" / "traces" / "oltp_hotset.trace"


def _select_configs(grid, names):
    by_name = {config.name: config for config in grid}
    selected = []
    for name in names:
        if name not in by_name:
            known = ", ".join(sorted(by_name))
            raise SystemExit(f"unknown config {name!r}; grid has: {known}")
        selected.append(by_name[name])
    return selected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--tiny", action="store_true",
        help="reduced CI smoke grid: 6 patterns x 8 configs, fewer ops",
    )
    parser.add_argument(
        "--patterns", help="comma-separated pattern names (default: suite set)"
    )
    parser.add_argument(
        "--configs", help="comma-separated config names from the grid"
    )
    parser.add_argument(
        "--trace", type=Path, default=None,
        help=f"trace file to replay as an extra scenario (default: {DEFAULT_TRACE})",
    )
    parser.add_argument(
        "--no-trace", action="store_true", help="skip the trace-replay scenario"
    )
    parser.add_argument("--pages", type=int, default=None, help="database pages")
    parser.add_argument("--ops", type=int, default=None, help="operations per scenario")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--out", default=None, help="results directory (default: bench_results/)"
    )
    parser.add_argument(
        "--list", action="store_true", help="list registered patterns and the grid"
    )
    args = parser.parse_args(argv)

    grid = TINY_CONFIGS if args.tiny else DEFAULT_CONFIGS
    if args.list:
        print("registered patterns:")
        for name in pattern_names():
            print(f"  {name}")
        print("config grid:" + (" (tiny)" if args.tiny else ""))
        for config in grid:
            print(f"  {config.name:16s} {config.describe()}")
        return 0

    trace = None
    if not args.no_trace:
        trace = args.trace if args.trace is not None else DEFAULT_TRACE
        if not trace.exists():
            raise SystemExit(f"trace file not found: {trace}")
    if args.patterns:
        patterns = [make_pattern(name) for name in args.patterns.split(",")]
        if trace is not None and args.trace is not None:
            from repro.workloads.patterns import TracePattern

            patterns.append(TracePattern(trace))
    elif args.tiny:
        patterns = tiny_patterns(trace)
    else:
        patterns = default_patterns(trace)
    configs = _select_configs(grid, args.configs.split(",")) if args.configs else list(grid)

    n_pages = args.pages if args.pages is not None else (48 if args.tiny else 96)
    n_ops = args.ops if args.ops is not None else (220 if args.tiny else 600)

    # Which engines this artifact compares, once, in full.
    for cell in configs:
        print(f"config {cell.name} [{cell.backend}]: {cell.config.to_json()}")
    started = time.perf_counter()
    result = run_matrix(
        patterns, configs, n_pages=n_pages, n_ops=n_ops, seed=args.seed
    )
    elapsed = time.perf_counter() - started
    print(result.table.render())
    print(f"wall time: {elapsed:.1f}s")
    print(f"saved: {result.table.save(args.out)}")
    if not result.equivalent:
        print("\nORACLE DIVERGENCE:", file=sys.stderr)
        for failure in result.divergences:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(
        f"oracle: all {len(result.verdicts)} scenarios equivalent across "
        f"{len(configs)} configs"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
