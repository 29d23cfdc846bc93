#!/usr/bin/env python3
"""Compare two result files written by ``run.py --out``.

    python benchmarks/e2e/compare.py A.json B.json

A is the base, B the candidate.  Simulated and count metrics must be
bit-identical (they repeat exactly for a seed, so any difference is a
behaviour change); host metrics may worsen by at most the bound stored
in ``BENCHMARK.json``; no op may have failed on either side.  One row is
printed per (workload, metric) with both values and the ratio B/A;
the exit code is non-zero and the first offender is named when a check
fails.  This is the tool behind "two sets of runs of one commit agree".
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec as bench  # noqa: E402

BENCHMARK_JSON = HERE.parent.parent / "BENCHMARK.json"


def _bounds() -> dict:
    """Bounds as gated: BENCHMARK.json when present, else spec.py."""
    if BENCHMARK_JSON.is_file():
        declared = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
        return {m["name"]: m["bound"] for m in declared["end_to_end"]}
    return {m.name: m.bound for m in bench.END_TO_END}


def compare(base: dict, cand: dict) -> list:
    """Rows ``(workload, metric, a, b, ratio, verdict)``; verdict is
    ``"ok"`` or the reason the pair fails."""
    for key in ("seed", "smoke"):
        if base[key] != cand[key]:
            raise SystemExit(
                f"compare.py: the files differ in {key} "
                f"({base[key]} vs {cand[key]}); nothing to compare"
            )
    bounds = _bounds()
    rows = []
    for spec in bench.WORKLOADS:
        a_run = base["workloads"].get(spec.name, {}).get("end_to_end")
        b_run = cand["workloads"].get(spec.name, {}).get("end_to_end")
        if a_run is None or b_run is None:
            continue
        for metric in bench.END_TO_END:
            a = a_run["metrics"][metric.name]["value"]
            b = b_run["metrics"][metric.name]["value"]
            ratio = b / a if a else float("inf")
            if metric.clock == "sim":
                verdict = "ok" if a == b else "simulated metric differs"
            else:
                worse = ratio - 1.0 if metric.better == "lower" else 1.0 - ratio
                bound = bounds[metric.name]
                verdict = "ok" if worse <= bound else f"worse by more than {bound:.0%}"
            rows.append((spec.name, metric.name, a, b, ratio, verdict))
        a_frac, b_frac = (
            run["failed"] / max(1, run["attempted"]) for run in (a_run, b_run)
        )
        verdict = "ok" if a_frac == b_frac == 0 else "ops failed"
        rows.append((spec.name, "failed_op_frac", a_frac, b_frac, 1.0, verdict))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, cand = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    rows = compare(base, cand)
    if not rows:
        print("compare.py: the files share no end-to-end run", file=sys.stderr)
        return 2
    print(f"{'workload':18s} {'metric':22s} {'A':>14s} {'B':>14s} {'B/A':>8s}  verdict")
    for workload, metric, a, b, ratio, verdict in rows:
        print(f"{workload:18s} {metric:22s} {a:14.6g} {b:14.6g} {ratio:8.4f}  {verdict}")
    offenders = [row for row in rows if row[5] != "ok"]
    if offenders:
        workload, metric, a, b, _ratio, verdict = offenders[0]
        print(
            f"\nFAILED: {workload} {metric}: {verdict} (A={a!r}, B={b!r}); "
            f"{len(offenders)} of {len(rows)} rows fail",
            file=sys.stderr,
        )
        return 1
    print(f"\nok: {len(rows)} rows agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
