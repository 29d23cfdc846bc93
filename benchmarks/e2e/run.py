#!/usr/bin/env python3
"""End-to-end benchmark of the PDL engine: one command, six workloads.

    python benchmarks/e2e/run.py [--seed S] [--smoke] [--workload NAME]
                                 [--seconds N] [--trace {0,1}]
                                 [--out FILE] [--trace-out DIR]

Every (workload, pass) runs in a fresh subprocess with ``PYTHONHASHSEED=0``.
Pass 0 measures the end-to-end metrics with tracing off; pass 1 is the
traced run that attributes host time to layers.  Without ``--trace``
both passes run; without ``--workload`` all six workloads run.  Every
metric is printed by name with its unit, every read is checked against a
shadow copy, and the exit code is non-zero on any mismatch.

The last line of standard output is one JSON object.  For a single
(workload, pass) it is the benchmark contract's result record:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
#: Scratch space for the file-backed workloads, inside the checkout.
WORK = HERE / "_work"


def _bootstrap() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: the engine's sources are missing ({SRC}/repro); "
                 "run from a full checkout")
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _parse(argv) -> argparse.Namespace:
    import spec as bench

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in bench.WORKLOADS])
    parser.add_argument("--seed", type=int, default=bench.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(bench.RUN_SECONDS),
                        help="host seconds the measured window lasts")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end pass only; 1: traced pass only")
    parser.add_argument("--smoke", action="store_true",
                        help="~1/20 of the ops, one set-up; whole command < 30 s")
    parser.add_argument("--out", type=Path, help="write the result file here")
    parser.add_argument("--trace-out", type=Path,
                        help="write spans as JSONL and Chrome-trace into this directory")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _child(args: argparse.Namespace) -> int:
    """Run one (workload, pass) in this process; print its record."""
    import harness

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        record = harness.run_pass(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.smoke, workdir, args.trace_out,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is using it
    print(json.dumps(record))
    return 0


def _spawn(args: argparse.Namespace, workload: str, trace: int) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    if args.trace_out is not None:
        command += ["--trace-out", str(args.trace_out.resolve())]
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0 or not done.stdout.strip():
        sys.exit(f"run.py: {workload} (trace {trace}) died with exit code "
                 f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _print_record(record: dict) -> None:
    kind = "per-layer (traced pass)" if record["trace"] else "end-to-end"
    print(f"\n== {record['workload']} · {kind} · seed {record['seed']} "
          f"· {record['wall_s']:.1f} s wall ==")
    for name, metric in record["metrics"].items():
        print(f"  {name:38s} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in record["detail"].items():
        if not isinstance(value, (dict, list)):
            print(f"  ({name:36s} {value:>16.6g})")
    status = "ok" if record["correct"] else "FAILED"
    print(f"  oracle: {status}: {record['failed']} failed of "
          f"{record['attempted']} ops attempted")
    for failure in record["failures"]:
        print(f"    {failure}")


def main(argv=None) -> int:
    _bootstrap()
    args = _parse(argv)
    if args.child:
        return _child(args)

    import harness
    import spec as bench

    names = [args.workload] if args.workload else [w.name for w in bench.WORKLOADS]
    passes = [args.trace] if args.trace is not None else [0, 1]
    started = time.time()
    records = []
    for name in names:
        for trace in passes:
            record = _spawn(args, name, trace)
            _print_record(record)
            records.append(record)

    correct = all(r["correct"] for r in records)
    if args.out is not None:
        env = harness.environment(ROOT)
        env["pythonhashseed"] = "0"  # what every child ran under
        result = {
            "schema": 1,
            "seed": args.seed,
            "smoke": args.smoke,
            "seconds": args.seconds,
            "started_unix": started,
            "env": env,
            "correct": correct,
            "workloads": {},
        }
        for record in records:
            entry = result["workloads"].setdefault(record["workload"], {})
            entry["per_layer" if record["trace"] else "end_to_end"] = record
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        print(f"\nwrote {args.out}")

    if not correct:
        first = next(r for r in records if not r["correct"])
        why = first["failures"][0] if first["failures"] else "no op was attempted"
        print(f"\nFAILED: {why}", file=sys.stderr)
    last = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
    }
    if len(records) == 1:
        last["metrics"] = records[0]["metrics"]
    else:
        last["runs"] = [f"{r['workload']}:{r['trace']}" for r in records]
    print(json.dumps(last))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
