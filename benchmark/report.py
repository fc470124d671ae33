"""Run every workload once and print each of its metrics with its unit.

    python3 benchmark/report.py --seed 1 [--seconds 40] [--trace 0]

Prints one row per metric and workload: the end-to-end metrics of the
result line, then the workload-specific metrics of the detail line, then
the attempted and failed operation counts. Exits 1 if any run fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train", "generate", "ablate")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    status = 0
    print(f"{'workload':10s} {'metric':45s} {'value':>14s}  unit")
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{workload}: run failed (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        for metrics in (result["metrics"], detail["metrics"]):
            for name, metric in metrics.items():
                value = "n/a" if metric["value"] is None else f"{metric['value']:.6g}"
                print(f"{workload:10s} {name:45s} {value:>14s}  {metric['unit']}")
        print(f"{workload:10s} {'attempted / failed':45s} "
              f"{result['attempted']:>7d} / {result['failed']:<4d}  operations")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
