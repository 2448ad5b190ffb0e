#!/usr/bin/env python3
"""Print every metric of every workload: end to end (tracing off), then per
layer (a traced run).

    python3 perfbench/report.py [--seed N] [--seconds S]

Each workload runs once per mode, one after another, through run.py.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args()
    import workloads
    status = 0
    for trace in (0, 1):
        print("end to end, tracing off" if trace == 0 else "\nper layer, traced run")
        for name in workloads.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                print(f"  {name}: run failed (exit {proc.returncode})")
                status = 1
                continue
            result = json.loads(lines[-1])
            print(f"  {name}: correct {result['correct']}, "
                  f"{result['failed']} of {result['attempted']} operations failed")
            for metric, entry in result["metrics"].items():
                print(f"    {metric:36s} {entry['value']:<22.10g} {entry['unit']}")
            status |= 0 if result["correct"] else 1
    return status


if __name__ == "__main__":
    sys.exit(main())
