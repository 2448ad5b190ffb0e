#!/usr/bin/env python3
"""Self-test of the benchmark: traced counts are deterministic.

    python3 perfbench/selftest.py

Runs every workload traced twice at seed 0 (one FFT worker) and fails
unless every count-valued per-layer metric is identical across the two
runs and both runs pass their correctness gates. It also compares the
seed-0 solver counts with the baseline of the code the benchmark was
defined on, and reports a difference as a failure: a change that moves
them (a better preconditioner, say) must say so.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Measured at the commit that defined the benchmark (see README.md).
BASELINE = {
    "fine-solve": {"newton_iters": [4], "cg_iters": [53]},
    "cusp-ladder": {"one-cusp stage cg": [41, 80, 99, 87, 90, 90, 93, 93, 67, 68]},
}


def traced(workload: str) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: traced run exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spans = json.loads((HERE / "out" / f"trace-{workload}-seed0.json").read_text())["spans"]
    return result, spans


def solver_counts(spans: list) -> dict:
    """Newton and CG counts per solve; per-stage CG of the first ladder."""
    solves = [s for s in spans if s[0] == "solver.newton_solve" and s[4]]
    out = {"newton_iters": [s[4]["newton_iters"] for s in solves],
           "cg_iters": [s[4]["cg_iters"] for s in solves]}
    ladders = [i for i, s in enumerate(spans) if s[0] == "continuation.run_continuation"]
    if ladders:
        out["one-cusp stage cg"] = [s[4]["cg_iters"] for s in solves
                                    if s[3] == ladders[0]]
    return out


def main() -> int:
    import workloads
    problems = []
    for name in workloads.WORKLOADS:
        (first, spans), (second, _) = traced(name), traced(name)
        for run in (first, second):
            if not run["correct"]:
                problems.append(f"{name}: {run['failed']} of {run['attempted']} operations failed")
        for metric, entry in first["metrics"].items():
            if entry["unit"] == "s":
                continue
            again = second["metrics"].get(metric, {}).get("value")
            if entry["value"] != again:
                problems.append(f"{name}: {metric} {entry['value']} then {again}")
        counts = solver_counts(spans)
        for key, want in BASELINE.get(name, {}).items():
            if counts.get(key) != want:
                problems.append(f"{name}: {key} {counts.get(key)}, baseline {want}")
        stages = counts.get("one-cusp stage cg")
        print(f"{name}: {sum(counts['newton_iters'])} Newton steps, "
              f"{sum(counts['cg_iters'])} CG iterations"
              + (f"; one-cusp ladder per stage {stages}" if stages else ""))
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
