#!/usr/bin/env python3
"""cmlab benchmark: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory, and the run fails (exit 2, no result) without it.

``--trace 0`` times whole passes of the workload with tracing off, for at
least S seconds, and reports the end-to-end metrics. ``--trace 1`` runs one
pass with every layer function wrapped and one without, and reports the
per-layer metrics; the spans go to ``perfbench/out/trace-<workload>-seed<N>.json``.
Either way every result is checked against its closed form, and the last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def environment(cml_threads) -> dict:
    import numpy
    import scipy
    import cmlab.grids
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or commit
    workers = getattr(cmlab.grids, "get_workers", None)
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "CML_THREADS": cml_threads,
            "fft_workers": workers() if workers else None, "commit": commit}


def setup_samples(workload: str, seed: int, workdir: Path, repeats: int) -> list:
    """Seconds from spawning a fresh interpreter to the workload's inputs
    being ready, `repeats` times, one interpreter at a time."""
    env = {k: v for k, v in os.environ.items() if k != "CML_THREADS"}
    cmd = [sys.executable, str(HERE / "setup_child.py"), workload, str(seed), str(workdir)]
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                ready = perf_counter() - t0
                proc.stdout.read()
                code = proc.wait(timeout=120)
            except BaseException:
                proc.kill()
                raise
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up child for {workload} failed")
        samples.append(ready)
    return samples


def run_untraced(wl, args, workdir: Path) -> tuple:
    import workloads
    setup_s = setup_samples(wl.name, args.seed, workdir, SETUP_REPEATS)
    inputs = wl.setup(args.seed, workdir)
    runner = workloads.subprocess_runner if wl.subprocesses else workloads.inprocess_runner
    times, outcomes = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        outcomes.append(wl.run_pass(inputs, runner))
        times.append(perf_counter() - t0)
        if perf_counter() - start >= args.seconds:
            break
    who = resource.RUSAGE_CHILDREN if wl.subprocesses else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    errs = [e for o in outcomes for e in o.area_errs]
    q1, med, q3 = _quartiles(times)
    s1, smed, s3 = _quartiles(setup_s)
    print(f"wall_s median {med:.4f} q1 {q1:.4f} q3 {q3:.4f} passes {len(times)}: "
          + " ".join(f"{t:.4f}" for t in times))
    print(f"setup_s median {smed:.4f} q1 {s1:.4f} q3 {s3:.4f} samples {len(setup_s)}")
    metrics = {
        "wall_s": (med, "s"),
        "setup_s": (smed, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "pass_rate": ((attempted - failed) / attempted if attempted else 0.0, "1"),
        # 1.0 stands for "no area produced", which only a failed run reports
        "area_rel_err": (max(errs) if errs else 1.0, "1"),
    }
    return outcomes, metrics


def run_traced(wl, args, workdir: Path) -> tuple:
    import cmlab.cli  # noqa: F401  (its functions are wrapped too)
    import layers
    import workloads
    tracer = layers.Tracer()
    t_origin = perf_counter()
    tracer.install()
    try:
        inputs = wl.setup(args.seed, workdir)
        t0 = perf_counter()
        outcomes = [wl.run_pass(inputs, workloads.inprocess_runner)]
        traced_s = perf_counter() - t0
    finally:
        tracer.uninstall()
    t0 = perf_counter()
    outcomes.append(wl.run_pass(inputs, workloads.inprocess_runner))
    plain_s = perf_counter() - t0
    values = layers.reduce_spans(tracer.spans, tracer.missing)
    # the cli-runs set-up is exactly "spawn to cmlab.cli imported"
    imports = setup_samples("cli-runs", args.seed, workdir, IMPORT_REPEATS)
    values["cli.import_s"] = statistics.median(imports)
    values["trace.overhead_s"] = traced_s - plain_s
    metrics = {name: (values[name], unit) for name, unit in layers.METRICS if name in values}
    if tracer.missing:
        print("missing layer functions: " + ", ".join(tracer.missing))
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{wl.name}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": wl.name, "seed": args.seed, "traced_pass_s": traced_s,
        "untraced_pass_s": plain_s, "missing": tracer.missing,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "spans": tracer.dump(t_origin)}) + "\n", encoding="utf-8")
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    return outcomes, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "cmlab" / "__init__.py").is_file():
        print(f"error: no cmlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cml_threads = os.environ.pop("CML_THREADS", None)
    import cmlab
    if Path(cmlab.__file__).resolve().parent != (SRC / "cmlab").resolve():
        print(f"error: imported cmlab from {cmlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    print("env " + json.dumps(environment(cml_threads), sort_keys=True))

    workdir = OUT / f"work-{os.getpid()}"
    try:
        run = run_traced if args.trace else run_untraced
        outcomes, metrics = run(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for o in outcomes:
        for note in o.notes:
            print(f"failed: {note}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
