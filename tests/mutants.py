"""Mutation check of tier-1 (all of tests/) and of its acceptance gate,
tests/test_acceptance.py.

Each mutant is a one-line edit of the package, applied by exact string
replacement to a copy of src/ in a temporary directory; tests/ and
pyproject.toml are copied beside it, so pytest imports the mutated copy.
The script runs tier-1 once on an unmutated copy and once per mutant, and
prints a Markdown table of the acceptance criteria that failed and the
number of tier-1 tests that failed. An
edit whose old text is not in the source exactly once stops the script,
so the list cannot go stale silently (DeMillo, Lipton & Sayward, "Hints on
test data selection", IEEE Computer 1978).

BLIND_SPOTS are the gate's intended blind spots: they change no answer, so
they should pass every criterion. The script exits 1 when a mutant in
MUTANTS, each of which changes the answer, fails no criterion.

pytest does not collect this file. Run it from anywhere:

    python tests/mutants.py
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (what the mutant does, module under src/cmlab, old text, new text)
MUTANTS = [
    ("`singular_part` builds S from kernels at p + (0.5/n, 0)", "green.py",
     "greens = tuple(green_kernel(p, n) for p in div.points)",
     "greens = tuple(green_kernel((p[0] + 0.5 / n, p[1]), n) for p in div.points)"),
    ("the same at p + (2/n, 0)", "green.py",
     "greens = tuple(green_kernel(p, n) for p in div.points)",
     "greens = tuple(green_kernel((p[0] + 2.0 / n, p[1]), n) for p in div.points)"),
    ("S with weight 0.9β (the constant keeps β)", "green.py",
     "return tuple((TAU * b, g.samples) for b, g in zip(self.divisor.betas, self.greens))",
     "return tuple((TAU * 0.9 * b, g.samples) for b, g in zip(self.divisor.betas, self.greens))"),
    ("`green_kernel` at p + 0.5/n for every caller", "green.py",
     "return _green_cached(px, py, int(n))",
     "return _green_cached(px + 0.5 / n, py + 0.5 / n, int(n))"),
    ("the -Δ symbol × 1.001", "grids.py",
     "return (TAU * kx) ** 2, (TAU * ky) ** 2",
     "return 1.001 * (TAU * kx) ** 2, 1.001 * (TAU * ky) ** 2"),
]

# v absorbs a constant shift of G, so the answer does not change; a wrong
# start changes the cost, not the answer
BLIND_SPOTS = [
    ("G's mean-pinning disk term × 2 (a constant shift of G)", "green.py",
     "0.5 * _R1 ** 2 * (math.log(_R1) - 0.5)",
     "2.0 * 0.5 * _R1 ** 2 * (math.log(_R1) - 0.5)"),
    ("`_coarse_start` copies the coarse Nyquist row into the fine start", "solver.py",
     "vhat[n - h + 1:, :h] = chat[h + 1:, :h]",
     "vhat[n - h:, :h] = chat[h:, :h]"),
]

_SKIP = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis", ".pytest_cache")


def _copy_tree(dest: Path) -> None:
    shutil.copytree(ROOT / "src", dest / "src", ignore=_SKIP)
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=_SKIP)
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _mutate(tree: Path, module: str, old: str, new: str) -> None:
    path = tree / "src" / "cmlab" / module
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit(f"mutant text is not in src/cmlab/{module} exactly once: {old!r}")
    path.write_text(text.replace(old, new), encoding="utf-8")


def _tier1(tree: Path) -> tuple[list, int, int]:
    """(numbers of the failed criteria, tier-1 tests failed, tier-1 tests
    run) on the tree's copy."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "tests"],
        cwd=tree, env=env, capture_output=True, text=True, timeout=1800, check=False)
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"pytest exited {proc.returncode}")
    failed = re.findall(r"^(?:FAILED|ERROR) (tests/\S+)", proc.stdout, re.M)
    criteria = sorted({int(c) for c in re.findall(
        r"^tests/test_acceptance\.py::test_criterion_(\d+)", "\n".join(failed), re.M)})
    passed = re.search(r"(\d+) passed", proc.stdout)
    return criteria, len(failed), len(failed) + (int(passed.group(1)) if passed else 0)


def main() -> int:
    rows = [("none (the source as it is)", None, "", "")] + MUTANTS + BLIND_SPOTS
    unseen = []
    print("| mutant | acceptance criteria failed | tier-1 tests failed |")
    print("| --- | --- | --- |")
    for row in rows:
        what, module, old, new = row
        with tempfile.TemporaryDirectory(prefix="cmlab-mutant-") as tmp:
            tree = Path(tmp)
            _copy_tree(tree)
            if module is not None:
                _mutate(tree, module, old, new)
            criteria, failed, run = _tier1(tree)
        if row in MUTANTS and not criteria:
            unseen.append(what)
        blind = " (intended blind spot)" if row in BLIND_SPOTS else ""
        print(f"| {what} | {', '.join(map(str, criteria)) or 'none'}{blind} "
              f"| {failed} of {run} |", flush=True)
    for what in unseen:
        print(f"no acceptance criterion fails under: {what}", file=sys.stderr)
    return 1 if unseen else 0


if __name__ == "__main__":
    sys.exit(main())
