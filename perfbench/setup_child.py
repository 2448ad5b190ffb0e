"""Set up one workload in a fresh interpreter, for the benchmark's setup_s.

    python3 perfbench/setup_child.py WORKLOAD SEED WORKDIR

Imports cmlab from the checkout's ``src/`` and builds the workload's inputs
(for cli-runs: imports ``cmlab.cli``), then prints ``ready``. The parent
times from spawning this process to that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    import workloads
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.WORKLOADS[name].setup(seed, workdir)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
