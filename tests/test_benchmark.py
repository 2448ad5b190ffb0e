"""The benchmark's use of the package: each workload in
``perfbench/workloads.py`` sets up and passes once at seed 0, so an API
change that breaks the benchmark fails here first."""

import importlib.util
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py")
workloads = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)  # its dataclasses look their module up


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_benchmark_workload_passes_at_seed_0(tmp_path, name):
    # cli-runs writes its configs and artifacts under tmp_path; each command
    # runs through cmlab.cli.main in this process, as a traced pass does
    wl = workloads.WORKLOADS[name]
    out = wl.run_pass(wl.setup(0, tmp_path), workloads.inprocess_runner)
    assert out.attempted > 0
    assert out.failed == 0, out.notes
