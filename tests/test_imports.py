"""The package's import contract, each side checked in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cmlab

MODULES = ["cmlab", "cmlab.bubbles", "cmlab.cli", "cmlab.continuation", "cmlab.errors",
           "cmlab.green", "cmlab.grids", "cmlab.io", "cmlab.measures", "cmlab.models",
           "cmlab.solver"]

# Runs each statement of a JSON list and prints, as JSON, the cmlab and
# scipy modules loaded after each; a list without scipy shows none loaded.
_PROBE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("cmlab", "scipy"))
steps = []
for statement in json.loads(sys.argv[1]):
    exec(statement)
    steps.append(loaded())
print(json.dumps(steps))
"""


def _loaded_after(*statements) -> list:
    env = dict(os.environ, PYTHONPATH=str(Path(cmlab.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(statements)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_bare_import_loads_modules_on_first_use():
    bare, split, solver, every = _loaded_after(
        "import cmlab",
        "cmlab.singular_part",
        "assert cmlab.solver is sys.modules['cmlab.solver']",
        "assert all(getattr(cmlab, name) is not None for name in cmlab.__all__)")
    assert bare == ["cmlab"]
    assert split == ["cmlab", "cmlab.errors", "cmlab.green", "cmlab.grids", "cmlab.measures"]
    assert solver == split + ["cmlab.solver"]  # a submodule's name resolves to it
    # every public name resolves without the CLI, and none of them needs scipy
    assert every == [m for m in MODULES if m != "cmlab.cli"]


def test_cli_import_loads_every_module():
    # perfbench/run.py --trace 1 imports cmlab.cli and then wraps the layer
    # functions of the modules already loaded (perfbench/layers.py,
    # Tracer.install): the CLI's imports stay eager so that every layer is
    # loaded, and so traced, by that one import
    assert _loaded_after("import cmlab.cli") == [MODULES]


def test_a_kernel_build_imports_no_quadrature():
    # the kernel's mean pin is a constant, so a build runs no Gauss-Legendre
    # rule and does not import numpy.polynomial; imported during the build,
    # it pinned an 8 MiB heap hole and raised the n = 1024 solve's peak RSS
    code = ("import sys; from cmlab.green import green_kernel; "
            "green_kernel((0.3, 0.7), 64); print('numpy.polynomial' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(cmlab.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == ["False"]


def test_public_names_and_submodules():
    assert len(cmlab.__all__) == len(set(cmlab.__all__)) == 70
    assert set(cmlab.__all__) <= set(dir(cmlab))
    assert cmlab.singular_part is sys.modules["cmlab.green"].singular_part
    assert "singular_part" not in vars(cmlab)  # resolved, not cached
    with pytest.raises(AttributeError, match="'conformal_area'"):
        cmlab.conformal_area
    # the planar charts and the names that served only them are not public
    for gone in ("DiskChart", "LogPolarChart", "SignedMeasureSample", "newtonian_potential",
                 "rescale"):
        assert not hasattr(cmlab, gone)
    # nor the random-start uniqueness probe; criterion 3 solves from far starts
    for gone in ("UniquenessReport", "random_smooth_field", "uniqueness_probe"):
        assert not hasattr(cmlab, gone)
    # nor the chart object, which had one value, nor names only their own
    # tests called
    for gone in ("TorusChart", "parse_descriptor", "mollify_curvature", "BlowupSeq",
                 "classify_pair", "plane_area"):
        assert not hasattr(cmlab, gone)
