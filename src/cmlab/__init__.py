"""Conformal metrics with prescribed negative curvature and singularities.

Solves -Delta v = K e^{2(S+v)} - 2 pi sum(beta) on the flat unit torus for
divisors of conical (beta > -1) and near-cusp weights, continues cones to
cusps, and provides curvature-measure diagnostics (flux residues, Kelvin
transforms, neck areas, bubble-tree area identities) on closed-form model
geometries.

A bare ``import cmlab`` loads no submodule. Each public name is resolved on
first access by the module ``__getattr__`` below (PEP 562), which imports
only the submodule that defines it and the ones that submodule imports:
``cmlab.singular_part`` loads ``errors``, ``grids``, ``measures`` and
``green``, not the solver. Nothing is cached here, so a rebinding in the
submodule (a test's monkeypatch, a tracer's wrapper) is what the package
returns. ``cmlab.cli`` imports every module eagerly.
"""

from importlib import import_module

# submodule -> the public names it defines
_EXPORTS = {
    "bubbles": ("AreaIdentityReport", "NeckLimitReport", "NeckReport", "SyntheticFamily",
                "ThreeCircleReport", "ValidationReport", "area_identity_check",
                "list_fixtures", "load_fixture", "neck_area_profile", "neck_curvature_limit",
                "three_circle_check", "validate_family"),
    "continuation": ("ContinuationResult", "ContinuationSchedule", "ScanReport",
                     "StageReport", "cusp_schedule", "no_bubble_scan", "run_continuation"),
    "errors": ("CmlabError", "ConfigError", "CurvatureSignError", "InfeasibleTopology",
               "NonConvergence", "NonStabilizingFlux", "ResidualOverflow", "StageFailure"),
    "green": ("SingularSplit", "TorusGreen", "green_kernel", "green_torus", "singular_part"),
    "grids": ("TAU", "Field", "bilinear_torus", "constant", "integral", "interpolate",
              "neg_laplacian", "poisson_mean_zero", "sample", "torus_distance"),
    "io": ("canonical_json", "emit_plot_data", "read_field", "read_report", "write_csv",
           "write_field", "write_report"),
    "measures": ("Divisor", "FluxProfile", "euler_characteristic", "flux_profile",
                 "kelvin_transform", "pairing", "residue", "residue_profiled"),
    "models": ("LinearCylinder", "cap_profile", "cusp_profile", "flat_neck_profile"),
    "solver": ("CurvatureSpec", "Solution", "metric_area", "newton_solve", "radial_length",
               "residual", "solve_divisor"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "1.0.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS, *__all__})
