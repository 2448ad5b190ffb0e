"""Command-line front end: solves, continuation runs, concentration scans,
and bubble diagnostics, with reproducible artifacts.

Every run writes report.json (canonical form: sorted keys, floats in
Python's shortest round-trip repr, which is exact, so a re-emit is
byte-identical) plus CSV plot series into the output directory; grid fields
are written as CMLGRID1. Exit status: 0 success, 2 hypothesis violation or
concentration flag (artifacts still written), 1 usage, configuration or
solver error ("error: ..." on stderr, no artifact written); --help exits 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from .bubbles import area_identity_check, load_fixture, neck_area_profile, three_circle_check
from .continuation import check_scan, cusp_schedule, no_bubble_scan, run_continuation
from .errors import CmlabError, ConfigError
from .grids import MIN_N, Field
from .io import emit_plot_data, ini_value, read_ini, read_report, write_field, write_report
from .measures import Divisor, euler_characteristic
from .models import LinearCylinder
from .green import singular_part
from .solver import CurvatureSpec, check_curvature_bounds, newton_solve

_DEFAULT_ATOMS = ((0.3, 0.7),)
_DEFAULT_BETAS = (-0.5,)


@dataclasses.dataclass
class RunConfig:
    """Validated run parameters: command, grid, tolerances, output dir."""

    command: str
    out_dir: Path
    n: int
    tol: float
    options: dict
    report_path: str | None

    def __post_init__(self):
        if self.n < MIN_N or self.n & (self.n - 1):
            raise ConfigError(f"grid resolution {self.n} is not a power of two >= {MIN_N}")
        if not 0 < self.tol < math.inf:
            raise ConfigError(f"tolerance must be positive and finite, got {self.tol}")


def _parse_pairs(text: str):
    out = []
    for token in text.split():
        parts = token.split(",")
        if len(parts) != 2:
            raise ConfigError(f"expected x,y pairs, got {token!r}")
        out.append((float(parts[0]), float(parts[1])))
    return tuple(out)


def _parse_floats(text: str):
    return tuple(float(t) for t in text.split())


def load_config(command: str, args) -> RunConfig:
    """A flag overrides its [run] key, and the key the default: one conversion."""
    _, _, own_keys, run_keys = _COMMANDS[command]
    flags = vars(args)
    sections: dict = {}
    if flags.get("config") is not None:  # a file that cannot be read fails as an OSError
        sections = read_ini(Path(args.config).read_text(encoding="utf-8"), args.config,
                            {"run": run_keys, command: own_keys})
    run = sections.get("run", {}) | {k: flags[k] for k in run_keys if flags[k] is not None}
    n = ini_value(run, "grid", int, 256)
    tol = ini_value(run, "tol", float, 1e-10)
    return RunConfig(command=command, out_dir=Path(args.out), n=n, tol=tol,
                     options=sections.get(command, {}), report_path=flags.get("report_path"))


def _report_fields(result, *omit) -> dict:
    """Each field of a result dataclass but `omit`, under its camelCase name
    (gb_defect -> gbDefect, area_q1 -> areaQ1); nested dataclasses, alone or
    in tuples, become dicts the same way. Reports key results by this rule;
    only keys that are not a field's camelCase name are written by hand."""
    def value(v):
        if dataclasses.is_dataclass(v):
            return _report_fields(v)
        return [value(x) for x in v] if isinstance(v, tuple) else v

    def camel(name):
        head, *rest = name.split("_")
        return head + "".join(w[0].upper() + w[1:] for w in rest)

    return {camel(f.name): value(getattr(result, f.name))
            for f in dataclasses.fields(result) if f.name not in omit}


# -- command handlers (report dict, fields dict, exit code) -------------------

def _problem(cfg: RunConfig, cusp: bool = False):
    """Divisor, spec, curvature; betas default to -1 per atom if `cusp`, else -0.5."""
    opt = cfg.options
    atoms = ini_value(opt, "atoms", _parse_pairs, _DEFAULT_ATOMS)
    betas = ini_value(opt, "betas", _parse_floats,
                      (-1.0,) * len(atoms) if cusp else _DEFAULT_BETAS)
    curvature = ini_value(opt, "curvature", float, -1.0)
    check_curvature_bounds(curvature)
    return Divisor(atoms, betas), CurvatureSpec(curvature), curvature


def _solved(cfg: RunConfig):
    """Solve the configured problem: the Solution and the report fields
    that name the problem."""
    div, spec, curvature = _problem(cfg)
    sol = newton_solve(spec, singular_part(div, cfg.n), tol=cfg.tol)
    return sol, {"command": cfg.command, "grid": cfg.n, "tol": cfg.tol,
                 "atoms": [list(p) for p in div.points], "betas": list(div.betas),
                 "curvature": curvature}


def _cmd_solve(cfg: RunConfig):
    sol, report = _solved(cfg)
    report.update(_report_fields(sol, "split", "spec", "v", "grid_area"),
                  chi=euler_characteristic(sol.split.divisor))
    fields = {"u.cmlgrid": Field(sol.u_values), "v.cmlgrid": sol.v}
    return report, fields, 0


def _cmd_continue(cfg: RunConfig):
    div, _, curvature = _problem(cfg, cusp=True)
    k_max = ini_value(cfg.options, "k_max", int, 10)
    scan_radius = ini_value(cfg.options, "scan_radius", float, 1.0 / 16.0)
    sched = cusp_schedule(div, k_max=k_max, curvature=curvature)
    result = run_continuation(sched, n=cfg.n, tol=cfg.tol, scan_radius=scan_radius)
    report = {
        "command": "continue-cusp", "grid": cfg.n, "tol": cfg.tol,
        "atoms": [list(p) for p in div.points], "targetBetas": list(div.betas),
        "kMax": k_max, "curvature": curvature, **_report_fields(result, "final"),
    }
    fields = {
        "u_final.cmlgrid": Field(result.final.u_values),
        "v_final.cmlgrid": result.final.v,
    }
    return report, fields, 0


def _cmd_scan(cfg: RunConfig):
    radius = ini_value(cfg.options, "radius", float, 1.0 / 16.0)
    threshold = ini_value(cfg.options, "threshold", float, 1.0)
    radii = (radius, radius / 2.0)
    check_scan(radii, threshold)
    sol, report = _solved(cfg)
    scan = no_bubble_scan(sol, radii, threshold=threshold)
    report.update(_report_fields(scan, "max_mass", "max_area", "flags"),
                  threshold=threshold, maxLocalMass=scan.max_mass,
                  maxLocalArea=scan.max_area,
                  flags=[{"center": list(c), "r": r, "mass": m}
                         for c, r, m in scan.flags])
    fields = {"u.cmlgrid": Field(sol.u_values)}
    return report, fields, 2 if scan.flags else 0


def _cmd_three_circle(cfg: RunConfig):
    opt = cfg.options
    kappa = ini_value(opt, "kappa", float, 0.5)
    length = ini_value(opt, "length", float, 10.0)
    model = LinearCylinder(ini_value(opt, "a", float, 0.0), ini_value(opt, "b", float, -1.0))
    rep = three_circle_check(model, kappa, length)
    report = {"command": "three-circle", "A": model.A, "B": model.B, "kappa": kappa,
              "length": length, **_report_fields(rep)}
    return report, {}, 0 if (rep.hypothesis_ok and rep.decay_ok) else 2


def _cmd_neck(cfg: RunConfig):
    opt = cfg.options
    name = opt.get("fixture", "flat-neck")
    fam = load_fixture(name)
    k = ini_value(opt, "k", int, fam.k_max)
    if not fam.k_min <= k <= fam.k_max:
        raise ConfigError(f"k = {k} outside the fixture range "
                          f"[{fam.k_min}, {fam.k_max}]")
    r_in, r_out = fam.neck_radii(k, ini_value(opt, "r_out", float, None))
    r_in = ini_value(opt, "r_in", float, r_in)
    rep = neck_area_profile(fam.u(k), fam.center(), r_in, r_out)
    violation = fam.sign_class == "violating"
    report = {
        "command": "neck", "fixture": name, "k": k,
        "rIn": r_in, "rOut": r_out,
        "hypothesisViolation": violation,
        "efold_annuli": {"radii": list(rep.efold_radii),
                         "areas": list(rep.efold_areas)},
        **_report_fields(rep, "efold_radii", "efold_areas"),
    }
    return report, {}, 2 if violation else 0


def _cmd_area_identity(cfg: RunConfig):
    opt = cfg.options
    name = opt.get("fixture", "spherical-cap")
    window = ini_value(opt, "window", float, 0.5)
    fam = load_fixture(name)
    rep = area_identity_check(fam, window=window)
    val = rep.validation
    hypothesis_fail = rep.violation or not (val.sign_ok and val.mass_ok
                                            and val.gradient_ok)
    report = {
        "command": "area-identity", "fixture": name,
        "window_areas": [{"k": k, "area": a}
                         for k, a in zip(rep.ks, rep.window_areas)],
        **_report_fields(rep, "ks", "window_areas"),
    }
    return report, {}, 2 if hypothesis_fail else 0


def _cmd_report(cfg: RunConfig):
    report = read_report(cfg.report_path)
    if not isinstance(report, dict):
        raise CmlabError(f"{cfg.report_path!r} does not hold a JSON object")
    return report, {}, 0


# name -> (handler, help, keys of its config section, the [run] keys it reads)
_COMMANDS = {
    "solve": (_cmd_solve, "solve the prescribed-curvature problem for one divisor",
              {"atoms", "betas", "curvature"}, {"grid", "tol"}),
    "continue-cusp": (_cmd_continue, "run the cone-to-cusp continuation schedule",
                      {"atoms", "betas", "k_max", "curvature", "scan_radius"},
                      {"grid", "tol"}),
    "scan": (_cmd_scan, "solve, then scan for concentrating curvature mass",
             {"atoms", "betas", "curvature", "radius", "threshold"}, {"grid", "tol"}),
    "three-circle": (_cmd_three_circle, "segment-area decay check on a cylinder model",
                     {"kappa", "length", "a", "b"}, set()),
    "neck": (_cmd_neck, "annulus-area profile of a neck region",
             {"fixture", "k", "r_in", "r_out"}, set()),
    "area-identity": (_cmd_area_identity, "bubble-tree area identity defect for a fixture",
                      {"fixture", "window"}, set()),
    "report": (_cmd_report, "re-emit plot CSVs from an existing report.json", set(), set()),
}
_RUN_HELP = {"grid": "grid resolution (power of two)", "tol": "solver tolerance"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a configuration error: exit 1
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cmlab",
        description="Conformal metrics with prescribed negative curvature: "
                    "solves, continuation, and concentration diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _, run_keys) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if name == "report":
            sp.add_argument("report_path", help="path to an existing report.json")
        else:
            sp.add_argument("--config", help="INI config file")
        sp.add_argument("--out", default="cml-out", help="output directory")
        for key in [k for k in _RUN_HELP if k in run_keys]:
            sp.add_argument(f"--{key}", help=_RUN_HELP[key])
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.command, args)
        report, fields, code = _COMMANDS[args.command][0](cfg)
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        write_report(cfg.out_dir / "report.json", report)
        emit_plot_data(report, cfg.out_dir)
        for name, fld in fields.items():
            write_field(cfg.out_dir / name, fld)
        if code == 2:
            print(f"hypothesis violation reported; artifacts in {cfg.out_dir}")
        else:
            print(f"ok; artifacts in {cfg.out_dir}")
        return code
    except (CmlabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
