"""Command-line front end: solves, continuation runs, concentration scans,
and bubble diagnostics, with reproducible artifacts.

Every run writes report.json (canonical form: sorted keys, 17 significant
digits) plus CSV plot series into the output directory; grid fields are
written as CMLGRID1. Exit status: 0 success, 2 hypothesis violation or
concentration flag (artifacts still written), 1 configuration or solver
error.
"""

from __future__ import annotations

import argparse
import sys
from configparser import ConfigParser, Error as IniError
from dataclasses import dataclass, field
from pathlib import Path

from .bubbles import area_identity_check, load_fixture, neck_area_profile, three_circle_check
from .continuation import cusp_schedule, no_bubble_scan, run_continuation
from .errors import CmlabError, ConfigError
from .grids import Field, TorusChart
from .io import emit_plot_data, read_report, write_field, write_report
from .measures import Divisor, euler_characteristic
from .models import LinearCylinder
from .green import singular_part
from .solver import CurvatureSpec, newton_solve, uniqueness_probe

_SCHEMA = {
    "run": {"grid", "tol", "seed"},
    "solve": {"atoms", "betas", "curvature", "uniqueness_trials"},
    "continue-cusp": {"atoms", "betas", "k_max", "curvature", "scan_radius"},
    "scan": {"atoms", "betas", "curvature", "radius", "threshold"},
    "three-circle": {"fixture", "kappa", "length", "a", "b"},
    "neck": {"fixture", "k", "r_in", "r_out"},
    "area-identity": {"fixture", "window"},
    "report": set(),
}

_DEFAULT_ATOMS = ((0.3, 0.7),)
_DEFAULT_BETAS = (-0.5,)


@dataclass
class RunConfig:
    """Validated run parameters: command, grid, tolerances, output dir."""

    command: str
    out_dir: Path
    n: int = 256
    tol: float = 1e-10
    seed: int = 0
    options: dict = field(default_factory=dict)
    report_path: Path | None = None

    def __post_init__(self):
        if self.n < 8 or self.n & (self.n - 1):
            raise ConfigError(f"grid resolution {self.n} is not a power of two >= 8")
        if not self.tol > 0:
            raise ConfigError("tolerance must be positive")


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


def _opt(options, key, conv, default):
    if key not in options:
        return default
    try:
        return conv(options[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc


def load_config(command: str, args) -> RunConfig:
    sections: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file {args.config!r} does not exist")
        parser = ConfigParser()
        try:
            parser.read(path)
        except IniError as exc:
            raise ConfigError(f"cannot parse {args.config!r}: {exc}") from exc
        for sec in parser.sections():
            if sec not in ("run", command):
                raise ConfigError(
                    f"section [{sec}] is not recognized for command {command!r}")
            unknown = set(parser[sec].keys()) - _SCHEMA[sec]
            if unknown:
                raise ConfigError(
                    f"unknown keys {sorted(unknown)} in section [{sec}]")
            sections[sec] = dict(parser[sec])
    run = sections.get("run", {})
    n = args.grid if args.grid is not None else _opt(run, "grid", int, 256)
    tol = args.tol if args.tol is not None else _opt(run, "tol", float, 1e-10)
    seed = args.seed if args.seed is not None else _opt(run, "seed", int, 0)
    report_path = None
    if command == "report":
        report_path = Path(args.report_path)
        if not report_path.is_file():
            raise ConfigError(f"report file {args.report_path!r} does not exist")
    return RunConfig(command=command, out_dir=Path(args.out), n=n, tol=tol,
                     seed=seed, options=sections.get(command, {}),
                     report_path=report_path)


# -- command handlers (report dict, fields dict, exit code) -------------------

def _problem(cfg: RunConfig, cusp: bool = False):
    """Divisor, spec, curvature; betas default to -1 per atom if `cusp`, else -0.5."""
    opt = cfg.options
    atoms = _opt(opt, "atoms", _parse_pairs, _DEFAULT_ATOMS)
    betas = _opt(opt, "betas", _parse_floats,
                 (-1.0,) * len(atoms) if cusp else _DEFAULT_BETAS)
    curvature = _opt(opt, "curvature", float, -1.0)
    return Divisor(atoms, betas), CurvatureSpec(curvature), curvature


def _cmd_solve(cfg: RunConfig):
    div, spec, curvature = _problem(cfg)
    trials = _opt(cfg.options, "uniqueness_trials", int, 0)
    split = singular_part(div, cfg.n)
    sol = newton_solve(spec, split, tol=cfg.tol)
    report = {
        "command": "solve", "grid": cfg.n, "tol": cfg.tol,
        "atoms": [list(p) for p in div.points], "betas": list(div.betas),
        "curvature": curvature,
        "chi": euler_characteristic("torus", div),
        "area": sol.area, "gbDefect": sol.gb_defect,
        "residualNorm": sol.residual_norm,
        "newtonIters": sol.newton_iters, "cgIters": sol.cg_iters,
        "cgCapped": sol.cg_capped, "ringsRejected": sol.area_parts.rings_rejected,
    }
    if trials > 0:
        probe = uniqueness_probe(spec, split, trials, seed=cfg.seed, tol=cfg.tol)
        report["uniqueness"] = {
            "trials": probe.trials,
            "maxPairwiseSup": probe.max_pairwise,
            "residualNorms": list(probe.residual_norms),
        }
    fields = {"u.cmlgrid": Field(sol.u_values, TorusChart()), "v.cmlgrid": sol.v}
    return report, fields, 0


def _cmd_continue(cfg: RunConfig):
    div, _, curvature = _problem(cfg, cusp=True)
    k_max = _opt(cfg.options, "k_max", int, 10)
    scan_radius = _opt(cfg.options, "scan_radius", float, 1.0 / 16.0)
    sched = cusp_schedule(div, k_max=k_max, curvature=curvature)
    result = run_continuation(sched, n=cfg.n, tol=cfg.tol, scan_radius=scan_radius)
    stages = [{"k": s.k, "betas": list(s.betas), "chi": s.chi, "area": s.area,
               "gbDefect": s.gb_defect, "maxLocalMass": s.max_local_mass,
               "solveIters": s.solve_iters, "cgIters": s.cg_iters,
               "cgCapped": s.cg_capped, "ringsRejected": s.rings_rejected,
               "residualNorm": s.residual_norm}
              for s in result.stages]
    report = {
        "command": "continue-cusp", "grid": cfg.n, "tol": cfg.tol,
        "atoms": [list(p) for p in div.points], "targetBetas": list(div.betas),
        "kMax": k_max, "curvature": curvature,
        "stages": stages, "extrapolatedArea": result.extrapolated_area,
    }
    fields = {
        "u_final.cmlgrid": Field(result.final.u_values, TorusChart()),
        "v_final.cmlgrid": result.final.v,
    }
    return report, fields, 0


def _cmd_scan(cfg: RunConfig):
    div, spec, curvature = _problem(cfg)
    radius = _opt(cfg.options, "radius", float, 1.0 / 16.0)
    threshold = _opt(cfg.options, "threshold", float, 1.0)
    split = singular_part(div, cfg.n)
    sol = newton_solve(spec, split, tol=cfg.tol)
    scan = no_bubble_scan(sol, (radius, radius / 2.0), threshold=threshold)
    report = {
        "command": "scan", "grid": cfg.n, "tol": cfg.tol,
        "atoms": [list(p) for p in div.points], "betas": list(div.betas),
        "curvature": curvature, "radii": list(scan.radii),
        "threshold": threshold, "maxLocalMass": scan.max_mass,
        "maxLocalArea": scan.max_area, "centersScanned": scan.centers_scanned,
        "flags": [{"center": list(c), "r": r, "mass": m}
                  for c, r, m in scan.flags],
    }
    fields = {"u.cmlgrid": Field(sol.u_values, TorusChart())}
    return report, fields, 2 if scan.flags else 0


def _cmd_three_circle(cfg: RunConfig):
    opt = cfg.options
    kappa = _opt(opt, "kappa", float, 0.5)
    length = _opt(opt, "length", float, 10.0)
    if "fixture" in opt:
        model = load_fixture(opt["fixture"]).cylinder()
        label = opt["fixture"]
    else:
        model = LinearCylinder(_opt(opt, "a", float, 0.0), _opt(opt, "b", float, -1.0))
        label = None
    rep = three_circle_check(model, kappa, length)
    report = {
        "command": "three-circle", "fixture": label,
        "A": model.A, "B": model.B, "kappa": kappa, "length": length,
        "hypothesisOk": rep.hypothesis_ok, "side": rep.side,
        "fluxMin": rep.flux_min, "fluxMax": rep.flux_max,
        "areaQ1": rep.area_q1, "areaQ2": rep.area_q2,
        "closedForm": list(rep.closed_form) if rep.closed_form else None,
        "decayBound": rep.decay_bound, "decayOk": rep.decay_ok,
    }
    code = 0 if (rep.hypothesis_ok and rep.decay_ok) else 2
    return report, {}, code


def _cmd_neck(cfg: RunConfig):
    opt = cfg.options
    name = opt.get("fixture", "flat-neck")
    fam = load_fixture(name)
    k = _opt(opt, "k", int, fam.k_max)
    if not fam.k_min <= k <= fam.k_max:
        raise ConfigError(f"k = {k} outside the fixture range "
                          f"[{fam.k_min}, {fam.k_max}]")
    default_out = 1.0 if fam.kind == "flat-neck" else 0.5
    r_out = _opt(opt, "r_out", float, default_out)
    scale = fam.scale(k)
    r_in = _opt(opt, "r_in", float, scale if scale > 0 else r_out / 256.0)
    rep = neck_area_profile(fam.u(k), fam.center(), r_in, r_out)
    violation = fam.sign_class == "violating"
    report = {
        "command": "neck", "fixture": name, "k": k,
        "rIn": r_in, "rOut": r_out,
        "supEfold": rep.sup_efold, "total": rep.total,
        "hypothesisViolation": violation,
        "efold_annuli": {"radii": list(rep.efold_radii),
                         "areas": list(rep.efold_areas)},
        "dyadicRadii": list(rep.dyadic_radii),
        "dyadicAreas": list(rep.dyadic_areas),
    }
    return report, {}, 2 if violation else 0


def _cmd_area_identity(cfg: RunConfig):
    opt = cfg.options
    name = opt.get("fixture", "spherical-cap")
    window = _opt(opt, "window", float, 0.5)
    fam = load_fixture(name)
    rep = area_identity_check(fam, window=window)
    val = rep.validation
    hypothesis_fail = rep.violation or not (val.sign_ok and val.mass_ok
                                            and val.gradient_ok)
    report = {
        "command": "area-identity", "fixture": name, "window": window,
        "window_areas": [{"k": k, "area": a}
                         for k, a in zip(rep.ks, rep.window_areas)],
        "defectsPerK": list(rep.defects_per_k),
        "extrapolatedArea": rep.extrapolated_area, "errorBar": rep.error_bar,
        "limitArea": rep.limit_area, "bubbleArea": rep.bubble_area,
        "defect": rep.defect, "violation": rep.violation, "ghost": rep.ghost,
        "validation": {"signOk": val.sign_ok, "massOk": val.mass_ok,
                       "gradientOk": val.gradient_ok, "maxMass": val.max_mass,
                       "maxGradient": val.max_gradient},
    }
    return report, {}, 2 if hypothesis_fail else 0


def _cmd_report(cfg: RunConfig):
    report = read_report(cfg.report_path)
    return report, {}, 0


_HANDLERS = {
    "solve": _cmd_solve,
    "continue-cusp": _cmd_continue,
    "scan": _cmd_scan,
    "three-circle": _cmd_three_circle,
    "neck": _cmd_neck,
    "area-identity": _cmd_area_identity,
    "report": _cmd_report,
}

_HELP = {
    "solve": "solve the prescribed-curvature problem for one divisor",
    "continue-cusp": "run the cone-to-cusp continuation schedule",
    "scan": "solve, then scan for concentrating curvature mass",
    "three-circle": "segment-area decay check on a cylinder model",
    "neck": "annulus-area profile of a neck region",
    "area-identity": "bubble-tree area identity defect for a fixture",
    "report": "re-emit plot CSVs from an existing report.json",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmlab",
        description="Conformal metrics with prescribed negative curvature: "
                    "solves, continuation, and concentration diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        sp = sub.add_parser(name, help=_HELP[name])
        if name == "report":
            sp.add_argument("report_path", help="path to an existing report.json")
        sp.add_argument("--config", help="INI config file")
        sp.add_argument("--out", default="cml-out", help="output directory")
        sp.add_argument("--grid", type=int, help="grid resolution (power of two)")
        sp.add_argument("--tol", type=float, help="solver tolerance")
        sp.add_argument("--seed", type=int, help="seed for random probes")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.command, args)
        report, fields, code = _HANDLERS[args.command](cfg)
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
