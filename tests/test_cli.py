"""End-to-end command-line runs: artifacts, exit codes, error paths."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import cmlab.cli
import cmlab.continuation
from cmlab.bubbles import _FIXTURE_KEYS, _KINDS, load_fixture
from cmlab.cli import _COMMANDS, build_parser, load_config, main
from cmlab.errors import ConfigError
from cmlab.grids import TAU
from cmlab.io import read_field, read_report


def run_cli(argv):
    return main(argv)


def _grid_flag(command, n):
    """`--grid n` for a command that reads the grid, else nothing."""
    return ["--grid", str(n)] if "grid" in _COMMANDS[command][3] else []


def test_solve_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(["solve", "--out", str(out), "--grid", "64"])
    assert code == 0
    assert "ok" in capsys.readouterr().out
    rep = read_report(out / "report.json")
    assert rep["command"] == "solve"
    assert rep["grid"] == 64
    assert rep["chi"] == -0.5
    assert rep["area"] == pytest.approx(math.pi, rel=1e-2)
    assert rep["gbDefect"] < 1e-9
    u = read_field(out / "u.cmlgrid")
    v = read_field(out / "v.cmlgrid")
    assert u.n == 64 and v.n == 64
    assert np.isfinite(u.values).all()
    # u = S + v, and S has spikes at the atom that v does not
    assert float(np.abs(u.values - v.values).max()) > 1.0
    with open(out / "report.json", "rb") as fh:
        json.loads(fh.read())  # canonical output is plain JSON


def test_solve_with_config(tmp_path):
    # [run] grid and the [solve] section set the problem; no report key is
    # left of the random-start probe the section could once ask for
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[run]\ngrid = 64\n\n[solve]\natoms = 0.3,0.7\nbetas = -0.5\n")
    out = tmp_path / "out"
    assert run_cli(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    rep = read_report(out / "report.json")
    assert rep["grid"] == 64
    assert rep["atoms"] == [[0.3, 0.7]] and rep["betas"] == [-0.5]
    assert rep["residualNorm"] <= 1e-10
    assert "uniqueness" not in rep


def test_infeasible_problem_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[solve]\nbetas = 0.5\n")
    code = run_cli(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"),
                    "--grid", "64"])
    assert code == 1
    err = capsys.readouterr().err
    assert "chi" in err


def test_config_errors_exit_1(tmp_path, capsys):
    bad_key = tmp_path / "bad.ini"
    bad_key.write_text("[solve]\nbogus = 1\n")
    assert run_cli(["solve", "--config", str(bad_key),
                    "--out", str(tmp_path / "o")]) == 1
    assert "unknown keys" in capsys.readouterr().err

    bad_sec = tmp_path / "sec.ini"
    bad_sec.write_text("[nonsense]\nx = 1\n")
    assert run_cli(["solve", "--config", str(bad_sec),
                    "--out", str(tmp_path / "o")]) == 1

    assert run_cli(["solve", "--config", str(tmp_path / "missing.ini"),
                    "--out", str(tmp_path / "o")]) == 1
    # an empty path used to read no config, so the run went on with defaults
    assert run_cli(["neck", "--config", "", "--out", str(tmp_path / "o")]) == 1
    assert run_cli(["solve", "--grid", "100", "--out", str(tmp_path / "o")]) == 1
    capsys.readouterr()
    # an infinite tolerance used to skip the solve and fail only on writing
    assert run_cli(["solve", "--tol", "inf", "--out", str(tmp_path / "o")]) == 1
    assert "tolerance must be positive and finite, got inf" in capsys.readouterr().err
    assert not (tmp_path / "o" / "report.json").exists()
    # a stray % and a fixture file configparser cannot read used to exit on
    # its traceback
    pct = tmp_path / "pct.ini"
    pct.write_text("[solve]\natoms = 50%\n")
    assert run_cli(["solve", "--config", str(pct), "--out", str(tmp_path / "o")]) == 1
    assert f"cannot parse {str(pct)!r}" in capsys.readouterr().err
    fixture = tmp_path / "fam.ini"
    neck = tmp_path / "neck.ini"
    neck.write_text(f"[neck]\nfixture = {fixture}\n")
    for text in ("kind = flat-neck\n",  # no section header
                 "[family]\nkind = flat-neck\nkind = flat-neck\n"):  # a repeated key
        fixture.write_text(text)
        assert run_cli(["neck", "--config", str(neck), "--out", str(tmp_path / "o")]) == 1
        assert f"cannot parse {str(fixture)!r}" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()
    # a missing fixture file fails through main's OSError path, as a config does
    neck.write_text(f"[neck]\nfixture = {tmp_path / 'absent.ini'}\n")
    assert run_cli(["neck", "--config", str(neck), "--out", str(tmp_path / "o")]) == 1
    assert "[Errno 2] No such file or directory" in capsys.readouterr().err
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("command, config, family", [
    # each of these once ran: the first at grid 256, the second naming [run]
    # for the key that [DEFAULT] holds, the third with k_max = 3
    ("solve", "[DEFAULT]\ngrid = 64\n", None),
    ("solve", "[DEFAULT]\nfoo = 1\n\n[run]\ngrid = 64\n", None),
    ("neck", "[neck]\nfixture = {fixture}\n",
     "[DEFAULT]\nk_max = 3\n\n[family]\nkind = flat-neck\nsign = positive\n"),
], ids=["solve-grid", "solve-beside-run", "fixture-k_max"])
def test_a_default_section_exits_1_and_writes_no_report(tmp_path, capsys, command,
                                                        config, family):
    fixture = tmp_path / "fam.ini"
    if family is not None:
        fixture.write_text(family)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(config.format(fixture=fixture))
    named = str(fixture if family is not None else cfg)
    assert run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"section [DEFAULT] of {named!r} is not recognized" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("key", ["mass_bound", "gradient_bound"])
def test_a_fixture_that_sets_a_hypothesis_bound_exits_1(tmp_path, capsys, key):
    # the hypothesis check's bounds are constants, not fixture keys
    fixture = tmp_path / "fam.ini"
    fixture.write_text(f"[family]\nkind = flat-neck\nsign = violating\n{key} = 100.0\n")
    neck = tmp_path / "neck.ini"
    neck.write_text(f"[neck]\nfixture = {fixture}\n")
    assert run_cli(["neck", "--config", str(neck), "--out", str(tmp_path / "o")]) == 1
    assert f"unknown keys ['{key}'] in section [family]" in capsys.readouterr().err
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("command, section, family, message", [
    # fixture values used to print a bare int() or float() complaint
    ("neck", "fixture = {fixture}", "kind = flat-neck\nsign = positive\nk_min = two",
     "bad value for 'k_min' in '{fixture}': invalid literal for int()"),
    ("area-identity", "fixture = {fixture}",
     "kind = spherical-cap\nsign = positive\nlam_scale = big",
     "bad value for 'lam_scale' in '{fixture}': could not convert string to float"),
    ("continue-cusp", "k_max = ten", None,
     "bad value for 'k_max': invalid literal for int()"),
    # a malformed pair list used to name neither its key nor its value
    ("solve", "atoms = 0.3;0.7", None,
     "bad value for 'atoms': expected x,y pairs, got '0.3;0.7'"),
])
def test_a_value_that_does_not_convert_names_its_key(tmp_path, capsys, command,
                                                     section, family, message):
    fixture = tmp_path / "fam.ini"
    if family is not None:
        fixture.write_text(f"[family]\n{family}\n")
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[{command}]\n{section.format(fixture=fixture)}\n")
    assert run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert message.format(fixture=fixture) in err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "report.json").exists()


@settings(derandomize=True, database=None, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(target=st.sampled_from([*sorted(set(_COMMANDS) - {"report"}), "fixture"]),
       name=st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12),
       where=st.sampled_from(["section", "run", "own"]))
@example(target="solve", name="DEFAULT", where="section")
@example(target="fixture", name="DEFAULT", where="section")
def test_unknown_ini_section_or_key_is_named(tmp_path, target, name, where):
    # run configs and fixture files go through one reader; a fixture file's
    # only section is [family], which takes every kind's parameters. A
    # [DEFAULT] section is one more unknown section, not defaults for the rest
    if target == "fixture":
        own, keys = "family", {"family": _FIXTURE_KEYS.union(
            *(kind.params for kind in _KINDS.values()))}
    else:
        own, keys = target, {"run": _COMMANDS[target][3], target: _COMMANDS[target][2]}
    if where == "section":
        assume(name not in keys)
        text, named = f"[{name}]\nx = 1\n", f"section [{name}]"
    else:
        sec = "run" if where == "run" and "run" in keys else own
        assume(name not in keys[sec])
        text, named = f"[{sec}]\n{name} = 1\n", f"unknown keys ['{name}']"
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(named)):
        if target == "fixture":
            load_fixture(str(cfg))
        else:
            load_config(target, build_parser().parse_args([target, "--config", str(cfg)]))


# the [run] keys each command does not read; each key was once settable on
# every command, as a flag and in [run], and ignored where it is listed here,
# but for solve's seed, which fed a random-start uniqueness probe now gone
_UNREAD = {"three-circle": ("grid", "tol", "seed"), "neck": ("grid", "tol", "seed"),
           "area-identity": ("grid", "tol", "seed"), "report": ("grid", "tol", "seed"),
           "solve": ("seed",), "continue-cusp": ("seed",), "scan": ("seed",)}
_VALID = {"grid": "64", "tol": "1e-3", "seed": "9"}


def test_each_command_offers_exactly_the_settings_it_reads():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(_COMMANDS)
    for name, parser in sub.choices.items():
        run_keys = _COMMANDS[name][3]
        assert run_keys == {"grid", "tol", "seed"} - set(_UNREAD.get(name, ()))
        options = {a.dest for a in parser._actions if a.option_strings and a.dest != "help"}
        assert options == {"out"} | run_keys | (set() if name == "report" else {"config"})
        # flags reach the code as strings, converted like their [run] keys
        assert all(a.type is None for a in parser._actions)


@pytest.mark.parametrize("command, key, as_flag", [
    (command, key, as_flag) for command, keys in _UNREAD.items() for key in keys
    for as_flag in (True, False)])
def test_a_setting_the_command_does_not_read_is_rejected(tmp_path, capsys, command,
                                                         key, as_flag):
    # `neck --grid 64` used to write the bytes of `neck`, and `neck --grid 7`
    # failed on a power-of-two check for a grid neck does not have
    src = tmp_path / "in.json"
    src.write_text("{}")
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[run]\n{key} = {_VALID[key]}\n")
    head = ["report", str(src)] if command == "report" else [command]
    setting = [f"--{key}", _VALID[key]] if as_flag else ["--config", str(cfg)]
    named = (f"unrecognized arguments: --{key}" if as_flag
             else "unrecognized arguments: --config" if command == "report"
             else f"unknown keys ['{key}'] in section [run]")
    out = tmp_path / "o"
    assert run_cli([*head, *_grid_flag(command, 16), *setting, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (out / "report.json").exists()


def test_report_takes_no_config(tmp_path, capsys):
    src, cfg = tmp_path / "in.json", tmp_path / "cfg.ini"
    src.write_text("{}")
    cfg.write_text("")
    out = tmp_path / "o"
    assert run_cli(["report", str(src), "--config", str(cfg), "--out", str(out)]) == 1
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not (out / "report.json").exists()
    assert run_cli(["report", str(src), "--out", str(out)]) == 0


@pytest.mark.parametrize("key, value", [("grid", "abc"), ("tol", "fine")])
def test_a_flag_and_its_run_key_share_one_conversion(tmp_path, capsys, key, value):
    # --grid abc used to exit 2 on argparse's message, [run] grid = abc 1 on this one
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[run]\n{key} = {value}\n")
    messages = []
    for setting in ([f"--{key}", value], ["--config", str(cfg)]):
        assert run_cli(["solve", *setting, "--out", str(tmp_path / "o")]) == 1
        messages.append(capsys.readouterr().err)
    assert messages[0] == messages[1]
    assert messages[0].startswith(f"error: bad value for {key!r}: ")
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["solve", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["report"], "the following arguments are required: report_path"),
    (["solve", "--grid"], "argument --grid: expected one argument"),
    (["bogus"], "invalid choice: 'bogus'"),
    ([], "the following arguments are required: command"),
])
def test_usage_errors_exit_1(tmp_path, capsys, argv, message):
    # these used to exit 2, the status of a hypothesis violation
    assert run_cli([*argv, "--out", str(tmp_path / "o")] if argv else argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "o").exists()


def test_help_exits_0(capsys):
    for argv in (["--help"], ["solve", "--help"], ["report", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--grid" in out and "--seed" not in out


@pytest.mark.parametrize("command, section", [
    ("three-circle", "length = -5"),
    ("three-circle", "kappa = -0.5"),
    ("three-circle", "kappa = 0"),
    ("solve", "atoms = nan,0.7"),
    ("solve", "atoms = 0.3,0.7 0.6,0.2\nbetas = -0.5"),  # more atoms than betas
])
def test_inputs_describing_no_problem_exit_1(tmp_path, capsys, command, section):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[{command}]\n{section}\n")
    assert run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "o"),
                    *_grid_flag(command, 64)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("command, section, message", [
    # cusp_profile is -log(r log(1/r)), NaN beyond r = 1
    ("neck", "fixture = hyperbolic-cusp\nr_out = 2.0", "profile is not finite on the circle"),
    ("area-identity", "fixture = hyperbolic-cusp\nwindow = 2.0",
     "profile is not finite on the circle"),
    # the cusp's closed-form limit 2 pi / log(1/window) used to divide by zero
    ("area-identity", "fixture = hyperbolic-cusp\nwindow = 1.0",
     "the hyperbolic-cusp limit area needs window < 1, got 1.0"),
    # a profile that overflows on a circle used to print numpy's warning first
    ("neck", "fixture = spherical-cap\nr_out = 1e300", "profile is not finite on the circle"),
    # an infinite outer radius used to halve inf forever, appending radii
    # until memory ran out
    ("neck", "r_out = inf",
     "need 0 < r_in < r_out < inf, got r_in = 3.720075976020836e-44, r_out = inf"),
    # a family is a planar profile; a cylinder is named by [three-circle]'s a and b
    ("neck", "fixture = linear-cylinder", "unknown fixture 'linear-cylinder'"),
    ("area-identity", "window = 1e300", "profile is not finite on the circle"),
    ("three-circle", "b = nan", "linear cylinder needs finite A and B"),
    # segment areas beyond double precision: the closed form used to raise a
    # bare OverflowError, and at b = 20 the report failed on writing
    ("three-circle", "b = 40", "a segment area overflows double precision"),
    ("three-circle", "a = 400", "a segment area overflows double precision"),
    ("three-circle", "b = 20", "a segment area overflows double precision"),
    # the random-start probe this count drove is gone
    ("solve", "uniqueness_trials = 5", "unknown keys ['uniqueness_trials'] in section [solve]"),
    # a negative radius scans empty disks and can never flag; one of 1/2 or
    # more wraps the torus, and at 0.7 atoms exclude every center
    ("scan", "radius = -0.1", "scan radius -0.1 is outside (0, 1/2)"),
    ("scan", "radius = 0.7", "scan radius 0.7 is outside (0, 1/2)"),
    ("continue-cusp", "scan_radius = 0.7", "scan radius 0.7 is outside (0, 1/2)"),
    # a non-finite threshold used to fail only on writing the report, and a
    # negative one flagged every center
    ("scan", "threshold = nan", "threshold must satisfy 0 < threshold < inf, got nan"),
    ("scan", "threshold = inf", "threshold must satisfy 0 < threshold < inf, got inf"),
    ("scan", "threshold = -1", "threshold must satisfy 0 < threshold < inf, got -1.0"),
    # a zero constant curvature used to raise ZeroDivisionError, nan and inf
    # a complaint about lam, and -inf a bare math domain error
    ("continue-cusp", "curvature = 0", "curvature must be finite and negative, got 0.0"),
    ("continue-cusp", "curvature = nan", "curvature must be finite and negative, got nan"),
    ("continue-cusp", "curvature = inf", "curvature must be finite and negative, got inf"),
    ("solve", "curvature = -inf", "curvature must be finite and negative, got -inf"),
    ("scan", "curvature = -inf", "curvature must be finite and negative, got -inf"),
    ("area-identity", "window = 0", "window must be positive and finite, got 0.0"),
    ("area-identity", "window = -1", "window must be positive and finite, got -1.0"),
])
def test_non_finite_quadrature_inputs_exit_1(tmp_path, capsys, monkeypatch,
                                             command, section, message):
    # each input is rejected before any Newton solve runs
    solves = []
    for module in (cmlab.cli, cmlab.continuation):
        monkeypatch.setattr(module, "newton_solve", lambda *a, **kw: solves.append(a))
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[{command}]\n{section}\n")
    assert run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o" / "report.json").exists()
    assert solves == []


@pytest.mark.parametrize("curvature, code", [
    ("-1e308", 1), ("-1e307", 1), ("-1e-320", 1), ("-1e300", 0)])
def test_extreme_curvature_and_the_default_guess(tmp_path, capsys, curvature, code):
    # the guess solves e^{2c} mean(|K| e^{2S}) = 2 pi |sum beta|: the mean
    # overflows at |K| = 1e307 and c at 1e-320, which exited 1 on overflow
    # warnings and a bare "math domain error", or on a non-finite Field
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[solve]\ncurvature = {curvature}\n")
    assert run_cli(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"),
                    "--grid", "16"]) == code
    message = f"curvature {float(curvature):g} is out of range for the default guess"
    assert (message in capsys.readouterr().err) == bool(code)


def test_reruns_write_identical_reports(tmp_path):
    # a fresh interpreter per run: caches and import order start empty
    cfg = tmp_path / "cusp.ini"
    cfg.write_text("[continue-cusp]\nk_max = 3\n")
    argvs = (["solve", "--grid", "32"],
             ["continue-cusp", "--grid", "32", "--config", str(cfg)])
    for run in ("first", "second"):
        (tmp_path / run).mkdir()
        assert _fresh_cli_run(tmp_path / run, *argvs)["codes"] == [0, 0]
    for command in ("solve", "continue-cusp"):
        first, second = (tmp_path / run / command / "report.json"
                         for run in ("first", "second"))
        assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("k_max", [0, 60])
def test_continue_cusp_names_a_bad_k_max(tmp_path, capsys, k_max):
    # 0 used to exit on "schedule needs at least one step", and 60 on "stage
    # weights must stay strictly above -1" (-1 + 2^-k rounds to -1 for k >= 54)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[continue-cusp]\nk_max = {k_max}\n")
    out = tmp_path / "out"
    assert run_cli(["continue-cusp", "--config", str(cfg), "--out", str(out),
                    "--grid", "16"]) == 1
    err = capsys.readouterr().err
    assert f"k_max = {k_max} is outside 1..53" in err
    assert "Traceback" not in err
    assert not (out / "report.json").exists()


def test_continue_cusp_run(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[continue-cusp]\nk_max = 3\n")
    out = tmp_path / "out"
    code = run_cli(["continue-cusp", "--config", str(cfg), "--out", str(out),
                    "--grid", "64"])
    assert code == 0
    rep = read_report(out / "report.json")
    assert len(rep["stages"]) == 3
    areas = [s["area"] for s in rep["stages"]]
    assert areas[0] < areas[1] < areas[2]
    for k, s in enumerate(rep["stages"], start=1):
        assert s["k"] == k
        assert s["area"] == pytest.approx(TAU * (1 - 2.0 ** -k), rel=1e-2)
    csv = (out / "stages.csv").read_text().splitlines()
    assert csv[0] == "stage,area,gbDefect"
    assert len(csv) == 4
    u = read_field(out / "u_final.cmlgrid")
    assert u.n == 64


def test_reports_carry_inner_cost_and_canonical_atoms(tmp_path):
    solve_cfg, cont_cfg = tmp_path / "solve.ini", tmp_path / "cont.ini"
    solve_cfg.write_text("[solve]\natoms = 1.3,-0.3\n")
    cont_cfg.write_text("[continue-cusp]\natoms = 1.3,-0.3\nk_max = 2\n")
    solve_out, cont_out = tmp_path / "solve", tmp_path / "cont"
    assert run_cli(["solve", "--config", str(solve_cfg), "--out", str(solve_out),
                    "--grid", "32"]) == 0
    rep = read_report(solve_out / "report.json")
    assert rep["atoms"][0] == pytest.approx([0.3, 0.7], abs=1e-15)
    assert rep["cgCapped"] == 0 and rep["cgIters"] > 0
    assert rep["ringsRejected"] == 0
    assert run_cli(["continue-cusp", "--config", str(cont_cfg), "--out", str(cont_out),
                    "--grid", "32"]) == 0
    rep = read_report(cont_out / "report.json")
    assert rep["atoms"][0] == pytest.approx([0.3, 0.7], abs=1e-15)
    assert all(isinstance(s["cgIters"], int) and s["cgIters"] > 0
               for s in rep["stages"])
    assert [s["cgCapped"] for s in rep["stages"]] == [0, 0]
    # at beta = -0.75 the ring exponent 2 beta + 2 = 1/2 is below 3/4, so
    # metric_area keeps the grid total and the stage says so
    assert [s["ringsRejected"] for s in rep["stages"]] == [0, 1]
    again = tmp_path / "again"
    assert run_cli(["report", str(cont_out / "report.json"), "--out", str(again)]) == 0
    assert (again / "report.json").read_bytes() == (cont_out / "report.json").read_bytes()


def test_scan_clean_solution(tmp_path):
    out = tmp_path / "out"
    code = run_cli(["scan", "--out", str(out), "--grid", "64"])
    assert code == 0
    rep = read_report(out / "report.json")
    assert rep["flags"] == []
    assert rep["radii"] == [1.0 / 16.0, 1.0 / 32.0]
    assert rep["maxLocalMass"] < 1.0


def test_three_circle_exit_codes(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["three-circle", "--out", str(out)]) == 0
    rep = read_report(out / "report.json")
    assert rep["hypothesisOk"] and rep["decayOk"]
    assert rep["closedForm"] is not None

    cfg = tmp_path / "flat.ini"
    cfg.write_text("[three-circle]\nb = 0.0\n")
    out2 = tmp_path / "out2"
    assert run_cli(["three-circle", "--config", str(cfg),
                    "--out", str(out2)]) == 2
    rep2 = read_report(out2 / "report.json")
    assert not rep2["hypothesisOk"]

    # a and b are the one way to name the cylinder: a fixture is an unknown key
    cfg3 = tmp_path / "fix.ini"
    cfg3.write_text("[three-circle]\nfixture = linear-cylinder\n")
    out3 = tmp_path / "out3"
    assert run_cli(["three-circle", "--config", str(cfg3),
                    "--out", str(out3)]) == 1
    assert "unknown keys ['fixture'] in section [three-circle]" in capsys.readouterr().err
    assert not (out3 / "report.json").exists()


def test_three_circle_decides_decay_after_underflow(tmp_path):
    # at length 4000, Area(Q_2) and e^{-kappa L/2} underflow to 0 while
    # Area(Q_1) = pi: in log space the decay still holds
    cfg = tmp_path / "long.ini"
    cfg.write_text("[three-circle]\nlength = 4000\n")
    out = tmp_path / "out"
    assert run_cli(["three-circle", "--config", str(cfg), "--out", str(out)]) == 0
    rep = read_report(out / "report.json")
    assert rep["hypothesisOk"] and rep["decayOk"]
    assert rep["areaQ2"] == 0.0 and rep["decayBound"] == 0.0


def test_neck_flat_fixture_violation(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(["neck", "--out", str(out)])
    assert code == 2
    assert "violation" in capsys.readouterr().out
    rep = read_report(out / "report.json")
    assert rep["fixture"] == "flat-neck"
    assert rep["hypothesisViolation"]
    assert rep["total"] == pytest.approx(TAU, rel=1e-8)
    csv = (out / "annuli.csv").read_text().splitlines()
    assert csv[0] == "index,r,area"
    assert len(csv) == len(rep["efold_annuli"]["radii"]) + 1


def test_neck_cusp_fixture_ok(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[neck]\nfixture = hyperbolic-cusp\nk = 5\n")
    out = tmp_path / "out"
    assert run_cli(["neck", "--config", str(cfg), "--out", str(out)]) == 0
    rep = read_report(out / "report.json")
    assert not rep["hypothesisViolation"]

    bad = tmp_path / "bad.ini"
    bad.write_text("[neck]\nfixture = hyperbolic-cusp\nk = 99\n")
    assert run_cli(["neck", "--config", str(bad),
                    "--out", str(tmp_path / "o2")]) == 1


@pytest.mark.parametrize("fixture, section, k, r_in, r_out, code", [
    ("flat-neck", "", 10, math.exp(-100.0), 1.0, 2),
    ("hyperbolic-cusp", "", 12, math.exp(-12.0), 0.5, 0),
    ("spherical-cap", "", 12, 2.0 ** -12, 0.5, 0),
    # a kind with no concentration scale starts the neck at r_out / 256
    ("no-bubble", "", 14, 0.5 / 256.0, 0.5, 0),
    ("no-bubble", "r_out = 0.25", 14, 0.25 / 256.0, 0.25, 0),
    ("hyperbolic-cusp", "r_out = 0.25\nr_in = 0.01", 12, 0.01, 0.25, 0),
])
def test_neck_default_radii_follow_the_fixture_kind(tmp_path, fixture, section, k,
                                                    r_in, r_out, code):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[neck]\nfixture = {fixture}\n{section}\n")
    out = tmp_path / "out"
    assert run_cli(["neck", "--config", str(cfg), "--out", str(out)]) == code
    rep = read_report(out / "report.json")
    assert (rep["k"], rep["rIn"], rep["rOut"]) == (k, r_in, r_out)


def test_area_identity_exit_codes(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["area-identity", "--out", str(out)]) == 0
    rep = read_report(out / "report.json")
    assert rep["fixture"] == "spherical-cap"
    assert abs(rep["defect"]) < 1e-6
    csv = (out / "window_areas.csv").read_text().splitlines()
    assert csv[0] == "k,area"
    assert len(csv) == len(rep["window_areas"]) + 1

    cfg = tmp_path / "flat.ini"
    cfg.write_text("[area-identity]\nfixture = flat-neck\n")
    out2 = tmp_path / "out2"
    assert run_cli(["area-identity", "--config", str(cfg),
                    "--out", str(out2)]) == 2
    rep2 = read_report(out2 / "report.json")
    assert rep2["violation"]
    assert rep2["defect"] == pytest.approx(TAU, abs=1e-6)


def test_report_reemission_is_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[continue-cusp]\nk_max = 2\n")
    first = tmp_path / "first"
    assert run_cli(["continue-cusp", "--config", str(cfg), "--out", str(first),
                    "--grid", "64"]) == 0
    second = tmp_path / "second"
    assert run_cli(["report", str(first / "report.json"),
                    "--out", str(second)]) == 0
    assert (first / "report.json").read_bytes() == \
        (second / "report.json").read_bytes()
    assert (first / "stages.csv").read_text() == \
        (second / "stages.csv").read_text()

    assert run_cli(["report", str(tmp_path / "nope.json"),
                    "--out", str(second)]) == 1


@pytest.mark.parametrize("body, message", [
    ({"stages": 5}, "report key 'stages' is not a (stage,area,gbDefect) series"),
    ({"stages": [{"k": 1}]}, "report key 'stages' is not a (stage,area,gbDefect) series"),
    ({"efold_annuli": {"radii": [1]}}, "report key 'efold_annuli' is not a (index,r,area)"),
    ({"window_areas": [3]}, "report key 'window_areas' is not a (k,area) series"),
    (5, "does not hold a JSON object"),
])
def test_report_names_a_malformed_series(tmp_path, capsys, body, message):
    # these used to end on a TypeError or KeyError traceback from the CSV writer
    src = tmp_path / "in.json"
    src.write_text(json.dumps(body))
    assert run_cli(["report", str(src), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("kind, sign, k_min", [
    ("hyperbolic-cusp", "negative", 0), ("flat-neck", "violating", -2)])
def test_fixture_index_below_1_is_rejected(tmp_path, capsys, kind, sign, k_min):
    # k = 0 used to divide by zero in the cusp's rate 1/k, and the flat neck
    # at k = -2 failed on a profile that is not finite on a circle
    fixture = tmp_path / "fam.ini"
    fixture.write_text(f"[family]\nkind = {kind}\nsign = {sign}\n"
                       f"k_min = {k_min}\nk_max = 3\n")
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[area-identity]\nfixture = {fixture}\n")
    assert run_cli(["area-identity", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"k_min must be at least 1, got {k_min}" in capsys.readouterr().err
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("command, section, keys, nested", [
    ("solve", "",
     "area atoms betas cgCapped cgIters chi command curvature gbDefect grid "
     "newtonIters residualNorm ringsOverlapping ringsRejected tol", {}),
    ("continue-cusp", "k_max = 2",
     "atoms command curvature extrapolatedArea grid kMax stages targetBetas tol",
     {"stages": "area betas cgCapped cgIters chi gbDefect k maxLocalMass "
                "residualNorm ringsOverlapping ringsRejected solveIters"}),
    ("scan", "",
     "atoms betas centersScanned command curvature flags grid maxLocalArea "
     "maxLocalMass radii threshold tol", {}),
    ("three-circle", "",
     "A B areaQ1 areaQ2 closedForm command decayBound decayOk fluxMax fluxMin "
     "hypothesisOk kappa length side", {}),
    ("neck", "",
     "command dyadicAreas dyadicRadii efold_annuli fixture hypothesisViolation "
     "k rIn rOut supEfold total", {"efold_annuli": "areas radii"}),
    ("area-identity", "",
     "bubbleArea command defect defectsPerK errorBar extrapolatedArea fixture "
     "ghost limitArea validation violation window window_areas",
     {"validation": "gradientOk massOk maxGradient maxMass signOk",
      "window_areas": "area k"}),
])
def test_report_key_sets(tmp_path, command, section, keys, nested):
    # keys derived from result-dataclass field names must not move when a
    # field is renamed; a nested list is checked through its first entry
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[{command}]\n{section}\n")
    out = tmp_path / "out"
    assert run_cli([command, "--config", str(cfg), "--out", str(out),
                    *_grid_flag(command, 32)]) in (0, 2)
    rep = read_report(out / "report.json")
    assert sorted(rep) == keys.split()
    for key, sub in nested.items():
        entry = rep[key][0] if isinstance(rep[key], list) else rep[key]
        assert sorted(entry) == sub.split()


# Runs CLI commands (a JSON list of argv lists) in a fresh interpreter, then
# radial_length on a callable and on a Solution, and prints the exit codes,
# the two lengths, the scipy modules loaded, whether numpy.ma is loaded and
# the messages of any CurvatureSignError raised by CG (the guard
# tests/conftest.py keeps in process).
_SCIPY_PROBE = """
import json, sys
import numpy as np
import cmlab, cmlab.cli, cmlab.solver
from cmlab.errors import CurvatureSignError
sign_errors, cg = [], cmlab.solver._cg
def guarded(*args, **kwargs):
    try:
        return cg(*args, **kwargs)
    except CurvatureSignError as exc:
        sign_errors.append(str(exc))
        raise
cmlab.solver._cg = guarded
codes = [cmlab.cli.main(argv) for argv in json.loads(sys.argv[1])]
sol = cmlab.solver.solve_divisor(((0.3, 0.7),), (-0.5,), n=16)
lengths = [cmlab.solver.radial_length(u, (0.3, 0.7), 0.02, 0.2)
           for u in (lambda x, y: -0.5 * np.log(np.abs(x - 0.3)), sol)]
print(json.dumps({"codes": codes, "lengths": lengths, "sign_errors": sign_errors,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "numpy_ma": "numpy.ma" in sys.modules}))
"""


def _fresh_cli_run(tmp_path, *argvs):
    argvs = [argv + ["--out", str(tmp_path / argv[0])] for argv in argvs]
    env = dict(os.environ, PYTHONPATH=str(Path(cmlab.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_diagnostics_commands_never_load_scipy(tmp_path):
    rep = tmp_path / "r.json"
    rep.write_text('{"stages": [{"k": 1, "area": 3.0, "gbDefect": 0.0}]}\n')
    got = _fresh_cli_run(tmp_path, ["three-circle"], ["neck"], ["area-identity"],
                         ["report", str(rep)])
    assert got["codes"] == [0, 2, 0, 0]
    assert got["lengths"][0] == pytest.approx(2.0 * (0.2 ** 0.5 - 0.02 ** 0.5), rel=1e-12)
    assert got["sign_errors"] == []
    assert got["scipy"] == []
    assert not got["numpy_ma"]
    assert (tmp_path / "report" / "stages.csv").exists()


def test_solving_commands_never_load_scipy(tmp_path):
    # transforms are numpy.fft and radial_length is Gauss-Legendre, so no
    # command and neither radial_length path needs scipy
    cfg = tmp_path / "cusp.ini"
    cfg.write_text("[continue-cusp]\nk_max = 2\n")
    got = _fresh_cli_run(tmp_path, ["solve", "--grid", "16"], ["scan", "--grid", "16"],
                         ["continue-cusp", "--grid", "16", "--config", str(cfg)])
    assert got["codes"] == [0, 0, 0]
    assert got["sign_errors"] == []
    assert got["scipy"] == []
    assert not got["numpy_ma"]
