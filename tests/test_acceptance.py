"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Each test prints a single measured-value line so a red run shows exactly
which number moved and by how much.
"""

import math
import time

import numpy as np
import pytest
import scipy.fft as sfft

from cmlab.bubbles import (
    area_identity_check,
    load_fixture,
    neck_area_profile,
    neck_curvature_limit,
)
from cmlab.cli import main as cli_main
from cmlab.continuation import cusp_schedule, run_continuation
from cmlab.grids import TAU, Field, sample
from cmlab.green import green_torus, singular_part
from cmlab.measures import Divisor, kelvin_transform, pairing, residue
from cmlab.models import LinearCylinder, cusp_profile
from cmlab.solver import (
    CurvatureSpec,
    jacobian_apply,
    newton_solve,
    radial_length,
    solve_divisor,
)
from oracles import cusp_radial_length, random_smooth_field, standard_bubble

ATOM = (0.3, 0.7)


def _line(num, text, ok):
    print(f"[criterion {num}] {text}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_1_conical_solve_area_and_order():
    t0 = time.time()
    sol = solve_divisor((ATOM,), (-0.5,), n=512)
    elapsed = time.time() - t0
    rel = abs(sol.area - math.pi) / math.pi
    _line(1, f"n=512 area rel err {rel:.3e} (tol 1e-2)", rel <= 1e-2)
    _line(1, f"n=512 gbDefect {sol.gb_defect:.3e} (tol 1e-8)",
          sol.gb_defect <= 1e-8)
    _line(1, f"n=512 runtime {elapsed:.1f}s (limit 60s)", elapsed <= 60.0)
    # with constant K the area is pinned whatever weight S carries; the
    # measured residue at the atom sees the cone's weight
    res = residue(Field(sol.u_values), ATOM)
    _line(1, f"n=512 residue at the atom {res:.4f} (want -0.5 within 1e-2)",
          abs(res + 0.5) <= 1e-2)
    errs = [abs(solve_divisor((ATOM,), (-0.5,), n=n).area - math.pi) / math.pi
            for n in (128, 256, 1024)]
    errs.insert(2, rel)
    order = -float(np.polyfit(np.log([128.0, 256.0, 512.0, 1024.0]),
                              np.log(errs), 1)[0])
    _line(1, f"grid-doubling order {order:.2f} (need >= 1)", order >= 1.0)
    _line(1, f"finest-grid err {errs[-1]:.3e} < coarsest {errs[0]:.3e}",
          errs[-1] < errs[0])


def test_criterion_2_cusp_continuation_areas():
    res = run_continuation(
        cusp_schedule(Divisor((ATOM,), (-1.0,)), k_max=10), n=256)
    worst = 0.0
    for k, st in enumerate(res.stages, start=1):
        want = TAU * (1.0 - 2.0 ** -k)
        worst = max(worst, abs(st.area - want) / want)
    _line(2, f"stage areas vs 2pi(1-2^-k), worst rel {worst:.3e} (tol 1e-2)",
          worst <= 1e-2)
    mono = all(b > a for a, b in zip(res.areas, res.areas[1:]))
    _line(2, "stage areas strictly increasing", mono)
    rel = abs(res.extrapolated_area - TAU) / TAU
    _line(2, f"extrapolated area vs 2pi rel {rel:.3e} (tol 1e-2)", rel <= 1e-2)

    two = run_continuation(
        cusp_schedule(Divisor((ATOM, (0.7, 0.3)), (-1.0, -1.0)), k_max=10), n=256)
    rel2 = abs(two.extrapolated_area - 2 * TAU) / (2 * TAU)
    _line(2, f"two-cusp extrapolated area vs 4pi rel {rel2:.3e} (tol 1e-2)",
          rel2 <= 1e-2)


def test_criterion_3_uniqueness_probe():
    split = singular_part(Divisor((ATOM,), (-0.5,)), 512)
    rng = np.random.default_rng(0)
    sols = [newton_solve(CurvatureSpec(-1.0), split, v0=random_smooth_field(512, rng))
            for _ in range(5)]
    worst = max(float(np.abs(a.v.values - b.v.values).max())
                for i, a in enumerate(sols) for b in sols[i + 1:])
    _line(3, f"5-start max pairwise sup {worst:.3e} (tol 1e-6)", worst <= 1e-6)
    # with K < 0, F is the gradient of a strictly convex functional:
    # <F(v) - F(v*), v - v*> >= min W |v - v*|^2, as -Delta is positive
    # semidefinite and the mean value theorem holds pointwise for e^{2u}
    # (W = -2K e^{2u} between u and u*, at the solve to a factor
    # e^{2 sup|v - v*|}). So each solve is within rms |F| / min W <=
    # sup |F| / min W of the unique discrete solution v*. residual_norm is
    # the solve's sup |F|; residual() recomputes -Delta v through a
    # transform pair, whose eps (pi n)^2 floor lies above tol
    bound = max(s.residual_norm / float((2.0 * np.exp(2.0 * s.u_values)).min())
                for s in sols)
    _line(3, f"5-start max residualNorm / min W {bound:.3e} (tol 1e-10)", bound <= 1e-10)


def test_criterion_4_cusp_length_divergence():
    u = cusp_profile()
    worst = 0.0
    lengths = []
    for k in range(6, 21):
        delta = 2.0 ** -k
        got = radial_length(u, (0.0, 0.0), delta, 0.25)
        worst = max(worst, abs(got - cusp_radial_length(delta, 0.25)))
        lengths.append(got)
    _line(4, f"radial length vs loglog closed form, worst {worst:.3e} "
             "(tol 1e-6)", worst <= 1e-6)
    diverging = all(b > a for a, b in zip(lengths, lengths[1:]))
    _line(4, f"lengths increase without bound over delta = 2^-6..2^-20 "
             f"(span {lengths[-1] - lengths[0]:.3f})",
          diverging and lengths[-1] > lengths[0] + 1.0)


def test_criterion_5_area_identity_fixtures():
    cap = area_identity_check(load_fixture("spherical-cap"))
    fam = load_fixture("spherical-cap")
    worst = 0.0
    for k, d in zip(cap.ks, cap.defects_per_k):
        lam = fam.scale(k)
        want = 4.0 * math.pi * lam * lam / (lam * lam + 0.25)
        worst = max(worst, abs(d - want))
    _line(5, f"cap defects vs closed form, worst {worst:.3e} (tol 1e-6)",
          worst <= 1e-6)
    _line(5, f"cap extrapolated defect {abs(cap.defect):.3e} (tol 1e-6)",
          abs(cap.defect) <= 1e-6)
    nb = area_identity_check(load_fixture("no-bubble"))
    _line(5, f"no-bubble defect {abs(nb.defect):.3e} (tol 1e-8)",
          abs(nb.defect) <= 1e-8)


def test_criterion_6_flat_neck_sharpness(tmp_path):
    fam = load_fixture("flat-neck")
    k = fam.k_max
    rep = neck_area_profile(fam.u(k), fam.center(), fam.scale(k), 1.0)
    _line(6, f"flat-neck total area {rep.total:.12f} vs 2pi "
             f"(tol 1e-8)", abs(rep.total - TAU) <= 1e-8)
    idrep = area_identity_check(fam)
    _line(6, "hypothesis-violation flag set", idrep.violation)
    code = cli_main(["neck", "--out", str(tmp_path / "out")])
    _line(6, f"CLI neck exit code {code} (expect 2)", code == 2)


def test_criterion_7_three_circle_decay():
    from cmlab.bubbles import three_circle_check

    kappa = 0.5
    worst = 0.0
    for B in (-0.25, -1.0, -4.0):
        cyl = LinearCylinder(A=0.0, B=B)
        for L in (5.0, 10.0, 20.0):
            rep = three_circle_check(cyl, kappa, L)
            for got, want in zip((rep.area_q1, rep.area_q2), rep.closed_form):
                worst = max(worst, abs(got - want) / abs(want))
            if B < -kappa:
                assert rep.hypothesis_ok and rep.side == "negative"
                assert rep.decay_ok, f"decay failed for B={B}, L={L}"
    _line(7, f"segment areas vs closed form, worst rel {worst:.3e} "
             "(tol 1e-10)", worst <= 1e-10)
    _line(7, "decay inequality holds whenever B < -kappa", True)


def test_criterion_8_measure_core_identities():
    def mix(x, y):
        r = np.hypot(x, y)
        return -0.5 * np.log(r) + 0.3 * np.sin(1.3 * x) * np.cos(0.9 * y)

    err_res = abs(residue(mix, (0.0, 0.0)) + 0.5)
    _line(8, f"residue(beta log r + smooth) err {err_res:.3e} (tol 1e-4)",
          err_res <= 1e-4)

    flat = kelvin_transform(lambda x, y: 0.0 * np.asarray(x))
    err_kel = abs(residue(flat, (0.0, 0.0)) + 2.0)
    _line(8, f"Kelvin residue at infinity err {err_kel:.3e} (tol 1e-4)",
          err_kel <= 1e-4)

    smooth = lambda x, y: 0.1 * np.sin(np.asarray(x))
    rep = neck_curvature_limit(smooth, standard_bubble(), (0.0, 0.0))
    err_neck = abs(rep.value + 2.0 * TAU)
    _line(8, f"bubble neck curvature limit err {err_neck:.3e} (tol 1e-3)",
          err_neck <= 1e-3)

    def phi_fn(x, y):
        return np.cos(TAU * (x - 0.1)) * np.sin(TAU * y)

    errs = []
    for n in (64, 128, 256):
        g = green_torus(ATOM, n)
        phi = sample(phi_fn, n)
        errs.append(abs(pairing(g, phi) - (phi_fn(*ATOM) - phi.values.mean())))
    ok = all(e <= 0.5 / n for e, n in zip(errs, (64, 128, 256)))
    ok = ok and errs[2] < errs[1] < errs[0]
    _line(8, f"Green weak identity errs {errs[0]:.2e}/{errs[1]:.2e}/"
             f"{errs[2]:.2e} <= 0.5/n and decaying", ok)


def test_criterion_9_jacobian_orders_and_positivity():
    n = 32
    split = singular_part(Divisor((ATOM,), (-0.5,)), n)
    spec = CurvatureSpec(-1.0)
    S = split.S.values.astype(np.longdouble)
    k = np.fft.fftfreq(n, d=1.0 / n)
    k2 = ((TAU * k[:, None]) ** 2 + (TAU * k[None, :]) ** 2).astype(np.longdouble)
    const = np.longdouble(TAU) * np.longdouble(split.beta_sum)

    def resid_ld(vv):
        # extended-precision replica of the residual (K = -1, no forcing);
        # scipy.fft keeps longdouble where numpy.fft would downcast
        lap = sfft.ifft2(k2 * sfft.fft2(vv)).real
        return lap + np.exp(2.0 * (S + vv)) + const

    rng = np.random.default_rng(42)
    v = random_smooth_field(n, rng, amplitude=2.0)
    v_ld = v.values.astype(np.longdouble)
    min_w = float((2.0 * np.exp(2.0 * (split.S.values + v.values))).min())
    worst = math.inf
    rayleigh = math.inf
    for _ in range(5):
        w = random_smooth_field(n, rng, amplitude=4.0).values
        jw64 = jacobian_apply(spec, split, v, w)
        rayleigh = min(rayleigh, float((w * jw64).sum() / (w * w).sum()))
        jw = jw64.astype(np.longdouble)
        errs = []
        for h in (1e-3, 1e-4, 1e-5):
            hh = np.longdouble(h)
            fd = (resid_ld(v_ld + hh * w) - resid_ld(v_ld - hh * w)) / (2 * hh)
            errs.append(float(np.abs(fd - jw).max()))
        worst = min(worst, math.log10(errs[0] / errs[1]),
                    math.log10(errs[1] / errs[2]))
    _line(9, f"FD-Jacobian observed order {worst:.3f} over h=1e-3..1e-5 "
             "(need ~2, >= 1.9)", worst >= 1.9)
    # the spectral -Delta is positive semidefinite, so <w, Jw> >= min W <w, w>
    _line(9, f"Jacobian Rayleigh quotient min {rayleigh:.4g} >= min W {min_w:.4g}",
          rayleigh >= min_w * (1.0 - 1e-12))


def test_criterion_10_square_torus_symmetries():
    # the swap x <-> y and the reflection x -> -x map nodes to nodes, so the
    # discrete problem of the mapped divisor and K is the mapped problem and
    # its solve must be the mapped solve, up to round-off (measured: v to
    # 6.7e-16, areas to 1.7e-16 relative, 3 Newton steps and 14 CG
    # iterations each). S built from kernels at p + (0.5/n, 0) moves v by
    # 4.2e-3 (swap) and 4.9e-3 (reflection)
    n = 128
    atoms, betas = ((0.3037, 0.7121), (0.6113, 0.1847)), (-0.5, -0.3)
    K = sample(lambda x, y: -1.0 - 0.4 * np.sin(TAU * x) * np.cos(TAU * y)
               - 0.2 * np.cos(2.0 * TAU * y), n).values

    def solve(points, curvature):
        spec = CurvatureSpec(Field(np.ascontiguousarray(curvature)))
        return newton_solve(spec, singular_part(Divisor(points, betas), n))

    base = solve(atoms, K)
    for name, point, grid in (
            ("swap x <-> y", lambda x, y: (y, x), np.transpose),
            ("reflection x -> -x", lambda x, y: ((-x) % 1.0, y),
             lambda a: np.roll(a[::-1], 1, axis=0))):
        sol = solve(tuple(point(*p) for p in atoms), grid(K))
        dv = float(np.abs(sol.v.values - grid(base.v.values)).max())
        da = abs(sol.area - base.area) / base.area
        _line(10, f"n={n} {name}: sup|dv| {dv:.2e} (tol 1e-13), area rel {da:.1e} "
                  "(tol 1e-14)", dv <= 1e-13 and da <= 1e-14)
        _line(10, f"n={n} {name}: Newton/CG {sol.newton_iters}/{sol.cg_iters} equal "
                  f"{base.newton_iters}/{base.cg_iters}",
              (sol.newton_iters, sol.cg_iters) == (base.newton_iters, base.cg_iters))
