"""Newton-CG solver, area quadrature, uniqueness and length probes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cmlab.solver
from cmlab.continuation import check_curvature_bounds
from cmlab.errors import InfeasibleTopology, NonConvergence, ResidualOverflow
from cmlab.grids import TAU, Field, TorusChart, constant, irfft2, neg_laplacian, sample
from cmlab.green import singular_part
from cmlab.measures import Divisor, residue
from cmlab.models import cone_radial_length, cusp_profile, cusp_radial_length
from cmlab.solver import (
    CurvatureSpec,
    default_initial_guess,
    jacobian_apply,
    metric_area,
    newton_solve,
    radial_length,
    random_smooth_field,
    residual,
    solve_divisor,
    uniqueness_probe,
)
from oracles import quad_ray_length_cells


def test_manufactured_forcing_recovers_exact_solution():
    n = 64
    split = singular_part(Divisor(((0.3, 0.7),), (-0.5,)), n)
    v_exact = sample(lambda x, y: 0.3 * np.sin(TAU * x) * np.cos(TAU * y),
                     TorusChart(), n)
    base = CurvatureSpec(-1.0)
    forcing = residual(v_exact, base, split)
    spec = CurvatureSpec(-1.0, forcing=forcing)
    sol = newton_solve(spec, split, tol=1e-12)
    assert float(np.abs(sol.v.values - v_exact.values).max()) < 1e-8
    assert sol.residual_norm < 1e-12
    assert sol.gb_defect < 1e-10


def test_infeasible_topology():
    with pytest.raises(InfeasibleTopology) as exc:
        solve_divisor(((0.3, 0.7),), (0.5,), n=64)
    assert "chi" in str(exc.value)
    with pytest.raises(InfeasibleTopology):
        solve_divisor(((0.25, 0.3), (0.7, 0.6)), (0.3, -0.3), n=64)


def test_solver_validation():
    with pytest.raises(ValueError):
        solve_divisor(((0.3, 0.7),), (-1.0,), n=64)  # cusp needs continuation
    split = singular_part(Divisor(((0.3, 0.7),), (-0.5,)), 64)
    with pytest.raises(ValueError):
        newton_solve(CurvatureSpec(0.0), split)  # sup K must be negative
    # an infinite constant used to die on a math domain error in the guess
    with pytest.raises(ValueError, match="curvature must be finite"):
        newton_solve(CurvatureSpec(-math.inf), split)
    with pytest.raises(ValueError):
        newton_solve(CurvatureSpec(-1.0), split, tol=0.0)
    # an infinite tolerance used to return the unsolved default guess
    for tol in (math.inf, math.nan):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            solve_divisor(((0.3, 0.7),), (-0.5,), n=64, tol=tol)
    with pytest.raises(ValueError):
        newton_solve(CurvatureSpec(-1.0), split,
                     v0=constant(0.0, TorusChart(), 32))
    with pytest.raises(ValueError, match="forcing grid"):
        newton_solve(CurvatureSpec(-1.0, forcing=constant(0.0, TorusChart(), 32)), split)
    with pytest.raises(ValueError, match="v grid"):
        residual(np.zeros((32, 32)), CurvatureSpec(-1.0), split)


def test_curvature_spec_bounds():
    check_curvature_bounds(-1.0, 2.0)
    with pytest.raises(ValueError):
        check_curvature_bounds(-3.0, 2.0)  # curvature exits [-2, -1/2]
    with pytest.raises(ValueError):
        check_curvature_bounds(constant(-0.5, TorusChart(), 64), 1.5)  # exits [-1.5, -2/3]
    k = constant(-1.0, TorusChart(), 64)
    with pytest.raises(ValueError):
        CurvatureSpec(k).values(128)  # grid mismatch


def test_preconditioner_shift_is_exact_on_constants():
    # the CG preconditioner shift is mean(W), W = -2K e^{2u}; at a solution
    # the mean of the residual vanishes, so by Gauss-Bonnet the shift equals
    # 4 pi |chi| and the preconditioner matches the Jacobian on constants
    sol = solve_divisor(((0.3, 0.7),), (-0.99,), n=64)
    mean_w = float((2.0 * np.exp(2.0 * sol.u_values)).mean())
    assert mean_w == pytest.approx(2.0 * TAU * 0.99, rel=1e-9)


def test_residual_overflow():
    split = singular_part(Divisor(((0.3, 0.7),), (-0.5,)), 64)
    with pytest.raises(ResidualOverflow):
        newton_solve(CurvatureSpec(-1.0), split,
                     v0=constant(400.0, TorusChart(), 64))


def test_curvature_scaling_law():
    # K -> 4K shifts the solution by -log 2 and divides the area by 4
    pts, bts = ((0.3, 0.7),), (-0.5,)
    s1 = solve_divisor(pts, bts, curvature=-1.0, n=128)
    s4 = solve_divisor(pts, bts, curvature=-4.0, n=128)
    diff = s4.v.values - s1.v.values
    np.testing.assert_allclose(diff, -math.log(2.0), atol=1e-9)
    assert s4.area == pytest.approx(s1.area / 4.0, rel=1e-6)
    assert s1.gb_defect < 1e-9 and s4.gb_defect < 1e-9


@pytest.mark.parametrize("points, betas", [
    (((0.3, 0.7),), (-0.5,)),
    (((0.3, 0.7), (0.7, 0.3)), (-0.5, -0.25)),
])
def test_solved_cone_weight_is_measured_at_each_atom(points, betas):
    # with constant K the area is pinned whatever weight S carries, so only
    # the measured residue sees a cone built with the wrong weight
    sol = solve_divisor(points, betas, n=256)
    u = Field(sol.u_values, TorusChart())
    for p, beta in zip(points, betas):
        assert abs(residue(u, p) - beta) < 1e-2


def test_solution_area_and_gauss_bonnet():
    sol = solve_divisor(((0.3, 0.7),), (-0.5,), n=128)
    assert sol.area == pytest.approx(math.pi, rel=1e-2)
    assert sol.gb_defect < 1e-9
    assert sol.residual_norm < 1e-10
    assert sol.u_values.shape == (128, 128)


def test_variable_curvature_solve():
    n = 64
    k = sample(lambda x, y: -1.0 - 0.5 * np.cos(TAU * x) * np.sin(TAU * y),
               TorusChart(), n)
    spec = CurvatureSpec(k)
    split = singular_part(Divisor(((0.3, 0.7),), (-0.5,)), n)
    sol = newton_solve(spec, split)
    assert sol.residual_norm < 1e-10
    # total curvature is pinned by the spectral mean of the residual
    assert sol.gb_defect < 1e-9


def test_jacobian_matches_finite_differences():
    n = 16
    split = singular_part(Divisor(((0.3, 0.7),), (-0.5,)), n)
    spec = CurvatureSpec(-1.0)
    rng = np.random.default_rng(7)
    v = random_smooth_field(n, rng, amplitude=1.0)
    w = random_smooth_field(n, rng, amplitude=4.0).values
    jw = jacobian_apply(spec, split, v, w)
    errs = []
    steps = (1e-3, 1e-4)
    for h in steps:
        fp = residual(Field(v.values + h * w, TorusChart()), spec, split).values
        fm = residual(Field(v.values - h * w, TorusChart()), spec, split).values
        errs.append(float(np.abs((fp - fm) / (2.0 * h) - jw).max()))
    order = math.log(errs[0] / errs[1]) / math.log(steps[0] / steps[1])
    assert 1.5 < order < 2.5


def test_radial_length_cone_closed_form():
    beta = -0.5
    u = lambda x, y: beta * np.log(np.hypot(x, y))
    got = radial_length(u, (0.0, 0.0), 0.01, 0.5)
    assert got == pytest.approx(cone_radial_length(beta, 0.01, 0.5), rel=1e-10)
    with pytest.raises(ValueError):
        radial_length(u, (0.0, 0.0), 0.5, 0.01)


def test_radial_length_cusp_divergence():
    u = cusp_profile()
    lengths = []
    for k in (6, 10, 14):
        delta = 2.0 ** -k
        got = radial_length(u, (0.0, 0.0), delta, 0.25)
        assert got == pytest.approx(cusp_radial_length(delta, 0.25), rel=1e-8)
        lengths.append(got)
    assert lengths[0] < lengths[1] < lengths[2]


def test_radial_length_grid_paths_agree():
    # the atom-split integrand and the direct interpolation integrand are
    # two factorizations of the same metric; the callable carries no grid,
    # so its panels cannot break at the bilinear kinks
    sol = solve_divisor(((0.3, 0.7),), (-0.5,), n=128)
    split, v = sol.split, sol.v

    def u_interp(x, y):
        from cmlab.grids import bilinear_torus
        return split.smooth_rest(None, x, y) + bilinear_torus(v.values, x, y)

    got_atom = radial_length(sol, (0.3, 0.7), 0.02, 0.2)
    got_call = radial_length(u_interp, (0.3, 0.7), 0.02, 0.2)
    assert got_atom == pytest.approx(got_call, rel=1e-6)
    # off the atoms the Solution path integrates e^{S + v} with no power split
    got_off = radial_length(sol, (0.55, 0.2), 0.02, 0.2)
    assert got_off == pytest.approx(radial_length(u_interp, (0.55, 0.2), 0.02, 0.2),
                                    rel=1e-6)


@pytest.mark.parametrize("n", [128, 256])
def test_radial_length_grid_path_matches_cellwise_quad(n):
    # on the atom the package splits off s^beta; the oracle integrates
    # e^{S + v} directly, one adaptive quadrature per grid cell
    sol = solve_divisor(((0.3, 0.7),), (-0.5,), n=n)
    for p in ((0.3, 0.7), (0.55, 0.2)):
        assert radial_length(sol, p, 0.02, 0.2) == pytest.approx(
            quad_ray_length_cells(sol, p, 0.02, 0.2), rel=0, abs=1e-12)


def test_uniqueness_probe_quick():
    split = singular_part(Divisor(((0.3, 0.7),), (-0.5,)), 64)
    rep = uniqueness_probe(CurvatureSpec(-1.0), split, trials=2, seed=3)
    assert rep.trials == 2
    assert rep.max_pairwise < 1e-8
    assert all(r < 1e-10 for r in rep.residual_norms)


def test_random_smooth_field_bounds():
    rng = np.random.default_rng(11)
    f = random_smooth_field(64, rng, amplitude=2.0)
    assert float(np.abs(f.values).max()) <= 2.0 + 1e-12
    g = random_smooth_field(64, np.random.default_rng(11), amplitude=2.0)
    np.testing.assert_array_equal(f.values, g.values)


def test_metric_area_ring_correction_gate():
    # beta = -0.5 gives power exponent 1 >= 3/4: ring quadrature applies;
    # beta = -0.9 concentrates below grid scale and must fall back
    s_cone = solve_divisor(((0.3, 0.7),), (-0.5,), n=128)
    assert s_cone.rings_rejected == 0
    assert s_cone.area != s_cone.grid_area
    assert metric_area(s_cone.split, s_cone.v) == (
        s_cone.area, s_cone.grid_area, s_cone.rings_rejected)

    s_cusp = solve_divisor(((0.3, 0.7),), (-0.9,), n=128)
    assert s_cusp.rings_rejected == 1
    assert s_cusp.area == s_cusp.grid_area
    assert metric_area(s_cusp.split, s_cusp.v) == (s_cusp.area, s_cusp.grid_area, 1)


def _complex_neg_laplacian(values):
    """-Delta by full complex numpy.fft transforms (independent of the package)."""
    n = values.shape[0]
    k = TAU * np.fft.fftfreq(n, d=1.0 / n)
    k2 = k[:, None] ** 2 + k[None, :] ** 2
    return np.fft.ifft2(k2 * np.fft.fft2(values)).real


def _rel_err(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


@pytest.mark.parametrize("n", [16, 64])
def test_operator_matches_complex_fft_reference(n):
    rng = np.random.default_rng(n)
    split = singular_part(Divisor(((0.3, 0.7),), (-0.5,)), n)
    K = Field(-1.0 - 0.5 * rng.random((n, n)), TorusChart())
    forcing = Field(rng.normal(size=(n, n)), TorusChart())
    spec = CurvatureSpec(K, forcing=forcing)
    v = rng.normal(scale=0.5, size=(n, n))
    w = rng.normal(size=(n, n))
    e2u = np.exp(2.0 * (split.S.values + v))

    assert _rel_err(neg_laplacian(w), _complex_neg_laplacian(w)) < 1e-12
    want_F = (_complex_neg_laplacian(v) - K.values * e2u
              + TAU * split.beta_sum - forcing.values)
    assert _rel_err(residual(v, spec, split).values, want_F) < 1e-12
    want_J = _complex_neg_laplacian(w) - 2.0 * K.values * e2u * w
    assert _rel_err(jacobian_apply(spec, split, v, w), want_J) < 1e-12


def test_newton_cg_transform_count(monkeypatch):
    # two half-size transforms per CG iteration (rfft2(r) and irfft2(z^); -Delta p
    # comes from the preconditioner solve), two per residual evaluation
    split = singular_part(Divisor(((0.3, 0.7),), (-0.5,)), 64)
    calls = {"n": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls["n"] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cmlab.solver, "rfft2", counted(cmlab.solver.rfft2))
    monkeypatch.setattr(cmlab.solver, "irfft2", counted(cmlab.solver.irfft2))
    sol = newton_solve(CurvatureSpec(-1.0), split)
    assert sol.residual_norm < 1e-10
    assert sol.cg_iters > 0
    assert 2 * sol.cg_iters <= calls["n"] <= 2 * sol.cg_iters + 4 * sol.newton_iters + 3


def test_cg_true_residual_on_a_cusp_stage():
    # CG carries -Delta p by a recurrence, not a transform; at a near-cusp
    # weight W spikes to ~6e3, so the true residual of (-Delta + W) x = b,
    # applied afresh through the Jacobian, guards that recurrence against drift
    n = 128
    split = singular_part(Divisor(((0.3, 0.7),), (-(1.0 - 2.0 ** -10),)), n)
    spec = CurvatureSpec(-1.0)
    sol = newton_solve(spec, split)
    op = cmlab.solver._operator(spec, split)
    W = op.weight(np.exp(2.0 * sol.u_values))
    assert float(W.max()) > 5e3
    b = np.random.default_rng(5).normal(size=(n, n))
    xhat, _, capped = cmlab.solver._cg(op, W, float(W.mean()), b)
    assert not capped
    res = op.jacobian(W, irfft2(xhat, n), xhat) - b
    assert np.linalg.norm(res) <= 1e-5 * np.linalg.norm(b)


_SHIFT_N = 32
_SHIFT_POINTS = ((0.3, 0.7), (0.65, 0.2))
_SHIFT_BETAS = (-0.5, -0.25)


@settings(derandomize=True, database=None, max_examples=8, deadline=None)
@given(st.integers(0, _SHIFT_N - 1), st.integers(0, _SHIFT_N - 1))
def test_whole_cell_shift_rolls_the_solution(i, j):
    n = _SHIFT_N
    base = solve_divisor(_SHIFT_POINTS, _SHIFT_BETAS, n=n)
    moved = tuple(((x + i / n) % 1.0, (y + j / n) % 1.0) for x, y in _SHIFT_POINTS)
    sol = solve_divisor(moved, _SHIFT_BETAS, n=n)
    rolled = np.roll(base.v.values, (i, j), axis=(0, 1))
    assert float(np.abs(sol.v.values - rolled).max()) <= 1e-12
    assert abs(sol.area - base.area) <= 1e-12


def test_cg_capped_is_counted(monkeypatch):
    split = singular_part(Divisor(((0.3, 0.7),), (-0.5,)), 32)
    assert newton_solve(CurvatureSpec(-1.0), split).cg_capped == 0
    monkeypatch.setattr(cmlab.solver, "_CG_MAXITER", 2)
    capped = newton_solve(CurvatureSpec(-1.0), split)
    assert capped.residual_norm < 1e-10
    assert capped.cg_capped > 0


def test_newton_cap_raises_nonconvergence(monkeypatch):
    # the default guess needs more than one Newton step here
    split = singular_part(Divisor(((0.3, 0.7),), (-0.5,)), 32)
    monkeypatch.setattr(cmlab.solver, "_MAX_NEWTON", 1)
    with pytest.raises(NonConvergence, match="within 1 iterations"):
        newton_solve(CurvatureSpec(-1.0), split)


def test_overflowing_line_search_trial_halves_the_step(monkeypatch):
    # a trial whose e^{2u} overflows fails the Armijo test like any other:
    # the step halves and the solve still reaches tol
    split = singular_part(Divisor(((0.3, 0.7),), (-0.5,)), 32)
    plain = newton_solve(CurvatureSpec(-1.0), split)
    calls = []
    exp2u = cmlab.solver._exp2u

    def first_trial_overflows(S, v):
        calls.append(None)
        if len(calls) == 2:  # call 1 evaluates the start, call 2 the first trial
            raise ResidualOverflow("e^{2u} overflows double precision")
        return exp2u(S, v)

    monkeypatch.setattr(cmlab.solver, "_exp2u", first_trial_overflows)
    sol = newton_solve(CurvatureSpec(-1.0), split)
    assert len(calls) > 2
    assert sol.residual_norm <= 1e-10
    assert float(np.abs(sol.v.values - plain.v.values).max()) < 1e-9


def test_atom_free_forced_solve_starts_from_zero():
    # sum(beta) = 0 makes the default guess v = 0; the manufactured forcing
    # makes the chi = 0 equation solvable
    n = 32
    split = singular_part(Divisor((), ()), n)
    v_exact = sample(lambda x, y: 0.3 * np.sin(TAU * x) * np.cos(TAU * y),
                     TorusChart(), n)
    spec = CurvatureSpec(-1.0, forcing=residual(v_exact, CurvatureSpec(-1.0), split))
    assert not default_initial_guess(spec, split).values.any()
    sol = newton_solve(spec, split, tol=1e-12)
    assert float(np.abs(sol.v.values - v_exact.values).max()) < 1e-8


def test_uniqueness_probe_rejects_no_trials():
    split = singular_part(Divisor(((0.3, 0.7),), (-0.5,)), 32)
    for trials in (0, -1):
        with pytest.raises(ValueError):
            uniqueness_probe(CurvatureSpec(-1.0), split, trials=trials)


def _solver_splits(monkeypatch):
    """Grid sizes of the singular_part calls the solver makes from now on."""
    calls = []
    real = cmlab.solver.singular_part

    def counted(div, n):
        calls.append(n)
        return real(div, n)

    monkeypatch.setattr(cmlab.solver, "singular_part", counted)
    return calls


def _inner_solves(monkeypatch, fail_at=None):
    """Grid sizes of the newton_solve calls the solver makes from now on;
    a call on grid `fail_at` raises NonConvergence."""
    calls = []
    real = cmlab.solver.newton_solve

    def counted(spec, split, *args, **kwargs):
        calls.append(split.n)
        if split.n == fail_at:
            raise NonConvergence("injected")
        return real(spec, split, *args, **kwargs)

    monkeypatch.setattr(cmlab.solver, "newton_solve", counted)
    return calls


def test_coarse_start_gives_the_default_start_answer(monkeypatch):
    calls = _solver_splits(monkeypatch)
    solves = _inner_solves(monkeypatch)
    split = singular_part(Divisor(((0.3, 0.7),), (-0.5,)), 512)
    spec = CurvatureSpec(-1.0)
    nested = newton_solve(spec, split)
    plain = newton_solve(spec, split, v0=default_initial_guess(spec, split))
    assert calls == [128]  # only the default start solves on the n/4 grid
    assert solves == [128]  # by one newton_solve call of its own
    assert float(np.abs(nested.v.values - plain.v.values).max()) <= 1e-12
    assert nested.area == pytest.approx(plain.area, rel=1e-14)
    assert nested.newton_iters <= plain.newton_iters


def test_coarse_start_falls_back_when_the_coarse_grid_rejects_an_atom(monkeypatch):
    # 2e-8 of a fine cell off a node passes the n = 512 on-node test (1e-8),
    # but it is 5e-9 of a cell at n = 128, where singular_part refuses it
    n = 512
    div = Divisor(((128 / n + 2e-8 / n, 0.75),), (-0.5,))
    split = singular_part(div, n)
    with pytest.raises(ValueError):
        singular_part(div, n // 4)
    calls = _solver_splits(monkeypatch)
    spec = CurvatureSpec(-1.0)
    sol = newton_solve(spec, split)
    plain = newton_solve(spec, split, v0=default_initial_guess(spec, split))
    assert calls == [128]
    assert (sol.newton_iters, sol.cg_iters) == (plain.newton_iters, plain.cg_iters)
    np.testing.assert_array_equal(sol.v.values, plain.v.values)


def test_coarse_start_falls_back_when_the_coarse_newton_does_not_converge(monkeypatch):
    solves = _inner_solves(monkeypatch, fail_at=128)
    split = singular_part(Divisor(((0.3, 0.7),), (-0.5,)), 512)
    spec = CurvatureSpec(-1.0)
    sol = newton_solve(spec, split)
    plain = newton_solve(spec, split, v0=default_initial_guess(spec, split))
    assert solves == [128]
    assert (sol.newton_iters, sol.cg_iters) == (plain.newton_iters, plain.cg_iters)
    np.testing.assert_array_equal(sol.v.values, plain.v.values)


def test_coarse_start_with_variable_curvature_and_forcing(monkeypatch):
    # Field curvature and forcing reach the n/4 grid by injection
    n = 512
    k = sample(lambda x, y: -1.0 - 0.5 * np.cos(TAU * x) * np.sin(TAU * y),
               TorusChart(), n)
    split = singular_part(Divisor(((0.3, 0.7),), (-0.5,)), n)
    v_exact = sample(lambda x, y: 0.3 * np.sin(TAU * x) * np.cos(TAU * y),
                     TorusChart(), n)
    spec = CurvatureSpec(k, forcing=residual(v_exact, CurvatureSpec(k), split))
    calls = _solver_splits(monkeypatch)
    sol = newton_solve(spec, split)
    assert calls == [128]
    assert sol.residual_norm <= 1e-10
    # the coarse solve of the injected problem starts inside the fine
    # quadratic basin (1 step measured); a transposed or shifted injection
    # measured 5 and 3 steps, the default guess 6
    assert sol.newton_iters <= 2
    plain = newton_solve(spec, split, v0=default_initial_guess(spec, split))
    assert sol.area == pytest.approx(plain.area, rel=1e-12)


def test_uniqueness_probe_keeps_fine_starts(monkeypatch):
    # random starts must begin on the fine grid, or the probe tests less
    split = singular_part(Divisor(((0.3, 0.7),), (-0.5,)), 512)
    calls = _solver_splits(monkeypatch)
    rep = uniqueness_probe(CurvatureSpec(-1.0), split, trials=2, seed=3)
    assert calls == []
    assert rep.max_pairwise < 1e-8
