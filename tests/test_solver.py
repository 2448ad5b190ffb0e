"""Newton-CG solver, its starts, area quadrature and radial lengths."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import cmlab.solver
from cmlab.continuation import check_curvature_bounds, cusp_schedule, run_continuation
from cmlab.errors import InfeasibleTopology, NonConvergence, ResidualOverflow
from cmlab.grids import (MIN_N, TAU, Field, constant, neg_laplacian, rfft2,
                         sample, torus_distance)
from cmlab.green import _green_cached, green_kernel, singular_part
from cmlab.measures import Divisor, residue
from cmlab.models import cusp_profile
from cmlab.solver import (
    CurvatureSpec,
    jacobian_apply,
    metric_area,
    newton_solve,
    radial_length,
    residual,
    solve_divisor,
)
from oracles import (
    cone_radial_length,
    cusp_radial_length,
    quad_ray_length_cells,
    random_smooth_field,
    torus_mesh,
    translation_spread,
    whole_array_cg,
    whole_array_singular,
    whole_grid_blended_sum,
)


def test_manufactured_forcing_recovers_exact_solution():
    n = 64
    split = singular_part(Divisor(((0.3, 0.7),), (-0.5,)), n)
    v_exact = sample(lambda x, y: 0.3 * np.sin(TAU * x) * np.cos(TAU * y), n)
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
                     v0=constant(0.0, 32))
    with pytest.raises(ValueError, match="forcing grid"):
        newton_solve(CurvatureSpec(-1.0, forcing=constant(0.0, 32)), split)
    with pytest.raises(ValueError, match="v grid"):
        residual(constant(0.0, 32), CurvatureSpec(-1.0), split)


def test_curvature_spec_bounds():
    # the hypothesis is the sign alone, with no clamp range
    check_curvature_bounds(-3.0)
    check_curvature_bounds(constant(-0.5, 64))
    with pytest.raises(ValueError, match=re.escape("finite and negative, got max 0.0")):
        check_curvature_bounds(constant(0.0, 64))
    k = constant(-1.0, 64)
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
                     v0=constant(400.0, 64))


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
    u = Field(sol.u_values)
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
    k = sample(lambda x, y: -1.0 - 0.5 * np.cos(TAU * x) * np.sin(TAU * y), n)
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
        fp = residual(Field(v.values + h * w), spec, split).values
        fm = residual(Field(v.values - h * w), spec, split).values
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


@pytest.mark.parametrize("call, message", [
    # green_kernel returned a kernel and cached it under a NaN key
    (lambda: green_kernel((math.nan, 0.5), 16), "p = (nan, 0.5) is not a finite point"),
    (lambda: green_kernel((0.5, math.inf), 16), "p = (0.5, inf) is not a finite point"),
    # radial_length returned nan
    (lambda: radial_length(cusp_profile(), (math.nan, 0.0), 0.1, 0.5),
     "p = (nan, 0.0) is not a finite point"),
    (lambda: radial_length(cusp_profile(), (0.0, -math.inf), 0.1, 0.5),
     "p = (0.0, -inf) is not a finite point"),
    # an infinite outer radius raised a bare OverflowError from math.ceil
    (lambda: radial_length(cusp_profile(), (0.0, 0.0), 0.1, math.inf),
     "need 0 < delta < r0 < inf, got delta = 0.1, r0 = inf"),
])
def test_non_finite_points_are_rejected(call, message):
    before = _green_cached.cache_info()
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
    assert _green_cached.cache_info() == before  # nothing built, nothing cached


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
    assert metric_area(s_cone.split, s_cone.v, np.exp(2.0 * s_cone.u_values)) == (
        s_cone.area, s_cone.grid_area, s_cone.rings_rejected)

    s_cusp = solve_divisor(((0.3, 0.7),), (-0.9,), n=128)
    assert s_cusp.rings_rejected == 1
    assert s_cusp.area == s_cusp.grid_area
    assert metric_area(s_cusp.split, s_cusp.v, np.exp(2.0 * s_cusp.u_values)) == (
        s_cusp.area, s_cusp.grid_area, 1)


@pytest.mark.parametrize("sep, area_err", [(0.1, 0.0212), (0.03, 0.0594), (0.01, 0.1187)])
def test_close_atoms_are_flagged(sep, area_err):
    # two cones closer than 16/n: their 8/n ring windows overlap, which the
    # ring correction does not resolve, so the area reads high while the
    # grid area stays exact; the pair is counted and the area left as it is
    atom = (0.3037, 0.7121)
    sol = solve_divisor((atom, (atom[0] + sep, atom[1])), (-0.5, -0.5), n=64)
    assert sol.rings_overlapping == 1 and sol.rings_rejected == 0
    assert sol.grid_area == pytest.approx(TAU, rel=1e-12)
    assert sol.area / TAU - 1.0 == pytest.approx(area_err, abs=5e-4)


def test_benchmark_divisors_have_no_overlapping_rings():
    # one atom, and two atoms 0.57 apart
    for atoms in (((0.3, 0.7),), ((0.3, 0.7), (0.7, 0.3))):
        assert solve_divisor(atoms, (-0.5,) * len(atoms), n=64).rings_overlapping == 0


@pytest.mark.parametrize("n", [8, 32, 256])
def test_metric_area_window_matches_the_whole_grid(monkeypatch, n):
    # atoms across both seams, where the window of nodes wraps: its sorted
    # rows and columns keep the whole grid's row-major order, so the blended
    # grid sums, and with them the area, are the same bits
    split = singular_part(Divisor(((0.999, 0.001), (0.0005, 0.5)), (-0.5, -0.25)), n)
    v = random_smooth_field(n, np.random.default_rng(n))
    u2 = np.exp(np.random.default_rng(1).uniform(-30.0, 30.0, size=(n, n)))
    for px, py in split.divisor.points:
        assert (cmlab.solver._blended_grid_sum(u2, px, py)
                == whole_grid_blended_sum(u2, px, py))
    e2u = np.exp(2.0 * (split.S.values + v.values))
    got = metric_area(split, v, e2u)
    monkeypatch.setattr(cmlab.solver, "_blended_grid_sum", whole_grid_blended_sum)
    assert metric_area(split, v, e2u) == got


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256, 512, 1024])
def test_block_partials_sum_to_the_whole_array_bits(n):
    # the solver's inner products are per-block partials combined in a
    # binary tree; numpy's pairwise sum must split the whole array the same
    # way, or CG's rounding moves (a numpy upgrade that changes pairwise
    # summation fails here first)
    blocks = cmlab.solver._blocks(n)
    rows = {s.stop - s.start for s in blocks}
    assert len(rows) == 1 and len(blocks) * rows.pop() == n
    assert len(blocks) & (len(blocks) - 1) == 0
    rng = np.random.default_rng(n)
    a, b = (rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-20.0, 20.0, size=(n, n))
            for _ in range(2))
    tmp = np.empty_like(a[blocks[0]])
    parts = [np.multiply(a[s], b[s], out=tmp).sum() for s in blocks]
    assert cmlab.solver._tree_sum(parts) == float(np.multiply(a, b).sum())


def _default_start(spec, split):
    """The un-nested start: the constant default guess on the solve's grid."""
    return Field(cmlab.solver._default_guess(cmlab.solver._operator(spec, split)))


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
    K = Field(-1.0 - 0.5 * rng.random((n, n)))
    forcing = Field(rng.normal(size=(n, n)))
    spec = CurvatureSpec(K, forcing=forcing)
    v = Field(rng.normal(scale=0.5, size=(n, n)))
    w = rng.normal(size=(n, n))
    e2u = np.exp(2.0 * (split.S.values + v.values))

    assert _rel_err(neg_laplacian(w), _complex_neg_laplacian(w)) < 1e-12
    want_F = (_complex_neg_laplacian(v.values) - K.values * e2u
              + TAU * split.beta_sum - forcing.values)
    assert _rel_err(residual(v, spec, split).values, want_F) < 1e-12
    want_J = _complex_neg_laplacian(w) - 2.0 * K.values * e2u * w
    assert _rel_err(jacobian_apply(spec, split, v, w), want_J) < 1e-12


def test_newton_cg_transform_count(monkeypatch):
    # given its start, one rfft2 of it, two for the start's v and -Delta v,
    # and two half-size transforms per CG iteration (rfft2(r) and irfft2(z^);
    # -Delta p comes from the preconditioner solve); Armijo trials and CG
    # exits make none
    split = singular_part(Divisor(((0.3, 0.7),), (-0.5,)), 64)
    spec = CurvatureSpec(-1.0)
    v0 = _default_start(spec, split)
    calls = {"n": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls["n"] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cmlab.solver, "rfft2", counted(cmlab.solver.rfft2))
    monkeypatch.setattr(cmlab.solver, "irfft2", counted(cmlab.solver.irfft2))
    sol = newton_solve(spec, split, v0=v0)
    assert sol.residual_norm < 1e-10
    assert sol.cg_iters > 0
    assert calls["n"] == 2 * sol.cg_iters + 3


def _cusp_stage_jacobian(n=128):
    """The operator and Jacobian weight W at the solution of a near-cusp
    cone (beta = -(1 - 2^-10)), where W spikes to ~6e3 at the atom."""
    split = singular_part(Divisor(((0.3, 0.7),), (-(1.0 - 2.0 ** -10),)), n)
    spec = CurvatureSpec(-1.0)
    sol = newton_solve(spec, split)
    op = cmlab.solver._operator(spec, split)
    W = op.weight(np.exp(2.0 * sol.u_values))
    assert float(W.max()) > 5e3
    return op, W


def _cg_solve(op, W, shift, b, tol):
    """`_cg` on a copy r of b: (x, -Delta x = b - r - W x, iterations, capped)."""
    r = b.copy()
    x, iters, capped = cmlab.solver._cg(op, W, shift, r, tol, cmlab.solver._cg_work(op.n))
    return x, np.subtract(b, r) - np.multiply(W, x), iters, capped


def test_cg_true_residual_on_a_cusp_stage():
    # CG carries -Delta p by a recurrence, not a transform; at a near-cusp
    # weight the true residual of (-Delta + W) x = b, applied afresh through
    # the Jacobian, guards that recurrence against drift (tol = 0: the
    # relative stop alone)
    op, W = _cusp_stage_jacobian()
    n = op.n
    b = np.random.default_rng(5).normal(size=(n, n))
    x, lx, _, capped = _cg_solve(op, W, float(W.mean()), b, 0.0)
    assert not capped
    lap = neg_laplacian(x)
    res = lap + W * x - b
    assert np.linalg.norm(res) <= 1e-5 * np.linalg.norm(b)
    # the returned -Delta x, read off the recurrence residual, is the one a
    # transform gives (7e-14 of max |b| measured); the Newton state carries it
    assert float(np.abs(lx - lap).max()) <= 1e-10 * float(np.abs(b).max())


def test_cg_stops_at_half_the_newton_tolerance():
    # a right-hand side already near tol, as in the last Newton step: CG
    # stops once ||r||_2 <= tol/2 (3 iterations measured) where the relative
    # stop alone takes 7, and the true residual is under tol/2 (0.28 tol)
    op, W = _cusp_stage_jacobian()
    n, tol = op.n, 1e-10
    b = np.random.default_rng(5).normal(size=(n, n))
    b *= 100.0 * tol / np.linalg.norm(b)
    shift = float(W.mean())
    x, _, iters, capped = _cg_solve(op, W, shift, b, tol)
    full = _cg_solve(op, W, shift, b, 0.0)[2]
    assert not capped
    assert iters < full
    res = neg_laplacian(x) + W * x - b
    assert np.linalg.norm(res) <= 0.5 * tol


@pytest.mark.parametrize("block", [None, 2 ** 12, 2 ** 7])
@pytest.mark.parametrize("tol", [0.0, 1e-10])
def test_blocked_cg_matches_whole_array_cg_bits(monkeypatch, block, tol):
    # n = 128 is one block of 2^15 elements; 2^12 and 2^7 give 4 and 128,
    # in the sweeps and in irfft2's row pass over z^'s own buffer
    op, W = _cusp_stage_jacobian()
    if block is not None:
        monkeypatch.setattr(cmlab.grids, "_BLOCK", block)
    n = op.n
    b = np.random.default_rng(5).normal(size=(n, n))
    if tol:
        b *= 100.0 * tol / np.linalg.norm(b)  # the absolute stop binds
    shift = float(W.mean())
    x, lx, iters, capped = _cg_solve(op, W, shift, b, tol)
    want = whole_array_cg(op, W, shift, b, tol)
    assert (iters, capped) == want[2:]
    np.testing.assert_array_equal(x, want[0])
    np.testing.assert_array_equal(lx, want[1])


@pytest.mark.parametrize("n", [256, 1024])
def test_cg_work_holds_no_half_spectrum_real_array(n):
    # the preconditioner 1/(k2 + shift) is formed a row block at a time (at
    # n <= 128 one block is the whole half spectrum), and w is the head of
    # z^'s buffer, not an array of its own
    work = cmlab.solver._cg_work(n)
    assert not any(a.shape == (n, n // 2 + 1) and a.dtype == float for a in work)
    w, zhat = work[3], work[4]
    assert w.shape == (n, n) and np.shares_memory(w, zhat)


def _traced_peak(call) -> int:
    """tracemalloc's peak, in bytes, over one call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_newton_solve_working_set():
    # the n = 512 solve with its kernels cached, under tracemalloc: 16.65 MiB
    # measured, 8 arrays of n^2 doubles on the fine level (v, lv, W, F, p,
    # lp, x, and z^ with w at its head); 18.65 MiB when the split stored S,
    # 23.5 MiB when CG also held r, w and 1/(k2 + shift) and the symbol k2
    # was cached, 25.1 MiB when CG's products went through a whole-grid
    # array, and 35.0 MiB when the state was a half spectrum, every Armijo
    # trial transformed and the loop held the previous step
    solve_divisor(((0.3, 0.7),), (-0.5,), n=512)
    assert _traced_peak(lambda: solve_divisor(((0.3, 0.7),), (-0.5,), n=512)) <= 17 * 2 ** 20


def test_warm_solve_peaks_at_eight_grid_arrays_and_the_row_blocks():
    # n = 256, kernel cached: the 8 arrays (z^ is n(n + 2) doubles), CG's
    # row blocks of 1/(k2 + shift) and of products, and the copy of z^'s
    # overlapping row block that irfft2's row pass makes (complex), one
    # block of 128 rows here, and 32 KiB for small objects (7.6 KiB
    # measured): 4.64 MiB measured, 5.14 MiB when the split stored S as a
    # ninth array
    n = 256
    rows = cmlab.solver._blocks(n)[0].stop
    arrays = 7 * n * n + n * (n + 2)
    blocks = rows * (n // 2 + 1) + rows * n + 2 * rows * (n // 2 + 1)
    solve_divisor(((0.3, 0.7),), (-0.5,), n=n)
    peak = _traced_peak(lambda: solve_divisor(((0.3, 0.7),), (-0.5,), n=n))
    assert peak <= 8 * (arrays + blocks) + 2 ** 15


def test_singular_part_allocates_no_grid_array():
    # a cached 3-atom divisor at n = 512: S is formed and checked two row
    # blocks at a time (2 x 256 KiB, 0.25 n^2 doubles), never as a grid
    n = 512
    div = Divisor(((0.3, 0.7), (0.11, 0.23), (0.77, 0.61)), (-0.5, -0.3, 0.2))
    singular_part(div, n)
    peak = _traced_peak(lambda: singular_part(div, n))
    rows = cmlab.solver._blocks(n)[0].stop
    assert peak <= 8 * 2 * rows * n + 2 ** 14 < 8 * n * n


@pytest.mark.parametrize("n", [8, 64, 256])
@pytest.mark.parametrize("atoms", [0, 1, 3])
def test_residual_sweep_forms_the_rows_of_the_whole_array_s(monkeypatch, atoms, n):
    # the sweep forms each row block of S in e^{2u}'s own block (1, 4 and
    # 64 blocks here); every block is those rows of the whole-array sum, and
    # e^{2u} is the whole-array exp(2 (S + v)), bit for bit
    monkeypatch.setattr(cmlab.grids, "_BLOCK", 2 ** 10)
    points = ((0.3, 0.7), (0.11, 0.23), (0.77, 0.61))[:atoms]
    split = singular_part(Divisor(points, (-0.5, -0.3, 0.2)[:atoms]), n)
    want = whole_array_singular(split)
    seen = []
    real = cmlab.solver._singular_rows

    def kept(terms, s, out, tmp):
        seen.append((s, real(terms, s, out, tmp).copy()))
        return out

    monkeypatch.setattr(cmlab.solver, "_singular_rows", kept)
    op = cmlab.solver._operator(CurvatureSpec(-1.0), split)
    v = random_smooth_field(n, np.random.default_rng(n)).values
    e2u, F = np.empty_like(v), np.empty_like(v)
    blocks = cmlab.solver._blocks(n)
    cmlab.solver._residual_sweep(op, v, neg_laplacian(v), e2u, F,
                                 np.empty((blocks[0].stop, n)))
    assert [s for s, _ in seen] == blocks
    for s, rows in seen:
        assert rows.tobytes() == want[s].tobytes()
    assert e2u.tobytes() == np.exp(2.0 * (want + v)).tobytes()


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


_SYM_N = 64
_CELL = st.integers(0, _SYM_N - 1)
_INSIDE = st.floats(0.1, 0.9)  # of a cell: off every node, and off-node at n/4
_SYM_BETA = st.floats(-0.9, -0.1)


@settings(derandomize=True, database=None, max_examples=8, deadline=None)
@given(cells=st.tuples(_CELL, _CELL, _CELL, _CELL),
       inside=st.tuples(_INSIDE, _INSIDE, _INSIDE, _INSIDE),
       betas=st.tuples(_SYM_BETA, _SYM_BETA))
def test_square_symmetries_commute_with_the_solve(cells, inside, betas):
    # the swap x <-> y and the reflection x -> -x map nodes to nodes (and
    # every fourth node to every fourth node, so the n/4 levels too): the
    # solve of the mapped divisor is the mapped solve, up to round-off
    # (measured on these examples: v to 1.1e-15, areas to 2.2e-16, equal
    # counts). An S built off its atoms, such as kernels at p + (0.5/n, 0),
    # breaks both (sup |dv| 6e-2 and more)
    n = _SYM_N
    i0, j0, i1, j1 = cells
    assume((i0, j0) != (i1, j1))
    atoms = tuple(((i + a) / n, (j + b) / n)
                  for (i, j), (a, b) in zip(((i0, j0), (i1, j1)),
                                            (inside[:2], inside[2:])))
    base = solve_divisor(atoms, betas, n=n)
    v = base.v.values
    images = (
        (tuple((y, x) for x, y in atoms), v.T),
        (tuple(((-x) % 1.0, y) for x, y in atoms), np.roll(v[::-1], 1, axis=0)),
    )
    for mapped, v_image in images:
        sol = solve_divisor(mapped, betas, n=n)
        assert float(np.abs(sol.v.values - v_image).max()) <= 1e-13
        assert sol.area == pytest.approx(base.area, rel=1e-14)
        assert sol.grid_area == pytest.approx(base.grid_area, rel=1e-14)
        assert ((sol.newton_iters, sol.cg_iters)
                == (base.newton_iters, base.cg_iters))


@settings(derandomize=True, database=None, max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_comparison_principle_with_variable_curvature(seed):
    # for one divisor, K1 <= K2 < 0 gives u1 <= u2 (Kazdan & Warner 1974).
    # The spectral -Delta has no discrete maximum principle, so the margins
    # are measured: over 240 seeds at n = 64, min(v_K - v_-1.6) >= 0.162,
    # min(v_-0.4 - v_K) >= 0.356, and a 0.3 cos^2 bump of radius 0.1 added
    # to K raised v everywhere by at least 5.4e-4; each bound is about half
    split = singular_part(Divisor(((0.3037, 0.7121), (0.6113, 0.1847)), (-0.5, -0.3)), 64)

    def solved_v(K):
        spec = CurvatureSpec(K if np.isscalar(K) else Field(K))
        return newton_solve(spec, split).v.values

    rng = np.random.default_rng(seed)
    K = -1.0 + 0.6 * random_smooth_field(64, rng, amplitude=1.0).values  # in [-1.6, -0.4]
    X, Y = torus_mesh(64)
    d = torus_distance(X, Y, *rng.uniform(0.0, 1.0, 2))
    bumped = K + np.where(d < 0.1, 0.3 * np.cos(math.pi * d / 0.2) ** 2, 0.0)
    v = solved_v(K)
    assert float((v - solved_v(-1.6)).min()) >= 0.08
    assert float((solved_v(-0.4) - v).min()) >= 0.18
    assert float((solved_v(bumped) - v).min()) >= 2.5e-4


@pytest.mark.parametrize("beta, order", [(-0.5, 0.95), (-0.8, 0.45), (-1.0 + 2.0 ** -10, 0.35)])
def test_translation_spread_falls_with_the_grid(beta, order):
    # a sub-cell move of the atom, undone spectrally, bounds v's
    # discretisation error from below; it falls at about order 1 at
    # beta = -0.5 and about 1/2 from beta = -0.8 to the cusp ladder's last
    # stage, not at 2 + 2 beta (0.002 at beta = -1 + 2^-10). Over 40 sub-cell
    # offsets the fitted order at n = 64, 128, 256 ranged over 0.98-1.14 at
    # beta = -0.5, 0.49-0.76 at beta = -0.8 and 0.39-0.72 at -1 + 2^-10, and
    # fell at every doubling; the fixed offset reads 1.03-1.05, 0.60-0.63
    # and 0.48-0.50
    ns = (64, 128, 256)
    for f in (0.25, 0.5):
        spreads = [translation_spread(beta, f, n) for n in ns]
        assert spreads[0] > spreads[1] > spreads[2]
        assert -np.polyfit(np.log2(ns), np.log2(spreads), 1)[0] >= order
    # a whole-cell move is a symmetry of the grid, also with variable K: only
    # the dropped Nyquist modes remain, 0.027 and 0.041 times the f = 1/2
    # spread. Moving v1 the wrong way reads 1.9 and 1.8 times it, and
    # leaving K in place 4.6 and 1.1 times
    def K(x, y):
        return -1.0 + 0.4 * np.cos(TAU * x) * np.cos(TAU * y)

    assert translation_spread(beta, 1.0, 64, K) < 0.1 * spreads[0]


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
    with pytest.raises(NonConvergence, match=r"within 1 iterations \(residual .*, round-off"):
        newton_solve(CurvatureSpec(-1.0), split)


@pytest.mark.parametrize("delta, beta", [(0.05, -0.99), (1.0 / 1024, -0.97)])
def test_a_failed_solve_names_its_round_off_floor(delta, beta):
    # an atom delta cells off a node line at n = 512 puts the round-off floor
    # of F, eps max|K| e^{2u} at the node nearest the atom, near tol, and the
    # line search stalls on it. Measured: step 15 with
    # residual 4.183e-10 against an estimate of 9.91e-11, and step 10 with
    # 5.186e-10 against 2.775e-10. The message gives the estimate beside the
    # residual
    with pytest.raises(NonConvergence, match="line search hit the 2") as err:
        solve_divisor((((128 + delta) / 512, 0.75),), (beta,), n=512)
    got = re.search(r"residual (\S+), round-off floor eps max\|K\|e\^\(2u\) = (\S+)\)$",
                    str(err.value))
    assert got, str(err.value)
    res, floor = (float(g) for g in got.groups())
    assert res / 10.0 <= floor <= 10.0 * res


def test_overflowing_line_search_trial_halves_the_step(monkeypatch):
    # a trial whose e^{2u} overflows fails the Armijo test like any other:
    # the step halves and the solve still reaches tol
    split = singular_part(Divisor(((0.3, 0.7),), (-0.5,)), 32)
    plain = newton_solve(CurvatureSpec(-1.0), split)
    calls = []
    exp2u = cmlab.solver._exp2u

    def first_trial_overflows(S, v, out=None):
        calls.append(None)
        if len(calls) == 2:  # call 1 evaluates the start, call 2 the first trial
            raise ResidualOverflow("e^{2u} overflows double precision")
        return exp2u(S, v, out=out)

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
    v_exact = sample(lambda x, y: 0.3 * np.sin(TAU * x) * np.cos(TAU * y), n)
    spec = CurvatureSpec(-1.0, forcing=residual(v_exact, CurvatureSpec(-1.0), split))
    assert not _default_start(spec, split).values.any()
    sol = newton_solve(spec, split, tol=1e-12)
    assert float(np.abs(sol.v.values - v_exact.values).max()) < 1e-8


def _newton_loops(monkeypatch, fail_at=None, counts=None):
    """Operators of the Newton loops the solver runs from now on, one per
    level, in the order the loops start: a level's n/4 loop, which builds
    its start, before its own. A loop on grid `fail_at` raises
    NonConvergence. Each loop that returns appends (grid, Newton steps, CG
    iterations) to the list `counts`, when one is given."""
    ops = []
    real = cmlab.solver._newton_loop

    def counted(op, vhat, tol):
        ops.append(op)
        if op.n == fail_at:
            raise NonConvergence("injected")
        out = real(op, vhat, tol)
        if counts is not None:
            counts.append((op.n, out[3], out[4]))
        return out

    monkeypatch.setattr(cmlab.solver, "_newton_loop", counted)
    return ops


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256, 512])
def test_cold_start_nests_while_n_over_4_is_a_grid(monkeypatch, n):
    # one rule, no tuned threshold: the levels run down to the smallest
    # grid a Field allows, and only that level starts from the default guess
    levels = [n]
    while levels[0] // 4 >= MIN_N:
        levels.insert(0, levels[0] // 4)
    ops = _newton_loops(monkeypatch)
    sol = solve_divisor(((0.3, 0.7),), (-0.5,), n=n)
    assert sol.residual_norm <= 1e-10
    assert [op.n for op in ops] == levels


def test_per_level_counts_of_the_benchmark_divisors(monkeypatch):
    # (grid, Newton steps, CG iterations) of every Newton loop of the
    # fine-solve cone and the two cusp-ladder ladders (seed 0), solved at
    # n = 256: the cold solves nest 256 -> 64 -> 16, and ladder stages 3-10
    # start from the cubic in chi. A change that moves a count on purpose
    # updates these lists and says so
    counts = []
    _newton_loops(monkeypatch, counts=counts)
    solve_divisor(((0.3, 0.7),), (-0.5,), n=256)
    assert counts == [(16, 4, 16), (64, 3, 11), (256, 3, 11)]
    counts.clear()
    run_continuation(cusp_schedule(Divisor(((0.3, 0.7),), (-1.0,)), k_max=10), n=256)
    assert counts == [(16, 4, 16), (64, 3, 11), (256, 3, 11),
                      (16, 4, 22), (64, 4, 18), (256, 4, 17),
                      (256, 4, 24), (256, 3, 19), (256, 3, 15), (256, 2, 12),
                      (256, 2, 10), (256, 2, 9), (256, 2, 7), (256, 1, 6)]
    counts.clear()
    run_continuation(cusp_schedule(Divisor(((0.3, 0.7), (0.7, 0.3)), (-1.0, -1.0)),
                                   k_max=10), n=256)
    assert counts == [(16, 4, 17), (64, 3, 13), (256, 3, 13),
                      (16, 4, 23), (64, 4, 20), (256, 3, 18),
                      (256, 4, 24), (256, 3, 21), (256, 3, 15), (256, 2, 13),
                      (256, 2, 12), (256, 2, 9), (256, 1, 7), (256, 1, 7)]


def test_coarse_start_gives_the_default_start_answer(monkeypatch):
    ops = _newton_loops(monkeypatch)
    split = singular_part(Divisor(((0.3, 0.7),), (-0.5,)), 512)
    spec = CurvatureSpec(-1.0)
    nested = newton_solve(spec, split)
    plain = newton_solve(spec, split, v0=_default_start(spec, split))
    # only the cold start solves on the n/4 grids, down to n = 8, by one
    # Newton loop per level
    assert [op.n for op in ops] == [8, 32, 128, 512, 512]
    assert float(np.abs(nested.v.values - plain.v.values).max()) <= 1e-12
    assert nested.area == pytest.approx(plain.area, rel=1e-14)
    assert nested.newton_iters <= plain.newton_iters
    # 5/5/3 CG per Newton step; 15 when the last step solved to 1e-6 of a
    # right-hand side already at tol
    assert nested.cg_iters <= 13


def test_coarse_start_pads_the_coarse_spectrum(monkeypatch):
    # the start is 16 = (n/m)^2 times the n/4 solution's half spectrum on
    # the modes both grids hold, and zero from the coarse Nyquist row and
    # column on; a start that changes only the cost passes every other test
    n, h = 128, 16
    levels = []
    real = cmlab.solver._newton_loop

    def kept(*args):
        out = real(*args)
        levels.append(out[0])
        return out

    monkeypatch.setattr(cmlab.solver, "_newton_loop", kept)
    split = singular_part(Divisor(((0.3, 0.7),), (-0.5,)), n)
    op = cmlab.solver._operator(CurvatureSpec(-1.0), split)
    vhat = cmlab.solver._coarse_start(op, 1e-10)
    chat = 16.0 * rfft2(levels[-1])
    assert vhat.shape == (n, n // 2 + 1) and chat.shape == (2 * h, h + 1)
    np.testing.assert_array_equal(vhat[:h, :h], chat[:h, :h])
    np.testing.assert_array_equal(vhat[n - h + 1:, :h], chat[h + 1:, :h])
    assert np.abs(chat[h, :h]).min() > 0  # the coarse Nyquist row is not empty
    assert not vhat[h:n - h + 1].any() and not vhat[:, h:].any()


def test_coarse_start_builds_no_coarse_solution(monkeypatch):
    # only v is read off the n/4 level: no area quadrature there
    calls = []
    real = cmlab.solver.metric_area

    def counted(split, v, e2u):
        calls.append(split.n)
        return real(split, v, e2u)

    monkeypatch.setattr(cmlab.solver, "metric_area", counted)
    sol = solve_divisor(((0.3, 0.7),), (-0.5,), n=512)
    assert sol.residual_norm <= 1e-10
    assert calls == [512]


def test_coarse_start_builds_only_the_fine_kernels():
    # the n/4 levels inject the fine S, so a cold solve builds one kernel
    # per atom, on its own grid, and none on the n/4 or n/16 grid
    before = _green_cached.cache_info()
    sol = solve_divisor(((0.3141, 0.5926),), (-0.5,), n=512)
    assert sol.residual_norm <= 1e-10
    assert _green_cached.cache_info().misses - before.misses == 1


def test_coarse_start_nests_an_atom_the_coarse_on_node_test_refuses(monkeypatch):
    # 2e-8 of a fine cell off a node passes the n = 512 on-node test (1e-8),
    # but it is 5e-9 of a cell at n = 128, where singular_part refuses it.
    # The n/4 level injects the fine S, so the solve nests all the same.
    # This atom sits on F's round-off floor: W reaches 2.4e5 at that node,
    # where -Delta v and K e^{2u} nearly cancel. The default-guess solve
    # ends at 9.24e-11 against tol = 1e-10 (5 Newton steps, 24 CG), a margin
    # of 8%, and the nested one at 8.22e-11 (6 and 26). Any change to CG's
    # rounding can tip either into NonConvergence (reductions through
    # einsum end the default-guess solve at 1.11e-10), so it is a sentinel
    # for that arithmetic: a failure here means CG's rounding moved, not
    # that the test is too strict
    n = 512
    div = Divisor(((128 / n + 2e-8 / n, 0.75),), (-0.5,))
    split = singular_part(div, n)
    with pytest.raises(ValueError):
        singular_part(div, n // 4)
    ops = _newton_loops(monkeypatch)
    spec = CurvatureSpec(-1.0)
    plain = newton_solve(spec, split, v0=_default_start(spec, split))
    assert (plain.newton_iters, plain.cg_iters) == (5, 24)
    assert plain.residual_norm == pytest.approx(9.24e-11, rel=1e-3)
    sol = newton_solve(spec, split)
    assert [op.n for op in ops] == [512, 8, 32, 128, 512]
    assert (sol.newton_iters, sol.cg_iters) == (6, 26)
    assert sol.residual_norm == pytest.approx(8.22e-11, rel=1e-3)
    assert float(np.abs(sol.v.values - plain.v.values).max()) <= 1e-12
    assert sol.area == pytest.approx(plain.area, rel=1e-14)


def test_coarse_start_falls_back_when_the_coarse_newton_does_not_converge(monkeypatch):
    ops = _newton_loops(monkeypatch, fail_at=128)
    split = singular_part(Divisor(((0.3, 0.7),), (-0.5,)), 512)
    spec = CurvatureSpec(-1.0)
    sol = newton_solve(spec, split)
    plain = newton_solve(spec, split, v0=_default_start(spec, split))
    assert [op.n for op in ops] == [8, 32, 128, 512, 512]
    assert (sol.newton_iters, sol.cg_iters) == (plain.newton_iters, plain.cg_iters)
    np.testing.assert_array_equal(sol.v.values, plain.v.values)


def test_coarse_start_with_variable_curvature_and_forcing(monkeypatch):
    # S (each of its kernels), Field curvature and forcing reach the n/4
    # grid by injection
    n = 512
    k = sample(lambda x, y: -1.0 - 0.5 * np.cos(TAU * x) * np.sin(TAU * y), n)
    split = singular_part(Divisor(((0.3, 0.7),), (-0.5,)), n)
    v_exact = sample(lambda x, y: 0.3 * np.sin(TAU * x) * np.cos(TAU * y), n)
    spec = CurvatureSpec(k, forcing=residual(v_exact, CurvatureSpec(k), split))
    ops = _newton_loops(monkeypatch)
    sol = newton_solve(spec, split)
    assert [op.n for op in ops] == [8, 32, 128, 512]
    fine = ops[-1]
    for level, step in zip(ops, (64, 16, 4)):
        np.testing.assert_array_equal(level.S(), fine.S()[::step, ::step])
        for name in ("K", "rho"):
            np.testing.assert_array_equal(getattr(level, name),
                                          getattr(fine, name)[::step, ::step])
        assert level.const == fine.const
    assert sol.residual_norm <= 1e-10
    # the coarse solve of the injected problem starts inside the fine
    # quadratic basin (1 step measured); a transposed or shifted injection
    # measured 5 and 3 steps, the default guess 6
    assert sol.newton_iters <= 2
    # the n/4 problem is the fine one restricted, so v_exact solves it too
    # and the fine level starts next to it: 3 CG and 5.0e-16 measured
    assert sol.cg_iters <= 4
    assert float(np.abs(sol.v.values - v_exact.values).max()) <= 1e-14
    plain = newton_solve(spec, split, v0=_default_start(spec, split))
    assert sol.area == pytest.approx(plain.area, rel=1e-12)


def test_a_given_start_solves_on_the_fine_grid_alone(monkeypatch):
    # a start the caller gives, however far from the answer, begins on the
    # fine grid, or criterion 3's far starts test less: only the cold start
    # nests through the n/4 grids
    split = singular_part(Divisor(((0.3, 0.7),), (-0.5,)), 64)
    ops = _newton_loops(monkeypatch)
    sol = newton_solve(CurvatureSpec(-1.0), split,
                       v0=random_smooth_field(64, np.random.default_rng(3)))
    assert [op.n for op in ops] == [64]
    assert sol.residual_norm <= 1e-10


def test_far_starts_reach_one_solution():
    # criterion 3 at n = 64: far starts and the cold start end within
    # round-off of one another
    split = singular_part(Divisor(((0.3, 0.7),), (-0.5,)), 64)
    rng = np.random.default_rng(3)
    sols = [newton_solve(CurvatureSpec(-1.0), split),
            *(newton_solve(CurvatureSpec(-1.0), split, v0=random_smooth_field(64, rng))
              for _ in range(2))]
    assert all(s.residual_norm <= 1e-10 for s in sols)
    for s in sols[1:]:
        assert float(np.abs(s.v.values - sols[0].v.values).max()) < 1e-8


def test_a_loose_solve_lies_within_its_monotonicity_bound():
    # with K = -1, <F(v) - F(v*), v - v*> >= m |v - v*|^2 on the grid, where
    # m = min 2 min(e^{2u}, e^{2u*}) (-Delta is positive semidefinite and
    # e^{2u} is monotone), so rms(v - v*) <= (rms F(v) + rms F(v*)) / m: the
    # bound criterion 3 reads off a converged solve, here on solves from far
    # starts stopped at tol 1e-3, which end 4e-9 to 1e-8 from v*
    spec = CurvatureSpec(-1.0)
    split = singular_part(Divisor(((0.3, 0.7),), (-0.5,)), 64)
    star = newton_solve(spec, split)
    rms = lambda a: float(np.sqrt(np.mean(np.square(a))))
    f_star = rms(residual(star.v, spec, split).values)
    rng = np.random.default_rng(5)
    for _ in range(3):
        loose = newton_solve(spec, split, v0=random_smooth_field(64, rng), tol=1e-3)
        assert loose.residual_norm <= 1e-3
        u = split.S.values + loose.v.values
        m = float((2.0 * np.exp(2.0 * np.minimum(u, star.u_values))).min())
        dist = rms(loose.v.values - star.v.values)
        assert dist > 0.0
        assert dist <= (rms(residual(loose.v, spec, split).values) + f_star) / m
