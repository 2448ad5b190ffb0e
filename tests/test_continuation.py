"""Weight continuation toward cusps and concentration scans."""

import dataclasses
import math

import numpy as np
import pytest

import cmlab.continuation
import cmlab.grids
from cmlab.continuation import (
    ContinuationSchedule,
    _extrapolated_start,
    cusp_schedule,
    no_bubble_scan,
    run_continuation,
)
from cmlab.errors import InfeasibleTopology, NonConvergence, StageFailure
from cmlab.green import singular_part
from cmlab.grids import TAU, Field, constant, sample
from cmlab.measures import Divisor
from cmlab.models import cap_profile
from cmlab.solver import CurvatureSpec, Solution, newton_solve, solve_divisor
from oracles import cap_disk_area, convolution_scan, direct_scan, random_smooth_field


def test_cusp_schedule_weights():
    target = Divisor(((0.3, 0.7),), (-1.0,))
    sched = cusp_schedule(target, k_max=5)
    assert len(sched.steps) == 5
    for k, step in enumerate(sched.steps, start=1):
        assert step == Divisor(target.points, (-1.0 + 2.0 ** -k,))
    mixed = Divisor(((0.3, 0.7), (0.1, 0.2)), (-1.0, -0.5))
    sm = cusp_schedule(mixed, k_max=3)
    for step in sm.steps:
        assert step.betas[1] == -0.5  # conical atoms keep their weight
    conical = Divisor(((0.3, 0.7),), (-0.5,))
    assert cusp_schedule(conical).steps == (conical,)
    assert len(cusp_schedule(conical, k_max=0).steps) == 1  # no cusp: k_max unused
    # -1 + 2^-53 is the last double strictly above -1
    assert cusp_schedule(target, k_max=53).steps[-1].betas[0] > -1.0
    for k_max in (0, -1, 54, 60):
        with pytest.raises(ValueError, match=rf"k_max = {k_max} is outside 1\.\.53"):
            cusp_schedule(target, k_max=k_max)
    # 0 used to raise ZeroDivisionError, nan and inf a complaint about lam
    for c in (0.0, 1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="curvature must be finite and negative"):
            cusp_schedule(target, curvature=c)


def test_schedule_validation():
    target = Divisor(((0.3, 0.7),), (-0.5,))

    def stages(*betas):
        return tuple(Divisor(target.points, (b,)) for b in betas)

    assert ContinuationSchedule(target, stages(-0.25, -0.5), -1.0).steps == stages(-0.25, -0.5)
    with pytest.raises(ValueError, match="at least one step"):
        ContinuationSchedule(target, (), -1.0)
    with pytest.raises(ValueError, match="stage points must be the target's"):
        ContinuationSchedule(target, (Divisor(((0.3, 0.7), (0.1, 0.2)), (-0.5, -0.5)),),
                             -1.0)
    with pytest.raises(ValueError, match="stage points must be the target's"):
        ContinuationSchedule(target, (Divisor(((0.7, 0.3),), (-0.5,)),), -1.0)
    with pytest.raises(ValueError, match="strictly above -1"):
        ContinuationSchedule(target, stages(-1.0), -1.0)
    with pytest.raises(ValueError, match="undershoot"):
        ContinuationSchedule(target, stages(-0.75), -1.0)
    # increasing, standing still, and lowering chi while raising a weight
    two = Divisor(((0.3, 0.7), (0.7, 0.3)), (-1.0, -1.0))
    for goal, steps in ((target, stages(-0.25, -0.1)), (target, stages(-0.5, -0.5)),
                        (two, (Divisor(two.points, (-0.25, -0.25)),
                               Divisor(two.points, (-0.875, 0.125))))):
        with pytest.raises(ValueError, match="each stage must lower chi and raise no weight"):
            ContinuationSchedule(goal, steps, -1.0)


def test_schedules_without_lam_still_check_the_sign():
    # a Field curvature is held to sup K < 0 when the schedule is built
    target = Divisor(((0.3, 0.7),), (-1.0,))
    k = sample(lambda x, y: -0.5 + np.cos(TAU * x), 32)
    for field in (k, constant(0.0, 32)):
        with pytest.raises(ValueError, match="curvature must be finite and negative"):
            ContinuationSchedule(target, (Divisor(target.points, (-0.5,)),), field)


def test_single_stage_matches_direct_solve():
    res = run_continuation(cusp_schedule(Divisor(((0.3, 0.7),), (-0.5,))), n=64)
    direct = solve_divisor(((0.3, 0.7),), (-0.5,), n=64)
    np.testing.assert_allclose(res.final.v.values, direct.v.values, atol=1e-9)
    assert res.extrapolated_area == res.stages[0].area


def test_continuation_stage_ladder():
    target = Divisor(((0.3, 0.7),), (-1.0,))
    res = run_continuation(cusp_schedule(target, k_max=4), n=128)
    assert len(res.stages) == 4
    areas = res.areas
    assert all(b > a for a, b in zip(areas, areas[1:]))
    for k, st in enumerate(res.stages, start=1):
        assert st.k == k
        assert st.chi == pytest.approx(-1.0 + 2.0 ** -k)
        assert st.area == pytest.approx(TAU * (1.0 - 2.0 ** -k), rel=1e-2)
        assert st.gb_defect <= 1e-9
        assert st.residual_norm <= 1e-10
        assert st.max_local_mass < 1.0
    # 2 a_4 - a_3 cancels the 2^{-k} tail of the constant-curvature ladder
    assert res.extrapolated_area == pytest.approx(TAU, rel=1e-3)


def _cold_solves(sched, n):
    """Each stage solved alone by newton_solve, given no start."""
    return [newton_solve(CurvatureSpec(sched.curvature), singular_part(step, n))
            for step in sched.steps]


def test_warm_and_cold_starts_agree():
    target = Divisor(((0.3, 0.7),), (-1.0,))
    sched = cusp_schedule(target, k_max=5)
    warm = run_continuation(sched, n=64)
    cold = _cold_solves(sched, 64)
    assert float(np.abs(warm.final.v.values - cold[-1].v.values).max()) < 1e-8
    # stages 1 and 2 start cold, stage 3 from the secant through them,
    # stage 4 from the quadratic and stage 5 from the cubic
    np.testing.assert_allclose(warm.areas, [s.area for s in cold], rtol=1e-8)


def test_extrapolated_start():
    # the Lagrange polynomial through four stages reproduces a field cubic
    # in chi to round-off
    rng = np.random.default_rng(1)
    coef = rng.standard_normal((4, 8, 8))

    def v(chi):
        return coef[0] + chi * (coef[1] + chi * (coef[2] + chi * coef[3]))

    chis = [-1.0 + 2.0 ** -k for k in range(1, 6)]
    solved = [(c, Field(v(c))) for c in chis[:4]]
    np.testing.assert_allclose(_extrapolated_start(solved, chis[4]).values, v(chis[4]),
                               rtol=0, atol=1e-13)
    # fewer than two earlier stages: a cold start
    assert _extrapolated_start([], chis[4]) is None
    assert _extrapolated_start(solved[-1:], chis[4]) is None


def test_ladder_cg_budget():
    # 299 CG iterations with a sqrt(min W max W) shift, 136 with the mean(W)
    # shift, 121 with the secant start as well, 114 (17/24/23/18/17/15)
    # once CG stops at tol/2, 106 (17/25/23/18/12/11) with the cubic
    # predictor, 93 (11/18/23/18/12/11) once the two cold stages nest
    # from n = 16, and 84 (11/17/19/17/11/9) with the shift at the median
    # of W on the n/4 sublattice: the budget fails if the shift leaves the
    # bulk of W, CG oversolves again, the predictor falls back to a lower
    # order or a cold stage stops nesting
    res = run_continuation(cusp_schedule(Divisor(((0.3, 0.7),), (-1.0,)), k_max=6),
                           n=64)
    assert all(st.cg_iters > 0 for st in res.stages)
    assert sum(st.cg_iters for st in res.stages) <= 84


def test_ladder_cg_budget_with_nested_cold_starts():
    # at n = 128 the two cold stages start from the n/4 solve and the rest
    # from the cubic: 112 CG iterations (12/17/19/17/12/10/8/7/5/5), 123
    # with the mean(W) shift, where cold default starts and the secant took
    # 159
    res = run_continuation(cusp_schedule(Divisor(((0.3, 0.7),), (-1.0,)), k_max=10),
                           n=128)
    assert sum(st.cg_iters for st in res.stages) <= 115


def test_stage_envelope_holds_off_node_at_fine_grid():
    # the atom is 0.1 cell from node (154, 359) at n=512, where the ring
    # correction moves the stage-1 area by -1.2e-3 relative; the grid mean,
    # which the discrete Gauss-Bonnet identity fixes, stays on 2 pi |chi|
    target = Divisor(((0.3009765625, 0.7009765625),), (-1.0,))
    res = run_continuation(cusp_schedule(target, k_max=2), n=512)
    assert [s.k for s in res.stages] == [1, 2]
    for s in res.stages:
        assert s.area == pytest.approx(TAU * (1.0 - 2.0 ** -s.k), rel=1e-2)
    assert res.final.grid_area == pytest.approx(TAU * 0.75, rel=1e-9)


def test_continuation_infeasible_target():
    target = Divisor(((0.3, 0.7),), (0.5,))
    with pytest.raises(InfeasibleTopology):
        run_continuation(cusp_schedule(target), n=64)


@pytest.mark.parametrize("n", [0, -8, 4, 12])
def test_a_grid_that_is_no_power_of_two_is_refused_first(n):
    # the scan centers are read off the grid, so the grid is checked before
    # them; 4 and 12 used to fail inside stage 1, 0 and -8 on a node test
    # and an array size
    target = Divisor(((0.3, 0.7),), (-1.0,))
    with pytest.raises(ValueError, match=f"grid resolution must be a power of two >= 8, got {n}"):
        run_continuation(cusp_schedule(target, k_max=2), n=n)


def test_stage_failure_carries_stage_index():
    sched = cusp_schedule(Divisor(((0.3, 0.7),), (-0.5,)))
    with pytest.raises(StageFailure) as exc:
        run_continuation(sched, n=64, tol=1e-16)  # unreachable tolerance
    assert exc.value.stage == 1


def test_stage_failure_keeps_the_completed_stages(monkeypatch):
    solves = []

    def failing(*args, **kwargs):
        solves.append(None)
        if len(solves) == 3:
            raise NonConvergence("injected")
        return newton_solve(*args, **kwargs)

    monkeypatch.setattr(cmlab.continuation, "newton_solve", failing)
    target = Divisor(((0.3, 0.7),), (-1.0,))
    with pytest.raises(StageFailure, match="stage 3 failed: injected") as exc:
        run_continuation(cusp_schedule(target, k_max=4), n=32)
    assert exc.value.stage == 3
    assert [r.k for r in exc.value.reports] == [1, 2]
    assert exc.value.reports[1].chi == -0.75


@pytest.mark.parametrize("field, value, message", [
    ("gb_defect", 1.0, "conservation defect"),
])
def test_stage_checks_raise_at_their_stage(monkeypatch, field, value, message):
    # a stage Solution that breaks Gauss-Bonnet stops the run at that stage
    solves = []

    def tampered(*args, **kwargs):
        solves.append(newton_solve(*args, **kwargs))
        sol = solves[-1]
        return dataclasses.replace(sol, **{field: value}) if len(solves) == 2 else sol

    monkeypatch.setattr(cmlab.continuation, "newton_solve", tampered)
    target = Divisor(((0.3, 0.7),), (-1.0,))
    with pytest.raises(StageFailure, match=message) as exc:
        run_continuation(cusp_schedule(target, k_max=3), n=32)
    assert exc.value.stage == 2
    assert [r.k for r in exc.value.reports] == [1]


def _unsolved(div: Divisor, curvature: float | Field, v: Field) -> Solution:
    """A Solution holding `v` as given, for scans of a chosen field."""
    return Solution(split=singular_part(div, v.n), spec=CurvatureSpec(curvature), v=v,
                    residual_norm=0.0, area=0.0, gb_defect=0.0, newton_iters=0,
                    cg_iters=0, cg_capped=0, grid_area=0.0, rings_rejected=0,
                    rings_overlapping=0)


def test_no_bubble_scan_flags_concentration():
    # a lam = 0.05 spherical bump inside a 1/8 disk carries curvature mass
    # 4 pi r^2 / (lam^2 + r^2), far above the threshold
    lam = 0.05
    cap = sample(cap_profile(lam, center=(0.5, 0.5)), 256)
    rep = no_bubble_scan(_unsolved(Divisor((), ()), 1.0, cap), radii=(0.125,))
    want = cap_disk_area(lam, 0.125)
    assert rep.max_mass == pytest.approx(want, rel=2e-2)
    assert rep.flags
    assert any(c == (0.5, 0.5) for c, _, _ in rep.flags)
    assert rep.centers_scanned == 256  # all 16 x 16 centers, no atoms to skip


def test_no_bubble_scan_clean_solution():
    sol = solve_divisor(((0.3, 0.7),), (-0.5,), n=128)
    rep = no_bubble_scan(sol, radii=(1.0 / 16.0, 1.0 / 8.0))
    assert rep.flags == ()
    assert rep.max_mass < 1.0
    assert rep.max_area < rep.max_mass + 1e-12  # |K| = 1 makes them equal
    for r in (0.0, -0.1, 0.5, math.nan):
        with pytest.raises(ValueError, match=r"outside \(0, 1/2\)"):
            no_bubble_scan(sol, radii=(1.0 / 16.0, r))
    for t in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="threshold must satisfy"):
            no_bubble_scan(sol, radii=(1.0 / 16.0,), threshold=t)


def test_no_bubble_scan_needs_a_center():
    # at r = 0.3 every center lies within r + 8/n of one of the four atoms
    pts = ((0.01, 0.01), (0.51, 0.01), (0.01, 0.51), (0.51, 0.51))
    sol = _unsolved(Divisor(pts, (-0.5,) * 4), -1.0, constant(0.0, 64))
    with pytest.raises(ValueError, match="atoms exclude every scan center at radius 0.3"):
        no_bubble_scan(sol, radii=(0.3,))


@pytest.mark.parametrize("n, atoms, radii", [
    (8, (), (1.0 / 8.0, 1.0 / 4.0, 0.3)),
    (32, ((0.999, 0.001),), (1.0 / 16.0, 1.0 / 8.0, 0.1)),
    (256, ((0.999, 0.001), (0.5003, 0.2501)), (1.0 / 16.0, 1.0 / 32.0, 0.1)),
])
def test_no_bubble_scan_matches_the_convolution(n, atoms, radii):
    # direct disk sums against the spectral convolution they replaced, on a
    # variable K with atoms across both seams; radii with r n an integer put
    # nodes exactly on the rim. Centers and flags agree, masses and areas to
    # 4 ulp (the convolution's own rounding)
    rng = np.random.default_rng(n)
    K = Field(-1.0 - rng.random((n, n)))
    sol = _unsolved(Divisor(atoms, (-0.5,) * len(atoms)), K, random_smooth_field(n, rng))
    threshold = 0.5 * convolution_scan(sol, radii).max_mass
    got = no_bubble_scan(sol, radii, threshold=threshold)
    want = convolution_scan(sol, radii, threshold=threshold)
    assert got.radii == want.radii
    assert got.centers_scanned == want.centers_scanned
    assert [f[:2] for f in got.flags] == [f[:2] for f in want.flags]
    assert want.flags
    np.testing.assert_array_max_ulp(
        np.array([got.max_mass, got.max_area] + [f[2] for f in got.flags]),
        np.array([want.max_mass, want.max_area] + [f[2] for f in want.flags]), maxulp=4)


@pytest.mark.parametrize("n, atoms, radii", [
    (8, (), (1.0 / 8.0, 1.0 / 4.0, 0.3)),
    (32, ((0.999, 0.001),), (1.0 / 16.0, 1.0 / 8.0, 0.1)),
    (256, ((0.999, 0.001), (0.5003, 0.2501)), (1.0 / 16.0, 1.0 / 32.0, 0.1, 0.2)),
])
def test_no_bubble_scan_matches_the_direct_sums(n, atoms, radii):
    # the column partial sums against the per-center masked window sums they
    # replaced, on a variable K with atoms across both seams; radii with r n
    # an integer put nodes exactly on the rim. A tiny threshold flags every
    # kept center, so every disk's mass is compared: the same centers, and
    # every mass and the largest area to 4 ulp (3 measured)
    rng = np.random.default_rng(n)
    K = Field(-1.0 - rng.random((n, n)))
    sol = _unsolved(Divisor(atoms, (-0.5,) * len(atoms)), K, random_smooth_field(n, rng))
    got = no_bubble_scan(sol, radii, threshold=1e-300)
    want = direct_scan(sol, radii, threshold=1e-300)
    assert got.radii == want.radii
    assert got.centers_scanned == want.centers_scanned == len(want.flags)
    assert [f[:2] for f in got.flags] == [f[:2] for f in want.flags]
    np.testing.assert_array_max_ulp(
        np.array([got.max_mass, got.max_area] + [f[2] for f in got.flags]),
        np.array([want.max_mass, want.max_area] + [f[2] for f in want.flags]), maxulp=4)


def test_no_bubble_scan_makes_no_transform(monkeypatch):
    # the scan sums the disks it reports: no spectrum of the densities or of
    # a disk indicator
    sol = solve_divisor(((0.3, 0.7),), (-0.5,), n=64)

    def refuse(*args, **kwargs):
        raise AssertionError("no_bubble_scan made a transform")

    # continuation binds no transform of its own; every one is grids'
    for name in ("rfft2", "irfft2"):
        assert not hasattr(cmlab.continuation, name)
        monkeypatch.setattr(cmlab.grids, name, refuse)
    rep = no_bubble_scan(sol, radii=(1.0 / 16.0, 1.0 / 32.0))
    assert rep.centers_scanned > 0
    assert rep.max_mass < 1.0
