"""Weight continuation toward cusps, mollification, concentration scans."""

import math

import numpy as np
import pytest

from cmlab.continuation import (
    ContinuationSchedule,
    ScheduleStep,
    cusp_schedule,
    mollify_curvature,
    no_bubble_scan,
    run_continuation,
)
from cmlab.errors import InfeasibleTopology, StageFailure
from cmlab.green import singular_part
from cmlab.grids import TAU, DiskChart, Field, TorusChart, constant, sample
from cmlab.measures import Divisor
from cmlab.models import cap_disk_area, cap_profile
from cmlab.solver import CurvatureSpec, Solution, newton_solve, solve_divisor


def test_cusp_schedule_weights():
    target = Divisor(((0.3, 0.7),), (-1.0,))
    sched = cusp_schedule(target, k_max=5)
    assert len(sched.steps) == 5
    for k, step in enumerate(sched.steps, start=1):
        assert step.betas == (pytest.approx(-1.0 + 2.0 ** -k),)
    mixed = Divisor(((0.3, 0.7), (0.1, 0.2)), (-1.0, -0.5))
    sm = cusp_schedule(mixed, k_max=3)
    for step in sm.steps:
        assert step.betas[1] == -0.5  # conical atoms keep their weight
    conical = Divisor(((0.3, 0.7),), (-0.5,))
    assert len(cusp_schedule(conical).steps) == 1


def test_schedule_validation():
    target = Divisor(((0.3, 0.7),), (-0.5,))
    with pytest.raises(ValueError):
        ContinuationSchedule(target, ())
    with pytest.raises(ValueError):
        ContinuationSchedule(target, (ScheduleStep((-0.5, -0.5), -1.0),))
    with pytest.raises(ValueError):
        ContinuationSchedule(target, (ScheduleStep((-1.0,), -1.0),))
    with pytest.raises(ValueError):
        ContinuationSchedule(target, (ScheduleStep((-0.75,), -1.0),))  # undershoot
    with pytest.raises(ValueError):
        ContinuationSchedule(target, (ScheduleStep((-0.75 + 0.5,), -1.0),
                                      ScheduleStep((-0.1,), -1.0)))  # increasing
    with pytest.raises(ValueError):
        ContinuationSchedule(target, (ScheduleStep((-0.5,), -2.0),), lam=1.0)
    # lam describes the bounds [-lam, -1/lam] only when 1 <= lam < inf
    for lam in (0.0, 0.5, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="lam"):
            ContinuationSchedule(target, (ScheduleStep((-0.5,), -1.0),), lam=lam)


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
    """Each stage solved alone by newton_solve from the default guess."""
    return [newton_solve(CurvatureSpec(step.curvature),
                         singular_part(Divisor(sched.target.points, step.betas), n))
            for step in sched.steps]


def test_warm_and_cold_starts_agree():
    target = Divisor(((0.3, 0.7),), (-1.0,))
    sched = cusp_schedule(target, k_max=3)
    warm = run_continuation(sched, n=64)
    cold = _cold_solves(sched, 64)
    assert float(np.abs(warm.final.v.values - cold[-1].v.values).max()) < 1e-8
    # stage 3 starts from the secant prediction through stages 1 and 2
    np.testing.assert_allclose(warm.areas, [s.area for s in cold], rtol=1e-8)


def test_secant_start_when_weights_stand_still():
    # stage 3 follows two stages with equal weights, so its secant has no
    # slope in chi and it starts from stage 2 alone
    target = Divisor(((0.3, 0.7),), (-0.75,))
    steps = (ScheduleStep((-0.5,), -1.0), ScheduleStep((-0.5,), -1.5),
             ScheduleStep((-0.75,), -1.5))
    sched = ContinuationSchedule(target, steps, lam=2.0)
    warm = run_continuation(sched, n=32)
    cold = _cold_solves(sched, 32)
    np.testing.assert_allclose(warm.areas, [s.area for s in cold], rtol=1e-8)


def test_ladder_cg_budget():
    # 299 CG iterations with a sqrt(min W max W) shift, 136 with the mean(W)
    # shift and 121 with the secant start as well: the budget fails if the
    # preconditioner stops matching the Jacobian on the constant mode
    res = run_continuation(cusp_schedule(Divisor(((0.3, 0.7),), (-1.0,)), k_max=6),
                           n=64)
    assert all(st.cg_iters > 0 for st in res.stages)
    assert sum(st.cg_iters for st in res.stages) <= 180


def test_stage_envelope_holds_off_node_at_fine_grid():
    # the atom is 0.1 cell from node (154, 359) at n=512, where the ring
    # correction moves the stage-1 area by -1.2e-3 relative, more than the
    # envelope slack; the envelope is tested on the grid mean, which the
    # discrete Gauss-Bonnet identity fixes
    target = Divisor(((0.3009765625, 0.7009765625),), (-1.0,))
    res = run_continuation(cusp_schedule(target, k_max=2), n=512)
    assert [s.k for s in res.stages] == [1, 2]
    for s in res.stages:
        assert s.area == pytest.approx(TAU * (1.0 - 2.0 ** -s.k), rel=1e-2)
    assert res.final.area_parts.grid_area == pytest.approx(TAU * 0.75, rel=1e-9)


def test_continuation_infeasible_target():
    target = Divisor(((0.3, 0.7),), (0.5,))
    with pytest.raises(InfeasibleTopology):
        run_continuation(cusp_schedule(target), n=64)


def test_stage_failure_carries_stage_index():
    sched = cusp_schedule(Divisor(((0.3, 0.7),), (-0.5,)))
    with pytest.raises(StageFailure) as exc:
        run_continuation(sched, n=64, tol=1e-16)  # unreachable tolerance
    assert exc.value.stage == 1


def test_mollify_curvature():
    n = 128
    const = constant(-1.0, TorusChart(), n)
    out = mollify_curvature(const, 3, 2.0)
    np.testing.assert_allclose(out.values, -1.0, atol=1e-13)

    K = sample(lambda x, y: -1.0 + 0.4 * np.cos(TAU * x) * np.cos(TAU * y),
               TorusChart(), n)
    dists = []
    for k in range(2, 7):
        m = mollify_curvature(K, k, 2.0)
        assert m.values.min() >= -2.0 and m.values.max() <= -0.5
        dists.append(float(np.abs(m.values - K.values).mean()))
    assert all(b < a for a, b in zip(dists, dists[1:]))
    # heat time 4^{-k} gives an asymptotic quartering per step
    assert dists[-1] / dists[-2] < 0.35 and dists[-2] / dists[-3] < 0.35

    bad = constant(-3.0, TorusChart(), n)
    with pytest.raises(ValueError):
        mollify_curvature(bad, 3, 2.0)
    with pytest.raises(ValueError):
        mollify_curvature(constant(-1.0, DiskChart(1.0), 32), 3, 2.0)
    for lam in (0.0, 0.5, math.inf):
        with pytest.raises(ValueError, match="lam"):
            mollify_curvature(const, 3, lam)


def _unsolved(div: Divisor, curvature: float, v: Field) -> Solution:
    """A Solution holding `v` as given, for scans of a chosen field."""
    return Solution(split=singular_part(div, v.n), spec=CurvatureSpec(curvature), v=v,
                    residual_norm=0.0, area=0.0, gb_defect=0.0, newton_iters=0,
                    cg_iters=0, cg_capped=0, area_parts=None)


def test_no_bubble_scan_flags_concentration():
    # a lam = 0.05 spherical bump inside a 1/8 disk carries curvature mass
    # 4 pi r^2 / (lam^2 + r^2), far above the threshold
    lam = 0.05
    cap = sample(cap_profile(lam, center=(0.5, 0.5)), TorusChart(), 256)
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


def test_no_bubble_scan_needs_a_center():
    # at r = 0.3 every center lies within r + 8/n of one of the four atoms
    pts = ((0.01, 0.01), (0.51, 0.01), (0.01, 0.51), (0.51, 0.51))
    sol = _unsolved(Divisor(pts, (-0.5,) * 4), -1.0, constant(0.0, TorusChart(), 64))
    with pytest.raises(ValueError, match="atoms exclude every scan center at radius 0.3"):
        no_bubble_scan(sol, radii=(0.3,))
