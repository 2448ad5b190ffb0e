"""Cusp metrics as limits of cone metrics: continuation in the weights.

A cusp (beta = -1) has a non-grid-integrable conformal factor, so it is
never solved directly. Instead a schedule of strictly conical stages
beta^k > -1 descends toward the target divisor, each stage at its own
curvature. The remainder v moves smoothly with the weights, so each stage
from the third on starts its Newton solve from the cubic in chi through
the four stages before it (fewer while fewer are solved; Allgower &
Georg, Numerical Continuation Methods, 1990). On the
n = 256 one-cusp ladder of ten stages this takes 130 CG iterations where
the secant through two stages took 172. The first two stages start cold,
from the solver's own start, the nested n/4 solve; stage 1 alone is a
worse start for stage 2 (26 CG iterations against 17 at n = 256, 24
against 18 at n = 64, where the default guess takes 25). A stage at
the last stage's chi starts from that stage. Stage areas converge
geometrically for constant curvature, and the limit is reported as the
final-stage field plus a Richardson extrapolation of the areas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleTopology, StageFailure
from .green import singular_part
from .grids import Field, torus_distance
from .measures import Divisor, euler_characteristic
from .solver import CurvatureSpec, Solution, check_curvature_bounds, newton_solve


@dataclass(frozen=True)
class ScheduleStep:
    betas: tuple
    curvature: float | Field


@dataclass(frozen=True)
class ContinuationSchedule:
    """Stages (beta^k, phi_k) descending to a target divisor.

    Weights must stay strictly above -1, be non-increasing in k, and
    never undershoot the target; every stage curvature must be finite and
    negative (`check_curvature_bounds`).
    """

    target: Divisor
    steps: tuple

    def __post_init__(self):
        steps = tuple(self.steps)
        if not steps:
            raise ValueError("schedule needs at least one step")
        m = len(self.target)
        prev = None
        for step in steps:
            if len(step.betas) != m:
                raise ValueError("stage weight count does not match the divisor")
            for b, bt in zip(step.betas, self.target.betas):
                if not b > -1.0:
                    raise ValueError("stage weights must stay strictly above -1")
                if b < bt - 1e-12:
                    raise ValueError("stage weights must not undershoot the target")
            if prev is not None and any(b > pb + 1e-12 for b, pb in zip(step.betas, prev)):
                raise ValueError("stage weights must be non-increasing")
            prev = step.betas
            check_curvature_bounds(step.curvature)
        object.__setattr__(self, "steps", steps)


def cusp_schedule(target: Divisor, k_max: int = 10,
                  curvature: float | Field = -1.0) -> ContinuationSchedule:
    """Default schedule: beta^k = -1 + 2^{-k} for each cusp atom.

    Strictly conical atoms keep their target weight; with no cusp atoms
    the schedule degenerates to a single direct stage. With a cusp atom
    `k_max` must lie in 1..53: -1 + 2^{-k} rounds to -1 beyond k = 53.
    """
    if not any(b == -1.0 for b in target.betas):
        return ContinuationSchedule(target, (ScheduleStep(target.betas, curvature),))
    if not 1 <= k_max <= 53:
        raise ValueError(f"k_max = {k_max} is outside 1..53: the stage weight "
                         "-1 + 2^-k_max must be a double strictly above -1")
    steps = []
    for k in range(1, k_max + 1):
        betas = tuple(-1.0 + 2.0 ** -k if b == -1.0 else b for b in target.betas)
        steps.append(ScheduleStep(betas, curvature))
    return ContinuationSchedule(target, tuple(steps))


@dataclass(frozen=True)
class StageReport:
    k: int
    betas: tuple
    chi: float
    area: float
    gb_defect: float
    max_local_mass: float
    solve_iters: int
    cg_iters: int
    cg_capped: int
    rings_rejected: int
    rings_overlapping: int
    residual_norm: float


@dataclass(frozen=True)
class ContinuationResult:
    stages: tuple
    final: Solution
    extrapolated_area: float

    @property
    def areas(self) -> tuple:
        return tuple(s.area for s in self.stages)


def run_continuation(sched: ContinuationSchedule, n: int = 256,
                     tol: float = 1e-10, scan_radius: float = 1.0 / 16.0) -> ContinuationResult:
    """Solve every stage, each started by `_extrapolated_start` from the
    last four stages, with conservation checks per stage.

    Each stage records its area, Gauss-Bonnet defect, iteration counts and
    the largest curvature mass over scanned disks away from the atoms.
    The defect must stay below 10 * tol; at constant K that pins the grid
    area to within 10 tol / |K| of 2 pi |chi| / |K|.
    The extrapolated area removes the leading 2^{-k} term from the tail.
    A StageFailure carries the reports of the stages completed before it.
    """
    check_scan((scan_radius,))
    chi_target = euler_characteristic(sched.target)
    if chi_target >= 0.0:
        raise InfeasibleTopology(
            f"chi(torus, target beta) = {chi_target:g} >= 0: no continuation target")
    reports = []
    solved = []  # (chi, v) of the last four stages, for the start
    sol = None
    for k, step in enumerate(sched.steps, start=1):
        div_k = Divisor(sched.target.points, step.betas)
        chi_k = euler_characteristic(div_k)
        split = singular_part(div_k, n)
        try:
            sol = newton_solve(CurvatureSpec(step.curvature), split,
                               v0=_extrapolated_start(solved, chi_k), tol=tol)
        except Exception as exc:
            raise StageFailure(f"stage {k} failed: {exc}", stage=k,
                               reports=reports) from exc
        solved = solved[-3:] + [(chi_k, sol.v)]
        if sol.gb_defect > 10.0 * tol:
            raise StageFailure(
                f"stage {k}: conservation defect {sol.gb_defect:.3e} > 10 tol",
                stage=k, reports=reports)
        scan = no_bubble_scan(sol, radii=(scan_radius,))
        reports.append(StageReport(
            k=k, betas=step.betas, chi=chi_k, area=sol.area,
            gb_defect=sol.gb_defect, max_local_mass=scan.max_mass,
            solve_iters=sol.newton_iters, cg_iters=sol.cg_iters,
            cg_capped=sol.cg_capped, rings_rejected=sol.rings_rejected,
            rings_overlapping=sol.rings_overlapping, residual_norm=sol.residual_norm))
    if len(reports) >= 2:
        extrap = 2.0 * reports[-1].area - reports[-2].area
    else:
        extrap = reports[-1].area
    return ContinuationResult(stages=tuple(reports), final=sol,
                              extrapolated_area=extrap)


def _extrapolated_start(solved: list, chi_k: float) -> Field | None:
    """Newton start for the stage at chi_k from the (chi, v) of the stages
    before it, oldest first: the Lagrange polynomial in chi through them,
    evaluated at chi_k. Stages at a repeated chi count once, with the
    latest v. Through two stages this is the secant
    v_{k-1} + theta (v_{k-1} - v_{k-2}); `run_continuation` passes the last
    four, a cubic. A stage at the last stage's chi starts from that stage;
    otherwise, with fewer than two stages solved, None (a cold start)."""
    if not solved:
        return None
    chi1, v1 = solved[-1]
    if chi_k == chi1:
        return v1
    if len(solved) < 2:
        return None
    nodes = {}
    for chi, v in reversed(solved):
        nodes.setdefault(chi, v.values)
    out = np.zeros_like(v1.values)
    for chi_j, vj in nodes.items():
        out += math.prod((chi_k - chi_i) / (chi_j - chi_i)
                         for chi_i in nodes if chi_i != chi_j) * vj
    return Field(out)


def check_scan(radii, threshold: float = 1.0) -> None:
    """Raise ValueError unless every scan radius lies in (0, 1/2) and
    0 < threshold < inf. Scanning callers check before their first solve."""
    for r in radii:
        if not 0.0 < r < 0.5:
            raise ValueError(f"scan radius {r} is outside (0, 1/2)")
    if not 0.0 < threshold < np.inf:
        raise ValueError(f"threshold must satisfy 0 < threshold < inf, got {threshold}")


@dataclass(frozen=True)
class ScanReport:
    radii: tuple
    max_mass: float
    max_area: float
    flags: tuple
    centers_scanned: int


def no_bubble_scan(sol: Solution, radii, threshold: float = 1.0) -> ScanReport:
    """Largest curvature mass and area over scanned disks away from atoms.

    Centers are the coarse sublattice of stride n/16 (16 x 16 centers; every
    node at n = 8), skipping centers within radius + 8/n of a divisor atom;
    `check_scan` bounds the radii and `threshold`. The centers are nodes, so
    every disk holds the same node offsets (k, l), those with
    hypot(k/n, l/n) <= r (exact dyadics at a power-of-two n), and a kept
    center's mass and area are the direct sums of |K| e^{2u} / n^2 and
    e^{2u} / n^2 over them, read off the grid wrap-padded by floor(r n).
    r < 1/2 keeps a disk from wrapping onto itself. A center is flagged
    when its mass reaches `threshold` (the concentration proxy).
    """
    check_scan(radii, threshold)
    u = sol.u_values
    n = u.shape[0]
    K = sol.spec.values(n)
    atoms = sol.split.divisor.points
    e2u = np.exp(2.0 * u)
    mass = np.abs(K) * e2u / (n * n)
    area = np.divide(e2u, n * n, out=e2u)
    idx = np.arange(0, n, max(1, n // 16))
    cx, cy = np.meshgrid(idx, idx, indexing="ij")
    max_mass = 0.0
    max_area = 0.0
    flags = []
    scanned = 0
    for r in radii:
        keep = np.ones(cx.shape, dtype=bool)
        for (ax, ay) in atoms:
            dist = torus_distance(cx / n, cy / n, ax, ay)
            keep &= dist > r + 8.0 / n
        if not keep.any():
            raise ValueError(f"atoms exclude every scan center at radius {r}")
        scanned += int(keep.sum())
        h = math.floor(r * n)
        k = np.arange(-h, h + 1) / n
        disk = np.hypot(k[:, None], k[None, :]) <= r
        masses, areas = (np.pad(a, h, mode="wrap") for a in (mass, area))
        m_here = np.zeros(cx.shape)
        a_here = np.zeros(cx.shape)
        for i, j in zip(*np.nonzero(keep)):
            window = (slice(cx[i, j], cx[i, j] + 2 * h + 1),
                      slice(cy[i, j], cy[i, j] + 2 * h + 1))
            m_here[i, j] = masses[window][disk].sum()
            a_here[i, j] = areas[window][disk].sum()
        max_mass = max(max_mass, float(m_here[keep].max()))
        max_area = max(max_area, float(a_here[keep].max()))
        flagged = keep & (m_here >= threshold)
        for i, j in zip(*np.nonzero(flagged)):
            flags.append(((float(cx[i, j]) / n, float(cy[i, j]) / n),
                          float(r), float(m_here[i, j])))
    return ScanReport(radii=tuple(float(r) for r in radii), max_mass=max_mass,
                      max_area=max_area, flags=tuple(flags),
                      centers_scanned=scanned)
