"""Cusp metrics as limits of cone metrics: continuation in the weights.

A cusp (beta = -1) has a non-grid-integrable conformal factor, so it is
never solved directly. Instead a schedule of strictly conical stages
beta^k > -1 descends toward the target divisor while the curvature may be
mollified toward a rough target; each stage warm-starts the Newton solve
from the secant prediction through the two stages before it (Allgower &
Georg, Numerical Continuation Methods): the remainder v moves smoothly
with the weights, so extrapolating it linearly in chi saves Newton steps
over restarting from the previous stage alone. Stage areas converge
geometrically for constant curvature, and the limit is reported as the
final-stage field plus a Richardson extrapolation of the areas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleTopology, StageFailure
from .green import singular_part
from .grids import (Field, TAU, TorusChart, half_laplacian_multiplier, irfft2, rfft2,
                    torus_distance)
from .measures import Divisor, euler_characteristic
from .solver import CurvatureSpec, Solution, newton_solve


def check_curvature_bounds(curvature: float | Field, lam: float) -> None:
    """Raise ValueError unless 1 <= lam < inf and the constant or Field
    `curvature` lies in [-lam, -1/lam], up to 1e-12."""
    if not 1.0 <= lam < np.inf:
        raise ValueError(f"lam must satisfy 1 <= lam < inf, got {lam}")
    lo, hi = -lam, -1.0 / lam
    k = curvature.values if isinstance(curvature, Field) else curvature
    if np.min(k) < lo - 1e-12 or np.max(k) > hi + 1e-12:
        raise ValueError(f"curvature exits its bounds [{lo:g}, {hi:g}]")


@dataclass(frozen=True)
class ScheduleStep:
    betas: tuple
    curvature: float | Field


@dataclass(frozen=True)
class ContinuationSchedule:
    """Stages (beta^k, phi_k) descending to a target divisor.

    Weights must stay strictly above -1, be non-increasing in k, and
    never undershoot the target; when `lam` is given, it must satisfy
    1 <= lam < inf and every stage curvature must lie in [-lam, -1/lam].
    """

    target: Divisor
    steps: tuple
    lam: float | None = None

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
            if self.lam is not None:
                check_curvature_bounds(step.curvature, self.lam)
        object.__setattr__(self, "steps", steps)


def cusp_schedule(target: Divisor, k_max: int = 10,
                  curvature: float | Field = -1.0) -> ContinuationSchedule:
    """Default schedule: beta^k = -1 + 2^{-k} for each cusp atom.

    Strictly conical atoms keep their target weight; with no cusp atoms
    the schedule degenerates to a single direct stage.
    """
    if not any(b == -1.0 for b in target.betas):
        return ContinuationSchedule(target, (ScheduleStep(target.betas, curvature),),
                                    lam=_const_lam(curvature))
    steps = []
    for k in range(1, k_max + 1):
        betas = tuple(-1.0 + 2.0 ** -k if b == -1.0 else b for b in target.betas)
        steps.append(ScheduleStep(betas, curvature))
    return ContinuationSchedule(target, tuple(steps), lam=_const_lam(curvature))


def _const_lam(curvature) -> float | None:
    if isinstance(curvature, Field):
        return None
    c = abs(float(curvature))
    return max(c, 1.0 / c)


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
    """Solve every stage (warm-started from the secant prediction), with
    conservation checks per stage.

    Each stage records its area, Gauss-Bonnet defect, iteration counts and
    the largest curvature mass over scanned disks away from the atoms.
    The defect must stay below 10 * tol and, when curvature bounds are
    declared, the grid area must respect -2 pi chi / lam <= area <= -2 pi chi lam.
    The extrapolated area removes the leading 2^{-k} term from the tail.
    """
    chi_target = euler_characteristic("torus", sched.target)
    if chi_target >= 0.0:
        raise InfeasibleTopology(
            f"chi(torus, target beta) = {chi_target:g} >= 0: no continuation target")
    reports = []
    solved = []  # (chi, v) of the last two stages, for the warm start
    sol = None
    for k, step in enumerate(sched.steps, start=1):
        div_k = Divisor(sched.target.points, step.betas)
        chi_k = euler_characteristic("torus", div_k)
        split = singular_part(div_k, n)
        try:
            sol = newton_solve(CurvatureSpec(step.curvature), split,
                               v0=_secant_start(solved, chi_k), tol=tol)
        except Exception as exc:
            raise StageFailure(f"stage {k} failed: {exc}", stage=k) from exc
        solved = solved[-1:] + [(chi_k, sol.v)]
        if sol.gb_defect > 10.0 * tol:
            raise StageFailure(
                f"stage {k}: conservation defect {sol.gb_defect:.3e} > 10 tol",
                stage=k)
        if sched.lam is not None:
            # the grid mean, unlike the ring corrections, is fixed by Gauss-Bonnet
            lo = -TAU * chi_k / sched.lam
            hi = -TAU * chi_k * sched.lam
            slack = (1e-6 + 0.5 / n) * abs(TAU * chi_k) + 1e-12
            area = sol.area_parts.grid_area
            if not (lo - slack <= area <= hi + slack):
                raise StageFailure(
                    f"stage {k}: grid area {area:.6g} violates [{lo:.6g}, {hi:.6g}]",
                    stage=k)
        scan = no_bubble_scan(sol, radii=(scan_radius,))
        reports.append(StageReport(
            k=k, betas=step.betas, chi=chi_k, area=sol.area,
            gb_defect=sol.gb_defect, max_local_mass=scan.max_mass,
            solve_iters=sol.newton_iters, cg_iters=sol.cg_iters,
            cg_capped=sol.cg_capped, rings_rejected=sol.area_parts.rings_rejected,
            residual_norm=sol.residual_norm))
    if len(reports) >= 2:
        extrap = 2.0 * reports[-1].area - reports[-2].area
    else:
        extrap = reports[-1].area
    return ContinuationResult(stages=tuple(reports), final=sol,
                              extrapolated_area=extrap)


def _secant_start(solved: list, chi_k: float) -> Field | None:
    """Newton start for the stage at chi_k from the (chi, v) of the stages
    before it: v_{k-1} + theta (v_{k-1} - v_{k-2}) with
    theta = (chi_k - chi_{k-1}) / (chi_{k-1} - chi_{k-2}), the ratio of the
    weight steps (1/2 on cusp_schedule); theta = 0 when the weights did not
    move, and None (the default guess) before any stage is solved."""
    if not solved:
        return None
    chi1, v1 = solved[-1]
    if len(solved) < 2 or solved[0][0] == chi1:
        return v1
    chi2, v2 = solved[0]
    theta = (chi_k - chi1) / (chi1 - chi2)
    return Field(v1.values + theta * (v1.values - v2.values), TorusChart())


def mollify_curvature(Ktarget: Field, k: int, lam: float) -> Field:
    """Heat-semigroup smoothing of K at time 4^{-k}, clamped to [-lam, -1/lam].

    The semigroup is an exact spectral multiplier on the torus, so
    constants are fixed points and the L^1 distance to the target
    decreases in k.
    """
    if not isinstance(Ktarget.chart, TorusChart):
        raise ValueError("mollification is defined on the torus chart")
    check_curvature_bounds(Ktarget, lam)
    t = 4.0 ** (-k)
    n = Ktarget.n
    mult = np.exp(-half_laplacian_multiplier(n) * t)
    smoothed = irfft2(mult * rfft2(Ktarget.values), n)
    return Field(np.clip(smoothed, -lam, -1.0 / lam), TorusChart())


@dataclass(frozen=True)
class ScanReport:
    radii: tuple
    max_mass: float
    max_area: float
    flags: tuple
    centers_scanned: int


def no_bubble_scan(sol: Solution, radii, threshold: float = 1.0) -> ScanReport:
    """Largest curvature mass and area over scanned disks away from atoms.

    Disk masses of |K| e^{2u} are computed for every grid center at once by
    periodic convolution with the disk indicator, then read off on the
    coarse sublattice of stride n/16 (16 x 16 centers; every node at n = 8),
    skipping centers within radius + 8/n of a divisor atom; radii lie in
    (0, 1/2). A center is flagged when its mass reaches `threshold` (the
    concentration proxy).
    """
    u = sol.u_values
    n = u.shape[0]
    K = sol.spec.values(n)
    atoms = sol.split.divisor.points
    e2u = np.exp(2.0 * u)
    mass_hat = rfft2(np.abs(K) * e2u / (n * n))
    area_hat = rfft2(e2u / (n * n))
    X, Y = TorusChart().mesh(n)
    d0 = torus_distance(X, Y, 0.0, 0.0)
    stride = max(1, n // 16)
    idx = np.arange(0, n, stride)
    max_mass = 0.0
    max_area = 0.0
    flags = []
    scanned = 0
    for r in radii:
        if not 0.0 < r < 0.5:
            raise ValueError(f"scan radius {r} is outside (0, 1/2)")
        disk = (d0 <= r).astype(float)
        dhat = rfft2(disk)
        masses = irfft2(mass_hat * dhat, n)
        areas = irfft2(area_hat * dhat, n)
        cx, cy = np.meshgrid(idx, idx, indexing="ij")
        keep = np.ones(cx.shape, dtype=bool)
        for (ax, ay) in atoms:
            dist = torus_distance(cx / n, cy / n, ax, ay)
            keep &= dist > r + 8.0 / n
        if not keep.any():
            raise ValueError(f"atoms exclude every scan center at radius {r}")
        scanned += int(keep.sum())
        m_here = masses[cx, cy]
        a_here = areas[cx, cy]
        max_mass = max(max_mass, float(m_here[keep].max()))
        max_area = max(max_area, float(a_here[keep].max()))
        flagged = keep & (m_here >= threshold)
        for i, j in zip(*np.nonzero(flagged)):
            flags.append(((float(cx[i, j]) / n, float(cy[i, j]) / n),
                          float(r), float(m_here[i, j])))
    return ScanReport(radii=tuple(float(r) for r in radii), max_mass=max_mass,
                      max_area=max_area, flags=tuple(flags),
                      centers_scanned=scanned)
