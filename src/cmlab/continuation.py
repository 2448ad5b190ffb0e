"""Cusp metrics as limits of cone metrics: continuation in the weights.

A cusp (beta = -1) has a non-grid-integrable conformal factor, so it is
never solved directly. Instead a schedule of strictly conical stages
beta^k > -1 descends toward the target divisor at one prescribed
curvature, so only the angles move. The remainder v moves smoothly with
the weights, so each stage from the third on starts its Newton solve
from the cubic in chi through the four stages before it (fewer while
fewer are solved; Allgower & Georg, Numerical Continuation Methods,
1990). On the n = 256 one-cusp ladder of ten stages this takes 113 CG
iterations where the secant through two stages takes 134. The first two
stages start cold, from the solver's own start, the nested n/4 solve;
stage 1 alone is a worse start for stage 2 (26 CG iterations against 15
at n = 256, 24 against 17 at n = 64). Stage areas converge geometrically
for constant curvature, and the limit is reported as the final-stage
field plus a Richardson extrapolation of the areas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleTopology, StageFailure
from .green import singular_part
from .grids import Field, _check_grid, torus_distance
from .measures import Divisor, euler_characteristic
from .solver import CurvatureSpec, Solution, check_curvature_bounds, newton_solve


@dataclass(frozen=True)
class ContinuationSchedule:
    """Stages beta^k descending to a target divisor at one curvature.

    Each stage is a Divisor at the target's points. Its weights must stay
    strictly above -1 and never undershoot the target, and each stage
    after the first must lower chi and raise no weight, so chi falls
    strictly from stage to stage. The curvature must be finite and
    negative (`check_curvature_bounds`).
    """

    target: Divisor
    steps: tuple
    curvature: float | Field

    def __post_init__(self):
        steps = tuple(self.steps)
        if not steps:
            raise ValueError("schedule needs at least one step")
        check_curvature_bounds(self.curvature)
        prev = None
        for step in steps:
            if step.points != self.target.points:
                raise ValueError("stage points must be the target's")
            for b, bt in zip(step.betas, self.target.betas):
                if not b > -1.0:
                    raise ValueError("stage weights must stay strictly above -1")
                if b < bt - 1e-12:
                    raise ValueError("stage weights must not undershoot the target")
            if prev is not None and (any(b > pb for b, pb in zip(step.betas, prev.betas))
                                     or not step.beta_sum < prev.beta_sum):
                raise ValueError("each stage must lower chi and raise no weight")
            prev = step
        object.__setattr__(self, "steps", steps)


def cusp_schedule(target: Divisor, k_max: int = 10,
                  curvature: float | Field = -1.0) -> ContinuationSchedule:
    """Default schedule: beta^k = -1 + 2^{-k} for each cusp atom.

    Strictly conical atoms keep their target weight; with no cusp atoms
    the schedule degenerates to a single direct stage. With a cusp atom
    `k_max` must lie in 1..53: -1 + 2^{-k} rounds to -1 beyond k = 53.
    """
    if not any(b == -1.0 for b in target.betas):
        return ContinuationSchedule(target, (target,), curvature)
    if not 1 <= k_max <= 53:
        raise ValueError(f"k_max = {k_max} is outside 1..53: the stage weight "
                         "-1 + 2^-k_max must be a double strictly above -1")
    steps = tuple(Divisor(target.points,
                          tuple(-1.0 + 2.0 ** -k if b == -1.0 else b for b in target.betas))
                  for k in range(1, k_max + 1))
    return ContinuationSchedule(target, steps, curvature)


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
    check_scan(sched.target.points, n, (scan_radius,))
    chi_target = euler_characteristic(sched.target)
    if chi_target >= 0.0:
        raise InfeasibleTopology(
            f"chi(torus, target beta) = {chi_target:g} >= 0: no continuation target")
    reports = []
    solved = []  # (chi, v) of the last four stages, for the start
    spec = CurvatureSpec(sched.curvature)
    sol = None
    for k, step in enumerate(sched.steps, start=1):
        chi_k = euler_characteristic(step)
        split = singular_part(step, n)
        try:
            sol = newton_solve(spec, split, v0=_extrapolated_start(solved, chi_k), tol=tol)
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
    before it, oldest first, at distinct chi: the Lagrange polynomial in chi
    through them, evaluated at chi_k, summed newest first. Through two
    stages this is the secant v_{k-1} + theta (v_{k-1} - v_{k-2});
    `run_continuation` passes the last four, a cubic. With fewer than two
    stages solved, None (a cold start)."""
    if len(solved) < 2:
        return None
    nodes = solved[::-1]
    out = np.zeros_like(nodes[0][1].values)
    for chi_j, vj in nodes:
        out += math.prod((chi_k - chi_i) / (chi_j - chi_i)
                         for chi_i, _ in nodes if chi_i != chi_j) * vj.values
    return Field(out)


def check_scan(atoms, n: int, radii, threshold: float = 1.0) -> list:
    """The scan centers each radius keeps, as 16 x 16 masks (n x n at
    n = 8) over the stride n/16 sublattice: the nodes farther than
    r + 8/n from every atom. Raise ValueError unless n is a grid, every
    radius lies in (0, 1/2) and keeps a center, and 0 < threshold < inf.
    Scanning callers check before their first solve."""
    _check_grid(n)
    for r in radii:
        if not 0.0 < r < 0.5:
            raise ValueError(f"scan radius {r} is outside (0, 1/2)")
    if not 0.0 < threshold < np.inf:
        raise ValueError(f"threshold must satisfy 0 < threshold < inf, got {threshold}")
    lattice = np.arange(0, n, max(1, n // 16)) / n
    cx, cy = np.meshgrid(lattice, lattice, indexing="ij")
    kept = []
    for r in radii:
        keep = np.ones(cx.shape, dtype=bool)
        for (ax, ay) in atoms:
            keep &= torus_distance(cx, cy, ax, ay) > r + 8.0 / n
        if not keep.any():
            raise ValueError(f"atoms exclude every scan center at radius {r}")
        kept.append(keep)
    return kept


@dataclass(frozen=True)
class ScanReport:
    radii: tuple
    max_mass: float
    max_area: float
    flags: tuple
    centers_scanned: int


def no_bubble_scan(sol: Solution, radii, threshold: float = 1.0) -> ScanReport:
    """Largest curvature mass and area over scanned disks away from atoms.

    `check_scan` picks the centers, the nodes of the stride n/16 sublattice
    farther than r + 8/n from every divisor atom, and bounds the radii and
    `threshold`. The centers are nodes, so every disk holds the same node
    offsets (k, l), those with hypot(k/n, l/n) <= r (exact dyadics at a
    power-of-two n), and a kept center's mass and area are the sums of
    |K| e^{2u} / n^2 and e^{2u} / n^2 over them. r < 1/2 keeps a disk from wrapping onto
    itself. A center is flagged when its mass reaches `threshold` (the
    concentration proxy).

    The sums are O(n^2) for all centers together (`_disk_sums`): each disk
    column is read off partial sums over rows taken outward from the
    centers' rows (a summed-area table anchored at the centers; Crow,
    SIGGRAPH 1984), where a loop over centers gathered each (2h + 1)^2
    window, h = floor(r n). They agree with those direct sums within 4 ulp
    (``tests/oracles.py:direct_scan``).
    """
    n = sol.v.n
    kept = check_scan(sol.split.divisor.points, n, radii, threshold)
    area = sol.u_values  # e^{2u} / n^2 in place
    area *= 2.0
    np.exp(area, out=area)
    area /= n * n
    mass = np.abs(sol.spec.values(n)) * area  # n^2 is a power of two: exact
    idx = np.arange(0, n, max(1, n // 16))
    max_mass = 0.0
    max_area = 0.0
    flags = []
    scanned = 0
    for r, keep in zip(radii, kept):
        scanned += int(keep.sum())
        h = math.floor(r * n)
        k = np.arange(-h, h + 1)
        disk = np.hypot(k[:, None] / n, k[None, :] / n) <= r
        cols = disk.any(axis=0)
        dl, half = k[cols], disk[:, cols].sum(axis=0) // 2
        m_here = np.zeros(keep.shape)
        a_here = np.zeros(keep.shape)
        i, j = np.nonzero(keep)
        for a, here in ((mass, m_here), (area, a_here)):
            here[keep] = _disk_sums(a, idx, i, idx[j], dl, half)
        max_mass = max(max_mass, float(m_here[keep].max()))
        max_area = max(max_area, float(a_here[keep].max()))
        flagged = keep & (m_here >= threshold)
        for i, j in zip(*np.nonzero(flagged)):
            flags.append(((float(idx[i]) / n, float(idx[j]) / n),
                          float(r), float(m_here[i, j])))
    return ScanReport(radii=tuple(float(r) for r in radii), max_mass=max_mass,
                      max_area=max_area, flags=tuple(flags),
                      centers_scanned=scanned)


def _disk_sums(a: np.ndarray, lattice: np.ndarray, i: np.ndarray, cy: np.ndarray,
               dl: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Sum of the periodic samples `a` over each disk about the node
    (lattice[i], cy), whose column cy + dl spans the rows lattice[i] - half
    .. lattice[i] + half.

    Each column is summed outward from the center row: cum[w, i] holds the
    sums of rows lattice[i] - w .. lattice[i] + w, accumulated over w, so a
    disk is one read of cum per column. Every term is added, none
    subtracted, so no disk sum loses digits to a spike beside it.
    """
    n = a.shape[0]
    w = np.arange(half.max() + 1)[:, None]
    cum = a[(lattice + w) % n]
    cum[1:] += a[(lattice - w[1:]) % n]
    for j in range(1, len(cum)):  # np.cumsum(axis=0) walks one column at a time
        cum[j] += cum[j - 1]
    return cum[half, i[:, None], (cy[:, None] + dl) % n].sum(axis=1)
