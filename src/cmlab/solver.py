"""Damped Newton solver for -Delta v = K e^{2(S+v)} - 2 pi sum(beta).

The unknown is the smooth remainder v of the log-conformal factor
u = S + v on the unit flat torus; K is bounded with negative upper bound,
which makes the Newton linearization -Delta + (-2K e^{2u}) positive
definite, so every inner solve is a preconditioned conjugate-gradient
iteration on a definite operator.

The Newton state is kept as the Fourier coefficient array of v: applying
-Delta to stored coefficients is diagonal-exact, which avoids the
round-off floor eps * (pi n)^2 ||v|| that a real-space state hits when the
residual is re-transformed each step (at n = 256 that floor already
exceeds the default tolerance). v is real, so the state is its half
spectrum (``rfft2``), and every transform is a real one of half size.

One operator evaluates the residual and applies its Jacobian; the public
``residual`` and ``jacobian_apply``, the default guess and the Newton loop
all use it. The inner CG works on samples and applies the same Jacobian
-Delta + W, but gets -Delta p without a transform: the preconditioner
solve (k2 + c) z^ = r^, with the shift c below, gives -Delta z = r - c z
exactly, and p is a linear recurrence in z, so -Delta p follows the same
recurrence. One CG iteration therefore costs exactly two transforms,
rfft2(r) for the preconditioner and irfft2(z^) for z, and each inner
solve ends with one rfft2 of its step for the Newton state.

The preconditioner is the spectral inverse (-Delta + c)^-1 with the shift
c = mean(W). -Delta does not see the constant mode, and mean(W) is the
Rayleigh quotient of the Jacobian on that mode, so the preconditioner is
exact there; at a solution without forcing, Gauss-Bonnet makes it the
topological constant 4 pi |chi|. W = -2K e^{2u} spikes at the atoms (up to
~6e4 near a cusp stage at n = 256) while it stays near its mean elsewhere,
so a shift that follows the spike, such as sqrt(min W max W), mismatches
the low modes where CG spends its iterations.

A solve given no start on a grid n >= 512 with n % 8 == 0 begins from the
same problem solved at n/4 (nested iteration). The solution is unique, so
the start changes the cost, not the answer: at n = 1024 one cone takes 3
fine Newton steps and 14 CG iterations instead of 4 and 19. The coarse
half spectrum is zero-padded into the fine one, its Nyquist row and column
dropped and its coefficients scaled by 16, and handed to the fine Newton
loop without a trip through real space. When the coarse grid rejects an
atom or the coarse Newton does not converge, the constant default guess
is used instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (CurvatureSignError, InfeasibleTopology, NonConvergence,
                     ResidualOverflow)
from .green import SingularSplit, _s4, singular_part
from .grids import (TAU, Field, TorusChart, gauss_legendre, half_laplacian_multiplier,
                    interpolate, irfft2, rfft2, torus_distance)
from .measures import Divisor, euler_characteristic

_EXP_LIMIT = 350.0
_MAX_NEWTON = 60
_CG_RTOL = 1e-6
_CG_MAXITER = 2000
_NESTED_MIN_N = 512  # default starts from an n/4 solve at and above this grid


@dataclass(frozen=True)
class CurvatureSpec:
    """Prescribed curvature: a constant or a torus Field, with optional
    manufactured forcing added to the right-hand side."""

    curvature: float | Field
    forcing: Field | None = None

    def values(self, n: int):
        if isinstance(self.curvature, Field):
            if self.curvature.n != n:
                raise ValueError("curvature grid does not match the solve grid")
            return self.curvature.values
        return float(self.curvature)

    def sup(self) -> float:
        k = self.curvature
        return float(k.values.max()) if isinstance(k, Field) else float(k)


@dataclass
class Solution:
    split: SingularSplit
    spec: CurvatureSpec
    v: Field
    residual_norm: float
    area: float
    gb_defect: float
    newton_iters: int
    cg_iters: int
    cg_capped: int  # inner solves stopped by _CG_MAXITER before _CG_RTOL
    area_parts: "AreaBreakdown"

    @property
    def u_values(self) -> np.ndarray:
        return self.split.S.values + self.v.values


def _exp2u(S: np.ndarray, v: np.ndarray) -> np.ndarray:
    arg = 2.0 * (S + v)
    if arg.max() > _EXP_LIMIT:
        raise ResidualOverflow("e^{2u} overflows double precision")
    return np.exp(arg)


@dataclass(frozen=True)
class _Operator:
    """F(v) = -Delta v - K e^{2(S+v)} + const - rho and its Jacobian
    (-Delta + W) w, W = -2K e^{2(S+v)}, with -Delta applied on the half
    spectrum through the symbol k2."""

    S: np.ndarray
    K: float | np.ndarray
    const: float
    rho: float | np.ndarray
    k2: np.ndarray

    @property
    def n(self) -> int:
        return self.S.shape[0]

    def residual(self, vhat: np.ndarray, e2u: np.ndarray) -> np.ndarray:
        """F from the half spectrum of v and the samples of e^{2(S+v)}."""
        return irfft2(self.k2 * vhat, self.n) - self.K * e2u + self.const - self.rho

    def evaluate(self, vhat: np.ndarray) -> tuple:
        """(v, e^{2(S+v)}, F) at the half spectrum vhat."""
        v = irfft2(vhat, self.n)
        e2u = _exp2u(self.S, v)
        return v, e2u, self.residual(vhat, e2u)

    def weight(self, e2u: np.ndarray) -> np.ndarray:
        return -2.0 * self.K * e2u

    def jacobian(self, W: np.ndarray, w: np.ndarray, what: np.ndarray) -> np.ndarray:
        """(-Delta + W) w from the samples w and their half spectrum."""
        return irfft2(self.k2 * what, self.n) + W * w


def _operator(spec: CurvatureSpec, split: SingularSplit) -> _Operator:
    n = split.n
    rho = 0.0
    if spec.forcing is not None:
        if spec.forcing.n != n:
            raise ValueError("forcing grid does not match the solve grid")
        rho = spec.forcing.values
    return _Operator(split.S.values, spec.values(n), TAU * split.beta_sum, rho,
                     half_laplacian_multiplier(n))


def _samples(v: Field | np.ndarray, split: SingularSplit) -> np.ndarray:
    vv = v.values if isinstance(v, Field) else np.asarray(v, dtype=float)
    if vv.shape != split.S.values.shape:
        raise ValueError("v grid does not match the singular part")
    return vv


def residual(v: Field | np.ndarray, spec: CurvatureSpec, split: SingularSplit) -> Field:
    """F(v) = -Delta v - K e^{2(S+v)} + 2 pi sum(beta) - forcing."""
    vv = _samples(v, split)
    op = _operator(spec, split)
    return Field(op.residual(rfft2(vv), _exp2u(op.S, vv)), TorusChart())


def jacobian_apply(spec: CurvatureSpec, split: SingularSplit,
                   v: Field | np.ndarray, w: np.ndarray) -> np.ndarray:
    """Directional derivative of the residual: (-Delta + W) w, W = -2K e^{2u}."""
    vv = _samples(v, split)
    op = _operator(spec, split)
    w = np.asarray(w, dtype=float)
    return op.jacobian(op.weight(_exp2u(op.S, vv)), w, rfft2(w))


def _cg(op: _Operator, W: np.ndarray, shift: float, b: np.ndarray) -> tuple:
    """Solve (-Delta + W) x = b by CG preconditioned with (-Delta + shift)^-1.

    CG works on samples. The preconditioner solve (k2 + shift) z^ = r^ fixes
    -Delta z = r - shift z with no transform, and p = z + beta p is linear
    in z, so lp = -Delta p follows as lp = (r - shift z) + beta lp. The
    identity only multiplies r^ by k2 / (k2 + shift) <= 1, so round-off is
    not amplified by (pi n)^2 as a transform of k2 p^ would be. One
    iteration costs one rfft2(r) and one irfft2(z^), and the solve ends with
    one rfft2(x).

    Returns (half spectrum of x, iterations, whether _CG_MAXITER cut it short).
    """
    n = op.n
    denom = op.k2 + shift
    r = b.copy()
    zhat = rfft2(r)
    zhat /= denom
    z = irfft2(zhat, n)
    p, lp = z, r - shift * z
    Ap = np.empty_like(r)
    x = np.zeros_like(r)
    rz = float((r * z).sum())
    bnorm = math.sqrt(float((b * b).sum()))
    for iters in range(1, _CG_MAXITER + 1):
        np.multiply(W, p, out=Ap)
        Ap += lp
        pAp = float((p * Ap).sum())
        if pAp <= 0.0:
            raise CurvatureSignError(
                "CG met a non-positive curvature direction; the linearized "
                "operator is not definite")
        alpha = rz / pAp
        x += alpha * p
        Ap *= alpha
        r -= Ap
        if math.sqrt(float((r * r).sum())) <= _CG_RTOL * bnorm:
            return rfft2(x), iters, False
        del z, zhat  # free the previous pair before the transforms allocate
        zhat = rfft2(r)
        zhat /= denom
        z = irfft2(zhat, n)
        rz_next = float((r * z).sum())
        beta = rz_next / rz
        # Ap is free until the next product: it takes -Delta z = r - shift z
        np.multiply(z, shift, out=Ap)
        np.subtract(r, Ap, out=Ap)
        p *= beta
        p += z
        lp *= beta
        lp += Ap
        rz = rz_next
    return rfft2(x), _CG_MAXITER, True


def default_initial_guess(spec: CurvatureSpec, split: SingularSplit) -> Field:
    """Constant v balancing mean curvature: e^{2v} mean(|K| e^{2S}) = 2 pi |sum beta|."""
    op = _operator(spec, split)
    if split.beta_sum == 0.0:
        return Field(np.zeros((op.n, op.n)), TorusChart())
    mean = float((np.abs(op.K) * np.exp(2.0 * op.S)).mean())
    c = 0.5 * math.log(TAU * abs(split.beta_sum) / mean)
    return Field(np.full((op.n, op.n), c), TorusChart())


def _newton_loop(op: _Operator, vhat: np.ndarray, tol: float) -> tuple:
    """Damped Newton-CG on `op` from the half spectrum `vhat` to sup |F| <= tol.

    Returns (vhat, v, e^{2(S+v)}, F, Newton steps, CG iterations, capped
    inner solves) at the final iterate.
    """
    v, e2u, F = op.evaluate(vhat)
    cg_total = 0
    cg_capped = 0
    for it in range(_MAX_NEWTON):
        norm = float(np.abs(F).max())
        if norm <= tol:
            break
        W = op.weight(e2u)
        dhat, inner, capped = _cg(op, W, float(W.mean()), -F)
        cg_total += inner
        cg_capped += capped
        phi0 = float((F * F).sum())
        step = 1.0
        while True:
            try:
                vhat_try = vhat + step * dhat
                v_try, e2u_try, F_try = op.evaluate(vhat_try)
                if float((F_try * F_try).sum()) <= (1.0 - 2e-4 * step) * phi0:
                    vhat, v, e2u, F = vhat_try, v_try, e2u_try, F_try
                    break
            except ResidualOverflow:
                pass
            step *= 0.5
            if step < 2.0 ** -30:
                raise NonConvergence(
                    f"line search hit the 2^-30 floor at Newton step {it + 1} "
                    f"(residual {norm:.3e})")
    else:
        raise NonConvergence(
            f"Newton did not reach tol={tol:g} within {_MAX_NEWTON} iterations "
            f"(residual {float(np.abs(F).max()):.3e})")
    return vhat, v, e2u, F, it, cg_total, cg_capped


def _coarse_start(spec: CurvatureSpec, split: SingularSplit, tol: float):
    """Half spectrum of v solved at n/4 and zero-padded to n, or None when
    newton_solve falls back to the default guess. The factor 16 = (n/m)^2
    carries the unnormalized forward transform across grid sizes."""
    n, m = split.n, split.n // 4
    try:
        coarse = singular_part(split.divisor, m)
    except ValueError:
        return None

    def inject(f):
        return Field(f.values[::4, ::4], TorusChart()) if isinstance(f, Field) else f

    cspec = CurvatureSpec(inject(spec.curvature), inject(spec.forcing))
    try:
        chat = _newton_loop(_operator(cspec, coarse),
                            rfft2(default_initial_guess(cspec, coarse).values), tol)[0]
    except NonConvergence:
        return None
    chat = 16.0 * chat
    h = m // 2
    vhat = np.zeros((n, n // 2 + 1), dtype=chat.dtype)
    vhat[:h, :h] = chat[:h, :h]
    vhat[n - h + 1:, :h] = chat[h + 1:, :h]
    return vhat


def newton_solve(spec: CurvatureSpec, split: SingularSplit,
                 v0: Field | None = None, tol: float = 1e-10) -> Solution:
    """Solve the prescribed-curvature equation on the torus.

    Requires a negative Euler characteristic of the pair unless a
    manufactured forcing is supplied, strictly conical weights
    (beta > -1; cusps are reached through continuation), and sup K < 0.
    At most 60 Newton steps solve (-Delta + W) delta = -F, W = -2K e^{2u},
    by CG to relative residual 1e-6, preconditioned with
    (-Delta + mean(W))^-1, which is exact on the constant mode (sup K < 0
    makes W and its mean positive); step lengths come from Armijo
    backtracking on ||F||_2^2 with factor 1/2, slope 1e-4 and floor 2^-30.
    An inner solve that reaches 2000 iterations keeps its last iterate and
    is counted in `cg_capped`.

    With `v0` None, a grid n >= 512 with n % 8 == 0 starts from the solve at
    n/4: Field curvature and forcing are restricted by injection, and the
    coarse half spectrum is zero-padded to n (Nyquist row and column
    dropped, scaled by 16). If `singular_part` rejects an atom at n/4 (an
    atom 1e-8 to 4e-8 of a fine cell from a coarse node passes the fine
    test but not the coarse one) or the coarse Newton raises
    NonConvergence, the start is `default_initial_guess`, which every other
    grid uses too; any other coarse error propagates. `newton_iters`,
    `cg_iters` and `cg_capped` count the fine solve only, so report keys do
    not change; the coarse cost belongs in a per-solve trace.
    """
    div = split.divisor
    chi = euler_characteristic("torus", div)
    if spec.forcing is None and chi >= 0.0:
        raise InfeasibleTopology(
            f"chi(torus, beta) = {chi:g} >= 0: the equation with K < 0 "
            "has no solution (and no forcing was supplied)")
    for b in div.betas:
        if b <= -1.0:
            raise ValueError(
                "cusp weight beta = -1 cannot be solved directly; "
                "approach it through a continuation schedule")
    if not spec.sup() < 0.0:
        raise ValueError("curvature must have a negative upper bound")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")

    op = _operator(spec, split)
    vhat = None
    if v0 is not None:
        if v0.n != op.n:
            raise ValueError("v0 grid does not match the singular part")
        vhat = rfft2(v0.values)
    elif op.n >= _NESTED_MIN_N and op.n % 8 == 0:
        vhat = _coarse_start(spec, split, tol)
    if vhat is None:
        vhat = rfft2(default_initial_guess(spec, split).values)

    vhat, v, e2u, F, it, cg_total, cg_capped = _newton_loop(op, vhat, tol)

    v_field = Field(v, TorusChart())
    parts = metric_area(split, v_field)
    gb = abs(float((op.K * e2u + op.rho).mean()) - TAU * chi)
    return Solution(split=split, spec=spec, v=v_field,
                    residual_norm=float(np.abs(F).max()), area=parts.area,
                    gb_defect=gb, newton_iters=it, cg_iters=cg_total,
                    cg_capped=cg_capped, area_parts=parts)


# -- area quadrature ---------------------------------------------------------

@dataclass(frozen=True)
class AtomCorrection:
    index: int
    ring: float
    grid_inner: float
    applied: bool


@dataclass(frozen=True)
class AreaBreakdown:
    area: float
    grid_area: float
    corrections: tuple

    @property
    def rings_rejected(self) -> int:
        """Atoms whose ring correction was not credible, so not applied."""
        return sum(not c.applied for c in self.corrections)


def metric_area(split: SingularSplit, v: Field) -> AreaBreakdown:
    """Area of e^{2(S+v)} with analytic polar rings near the atoms.

    Within 8/n of each atom the grid quadrature is blended out and replaced
    by radial integration of r^{2 beta} e^{2(H_i + v)} (H_i the stable
    smooth rest) on 64 angles, using 32 Gauss-Legendre nodes after the
    substitution t = r^{2 beta + 2} that flattens the power law. The
    correction is applied only when it is credible on this grid: exponent
    a = 2 beta + 2 >= 3/4 and |ring - grid| <= ring/4. Near-cusp atoms
    concentrate below grid scale, where the ring quadrature amplifies
    interpolation error; those fall back to the plain grid total, which the
    residual's exact spectral mean pins to the correct value for constant K.
    """
    n = split.n
    S = split.S.values
    u2 = _exp2u(S, v.values)
    grid_area = float(u2.mean())
    area = grid_area
    r_na = 4.0 / n
    r_bl = 8.0 / n
    X, Y = TorusChart().mesh(n)
    theta = TAU * np.arange(64) / 64
    corrections = []
    for i, ((px, py), beta) in enumerate(zip(split.divisor.points, split.divisor.betas)):
        a = 2.0 * beta + 2.0
        if a < 0.75:
            corrections.append(AtomCorrection(i, 0.0, 0.0, False))
            continue
        d = torus_distance(X, Y, px, py)
        near = d < r_bl
        blend = _s4((d[near] - r_na) / (r_bl - r_na))
        grid_inner = float(((1.0 - blend) * u2[near]).sum()) / (n * n)
        # ring: (1/a) \int_0^{r_bl^a} dt \int dtheta (1-m) e^{2(H_i+v)}
        t_max = r_bl ** a

        def ring_vals(tau):
            r_nodes = (t_max * tau) ** (1.0 / a)
            xs = (px + r_nodes[:, None] * np.cos(theta)[None, :]) % 1.0
            ys = (py + r_nodes[:, None] * np.sin(theta)[None, :]) % 1.0
            smooth = split.smooth_rest(i, xs, ys) + interpolate(v, xs, ys)
            vals = np.exp(2.0 * smooth).mean(axis=1) * TAU
            return vals * (1.0 - _s4((r_nodes - r_na) / (r_bl - r_na)))

        ring = t_max / a * gauss_legendre(ring_vals, 0.0, 1.0, 32)
        corr = ring - grid_inner
        applied = abs(corr) <= 0.25 * ring
        if applied:
            area += corr
        corrections.append(AtomCorrection(i, ring, grid_inner, applied))
    return AreaBreakdown(area, grid_area, tuple(corrections))


# -- probes -------------------------------------------------------------------

@dataclass(frozen=True)
class UniquenessReport:
    trials: int
    max_pairwise: float
    residual_norms: tuple


def random_smooth_field(n: int, rng: np.random.Generator,
                        amplitude: float = 2.0) -> Field:
    """Random periodic field of modes |kx|, |ky| <= 3 with sup-norm <= amplitude."""
    X, Y = TorusChart().mesh(n)
    out = np.zeros((n, n))
    for _ in range(6):
        kx, ky = (int(q) for q in rng.integers(-3, 4, size=2))
        out += (rng.normal() * np.cos(TAU * (kx * X + ky * Y))
                + rng.normal() * np.sin(TAU * (kx * X + ky * Y)))
    sup = float(np.abs(out).max())
    if sup > 0:
        out *= amplitude * float(rng.uniform(0.25, 1.0)) / sup
    return Field(out, TorusChart())


def uniqueness_probe(spec: CurvatureSpec, split: SingularSplit, trials: int,
                     seed: int = 0, tol: float = 1e-10) -> UniquenessReport:
    """Solve from `trials` random starts (sup <= 2); report max pairwise sup distance."""
    if trials < 1:
        raise ValueError(f"uniqueness probe needs at least one trial, got {trials}")
    rng = np.random.default_rng(seed)
    sols = []
    norms = []
    for _ in range(trials):
        v0 = random_smooth_field(split.n, rng)
        sol = newton_solve(spec, split, v0=v0, tol=tol)
        sols.append(sol.v.values)
        norms.append(sol.residual_norm)
    worst = 0.0
    for i in range(len(sols)):
        for j in range(i + 1, len(sols)):
            worst = max(worst, float(np.abs(sols[i] - sols[j]).max()))
    return UniquenessReport(trials=len(sols), max_pairwise=worst,
                            residual_norms=tuple(norms))


def radial_length(u, p, delta: float, r0: float) -> float:
    """Length of the ray segment s in [delta, r0] from p along +x in the
    metric e^{2u}, by adaptive quadrature.

    ``u`` is a callable u(x, y) or a Solution. A Solution integrates
    s^beta e^{H + v} with H = smooth_rest(i) when p is its atom i of weight
    beta, and with H = S, beta = 0 off the atoms.
    """
    from scipy.integrate import quad

    if not 0.0 < delta < r0:
        raise ValueError("need 0 < delta < r0")
    px, py = float(p[0]), float(p[1])
    if callable(u):
        eps = 1e-13

        def integrand(s):
            return math.exp(float(u(px + s, py)))
    else:
        # bilinear integrands are only piecewise smooth; tighter tolerances
        # just trip quad's roundoff detector
        eps = 1e-7
        div = u.split.divisor
        atom = next((i for i, q in enumerate(div.points)
                     if float(torus_distance(px, py, *q)) < 1e-12), None)
        beta = 0.0 if atom is None else div.betas[atom]

        def integrand(s):
            rest = u.split.smooth_rest(atom, px + s, py) + interpolate(u.v, px + s, py)
            return s ** beta * math.exp(float(rest))

    value, _ = quad(integrand, delta, r0, limit=400, epsabs=eps, epsrel=10 * eps)
    return float(value)


def solve_divisor(points, betas, curvature=-1.0, n: int = 256,
                  tol: float = 1e-10) -> Solution:
    """Convenience wrapper: build the divisor, split, spec, and solve."""
    split = singular_part(Divisor(tuple(points), tuple(betas)), n)
    return newton_solve(CurvatureSpec(curvature), split, tol=tol)
