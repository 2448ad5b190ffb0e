"""Independent reference implementations backing the test expectations.

Deliberately different algorithms from the package: direct lattice series,
finite-difference stencils, and adaptive quadrature, so agreement between
the two is evidence, not tautology. The translation spread is the one
metamorphic measure here: it runs the package's solver twice and compares
the solves with each other. The model closed forms the tests check
against live here too, and so does the Green kernel's smooth remainder as
a whole grid, which the package no longer stores. The whole-grid kernel
build and its whole-array Poisson solve keep the arithmetic that the build
on the cutoff's support and the row-blocked solve must reproduce bit for
bit. The whole-array references at the end keep the arithmetic the
solver's cache-blocked sweeps must reproduce bit for bit, and the spectral
disk masses the concentration scan's direct sums must reproduce to a few
ulps. The random smooth field that tests solve from, perturb by or take
as a curvature is drawn here as well.
"""

import math

import numpy as np
from scipy.integrate import quad

from cmlab.continuation import ScanReport
from cmlab.errors import CurvatureSignError
from cmlab.green import _R1, _R2, _node_log, _psi, _s4, cutoff, singular_part
from cmlab.grids import (Field, bilinear_torus, gauss_legendre, irfft2,
                         laplacian_factors, rfft2, sample, torus_distance)
from cmlab.measures import Divisor
from cmlab.models import cap_profile
from cmlab.solver import _CG_MAXITER, _CG_RTOL, CurvatureSpec, newton_solve

TAU = 2.0 * math.pi


def torus_nodes(n: int) -> np.ndarray:
    """The grid coordinates i/n, 0 <= i < n, of an n x n torus grid."""
    return np.arange(n) / n


def torus_mesh(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(X, Y) of the torus nodes (i/n, j/n), indexed [i, j]."""
    x = torus_nodes(n)
    return np.meshgrid(x, x, indexing="ij")


def lattice_green(x: float, y: float) -> float:
    """Mean-zero Green function of -Delta on the unit torus.

    Exponentially convergent 1-D reduced series: G = B2({y})/2 +
    sum_k cos(2 pi k x) cosh(2 pi k (1/2 - {y})) / (2 pi k sinh(pi k)),
    axes swapped so the decay direction has the larger wrapped distance.
    """
    fx = x - math.floor(x)
    fy = y - math.floor(y)
    if min(fy, 1.0 - fy) < min(fx, 1.0 - fx):
        fx, fy = fy, fx
    dist = min(fy, 1.0 - fy)
    if dist == 0.0:
        raise ValueError("series point sits on the singular axis")
    kmax = min(4000, int(7.0 / dist) + 20)
    total = 0.5 * (fy * fy - fy + 1.0 / 6.0)
    for k in range(1, kmax + 1):
        # cosh(a)/sinh(b) evaluated in log space to avoid overflow
        a = TAU * k * abs(0.5 - fy)
        b = math.pi * k
        ratio = math.exp(a - b) * (1.0 + math.exp(-2.0 * a)) / (1.0 - math.exp(-2.0 * b))
        total += math.cos(TAU * k * fx) * ratio / (TAU * k)
    return total


def whole_grid_poisson(rhs: np.ndarray) -> np.ndarray:
    """`poisson_mean_zero` in whole-array passes: the symbol k2 formed on the
    whole half spectrum, the divide masked by k2 > 0, and the inverse
    transform into a fresh array."""
    n = rhs.shape[0]
    k2 = np.add(*laplacian_factors(n))
    rhat = rfft2(rhs)
    np.divide(rhat, k2, out=rhat, where=k2 > 0)
    rhat[0, 0] = 0.0
    return irfft2(rhat, n)


def green_remainder_grid(p, n: int) -> np.ndarray:
    """The n x n grid of G_p's smooth remainder R = G + (1/2 pi) chi log d,
    solved and mean-pinned as the kernel build does, and kept whole: psi on
    every node, not only on the cutoff's support."""
    x = torus_nodes(n)
    d = torus_distance(x[:, None], x[None, :], *p)
    remainder = whole_grid_poisson(-1.0 - _psi(d))
    remainder += (0.5 * _R1 ** 2 * (math.log(_R1) - 0.5)
                  + gauss_legendre(lambda r: cutoff(r) * r * np.log(r), (_R1, _R2), 64))
    return remainder


def whole_grid_green(p, n: int) -> np.ndarray:
    """The kernel's samples G = R - (1/2 pi) chi log d with the node log
    subtracted on every node, the reference for the build on chi's support."""
    x = torus_nodes(n)
    d = torus_distance(x[:, None], x[None, :], *p)
    return green_remainder_grid(p, n) - _node_log(d, n)


def fd_neg_laplacian_periodic(values: np.ndarray) -> np.ndarray:
    """5-point -Delta with periodic wrap on the unit square grid."""
    n = values.shape[0]
    h2 = (1.0 / n) ** 2
    lap = (np.roll(values, 1, 0) + np.roll(values, -1, 0)
           + np.roll(values, 1, 1) + np.roll(values, -1, 1) - 4.0 * values)
    return -lap / h2


def quad_radial_area(profile, r_in: float, r_out: float) -> float:
    """Area of e^{2 u(r)} over an annulus for a radial profile u(r)."""
    val, _ = quad(lambda r: math.exp(2.0 * profile(r)) * r, r_in, r_out,
                  limit=400, epsabs=1e-14, epsrel=1e-13)
    return TAU * val


def quad_radial_length(profile, a: float, b: float) -> float:
    """Length of a radial segment under e^{u(r)}."""
    val, _ = quad(lambda r: math.exp(profile(r)), a, b,
                  limit=400, epsabs=1e-14, epsrel=1e-13)
    return val


def quad_ray_length_cells(sol, p, a: float, b: float) -> float:
    """Length of the ray s in [a, b] from p along +x under e^{S + v} for a
    Solution, one adaptive quadrature per grid cell the ray crosses, so no
    piece holds a kink of the bilinear reads."""
    px, py = float(p[0]), float(p[1])
    n = sol.v.n
    cuts = [k / n - px for k in range(math.floor((px + a) * n) + 1,
                                      math.ceil((px + b) * n))]
    edges = [a] + [s for s in cuts if a < s < b] + [b]

    def f(s):
        x = px + s
        return math.exp(float(sol.split.smooth_rest(None, x, py)
                              + bilinear_torus(sol.v.values, x, py)))
    return sum(quad(f, lo, hi, limit=200, epsabs=1e-15, epsrel=1e-14)[0]
               for lo, hi in zip(edges[:-1], edges[1:]))


def fd_gauss_curvature(u, x: float, y: float, h: float = 1e-4) -> float:
    """K = -e^{-2u} Delta u by central differences on a callable profile."""
    lap = (u(x + h, y) + u(x - h, y) + u(x, y + h) + u(x, y - h)
           - 4.0 * u(x, y)) / (h * h)
    return -math.exp(-2.0 * u(x, y)) * lap


# -- model closed forms ----------------------------------------------------------

def cusp_flux(r: float) -> float:
    """Circle flux of the cusp profile: 2 pi (-1 + 1/log(1/r))."""
    return TAU * (-1.0 + 1.0 / math.log(1.0 / r))


def cusp_annulus_area(s: float, t: float) -> float:
    """Area of s < r < t in the cusp metric: 2 pi (1/L(t) - 1/L(s))."""
    return TAU * (1.0 / math.log(1.0 / t) - 1.0 / math.log(1.0 / s))


def cusp_radial_length(delta: float, r0: float) -> float:
    """Radial length in the cusp metric: loglog(1/delta) - loglog(1/r0)."""
    return math.log(math.log(1.0 / delta)) - math.log(math.log(1.0 / r0))


def cone_profile(beta: float):
    """u = beta log r: a cone of angle 2 pi (beta + 1)."""
    def u(x, y):
        return beta * np.log(np.hypot(x, y))
    return u


def cone_radial_length(beta: float, delta: float, r0: float) -> float:
    return (r0 ** (beta + 1.0) - delta ** (beta + 1.0)) / (beta + 1.0)


def cap_disk_area(lam: float, r: float) -> float:
    """Area of D_r(q) under the cap metric: 4 pi r^2 / (lam^2 + r^2)."""
    return 4.0 * math.pi * r * r / (lam * lam + r * r)


def standard_bubble():
    """The lam = 1 cap centered at the origin: u = log(2/(1+|x|^2))."""
    return cap_profile(1.0)


def flat_neck_inner_radius(k: int) -> float:
    """Inner radius e^{-k^2} of the flat neck u = -log(k r)."""
    return math.exp(-float(k) * float(k))


def flat_neck_annulus_area(k: int, s: float, t: float) -> float:
    """Area of s < r < t: (2 pi / k^2) log(t/s); every e-fold gives 2 pi/k^2."""
    return TAU / float(k) ** 2 * math.log(t / s)


# -- random smooth fields --------------------------------------------------------

def random_smooth_field(n: int, rng: np.random.Generator,
                        amplitude: float = 2.0) -> Field:
    """Random periodic field of modes |kx|, |ky| <= 3 with sup-norm <= amplitude."""
    X, Y = torus_mesh(n)
    out = np.zeros((n, n))
    for _ in range(6):
        kx, ky = (int(q) for q in rng.integers(-3, 4, size=2))
        out += (rng.normal() * np.cos(TAU * (kx * X + ky * Y))
                + rng.normal() * np.sin(TAU * (kx * X + ky * Y)))
    sup = float(np.abs(out).max())
    if sup > 0:
        out *= amplitude * float(rng.uniform(0.25, 1.0)) / sup
    return Field(out)


# -- translation spread ----------------------------------------------------------

def translation_spread(beta: float, f: float, n: int,
                       K=lambda x, y: np.full(np.shape(x), -1.0)) -> float:
    """A lower bound on the discretisation error of v with no exact solution.

    The continuum problem is invariant under translation, the grid is not.
    One cone of weight beta is solved with its atom at
    p = ((round(0.3 n) + 0.21)/n, (round(0.7 n) + 0.33)/n), a fixed sub-cell
    offset at every n, and again with the atom and the callable curvature K
    moved by f/n in x. The first v is moved the same way spectrally,
    v1(x - f/n), by the phase e^{-2 pi i k_x f/n} with the Nyquist row and
    column dropped, and the spread is the sup of |v2 - v1(x - f/n)| over
    the nodes more than 0.1 from p. A shift by whole cells is a symmetry of
    the grid, so there only the dropped Nyquist modes remain.
    """
    p = ((round(0.3 * n) + 0.21) / n, (round(0.7 * n) + 0.33) / n)
    problems = ((p, K), ((p[0] + f / n, p[1]), lambda x, y: K(x - f / n, y)))
    v1, v2 = (newton_solve(CurvatureSpec(sample(k, n)),
                           singular_part(Divisor((a,), (beta,)), n)).v.values
              for a, k in problems)
    kx = np.fft.fftfreq(n, 1.0 / n)
    spec = np.fft.rfft2(v1) * np.exp(-2j * math.pi * kx[:, None] * f / n)
    spec[n // 2, :] = 0.0
    spec[:, n // 2] = 0.0
    x = torus_nodes(n)
    far = torus_distance(x[:, None], x[None, :], *p) > 0.1
    return float(np.abs(v2 - np.fft.irfft2(spec, s=(n, n)))[far].max())


# -- whole-array references for the solver's block sweeps ------------------------

def whole_array_singular(split) -> np.ndarray:
    """S = -2 pi sum_i beta_i G_i summed from zero over whole arrays, in the
    divisor's order: the reference for S formed a row block at a time."""
    S = np.zeros((split.n, split.n))
    for beta, g in zip(split.divisor.betas, split.greens):
        S = S - TAU * beta * g.samples
    return S


def whole_array_cg(op, W, shift, b, tol):
    """The solver's preconditioned CG with every pass over whole arrays:
    (x, -Delta x, iterations, capped), the reference for the blocked `_cg`."""
    n = op.n
    denom = np.add(*laplacian_factors(n)) + shift
    r = b.copy()
    zhat = rfft2(r)
    zhat /= denom
    p = irfft2(zhat, n)
    lp = np.subtract(r, np.multiply(p, shift))
    x = np.zeros_like(r)
    rz = float(np.multiply(r, p).sum())
    stop = max(_CG_RTOL * math.sqrt(float(np.multiply(b, b).sum())), 0.5 * tol)
    capped = True
    for iters in range(1, _CG_MAXITER + 1):
        Ap = np.multiply(W, p) + lp
        pAp = float(np.multiply(p, Ap).sum())
        if pAp <= 0.0:
            raise CurvatureSignError("non-positive curvature direction")
        alpha = rz / pAp
        x += np.multiply(p, alpha)
        r -= np.multiply(Ap, alpha)
        if math.sqrt(float(np.multiply(r, r).sum())) <= stop:
            capped = False
            break
        zhat = rfft2(r)
        zhat /= denom
        z = irfft2(zhat, n)
        rz_next = float(np.multiply(r, z).sum())
        beta = rz_next / rz
        p = np.multiply(p, beta) + z
        lp = np.multiply(lp, beta) + np.subtract(r, np.multiply(z, shift))
        rz = rz_next
    return x, np.subtract(b, r) - np.multiply(W, x), iters, capped


def whole_grid_blended_sum(u2, px: float, py: float) -> float:
    """Sum of (1 - s4) u2 over the nodes within 8/n of (px, py), read off
    distances over the whole grid."""
    n = u2.shape[0]
    r_na, r_bl = 4.0 / n, 8.0 / n
    X, Y = torus_mesh(n)
    d = torus_distance(X, Y, px, py)
    near = d < r_bl
    blend = _s4((d[near] - r_na) / (r_bl - r_na))
    return float(((1.0 - blend) * u2[near]).sum())


def convolution_scan(sol, radii, threshold: float = 1.0):
    """`no_bubble_scan` by periodic convolution: every node's disk masses of
    |K| e^{2u} and e^{2u} from the transforms of the densities and of the disk
    indicator, then read off the same 16 x 16 centers with the same
    exclusion and threshold rule."""
    u = sol.u_values
    n = u.shape[0]
    K = sol.spec.values(n)
    e2u = np.exp(2.0 * u)
    mass_hat = rfft2(np.abs(K) * e2u / (n * n))
    area_hat = rfft2(e2u / (n * n))
    x = torus_nodes(n)
    d0 = torus_distance(x[:, None], x[None, :], 0.0, 0.0)
    idx = np.arange(0, n, max(1, n // 16))
    cx, cy = np.meshgrid(idx, idx, indexing="ij")
    max_mass = max_area = 0.0
    flags = []
    scanned = 0
    for r in radii:
        dhat = rfft2((d0 <= r).astype(float))
        masses = irfft2(mass_hat * dhat, n)
        areas = irfft2(area_hat * dhat, n)
        keep = np.ones(cx.shape, dtype=bool)
        for ax, ay in sol.split.divisor.points:
            keep &= torus_distance(cx / n, cy / n, ax, ay) > r + 8.0 / n
        scanned += int(keep.sum())
        m_here = masses[cx, cy]
        max_mass = max(max_mass, float(m_here[keep].max()))
        max_area = max(max_area, float(areas[cx, cy][keep].max()))
        for i, j in zip(*np.nonzero(keep & (m_here >= threshold))):
            flags.append(((float(cx[i, j]) / n, float(cy[i, j]) / n),
                          float(r), float(m_here[i, j])))
    return ScanReport(radii=tuple(float(r) for r in radii), max_mass=max_mass,
                      max_area=max_area, flags=tuple(flags), centers_scanned=scanned)
