"""Independent reference implementations backing the test expectations.

Deliberately different algorithms from the package: direct lattice series,
finite-difference stencils, and adaptive quadrature, so agreement between
the two is evidence, not tautology.
"""

import math

import numpy as np
from scipy.integrate import quad

from cmlab.grids import bilinear_torus

TAU = 2.0 * math.pi


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


def cell_log_mean_quad() -> float:
    """Mean of log(hypot(x, y)) over the unit cell [-1/2, 1/2]^2 via nested
    adaptive quadrature (for the FFT self-cell constant)."""
    def inner(x):
        val, _ = quad(lambda y: math.log(math.hypot(x, y)), 0.0, 0.5,
                      limit=200, epsabs=1e-13, epsrel=1e-12)
        return val
    outer, _ = quad(inner, 0.0, 0.5, limit=200, epsabs=1e-12, epsrel=1e-11)
    return 4.0 * outer
