"""Scalar sample grids on the unit flat torus, the one chart of the laboratory.

A Field is an n-by-n array of samples of a scalar (usually a log-conformal
factor) on the unit flat torus [0,1)^2, periodic in both axes, with
samples at (i/n, j/n). It supports exact spectral calculus.

All operations treat Field values as immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TAU = 2.0 * math.pi
MIN_N = 8  # the smallest grid: a Field's n is a power of two >= MIN_N
_BLOCK = 2 ** 15  # elements per sweep block: 256 KiB of float64, about one L2


def _check_grid(n: int) -> None:
    """Raise ValueError unless n is a power of two >= MIN_N."""
    if n < MIN_N or n & (n - 1):
        raise ValueError(f"grid resolution must be a power of two >= {MIN_N}, got {n}")


def _blocks(n: int) -> list:
    """Equal row slices of _BLOCK elements (one when n^2 <= _BLOCK); 2^k of them."""
    rows = min(n, max(1, _BLOCK // n))
    return [slice(i, i + rows) for i in range(0, n, rows)]


def rfft2(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Half spectrum of a real n-by-n array: shape (n, n//2 + 1).

    Two passes of numpy's pocketfft, real along the rows and then complex
    in place down the columns, single-threaded. At the power-of-two sizes
    a Field allows, this pair equals ``scipy.fft.rfft2``/``irfft2`` bit for
    bit, and no solve needs to import scipy. A complex `out` of that shape
    receives the result, and the call allocates no n-by-n array.
    """
    out = np.fft.rfft(a, axis=1, out=out)
    return np.fft.fft(out, axis=0, out=out)


def irfft2(a: np.ndarray, n: int, out: np.ndarray | None = None,
           block: np.ndarray | None = None) -> np.ndarray:
    """Real n-by-n array from its half spectrum (inverse of ``rfft2``).

    A real n-by-n `out` receives the result; then the column pass runs in
    place on `a`, which is overwritten. The row pass then runs over the
    increasing row blocks of `_blocks(n)`, each transformed into `block`, a
    real array of one block's shape (allocated once when not given), and
    copied into `out`; with `block` given the call allocates nothing. So
    `out` may alias the head of `a`'s buffer (its first n^2 of n(n + 2)
    doubles): row block [i, i + B) of `out` ends at (i + B) n doubles,
    before row i + B of `a` starts at (i + B)(n + 2), so every row is read
    before it is overwritten. Unstaged, numpy would copy each input block
    that overlaps its output block: every block when `out` is at `a`'s
    head, 257.9 KiB a block at n = 1024. The result is the same bit for
    bit either way.
    """
    if out is None:
        return np.fft.irfft(np.fft.ifft(a, axis=0), n, axis=1)
    np.fft.ifft(a, axis=0, out=a)
    blocks = _blocks(n)
    if block is None:
        block = np.empty((blocks[0].stop, n))
    for s in blocks:
        np.copyto(out[s], np.fft.irfft(a[s], n, axis=1, out=block))
    return out


@dataclass
class Field:
    """n-by-n scalar samples on the torus; n >= MIN_N and a power of two."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("Field values must be a square 2-D array")
        _check_grid(v.shape[0])
        if not np.all(np.isfinite(v)):
            raise ValueError("Field values must be finite")
        self.values = v

    @property
    def n(self) -> int:
        return self.values.shape[0]


def sample(func, n: int) -> Field:
    """Rasterize a callable u(x, y) on the torus nodes (i/n, j/n)."""
    x = np.arange(n) / n
    X, Y = np.meshgrid(x, x, indexing="ij")
    return Field(np.asarray(func(X, Y), dtype=float))


def constant(value: float, n: int) -> Field:
    return Field(np.full((n, n), float(value)))


# -- spectral helpers on the torus -----------------------------------------
#
# Every torus field is real, so all spectral work uses the half spectrum
# returned by ``rfft2``.

def laplacian_factors(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two 1-D factors of the symbol of -Delta on the unit torus:
    (2 pi k_x)^2 as an (n, 1) column and (2 pi k_y)^2 as a (1, n//2 + 1)
    row, whose sum is the symbol on the half spectrum of ``rfft2``."""
    kx = np.fft.fftfreq(n, d=1.0 / n)[:, None]
    ky = np.fft.rfftfreq(n, d=1.0 / n)[None, :]
    return (TAU * kx) ** 2, (TAU * ky) ** 2


def neg_laplacian(values: np.ndarray) -> np.ndarray:
    """-Delta u for periodic samples, spectrally exact in the trig basis."""
    n = values.shape[0]
    return irfft2(np.add(*laplacian_factors(n)) * rfft2(values), n)


def poisson_mean_zero(rhs: np.ndarray) -> np.ndarray:
    """Samples of the mean-zero w with -Delta w = rhs - mean(rhs) on the torus.

    The spectrum is divided by the symbol a row block at a time, and w is
    transformed back into the head of the spectrum's own buffer (``irfft2``):
    the result is a view that shares that buffer of n(n + 2) doubles.
    """
    n = rhs.shape[0]
    kx2, ky2 = laplacian_factors(n)
    rhat = rfft2(rhs)
    for s in _blocks(n):
        k2 = kx2[s] + ky2
        np.divide(rhat[s], k2, out=rhat[s], where=k2 > 0)
    rhat[0, 0] = 0.0
    return irfft2(rhat, n, out=rhat.view(float).reshape(-1)[:n * n].reshape(n, n))


def wrap_half(a: np.ndarray) -> np.ndarray:
    """Reduce periodic offsets to the nearest image in [-1/2, 1/2)."""
    return a - np.round(a)


def finite_point(p, name: str = "p") -> tuple[float, float]:
    """(x, y) of the point p as floats; a ValueError naming it unless finite."""
    x, y = float(p[0]), float(p[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"{name} = {p} is not a finite point")
    return x, y


def torus_distance(x, y, px: float, py: float) -> np.ndarray:
    return np.hypot(wrap_half(np.asarray(x) - px), wrap_half(np.asarray(y) - py))


def circle_points(center, r, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) of the m points center + r (cos, sin)(2 pi j / m); an r of
    shape (k, 1) gives one row per radius."""
    th = TAU * np.arange(m) / m
    return center[0] + r * np.cos(th), center[1] + r * np.sin(th)


def on_circles(u, center, r, x, y) -> np.ndarray:
    """Callable u at the points (x, y), row i on or beside the circle
    |x - center| = r_i, a scalar u broadcast to them. Raises ValueError
    (numpy's warnings silenced) when u is not finite on a row."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        vals = np.broadcast_to(np.asarray(u(x, y), dtype=float), np.shape(x))
    bad = ~np.isfinite(vals).all(axis=-1)
    if bad.any():
        raise ValueError(f"profile is not finite on the circle of radius "
                         f"{float(np.asarray(r)[bad][0]):.6g} about "
                         f"{tuple(map(float, center))}")
    return vals


# -- interpolation ----------------------------------------------------------

def _gather(grid: np.ndarray):
    return lambda I, J: (grid[i, j] for i, j in zip(I, J))


def _finite_points(x, y) -> tuple[np.ndarray, np.ndarray]:
    """x and y as float arrays; a ValueError naming the one that is not finite."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    for name, a in (("x", x), ("y", y)):
        if not np.isfinite(a).all():
            raise ValueError(f"interpolation point {name} is not finite")
    return x, y


def bilinear_torus(grid, x, y, n: int | None = None) -> np.ndarray:
    """Periodic bilinear interpolation of torus samples at points (x, y).

    `grid` is the n-by-n array of samples, or a callable grid(I, J) that
    returns the samples at the four node-index pairs (I[k], J[k]); then n
    is required. A non-finite x or y raises a ValueError naming it.
    """
    x, y = _finite_points(x, y)
    if callable(grid):
        corners = grid
    else:
        corners, n = _gather(grid), grid.shape[0]
    fi, fj = x * n, y * n
    i0 = np.floor(fi).astype(int)
    j0 = np.floor(fj).astype(int)
    ti = fi - i0
    tj = fj - j0
    i0 %= n
    j0 %= n
    i1 = (i0 + 1) % n
    j1 = (j0 + 1) % n
    c00, c10, c01, c11 = corners((i0, i1, i0, i1), (j0, j0, j1, j1))
    return (c00 * (1 - ti) * (1 - tj) + c10 * ti * (1 - tj)
            + c01 * (1 - ti) * tj + c11 * ti * tj)


def interpolate(field: Field, x, y) -> np.ndarray:
    """Periodic bilinear interpolation of a Field at points (x, y):
    ``bilinear_torus`` of its samples."""
    return bilinear_torus(field.values, x, y)


# -- quadrature -------------------------------------------------------------

@lru_cache(maxsize=16)
def _leggauss(m: int):
    return np.polynomial.legendre.leggauss(m)


# nodes per call of a quadrature's integrand, in whole panels: f's working
# set stays bounded however many panels there are (at 128 the circle
# integrands, 128 angles per node, keep the diagnostics' peak RSS of one
# panel per call), and radial_length makes a quarter of the calls
_QUAD_NODES = 128


def gauss_legendre(f, edges, m: int) -> float:
    """Integral of f (array of nodes -> array of values, node by node) over
    the panels between consecutive `edges`: the m-node Gauss-Legendre rule
    on each, exact to degree 2m - 1, and the panel terms added in order.
    f is called on the nodes of as many whole panels as fit in
    `_QUAD_NODES` (at least one), panel after panel."""
    t, w = _leggauss(m)
    edges = np.asarray(edges, dtype=float)
    lows, highs = edges[:-1, None], edges[1:, None]
    step = max(1, _QUAD_NODES // m)
    total = 0.0
    for k0 in range(0, len(lows), step):
        lo, hi = lows[k0:k0 + step], highs[k0:k0 + step]
        nodes = (0.5 * (lo + hi) + 0.5 * (hi - lo) * t).ravel()
        vals = np.broadcast_to(f(nodes), nodes.shape).reshape(len(lo), m)
        for k in range(len(lo)):
            total += 0.5 * (hi[k, 0] - lo[k, 0]) * float((w * vals[k]).sum())
    return total


def integral(field: Field) -> float:
    """Integral of the sampled scalar over the torus: the exact mean (unit area)."""
    return float(field.values.mean())
