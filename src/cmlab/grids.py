"""Scalar sample grids on the three charts used throughout the laboratory.

A Field is an n-by-n array of samples of a scalar (usually a log-conformal
factor) together with a chart describing where the samples live:

* ``TorusChart``    -- the unit flat torus [0,1)^2, periodic in both axes,
  samples at (i/n, j/n); supports exact spectral calculus.
* ``DiskChart``     -- a planar window [-R, R]^2, node-centered samples at
  spacing h = 2R/(n-1); for even n the origin falls between nodes, so
  fields with a log singularity at the origin stay finite.
* ``LogPolarChart`` -- an annulus r_inner <= |x| <= r_outer sampled
  uniformly in (log r, theta), rows including both radial endpoints.
  This is the natural chart for inversions and neck diagnostics.

All operations treat Field values as immutable.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TAU = 2.0 * math.pi


def get_workers() -> int:
    """Worker count for FFT calls: the CML_THREADS env var, 1 when unset.

    A value that is not an integer of at least 1 raises ValueError.
    """
    raw = os.environ.get("CML_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError as exc:
        raise ValueError(f"CML_THREADS must be an integer, got {raw!r}") from exc
    if workers < 1:
        raise ValueError(f"CML_THREADS must be at least 1, got {raw!r}")
    return workers


def rfft2(a: np.ndarray) -> np.ndarray:
    """Half spectrum of a real n-by-n array: shape (n, n//2 + 1).

    ``scipy.fft`` is imported here, not at module level, so that commands
    which never transform (the bubble and measure diagnostics) start
    without loading it.
    """
    import scipy.fft

    return scipy.fft.rfft2(a, workers=get_workers())


def irfft2(a: np.ndarray, n: int) -> np.ndarray:
    """Real n-by-n array from its half spectrum (inverse of ``rfft2``)."""
    import scipy.fft

    return scipy.fft.irfft2(a, s=(n, n), workers=get_workers())


@dataclass(frozen=True)
class TorusChart:
    def descriptor(self) -> str:
        return "torus"

    def nodes(self, n: int) -> np.ndarray:
        return np.arange(n) / n

    def mesh(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        x = self.nodes(n)
        return np.meshgrid(x, x, indexing="ij")


@dataclass(frozen=True)
class DiskChart:
    radius: float

    def __post_init__(self):
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError("disk chart radius must be positive and finite")

    def descriptor(self) -> str:
        return f"disk {self.radius:.17g}"

    def spacing(self, n: int) -> float:
        return 2.0 * self.radius / (n - 1)

    def nodes(self, n: int) -> np.ndarray:
        return -self.radius + self.spacing(n) * np.arange(n)

    def mesh(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        x = self.nodes(n)
        return np.meshgrid(x, x, indexing="ij")


@dataclass(frozen=True)
class LogPolarChart:
    r_inner: float
    r_outer: float

    def __post_init__(self):
        ok = 0 < self.r_inner < self.r_outer and math.isfinite(self.r_outer)
        if not ok:
            raise ValueError("log-polar chart needs 0 < r_inner < r_outer < inf")

    def descriptor(self) -> str:
        return f"logpolar {self.r_inner:.17g} {self.r_outer:.17g}"

    def s_nodes(self, n: int) -> np.ndarray:
        return np.linspace(math.log(self.r_inner), math.log(self.r_outer), n)

    def theta_nodes(self, n: int) -> np.ndarray:
        return TAU * np.arange(n) / n

    def mesh(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Cartesian coordinates of the samples; values[i,j] at radius row i."""
        s, th = np.meshgrid(self.s_nodes(n), self.theta_nodes(n), indexing="ij")
        r = np.exp(s)
        return r * np.cos(th), r * np.sin(th)


Chart = TorusChart | DiskChart | LogPolarChart


def parse_descriptor(line: str) -> Chart:
    parts = line.strip().split()
    if parts and parts[0] == "torus" and len(parts) == 1:
        return TorusChart()
    if parts and parts[0] == "disk" and len(parts) == 2:
        return DiskChart(float(parts[1]))
    if parts and parts[0] == "logpolar" and len(parts) == 3:
        return LogPolarChart(float(parts[1]), float(parts[2]))
    raise ValueError(f"unrecognized chart descriptor: {line!r}")


@dataclass
class Field:
    """n-by-n scalar samples on a chart; n >= 8 and a power of two."""

    values: np.ndarray
    chart: Chart

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("Field values must be a square 2-D array")
        n = v.shape[0]
        if n < 8 or n & (n - 1):
            raise ValueError(f"grid resolution must be a power of two >= 8, got {n}")
        if not np.all(np.isfinite(v)):
            raise ValueError("Field values must be finite")
        self.values = v

    @property
    def n(self) -> int:
        return self.values.shape[0]


def sample(func, chart: Chart, n: int) -> Field:
    """Rasterize a callable u(x, y) on a chart."""
    X, Y = chart.mesh(n)
    return Field(np.asarray(func(X, Y), dtype=float), chart)


def constant(value: float, chart: Chart, n: int) -> Field:
    return Field(np.full((n, n), float(value)), chart)


# -- spectral helpers on the torus -----------------------------------------
#
# Every torus field is real, so all spectral work uses the half spectrum
# returned by ``rfft2``.

@lru_cache(maxsize=32)
def half_laplacian_multiplier(n: int) -> np.ndarray:
    """Symbol of -Delta on the unit torus, (2 pi k)^2 per Fourier mode, on
    the (n, n//2 + 1) half spectrum of ``rfft2``."""
    kx = np.fft.fftfreq(n, d=1.0 / n)[:, None]
    ky = np.fft.rfftfreq(n, d=1.0 / n)[None, :]
    out = (TAU * kx) ** 2 + (TAU * ky) ** 2
    out.setflags(write=False)
    return out


def neg_laplacian(values: np.ndarray) -> np.ndarray:
    """-Delta u for periodic samples, spectrally exact in the trig basis."""
    n = values.shape[0]
    return irfft2(half_laplacian_multiplier(n) * rfft2(values), n)


def poisson_mean_zero(rhs: np.ndarray) -> np.ndarray:
    """Samples of the mean-zero w with -Delta w = rhs - mean(rhs) on the torus."""
    n = rhs.shape[0]
    k2 = half_laplacian_multiplier(n)
    rhat = rfft2(rhs)
    what = np.zeros_like(rhat)
    mask = k2 > 0
    what[mask] = rhat[mask] / k2[mask]
    return irfft2(what, n)


def wrap_half(a: np.ndarray) -> np.ndarray:
    """Reduce periodic offsets to the nearest image in [-1/2, 1/2)."""
    return a - np.round(a)


def torus_distance(x, y, px: float, py: float) -> np.ndarray:
    return np.hypot(wrap_half(np.asarray(x) - px), wrap_half(np.asarray(y) - py))


# -- interpolation ----------------------------------------------------------

def _bilinear_periodic(grid: np.ndarray, fi: np.ndarray, fj: np.ndarray) -> np.ndarray:
    n = grid.shape[0]
    i0 = np.floor(fi).astype(int)
    j0 = np.floor(fj).astype(int)
    ti = fi - i0
    tj = fj - j0
    i0 %= n
    j0 %= n
    i1 = (i0 + 1) % n
    j1 = (j0 + 1) % n
    return (grid[i0, j0] * (1 - ti) * (1 - tj) + grid[i1, j0] * ti * (1 - tj)
            + grid[i0, j1] * (1 - ti) * tj + grid[i1, j1] * ti * tj)


def bilinear_torus(grid: np.ndarray, x, y) -> np.ndarray:
    """Periodic bilinear interpolation of torus samples at points (x, y)."""
    n = grid.shape[0]
    return _bilinear_periodic(grid, np.asarray(x) * n, np.asarray(y) * n)


def interpolate(field: Field, x, y) -> np.ndarray:
    """Bilinear interpolation in the chart's natural coordinates.

    Each chart maps the points to fractional grid indices and all three
    share the periodic kernel. A non-periodic index (both disk axes, the
    log-polar s axis) is clipped to [0, n-1-1e-12], so its lower node is at
    most n-2 and the kernel's wrap to node 0 never fires there: the result
    is the plain bilinear value. Points within a relative 1e-12 of the
    chart's edge are accepted, so every node can be read back.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    c = field.chart
    n = field.n
    if isinstance(c, TorusChart):
        return bilinear_torus(field.values, x, y)
    top = n - 1 - 1e-12
    if isinstance(c, DiskChart):
        reach = c.radius * (1 + 1e-12)
        if np.any(np.abs(x) > reach) or np.any(np.abs(y) > reach):
            raise ValueError("interpolation point outside the disk chart window")
        h = c.spacing(n)
        fi = np.clip((x + c.radius) / h, 0, top)
        fj = np.clip((y + c.radius) / h, 0, top)
    else:
        r = np.hypot(x, y)
        if np.any(r < c.r_inner * (1 - 1e-12)) or np.any(r > c.r_outer * (1 + 1e-12)):
            raise ValueError("interpolation point outside the log-polar annulus")
        s0 = math.log(c.r_inner)
        ds = (math.log(c.r_outer) - s0) / (n - 1)
        fi = np.clip((np.log(r) - s0) / ds, 0, top)
        fj = (np.arctan2(y, x) % TAU) / (TAU / n)
    return _bilinear_periodic(field.values, fi, fj)


# -- quadrature -------------------------------------------------------------

@lru_cache(maxsize=16)
def _leggauss(m: int):
    return np.polynomial.legendre.leggauss(m)


def gauss_legendre(f, a: float, b: float, m: int, panels: int = 1) -> float:
    """Integral of f (array of nodes -> array of values) over [a, b] by the
    m-node Gauss-Legendre rule on `panels` equal panels; exact to degree 2m - 1."""
    t, w = _leggauss(m)
    edges = np.linspace(a, b, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        vals = f(0.5 * (lo + hi) + 0.5 * (hi - lo) * t)
        total += 0.5 * (hi - lo) * float((w * vals).sum())
    return total


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return w


def integral(field: Field) -> float:
    """Integral of the sampled scalar over the chart domain.

    Torus: exact mean (unit area). Disk: 2-D trapezoid over the window.
    Log-polar: includes the r dr dtheta area element, trapezoid in log r.
    """
    c = field.chart
    v = field.values
    if isinstance(c, TorusChart):
        return float(v.mean())
    if isinstance(c, DiskChart):
        w = _trapezoid_weights(field.n, c.spacing(field.n))
        return float(w @ v @ w)
    s = c.s_nodes(field.n)
    ws = _trapezoid_weights(field.n, s[1] - s[0]) * np.exp(2.0 * s)
    return float((ws @ v).sum() * (TAU / field.n))


def conformal_area(field: Field) -> float:
    """Area of the metric e^{2u}|dx|^2 over the chart domain, u = samples."""
    c = field.chart
    u = field.values
    if isinstance(c, LogPolarChart):
        s = c.s_nodes(field.n)
        ws = _trapezoid_weights(field.n, s[1] - s[0])
        return float((ws @ np.exp(2.0 * (u + s[:, None]))).sum() * (TAU / field.n))
    return integral(Field(np.exp(2.0 * u), c))
