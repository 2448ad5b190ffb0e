"""Green's function of the Laplacian on the unit flat torus.

The kernel G_p solves -Delta G_p = delta_p - 1 with zero mean. Dirac data
cannot be sampled, so the construction splits off the logarithm
analytically: G = R - (1/2 pi) chi(d) log d, with chi a C^4 cutoff equal to
1 for d <= 1/8 and 0 for d >= 3/8 (nearest-image distance d). The smooth
remainder R solves -Delta R = -(1 + psi) spectrally, where psi collects the
cutoff's commutator terms; near an atom every evaluation goes through the
analytic log plus R, never through raw grid samples of G. A kernel keeps
one grid, the samples of G that S is summed from; R is rebuilt from them
at the nodes an off-grid read touches. The build evaluates psi and the
log term only on chi's support d < 3/8; off it both vanish, so the
samples have the bits of a build over the whole grid.

The singular part of a conformal factor for a divisor is
S = -2 pi * sum_i beta_i G_{p_i}, so that -Delta S has atoms
-2 pi beta_i delta_{p_i} plus the constant 2 pi sum_i beta_i. S is not
stored: a split keeps the cached kernels, and S is formed where it is read,
a row block at a time by ``_singular_rows`` (the solver's sweeps form each
block inside e^{2u}'s own), so a split holds no n-by-n array of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grids import (TAU, Field, _blocks, _finite_points, bilinear_torus, finite_point,
                    poisson_mean_zero, torus_distance)
from .measures import Divisor

_R1 = 0.125
_R2 = 0.375
_W = _R2 - _R1


def _s4(t: np.ndarray) -> np.ndarray:
    """C^4 smoothstep on [0,1]: integral of 630 t^4 (1-t)^4, normalized."""
    t = np.clip(t, 0.0, 1.0)
    return t ** 5 * (126.0 + t * (-420.0 + t * (540.0 + t * (-315.0 + t * 70.0))))


def cutoff(d: np.ndarray) -> np.ndarray:
    """chi(d): 1 inside d <= 1/8, 0 outside d >= 3/8, C^4 in between."""
    return 1.0 - _s4((np.asarray(d, dtype=float) - _R1) / _W)


def _psi(d: np.ndarray) -> np.ndarray:
    """Laplacian of -(1/2 pi) chi log d away from the atom (the cutoff tail)."""
    d = np.asarray(d, dtype=float)
    out = np.zeros_like(d)
    band = (d > _R1) & (d < _R2)
    db = d[band]
    t = (db - _R1) / _W  # exactly in (0, 1) on the open band
    c1 = -(630.0 * t ** 4 * (1.0 - t) ** 4) / _W  # chi'(d)
    c2 = -(2520.0 * t ** 3 * (1.0 - t) ** 3 * (1.0 - 2.0 * t)) / (_W * _W)  # chi''(d)
    out[band] = (np.log(db) * (c2 + c1 / db) + 2.0 * c1 / db) / TAU
    return out


def _node_log(d: np.ndarray, n: int) -> np.ndarray:
    """(1/2 pi) chi(d) log d at the node distances d of an n x n grid, d
    clamped to 1/(1024 n): a node on the atom gets a finite stand-in."""
    return cutoff(d) * np.log(np.maximum(d, 1.0 / (1024.0 * n))) / TAU


@dataclass(frozen=True)
class TorusGreen:
    """Tabulated kernel for one atom: its one grid, the samples of G, from
    which R = G + (1/2 pi) chi log d is rebuilt at the nodes a read
    touches, plus the analytic log."""

    p: tuple
    n: int
    samples: np.ndarray

    def remainder_at(self, x, y) -> np.ndarray:
        """R off the grid: bilinear in its node values samples + node log,
        the four corners rebuilt in one pass (x and y are broadcast first,
        so the corner index arrays stack)."""
        n = self.n

        def corners(I, J):
            i, j = np.stack(I), np.stack(J)
            return self.samples[i, j] + _node_log(torus_distance(i / n, j / n, *self.p), n)
        return bilinear_torus(corners, *np.broadcast_arrays(x, y), n)

    def eval(self, x, y) -> np.ndarray:
        """G_p off the grid: bilinear remainder (read first: it checks the
        points) + analytic cutoff log."""
        R = self.remainder_at(x, y)
        d = np.maximum(torus_distance(x, y, *self.p), 1e-300)
        return R - cutoff(d) * np.log(d) / TAU


# pins the continuum mean of G to zero: mean(R) = (1/2pi) int chi log d, the
# disk d <= 1/8 analytic and the cutoff band int chi(r) r log r dr over
# [1/8, 3/8] written out as its 64-node Gauss-Legendre value (the tests pin
# the two together), so a kernel build runs no quadrature
_BAND = -0.039072642211540484
_MEAN_PIN = 0.5 * _R1 ** 2 * (math.log(_R1) - 0.5) + _BAND


# 16 kernels hold 128 MiB at n = 1024, one 8 MiB grid each (the head of a
# buffer of n(n + 2) doubles, the spectrum its Poisson solve transformed
# back into). A solve reads one key per atom, its own grid's (its n/4
# levels inject S): a 3-atom cone solved twice at n = 1024 misses 3 times
# and hits 3, a 5-cusp n = 256 ladder (k_max = 10) misses 5 times and hits
# 45. Solves of up to 16 atoms fit; with more, each repeated solve or
# ladder stage rebuilds every kernel
@lru_cache(maxsize=16)
def _green_cached(px: float, py: float, n: int) -> TorusGreen:
    x = np.arange(n) / n
    d = torus_distance(x[:, None], x[None, :], px, py).reshape(-1)
    # psi and the node log vanish off chi's support d < 3/8 (44% of the nodes),
    # so they are evaluated there alone and scattered: off it -1 - psi is -1,
    # and subtracting the node log, -0.0, changes no nonzero sample's bits
    near = np.flatnonzero(d < _R2)
    d = d[near]
    rhs = np.full((n, n), -1.0)
    rhs.reshape(-1)[near] -= _psi(d)
    # the smooth remainder R, formed only to build the samples G = R - node log
    samples = poisson_mean_zero(rhs)
    samples += _MEAN_PIN
    samples.reshape(-1)[near] -= _node_log(d, n)
    samples.setflags(write=False)
    return TorusGreen((px, py), n, samples)


def green_kernel(p, n: int) -> TorusGreen:
    px, py = finite_point(p)
    return _green_cached(px, py, int(n))


def green_torus(p, n: int) -> Field:
    """Grid samples of the mean-zero kernel G_p on an n x n torus grid."""
    return Field(np.array(green_kernel(p, n).samples))


def _atom_on_node(p, n: int) -> bool:
    fx = abs(p[0] * n - round(p[0] * n))
    fy = abs(p[1] * n - round(p[1] * n))
    return max(fx, fy) < 1e-8


def _singular_rows(terms: tuple, s: slice, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Rows `s` of S = (0 - c_1 G_1) - c_2 G_2 - ... from the terms
    (c_i, G_i samples), c_i = 2 pi beta_i, written into `out`; `tmp`, of
    out's shape, takes the products. 0 - x = -x and (-c) G = -(c G) in
    floating point, so the first term is one product and every bit is that
    of the sum in this order (but for the sign of a zero product)."""
    if not terms:
        out.fill(0.0)
        return out
    (c, G), *rest = terms
    np.multiply(G[s], -c, out=out)
    for c, G in rest:
        out -= np.multiply(G[s], c, out=tmp)
    return out


def _singular_sum(terms: tuple, n: int) -> np.ndarray:
    """S on the whole n x n grid from its terms, formed a row block at a time."""
    blocks = _blocks(n)
    S, tmp = np.empty((n, n)), np.empty((blocks[0].stop, n))
    for s in blocks:
        _singular_rows(terms, s, S[s], tmp)
    return S


@dataclass(frozen=True)
class SingularSplit:
    """Decomposition u = S + v: S carries the divisor's log singularities.
    The split keeps the divisor, the cached kernels and the grid; S is
    formed from them where it is read."""

    divisor: Divisor
    greens: tuple
    n: int

    @property
    def beta_sum(self) -> float:
        return self.divisor.beta_sum

    @property
    def terms(self) -> tuple:
        """(2 pi beta_i, G_i samples) per atom: S = -sum_i 2 pi beta_i G_i."""
        return tuple((TAU * b, g.samples) for b, g in zip(self.divisor.betas, self.greens))

    @property
    def S(self) -> Field:
        """S on the grid, formed afresh (an n x n array per read)."""
        return Field(_singular_sum(self.terms, self.n))

    def smooth_rest(self, i: int | None, x, y) -> np.ndarray:
        """S - beta_i log|x - p_i|, evaluated stably near atom i; S if i is None.

        Assembled from the kernels' remainders so that no large logs
        cancel: the i-th atom contributes beta_i (chi(d) - 1) log d, which
        vanishes identically inside the cutoff core. A non-finite x or y
        raises a ValueError naming it, with or without atoms.
        """
        x, y = _finite_points(x, y)
        betas = self.divisor.betas
        out = np.zeros(np.broadcast(x, y).shape)
        for j, g in enumerate(self.greens):
            out -= TAU * betas[j] * g.remainder_at(x, y)
            d = np.maximum(torus_distance(x, y, *g.p), 1e-300)
            out += betas[j] * (cutoff(d) - (j == i)) * np.log(d)
        return out


def singular_part(div: Divisor, n: int) -> SingularSplit:
    """S = -2 pi sum_i beta_i G_{p_i} with per-atom kernels retained.

    Atoms must not coincide with grid nodes: e^{2S} is unbounded there for
    negative weights and the sampled equation would be meaningless. A
    weight that makes S overflow is refused as well.
    """
    for p in div.points:
        if _atom_on_node(p, n):
            raise ValueError(
                f"atom {p} lies on a grid node at n={n}; perturb it or change n")
    greens = tuple(green_kernel(p, n) for p in div.points)
    split = SingularSplit(div, greens, n)
    # S is checked a row block at a time, as it is formed wherever it is read
    blocks, terms = _blocks(n), split.terms
    block, tmp = (np.empty((blocks[0].stop, n)) for _ in range(2))
    for s in blocks:
        if not np.isfinite(np.abs(_singular_rows(terms, s, block, tmp), out=tmp).max()):
            raise ValueError(f"Field values must be finite: S overflows at weights {div.betas}")
    return split
