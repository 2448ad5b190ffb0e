"""Curvature-measure primitives.

The Gauss curvature of a conformal metric e^{2u}|dx|^2 with rough u is a
signed measure: atoms sit at log singularities of u, the rest pairs against
test functions through -u * Delta(phi). This module provides the weak
pairing, circle-flux diagnostics (whose r -> 0 limits read off atom
masses) and the Kelvin transform for behavior at infinity.

Flux convention: flux(r) = integral over the circle of radius r of the
radial derivative of u, so an atom beta log|x - p| contributes 2 pi beta
and the residue at p is the flux limit divided by 2 pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonStabilizingFlux
from .grids import (TAU, Field, circle_points, finite_point, integral, interpolate,
                    neg_laplacian, on_circles, torus_distance)


@dataclass(frozen=True)
class Divisor:
    """Marked points on the unit torus with weights beta >= -1 (angle
    2 pi (beta+1)).

    Points are finite and stored reduced mod 1 to [0, 1)^2, so lattice
    translates name the same point; atoms closer than 1e-9 on the torus are
    rejected, since the solver would merge them into one of summed weight.
    """

    points: tuple
    betas: tuple

    def __post_init__(self):
        pts = tuple((_mod1(x), _mod1(y)) for x, y in self.points)
        bts = tuple(float(b) for b in self.betas)
        if not all(math.isfinite(c) for pt in pts for c in pt):
            raise ValueError(f"divisor points must be finite, got {self.points}")
        if len(pts) != len(bts):
            raise ValueError("points and betas must have equal length")
        for b in bts:
            if not (b >= -1.0):
                raise ValueError(f"weights must satisfy beta >= -1, got {b}")
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if float(torus_distance(*pts[i], *pts[j])) < 1e-9:
                    raise ValueError(
                        f"divisor points must be distinct on the torus: "
                        f"{pts[i]} and {pts[j]}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "betas", bts)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def beta_sum(self) -> float:
        return float(sum(self.betas))


def _mod1(x) -> float:
    r = float(x) % 1.0
    return 0.0 if r == 1.0 else r  # a tiny negative x rounds up to 1.0


def euler_characteristic(div: Divisor) -> float:
    """chi of the torus with the divisor: chi(torus) = 0 plus the sum of
    the weights."""
    return div.beta_sum


def _check_radii(radii) -> None:
    """Raise ValueError unless the radii are positive and strictly
    increasing (a NaN radius fails both)."""
    if radii and not (radii[0] > 0 and all(a < b for a, b in zip(radii, radii[1:]))):
        raise ValueError("radii must be positive and strictly increasing")


@dataclass(frozen=True)
class FluxProfile:
    radii: tuple
    flux: tuple

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        flux = tuple(float(f) for f in self.flux)
        if len(radii) != len(flux):
            raise ValueError("radii and flux must have equal length")
        _check_radii(radii)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "flux", flux)


# -- weak pairing ------------------------------------------------------------

def pairing(u: Field, testfn: Field) -> float:
    """Weak curvature pairing on the torus: the integral of -u Delta(phi).
    The flat torus carries no curvature of its own, so no background term
    enters."""
    if u.n != testfn.n:
        raise ValueError("pairing requires matching grids")
    lap_phi = -neg_laplacian(testfn.values)
    return integral(Field(-u.values * lap_phi))


# -- circle flux -------------------------------------------------------------

def _flux_reader(u, center):
    """(flux, floor, start, limit) of grad(u) about `center`, u a callable
    or a torus Field: flux(r) through the circle of radius r, the smallest
    radius resolved, residue's first radius, and limit(b, c), the r -> 0
    flux from the last two stabilized values.

    A callable is read through `on_circles` and differenced in s = log r;
    its limit is Richardson-extrapolated in r^2 (the smooth part of the
    flux is even in r). A Field takes a 5-point 4th-order stencil in r,
    scaled by r (d/ds = r d/dr), accurate on the log-singular part down to
    r = 8 cells; a stencil circle must stay within half a period.
    """
    if callable(u):
        def flux(r):
            up, um = (on_circles(u, center, r, *circle_points(center, r * math.exp(s), 256))
                      for s in (1e-5, -1e-5))
            return float(((up - um) / 2e-5).mean() * TAU)
        return (flux, 1e-12 * (1.0 + abs(center[0]) + abs(center[1])), 0.125,
                lambda b, c: (4.0 * c - b) / 3.0)
    n = u.n
    h = 1.0 / n

    def flux(r):
        if r + 2 * h >= 0.5:
            raise ValueError("flux radius exceeds the torus chart")
        m = max(64, int(math.ceil(TAU * r / h)))
        vals = [interpolate(u, *circle_points(center, r + k * h, m)) for k in (-2, -1, 1, 2)]
        d = (8.0 * (vals[2] - vals[1]) - (vals[3] - vals[0])) / (12.0 * h)
        return float(d.mean() * TAU * r)
    return flux, 8.0 * h, min(0.25, 0.5 - 4.0 * h), lambda b, c: c


def flux_profile(u, center, radii) -> FluxProfile:
    """Circle flux of grad(u) at each radius; u is a Field or a callable.
    The sorted radii must be positive and strictly increasing, which is
    checked before any flux is measured, as is a finite center."""
    center = finite_point(center, "center")
    radii = sorted(float(r) for r in radii)
    _check_radii(radii)
    flux = _flux_reader(u, center)[0]
    return FluxProfile(tuple(radii), tuple(flux(r) for r in radii))


def _geometric_tail(values):
    """Aitken limit of a dyadic flux sequence with geometric drift.

    The enclosed smooth curvature mass scales like r^a down dyadic radii,
    so consecutive differences shrink by a stable ratio q = 2^{-a}; cusp-type
    drift gives q slightly below 1 that creeps upward slowly. Returns None
    unless the measured ratios are consistent and inside (0.02, 0.985);
    ratios above 0.92 demand three closely matching samples.
    """
    if len(values) < 3:
        return None
    d = np.diff(np.asarray(values[-6:], dtype=float))
    if np.any(d[:-1] == 0.0):
        return None
    q = (d[1:] / d[:-1])[-3:]
    if not np.all((q > 0.02) & (q < 0.985)):
        return None
    spread = float(q.max() - q.min()) if len(q) > 1 else 0.0
    if float(q[-1]) > 0.92 and (len(q) < 3 or spread > 0.05):
        return None
    if spread > 0.3:
        return None
    # (c - b) - (b - a) = d[-1] - d[-2] is 0 only at q[-1] = 1, rejected above
    a, b, c = values[-3], values[-2], values[-1]
    return c - (c - b) ** 2 / ((c - b) - (b - a))


def residue_profiled(u, center):
    """Like :func:`residue`, returning (value, measured FluxProfile)."""
    center = finite_point(center, "center")
    flux, floor, r, limit = _flux_reader(u, center)
    if r < floor:
        raise ValueError(f"no flux circle fits about {center}: the first radius "
                         f"{r:.6g} is below the smallest resolved radius {floor:.6g}")
    radii, values = [], []
    value = None
    for _ in range(48):
        if r < floor:
            break
        radii.append(r)
        values.append(flux(r))
        if len(values) >= 3:
            a, b, c = values[-3], values[-2], values[-1]
            tol = 1e-3 * (1.0 + abs(c))
            if max(abs(a - b), abs(b - c), abs(a - c)) < tol:
                value = limit(b, c) / TAU
                break
        r *= 0.5
    profile = FluxProfile(tuple(reversed(radii)), tuple(reversed(values)))
    if value is None:
        tail = _geometric_tail(values)
        if tail is not None:
            value = tail / TAU
    if value is None:
        raise NonStabilizingFlux(
            f"flux did not stabilize near {center} after {len(values)} radii",
            profile=profile)
    return value, profile


def residue(u, center) -> float:
    """Atom mass of the curvature measure at ``center``, via flux limits.

    Descends at most 48 dyadic radii from `_flux_reader`'s first radius
    (1/8 for a callable) until three consecutive flux values agree within
    1e-3 * (1 + |flux|), or below its floor (8 cells on a Field).
    The limit is the last flux (for callables, Richardson-extrapolated in
    r^2 from the last two). Failing that, the Aitken limit of a geometric
    tail is taken, else NonStabilizingFlux is raised (with the measured
    profile). ValueError: the center is not finite, the first radius is
    below the floor, or a callable is not finite on a flux circle.
    """
    return residue_profiled(u, center)[0]


# -- Kelvin transform --------------------------------------------------------

def kelvin_transform(u):
    """Inversion u'(x') = u(x'/|x'|^2) - 2 log|x'| of a callable u(x, y),
    transformed symbolically into another callable; anything else raises
    ValueError."""
    if not callable(u):
        raise ValueError("kelvin_transform needs a callable u(x, y)")

    def transformed(x, y):
        r2 = np.asarray(x, dtype=float) ** 2 + np.asarray(y, dtype=float) ** 2
        return u(x / r2, y / r2) - np.log(r2)
    return transformed
