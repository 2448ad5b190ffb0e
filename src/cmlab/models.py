"""Closed-form model conformal factors used as references and generators.

Every profile is a callable u(x, y) on the plane (or on cylinder
coordinates (t, theta) for the linear model), together with the exact
quantities the diagnostics are checked against: fluxes, lengths, disk and
annulus areas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TAU = 2.0 * math.pi


# -- hyperbolic cusp: u = -log(r log(1/r)), K = -1, complete at the puncture

def cusp_profile():
    def u(x, y):
        r = np.hypot(x, y)
        return -np.log(r * np.log(1.0 / r))
    return u


def cusp_flux(r: float) -> float:
    """Circle flux of the cusp profile: 2 pi (-1 + 1/log(1/r))."""
    return TAU * (-1.0 + 1.0 / math.log(1.0 / r))


def cusp_annulus_area(s: float, t: float) -> float:
    """Area of s < r < t in the cusp metric: 2 pi (1/L(t) - 1/L(s))."""
    return TAU * (1.0 / math.log(1.0 / t) - 1.0 / math.log(1.0 / s))


def cusp_radial_length(delta: float, r0: float) -> float:
    """Radial length in the cusp metric: loglog(1/delta) - loglog(1/r0)."""
    return math.log(math.log(1.0 / delta)) - math.log(math.log(1.0 / r0))


# -- cone: u = beta log r, angle 2 pi (beta + 1)

def cone_profile(beta: float):
    def u(x, y):
        return beta * np.log(np.hypot(x, y))
    return u


def cone_radial_length(beta: float, delta: float, r0: float) -> float:
    return (r0 ** (beta + 1.0) - delta ** (beta + 1.0)) / (beta + 1.0)


# -- spherical cap: u = log(2 lam / (lam^2 + |x - q|^2)), K = +1, area 4 pi

def cap_profile(lam: float, center=(0.0, 0.0)):
    qx, qy = center

    def u(x, y):
        rho2 = (np.asarray(x) - qx) ** 2 + (np.asarray(y) - qy) ** 2
        return np.log(2.0 * lam / (lam * lam + rho2))
    return u


def cap_disk_area(lam: float, r: float) -> float:
    """Area of D_r(q) under the cap metric: 4 pi r^2 / (lam^2 + r^2)."""
    return 4.0 * math.pi * r * r / (lam * lam + r * r)


def standard_bubble():
    """The lam = 1 cap centered at the origin: u = log(2/(1+|x|^2))."""
    return cap_profile(1.0)


# -- flat neck: u = -log(k r) on the annulus e^{-k^2} <= r <= 1, K = 0

def flat_neck_profile(k: int):
    def u(x, y):
        return -np.log(float(k) * np.hypot(x, y))
    return u


def flat_neck_inner_radius(k: int) -> float:
    return math.exp(-float(k) * float(k))


def flat_neck_annulus_area(k: int, s: float, t: float) -> float:
    """Area of s < r < t: (2 pi / k^2) log(t/s); every e-fold gives 2 pi/k^2."""
    return TAU / float(k) ** 2 * math.log(t / s)


# -- linear cylinder: u(t, theta) = A + B t on S^1 x [0, T]

@dataclass(frozen=True)
class LinearCylinder:
    A: float
    B: float

    def __post_init__(self):
        if not (math.isfinite(self.A) and math.isfinite(self.B)):
            raise ValueError(f"linear cylinder needs finite A and B: {self.A}, {self.B}")

    def u(self, t, theta):
        return self.A + self.B * np.asarray(t, dtype=float) + 0.0 * np.asarray(theta)

    def flux(self, t: float) -> float:
        """Integral over the circle of the t-derivative: 2 pi B."""
        return TAU * self.B

    def segment_area(self, i: int, L: float) -> float:
        """Area of S^1 x [(i-1)L, iL]: (pi/B) e^{2A+2B(i-1)L} (e^{2BL} - 1),
        continued to 2 pi L e^{2A} for the flat cylinder B = 0."""
        if self.B == 0.0:
            return TAU * L * math.exp(2.0 * self.A)
        return (math.pi / self.B * math.exp(2.0 * self.A + 2.0 * self.B * (i - 1) * L)
                * (math.exp(2.0 * self.B * L) - 1.0))

    def annulus_profile(self):
        """The same metric in annulus coordinates r = e^{-t}.

        e^{2v}(dt^2 + dtheta^2) = e^{2u}|dz|^2 with u = v(-log r) - log r.
        """
        def u(x, y):
            r = np.hypot(x, y)
            return self.A - (self.B + 1.0) * np.log(r)
        return u
