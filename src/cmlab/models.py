"""Closed-form model conformal factors used as generators.

Every profile is a callable u(x, y) on the plane (or on cylinder
coordinates (t, theta) for the linear model, with its exact flux and
segment areas; the three-circle report carries the areas, as closedForm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import TAU


# -- hyperbolic cusp: u = -log(r log(1/r)), K = -1, complete at the puncture

def cusp_profile():
    def u(x, y):
        r = np.hypot(x, y)
        return -np.log(r * np.log(1.0 / r))
    return u


# -- spherical cap: u = log(2 lam / (lam^2 + |x - q|^2)), K = +1, area 4 pi

def cap_profile(lam: float, center=(0.0, 0.0)):
    qx, qy = center

    def u(x, y):
        rho2 = (np.asarray(x) - qx) ** 2 + (np.asarray(y) - qy) ** 2
        return np.log(2.0 * lam / (lam * lam + rho2))
    return u


# -- flat neck: u = -log(k r) on the annulus e^{-k^2} <= r <= 1, K = 0

def flat_neck_profile(k: int):
    def u(x, y):
        return -np.log(float(k) * np.hypot(x, y))
    return u


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
