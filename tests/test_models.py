"""Model conformal factors against quadrature and finite-difference oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from cmlab.models import TAU, LinearCylinder, cap_profile, cusp_profile, flat_neck_profile
from oracles import (
    cap_disk_area,
    cone_profile,
    cone_radial_length,
    cusp_annulus_area,
    cusp_flux,
    cusp_radial_length,
    fd_gauss_curvature,
    flat_neck_annulus_area,
    flat_neck_inner_radius,
    quad_radial_area,
    quad_radial_length,
    standard_bubble,
)


def _radial(u):
    return lambda r: float(u(r, 0.0))


def test_cusp_closed_forms_vs_quadrature():
    u = cusp_profile()
    prof = _radial(u)
    assert cusp_annulus_area(0.02, 0.3) == pytest.approx(
        quad_radial_area(prof, 0.02, 0.3), rel=1e-10)
    assert cusp_radial_length(0.001, 0.25) == pytest.approx(
        quad_radial_length(prof, 0.001, 0.25), rel=1e-10)
    # flux closed form against the derivative definition 2 pi r u'(r)
    for r in (0.02, 0.1, 0.3):
        h = 1e-6 * r
        du = (prof(r + h) - prof(r - h)) / (2.0 * h)
        assert cusp_flux(r) == pytest.approx(TAU * r * du, rel=1e-8)


def test_cusp_curvature_is_minus_one():
    u = cusp_profile()
    for x, y in ((0.05, 0.02), (0.2, -0.1), (-0.03, 0.04)):
        assert fd_gauss_curvature(u, x, y) == pytest.approx(-1.0, abs=1e-4)


def test_cone_closed_forms():
    beta = -0.5
    u = cone_profile(beta)
    prof = _radial(u)
    assert cone_radial_length(beta, 0.01, 0.5) == pytest.approx(
        quad_radial_length(prof, 0.01, 0.5), rel=1e-10)
    # flat away from the tip
    assert fd_gauss_curvature(u, 0.3, 0.2, h=1e-5) == pytest.approx(0.0, abs=1e-4)
    # positive-angle cone with beta > 0 as well
    assert cone_radial_length(1.5, 0.0, 1.0) == pytest.approx(
        quad_radial_length(_radial(cone_profile(1.5)), 0.0, 1.0), rel=1e-8)


def test_cap_area_and_curvature():
    lam = 0.3
    u = cap_profile(lam)
    prof = _radial(u)
    for r in (0.1, 0.5, 2.0):
        assert cap_disk_area(lam, r) == pytest.approx(
            quad_radial_area(prof, 0.0, r), rel=1e-10)
    for x, y in ((0.1, 0.05), (0.5, -0.4), (2.0, 1.0)):
        assert fd_gauss_curvature(u, x, y) == pytest.approx(1.0, abs=1e-4)
    # the full plane carries the round-sphere area 4 pi
    assert cap_disk_area(lam, 1e6) == pytest.approx(4.0 * math.pi, rel=1e-10)


def test_cap_center_offset():
    u = cap_profile(0.5, center=(1.2, -0.7))
    base = cap_profile(0.5)
    assert u(1.2 + 0.3, -0.7 + 0.4) == pytest.approx(base(0.3, 0.4), rel=1e-14)


def test_standard_bubble_is_unit_cap():
    b = standard_bubble()
    assert b(0.0, 0.0) == pytest.approx(math.log(2.0), rel=1e-14)
    assert fd_gauss_curvature(b, 0.7, -0.2) == pytest.approx(1.0, abs=1e-5)


def test_flat_neck_closed_forms():
    k = 3
    u = flat_neck_profile(k)
    prof = _radial(u)
    r_in = flat_neck_inner_radius(k)
    assert r_in == pytest.approx(math.exp(-9.0), rel=1e-14)
    assert flat_neck_annulus_area(k, 0.01, 0.5) == pytest.approx(
        quad_radial_area(prof, 0.01, 0.5), rel=1e-10)
    # each e-fold annulus carries the same area 2 pi / k^2
    a1 = flat_neck_annulus_area(k, 0.1, 0.1 * math.e)
    assert a1 == pytest.approx(TAU / k ** 2, rel=1e-12)
    # the whole neck r_in < r < 1 carries exactly 2 pi
    assert flat_neck_annulus_area(k, r_in, 1.0) == pytest.approx(TAU, rel=1e-12)
    assert fd_gauss_curvature(u, 0.2, 0.1, h=1e-5) == pytest.approx(0.0, abs=1e-4)


def test_linear_cylinder_closed_forms():
    cyl = LinearCylinder(A=0.3, B=-0.8)
    assert cyl.flux(2.0) == pytest.approx(TAU * -0.8, rel=1e-14)
    L = 1.5
    for i in (1, 2, 4):
        want, _ = quad(lambda t: TAU * math.exp(2.0 * (0.3 - 0.8 * t)),
                       (i - 1) * L, i * L, epsabs=1e-14, epsrel=1e-13)
        assert cyl.segment_area(i, L) == pytest.approx(want, rel=1e-12)
