"""Divisors, weak pairings, circle flux, residues, Kelvin transforms."""

import math
import re
import warnings

import numpy as np
import pytest
from scipy import special

from cmlab.errors import NonStabilizingFlux
from cmlab.green import singular_part
from cmlab.grids import (
    TAU,
    Field,
    bilinear_torus,
    constant,
    gauss_legendre,
    integral,
    interpolate,
    sample,
)
from cmlab.measures import (
    FluxProfile,
    Divisor,
    euler_characteristic,
    flux_profile,
    kelvin_transform,
    pairing,
    residue,
    residue_profiled,
    _geometric_tail,
)
from cmlab.models import cusp_profile
from cmlab.solver import solve_divisor
from oracles import cone_profile, cusp_annulus_area, cusp_flux


def test_euler_characteristic():
    d = Divisor(((0.2, 0.2), (0.6, 0.7)), (-0.5, -0.25))
    assert euler_characteristic(d) == pytest.approx(-0.75)


def test_flux_profile_validation():
    FluxProfile((0.1, 0.2, 0.4), (1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        FluxProfile((0.2, 0.1), (1.0, 2.0))
    with pytest.raises(ValueError):
        FluxProfile((0.0, 0.1), (1.0, 2.0))
    with pytest.raises(ValueError):
        FluxProfile((0.1, 0.2), (1.0,))


@pytest.mark.parametrize("call, message", [
    (lambda: flux_profile(constant(0.0, 32), (0.5, 0.5), [0.45]),
     "flux radius exceeds the torus chart"),
    # the outer stencil circle r + 2h = 1/2 reaches the antipode of the center
    (lambda: flux_profile(constant(0.0, 16), (0.3, 0.7), [0.375]),
     "flux radius exceeds the torus chart"),
    (lambda: pairing(constant(0.0, 16), constant(1.0, 32)),
     "pairing requires matching grids"),
    (lambda: kelvin_transform(constant(0.0, 16)),
     "kelvin_transform needs a callable u(x, y)"),
    # no flux circle fits: these raised NonStabilizingFlux after 0 radii
    (lambda: residue_profiled(constant(0.0, 16), (0.3, 0.7)),
     "no flux circle fits about (0.3, 0.7): the first radius 0.25 is below "
     "the smallest resolved radius 0.5"),
    (lambda: residue(constant(0.0, 8), (0.3, 0.7)),
     "the first radius 0 is below the smallest resolved radius 1"),
    # a callable that is not finite on a flux circle: these returned nan
    # with a RuntimeWarning, and ran 37 radii of nan into NonStabilizingFlux
    (lambda: flux_profile(cusp_profile(), (0, 0), [0.5, 1.5]),
     "profile is not finite on the circle of radius 1.5 about (0.0, 0.0)"),
    (lambda: residue(lambda x, y: np.log(x), (0, 0)),
     "profile is not finite on the circle of radius 0.125 about (0.0, 0.0)"),
    # radii are checked before any flux is measured: these blamed the profile
    (lambda: flux_profile(lambda x, y: -0.5 * np.log(np.hypot(x, y)), (0, 0), [0.0]),
     "radii must be positive and strictly increasing"),
    (lambda: flux_profile(cusp_profile(), (0, 0), [0.5, math.nan]),
     "radii must be positive and strictly increasing"),
])
def test_chart_and_flux_inputs_outside_their_domain_are_rejected(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


_TORUS16 = constant(0.0, 16)
_SPLIT16 = singular_part(Divisor(((0.3, 0.7),), (-0.5,)), 16)


def _ZERO_CORNERS(I, J):
    return (np.zeros(np.shape(i)) for i in I)


@pytest.mark.parametrize("call, message", [
    # interpolate returned nan with a RuntimeWarning from casting nan to int
    (lambda: interpolate(_TORUS16, math.nan, 0.5), "interpolation point x is not finite"),
    (lambda: interpolate(_TORUS16, 0.5, [0.1, math.inf]), "interpolation point y is not finite"),
    # the off-grid readers of G, R and S warned on the cast and returned nan
    (lambda: _SPLIT16.greens[0].eval(math.nan, 0.5), "interpolation point x is not finite"),
    (lambda: _SPLIT16.greens[0].remainder_at(0.5, [0.2, math.inf]),
     "interpolation point y is not finite"),
    (lambda: _SPLIT16.smooth_rest(0, [0.1, -math.inf], 0.5),
     "interpolation point x is not finite"),
    # with no atoms the loop over kernels never read the points: it returned 0.0
    (lambda: singular_part(Divisor((), ()), 16).smooth_rest(None, math.nan, 0.5),
     "interpolation point x is not finite"),
    (lambda: bilinear_torus(_TORUS16.values, 0.5, math.nan), "interpolation point y is not finite"),
    (lambda: bilinear_torus(_ZERO_CORNERS, math.nan, 0.5, n=16), "interpolation point x is not finite"),
    (lambda: bilinear_torus(_ZERO_CORNERS, 0.5, [0.2, -math.inf], n=16),
     "interpolation point y is not finite"),
    (lambda: interpolate(_TORUS16, [[0.1, 0.2], [math.nan, 0.4]], np.zeros((2, 2))),
     "interpolation point x is not finite"),
    (lambda: flux_profile(_TORUS16, (math.nan, 0.5), [0.1]),
     "center = (nan, 0.5) is not a finite point"),
    # residue raised "no flux circle fits" at n = 16, a cast warning at n = 64
    # and "profile is not finite on the circle of radius 0.125" for a callable
    (lambda: residue(_TORUS16, (math.nan, 0.0)), "center = (nan, 0.0) is not a finite point"),
    (lambda: residue(constant(0.0, 64), (math.nan, 0.0)),
     "center = (nan, 0.0) is not a finite point"),
    (lambda: residue(cone_profile(-0.5), (math.nan, 0.0)),
     "center = (nan, 0.0) is not a finite point"),
    (lambda: residue_profiled(_TORUS16, (0.0, math.inf)),
     "center = (0.0, inf) is not a finite point"),
    (lambda: flux_profile(cone_profile(-0.5), (0.0, -math.inf), [0.1]),
     "center = (0.0, -inf) is not a finite point"),
])
def test_non_finite_points_are_rejected_before_any_read(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


def test_pairing_weak_identity_torus():
    # u with analytic -Delta u = 5 (2 pi)^2 u; pairing against phi must
    # reproduce the integral of phi * (-Delta u) by self-adjointness
    n = 64
    u = sample(lambda x, y: np.sin(TAU * x) * np.cos(2 * TAU * y), n)
    phi = sample(lambda x, y: np.cos(TAU * x) * np.cos(TAU * y) + 0.3, n)
    want = integral(Field(5.0 * TAU ** 2 * u.values * phi.values))
    assert pairing(u, phi) == pytest.approx(want, abs=1e-9)
    # linearity in the conformal factor
    w = sample(lambda x, y: np.cos(3 * TAU * x), n)
    combo = Field(2.0 * u.values - 0.5 * w.values)
    lin = 2.0 * pairing(u, phi) - 0.5 * pairing(w, phi)
    assert pairing(combo, phi) == pytest.approx(lin, rel=1e-12, abs=1e-13)
    with pytest.raises(ValueError):
        pairing(u, sample(lambda x, y: x, 32))


@pytest.mark.parametrize("k", [(1, 0), (0, 2), (1, 1), (3, -2), (5, 4)])
def test_pairing_of_a_plane_wave(k):
    # u = cos(2 pi k.x + 0.4) has -Delta u = (2 pi |k|)^2 u and mean(u^2) = 1/2;
    # pairing is symmetric, and a constant pairs to 0 (Delta phi has mean 0)
    n = 32
    u = sample(lambda x, y: np.cos(TAU * (k[0] * x + k[1] * y) + 0.4), n)
    phi = sample(lambda x, y: np.exp(np.sin(TAU * x)) * np.cos(TAU * y), n)
    assert pairing(u, u) == pytest.approx(0.5 * TAU ** 2 * (k[0] ** 2 + k[1] ** 2), rel=1e-13)
    assert pairing(u, phi) == pytest.approx(pairing(phi, u), rel=1e-12, abs=1e-12)
    assert pairing(constant(1.7, n), phi) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("center", [(0.5, 0.5), (0.3, 0.7)])
@pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 512, 1024])
def test_flux_circle_reaching_the_torus_edge(n, center):
    # the largest radius on a whole step, r = 1/2 - 3h, keeps its outer stencil
    # circle r + 2h inside half a period; r = 1/2 - 2h reaches it. For the plane
    # wave u = cos(2 pi (x - cx)) the flux through |x - c| = r is the integral
    # of Delta u over the disk, -4 pi^2 r J1(2 pi r); bilinear reads of a smooth
    # Field differ by O(h) in the stencil's derivative
    h = 1.0 / n
    u = lambda x, y: np.cos(TAU * (x - center[0])) + 0.0 * y
    field = sample(u, n)
    r = 0.5 - 3 * h
    want = -4.0 * math.pi ** 2 * r * special.j1(TAU * r)
    assert flux_profile(u, center, [r]).flux[0] == pytest.approx(want, abs=1e-8)
    assert flux_profile(field, center, [r]).flux[0] == pytest.approx(want, abs=3.0 * h)
    with pytest.raises(ValueError, match="flux radius exceeds the torus chart"):
        flux_profile(field, center, [0.5 - 2 * h])


def test_flux_matches_closed_forms():
    u = cusp_profile()
    prof = flux_profile(u, (0.0, 0.0), [0.3, 0.05, 0.01, 0.15])
    assert prof.radii == (0.01, 0.05, 0.15, 0.3)
    for r, f in zip(prof.radii, prof.flux):
        assert f == pytest.approx(cusp_flux(r), abs=1e-8)
    cone = cone_profile(-0.5)
    pr = flux_profile(cone, (0.0, 0.0), [0.05, 0.2, 0.8])
    for f in pr.flux:
        assert f == pytest.approx(-0.5 * TAU, abs=1e-8)


def test_gauss_bonnet_annulus_cusp():
    # the curvature measure of the annulus s < r < t, Phi(s) - Phi(t),
    # equals minus its area since K = -1
    u = cusp_profile()
    inner, outer = flux_profile(u, (0.0, 0.0), (0.05, 0.3)).flux
    assert inner - outer == pytest.approx(-cusp_annulus_area(0.05, 0.3), abs=1e-8)
    with pytest.raises(ValueError):
        flux_profile(u, (0.0, 0.0), (0.0, 0.3))


def test_residue_callable_cone_plus_smooth():
    def u(x, y):
        r = np.hypot(x, y)
        return -0.5 * np.log(r) + 0.3 * np.sin(1.3 * x + 0.4) * np.cos(0.9 * y - 0.2)

    value, prof = residue_profiled(u, (0.0, 0.0))
    assert value == pytest.approx(-0.5, abs=1e-6)
    assert len(prof.radii) >= 3
    assert all(b > a for a, b in zip(prof.radii, prof.radii[1:]))


def test_residue_grid_solution():
    sol = solve_divisor(((0.3, 0.7),), (-0.5,), n=128)
    f = Field(sol.u_values)
    assert residue(f, (0.3, 0.7)) == pytest.approx(-0.5, abs=2e-2)


def test_residue_cusp_callable():
    # flux drifts like 1/log(1/r); the geometric tail must still settle
    assert residue(cusp_profile(), (0.0, 0.0)) == pytest.approx(-1.0, abs=5e-2)


def test_residue_non_stabilizing_flux():
    def u(x, y):
        return np.sin(np.log(np.hypot(x, y)))

    with pytest.raises(NonStabilizingFlux) as exc:
        residue(u, (0.0, 0.0))
    prof = exc.value.profile
    assert isinstance(prof, FluxProfile)
    assert len(prof.radii) >= 3


def test_kelvin_callable_is_an_involution():
    # x -> x/|x|^2 maps 0.05 < r < 0.8 onto 1.25 < r < 20 and back, and the
    # two -log r^2 terms cancel
    def u(x, y):
        return 0.3 * x - 0.2 * y + 0.1 * np.log(np.hypot(x, y))

    rng = np.random.default_rng(7)
    r = np.concatenate([[0.05 * (1 + 1e-9), 0.8 * (1 - 1e-9)], rng.uniform(0.05, 0.8, 254)])
    th = rng.uniform(0.0, TAU, r.size)
    x, y = r * np.cos(th), r * np.sin(th)
    back = kelvin_transform(kelvin_transform(u))
    np.testing.assert_allclose(back(x, y), u(x, y), rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match="needs a callable"):
        kelvin_transform(constant(0.0, 16))


@pytest.mark.parametrize("u, area", [
    (lambda x, y: 0.3 * x - 0.2 * y + 0.1 * np.log(np.hypot(x, y)), None),
    (lambda x, y: 0.2 * np.sin(3.0 * x) * np.cos(2.0 * y), None),
    # a cone of weight -1/2: e^{2u} = 1/r
    (lambda x, y: -0.5 * np.log(np.hypot(x, y)), TAU * (0.8 - 0.05)),
    # a cylinder end, u = -log r, is its own Kelvin transform
    (lambda x, y: -np.log(np.hypot(x, y)), TAU * math.log(0.8 / 0.05)),
    # the unit-sphere bubble, e^{2u} = 4 / (1 + r^2)^2
    (lambda x, y: np.log(2.0 / (1.0 + x * x + y * y)),
     2.0 * TAU * (1.0 / (1.0 + 0.05 ** 2) - 1.0 / (1.0 + 0.8 ** 2))),
])
def test_kelvin_transform_keeps_the_conformal_area(u, area):
    # the inversion maps 0.05 < r < 0.8 onto 1.25 < r < 20, and the -log r^2
    # term is its conformal factor, so the area of e^{2u} is the same on both;
    # Gauss-Legendre in r on geometric panels, 256 angles per circle
    th = TAU * np.arange(256) / 256

    def area_of(f, inner, outer):
        def ring(r):
            R = r[:, None]
            return np.exp(2.0 * f(R * np.cos(th), R * np.sin(th))).mean(axis=1) * TAU * r
        return gauss_legendre(ring, np.geomspace(inner, outer, 33), 16)

    here = area_of(u, 0.05, 0.8)
    assert area_of(kelvin_transform(u), 1.25, 20.0) == pytest.approx(here, rel=1e-12)
    if area is not None:
        assert here == pytest.approx(area, rel=1e-12)


def test_kelvin_of_flat_plane_is_double_pole():
    # u = 0 maps to -2 log |x|, the residue every complete plane end carries
    k = kelvin_transform(lambda x, y: 0.0 * np.asarray(x))
    assert residue(k, (0.0, 0.0)) == pytest.approx(-2.0, abs=1e-6)


@pytest.mark.parametrize("values", [
    [1.0, 2.0, 2.0, 2.5],  # a zero difference
    [0.0, 1.0, 1.85, 2.615, 3.34175],  # q = 0.85, 0.9, 0.95: near 1, spread 0.1
    [0.0, 1.0, 1.1, 1.15, 1.19],  # q = 0.1, 0.5, 0.8: spread 0.7
])
def test_geometric_tail_rejects_an_inconsistent_drift(values):
    assert _geometric_tail(values) is None


def test_geometric_tail_is_the_aitken_limit_of_a_geometric_sequence():
    values = [3.0 - 2.0 * 0.7 ** j for j in range(8)]
    assert _geometric_tail(values) == pytest.approx(3.0, abs=1e-12)
