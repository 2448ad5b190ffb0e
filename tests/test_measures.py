"""Divisors, weak pairings, circle flux, residues, Kelvin, potentials."""

import math
import re
import warnings

import numpy as np
import pytest

from cmlab.bubbles import rescale
from cmlab.errors import NonStabilizingFlux
from cmlab.green import singular_part
from cmlab.grids import (
    TAU,
    DiskChart,
    Field,
    LogPolarChart,
    TorusChart,
    bilinear_torus,
    constant,
    integral,
    interpolate,
    sample,
)
from cmlab.measures import (
    CELL_LOG_MEAN,
    FluxProfile,
    SignedMeasureSample,
    Divisor,
    euler_characteristic,
    flux_profile,
    kelvin_transform,
    newtonian_potential,
    pairing,
    residue,
    residue_profiled,
    _geometric_tail,
)
from cmlab.models import cusp_profile
from cmlab.solver import solve_divisor
from oracles import cell_log_mean_quad, cone_profile, cusp_annulus_area, cusp_flux


def test_euler_characteristic():
    d = Divisor(((0.2, 0.2), (0.6, 0.7)), (-0.5, -0.25))
    assert euler_characteristic(d) == pytest.approx(-0.75)


def test_signed_measure_total_variation():
    mu = SignedMeasureSample(atoms=(((0.1, 0.2), 2.0), ((0.5, 0.5), -3.5)))
    assert mu.total_variation() == pytest.approx(5.5)
    dens = constant(-2.0, TorusChart(), 16)
    mu2 = SignedMeasureSample(atoms=mu.atoms, density=dens)
    assert mu2.total_variation() == pytest.approx(7.5)
    with pytest.raises(ValueError):
        SignedMeasureSample(atoms=(((0.1, 0.2), 1.0), ((0.1, 0.2), 2.0)))
    with pytest.raises(ValueError):
        SignedMeasureSample(atoms=(((0.1, 0.2), math.inf),))


def test_flux_profile_validation():
    FluxProfile((0.1, 0.2, 0.4), (1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        FluxProfile((0.2, 0.1), (1.0, 2.0))
    with pytest.raises(ValueError):
        FluxProfile((0.0, 0.1), (1.0, 2.0))
    with pytest.raises(ValueError):
        FluxProfile((0.1, 0.2), (1.0,))


_ANNULUS = LogPolarChart(0.05, 0.8)


@pytest.mark.parametrize("call, message", [
    (lambda: LogPolarChart(1.0, 1.0), "log-polar chart needs 0 < r_inner < r_outer < inf"),
    (lambda: pairing(constant(0.0, _ANNULUS, 16), constant(1.0, _ANNULUS, 16)),
     "pairing is defined on torus and disk charts"),
    (lambda: flux_profile(constant(0.0, _ANNULUS, 16), (0.1, 0.0), [0.2]),
     "log-polar flux circles must be centered at the origin"),
    (lambda: flux_profile(constant(0.0, TorusChart(), 32), (0.5, 0.5), [0.45]),
     "flux radius exceeds the torus chart"),
    # no flux circle fits: these raised NonStabilizingFlux after 0 radii
    (lambda: residue(constant(0.0, DiskChart(1.0), 64), (2.0, 0.0)),
     "no flux circle fits about (2.0, 0.0): the first radius -0.25 is below "
     "the smallest resolved radius 0.253968"),
    (lambda: residue(constant(0.0, DiskChart(1.0), 64), (0.9, 0.0)),
     "the first radius 0.025 is below the smallest resolved radius 0.253968"),
    (lambda: residue_profiled(constant(0.0, TorusChart(), 16), (0.3, 0.7)),
     "the first radius 0.25 is below the smallest resolved radius 0.5"),
    (lambda: residue(constant(0.0, TorusChart(), 8), (0.3, 0.7)),
     "the first radius 0 is below the smallest resolved radius 1"),
    (lambda: residue(constant(0.0, LogPolarChart(0.5, 0.6), 64), (0.0, 0.0)),
     "the first radius 0.3 is below the smallest resolved radius 0.502902"),
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


_TORUS16 = constant(0.0, TorusChart(), 16)
_DISK16 = constant(0.0, DiskChart(1.0), 16)
_POLAR16 = constant(0.0, _ANNULUS, 16)
_SPLIT16 = singular_part(Divisor(((0.3, 0.7),), (-0.5,)), 16)


@pytest.mark.parametrize("call, message", [
    # interpolate returned nan with a RuntimeWarning from casting nan to int
    (lambda: interpolate(_TORUS16, math.nan, 0.5), "interpolation point x is not finite"),
    (lambda: interpolate(_TORUS16, 0.5, [0.1, math.inf]), "interpolation point y is not finite"),
    (lambda: interpolate(_DISK16, [0.2, math.nan], 0.1), "interpolation point x is not finite"),
    (lambda: interpolate(_DISK16, 0.1, -math.inf), "interpolation point y is not finite"),
    (lambda: interpolate(_POLAR16, math.nan, 0.3), "interpolation point x is not finite"),
    (lambda: interpolate(_POLAR16, 0.3, math.nan), "interpolation point y is not finite"),
    (lambda: rescale(_TORUS16, (math.nan, 0.5), 0.1), "interpolation point x is not finite"),
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
    # residue raised "no flux circle fits" at n = 16, a cast warning at n = 64
    # and "profile is not finite on the circle of radius 0.125" for a callable
    (lambda: residue(_TORUS16, (math.nan, 0.0)), "center = (nan, 0.0) is not a finite point"),
    (lambda: residue(constant(0.0, TorusChart(), 64), (math.nan, 0.0)),
     "center = (nan, 0.0) is not a finite point"),
    (lambda: residue(cone_profile(-0.5), (math.nan, 0.0)),
     "center = (nan, 0.0) is not a finite point"),
    (lambda: residue_profiled(_DISK16, (0.0, math.inf)),
     "center = (0.0, inf) is not a finite point"),
    (lambda: residue_profiled(_POLAR16, (math.nan, 0.0)),
     "center = (nan, 0.0) is not a finite point"),
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
    chart = TorusChart()
    u = sample(lambda x, y: np.sin(TAU * x) * np.cos(2 * TAU * y), chart, n)
    phi = sample(lambda x, y: np.cos(TAU * x) * np.cos(TAU * y) + 0.3, chart, n)
    want = integral(Field(5.0 * TAU ** 2 * u.values * phi.values, chart))
    assert pairing(u, phi) == pytest.approx(want, abs=1e-9)
    # linearity in the conformal factor
    w = sample(lambda x, y: np.cos(3 * TAU * x), chart, n)
    combo = Field(2.0 * u.values - 0.5 * w.values, chart)
    lin = 2.0 * pairing(u, phi) - 0.5 * pairing(w, phi)
    assert pairing(combo, phi) == pytest.approx(lin, rel=1e-12, abs=1e-13)
    with pytest.raises(ValueError):
        pairing(u, sample(lambda x, y: x, chart, 32))


def test_pairing_disk_compact_support():
    # for a test function vanishing at the window edge the FD Laplacian
    # integrates to zero, so pairing a constant against it vanishes
    chart = DiskChart(1.0)
    n = 128
    phi = sample(lambda x, y: np.exp(-20.0 * (x * x + y * y)), chart, n)
    u = constant(1.7, chart, n)
    assert pairing(u, phi) == pytest.approx(0.0, abs=1e-6)


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
    f = Field(sol.u_values, TorusChart())
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


def test_kelvin_involution_and_area():
    chart = LogPolarChart(0.05, 0.8)
    n = 64
    u = sample(lambda x, y: 0.3 * x - 0.2 * y + 0.1 * np.log(np.hypot(x, y)),
               chart, n)
    back = kelvin_transform(kelvin_transform(u))
    assert back.chart == chart
    np.testing.assert_allclose(back.values, u.values, atol=1e-12)
    areas = [integral(Field(np.exp(2.0 * f.values), f.chart))
             for f in (kelvin_transform(u), u)]
    assert areas[0] == pytest.approx(areas[1], rel=1e-12)
    with pytest.raises(ValueError):
        kelvin_transform(constant(0.0, TorusChart(), 16))


def test_kelvin_of_flat_plane_is_double_pole():
    # u = 0 maps to -2 log |x|, the residue every complete plane end carries
    k = kelvin_transform(lambda x, y: 0.0 * np.asarray(x))
    assert residue(k, (0.0, 0.0)) == pytest.approx(-2.0, abs=1e-6)


def test_newtonian_potential_atoms():
    chart = DiskChart(1.0)
    n = 32
    mu = SignedMeasureSample(atoms=(((0.351, -0.149), 2.5), ((-0.5001, 0.2), -1.0)))
    pot = newtonian_potential(mu, chart, n)
    X, Y = chart.mesh(n)
    want = np.zeros((n, n))
    for (ax, ay), m in mu.atoms:
        want -= m / TAU * np.log(np.hypot(X - ax, Y - ay))
    np.testing.assert_allclose(pot.values, want, atol=1e-13)
    node = (float(X[20, 11]), float(Y[20, 11]))
    with pytest.raises(ValueError):
        newtonian_potential(SignedMeasureSample(atoms=((node, 1.0),)), chart, n)


def test_newtonian_potential_density_matches_direct_sum():
    # zero-padded FFT convolution against the literal cell-sum oracle
    chart = DiskChart(1.0)
    n = 64
    h = chart.spacing(n)
    dens = sample(lambda x, y: np.exp(-4.0 * (x * x + y * y)) - 0.2, chart, n)
    pot = newtonian_potential(SignedMeasureSample(density=dens), chart, n)
    X, Y = chart.mesh(n)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    d = np.hypot(pts[:, None, 0] - pts[None, :, 0],
                 pts[:, None, 1] - pts[None, :, 1])
    logd = np.zeros_like(d)
    np.log(d, out=logd, where=d > 0)
    np.fill_diagonal(logd, math.log(h) + CELL_LOG_MEAN)
    want = (-(h * h) / TAU * logd @ dens.values.ravel()).reshape(n, n)
    np.testing.assert_allclose(pot.values, want, atol=1e-10)
    with pytest.raises(ValueError):
        newtonian_potential(SignedMeasureSample(density=dens), chart, 32)
    with pytest.raises(ValueError):
        newtonian_potential(SignedMeasureSample(), TorusChart(), n)


def test_cell_log_mean_constant():
    assert CELL_LOG_MEAN == pytest.approx(cell_log_mean_quad(), abs=1e-9)


@pytest.mark.parametrize("radius,n", [(0.3, 128), (0.7, 64), (1.3, 256)])
def test_flux_circle_reaching_the_disk_edge(radius, n):
    # the outermost stencil circle of r = R - 2h touches the window edge;
    # r + 2h may round above R, which must not count as leaving the chart.
    # Bilinear reads of x, y and xy are exact, and all three are harmonic.
    chart = DiskChart(radius)
    h = chart.spacing(n)
    u = sample(lambda x, y: 0.3 + 0.5 * x - 0.2 * y + x * y, chart, n)
    prof = flux_profile(u, (0.0, 0.0), [radius - 2 * h])
    assert abs(prof.flux[0]) < 1e-9
    with pytest.raises(ValueError, match="outside the disk chart"):
        flux_profile(u, (0.0, 0.0), [radius - 1.5 * h])


@pytest.mark.parametrize("r_inner, r_outer", [
    (0.05, 0.8), (1e-3, 1.0), (0.1, 1.0), (0.2, 3.0), (0.5, 2.0), (1.0, 10.0)])
def test_flux_circle_reaching_the_annulus_edge(r_inner, r_outer):
    # the outermost stencil circles of r = exp(s[0] + 2h) and exp(s[-1] - 2h)
    # touch the annulus; their log may round beyond it, which must not count
    # as leaving the chart. Bilinear reads of log r are exact.
    chart = LogPolarChart(r_inner, r_outer)
    for n in (16, 32, 64, 128, 256):
        s = chart.s_nodes(n)
        h = s[1] - s[0]
        u = sample(lambda x, y: -0.5 * np.log(np.hypot(x, y)), chart, n)
        radii = [math.exp(s[0] + 2 * h), math.exp(s[-1] - 2 * h),
                 r_inner * math.exp(2 * h), r_outer * math.exp(-2 * h)]
        for r in radii:
            assert flux_profile(u, (0.0, 0.0), [r]).flux[0] == pytest.approx(
                -math.pi, abs=1e-9)
        for r in (math.exp(s[0] + 1.5 * h), math.exp(s[-1] - 1.5 * h)):
            with pytest.raises(ValueError, match="outside the log-polar annulus"):
                flux_profile(u, (0.0, 0.0), [r])


def test_residue_on_planar_charts():
    # a cone of weight -1/2 plus a harmonic term, read back by flux limits
    u = lambda x, y: -0.5 * np.log(np.hypot(x, y)) + 0.1 * x
    got = residue(sample(u, LogPolarChart(1e-3, 1.0), 64), (0.0, 0.0))
    assert got == pytest.approx(-0.5, abs=1e-12)
    assert residue(sample(u, DiskChart(1.0), 1024), (0.0, 0.0)) == pytest.approx(
        -0.5, abs=2e-5)
    # at n = 256 only two dyadic radii fit above the 8-cell floor
    with pytest.raises(NonStabilizingFlux) as exc:
        residue(sample(u, DiskChart(1.0), 256), (0.0, 0.0))
    assert len(exc.value.profile.radii) == 2


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
