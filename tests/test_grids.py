"""Charts, fields, spectral calculus, interpolation, and quadrature."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from cmlab.grids import (
    TAU,
    DiskChart,
    Field,
    LogPolarChart,
    TorusChart,
    bilinear_torus,
    conformal_area,
    constant,
    gauss_legendre,
    get_workers,
    half_laplacian_multiplier,
    integral,
    interpolate,
    neg_laplacian,
    parse_descriptor,
    poisson_mean_zero,
    sample,
    torus_distance,
    wrap_half,
)
from oracles import fd_neg_laplacian_periodic


@pytest.mark.parametrize("raw", ["0", "-1", "x"])
def test_get_workers_rejects_non_positive_and_non_integer(monkeypatch, raw):
    monkeypatch.setenv("CML_THREADS", raw)
    with pytest.raises(ValueError, match=repr(raw)):
        get_workers()


def test_get_workers_reads_cml_threads(monkeypatch):
    monkeypatch.delenv("CML_THREADS", raising=False)
    assert get_workers() == 1
    monkeypatch.setenv("CML_THREADS", "2")
    assert get_workers() == 2


def test_field_validation():
    with pytest.raises(ValueError):
        Field(np.zeros((8, 9)), TorusChart())
    with pytest.raises(ValueError):
        Field(np.zeros((12, 12)), TorusChart())
    with pytest.raises(ValueError):
        Field(np.zeros((4, 4)), TorusChart())
    bad = np.zeros((8, 8))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        Field(bad, TorusChart())
    f = Field(np.zeros((16, 16)), TorusChart())
    assert f.n == 16


def test_descriptor_round_trip():
    for chart in (TorusChart(), DiskChart(0.75), LogPolarChart(0.01, 2.0)):
        assert parse_descriptor(chart.descriptor()) == chart
    with pytest.raises(ValueError):
        parse_descriptor("nonsense 1 2 3")


def test_torus_mesh_and_distance():
    X, Y = TorusChart().mesh(8)
    assert X[0, 0] == 0.0 and X[1, 0] == 0.125
    assert wrap_half(0.75) == -0.25
    assert torus_distance(0.9, 0.0, 0.1, 0.0) == pytest.approx(0.2, abs=1e-15)
    assert torus_distance(0.25, 0.75, 0.75, 0.25) == pytest.approx(
        math.hypot(0.5, 0.5), abs=1e-15)


def test_spectral_laplacian_matches_fd():
    n = 128
    f = sample(lambda x, y: np.sin(TAU * x) * np.cos(2 * TAU * y), TorusChart(), n)
    spec = neg_laplacian(f.values)
    fd = fd_neg_laplacian_periodic(f.values)
    # FD is 2nd order; the spectral result is exact for band-limited data
    exact = (TAU ** 2 + (2 * TAU) ** 2) * f.values
    assert np.abs(spec - exact).max() < 1e-9
    assert np.abs(fd - exact).max() < 0.5
    n2 = 256
    f2 = sample(lambda x, y: np.sin(TAU * x) * np.cos(2 * TAU * y), TorusChart(), n2)
    fd2 = fd_neg_laplacian_periodic(f2.values)
    exact2 = (TAU ** 2 + (2 * TAU) ** 2) * f2.values
    ratio = np.abs(fd2 - exact2).max() / np.abs(fd - exact).max()
    assert 0.2 < ratio < 0.3  # O(n^-2)


def test_poisson_mean_zero_manufactured():
    # g = sin(2 pi x) cos(4 pi y): -Delta g = (2pi)^2 (1 + 4) g, analytically
    n = 64
    g = sample(lambda x, y: np.sin(TAU * x) * np.cos(2 * TAU * y), TorusChart(), n)
    f = Field((TAU ** 2 * 5.0) * g.values, TorusChart())
    sol = poisson_mean_zero(f.values)
    assert np.abs(sol - g.values).max() < 1e-12
    assert abs(sol.mean()) < 1e-14


def test_half_laplacian_multiplier_is_rfft_width():
    n = 32
    h = half_laplacian_multiplier(n)
    assert h.shape == (n, n // 2 + 1)
    assert half_laplacian_multiplier(n) is h
    assert h[0, 0] == 0.0
    assert h[0, 1] == pytest.approx(TAU ** 2, rel=1e-14)
    # the full symbol's first n/2 + 1 columns; column n/2 is the Nyquist
    # mode, whose symbol is even in k
    k = np.fft.fftfreq(n, d=1.0 / n)
    full = (TAU * k[:, None]) ** 2 + (TAU * k[None, :]) ** 2
    np.testing.assert_array_equal(h, full[:, :n // 2 + 1])
    with pytest.raises(ValueError):
        h[0, 0] = 1.0


def test_bilinear_torus_wraps():
    n = 32
    f = sample(lambda x, y: np.cos(TAU * x) + np.sin(TAU * y), TorusChart(), n)
    # exact at nodes, periodic across the seam
    assert bilinear_torus(f.values, 0.0, 0.0) == pytest.approx(f.values[0, 0])
    left = bilinear_torus(f.values, -0.015625, 0.25)
    right = bilinear_torus(f.values, 1.0 - 0.015625, 0.25)
    assert left == pytest.approx(right, abs=1e-14)


def _cell_means(v, wrap_i, wrap_j):
    """Mean of the 4 corners of every cell; a wrapped axis adds the cell n-1 -> 0."""
    if wrap_i:
        v = np.vstack([v, v[:1]])
    if wrap_j:
        v = np.hstack([v, v[:, :1]])
    return 0.25 * (v[:-1, :-1] + v[1:, :-1] + v[:-1, 1:] + v[1:, 1:])


def test_interpolate_charts():
    disk = DiskChart(1.0)
    f = sample(lambda x, y: x ** 2 + 0.5 * y, disk, 128)
    assert interpolate(f, 0.3, -0.2) == pytest.approx(0.3 ** 2 - 0.1, abs=1e-3)
    with pytest.raises(ValueError):
        interpolate(f, 1.5, 0.0)
    lp = LogPolarChart(0.1, 1.0)
    g = sample(lambda x, y: np.log(np.hypot(x, y)), lp, 64)
    assert interpolate(g, 0.5, 0.0) == pytest.approx(math.log(0.5), abs=1e-6)

    # random samples: nodes read back, cell midpoints give the corner mean
    # (the last torus row and column and the last theta column straddle a
    # seam), and the far edge of a bounded axis reads the edge samples; the
    # clip to n-1-1e-12 on a bounded axis leaves the last node a 1e-12
    # weight on its neighbour
    for n in (8, 64):
        rng = np.random.default_rng(n)
        t = Field(rng.random((n, n)), TorusChart())
        X, Y = t.chart.mesh(n)
        np.testing.assert_array_equal(interpolate(t, X, Y), t.values)
        Xm, Ym = X + 0.5 / n, Y + 0.5 / n
        mid = interpolate(t, Xm, Ym)
        np.testing.assert_allclose(mid, _cell_means(t.values, True, True), rtol=0, atol=1e-15)
        np.testing.assert_array_equal(interpolate(t, Xm - 1.0, Ym + 1.0), mid)
        np.testing.assert_array_equal(mid, bilinear_torus(t.values, Xm, Ym))

        disk = DiskChart(0.7)
        d = Field(rng.random((n, n)), disk)
        x = disk.nodes(n)
        X, Y = disk.mesh(n)
        np.testing.assert_allclose(interpolate(d, X, Y), d.values, rtol=0, atol=2e-12)
        xm = 0.5 * (x[:-1] + x[1:])
        Xm, Ym = np.meshgrid(xm, xm, indexing="ij")
        np.testing.assert_allclose(interpolate(d, Xm, Ym), _cell_means(d.values, False, False),
                                   rtol=0, atol=1e-12)
        edge = np.full(n, 0.7)
        np.testing.assert_allclose(interpolate(d, edge, x), d.values[-1], rtol=0, atol=2e-12)
        np.testing.assert_allclose(interpolate(d, x, edge), d.values[:, -1], rtol=0, atol=2e-12)

        lp = LogPolarChart(0.1, 2.0)
        g = Field(rng.random((n, n)), lp)
        X, Y = lp.mesh(n)
        np.testing.assert_allclose(interpolate(g, X, Y), g.values, rtol=0, atol=2e-12)
        s, th = lp.s_nodes(n), lp.theta_nodes(n)
        R, TH = np.meshgrid(np.exp(0.5 * (s[:-1] + s[1:])), th + math.pi / n, indexing="ij")
        np.testing.assert_allclose(interpolate(g, R * np.cos(TH), R * np.sin(TH)),
                                   _cell_means(g.values, False, True), rtol=0, atol=1e-12)
        np.testing.assert_allclose(interpolate(g, 2.0 * np.cos(th), 2.0 * np.sin(th)),
                                   g.values[-1], rtol=0, atol=2e-12)


def test_integral_torus_vs_quadrature():
    n = 256
    f = sample(lambda x, y: np.exp(np.sin(TAU * x)) + 0.0 * y, TorusChart(), n)
    ref, _ = quad(lambda x: math.exp(math.sin(TAU * x)), 0.0, 1.0,
                  limit=200, epsabs=1e-13)
    assert integral(f) == pytest.approx(ref, abs=1e-12)


def test_integral_disk_and_logpolar():
    disk = DiskChart(1.0)
    f = constant(0.0, disk, 256)
    assert integral(Field(np.ones((256, 256)), disk)) == pytest.approx(4.0, abs=1e-12)
    # conformal area of u = 0 on r in [a, b] is pi (b^2 - a^2);
    # trapezoid in log r carries O(ds^2) error for this non-flat integrand
    lp = LogPolarChart(0.25, 1.0)
    u = constant(0.0, lp, 256)
    assert conformal_area(u) == pytest.approx(math.pi * (1.0 - 0.0625), rel=1e-4)


def test_conformal_area_logpolar_closed_form():
    # u = -log r: area of the annulus is 2 pi log(b/a)
    lp = LogPolarChart(0.05, 0.8)
    u = sample(lambda x, y: -np.log(np.hypot(x, y)), lp, 256)
    assert conformal_area(u) == pytest.approx(TAU * math.log(0.8 / 0.05), rel=1e-9)


def test_sample_points_match_mesh():
    n = 16
    chart = DiskChart(2.0)
    f = sample(lambda x, y: x + 10 * y, chart, n)
    X, Y = chart.mesh(n)
    assert np.allclose(f.values, X + 10 * Y)
    assert X.min() == -2.0 and X.max() == 2.0


@pytest.mark.parametrize("m", [1, 5, 20, 32, 64])
def test_gauss_legendre_exact_on_polynomials(m):
    # Legendre series on [a, b] stay O(1) there, so 1e-14 is a round-off
    # bound even at degree 127
    a, b = -0.7, 1.3
    rng = np.random.default_rng(m)
    for panels in (1, 3):
        for deg in (0, m, 2 * m - 1):
            poly = np.polynomial.Legendre(rng.normal(size=deg + 1) / (deg + 1),
                                          domain=[a, b])
            prim = poly.integ()
            want = prim(b) - prim(a)
            assert abs(gauss_legendre(poly, a, b, m, panels) - want) <= 1e-14
    # one degree more is not integrated exactly: the rule has m nodes, no more
    p2m = np.polynomial.Legendre.basis(2 * m, domain=[a, b])
    assert abs(gauss_legendre(p2m, a, b, m)) > 1e-3
