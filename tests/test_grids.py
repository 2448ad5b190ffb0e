"""Fields, spectral calculus, interpolation, and quadrature."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import given, settings, strategies as st
from scipy import special
from scipy.integrate import quad

from cmlab.grids import (
    _QUAD_NODES,
    _blocks,
    TAU,
    Field,
    bilinear_torus,
    gauss_legendre,
    integral,
    interpolate,
    irfft2,
    laplacian_factors,
    neg_laplacian,
    poisson_mean_zero,
    rfft2,
    sample,
    torus_distance,
    wrap_half,
)
from oracles import fd_neg_laplacian_periodic, torus_mesh, whole_grid_poisson


def test_field_validation():
    with pytest.raises(ValueError):
        Field(np.zeros((8, 9)))
    with pytest.raises(ValueError):
        Field(np.zeros((12, 12)))
    with pytest.raises(ValueError):
        Field(np.zeros((4, 4)))
    bad = np.zeros((8, 8))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        Field(bad)
    f = Field(np.zeros((16, 16)))
    assert f.n == 16


def test_torus_mesh_and_distance():
    X = sample(lambda x, y: x, 8).values
    assert X[0, 0] == 0.0 and X[1, 0] == 0.125
    assert wrap_half(0.75) == -0.25
    assert torus_distance(0.9, 0.0, 0.1, 0.0) == pytest.approx(0.2, abs=1e-15)
    assert torus_distance(0.25, 0.75, 0.75, 0.25) == pytest.approx(
        math.hypot(0.5, 0.5), abs=1e-15)


def test_spectral_laplacian_matches_fd():
    n = 128
    f = sample(lambda x, y: np.sin(TAU * x) * np.cos(2 * TAU * y), n)
    spec = neg_laplacian(f.values)
    fd = fd_neg_laplacian_periodic(f.values)
    # FD is 2nd order; the spectral result is exact for band-limited data
    exact = (TAU ** 2 + (2 * TAU) ** 2) * f.values
    assert np.abs(spec - exact).max() < 1e-9
    assert np.abs(fd - exact).max() < 0.5
    n2 = 256
    f2 = sample(lambda x, y: np.sin(TAU * x) * np.cos(2 * TAU * y), n2)
    fd2 = fd_neg_laplacian_periodic(f2.values)
    exact2 = (TAU ** 2 + (2 * TAU) ** 2) * f2.values
    ratio = np.abs(fd2 - exact2).max() / np.abs(fd - exact).max()
    assert 0.2 < ratio < 0.3  # O(n^-2)


def test_poisson_mean_zero_manufactured():
    # g = sin(2 pi x) cos(4 pi y): -Delta g = (2pi)^2 (1 + 4) g, analytically
    n = 64
    g = sample(lambda x, y: np.sin(TAU * x) * np.cos(2 * TAU * y), n)
    f = Field((TAU ** 2 * 5.0) * g.values)
    sol = poisson_mean_zero(f.values)
    assert np.abs(sol - g.values).max() < 1e-12
    assert abs(sol.mean()) < 1e-14


@pytest.mark.parametrize("n", [8, 16, 64, 256])
def test_poisson_mean_zero_is_the_whole_array_solve(n):
    # the row-blocked divide and the inverse transform into the spectrum's
    # own buffer (n(n + 2) doubles) keep the whole-array solve's bits
    f = np.random.default_rng(n).standard_normal((n, n))
    got = poisson_mean_zero(f)
    assert got.tobytes() == whole_grid_poisson(f).tobytes()
    assert got.base is not None and got.base.nbytes == 8 * n * (n + 2)


def test_laplacian_symbol_is_rfft_width():
    # the symbol of -Delta is the sum of its two 1-D factors, whose
    # broadcast fills the half spectrum of rfft2
    n = 32
    kx2, ky2 = laplacian_factors(n)
    assert kx2.shape == (n, 1) and ky2.shape == (1, n // 2 + 1)
    h = kx2 + ky2
    assert h.shape == (n, n // 2 + 1)
    assert h[0, 0] == 0.0
    assert h[0, 1] == pytest.approx(TAU ** 2, rel=1e-14)
    # the full symbol's first n/2 + 1 columns; column n/2 is the Nyquist
    # mode, whose symbol is even in k
    k = np.fft.fftfreq(n, d=1.0 / n)
    full = (TAU * k[:, None]) ** 2 + (TAU * k[None, :]) ** 2
    np.testing.assert_array_equal(h, full[:, :n // 2 + 1])


@st.composite
def _real_squares(draw):
    """A real n-by-n array, n a power of two in [8, 256]: contiguous, a
    transpose, or every other node of a 2n-by-2n array."""
    n = draw(st.sampled_from([8, 16, 32, 64, 128, 256]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.integers(-8, 8))
    layout = draw(st.sampled_from(["contiguous", "transpose", "stride"]))
    if layout == "stride":
        return scale * rng.standard_normal((2 * n, 2 * n))[::2, ::2]
    a = scale * rng.standard_normal((n, n))
    return a.T if layout == "transpose" else a


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(a=_real_squares(), strided_spectrum=st.booleans())
def test_transform_pair_equals_scipy_bit_for_bit(a, strided_spectrum):
    n = a.shape[0]
    a_before = a.copy()
    ahat = rfft2(a)
    np.testing.assert_array_equal(a, a_before)  # CG reuses its arrays
    want = sfft.rfft2(a)
    assert (ahat.shape, ahat.dtype) == (want.shape, want.dtype)
    assert ahat.tobytes() == want.tobytes()
    out = np.empty_like(ahat)
    assert rfft2(a, out=out) is out
    assert out.tobytes() == want.tobytes()
    # an arbitrary half spectrum, not only one of a real array
    rng = np.random.default_rng(n)
    spec = ahat * (1.0 + 1j * rng.standard_normal(ahat.shape))
    if strided_spectrum:
        buf = np.zeros((2 * n, 2 * spec.shape[1]), complex)
        buf[::2, ::2] = spec
        spec = buf[::2, ::2]
    spec_before = spec.copy()
    back = irfft2(spec, n)
    np.testing.assert_array_equal(spec, spec_before)
    want = sfft.irfft2(spec, s=(n, n))
    assert (back.shape, back.dtype) == (want.shape, want.dtype)
    assert back.tobytes() == want.tobytes()
    out = np.empty((n, n))
    assert irfft2(spec.copy(), n, out=out) is out  # the copy serves as scratch
    assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [8, 16, 256, 1024])
def test_irfft2_out_may_alias_its_input(n):
    # CG writes z over the first n^2 doubles of z^'s own buffer; at n <= 128
    # one row block covers the grid, above it the row pass runs in blocks
    rng = np.random.default_rng(n)
    spec = rfft2(rng.standard_normal((n, n)))
    spec *= 1.0 + 1j * rng.standard_normal(spec.shape)  # any half spectrum
    want = irfft2(spec.copy(), n, out=np.empty((n, n)))
    head = spec.view(float).reshape(-1)[:n * n].reshape(n, n)
    assert irfft2(spec, n, out=head) is head
    assert head.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [256, 1024])
def test_irfft2_staged_in_a_given_block_allocates_nothing(n):
    # CG's call: out at the head of z^'s buffer and CG's free row block as
    # the stage. Without the stage numpy copied each aliased input row block
    # (257.9 KiB a call at n = 1024); with it the call allocates under 8 KiB
    # and keeps the bits
    rng = np.random.default_rng(n)
    spec = rfft2(rng.standard_normal((n, n)))
    spec *= 1.0 + 1j * rng.standard_normal(spec.shape)
    want = irfft2(spec.copy(), n)
    head = spec.view(float).reshape(-1)[:n * n].reshape(n, n)
    block = np.empty((_blocks(n)[0].stop, n))
    tracemalloc.start()
    try:
        assert irfft2(spec, n, out=head, block=block) is head
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert head.tobytes() == want.tobytes()
    assert peak < 8 * 2 ** 10


def test_bilinear_torus_wraps():
    n = 32
    f = sample(lambda x, y: np.cos(TAU * x) + np.sin(TAU * y), n)
    # exact at nodes, periodic across the seam
    assert bilinear_torus(f.values, 0.0, 0.0) == pytest.approx(f.values[0, 0])
    left = bilinear_torus(f.values, -0.015625, 0.25)
    right = bilinear_torus(f.values, 1.0 - 0.015625, 0.25)
    assert left == pytest.approx(right, abs=1e-14)


def _cell_means(v):
    """Mean of the 4 corners of every cell, the cells n-1 -> 0 included."""
    v = np.pad(v, ((0, 1), (0, 1)), mode="wrap")
    return 0.25 * (v[:-1, :-1] + v[1:, :-1] + v[:-1, 1:] + v[1:, 1:])


def test_interpolate_charts():
    # random samples: nodes read back, and cell midpoints give the corner
    # mean (the last row and column straddle the seam)
    for n in (8, 64):
        rng = np.random.default_rng(n)
        t = Field(rng.random((n, n)))
        X, Y = torus_mesh(n)
        np.testing.assert_array_equal(interpolate(t, X, Y), t.values)
        Xm, Ym = X + 0.5 / n, Y + 0.5 / n
        mid = interpolate(t, Xm, Ym)
        np.testing.assert_allclose(mid, _cell_means(t.values), rtol=0, atol=1e-15)
        np.testing.assert_array_equal(interpolate(t, Xm - 1.0, Ym + 1.0), mid)
        np.testing.assert_array_equal(mid, bilinear_torus(t.values, Xm, Ym))


def test_integral_torus_vs_quadrature():
    n = 256
    f = sample(lambda x, y: np.exp(np.sin(TAU * x)) + 0.0 * y, n)
    ref, _ = quad(lambda x: math.exp(math.sin(TAU * x)), 0.0, 1.0,
                  limit=200, epsabs=1e-13)
    assert integral(f) == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize("a, b", [(0.25, 0.0), (1.0, 0.5), (0.5, -1.0)])
@pytest.mark.parametrize("n", [16, 64, 256])
def test_conformal_area_on_the_torus_closed_form(n, a, b):
    # the area of e^{2u}, u = a cos(2 pi x) + b sin(2 pi y), is I0(2a) I0(2b);
    # the node mean of a periodic analytic integrand converges geometrically,
    # and I_n(2) < 1e-13 for n >= 16
    u = sample(lambda x, y: a * np.cos(TAU * x) + b * np.sin(TAU * y), n)
    area = integral(Field(np.exp(2.0 * u.values)))
    assert area == pytest.approx(special.i0(2.0 * a) * special.i0(2.0 * b), rel=1e-12)


def test_sample_points_match_mesh():
    n = 16
    f = sample(lambda x, y: x + 10 * y, n)
    X, Y = torus_mesh(n)
    assert np.array_equal(f.values, X + 10 * Y)
    assert X.min() == 0.0 and X.max() == 1.0 - 1.0 / n


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
            edges = np.linspace(a, b, panels + 1)
            assert abs(gauss_legendre(poly, edges, m) - want) <= 1e-14
    # one degree more is not integrated exactly: the rule has m nodes, no more
    p2m = np.polynomial.Legendre.basis(2 * m, domain=[a, b])
    assert abs(gauss_legendre(p2m, (a, b), m)) > 1e-3


def test_gauss_legendre_uneven_edges_sum_their_panels():
    # radial_length's case: quarter-octave edges with grid-line breaks
    # merged in; the panel terms are added in order, bit for bit, and f is
    # called on whole panels, as many as fit in _QUAD_NODES
    edges = np.union1d(np.linspace(-4.0, -1.0, 13), [-3.71, -2.5003, -1.02])
    calls = []

    def f(t):
        calls.append(t.size)
        return np.exp(1.5 * t) * np.cos(7.0 * t)

    whole = gauss_legendre(f, edges, 32)
    per_call = _QUAD_NODES // 32 * 32
    full, rest = divmod((len(edges) - 1) * 32, per_call)
    assert calls == [per_call] * full + [rest] * (rest > 0)
    parts = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        parts += gauss_legendre(f, (lo, hi), 32)
    assert whole == parts
    assert gauss_legendre(lambda t: 2.0, edges, 5) == pytest.approx(6.0, abs=1e-14)
