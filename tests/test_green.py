"""Torus Green function: lattice-sum agreement, weak identity, log split."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import cmlab.green
from cmlab.grids import TAU, bilinear_torus, gauss_legendre, sample, torus_distance
from cmlab.green import _R1, _R2, cutoff, green_kernel, green_torus, singular_part
from cmlab.measures import Divisor, pairing
from oracles import (green_remainder_grid, lattice_green, torus_nodes, whole_array_singular,
                     whole_grid_green)

# independently computed convergent series value, G_0(1/2, 1/2)
G_HALF_HALF = -0.055158900038163


def test_lattice_series_frozen_value():
    assert lattice_green(0.5, 0.5) == pytest.approx(G_HALF_HALF, abs=1e-12)
    # symmetry checks of the oracle itself
    assert lattice_green(0.3, 0.2) == pytest.approx(lattice_green(0.2, 0.3), abs=1e-12)
    assert lattice_green(0.3, 0.2) == pytest.approx(lattice_green(0.7, 0.2), abs=1e-12)


def test_green_kernel_matches_lattice_sum():
    pts = [(0.5, 0.5), (0.13, 0.37), (0.77, 0.61), (0.1, 0.9), (0.45, 0.52)]
    errs = []
    for n in (64, 128, 256):
        g = green_kernel((0.0, 0.0), n)
        errs.append(max(abs(g.eval(x, y) - lattice_green(x, y)) for x, y in pts))
    assert errs[0] < 2e-3 and errs[1] < 6e-4 and errs[2] < 2e-4
    assert errs[2] < errs[1] < errs[0]


_POINT = st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                   st.floats(0.0, 1.0, exclude_max=True))


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(p=_POINT, q=_POINT)
def test_green_symmetry_matches_lattice_sum(p, q):
    # G_p(q) = G_q(p) = G(q - p), to the n = 64 bound of
    # test_green_kernel_matches_lattice_sum; the 25 drawn pairs reach
    # 4.4e-4 for symmetry and 7.5e-4 against the series
    assume(float(torus_distance(*p, *q)) >= 2.0 / 64)
    gpq = float(green_kernel(p, 64).eval(*q))
    gqp = float(green_kernel(q, 64).eval(*p))
    exact = lattice_green(q[0] - p[0], q[1] - p[1])
    assert abs(gpq - gqp) < 2e-3
    assert max(abs(gpq - exact), abs(gqp - exact)) < 2e-3


def test_green_kernel_translation_and_periodicity():
    # translation invariance holds up to the interpolation error of the
    # remainder field (the atom sits at different offsets within a cell)
    g = green_kernel((0.3, 0.7), 256)
    base = green_kernel((0.0, 0.0), 256)
    assert g.eval(0.3 + 0.11, 0.7 + 0.23) == pytest.approx(
        base.eval(0.11, 0.23), abs=5e-6)
    assert g.eval(1.42, -0.75) == pytest.approx(g.eval(0.42, 0.25), abs=1e-12)


def test_green_field_mean_almost_zero():
    # the kernel is normalized so the continuum integral vanishes; the grid
    # mean then carries only the O(n^-2 log n) quadrature defect of the
    # log part
    # the defect oscillates with the sub-cell offset of the atom, so only
    # the overall 64 -> 256 decay is asserted
    means = [abs(green_torus((0.3, 0.7), n).values.mean()) for n in (64, 128, 256)]
    assert means[0] < 2e-5 and means[1] < 5e-6 and means[2] < 1.3e-6
    assert means[2] < means[0]


def test_green_weak_identity_decays():
    # <-Delta G_p, phi> = phi(p) - mean(phi), tested through the measure pairing
    p = (0.3, 0.7)

    def phi_fn(x, y):
        return np.cos(TAU * (x - 0.1)) * np.sin(TAU * y)

    errs = []
    for n in (64, 128, 256):
        g = green_torus(p, n)
        phi = sample(phi_fn, n)
        lhs = pairing(g, phi)
        rhs = phi_fn(*p) - phi.values.mean()
        errs.append(abs(lhs - rhs))
    assert errs[0] < 0.5 / 64 and errs[1] < 0.5 / 128 and errs[2] < 0.5 / 256
    assert errs[2] < errs[1] < errs[0]


def test_green_log_split_bounded_near_atom():
    g = green_kernel((0.3, 0.7), 256)
    vals = []
    raw = []
    for k in range(3, 7):  # radii 1/8 .. 1/64
        r = 2.0 ** -k
        x, y = 0.3 + r, 0.7
        vals.append(g.eval(x, y) + math.log(r) / TAU)
        raw.append(abs(g.eval(x, y)))
    assert max(abs(v) for v in vals) < 1.0  # remainder stays bounded
    assert raw[-1] > raw[0]  # while G itself grows


def test_mean_pin_is_the_64_node_band_quadrature():
    # the kernel build adds a constant; its band term is the 64-node
    # Gauss-Legendre value of int chi(r) r log r dr over [1/8, 3/8], bit for bit
    band = float(gauss_legendre(lambda r: cutoff(r) * r * np.log(r), (_R1, _R2), 64))
    assert cmlab.green._BAND.hex() == band.hex()
    disk = 0.5 * _R1 ** 2 * (math.log(_R1) - 0.5)
    assert cmlab.green._MEAN_PIN.hex() == (disk + band).hex()


def test_cached_kernel_holds_one_grid():
    n = 64
    g = green_kernel((0.3, 0.7), n)
    arrays = [a for a in vars(g).values() if isinstance(a, np.ndarray)]
    assert [(a.shape, a.dtype) for a in arrays] == [((n, n), np.float64)]


@pytest.mark.parametrize("n", [8, 16, 64, 256])
@pytest.mark.parametrize("p", [
    (0.3, 0.7),
    (0.0, 0.0),  # an atom on a node
    (0.999, 0.001),  # the cutoff's support across both seams
    (0.5, 0.25 + 0.3 / 128),
])
def test_kernel_build_on_the_support_is_the_whole_grid_build(p, n):
    # psi and the node log evaluated only where d < 3/8, and the blocked
    # Poisson solve, leave every bit of every sample as the whole-grid build
    assert green_kernel(p, n).samples.tobytes() == whole_grid_green(p, n).tobytes()


@pytest.mark.parametrize("p, n", [
    ((0.3, 0.7), 64),
    ((0.0, 0.0), 64),  # an atom on a node: the clamped stand-in sample
    ((0.999, 0.001), 32),  # the atom's core across both seams
    ((0.5 + 0.3 / 128, 0.25 + 0.7 / 128), 128),
])
def test_remainder_at_matches_the_remainder_grid(p, n):
    # R rebuilt from the samples at each corner read differs from the grid
    # the build solved by round-off only: within 2 ulp of the largest |R| or
    # |G| at the four corners (1.5 ulp is the largest seen)
    g = green_kernel(p, n)
    R = green_remainder_grid(p, n)
    big = np.maximum(np.abs(R), np.abs(g.samples))
    x = torus_nodes(n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    seam = np.array([0.0, -0.25 / n, 1.0 - 0.5 / n, 1.0 - 1e-9])
    points = [(X, Y), (X + 0.5 / n, Y + 0.5 / n), (X + 0.3 / n, Y + 0.8 / n),
              np.meshgrid(seam, x + 0.4 / n), np.meshgrid(x + 0.4 / n, seam),
              (np.array([p[0]]), np.array([p[1]]))]
    for xs, ys in points:
        got = g.remainder_at(xs, ys)
        want = bilinear_torus(R, xs, ys)
        i = np.floor(np.asarray(xs) * n).astype(int) % n
        j = np.floor(np.asarray(ys) * n).astype(int) % n
        scale = np.maximum.reduce([big[i, j], big[(i + 1) % n, j],
                                   big[i, (j + 1) % n], big[(i + 1) % n, (j + 1) % n]])
        assert np.all(np.abs(got - want) <= 2.0 * np.spacing(scale))


def test_singular_part_assembles_weighted_greens():
    div = Divisor(((0.3, 0.7), (0.11, 0.23)), (-0.5, 0.25))
    split = singular_part(div, 128)
    assert split.n == 128
    assert split.beta_sum == pytest.approx(-0.25)
    g1 = green_torus((0.3, 0.7), 128)
    g2 = green_torus((0.11, 0.23), 128)
    manual = TAU * 0.5 * g1.values - TAU * 0.25 * g2.values
    assert np.abs(split.S.values - manual).max() < 1e-12


ATOMS = ((0.3, 0.7), (0.11, 0.23), (0.77, 0.61))
WEIGHTS = (-0.5, -0.3, 0.2)


@pytest.mark.parametrize("n", [8, 64, 256])
@pytest.mark.parametrize("atoms", [0, 1, 3])
def test_s_formed_by_blocks_is_the_whole_array_sum(atoms, n):
    # S is formed a row block at a time, its first term one product: the
    # bytes of the sum from zero over whole arrays
    split = singular_part(Divisor(ATOMS[:atoms], WEIGHTS[:atoms]), n)
    assert split.S.values.tobytes() == whole_array_singular(split).tobytes()


@pytest.mark.parametrize("beta", [math.inf, 1e308])
def test_singular_part_refuses_a_weight_that_makes_s_infinite(beta):
    # 2 pi beta overflows, so S is not finite: refused before the split is
    # returned, as when the split stored S as a Field
    with pytest.raises(ValueError, match="Field values must be finite"):
        singular_part(Divisor(((0.3, 0.7),), (beta,)), 16)


def test_singular_part_behaves_like_beta_log():
    div = Divisor(((0.3, 0.7),), (-0.5,))
    split = singular_part(div, 256)
    for r in (1.0 / 16, 1.0 / 32, 1.0 / 64):
        val = split.smooth_rest(None, 0.3 + r, 0.7)  # S itself
        assert abs(val - (-0.5) * math.log(r)) < 1.0
    # smooth_rest is the atom's own regular part: S - beta log d, finite and
    # continuous through the atom
    a = split.smooth_rest(0, 0.3 + 1e-6, 0.7)
    b = split.smooth_rest(0, 0.3, 0.7 + 1e-6)
    assert abs(a - b) < 1e-3


def test_singular_part_rejects_node_atoms():
    with pytest.raises(ValueError):
        singular_part(Divisor(((0.25, 0.5),), (-0.5,)), 64)


def test_divisor_validation():
    with pytest.raises(ValueError):
        Divisor(((0.1, 0.1), (0.1, 0.1)), (-0.5, -0.5))  # duplicate points
    with pytest.raises(ValueError):
        Divisor(((0.1, 0.1),), (-1.5,))  # beta below the cusp value -1
    with pytest.raises(ValueError):
        Divisor(((0.1, 0.1),), (-0.5, 0.5))  # length mismatch
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            Divisor(((bad, 0.7),), (-0.5,))
        with pytest.raises(ValueError, match="finite"):
            Divisor(((0.3, 0.7), (0.2, bad)), (-0.5, -0.5))
    d = Divisor(((0.1, 0.1), (0.2, 0.3)), (-0.5, 2.0))
    assert len(d) == 2 and d.beta_sum == pytest.approx(1.5)
    cusp = Divisor(((0.4, 0.6),), (-1.0,))  # cusp weight itself is legal
    assert cusp.beta_sum == pytest.approx(-1.0)


def test_divisor_points_are_torus_points():
    with pytest.raises(ValueError):
        Divisor(((0.31, 0.47), (1.31, 0.47)), (-0.3, -0.3))  # lattice translate
    with pytest.raises(ValueError):
        Divisor(((0.31, 0.47), (0.31 + 1e-12, 0.47)), (-0.3, -0.3))
    with pytest.raises(ValueError):
        Divisor(((0.0, 0.5), (1.0 - 1e-12, 0.5)), (-0.3, -0.3))  # across the seam
    d = Divisor(((1.25, -0.5), (-1e-17, 0.75)), (-0.3, -0.3))
    assert d.points == ((0.25, 0.5), (0.0, 0.75))
    assert Divisor(((0.31, 0.47), (0.31 + 1e-6, 0.47)), (-0.3, -0.3)).points[1] \
        == (0.31 + 1e-6, 0.47)
