"""Blowup sequences, rescaling, fixtures, necks, and the area identity."""

import math

import numpy as np
import pytest

from cmlab.bubbles import (
    BlowupSeq,
    SyntheticFamily,
    area_identity_check,
    classify_pair,
    list_fixtures,
    load_fixture,
    neck_area_profile,
    neck_curvature_limit,
    plane_area,
    rescale,
    three_circle_check,
    validate_family,
)
from cmlab.errors import ConfigError
from cmlab.grids import DiskChart, Field, LogPolarChart, TorusChart, interpolate, sample
from cmlab.measures import FluxProfile
from cmlab.models import (
    TAU,
    LinearCylinder,
    cap_profile,
    cusp_annulus_area,
    cusp_profile,
    standard_bubble,
)

FIXTURES = ["flat-neck", "hyperbolic-cusp", "linear-cylinder",
            "no-bubble", "spherical-cap"]


def test_blowup_seq_validation():
    good = BlowupSeq(tuple((0.0, 0.0) for _ in range(8)),
                     tuple(2.0 ** -k for k in range(8)))
    assert len(good) == 8
    with pytest.raises(ValueError):
        BlowupSeq(((0.0, 0.0),) * 7, tuple(2.0 ** -k for k in range(7)))
    with pytest.raises(ValueError):
        BlowupSeq(((0.0, 0.0),) * 8, tuple(2.0 ** -k for k in range(7)))
    with pytest.raises(ValueError):
        BlowupSeq(((0.0, 0.0),) * 8, (1.0,) * 7 + (0.0,))
    with pytest.raises(ValueError):
        BlowupSeq(((0.0, 0.0),) * 8, (1.0,) * 6 + (0.5, 1.0))  # growing tail


def _seq(centers, radii):
    return BlowupSeq(tuple(centers), tuple(radii))


def test_classify_pair_on_top():
    # a shrinks quadratically inside b, with centers merging at rate 1/k
    ks = range(1, 2049)
    a = _seq([(0.3 + 0.5 / k, 0.7) for k in ks], [1.0 / k ** 2 for k in ks])
    b = _seq([(0.3, 0.7) for _ in ks], [1.0 / k for k in ks])
    assert classify_pair(a, b) == "on-top(a<b)"
    assert classify_pair(b, a) == "on-top(b<a)"


def test_classify_pair_essentially_same():
    ks = range(1, 65)
    a = _seq([(0.5, 0.5) for _ in ks], [1.0 / k for k in ks])
    b = _seq([(0.5, 0.5) for _ in ks], [1.5 / k for k in ks])
    assert classify_pair(a, a) == "essentially-same"
    assert classify_pair(a, b) == "essentially-same"
    assert classify_pair(b, a) == "essentially-same"


def test_classify_pair_disjoint():
    ks = range(1, 17)
    a = _seq([(0.2, 0.2) for _ in ks], [2.0 ** -k for k in ks])
    b = _seq([(0.8, 0.8) for _ in ks], [2.0 ** -k for k in ks])
    assert classify_pair(a, b) == "disjoint"


def test_classify_pair_inconclusive_on_short_data():
    # sqrt-rate separation neither merges nor diverges over a short range
    ks = range(1, 17)
    a = _seq([(0.5 + 1.0, 0.5) for k in ks], [1.0 / math.sqrt(k) for k in ks])
    b = _seq([(0.5, 0.5) for _ in ks], [1.0 / math.sqrt(k) for k in ks])
    assert classify_pair(a, b) == "inconclusive"


@pytest.mark.parametrize("radius, n", [(1.0, 64), (0.7, 256)])
def test_rescale_identity(radius, n):
    # at radius 0.7 and n = 256 the last node's grid index rounds above n - 1
    chart = DiskChart(radius)
    u = sample(lambda x, y: 0.3 * x - 0.1 * y * y, chart, n)
    out = rescale(u, (0.0, 0.0), 1.0, window=radius)
    assert out.chart == chart
    np.testing.assert_allclose(out.values, u.values, atol=1e-12)


def test_rescale_zooms_cap_onto_standard_bubble():
    # zooming a lam-cap at its own scale yields the unit bubble exactly
    lam = 0.25
    u = sample(cap_profile(lam, center=(0.5, 0.5)), TorusChart(), 512)
    z = rescale(u, (0.5, 0.5), lam, window=1.0, n_out=128)
    X, Y = z.chart.mesh(128)
    want = standard_bubble()(X, Y)
    assert float(np.abs(z.values - want).max()) < 5e-4


def test_rescale_composition():
    chart = DiskChart(1.0)
    u = sample(lambda x, y: np.sin(1.1 * x) * np.cos(0.7 * y), chart, 256)
    once = rescale(u, (0.1, -0.05), 0.5 * 0.4)
    twice = rescale(rescale(u, (0.1, -0.05), 0.5), (0.0, 0.0), 0.4)
    np.testing.assert_allclose(twice.values, once.values, atol=1e-3)


def test_rescale_window_checks():
    u = sample(lambda x, y: 0.0 * x, TorusChart(), 64)
    with pytest.raises(ValueError):
        rescale(u, (0.5, 0.5), 0.6)  # 0.6 > half period
    d = sample(lambda x, y: 0.0 * x, DiskChart(1.0), 64)
    with pytest.raises(ValueError):
        rescale(d, (0.8, 0.0), 0.5)  # reach exceeds the disk
    lp = Field(np.zeros((16, 16)), LogPolarChart(0.1, 1.0))
    with pytest.raises(ValueError):
        rescale(lp, (0.0, 0.0), 0.5)


def test_fixture_corpus():
    assert list_fixtures() == FIXTURES
    signs = {"flat-neck": "violating", "hyperbolic-cusp": "negative",
             "linear-cylinder": "violating", "no-bubble": "negative",
             "spherical-cap": "positive"}
    for name in FIXTURES:
        fam = load_fixture(name)
        assert fam.name == name
        assert fam.sign_class == signs[name]
        assert fam.k_min <= fam.k_max


def test_fixture_loading_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_fixture("no-such-family")
    bad = tmp_path / "bad.ini"
    bad.write_text("[family]\nkind = spherical-cap\nsign = positive\n"
                   "k_min = 1\nk_max = 8\nwhatever = 3\n")
    with pytest.raises(ConfigError):
        load_fixture(str(bad))
    two = tmp_path / "two.ini"
    two.write_text("[family]\nkind = flat-neck\nsign = violating\n[extra]\n")
    with pytest.raises(ConfigError):
        load_fixture(str(two))
    with pytest.raises(ConfigError):
        load_fixture(str(tmp_path / "missing.ini"))


def test_fixture_load_by_path(tmp_path):
    p = tmp_path / "my-cap.ini"
    p.write_text("[family]\nkind = spherical-cap\nsign = positive\n"
                 "k_min = 2\nk_max = 10\nlam_scale = 0.5\n")
    fam = load_fixture(str(p))
    assert fam.name == "my-cap"
    assert fam.scale(2) == pytest.approx(0.5 * 0.25)


def test_family_validation_errors():
    with pytest.raises(ConfigError):
        SyntheticFamily("x", "unknown-kind", "negative", 1, 4)
    with pytest.raises(ConfigError):
        SyntheticFamily("x", "flat-neck", "sideways", 1, 4)
    with pytest.raises(ConfigError):
        SyntheticFamily("x", "flat-neck", "violating", 1, 4, params={"A": 1.0})
    with pytest.raises(ConfigError):
        SyntheticFamily("x", "flat-neck", "violating", 5, 4)
    cyl = SyntheticFamily("x", "linear-cylinder", "violating", 1, 4)
    with pytest.raises(ValueError):
        cyl.u(1)
    with pytest.raises(ValueError):
        cyl.rate_value(1)
    cap = SyntheticFamily("x", "spherical-cap", "positive", 1, 8)
    with pytest.raises(ValueError):
        cap.cylinder()


def test_validate_family_cap():
    fam = load_fixture("spherical-cap")
    rep = validate_family(fam, fam.k_max)
    assert rep.sign_ok and rep.mass_ok and rep.gradient_ok
    # |grad u| r = 2 r^2 / (lam^2 + r^2) tops out just under 2
    assert rep.max_gradient == pytest.approx(2.0, abs=1e-2)
    assert rep.max_mass <= fam.mass_bound


def test_validate_family_signs():
    assert validate_family(load_fixture("no-bubble"), 4).sign_ok
    assert validate_family(load_fixture("flat-neck"), 4).sign_ok  # 0 is outside both
    wrong = SyntheticFamily("w", "spherical-cap", "negative", 1, 8)
    assert not validate_family(wrong, 4).sign_ok


def test_three_circle_linear_closed_form():
    cyl = LinearCylinder(A=0.0, B=-1.0)
    rep = three_circle_check(cyl, kappa=0.5, L=10.0)
    assert rep.hypothesis_ok and rep.side == "negative"
    assert rep.closed_form is not None
    assert rep.area_q1 == pytest.approx(rep.closed_form[0], rel=1e-10)
    assert rep.area_q2 == pytest.approx(rep.closed_form[1], rel=1e-10)
    assert rep.decay_ok
    assert rep.area_q2 < rep.decay_bound * rep.area_q1


def test_three_circle_positive_side():
    rep = three_circle_check(LinearCylinder(A=-10.0, B=1.0), kappa=0.5, L=6.0)
    assert rep.side == "positive" and rep.decay_ok
    assert rep.area_q1 < rep.decay_bound * rep.area_q2


def test_three_circle_flat_cylinder_fails_hypothesis():
    rep = three_circle_check(LinearCylinder(A=0.0, B=0.0), kappa=0.5, L=5.0)
    assert not rep.hypothesis_ok
    assert rep.side is None
    assert not rep.decay_ok  # reported, not raised
    assert rep.flux_min == pytest.approx(0.0, abs=1e-9)


def test_three_circle_accepts_cylinder_and_callable():
    rep = three_circle_check(load_fixture("linear-cylinder").cylinder(), kappa=0.5, L=10.0)
    assert rep.closed_form is not None and rep.decay_ok

    def u(t, theta):
        return 0.3 - 1.2 * np.asarray(t) + 0.0 * np.asarray(theta)

    rc = three_circle_check(u, kappa=0.5, L=8.0)
    assert rc.closed_form is None
    assert rc.side == "negative" and rc.decay_ok


@pytest.mark.parametrize("kappa, L", [(0.5, -5.0), (0.5, 0.0), (-0.5, 10.0),
                                      (0.0, 10.0), (math.nan, 10.0), (0.5, math.inf)])
def test_three_circle_rejects_degenerate_inputs(kappa, L):
    # L < 0 used to report negative segment areas with decay "ok", and
    # kappa <= 0 a decay bound e^{-kappa L/2} >= 1 that any profile passes
    with pytest.raises(ValueError):
        three_circle_check(LinearCylinder(A=0.0, B=-1.0), kappa=kappa, L=L)


def test_neck_area_profile_flat_neck():
    k = 3
    u = lambda x, y: -np.log(k * np.hypot(x, y))
    r_in = math.exp(-float(k * k))
    rep = neck_area_profile(u, (0.0, 0.0), r_in, 1.0)
    # every e-fold annulus carries exactly 2 pi / k^2
    for a in rep.efold_areas:
        assert a == pytest.approx(TAU / k ** 2, rel=1e-10)
    assert rep.sup_efold == pytest.approx(TAU / k ** 2, rel=1e-10)
    # the dyadic tiling recovers the full neck area 2 pi
    assert rep.total == pytest.approx(TAU, rel=1e-9)
    assert rep.dyadic_radii[0] == 1.0 and rep.dyadic_radii[-1] == r_in
    assert len(rep.dyadic_areas) == len(rep.dyadic_radii) - 1
    with pytest.raises(ValueError):
        neck_area_profile(u, (0.0, 0.0), 0.5, 0.1)
    with pytest.raises(ValueError):
        neck_area_profile(u, (0.0, 0.0), 0.0, 0.1)


def test_neck_area_profile_cusp():
    u = cusp_profile()
    r_in, r_out = math.exp(-5.0), 0.5
    rep = neck_area_profile(u, (0.0, 0.0), r_in, r_out)
    assert rep.total == pytest.approx(cusp_annulus_area(r_in, r_out), rel=1e-8)
    for r, a in zip(rep.efold_radii, rep.efold_areas):
        assert a == pytest.approx(cusp_annulus_area(r / math.e, r), rel=1e-8)


def test_neck_curvature_limit():
    # smooth outer and the kelvin-invariant unit bubble: -2 pi (2 + 0 + 0)
    smooth = lambda x, y: 0.2 * np.sin(np.asarray(x)) + 0.1 * np.asarray(y)
    rep = neck_curvature_limit(smooth, standard_bubble(), (0.0, 0.0))
    assert rep.value == pytest.approx(-2.0 * TAU, abs=1e-6)
    assert rep.res_outer == pytest.approx(0.0, abs=1e-7)
    assert rep.res_inner_infinity == pytest.approx(0.0, abs=1e-7)
    assert isinstance(rep.outer_profile, FluxProfile)
    assert isinstance(rep.inner_profile, FluxProfile)

    # a conical outer shifts the limit by -2 pi beta
    cone = lambda x, y: -0.5 * np.log(np.hypot(x, y))
    rep2 = neck_curvature_limit(cone, standard_bubble(), (0.0, 0.0))
    assert rep2.value == pytest.approx(-TAU * 1.5, abs=1e-6)
    assert rep2.res_outer == pytest.approx(-0.5, abs=1e-7)


def test_plane_area_of_bubble():
    assert plane_area(standard_bubble()) == pytest.approx(4.0 * math.pi, rel=1e-6)
    with pytest.raises(ValueError):
        plane_area(lambda x, y: 0.0 * np.asarray(x))  # flat: never converges


def test_area_identity_spherical_cap():
    fam = load_fixture("spherical-cap")
    rep = area_identity_check(fam)
    assert rep.limit_area == 0.0
    assert rep.bubble_area == pytest.approx(4.0 * math.pi, rel=1e-14)
    for k, d in zip(rep.ks, rep.defects_per_k):
        lam = fam.scale(k)
        assert d == pytest.approx(4.0 * math.pi * lam * lam / (lam * lam + 0.25),
                                  rel=1e-6)
    assert abs(rep.defect) < 1e-6
    assert abs(rep.defect) <= rep.error_bar + 1e-9
    assert not rep.violation and not rep.ghost
    assert rep.validation.sign_ok


def test_area_identity_no_bubble():
    rep = area_identity_check(load_fixture("no-bubble"))
    assert rep.bubble_area == 0.0
    assert abs(rep.defect) < 1e-6
    assert not rep.violation


def test_area_identity_flat_neck_violation():
    # the neck swallows area 2 pi that no bubble accounts for
    rep = area_identity_check(load_fixture("flat-neck"))
    assert rep.defect == pytest.approx(TAU, abs=1e-6)
    assert rep.violation and rep.ghost


def test_area_identity_hyperbolic_cusp():
    rep = area_identity_check(load_fixture("hyperbolic-cusp"))
    assert rep.limit_area == pytest.approx(TAU / math.log(2.0), rel=1e-12)
    assert abs(rep.defect) < 1e-6
    assert not rep.violation


def test_bubble_seq_from_family():
    fam = load_fixture("spherical-cap")
    seq = fam.bubble_seq()
    assert len(seq) == fam.k_max - fam.k_min + 1
    assert classify_pair(seq, seq) == "essentially-same"
    assert load_fixture("no-bubble").bubble_seq() is None


def test_neck_vanishing_controls_total_area():
    # structural direction of the vanishing criterion: every dyadic annulus
    # sits inside an e-fold annulus, so total <= count * sup_efold; and for
    # the cap family widening the inner cut makes both vanish together
    for name in FIXTURES:
        fam = load_fixture(name)
        if fam.kind == "linear-cylinder":
            continue
        k = fam.k_max
        r_in = max(fam.scale(k), 1e-6)
        rep = neck_area_profile(fam.u(k), fam.center(), r_in, 0.5)
        assert rep.total <= len(rep.dyadic_areas) * rep.sup_efold + 1e-12

    fam = load_fixture("spherical-cap")
    sups, totals = [], []
    for k in (6, 9, 12):
        r_in = 2.0 ** (k / 2) * fam.scale(k)  # geometric bubble separation
        rep = neck_area_profile(fam.u(k), fam.center(), r_in, 0.5)
        assert rep.efold_radii
        sups.append(rep.sup_efold)
        totals.append(rep.total)
    assert sups[0] > sups[1] > sups[2]
    assert totals[0] > totals[1] > totals[2]
    assert sups[2] < 0.05 * 4.0 * math.pi
