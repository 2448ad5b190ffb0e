"""Fixtures, necks, and the area identity."""

import math
import re

import numpy as np
import pytest

from cmlab.bubbles import (
    SyntheticFamily,
    area_identity_check,
    list_fixtures,
    load_fixture,
    neck_area_profile,
    neck_curvature_limit,
    three_circle_check,
    validate_family,
)
from cmlab.errors import ConfigError
from cmlab.measures import FluxProfile
from cmlab.models import TAU, LinearCylinder, cusp_profile
from oracles import cusp_annulus_area, standard_bubble

FIXTURES = ["flat-neck", "hyperbolic-cusp", "no-bubble", "spherical-cap"]


def test_fixture_corpus():
    assert list_fixtures() == FIXTURES
    signs = {"flat-neck": "violating", "hyperbolic-cusp": "negative",
             "no-bubble": "negative", "spherical-cap": "positive"}
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
    # a missing file is an OSError, which `main` reports like a missing config
    with pytest.raises(FileNotFoundError, match="No such file or directory"):
        load_fixture(str(tmp_path / "missing.ini"))
    for text in ("kind = flat-neck\n",  # no section header
                 "[family]\nkind = flat-neck\nkind = flat-neck\n"):  # a repeated key
        bad.write_text(text)
        with pytest.raises(ConfigError, match="cannot parse"):
            load_fixture(str(bad))
    bad.write_text("; no sections at all\n")
    with pytest.raises(ConfigError, match=re.escape("has no [family] section")):
        load_fixture(str(bad))
    # a parameter of another kind is named by the family
    bad.write_text("[family]\nkind = flat-neck\nsign = violating\nlam_scale = 2\n")
    with pytest.raises(ConfigError, match=re.escape("parameters ['lam_scale'] not valid")):
        load_fixture(str(bad))


def test_fixture_load_by_path(tmp_path):
    p = tmp_path / "my-cap.ini"
    p.write_text("[family]\nkind = spherical-cap\nsign = positive\n"
                 "k_min = 2\nk_max = 10\nlam_scale = 0.5\n")
    fam = load_fixture(str(p))
    assert fam.name == "my-cap"
    assert fam.scale(2) == pytest.approx(0.5 * 0.25)
    # keys are case-insensitive, as in run configs
    p.write_text("[family]\nKind = spherical-cap\nSIGN = positive\nLam_Scale = 0.5\n")
    fam = load_fixture(str(p))
    assert (fam.kind, fam.sign_class, fam.params) == ("spherical-cap", "positive",
                                                      {"lam_scale": 0.5})


def test_family_validation_errors():
    with pytest.raises(ConfigError):
        SyntheticFamily("x", "unknown-kind", "negative", 1, 4)
    with pytest.raises(ConfigError):
        SyntheticFamily("x", "flat-neck", "sideways", 1, 4)
    with pytest.raises(ConfigError):
        SyntheticFamily("x", "flat-neck", "violating", 1, 4, params={"A": 1.0})
    with pytest.raises(ConfigError):
        SyntheticFamily("x", "flat-neck", "violating", 5, 4)


def test_validate_family_cap():
    fam = load_fixture("spherical-cap")
    rep = validate_family(fam, fam.k_max)
    assert rep.sign_ok and rep.mass_ok and rep.gradient_ok
    # |grad u| r = 2 r^2 / (lam^2 + r^2) tops out just under 2
    assert rep.max_gradient == pytest.approx(2.0, abs=1e-2)
    assert rep.max_mass <= 100.0


def test_validate_family_signs():
    assert validate_family(load_fixture("no-bubble"), 4).sign_ok
    assert validate_family(load_fixture("flat-neck"), 4).sign_ok  # 0 is outside both
    wrong = SyntheticFamily("w", "spherical-cap", "negative", 1, 8)
    assert not validate_family(wrong, 4).sign_ok


def test_validate_family_rejects_a_profile_undefined_in_the_window():
    # the cusp profile is infinite at r = 1 and NaN beyond; the gradient
    # check used to pass over that circle and report gradient_ok
    with pytest.raises(ValueError, match="profile is not finite on the circle of radius 1 "):
        validate_family(load_fixture("hyperbolic-cusp"), 12, 1.0)


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
    rep = three_circle_check(LinearCylinder(0.0, -1.0), kappa=0.5, L=10.0)
    assert rep.closed_form is not None and rep.decay_ok

    def u(t, theta):
        return 0.3 - 1.2 * np.asarray(t) + 0.0 * np.asarray(theta)

    rc = three_circle_check(u, kappa=0.5, L=8.0)
    assert rc.closed_form is None
    assert rc.side == "negative" and rc.decay_ok


def test_one_call_checks_match_the_per_point_loops():
    # three_circle_check reads all 65 fluxes and validate_family all 40
    # circles in one profile call; each row equals its own call, bit for bit
    def u(t, theta):
        return -0.9 * t + 0.2 * np.cos(3.0 * theta) * np.exp(-0.3 * t)

    theta = TAU * np.arange(128) / 128
    fluxes = [float((u(t + 1e-6, theta) - u(t - 1e-6, theta)).mean() / 2e-6 * TAU)
              for t in np.linspace(0.0, 16.0, 65)]
    rep = three_circle_check(u, kappa=0.5, L=8.0)
    assert (rep.flux_min, rep.flux_max) == (min(fluxes), max(fluxes))

    fam = load_fixture("no-bubble")
    uk, (cx, cy) = fam.u(fam.k_max), fam.center()
    th = TAU * np.arange(16) / 16
    grads = []
    for r in np.exp(np.linspace(math.log(1e-7 * 0.5), math.log(0.5), 40)):
        x, y, eps = cx + r * np.cos(th), cy + r * np.sin(th), 1e-6 * r
        gx = (uk(x + eps, y) - uk(x - eps, y)) / (2 * eps)
        gy = (uk(x, y + eps) - uk(x, y - eps)) / (2 * eps)
        grads.append(float((np.hypot(gx, gy) * r).max()))
    assert validate_family(fam, fam.k_max).max_gradient == max(grads)


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


def test_neck_vanishing_controls_total_area():
    # structural direction of the vanishing criterion: every dyadic annulus
    # sits inside an e-fold annulus, so total <= count * sup_efold; and for
    # the cap family widening the inner cut makes both vanish together
    for name in FIXTURES:
        fam = load_fixture(name)
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
