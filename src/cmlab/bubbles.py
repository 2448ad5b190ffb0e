"""Rescaling diagnostics on synthetic families: blowup classification,
3-circle decay checks, neck-area profiles, and the bubble-tree area
identity.

Families are closed-form generators (spherical caps, smooth perturbations,
flat necks, hyperbolic cusps, linear cylinders) evaluable at any
resolution, each declaring a curvature sign class, a convergence-rate
sequence for tail extrapolation, and closed-form bubble areas where they
exist. Limits over the family index are always finite-tail
extrapolations and carry an error bar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .grids import TAU, DiskChart, Field, TorusChart, gauss_legendre, interpolate
from .io import ini_value, read_ini
from .measures import FluxProfile, kelvin_transform, residue_profiled
from .models import LinearCylinder, cap_profile, cusp_profile, flat_neck_profile

# -- quadrature over disks and annuli for callable profiles ------------------

_THETA = TAU * np.arange(128) / 128  # angles of every circle mean below


def _circle_areas(u, x0, r, s):
    """2 pi times the mean of e^{2(u + s)} over each circle |x - x0| = r_i;
    `s` is added to u row by row (log r for the log-radial measure).
    Raises ValueError (numpy's warnings silenced) when u is not finite on a circle."""
    x = x0[0] + r[:, None] * np.cos(_THETA)[None, :]
    y = x0[1] + r[:, None] * np.sin(_THETA)[None, :]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        vals = np.asarray(u(x, y))
    bad = ~np.isfinite(vals).all(axis=1)
    if bad.any():
        raise ValueError(f"profile is not finite on the circle of radius "
                         f"{float(r[bad][0]):.6g} about {tuple(map(float, x0))}")
    return np.exp(2.0 * (vals + s)).mean(axis=1) * TAU


def _annulus_area(u, x0, ra: float, rb: float) -> float:
    """Area of ra < |x - x0| < rb under e^{2u}: 32 Gauss-Legendre nodes in
    log r on each octave."""
    sa, sb = math.log(ra), math.log(rb)
    panels = max(1, math.ceil((sb - sa) / math.log(2.0)))
    return gauss_legendre(lambda s: _circle_areas(u, x0, np.exp(s), s[:, None]),
                          sa, sb, 32, panels)


def _disk_area(u, x0, R: float, inner: float | None = None) -> float:
    """Area of D_R(x0) under e^{2u}: 64 Gauss-Legendre nodes in r on D_rc,
    rc = min(inner, R) the concentration scale, the annulus rule beyond."""
    rc = min(inner if inner else R, R)
    core = rc * gauss_legendre(
        lambda t: _circle_areas(u, x0, rc * t, 0.0) * (rc * t), 0.0, 1.0, 64)
    if rc < R:
        core += _annulus_area(u, x0, rc, R)
    return core


def plane_area(u) -> float:
    """Total area of e^{2u} over the plane: quadrature over the unit disk
    at the origin, then annuli R < |x| < 2R with R doubling until an
    increment drops below 1e-6; raises ValueError after 40 doublings."""
    total = _disk_area(u, (0.0, 0.0), 1.0)
    r = 1.0
    for _ in range(40):
        inc = _annulus_area(u, (0.0, 0.0), r, 2.0 * r)
        total += inc
        r *= 2.0
        if inc < 1e-6:
            return total
    raise ValueError(f"plane area did not converge within R = {r:g}")


# -- blowup sequences and their classification -------------------------------

@dataclass(frozen=True)
class BlowupSeq:
    """Finite (center, radius) tail of a blowup sequence; radii shrink."""

    centers: tuple
    radii: tuple

    def __post_init__(self):
        centers = tuple((float(x), float(y)) for x, y in self.centers)
        radii = tuple(float(r) for r in self.radii)
        if len(centers) != len(radii):
            raise ValueError("centers and radii must have equal length")
        if len(radii) < 8:
            raise ValueError("a blowup sequence needs at least 8 entries")
        if any(r <= 0 for r in radii):
            raise ValueError("radii must be positive")
        tail = radii[len(radii) // 2:]
        if any(b > a * (1 + 1e-12) for a, b in zip(tail, tail[1:])):
            raise ValueError("radii must be non-increasing over the tail")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radii", radii)

    def __len__(self) -> int:
        return len(self.radii)


def rescale(u: Field, x, r: float, window: float = 1.0,
            n_out: int | None = None) -> Field:
    """Zoomed field u(x + r .) + log r on the square window [-window, window]^2.

    The shift by log r makes areas invariant:
    Area(D_W, rescaled) = Area(D_{rW}(x), original).
    """
    n = n_out or u.n
    chart_out = DiskChart(window)
    X, Y = chart_out.mesh(n)
    px = x[0] + r * X
    py = x[1] + r * Y
    if isinstance(u.chart, TorusChart):
        if r * window > 0.5:
            raise ValueError("rescale window exceeds the torus chart")
    elif not isinstance(u.chart, DiskChart):
        raise ValueError("rescale works on torus or disk charts")
    return Field(interpolate(u, px, py) + math.log(r), chart_out)


def _trend(vals) -> tuple:
    """Tail verdict: ('inf',), ('zero',), ('limit', value) or ('indet',).

    'Blew up' means the last sample at least doubled the first and exceeds
    1e3; 'vanished' is the mirror image. A limit needs the last-half spread
    within 25 percent. Anything else is indeterminate.
    """
    v = np.asarray(vals, dtype=float)
    first, last = v[0], v[-1]
    if last >= 2.0 * first and last > 1e3:
        return ("inf", None)
    if last <= 0.5 * first and last < 1e-3:
        return ("zero", None)
    tail = v[len(v) // 2:]
    lo, hi = float(tail.min()), float(tail.max())
    if hi <= 1.25 * lo + 1e-12:
        return ("limit", float(tail.mean()))
    return ("indet", None)


def classify_pair(a: BlowupSeq, b: BlowupSeq) -> str:
    """Mutual position of two blowup sequences over their common tail.

    Returns one of 'essentially-same', 'on-top(a<b)', 'on-top(b<a)',
    'disjoint', 'inconclusive'. Finite data cannot certify asymptotics;
    inconclusive is an honest verdict, not an error.
    """
    m = min(len(a), len(b))
    if m < 8:
        raise ValueError("need a common index range of at least 8")
    ca = np.asarray(a.centers[-m:], dtype=float)
    cb = np.asarray(b.centers[-m:], dtype=float)
    ra = np.asarray(a.radii[-m:], dtype=float)
    rb = np.asarray(b.radii[-m:], dtype=float)
    sep = np.hypot(*(ca - cb).T)
    t_sep = _trend(sep / (ra + rb))
    if t_sep[0] == "inf":
        return "disjoint"
    t_ratio = _trend(ra / rb)
    t_off_b = _trend(sep / rb)
    t_off_a = _trend(sep / ra)
    if t_ratio[0] == "zero" and t_off_b[0] in ("zero", "limit"):
        return "on-top(a<b)"
    if t_ratio[0] == "inf" and t_off_a[0] in ("zero", "limit"):
        return "on-top(b<a)"
    if t_ratio[0] == "limit" and t_off_b[0] in ("zero", "limit"):
        return "essentially-same"
    return "inconclusive"


# -- synthetic families -------------------------------------------------------

_KIND_PARAMS = {
    "spherical-cap": {"lam_scale", "center_x", "center_y"},
    "smooth-perturbation": {"amp_u", "amp_w"},
    "flat-neck": set(),
    "hyperbolic-cusp": set(),
    "linear-cylinder": {"a", "b"},
}

_SIGN_CLASSES = ("positive", "negative", "violating")


@dataclass
class SyntheticFamily:
    """A closed-form family u_k with declared sign class and rate."""

    name: str
    kind: str
    sign_class: str
    k_min: int
    k_max: int
    params: dict = field(default_factory=dict)
    mass_bound: float = 100.0
    gradient_bound: float = 8.0

    def __post_init__(self):
        if self.kind not in _KIND_PARAMS:
            raise ConfigError(f"unknown generator kind {self.kind!r}")
        if self.sign_class not in _SIGN_CLASSES:
            raise ConfigError(f"unknown sign class {self.sign_class!r}")
        unknown = set(self.params) - _KIND_PARAMS[self.kind]
        if unknown:
            raise ConfigError(
                f"parameters {sorted(unknown)} not valid for kind {self.kind!r}")
        if not self.k_min <= self.k_max:
            raise ConfigError("k_min must not exceed k_max")

    # family members ----------------------------------------------------

    def k_values(self) -> range:
        return range(self.k_min, self.k_max + 1)

    def center(self) -> tuple:
        return (self.params.get("center_x", 0.0), self.params.get("center_y", 0.0))

    def scale(self, k: int) -> float:
        """Concentration scale at index k (inner radius for annular kinds)."""
        if self.kind == "spherical-cap":
            return self.params.get("lam_scale", 1.0) * 2.0 ** -k
        if self.kind == "flat-neck":
            return math.exp(-float(k) ** 2)
        if self.kind == "hyperbolic-cusp":
            return math.exp(-float(k))
        return 0.0

    def u(self, k: int):
        if self.kind == "spherical-cap":
            return cap_profile(self.scale(k), self.center())
        if self.kind == "smooth-perturbation":
            au = self.params.get("amp_u", 0.2)
            aw = self.params.get("amp_w", 0.05)
            eps = 2.0 ** -k

            def u_k(x, y):
                return _smooth_base(x, y, au) + eps * _smooth_bump(x, y, aw)
            return u_k
        if self.kind == "flat-neck":
            return flat_neck_profile(k)
        if self.kind == "hyperbolic-cusp":
            return cusp_profile()
        raise ValueError(f"kind {self.kind!r} has no planar profile")

    def curvature(self, k: int) -> float:
        return {"spherical-cap": 1.0, "smooth-perturbation": -1.0,
                "flat-neck": 0.0, "hyperbolic-cusp": -1.0,
                "linear-cylinder": 0.0}[self.kind]

    def cylinder(self) -> LinearCylinder:
        if self.kind != "linear-cylinder":
            raise ValueError("not a cylinder family")
        return LinearCylinder(self.params.get("a", 0.0), self.params.get("b", -1.0))

    # tail extrapolation metadata ----------------------------------------

    def rate_value(self, k: int) -> float:
        """Declared decay proxy t_k with window areas ~ A + c t_k."""
        if self.kind == "spherical-cap":
            return 4.0 ** -k
        if self.kind == "smooth-perturbation":
            return 2.0 ** -k
        if self.kind == "flat-neck":
            return 1.0 / float(k) ** 2
        if self.kind == "hyperbolic-cusp":
            return 1.0 / float(k)
        raise ValueError(f"kind {self.kind!r} declares no rate")

    @property
    def ghost(self) -> bool:
        """Additive normalizations diverge with no bubble area attached."""
        return self.kind == "flat-neck"

    # areas ---------------------------------------------------------------

    def window_area(self, k: int, window: float) -> float:
        uk = self.u(k)
        c = self.center()
        if self.kind in ("flat-neck", "hyperbolic-cusp"):
            return _annulus_area(uk, c, self.scale(k), window)
        inner = self.scale(k) if self.kind == "spherical-cap" else window
        return _disk_area(uk, c, window, inner=inner)

    def limit_window_area(self, window: float) -> float:
        if self.kind == "hyperbolic-cusp":
            # closed form: the quadrature limit is logarithmic in the cutoff
            return TAU / math.log(1.0 / window)
        if self.kind == "smooth-perturbation":
            au = self.params.get("amp_u", 0.2)
            return _disk_area(lambda x, y: _smooth_base(x, y, au), self.center(), window)
        return 0.0

    def bubble_areas(self) -> tuple:
        if self.kind == "spherical-cap":
            return (4.0 * math.pi,)
        return ()

    def bubble_seq(self) -> BlowupSeq | None:
        if self.kind != "spherical-cap":
            return None
        ks = list(self.k_values())
        return BlowupSeq(tuple(self.center() for _ in ks),
                         tuple(self.scale(k) for k in ks))


def _smooth_base(x, y, amp):
    return amp * np.sin(1.3 * np.asarray(x) + 0.4) * np.cos(0.9 * np.asarray(y) - 0.2)


def _smooth_bump(x, y, amp):
    return amp * np.cos(0.8 * np.asarray(x) + 0.5 * np.asarray(y) + 0.1)


# -- fixture corpus -----------------------------------------------------------

_FIXTURE_KEYS = {"kind", "sign", "k_min", "k_max", "mass_bound", "gradient_bound"}


def _fixture_dir():
    return resources.files("cmlab") / "fixtures"


def list_fixtures() -> list:
    return sorted(p.name[:-4] for p in _fixture_dir().iterdir()
                  if p.name.endswith(".ini"))


def load_fixture(name: str) -> SyntheticFamily:
    """Load a named packaged fixture, or an explicit .ini path. Its one
    [family] section is read like a run config (`read_ini`); the keys
    beyond _FIXTURE_KEYS are the kind's parameters."""
    if name.endswith(".ini") or "/" in name:
        path = Path(name)
        if not path.exists():
            raise ConfigError(f"fixture file {name!r} does not exist")
        text = path.read_text(encoding="utf-8")
        stem = path.stem
    else:
        res = _fixture_dir() / f"{name}.ini"
        try:
            text = res.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise ConfigError(
                f"unknown fixture {name!r}; available: {list_fixtures()}") from None
        stem = name
    sec = read_ini(text, name,
                   {"family": _FIXTURE_KEYS.union(*_KIND_PARAMS.values())}).get("family")
    if sec is None:
        raise ConfigError(f"fixture {name!r} has no [family] section")
    return SyntheticFamily(
        name=stem, kind=sec.get("kind", ""), sign_class=sec.get("sign", ""),
        k_min=ini_value(sec, "k_min", int, 1, name),
        k_max=ini_value(sec, "k_max", int, 8, name),
        params={k: ini_value(sec, k, float, None, name)
                for k in sec if k not in _FIXTURE_KEYS},
        mass_bound=ini_value(sec, "mass_bound", float, 100.0, name),
        gradient_bound=ini_value(sec, "gradient_bound", float, 8.0, name))


# -- hypothesis validators ----------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    sign_ok: bool
    mass_ok: bool
    gradient_ok: bool
    max_mass: float
    max_gradient: float


def validate_family(fam: SyntheticFamily, k: int, window: float = 0.5) -> ValidationReport:
    """Proxy checks of the standing hypotheses: declared curvature sign
    class, curvature-mass bound over the window, and a scale-invariant
    gradient bound |grad u| * |x - x0| sampled over the window."""
    f = fam.curvature(k)
    if fam.sign_class == "positive":
        sign_ok = f >= 1.0 - 1e-12
    elif fam.sign_class == "negative":
        sign_ok = f <= -1.0 + 1e-12
    else:
        sign_ok = not (abs(f) >= 1.0 - 1e-12)
    mass = abs(f) * fam.window_area(k, window)
    uk = fam.u(k)
    c = fam.center()
    inner = max(fam.scale(k), 1e-7 * window)
    radii = np.exp(np.linspace(math.log(inner), math.log(window), 40))
    theta = TAU * np.arange(16) / 16
    max_grad = 0.0
    for r in radii:
        x = c[0] + r * np.cos(theta)
        y = c[1] + r * np.sin(theta)
        eps = 1e-6 * r
        gx = (np.asarray(uk(x + eps, y)) - np.asarray(uk(x - eps, y))) / (2 * eps)
        gy = (np.asarray(uk(x, y + eps)) - np.asarray(uk(x, y - eps))) / (2 * eps)
        max_grad = max(max_grad, float((np.hypot(gx, gy) * r).max()))
    return ValidationReport(sign_ok=bool(sign_ok), mass_ok=bool(mass <= fam.mass_bound),
                            gradient_ok=bool(max_grad <= fam.gradient_bound),
                            max_mass=float(mass), max_gradient=max_grad)


# -- 3-circle decay ------------------------------------------------------------

@dataclass(frozen=True)
class ThreeCircleReport:
    hypothesis_ok: bool
    side: str | None
    flux_min: float
    flux_max: float
    area_q1: float
    area_q2: float
    closed_form: tuple | None
    decay_bound: float
    decay_ok: bool


def _cylinder_flux(u, t: float) -> float:
    eps = 1e-6
    up = np.asarray(u(t + eps, _THETA), dtype=float)
    um = np.asarray(u(t - eps, _THETA), dtype=float)
    return float((up - um).mean() / (2 * eps) * TAU)


def _cylinder_segment_area(u, t0: float, t1: float) -> float:
    """Area of [t0, t1] x S^1 under e^{2u}: 20 Gauss-Legendre nodes on
    each panel of length at most 1/2."""
    return gauss_legendre(
        lambda t: np.exp(2.0 * np.asarray(u(t[:, None], _THETA))).mean(axis=1) * TAU,
        t0, t1, 20, max(1, math.ceil((t1 - t0) / 0.5)))


def three_circle_check(model, kappa: float, L: float) -> ThreeCircleReport:
    """Geometric decay of segment areas Q_i = S^1 x [(i-1)L, iL].

    Verifies the flux hypothesis (circle flux of the t-derivative beyond
    +-2 pi kappa with a fixed sign at 65 evenly spaced t in [0, 2L]),
    computes Area(Q_1) and Area(Q_2), and checks
    Area(Q_2) < e^{-kappa L / 2} Area(Q_1) (mirrored for the positive side).
    `model` is a callable u(t, theta) or a LinearCylinder, whose closed-form
    segment areas are attached.
    A failed hypothesis is reported, never silently passed; kappa and L
    must be positive and finite, and a segment area that overflows double
    precision raises ValueError.
    """
    if not (0.0 < kappa < math.inf and 0.0 < L < math.inf):
        raise ValueError(f"need finite kappa > 0 and L > 0, got {kappa:g}, {L:g}")
    cylinder = isinstance(model, LinearCylinder)
    u = model.u if cylinder else model
    with np.errstate(over="ignore"):
        a1 = _cylinder_segment_area(u, 0.0, L)
        a2 = _cylinder_segment_area(u, L, 2.0 * L)
    try:
        closed = (model.segment_area(1, L), model.segment_area(2, L)) if cylinder else None
        finite = all(math.isfinite(a) for a in (a1, a2, *(closed or ())))
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"a segment area overflows double precision at L = {L:g}")
    ts = np.linspace(0.0, 2.0 * L, 65)
    fluxes = np.array([_cylinder_flux(u, float(t)) for t in ts])
    fmin, fmax = float(fluxes.min()), float(fluxes.max())
    if fmax < -TAU * kappa:
        side = "negative"
    elif fmin > TAU * kappa:
        side = "positive"
    else:
        side = None
    bound = math.exp(-kappa * L / 2.0)
    if side == "negative":
        decay_ok = a2 < bound * a1
    elif side == "positive":
        decay_ok = a1 < bound * a2
    else:
        decay_ok = False
    return ThreeCircleReport(hypothesis_ok=side is not None, side=side,
                             flux_min=fmin, flux_max=fmax,
                             area_q1=a1, area_q2=a2, closed_form=closed,
                             decay_bound=bound, decay_ok=decay_ok)


# -- neck areas -----------------------------------------------------------------

@dataclass(frozen=True)
class NeckReport:
    efold_radii: tuple
    efold_areas: tuple
    sup_efold: float
    dyadic_radii: tuple
    dyadic_areas: tuple
    total: float


def neck_area_profile(u, x0, r_in: float, r_out: float) -> NeckReport:
    """Annulus-area profile of a neck r_in < |x - x0| < r_out.

    Reports e-fold annuli D_r \\ D_{r/e} at dyadically spaced radii (their
    sup is the vanishing-criterion quantity) and the dyadic tiling
    D_{r_j} \\ D_{r_{j+1}} whose areas sum to the total neck area.
    """
    if not 0 < r_in < r_out:
        raise ValueError("need 0 < r_in < r_out")
    radii = []
    r = r_out
    while r > r_in * (1.0 + 1e-9):
        radii.append(r)
        r *= 0.5
    radii.append(r_in)
    efold_radii = [rr for rr in radii[:-1] if rr / math.e >= r_in * (1.0 - 1e-12)]
    efold_areas = [_annulus_area(u, x0, rr / math.e, rr) for rr in efold_radii]
    dyadic_areas = [_annulus_area(u, x0, rb, ra)
                    for ra, rb in zip(radii[:-1], radii[1:])]
    total = float(sum(dyadic_areas))
    return NeckReport(efold_radii=tuple(efold_radii),
                      efold_areas=tuple(efold_areas),
                      sup_efold=float(max(efold_areas)) if efold_areas else 0.0,
                      dyadic_radii=tuple(radii),
                      dyadic_areas=tuple(dyadic_areas), total=total)


@dataclass(frozen=True)
class NeckLimitReport:
    value: float
    res_outer: float
    res_inner_infinity: float
    outer_profile: FluxProfile
    inner_profile: FluxProfile


def neck_curvature_limit(outer, inner_bubble, x0) -> NeckLimitReport:
    """Limit curvature mass of the neck between a bubble and its base:
    -2 pi (2 + Res(outer, x0) + Res(inner, infinity)).

    The residue at infinity is read at 0 after a Kelvin transform. Both
    flux profiles are attached for audit.
    """
    res_out, prof_out = residue_profiled(outer, x0)
    res_inf, prof_in = residue_profiled(kelvin_transform(inner_bubble), (0.0, 0.0))
    value = -TAU * (2.0 + res_out + res_inf)
    return NeckLimitReport(value=value, res_outer=res_out,
                           res_inner_infinity=res_inf,
                           outer_profile=prof_out, inner_profile=prof_in)


# -- bubble-tree area identity ---------------------------------------------------

@dataclass(frozen=True)
class AreaIdentityReport:
    window: float
    ks: tuple
    window_areas: tuple
    defects_per_k: tuple
    extrapolated_area: float
    error_bar: float
    limit_area: float
    bubble_area: float
    defect: float
    violation: bool
    ghost: bool
    validation: ValidationReport


def area_identity_check(fam: SyntheticFamily, window: float = 0.5) -> AreaIdentityReport:
    """Tail defect of: lim Area(window, g_k) = Area(window, g_inf) + sum of
    bubble areas.

    Window areas come from quadrature of the generators; the k -> infinity
    limit is a least-squares fit of the last four points against the
    family's declared rate sequence, reported with an extrapolation error
    bar. Families outside both curvature sign classes keep their defect
    and are flagged as hypothesis violations. `window` must be in (0, inf).
    """
    if not 0.0 < window < math.inf:
        raise ValueError(f"window must be positive and finite, got {window}")
    ks = list(fam.k_values())
    areas = [fam.window_area(k, window) for k in ks]
    limit_area = fam.limit_window_area(window)
    bubble_area = float(sum(fam.bubble_areas()))
    target = limit_area + bubble_area
    defects = [abs(a - target) for a in areas]
    tail = min(4, len(ks))
    t = np.array([fam.rate_value(k) for k in ks[-tail:]])
    A = np.array(areas[-tail:])
    design = np.stack([np.ones_like(t), t], axis=1)
    coef, *_ = np.linalg.lstsq(design, A, rcond=None)
    fit_resid = float(np.abs(design @ coef - A).max())
    extrap = float(coef[0])
    err_bar = fit_resid + abs(float(coef[1])) * fam.rate_value(ks[-1] + 1)
    return AreaIdentityReport(
        window=window, ks=tuple(ks), window_areas=tuple(areas),
        defects_per_k=tuple(defects), extrapolated_area=extrap,
        error_bar=err_bar, limit_area=limit_area, bubble_area=bubble_area,
        defect=extrap - target, violation=fam.sign_class == "violating",
        ghost=fam.ghost, validation=validate_family(fam, ks[-1], window))
