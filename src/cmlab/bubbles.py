"""Rescaling diagnostics on synthetic families: 3-circle decay checks,
neck-area profiles, and the bubble-tree area identity.

Families are closed-form planar generators (spherical caps, smooth
perturbations, flat necks, hyperbolic cusps) evaluable at any resolution,
each declaring a curvature sign class, a convergence-rate sequence for
tail extrapolation, and closed-form bubble areas where they exist. Limits
over the family index are always finite-tail extrapolations and carry an
error bar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .grids import TAU, circle_points, gauss_legendre, on_circles
from .io import ini_value, read_ini
from .measures import FluxProfile, kelvin_transform, residue_profiled
from .models import LinearCylinder, cap_profile, cusp_profile, flat_neck_profile

# -- quadrature over disks and annuli for callable profiles ------------------

_THETA = TAU * np.arange(128) / 128  # angles of every circle mean below


def _circle_areas(u, x0, r, s):
    """2 pi times the mean of e^{2(u + s)} over each circle |x - x0| = r_i;
    `s` is added to u row by row (log r for the log-radial measure)."""
    vals = on_circles(u, x0, r, *circle_points(x0, r[:, None], len(_THETA)))
    return np.exp(2.0 * (vals + s)).mean(axis=1) * TAU


def _annulus_area(u, x0, ra: float, rb: float) -> float:
    """Area of ra < |x - x0| < rb under e^{2u}: 32 Gauss-Legendre nodes in
    log r on each octave."""
    sa, sb = math.log(ra), math.log(rb)
    edges = np.linspace(sa, sb, max(1, math.ceil((sb - sa) / math.log(2.0))) + 1)
    return gauss_legendre(lambda s: _circle_areas(u, x0, np.exp(s), s[:, None]), edges, 32)


def _disk_area(u, x0, R: float, inner: float | None = None) -> float:
    """Area of D_R(x0) under e^{2u}: 64 Gauss-Legendre nodes in r on D_rc,
    rc = min(inner, R) the concentration scale, the annulus rule beyond."""
    rc = min(inner if inner else R, R)
    core = rc * gauss_legendre(
        lambda t: _circle_areas(u, x0, rc * t, 0.0) * (rc * t), (0.0, 1.0), 64)
    if rc < R:
        core += _annulus_area(u, x0, rc, R)
    return core


# -- synthetic families -------------------------------------------------------

def _cap_scale(p, k):
    return p["lam_scale"] * 2.0 ** -k


def _cusp_limit(p, center, window):
    # closed form, logarithmic in the cutoff; the cusp lives in the unit disk
    if window >= 1.0:
        raise ValueError(f"the hyperbolic-cusp limit area needs window < 1, got {window}")
    return TAU / math.log(1.0 / window)


@dataclass(frozen=True)
class _Kind:
    """A generator kind; scale, u and rate take (params, k), limit (params, center, window)."""

    params: dict  # parameter names and their defaults
    curvature: float
    scale: object
    u: object  # the planar profile u(x, y)
    rate: object  # t_k, with window areas ~ A + c t_k
    limit: object = lambda p, center, window: 0.0  # the k -> inf window area
    annular: bool = False  # window areas are annuli out from the scale
    bubbles: tuple = ()
    neck_out: float = 0.5  # `neck`'s default r_out; its default r_in is the
    neck_at_scale: bool = False  # scale if this is set, else r_out / 256
    ghost: bool = False  # additive normalizations diverge with no bubble area


_KINDS = {
    "spherical-cap": _Kind(
        {"lam_scale": 1.0, "center_x": 0.0, "center_y": 0.0}, 1.0, _cap_scale,
        lambda p, k: cap_profile(_cap_scale(p, k), (p["center_x"], p["center_y"])),
        lambda p, k: 4.0 ** -k, bubbles=(4.0 * math.pi,), neck_at_scale=True),
    "smooth-perturbation": _Kind(
        {"amp_u": 0.2, "amp_w": 0.05}, -1.0, lambda p, k: 0.0,
        lambda p, k: lambda x, y: (_smooth_base(x, y, p["amp_u"]) + 2.0 ** -k * (
            p["amp_w"] * np.cos(0.8 * np.asarray(x) + 0.5 * np.asarray(y) + 0.1))),
        lambda p, k: 2.0 ** -k,
        lambda p, c, w: _disk_area(lambda x, y: _smooth_base(x, y, p["amp_u"]), c, w)),
    "flat-neck": _Kind(
        {}, 0.0, lambda p, k: math.exp(-float(k) ** 2), lambda p, k: flat_neck_profile(k),
        lambda p, k: 1.0 / float(k) ** 2, annular=True, neck_out=1.0, neck_at_scale=True,
        ghost=True),
    "hyperbolic-cusp": _Kind(
        {}, -1.0, lambda p, k: math.exp(-float(k)), lambda p, k: cusp_profile(),
        lambda p, k: 1.0 / float(k), _cusp_limit, annular=True, neck_at_scale=True),
}

_SIGN_CLASSES = {  # sign class -> whether a curvature f belongs to it
    "positive": lambda f: f >= 1.0 - 1e-12,
    "negative": lambda f: f <= -1.0 + 1e-12,
    "violating": lambda f: not (abs(f) >= 1.0 - 1e-12),
}


@dataclass
class SyntheticFamily:
    """A closed-form family u_k with declared sign class and rate."""

    name: str
    kind: str
    sign_class: str
    k_min: int
    k_max: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown generator kind {self.kind!r}")
        if self.sign_class not in _SIGN_CLASSES:
            raise ConfigError(f"unknown sign class {self.sign_class!r}")
        unknown = set(self.params) - set(_KINDS[self.kind].params)
        if unknown:
            raise ConfigError(
                f"parameters {sorted(unknown)} not valid for kind {self.kind!r}")
        if self.k_min < 1:
            raise ConfigError(f"k_min must be at least 1, got {self.k_min}")
        if not self.k_min <= self.k_max:
            raise ConfigError("k_min must not exceed k_max")

    def _p(self) -> dict:  # the kind's defaults under `params`, merged at each read
        return {**_KINDS[self.kind].params, **self.params}

    # family members ----------------------------------------------------

    def k_values(self) -> range:
        return range(self.k_min, self.k_max + 1)

    def center(self) -> tuple:
        return (self.params.get("center_x", 0.0), self.params.get("center_y", 0.0))

    def scale(self, k: int) -> float:
        """Concentration scale at index k (inner radius for annular kinds)."""
        return _KINDS[self.kind].scale(self._p(), k)

    def u(self, k: int):
        return _KINDS[self.kind].u(self._p(), k)

    def curvature(self, k: int) -> float:
        return _KINDS[self.kind].curvature

    # tail extrapolation metadata ----------------------------------------

    def rate_value(self, k: int) -> float:
        """Declared decay proxy t_k with window areas ~ A + c t_k."""
        return _KINDS[self.kind].rate(self._p(), k)

    @property
    def ghost(self) -> bool:
        """Additive normalizations diverge with no bubble area attached."""
        return _KINDS[self.kind].ghost

    # areas ---------------------------------------------------------------

    def window_area(self, k: int, window: float) -> float:
        uk, c, s = self.u(k), self.center(), self.scale(k)
        return (_annulus_area(uk, c, s, window) if _KINDS[self.kind].annular
                else _disk_area(uk, c, window, inner=s))

    def limit_window_area(self, window: float) -> float:
        return _KINDS[self.kind].limit(self._p(), self.center(), window)

    def neck_radii(self, k: int, r_out: float | None = None) -> tuple:
        """`neck`'s default (r_in, r_out) at index k; r_in fits r_out if it is given."""
        r_out = _KINDS[self.kind].neck_out if r_out is None else r_out
        return (self.scale(k) if _KINDS[self.kind].neck_at_scale else r_out / 256.0), r_out

    def bubble_areas(self) -> tuple:
        return _KINDS[self.kind].bubbles


def _smooth_base(x, y, amp):
    return amp * np.sin(1.3 * np.asarray(x) + 0.4) * np.cos(0.9 * np.asarray(y) - 0.2)


# -- fixture corpus -----------------------------------------------------------

_FIXTURE_KEYS = {"kind", "sign", "k_min", "k_max"}


def _fixture_dir():
    return resources.files("cmlab") / "fixtures"


def list_fixtures() -> list:
    return sorted(p.name[:-4] for p in _fixture_dir().iterdir()
                  if p.name.endswith(".ini"))


def load_fixture(name: str) -> SyntheticFamily:
    """Load a named packaged fixture, or an explicit .ini path. Its one
    [family] section is read like a run config (`read_ini`); the keys
    beyond _FIXTURE_KEYS are the kind's parameters (`_KINDS`)."""
    if name.endswith(".ini") or "/" in name:
        path = Path(name)
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
    sec = read_ini(text, name, {"family": _FIXTURE_KEYS.union(
        *(kind.params for kind in _KINDS.values()))}).get("family")
    if sec is None:
        raise ConfigError(f"fixture {name!r} has no [family] section")
    return SyntheticFamily(
        name=stem, kind=sec.get("kind", ""), sign_class=sec.get("sign", ""),
        k_min=ini_value(sec, "k_min", int, 1, name),
        k_max=ini_value(sec, "k_max", int, 8, name),
        params={k: ini_value(sec, k, float, None, name)
                for k in sec if k not in _FIXTURE_KEYS})


# -- hypothesis validators ----------------------------------------------------

_MASS_BOUND = 100.0
_GRADIENT_BOUND = 8.0


@dataclass(frozen=True)
class ValidationReport:
    sign_ok: bool
    mass_ok: bool
    gradient_ok: bool
    max_mass: float
    max_gradient: float


def validate_family(fam: SyntheticFamily, k: int, window: float = 0.5) -> ValidationReport:
    """Proxy checks of the standing hypotheses: declared curvature sign
    class, curvature mass over the window <= _MASS_BOUND, and scale-invariant
    gradient |grad u| |x - x0| sampled over it <= _GRADIENT_BOUND. Raises
    ValueError when u is not finite on a sampled circle."""
    f = fam.curvature(k)
    sign_ok = _SIGN_CLASSES[fam.sign_class](f)
    mass = abs(f) * fam.window_area(k, window)
    uk = fam.u(k)
    c = fam.center()
    inner = max(fam.scale(k), 1e-7 * window)
    r = np.exp(np.linspace(math.log(inner), math.log(window), 40))
    x, y = circle_points(c, r[:, None], 16)
    eps = 1e-6 * r[:, None]
    gx = (on_circles(uk, c, r, x + eps, y) - on_circles(uk, c, r, x - eps, y)) / (2 * eps)
    gy = (on_circles(uk, c, r, x, y + eps) - on_circles(uk, c, r, x, y - eps)) / (2 * eps)
    max_grad = float((np.hypot(gx, gy) * r[:, None]).max())
    return ValidationReport(sign_ok=bool(sign_ok), mass_ok=bool(mass <= _MASS_BOUND),
                            gradient_ok=bool(max_grad <= _GRADIENT_BOUND),
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


def _cylinder_segment_area(u, t0: float, t1: float) -> float:
    """Area of [t0, t1] x S^1 under e^{2u}: 20 Gauss-Legendre nodes on
    each panel of length at most 1/2."""
    return gauss_legendre(
        lambda t: np.exp(2.0 * np.asarray(u(t[:, None], _THETA))).mean(axis=1) * TAU,
        np.linspace(t0, t1, max(1, math.ceil((t1 - t0) / 0.5)) + 1), 20)


def _log(a: float) -> float:
    return math.log(a) if a > 0.0 else -math.inf


def three_circle_check(model, kappa: float, L: float) -> ThreeCircleReport:
    """Geometric decay of segment areas Q_i = S^1 x [(i-1)L, iL].

    Verifies the flux hypothesis (circle flux of the t-derivative beyond
    +-2 pi kappa with a fixed sign at 65 evenly spaced t in [0, 2L]),
    computes Area(Q_1) and Area(Q_2), and checks
    log Area(Q_2) < log Area(Q_1) - kappa L / 2 (mirrored for the positive
    side), an area that underflows to 0 reading log = -inf.
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
    ts = np.linspace(0.0, 2.0 * L, 65)[:, None]
    up, um = (np.asarray(u(ts + e, _THETA), dtype=float) for e in (1e-6, -1e-6))
    fluxes = (up - um).mean(axis=1) / 2e-6 * TAU
    fmin, fmax = float(fluxes.min()), float(fluxes.max())
    if fmax < -TAU * kappa:
        side = "negative"
    elif fmin > TAU * kappa:
        side = "positive"
    else:
        side = None
    # in log space: e^{-kappa L/2} and Area(Q_2) underflow long before
    # the decay fails
    log_gap = kappa * L / 2.0
    if side == "negative":
        decay_ok = _log(a2) < _log(a1) - log_gap
    elif side == "positive":
        decay_ok = _log(a1) < _log(a2) - log_gap
    else:
        decay_ok = False
    return ThreeCircleReport(hypothesis_ok=side is not None, side=side,
                             flux_min=fmin, flux_max=fmax,
                             area_q1=a1, area_q2=a2, closed_form=closed,
                             decay_bound=math.exp(-log_gap), decay_ok=decay_ok)


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
    if not 0 < r_in < r_out < math.inf:
        raise ValueError(f"need 0 < r_in < r_out < inf, got r_in = {r_in}, r_out = {r_out}")
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
