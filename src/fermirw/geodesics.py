"""Spacelike geodesics orthogonal to a comoving observer.

Each constant-tau slice of the Fermi chart is ruled by unit-speed spacelike
geodesics leaving the observer at proper time tau.  Points along one
geodesic are labelled by the stretch sigma = (a(tau)/a(t))^2 >= 1, and the
three maps below give cosmological time t, comoving radius chi, and proper
distance rho as functions of sigma.  Every slice quantity is built from one
integral, slice_integral, of b'(a(tau)/sqrt(s)) or b''(a(tau)/sqrt(s))
against s^(-n) (s-1)^(-1/2).  The inverse maps sigma(rho) and sigma(chi)
both go through invert_slice_map, a bracketed Newton iteration in
u = sqrt(sigma - 1) whose slope comes from the model in closed form and
whose values are integrated piecewise from the nearest point already
reached, so one inversion costs about one slice integral.  An independent
route integrates the geodesic equation in rho directly and is used as a
cross-check.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .cosmology import Cosmology, hubble, sigma_breaks, sigma_infinity
from .errors import AccuracyError, DomainError
from .numerics import DEFAULT_CONFIG, NumericsConfig, integrate_sigma

__all__ = [
    "GeodesicPoint",
    "t_of_sigma",
    "chi_of_sigma",
    "rho_of_sigma",
    "slice_integral",
    "slice_end",
    "invert_slice_map",
    "lapse_bracket",
    "sample_geodesic",
    "integrate_geodesic_ode",
]

# Below this, sigma - 1 is too small for quadrature; leading-order
# expressions are accurate to O(sigma - 1) relative.
_SIGMA_NEAR_ONE = 1e-10

# Fraction of sigma_infinity treated as the usable end of a finite slice.
_SLICE_MARGIN = 1e-12

# Doublings of u allowed while an inversion has no upper bracket end.
_GROWTH_CAP = 60

# Tolerated negative radicand in the ODE route before flagging inconsistency.
_RADICAND_SLACK = 1e-13


@dataclass(frozen=True)
class GeodesicPoint:
    """One sample on a constant-tau geodesic."""

    tau: float
    sigma: float
    t: float
    chi: float
    rho: float


def _check_slice(cosmo: Cosmology, tau: float, sigma: float,
                 allow_equal_one: bool = True) -> tuple[float, float]:
    if not (math.isfinite(tau) and tau > 0.0):
        raise DomainError(f"tau must be positive and finite, got {tau}")
    lo_ok = sigma >= 1.0 if allow_equal_one else sigma > 1.0
    if not lo_ok:
        raise DomainError(f"sigma must be >= 1, got {sigma}")
    s_inf = sigma_infinity(cosmo, tau)
    if sigma >= s_inf:
        raise DomainError(
            f"sigma={sigma:g} is not below sigma_infinity={s_inf:g} "
            f"on the tau={tau:g} slice")
    return float(tau), float(sigma)


def t_of_sigma(cosmo: Cosmology, tau: float, sigma: float) -> float:
    """Cosmological time t = b(a(tau)/sqrt(sigma)) at stretch sigma."""
    tau, sigma = _check_slice(cosmo, tau, sigma)
    m = cosmo.model
    return float(m.b(float(m.a(tau)) / math.sqrt(sigma)))


def slice_integral(cosmo: Cosmology, tau: float, sigma: float, order: int,
                   power: float, cfg: NumericsConfig | None = None,
                   sigma_lo: float = 1.0) -> float:
    """Integral of b^(order)(a0/sqrt(s)) s^(-power) (s-1)^(-1/2) ds over
    [sigma_lo, sigma].

    a0 = a(tau), order is 1 (b') or 2 (b''), and sigma may be inf.  The
    range is split at the table knots of interpolated models; within
    1e-10 of sigma = 1 the leading-order value
    2 b^(order)(a0) (sqrt(sigma-1) - sqrt(sigma_lo-1)) is returned instead.
    """
    cfg = cfg or DEFAULT_CONFIG
    m = cosmo.model
    deriv = m.b_dot if order == 1 else m.b_ddot
    a0 = float(m.a(tau))
    if sigma - 1.0 <= _SIGMA_NEAR_ONE:
        return 2.0 * float(deriv(a0)) * (math.sqrt(max(sigma - 1.0, 0.0))
                                         - math.sqrt(sigma_lo - 1.0))

    def f(s):
        return deriv(a0 / np.sqrt(s)) / (s ** power * np.sqrt(s - 1.0))

    return integrate_sigma(f, sigma_lo, sigma, cfg,
                           breaks=sigma_breaks(cosmo, tau, sigma, a0))


def slice_end(cosmo: Cosmology, tau: float) -> float:
    """Usable end of the tau slice: sigma_infinity, when finite, clipped by
    a relative 1e-12 just inside the slice; otherwise inf."""
    s_inf = sigma_infinity(cosmo, tau)
    return s_inf * (1.0 - _SLICE_MARGIN) if math.isfinite(s_inf) else s_inf


def _map_slope(cosmo: Cosmology, a0: float, u: float, power: float,
               scale: float) -> float:
    """dF/du of F = scale * slice_integral(order 1, power) at sigma = 1 + u^2:
    2 scale b'(a0/sqrt(sigma)) sigma^(-power), one model call."""
    s = 1.0 + u * u
    bd = float(cosmo.model.b_dot(a0 / math.sqrt(s)))
    return 2.0 * scale * bd * s ** -power


def invert_slice_map(cosmo: Cosmology, tau: float, target: float,
                     power: float, scale: float,
                     cfg: NumericsConfig | None = None,
                     reach: float | None = None) -> float:
    """sigma at which F = scale * slice_integral(order 1, power) hits target.

    rho_of_sigma is power 3/2, scale a(tau)/2; chi_of_sigma is power 1/2,
    scale 1/2.  Newton's method runs in u = sqrt(sigma - 1) from u = 0
    with the exact slope F'(u) = 2 scale b'(a0/sqrt(sigma)) sigma^(-power),
    one model call.  F is concave in u when b is convex, so the iterates
    climb to the root from below; a step that leaves the bracket [lo, hi]
    known so far bisects instead, and while no upper end is known a step
    at most doubles u (or goes to u = 1).  Each value F(u) is integrated
    only from the nearest u already reached in this call.  On a finite
    slice the end u_top of slice_end is integrated only if a step
    reaches it.

    reach, when given, is the supremum of F over the slice (the slice
    radius for rho) and target must lie below it; it is then F(u_top)
    and no reach test is made.  Without it (chi, whose comoving reach has
    no cheap closed form) a target above F(u_top), or one that doubling
    shows F saturates below, raises DomainError.  Iteration stops at
    |du| <= root_tol/2 * max(1, u), find_root_monotone's rule;
    cfg.max_iter steps or _GROWTH_CAP doublings raise AccuracyError.
    """
    cfg = cfg or DEFAULT_CONFIG
    s_end = slice_end(cosmo, tau)   # validates tau before a(tau) is taken
    a0 = float(cosmo.model.a(tau))
    known = [(0.0, 0.0)]            # (u, F(u)) integrated in this call
    lo, hi, f_hi = 0.0, math.inf, None
    if math.isfinite(s_end):
        hi, f_hi = math.sqrt(s_end - 1.0), reach
        if reach is not None:
            known.append((hi, reach))

    def value(x: float) -> float:
        u_k, f = min(known, key=lambda p: abs(p[0] - x))
        s, s_k = 1.0 + x * x, 1.0 + u_k * u_k
        if s > s_k:
            f += scale * slice_integral(cosmo, tau, s, 1, power, cfg, s_k)
        elif s < s_k:
            f -= scale * slice_integral(cosmo, tau, s_k, 1, power, cfg, s)
        known.append((x, f))
        return f

    def beyond(what: str) -> DomainError:
        return DomainError(f"{target:g} is beyond the comoving reach of "
                           f"the tau={tau:g} slice ({what})")

    u = f = 0.0
    growths = stalls = 0
    prev_inc = None
    for _ in range(cfg.max_iter):
        slope = _map_slope(cosmo, a0, u, power, scale)
        x = u + (target - f) / slope if slope > 0.0 else math.inf
        fx = None
        growing = math.isinf(hi) and not x < max(2.0 * u, 1.0)
        if growing:
            growths += 1
            if growths > _GROWTH_CAP:
                raise AccuracyError(
                    f"sigma bracket growth cap {_GROWTH_CAP} reached for "
                    f"target {target:g}", estimate=1.0 + u * u)
            x = max(2.0 * u, 1.0)
        elif f_hi is None and x >= hi:
            x, fx = hi, value(hi)
            if fx < target:
                raise beyond(f"it ends at {fx:g}")
        elif not lo < x < hi:
            x = 0.5 * (lo + hi)
        if abs(x - u) <= 0.5 * cfg.root_tol * max(1.0, u):
            return 1.0 + x * x
        if fx is None:
            fx = value(x)
        if growing and reach is None and u >= 0.5:
            # Doublings with increments that stall or decay geometrically
            # bound what F can still gain; a target past that bound is
            # beyond the slice though each doubling still makes progress.
            inc = fx - f
            if inc <= 1e-12 * max(1.0, target):
                stalls += 1
                if stalls >= 2:
                    raise beyond(f"it saturates near {fx:g}")
            else:
                stalls = 0
                if prev_inc is not None and inc < 0.9 * prev_inc:
                    ratio = inc / prev_inc
                    limit = fx + 1.5 * inc * ratio / (1.0 - ratio)
                    if limit < target:
                        raise beyond(f"it saturates near {limit:g}")
            prev_inc = inc
        else:
            prev_inc, stalls = None, 0
        if fx == target:    # an exact hit: u would fall on the bracket end
            return 1.0 + x * x
        if fx < target:
            lo = x
        else:
            hi, f_hi = x, fx
        u, f = x, fx
    raise AccuracyError(
        f"inversion iteration cap {cfg.max_iter} reached near "
        f"sigma={1.0 + u * u:.17g}", estimate=1.0 + u * u)


def lapse_bracket(cosmo: Cosmology, tau: float, sigma: float,
                  cfg: NumericsConfig | None = None) -> float:
    """B = b'(a0/sqrt(sigma)) + a0 sqrt(sigma-1)/(2 sqrt(sigma)) * I.

    I is slice_integral of order 2 and power 1.  The lapse is
    g_tau_tau = -(a'(tau) B)^2 and the chart Jacobian is
    a'(tau) b'(a0/sqrt(sigma)) B / (2 sigma sqrt(sigma-1)).
    """
    m = cosmo.model
    a0 = float(m.a(tau))
    root = math.sqrt(sigma)
    inner = slice_integral(cosmo, tau, sigma, 2, 1.0, cfg)
    return (float(m.b_dot(a0 / root))
            + a0 * math.sqrt(sigma - 1.0) / (2.0 * root) * inner)


def chi_of_sigma(cosmo: Cosmology, tau: float, sigma: float,
                 cfg: NumericsConfig | None = None) -> float:
    """Comoving radius reached at stretch sigma.

    chi = (1/2) * integral_1^sigma b'(a(tau)/sqrt(s)) / (sqrt(s) sqrt(s-1)) ds
    """
    tau, sigma = _check_slice(cosmo, tau, sigma)
    return 0.5 * slice_integral(cosmo, tau, sigma, 1, 0.5, cfg)


def rho_of_sigma(cosmo: Cosmology, tau: float, sigma: float,
                 cfg: NumericsConfig | None = None) -> float:
    """Proper distance from the observer to stretch sigma along the slice.

    rho = (a(tau)/2) * integral_1^sigma b'(a(tau)/sqrt(s))
          / (s^(3/2) sqrt(s-1)) ds
    """
    tau, sigma = _check_slice(cosmo, tau, sigma)
    a0 = float(cosmo.model.a(tau))
    return 0.5 * a0 * slice_integral(cosmo, tau, sigma, 1, 1.5, cfg)


def sample_geodesic(cosmo: Cosmology, tau: float, sigma_max: float, n: int,
                    cfg: NumericsConfig | None = None) -> list[GeodesicPoint]:
    """n points with geometrically spaced sigma on [1, sigma_max]."""
    cfg = cfg or DEFAULT_CONFIG
    try:
        n = operator.index(n)
    except TypeError:
        raise DomainError(f"n must be an integer, got {n!r}") from None
    if n < 2:
        raise DomainError(f"need at least 2 samples, got {n}")
    tau, sigma_max = _check_slice(cosmo, tau, sigma_max, allow_equal_one=False)
    points = []
    for i in range(n):
        sigma = sigma_max ** (i / (n - 1))
        if i == 0:
            points.append(GeodesicPoint(tau, 1.0, t_of_sigma(cosmo, tau, 1.0),
                                        0.0, 0.0))
        else:
            points.append(GeodesicPoint(
                tau, sigma,
                t_of_sigma(cosmo, tau, sigma),
                chi_of_sigma(cosmo, tau, sigma, cfg),
                rho_of_sigma(cosmo, tau, sigma, cfg)))
    return points


def integrate_geodesic_ode(cosmo: Cosmology, tau: float, rho_max: float,
                           step: float) -> list[GeodesicPoint]:
    """Integrate the geodesic ODE outward in proper distance rho.

    dt/drho = -sqrt((a0/a(t))^2 - 1),  dchi/drho = a0/a(t)^2,  a0 = a(tau).

    Fixed-step classical Runge-Kutta; the first step uses the near-origin
    series t(rho) ~ tau - H rho^2/2 because the radicand vanishes at the
    start.  Independent of the quadrature maps by construction, so the two
    routes can cross-check each other.
    """
    if not (math.isfinite(tau) and tau > 0.0):
        raise DomainError(f"tau must be positive and finite, got {tau}")
    if not (math.isfinite(step) and step > 0.0):
        raise DomainError(f"step must be positive and finite, got {step}")
    if not (math.isfinite(rho_max) and rho_max >= 0.0):
        raise DomainError(
            f"rho_max must be nonnegative and finite, got {rho_max}")
    m = cosmo.model
    a0 = float(m.a(tau))
    start = GeodesicPoint(tau, 1.0, float(tau), 0.0, 0.0)
    if rho_max < step * 1e-12 or rho_max == 0.0:
        return [start]

    n = max(1, round(rho_max / step))
    h = rho_max / n
    points = [start]

    def radicand(t: float) -> float:
        if t <= 0.0:
            raise DomainError(
                f"geodesic integration left the model domain (t={t:g})")
        s = (a0 / float(m.a(t))) ** 2 - 1.0
        if s < 0.0:
            if s < -_RADICAND_SLACK:
                raise AccuracyError(
                    f"radicand {s:.3g} below tolerance; step too large "
                    f"or inconsistent state", estimate=s)
            s = 0.0
        return s

    def deriv(t: float) -> tuple[float, float]:
        dchi = a0 / float(m.a(t)) ** 2
        return -math.sqrt(radicand(t)), dchi

    # Near the observer the radicand vanishes like (H rho)^2 and the
    # right-hand side is not Lipschitz in t, which would degrade the
    # Runge-Kutta order.  Cover a short initial region with the series
    # solution of u' = H(t)(1 + u^2), u = sqrt(sigma - 1), integrated to
    #   t   = tau - H rho^2/2 - (c3/4) rho^4 - (c5/6) rho^6
    #   chi = (rho + H^2 rho^3/3 + (2 H c3/5) rho^5)/a0
    # with H', H'' estimated by central differences, then hand over to RK4.
    hub = hubble(cosmo, tau)
    dtau = 1e-4 * tau
    hp = (hubble(cosmo, tau + dtau) - hubble(cosmo, tau - dtau)) / (2.0 * dtau)
    hpp = (hubble(cosmo, tau + dtau) - 2.0 * hub
           + hubble(cosmo, tau - dtau)) / dtau ** 2
    c3 = (hub ** 3 - 0.5 * hp * hub) / 3.0
    c5 = (2.0 * hub ** 2 * c3 - 0.5 * hp * hub ** 3 - 0.25 * hp * c3
          + 0.125 * hpp * hub ** 2) / 5.0
    rho_series = min(0.05 / hub, 0.25 * rho_max)
    i0 = max(1, min(n, round(rho_series / h)))
    for i in range(1, i0 + 1):
        r = i * h
        t = tau - 0.5 * hub * r * r - 0.25 * c3 * r ** 4 - c5 * r ** 6 / 6.0
        chi = (r + hub * hub * r ** 3 / 3.0 + 0.4 * hub * c3 * r ** 5) / a0
        points.append(GeodesicPoint(tau, (a0 / float(m.a(t))) ** 2, t, chi, r))

    for i in range(i0, n):
        k1t, k1c = deriv(t)
        k2t, k2c = deriv(t + 0.5 * h * k1t)
        k3t, k3c = deriv(t + 0.5 * h * k2t)
        k4t, k4c = deriv(t + h * k3t)
        t += h * (k1t + 2.0 * k2t + 2.0 * k3t + k4t) / 6.0
        chi += h * (k1c + 2.0 * k2c + 2.0 * k3c + k4c) / 6.0
        rho = (i + 1) * h
        points.append(GeodesicPoint(tau, (a0 / float(m.a(t))) ** 2, t, chi, rho))
    return points
