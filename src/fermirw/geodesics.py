"""Spacelike geodesics orthogonal to a comoving observer.

Each constant-tau slice of the Fermi chart is ruled by unit-speed spacelike
geodesics leaving the observer at proper time tau.  Points along one
geodesic are labelled by the stretch sigma = (a(tau)/a(t))^2 >= 1, and the
three maps below give cosmological time t, comoving radius chi, and proper
distance rho as functions of sigma.  Every slice quantity is built from one
integral, slice_integral, of b'(a(tau)/sqrt(s)) or b''(a(tau)/sqrt(s))
against s^(-n) (s-1)^(-1/2).  An independent route integrates the geodesic
equation in rho directly and is used as a cross-check.
"""

from __future__ import annotations

import math
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
    "lapse_bracket",
    "sample_geodesic",
    "integrate_geodesic_ode",
]

# Below this, sigma - 1 is too small for quadrature; leading-order
# expressions are accurate to O(sigma - 1) relative.
_SIGMA_NEAR_ONE = 1e-10

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
                   power: float, cfg: NumericsConfig | None = None) -> float:
    """integral_1^sigma b^(order)(a0/sqrt(s)) s^(-power) (s-1)^(-1/2) ds.

    a0 = a(tau), order is 1 (b') or 2 (b''), and sigma may be inf.  The
    range is split at the table knots of interpolated models; within
    1e-10 of sigma = 1 the leading-order value 2 b^(order)(a0) sqrt(sigma-1)
    is returned instead.
    """
    cfg = cfg or DEFAULT_CONFIG
    m = cosmo.model
    deriv = m.b_dot if order == 1 else m.b_ddot
    a0 = float(m.a(tau))
    if sigma - 1.0 <= _SIGMA_NEAR_ONE:
        return 2.0 * float(deriv(a0)) * math.sqrt(max(sigma - 1.0, 0.0))

    def f(s):
        return deriv(a0 / np.sqrt(s)) / (s ** power * np.sqrt(s - 1.0))

    return integrate_sigma(f, 1.0, sigma, cfg,
                           breaks=sigma_breaks(cosmo, tau, sigma))


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
