"""Fermi velocities, Hubble velocities, and slice proper radii.

The Fermi velocity of a comoving test particle at comoving radius chi0 is
the rate of change, with respect to the observer's proper time, of the
proper distance to the particle measured in the observer's Fermi chart.
It stays below a model supremum (below the speed of light for expanding
models with a_inf = 0), unlike the Hubble velocity a'(tau) chi0 which can
be arbitrarily large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cosmology import (Cosmology, _check_time, _exponent, hubble,
                        make_power_law)
from .errors import DomainError, _finite, _no_overflow
from .geodesics import _u_of, rho_of_sigma, store
from .numerics import NumericsConfig

__all__ = [
    "VelocityReport",
    "hubble_speed",
    "fermi_speed",
    "fermi_speed_power_law",
    "fermi_speed_sup",
    "proper_radius",
    "proper_radius_power_law",
    "velocity_identity_residual",
    "power_law_geometry_relation",
    "sigma_of_chi",
]

_IDENTITY_STEP = 1e-4


@dataclass(frozen=True)
class VelocityReport:
    """Velocities of one comoving particle seen from the observer."""

    tau: float
    chi0: float
    sigma0: float
    rho: float
    v_fermi: float
    v_hubble: float


def hubble_speed(cosmo: Cosmology, tau: float, chi0: float) -> float:
    """Hubble velocity a'(tau) * chi0 of a comoving particle."""
    chi0 = _finite("chi0", chi0, nonnegative=True)
    return _no_overflow("the Hubble speed",
                        float(cosmo.model.a_dot(_finite("tau", tau))) * chi0)


def sigma_of_chi(cosmo: Cosmology, tau: float, chi0: float,
                 cfg: NumericsConfig | None = None) -> float:
    """Stretch sigma0 at which the tau-slice geodesic meets comoving chi0.

    geodesics.Slice.invert solves it on the node interpolants of the
    slice store's panels, with no integrand call of its own.  Raises
    DomainError when chi0 lies beyond the comoving reach of the slice:
    past the end of a finite slice, or on an unbounded one past the chi
    reached where sigma overflows, which is the reach to rounding where
    chi converges; AccuracyError when the root iteration in a panel
    exhausts its cap.
    """
    u0 = _u_of(cosmo, tau, "chi0", chi0, cfg)
    return 1.0 + u0 * u0


def fermi_speed(cosmo: Cosmology, tau: float, chi0: float,
                cfg: NumericsConfig | None = None) -> VelocityReport:
    """Fermi velocity of the comoving particle at chi0 on the tau slice.

    v_fermi = (a'(tau)/2) [ I1 + a(tau) I2 - (a(tau)/sigma0) I3 ]
    with I1, I2, I3 the sigma integrals of b'(.)/(s^(3/2) sqrt(s-1)),
    b''(.)/(s^2 sqrt(s-1)), and b''(.)/(s sqrt(s-1)) up to sigma0:
    a'(tau) times the slice store's speed read (geodesics.Slice.speed).
    """
    chi0 = _finite("chi0", chi0, nonnegative=True)
    v_h = hubble_speed(cosmo, tau, chi0)
    if chi0 == 0.0:
        return VelocityReport(tau, 0.0, 1.0, 0.0, 0.0, 0.0)
    u0 = _u_of(cosmo, tau, "chi0", chi0, cfg)
    st = store(cosmo, tau, cfg)
    v_f = float(cosmo.model.a_dot(tau)) * st.speed(u0)
    return VelocityReport(tau, chi0, 1.0 + u0 * u0, st.rho(u0), v_f, v_h)


def _beta(q: float) -> float:
    """B(q - 1/2, 1/2) = sqrt(pi) Gamma(q - 1/2)/Gamma(q), q > 1/2: for
    m = q - 1 < 170 the ratio of math.gamma (Gamma(q) overflows past
    171.6), beyond it sqrt(pi/m) times the asymptotic series in x = 1/m,
    whose first omitted term is below 1e-18 there."""
    m = q - 1.0
    if m < 170.0:
        return math.sqrt(math.pi) * math.gamma(q - 0.5) / math.gamma(q)
    x = 1.0 / m
    series = 1.0 + x * (-1.0 / 8.0 + x * (1.0 / 128.0 + x * (
        5.0 / 1024.0 + x * (-21.0 / 32768.0 + x * (
            -399.0 / 262144.0 + x * (869.0 / 4194304.0))))))
    return math.sqrt(math.pi) / math.sqrt(m) * series


def _power_integral(q: float, sigma0: float) -> float:
    """J(q) = int_1^sigma0 s^(-q) (s-1)^(-1/2) ds, q > 1/2, sigma0 >= 1:
    B(q - 1/2, 1/2) I_y(1/2, q - 1/2), y = (sigma0 - 1)/sigma0 (1 at inf;
    1 - 1/sigma0 would lose digits near 1).  For q near 1/2 at large
    sigma0 it loses digits (1.3e-7 relative at q = 0.6, sigma0 = 1e12);
    both callers weight it by 1/sigma0, which keeps v at rounding level."""
    from scipy.special import betainc

    y = 1.0 if math.isinf(sigma0) else (sigma0 - 1.0) / sigma0
    return _beta(q) * float(betainc(0.5, q - 0.5, y))


def fermi_speed_power_law(alpha: float, sigma0: float) -> float:
    """Fermi velocity for a(t) = t**alpha as a function of sigma0 alone.

    v = p [J(p + 1) + ((alpha - 1)/sigma0) J(p)], p = 1/(2 alpha), with
    J of _power_integral.  Independent of tau; sigma0 may be inf, where v
    is fermi_speed_sup(alpha).
    """
    p = 1.0 / (2.0 * _exponent(alpha))
    if not sigma0 >= 1.0:
        raise DomainError(f"sigma0 must be >= 1, got {sigma0}")
    if sigma0 == 1.0:
        return 0.0
    v = p * _power_integral(p + 1.0, sigma0)
    if alpha < 1.0 and not math.isinf(sigma0):
        v += p * (alpha - 1.0) / sigma0 * _power_integral(p, sigma0)
    return _no_overflow("the power-law Fermi speed", v)


def fermi_speed_sup(alpha: float) -> float:
    """Least upper bound of the power-law Fermi velocity over all sigma0.

    p B(p + 1/2, 1/2) = sqrt(pi) Gamma(p + 1/2) / (2 alpha Gamma(p + 1)),
    p = 1/(2 alpha), with B of _beta; at most 1/alpha, with equality only
    for alpha = 1.  Where p overflows (alpha < 2.8e-309) the series of B
    is 1 to rounding, and the sup is sqrt(pi)/sqrt(2 alpha).
    """
    p = 1.0 / (2.0 * _exponent(alpha))
    if math.isinf(p):
        return math.sqrt(math.pi) / math.sqrt(2.0 * alpha)
    return p * _beta(p + 1.0)


def proper_radius(cosmo: Cosmology, tau: float,
                  cfg: NumericsConfig | None = None) -> float:
    """Proper radius rho_M of the constant-tau Fermi slice.

    (a(tau)/2) * integral_1^sigma_infinity b'(a/sqrt(s)) / (s^(3/2)
    sqrt(s-1)) ds; finite sigma_infinity is clipped just inside the slice.
    Always at most the Hubble radius 1/H(tau).  It is the total of the
    slice store's radial track, so the rows of one slice integrate its
    full sigma range once; geodesics.Slice says when sigma_of_rho needs
    it.
    """
    return store(cosmo, _check_time(tau), cfg).radius()


def proper_radius_power_law(alpha: float, tau: float) -> float:
    """Closed-form slice radius tau * sqrt(pi) G(1/(2a)+1/2)/(2a G(1/(2a)+1))."""
    return _no_overflow("the slice radius",
                        _finite("tau", tau) * fermi_speed_sup(alpha))


def velocity_identity_residual(cosmo: Cosmology, tau: float, chi0: float,
                               cfg: NumericsConfig | None = None) -> float:
    """|v_fermi - (H rho + a d/dtau (rho/a))| at fixed chi0.

    The tau derivative is a central difference of relative step
    _IDENTITY_STEP, whose O(step^2) error dominates the residual.
    """
    chi0 = _finite("chi0", chi0, nonnegative=True)
    tau = _check_time(tau)
    if chi0 == 0.0:
        return 0.0
    rep = fermi_speed(cosmo, tau, chi0, cfg)

    def rho_over_a(tp: float) -> float:
        st = store(cosmo, tp, cfg)
        return st.rho(_u_of(cosmo, tp, "chi0", chi0, cfg)) / st.a0

    h = _IDENTITY_STEP * tau
    ddtau = (rho_over_a(tau + h) - rho_over_a(tau - h)) / (2.0 * h)
    rhs = hubble(cosmo, tau) * rep.rho + float(cosmo.model.a(tau)) * ddtau
    return abs(rep.v_fermi - rhs)


def power_law_geometry_relation(alpha: float, tau: float, sigma0: float,
                                cfg: NumericsConfig | None = None
                                ) -> tuple[float, float]:
    """Both sides of v = rho/tau + ((alpha-1)/(2 alpha sigma0)) * J.

    lhs is the closed-form Fermi velocity, rhs re-expresses it through
    the proper distance, a slice-store quadrature; J (_power_integral of
    1/(2 alpha)) enters only for alpha < 1, where it is finite.
    """
    if not sigma0 > 1.0:
        raise DomainError(f"sigma0 must exceed 1, got {sigma0}")
    lhs = fermi_speed_power_law(alpha, sigma0)
    cosmo = Cosmology(make_power_law(alpha), k=0)
    rhs = rho_of_sigma(cosmo, tau, sigma0, cfg) / tau
    if alpha < 1.0:
        rhs += (alpha - 1.0) / (2.0 * alpha * sigma0) * _power_integral(
            1.0 / (2.0 * alpha), sigma0)
    return lhs, rhs
