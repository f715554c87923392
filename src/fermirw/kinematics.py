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

import numpy as np

from .cosmology import Cosmology, _check_time, hubble, make_power_law
from .errors import DomainError, _finite, _no_overflow
from .geodesics import _CHI, _I2, _LAPSE, _RHO, rho_of_sigma, store
from .numerics import DEFAULT_CONFIG, NumericsConfig, integrate_sigma

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


@dataclass(frozen=True)
class VelocityReport:
    """Velocities of one comoving particle seen from the observer."""

    tau: float
    chi0: float
    sigma0: float
    rho: float
    v_fermi: float
    v_hubble: float


def _check_chi(chi0: float) -> float:
    return _finite("chi0", chi0, nonnegative=True)


def hubble_speed(cosmo: Cosmology, tau: float, chi0: float) -> float:
    """Hubble velocity a'(tau) * chi0 of a comoving particle."""
    chi0 = _check_chi(chi0)
    return _no_overflow("the Hubble speed",
                        float(cosmo.model.a_dot(_finite("tau", tau))) * chi0)


def sigma_of_chi(cosmo: Cosmology, tau: float, chi0: float,
                 cfg: NumericsConfig | None = None) -> float:
    """Stretch sigma0 at which the tau-slice geodesic meets comoving chi0.

    geodesics.Slice.invert solves it by Newton's method on the slice
    store's panel polynomials and one polish integral.  Raises
    DomainError when chi0 lies beyond the comoving reach of the slice
    (past the end of a finite slice, or where chi saturates on an
    unbounded one), AccuracyError when the iteration or its bracket
    growth exhausts its cap.
    """
    chi0 = _check_chi(chi0)
    tau = _check_time(tau)
    if chi0 == 0.0:
        return 1.0
    return store(cosmo, tau, cfg).invert(_CHI, chi0, 0.5)


def fermi_speed(cosmo: Cosmology, tau: float, chi0: float,
                cfg: NumericsConfig | None = None) -> VelocityReport:
    """Fermi velocity of the comoving particle at chi0 on the tau slice.

    v_fermi = (a'(tau)/2) [ I1 + a(tau) I2 - (a(tau)/sigma0) I3 ]
    with I1, I2, I3 the sigma integrals of b'(.)/(s^(3/2) sqrt(s-1)),
    b''(.)/(s^2 sqrt(s-1)), and b''(.)/(s sqrt(s-1)) up to sigma0, read
    from the slice store in one pass: I1 from the b' panels, and
    a(tau) (I2 - I3/sigma0) from the b'' panels with one polish integral.
    """
    cfg = cfg or DEFAULT_CONFIG
    chi0 = _check_chi(chi0)
    v_h = hubble_speed(cosmo, tau, chi0)
    if chi0 == 0.0:
        return VelocityReport(tau, 0.0, 1.0, 0.0, 0.0, 0.0)
    sigma0 = sigma_of_chi(cosmo, tau, chi0, cfg)
    st = store(cosmo, tau, cfg)
    a0 = st.a0
    i1 = st.integral({_RHO: 1.0}, sigma0, radial=True)
    rest = st.integral({_I2: a0, _LAPSE: -a0 / sigma0}, sigma0)
    v_f = 0.5 * float(cosmo.model.a_dot(tau)) * (i1 + rest)
    return VelocityReport(tau, chi0, sigma0, 0.5 * a0 * i1, v_f, v_h)


def fermi_speed_power_law(alpha: float, sigma0: float,
                          cfg: NumericsConfig | None = None) -> float:
    """Fermi velocity for a(t) = t**alpha as a function of sigma0 alone.

    v = (1/(2 alpha)) [ int_1^s0 s^(-1/(2a)-1) (s-1)^(-1/2) ds
        + ((alpha-1)/s0) int_1^s0 s^(-1/(2a)) (s-1)^(-1/2) ds ]

    Independent of tau; sigma0 may be inf, giving the supremum.
    """
    cfg = cfg or DEFAULT_CONFIG
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"power-law exponent must be in (0, 1], got {alpha}")
    if not sigma0 >= 1.0:
        raise DomainError(f"sigma0 must be >= 1, got {sigma0}")
    if sigma0 == 1.0:
        return 0.0
    p = 1.0 / (2.0 * alpha)
    first = integrate_sigma(
        lambda s: s ** (-p - 1.0) / np.sqrt(s - 1.0), 1.0, sigma0, cfg)
    if alpha == 1.0 or math.isinf(sigma0):
        return p * first
    second = integrate_sigma(
        lambda s: s ** (-p) / np.sqrt(s - 1.0), 1.0, sigma0, cfg)
    return p * (first + (alpha - 1.0) / sigma0 * second)


def fermi_speed_sup(alpha: float) -> float:
    """Least upper bound of the power-law Fermi velocity over all sigma0.

    sqrt(pi) Gamma(1/(2 alpha) + 1/2) / (2 alpha Gamma(1/(2 alpha) + 1)),
    which is at most 1/alpha with equality only for alpha = 1.  The gamma
    ratio is taken through lgamma so that small alpha cannot overflow.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"power-law exponent must be in (0, 1], got {alpha}")
    p = 1.0 / (2.0 * alpha)
    ratio = math.exp(math.lgamma(p + 0.5) - math.lgamma(p + 1.0))
    return math.sqrt(math.pi) * ratio / (2.0 * alpha)


def proper_radius(cosmo: Cosmology, tau: float,
                  cfg: NumericsConfig | None = None) -> float:
    """Proper radius rho_M of the constant-tau Fermi slice.

    (a(tau)/2) * integral_1^sigma_infinity b'(a/sqrt(s)) / (s^(3/2)
    sqrt(s-1)) ds; finite sigma_infinity is clipped just inside the slice.
    Always at most the Hubble radius 1/H(tau).  It is the total of the
    slice store's radial track, so the rows of one slice integrate its
    full sigma range once.  It builds the track's tail to the slice end,
    which chart.sigma_of_rho asks for only when its target lies beyond
    the radial pieces already built.
    """
    return store(cosmo, _check_time(tau), cfg).radius()


def proper_radius_power_law(alpha: float, tau: float) -> float:
    """Closed-form slice radius tau * sqrt(pi) G(1/(2a)+1/2)/(2a G(1/(2a)+1))."""
    return _no_overflow("the slice radius",
                        _finite("tau", tau) * fermi_speed_sup(alpha))


def velocity_identity_residual(cosmo: Cosmology, tau: float, chi0: float,
                               cfg: NumericsConfig | None = None,
                               rel_step: float = 1e-4) -> float:
    """|v_fermi - (H rho + a d/dtau (rho/a))| at fixed chi0.

    The tau derivative is taken by central finite differences, so the
    residual is dominated by O(rel_step^2) discretisation error.
    """
    cfg = cfg or DEFAULT_CONFIG
    chi0 = _check_chi(chi0)
    _finite("rel_step", rel_step)
    tau = _check_time(tau)
    if chi0 == 0.0:
        return 0.0
    rep = fermi_speed(cosmo, tau, chi0, cfg)

    def rho_at(tp: float) -> float:
        s0 = sigma_of_chi(cosmo, tp, chi0, cfg)
        return rho_of_sigma(cosmo, tp, s0, cfg)

    h = rel_step * tau
    ratio_plus = rho_at(tau + h) / float(cosmo.model.a(tau + h))
    ratio_minus = rho_at(tau - h) / float(cosmo.model.a(tau - h))
    ddtau = (ratio_plus - ratio_minus) / (2.0 * h)
    rhs = hubble(cosmo, tau) * rep.rho + float(cosmo.model.a(tau)) * ddtau
    return abs(rep.v_fermi - rhs)


def power_law_geometry_relation(alpha: float, tau: float, sigma0: float,
                                cfg: NumericsConfig | None = None
                                ) -> tuple[float, float]:
    """Both sides of v = rho/tau + ((alpha-1)/(2 alpha sigma0)) * I.

    lhs is the direct Fermi velocity, rhs re-expresses it through the
    proper distance; I is the integral of s^(-1/(2 alpha)) (s-1)^(-1/2).
    Both sides are computed by independent quadratures.
    """
    cfg = cfg or DEFAULT_CONFIG
    if not sigma0 > 1.0:
        raise DomainError(f"sigma0 must exceed 1, got {sigma0}")
    lhs = fermi_speed_power_law(alpha, sigma0, cfg)
    cosmo = Cosmology(make_power_law(alpha), k=0)
    rho = rho_of_sigma(cosmo, tau, sigma0, cfg)
    p = 1.0 / (2.0 * alpha)
    tail = integrate_sigma(
        lambda s: s ** (-p) / np.sqrt(s - 1.0), 1.0, sigma0, cfg)
    rhs = rho / tau + (alpha - 1.0) / (2.0 * alpha * sigma0) * tail
    return lhs, rhs
