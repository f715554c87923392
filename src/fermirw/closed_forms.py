"""Exact reference solutions for four standard expansion histories.

Each bundle packages the analytic slice maps, metric components, and
velocity law of one model so the general quadrature pipeline can be
checked against it route-for-route.  The callables share the numeric
pipeline's conventions: slice maps take (tau, sigma), metric entries take
(tau, sigma), velocities take sigma alone (they are tau independent for
every model here).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

from .cosmology import Cosmology, make_exponential, make_power_law
from .errors import DomainError, OutOfChartError, _finite, _no_overflow
from .numerics import DEFAULT_CONFIG, find_root_monotone, gamma_fn, hyp2f1

__all__ = [
    "ClosedFormModel",
    "milne",
    "de_sitter",
    "radiation",
    "matter",
    "GAMMA_RATIO_SUP",
]

# sqrt(pi) Gamma(5/4) / Gamma(3/4): dust-model velocity supremum and the
# slice radius per unit proper time.
GAMMA_RATIO_SUP = math.sqrt(math.pi) * gamma_fn(1.25) / gamma_fn(0.75)

_INVERT_CAP = 60


@dataclass(frozen=True)
class ClosedFormModel:
    """Analytic maps of one exactly solvable expansion history.

    t, chi, rho, g_tau_tau, ang: functions of (tau, sigma).
    sigma_of_rho: function of (tau, rho); raises OutOfChartError beyond
    the slice radius.  v_f: function of sigma0.  rho_slice: function of
    tau.  v_sup is the supremum of v_f.  Each map returns a finite float
    or raises a FermiRWError: an overflow on the way, raised or returned
    as inf or NaN, raises DomainError.
    """

    family: str
    cosmology: Cosmology
    v_sup: float
    t: Callable[[float, float], float]
    chi: Callable[[float, float], float]
    rho: Callable[[float, float], float]
    sigma_of_rho: Callable[[float, float], float]
    g_tau_tau: Callable[[float, float], float]
    ang: Callable[[float, float], float]
    v_f: Callable[[float], float]
    rho_slice: Callable[[float], float]

    def __post_init__(self):
        for name in ("t", "chi", "rho", "sigma_of_rho", "g_tau_tau", "ang",
                     "v_f", "rho_slice"):
            object.__setattr__(self, name, _guard_overflow(
                f"{self.family} {name}", getattr(self, name)))


def _guard_overflow(name: str, fn: Callable) -> Callable:
    """fn, with an overflow on the way to its value a DomainError."""
    @functools.wraps(fn)
    def guarded(*args):
        try:
            value = fn(*args)
        except OverflowError:
            raise DomainError(
                f"{name}{args} overflows the float range") from None
        return _no_overflow(f"{name}{args}", value)
    return guarded


def _check_tau(tau: float) -> float:
    return _finite("tau", tau)


def _check_sigma(sigma: float, sigma_inf: float = math.inf) -> float:
    if not sigma >= 1.0:
        raise DomainError(f"sigma must be >= 1, got {sigma}")
    if sigma >= sigma_inf:
        raise DomainError(
            f"sigma={sigma:g} is not below sigma_infinity={sigma_inf:g}")
    return float(sigma)


def _check_rho(tau: float, rho: float, rho_max: float) -> float:
    if _finite("rho", rho, nonnegative=True) >= rho_max:
        raise OutOfChartError(
            f"rho={rho:g} is not inside the tau={tau:g} slice; "
            f"the slice proper radius is rho_M={rho_max:.12g}",
            rho_max=rho_max)
    return float(rho)


def _invert_monotone_rho(rho_fn: Callable[[float, float], float], tau: float,
                         rho: float, rho_max: float) -> float:
    """Invert an increasing, saturating rho(tau, .) by bracketed root find."""
    tau = _check_tau(tau)
    if _check_rho(tau, rho, rho_max) == 0.0:
        return 1.0
    u_hi = 1.0
    for _ in range(_INVERT_CAP):
        if rho_fn(tau, 1.0 + u_hi * u_hi) > rho:
            break
        u_hi *= 2.0
    else:
        raise OutOfChartError(
            f"rho={rho:g} within solver resolution of the slice boundary "
            f"rho_M={rho_max:.12g}", rho_max=rho_max)
    u = find_root_monotone(
        lambda u: rho_fn(tau, 1.0 + u * u) - rho, 0.0, u_hi, DEFAULT_CONFIG)
    return 1.0 + u * u


def milne() -> ClosedFormModel:
    """Empty open universe, a(t) = t with k = -1.

    The Fermi chart is the Minkowski light cone in disguise: g_tau_tau is
    exactly -1, the angular coefficient is exactly rho^2, and the slice
    radius equals tau (the observer's whole causal past fits in the
    chart).
    """
    cosmo = Cosmology(make_power_law(1.0), k=-1, name="milne")

    def t(tau, sigma):
        return _check_tau(tau) / math.sqrt(_check_sigma(sigma))

    def chi(tau, sigma):
        _check_tau(tau)
        s = _check_sigma(sigma)
        return math.log(math.sqrt(s) + math.sqrt(s - 1.0))

    def rho(tau, sigma):
        s = _check_sigma(sigma)
        return _check_tau(tau) * math.sqrt((s - 1.0) / s)

    def sigma_of_rho(tau, rho_val):
        tau = _check_tau(tau)
        x = _check_rho(tau, rho_val, tau) / tau
        return 1.0 / (1.0 - x * x)

    def g_tau_tau(tau, sigma):
        _check_tau(tau)
        _check_sigma(sigma)
        return -1.0

    def ang(tau, sigma):
        r = rho(tau, sigma)
        return r * r

    def v_f(sigma):
        s = _check_sigma(sigma)
        return math.sqrt((s - 1.0) / s)

    return ClosedFormModel("milne", cosmo, 1.0, t, chi, rho, sigma_of_rho,
                           g_tau_tau, ang, v_f, _check_tau)


def de_sitter(h0: float) -> ClosedFormModel:
    """Exponential expansion a(t) = exp(h0 t).

    The chart is bounded: sigma_infinity = exp(2 h0 tau), the slice
    radius is arccos(exp(-h0 tau))/h0 < pi/(2 h0), and the Fermi speed
    sqrt(sigma - 1)/sigma peaks at 1/2 when sigma = 2.
    """
    h0 = _finite("h0", h0)
    cosmo = Cosmology(make_exponential(h0), k=0, name="de-sitter")

    def s_inf(tau):
        return math.exp(2.0 * h0 * tau)

    def t(tau, sigma):
        tau = _check_tau(tau)
        return tau - math.log(_check_sigma(sigma, s_inf(tau))) / (2.0 * h0)

    def chi(tau, sigma):
        tau = _check_tau(tau)
        s = _check_sigma(sigma, s_inf(tau))
        return math.sqrt(s - 1.0) * math.exp(-h0 * tau) / h0

    def rho(tau, sigma):
        tau = _check_tau(tau)
        s = _check_sigma(sigma, s_inf(tau))
        return math.acos(1.0 / math.sqrt(s)) / h0

    def rho_slice(tau):
        return math.acos(math.exp(-h0 * _check_tau(tau))) / h0

    def sigma_of_rho(tau, rho_val):
        tau = _check_tau(tau)
        return 1.0 / math.cos(h0 * _check_rho(tau, rho_val,
                                              rho_slice(tau))) ** 2

    def g_tau_tau(tau, sigma):
        tau = _check_tau(tau)
        return -1.0 / _check_sigma(sigma, s_inf(tau))

    def ang(tau, sigma):
        tau = _check_tau(tau)
        s = _check_sigma(sigma, s_inf(tau))
        return (s - 1.0) / (s * h0 * h0)

    def v_f(sigma):
        s = _check_sigma(sigma)
        return math.sqrt(s - 1.0) / s

    return ClosedFormModel("de-sitter", cosmo, 0.5, t, chi, rho,
                           sigma_of_rho, g_tau_tau, ang, v_f, rho_slice)


def radiation() -> ClosedFormModel:
    """Radiation-dominated flat model, a(t) = t**(1/2).

    Slice radius is (pi/2) tau and the velocity supremum is pi/2, both
    above 1: recession through the chart can be superluminal even though
    the chart is global.
    """
    cosmo = Cosmology(make_power_law(0.5), k=0, name="radiation")

    def t(tau, sigma):
        return _check_tau(tau) / _check_sigma(sigma)

    def chi(tau, sigma):
        tau = _check_tau(tau)
        s = _check_sigma(sigma)
        return 2.0 * math.sqrt(tau) * math.acos(1.0 / math.sqrt(s))

    def rho(tau, sigma):
        tau = _check_tau(tau)
        s = _check_sigma(sigma)
        return tau * (math.sqrt(s - 1.0) / s + math.acos(1.0 / math.sqrt(s)))

    def sigma_of_rho(tau, rho_val):
        return _invert_monotone_rho(rho, tau, rho_val,
                                    0.5 * math.pi * _check_tau(tau))

    def g_tau_tau(tau, sigma):
        _check_tau(tau)
        s = _check_sigma(sigma)
        root = math.sqrt(s - 1.0)
        return -(1.0 + root * math.acos(1.0 / math.sqrt(s))) ** 2 / s

    def ang(tau, sigma):
        tau = _check_tau(tau)
        s = _check_sigma(sigma)
        c = chi(tau, sigma)
        return tau * c * c / s

    def v_f(sigma):
        s = _check_sigma(sigma)
        root = math.sqrt(s - 1.0)
        return root / s + (s - 1.0) / s * math.acos(1.0 / math.sqrt(s))

    def rho_slice(tau):
        return 0.5 * math.pi * _check_tau(tau)

    return ClosedFormModel("radiation", cosmo, 0.5 * math.pi, t, chi, rho,
                           sigma_of_rho, g_tau_tau, ang, v_f, rho_slice)


def matter() -> ClosedFormModel:
    """Matter-dominated flat model, a(t) = t**(2/3).

    The slice maps close in Gauss hypergeometric functions of 1/sigma;
    the velocity supremum and per-tau slice radius carry the gamma ratio
    sqrt(pi) Gamma(5/4) / Gamma(3/4) ~ 1.311.
    """
    cosmo = Cosmology(make_power_law(2.0 / 3.0), k=0, name="matter")
    kconst = GAMMA_RATIO_SUP

    def f1(z):
        return hyp2f1(0.25, 0.5, 1.25, z)

    def f2(z):
        return hyp2f1(-0.75, 0.5, 0.25, z)

    def t(tau, sigma):
        return _check_tau(tau) * _check_sigma(sigma) ** -0.75

    def chi(tau, sigma):
        tau = _check_tau(tau)
        s = _check_sigma(sigma)
        return 3.0 * tau ** (1.0 / 3.0) * (kconst - f1(1.0 / s) / s ** 0.25)

    def rho(tau, sigma):
        tau = _check_tau(tau)
        s = _check_sigma(sigma)
        return tau * (kconst - ((s - 1.0) / math.sqrt(s)) ** 1.5
                      + f2(1.0 / s) * s ** 0.75)

    def sigma_of_rho(tau, rho_val):
        return _invert_monotone_rho(rho, tau, rho_val,
                                    kconst * _check_tau(tau))

    def g_tau_tau(tau, sigma):
        _check_tau(tau)
        s = _check_sigma(sigma)
        bracket = 1.0 + math.sqrt(s - 1.0) / s ** 0.25 * (
            kconst - f1(1.0 / s) / s ** 0.25)
        return -bracket * bracket / math.sqrt(s)

    def ang(tau, sigma):
        tau = _check_tau(tau)
        s = _check_sigma(sigma)
        c = chi(tau, sigma)
        return tau ** (4.0 / 3.0) * c * c / s

    def v_f(sigma):
        s = _check_sigma(sigma)
        return rho(1.0, s) - (kconst - f1(1.0 / s) / s ** 0.25) / s

    def rho_slice(tau):
        return kconst * _check_tau(tau)

    return ClosedFormModel("matter", cosmo, kconst, t, chi, rho,
                           sigma_of_rho, g_tau_tau, ang, v_f, rho_slice)
