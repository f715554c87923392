"""Exact reference solutions for four standard expansion histories.

Each bundle packages the analytic slice maps, metric components, and
velocity law of one model so the general quadrature pipeline can be
checked against it route-for-route.  The callables share the numeric
pipeline's conventions: slice maps take (tau, sigma), metric entries take
(tau, sigma), velocities take sigma alone (they are tau independent for
every model here).  The factories hold only the formulas: ClosedFormModel
checks every map's arguments, once, before the formula runs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

from .cosmology import Cosmology, make_exponential, make_power_law
from .errors import DomainError, OutOfChartError, _finite, _no_overflow
from .geodesics import _check_slice
from .numerics import find_root_monotone, gamma_fn, hyp2f1

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
    sigma_of_rho: function of (tau, rho).  v_f: function of sigma0.
    rho_slice: function of tau.  v_sup is the supremum of v_f.

    The factories pass bare formulas, and __post_init__ wraps each map to
    check its arguments first.  tau must be finite and positive.  A
    (tau, sigma) map needs 1 <= sigma < sigma_infinity(cosmology, tau),
    the domain of t_of_sigma.  sigma_of_rho needs 0 <= rho and raises
    OutOfChartError, carrying rho_max = rho_slice(tau), where rho reaches
    it.  v_f needs sigma >= 1.  The formula then runs on float arguments.
    Each map returns a finite float or raises a FermiRWError: an overflow
    on the way, raised or returned as inf or NaN, raises DomainError.
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
        checks = dict.fromkeys(("t", "chi", "rho", "g_tau_tau", "ang"),
                               functools.partial(_check_slice, self.cosmology))
        checks.update(sigma_of_rho=self._check_radius, v_f=_check_stretch,
                      rho_slice=functools.partial(_finite, "tau"))
        for name, check in checks.items():
            object.__setattr__(self, name, _guard(
                f"{self.family} {name}", getattr(self, name), check))

    def _check_radius(self, tau: float, rho: float) -> None:
        rho_max = self.rho_slice(tau)
        if _finite("rho", rho, nonnegative=True) >= rho_max:
            raise OutOfChartError.outside_slice(rho, tau, rho_max)


def _check_stretch(sigma: float) -> None:
    if not sigma >= 1.0:
        raise DomainError(f"sigma must be >= 1, got {sigma}")


def _guard(name: str, fn: Callable, check: Callable) -> Callable:
    """fn, run on float arguments once check passes them, with an overflow
    on the way to its value a DomainError."""
    @functools.wraps(fn)
    def guarded(*args):
        check(*args)
        try:
            value = fn(*map(float, args))
        except OverflowError:
            raise DomainError(
                f"{name}{args} overflows the float range") from None
        return _no_overflow(f"{name}{args}", value)
    return guarded


def _invert_monotone_rho(rho_fn: Callable[[float, float], float], tau: float,
                         rho: float) -> float:
    """sigma with rho(tau, sigma) = rho, for an increasing, saturating
    rho(tau, .), by bisection in u = sqrt(sigma - 1)."""
    if rho == 0.0:
        return 1.0
    u_hi = 1.0
    for _ in range(_INVERT_CAP):
        if rho_fn(tau, 1.0 + u_hi * u_hi) > rho:
            break
        u_hi *= 2.0
    else:
        raise OutOfChartError(
            f"rho={rho:g} is within solver resolution of the tau={tau:g} "
            f"slice boundary")
    u = find_root_monotone(lambda u: rho_fn(tau, 1.0 + u * u) - rho, 0.0, u_hi)
    return 1.0 + u * u


def milne() -> ClosedFormModel:
    """Empty open universe, a(t) = t with k = -1.

    The Fermi chart is the Minkowski light cone in disguise: g_tau_tau is
    exactly -1, the angular coefficient is exactly rho^2, and the slice
    radius equals tau (the observer's whole causal past fits in the
    chart).
    """
    cosmo = Cosmology(make_power_law(1.0), k=-1, name="milne")

    def t(tau, s):
        return tau / math.sqrt(s)

    def chi(tau, s):
        return math.log(math.sqrt(s) + math.sqrt(s - 1.0))

    def rho(tau, s):
        return tau * math.sqrt((s - 1.0) / s)

    def sigma_of_rho(tau, rho_val):
        x = rho_val / tau
        return 1.0 / (1.0 - x * x)

    def g_tau_tau(tau, s):
        return -1.0

    def ang(tau, s):
        r = rho(tau, s)
        return r * r

    def v_f(s):
        return math.sqrt((s - 1.0) / s)

    def rho_slice(tau):
        return tau

    return ClosedFormModel("milne", cosmo, 1.0, t, chi, rho, sigma_of_rho,
                           g_tau_tau, ang, v_f, rho_slice)


def de_sitter(h0: float) -> ClosedFormModel:
    """Exponential expansion a(t) = exp(h0 t).

    The chart is bounded: sigma_infinity = exp(2 h0 tau), the slice
    radius is arccos(exp(-h0 tau))/h0 < pi/(2 h0), and the Fermi speed
    sqrt(sigma - 1)/sigma peaks at 1/2 when sigma = 2.
    """
    h0 = _finite("h0", h0)
    cosmo = Cosmology(make_exponential(h0), k=0, name="de-sitter")

    def t(tau, s):
        return tau - math.log(s) / (2.0 * h0)

    def chi(tau, s):
        return math.sqrt(s - 1.0) * math.exp(-h0 * tau) / h0

    def rho(tau, s):
        return math.acos(1.0 / math.sqrt(s)) / h0

    def rho_slice(tau):
        return math.acos(math.exp(-h0 * tau)) / h0

    def sigma_of_rho(tau, rho_val):
        return 1.0 / math.cos(h0 * rho_val) ** 2

    def g_tau_tau(tau, s):
        return -1.0 / s

    def ang(tau, s):
        return (s - 1.0) / (s * h0 * h0)

    def v_f(s):
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

    def t(tau, s):
        return tau / s

    def chi(tau, s):
        return 2.0 * math.sqrt(tau) * math.acos(1.0 / math.sqrt(s))

    def rho(tau, s):
        return tau * (math.sqrt(s - 1.0) / s + math.acos(1.0 / math.sqrt(s)))

    def g_tau_tau(tau, s):
        root = math.sqrt(s - 1.0)
        return -(1.0 + root * math.acos(1.0 / math.sqrt(s))) ** 2 / s

    def ang(tau, s):
        c = chi(tau, s)
        return tau * c * c / s

    def v_f(s):
        root = math.sqrt(s - 1.0)
        return root / s + (s - 1.0) / s * math.acos(1.0 / math.sqrt(s))

    def rho_slice(tau):
        return 0.5 * math.pi * tau

    return ClosedFormModel("radiation", cosmo, 0.5 * math.pi, t, chi, rho,
                           functools.partial(_invert_monotone_rho, rho),
                           g_tau_tau, ang, v_f, rho_slice)


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

    def t(tau, s):
        return tau * s ** -0.75

    def chi(tau, s):
        return 3.0 * tau ** (1.0 / 3.0) * (kconst - f1(1.0 / s) / s ** 0.25)

    def rho(tau, s):
        return tau * (kconst - ((s - 1.0) / math.sqrt(s)) ** 1.5
                      + f2(1.0 / s) * s ** 0.75)

    def g_tau_tau(tau, s):
        bracket = 1.0 + math.sqrt(s - 1.0) / s ** 0.25 * (
            kconst - f1(1.0 / s) / s ** 0.25)
        return -bracket * bracket / math.sqrt(s)

    def ang(tau, s):
        c = chi(tau, s)
        return tau ** (4.0 / 3.0) * c * c / s

    def v_f(s):
        return rho(1.0, s) - (kconst - f1(1.0 / s) / s ** 0.25) / s

    def rho_slice(tau):
        return kconst * tau

    return ClosedFormModel("matter", cosmo, kconst, t, chi, rho,
                           functools.partial(_invert_monotone_rho, rho),
                           g_tau_tau, ang, v_f, rho_slice)
