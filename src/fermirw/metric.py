"""Metric components of the Fermi chart, in polar and Cartesian form.

Signature convention is (-, +, +, +) with the observer at rho = 0, where
the metric is exactly Minkowski.  The radial component g_rho_rho is
identically 1 because rho is proper distance along the slice geodesics;
all nontrivial structure sits in g_tau_tau and the angular coefficient.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import numpy as np

from .chart import sigma_of_rho
from .cosmology import Cosmology, _check_time
from .errors import (DomainError, UnsupportedCurvatureError, _finite,
                     _no_overflow)
from .geodesics import chi_of_sigma, lapse_bracket
from .numerics import DEFAULT_CONFIG, NumericsConfig

__all__ = [
    "PolarMetric",
    "s_k",
    "g_tau_tau",
    "metric_polar",
    "lambda_k",
    "metric_cartesian",
]

# Below this fraction of tau the direct (ang - rho^2)/rho^4 form loses
# digits, so lambda_k switches to Richardson extrapolation toward rho=0.
_LAMBDA_RHO_FRACTION = 1e-3


@dataclass(frozen=True)
class PolarMetric:
    """Diagonal Fermi metric at one event: ds^2 = g_tau_tau dtau^2
    + g_rho_rho drho^2 + ang dOmega^2."""

    g_tau_tau: float
    g_rho_rho: float
    ang: float


def s_k(k: int, chi: float) -> float:
    """Comoving area radius: chi for flat, sinh(chi) for open sections."""
    if k not in (0, -1):
        raise UnsupportedCurvatureError(
            f"curvature index must be 0 or -1, got {k}")
    if not math.isfinite(chi):
        raise DomainError(f"chi must be finite, got {chi}")
    if k == 0:
        return float(chi)
    try:
        return math.sinh(chi)
    except OverflowError:
        raise DomainError(f"sinh(chi) overflows at chi={chi:g}") from None


def _g_tau_tau_at(cosmo: Cosmology, tau: float, sigma: float,
                  cfg: NumericsConfig) -> float:
    """g_tau_tau = -(a'(tau) B)^2 on the tau slice at stretch sigma, with B
    the lapse bracket of geodesics.lapse_bracket."""
    adot = float(cosmo.model.a_dot(tau))
    return _no_overflow("g_tau_tau",
                        -((adot * lapse_bracket(cosmo, tau, sigma, cfg)) ** 2))


def g_tau_tau(cosmo: Cosmology, tau: float, rho: float,
              cfg: NumericsConfig | None = None) -> float:
    """Lapse component g_tau_tau at proper radius rho on the tau slice."""
    cfg = cfg or DEFAULT_CONFIG
    sigma = sigma_of_rho(cosmo, tau, rho, cfg)
    return _g_tau_tau_at(cosmo, tau, sigma, cfg)


def _ang(cosmo: Cosmology, tau: float, sigma: float,
         cfg: NumericsConfig) -> float:
    """a(tau)^2 S_k(chi)^2 / sigma on the tau slice at stretch sigma."""
    if sigma == 1.0:
        return 0.0
    chi = chi_of_sigma(cosmo, tau, sigma, cfg)
    a0 = float(cosmo.model.a(tau))
    return _no_overflow("ang", a0 * a0 * s_k(cosmo.k, chi) ** 2 / sigma)


def metric_polar(cosmo: Cosmology, tau: float, rho: float,
                 cfg: NumericsConfig | None = None) -> PolarMetric:
    """All polar metric components at (tau, rho).

    ang = a(tau)^2 S_k(chi)^2 / sigma, the squared proper area radius of
    the 2-sphere through the event.
    """
    cfg = cfg or DEFAULT_CONFIG
    sigma = sigma_of_rho(cosmo, tau, rho, cfg)
    return PolarMetric(_g_tau_tau_at(cosmo, tau, sigma, cfg), 1.0,
                       _ang(cosmo, tau, sigma, cfg))


def _lambda_at(cosmo: Cosmology, tau: float, rho: float, sigma: float,
               cfg: NumericsConfig) -> float:
    """The direct form (ang/rho^2 - 1)/rho^2 at the event's stretch sigma,
    which never forms rho^4: that underflows for tau below about 1e-77."""
    r2 = rho * rho
    lam = (_ang(cosmo, tau, sigma, cfg) / r2 - 1.0) / r2 if r2 else math.inf
    if not math.isfinite(lam):
        raise DomainError(f"lambda_k is out of range at tau={tau:g}")
    return lam


def _lambda_near_zero(cosmo: Cosmology, tau: float,
                      cfg: NumericsConfig) -> float:
    """Richardson extrapolation of the direct form to rho = 0 from
    rho_eps = _LAMBDA_RHO_FRACTION * tau and 2 rho_eps."""
    lam1, lam2 = (_lambda_at(cosmo, tau, r, sigma_of_rho(cosmo, tau, r, cfg),
                             cfg)
                  for r in (_LAMBDA_RHO_FRACTION * tau,
                            2.0 * _LAMBDA_RHO_FRACTION * tau))
    return (4.0 * lam1 - lam2) / 3.0


def lambda_k(cosmo: Cosmology, tau: float, rho: float,
             cfg: NumericsConfig | None = None) -> float:
    """Anisotropy coefficient lambda = (ang - rho^2) / rho^4.

    Finite as rho -> 0; small radii (below 1e-3 tau) are handled by
    Richardson extrapolation of the direct form, which is what makes the
    Cartesian metric smooth through the origin.
    """
    cfg = cfg or DEFAULT_CONFIG
    tau = _check_time(tau)
    if _finite("rho", rho, nonnegative=True) > _LAMBDA_RHO_FRACTION * tau:
        return _lambda_at(cosmo, tau, rho, sigma_of_rho(cosmo, tau, rho, cfg),
                          cfg)
    return _lambda_near_zero(cosmo, tau, cfg)


def metric_cartesian(cosmo: Cosmology, tau: float, x: float, y: float,
                     z: float, cfg: NumericsConfig | None = None
                     ) -> np.ndarray:
    """Full 4x4 metric in Fermi Cartesian coordinates (tau, x, y, z).

    g_00 = g_tau_tau, g_0i = 0, and
    g_ij = delta_ij + lambda (rho^2 delta_ij - x_i x_j), so the spatial
    block is delta_ij along the radial direction and (ang/rho^2) delta_ij
    transversally.  One sigma_of_rho serves the lapse and lambda, except
    where lambda takes its Richardson form near the origin.
    """
    cfg = cfg or DEFAULT_CONFIG
    xs = np.array([x, y, z], dtype=float)
    rho = float(np.sqrt(xs @ xs))
    sigma = sigma_of_rho(cosmo, tau, rho, cfg)
    g = np.diag([-1.0, 1.0, 1.0, 1.0])
    g[0, 0] = _g_tau_tau_at(cosmo, tau, sigma, cfg)
    if rho > 0.0:
        lam = (_lambda_at(cosmo, tau, rho, sigma, cfg)
               if rho > _LAMBDA_RHO_FRACTION * tau
               else _lambda_near_zero(cosmo, tau, cfg))
        g[1:, 1:] += lam * (rho * rho * np.eye(3) - np.outer(xs, xs))
    return g
