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

from .cosmology import Cosmology, _check_time
from .errors import (DomainError, UnsupportedCurvatureError, _finite,
                     _no_overflow)
from .geodesics import _u_of, store
from .numerics import NumericsConfig

__all__ = [
    "PolarMetric",
    "s_k",
    "g_tau_tau",
    "metric_polar",
    "lambda_k",
    "metric_cartesian",
]

# Switch radius of lambda, times sqrt of its curvature scale (see _lambda).
_LAMBDA_SWITCH = 2.5e-3


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


def _g_tau_tau_at(cosmo: Cosmology, tau: float, u: float,
                  cfg: NumericsConfig | None) -> float:
    """g_tau_tau = -(a'(tau) B)^2 on the tau slice at u = sqrt(sigma - 1),
    with B the lapse bracket of geodesics.lapse_bracket."""
    adot = float(cosmo.model.a_dot(tau))
    return _no_overflow("g_tau_tau",
                        -((adot * store(cosmo, tau, cfg).lapse(u)) ** 2))


def g_tau_tau(cosmo: Cosmology, tau: float, rho: float,
              cfg: NumericsConfig | None = None) -> float:
    """Lapse component g_tau_tau at proper radius rho on the tau slice."""
    return _g_tau_tau_at(cosmo, tau, _u_of(cosmo, tau, "rho", rho, cfg), cfg)


def _ang(cosmo: Cosmology, tau: float, u: float,
         cfg: NumericsConfig | None) -> float:
    """a(tau)^2 S_k(chi)^2 / sigma on the tau slice at u = sqrt(sigma - 1)."""
    st = store(cosmo, tau, cfg)
    return _no_overflow("ang", st.a0 * st.a0 * s_k(cosmo.k, st.chi(u)) ** 2
                        / (1.0 + u * u))


def metric_polar(cosmo: Cosmology, tau: float, rho: float,
                 cfg: NumericsConfig | None = None) -> PolarMetric:
    """All polar metric components at (tau, rho).

    ang = a(tau)^2 S_k(chi)^2 / sigma, the squared proper area radius of
    the 2-sphere through the event.
    """
    u = _u_of(cosmo, tau, "rho", rho, cfg)
    return PolarMetric(_g_tau_tau_at(cosmo, tau, u, cfg), 1.0,
                       _ang(cosmo, tau, u, cfg))


def _lambda(cosmo: Cosmology, tau: float, rho: float,
            cfg: NumericsConfig | None, u: float | None = None) -> float:
    """lambda at rho; u = sqrt(sigma - 1) at rho, computed if not given
    and needed.  Within the switch, the limit -C/3, C = H^2 + k/a^2, of
    g_ij = delta_ij - (1/3) R_ikjl x^k x^l (Manasse & Misner 1963);
    beyond it (ang/rho^2 - 1)/rho^2 (noise ~ 1/rho^2).  lambda's rho^2 term
    is (2/45) C^2 + (1/5) H^2 (a''/a - C) (fitted to 4 digits on power laws
    and de Sitter), so the switch scale is max(|C|, H sqrt|a''/a - C|)."""
    a0, adot = float(cosmo.model.a(tau)), float(cosmo.model.a_dot(tau))
    h, r2 = adot / a0, rho * rho
    curv = _no_overflow("H^2 + k/a^2", h * h + cosmo.k / a0 / a0)
    # a''/a - C, with a''/a = -b''(a) a'^3 / a as b inverts a.
    drift = _no_overflow("a''/a", -float(cosmo.model.b_ddot(a0)) * a0
                         * adot * h * h - curv)
    if r2 * max(abs(curv), h * math.sqrt(abs(drift))) <= _LAMBDA_SWITCH ** 2:
        return -curv / 3.0
    if u is None:
        u = _u_of(cosmo, tau, "rho", rho, cfg)
    lam = (_ang(cosmo, tau, u, cfg) / r2 - 1.0) / r2
    if not math.isfinite(lam):
        raise DomainError(f"lambda_k is out of range at tau={tau:g}")
    return lam


def lambda_k(cosmo: Cosmology, tau: float, rho: float,
             cfg: NumericsConfig | None = None) -> float:
    """Anisotropy coefficient lambda = (ang - rho^2) / rho^4.

    Near the observer it is its exact limit there, -(H^2 + k/a^2)/3,
    which is 0 at every rho on Milne; farther out the direct form.
    """
    return _lambda(cosmo, _check_time(tau),
                   _finite("rho", rho, nonnegative=True), cfg)


def metric_cartesian(cosmo: Cosmology, tau: float, x: float, y: float,
                     z: float, cfg: NumericsConfig | None = None
                     ) -> np.ndarray:
    """Full 4x4 metric in Fermi Cartesian coordinates (tau, x, y, z).

    g_00 = g_tau_tau, g_0i = 0, and
    g_ij = delta_ij + lambda (rho^2 delta_ij - x_i x_j), so the spatial
    block is delta_ij along the radial direction and (ang/rho^2) delta_ij
    transversally.  One inversion of rho serves the lapse and lambda, which
    is its curvature limit near the origin (see lambda_k).
    """
    xs = np.array([x, y, z], dtype=float)
    rho = math.hypot(x, y, z)
    u = _u_of(cosmo, tau, "rho", rho, cfg)
    g = np.diag([-1.0, 1.0, 1.0, 1.0])
    g[0, 0] = _g_tau_tau_at(cosmo, tau, u, cfg)
    if rho > 0.0:
        g[1:, 1:] += _lambda(cosmo, tau, rho, cfg, u) * (
            rho * rho * np.eye(3) - np.outer(xs, xs))
    return g
