"""Coordinate transforms between Robertson-Walker and Fermi charts.

An event is either (t, chi, theta, phi) in the comoving chart or
(tau, rho, theta, phi) in the observer's Fermi chart; angles pass through
unchanged.  Forward (Fermi to RW) evaluation composes sigma_of_rho with
the geodesic maps; the inverse solves for the unique slice time tau whose
geodesic reaches the requested comoving radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cosmology import Cosmology, _check_time, sigma_infinity
from .errors import AccuracyError, DomainError, OutOfChartError
from .geodesics import (_GROWTH_CAP, _RHO, _check_slice, chi_of_sigma,
                        lapse_bracket, rho_of_sigma, slice_integral, store,
                        t_of_sigma)
from .kinematics import proper_radius
from .numerics import DEFAULT_CONFIG, NumericsConfig, find_root_monotone

__all__ = [
    "RWEvent",
    "FermiEvent",
    "sigma_of_rho",
    "rw_from_fermi",
    "fermi_from_rw",
    "jacobian_F",
    "comoving_flow_fermi",
]

@dataclass(frozen=True)
class RWEvent:
    """Event in expanding Robertson-Walker coordinates."""

    t: float
    chi: float
    theta: float = 0.0
    phi: float = 0.0


@dataclass(frozen=True)
class FermiEvent:
    """Event in the comoving observer's Fermi chart."""

    tau: float
    rho: float
    theta: float = 0.0
    phi: float = 0.0

    def cartesian(self) -> tuple[float, float, float]:
        """Cartesian (x, y, z) with rho = sqrt(x^2 + y^2 + z^2)."""
        st = math.sin(self.theta)
        return (self.rho * st * math.cos(self.phi),
                self.rho * st * math.sin(self.phi),
                self.rho * math.cos(self.theta))

    @classmethod
    def from_cartesian(cls, tau: float, x: float, y: float,
                       z: float) -> "FermiEvent":
        rho = math.sqrt(x * x + y * y + z * z)
        theta = math.acos(z / rho) if rho > 0.0 else 0.0
        phi = math.atan2(y, x) % (2.0 * math.pi)
        return cls(tau, rho, theta, phi)


def sigma_of_rho(cosmo: Cosmology, tau: float, rho: float,
                 cfg: NumericsConfig | None = None) -> float:
    """Invert the proper-distance map: sigma with rho_of_sigma = rho.

    geodesics.Slice.invert solves it by Newton's method on the slice
    store's panel polynomials and one polish integral.  rho at or beyond
    the slice radius (proper_radius) raises OutOfChartError carrying that
    radius.
    """
    cfg = cfg or DEFAULT_CONFIG
    tau = _check_time(tau)
    if not (math.isfinite(rho) and rho >= 0.0):
        raise DomainError(f"rho must be nonnegative and finite, got {rho}")
    if rho == 0.0:
        return 1.0
    rho_max = proper_radius(cosmo, tau, cfg)
    if rho >= rho_max:
        raise OutOfChartError(
            f"rho={rho:g} is not inside the tau={tau:g} slice; "
            f"the slice proper radius is rho_M={rho_max:.12g}",
            rho_max=rho_max)
    st = store(cosmo, tau, cfg)
    return st.invert(_RHO, rho, 0.5 * st.a0, radial=True)


def rw_from_fermi(cosmo: Cosmology, event: FermiEvent,
                  cfg: NumericsConfig | None = None) -> RWEvent:
    """Map a Fermi-chart event to Robertson-Walker coordinates."""
    cfg = cfg or DEFAULT_CONFIG
    if event.rho == 0.0:
        return RWEvent(_check_time(event.tau), 0.0, event.theta, event.phi)
    sigma = sigma_of_rho(cosmo, event.tau, event.rho, cfg)
    return RWEvent(
        t_of_sigma(cosmo, event.tau, sigma),
        chi_of_sigma(cosmo, event.tau, sigma, cfg),
        event.theta, event.phi)


def _chi_of_tau(cosmo: Cosmology, tau: float, a_target: float,
                cfg: NumericsConfig) -> float:
    """chi reached on the tau slice at the comoving shell a(t) = a_target,
    integrated directly, so the search over tau builds no slice store."""
    ratio = float(cosmo.model.a(tau)) / a_target
    tau, sigma = _check_slice(cosmo, tau, ratio * ratio)
    return 0.5 * slice_integral(cosmo, tau, sigma, 1, 0.5, cfg,
                                ratio * a_target)


def fermi_from_rw(cosmo: Cosmology, event: RWEvent,
                  cfg: NumericsConfig | None = None) -> FermiEvent:
    """Map a Robertson-Walker event into the observer's Fermi chart.

    Finds the slice time tau at which the orthogonal geodesic reaches
    (t, chi); chi grows monotonically with tau, so the solution is unique
    when it exists.  Events beyond a bounded chart raise OutOfChartError.

    Very close to the observer (chi below ~1e-3) rho keeps absolute
    accuracy near cfg.root_tol but its relative error grows like
    root_tol/chi^2; the inverse map is genuinely ill conditioned there.
    """
    cfg = cfg or DEFAULT_CONFIG
    if not (math.isfinite(event.t) and event.t > 0.0):
        raise DomainError(f"t must be positive and finite, got {event.t}")
    if not (math.isfinite(event.chi) and event.chi >= 0.0):
        raise DomainError(f"chi must be nonnegative and finite, got {event.chi}")
    if event.chi == 0.0:
        return FermiEvent(float(event.t), 0.0, event.theta, event.phi)

    t1, chi1 = float(event.t), float(event.chi)
    a_target = float(cosmo.model.a(t1))

    def grown(tp: float) -> float:
        try:
            return _chi_of_tau(cosmo, tp, a_target, cfg)
        except DomainError:
            # A slice too late to evaluate (sigma_infinity overflows).
            if cosmo.model.global_chart:
                raise
            raise OutOfChartError(
                f"event (t={t1:g}, chi={chi1:g}) lies outside the "
                f"observer's Fermi chart; the tau={tp:g} slice is out of "
                f"range before chi reaches it") from None

    lo, hi = t1, 2.0 * t1
    prev = grown(hi)
    stalls = 0
    for _ in range(_GROWTH_CAP):
        if prev >= chi1:
            break
        lo, hi = hi, 2.0 * hi
        cur = grown(hi)
        if cur - prev <= 1e-12 * max(1.0, chi1):
            stalls += 1
            if stalls >= 2:
                if not cosmo.model.global_chart:
                    raise OutOfChartError(
                        f"event (t={t1:g}, chi={chi1:g}) lies outside the "
                        f"observer's Fermi chart; reachable chi saturates "
                        f"near {cur:g}")
                raise AccuracyError(
                    f"chi growth stalled near {cur:g} below target {chi1:g}",
                    estimate=cur)
        else:
            stalls = 0
        prev = cur
    else:
        if not cosmo.model.global_chart:
            raise OutOfChartError(
                f"event (t={t1:g}, chi={chi1:g}) not reached within the "
                f"bracket growth cap; chart is not global")
        raise AccuracyError(
            f"tau bracket growth cap {_GROWTH_CAP} reached for chi={chi1:g}")

    tau = find_root_monotone(
        lambda tp: _chi_of_tau(cosmo, tp, a_target, cfg) - chi1, lo, hi, cfg)
    sigma = (float(cosmo.model.a(tau)) / a_target) ** 2
    rho = rho_of_sigma(cosmo, tau, max(sigma, 1.0), cfg)
    return FermiEvent(tau, rho, event.theta, event.phi)


def jacobian_F(cosmo: Cosmology, tau: float, sigma: float,
               cfg: NumericsConfig | None = None) -> float:
    """Jacobian determinant of (tau, sigma) -> (t, chi) along the slice.

    J = a'(tau) b'(a/sqrt(sigma)) B / (2 sigma sqrt(sigma-1)) with B the
    lapse bracket of geodesics.lapse_bracket.  Positive whenever b is
    convex, which is what makes the chart global.
    """
    if not sigma > 1.0:
        raise DomainError(f"sigma must exceed 1, got {sigma}")
    s_inf = sigma_infinity(cosmo, tau)
    if sigma >= s_inf:
        raise DomainError(
            f"sigma={sigma:g} is not below sigma_infinity={s_inf:g}")
    m = cosmo.model
    bd = float(m.b_dot(float(m.a(tau)) / math.sqrt(sigma)))
    return (float(m.a_dot(tau)) * bd * lapse_bracket(cosmo, tau, sigma, cfg)
            / (2.0 * sigma * math.sqrt(sigma - 1.0)))


def comoving_flow_fermi(cosmo: Cosmology, event: RWEvent,
                        cfg: NumericsConfig | None = None,
                        rel_step: float = 1e-5) -> tuple[float, float]:
    """(dtau/dt, drho/dt) of the comoving worldline through the event.

    Central finite differences of fermi_from_rw in t at fixed chi with
    step rel_step * t, 0 < rel_step < 1.  Step underflow raises
    AccuracyError.
    """
    cfg = cfg or DEFAULT_CONFIG
    if not 0.0 < rel_step < 1.0:
        raise DomainError(f"rel_step must lie in (0, 1), got {rel_step}")
    if event.chi == 0.0:
        return 1.0, 0.0
    h = rel_step * float(event.t)
    if h == 0.0 or event.t - h <= 0.0:
        raise AccuracyError(
            f"finite-difference step underflow at t={event.t:g}")
    plus = fermi_from_rw(cosmo, RWEvent(event.t + h, event.chi), cfg)
    minus = fermi_from_rw(cosmo, RWEvent(event.t - h, event.chi), cfg)
    return ((plus.tau - minus.tau) / (2.0 * h),
            (plus.rho - minus.rho) / (2.0 * h))
