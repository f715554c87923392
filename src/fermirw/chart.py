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

from .cosmology import Cosmology, _check_time
from .errors import (AccuracyError, DomainError, FermiRWError,
                     OutOfChartError, _finite, _no_overflow)
from .geodesics import (_GROWTH_CAP, _RHO, _SIGMA_NEAR_ONE, _check_slice,
                        chi_of_sigma, lapse_bracket, rho_of_sigma,
                        slice_integral, store, t_of_sigma)
from .kinematics import proper_radius
from .numerics import _EPS, DEFAULT_CONFIG, NumericsConfig

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
    radius.  The radius, which builds the radial track out to the slice
    end, is computed only when rho lies beyond the radial pieces already
    built: a rho below their running total lies inside the slice, and
    its inversion reads built pieces alone.  So an inversion after a
    rho_of_sigma read on the same slice, as rw_from_fermi's after
    fermi_from_rw, builds no tail, while one that must integrate builds
    the whole track at once.
    """
    cfg = cfg or DEFAULT_CONFIG
    tau = _check_time(tau)
    if _finite("rho", rho, nonnegative=True) == 0.0:
        return 1.0
    st = store(cosmo, tau, cfg)
    scale, built = 0.5 * st.a0, st.tracks[True].cums
    if not (built and rho < scale * float(built[-1][_RHO][-1])):
        rho_max = proper_radius(cosmo, tau, cfg)
        if rho >= rho_max:
            raise OutOfChartError(
                f"rho={rho:g} is not inside the tau={tau:g} slice; "
                f"the slice proper radius is rho_M={rho_max:.12g}",
                rho_max=rho_max)
    return st.invert(_RHO, rho, scale, radial=True)


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


def fermi_from_rw(cosmo: Cosmology, event: RWEvent,
                  cfg: NumericsConfig | None = None) -> FermiEvent:
    """Map a Robertson-Walker event into the observer's Fermi chart.

    Searches at fixed t in u = sqrt(sigma - 1), sigma = (a(tau)/a(t))^2,
    tau = b(a(t) sqrt(1 + u^2)), for the slice whose geodesic reaches chi,
    unique as chi grows with u.  It starts from the Hubble law
    w = a(t) H(t) chi: u = w/sqrt(1 - w^2) (exact on de Sitter) for
    w < 0.9, else u = w.  One Newton step, with dchi/du = B/sqrt(sigma)
    from the lapse bracket B, precedes secant steps; a step out of the
    bracket in u falls back to regula falsi.  While there is no upper
    end, u doubles in place of a step that would climb slowly.  It stops
    when a step moves tau by at most root_tol/2 * tau, relative at every
    scale; once the ratio of successive steps shrinks below 1, when the
    next step predicted from it, this one times that ratio, would; or
    when |chi - chi1| reaches chi's rounding floor, 2 eps chi1.
    Iterates integrate chi directly; only the returned tau builds a slice
    store.

    Events beyond a bounded chart raise OutOfChartError; on a global
    chart, chi that stalls or a slice time that overflows AccuracyError.
    For w^2 <= 1e-10, u = w and rho = a(tau) b'(a(tau)) w, to O(w^2).
    Near the observer rho keeps absolute accuracy near root_tol; its
    relative error may grow like root_tol/chi^2.
    """
    cfg = cfg or DEFAULT_CONFIG
    t1 = _finite("t", event.t)
    chi1 = _finite("chi", event.chi, nonnegative=True)
    if chi1 == 0.0:
        return FermiEvent(t1, 0.0, event.theta, event.phi)
    m = cosmo.model
    a1 = float(m.a(t1))
    bd1 = float(m.b_dot(a1))
    if not (a1 > 0.0 and bd1 > 0.0):
        raise DomainError(f"the model is not expanding at t={t1:g}: "
                          f"a={a1:g}, b'(a)={bd1:g}")
    w = chi1 / bd1

    def beyond(what: str) -> FermiRWError:
        kind = AccuracyError if m.global_chart else OutOfChartError
        return kind(f"event (t={t1:g}, chi={chi1:g}) not reached: {what}")

    def tau_of(u: float) -> float:
        try:
            tau = float(m.b(a1 * math.sqrt(1.0 + u * u)))
        except OverflowError:
            tau = math.inf
        if not math.isfinite(tau):
            raise beyond(f"the slice time overflows at u={u:g}")
        return tau

    if w * w <= _SIGMA_NEAR_ONE:
        tau = max(t1, tau_of(w))
        a0 = float(m.a(tau))
        return FermiEvent(tau, a0 * float(m.b_dot(a0)) * w, event.theta,
                          event.phi)

    def residual(u: float, tau: float) -> tuple[float, float, float, float]:
        """tau, sigma and a(tau) of the slice at u, tau = tau_of(u), and
        its chi - chi1."""
        sigma = 1.0 + u * u
        try:
            tau, sigma = _check_slice(cosmo, tau, sigma)
            a0 = a1 * math.sqrt(sigma)
            return tau, sigma, a0, 0.5 * slice_integral(
                cosmo, tau, sigma, 1, 0.5, cfg, a0) - chi1
        except DomainError:
            # A slice too late to evaluate (sigma_infinity overflows).
            if m.global_chart:
                raise
            raise beyond(f"the tau={tau:g} slice is out of range before "
                         f"chi reaches it") from None

    u = w / math.sqrt(1.0 - w * w) if w < 0.9 else w
    tau, sigma, a0, f = residual(u, tau_of(u))
    slope = (bd1 + 0.5 * a1 * u * slice_integral(
        cosmo, tau, sigma, 2, 1.0, cfg, a0)) / math.sqrt(sigma)
    lo, f_lo, hi, f_hi, prev_f = 0.0, -chi1, None, None, None
    steps = doublings = stalls = 0
    doubled = False
    prev_step = prev_ratio = None
    # Below 2 eps chi1 the residual's sign is rounding noise.
    while abs(f) > 2.0 * _EPS * chi1:
        if f < 0.0:
            lo, f_lo = u, f
        else:
            hi, f_hi = u, f
        # chi grows with u: a slope that is not positive gives no step.
        x = u - f / slope if slope > 0.0 else math.nan
        # With no upper end, u doubles when the step does not grow it, or
        # grows it less after a doubling or after a step that cut
        # |chi - chi1| by less than 4x: secant steps climb a saturating
        # chi slowly.  Doublings count toward _GROWTH_CAP, other steps
        # toward cfg.max_iter.
        weak = doubled or (prev_f is not None and f < 0.25 * prev_f)
        doubled = hi is None and (not x > u or (weak and x < 2.0 * u))
        step = None
        if doubled:
            x, doublings = 2.0 * u, doublings + 1
            if doublings > _GROWTH_CAP:
                raise beyond(f"u growth cap {_GROWTH_CAP} reached")
        else:
            steps += 1
            if steps > cfg.max_iter:
                raise AccuracyError(
                    f"slice search iteration cap {cfg.max_iter} reached "
                    f"for chi={chi1:g}", estimate=tau)
            if hi is not None and not lo < x < hi:
                x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
                if not lo < x < hi:
                    x = 0.5 * (lo + hi)
            else:
                step = x - u
        tau_x = tau_of(x)
        # Once the ratio of successive steps falls below 1 and below the
        # one before it, the iteration converges superlinearly, and the
        # next step, about this one times that ratio, bounds what one more
        # integral could still move tau.
        ratio = None if step is None or prev_step is None else abs(
            step / prev_step)
        move = abs(tau_x - tau)
        if ratio is not None and prev_ratio is not None and \
                ratio < min(1.0, prev_ratio):
            move *= ratio
        if move <= 0.5 * cfg.root_tol * tau_x:
            u, tau = x, tau_x
            break
        prev_step, prev_ratio = step, ratio
        prev_u, prev_f, u = u, f, x
        tau, sigma, a0, f = residual(u, tau_x)
        slope = (f - prev_f) / (u - prev_u)
        # Stalls: u at least doubled and chi barely moved.
        if hi is not None or f >= 0.0 or u < 2.0 * prev_u or \
                f - prev_f > 1e-12 * max(1.0, chi1):
            stalls = 0
        else:
            stalls += 1
            if stalls == 2:
                raise beyond(f"reachable chi saturates near {f + chi1:g}")
    return FermiEvent(tau, rho_of_sigma(cosmo, tau, 1.0 + u * u, cfg),
                      event.theta, event.phi)


def jacobian_F(cosmo: Cosmology, tau: float, sigma: float,
               cfg: NumericsConfig | None = None) -> float:
    """Jacobian determinant of (tau, sigma) -> (t, chi) along the slice.

    J = a'(tau) b'(a/sqrt(sigma)) B / (2 sigma sqrt(sigma-1)) with B the
    lapse bracket of geodesics.lapse_bracket.  Positive whenever b is
    convex, which is what makes the chart global.
    """
    tau, sigma = _check_slice(cosmo, tau, sigma, allow_equal_one=False)
    m = cosmo.model
    bd = float(m.b_dot(float(m.a(tau)) / math.sqrt(sigma)))
    return _no_overflow("the Jacobian", (
        float(m.a_dot(tau)) * bd * lapse_bracket(cosmo, tau, sigma, cfg)
        / (2.0 * sigma * math.sqrt(sigma - 1.0))))


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
