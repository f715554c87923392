"""Coordinate transforms between Robertson-Walker and Fermi charts.

An event is either (t, chi, theta, phi) in the comoving chart or
(tau, rho, theta, phi) in the observer's Fermi chart; angles pass through
unchanged.  Forward (Fermi to RW) evaluation composes sigma_of_rho with
the geodesic maps; the inverse solves for the unique slice time tau
whose geodesic reaches the requested comoving radius, in u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cosmology import Cosmology, _check_time
from .errors import (AccuracyError, DomainError, FermiRWError,
                     OutOfChartError, _finite, _no_overflow)
from .geodesics import (_check_slice, _u_of, chi_of_sigma, store,
                        t_of_sigma)
from .numerics import _EPS, _NODES, _WK, DEFAULT_CONFIG, NumericsConfig

__all__ = [
    "RWEvent",
    "FermiEvent",
    "sigma_of_rho",
    "rw_from_fermi",
    "fermi_from_rw",
    "jacobian_F",
    "comoving_flow_fermi",
]

# Panel edges 0, 1, 2, 4, ..., 1024 of the osculating power law's
# integral: sech y's poles lie on the imaginary axis, 3 half-widths off
# the center of each panel [2^k, 2^(k+1)] along the real axis, so one
# G7/K15 panel resolves each.
_W_EDGES = np.array([0.0] + [2.0 ** k for k in range(11)])
# The G7/K15 nodes mapped onto [0, 1].
_UNIT_NODES = 0.5 * (1.0 + _NODES)
# X below asinh of the largest float, 710.48: no start is taken above.
_X_MAX = 710.0
# Below it W_q(X) = X (1 + q X^2/3 + ...) = w to rounding, so u = w.
_W_TINY = 1e-150
# Up to it (a = t^p down to p = 1e-6) W_q's integrand neither overflows
# nor underflows at every node.
_Q_MAX = 1e6
# Most Newton, secant or bisection steps of one slice search, besides
# its doublings of u.
_STEP_CAP = 500
# Most doublings of u in one slice search while it has no upper end.
_GROWTH_CAP = 60
# Most Newton steps on a that place one iterate's slice.
_SLICE_STEP_CAP = 10

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
        rho = math.hypot(x, y, z)
        if not math.isfinite(rho):
            raise DomainError(f"(x, y, z) = ({x}, {y}, {z}) has no finite "
                              f"radius")
        theta = math.acos(z / rho) if rho > 0.0 else 0.0
        phi = math.atan2(y, x) % (2.0 * math.pi)
        return cls(tau, rho, theta, phi)


def _check_angles(event: RWEvent | FermiEvent) -> None:
    if not (math.isfinite(event.theta) and math.isfinite(event.phi)):
        raise DomainError(f"angles must be finite, got theta={event.theta}, "
                          f"phi={event.phi}")


def sigma_of_rho(cosmo: Cosmology, tau: float, rho: float,
                 cfg: NumericsConfig | None = None) -> float:
    """Invert the proper-distance map: sigma with rho_of_sigma = rho.

    geodesics.Slice.invert solves it, and raises OutOfChartError carrying
    the slice radius for rho at or beyond it (see geodesics.Slice).
    """
    u = _u_of(cosmo, tau, "rho", rho, cfg)
    return 1.0 + u * u


def rw_from_fermi(cosmo: Cosmology, event: FermiEvent,
                  cfg: NumericsConfig | None = None) -> RWEvent:
    """Map a Fermi-chart event to Robertson-Walker coordinates.

    t and chi are read at sigma_of_rho's sigma, so chi loses digits where
    sigma - 1 = u^2 rounds (chi = 0 at rho = 1e-9 on Milne).
    """
    _check_angles(event)
    if event.rho == 0.0:
        return RWEvent(_check_time(event.tau), 0.0, event.theta, event.phi)
    sigma = sigma_of_rho(cosmo, event.tau, event.rho, cfg)
    return RWEvent(t_of_sigma(cosmo, event.tau, sigma),
                   chi_of_sigma(cosmo, event.tau, sigma, cfg),
                   event.theta, event.phi)


def _log_w(q: float, x: float) -> tuple[float, float]:
    """log W_q(x) and its x-derivative W_q'/W_q = 1/W_q + q tanh x, with
    W_q(x) = int_0^x (cosh x / cosh y)^q dy.

    The integrand is sech(y)^q for q >= 0 and (cosh y / cosh x)^-q for
    q < 0, at most 1, so it never overflows; one G7/K15 panel on each of
    [0, 1], [1, 2], [2, 4], ... up to x.  This fixed-panel Kronrod sum is
    its own, not numerics._panels: a benchmark scattered event makes 1.97
    calls, at 11 us a call against 23 us for _panels on the same panels
    alone, and routed through _panels the workload's in-process p50 went
    from 390-411 to 459-477 us (shared 2-core host).
    """
    e = np.minimum(_W_EDGES[:max(math.frexp(x)[1], 0) + 2], x)
    width = e[1:] - e[:-1]
    c = np.cosh(e[:-1, None] + width[:, None] * _UNIT_NODES)
    scale = math.cosh(x) if q < 0.0 else 1.0
    log_cosh = x + math.log1p(math.exp(-2.0 * x)) - math.log(2.0)
    lw = max(q, 0.0) * log_cosh + math.log(
        0.5 * float(width @ ((c / scale) ** -q @ _WK)))
    return lw, math.exp(-lw) + q * math.tanh(x)


def _power_law_root(w: float, q: float) -> float:
    """u = sinh X at the root of W_q(X) = w, or w where that root is not
    a finite float, |q| > _Q_MAX or w < _W_TINY.

    W_q is chi/b'(a(t)) on the model with constant deceleration
    q = a b''(a)/b'(a) (a = t^(1/(1 + q)), or e^(H t) at q = -1):
    cosh(X)^q int_0^X sech^q.  It increases with X, without bound for
    q >= 0 and up to sup W_q = -1/q for -1 <= q < 0; for q < -1 it passes
    -1/q and peaks at the chart edge, where dW_q/dX = 1 + q W_q tanh X
    = 0, and the start takes the root below the edge for w < -1/q.
    Halley's method on log W_q - log w starts at the q = 0 root X = w
    (W_q(X) >= X for q >= 0) or at atanh(-q w)/(-q), the q = -1 root.
    """
    if not (abs(q) <= _Q_MAX and _W_TINY <= w < math.inf) or -q * w >= 1.0:
        return w
    x = min(math.atanh(-q * w) / -q if q < 0.0 else w, _X_MAX)
    # Power laws take 1 to 4 evaluations; the cap bounds edge cases near
    # sup W_q, where a start short of the root is still a start.
    for _ in range(10):
        lw, slope = _log_w(q, x)
        f = lw - math.log(w)
        if f < 0.0 and x == _X_MAX:
            return w
        # |f| within the rounding of log W_q, whose integrand's exponent
        # q (log cosh x - log cosh y) carries about eps |q| x: a step would
        # move x by noise.
        if abs(f) <= 4.0 * _EPS * (1.0 + abs(q) * x):
            break
        if slope > 0.0:
            t = math.tanh(x)
            # (log W_q)'' = q ((log W_q)' tanh x + sech^2 x) - (log W_q)'^2.
            curv = q * (slope * t + 1.0 - t * t) - slope * slope
            newton = f / slope
            step = newton / max(0.5, 1.0 - 0.5 * newton * curv / slope)
        else:
            # Past the chart edge, where W_q peaks for q < -1, or where
            # the slope's two terms cancel near sup W_q: back off.
            step = 0.5 * x
        x = min(x - step, _X_MAX) if step < x else 0.5 * x
        # Halley's error is cubic in the step.
        if abs(step) <= 1e-5 * x:
            break
    return math.sinh(x)


def _search_pass(cosmo: Cosmology, tau: float, u: float,
                 cfg: NumericsConfig) -> tuple[float, float]:
    """chi and the lapse bracket B at u, read from the tau slice's store
    (Slice.chi and Slice.lapse): one pass of fermi_from_rw's search."""
    st = store(cosmo, tau, cfg)
    return st.chi(u), st.lapse(u)


def fermi_from_rw(cosmo: Cosmology, event: RWEvent,
                  cfg: NumericsConfig | None = None) -> FermiEvent:
    """Map a Robertson-Walker event into the observer's Fermi chart.

    Searches at fixed t in u = sqrt(sigma - 1), sigma = (a(tau)/a(t))^2,
    for the slice whose geodesic reaches chi, unique as chi grows with u.
    The slice of iterate u is the tau with a(tau) = x = a(t) sqrt(1 + u^2):
    b(x), then Newton steps on a until a(tau) matches x to rounding, at
    most _SLICE_STEP_CAP, stopping where a is not finite or a' not
    positive.  On analytic models b inverts a, and the steps move tau by
    rounding at most; a table's a and b curves disagree, and the steps
    keep the slice the one whose a(tau) the slope below assumes.

    The search starts at the root of the power law that osculates the
    model at t, with its a, H and deceleration
    q = a b''(a)/b'(a): chi/b'(a(t)) = W_q(X), u = sinh X, solved for
    w = a(t) H(t) chi = chi/b'(a(t)) (_power_law_root).  That is the root
    on Milne, de Sitter, radiation and matter, and one order closer than
    the Hubble law elsewhere; where W_q does not reach w (q < 0 and
    w >= -1/q) or its root is not a finite float, u = w; b'(a(t))
    enters w and q alone.  Each step is a Newton step with the slope
    dchi/du = B/sqrt(sigma), B the store's lapse bracket on the iterate's
    slice (geodesics.Slice.lapse, the one copy of B): each pass reads
    chi and B at u (_search_pass), and the store sums chi and B's lapse
    integral on the same panels and resolves chi to quad_rel_tol
    relative to chi.
    While there is no upper end, u doubles in place of a step that would
    climb slowly and of a slope that is not positive, as where B cancels
    late on accelerating slices; once there is one, regula falsi
    replaces such a step and one out of the bracket.  When a step would
    move tau by at most quad_rel_tol/2 * tau, the accuracy of chi, the
    search stops at the slice it has read, whose store is built.  When
    Newton's error |f''|/(2 f') step^2 says the step after it would, with
    f'' from the last two slopes, both positive, once the step before
    kept within twice its own such bound, it takes the step and stops.
    It also stops when |chi - chi1| reaches a store read's rounding
    floor, 4 eps chi1.

    Near the observer rho, read at u, keeps its relative accuracy.
    Events beyond a bounded chart raise OutOfChartError; on a global
    chart, chi that stalls or a slice time that overflows AccuracyError.
    """
    cfg = cfg or DEFAULT_CONFIG
    _check_angles(event)
    t1 = _finite("t", event.t)
    chi1 = _finite("chi", event.chi, nonnegative=True)
    if chi1 == 0.0:
        return FermiEvent(t1, 0.0, event.theta, event.phi)
    m = cosmo.model
    a1 = _no_overflow(f"a(t={t1:g})", float(m.a(t1)))
    bd1 = float(m.b_dot(a1))
    if not (a1 > 0.0 and bd1 > 0.0):
        raise DomainError(f"the model is not expanding at t={t1:g}: "
                          f"a={a1:g}, b'(a)={bd1:g}")
    w = chi1 / bd1

    def beyond(what: str) -> FermiRWError:
        kind = AccuracyError if m.global_chart else OutOfChartError
        return kind(f"event (t={t1:g}, chi={chi1:g}) not reached: {what}")

    def tau_of(u: float) -> float:
        x = a1 * math.sqrt(1.0 + u * u)
        try:
            tau = float(m.b(x))
        except OverflowError:
            tau = math.inf
        if not math.isfinite(tau):
            raise beyond(f"the slice time overflows at u={u:g}")
        # The slice is never earlier than t1, where b(a(t1)) may round.
        tau = max(t1, tau)
        for _ in range(_SLICE_STEP_CAP):
            a, a_dot = float(m.a(tau)), float(m.a_dot(tau))
            if not (math.isfinite(a) and a_dot > 0.0):
                break
            step = (a - x) / a_dot
            if abs(step) <= 2.0 * _EPS * tau:
                break
            tau = max(t1, tau - step)
        return tau

    def residual(u: float, tau: float) -> tuple[float, float]:
        """chi - chi1 at u on the tau slice, and dchi/du = B/sqrt(sigma),
        B the slice's lapse bracket."""
        try:
            chi, lapse = _search_pass(
                cosmo, _check_slice(cosmo, tau, 1.0 + u * u)[0], u, cfg)
        except DomainError:
            # A slice the search cannot read: _check_slice stops one whose
            # sigma_infinity overflows, and a read past the end of a table
            # slice, where a(tau) on the extrapolated end cubic makes
            # sigma_infinity too small ("sigma=7.3352 is not below
            # sigma_infinity=1.24491" on the 800-knot t^(2/3) table); the
            # store refuses a slice whose a(tau) is not positive.
            if m.global_chart:
                raise
            raise beyond(f"the tau={tau:g} slice is out of range before "
                         f"chi reaches it") from None
        return chi - chi1, lapse / math.sqrt(1.0 + u * u)

    # The root of the power law with the model's a, H and deceleration q
    # at t.  q is taken to 12 decimals, where Milne's, de Sitter's,
    # radiation's and matter's 0, -1, 1 and 1/2 are exact: an error in q
    # moves de Sitter's root by that error over 1 - w.
    try:
        q = round(a1 * float(m.b_ddot(a1)) / bd1, 12)
    except (OverflowError, ZeroDivisionError):
        q = math.nan
    u = _power_law_root(w, q)
    tau = tau_of(u)
    f, slope = residual(u, tau)
    lo, f_lo, hi, f_hi, prev_f = 0.0, -chi1, None, None, None
    steps = doublings = stalls = 0
    doubled = False
    curv = guess = None
    # Below 4 eps chi1, the rounding of a store read, the residual's sign
    # is noise.
    while abs(f) > 4.0 * _EPS * chi1:
        if f < 0.0:
            lo, f_lo = u, f
        else:
            hi, f_hi = u, f
        # chi grows with u: a slope that is not positive gives no step.
        x = u - f / slope if slope > 0.0 else math.nan
        # With no upper end, u doubles when the step does not grow it, or
        # grows it less after a doubling or after a step that cut
        # |chi - chi1| by less than 4x: Newton steps climb a saturating
        # chi slowly.  Doublings count toward _GROWTH_CAP, other steps
        # toward _STEP_CAP.
        weak = doubled or (prev_f is not None and f < 0.25 * prev_f)
        doubled = hi is None and (not x > u or (weak and x < 2.0 * u))
        step = None
        if doubled:
            x, doublings = 2.0 * u, doublings + 1
            if doublings > _GROWTH_CAP:
                raise beyond(f"u growth cap {_GROWTH_CAP} reached")
        else:
            steps += 1
            if steps > _STEP_CAP:
                raise AccuracyError(
                    f"slice search iteration cap {_STEP_CAP} reached "
                    f"for chi={chi1:g}", estimate=tau)
            if hi is not None and not lo < x < hi:
                x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
                if not lo < x < hi:
                    x = 0.5 * (lo + hi)
            else:
                step = x - u
        tau_x = tau_of(x)
        move, most = abs(tau_x - tau), 0.5 * cfg.quad_rel_tol * tau_x
        if move <= most:
            break
        # A Newton step leaves an error of about curv step^2, curv =
        # |f''|/(2 f') from the last two lapse slopes.  Once the step
        # before kept to its own such bound, this one's bounds the next.
        bound = guess
        guess = None if step is None or curv is None else curv * step * step
        if guess is not None and bound is not None and \
                abs(step) <= 2.0 * bound and move * curv * abs(step) <= most:
            u, tau = x, tau_x
            break
        prev_u, prev_f, prev_slope, u, tau = u, f, slope, x, tau_x
        f, slope = residual(u, tau)
        curv = (abs(slope - prev_slope) / (2.0 * slope * abs(u - prev_u))
                if slope > 0.0 and prev_slope > 0.0 else None)
        # Stalls: u at least doubled and chi barely moved.
        if hi is not None or f >= 0.0 or u < 2.0 * prev_u or \
                f - prev_f > 1e-12 * chi1:
            stalls = 0
        else:
            stalls += 1
            if stalls == 2:
                raise beyond(f"reachable chi saturates near {f + chi1:g}")
    return FermiEvent(tau, store(cosmo, tau, cfg).rho(u), event.theta,
                      event.phi)


def jacobian_F(cosmo: Cosmology, tau: float, sigma: float,
               cfg: NumericsConfig | None = None) -> float:
    """Jacobian determinant of (tau, sigma) -> (t, chi) along the slice.

    J = a'(tau) b'(a/sqrt(sigma)) B / (2 sigma sqrt(sigma-1)) with B the
    lapse bracket of geodesics.lapse_bracket.  Positive whenever b is
    convex, which is what makes the chart global.
    """
    tau, u = _check_slice(cosmo, tau, sigma, allow_equal_one=False)
    st = store(cosmo, tau, cfg)
    bd = float(cosmo.model.b_dot(st.a0 / math.sqrt(sigma)))
    return _no_overflow("the Jacobian", float(cosmo.model.a_dot(tau)) * bd
                        * st.lapse(u) / (2.0 * sigma * u))


def comoving_flow_fermi(cosmo: Cosmology, event: RWEvent,
                        cfg: NumericsConfig | None = None
                        ) -> tuple[float, float]:
    """(dtau/dt, drho/dt) of the comoving worldline through the event.

    At fixed chi, dtau/dt = (dchi/dsigma)/J = sqrt(sigma0)/(a'(tau) B),
    J of jacobian_F and B the lapse bracket; t is proper time and the
    metric diagonal with g_rho_rho = 1, so drho/dt = u = sqrt(sigma0 - 1).
    One fermi_from_rw finds tau, and u inverts chi on its store.  A lapse
    a'(tau) B that is not positive (lost to cancellation) raises
    AccuracyError.
    """
    tau = fermi_from_rw(cosmo, event, cfg).tau
    if event.chi == 0.0:
        return 1.0, 0.0
    u = _u_of(cosmo, tau, "chi0", event.chi, cfg)
    lapse = float(cosmo.model.a_dot(tau)) * store(cosmo, tau, cfg).lapse(u)
    if not lapse > 0.0:
        raise AccuracyError(f"the lapse a'(tau) B={lapse:g} at tau={tau:g}, "
                            f"u={u:g} is not positive")
    return _no_overflow("dtau/dt", math.sqrt(1.0 + u * u) / lapse), u
