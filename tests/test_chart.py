# The Fermi chart: coordinate transforms, Jacobian, comoving flow.

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermirw import chart, geodesics
from fermirw import closed_forms as cf
from fermirw import (
    AccuracyError,
    Cosmology,
    DomainError,
    FermiEvent,
    OutOfChartError,
    RWEvent,
    chi_of_sigma,
    comoving_flow_fermi,
    fermi_from_rw,
    jacobian_F,
    make_exponential,
    make_power_law,
    make_tabulated,
    rho_of_sigma,
    rw_from_fermi,
    sigma_of_rho,
    t_of_sigma,
)
from fermirw.numerics import DEFAULT_CONFIG

MILNE = Cosmology(make_power_law(1.0), k=-1, name="milne")
RADIATION = Cosmology(make_power_law(0.5), k=0, name="radiation")
MATTER = Cosmology(make_power_law(2.0 / 3.0), k=0, name="matter")
DESITTER = Cosmology(make_exponential(1.0), k=0, name="de-sitter")


# ---------------------------------------------------------------------------
# sigma_of_rho

def test_sigma_at_origin():
    assert sigma_of_rho(MATTER, 1.0, 0.0) == 1.0


def test_sigma_milne_closed_form():
    assert sigma_of_rho(MILNE, 2.0, math.sqrt(3.0)) == pytest.approx(
        4.0, rel=1e-10)
    for tau in (0.5, 2.0):
        for frac in (0.1, 0.5, 0.9, 0.99):
            rho = frac * tau
            got = sigma_of_rho(MILNE, tau, rho)
            assert got == pytest.approx(1.0 / (1.0 - frac ** 2), rel=1e-10)


def test_sigma_de_sitter():
    for tau in (1.0, 3.0):
        assert sigma_of_rho(DESITTER, tau, math.pi / 4.0) == pytest.approx(
            2.0, rel=1e-9)


def test_out_of_slice_reports_radius():
    with pytest.raises(OutOfChartError) as exc:
        sigma_of_rho(MILNE, 2.0, 2.5)
    assert exc.value.rho_max == pytest.approx(2.0, rel=1e-8)


def test_boundary_itself_is_out():
    with pytest.raises(OutOfChartError):
        sigma_of_rho(MILNE, 1.0, 1.0)


# ---------------------------------------------------------------------------
# rw_from_fermi

def test_rw_at_foot_point():
    ev = rw_from_fermi(MATTER, FermiEvent(1.4, 0.0))
    assert ev.t == pytest.approx(1.4, rel=1e-12)
    assert ev.chi == 0.0


def test_rw_milne():
    ev = rw_from_fermi(MILNE, FermiEvent(2.0, math.sqrt(3.0)))
    assert ev.t == pytest.approx(1.0, rel=1e-9)
    assert ev.chi == pytest.approx(math.log(2.0 + math.sqrt(3.0)), rel=1e-9)


def test_rw_radiation():
    ev = rw_from_fermi(RADIATION, FermiEvent(1.0, 0.5 + math.pi / 4.0))
    assert ev.t == pytest.approx(0.5, rel=1e-9)
    assert ev.chi == pytest.approx(math.pi / 2.0, rel=1e-9)


def test_rw_angles_pass_through():
    ev = rw_from_fermi(MILNE, FermiEvent(2.0, 1.0, theta=0.4, phi=2.2))
    assert ev.theta == 0.4
    assert ev.phi == 2.2


# ---------------------------------------------------------------------------
# fermi_from_rw

def test_fermi_fixes_points_on_gamma():
    ev = fermi_from_rw(MATTER, RWEvent(0.8, 0.0))
    assert ev.tau == pytest.approx(0.8, rel=1e-12)
    assert ev.rho == 0.0


def test_fermi_milne():
    ev = fermi_from_rw(MILNE, RWEvent(1.0, math.log(2.0 + math.sqrt(3.0))))
    assert ev.tau == pytest.approx(2.0, rel=1e-9)
    assert ev.rho == pytest.approx(math.sqrt(3.0), rel=1e-9)


def test_matter_round_trip():
    f = fermi_from_rw(MATTER, RWEvent(1.0, 1.0))
    back = rw_from_fermi(MATTER, FermiEvent(f.tau, f.rho))
    assert back.t == pytest.approx(1.0, rel=1e-7)
    assert back.chi == pytest.approx(1.0, rel=1e-7)


def test_tau_never_below_t():
    for cosmo in (MILNE, RADIATION, MATTER):
        for t in (0.3, 1.0, 2.7):
            for chi in (0.0, 0.4, 1.1):
                assert fermi_from_rw(cosmo, RWEvent(t, chi)).tau >= t


@given(st.floats(min_value=0.2, max_value=5.0),
       st.floats(min_value=0.05, max_value=2.5))
@settings(max_examples=40, deadline=None)
def test_fermi_milne_closed_form(t, chi):
    ev = fermi_from_rw(MILNE, RWEvent(t, chi))
    assert ev.tau == pytest.approx(t * math.cosh(chi), rel=1e-9)
    assert ev.rho == pytest.approx(t * math.sinh(chi), rel=1e-9)


def test_fermi_near_gamma_absolute_accuracy():
    # Relative accuracy in rho deteriorates like root_tol/chi^2 close to
    # the observer (the inverse map is ill conditioned there), but the
    # absolute error stays near root_tol.
    for chi in (1e-4, 1e-3, 4e-3):
        ev = fermi_from_rw(MILNE, RWEvent(1.0, chi))
        assert ev.tau == pytest.approx(math.cosh(chi), rel=1e-11)
        assert ev.rho == pytest.approx(math.sinh(chi), abs=1e-9)


def test_de_sitter_inside_chart():
    # reach in chi for events at synchronous time t is e^(-h0 t)/h0
    f = fermi_from_rw(DESITTER, RWEvent(1.0, 0.3))
    back = rw_from_fermi(DESITTER, FermiEvent(f.tau, f.rho))
    assert back.t == pytest.approx(1.0, rel=1e-7)
    assert back.chi == pytest.approx(0.3, rel=1e-7)


def test_de_sitter_beyond_chart():
    with pytest.raises(OutOfChartError):
        fermi_from_rw(DESITTER, RWEvent(1.0, 0.5))


@pytest.mark.parametrize("t", [0.4, 1.0, 2.5])
def test_de_sitter_chart_edge(t):
    # The reach at time t is exp(-t): w = exp(t) chi = u/sqrt(1 + u^2), so
    # tau = t + log(1 + u^2)/2 and rho = arctan(u) = arcsin(w).  One
    # rounding of chi moves tau by about 5e-11 this close to the edge.
    w = 1.0 - 1e-6
    f = fermi_from_rw(DESITTER, RWEvent(t, w * math.exp(-t)))
    assert f.tau == pytest.approx(t - 0.5 * math.log1p(-w * w), abs=2e-10)
    assert f.rho == pytest.approx(math.asin(w), rel=1e-12)
    back = rw_from_fermi(DESITTER, f)
    assert back.t == pytest.approx(t, rel=1e-7)
    assert back.chi == pytest.approx(w * math.exp(-t), rel=1e-7)
    with pytest.raises(OutOfChartError):
        fermi_from_rw(DESITTER, RWEvent(t, (1.0 + 1e-6) * math.exp(-t)))


def test_fermi_milne_huge_time():
    # Slice integrals of order 1 here, at a(t) = 1e300.
    t, chi = 1e300, 0.1
    ev = fermi_from_rw(MILNE, RWEvent(t, chi))
    assert ev.tau == pytest.approx(t * math.cosh(chi), rel=1e-12)
    assert ev.rho == pytest.approx(t * math.sinh(chi), rel=1e-12)


@pytest.mark.parametrize("t", [1e-12, 1e-9])
def test_fermi_milne_tiny_time_is_relative(t):
    # The search stops on a relative change in tau at every scale: a
    # stopping rule absolute below tau = 1 took the first Newton step at
    # t = 1e-12 and left tau 3.7e-3 and rho 6.3e-3 relative too low.
    ev = fermi_from_rw(MILNE, RWEvent(t, 1.0))
    assert ev.tau == pytest.approx(t * math.cosh(1.0), rel=1e-10)
    assert ev.rho == pytest.approx(t * math.sinh(1.0), rel=1e-10)


@pytest.fixture
def passes(monkeypatch):
    """u = sqrt(sigma - 1) of each direct (chi, lapse) pass fermi_from_rw
    makes."""
    sigmas = []
    direct = chart._slice_integrals

    def counted(*args):
        sigmas.append(args[2])
        return direct(*args)

    monkeypatch.setattr(chart, "_slice_integrals", counted)
    return sigmas


def test_de_sitter_far_edge_starts_at_the_root(passes):
    # At 1 - w = 1e-10 the root u = 7.1e4 lies far above u = w; a start
    # there climbed a saturating chi(u) in 25 direct integrals.  A
    # bounded chart starts at u = w/sqrt(1 - w^2), de Sitter's root.
    t, w = 1.0, 1.0 - 1e-10
    f = fermi_from_rw(DESITTER, RWEvent(t, w * math.exp(-t)))
    # One rounding of chi moves tau by about 5e-7 and rho = arcsin(w) by
    # about 8e-12 this close to the edge.
    assert f.tau == pytest.approx(t - 0.5 * math.log1p(-w * w), abs=1e-5)
    assert f.rho == pytest.approx(math.asin(w), rel=1e-10)
    assert len(passes) <= 2     # 1 measured


def test_de_sitter_edge_stops_at_chi_rounding_floor(passes):
    # At 1 - w = 1e-12 (root u = 7.1e5) the residual at the start is
    # within chi's rounding floor, where its sign is noise: the search
    # stops there.  Iterating on until two iterates agreed took 38
    # direct integrals.
    t, w = 1.0, 1.0 - 1e-12
    f = fermi_from_rw(DESITTER, RWEvent(t, w * math.exp(-t)))
    # One rounding of chi moves tau by about 5e-5 and rho = arcsin(w) by
    # about 5e-11 relative this close to the edge.
    assert f.tau == pytest.approx(t - 0.5 * math.log1p(-w * w), abs=1e-3)
    assert f.rho == pytest.approx(math.asin(w), rel=1e-9)
    assert len(passes) <= 2     # 1 measured


@pytest.mark.parametrize("t", [0.5, 2.0])
@pytest.mark.parametrize("w", [0.9, 0.99, 1.0 - 1e-6])
def test_bounded_chart_starts_at_the_root(passes, t, w):
    # w = e^t chi >= 0.9 started at u = w and took 9 to 19 direct
    # integrals.
    f = fermi_from_rw(DESITTER, RWEvent(t, w * math.exp(-t)))
    assert f.tau == pytest.approx(t - 0.5 * math.log1p(-w * w), abs=2e-10)
    assert len(passes) == 1


@pytest.mark.parametrize("t", [10.0, 15.0, 20.0, 22.0, 25.0, 30.0])
@pytest.mark.parametrize("w", [0.5, 0.95, 0.999, 0.9999, 0.99999])
def test_late_de_sitter_search(passes, t, w):
    # chi = w e^-t lies far below quad_abs_tol = 1e-14 here.  With chi
    # resolved only to that absolute floor, and a stall rule absolute
    # below chi = 1, 9 of these 30 events raised OutOfChartError and 4
    # came back 8e-10 to 2.3e-6 off.
    f = fermi_from_rw(DESITTER, RWEvent(t, w * math.exp(-t)))
    tau = t - 0.5 * math.log1p(-w * w)
    assert f.tau == pytest.approx(tau, rel=1e-11)
    assert len(passes) <= 5


@pytest.mark.parametrize("name, most", [("milne", 8), ("radiation", 8),
                                        ("matter", 8)])
def test_search_stops_on_newtons_error_bound(passes, name, most):
    # Eight events on two slices.  The start is each power law's root, so
    # every event stops after its first pass (8 measured; from the Hubble
    # law 34, 24 and 26 passes with Newton's error bound, 36, 32 and 28
    # without it), and tau still lands within root_tol.  The bound is
    # covered on a table (test_table_events_take_no_more_passes).
    o = getattr(cf, name)()
    for tau in (0.7, 1.9):
        for sigma in (1.3, 3.0, 9.0, 15.0):
            ev = RWEvent(o.t(tau, sigma), o.chi(tau, sigma))
            assert fermi_from_rw(o.cosmology, ev).tau == pytest.approx(
                tau, rel=1e-12)
    assert len(passes) <= most


def _table(a_of_t, lo=0.05, hi=100.0, n=800):
    ts = np.geomspace(lo, hi, n)
    return Cosmology(make_tabulated(list(zip(ts, a_of_t(ts)))), k=0)


def test_far_milne_event_starts_at_the_root(passes):
    # Milne's root u = sinh(chi) is the start: from u = w = 10 the search
    # took 11 passes to u = 1.1e4, doubling on the way.
    t, chi = 1.0, 10.0
    f = fermi_from_rw(MILNE, RWEvent(t, chi))
    assert f.tau == pytest.approx(t * math.cosh(chi), rel=1e-13)
    assert f.rho == pytest.approx(t * math.sinh(chi), rel=1e-13)
    assert len(passes) == 1


def test_misleading_start_climbs_by_doubling(passes):
    # A table joining a = t^(1/2) (q = 1) to a = (t + 1)/2 (q = 0) at
    # t = 1.  At t = 0.5 the start is the radiation root, whose chi grows
    # like u; past the join the slice's chi grows only like log u, so the
    # root lies 15x above the start, and u doubles where a step would
    # grow it less after a doubling or a weak step.
    cosmo = _table(lambda t: np.where(t < 1.0, np.sqrt(t), 0.5 * (t + 1.0)),
                   lo=1e-3, hi=1e3, n=400)
    t, chi = 0.5, 10.0
    f = fermi_from_rw(cosmo, RWEvent(t, chi))
    sigma = (float(cosmo.model.a(f.tau)) / float(cosmo.model.a(t))) ** 2
    assert chi_of_sigma(cosmo, f.tau, sigma) == pytest.approx(chi, rel=1e-12)
    assert passes[-1] > 10.0 * passes[0]
    assert any(b == pytest.approx(2.0 * a, rel=1e-12)
               for a, b in zip(passes, passes[1:]))
    assert len(passes) <= 8     # 7 measured, 8 from the Hubble law


# ---------------------------------------------------------------------------
# fermi_from_rw's start: the root of the osculating power law

# w = chi/b'(a(t)) from 1e-300 to 1e2, seven per decade.
START_WS = np.geomspace(1e-300, 1e2, 2115)


def test_start_is_milne_root():
    # q = 0: W_0(X) = X, u = sinh(w).
    for w in START_WS:
        assert chart._power_law_root(w, 0.0) == pytest.approx(
            math.sinh(w), rel=1e-12)


def test_start_is_de_sitter_root():
    # q = -1: W_-1(X) = tanh X, u = w/sqrt(1 - w^2); w >= 1 is beyond the
    # chart, where the start falls back to u = w.
    for w in [*START_WS[START_WS < 0.9], 0.9, 0.99, 1.0 - 1e-6, 1.0 - 1e-12]:
        assert chart._power_law_root(w, -1.0) == pytest.approx(
            w / math.sqrt((1.0 - w) * (1.0 + w)), rel=1e-12)
    for w in (1.0, 1.5, 1e2):
        assert chart._power_law_root(w, -1.0) == w


def test_start_is_radiation_root():
    # q = 1: W_1(X) = cosh X gd X, sqrt(1 + u^2) atan(u) = w.  Its
    # logarithmic slope in u lies in [1, 2], so w's relative error bounds
    # u's.
    for w in START_WS:
        u = chart._power_law_root(w, 1.0)
        assert math.sqrt(1.0 + u * u) * math.atan(u) == pytest.approx(
            w, rel=1e-12)


def test_start_is_matter_root():
    # q = 1/2 at t = 1, where a = 1 and b'(a) = 3/2: chi = 3 w/2 on the
    # slice tau = b(sqrt(sigma)) = sigma^(3/4).  Below w = 1e-2 the closed
    # form's kconst - f1(1/s)/s^(1/4) cancels; there u = sinh X and W_q =
    # X + q X^3/3 + O(X^5) give u = w (1 + (1/6 - q/3) w^2 + O(w^4)), w to
    # rounding for q = 1/2.
    mat = cf.matter()
    for w in START_WS:
        u = chart._power_law_root(w, 0.5)
        if w < 1e-3:
            assert u == pytest.approx(w, rel=1e-12)
        elif w >= 1e-2:
            s = 1.0 + u * u
            assert mat.chi(s ** 0.75, s) == pytest.approx(1.5 * w, rel=1e-12)


@pytest.mark.parametrize("w, q", [
    (1e300, 0.5), (math.inf, 0.5), (5e-324, 1.0), (1e3, 0.0),
    (709.9, 0.0), (2.0, -0.5), (1.999, -0.5), (0.5, math.nan),
    (0.5, math.inf), (1e300, 1e6), (1e300, 1e300), (1e-150, -1e6),
    (1e2, 1e6), (1e300, 1e-6), (1e5, 1e-2)])
def test_start_near_overflow_is_finite_or_falls_back(w, q):
    # A root that is not a finite float (or lies above asinh of the
    # largest float), w past sup W_q = -1/q, a q that is not finite or
    # beyond 1e6: the start is u = w.  Otherwise u is finite and positive.
    # A RuntimeWarning fails the test.
    u = chart._power_law_root(w, q)
    assert u == w or 0.0 < u < math.inf


@pytest.mark.parametrize("w, q", [(0.66, -1.5), (0.4999, -2.0)])
def test_start_stays_below_the_chart_edge(w, q):
    # For q < -1, W_q rises past -1/q, peaks at the chart edge, where
    # dW_q/dX = 1 + q W_q tanh X = 0, and falls back toward -1/q; here the
    # first iterate, atanh(-q w)/(-q), lies past the peak.  The start
    # backs off to the root on the rising side.
    u = chart._power_law_root(w, q)
    lw, slope = chart._log_w(q, math.asinh(u))
    assert slope > 0.0
    assert lw == pytest.approx(math.log(w), abs=1e-14)


def test_fermi_overflow_edge_warns_not():
    # w = chi/b'(a(t)) overflows to inf at (t, chi) = (1e-300, 1e300) on
    # matter; the start falls back to u = w and the slice time overflows.
    with pytest.raises(AccuracyError, match="slice time overflows"):
        fermi_from_rw(MATTER, RWEvent(1e-300, 1e300))


def _grid_events(o):
    """(t, chi) of 16 events on four slices of a closed-form model: u up
    to sqrt(15), or to 80 % of a bounded slice's sigma range."""
    for tau in (0.5, 1.0, 2.0, 3.0):
        s_top = 16.0
        if o.family == "de-sitter":
            s_top = min(s_top, 1.0 + 0.8 * (math.exp(2.0 * tau) - 1.0))
        for frac in (0.05, 0.3, 0.6, 1.0):
            u = frac * math.sqrt(s_top - 1.0)
            yield o.t(tau, 1.0 + u * u), o.chi(tau, 1.0 + u * u)


@pytest.mark.parametrize("name", ["milne", "radiation", "matter",
                                  "de_sitter"])
def test_power_law_events_take_one_pass(passes, name):
    # Each model's start is its root: 16 passes for 16 events (from the
    # Hubble law 4.3 passes per event on Milne, 3.07 on radiation and
    # 3.35 on matter, 1 on de Sitter).
    o = cf.de_sitter(1.0) if name == "de_sitter" else getattr(cf, name)()
    events = list(_grid_events(o))
    for t, chi in events:
        fermi_from_rw(o.cosmology, RWEvent(t, chi))
    assert len(passes) <= 1.1 * len(events)


# a(t) of 800-knot tables: matter, radiation plus matter, and matter plus
# Lambda, whose deceleration falls from 1/2 toward -1.
TABLES = {
    "t^(2/3)": lambda t: t ** (2.0 / 3.0),
    "t^(1/2)+t^(2/3)": lambda t: t ** 0.5 + t ** (2.0 / 3.0),
    "sinh(1.05t)^(2/3)": lambda t: np.sinh(1.05 * t) ** (2.0 / 3.0),
}


@pytest.mark.parametrize("name, most", [("t^(2/3)", 36),
                                        ("t^(1/2)+t^(2/3)", 36),
                                        ("sinh(1.05t)^(2/3)", 49)])
def test_table_events_take_no_more_passes(passes, name, most):
    # Twelve events on three slices.  The start is not the root here: b''
    # of a table is O(h) accurate, and on the Lambda table q varies along
    # the slice.  most is the measured count, against 39, 36 and 60 from
    # the Hubble-law start; on the Lambda table Newton's error bound stops
    # 4 events a pass early (53 without it).  tau agrees with the table's
    # own slice maps to within its interpolation error.
    cosmo = _table(TABLES[name])
    for tau in (0.7, 1.9, 5.0):
        for sigma in (1.3, 3.0, 9.0, 15.0):
            ev = RWEvent(t_of_sigma(cosmo, tau, sigma),
                         chi_of_sigma(cosmo, tau, sigma))
            assert fermi_from_rw(cosmo, ev).tau == pytest.approx(tau,
                                                                 rel=1e-6)
    assert len(passes) <= most


# Accelerating tables, whose lapse bracket B cancels late on a slice: on
# the exp table at tau = 25 the lapse integral is -1.2e-23, and B falls
# to 1.7e-4 b'(a(t)) at sigma = 1e4.
LATE_TABLES = {
    "exp(t)": lambda: _table(np.exp, hi=60.0),
    "sinh(1.05t)^(2/3)": lambda: _table(TABLES["sinh(1.05t)^(2/3)"]),
}


def _search_u(cosmo, t, tau):
    """u where the search's slice time b(a(t) sqrt(1 + u^2)) reaches tau,
    and a(t) sqrt(1 + u^2), by bisection inside the table's a-range: its
    cubic extrapolation past the last knot is not monotone."""
    m = cosmo.model
    a1 = float(m.a(t))
    lo, hi = 0.0, math.sqrt((m.a_grid[-1] / a1) ** 2 - 1.0)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if float(m.b(a1 * math.sqrt(1.0 + mid * mid))) < tau:
            lo = mid
        else:
            hi = mid
    return lo, a1 * math.sqrt(1.0 + lo * lo)


@pytest.mark.parametrize("name, most", [("exp(t)", 96),
                                        ("sinh(1.05t)^(2/3)", 92)])
def test_late_accelerating_slices_solve_the_search_equation(passes, name,
                                                             most):
    # tau may differ from the event's slice by the table's a and b
    # interpolants' disagreement (1.5 % at sigma = 1e4), so each answer is
    # checked against the search's own equation: chi on the returned
    # slice, read at the u whose slice time is tau.  most is the measured
    # count.
    cosmo = LATE_TABLES[name]()
    for tau in (12.0, 25.0):
        for sigma in (1.001, 1.01, 1.1, 1.5, 3.0, 10.0, 100.0, 1e3, 1e4):
            chi = chi_of_sigma(cosmo, tau, sigma)
            ev = RWEvent(t_of_sigma(cosmo, tau, sigma), chi)
            tau_f = fermi_from_rw(cosmo, ev).tau
            u, a0 = _search_u(cosmo, ev.t, tau_f)
            cfg = replace(DEFAULT_CONFIG,
                          quad_abs_tol=DEFAULT_CONFIG.quad_rel_tol * chi)
            got = 0.5 * geodesics._slice_integrals(
                cosmo, tau_f, u, (geodesics._CHI,), cfg, a0)[0]
            assert got == pytest.approx(chi, rel=1e-11)
    assert len(passes) <= most


@pytest.mark.parametrize("t, chi", [(1e300, 20.0), (1e307, 100.0)])
def test_fermi_milne_slice_time_overflows(t, chi):
    # tau = t cosh(chi) is not a float (2.4e308 on the way, or at the
    # start u = 100): the search must not take tau = inf for converged
    # and blame the slice time as an input.
    with pytest.raises(AccuracyError, match="slice time overflows"):
        fermi_from_rw(MILNE, RWEvent(t, chi))


@pytest.mark.parametrize("t, chi", [(math.nan, 0.1), (math.inf, 0.1),
                                    (-1.0, 0.1), (1.0, math.nan),
                                    (1.0, math.inf), (1.0, -0.1)])
def test_fermi_bad_event_is_domain_error(t, chi):
    with pytest.raises(DomainError):
        fermi_from_rw(MATTER, RWEvent(t, chi))


@pytest.mark.parametrize("cosmo", [MILNE, RADIATION, MATTER, DESITTER],
                         ids=["milne", "radiation", "matter", "de-sitter"])
def test_fermi_leading_order_near_the_observer(cosmo):
    # w = a(t) H(t) chi = 1e-9 (e 1e-9 on de Sitter), where sigma - 1
    # rounds to 0.  Closed forms: Milne tau = t cosh chi,
    # rho = t sinh chi; de Sitter rho = arcsin(w); power laws
    # rho = a(t) chi (1 + O(w^2)).
    t, chi = 1.0, 1e-9
    ev = fermi_from_rw(cosmo, RWEvent(t, chi))
    a = float(cosmo.model.a(t))
    want = math.asin(a * chi) if cosmo is DESITTER else a * chi
    assert ev.rho == pytest.approx(want, rel=1e-12)
    assert ev.tau == pytest.approx(t, rel=1e-15)


@pytest.mark.parametrize("cosmo", [MILNE, DESITTER], ids=["milne", "de-sitter"])
@pytest.mark.parametrize("chi", [1e-300, 1e-12, 1e-9, 1e-6, 1e-3, 0.3])
def test_fermi_closed_forms_near_the_observer(cosmo, chi):
    # sigma - 1 = u^2 has lost its digits near the observer; the search
    # and the rho read carry u, so tau and rho keep rounding accuracy down
    # to 1e-300.  At t = 1: Milne tau = cosh chi, rho = sinh chi; de
    # Sitter, w = e chi, tau = 1 - log(1 - w^2)/2, rho = arcsin(w).
    ev = fermi_from_rw(cosmo, RWEvent(1.0, chi))
    w = math.e * chi
    tau, rho = ((math.cosh(chi), math.sinh(chi)) if cosmo is MILNE
                else (1.0 - 0.5 * math.log1p(-w * w), math.asin(w)))
    assert ev.tau == pytest.approx(tau, rel=1e-12)
    assert ev.rho == pytest.approx(rho, rel=1e-12, abs=0.0)


def test_fermi_leading_order_late_matter_event():
    # w = a H chi = 3.1e-9: tau rounds to t, but rho must not round to 0.
    t, chi = 1e10, 1e-5
    ev = fermi_from_rw(MATTER, RWEvent(t, chi))
    assert ev.rho == pytest.approx(t ** (2.0 / 3.0) * chi, rel=1e-12)
    assert ev.rho == pytest.approx(46.416, rel=1e-5)
    assert ev.tau == pytest.approx(t, rel=1e-15)


# ---------------------------------------------------------------------------
# jacobian_F

def test_jacobian_milne_value():
    # b_ddot = 0 kills the integral term: (adot/2 sigma) * 1 * 1/sqrt(s-1)
    assert jacobian_F(MILNE, 1.0, 2.0) == pytest.approx(0.25, rel=1e-10)


def test_jacobian_positive_on_grid():
    for cosmo in (MILNE, RADIATION, MATTER):
        for tau in (0.5, 1.0, 4.0):
            for sigma in (1.1, 2.0, 30.0):
                assert jacobian_F(cosmo, tau, sigma) > 0.0


def test_jacobian_matches_finite_difference():
    tau, sigma = 1.0, 4.0
    ht, hs = 1e-5, 4e-5
    t_tau = (t_of_sigma(RADIATION, tau + ht, sigma)
             - t_of_sigma(RADIATION, tau - ht, sigma)) / (2 * ht)
    t_sig = (t_of_sigma(RADIATION, tau, sigma + hs)
             - t_of_sigma(RADIATION, tau, sigma - hs)) / (2 * hs)
    c_tau = (chi_of_sigma(RADIATION, tau + ht, sigma)
             - chi_of_sigma(RADIATION, tau - ht, sigma)) / (2 * ht)
    c_sig = (chi_of_sigma(RADIATION, tau, sigma + hs)
             - chi_of_sigma(RADIATION, tau, sigma - hs)) / (2 * hs)
    det = t_tau * c_sig - t_sig * c_tau
    assert jacobian_F(RADIATION, tau, sigma) == pytest.approx(det, rel=1e-5)


# ---------------------------------------------------------------------------
# comoving_flow_fermi

def test_flow_on_gamma():
    dtau, drho = comoving_flow_fermi(MATTER, RWEvent(1.0, 0.0))
    assert dtau == pytest.approx(1.0, abs=1e-8)
    assert drho == pytest.approx(0.0, abs=1e-8)


def test_flow_milne():
    c = 0.8
    dtau, drho = comoving_flow_fermi(MILNE, RWEvent(1.0, c))
    assert dtau == pytest.approx(math.cosh(c), abs=1e-6)
    assert drho == pytest.approx(math.sinh(c), abs=1e-6)


def test_flow_milne_closed_form():
    # Milne is Minkowski space, where the comoving worldline at chi has
    # rapidity chi.
    for t, chi in ((0.5, 0.1), (1.0, 0.8), (3.0, 2.0)):
        dtau, drho = comoving_flow_fermi(MILNE, RWEvent(t, chi))
        assert dtau == pytest.approx(math.cosh(chi), rel=1e-13)
        assert drho == pytest.approx(math.sinh(chi), rel=1e-13)


@pytest.mark.parametrize("h0", [0.5, 1.0, 2.0])
def test_flow_de_sitter_closed_form(h0):
    # w = h0 e^(h0 t) chi: dtau/dt = 1/(1 - w^2), drho/dt = w/sqrt(1 - w^2).
    ds = Cosmology(make_exponential(h0), k=0, name="de-sitter")
    for t, w in ((0.5, 0.5), (1.0, 0.3), (2.0, 0.7), (3.0, 0.9)):
        chi = w / (h0 * math.exp(h0 * t))
        dtau, drho = comoving_flow_fermi(ds, RWEvent(t, chi))
        assert dtau == pytest.approx(1.0 / (1.0 - w * w), rel=1e-13)
        assert drho == pytest.approx(w / math.sqrt(1.0 - w * w), rel=1e-13)


@pytest.mark.parametrize("chi", [1e-6, 1e-9, 1e-12])
def test_flow_near_the_observer_keeps_its_digits(chi):
    # sqrt(sigma0 - 1) would round to 0 here; u = a(t) H(t) chi does not.
    dtau, drho = comoving_flow_fermi(MILNE, RWEvent(1.0, chi))
    assert dtau == pytest.approx(math.cosh(chi), rel=1e-13)
    assert drho == pytest.approx(math.sinh(chi), rel=1e-10)


def test_flow_makes_one_chart_search(monkeypatch):
    calls = []
    search = chart.fermi_from_rw

    def counting(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(chart, "fermi_from_rw", counting)
    comoving_flow_fermi(RADIATION, RWEvent(1.0, 0.5))
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# events

def test_cartesian_round_trip():
    ev = FermiEvent(1.0, 2.0, theta=1.1, phi=4.0)
    x, y, z = ev.cartesian()
    assert math.sqrt(x * x + y * y + z * z) == pytest.approx(2.0, rel=1e-14)
    back = FermiEvent.from_cartesian(1.0, x, y, z)
    assert back.rho == pytest.approx(2.0, rel=1e-14)
    assert back.theta == pytest.approx(1.1, rel=1e-12)
    assert back.phi == pytest.approx(4.0, rel=1e-12)


@pytest.mark.parametrize("x", [1e-200, 1e200])
def test_from_cartesian_radius_keeps_its_scale(x):
    # sqrt(x^2 + y^2 + z^2) returned rho = 0 at x = 1e-200 and inf at
    # 1e200.
    ev = FermiEvent.from_cartesian(1.0, x, 0.0, 0.0)
    assert ev.rho == x
    assert ev.theta == pytest.approx(0.5 * math.pi, rel=1e-15)


@pytest.mark.parametrize("xyz", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0),
                                 (1.0, 2.0, -math.inf),
                                 (1.5e308, 1.5e308, 0.0)])
def test_from_cartesian_without_finite_radius_is_domain_error(xyz):
    # A NaN coordinate gave rho = nan; (1.5e308, 1.5e308, 0) has a radius
    # beyond the largest float.
    with pytest.raises(DomainError, match="no finite radius"):
        FermiEvent.from_cartesian(1.0, *xyz)


def test_consistency_rho_of_sigma_inverse():
    for cosmo in (RADIATION, MATTER):
        for sigma in (1.5, 4.0, 50.0):
            rho = rho_of_sigma(cosmo, 2.0, sigma)
            assert sigma_of_rho(cosmo, 2.0, rho) == pytest.approx(
                sigma, rel=1e-8)
