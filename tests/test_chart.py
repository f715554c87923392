# The Fermi chart: coordinate transforms, Jacobian, comoving flow.

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermirw import chart
from fermirw import (
    AccuracyError,
    Cosmology,
    DomainError,
    FermiEvent,
    OutOfChartError,
    RWEvent,
    comoving_flow_fermi,
    fermi_from_rw,
    jacobian_F,
    make_exponential,
    make_power_law,
    rho_of_sigma,
    rw_from_fermi,
    sigma_of_rho,
)

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


def test_de_sitter_far_edge_climbs_by_doubling(monkeypatch):
    # At 1 - w = 1e-10 the root u = 7.1e4 lies far above the start u = w,
    # on a chi(u) that saturates: secant steps would grow u by about 1.3x
    # each, so the climb doubles u instead (17 doublings).
    calls = [0]
    direct = chart.slice_integral

    def counted(*args):
        calls[0] += 1
        return direct(*args)

    monkeypatch.setattr(chart, "slice_integral", counted)
    t, w = 1.0, 1.0 - 1e-10
    f = fermi_from_rw(DESITTER, RWEvent(t, w * math.exp(-t)))
    # One rounding of chi moves tau by about 5e-7 and rho = arcsin(w) by
    # about 8e-12 this close to the edge.
    assert f.tau == pytest.approx(t - 0.5 * math.log1p(-w * w), abs=1e-5)
    assert f.rho == pytest.approx(math.asin(w), rel=1e-10)
    assert calls[0] <= 30


def test_de_sitter_edge_stops_at_chi_rounding_floor(monkeypatch):
    # At 1 - w = 1e-12 (root u = 7.1e5) the bracketed steps reach chi's
    # rounding floor, where the residual's sign is noise; iterating on
    # until two iterates agreed took 38 direct integrals.
    calls = [0]
    direct = chart.slice_integral

    def counted(*args):
        calls[0] += 1
        return direct(*args)

    monkeypatch.setattr(chart, "slice_integral", counted)
    t, w = 1.0, 1.0 - 1e-12
    f = fermi_from_rw(DESITTER, RWEvent(t, w * math.exp(-t)))
    # One rounding of chi moves tau by about 5e-5 and rho = arcsin(w) by
    # about 5e-11 relative this close to the edge.
    assert f.tau == pytest.approx(t - 0.5 * math.log1p(-w * w), abs=1e-3)
    assert f.rho == pytest.approx(math.asin(w), rel=1e-9)
    assert calls[0] <= 30


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
    from fermirw import chi_of_sigma, t_of_sigma
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


def test_flow_step_halving_richardson():
    # second-order differences: halving the step shrinks the change by 4
    ev = RWEvent(1.0, 0.5)
    d1 = comoving_flow_fermi(RADIATION, ev, rel_step=4e-4)[1]
    d2 = comoving_flow_fermi(RADIATION, ev, rel_step=2e-4)[1]
    d3 = comoving_flow_fermi(RADIATION, ev, rel_step=1e-4)[1]
    ratio = (d1 - d2) / (d2 - d3)
    assert 3.0 < ratio < 5.0


@pytest.mark.parametrize("rel_step",
                         [0.0, -1e-5, 1.0, 2.0, math.inf, math.nan])
def test_flow_bad_step_is_domain_error(rel_step):
    # 0, 2 and inf used to report a step underflow, nan a bad time.
    with pytest.raises(DomainError, match="rel_step"):
        comoving_flow_fermi(MATTER, RWEvent(1.0, 0.5), rel_step=rel_step)


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


def test_consistency_rho_of_sigma_inverse():
    for cosmo in (RADIATION, MATTER):
        for sigma in (1.5, 4.0, 50.0):
            rho = rho_of_sigma(cosmo, 2.0, sigma)
            assert sigma_of_rho(cosmo, 2.0, rho) == pytest.approx(
                sigma, rel=1e-8)
