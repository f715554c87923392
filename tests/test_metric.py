# Fermi metric components, polar and Cartesian.

import math

import numpy as np
import pytest

from fermirw import (
    Cosmology,
    DomainError,
    FermiEvent,
    OutOfChartError,
    UnsupportedCurvatureError,
    g_tau_tau,
    hubble,
    lambda_k,
    make_exponential,
    make_power_law,
    make_tabulated,
    metric_cartesian,
    metric_polar,
    rho_of_sigma,
    rw_from_fermi,
    s_k,
    sigma_of_chi,
    sigma_of_rho,
    velocity_identity_residual,
)
from fermirw import geodesics, metric

MILNE = Cosmology(make_power_law(1.0), k=-1, name="milne")
RADIATION = Cosmology(make_power_law(0.5), k=0, name="radiation")
MATTER = Cosmology(make_power_law(2.0 / 3.0), k=0, name="matter")
DESITTER = Cosmology(make_exponential(1.0), k=0, name="de-sitter")


# ---------------------------------------------------------------------------
# s_k

def test_s_k_flat():
    assert s_k(0, 0.7) == 0.7


def test_s_k_open():
    assert s_k(-1, 0.0) == 0.0
    assert s_k(-1, 1.0) == pytest.approx(math.sinh(1.0), rel=1e-14)


def test_s_k_closed_unsupported():
    with pytest.raises(UnsupportedCurvatureError):
        s_k(1, 0.5)


def test_s_k_open_overflow_is_domain_error():
    with pytest.raises(DomainError):
        s_k(-1, 1000.0)


def test_s_k_nan_is_domain_error():
    with pytest.raises(DomainError):
        s_k(-1, math.nan)


# ---------------------------------------------------------------------------
# g_tau_tau

def test_lapse_is_minus_one_on_gamma():
    for cosmo in (MATTER, RADIATION, DESITTER):
        assert g_tau_tau(cosmo, 1.3, 0.0) == pytest.approx(-1.0, rel=1e-12)


def test_lapse_milne_everywhere():
    for tau, rho in ((1.0, 0.3), (2.0, 1.5), (5.0, 4.9)):
        assert g_tau_tau(MILNE, tau, rho) == pytest.approx(-1.0, rel=1e-10)


def test_lapse_de_sitter():
    assert g_tau_tau(DESITTER, 2.0, math.pi / 4.0) == pytest.approx(
        -0.5, rel=1e-8)
    for rho in (0.2, 0.7, 1.3):
        assert g_tau_tau(DESITTER, 3.0, rho) == pytest.approx(
            -math.cos(rho) ** 2, rel=1e-8)


def test_lapse_radiation_closed_form():
    tau, sigma = 1.0, 4.0
    rho = rho_of_sigma(RADIATION, tau, sigma)
    want = -(1.0 / sigma) * (1.0 + math.sqrt(sigma - 1.0)
                             * math.acos(1.0 / math.sqrt(sigma))) ** 2
    assert g_tau_tau(RADIATION, tau, rho) == pytest.approx(want, rel=1e-8)


# ---------------------------------------------------------------------------
# metric_polar

def test_polar_milne_minkowski():
    pm = metric_polar(MILNE, 2.0, 1.0)
    assert pm.g_tau_tau == pytest.approx(-1.0, rel=1e-10)
    assert pm.g_rho_rho == 1.0
    assert pm.ang == pytest.approx(1.0, rel=1e-10)


def test_polar_de_sitter_angular():
    pm = metric_polar(DESITTER, 2.0, math.pi / 6.0)
    assert pm.ang == pytest.approx(math.sin(math.pi / 6.0) ** 2, rel=1e-8)


@pytest.mark.parametrize("cosmo, ang", [(MILNE, lambda r: r * r),
                                        (DESITTER, lambda r: math.sin(r) ** 2)],
                         ids=["milne", "de-sitter"])
def test_polar_angular_near_the_observer(cosmo, ang):
    # At rho = 1e-9 sigma - 1 = u^2 rounds to 0, but u keeps chi's digits.
    rho = 1e-9
    assert metric_polar(cosmo, 1.0, rho).ang == pytest.approx(
        ang(rho), rel=1e-12, abs=0.0)


def test_polar_radiation_angular():
    tau, sigma = 1.0, 4.0
    rho = rho_of_sigma(RADIATION, tau, sigma)
    pm = metric_polar(RADIATION, tau, rho)
    assert pm.ang == pytest.approx(math.pi ** 2 / 9.0, rel=1e-8)


def test_polar_signature():
    for cosmo in (RADIATION, MATTER):
        for rho in (0.0, 0.4, 1.2):
            pm = metric_polar(cosmo, 1.5, rho)
            assert pm.g_tau_tau < 0.0
            assert pm.g_rho_rho == 1.0
            assert pm.ang >= 0.0


# ---------------------------------------------------------------------------
# lambda_k

def test_lambda_milne_vanishes():
    for rho in (0.3, 1.0, 1.9):
        assert lambda_k(MILNE, 2.0, rho) == pytest.approx(0.0, abs=1e-9)


def test_lambda_de_sitter_quarter_pi():
    # k=0: lambda = (sin^2(rho) - rho^2)/rho^4 at h0 = 1
    rho = math.pi / 4.0
    want = (math.sin(rho) ** 2 - rho ** 2) / rho ** 4
    assert lambda_k(DESITTER, 2.0, rho) == pytest.approx(want, rel=1e-8)
    assert want == pytest.approx(-0.30709320967780945, rel=1e-12)


def test_lambda_origin_limit_de_sitter():
    # sin^2(x)/x^2 expands to 1 - x^2/3 + ..., so the ratio tends to -1/3
    assert lambda_k(DESITTER, 1.0, 1e-5) == pytest.approx(-1.0 / 3.0,
                                                          abs=1e-4)


def test_lambda_small_rho_stable():
    for cosmo in (MATTER, DESITTER):
        tau = 1.0
        a = lambda_k(cosmo, tau, 1e-4 * tau)
        b = lambda_k(cosmo, tau, 5e-5 * tau)
        assert a == pytest.approx(b, abs=1e-4)


@pytest.mark.parametrize("rho", [0.0, 0.5])
@pytest.mark.parametrize("tau", [-1.0, 0.0, math.nan, math.inf])
def test_lambda_bad_tau(tau, rho):
    with pytest.raises(DomainError):
        lambda_k(RADIATION, tau, rho)


@pytest.mark.parametrize("call", [
    lambda tau: sigma_of_rho(MATTER, tau, 0.0),
    lambda tau: rw_from_fermi(MATTER, FermiEvent(tau, 0.0)),
    lambda tau: sigma_of_chi(MATTER, tau, 0.0),
    lambda tau: velocity_identity_residual(MATTER, tau, 0.0),
    lambda tau: g_tau_tau(MATTER, tau, 0.0),
    lambda tau: metric_polar(MATTER, tau, 0.0),
    lambda tau: metric_cartesian(MATTER, tau, 0.0, 0.0, 0.0),
], ids=["sigma_of_rho", "rw_from_fermi", "sigma_of_chi",
        "velocity_identity_residual", "g_tau_tau", "metric_polar",
        "metric_cartesian"])
@pytest.mark.parametrize("tau", [-1.0, 0.0, math.nan, math.inf])
def test_worldline_rejects_a_bad_tau(tau, call):
    # On the worldline (rho = 0 or chi0 = 0) each of these has a shortcut
    # that must not skip the check on tau.
    with pytest.raises(DomainError):
        call(tau)


def test_lambda_extrapolation_joins_direct_branch():
    # The curvature limit -(H^2 + k/a^2)/3 serves rho = 1e-4 tau and
    # 1.001e-3 tau (H rho <= 6.7e-4 on matter); it must agree with the
    # well-conditioned direct form (ang/rho^2 - 1)/rho^2 at 0.05 tau,
    # where lambda has moved by O((H rho)^2) from its limit.
    tau = 1.0
    extrapolated = lambda_k(MATTER, tau, 1e-4 * tau)
    direct = lambda_k(MATTER, tau, 0.05 * tau)
    assert extrapolated == pytest.approx(direct, abs=5e-3)
    near_switch = lambda_k(MATTER, tau, 1.001e-3 * tau)
    assert extrapolated == pytest.approx(near_switch, abs=2e-2)


_TS = np.geomspace(0.05, 100.0, 800)
TABLE = Cosmology(make_tabulated(list(zip(_TS, _TS ** (2.0 / 3.0)))), k=0,
                  name="tabulated")


@pytest.mark.parametrize("cosmo,want", [
    (MILNE, lambda tau: 0.0),
    (DESITTER, lambda tau: -1.0 / 3.0),
    (RADIATION, lambda tau: -1.0 / (12.0 * tau * tau)),
    (MATTER, lambda tau: -4.0 / (27.0 * tau * tau)),
    (TABLE, lambda tau: -hubble(TABLE, tau) ** 2 / 3.0),
], ids=["milne", "de-sitter", "radiation", "matter", "table"])
def test_lambda_at_the_observer_is_the_curvature(cosmo, want):
    # g_ij = delta_ij - (1/3) R_ikjl x^k x^l: lambda(0) = -(H^2 + k/a^2)/3.
    for tau in (0.3, 1.3, 7.0):
        scale = hubble(cosmo, tau) ** 2 / 3.0
        assert abs(lambda_k(cosmo, tau, 0.0) - want(tau)) <= 4.0 * math.ulp(
            scale)


def test_lambda_below_the_switch_inverts_nothing(monkeypatch):
    def refuse(cosmo, tau, quantity, target, cfg):
        raise AssertionError(f"{quantity} inverted")

    monkeypatch.setattr(metric, "_u_of", refuse)
    # H = 1/2.6 on radiation at tau = 1.3, where a''/a - C = -2 H^2: the
    # switch is at H rho = 2.5e-3/2^(1/4) = 2.1e-3, rho = 5.47e-3.
    for rho in (0.0, 1e-9, 1e-4, 5.4e-3):
        assert lambda_k(RADIATION, 1.3, rho) == lambda_k(RADIATION, 1.3, 0.0)


def test_lambda_switch_reads_the_tidal_curvature():
    # a = t^(1/2) with k = -1 at tau = 1/4: H^2 = 4 cancels k/a^2 = -4, so
    # lambda(0) = 0, but a''/a = -4 and lambda moves as rho^2 off the
    # observer.  The switch must still hand H rho = 0.1 and 5e-3 to the
    # direct form.
    open_rad = Cosmology(make_power_law(0.5), k=-1)
    tau = 0.25
    assert lambda_k(open_rad, tau, 0.0) == 0.0
    for rho in (0.05, 2.5e-3):
        ang = metric_polar(open_rad, tau, rho).ang
        direct = (ang / rho ** 2 - 1.0) / rho ** 2
        assert direct < -1e-5
        assert lambda_k(open_rad, tau, rho) == direct
    # rho sqrt(H sqrt|a''/a - C|) = 2.4e-3 is inside the switch.
    assert lambda_k(open_rad, tau, 1.2e-3) == 0.0


def _lambda_rho2(cosmo, tau):
    # (2/45) C^2 + (1/5) H^2 (a''/a - C), C = H^2 + k/a^2.
    a, adot = cosmo.model.a(tau), cosmo.model.a_dot(tau)
    h = adot / a
    c = h * h + cosmo.k / (a * a)
    return 2.0 / 45.0 * c * c + 0.2 * h * h * (
        -cosmo.model.b_ddot(a) * adot ** 3 / a - c)


@pytest.mark.parametrize("cosmo,tau", [
    (DESITTER, 1.3), (RADIATION, 1.3),
    (Cosmology(make_power_law(0.05), k=0), 1.3),
    (Cosmology(make_power_law(0.5), k=-1), 0.25),
    (Cosmology(make_power_law(0.7), k=-1), 3.0),
], ids=["de-sitter", "radiation", "alpha-0.05", "open-rad", "open-0.7"])
def test_lambda_rho2_term(cosmo, tau):
    # The rho^2 term that sets the switch scale, from the direct form at
    # rho and rho/2 with the rho^4 term eliminated.
    want = _lambda_rho2(cosmo, tau)
    lam0 = lambda_k(cosmo, tau, 0.0)
    rho = 0.1 / abs(want) ** 0.25
    f = [(lambda_k(cosmo, tau, r) - lam0) / (r * r) for r in (rho, rho / 2)]
    assert (4.0 * f[1] - f[0]) / 3.0 == pytest.approx(want, rel=1e-3)


def test_lambda_slow_expansion_near_the_observer():
    # a = t^0.1 at tau = 0.7: H rho <= 2e-3, where lambda varies by
    # O((H rho)^2).
    slow = Cosmology(make_power_law(0.1), k=0)
    tau = 0.7
    lam0 = lambda_k(slow, tau, 0.0)
    for frac in np.geomspace(1e-6, 0.02, 12):
        assert abs(lambda_k(slow, tau, frac * tau) / lam0 - 1.0) <= 1e-4


def test_lambda_very_slow_expansion():
    # a = t^0.05 at tau = 1.3: |a''/a| = 19 H^2, and the direct form is
    # noisier than on radiation.  Against lambda(0) + (rho^2 term) rho^2
    # over H rho up to 4e-3, on both sides of the switch.
    slow = Cosmology(make_power_law(0.05), k=0)
    tau = 1.3
    h = hubble(slow, tau)
    lam0, lam2 = lambda_k(slow, tau, 0.0), _lambda_rho2(slow, tau)
    for hr in np.geomspace(1e-5, 4e-3, 40):
        rho = hr / h
        want = lam0 + lam2 * rho * rho
        assert abs(lambda_k(slow, tau, rho) / want - 1.0) <= 1e-4


# 50-digit values of lambda at tau = 1.3 against H rho: de Sitter (h0 = 1)
# (sin^2 rho - rho^2)/rho^4, radiation from its closed-form maps.
H_RHO = (1e-4, 3e-4, 1e-3, 2e-3, 2.4e-3, 2.6e-3, 5e-3, 1e-2, 3e-2, 0.1, 0.3)
LAMBDA_REFERENCES = {
    "de-sitter": (-0.33333333288888888921, -0.33333332933333335905,
                  -0.33333328888889206349, -0.3333331555556063492,
                  -0.33333307733343865902, -0.33333303288903396059,
                  -0.333332222224206347, -0.33332888892063477954,
                  -0.33329333590465905042, -0.33288920620815562098,
                  -0.32935894504187020006),
    "radiation": (-0.049309665220249841364, -0.049309669428008353621,
                  -0.049309717291313045995, -0.049309875083099468907,
                  -0.04930996765476082199, -0.049310020252453813788,
                  -0.049310979654481177568, -0.049314924964845525438,
                  -0.049357048428507949828, -0.049841431299437192713,
                  -0.054562162262147912389),
}


@pytest.mark.parametrize("cosmo", [DESITTER, RADIATION],
                         ids=lambda c: c.name)
def test_lambda_against_50_digit_values(cosmo):
    # Both sides of the switch, where the direct form cancels worst.
    tau = 1.3
    h = hubble(cosmo, tau)
    for hr, want in zip(H_RHO, LAMBDA_REFERENCES[cosmo.name]):
        assert lambda_k(cosmo, tau, hr / h) == pytest.approx(want, rel=2e-5)


# ---------------------------------------------------------------------------
# metric_cartesian

def test_cartesian_on_gamma_is_minkowski():
    g = metric_cartesian(MATTER, 1.0, 0.0, 0.0, 0.0)
    assert np.allclose(g, np.diag([-1.0, 1.0, 1.0, 1.0]), atol=1e-12)


@pytest.mark.parametrize("rho", [0.3, 2e-4])  # direct and extrapolated
def test_cartesian_computes_one_lapse_bracket(monkeypatch, rho):
    # lambda_k needs only the angular coefficient, so the lapse is
    # computed once, for g_tau_tau.
    calls = []
    bracket = geodesics.Slice.lapse

    def counting(*args):
        calls.append(args)
        return bracket(*args)

    monkeypatch.setattr(geodesics.Slice, "lapse", counting)
    metric_cartesian(MATTER, 1.0, rho, 0.0, 0.0)
    assert len(calls) == 1


def test_cartesian_milne_is_minkowski():
    g = metric_cartesian(MILNE, 2.0, 0.3, -0.4, 0.8)
    assert np.allclose(g, np.diag([-1.0, 1.0, 1.0, 1.0]), atol=1e-9)


def test_cartesian_axis_block():
    tau, rho = 1.0, 0.6
    lam = lambda_k(RADIATION, tau, rho)
    g = metric_cartesian(RADIATION, tau, rho, 0.0, 0.0)
    assert g[1, 1] == pytest.approx(1.0, rel=1e-12)
    assert g[2, 2] == pytest.approx(1.0 + lam * rho * rho, rel=1e-10)
    assert g[3, 3] == pytest.approx(1.0 + lam * rho * rho, rel=1e-10)
    assert g[0, 0] == pytest.approx(g_tau_tau(RADIATION, tau, rho),
                                    rel=1e-10)


def test_cartesian_symmetric_no_time_space_mixing():
    g = metric_cartesian(MATTER, 1.2, 0.2, 0.3, -0.1)
    assert np.allclose(g, g.T, atol=0.0)
    assert np.allclose(g[0, 1:], 0.0, atol=1e-14)


def test_cartesian_rotation_covariance():
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    xyz = np.array([0.35, -0.2, 0.5])
    g1 = metric_cartesian(MATTER, 1.0, *xyz)
    g2 = metric_cartesian(MATTER, 1.0, *(q @ xyz))
    # spatial block transforms as a congruence, tau-tau slot unchanged
    assert g2[0, 0] == pytest.approx(g1[0, 0], rel=1e-10)
    assert np.allclose(g2[1:, 1:], q @ g1[1:, 1:] @ q.T, atol=1e-10)


@pytest.mark.parametrize("xyz", [(1e200, 0.0, 0.0), (0.0, -3e170, 4e170)])
def test_cartesian_radius_past_the_float_square(xyz):
    # x^2 + y^2 + z^2 overflows from |x| ~ 1e154.  The radius is taken as
    # FermiEvent.from_cartesian takes it, so the event is out of the chart,
    # not an overflow warning.
    with pytest.raises(OutOfChartError, match="is not inside"):
        metric_cartesian(MATTER, 1.0, *xyz)


def test_cross_term_small_by_finite_difference():
    # g(d/dtau, d/drho) assembled from finite-difference pushforwards of
    # the RW embedding; the chart construction makes it vanish.
    from fermirw import FermiEvent, rw_from_fermi
    tau, rho, h = 1.0, 0.8, 1e-5
    cosmo = RADIATION

    def embed(tt, rr):
        ev = rw_from_fermi(cosmo, FermiEvent(tt, rr))
        return ev.t, ev.chi

    t_tau = (embed(tau + h, rho)[0] - embed(tau - h, rho)[0]) / (2 * h)
    c_tau = (embed(tau + h, rho)[1] - embed(tau - h, rho)[1]) / (2 * h)
    t_rho = (embed(tau, rho + h)[0] - embed(tau, rho - h)[0]) / (2 * h)
    c_rho = (embed(tau, rho + h)[1] - embed(tau, rho - h)[1]) / (2 * h)
    ev = rw_from_fermi(cosmo, FermiEvent(tau, rho))
    a2 = cosmo.model.a(ev.t) ** 2
    cross = -t_tau * t_rho + a2 * c_tau * c_rho
    assert abs(cross) < 1e-6
