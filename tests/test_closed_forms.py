# Exact solutions for the four solvable expansion histories, checked
# against the general quadrature pipeline they exist to cross-validate.

import math

import numpy as np
import pytest

from fermirw import (
    DomainError,
    GAMMA_RATIO_SUP,
    OutOfChartError,
    chi_of_sigma,
    de_sitter,
    g_tau_tau,
    matter,
    metric_polar,
    milne,
    radiation,
    rho_of_sigma,
    sigma_of_rho,
    t_of_sigma,
)


def test_gamma_ratio_constant():
    # sqrt(pi) Gamma(5/4) / Gamma(3/4), frozen from a high-precision run
    assert GAMMA_RATIO_SUP == pytest.approx(1.3110287771460599, rel=1e-13)


# ---------------------------------------------------------------------------
# milne

def test_milne_maps():
    m = milne()
    assert m.family == "milne"
    assert m.t(2.0, 4.0) == pytest.approx(1.0, rel=1e-14)
    assert m.chi(2.0, 4.0) == pytest.approx(math.log(2.0 + math.sqrt(3.0)),
                                            rel=1e-14)
    assert m.rho(2.0, 4.0) == pytest.approx(math.sqrt(3.0), rel=1e-14)
    assert m.sigma_of_rho(2.0, math.sqrt(3.0)) == pytest.approx(4.0,
                                                               rel=1e-12)
    assert m.rho_slice(7.0) == pytest.approx(7.0)
    assert m.v_sup == 1.0


def test_milne_trivial_point():
    m = milne()
    assert m.t(1.0, 1.0) == pytest.approx(1.0)
    assert m.chi(1.0, 1.0) == 0.0


def test_milne_velocity_is_tanh_chi():
    m = milne()
    sigma = math.cosh(1.0) ** 2
    assert m.v_f(sigma) == pytest.approx(math.tanh(1.0), rel=1e-12)


def test_milne_out_of_slice():
    m = milne()
    with pytest.raises(OutOfChartError):
        m.sigma_of_rho(1.0, 1.0)


def test_milne_metric_is_minkowski():
    m = milne()
    for tau, sigma in ((1.0, 2.0), (3.0, 50.0)):
        assert m.g_tau_tau(tau, sigma) == -1.0
        rho = m.rho(tau, sigma)
        assert m.ang(tau, sigma) == pytest.approx(rho * rho, rel=1e-12)


# ---------------------------------------------------------------------------
# de sitter

def test_de_sitter_quarter_turn():
    d = de_sitter(1.0)
    assert d.rho(1.0, 2.0) == pytest.approx(math.pi / 4.0, rel=1e-12)
    assert d.v_f(2.0) == pytest.approx(0.5, rel=1e-14)
    assert d.v_sup == pytest.approx(0.5)


def test_de_sitter_t_map():
    d = de_sitter(1.0)
    sigma = 1.0 / math.cos(math.pi / 3.0) ** 2  # rho = pi/3
    assert d.t(2.0, sigma) == pytest.approx(2.0 + math.log(0.5), rel=1e-12)


def test_de_sitter_lapse():
    d = de_sitter(1.0)
    sigma = 2.0
    assert d.g_tau_tau(2.0, sigma) == pytest.approx(
        -math.cos(math.pi / 4.0) ** 2, rel=1e-12)


def test_de_sitter_speed_capped():
    d = de_sitter(0.7)
    for sigma in (1.0, 1.5, 2.0, 5.0, 40.0):
        assert d.v_f(sigma) <= 0.5 + 1e-15


def test_de_sitter_chart_bound():
    d = de_sitter(1.0)
    # sigma must stay below e^(2 h0 tau)
    with pytest.raises(DomainError):
        d.t(1.0, math.e ** 2 * 1.01)
    with pytest.raises(OutOfChartError):
        d.sigma_of_rho(1.0, math.acos(1.0 / math.e) + 0.01)


def test_de_sitter_boundary_agrees_with_general_route():
    d = de_sitter(1.0)
    tau = 1.0
    reach = math.acos(math.exp(-tau))
    with pytest.raises(OutOfChartError) as exc:
        sigma_of_rho(d.cosmology, tau, reach + 1e-6)
    assert exc.value.rho_max == pytest.approx(reach, abs=1e-8)


# ---------------------------------------------------------------------------
# radiation

def test_radiation_maps():
    r = radiation()
    assert r.t(3.0, 9.0) == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert r.chi(1.0, 4.0) == pytest.approx(2.0 * math.pi / 3.0, rel=1e-12)
    assert r.rho(1.0, 2.0) == pytest.approx(0.5 + math.pi / 4.0, rel=1e-12)
    assert r.rho_slice(2.0) == pytest.approx(math.pi, rel=1e-14)


def test_radiation_velocity():
    r = radiation()
    assert r.v_f(2.0) == pytest.approx(0.5 + math.pi / 8.0, rel=1e-12)
    assert r.v_f(1e10) == pytest.approx(math.pi / 2.0, abs=1e-4)


def test_radiation_velocity_alternate_form():
    # same speed written in terms of chi instead of sigma
    r = radiation()
    tau = 1.0
    for sigma in (1.5, 2.0, 7.0, 80.0):
        chi = r.chi(tau, sigma)
        x = chi / math.sqrt(tau)
        alt = 0.5 * math.sin(x) + 0.25 * x * (1.0 - math.cos(x))
        assert r.v_f(sigma) == pytest.approx(alt, rel=1e-12)


def test_radiation_sigma_round_trip():
    # And the matter oracle's, the other inversion by bracketed root find.
    for oracle in (radiation(), matter()):
        for sigma in (1.3, 4.0, 30.0):
            rho = oracle.rho(2.0, sigma)
            assert oracle.sigma_of_rho(2.0, rho) == pytest.approx(
                sigma, rel=1e-10)


# ---------------------------------------------------------------------------
# matter

def test_matter_chi_vanishes_at_observer():
    m = matter()
    assert m.chi(1.0, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_matter_t_map():
    m = matter()
    assert m.t(1.0, 16.0) == pytest.approx(1.0 / 8.0, rel=1e-13)


def test_matter_sup():
    m = matter()
    assert m.v_sup == pytest.approx(GAMMA_RATIO_SUP, rel=1e-13)


def test_matter_chi_against_quadrature():
    m = matter()
    assert m.chi(1.0, 16.0) == pytest.approx(
        chi_of_sigma(m.cosmology, 1.0, 16.0), rel=1e-8)


def test_matter_rho_against_quadrature():
    m = matter()
    for sigma in (2.0, 4.0, 25.0):
        assert m.rho(1.0, sigma) == pytest.approx(
            rho_of_sigma(m.cosmology, 1.0, sigma), rel=1e-8)


def test_matter_rho_slice():
    m = matter()
    assert m.rho_slice(1.0) == pytest.approx(GAMMA_RATIO_SUP, rel=1e-13)


# ---------------------------------------------------------------------------
# closed forms against the general pipeline

@pytest.mark.parametrize("model_fn", [milne, radiation, matter])
def test_slice_maps_match_quadrature(model_fn):
    m = model_fn()
    taus = (0.7, 1.0, 2.5)
    sigmas = np.geomspace(1.02, 300.0, 6)
    for tau in taus:
        for sigma in sigmas:
            sigma = float(sigma)
            assert m.t(tau, sigma) == pytest.approx(
                t_of_sigma(m.cosmology, tau, sigma), rel=1e-8)
            assert m.chi(tau, sigma) == pytest.approx(
                chi_of_sigma(m.cosmology, tau, sigma), rel=1e-8)
            assert m.rho(tau, sigma) == pytest.approx(
                rho_of_sigma(m.cosmology, tau, sigma), rel=1e-8)


def test_de_sitter_maps_match_quadrature():
    d = de_sitter(1.0)
    tau = 1.5
    for sigma in (1.1, 2.0, 8.0):  # sigma_inf = e^3 ~ 20
        assert d.t(tau, sigma) == pytest.approx(
            t_of_sigma(d.cosmology, tau, sigma), rel=1e-8)
        assert d.chi(tau, sigma) == pytest.approx(
            chi_of_sigma(d.cosmology, tau, sigma), rel=1e-8)
        assert d.rho(tau, sigma) == pytest.approx(
            rho_of_sigma(d.cosmology, tau, sigma), rel=1e-8)


@pytest.mark.parametrize("model_fn", [radiation, matter])
def test_lapse_matches_general_route(model_fn):
    m = model_fn()
    tau = 1.0
    for sigma in (1.5, 4.0, 40.0):
        rho = m.rho(tau, sigma)
        assert m.g_tau_tau(tau, sigma) == pytest.approx(
            g_tau_tau(m.cosmology, tau, rho), rel=1e-6)


def test_angular_matches_general_route():
    for m in (radiation(), matter()):
        tau = 1.0
        for sigma in (2.0, 9.0):
            rho = m.rho(tau, sigma)
            pm = metric_polar(m.cosmology, tau, rho)
            assert m.ang(tau, sigma) == pytest.approx(pm.ang, rel=1e-7)


def test_milne_general_pipeline_minkowski():
    m = milne()
    for tau, sigma in ((1.0, 3.0), (2.0, 20.0)):
        rho = m.rho(tau, sigma)
        pm = metric_polar(m.cosmology, tau, rho)
        assert abs(pm.g_tau_tau + 1.0) < 1e-10
        assert abs(pm.ang - rho * rho) < 1e-10


def test_domain_validation():
    m = matter()
    with pytest.raises(DomainError):
        m.t(-1.0, 2.0)
    with pytest.raises(DomainError):
        m.chi(1.0, 0.5)


# ---------------------------------------------------------------------------
# every bundle map, frozen to the last bit

_EVENTS = ((0.7, 1.3), (2.5, 1.0), (2.5, 40.0))
FROZEN = {
    "milne": (
        "0.6139406135149204", "2.5", "0.3952847075210474",
        "0.5234839575015943", "0.0", "2.531277486468381",
        "0.33626912299068296", "0.0", "2.468552207266437", "-1.0", "-1.0",
        "-1.0", "0.11307692307692306", "0.0", "6.093749999999999",
        "1.026272577996716", "1.2993762993762992", "0.4803844614152614",
        "0.9874208829065749", "0.7", "2.5",
    ),
    "de-sitter": (
        "0.5688178677662544", "2.5", "0.6555602729430319",
        "0.27199097261211075", "0.0", "0.5126206521047832",
        "0.5010930132653572", "0.0", "1.412016112149136",
        "-0.7692307692307692", "-1.0", "-0.025", "0.23076923076923078", "0.0",
        "0.975", "1.178754105810975", "7.615963967207052",
        "0.4213250442347432", "0.15612494995995996", "1.0511360351056669",
        "1.4886188668175042",
    ),
    "radiation": (
        "0.5384615384615384", "2.5", "0.0625", "0.8384889875492672", "0.0",
        "4.465187007247022", "0.6456926402500702", "0.0", "3.9203526552727395",
        "-1.2494216584079616", "-1.0", "-2.4098466531484237",
        "0.37857280582228964", "0.0", "1.246118438105476", "1.006455119116901",
        "1.062423043300444", "0.5369618934498256", "1.5328406593053674",
        "1.0995574287564276", "3.9269908169872414",
    ),
    "matter": (
        "0.5749638312774681", "2.5", "0.1571791787103669",
        "0.6820011756999629", "9.040826809175417e-16", "3.714906418567691",
        "0.49414454847842776", "5.551115123125783e-16", "3.2625556998536",
        "-1.1225584184264166", "-1.0", "-1.6862246643673555",
        "0.22237755335342727", "2.773339119917619e-30", "1.1706375291416986",
        # sigma_of_rho(2.5, 0.4) and (2.5, 1.2); 40-digit mpmath roots at
        # the float rho: 1.0115309278788190111 and 1.1163797237011204494.
        "1.011530927878818", "1.1163797237011202", "0.5089714556964751",
        "1.2822125595072653", "0.9177201440022418", "3.2775719428651495",
    ),
}


@pytest.mark.parametrize("m", [milne(), de_sitter(1.0), radiation(),
                               matter()], ids=lambda m: m.family)
def test_bundle_maps_frozen(m):
    # The maps' reprs on a small grid: the five (tau, sigma) maps at each
    # event, sigma_of_rho at rho = 0.4 and 1.2 on tau = 2.5, v_f at sigma =
    # 1.3 and 40, and rho_slice at tau = 0.7 and 2.5.
    got = [repr(getattr(m, name)(tau, sigma))
           for name in ("t", "chi", "rho", "g_tau_tau", "ang")
           for tau, sigma in _EVENTS]
    got += [repr(m.sigma_of_rho(2.5, rho)) for rho in (0.4, 1.2)]
    got += [repr(m.v_f(sigma)) for sigma in (1.3, 40.0)]
    got += [repr(m.rho_slice(tau)) for tau in (0.7, 2.5)]
    assert tuple(got) == FROZEN[m.family]
