# Fermi and Hubble velocities, velocity suprema, slice radii.

import math
from dataclasses import replace

import numpy as np
import pytest

from fermirw import (
    DEFAULT_CONFIG,
    Cosmology,
    DomainError,
    GAMMA_RATIO_SUP,
    chi_of_sigma,
    fermi_speed,
    fermi_speed_power_law,
    fermi_speed_sup,
    hubble,
    hubble_speed,
    make_exponential,
    make_power_law,
    power_law_geometry_relation,
    proper_radius,
    proper_radius_power_law,
    sigma_of_chi,
    velocity_identity_residual,
)

MILNE = Cosmology(make_power_law(1.0), k=-1, name="milne")
RADIATION = Cosmology(make_power_law(0.5), k=0, name="radiation")
MATTER = Cosmology(make_power_law(2.0 / 3.0), k=0, name="matter")
DESITTER = Cosmology(make_exponential(1.0), k=0, name="de-sitter")


# ---------------------------------------------------------------------------
# hubble_speed

def test_hubble_speed_zero():
    assert hubble_speed(MATTER, 1.0, 0.0) == 0.0


def test_hubble_speed_milne():
    assert hubble_speed(MILNE, 3.7, 2.0) == pytest.approx(2.0, rel=1e-12)


def test_hubble_speed_de_sitter():
    h0, tau, chi = 1.0, 2.0, 0.3
    assert hubble_speed(DESITTER, tau, chi) == pytest.approx(
        h0 * math.exp(h0 * tau) * chi, rel=1e-12)


# ---------------------------------------------------------------------------
# fermi_speed

def test_fermi_speed_zero():
    rep = fermi_speed(MATTER, 1.0, 0.0)
    assert rep.v_fermi == 0.0
    assert rep.sigma0 == 1.0
    assert rep.rho == 0.0


def test_fermi_speed_milne():
    chi0 = math.log(2.0 + math.sqrt(3.0))  # sigma0 = 4
    rep = fermi_speed(MILNE, 2.0, chi0)
    assert rep.sigma0 == pytest.approx(4.0, rel=1e-9)
    assert rep.v_fermi == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-9)
    assert rep.v_hubble == pytest.approx(chi0, rel=1e-12)
    assert rep.rho == pytest.approx(math.sqrt(3.0), rel=1e-9)


def test_fermi_speed_near_the_observer():
    # At chi0 = 1e-9 sigma0 - 1 = u0^2 rounds to 0, but u0 keeps the
    # digits.  At tau = 1 Milne gives v = rho = tanh(chi0); de Sitter,
    # with q = e chi0, v = q/(1 + q^2) and rho = arctan(q).
    chi0, q = 1e-9, math.e * 1e-9
    for cosmo, v, rho in ((MILNE, math.tanh(chi0), math.tanh(chi0)),
                          (DESITTER, q / (1.0 + q * q), math.atan(q))):
        rep = fermi_speed(cosmo, 1.0, chi0)
        assert rep.v_fermi == pytest.approx(v, rel=1e-12, abs=0.0)
        assert rep.rho == pytest.approx(rho, rel=1e-12, abs=0.0)


def test_fermi_speed_de_sitter_maximum():
    # closed form sqrt(sigma-1)/sigma peaks at one half when sigma0 = 2
    tau = 1.0
    chi0 = math.exp(-tau)  # sigma0 = 2
    rep = fermi_speed(DESITTER, tau, chi0)
    assert rep.sigma0 == pytest.approx(2.0, rel=1e-9)
    assert rep.v_fermi == pytest.approx(0.5, rel=1e-9)


def test_fermi_speed_radiation():
    rep = fermi_speed(RADIATION, 1.0, math.pi / 2.0)  # sigma0 = 2
    assert rep.v_fermi == pytest.approx(0.5 + math.pi / 8.0, rel=1e-9)


def test_fermi_speed_report_consistency():
    rep = fermi_speed(MATTER, 1.0, 1.2)
    assert chi_of_sigma(MATTER, 1.0, rep.sigma0) == pytest.approx(
        1.2, rel=1e-8)
    assert rep.v_hubble == pytest.approx(
        hubble(MATTER, 1.0) * MATTER.model.a(1.0) * 1.2, rel=1e-12)


def test_fermi_speed_monotone_in_chi():
    vals = [fermi_speed(MATTER, 1.0, c).v_fermi
            for c in np.linspace(0.0, 3.5, 12)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_fermi_speed_superluminal_region():
    # power-law exponents below one allow v > 1 far out
    rep = fermi_speed(MATTER, 1.0, 3.0)
    assert rep.v_fermi > 1.0


def test_fermi_speed_de_sitter_cap():
    tau = 1.5
    for frac in (0.1, 0.5, 0.9, 0.999):
        chi0 = frac * math.exp(-tau)  # reach in chi is e^(-tau)
        sigma0 = 1.0 + frac ** 2
        rep = fermi_speed(DESITTER, tau, chi0)
        assert rep.v_fermi <= 0.5 + 1e-12
        assert rep.sigma0 == pytest.approx(sigma0, rel=1e-9)


# ---------------------------------------------------------------------------
# fermi_speed_power_law

def test_power_law_speed_at_origin():
    assert fermi_speed_power_law(0.5, 1.0) == 0.0


def test_power_law_speed_radiation_value():
    want = math.sqrt(3.0) / 4.0 + math.pi / 4.0
    assert fermi_speed_power_law(0.5, 4.0) == pytest.approx(want, rel=1e-9)


def test_power_law_speed_matches_general_route():
    for sigma0 in (2.0, 10.0, 300.0):
        chi0 = chi_of_sigma(RADIATION, 1.0, sigma0)
        rep = fermi_speed(RADIATION, 1.0, chi0)
        assert fermi_speed_power_law(0.5, sigma0) == pytest.approx(
            rep.v_fermi, rel=1e-8)


def test_power_law_speed_time_independent():
    sigma0 = 25.0
    vals = [fermi_speed(MATTER, tau, chi_of_sigma(MATTER, tau, sigma0)).v_fermi
            for tau in (0.5, 1.0, 4.0)]
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], rel=1e-9)
    assert fermi_speed_power_law(2.0 / 3.0, sigma0) == pytest.approx(
        vals[0], rel=1e-9)


def test_power_law_speed_matter_asymptote():
    assert fermi_speed_power_law(2.0 / 3.0, 1e6) == pytest.approx(
        1.31103, abs=1e-3)


def test_radiation_speed_approaches_half_pi():
    v = fermi_speed_power_law(0.5, 1e6)
    assert v < math.pi / 2.0
    assert math.pi / 2.0 - v < 1e-5


def test_power_law_speed_at_huge_sigma0_is_the_sup():
    # s ** -(p + 1) on quadrature nodes near s = 1e300 used to overflow.
    v = fermi_speed_power_law(0.999999, 1e300)
    assert math.isfinite(v)
    assert v == pytest.approx(fermi_speed_sup(0.999999), rel=1e-12)


def test_power_law_speed_small_alpha_near_the_observer():
    # Reference: 40-digit mpmath quadrature of the two integrals.
    assert fermi_speed_power_law(0.02, 1.0 + 2.0 ** -40) == pytest.approx(
        9.536743164270666817116e-7, rel=1e-13)


# ---------------------------------------------------------------------------
# fermi_speed_sup

def test_sup_values():
    assert fermi_speed_sup(1.0) == pytest.approx(1.0, rel=1e-12)
    assert fermi_speed_sup(0.5) == pytest.approx(math.pi / 2.0, rel=1e-12)
    assert fermi_speed_sup(2.0 / 3.0) == pytest.approx(GAMMA_RATIO_SUP,
                                                       rel=1e-12)
    assert fermi_speed_sup(1.0 / 3.0) == pytest.approx(2.0, rel=1e-12)


def test_sup_bounded_by_inverse_alpha():
    for alpha in np.linspace(0.1, 1.0, 10):
        sup = fermi_speed_sup(float(alpha))
        assert sup <= 1.0 / alpha + 1e-12
        if alpha < 1.0:
            assert sup < 1.0 / alpha


@pytest.mark.parametrize("alpha", [1e-3, 3e-3])
def test_sup_small_alpha_asymptote(alpha):
    # Gamma(p + 1/2)/Gamma(p + 1) ~ p^(-1/2) (1 - 1/(8p)), p = 1/(2 alpha),
    # so the sup tends to sqrt(pi/(2 alpha)) (1 - alpha/4) + O(alpha^1.5).
    want = math.sqrt(math.pi / (2.0 * alpha)) * (1.0 - 0.25 * alpha)
    assert fermi_speed_sup(alpha) == pytest.approx(want, rel=1e-6)


# 400-digit values of the supremum at the float nearest each alpha.
SUP_REFERENCES = [(1e-3, 39.623365897903641595),
                  (1e-6, 1253.3138239870051168),
                  (1e-12, 1253314.1373151869353),
                  (1e-300, 1.2533141373155002355e150)]


@pytest.mark.parametrize("alpha,want", SUP_REFERENCES)
def test_sup_small_alpha_to_rounding(alpha, want):
    # A difference of lgamma values at p = 1/(2 alpha) would cancel here.
    assert fermi_speed_sup(alpha) == pytest.approx(want, rel=1e-15)
    assert proper_radius_power_law(alpha, 2.0) == pytest.approx(
        2.0 * want, rel=1e-15)


def test_radius_power_law_small_alpha():
    assert proper_radius_power_law(0.001, 1.0) == pytest.approx(39.6234,
                                                                rel=1e-6)


def test_sup_gap_closes():
    for alpha in (0.5, 2.0 / 3.0):
        v = fermi_speed_power_law(alpha, 1e8)
        sup = fermi_speed_sup(alpha)
        assert 0.0 < sup - v < 1e-3


# ---------------------------------------------------------------------------
# proper_radius

def test_radius_milne():
    assert proper_radius(MILNE, 3.0) == pytest.approx(3.0, rel=1e-9)


def test_radius_radiation():
    assert proper_radius(RADIATION, 2.0) == pytest.approx(math.pi, rel=1e-9)


def test_radius_de_sitter():
    # finite sigma_inf = e^(2 tau): rho = arccos(e^(-tau)) at h0 = 1
    assert proper_radius(DESITTER, 1.0) == pytest.approx(
        math.acos(1.0 / math.e), rel=1e-8)
    assert math.acos(1.0 / math.e) == pytest.approx(1.1940688187363216,
                                                    rel=1e-12)


def test_radius_hubble_bound_and_growth():
    for cosmo in (MILNE, RADIATION, MATTER):
        prev = 0.0
        for tau in (0.5, 1.0, 2.0, 4.0):
            r = proper_radius(cosmo, tau)
            assert r <= 1.0 / hubble(cosmo, tau) + 1e-10
            assert r > prev
            prev = r


def test_radius_de_sitter_can_exceed_hubble_radius():
    # the 1/H bound is a power-law result; inflationary slices break it
    assert proper_radius(DESITTER, 3.0) > 1.0


def test_radius_power_law_closed_form():
    assert proper_radius_power_law(1.0, 5.0) == pytest.approx(5.0, rel=1e-12)
    assert proper_radius_power_law(0.5, 1.0) == pytest.approx(
        math.pi / 2.0, rel=1e-12)
    assert proper_radius_power_law(2.0 / 3.0, 1.0) == pytest.approx(
        GAMMA_RATIO_SUP, rel=1e-12)


def test_radius_is_memoised_per_slice_and_config(count_panels):
    cosmo = Cosmology(make_power_law(2.0 / 3.0), k=0, name="matter")

    def panels(cfg):
        radius = []
        count = count_panels(
            lambda: radius.append(proper_radius(cosmo, 1.3, cfg)))
        return count, radius[0]

    first, radius = panels(None)
    assert first > 0
    assert panels(None) == (0, radius)
    assert panels(DEFAULT_CONFIG) == (0, radius)  # None means the default
    loose = replace(DEFAULT_CONFIG, quad_rel_tol=1e-10)
    assert panels(loose)[0] > 0


def test_radius_consistency_quadrature_vs_gamma():
    for alpha in (1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0):
        cosmo = Cosmology(make_power_law(alpha), k=0, name="p")
        assert proper_radius(cosmo, 1.3) == pytest.approx(
            proper_radius_power_law(alpha, 1.3), rel=1e-9)


# ---------------------------------------------------------------------------
# identities

def test_identity_residual_zero_chi():
    assert velocity_identity_residual(MATTER, 1.0, 0.0) == 0.0


def test_identity_residual_milne():
    assert velocity_identity_residual(MILNE, 1.0, 1.0) < 1e-6


def test_identity_residual_matter():
    assert velocity_identity_residual(MATTER, 1.0, 1.0) < 1e-5


def test_geometry_relation_milne():
    lhs, rhs = power_law_geometry_relation(1.0, 2.0, 4.0)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert lhs == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-9)


def test_geometry_relation_power_laws():
    lhs, rhs = power_law_geometry_relation(0.5, 1.0, 4.0)
    assert lhs == pytest.approx(rhs, rel=1e-9)
    lhs, rhs = power_law_geometry_relation(2.0 / 3.0, 1.0, 100.0)
    assert lhs == pytest.approx(rhs, rel=1e-9)


# ---------------------------------------------------------------------------
# sigma_of_chi

def test_sigma_of_chi_milne():
    # chi = ln(sqrt(s) + sqrt(s-1)) inverts to s = cosh^2(chi)
    assert sigma_of_chi(MILNE, 1.0, 1.0) == pytest.approx(
        math.cosh(1.0) ** 2, rel=1e-9)


def test_sigma_of_chi_matter_near_reach():
    # comoving reach of the tau=1 matter slice is 3 * GAMMA_RATIO_SUP
    reach = 3.0 * GAMMA_RATIO_SUP
    s = sigma_of_chi(MATTER, 1.0, 3.8)
    assert s > 1e5
    assert chi_of_sigma(MATTER, 1.0, s) == pytest.approx(3.8, rel=1e-8)
    assert 3.8 < reach


def test_sigma_of_chi_beyond_reach():
    with pytest.raises(DomainError):
        sigma_of_chi(MATTER, 1.0, 4.0)
    with pytest.raises(DomainError):
        sigma_of_chi(MATTER, 1.0, 20.0)


def test_fermi_speed_unreachable_chi():
    with pytest.raises(DomainError):
        fermi_speed(MATTER, 1.0, 5.0)
