# Properties over random power-law models (k = 0 and -1), de Sitter
# models and tables: every public map returns a finite float or raises a
# FermiRWError, and the maps invert one another.

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermirw import (
    Cosmology,
    FermiRWError,
    RWEvent,
    chi_of_sigma,
    fermi_from_rw,
    fermi_speed,
    g_tau_tau,
    jacobian_F,
    lambda_k,
    make_exponential,
    make_power_law,
    make_tabulated,
    proper_radius,
    rho_of_sigma,
    rw_from_fermi,
    sigma_infinity,
    sigma_of_chi,
    sigma_of_rho,
    t_of_sigma,
)


def _finite(read):
    """read(), which must be a finite float, or None when it raises a
    FermiRWError.  Any other exception fails the test."""
    try:
        value = read()
    except FermiRWError:
        return None
    assert isinstance(value, float) and math.isfinite(value), value
    return value


def _rel(got: float, want: float) -> float:
    return abs(got / want - 1.0)


def _slice_maps(cosmo, tau: float, sigma: float):
    """(t, chi, rho) at sigma on the tau slice, or None where one of them
    raises.  Every map of the slice is finite or raises a FermiRWError,
    and sigma_of_rho and sigma_of_chi invert rho and chi within 1e-12."""
    _finite(lambda: proper_radius(cosmo, tau))
    _finite(lambda: jacobian_F(cosmo, tau, sigma))
    t = _finite(lambda: t_of_sigma(cosmo, tau, sigma))
    chi = _finite(lambda: chi_of_sigma(cosmo, tau, sigma))
    rho = _finite(lambda: rho_of_sigma(cosmo, tau, sigma))
    if None in (t, chi, rho):
        return None
    assert t > 0.0 and chi > 0.0 and rho > 0.0
    _finite(lambda: fermi_speed(cosmo, tau, chi).v_fermi)
    _finite(lambda: g_tau_tau(cosmo, tau, rho))
    _finite(lambda: lambda_k(cosmo, tau, rho))

    # Round trips through the inversions, in the well-conditioned
    # direction: sigma from rho near a slow power law's slice edge is not
    # (alpha = 0.21, sigma = 500 gave t back 2.8e-8 off).
    s_rho = _finite(lambda: sigma_of_rho(cosmo, tau, rho))
    if s_rho is not None:
        assert _rel(rho_of_sigma(cosmo, tau, s_rho), rho) <= 1e-12
    s_chi = _finite(lambda: sigma_of_chi(cosmo, tau, chi))
    if s_chi is not None:
        assert _rel(chi_of_sigma(cosmo, tau, s_chi), chi) <= 1e-12
    return t, chi, rho


def _check_event(cosmo, tau: float, sigma: float) -> None:
    """The maps at sigma on an analytic model's tau slice: t in (0, tau],
    and the event there maps back to its slice within 1e-10 in tau and
    to its chi within 1e-10."""
    maps = _slice_maps(cosmo, tau, sigma)
    if maps is None:
        return
    t, chi, _ = maps
    assert t <= tau
    try:
        fe = fermi_from_rw(cosmo, RWEvent(t, chi))
    except FermiRWError:
        return
    assert math.isfinite(fe.rho) and _rel(fe.tau, tau) <= 1e-10
    back = _finite(lambda: rw_from_fermi(cosmo, fe).chi)
    if back is not None:
        assert _rel(back, chi) <= 1e-10


def _sigma(share: float, top: float) -> float:
    """1 + 10^x, x that share of the way from -8 to log10(top)."""
    return 1.0 + 10.0 ** (-8.0 + share * (math.log10(top) + 8.0))


# sigma - 1 from 1e-8 to 1e4, drawn by its exponent.  Every power law
# here has alpha <= 1, so its slices are unbounded and every such sigma
# lies on them.
@given(alpha=st.floats(min_value=0.2, max_value=1.0),
       k=st.sampled_from([0, -1]),
       tau=st.floats(min_value=0.05, max_value=20.0),
       exponent=st.floats(min_value=-8.0, max_value=4.0))
@settings(max_examples=300, deadline=None)
def test_power_law_maps_are_finite_and_invert_one_another(alpha, k, tau,
                                                          exponent):
    _check_event(Cosmology(make_power_law(alpha), k=k), tau,
                 1.0 + 10.0 ** exponent)


# sigma - 1 from 1e-8 to 1e4, or to 0.999 of the way to sigma_infinity on
# an earlier slice.  tau's condition number is about sigma/(h0 tau): at
# sigma = 6.3e7 tau came back 8.8e-9 off, and at sigma = 5.3e14
# (h0 = 0.46, tau = 40.1), where 1 - (a H chi)^2 = 1/sigma is about
# 8 eps, 2 % off.  Over 2000 draws the round trips held within 4.4e-16,
# tau within 1.6e-12 and chi back within 3.1e-14, and none raised.
@given(h0=st.floats(min_value=0.3, max_value=3.0),
       h0_tau=st.floats(min_value=0.05, max_value=20.0),
       share=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=500, deadline=None)
def test_de_sitter_maps_are_finite_and_invert_one_another(h0, h0_tau, share):
    cosmo = Cosmology(make_exponential(h0), k=0)
    tau = h0_tau / h0
    top = min(1e4, 0.999 * (sigma_infinity(cosmo, tau) - 1.0))
    _check_event(cosmo, tau, _sigma(share, top))


@st.composite
def _tables(draw):
    """(table, t samples, a samples) of one of three families, 6 to 120
    samples: t^p, sinh(h t)^(2/3) (on t in [0.05, 20]) and random
    increments of t and a from a seed."""
    family = draw(st.sampled_from(["t^p", "sinh", "increments"]))
    n = draw(st.integers(min_value=6, max_value=120))
    if family == "increments":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        ts, a = (np.cumsum(rng.uniform(0.05, 1.0, n)) for _ in range(2))
    else:
        ts = np.geomspace(0.05, 20.0, n)
        a = (ts ** draw(st.floats(min_value=0.2, max_value=0.95))
             if family == "t^p" else
             np.sinh(draw(st.floats(min_value=0.3, max_value=1.5)) * ts)
             ** (2.0 / 3.0))
    return Cosmology(make_tabulated(list(zip(ts, a))), k=0), ts, a


# Slices from the third sample to 0.1 % short of the last, and sigma - 1
# from 1e-8 up to 1e4 or to where a(tau)/sqrt(sigma) reaches the second
# sample.  t <= tau does not hold here: the table's a and b interpolants
# disagree, so b(a(tau)) is not tau.  Over 60 tables per family, 5
# events each, the round trips held within 4.4e-16 and nothing raised
# but a FermiRWError.  Two known faults are left out, each pinned by a
# test below: at the last sample itself rho and chi near the observer
# lose their relative digits, and a search that ends past the last
# sample can return a negative rho.
@given(table=_tables(),
       tau_share=st.floats(min_value=0.0, max_value=1.0),
       share=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=300, deadline=None)
def test_table_maps_are_finite_and_invert_one_another(table, tau_share,
                                                      share):
    cosmo, ts, a = table
    tau = float(ts[2] + tau_share * (0.999 * ts[-1] - ts[2]))
    top = min(1e4, (float(cosmo.model.a(tau)) / a[1]) ** 2 - 1.0)
    maps = _slice_maps(cosmo, tau, _sigma(share, top))
    if maps is None:
        return
    t, chi, _ = maps
    try:
        fe = fermi_from_rw(cosmo, RWEvent(t, chi))
    except FermiRWError:
        return
    assert math.isfinite(fe.tau) and math.isfinite(fe.rho)
    assert fe.rho >= 0.0 or fe.tau > ts[-1]
    _finite(lambda: rw_from_fermi(cosmo, fe).chi)


def _sinh_table(h: float, n: int):
    ts = np.geomspace(0.05, 20.0, n)
    return Cosmology(make_tabulated(list(zip(ts, np.sinh(h * ts)
                                             ** (2.0 / 3.0)))), k=0)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="near-observer reads at a table's last sample, "
                   "where b' is 0, keep digits only relative to their piece")
def test_rho_round_trip_at_the_last_sample_of_a_table():
    # PCHIP's end slope of b = t(a) is 0 here (b' reads -2.6e-23 at
    # a(20)): b says the expansion rate is infinite at t = 20, and rho
    # grows like u^3 near the observer.  The store resolves each piece
    # relative to its own total, so rho at sigma - 1 = 1e-8 (9.1e-17,
    # against 0.46 at sigma = 2) came back 8.2e-7 off through sigma.
    cosmo = _sinh_table(1.5, 6)
    rho = rho_of_sigma(cosmo, 20.0, 1.0 + 1e-8)
    assert _rel(rho_of_sigma(cosmo, 20.0, sigma_of_rho(cosmo, 20.0, rho)),
                rho) <= 1e-12


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the slice search is not kept inside a table's "
                   "samples")
def test_search_past_the_last_sample_returns_no_negative_rho():
    # The event lies inside the samples (t = 13.2), but the search ends
    # on the tau = 26.46 slice, past the last sample at t = 20, where the
    # end cubic of b = t(a) runs down: it returned rho = -0.339.
    cosmo = _sinh_table(1.0, 31)
    ev = RWEvent(t_of_sigma(cosmo, 19.0, 4000.0),
                 chi_of_sigma(cosmo, 19.0, 4000.0))
    try:
        fe = fermi_from_rw(cosmo, ev)
    except FermiRWError:
        return
    assert fe.rho >= 0.0
