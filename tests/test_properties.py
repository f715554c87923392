# Properties over random power-law models, k = 0 and -1: every public map
# returns a finite float or raises a FermiRWError, and the maps invert
# one another.

import math

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
    make_power_law,
    proper_radius,
    rho_of_sigma,
    rw_from_fermi,
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
    cosmo = Cosmology(make_power_law(alpha), k=k)
    sigma = 1.0 + 10.0 ** exponent
    _finite(lambda: proper_radius(cosmo, tau))
    _finite(lambda: jacobian_F(cosmo, tau, sigma))
    t = _finite(lambda: t_of_sigma(cosmo, tau, sigma))
    chi = _finite(lambda: chi_of_sigma(cosmo, tau, sigma))
    rho = _finite(lambda: rho_of_sigma(cosmo, tau, sigma))
    if None in (t, chi, rho):
        return
    assert 0.0 < t <= tau and chi > 0.0 and rho > 0.0
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

    # The event at sigma on the tau slice: the search finds its slice,
    # and the map back gives its chi.
    try:
        fe = fermi_from_rw(cosmo, RWEvent(t, chi))
    except FermiRWError:
        return
    assert math.isfinite(fe.rho) and _rel(fe.tau, tau) <= 1e-10
    back = _finite(lambda: rw_from_fermi(cosmo, fe).chi)
    if back is not None:
        assert _rel(back, chi) <= 1e-10
