# Orthogonal spacelike geodesic maps and the ODE cross-check.

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermirw import (
    DEFAULT_CONFIG,
    GAMMA_RATIO_SUP,
    Cosmology,
    DomainError,
    chi_of_sigma,
    fermi_speed,
    integrate_geodesic_ode,
    make_exponential,
    make_power_law,
    make_tabulated,
    proper_radius,
    rho_of_sigma,
    sample_geodesic,
    sigma_infinity,
    sigma_of_chi,
    sigma_of_rho,
    t_of_sigma,
)
from fermirw import geodesics, numerics
from fermirw.geodesics import lapse_bracket, slice_end
from fermirw.kinematics import _power_integral
from fermirw.verify import _tabulated_matterlike

MILNE = Cosmology(make_power_law(1.0), k=-1, name="milne")
RADIATION = Cosmology(make_power_law(0.5), k=0, name="radiation")
MATTER = Cosmology(make_power_law(2.0 / 3.0), k=0, name="matter")
DESITTER = Cosmology(make_exponential(1.0), k=0, name="de-sitter")
TABLE = _tabulated_matterlike()


# ---------------------------------------------------------------------------
# t_of_sigma

def test_t_at_observer():
    for cosmo in (MILNE, RADIATION, MATTER):
        assert t_of_sigma(cosmo, 1.7, 1.0) == pytest.approx(1.7, rel=1e-14)


def test_t_milne():
    assert t_of_sigma(MILNE, 2.0, 4.0) == pytest.approx(1.0, rel=1e-12)


def test_t_radiation():
    assert t_of_sigma(RADIATION, 3.0, 9.0) == pytest.approx(1.0 / 3.0,
                                                            rel=1e-12)


def test_t_matter_power():
    # t = tau / sigma^(3/4)
    assert t_of_sigma(MATTER, 1.0, 16.0) == pytest.approx(1.0 / 8.0,
                                                          rel=1e-12)


def test_t_sigma_range():
    with pytest.raises(DomainError):
        t_of_sigma(MILNE, 1.0, 0.5)
    with pytest.raises(DomainError):
        t_of_sigma(MILNE, 0.0, 2.0)


def test_t_beyond_sigma_infinity():
    # exponential model at tau=1 has sigma_inf = e^2
    with pytest.raises(DomainError):
        t_of_sigma(DESITTER, 1.0, math.e ** 2 + 1.0)


# ---------------------------------------------------------------------------
# chi_of_sigma

def test_chi_at_observer():
    assert chi_of_sigma(RADIATION, 1.0, 1.0) == 0.0


def test_chi_milne_tau_independent():
    want = math.log(2.0 + math.sqrt(3.0))
    for tau in (0.3, 2.0, 7.0):
        assert chi_of_sigma(MILNE, tau, 4.0) == pytest.approx(want, rel=1e-10)


def test_chi_radiation():
    # chi = 2 sqrt(tau) arccos(1/sqrt(sigma))
    assert chi_of_sigma(RADIATION, 1.0, 4.0) == pytest.approx(
        2.0 * math.pi / 3.0, rel=1e-10)


# ---------------------------------------------------------------------------
# rho_of_sigma

def test_rho_at_observer():
    assert rho_of_sigma(MATTER, 1.0, 1.0) == 0.0


def test_rho_milne():
    assert rho_of_sigma(MILNE, 2.0, 4.0) == pytest.approx(math.sqrt(3.0),
                                                          rel=1e-10)


def test_rho_radiation():
    assert rho_of_sigma(RADIATION, 1.0, 2.0) == pytest.approx(
        0.5 + math.pi / 4.0, rel=1e-10)
    assert rho_of_sigma(RADIATION, 1.0, 4.0) == pytest.approx(
        math.sqrt(3.0) / 4.0 + math.pi / 3.0, rel=1e-10)


def test_maps_monotone_in_sigma():
    sigmas = np.geomspace(1.0, 400.0, 12)
    for cosmo in (MILNE, RADIATION, MATTER):
        ts = [t_of_sigma(cosmo, 1.0, s) for s in sigmas]
        chis = [chi_of_sigma(cosmo, 1.0, s) for s in sigmas]
        rhos = [rho_of_sigma(cosmo, 1.0, s) for s in sigmas]
        assert all(a > b for a, b in zip(ts, ts[1:]))
        assert all(a < b for a, b in zip(chis, chis[1:]))
        assert all(a < b for a, b in zip(rhos, rhos[1:]))


# ---------------------------------------------------------------------------
# sample_geodesic

def test_sample_endpoints():
    pts = sample_geodesic(RADIATION, 2.0, 9.0, 2)
    assert len(pts) == 2
    assert pts[0].sigma == pytest.approx(1.0)
    assert pts[0].t == pytest.approx(2.0)
    assert pts[0].rho == 0.0
    assert pts[1].sigma == pytest.approx(9.0)


@pytest.mark.parametrize("n", [2.5, 3.0, "4", None])
def test_sample_count_must_be_an_integer(n):
    with pytest.raises(DomainError, match="integer"):
        sample_geodesic(RADIATION, 2.0, 9.0, n)


def test_sample_accepts_a_numpy_integer_count():
    assert len(sample_geodesic(RADIATION, 2.0, 9.0, np.int64(3))) == 3


def test_sample_milne_radius_column():
    pts = sample_geodesic(MILNE, 1.0, 100.0, 5)
    rhos = [p.rho for p in pts]
    assert all(a < b for a, b in zip(rhos, rhos[1:]))
    assert rhos[-1] == pytest.approx(math.sqrt(0.99), rel=1e-10)


def test_sample_matter_t_column():
    pts = sample_geodesic(MATTER, 1.0, 10.0, 5)
    ts = [p.t for p in pts]
    assert all(a > b for a, b in zip(ts, ts[1:]))
    for p in pts:
        assert p.t == pytest.approx(p.sigma ** -0.75, rel=1e-10)


def test_sample_sigma_consistency():
    for cosmo in (RADIATION, MATTER):
        for p in sample_geodesic(cosmo, 1.3, 50.0, 7):
            a_ratio = cosmo.model.a(p.tau) / cosmo.model.a(p.t)
            assert a_ratio ** 2 == pytest.approx(p.sigma, rel=1e-8)


def test_sample_needs_two_points():
    with pytest.raises(DomainError):
        sample_geodesic(MILNE, 1.0, 4.0, 1)


# ---------------------------------------------------------------------------
# integrate_geodesic_ode

def test_ode_zero_length_path():
    pts = integrate_geodesic_ode(MILNE, 1.0, 0.0, 1e-3)
    assert len(pts) == 1
    assert pts[0].t == pytest.approx(1.0)
    assert pts[0].chi == 0.0


def test_ode_milne_endpoint():
    pts = integrate_geodesic_ode(MILNE, 1.0, 0.9, 0.9 / 4000)
    assert pts[-1].t == pytest.approx(math.sqrt(1.0 - 0.81), abs=1e-6)
    assert pts[-1].chi == pytest.approx(math.atanh(0.9), abs=1e-6)


def test_ode_radiation_against_quadrature():
    pts = integrate_geodesic_ode(RADIATION, 1.0, 1.2, 1.2 / 4000)
    sigma = sigma_of_rho(RADIATION, 1.0, 1.2)
    assert pts[-1].t == pytest.approx(t_of_sigma(RADIATION, 1.0, sigma),
                                      abs=1e-6)
    assert pts[-1].chi == pytest.approx(chi_of_sigma(RADIATION, 1.0, sigma),
                                        abs=1e-6)


def test_ode_sigma_consistency():
    for p in integrate_geodesic_ode(MATTER, 1.0, 1.0, 1.0 / 2000)[::250]:
        a_ratio = MATTER.model.a(p.tau) / MATTER.model.a(p.t)
        assert a_ratio ** 2 == pytest.approx(p.sigma, rel=1e-8)


def test_ode_unit_speed_residual():
    # (dt/drho)^2 from centered differences must satisfy the constraint
    # (a0/a(t))^2 - 1 up to O(step^2).
    step = 1e-3
    pts = integrate_geodesic_ode(RADIATION, 1.0, 1.0, step)
    a0 = RADIATION.model.a(1.0)
    for i in range(10, len(pts) - 10, 97):
        dt = (pts[i + 1].t - pts[i - 1].t) / (pts[i + 1].rho
                                              - pts[i - 1].rho)
        want = (a0 / RADIATION.model.a(pts[i].t)) ** 2 - 1.0
        assert dt * dt == pytest.approx(want, abs=5e-5)


def test_ode_beyond_slice_leaves_domain():
    # Milne slice radius at tau=1 is 1.  The integrator does not know
    # that number (it would tie the oracle to the quadrature route); it
    # fails by construction when t is driven through zero.
    with pytest.raises(DomainError):
        integrate_geodesic_ode(MILNE, 1.0, 1.5, 1e-3)


@pytest.mark.parametrize("kwargs", [
    {"rho_max": 1.0, "step": math.nan},
    {"rho_max": 1.0, "step": math.inf},
    {"rho_max": math.nan, "step": 1e-3},
    {"rho_max": math.inf, "step": 1e-3},
])
def test_ode_non_finite_inputs(kwargs):
    with pytest.raises(DomainError):
        integrate_geodesic_ode(RADIATION, 1.0, **kwargs)


@pytest.mark.parametrize(
    "step", [1e-300, 1.0 / (geodesics._ODE_MAX_STEPS + 1)])
def test_ode_step_count_is_capped(step):
    # Raised before the first step: 1e-300 would run about 1e300 of them.
    with pytest.raises(DomainError, match="exceed the cap"):
        integrate_geodesic_ode(RADIATION, 1.0, 1.0, step)


# ---------------------------------------------------------------------------
# slice integrals and lapse_bracket

def test_slice_integral_radiation_radius():
    # b'(x) = 2x and a0 = sqrt(tau): the rho integral to sigma = inf is
    # 2 a0 * integral s^-2 (s-1)^-1/2 = pi a0, so rho_M = a0^2 pi/2 = pi.
    assert proper_radius(RADIATION, 2.0) == pytest.approx(math.pi, rel=1e-12)


def test_slice_integral_near_one_leading_order():
    # sigma - 1 = 2^-40 is exact in binary, so sqrt(sigma - 1) = 2^-20.
    # On matter b''(x) = (3/4) x^(-1/2), and the integral is
    # (3/4) a0^(-1/2) B(1/4, 1/2) I_y(1/2, 1/4), y = (sigma - 1)/sigma,
    # which the leading order 2 b''(a0) 2^-20 misses by 2.3e-13.
    sigma, a0 = 1.0 + 2.0 ** -40, float(MATTER.model.a(1.3))
    want = 0.75 * a0 ** -0.5 * _power_integral(0.75, sigma)
    st = geodesics.store(MATTER, 1.3)
    assert st.integral({geodesics._LAPSE: 1.0}, 2.0 ** -20) == \
        pytest.approx(want, rel=1e-14, abs=0.0)
    assert st.integral({geodesics._RHO: 1.0}, 0.0) == 0.0


def test_lapse_bracket_is_unit_lapse_on_the_worldline():
    for cosmo in (MILNE, RADIATION, MATTER, DESITTER):
        bracket = lapse_bracket(cosmo, 1.7, 1.0)
        assert float(cosmo.model.a_dot(1.7)) * bracket == pytest.approx(
            1.0, rel=1e-12)


def test_slice_maps_split_at_table_knots(count_panels):
    # tau = 1, sigma = 16 crosses about 220 table knots.  Without the knot
    # split these calls took 628, 522 and 650 G7/K15 panels.  The cold chi
    # read builds the store's head, to sigma = 32, which rho then reads
    # with no panel; the radius adds the radial tail.
    cosmo, cfg = _tabulated_matterlike(), DEFAULT_CONFIG
    geodesics._cached_store.cache_clear()
    chi, rho, radius = (count_panels(call) for call in (
        lambda: chi_of_sigma(cosmo, 1.0, 16.0, cfg),
        lambda: rho_of_sigma(cosmo, 1.0, 16.0, cfg),
        lambda: proper_radius(cosmo, 1.0, cfg)))
    assert 0 < chi < 628 / 2
    assert rho == 0
    assert 0 < radius < 650 / 2


def test_inversions_cost_about_one_slice_integral(count_panels):
    # An inversion evaluates no panel of its own: a cold one builds the
    # store pieces a read builds (for rho, the whole radial track, as the
    # slice radius does), and a warm one none.  Bracket growth plus Brent
    # took 3651 and 3045 panels here, and each inversion used to end with
    # one polish panel.
    cosmo, cfg = _tabulated_matterlike(), DEFAULT_CONFIG
    rho = rho_of_sigma(cosmo, 1.0, 16.0, cfg)
    chi = chi_of_sigma(cosmo, 1.0, 16.0, cfg)
    for read, invert, target in (
            (lambda: proper_radius(cosmo, 1.0, cfg),
             lambda x: sigma_of_rho(cosmo, 1.0, x, cfg), rho),
            (lambda: chi_of_sigma(cosmo, 1.0, 16.0, cfg),
             lambda x: sigma_of_chi(cosmo, 1.0, x, cfg), chi)):
        geodesics._cached_store.cache_clear()
        cold = count_panels(read)
        assert cold > 0
        geodesics._cached_store.cache_clear()
        assert count_panels(lambda: invert(target)) == cold
        # Next to the last answer, which the store would repeat.
        assert count_panels(lambda: invert(math.nextafter(target, 0.0))) == 0


def test_table_slice_integral_batches_model_calls():
    # The first panel of every knot piece comes from one model call per
    # u or s range; one call per piece made about 220 here.
    calls = [0]
    b_dot = TABLE.model.b_dot

    def counting(x):
        calls[0] += 1
        return b_dot(x)

    counted = Cosmology(replace(TABLE.model, b_dot=counting), k=0)
    rho = rho_of_sigma(counted, 1.0, 16.0)
    assert rho == rho_of_sigma(TABLE, 1.0, 16.0)
    assert 0 < calls[0] <= 4


def test_table_store_builds_no_heap(work):
    # The read at sigma = 16 builds the head it reaches, pieces 0 to 2, in
    # one first pass, and every piece of a table store passes on it: one
    # kernel call and no bisection, and the read evaluates no panel of
    # its own.  Built one piece at a time, it took three kernel calls.
    # A new b_dot callable makes a new cache key, so the store is cold.
    b_dot = TABLE.model.b_dot
    cosmo = Cosmology(replace(TABLE.model, b_dot=lambda x: b_dot(x)), k=0)
    rho_of_sigma(cosmo, 1.0, 16.0)
    built = len(geodesics.store(cosmo, 1.0).tracks[False].pieces)
    assert built == 3        # u in [0, 1] and two dyadic s pieces
    assert work == {"first_passes": 1, "kernel_calls": 1, "sums": 1}


def _piece_by_piece(driver):
    """Reference driver: driver on each knot piece of each range alone,
    the accepted panels joined in piece order."""
    def run(fs, ranges, rel_tol):
        out = []
        for f, nodes in zip(fs, ranges):
            pieces = [driver([f], [nodes[i:i + 2]], rel_tol)[0]
                      for i in range(nodes.size - 1)]
            starts, ends, vals, ys = zip(*pieces)
            out.append((np.concatenate(starts), np.concatenate(ends),
                        np.concatenate(vals, axis=1),
                        np.concatenate(ys, axis=1)))
        return out
    return run


@given(st.sampled_from(["table", "matter", "de-sitter"]),
       st.floats(min_value=0.5, max_value=2.0),
       st.floats(min_value=1e-6, max_value=1.0),
       st.sampled_from([(1, 0.5), (1, 1.5), (2, 1.0)]))
@settings(max_examples=40, deadline=None)
def test_one_heap_matches_a_piece_by_piece_loop(direct_integral, name, tau,
                                                frac, kind):
    cosmo = {"table": TABLE, "matter": MATTER, "de-sitter": DESITTER}[name]
    cfg = DEFAULT_CONFIG
    u = math.sqrt(frac * (min(16.0, slice_end(cosmo, tau)) - 1.0))
    got = direct_integral(cosmo, tau, u, kind, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "_adaptive_panels",
                   _piece_by_piece(numerics._adaptive_panels))
        reference = direct_integral(cosmo, tau, u, kind, cfg)
    assert abs(got - reference) <= cfg.quad_rel_tol * abs(reference)


@pytest.mark.parametrize("name, tau", [("matter", 1.3), ("de-sitter", 2.5),
                                       ("table", 1.7)])
@pytest.mark.parametrize("sigma", [1.5, 2.0, 6.0, 30.0])
def test_lapse_rides_on_the_chi_panels(count_panels, direct_integral, name,
                                       tau, sigma):
    # fermi_from_rw's pass reads chi and the lapse integral at u from the
    # slice's store, which sums both on the same panels: once chi is read,
    # the lapse read evaluates no panel, so the search's slope costs no
    # integral of its own.  Each read matches its direct integral.
    cosmo = {"table": TABLE, "matter": MATTER, "de-sitter": DESITTER}[name]
    cfg = DEFAULT_CONFIG
    st, u, got = geodesics.Slice(cosmo, tau, cfg), math.sqrt(sigma - 1.0), []
    for comp in (geodesics._CHI, geodesics._LAPSE):
        n = count_panels(lambda: got.append(st.integral({comp: 1.0}, u)))
        assert (n > 0) == (comp == geodesics._CHI)
    chi, lapse = got
    assert chi == pytest.approx(
        direct_integral(cosmo, tau, u, geodesics._CHI, cfg),
        rel=cfg.quad_rel_tol)
    assert lapse == pytest.approx(
        direct_integral(cosmo, tau, u, geodesics._LAPSE, cfg),
        rel=cfg.quad_rel_tol)


# ---------------------------------------------------------------------------
# invert_slice_map through sigma_of_rho and sigma_of_chi


def _sigma_top(cosmo, tau):
    """Top of the test range: sigma = 16, or 90 % of a finite slice."""
    return min(16.0, 1.0 + 0.9 * (sigma_infinity(cosmo, tau) - 1.0))


@given(st.sampled_from([MILNE, RADIATION, MATTER, DESITTER]),
       st.floats(min_value=0.3, max_value=3.0),
       st.floats(min_value=1e-6, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_inversions_round_trip(cosmo, tau, frac):
    u = frac * math.sqrt(_sigma_top(cosmo, tau) - 1.0)
    sigma = 1.0 + u * u
    rho = rho_of_sigma(cosmo, tau, sigma)
    chi = chi_of_sigma(cosmo, tau, sigma)
    assert sigma_of_rho(cosmo, tau, rho) == pytest.approx(sigma, rel=1e-10)
    assert sigma_of_chi(cosmo, tau, chi) == pytest.approx(sigma, rel=1e-8)


@pytest.mark.parametrize("cosmo", [DESITTER, TABLE],
                         ids=["de-sitter", "table"])
def test_sigma_of_rho_next_to_the_slice_radius(cosmo):
    rho = (1.0 - 1e-9) * proper_radius(cosmo, 1.0)
    sigma = sigma_of_rho(cosmo, 1.0, rho)
    assert 1.0 < sigma < sigma_infinity(cosmo, 1.0)
    assert rho_of_sigma(cosmo, 1.0, sigma) == pytest.approx(rho, rel=1e-10)


@pytest.mark.parametrize("cosmo", [DESITTER, TABLE],
                         ids=["de-sitter", "table"])
def test_sigma_of_chi_beyond_a_finite_slice(cosmo):
    reach = chi_of_sigma(cosmo, 1.0, slice_end(cosmo, 1.0))
    inside = sigma_of_chi(cosmo, 1.0, (1.0 - 1e-6) * reach)
    assert 1.0 < inside < sigma_infinity(cosmo, 1.0)
    with pytest.raises(DomainError):
        sigma_of_chi(cosmo, 1.0, 1.001 * reach)


@pytest.mark.parametrize("tau", [-1.0, 0.0, math.nan, math.inf])
def test_inversions_reject_a_bad_tau(tau):
    with pytest.raises(DomainError):
        sigma_of_rho(MATTER, tau, 0.5)
    with pytest.raises(DomainError):
        sigma_of_chi(MATTER, tau, 0.5)


@pytest.mark.parametrize("cosmo", [MATTER, DESITTER],
                         ids=["matter", "de-sitter"])
def test_inversions_of_a_tiny_target(cosmo):
    assert sigma_of_rho(cosmo, 1.0, 1e-300) == 1.0
    assert sigma_of_chi(cosmo, 1.0, 1e-300) == 1.0


@pytest.mark.parametrize("tau", [10.0, 20.0, 30.0, 40.0])
@pytest.mark.parametrize("sigma", [10.0, 1e3, 1e6])
def test_late_de_sitter_slice_integral_is_relative(tau, sigma):
    # chi = sqrt(sigma - 1) e^-tau is as small as 1.3e-17 here; every
    # range is resolved relative to its own total (an absolute floor of
    # 5e-15 left it 41 % off at tau = 40, sigma = 1e6).
    got = chi_of_sigma(DESITTER, tau, sigma)
    assert got == pytest.approx(math.sqrt(sigma - 1.0) * math.exp(-tau),
                                rel=1e-11, abs=0.0)


@pytest.mark.parametrize("cosmo", [MATTER, RADIATION],
                         ids=["matter", "radiation"])
@pytest.mark.parametrize("tau", [1.0, 1e-20, 1e-40, 1e-60, 1e-200])
def test_sigma_of_chi_round_trips_at_every_scale(cosmo, tau):
    # A power-law slice is scale-free, chi ~ tau^(1 - alpha), so the
    # inversion must not depend on tau.  An absolute stall floor of 1e-12
    # put these chi beyond the slice's reach from tau = 1e-40 on matter
    # (1e-20 on radiation).
    for sigma in (1e3, 1e4, 1e6):
        chi = chi_of_sigma(cosmo, tau, sigma)
        assert sigma_of_chi(cosmo, tau, chi) == pytest.approx(sigma,
                                                              rel=1e-12)


def _chi_at_the_end(call) -> float:
    """The chi that the DomainError of call() names at its slice's end."""
    with pytest.raises(DomainError, match="beyond the comoving reach") as exc:
        call()
    return float(re.search(r"chi = (\S+) at its end", str(exc.value))[1])


@pytest.mark.parametrize("tau", [1.0, 1e-40])
def test_chi_beyond_reach_saturates_at_every_scale(tau):
    # An unbounded slice's store ends with the dyadic piece whose end
    # sigma overflows, 2^1025.  Where chi converges, the chi there is the
    # comoving reach to rounding, at every scale: 3 GAMMA_RATIO_SUP
    # tau^(1/3) on matter, pi sqrt(tau) on radiation.  Guessed from the
    # pieces' increments, the bound read 4.2715 tau^(1/3) on matter.
    for cosmo, reach in ((MATTER, 3.0 * GAMMA_RATIO_SUP * tau ** (1.0 / 3.0)),
                         (RADIATION, math.pi * math.sqrt(tau))):
        got = _chi_at_the_end(lambda: sigma_of_chi(cosmo, tau, 10.0 * reach))
        assert got == pytest.approx(reach, rel=1e-12)


def test_milne_chi_inverts_up_to_where_sigma_overflows():
    # chi = ln(sqrt(sigma) + sqrt(sigma - 1)) has no finite reach: chi =
    # 50 lies 43 doublings of u out, and the track ends at sigma = 2^1025,
    # chi = (1027/2) ln 2.  Between the ends of sigma = 2^1024 and 2^1025
    # chi is reached only past the float range.
    sigma = sigma_of_chi(MILNE, 1.0, 50.0)
    assert sigma == pytest.approx(math.cosh(50.0) ** 2, rel=1e-12)
    assert chi_of_sigma(MILNE, 1.0, sigma) == pytest.approx(50.0, rel=1e-12)
    assert _chi_at_the_end(lambda: sigma_of_chi(MILNE, 1.0, 400.0)) == \
        pytest.approx(513.5 * math.log(2.0), rel=1e-12)
    with pytest.raises(DomainError, match="float range"):
        sigma_of_chi(MILNE, 1.0, 355.7)


@pytest.mark.parametrize("tau", [19.0, 20.0])
def test_chi_inverts_where_its_increments_decay_and_grow(tau):
    # On this rough table chi's increments per dyadic piece decay and then
    # grow again: a geometric bound extrapolated from the decay put
    # chi(sigma = 1000) beyond the slice (3.22486 at tau = 19, 3.53039 at
    # tau = 20).
    rng = np.random.default_rng(7)
    ts = np.cumsum(rng.uniform(0.05, 1.0, 40))
    a = np.cumsum(rng.uniform(0.01, 1.0, 40))
    cosmo = Cosmology(make_tabulated(list(zip(ts, a))), k=0)
    for sigma in (10.0, 100.0, 300.0, 1000.0):
        chi = chi_of_sigma(cosmo, tau, sigma)
        assert sigma_of_chi(cosmo, tau, chi) == pytest.approx(sigma,
                                                              rel=1e-12)
        assert fermi_speed(cosmo, tau, chi).sigma0 == pytest.approx(
            sigma, rel=1e-12)


@pytest.mark.parametrize("factor", [0.1, 10.0])
@pytest.mark.parametrize("cosmo", [MATTER, DESITTER, TABLE],
                         ids=["matter", "de-sitter", "table"])
def test_inversions_survive_a_wrong_slope(monkeypatch, cosmo, factor):
    # Newton steps of numerics._panel_root ten times too long overshoot
    # and must fall back on bisection; steps ten times too short must
    # still creep to the root.  sigma is inside a store piece: at the
    # end of one the linear guess is the root.
    sigma = _sigma_top(cosmo, 1.0) / 3.0
    rho = rho_of_sigma(cosmo, 1.0, sigma)
    chi = chi_of_sigma(cosmo, 1.0, sigma)
    want = (sigma_of_rho(cosmo, 1.0, rho), sigma_of_chi(cosmo, 1.0, chi))
    # A fresh store, so that the calls below invert rather than repeat
    # the last answers of the one above.
    geodesics._cached_store.cache_clear()
    series, calls = numerics._panel_eval, [0]

    def wrong(*args):
        calls[0] += 1
        mean, slope = series(*args)
        return mean, factor * slope
    monkeypatch.setattr(numerics, "_panel_eval", wrong)
    assert sigma_of_rho(cosmo, 1.0, rho) == pytest.approx(want[0], rel=1e-13)
    assert sigma_of_chi(cosmo, 1.0, chi) == pytest.approx(want[1], rel=1e-13)
    assert calls[0] > 2


def test_panel_root_stops_once_newton_converges(monkeypatch):
    # In these two inversions Newton's last step rounds onto the end of
    # its bracket; a bracket test before the convergence test sent it to
    # the midpoint and bisected down to 8 eps, 27 and 38 steps.  Each
    # call runs on a new model, and so on a cold slice store.
    calls = (lambda c: sigma_of_rho(c, 0.6040636250624591,
                                    0.7795109709992786),
             lambda c: sigma_of_chi(c, 0.8305781375076663,
                                    2.244821792356391))
    want = [repr(call(Cosmology(make_power_law(2.0 / 3.0), k=0)))
            for call in calls]
    monkeypatch.setattr(numerics, "_PANEL_ROOT_CAP", 6)
    assert [repr(call(Cosmology(make_power_law(2.0 / 3.0), k=0)))
            for call in calls] == want
