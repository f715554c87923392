# The contract of the public surface: every call returns finite numbers
# or raises a FermiRWError subclass, never a NaN, an inf or a stray
# exception.  A deterministic grid of hostile arguments drives every
# public numeric function, the model-bound ones over Milne, matter, de
# Sitter and a 60-knot table, and the maps of the closed-form bundles.

import dataclasses
import itertools
import math
import types

import numpy as np
import pytest

from fermirw import (
    Cosmology,
    DomainError,
    FermiEvent,
    FermiRWError,
    RWEvent,
    chi_of_sigma,
    comoving_flow_fermi,
    fermi_from_rw,
    fermi_speed,
    fermi_speed_power_law,
    fermi_speed_sup,
    find_root_monotone,
    g_tau_tau,
    gamma_fn,
    hubble,
    hubble_speed,
    hyp2f1,
    integrate_geodesic_ode,
    integrate_sigma,
    jacobian_F,
    lambda_k,
    make_exponential,
    make_power_law,
    make_tabulated,
    metric_cartesian,
    metric_polar,
    power_law_geometry_relation,
    proper_radius,
    proper_radius_power_law,
    rho_of_sigma,
    rw_from_fermi,
    s_k,
    sample_geodesic,
    sigma_infinity,
    sigma_of_chi,
    sigma_of_rho,
    t_of_sigma,
    velocity_identity_residual,
)
import fermirw
from fermirw import closed_forms
from fermirw.geodesics import lapse_bracket

GRID = (math.nan, math.inf, -math.inf, -1.0, 0.0, 1e-300, 1e-12, 1.0,
        1.0 + 2.0 ** -52, 1.5, 1e6, 1e300)
PAIRS = list(itertools.product(GRID, GRID))
# For wrappers, each call of which makes several calls the full grid
# already drives: samples of the slice maps, finite differences of the
# slice maps around fermi_speed, and the comoving flow's fermi_from_rw
# with a chi inversion and a lapse read.
COARSE_PAIRS = list(itertools.product(
    (math.nan, math.inf, -1.0, 0.0, 1e-300, 1.0, 1.5, 1e300), repeat=2))

_TS = np.geomspace(0.05, 100.0, 60)
# Every model runs at the default config, tables too.  The exp(t) table, 45
# knots up to t = 14.5, accelerates (b'' < 0): its chart is bounded, as
# de Sitter's is.
MODELS = {
    "milne": Cosmology(make_power_law(1.0), k=-1),
    "matter": Cosmology(make_power_law(2.0 / 3.0), k=0),
    "de-sitter": Cosmology(make_exponential(1.0), k=0),
    "table": Cosmology(make_tabulated(list(zip(_TS, _TS ** (2.0 / 3.0)))),
                       k=0),
    "exp-table": Cosmology(make_tabulated(list(zip(_TS[:45],
                                                   np.exp(_TS[:45])))), k=0),
}


def _floats(value):
    """Every number in a result: a float, an array, a dataclass or a
    sequence of them."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.astuple(value)
    if isinstance(value, (tuple, list)):
        return [x for v in value for x in _floats(v)]
    return np.ravel(np.asarray(value, dtype=float)).tolist()


def _breach(call, allow_inf=False):
    """None when call() keeps the contract, else what it did."""
    try:
        out = call()
    except FermiRWError:
        return None
    except Exception as exc:  # any other exception breaks the contract
        return f"{type(exc).__name__}: {exc}"
    bad = [v for v in _floats(out)
           if not (math.isfinite(v) or (allow_inf and v == math.inf))]
    return f"returned {out!r}" if bad else None


def _assert_contract(fn, args, allow_inf=False):
    breaches = [(a, b) for a in args
                if (b := _breach(lambda: fn(*a), allow_inf)) is not None]
    assert not breaches, "\n".join(f"{a}: {b}" for a, b in breaches)


# (cosmo, x, y) -> result, x the slice or event time.
PAIR_CALLS = {
    "t_of_sigma": lambda c, x, y: t_of_sigma(c, x, y),
    "chi_of_sigma": lambda c, x, y: chi_of_sigma(c, x, y),
    "rho_of_sigma": lambda c, x, y: rho_of_sigma(c, x, y),
    "lapse_bracket": lambda c, x, y: lapse_bracket(c, x, y),
    "jacobian_F": lambda c, x, y: jacobian_F(c, x, y),
    "integrate_geodesic_ode":
        lambda c, x, y: integrate_geodesic_ode(c, x, y, y / 8.0),
    "sigma_of_rho": lambda c, x, y: sigma_of_rho(c, x, y),
    "sigma_of_chi": lambda c, x, y: sigma_of_chi(c, x, y),
    "hubble_speed": lambda c, x, y: hubble_speed(c, x, y),
    "fermi_speed": lambda c, x, y: fermi_speed(c, x, y),
    "g_tau_tau": lambda c, x, y: g_tau_tau(c, x, y),
    "metric_polar": lambda c, x, y: metric_polar(c, x, y),
    "lambda_k": lambda c, x, y: lambda_k(c, x, y),
    "metric_cartesian":
        lambda c, x, y: metric_cartesian(c, x, y, 0.0, 0.0),
    "rw_from_fermi":
        lambda c, x, y: rw_from_fermi(c, FermiEvent(x, y)),
    "fermi_from_rw":
        lambda c, x, y: fermi_from_rw(c, RWEvent(x, y)),
}
WRAPPER_CALLS = {
    "sample_geodesic": lambda c, x, y: sample_geodesic(c, x, y, 3),
    "velocity_identity_residual":
        lambda c, x, y: velocity_identity_residual(c, x, y),
    "comoving_flow_fermi":
        lambda c, x, y: comoving_flow_fermi(c, RWEvent(x, y)),
}


@pytest.mark.parametrize("name", [*PAIR_CALLS, *WRAPPER_CALLS])
@pytest.mark.parametrize("model", MODELS)
def test_model_pair_functions(model, name):
    cosmo = MODELS[model]
    fn, pairs = ((PAIR_CALLS[name], PAIRS) if name in PAIR_CALLS
                 else (WRAPPER_CALLS[name], COARSE_PAIRS))
    _assert_contract(lambda x, y: fn(cosmo, x, y), pairs)


@pytest.mark.parametrize("x", [1e-300, 1e-12])
@pytest.mark.parametrize("model", MODELS)
def test_model_first_order_near_the_observer(model, x):
    # At chi = rho = chi0 = x the maps take their first-order values:
    # rho = a chi, ang = rho^2 (which underflows to 0 at 1e-300) and
    # v = a' chi0.  sigma - 1 rounds to 0 there, so a map that reads
    # sigma returns 0.
    cosmo = MODELS[model]
    a, adot = float(cosmo.model.a(1.0)), float(cosmo.model.a_dot(1.0))
    for got, want in (
            (fermi_from_rw(cosmo, RWEvent(1.0, x)).rho, a * x),
            (metric_polar(cosmo, 1.0, x).ang, x * x),
            (fermi_speed(cosmo, 1.0, x).v_fermi, adot * x)):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("x", [0.0, 0.1])
@pytest.mark.parametrize("model", MODELS)
def test_transforms_reject_angles_that_are_not_finite(model, x):
    # Angles pass through the transforms, so a NaN or inf one would be
    # returned as it came (theta = nan, phi = inf on Milne), at the
    # observer (x = 0) too.
    cosmo = MODELS[model]
    for theta, phi in itertools.product(
            (math.nan, math.inf, -math.inf, 1.1), repeat=2):
        if theta == 1.1 and phi == 1.1:
            continue
        with pytest.raises(DomainError, match="angles must be finite"):
            fermi_from_rw(cosmo, RWEvent(1.0, x, theta, phi))
        with pytest.raises(DomainError, match="angles must be finite"):
            rw_from_fermi(cosmo, FermiEvent(1.0, x, theta, phi))


@pytest.mark.parametrize("model", MODELS)
def test_model_slice_functions(model):
    cosmo = MODELS[model]
    values = [(x,) for x in GRID]
    _assert_contract(lambda x: hubble(cosmo, x), values)
    _assert_contract(lambda x: proper_radius(cosmo, x), values)
    # Documented: inf where the scale factor runs down to zero.
    _assert_contract(lambda x: sigma_infinity(cosmo, x), values,
                     allow_inf=True)


def test_model_free_functions():
    _assert_contract(gamma_fn, [(x,) for x in GRID])
    # Subnormal alpha, where p = 1/(2 alpha) overflows, and the least
    # normal ones.
    _assert_contract(fermi_speed_sup,
                     [(x,) for x in GRID + (5e-324, 1e-310, 2e-308)])
    _assert_contract(s_k, [(k, x) for k in (0, -1, 1, 0.5) for x in GRID]
                     + PAIRS)
    _assert_contract(proper_radius_power_law, PAIRS)
    _assert_contract(fermi_speed_power_law, PAIRS)
    _assert_contract(lambda a, s: power_law_geometry_relation(a, 1.0, s),
                     PAIRS)
    _assert_contract(lambda t, s: power_law_geometry_relation(0.5, t, s),
                     PAIRS)
    _assert_contract(
        lambda lo, hi: integrate_sigma(
            lambda s: s ** -1.5 / np.sqrt(s - 1.0), lo, hi), PAIRS)
    _assert_contract(
        lambda lo, hi: find_root_monotone(lambda x: x - 0.5, lo, hi), PAIRS)


def test_all_lists_every_public_name():
    public = {name for name, value in vars(fermirw).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public <= set(fermirw.__all__)
    assert all(hasattr(fermirw, name) for name in fermirw.__all__)


def test_hyp2f1():
    # Each pair of the four arguments over the grid, the others at the
    # matter oracle's 2F1(1/4, 1/2; 5/4; 1/2); and a sum that overflows.
    base = (0.25, 0.5, 1.25, 0.5)
    args = [(200.0, 200.0, 1.5, 0.99)]
    for i, j in itertools.combinations(range(4), 2):
        for x, y in PAIRS:
            a = list(base)
            a[i], a[j] = x, y
            args.append(tuple(a))
    _assert_contract(hyp2f1, args)


BUNDLES = {b.family: b for b in (closed_forms.milne(),
                                 closed_forms.de_sitter(1.0),
                                 closed_forms.radiation(),
                                 closed_forms.matter())}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("family", BUNDLES)
def test_closed_form_bundles(family):
    # The bundles warn of nothing on the way, de Sitter's late slices,
    # where exp(h0 tau) overflows, included.
    bundle = BUNDLES[family]
    for name in ("t", "chi", "rho", "sigma_of_rho", "g_tau_tau", "ang"):
        _assert_contract(getattr(bundle, name), PAIRS)
    _assert_contract(bundle.v_f, [(x,) for x in GRID])
    _assert_contract(bundle.rho_slice, [(x,) for x in GRID])


# Past h0 t = log(DBL_MAX) = 709.78..., de Sitter's a(t) = exp(h0 t) is
# inf; for h0 = 2, a'(t) = h0 a(t) already is at h0 t = 709.6.
_DE_SITTER = BUNDLES["de-sitter"].cosmology
DE_SITTER_LATE = {
    "t_of_sigma": lambda: t_of_sigma(_DE_SITTER, 1e6, 1.5),
    "sigma_infinity": lambda: sigma_infinity(_DE_SITTER, 800.0),
    "hubble": lambda: hubble(_DE_SITTER, 800.0),
    "hubble-h0-2": lambda: hubble(Cosmology(make_exponential(2.0), k=0),
                                  354.8),
    "fermi_from_rw": lambda: fermi_from_rw(_DE_SITTER, RWEvent(800.0, 0.1)),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", DE_SITTER_LATE)
def test_de_sitter_late_slices_raise_domain_error(name):
    with pytest.raises(DomainError, match="overflow"):
        DE_SITTER_LATE[name]()


@pytest.mark.parametrize("family", BUNDLES)
def test_closed_form_maps_raise_where_t_of_sigma_does(family):
    # A (tau, sigma) map's domain is at least t_of_sigma's.  (Not at most:
    # a value can overflow where t's does not, as Milne's ang at 1e300.)
    bundle = BUNDLES[family]
    for tau, sigma in PAIRS:
        try:
            t_of_sigma(bundle.cosmology, tau, sigma)
        except DomainError:
            for name in ("t", "chi", "rho", "g_tau_tau", "ang"):
                with pytest.raises(DomainError):
                    getattr(bundle, name)(tau, sigma)
