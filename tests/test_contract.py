# The contract of the public surface: every call returns finite numbers
# or raises a FermiRWError subclass, never a NaN, an inf or a stray
# exception.  A deterministic grid of hostile arguments drives every
# public numeric function, the model-bound ones over Milne, matter, de
# Sitter and a 60-knot table.

import dataclasses
import itertools
import math

import numpy as np
import pytest

from fermirw import (
    DEFAULT_CONFIG,
    Cosmology,
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
from fermirw.geodesics import lapse_bracket
from fermirw.numerics import table_safe_config

# Hostile inputs make numpy warn of overflow on the way to the errors
# checked here.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

GRID = (math.nan, math.inf, -math.inf, -1.0, 0.0, 1e-300, 1e-12, 1.0,
        1.0 + 2.0 ** -52, 1.5, 1e6, 1e300)
PAIRS = list(itertools.product(GRID, GRID))
# For wrappers, each call of which makes several calls the full grid
# already drives: samples of the slice maps, and finite differences of
# fermi_from_rw and fermi_speed.
COARSE_PAIRS = list(itertools.product(
    (math.nan, math.inf, -1.0, 0.0, 1e-300, 1.0, 1.5, 1e300), repeat=2))

_TS = np.geomspace(0.05, 100.0, 60)
MODELS = {
    "milne": (Cosmology(make_power_law(1.0), k=-1), DEFAULT_CONFIG),
    "matter": (Cosmology(make_power_law(2.0 / 3.0), k=0), DEFAULT_CONFIG),
    "de-sitter": (Cosmology(make_exponential(1.0), k=0), DEFAULT_CONFIG),
    "table": (Cosmology(make_tabulated(list(zip(_TS, _TS ** (2.0 / 3.0)))),
                        k=0), table_safe_config(DEFAULT_CONFIG)),
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


# (cosmo, cfg, x, y) -> result, x the slice or event time.
PAIR_CALLS = {
    "t_of_sigma": lambda c, cfg, x, y: t_of_sigma(c, x, y),
    "chi_of_sigma": lambda c, cfg, x, y: chi_of_sigma(c, x, y, cfg),
    "rho_of_sigma": lambda c, cfg, x, y: rho_of_sigma(c, x, y, cfg),
    "lapse_bracket": lambda c, cfg, x, y: lapse_bracket(c, x, y, cfg),
    "jacobian_F": lambda c, cfg, x, y: jacobian_F(c, x, y, cfg),
    "integrate_geodesic_ode":
        lambda c, cfg, x, y: integrate_geodesic_ode(c, x, y, y / 8.0),
    "sigma_of_rho": lambda c, cfg, x, y: sigma_of_rho(c, x, y, cfg),
    "sigma_of_chi": lambda c, cfg, x, y: sigma_of_chi(c, x, y, cfg),
    "hubble_speed": lambda c, cfg, x, y: hubble_speed(c, x, y),
    "fermi_speed": lambda c, cfg, x, y: fermi_speed(c, x, y, cfg),
    "g_tau_tau": lambda c, cfg, x, y: g_tau_tau(c, x, y, cfg),
    "metric_polar": lambda c, cfg, x, y: metric_polar(c, x, y, cfg),
    "lambda_k": lambda c, cfg, x, y: lambda_k(c, x, y, cfg),
    "metric_cartesian":
        lambda c, cfg, x, y: metric_cartesian(c, x, y, 0.0, 0.0, cfg),
    "rw_from_fermi":
        lambda c, cfg, x, y: rw_from_fermi(c, FermiEvent(x, y), cfg),
    "fermi_from_rw":
        lambda c, cfg, x, y: fermi_from_rw(c, RWEvent(x, y), cfg),
}
WRAPPER_CALLS = {
    "sample_geodesic": lambda c, cfg, x, y: sample_geodesic(c, x, y, 3, cfg),
    "velocity_identity_residual":
        lambda c, cfg, x, y: velocity_identity_residual(c, x, y, cfg),
    "comoving_flow_fermi":
        lambda c, cfg, x, y: comoving_flow_fermi(c, RWEvent(x, y), cfg),
}


@pytest.mark.parametrize("name", [*PAIR_CALLS, *WRAPPER_CALLS])
@pytest.mark.parametrize("model", MODELS)
def test_model_pair_functions(model, name):
    cosmo, cfg = MODELS[model]
    fn, pairs = ((PAIR_CALLS[name], PAIRS) if name in PAIR_CALLS
                 else (WRAPPER_CALLS[name], COARSE_PAIRS))
    _assert_contract(lambda x, y: fn(cosmo, cfg, x, y), pairs)


@pytest.mark.parametrize("model", MODELS)
def test_model_slice_functions(model):
    cosmo, cfg = MODELS[model]
    values = [(x,) for x in GRID]
    _assert_contract(lambda x: hubble(cosmo, x), values)
    _assert_contract(lambda x: proper_radius(cosmo, x, cfg), values)
    # Documented: inf where the scale factor runs down to zero.
    _assert_contract(lambda x: sigma_infinity(cosmo, x), values,
                     allow_inf=True)


def test_model_free_functions():
    _assert_contract(gamma_fn, [(x,) for x in GRID])
    _assert_contract(fermi_speed_sup, [(x,) for x in GRID])
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
