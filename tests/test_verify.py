# Self-check suites: each check must test what its name says.

import dataclasses
import re

import pytest

from fermirw import (Cosmology, DomainError, chart, geodesics,
                     make_exponential, make_power_law, verify)


def test_pullback_checks_every_model(monkeypatch):
    # Perturb the lapse of the radiation model only; the pullback check
    # covers radiation, matter and de Sitter, so it must fail.
    polar = verify.metric_polar

    def perturbed(cosmo, tau, rho, cfg=None):
        pm = polar(cosmo, tau, rho, cfg)
        if cosmo.name == "radiation":
            pm = dataclasses.replace(pm, g_tau_tau=pm.g_tau_tau + 1e-3)
        return pm

    monkeypatch.setattr(verify, "metric_polar", perturbed)
    results = {r.name: r for r in verify.invariants_suite()}
    assert not results["metric-pullback"].passed
    assert results["metric-pullback"].residual > 5e-4


@pytest.mark.parametrize("name", ["milne", "tabulated", "de-sitter"])
def test_flow_velocity_checks_every_model(monkeypatch, name):
    # Perturb the lapse the comoving flow reads on one model only; the
    # check covers every round-trip model and de Sitter, so it must fail.
    bracket = geodesics.Slice.lapse

    def perturbed(store, u):
        value = bracket(store, u)
        return value * (1.0 + 1e-6) if store.cosmo.name == name else value

    monkeypatch.setattr(geodesics.Slice, "lapse", perturbed)
    results = {r.name: r for r in verify.invariants_suite()}
    assert not results["comoving-flow-velocity"].passed
    assert results["comoving-flow-velocity"].residual > 5e-7


def test_unknown_suite_is_domain_error():
    with pytest.raises(DomainError, match="unknown suite 'bogus'"):
        verify.run_suite("bogus")


ODE_SPECS = verify.default_ode_specs() + [
    verify.ode_spec(Cosmology(make_power_law(0.1), k=0, name="power-law"),
                    alpha=0.1),
    ("de-sitter-tau-0.2",
     Cosmology(make_exponential(1.0), k=0, name="de-sitter"), 0.2, 0.95),
]


@pytest.mark.parametrize("spec", ODE_SPECS, ids=lambda spec: spec[0])
def test_ode_oracle_error_is_its_discretisation(spec):
    # The geodesic ODE has no start of its own to get wrong, so step
    # halving bounds its whole error: the residual against the
    # quadrature maps stays within twice the coarse-to-fine drift.
    (result,) = verify.ode_oracle_suite(specs=[spec])
    drift = float(re.search(r"drift (\S+)", result.detail)[1])
    assert result.residual <= 2.0 * drift + 1e-14, result


def test_ode_spec_per_family():
    specs = {label: (tau, margin)
             for label, _, tau, margin in verify.default_ode_specs()}
    assert specs == {"milne": (2.0, 0.99), "de-sitter": (3.0, 0.95),
                     "radiation": (1.0, 0.99), "matter": (1.0, 0.99),
                     "power-law-0.33": (1.0, 0.99)}
    ds = Cosmology(make_exponential(2.0), k=0, name="de-sitter")
    assert verify.ode_spec(ds, h0=2.0)[2:] == (1.5, 0.95)


def test_edge_search_check_reads_the_search(monkeypatch):
    # A 1e-9 relative error in the chi the search integrates moves tau by
    # about w^2/(1 - w^2) 1e-9, and must fail the check.
    direct = chart._slice_integrals

    def perturbed(cosmo, tau, sigma, comps, cfg, a0):
        chi, *rest = direct(cosmo, tau, sigma, comps, cfg, a0)
        return (chi * (1.0 + 1e-9), *rest)

    monkeypatch.setattr(chart, "_slice_integrals", perturbed)
    results = {r.name: r for r in verify.closed_forms_suite()}
    assert not results["desitter-edge-search"].passed


def test_near_observer_check_reads_the_inversions(monkeypatch):
    # A 1e-9 relative error in the u of each chi and rho inversion moves
    # ang, the speed and the flow by about as much, and must fail the
    # check.
    invert = geodesics.Slice.invert

    def perturbed(store, comp, target):
        return invert(store, comp, target) * (1.0 + 1e-9)

    monkeypatch.setattr(geodesics.Slice, "invert", perturbed)
    results = {r.name: r for r in verify.closed_forms_suite()}
    assert not results["near-observer"].passed
    assert results["near-observer"].residual > 5e-10
