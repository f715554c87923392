# Self-check suites: each check must test what its name says.

import dataclasses

import pytest

from fermirw import DomainError, verify


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


def test_unknown_suite_is_domain_error():
    with pytest.raises(DomainError, match="unknown suite 'bogus'"):
        verify.run_suite("bogus")
