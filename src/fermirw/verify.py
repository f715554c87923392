"""Self-check suites comparing independent computation routes.

Three suites, each a list of named checks with a max residual and a
tolerance: closed-forms (quadrature pipeline against the exactly solvable
models), ode-oracle (direct geodesic integration against the quadrature
maps), and invariants (structural properties that hold for every model:
round trips, diagonality, positivity, monotonicity).  The command line
front end prints one line per check and fails if any residual exceeds its
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import closed_forms as cf
from .chart import (FermiEvent, RWEvent, comoving_flow_fermi, fermi_from_rw,
                    jacobian_F, rw_from_fermi)
from .chart import sigma_of_rho as chart_sigma_of_rho
from .cosmology import Cosmology, hubble, make_power_law, make_tabulated
from .errors import DomainError
from .geodesics import (chi_of_sigma, integrate_geodesic_ode, rho_of_sigma,
                        t_of_sigma)
from .kinematics import (fermi_speed, fermi_speed_power_law, fermi_speed_sup,
                         power_law_geometry_relation, proper_radius,
                         sigma_of_chi, velocity_identity_residual)
from .metric import g_tau_tau, metric_cartesian, metric_polar
from .numerics import DEFAULT_CONFIG, NumericsConfig, gamma_fn, hyp2f1

__all__ = [
    "CheckResult",
    "closed_forms_suite",
    "ode_oracle_suite",
    "invariants_suite",
    "run_suite",
    "format_report",
    "SUITE_NAMES",
]

SUITE_NAMES = ("closed-forms", "ode-oracle", "invariants", "all")


@dataclass(frozen=True)
class CheckResult:
    """One named check: worst observed residual against its tolerance."""

    name: str
    residual: float
    tolerance: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def _result(name: str, residual: float, tol: float,
            detail: str = "") -> CheckResult:
    return CheckResult(name, float(residual), float(tol), detail)


# ---------------------------------------------------------------------------
# closed-forms suite


def _grid_residual_maps(model: cf.ClosedFormModel, taus, sigmas,
                        cfg: NumericsConfig) -> tuple[float, float, float]:
    wt = wc = wr = 0.0
    for tau in taus:
        for s in sigmas:
            wt = max(wt, abs(t_of_sigma(model.cosmology, tau, s)
                             - model.t(tau, s)) / model.t(tau, s))
            wc = max(wc, abs(chi_of_sigma(model.cosmology, tau, s, cfg)
                             - model.chi(tau, s)))
            wr = max(wr, abs(rho_of_sigma(model.cosmology, tau, s, cfg)
                             - model.rho(tau, s)))
    return wt, wc, wr


def closed_forms_suite(cfg: NumericsConfig | None = None) -> list[CheckResult]:
    cfg = cfg or DEFAULT_CONFIG
    out: list[CheckResult] = []
    sigmas = (1.01, 2.0, 4.0, 10.0, 31.6, 100.0)

    milne = cf.milne()
    wt, wc, wr = _grid_residual_maps(milne, (0.5, 2.0, 5.0), sigmas, cfg)
    out.append(_result("milne-geodesic-maps", max(wt, wc, wr), 1e-9,
                       "t/chi/rho vs closed forms"))

    worst = 0.0
    for tau in (0.5, 2.0, 5.0):
        for s in sigmas:
            rho = milne.rho(tau, s)
            pm = metric_polar(milne.cosmology, tau, rho, cfg)
            worst = max(worst, abs(pm.g_tau_tau + 1.0),
                        abs(pm.g_rho_rho - 1.0), abs(pm.ang - rho * rho))
    out.append(_result("milne-metric-polar", worst, 1e-9,
                       "(-1, 1, rho^2) exactly"))

    worst = 0.0
    for tau in (1.0, 3.0):
        for frac in (0.1, 0.5, 0.9, 0.99):
            rho = frac * tau
            got = chart_sigma_of_rho(milne.cosmology, tau, rho, cfg)
            want = milne.sigma_of_rho(tau, rho)
            worst = max(worst, abs(got - want) / want)
    out.append(_result("milne-sigma-of-rho", worst, 1e-10,
                       "vs 1/(1-(rho/tau)^2)"))

    worst = 0.0
    for rho in (0.05, 0.5, 1.5):
        ang = metric_polar(milne.cosmology, 2.0, rho, cfg).ang
        worst = max(worst, abs((ang / (rho * rho) - 1.0) / (rho * rho)))
    out.append(_result("milne-lambda-flat", worst, 1e-4,
                       "(ang/rho^2 - 1)/rho^2 vanishes identically"))

    worst = 0.0
    for h0 in (0.5, 1.0, 2.0):
        ds = cf.de_sitter(h0)
        tau = 3.0 / h0
        for frac in (0.2, 0.5, 0.8, 1.0):
            rho = frac * 0.95 * 0.5 * math.pi / h0
            got = g_tau_tau(ds.cosmology, tau, rho, cfg)
            worst = max(worst, abs(got + math.cos(h0 * rho) ** 2))
    out.append(_result("desitter-lapse", worst, 1e-8,
                       "g_tau_tau = -cos^2(h0 rho)"))

    ds = cf.de_sitter(1.0)
    tau = 3.0
    peak = abs(fermi_speed(
        ds.cosmology, tau, math.exp(-tau), cfg).v_fermi - 0.5)
    over = 0.0
    for s0 in (1.2, 1.5, 3.0, 8.0, 40.0):
        chi0 = math.sqrt(s0 - 1.0) * math.exp(-tau)
        over = max(over, fermi_speed(ds.cosmology, tau, chi0, cfg).v_fermi
                   - 0.5)
    out.append(_result("desitter-speed-cap", max(peak, over), 1e-9,
                       "max v = 1/2 at sigma0 = 2"))

    worst = 0.0
    for h0 in (0.5, 1.0):
        ds_h = cf.de_sitter(h0)
        for tau in (1.0, 3.0):
            worst = max(worst, abs(proper_radius(ds_h.cosmology, tau, cfg)
                                   - ds_h.rho_slice(tau)))
    out.append(_result("desitter-radius", worst, 1e-9,
                       "rho_M = arccos(exp(-h0 tau))/h0"))

    # Late slices, where chi = w exp(-t) is as small as 5e-14, and events
    # next to the chart edge w = 1.
    worst = 0.0
    for t1 in (1.0, 10.0, 20.0, 30.0):
        for w in (0.5, 0.999, 0.99999):
            fe = fermi_from_rw(ds.cosmology, RWEvent(t1, w * math.exp(-t1)),
                               cfg)
            tau = t1 - 0.5 * math.log1p(-w * w)
            worst = max(worst, abs(fe.tau - tau) / tau,
                        abs(fe.rho - math.asin(w)) / math.asin(w))
    out.append(_result("desitter-edge-search", worst, 1e-10,
                       "fermi_from_rw: tau = t - log(1 - w^2)/2, "
                       "rho = arcsin(w)"))

    # chi = rho = x near the observer at t = tau = 1: Milne's chart is
    # tau = t cosh(chi), rho = t sinh(chi); de Sitter's rho = arcsin(e chi).
    worst = 0.0
    for x in (1e-12, 1e-9, 1e-6, 1e-3):
        w = math.e * x
        for cosmo, want in (
                (milne.cosmology, (
                    math.cosh(x), math.sinh(x), x * x, math.tanh(x),
                    math.tanh(x), math.cosh(x), math.sinh(x))),
                (ds.cosmology, (
                    1.0 - 0.5 * math.log1p(-w * w), math.asin(w),
                    math.sin(x) ** 2, math.atan(w), w / (1.0 + w * w),
                    1.0 / (1.0 - w * w), w / math.sqrt(1.0 - w * w)))):
            fe = fermi_from_rw(cosmo, RWEvent(1.0, x), cfg)
            rep = fermi_speed(cosmo, 1.0, x, cfg)
            got = (fe.tau, fe.rho,
                   metric_polar(cosmo, 1.0, x, cfg).ang, rep.rho, rep.v_fermi,
                   *comoving_flow_fermi(cosmo, RWEvent(1.0, x), cfg))
            worst = max(worst, *(abs(g - v) / v for g, v in zip(got, want)))
    out.append(_result("near-observer", worst, 1e-12,
                       "Milne, de Sitter at chi, rho = 1e-12 to 1e-3"))

    rad = cf.radiation()
    worst = max(abs(proper_radius(rad.cosmology, tau, cfg)
                    - 0.5 * math.pi * tau) for tau in (1.0, 2.0, 5.0))
    out.append(_result("radiation-radius", worst, 1e-9, "rho_M = (pi/2) tau"))

    # Both the beta-function formula and the quadrature pipeline.
    worst = max(max(abs(fermi_speed_power_law(0.5, s0) - rad.v_f(s0)),
                    abs(fermi_speed(rad.cosmology, 1.0, rad.chi(1.0, s0),
                                    cfg).v_fermi - rad.v_f(s0)))
                for s0 in (1.0 + 1e-6, 1.5, 2.0, 4.0, 16.0, 1e2, 1e4))
    out.append(_result("radiation-velocity", worst, 1e-9,
                       "v vs closed form on sigma0 in [1, 1e4]"))

    out.append(_result(
        "radiation-velocity-limit",
        abs(fermi_speed_power_law(0.5, 1e6) - 0.5 * math.pi), 1e-5,
        "v(1e6) approaches pi/2"))

    ev = rw_from_fermi(rad.cosmology, FermiEvent(1.0, 0.5 + 0.25 * math.pi),
                       cfg)
    out.append(_result(
        "radiation-transform-point",
        max(abs(ev.t - 0.5), abs(ev.chi - 0.5 * math.pi)), 1e-9,
        "(tau=1, rho=1/2+pi/4) -> (t=1/2, chi=pi/2)"))

    mat = cf.matter()
    wchi = wrho = 0.0
    for tau in (1.0, 2.0):
        for s in (1.5, 2.0, 4.0, 16.0, 100.0):
            wchi = max(wchi, abs(chi_of_sigma(mat.cosmology, tau, s, cfg)
                                 - mat.chi(tau, s)))
            wrho = max(wrho, abs(rho_of_sigma(mat.cosmology, tau, s, cfg)
                                 - mat.rho(tau, s)))
    out.append(_result("matter-chi", wchi, 1e-8, "hypergeometric chi map"))
    out.append(_result("matter-rho", wrho, 1e-8, "hypergeometric rho map"))

    worst = 0.0
    for tau in (1.0, 2.0):
        for s in (1.5, 4.0, 16.0, 100.0):
            rho = mat.rho(tau, s)
            worst = max(worst, abs(g_tau_tau(mat.cosmology, tau, rho, cfg)
                                   - mat.g_tau_tau(tau, s)))
    out.append(_result("matter-lapse", worst, 1e-6,
                       "g_tau_tau vs hypergeometric form"))

    worst = 0.0
    order = 0.0
    prev = math.inf
    for alpha in (1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0):
        cos = Cosmology(make_power_law(alpha), k=0)
        ratio = proper_radius(cos, 1.7, cfg) / 1.7
        worst = max(worst, abs(ratio - fermi_speed_sup(alpha)))
        order = max(order, ratio - prev, ratio - 1.0 / alpha)
        prev = ratio
    out.append(_result("powerlaw-radius-law", max(worst, order), 1e-7,
                       "rho_M/tau = gamma ratio, decreasing, <= 1/alpha"))

    k = cf.GAMMA_RATIO_SUP
    worst = max(abs(hyp2f1(0.25, 0.5, 1.25, 1.0) - k),
                abs(hyp2f1(-0.75, 0.5, 0.25, 1.0) + k))
    gauss = gamma_fn(1.25) * gamma_fn(0.5) / gamma_fn(0.75)
    worst = max(worst, abs(gauss - k))
    out.append(_result("gauss-summation", worst, 1e-10,
                       "2F1 at z=1 vs gamma ratios"))
    return out


# ---------------------------------------------------------------------------
# ode-oracle suite


def ode_spec(cosmo: Cosmology, h0: float | None = None,
             alpha: float | None = None) -> tuple[str, Cosmology, float, float]:
    """(label, cosmology, tau, boundary margin) of one oracle run.

    De Sitter (rate h0) runs at tau = 3/h0 to 0.95 of the slice radius,
    Milne at tau = 2, every other family at tau = 1, all but de Sitter to
    0.99.  The label is the family name, a general power law's with its
    exponent alpha to two decimals.
    """
    label, tau, margin = cosmo.name, 1.0, 0.99
    if cosmo.name == "de-sitter":
        tau, margin = 3.0 / h0, 0.95
    elif cosmo.name == "milne":
        tau = 2.0
    elif cosmo.name == "power-law":
        label = f"power-law-{alpha:.2f}"
    return label, cosmo, tau, margin


def default_ode_specs() -> list[tuple[str, Cosmology, float, float]]:
    """The oracle runs of the default suite."""
    return [ode_spec(cf.milne().cosmology),
            ode_spec(cf.de_sitter(1.0).cosmology, h0=1.0),
            ode_spec(cf.radiation().cosmology),
            ode_spec(cf.matter().cosmology),
            ode_spec(Cosmology(make_power_law(1.0 / 3.0), k=0,
                               name="power-law"), alpha=1.0 / 3.0)]


def ode_oracle_suite(cfg: NumericsConfig | None = None,
                     specs: list[tuple[str, Cosmology, float, float]] | None
                     = None) -> list[CheckResult]:
    """Fixed-step geodesic integration against the quadrature maps.

    Each check integrates outward to the stated fraction of the slice
    radius, compares t and chi with the sigma-parameterized maps at the
    endpoint and midpoint, and repeats at half the step.  The integration
    runs on a system smooth at the observer, so its error is
    discretisation alone and the step-halving drift bounds the whole of
    it: a residual well above the drift is an error of the maps.
    """
    cfg = cfg or DEFAULT_CONFIG
    out: list[CheckResult] = []
    for label, cosmo, tau, margin in specs or default_ode_specs():
        rho_end = margin * proper_radius(cosmo, tau, cfg)
        coarse = integrate_geodesic_ode(cosmo, tau, rho_end, rho_end / 4000)
        fine = integrate_geodesic_ode(cosmo, tau, rho_end, rho_end / 8000)
        worst = 0.0
        for pt in (coarse[len(coarse) // 2], coarse[-1]):
            sigma = chart_sigma_of_rho(cosmo, tau, pt.rho, cfg)
            worst = max(worst,
                        abs(pt.t - t_of_sigma(cosmo, tau, sigma)),
                        abs(pt.chi - chi_of_sigma(cosmo, tau, sigma, cfg)))
        drift = max(abs(fine[-1].t - coarse[-1].t),
                    abs(fine[-1].chi - coarse[-1].chi))
        out.append(_result(
            f"ode-oracle-{label}", worst, 1e-6,
            f"step-halving drift {drift:.2e} (tol 1e-7)"))
        if drift > 1e-7:
            out[-1] = _result(f"ode-oracle-{label}", max(worst, 1.0), 1e-6,
                              f"refinement unstable: drift {drift:.2e}")
    return out


# ---------------------------------------------------------------------------
# invariants suite


def _tabulated_matterlike() -> Cosmology:
    ts = np.geomspace(0.05, 100.0, 800)
    table = [(float(t), float(t ** (2.0 / 3.0))) for t in ts]
    return Cosmology(make_tabulated(table), k=0, name="tabulated")


def _roundtrip_models() -> list[Cosmology]:
    return [
        cf.milne().cosmology,
        Cosmology(make_power_law(0.5), k=0, name="radiation"),
        Cosmology(make_power_law(2.0 / 3.0), k=0, name="matter"),
        Cosmology(make_power_law(1.0 / 3.0), k=0, name="power-law"),
        _tabulated_matterlike(),
    ]


def _chart_events():
    """(cosmo, t, chi) of the chart checks: four events on each
    round-trip model and three inside de Sitter's bounded chart."""
    for cosmo in _roundtrip_models():
        for i, t1 in enumerate((0.8, 1.4, 2.2, 3.0)):
            yield cosmo, t1, 0.15 + 0.55 * ((i * 2 + 1) % 4)
    ds = cf.de_sitter(1.0).cosmology
    for t1, frac in ((1.0, 0.3), (2.0, 0.7), (3.0, 0.9)):
        yield ds, t1, frac * math.exp(-t1)


def invariants_suite(cfg: NumericsConfig | None = None) -> list[CheckResult]:
    cfg = cfg or DEFAULT_CONFIG
    out: list[CheckResult] = []
    ds = cf.de_sitter(1.0)

    worst = 0.0
    for cosmo, t1, chi1 in _chart_events():
        fe = fermi_from_rw(cosmo, RWEvent(t1, chi1), cfg)
        ev = rw_from_fermi(cosmo, fe, cfg)
        worst = max(worst, abs(ev.t - t1) / t1, abs(ev.chi - chi1) / chi1)
    out.append(_result("round-trip", worst, 1e-7,
                       "fermi_from_rw then rw_from_fermi"))

    # The flow reads b'(x) and the lapse integral I3, fermi_speed I1, I2
    # and I3: v_F = a'(tau) B sqrt(1 - 1/sigma0) ties the two routes.
    worst = 0.0
    for cosmo, t1, chi1 in _chart_events():
        tau = fermi_from_rw(cosmo, RWEvent(t1, chi1), cfg).tau
        dtau, drho = comoving_flow_fermi(cosmo, RWEvent(t1, chi1), cfg)
        v = fermi_speed(cosmo, tau, chi1, cfg).v_fermi
        worst = max(worst, abs(drho / dtau - v) / v)
    out.append(_result("comoving-flow-velocity", worst, 1e-9,
                       "drho/dtau of the comoving flow vs fermi_speed"))

    neg = 0.0
    for cosmo in _roundtrip_models():
        for tau in (0.9, 2.1):
            for s in (1.1, 2.0, 10.0, 100.0):
                if jacobian_F(cosmo, tau, s, cfg) <= 0.0:
                    neg = max(neg, 1.0)
    out.append(_result("jacobian-positive", neg, 0.0,
                       "J > 0 on all global-chart samples"))

    worst = 0.0
    for cosmo in (cf.radiation().cosmology, cf.matter().cosmology):
        for tau, s in ((1.0, 2.0), (2.0, 5.0)):
            j = jacobian_F(cosmo, tau, s, cfg)
            ht, hs = 1e-5 * tau, 1e-5 * s
            dt_dtau = (t_of_sigma(cosmo, tau + ht, s)
                       - t_of_sigma(cosmo, tau - ht, s)) / (2 * ht)
            dt_ds = (t_of_sigma(cosmo, tau, s + hs)
                     - t_of_sigma(cosmo, tau, s - hs)) / (2 * hs)
            dc_dtau = (chi_of_sigma(cosmo, tau + ht, s, cfg)
                       - chi_of_sigma(cosmo, tau - ht, s, cfg)) / (2 * ht)
            dc_ds = (chi_of_sigma(cosmo, tau, s + hs, cfg)
                     - chi_of_sigma(cosmo, tau, s - hs, cfg)) / (2 * hs)
            fd = dt_dtau * dc_ds - dt_ds * dc_dtau
            worst = max(worst, abs(fd - j) / abs(j))
    out.append(_result("jacobian-fd", worst, 1e-5,
                       "J vs finite-difference determinant"))

    worst = worst_pull = 0.0
    for cosmo, tau, rho in ((cf.radiation().cosmology, 1.0, 0.9),
                            (cf.matter().cosmology, 2.0, 1.1),
                            (ds.cosmology, 3.0, 0.8)):
        ht, hr = 1e-4 * tau, 1e-4 * tau

        def tc(tp, rp):
            ev = rw_from_fermi(cosmo, FermiEvent(tp, rp), cfg)
            return ev.t, ev.chi

        tp_, cp_ = tc(tau + ht, rho)
        tm_, cm_ = tc(tau - ht, rho)
        trp, crp = tc(tau, rho + hr)
        trm, crm = tc(tau, rho - hr)
        t_tau, c_tau = (tp_ - tm_) / (2 * ht), (cp_ - cm_) / (2 * ht)
        t_rho, c_rho = (trp - trm) / (2 * hr), (crp - crm) / (2 * hr)
        t_mid = tc(tau, rho)[0]
        a_mid = float(cosmo.model.a(t_mid))
        g_cross = -t_tau * t_rho + a_mid * a_mid * c_tau * c_rho
        worst = max(worst, abs(g_cross))
        g_diag = -t_tau * t_tau + a_mid * a_mid * c_tau * c_tau
        worst_pull = max(worst_pull, abs(
            g_diag - metric_polar(cosmo, tau, rho, cfg).g_tau_tau))
    out.append(_result("metric-diagonal", worst, 1e-6,
                       "finite-difference g_tau_rho"))
    out.append(_result("metric-pullback", worst_pull, 1e-5,
                       "g_tau_tau vs pullback of the comoving metric"))

    worst = 0.0
    h = 1e-3
    for cosmo, tau in ((cf.radiation().cosmology, 1.0),
                       (ds.cosmology, 3.0)):
        base = metric_cartesian(cosmo, tau, 0.0, 0.0, 0.0, cfg)
        worst = max(worst, float(np.max(np.abs(
            base - np.diag([-1.0, 1.0, 1.0, 1.0])))))
        dtau = (metric_cartesian(cosmo, tau + h, 0.0, 0.0, 0.0, cfg)
                - metric_cartesian(cosmo, tau - h, 0.0, 0.0, 0.0, cfg))
        worst = max(worst, float(np.max(np.abs(dtau))) / (2 * h))
        for axis in range(3):
            step = [0.0, 0.0, 0.0]
            step[axis] = h
            diff = (metric_cartesian(cosmo, tau, *step, cfg)
                    - metric_cartesian(cosmo, tau, *[-s for s in step], cfg))
            worst = max(worst, float(np.max(np.abs(diff))) / (2 * h))
    out.append(_result("origin-regularity", worst, 1e-5,
                       "metric is Minkowski to first order on the worldline"))

    excess = 0.0
    for alpha in (1.0 / 3.0, 0.5, 2.0 / 3.0, 0.9, 1.0):
        cos = Cosmology(make_power_law(alpha), k=0)
        for tau in (1.0, 2.5):
            excess = max(excess, proper_radius(cos, tau, cfg)
                         * hubble(cos, tau) - 1.0)
    out.append(_result("radius-hubble-bound", max(excess, 0.0), 1e-9,
                       "rho_M <= 1/H for power laws"))

    worst = 0.0
    for cosmo, tau, chi0 in ((cf.radiation().cosmology, 1.0, 0.8),
                             (cf.matter().cosmology, 2.0, 1.5),
                             (ds.cosmology, 1.0, 0.3),
                             (cf.milne().cosmology, 1.0, 1.2)):
        worst = max(worst, velocity_identity_residual(cosmo, tau, chi0, cfg))
    out.append(_result("velocity-identity", worst, 1e-5,
                       "v = H rho + a d(rho/a)/dtau"))

    drop = 0.0
    for alpha in (1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0):
        prev = -math.inf
        for s0 in np.geomspace(1.0 + 1e-6, 1e4, 25):
            v = fermi_speed_power_law(alpha, float(s0))
            drop = max(drop, prev - v)
            prev = v
    out.append(_result("velocity-monotone", max(drop, 0.0), 1e-12,
                       "v non-decreasing in sigma0 for power laws"))

    worst = 0.0
    for alpha, s0 in ((0.5, 4.0), (2.0 / 3.0, 100.0)):
        lhs, rhs = power_law_geometry_relation(alpha, 1.0, s0, cfg)
        worst = max(worst, abs(lhs - rhs))
    out.append(_result("geometry-relation", worst, 1e-9,
                       "velocity vs proper-distance identity"))

    worst = 0.0
    for alpha in (1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0):
        cos = Cosmology(make_power_law(alpha), k=0)
        for tau in (1.0, 2.0):
            prev = math.inf
            for s in (1e2, 1e4, 1e6, 1e8):
                t_here = t_of_sigma(cos, tau, s)
                if t_here >= prev:
                    worst = max(worst, 1.0)
                prev = t_here
            worst = max(worst, prev / tau - 1e-3)
            rho_far = rho_of_sigma(cos, tau, 1e8, cfg)
            rho_m = proper_radius(cos, tau, cfg)
            worst = max(worst, abs(rho_m - rho_far) / rho_m - 1e-3)
    out.append(_result("bigbang-limit", max(worst, 0.0), 0.0,
                       "t -> 0 at the slice boundary, rho -> rho_M"))

    worst = 0.0
    for cosmo, tau in ((cf.radiation().cosmology, 1.5),
                       (ds.cosmology, 2.0)):
        for s_true in (1.3, 3.7, 20.0):
            chi_t = chi_of_sigma(cosmo, tau, s_true, cfg)
            rho_t = rho_of_sigma(cosmo, tau, s_true, cfg)
            worst = max(
                worst,
                abs(sigma_of_chi(cosmo, tau, chi_t, cfg) - s_true) / s_true,
                abs(chart_sigma_of_rho(cosmo, tau, rho_t, cfg) - s_true)
                / s_true)
    out.append(_result("sigma-consistency", worst, 1e-8,
                       "sigma_of_chi and sigma_of_rho invert the maps"))

    theta, axis = 1.1, np.array([1.0, 2.0, 2.0]) / 3.0
    kmat = np.array([[0.0, -axis[2], axis[1]],
                     [axis[2], 0.0, -axis[0]],
                     [-axis[1], axis[0], 0.0]])
    rot = (np.eye(3) + math.sin(theta) * kmat
           + (1.0 - math.cos(theta)) * (kmat @ kmat))
    worst = 0.0
    for cosmo, tau, xs in ((cf.matter().cosmology, 2.0, (0.5, 0.3, -0.4)),
                           (ds.cosmology, 3.0, (0.2, -0.1, 0.6))):
        g1 = metric_cartesian(cosmo, tau, *xs, cfg)
        xr = rot @ np.array(xs)
        g2 = metric_cartesian(cosmo, tau, *xr, cfg)
        worst = max(worst, float(np.max(np.abs(
            g2[1:, 1:] - rot @ g1[1:, 1:] @ rot.T))),
            abs(g2[0, 0] - g1[0, 0]))
    out.append(_result("rotation-invariance", worst, 1e-10,
                       "Cartesian metric transforms as a tensor"))
    return out


def run_suite(name: str, cfg: NumericsConfig | None = None,
              specs=None) -> list[CheckResult]:
    if name == "closed-forms":
        return closed_forms_suite(cfg)
    if name == "ode-oracle":
        return ode_oracle_suite(cfg, specs)
    if name == "invariants":
        return invariants_suite(cfg)
    if name == "all":
        return (closed_forms_suite(cfg) + ode_oracle_suite(cfg, specs)
                + invariants_suite(cfg))
    raise DomainError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")


def format_report(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = (f"{status}  {r.name:<{width}}  "
                f"max_residual={r.residual:.3e}  tol={r.tolerance:.1e}")
        if r.detail:
            line += f"  [{r.detail}]"
        lines.append(line)
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines)
