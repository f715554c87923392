"""Workload inputs, row mirrors of the CLI, reference checks, CLI parity.

A row is one unit of user-visible work.  The sweep workloads run the
per-row call sequences of ``fermirw sweep metric``, ``fermirw sweep
velocity`` and ``fermirw transform to-rw`` along constant-tau slices;
scattered-events runs one independent event per row on its own slice.
Inputs are drawn from a seeded ``random.Random`` at a stretch sigma* on
the exact model, so every row has a closed-form reference; fermirw only
ever sees the generated numbers.
"""

from __future__ import annotations

import csv
import itertools
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fermirw import chart, geodesics, kinematics, metric
from fermirw import closed_forms as cf

SWEEP_KINDS = ("metric", "velocity", "to-rw")
# Rows of each kind per slice; u = sqrt(sigma - 1) is stratified in this
# many equal bins up to the slice's top, so every slice has the same mix.
ROWS_PER_KIND = 4
# Slice times of each model cycle through this many equal strata of the
# tau range; table rows cost up to a third more at the top of the range,
# so stratifying keeps that out of the seed-to-seed spread.
TAU_STRATA = 5
# Timed slices and events draw tau from these ranges, warm-up rows from
# disjoint ones, so warm-up never touches a timed slice.
SWEEP_TAU = (0.5, 2.0)
SWEEP_WARM_TAU = (2.05, 2.5)
EVENT_TAU = (0.5, 3.0)
EVENT_WARM_TAU = (3.05, 3.5)
# Rows stay at sigma <= 16, which keeps every tabulated-row integral at
# t >= tau/8 >= 0.0625, inside the table's time range [0.05, 100].
SIGMA_TOP = 16.0
# Share of the sigma range a bounded (de Sitter) slice uses.
BOUNDED_SHARE = 0.8

# Table samples: the same as fermirw.verify's matter-like table.
TABLE_T = (0.05, 100.0, 800)

# Acceptance and verify tolerances (absolute unless noted) per model.
#   sigma: sigma_of_rho, relative (milne-sigma-of-rho)
#   sigma0: sigma_of_chi, relative (sigma-consistency)
#   lapse: g_tau_tau (criterion 2 / matter-lapse)
#   chi, rho: slice maps (matter-chi, matter-rho, milne-geodesic-maps)
#   t: relative (milne-geodesic-maps)
#   v: Fermi speed (desitter-speed-cap, radiation-velocity)
#   rho_slice: per unit tau (powerlaw-radius-law, desitter-radius)
ORACLE_TOL = {
    "matter": dict(sigma=1e-10, sigma0=1e-8, lapse=1e-6, chi=1e-8, rho=1e-8,
                   t=1e-9, v=1e-9, rho_slice=1e-7),
    "de-sitter": dict(sigma=1e-10, sigma0=1e-8, lapse=1e-8, chi=1e-9,
                      rho=1e-9, t=1e-9, v=1e-9, rho_slice=1e-9),
}
# The 800-knot table against the matter oracle: about ten times the worst
# interpolation error measured on a fixed (tau, sigma) grid covering the
# row range (tau in [0.5, 2], sigma in (1, 16]) before any seeded run.
# Worst measured: sigma 1.4e-6, sigma0 9.0e-8, g_tau_tau 6.5e-5, chi 4.9e-7,
# rho 4.3e-8, t 1.1e-6 (relative), v_fermi 2.5e-5; all at sigma = 16.
TABLE_TOL = dict(sigma=2e-5, sigma0=1e-6, lapse=1e-3, chi=5e-6, rho=5e-7,
                 t=2e-5, v=5e-4)
# Inverse-map residual on the table itself, relative (sigma-consistency).
INVERSE_TOL = 1e-8
# Scattered events: round trip (criterion 6) and the closed forms.
EVENT_TOL = 1e-7
EVENT_LAPSE_TOL = {"milne": 1e-9, "radiation": 1e-6, "matter": 1e-6,
                   "de-sitter": 1e-8}
JACOBIAN_TOL = 1e-5    # relative, jacobian-fd
STRUCTURE_TOL = 1e-12


@dataclass
class Row:
    """One row: its inputs, the sigma* they were drawn at, and results."""

    kind: str
    model: str
    tau: float          # slice time; for events, the true Fermi time
    sigma: float        # sigma* the inputs were drawn at
    x: float            # rho (metric, to-rw), chi0 (velocity), t (event)
    chi: float = 0.0    # event only
    theta: float = 0.0
    phi: float = 0.0
    out: tuple = ()
    ns: int = 0
    error: str = ""


def oracles() -> dict:
    mat = cf.matter()
    return {"matter": mat, "tabulated": mat, "de-sitter": cf.de_sitter(1.0),
            "milne": cf.milne(), "radiation": cf.radiation()}


def sigma_top(model: str, tau: float) -> float:
    if model == "de-sitter":
        return min(SIGMA_TOP,
                   1.0 + BOUNDED_SHARE * (math.exp(2.0 * tau) - 1.0))
    return SIGMA_TOP


def write_table(path: Path) -> None:
    """The table as CSV, every value in round-trip precision."""
    lo, hi, n = TABLE_T
    with path.open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["t", "a"])
        for t in np.geomspace(lo, hi, n):
            w.writerow([repr(float(t)), repr(float(t ** (2.0 / 3.0)))])


def units(workload: str, seed: int, ref: dict, warm: bool = False):
    """Endless stream of row groups: one slice of sweep rows, or one event.

    The seed only picks tau, the stratum offsets and event angles.
    """
    rng = random.Random(f"{workload}:{seed}:{'warm' if warm else 'timed'}")
    if workload == "scattered-events":
        models = ("milne", "radiation", "matter", "de-sitter")
        lo, hi = EVENT_WARM_TAU if warm else EVENT_TAU
        for i in itertools.count():
            model = models[i % len(models)]
            tau = rng.uniform(lo, hi)
            u = (math.sqrt(sigma_top(model, tau) - 1.0)
                 * rng.uniform(0.05, 1.0))
            s = 1.0 + u * u
            o = ref[model]
            theta = rng.uniform(0.0, math.pi)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            yield [Row("event", model, tau, s, o.t(tau, s), o.chi(tau, s),
                       theta, phi)]
    models = (("tabulated",) if workload == "sweep-tabulated"
              else ("matter", "de-sitter"))
    lo, hi = SWEEP_WARM_TAU if warm else SWEEP_TAU
    for i in itertools.count():
        model = models[i % len(models)]
        stratum = (i // len(models)) % TAU_STRATA
        tau = lo + (hi - lo) * (stratum + rng.random()) / TAU_STRATA
        o = ref[model]
        u_top = math.sqrt(sigma_top(model, tau) - 1.0)
        rows = []
        for j in range(ROWS_PER_KIND):
            for kind in SWEEP_KINDS:
                u = u_top * (j + rng.uniform(0.15, 1.0)) / ROWS_PER_KIND
                s = 1.0 + u * u
                x = o.chi(tau, s) if kind == "velocity" else o.rho(tau, s)
                rows.append(Row(kind, model, tau, s, x))
        yield rows


# ---------------------------------------------------------------------------
# Row mirrors: the CLI's per-row call sequence and its 17-digit formatting.
# Functions are looked up on their modules at call time so that span
# wrappers, when installed, see every call.


def _f(v) -> str:
    return f"{v:.17g}"


def _metric(cosmo, cfg, row):
    """fermirw sweep metric: sigma_of_rho, then metric_polar (which solves
    for sigma again)."""
    sigma = chart.sigma_of_rho(cosmo, row.tau, row.x, cfg)
    pm = metric.metric_polar(cosmo, row.tau, row.x, cfg)
    return _f(sigma), _f(pm.g_tau_tau), _f(pm.g_rho_rho), _f(pm.ang)


def _velocity(cosmo, cfg, row):
    """fermirw sweep velocity: fermi_speed."""
    rep = kinematics.fermi_speed(cosmo, row.tau, row.x, cfg)
    return _f(rep.sigma0), _f(rep.rho), _f(rep.v_fermi), _f(rep.v_hubble)


def _to_rw(cosmo, cfg, row):
    """fermirw transform to-rw: sigma_of_rho, t, chi, proper_radius."""
    sigma = chart.sigma_of_rho(cosmo, row.tau, row.x, cfg)
    t = geodesics.t_of_sigma(cosmo, row.tau, sigma)
    chi = geodesics.chi_of_sigma(cosmo, row.tau, sigma, cfg)
    return _f(sigma), _f(t), _f(chi), _f(kinematics.proper_radius(
        cosmo, row.tau, cfg))


def _event(cosmo, cfg, row):
    """fermi_from_rw (with the CLI's to-fermi sigma), rw_from_fermi back,
    then jacobian_F and metric_cartesian at the event."""
    fe = chart.fermi_from_rw(
        cosmo, chart.RWEvent(row.x, row.chi, row.theta, row.phi), cfg)
    m = cosmo.model
    sigma = (float(m.a(fe.tau)) / float(m.a(row.x))) ** 2
    back = chart.rw_from_fermi(cosmo, fe, cfg)
    jac = chart.jacobian_F(cosmo, fe.tau, sigma, cfg)
    g = metric.metric_cartesian(cosmo, fe.tau, *fe.cartesian(), cfg)
    return ((_f(fe.tau), _f(fe.rho), _f(sigma), _f(back.t), _f(back.chi),
             _f(jac)) + tuple(_f(v) for v in g.ravel()))


MIRRORS = {"metric": _metric, "velocity": _velocity, "to-rw": _to_rw,
           "event": _event}


def execute(row: Row, cosmos: dict, cfg) -> None:
    """Run one row, timing it; any exception marks the row failed."""
    fn = MIRRORS[row.kind]
    cosmo = cosmos[row.model]
    t0 = time.perf_counter_ns()
    try:
        row.out = fn(cosmo, cfg, row)
    except Exception as exc:  # every exception is a failed row, by design
        row.ns = time.perf_counter_ns() - t0
        row.error = f"{type(exc).__name__}: {exc}"
        return
    row.ns = time.perf_counter_ns() - t0


# ---------------------------------------------------------------------------
# Reference checks, run outside the timed region.


def _miss(label: str, got: float, want: float, tol: float,
          rel: bool = False) -> str | None:
    if not math.isfinite(got):
        return f"{label} not finite ({got})"
    err = abs(got - want)
    if rel:
        err /= abs(want)
    return None if err <= tol else f"{label} off by {err:.3g} > {tol:g}"


def check(row: Row, cosmos: dict, cfg, ref: dict) -> list[str]:
    """Failures of one completed row against its references."""
    vals = [float(v) for v in row.out]
    if not all(math.isfinite(v) for v in vals):
        return [f"non-finite output {row.out}"]
    if row.kind == "event":
        return _check_event(row, vals, ref[row.model])
    o = ref[row.model]
    tab = row.model == "tabulated"
    tol = TABLE_TOL if tab else ORACLE_TOL[row.model]
    tau, s = row.tau, row.sigma
    a0 = float(o.cosmology.model.a(tau))
    out = []
    if row.kind == "metric":
        sigma, gtt, grr, ang = vals
        out += [_miss("sigma", sigma, s, tol["sigma"], rel=True),
                _miss("g_tau_tau", gtt, o.g_tau_tau(tau, s), tol["lapse"]),
                _miss("g_rho_rho", grr, 1.0, 0.0),
                # ang = a0^2 chi^2 / sigma (k = 0): compare the chi it implies.
                _miss("chi(ang)", math.sqrt(ang * sigma) / a0, o.chi(tau, s),
                      tol["chi"])]
        if tab:
            out.append(_inverse_rho(row, sigma, cosmos, cfg))
    elif row.kind == "velocity":
        sigma0, rho, v_f, v_h = vals
        # v_hubble = a'(tau) chi0 with the model's own a', table or not.
        adot = float(cosmos[row.model].model.a_dot(tau))
        out += [_miss("sigma0", sigma0, s, tol["sigma0"], rel=True),
                _miss("rho", rho, o.rho(tau, s), tol["rho"]),
                _miss("v_fermi", v_f, o.v_f(s), tol["v"]),
                _miss("v_hubble", v_h, adot * row.x, STRUCTURE_TOL, rel=True)]
        if tab:
            chi = geodesics.chi_of_sigma(cosmos[row.model], tau, sigma0, cfg)
            out.append(_miss("chi_of_sigma(sigma0)", chi, row.x, INVERSE_TOL,
                             rel=True))
    else:
        sigma, t, chi, rho_slice = vals
        out += [_miss("sigma", sigma, s, tol["sigma"], rel=True),
                _miss("t", t, o.t(tau, s), tol["t"], rel=True),
                _miss("chi", chi, o.chi(tau, s), tol["chi"])]
        if tab:
            # The slice radius integrates past the table's first sample,
            # where the interpolant extrapolates: check structure only.
            if not row.x < rho_slice:
                out.append(f"rho_slice {rho_slice} not beyond rho {row.x}")
            out.append(_inverse_rho(row, sigma, cosmos, cfg))
        else:
            out.append(_miss("rho_slice", rho_slice, o.rho_slice(tau),
                             tol["rho_slice"] * tau))
    return [m for m in out if m]


def _inverse_rho(row: Row, sigma: float, cosmos: dict, cfg) -> str | None:
    rho = geodesics.rho_of_sigma(cosmos[row.model], row.tau, sigma, cfg)
    return _miss("rho_of_sigma(sigma)", rho, row.x, INVERSE_TOL, rel=True)


def _fd_jacobian(o, tau: float, s: float) -> float:
    """det d(t, chi)/d(tau, sigma) of the closed forms, central differences."""
    ht, hs = 1e-5 * tau, 1e-5 * (s - 1.0)
    t_tau = (o.t(tau + ht, s) - o.t(tau - ht, s)) / (2 * ht)
    t_s = (o.t(tau, s + hs) - o.t(tau, s - hs)) / (2 * hs)
    c_tau = (o.chi(tau + ht, s) - o.chi(tau - ht, s)) / (2 * ht)
    c_s = (o.chi(tau, s + hs) - o.chi(tau, s - hs)) / (2 * hs)
    return t_tau * c_s - t_s * c_tau


def _check_event(row: Row, vals: list[float], o) -> list[str]:
    tau_f, rho_f, sigma, t_back, chi_back, jac = vals[:6]
    g = np.array(vals[6:]).reshape(4, 4)
    tau, s = row.tau, row.sigma
    rho = o.rho(tau, s)
    xs = np.array(chart.FermiEvent(tau_f, rho_f, row.theta,
                                   row.phi).cartesian())
    spatial = g[1:, 1:]
    # g_ij = delta_ij + lambda (rho^2 delta_ij - x_i x_j): the trace gives
    # lambda rho^2 = ang/rho^2 - 1, the radial direction stays at 1.
    ang = rho_f ** 2 * (1.0 + 0.5 * (float(np.trace(spatial)) - 3.0))
    radial = float(xs @ spatial @ xs) / rho_f ** 2
    out = [_miss("round-trip t", t_back, row.x, EVENT_TOL, rel=True),
           _miss("round-trip chi", chi_back, row.chi, EVENT_TOL, rel=True),
           _miss("tau", tau_f, tau, EVENT_TOL, rel=True),
           _miss("rho", rho_f, rho, EVENT_TOL, rel=True),
           _miss("sigma", sigma, s, EVENT_TOL, rel=True),
           _miss("g_tau_tau", g[0, 0], o.g_tau_tau(tau, s),
                 EVENT_LAPSE_TOL[row.model]),
           _miss("ang", ang, o.ang(tau, s), EVENT_TOL, rel=True),
           _miss("radial g", radial, 1.0, 1e-9),
           _miss("jacobian_F", jac, _fd_jacobian(o, tau, s), JACOBIAN_TOL,
                 rel=True)]
    if np.any(g[0, 1:] != 0.0) or np.any(g[1:, 0] != 0.0) or \
            np.any(spatial != spatial.T):
        out.append("metric not block diagonal and symmetric")
    return [m for m in out if m]


# ---------------------------------------------------------------------------
# CLI parity: the mirrors must reproduce the CLI's 17-digit fields.

CLI_MODEL = {"matter": ["--model", "matter"],
             "de-sitter": ["--model", "de-sitter"],
             "milne": ["--model", "milne"],
             "radiation": ["--model", "radiation"]}


def _cli_row(argv: list[str], out_path: Path) -> dict | None:
    """First output row of one in-process CLI run; None if it failed."""
    from fermirw.cli import main
    if main(argv + ["--output", str(out_path)]) != 0:
        return None
    with out_path.open(newline="") as fh:
        return next(csv.DictReader(fh))


def cli_parity(rows: list[Row], table: Path | None, work: Path) -> list[str]:
    """Mismatches between mirrored rows and fermirw's own CLI output."""
    out = work / "cli.csv"
    bad = []
    for row in rows:
        model = (["--model", "tabulated", "--table", str(table)]
                 if row.model == "tabulated" else CLI_MODEL[row.model])
        tau, x = repr(row.tau), repr(row.x)
        if row.kind == "metric":
            checks = [(["sweep", "metric", "--tau", tau, "--start", x,
                        "--stop", x, "--samples", "2"],
                       ("sigma", "g_tau_tau", "g_rho_rho", "ang"), row.out)]
        elif row.kind == "velocity":
            checks = [(["sweep", "velocity", "--tau", tau, "--start", x,
                        "--stop", x, "--samples", "2"],
                       ("sigma0", "rho", "v_fermi", "v_hubble"), row.out)]
        elif row.kind == "to-rw":
            checks = [(["transform", "to-rw", "--tau", tau, "--rho", x],
                       ("sigma", "t", "chi", "rho_slice"), row.out)]
        else:
            angles = ["--theta", repr(row.theta), "--phi", repr(row.phi)]
            checks = [(["transform", "to-fermi", "--t", x, "--chi",
                        repr(row.chi)] + angles,
                       ("tau", "rho", "sigma"), row.out[:3]),
                      (["transform", "to-rw", "--tau",
                        repr(float(row.out[0])), "--rho",
                        repr(float(row.out[1]))] + angles,
                       ("t", "chi"), row.out[3:5])]
        for argv, cols, want in checks:
            got = _cli_row(argv + model, out)
            fields = None if got is None else tuple(got[c] for c in cols)
            if fields != tuple(want):
                bad.append(f"fermirw {' '.join(argv[:2])} on {row.model} "
                           f"tau={tau}: CLI {fields} != mirror {want}")
    return bad
