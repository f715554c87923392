"""Command line front end: transforms, sweeps, and verification runs.

Deterministic by construction: identical invocations produce byte
identical output (no timestamps; ``--meta`` opts into provenance
comments).  Exit codes: 0 success, 1 verification failure, 2 domain
error, 3 accuracy error, 64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import __version__
from .chart import FermiEvent, RWEvent, fermi_from_rw, rw_from_fermi
from .chart import sigma_of_rho as _sigma_of_rho
from .cosmology import (Cosmology, hubble, load_table, make_exponential,
                        make_power_law, make_tabulated)
from .errors import AccuracyError, DomainError
from .geodesics import chi_of_sigma, rho_of_sigma, t_of_sigma
from .kinematics import fermi_speed, proper_radius
from .metric import metric_polar
from .numerics import DEFAULT_CONFIG, NumericsConfig, table_safe_config
from .verify import SUITE_NAMES, format_report, ode_spec, run_suite

__all__ = ["main", "RunConfig"]

_EX_OK, _EX_VERIFY, _EX_DOMAIN, _EX_ACCURACY, _EX_USAGE = 0, 1, 2, 3, 64

_MODEL_CHOICES = ("milne", "de-sitter", "power-law", "radiation", "matter",
                  "tabulated")
# Families with every parameter pinned: (alpha, k).
_FIXED_POWER = {"milne": (1.0, -1), "radiation": (0.5, 0),
                "matter": (2.0 / 3.0, 0)}


class _Parser(argparse.ArgumentParser):
    """argparse with the BSD convention for usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_EX_USAGE, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: model, numerics, and output routing."""

    cosmology: Cosmology | None
    model_desc: dict
    numerics: NumericsConfig
    fmt: str
    output: str | None
    meta: bool
    invocation: str


def _add_common(parser: argparse.ArgumentParser, need_model: bool) -> None:
    g = parser.add_argument_group("model selection")
    g.add_argument("--model", choices=_MODEL_CHOICES, required=need_model,
                   help="expansion history family")
    g.add_argument("--alpha", type=float,
                   help="exponent for --model power-law (0 < alpha <= 1)")
    g.add_argument("--h0", type=float,
                   help="expansion rate for --model de-sitter (default 1)")
    g.add_argument("--table", metavar="PATH",
                   help="CSV or JSON samples for --model tabulated")
    g.add_argument("--k", type=int, choices=(0, -1),
                   help="spatial curvature (fixed families reject a mismatch)")
    g = parser.add_argument_group("numerics overrides")
    g.add_argument("--quad-rel-tol", type=float, metavar="TOL")
    g.add_argument("--quad-abs-tol", type=float, metavar="TOL")
    g.add_argument("--root-tol", type=float, metavar="TOL")
    g.add_argument("--max-iter", type=int, metavar="N")
    g = parser.add_argument_group("output")
    g.add_argument("--format", choices=("csv", "json"), default="csv")
    g.add_argument("--output", metavar="PATH",
                   help="write to PATH instead of standard output")
    g.add_argument("--meta", action="store_true",
                   help="include provenance headers in the output")


def build_parser() -> _Parser:
    parser = _Parser(prog="fermirw", description=(
        "Fermi coordinates of comoving observers in expanding "
        "Robertson-Walker spacetimes: coordinate transforms, metric "
        "components, Fermi velocities, and slice radii."))
    parser.add_argument("--version", action="version",
                        version=f"fermirw {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{transform,sweep,verify}")

    p = sub.add_parser("transform",
                       help="map one event between the two charts")
    p.add_argument("direction", choices=("to-fermi", "to-rw"))
    p.add_argument("--tau", type=float, help="Fermi slice time (to-rw)")
    p.add_argument("--rho", type=float, help="Fermi proper radius (to-rw)")
    p.add_argument("--t", type=float, help="comoving time (to-fermi)")
    p.add_argument("--chi", type=float, help="comoving radius (to-fermi)")
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--phi", type=float, default=0.0)
    _add_common(p, need_model=True)

    p = sub.add_parser("sweep", help="tabulate a quantity over a range")
    p.add_argument("quantity",
                   choices=("geodesic", "metric", "velocity", "radius"))
    p.add_argument("--tau", type=float,
                   help="slice time (geodesic, metric, velocity)")
    p.add_argument("--start", type=float, required=True,
                   help="first value of the swept variable")
    p.add_argument("--stop", type=float, required=True,
                   help="last value of the swept variable")
    p.add_argument("--samples", type=int, default=50,
                   help="number of rows (>= 2, default 50)")
    _add_common(p, need_model=True)

    p = sub.add_parser("verify", help="run self-check suites")
    p.add_argument("suite", choices=SUITE_NAMES)
    _add_common(p, need_model=False)
    return parser


def _resolve_model(args, parser: _Parser) -> tuple[Cosmology, dict]:
    name = args.model
    if args.alpha is not None and name != "power-law":
        parser.error("--alpha applies only to --model power-law")
    if args.h0 is not None and name != "de-sitter":
        parser.error("--h0 applies only to --model de-sitter")
    if args.table is not None and name != "tabulated":
        parser.error("--table applies only to --model tabulated")

    if name in _FIXED_POWER:
        alpha, k = _FIXED_POWER[name]
        if args.k is not None and args.k != k:
            parser.error(f"--model {name} fixes k={k}")
        cosmo = Cosmology(make_power_law(alpha), k=k, name=name)
        return cosmo, {"family": name, "alpha": alpha, "k": k}
    if name == "de-sitter":
        if args.k is not None and args.k != 0:
            parser.error("--model de-sitter fixes k=0")
        h0 = 1.0 if args.h0 is None else args.h0
        cosmo = Cosmology(make_exponential(h0), k=0, name=name)
        return cosmo, {"family": name, "h0": h0, "k": 0}
    if name == "power-law":
        if args.alpha is None:
            parser.error("--model power-law requires --alpha")
        k = 0 if args.k is None else args.k
        cosmo = Cosmology(make_power_law(args.alpha), k=k, name=name)
        return cosmo, {"family": name, "alpha": args.alpha, "k": k}
    if args.table is None:
        parser.error("--model tabulated requires --table")
    k = 0 if args.k is None else args.k
    cosmo = Cosmology(make_tabulated(load_table(args.table)), k=k,
                      name="tabulated")
    return cosmo, {"family": name, "table": args.table, "k": k}


def _resolve_numerics(args) -> NumericsConfig:
    overrides = {}
    for flag, field_name in (("quad_rel_tol", "quad_rel_tol"),
                             ("quad_abs_tol", "quad_abs_tol"),
                             ("root_tol", "root_tol"),
                             ("max_iter", "max_iter")):
        value = getattr(args, flag)
        if value is not None:
            overrides[field_name] = value
    return replace(DEFAULT_CONFIG, **overrides) if overrides \
        else DEFAULT_CONFIG


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _emit(rc: RunConfig, schema: list[str], rows: list[dict]) -> None:
    if rc.fmt == "csv":
        buf = io.StringIO()
        if rc.meta:
            buf.write(f"# fermirw {__version__}\n")
            buf.write(f"# model: {json.dumps(rc.model_desc)}\n")
            buf.write(f"# invocation: {rc.invocation}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(schema)
        for row in rows:
            writer.writerow([_fmt(row.get(col)) for col in schema])
        text = buf.getvalue()
    else:
        payload: dict = {"schema": schema, "model": rc.model_desc}
        if rc.meta:
            payload["meta"] = {"generator": f"fermirw {__version__}",
                               "invocation": rc.invocation}
        payload["rows"] = [{col: row.get(col) for col in schema}
                           for row in rows]
        text = json.dumps(payload, indent=2) + "\n"
    if rc.output:
        Path(rc.output).write_text(text)
    else:
        sys.stdout.write(text)


def _require(parser: _Parser, args, names: list[str], context: str) -> None:
    missing = [f"--{n}" for n in names if getattr(args, n) is None]
    if missing:
        parser.error(f"{context} requires {', '.join(missing)}")


def cmd_transform(args, rc: RunConfig, parser: _Parser) -> int:
    cosmo, cfg = rc.cosmology, rc.numerics
    if args.direction == "to-rw":
        _require(parser, args, ["tau", "rho"], "transform to-rw")
        sigma = _sigma_of_rho(cosmo, args.tau, args.rho, cfg)
        ev = rw_from_fermi(
            cosmo, FermiEvent(args.tau, args.rho, args.theta, args.phi), cfg)
        row = {"tau": args.tau, "rho": args.rho, "theta": args.theta,
               "phi": args.phi, "sigma": sigma, "t": ev.t, "chi": ev.chi,
               "rho_slice": proper_radius(cosmo, args.tau, cfg)}
        schema = ["tau", "rho", "theta", "phi", "sigma", "t", "chi",
                  "rho_slice"]
    else:
        _require(parser, args, ["t", "chi"], "transform to-fermi")
        fe = fermi_from_rw(
            cosmo, RWEvent(args.t, args.chi, args.theta, args.phi), cfg)
        sigma = (float(cosmo.model.a(fe.tau))
                 / float(cosmo.model.a(args.t))) ** 2
        row = {"t": args.t, "chi": args.chi, "theta": args.theta,
               "phi": args.phi, "tau": fe.tau, "rho": fe.rho,
               "sigma": sigma,
               "rho_slice": proper_radius(cosmo, fe.tau, cfg)}
        schema = ["t", "chi", "theta", "phi", "tau", "rho", "sigma",
                  "rho_slice"]
    _emit(rc, schema, [row])
    return _EX_OK


def _sweep_values(args, parser: _Parser) -> list[float]:
    if args.samples < 2:
        parser.error("--samples must be at least 2")
    n = args.samples
    step = (args.stop - args.start) / (n - 1)
    return [args.start + i * step for i in range(n)]


def cmd_sweep(args, rc: RunConfig, parser: _Parser) -> int:
    cosmo, cfg = rc.cosmology, rc.numerics
    values = _sweep_values(args, parser)
    if args.quantity in ("geodesic", "metric", "velocity"):
        _require(parser, args, ["tau"], f"sweep {args.quantity}")
    elif args.tau is not None:
        parser.error("sweep radius sweeps tau itself; drop --tau")

    tau = args.tau

    def geodesic(row, s):
        row.update(t=t_of_sigma(cosmo, tau, s),
                   chi=chi_of_sigma(cosmo, tau, s, cfg),
                   rho=rho_of_sigma(cosmo, tau, s, cfg))

    def metric(row, r):
        row["sigma"] = _sigma_of_rho(cosmo, tau, r, cfg)
        pm = metric_polar(cosmo, tau, r, cfg)
        row.update(g_tau_tau=pm.g_tau_tau, g_rho_rho=pm.g_rho_rho,
                   ang=pm.ang)

    def velocity(row, chi0):
        rep = fermi_speed(cosmo, tau, chi0, cfg)
        row.update(sigma0=rep.sigma0, rho=rep.rho, v_fermi=rep.v_fermi,
                   v_hubble=rep.v_hubble)

    def radius(row, tau_row):
        row.update(rho_slice=proper_radius(cosmo, tau_row, cfg),
                   hubble_radius=1.0 / hubble(cosmo, tau_row))

    schema, fill = {
        "geodesic": (["sigma", "t", "chi", "rho", "error"], geodesic),
        "metric": (["rho", "sigma", "g_tau_tau", "g_rho_rho", "ang",
                    "error"], metric),
        "velocity": (["chi0", "sigma0", "rho", "v_fermi", "v_hubble",
                      "error"], velocity),
        "radius": (["tau", "rho_slice", "hubble_radius", "error"], radius),
    }[args.quantity]
    rows: list[dict] = []
    for value in values:
        row = {schema[0]: value}
        try:
            fill(row, value)
        except DomainError as exc:
            row["error"] = str(exc)
        rows.append(row)
    _emit(rc, schema, rows)
    return _EX_OK


def cmd_verify(args, rc: RunConfig, parser: _Parser) -> int:
    specs = None
    if rc.cosmology is not None:
        if args.suite not in ("ode-oracle", "all"):
            parser.error("--model applies to the ode-oracle suite only")
        specs = [ode_spec(rc.cosmology, rc.model_desc.get("h0"),
                          rc.model_desc.get("alpha"))]
    results = run_suite(args.suite, rc.numerics, specs)
    if rc.fmt == "json":
        schema = ["name", "residual", "tolerance", "passed", "detail"]
        rows = [{"name": r.name, "residual": r.residual,
                 "tolerance": r.tolerance, "passed": r.passed,
                 "detail": r.detail} for r in results]
        _emit(rc, schema, rows)
    else:
        text = format_report(results) + "\n"
        if rc.output:
            Path(rc.output).write_text(text)
        else:
            sys.stdout.write(text)
    return _EX_OK if all(r.passed for r in results) else _EX_VERIFY


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    argv_used = list(sys.argv[1:] if argv is None else argv)
    try:
        cosmo, desc = (None, {})
        if args.model is not None:
            cosmo, desc = _resolve_model(args, parser)
        numerics = _resolve_numerics(args)
        if (desc.get("family") == "tabulated"
                and args.quad_rel_tol is None and args.quad_abs_tol is None):
            numerics = table_safe_config(numerics)
        rc = RunConfig(cosmology=cosmo, model_desc=desc,
                       numerics=numerics, fmt=args.format,
                       output=args.output, meta=args.meta,
                       invocation=" ".join(argv_used))
        if args.command == "transform":
            return cmd_transform(args, rc, parser)
        if args.command == "sweep":
            return cmd_sweep(args, rc, parser)
        return cmd_verify(args, rc, parser)
    except DomainError as exc:
        print(f"fermirw: domain error: {exc}", file=sys.stderr)
        return _EX_DOMAIN
    except AccuracyError as exc:
        print(f"fermirw: accuracy error: {exc}", file=sys.stderr)
        return _EX_ACCURACY


if __name__ == "__main__":
    sys.exit(main())
