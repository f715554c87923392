"""Span tracing around fermirw's layer boundaries, from outside the package.

Nothing under ``src/`` changes.  ``Tracer.installed()`` replaces, in every
``fermirw`` module that holds them, the public functions each module
imports from the layer below (so ``fermirw.metric.sigma_of_rho`` and
``fermirw.geodesics.integrate_sigma`` are both wrapped), and
``Tracer.traced_cosmology`` wraps the model callables of one Cosmology
with ``dataclasses.replace``.  Every wrapped call records a span (name,
start, end, parent, row) in memory; self time is a span's duration minus
the time of its child spans.  Spans are written out once, at the end.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gzip
import importlib
import json
import pkgutil
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# (module, function) pairs wrapped in every fermirw module that binds them,
# lowest layer first.  L0 numerics, L1 slice maps, L2 inversions, L3
# products; the model callables sit below L0 and are wrapped per Cosmology.
LAYER_FUNCS = (
    ("numerics", "integrate_sigma"),
    ("numerics", "find_root_monotone"),
    ("geodesics", "t_of_sigma"),
    ("geodesics", "chi_of_sigma"),
    ("geodesics", "rho_of_sigma"),
    ("kinematics", "proper_radius"),
    ("chart", "sigma_of_rho"),
    ("kinematics", "sigma_of_chi"),
    ("chart", "fermi_from_rw"),
    ("chart", "rw_from_fermi"),
    ("metric", "metric_polar"),
    ("metric", "g_tau_tau"),
    ("metric", "lambda_k"),
    ("metric", "metric_cartesian"),
    ("kinematics", "fermi_speed"),
    ("chart", "jacobian_F"),
)
MODEL_ATTRS = ("a", "a_dot", "b", "b_dot", "b_ddot")
MODEL_SPAN = "cosmology.model"
ROOT_SPAN = "numerics.find_root_monotone"
INTEGRATE_SPAN = "numerics.integrate_sigma"
L1_SPANS = ("geodesics.t_of_sigma", "geodesics.chi_of_sigma",
            "geodesics.rho_of_sigma", "kinematics.proper_radius")
# Slice maps whose calls an inversion makes before its root find are
# bracket work: evaluations Brent never sees.
BRACKETED_MAPS = ("geodesics.chi_of_sigma", "geodesics.rho_of_sigma")
INVERSIONS = ("chart.sigma_of_rho", "kinematics.sigma_of_chi",
              "chart.fermi_from_rw")
# Points per G7/K15 panel: one model call on this many nodes is one panel.
K15_POINTS = 15


def span_names() -> list[str]:
    return [f"{m}.{f}" for m, f in LAYER_FUNCS]


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.s_name = array("i")
        self.s_start = array("q")
        self.s_end = array("q")
        self.s_parent = array("i")
        self.s_row = array("i")
        # Open spans: [index, name, start_ns, child_ns, root_started].
        self._stack: list[list] = []
        self.counts: Counter = Counter()
        # (row model, span name) -> [calls, inclusive ns, self ns]
        self.by_model: dict[tuple[str, str], list[int]] = {}
        # L1 call key -> row that first made it.
        self._seen_l1: dict = {}
        self.row = -1
        self.row_model = ""

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> None:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.s_name)
        self.s_name.append(nid)
        self.s_parent.append(self._stack[-1][0] if self._stack else -1)
        self.s_row.append(self.row)
        self.s_end.append(0)
        start = time.perf_counter_ns()
        self.s_start.append(start)
        self._stack.append([idx, name, start, 0, False])

    def close(self) -> None:
        end = time.perf_counter_ns()
        idx, name, start, child, _ = self._stack.pop()
        self.s_end[idx] = end
        dur = end - start
        agg = self.by_model.get((self.row_model, name))
        if agg is None:
            agg = self.by_model[(self.row_model, name)] = [0, 0, 0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child
        if self._stack:
            self._stack[-1][3] += dur

    @contextlib.contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    # -- per-layer bookkeeping --------------------------------------------

    def _note_l1(self, name: str, args) -> None:
        cosmo, tau = args[0], float(args[1])
        key = (name, cosmo.name, tau,
               None if name == "kinematics.proper_radius" else float(args[2]))
        self.counts["geodesics.l1_calls"] += 1
        first_row = self._seen_l1.get(key)
        if first_row is None:
            self._seen_l1[key] = self.row
        else:
            self.counts["geodesics.l1_repeats"] += 1
            if first_row != self.row:
                self.counts["geodesics.l1_cross_row_repeats"] += 1
        if name not in BRACKETED_MAPS:
            return
        for frame in reversed(self._stack):
            if frame[1] == ROOT_SPAN:
                return
            if frame[1] in INVERSIONS:
                if not frame[4]:
                    self.counts[f"{frame[1]}.bracket_evals"] += 1
                return

    def _mark_root_started(self) -> None:
        for frame in reversed(self._stack):
            if frame[1] in INVERSIONS:
                frame[4] = True
                return

    def _counted_integrand(self, f):
        # integrate_sigma re-enters itself for slowly decaying tails; count
        # each evaluation once.
        if getattr(f, "counted", False):
            return f
        counts = self.counts

        def g(s):
            n = int(np.size(s))
            counts["numerics.integrand_points"] += n
            if n == K15_POINTS:
                counts["numerics.panels"] += 1
            return f(s)
        g.counted = True
        return g

    def _counted_root_fn(self, g):
        counts = self.counts

        def h(x):
            counts["numerics.find_root_monotone.evals"] += 1
            return g(x)
        return h

    def _wrap(self, name: str, fn):
        tracer = self
        is_l1 = name in L1_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_l1:
                tracer._note_l1(name, args)
            if name == INTEGRATE_SPAN:
                args = (tracer._counted_integrand(args[0]),) + args[1:]
            elif name == ROOT_SPAN:
                tracer._mark_root_started()
                args = (tracer._counted_root_fn(args[0]),) + args[1:]
            tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close()
        return wrapper

    def _wrap_model_callable(self, fn):
        tracer = self

        def wrapper(x):
            tracer.counts["cosmology.model.points"] += int(np.size(x))
            tracer.open(MODEL_SPAN)
            try:
                return fn(x)
            finally:
                tracer.close()
        return wrapper

    def traced_cosmology(self, cosmo):
        """Copy of cosmo whose model callables record spans and points."""
        model = cosmo.model
        wrapped = {attr: self._wrap_model_callable(getattr(model, attr))
                   for attr in MODEL_ATTRS}
        return dataclasses.replace(
            cosmo, model=dataclasses.replace(model, **wrapped))

    @contextlib.contextmanager
    def installed(self):
        """Wrap LAYER_FUNCS in every fermirw module; restore on exit."""
        import fermirw
        modules = [fermirw] + [
            importlib.import_module(f"fermirw.{info.name}")
            for info in pkgutil.iter_modules(fermirw.__path__)]
        patches = []
        for modname, fname in LAYER_FUNCS:
            orig = getattr(importlib.import_module(f"fermirw.{modname}"),
                           fname)
            wrapper = self._wrap(f"{modname}.{fname}", orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        patches.append((mod, attr, orig, wrapper))
        for mod, attr, _, wrapper in patches:
            setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, orig, _ in patches:
                setattr(mod, attr, orig)

    # -- results ----------------------------------------------------------

    def per_row(self, rows: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per traced row: name -> (value, unit)."""
        c = self.counts
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for (_, name), (n, _, own) in self.by_model.items():
            calls[name] += n
            self_ns[name] += own
        out = {
            "numerics.panels": (c["numerics.panels"] / rows, "count/row"),
            "numerics.integrand_points": (
                c["numerics.integrand_points"] / rows, "count/row"),
            "cosmology.model.calls": (calls[MODEL_SPAN] / rows,
                                      "count/row"),
            "cosmology.model.points": (c["cosmology.model.points"] / rows,
                                       "count/row"),
            "cosmology.model.self_ms": (self_ns[MODEL_SPAN] / 1e6 / rows,
                                        "ms/row"),
            "numerics.find_root_monotone.evals": (
                c["numerics.find_root_monotone.evals"] / rows, "count/row"),
        }
        for name in INVERSIONS:
            out[f"{name}.bracket_evals"] = (
                c[f"{name}.bracket_evals"] / rows, "count/row")
        for name in span_names():
            out[f"{name}.calls"] = (calls[name] / rows, "count/row")
            out[f"{name}.self_ms"] = (self_ns[name] / 1e6 / rows,
                                      "ms/row")
        l1 = c["geodesics.l1_calls"]
        out["geodesics.repeat_frac"] = (
            c["geodesics.l1_repeats"] / l1 if l1 else 0.0, "fraction")
        out["geodesics.cross_row_repeat_frac"] = (
            c["geodesics.l1_cross_row_repeats"] / l1 if l1 else 0.0,
            "fraction")
        return out

    def write(self, path: Path, extra: dict) -> None:
        """Spans as gzipped CSV plus a per-(model, span) JSON summary."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path.with_suffix(".csv.gz"), "wt") as fh:
            fh.write("index,name,start_ns,end_ns,parent,row\n")
            names = self.names
            for i in range(len(self.s_name)):
                fh.write(f"{i},{names[self.s_name[i]]},{self.s_start[i]},"
                         f"{self.s_end[i]},{self.s_parent[i]},"
                         f"{self.s_row[i]}\n")
        summary = {
            "spans": len(self.s_name),
            "per_call": [
                {"model": model, "name": name, "calls": v[0],
                 "incl_ms_per_call": v[1] / 1e6 / v[0],
                 "self_ms_per_call": v[2] / 1e6 / v[0]}
                for (model, name), v in sorted(self.by_model.items())],
            "counts": dict(sorted(self.counts.items())),
            **extra,
        }
        path.with_suffix(".json").write_text(json.dumps(summary, indent=1)
                                             + "\n")
