"""Scale-factor models and the cosmology container.

A model packages the scale factor a(t), its derivative, and the inverse
function b = a^(-1) together with the two quantities chart construction
cares about: the early-time limit a_inf = lim a(t) as t -> 0+ and whether
b is convex (b'' >= 0), which decides if the Fermi chart covers the whole
spacetime slice or only a bounded region.

All callables accept scalars or numpy arrays; time is restricted to t > 0
and the comoving-observer age tau plays the same role.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import (DomainError, TableError, UnsupportedCurvatureError,
                     _finite, _no_overflow)

__all__ = [
    "ScaleFactorModel",
    "Cosmology",
    "make_power_law",
    "make_exponential",
    "make_tabulated",
    "load_table",
    "hubble",
    "sigma_infinity",
    "sigma_breaks",
]

MIN_TABLE_SAMPLES = 4


@dataclass(frozen=True)
class ScaleFactorModel:
    """Scale factor a, inverse b, and their derivatives.

    a_inf is the limit of a(t) for t -> 0+; zero means the scale factor
    runs down to a big bang.  global_chart records b'' >= 0, the condition
    under which every event of the slice lies in the Fermi chart.
    """

    a: Callable
    a_dot: Callable
    b: Callable
    b_dot: Callable
    b_ddot: Callable
    a_inf: float
    global_chart: bool
    # Knot a-values of interpolated models: points where derivative
    # interpolants switch polynomial pieces.  None for analytic models.
    a_grid: tuple[float, ...] | None = None
    # The same knots as a numpy array, for sigma_breaks.
    a_knots: np.ndarray | None = field(default=None, init=False, repr=False,
                                       compare=False)
    # The hash, taken once: a model keys the slice-store cache, and hashing
    # a long knot tuple on every lookup would cost more than the lookup.
    _hash: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.a_grid is not None:
            object.__setattr__(self, "a_knots", np.asarray(self.a_grid))
        object.__setattr__(self, "_hash", hash((
            self.a, self.a_dot, self.b, self.b_dot, self.b_ddot, self.a_inf,
            self.global_chart, self.a_grid)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class Cosmology:
    """A scale-factor model with its spatial curvature index k in {0, -1}."""

    model: ScaleFactorModel
    k: int
    name: str = ""

    def __post_init__(self):
        if self.k not in (0, -1):
            raise UnsupportedCurvatureError(
                f"curvature k={self.k} unsupported; use 0 or -1")


def make_power_law(alpha: float) -> ScaleFactorModel:
    """a(t) = t**alpha for 0 < alpha <= 1; b(x) = x**(1/alpha)."""
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"power-law exponent must be in (0, 1], got {alpha}")
    p = 1.0 / alpha
    return ScaleFactorModel(
        a=lambda t: t ** alpha,
        a_dot=lambda t: alpha * t ** (alpha - 1.0),
        b=lambda x: x ** p,
        b_dot=lambda x: p * x ** (p - 1.0),
        b_ddot=lambda x: p * (p - 1.0) * x ** (p - 2.0),
        a_inf=0.0,
        global_chart=True,
    )


def make_exponential(h0: float) -> ScaleFactorModel:
    """a(t) = exp(h0 t) with constant Hubble rate h0 > 0.

    The early-time limit is a_inf = 1, so the Fermi chart of any observer
    covers only a bounded sigma range (global_chart is False: b'' < 0).
    """
    if not h0 > 0.0:
        raise DomainError(f"expansion rate must be positive, got {h0}")
    return ScaleFactorModel(
        a=lambda t: np.exp(h0 * t),
        a_dot=lambda t: h0 * np.exp(h0 * t),
        b=lambda x: np.log(x) / h0,
        b_dot=lambda x: 1.0 / (h0 * x),
        b_ddot=lambda x: -1.0 / (h0 * x * x),
        a_inf=1.0,
        global_chart=False,
    )


class _PPoly:
    """A piecewise polynomial on ascending knots x, in the layout of
    scipy.interpolate.PPoly: c[m, i] multiplies (t - x_i)^(k - m) on
    [x_i, x_i+1), k = len(c) - 1.

    Evaluation repeats scipy's arithmetic, so values agree bit for bit:
    t picks the piece [x_i, x_i+1) (the last piece also holds x_n, and the
    end pieces extrapolate), and the sum runs over rising powers of
    s = t - x_i, each power the previous one times s.  A Python int or
    float (np.float64 included) goes through bisect on lists and returns
    a float; anything else goes through numpy and returns an array.
    """

    def __init__(self, x: np.ndarray, c: np.ndarray):
        self.x, self.c = x, c
        self._inner = x[1:-1]
        self._rows = c[::-1]    # constant term first
        # The scalar path: lists index faster than arrays, and bisect
        # takes them.
        self._knots = x.tolist()
        self._inner_list = self._knots[1:-1]
        self._row_lists = [row.tolist() for row in self._rows]

    def derivative(self) -> "_PPoly":
        """The derivative: row m times its power k - m, as PPoly does."""
        k = len(self.c) - 1
        return _PPoly(self.x, self.c[:-1] * np.arange(k, 0, -1)[:, None])

    def __call__(self, t):
        if isinstance(t, (int, float)):
            t = float(t)
            i = bisect.bisect_right(self._inner_list, t)
            s = t - self._knots[i]
            rows = self._row_lists
            y, z = rows[0][i], 1.0
            for row in rows[1:]:
                z *= s
                y += row[i] * z
            return y
        t = np.asarray(t, dtype=float)
        i = self._inner.searchsorted(t, side="right")
        s = t - self.x.take(i)
        y, z = self._rows[0].take(i), None
        for row in self._rows[1:]:
            z = s if z is None else z * s
            y = y + row.take(i) * z
        return y


def _pchip(x: np.ndarray, y: np.ndarray) -> _PPoly:
    """The monotone cubic Hermite interpolant of scipy's PchipInterpolator.

    Slopes are the Fritsch-Butland weighted harmonic means of the secant
    slopes (Fritsch and Carlson, SIAM J. Numer. Anal. 17, 1980; Fritsch
    and Butland, SIAM J. Sci. Stat. Comput. 5, 1984), zero where the
    secants change sign or vanish, with Moler's one-sided end rule
    (Numerical Computing with MATLAB, sec. 3.6).  Each operation is
    scipy's, in scipy's order, so the pieces are bit-identical to
    PchipInterpolator(x, y)'s.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    flat = ((np.sign(m[1:]) != np.sign(m[:-1]))
            | (m[1:] == 0.0) | (m[:-1] == 0.0))
    d = np.zeros_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:])
                                             / (w1 + w2)))

    def end(h0, h1, m0, m1):
        e = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(e) != np.sign(m0):
            return 0.0
        if np.sign(m0) != np.sign(m1) and abs(e) > 3.0 * abs(m0):
            return 3.0 * m0
        return e

    d[0] = end(h[0], h[1], m[0], m[1])
    d[-1] = end(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    return _PPoly(x, np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1])))


def make_tabulated(samples: Sequence[tuple[float, float]]) -> ScaleFactorModel:
    """Monotone shape-preserving cubic model through (t, a) samples.

    a and b are PCHIP interpolants (see _pchip), bit-identical to
    scipy.interpolate.PchipInterpolator's; a', b' and b'' are their
    derivative polynomials.  b comes from interpolating the swapped (a, t)
    pairs, not from inverting the a interpolant, so the two curves are
    each exact at the knots.  Second derivatives of the interpolant are
    only O(h) accurate.
    """
    if len(samples) < MIN_TABLE_SAMPLES:
        raise TableError(
            f"need at least {MIN_TABLE_SAMPLES} samples, got {len(samples)}")
    ts = np.array([float(s[0]) for s in samples])
    avals = np.array([float(s[1]) for s in samples])
    for name, vals in (("t", ts), ("a", avals)):
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise TableError(f"{name} sample at index {bad[0]} is "
                             f"{vals[bad[0]]:g}; samples must be finite")
    if ts[0] <= 0.0:
        raise TableError(f"sample 0 has t={ts[0]:g}; times must be positive")
    for i in range(1, len(ts)):
        if ts[i] <= ts[i - 1]:
            raise TableError(f"t samples not strictly increasing at index {i}")
        if avals[i] <= avals[i - 1]:
            raise TableError(f"a samples not strictly increasing at index {i}")
    if avals[0] <= 0.0:
        raise TableError(f"sample 0 has a={avals[0]:g}; scale factor must be positive")

    a_interp = _pchip(ts, avals)
    b_interp = _pchip(avals, ts)
    a_dot = a_interp.derivative()
    b_dot = b_interp.derivative()
    b_ddot = b_dot.derivative()

    a_inf = max(0.0, a_interp(0.0))
    probe = np.linspace(avals[0], avals[-1], 257)
    curv = b_ddot(probe)
    scale = float(np.max(np.abs(curv))) or 1.0
    global_chart = bool(np.all(curv >= -1e-8 * scale))

    return ScaleFactorModel(
        a=a_interp, a_dot=a_dot, b=b_interp, b_dot=b_dot, b_ddot=b_ddot,
        a_inf=a_inf, global_chart=global_chart,
        a_grid=tuple(float(v) for v in avals),
    )


def load_table(path: str | Path) -> list[tuple[float, float]]:
    """Read (t, a) samples from a two-column CSV (header ``t,a``) or a JSON
    array of [t, a] pairs, chosen by file extension."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise TableError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(raw, list):
            raise TableError(f"{path}: expected a JSON array of [t, a] pairs")
        out = []
        for i, row in enumerate(raw):
            if not isinstance(row, (list, tuple)) or len(row) != 2:
                raise TableError(f"{path}: entry {i} is not a [t, a] pair")
            try:
                out.append((float(row[0]), float(row[1])))
            except (TypeError, ValueError) as exc:
                raise TableError(f"{path}: entry {i} ({row!r}) is not a pair "
                                 f"of numbers") from exc
        return out
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TableError(f"{path}: empty file") from None
        if [h.strip().lower() for h in header] != ["t", "a"]:
            raise TableError(f"{path}: expected header 't,a', got {header}")
        out = []
        for i, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise TableError(f"{path}: line {i} does not have two columns")
            try:
                out.append((float(row[0]), float(row[1])))
            except ValueError as exc:
                raise TableError(f"{path}: line {i}: {exc}") from exc
        return out


def _check_time(tau: float) -> float:
    return _finite("time", tau)


def hubble(cosmo: Cosmology, tau: float) -> float:
    """Hubble rate H(tau) = a'(tau)/a(tau)."""
    tau = _check_time(tau)
    return _no_overflow("H", float(cosmo.model.a_dot(tau))
                        / float(cosmo.model.a(tau)))


def sigma_infinity(cosmo: Cosmology, tau: float) -> float:
    """Least upper bound of the stretch sigma on the tau slice.

    Infinite when the scale factor runs down to zero (a_inf = 0),
    otherwise (a(tau)/a_inf)^2; DomainError where that overflows.
    """
    tau = _check_time(tau)
    if cosmo.model.a_inf == 0.0:
        return math.inf
    ratio = float(cosmo.model.a(tau)) / cosmo.model.a_inf
    if not ratio * ratio < math.inf:
        raise DomainError(f"sigma_infinity overflows on the tau={tau:g} slice")
    return ratio * ratio


def sigma_breaks(cosmo: Cosmology, tau: float, sigma_hi: float,
                 a0: float | None = None) -> np.ndarray | None:
    """Interior sigma points where slice integrands lose smoothness.

    Interpolated models have piecewise-polynomial derivatives; a geodesic
    integrand evaluated at a(tau)/sqrt(s) crosses one knot a_k at
    s = (a(tau)/a_k)^2.  Quadrature split at these points converges per
    piece.  An ascending array of the points in (1 + 1e-12, sigma_hi);
    None for analytic models.  a0, when given, is a(tau), already
    evaluated by the caller.
    """
    grid = cosmo.model.a_grid
    if grid is None:
        return None
    if a0 is None:
        a0 = float(cosmo.model.a(_check_time(tau)))
    # Knots a_k < a0 give s > 1, and s falls as a_k rises, so the knots
    # below sigma_hi sit above a0/sqrt(sigma_hi).  The bisection bound is
    # widened by 1e-9 so the exact test on s, not rounding, decides.
    low = a0 / math.sqrt(sigma_hi) * (1.0 - 1e-9) if sigma_hi > 1.0 else a0
    top = bisect.bisect_left(grid, a0)
    bottom = min(top, bisect.bisect_left(grid, low))
    s = (a0 / cosmo.model.a_knots[bottom:top][::-1]) ** 2
    return s[(s < sigma_hi) & (s > 1.0 + 1e-12)]
