"""Quadrature, root finding, and special functions tuned for sigma integrals.

The geodesic and metric maps all reduce to integrals over the stretch
variable sigma with an integrable (sigma - 1)^(-1/2) endpoint singularity
and, for slice radii and velocity suprema, an infinite upper limit.
``integrate_sigma``, public but with no caller inside the package,
removes the singularity with sigma = 1 + u^2 and compactifies the tail
with s = 1/sqrt(sigma) before handing the smooth transformed integrand
to an adaptive Gauss-Kronrod (G7, K15) kernel.
None of the Kronrod nodes sit on an interval endpoint, so transformed
integrands are never evaluated at the singular points themselves.  A
panel whose value is not finite raises AccuracyError rather than passing
NaN on as converged, and so does a RuntimeWarning from the integrand, the
form an overflow or a NaN takes under an error::RuntimeWarning filter,
there or in integrate_sigma's direct calls of it.
The model slice integrals, in the slice store ``geodesics.Slice``, make
the same two substitutions in their integrands themselves, with the seam
between them at sigma = 2, and split every range at the knots of
tabulated models (``cosmology.sigma_breaks`` finds them by bisection on
the knot table).

The u range (sigma below 2) and the s range (sigma above 2, up to a finite
sigma_hi or to s = 0) each run QUADPACK's qagp scheme (Piessens et al.,
1983): the first G7/K15 panel of every knot piece, one test of the range
total against max(rel_tol |total|, 50 eps resabs), relative to the
integral however small it is, with no absolute floor, and only if that
fails, bisection of the worst panel of any piece, at most _SPLIT_CAP
times for the whole range.  There is one kernel, ``_panels``, which
evaluates any number of panels from one integrand call, and one driver,
``_adaptive_panels``, which takes several ranges, each with its own
integrand of several integrals, and hands back the accepted panels.  Its
first pass serves all the ranges at once: one call per integrand, one
G7/K15 sum and one vectorized test of every range's totals; only a range
that fails enters ``_refine_panels``, which runs the same test after
every bisection.  The slice store runs it on a block of store pieces,
the u piece and s pieces together, and ``integrate_sigma`` on its u and
s ranges, summing each range's panels.
The store reads a partial panel from its stored node values alone, with
no integrand call: ``_legendre`` gives the Legendre series of their
degree-14 interpolant, ``_panel_eval`` its integral from the panel
start, and ``_panel_root`` inverts that integral.

``gamma_fn`` and ``hyp2f1`` are thin wrappers over ``math.gamma`` and
``scipy.special.hyp2f1`` that map their domain failures to DomainError.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (AccuracyError, BracketError, DomainError, _finite,
                     _no_overflow)

__all__ = [
    "NumericsConfig",
    "DEFAULT_CONFIG",
    "integrate_sigma",
    "find_root_monotone",
    "gamma_fn",
    "hyp2f1",
]


@dataclass(frozen=True)
class NumericsConfig:
    """The accuracy setting threaded through every numerical routine.

    quad_rel_tol bounds each quadrature relative to its total, and so
    fermi_from_rw's stop.  DomainError unless it is finite and >= 0.
    """

    quad_rel_tol: float = 1e-12

    def __post_init__(self):
        _finite("quad_rel_tol", self.quad_rel_tol, nonnegative=True)


DEFAULT_CONFIG = NumericsConfig()


def table_safe_config(cfg: NumericsConfig) -> NumericsConfig:
    """cfg: tables run at quad_rel_tol too (kept for bench/ imports)."""
    return cfg


# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1].
# Positive half of the node set, descending; the full rule is symmetric.
_XGK_HALF = (
    0.99145537112081263921,
    0.94910791234275852453,
    0.86486442335976907279,
    0.74153118559939443986,
    0.58608723546769113029,
    0.40584515137739716691,
    0.20778495500789846760,
    0.0,
)
_WGK_HALF = (
    0.02293532201052922496,
    0.06309209262997855329,
    0.10479001032225018384,
    0.14065325971552591875,
    0.16900472663926790283,
    0.19035057806478540991,
    0.20443294007529889241,
    0.20948214108472782801,
)
_WG_HALF = (
    0.12948496616886969327,
    0.27970539148927666790,
    0.38183005050511894495,
    0.41795918367346938776,
)

_NODES = np.array(
    [-x for x in _XGK_HALF[:-1]] + [0.0] + [x for x in _XGK_HALF[-2::-1]]
)
_WK = np.array(list(_WGK_HALF[:-1]) + [_WGK_HALF[-1]] + list(_WGK_HALF[-2::-1]))
# Gauss weights aligned with the Kronrod node ordering; zero at pure
# Kronrod nodes.  The embedded Gauss nodes are every second entry.
_WG = np.zeros(15)
_WG[1:14:2] = list(_WG_HALF[:-1]) + [_WG_HALF[-1]] + list(_WG_HALF[-2::-1])
_WKG = np.stack((_WK, _WG))

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_NO_BREAKS = np.empty(0)

# Most bisections of one quadrature range, and most steps of _panel_root.
_SPLIT_CAP = 500
_PANEL_ROOT_CAP = 500


def _inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of a small, well-conditioned matrix by Gauss-Jordan with
    partial pivoting, in elementwise numpy.  numpy.linalg, like any
    matrix product, would start BLAS, which on its own grows a process's
    peak memory by about 0.7 MB."""
    n = len(m)
    a = np.hstack((m, np.eye(n)))
    for c in range(n):
        column = np.abs(a[:, c]).tolist()
        p = max(range(c, n), key=column.__getitem__)
        a[[c, p]] = a[[p, c]]
        a[c] /= a[c, c]
        factor = a[:, c].copy()
        factor[c] = 0.0
        a -= factor[:, None] * a[c]
    return a[:, n:]


# Per k = 1..13, the factors of (k + 1) P_(k+1) = (2k + 1) t P_k - k P_(k-1),
# then those of P_(k+1)' = t P_k' + (k + 1) P_k and 1/((k + 1)(k + 2)).
_RECURRENCE = [((2 * k + 1) / (k + 1), k / (k + 1), k + 1.0,
                1.0 / ((k + 1) * (k + 2))) for k in range(1, 14)]
# G7/K15 node values of a panel -> Legendre coefficients on [-1, 1] of
# their degree-14 interpolant, in extended precision where numpy has it.
# In doubles it put the interpolant of a constant 3 eps off at t = -1.
_LEGENDRE = [np.ones(15, np.longdouble), _NODES.astype(np.longdouble)]
for _k in range(1, 14):
    _LEGENDRE.append(((2 * _k + 1) * _LEGENDRE[1] * _LEGENDRE[-1]
                      - _k * _LEGENDRE[-2]) / (_k + 1))
_TO_LEG = _inverse(np.array(_LEGENDRE).T)


def _panels(f: Callable, a: np.ndarray, b: np.ndarray):
    """G7/K15 panels on every [a[i], b[i]] from one call of f.

    f sees the (pieces x 15) node matrix flattened and returns one value
    per node, or a (components x nodes) array.  The result is the arrays
    (kronrod value, error estimate min(delta, (200 delta)^1.5) for delta
    = |kronrod - gauss|, resabs, node values), each with any component
    axis first and then one entry per piece.
    """
    half = 0.5 * (b - a)
    h = half[:, None]
    x = (0.5 * (a + b))[:, None] + h * _NODES
    try:
        y = np.asarray(f(x.ravel()), dtype=float)
    except RuntimeWarning as w:
        raise AccuracyError(f"integrand not finite on the panels from "
                            f"{a[0]:.17g}: {w}") from None
    y = y.reshape(y.shape[:-1] + x.shape)
    # Sums, not matrix products: see _inverse.  One product with both
    # weight rows gives the Kronrod and Gauss sums, and resabs too, since
    # |y w| = |y| w exactly for w >= 0.
    prod = y[..., None, :] * _WKG
    sums = np.add.reduce(prod, -1) * h
    knd = sums[..., 0]
    resabs = np.abs(half) * np.add.reduce(np.abs(prod[..., 0, :]), -1)
    delta = np.abs(knd - sums[..., 1])
    # One reduction clears both rare cases: a value that is not finite,
    # and one large enough that (200 delta)^1.5 overflows.
    if not np.maximum.reduce(delta, axis=None) < 1e150:
        bad = ~np.isfinite(delta.reshape(-1, a.size)).all(axis=0)
        if bad.any():
            i = int(np.argmax(bad))
            raise AccuracyError(
                f"integrand not finite on the panel [{a[i]:.17g}, "
                f"{b[i]:.17g}]", estimate=float(knd.reshape(-1, a.size)[0, i]))
    with np.errstate(over="ignore"):
        return knd, np.minimum(delta, (200.0 * delta) ** 1.5), resabs, y


def _adaptive_panels(fs: list, ranges, rel_tol: float) -> list:
    """The qagp scheme on each of several ranges (node arrays), range i
    with the integrand fs[i], which returns a (components x nodes) array
    with the same components as the others, keeping the accepted panels:
    per range, (starts, ends, values, node values) in range order,
    component axis first.

    One first pass serves every range: one call of each integrand on the
    first panels of its run of consecutive ranges, their values joined
    in range order, one G7/K15 sum, and one vectorized test, _fails, of
    each range's totals against its own budget.  Only a range that fails
    is bisected, on its own through _refine_panels, which runs the same
    test after every bisection, so a range's panels do not depend on
    the ranges beside it.  A range passes only when every component
    passes the test on its own total, and the worst panel is the one
    whose error is the largest fraction of its component's budget when
    bisection starts; the largest raw error, as in scipy's
    quad_vec(norm="max"), would never bisect for a small component.
    """
    sizes = [r.size - 1 for r in ranges]
    edges = list(itertools.accumulate(sizes, initial=0))
    # One call per run of ranges that share an integrand, on its slice
    # of the node vector, 15 nodes a panel.
    runs = [(r, g) for r, g in enumerate(fs) if r == 0 or g is not fs[r - 1]]
    cuts = [15 * edges[r] for r, _ in runs] + [15 * edges[-1]]
    vals, errs, resabs, ys = _panels(
        lambda x: np.concatenate([g(x[i:j]) for (_, g), i, j
                                  in zip(runs, cuts, cuts[1:])], axis=-1),
        np.concatenate([r[:-1] for r in ranges]),
        np.concatenate([r[1:] for r in ranges]))
    # Per range and component, its value, error and resabs totals: sums
    # over its own panels alone.
    sums = np.add.reduceat(np.array((vals, errs, resabs)), edges[:-1],
                           axis=-1)
    fail = _fails(sums, rel_tol).any(axis=0).tolist()
    return [_refine_panels(g, nodes, vals[:, i:j], errs[:, i:j], ys[:, i:j],
                           sums[..., r], rel_tol) if fail[r] else
            (nodes[:-1], nodes[1:], vals[:, i:j], ys[:, i:j])
            for r, (g, nodes, i, j) in enumerate(zip(fs, ranges, edges,
                                                     edges[1:]))]


def _fails(sums, rel_tol: float) -> np.ndarray:
    """Per component (and range), whether the error total sums[1] exceeds
    its budget max(rel_tol |value total|, 50 eps resabs total)."""
    return sums[1] > np.maximum(rel_tol * np.abs(sums[0]),
                                50.0 * _EPS * sums[2])


def _refine_panels(f: Callable, nodes: np.ndarray, vals, errs, ys, sums,
                   rel_tol: float):
    """The bisection loop of _adaptive_panels on one range that failed
    its first pass, from its first panels and their (totals, errors,
    resabs) sums.  The worst panel comes off a heap keyed on (-error over
    budget, insertion count), so ties go to the oldest panel.  After each
    bisection the updated totals take the first pass's test, _fails, and
    after _SPLIT_CAP bisections that all failed it, AccuracyError."""
    count = len(nodes) - 1
    # The budgets of the first pass's test; one of 0 (only zero node
    # values so far) is taken as the least normal float.
    scale = 1.0 / np.maximum(np.maximum(
        rel_tol * np.abs(sums[0]), 50.0 * _EPS * sums[2]), _TINY)
    heap = list(zip((-(errs * scale[:, None]).max(axis=0)).tolist(),
                    range(count), nodes[:-1].tolist(), nodes[1:].tolist(),
                    list(vals.T), list(errs.T), list(np.moveaxis(ys, -2, 0))))
    heapq.heapify(heap)
    for _ in range(_SPLIT_CAP):
        _, _, wa, wb, wval, werr, _ = heapq.heappop(heap)
        m = 0.5 * (wa + wb)
        v, e, r, y = _panels(f, np.array([wa, m]), np.array([m, wb]))
        for j, (lo, hi) in enumerate(((wa, m), (m, wb))):
            heapq.heappush(heap, (-(e[:, j] * scale).max(), count + j,
                                  lo, hi, v[:, j], e[:, j], y[:, j]))
        count += 2
        sums = sums + (v[:, 0] + v[:, 1] - wval, e[:, 0] + e[:, 1] - werr,
                       r[:, 0] + r[:, 1])
        if not _fails(sums, rel_tol).any():
            break
    else:
        total, err = np.max(sums[0]), np.max(sums[1])
        raise AccuracyError(
            f"quadrature did not converge after {_SPLIT_CAP} subdivisions "
            f"(estimate {total:.17g}, error bound {err:.3g})",
            estimate=float(total), bound=float(err))
    heap.sort(key=lambda p: abs(p[2] - nodes[0]))
    return (np.array([p[2] for p in heap]), np.array([p[3] for p in heap]),
            np.stack([p[4] for p in heap], axis=-1),
            np.stack([p[6] for p in heap], axis=-2))


def _legendre(rows, weights) -> list:
    """Legendre coefficients on [-1, 1], as floats, of the degree-14
    interpolant of sum(w * y) over one panel's node values y in rows."""
    try:
        # One weight (a chi or a rho read) takes its row as it is: 2.3
        # calls per benchmark sweep row and 6.6 per scattered event, at
        # 5.1 us a call against 7.5 us through the weighted sum (shared
        # 2-core host).
        y = rows[0] if weights == (1.0,) else sum(
            w * row for w, row in zip(weights, rows))
        return (_TO_LEG * y).sum(axis=1).astype(float).tolist()
    except RuntimeWarning as w:
        raise AccuracyError(f"panel series not finite: {w}") from None


def _panel_eval(d: list, t: float) -> tuple[float, float]:
    """(H, p) at t for p = sum d_k P_k, H its mean over [-1, t]: with
    int_-1^t P_k = (t^2 - 1) P_k'/(k (k + 1)), k >= 1,
    H = d_0 + (t - 1) sum d_k P_k'/(k (k + 1)), free of cancellation at
    t = -1.  AccuracyError unless both are finite: Python floats
    overflow to inf without a warning."""
    p0, p1, q1 = 1.0, t, 1.0
    p, s = d[0] + d[1] * t, 0.5 * d[1]
    for c, (r1, r0, k1, inv) in zip(d[2:], _RECURRENCE):
        q1 = t * q1 + k1 * p1
        p0, p1 = p1, r1 * t * p1 - r0 * p0
        p += c * p1
        s += c * inv * q1
    mean = d[0] + (t - 1.0) * s
    if not (math.isfinite(mean) and math.isfinite(p)):
        raise AccuracyError(f"panel series not finite at t={t:.17g}")
    return mean, p


def _panel_root(d: list, half: float, target: float) -> float:
    """w = 1 + t in [0, 2] where half w H(t), the integral of a panel's
    interpolant from its start (half: its half width; H of _panel_eval),
    reaches target.

    Newton's method in w from the linear guess, bisecting whenever a step
    would leave the bracket known so far (where p wiggles below zero near
    an integrable singularity, say, or where the slope is not positive).
    It stops at a Newton step of 8 eps w, tested before the bracket: a
    converged step that rounds onto the bracket's end is kept (clipped to
    the bracket), not sent to the midpoint to bisect.  A bisection step
    of 8 eps w stops it too.  Relative to w, so a target far below the
    panel's integral keeps its digits.
    """
    lo, hi, whole = 0.0, 2.0, half * d[0]
    w = min(hi, max(lo, target / whole)) if whole > 0.0 else 1.0
    for _ in range(_PANEL_ROOT_CAP):
        mean, slope = _panel_eval(d, w - 1.0)
        f = half * w * mean - target
        if f == 0.0:
            return w
        lo, hi = (w, hi) if f < 0.0 else (lo, w)
        if half * slope > 0.0:
            x = w - f / (half * slope)
            if abs(x - w) <= 8.0 * _EPS * w:
                return min(max(x, lo), hi)
        else:
            x = lo
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if abs(x - w) <= 8.0 * _EPS * w:
                return x
        w = x
    raise AccuracyError(
        f"panel root iteration cap {_PANEL_ROOT_CAP} reached near "
        f"w={w:.17g}",
        estimate=w)


def _clean_breaks(breaks, lo: float, hi: float) -> np.ndarray:
    """Sorted interior breakpoints clear of the ends; a point within a
    relative 1e-12 of the one before it is dropped."""
    if breaks is None or len(breaks) == 0:
        return _NO_BREAKS
    p = np.sort(np.asarray(breaks, dtype=float))
    p = p[(p > lo * (1.0 + 1e-12)) & (p < hi * (1.0 - 1e-12))]
    if p.size > 1:
        p = p[np.concatenate(([True], p[1:] > p[:-1] * (1.0 + 1e-12)))]
    return p


def integrate_sigma(f: Callable, sigma_lo: float, sigma_hi: float,
                    cfg: NumericsConfig | None = None,
                    breaks=None) -> float:
    """Integrate f(sigma) over [sigma_lo, sigma_hi], sigma_hi may be inf.

    f must accept numpy arrays of sigma values and may carry an integrable
    endpoint singularity no worse than (sigma - 1)^(-1/2) at sigma = 1.
    An infinite upper limit is mapped through s = 1/sqrt(sigma), and a tail
    slower than sigma^(-1.25) between sigma = 1e10 and 1e12 raises
    AccuracyError.  Below sigma_hi - 1 = 1e-11 the result is the leading
    order 2 g (sqrt(sigma_hi - 1) - sqrt(sigma_lo - 1)), g = f sqrt(sigma - 1)
    at sigma_hi, good to O(sigma_hi - 1) relative.

    breaks lists interior sigma points where f loses smoothness (knots of
    interpolated models); the range is integrated piecewise between them,
    which keeps panel error estimates honest across jumps of f or its
    derivatives.
    """
    cfg = cfg or DEFAULT_CONFIG
    if not sigma_lo >= 1.0:
        raise DomainError(f"sigma_lo must be >= 1, got {sigma_lo}")
    if not sigma_hi > sigma_lo:
        if sigma_hi == sigma_lo:
            return 0.0
        raise DomainError(f"need sigma_lo < sigma_hi, got [{sigma_lo}, {sigma_hi}]")

    if math.isinf(sigma_hi):
        # A zero or non-finite probe leaves the judging to the s panels.
        f_near, f_far = map(abs, _values_at(f, [1e10, 1e12]))
        if 0.0 < f_near < math.inf and 0.0 < f_far < math.inf:
            q = math.log(f_near / f_far) / math.log(100.0)
            if q < 1.25:
                raise AccuracyError(
                    f"integrand tail decays like sigma^(-{q:.3g}), slower "
                    f"than the sigma^(-1.25) an infinite limit needs")
    elif sigma_hi - 1.0 < 1e-11:
        root = math.sqrt(sigma_hi - 1.0)
        g = _values_at(f, [sigma_hi])[0] * root
        value = 2.0 * g * (root - math.sqrt(sigma_lo - 1.0))
        if not math.isfinite(value):
            raise AccuracyError(f"integrand not finite at sigma={sigma_hi!r}")
        return value

    pts = _clean_breaks(breaks, sigma_lo, sigma_hi)
    split = min(sigma_hi, 2.0)
    fs, ranges = [], []
    if sigma_lo < split:
        # sigma = 1 + u^2 absorbs the sqrt singularity at the left edge.
        fs.append(_u_integrand(f))
        ranges.append(_u_nodes(math.sqrt(sigma_lo - 1.0), pts,
                               math.sqrt(split - 1.0)))
    if sigma_hi > 2.0:
        # s = 1/sqrt(sigma) keeps large-sigma panels well conditioned, and
        # maps sigma = inf to s = 0.
        fs.append(_s_integrand(f))
        ranges.append(_s_nodes(sigma_hi, pts, max(sigma_lo, 2.0)))
    # One first pass for both ranges, each summed over its panels in order.
    panels = _adaptive_panels(fs, ranges, 0.5 * cfg.quad_rel_tol)
    return sum(float(np.cumsum(vals[0])[-1]) for _, _, vals, _ in panels)


def _values_at(f: Callable, sigma: list) -> list:
    """f at the sigma points, as floats.  A RuntimeWarning from f raises
    AccuracyError, as it does in the kernel."""
    try:
        return np.asarray(f(np.array(sigma)), dtype=float).tolist()
    except RuntimeWarning as w:
        raise AccuracyError(f"integrand not finite at sigma in {sigma}: "
                            f"{w}") from None


def _u_nodes(lo: float, pts: np.ndarray, hi: float) -> np.ndarray:
    """The u range from lo to hi, split at u = sqrt(sigma - 1) of the
    sigma breaks pts below sigma = 1 + hi^2."""
    return np.concatenate(([lo], np.sqrt(pts[pts < 1.0 + hi * hi] - 1.0),
                           [hi]))


def _s_nodes(hi: float, pts: np.ndarray, lo: float) -> np.ndarray:
    """s = 1/sqrt(sigma) at hi (s = 0 for inf), at the breaks pts above
    lo, and at lo, in increasing s."""
    return 1.0 / np.sqrt(np.concatenate(([hi], pts[pts > lo][::-1], [lo])))


def _u_integrand(f: Callable) -> Callable:
    """Transformed integrand for sigma = 1 + u^2, as a one-row array.

    The Jacobian 2u is written as 2*sqrt(sigma - 1) with sigma - 1 taken
    from the rounded sigma actually passed to f, so an exact
    (sigma - 1)^(-1/2) singular factor in f cancels to machine precision.
    """
    def g(u):
        sigma = 1.0 + u * u
        return np.atleast_2d(f(sigma) * 2.0 * np.sqrt(sigma - 1.0))
    return g


def _s_integrand(f: Callable) -> Callable:
    """Transformed integrand for sigma = s^(-2), Jacobian 2 s^(-3), as a
    one-row array."""
    return lambda s: np.atleast_2d(f(s ** -2.0) * 2.0 * s ** -3.0)


def find_root_monotone(g: Callable[[float], float], lo: float,
                       hi: float) -> float:
    """Bracketed root of a monotone continuous g by bisection.

    g may rise or fall.  Each step evaluates g at the midpoint
    0.5 lo + 0.5 hi, which never leaves [lo, hi], even near the ends of
    the float range.  It stops at a bracket 4 eps max(1, |x|) wide, float
    resolution, so there is no tolerance to set and no step cap: from
    [-DBL_MAX, DBL_MAX] that takes at most 1077 evaluations of g.
    Raises BracketError when g(lo) and g(hi) share a sign, DomainError
    when either is NaN, and AccuracyError with the midpoint as estimate
    when g is NaN there.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"invalid bracket [{lo}, {hi}]")
    f_lo, f_hi = float(g(lo)), float(g(hi))
    if math.isnan(f_lo) or math.isnan(f_hi):
        raise DomainError(f"g is not a number at an end of [{lo}, {hi}]: "
                          f"g(lo)={f_lo}, g(hi)={f_hi}")
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    # Sign tests: products of subnormal residuals underflow to zero.
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: g(lo)={f_lo:.6g}, g(hi)={f_hi:.6g}")
    while True:
        x = 0.5 * lo + 0.5 * hi
        if hi - lo <= 4.0 * _EPS * max(1.0, abs(x)):
            return x
        f = float(g(x))
        if f == 0.0:
            return x
        if math.isnan(f):
            raise AccuracyError(f"g is not a number at x={x:.17g}",
                                estimate=x, bound=0.5 * hi - 0.5 * lo)
        if (f < 0.0) == (f_lo < 0.0):
            lo = x
        else:
            hi = x


def gamma_fn(x: float) -> float:
    """Gamma function for positive real x."""
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"gamma_fn requires x > 0, got {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise DomainError(f"gamma_fn overflows at x={x}") from None


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric 2F1(a, b; c; z) for z in [0, 1].

    At z = 1 the Gauss summation theorem applies and requires
    c - a - b > 0.
    """
    from scipy.special import hyp2f1 as _scipy_hyp2f1

    if not all(map(math.isfinite, (a, b, c, z))):
        raise DomainError(f"2F1 needs finite arguments, got {(a, b, c, z)}")
    if c <= 0.0 and c == math.floor(c):
        raise DomainError(f"2F1 undefined at non-positive integer c={c}")
    if not 0.0 <= z <= 1.0:
        raise DomainError(f"argument z={z} outside [0, 1]")
    if z == 1.0 and c - a - b <= 0.0:
        raise DomainError(
            f"2F1 diverges at z=1 when c-a-b={c - a - b:.6g} <= 0")
    return _no_overflow("2F1", float(_scipy_hyp2f1(a, b, c, z)))
