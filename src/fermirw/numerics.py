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
NaN on as converged.  The model slice integrals, in
``geodesics.slice_integral`` and the slice store ``geodesics.Slice``,
make the same two substitutions in their integrands themselves, with the
seam between them at sigma = 2, and split every range at the knots of
tabulated models (``cosmology.sigma_breaks`` finds them by bisection on
the knot table).

The u range (sigma below 2) and the s range (sigma above 2, up to a finite
sigma_hi or to s = 0) each run one adaptive driver, ``_adaptive``, which
follows QUADPACK's qagp (Piessens et al., 1983).  It takes the first panel
of every knot piece, from one integrand call on the stacked nodes when
there are several pieces, and tests the range total once against
max(abs_tol, rel_tol |total|, 50 eps resabs).  Only if that test fails
does it bisect, worst panel of any piece first off a heap, with at most
cfg.max_iter bisections for the whole range.  A single piece, as on
analytic models, runs the scalar kernel throughout, which is cheaper for
one panel.  An integrand may return several rows: row 0 is tested and
bisected exactly as it would be alone, and each later row is summed
over row 0's accepted panels, one weighted sum per panel, with no error
test of its own.  ``_adaptive_panels`` runs the same scheme for the slice
store on several integrands at once, over several ranges each accepted
on its own, and hands back the accepted panels; ``_panel_root`` inverts
the integral of one panel's node polynomial without calling the
integrand.

``gamma_fn`` and ``hyp2f1`` are thin wrappers over ``math.gamma`` and
``scipy.special.hyp2f1`` that map their domain failures to DomainError.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import (AccuracyError, BracketError, DomainError, _finite,
                     _no_overflow)

__all__ = [
    "NumericsConfig",
    "DEFAULT_CONFIG",
    "table_safe_config",
    "integrate_sigma",
    "find_root_monotone",
    "gamma_fn",
    "hyp2f1",
]


@dataclass(frozen=True)
class NumericsConfig:
    """Shared tolerance knobs threaded through every numerical routine.

    quad_rel_tol and quad_abs_tol bound each quadrature, root_tol each
    root find, and max_iter caps the bisections of one quadrature range
    and the steps of one iteration.  DomainError unless the tolerances
    are finite and >= 0 and max_iter is an int >= 1.
    """

    quad_rel_tol: float = 1e-12
    quad_abs_tol: float = 1e-14
    root_tol: float = 1e-12
    max_iter: int = 500

    def __post_init__(self):
        for name in ("quad_rel_tol", "quad_abs_tol", "root_tol"):
            _finite(name, getattr(self, name), nonnegative=True)
        if not (type(self.max_iter) is int and self.max_iter >= 1):
            raise DomainError(
                f"max_iter must be an int >= 1, got {self.max_iter!r}")


DEFAULT_CONFIG = NumericsConfig()


def table_safe_config(cfg: NumericsConfig) -> NumericsConfig:
    """Floor quadrature tolerances to what interpolated tables can meet.

    Piecewise interpolants carry kinks in their higher derivatives, so
    asking the quadrature for less than the interpolation error just
    burns subdivisions until the iteration cap trips.
    """
    return replace(cfg, quad_rel_tol=max(cfg.quad_rel_tol, 1e-10),
                   quad_abs_tol=max(cfg.quad_abs_tol, 1e-12))

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
_NO_BREAKS = np.empty(0)


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


# (k + 1) P_(k+1) = (2k + 1) t P_k - k P_(k-1): the two factors, k = 1..14.
_RECURRENCE = [((2 * k + 1) / (k + 1), k / (k + 1)) for k in range(1, 15)]
_LEGENDRE = [np.ones(15), _NODES]
for _r1, _r0 in _RECURRENCE[:-1]:
    _LEGENDRE.append(_r1 * _NODES * _LEGENDRE[-1] - _r0 * _LEGENDRE[-2])
# G7/K15 node values of a panel -> Legendre coefficients on [-1, 1] of
# their degree-14 interpolant (_TO_LEG) and of its integral from -1
# (_TO_INT), by int P_k = (P_(k+1) - P_(k-1))/(2k + 1), int P_0 = P_1 + P_0.
_TO_LEG = _inverse(np.array(_LEGENDRE).T)
_INT = np.zeros((16, 15))
_INT[0, 0] = _INT[1, 0] = 1.0
for _k in range(1, 15):
    _INT[_k + 1, _k] = 1.0 / (2 * _k + 1)
    _INT[_k - 1, _k] = -1.0 / (2 * _k + 1)
_TO_INT = (_INT[:, :, None] * _TO_LEG).sum(axis=1)


def _panel(f: Callable, a: float, b: float) -> tuple:
    """One G7/K15 panel on [a, b]: (kronrod value, error estimate, resabs).

    For an f that returns (rows x nodes), these are of row 0, followed by
    the kronrod value of each later row.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    y = np.asarray(f(mid + half * _NODES), dtype=float)
    rows = ()
    if y.ndim == 2:
        # One weighted sum per later row, as for row 0: a dot product of
        # two vectors, not a matrix product (see _inverse).
        rows = tuple([half * _WK.dot(y[i]) for i in range(1, len(y))])
        y = y[0]
    knd = half * float(_WK.dot(y))
    gss = half * float(_WG.dot(y))
    resabs = abs(half) * float(_WK.dot(np.abs(y)))
    delta = abs(knd - gss)
    if not math.isfinite(delta):
        raise AccuracyError(
            f"integrand not finite on the panel [{a:.17g}, {b:.17g}]",
            estimate=knd)
    err = min(delta, (200.0 * delta) ** 1.5) if delta > 0.0 else 0.0
    return (knd, err, resabs) + rows


def _panels(f: Callable, a: np.ndarray, b: np.ndarray):
    """G7/K15 panels on every [a[i], b[i]] from one call of f.

    The vector form of _panel: f sees the (pieces x 15) node matrix
    flattened and returns one value per node, or a (components x nodes)
    array.  The result is the arrays (kronrod value, error estimate,
    resabs, node values), each with any component axis first and then
    one entry per piece.
    """
    half = 0.5 * (b - a)
    h = half[:, None]
    x = (0.5 * (a + b))[:, None] + h * _NODES
    y = np.asarray(f(x.ravel()), dtype=float)
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
    return knd, np.minimum(delta, (200.0 * delta) ** 1.5), resabs, y


def _adaptive(f: Callable, nodes, rel_tol: float, abs_tol: float,
              max_iter: int):
    """Integral of f from nodes[0] to nodes[-1], split at every node.

    QUADPACK's qagp scheme: the first G7/K15 panel of every piece (the
    scalar kernel for one piece, one batched integrand call for several),
    one acceptance test on the range total, and only if that fails,
    bisection of the worst panel of any piece, at most max_iter times in
    all.  The worst panel comes off a heap keyed on (-error, insertion
    count), so ties go to the oldest panel.

    An f that returns several rows, (rows x nodes), gives a tuple of
    integrals, one per row.  Row 0 alone is tested and bisected, with
    the operations of a one-row f, so its integral is the same float;
    each later row is summed over row 0's accepted panels, so it rides
    along at the cost of one weighted sum per panel, without an error
    test of its own.
    """
    if len(nodes) == 2:
        a, b = float(nodes[0]), float(nodes[1])
        total, total_err, total_resabs, *rows = _panel(f, a, b)
        heap, ride = [(-total_err, 0, a, b, total, rows)], len(rows)
    else:
        nodes = np.asarray(nodes, dtype=float)
        vals, errs, resabs, _ = _panels(f, nodes[:-1], nodes[1:])
        rows, ride = itertools.repeat(()), 0
        if vals.ndim == 2:
            rows, ride = vals[1:].T.tolist(), len(vals) - 1
            vals, errs, resabs = vals[0], errs[0], resabs[0]
        # cumsum adds in piece order, as a running total would.
        total = float(np.cumsum(vals)[-1])
        total_err, total_resabs = float(errs.sum()), float(resabs.sum())
        heap = None
    count, splits = len(nodes) - 1, 0
    while total_err > max(abs_tol, rel_tol * abs(total),
                          50.0 * _EPS * total_resabs):
        _check_splits(splits, max_iter, total, total_err)
        if heap is None:
            heap = list(zip((-errs).tolist(), range(count),
                            nodes[:-1].tolist(), nodes[1:].tolist(),
                            vals.tolist(), rows))
            heapq.heapify(heap)
        nerr, _, wa, wb, wval, _ = heapq.heappop(heap)
        m = 0.5 * (wa + wb)
        lv, le, lr, *lrows = _panel(f, wa, m)
        rv, re, rr, *rrows = _panel(f, m, wb)
        heapq.heappush(heap, (-le, count, wa, m, lv, lrows))
        heapq.heappush(heap, (-re, count + 1, m, wb, rv, rrows))
        count += 2
        splits += 1
        total += lv + rv - wval
        total_err += le + re + nerr
        total_resabs += lr + rr
    if not ride:
        return total
    if heap is not None:
        rows = [p[5] for p in heap]
    return (total, *(math.fsum(r) for r in zip(*rows)))


def _adaptive_panels(f: Callable, ranges, rel_tol: float, abs_tol: float,
                     max_iter: int) -> list:
    """_adaptive on each of several ranges (node arrays) for an f that
    returns a (components x nodes) array, keeping the accepted panels:
    per range, (starts, ends, values, node values) in range order,
    component axis first.

    The first panels of all ranges come from one batched integrand call;
    each range is then tested and bisected on its own, every panel
    through the batched kernel, so a range's panels do not depend on the
    ranges beside it.  The worst panel is the one with the largest
    component error, as in scipy's quad_vec(norm="max"); but a range
    passes only when every component passes the test on its own total,
    so a small integral is not judged against a large one.
    """
    if len(ranges) == 1:
        nodes = ranges[0]
        return [_refine_panels(f, nodes, *_panels(f, nodes[:-1], nodes[1:]),
                               rel_tol, abs_tol, max_iter)]
    first = _panels(f, np.concatenate([r[:-1] for r in ranges]),
                    np.concatenate([r[1:] for r in ranges]))
    edges = list(itertools.accumulate((r.size - 1 for r in ranges),
                                      initial=0))
    return [_refine_panels(f, nodes, *(x[:, i:j] for x in first), rel_tol,
                           abs_tol, max_iter)
            for nodes, i, j in zip(ranges, edges, edges[1:])]


def _refine_panels(f: Callable, nodes: np.ndarray, vals, errs, resabs, ys,
                   rel_tol: float, abs_tol: float, max_iter: int):
    """The bisection loop of _adaptive_panels on one range, from its
    first panels."""
    total = vals.cumsum(axis=-1)[:, -1]
    total_err = np.add.reduce(errs, -1)
    total_resabs = np.add.reduce(resabs, -1)
    heap, count, splits = None, len(nodes) - 1, 0
    # On Python floats: for a few components, cheaper than numpy calls.
    while any(e > max(abs_tol, rel_tol * abs(t), 50.0 * _EPS * r)
              for t, e, r in zip(total.tolist(), total_err.tolist(),
                                 total_resabs.tolist())):
        _check_splits(splits, max_iter, np.max(total), np.max(total_err))
        if heap is None:
            heap = list(zip((-errs.max(axis=0)).tolist(), range(count),
                            nodes[:-1].tolist(), nodes[1:].tolist(),
                            list(vals.T), list(errs.T),
                            list(np.moveaxis(ys, -2, 0))))
            heapq.heapify(heap)
        _, _, wa, wb, wval, werr, _ = heapq.heappop(heap)
        m = 0.5 * (wa + wb)
        v, e, r, y = _panels(f, np.array([wa, m]), np.array([m, wb]))
        for j, (lo, hi) in enumerate(((wa, m), (m, wb))):
            heapq.heappush(heap, (-e[:, j].max(), count + j, lo, hi,
                                  v[:, j], e[:, j], y[:, j]))
        count += 2
        splits += 1
        total = total + (v[:, 0] + v[:, 1] - wval)
        total_err = total_err + (e[:, 0] + e[:, 1] - werr)
        total_resabs = total_resabs + (r[:, 0] + r[:, 1])
    if heap is None:
        return nodes[:-1], nodes[1:], vals, ys
    heap.sort(key=lambda p: abs(p[2] - nodes[0]))
    return (np.array([p[2] for p in heap]), np.array([p[3] for p in heap]),
            np.stack([p[4] for p in heap], axis=-1),
            np.stack([p[6] for p in heap], axis=-2))


def _check_splits(splits: int, max_iter: int, total: float,
                  err: float) -> None:
    if splits == max_iter:
        raise AccuracyError(
            f"quadrature did not converge after {max_iter} subdivisions "
            f"(estimate {total:.17g}, error bound {err:.3g})",
            estimate=float(total), bound=float(err))


def _panel_root(y: np.ndarray, half: float, target: float,
                max_iter: int) -> float:
    """t in [-1, 1] with half * integral_-1^t p = target, p the degree-14
    interpolant of one panel's node values y, with no integrand call.

    Newton's method from the linear guess, bisecting whenever a step
    would leave the bracket known so far (where p wiggles below zero near
    an integrable singularity, say, or where the slope is not positive).
    It stops at a Newton step of 8 eps, tested before the bracket: a
    converged step that rounds onto the bracket's end is kept (clipped to
    the bracket), not sent to the midpoint to bisect down to 8 eps.  A
    bisection step of 8 eps stops it too, which ends the iteration at a
    bracket that has shrunk to a point.  The integral is measured from
    its rounding at t = -1, so a target far below that rounding lands a
    step relative to the target from t = -1.
    """
    coef = list(zip((_TO_INT * y).sum(axis=1).tolist(),
                    (_TO_LEG * y).sum(axis=1).tolist() + [0.0]))

    def series(t: float) -> tuple[float, float]:
        # Both Legendre series at once, P_k(t) by the recurrence.
        p0, p1 = 1.0, t
        f, slope = coef[0][0] + coef[1][0] * t, coef[0][1] + coef[1][1] * t
        for (c_f, c_s), (r1, r0) in zip(coef[2:], _RECURRENCE):
            p0, p1 = p1, r1 * t * p1 - r0 * p0
            f += c_f * p1
            slope += c_s * p1
        return f, slope

    start = series(-1.0)[0]
    lo, hi = -1.0, 1.0
    t = min(hi, max(lo, 2.0 * target / (half * math.fsum(
        c for c, _ in coef)) - 1.0))
    for _ in range(max_iter):
        f, slope = series(t)
        f = half * (f - start) - target
        if f == 0.0:
            return t
        lo, hi = (t, hi) if f < 0.0 else (lo, t)
        if half * slope > 0.0:
            x = t - f / (half * slope)
            if abs(x - t) <= 8.0 * _EPS:
                return min(max(x, lo), hi)
        else:
            x = lo
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if abs(x - t) <= 8.0 * _EPS:
                return x
        t = x
    raise AccuracyError(
        f"panel root iteration cap {max_iter} reached near t={t:.17g}",
        estimate=t)


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
        probe = f(np.array([1e10, 1e12]))
        f_near, f_far = np.abs(np.asarray(probe, dtype=float)).tolist()
        if 0.0 < f_near < math.inf and 0.0 < f_far < math.inf:
            q = math.log(f_near / f_far) / math.log(100.0)
            if q < 1.25:
                raise AccuracyError(
                    f"integrand tail decays like sigma^(-{q:.3g}), slower "
                    f"than the sigma^(-1.25) an infinite limit needs")
    elif sigma_hi - 1.0 < 1e-11:
        root = math.sqrt(sigma_hi - 1.0)
        g = float(f(np.array([sigma_hi]))[0]) * root
        value = 2.0 * g * (root - math.sqrt(sigma_lo - 1.0))
        if not math.isfinite(value):
            raise AccuracyError(f"integrand not finite at sigma={sigma_hi!r}")
        return value

    pts = _clean_breaks(breaks, sigma_lo, sigma_hi)
    rel = 0.5 * cfg.quad_rel_tol
    absb = 0.5 * cfg.quad_abs_tol
    split = min(sigma_hi, 2.0)
    total = 0.0
    if sigma_lo < split:
        # sigma = 1 + u^2 absorbs the sqrt singularity at the left edge.
        total += _adaptive(_u_integrand(f),
                           _u_nodes(math.sqrt(sigma_lo - 1.0), pts,
                                    math.sqrt(split - 1.0)),
                           rel, absb, cfg.max_iter)
    if sigma_hi > 2.0:
        # s = 1/sqrt(sigma) keeps large-sigma panels well conditioned, and
        # maps sigma = inf to s = 0.
        total += _adaptive(_s_integrand(f),
                           _s_nodes(sigma_hi, pts, max(sigma_lo, 2.0)),
                           rel, absb, cfg.max_iter)
    return total


def _u_nodes(lo: float, pts: np.ndarray, hi: float):
    """The u range from lo to hi, split at u = sqrt(sigma - 1) of the
    sigma breaks pts below sigma = 1 + hi^2.

    Plain floats when there are no breaks, so one-piece ranges stay on
    the scalar path.
    """
    if not pts.size:
        return [lo, hi]
    return np.concatenate(([lo], np.sqrt(pts[pts < 1.0 + hi * hi] - 1.0),
                           [hi]))


def _s_nodes(hi: float, pts: np.ndarray, lo: float):
    """s = 1/sqrt(sigma) at hi (s = 0 for inf), at the breaks pts above
    lo, and at lo, in increasing s."""
    if not pts.size:
        return [1.0 / math.sqrt(hi), 1.0 / math.sqrt(lo)]
    return 1.0 / np.sqrt(np.concatenate(([hi], pts[pts > lo][::-1], [lo])))


def _u_integrand(f: Callable) -> Callable:
    """Transformed integrand for sigma = 1 + u^2.

    The Jacobian 2u is written as 2*sqrt(sigma - 1) with sigma - 1 taken
    from the rounded sigma actually passed to f, so an exact
    (sigma - 1)^(-1/2) singular factor in f cancels to machine precision.
    """
    def g(u):
        sigma = 1.0 + u * u
        return f(sigma) * 2.0 * np.sqrt(sigma - 1.0)
    return g


def _s_integrand(f: Callable) -> Callable:
    """Transformed integrand for sigma = s^(-2), Jacobian 2 s^(-3)."""
    return lambda s: f(s ** -2.0) * 2.0 * s ** -3.0


def find_root_monotone(g: Callable[[float], float], lo: float, hi: float,
                       cfg: NumericsConfig | None = None) -> float:
    """Bracketed root of a monotone continuous g via Brent's method.

    Derivative-free: combines bisection with secant/inverse-quadratic steps
    and never leaves [lo, hi].  Raises BracketError when g(lo) and g(hi)
    share a sign, AccuracyError when cfg.max_iter iterations do not shrink
    the bracket below root_tol * max(1, |x|).
    """
    cfg = cfg or DEFAULT_CONFIG
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"invalid bracket [{lo}, {hi}]")
    xpre, xcur = lo, hi
    fpre, fcur = float(g(xpre)), float(g(xcur))
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    # Sign tests, not products: products of subnormal residuals underflow
    # to zero and silently corrupt the bracket bookkeeping.
    if (fpre < 0.0) == (fcur < 0.0):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: g(lo)={fpre:.6g}, g(hi)={fcur:.6g}")

    xblk, fblk = 0.0, 0.0
    spre = scur = 0.0
    for _ in range(cfg.max_iter):
        if fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = 0.5 * cfg.root_tol * max(1.0, abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                # Tiny residuals can underflow the denominator: bisect.
                stry = (-fcur * (fblk * dblk - fpre * dpre) / denom
                        if denom != 0.0 and math.isfinite(denom) else math.inf)
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre, scur = sbis, sbis
        else:
            spre, scur = sbis, sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = float(g(xcur))
    raise AccuracyError(
        f"root iteration cap {cfg.max_iter} reached near x={xcur:.17g}",
        estimate=xcur, bound=abs(sbis))


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
