"""Spacelike geodesics orthogonal to a comoving observer.

Each constant-tau slice of the Fermi chart is ruled by unit-speed spacelike
geodesics leaving the observer at proper time tau.  Points along one
geodesic are labelled by the stretch sigma = (a(tau)/a(t))^2 >= 1, and the
three maps below give cosmological time t, comoving radius chi, and proper
distance rho as functions of sigma.  Every other slice quantity is a
slice integral of order k and power n: the integral of
b^(k)(a(tau)/sqrt(s)) s^(-n) (s-1)^(-1/2) over s in [1, sigma], with k = 1
(b') or 2 (b''), smooth in u = sqrt(sigma - 1).
Near the observer sigma - 1 has lost its digits, so reads and inversions
take and return u; the public maps take sigma and convert at the edge.

One store per slice, Slice, keeps the accepted G7/K15 panels of those
integrals, built piece by piece (u = sqrt(sigma - 1) up to sigma = 2,
then dyadic pieces s in [s/2, s] of s = 1/sqrt(sigma), then for rho a
last piece to the slice end) as queries reach them, all the pieces
up to sigma = 32 that a cold read reaches in one first pass; the store
of the last (cosmo, tau, cfg) slice asked for is kept.  The store owns the
slice radius, the chart edge of sigma(rho); Slice says when the radius
and the radial tail are built.  A value is a prefix sum over whole
panels plus the integral of the last, partial panel's stored node
interpolant, and the inverse maps sigma(rho) and sigma(chi) invert that
sum, with no integrand call, so every value depends on its arguments
alone, not on the queries before it, and reads and inversions agree.
The store also keeps its last answer per kind of read or inversion, so
a call that repeats the last one's arguments exactly costs nothing.
Every map of the chart reads its slice from the store by quantity
(Slice.chi, rho, speed and lapse, and _u_of's inversions), so which
integral each quantity is, and its prefactor, is known here alone.
fermi_from_rw's search over slices reads chi and the lapse bracket B,
whose integral the store sums on chi's panels, so the search's Newton
slope B/sqrt(sigma) costs no extra integral.  An independent route
integrates the geodesic equation in rho directly and is used as a
cross-check.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import numerics
from .cosmology import Cosmology, _check_time, sigma_breaks, sigma_infinity
from .errors import (AccuracyError, DomainError, OutOfChartError, _finite,
                     _no_overflow)
from .numerics import (DEFAULT_CONFIG, NumericsConfig, _clean_breaks,
                       _legendre, _panel_eval, _panel_root)

__all__ = [
    "GeodesicPoint",
    "t_of_sigma",
    "chi_of_sigma",
    "rho_of_sigma",
    "slice_end",
    "lapse_bracket",
    "sample_geodesic",
    "integrate_geodesic_ode",
]

# Most RK4 steps integrate_geodesic_ode takes; the verify oracle takes 8000.
_ODE_MAX_STEPS = 100_000

# Fraction of sigma_infinity treated as the usable end of a finite slice.
_SLICE_MARGIN = 1e-12

# The seam at sigma = 2 between u = sqrt(sigma - 1) and s = 1/sqrt(sigma):
# s = 2^(-1/2) as rounded and the u that maps onto it in floating point.
# With u = 1 the two ranges would overlap by about 5e-17 in s, and the
# slice radius would come out about one ulp high.
_S_SEAM = 2.0 ** -0.5
_U_SEAM = math.sqrt(_S_SEAM ** -2.0 - 1.0)

# Slice stores kept by store().  On all three benchmark workloads every
# lookup is of the last slice used or of a new one, and 1, 2 and 4 ran
# at the same rows/s; a table store holds about 110 kB, and 4 of them
# raised sweep-tabulated's peak RSS from 84.55 to 84.92 MB.
_CACHED_SLICES = 1

# Dyadic s pieces the radial store track shares with the main one before
# its last piece; they reach sigma = 32.
_SHARED_PIECES = 2

# Sigma at the end of each head piece, pieces 0 to _SHARED_PIECES, on a
# slice that runs past it, as _nodes computes it: 2, 8 and 32.
_HEAD_ENDS = [1.0 + _U_SEAM * _U_SEAM] + [
    1.0 / (hi * hi) for hi in (0.5 * _S_SEAM * 2.0 ** (1 - i)
                               for i in range(1, _SHARED_PIECES + 1))]

# A knotless piece's starting nodes, as fractions of its width: four
# panels, or toward s = 0 panels that shrink by sqrt(2).  Scaling by a
# power of two is exact, so these equal linspace(lo, hi, 5) and
# lo * 2^(-k/2), k = 0..14, then 0.
_QUARTERS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
_TAIL = np.append(2.0 ** (-0.5 * np.arange(15)), 0.0)

# The slice integrals the store keeps, as (order, power): chi (1, 1/2),
# rho (1, 3/2), the lapse integral (2, 1) and fermi_speed's i2 (2, 2).
_CHI, _RHO, _LAPSE, _I2 = (1, 0.5), (1, 1.5), (2, 1.0), (2, 2.0)

@dataclass(frozen=True)
class GeodesicPoint:
    """One sample on a constant-tau geodesic."""

    tau: float
    sigma: float
    t: float
    chi: float
    rho: float


def _check_slice(cosmo: Cosmology, tau: float, sigma: float,
                 allow_equal_one: bool = True) -> tuple[float, float]:
    """tau and u = sqrt(sigma - 1) of a sigma on the tau slice."""
    _finite("tau", tau)
    lo_ok = sigma >= 1.0 if allow_equal_one else sigma > 1.0
    if not lo_ok:
        raise DomainError(f"sigma must be {'>=' if allow_equal_one else '>'} "
                          f"1, got {sigma}")
    s_inf = sigma_infinity(cosmo, tau)
    if sigma >= s_inf:
        raise DomainError(
            f"sigma={sigma:g} is not below sigma_infinity={s_inf:g} "
            f"on the tau={tau:g} slice")
    return float(tau), math.sqrt(sigma - 1.0)


def t_of_sigma(cosmo: Cosmology, tau: float, sigma: float) -> float:
    """Cosmological time t = b(a(tau)/sqrt(sigma)) at stretch sigma."""
    tau = _check_slice(cosmo, tau, sigma)[0]
    m = cosmo.model
    return float(m.b(float(m.a(tau)) / math.sqrt(sigma)))


def _integrand(model, a0: float, comps, is_u: bool):
    """The integrands of the slice integrals of the (order, power) comps
    after the substitution sigma = 1 + x^2 (is_u) or sigma = x^-2, one row
    each.  The s form carries the sign of integration toward larger
    sigma, that is toward smaller s."""
    derivs = {o: (model.b_dot, model.b_ddot)[o - 1] for o, _ in comps}

    def f(x):
        if is_u:
            s = 1.0 + x * x
            arg = a0 / np.sqrt(s)
            d = {o: 2.0 * deriv(arg) for o, deriv in derivs.items()}
            return np.array([d[o] * s ** -p for o, p in comps])
        arg, lead = a0 * x, -2.0 / np.sqrt(1.0 - x * x)
        d = {o: lead * deriv(arg) for o, deriv in derivs.items()}
        # Power 1 multiplies by x^0 = 1: the row is d itself.
        return np.array([d[o] * x ** (2.0 * p - 2.0) if p != 1.0 else d[o]
                         for o, p in comps])
    return f


def slice_end(cosmo: Cosmology, tau: float) -> float:
    """Usable end of the tau slice: sigma_infinity, when finite, clipped by
    a relative 1e-12 just inside the slice; otherwise inf.  A slice with
    no room above sigma = 1 raises DomainError."""
    s_inf = sigma_infinity(cosmo, tau)
    if math.isinf(s_inf):
        return s_inf
    end = s_inf * (1.0 - _SLICE_MARGIN)
    if not end > 1.0:
        raise DomainError(f"the tau={tau:g} slice ends at sigma_infinity="
                          f"{s_inf:.17g}, too close to 1 to integrate")
    return end


def _block(k: int, sigma: float) -> range:
    """The store pieces built together with piece k, the first one the
    main track lacks, for a read at sigma: head pieces k up to the one
    that holds sigma (all of the head at sigma = inf, piece k alone at
    sigma = 1, as an inversion's walk asks), then pieces 3 and 4 one by
    one, then pieces 2^j + 1 to 2^(j+1).  A read builds the head it
    reaches in one first pass and no piece past it: a fixed three-piece
    head block took cold chi and lapse reads at u = 0.5 from about 100
    to 140 us.  Each piece's panels are its own whatever its block, so
    the panels stay a function of the slice alone; doubling blocks let a
    walk deep into a finite slice (about 1.44 h0 tau pieces on de
    Sitter) make one first pass per block, and build at most about
    twice the pieces it needs."""
    if k <= _SHARED_PIECES:
        m = k
        while m < _SHARED_PIECES and _HEAD_ENDS[m] < sigma:
            m += 1
        return range(k, m + 1)
    if k <= 4:
        return range(k, k + 1)
    j = (k - 1).bit_length()
    return range(2 ** (j - 1) + 1, 2 ** j + 1)


class _Piece(NamedTuple):
    """One built store piece: its (order, power) comps, their panel
    values (comps x panels), the node values of its comps by comp, per
    panel its start and end in u or s, and sigma at its end; last when
    it ends its track."""

    comps: tuple
    vals: np.ndarray
    ys: dict
    a: np.ndarray
    b: np.ndarray
    end: float
    last: bool


class _Track:
    """The pieces of one store track so far, sigma at the end of each,
    and per piece and comp the running totals at its start and panel
    ends, summed in extended precision from the track's start, and those
    sums at its end (totals).  add sums a block of pieces in one pass."""

    def __init__(self):
        self.pieces, self.ends, self.cums, self.totals = [], [], [], []

    @property
    def done(self) -> bool:
        return bool(self.pieces) and self.pieces[-1].last

    def add(self, pieces: list) -> None:
        comps = pieces[0].comps
        carry = self.totals[-1] if self.totals else {}
        run = np.concatenate([[[carry.get(c, 0.0)] for c in comps]]
                             + [p.vals for p in pieces], axis=1,
                             dtype=np.longdouble)
        run.cumsum(axis=1, out=run)
        cums, j = run.astype(float), 0
        for p in pieces:
            i, j = j, j + p.vals.shape[1]
            self.pieces.append(p)
            self.ends.append(p.end)
            self.cums.append(dict(zip(comps, cums[:, i:j + 1])))
            self.totals.append(dict(zip(comps, run[:, j])))


class Slice:
    """Stored slice integrals of one (cosmo, tau, cfg) slice.

    The main track holds pieces u in [0, 1], then dyadic pieces s in
    [s/2, s] from s = 1/sqrt(2) down to the slice end, or on an
    unbounded slice to piece 512, the first whose end sigma = 2^1025
    overflows, built on first use in the blocks of _block, each
    block from one numerics._adaptive_panels call, with the u and the s
    integrand each called once, and summed in one pass.  A read builds
    the head pieces it lacks up to the one that holds its sigma as one
    block, radius() the whole head, and an inversion's walk one piece at
    a time.  They integrate chi, the lapse integral and i2, and on the
    head, the first 1 + _SHARED_PIECES pieces, rho too.  The radial
    track, for rho alone, takes the head with its running totals from
    the main track, so the head is summed once, and ends with one piece
    to the slice end, s = 0 on an unbounded slice, where the rho
    integral converges; that tail is built by radius() or by a read or
    an inversion past the head.  The main track cannot end that way:
    chi, the lapse integral and i2 may grow by orders of magnitude toward
    the end of a finite slice, and a piece bounds its error only relative
    to its own total, so a read inside one long last piece could miss by
    all of its value.  Each piece is split at the table knots and refined
    on its own, so the panels depend on (cosmo, tau, cfg) alone.  Panels
    run in sigma order: s panels from high s to low.

    Callers read quantities by name at u = sqrt(sigma - 1): chi(),
    rho(), speed() (fermi_speed's v/a'(tau)) and lapse() (the lapse
    bracket B), each one weighted sum of the stored integrals; rho is
    read and inverted on the radial track, the others on the main
    track.  The slice radius rho_M,
    radius(), is the radial track's total; invert raises OutOfChartError
    carrying it for rho at or beyond it, and computes it, building the
    radial tail, only for rho not below the running total of the radial
    pieces already built.  A lower rho lies inside the slice and needs
    built pieces alone, so rw_from_fermi after fermi_from_rw builds no
    tail, while a cold inversion builds the whole track at once.

    The store keeps the last answer of invert per comp and of integral
    per tuple of integrals read, with the other arguments (the target,
    or u and the weights) it was computed for.  A call with equal
    arguments returns it, exactly what computing it again would return
    since the panels are the slice's alone; any other call computes and
    replaces that entry, and a call that raises stores nothing.  The
    weights are compared, not keyed on (fermi_speed's change with every
    chi0), so the memo holds one entry per kind of call, however many
    rows the slice serves.
    """

    def __init__(self, cosmo: Cosmology, tau: float, cfg: NumericsConfig):
        self.cosmo, self.tau = cosmo, tau
        self.end = slice_end(cosmo, tau)   # validates tau
        self.a0 = float(cosmo.model.a(tau))
        self.knots = sigma_breaks(cosmo, tau, self.end, self.a0)
        self.tol = 0.5 * cfg.quad_rel_tol
        self.tracks = {False: _Track(), True: _Track()}   # by radial
        self.last: dict = {}      # key -> (other arguments, last answer)

    def _grow(self, radial: bool, sigma: float = 1.0) -> None:
        """Add the next block of a track for a read at sigma (1 for a
        walk, which builds a piece at a time): a head piece of the main
        track, with its sums, to the radial one, else the pieces of
        _block up to the one that ends the track, from one
        _adaptive_panels call with one integrand per substitution and
        summed in one pass."""
        tr = self.tracks[radial]
        k = len(tr.pieces)
        if radial and k <= _SHARED_PIECES:
            main = self.tracks[False]
            while len(main.pieces) <= k:
                self._grow(False, sigma)
            for name in ("pieces", "ends", "cums", "totals"):
                getattr(tr, name).append(getattr(main, name)[k])
            return
        starts = []
        for i in [k] if radial else _block(k, sigma):
            starts.append(self._nodes(i, radial))
            if starts[-1][1]:
                break
        comps = ((_RHO,) if radial else (_CHI, _RHO, _LAPSE, _I2)
                 if k <= _SHARED_PIECES else (_CHI, _LAPSE, _I2))
        ks = range(k, k + len(starts))
        f = {is_u: _integrand(self.cosmo.model, self.a0, comps, is_u)
             for is_u in {i == 0 for i in ks}}
        built = numerics._adaptive_panels(
            [f[i == 0] for i in ks], [nodes for nodes, _, _ in starts],
            self.tol)
        tr.add([_Piece(comps, vals, dict(zip(comps, ys)), a, b, end, last)
                for (_, last, end), (a, b, vals, ys) in zip(starts, built)])

    def _nodes(self, k: int, tail: bool):
        """The starting nodes of piece k in u or s, its ends and the
        table knots between them, whether it ends its track, its end.
        A track ends at the slice end or, on an unbounded slice, with
        the first dyadic piece whose end sigma overflows, piece 512."""
        s_end = 1.0 / math.sqrt(self.end)
        if k == 0:
            top = math.sqrt(self.end - 1.0)
            lo, hi = 0.0, min(_U_SEAM, top)
            last, ends = top <= _U_SEAM, (1.0, 1.0 + hi * hi)
        else:
            lo = _S_SEAM * 2.0 ** (1 - k)
            hi = s_end if tail else max(0.5 * lo, s_end)
            ends = 1.0 / (lo * lo), 1.0 / (hi * hi) if hi else math.inf
            last = hi == s_end or math.isinf(ends[1])
        knots = _clean_breaks(self.knots, *ends)
        # Without knots, start from _QUARTERS or _TAIL.  Panels that pass
        # the error test on their integrals can still be too wide for the
        # reads of partial panels from their node values; from two
        # panels those reads stayed near 2.4e-13 relative at any tol.
        if not knots.size:
            return (lo + (hi - lo) * _QUARTERS if hi else lo * _TAIL,
                    last, ends[1])
        x = np.sqrt(knots - 1.0) if k == 0 else 1.0 / np.sqrt(knots)
        return np.concatenate(([lo], x, [hi])), last, ends[1]

    def _track(self, radial: bool, sigma: float) -> _Track:
        """The main or radial track, grown until it reaches sigma or
        ends."""
        tr = self.tracks[radial]
        while not tr.done and (not tr.pieces or tr.ends[-1] < sigma):
            self._grow(radial, sigma)
        return tr

    def radius(self) -> float:
        """Proper radius rho_M: the whole radial track."""
        return 0.5 * self.a0 * float(
            self._track(True, math.inf).cums[-1][_RHO][-1])

    def integral(self, weights: dict, u: float) -> float:
        """Sum of w times the slice integral of (order, n) over weights
        {(order, n): w} at u: whole panels from the running totals, then
        the integral of the stored node interpolant of the panel holding
        u (s past the seam) from its start, with no integrand call.
        Against direct integrals the worst read measured 0.09 tol at
        tol = 1e-14."""
        if u == 0.0:
            return 0.0
        comps, args = tuple(weights), (u, tuple(weights.values()))
        last = self.last.get(comps)
        if last is not None and last[0] == args:
            return last[1]
        sigma = 1.0 + u * u
        tr = self._track(comps == (_RHO,), sigma)
        k = min(bisect.bisect_left(tr.ends, sigma), len(tr.ends) - 1)
        b = tr.pieces[k].b
        x = u if k == 0 else 1.0 / math.sqrt(sigma)
        # The first panel whose end reaches x; s falls along the panels.
        j = int(np.searchsorted(b, x) if k == 0 else np.searchsorted(-b, -x))
        j = min(j, b.size - 1)
        a, half, d = self._series(tr.pieces[k], j, comps, args[1])
        part = (x - a) * _panel_eval(d, (x - a) / half - 1.0)[0]
        value = math.fsum([w * float(tr.cums[k][c][j])
                           for c, w in weights.items()] + [part])
        self.last[comps] = args, value
        return value

    @staticmethod
    def _series(piece: _Piece, j: int, comps: tuple, weights: tuple):
        """Panel j's start and half width, in u or s, and the Legendre
        series of its node values summed over comps with the weights."""
        a, b = float(piece.a[j]), float(piece.b[j])
        return a, 0.5 * (b - a), _legendre([piece.ys[c][j] for c in comps],
                                           weights)

    def invert(self, comp: tuple, target: float) -> float:
        """u at which F = scale times the slice integral of comp reaches
        target: chi (comp _CHI, scale 1/2) or rho (_RHO, scale a(tau)/2).

        The track's pieces are walked from the start, each built on first
        use, until the running total passes target or the track is done;
        a done track whose total falls short of target starts the walk at
        its last piece, so a repeat past the end reads one total.
        numerics._panel_root then places u (piece 0) or s past the seam
        where the read of integral() reaches it, on the node interpolant
        of the panel that holds it, with no model call.

        rho at or beyond the slice radius raises OutOfChartError.  chi
        past the track's end raises DomainError naming the chi reached
        there: the slice end, or on an unbounded slice the end of piece
        512, sigma = 2^1025, where a converging chi is its reach to
        rounding.  chi that only sigma past the float range reaches
        (from sigma = 2^1024 on) raises DomainError too.
        """
        last = self.last.get(comp)
        if last is not None and last[0] == target:
            return last[1]
        radial = comp == _RHO
        scale = 0.5 * self.a0 if radial else 0.5
        built = self.tracks[radial].cums
        if radial and not (built and
                           target < scale * float(built[-1][_RHO][-1])):
            rho_max = self.radius()
            if target >= rho_max:
                raise OutOfChartError(
                    f"rho={target:g} is not inside the tau={self.tau:g} "
                    f"slice; the slice proper radius is rho_M={rho_max:.12g}",
                    rho_max=rho_max)
        tr = self._track(radial, 1.0)
        # A done track's last total decides a target past it at once.
        past = tr.done and scale * float(tr.cums[-1][comp][-1]) < target
        for k in itertools.count(len(tr.pieces) - 1 if past else 0):
            if k == len(tr.pieces):
                if tr.done:
                    raise self._beyond(target, f"chi = {f!r} at its end")
                self._grow(radial)
            f = scale * float(tr.cums[k][comp][-1])
            if f >= target:
                break
        cum, r = tr.cums[k][comp], target / scale
        j = min(max(int(np.searchsorted(cum, r)) - 1, 0), cum.size - 2)
        a, half, d = self._series(tr.pieces[k], j, (comp,), (1.0,))
        x = a + half * _panel_root(d, half, r - float(cum[j]))
        if not (k == 0 or x > 0.0):
            raise AccuracyError(f"{target:g} is within rounding of the end "
                                f"of the tau={self.tau:g} slice")
        u = x if k == 0 else math.sqrt(1.0 / (x * x) - 1.0)
        if math.isinf(u):
            raise self._beyond(target, "sigma leaves the float range first")
        self.last[comp] = target, u
        return u

    def chi(self, u: float) -> float:
        """Comoving radius chi at u = sqrt(sigma - 1)."""
        return 0.5 * self.integral({_CHI: 1.0}, u)

    def rho(self, u: float) -> float:
        """Proper distance rho at u = sqrt(sigma - 1)."""
        return 0.5 * self.a0 * self.integral({_RHO: 1.0}, u)

    def speed(self, u: float) -> float:
        """fermi_speed's v/a'(tau) at u = sqrt(sigma0 - 1):
        (1/2) [I1 + a0 (I2 - I3/sigma0)], I1 the rho integral, I2 the
        slice integral of order 2 and power 2 and I3 the lapse integral;
        a0 (I2 - I3/sigma0) is one pass over the b'' panels' node
        values."""
        return 0.5 * (self.integral({_RHO: 1.0}, u) + self.integral(
            {_I2: self.a0, _LAPSE: -self.a0 / (1.0 + u * u)}, u))

    def lapse(self, u: float) -> float:
        """The lapse bracket B of lapse_bracket at u = sqrt(sigma - 1)."""
        root = math.sqrt(1.0 + u * u)
        inner = self.integral({_LAPSE: 1.0}, u)
        return _no_overflow("the lapse bracket", (
            float(self.cosmo.model.b_dot(self.a0 / root))
            + self.a0 * u / (2.0 * root) * inner))

    def _beyond(self, target: float, what: str) -> DomainError:
        return DomainError(f"{target:g} is beyond the comoving reach of "
                           f"the tau={self.tau:g} slice ({what})")


@functools.lru_cache(maxsize=_CACHED_SLICES)
def _cached_store(cosmo: Cosmology, tau: float, cfg: NumericsConfig) -> Slice:
    return Slice(cosmo, tau, cfg)


def store(cosmo: Cosmology, tau: float,
          cfg: NumericsConfig | None = None) -> Slice:
    """The Slice of (cosmo, tau, cfg), from a cache of the last
    _CACHED_SLICES slices asked for."""
    return _cached_store(cosmo, tau, cfg or DEFAULT_CONFIG)


def _u_of(cosmo: Cosmology, tau: float, quantity: str, target: float,
          cfg: NumericsConfig | None) -> float:
    """u = sqrt(sigma - 1) where quantity, "rho" or "chi0" (the comoving
    radius chi), reaches target on the tau slice, by Slice.invert; 0 at
    target 0."""
    tau = _check_time(tau)
    if _finite(quantity, target, nonnegative=True) == 0.0:
        return 0.0
    return store(cosmo, tau, cfg).invert(
        _RHO if quantity == "rho" else _CHI, target)


def lapse_bracket(cosmo: Cosmology, tau: float, sigma: float,
                  cfg: NumericsConfig | None = None) -> float:
    """B = b'(a0/sqrt(sigma)) + a0 sqrt(sigma-1)/(2 sqrt(sigma)) * I.

    I is the slice integral of order 2 and power 1, read from the store.
    The lapse is g_tau_tau = -(a'(tau) B)^2 and the chart Jacobian is
    a'(tau) b'(a0/sqrt(sigma)) B / (2 sigma sqrt(sigma-1)).
    """
    tau, u = _check_slice(cosmo, tau, sigma)
    return store(cosmo, tau, cfg).lapse(u)


def chi_of_sigma(cosmo: Cosmology, tau: float, sigma: float,
                 cfg: NumericsConfig | None = None) -> float:
    """Comoving radius reached at stretch sigma.

    chi = (1/2) * integral_1^sigma b'(a(tau)/sqrt(s)) / (sqrt(s) sqrt(s-1)) ds
    """
    tau, u = _check_slice(cosmo, tau, sigma)
    return store(cosmo, tau, cfg).chi(u)


def rho_of_sigma(cosmo: Cosmology, tau: float, sigma: float,
                 cfg: NumericsConfig | None = None) -> float:
    """Proper distance from the observer to stretch sigma along the slice.

    rho = (a(tau)/2) * integral_1^sigma b'(a(tau)/sqrt(s))
          / (s^(3/2) sqrt(s-1)) ds
    """
    tau, u = _check_slice(cosmo, tau, sigma)
    return store(cosmo, tau, cfg).rho(u)


def sample_geodesic(cosmo: Cosmology, tau: float, sigma_max: float, n: int,
                    cfg: NumericsConfig | None = None) -> list[GeodesicPoint]:
    """n points with geometrically spaced sigma on [1, sigma_max]."""
    try:
        n = operator.index(n)
    except TypeError:
        raise DomainError(f"n must be an integer, got {n!r}") from None
    if n < 2:
        raise DomainError(f"need at least 2 samples, got {n}")
    tau = _check_slice(cosmo, tau, sigma_max, allow_equal_one=False)[0]
    points = []
    for i in range(n):
        sigma = sigma_max ** (i / (n - 1))
        points.append(GeodesicPoint(
            tau, sigma,
            t_of_sigma(cosmo, tau, sigma),
            chi_of_sigma(cosmo, tau, sigma, cfg),
            rho_of_sigma(cosmo, tau, sigma, cfg)))
    return points


def integrate_geodesic_ode(cosmo: Cosmology, tau: float, rho_max: float,
                           step: float) -> list[GeodesicPoint]:
    """Integrate the geodesic ODE outward in proper distance rho.

    With a0 = a(tau) and u = sqrt(sigma - 1) = -dt/drho, the regular system
        dt/drho = -u,  du/drho = (1 + u^2) H(t),  dchi/drho = a0/a(t)^2
    runs from (t, u, chi) = (tau, 0, 0) by fixed-step classical Runge-Kutta.
    dt/drho = -sqrt((a0/a(t))^2 - 1) alone is not Lipschitz at the
    observer (t = tau also solves it); this right-hand side is smooth
    there, so no special start is needed and the error is discretisation
    alone.  Only a and a' enter, never b or a slice integral, so the route
    cross-checks the quadrature maps independently.  rho_max/step rounds
    to the step count, which may not exceed 100000 (DomainError, raised
    before the first step).
    """
    tau, step = _finite("tau", tau), _finite("step", step)
    rho_max = _finite("rho_max", rho_max, nonnegative=True)
    m = cosmo.model
    a0 = float(m.a(tau))
    start = GeodesicPoint(tau, 1.0, float(tau), 0.0, 0.0)
    if rho_max < step * 1e-12 or rho_max == 0.0:
        return [start]

    def a_of(t: float) -> float:
        if not t > 0.0:
            raise DomainError(
                f"geodesic integration left the model domain (t={t:g})")
        return float(m.a(t))

    def deriv(t: float, u: float) -> tuple[float, float, float]:
        a = a_of(t)
        return -u, (1.0 + u * u) * float(m.a_dot(t)) / a, a0 / (a * a)

    # A step that leaves the float range raises DomainError.
    try:
        n = max(1, round(rho_max / step))
        if n > _ODE_MAX_STEPS:
            raise DomainError(f"rho_max/step = {rho_max / step:g} steps "
                              f"exceed the cap of {_ODE_MAX_STEPS}")
        h = rho_max / n
        t, u, chi = float(tau), 0.0, 0.0
        points = [start]
        for i in range(n):
            k1t, k1u, k1c = deriv(t, u)
            k2t, k2u, k2c = deriv(t + 0.5 * h * k1t, u + 0.5 * h * k1u)
            k3t, k3u, k3c = deriv(t + 0.5 * h * k2t, u + 0.5 * h * k2u)
            k4t, k4u, k4c = deriv(t + h * k3t, u + h * k3u)
            t += h * (k1t + 2.0 * k2t + 2.0 * k3t + k4t) / 6.0
            u += h * (k1u + 2.0 * k2u + 2.0 * k3u + k4u) / 6.0
            chi += h * (k1c + 2.0 * k2c + 2.0 * k3c + k4c) / 6.0
            rho = (i + 1) * h
            points.append(GeodesicPoint(tau, (a0 / a_of(t)) ** 2, t, chi, rho))
    except (OverflowError, ZeroDivisionError):
        raise DomainError(f"geodesic integration overflows on the "
                          f"tau={tau:g} slice to rho={rho_max:g}") from None
    return points
