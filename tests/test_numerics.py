# Quadrature, root finding, and special functions.

import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermirw import (
    AccuracyError,
    BracketError,
    DEFAULT_CONFIG,
    DomainError,
    NumericsConfig,
    find_root_monotone,
    gamma_fn,
    hyp2f1,
    integrate_sigma,
    make_power_law,
)
from fermirw import geodesics, numerics

# Values computed with a 40-digit arbitrary-precision oracle before the
# implementation existed; they are inputs to the tests, not outputs.
GAMMA_5_4 = 0.9064024770554771
GAMMA_7_4 = 0.9190625268488832
F1_ORACLE = {  # 2F1(1/4, 1/2; 5/4; z)
    0.3: 1.0345664812385340,
    0.75: 1.1207132169546243,
    0.9: 1.1793998373038455,
    0.99: 1.2640752249431692,
    1.0: 1.3110287771460599,
}
F2_ORACLE = {  # 2F1(-3/4, 1/2; 1/4; z)
    0.3: 0.5262900821625154,
    0.9: -0.7452320875566230,
    0.99: -1.1514344726937375,
    1.0: -1.3110287771460599,
}


# ---------------------------------------------------------------------------
# integrate_sigma

def test_radius_weight_infinite():
    val = integrate_sigma(lambda s: 1.0 / (s ** 1.5 * np.sqrt(s - 1.0)),
                          1.0, math.inf)
    assert val == pytest.approx(2.0, rel=1e-12)


def test_radius_weight_finite():
    for sigma0 in (4.0, 2.0, 17.5):
        val = integrate_sigma(
            lambda s: 1.0 / (s ** 1.5 * np.sqrt(s - 1.0)), 1.0, sigma0)
        assert val == pytest.approx(
            2.0 * math.sqrt((sigma0 - 1.0) / sigma0), rel=1e-12)


def test_sigma0_4_equals_sqrt3():
    val = integrate_sigma(lambda s: 1.0 / (s ** 1.5 * np.sqrt(s - 1.0)),
                          1.0, 4.0)
    assert val == pytest.approx(math.sqrt(3.0), rel=1e-12)


def test_inverse_square_weight_infinite():
    val = integrate_sigma(lambda s: 1.0 / (s * s * np.sqrt(s - 1.0)),
                          1.0, math.inf)
    assert val == pytest.approx(math.pi / 2.0, rel=1e-12)


def test_pure_singularity_is_exact():
    # The u = sqrt(sigma - 1) substitution removes the endpoint
    # singularity algebraically, so this one costs a single panel.
    for hi in (1.5, 9.0, 100.0):
        val = integrate_sigma(lambda s: 1.0 / np.sqrt(s - 1.0), 1.0, hi)
        assert val == pytest.approx(2.0 * math.sqrt(hi - 1.0), rel=1e-14)


def test_seeded_polynomials_match_exact_integral():
    rng = np.random.default_rng(20260823)
    for _ in range(20):
        coeffs = rng.uniform(-2.0, 2.0, size=rng.integers(1, 8))
        sigma0 = float(rng.uniform(1.5, 50.0))
        p = np.polynomial.Polynomial(coeffs)
        # substitute sigma = 1 + u^2: integral = 2 * int p(1+u^2) du
        pu = p(np.polynomial.Polynomial([1.0, 0.0, 1.0]))
        exact = 2.0 * (pu.integ()(math.sqrt(sigma0 - 1.0)) - pu.integ()(0.0))
        got = integrate_sigma(lambda s: p(s) / np.sqrt(s - 1.0),
                              1.0, sigma0)
        assert abs(got - exact) <= 1e-11 * max(1.0, abs(exact))


def test_breaks_split_at_kink():
    # |sigma - 5/2| has a derivative jump; telling the integrator where
    # it sits must not change the answer, only the work.
    f = lambda s: np.abs(s - 2.5) / np.sqrt(s - 1.0)
    exact = 2.0 * (2.0 * 1.5 ** 1.5 / 3.0
                   + (3.0 ** 1.5 / 3.0 - 1.5 * math.sqrt(3.0))
                   + 2.0 * 1.5 ** 1.5 / 3.0)
    assert integrate_sigma(f, 1.0, 4.0) == pytest.approx(exact, rel=1e-11)
    assert integrate_sigma(f, 1.0, 4.0, breaks=(2.5,)) == pytest.approx(
        exact, rel=1e-12)


def test_breaks_outside_range_ignored():
    f = lambda s: 1.0 / (s ** 1.5 * np.sqrt(s - 1.0))
    val = integrate_sigma(f, 1.0, 4.0, breaks=(0.5, 4.0, 9.0))
    assert val == pytest.approx(math.sqrt(3.0), rel=1e-12)


def test_clean_breaks_matches_the_loop():
    # The loop the vectorised cleanup replaced; the two agree whenever
    # no three points sit within successive 1e-12 gaps.
    def by_loop(breaks, lo, hi):
        out = []
        for p in sorted(breaks):
            if p <= lo * (1.0 + 1e-12) or p >= hi * (1.0 - 1e-12):
                continue
            if out and p <= out[-1] * (1.0 + 1e-12):
                continue
            out.append(p)
        return out
    rng = np.random.default_rng(7)
    for _ in range(50):
        pts = rng.uniform(0.5, 12.0, 30)
        pts = np.concatenate((pts, pts[:5], [1.0, 10.0, 10.0 * (1 - 1e-13)]))
        rng.shuffle(pts)
        assert numerics._clean_breaks(pts, 1.0, 10.0).tolist() == \
            by_loop(pts.tolist(), 1.0, 10.0)
    assert numerics._clean_breaks(None, 1.0, 10.0).size == 0


def test_nonconvergence_carries_estimate(monkeypatch):
    monkeypatch.setattr(numerics, "_SPLIT_CAP", 2)
    cfg = NumericsConfig(quad_rel_tol=1e-16)
    with pytest.raises(AccuracyError) as exc:
        integrate_sigma(lambda s: np.sin(10.0 * s) ** 2 / np.sqrt(s - 1.0),
                        1.0, 40.0, cfg=cfg)
    assert math.isfinite(exc.value.estimate)
    assert exc.value.bound > 0.0


@pytest.mark.parametrize("sigma_hi", [2.0, 40.0, math.inf, 1.0 + 1e-13])
def test_nan_integrand_raises(sigma_hi):
    # A NaN Kronrod/Gauss difference must not count as a converged panel.
    with pytest.raises(AccuracyError):
        integrate_sigma(lambda s: np.full_like(s, np.nan), 1.0, sigma_hi)


@pytest.mark.parametrize("breaks,bad,piece", [
    # a piece in u = sqrt(sigma - 1), and one in s = 1/sqrt(sigma)
    ((1.2, 1.4, 1.6, 1.8), (1.4, 1.6),
     (math.sqrt(1.4 - 1.0), math.sqrt(1.6 - 1.0))),
    ((2.5, 3.0, 3.5, 5.0), (3.0, 3.5),
     (1.0 / math.sqrt(3.5), 1.0 / math.sqrt(3.0))),
])
def test_nan_in_one_knot_piece_raises(breaks, bad, piece):
    # The batched first pass names the whole piece, not a half of it.
    def f(s):
        return np.where((s > bad[0]) & (s < bad[1]), np.nan, 1.0) / \
            np.sqrt(s - 1.0)
    with pytest.raises(AccuracyError) as exc:
        integrate_sigma(f, 1.0, 10.0, breaks=breaks)
    assert f"panel [{piece[0]:.17g}, {piece[1]:.17g}]" in str(exc.value)
    assert integrate_sigma(lambda s: 1.0 / np.sqrt(s - 1.0), 1.0, 10.0,
                           breaks=breaks) == pytest.approx(6.0, rel=1e-14)


def _adaptive_by_scan(f, a, b, rel_tol):
    """numerics._adaptive on [a, b] with the linear worst-panel scan the
    heap replaced, on the batched kernel; returns (value, the accepted
    panels' (start, end) pairs in order)."""
    def panels(lo, hi):
        v, e, r, _ = numerics._panels(f, np.array(lo), np.array(hi))
        return v.tolist(), e.tolist(), r.tolist()
    (val,), (err,), (resabs,) = panels([a], [b])
    accepted = [(err, a, b, val)]
    total, total_err, total_resabs = val, err, resabs
    for _ in range(numerics._SPLIT_CAP):
        floor = 50.0 * np.finfo(float).eps * total_resabs
        if total_err <= max(rel_tol * abs(total), floor):
            return total, sorted((pa, pb) for _, pa, pb, _ in accepted)
        worst = max(range(len(accepted)), key=lambda i: accepted[i][0])
        werr, wa, wb, wval = accepted.pop(worst)
        m = 0.5 * (wa + wb)
        (lv, rv), (le, re), (lr, rr) = panels([wa, m], [m, wb])
        accepted.append((le, wa, m, lv))
        accepted.append((re, m, wb, rv))
        total += lv + rv - wval
        total_err += le + re - werr
        total_resabs += lr + rr
    raise AssertionError("reference did not converge")


def _heap_panels(f, a, b, rel_tol):
    """(value, accepted (start, end) pairs) of the batched driver."""
    starts, ends, _, _ = numerics._adaptive_panels(
        [lambda x: np.atleast_2d(f(x))], [np.array([a, b])], rel_tol)[0]
    return (numerics._adaptive(f, [a, b], rel_tol),
            list(zip(starts.tolist(), ends.tolist())))


@pytest.mark.parametrize("f,a,b", [
    (lambda x: np.sqrt(np.abs(x - 0.3)) + np.abs(x - 0.71) ** 0.25,
     0.0, 1.0),
    (lambda x: np.sqrt(np.abs(x)), -1.0, 1.0),   # mirror panels can tie
    (lambda x: np.sin(40.0 * x) ** 2, 0.0, 3.0),
])
def test_heap_picks_the_panels_the_scan_picked(f, a, b):
    # The same panels; the value only up to summation order, since the
    # driver sums its panels in range order and the scan as it goes.
    want, panels = _adaptive_by_scan(f, a, b, 1e-12)
    assert len(panels) >= 30
    got, got_panels = _heap_panels(f, a, b, 1e-12)
    assert got_panels == panels
    assert got == pytest.approx(want, rel=1e-15)


def test_heap_breaks_ties_like_the_scan(monkeypatch):
    # A left-rule kernel whose error depends on the width alone ties every
    # panel of one bisection level; the heap must split the oldest tied
    # panel first, as the scan's first maximum did.
    def left_rule(f, a, b):
        w = b - a
        y = f(a)
        return (w * y, np.broadcast_to(0.1 * w * w, y.shape), np.abs(w * y),
                y[..., None])
    monkeypatch.setattr(numerics, "_panels", left_rule)
    f = lambda x: x * x
    want, panels = _adaptive_by_scan(f, 0.0, 1.0, 3e-3)
    assert 64 < len(panels) < 128     # converged halfway through a level
    got, got_panels = _heap_panels(f, 0.0, 1.0, 3e-3)
    assert got_panels == panels
    assert got == pytest.approx(want, rel=1e-15)


def test_a_small_row_is_bisected_on_its_own_budget():
    # The panel to bisect has the largest error relative to its row's
    # budget: keyed on raw errors, row 1, 1e-20 of row 0's size, never
    # won a bisection, and the range stopped at the cap.  Row 2 is zero,
    # as b'' is on Milne: a budget of 0.
    vals = numerics._adaptive_panels(
        [lambda x: np.array([np.exp(x), 1e-20 * np.cos(60.0 * x), 0.0 * x])],
        [np.array([0.0, 0.5, 1.0])], 1e-12)[0][2]
    got = [math.fsum(row) for row in vals.tolist()]
    assert got[0] == pytest.approx(math.e - 1.0, rel=1e-12)
    assert got[1] == pytest.approx(1e-20 * math.sin(60.0) / 60.0, rel=1e-12)
    assert got[2] == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_split_range_errors_past_1e150_do_not_overflow():
    # The kernel's (200 delta)^1.5 overflows to inf there, which is still
    # a valid error bound, on a split range and on one piece alike; a
    # scalar kernel in Python floats raised a bare OverflowError.
    for nodes, scale in (([0.0, 0.5, 1.0], 1e200), ([0.0, 1.0], 1e250)):
        got = numerics._adaptive(lambda x: scale * np.exp(x), nodes, 1e-12)
        assert got == pytest.approx(scale * (math.e - 1.0), rel=1e-12)
    got = integrate_sigma(
        lambda s: 1e250 * np.sqrt(s) * np.exp(s) / np.sqrt(s - 1.0), 1.0, 1.5)
    assert got == pytest.approx(5.0003839699328e250, rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("f, kernel_hi, sigma_hi", [
    # The tail probe at sigma = 1e10 and 1e12.
    (lambda s: s ** -2.0 * np.cosh(np.minimum(s, 800.0)) / np.sqrt(s - 1.0),
     1000.0, math.inf),
    # The leading order below sigma_hi - 1 = 1e-11.
    (lambda s: np.cosh(800.0 * s) / np.sqrt(s - 1.0), 1.5, 1.0 + 1e-12),
])
def test_direct_calls_turn_a_warning_into_accuracy_error(f, kernel_hi,
                                                         sigma_hi):
    # integrate_sigma's own calls of f treat a RuntimeWarning as the
    # kernel does on a range that overflows f.
    with pytest.raises(AccuracyError, match="not finite"):
        integrate_sigma(f, 1.0, kernel_hi)
    with pytest.raises(AccuracyError, match="not finite"):
        integrate_sigma(f, 1.0, sigma_hi)


def _same_as_alone(fs, ranges, rel_tol):
    """_adaptive_panels on the block of ranges; asserts that each range
    gets, bit for bit, the starts, ends, values and node values it gets
    alone."""
    block = numerics._adaptive_panels(fs, ranges, rel_tol)
    for f, r, got in zip(fs, ranges, block):
        alone = numerics._adaptive_panels([f], [r], rel_tol)[0]
        assert all(x.tobytes() == y.tobytes() for x, y in zip(got, alone))
    return block


def test_a_block_keeps_each_ranges_own_panels():
    # A block of ranges, one of which fails its first panels and is
    # bisected, gives each range the panels it gets alone.
    f = lambda x: np.array([np.cos(x), np.sqrt(x)])
    ranges = [np.array([1.0, 1.5, 2.0]), np.array([2.0, 2.5, 3.0]),
              np.array([3.0, 10.0, 60.0]), np.array([60.0, 61.0, 62.0])]
    block = _same_as_alone([f] * 4, ranges, 1e-12)
    assert len(block[2][0]) > 2 and len(block[0][0]) == 2


def test_a_block_keeps_each_ranges_own_integrand():
    # The store's block of a u piece and two s pieces, with one integrand
    # call per substitution: matter's four store integrals, the u piece
    # and the first s piece from four panels each, and a last s piece
    # from one panel, which fails its first pass and is bisected.
    matter = make_power_law(2.0 / 3.0)
    a0 = float(matter.a(1.0))
    comps = ((1, 0.5), (1, 1.5), (2, 1.0), (2, 2.0))
    u, s = (geodesics._integrand(matter, a0, comps, is_u)
            for is_u in (True, False))
    seam = geodesics._S_SEAM
    ranges = [np.linspace(0.0, geodesics._U_SEAM, 5),
              np.linspace(seam, 0.5 * seam, 5), np.array([0.5 * seam, 0.05])]
    block = _same_as_alone([u, s, s], ranges, 1e-12)
    assert [len(got[0]) for got in block[:2]] == [4, 4]
    assert len(block[2][0]) > 1


def test_pieces_that_fail_their_first_panel_are_bisected():
    # cos(30 u) spans several periods on each piece, so no piece passes
    # on its first panel: integral of 2 cos(30 u) du over [0, 3].
    f = lambda s: np.cos(30.0 * np.sqrt(s - 1.0)) / np.sqrt(s - 1.0)
    got = integrate_sigma(f, 1.0, 10.0, breaks=(1.5, 3.0, 6.0, 9.0))
    assert got == pytest.approx(math.sin(90.0) / 15.0, rel=1e-11)


def test_a_split_range_has_one_bisection_budget(monkeypatch,
                                                count_panels):
    # cos(100 u) over five u pieces takes 29 bisections in all, fewer than
    # 20 on every piece: a cap of 20 must stop the range as a whole, after
    # the five first panels and two panels per bisection.
    f = lambda s: np.cos(100.0 * np.sqrt(s - 1.0)) / np.sqrt(s - 1.0)
    breaks = (1.2, 1.4, 1.6, 1.8)
    assert integrate_sigma(f, 1.0, 2.0, breaks=breaks) == pytest.approx(
        math.sin(100.0) / 50.0, rel=1e-11)
    monkeypatch.setattr(numerics, "_SPLIT_CAP", 20)

    def capped():
        with pytest.raises(AccuracyError):
            integrate_sigma(f, 1.0, 2.0, breaks=breaks)
    assert count_panels(capped) == 5 + 2 * 20


@pytest.mark.parametrize("width", [2.0 ** -52, 1e-13, 9.9e-12])
def test_near_one_leading_order(width):
    # Below sigma_hi - 1 = 1e-11 one integrand call gives the leading
    # order; the two-point fit it replaced divided by zero at 1 + 2^-52.
    hi = 1.0 + width
    got = integrate_sigma(lambda s: 1.0 / (s ** 1.5 * np.sqrt(s - 1.0)),
                          1.0, hi)
    exact = 2.0 * math.sqrt((hi - 1.0) / hi)
    assert abs(got / exact - 1.0) <= 2.0 * (hi - 1.0)


@pytest.mark.parametrize("power", [0.5, 0.7])
def test_slow_tail_raises(power):
    # Tails slower than sigma^-1.25 raise, however small: sigma^-1
    # diverges, and the s map alone returns a finite 1.6e-19 for it.
    with pytest.raises(AccuracyError, match="decays like"):
        integrate_sigma(lambda s: 1e-20 * s ** -power / np.sqrt(s - 1.0),
                        1.0, math.inf)


@pytest.mark.parametrize("fields", [
    dict(quad_rel_tol=-math.inf), dict(quad_rel_tol=-1.0),
    dict(quad_rel_tol=-5e-324), dict(quad_rel_tol=math.nan),
    dict(quad_rel_tol=-1e-14), dict(quad_rel_tol=math.inf),
])
def test_config_rejects_bad_fields(fields):
    with pytest.raises(DomainError):
        NumericsConfig(**fields)
    # Root finds run to float resolution, and every loop's cap is fixed:
    # there is no root tolerance and no iteration knob.
    with pytest.raises(TypeError):
        NumericsConfig(root_tol=1e-12)
    with pytest.raises(TypeError):
        NumericsConfig(max_iter=500)


def test_degenerate_interval():
    assert integrate_sigma(lambda s: np.ones_like(s), 2.0, 2.0) == 0.0


# ---------------------------------------------------------------------------
# find_root_monotone

def test_root_sqrt2():
    x = find_root_monotone(lambda x: x * x - 2.0, 1.0, 2.0)
    assert x == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_root_atanh():
    # tanh x - 1/2 on [0, 2] and the falling 1/2 - tanh x on [0, 3].  The
    # bisection calls g only inside the bracket, lands within float
    # resolution, 4 eps max(1, |x|), and evaluates g at both ends and once
    # per halving of the bracket down to that width.
    eps = np.finfo(float).eps
    for sign, hi in ((1.0, 2.0), (-1.0, 3.0)):
        seen = []

        def g(x):
            seen.append(x)
            return sign * (math.tanh(x) - 0.5)

        x = find_root_monotone(g, 0.0, hi)
        assert 0.0 <= min(seen) and max(seen) <= hi
        assert abs(x - math.atanh(0.5)) <= 4.0 * eps * max(1.0, abs(x))
        assert len(seen) <= math.ceil(math.log2(hi / (4.0 * eps))) + 2


def test_root_of_the_float_range_takes_at_most_1077_evaluations():
    # Bisection to float resolution with no step cap: g at both ends of
    # the float range, 1025 halvings of its width 2^1025 to 1, and 50 more
    # to 4 eps.
    big = sys.float_info.max
    cases = ((lambda x: x - 0.3, 0.3), (lambda x: x - 1e-300, 1e-300),
             (lambda x: 0.5 - x, 0.5), (lambda x: x + 1.3e300, -1.3e300))
    for g, root in cases:
        seen = []

        def counted(x):
            seen.append(x)
            return g(x)
        x = find_root_monotone(counted, -big, big)
        assert abs(x - root) <= 4.0 * np.finfo(float).eps * max(1.0, abs(x))
        assert len(seen) <= 1077


def test_nan_at_a_bracket_end_is_a_domain_error():
    # A NaN compares as "not negative": read as a sign, g(3) = NaN would
    # make 1.0, where g is -1, the root.
    with pytest.raises(DomainError, match="not a number"):
        find_root_monotone(lambda x: math.nan if x > 1.0 else x - 2.0,
                           0.0, 3.0)


def test_nan_at_a_midpoint_carries_it_as_estimate():
    with pytest.raises(AccuracyError, match="not a number") as exc:
        find_root_monotone(lambda x: math.nan if 1.0 < x < 2.0 else x - 1.75,
                           0.0, 3.0)
    assert exc.value.estimate == 1.5
    assert exc.value.bound == 1.5


def test_root_inverts_radius_map():
    # rho = tau*sqrt((s-1)/s) at tau=1: rho=0.6 lands at s=1/(1-0.36)
    g = lambda s: math.sqrt((s - 1.0) / s) - 0.6
    s = find_root_monotone(g, 1.0, 10.0)
    assert s == pytest.approx(1.5625, abs=1e-10)


def test_root_at_bracket_end():
    assert find_root_monotone(lambda x: x - 1.0, 1.0, 2.0) == 1.0
    assert find_root_monotone(lambda x: x - 2.0, 1.0, 2.0) == 2.0


def test_no_sign_change_raises():
    with pytest.raises(BracketError):
        find_root_monotone(lambda x: x + 10.0, 1.0, 2.0)


def test_underflowing_interpolation_bisects():
    # Residuals near 1e-300 round to 0 within about 2e-8 of the triple
    # root, and a zero residual ends the bisection.
    x = find_root_monotone(lambda x: 1e-300 * (x / 1e300 - 1.3) ** 3,
                           1e300, 2e300)
    assert x / 1.3e300 == pytest.approx(1.0, abs=1e-7)


@given(st.floats(min_value=-0.95, max_value=0.95))
@settings(max_examples=50, deadline=None)
def test_root_recovers_tanh_argument(y):
    x = find_root_monotone(lambda x: math.tanh(x) - y, -3.0, 3.0)
    assert abs(math.tanh(x) - y) < 1e-12


def test_panel_root_bisects_where_the_slope_is_not_positive():
    # p = 3t^2 - 1/2 dips below zero on |t| < 0.41.  The linear guess
    # t = 0.2 lies in the dip, below the target: no Newton step, and no
    # stop there, though the fallback step to the bracket end is zero.
    y = 3.0 * numerics._NODES ** 2 - 0.5
    t = numerics._panel_root(numerics._legendre([y], (1.0,)), 1.0, 0.6) - 1.0
    assert abs(t ** 3 - 0.5 * t + 0.5 - 0.6) < 1e-14


def test_a_panel_series_that_overflows_raises():
    # Python floats overflow to inf without a RuntimeWarning, so the
    # series checks its values; numpy's overflow in the coefficients
    # raises under an error::RuntimeWarning filter and gives inf or nan
    # without one.
    with pytest.raises(AccuracyError, match="not finite"):
        numerics._panel_eval([1e308] * 15, 0.9)
    y = [np.full(15, 1e308)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(AccuracyError, match="not finite"):
            numerics._legendre(y, (10.0,))
    with pytest.warns(RuntimeWarning):
        d = numerics._legendre(y, (10.0,))
    with pytest.raises(AccuracyError, match="not finite"):
        numerics._panel_root(d, 1.0, 1.0)


@pytest.mark.parametrize("half", [0.5, -0.25], ids=["u", "s"])
@pytest.mark.parametrize("frac", [1e-12, 1e-300])
def test_panel_root_stops_relative_to_w(half, frac):
    # Targets far below the panel's integral, on a constant p = 3 and a
    # linear p = 1 + t/2, with the sign of half (s panels run backward).
    # The iteration in w = 1 + t, stopped at 8 eps w, keeps the root's
    # digits, which t near -1 holds only to eps absolute.
    sign = math.copysign(1.0, half)
    for p, whole, w in ((np.full(15, 3.0), 6.0, 2.0 * frac),
                        (1.0 + 0.5 * numerics._NODES, 2.0,
                         8.0 * frac / (1.0 + math.sqrt(1.0 + 8.0 * frac)))):
        d = numerics._legendre([sign * p], (1.0,))
        got = numerics._panel_root(d, half, frac * whole * abs(half))
        assert abs(got - w) <= 4.0 * numerics._EPS * w


# ---------------------------------------------------------------------------
# gamma_fn

def test_gamma_classic_values():
    assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-13)
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-13)


def test_gamma_quarter_points():
    assert gamma_fn(1.25) == pytest.approx(GAMMA_5_4, rel=1e-12)
    assert gamma_fn(1.75) == pytest.approx(GAMMA_7_4, rel=1e-12)


def test_gamma_domain():
    with pytest.raises(DomainError):
        gamma_fn(0.0)
    with pytest.raises(DomainError):
        gamma_fn(-1.5)


def test_gamma_overflow_is_domain_error():
    assert math.isfinite(gamma_fn(171.0))
    with pytest.raises(DomainError):
        gamma_fn(200.0)


@pytest.mark.parametrize("x", [0.25 * k for k in range(1, 21)])
def test_gamma_recurrence_grid(x):
    assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-12)


@given(st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=100)
def test_gamma_recurrence(x):
    assert abs(gamma_fn(x + 1.0) / (x * gamma_fn(x)) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# hyp2f1

def test_hyp2f1_at_zero():
    assert hyp2f1(0.25, 0.5, 1.25, 0.0) == 1.0
    assert hyp2f1(-0.75, 0.5, 0.25, 0.0) == 1.0


@pytest.mark.parametrize("z,want", sorted(F1_ORACLE.items()))
def test_hyp2f1_first_parameter_set(z, want):
    assert hyp2f1(0.25, 0.5, 1.25, z) == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("z,want", sorted(F2_ORACLE.items()))
def test_hyp2f1_second_parameter_set(z, want):
    assert hyp2f1(-0.75, 0.5, 0.25, z) == pytest.approx(want, rel=1e-11)


def test_hyp2f1_z1_consistent_with_gamma():
    # Both sides computed here, neither taken from the implementation
    # under test's own constants.
    want = (gamma_fn(1.25) * gamma_fn(0.5)
            / (gamma_fn(1.0) * gamma_fn(0.75)))
    assert hyp2f1(0.25, 0.5, 1.25, 1.0) == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("a,b,c", [(0.25, 0.5, 1.25), (-0.75, 0.5, 0.25)])
@pytest.mark.parametrize("z", [0.0, 0.3, 0.9, 1.0])
def test_hyp2f1_argument_symmetry(a, b, c, z):
    assert hyp2f1(a, b, c, z) == hyp2f1(b, a, c, z)


def test_hyp2f1_divergent_at_one():
    # c - a - b <= 0 has no finite z=1 limit
    with pytest.raises(DomainError):
        hyp2f1(1.0, 1.0, 1.5, 1.0)


def test_hyp2f1_bad_c():
    with pytest.raises(DomainError):
        hyp2f1(0.25, 0.5, -1.0, 0.3)


def test_hyp2f1_z_out_of_range():
    with pytest.raises(DomainError):
        hyp2f1(0.25, 0.5, 1.25, 1.5)


def test_config_defaults():
    assert [f.name for f in dataclasses.fields(NumericsConfig)] == [
        "quad_rel_tol"]
    assert DEFAULT_CONFIG.quad_rel_tol == 1e-12
    # Tables run at the caller's tolerance; the name is kept, unexported,
    # for the benchmark scripts.
    assert numerics.table_safe_config(DEFAULT_CONFIG) is DEFAULT_CONFIG
    assert "table_safe_config" not in numerics.__all__
