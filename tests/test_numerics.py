# Quadrature, root finding, and special functions.

import math

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
)
from fermirw import numerics

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


def test_nonconvergence_carries_estimate():
    cfg = NumericsConfig(quad_rel_tol=1e-16, quad_abs_tol=1e-18, max_iter=2)
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


def _adaptive_by_scan(f, a, b, rel_tol, abs_tol, max_iter):
    """numerics._adaptive with the linear worst-panel scan the heap
    replaced; returns (value, panels left)."""
    val, err, resabs = numerics._panel(f, a, b)
    panels = [(err, a, b, val)]
    total, total_err, total_resabs = val, err, resabs
    for _ in range(max_iter):
        floor = 50.0 * np.finfo(float).eps * total_resabs
        if total_err <= max(abs_tol, rel_tol * abs(total), floor):
            return total, len(panels)
        worst = max(range(len(panels)), key=lambda i: panels[i][0])
        werr, wa, wb, wval = panels.pop(worst)
        m = 0.5 * (wa + wb)
        lv, le, lr = numerics._panel(f, wa, m)
        rv, re, rr = numerics._panel(f, m, wb)
        panels.append((le, wa, m, lv))
        panels.append((re, m, wb, rv))
        total += lv + rv - wval
        total_err += le + re - werr
        total_resabs += lr + rr
    raise AssertionError("reference did not converge")


@pytest.mark.parametrize("f,a,b", [
    (lambda x: np.sqrt(np.abs(x - 0.3)) + np.abs(x - 0.71) ** 0.25,
     0.0, 1.0),
    (lambda x: np.sqrt(np.abs(x)), -1.0, 1.0),   # mirror panels can tie
    (lambda x: np.sin(40.0 * x) ** 2, 0.0, 3.0),
])
def test_heap_picks_the_panels_the_scan_picked(f, a, b):
    want, panels = _adaptive_by_scan(f, a, b, 1e-12, 1e-14, 500)
    assert panels >= 30
    assert numerics._adaptive(f, [a, b], 1e-12, 1e-14, 500) == want


def test_heap_breaks_ties_like_the_scan(monkeypatch):
    # A left-rule kernel whose error depends on the width alone ties every
    # panel of one bisection level; the heap must split the oldest tied
    # panel first, as the scan's first maximum did.
    def left_rule(f, a, b):
        w = b - a
        return w * f(a), 0.1 * w * w, abs(w * f(a))
    monkeypatch.setattr(numerics, "_panel", left_rule)
    f = lambda x: x * x
    want, panels = _adaptive_by_scan(f, 0.0, 1.0, 0.0, 1e-3, 500)
    assert 64 < panels < 128     # converged halfway through a level
    assert numerics._adaptive(f, [0.0, 1.0], 0.0, 1e-3, 500) == want


@pytest.mark.parametrize("nodes", [[0.0, 1.0], [0.0, 0.5, 1.0]])
def test_later_rows_ride_on_row_0s_panels(nodes):
    # Row 0 needs about 30 bisections; row 1 is smooth.  Row 0's value is
    # the one-row value, and row 1 is summed over row 0's panels.  Two
    # pieces and more take the batched first pass.
    f = lambda x: np.sqrt(np.abs(x - 0.3)) + np.abs(x - 0.71) ** 0.25
    g = lambda x: np.exp(x)
    both = numerics._adaptive(lambda x: np.array([f(x), g(x)]), nodes,
                              1e-12, 1e-14, 500)
    assert both[0] == numerics._adaptive(f, nodes, 1e-12, 1e-14, 500)
    assert both[1] == pytest.approx(math.e - 1.0, rel=1e-14)


def test_a_block_keeps_each_ranges_own_panels():
    # A block of ranges, one of which fails its first panels and is
    # bisected, gives each range the panels it gets alone.
    f = lambda x: np.array([np.cos(x), np.sqrt(x)])
    ranges = [np.array([1.0, 1.5, 2.0]), np.array([2.0, 2.5, 3.0]),
              np.array([3.0, 10.0, 60.0]), np.array([60.0, 61.0, 62.0])]
    block = numerics._adaptive_panels(f, ranges, 1e-12, 1e-14, 500)
    for r, got in zip(ranges, block):
        alone = numerics._adaptive_panels(f, [r], 1e-12, 1e-14, 500)[0]
        assert all(np.array_equal(x, y) for x, y in zip(got, alone))
    assert len(block[2][0]) > 2 and len(block[0][0]) == 2


def test_pieces_that_fail_their_first_panel_are_bisected():
    # cos(30 u) spans several periods on each piece, so no piece passes
    # on its first panel: integral of 2 cos(30 u) du over [0, 3].
    f = lambda s: np.cos(30.0 * np.sqrt(s - 1.0)) / np.sqrt(s - 1.0)
    got = integrate_sigma(f, 1.0, 10.0, breaks=(1.5, 3.0, 6.0, 9.0))
    assert got == pytest.approx(math.sin(90.0) / 15.0, rel=1e-11)


def test_a_split_range_has_one_bisection_budget(monkeypatch):
    # cos(100 u) over five u pieces takes 29 bisections in all, fewer than
    # 20 on every piece: a cap of 20 must stop the range as a whole.
    calls = [0]
    panel = numerics._panel

    def counting(*args):
        calls[0] += 1
        return panel(*args)
    monkeypatch.setattr(numerics, "_panel", counting)
    f = lambda s: np.cos(100.0 * np.sqrt(s - 1.0)) / np.sqrt(s - 1.0)
    breaks = (1.2, 1.4, 1.6, 1.8)
    assert integrate_sigma(f, 1.0, 2.0, breaks=breaks) == pytest.approx(
        math.sin(100.0) / 50.0, rel=1e-11)
    calls[0] = 0
    with pytest.raises(AccuracyError):
        integrate_sigma(f, 1.0, 2.0, NumericsConfig(max_iter=20),
                        breaks=breaks)
    assert calls[0] == 2 * 20


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
    dict(max_iter=-1), dict(max_iter=0), dict(max_iter=2.0),
    dict(quad_rel_tol=math.nan), dict(quad_abs_tol=-1e-14),
    dict(root_tol=math.inf),
])
def test_config_rejects_bad_fields(fields):
    with pytest.raises(DomainError):
        NumericsConfig(**fields)


def test_degenerate_interval():
    assert integrate_sigma(lambda s: np.ones_like(s), 2.0, 2.0) == 0.0


# ---------------------------------------------------------------------------
# find_root_monotone

def test_root_sqrt2():
    x = find_root_monotone(lambda x: x * x - 2.0, 1.0, 2.0)
    assert x == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_root_atanh():
    x = find_root_monotone(lambda x: math.tanh(x) - 0.5, 0.0, 2.0)
    assert x == pytest.approx(math.atanh(0.5), abs=1e-12)


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
    # Residuals near 1e-300 underflow the inverse-quadratic denominator
    # to 0; they round to 0 within about 2e-8 of the triple root.
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
    t = numerics._panel_root(y, 1.0, 0.6, 100)
    assert abs(t ** 3 - 0.5 * t + 0.5 - 0.6) < 1e-14


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
    assert DEFAULT_CONFIG.quad_rel_tol == 1e-12
    assert DEFAULT_CONFIG.quad_abs_tol == 1e-14
    assert DEFAULT_CONFIG.root_tol == 1e-12
