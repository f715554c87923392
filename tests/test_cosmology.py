# Scale-factor families, their inverses, and the tabulated loader.

import json
import math

import numpy as np
import pytest

from fermirw import (
    Cosmology,
    DomainError,
    TableError,
    UnsupportedCurvatureError,
    hubble,
    load_table,
    make_exponential,
    make_power_law,
    make_tabulated,
    sigma_infinity,
)
from fermirw.cosmology import _pchip, sigma_breaks


def _cosmo(model, k=0, name="test"):
    return Cosmology(model, k=k, name=name)


# ---------------------------------------------------------------------------
# power law

def test_power_law_identity_case():
    m = make_power_law(1.0)
    assert m.a(2.0) == pytest.approx(2.0)
    assert m.b(2.0) == pytest.approx(2.0)
    assert m.b_ddot(2.0) == pytest.approx(0.0, abs=1e-15)


def test_power_law_half():
    m = make_power_law(0.5)
    assert m.b(3.0) == pytest.approx(9.0, rel=1e-14)
    assert m.b_dot(3.0) == pytest.approx(6.0, rel=1e-14)
    assert m.b_ddot(3.0) == pytest.approx(2.0, rel=1e-14)


def test_power_law_two_thirds():
    m = make_power_law(2.0 / 3.0)
    assert m.b(4.0) == pytest.approx(8.0, rel=1e-14)
    assert m.b_dot(4.0) == pytest.approx(3.0, rel=1e-14)
    assert m.b_ddot(4.0) == pytest.approx(3.0 / 8.0, rel=1e-14)


def test_power_law_flags():
    m = make_power_law(0.4)
    assert m.a_inf == 0.0
    assert m.global_chart is True
    assert m.a_grid is None


@pytest.mark.parametrize("alpha", [0.0, -0.3, 1.2, math.inf])
def test_power_law_alpha_range(alpha):
    with pytest.raises(DomainError):
        make_power_law(alpha)


# ---------------------------------------------------------------------------
# exponential

def test_exponential_values():
    m = make_exponential(1.0)
    assert m.a(0.0) == pytest.approx(1.0)
    assert m.b(math.e) == pytest.approx(1.0, rel=1e-14)
    assert m.b_dot(math.e) == pytest.approx(1.0 / math.e, rel=1e-14)


def test_exponential_concave_inverse():
    m = make_exponential(2.0)
    assert m.b_ddot(1.0) == pytest.approx(-0.5, rel=1e-14)
    assert m.global_chart is False
    assert m.a_inf == 1.0


def test_exponential_h0_range():
    with pytest.raises(DomainError):
        make_exponential(0.0)
    with pytest.raises(DomainError):
        make_exponential(-1.0)


# ---------------------------------------------------------------------------
# inverse-function identities

@pytest.mark.parametrize("model,label", [
    (make_power_law(1.0), "alpha=1"),
    (make_power_law(0.5), "alpha=1/2"),
    (make_power_law(2.0 / 3.0), "alpha=2/3"),
    (make_power_law(1.0 / 3.0), "alpha=1/3"),
    (make_exponential(1.0), "exp"),
])
def test_inverse_identities_analytic(model, label):
    ts = np.geomspace(0.05, 40.0, 100)
    for t in ts:
        x = model.a(t)
        assert model.b(x) == pytest.approx(t, rel=1e-10), label
        assert model.a(model.b(x)) == pytest.approx(x, rel=1e-10), label
        assert model.b_dot(x) * model.a_dot(t) == pytest.approx(
            1.0, rel=1e-10), label


def test_inverse_identities_tabulated():
    # The derivative identity needs a denser table than the value
    # identity: interpolant derivatives converge one order slower.
    ts = np.geomspace(0.1, 10.0, 128)
    m = make_tabulated(list(zip(ts, ts ** 0.5)))
    for t in np.geomspace(0.15, 9.0, 100):
        assert m.b(m.a(t)) == pytest.approx(t, rel=1e-4)
        assert m.b_dot(m.a(t)) * m.a_dot(t) == pytest.approx(1.0, rel=1e-4)


# ---------------------------------------------------------------------------
# tabulated

def test_tabulated_linear_interpolation():
    ts = np.geomspace(0.1, 10.0, 64)
    m = make_tabulated(list(zip(ts, ts)))
    assert m.a(2.0) == pytest.approx(2.0, abs=1e-6)


def test_tabulated_sqrt_inverse():
    ts = np.geomspace(0.1, 10.0, 64)
    m = make_tabulated(list(zip(ts, ts ** 0.5)))
    assert m.b(3.0) == pytest.approx(9.0, abs=1e-4)


def test_tabulated_too_few_samples():
    with pytest.raises(TableError):
        make_tabulated([(1.0, 1.0), (2.0, 1.5), (3.0, 1.9)])


def test_tabulated_nonmonotone_names_index():
    rows = [(1.0, 1.0), (2.0, 1.5), (3.0, 1.4), (4.0, 2.0)]
    with pytest.raises(TableError, match="index 2"):
        make_tabulated(rows)
    rows = [(1.0, 1.0), (2.0, 1.5), (1.5, 1.8), (4.0, 2.0)]
    with pytest.raises(TableError, match="index 2"):
        make_tabulated(rows)
    # Malformed rows given directly, not through load_table.
    for bad in [(3.0, "x"), (3.0, None), (3.0,)]:
        rows = [(1.0, 1.0), (2.0, 1.5), bad, (4.0, 2.0)]
        with pytest.raises(TableError, match="index 2"):
            make_tabulated(rows)


def test_tabulated_records_grid():
    ts = np.geomspace(0.1, 10.0, 16)
    m = make_tabulated(list(zip(ts, ts ** 0.5)))
    assert m.a_grid is not None
    assert len(m.a_grid) == 16
    assert all(x < y for x, y in zip(m.a_grid, m.a_grid[1:]))


def test_tabulated_matterlike_is_global():
    ts = np.geomspace(0.05, 100.0, 400)
    m = make_tabulated(list(zip(ts, ts ** (2.0 / 3.0))))
    assert m.global_chart is True


# ---------------------------------------------------------------------------
# the PCHIP interpolant against scipy's

def _matterlike(n):
    ts = np.geomspace(0.05, 100.0, n)
    return ts, ts ** (2.0 / 3.0)


# (x, y) of each interpolant: the a and b curves of the 800- and 60-knot
# tables, and a short curve with a flat piece and a turn, where slopes
# are zero and the end rule clips.
PCHIP_CASES = {
    "a-800": _matterlike(800),
    "b-800": _matterlike(800)[::-1],
    "a-60": _matterlike(60),
    "b-60": _matterlike(60)[::-1],
    "flat": (np.array([0.1, 0.5, 1.0, 2.0, 3.0]),
             np.array([0.0, 1.0, 1.0, 2.0, 1.5])),
    # The end rule's clamps: the left slope changes sign and becomes 0,
    # the right one exceeds 3 times its secant next to a turn.
    "clamps": (np.array([0.0, 1.0, 2.0, 3.0, 4.0]),
               np.array([0.0, 0.1, 2.0, 7.0, 6.0])),
}


def _pchip_points(x):
    """Random points across the knots and beyond both ends, each knot,
    its neighbouring floats and t = 0."""
    span = x[-1] - x[0]
    rng = np.random.default_rng(7)
    return np.concatenate([
        rng.uniform(x[0] - 0.3 * span, x[-1] + 0.3 * span, 5000), x,
        np.nextafter(x, -np.inf), np.nextafter(x, np.inf), [0.0]])


def _pchip_pairs(case):
    """(ours, scipy's) for the interpolant, its first and second
    derivatives."""
    interpolate = pytest.importorskip("scipy.interpolate")
    x, y = PCHIP_CASES[case]
    ref = interpolate.PchipInterpolator(x, y, extrapolate=True)
    ours = _pchip(x, y)
    return [(ours, ref), (ours.derivative(), ref.derivative(1)),
            (ours.derivative().derivative(), ref.derivative(2))]


@pytest.mark.parametrize("case", PCHIP_CASES)
def test_pchip_matches_scipy(case):
    # 1e-14 relative to each curve's scale, so that a scipy release that
    # reorders its arithmetic still passes.
    t = _pchip_points(PCHIP_CASES[case][0])
    for order, (ours, ref) in enumerate(_pchip_pairs(case)):
        want = ref(t)
        np.testing.assert_allclose(
            ours(t), want, rtol=1e-14, atol=1e-14 * np.max(np.abs(want)),
            err_msg=f"derivative {order}")


@pytest.mark.parametrize("case", PCHIP_CASES)
def test_pchip_bit_identical_to_scipy(case):
    import scipy
    t = _pchip_points(PCHIP_CASES[case][0])
    for order, (ours, ref) in enumerate(_pchip_pairs(case)):
        if not np.array_equal(ours(t), ref(t)):
            pytest.skip(f"scipy {scipy.__version__} rounds derivative "
                        f"{order} differently; test_pchip_matches_scipy "
                        f"still bounds the difference")


@pytest.mark.parametrize("case", PCHIP_CASES)
def test_pchip_scalar_path_is_the_array_path(case):
    x, y = PCHIP_CASES[case]
    t = _pchip_points(x)
    p = _pchip(x, y)
    for f in (p, p.derivative(), p.derivative().derivative()):
        scalars = [f(float(v)) for v in t]
        assert all(type(v) is float for v in scalars)
        assert np.array_equal(scalars, f(t))
        # np.float64 and int arguments take the scalar path too.
        assert type(f(t[0])) is float and f(1) == f(1.0)


def test_pchip_is_exact_at_the_knots():
    x, y = PCHIP_CASES["b-800"]
    p = _pchip(x, y)
    assert np.array_equal(p(x[:-1]), y[:-1])
    assert [p(v) for v in x[:-1].tolist()] == y[:-1].tolist()


def test_tabulated_derivatives_frozen():
    # Values of scipy 1.17.1's PchipInterpolator model of this table,
    # inside it and extrapolated below (a = 0.1) and above (a = 25).
    ts, avals = _matterlike(800)
    m = make_tabulated(list(zip(ts, avals)))
    assert repr(m.b_dot(0.1)) == "0.48253939319683997"
    assert repr(m.b_dot(1.3)) == "1.7102634276534012"
    assert repr(m.b_dot(25.0)) == "7.53407683030385"
    assert repr(m.b_ddot(0.1)) == "1.8947546685085355"
    assert repr(m.b_ddot(1.3)) == "0.6582575409636658"
    assert repr(m.b_ddot(25.0)) == "0.16868041821061894"
    assert repr(m.a_dot(2.0)) == "0.5291337071779321"


# ---------------------------------------------------------------------------
# hubble / sigma_infinity

def test_hubble_power_law():
    c = _cosmo(make_power_law(2.0 / 3.0))
    assert hubble(c, 3.0) == pytest.approx(2.0 / 9.0, rel=1e-12)
    assert hubble(c, 0.25) == pytest.approx(8.0 / 3.0, rel=1e-12)


def test_hubble_exponential_is_constant():
    c = _cosmo(make_exponential(0.7))
    for tau in (0.3, 1.0, 5.0):
        assert hubble(c, tau) == pytest.approx(0.7, rel=1e-12)


def test_hubble_tabulated_matterlike():
    ts = np.geomspace(0.05, 100.0, 400)
    c = _cosmo(make_tabulated(list(zip(ts, ts ** (2.0 / 3.0)))),
               name="tabulated")
    assert hubble(c, 3.0) == pytest.approx(2.0 / 9.0, abs=1e-4)


def test_closed_curvature_unsupported():
    with pytest.raises(UnsupportedCurvatureError, match="k=1"):
        _cosmo(make_power_law(0.5), k=1)


def test_hubble_domain():
    c = _cosmo(make_power_law(1.0))
    with pytest.raises(DomainError):
        hubble(c, 0.0)
    with pytest.raises(DomainError):
        hubble(c, -1.0)


def test_sigma_infinity_power_law():
    c = _cosmo(make_power_law(0.5))
    assert sigma_infinity(c, 1.0) == math.inf
    assert sigma_infinity(c, 7.0) == math.inf


def test_sigma_infinity_exponential():
    c = _cosmo(make_exponential(1.0))
    assert sigma_infinity(c, 1.0) == pytest.approx(math.e ** 2, rel=1e-12)
    assert sigma_infinity(c, 0.5) == pytest.approx(math.e, rel=1e-12)


# ---------------------------------------------------------------------------
# loader

def test_load_table_csv(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("t,a\n1.0,1.0\n2.0,1.5\n3.0,1.9\n4.0,2.2\n")
    rows = load_table(p)
    assert rows == [(1.0, 1.0), (2.0, 1.5), (3.0, 1.9), (4.0, 2.2)]


def test_load_table_json(tmp_path):
    p = tmp_path / "t.json"
    p.write_text(json.dumps([[1.0, 1.0], [2.0, 1.5], [3.0, 1.9],
                             [4.0, 2.2]]))
    rows = load_table(p)
    assert rows[2] == (3.0, 1.9)


def test_load_table_bad_header(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("time,scale\n1,1\n")
    with pytest.raises(TableError):
        load_table(p)


def test_load_table_bad_json(tmp_path):
    p = tmp_path / "t.json"
    p.write_text("{\"not\": \"an array\"}")
    with pytest.raises(TableError):
        load_table(p)


@pytest.mark.parametrize("entry", [["a", 1], [1, None], [1, 2, 3], 5])
def test_load_table_json_entry_not_numbers(tmp_path, entry):
    p = tmp_path / "t.json"
    p.write_text(json.dumps([[1.0, 1.0], [2.0, 1.5], entry, [4.0, 2.2]]))
    with pytest.raises(TableError, match="entry 2"):
        load_table(p)


# JSON NaN and 1e400 (read as inf) and CSV nan load as floats; the model
# rejects them, an inf in the last row included, which no later sample is
# compared with.  The loader rejects malformed files itself and skips a
# blank CSV line, which then takes no sample index; the model rejects a
# first sample at t <= 0 or a <= 0.
@pytest.mark.parametrize("name, text, match", [
    ("t.json", "[[1, 1], [2, 1.5], [NaN, 1.9], [4, 2.2]]",
     "t sample at index 2"),
    ("t.json", "[[1, 1], [2, 1.5], [3, 1.9], [4, 1e400]]",
     "a sample at index 3"),
    ("t.csv", "t,a\n1,1\n2,nan\n3,1.9\n4,2.2\n", "a sample at index 1"),
    ("t.csv", "t,a\n1,1\n2,1.5\n3,1.9\ninf,2.2\n", "t sample at index 3"),
    ("t.json", "[[1, 1], [2, 1.5", "invalid JSON"),
    ("t.csv", "", "empty file"),
    ("t.csv", "t,a\n\n1,1\n2,nan\n3,1.9\n4,2.2\n", "a sample at index 1"),
    ("t.csv", "t,a\n1,1\n2,1.5,0\n", "line 3 does not have two columns"),
    ("t.csv", "t,a\n1,1\n2,x\n", "line 3"),
    ("t.csv", "t,a\n0,1\n2,1.5\n3,1.9\n4,2.2\n", "times must be positive"),
    ("t.csv", "t,a\n1,0\n2,1.5\n3,1.9\n4,2.2\n",
     "scale factor must be positive"),
], ids=["json-nan-t", "json-inf-a", "csv-nan-a", "csv-inf-t", "json-invalid",
        "csv-empty", "csv-blank-line", "csv-three-columns", "csv-not-a-number",
        "t0-zero", "a0-zero"])
def test_tabulated_rejects_non_finite_samples(tmp_path, name, text, match):
    p = tmp_path / name
    p.write_text(text)
    with pytest.raises(TableError, match=match):
        make_tabulated(load_table(p))


# ---------------------------------------------------------------------------
# sigma_breaks

def test_sigma_breaks_analytic_is_none():
    c = _cosmo(make_power_law(0.5))
    assert sigma_breaks(c, 1.0, 100.0) is None


def test_sigma_breaks_tabulated_knots():
    ts = np.geomspace(0.05, 100.0, 50)
    c = _cosmo(make_tabulated(list(zip(ts, ts ** (2.0 / 3.0)))),
               name="tabulated")
    tau = 3.0
    bks = sigma_breaks(c, tau, 50.0)
    assert bks is not None
    a0 = c.model.a(tau)
    for s in bks:
        assert 1.0 < s < 50.0
        # each break is (a0/a_knot)^2 for some tabulated knot
        assert any(abs(s - (a0 / ak) ** 2) < 1e-9 * s
                   for ak in c.model.a_grid)
    assert list(bks) == sorted(bks)


def _breaks_by_scan(cosmo, tau, sigma_hi):
    """The knot-by-knot scan that sigma_breaks' bisection replaced."""
    a0 = float(cosmo.model.a(tau))
    out = []
    for a_k in reversed(cosmo.model.a_grid):
        if a_k >= a0:
            continue
        s = (a0 / a_k) ** 2
        if s >= sigma_hi:
            break
        if s > 1.0 + 1e-12:
            out.append(s)
    return out


def test_sigma_breaks_bisection_matches_the_scan():
    # Same knots; each s = (a0/a_k)^2 may differ by the last bit, since
    # the square is taken in numpy rather than by pow.
    ts = np.geomspace(0.05, 100.0, 800)
    c = _cosmo(make_tabulated(list(zip(ts, ts ** (2.0 / 3.0)))),
               name="tabulated")
    for tau in (0.05, 0.3, 1.0, 7.0, 100.0, 150.0):
        for sigma_hi in (0.5, 1.0, 1.0 + 1e-12, 1.3, 2.0, 16.0, 1e6,
                         math.inf):
            want = _breaks_by_scan(c, tau, sigma_hi)
            got = sigma_breaks(c, tau, sigma_hi)
            assert len(got) == len(want)
            np.testing.assert_allclose(got, want,
                                       rtol=2.0 * np.finfo(float).eps)
