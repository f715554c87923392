# The per-slice panel store: what it costs, and that its values depend on
# their arguments alone.

import ast
import itertools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermirw import (
    DEFAULT_CONFIG,
    Cosmology,
    DomainError,
    NumericsConfig,
    OutOfChartError,
    RWEvent,
    chi_of_sigma,
    fermi_from_rw,
    fermi_speed,
    lambda_k,
    make_exponential,
    make_power_law,
    metric_cartesian,
    proper_radius,
    rho_of_sigma,
    sigma_infinity,
    sigma_of_chi,
    sigma_of_rho,
)
from fermirw import closed_forms, geodesics, metric, numerics
from fermirw.geodesics import lapse_bracket, slice_end
from fermirw.verify import _tabulated_matterlike

MILNE = Cosmology(make_power_law(1.0), k=-1, name="milne")
RADIATION = Cosmology(make_power_law(0.5), k=0, name="radiation")
MATTER = Cosmology(make_power_law(2.0 / 3.0), k=0, name="matter")
DESITTER = Cosmology(make_exponential(1.0), k=0, name="de-sitter")
TABLE = _tabulated_matterlike()
MODELS = {"milne": MILNE, "radiation": RADIATION, "matter": MATTER,
          "de-sitter": DESITTER, "table": TABLE}


def _fresh(cosmo):
    """An equal model under a new b_dot callable: a new store cache key."""
    b_dot = cosmo.model.b_dot
    return Cosmology(replace(cosmo.model, b_dot=lambda x: b_dot(x)),
                     k=cosmo.k)


# ---------------------------------------------------------------------------
# cost


@pytest.mark.parametrize("name", ["matter", "de-sitter", "table"])
def test_fermi_from_rw_builds_one_store(monkeypatch, passes, name):
    # Each pass of the search reads its slice's store, and the search
    # returns a slice it has read: one store per pass, the last at the
    # returned tau.  Matter and de Sitter start at the root and stop after
    # one pass; the table takes two.
    cosmo, cfg = MODELS[name], DEFAULT_CONFIG
    cosmo = _fresh(cosmo)
    built = []

    class Counted(geodesics.Slice):
        def __init__(self, *args):
            built.append(args[1])
            super().__init__(*args)
    monkeypatch.setattr(geodesics, "Slice", Counted)
    fe = fermi_from_rw(cosmo, RWEvent(1.0, 0.05), cfg)
    assert len(built) == len(passes) == (2 if name == "table" else 1)
    assert built[-1] == fe.tau


def test_fermi_from_rw_panels_per_event(count_panels):
    # The search in u = sqrt(sigma - 1) takes Newton steps, each pass
    # reading chi and its slope's lapse integral from its slice's store:
    # 29.8 G7/K15 panels per event here.  A direct pass per iterate, with
    # the lapse summed over chi's panels, and then the store of the
    # returned slice took 25.5; one Newton step from a separate lapse
    # integral, then secant steps, 36.3, and the search over tau by
    # bracket doubling and Brent's method 82.9.
    counts = []
    for name in ("milne", "radiation", "matter", "de-sitter", "table"):
        cosmo, cfg = MODELS[name], DEFAULT_CONFIG
        for t in (0.6, 1.7):
            for frac in (0.05, 0.3, 0.8):
                chi = (frac * math.exp(-t) if name == "de-sitter"
                       else 1.5 * frac)
                event = RWEvent(t, chi)
                counts.append(count_panels(
                    lambda: fermi_from_rw(_fresh(cosmo), event, cfg)))
    assert sum(counts) / len(counts) <= 31.0


def test_a_cold_head_is_summed_once(work, count_panels):
    # Cold rho, chi and lapse reads at sigma = 10 build the head, pieces 0
    # to 2, in one block: one first pass of four panels per piece, each
    # accepted without a bisection, one kernel call and one running-total
    # pass, which the radial track takes over as it stands.  The reads
    # evaluate no panel of their own.  Built piece by piece, the head
    # took three first passes, kernel calls and running-total passes, and
    # summed once per track, six.
    cosmo = _fresh(MATTER)
    assert count_panels(lambda: (
        rho_of_sigma(cosmo, 1.0, 10.0), chi_of_sigma(cosmo, 1.0, 10.0),
        lapse_bracket(cosmo, 1.0, 10.0))) == 4 * 3
    assert work == {"first_passes": 1, "kernel_calls": 1, "sums": 1}
    tracks = geodesics.store(cosmo, 1.0).tracks
    assert len(tracks[True].cums) == 1 + geodesics._SHARED_PIECES
    assert all(r is m for r, m in zip(tracks[True].cums, tracks[False].cums))


@pytest.mark.parametrize("sigma,pieces", [(1.5, 1), (5.0, 2), (10.0, 3)])
def test_a_cold_read_builds_only_what_it_reaches(work, sigma, pieces):
    # The head pieces up to the one that holds sigma, in one first pass:
    # piece 0 alone below sigma = 2, pieces 0-1 to sigma = 8, 0-2 beyond.
    # A fixed three-piece head block took cold chi and lapse reads at
    # u = 0.5 from about 100 to 140 us.
    cosmo = _fresh(MATTER)
    chi_of_sigma(cosmo, 1.0, sigma)
    assert len(geodesics.store(cosmo, 1.0).tracks[False].pieces) == pieces
    assert work == {"first_passes": 1, "kernel_calls": 1, "sums": 1}


def test_a_cold_radius_builds_the_head_in_one_pass(work):
    # The whole head in one block, then the radial tail in another.
    cosmo = _fresh(MATTER)
    proper_radius(cosmo, 1.0)
    tracks = geodesics.store(cosmo, 1.0).tracks
    assert len(tracks[False].pieces) == 1 + geodesics._SHARED_PIECES
    assert len(tracks[True].pieces) == 2 + geodesics._SHARED_PIECES
    assert work == {"first_passes": 2, "kernel_calls": 2, "sums": 2}


def test_a_deep_walk_sums_once_per_block(work):
    # A cold read at 0.999 of the tau = 20 de Sitter slice walks 30
    # pieces in 6 blocks (the head, pieces 3 and 4 alone, then 5-8, 9-16
    # and 17-29): one first pass, kernel call and running-total pass per
    # block.  Built piece by piece, the head took two more of each, and
    # the totals took one pass per piece.
    cosmo = _fresh(DESITTER)
    chi_of_sigma(cosmo, 20.0, 0.999 * slice_end(cosmo, 20.0))
    assert work == {"first_passes": 6, "kernel_calls": 6, "sums": 6}
    assert len(geodesics.store(cosmo, 20.0).tracks[False].pieces) == 30


def test_a_chi_past_the_reach_builds_the_whole_track(work):
    # An unbounded slice's track ends with piece 512, whose end sigma
    # overflows: a cold inversion past matter's reach builds all 513
    # pieces, in the blocks of _block (pieces 0, 1, 2, 3 and 4 one by one,
    # then 5-8 up to 257-512), and raises.
    cosmo = _fresh(MATTER)
    with pytest.raises(DomainError, match="beyond the comoving reach"):
        sigma_of_chi(cosmo, 1.0, 1e6)
    track = geodesics.store(cosmo, 1.0).tracks[False]
    assert len(track.pieces) == 513 and track.done
    assert track.ends[-2] < math.inf == track.ends[-1]
    assert work["first_passes"] == work["sums"] == 12


class _CountedList(list):
    """A list that counts its item reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_a_repeat_past_the_reach_reads_one_total():
    # Once the track is done, a chi past its total is decided by the last
    # piece's total: a repeat reads it twice (the test and the message),
    # where walking the pieces read all 513 pieces' totals.  It raises as
    # the cold call did.
    cosmo = _fresh(MATTER)
    with pytest.raises(DomainError, match="beyond the comoving reach") as cold:
        sigma_of_chi(cosmo, 1.0, 1e6)
    track = geodesics.store(cosmo, 1.0).tracks[False]
    track.cums = _CountedList(track.cums)
    with pytest.raises(DomainError) as again:
        sigma_of_chi(cosmo, 1.0, 1e6)
    assert str(again.value) == str(cold.value)
    assert track.cums.reads == 2
    # A chi below the total still walks to the piece that holds it.
    reach = 3.0 * closed_forms.GAMMA_RATIO_SUP
    assert chi_of_sigma(cosmo, 1.0, sigma_of_chi(cosmo, 1.0, 0.5 * reach)) \
        == pytest.approx(0.5 * reach, rel=1e-12)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_knotless_start_nodes_equal_linspace(name):
    # Slice._nodes scales fixed fractions of a piece in place of calling
    # linspace; a power-of-two step makes them equal bit for bit.
    cosmo, tau = MODELS[name], 20.0 if name == "de-sitter" else 1.0
    st = geodesics.Slice(cosmo, tau, DEFAULT_CONFIG)
    checked = 0
    # Every piece of the main track, to its end: 513 pieces on an
    # unbounded slice.
    for k in itertools.count():
        if k and st._nodes(k - 1, False)[1]:
            break
        for tail in (False, True):
            nodes, _, _ = st._nodes(k, tail)
            lo, hi = float(nodes[0]), float(nodes[-1])
            ends = ((1.0 + lo * lo, 1.0 + hi * hi) if k == 0 else
                    (1.0 / (lo * lo), 1.0 / (hi * hi) if hi else math.inf))
            if numerics._clean_breaks(st.knots, *ends).size:
                continue
            want = (np.linspace(lo, hi, 5) if hi else
                    np.append(lo * 2.0 ** (-0.5 * np.arange(15)), 0.0))
            assert nodes.tobytes() == want.tobytes(), (k, tail)
            checked += 1
    assert checked


def test_fermi_speed_evaluates_b_ddot_once_per_node():
    # One pass over the stored b'' panels, as for the lapse; three passes
    # over the same nodes took twice as many.
    chi0 = chi_of_sigma(TABLE, 1.0, 16.0)
    sigma0 = sigma_of_chi(TABLE, 1.0, chi0)

    def points(call):
        count = [0]
        b_ddot = TABLE.model.b_ddot

        def counting(x):
            count[0] += getattr(x, "size", 1)
            return b_ddot(x)
        call(Cosmology(replace(TABLE.model, b_ddot=counting), k=0))
        return count[0]

    speed = points(lambda c: fermi_speed(c, 1.0, chi0))
    lapse = points(lambda c: lapse_bracket(c, 1.0, sigma0))
    assert 0 < speed <= lapse


def test_metric_cartesian_inverts_sigma_of_rho_once(monkeypatch):
    calls = []
    inverse = metric._u_of

    def counting(cosmo, tau, quantity, target, cfg):
        calls.append(quantity)
        return inverse(cosmo, tau, quantity, target, cfg)
    monkeypatch.setattr(metric, "_u_of", counting)
    metric_cartesian(MATTER, 1.3, 0.3, 0.2, -0.4)
    assert calls == ["rho"]


# ---------------------------------------------------------------------------
# the store's boundary: quantities by name, integrals private to geodesics


@pytest.mark.parametrize("name", sorted(MODELS))
def test_named_reads_equal_the_integrals_they_scale(name):
    # chi, rho and the speed are the store integrals with their 1/2 or
    # a(tau)/2 prefactors, to the last bit; fermi_speed is a'(tau) times
    # the speed read.
    cosmo, tau = MODELS[name], 1.0
    u_top = math.sqrt(min(1e4, slice_end(cosmo, tau)) - 1.0)
    for frac in (1e-9, 0.01, 0.3, 0.7, 0.99):
        st = geodesics.Slice(cosmo, tau, DEFAULT_CONFIG)
        u, a0 = frac * u_top, st.a0
        sigma0 = 1.0 + u * u
        i1 = st.integral({geodesics._RHO: 1.0}, u)
        rest = st.integral(
            {geodesics._I2: a0, geodesics._LAPSE: -a0 / sigma0}, u)
        assert repr(st.chi(u)) == repr(
            0.5 * st.integral({geodesics._CHI: 1.0}, u))
        assert repr(st.rho(u)) == repr(0.5 * a0 * i1)
        assert repr(st.speed(u)) == repr(0.5 * (i1 + rest))
        chi0 = st.chi(u)
        rep = fermi_speed(cosmo, tau, chi0)
        u0 = geodesics._u_of(cosmo, tau, "chi0", chi0, None)
        st = geodesics.store(cosmo, tau)
        i1 = st.integral({geodesics._RHO: 1.0}, u0)
        rest = st.integral({geodesics._I2: a0,
                            geodesics._LAPSE: -a0 / rep.sigma0}, u0)
        adot = float(cosmo.model.a_dot(tau))
        assert repr(rep.v_fermi) == repr(0.5 * adot * (i1 + rest))
        assert repr(rep.rho) == repr(0.5 * a0 * i1)


def test_only_geodesics_names_the_store_integrals():
    # chart, kinematics, metric and the rest read chi, rho, the speed and
    # the lapse bracket by name; the integrals and their prefactors stay
    # inside geodesics, and no other module reads Slice.integral.
    private = {"_CHI", "_RHO", "_LAPSE", "_I2", "integral"}
    for path in Path(geodesics.__file__).parent.glob("*.py"):
        if path.name == "geodesics.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = ({a.name for a in node.names}
                     if isinstance(node, ast.ImportFrom) else
                     {node.attr} if isinstance(node, ast.Attribute) else
                     {node.id} if isinstance(node, ast.Name) else set())
            assert not names & private, (path.name, node.lineno)


# ---------------------------------------------------------------------------
# values agree with direct integration and do not depend on query history


def _queries(cosmo, cfg, tau, fracs):
    """(label, thunk) pairs: every store read at the given fractions of
    the slice's u range (up to sigma = 16)."""
    u_top = math.sqrt(min(16.0, slice_end(cosmo, tau)) - 1.0)
    out = [("radius", lambda: proper_radius(cosmo, tau, cfg))]
    for f in fracs:
        s = 1.0 + (f * u_top) ** 2
        out += [(f"chi {s!r}", lambda s=s: chi_of_sigma(cosmo, tau, s, cfg)),
                (f"rho {s!r}", lambda s=s: rho_of_sigma(cosmo, tau, s, cfg)),
                (f"lapse {s!r}",
                 lambda s=s: lapse_bracket(cosmo, tau, s, cfg))]
    return out


@given(st.sampled_from(sorted(MODELS)), st.floats(0.5, 2.0),
       st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_store_reads_match_direct_integrals(direct_integral, name, tau,
                                            fracs):
    cosmo, cfg = MODELS[name], DEFAULT_CONFIG
    a0 = float(cosmo.model.a(tau))
    u_top = math.sqrt(min(16.0, slice_end(cosmo, tau)) - 1.0)

    def direct(sigma, comp):
        return direct_integral(cosmo, tau, math.sqrt(sigma - 1.0), comp, cfg)

    def close(got, want):
        assert abs(got - want) <= cfg.quad_rel_tol * abs(want)

    for f in fracs:
        s = 1.0 + (f * u_top) ** 2
        chi = chi_of_sigma(cosmo, tau, s, cfg)
        rho = rho_of_sigma(cosmo, tau, s, cfg)
        close(chi, 0.5 * direct(s, geodesics._CHI))
        close(rho, 0.5 * a0 * direct(s, geodesics._RHO))
        close(geodesics.store(cosmo, tau, cfg).integral(
            {geodesics._LAPSE: 1.0, geodesics._I2: 1.0}, math.sqrt(s - 1.0)),
            direct(s, geodesics._LAPSE) + direct(s, geodesics._I2))
        # The inverses land where the direct maps give back the target.
        close(0.5 * a0 * direct(sigma_of_rho(cosmo, tau, rho, cfg),
                                geodesics._RHO), rho)
        close(0.5 * direct(sigma_of_chi(cosmo, tau, chi, cfg),
                           geodesics._CHI), chi)
    close(proper_radius(cosmo, tau, cfg),
          0.5 * a0 * direct(slice_end(cosmo, tau), geodesics._RHO))


# de Sitter's slice at tau = 5 reaches sigma = 2.2e4.
_ACCURACY_TAU = {"milne": 1.0, "radiation": 1.0, "matter": 1.0,
                 "de-sitter": 5.0, "table": 1.0}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_partial_panel_reads_meet_every_tolerance(direct_integral, name):
    # Reads over partial panels from the stored node values, against
    # direct integrals at 1e-15, from u = 1e-9 out to sigma = 1e4 or near
    # the end of a finite slice.  With pieces started from two panels
    # instead of four, analytic reads stayed near 2.4e-13 relative at
    # every tol, 24 times the budget at 1e-14.
    cosmo, tau = MODELS[name], _ACCURACY_TAU[name]
    a0, end = float(cosmo.model.a(tau)), slice_end(cosmo, tau)
    us = np.geomspace(1e-9, 1.0, 19).tolist() + [
        math.sqrt(s - 1.0) for s in (2.5, 4.0, 9.0, 16.0, 33.0, 100.0, 1e3,
                                     1e4, 0.999 * end) if s < end]
    comps = (geodesics._CHI, geodesics._RHO, geodesics._LAPSE)
    ref = NumericsConfig(1e-15)
    want = {c: [direct_integral(cosmo, tau, u, c, ref) for u in us]
            for c in comps}
    for tol in (1e-6, 1e-8, 1e-10, 1e-12, 1e-14):
        st = geodesics.Slice(cosmo, tau, NumericsConfig(tol))
        for c in comps:
            for u, w in zip(us, want[c]):
                got = st.integral({c: 1.0}, u)
                assert abs(got - w) <= tol * abs(w), (tol, c, u)
        # An inversion lands where the read gives its target back.
        for c, scale in ((geodesics._CHI, 0.5), (geodesics._RHO, 0.5 * a0)):
            for u in us:
                f = scale * st.integral({c: 1.0}, u)
                back = scale * st.integral({c: 1.0}, st.invert(c, f))
                assert abs(back - f) <= 4.0 * numerics._EPS * f, (tol, c, u)


@given(st.sampled_from(sorted(MODELS)), st.floats(0.5, 2.0),
       st.lists(st.floats(0.05, 0.95), min_size=2, max_size=4))
@settings(max_examples=25, deadline=None)
def test_store_values_do_not_depend_on_query_order(name, tau, fracs):
    cosmo, cfg = MODELS[name], DEFAULT_CONFIG
    reads = _queries(cosmo, cfg, tau, fracs)
    values = {}
    for order in (reads, reads[::-1]):
        geodesics._cached_store.cache_clear()
        got = {}
        for label, call in order:
            got[label] = repr(call())
        # Inversions of every value read, each after the reads above.
        for label in list(got):
            kind, value = label.split(" ")[0], float(got[label])
            if kind == "rho":
                got["sigma_of_rho " + label] = repr(
                    sigma_of_rho(cosmo, tau, value, cfg))
            elif kind == "chi":
                got["sigma_of_chi " + label] = repr(
                    sigma_of_chi(cosmo, tau, value, cfg))
        values[len(values)] = got
    assert values[0] == values[1]


@pytest.mark.parametrize("tau", [50.0, 300.0])
def test_late_de_sitter_slice_reads_cold(tau):
    # A finite slice holds about 1.44 h0 tau dyadic store pieces, far past
    # the growth cap of an unbounded one.  Cold reads deep in it follow
    # chi = sqrt(sigma - 1) exp(-tau) and rho = arccos(sigma^-1/2), and a
    # chi past its reach (1 at this h0) is a DomainError, cold or warm.
    for chi0 in (3e-4, 0.5):
        want = 1.0 + (chi0 * math.exp(tau)) ** 2
        assert sigma_of_chi(_fresh(DESITTER), tau, chi0) == pytest.approx(
            want, rel=1e-10)
        report = fermi_speed(_fresh(DESITTER), tau, chi0)
        assert report.sigma0 == pytest.approx(want, rel=1e-10)
        assert report.rho == pytest.approx(math.acos(want ** -0.5),
                                           rel=1e-12)
        assert abs(report.v_fermi - math.sqrt(want - 1.0) / want) < 1e-12
    sigma = 0.999 * slice_end(DESITTER, tau)
    cosmo = _fresh(DESITTER)
    assert chi_of_sigma(cosmo, tau, sigma) == pytest.approx(
        math.sqrt(sigma - 1.0) * math.exp(-tau), rel=1e-10)
    # The same blocks of pieces, whether a walk or one read built them.
    assert repr(sigma_of_chi(cosmo, tau, 0.5)) == repr(
        sigma_of_chi(_fresh(DESITTER), tau, 0.5))
    for fresh in (_fresh(DESITTER), cosmo):
        with pytest.raises(DomainError, match="beyond the comoving reach"):
            sigma_of_chi(fresh, tau, 2.0)
        with pytest.raises(DomainError, match="beyond the comoving reach"):
            fermi_speed(fresh, tau, 2.0)


@pytest.mark.parametrize("name, tau", [("matter", 1.0), ("table", 2.0)])
def test_rho_across_the_end_of_the_head(direct_integral, name, tau):
    # Near sigma = 32 the radial track passes from the head, summed on
    # the main track, to its own tail, whose totals start from the head's.
    # rho and its inverse there match the direct integrals, read in either
    # order.
    cosmo, cfg = MODELS[name], DEFAULT_CONFIG
    a0 = float(cosmo.model.a(tau))
    geodesics._cached_store.cache_clear()
    rho_of_sigma(cosmo, tau, 16.0, cfg)
    end = geodesics.store(cosmo, tau, cfg).tracks[True].ends[-1]
    assert end == pytest.approx(32.0, rel=1e-15)
    sigmas = [end * (1.0 - 1e-9), math.nextafter(end, 0.0), end,
              math.nextafter(end, math.inf), 32.0, end * (1.0 + 1e-9)]

    def direct(sigma):
        return 0.5 * a0 * direct_integral(cosmo, tau, math.sqrt(sigma - 1.0),
                                          geodesics._RHO, cfg)

    def close(got, want):
        assert abs(got - want) <= cfg.quad_rel_tol * abs(want)

    runs = []
    for order in (sigmas, sigmas[::-1]):
        geodesics._cached_store.cache_clear()
        got = {}
        for sigma in order:
            rho = rho_of_sigma(cosmo, tau, sigma, cfg)
            close(rho, direct(sigma))
            back = sigma_of_rho(cosmo, tau, rho, cfg)
            close(direct(back), rho)
            got[sigma] = repr(rho), repr(back)
        runs.append(got)
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# the slice radius is computed only for a target beyond the built pieces


@pytest.mark.parametrize("name, tau", [("milne", 2.0), ("de-sitter", 1.0),
                                       ("de-sitter", 3.0)])
def test_sigma_of_rho_at_the_edge_cold_and_warm(name, tau):
    # The radial track of de Sitter at tau = 1 (sigma_infinity = e^2) ends
    # inside the pieces it shares with the main track, at tau = 3 past
    # them; Milne's is unbounded.  A cold inversion, one after
    # proper_radius and one after a read near the top of the slice agree
    # on either side of rho_M.
    cosmo, cfg = MODELS[name], DEFAULT_CONFIG
    rho_m = proper_radius(_fresh(cosmo), tau, cfg)
    top = min(16.0, 0.999 * slice_end(cosmo, tau))

    def fresh(state):
        c = _fresh(cosmo)
        if state == "radius":
            proper_radius(c, tau, cfg)
        elif state == "read":
            rho_of_sigma(c, tau, top, cfg)
        return c
    states = ("cold", "radius", "read")
    for rho in (math.nextafter(rho_m, 0.0), rho_m * (1.0 - 1e-9)):
        assert len({repr(sigma_of_rho(fresh(state), tau, rho, cfg))
                    for state in states}) == 1
    for rho in (rho_m, rho_m * (1.0 + 1e-7)):
        for state in states:
            with pytest.raises(OutOfChartError) as exc:
                sigma_of_rho(fresh(state), tau, rho, cfg)
            assert exc.value.rho_max == rho_m


def test_sigma_of_rho_inside_the_built_pieces_builds_no_tail():
    # After a read at sigma = 16, in the last piece the radial track shares
    # with the main one, an inversion below it needs no radius and so no
    # tail to s = 0; a cold one builds the whole track with the radius.
    cosmo = _fresh(MILNE)
    rho_of_sigma(cosmo, 2.0, 16.0)
    sigma_of_rho(cosmo, 2.0, closed_forms.milne().rho(2.0, 9.0))
    radial = geodesics.store(cosmo, 2.0).tracks[True]
    assert len(radial.pieces) == 1 + geodesics._SHARED_PIECES
    assert not radial.done
    cosmo = _fresh(MILNE)
    sigma_of_rho(cosmo, 2.0, closed_forms.milne().rho(2.0, 9.0))
    assert geodesics.store(cosmo, 2.0).tracks[True].done


# ---------------------------------------------------------------------------
# a slice keeps its last answers: a repeat is free and exact


def _repeats(cosmo, cfg, tau):
    """(label, call of a cosmology) for every read and inversion of the
    slice at sigma = 9, or half way into a finite slice."""
    sigma = min(9.0, 0.5 * (1.0 + slice_end(cosmo, tau)))
    rho = rho_of_sigma(cosmo, tau, sigma, cfg)
    chi = chi_of_sigma(cosmo, tau, sigma, cfg)
    return [
        ("sigma_of_rho", lambda c: sigma_of_rho(c, tau, rho, cfg)),
        ("sigma_of_chi", lambda c: sigma_of_chi(c, tau, chi, cfg)),
        ("chi_of_sigma", lambda c: chi_of_sigma(c, tau, sigma, cfg)),
        ("rho_of_sigma", lambda c: rho_of_sigma(c, tau, sigma, cfg)),
        ("lapse_bracket", lambda c: lapse_bracket(c, tau, sigma, cfg)),
        ("fermi_speed", lambda c: fermi_speed(c, tau, chi, cfg)),
    ]


@pytest.mark.parametrize("name", ["matter", "de-sitter", "table"])
def test_a_repeated_query_is_exact_and_free(monkeypatch, count_panels, name):
    cosmo, cfg = MODELS[name], DEFAULT_CONFIG
    roots = [0]
    panel_root = geodesics._panel_root

    def counting(*args):
        roots[0] += 1
        return panel_root(*args)
    monkeypatch.setattr(geodesics, "_panel_root", counting)
    for label, call in _repeats(cosmo, cfg, 1.0):
        c = _fresh(cosmo)
        cold = repr(call(c))
        roots[0], got = 0, []
        assert count_panels(lambda: got.append(repr(call(c)))) == 0, label
        assert roots[0] == 0, label
        assert got == [cold], label


def test_the_memo_holds_one_entry_per_key():
    # fermi_speed's weights change with every chi0; they are compared,
    # not keyed on, so the memo does not grow with the rows of a slice.
    cosmo = _fresh(MATTER)
    for chi0 in [0.001 * i for i in range(1, 1001)]:
        fermi_speed(cosmo, 1.0, chi0)
    memo = geodesics.store(cosmo, 1.0).last
    assert set(memo) == {geodesics._CHI, (geodesics._RHO,),
                         (geodesics._I2, geodesics._LAPSE)}


@pytest.mark.parametrize("name", ["matter", "de-sitter", "table"])
def test_a_failing_query_raises_again(name):
    # Exceptions are not kept: a repeat of a failing query, before or
    # after a good one on the same slice, fails again.
    cosmo, cfg = MODELS[name], DEFAULT_CONFIG
    c = _fresh(cosmo)
    rho_m = proper_radius(c, 1.0, cfg)
    good = repr(sigma_of_rho(c, 1.0, 0.5 * rho_m, cfg))
    for _ in range(2):
        with pytest.raises(OutOfChartError):
            sigma_of_rho(c, 1.0, rho_m * (1.0 + 1e-7), cfg)
        assert repr(sigma_of_rho(c, 1.0, 0.5 * rho_m, cfg)) == good
    # Past the end of de Sitter's finite slice, or where chi saturates
    # on the unbounded matter slices.
    end = slice_end(c, 1.0)
    beyond = 1e6 if math.isinf(end) else 2.0 * chi_of_sigma(
        c, 1.0, 0.999 * end, cfg)
    for _ in range(2):
        with pytest.raises(DomainError, match="beyond the comoving reach"):
            sigma_of_chi(c, 1.0, beyond, cfg)


# ---------------------------------------------------------------------------
# FermiRWError contract


def test_late_de_sitter_slice_is_out_of_chart():
    # Doubling tau from t = 50 reaches slices whose sigma_infinity
    # overflows; the event is outside the bounded chart.
    with pytest.raises(DomainError):
        sigma_infinity(DESITTER, 400.0)
    with pytest.raises(OutOfChartError):
        fermi_from_rw(DESITTER, RWEvent(50.0, 1.0))


def test_extrapolated_table_event_is_domain_error():
    # At t = 1e10 the table extrapolates a(t) below zero: the model has
    # no expanding slice to map the event onto.
    with pytest.raises(DomainError, match="not expanding"):
        fermi_from_rw(TABLE, RWEvent(1e10, 1e-5))


def test_table_leading_order_near_the_observer():
    # The matter closed form rho = a(t) chi, to the table's accuracy.
    ev = fermi_from_rw(TABLE, RWEvent(1.0, 1e-9))
    assert ev.rho == pytest.approx(1e-9, rel=1e-8, abs=0.0)
    assert ev.tau == pytest.approx(1.0, rel=1e-8, abs=0.0)


def test_empty_slice_is_domain_error():
    # At tau = 1e-17, a(tau) rounds to a_inf and the slice has no room.
    with pytest.raises(DomainError):
        sigma_of_chi(DESITTER, 1e-17, 1.0)


def test_lambda_near_a_tiny_tau_is_finite():
    # rho_eps = 1e-83 and rho_eps^4 underflows; matter is self-similar,
    # so lambda scales as 1/tau^2.
    assert lambda_k(MATTER, 1e-80, 0.0) == pytest.approx(
        lambda_k(MATTER, 1.0, 0.0) * 1e160, rel=1e-6)
