# Shared fixtures (panel, work and search pass counts, and the direct
# slice integral the store is tested against), the hypothesis profile CI
# runs with, and pytest.approx without its absolute floor.

import functools
import math

import numpy as np
import pytest
from hypothesis import settings

from fermirw import chart, geodesics, numerics
from fermirw.cosmology import sigma_breaks

# Derandomized: a failing example found in CI reproduces locally under
# --hypothesis-profile=ci.
settings.register_profile("ci", derandomize=True)

_approx = pytest.approx


# pytest.approx(want, rel=r) also accepts anything within an absolute
# 1e-12, so a want below 1e-12/r would be checked more loosely than it
# reads.  Here a call that gives no abs gets abs=0.0, and a stated rel or
# pytest's own 1e-6: every tolerance is the one written at the call.
@functools.wraps(_approx)
def _approx_without_floor(expected, rel=None, abs=None, nan_ok=False):
    if abs is None:
        abs, rel = 0.0, (1e-6 if rel is None else rel)
    return _approx(expected, rel=rel, abs=abs, nan_ok=nan_ok)


pytest.approx = _approx_without_floor


@pytest.fixture
def count_panels(monkeypatch):
    """panels(call): the G7/K15 panels that call() evaluates, one per
    piece of each numerics._panels call."""
    batch = numerics._panels
    count = [0]

    def many(f, a, b):
        count[0] += len(a)
        return batch(f, a, b)

    monkeypatch.setattr(numerics, "_panels", many)

    def panels(call):
        count[0] = 0
        call()
        return count[0]
    return panels


@pytest.fixture
def work(monkeypatch):
    """Counts, from the fixture on, of first passes
    (numerics._adaptive_panels calls), kernel calls (numerics._panels
    calls) and the store's running-total passes (geodesics._Track.add)."""
    counts = dict.fromkeys(("first_passes", "kernel_calls", "sums"), 0)

    def counted(key, call):
        def count(*args):
            counts[key] += 1
            return call(*args)
        return count

    for owner, name, key in ((numerics, "_adaptive_panels", "first_passes"),
                             (numerics, "_panels", "kernel_calls"),
                             (geodesics._Track, "add", "sums")):
        monkeypatch.setattr(owner, name, counted(key, getattr(owner, name)))
    return counts


@pytest.fixture
def passes(monkeypatch):
    """u = sqrt(sigma - 1) of each pass of fermi_from_rw's slice search,
    in order, recorded on chart._search_pass."""
    us = []
    search_pass = chart._search_pass

    def counted(cosmo, tau, u, cfg):
        us.append(u)
        return search_pass(cosmo, tau, u, cfg)

    monkeypatch.setattr(chart, "_search_pass", counted)
    return us


def _direct_integral(cosmo, tau, u, comp, cfg):
    """The slice integral of comp = (order, power) up to u = sqrt(sigma - 1),
    integrated directly, without the slice store.

    It has the store's integrands (geodesics._integrand), seam and knot
    split: a u range up to the seam at sigma = 2 and an s range beyond
    it, each split at the table knots, from one numerics._adaptive_panels
    call, looked up per call so that a test can swap it.  Each range is
    resolved to cfg.quad_rel_tol relative to its own total and summed
    over its panels in order.
    """
    m = cosmo.model
    a0 = float(m.a(tau))
    sigma = 1.0 + u * u
    knots = numerics._clean_breaks(sigma_breaks(cosmo, tau, sigma, a0), 1.0,
                                   sigma)
    fs = [geodesics._integrand(m, a0, (comp,), True)]
    ranges = [numerics._u_nodes(0.0, knots, min(u, geodesics._U_SEAM))]
    # From s at the seam (1/sqrt(seam) rounds to _S_SEAM) down; an s range
    # that rounds to zero width adds nothing.
    if 1.0 / math.sqrt(sigma) < geodesics._S_SEAM:
        fs.append(geodesics._integrand(m, a0, (comp,), False))
        ranges.append(numerics._s_nodes(sigma, knots,
                                        geodesics._S_SEAM ** -2.0)[::-1])
    return sum(float(np.cumsum(vals[0])[-1]) for _, _, vals, _ in
               numerics._adaptive_panels(fs, ranges, 0.5 * cfg.quad_rel_tol))


@pytest.fixture(scope="session")
def direct_integral():
    """direct_integral(cosmo, tau, u, comp, cfg): the slice integral of
    comp = (order, power) to u, integrated without the store."""
    return _direct_integral
