# Shared fixtures (panel, work and search pass counts), the hypothesis
# profile CI runs with, and pytest.approx without its absolute floor.

import functools

import pytest
from hypothesis import settings

from fermirw import chart, geodesics, numerics

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
