# Shared fixtures, and the hypothesis profile CI runs with.

import pytest
from hypothesis import settings

from fermirw import numerics

# Derandomized: a failing example found in CI reproduces locally under
# --hypothesis-profile=ci.
settings.register_profile("ci", derandomize=True)


@pytest.fixture
def count_panels(monkeypatch):
    """panels(call): the G7/K15 panels that call() evaluates.

    Counts across both kernels: one per numerics._panel call and one per
    piece of a batched numerics._panels call.
    """
    panel, batch = numerics._panel, numerics._panels
    count = [0]

    def one(*args):
        count[0] += 1
        return panel(*args)

    def many(f, a, b):
        count[0] += len(a)
        return batch(f, a, b)

    monkeypatch.setattr(numerics, "_panel", one)
    monkeypatch.setattr(numerics, "_panels", many)

    def panels(call):
        count[0] = 0
        call()
        return count[0]
    return panels
