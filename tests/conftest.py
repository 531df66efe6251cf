"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lists import (
    blocked_list,
    random_list,
    reversed_list,
    sawtooth_list,
    sequential_list,
)

#: Generators exercised by every layout-parametrized test.
LAYOUTS = {
    "random": lambda n: random_list(n, rng=n),
    "sequential": sequential_list,
    "reversed": reversed_list,
    "sawtooth": sawtooth_list,
    "blocked": lambda n: blocked_list(n, block=max(1, n // 8), rng=n),
}


@pytest.fixture(params=sorted(LAYOUTS))
def layout_name(request):
    """Parametrize over all workload layouts."""
    return request.param


@pytest.fixture
def make_list(layout_name):
    """Factory: n -> LinkedList of the current layout."""
    return LAYOUTS[layout_name]


@pytest.fixture
def rng():
    """Deterministic RNG for tests needing randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_contraction(monkeypatch):
    """Validation constants that contract every level: rulers every 2nd
    address, no Python finish of the lock-step rounds, only a 1-node
    level walked, and ``int64`` step arrays."""
    from repro.lists import validation

    monkeypatch.setattr(validation, "K", 2)
    monkeypatch.setattr(validation, "T", 1)
    monkeypatch.setattr(validation, "SMALL", 1)
    monkeypatch.setattr(validation, "INT32_LEVEL", 0)


@pytest.fixture(params=["default", "tiny"])
def contraction(request):
    """Parametrize over the module's validation constants and
    :func:`tiny_contraction`'s."""
    if request.param == "tiny":
        request.getfixturevalue("tiny_contraction")
    return request.param
