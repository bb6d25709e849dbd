"""Shared fixtures for the test suite."""

import sys

import numpy as np
import pytest


@pytest.fixture
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_square():
    """A convenient side length used across geometry tests."""
    return 10.0


@pytest.fixture
def block_scipy(monkeypatch):
    """Make every ``scipy`` import fail, as on a host without it, and
    forget the neighbour module's cached probe so it looks again."""
    import repro.geometry.neighbors as neighbors

    for name in [m for m in sys.modules if m.split(".")[0] == "scipy"] + ["scipy"]:
        monkeypatch.setitem(sys.modules, name, None)
    monkeypatch.setattr(neighbors, "_KDTREE_PROBE", None)


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running statistical test")
