"""Differential fuzzer: tiny and degenerate configurations on every path.

Each drawn configuration — n of 2, 3 or 30; a radius on the lattice, tiny,
or covering the whole square (R >= L sqrt2); speed 0, 1e-9, moderate, or
above the side; ferry and timetable stops on integer coordinates; every
mobility model and protocol — runs on the scalar and batch engines, on the
numpy and compiled kernel tiers, and on the batch engine with the bucket
grid as candidate search (what a host without scipy uses).  Every run
must reproduce the scalar numpy run trial for trial.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.geometry.neighbors as neighbors
from repro.kernels import kernel_backend
from repro.mobility import MODEL_REGISTRY
from repro.protocols import PROTOCOL_REGISTRY
from repro.simulation import run_trials
from repro.simulation.config import FloodingConfig

SIDE = 10.0
RADII = {"lattice": 1.0, "mid": 2.5, "tiny": 1e-6, "covering": SIDE * math.sqrt(2.0) * 1.01}
SPEEDS = (0.0, 1e-9, 0.7, SIDE * 1.5)
TIERS = ("numpy", "compiled") if kernel_backend() is not None else ("numpy",)


@contextmanager
def grid_candidates():
    """Batch candidate search on the bucket grid, as without scipy."""
    saved = neighbors._KDTREE_PROBE
    neighbors._KDTREE_PROBE = False
    try:
        yield
    finally:
        neighbors._KDTREE_PROBE = saved


@st.composite
def configs(draw, mobility, protocol):
    radius = draw(st.sampled_from(sorted(RADII)))
    options = {}
    if mobility == "ferry":
        options["inset"] = float(draw(st.integers(0, 4)))
    if mobility == "timetable" and draw(st.booleans()):
        x, y, k = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(1, 4))
        options["routes"] = [[[x, y], [x + k, y], [x + k, y + k], [x, y + k]]]
    try:
        return FloodingConfig(
            n=draw(st.sampled_from([2, 3, 30])),
            side=SIDE,
            radius=RADII[radius],
            speed=draw(st.sampled_from(SPEEDS)),
            mobility=mobility,
            mobility_options=options,
            protocol=protocol,
            seed=draw(st.integers(0, 2**16)),
            max_steps=12,
            # Zone tracking at a tiny radius would need ~(L/R)^2 cells.
            track_zones=radius != "tiny",
            engine="scalar",
            kernels="numpy",
        )
    except ValueError:  # the model's own checks reject it (e.g. speed 0 for pause-MRWP)
        assume(False)


def fingerprint(results):
    return [
        (
            r.flooding_time,
            r.completed,
            r.stalled,
            r.n_steps,
            r.source,
            tuple(np.asarray(r.informed_history).tolist()),
            r.cz_completion_time,
            r.suburb_completion_time,
            tuple(sorted(
                (k, v) for k, v in r.extras.items()
                if k not in ("config", "n_agents", "kernel_tier")
            )),
        )
        for r in results
    ]


@pytest.mark.parametrize("protocol", sorted(PROTOCOL_REGISTRY))
@pytest.mark.parametrize("mobility", sorted(MODEL_REGISTRY))
@settings(max_examples=2, derandomize=True, deadline=None)
@given(data=st.data())
def test_every_engine_and_tier_reproduces_the_scalar_reference(mobility, protocol, data):
    config = data.draw(configs(mobility, protocol))
    reference = fingerprint(run_trials(config, 1))
    for engine in ("scalar", "batch"):
        for kernels in TIERS:
            variant = config.with_options(engine=engine, kernels=kernels)
            assert fingerprint(run_trials(variant, 1)) == reference, (engine, kernels)
    with grid_candidates():
        variant = config.with_options(engine="batch")
        assert fingerprint(run_trials(variant, 1)) == reference, "grid candidates"
