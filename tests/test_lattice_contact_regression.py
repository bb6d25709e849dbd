"""Regression: contacts a few ulps past R on lattice-aligned transit routes.

Ferry and timetable vehicles run on routes whose stops sit on a lattice,
so at R = 1 agents pass at distances such as 1.0000000000000002 — ulps
beyond the radius, hence no contact under the inclusive rule
``dx*dx + dy*dy <= R*R``.  A search that accepted a small slack past R
reported them as contacts on some paths and not on others, and the same
configuration gave flooding time 15 on one path and never finished on
another.  Every engine, kernel tier and spatial index must now give the
exact predicate's answer, with or without scipy.
"""

import math

import pytest

from repro.kernels import kernel_backend
from repro.simulation import run_trials
from repro.simulation.config import FloodingConfig

PATHS = [("scalar", "numpy"), ("batch", "numpy")]
if kernel_backend() is not None:
    PATHS.append(("batch", "compiled"))

#: ``(flooding_time, completed)`` of the three trials under the exact predicate.
EXPECTED = {
    1e-9: [(math.inf, False), (16.0, True), (15.0, True)],
    1e-6: [(math.inf, False)] * 3,
    1e-3: [(math.inf, False)] * 3,
}


def outcomes(mobility, speed, engine, kernels):
    config = FloodingConfig(
        n=30, side=10, radius=1, speed=speed, mobility=mobility, seed=7, max_steps=20,
        engine=engine, kernels=kernels,
    )
    return [(r.flooding_time, r.completed) for r in run_trials(config, 3)]


@pytest.mark.parametrize("speed", sorted(EXPECTED))
@pytest.mark.parametrize("mobility", ["ferry", "timetable"])
class TestLatticeAlignedContacts:
    def test_every_path_gives_the_exact_answer(self, mobility, speed):
        for engine, kernels in PATHS:
            got = outcomes(mobility, speed, engine, kernels)
            assert got == EXPECTED[speed], (engine, kernels)

    def test_every_path_gives_the_exact_answer_without_scipy(self, mobility, speed, block_scipy):
        for engine, kernels in PATHS:
            got = outcomes(mobility, speed, engine, kernels)
            assert got == EXPECTED[speed], (engine, kernels)
