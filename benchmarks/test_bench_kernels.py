"""Microbenchmarks of the neighbor-query kernels.

Shares its workload builders with the ``repro bench`` CLI harness
(:mod:`repro.bench`), so the pytest-benchmark view and the JSON
perf-trajectory measure the same thing.  Compare the groups:
``grid_index`` (counting-sort build per round), ``batch_infection_kernel``
(the batch engine's infection test on the numpy tier).
"""

import math

import pytest

from repro.bench import batch_infection_workload, drifting_points
from repro.geometry.grid import GridIndex
from repro.geometry.neighbors import BatchNeighborQuery

N = 5_000
SIDE = math.sqrt(N)
CELL = 2.0


@pytest.fixture(scope="module")
def snapshots():
    return drifting_points(N, SIDE, step=0.15, steps=8, seed=3)


def test_bench_grid_index(benchmark, snapshots):
    """Re-indexing a drifting swarm: one counting-sort build per round."""

    def rebuild():
        index = GridIndex(SIDE, CELL)
        for snapshot in snapshots:
            index.build(snapshot)
        return index

    index = benchmark(rebuild)
    assert index.size == N


def test_bench_batch_infection_kernel(benchmark):
    """The flooding infection test at a mid-flood state (cell cover plus
    the exact shell)."""
    batch, n = 8, 2_000
    side, radius = math.sqrt(n), 2.4
    positions, informed, uninformed = batch_infection_workload(batch, n, side)
    query = BatchNeighborQuery(side, batch)
    hits = benchmark(query.any_within, positions, informed, uninformed, radius)
    assert hits.shape == (batch, n)
