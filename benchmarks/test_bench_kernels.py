"""Microbenchmarks of the neighbor-query kernels.

Shares its workload builders with the ``repro bench`` CLI harness
(:mod:`repro.bench`), so the pytest-benchmark view and the JSON
perf-trajectory measure the same thing.  Compare the groups:
``grid_index`` (counting-sort build per round), ``batch_infection_kernel``
(cell cover vs the tiled engine).
"""

import math

import pytest

from repro.bench import batch_infection_workload, drifting_points
from repro.geometry.grid import GridIndex
from repro.geometry.neighbors import BatchNeighborQuery, available_backends

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


@pytest.mark.parametrize("strategy", ["cells", "tiled"])
def test_bench_batch_infection_kernel(benchmark, strategy):
    """The flooding infection test at a mid-flood state: cell cover vs the
    tiled engine."""
    batch, n = 8, 2_000
    side, radius = math.sqrt(n), 2.4
    positions, informed, uninformed = batch_infection_workload(batch, n, side)
    if strategy == "tiled":
        strategy = "kdtree" if "kdtree" in available_backends() else "grid"
    query = BatchNeighborQuery(side, batch, backend=strategy)
    hits = benchmark(query.any_within, positions, informed, uninformed, radius)
    assert hits.shape == (batch, n)
