"""Microbenchmarks of the neighbor engines (the simulation's hot path).

The scalar grid engine on the per-step flooding query (``any_within``),
the disk-graph edge query (``pairs_within``) and occupancy counting, plus
the batch engine's per-replica infection test.  Run with
``pytest benchmarks/ --benchmark-only``.
"""

import numpy as np
import pytest

from repro.geometry.neighbors import BatchNeighborQuery, GridNeighborEngine

SIDE = 100.0
RADIUS = 3.0
N = 5_000


@pytest.fixture(scope="module")
def snapshot():
    rng = np.random.default_rng(0)
    positions = rng.uniform(0, SIDE, (N, 2))
    informed = np.zeros(N, dtype=bool)
    informed[rng.choice(N, size=N // 10, replace=False)] = True
    return positions, informed


def test_bench_any_within(benchmark, snapshot):
    """The flooding infection test: informed sources vs uninformed queries."""
    positions, informed = snapshot
    engine = GridNeighborEngine(SIDE)
    sources = positions[informed]
    queries = positions[~informed]
    result = benchmark(engine.any_within, sources, queries, RADIUS)
    assert result.shape == (queries.shape[0],)


def test_bench_pairs_within(benchmark, snapshot):
    """Disk-graph edge enumeration for one snapshot."""
    positions, _ = snapshot
    engine = GridNeighborEngine(SIDE)
    pairs = benchmark(engine.pairs_within, positions, RADIUS)
    assert pairs.shape[1] == 2


def test_bench_count_within(benchmark, snapshot):
    """Occupancy counting (density-condition monitoring)."""
    positions, informed = snapshot
    engine = GridNeighborEngine(SIDE)
    counts = benchmark(engine.count_within, positions[informed], positions[~informed], RADIUS)
    assert counts.shape == (int(np.count_nonzero(~informed)),)


def test_bench_batch_any_within(benchmark):
    """The batch engine's per-replica infection test, one call for B trials."""
    rng = np.random.default_rng(1)
    batch, n, side, radius = 16, 2_000, 44.7, 2.8
    positions = rng.uniform(0, side, size=(batch, n, 2))
    informed = rng.uniform(size=(batch, n)) < 0.3
    query = BatchNeighborQuery(side, batch)
    hits = benchmark(query.any_within, positions, informed, ~informed, radius)
    assert hits.shape == (batch, n)
