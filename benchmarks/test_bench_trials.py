"""Engine benchmark: scalar trial loop vs the batched lock-step engine.

The comparison behind the batch subsystem: ``run_trials`` with the seed's
scalar loop (one :class:`~repro.simulation.engine.Simulation` per trial)
against ``engine="batch"`` (one :class:`~repro.simulation.batch.BatchSimulation`
advancing every trial at once).  Both produce identical results, so the
benchmark measures pure execution-strategy overhead.

The default parameters keep the tier-1 run fast; set ``REPRO_FULL_BENCH=1``
for the full-scale comparison (n=2000, 32 trials — the acceptance workload;
measured ~1.7-1.8x on a single-core container, with the further
batch-per-worker process sharding of ``run_trials_parallel`` multiplying
the win on multi-core hosts).
"""

import os

import pytest

from repro.simulation import run_trials, standard_config

FULL = os.environ.get("REPRO_FULL_BENCH") == "1"
N = 2_000 if FULL else 600
TRIALS = 32 if FULL else 12


@pytest.fixture(scope="module")
def reference_times():
    """Flooding times of the scalar engine, for cross-engine validation."""
    config = standard_config(N, radius_factor=1.0, seed=42, engine="scalar")
    return [r.flooding_time for r in run_trials(config, TRIALS)]


@pytest.mark.parametrize("engine", ["scalar", "batch"])
def test_bench_run_trials(benchmark, reference_times, engine):
    """Multi-trial flooding at the canonical scaling, per engine."""
    config = standard_config(N, radius_factor=1.0, seed=42, engine=engine)
    results = benchmark.pedantic(
        run_trials, args=(config, TRIALS), rounds=3 if FULL else 5, iterations=1
    )
    assert [r.flooding_time for r in results] == reference_times


@pytest.mark.parametrize("engine", ["scalar", "batch"])
def test_bench_run_trials_dense(benchmark, engine):
    """The paper's dense regime (radius_factor=2): short runs, init-bound."""
    config = standard_config(N, radius_factor=2.0, seed=7, engine=engine)
    results = benchmark.pedantic(
        run_trials, args=(config, TRIALS), rounds=3 if FULL else 5, iterations=1
    )
    assert all(r.completed for r in results)
