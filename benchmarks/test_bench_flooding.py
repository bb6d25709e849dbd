"""End-to-end flooding benchmarks and design-choice ablations.

Ablations benchmarked (the design decisions called out in DESIGN.md):

* single-hop (paper semantics) vs intra-snapshot multi-hop;
* stationary (perfect simulation) vs uniform cold-start initialization.
"""

import pytest

from repro.simulation.config import standard_config
from repro.simulation.runner import run_flooding

def _run(config):
    result = run_flooding(config)
    assert result.completed
    return result


@pytest.mark.parametrize("multi_hop", [False, True], ids=["single-hop", "multi-hop"])
def test_bench_flooding_hop_semantics(benchmark, multi_hop):
    """Paper semantics vs infinite-bandwidth component flooding."""
    config = standard_config(
        2_000, radius_factor=1.5, speed_fraction=0.25, seed=1, multi_hop=multi_hop,
        max_steps=5_000,
    )
    benchmark.pedantic(_run, args=(config,), rounds=3, iterations=1)


@pytest.mark.parametrize("init", ["stationary", "uniform"], ids=["perfect-sim", "cold-start"])
def test_bench_flooding_initialization(benchmark, init):
    """Perfect simulation vs uniform cold start (includes setup cost)."""
    config = standard_config(
        2_000, radius_factor=1.5, speed_fraction=0.25, seed=1, init=init,
        max_steps=5_000,
    )
    benchmark.pedantic(_run, args=(config,), rounds=3, iterations=1)


def test_bench_flooding_large(benchmark):
    """One larger run (n=8000) — the scaling experiments' unit cost."""
    config = standard_config(
        8_000, radius_factor=1.5, speed_fraction=0.25, seed=1, max_steps=10_000,
    )
    benchmark.pedantic(_run, args=(config,), rounds=1, iterations=1)
