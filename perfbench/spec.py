"""What the benchmark measures: workloads, metrics and their bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --all`` writes it); a test keeps the two in sync.
"""

from __future__ import annotations

import json

#: Seconds of timed units per run.
RUN_SECONDS = 20

#: Workload name -> one-line reason it is in the benchmark.
WORKLOADS = {
    "canonical": (
        "n=2000 x32 MRWP flooding at R=sqrt(log n), compiled tier: the reference run, "
        "where per-replica set-up and compiled kernels show"
    ),
    "long-horizon": (
        "n=2000 x32 at R=0.5 sqrt(log n) on the numpy tier: the sparse regime, ~60 steps, "
        "dominated by neighbour queries and mobility steps"
    ),
    "paper-tables": (
        "all 27 experiments at quick scale: the only load on the sweep scheduler, "
        "scalar engine, network connectivity and checkpoint writes"
    ),
}

#: End-to-end metrics: (name, unit, better, bound).  Every workload reports
#: all of them; a unit is one 32-trial batch on the flooding workloads and
#: one pass over the 27 tables on ``paper-tables``.  The time bounds leave
#: room for what host normalization does not take out: ten-seed spreads of
#: 0.02-0.09 on the tuning machine (perfbench/README.md).
END_TO_END = [
    ("unit_s_p50", "s", "lower", 0.24),
    ("items_per_s", "1/s", "higher", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

_TIMES = [
    "mobility.init_s", "mobility.step_s",
    "geometry.bind_s", "geometry.any_within_s",
    "protocols.init_s", "protocols.step_s", "protocols.self_s",
    "core.zones_init_s", "core.select_source_s",
    "simulation.batch_s", "simulation.loop_s", "simulation.loop_self_s",
    "simulation.assembly_s",
    "simulation.run_sweep_s", "simulation.run_flooding_s",
    "simulation.checkpoint_write_s", "network.connectivity_s",
]
_COUNTS = [
    "mobility.step_calls", "mobility.agent_steps",
    "geometry.any_within_calls", "geometry.sources", "geometry.queries",
    "protocols.newly_informed",
    "simulation.lock_steps", "simulation.replica_steps",
    "simulation.run_flooding_calls", "simulation.checkpoint_writes",
]


def per_layer() -> list:
    """Per-layer metrics of the traced run: (name, unit, better).

    Times and counts are means per traced unit; a layer the workload does
    not reach reads 0.
    """
    from repro.experiments.registry import all_ids

    rows = [(name, "s", "lower") for name in _TIMES]
    rows += [(name, "count", "lower") for name in _COUNTS]
    rows += [
        ("geometry.hit_frac", "ratio", "higher"),
        ("simulation.active_frac", "ratio", "higher"),
        ("kernels.load_s", "s", "lower"),
        ("kernels.compile_events", "count", "lower"),
        ("experiments.checks_failed", "count", "lower"),
        ("trace.unit_s", "s", "lower"),
        ("trace.residual_s", "s", "lower"),
        ("trace.balance_err_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    rows += [(f"experiments.{eid}_s", "s", "lower") for eid in all_ids()]
    return rows


def benchmark_json() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better in per_layer()
        ],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"
