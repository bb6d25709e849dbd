"""Perf-trajectory harness behind ``repro bench``.

Every performance PR needs a trajectory to regress against, so this module
measures the simulation's hot kernels and end-to-end trial throughput and
emits a **machine-readable JSON report** (``BENCH_PR2.json`` by default)
with a stable schema:

``schema_version``
    integer, bumped only on breaking layout changes; consumers comparing
    trajectories across PRs must check it.
``workloads``
    the exact parameters measured (so future runs can reproduce them).
``kernels``
    micro-benchmarks ``[{name, params, seconds, per_call, repeats}]`` —
    per-kernel best-of-``repeats`` wall time.
``end_to_end``
    ``run_trials`` wall times per execution engine (``batch`` and the
    ``scalar`` reference), plus ``speedups`` ratios.
``parity``
    cross-strategy result equality.  **Timing never fails a run; parity
    errors do** (exit code 1) — CI treats the benchmark as a smoke test,
    not a timing gate.
``protocols`` / ``experiments`` / ``mobility``
    optional sections: per-protocol batch-vs-scalar timings over the
    ``protocol_baselines`` workload, the sweep-scheduler experiment
    suite (quick-scale timings plus an adaptive arm, verdict-parity
    gated), and per-mobility-model batch-vs-scalar
    timings over the flooding workload (every registered model is
    batch-native since PR 9, ferry/composite/timetable included;
    seed-for-seed parity gated).

Timings interleave the contestants round-robin (warm-up first, best-of-N)
so slow machine-wide drift hits every strategy equally — on shared CI
runners back-to-back timing loops can drift by 10-20%, which would
otherwise swamp the effects being measured.

Used by the ``repro bench`` CLI subcommand and shared with the
pytest-benchmark suites under ``benchmarks/`` (which import the workload
builders so micro- and macro-benchmarks stay in sync).
"""

from __future__ import annotations

import json
import math
import platform
import re
import time

import numpy as np

from repro.geometry.grid import GridIndex
from repro.geometry.neighbors import BatchNeighborQuery
from repro.simulation.config import FloodingConfig, standard_config
from repro.simulation.runner import run_trials

__all__ = [
    "SCHEMA_VERSION",
    "drifting_points",
    "batch_infection_workload",
    "run_benchmarks",
    "write_report",
    "render_table",
]

SCHEMA_VERSION = 1

#: The acceptance workload: canonical ``L = sqrt n`` scaling at n=2000,
#: 32 trials, seed 42 (the same configuration as
#: ``benchmarks/test_bench_trials.py`` under ``REPRO_FULL_BENCH=1``).
CANONICAL = {"n": 2000, "trials": 32, "radius_factor": 1.0, "seed": 42}
SMOKE = {"n": 400, "trials": 8, "radius_factor": 1.0, "seed": 42}

#: The protocols acceptance workload: the ``protocol_baselines`` quick
#: scale exactly (n=2000, every registered baseline protocol, identical
#: trial seeds), timed under both engines.
PROTOCOLS_SCALE = "quick"
PROTOCOLS_SMOKE_N = 300

#: The sweep-scheduler experiment suite (every experiment migrated onto
#: :func:`repro.simulation.sweep.run_sweep`), timed at quick scale.
EXPERIMENTS_SUITE_IDS = (
    "thm3_scaling",
    "thm3_radius",
    "thm3_speed",
    "regime_map",
    "mobility_ablation",
    "suburb_vs_cz",
    "pause_extension",
    "init_bias",
    "meeting_suburb",
    "thm10_growth",
)
#: Smoke runs keep CI fast with the cheapest third of the suite.
EXPERIMENTS_SMOKE_IDS = ("thm3_radius", "mobility_ablation", "suburb_vs_cz")

#: The adaptive arm: sweep experiments re-run under sequential stopping
#: (PR 6).  The acceptance gate is *unchanged verdicts with fewer trials*:
#: each experiment's pass/fail must match its fixed-budget run, and the
#: executed trial count (parsed from the experiment's adaptive note) must
#: not exceed the fixed budget.
EXPERIMENTS_ADAPTIVE_IDS = ("thm3_scaling", "thm3_radius", "thm3_speed", "regime_map")
ADAPTIVE_RULE = {"ci_width": 0.15, "min_trials": 2}
_ADAPTIVE_NOTE = re.compile(r"adaptive stopping: (\d+) trials vs (\d+) fixed budget")

#: The mobility suite: per-model batch-vs-scalar over the canonical
#: ``L = sqrt n`` flooding workload, one row per registered mobility model
#: — all batch-native since PR 9, the transit family (ferry / composite /
#: timetable) included.  ``mrwp-speed`` options are derived from the
#: workload speed at build time; ``timetable`` rider/board options are
#: derived from the workload size; parity gates every row.
MOBILITY_MODELS = (
    ("mrwp", {}),
    ("mrwp-pause", {"pause_time": 4.0}),
    ("mrwp-speed", None),  # {v_min, v_max} derived from the config speed
    ("rwp", {}),
    ("random-walk", {}),
    ("random-direction", {}),
    ("ferry", {}),
    ("composite", {"ferries": 5}),
    ("timetable", None),  # riders/dwell/capacity derived from the workload
)
MOBILITY_N = 1_000
MOBILITY_TRIALS = 8
MOBILITY_SMOKE_N = 300
MOBILITY_SMOKE_TRIALS = 4

#: The network suite: the PR 8 temporal-graph analytics workloads at the
#: canonical scale — a connectivity-profile radius sweep (incremental
#: union-find replay vs per-radius disk-graph rebuilds), exact MST
#: thresholds (vs the retained bisection, cross-validated within ``tol``),
#: batched journey times (vs per-source scalar temporal BFS), and batched
#: contact recording (vs per-replica scalar recording).  Every row is
#: parity-gated; parity failures exit 1, timing never does.
NETWORK_PROFILE = {"snapshots": 8, "n": 2000, "n_radii": 12, "seed": 42}
NETWORK_PROFILE_SMOKE = {"snapshots": 3, "n": 300, "n_radii": 6, "seed": 42}
NETWORK_JOURNEYS = {"n": 2000, "steps": 30, "sources": 24, "seed": 7}
NETWORK_JOURNEYS_SMOKE = {"n": 300, "steps": 10, "sources": 6, "seed": 7}
NETWORK_CONTACTS = {"replicas": 8, "n": 1000, "steps": 20, "seed": 9}
NETWORK_CONTACTS_SMOKE = {"replicas": 3, "n": 300, "steps": 8, "seed": 9}

#: The kernels suite (PR 10): every compiled-tier kernel timed against the
#: numpy reference path it replaces — same public entry point, tier
#: switched with :func:`repro.kernels.use_kernel_tier` — plus the
#: canonical end-to-end flooding run under ``kernels="compiled"`` vs
#: ``kernels="numpy"``.  Every row is parity-gated (the compiled tier is
#: bit-exact by contract), the compiled provider is warmed before any
#: timing, and a ``compile_events()`` delta of zero across the timed
#: region is itself a recorded check (warm-path-only measurement).
KERNEL_TIER_PAIR = {"batch": 16, "n": 2_000, "radius": 2.8}
KERNEL_TIER_PAIR_SMOKE = {"batch": 4, "n": 400, "radius": 2.8}
KERNEL_TIER_LEGS = {"total": 20_000, "iterations": 5}
KERNEL_TIER_LEGS_SMOKE = {"total": 2_000, "iterations": 3}
KERNEL_TIER_UNION = {"replicas": 8, "n": 2_000, "rounds": 6}
KERNEL_TIER_UNION_SMOKE = {"replicas": 3, "n": 400, "rounds": 3}
KERNEL_TIER_ZONES = {"batch": 16, "n": 2_000, "steps": 10}
KERNEL_TIER_ZONES_SMOKE = {"batch": 4, "n": 400, "steps": 4}


# ----------------------------------------------------------------------
# Workload builders (shared with benchmarks/)
# ----------------------------------------------------------------------
def drifting_points(n: int, side: float, step: float, steps: int, seed: int = 0) -> list:
    """A sequence of ``(n, 2)`` snapshots with bounded per-step motion.

    Mimics the indexing workload of the simulation loop: each snapshot
    moves every point by a uniform displacement of at most ``step`` per
    axis (reflected at the walls), so bucket churn is controlled by
    ``step / cell_size`` exactly like ``v * dt / cell_size`` in a run.
    """
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, side, size=(n, 2))
    out = [points.copy()]
    for _ in range(steps):
        points = points + rng.uniform(-step, step, size=(n, 2))
        points = np.abs(points)
        points = np.where(points > side, 2.0 * side - points, points)
        out.append(points.copy())
    return out


def batch_infection_workload(batch: int, n: int, side: float, seed: int = 1) -> tuple:
    """Positions + informed masks resembling a mid-flood round (a dense
    informed disk whose complement is the query set)."""
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0, side, size=(batch, n, 2))
    center = np.array([side / 2, side / 2])
    dist = np.linalg.norm(positions - center, axis=2)
    informed = dist < side * 0.3  # ~28% informed, frontier at the rim
    return positions, informed, ~informed


def _interleaved_best(contestants: dict, repeats: int) -> dict:
    """Best-of-``repeats`` seconds per contestant, interleaved round-robin."""
    best = {name: math.inf for name in contestants}
    for name, fn in contestants.items():  # warm-up, untimed
        fn()
    for _ in range(repeats):
        for name, fn in contestants.items():
            t0 = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - t0)
    return best


# ----------------------------------------------------------------------
# Kernel benchmarks
# ----------------------------------------------------------------------
def _bench_grid_index(repeats: int, smoke: bool) -> list:
    """Counting-sort grid build over a drifting swarm, one build per round."""
    n = 2_000 if smoke else 20_000
    side = math.sqrt(n)
    cell = 2.0
    snapshots = drifting_points(n, side, 0.7, steps=10, seed=3)

    def build():
        index = GridIndex(side, cell)
        for snap in snapshots:
            index.build(snap)

    seconds = _interleaved_best({"build": build}, repeats)["build"]
    return [
        {
            "name": "grid_index_build",
            "params": {"n": n, "cell": cell},
            "seconds": seconds,
            "per_call": seconds / len(snapshots),
            "repeats": repeats,
        }
    ]


def _bench_batch_any_within(repeats: int, smoke: bool) -> list:
    """The batched infection test on the numpy tier (cell cover + exact shell)."""
    batch, n = (4, 500) if smoke else (16, 2_000)
    side, radius = math.sqrt(n) * 0.7071 * 2, 2.8
    positions, informed, uninformed = batch_infection_workload(batch, n, side)
    query = BatchNeighborQuery(side, batch)

    def run():
        return query.any_within(positions, informed, uninformed, radius)

    seconds = _interleaved_best({"cells": run}, repeats)["cells"]
    return [
        {
            "name": "batch_any_within_cells",
            "params": {"batch": batch, "n": n, "radius": radius},
            "seconds": seconds,
            "per_call": seconds,
            "repeats": repeats,
        }
    ]


# ----------------------------------------------------------------------
# End-to-end benchmarks + parity
# ----------------------------------------------------------------------
def _config(workload: dict, engine: str) -> FloodingConfig:
    return standard_config(
        workload["n"],
        radius_factor=workload["radius_factor"],
        seed=workload["seed"],
        engine=engine,
    )


def _result_fingerprint(results) -> list:
    """The observable outcome of a trial batch, for parity comparison."""
    return [
        (
            r.flooding_time,
            r.completed,
            r.n_steps,
            r.source,
            tuple(np.asarray(r.informed_history).tolist()),
            r.cz_completion_time,
            r.suburb_completion_time,
            r.source_in_central_zone,
        )
        for r in results
    ]


def _bench_end_to_end(workload: dict, repeats: int, include_scalar: bool) -> tuple:
    trials = workload["trials"]
    strategies = {"batch": _config(workload, "batch")}
    if include_scalar:
        strategies["scalar"] = _config(workload, "scalar")

    fingerprints = {
        name: _result_fingerprint(run_trials(config, trials))
        for name, config in strategies.items()
    }
    reference = fingerprints["batch"]
    parity = {
        name: fingerprints[name] == reference for name in strategies if name != "batch"
    }

    best = _interleaved_best(
        {name: (lambda c=config: run_trials(c, trials)) for name, config in strategies.items()},
        repeats,
    )
    rows = [
        {"name": name, "workload": dict(workload), "seconds": seconds, "repeats": repeats}
        for name, seconds in best.items()
    ]
    speedups = {}
    if include_scalar:
        speedups["batch_vs_scalar"] = best["scalar"] / best["batch"]
    return rows, speedups, parity


def _parity_sweep(smoke: bool) -> dict:
    """Cross-engine / cross-tier result equality at a small scale.

    Cheap enough for CI; the exhaustive randomized sweep lives in
    ``tests/test_flooding_parity.py``.
    """
    workload = {"n": 150, "trials": 6, "radius_factor": 1.0, "seed": 11}
    reference = _result_fingerprint(run_trials(_config(workload, "scalar"), workload["trials"]))
    checks = {}
    for kernels in ("auto", "numpy"):
        config = _config(workload, "batch").with_options(kernels=kernels)
        fingerprint = _result_fingerprint(run_trials(config, workload["trials"]))
        checks[f"batch:kernels={kernels}"] = fingerprint == reference
    return {"workload": workload, "checks": checks, "ok": all(checks.values())}


# ----------------------------------------------------------------------
# Protocol suite: every registered protocol, batch vs scalar
# ----------------------------------------------------------------------
def _protocol_variant_configs(smoke: bool, seed: int = 0) -> list:
    """``(label, batch_config, scalar_config, trials)`` per baseline variant.

    The full run times the ``protocol_baselines`` quick scale *exactly*
    (same configs, via the experiment's own workload builder); smoke runs
    shrink ``n`` so CI exercises the machinery and parity only.
    """
    from repro.experiments.protocol_baselines import variant_configs

    out = []
    for label, batch_config, trials in variant_configs(PROTOCOLS_SCALE, seed):
        if smoke:
            n = PROTOCOLS_SMOKE_N
            side = math.sqrt(n)
            radius = 1.4 * math.sqrt(math.log(n))
            batch_config = batch_config.with_options(
                n=n, side=side, radius=radius, speed=0.25 * radius
            )
        out.append((label, batch_config, batch_config.with_options(engine="scalar"), trials))
    return out


def _protocol_fingerprint(results) -> list:
    """Result fingerprint including stall flags and protocol extras."""
    return [
        (
            r.flooding_time,
            r.completed,
            r.stalled,
            r.n_steps,
            r.source,
            tuple(np.asarray(r.informed_history).tolist()),
            tuple(sorted(
                (k, v) for k, v in r.extras.items() if k not in ("config", "n_agents")
            )),
        )
        for r in results
    ]


def _bench_protocols(repeats: int, smoke: bool) -> tuple:
    """Per-protocol batch-vs-scalar timings over the baselines workload.

    Returns ``(section, parity)``: the report's ``protocols`` section and
    the per-variant seed-for-seed parity verdicts (parity gates the run,
    timing never does).
    """
    variants = _protocol_variant_configs(smoke)
    parity = {}
    rows = []
    batch_total = scalar_total = 0.0
    for label, batch_config, scalar_config, trials in variants:
        parity[f"protocols:{label}"] = _protocol_fingerprint(
            run_trials(batch_config, trials)
        ) == _protocol_fingerprint(run_trials(scalar_config, trials))
        best = _interleaved_best(
            {
                "batch": lambda c=batch_config: run_trials(c, trials),
                "scalar": lambda c=scalar_config: run_trials(c, trials),
            },
            repeats,
        )
        batch_total += best["batch"]
        scalar_total += best["scalar"]
        rows.append(
            {
                "label": label,
                "protocol": batch_config.protocol,
                "trials": trials,
                "batch_seconds": best["batch"],
                "scalar_seconds": best["scalar"],
                "speedup": best["scalar"] / best["batch"],
            }
        )
    section = {
        "workload": {
            "scale": PROTOCOLS_SCALE,
            "n": variants[0][1].n,
            "trials": variants[0][3],
            "smoke": smoke,
        },
        "variants": rows,
        "batch_total_seconds": batch_total,
        "scalar_total_seconds": scalar_total,
        "speedup": scalar_total / batch_total,
    }
    return section, parity


# ----------------------------------------------------------------------
# Experiments suite: the sweep-scheduler experiments and the adaptive arm
# ----------------------------------------------------------------------
def _bench_experiments(repeats: int, smoke: bool, seed: int = 0) -> tuple:
    """Quick-scale timings of the sweep-scheduler suite.

    Returns ``(section, parity)``.  Each experiment is timed
    best-of-``repeats``.  Experiments in :data:`EXPERIMENTS_ADAPTIVE_IDS`
    additionally run an **adaptive arm** under :data:`ADAPTIVE_RULE`
    sequential stopping: the parity gate there is *unchanged verdict* (the
    adaptive run's pass/fail must match the fixed-budget run's) plus *no
    extra trials* (the executed count, parsed from the experiment's
    adaptive note, never exceeds the fixed budget).
    """
    from repro.experiments.registry import get_spec
    from repro.simulation.sweep import StoppingRule

    ids = EXPERIMENTS_SMOKE_IDS if smoke else EXPERIMENTS_SUITE_IDS
    rows = []
    parity = {}
    total = 0.0
    adaptive_total = 0.0
    adaptive_trials = fixed_trials = 0
    for eid in ids:
        spec = get_spec(eid)
        fixed = spec.run(scale="quick", seed=seed)
        best = _interleaved_best(
            {"fixed": lambda s=spec: s.run(scale="quick", seed=seed)}, repeats
        )
        total += best["fixed"]
        row = {"id": eid, "seconds": best["fixed"]}
        if eid in EXPERIMENTS_ADAPTIVE_IDS:
            rule = StoppingRule(**ADAPTIVE_RULE)
            t0 = time.perf_counter()
            adaptive = spec.run(scale="quick", seed=seed, stopping=rule)
            seconds = time.perf_counter() - t0
            match = _ADAPTIVE_NOTE.search("\n".join(adaptive.notes))
            executed, budget = (
                (int(match.group(1)), int(match.group(2))) if match else (-1, -1)
            )
            parity[f"experiments:{eid}:adaptive"] = (
                adaptive.passed == fixed.passed
                and match is not None
                and executed <= budget
            )
            adaptive_total += seconds
            adaptive_trials += max(executed, 0)
            fixed_trials += max(budget, 0)
            row.update(
                {
                    "adaptive_seconds": seconds,
                    "adaptive_trials": executed,
                    "fixed_trials": budget,
                    "adaptive_passed": adaptive.passed,
                    "fixed_passed": fixed.passed,
                }
            )
        rows.append(row)
    section = {
        "workload": {"scale": "quick", "seed": seed, "smoke": smoke, "ids": list(ids)},
        "experiments": rows,
        "total_seconds": total,
        "adaptive": {
            "rule": dict(ADAPTIVE_RULE),
            "ids": [eid for eid in ids if eid in EXPERIMENTS_ADAPTIVE_IDS],
            "total_seconds": adaptive_total,
            "adaptive_trials": adaptive_trials,
            "fixed_trials": fixed_trials,
        },
    }
    return section, parity


# ----------------------------------------------------------------------
# Mobility suite: every registered mobility model, batch vs scalar
# ----------------------------------------------------------------------
def _mobility_variant_configs(smoke: bool, seed: int = 42) -> list:
    """``(name, batch_config, scalar_config, trials)`` per mobility model."""
    n = MOBILITY_SMOKE_N if smoke else MOBILITY_N
    trials = MOBILITY_SMOKE_TRIALS if smoke else MOBILITY_TRIALS
    out = []
    for name, options in MOBILITY_MODELS:
        batch = standard_config(
            n, radius_factor=1.0, seed=seed, mobility=name
        )
        if options is None and name == "mrwp-speed":
            # A real per-trip range around the workload speed.
            options = {"v_min": 0.5 * batch.speed, "v_max": 1.5 * batch.speed}
        elif options is None and name == "timetable":
            # A scheduled backbone sized to the workload: ~1% vehicles with
            # dwelling stops, the rest riders who can board within R.
            vehicles = max(2, n // 100)
            options = {
                "riders": n - vehicles,
                "dwell": 2.0,
                "capacity": 8,
                "board_radius": batch.radius,
            }
        batch = batch.with_options(mobility_options=dict(options))
        out.append((name, batch, batch.with_options(engine="scalar"), trials))
    return out


def _bench_mobility(repeats: int, smoke: bool) -> tuple:
    """Per-mobility-model batch-vs-scalar timings over the flooding workload.

    Returns ``(section, parity)``: the report's ``mobility`` section and the
    per-model seed-for-seed parity verdicts (parity gates the run, timing
    never does).  Every registered model is batch-native.
    """
    parity = {}
    rows = []
    batch_total = scalar_total = 0.0
    for name, batch_config, scalar_config, trials in _mobility_variant_configs(smoke):
        parity[f"mobility:{name}"] = _result_fingerprint(
            run_trials(batch_config, trials)
        ) == _result_fingerprint(run_trials(scalar_config, trials))
        best = _interleaved_best(
            {
                "batch": lambda c=batch_config: run_trials(c, trials),
                "scalar": lambda c=scalar_config: run_trials(c, trials),
            },
            repeats,
        )
        batch_total += best["batch"]
        scalar_total += best["scalar"]
        rows.append(
            {
                "model": name,
                "trials": trials,
                "batch_seconds": best["batch"],
                "scalar_seconds": best["scalar"],
                "speedup": best["scalar"] / best["batch"],
            }
        )
    section = {
        "workload": {
            "n": MOBILITY_SMOKE_N if smoke else MOBILITY_N,
            "trials": MOBILITY_SMOKE_TRIALS if smoke else MOBILITY_TRIALS,
            "radius_factor": 1.0,
            "seed": 42,
            "smoke": smoke,
        },
        "models": rows,
        "batch_total_seconds": batch_total,
        "scalar_total_seconds": scalar_total,
        "speedup": scalar_total / batch_total,
    }
    return section, parity


# ----------------------------------------------------------------------
# Network suite: temporal-graph analytics, batched vs scalar
# ----------------------------------------------------------------------
def _network_snapshots(batch: int, n: int, seed: int) -> np.ndarray:
    """A ``(B, n, 2)`` stack of stationary MRWP snapshots."""
    from repro.mobility.stationary import PalmStationarySampler

    side = math.sqrt(n)
    sampler = PalmStationarySampler(side)
    rng = np.random.default_rng(seed)
    return np.stack([sampler.sample(n, rng).positions for _ in range(batch)], axis=0)


def _rebuild_profile(positions: np.ndarray, side: float, radii: np.ndarray) -> dict:
    """The pre-incremental profile: one disk-graph rebuild per probe radius.

    Kept here as the benchmark contestant (and the parity oracle) for the
    incremental replay — a fresh spatial index, edge enumeration, and
    union-find per radius, exactly what ``connectivity_profile`` did
    before the length-sorted prefix replay.
    """
    from repro.network.disk_graph import DiskGraph

    n = positions.shape[0]
    giant = np.zeros(radii.size)
    ncomp = np.zeros(radii.size, dtype=np.intp)
    isolated = np.zeros(radii.size)
    connected = np.zeros(radii.size, dtype=bool)
    for k, radius in enumerate(radii):
        graph = DiskGraph(positions, max(float(radius), 0.0), side=side)
        giant[k] = graph.giant_component_fraction()
        ncomp[k] = graph.n_components()
        isolated[k] = float(np.count_nonzero(graph.isolated_mask())) / max(1, n)
        connected[k] = graph.is_connected()
    return {
        "giant_fraction": giant, "n_components": ncomp,
        "isolated_fraction": isolated, "connected": connected,
    }


def _bench_network(repeats: int, smoke: bool) -> tuple:
    """Batched temporal-graph analytics vs their scalar/rebuild baselines.

    Returns ``(section, parity)``.  Four workloads:

    * ``profile`` — :func:`~repro.network.connectivity.batch_connectivity_profile`
      over a snapshot stack vs per-radius disk-graph rebuilds (the
      incremental-replay parity is exact: canonical min-hooking labels
      make prefix unions order-independent).
    * ``threshold`` — exact MST bottleneck thresholds (batched) vs the
      retained per-snapshot bisection; the gate is agreement within the
      bisection tolerance, the headline is the speedup.
    * ``journeys`` — multi-source :func:`~repro.network.evolving.journey_times`
      under the batch engine vs the per-source scalar temporal BFS.
    * ``contacts`` — :func:`~repro.network.contacts.batch_record_contacts`
      over replica trajectories vs per-replica scalar recording.
    """
    from repro.mobility.mrwp import ManhattanRandomWaypoint
    from repro.network.connectivity import (
        batch_connectivity_profile,
        batch_connectivity_threshold,
        estimate_connectivity_threshold,
    )
    from repro.network.contacts import batch_record_contacts, record_contacts
    from repro.network.evolving import journey_times
    from repro.network.snapshots import SnapshotSeries, take_snapshots

    parity = {}
    rows = []

    # --- connectivity profile: incremental replay vs per-radius rebuilds
    profile_wl = dict(NETWORK_PROFILE_SMOKE if smoke else NETWORK_PROFILE)
    stack = _network_snapshots(profile_wl["snapshots"], profile_wl["n"], profile_wl["seed"])
    side = math.sqrt(profile_wl["n"])
    base = math.sqrt(math.log(profile_wl["n"]))
    radii = np.linspace(0.4, 2.0, profile_wl["n_radii"]) * base

    batched = batch_connectivity_profile(stack, side, radii)
    rebuilt = [_rebuild_profile(snapshot, side, radii) for snapshot in stack]
    parity["network:profile"] = all(
        np.array_equal(batched[key][b], rebuilt[b][key])
        for b in range(profile_wl["snapshots"])
        for key in ("giant_fraction", "n_components", "isolated_fraction", "connected")
    )
    best = _interleaved_best(
        {
            "batch": lambda: batch_connectivity_profile(stack, side, radii),
            "scalar": lambda: [_rebuild_profile(s, side, radii) for s in stack],
        },
        repeats,
    )
    rows.append(
        {
            "name": "profile",
            "workload": profile_wl,
            "batch_seconds": best["batch"],
            "scalar_seconds": best["scalar"],
            "speedup": best["scalar"] / best["batch"],
        }
    )

    # --- exact thresholds: batched MST bottleneck vs retained bisection
    tol = side * 1e-3
    mst_thresholds = batch_connectivity_threshold(stack, side)
    bisect_thresholds = np.array(
        [estimate_connectivity_threshold(s, side, method="bisect") for s in stack]
    )
    scalar_mst = np.array([estimate_connectivity_threshold(s, side) for s in stack])
    # The bisection returns its upper endpoint: always >= the exact
    # bottleneck, and within tol of it once the bracket closes.
    gaps = bisect_thresholds - mst_thresholds
    parity["network:threshold_mst_vs_bisect"] = bool(
        np.all(gaps >= -1e-9) and np.all(gaps <= tol + 1e-9)
    )
    parity["network:threshold_batch_vs_scalar"] = bool(
        np.allclose(mst_thresholds, scalar_mst, rtol=0.0, atol=1e-9)
    )
    best = _interleaved_best(
        {
            "batch": lambda: batch_connectivity_threshold(stack, side),
            "scalar": lambda: [
                estimate_connectivity_threshold(s, side, method="bisect") for s in stack
            ],
        },
        repeats,
    )
    rows.append(
        {
            "name": "threshold",
            "workload": {**profile_wl, "tol": tol, "scalar_method": "bisect"},
            "batch_seconds": best["batch"],
            "scalar_seconds": best["scalar"],
            "speedup": best["scalar"] / best["batch"],
            "max_abs_gap": float(np.max(np.abs(gaps))),
        }
    )

    # --- journeys: batched multi-source temporal BFS vs per-source scalar
    journeys_wl = dict(NETWORK_JOURNEYS_SMOKE if smoke else NETWORK_JOURNEYS)
    n = journeys_wl["n"]
    side = math.sqrt(n)
    radius = 1.0 * math.sqrt(math.log(n))
    rng = np.random.default_rng(journeys_wl["seed"])
    model = ManhattanRandomWaypoint(n, side, 0.25 * radius, rng=rng)
    series = SnapshotSeries(take_snapshots(model, journeys_wl["steps"]), radius, side)
    sources = rng.choice(n, size=journeys_wl["sources"], replace=False)
    batch_times = journey_times(series, sources, engine="batch")
    scalar_times = journey_times(series, sources, engine="scalar")
    parity["network:journeys"] = bool(np.array_equal(batch_times, scalar_times))
    best = _interleaved_best(
        {
            "batch": lambda: journey_times(series, sources, engine="batch"),
            "scalar": lambda: journey_times(series, sources, engine="scalar"),
        },
        repeats,
    )
    rows.append(
        {
            "name": "journeys",
            "workload": {**journeys_wl, "radius": radius},
            "batch_seconds": best["batch"],
            "scalar_seconds": best["scalar"],
            "speedup": best["scalar"] / best["batch"],
        }
    )

    # --- contacts: batched replica recording vs per-replica scalar
    contacts_wl = dict(NETWORK_CONTACTS_SMOKE if smoke else NETWORK_CONTACTS)
    n = contacts_wl["n"]
    side = math.sqrt(n)
    radius = 0.75 * math.sqrt(math.log(n))
    frames = np.stack(
        [
            take_snapshots(
                ManhattanRandomWaypoint(
                    n, side, 0.3 * radius, rng=np.random.default_rng([contacts_wl["seed"], b])
                ),
                contacts_wl["steps"],
            )
            for b in range(contacts_wl["replicas"])
        ],
        axis=0,
    )
    batch_traces = batch_record_contacts(frames, radius, side)
    scalar_traces = [
        record_contacts(SnapshotSeries(frames[b], radius, side), radius=radius)
        for b in range(contacts_wl["replicas"])
    ]
    parity["network:contacts"] = all(
        np.array_equal(bt.contacts_at(t), st.contacts_at(t))
        for bt, st in zip(batch_traces, scalar_traces)
        for t in range(contacts_wl["steps"] + 1)
    )
    best = _interleaved_best(
        {
            "batch": lambda: batch_record_contacts(frames, radius, side),
            "scalar": lambda: [
                record_contacts(SnapshotSeries(frames[b], radius, side), radius=radius)
                for b in range(contacts_wl["replicas"])
            ],
        },
        repeats,
    )
    rows.append(
        {
            "name": "contacts",
            "workload": {**contacts_wl, "radius": radius},
            "batch_seconds": best["batch"],
            "scalar_seconds": best["scalar"],
            "speedup": best["scalar"] / best["batch"],
        }
    )

    batch_total = sum(row["batch_seconds"] for row in rows)
    scalar_total = sum(row["scalar_seconds"] for row in rows)
    section = {
        "workload": {"smoke": smoke, "names": [row["name"] for row in rows]},
        "workloads": rows,
        "batch_total_seconds": batch_total,
        "scalar_total_seconds": scalar_total,
        "speedup": scalar_total / batch_total,
    }
    return section, parity


# ----------------------------------------------------------------------
# Kernels suite: compiled tier vs numpy, per kernel + end to end
# ----------------------------------------------------------------------
def _zone_workload_simulation(n: int, batch: int, seed: int):
    """A real :class:`BatchSimulation` (canonical scaling, zones on) whose
    ``_zone_fractions`` call site the zone-counts micro-benchmark drives."""
    from repro.core.flooding import build_zone_partition, select_source
    from repro.simulation.batch import (
        BatchSimulation,
        build_batch_model,
        build_batch_state,
    )

    config = standard_config(n, seed=seed)
    seed_seqs = np.random.SeedSequence(seed).spawn(batch)
    mobility_rngs, protocol_rngs, source_rngs = [], [], []
    for seed_seq in seed_seqs:
        mobility_ss, protocol_ss, source_ss = seed_seq.spawn(3)
        mobility_rngs.append(np.random.default_rng(mobility_ss))
        protocol_rngs.append(np.random.default_rng(protocol_ss))
        source_rngs.append(np.random.default_rng(source_ss))
    model = build_batch_model(config, mobility_rngs)
    sources = np.array(
        [
            select_source(model.positions[b], config.side, config.source, source_rngs[b])
            for b in range(batch)
        ],
        dtype=np.intp,
    )
    state = build_batch_state(config, sources, protocol_rngs)
    zones = build_zone_partition(
        config.n, config.side, config.radius, config.threshold_factor
    )
    return BatchSimulation(model, state, zones=zones), config.side


def _kernel_tier_workloads(smoke: bool) -> list:
    """One ``(name, params, run)`` triple per compiled-tier kernel.

    Each ``run(tier)`` drives the kernel's *public* entry point under
    :func:`repro.kernels.use_kernel_tier` — the same dispatch sites the
    simulation loop hits — and returns a canonical result object so the
    two tiers can be compared for exact equality.
    """
    from repro.kernels import use_kernel_tier
    from repro.mobility.kinematics import DenseLegScratch, advance_legs, advance_legs_dense
    from repro.network.batch_union_find import BatchUnionFind

    workloads = []

    # -- pair kernels: the batched infection test and the cut contacts --
    pair = dict(KERNEL_TIER_PAIR_SMOKE if smoke else KERNEL_TIER_PAIR)
    batch, n, radius = pair["batch"], pair["n"], pair["radius"]
    side = math.sqrt(n) * 0.7071 * 2
    positions, informed, uninformed = batch_infection_workload(batch, n, side)
    query = BatchNeighborQuery(side, batch)

    def run_any_within(tier):
        with use_kernel_tier(tier):
            return query.any_within(positions, informed, uninformed, radius)

    def run_contacts(tier):
        with use_kernel_tier(tier):
            r, s, q = query.bind(positions).contacts_within(informed, uninformed, radius)
        # Emission order is unspecified on every tier: canonicalize by
        # the unique (replica, source, query) key, like the protocols do.
        order = np.argsort((r * n + s) * n + q, kind="stable")
        return r[order].tobytes() + s[order].tobytes() + q[order].tobytes()

    workloads.append(("batch_any_within", pair, run_any_within))
    workloads.append(("batch_contacts", pair, run_contacts))

    # -- leg kernels: masked carry-over advance + dense full-array pass --
    legs = dict(KERNEL_TIER_LEGS_SMOKE if smoke else KERNEL_TIER_LEGS)
    total, iterations = legs["total"], legs["iterations"]
    leg_side = math.sqrt(total)
    rng = np.random.default_rng(17)
    leg_pos = rng.uniform(0.0, leg_side, size=(total, 2))
    leg_target = rng.uniform(0.0, leg_side, size=(total, 2))
    leg_budget = rng.uniform(0.0, 3.0, size=total)
    leg_speed = rng.uniform(0.5, 1.5, size=total)
    leg_idx = np.nonzero(leg_budget > 0.2)[0]
    moving = leg_budget > 0.2
    n_moving = int(np.count_nonzero(moving))
    eps = 1e-9 * leg_side

    def run_advance_legs(tier):
        pos, target, budget = leg_pos.copy(), leg_target.copy(), leg_budget.copy()
        with use_kernel_tier(tier):
            for _ in range(iterations):
                done = advance_legs(pos, target, budget, leg_idx, eps, speed=leg_speed)
        return pos.tobytes() + budget.tobytes() + done.tobytes()

    def run_advance_legs_dense(tier):
        pos, target, budget = leg_pos.copy(), leg_target.copy(), leg_budget.copy()
        scratch = DenseLegScratch(total)
        with use_kernel_tier(tier):
            for _ in range(iterations):
                done = advance_legs_dense(
                    pos, target, budget, moving, n_moving, eps, scratch, speed=leg_speed
                )
        return pos.tobytes() + budget.tobytes() + done.tobytes()

    workloads.append(("advance_legs", legs, run_advance_legs))
    workloads.append(("advance_legs_dense", legs, run_advance_legs_dense))

    # -- union-find fixpoint: incremental batched connectivity --
    union = dict(KERNEL_TIER_UNION_SMOKE if smoke else KERNEL_TIER_UNION)
    uf_replicas, uf_n, uf_rounds = union["replicas"], union["n"], union["rounds"]
    uf_rng = np.random.default_rng(23)
    uf_edges = [
        (uf_rng.integers(0, uf_n, size=4 * uf_n), uf_rng.integers(0, uf_n, size=4 * uf_n))
        for _ in range(uf_rounds)
    ]

    def run_union_fixpoint(tier):
        uf = BatchUnionFind(uf_replicas, uf_n)
        with use_kernel_tier(tier):
            for u, v in uf_edges:
                uf.add_edges(u, v)
        return uf.labels()

    workloads.append(("union_fixpoint", union, run_union_fixpoint))

    # -- zone classification: CZ membership counts for completion tracking --
    # Drives the hot-loop call site itself (``_zone_fractions`` with
    # ``need_mask=False``) on a real batch simulation, so the row times the
    # same dispatch the lock-step engine hits every recorded step.
    zones_p = dict(KERNEL_TIER_ZONES_SMOKE if smoke else KERNEL_TIER_ZONES)
    zc_batch, zc_n, zc_steps = zones_p["batch"], zones_p["n"], zones_p["steps"]
    zc_sim, zc_side = _zone_workload_simulation(zc_n, zc_batch, seed=29)
    zc_rng = np.random.default_rng(31)
    zc_snapshots = [
        zc_rng.uniform(0.0, zc_side, size=(zc_batch, zc_n, 2)) for _ in range(zc_steps)
    ]
    zc_sim.protocol.informed[:] = zc_rng.random((zc_batch, zc_n)) < 0.5
    zc_rows = np.arange(zc_batch, dtype=np.intp)
    zc_counts = np.count_nonzero(zc_sim.protocol.informed, axis=1)

    def run_zone_counts(tier):
        out = []
        with use_kernel_tier(tier):
            for snap in zc_snapshots:
                _mask, cz_frac, suburb_frac = zc_sim._zone_fractions(
                    snap, zc_rows, zc_counts, need_mask=False
                )
                out.append(cz_frac.tobytes() + suburb_frac.tobytes())
        return b"".join(out)

    workloads.append(("zone_counts", zones_p, run_zone_counts))
    return workloads


def _kernel_results_equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return bool(np.array_equal(np.asarray(a), np.asarray(b)))
    return a == b


def _bench_kernel_tier(workload: dict, repeats: int, smoke: bool) -> tuple:
    """The compiled-kernel-tier suite: per-kernel micro rows + end to end.

    Returns ``(section, micro_rows, parity_checks)``; ``micro_rows`` also
    land in the report's top-level ``kernels`` list.  Without a compiled
    provider (C toolchain absent or disabled) the suite still
    runs and records the numpy rows — the compiled columns and the
    end-to-end compiled arm are simply absent.
    """
    from repro.kernels import (
        available_kernel_backends,
        compile_events,
        kernel_backend,
        kernel_tier_label,
        warm_kernels,
    )

    provider = kernel_backend()
    tiers = ("compiled", "numpy") if provider is not None else ("numpy",)
    checks = {}

    # Warm the compiled provider (cext build, every kernel signature
    # exercised once) before anything is timed, then require zero compile
    # events across the measured region: best-of-N must compare warm
    # steady-state paths only.
    warm_kernels()
    events_before = compile_events()

    micro_rows = []
    for name, params, run in _kernel_tier_workloads(smoke):
        if provider is not None:
            checks[f"kernels:{name}"] = _kernel_results_equal(
                run("compiled"), run("numpy")
            )
        best = _interleaved_best(
            {tier: (lambda t=tier: run(t)) for tier in tiers}, repeats
        )
        for tier in tiers:
            micro_rows.append(
                {
                    "name": f"{name}[{tier}]",
                    "params": dict(params),
                    "seconds": best[tier],
                    "per_call": best[tier],
                    "repeats": repeats,
                }
            )
        if provider is not None:
            micro_rows[-2]["speedup"] = best["numpy"] / best["compiled"]

    # End to end: the canonical flooding workload under kernels="compiled"
    # vs kernels="numpy" (the PR 9 path, unchanged), fingerprint-gated.
    trials = workload["trials"]
    configs = {
        tier: _config(workload, "batch").with_options(kernels=tier) for tier in tiers
    }
    fingerprints = {
        tier: _result_fingerprint(run_trials(config, trials))
        for tier, config in configs.items()
    }
    if provider is not None:
        checks["kernels:end_to_end"] = fingerprints["compiled"] == fingerprints["numpy"]
    best = _interleaved_best(
        {tier: (lambda c=configs[tier]: run_trials(c, trials)) for tier in tiers},
        repeats,
    )
    end_to_end = {
        f"{tier}_seconds": seconds for tier, seconds in best.items()
    }
    if provider is not None:
        end_to_end["speedup"] = best["numpy"] / best["compiled"]

    checks["kernels:warm_path_only"] = compile_events() == events_before

    section = {
        "workload": dict(workload),
        "provider": provider,
        "tier_label": kernel_tier_label("auto"),
        "backends": available_kernel_backends(),
        "end_to_end": end_to_end,
        "compile_events": events_before,
        "micro": [row["name"] for row in micro_rows],
    }
    return section, micro_rows, checks


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run_benchmarks(
    smoke: bool = False,
    repeats: int = None,
    label: str = "PR3",
    baselines: dict = None,
    suite: str = "all",
) -> dict:
    """Measure kernels + end-to-end throughput; returns the report dict.

    Args:
        smoke: small scales for CI (timings still recorded, but the run
            exists to exercise the machinery and the parity checks).
        repeats: best-of-N timing repeats (default 3, smoke 2).
        label: free-form tag stored in the report (e.g. the PR number).
        baselines: recorded external measurements ``{name: seconds}``
            (e.g. a previous PR's engine timed from its own checkout on
            the same host) — stored verbatim and turned into
            ``speedups['batch_vs_<name>']`` ratios against this run's
            ``batch`` time; names ending in ``"_protocols"`` become
            ``speedups['protocols_batch_vs_<name>']`` ratios against the
            protocol suite's batch total, and names ending in
            ``"_experiments"`` become
            ``speedups['experiments_vs_<name>']`` ratios against the
            experiments suite's total, and names ending in
            ``"_mobility"`` become ``speedups['mobility_batch_vs_<name>']``
            ratios against the mobility suite's batch total; names
            containing ``":"`` are recorded verbatim with no derived ratio
            (per-workload provenance annotations).  Only comparable when
            measured on the same machine with the same workload;
            provenance belongs in the label / commit message.
        suite: ``"core"`` (the kernel + flooding end-to-end suite),
            ``"protocols"`` (every registered protocol, batch vs scalar,
            parity-gated), ``"experiments"`` (the sweep-scheduler
            experiment suite at quick scale plus an adaptive arm,
            verdict-parity gated), ``"mobility"`` (per-mobility-model batch vs scalar
            over the flooding workload, parity-gated), ``"network"``
            (the temporal-graph analytics workloads — incremental
            connectivity profiles, exact MST thresholds, batched journeys
            and contact recording — vs their scalar/rebuild baselines,
            parity-gated), ``"kernels"`` (the compiled kernel tier vs the
            numpy reference paths: per-kernel micro-benchmarks through the
            public dispatch sites plus the canonical end-to-end run under
            ``kernels="compiled"`` vs ``kernels="numpy"``, every row
            parity-gated, provider warmed before timing with a zero
            compile-event delta asserted), or ``"all"``.
    """
    if suite not in ("core", "protocols", "experiments", "mobility", "network", "kernels", "all"):
        raise ValueError(
            "suite must be 'core', 'protocols', 'experiments', 'mobility', "
            f"'network', 'kernels' or 'all', got {suite!r}"
        )
    if repeats is None:
        repeats = 2 if smoke else 3
    workload = dict(SMOKE if smoke else CANONICAL)
    baselines = dict(baselines or {})

    kernels = []
    end_to_end = []
    speedups = {}
    parity = {"workload": None, "checks": {}, "ok": True}
    protocols = None

    if suite in ("core", "all"):
        kernels.extend(_bench_grid_index(repeats, smoke))
        kernels.extend(_bench_batch_any_within(repeats, smoke))

        end_to_end, speedups, e2e_parity = _bench_end_to_end(
            workload, repeats, include_scalar=True
        )
        parity = _parity_sweep(smoke)
        for name, ok in e2e_parity.items():
            parity["checks"][f"end_to_end:{name}"] = ok

    if suite in ("protocols", "all"):
        protocols, protocol_parity = _bench_protocols(repeats, smoke)
        parity["checks"].update(protocol_parity)

    experiments = None
    if suite in ("experiments", "all"):
        experiments, experiment_parity = _bench_experiments(repeats, smoke)
        parity["checks"].update(experiment_parity)

    mobility = None
    if suite in ("mobility", "all"):
        mobility, mobility_parity = _bench_mobility(repeats, smoke)
        parity["checks"].update(mobility_parity)

    network = None
    if suite in ("network", "all"):
        network, network_parity = _bench_network(repeats, smoke)
        parity["checks"].update(network_parity)

    kernel_tier = None
    if suite in ("kernels", "all"):
        kernel_tier, tier_rows, tier_parity = _bench_kernel_tier(workload, repeats, smoke)
        kernels.extend(tier_rows)
        parity["checks"].update(tier_parity)

    for name, seconds in baselines.items():
        if ":" in name:
            # Provenance annotations (e.g. "pr4:pause_extension_auto"):
            # recorded verbatim in ``baselines`` with no derived ratio.
            continue
        if name.endswith("_protocols"):
            if protocols is not None:
                speedups[f"protocols_batch_vs_{name}"] = (
                    float(seconds) / protocols["batch_total_seconds"]
                )
        elif name.endswith("_experiments"):
            if experiments is not None:
                speedups[f"experiments_vs_{name}"] = (
                    float(seconds) / experiments["total_seconds"]
                )
        elif name.endswith("_mobility"):
            if mobility is not None:
                speedups[f"mobility_batch_vs_{name}"] = (
                    float(seconds) / mobility["batch_total_seconds"]
                )
        elif end_to_end:
            batch_seconds = next(r["seconds"] for r in end_to_end if r["name"] == "batch")
            speedups[f"batch_vs_{name}"] = float(seconds) / batch_seconds
    parity["ok"] = all(parity["checks"].values())

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:  # pragma: no cover - depends on environment
        scipy_version = None
    from repro.kernels import kernel_tier_label

    report = {
        "schema_version": SCHEMA_VERSION,
        "label": label,
        "smoke": smoke,
        "suite": suite,
        "created_unix": int(time.time()),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy_version,
            "kernel_tier": kernel_tier_label("auto"),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "workloads": {"end_to_end": workload},
        "baselines": {name: float(seconds) for name, seconds in baselines.items()},
        "kernels": kernels,
        "end_to_end": end_to_end,
        "speedups": speedups,
        "parity": parity,
    }
    if protocols is not None:
        report["workloads"]["protocols"] = protocols["workload"]
        report["protocols"] = protocols
        speedups["protocol_baselines_batch_vs_scalar"] = protocols["speedup"]
    if experiments is not None:
        report["workloads"]["experiments"] = experiments["workload"]
        report["experiments"] = experiments
    if mobility is not None:
        report["workloads"]["mobility"] = mobility["workload"]
        report["mobility"] = mobility
        speedups["mobility_batch_vs_scalar"] = mobility["speedup"]
    if network is not None:
        report["workloads"]["network"] = network["workload"]
        report["network"] = network
        for row in network["workloads"]:
            speedups[f"network_{row['name']}_batch_vs_scalar"] = row["speedup"]
        speedups["network_batch_vs_scalar"] = network["speedup"]
    if kernel_tier is not None:
        report["workloads"]["kernel_tier"] = kernel_tier["workload"]
        report["kernel_tier"] = kernel_tier
        if "speedup" in kernel_tier["end_to_end"]:
            speedups["end_to_end_compiled_vs_numpy"] = kernel_tier["end_to_end"]["speedup"]
    return report


def render_table(report: dict) -> str:
    """Human-readable summary of a report."""
    lines = []
    lines.append(
        f"repro bench [{report['label']}] schema v{report['schema_version']}"
        + (" (smoke)" if report["smoke"] else "")
    )
    lines.append("")
    if report["kernels"]:
        lines.append(f"{'kernel':38s} {'per call':>12s}")
        for kernel in report["kernels"]:
            lines.append(f"{kernel['name']:38s} {kernel['per_call'] * 1e3:9.3f} ms")
        lines.append("")
    if report["end_to_end"]:
        workload = report["workloads"]["end_to_end"]
        lines.append(
            f"end to end (n={workload['n']}, trials={workload['trials']}, "
            f"radius_factor={workload['radius_factor']}, seed={workload['seed']}):"
        )
        for row in report["end_to_end"]:
            lines.append(f"  {row['name']:16s} {row['seconds']:8.3f} s")
    protocols = report.get("protocols")
    if protocols is not None:
        workload = protocols["workload"]
        lines.append("")
        lines.append(
            f"protocol suite (protocol_baselines {workload['scale']}, "
            f"n={workload['n']}, trials={workload['trials']}):"
        )
        for row in protocols["variants"]:
            lines.append(
                f"  {row['label']:22s} batch {row['batch_seconds']:7.3f} s  "
                f"scalar {row['scalar_seconds']:7.3f} s  {row['speedup']:5.2f}x"
            )
        lines.append(
            f"  {'TOTAL':22s} batch {protocols['batch_total_seconds']:7.3f} s  "
            f"scalar {protocols['scalar_total_seconds']:7.3f} s  "
            f"{protocols['speedup']:5.2f}x"
        )
    mobility = report.get("mobility")
    if mobility is not None:
        workload = mobility["workload"]
        lines.append("")
        lines.append(
            f"mobility suite (flooding, n={workload['n']}, "
            f"trials={workload['trials']}):"
        )
        for row in mobility["models"]:
            lines.append(
                f"  {row['model']:22s} batch {row['batch_seconds']:7.3f} s  "
                f"scalar {row['scalar_seconds']:7.3f} s  {row['speedup']:5.2f}x"
            )
        lines.append(
            f"  {'TOTAL':22s} batch {mobility['batch_total_seconds']:7.3f} s  "
            f"scalar {mobility['scalar_total_seconds']:7.3f} s  "
            f"{mobility['speedup']:5.2f}x"
        )
    network = report.get("network")
    if network is not None:
        lines.append("")
        lines.append("network suite (temporal-graph analytics, batched vs scalar):")
        for row in network["workloads"]:
            lines.append(
                f"  {row['name']:22s} batch {row['batch_seconds']:7.3f} s  "
                f"scalar {row['scalar_seconds']:7.3f} s  {row['speedup']:5.2f}x"
            )
        lines.append(
            f"  {'TOTAL':22s} batch {network['batch_total_seconds']:7.3f} s  "
            f"scalar {network['scalar_total_seconds']:7.3f} s  "
            f"{network['speedup']:5.2f}x"
        )
    kernel_tier = report.get("kernel_tier")
    if kernel_tier is not None:
        lines.append("")
        provider = kernel_tier["provider"] or "none"
        lines.append(
            f"kernel tier (provider={provider}, label={kernel_tier['tier_label']}):"
        )
        e2e = kernel_tier["end_to_end"]
        for tier in ("compiled", "numpy"):
            key = f"{tier}_seconds"
            if key in e2e:
                lines.append(f"  end_to_end[{tier}] {e2e[key]:8.3f} s")
        if "speedup" in e2e:
            lines.append(f"  end_to_end compiled vs numpy {e2e['speedup']:5.2f}x")
    experiments = report.get("experiments")
    if experiments is not None:
        workload = experiments["workload"]
        lines.append("")
        lines.append(
            f"experiments suite (sweep scheduler, scale={workload['scale']}, "
            f"seed={workload['seed']}):"
        )
        for row in experiments["experiments"]:
            lines.append(f"  {row['id']:22s} {row['seconds']:7.3f} s")
        lines.append(f"  {'TOTAL':22s} {experiments['total_seconds']:7.3f} s")
        adaptive = experiments.get("adaptive")
        if adaptive and adaptive["ids"]:
            lines.append(
                f"  adaptive arm ({', '.join(adaptive['ids'])}): "
                f"{adaptive['adaptive_trials']} trials vs "
                f"{adaptive['fixed_trials']} fixed "
                f"({adaptive['total_seconds']:.3f} s, verdict-parity gated)"
            )
    for name, ratio in report["speedups"].items():
        lines.append(f"  {name:40s} {ratio:5.2f}x")
    lines.append("")
    bad = [name for name, ok in report["parity"]["checks"].items() if not ok]
    if bad:
        lines.append(f"PARITY FAILURES: {bad}")
    else:
        lines.append(f"parity: {len(report['parity']['checks'])} checks ok")
    return "\n".join(lines)


def write_report(path: str, report: dict) -> str:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path
