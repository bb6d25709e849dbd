"""Registry of all experiments (one per paper artifact).

Modules self-describe via a module-level ``EXPERIMENT`` spec; the registry
imports them lazily so that ``import repro`` stays fast.
"""

from __future__ import annotations

import importlib

from repro.experiments.base import ExperimentResult, ExperimentSpec

__all__ = ["EXPERIMENT_MODULES", "all_ids", "get_spec", "run_experiment", "run_all"]

#: Experiment id -> module path.  Ordered as in DESIGN.md's index.
EXPERIMENT_MODULES = {
    "fig1_spatial": "repro.experiments.fig1_spatial",
    "fig1_destination": "repro.experiments.fig1_destination",
    "thm1_spatial": "repro.experiments.thm1_spatial",
    "thm2_destination": "repro.experiments.thm2_destination",
    "lemma6_rows": "repro.experiments.lemma6_rows",
    "lemma7_density": "repro.experiments.lemma7_density",
    "cor12_large_r": "repro.experiments.cor12_large_r",
    "thm3_radius": "repro.experiments.thm3_radius",
    "thm3_speed": "repro.experiments.thm3_speed",
    "thm3_scaling": "repro.experiments.thm3_scaling",
    "suburb_vs_cz": "repro.experiments.suburb_vs_cz",
    "connectivity": "repro.experiments.connectivity",
    "lemma13_turns": "repro.experiments.lemma13_turns",
    "lemma14_segments": "repro.experiments.lemma14_segments",
    "lemma15_suburb": "repro.experiments.lemma15_suburb",
    "thm18_lower": "repro.experiments.thm18_lower",
    "meeting_suburb": "repro.experiments.meeting_suburb",
    "protocol_baselines": "repro.experiments.protocol_baselines",
    "mobility_ablation": "repro.experiments.mobility_ablation",
    "transit_backbone": "repro.experiments.transit_backbone",
    "init_bias": "repro.experiments.init_bias",
    "thm10_growth": "repro.experiments.thm10_growth",
    "regime_map": "repro.experiments.regime_map",
    "trip_lengths": "repro.experiments.trip_lengths",
    "pause_extension": "repro.experiments.pause_extension",
    "speed_decay": "repro.experiments.speed_decay",
    "fault_tolerance": "repro.experiments.fault_tolerance",
}


def all_ids() -> list:
    """All experiment ids, in index order."""
    return list(EXPERIMENT_MODULES)


def get_spec(experiment_id: str) -> ExperimentSpec:
    """Load the spec for an experiment id."""
    if experiment_id not in EXPERIMENT_MODULES:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {', '.join(EXPERIMENT_MODULES)}"
        )
    module = importlib.import_module(EXPERIMENT_MODULES[experiment_id])
    return module.EXPERIMENT


def run_experiment(
    experiment_id: str,
    scale: str = "quick",
    seed: int = 0,
    jobs: int = 1,
    stopping=None,
    checkpoint: str | None = None,
    resume: bool = False,
    workers: int = 1,
    lease_ttl: float | None = None,
    max_retries: int | None = None,
) -> ExperimentResult:
    """Run one experiment by id.

    ``jobs`` / ``stopping`` / ``checkpoint`` / ``resume`` /
    ``workers`` / ``lease_ttl`` / ``max_retries`` thread through to
    sweep-scheduler experiments (see
    :meth:`~repro.experiments.base.ExperimentSpec.run`); requesting any of
    them on an experiment without scheduler support raises.
    """
    return get_spec(experiment_id).run(
        scale=scale,
        seed=seed,
        jobs=jobs,
        stopping=stopping,
        checkpoint=checkpoint,
        resume=resume,
        workers=workers,
        lease_ttl=lease_ttl,
        max_retries=max_retries,
    )


def run_all(
    scale: str = "quick",
    seed: int = 0,
    jobs: int = 1,
    stopping=None,
) -> list:
    """Run every registered experiment; returns the results in index order.

    ``jobs`` / ``stopping`` apply to the experiments that support them
    (the sweep-scheduler suite) and are skipped for the rest — a
    whole-suite run must not fail because closed-form experiments have no
    scheduler.  Checkpoints are per-sweep (one directory per plan), so
    ``run_all`` deliberately has no checkpoint parameter.
    """
    results = []
    for eid in all_ids():
        spec = get_spec(eid)
        results.append(
            spec.run(
                scale=scale,
                seed=seed,
                jobs=jobs if spec.accepts_jobs else 1,
                stopping=stopping if spec.accepts_stopping else None,
            )
        )
    return results
