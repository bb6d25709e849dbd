"""Flooding experiments: scalar-oracle parity, jobs invariance, framework threading.

Every production path runs on the batch engine; the scalar engine is the
oracle.  :func:`scalar_oracle` reroutes the batch engine's entry point
through :func:`~repro.simulation.runner.run_flooding` (one reference trial
per seed sequence, observers included), so an experiment run under it is
the point-by-point scalar computation — and its rendered report must equal
the production run's, byte for byte.
"""

import inspect
import math

import numpy as np
import pytest

from repro.experiments.registry import all_ids, get_spec

#: Every experiment that runs its grid through the sweep scheduler.
SWEEP_EXPERIMENTS = [
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
]

#: Every experiment whose flooding trials go through ``run_trials`` or the
#: sweep scheduler (and so through the batch engine's entry point).
FLOODING_EXPERIMENTS = SWEEP_EXPERIMENTS + [
    "transit_backbone",
    "cor12_large_r",
    "protocol_baselines",
    "fault_tolerance",
]

#: Cheap members re-run under process fan-out (jobs=2).
JOBS_EXPERIMENTS = ["thm3_radius", "mobility_ablation", "thm10_growth"]


@pytest.fixture()
def scalar_oracle(monkeypatch):
    """Run every batch of trials on the scalar reference engine instead."""
    import repro.simulation.batch as batch_mod
    from repro.simulation.runner import run_flooding

    calls = []

    def oracle(config, seed_seqs, observers=None):
        calls.append(config)
        seed_seqs = list(seed_seqs)
        per_trial = observers if observers is not None else [None] * len(seed_seqs)
        return [
            run_flooding(config, seed_seq=seq, extra_observers=extra)
            for seq, extra in zip(seed_seqs, per_trial)
        ]

    monkeypatch.setattr(batch_mod, "run_protocol_batch", oracle)
    return calls


class TestScalarOracleParity:
    @pytest.mark.parametrize("experiment_id", FLOODING_EXPERIMENTS)
    def test_report_equals_scalar_oracle_run(self, experiment_id, request):
        spec = get_spec(experiment_id)
        production = spec.run(scale="quick", seed=0)
        calls = request.getfixturevalue("scalar_oracle")
        oracle = spec.run(scale="quick", seed=0)
        assert calls, "the oracle patch must see the experiment's trials"
        assert oracle.to_text() == production.to_text()

    @pytest.mark.parametrize("experiment_id", JOBS_EXPERIMENTS)
    def test_jobs_invariant(self, experiment_id):
        spec = get_spec(experiment_id)
        serial = spec.run(scale="quick", seed=0, jobs=1)
        fanned = spec.run(scale="quick", seed=0, jobs=2)
        assert serial.to_text() == fanned.to_text()
        assert serial.to_csv() == fanned.to_csv()


class TestThm18Lower:
    """The conditioned trials on the batch engine == a plain scalar loop."""

    @staticmethod
    def scalar_trials(n, side, d, radius, fraction, speed, bound, trials, seed):
        from repro.experiments.thm18_lower import _conditioned_state
        from repro.mobility.mrwp import ManhattanRandomWaypoint
        from repro.mobility.stationary import PalmStationarySampler
        from repro.protocols.flooding import FloodingProtocol

        sampler = PalmStationarySampler(side)
        steps = []
        for trial in range(trials):
            rng = np.random.default_rng([seed, trial, int(1e6 * fraction)])
            state = _conditioned_state(n, side, d, sampler, rng)
            source = int(np.argmax(np.max(state.positions, axis=1)))
            model = ManhattanRandomWaypoint(n, side, speed, rng=rng, init=state)
            protocol = FloodingProtocol(n, side, radius, source)
            informed_at = math.inf
            for step in range(1, int(8 * bound) + 201):
                protocol.step(model.step())
                if protocol.informed[0]:
                    informed_at = step
                    break
            steps.append(informed_at)
        return steps

    @pytest.mark.parametrize("fraction,seed", [(0.1, 0), (0.05, 3)])
    def test_batch_trials_match_plain_scalar_loop(self, fraction, seed):
        from repro.core import theory
        from repro.experiments.thm18_lower import _fraction_trials

        n = 400
        side = math.sqrt(n)
        d = side / n ** (1.0 / 3.0)
        radius = 0.9 * d
        speed = fraction * radius
        bound = theory.flooding_lower_bound(n, side, radius, speed, d_constant=1.0)
        args = (n, side, d, radius, fraction, speed, bound, 3, seed)
        assert _fraction_trials(args) == self.scalar_trials(*args)


class TestFrameworkThreading:
    def test_sweep_experiments_advertise_support(self):
        for experiment_id in SWEEP_EXPERIMENTS:
            assert get_spec(experiment_id).accepts_jobs, experiment_id

    def test_non_scheduler_experiment_rejects_jobs(self):
        spec = get_spec("fig1_spatial")
        assert not spec.accepts_jobs
        with pytest.raises(ValueError, match="fan-out"):
            spec.run(scale="quick", seed=0, jobs=2)

    def test_no_runner_takes_an_engine(self):
        # One production engine: no experiment, and not ExperimentSpec.run,
        # offers an engine selection.
        assert "engine" not in inspect.signature(get_spec("thm3_radius").run).parameters
        for experiment_id in all_ids():
            spec = get_spec(experiment_id)
            assert "engine" not in inspect.signature(spec.runner).parameters, experiment_id
            assert isinstance(spec.accepts_jobs, bool)

    def test_run_trials_experiments_have_no_scheduler_options(self):
        spec = get_spec("protocol_baselines")
        assert not spec.accepts_jobs and not spec.accepts_stopping
