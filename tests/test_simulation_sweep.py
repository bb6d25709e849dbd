"""Sweep scheduler: seed-for-seed parity, dedup, observers, fan-out."""

import numpy as np
import pytest

from repro.mobility import MODEL_REGISTRY, ManhattanRandomWaypoint
from repro.simulation.config import _MOBILITY_OPTION_KEYS, FloodingConfig, standard_config
from repro.simulation.metrics import InformedRecorder
from repro.simulation.runner import run_trials
from repro.simulation.sweep import SweepPlan, SweepPoint, run_sweep

BASE = standard_config(140, radius_factor=1.1, max_steps=600, seed=5)


def fingerprint(results):
    """The full observable outcome of a trial list."""
    return [
        (
            r.flooding_time,
            r.completed,
            r.stalled,
            r.n_steps,
            r.source,
            tuple(np.asarray(r.informed_history).tolist()),
            r.cz_completion_time,
            r.suburb_completion_time,
            r.source_in_central_zone,
        )
        for r in results
    ]


#: A mobility model registered without a batch twin, as a user-supplied
#: scalar-only model would be: it runs only on ``engine="scalar"``.
SCALAR_ONLY = "mrwp-scalar-only"


@pytest.fixture()
def scalar_only_mobility(monkeypatch):
    monkeypatch.setitem(MODEL_REGISTRY, SCALAR_ONLY, ManhattanRandomWaypoint)
    monkeypatch.setitem(_MOBILITY_OPTION_KEYS, SCALAR_ONLY, frozenset())
    return SCALAR_ONLY


def small_plan():
    plan = SweepPlan()
    plan.add(BASE, 3, key="base")
    plan.add(BASE.with_options(radius=BASE.radius * 1.5), 2, key="wide")
    plan.add(BASE.with_options(seed=11), 4, key="reseeded")
    return plan


class TestPlan:
    def test_add_returns_point(self):
        plan = SweepPlan()
        point = plan.add(BASE, 2, key="k")
        assert isinstance(point, SweepPoint)
        assert len(plan) == 1 and list(plan)[0].key == "k"

    def test_over_parameter_keys_by_value(self):
        plan = SweepPlan.over_parameter(BASE, "radius", [2.0, 3.0], n_trials=2)
        assert [p.key for p in plan] == [2.0, 3.0]
        assert [p.config.radius for p in plan] == [2.0, 3.0]

    def test_tuple_points(self):
        plan = SweepPlan([(BASE, 2), (BASE, 1, "labelled")])
        assert [p.key for p in plan] == [None, "labelled"]

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            SweepPoint(BASE, 0)

    def test_rejects_non_config(self):
        with pytest.raises(TypeError):
            SweepPoint("not a config", 1)

    def test_rejects_non_callable_factory(self):
        with pytest.raises(TypeError):
            SweepPoint(BASE, 1, observer_factory="not callable")


class TestParityAgainstHandLoop:
    """The acceptance gate: scheduling == hand-looping run_trials."""

    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_bit_identical_per_point(self, engine, jobs, scalar_only_mobility):
        plan = SweepPlan(
            SweepPoint(p.config.with_options(engine=engine), p.n_trials, key=p.key)
            for p in small_plan()
        )
        # The engine-misdispatch regression: a point on a different engine
        # than its neighbours must run through its own.
        plan.add(
            BASE.with_options(mobility=scalar_only_mobility, engine="scalar"), 2, key="scalar-only"
        )
        points = run_sweep(plan, jobs=jobs)
        assert [p.key for p in points] == ["base", "wide", "reseeded", "scalar-only"]
        for point, source in zip(points, plan.points):
            # The scalar engine is the oracle for every point.
            expected = run_trials(source.config.with_options(engine="scalar"), source.n_trials)
            assert fingerprint(point.results) == fingerprint(expected), (engine, jobs, point.key)
            assert point.n_trials == source.n_trials == len(point.results)
        assert [p.engine for p in points] == [engine] * 3 + ["scalar"]

    def test_point_runs_on_its_config_engine(self):
        assert BASE.engine == "batch"
        (point,) = run_sweep([SweepPoint(BASE, 2)])
        assert point.engine == "batch"
        scalar = BASE.with_options(engine="scalar")
        (reference,) = run_sweep([SweepPoint(scalar, 2)])
        assert reference.engine == "scalar"
        assert fingerprint(point.results) == fingerprint(reference.results)

    def test_batch_size_slicing_is_invisible(self):
        reference = run_sweep(small_plan())
        sliced = run_sweep(small_plan(), batch_size=1)
        for a, b in zip(reference, sliced):
            assert fingerprint(a.results) == fingerprint(b.results)

    def test_over_parameter_matches_hand_loop(self):
        points = run_sweep(SweepPlan.over_parameter(BASE, "radius", [2.5, 3.5], n_trials=2))
        assert [point.key for point in points] == [2.5, 3.5]
        for point in points:
            expected = run_trials(BASE.with_options(radius=point.key), 2)
            assert fingerprint(point.results) == fingerprint(expected)
            assert point.summary.n_trials == 2


class TestDedup:
    def test_duplicate_configs_execute_once(self, monkeypatch):
        import sys

        sweep_mod = sys.modules["repro.simulation.sweep"]

        calls = []
        original = sweep_mod._run_sweep_job

        def counting(args):
            calls.append(args)
            return original(args)

        monkeypatch.setattr(sweep_mod, "_run_sweep_job", counting)
        plan = SweepPlan()
        plan.add(BASE, 3, key="a")
        plan.add(BASE, 2, key="b")  # same config, fewer trials
        points = run_sweep(plan)
        # One deduplicated batch job serves both points.
        assert len(calls) == 1
        assert fingerprint(points[1].results) == fingerprint(points[0].results)[:2]

    def test_prefix_matches_standalone_run(self):
        plan = SweepPlan()
        plan.add(BASE, 2, key="short")
        plan.add(BASE, 4, key="long")
        short, long = run_sweep(plan)
        assert fingerprint(short.results) == fingerprint(run_trials(BASE, 2))
        assert fingerprint(long.results) == fingerprint(run_trials(BASE, 4))


class TestPointResult:
    def test_completion_fractions(self):
        # A horizon of 1 step cannot complete flooding at this scale.
        hopeless = BASE.with_options(max_steps=1)
        done, not_done = run_sweep([SweepPoint(BASE, 2, "ok"), SweepPoint(hopeless, 2, "no")])
        assert done.completed_fraction == 1.0 and done.finite_fraction == 1.0
        assert done.completion_label == "2/2"
        assert not_done.completed_fraction == 0.0 and not_done.finite_fraction == 0.0
        assert not_done.completion_label == "0/2"
        assert np.isnan(not_done.masked_mean())
        assert np.isfinite(done.masked_mean())

    def test_masked_mean_threshold(self):
        (point,) = run_sweep([SweepPoint(BASE, 2)])
        assert point.masked_mean(min_finite_fraction=1.0) == point.summary.mean

    def test_empty_plan(self):
        assert run_sweep(SweepPlan()) == []

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            run_sweep(small_plan(), jobs=0)


def _recorder_factory(config):
    """Top-level so worker processes can pickle it."""
    return [InformedRecorder()]


class TestObservers:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_observers_returned_per_trial(self, jobs):
        plan = SweepPlan()
        plan.add(BASE, 2, key="obs", observer_factory=_recorder_factory)
        (point,) = run_sweep(plan, jobs=jobs)
        assert point.engine == "batch"  # the batch engine feeds observers per replica
        recorders = point.observers()
        assert len(recorders) == 2
        for recorder, result in zip(recorders, point.results):
            assert recorder.informed_history().tolist() == result.informed_history.tolist()

    def test_observer_results_match_plain_runs(self):
        plan = SweepPlan()
        plan.add(BASE, 2, observer_factory=_recorder_factory)
        (point,) = run_sweep(plan)
        expected = run_trials(BASE.with_options(engine="scalar"), 2)
        assert fingerprint(point.results) == fingerprint(expected)

    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_observer_series_identical_across_engines(self, engine):
        plan = SweepPlan()
        plan.add(BASE.with_options(engine=engine), 3, observer_factory=_recorder_factory)
        (point,) = run_sweep(plan)
        assert point.engine == engine
        reference = run_trials(BASE.with_options(engine="scalar"), 3)
        assert [r.informed_history().tolist() for r in point.observers()] == [
            r.informed_history.tolist() for r in reference
        ]

    def test_plain_runs_carry_no_observers(self):
        (point,) = run_sweep([SweepPoint(BASE, 1)])
        assert "observers" not in point.results[0].extras


class TestInitValidation:
    """The build_model init bugfix: unknown inits fail loudly, uniformly."""

    def test_unknown_init_rejected_at_construction(self):
        for mobility in ("mrwp", "mrwp-pause", "rwp"):
            with pytest.raises(ValueError, match="init"):
                FloodingConfig(
                    n=50, side=7.0, radius=2.0, speed=0.5, mobility=mobility, init="warp"
                )

    def test_valid_inits_accepted(self):
        for init in ("stationary", "closed-form", "uniform"):
            config = BASE.with_options(init=init)
            assert config.init == init

    def test_closed_form_is_mrwp_only(self):
        from repro.simulation.runner import build_model

        config = BASE.with_options(init="closed-form")
        assert build_model(config, np.random.default_rng(0)).n == BASE.n
        for mobility in ("rwp", "mrwp-pause"):
            narrow = config.with_options(mobility=mobility)
            with pytest.raises(ValueError, match="init"):
                build_model(narrow, np.random.default_rng(0))

    def test_uniform_init_not_coerced_for_pause(self):
        # Pre-fix, mrwp-pause silently coerced anything unknown to
        # "stationary"; "uniform" must reach the model untouched.
        from repro.simulation.runner import build_model

        config = BASE.with_options(mobility="mrwp-pause", init="uniform")
        model = build_model(config, np.random.default_rng(0))
        assert model.n == BASE.n
