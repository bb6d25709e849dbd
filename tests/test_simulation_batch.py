"""Batch engine: seed-for-seed parity, batched queries, sharding determinism."""

import numpy as np
import pytest

import repro.geometry.neighbors as neighbors
from repro.geometry.neighbors import BatchNeighborQuery, BruteForceNeighborEngine
from repro.kernels import kernel_backend, use_kernel_tier
from repro.mobility import (
    MODEL_REGISTRY,
    BatchManhattanRandomWaypoint,
    BatchRandomWalk,
    BatchRandomWaypoint,
    ManhattanRandomWaypoint,
    RandomWalk,
    RandomWaypoint,
)
from repro.protocols.flooding import BatchFloodingState
from repro.simulation import (
    SweepPlan,
    run_protocol_batch,
    run_sweep,
    run_trials,
    run_trials_parallel,
    standard_config,
)
from repro.simulation.config import _MOBILITY_OPTION_KEYS
from repro.simulation.runner import run_flooding


def assert_results_match(scalar_results, batch_results):
    assert len(scalar_results) == len(batch_results)
    for a, b in zip(scalar_results, batch_results):
        assert a.flooding_time == b.flooding_time
        assert a.completed == b.completed
        assert a.stalled == b.stalled
        assert a.n_steps == b.n_steps
        assert a.source == b.source
        assert a.final_coverage == b.final_coverage
        assert np.array_equal(a.informed_history, b.informed_history)
        assert a.cz_completion_time == b.cz_completion_time
        assert a.suburb_completion_time == b.suburb_completion_time
        assert a.source_in_central_zone == b.source_in_central_zone


class TestSeedForSeedParity:
    """The batch engine must reproduce the scalar engine trial-for-trial."""

    def test_flooding_times_match_scalar(self):
        config = standard_config(120, seed=7)
        scalar = run_trials(config.with_options(engine="scalar"), 8)
        batch = run_trials(config, 8)
        assert_results_match(scalar, batch)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"mobility": "rwp"},
            {"mobility": "random-walk"},
            {"mobility": "random-direction"},
            {"mobility": "mrwp-pause", "mobility_options": {"pause_time": 1.5}},
            {"multi_hop": True},
            {"init": "uniform"},
            {"init": "closed-form"},
            {"source": "central"},
            {"source": "suburb"},
            {"kernels": "numpy"},
            {"track_zones": False},
        ],
    )
    def test_parity_across_options(self, overrides):
        config = standard_config(80, seed=11, **overrides)
        scalar = run_trials(config.with_options(engine="scalar"), 5)
        batch = run_trials(config, 5)
        assert_results_match(scalar, batch)

    def test_parity_is_independent_of_batch_size(self):
        config = standard_config(80, seed=3)
        whole = run_trials(config, 7)
        sliced = run_trials(config.with_options(batch_size=3), 7)
        assert_results_match(whole, sliced)

    def test_sweep_with_batch_engine_matches_scalar(self):
        config = standard_config(80, seed=5)
        scalar = run_sweep(
            SweepPlan.over_parameter(config.with_options(engine="scalar"), "radius", [3.0, 4.0], 3)
        )
        batch = run_sweep(SweepPlan.over_parameter(config, "radius", [3.0, 4.0], 3))
        for a, b in zip(scalar, batch):
            assert a.key == b.key
            assert a.summary == b.summary
            assert_results_match(a.results, b.results)

    def test_batch_supports_every_registered_protocol(self):
        """PR 3: the batch engine is protocol-agnostic (the old behaviour
        — a deep ValueError for anything but flooding — is gone)."""
        config = standard_config(80, seed=1, protocol="gossip")
        results = run_trials(config, 2)
        assert len(results) == 2

    def test_unknown_protocol_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            standard_config(80, protocol="carrier-pigeon")

    def test_auto_engine_is_rejected_naming_valid_engines(self):
        with pytest.raises(ValueError, match=r"engine must be one of \('batch', 'scalar'\)"):
            standard_config(80, engine="auto")


class TestBatchMobility:
    """Vectorized multi-replica stepping vs B independent scalar models."""

    B, N, SIDE, SPEED = 5, 60, 10.0, 0.8

    def _rng_pairs(self, seed):
        root = np.random.SeedSequence(seed)
        children = root.spawn(self.B)
        return (
            [np.random.default_rng(c) for c in children],
            [np.random.default_rng(c) for c in children],
        )

    def test_batch_mrwp_trajectories_match_scalar(self):
        scalar_rngs, batch_rngs = self._rng_pairs(21)
        models = [
            ManhattanRandomWaypoint(self.N, self.SIDE, self.SPEED, rng=r)
            for r in scalar_rngs
        ]
        batch = BatchManhattanRandomWaypoint(self.N, self.SIDE, self.SPEED, batch_rngs)
        assert np.array_equal(
            batch.positions, np.stack([m.positions for m in models])
        )
        for _ in range(15):
            expected = np.stack([m.step() for m in models])
            assert np.array_equal(batch.step(), expected)
        assert np.array_equal(
            batch.turn_counts.reshape(self.B, self.N),
            np.stack([m.turn_counts for m in models]),
        )
        assert np.array_equal(
            batch.arrival_counts.reshape(self.B, self.N),
            np.stack([m.arrival_counts for m in models]),
        )

    def test_batch_rwp_trajectories_match_scalar(self):
        scalar_rngs, batch_rngs = self._rng_pairs(22)
        models = [
            RandomWaypoint(self.N, self.SIDE, self.SPEED, rng=r, pause_time=0.5)
            for r in scalar_rngs
        ]
        batch = BatchRandomWaypoint(self.N, self.SIDE, self.SPEED, batch_rngs, pause_time=0.5)
        for _ in range(15):
            expected = np.stack([m.step() for m in models])
            assert np.array_equal(batch.step(), expected)

    def test_batch_random_walk_trajectories_match_scalar(self):
        scalar_rngs, batch_rngs = self._rng_pairs(23)
        models = [
            RandomWalk(self.N, self.SIDE, move_radius=self.SPEED, rng=r)
            for r in scalar_rngs
        ]
        batch = BatchRandomWalk(self.N, self.SIDE, move_radius=self.SPEED, rngs=batch_rngs)
        for _ in range(15):
            expected = np.stack([m.step() for m in models])
            assert np.array_equal(batch.step(), expected)

    def test_step_returns_independent_copies_by_default(self):
        """Holding step() results across steps must be safe (the lock-step
        driver opts into the zero-copy view with copy=False)."""
        _scalar_rngs, batch_rngs = self._rng_pairs(26)
        batch = BatchManhattanRandomWaypoint(self.N, self.SIDE, self.SPEED, batch_rngs)
        first = batch.step()
        held = first.copy()
        second = batch.step()
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, held)  # not silently refreshed in place
        view = batch.step(copy=False)
        assert not view.flags.writeable
        assert np.array_equal(view, batch.positions)

    def test_inactive_replicas_freeze_state_and_streams(self):
        _scalar_rngs, batch_rngs = self._rng_pairs(24)
        batch = BatchManhattanRandomWaypoint(self.N, self.SIDE, self.SPEED, batch_rngs)
        frozen = batch.positions[2]
        active = np.ones(self.B, dtype=bool)
        active[2] = False
        for _ in range(10):
            positions = batch.step(active=active)
        assert np.array_equal(positions[2], frozen)
        assert not np.array_equal(positions[0], batch.positions[2])

    def test_batch_mrwp_marginals_stay_stationary(self):
        """Stepping must preserve Theorem 1's non-uniform marginal: the
        central box denser than a corner box, all positions in bounds."""
        side = 10.0
        batch = BatchManhattanRandomWaypoint(
            30, side, 0.7, [np.random.default_rng(s) for s in range(40)]
        )
        for _ in range(5):
            positions = batch.step()
        flat = positions.reshape(-1, 2)
        assert np.all(flat >= 0.0) and np.all(flat <= side)
        center = np.all(np.abs(flat - side / 2) < side / 6, axis=1).mean()
        corner = np.all(flat < side / 3, axis=1).mean()
        # Theorem 1: the central box carries ~2.6x the corner box's mass.
        assert center > corner * 1.5

    def test_batch_engine_rejects_mobility_without_batch_twin(self, monkeypatch):
        monkeypatch.setitem(MODEL_REGISTRY, "mrwp-scalar-only", ManhattanRandomWaypoint)
        monkeypatch.setitem(_MOBILITY_OPTION_KEYS, "mrwp-scalar-only", frozenset())
        with pytest.raises(ValueError, match="'mrwp-scalar-only' has no batched"):
            standard_config(50, mobility="mrwp-scalar-only")
        assert standard_config(50, mobility="mrwp-scalar-only", engine="scalar")


class TestBatchNeighborQuery:
    """Every stage of the batched queries vs a per-replica brute force."""

    #: cover: the numpy tier's cell cover (any_within only); candidates:
    #: the tiled candidate search, on the KD-tree when scipy imports and on
    #: the bucket grid as without scipy; compiled: the C kernels.
    PATHS = ["cover", "candidates", "grid-candidates", "compiled"]

    @pytest.fixture
    def path(self, request, monkeypatch):
        name = request.param
        if name != "cover":
            monkeypatch.setattr(BatchNeighborQuery, "_MAX_COVER_CELLS", 0)
        if name == "grid-candidates":
            monkeypatch.setattr(neighbors, "_KDTREE_PROBE", False)
        if name == "compiled":
            if kernel_backend() is None:
                pytest.skip("no compiled provider")
            with use_kernel_tier("compiled"):
                yield name
        else:
            yield name

    @pytest.fixture
    def workload(self):
        rng = np.random.default_rng(5)
        batch, n, side, radius = 6, 80, 12.0, 1.3
        positions = rng.uniform(0, side, size=(batch, n, 2))
        source_mask = rng.uniform(size=(batch, n)) < 0.3
        query_mask = ~source_mask & (rng.uniform(size=(batch, n)) < 0.8)
        return positions, source_mask, query_mask, side, radius

    @pytest.mark.parametrize("path", PATHS, indirect=True)
    def test_any_within_matches_scalar_engines(self, workload, path):
        positions, source_mask, query_mask, side, radius = workload
        batch = positions.shape[0]
        query = BatchNeighborQuery(side, batch)
        got = query.any_within(positions, source_mask, query_mask, radius)
        reference = BruteForceNeighborEngine(side)
        for b in range(batch):
            expected = np.zeros(positions.shape[1], dtype=bool)
            expected[query_mask[b]] = reference.any_within(
                positions[b][source_mask[b]], positions[b][query_mask[b]], radius
            )
            assert np.array_equal(got[b], expected), f"replica {b} path {path}"

    @pytest.mark.parametrize("path", PATHS[1:], indirect=True)
    def test_count_within_matches_scalar_engines(self, workload, path):
        positions, source_mask, query_mask, side, radius = workload
        batch = positions.shape[0]
        query = BatchNeighborQuery(side, batch)
        got = query.count_within(positions, source_mask, query_mask, radius)
        reference = BruteForceNeighborEngine(side)
        for b in range(batch):
            expected = np.zeros(positions.shape[1], dtype=np.intp)
            expected[query_mask[b]] = reference.count_within(
                positions[b][source_mask[b]], positions[b][query_mask[b]], radius
            )
            assert np.array_equal(got[b], expected)

    def test_no_cross_replica_hits(self):
        # One source in replica 0 only; replica 1's queries must all miss.
        positions = np.zeros((2, 3, 2))
        positions[1] = positions[0]  # identical coordinates across replicas
        source_mask = np.array([[True, False, False], [False, False, False]])
        query_mask = ~source_mask
        query = BatchNeighborQuery(5.0, 2)
        hits = query.any_within(positions, source_mask, query_mask, 1.0)
        assert hits[0, 1] and hits[0, 2]
        assert not hits[1].any()

    def test_has_no_strategy_choice(self):
        with pytest.raises(TypeError):
            BatchNeighborQuery(5.0, 2, backend="grid")

    def test_flooding_state_single_step(self):
        positions = np.array(
            [[[0.0, 0.0], [0.5, 0.0], [3.0, 3.0]], [[0.0, 0.0], [2.0, 0.0], [2.5, 0.0]]]
        )
        state = BatchFloodingState(3, 5.0, 1.0, sources=[0, 0])
        newly = state.step(positions)
        assert newly[0, 1] and not newly[0, 2]
        assert not newly[1].any()  # nearest agent is 2.0 > radius away
        assert state.informed_counts.tolist() == [2, 1]

    def test_flooding_state_multi_hop_saturates_components(self):
        positions = np.array([[[0.0, 0.0], [0.9, 0.0], [1.8, 0.0], [4.0, 4.0]]])
        state = BatchFloodingState(4, 6.0, 1.0, sources=[0], multi_hop=True)
        state.step(positions)
        assert state.informed[0].tolist() == [True, True, True, False]


class TestShardingDeterminism:
    """run_trials must be reproducible under batch slicing and processes."""

    def test_parallel_batch_matches_serial_and_scalar(self):
        config = standard_config(80, seed=13)
        scalar = run_trials(config.with_options(engine="scalar"), 6)
        batched = config.with_options(batch_size=2)
        serial = run_trials(batched, 6)
        parallel = run_trials_parallel(batched, 6, max_workers=2)
        sharded = run_trials_parallel(batched.with_options(batch_size=0), 6, max_workers=3)
        assert_results_match(scalar, serial)
        assert_results_match(scalar, parallel)
        assert_results_match(scalar, sharded)

    def test_parallel_sweep_batch_matches_serial(self):
        plan = SweepPlan.over_parameter(
            standard_config(80, seed=17), "radius", [3.0, 3.5], 4
        )
        serial = run_sweep(plan, jobs=1)
        parallel = run_sweep(plan, jobs=2)
        for a, b in zip(serial, parallel):
            assert a.key == b.key
            assert a.summary == b.summary
            assert_results_match(a.results, b.results)

    def test_repeated_calls_are_identical(self):
        config = standard_config(80, seed=19)
        first = run_trials(config, 4)
        second = run_trials(config, 4)
        assert_results_match(first, second)


class TestConfigKnobs:
    def test_engine_validation(self):
        with pytest.raises(ValueError, match="engine"):
            standard_config(50, engine="warp")

    def test_batch_size_validation(self):
        with pytest.raises(ValueError, match="batch_size"):
            standard_config(50, batch_size=-1)

    def test_defaults_are_batch(self):
        config = standard_config(50)
        assert config.engine == "batch"
        assert config.batch_size == 0

    def test_run_protocol_batch_requires_seed_seqs(self):
        config = standard_config(50)
        with pytest.raises(ValueError, match="seed_seqs"):
            run_protocol_batch(config, [])


class _StepLog:
    """Observer recording every call: step, informed count, newly informed."""

    def start(self, positions, protocol):
        self.calls = [(0, protocol.informed_count, ())]

    def observe(self, t, positions, protocol, newly):
        self.calls.append((t, protocol.informed_count, tuple(newly.tolist())))


class TestBatchObservers:
    """The per-replica observer hook of the batch engine."""

    @staticmethod
    def observers(config):
        from repro.core.cells import CellGrid
        from repro.core.spread import InformedCellTracker
        from repro.core.zones import ZonePartition

        grid = CellGrid.for_radius(config.side, config.radius)
        return [InformedCellTracker(grid, ZonePartition(grid, config.n)), _StepLog()]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_q_series_matches_scalar_simulation(self, seed):
        config = standard_config(
            600, radius_factor=1.6, seed=seed, source="central", track_zones=False
        )
        attached = [self.observers(config) for _ in range(4)]
        results = run_protocol_batch(
            config, np.random.SeedSequence(seed).spawn(4), observers=attached
        )
        # Replicas retire at different steps, so a hook that kept observing
        # retired replicas would show up as extra calls below.
        assert len({r.n_steps for r in results}) > 1
        seqs = np.random.SeedSequence(seed).spawn(4)  # spawning is stateful: fresh ones
        for seq, (tracker, log), result in zip(seqs, attached, results):
            reference = self.observers(config)
            run_flooding(config, seed_seq=seq, extra_observers=reference)
            assert tracker.q_series().tolist() == reference[0].q_series().tolist()
            assert log.calls == reference[1].calls
            assert [t for t, _, _ in log.calls] == list(range(result.n_steps + 1))
            assert result.extras["observers"] == [tracker, log]

    def test_stalled_replicas_stop_being_observed(self):
        config = standard_config(
            100, radius_factor=0.7, seed=3, max_steps=400,
            protocol="sir", protocol_options={"recovery_prob": 0.9},
        )
        logs = [[_StepLog()] for _ in range(6)]
        results = run_protocol_batch(config, np.random.SeedSequence(3).spawn(6), observers=logs)
        assert any(r.stalled for r in results)
        seqs = np.random.SeedSequence(3).spawn(6)
        for seq, (log,), result in zip(seqs, logs, results):
            reference = _StepLog()
            run_flooding(config, seed_seq=seq, extra_observers=[reference])
            assert log.calls == reference.calls
            assert len(log.calls) == result.n_steps + 1

    def test_observer_lists_must_match_the_batch(self):
        config = standard_config(50, seed=1)
        with pytest.raises(ValueError, match="observer lists"):
            run_protocol_batch(config, np.random.SeedSequence(1).spawn(3), observers=[[]])

    def test_no_observers_attach_nothing(self):
        (result,) = run_protocol_batch(standard_config(50, seed=1), [np.random.SeedSequence(1)])
        assert "observers" not in result.extras
