"""Cross-validation of the neighbor engines against brute force."""

import numpy as np
import pytest

import repro.geometry.neighbors as neighbors_module
from repro.geometry.neighbors import (
    BatchNeighborQuery,
    BruteForceNeighborEngine,
    GridNeighborEngine,
    available_backends,
)


def brute_batch_hits(positions, sources, queries, radius):
    """Per-replica ``any_within`` by brute force, shaped like the batch query."""
    brute = BruteForceNeighborEngine(1.0)
    hits = np.zeros(sources.shape, dtype=bool)
    for b in range(positions.shape[0]):
        hits[b, queries[b]] = brute.any_within(
            positions[b][sources[b]], positions[b][queries[b]], radius
        )
    return hits


class TestEngineConstruction:
    def test_bad_side_rejected(self):
        with pytest.raises(ValueError):
            GridNeighborEngine(-1.0)


class TestGridAgreement:
    def test_any_within_agrees_with_brute(self, rng):
        sources = rng.uniform(0, 10, (70, 2))
        queries = rng.uniform(0, 10, (50, 2))
        engine = GridNeighborEngine(10.0)
        brute = BruteForceNeighborEngine(10.0)
        for radius in (0.3, 1.0, 4.0):
            assert np.array_equal(
                engine.any_within(sources, queries, radius),
                brute.any_within(sources, queries, radius),
            )

    def test_count_within_agrees(self, rng):
        sources = rng.uniform(0, 10, (70, 2))
        queries = rng.uniform(0, 10, (30, 2))
        engine = GridNeighborEngine(10.0)
        brute = BruteForceNeighborEngine(10.0)
        assert np.array_equal(
            engine.count_within(sources, queries, 1.5),
            brute.count_within(sources, queries, 1.5),
        )

    def test_pairs_within_agrees(self, rng):
        points = rng.uniform(0, 10, (80, 2))
        engine = GridNeighborEngine(10.0)
        brute = BruteForceNeighborEngine(10.0)
        got = {tuple(sorted(p)) for p in engine.pairs_within(points, 1.1).tolist()}
        expected = {tuple(sorted(p)) for p in brute.pairs_within(points, 1.1).tolist()}
        assert got == expected

    def test_empty_sources(self):
        engine = GridNeighborEngine(10.0)
        queries = np.array([[5.0, 5.0]])
        assert not engine.any_within(np.empty((0, 2)), queries, 1.0)[0]
        assert engine.count_within(np.empty((0, 2)), queries, 1.0)[0] == 0

    def test_empty_points_pairs(self):
        engine = GridNeighborEngine(10.0)
        assert engine.pairs_within(np.empty((0, 2)), 1.0).shape == (0, 2)

    def test_coincident_points(self):
        """Duplicate positions (possible under MRWP corners) are handled."""
        engine = GridNeighborEngine(10.0)
        points = np.array([[5.0, 5.0], [5.0, 5.0], [9.0, 9.0]])
        pairs = engine.pairs_within(points, 0.5)
        assert {tuple(sorted(p)) for p in pairs.tolist()} == {(0, 1)}


class TestBoundSnapshot:
    """bind(): one index per snapshot, masked index-based queries."""

    def test_snapshot_matches_coordinate_api(self, rng):
        points = rng.uniform(0, 10, (120, 2))
        engine = GridNeighborEngine(10.0)
        brute = BruteForceNeighborEngine(10.0)
        snapshot = engine.bind(points, 1.2)
        for seed in range(3):
            sub = np.random.default_rng(seed)
            source_idx = np.nonzero(sub.uniform(size=120) < 0.3)[0]
            query_idx = np.nonzero(sub.uniform(size=120) < 0.5)[0]
            expected_any = brute.any_within(points[source_idx], points[query_idx], 1.2)
            expected_count = brute.count_within(points[source_idx], points[query_idx], 1.2)
            assert np.array_equal(snapshot.any_within(source_idx, query_idx), expected_any)
            assert np.array_equal(snapshot.count_within(source_idx, query_idx), expected_count)

    def test_snapshot_dense_sources_few_queries(self, rng):
        """Dense sources, few queries: the late rounds of a flooding run."""
        points = rng.uniform(0, 10, (200, 2))
        engine = GridNeighborEngine(10.0)
        brute = BruteForceNeighborEngine(10.0)
        snapshot = engine.bind(points, 1.5)
        source_idx = np.arange(190)
        query_idx = np.arange(190, 200)
        expected = brute.any_within(points[source_idx], points[query_idx], 1.5)
        assert np.array_equal(snapshot.any_within(source_idx, query_idx), expected)

    def test_snapshot_empty_sides(self, rng):
        points = rng.uniform(0, 10, (30, 2))
        snapshot = GridNeighborEngine(10.0).bind(points, 1.0)
        empty = np.empty(0, dtype=np.intp)
        some = np.arange(5)
        assert snapshot.any_within(empty, some).tolist() == [False] * 5
        assert snapshot.count_within(empty, some).tolist() == [0] * 5
        assert snapshot.any_within(some, empty).size == 0

    def test_successive_binds_match_brute_force(self, rng):
        """Successive binds on one engine with drifting points: every round
        must agree with brute force (no state leaks between snapshots)."""
        engine = GridNeighborEngine(10.0)
        fresh = BruteForceNeighborEngine(10.0)
        points = rng.uniform(0, 10, (150, 2))
        for _ in range(6):
            points = np.clip(points + rng.uniform(-0.3, 0.3, points.shape), 0, 10)
            source_idx = np.nonzero(rng.uniform(size=150) < 0.4)[0]
            query_idx = np.nonzero(rng.uniform(size=150) < 0.4)[0]
            got = engine.bind(points, 1.1).any_within(source_idx, query_idx)
            expected = fresh.bind(points, 1.1).any_within(source_idx, query_idx)
            assert np.array_equal(got, expected)

    def assert_snapshots_agree(self, engine, points, radius, rng):
        """Every snapshot primitive must agree with brute force."""
        brute = BruteForceNeighborEngine(engine.side)
        n = points.shape[0]
        source_idx = np.nonzero(rng.uniform(size=n) < 0.5)[0]
        query_idx = np.setdiff1d(np.arange(n), source_idx)
        got = engine.bind(points, radius)
        expected = brute.bind(points, radius)
        assert np.array_equal(
            got.any_within(source_idx, query_idx), expected.any_within(source_idx, query_idx)
        )
        assert np.array_equal(
            got.count_within(source_idx, query_idx),
            expected.count_within(source_idx, query_idx),
        )
        pairs = {tuple(sorted(p)) for p in got.pairs_within().tolist()}
        assert pairs == {tuple(sorted(p)) for p in expected.pairs_within().tolist()}

    def test_rebind_exact_when_points_cross_bucket_boundaries(self, rng):
        """Adversarial: points ping-ponging exactly across bucket edges
        between binds of one engine."""
        engine = GridNeighborEngine(12.0)
        edges = np.arange(1, 11, dtype=np.float64)
        points = np.stack([edges, np.full(10, 5.0)], axis=1)
        for offset in (-1e-9, 1e-9, -0.5, 0.5, 0.0):
            moved = points.copy()
            moved[:, 0] = edges + offset
            self.assert_snapshots_agree(engine, moved, 1.0, rng)

    def test_rebind_radius_close_to_bucket_side(self, rng):
        """Adversarial: radii straddling the grid bucket side (== radius
        for the grid engine's default cell size)."""
        engine = GridNeighborEngine(12.0)
        points = rng.uniform(0, 12.0, (120, 2))
        for radius in (0.999, 1.0, 1.000001):
            points = np.clip(points + rng.uniform(-0.3, 0.3, points.shape), 0, 12.0)
            self.assert_snapshots_agree(engine, points, radius, rng)

    def test_rebind_after_point_count_change(self, rng):
        """A snapshot carries nothing over: a bind with a different number
        of points is exact too."""
        engine = GridNeighborEngine(12.0)
        for n in (50, 70, 20):
            self.assert_snapshots_agree(engine, rng.uniform(0, 12.0, (n, 2)), 1.0, rng)


class TestCachesAndProbes:
    def test_available_backends_probe_is_cached(self, monkeypatch):
        """The scipy probe must not re-run the import machinery per call."""
        first = available_backends()
        calls = []
        real_import = __builtins__["__import__"] if isinstance(__builtins__, dict) else __builtins__.__import__

        def counting_import(name, *args, **kwargs):
            if name.startswith("scipy"):
                calls.append(name)
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr("builtins.__import__", counting_import)
        assert available_backends() == first
        assert available_backends() == first
        assert calls == []

    def test_lists_kdtree_exactly_when_scipy_imports(self):
        """Run provenance reads this list: the KD-tree is listed first
        whenever scipy imports, and the grid is always there."""
        try:
            import scipy.spatial  # noqa: F401
        except ImportError:
            expected = ["grid"]
        else:
            expected = ["kdtree", "grid"]
        assert available_backends() == expected

    def test_scipy_blocked_leaves_the_grid(self, block_scipy):
        assert available_backends() == ["grid"]

    def test_available_backends_returns_fresh_list(self):
        """Callers may mutate the returned list without corrupting the cache."""
        first = available_backends()
        first.append("bogus")
        assert "bogus" not in available_backends()

    def test_grid_snapshot_shares_one_index_per_source_set(self, rng):
        """any_within + count_within on one bound snapshot build one index
        (array identity is stable inside a snapshot, unlike the
        coordinate API where every call gathers fresh arrays)."""
        engine = GridNeighborEngine(10.0)
        points = rng.uniform(0, 10, (60, 2))
        snapshot = engine.bind(points, 1.0)
        source_idx = np.arange(20)
        query_idx = np.arange(20, 60)
        snapshot.any_within(source_idx, query_idx)
        index_first = snapshot._memo[1]
        snapshot.count_within(source_idx, query_idx)
        assert snapshot._memo[1] is index_first
        # A different source set must index afresh.
        other_idx = np.arange(10)
        snapshot.any_within(other_idx, query_idx)
        assert snapshot._memo[1] is not index_first

    def test_grid_memo_detects_in_place_mutation(self, rng):
        """Advancing a positions array *in place* between calls must not
        serve a stale index (regression guard for the memo)."""
        engine = GridNeighborEngine(10.0)
        brute = BruteForceNeighborEngine(10.0)
        sources = rng.uniform(0, 6, (50, 2))
        queries = rng.uniform(0, 10, (20, 2))
        engine.any_within(sources, queries, 1.0)
        sources += 3.0  # in-place advance, same object identity
        assert np.array_equal(
            engine.any_within(sources, queries, 1.0),
            brute.any_within(sources, queries, 1.0),
        )


class TestDilate:
    def naive(self, occ, reach):
        batch, m, _ = occ.shape
        out = np.zeros_like(occ)
        for b in range(batch):
            for i in range(m):
                for j in range(m):
                    lo_i, hi_i = max(0, i - reach), min(m, i + reach + 1)
                    lo_j, hi_j = max(0, j - reach), min(m, j + reach + 1)
                    out[b, i, j] = occ[b, lo_i:hi_i, lo_j:hi_j].any()
        return out

    @pytest.mark.parametrize("reach", [0, 1, 2, 3, 5])
    def test_matches_naive_box(self, reach, rng):
        occ = rng.uniform(size=(2, 9, 9)) < 0.15
        got = neighbors_module._dilate(occ, reach)
        assert np.array_equal(got, self.naive(occ, reach))

    def test_input_not_mutated(self, rng):
        occ = rng.uniform(size=(1, 6, 6)) < 0.3
        original = occ.copy()
        neighbors_module._dilate(occ, 3)
        assert np.array_equal(occ, original)


class TestCoarseCoverDivisor:
    def test_sqrt5_own_cell_cover_stays_exact(self, rng, monkeypatch):
        """Divisors below 2*sqrt2 shrink the certain-hit box to the
        query's own cell (reach_sure == 0); the seed's sqrt(5) cover must
        stay exact."""
        import math

        monkeypatch.setattr(BatchNeighborQuery, "_COVER_DIVISOR", math.sqrt(5.0))
        side, radius = 12.0, 1.4
        positions = rng.uniform(0, side, size=(3, 100, 2))
        informed = rng.uniform(size=(3, 100)) < 0.35
        query = BatchNeighborQuery(side, 3)
        got = query.any_within(positions, informed, ~informed, radius)
        assert np.array_equal(got, brute_batch_hits(positions, informed, ~informed, radius))


class TestContactsWithin:
    """Bipartite contact materialization (the neighbor-sampling primitive)."""

    def _reference(self, points, source_idx, query_idx, radius):
        diff = points[query_idx][:, None, :] - points[source_idx][None, :, :]
        dist2 = np.sum(diff * diff, axis=-1)
        qpos, spos = np.nonzero(dist2 <= radius * radius)
        return set(zip(source_idx[spos].tolist(), query_idx[qpos].tolist()))

    def test_matches_brute_pairs(self, rng):
        points = rng.uniform(0, 10, (150, 2))
        engine = GridNeighborEngine(10.0)
        snapshot = engine.bind(points, 1.3)
        informed = rng.uniform(size=150) < 0.4
        source_idx = np.nonzero(informed)[0]
        query_idx = np.nonzero(~informed)[0]
        s, q = snapshot.contacts_within(source_idx, query_idx)
        assert set(zip(s.tolist(), q.tolist())) == self._reference(
            points, source_idx, query_idx, 1.3
        )

    def test_dense_sources_few_queries(self, rng):
        """The late-round shape (sources ~ n, a handful of queries)."""
        points = rng.uniform(0, 12, (200, 2))
        engine = GridNeighborEngine(12.0)
        snapshot = engine.bind(points, 1.5)
        source_idx = np.arange(197)
        query_idx = np.array([197, 198, 199])
        s, q = snapshot.contacts_within(source_idx, query_idx)
        assert set(zip(s.tolist(), q.tolist())) == self._reference(
            points, source_idx, query_idx, 1.5
        )

    def test_empty_sides(self, rng):
        points = rng.uniform(0, 10, (20, 2))
        snapshot = GridNeighborEngine(10.0).bind(points, 1.0)
        empty = np.empty(0, dtype=np.intp)
        for source_idx, query_idx in ((empty, np.arange(20)), (np.arange(20), empty)):
            s, q = snapshot.contacts_within(source_idx, query_idx)
            assert s.size == 0 and q.size == 0


class TestBatchContactsAndPairs:
    """Batched bipartite contacts and per-replica edge lists."""

    def test_batch_contacts_match_scalar(self, rng):
        batch, n, side, radius = 4, 90, 11.0, 1.4
        positions = rng.uniform(0, side, size=(batch, n, 2))
        informed = rng.uniform(size=(batch, n)) < 0.4
        query = BatchNeighborQuery(side, batch)
        snapshot = query.bind(positions)
        rep, s, t = snapshot.contacts_within(informed, ~informed, radius)
        brute = BruteForceNeighborEngine(side)
        for b in range(batch):
            scalar = brute.bind(positions[b], radius).contacts_within(
                np.nonzero(informed[b])[0], np.nonzero(~informed[b])[0]
            )
            expected = set(zip(scalar[0].tolist(), scalar[1].tolist()))
            got = set(zip(s[rep == b].tolist(), t[rep == b].tolist()))
            assert got == expected, b

    def test_batch_pairs_match_scalar_engines(self, rng):
        batch, n, side, radius = 3, 80, 10.0, 1.2
        positions = rng.uniform(0, side, size=(batch, n, 2))
        query = BatchNeighborQuery(side, batch)
        rep, i, j = query.bind(positions).pairs_within(radius)
        assert np.all(i < j)
        brute = BruteForceNeighborEngine(side)
        for b in range(batch):
            expected = {tuple(p) for p in brute.pairs_within(positions[b], radius).tolist()}
            got = set(zip(i[rep == b].tolist(), j[rep == b].tolist()))
            assert got == expected, b

    def test_pairs_rows_restriction(self, rng):
        batch, n, side, radius = 4, 60, 9.0, 1.5
        positions = rng.uniform(0, side, size=(batch, n, 2))
        query = BatchNeighborQuery(side, batch)
        rows = np.array([1, 3])
        rep, i, j = query.bind(positions).pairs_within(radius, rows=rows)
        assert set(np.unique(rep)) <= {1, 3}
        full_rep, full_i, full_j = query.bind(positions).pairs_within(radius)
        for b in rows:
            expected = set(zip(full_i[full_rep == b].tolist(), full_j[full_rep == b].tolist()))
            got = set(zip(i[rep == b].tolist(), j[rep == b].tolist()))
            assert got == expected


class TestCellCoverLiveReplicas:
    """The cell cover derives cell ids per call, on the replicas that
    still have sources or queries only; retired replicas are never read."""

    SIDE, BATCH, N = 9.0, 5, 70

    def brute_hits(self, positions, sources, queries, radius):
        return brute_batch_hits(positions, sources, queries, radius)

    def test_live_row_cells_match_all_row_cells(self, rng):
        positions = rng.uniform(0, self.SIDE, size=(self.BATCH, self.N, 2))
        snapshot = BatchNeighborQuery(self.SIDE, self.BATCH).bind(positions)
        full, m = snapshot._cells_for(1.3, np.arange(self.BATCH))
        rows = np.array([0, 3, 4])
        live, m_live = snapshot._cells_for(1.3, rows)
        assert m_live == m
        assert np.array_equal(live[rows], full[rows])
        # Global ids: replica b owns the id range [b * m^2, (b + 1) * m^2).
        replica = np.arange(self.BATCH)[:, None]
        assert np.all(full // (m * m) == replica)

    @pytest.mark.parametrize("radius", [0.3, 1.0, 2.5])
    def test_retired_replicas_report_no_hits(self, radius, rng):
        positions = rng.uniform(0, self.SIDE, size=(self.BATCH, self.N, 2))
        sources = rng.uniform(size=(self.BATCH, self.N)) < 0.3
        queries = ~sources
        retired = np.array([1, 2])
        sources[retired] = False
        queries[retired] = False
        query = BatchNeighborQuery(self.SIDE, self.BATCH)
        got = query.any_within(positions, sources, queries, radius)
        assert not got[retired].any()
        assert np.array_equal(got, self.brute_hits(positions, sources, queries, radius))

    def test_source_only_and_query_only_replicas(self, rng):
        positions = rng.uniform(0, self.SIDE, size=(self.BATCH, self.N, 2))
        sources = rng.uniform(size=(self.BATCH, self.N)) < 0.4
        queries = ~sources
        queries[0] = False  # sources only: nothing to answer
        sources[1] = False  # queries only: nothing can hit
        query = BatchNeighborQuery(self.SIDE, self.BATCH)
        got = query.any_within(positions, sources, queries, 1.2)
        assert not got[:2].any()
        assert np.array_equal(got, self.brute_hits(positions, sources, queries, 1.2))

    def test_partial_replica_drift_across_binds(self, rng):
        """Rounds where only some replicas move and others retire: every
        bind must agree with brute force."""
        query = BatchNeighborQuery(self.SIDE, self.BATCH)
        positions = rng.uniform(0, self.SIDE, size=(self.BATCH, self.N, 2))
        informed = rng.uniform(size=(self.BATCH, self.N)) < 0.2
        live = np.ones(self.BATCH, dtype=bool)
        for t in range(6):
            rows = np.nonzero(live)[0]
            moved = positions[rows] + rng.uniform(-0.4, 0.4, size=positions[rows].shape)
            positions = positions.copy()
            positions[rows] = np.clip(moved, 0, self.SIDE)
            sources = informed & live[:, None]
            queries = ~informed & live[:, None]
            got = query.bind(positions).any_within(sources, queries, 1.1)
            assert np.array_equal(got, self.brute_hits(positions, sources, queries, 1.1)), t
            informed |= got
            live[t % self.BATCH] = False

    def test_oversized_cover_grid_falls_back_to_tiling(self, rng, monkeypatch):
        monkeypatch.setattr(BatchNeighborQuery, "_MAX_COVER_CELLS", 10)
        positions = rng.uniform(0, self.SIDE, size=(self.BATCH, self.N, 2))
        sources = rng.uniform(size=(self.BATCH, self.N)) < 0.3
        query = BatchNeighborQuery(self.SIDE, self.BATCH)
        snapshot = query.bind(positions)
        assert snapshot._cells_for(1.0, np.arange(self.BATCH)) is None
        got = snapshot.any_within(sources, ~sources, 1.0)
        assert np.array_equal(got, self.brute_hits(positions, sources, ~sources, 1.0))
