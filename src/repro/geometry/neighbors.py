"""Neighbour queries: one exact radius predicate over spatial indexes.

The simulation core only needs three primitives per snapshot:

* ``any_within(sources, queries, r)`` — which query points have a source
  point within Euclidean distance ``r`` (flooding's infection test);
* ``count_within(...)`` — occupancy counts (density condition, Lemma 7);
* ``pairs_within(points, r)`` — all edges of the disk graph ``G_t``.

Every answer is decided by one inclusive predicate,
:func:`~repro.geometry.points.within_radius` (``dx*dx + dy*dy <= r*r``),
which the compiled kernels evaluate with the same operations.  Spatial
indexes only propose candidates, searched a hair past the radius
(:func:`~repro.geometry.points.search_radius`), and the predicate decides.
So no result depends on which index ran, on the kernel tier, or on whether
scipy is installed.

* :class:`GridNeighborEngine` — the scalar engine, over the pure-numpy
  bucket grid of :mod:`repro.geometry.grid`;
* :class:`BruteForceNeighborEngine` — the ``O(n m)`` reference the tests
  compare against;
* :class:`BatchNeighborQuery` — the per-replica queries of **B
  independent trials in one call**, for the batch engine (DESIGN.md,
  "Bound snapshots and the batched cell cover").  A run's compiled kernels
  answer first when active; otherwise a cell cover resolves most infection
  tests from per-replica occupancy grids, and the rest go to one candidate
  search over all replicas, translated into disjoint tiles of a larger
  virtual square (a KD-tree when scipy imports, a bucket grid otherwise).

Within one communication round the positions are frozen, so ``bind``
freezes them into a snapshot whose indexes are built once and shared by
every query of the round (the multi-hop exchange loop, paired
``any_within``/``count_within`` calls).  Nothing persists between rounds.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.grid import GridIndex
from repro.geometry.points import as_points, search_radius, within_radius
from repro.kernels import get_kernel

__all__ = [
    "NeighborEngine",
    "BoundSnapshot",
    "GridNeighborEngine",
    "BruteForceNeighborEngine",
    "BatchNeighborQuery",
    "BatchBoundQuery",
    "available_backends",
]


class BoundSnapshot:
    """Radius queries bound to one frozen ``(n, 2)`` position snapshot.

    Obtained from :meth:`NeighborEngine.bind`.  All methods take *index
    arrays into the bound snapshot* rather than coordinate arrays, so the
    engine-specific spatial index can be built once and shared by every
    query on the snapshot: the hops of a multi-hop exchange round, and
    paired ``any_within``/``count_within`` calls.

    This base implementation delegates to the engine's coordinate API per
    call (correct for any engine, no sharing); the grid engine overrides
    it with index-reusing variants.
    """

    def __init__(self, engine: "NeighborEngine", points: np.ndarray, radius: float):
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        self.engine = engine
        self.points = points
        self.radius = float(radius)

    def any_within(self, source_idx, query_idx) -> np.ndarray:
        """Mask over ``query_idx``: has a point of ``source_idx`` within radius."""
        return self.engine.any_within(
            self.points[source_idx], self.points[query_idx], self.radius
        )

    def count_within(self, source_idx, query_idx) -> np.ndarray:
        """Per-query count of ``source_idx`` points within the bound radius."""
        return self.engine.count_within(
            self.points[source_idx], self.points[query_idx], self.radius
        )

    def contacts_within(self, source_idx, query_idx) -> tuple:
        """All (source, query) agent pairs within the bound radius.

        The bipartite materialization behind the neighbor-sampling
        protocols: gossip and push-pull only ever need the edges crossing
        the informed/uninformed cut, which is far smaller than the full
        disk graph at both ends of a run.  This base implementation is
        O(S * Q) (fine for the brute engine); the grid engine overrides it
        with an index-backed variant.

        Returns:
            ``(sources, queries)`` agent-index arrays of equal length, in
            unspecified order.
        """
        source_idx = np.asarray(source_idx, dtype=np.intp)
        query_idx = np.asarray(query_idx, dtype=np.intp)
        if source_idx.size == 0 or query_idx.size == 0:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        hit = within_radius(
            self.points[query_idx][:, None, :], self.points[source_idx][None, :, :], self.radius
        )
        qpos, spos = np.nonzero(hit)
        return source_idx[spos], query_idx[qpos]

    def pairs_within(self) -> np.ndarray:
        """All unordered pairs of the snapshot within the bound radius.

        The snapshot counterpart of :meth:`NeighborEngine.pairs_within`
        for per-step edge extraction over a recorded series (disk-graph
        snapshots, contact traces); delegates to the engine's coordinate
        API.

        Returns:
            ``(k, 2)`` intp pairs with ``i < j``, in engine order.
        """
        return self.engine.pairs_within(self.points, self.radius)


class NeighborEngine:
    """Interface for radius-based neighbor queries on a square region."""

    name = "abstract"

    def __init__(self, side: float):
        if side <= 0:
            raise ValueError(f"side must be positive, got {side}")
        self.side = float(side)

    def any_within(self, sources, queries, radius: float) -> np.ndarray:
        """Mask over ``queries``: has >= 1 point of ``sources`` within ``radius``."""
        raise NotImplementedError

    def count_within(self, sources, queries, radius: float) -> np.ndarray:
        """Per-query count of ``sources`` points within ``radius``."""
        raise NotImplementedError

    def pairs_within(self, points, radius: float) -> np.ndarray:
        """All unordered pairs of ``points`` within ``radius``; shape ``(k, 2)``."""
        raise NotImplementedError

    def bind(self, points, radius: float) -> BoundSnapshot:
        """Freeze ``points`` into a :class:`BoundSnapshot` for masked queries.

        The snapshot owns its indexes, so it stays valid for as long as
        ``points`` is not mutated.
        """
        return BoundSnapshot(self, as_points(points), radius)


class _GridSnapshot(BoundSnapshot):
    """Grid-backed snapshot: one throwaway index over the sources, memoized
    on the index-array identity, so paired ``any_within`` /
    ``count_within`` calls share it.
    """

    def __init__(self, engine, points, radius):
        super().__init__(engine, points, radius)
        self._memo = None  # (source_idx, index)

    def _source_index(self, source_idx) -> GridIndex:
        memo = self._memo
        if memo is not None and memo[0] is source_idx:
            return memo[1]
        index = self.engine._index(self.points[source_idx], self.radius)
        self._memo = (source_idx, index)
        return index

    def any_within(self, source_idx, query_idx) -> np.ndarray:
        source_idx = np.asarray(source_idx, dtype=np.intp)
        query_idx = np.asarray(query_idx, dtype=np.intp)
        if source_idx.size == 0 or query_idx.size == 0:
            return np.zeros(query_idx.size, dtype=bool)
        return self._source_index(source_idx).any_within(self.points[query_idx], self.radius)

    def count_within(self, source_idx, query_idx) -> np.ndarray:
        source_idx = np.asarray(source_idx, dtype=np.intp)
        query_idx = np.asarray(query_idx, dtype=np.intp)
        if source_idx.size == 0 or query_idx.size == 0:
            return np.zeros(query_idx.size, dtype=np.intp)
        return self._source_index(source_idx).count_within(self.points[query_idx], self.radius)

    def contacts_within(self, source_idx, query_idx) -> tuple:
        source_idx = np.asarray(source_idx, dtype=np.intp)
        query_idx = np.asarray(query_idx, dtype=np.intp)
        empty = np.empty(0, dtype=np.intp)
        if source_idx.size == 0 or query_idx.size == 0:
            return empty, empty
        queries = self.points[query_idx]
        index = self._source_index(source_idx)
        qidx, pidx = index._candidate_arrays(queries, self.radius)
        if qidx.size == 0:
            return empty, empty
        sources = source_idx[pidx]
        hit = within_radius(queries[qidx], self.points[sources], self.radius)
        return sources[hit], query_idx[qidx[hit]]


class GridNeighborEngine(NeighborEngine):
    """Bucket-grid engine (pure numpy): the scalar engine of every run.

    Args:
        side: side length of the square region.
        cell_size: bucket side override (default: the search reach of the
            query radius, at least ``side/512``).  Has no effect on results.
    """

    name = "grid"

    def __init__(self, side: float, cell_size: float = None):
        super().__init__(side)
        self._cell_size = cell_size

    def _cell_for(self, radius: float) -> float:
        if self._cell_size is not None:
            return self._cell_size
        return max(search_radius(radius, self.side), self.side / 512.0)

    def _index(self, points, radius: float) -> GridIndex:
        """Fresh index over ``points`` for ``radius`` queries.

        Deliberately *not* memoized: coordinate-API callers pass freshly
        gathered arrays every call (``positions[mask]``), so an
        identity-keyed memo would never hit — and a content-keyed one
        costs as much as the build it saves.  Callers that genuinely
        query one snapshot repeatedly share an index through
        :meth:`bind`, where array identity is stable.
        """
        index = GridIndex(self.side, self._cell_for(radius))
        index.build(points)
        return index

    def bind(self, points, radius: float) -> BoundSnapshot:
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        return _GridSnapshot(self, as_points(points), radius)

    def any_within(self, sources, queries, radius: float) -> np.ndarray:
        sources = as_points(sources)
        queries = as_points(queries)
        if sources.shape[0] == 0:
            return np.zeros(queries.shape[0], dtype=bool)
        return self._index(sources, radius).any_within(queries, radius)

    def count_within(self, sources, queries, radius: float) -> np.ndarray:
        sources = as_points(sources)
        queries = as_points(queries)
        if sources.shape[0] == 0:
            return np.zeros(queries.shape[0], dtype=np.intp)
        return self._index(sources, radius).count_within(queries, radius)

    def pairs_within(self, points, radius: float) -> np.ndarray:
        points = as_points(points)
        if points.shape[0] == 0:
            return np.empty((0, 2), dtype=np.intp)
        return self._index(points, radius).pairs_within(radius)


class BruteForceNeighborEngine(NeighborEngine):
    """O(n*m) reference implementation used to validate the real engines."""

    name = "brute"

    def any_within(self, sources, queries, radius: float) -> np.ndarray:
        sources = as_points(sources)
        queries = as_points(queries)
        if sources.shape[0] == 0:
            return np.zeros(queries.shape[0], dtype=bool)
        return np.any(within_radius(queries[:, None, :], sources[None, :, :], radius), axis=1)

    def count_within(self, sources, queries, radius: float) -> np.ndarray:
        sources = as_points(sources)
        queries = as_points(queries)
        if sources.shape[0] == 0:
            return np.zeros(queries.shape[0], dtype=np.intp)
        hit = within_radius(queries[:, None, :], sources[None, :, :], radius)
        return np.sum(hit, axis=1).astype(np.intp)

    def pairs_within(self, points, radius: float) -> np.ndarray:
        points = as_points(points)
        n = points.shape[0]
        if n == 0:
            return np.empty((0, 2), dtype=np.intp)
        hit = within_radius(points[:, None, :], points[None, :, :], radius)
        i, j = np.nonzero(np.triu(hit, k=1))
        return np.stack([i, j], axis=1).astype(np.intp)


def _dilate(occ: np.ndarray, reach: int) -> np.ndarray:
    """Boolean Chebyshev-box dilation of a ``(B, m, m)`` occupancy stack.

    ``out[b, i, j]`` is True iff some ``occ[b, i', j']`` is True with
    ``max(|i'-i|, |j'-j|) <= reach`` (grid edges clipped) — computed as a
    few shifted ORs over byte arrays (the covered radius grows
    ``1, +2, +4, ...`` per pass) instead of the integer cumulative-sum
    box filters this kernel used before.
    """
    out = occ.copy()
    if reach <= 0:
        return out
    for axis in (1, 2):
        covered = 0
        while covered < reach:
            step = min(covered + 1, reach - covered)
            if axis == 1:
                out[:, step:, :] |= out[:, :-step, :]
                out[:, :-step, :] |= out[:, step:, :]
            else:
                out[:, :, step:] |= out[:, :, :-step]
                out[:, :, :-step] |= out[:, :, step:]
            covered += step
    return out


class BatchBoundQuery:
    """Per-replica queries bound to one ``(B, n, 2)`` snapshot.

    Obtained from :meth:`BatchNeighborQuery.bind`; valid for one
    communication round.  Every answer is exact: the compiled kernels and
    the cell cover's exact shell evaluate
    :func:`~repro.geometry.points.within_radius`, and the cover's
    occupancy shortcuts keep a margin far wider than its rounding.
    """

    def __init__(self, query: "BatchNeighborQuery", positions: np.ndarray):
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 3 or positions.shape[2] != 2:
            raise ValueError(f"positions must have shape (B, n, 2), got {positions.shape}")
        if positions.shape[0] != query.batch_size:
            raise ValueError(
                f"expected {query.batch_size} replicas, got {positions.shape[0]}"
            )
        self.query = query
        self.positions = positions

    # ------------------------------------------------------------------
    # Derived state
    # ------------------------------------------------------------------
    def _cells_for(self, radius: float, rows: np.ndarray):
        """``(gid, m)``: per-agent global cell ids for the cell-cover
        kernel, filled on replica ``rows`` only (other rows are left
        unset), and the grid side ``m`` — or None when the occupancy grid
        would be unreasonably large."""
        cell = radius / self.query._COVER_DIVISOR
        m = max(1, int(math.ceil(self.query.side / cell)))
        batch = self.positions.shape[0]
        if batch * m * m > self.query._MAX_COVER_CELLS:
            return None
        positions = self.positions if rows.size == batch else self.positions[rows]
        ij = (positions * (1.0 / cell)).astype(np.int64)
        np.clip(ij, 0, m - 1, out=ij)
        cells = ij[..., 0] * m + ij[..., 1] + rows[:, None] * (m * m)
        if rows.size == batch:
            return cells, m
        gid = np.empty(self.positions.shape[:2], dtype=np.int64)
        gid[rows] = cells
        return gid, m

    # ------------------------------------------------------------------
    # Candidate search (numpy tier)
    # ------------------------------------------------------------------
    def _candidates(self, source_flat, query_flat, radius, nearest=False) -> tuple:
        """``(source, query)`` flat ``B*n`` ids of pairs that may lie within ``radius``.

        The one spatial search of the numpy tier.  Each replica's points
        are shifted into its own tile of a virtual square
        (:meth:`BatchNeighborQuery._tile_shift`), so one index over the
        union serves every replica: a KD-tree when scipy imports, a bucket
        grid otherwise.  The search reaches
        :func:`~repro.geometry.points.search_radius`, so the result holds
        every pair that :func:`~repro.geometry.points.within_radius`
        accepts on the unshifted positions; callers apply that test.
        Tiles lie ``side + 2 * radius`` apart, so that test also rejects
        every pair of points from two different replicas.

        ``query_flat=None`` asks for the unordered pairs within
        ``source_flat`` (``source < query``).  ``nearest=True`` lets the
        KD-tree return each query's nearest source only.
        """
        n = self.positions.shape[1]
        pts = self.positions.reshape(-1, 2)
        _stride, big_side = self.query._tile_geometry(radius)
        reach = search_radius(radius, big_side)
        # np.take: a row gather several times faster than fancy indexing.
        sources = self.query._tile_shift(source_flat // n, np.take(pts, source_flat, axis=0), radius)
        if query_flat is None:
            queries = sources
        else:
            queries = self.query._tile_shift(query_flat // n, np.take(pts, query_flat, axis=0), radius)
        tree_class = _kdtree()
        if tree_class is None:
            index = GridIndex(big_side, max(reach, big_side / 512.0))
            index.build(sources)
            qpos, spos = index._candidate_arrays(queries, radius)
            if query_flat is None:
                keep = spos < qpos
                qpos, spos = qpos[keep], spos[keep]
        else:
            # Throwaway trees: skip the balancing passes, which dominate
            # construction at these sizes.
            tree = tree_class(sources, balanced_tree=False, compact_nodes=False)
            if query_flat is None:
                pairs = tree.query_pairs(r=reach, output_type="ndarray")
                spos, qpos = pairs[:, 0], pairs[:, 1]
            elif nearest:
                dist, nearest_pos = tree.query(queries, k=1, distance_upper_bound=reach)
                qpos = np.nonzero(np.isfinite(dist))[0]
                spos = nearest_pos[qpos]
            else:
                other = tree_class(queries, balanced_tree=False, compact_nodes=False)
                hits = tree.sparse_distance_matrix(
                    other, max_distance=reach, output_type="ndarray"
                )
                spos, qpos = hits["i"], hits["j"]
        return source_flat[spos], (source_flat if query_flat is None else query_flat)[qpos]

    def _exact(self, s, q, radius) -> np.ndarray:
        """:func:`~repro.geometry.points.within_radius` on flat id pairs."""
        pts = self.positions.reshape(-1, 2)
        return within_radius(np.take(pts, s, axis=0), np.take(pts, q, axis=0), radius)

    def _contacts(self, source_flat, query_flat, radius) -> tuple:
        """The candidates of :meth:`_candidates` that pass the exact test."""
        s, q = self._candidates(source_flat, query_flat, radius)
        hit = self._exact(s, q, radius)
        return s[hit], q[hit]

    def _tiled_any_within(self, source_flat, query_flat, radius) -> np.ndarray:
        """Flat ids of ``query_flat`` with a ``source_flat`` point within ``radius``."""
        s, q = self._candidates(source_flat, query_flat, radius, nearest=True)
        hit = self._exact(s, q, radius)
        found = q[hit]
        if _kdtree() is not None:
            # A nearest source can fail the exact test (an ulp past radius,
            # or in another replica's tile) while a farther one passes:
            # search those queries in full.
            retry = q[~hit]
            if retry.size:
                found = np.concatenate([found, self._contacts(source_flat, retry, radius)[1]])
        return found

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _check_masks(self, source_mask, query_mask):
        batch, n, _ = self.positions.shape
        source_mask = np.asarray(source_mask, dtype=bool)
        query_mask = np.asarray(query_mask, dtype=bool)
        if source_mask.shape != (batch, n) or query_mask.shape != (batch, n):
            raise ValueError("masks must have shape (B, n) matching the positions")
        return source_mask, query_mask

    def _flat(self, source_mask, query_mask) -> tuple:
        return np.nonzero(source_mask.reshape(-1))[0], np.nonzero(query_mask.reshape(-1))[0]

    def _cells_any_within(self, source_mask, query_mask, radius):
        """Cell-cover ``any_within`` (see :class:`BatchNeighborQuery`);
        returns None when the cover grid is unavailable."""
        # Replicas with neither sources nor queries (retired ones) are
        # never read, so their cells are not computed: late in a batch most
        # replicas have retired.
        rows = np.nonzero(source_mask.any(axis=1) | query_mask.any(axis=1))[0]
        info = self._cells_for(radius, rows)
        if info is None:
            return None
        gid, m = info
        batch, n = gid.shape
        cells = batch * m * m
        divisor = self.query._COVER_DIVISOR
        # A source within Chebyshev cell distance reach_sure is certainly a
        # hit: the farthest pair of points in such cells is
        # (reach_sure + 1) * sqrt(2) buckets < radius apart.
        reach_sure = int(divisor / math.sqrt(2.0)) - 1
        # No source within Chebyshev distance reach_possible certainly
        # means no hit: cells further apart leave a gap > divisor buckets
        # == radius.
        reach_possible = int(divisor) + 1

        gid_flat = gid.reshape(-1)
        hits = np.zeros(batch * n, dtype=bool)
        source_flat, query_flat = self._flat(source_mask, query_mask)
        if query_flat.size == 0 or source_flat.size == 0:
            return hits.reshape(batch, n)
        q_gid = gid_flat[query_flat]
        s_gid = gid_flat[source_flat]

        src_occ = np.zeros(cells, dtype=bool)
        src_occ[s_gid] = True
        occ = src_occ.reshape(batch, m, m)
        sure_q = _dilate(occ, reach_sure).reshape(-1)[q_gid]
        hits[query_flat[sure_q]] = True
        possible = _dilate(occ, reach_possible).reshape(-1)
        ambiguous = ~sure_q & possible[q_gid]
        unresolved_flat = query_flat[ambiguous]
        if unresolved_flat.size:
            # Exact distances for the thin shell between the certainties,
            # against the sources near the shell's cells only.
            u_occ = np.zeros(cells, dtype=bool)
            u_occ[q_gid[ambiguous]] = True
            near = _dilate(u_occ.reshape(batch, m, m), reach_possible).reshape(-1)
            near_source_flat = source_flat[near[s_gid]]
            if near_source_flat.size:
                hits[self._tiled_any_within(near_source_flat, unresolved_flat, radius)] = True
        return hits.reshape(batch, n)

    def any_within(self, source_mask, query_mask, radius: float) -> np.ndarray:
        """Per-replica infection test; see :meth:`BatchNeighborQuery.any_within`."""
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        source_mask, query_mask = self._check_masks(source_mask, query_mask)
        # Compiled tier (when a run activated it): one fused grid-build +
        # 3x3-scan pass over the exact predicate.
        kernel = get_kernel("batch_any_within")
        if kernel is not None:
            result = kernel(self.positions, source_mask, query_mask, radius, self.query.side)
            if result is not None:
                return result
        result = self._cells_any_within(source_mask, query_mask, radius)
        if result is not None:
            return result
        batch, n = source_mask.shape
        hits = np.zeros(batch * n, dtype=bool)
        source_flat, query_flat = self._flat(source_mask, query_mask)
        if source_flat.size and query_flat.size:
            hits[self._tiled_any_within(source_flat, query_flat, radius)] = True
        return hits.reshape(batch, n)

    def count_within(self, source_mask, query_mask, radius: float) -> np.ndarray:
        """Per-replica occupancy counts; see :meth:`BatchNeighborQuery.count_within`."""
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        source_mask, query_mask = self._check_masks(source_mask, query_mask)
        batch, n = source_mask.shape
        contacts = self.contacts_within(source_mask, query_mask, radius)
        counts = np.bincount(contacts[0] * n + contacts[2], minlength=batch * n)
        return counts.astype(np.intp, copy=False).reshape(batch, n)

    def contacts_within(self, source_mask, query_mask, radius: float) -> tuple:
        """Per-replica bipartite (source, query) contacts within ``radius``.

        The batched counterpart of
        :meth:`BoundSnapshot.contacts_within` — one pass over all
        replicas materializes every replica's cross contacts at once.
        The neighbor-sampling protocols call it with the informed mask on
        one side and the uninformed mask on the other, so the result is
        the informed/uninformed **cut** — far smaller than the full
        contact list at both ends of a run.

        Returns:
            ``(replica, source, query)`` intp agent-index arrays of equal
            length, in unspecified order.
        """
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        source_mask, query_mask = self._check_masks(source_mask, query_mask)
        # Compiled tier: enumerate the exact contacts directly (order
        # unspecified — the sampling protocols canonicalize by sorting on
        # unique keys).
        kernel = get_kernel("batch_contacts")
        if kernel is not None:
            result = kernel(self.positions, source_mask, query_mask, radius, self.query.side)
            if result is not None:
                return result
        n = self.positions.shape[1]
        source_flat, query_flat = self._flat(source_mask, query_mask)
        if source_flat.size == 0 or query_flat.size == 0:
            return (np.empty(0, dtype=np.intp),) * 3
        s, q = self._contacts(source_flat, query_flat, radius)
        return s // n, s % n, q % n

    def pairs_within(self, radius: float, rows=None) -> tuple:
        """Per-replica disk-graph edges of the snapshot.

        The batched counterpart of
        :meth:`NeighborEngine.pairs_within`, for callers that need every
        replica's full edge list (disk-graph statistics, contact traces)
        in one pass.  The neighbor-sampling protocols do **not** use it
        (they materialize only the informed/uninformed cut via
        :meth:`contacts_within`).  The edge *order* is the index's
        traversal order; callers that consume randomness positionally
        must canonicalize it themselves.

        Args:
            radius: query radius.
            rows: optional replica indices to restrict the query to (e.g.
                the still-active replicas); others are skipped entirely.

        Returns:
            ``(replica, i, j)`` intp arrays of equal length, ``i < j``,
            in unspecified order.
        """
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        batch, n, _ = self.positions.shape
        row_ids = np.arange(batch, dtype=np.intp) if rows is None else np.asarray(rows, dtype=np.intp)
        if row_ids.size == 0:
            return (np.empty(0, dtype=np.intp),) * 3
        flat = (row_ids[:, None] * n + np.arange(n, dtype=np.intp)).reshape(-1)
        i, j = self._contacts(flat, None, radius)
        # Endpoints share a replica, so flat i < j means local i < j too.
        return i // n, i % n, j % n


class BatchNeighborQuery:
    """Per-replica radius queries over a ``(B, n, 2)`` position tensor.

    Up to three stages answer a query, each exact; which one runs never
    changes a result:

    * **compiled kernels** (when a run activated the compiled tier): one
      fused grid-build + scan pass per call.

    * **cell cover** (:meth:`any_within` on the numpy tier): per-replica
      occupancy grids with bucket side a hair under
      ``radius / (2 sqrt2)``, derived from the positions on every call for
      the replicas still running, resolve most queries by occupancy logic
      alone — a source anywhere in the query's 3x3 cell box is *certainly*
      within ``radius`` (the farthest pair of points in that box is just
      under ``2 sqrt2`` buckets apart), while no source within Chebyshev
      distance 3 *certainly* means no hit (the gap is at least 3 buckets
      ``> radius``).  Only queries in the thin shell between the two
      certainties fall through to the exact candidate search.

    * **tiled candidate search**: replica ``b``'s points are shifted into
      tile ``b`` of a virtual ``rows x cols`` tile sheet
      (``cols = ceil(sqrt(B))``).  Adjacent tiles are separated by
      ``2 * radius``, so one spatial index over the shifted union serves
      all replicas, and every candidate it proposes is decided by
      :func:`~repro.geometry.points.within_radius` on the unshifted
      positions.

    Args:
        side: side length of each replica's square region.
        batch_size: number of replicas ``B``.
    """

    def __init__(self, side: float, batch_size: int):
        if side <= 0:
            raise ValueError(f"side must be positive, got {side}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.side = float(side)
        self.batch_size = int(batch_size)
        self._cols = int(math.ceil(math.sqrt(self.batch_size)))
        self._rows = int(math.ceil(self.batch_size / self._cols))

    #: Above this many occupancy-grid cells the cell cover falls back to
    #: the candidate search (tiny radii would make the per-replica grids
    #: enormous).
    _MAX_COVER_CELLS = 4_000_000

    #: Occupancy-grid resolution: bucket side = radius / _COVER_DIVISOR.
    #: Finer grids narrow the indeterminate shell (width ``O(bucket)``)
    #: that needs exact distance checks, at ``O(B * m^2)`` occupancy cost.
    #: 2*sqrt(2) makes the full 3x3 box a certain hit; the 1e-9 margin
    #: keeps that certainty when rounding puts a point in the wrong bucket
    #: (an error below 1e-12 buckets).
    _COVER_DIVISOR = 2.0 * math.sqrt(2.0) * (1.0 + 1e-9)

    def _tile_geometry(self, radius: float) -> tuple:
        """``(stride, big_side)`` of the virtual tile sheet for ``radius``.

        The single definition of the tiling layout — every path that
        shifts points into tiles must derive its geometry from here.
        """
        stride = self.side + 2.0 * radius
        return stride, max(self._cols, self._rows) * stride

    def _tile_shift(self, replica: np.ndarray, points: np.ndarray, radius: float) -> np.ndarray:
        """Shift ``points`` (one row per entry of ``replica``) into tiles."""
        stride, _big_side = self._tile_geometry(radius)
        out = points.copy()
        out[:, 0] += (replica % self._cols) * stride
        out[:, 1] += (replica // self._cols) * stride
        return out

    def bind(self, positions) -> BatchBoundQuery:
        """Freeze one ``(B, n, 2)`` snapshot for repeated queries."""
        return BatchBoundQuery(self, positions)

    def any_within(self, positions, source_mask, query_mask, radius: float) -> np.ndarray:
        """Per-replica infection test.

        Args:
            positions: ``(B, n, 2)`` replica position tensor.
            source_mask: ``(B, n)`` bool — transmitting points, per replica.
            query_mask: ``(B, n)`` bool — listening points, per replica.
            radius: query radius.

        Returns:
            ``(B, n)`` bool mask — True where a query point of replica ``b``
            has a source point *of the same replica* within ``radius``
            (always False outside ``query_mask``).
        """
        return self.bind(positions).any_within(source_mask, query_mask, radius)

    def count_within(self, positions, source_mask, query_mask, radius: float) -> np.ndarray:
        """Per-replica occupancy counts; same contract as :meth:`any_within`
        with an ``(B, n)`` intp result (0 outside ``query_mask``)."""
        return self.bind(positions).count_within(source_mask, query_mask, radius)


_KDTREE_PROBE = None  # None: not probed yet; False: scipy absent


def _kdtree():
    """scipy's ``cKDTree`` class, or None without scipy (probed once)."""
    global _KDTREE_PROBE
    if _KDTREE_PROBE is None:
        try:
            from scipy.spatial import cKDTree
        except ImportError:  # pragma: no cover - depends on environment
            cKDTree = False
        _KDTREE_PROBE = cKDTree
    return _KDTREE_PROBE or None


def available_backends() -> list:
    """The spatial indexes the batch candidate search can use here, the
    one it uses first: ``["kdtree", "grid"]`` when scipy imports, else
    ``["grid"]``.

    Informational (run provenance); no caller chooses between them.  The
    scipy probe runs once per process.
    """
    return ["kdtree", "grid"] if _kdtree() is not None else ["grid"]
