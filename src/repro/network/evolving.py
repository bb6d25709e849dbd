"""Temporal reachability on evolving disk graphs.

Flooding time equals the *eccentricity in journey time* of the source in
the evolving graph: an agent is reached at the first step ``t`` such that a
chain of informed agents has carried the message to within ``R`` of it, one
hop per step.  This module implements that temporal BFS directly over a
recorded :class:`~repro.network.snapshots.SnapshotSeries`, independently of
the protocol machinery in :mod:`repro.protocols` — the two implementations
are cross-validated in the integration tests.

Two execution paths:

* :func:`temporal_bfs` — the scalar reference: one source, one
  neighbor-engine query per step.
* :func:`batch_temporal_bfs` — ``S`` sources at once, treated as ``S``
  replicas of the same snapshot through a
  :class:`~repro.geometry.neighbors.BatchNeighborQuery`: one tiled engine
  call per step answers every source's infection test.  Both paths apply
  the identical exact distance predicate, so the times agree
  source-for-source (asserted in ``tests/test_network_batch.py``);
  :func:`journey_times` picks the batched kernel by default.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.neighbors import BatchNeighborQuery, GridNeighborEngine
from repro.network.snapshots import SnapshotSeries

__all__ = [
    "temporal_bfs",
    "batch_temporal_bfs",
    "journey_times",
    "reachability_fraction",
]


def temporal_bfs(
    series: SnapshotSeries,
    source: int,
    multi_hop: bool = False,
) -> np.ndarray:
    """Earliest informed time of every agent from a single source.

    Args:
        series: recorded snapshot sequence.
        source: index of the initially informed agent (informed at time 0).
        multi_hop: when True, the message traverses whole connected
            components within a single snapshot ("infinite bandwidth" /
            component flooding); when False (paper semantics) it advances
            one hop per time step.

    Returns:
        float array ``times`` of shape ``(n,)`` — ``times[i]`` is the first
        step at which agent ``i`` is informed, ``numpy.inf`` if never within
        the recorded horizon.
    """
    n = series.n
    if not 0 <= source < n:
        raise ValueError(f"source must be in [0, {n}), got {source}")
    engine = GridNeighborEngine(series.side)
    times = np.full(n, np.inf)
    times[source] = 0.0
    informed = np.zeros(n, dtype=bool)
    informed[source] = True
    for t in range(1, series.n_steps + 1):
        positions = series.positions_at(t)
        while True:
            uninformed_idx = np.nonzero(~informed)[0]
            if uninformed_idx.size == 0:
                return times
            hits = engine.any_within(positions[informed], positions[uninformed_idx], series.radius)
            newly = uninformed_idx[hits]
            if newly.size == 0:
                break
            informed[newly] = True
            times[newly] = t
            if not multi_hop:
                break
    return times


def batch_temporal_bfs(
    series: SnapshotSeries,
    sources,
    multi_hop: bool = False,
) -> np.ndarray:
    """Earliest informed times from ``S`` sources, one engine call per step.

    Each source becomes one replica of a
    :class:`~repro.geometry.neighbors.BatchNeighborQuery` over the shared
    snapshot (tiled so cross-source hits are geometrically impossible), so
    the per-step infection tests of all sources run as a single vectorized
    query instead of ``S`` scalar sweeps — the same trick the batch
    simulation engine plays with independent trials.

    Returns:
        float array of shape ``(S, n)``, row ``k`` equal to
        ``temporal_bfs(series, sources[k], multi_hop)``.
    """
    sources = np.asarray(list(sources), dtype=np.intp)
    n = series.n
    n_sources = sources.size
    if n_sources == 0:
        return np.empty((0, n))
    if np.any((sources < 0) | (sources >= n)):
        raise ValueError(f"sources must be in [0, {n})")
    query = BatchNeighborQuery(series.side, n_sources)
    times = np.full((n_sources, n), np.inf)
    informed = np.zeros((n_sources, n), dtype=bool)
    rows = np.arange(n_sources)
    informed[rows, sources] = True
    times[rows, sources] = 0.0
    for t in range(1, series.n_steps + 1):
        if informed.all():
            break
        positions = np.ascontiguousarray(
            np.broadcast_to(series.positions_at(t)[None], (n_sources, n, 2))
        )
        snapshot = query.bind(positions)
        while True:
            hits = snapshot.any_within(informed, ~informed, series.radius)
            if not hits.any():
                break
            informed |= hits
            times[hits] = t
            if not multi_hop:
                break
    return times


def journey_times(
    series: SnapshotSeries, sources, multi_hop: bool = False, engine: str = "batch"
) -> np.ndarray:
    """Earliest informed times from each of several sources.

    Args:
        engine: ``"batch"`` (the default: one tiled query per step over
            all sources) or ``"scalar"`` (one :func:`temporal_bfs` sweep per
            source — the reference).  Both produce identical times.

    Returns:
        array of shape ``(len(sources), n)``.
    """
    if engine == "batch":
        return batch_temporal_bfs(series, sources, multi_hop=multi_hop)
    if engine != "scalar":
        raise ValueError(f"engine must be 'batch' or 'scalar', got {engine!r}")
    rows = [temporal_bfs(series, int(s), multi_hop=multi_hop) for s in sources]
    if not rows:
        return np.empty((0, series.n))
    return np.stack(rows, axis=0)


def reachability_fraction(series: SnapshotSeries, source: int, multi_hop: bool = False) -> np.ndarray:
    """Fraction of informed agents after each step, shape ``(T + 1,)``."""
    times = temporal_bfs(series, source, multi_hop=multi_hop)
    # Informed times are integer steps: one bincount + cumsum replaces the
    # per-step threshold counting loop.
    finite = times[np.isfinite(times)].astype(np.intp)
    counts = np.bincount(finite, minlength=series.n_steps + 1)
    return np.cumsum(counts).astype(np.float64) / series.n
