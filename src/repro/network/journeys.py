"""Unicast journey metrics over evolving MANETs.

Flooding time is the *eccentricity* of the source in journey time; this
module generalizes to the quantities delay-tolerant networking cares about
(paper refs [16, 26, 29]): pairwise delivery delays, temporal eccentricity
per source, and the "temporal diameter" (max over sources of flooding
time) — all computed by replaying a recorded snapshot series through the
one-hop-per-step reachability of :mod:`repro.network.evolving`.  Every
multi-source sweep runs through :func:`~repro.network.evolving.journey_times`,
whose default engine answers all sources with one batched query per step.
"""

from __future__ import annotations

import numpy as np

from repro.network.evolving import journey_times
from repro.network.snapshots import SnapshotSeries

__all__ = [
    "delivery_delay_matrix",
    "temporal_eccentricities",
    "temporal_diameter",
    "delay_statistics",
]


def delivery_delay_matrix(
    series: SnapshotSeries, sources, multi_hop: bool = False, engine: str = "batch"
) -> np.ndarray:
    """Delivery delays from each source to every agent.

    Args:
        series: recorded snapshots.
        sources: iterable of source indices.
        engine: temporal-BFS engine (see
            :func:`~repro.network.evolving.journey_times`).

    Returns:
        float array of shape ``(len(sources), n)``; ``inf`` marks pairs not
        reached within the recorded horizon.
    """
    return journey_times(series, sources, multi_hop=multi_hop, engine=engine)


def temporal_eccentricities(
    series: SnapshotSeries, sources=None, multi_hop: bool = False, engine: str = "batch"
) -> np.ndarray:
    """Flooding time from each source (== temporal eccentricity).

    Args:
        sources: defaults to all agents (n temporal-BFS sweeps — use a
            sample for large n).
    """
    if sources is None:
        sources = range(series.n)
    matrix = delivery_delay_matrix(series, sources, multi_hop=multi_hop, engine=engine)
    return matrix.max(axis=1)


def temporal_diameter(
    series: SnapshotSeries, sources=None, multi_hop: bool = False, engine: str = "batch"
) -> float:
    """Max journey time over (sampled) source/destination pairs.

    The paper: flooding time "has the same role of the diameter in static
    networks" — this is that diameter, measured.
    """
    ecc = temporal_eccentricities(series, sources, multi_hop=multi_hop, engine=engine)
    return float(ecc.max())


def delay_statistics(
    series: SnapshotSeries,
    n_pairs: int,
    rng: np.random.Generator,
    multi_hop: bool = False,
    engine: str = "batch",
) -> dict:
    """Delivery-delay distribution over random source/destination pairs.

    The distinct sampled sources are swept in one batched journey pass
    (replacing the per-source memo dict the scalar loop kept).

    Returns:
        dict with ``delays`` (finite delays observed), ``delivered_fraction``
        (pairs reached within the horizon), ``mean``, ``median``, ``p95``.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be positive, got {n_pairs}")
    sources = rng.integers(0, series.n, size=n_pairs)
    destinations = rng.integers(0, series.n, size=n_pairs)
    unique_sources, source_row = np.unique(sources, return_inverse=True)
    matrix = journey_times(series, unique_sources, multi_hop=multi_hop, engine=engine)
    delays = matrix[source_row, destinations]
    finite = delays[np.isfinite(delays)]
    return {
        "delays": finite,
        "delivered_fraction": float(finite.size) / n_pairs,
        "mean": float(finite.mean()) if finite.size else float("inf"),
        "median": float(np.median(finite)) if finite.size else float("inf"),
        "p95": float(np.quantile(finite, 0.95)) if finite.size else float("inf"),
    }
