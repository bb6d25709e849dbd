"""Probabilistic flooding.

Each informed agent transmits independently with probability ``p`` at each
step.  ``p = 1`` recovers exact flooding; smaller ``p`` models duty-cycled
radios.  Expected slowdown in the well-connected Central Zone is roughly a
``1/p`` factor per hop; in the Suburb, missing the brief meeting windows
(Lemma 16) costs much more — a contrast the baselines experiment surfaces.
"""

from __future__ import annotations

import numpy as np

from repro.protocols.base import BatchBroadcastState, BroadcastProtocol

__all__ = ["validate_probabilistic_options", "ProbabilisticFlooding", "BatchProbabilisticState"]


def validate_probabilistic_options(p: float = 0.5) -> None:
    """Option checks of both probabilistic classes, also run by
    :class:`~repro.simulation.config.FloodingConfig` at construction."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")


class ProbabilisticFlooding(BroadcastProtocol):
    """Flooding with per-step transmission probability ``p``."""

    name = "probabilistic"

    def __init__(self, *args, p: float = 0.5, **kwargs):
        super().__init__(*args, **kwargs)
        validate_probabilistic_options(p)
        self.p = float(p)

    def _exchange(self, positions: np.ndarray) -> np.ndarray:
        transmitting = self.informed & (self.rng.uniform(size=self.n) < self.p)
        if not np.any(transmitting):
            return np.empty(0, dtype=np.intp)
        uninformed = np.nonzero(~self.informed)[0]
        if uninformed.size == 0:
            return np.empty(0, dtype=np.intp)
        hits = self.engine.any_within(positions[transmitting], positions[uninformed], self.radius)
        return self._mark_informed(uninformed[hits])


class BatchProbabilisticState(BatchBroadcastState):
    """``B`` independent probabilistic-flooding runs in lock-step.

    Each active replica draws one ``uniform(n)`` duty-cycle vector per step
    from its own generator — the scalar draw exactly — and the combined
    transmit masks feed a single batched infection test.
    """

    name = "probabilistic"
    uses_rng = True

    def __init__(self, *args, p: float = 0.5, **kwargs):
        super().__init__(*args, **kwargs)
        validate_probabilistic_options(p)
        self.p = float(p)

    def _exchange(self, snapshot, active: np.ndarray) -> np.ndarray:
        transmit = np.zeros((self.batch_size, self.n), dtype=bool)
        for b in np.nonzero(active)[0]:
            transmit[b] = self.rngs[b].uniform(size=self.n) < self.p
        source_mask = self.informed & transmit
        query_mask = ~self.informed & active[:, None]
        if not source_mask.any() or not query_mask.any():
            return np.zeros((self.batch_size, self.n), dtype=bool)
        hits = snapshot.any_within(source_mask, query_mask, self.radius)
        return self._mark_informed(hits)
