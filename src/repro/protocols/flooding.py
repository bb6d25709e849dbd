"""The flooding protocol (Section 4).

Every informed agent transmits at every time step; a non-informed agent
becomes informed at step ``t`` iff some informed agent is within distance
``R`` during ``t``.  Flooding time — the first step at which everyone is
informed — lower-bounds every broadcast protocol and plays the role of the
diameter in static networks.

The scalar :class:`FloodingProtocol` is the plain reference: every hop
re-derives the informed and uninformed index lists from the boolean mask
and tests all informed agents against all uninformed ones.  The batch
state exploits that positions are **frozen within a round**: hop
``k >= 2`` of a multi-hop exchange only needs the agents informed at hop
``k - 1`` as sources — every older source was already tested against a
superset of the still-uninformed queries at the same positions (DESIGN.md,
"Bound snapshots and the batched cell cover").  The parity tests hold the
two to the same informed-at step for every agent.
"""

from __future__ import annotations

import numpy as np

from repro.protocols.base import BatchBroadcastState, BroadcastProtocol

__all__ = ["validate_flooding_options", "FloodingProtocol", "BatchFloodingState"]


def validate_flooding_options(multi_hop: bool = False) -> None:
    """Option vocabulary of both flooding classes (``multi_hop`` takes any
    truth value), checked by
    :class:`~repro.simulation.config.FloodingConfig` at construction."""


class FloodingProtocol(BroadcastProtocol):
    """Classic synchronous flooding.

    Args:
        multi_hop: paper semantics when False (one hop per step: agents
            informed during this step do not retransmit until the next).
            When True, the message saturates entire connected components of
            the current snapshot within the step ("infinite bandwidth"
            comparison mode).
    """

    name = "flooding"

    def __init__(self, *args, multi_hop: bool = False, **kwargs):
        super().__init__(*args, **kwargs)
        self.multi_hop = bool(multi_hop)

    def _exchange(self, positions: np.ndarray) -> np.ndarray:
        uninformed = np.nonzero(~self.informed)[0]
        if uninformed.size == 0:
            return np.empty(0, dtype=np.intp)
        snapshot = self.engine.bind(positions, self.radius)
        newly_all = []
        while uninformed.size:
            hits = snapshot.any_within(np.nonzero(self.informed)[0], uninformed)
            newly = uninformed[hits]
            if newly.size == 0:
                break
            self._mark_informed(newly)
            newly_all.append(newly)
            if not self.multi_hop:
                break
            uninformed = np.nonzero(~self.informed)[0]
        if not newly_all:
            return np.empty(0, dtype=np.intp)
        return np.concatenate(newly_all)


class BatchFloodingState(BatchBroadcastState):
    """Informed state of ``B`` independent flooding runs, updated in lock-step.

    The batch counterpart of :class:`FloodingProtocol`: one
    :class:`~repro.geometry.neighbors.BatchNeighborQuery` call per round
    answers every replica's infection test at once, and informed masks live
    in a ``(B, n)`` tensor.  Flooding consumes no randomness, so batch
    updates are trivially seed-equivalent to ``B`` scalar protocols; the
    update order within a round matches the scalar ``_exchange`` loop
    exactly (including ``multi_hop`` saturation).

    Args:
        multi_hop: scalar :class:`FloodingProtocol` semantics, per replica.

    (Shared arguments: :class:`~repro.protocols.base.BatchBroadcastState`.)
    """

    name = "flooding"

    def __init__(
        self,
        n: int,
        side: float,
        radius: float,
        sources,
        multi_hop: bool = False,
        rngs=None,
    ):
        super().__init__(n, side, radius, sources, rngs=rngs)
        self.multi_hop = bool(multi_hop)

    def _exchange(self, snapshot, active: np.ndarray) -> np.ndarray:
        newly_total = np.zeros((self.batch_size, self.n), dtype=bool)
        frontier = None
        while True:
            if frontier is None:
                source_mask = self.informed & active[:, None]
            else:
                source_mask = frontier  # already a subset of the active replicas
            query_mask = ~self.informed & active[:, None]
            if not query_mask.any():
                break
            hits = snapshot.any_within(source_mask, query_mask, self.radius)
            if not hits.any():
                break
            self._mark_informed(hits)
            newly_total |= hits
            if not self.multi_hop:
                break
            # Frontier hop: older sources were already tested against every
            # remaining uninformed agent at these same positions.
            frontier = hits
        return newly_total
