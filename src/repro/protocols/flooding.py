"""The flooding protocol (Section 4).

Every informed agent transmits at every time step; a non-informed agent
becomes informed at step ``t`` iff some informed agent is within distance
``R`` during ``t``.  Flooding time — the first step at which everyone is
informed — lower-bounds every broadcast protocol and plays the role of the
diameter in static networks.

Both implementations exploit two structural facts of flooding (DESIGN.md,
"Bound snapshots and the batched cell cover"):

* the informed set is **monotone**, so the uninformed/informed index lists
  are maintained incrementally instead of re-scanning the boolean mask
  every hop;
* positions are **frozen within a round**, so hop ``k >= 2`` of a
  multi-hop exchange only needs the agents informed at hop ``k - 1`` as
  sources — every older source was already tested against a superset of
  the still-uninformed queries at the same positions.  The per-round
  engine state is shared across hops through the bound-snapshot API.
"""

from __future__ import annotations

import numpy as np

from repro.protocols.base import BatchBroadcastState, BroadcastProtocol

__all__ = ["FloodingProtocol", "BatchFloodingState"]


class FloodingProtocol(BroadcastProtocol):
    """Classic synchronous flooding.

    Args:
        multi_hop: paper semantics when False (one hop per step: agents
            informed during this step do not retransmit until the next).
            When True, the message saturates entire connected components of
            the current snapshot within the step ("infinite bandwidth"
            comparison mode).  Hops ``>= 2`` of a multi-hop round
            transmit from the just-informed frontier only.
    """

    name = "flooding"

    def __init__(self, *args, multi_hop: bool = False, **kwargs):
        super().__init__(*args, **kwargs)
        self.multi_hop = bool(multi_hop)
        self._informed_idx = None
        self._uninformed_idx = None

    def _index_lists(self) -> tuple:
        """Incremental informed/uninformed index lists (re-derived from the
        boolean mask only when they drifted, e.g. after external state
        surgery in tests).  The membership scan catches count-preserving
        surgery too (a moved informed bit), and costs one boolean gather —
        far less than the ``nonzero`` scans it avoids."""
        count = self.informed_count
        if (
            self._informed_idx is None
            or self._informed_idx.size != count
            or self._uninformed_idx.size != self.n - count
            or not self.informed[self._informed_idx].all()
        ):
            self._informed_idx = np.nonzero(self.informed)[0]
            self._uninformed_idx = np.nonzero(~self.informed)[0]
        return self._informed_idx, self._uninformed_idx

    def _exchange(self, positions: np.ndarray) -> np.ndarray:
        informed_idx, uninformed = self._index_lists()
        if uninformed.size == 0:
            return np.empty(0, dtype=np.intp)
        snapshot = self.engine.bind(positions, self.radius)
        frontier = informed_idx
        newly_all = []
        while uninformed.size:
            hits = snapshot.any_within(frontier, uninformed)
            newly = uninformed[hits]
            if newly.size == 0:
                break
            self._mark_informed(newly)
            newly_all.append(newly)
            uninformed = uninformed[~hits]
            if not self.multi_hop:
                break
            # Positions are frozen within the round, so agents informed
            # before this hop were already tested against every remaining
            # uninformed agent — only the fresh frontier can matter.
            frontier = newly
        self._uninformed_idx = uninformed
        if not newly_all:
            return np.empty(0, dtype=np.intp)
        newly_cat = np.concatenate(newly_all) if len(newly_all) > 1 else newly_all[0]
        self._informed_idx = np.concatenate([informed_idx, newly_cat])
        return newly_cat


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
        backend: str = "auto",
        multi_hop: bool = False,
        rngs=None,
    ):
        super().__init__(n, side, radius, sources, rngs=rngs, backend=backend)
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
