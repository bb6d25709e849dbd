"""Push-pull gossip.

The other classic randomized-broadcast primitive: per step every agent —
informed or not — contacts one uniform neighbor within range; the message
crosses the contact in *either* direction (informed pushes, uninformed
pulls).  Pull makes the endgame exponentially faster than pure push in
well-mixed graphs; over the Manhattan Suburb both directions still have to
wait for Lemma-16 meetings, so the gap narrows — one more lens on the
paper's geometry in the baselines experiment.

Like gossip, both implementations sample by neighbor index against the
informed/uninformed cut: an agent's uniform contact crosses the cut iff
its picked index falls below the agent's cut-degree, so only the
cut-incident agents draw (one uniform each) and only the cut contacts are
materialized — ``O(cut)`` per step.  Draw order is canonical (initiators
ascending, cut-neighbors ascending), so trajectories do not depend on the
contact enumeration order and the batched state replays them seed-for-seed.
"""

from __future__ import annotations

import numpy as np

from repro.protocols.base import (
    BatchBroadcastState,
    BroadcastProtocol,
    group_segments,
)

__all__ = ["validate_pushpull_options", "PushPullGossip", "BatchPushPullState"]


def validate_pushpull_options() -> None:
    """Push-pull takes no options; the empty signature is the vocabulary
    :class:`~repro.simulation.config.FloodingConfig` checks at construction."""


class PushPullGossip(BroadcastProtocol):
    """Push-pull gossip: every agent contacts one random in-range neighbor."""

    name = "push-pull"

    def _exchange(self, positions: np.ndarray) -> np.ndarray:
        uninformed_idx = np.nonzero(~self.informed)[0]
        if uninformed_idx.size == 0:
            return np.empty(0, dtype=np.intp)
        informed_idx = np.nonzero(self.informed)[0]
        snapshot = self.engine.bind(positions, self.radius)
        s_cut, t_cut = snapshot.contacts_within(informed_idx, uninformed_idx)
        if s_cut.size == 0:
            return np.empty(0, dtype=np.intp)
        # Both endpoints of every cut contact initiate; agents without a
        # cut-neighbor cannot move the message, so their picks are skipped.
        init = np.concatenate([s_cut, t_cut])
        neighbor = np.concatenate([t_cut, s_cut])
        order = np.argsort(init * self.n + neighbor)
        init = init[order]
        neighbor = neighbor[order]
        initiators, cut_degree, offsets = group_segments(init)
        degree = snapshot.count_within(self._all_idx, initiators) - 1
        r = self.rng.uniform(size=initiators.size)
        pick = np.floor(r * degree).astype(np.intp)
        np.minimum(pick, np.maximum(degree - 1, 0), out=pick)
        cross = pick < cut_degree
        partner = neighbor[offsets[cross] + pick[cross]]
        who = initiators[cross]
        who_informed = self.informed[who]
        # Informed initiators push to their picked uninformed neighbor;
        # uninformed initiators pull and inform themselves.
        newly = np.unique(np.concatenate([partner[who_informed], who[~who_informed]]))
        return self._mark_informed(newly)


class BatchPushPullState(BatchBroadcastState):
    """``B`` independent push-pull runs in lock-step.

    One batched cut materialization and one batched degree count serve
    every replica; the uniform draws stay per replica — one
    ``uniform(S_b)`` call per replica per step over its cut-incident
    initiators, the scalar draw exactly.
    """

    name = "push-pull"
    uses_rng = True

    def _exchange(self, snapshot, active: np.ndarray) -> np.ndarray:
        newly = np.zeros((self.batch_size, self.n), dtype=bool)
        source_mask = self.informed & active[:, None]
        query_mask = ~self.informed & active[:, None]
        rep, s_cut, t_cut = snapshot.contacts_within(source_mask, query_mask, self.radius)
        if rep.size == 0:
            return newly
        rep2 = np.concatenate([rep, rep])
        init = np.concatenate([s_cut, t_cut])
        neighbor = np.concatenate([t_cut, s_cut])
        init_gid = rep2 * self.n + init
        order = np.argsort(init_gid * self.n + neighbor)
        rep2 = rep2[order]
        neighbor = neighbor[order]
        init_gid = init_gid[order]
        gids, cut_degree, offsets = group_segments(init_gid)
        init_rep = gids // self.n
        init_agent = gids % self.n
        init_mask = np.zeros((self.batch_size, self.n), dtype=bool)
        init_mask[init_rep, init_agent] = True
        counts = snapshot.count_within(
            np.broadcast_to(active[:, None], init_mask.shape), init_mask, self.radius
        )
        degree = counts[init_rep, init_agent] - 1
        r = self._draw_uniform_blocks(init_rep, 1)[0]
        pick = np.floor(r * degree).astype(np.intp)
        np.minimum(pick, np.maximum(degree - 1, 0), out=pick)
        cross = pick < cut_degree
        pos_sel = offsets[cross] + pick[cross]
        partner_agent = neighbor[pos_sel]
        partner_rep = rep2[pos_sel]
        who_rep = init_rep[cross]
        who_agent = init_agent[cross]
        who_informed = self.informed[who_rep, who_agent]
        newly[partner_rep[who_informed], partner_agent[who_informed]] = True
        newly[who_rep[~who_informed], who_agent[~who_informed]] = True
        return self._mark_informed(newly)
