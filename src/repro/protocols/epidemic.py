"""SIR epidemic broadcast.

Agents are Susceptible / Infected (transmitting) / Recovered (informed but
silent).  Each infected agent recovers independently with probability
``recovery_prob`` per step after transmitting, giving a geometric active
lifetime of mean ``1 / recovery_prob`` steps.  Unlike flooding, the process
can *die out* before full coverage — the classic epidemic-threshold
behaviour that the baselines experiment contrasts with flooding's
guaranteed completion.
"""

from __future__ import annotations

import numpy as np

from repro.protocols.base import BatchBroadcastState, BroadcastProtocol

__all__ = ["validate_sir_options", "SIREpidemic", "BatchSIRState"]


def validate_sir_options(recovery_prob: float = 0.1) -> None:
    """Option checks of both SIR classes, also run by
    :class:`~repro.simulation.config.FloodingConfig` at construction."""
    if not 0.0 <= recovery_prob <= 1.0:
        raise ValueError(f"recovery_prob must be in [0, 1], got {recovery_prob}")


class SIREpidemic(BroadcastProtocol):
    """SIR dynamics over the MANET snapshots."""

    name = "sir"

    def __init__(self, *args, recovery_prob: float = 0.1, **kwargs):
        super().__init__(*args, **kwargs)
        validate_sir_options(recovery_prob)
        self.recovery_prob = float(recovery_prob)
        self.recovered = np.zeros(self.n, dtype=bool)

    @property
    def infected(self) -> np.ndarray:
        """Mask of currently transmitting agents."""
        return self.informed & ~self.recovered

    @property
    def active_count(self) -> int:
        return int(np.count_nonzero(self.infected))

    def can_progress(self) -> bool:
        return not self.is_complete() and self.active_count > 0

    def _exchange(self, positions: np.ndarray) -> np.ndarray:
        infected = self.infected
        newly = np.empty(0, dtype=np.intp)
        if np.any(infected):
            uninformed = np.nonzero(~self.informed)[0]
            if uninformed.size:
                hits = self.engine.any_within(
                    positions[infected], positions[uninformed], self.radius
                )
                newly = self._mark_informed(uninformed[hits])
            # Recovery happens after this step's transmissions.
            active_idx = np.nonzero(infected)[0]
            recover = self.rng.uniform(size=active_idx.size) < self.recovery_prob
            self.recovered[active_idx[recover]] = True
        return newly

    def final_metrics(self, positions: np.ndarray, zones=None) -> dict:
        out = super().final_metrics(positions, zones)
        out["recovered"] = int(np.count_nonzero(self.recovered))
        return out


class BatchSIRState(BatchBroadcastState):
    """``B`` independent SIR runs in lock-step.

    The infection test is one batched query over the infected masks; the
    recovery coin-flips stay per replica — one ``uniform(#infected)`` call
    per active replica per step, after the transmissions, in the scalar
    order.  A replica retires once its infected set empties (die-out),
    exactly when the scalar loop would stop.
    """

    name = "sir"
    uses_rng = True

    def __init__(self, *args, recovery_prob: float = 0.1, **kwargs):
        super().__init__(*args, **kwargs)
        validate_sir_options(recovery_prob)
        self.recovery_prob = float(recovery_prob)
        self.recovered = np.zeros((self.batch_size, self.n), dtype=bool)

    @property
    def infected(self) -> np.ndarray:
        """``(B, n)`` mask of currently transmitting agents."""
        return self.informed & ~self.recovered

    def can_progress_mask(self) -> np.ndarray:
        return ~self.complete_mask() & np.any(self.infected, axis=1)

    def _exchange(self, snapshot, active: np.ndarray) -> np.ndarray:
        infected = self.infected
        source_mask = infected & active[:, None]
        query_mask = ~self.informed & active[:, None]
        if source_mask.any() and query_mask.any():
            newly = self._mark_informed(
                snapshot.any_within(source_mask, query_mask, self.radius)
            )
        else:
            newly = np.zeros((self.batch_size, self.n), dtype=bool)
        # Recovery after this step's transmissions, per replica.
        for b in np.nonzero(active)[0]:
            idx = np.nonzero(infected[b])[0]
            if idx.size:
                recover = self.rngs[b].uniform(size=idx.size) < self.recovery_prob
                self.recovered[b, idx[recover]] = True
        return newly

    def final_metrics(self, positions: np.ndarray, zones=None) -> list:
        out = super().final_metrics(positions, zones)
        for b in range(self.batch_size):
            out[b]["recovered"] = int(np.count_nonzero(self.recovered[b]))
        return out
