"""Seed-for-seed parity across engines and kernel tiers.

The repo's core invariant: the engine (scalar or batch) and the kernel
tier (numpy or compiled) are *performance* choices — with fixed seeds
every combination must produce identical trial results, down to the
informed-at step of every agent.  Which spatial index proposes candidates
is not a choice at all: one exact predicate decides every contact.
"""

import numpy as np
import pytest

from repro.geometry.neighbors import BatchNeighborQuery, BruteForceNeighborEngine
from repro.kernels import kernel_backend
from repro.protocols.flooding import BatchFloodingState, FloodingProtocol
from repro.simulation import run_trials, standard_config

ENGINES = ("scalar", "batch")
TIERS = ("numpy", "compiled") if kernel_backend() is not None else ("numpy",)


def fingerprints(config, trials=4):
    return [
        (
            r.flooding_time,
            r.completed,
            r.n_steps,
            r.source,
            tuple(np.asarray(r.informed_history).tolist()),
            r.cz_completion_time,
            r.suburb_completion_time,
        )
        for r in run_trials(config, trials)
    ]


class TestStrategyParity:
    """engines x tiers x mobility."""

    @pytest.mark.parametrize(
        "mobility,mobility_options",
        [
            ("mrwp", {}),
            ("rwp", {}),
            ("random-walk", {}),
            ("mrwp-pause", {"pause_time": 2.0}),
            ("mrwp-speed", {"v_min": 0.4, "v_max": 1.6}),
            ("random-direction", {}),
        ],
    )
    @pytest.mark.parametrize("engine", ENGINES)
    def test_engine_and_tier_are_invisible_in_results(self, mobility, mobility_options, engine):
        base = standard_config(
            90, seed=23, mobility=mobility, mobility_options=dict(mobility_options)
        )
        reference = fingerprints(base.with_options(engine="scalar", kernels="numpy"))
        for kernels in TIERS:
            variant = base.with_options(engine=engine, kernels=kernels)
            assert fingerprints(variant) == reference, (mobility, engine, kernels)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_multi_hop_frontier_parity(self, engine):
        """The batch frontier hops agree with the plain scalar closure."""
        base = standard_config(80, seed=17, multi_hop=True, engine="scalar", kernels="numpy")
        reference = fingerprints(base)
        for kernels in TIERS:
            variant = base.with_options(engine=engine, kernels=kernels)
            assert fingerprints(variant) == reference, (engine, kernels)

    def test_randomized_sweep_across_seeds(self):
        """Randomized workloads: every engine and tier, many seeds."""
        for seed in (1, 7, 101):
            reference = None
            for kernels in TIERS:
                for engine in ENGINES:
                    config = standard_config(
                        60, seed=seed, radius_factor=1.2, engine=engine, kernels=kernels
                    )
                    got = fingerprints(config, trials=3)
                    if reference is None:
                        reference = got
                    assert got == reference, (seed, engine, kernels)


class TestAdversarialStates:
    """Hand-built states that stress the kernels' boundary logic."""

    def batch_hits(self, positions, informed, radius, side):
        batch, n = informed.shape
        query = BatchNeighborQuery(side, batch)
        return query.any_within(positions, informed, ~informed, radius)

    def brute_hits(self, positions, informed, radius):
        brute = BruteForceNeighborEngine(1.0)
        hits = np.zeros(informed.shape, dtype=bool)
        for b in range(informed.shape[0]):
            hits[b, ~informed[b]] = brute.any_within(
                positions[b][informed[b]], positions[b][~informed[b]], radius
            )
        return hits

    def test_near_complete_informed_set(self, rng):
        """informed ~ n, a handful of stragglers: the cell cover must still
        match brute force."""
        batch, n, side, radius = 3, 200, 14.0, 1.5
        positions = rng.uniform(0, side, size=(batch, n, 2))
        informed = np.ones((batch, n), dtype=bool)
        informed[:, :3] = False  # three stragglers per replica
        got = self.batch_hits(positions, informed, radius, side)
        assert np.array_equal(got, self.brute_hits(positions, informed, radius))

    def test_agents_on_cover_cell_boundaries(self):
        """Sources sitting exactly on occupancy-cell edges."""
        side, radius = 10.0, 2.0
        cell = radius / BatchNeighborQuery._COVER_DIVISOR
        xs = np.arange(1, 9, dtype=np.float64) * cell
        n = xs.size + 2
        positions = np.zeros((1, n, 2))
        positions[0, : xs.size, 0] = xs  # sources exactly on cell edges
        positions[0, : xs.size, 1] = 5.0
        positions[0, -2] = [5.0, 5.0]
        positions[0, -1] = [5.0, 5.0 + radius]  # query exactly at distance R
        informed = np.zeros((1, n), dtype=bool)
        informed[0, :-1] = True
        got = self.batch_hits(positions, informed, radius, side)
        assert np.array_equal(got, self.brute_hits(positions, informed, radius))
        assert got[0, -1]  # inclusive <= R

    def test_radius_comparable_to_cell_size(self, rng):
        """Radius ~ grid cell: candidate blocks span multiple cells."""
        side = 12.0
        positions = rng.uniform(0, side, size=(2, 120, 2))
        informed = rng.uniform(size=(2, 120)) < 0.4
        for radius in (0.11, 0.5, 3.0):
            got = self.batch_hits(positions, informed, radius, side)
            assert np.array_equal(got, self.brute_hits(positions, informed, radius)), radius

    def test_scalar_protocol_with_external_informed_surgery(self, rng):
        """The scalar protocol reads the informed mask afresh every round,
        so surgery behind its back is honoured (near-complete case)."""
        n, side, radius = 120, 11.0, 1.4
        protocol = FloodingProtocol(n, side, radius, source=0)
        protocol.informed[:-2] = True  # external surgery: all but 2 informed
        positions = rng.uniform(0, side, size=(n, 2))
        newly = protocol.step(positions)
        assert set(newly) <= {n - 2, n - 1}
        assert protocol.informed[:-2].all()

    def test_scalar_protocol_with_count_preserving_surgery(self, rng):
        """Surgery that keeps the informed *count* but moves the bits is
        honoured too."""
        n, side, radius = 80, 9.0, 1.2
        positions = rng.uniform(0, side, size=(n, 2))
        protocol = FloodingProtocol(n, side, radius, source=0)
        protocol.step(positions)
        count = protocol.informed_count
        # Surgery: same count, entirely different agents.
        protocol.informed[:] = False
        protocol.informed[n - count:] = True
        newly = protocol.step(positions)
        reference = FloodingProtocol(n, side, radius, source=n - 1)
        reference.informed[:] = False
        reference.informed[n - count:] = True
        expected = reference.step(positions)
        assert np.array_equal(np.sort(newly), np.sort(expected))

    def test_batch_state_round_equals_scalar_round(self, rng):
        """One communication round, same positions: batch rows == scalar.

        A multi-hop round must inform exactly the disk-graph components
        holding the source (brute-force closure over every informed agent):
        the batch state's hops >= 2 transmit from the fresh frontier only,
        so this is what catches a truncated frontier."""
        n, side, radius = 150, 12.0, 1.3
        batch = 4
        positions = rng.uniform(0, side, size=(batch, n, 2))
        sources = np.array([0, 5, 9, 149])
        for multi_hop in (False, True):
            state = BatchFloodingState(
                n, side, radius, sources, multi_hop=multi_hop
            )
            state.step(positions)
            for b in range(batch):
                protocol = FloodingProtocol(
                    n, side, radius, source=int(sources[b]), multi_hop=multi_hop
                )
                protocol.step(positions[b])
                assert np.array_equal(state.informed[b], protocol.informed), (b, multi_hop)
                assert np.array_equal(state.informed_at[b], protocol.informed_at), (b, multi_hop)
                if multi_hop:
                    diff = positions[b][:, None, :] - positions[b][None, :, :]
                    adjacent = np.sum(diff * diff, axis=-1) <= radius * radius
                    reached = np.zeros(n, dtype=bool)
                    reached[sources[b]] = True
                    while not np.array_equal(grown := reached | adjacent[reached].any(0), reached):
                        reached = grown
                    assert np.array_equal(protocol.informed, reached), b
                    assert np.array_equal(state.informed[b], reached), b

