"""Differential fuzzer: every batch query path against brute force.

The batch neighbour query answers through the compiled kernels, the cell
cover, or the tiled candidate search (a KD-tree, or the bucket grid as
without scipy).  Points sit on a lattice and at distance exactly R, or R
plus or minus an ulp, from one another — the cases where a search with
any slack past R, or a rounding-blind occupancy shortcut, would disagree
with the exact predicate.  Every path must match
:class:`~repro.geometry.neighbors.BruteForceNeighborEngine` bit for bit.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.geometry.neighbors as neighbors
from repro.geometry.neighbors import BatchNeighborQuery, BruteForceNeighborEngine
from repro.kernels import kernel_backend, use_kernel_tier

SIDE = 10.0
PATHS = ["cover", "candidates", "grid-candidates"]
if kernel_backend() is not None:
    PATHS.append("compiled")


@contextmanager
def query_path(name):
    """Route batch queries through one path: ``cover`` (numpy tier, cell
    cover first), ``candidates`` (cover off), ``grid-candidates`` (cover off,
    KD-tree probe answering "no scipy"), or ``compiled``."""
    saved = BatchNeighborQuery._MAX_COVER_CELLS, neighbors._KDTREE_PROBE
    try:
        if name != "cover":
            BatchNeighborQuery._MAX_COVER_CELLS = 0
        if name == "grid-candidates":
            neighbors._KDTREE_PROBE = False
        with use_kernel_tier("compiled" if name == "compiled" else "numpy"):
            yield
    finally:
        BatchNeighborQuery._MAX_COVER_CELLS, neighbors._KDTREE_PROBE = saved


def _offset(kind, radius):
    """A displacement of length exactly R, R(1 +- ulp), or a lattice step."""
    up, down = np.nextafter(radius, np.inf), np.nextafter(radius, 0.0)
    return {
        "axis": (radius, 0.0),
        "axis+ulp": (up, 0.0),
        "axis-ulp": (0.0, down),
        "diagonal": (0.6 * radius, 0.8 * radius),
        "diagonal+ulp": (0.6 * up, 0.8 * up),
        "step": (radius / 2, radius / 2),
    }[kind]


@st.composite
def snapshots(draw):
    """``(positions (B, n, 2), sources (B, n), queries (B, n), radius)``."""
    radius = draw(st.sampled_from([1.0, 0.5, 1.7, 0.1, 1e-7, SIDE * 1.5]))
    batch = draw(st.integers(1, 3))
    n = draw(st.integers(2, 24))
    spacing = draw(st.sampled_from([radius, radius / 2, 0.25, 1.0]))
    kinds = ["axis", "axis+ulp", "axis-ulp", "diagonal", "diagonal+ulp", "step"]
    positions = np.empty((batch, n, 2))
    for b in range(batch):
        for i in range(n):
            if i and draw(st.booleans()):
                # Relative to an earlier point: exactly at, or an ulp off, R.
                anchor = positions[b, draw(st.integers(0, i - 1))]
                dx, dy = _offset(draw(st.sampled_from(kinds)), radius)
                positions[b, i] = anchor + (dx, dy)
            else:
                cells = int(SIDE / spacing) if spacing > SIDE / 1000 else 1000
                positions[b, i] = (
                    draw(st.integers(0, cells)) * spacing,
                    draw(st.integers(0, cells)) * spacing,
                )
    np.clip(positions, 0.0, SIDE, out=positions)
    masks = draw(st.lists(st.sampled_from("sqb-"), min_size=batch * n, max_size=batch * n))
    roles = np.array(masks).reshape(batch, n)
    sources = (roles == "s") | (roles == "b")
    queries = (roles == "q") | (roles == "b")
    return positions, sources, queries, radius


def brute(positions, sources, queries, radius):
    """Per-replica hits, counts and contact sets by brute force."""
    engine = BruteForceNeighborEngine(SIDE)
    batch, n, _ = positions.shape
    hits = np.zeros((batch, n), dtype=bool)
    counts = np.zeros((batch, n), dtype=np.intp)
    contacts, pairs = set(), set()
    for b in range(batch):
        src, qry = np.nonzero(sources[b])[0], np.nonzero(queries[b])[0]
        hits[b, qry] = engine.any_within(positions[b][src], positions[b][qry], radius)
        counts[b, qry] = engine.count_within(positions[b][src], positions[b][qry], radius)
        s, q = engine.bind(positions[b], radius).contacts_within(src, qry)
        contacts |= {(b, int(x), int(y)) for x, y in zip(s, q)}
        pairs |= {(b, int(i), int(j)) for i, j in engine.pairs_within(positions[b], radius)}
    return hits, counts, contacts, pairs


@pytest.mark.parametrize("path", PATHS)
@settings(max_examples=40, derandomize=True, deadline=None)
@given(snapshot=snapshots())
def test_batch_queries_match_brute_force(path, snapshot):
    positions, sources, queries, radius = snapshot
    hits, counts, contacts, pairs = brute(positions, sources, queries, radius)
    with query_path(path):
        bound = BatchNeighborQuery(SIDE, positions.shape[0]).bind(positions)
        assert np.array_equal(bound.any_within(sources, queries, radius), hits)
        assert np.array_equal(bound.count_within(sources, queries, radius), counts)
        rep, s, q = bound.contacts_within(sources, queries, radius)
        assert set(zip(rep.tolist(), s.tolist(), q.tolist())) == contacts
        rep, i, j = bound.pairs_within(radius)
        assert set(zip(rep.tolist(), i.tolist(), j.tolist())) == pairs
