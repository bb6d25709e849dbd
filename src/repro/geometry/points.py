"""Point and distance utilities on the ``[0, L] x [0, L]`` square.

Agents live on a bounded square region of side length ``L`` (the paper's
support).  All functions are vectorized over numpy arrays of shape ``(n, 2)``
(or broadcastable variants) and avoid per-point Python loops.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_points",
    "within_radius",
    "search_radius",
    "euclidean_distance",
    "manhattan_distance",
    "chebyshev_distance",
    "pairwise_euclidean",
    "pairwise_manhattan",
    "clamp_to_square",
    "in_square",
    "corner_distance",
    "manhattan_distance_to_box",
]


def as_points(data) -> np.ndarray:
    """Coerce ``data`` to a float64 array of shape ``(n, 2)``.

    A single point ``(x, y)`` is promoted to shape ``(1, 2)``.

    Raises:
        ValueError: if ``data`` cannot be interpreted as 2-D points.
    """
    points = np.asarray(data, dtype=np.float64)
    if points.ndim == 1:
        if points.shape[0] != 2:
            raise ValueError(f"a single point must have 2 coordinates, got {points.shape[0]}")
        points = points.reshape(1, 2)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"expected points of shape (n, 2), got {points.shape}")
    return points


def within_radius(a, b, radius: float) -> np.ndarray:
    """The contact rule: are ``a`` and ``b`` at distance at most ``radius``?

    Evaluated as ``dx*dx + dy*dy <= radius*radius``, inclusive, over the
    last axis of ``(..., 2)`` point arrays (broadcasting).  Every neighbour
    answer of the library is decided by this expression: the numpy paths
    call it, and the compiled kernels evaluate the same IEEE operations.
    Spatial indexes only propose candidates for it.
    """
    dx = a[..., 0] - b[..., 0]
    dy = a[..., 1] - b[..., 1]
    return dx * dx + dy * dy <= radius * radius


def search_radius(radius: float, extent: float) -> float:
    """How far a candidate search must reach for :func:`within_radius`.

    A pair the predicate accepts can lie a few ulps beyond ``radius``, and
    an index may see coordinates rounded at the scale of ``extent`` (the
    largest coordinate it holds, e.g. replicas shifted into tiles).  Both
    errors are below 1e-15 relative; this bound over-reaches them by six
    orders of magnitude, so no accepted pair is ever missed.
    """
    return radius * (1.0 + 1e-9) + extent * 1e-12


def euclidean_distance(a, b) -> np.ndarray:
    """Elementwise Euclidean distance between point arrays ``a`` and ``b``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    diff = a - b
    return np.sqrt(np.sum(diff * diff, axis=-1))


def manhattan_distance(a, b) -> np.ndarray:
    """Elementwise Manhattan (L1) distance between point arrays.

    This is the length of either Manhattan path between the two points, and
    therefore the trip length of an MRWP leg pair (Section 2 of the paper).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.sum(np.abs(a - b), axis=-1)


def chebyshev_distance(a, b) -> np.ndarray:
    """Elementwise Chebyshev (L-infinity) distance between point arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.max(np.abs(a - b), axis=-1)


def pairwise_euclidean(a, b=None) -> np.ndarray:
    """Dense pairwise Euclidean distance matrix.

    Args:
        a: array of shape ``(n, 2)``.
        b: optional array of shape ``(m, 2)``; defaults to ``a``.

    Returns:
        array of shape ``(n, m)``.  Intended for brute-force validation of
        the spatial indexes, not for large ``n``.
    """
    a = as_points(a)
    b = a if b is None else as_points(b)
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


def pairwise_manhattan(a, b=None) -> np.ndarray:
    """Dense pairwise Manhattan distance matrix (see :func:`pairwise_euclidean`)."""
    a = as_points(a)
    b = a if b is None else as_points(b)
    return np.sum(np.abs(a[:, None, :] - b[None, :, :]), axis=-1)


def clamp_to_square(points, side: float) -> np.ndarray:
    """Clamp points into ``[0, side]^2`` (numerical-noise guard after moves)."""
    if side <= 0:
        raise ValueError(f"side must be positive, got {side}")
    return np.clip(np.asarray(points, dtype=np.float64), 0.0, side)


def in_square(points, side: float, tol: float = 0.0) -> np.ndarray:
    """Boolean mask of points lying inside ``[0, side]^2`` (with tolerance)."""
    points = as_points(points)
    low = -tol
    high = side + tol
    return np.all((points >= low) & (points <= high), axis=1)


def corner_distance(points, side: float) -> np.ndarray:
    """Manhattan distance from each point to the *nearest square corner*.

    The paper's Suburb consists of four regions hugging the corners
    (Definition 4); distance-to-corner is the natural coordinate there.
    """
    points = as_points(points)
    x = np.minimum(points[:, 0], side - points[:, 0])
    y = np.minimum(points[:, 1], side - points[:, 1])
    return x + y


def manhattan_distance_to_box(points, x_lo: float, y_lo: float, x_hi: float, y_hi: float) -> np.ndarray:
    """Manhattan distance from each point to an axis-aligned box (0 inside).

    Used for the *Extended Suburb* of Lemma 16: all points within Manhattan
    distance ``2S`` of the Suburb.
    """
    points = as_points(points)
    dx = np.maximum(np.maximum(x_lo - points[:, 0], points[:, 0] - x_hi), 0.0)
    dy = np.maximum(np.maximum(y_lo - points[:, 1], points[:, 1] - y_hi), 0.0)
    return dx + dy
