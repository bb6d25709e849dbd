"""Central Zone and Suburb (Definition 4) and their geometry (Lemmas 6, 15).

A cell belongs to the **Central Zone** when its stationary probability mass
is at least ``(3/8) log n / n``; the complement cells form the **Suburb**
(four staircase-shaped corner regions, see Fig. 1).  The **Extended Suburb**
(Lemma 16) adds every point within Manhattan distance ``2 S`` of the Suburb,
where ``S = 3 L^3 log n / (2 l^2 n)`` bounds each corner region's diameter
(Lemma 15).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.cells import CellGrid
from repro.geometry.points import as_points, manhattan_distance_to_box

__all__ = ["ZonePartition", "density_threshold", "suburb_diameter_bound"]

#: Definition 4's threshold constant.
DEFAULT_THRESHOLD_FACTOR = 3.0 / 8.0


def density_threshold(n: int, factor: float = DEFAULT_THRESHOLD_FACTOR) -> float:
    """Definition 4's cell-mass threshold ``factor * log n / n``."""
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if not factor > 0:
        raise ValueError(f"threshold factor must be positive, got {factor}")
    return factor * math.log(n) / n


def suburb_diameter_bound(n: int, side: float, ell: float) -> float:
    """Lemma 15's bound ``S = 3 L^3 log n / (2 l^2 n)`` on a Suburb corner's extent.

    Every point ``(x0, y0)`` of the south-west Suburb corner satisfies
    ``x0 <= S`` and ``y0 <= S`` (and symmetrically for the other corners).
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if side <= 0 or ell <= 0:
        raise ValueError("side and ell must be positive")
    return 3.0 * side**3 * math.log(n) / (2.0 * ell * ell * n)


class ZonePartition:
    """Partition of a :class:`CellGrid` into Central Zone and Suburb cells.

    Args:
        grid: the cell partition.
        n: number of agents (enters through Definition 4's threshold).
        threshold_factor: the ``3/8`` of Definition 4; the experiments lower
            it in explicitly-labelled runs where the paper's un-optimized
            constant would empty the Central Zone at laptop scale.
    """

    def __init__(self, grid: CellGrid, n: int, threshold_factor: float = DEFAULT_THRESHOLD_FACTOR):
        self.grid = grid
        self.n = int(n)
        self.threshold_factor = float(threshold_factor)
        self.threshold = density_threshold(self.n, self.threshold_factor)
        self.cz_mask = grid.all_cell_masses() >= self.threshold
        # Suburb extent bound (Lemma 15).
        self.suburb_bound = suburb_diameter_bound(self.n, grid.side, grid.ell)

    # ------------------------------------------------------------------
    # Cell-level structure
    # ------------------------------------------------------------------
    @property
    def suburb_mask(self) -> np.ndarray:
        """Boolean ``(m, m)`` mask of Suburb cells."""
        return ~self.cz_mask

    @property
    def n_central_cells(self) -> int:
        return int(np.count_nonzero(self.cz_mask))

    @property
    def n_suburb_cells(self) -> int:
        return int(np.count_nonzero(self.suburb_mask))

    def central_zone_is_everything(self) -> bool:
        """True when the Suburb is empty (the large-R regime of Cor. 12)."""
        return bool(np.all(self.cz_mask))

    def count_full_rows_cols(self) -> tuple:
        """Number of cell rows / columns consisting entirely of CZ cells.

        Lemma 6 guarantees at least ``m / sqrt2`` of each.
        """
        full_cols = int(np.count_nonzero(np.all(self.cz_mask, axis=1)))  # fixed ix
        full_rows = int(np.count_nonzero(np.all(self.cz_mask, axis=0)))  # fixed iy
        return full_rows, full_cols

    def lemma6_bound(self) -> float:
        """The ``m / sqrt2`` lower bound of Lemma 6."""
        return self.grid.m / math.sqrt(2.0)

    # ------------------------------------------------------------------
    # Point classification
    # ------------------------------------------------------------------
    def in_central_zone(self, points) -> np.ndarray:
        """Mask of points lying in Central-Zone cells."""
        ij = self.grid.cell_indices(points)
        return self.cz_mask[ij[:, 0], ij[:, 1]]

    def in_suburb(self, points) -> np.ndarray:
        """Mask of points lying in Suburb cells."""
        return ~self.in_central_zone(points)

    def suburb_corner_extent(self) -> float:
        """Maximal coordinate extent of the SW Suburb corner (empirical
        counterpart of Lemma 15's ``S``).

        Returns the largest ``x + l`` (== largest ``y + l`` by symmetry)
        over SW-quadrant Suburb cells, i.e. how far the corner region
        reaches into the square; 0.0 when the Suburb is empty.
        """
        suburb = self.suburb_mask
        if not np.any(suburb):
            return 0.0
        half = self.grid.m / 2.0
        ix, iy = np.nonzero(suburb)
        sw = (ix < half) & (iy < half)
        if not np.any(sw):
            return 0.0
        reach_x = (ix[sw] + 1) * self.grid.ell
        reach_y = (iy[sw] + 1) * self.grid.ell
        return float(max(reach_x.max(), reach_y.max()))

    def _suburb_cell_boxes(self) -> np.ndarray:
        """Bounding boxes ``(x_lo, y_lo, x_hi, y_hi)`` of all Suburb cells."""
        ix, iy = np.nonzero(self.suburb_mask)
        ell = self.grid.ell
        return np.stack([ix * ell, iy * ell, (ix + 1) * ell, (iy + 1) * ell], axis=1)

    def in_extended_suburb(self, points, margin: float = None) -> np.ndarray:
        """Mask of points within Manhattan distance ``margin`` of the Suburb.

        Args:
            margin: defaults to ``2 S`` per Lemma 16's definition.
        """
        points = as_points(points)
        if margin is None:
            margin = 2.0 * self.suburb_bound
        boxes = self._suburb_cell_boxes()
        if boxes.shape[0] == 0:
            return np.zeros(points.shape[0], dtype=bool)
        result = np.zeros(points.shape[0], dtype=bool)
        pending = np.arange(points.shape[0])
        for x_lo, y_lo, x_hi, y_hi in boxes:
            if pending.size == 0:
                break
            dist = manhattan_distance_to_box(points[pending], x_lo, y_lo, x_hi, y_hi)
            hit = dist <= margin
            result[pending[hit]] = True
            pending = pending[~hit]
        return result

    def central_cell_ids(self) -> np.ndarray:
        """Flat ids of Central-Zone cells."""
        return np.nonzero(self.cz_mask.ravel())[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ZonePartition(m={self.grid.m}, central={self.n_central_cells}, "
            f"suburb={self.n_suburb_cells}, threshold={self.threshold:.3g})"
        )
