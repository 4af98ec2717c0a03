"""Exact k-nearest-neighbor queries and atrous (strided) neighbor selection.

Neighborhoods are computed over the sampled points of one block. Distance
ties are broken by the lower point index everywhere, so results match a
brute-force sort exactly and are reproducible. The query point is always
excluded from its own neighborhood.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["NeighborIndex", "AtrousNeighborhood", "build_index", "atrous_gather",
           "atrous_gather_all"]


@dataclass(frozen=True)
class AtrousNeighborhood:
    """K selected neighbor indices for one query point at stride D.

    Among the K*D nearest other points sorted by increasing distance
    (1-indexed), the selected indices are exactly ranks D, 2D, ..., K*D.
    When the index holds fewer than K*D other points, the sorted list is
    cyclically repeated to length K*D before selection.
    """

    query: int
    indices: np.ndarray
    distances: np.ndarray
    K: int
    D: int


class NeighborIndex:
    """Immutable exact k-NN index over an M x 3 position snapshot.

    Queries select from dense distance rows, so memory grows as M^2: an
    all-points query at M = 2048, k = 1024 peaks near 67 MB of arrays
    (tracemalloc), or 113 MB when most rows tie at their cutoff.
    """

    def __init__(self, positions: np.ndarray):
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError(f"positions must be M x 3, got {positions.shape}")
        if positions.shape[0] < 1:
            raise ValueError("need at least one point")
        if not np.all(np.isfinite(positions)):
            raise ValueError("positions contain non-finite coordinates")
        self.positions = positions.copy()
        self.positions.setflags(write=False)

    def __len__(self) -> int:
        return self.positions.shape[0]

    def _nearest(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Exact k nearest others of each query point, ties to lower index."""
        n, m = queries.size, len(self)
        p = self.positions
        # (dx^2 + dy^2) + dz^2 with dx = p_j - p_i: np.linalg.norm's order
        dist = np.subtract(p[:, 0], p[queries, 0][:, None])
        np.square(dist, out=dist)
        tmp = np.empty_like(dist)
        for axis in (1, 2):
            np.subtract(p[:, axis], p[queries, axis][:, None], out=tmp)
            np.square(tmp, out=tmp)
            dist += tmp
        np.sqrt(dist, out=dist)
        rows = np.arange(n)
        dist[rows, queries] = np.inf
        # every entry at or below the row's k-th distance, ties included
        np.copyto(tmp, dist)
        tmp.partition(k - 1, axis=1)
        kth = tmp[:, [k - 1]]
        del tmp
        keep = dist <= kth
        keep[rows, queries] = False  # an overflowed +inf cutoff ties the query
        # where more entries tie at the cutoff than slots remain, keep the
        # lowest-index ones; the rest of a kept row lies below its cutoff
        counts = np.count_nonzero(keep, axis=1)
        over = np.flatnonzero(counts > k)
        tied = keep[over] & (dist[over] == kth[over])
        slots = k - counts[over] + np.count_nonzero(tied, axis=1)
        keep[over] ^= tied & (np.cumsum(tied, axis=1) > slots[:, None])
        # exactly k entries per row, listed in ascending column order; the
        # stable sort keeps that order among equal distances. Dropping each
        # buffer once spent keeps the peak near the two distance buffers.
        flat = np.flatnonzero(keep).reshape(n, k)
        del keep
        d = dist.ravel()[flat]
        del dist
        flat -= rows[:, None] * m
        # offset each row's sort order into the flat (n, k) buffers, so one
        # contiguous take reorders each output
        order = np.argsort(d, axis=1, kind="stable")
        order += rows[:, None] * k
        idx = flat.take(order)
        del flat
        return idx, d.take(order)

    def nearest_others(self, query: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The k nearest points other than ``query``, ties to lower index.

        Returns (indices, distances), distances non-decreasing. If fewer
        than k other points exist, returns all of them.
        """
        m = len(self)
        if not 0 <= query < m:
            raise ValueError(f"query index {query} out of range for {m} points")
        if k < 1:
            raise ValueError("k must be >= 1")
        idx, dist = self._nearest(np.array([query]), min(k, m - 1))
        return idx[0], dist[0]

    def nearest_others_all(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized nearest_others for every point; returns (M x k', M x k').

        k' = min(k, M-1). One dense M x M distance matrix, a per-row cutoff
        and a stable per-row sort give every row exactly, duplicates and
        tied cutoffs included.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        m = len(self)
        return self._nearest(np.arange(m), min(k, m - 1))


def build_index(positions: np.ndarray) -> NeighborIndex:
    """Build an exact k-NN index; duplicate positions are permitted."""
    return NeighborIndex(positions)


def _strided(sorted_idx: np.ndarray, sorted_dist: np.ndarray, K: int, D: int,
             query: int) -> AtrousNeighborhood:
    need = K * D
    n = sorted_idx.size
    if n == 0:
        raise ValueError("no other points to select neighbors from")
    if n < need:
        reps = -(-need // n)
        sorted_idx = np.tile(sorted_idx, reps)[:need]
        sorted_dist = np.tile(sorted_dist, reps)[:need]
    return AtrousNeighborhood(
        query=query,
        indices=sorted_idx[D - 1:need:D].copy(),
        distances=sorted_dist[D - 1:need:D].copy(),
        K=K,
        D=D,
    )


def atrous_gather(index: NeighborIndex, query: int, K: int, D: int) -> AtrousNeighborhood:
    """Select every D-th of the K*D nearest other points (1-indexed ranks)."""
    if K < 1 or D < 1:
        raise ValueError(f"K and D must be >= 1, got K={K}, D={D}")
    sorted_idx, sorted_dist = index.nearest_others(query, K * D)
    return _strided(sorted_idx, sorted_dist, K, D, query)


def atrous_gather_all(index: NeighborIndex, K: int, D: int,
                      sorted_idx: np.ndarray | None = None,
                      sorted_dist: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Strided neighbor indices for every point at once.

    Returns (M x K indices, M x K distances). Pass precomputed sorted
    neighbor lists (from ``nearest_others_all``) to share one sort across
    several strides; they must cover at least min(K*D, M-1) ranks. Given
    ``sorted_idx`` alone, the returned distances are None.
    """
    if K < 1 or D < 1:
        raise ValueError(f"K and D must be >= 1, got K={K}, D={D}")
    m = len(index)
    if m < 2:
        raise ValueError("need at least two points for neighborhoods")
    need = K * D
    if sorted_idx is None:
        sorted_idx, sorted_dist = index.nearest_others_all(need)
    avail = sorted_idx.shape[1]
    if avail < min(need, m - 1):
        raise ValueError(f"precomputed neighbor lists cover {avail} ranks, need {min(need, m - 1)}")
    if avail < need:
        reps = -(-need // avail)
        sorted_idx = np.tile(sorted_idx, (1, reps))[:, :need]
        if sorted_dist is not None:
            sorted_dist = np.tile(sorted_dist, (1, reps))[:, :need]
    return (sorted_idx[:, D - 1:need:D].copy(),
            None if sorted_dist is None else sorted_dist[:, D - 1:need:D].copy())
