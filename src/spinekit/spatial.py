"""Exact nearest-neighbor queries with deterministic tie-breaking.

scipy's kd-tree is exact but breaks distance ties arbitrarily; on
grid-aligned data exact ties are common, so `interspace.facing_vertices`
queries through `nearest_canonical`, which resolves ties to the lowest index.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree


def nearest_canonical(data: np.ndarray, queries: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Index of the nearest data point for each query point.

    Exact squared-distance ties resolve to the lowest data index, making
    results independent of tree layout.  Returns (indices, distances).
    """
    data = np.asarray(data, dtype=float)
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if len(data) == 0:
        raise ValueError("empty candidate set")
    if len(data) == 1:
        idx = np.zeros(len(queries), dtype=np.int64)
        return idx, np.linalg.norm(queries - data[0], axis=1)

    tree = cKDTree(data)
    dist2, idx2 = tree.query(queries, k=2)
    dist = dist2[:, 0].copy()
    idx = idx2[:, 0].astype(np.int64)
    radius = dist * (1.0 + 1e-9) + 1e-12
    ambiguous = np.nonzero(dist2[:, 1] <= radius)[0]
    for qi in ambiguous:
        cand = tree.query_ball_point(queries[qi], radius[qi])
        cand = np.asarray(cand, dtype=np.int64)
        d2 = ((data[cand] - queries[qi]) ** 2).sum(axis=1)
        best = d2.min()
        idx[qi] = cand[d2 == best].min()
        dist[qi] = np.sqrt(best)
    return idx, dist
