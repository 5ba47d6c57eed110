"""The one nearest-voxel search, for external texture and facing vertices.

Distance is exact on integer voxel indices, sum((d * spacing)**2) over the
offset d, and ties go to the lowest data row; a kd-tree on the mm positions
only proposes candidates, so tree layout and mm rounding never decide.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

_FIRST_K = 4  # candidates per query in the first round; doubled for the rest


def nearest_canonical(data: np.ndarray, queries: np.ndarray,
                      spacing) -> np.ndarray:
    """Row of the nearest of the (N, 3) voxel indices `data` to each of the
    (Q, 3) `queries`, lowest row among exact ties.

    Each query takes its k nearest rows from the tree; it is settled once
    its k-th lies beyond the best exact distance times (1 + 1e-9), or k
    covers every row, and the rest are asked again with k doubled.  Float
    points with unit spacing get plain Euclidean nearest neighbours.
    """
    data = np.asarray(data)
    queries = np.atleast_2d(np.asarray(queries))
    spacing = np.asarray(spacing, dtype=float)
    if len(data) == 0:
        raise ValueError("empty candidate set")
    tree = cKDTree(data * spacing)
    rows = np.empty(len(queries), dtype=np.int64)
    todo = np.arange(len(queries))
    k = min(_FIRST_K, len(data))
    while todo.size:
        dist, cand = tree.query(queries[todo] * spacing, k=range(1, k + 1))
        d2 = (((data[cand] - queries[todo, None]) * spacing) ** 2).sum(axis=-1)
        best = d2.min(axis=1)
        rows[todo] = np.where(d2 == best[:, None], cand, len(data)).min(axis=1)
        if k == len(data):
            break
        todo = todo[dist[:, -1] <= np.sqrt(best) * (1.0 + 1e-9)]
        k = min(2 * k, len(data))
    return rows
