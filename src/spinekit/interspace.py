"""Intervertebral-space surface extraction between consecutive vertebrae.

Facing vertices are the images of the vertex-to-vertex nearest-neighbor maps
between the two meshes, restricted to each vertebral body (distance below
the first density threshold), searched on voxel indices by the search of
external texture, `spatial.nearest_canonical`.  The alpha shape of the
combined cloud is the interspace surface; interior HU statistics come from
background voxels whose centroids fall strictly inside it.

Containment is exact.  The surface's vertices are voxel centroids, like the
centroids tested, so both are taken as integer voxel indices: inside, outside
and on-surface do not change under the per-axis spacing scale.  Each voxel's
winding number is the signed count of the triangles crossed by its column
above it (parity voxelization, Nooruddin & Turk 2003, with signed crossings
so a solid island kept inside a discarded cavity counts as inside).  Every
triangle with a nonzero normal z adds sign(n_z) to the voxel columns its
projection covers, each column taken at (i + e, j + e^2) so that a column
through a shared edge or vertex counts it exactly once; its crossing height
is the exact rational num / n_z.  Voxels lying in a closed triangle are on
the surface and are excluded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alpha_mesh import AUTO, TriangleMesh, build_alpha_shape
from .errors import ExtractionError, MeshContractError, ReconstructionError
from .region_segmentation import DistanceSamples, Thresholds
from .spatial import nearest_canonical
from .volume_io import LabeledVolume, mm_to_index


def _vertex_voxels(mesh: TriangleMesh, spacing, dims=None) -> np.ndarray:
    """`mm_to_index` of the vertices; MeshContractError unless it finds them
    all."""
    ijk, ok = mm_to_index(mesh.vertices, spacing, dims)
    if not ok.all():
        raise MeshContractError(
            f"{int((~ok).sum())} mesh vertices are not voxel centroids, e.g. "
            f"{np.asarray(mesh.vertices)[np.argmin(ok)].tolist()}")
    return ijk


def facing_vertices(a: TriangleMesh, b: TriangleMesh,
                    spacing) -> tuple[np.ndarray, np.ndarray]:
    """Vertex indices on each mesh that are nearest neighbors of the other.

    FacingSet(a) is the image of the NN map from b's vertices into a, and
    symmetrically; both are sorted unique index arrays.  Raises
    MeshContractError unless every vertex is a voxel centroid of `spacing`.
    """
    ia, ib = _vertex_voxels(a, spacing), _vertex_voxels(b, spacing)
    return (np.unique(nearest_canonical(ia, ib, spacing)),
            np.unique(nearest_canonical(ib, ia, spacing)))


def filter_body(facing: np.ndarray, samples: DistanceSamples,
                thresholds: Thresholds) -> np.ndarray:
    """Keep facing vertices inside the body sphere (distance < t1)."""
    facing = np.asarray(facing, dtype=np.int64)
    return facing[samples.values[facing] < thresholds.t1]


def build_interspace(a: TriangleMesh, b: TriangleMesh,
                     fa: np.ndarray, fb: np.ndarray) -> TriangleMesh:
    """Alpha shape (auto alpha) over the union of the filtered facing clouds."""
    fa = np.asarray(fa, dtype=np.int64)
    fb = np.asarray(fb, dtype=np.int64)
    cloud = np.vstack([np.asarray(a.vertices)[fa], np.asarray(b.vertices)[fb]])
    if len(cloud) < 4:
        raise ExtractionError(
            f"facing clouds give only {len(cloud)} points; need at least 4")
    # canonical point order makes the result independent of argument order
    cloud = cloud[np.lexsort((cloud[:, 2], cloud[:, 1], cloud[:, 0]))]
    try:
        return build_alpha_shape(cloud, alpha=AUTO)
    except ReconstructionError as exc:
        raise ExtractionError(f"interspace reconstruction failed: {exc}") from exc


@dataclass(frozen=True)
class InterspaceVoxelStats:
    """HU statistics over background voxels inside the interspace surface."""

    hu_mean: float | None
    hu_sum: int
    voxel_count: int
    excluded_count: int      # vertebra-labeled voxels the surface swallowed


def _expand(count: np.ndarray):
    """Owner and offset 0 .. count[i] - 1 of each of count.sum() items."""
    owner = np.repeat(np.arange(len(count)), count)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(count) - count, count)


def _box_lattice(flat: np.ndarray):
    """(triangle, u, v) for every lattice point in the 2-D bounding box of
    each triangle of `flat`, its (T, 3, 2) integer corners."""
    lo = flat.min(axis=1)
    size = flat.max(axis=1) - lo + 1
    tri, off = _expand(size[:, 0] * size[:, 1])
    width = size[tri, 0]
    return tri, lo[tri, 0] + off % width, lo[tri, 1] + off // width


def _edge_cross(flat: np.ndarray, tri, u, v, k: int):
    """Side vector of side k of each triangle and the 2-D cross product of
    that side with the vector from its start to the point (u, v)."""
    start = flat[tri, k]
    side = flat[tri, (k + 1) % 3] - start
    return side, side[:, 0] * (v - start[:, 1]) - side[:, 1] * (u - start[:, 0])


def _column_winding(corners: np.ndarray, normal: np.ndarray,
                    shape) -> np.ndarray:
    """Sum of sign(n_z) over the triangles crossing each voxel's column
    strictly above the voxel."""
    live = normal[:, 2] != 0
    corners, normal = corners[live], normal[live]
    flat = corners[:, :, :2]
    tri, x, y = _box_lattice(flat)
    sign = np.sign(normal[tri, 2])
    covered = np.ones(len(tri), dtype=bool)
    for k in range(3):
        side, cross = _edge_cross(flat, tri, x, y, k)
        # at (x + e, y + e^2) the cross product gains -side_y e + side_x e^2
        cross = np.where(cross != 0, cross,
                         np.where(side[:, 1] != 0, -side[:, 1], side[:, 0]))
        covered &= np.sign(cross) == sign
    tri, x, y, sign = tri[covered], x[covered], y[covered], sign[covered]
    n = normal[tri]
    num = np.einsum("ij,ij->i", n, corners[tri, 0]) - n[:, 0] * x - n[:, 1] * y
    below = (num * sign - 1) // np.abs(n[:, 2])   # last voxel under num / n_z
    keep = below >= 0
    diff = np.zeros(shape, dtype=np.int64)
    np.add.at(diff, (x[keep], y[keep], below[keep]), sign[keep])
    return np.cumsum(diff[:, :, ::-1], axis=2)[:, :, ::-1]


def _surface_voxels(corners: np.ndarray, normal: np.ndarray,
                    shape) -> np.ndarray:
    """Mask of the voxels lying in some closed triangle."""
    on = np.zeros(shape, dtype=bool)
    live = np.any(normal != 0, axis=1)
    # project along each triangle's dominant normal axis c onto (c+1, c+2)
    c = np.argmax(np.abs(normal[live]), axis=1)
    axes = np.stack([(c + 1) % 3, (c + 2) % 3, c], axis=1)
    corners_p = np.take_along_axis(corners[live], axes[:, None, :], axis=2)
    normal_p = np.take_along_axis(normal[live], axes, axis=1)
    flat = corners_p[:, :, :2]
    tri, u, v = _box_lattice(flat)
    pos = np.ones(len(tri), dtype=bool)
    neg = np.ones(len(tri), dtype=bool)
    for k in range(3):
        cross = _edge_cross(flat, tri, u, v, k)[1]
        pos &= cross >= 0
        neg &= cross <= 0
    n = normal_p[tri]
    num = np.einsum("ij,ij->i", n, corners_p[tri, 0]) - n[:, 0] * u - n[:, 1] * v
    hit = (pos | neg) & (num % n[:, 2] == 0)      # n . (p - a) == 0
    p = np.empty((int(hit.sum()), 3), dtype=np.int64)
    np.put_along_axis(p, axes[tri[hit]],
                      np.stack([u[hit], v[hit], num[hit] // n[hit, 2]], axis=1), axis=1)
    on[p[:, 0], p[:, 1], p[:, 2]] = True
    # a zero-area triangle is the segment of its longest side; alpha shapes
    # of lattice points have them, since the Delaunay runs on jittered points
    seg = corners[~live]
    side = seg[:, [1, 2, 0]] - seg
    longest = np.argmax((side ** 2).sum(axis=2), axis=1)
    start = seg[np.arange(len(seg)), longest]
    side = side[np.arange(len(seg)), longest]
    steps = np.gcd.reduce(np.abs(side), axis=1)
    unit = side // np.maximum(steps, 1)[:, None]
    tri, t = _expand(steps + 1)
    p = start[tri] + t[:, None] * unit[tri]
    on[p[:, 0], p[:, 1], p[:, 2]] = True
    return on


def voxel_winding(volume: LabeledVolume,
                  mesh: TriangleMesh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Winding number of `mesh` around each voxel centroid of its index box.

    Returns (lo, winding, on): the box's lowest voxel index, and the winding
    numbers and the on-surface mask over the box (the voxels from the lowest
    to the highest vertex index on each axis); winding is 0 where on is
    True.  Raises MeshContractError when a vertex is not a voxel centroid.
    """
    ijk = _vertex_voxels(mesh, volume.spacing, volume.dims)
    lo = ijk.min(axis=0)
    shape = tuple(ijk.max(axis=0) - lo + 1)
    corners = (ijk - lo)[np.asarray(mesh.triangles, dtype=np.int64)]
    normal = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    on = _surface_voxels(corners, normal, shape)
    winding = _column_winding(corners, normal, shape)
    winding[on] = 0
    return lo, winding, on


def interspace_voxel_stats(volume: LabeledVolume,
                           mesh: TriangleMesh) -> InterspaceVoxelStats:
    """Mean/sum HU of background voxels strictly inside the interspace mesh:
    nonzero winding number and not on the surface (see `voxel_winding`).

    Voxels carrying any vertebra label are excluded and counted separately.
    """
    lo, winding, _ = voxel_winding(volume, mesh)
    ijk = np.argwhere(winding != 0) + lo
    background = volume.label_at(ijk[:, 0], ijk[:, 1], ijk[:, 2]) == 0
    excluded = int((~background).sum())
    sel = ijk[background]
    if len(sel) == 0:
        return InterspaceVoxelStats(None, 0, 0, excluded)
    hu = volume.hu_at(sel[:, 0], sel[:, 1], sel[:, 2])
    hu_sum = int(hu.sum(dtype=np.int64))
    return InterspaceVoxelStats(hu_mean=hu_sum / len(sel), hu_sum=hu_sum,
                                voxel_count=len(sel), excluded_count=excluded)
