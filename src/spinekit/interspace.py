"""Intervertebral-space surface extraction between consecutive vertebrae.

Facing vertices are the images of the vertex-to-vertex nearest-neighbor maps
between the two meshes, restricted to each vertebral body (distance below
the first density threshold).  The alpha shape of the combined cloud is the
interspace surface; interior HU statistics come from background voxels whose
centroids fall strictly inside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alpha_mesh import AUTO, TriangleMesh, build_alpha_shape, mesh_metrics
from .containment import points_inside_mesh
from .errors import ExtractionError, ReconstructionError
from .region_segmentation import DistanceSamples, Thresholds
from .spatial import nearest_canonical
from .volume_io import LabeledVolume, centroid_mm


def facing_vertices(a: TriangleMesh,
                    b: TriangleMesh) -> tuple[np.ndarray, np.ndarray]:
    """Vertex indices on each mesh that are nearest neighbors of the other.

    FacingSet(a) is the image of the NN map from b's vertices into a, and
    symmetrically; both are sorted unique index arrays.
    """
    va = np.asarray(a.vertices, dtype=float)
    vb = np.asarray(b.vertices, dtype=float)
    idx_a, _ = nearest_canonical(va, vb)
    idx_b, _ = nearest_canonical(vb, va)
    return np.unique(idx_a), np.unique(idx_b)


def filter_body(facing: np.ndarray, samples: DistanceSamples,
                thresholds: Thresholds) -> np.ndarray:
    """Keep facing vertices inside the body sphere (distance < t1)."""
    facing = np.asarray(facing, dtype=np.int64)
    return facing[samples.values[facing] < thresholds.t1]


@dataclass
class InterspaceMesh:
    """Closed surface of one intervertebral space."""

    mesh: TriangleMesh
    label_lo: int | None
    label_hi: int | None
    volume: float                     # mm^3
    centroid_distance: float | None   # mm, between the two body centroids


def build_interspace(a: TriangleMesh, b: TriangleMesh,
                     fa: np.ndarray, fb: np.ndarray,
                     centroid_a=None, centroid_b=None,
                     labels: tuple[int | None, int | None] = (None, None),
                     ) -> InterspaceMesh:
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
        mesh = build_alpha_shape(cloud, alpha=AUTO)
    except ReconstructionError as exc:
        raise ExtractionError(f"interspace reconstruction failed: {exc}") from exc
    vol = mesh_metrics(mesh).volume

    dist = None
    if centroid_a is not None and centroid_b is not None:
        dist = float(np.linalg.norm(centroid_mm(centroid_a) - centroid_mm(centroid_b)))
    return InterspaceMesh(mesh=mesh, label_lo=labels[0], label_hi=labels[1],
                          volume=vol, centroid_distance=dist)


@dataclass(frozen=True)
class InterspaceVoxelStats:
    """HU statistics over background voxels inside the interspace surface."""

    hu_mean: float | None
    hu_sum: int
    voxel_count: int
    excluded_count: int      # vertebra-labeled voxels the surface swallowed


def interspace_voxel_stats(volume: LabeledVolume,
                           interspace: InterspaceMesh) -> InterspaceVoxelStats:
    """Mean/sum HU of background voxels strictly inside the interspace mesh.

    Voxels carrying any vertebra label are excluded and counted separately.
    """
    mesh = interspace.mesh
    lo, hi = volume.voxel_box(*mesh.bbox)
    if np.any(lo >= hi):
        return InterspaceVoxelStats(None, 0, 0, 0)

    idx = [np.arange(lo[a], hi[a]) for a in range(3)]
    gx, gy, gz = np.meshgrid(*idx, indexing="ij")
    ijk = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    centers = volume.voxel_centroids_mm(ijk)
    inside, _ = points_inside_mesh(centers, mesh)
    ijk = ijk[inside]
    labels = volume.labels[ijk[:, 0], ijk[:, 1], ijk[:, 2]]
    background = labels == 0
    excluded = int((~background).sum())
    sel = ijk[background]
    if len(sel) == 0:
        return InterspaceVoxelStats(None, 0, 0, excluded)
    hu = volume.hu[sel[:, 0], sel[:, 1], sel[:, 2]]
    hu_sum = int(hu.sum(dtype=np.int64))
    return InterspaceVoxelStats(hu_mean=hu_sum / len(sel), hu_sum=hu_sum,
                                voxel_count=len(sel), excluded_count=excluded)
