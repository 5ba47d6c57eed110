"""Maximal inscribed-sphere ROI inside the vertebral body and its HU statistics.

The sphere is centered on the annotated body centroid and grown one voxel
diagonal at a time; it stops just before touching the vertebral surface,
tested against the mesh vertices.  Voxel membership uses the closed ball
d(voxel centroid, c) <= r and is independent of voxel labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RoiTooSmallError
from .volume_io import LabeledVolume, centroid_mm, is_positive_real


@dataclass(frozen=True)
class RoiStats:
    radius: float          # mm, an integer multiple of the voxel diagonal
    voxel_count: int
    hu_mean: float
    hu_sum: int


def max_inscribed_radius(mesh, centroid, voxel_diag: float) -> float:
    """Largest k * voxel_diag strictly below the centroid-to-surface distance."""
    c = centroid_mm(centroid)
    dmin = float(np.linalg.norm(np.asarray(mesh.vertices) - c, axis=1).min())
    if dmin < voxel_diag:
        raise RoiTooSmallError(
            f"centroid clearance {dmin:.3f} mm is below one voxel diagonal "
            f"({voxel_diag:.3f} mm)")
    k = int(np.floor(dmin / voxel_diag))
    if k * voxel_diag >= dmin:   # exact multiple: growth stops one step earlier
        k -= 1
    if k < 1:
        raise RoiTooSmallError(
            f"no sphere of step {voxel_diag:.3f} mm fits within {dmin:.3f} mm")
    return k * voxel_diag


def roi_stats(volume: LabeledVolume, centroid, radius: float) -> RoiStats:
    """HU mean and sum over voxels whose centroids lie in the closed ball."""
    if not is_positive_real(radius):
        raise RoiTooSmallError(f"radius must be a positive finite number, got {radius}")
    radius = float(radius)   # so radius * radius may round to inf without a warning
    c = centroid_mm(centroid)
    spacing = np.asarray(volume.spacing)
    lo, hi = volume.voxel_box(c - radius, c + radius)

    idx = [np.arange(lo[a], hi[a]) for a in range(3)]
    gx, gy, gz = np.meshgrid(*[(ix + 0.5) for ix in idx], indexing="ij")
    d2 = ((gx * spacing[0] - c[0]) ** 2 + (gy * spacing[1] - c[1]) ** 2
          + (gz * spacing[2] - c[2]) ** 2)
    mask = d2 <= radius * radius
    if not mask.any():
        raise RoiTooSmallError("ROI sphere contains no voxel centroids")
    i, j, k = np.nonzero(mask)
    hu = volume.hu_at(i + lo[0], j + lo[1], k + lo[2])
    hu_sum = int(hu.sum(dtype=np.int64))
    count = int(mask.sum())
    return RoiStats(radius=radius, voxel_count=count,
                    hu_mean=hu_sum / count, hu_sum=hu_sum)
