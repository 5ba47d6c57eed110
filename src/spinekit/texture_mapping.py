"""Grey-level (HU) mapping from the volume onto mesh vertices.

Every vertex receives the HU value of its nearest voxel centroid among a
criterion-dependent candidate set: voxels of the vertebra's own label
(internal), all voxels (euclidean), or all voxels of another label
(external).  Vertices must be voxel centroids of their own label, as
`build_alpha_shape` makes them, so internal and euclidean read the vertex's
own voxel.  External asks `spatial.nearest_canonical` (distance
sum((d*spacing)**2) over the integer offset d, ties to the lowest row) over
the label's halo in ascending linear index: the voxels without the label
26-adjacent to one with it.  Every nearest voxel v without the label lies
there: one step from v toward the vertex on each axis where they differ
lands on a 26-neighbour strictly nearer, which must carry the label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MappingError
from .region_segmentation import Region, RegionLabeling
from .spatial import nearest_canonical
from .volume_io import LabeledVolume, mm_to_index

CRITERIA = ("internal", "euclidean", "external")


@dataclass
class VertexTexture:
    """Per-vertex HU value and the voxel it was sampled from."""

    hu: np.ndarray                # (V,) int
    criterion: str                # one of CRITERIA
    source_voxel: np.ndarray      # (V, 3) int voxel indices


def _halo(volume: LabeledVolume, label: int) -> np.ndarray:
    """Voxel indices of the halo of `label`, in ascending linear index: the
    voxels without the label that are 26-adjacent to one with it."""
    lin = volume.label_voxels[label]
    ijk = np.stack(np.unravel_index(lin, volume.dims, order="F"), axis=1)
    # the label's box grown by one voxel, clipped to the volume
    lo = np.maximum(ijk.min(axis=0) - 1, 0)
    hi = np.minimum(ijk.max(axis=0) + 2, volume.dims)
    mask = np.zeros(hi - lo, dtype=bool)
    mask[tuple((ijk - lo).T)] = True
    grown = np.pad(mask, 1)  # so that np.roll wraps nothing into the box
    for axis in range(3):
        grown = grown | np.roll(grown, 1, axis) | np.roll(grown, -1, axis)
    halo = grown[1:-1, 1:-1, 1:-1] & ~mask
    # rows of a (z, y, x) argwhere ascend in linear index i + nx*(j + ny*k)
    return np.argwhere(halo.transpose(2, 1, 0))[:, ::-1] + lo


def map_grey(mesh, volume: LabeledVolume, label: int,
             criterion) -> VertexTexture:
    """Map HU values onto mesh vertices under one criterion of CRITERIA,
    named in any letter case.

    Raises MappingError for an unknown criterion, when a vertex is not a
    voxel centroid of `label` (a positive label), or under external when no
    voxel of another label exists.
    """
    name = str(criterion).lower()
    if name not in CRITERIA:
        raise MappingError(f"unknown mapping criterion {criterion!r}")
    verts = np.asarray(mesh.vertices, dtype=float).reshape(-1, 3)
    src, ok = mm_to_index(verts, volume.spacing, volume.dims)
    ok &= (volume.label_at(src[:, 0], src[:, 1], src[:, 2]) == label) & (label > 0)
    if not ok.all():
        raise MappingError(
            f"{int((~ok).sum())} mesh vertices are not voxel centroids of label "
            f"{label}, e.g. {verts[np.argmin(ok)].tolist()}")
    if name == "external":
        halo = _halo(volume, label)
        if not len(halo):
            raise MappingError(f"no voxel outside label {label} for external")
        src = halo[nearest_canonical(halo, src, volume.spacing)]
    hu = volume.hu_at(src[:, 0], src[:, 1], src[:, 2]).astype(np.int64)
    return VertexTexture(hu=hu, criterion=name, source_voxel=src)


def region_mean_hu(texture: VertexTexture,
                   labeling: RegionLabeling) -> dict[str, float | None]:
    """Arithmetic mean of vertex HU per region, keyed "body", "arch" and
    "process"; empty regions report None."""
    if len(texture.hu) != len(labeling.regions):
        raise MappingError("texture and labeling refer to different meshes")

    def mean_of(region: Region) -> float | None:
        sel = texture.hu[labeling.mask(region)]
        return float(sel.mean()) if sel.size else None

    return {"body": mean_of(Region.BODY), "arch": mean_of(Region.ARCH),
            "process": mean_of(Region.PROCESS)}
