"""Grey-level (HU) mapping from the volume onto mesh vertices.

Every vertex receives the HU value of its nearest voxel centroid among a
criterion-dependent candidate set: voxels of the vertebra's own label
(internal), all voxels (euclidean), or all voxels of another label
(external).  Vertices must be voxel centroids of their own label, as
`build_alpha_shape` makes them, so internal and euclidean read the vertex's
own voxel.  External scans voxel offsets d by squared distance
sum((d*spacing)**2); searches are exact and ties go to the lowest linear
voxel index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MappingError
from .region_segmentation import Region, RegionLabeling
from .volume_io import LabeledVolume

CRITERIA = ("internal", "euclidean", "external")


@dataclass
class VertexTexture:
    """Per-vertex HU value and the voxel it was sampled from."""

    hu: np.ndarray                # (V,) int
    criterion: str                # one of CRITERIA
    source_voxel: np.ndarray      # (V, 3) int voxel indices


_CELL_BUDGET = 500_000  # vertex x offset cells per chunk, bounds peak memory


def _shell_offsets(spacing: np.ndarray, r_lo: float, r_hi: float) -> np.ndarray:
    """Offsets d with r_lo**2 <= sum((d*spacing)**2) < r_hi**2, sorted by that
    distance, then dz, dy, dx: for in-bounds voxels, the linear-index order."""
    # one voxel of slack keeps every offset outside the cube beyond r_hi
    reach = np.floor(r_hi / spacing).astype(int) + 1
    d = np.stack(np.meshgrid(*[np.arange(-n, n + 1) for n in reach],
                             indexing="ij"), axis=-1).reshape(-1, 3)
    d2 = ((d * spacing) ** 2).sum(axis=1)
    keep = (d2 >= r_lo * r_lo) & (d2 < r_hi * r_hi)
    d, d2 = d[keep], d2[keep]
    return d[np.lexsort((d[:, 0], d[:, 1], d[:, 2], d2))]


def _external_sources(volume: LabeledVolume, label: int,
                      own: np.ndarray) -> np.ndarray:
    """Nearest voxel of another label to each voxel of `own`, scanning the
    ball inside the 3x3x3 cube, then shells of doubling radius."""
    spacing, dims = np.asarray(volume.spacing), np.asarray(volume.dims)
    src = np.empty_like(own)
    todo = np.arange(len(own))
    r_lo, r_hi = 0.0, 2.0 * float(spacing.min())
    while todo.size:
        offsets = _shell_offsets(spacing, r_lo, r_hi)
        chunk = max(1, _CELL_BUDGET // len(offsets))
        left = []
        for start in range(0, len(todo), chunk):
            rows = todo[start:start + chunk]
            cand = own[rows, None, :] + offsets[None, :, :]      # (C, K, 3)
            c = np.clip(cand, 0, dims - 1)
            hit = np.all(cand == c, axis=2) & (
                volume.label_at(c[..., 0], c[..., 1], c[..., 2]) != label)
            first = hit.argmax(axis=1)
            found = hit[np.arange(len(rows)), first]
            src[rows[found]] = cand[found, first[found]]
            left.append(rows[~found])
        todo = np.concatenate(left)
        # the vertices carry the label, so no other voxel exists if it fills the volume
        if todo.size and r_lo == 0.0 and len(volume.label_voxels[label]) == dims.prod():
            raise MappingError(f"no voxel outside label {label} for external")
        r_lo, r_hi = r_hi, 2.0 * r_hi
    return src


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
    src, ok = volume.voxel_indices(verts)
    ok &= (volume.label_at(src[:, 0], src[:, 1], src[:, 2]) == label) & (label > 0)
    if not ok.all():
        raise MappingError(
            f"{int((~ok).sum())} mesh vertices are not voxel centroids of label "
            f"{label}, e.g. {verts[np.argmin(ok)].tolist()}")
    if name == "external":
        src = _external_sources(volume, label, src)
    hu = volume.hu[src[:, 0], src[:, 1], src[:, 2]].astype(np.int64)
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
