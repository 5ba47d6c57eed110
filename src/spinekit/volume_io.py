"""Labeled CT volume loading, validation and voxel-to-mm geometry.

A volume is described on disk by a small JSON descriptor pointing at two raw
little-endian buffers (signed 16-bit HU, unsigned 16-bit labels) plus a JSON
list of vertebral-body centroid annotations in continuous voxel coordinates.
Raw buffers are stored x-fastest / z-slowest.  The centroid of voxel (i,j,k)
in mm is ((i+0.5)*sx, (j+0.5)*sy, (k+0.5)*sz) with the origin at the volume
corner; every module in the package relies on this single convention.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DescriptorError, EmptySelectionError

HU_DTYPE = np.dtype("<i2")
LABEL_DTYPE = np.dtype("<u2")


@dataclass(frozen=True)
class CentroidAnnotation:
    """Expert-provided vertebral-body centroid, in continuous voxel coordinates."""

    label: int
    voxel_pos: tuple[float, float, float]
    mm_pos: tuple[float, float, float]

    @staticmethod
    def from_voxel(label: int, voxel_pos, spacing) -> "CentroidAnnotation":
        voxel_pos = tuple(float(v) for v in voxel_pos)
        mm = tuple(float(v * s) for v, s in zip(voxel_pos, spacing))
        return CentroidAnnotation(int(label), voxel_pos, mm)

    @property
    def mm(self) -> np.ndarray:
        return np.asarray(self.mm_pos, dtype=float)


def centroid_mm(centroid) -> np.ndarray:
    """mm position of a CentroidAnnotation, or of an array-like already in mm."""
    if isinstance(centroid, CentroidAnnotation):
        return centroid.mm
    return np.asarray(centroid, dtype=float)


@dataclass(frozen=True)
class PointCloud:
    """Voxel-centroid positions (mm) for one label, in x-fastest scan order."""

    points: np.ndarray            # (N, 3) float64, mm
    spacing: tuple[float, float, float]

    def __len__(self) -> int:
        return len(self.points)

    @property
    def voxel_diagonal(self) -> float:
        return float(np.linalg.norm(self.spacing))


@dataclass
class LabeledVolume:
    """Dense HU + label grid with mm spacing and centroid annotations.

    Arrays are indexed [i, j, k] (x, y, z).  Instances are treated as
    immutable after construction and are safe for concurrent reads.
    """

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    hu: np.ndarray                # (nx, ny, nz) int16
    labels: np.ndarray            # (nx, ny, nz) uint16
    centroids: dict[int, CentroidAnnotation] = field(default_factory=dict)

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        self.spacing = tuple(float(s) for s in self.spacing)
        if any(d <= 0 for d in self.dims):
            raise DescriptorError(f"dims must be positive, got {self.dims}")
        if any(s <= 0 for s in self.spacing):
            raise DescriptorError(f"spacing must be positive, got {self.spacing}")
        for name, arr in (("hu", self.hu), ("labels", self.labels)):
            if arr.shape != self.dims:
                raise DescriptorError(
                    f"{name} field has shape {arr.shape}, expected {self.dims}")

    @property
    def voxel_volume(self) -> float:
        sx, sy, sz = self.spacing
        return sx * sy * sz

    @property
    def voxel_diagonal(self) -> float:
        return float(np.linalg.norm(self.spacing))

    @property
    def extent_mm(self) -> np.ndarray:
        return np.asarray(self.dims, dtype=float) * np.asarray(self.spacing)

    @cached_property
    def label_voxels(self) -> dict[int, np.ndarray]:
        """Each nonzero label's ascending linear indices i + nx*(j + ny*k), by
        ascending label; built on first use, so `labels` is fixed from then on."""
        flat = self.labels.reshape(-1, order="F")
        lin = np.flatnonzero(flat)                 # the one full-volume pass
        lin = lin[np.argsort(flat[lin], kind="stable")]
        values, starts = np.unique(flat[lin], return_index=True)
        return dict(zip(values.tolist(), np.split(lin, starts[1:])))

    def present_labels(self) -> list[int]:
        """Nonzero labels with at least one voxel, ascending."""
        return list(self.label_voxels)

    @property
    def orphan_centroids(self) -> list[int]:
        """Annotated labels that have no voxels, ascending."""
        return sorted(set(self.centroids) - set(self.label_voxels))

    def voxel_centroids_mm(self, ijk: np.ndarray) -> np.ndarray:
        """Centroid positions in mm for an (N, 3) array of voxel indices."""
        return (np.asarray(ijk, dtype=float) + 0.5) * np.asarray(self.spacing)

    def voxel_indices(self, mm) -> tuple[np.ndarray, np.ndarray]:
        """Voxel index of each (N, 3) mm point and a mask of the points that
        are exactly the centroid of a voxel inside the volume; the index is
        (0, 0, 0) where the mask is False."""
        mm = np.asarray(mm, dtype=float).reshape(-1, 3)
        near = np.rint(mm / np.asarray(self.spacing) - 0.5)
        ok = np.all((near >= 0) & (near < np.asarray(self.dims)), axis=1)
        ijk = np.where(ok[:, None], near, 0).astype(np.int64)
        ok &= np.all(self.voxel_centroids_mm(ijk) == mm, axis=1)
        return ijk, ok

    def voxel_box(self, lo_mm, hi_mm) -> tuple[np.ndarray, np.ndarray]:
        """Per-axis index ranges [lo, hi) of the voxels whose centroids can lie
        in the mm box [lo_mm, hi_mm], clipped to the volume (may be empty)."""
        spacing = np.asarray(self.spacing)
        lo = np.maximum(np.floor(lo_mm / spacing - 0.5).astype(int), 0)
        hi = np.minimum(np.ceil(hi_mm / spacing - 0.5).astype(int) + 1,
                        np.asarray(self.dims))
        return lo, hi


def extract_label_points(volume: LabeledVolume, label: int) -> PointCloud:
    """Return the mm centroids of all voxels carrying `label`, in ascending
    linear index (x-fastest).  Raises EmptySelectionError when it has none."""
    if label <= 0:
        raise EmptySelectionError(f"label must be positive, got {label}")
    lin = volume.label_voxels.get(label)
    if lin is None:
        raise EmptySelectionError(f"label {label} has no voxels")
    ijk = np.stack(np.unravel_index(lin, volume.dims, order="F"), axis=1)
    return PointCloud(volume.voxel_centroids_mm(ijk), volume.spacing)


def _read_raw(path: Path, dtype: np.dtype, dims) -> np.ndarray:
    try:
        buf = np.fromfile(path, dtype=dtype)
    except OSError as exc:
        raise DescriptorError(f"cannot read raw file {path}: {exc}") from exc
    expected = int(np.prod(dims))
    if buf.size != expected:
        raise DescriptorError(
            f"{path} holds {buf.size} voxels, descriptor declares {expected}")
    return buf.reshape(dims, order="F")


def load_volume(descriptor_path) -> LabeledVolume:
    """Load a LabeledVolume from a JSON descriptor.

    Descriptor keys: dims, spacing_mm, hu_file, label_file, centroid_file.
    File paths are resolved relative to the descriptor location.  Centroid
    annotations whose label has no voxels do not fail the load; the volume's
    `orphan_centroids` derives them from the labels (warning level).
    """
    descriptor_path = Path(descriptor_path)
    try:
        desc = json.loads(descriptor_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DescriptorError(f"cannot parse descriptor {descriptor_path}: {exc}") from exc

    try:
        dims = tuple(int(d) for d in desc["dims"])
        spacing = tuple(float(s) for s in desc["spacing_mm"])
        hu_file = desc["hu_file"]
        label_file = desc["label_file"]
        centroid_file = desc.get("centroid_file")
    except (KeyError, TypeError, ValueError) as exc:
        raise DescriptorError(f"descriptor {descriptor_path} is malformed: {exc}") from exc
    if len(dims) != 3 or len(spacing) != 3:
        raise DescriptorError("dims and spacing_mm must have 3 entries")

    base = descriptor_path.parent
    hu = _read_raw(base / hu_file, HU_DTYPE, dims)
    labels = _read_raw(base / label_file, LABEL_DTYPE, dims)

    centroids: dict[int, CentroidAnnotation] = {}
    if centroid_file is not None:
        try:
            entries = json.loads((base / centroid_file).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise DescriptorError(f"cannot parse centroid file: {exc}") from exc
        for entry in entries:
            try:
                lab = int(entry["label"])
                vox = [float(v) for v in entry["voxel"]]
            except (KeyError, TypeError, ValueError) as exc:
                raise DescriptorError(f"malformed centroid entry {entry}") from exc
            if not (1 <= lab <= 28):
                raise DescriptorError(f"centroid label {lab} outside 1..28")
            if lab in centroids:
                raise DescriptorError(f"duplicate centroid for label {lab}")
            # NaN fails the bounds test, so this also demands finite values
            if len(vox) != 3 or not all(0.0 <= v < d for v, d in zip(vox, dims)):
                raise DescriptorError(f"centroid for label {lab} at {vox} is not "
                                      f"3 coordinates inside volume {dims}")
            centroids[lab] = CentroidAnnotation.from_voxel(lab, vox, spacing)

    return LabeledVolume(dims=dims, spacing=spacing, hu=hu, labels=labels,
                         centroids=centroids)


def write_volume(volume: LabeledVolume, out_dir, stem: str = "volume") -> Path:
    """Write descriptor + raw buffers + centroid file; returns the descriptor path.

    Buffers are emitted x-fastest little-endian, so write/load round-trips
    are byte-identical.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    hu_name = f"{stem}_hu.raw"
    label_name = f"{stem}_labels.raw"
    centroid_name = f"{stem}_centroids.json"

    volume.hu.astype(HU_DTYPE).reshape(-1, order="F").tofile(out_dir / hu_name)
    volume.labels.astype(LABEL_DTYPE).reshape(-1, order="F").tofile(out_dir / label_name)

    entries = [{"label": ann.label, "voxel": list(ann.voxel_pos)}
               for ann in sorted(volume.centroids.values(), key=lambda a: a.label)]
    (out_dir / centroid_name).write_text(json.dumps(entries, indent=2) + "\n")

    desc = {
        "dims": list(volume.dims),
        "spacing_mm": list(volume.spacing),
        "hu_file": hu_name,
        "label_file": label_name,
        "centroid_file": centroid_name,
    }
    desc_path = out_dir / f"{stem}.json"
    desc_path.write_text(json.dumps(desc, indent=2) + "\n")
    return desc_path
