"""Labeled CT volume loading, validation and voxel-to-mm geometry.

A volume is described on disk by a small JSON descriptor pointing at two raw
little-endian buffers (signed 16-bit HU, unsigned 16-bit labels) plus a JSON
list of vertebral-body centroid annotations in continuous voxel coordinates.
Raw buffers are stored x-fastest / z-slowest.  The centroid of voxel (i,j,k)
in mm is ((i+0.5)*sx, (j+0.5)*sy, (k+0.5)*sz) with the origin at the volume
corner; every module in the package relies on this single convention.

`load_volume` maps both buffers read-only instead of copying them, and builds
the label index by streaming the label file in whole z planes.  No stage reads
either map: every label lookup goes through the index (`label_voxels`,
`label_at`), and every HU lookup through `hu_at`, which reads a loaded
volume's HU file one z plane's span at a time, so the file's pages never stay
in the process.  `write_volume` streams its buffers in blocks of z planes.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DescriptorError, EmptySelectionError

HU_DTYPE = np.dtype("<i2")
LABEL_DTYPE = np.dtype("<u2")
MAX_LABEL = 28   # vertebrae are labeled 1..28 (VerSe)

# raw-file bytes per streamed read of the label index or write of a buffer,
# rounded down to whole z planes (at least one); bounds the transient memory
_CHUNK_BYTES = 4 << 20


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


def mm_to_index(mm, spacing, dims=None) -> tuple[np.ndarray, np.ndarray]:
    """Voxel index of each (N, 3) mm point and a mask of the points that are
    exactly that voxel's centroid, inside a volume of `dims` if given; the
    index is (0, 0, 0) where the mask is False."""
    mm = np.asarray(mm, dtype=float).reshape(-1, 3)
    spacing = np.asarray(spacing, dtype=float)
    near = np.rint(mm / spacing - 0.5)
    # without dims, the bounds keep NaN, inf and absurd values out of the cast
    lo, hi = (-2 ** 31, 2 ** 31) if dims is None else (0, np.asarray(dims))
    ok = np.all((near >= lo) & (near < hi) & ((near + 0.5) * spacing == mm), axis=1)
    return np.where(ok[:, None], near, 0).astype(np.int64), ok


def is_number(value, kind=numbers.Real) -> bool:
    """Whether `value` is a `kind` of number (a `numbers` class); no bool is."""
    return isinstance(value, kind) and not isinstance(value, bool)


def is_positive_real(value) -> bool:
    """Whether `value` is a finite real number above 0; a bool is not."""
    return is_number(value) and 0 < value < np.inf   # NaN fails


def _check_grid(dims, spacing) -> None:
    """DescriptorError unless `dims` are 3 integers of at least 1 and
    `spacing` 3 finite reals above 0."""
    if len(dims) != 3 or not all(is_number(d, numbers.Integral) and d >= 1 for d in dims):
        raise DescriptorError(f"dims must be positive integers, 3 of them, got {dims}")
    if len(spacing) != 3 or not all(is_positive_real(s) for s in spacing):
        raise DescriptorError(
            f"spacing must be positive finite numbers, 3 of them, got {spacing}")


class _LabelIndex(NamedTuple):
    lin: np.ndarray                  # ascending linear index of every labeled voxel
    values: np.ndarray               # the label of each
    voxels: dict[int, np.ndarray]    # label -> its ascending linear indices


def _index_labels(runs) -> _LabelIndex:
    """Index the labeled voxels of consecutive (start, flat labels) runs that
    tile the x-fastest label field in order; a run without a label adds
    nothing.  The one grouping of voxels by label, for every volume."""
    lin, values = [np.zeros(0, np.intp)], [np.zeros(0, LABEL_DTYPE)]
    for start, flat in runs:
        hit = np.flatnonzero(flat)
        if hit.size:
            lin.append(hit + start)
            values.append(flat[hit])
    lin, values = np.concatenate(lin), np.concatenate(values)
    order = np.argsort(values, kind="stable")
    keys, starts = np.unique(values[order], return_index=True)
    return _LabelIndex(lin, values,
                       dict(zip(keys.tolist(), np.split(lin[order], starts[1:]))))


@dataclass
class LabeledVolume:
    """HU and label grids with mm spacing and centroid annotations.

    Arrays are indexed [i, j, k] (x, y, z); a loaded volume's are read-only
    memory maps of its raw files.  Label queries are answered from one label
    index (`label_voxels`, `label_at`), never from a scan of `labels`, and HU
    queries by `hu_at`, which reads a loaded volume's HU file rather than its
    map.  Instances are treated as immutable after construction and are safe
    for concurrent reads.
    """

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    hu: np.ndarray                # (nx, ny, nz) int16
    labels: np.ndarray            # (nx, ny, nz) uint16
    centroids: dict[int, CentroidAnnotation] = field(default_factory=dict)
    _hu_file = None               # set by `load_volume`; read by `hu_at`

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        self.spacing = tuple(float(s) for s in self.spacing)
        _check_grid(self.dims, self.spacing)
        for name, arr in (("hu", self.hu), ("labels", self.labels)):
            if arr.shape != self.dims:
                raise DescriptorError(
                    f"{name} field has shape {arr.shape}, expected {self.dims}")

    @property
    def voxel_diagonal(self) -> float:
        return float(np.linalg.norm(self.spacing))

    @cached_property
    def _label_index(self) -> _LabelIndex:
        """Built from `labels` on first use, so `labels` is fixed from then on;
        `load_volume` sets it from the streamed label file instead."""
        return _index_labels([(0, self.labels.reshape(-1, order="F"))])

    @property
    def label_voxels(self) -> dict[int, np.ndarray]:
        """Each nonzero label's ascending linear indices i + nx*(j + ny*k), by
        ascending label."""
        return self._label_index.voxels

    def label_at(self, i, j, k) -> np.ndarray:
        """Label of each voxel (i, j, k) of in-bounds index arrays (broadcast
        together), 0 for background."""
        index = self._label_index
        lin = np.ravel_multi_index((i, j, k), self.dims, order="F")
        if not index.lin.size:
            return np.zeros(np.shape(lin), index.values.dtype)
        pos = np.minimum(np.searchsorted(index.lin, lin), index.lin.size - 1)
        return np.where(index.lin[pos] == lin, index.values[pos], 0)

    def hu_at(self, i, j, k) -> np.ndarray:
        """HU of each voxel (i, j, k) of in-bounds index arrays (broadcast
        together).  A loaded volume reads its HU file, for each z plane
        queried the span from the first to the last queried voxel, and raises
        DescriptorError when the file has shrunk since the load."""
        if self._hu_file is None:
            return self.hu[i, j, k]
        lin = np.ravel_multi_index((i, j, k), self.dims, order="F")
        if not lin.size:
            return np.empty(lin.shape, HU_DTYPE)
        order = np.argsort(lin, axis=None)
        ordered = lin.ravel()[order]
        # one read per z plane queried, of the span its queries cover
        cuts = np.flatnonzero(np.diff(ordered // (self.dims[0] * self.dims[1]))) + 1
        hu = np.empty(ordered.size, HU_DTYPE)
        path = self._hu_file
        try:
            with open(path, "rb") as fh:
                for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, ordered.size]):
                    first = int(ordered[lo])
                    count = int(ordered[hi - 1]) - first + 1
                    fh.seek(first * HU_DTYPE.itemsize)
                    span = np.fromfile(fh, dtype=HU_DTYPE, count=count)
                    if span.size != count:
                        raise DescriptorError(f"{path} shrank while it was read")
                    hu[order[lo:hi]] = span[ordered[lo:hi] - first]
        except OSError as exc:
            raise DescriptorError(f"cannot read raw file {path}: {exc}") from exc
        return hu.reshape(lin.shape)

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

    def voxel_box(self, lo_mm, hi_mm) -> tuple[np.ndarray, np.ndarray]:
        """Per-axis index ranges [lo, hi) of the voxels whose centroids can lie
        in the mm box [lo_mm, hi_mm], clipped to the volume (may be empty)."""
        spacing = np.asarray(self.spacing)
        dims = np.asarray(self.dims)
        # clipped before the cast, so any finite box casts exactly
        lo = np.clip(np.floor(lo_mm / spacing - 0.5), 0, dims).astype(int)
        hi = np.clip(np.ceil(hi_mm / spacing - 0.5) + 1, 0, dims).astype(int)
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
    """Read-only memory map of a raw buffer of exactly prod(dims) voxels."""
    expected = math.prod(dims)   # a Python int: no overflow
    try:
        with open(path, "rb") as fh:
            size = fh.seek(0, 2)
            if size == expected * dtype.itemsize:
                return np.memmap(fh, dtype=dtype, mode="r", shape=dims, order="F")
    except OSError as exc:
        raise DescriptorError(f"cannot read raw file {path}: {exc}") from exc
    raise DescriptorError(
        f"{path} holds {size} bytes ({size / dtype.itemsize:g} voxels of "
        f"{dtype.itemsize} bytes), descriptor declares {expected} voxels")


def _label_runs(path: Path, dims):
    """(start, flat labels) runs of whole z planes, read from the label file
    in turn."""
    plane = dims[0] * dims[1]
    step = plane * max(1, _CHUNK_BYTES // (plane * LABEL_DTYPE.itemsize))
    total = plane * dims[2]
    try:
        with open(path, "rb") as fh:
            for start in range(0, total, step):
                count = min(step, total - start)
                flat = np.fromfile(fh, dtype=LABEL_DTYPE, count=count)
                if flat.size != count:
                    raise DescriptorError(f"{path} shrank while it was read")
                yield start, flat
    except OSError as exc:
        raise DescriptorError(f"cannot read raw file {path}: {exc}") from exc


def load_volume(descriptor_path) -> LabeledVolume:
    """Load a LabeledVolume from a JSON descriptor.

    Descriptor keys: dims (3 integers of at least 1), spacing_mm (3 finite
    numbers above 0), and the path strings hu_file, label_file and optional
    centroid_file (of a JSON array), relative to the descriptor location.
    Each raw file must hold exactly prod(dims) voxels; `hu` and `labels` are
    read-only memory maps of them, which no stage reads: reading a map past
    the end of a file truncated while the volume is in use kills the process
    with SIGBUS.  The label index is built here, from the label file read in
    whole z planes, and the HU file's path is kept for `hu_at`, whose reads
    raise DescriptorError on a truncated file.  Centroid annotations whose
    label has no voxels do not fail the load; the volume's
    `orphan_centroids` derives them from the labels (warning level).
    """
    descriptor_path = Path(descriptor_path)
    try:
        desc = json.loads(descriptor_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DescriptorError(f"cannot parse descriptor {descriptor_path}: {exc}") from exc

    try:
        dims, spacing = desc["dims"], desc["spacing_mm"]
        hu_file = desc["hu_file"]
        label_file = desc["label_file"]
        centroid_file = desc.get("centroid_file")
    except (KeyError, TypeError) as exc:
        raise DescriptorError(f"descriptor {descriptor_path} is malformed: {exc}") from exc
    if not (isinstance(dims, list) and isinstance(spacing, list)):
        raise DescriptorError("dims and spacing_mm must be JSON arrays")
    if not (isinstance(hu_file, str) and isinstance(label_file, str)
            and isinstance(centroid_file, (str, type(None)))):
        raise DescriptorError("hu_file, label_file and centroid_file must be strings")
    _check_grid(dims, spacing)
    dims, spacing = tuple(dims), tuple(float(s) for s in spacing)

    base = descriptor_path.parent
    hu = _read_raw(base / hu_file, HU_DTYPE, dims)
    labels = _read_raw(base / label_file, LABEL_DTYPE, dims)

    centroids: dict[int, CentroidAnnotation] = {}
    if centroid_file is not None:
        try:
            entries = json.loads((base / centroid_file).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise DescriptorError(f"cannot parse centroid file: {exc}") from exc
        if not isinstance(entries, list):
            raise DescriptorError("centroid file must hold a JSON array")
        for entry in entries:
            try:
                lab, vox = entry["label"], list(entry["voxel"])
            except (KeyError, TypeError) as exc:
                raise DescriptorError(f"malformed centroid entry {entry}") from exc
            # so label 1.9, true or "1" is not taken as label 1
            if not (is_number(lab, numbers.Integral) and all(map(is_number, vox))):
                raise DescriptorError(f"malformed centroid entry {entry}")
            if not (1 <= lab <= MAX_LABEL):
                raise DescriptorError(f"centroid label {lab} outside 1..{MAX_LABEL}")
            if lab in centroids:
                raise DescriptorError(f"duplicate centroid for label {lab}")
            # NaN fails the bounds test, so this also demands finite values
            if len(vox) != 3 or not all(0.0 <= v < d for v, d in zip(vox, dims)):
                raise DescriptorError(f"centroid for label {lab} at {vox} is not "
                                      f"3 coordinates inside volume {dims}")
            centroids[lab] = CentroidAnnotation.from_voxel(lab, vox, spacing)

    volume = LabeledVolume(dims=dims, spacing=spacing, hu=hu, labels=labels,
                           centroids=centroids)
    volume._label_index = _index_labels(_label_runs(base / label_file, dims))
    volume._hu_file = base / hu_file
    return volume


def _write_raw(path: Path, arr: np.ndarray, dtype: np.dtype) -> None:
    """Write `arr` x-fastest as `dtype`, a block of whole z planes at a time."""
    plane = arr.shape[0] * arr.shape[1]
    step = max(1, _CHUNK_BYTES // (plane * dtype.itemsize))
    with open(path, "wb") as fh:
        for k in range(0, arr.shape[2], step):
            block = arr[:, :, k:k + step].transpose(2, 1, 0)   # x fastest
            np.ascontiguousarray(block, dtype).tofile(fh)


def write_volume(volume: LabeledVolume, out_dir, stem: str = "volume") -> Path:
    """Write descriptor + raw buffers + centroid file; returns the descriptor path.

    Buffers are emitted x-fastest little-endian, so write/load round-trips
    are byte-identical.  Raises DescriptorError, before any byte is written,
    when a value does not fit its raw type exactly.
    """
    hu_name = f"{stem}_hu.raw"
    label_name = f"{stem}_labels.raw"
    centroid_name = f"{stem}_centroids.json"
    buffers = ((volume.hu, HU_DTYPE, hu_name), (volume.labels, LABEL_DTYPE, label_name))
    for arr, dtype, name in buffers:
        if not np.can_cast(arr.dtype, dtype):
            with np.errstate(invalid="ignore"):   # NaN casts to garbage, unequal
                fits = np.array_equal(arr.astype(dtype), arr)
            if not fits:
                raise DescriptorError(
                    f"values for {name} do not fit the raw type {dtype.name} exactly")

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for arr, dtype, name in buffers:
        _write_raw(out_dir / name, arr, dtype)

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
