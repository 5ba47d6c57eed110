"""Analytic synthetic volumes with closed-form geometry and HU statistics.

Three phantom kinds are provided: a sphere, a compound "vertebra" made of
three radially separated parts (body ball, arch half-torus, two process
capsules), and a pair of coaxial discs separated by a gap.  All HU fields
are exactly two-valued, so downstream texture and ROI statistics on them
are exactly predictable.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import PhantomSpecError
from .volume_io import MAX_LABEL, CentroidAnnotation, LabeledVolume, is_positive_real

REGION_BODY = 1
REGION_ARCH = 2
REGION_PROCESS = 3


def _positive(value, name: str) -> None:
    """PhantomSpecError unless `value` is a finite real above 0."""
    if not is_positive_real(value):
        raise PhantomSpecError(f"{name} must be a finite positive number, got {value!r}")


def _integer(value, name: str, lo: int, hi: int) -> None:
    """PhantomSpecError unless `value` is an integer in [lo, hi]."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and lo <= value <= hi):
        raise PhantomSpecError(f"{name} must be an integer in {lo}..{hi}, got {value!r}")


def _validate(spacing, labels, hu_in, hu_out):
    """Spacing as 3 floats, after checking it, the labels (1..MAX_LABEL, as
    `load_volume` reads them) and both HU values (int16)."""
    try:
        spacing = tuple(spacing)
    except TypeError:
        spacing = (spacing,)
    if len(spacing) != 3 or not all(is_positive_real(s) for s in spacing):
        raise PhantomSpecError(
            f"spacing must be 3 finite positive numbers, got {spacing!r}")
    for label in labels:
        _integer(label, "label", 1, MAX_LABEL)
    for hu in (hu_in, hu_out):
        _integer(hu, "HU", np.iinfo(np.int16).min, np.iinfo(np.int16).max)
    return tuple(float(s) for s in spacing)


def _centroid_grid(dims, spacing):
    """Voxel-centroid coordinate arrays (mm) for a dims-sized grid."""
    axes = [(np.arange(n) + 0.5) * s for n, s in zip(dims, spacing)]
    return np.meshgrid(*axes, indexing="ij")


def _finish(dims, spacing, masks_and_labels, hu_in, hu_out, annotations):
    hu = np.full(dims, int(hu_out), dtype=np.int16)
    labels = np.zeros(dims, dtype=np.uint16)
    for mask, label in masks_and_labels:
        labels[mask] = label
        hu[mask] = int(hu_in)
    centroids = {ann.label: ann for ann in annotations}
    return LabeledVolume(dims=dims, spacing=spacing, hu=hu, labels=labels,
                         centroids=centroids)


def make_sphere_phantom(radius: float, spacing, hu_in: int, hu_out: int,
                        label: int) -> LabeledVolume:
    """Ball of `radius` mm centered on a voxel centroid at the volume center.

    A voxel is labeled iff its centroid lies within `radius` (closed ball) of
    the center; the centroid annotation is the exact center.
    """
    spacing = _validate(spacing, (label,), hu_in, hu_out)
    _positive(radius, "sphere radius")
    # odd dims put the center exactly on the middle voxel's centroid
    half = [int(np.ceil(radius / s)) + 2 for s in spacing]
    dims = tuple(2 * h + 1 for h in half)
    if any((h + 0.5) * s < radius + 2 * s for h, s in zip(half, spacing)):
        raise PhantomSpecError("sphere does not fit with a 2-voxel margin")
    center = np.array([(h + 0.5) * s for h, s in zip(half, spacing)])

    X, Y, Z = _centroid_grid(dims, spacing)
    r = np.sqrt((X - center[0]) ** 2 + (Y - center[1]) ** 2 + (Z - center[2]) ** 2)
    mask = r <= radius
    ann = CentroidAnnotation.from_voxel(
        label, [c / s for c, s in zip(center, spacing)], spacing)
    return _finish(dims, spacing, [(mask, label)], hu_in, hu_out, [ann])


@dataclass(frozen=True)
class CompoundTruth:
    """Ground truth for the compound phantom: band geometry and per-voxel part id."""

    body_radius: float
    arch_distance: float
    process_distance: float
    body_band: tuple[float, float]      # distance-from-centroid interval, mm
    arch_band: tuple[float, float]
    process_band: tuple[float, float]
    region_id: np.ndarray               # (nx,ny,nz) uint8, REGION_* codes, 0 outside
    center_mm: np.ndarray


def make_compound_vertebra(body_radius: float, arch_tube_radius: float,
                           process_len: float, spacing, label: int,
                           arch_distance: float | None = None,
                           process_distance: float | None = None,
                           hu_in: int = 100, hu_out: int = 0,
                           ) -> tuple[LabeledVolume, CompoundTruth]:
    """Three-part phantom whose surface-vertex distances form three disjoint bands.

    Parts (all centered on the annotated centroid c):
      body     -- ball of radius `body_radius`
      arch     -- half-torus at ring distance `arch_distance`, tube radius
                  `arch_tube_radius`, on the +x side
      processes-- two capsules of radius process_len / 2 along +/-y whose
                  distance band is [process_distance - process_len,
                  process_distance]

    Defaults place the bands at body_radius / body_radius+10 / body_radius+25
    (15/25/40 for the canonical body_radius=15).  The bands must be separated
    by at least 3 voxels so the density modes stay distinguishable.
    """
    spacing = _validate(spacing, (label,), hu_in, hu_out)
    smax = max(spacing)
    _positive(body_radius, "body radius")
    _positive(arch_tube_radius, "arch tube radius")
    _positive(process_len, "process length")
    if body_radius <= arch_tube_radius:
        raise PhantomSpecError("body radius must exceed the arch tube radius")
    if arch_distance is None:
        arch_distance = body_radius + 10.0
    _positive(arch_distance, "arch distance")
    if process_distance is None:
        process_distance = arch_distance + 15.0
    _positive(process_distance, "process distance")
    process_radius = process_len / 2.0

    if arch_distance - body_radius < 3.0 * smax:
        raise PhantomSpecError(
            f"arch band at {arch_distance} overlaps the body ball of radius "
            f"{body_radius}: separation below 3 voxels")
    arch_outer = arch_distance + arch_tube_radius
    proc_inner = process_distance - process_len
    if proc_inner - arch_outer < 3.0 * smax:
        raise PhantomSpecError(
            "process band overlaps the arch band: separation below 3 voxels")
    if process_distance <= arch_distance:
        raise PhantomSpecError("processes must extend beyond the arch")

    reach = process_distance + 2 * smax
    half = [int(np.ceil(reach / s)) + 2 for s in spacing]
    dims = tuple(2 * h + 1 for h in half)
    center = np.array([(h + 0.5) * s for h, s in zip(half, spacing)])

    X, Y, Z = _centroid_grid(dims, spacing)
    ux, uy, uz = X - center[0], Y - center[1], Z - center[2]

    body = ux ** 2 + uy ** 2 + uz ** 2 <= body_radius ** 2
    rho = np.sqrt(ux ** 2 + uy ** 2)
    arch = ((rho - arch_distance) ** 2 + uz ** 2 <= arch_tube_radius ** 2) & (ux >= 0)

    # capsules along +/-y: segment |y| in [proc_inner+r, process_distance-r]
    seg_lo = proc_inner + process_radius
    seg_hi = process_distance - process_radius
    ay = np.clip(np.abs(uy), seg_lo, seg_hi)
    proc = ux ** 2 + (np.abs(uy) - ay) ** 2 + uz ** 2 <= process_radius ** 2

    arch &= ~body
    proc &= ~(body | arch)

    region = np.zeros(dims, dtype=np.uint8)
    region[body] = REGION_BODY
    region[arch] = REGION_ARCH
    region[proc] = REGION_PROCESS

    ann = CentroidAnnotation.from_voxel(
        label, [c / s for c, s in zip(center, spacing)], spacing)
    volume = _finish(dims, spacing, [(body | arch | proc, label)],
                     hu_in, hu_out, [ann])
    sdiag = float(np.linalg.norm(spacing))
    truth = CompoundTruth(
        body_radius=body_radius,
        arch_distance=arch_distance,
        process_distance=process_distance,
        body_band=(0.0, body_radius),
        arch_band=(arch_distance - arch_tube_radius - sdiag, arch_outer + sdiag),
        process_band=(proc_inner - sdiag, process_distance + sdiag),
        region_id=region,
        center_mm=center,
    )
    return volume, truth


@dataclass(frozen=True)
class DiscPairTruth:
    """Ground truth for the disc pair: analytic gap-cylinder volume and slab bounds."""

    gap_volume: float                   # pi * R^2 * gap, mm^3
    gap_z_mm: tuple[float, float]       # gap slab [lo, hi) in volume z coordinates
    disc_radius: float
    gap: float
    centers_mm: tuple[np.ndarray, np.ndarray]


def make_disc_pair(disc_radius: float, thickness: float, gap: float, spacing,
                   labels, hu_in: int = 100, hu_out: int = 0,
                   ) -> tuple[LabeledVolume, DiscPairTruth]:
    """Two coaxial cylinders separated by `gap` along z.

    The facing planes are aligned with voxel-centroid planes, so each disc's
    facing cap is a single centroid layer and the slab between the caps has
    height exactly `gap` (for gaps that are integer multiples of the z
    spacing).  Background voxels, including the gap, take `hu_out`.
    """
    try:
        la, lb = labels
    except (TypeError, ValueError):
        raise PhantomSpecError(f"a disc pair needs 2 labels, got {labels!r}") from None
    spacing = _validate(spacing, (la, lb), hu_in, hu_out)
    for value, name in ((disc_radius, "disc radius"), (thickness, "thickness"),
                        (gap, "gap")):
        _positive(value, name)
    if gap <= max(spacing):
        raise PhantomSpecError(f"gap {gap} must exceed the voxel size {max(spacing)}")
    la, lb = int(la), int(lb)
    if la == lb:
        raise PhantomSpecError("the two discs need distinct labels")

    sx, sy, sz = spacing
    nxy = 2 * (int(np.ceil(disc_radius / min(sx, sy))) + 3) + 1
    nz = 2 * (int(np.ceil((thickness + gap / 2) / sz)) + 3) + 1
    dims = (nxy, nxy, nz)

    X, Y, Z = _centroid_grid(dims, spacing)
    cx = nxy * sx / 2.0
    cy = nxy * sy / 2.0
    # snap the lower disc's facing plane onto a centroid plane
    zmid = nz * sz / 2.0
    zf_lo = (np.floor((zmid - gap / 2.0) / sz - 0.5) + 0.5) * sz
    zf_hi = zf_lo + gap

    rho2 = (X - cx) ** 2 + (Y - cy) ** 2
    in_disc = rho2 <= disc_radius ** 2
    mask_a = in_disc & (Z >= zf_lo - thickness) & (Z <= zf_lo)
    mask_b = in_disc & (Z >= zf_hi) & (Z <= zf_hi + thickness)
    if not (mask_a.any() and mask_b.any()):
        raise PhantomSpecError("disc pair does not fit in the generated volume")

    center_a = np.array([cx, cy, zf_lo - thickness / 2.0])
    center_b = np.array([cx, cy, zf_hi + thickness / 2.0])
    ann_a = CentroidAnnotation.from_voxel(la, center_a / spacing, spacing)
    ann_b = CentroidAnnotation.from_voxel(lb, center_b / spacing, spacing)

    volume = _finish(dims, spacing, [(mask_a, la), (mask_b, lb)],
                     hu_in, hu_out, [ann_a, ann_b])
    truth = DiscPairTruth(
        gap_volume=float(np.pi * disc_radius ** 2 * gap),
        gap_z_mm=(float(zf_lo), float(zf_hi)),
        disc_radius=disc_radius,
        gap=gap,
        centers_mm=(center_a, center_b),
    )
    return volume, truth


def phantom_from_spec(spec: dict) -> LabeledVolume:
    """Build a phantom volume from a JSON-style spec dict (CLI entry point).

    A missing key, or a number of the wrong type or range (NaN, a string, a
    fractional label), raises PhantomSpecError.
    """
    def need(key):
        if key not in spec:
            raise PhantomSpecError(f"phantom spec missing required key {key!r}")
        return spec[key]

    if not isinstance(spec, dict):
        raise PhantomSpecError(f"phantom spec must be an object, got {spec!r}")
    kind, spacing = need("kind"), need("spacing_mm")
    hu_in = spec.get("hu_inside", 100)
    hu_out = spec.get("hu_outside", 0)

    if kind == "sphere":
        return make_sphere_phantom(need("radius_mm"), spacing, hu_in, hu_out,
                                   spec.get("label", 1))
    if kind == "compound_vertebra":
        volume, _ = make_compound_vertebra(
            need("body_radius_mm"), spec.get("arch_tube_radius_mm", 2.5),
            spec.get("process_length_mm", 4.0), spacing, spec.get("label", 1),
            arch_distance=spec.get("arch_distance_mm"),
            process_distance=spec.get("process_distance_mm"),
            hu_in=hu_in, hu_out=hu_out)
        return volume
    if kind == "disc_pair":
        volume, _ = make_disc_pair(
            need("disc_radius_mm"), need("thickness_mm"), need("gap_mm"),
            spacing, spec.get("labels", [1, 2]), hu_in=hu_in, hu_out=hu_out)
        return volume
    raise PhantomSpecError(f"unknown phantom kind {kind!r}")
