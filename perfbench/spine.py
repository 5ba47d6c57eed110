"""Seeded synthetic spines and the closed-form checks of their reports.

A spine is a stack of compound vertebrae (`spinekit.make_compound_vertebra`)
along z, labels 1..N, one centroid each.  Each level gets its own body
radius and a seeded HU; the background HU is fixed per workload.  Consecutive
levels sit `r_lo + r_hi + gap` apart, so the bodies face each other across a
background disc space and every consecutive pair has an interspace.

The per-level `CompoundTruth` stays in memory: `check_report` compares a
`report.json` against it and returns one verdict per operation (a vertebra or
a consecutive pair).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from spinekit import (CentroidAnnotation, CompoundTruth, LabeledVolume,
                      make_compound_vertebra, write_volume)

ARCH_TUBE_MM = 2.5
PROCESS_LEN_MM = 4.0
GAP_MM = 6.0
Z_MARGIN_MM = 6.0

# warning kinds that mark an operation as failed
FAILURE_WARNINGS = ("vertebra_failed", "mapping_failed", "threshold_failure",
                    "interspace_failed", "interspace_empty_facing")


@dataclass(frozen=True)
class Workload:
    """Shape of one synthetic spine; the seed picks the HU values."""

    levels: int
    radius_mm: tuple[float, float]
    spacing: tuple[float, float, float]
    background_hu: int
    alpha: str | None = None                 # None: the CLI default
    dims: tuple[int, int, int] | None = None  # None: tight around the stack


WORKLOADS = {
    # realistic vertebra size at 1 mm: Delaunay and containment dominate
    "lumbar_r25": Workload(levels=2, radius_mm=(24.0, 26.0),
                           spacing=(1.0, 1.0, 1.0), background_hu=0),
    # many small levels on auto alpha: the alpha search, KDE, texture and
    # per-pair work dominate
    "stack_auto": Workload(levels=3, radius_mm=(12.0, 14.0),
                           spacing=(1.0, 1.0, 1.0), background_hu=0,
                           alpha="auto"),
    # small vertebrae in a clinical field of view of air: full-volume passes
    # (load, label scans, texture masks) and memory dominate
    "fov_sparse": Workload(levels=3, radius_mm=(11.5, 12.5),
                           spacing=(0.8, 0.8, 1.25), background_hu=-1000,
                           dims=(512, 512, 200)),
}


@dataclass(frozen=True)
class LevelTruth:
    label: int
    hu: int
    compound: CompoundTruth
    centroid: CentroidAnnotation   # as the program will load it


@dataclass(frozen=True)
class SpineTruth:
    levels: dict[int, LevelTruth]
    background_hu: int
    spacing: tuple[float, float, float]

    @property
    def pairs(self) -> list[tuple[int, int]]:
        labels = sorted(self.levels)
        return list(zip(labels, labels[1:]))

    def operations(self) -> int:
        return len(self.levels) + len(self.pairs)


def build_spine(workload: Workload, seed: int) -> tuple[LabeledVolume, SpineTruth]:
    """Generate the labeled volume and its truth from `seed`."""
    rng = np.random.default_rng(seed)
    spacing = workload.spacing
    # radii spread evenly over the range, growing caudally as in a real
    # spine; the seed draws the HU values only, because peak RSS moved by up
    # to 30% with a 0.1 mm change of one radius and by 21% with the order of
    # the levels, while it repeats within 0.1 MiB for one input
    r_min, r_max = workload.radius_mm
    n = workload.levels
    radii = r_min + (r_max - r_min) * (np.arange(n) + 0.5) / n
    parts = []
    for label, radius in enumerate(radii.tolist(), start=1):
        hu = int(200 + 15 * label + rng.integers(0, 15))
        vol, truth = make_compound_vertebra(
            radius, ARCH_TUBE_MM, PROCESS_LEN_MM, spacing, label,
            hu_in=hu, hu_out=workload.background_hu)
        parts.append((label, hu, vol, truth))

    sz = spacing[2]
    # z index of each level's center: consecutive bodies r_lo + r_hi + gap apart
    zc = [int(np.ceil((parts[0][3].body_radius + Z_MARGIN_MM) / sz))]
    for (_, _, _, upper), (_, _, _, lower) in zip(parts, parts[1:]):
        step = upper.body_radius + lower.body_radius + GAP_MM
        zc.append(zc[-1] + int(np.ceil(step / sz)))
    if workload.dims is not None:
        dims = workload.dims
    else:
        nxy = max(max(v.dims[0], v.dims[1]) for _, _, v, _ in parts)
        nz = zc[-1] + int(np.ceil((parts[-1][3].body_radius + Z_MARGIN_MM) / sz)) + 1
        dims = (nxy, nxy, nz)
    shift_z = (dims[2] - 1 - zc[-1] - zc[0]) // 2   # center the stack in z

    hu = np.full(dims, workload.background_hu, dtype=np.int16)
    labels = np.zeros(dims, dtype=np.uint16)
    centroids, levels = {}, {}
    for (label, level_hu, vol, truth), z in zip(parts, zc):
        center_vox = np.array(vol.centroids[label].voxel_pos) - 0.5
        offset = (np.array([dims[0] // 2, dims[1] // 2, z + shift_z])
                  - center_vox.astype(int))
        ijk = np.argwhere(vol.labels == label) + offset
        if ijk.min() < 0 or np.any(ijk.max(axis=0) >= dims):
            raise ValueError(f"level {label} does not fit in volume {dims}")
        sel = (ijk[:, 0], ijk[:, 1], ijk[:, 2])
        if labels[sel].any():
            raise ValueError(f"level {label} overlaps its neighbour")
        labels[sel] = label
        hu[sel] = level_hu
        ann = CentroidAnnotation.from_voxel(
            label, np.array(vol.centroids[label].voxel_pos) + offset, spacing)
        centroids[label] = ann
        levels[label] = LevelTruth(label, level_hu, truth, ann)

    volume = LabeledVolume(dims=dims, spacing=spacing, hu=hu, labels=labels,
                           centroids=centroids)
    return volume, SpineTruth(levels, workload.background_hu, spacing)


def write_spine(workload: Workload, seed: int, out_dir) -> tuple:
    """Generate and write one spine; returns (descriptor path, truth)."""
    volume, truth = build_spine(workload, seed)
    return write_volume(volume, out_dir), truth


def roi_voxel_count(level: LevelTruth, spacing, radius: float) -> int:
    """Voxel centroids in the closed ball, counted over offsets from the centroid."""
    c = level.centroid.mm
    s = np.asarray(spacing)
    center = np.floor(c / s).astype(int)
    reach = np.ceil(radius / s).astype(int) + 1
    axes = [(np.arange(center[a] - reach[a], center[a] + reach[a] + 1) + 0.5) * s[a]
            - c[a] for a in range(3)]
    dx, dy, dz = np.meshgrid(*axes, indexing="ij")
    return int((dx ** 2 + dy ** 2 + dz ** 2 <= radius * radius).sum())


def _vertebra_problems(rec: dict, level: LevelTruth, truth: SpineTruth) -> list[str]:
    problems = []
    c = level.compound
    t1, t2, t3 = rec.get("t1_mm"), rec.get("t2_mm"), rec.get("t3_mm")
    if None in (t1, t2, t3):
        problems.append("thresholds missing")
    elif not (c.body_radius < t1 < c.arch_distance < t2 < c.process_distance
              and t2 <= t3):
        problems.append(f"thresholds {t1:.2f}/{t2:.2f}/{t3:.2f} outside the band gaps")
    region_hu = rec.get("region_hu") or {}
    expected = {"internal": level.hu, "euclidean": level.hu,
                "external": truth.background_hu}
    for crit, want in expected.items():
        got = region_hu.get(crit) or {}
        for region in ("body", "arch", "process"):
            if got.get(region) != want:
                problems.append(f"{crit} {region} HU {got.get(region)} != {want}")
    roi = rec.get("roi")
    if roi is None:
        problems.append("roi missing")
    else:
        if roi["hu_mean"] != level.hu:
            problems.append(f"roi hu_mean {roi['hu_mean']} != {level.hu}")
        want = roi_voxel_count(level, truth.spacing, roi["radius_mm"])
        if roi["voxel_count"] != want:
            problems.append(f"roi voxel_count {roi['voxel_count']} != {want}")
    return problems


def _pair_problems(rec: dict, truth: SpineTruth) -> list[str]:
    problems = []
    if rec["hu_mean"] != truth.background_hu:
        problems.append(f"interspace hu_mean {rec['hu_mean']} != {truth.background_hu}")
    if not rec["voxel_count"] > 0:
        problems.append("interspace holds no voxels")
    return problems


def check_report(report: dict, truth: SpineTruth) -> dict[str, list[str]]:
    """Problems per operation ('vertebra 3', 'pair 2-3'); empty list = passed.

    An operation fails when its record is missing, when a failure warning
    names it, or when a value differs from the closed-form truth.
    """
    verts = {rec["label"]: rec for rec in report.get("vertebrae", [])}
    pairs = {(rec["label_lo"], rec["label_hi"]): rec for rec in report.get("pairs", [])}
    warned_labels, warned_pairs = set(), set()
    for w in report.get("warnings", []):
        if w["kind"] in FAILURE_WARNINGS or w["kind"].startswith("pair_skipped"):
            if "label" in w:
                warned_labels.add(w["label"])
            if "label_lo" in w:
                warned_pairs.add((w["label_lo"], w["label_hi"]))

    verdicts = {}
    for label, level in sorted(truth.levels.items()):
        rec = verts.get(label)
        problems = ["record missing"] if rec is None else _vertebra_problems(rec, level, truth)
        if label in warned_labels:
            problems.append("failure warning")
        verdicts[f"vertebra {label}"] = problems
    for lo, hi in truth.pairs:
        rec = pairs.get((lo, hi))
        problems = ["record missing"] if rec is None else _pair_problems(rec, truth)
        if (lo, hi) in warned_pairs:
            problems.append("failure warning")
        verdicts[f"pair {lo}-{hi}"] = problems
    return verdicts


def corrupted_copy(report_bytes: bytes) -> tuple[dict, str]:
    """The report with one value changed, the first vertebra's ROI HU mean,
    and the operation that value belongs to."""
    report = json.loads(report_bytes)
    first = report["vertebrae"][0]
    first["roi"]["hu_mean"] += 1
    return report, f"vertebra {first['label']}"
