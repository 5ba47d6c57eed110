"""Full-spine pipeline orchestration, report assembly and the CLI.

`run_pipeline` meshes, segments, texture-maps and ROI-analyzes every present
vertebra, extracts the interspace for every consecutive pair, and collects
the results into a SpineReport.  Failures are isolated per vertebra or pair:
they become warnings, never aborts.  `emit_outputs` writes superimposable
PLY surfaces, two CSV tables with fixed schemas, and a byte-deterministic
report.json.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import numbers
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .alpha_mesh import AUTO, build_alpha_shape, mesh_metrics
from .errors import (DegenerateDistributionError, DescriptorError,
                     ExtractionError, MappingError, PhantomSpecError,
                     RoiTooSmallError, SpineKitError, ThresholdFailureError)
from .interspace import (build_interspace, facing_vertices, filter_body,
                         interspace_voxel_stats)
from .phantom import phantom_from_spec
from .ply import write_ply
from .region_segmentation import (Region, classify_vertices,
                                  degraded_thresholds, distance_distribution,
                                  estimate_density, find_thresholds)
from .roi_analysis import max_inscribed_radius, roi_stats
from .texture_mapping import CRITERIA, map_grey, region_mean_hu
from .volume_io import (extract_label_points, is_number, is_positive_real,
                        load_volume, write_volume)

logger = logging.getLogger("spinekit")

TOOL_NAME = "spinekit"
TOOL_VERSION = "0.1.0"

_REGION_COLORS = {
    int(Region.BODY): (255, 0, 0),
    int(Region.ARCH): (0, 0, 255),
    int(Region.PROCESS): (0, 255, 0),
}

VERTEBRAE_CSV_COLUMNS = (
    "label", "area_mm2", "volume_mm3", "t1_mm", "t2_mm", "t3_mm",
    "mean_hu_body_int", "mean_hu_body_euc", "mean_hu_body_ext",
    "mean_hu_arch_int", "mean_hu_arch_euc", "mean_hu_arch_ext",
    "mean_hu_proc_int", "mean_hu_proc_euc", "mean_hu_proc_ext",
    "roi_radius_mm", "roi_voxels", "roi_hu_mean", "roi_hu_sum", "flags")
PAIRS_CSV_COLUMNS = (
    "label_lo", "label_hi", "centroid_dist_mm", "interspace_volume_mm3",
    "interspace_hu_mean", "interspace_hu_sum", "interspace_voxels", "flags")


def _listed(value, name: str) -> tuple:
    """A list-valued config field as a tuple; a string or a value that is not
    iterable raises SpineKitError."""
    if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
        raise SpineKitError(f"{name} must be a list, got {value!r}")
    return tuple(value)


@dataclass
class PipelineConfig:
    """Knobs for one pipeline run.

    `alpha` is "auto", a radius in mm, or None for the default of one voxel
    diagonal.  `criteria` names each mapping criterion at most once.
    `pairs` overrides the consecutive-label pairing; each pair joins two
    different int labels (not bools), both at least 1, and no two pairs join
    the same labels, in either order.  Both lists are stored
    as tuples of Python values.  Any other value raises SpineKitError.
    """

    input_path: str | Path
    out_dir: str | Path
    alpha: float | str | None = None
    criteria: tuple[str, ...] = CRITERIA
    bandwidth: float | None = None
    pairs: tuple[tuple[int, int], ...] | None = None
    subject: str = ""

    def __post_init__(self):
        self.criteria = _listed(self.criteria, "criteria")
        if self.pairs is not None:
            self.pairs = _listed(self.pairs, "pairs")
        if not self.criteria:
            raise SpineKitError("criteria subset must be non-empty")
        bad = [c for c in self.criteria if c not in CRITERIA]
        if bad:
            raise SpineKitError(f"unknown mapping criteria: {bad}")
        if len(set(self.criteria)) < len(self.criteria):
            raise SpineKitError(
                f"criteria must not repeat, got {list(self.criteria)}")
        if self.alpha not in (None, AUTO) and not is_positive_real(self.alpha):
            raise SpineKitError(
                f"alpha must be finite and positive or 'auto', got {self.alpha}")
        if self.bandwidth is not None:
            if not is_positive_real(self.bandwidth):
                raise SpineKitError(
                    f"bandwidth must be finite and positive, got {self.bandwidth}")
            self.bandwidth = float(self.bandwidth)
        bad = [p for p in self.pairs or ()
               if not (isinstance(p, (tuple, list)) and len(p) == 2 and p[0] != p[1]
                       and all(is_number(x, numbers.Integral) and x >= 1 for x in p))]
        if bad:
            raise SpineKitError(
                f"pairs must join two different labels of at least 1, got {bad}")
        if self.pairs is not None:
            self.pairs = tuple((int(lo), int(hi)) for lo, hi in self.pairs)
            if len({frozenset(p) for p in self.pairs}) < len(self.pairs):
                raise SpineKitError(
                    f"pairs must not repeat in either order, got {list(self.pairs)}")

    def semantic(self) -> dict:
        """Config content that determines the outputs (paths excluded)."""
        alpha = self.alpha
        if alpha is None:
            alpha = "voxel_diagonal"
        elif alpha != AUTO:
            alpha = float(alpha)
        return {
            "alpha": alpha,
            "criteria": list(self.criteria),
            "bandwidth": self.bandwidth,
            "pairs": [list(p) for p in self.pairs] if self.pairs is not None else None,
            "subject": self.subject,
        }


@dataclass
class _VertebraArtifacts:
    mesh: object
    samples: object = None
    thresholds: object = None
    labeling: object = None
    textures: dict = field(default_factory=dict)


@dataclass
class SpineReport:
    """Aggregated per-vertebra and per-pair results plus warnings."""

    vertebrae: list[dict]
    pairs: list[dict]
    warnings: list[dict]
    provenance: dict
    artifacts: dict = field(default_factory=dict, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
            "subject": self.provenance.get("subject", ""),
            "config": self.provenance["config"],
            "config_hash": self.provenance["config_hash"],
            "vertebrae": self.vertebrae,
            "pairs": self.pairs,
            "warnings": self.warnings,
        }


def _warn(warnings: list[dict], kind: str, message: str, **keys) -> None:
    entry = {"kind": kind, "message": message, **keys}
    warnings.append(entry)
    logger.warning("%s: %s", kind, message)


def _process_vertebra(volume, label, cfg, warnings):
    rec = {
        "label": int(label), "alpha_used": None, "area_mm2": None,
        "volume_mm3": None, "t1_mm": None, "t2_mm": None, "t3_mm": None,
        "degraded": False, "region_counts": None, "region_hu": None,
        "hu_windows": None, "roi": None, "flags": [],
    }
    flags = rec["flags"]

    points = extract_label_points(volume, label)
    # cfg.alpha is None (the voxel diagonal), "auto" or a positive real
    mesh = build_alpha_shape(points, alpha=cfg.alpha or points.voxel_diagonal)
    if mesh.cavities_discarded:
        flags.append("interior_components_discarded")
    met = mesh_metrics(mesh)
    rec["alpha_used"] = float(mesh.alpha_used)
    rec["area_mm2"] = met.area
    rec["volume_mm3"] = met.volume
    art = _VertebraArtifacts(mesh=mesh)

    ann = volume.centroids.get(label)
    if ann is None:
        flags.append("missing_centroid")
        _warn(warnings, "missing_centroid",
              f"label {label} has no centroid annotation; segmentation, "
              f"texture and ROI skipped", label=int(label))
        return rec, art

    samples = distance_distribution(mesh, ann)
    art.samples = samples
    if not samples.centroid_in_bbox:
        flags.append("centroid_outside_bbox")
        _warn(warnings, "centroid_outside_bbox",
              f"centroid of label {label} lies outside the mesh bounding box",
              label=int(label))

    thresholds = None
    try:
        # floor the bandwidth at the distance-quantization scale of the grid
        curve = estimate_density(samples, bandwidth=cfg.bandwidth,
                                 min_bandwidth=volume.voxel_diagonal / 2.0)
    except DegenerateDistributionError as exc:
        curve = None
        flags.append("degenerate_distance_distribution")
        _warn(warnings, "degenerate_distance_distribution", str(exc),
              label=int(label))
    if curve is not None:
        try:
            thresholds = find_thresholds(curve)
        except ThresholdFailureError as exc:
            flags.append("threshold_failure")
            _warn(warnings, "threshold_failure",
                  f"label {label}: {exc}", label=int(label))
            try:
                thresholds = degraded_thresholds(curve)
            except ThresholdFailureError:
                thresholds = None

    if thresholds is not None:
        if thresholds.degraded:
            flags.append("degraded_thresholds")
        art.thresholds = thresholds
        rec["t1_mm"] = thresholds.t1
        rec["t2_mm"] = thresholds.t2
        rec["t3_mm"] = thresholds.t3
        rec["degraded"] = thresholds.degraded
        labeling = classify_vertices(samples, thresholds)
        art.labeling = labeling
        rec["region_counts"] = labeling.counts()

        region_hu: dict[str, dict] = {}
        windows: dict[str, list[int]] = {}
        for crit in cfg.criteria:
            try:
                tex = map_grey(mesh, volume, label, crit)
            except MappingError as exc:
                flags.append(f"mapping_failed_{crit}")
                _warn(warnings, "mapping_failed", f"label {label} {crit}: {exc}",
                      label=int(label), criterion=crit)
                continue
            art.textures[crit] = tex
            region_hu[crit] = region_mean_hu(tex, labeling)
            windows[crit] = [int(tex.hu.min()), int(tex.hu.max())]
        rec["region_hu"] = region_hu
        rec["hu_windows"] = windows

    try:
        radius = max_inscribed_radius(mesh, ann, volume.voxel_diagonal)
        stats = roi_stats(volume, ann, radius)
        rec["roi"] = {"radius_mm": stats.radius, "voxel_count": stats.voxel_count,
                      "hu_mean": stats.hu_mean, "hu_sum": stats.hu_sum}
    except RoiTooSmallError as exc:
        flags.append("roi_too_small")
        _warn(warnings, "roi_too_small", f"label {label}: {exc}", label=int(label))

    return rec, art


def _derive_pairs(labels, cfg, warnings):
    if cfg.pairs is not None:
        return list(cfg.pairs)
    pairs = []
    for lo, hi in zip(labels, labels[1:]):
        if hi == lo + 1:
            pairs.append((lo, hi))
        else:
            _warn(warnings, "pair_skipped_nonadjacent",
                  f"labels {lo} and {hi} are not adjacent integers; "
                  f"no interspace extracted", label_lo=int(lo), label_hi=int(hi))
    return pairs


def _process_pair(volume, lo, hi, arts, warnings):
    if lo not in arts or hi not in arts:
        _warn(warnings, "pair_skipped_missing_vertebra",
              f"pair ({lo},{hi}) skipped: a vertebra record is missing",
              label_lo=int(lo), label_hi=int(hi))
        return None, None
    alo, ahi = arts[lo], arts[hi]
    if alo.thresholds is None or ahi.thresholds is None:
        _warn(warnings, "pair_skipped_no_thresholds",
              f"pair ({lo},{hi}) skipped: thresholds unavailable",
              label_lo=int(lo), label_hi=int(hi))
        return None, None
    fa, fb = facing_vertices(alo.mesh, ahi.mesh, volume.spacing)
    fa = filter_body(fa, alo.samples, alo.thresholds)
    fb = filter_body(fb, ahi.samples, ahi.thresholds)
    if len(fa) == 0 or len(fb) == 0:
        _warn(warnings, "interspace_empty_facing",
              f"pair ({lo},{hi}): no facing vertices inside the body spheres",
              label_lo=int(lo), label_hi=int(hi))
        return None, None
    try:
        mesh = build_interspace(alo.mesh, ahi.mesh, fa, fb)
        stats = interspace_voxel_stats(volume, mesh)
    except (ExtractionError, DescriptorError) as exc:   # the HU file shrank
        _warn(warnings, "interspace_failed", f"pair ({lo},{hi}): {exc}",
              label_lo=int(lo), label_hi=int(hi))
        return None, None
    flags = []
    if stats.excluded_count:
        flags.append("labeled_voxels_excluded")
    rec = {
        "label_lo": int(lo), "label_hi": int(hi),
        "centroid_dist_mm": float(np.linalg.norm(
            volume.centroids[lo].mm - volume.centroids[hi].mm)),
        "volume_mm3": mesh_metrics(mesh).volume,
        "hu_mean": stats.hu_mean, "hu_sum": stats.hu_sum,
        "voxel_count": stats.voxel_count,
        "excluded_count": stats.excluded_count,
        "flags": flags,
    }
    return rec, mesh


def run_pipeline(cfg: PipelineConfig) -> SpineReport:
    """Run the whole pipeline; per-vertebra and per-pair failures become warnings."""
    volume = load_volume(cfg.input_path)
    labels = volume.present_labels()
    warnings: list[dict] = []
    records: list[dict] = []
    arts: dict[int, _VertebraArtifacts] = {}

    if not labels:
        _warn(warnings, "empty_label_field", "volume contains no labeled voxels")
    for lab in volume.orphan_centroids:
        _warn(warnings, "orphan_centroid",
              f"centroid annotation for label {lab} has no voxels", label=int(lab))

    for lab in labels:
        try:
            rec, art = _process_vertebra(volume, lab, cfg, warnings)
        except SpineKitError as exc:
            _warn(warnings, "vertebra_failed", f"label {lab}: {exc}", label=int(lab))
            continue
        records.append(rec)
        arts[lab] = art

    pair_records: list[dict] = []
    pair_meshes: dict[tuple[int, int], object] = {}
    for lo, hi in _derive_pairs(labels, cfg, warnings):
        rec, mesh = _process_pair(volume, lo, hi, arts, warnings)
        if rec is not None:
            pair_records.append(rec)
            pair_meshes[(lo, hi)] = mesh

    semantic = cfg.semantic()
    config_hash = hashlib.sha256(
        json.dumps(semantic, sort_keys=True).encode()).hexdigest()
    provenance = {"config": semantic, "config_hash": config_hash,
                  "subject": cfg.subject}
    return SpineReport(vertebrae=records, pairs=pair_records, warnings=warnings,
                       provenance=provenance,
                       artifacts={"vertebrae": arts, "pairs": pair_meshes})


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _vertebra_csv_row(rec: dict) -> list[str]:
    row = [rec["label"], rec["area_mm2"], rec["volume_mm3"],
           rec["t1_mm"], rec["t2_mm"], rec["t3_mm"]]
    hu = rec.get("region_hu") or {}
    for region in ("body", "arch", "process"):
        for crit in CRITERIA:
            row.append((hu.get(crit) or {}).get(region))
    roi = rec.get("roi") or {}
    row += [roi.get("radius_mm"), roi.get("voxel_count"),
            roi.get("hu_mean"), roi.get("hu_sum")]
    row.append(";".join(rec["flags"]))
    return [_fmt(v) for v in row]


def _pair_csv_row(rec: dict) -> list[str]:
    row = [rec["label_lo"], rec["label_hi"], rec["centroid_dist_mm"],
           rec["volume_mm3"], rec["hu_mean"], rec["hu_sum"],
           rec["voxel_count"], ";".join(rec["flags"])]
    return [_fmt(v) for v in row]


def _grey_colors(hu: np.ndarray) -> np.ndarray:
    lo, hi = int(hu.min()), int(hu.max())
    if hi > lo:
        grey = np.rint(255.0 * (hu - lo) / (hi - lo)).astype(np.uint8)
    else:
        grey = np.full(len(hu), 127, dtype=np.uint8)
    return np.stack([grey] * 3, axis=1)


def emit_outputs(report: SpineReport, cfg: PipelineConfig) -> list[Path]:
    """Write PLY surfaces, vertebrae.csv, pairs.csv and report.json.

    On an I/O failure the raised error carries the partial-output manifest.
    """
    files: list[Path] = []
    try:
        _emit_outputs(report, cfg, files)
    except OSError as exc:
        written = ", ".join(p.name for p in files) or "none"
        raise OSError(f"{exc} (partial outputs already written: {written})") from exc
    return files


def _emit_outputs(report: SpineReport, cfg: PipelineConfig, files: list[Path]):
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    arts = report.artifacts.get("vertebrae", {})
    for rec in report.vertebrae:
        lab = rec["label"]
        art = arts.get(lab)
        if art is None:
            continue
        mesh = art.mesh
        if art.labeling is not None:
            colors = np.zeros((len(mesh.vertices), 3), dtype=np.uint8)
            for rid, rgb in _REGION_COLORS.items():
                colors[art.labeling.regions == rid] = rgb
            files.append(write_ply(out / f"vertebra_{lab:02d}_regions.ply",
                                   mesh.vertices, mesh.triangles, colors))
        for crit in cfg.criteria:
            tex = art.textures.get(crit)
            if tex is None:
                continue
            grey = _grey_colors(tex.hu)
            files.append(write_ply(out / f"vertebra_{lab:02d}_tex_{crit}.ply",
                                   mesh.vertices, mesh.triangles, grey))

    pair_meshes = report.artifacts.get("pairs", {})
    for rec in report.pairs:
        key = (rec["label_lo"], rec["label_hi"])
        mesh = pair_meshes.get(key)
        if mesh is None:
            continue
        files.append(write_ply(out / f"interspace_{key[0]:02d}_{key[1]:02d}.ply",
                               mesh.vertices, mesh.triangles))

    vert_csv = out / "vertebrae.csv"
    with open(vert_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(VERTEBRAE_CSV_COLUMNS)
        for rec in report.vertebrae:
            writer.writerow(_vertebra_csv_row(rec))
    files.append(vert_csv)

    pairs_csv = out / "pairs.csv"
    with open(pairs_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PAIRS_CSV_COLUMNS)
        for rec in report.pairs:
            writer.writerow(_pair_csv_row(rec))
    files.append(pairs_csv)

    report_json = out / "report.json"
    report_json.write_text(
        json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n")
    files.append(report_json)


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        lo, _, hi = chunk.partition("-")
        pairs.append((int(lo), int(hi)))
    return pairs


def _cmd_run(args) -> int:
    alpha = args.alpha
    if alpha is not None and alpha != AUTO:
        try:
            alpha = float(alpha)
        except ValueError:
            print(f"error: --alpha must be 'auto' or a number, got {alpha!r}",
                  file=sys.stderr)
            return 2
    try:
        cfg = PipelineConfig(
            input_path=args.input, out_dir=args.out, alpha=alpha,
            criteria=tuple(c.strip() for c in args.criteria.split(",") if c.strip()),
            bandwidth=args.bandwidth,
            pairs=_parse_pairs(args.pairs) if args.pairs else None,
            subject=args.subject)
        report = run_pipeline(cfg)
        files = emit_outputs(report, cfg)
    except (SpineKitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{len(report.vertebrae)} vertebra record(s), "
          f"{len(report.pairs)} pair record(s), "
          f"{len(report.warnings)} warning(s); "
          f"{len(files)} files in {cfg.out_dir}")
    return 0


def _cmd_phantom(args) -> int:
    try:
        spec = json.loads(Path(args.spec).read_text())
        volume = phantom_from_spec(spec)
        path = write_volume(volume, args.out, stem=args.stem)
    except (OSError, json.JSONDecodeError, PhantomSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Vertebra surface models, functional-region segmentation, "
                    "HU texture mapping and intervertebral-space metrics from "
                    "labeled spine CT volumes.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the full pipeline on a labeled volume")
    run.add_argument("--input", required=True, help="volume descriptor JSON")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--alpha", default=None,
                     help="'auto' or a radius in mm (default: one voxel diagonal)")
    run.add_argument("--criteria", default=",".join(CRITERIA),
                     help="comma-separated subset of internal,euclidean,external")
    run.add_argument("--pairs", default=None,
                     help="explicit pair list like '1-2,2-3' of two different "
                          "labels >= 1 each (default: consecutive labels)")
    run.add_argument("--subject", default="", help="free-text subject tag")
    run.add_argument("--bandwidth", type=float, default=None,
                     help="override the KDE bandwidth in mm")

    ph = sub.add_parser("phantom", help="generate a synthetic phantom volume")
    ph.add_argument("--spec", required=True, help="phantom spec JSON")
    ph.add_argument("--out", required=True, help="output directory")
    ph.add_argument("--stem", default="volume", help="output file stem")

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_phantom(args)


if __name__ == "__main__":
    # runpy re-executes this already-imported module; refuse instead of
    # running the CLI from a second copy of it
    sys.exit("spinekit.report_cli is not a command: run `python -m spinekit`")
