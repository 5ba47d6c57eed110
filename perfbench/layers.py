"""Per-layer metrics computed from the spans of one traced `spinekit run`.

Each metric names the hooks (span names) it is built from.  When one of them
was not installed in the traced process, the metric is reported as 0 and
listed as absent with the reason, instead of failing the run.
"""

from __future__ import annotations

from collections import defaultdict

ALPHA_BUILDS = ("report_cli.build_alpha_shape", "interspace.build_alpha_shape")
PIPELINE_STEPS = ("report_cli.run_pipeline", "report_cli._process_vertebra",
                  "report_cli._process_pair")


class Spans:
    """Sums of durations, self times and counts over the spans of one run."""

    def __init__(self, doc: dict):
        self.hooked = set(doc["hooked"])
        self.absent = {a["hook"]: a["reason"] for a in doc["absent"]}
        self.by_name: dict[str, list[dict]] = defaultdict(list)
        covered: dict[int, float] = defaultdict(float)
        for span in doc["spans"]:
            self.by_name[span["name"]].append(span)
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        self._self = {s["id"]: s["end"] - s["start"] - covered[s["id"]]
                      for s in doc["spans"]}

    def time(self, *names: str, **attrs) -> float:
        return sum(s["end"] - s["start"] for n in names for s in self.by_name[n]
                   if all(s["attrs"].get(k) == v for k, v in attrs.items()))

    def self_time(self, *names: str) -> float:
        return sum(self._self[s["id"]] for n in names for s in self.by_name[n])

    def count(self, key: str, *names: str) -> int:
        return sum(s["counts"].get(key, 0) for n in names for s in self.by_name[n])

    def calls(self, *names: str) -> int:
        return sum(len(self.by_name[n]) for n in names)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> (unit, hooks it needs, value from Spans)
METRICS = {
    "alpha_mesh.delaunay_s": ("s", ("alpha_mesh.Delaunay",),
                              lambda s: s.time("alpha_mesh.Delaunay")),
    "alpha_mesh.points_in": ("count", ALPHA_BUILDS,
                             lambda s: s.count("points_in", *ALPHA_BUILDS)),
    "alpha_mesh.surface_vertices": ("count", ALPHA_BUILDS,
                                    lambda s: s.count("surface_vertices", *ALPHA_BUILDS)),
    "alpha_mesh.vertex_yield": ("ratio", ALPHA_BUILDS, lambda s: _ratio(
        s.count("surface_vertices", *ALPHA_BUILDS), s.count("points_in", *ALPHA_BUILDS))),
    "alpha_mesh.build_s": ("s", ALPHA_BUILDS, lambda s: s.time(*ALPHA_BUILDS)),
    "alpha_mesh.search_s": ("s", ALPHA_BUILDS + ("alpha_mesh.Delaunay",),
                            lambda s: s.time(*ALPHA_BUILDS) - s.time("alpha_mesh.Delaunay")),
    "alpha_mesh.metrics_s": ("s", ("report_cli.mesh_metrics",),
                             lambda s: s.time("report_cli.mesh_metrics")),
    "containment.inside_s": ("s", ("interspace.points_inside_mesh",),
                             lambda s: s.time("interspace.points_inside_mesh")),
    "containment.point_triangle_pairs": (
        "count", ("interspace.points_inside_mesh",),
        lambda s: s.count("point_triangle_pairs", "interspace.points_inside_mesh")),
    "region_segmentation.density_s": ("s", ("report_cli.estimate_density",),
                                      lambda s: s.time("report_cli.estimate_density")),
    "region_segmentation.thresholds_s": (
        "s", ("report_cli.find_thresholds", "report_cli.degraded_thresholds"),
        lambda s: s.time("report_cli.find_thresholds", "report_cli.degraded_thresholds")),
    "region_segmentation.samples": ("count", ("report_cli.estimate_density",),
                                    lambda s: s.count("samples", "report_cli.estimate_density")),
    "region_segmentation.degraded": (
        "count", ("report_cli.find_thresholds", "report_cli.degraded_thresholds"),
        lambda s: s.count("degraded", "report_cli.find_thresholds",
                          "report_cli.degraded_thresholds")),
    **{f"texture_mapping.{crit}_s": (
        "s", ("report_cli.map_grey",),
        lambda s, crit=crit: s.time("report_cli.map_grey", criterion=crit))
       for crit in ("internal", "euclidean", "external")},
    "texture_mapping.nn_s": ("s", ("texture_mapping.nearest_canonical",),
                             lambda s: s.time("texture_mapping.nearest_canonical")),
    "texture_mapping.candidates": (
        "count", ("texture_mapping.nearest_canonical",),
        lambda s: s.count("candidates", "texture_mapping.nearest_canonical")),
    "texture_mapping.nn_calls_per_map": (
        "ratio", ("texture_mapping.nearest_canonical", "report_cli.map_grey"),
        lambda s: _ratio(s.calls("texture_mapping.nearest_canonical"),
                         s.calls("report_cli.map_grey"))),
    "spatial.nearest_s": (
        "s", ("texture_mapping.nearest_canonical", "interspace.nearest_canonical"),
        lambda s: s.time("texture_mapping.nearest_canonical", "interspace.nearest_canonical")),
    "spatial.queries": (
        "count", ("texture_mapping.nearest_canonical", "interspace.nearest_canonical"),
        lambda s: s.count("queries", "texture_mapping.nearest_canonical",
                          "interspace.nearest_canonical")),
    "volume_io.load_s": ("s", ("report_cli.load_volume",),
                         lambda s: s.time("report_cli.load_volume")),
    "volume_io.present_labels_s": (
        "s", ("volume_io.LabeledVolume.present_labels",),
        lambda s: s.time("volume_io.LabeledVolume.present_labels")),
    "volume_io.extract_s": ("s", ("report_cli.extract_label_points",),
                            lambda s: s.time("report_cli.extract_label_points")),
    "volume_io.bytes_read": ("bytes", ("report_cli.load_volume",),
                             lambda s: s.count("bytes_read", "report_cli.load_volume")),
    "volume_io.labeled_voxels": ("count", ("report_cli.extract_label_points",),
                                 lambda s: s.count("points", "report_cli.extract_label_points")),
    "interspace.facing_s": ("s", ("report_cli.facing_vertices",),
                            lambda s: s.time("report_cli.facing_vertices")),
    "interspace.build_s": ("s", ("report_cli.build_interspace",),
                           lambda s: s.time("report_cli.build_interspace")),
    "interspace.voxel_stats_s": ("s", ("report_cli.interspace_voxel_stats",),
                                 lambda s: s.time("report_cli.interspace_voxel_stats")),
    "interspace.tested_voxels": ("count", ("interspace.points_inside_mesh",),
                                 lambda s: s.count("tested", "interspace.points_inside_mesh")),
    "interspace.inside_yield": ("ratio", ("interspace.points_inside_mesh",), lambda s: _ratio(
        s.count("inside", "interspace.points_inside_mesh"),
        s.count("tested", "interspace.points_inside_mesh"))),
    "roi_analysis.s": ("s", ("report_cli.max_inscribed_radius", "report_cli.roi_stats"),
                       lambda s: s.time("report_cli.max_inscribed_radius",
                                        "report_cli.roi_stats")),
    "roi_analysis.voxels": ("count", ("report_cli.roi_stats",),
                            lambda s: s.count("voxels", "report_cli.roi_stats")),
    "report_cli.emit_s": ("s", ("report_cli.emit_outputs",),
                          lambda s: s.time("report_cli.emit_outputs")),
    "ply.bytes_written": ("bytes", ("report_cli.write_ply",),
                          lambda s: s.count("bytes", "report_cli.write_ply")),
    "startup.import_s": ("s", (), lambda s: s.time("startup")),
    "report_cli.pipeline_self_s": ("s", PIPELINE_STEPS,
                                   lambda s: s.self_time(*PIPELINE_STEPS)),
}


def layer_metrics(doc: dict) -> tuple[dict[str, float], dict[str, str]]:
    """(value per metric, absence reason per metric) for one spans document."""
    spans = Spans(doc)
    values, absent = {}, {}
    for name, (_unit, hooks, value) in METRICS.items():
        missing = [h for h in hooks if h not in spans.hooked]
        if missing:
            values[name] = 0.0
            absent[name] = "; ".join(
                f"{h}: {spans.absent.get(h, 'not imported by report_cli')}"
                for h in missing)
        else:
            values[name] = float(value(spans))
    return values, absent
