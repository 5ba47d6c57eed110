"""Run the spinekit CLI with spans recorded at module boundaries, from outside.

Usage: python3 trace_child.py SPANS_JSON <spinekit CLI arguments...>

Before `report_cli.main` runs, the names that each module resolves at call
time are replaced by wrappers that record a span: name, start, end, parent
span and run id, plus the label or pair of the enclosing per-vertebra or
per-pair step, and counts taken from the call's arguments and result.  Spans
stay in memory and are written to SPANS_JSON when the CLI returns.  A hook
whose name no longer resolves is listed as absent instead of failing.

`PERFBENCH_SPAWN_S` holds the parent's `time.monotonic()` just before it
spawned this process (CLOCK_MONOTONIC is system-wide), so the span
`startup` covers interpreter start and the package import.
"""

import os
import sys
import time

import spinekit.report_cli as report_cli

IMPORTED_S = time.monotonic()

import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _criterion(args, kwargs):
    crit = _arg(args, kwargs, 3, "criterion")
    return {"criterion": str(getattr(crit, "value", crit))}


# counts read from (args, kwargs, result) at a boundary
COUNTS = {
    "report_cli.load_volume": lambda a, k, r: {
        "bytes_read": int(r.hu.nbytes + r.labels.nbytes)},
    "report_cli.extract_label_points": lambda a, k, r: {"points": len(r)},
    "report_cli.build_alpha_shape": lambda a, k, r: {
        "points_in": len(a[0]), "surface_vertices": len(r.vertices)},
    "interspace.build_alpha_shape": lambda a, k, r: {
        "points_in": len(a[0]), "surface_vertices": len(r.vertices)},
    "alpha_mesh.Delaunay": lambda a, k, r: {"points": len(a[0])},
    "report_cli.estimate_density": lambda a, k, r: {"samples": len(a[0].values)},
    "report_cli.find_thresholds": lambda a, k, r: {"degraded": int(r.degraded)},
    "report_cli.degraded_thresholds": lambda a, k, r: {"degraded": int(r.degraded)},
    "texture_mapping.nearest_canonical": lambda a, k, r: {
        "candidates": len(a[0]), "queries": len(_arg(a, k, 1, "queries"))},
    "interspace.nearest_canonical": lambda a, k, r: {
        "queries": len(_arg(a, k, 1, "queries"))},
    "interspace.points_inside_mesh": lambda a, k, r: {
        "tested": len(a[0]), "inside": int(r[0].sum()),
        "point_triangle_pairs": len(a[0]) * len(a[1].triangles)},
    "report_cli.roi_stats": lambda a, k, r: {"voxels": int(r.voxel_count)},
    "report_cli.write_ply": lambda a, k, r: {"bytes": os.path.getsize(r)},
}

# attributes that the step's descendants inherit
ATTRS = {
    "report_cli._process_vertebra": lambda a, k: {"label": int(a[1])},
    "report_cli._process_pair": lambda a, k: {"pair": [int(a[1]), int(a[2])]},
    "report_cli.map_grey": _criterion,
}

# the names other modules resolve at call time, beyond report_cli's imports
EXTRA_HOOKS = (
    ("report_cli", "run_pipeline"),
    ("report_cli", "emit_outputs"),
    ("report_cli", "_process_vertebra"),
    ("report_cli", "_process_pair"),
    ("interspace", "build_alpha_shape"),
    ("interspace", "points_inside_mesh"),
    ("interspace", "nearest_canonical"),
    ("texture_mapping", "nearest_canonical"),
    ("alpha_mesh", "Delaunay"),
    ("volume_io", "LabeledVolume.present_labels"),
)


class Tracer:
    """In-memory span recorder for one process (one run id)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self.hooked: list[str] = []
        self.absent: list[dict] = []

    def span(self, name: str, start: float, end: float, attrs=None) -> dict:
        parent = self._open[-1] if self._open else None
        inherited = dict(parent["attrs"]) if parent else {}
        inherited.update(attrs or {})
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "parent": parent["id"] if parent else None,
               "start": start, "end": end, "attrs": inherited, "counts": {}}
        self.spans.append(rec)
        return rec

    def wrap(self, name: str, fn):
        counts = COUNTS.get(name)
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.span(name, time.monotonic(), None,
                            attrs(args, kwargs) if attrs else None)
            self._open.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.monotonic()
                self._open.pop()
            if counts:
                rec["counts"] = counts(args, kwargs, result)
            return result
        return traced

    def hook(self, module: str, dotted: str) -> None:
        name = f"{module}.{dotted}"
        try:
            owner = importlib.import_module(f"spinekit.{module}")
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError) as exc:
            self.absent.append({"hook": name, "reason": f"{type(exc).__name__}: {exc}"})
            return
        setattr(owner, attr, self.wrap(name, fn))
        self.hooked.append(name)


def install(tracer: Tracer) -> None:
    """Hook every spinekit function report_cli imported, then the extras."""
    for attr, obj in sorted(vars(report_cli).items()):
        module = getattr(obj, "__module__", "") or ""
        if (callable(obj) and module.startswith("spinekit.")
                and module != report_cli.__name__ and not isinstance(obj, type)):
            tracer.hook("report_cli", attr)
    for module, dotted in EXTRA_HOOKS:
        tracer.hook(module, dotted)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer(run_id=f"pid{os.getpid()}")
    spawned = float(os.environ.get("PERFBENCH_SPAWN_S", IMPORTED_S))
    tracer.span("startup", spawned, IMPORTED_S)
    install(tracer)
    try:
        code = report_cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"run": tracer.run_id, "hooked": tracer.hooked,
                       "absent": tracer.absent, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
