"""Pipeline orchestration, report emission and CLI behavior."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import QhullError

import spinekit as sk
from spinekit import alpha_mesh
from spinekit.report_cli import (CRITERIA, PAIRS_CSV_COLUMNS,
                                 VERTEBRAE_CSV_COLUMNS, PipelineConfig,
                                 emit_outputs, main, run_pipeline)
from spinekit.volume_io import CentroidAnnotation


def _two_ball_volume(labels=(1, 3), radius=3.0):
    dims = (30, 13, 13)
    ax = [(np.arange(n) + 0.5) for n in dims]
    gx, gy, gz = np.meshgrid(*ax, indexing="ij")
    centers = {labels[0]: np.array([6.5, 6.5, 6.5]),
               labels[1]: np.array([23.5, 6.5, 6.5])}
    lab = np.zeros(dims, dtype=np.uint16)
    for value, c in centers.items():
        mask = (gx - c[0]) ** 2 + (gy - c[1]) ** 2 + (gz - c[2]) ** 2 <= radius ** 2
        lab[mask] = value
    hu = np.where(lab > 0, 100, 0).astype(np.int16)
    centroids = {v: CentroidAnnotation.from_voxel(v, c, (1, 1, 1))
                 for v, c in centers.items()}
    return sk.LabeledVolume(dims=dims, spacing=(1, 1, 1), hu=hu, labels=lab,
                            centroids=centroids)


@pytest.fixture(scope="module")
def sphere_run(tmp_path_factory, sphere_volume):
    base = tmp_path_factory.mktemp("sphere_run")
    desc = sk.write_volume(sphere_volume, base / "in")
    cfg = PipelineConfig(input_path=desc, out_dir=base / "out")
    report = run_pipeline(cfg)
    files = emit_outputs(report, cfg)
    return cfg, report, files


@pytest.fixture(scope="module")
def disc_run(tmp_path_factory, disc_pair):
    volume, truth = disc_pair
    base = tmp_path_factory.mktemp("disc_run")
    desc = sk.write_volume(volume, base / "in")
    cfg = PipelineConfig(input_path=desc, out_dir=base / "out")
    report = run_pipeline(cfg)
    files = emit_outputs(report, cfg)
    return cfg, report, files, truth


def test_sphere_single_record_with_threshold_warning(sphere_run):
    _, report, _ = sphere_run
    assert len(report.vertebrae) == 1
    assert len(report.pairs) == 0
    kinds = {w["kind"] for w in report.warnings}
    assert "threshold_failure" in kinds
    rec = report.vertebrae[0]
    assert rec["label"] == 1
    assert "degraded_thresholds" in rec["flags"]
    assert rec["degraded"] is True
    assert rec["roi"] is not None
    assert rec["roi"]["hu_mean"] == 100.0
    assert rec["region_hu"]["internal"]["body"] == 100.0


def test_disc_records_and_pair(disc_run):
    _, report, _, truth = disc_run
    assert len(report.vertebrae) == 2
    assert len(report.pairs) == 1
    pair = report.pairs[0]
    assert (pair["label_lo"], pair["label_hi"]) == (1, 2)
    assert abs(pair["volume_mm3"] - truth.gap_volume) / truth.gap_volume <= 0.15
    assert pair["hu_mean"] == -50.0
    # thickness + gap between the cylinder centres
    assert pair["centroid_dist_mm"] == pytest.approx(14.0, abs=1e-9)
    assert pair["excluded_count"] == 0


def test_disc_file_inventory(disc_run):
    cfg, report, files, _ = disc_run
    names = sorted(p.name for p in files)
    ply = [n for n in names if n.endswith(".ply")]
    # 2 region surfaces + 2 x |criteria| textured + 1 interspace
    assert len(ply) == 2 + 2 * len(cfg.criteria) + 1
    expected = {"interspace_01_02.ply"}
    for lab in (1, 2):
        expected.add(f"vertebra_{lab:02d}_regions.ply")
        for crit in cfg.criteria:
            expected.add(f"vertebra_{lab:02d}_tex_{crit}.ply")
    assert set(ply) == expected
    assert "vertebrae.csv" in names and "pairs.csv" in names and "report.json" in names
    assert len(names) == len(ply) + 3


def test_rerun_bit_identical(disc_run, tmp_path):
    cfg, _, files, _ = disc_run
    cfg2 = PipelineConfig(input_path=cfg.input_path, out_dir=tmp_path / "out2")
    report2 = run_pipeline(cfg2)
    files2 = emit_outputs(report2, cfg2)
    by_name = {p.name: p for p in files}
    by_name2 = {p.name: p for p in files2}
    for name in ("report.json", "vertebrae.csv", "pairs.csv"):
        assert by_name[name].read_bytes() == by_name2[name].read_bytes()


def test_slabs_finishing_out_of_order_give_identical_bytes(disc_run, tmp_path,
                                                          monkeypatch):
    # three workers, nine slabs per vertebra; the lowest slab finishes last
    cfg, _, files, _ = disc_run
    finished, lock = [], threading.Lock()
    slab_tets = alpha_mesh._slab_tets

    def lowest_last(jit, local, sel, axis, lo, hi, alpha):
        if lo == -np.inf:
            time.sleep(0.3)
        result = slab_tets(jit, local, sel, axis, lo, hi, alpha)
        with lock:
            finished.append(lo)
        return result

    monkeypatch.setattr(alpha_mesh, "_workers", lambda: 3)
    monkeypatch.setattr(alpha_mesh, "_slab_tets", lowest_last)
    cfg2 = PipelineConfig(input_path=cfg.input_path, out_dir=tmp_path / "out2")
    files2 = emit_outputs(run_pipeline(cfg2), cfg2)
    assert len(finished) == 18 and finished != sorted(finished)
    assert sorted(p.name for p in files2) == sorted(p.name for p in files)
    by_name2 = {p.name: p for p in files2}
    for path in files:
        assert path.read_bytes() == by_name2[path.name].read_bytes(), path.name


def test_qhull_error_in_one_slab_fails_that_vertebra_only(tmp_path, monkeypatch):
    real, calls = alpha_mesh.Delaunay, itertools.count()

    def second_call_fails(points):
        if next(calls) == 1:        # a slab of label 1, the first built
            raise QhullError("QH6154 injected failure")
        return real(points)

    monkeypatch.setattr(alpha_mesh, "_workers", lambda: 2)
    monkeypatch.setattr(alpha_mesh, "Delaunay", second_call_fails)
    desc = sk.write_volume(_mini_spine_volume(), tmp_path / "in")
    report = run_pipeline(PipelineConfig(input_path=desc, out_dir=tmp_path / "out"))
    assert [rec["label"] for rec in report.vertebrae] == [2, 3]
    failed = [w for w in report.warnings if w["kind"] == "vertebra_failed"]
    assert [(w["label"], w["message"]) for w in failed] == [
        (1, "label 1: tetrahedralization failed: QH6154 injected failure")]


def test_csv_headers_match_documented_schema(disc_run):
    _, _, files, _ = disc_run
    by_name = {p.name: p for p in files}
    vert_header = by_name["vertebrae.csv"].read_text().splitlines()[0]
    assert vert_header == ",".join(VERTEBRAE_CSV_COLUMNS)
    pair_header = by_name["pairs.csv"].read_text().splitlines()[0]
    assert pair_header == ",".join(PAIRS_CSV_COLUMNS)


def test_report_json_structure(disc_run):
    _, report, files, _ = disc_run
    by_name = {p.name: p for p in files}
    data = json.loads(by_name["report.json"].read_text())
    assert data["tool"]["name"] == "spinekit"
    assert data["config_hash"] == report.provenance["config_hash"]
    assert sorted(data["config"]) == ["alpha", "bandwidth", "criteria", "pairs",
                                      "subject"]
    assert len(data["vertebrae"]) == 2
    assert len(data["pairs"]) == 1


def test_empty_label_field(tmp_path):
    dims = (8, 8, 8)
    vol = sk.LabeledVolume(dims=dims, spacing=(1, 1, 1),
                           hu=np.zeros(dims, dtype=np.int16),
                           labels=np.zeros(dims, dtype=np.uint16))
    desc = sk.write_volume(vol, tmp_path / "in")
    cfg = PipelineConfig(input_path=desc, out_dir=tmp_path / "out")
    report = run_pipeline(cfg)
    emit_outputs(report, cfg)
    assert report.vertebrae == []
    assert report.pairs == []
    assert any(w["kind"] == "empty_label_field" for w in report.warnings)
    assert (tmp_path / "out" / "vertebrae.csv").read_text().count("\n") == 1


def test_coverage_accounting_with_failed_vertebra(tmp_path, sphere_volume):
    labels = np.array(sphere_volume.labels)
    labels[1:4, 1, 1] = 2          # 3 voxels: too few points to reconstruct
    vol = sk.LabeledVolume(dims=sphere_volume.dims, spacing=sphere_volume.spacing,
                           hu=sphere_volume.hu, labels=labels,
                           centroids=sphere_volume.centroids)
    desc = sk.write_volume(vol, tmp_path / "in")
    cfg = PipelineConfig(input_path=desc, out_dir=tmp_path / "out")
    report = run_pipeline(cfg)
    recorded = {rec["label"] for rec in report.vertebrae}
    failed = {w["label"] for w in report.warnings if w["kind"] == "vertebra_failed"}
    assert recorded == {1}
    assert failed == {2}
    assert recorded | failed == set(vol.present_labels())
    # the pair (1,2) cannot be built without a mesh for 2
    assert any(w["kind"] == "pair_skipped_missing_vertebra" for w in report.warnings)


def test_nonadjacent_labels_skip_pairing(tmp_path):
    vol = _two_ball_volume(labels=(1, 3))
    desc = sk.write_volume(vol, tmp_path / "in")
    cfg = PipelineConfig(input_path=desc, out_dir=tmp_path / "out")
    report = run_pipeline(cfg)
    assert len(report.vertebrae) == 2
    assert report.pairs == []
    assert any(w["kind"] == "pair_skipped_nonadjacent" for w in report.warnings)


def test_pairs_override(tmp_path, disc_pair):
    volume, _ = disc_pair
    desc = sk.write_volume(volume, tmp_path / "in")
    cfg = PipelineConfig(input_path=desc, out_dir=tmp_path / "out",
                         pairs=[(1, 2)])
    report = run_pipeline(cfg)
    assert len(report.pairs) == 1


def test_alpha_modes(tmp_path):
    vol = sk.make_sphere_phantom(4.0, (1, 1, 1), 100, 0, 1)
    desc = sk.write_volume(vol, tmp_path / "in")
    auto_cfg = PipelineConfig(input_path=desc, out_dir=tmp_path / "a", alpha="auto")
    rec = run_pipeline(auto_cfg).vertebrae[0]
    assert rec["alpha_used"] <= np.sqrt(3.0)
    fixed_cfg = PipelineConfig(input_path=desc, out_dir=tmp_path / "f", alpha=2.5)
    rec = run_pipeline(fixed_cfg).vertebrae[0]
    assert rec["alpha_used"] == 2.5


def test_config_hash_semantics(tmp_path):
    a = PipelineConfig(input_path="x.json", out_dir=tmp_path / "a")
    b = PipelineConfig(input_path="y.json", out_dir=tmp_path / "b")
    c = PipelineConfig(input_path="x.json", out_dir=tmp_path / "c",
                       criteria=("internal",))
    assert a.semantic() == b.semantic()
    assert a.semantic() != c.semantic()
    with pytest.raises(sk.SpineKitError):
        PipelineConfig(input_path="x", out_dir="y", criteria=())
    with pytest.raises(sk.SpineKitError):
        PipelineConfig(input_path="x", out_dir="y", criteria=("nearest",))


def test_hu_windows_recorded(disc_run):
    _, report, _, _ = disc_run
    rec = report.vertebrae[0]
    assert rec["hu_windows"]["internal"] == [100, 100]
    lo, hi = rec["hu_windows"]["euclidean"]
    assert lo <= hi


def test_monotone_trends_over_body_radius_series():
    volumes, radii, t1s = [], [], []
    for body_r in (12.0, 15.0, 18.0):
        vol, _ = sk.make_compound_vertebra(body_r, 2.5, 4.0, (1, 1, 1), 1)
        pts = sk.extract_label_points(vol, 1)
        mesh = sk.build_alpha_shape(pts, alpha=pts.voxel_diagonal)
        volumes.append(sk.mesh_metrics(mesh).volume)
        samples = sk.distance_distribution(mesh, vol.centroids[1])
        th = sk.find_thresholds(sk.estimate_density(samples))
        t1s.append(th.t1)
        radii.append(sk.max_inscribed_radius(mesh, vol.centroids[1],
                                             vol.voxel_diagonal))
    assert volumes == sorted(volumes)
    assert radii == sorted(radii)
    assert t1s == sorted(t1s)


def _mini_spine_volume():
    """Three stacked balls of growing radius, labels 1..3, gaps of 4 mm."""
    radii = [8.0, 9.0, 10.0]
    gap = 4.0
    nxy = 2 * (int(max(radii)) + 3) + 1
    total = sum(2 * r for r in radii) + gap * 2 + 8
    nz = int(np.ceil(total)) + 1
    dims = (nxy, nxy, nz)
    ax = [(np.arange(n) + 0.5) for n in dims]
    gx, gy, gz = np.meshgrid(*ax, indexing="ij")
    lab = np.zeros(dims, dtype=np.uint16)
    centroids = {}
    z = 4.0
    for i, r in enumerate(radii, start=1):
        c = np.array([nxy / 2.0, nxy / 2.0, z + r])
        mask = (gx - c[0]) ** 2 + (gy - c[1]) ** 2 + (gz - c[2]) ** 2 <= r ** 2
        lab[mask] = i
        centroids[i] = CentroidAnnotation.from_voxel(i, c, (1, 1, 1))
        z += 2 * r + gap
    hu = np.where(lab > 0, 250, -80).astype(np.int16)
    return sk.LabeledVolume(dims=dims, spacing=(1, 1, 1), hu=hu, labels=lab,
                            centroids=centroids)


def test_mini_spine_three_vertebrae_two_pairs(tmp_path):
    vol = _mini_spine_volume()
    desc = sk.write_volume(vol, tmp_path / "in")
    cfg = PipelineConfig(input_path=desc, out_dir=tmp_path / "out")
    report = run_pipeline(cfg)
    emit_outputs(report, cfg)
    assert [rec["label"] for rec in report.vertebrae] == [1, 2, 3]
    assert [(p["label_lo"], p["label_hi"]) for p in report.pairs] == [(1, 2), (2, 3)]
    volumes = [rec["volume_mm3"] for rec in report.vertebrae]
    assert volumes == sorted(volumes)          # radius growth shows in volume
    for pair in report.pairs:
        assert pair["volume_mm3"] > 0
        assert pair["hu_mean"] == -80.0        # gap voxels only
        assert pair["centroid_dist_mm"] > 0
    # coverage invariant: every present label appears exactly once
    assert {rec["label"] for rec in report.vertebrae} == set(vol.present_labels())


def test_orphan_centroid_pipeline_warning(tmp_path, sphere_volume):
    desc_dir = tmp_path / "in"
    desc = sk.write_volume(sphere_volume, desc_dir)
    entries = json.loads((desc_dir / "volume_centroids.json").read_text())
    entries.append({"label": 9, "voxel": [2.0, 2.0, 2.0]})
    (desc_dir / "volume_centroids.json").write_text(json.dumps(entries))
    cfg = PipelineConfig(input_path=desc, out_dir=tmp_path / "out")
    report = run_pipeline(cfg)
    assert any(w["kind"] == "orphan_centroid" and w["label"] == 9
               for w in report.warnings)


def test_cli_phantom_and_run(tmp_path):
    spec = {"kind": "sphere", "radius_mm": 3.0, "spacing_mm": [1, 1, 1],
            "hu_inside": 100, "hu_outside": 0, "label": 1}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["phantom", "--spec", str(spec_path),
                 "--out", str(tmp_path / "vol")]) == 0
    assert main(["run", "--input", str(tmp_path / "vol" / "volume.json"),
                 "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "report.json").exists()


def test_cli_numeric_alpha_at_auto_answer_writes_auto_outputs(tmp_path):
    # the alpha that `--alpha auto` reports, given back as a number, builds
    # the same surfaces and so writes the same PLY and CSV bytes
    volume, _ = sk.make_compound_vertebra(14.0, 2.5, 4.0, (1.0, 1.0, 1.0), 1)
    desc = str(sk.write_volume(volume, tmp_path / "in"))
    assert main(["run", "--input", desc, "--out", str(tmp_path / "auto"),
                 "--alpha", "auto"]) == 0
    report = json.loads((tmp_path / "auto" / "report.json").read_text())
    [record] = report["vertebrae"]
    assert main(["run", "--input", desc, "--out", str(tmp_path / "numeric"),
                 "--alpha", repr(record["alpha_used"])]) == 0
    names = sorted(p.name for p in (tmp_path / "auto").iterdir()
                   if p.suffix in (".ply", ".csv"))
    assert names == sorted(p.name for p in (tmp_path / "numeric").iterdir()
                           if p.suffix in (".ply", ".csv"))
    assert "vertebra_01_regions.ply" in names
    for name in names:
        assert ((tmp_path / "auto" / name).read_bytes()
                == (tmp_path / "numeric" / name).read_bytes()), name


def test_cli_phantom_malformed_spec_exits_2(tmp_path, capsys):
    for i, bad in enumerate(({"spacing_mm": [float("nan"), 1, 1]},
                             {"radius_mm": float("nan")}, {"radius_mm": "5"})):
        spec = {"kind": "sphere", "radius_mm": 3.0, "spacing_mm": [1, 1, 1], **bad}
        spec_path = tmp_path / f"spec{i}.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["phantom", "--spec", str(spec_path),
                     "--out", str(tmp_path / "vol")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "vol").exists()


def test_cli_error_paths(tmp_path):
    assert main(["run", "--input", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "out")]) == 2
    assert main(["run", "--input", "x", "--out", "y", "--alpha", "wide"]) == 2
    assert main(["phantom", "--spec", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "out")]) == 2


def test_cli_rejects_repeated_criterion(tmp_path, capsys, sphere_volume):
    # a repeated criterion would write its texture twice and change the
    # config hash for the same work
    desc = sk.write_volume(sphere_volume, tmp_path / "in")
    assert main(["run", "--input", str(desc), "--out", str(tmp_path / "out"),
                 "--criteria", "internal,internal"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: criteria must not repeat")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("option, value", [
    ("--alpha", "nan"), ("--alpha", "inf"), ("--bandwidth", "nan"),
    ("--bandwidth", "0"), ("--bandwidth", "-1")])
def test_cli_rejects_non_finite_or_non_positive_config(tmp_path, capsys,
                                                       sphere_volume, option,
                                                       value):
    desc = sk.write_volume(sphere_volume, tmp_path / "in")
    assert main(["run", "--input", str(desc), "--out", str(tmp_path / "out"),
                 option, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option[2:]} must be finite and positive")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_config_rejects_non_finite_alpha_and_bandwidth(tmp_path):
    for bad in (float("nan"), float("inf"), -float("inf"), 0.0, -2.0):
        with pytest.raises(sk.SpineKitError, match="alpha"):
            PipelineConfig(input_path=tmp_path, out_dir=tmp_path, alpha=bad)
        with pytest.raises(sk.SpineKitError, match="bandwidth"):
            PipelineConfig(input_path=tmp_path, out_dir=tmp_path, bandwidth=bad)
    PipelineConfig(input_path=tmp_path, out_dir=tmp_path, alpha=1.5, bandwidth=0.7)


def test_config_rejects_degenerate_pairs(tmp_path):
    for bad in ([(2, 2)], [(1, 2), (0, 1)], [(3, -1)], [[4, 4]]):
        with pytest.raises(sk.SpineKitError, match="pairs"):
            PipelineConfig(input_path=tmp_path, out_dir=tmp_path, pairs=bad)
    # a repeated pair would be computed and written twice, and 2-1 after 1-2
    # would write both interspace_01_02.ply and interspace_02_01.ply
    for bad in ([(1, 2), (1, 2)], [(1, 2), (3, 4), (2, 1)], [[1, 2], (np.int64(1), 2)]):
        with pytest.raises(sk.SpineKitError, match="pairs must not repeat"):
            PipelineConfig(input_path=tmp_path, out_dir=tmp_path, pairs=bad)
    PipelineConfig(input_path=tmp_path, out_dir=tmp_path, pairs=[(1, 2), (3, 1)])


def test_numpy_config_values_give_the_python_config(tmp_path):
    def config(**fields):
        return PipelineConfig(input_path=tmp_path, out_dir=tmp_path, **fields)

    python = config(alpha=1.5, bandwidth=2.0, pairs=[(1, 2), (3, 4)])
    numpy = config(alpha=np.float64(1.5), bandwidth=np.float32(2.0),
                   pairs=[(np.int64(1), np.int32(2)), (np.uint8(3), np.uint8(4))])
    assert numpy.semantic() == python.semantic()
    assert type(numpy.bandwidth) is float
    assert all(type(x) is int for pair in numpy.pairs for x in pair)
    # the config hash as run_pipeline takes it
    python_hash, numpy_hash = (
        hashlib.sha256(json.dumps(c.semantic(), sort_keys=True).encode()).hexdigest()
        for c in (python, numpy))
    assert numpy_hash == python_hash


@pytest.mark.parametrize("pairs", ["2-2", "0-1", "1-2,1-1", "1-2,1-2", "1-2,2-1"])
def test_cli_rejects_degenerate_pairs(tmp_path, capsys, disc_pair, pairs):
    # a pair of one label would report that vertebra's own body as its
    # interspace; a repeated pair would be reported twice
    desc = sk.write_volume(disc_pair[0], tmp_path / "in")
    assert main(["run", "--input", str(desc), "--out", str(tmp_path / "out"),
                 "--pairs", pairs]) == 2
    err = capsys.readouterr().err
    reason = ("pairs must not repeat in either order" if pairs in ("1-2,1-2", "1-2,2-1")
              else "pairs must join two different labels")
    assert err.startswith("error: " + reason)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, value", [
    ("alpha", "abc"), ("alpha", [1.0]), ("bandwidth", "x"), ("bandwidth", "0.7"),
    ("bandwidth", object()),
    ("pairs", [(1,)]), ("pairs", [(1, 2, 3)]), ("pairs", [(1.5, 2)]),
    ("pairs", [("1", "2")]), ("pairs", [5]), ("pairs", 5), ("criteria", 5),
    ("criteria", "internal"),
    # a bool is an Integral and a Real, but True is not label 1 or 1 mm
    ("pairs", [(True, 2)]), ("pairs", [(1, False)]), ("pairs", [(np.bool_(True), 2)]),
    ("alpha", True), ("bandwidth", True)])
def test_config_rejects_malformed_values(tmp_path, field, value):
    with pytest.raises(sk.SpineKitError, match=field):
        PipelineConfig(input_path=tmp_path, out_dir=tmp_path, **{field: value})


def test_config_rejects_repeated_criterion(tmp_path):
    for bad in (("internal", "internal"), ("external", "euclidean", "external")):
        with pytest.raises(sk.SpineKitError, match="criteria must not repeat"):
            PipelineConfig(input_path=tmp_path, out_dir=tmp_path, criteria=bad)
    PipelineConfig(input_path=tmp_path, out_dir=tmp_path,
                   criteria=("external", "internal"))


def _env_importing_this_spinekit() -> dict:
    """Environment whose PYTHONPATH leads a child to the spinekit under test."""
    paths = [str(Path(sk.__file__).resolve().parents[1]),
             os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def test_cli_module_invocation(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"kind": "sphere", "radius_mm": 2.0,
                                     "spacing_mm": [1, 1, 1]}))
    proc = subprocess.run(
        [sys.executable, "-m", "spinekit", "phantom",
         "--spec", str(spec_path), "--out", str(tmp_path / "v")],
        capture_output=True, text=True, env=_env_importing_this_spinekit())
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert (tmp_path / "v" / "volume.json").exists()


def test_cli_report_cli_module_points_at_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "spinekit.report_cli", "run",
         "--input", str(tmp_path / "volume.json"), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=_env_importing_this_spinekit())
    assert proc.returncode != 0
    assert "python -m spinekit`" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_all_criteria_constant():
    assert CRITERIA == ("internal", "euclidean", "external")


def test_pipeline_leaves_scipy_optimize_unimported(tmp_path):
    # density roots are refined by bisection, so no run needs a solver
    spine = Path(__file__).resolve().parents[1] / "perfbench" / "spine.py"
    script = (
        "import importlib.util, sys\n"
        "from spinekit.report_cli import PipelineConfig, run_pipeline\n"
        f"spec = importlib.util.spec_from_file_location('spine', {str(spine)!r})\n"
        "spine = importlib.util.module_from_spec(spec)\n"
        "sys.modules['spine'] = spine\n"
        "spec.loader.exec_module(spine)\n"
        f"desc, _ = spine.write_spine(spine.WORKLOADS['stack_auto'], 1, {str(tmp_path)!r})\n"
        f"report = run_pipeline(PipelineConfig(input_path=desc, out_dir={str(tmp_path)!r}))\n"
        "print(sorted(r['label'] for r in report.vertebrae if r['t1_mm']),\n"
        "      len(report.pairs), 'scipy.optimize' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_env_importing_this_spinekit())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[1,", "2,", "3]", "2", "False"]
