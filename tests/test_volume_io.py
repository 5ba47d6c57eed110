"""volume descriptor IO, label extraction and their invariants."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import spinekit as sk
from spinekit import report_cli, volume_io
from spinekit.errors import DescriptorError, EmptySelectionError
from spinekit.report_cli import PipelineConfig, run_pipeline
from spinekit.volume_io import HU_DTYPE, LABEL_DTYPE, CentroidAnnotation

from conftest import extent_mm, label_points_reference


def _blank_volume(dims=(2, 2, 2), spacing=(1.0, 1.0, 1.0)):
    return sk.LabeledVolume(dims=dims, spacing=spacing,
                            hu=np.zeros(dims, dtype=np.int16),
                            labels=np.zeros(dims, dtype=np.uint16))


def test_degenerate_background_volume_round_trip(tmp_path):
    vol = _blank_volume()
    desc = sk.write_volume(vol, tmp_path)
    loaded = sk.load_volume(desc)
    assert loaded.dims == (2, 2, 2)
    assert loaded.hu.size == 8
    assert loaded.centroids == {}
    assert loaded.present_labels() == []


def test_size_mismatch_error(tmp_path):
    np.zeros(999, dtype=HU_DTYPE).tofile(tmp_path / "hu.raw")
    np.zeros(999, dtype=LABEL_DTYPE).tofile(tmp_path / "lab.raw")
    desc = {"dims": [10, 10, 10], "spacing_mm": [1, 1, 1],
            "hu_file": "hu.raw", "label_file": "lab.raw"}
    path = tmp_path / "volume.json"
    path.write_text(json.dumps(desc))
    with pytest.raises(DescriptorError, match="999"):
        sk.load_volume(path)
    # 2**40 * 2**40 voxels wrap to 0 in int64, which an empty file would match
    for name in ("hu.raw", "lab.raw"):
        (tmp_path / name).write_bytes(b"")
    path = _raw_descriptor(tmp_path, (2 ** 40, 2 ** 40, 1))
    with pytest.raises(DescriptorError, match="declares 1208925819614629174706176"):
        sk.load_volume(path)


def _raw_descriptor(tmp_path, dims, spacing=(1, 1, 1)):
    path = tmp_path / "volume.json"
    path.write_text(json.dumps({"dims": list(dims), "spacing_mm": list(spacing),
                                "hu_file": "hu.raw", "label_file": "lab.raw"}))
    return path


def test_trailing_odd_byte_error(tmp_path):
    # 13 bytes are 6 int16 voxels and one stray byte, not a 6-voxel volume
    (tmp_path / "hu.raw").write_bytes(bytes(13))
    np.zeros(6, dtype=LABEL_DTYPE).tofile(tmp_path / "lab.raw")
    with pytest.raises(DescriptorError, match="13 bytes"):
        sk.load_volume(_raw_descriptor(tmp_path, (6, 1, 1)))


def test_grid_checked_before_raw_files(tmp_path):
    for name in ("hu.raw", "lab.raw"):
        (tmp_path / name).write_bytes(b"")
    with pytest.raises(DescriptorError, match="dims must be positive"):
        sk.load_volume(_raw_descriptor(tmp_path, (0, 4, 4)))
    with pytest.raises(DescriptorError, match="spacing must be positive"):
        sk.load_volume(_raw_descriptor(tmp_path, (1, 1, 1), spacing=(1, 0, 1)))
    # json reads NaN and Infinity; a fractional, string or boolean dim is not
    # an integer, and the raw files' size check must not be what catches them
    nan, inf = float("nan"), float("inf")
    for dims in ((11.9, 11, 11), ("11", 11, 11), (True, 1, 1), (11, 11), (1e400, 1, 1)):
        with pytest.raises(DescriptorError, match="dims must be positive"):
            sk.load_volume(_raw_descriptor(tmp_path, dims))
    for spacing in ((nan, 1, 1), (1, inf, 1), (1, 1, -inf), ("1", 1, 1),
                    (True, 1, 1), (1, 1)):
        with pytest.raises(DescriptorError, match="spacing must be positive"):
            sk.load_volume(_raw_descriptor(tmp_path, (1, 1, 1), spacing=spacing))
    path = _raw_descriptor(tmp_path, (1, 1, 1), spacing=(nan, 1, 1))
    assert report_cli.main(["run", "--input", str(path),
                            "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_missing_raw_file_error(tmp_path):
    np.zeros(8, dtype=HU_DTYPE).tofile(tmp_path / "hu.raw")
    with pytest.raises(DescriptorError, match="lab.raw"):
        sk.load_volume(_raw_descriptor(tmp_path, (2, 2, 2)))


def test_raw_path_is_directory_error(tmp_path):
    (tmp_path / "hu.raw").mkdir()
    np.zeros(8, dtype=LABEL_DTYPE).tofile(tmp_path / "lab.raw")
    with pytest.raises(DescriptorError, match="hu.raw"):
        sk.load_volume(_raw_descriptor(tmp_path, (2, 2, 2)))


def test_descriptor_parse_failure(tmp_path):
    path = tmp_path / "volume.json"
    path.write_text("{not json")
    with pytest.raises(DescriptorError):
        sk.load_volume(path)


def test_sphere_round_trip_byte_identical(tmp_path, sphere_volume):
    desc1 = sk.write_volume(sphere_volume, tmp_path / "a")
    loaded = sk.load_volume(desc1)
    assert np.array_equal(loaded.hu, sphere_volume.hu)
    assert np.array_equal(loaded.labels, sphere_volume.labels)
    assert loaded.centroids.keys() == sphere_volume.centroids.keys()

    sk.write_volume(loaded, tmp_path / "b")
    for name in ("volume_hu.raw", "volume_labels.raw"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_extract_single_voxel_centroid():
    vol = _blank_volume(dims=(1, 1, 1), spacing=(2.0, 2.0, 2.0))
    vol.labels[0, 0, 0] = 7
    cloud = sk.extract_label_points(vol, 7)
    assert cloud.points.shape == (1, 3)
    np.testing.assert_allclose(cloud.points[0], [1.0, 1.0, 1.0])


def test_extract_sphere_count_matches_brute_force(sphere_volume, sphere_points):
    # independent membership count: centroid within 10 mm of the volume center
    spacing = np.asarray(sphere_volume.spacing)
    axes = [(np.arange(n) + 0.5) * s for n, s in zip(sphere_volume.dims, spacing)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    center = sphere_volume.centroids[1].mm
    inside = ((gx - center[0]) ** 2 + (gy - center[1]) ** 2
              + (gz - center[2]) ** 2) <= 10.0 ** 2
    n = int(inside.sum())
    assert len(sphere_points) == n
    analytic = 4.0 / 3.0 * np.pi * 10.0 ** 3
    assert abs(n * 1.0 - analytic) / analytic <= 0.05


def test_extract_missing_label_error(sphere_volume):
    with pytest.raises(EmptySelectionError):
        sk.extract_label_points(sphere_volume, 99)
    with pytest.raises(EmptySelectionError):
        sk.extract_label_points(sphere_volume, 0)


def test_extract_order_is_x_fastest():
    vol = _blank_volume(dims=(3, 3, 3))
    vol.labels[:] = 4
    cloud = sk.extract_label_points(vol, 4)
    # x coordinate must cycle fastest
    np.testing.assert_allclose(cloud.points[:3, 0], [0.5, 1.5, 2.5])
    np.testing.assert_allclose(cloud.points[:3, 1], [0.5, 0.5, 0.5])


def test_partition_property(disc_pair):
    volume, _ = disc_pair
    total = int(np.prod(volume.dims))
    background = int((volume.labels == 0).sum())
    labeled = sum(len(sk.extract_label_points(volume, lab))
                  for lab in volume.present_labels())
    assert labeled + background == total


def test_monotone_coordinates(sphere_volume, sphere_points):
    extent = extent_mm(sphere_volume)
    assert np.all(sphere_points.points > 0.0)
    assert np.all(sphere_points.points < extent)


def test_orphan_centroid_recorded(tmp_path):
    vol = _blank_volume(dims=(4, 4, 4))
    vol.labels[1, 1, 1] = 2
    desc_dir = tmp_path / "v"
    desc = sk.write_volume(vol, desc_dir)
    centroids = [{"label": 2, "voxel": [1.5, 1.5, 1.5]},
                 {"label": 9, "voxel": [2.0, 2.0, 2.0]}]
    (desc_dir / "volume_centroids.json").write_text(json.dumps(centroids))
    loaded = sk.load_volume(desc)
    assert loaded.orphan_centroids == [9]


def test_orphan_centroid_in_memory_volume():
    labels = np.zeros((4, 4, 4), dtype=np.uint16)
    labels[1, 1, 1] = 2
    vol = sk.LabeledVolume(
        dims=labels.shape, spacing=(1.0, 1.0, 1.0),
        hu=np.zeros(labels.shape, dtype=np.int16), labels=labels,
        centroids={lab: CentroidAnnotation.from_voxel(lab, (1.5, 1.5, 1.5), (1, 1, 1))
                   for lab in (2, 9)})
    assert vol.orphan_centroids == [9]


def test_missing_centroid_reported(tmp_path, sphere_volume):
    vol = sk.LabeledVolume(dims=sphere_volume.dims, spacing=sphere_volume.spacing,
                           hu=sphere_volume.hu, labels=sphere_volume.labels)
    cfg = PipelineConfig(input_path=sk.write_volume(vol, tmp_path / "in"),
                         out_dir=tmp_path / "out")
    report = run_pipeline(cfg)
    (rec,) = report.vertebrae
    assert rec["label"] == 1 and "missing_centroid" in rec["flags"]
    assert rec["region_counts"] is None and rec["roi"] is None
    assert [w["label"] for w in report.warnings
            if w["kind"] == "missing_centroid"] == [1]


def test_centroid_annotation_validation(tmp_path):
    vol = _blank_volume(dims=(4, 4, 4))
    vol.labels[1, 1, 1] = 2
    desc_dir = tmp_path / "v"
    desc = sk.write_volume(vol, desc_dir)
    for bad in ([{"label": 2, "voxel": [9.0, 1.0, 1.0]}],   # outside the volume
                [{"label": 40, "voxel": [1.0, 1.0, 1.0]}],  # outside 1..28
                [{"voxel": [1.0, 1.0, 1.0]}],               # malformed entry
                [{"label": 2, "voxel": [1.0, 1.0]}],        # 2 coordinates
                [{"label": 2, "voxel": [1.0, float("nan"), 1.0]}],
                [{"label": 2, "voxel": [1.0, 1.0, float("inf")]}],
                [{"label": 2, "voxel": "abc"}],
                [{"label": 2, "voxel": [1.5, 1.5, 1.5]},    # duplicate label
                 {"label": 2, "voxel": [2.5, 2.5, 2.5]}]):
        (desc_dir / "volume_centroids.json").write_text(json.dumps(bad))
        with pytest.raises(DescriptorError):
            sk.load_volume(desc)


def test_one_label_scan_per_volume(tmp_path, monkeypatch):
    vol = _blank_volume(dims=(5, 4, 3))
    vol.labels[1, 1, 1] = 2
    vol.labels[3, 2, :] = 7
    vol.labels[0, 3, 2] = 2
    desc = sk.write_volume(vol, tmp_path / "v")
    (tmp_path / "v" / "volume_centroids.json").write_text(json.dumps(
        [{"label": 2, "voxel": [1.5, 1.5, 1.5]}, {"label": 5, "voxel": [2.5, 2.5, 2.5]}]))
    sizes = {"unique": [], "flatnonzero": []}
    scanned = []
    for name in sizes:
        original = getattr(np, name)
        monkeypatch.setattr(np, name, lambda a, *args, _f=original, _n=name, **kw:
                            sizes[_n].append(np.size(a)) or scanned.append(a)
                            or _f(a, *args, **kw))
    reads = []   # (file name, first voxel, voxel count) of each label-file read
    fromfile = np.fromfile
    monkeypatch.setattr(np, "fromfile", lambda fh, *args, **kw: reads.append(
        (Path(fh.name).name, fh.tell() // LABEL_DTYPE.itemsize, kw["count"]))
        or fromfile(fh, *args, **kw))
    loaded = sk.load_volume(desc)
    assert loaded.present_labels() == [2, 7]
    loaded.present_labels().append(9)   # callers get a copy
    assert loaded.present_labels() == [2, 7]
    assert [len(sk.extract_label_points(loaded, lab)) for lab in (2, 7)] == [2, 3]
    assert loaded.orphan_centroids == [5]
    full = loaded.labels.size
    assert sizes["flatnonzero"].count(full) == 1
    assert full not in sizes["unique"]
    # the streamed reads tile the label file exactly once, in order
    assert {name for name, _, _ in reads} == {"volume_labels.raw"}
    starts = [start for _, start, _ in reads]
    ends = [start + count for _, start, count in reads]
    assert starts == [0] + ends[:-1] and ends[-1] == full
    # and no scan touched the mapped label field
    assert not any(np.shares_memory(a, loaded.labels) for a in scanned
                   if isinstance(a, np.ndarray))


def test_voxel_box_covers_centroids_in_box():
    dims = (6, 5, 4)
    vol = sk.LabeledVolume(dims=dims, spacing=(0.8, 0.8, 1.25),
                           hu=np.zeros(dims, dtype=np.int16),
                           labels=np.zeros(dims, dtype=np.uint16))
    ijk = np.stack(np.meshgrid(*[np.arange(d) for d in dims], indexing="ij"),
                   axis=-1).reshape(-1, 3)
    centers = vol.voxel_centroids_mm(ijk)
    rng = np.random.default_rng(8)
    for _ in range(200):
        a, b = rng.uniform(-2.0, 8.0, (2, 3))
        lo_mm, hi_mm = np.minimum(a, b), np.maximum(a, b)
        lo, hi = vol.voxel_box(lo_mm, hi_mm)
        assert np.all(lo >= 0) and np.all(hi <= np.asarray(dims))
        inside = np.all((centers >= lo_mm) & (centers <= hi_mm), axis=1)
        assert np.all((ijk[inside] >= lo) & (ijk[inside] < hi))


_LABEL_VALUES = (0, 1, 2, 28, 65535)


@st.composite
def _label_fields(draw):
    dims = tuple(draw(st.integers(1, 7)) for _ in range(3))
    n = int(np.prod(dims))
    kind = draw(st.sampled_from(("mixed", "zero", "single")))
    if kind == "mixed":
        values = draw(st.lists(st.sampled_from(_LABEL_VALUES), min_size=n, max_size=n))
    else:
        values = [0 if kind == "zero" else draw(st.sampled_from(_LABEL_VALUES[1:]))] * n
    labels = np.asarray(values, dtype=np.uint16).reshape(dims)
    return labels if draw(st.booleans()) else np.asfortranarray(labels)


@settings(max_examples=200, deadline=None)
@given(labels=_label_fields())
def test_label_index_matches_scan(labels):
    vol = sk.LabeledVolume(dims=labels.shape, spacing=(0.8, 0.8, 1.25),
                           hu=np.zeros(labels.shape, dtype=np.int16), labels=labels)
    present = sorted(set(labels.ravel().tolist()) - {0})
    assert vol.present_labels() == present
    for lab in present:
        assert np.array_equal(sk.extract_label_points(vol, lab).points,
                              label_points_reference(vol, lab))
    for lab in [0] + sorted(set(_LABEL_VALUES[1:]) - set(present)):
        with pytest.raises(EmptySelectionError):
            sk.extract_label_points(vol, lab)


def test_label_index_matches_scan_on_phantoms(disc_pair, compound):
    for vol in (disc_pair[0], compound[0]):
        for lab in vol.present_labels():
            assert np.array_equal(sk.extract_label_points(vol, lab).points,
                                  label_points_reference(vol, lab))


def _same_index(a, b) -> bool:
    return (list(a.label_voxels) == list(b.label_voxels)
            and all(np.array_equal(a.label_voxels[lab], b.label_voxels[lab])
                    for lab in a.label_voxels))


@pytest.mark.parametrize("chunk_bytes", [1, 1 << 40], ids=["one_plane", "whole"])
@settings(max_examples=100, deadline=None)
@given(labels=_label_fields())
def test_streamed_index_matches_in_memory(chunk_bytes, labels):
    vol = sk.LabeledVolume(dims=labels.shape, spacing=(0.8, 0.8, 1.25),
                           hu=np.zeros(labels.shape, dtype=np.int16), labels=labels)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(volume_io, "_INDEX_CHUNK_BYTES", chunk_bytes)
        loaded = sk.load_volume(sk.write_volume(vol, tmp))
        assert _same_index(loaded, vol)


@settings(max_examples=100, deadline=None)
@given(labels=_label_fields())
@example(labels=np.full((3, 1, 2), 65535, dtype=np.uint16))
@example(labels=np.zeros((2, 3, 1), dtype=np.uint16))
def test_label_at_matches_dense_labels(labels):
    vol = sk.LabeledVolume(dims=labels.shape, spacing=(1.0, 1.0, 1.0),
                           hu=np.zeros(labels.shape, dtype=np.int16), labels=labels)
    with tempfile.TemporaryDirectory() as tmp:
        loaded = sk.load_volume(sk.write_volume(vol, tmp))
        for v in (vol, loaded):
            assert np.array_equal(v.label_at(*np.indices(labels.shape)), labels)


class _Unreadable:
    """Stands in for a label field that no stage may read."""

    def __getattr__(self, name):
        raise AssertionError(f"labels.{name} was read")

    def __getitem__(self, key):
        raise AssertionError("labels were indexed")

    def __array__(self, *args, **kwargs):
        raise AssertionError("labels were converted to an array")

    def __iter__(self):
        raise AssertionError("labels were iterated")

    def __len__(self):
        raise AssertionError("labels were measured")


def test_pipeline_never_reads_loaded_labels(tmp_path, monkeypatch, disc_pair):
    cfg = PipelineConfig(input_path=sk.write_volume(disc_pair[0], tmp_path / "in"),
                         out_dir=tmp_path / "out")
    normal = run_pipeline(cfg).to_json_dict()

    def guarded_load(path):
        volume = sk.load_volume(path)
        volume.labels = _Unreadable()
        return volume

    monkeypatch.setattr(report_cli, "load_volume", guarded_load)
    guarded = run_pipeline(cfg).to_json_dict()
    assert guarded == normal
    assert normal["pairs"] and len(normal["vertebrae"]) == 2


def test_loaded_arrays_are_read_only(tmp_path, sphere_volume):
    loaded = sk.load_volume(sk.write_volume(sphere_volume, tmp_path))
    with pytest.raises(ValueError):
        loaded.hu[0, 0, 0] = 1
    with pytest.raises(ValueError):
        loaded.labels[0, 0, 0] = 1
