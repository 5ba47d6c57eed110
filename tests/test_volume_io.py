"""volume descriptor IO, label extraction and their invariants."""

import json
import tempfile
import warnings
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


@pytest.mark.parametrize("key, value", [("centroid_file", "c.json"),   # holds 5
                                        ("hu_file", 5),
                                        ("centroid_file", ["x"])],
                         ids=["centroid_json_5", "hu_file_5", "centroid_file_list"])
def test_malformed_file_entries_error(tmp_path, key, value):
    np.zeros(8, dtype=HU_DTYPE).tofile(tmp_path / "hu.raw")
    np.zeros(8, dtype=LABEL_DTYPE).tofile(tmp_path / "lab.raw")
    (tmp_path / "c.json").write_text("5")
    path = _raw_descriptor(tmp_path, (2, 2, 2))
    path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
    with pytest.raises(DescriptorError):
        sk.load_volume(path)
    assert report_cli.main(["run", "--input", str(path),
                            "--out", str(tmp_path / "out")]) == 2


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


@pytest.mark.parametrize("chunk_bytes", [1, 1 << 40], ids=["one_plane", "whole"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_streamed_write_is_x_fastest(tmp_path, monkeypatch, chunk_bytes, order):
    dims = (5, 4, 3)
    flat = np.arange(60)
    vol = sk.LabeledVolume(dims=dims, spacing=(1.0, 1.0, 1.0),
                           hu=np.asarray(flat.reshape(dims, order="F") - 30,
                                         dtype=np.int16, order=order),
                           labels=np.asarray(flat.reshape(dims, order="F"),
                                             dtype=np.int32, order=order))
    monkeypatch.setattr(volume_io, "_CHUNK_BYTES", chunk_bytes)
    sk.write_volume(vol, tmp_path)
    assert (tmp_path / "volume_hu.raw").read_bytes() == (flat - 30).astype(HU_DTYPE).tobytes()
    assert (tmp_path / "volume_labels.raw").read_bytes() == flat.astype(LABEL_DTYPE).tobytes()


@pytest.mark.parametrize("field, value", [("hu", 40000), ("hu", -40000),
                                          ("hu", np.nan), ("hu", 0.5),
                                          ("labels", 70000), ("labels", -1)],
                         ids=["hu_high", "hu_low", "hu_nan", "hu_fraction",
                              "label_high", "label_negative"])
def test_write_refuses_values_that_do_not_fit(tmp_path, field, value):
    dims = (3, 2, 2)
    arrays = {"hu": np.zeros(dims, dtype=float if isinstance(value, float) else np.int32),
              "labels": np.zeros(dims, dtype=np.int32)}
    arrays[field][2, 1, 1] = value
    vol = sk.LabeledVolume(dims=dims, spacing=(1.0, 1.0, 1.0), **arrays)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DescriptorError, match="do not fit"):
            sk.write_volume(vol, tmp_path / "v")
    assert not (tmp_path / "v").exists()


def test_write_accepts_wide_types_that_fit(tmp_path):
    dims = (3, 2, 2)
    hu = np.full(dims, -32768.0)
    hu[0, 0, 0] = 32767.0
    labels = np.zeros(dims, dtype=np.int64)
    labels[2, 1, 1] = 28
    vol = sk.LabeledVolume(dims=dims, spacing=(1.0, 1.0, 1.0), hu=hu, labels=labels)
    loaded = sk.load_volume(sk.write_volume(vol, tmp_path))
    assert np.array_equal(loaded.hu, hu) and np.array_equal(loaded.labels, labels)
    assert loaded.present_labels() == [28]


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
        mp.setattr(volume_io, "_CHUNK_BYTES", chunk_bytes)
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
    """Stands in for a field that no stage may read."""

    def __init__(self, name):
        self.name = name

    def __getattr__(self, attr):
        raise AssertionError(f"{self.name}.{attr} was read")

    def __getitem__(self, key):
        raise AssertionError(f"{self.name} was indexed")

    def __array__(self, *args, **kwargs):
        raise AssertionError(f"{self.name} was converted to an array")

    def __iter__(self):
        raise AssertionError(f"{self.name} was iterated")

    def __len__(self):
        raise AssertionError(f"{self.name} was measured")


def _guarded_report(tmp_path, monkeypatch, volume, field):
    """Pipeline report on `volume` written and loaded, before and after the
    loaded volume's `field` is replaced by an _Unreadable."""
    cfg = PipelineConfig(input_path=sk.write_volume(volume, tmp_path / "in"),
                         out_dir=tmp_path / "out")
    normal = run_pipeline(cfg).to_json_dict()

    def guarded_load(path):
        loaded = sk.load_volume(path)
        setattr(loaded, field, _Unreadable(field))
        return loaded

    monkeypatch.setattr(report_cli, "load_volume", guarded_load)
    return normal, run_pipeline(cfg).to_json_dict()


def test_pipeline_never_reads_loaded_labels(tmp_path, monkeypatch, disc_pair):
    normal, guarded = _guarded_report(tmp_path, monkeypatch, disc_pair[0], "labels")
    assert guarded == normal
    assert normal["pairs"] and len(normal["vertebrae"]) == 2


def test_pipeline_never_reads_loaded_hu(tmp_path, monkeypatch, disc_pair):
    normal, guarded = _guarded_report(tmp_path, monkeypatch, disc_pair[0], "hu")
    assert guarded == normal
    assert normal["pairs"] and normal["pairs"][0]["voxel_count"]
    assert all(rec["roi"] and len(rec["region_hu"]) == 3 for rec in normal["vertebrae"])


def test_loaded_arrays_are_read_only(tmp_path, sphere_volume):
    loaded = sk.load_volume(sk.write_volume(sphere_volume, tmp_path))
    with pytest.raises(ValueError):
        loaded.hu[0, 0, 0] = 1
    with pytest.raises(ValueError):
        loaded.labels[0, 0, 0] = 1


@st.composite
def _hu_queries(draw):
    """An HU field and index arrays into it: scattered (unsorted, with
    repeats), on one z plane, on every voxel of every plane, broadcast, or
    empty."""
    dims = tuple(draw(st.integers(1, 6)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    hu = rng.integers(-32768, 32768, dims).astype(np.int16)
    kind = draw(st.sampled_from(("scatter", "one_plane", "every_plane",
                                 "broadcast", "empty")))
    if kind == "every_plane":
        ijk = tuple(a.ravel()[rng.permutation(hu.size)] for a in np.indices(dims))
    elif kind == "broadcast":
        ijk = (rng.integers(0, dims[0], (draw(st.integers(1, 4)), 1)),
               rng.integers(0, dims[1], (1, draw(st.integers(1, 4)))),
               rng.integers(0, dims[2]))
    else:
        n = 0 if kind == "empty" else draw(st.integers(1, 40))
        ijk = [rng.integers(0, d, n) for d in dims]
        if kind == "one_plane":
            ijk[2] = np.full(n, ijk[2][0])
        ijk = tuple(ijk)
    return hu, ijk


@settings(max_examples=150, deadline=None)
@given(query=_hu_queries())
def test_hu_at_matches_loaded_map(query):
    hu, ijk = query
    vol = sk.LabeledVolume(dims=hu.shape, spacing=(1.0, 1.0, 1.0), hu=hu,
                           labels=np.zeros(hu.shape, dtype=np.uint16))
    with tempfile.TemporaryDirectory() as tmp:
        loaded = sk.load_volume(sk.write_volume(vol, tmp))
        for v in (vol, loaded):
            got = v.hu_at(*ijk)
            assert got.shape == loaded.hu[ijk].shape
            assert np.array_equal(got, loaded.hu[ijk])


def test_every_hu_read_lies_in_one_plane(tmp_path, monkeypatch):
    volume, _ = sk.make_disc_pair(15.0, 10.0, 4.0, (0.8, 0.8, 1.25), (1, 2),
                                  hu_in=100, hu_out=-50)
    cfg = PipelineConfig(input_path=sk.write_volume(volume, tmp_path / "in"),
                         out_dir=tmp_path / "out")
    reads = []   # (first voxel, voxel count) of each HU-file read
    fromfile = np.fromfile
    monkeypatch.setattr(np, "fromfile", lambda fh, *args, **kw: (
        Path(fh.name).name == "volume_hu.raw"
        and reads.append((fh.tell() // HU_DTYPE.itemsize, kw["count"])))
        or fromfile(fh, *args, **kw))
    report = run_pipeline(cfg).to_json_dict()
    assert report["pairs"] and all(rec["roi"] for rec in report["vertebrae"])
    plane = volume.dims[0] * volume.dims[1]
    planes = [(first // plane, (first + count - 1) // plane) for first, count in reads]
    assert reads and all(lo == hi for lo, hi in planes)
    assert len({lo for lo, _ in planes}) > 1


def test_shrunk_hu_file_raises_descriptor_error(tmp_path, disc_pair):
    volume = disc_pair[0]
    desc = sk.write_volume(volume, tmp_path)
    loaded = sk.load_volume(desc)
    points = sk.extract_label_points(loaded, 1)
    mesh = sk.build_alpha_shape(points, alpha=points.voxel_diagonal)
    hu_file = tmp_path / "volume_hu.raw"
    last = tuple(d - 1 for d in volume.dims)
    assert loaded.hu_at(*last) == volume.hu[last]
    with open(hu_file, "r+b") as fh:
        fh.truncate(hu_file.stat().st_size - HU_DTYPE.itemsize)
    assert loaded.hu_at(0, 0, 0) == volume.hu[0, 0, 0]
    with pytest.raises(DescriptorError, match="shrank while it was read"):
        loaded.hu_at(*last)
    hu_file.write_bytes(b"")
    with pytest.raises(DescriptorError, match="shrank while it was read"):
        sk.map_grey(mesh, loaded, 1, "internal")


@pytest.mark.parametrize("stage", ["load_volume", "_derive_pairs"])
def test_pipeline_warns_when_hu_file_shrinks(tmp_path, monkeypatch, disc_pair, stage):
    desc = sk.write_volume(disc_pair[0], tmp_path)
    original = getattr(report_cli, stage)

    def then_shrink(*args):
        result = original(*args)
        (tmp_path / "volume_hu.raw").write_bytes(b"")
        return result

    monkeypatch.setattr(report_cli, stage, then_shrink)
    report = run_pipeline(PipelineConfig(input_path=desc, out_dir=tmp_path / "out"))
    # shrunk after the load, every vertebra fails; after the vertebrae, the pair
    kind, vertebrae = {"load_volume": ("vertebra_failed", 0),
                       "_derive_pairs": ("interspace_failed", 2)}[stage]
    failed = [w for w in report.warnings if w["kind"] == kind]
    assert failed and all("shrank while it was read" in w["message"] for w in failed)
    assert len(report.vertebrae) == vertebrae and not report.pairs
