"""Phantom generators against their closed-form geometry."""

import itertools

import numpy as np
import pytest

import spinekit as sk
from spinekit.errors import PhantomSpecError
from spinekit.phantom import phantom_from_spec

from conftest import boundary_voxel_centroids, voxel_volume


def test_sphere_19_voxel_ball():
    # enumerate the 3x3x3 neighborhood: offsets with ||.||2 <= 1.5
    expected = sum(1 for off in itertools.product((-1, 0, 1), repeat=3)
                   if np.linalg.norm(off) <= 1.5)
    assert expected == 19
    vol = sk.make_sphere_phantom(1.5, (1, 1, 1), 100, 0, 1)
    assert int((vol.labels == 1).sum()) == 19


def test_sphere_single_voxel():
    vol = sk.make_sphere_phantom(0.5, (1, 1, 1), 100, 0, 1)
    assert int((vol.labels == 1).sum()) == 1


def test_sphere_count_within_5pct(sphere_volume):
    n = int((sphere_volume.labels == 1).sum())
    analytic = 4.0 / 3.0 * np.pi * 1000.0
    assert abs(n - analytic) / analytic <= 0.05


def test_sphere_centroid_annotation_at_center(sphere_volume):
    center = np.asarray(sphere_volume.dims) * np.asarray(sphere_volume.spacing) / 2
    np.testing.assert_allclose(sphere_volume.centroids[1].mm, center)


def test_phantom_hu_fields_two_valued(sphere_volume, disc_pair):
    assert set(np.unique(sphere_volume.hu)) == {0, 100}
    volume, _ = disc_pair
    assert set(np.unique(volume.hu)) == {-50, 100}


def test_sphere_invalid_params():
    with pytest.raises(PhantomSpecError):
        sk.make_sphere_phantom(0.0, (1, 1, 1), 100, 0, 1)
    with pytest.raises(PhantomSpecError):
        sk.make_sphere_phantom(5.0, (1, -1, 1), 100, 0, 1)
    with pytest.raises(PhantomSpecError):
        sk.make_sphere_phantom(5.0, (1, 1, 1), 100, 0, 0)
    nan = float("nan")
    for args in ((nan, (1, 1, 1), 100, 0, 1), ("5", (1, 1, 1), 100, 0, 1),
                 (np.inf, (1, 1, 1), 100, 0, 1), (5.0, (nan, 1, 1), 100, 0, 1),
                 (5.0, ("1", 1, 1), 100, 0, 1), (5.0, (1, 1), 100, 0, 1),
                 (5.0, 1.0, 100, 0, 1), (5.0, (1, 1, 1), nan, 0, 1),
                 (5.0, (1, 1, 1), 100, 40000, 1), (5.0, (1, 1, 1), 100, 0, 1.5),
                 (5.0, (1, 1, 1), 100, 0, 29),
                 (5.0, (1, 1, 1), 100, 0, True)):
        with pytest.raises(PhantomSpecError):
            sk.make_sphere_phantom(*args)


def test_compound_trimodal_histogram(compound):
    """Brute-force surface-vertex distances form three disjoint bands with
    modes near 15 / 25 / 40 mm."""
    volume, truth = compound
    verts = boundary_voxel_centroids(volume, 1)
    d = np.linalg.norm(verts - truth.center_mm, axis=1)

    bands = [truth.body_band, truth.arch_band, truth.process_band]
    in_band = [(d >= lo) & (d <= hi) for lo, hi in bands]
    counts = [int(m.sum()) for m in in_band]
    assert all(c > 0 for c in counts)
    assert sum(counts) == len(d)          # bands cover everything -> disjoint modes
    assert bands[0][1] < bands[1][0] and bands[1][1] < bands[2][0]

    # histogram peak per band (windows follow the generating geometry:
    # ball edge ~15, torus ring ~25, tip-ball mass inside 36..41)
    hist, edges = np.histogram(d, bins=np.arange(0.0, 45.0, 0.5))
    centers = (edges[:-1] + edges[1:]) / 2
    for (lo, hi), window in zip(bands, [(13.0, 16.0), (23.0, 28.0), (36.0, 41.0)]):
        sel = (centers >= lo) & (centers <= hi)
        peak = centers[sel][np.argmax(hist[sel])]
        assert window[0] <= peak <= window[1], (peak, window)


def test_compound_process_len_zero_rejected():
    with pytest.raises(PhantomSpecError):
        sk.make_compound_vertebra(15.0, 2.5, 0.0, (1, 1, 1), 1)


def test_compound_overlapping_bands_rejected():
    with pytest.raises(PhantomSpecError, match="overlap"):
        sk.make_compound_vertebra(15.0, 2.5, 4.0, (1, 1, 1), 1, arch_distance=17.0)


def test_compound_unused_label_empty(compound):
    volume, _ = compound
    with pytest.raises(sk.EmptySelectionError):
        sk.extract_label_points(volume, 5)


def test_disc_gap_volume_against_voxel_count(disc_pair):
    volume, truth = disc_pair
    # voxel-count oracle over the geometric gap slab [lo, hi), independent of labels
    lo, hi = truth.gap_z_mm
    spacing = np.asarray(volume.spacing)
    axes = [(np.arange(n) + 0.5) * s for n, s in zip(volume.dims, spacing)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    ca = truth.centers_mm[0]
    in_slab = ((gz >= lo) & (gz < hi)
               & ((gx - ca[0]) ** 2 + (gy - ca[1]) ** 2 <= truth.disc_radius ** 2))
    voxel_est = float(in_slab.sum()) * voxel_volume(volume)
    assert truth.gap_volume == pytest.approx(np.pi * 225.0 * 4.0, rel=1e-12)
    assert voxel_est == pytest.approx(truth.gap_volume, rel=0.01)


def test_disc_facing_caps_on_centroid_planes(disc_pair):
    volume, truth = disc_pair
    lo, hi = truth.gap_z_mm
    # the gap faces must coincide with voxel-centroid planes
    for face in (lo, hi):
        frac = face / volume.spacing[2] - 0.5
        assert frac == pytest.approx(round(frac), abs=1e-9)
    # topmost layer of disc A sits exactly on the lower face
    za = boundary_voxel_centroids(volume, 1)[:, 2]
    assert za.max() == pytest.approx(lo, abs=1e-9)


def test_disc_invalid_params():
    with pytest.raises(PhantomSpecError):
        sk.make_disc_pair(15.0, 10.0, 0.0, (1, 1, 1), (1, 2))
    with pytest.raises(PhantomSpecError):
        sk.make_disc_pair(15.0, 10.0, 4.0, (1, 1, 1), (1, 1))
    with pytest.raises(PhantomSpecError):
        sk.make_disc_pair(15.0, 10.0, 0.8, (1, 1, 1), (1, 2))


def test_voxelized_volume_converges_with_spacing():
    def rel_errors(make, analytic):
        errs = []
        for s in (1.0, 0.5):
            volume = make(s)
            count = int((volume.labels > 0).sum())
            errs.append(abs(count * s ** 3 - analytic) / analytic)
        return errs

    sphere = rel_errors(
        lambda s: sk.make_sphere_phantom(10.0, (s, s, s), 100, 0, 1),
        4.0 / 3.0 * np.pi * 1000.0)
    assert sphere[1] < sphere[0]

    discs = rel_errors(
        lambda s: sk.make_disc_pair(15.0, 10.0, 4.0, (s, s, s), (1, 2))[0],
        2.0 * np.pi * 15.0 ** 2 * 10.0)
    assert discs[1] < discs[0]

    # compound: ball + half torus + two tip balls
    analytic = (4.0 / 3.0 * np.pi * 15.0 ** 3
                + np.pi ** 2 * 25.0 * 2.5 ** 2
                + 2.0 * 4.0 / 3.0 * np.pi * 2.0 ** 3)
    comp = rel_errors(
        lambda s: sk.make_compound_vertebra(15.0, 2.5, 4.0, (s, s, s), 1)[0],
        analytic)
    assert comp[1] < comp[0]


def test_phantom_from_spec_round_trip():
    vol = phantom_from_spec({"kind": "sphere", "radius_mm": 3.0,
                             "spacing_mm": [1, 1, 1], "hu_inside": 200,
                             "hu_outside": -100, "label": 4})
    assert 4 in vol.centroids
    assert set(np.unique(vol.hu)) == {-100, 200}

    vol = phantom_from_spec({"kind": "disc_pair", "disc_radius_mm": 6.0,
                             "thickness_mm": 4.0, "gap_mm": 2.0,
                             "spacing_mm": [1, 1, 1]})
    assert vol.present_labels() == [1, 2]

    vol = phantom_from_spec({"kind": "compound_vertebra", "body_radius_mm": 15.0,
                             "spacing_mm": [1, 1, 1]})
    assert vol.present_labels() == [1]

    with pytest.raises(PhantomSpecError):
        phantom_from_spec({"kind": "torus", "spacing_mm": [1, 1, 1]})


_SPECS = {
    "sphere": {"kind": "sphere", "radius_mm": 3.0, "spacing_mm": [1, 1, 1]},
    "compound_vertebra": {"kind": "compound_vertebra", "body_radius_mm": 15.0,
                          "spacing_mm": [1, 1, 1]},
    "disc_pair": {"kind": "disc_pair", "disc_radius_mm": 6.0, "thickness_mm": 4.0,
                  "gap_mm": 2.0, "spacing_mm": [1, 1, 1]},
}


@pytest.mark.parametrize("kind, key, value", [
    ("sphere", "spacing_mm", [float("nan"), 1, 1]),
    ("sphere", "spacing_mm", 1),
    ("sphere", "radius_mm", float("nan")),
    ("sphere", "radius_mm", "5"),
    ("sphere", "radius_mm", None),
    ("sphere", "label", 1.5),
    ("sphere", "label", 29),   # load_volume reads labels 1..28
    ("sphere", "hu_inside", float("nan")),
    ("sphere", "hu_outside", "0"),
    ("compound_vertebra", "body_radius_mm", float("inf")),
    ("compound_vertebra", "arch_tube_radius_mm", float("nan")),
    ("compound_vertebra", "process_length_mm", "4"),
    ("compound_vertebra", "arch_distance_mm", float("nan")),
    ("compound_vertebra", "process_distance_mm", float("nan")),
    ("disc_pair", "gap_mm", float("nan")),
    ("disc_pair", "thickness_mm", "4"),
    ("disc_pair", "labels", [1, 2.5]),
    ("disc_pair", "labels", 3),
    ("disc_pair", "labels", [1, 2, 3]),
])
def test_phantom_from_spec_rejects_malformed_numbers(kind, key, value):
    phantom_from_spec(_SPECS[kind])      # the unmodified spec builds
    with pytest.raises(PhantomSpecError):
        phantom_from_spec({**_SPECS[kind], key: value})


@pytest.mark.parametrize("kind, key", [("sphere", "radius_mm"), ("sphere", "kind"),
                                       ("compound_vertebra", "body_radius_mm"),
                                       ("disc_pair", "gap_mm")])
def test_phantom_from_spec_missing_key(kind, key):
    spec = dict(_SPECS[kind])
    del spec[key]
    with pytest.raises(PhantomSpecError, match=key):
        phantom_from_spec(spec)
    with pytest.raises(PhantomSpecError):
        phantom_from_spec([spec])
