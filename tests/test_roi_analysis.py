"""Inscribed-sphere ROI growth and HU statistics."""

import warnings

import numpy as np
import pytest

import spinekit as sk
from spinekit.errors import RoiTooSmallError


SQ3 = np.sqrt(3.0)


def test_sphere_radius_matches_oracle_scan(sphere_volume, sphere_mesh):
    center = sphere_volume.centroids[1]
    dmin = float(np.linalg.norm(sphere_mesh.vertices - center.mm, axis=1).min())
    assert dmin >= 9.0                       # boundary vertices sit near R - half voxel
    radius = sk.max_inscribed_radius(sphere_mesh, center, sphere_volume.voxel_diagonal)
    assert radius == np.floor(dmin / SQ3) * SQ3
    assert radius == pytest.approx(5 * SQ3)  # k = 5 for this phantom


def test_exact_multiple_steps_back():
    mesh = sk.TriangleMesh(vertices=np.array([[2.0, 0.0, 0.0]]),
                           triangles=np.zeros((0, 3), dtype=int))
    # clearance exactly 2 steps: growth must stop at one step
    radius = sk.max_inscribed_radius(mesh, np.zeros(3), 1.0)
    assert radius == 1.0


def test_centroid_on_surface_error(sphere_mesh):
    with pytest.raises(RoiTooSmallError):
        sk.max_inscribed_radius(sphere_mesh, sphere_mesh.vertices[0], SQ3)


def test_doubled_spacing_radius_within_one_step(sphere_volume, sphere_mesh):
    r1 = sk.max_inscribed_radius(sphere_mesh, sphere_volume.centroids[1],
                                 sphere_volume.voxel_diagonal)
    coarse = sk.make_sphere_phantom(10.0, (2.0, 2.0, 2.0), 100, 0, 1)
    pts = sk.extract_label_points(coarse, 1)
    mesh2 = sk.build_alpha_shape(pts, alpha=pts.voxel_diagonal)
    r2 = sk.max_inscribed_radius(mesh2, coarse.centroids[1], coarse.voxel_diagonal)
    # oracle rerun at the coarse spacing
    dmin2 = float(np.linalg.norm(mesh2.vertices - coarse.centroids[1].mm, axis=1).min())
    assert r2 == np.floor(dmin2 / (2 * SQ3)) * (2 * SQ3)
    assert abs(r1 - r2) <= 2 * SQ3 + 1e-9    # within one coarse step


def test_roi_stats_constant_field(sphere_volume):
    center = sphere_volume.centroids[1]
    stats = sk.roi_stats(sphere_volume, center, 5 * SQ3)
    assert stats.hu_mean == 100.0
    assert stats.hu_sum == 100 * stats.voxel_count
    assert stats.hu_mean == stats.hu_sum / stats.voxel_count


def test_roi_voxel_membership_small_radii():
    dims = (7, 7, 7)
    vol = sk.LabeledVolume(dims=dims, spacing=(1, 1, 1),
                           hu=np.full(dims, 10, dtype=np.int16),
                           labels=np.zeros(dims, dtype=np.uint16))
    center = np.array([3.5, 3.5, 3.5])       # a voxel centroid
    assert sk.roi_stats(vol, center, 0.999).voxel_count == 1
    # closed ball: the six axis neighbors sit at exactly 1.0
    assert sk.roi_stats(vol, center, 1.0).voxel_count == 7


def test_roi_two_valued_field_mean():
    dims = (21, 21, 21)
    hu = np.zeros(dims, dtype=np.int16)
    hu[:10] = 100                             # half-space at 100 HU
    vol = sk.LabeledVolume(dims=dims, spacing=(1, 1, 1), hu=hu,
                           labels=np.zeros(dims, dtype=np.uint16))
    center = np.array([10.5, 10.5, 10.5])
    r = 4.0
    stats = sk.roi_stats(vol, center, r)
    # brute-force membership count over the whole grid
    axes = [np.arange(n) + 0.5 for n in dims]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    inside = ((gx - center[0]) ** 2 + (gy - center[1]) ** 2
              + (gz - center[2]) ** 2) <= r * r
    n1 = int((inside & (hu == 100)).sum())
    n2 = int((inside & (hu == 0)).sum())
    assert stats.voxel_count == n1 + n2
    assert stats.hu_mean == pytest.approx(100.0 * n1 / (n1 + n2))
    assert stats.hu_sum == 100 * n1


def test_roi_monotone_in_radius(sphere_volume):
    center = sphere_volume.centroids[1]
    counts, sums = [], []
    for k in range(1, 6):
        stats = sk.roi_stats(sphere_volume, center, k * SQ3)
        counts.append(stats.voxel_count)
        sums.append(stats.hu_sum)
    assert counts == sorted(counts)
    assert sums == sorted(sums)


def test_roi_containment_in_label(sphere_volume, sphere_mesh):
    center = sphere_volume.centroids[1]
    radius = sk.max_inscribed_radius(sphere_mesh, center,
                                     sphere_volume.voxel_diagonal)
    spacing = np.asarray(sphere_volume.spacing)
    axes = [(np.arange(n) + 0.5) * s for n, s in zip(sphere_volume.dims, spacing)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    inside = ((gx - center.mm[0]) ** 2 + (gy - center.mm[1]) ** 2
              + (gz - center.mm[2]) ** 2) <= radius ** 2
    assert np.all(sphere_volume.labels[inside] == 1)


def test_roi_brute_force_equivalence(sphere_volume):
    center = sphere_volume.centroids[1]
    r = 3 * SQ3
    stats = sk.roi_stats(sphere_volume, center, r)
    spacing = np.asarray(sphere_volume.spacing)
    axes = [(np.arange(n) + 0.5) * s for n, s in zip(sphere_volume.dims, spacing)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    inside = ((gx - center.mm[0]) ** 2 + (gy - center.mm[1]) ** 2
              + (gz - center.mm[2]) ** 2) <= r * r
    assert stats.voxel_count == int(inside.sum())
    assert stats.hu_sum == int(sphere_volume.hu[inside].sum(dtype=np.int64))


def test_invalid_radius_error(sphere_volume):
    with pytest.raises(RoiTooSmallError):
        sk.roi_stats(sphere_volume, sphere_volume.centroids[1], 0.0)


@pytest.mark.parametrize("radius", [True, -1.0, np.inf, np.nan, "2"],
                         ids=["bool", "negative", "inf", "nan", "str"])
def test_radius_must_be_positive_finite(sphere_volume, radius):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RoiTooSmallError, match="positive finite"):
            sk.roi_stats(sphere_volume, sphere_volume.centroids[1], radius)


def test_huge_radius_holds_every_voxel(sphere_volume):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = sk.roi_stats(sphere_volume, sphere_volume.centroids[1], np.float64(1e300))
    assert stats.voxel_count == sphere_volume.hu.size
    assert stats.hu_sum == int(sphere_volume.hu.sum(dtype=np.int64))
