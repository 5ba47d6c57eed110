"""Facing-vertex extraction, body filtering and interspace reconstruction."""

import numpy as np
import pytest

import spinekit as sk
from spinekit.errors import ExtractionError, MeshContractError
from spinekit.spatial import nearest_canonical

from conftest import brute_force_nearest, disc_interspace


def _stub_mesh(vertices):
    return sk.TriangleMesh(vertices=np.asarray(vertices, dtype=float),
                           triangles=np.zeros((0, 3), dtype=int))


UNIT = (1.0, 1.0, 1.0)


def test_single_vertex_meshes():
    a = _stub_mesh([[0.5, 0.5, 0.5]])
    b = _stub_mesh([[5.5, 0.5, 0.5]])
    fa, fb = sk.facing_vertices(a, b, UNIT)
    assert fa.tolist() == [0]
    assert fb.tolist() == [0]


def test_parallel_grids_full_sets():
    xs, ys = np.meshgrid(np.arange(10.0), np.arange(10.0), indexing="ij")
    lower = np.stack([xs.ravel(), ys.ravel(), np.zeros(100)], axis=1) + 0.5
    upper = lower + np.array([0.0, 0.0, 4.0])
    fa, fb = sk.facing_vertices(_stub_mesh(lower), _stub_mesh(upper), UNIT)
    assert len(fa) == 100 and len(fb) == 100


def test_facing_keeps_far_vertices():
    a = _stub_mesh([[0.5, 0.5, 0.5], [10.5, 0.5, 0.5]])
    b = _stub_mesh([[0.5, 0.5, 2.5], [10.5, 0.5, 7.5]])
    fa, fb = sk.facing_vertices(a, b, UNIT)
    assert fa.tolist() == [0, 1]
    assert fb.tolist() == [0, 1]


def test_facing_sets_match_brute_force(disc_interspace_4):
    meshes = disc_interspace_4["meshes"]
    va, vb = meshes[1].vertices, meshes[2].vertices
    fa, fb = sk.facing_vertices(meshes[1], meshes[2],
                                disc_interspace_4["volume"].spacing)
    oracle_a = np.unique(brute_force_nearest(va, vb))
    oracle_b = np.unique(brute_force_nearest(vb, va))
    np.testing.assert_array_equal(fa, oracle_a)
    np.testing.assert_array_equal(fb, oracle_b)


def test_facing_rejects_a_vertex_off_the_centroids():
    a = _stub_mesh([[0.5, 0.5, 0.5], [1.5, 0.5, 0.5]])
    for vertex in ([0.5, 0.5, 2.0], [np.nan, 0.5, 0.5]):
        b = _stub_mesh([[0.5, 0.5, 3.5], vertex])
        with pytest.raises(MeshContractError, match="not voxel centroids"):
            sk.facing_vertices(a, b, UNIT)
        with pytest.raises(MeshContractError, match="not voxel centroids"):
            sk.facing_vertices(b, a, UNIT)


def test_kdtree_exactness_random_clouds():
    rng = np.random.default_rng(2024)
    for _ in range(5):
        data = rng.uniform(0, 100, (1000, 3))
        queries = rng.uniform(0, 100, (1000, 3))
        idx = nearest_canonical(data, queries, UNIT)
        np.testing.assert_array_equal(idx, brute_force_nearest(data, queries))


def test_filter_body_trivial_cases():
    th = sk.Thresholds(t1=5.0, t2=6.0, t3=7.0)
    samples = sk.DistanceSamples(values=np.array([1.0, 2.0, 3.0]))
    facing = np.array([0, 1, 2])
    np.testing.assert_array_equal(sk.filter_body(facing, samples, th), facing)

    far = sk.DistanceSamples(values=np.array([5.0, 6.0, 9.0]))
    assert len(sk.filter_body(facing, far, th)) == 0


def test_filter_body_matches_set_intersection(compound, compound_mesh,
                                              compound_segmentation):
    # compound phantom facing a translated copy of itself
    samples, _, th, _ = compound_segmentation
    copy = _stub_mesh(compound_mesh.vertices + np.array([0.0, 120.0, 0.0]))
    fa, _ = sk.facing_vertices(compound_mesh, copy, compound[0].spacing)
    kept = sk.filter_body(fa, samples, th)
    oracle = np.asarray(sorted(set(fa.tolist())
                               & set(np.nonzero(samples.values < th.t1)[0].tolist())))
    np.testing.assert_array_equal(np.sort(kept), oracle)


def test_disc_interspace_volume_within_15pct(disc_interspace_4):
    truth = disc_interspace_4["truth"]
    imesh = disc_interspace_4["interspace"]
    assert imesh.is_closed()
    volume = sk.mesh_metrics(imesh).volume
    assert abs(volume - truth.gap_volume) / truth.gap_volume <= 0.15


def test_interspace_volume_monotone_in_gap():
    volumes = [sk.mesh_metrics(disc_interspace(g)["interspace"]).volume
               for g in (2.0, 4.0, 8.0)]
    assert volumes[0] < volumes[1] < volumes[2]


def test_interspace_symmetric_in_argument_order(disc_interspace_4):
    meshes = disc_interspace_4["meshes"]
    fa, fb = disc_interspace_4["facing"]
    forward = sk.build_interspace(meshes[1], meshes[2], fa, fb)
    backward = sk.build_interspace(meshes[2], meshes[1], fb, fa)
    assert (sk.mesh_metrics(forward).volume
            == pytest.approx(sk.mesh_metrics(backward).volume, rel=1e-6))


def test_interspace_rigid_translation_invariance(disc_interspace_4):
    meshes = disc_interspace_4["meshes"]
    fa, fb = disc_interspace_4["facing"]
    base = sk.build_interspace(meshes[1], meshes[2], fa, fb)
    moved = {k: _stub_mesh(m.vertices + 50.0) for k, m in meshes.items()}
    shifted = sk.build_interspace(moved[1], moved[2], fa, fb)
    assert (sk.mesh_metrics(shifted).volume
            == pytest.approx(sk.mesh_metrics(base).volume, rel=1e-6))


def test_coplanar_facing_sets_error():
    xs, ys = np.meshgrid(np.arange(6.0), np.arange(6.0), indexing="ij")
    plane = np.stack([xs.ravel(), ys.ravel(), np.zeros(36)], axis=1)
    a = _stub_mesh(plane)
    b = _stub_mesh(plane + np.array([10.0, 0.0, 0.0]))
    fa = np.arange(36)
    with pytest.raises(ExtractionError):
        sk.build_interspace(a, b, fa, fa)


def test_too_few_points_error():
    a = _stub_mesh([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    b = _stub_mesh([[0.0, 0.0, 4.0]])
    with pytest.raises(ExtractionError):
        sk.build_interspace(a, b, np.array([0, 1]), np.array([0]))


def test_interspace_voxel_stats_exact_gap_hu(disc_interspace_4):
    volume = disc_interspace_4["volume"]
    imesh = disc_interspace_4["interspace"]
    stats = sk.interspace_voxel_stats(volume, imesh)
    assert stats.voxel_count > 0
    assert stats.hu_mean == -50.0
    assert stats.hu_sum == -50 * stats.voxel_count
    assert stats.excluded_count == 0
