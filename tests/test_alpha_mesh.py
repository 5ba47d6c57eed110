"""Alpha-shape reconstruction and mesh metrics."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import spinekit as sk
from spinekit.alpha_mesh import (_AlphaComplex, _boundary_faces,
                                 _edge_use_counts, _face_components)
from spinekit.errors import MeshContractError, ReconstructionError

from conftest import (edge_face_components, sorted_boundary_faces, undirected_edges,
                      winding_numbers)


UNIT_CUBE = np.array([[x, y, z] for x in (0.0, 1.0)
                      for y in (0.0, 1.0) for z in (0.0, 1.0)])


def test_unit_cube_convex_hull_regime():
    mesh = sk.build_alpha_shape(UNIT_CUBE, alpha=100.0)
    assert mesh.is_closed()
    metrics = sk.mesh_metrics(mesh)
    assert metrics.volume == pytest.approx(1.0, abs=1e-9)
    assert metrics.area == pytest.approx(6.0, abs=1e-9)


def test_too_few_points_error():
    with pytest.raises(ReconstructionError):
        sk.build_alpha_shape(UNIT_CUBE[:3], alpha=100.0)


def test_coplanar_points_error():
    grid = np.array([[x, y, 0.0] for x in range(5) for y in range(5)])
    with pytest.raises(ReconstructionError, match="coplanar"):
        sk.build_alpha_shape(grid, alpha=100.0)


def test_alpha_too_small_error(sphere_points):
    with pytest.raises(ReconstructionError):
        sk.build_alpha_shape(sphere_points, alpha=0.25)


def test_sphere_mesh_closed_manifold(sphere_mesh):
    counts = sphere_mesh.edge_use_counts()
    assert np.all(counts == 2)
    assert sphere_mesh.euler_characteristic() == 2
    assert sphere_mesh.n_components == 1
    assert sphere_mesh.cavities_discarded == 0


def test_sphere_auto_mesh_closed(sphere_mesh_auto, sphere_points):
    assert sphere_mesh_auto.is_closed()
    # auto picks the smallest passing critical value, below the default diagonal
    assert sphere_mesh_auto.alpha_used <= sphere_points.voxel_diagonal


@pytest.mark.xfail(strict=True, reason=(
    "voxel-centroid alpha shapes cannot reach 95% of the labeled-voxel "
    "volume at R=10/spacing=1: the convex hull of the centroid cloud is "
    "already 5.14% below it (see README.md, section Tests)"))
def test_sphere_auto_volume_within_5pct_of_voxel_count(sphere_mesh_auto,
                                                       sphere_points):
    volume = sk.mesh_metrics(sphere_mesh_auto).volume
    voxel_volume = float(len(sphere_points))   # spacing 1 -> 1 mm^3 per voxel
    assert abs(volume - voxel_volume) / voxel_volume <= 0.05


def test_sphere_area_within_8pct(sphere_mesh):
    area = sk.mesh_metrics(sphere_mesh).area
    assert abs(area - 1256.6) / 1256.6 <= 0.08


def test_mesh_metrics_translation_invariance(sphere_mesh):
    base = sk.mesh_metrics(sphere_mesh)
    moved = sk.TriangleMesh(vertices=sphere_mesh.vertices + 100.0,
                            triangles=sphere_mesh.triangles)
    shifted = sk.mesh_metrics(moved)
    assert shifted.area == pytest.approx(base.area, rel=1e-9)
    assert shifted.volume == pytest.approx(base.volume, rel=1e-9)


def test_build_translation_invariance(sphere_points, sphere_mesh):
    base = sk.mesh_metrics(sphere_mesh)
    moved = sk.build_alpha_shape(sphere_points.points + np.array([100.0, 100.0, 100.0]),
                                 alpha=sphere_points.voxel_diagonal)
    metrics = sk.mesh_metrics(moved)
    assert metrics.area == pytest.approx(base.area, rel=1e-6)
    assert metrics.volume == pytest.approx(base.volume, rel=1e-6)


def test_build_rotation_invariance(sphere_points, sphere_mesh):
    base = sk.mesh_metrics(sphere_mesh)
    theta = 0.31
    rot = np.array([[np.cos(theta), -np.sin(theta), 0.0],
                    [np.sin(theta), np.cos(theta), 0.0],
                    [0.0, 0.0, 1.0]])
    rotated = sk.build_alpha_shape(sphere_points.points @ rot.T,
                                   alpha=sphere_points.voxel_diagonal)
    metrics = sk.mesh_metrics(rotated)
    assert metrics.area == pytest.approx(base.area, rel=1e-6)
    assert metrics.volume == pytest.approx(base.volume, rel=1e-6)


def test_enclosure_no_point_strictly_outside(sphere_points, sphere_mesh):
    winding, on_surface = winding_numbers(sphere_points.points,
                                          sphere_mesh.vertices,
                                          sphere_mesh.triangles)
    outside = (winding == 0) & ~on_surface
    assert not outside.any()


def test_monotone_alpha_hull_dominates(sphere_points, sphere_mesh_auto):
    hull = sk.build_alpha_shape(sphere_points, alpha=1e6)
    assert (sk.mesh_metrics(hull).volume
            >= sk.mesh_metrics(sphere_mesh_auto).volume - 1e-9)


def test_no_degenerate_triangles(sphere_mesh, compound_mesh):
    for mesh in (sphere_mesh, compound_mesh):
        a = mesh.vertices[mesh.triangles[:, 0]]
        b = mesh.vertices[mesh.triangles[:, 1]]
        c = mesh.vertices[mesh.triangles[:, 2]]
        areas = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
        assert areas.min() > 1e-9


def test_open_mesh_metrics_error(sphere_mesh):
    broken = sk.TriangleMesh(vertices=sphere_mesh.vertices,
                             triangles=sphere_mesh.triangles[:-1])
    with pytest.raises(MeshContractError):
        sk.mesh_metrics(broken)


def test_compound_mesh_components(compound_mesh):
    # body ball + arch half-torus + two process capsules
    assert compound_mesh.n_components == 4
    assert compound_mesh.is_closed()


def test_outward_orientation_positive_volume(sphere_mesh):
    a = sphere_mesh.vertices[sphere_mesh.triangles[:, 0]]
    b = sphere_mesh.vertices[sphere_mesh.triangles[:, 1]]
    c = sphere_mesh.vertices[sphere_mesh.triangles[:, 2]]
    signed = np.einsum("ij,ij->i", a, np.cross(b, c)).sum() / 6.0
    assert signed > 0


def test_empty_mesh_is_open():
    empty = sk.TriangleMesh(vertices=np.zeros((0, 3)),
                            triangles=np.zeros((0, 3), dtype=np.int64))
    assert not empty.is_closed()
    assert len(empty.edge_use_counts()) == 0
    with pytest.raises(MeshContractError):
        sk.mesh_metrics(empty)


def _assert_boundary_matches_reference(complex_, alpha):
    """Adjacency boundary == sorted-face reference, row for row, and the
    edge and component helpers agree with their sort-based references."""
    keep = complex_.radii <= alpha
    tris = _boundary_faces(complex_.jit, complex_.tets,
                           complex_.delaunay.neighbors, keep)
    ref = sorted_boundary_faces(complex_.jit, complex_.tets, keep)
    assert tris.shape == ref.shape
    assert np.array_equal(tris, ref)
    if len(tris) == 0:
        return
    edges, counts = undirected_edges(ref)
    assert np.array_equal(_edge_use_counts(tris), counts)
    mesh = sk.TriangleMesh(vertices=complex_.points, triangles=tris)
    assert mesh.euler_characteristic() == len(complex_.points) - len(edges) + len(ref)
    assert np.array_equal(_face_components(tris), edge_face_components(ref))


def _alphas(complex_, fractions):
    cand = complex_.candidates
    picked = [cand[min(int(f * len(cand)), len(cand) - 1)] for f in fractions]
    return [0.0, np.inf, *picked]


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(("float", (1.0, 1.0, 1.0), (0.8, 0.8, 1.25))),
       n=st.integers(5, 60),
       seed=st.integers(0, 2 ** 32 - 1),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_boundary_faces_match_sorted_reference(kind, n, seed, fractions):
    rng = np.random.default_rng(seed)
    if kind == "float":
        points = rng.uniform(-5.0, 5.0, (n, 3))
    else:
        # distinct voxel centroids of a 5x5x5 grid: cospherical ties galore
        ijk = np.stack(np.unravel_index(rng.choice(125, size=n, replace=False),
                                        (5, 5, 5)), axis=1)
        points = (ijk + 0.5) * np.asarray(kind)
    try:
        complex_ = _AlphaComplex(points)
    except ReconstructionError:
        assume(False)
    for alpha in _alphas(complex_, fractions):
        _assert_boundary_matches_reference(complex_, alpha)


@pytest.mark.parametrize("fixture", ["sphere_points", "compound"])
def test_phantom_boundary_faces_match_sorted_reference(fixture, request):
    value = request.getfixturevalue(fixture)
    points = (value if fixture == "sphere_points"
              else sk.extract_label_points(value[0], 1))
    complex_ = _AlphaComplex(np.asarray(points.points))
    for alpha in _alphas(complex_, (0.1, 0.5, 0.9)) + [points.voxel_diagonal]:
        _assert_boundary_matches_reference(complex_, alpha)
