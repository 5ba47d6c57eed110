"""Alpha-shape reconstruction and mesh metrics."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.ndimage import distance_transform_edt
from scipy.spatial import QhullError

import spinekit as sk
from spinekit import alpha_mesh
from spinekit.alpha_mesh import (_boundary_faces, _check_solid, _circumradii, _edge_runs,
                                 _face_components, _jittered, _lattice_margins,
                                 _shell, _slab_complex, _sole_faces, _surface,
                                 _triangulate)
from spinekit.errors import MeshContractError, ReconstructionError

from conftest import (edge_face_components, euler_characteristic, perfbench_spine,
                      sorted_boundary_faces, undirected_edges, winding_numbers)


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


@pytest.mark.parametrize("alpha", [100.0, "auto"])
def test_malformed_point_arrays_error(alpha, sphere_points):
    cube = UNIT_CUBE.copy()
    cube[3, 1] = np.nan
    for bad in (cube, np.where(UNIT_CUBE > 0, np.inf, 0.0), UNIT_CUBE[:, :2],
                np.zeros((10, 2)), UNIT_CUBE.ravel()):
        with pytest.raises(ReconstructionError, match=r"finite \(N, 3\) coordinates"):
            sk.build_alpha_shape(bad, alpha=alpha)
    points = sphere_points.points.copy()
    points[7] = -np.inf
    with pytest.raises(ReconstructionError, match="finite"):
        sk.build_alpha_shape(sk.PointCloud(points, sphere_points.spacing), alpha)


def test_alpha_too_small_error(sphere_points):
    with pytest.raises(ReconstructionError):
        sk.build_alpha_shape(sphere_points, alpha=0.25)


def _components(mesh) -> int:
    """Connected components of a mesh's triangles, via shared edges."""
    return len(np.unique(edge_face_components(mesh.triangles)))


def test_sphere_mesh_closed_manifold(sphere_mesh):
    counts = sphere_mesh.edge_use_counts()
    assert np.all(counts == 2)
    assert euler_characteristic(sphere_mesh) == 2
    assert _components(sphere_mesh) == 1
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
    assert _components(compound_mesh) == 4
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


@pytest.mark.parametrize("call", [
    lambda empty, mesh, volume: sk.max_inscribed_radius(empty, np.ones(3), 1.0),
    lambda empty, mesh, volume: sk.facing_vertices(empty, mesh, volume.spacing),
    lambda empty, mesh, volume: sk.interspace_voxel_stats(volume, empty),
], ids=["max_inscribed_radius", "facing_vertices", "interspace_voxel_stats"])
def test_empty_mesh_is_a_contract_error_downstream(call, sphere_mesh, sphere_volume):
    empty = sk.TriangleMesh(vertices=np.zeros((0, 3)),
                            triangles=np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(MeshContractError, match="no vertices"):
        call(empty, sphere_mesh, sphere_volume)


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _exact_circumsphere(corners):
    """(det, scale, centre, squared radius) of a tetrahedron's float corners
    a, b, c, d in rational arithmetic: det and largest entry of the rows
    b - a, c - a, d - a, and (by Cramer's rule) the circumsphere, None for
    det == 0."""
    a, *rest = [[Fraction(x) for x in p] for p in corners.tolist()]
    m = [[u - v for u, v in zip(q, a)] for q in rest]
    det = _det3(m)
    scale = max(abs(x) for row in m for x in row)
    if det == 0:
        return det, scale, None, None
    rhs = [sum(x * x for x in row) / 2 for row in m]
    offset = [_det3([[rhs[i] if j == k else m[i][j] for j in range(3)]
                     for i in range(3)]) / det for k in range(3)]
    return det, scale, [u + o for u, o in zip(a, offset)], sum(o * o for o in offset)


_BLOCK = np.array(list(itertools.product(range(4), repeat=3)))   # 4x4x4 lattice
_CUBE_TETS = np.array(list(itertools.combinations(
    np.flatnonzero((_BLOCK <= 1).all(axis=1)), 4)))   # 70, of which 12 are flat


@settings(max_examples=40, deadline=None)
@given(spacing=st.sampled_from([(1.0, 1.0, 1.0), (0.8, 0.8, 1.25), (0.7, 0.9, 2.0)]),
       origin=st.tuples(*[st.integers(0, 60)] * 3),
       jitter=st.sampled_from([0.0, 1e-16, 1e-15, 1e-14, 1e-12, 1e-9, 1e-6, 1e-3]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_circumradii_match_exact_arithmetic(spacing, origin, jitter, seed):
    # every 4 corners of one lattice cube (near-flat when 4 share a plane)
    # and random lattice tetrahedra, jittered by up to `jitter` x 60 mm
    rng = np.random.default_rng(seed)
    pts = (np.asarray(origin) + _BLOCK + 0.5) * spacing
    pts += rng.uniform(-1.0, 1.0, pts.shape) * jitter * 60.0
    tets = np.concatenate([_CUBE_TETS, np.sort(np.stack(
        [rng.choice(len(_BLOCK), 4, replace=False) for _ in range(30)]), axis=1)])
    radii, centres, positive = _circumradii(pts, tets)
    eps = np.finfo(float).eps
    for t, radius, centre, pos in zip(tets, radii, centres, positive):
        det, scale, exact_centre, r2 = _exact_circumsphere(pts[t])
        threshold = Fraction(1e-14) * scale ** 3
        if threshold / 2 <= abs(det) <= 2 * threshold:
            continue   # too near the threshold for the float det to decide
        assert math.isfinite(radius) == (abs(det) > threshold)
        if not math.isfinite(radius):
            assert np.isnan(centre).all()
            continue
        assert pos == (det > 0)
        # rounding of b - a, c - a, d - a and of the closed form, amplified
        # by the condition scale^3 / |det|; measured up to 0.7 eps kappa
        kappa = float(scale ** 3 / abs(det)) * (1.0 + float(np.abs(pts[t]).max() / scale))
        exact_radius = math.sqrt(float(r2))
        assert abs(radius - exact_radius) <= 4 * eps * kappa * exact_radius
        centre_error = max(abs(Fraction(x) - y) for x, y in zip(centre.tolist(), exact_centre))
        assert float(centre_error) <= 4 * eps * kappa * exact_radius


def _whole_build(points) -> SimpleNamespace:
    """One triangulation of every point through the routine every build
    shares, with no shell and no cut: the reference the boundary and shell
    tests compare against."""
    points = np.asarray(points, dtype=float)
    _check_solid(points)
    jit = _jittered(points)
    index = np.arange(len(points))
    tets, neighbors, radii, _, positive = _triangulate(
        jit, jit - points.min(axis=0), index)
    return SimpleNamespace(points=points, index=index, jit=jit, tets=tets,
                           neighbors=neighbors, radii=radii, positive=positive,
                           candidates=np.unique(radii[np.isfinite(radii)]))


def _evaluate(whole: SimpleNamespace, alpha: float):
    """`_surface` of the whole build's tetrahedra of circumradius <= alpha."""
    keep = whole.radii <= alpha
    boundary = _boundary_faces(whole.positive, whole.tets, whole.neighbors, keep)
    return _surface(whole.points, whole.index, np.ones(len(whole.index), dtype=bool),
                    whole.tets[keep], boundary)


def _assert_boundary_matches_reference(whole, alpha):
    """Adjacency boundary, turned by parity and ordered by `_sole_faces`,
    == sorted-face reference (turned by a triple product), row for row, and
    the edge-use counts and face components read off one sort of the edge
    keys agree with their sort-based references."""
    keep = whole.radii <= alpha
    tris = _boundary_faces(whole.positive, whole.tets, whole.neighbors, keep)
    tris = tris[_sole_faces(tris)]
    ref = sorted_boundary_faces(whole.jit, whole.tets, keep)
    assert tris.shape == ref.shape
    assert np.array_equal(tris, ref)
    if len(tris) == 0:
        return
    edges, counts = undirected_edges(ref)
    order, same, runs = _edge_runs(tris)
    assert np.array_equal(runs, counts)
    mesh = sk.TriangleMesh(vertices=whole.points, triangles=tris)
    assert euler_characteristic(mesh) == len(whole.points) - len(edges) + len(ref)
    assert np.array_equal(_face_components(len(tris), order, same),
                          edge_face_components(ref))


def _alphas(whole, fractions):
    cand = whole.candidates
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
        whole = _whole_build(points)
    except ReconstructionError:
        assume(False)
    assume(len(whole.candidates) > 0)   # not every tetrahedron degenerate
    for alpha in _alphas(whole, fractions):
        _assert_boundary_matches_reference(whole, alpha)


@pytest.mark.parametrize("fixture", ["sphere_points", "compound"])
def test_phantom_boundary_faces_match_sorted_reference(fixture, request):
    value = request.getfixturevalue(fixture)
    points = (value if fixture == "sphere_points"
              else sk.extract_label_points(value[0], 1))
    whole = _whole_build(points.points)
    for alpha in _alphas(whole, (0.1, 0.5, 0.9)) + [points.voxel_diagonal]:
        _assert_boundary_matches_reference(whole, alpha)


def _blob_boundary(shape: str, spacing, rng) -> np.ndarray:
    """Triangles of the default-alpha surface of one lattice blob: a ball, a
    union of two balls, or a rod 2 voxels thick and 20-120 long."""
    if shape == "rod":
        inside = np.moveaxis(np.ones((2, 2, rng.integers(20, 121)), dtype=bool),
                             2, rng.integers(3))
    else:
        grid = np.indices((13, 13, 13)).reshape(3, -1).T - 6.0
        inside = np.linalg.norm(grid, axis=1) <= rng.uniform(2.0, 6.0)
        if shape == "blobs":
            inside |= (np.linalg.norm(grid - rng.uniform(-3.0, 3.0, 3), axis=1)
                       <= rng.uniform(2.0, 4.0))
        inside = inside.reshape(13, 13, 13)
    cloud = _lattice_cloud(inside, spacing)
    return sk.build_alpha_shape(cloud, cloud.voxel_diagonal).triangles


@settings(max_examples=30, deadline=None)
@given(spacing=st.sampled_from([(1.0, 1.0, 1.0), (0.8, 0.8, 1.25), (0.7, 0.9, 2.0)]),
       shapes=st.lists(st.sampled_from(["ball", "blobs", "rod"]), min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_face_components_match_reference_on_shuffled_unions(spacing, shapes, seed):
    # a disjoint union of 1-4 blob surfaces with its faces, their corners and
    # the vertex ids shuffled: hooking numbers the components exactly as the
    # sparse-graph reference does, one per blob, in O(log faces) rounds
    rng = np.random.default_rng(seed)
    parts, offset = [], 0
    for shape in shapes:
        tris = _blob_boundary(shape, spacing, rng)
        parts.append(tris + offset)
        offset += int(tris.max()) + 1
    tris = rng.permutation(np.concatenate(parts))
    turn = (np.arange(3) + rng.integers(3, size=(len(tris), 1))) % 3
    tris = rng.permutation(offset)[np.take_along_axis(tris, turn, axis=1)]
    order, same, _ = _edge_runs(tris)
    with mock.patch.object(alpha_mesh, "_hook", wraps=alpha_mesh._hook) as hook:
        comp = _face_components(len(tris), order, same)
    assert np.array_equal(comp, edge_face_components(tris))
    assert comp.max() + 1 == len(shapes)
    assert hook.call_count <= 2.0 * np.log2(len(tris)) + 2.0


@pytest.mark.parametrize("alpha", [float("nan"), 0.0, -1.0, float("inf"),
                                   True, "2.0", "abc"])
@pytest.mark.parametrize("cloud", [False, True])
def test_invalid_alpha_rejected(alpha, cloud, sphere_points):
    # the rule `PipelineConfig` applies: a finite real above 0, not a bool
    points = sphere_points if cloud else sphere_points.points
    with pytest.raises(ReconstructionError, match="alpha must be finite and positive"):
        sk.build_alpha_shape(points, alpha)


def test_off_lattice_cloud_rejected(sphere_points):
    moved = sk.PointCloud(sphere_points.points + 0.1, sphere_points.spacing)
    with pytest.raises(ReconstructionError, match="not a set of voxel centroids"):
        sk.build_alpha_shape(moved, moved.voxel_diagonal)


# ------------------------------------------- boundary shell against full build

def _lattice_cloud(inside: np.ndarray, spacing) -> sk.PointCloud:
    ijk = np.argwhere(inside)
    return sk.PointCloud((ijk + 0.5) * np.asarray(spacing), tuple(spacing))


def _outcome(points, alpha):
    try:
        return sk.build_alpha_shape(points, alpha), None
    except ReconstructionError as exc:
        return None, str(exc)


def _assert_shell_matches_full(cloud: sk.PointCloud, alpha: float) -> int:
    """The slab builds of `cloud`'s shell at 1 to 6 slabs equal one
    triangulation of every point (`_whole_build`): the surface's triangles,
    components, volumes and failure reason; and the returned mesh or error
    equals that of its raw points, one slab with no shell.  Each slab build's
    boundary, once `_sole_faces` has paired and ordered it, also equals face
    counting over its kept tetrahedra, a rule that shares no code with the
    adjacency both builds read nor with their parity orientation.  Tetrahedra
    are not compared, as qhull may fill a near-cospherical lattice cube
    differently in a slab.  Returns the number of points the shell leaves
    out."""
    index, shallow = _shell(cloud.points, cloud.spacing, alpha)
    jit = _jittered(cloud.points)[index]
    full = _whole_build(cloud.points)
    assert len(full.index) == len(cloud)
    f_res, f_why = _evaluate(full, alpha)
    for slabs in range(1, 7):
        kept, boundary = _slab_complex(cloud.points[index], jit, alpha, slabs,
                                       cloud.spacing)
        # each kept tetrahedron has exactly one owning slab
        assert len(np.unique(kept, axis=0)) == len(kept)
        # the boundary by counting faces, independent of any adjacency
        assert np.array_equal(boundary[_sole_faces(boundary)], sorted_boundary_faces(
            jit, kept, np.ones(len(kept), dtype=bool)))
        s_res, s_why = _surface(cloud.points, index, shallow, kept, boundary)
        assert s_why == f_why
        if f_res is not None:
            for a, b in zip(s_res, f_res):
                assert a.dtype == b.dtype and np.array_equal(a, b)
    s_mesh, s_err = _outcome(cloud, alpha)
    f_mesh, f_err = _outcome(cloud.points, alpha)
    assert s_err == f_err
    if f_mesh is not None:
        assert np.array_equal(s_mesh.vertices, f_mesh.vertices)
        assert np.array_equal(s_mesh.triangles, f_mesh.triangles)
        assert (s_mesh.cavities_discarded, _components(s_mesh), s_mesh.alpha_used) == (
            f_mesh.cavities_discarded, _components(f_mesh), f_mesh.alpha_used)
        assert sk.mesh_metrics(s_mesh) == sk.mesh_metrics(f_mesh)
    return len(cloud) - len(index)


def _holed_ball(spacing, extra, cavity, notch, holes, shape, seed) -> sk.PointCloud:
    """A lattice ball whose centre lies just deeper than the shell bound, 4h
    plus 1 mm, with an interior cavity, a notch cut into its side and random
    single-voxel holes, each kept clear of the centre so that the centre
    stays deep; a "plate" ball wears a one-voxel-thick flange, a "stray" ball
    has one voxel 3-10 mm off its surface."""
    rng = np.random.default_rng(seed)
    spacing = np.asarray(spacing)
    deep = 2.0 * np.linalg.norm(spacing) + 1.0    # deeper than the shell bound
    radius = deep + 2.0 * cavity + 1.5 + extra
    reach = radius if shape == "ball" else radius + 10.0 + np.linalg.norm(spacing)
    n = np.ceil(reach / spacing).astype(int) + 1
    grid = (np.indices(2 * n).reshape(3, -1).T - n + 0.5) * spacing
    dist = np.linalg.norm(grid, axis=1)
    inside = dist <= radius
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    if cavity > 0:
        inside &= np.linalg.norm(grid - (deep + cavity) * axis, axis=1) > cavity
    if notch:
        along = grid @ axis
        inside &= ~((along < -radius + 2.0 + extra)
                    & (np.linalg.norm(grid - np.outer(along, axis), axis=1) < 3.0))
    clear = np.flatnonzero(inside & (dist > deep))
    inside[rng.choice(clear, size=min(holes, len(clear)), replace=False)] = False
    gap = rng.uniform(3.0, 10.0)
    if shape == "plate":
        layer = np.abs(grid[:, 2] - 0.5 * spacing[2]) < 1e-9
        inside |= layer & (dist <= radius + gap)
    elif shape == "stray":
        inside[np.argmin(np.linalg.norm(grid - (radius + gap) * axis, axis=1))] = True
    return _lattice_cloud(inside.reshape(2 * n), spacing)


_BALLS = dict(spacing=st.sampled_from([(1.0, 1.0, 1.0), (0.8, 0.8, 1.25), (0.7, 0.9, 2.0)]),
              extra=st.floats(0.5, 2.0),
              cavity=st.floats(0.0, 3.0),
              notch=st.booleans(),
              holes=st.integers(0, 6),
              shape=st.sampled_from(["ball", "plate", "stray"]),
              seed=st.integers(0, 2 ** 32 - 1))


@settings(max_examples=12, deadline=None)
@given(fraction=st.floats(0.75, 3.0), **_BALLS)
def test_shell_build_matches_full_build(spacing, fraction, extra, cavity, notch,
                                        holes, shape, seed):
    # alpha from 0.75 to 3 voxel diagonals on a `_holed_ball`: the shell
    # bound 4h is one depth for every alpha, below and above 2h
    cloud = _holed_ball(spacing, extra, cavity, notch, holes, shape, seed)
    alpha = fraction * cloud.voxel_diagonal
    assert _assert_shell_matches_full(cloud, alpha) > 0


@settings(max_examples=12, deadline=None)
@given(fraction=st.one_of(st.floats(3.0, 12.0), st.just(None)), **_BALLS)
def test_shell_build_matches_full_build_at_wide_alpha(spacing, fraction, extra,
                                                      cavity, notch, holes, shape,
                                                      seed):
    # alpha from 3 to 12 voxel diagonals, or 1e6 mm (None: the convex-hull
    # regime), on a `_holed_ball`: the shell still reaches only 4h deep,
    # while the empty balls of kept tetrahedra reach far over the hollow
    cloud = _holed_ball(spacing, extra, cavity, notch, holes, shape, seed)
    alpha = 1e6 if fraction is None else fraction * cloud.voxel_diagonal
    assert _assert_shell_matches_full(cloud, alpha) > 0


@settings(max_examples=60, deadline=None)
@given(spacing=st.sampled_from([(1.0, 1.0, 1.0), (0.8, 0.8, 1.25), (0.7, 0.9, 2.0)]),
       shape=st.sampled_from(["blob", "plate", "stray"]),
       fraction=st.floats(0.75, 3.0),
       holes=st.integers(0, 40),
       seed=st.integers(0, 2 ** 32 - 1))
def test_wide_tetrahedra_have_shallow_vertices(spacing, shape, fraction, holes, seed):
    # The lemma behind the shell: a Delaunay tetrahedron of radius above
    # h + margin has every vertex within a voxel diagonal of a lattice point
    # missing from the cloud, so `_shell` marks it shallow, and so is every
    # surface vertex at a numeric alpha.  A blob of 2-3 overlapping balls
    # with random single-voxel holes, alone, with a one-voxel-thick plate
    # through it, or with one voxel 3-10 mm off its surface.  No hole comes
    # within 4 mm of the first ball's centre, so some points stay deep.
    rng = np.random.default_rng(seed)
    spacing = np.asarray(spacing)
    n = np.ceil(20.0 / spacing).astype(int)
    grid = (np.indices(2 * n).reshape(3, -1).T - n + 0.5) * spacing
    core = rng.uniform(-3.0, 3.0, 3)
    inside = np.linalg.norm(grid - core, axis=1) <= rng.uniform(5.5, 7.0)
    for _ in range(rng.integers(1, 3)):
        inside |= (np.linalg.norm(grid - rng.uniform(-3.0, 3.0, 3), axis=1)
                   <= rng.uniform(3.0, 6.0))
    blob = np.flatnonzero(inside)
    clear = np.flatnonzero(inside & (np.linalg.norm(grid - core, axis=1) > 4.0))
    inside[rng.choice(clear, size=holes, replace=False)] = False
    if shape == "plate":
        along = rng.integers(3)
        layer = grid[:, along] == grid[rng.choice(blob), along]
        inside |= layer & (np.linalg.norm(grid, axis=1) <= rng.uniform(8.0, 12.0))
    elif shape == "stray":
        off = distance_transform_edt(~inside.reshape(2 * n), sampling=spacing).ravel()
        inside[rng.choice(np.flatnonzero((off >= 3.0) & (off <= 10.0)))] = True
    cloud = _lattice_cloud(inside.reshape(2 * n), spacing)
    whole = _whole_build(cloud.points)
    h, _, margin = _lattice_margins(cloud.points, cloud.spacing)
    alpha = fraction * 2.0 * h
    index, shallow = _shell(cloud.points, cloud.spacing, alpha)
    is_shallow = np.zeros(len(cloud), dtype=bool)
    is_shallow[index[shallow]] = True
    assert not is_shallow.all()
    wide = whole.radii > h + margin
    assert is_shallow[whole.tets[wide]].all()
    keep = whole.radii <= alpha
    surface = _boundary_faces(whole.positive, whole.tets, whole.neighbors, keep)
    assert len(surface) > 0 and is_shallow[surface].all()


def test_shell_keeps_every_point_where_the_jitter_is_too_coarse_for_the_walk():
    # the walk in `_shell`'s proof needs 8δ <= (2/√3 - 1) s_i on every axis,
    # and δ grows with the span of the coordinates: one block of voxels 0.1 mm
    # apart along x is pruned near the origin and kept whole 1,200 mm up z
    spacing = (0.1, 1.0, 1.0)
    ijk = np.indices((80, 9, 9)).reshape(3, -1).T
    for z0, whole in ((0, False), (1200, True)):
        cloud = sk.PointCloud((ijk + [0, 0, z0] + 0.5) * spacing, spacing)
        index, shallow = _shell(cloud.points, cloud.spacing, cloud.voxel_diagonal)
        assert (len(index) == len(cloud)) == whole
        assert shallow.all() == whole


def test_hollow_ball_cavity_survives_pruning():
    # a shell 12 mm thick around a 3.5 mm cavity: at 0.75 voxel diagonals the
    # middle of the wall is deeper than the shell bound, so the build prunes
    # it and must neither lose the cavity nor count the pruned hollow
    n = 17
    grid = np.indices((2 * n,) * 3).reshape(3, -1).T - n + 0.5
    dist = np.linalg.norm(grid, axis=1)
    inside = ((dist <= 15.5) & (dist > 3.5)).reshape((2 * n,) * 3)
    cloud = _lattice_cloud(inside, (1.0, 1.0, 1.0))
    alpha = 0.75 * cloud.voxel_diagonal
    assert _assert_shell_matches_full(cloud, alpha) > 0
    mesh = sk.build_alpha_shape(cloud, alpha)
    assert (mesh.cavities_discarded, _components(mesh)) == (1, 1)


@pytest.mark.parametrize("diagonals", [0.75, 1.0])
@pytest.mark.parametrize("spacing", [(0.8, 0.8, 1.25), (0.7, 0.9, 2.0), (0.4, 0.4, 2.0)])
def test_one_voxel_hole_shell_matches_full_build(spacing, diagonals):
    # a lattice ball missing its centre voxel, of radius 8h + 1 mm, so the
    # hollow between the hole and the border lies just deeper than the
    # shell bound 4h.  At (0.4, 0.4, 2.0) the point 2 mm above the hole is
    # shallow and the next one up, 4 mm above it, lies 0.16 mm inside the
    # bound: a shell cut short of 4 mm opens the surface at the shallow one.
    spacing = np.asarray(spacing)
    radius = 4.0 * np.linalg.norm(spacing) + 1.0
    n = np.ceil(radius / spacing).astype(int) + 1
    grid = (np.indices(2 * n).reshape(3, -1).T - n + 0.5) * spacing
    dist = np.linalg.norm(grid, axis=1)
    inside = dist <= radius
    inside[np.argmin(dist)] = False
    cloud = _lattice_cloud(inside.reshape(2 * n), spacing)
    assert _assert_shell_matches_full(cloud, diagonals * cloud.voxel_diagonal) > 0


@pytest.mark.parametrize("diagonals", [1.0, 3.0, None])   # None: alpha 1e6 mm
@pytest.mark.parametrize("fixture", ["sphere_points", "compound"])
def test_phantom_shell_matches_full_build(fixture, diagonals, request):
    value = request.getfixturevalue(fixture)
    cloud = (value if fixture == "sphere_points"
             else sk.extract_label_points(value[0], 1))
    alpha = 1e6 if diagonals is None else diagonals * cloud.voxel_diagonal
    assert _assert_shell_matches_full(cloud, alpha) > 0


def test_workload_vertebrae_shell_matches_full_build():
    spine = perfbench_spine()
    volume, truth = spine.build_spine(spine.WORKLOADS["lumbar_r25"], 1)
    for label in truth.levels:
        cloud = sk.extract_label_points(volume, label)
        assert _assert_shell_matches_full(cloud, cloud.voxel_diagonal) > 0


# --------------------------------------- numeric alpha at the answer of auto

def _assert_numeric_alpha_rebuilds_auto(cloud: sk.PointCloud) -> None:
    """`auto`'s alpha_used, passed back as a numeric alpha on the point
    cloud (shell and slabs) and on its raw points (one slab), gives the
    `auto` mesh exactly: every build computes a tetrahedron's radius alike."""
    auto = sk.build_alpha_shape(cloud, "auto")
    for points in (cloud, cloud.points):
        mesh = sk.build_alpha_shape(points, auto.alpha_used)
        assert mesh.alpha_used == auto.alpha_used
        assert np.array_equal(mesh.vertices, auto.vertices)
        assert np.array_equal(mesh.triangles, auto.triangles)
        assert (mesh.cavities_discarded, _components(mesh)) == (
            auto.cavities_discarded, _components(auto))


def test_numeric_alpha_at_auto_answer_rebuilds_compound_mesh():
    volume, _ = sk.make_compound_vertebra(14.0, 2.5, 4.0, (1.0, 1.0, 1.0), 1)
    _assert_numeric_alpha_rebuilds_auto(sk.extract_label_points(volume, 1))


@pytest.fixture(scope="module")
def stack_auto_volume() -> sk.LabeledVolume:
    """Seed 1 of the `stack_auto` benchmark spine."""
    spine = perfbench_spine()
    return spine.build_spine(spine.WORKLOADS["stack_auto"], 1)[0]


def test_numeric_alpha_at_auto_answer_rebuilds_workload_meshes(stack_auto_volume):
    for label in (1, 3):
        _assert_numeric_alpha_rebuilds_auto(
            sk.extract_label_points(stack_auto_volume, label))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="auto returns a non-minimal alpha (ROADMAP item 1)")
@pytest.mark.parametrize("label", [1, 3])
def test_auto_alpha_is_minimal_on_workload_vertebrae(label, stack_auto_volume):
    # auto returns 4.44 and 6.36 mm here; vertebra 2 already gets 0.866 mm
    cloud = sk.extract_label_points(stack_auto_volume, label)
    sk.build_alpha_shape(cloud, 0.87)   # raises unless 0.87 mm passes
    assert sk.build_alpha_shape(cloud, "auto").alpha_used <= 0.87


# ------------------------------------------------- slabs on worker threads

def _failing_delaunay(monkeypatch, fail_call):
    """Make `alpha_mesh.Delaunay` raise a QhullError on call number
    `fail_call` (from 0; None: every call)."""
    real, calls = alpha_mesh.Delaunay, itertools.count()

    def delaunay(points):
        if fail_call is None or next(calls) == fail_call:
            raise QhullError("QH6154 injected failure")
        return real(points)

    monkeypatch.setattr(alpha_mesh, "Delaunay", delaunay)


def test_qhull_error_in_one_slab_is_the_serial_reconstruction_error(
        sphere_points, monkeypatch):
    alpha = sphere_points.voxel_diagonal
    monkeypatch.setattr(alpha_mesh, "_workers", lambda: 2)
    _failing_delaunay(monkeypatch, 3)           # one slab of six fails
    with pytest.raises(ReconstructionError) as threaded:
        sk.build_alpha_shape(sphere_points, alpha)
    _failing_delaunay(monkeypatch, None)
    with pytest.raises(ReconstructionError) as serial:
        sk.build_alpha_shape(sphere_points.points, alpha)   # one full build
    assert str(threaded.value) == str(serial.value)
    assert str(serial.value) == "tetrahedralization failed: QH6154 injected failure"


def test_linalg_error_in_a_slab_propagates_unchanged(sphere_points, monkeypatch):
    # `_circumradii` is plain arithmetic and raises nothing on a singular
    # cell, so an error in it (here a LinAlgError) is a defect in the
    # program, not a bad vertebra: it reaches the caller as itself, as from
    # the serial build
    def singular(*args):
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(alpha_mesh, "_circumradii", singular)
    with pytest.raises(np.linalg.LinAlgError, match="injected"):
        sk.build_alpha_shape(sphere_points, sphere_points.voxel_diagonal)


def test_numeric_alpha_builds_without_an_affinity_mask(sphere_points, monkeypatch):
    # os.sched_getaffinity exists only on some platforms (not macOS, Windows)
    alpha = sphere_points.voxel_diagonal
    expected = sk.build_alpha_shape(sphere_points, alpha)
    monkeypatch.delattr(alpha_mesh.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(alpha_mesh.os, "cpu_count", lambda: None)
    assert alpha_mesh._workers() == 1
    monkeypatch.setattr(alpha_mesh.os, "cpu_count", lambda: 5)
    assert alpha_mesh._workers() == 5
    mesh = sk.build_alpha_shape(sphere_points, alpha)
    assert np.array_equal(mesh.triangles, expected.triangles)
    assert np.array_equal(mesh.vertices, expected.vertices)


@pytest.fixture(scope="module")
def anisotropic_points() -> sk.PointCloud:
    return sk.extract_label_points(
        sk.make_sphere_phantom(10.0, (0.8, 0.8, 1.25), 100, 0, 1), 1)


@pytest.mark.parametrize("roll_neighbors", [True, False])
def test_slab_boundary_follows_each_row_with_its_neighbors(roll_neighbors,
                                                           anisotropic_points,
                                                           monkeypatch):
    # qhull lists a tetrahedron's vertices in any order; the boundary must
    # pair neighbors[t, j] with vertex j of the same row, whatever the order
    alpha = anisotropic_points.voxel_diagonal
    reference = sk.build_alpha_shape(anisotropic_points, alpha)
    real = alpha_mesh.Delaunay

    def rolled(points):
        tri = real(points)
        neighbors = np.roll(tri.neighbors, 1, axis=1) if roll_neighbors else tri.neighbors
        return SimpleNamespace(simplices=np.roll(tri.simplices, 1, axis=1),
                               neighbors=neighbors)

    monkeypatch.setattr(alpha_mesh, "Delaunay", rolled)
    mesh, err = _outcome(anisotropic_points, alpha)
    same = mesh is not None and (
        np.array_equal(mesh.vertices, reference.vertices)
        and np.array_equal(mesh.triangles, reference.triangles))
    assert same == roll_neighbors, err


def test_sole_faces_count_ids_beyond_an_int64_cube_key():
    # ids above 2**21: (a * n + b) * n + c would overflow int64
    big = 2 ** 31 - 4
    tris = np.array([[5, big, big + 2], [0, 1, big], [5, big, big + 2],
                     [0, 1, 2], [1, big + 1, big + 3]], dtype=np.int32)
    assert alpha_mesh._sole_faces(tris).tolist() == [3, 1, 4]


def test_auto_build_leaves_scipy_ndimage_unimported():
    # `_shell` imports the EDT lazily; only a numeric alpha on a point cloud
    # needs it, not "auto" nor the one-slab build of a raw point array
    script = (
        "import sys, spinekit as sk\n"
        "v = sk.make_sphere_phantom(10.0, (1.0, 1.0, 1.0), 100, 0, 1)\n"
        "points = sk.extract_label_points(v, 1)\n"
        "sk.build_alpha_shape(points, alpha='auto')\n"
        "print('scipy.ndimage' in sys.modules)\n"
        "sk.build_alpha_shape(points.points, alpha=points.voxel_diagonal)\n"
        "print('scipy.ndimage' in sys.modules)\n"
        "sk.build_alpha_shape(points, alpha=points.voxel_diagonal)\n"
        "print('scipy.ndimage' in sys.modules)\n")
    paths = [str(Path(sk.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "True"]
