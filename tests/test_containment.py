"""Exact column-crossing voxelizer against the winding-number oracle, and
the oracle itself on grid-degenerate query positions."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import spinekit as sk
from spinekit.alpha_mesh import triangulation_pool
from spinekit.errors import MeshContractError, ReconstructionError
from spinekit.interspace import voxel_winding
from spinekit.report_cli import (PipelineConfig, _process_pair, _process_vertebra,
                                 _vertebra_builds)

from conftest import (disc_interspace, interspace_stats_reference,
                      perfbench_spine, points_inside_mesh,
                      voxel_winding_reference, winding_numbers)

SPACINGS = [(1.0, 1.0, 1.0), (0.8, 0.8, 1.25), (0.5, 1.0, 2.0)]


def _cube_mesh():
    corners = np.array([[x, y, z] for x in (0.0, 1.0)
                        for y in (0.0, 1.0) for z in (0.0, 1.0)])
    return sk.build_alpha_shape(corners, alpha=10.0)


def test_cube_interior_exterior():
    mesh = _cube_mesh()
    queries = np.array([
        [0.5, 0.5, 0.5],      # center
        [0.25, 0.75, 0.5],    # generic interior
        [1.5, 0.5, 0.5],      # outside, axis-aligned with faces
        [-1.0, 0.0, 0.0],     # outside, collinear with an edge
        [2.0, 2.0, 2.0],      # outside, diagonal from a corner
    ])
    winding, on = winding_numbers(queries, mesh.vertices, mesh.triangles)
    assert winding.tolist() == [1, 1, 0, 0, 0]
    assert not on.any()


def test_cube_on_surface_detection():
    mesh = _cube_mesh()
    queries = np.array([
        [0.0, 0.0, 0.0],      # corner
        [0.5, 0.0, 0.0],      # edge interior
        [0.5, 0.5, 0.0],      # face interior
        [0.5, 0.5, 1.0],      # top face interior
    ])
    _, on = winding_numbers(queries, mesh.vertices, mesh.triangles)
    assert on.all()


def test_grid_aligned_queries_are_robust():
    # every query shares coordinates with mesh vertices: vertical/horizontal
    # rays through vertices and edges must still classify consistently
    mesh = _cube_mesh()
    eps = 0.25
    inside = np.array([[eps, eps, eps], [1 - eps, eps, eps],
                       [eps, 1 - eps, 1 - eps]])
    outside = inside + np.array([0.0, 0.0, 2.0])
    win_in, on_in = winding_numbers(inside, mesh.vertices, mesh.triangles)
    win_out, on_out = winding_numbers(outside, mesh.vertices, mesh.triangles)
    assert np.all(win_in == 1) and not on_in.any()
    assert np.all(win_out == 0) and not on_out.any()


def test_sphere_labeled_centroids_never_outside(sphere_volume, sphere_mesh):
    # the label field is the containment oracle: labeled voxel centroids are
    # enclosed, and strictly-inside centroids carrying no label can only be
    # concavities swallowed by the alpha shape (never the reverse leak)
    spacing = np.asarray(sphere_volume.spacing)
    axes = [(np.arange(n) + 0.5) * s for n, s in zip(sphere_volume.dims, spacing)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    labeled = (sphere_volume.labels > 0).reshape(-1)
    inside, on = points_inside_mesh(centers, sphere_mesh)
    assert not np.any(labeled & ~(inside | on))


def test_winding_against_halfspace_count(sphere_mesh):
    # interior sample: voxel count inside the mesh must match a plain
    # even-odd ray cast along +x on generic (non-degenerate) probes
    rng = np.random.default_rng(8)
    probes = rng.uniform(5.0, 20.0, (80, 3))    # irrational coords: no ties
    inside, on = points_inside_mesh(probes, sphere_mesh)
    assert not on.any()
    tri = sphere_mesh.vertices[sphere_mesh.triangles]
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    for p, expect in zip(probes, inside):
        # even-odd crossings of the ray p + t*(1,0,0), t > 0
        crossings = 0
        for i in range(len(a)):
            pa, pb, pc = a[i] - p, b[i] - p, c[i] - p
            # triangle straddles the ray line in (y, z)?
            d1 = pa[1] * pb[2] - pa[2] * pb[1]
            d2 = pb[1] * pc[2] - pb[2] * pc[1]
            d3 = pc[1] * pa[2] - pc[2] * pa[1]
            if (d1 > 0) == (d2 > 0) == (d3 > 0):
                s = d1 + d2 + d3
                x = (d1 * pc[0] + d2 * pa[0] + d3 * pb[0]) / s
                if x > 0:
                    crossings += 1
        assert (crossings % 2 == 1) == bool(expect)


# ------------------------------------------------- column-crossing voxelizer

def _lattice_volume(dims, spacing, seed=0) -> sk.LabeledVolume:
    rng = np.random.default_rng(seed)
    return sk.LabeledVolume(
        dims=dims, spacing=spacing,
        hu=rng.integers(-1000, 1000, dims).astype(np.int16),
        labels=(rng.random(dims) < 0.2).astype(np.uint16))


def _assert_matches_oracle(volume, mesh):
    lo, winding, on = voxel_winding(volume, mesh)
    ref_lo, ref_winding, ref_on = voxel_winding_reference(volume, mesh)
    np.testing.assert_array_equal(lo, ref_lo)
    np.testing.assert_array_equal(on, ref_on)
    np.testing.assert_array_equal(winding, ref_winding)
    return lo, winding, on


def _stats_tuple(stats) -> tuple:
    return (stats.hu_mean, stats.hu_sum, stats.voxel_count, stats.excluded_count)


def _stats_of(volume, mesh) -> tuple:
    return _stats_tuple(sk.interspace_voxel_stats(volume, mesh))


_cloud = st.lists(st.tuples(*[st.integers(0, 5)] * 3), min_size=4, max_size=30,
                  unique=True)


@settings(max_examples=150, deadline=None)
@given(cloud=_cloud, spacing=st.sampled_from(SPACINGS),
       alpha=st.sampled_from([None, sk.AUTO, 1.0, 1.5, 3.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_voxel_winding_matches_oracle(cloud, spacing, alpha, seed):
    # alpha shapes (in voxel diagonals) and hulls (None) of lattice clouds in
    # a volume tight around them, so the mesh box reaches the volume border
    ijk = np.asarray(cloud)
    ijk -= ijk.min(axis=0)
    dims = tuple(int(d) for d in ijk.max(axis=0) + 1)
    volume = _lattice_volume(dims, spacing, seed)
    if alpha is None:
        alpha = 1e6
    elif alpha != sk.AUTO:
        alpha *= volume.voxel_diagonal
    try:
        mesh = sk.build_alpha_shape(volume.voxel_centroids_mm(ijk), alpha=alpha)
    except ReconstructionError:
        assume(False)
    _assert_matches_oracle(volume, mesh)
    assert _stats_of(volume, mesh) == interspace_stats_reference(volume, mesh)


def test_anisotropic_hull_on_surface_voxel():
    # at 0.8 x 0.8 x 1.25 mm, mm-float arithmetic misses that voxel (0, 1, 2)
    # lies on this hull; on voxel indices the test is exact
    ijk = np.array([[0, 0, 4], [0, 2, 0], [1, 0, 0], [3, 0, 1], [3, 3, 4],
                    [3, 4, 2], [3, 4, 3], [4, 1, 4], [4, 2, 0]])
    volume = _lattice_volume((5, 5, 5), (0.8, 0.8, 1.25))
    mesh = sk.build_alpha_shape(volume.voxel_centroids_mm(ijk), alpha=1e6)
    lo, winding, on = _assert_matches_oracle(volume, mesh)
    assert on[tuple(np.array([0, 1, 2]) - lo)]


def _cube(volume, lo, hi, outward=True):
    """Hull of the 8 lattice corners of the index box [lo, hi]^3."""
    corners = np.array([[x, y, z] for x in (lo, hi) for y in (lo, hi)
                        for z in (lo, hi)])
    mesh = sk.build_alpha_shape(volume.voxel_centroids_mm(corners), alpha=1e6)
    return mesh.vertices, mesh.triangles if outward else mesh.triangles[:, ::-1]


def _union(*parts) -> sk.TriangleMesh:
    vertices, triangles, base = [], [], 0
    for v, t in parts:
        vertices.append(v)
        triangles.append(t + base)
        base += len(v)
    return sk.TriangleMesh(vertices=np.vstack(vertices),
                           triangles=np.vstack(triangles))


def test_island_in_discarded_cavity_has_winding_two():
    # a solid shell [0, 10]^3 with a cavity [2, 8]^3 holding an island
    # [3, 7]^3: build_alpha_shape keeps the outer surface and the island and
    # discards the cavity surface, so the island's voxels have winding 2
    volume = _lattice_volume((11, 11, 11), (0.5, 1.0, 2.0))
    mesh = _union(_cube(volume, 0, 10), _cube(volume, 3, 7))
    _, winding, on = _assert_matches_oracle(volume, mesh)
    assert np.all(winding[4:7, 4:7, 4:7] == 2)
    assert on[3:8, 3:8, 3:8].sum() == 5 ** 3 - 3 ** 3
    assert np.all(winding[1:10, 1:10, 1:10][~on[1:10, 1:10, 1:10]] >= 1)
    assert _stats_of(volume, mesh) == interspace_stats_reference(volume, mesh)
    # every voxel strictly inside the shell counts, bar the island's surface
    assert sum(_stats_of(volume, mesh)[2:]) == 9 ** 3 - (5 ** 3 - 3 ** 3)

    # with the inward cavity surface kept, the cavity is outside and the
    # island is inside once
    kept = _union(_cube(volume, 0, 10), _cube(volume, 2, 8, outward=False),
                  _cube(volume, 3, 7))
    _, winding, on = _assert_matches_oracle(volume, kept)
    assert np.all(winding[4:7, 4:7, 4:7] == 1)
    assert np.all(winding[2:9, 2:9, 2:9][~on[2:9, 2:9, 2:9]] <= 1)
    assert winding[2:9, 2:9, 2:9].sum() == 27


def test_off_lattice_vertex_is_a_contract_error():
    volume = _lattice_volume((6, 6, 6), (0.8, 0.8, 1.25))
    vertices, triangles = _cube(volume, 1, 4)
    for shift in ([0.1, 0.0, 0.0], [0.0, 0.0, 5 * 1.25]):   # off grid, outside
        moved = vertices.copy()
        moved[0] += shift
        mesh = sk.TriangleMesh(vertices=moved, triangles=triangles)
        with pytest.raises(MeshContractError):
            sk.interspace_voxel_stats(volume, mesh)


def test_zero_area_triangles_mark_their_segment():
    # four collinear lattice points as a closed, flat tetrahedron: every
    # lattice point of the segment lies on the surface, none inside
    volume = _lattice_volume((8, 8, 8), (0.8, 0.8, 1.25))
    line = np.array([[0, 0, 0], [2, 2, 2], [3, 3, 3], [6, 6, 6]])
    flat = sk.TriangleMesh(vertices=volume.voxel_centroids_mm(line),
                           triangles=np.array([[0, 1, 2], [0, 2, 3],
                                               [0, 3, 1], [1, 3, 2]]))
    _, winding, on = _assert_matches_oracle(volume, flat)
    assert np.flatnonzero(on).tolist() == [k * (49 + 7 + 1) for k in range(7)]
    assert not winding.any()


def _anisotropic_disc_interspace():
    volume, _ = sk.make_disc_pair(8.0, 5.0, 4.0, (0.8, 0.8, 1.25), (1, 2),
                                  hu_in=100, hu_out=-50)
    meshes, samples, thresholds = {}, {}, {}
    for label in (1, 2):
        pts = sk.extract_label_points(volume, label)
        meshes[label] = sk.build_alpha_shape(pts, alpha=pts.voxel_diagonal)
        samples[label] = sk.distance_distribution(meshes[label],
                                                  volume.centroids[label])
        curve = sk.estimate_density(samples[label],
                                    min_bandwidth=volume.voxel_diagonal / 2.0)
        thresholds[label] = sk.degraded_thresholds(curve)
    fa, fb = sk.facing_vertices(meshes[1], meshes[2], volume.spacing)
    fa = sk.filter_body(fa, samples[1], thresholds[1])
    fb = sk.filter_body(fb, samples[2], thresholds[2])
    return volume, sk.build_interspace(meshes[1], meshes[2], fa, fb)


@pytest.mark.parametrize("gap", [2.0, 4.0, 8.0, "anisotropic"])
def test_phantom_interspaces_match_oracle(gap):
    if gap == "anisotropic":
        volume, imesh = _anisotropic_disc_interspace()
    else:
        chain = disc_interspace(gap)
        volume, imesh = chain["volume"], chain["interspace"]
    _assert_matches_oracle(volume, imesh)
    assert (_stats_tuple(sk.interspace_voxel_stats(volume, imesh))
            == interspace_stats_reference(volume, imesh))


@pytest.mark.parametrize("name", ["lumbar_r25", "stack_auto", "fov_sparse"])
def test_workload_pairs_match_oracle(name):
    # the pipeline's own vertebra and pair steps on seed 1 of each benchmark
    # spine, built in memory
    spine = perfbench_spine()
    workload = spine.WORKLOADS[name]
    volume, truth = spine.build_spine(workload, 1)
    cfg = PipelineConfig(input_path="", out_dir="", alpha=workload.alpha,
                         criteria=("internal",))
    warnings, arts = [], {}
    with triangulation_pool() as pool:
        for label, started in _vertebra_builds(volume, list(truth.levels), cfg, pool):
            arts[label] = _process_vertebra(volume, label, cfg, warnings, started)[1]
    for lo, hi in truth.pairs:
        rec, imesh = _process_pair(volume, lo, hi, arts, warnings)
        _assert_matches_oracle(volume, imesh)
        assert ((rec["hu_mean"], rec["hu_sum"], rec["voxel_count"],
                 rec["excluded_count"])
                == interspace_stats_reference(volume, imesh))
