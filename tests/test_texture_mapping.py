"""HU mapping criteria against brute-force scans on the phantoms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinekit as sk
from spinekit.errors import MappingError

from conftest import (brute_force_nearest, lattice_nearest_oracle,
                      lattice_source_oracle)

CRITERIA = ("internal", "euclidean", "external")
SPACINGS = ((1.0, 1.0, 1.0), (0.8, 0.8, 1.25), (0.5, 1.0, 2.0))


@pytest.fixture(scope="module")
def textures(sphere_volume, sphere_mesh):
    return {crit: sk.map_grey(sphere_mesh, sphere_volume, 1, crit)
            for crit in ("internal", "euclidean", "external")}


def test_internal_all_inside_value(textures):
    assert np.all(textures["internal"].hu == 100)


def test_external_all_outside_value(textures):
    assert np.all(textures["external"].hu == 0)


def test_euclidean_two_valued(textures):
    assert set(np.unique(textures["euclidean"].hu)) <= {0, 100}


def test_source_voxels_satisfy_candidate_rule(sphere_volume, textures):
    for name, want_label in (("internal", True), ("external", False)):
        src = textures[name].source_voxel
        labels = sphere_volume.labels[src[:, 0], src[:, 1], src[:, 2]]
        if want_label:
            assert np.all(labels == 1)
        else:
            assert np.all(labels != 1)


def _all_voxel_candidates(volume, criterion_mask):
    nx, ny, nz = volume.dims
    flat = criterion_mask.reshape(-1, order="F")
    lin = np.nonzero(flat)[0]
    i = lin % nx
    j = (lin // nx) % ny
    k = lin // (nx * ny)
    ijk = np.stack([i, j, k], axis=1)
    return ijk, volume.voxel_centroids_mm(ijk)


def test_euclidean_matches_brute_force_scan(sphere_volume, sphere_mesh, textures):
    # full-volume scan (25^3 fits the 32^3 crop budget), lowest-linear-index ties
    ijk, coords = _all_voxel_candidates(
        sphere_volume, np.ones(sphere_volume.dims, dtype=bool))
    oracle = brute_force_nearest(coords, sphere_mesh.vertices)
    np.testing.assert_array_equal(textures["euclidean"].source_voxel, ijk[oracle])


def test_internal_matches_brute_force_scan(sphere_volume, sphere_mesh, textures):
    ijk, coords = _all_voxel_candidates(sphere_volume, sphere_volume.labels == 1)
    oracle = brute_force_nearest(coords, sphere_mesh.vertices)
    np.testing.assert_array_equal(textures["internal"].source_voxel, ijk[oracle])


def test_euclidean_distance_dominance(sphere_volume, sphere_mesh, textures):
    def dists(tex):
        src_mm = sphere_volume.voxel_centroids_mm(tex.source_voxel)
        return np.linalg.norm(src_mm - sphere_mesh.vertices, axis=1)

    d_euc = dists(textures["euclidean"])
    d_int = dists(textures["internal"])
    d_ext = dists(textures["external"])
    assert np.all(d_euc <= d_int + 1e-12)
    assert np.all(d_euc <= d_ext + 1e-12)


def test_mapping_determinism(sphere_volume, sphere_mesh, textures):
    again = sk.map_grey(sphere_mesh, sphere_volume, 1, "euclidean")
    np.testing.assert_array_equal(again.hu, textures["euclidean"].hu)
    np.testing.assert_array_equal(again.source_voxel,
                                  textures["euclidean"].source_voxel)


def test_missing_label_mapping_error(sphere_volume, sphere_mesh):
    with pytest.raises(MappingError):
        sk.map_grey(sphere_mesh, sphere_volume, 99, "internal")
    # background voxels carry no label: label 0 is never a mesh's own label
    corner = sk.TriangleMesh(vertices=np.array([[0.5, 0.5, 0.5]]),
                             triangles=np.zeros((0, 3), dtype=int))
    with pytest.raises(MappingError):
        sk.map_grey(corner, sphere_volume, 0, "external")


def test_external_empty_when_everything_labeled(sphere_mesh):
    dims = (4, 4, 4)
    vol = sk.LabeledVolume(dims=dims, spacing=(1, 1, 1),
                           hu=np.zeros(dims, dtype=np.int16),
                           labels=np.full(dims, 3, dtype=np.uint16))
    tiny = sk.TriangleMesh(vertices=np.array([[2.0, 2.0, 2.0]]),
                           triangles=np.zeros((0, 3), dtype=int))
    with pytest.raises(MappingError):
        sk.map_grey(tiny, vol, 3, "external")


@pytest.fixture(scope="module")
def anisotropic_sphere():
    volume = sk.make_sphere_phantom(10.0, (0.8, 0.8, 1.25), 100, 0, 1)
    points = sk.extract_label_points(volume, 1)
    return volume, sk.build_alpha_shape(points, alpha=points.voxel_diagonal,
                                        source_label=1)


@pytest.fixture(scope="module")
def phantom_meshes(sphere_volume, sphere_mesh, compound, compound_mesh,
                   anisotropic_sphere):
    return {"sphere": (sphere_volume, sphere_mesh),
            "compound": (compound[0], compound_mesh),
            "anisotropic_sphere": anisotropic_sphere}


@pytest.mark.parametrize("criterion", CRITERIA)
@pytest.mark.parametrize("phantom", ("sphere", "compound", "anisotropic_sphere"))
def test_source_voxels_match_lattice_oracle(phantom_meshes, phantom, criterion):
    volume, mesh = phantom_meshes[phantom]
    tex = sk.map_grey(mesh, volume, 1, criterion)
    oracle = lattice_source_oracle(volume, 1, mesh.vertices, criterion)
    np.testing.assert_array_equal(tex.source_voxel, oracle)
    np.testing.assert_array_equal(tex.hu, volume.hu[tuple(oracle.T)])


def _centroid_mesh(ijk, spacing):
    """Vertex-only mesh on the centroids of the voxels `ijk`."""
    return sk.TriangleMesh(vertices=(np.asarray(ijk) + 0.5) * np.asarray(spacing),
                           triangles=np.zeros((0, 3), dtype=int))


def _voxel_mesh(volume, label):
    """Vertex-only mesh on every voxel centroid of `label`."""
    return _centroid_mesh(np.argwhere(volume.labels == label), volume.spacing)


def _volume(labels, spacing=(1.0, 1.0, 1.0)):
    labels = np.asarray(labels, dtype=np.uint16)
    hu = np.arange(labels.size, dtype=np.int16).reshape(labels.shape)
    return sk.LabeledVolume(dims=labels.shape, spacing=spacing, hu=hu,
                            labels=labels)


@settings(max_examples=60, deadline=None)
@given(shape=st.tuples(*[st.integers(1, 6)] * 3),
       spacing=st.sampled_from(SPACINGS),
       fill=st.floats(0.3, 0.95),
       seed=st.integers(0, 2 ** 32 - 1))
def test_mapping_matches_lattice_oracle_on_random_fields(shape, spacing, fill, seed):
    rng = np.random.default_rng(seed)
    labels = np.where(rng.random(shape) < fill, 1, rng.integers(0, 3, shape))
    labels.flat[rng.integers(labels.size)] = 1
    volume = _volume(labels, spacing)
    mesh = _voxel_mesh(volume, 1)
    for criterion in CRITERIA:
        if criterion == "external" and np.all(labels == 1):
            with pytest.raises(MappingError):
                sk.map_grey(mesh, volume, 1, criterion)
            continue
        tex = sk.map_grey(mesh, volume, 1, criterion)
        np.testing.assert_array_equal(
            tex.source_voxel, lattice_source_oracle(volume, 1, mesh.vertices, criterion))


@pytest.mark.parametrize("spacing", SPACINGS)
def test_external_reaches_one_distant_voxel_from_every_voxel(spacing):
    # every voxel of a label that fills the volume but one: the nearest voxel
    # without the label lies up to 14 voxels away on an axis
    labels = np.ones((15, 15, 15), dtype=np.uint16)
    labels[12, 3, 9] = 0
    volume = _volume(labels, spacing)
    mesh = _voxel_mesh(volume, 1)
    tex = sk.map_grey(mesh, volume, 1, "external")
    assert len(tex.source_voxel) == 15 ** 3 - 1
    assert np.all(tex.source_voxel == [12, 3, 9])
    np.testing.assert_array_equal(
        tex.source_voxel, lattice_source_oracle(volume, 1, mesh.vertices, "external"))


@pytest.mark.parametrize("spacing", SPACINGS)
def test_facing_vertices_match_lattice_oracle(spacing):
    # small random lattice clouds are full of distance ties; on anisotropic
    # spacings mm coordinates round them apart, integer offsets do not
    rng = np.random.default_rng(13)
    for _ in range(50):
        cells = rng.permutation(7 ** 3)[:rng.integers(2, 60)]
        ijk = np.stack(np.unravel_index(cells, (7, 7, 7)), axis=1)
        half = rng.integers(1, len(ijk))
        a, b = ijk[:half], ijk[half:]
        fa, fb = sk.facing_vertices(_centroid_mesh(a, spacing),
                                    _centroid_mesh(b, spacing), spacing)
        np.testing.assert_array_equal(
            fa, np.unique(lattice_nearest_oracle(a, b, spacing)))
        np.testing.assert_array_equal(
            fb, np.unique(lattice_nearest_oracle(b, a, spacing)))


def test_external_fails_cleanly_when_label_fills_volume():
    volume = _volume(np.full((4, 4, 4), 3))
    with pytest.raises(MappingError, match="no voxel outside label 3"):
        sk.map_grey(_voxel_mesh(volume, 3), volume, 3, "external")


@pytest.mark.parametrize("vertex", (
    [1.0, 1.5, 1.5],        # off the voxel-centroid lattice
    [1.5, 1.5, 1.5 + 1e-9],  # off the lattice by less than rounding to a voxel
    [4.5, 1.5, 1.5],        # a centroid outside the volume
    [0.5, 0.5, 0.5],        # a voxel centroid of another label
    [np.nan, 1.5, 1.5]))
def test_vertex_off_own_voxel_centroids_mapping_error(vertex):
    labels = np.ones((4, 4, 4), dtype=np.uint16)
    labels[0, 0, 0] = 2
    volume = _volume(labels)
    mesh = sk.TriangleMesh(vertices=np.array([[2.5, 2.5, 2.5], vertex]),
                           triangles=np.zeros((0, 3), dtype=int))
    for criterion in CRITERIA:
        with pytest.raises(MappingError, match="not voxel centroids of label 1"):
            sk.map_grey(mesh, volume, 1, criterion)


def test_criterion_parsing(sphere_volume, sphere_mesh):
    tex = sk.map_grey(sphere_mesh, sphere_volume, 1, "Internal")
    assert tex.criterion == "internal"
    with pytest.raises(MappingError, match="unknown mapping criterion 'nearest'"):
        sk.map_grey(sphere_mesh, sphere_volume, 1, "nearest")


# --------------------------------------------------------- region aggregation

def _labeling(regions):
    th = sk.Thresholds(t1=1.0, t2=2.0, t3=3.0)
    return sk.RegionLabeling(regions=np.asarray(regions, dtype=np.int8),
                             thresholds=th)


def _texture(hu):
    return sk.VertexTexture(hu=np.asarray(hu), criterion="internal",
                            source_voxel=np.zeros((len(hu), 3), dtype=int))


def test_region_mean_all_body():
    means = sk.region_mean_hu(_texture([100, 100, 100]), _labeling([0, 0, 0]))
    assert means == {"body": 100.0, "arch": None, "process": None}


def test_region_mean_two_valued():
    means = sk.region_mean_hu(_texture([100, 100, 0, 0]), _labeling([0, 0, 2, 2]))
    assert means == {"body": 100.0, "arch": None, "process": 0.0}


def test_region_mean_constant_everywhere():
    means = sk.region_mean_hu(_texture([100, 100, 100]), _labeling([0, 1, 2]))
    assert means == {"body": 100.0, "arch": 100.0, "process": 100.0}


def test_two_valued_phantom_exactness(sphere_volume, sphere_mesh, textures):
    # every region mean under internal/external equals the phantom constants
    samples = sk.distance_distribution(sphere_mesh, sphere_volume.centroids[1])
    curve = sk.estimate_density(samples)
    th = sk.degraded_thresholds(curve)
    labeling = sk.classify_vertices(samples, th)
    for crit, value in (("internal", 100.0), ("external", 0.0)):
        means = sk.region_mean_hu(textures[crit], labeling)
        for mean in means.values():
            assert mean is None or mean == value
