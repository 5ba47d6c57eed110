"""Shared phantom fixtures and brute-force oracles."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, settings
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

import spinekit as sk
from spinekit.region_segmentation import _refine_roots

# Every property test runs without the explain phase: its line tracing of
# one failing example has grown a test process past 6 GiB.
settings.register_profile(
    "spinekit", phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
settings.load_profile("spinekit")


# ---------------------------------------------------------------- oracles

_PAIR_BUDGET = 500_000  # point x triangle cells per chunk, bounds peak memory


def _first_nonzero_sign(*terms: np.ndarray) -> np.ndarray:
    """Sign of the first nonzero term, elementwise; 0 if all vanish."""
    out = np.sign(terms[0])
    for term in terms[1:]:
        mask = out == 0
        if not mask.any():
            break
        out = np.where(mask, np.sign(term), out)
    return out


def _vertex_signs(d: np.ndarray) -> np.ndarray:
    return _first_nonzero_sign(d[..., 0], d[..., 1], d[..., 2])


def _edge_signs(dp: np.ndarray, dq: np.ndarray) -> np.ndarray:
    e1 = dp[..., 1] * dq[..., 0] - dp[..., 0] * dq[..., 1]
    e2 = dp[..., 2] * dq[..., 0] - dp[..., 0] * dq[..., 2]
    e3 = dp[..., 2] * dq[..., 1] - dp[..., 1] * dq[..., 2]
    return _first_nonzero_sign(e1, e2, e3)


def _winding_chunk(o: np.ndarray, tri_pts: np.ndarray):
    # displaced triangle corners, shape (C, T, 3)
    dp = tri_pts[None, :, 0, :] - o[:, None, :]
    dq = tri_pts[None, :, 1, :] - o[:, None, :]
    dr = tri_pts[None, :, 2, :] - o[:, None, :]

    sp = _vertex_signs(dp)
    sq = _vertex_signs(dq)
    sr = _vertex_signs(dr)
    on = (sp == 0) | (sq == 0) | (sr == 0)   # point coincides with a corner

    epq = _edge_signs(dp, dq)
    eqr = _edge_signs(dq, dr)
    erp = _edge_signs(dr, dp)
    # an edge whose endpoints straddle the point but whose sign chain
    # vanishes passes through the point
    on |= (sp != sq) & (epq == 0)
    on |= (sq != sr) & (eqr == 0)
    on |= (sr != sp) & (erp == 0)

    boundary = (np.where(sp != sq, epq, 0)
                + np.where(sq != sr, eqr, 0)
                + np.where(sr != sp, erp, 0))

    det = np.einsum("...i,...i->...", dp, np.cross(dq, dr))
    tri_sign = np.sign(det)
    on |= (boundary != 0) & (tri_sign == 0)  # face passes through the point

    contrib = np.where((boundary != 0) & ~on, tri_sign, 0.0)
    point_on = on.any(axis=1)
    winding = np.rint(contrib.sum(axis=1) / 2.0).astype(np.int64)
    return winding, point_on


def winding_numbers(points: np.ndarray, vertices: np.ndarray,
                    triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Generalized winding number (Jacobson et al. 2013) of the surface
    around each point, accumulated triangle by triangle with sign chains on
    lexicographic vertex comparisons, so rays through vertices, edges or
    coplanar faces resolve consistently.

    Returns (winding, on_surface).  Winding is 1 for points strictly inside
    a simple outward-oriented surface and 0 outside; it is left at 0 where
    on_surface is True.  Exact when every coordinate and every product of
    two differences is exact in float64, as for half-integer coordinates.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int64)
    n = len(points)
    winding = np.zeros(n, dtype=np.int64)
    on_surface = np.zeros(n, dtype=bool)
    if len(triangles) == 0 or n == 0:
        return winding, on_surface

    tri_pts = vertices[triangles]            # (T, 3, 3)
    chunk = max(1, _PAIR_BUDGET // len(triangles))
    for start in range(0, n, chunk):
        w, on = _winding_chunk(points[start:start + chunk], tri_pts)
        winding[start:start + chunk] = w
        on_surface[start:start + chunk] = on
    winding[on_surface] = 0
    return winding, on_surface


def points_inside_mesh(points: np.ndarray, mesh) -> tuple[np.ndarray, np.ndarray]:
    """Strict-interior and on-surface masks for `points` against a mesh."""
    winding, on = winding_numbers(points, mesh.vertices, mesh.triangles)
    return winding != 0, on


def voxel_winding_reference(volume: sk.LabeledVolume, mesh):
    """(lo, winding, on) over the mesh's voxel index box, like
    `voxel_winding`, from the winding-number oracle evaluated on index
    coordinates ijk + 0.5, which float64 holds exactly at any spacing."""
    spacing = np.asarray(volume.spacing)
    ijk = np.floor(np.asarray(mesh.vertices) / spacing).astype(np.int64)
    np.testing.assert_array_equal((ijk + 0.5) * spacing, mesh.vertices)
    lo, hi = ijk.min(axis=0), ijk.max(axis=0) + 1
    box = np.stack(np.meshgrid(*[np.arange(a, b) for a, b in zip(lo, hi)],
                               indexing="ij"), axis=-1).reshape(-1, 3)
    winding, on = winding_numbers(box + 0.5, ijk + 0.5, mesh.triangles)
    shape = tuple(hi - lo)
    return lo, winding.reshape(shape), on.reshape(shape)


def interspace_stats_reference(volume: sk.LabeledVolume, mesh) -> tuple:
    """(hu_mean, hu_sum, voxel_count, excluded_count) of the voxels the
    index-coordinate oracle puts strictly inside `mesh`."""
    lo, winding, _ = voxel_winding_reference(volume, mesh)
    ijk = np.argwhere(winding != 0) + lo
    labels = volume.labels[ijk[:, 0], ijk[:, 1], ijk[:, 2]]
    sel = ijk[labels == 0]
    hu_sum = int(volume.hu[sel[:, 0], sel[:, 1], sel[:, 2]].sum(dtype=np.int64))
    return (hu_sum / len(sel) if len(sel) else None, hu_sum, len(sel),
            int((labels != 0).sum()))


def brute_force_nearest(data: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """All-pairs nearest neighbor with lowest-index tie-breaking."""
    data = np.asarray(data, dtype=float)
    queries = np.asarray(queries, dtype=float)
    out = np.empty(len(queries), dtype=np.int64)
    chunk = max(1, 2_000_000 // max(len(data), 1))
    for start in range(0, len(queries), chunk):
        q = queries[start:start + chunk]
        d2 = ((q[:, None, :] - data[None, :, :]) ** 2).sum(axis=-1)
        out[start:start + chunk] = np.argmin(d2, axis=1)  # first min = lowest index
    return out


def label_points_reference(volume: sk.LabeledVolume, label: int) -> np.ndarray:
    """mm centroids of the voxels carrying `label`, from one `flat == label`
    scan of the volume, in ascending linear index i + nx*(j + ny*k)."""
    nx, ny, nz = volume.dims
    flat = volume.labels.reshape(-1, order="F")
    lin = np.nonzero(flat == label)[0]
    i = lin % nx
    j = (lin // nx) % ny
    k = lin // (nx * ny)
    return volume.voxel_centroids_mm(np.stack([i, j, k], axis=1))


def lattice_source_oracle(volume: sk.LabeledVolume, label: int, vertices,
                          criterion: str) -> np.ndarray:
    """Brute-force source voxel of each vertex under one mapping criterion.

    Squared distance is sum((d*s)**2) from the integer offset d between the
    vertex's voxel and a candidate voxel; ties go to the lowest linear index.
    Voxels outside the label's bounding box grown by one voxel are skipped:
    clamping one into that box gives a candidate strictly nearer the vertex.
    """
    s = np.asarray(volume.spacing)
    own = np.floor(np.asarray(vertices) / s).astype(np.int64)
    box = np.argwhere(volume.labels == label)
    lo = np.maximum(box.min(axis=0) - 1, 0)
    hi = np.minimum(box.max(axis=0) + 2, volume.dims)
    sub = volume.labels[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]]
    keep = {"internal": sub == label, "external": sub != label,
            "euclidean": np.ones(sub.shape, dtype=bool)}[criterion]
    # rows of a (z, y, x) argwhere ascend in linear index i + nx*(j + ny*k)
    cand = np.argwhere(keep.transpose(2, 1, 0))[:, ::-1] + lo
    return cand[lattice_nearest_oracle(cand, own, s)]


def lattice_nearest_oracle(data, queries, spacing) -> np.ndarray:
    """Row of the nearest of the (N, 3) integer voxel indices `data` to each
    (Q, 3) integer query: squared distance sum((d*s)**2) over the integer
    offset d, ties to the lowest row."""
    data, queries = np.asarray(data), np.asarray(queries)
    s = np.asarray(spacing, dtype=float)
    out = np.empty(len(queries), dtype=np.int64)
    chunk = max(1, 200_000 // len(data))  # small blocks stay in cache
    for start in range(0, len(queries), chunk):
        d = data[None, :, :] - queries[start:start + chunk, None, :]
        d2 = ((d * s) ** 2).sum(axis=-1)
        out[start:start + chunk] = np.argmin(d2, axis=1)  # first min
    return out


def boundary_voxel_centroids(volume: sk.LabeledVolume, label: int) -> np.ndarray:
    """Centroids of labeled voxels with an unlabeled 6-neighbor (mesh-vertex
    oracle that never touches the reconstruction code)."""
    mask = volume.labels == label
    exposed = np.zeros_like(mask)
    padded = np.pad(mask, 1, constant_values=False)
    for axis in range(3):
        for shift in (1, -1):
            rolled = np.roll(padded, shift, axis=axis)[1:-1, 1:-1, 1:-1]
            exposed |= ~rolled
    ijk = np.argwhere(mask & exposed)
    return volume.voxel_centroids_mm(ijk)


def vertex_region_truth(mesh, volume: sk.LabeledVolume, truth) -> np.ndarray:
    """Ground-truth Region value per mesh vertex, from the phantom's part ids."""
    ijk = np.floor(np.asarray(mesh.vertices) / np.asarray(volume.spacing)).astype(int)
    part = truth.region_id[ijk[:, 0], ijk[:, 1], ijk[:, 2]]
    lookup = {1: int(sk.Region.BODY), 2: int(sk.Region.ARCH),
              3: int(sk.Region.PROCESS)}
    return np.array([lookup[p] for p in part], dtype=np.int8)


def sorted_boundary_faces(jit: np.ndarray, tets: np.ndarray,
                          keep: np.ndarray) -> np.ndarray:
    """Alpha-shape boundary by counting faces: every face of every kept
    tetrahedron, lexsorted by sorted-vertex key; keys that occur once are
    the boundary, each written as its key with the last two vertices
    swapped where the key faces the tetrahedron's fourth vertex."""
    kt = tets[keep]
    if len(kt) == 0:
        return np.zeros((0, 3), dtype=np.int64)
    faces = kt[:, [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]].reshape(-1, 3)
    opp = kt.reshape(-1)
    key = np.sort(faces, axis=1)
    order = np.lexsort((key[:, 2], key[:, 1], key[:, 0]))
    sk_ = key[order]
    differs_prev = np.ones(len(sk_), dtype=bool)
    differs_prev[1:] = np.any(sk_[1:] != sk_[:-1], axis=1)
    differs_next = np.ones(len(sk_), dtype=bool)
    differs_next[:-1] = differs_prev[1:]
    sole = order[differs_prev & differs_next]
    tris = sk_[differs_prev & differs_next].copy()
    d = jit[opp[sole]]
    a, b, c = jit[tris[:, 0]], jit[tris[:, 1]], jit[tris[:, 2]]
    flip = np.einsum("ij,ij->i", np.cross(b - a, c - a), d - a) > 0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    return tris


def undirected_edges(triangles: np.ndarray):
    """Unique undirected edges (sorted vertex pairs) and their use counts."""
    edges = np.concatenate([triangles[:, [0, 1]], triangles[:, [1, 2]],
                            triangles[:, [2, 0]]])
    return np.unique(np.sort(edges, axis=1), axis=0, return_counts=True)


def edge_face_components(tris: np.ndarray) -> np.ndarray:
    """Component id per face from a 2-column lexsort of its edges."""
    nf = len(tris)
    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    face_of = np.tile(np.arange(nf), 3)
    key = np.sort(edges, axis=1)
    order = np.lexsort((key[:, 1], key[:, 0]))
    sk_ = key[order]
    fo = face_of[order]
    same = np.all(sk_[1:] == sk_[:-1], axis=1)
    fa, fb = fo[:-1][same], fo[1:][same]
    graph = coo_matrix((np.ones(len(fa)), (fa, fb)), shape=(nf, nf))
    return connected_components(graph, directed=False)[1]


def euler_characteristic(mesh) -> int:
    """V - E + F of a triangle mesh."""
    return int(len(mesh.vertices) - len(mesh.edge_use_counts()) + len(mesh.triangles))


def extent_mm(volume: sk.LabeledVolume) -> np.ndarray:
    """Size of the volume along each axis in mm."""
    return np.asarray(volume.dims, dtype=float) * np.asarray(volume.spacing)


def voxel_volume(volume: sk.LabeledVolume) -> float:
    """Volume of one voxel in mm^3."""
    return float(np.prod(volume.spacing))


def kernel_sums_reference(curve, x, order: int) -> np.ndarray:
    """One derivative order of the Gaussian KDE at x, one order per pass,
    summed over 4096-sample blocks with every grid row in one block."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros(len(x))
    h = curve.bandwidth
    n = len(curve.samples)
    for start in range(0, n, 4096):
        block = curve.samples[start:start + 4096]
        t = (x[:, None] - block[None, :]) / h
        e = np.exp(-0.5 * t * t)
        if order == 0:
            out += e.sum(axis=1)
        elif order == 1:
            out += (-t * e).sum(axis=1)
        else:
            out += ((t * t - 1.0) * e).sum(axis=1)
    return out / (n * h ** (order + 1) * np.sqrt(2.0 * np.pi))


def density_modes_reference(curve, rows) -> np.ndarray:
    """Interior density maxima from a pass over d1 alone on the curve's
    grid, floored at 0.1% of the grid's peak pdf.  `rows` holds
    `kernel_sums_reference` on the grid for orders 0, 1 and 2."""
    roots, _ = _refine_roots(
        lambda x: float(kernel_sums_reference(curve, x, 1)[0]), curve.grid, rows[1])
    if roots.size == 0:
        return roots
    roots = roots[kernel_sums_reference(curve, roots, 2) < 0]
    floor = 1e-3 * float(rows[0].max())
    return roots[kernel_sums_reference(curve, roots, 0) >= floor]


def density_inflections_reference(curve, rows) -> tuple[np.ndarray, np.ndarray]:
    """Inflections and descending-flank mask from a pass over d2 alone on
    the curve's grid (`rows` as for `density_modes_reference`)."""
    xs, left_sign = _refine_roots(
        lambda x: float(kernel_sums_reference(curve, x, 2)[0]), curve.grid, rows[2])
    return xs, left_sign < 0


def kernel_rows_reference(curve) -> list[np.ndarray]:
    """`kernel_sums_reference` on the curve's grid for orders 0, 1 and 2."""
    return [kernel_sums_reference(curve, curve.grid, order) for order in range(3)]


def perfbench_spine():
    """`perfbench/spine.py` as a module: the benchmark's seeded spines."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spine.py"
    spec = importlib.util.spec_from_file_location("perfbench_spine", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module       # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="session")
def sphere_volume() -> sk.LabeledVolume:
    return sk.make_sphere_phantom(10.0, (1.0, 1.0, 1.0), 100, 0, 1)


@pytest.fixture(scope="session")
def sphere_points(sphere_volume) -> sk.PointCloud:
    return sk.extract_label_points(sphere_volume, 1)


@pytest.fixture(scope="session")
def sphere_mesh(sphere_points) -> sk.TriangleMesh:
    return sk.build_alpha_shape(sphere_points, alpha=sphere_points.voxel_diagonal,
                                source_label=1)


@pytest.fixture(scope="session")
def sphere_mesh_auto(sphere_points) -> sk.TriangleMesh:
    return sk.build_alpha_shape(sphere_points, alpha=sk.AUTO, source_label=1)


@pytest.fixture(scope="session")
def compound():
    return sk.make_compound_vertebra(15.0, 2.5, 4.0, (1.0, 1.0, 1.0), 1)


@pytest.fixture(scope="session")
def compound_mesh(compound) -> sk.TriangleMesh:
    volume, _ = compound
    points = sk.extract_label_points(volume, 1)
    return sk.build_alpha_shape(points, alpha=points.voxel_diagonal, source_label=1)


@pytest.fixture(scope="session")
def compound_segmentation(compound, compound_mesh):
    volume, _ = compound
    samples = sk.distance_distribution(compound_mesh, volume.centroids[1])
    curve = sk.estimate_density(samples)
    thresholds = sk.find_thresholds(curve)
    labeling = sk.classify_vertices(samples, thresholds)
    return samples, curve, thresholds, labeling


@pytest.fixture(scope="session")
def disc_pair():
    return sk.make_disc_pair(15.0, 10.0, 4.0, (1.0, 1.0, 1.0), (1, 2),
                             hu_in=100, hu_out=-50)


_disc_interspace_cache: dict[float, dict] = {}


def disc_interspace(gap: float) -> dict:
    """Full facing/filter/build chain for a disc pair with the given gap."""
    if gap in _disc_interspace_cache:
        return _disc_interspace_cache[gap]
    volume, truth = sk.make_disc_pair(15.0, 10.0, gap, (1.0, 1.0, 1.0), (1, 2),
                                      hu_in=100, hu_out=-50)
    meshes, samples, thresholds = {}, {}, {}
    for label in (1, 2):
        pts = sk.extract_label_points(volume, label)
        meshes[label] = sk.build_alpha_shape(pts, alpha=pts.voxel_diagonal,
                                             source_label=label)
        samples[label] = sk.distance_distribution(meshes[label],
                                                  volume.centroids[label])
        curve = sk.estimate_density(samples[label],
                                    min_bandwidth=volume.voxel_diagonal / 2.0)
        thresholds[label] = sk.degraded_thresholds(curve)
    fa, fb = sk.facing_vertices(meshes[1], meshes[2], volume.spacing)
    fa = sk.filter_body(fa, samples[1], thresholds[1])
    fb = sk.filter_body(fb, samples[2], thresholds[2])
    imesh = sk.build_interspace(meshes[1], meshes[2], fa, fb,
                                centroid_a=volume.centroids[1],
                                centroid_b=volume.centroids[2], labels=(1, 2))
    result = {"volume": volume, "truth": truth, "meshes": meshes,
              "samples": samples, "thresholds": thresholds,
              "facing": (fa, fb), "interspace": imesh}
    _disc_interspace_cache[gap] = result
    return result


@pytest.fixture(scope="session")
def disc_interspace_4():
    return disc_interspace(4.0)
