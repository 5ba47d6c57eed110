"""Alpha-shape surface reconstruction and mesh metrics.

The alpha complex is computed from the Delaunay tetrahedralization of the
point cloud: a tetrahedron belongs to the complex iff its circumradius is at
most alpha, and the surface is the set of triangular faces incident to
exactly one kept tetrahedron.  A face has at most two tetrahedra and the
Delaunay adjacency names the second, so the boundary is read off it: a kept
tetrahedron's face is on the surface iff the neighbor across it is missing
or not kept.  Grid-sampled clouds are full of cospherical and coplanar
degeneracies, so the combinatorial side (triangulation, circumradii, face
orientation) runs on a deterministically micro-jittered copy of the points
while all emitted geometry uses the original coordinates.
Exactly-degenerate tetrahedra then behave as infinitely-thin cells: their
jittered circumradius is huge and they only enter the complex in the
convex-hull regime, which leaves the union solid unchanged.

Alpha complexes are local (Edelsbrunner & Mücke 1994), so a voxel-centroid
cloud (a `PointCloud`) with a numeric alpha is triangulated only near its
border.  Let h be half the voxel diagonal (the lattice covering radius), d(p)
the mm distance from point p to the nearest lattice point outside the cloud
(one EDT of the cloud's index box) and δ the jitter's largest displacement.
For alpha > h (plus a jitter margin, see `_shell`):

- every surface face has its vertices at depth <= alpha + h + δ: its dual
  Voronoi edge holds an empty alpha-ball, and within h of that ball's center
  lies a lattice point the cloud lacks;
- a kept tetrahedron with a vertex v reaches depth at most d(v) + 2α + 2δ, so
  keeping the points with d <= D = 3α + 2h + 2δ leaves every kept tetrahedron
  and every surface face with a vertex shallower than S = α + 2h exactly as
  the full cloud has them;
- faces whose three vertices are all at depth >= S are the wall of the pruned
  hollow; they share no vertex with a surface face and are dropped;
- a point at depth >= S > one voxel diagonal has all 8 of its lattice cubes
  filled, so it lies in a kept cube tetrahedron of the full build, and the
  "points left outside" check needs only the shallower points.

The result equals the full build bit for bit: the jitter is drawn on the
full cloud and each triangle is written from its smallest vertex index.  (A
tetrahedron whose circumradius lies within float rounding of alpha could
round to the other side, as qhull may list its vertices in another order.)
The full build is the case where no point is deep: `alpha="auto"` (its
binary search depends on the candidate radii, which the shell changes), raw
point arrays (no lattice) and alpha within the jitter margin of h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import Delaunay, QhullError

from .errors import MeshContractError, ReconstructionError
from .volume_io import PointCloud

_JITTER_SEED = 0x5EB8A
_JITTER_REL = 1e-6

AUTO = "auto"


@dataclass
class TriangleMesh:
    """Closed, outward-oriented triangle surface in mm."""

    vertices: np.ndarray          # (V, 3) float64
    triangles: np.ndarray         # (T, 3) int, outward-oriented
    source_label: int | None = None
    alpha_used: float = float("nan")
    cavities_discarded: int = 0   # interior boundary components dropped
    n_components: int = 1         # outer boundary components kept

    def __len__(self) -> int:
        return len(self.vertices)

    def edge_use_counts(self) -> np.ndarray:
        """Usage count per undirected edge (closed manifolds are all 2)."""
        return _edge_use_counts(self.triangles)

    def is_closed(self) -> bool:
        counts = self.edge_use_counts()
        return len(counts) > 0 and bool(np.all(counts == 2))

    def euler_characteristic(self) -> int:
        return int(len(self.vertices) - len(self.edge_use_counts())
                   + len(self.triangles))


@dataclass(frozen=True)
class MeshMetrics:
    area: float      # mm^2
    volume: float    # mm^3


def _edge_keys(triangles: np.ndarray) -> np.ndarray:
    """One int64 key lo * n + hi per triangle side, sides 01, 12, 20 stacked."""
    tris = np.asarray(triangles, dtype=np.int64)
    edges = np.sort(np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]],
                                    tris[:, [2, 0]]]), axis=1)
    n = int(tris.max()) + 1 if tris.size else 1
    return edges[:, 0] * n + edges[:, 1]


def _edge_use_counts(triangles: np.ndarray) -> np.ndarray:
    return np.unique(_edge_keys(triangles), return_counts=True)[1]


def _jitter_amplitude(points: np.ndarray) -> float:
    """Largest jitter offset per coordinate."""
    return _JITTER_REL * (float(points.max() - points.min()) or 1.0)


def _jittered(points: np.ndarray) -> np.ndarray:
    rng = np.random.default_rng(_JITTER_SEED)
    return points + rng.uniform(-1.0, 1.0, points.shape) * _jitter_amplitude(points)


def _shell(points: np.ndarray, spacing, alpha):
    """(index, shallow): the points of a voxel-centroid cloud at most
    D = 3 alpha + 2h + 2δ deep, which the complex triangulates, and the mask
    of those among them shallower than S = alpha + 2h (module docstring).

    Depth is a point's mm distance to the nearest lattice point outside the
    cloud.  Every point is kept and shallow when there is no lattice
    (`spacing` None), for "auto", and when alpha is within the jitter margin
    of h.
    """
    full = np.arange(len(points)), np.ones(len(points), dtype=bool)
    if spacing is None or alpha == AUTO:
        return full
    spacing = np.asarray(spacing, dtype=float)
    h = 0.5 * float(np.linalg.norm(spacing))
    delta = np.sqrt(3.0) * _jitter_amplitude(points)
    # A lattice cube's jittered tetrahedra have circumradius h within
    # delta * (1 + 12 sqrt(3) h^3 / cell volume) to first order (their edge
    # matrix has determinant >= the cell volume); twice that covers the rest.
    margin = 2.0 * delta * (1.0 + 12.0 * np.sqrt(3.0) * h ** 3 / np.prod(spacing))
    if alpha <= h + margin:
        return full
    # imported here: "auto" and raw-array builds never need it
    from scipy.ndimage import distance_transform_edt

    ijk = np.rint(points / spacing - 0.5).astype(np.int64)
    if not np.array_equal((ijk + 0.5) * spacing, points):
        raise ReconstructionError("point cloud is not a set of voxel centroids "
                                  "of its spacing")
    lo = ijk.min(axis=0) - 1
    at = tuple((ijk - lo).T)
    mask = np.zeros(ijk.max(axis=0) - lo + 2, dtype=bool)
    mask[at] = True
    depth = distance_transform_edt(mask, sampling=spacing)[at]
    index = np.flatnonzero(depth <= 3.0 * alpha + 2.0 * h + 2.0 * delta)
    return index, depth[index] < alpha + 2.0 * h


def _circumradii(pts: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Circumradius per tetrahedron; near-singular cells get +inf."""
    a, b, c, d = (pts[tets[:, i]] for i in range(4))
    m = 2.0 * np.stack([b - a, c - a, d - a], axis=1)
    sq = np.einsum("ij,ij->i", pts, pts)
    rhs = np.stack([sq[tets[:, 1]] - sq[tets[:, 0]],
                    sq[tets[:, 2]] - sq[tets[:, 0]],
                    sq[tets[:, 3]] - sq[tets[:, 0]]], axis=1)
    det = np.linalg.det(m)
    scale = np.max(np.abs(m), axis=(1, 2)) + 1e-300
    good = np.abs(det) > 1e-14 * scale ** 3
    radii = np.full(len(tets), np.inf)
    if good.any():
        centers = np.linalg.solve(m[good], rhs[good][..., None])[..., 0]
        radii[good] = np.linalg.norm(centers - a[good], axis=1)
    return radii


# face j of a tetrahedron is the one opposite its vertex j
_FACES = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


def _boundary_faces(jit: np.ndarray, tets: np.ndarray, neighbors: np.ndarray,
                    keep: np.ndarray):
    """Oriented boundary triangles of the union of kept tetrahedra, sorted by
    their sorted-vertex key.  Each is its sorted key with the last two
    vertices swapped where that faces inward, so it starts at its smallest
    vertex whatever order qhull listed the tetrahedron in.

    `neighbors[t, j]` is the tetrahedron across face j of t, or -1 on the
    hull (the -1 lookup into `keep` is masked by the first test).
    """
    t, j = np.nonzero(keep[:, None] & ((neighbors < 0) | ~keep[neighbors]))
    tris = np.sort(tets[t[:, None], _FACES[j]], axis=1)
    order = np.lexsort((tris[:, 2], tris[:, 1], tris[:, 0]))
    tris = tris[order]
    d = jit[tets[t[order], j[order]]]
    a, b, c = jit[tris[:, 0]], jit[tris[:, 1]], jit[tris[:, 2]]
    # outward = away from the kept tet's fourth vertex (jittered coords are
    # never degenerate, so the sign is reliable)
    flip = np.einsum("ij,ij->i", np.cross(b - a, c - a), d - a) > 0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    return tris


def _signed_volume_per_face(points: np.ndarray, tris: np.ndarray) -> np.ndarray:
    a, b, c = points[tris[:, 0]], points[tris[:, 1]], points[tris[:, 2]]
    return np.einsum("ij,ij->i", a, np.cross(b, c)) / 6.0


def _face_components(tris: np.ndarray) -> np.ndarray:
    """Connected-component id per face, via shared undirected edges."""
    nf = len(tris)
    key = _edge_keys(tris)
    order = np.argsort(key, kind="stable")
    sk = key[order]
    fo = order % nf   # side i belongs to face i % nf
    same = sk[1:] == sk[:-1]
    fa, fb = fo[:-1][same], fo[1:][same]
    graph = coo_matrix((np.ones(len(fa)), (fa, fb)), shape=(nf, nf))
    _, comp = connected_components(graph, directed=False)
    return comp


class _AlphaComplex:
    """Delaunay + circumradii, reusable across alpha values.

    With `spacing` and a numeric `alpha` a voxel-centroid cloud is
    triangulated only over its boundary shell at that alpha (`_shell`); the
    complex's vertex ids are then positions in `index`, the kept points.
    """

    def __init__(self, points: np.ndarray, spacing=None, alpha=AUTO):
        if len(points) < 4:
            raise ReconstructionError(
                f"need at least 4 points, got {len(points)}")
        centered = points - points.mean(axis=0)
        if np.linalg.matrix_rank(centered, tol=1e-9 * (np.abs(centered).max() + 1.0)) < 3:
            raise ReconstructionError(
                "points are coplanar or collinear; no solid can be built")
        self.points = points
        self._vol_eps = 1e-9 * float(np.linalg.norm(
            points.max(axis=0) - points.min(axis=0))) ** 3 + 1e-12
        self.index, self.shallow = _shell(points, spacing, alpha)
        self.jit = _jittered(points)[self.index]
        try:
            self.delaunay = Delaunay(self.jit)
        except QhullError as exc:
            raise ReconstructionError(f"tetrahedralization failed: {exc}") from exc
        self.tets = self.delaunay.simplices
        self.radii = _circumradii(self.jit, self.tets)
        finite = self.radii[np.isfinite(self.radii)]
        if finite.size == 0:
            raise ReconstructionError("all tetrahedra are degenerate")
        self.candidates = np.unique(finite)

    def evaluate(self, alpha: float):
        """Boundary at `alpha` in input point ids, or (None, reason) if it is
        not a closed manifold enclosing every input point."""
        keep = self.radii <= alpha
        used = np.zeros(len(self.jit), dtype=bool)
        used[self.tets[keep].ravel()] = True
        outside = int((self.shallow & ~used).sum())
        if outside:
            return None, f"{outside} points left outside the complex"
        tris = _boundary_faces(self.jit, self.tets, self.delaunay.neighbors, keep)
        # the wall of the pruned hollow: no shallow vertex
        tris = self.index[tris[self.shallow[tris].any(axis=1)]]
        if len(tris) == 0:
            return None, "empty boundary"
        counts = _edge_use_counts(tris)
        if not np.all(counts == 2):
            bad = int((counts != 2).sum())
            return None, f"{bad} edges not shared by exactly 2 triangles"
        comp = _face_components(tris)
        vols = np.zeros(comp.max() + 1)
        np.add.at(vols, comp, _signed_volume_per_face(self.points, tris))
        if np.any(np.abs(vols) <= self._vol_eps):
            return None, "degenerate zero-volume boundary component"
        outer = vols > 0
        if not outer.any():
            return None, "no positively oriented boundary component"
        return (tris, comp, vols), None


def build_alpha_shape(points, alpha: float | str = AUTO,
                      source_label: int | None = None) -> TriangleMesh:
    """Reconstruct the closed external surface of a point cloud.

    `alpha` is a finite positive radius in mm, or "auto" to pick the smallest
    critical value (binary search over the sorted tetrahedron circumradii)
    whose boundary is a closed manifold enclosing all input points.  Interior
    boundary components (cavities) are discarded and counted on the returned
    mesh.

    A `PointCloud` with a numeric alpha above half its voxel diagonal h is
    triangulated only where it is at most 3 alpha + 2h deep (mm to the
    nearest lattice point outside the cloud).  The result equals the full
    build: surface vertices lie at most alpha + h deep, and a kept
    tetrahedron spans at most 2 alpha (module docstring).  "auto" and raw
    point arrays use every point.
    """
    if alpha != AUTO and not 0 < float(alpha) < np.inf:
        raise ReconstructionError(
            f"alpha must be finite and positive or 'auto', got {alpha}")
    if isinstance(points, PointCloud):
        pts, spacing = np.asarray(points.points, dtype=float), points.spacing
    else:
        pts, spacing = np.asarray(points, dtype=float), None
    complex_ = _AlphaComplex(pts, spacing, alpha)

    if alpha == AUTO:
        cand = complex_.candidates
        lo, hi = 0, len(cand) - 1
        result, reason = complex_.evaluate(cand[hi])
        if result is None:
            raise ReconstructionError(
                f"no alpha yields a closed manifold enclosing all points: {reason}")
        while lo < hi:
            mid = (lo + hi) // 2
            mid_result, _ = complex_.evaluate(cand[mid])
            if mid_result is not None:
                hi = mid
                result = mid_result
            else:
                lo = mid + 1
        alpha_used = float(cand[hi])
    else:
        alpha_used = float(alpha)
        result, reason = complex_.evaluate(alpha_used)
        if result is None:
            raise ReconstructionError(
                f"alpha={alpha_used:g} does not yield a closed manifold "
                f"enclosing all points: {reason}")

    tris, comp, vols = result
    outer = np.nonzero(vols > 0)[0]
    cavities = int((vols < 0).sum())
    tris = tris[np.isin(comp, outer)]

    used = np.unique(tris)
    remap = np.zeros(len(pts), dtype=np.int64)
    remap[used] = np.arange(len(used))
    return TriangleMesh(vertices=pts[used].copy(),
                        triangles=remap[tris],
                        source_label=source_label,
                        alpha_used=alpha_used,
                        cavities_discarded=cavities,
                        n_components=len(outer))


def mesh_metrics(mesh: TriangleMesh) -> MeshMetrics:
    """Total surface area and enclosed volume (divergence theorem).

    Raises MeshContractError when the mesh is not closed.
    """
    if not mesh.is_closed():
        raise MeshContractError("mesh is open: some edge is not shared by "
                                "exactly 2 triangles")
    a = mesh.vertices[mesh.triangles[:, 0]]
    b = mesh.vertices[mesh.triangles[:, 1]]
    c = mesh.vertices[mesh.triangles[:, 2]]
    area = float(0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1).sum())
    volume = float(abs(_signed_volume_per_face(mesh.vertices, mesh.triangles).sum()))
    return MeshMetrics(area=area, volume=volume)
