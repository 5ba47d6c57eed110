"""Alpha-shape surface reconstruction and mesh metrics.

The alpha complex is computed from the Delaunay tetrahedralization of the
point cloud: a tetrahedron belongs to the complex iff its circumradius is at
most alpha, and the surface is the set of triangular faces incident to
exactly one kept tetrahedron.  A face has at most two tetrahedra; in a
Delaunay build the adjacency names the second, so the boundary is read off
it: a kept tetrahedron's face is on the surface iff the neighbor across it
is missing or not kept.  Grid-sampled clouds are full of cospherical and
coplanar degeneracies, so the combinatorial side (triangulation, circumradii,
face orientation) runs on a deterministically micro-jittered copy of the
points while all emitted geometry uses the original coordinates.
Exactly-degenerate tetrahedra then behave as infinitely-thin cells: their
jittered circumradius is huge and they only enter the complex in the
convex-hull regime, which leaves the union solid unchanged.

A voxel-centroid cloud (a `PointCloud`) with a numeric alpha is triangulated
only near its border.  Let h be half the voxel diagonal (the lattice's
covering radius: a ball of radius above h holds a lattice point strictly
inside), d(p) the mm distance from point p to the nearest lattice point
outside the cloud (one EDT of the cloud's index box), δ the jitter's largest
displacement and ε > 2δ the margin by which a lattice cube's jittered
tetrahedra can exceed radius h (`_lattice_margins`).  The general locality
bound (Edelsbrunner & Mücke 1994) would keep every point within 3 alpha + 2h
of the border; the lattice allows a thinner shell.

Lemma: in the Delaunay build of a set of lattice points, every vertex v of a
tetrahedron of radius r > h + ε lies within 2h + 2δ of a lattice point
missing from the set.  Inside the empty circumball shrunk by δ, the ball of
radius h' ∈ (h, r - δ] that touches it towards v's jittered copy holds a
lattice point strictly inside, which the set therefore lacks, at less than
2h' + 2δ from v.  A vertex on the convex hull has the empty half-space
beyond its face in place of the ball.

For alpha > h + ε the shell is the points with d <= D, the shallow ones
those with d < S, where S = 2h + ε and D = S + 2h + 2ε + 2δ, about 4h for
every alpha.  The proof needs 8δ <= (2/√3 - 1) s_i on every axis i of the
spacing s; δ is √3 · 1e-6 of the span of the cloud's coordinates, so this
holds while that span is under about 11,000 times the smallest spacing, and
the shell keeps every point where it fails:

- every surface face lies between a kept tetrahedron and one of radius
  > alpha > h + ε, or the hull, so its vertices are shallow (lemma);
- a kept tetrahedron of the cloud with a shallow vertex v is in the shell:
  its vertices are shallow if its radius r exceeds h + ε, and otherwise lie
  within 2r + 2δ <= 2h + 2ε + 2δ of v;
- a shell tetrahedron with a shallow vertex v, of any radius r and centre c,
  is a Delaunay tetrahedron of the cloud: no pruned point p (d(p) > D) has
  its jittered copy in the tetrahedron's open ball B.  If r <= h + ε, every
  point in B lies within 2h + 2ε + 2δ of v, so in the shell.  Otherwise the
  lemma puts less than r - δ from c a lattice point q that the shell
  lacks, within S + 2h + 2δ <= D deep, so the cloud lacks q too.
  If 2r <= D, p lies within 2r <= D < d(p) of q, which puts q in the cloud.
  If 2r > D, walk from p towards c: a step moves lattice point a by one
  spacing towards c on each axis i where |a_i - c_i| > s_i / 2 (a
  26-neighbour step, at most 2h long), which never lengthens a - c.  From
  |a - c| >= r - δ > 2h >= s_i, the axis of the largest |a_i - c_i| (at
  least (r - δ)/√3) alone shortens |a - c|^2 by s_i (2(r - δ)/√3 - s_i) >
  (2/√3 - 1) s_i (r - δ) >= 8δ(r - δ) >= 4rδ, so the first step takes p
  from within r + δ of c to within r - δ, and every later point of the walk
  has its jittered copy in B: it is not in the shell, so missing or pruned.
  The walk from q stays within r - δ likewise, and the two walks end at
  most one step apart on each axis, where every |a_i - c_i| <= s_i / 2.
  That chain of 26-neighbour steps from the pruned p to the missing q
  crosses no shell point, so some step joins a pruned point to a missing
  one, which puts the pruned point within 2h < D of the outside;
- so the shell build has every kept tetrahedron and every boundary face
  with a shallow vertex exactly as the full cloud has them; faces with no
  shallow vertex are the wall of the pruned hollow, share no vertex with a
  surface face and are dropped;
- a point at depth >= S lies only in tetrahedra of radius <= h + ε < alpha
  (lemma), so it is in the complex, and the "points left outside" check
  needs only the shallow points.

The jitter is drawn on the full cloud and each triangle is written from its
smallest vertex index, so the result equals the full build.  The shell keeps
every point when alpha is within the jitter margin of h.  A raw point array
(no lattice, so no depth and no cuts) is one slab of every point, all
shallow.  `alpha="auto"` (its binary search depends on the candidate radii,
which the shell changes) triangulates every point once, as one slab with
bounds (-inf, inf).

The shell of a `PointCloud` with a numeric alpha is then triangulated slab by
slab on a thread pool (DeWall, Cignoni, Montani & Scopigno 1998; qhull
releases the GIL).  Cuts run across the shell's longest axis at point-count
quantiles.  Slab k owns the core [c_k, c_k+1) along that axis, triangulates
every shell point within alpha + ε of its core, and keeps a tetrahedron iff
its circumradius is <= alpha and its circumcentre lies in the core.  That is
exactly the set of kept tetrahedra of one build of the whole shell:

- a kept tetrahedron t of the whole shell has an empty ball of radius
  r <= alpha whose centre lies in exactly one core; its vertices lie within r
  of that centre, so they are all in that slab, where the ball is still
  empty, and t is a Delaunay tetrahedron of the slab;
- conversely a slab tetrahedron with r <= alpha and its centre in the core
  has a ball within alpha of the core, so any shell point inside that ball
  would be in the slab; its ball is empty in the whole shell.

Every build triangulates through `_triangulate`, which computes centre and
radius from the vertices in ascending index, on coordinates relative to the
cloud's lowest corner (which the shell keeps).  So every slab and the build
of `auto` compute the same floats: each kept tetrahedron has one owner, for
any number of slabs, and a numeric alpha equal to `auto`'s keeps the same
tetrahedra.  The slack ε = alpha / 1000 covers the rounding between those
floats and the exact sphere (centres within 4.1e-10 mm, radii 2.3e-10 mm,
measured on the benchmark spines).  Each slab reads the boundary of what it
owns and keeps off its own adjacency.  If the slab tetrahedron across face f
of such a t is owned and kept too, it is t's kept neighbor in the whole
shell, and f is interior.  Otherwise f is on the whole boundary, or the kept
tetrahedron across it is owned by one other slab (here it would be t's
neighbor), which emits f too, so `_sole_faces` in `_surface` drops exactly
the faces between slabs.  Faces turn outward by parity (`_boundary_faces`).

qhull is not exactly Delaunay where points are nearly cospherical, so a slab
could fill such a set with other tetrahedra than a build of every point;
they fill the same volume and leave the boundary unchanged.
Each cut sits a quarter voxel step from the lattice planes and from the
lattice cube centres, so the tetrahedra of one near-cospherical lattice
cube, whose centres cluster within micrometres of the cube centre, fall in
one core and come from one triangulation.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay, QhullError

from .errors import MeshContractError, ReconstructionError
from .volume_io import PointCloud, is_positive_real, mm_to_index

_JITTER_SEED = 0x5EB8A
_JITTER_REL = 1e-6
_SLAB_SLACK = 1e-3     # ε / alpha, the slab reach's rounding slack
_SLABS_PER_WORKER = 3

AUTO = "auto"


@dataclass
class TriangleMesh:
    """Closed, outward-oriented triangle surface in mm."""

    vertices: np.ndarray          # (V, 3) float64
    triangles: np.ndarray         # (T, 3) int, outward-oriented
    alpha_used: float = float("nan")
    cavities_discarded: int = 0   # interior boundary components dropped

    def __len__(self) -> int:
        return len(self.vertices)

    def edge_use_counts(self) -> np.ndarray:
        """Usage count per undirected edge (closed manifolds are all 2)."""
        return _edge_runs(self.triangles)[2]

    def is_closed(self) -> bool:
        counts = self.edge_use_counts()
        return len(counts) > 0 and bool(np.all(counts == 2))


@dataclass(frozen=True)
class MeshMetrics:
    area: float      # mm^2
    volume: float    # mm^3


def _edge_runs(triangles: np.ndarray):
    """(order, same, counts) from one sort of the triangle sides 01, 12, 20
    (stacked), each keyed lo * n + hi by its undirected edge: the sides in
    stable key order, whether each sorted side after the first has its
    predecessor's key, and the use count per edge (none without triangles)."""
    tris = np.asarray(triangles, dtype=np.int64)
    edges = np.sort(np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]],
                                    tris[:, [2, 0]]]), axis=1)
    key = edges[:, 0] * (int(tris.max()) + 1 if tris.size else 1) + edges[:, 1]
    order = np.argsort(key, kind="stable")
    sorted_keys = key[order]
    # new[i]: sorted side i starts an edge (new[-1]: the end)
    new = np.ones(len(key) + 1, dtype=bool)
    new[1:-1] = sorted_keys[1:] != sorted_keys[:-1]
    return order, ~new[1:-1], np.diff(np.flatnonzero(new))


def _jitter_amplitude(points: np.ndarray) -> float:
    """Largest jitter offset per coordinate."""
    return _JITTER_REL * (float(points.max() - points.min()) or 1.0)


def _jittered(points: np.ndarray) -> np.ndarray:
    rng = np.random.default_rng(_JITTER_SEED)
    return points + rng.uniform(-1.0, 1.0, points.shape) * _jitter_amplitude(points)


def _lattice_margins(points: np.ndarray, spacing):
    """(h, δ, ε) of a voxel-centroid cloud: half the voxel diagonal, the
    jitter's largest displacement, and the margin by which a lattice cube's
    jittered tetrahedra can exceed circumradius h."""
    spacing = np.asarray(spacing, dtype=float)
    h = 0.5 * float(np.linalg.norm(spacing))
    delta = np.sqrt(3.0) * _jitter_amplitude(points)
    # A lattice cube's jittered tetrahedra have circumradius h within
    # delta * (1 + 12 sqrt(3) h^3 / cell volume) to first order (their edge
    # matrix has determinant >= the cell volume); twice that covers the rest.
    margin = 2.0 * delta * (1.0 + 12.0 * np.sqrt(3.0) * h ** 3 / np.prod(spacing))
    return h, delta, margin


def _shell(points: np.ndarray, spacing, alpha):
    """(index, shallow): the points of a voxel-centroid cloud at most
    D = S + 2h + 2ε + 2δ deep, which the complex triangulates, and the mask
    of those among them shallower than S = 2h + ε (module docstring).  Only
    near-cube tetrahedra (radius <= h + ε) reach deeper than 2h + 2δ, so S
    holds every surface vertex; a shallow vertex's kept tetrahedra then need
    the shell to reach one more voxel diagonal, whatever alpha is: a wider
    tetrahedron's empty ball cannot hold a pruned point, as a lattice walk
    inside it would join that point to a missing one.

    Depth is a point's mm distance to the nearest lattice point outside the
    cloud.  Every point is kept and shallow when alpha is within ε of h,
    when the jitter is too coarse for the walk (8δ > (2/√3 - 1) times the
    smallest spacing), and when there is no lattice (`spacing` None: a raw
    point array).  "auto" takes every point and never comes here.
    """
    if spacing is None:   # no lattice, no depth
        return np.arange(len(points)), np.ones(len(points), dtype=bool)
    h, delta, margin = _lattice_margins(points, spacing)
    if (alpha <= h + margin
            or 8.0 * delta > (2.0 / np.sqrt(3.0) - 1.0) * min(spacing)):
        return np.arange(len(points)), np.ones(len(points), dtype=bool)
    # imported here: "auto" and raw-array builds never need it
    from scipy.ndimage import distance_transform_edt

    ijk, ok = mm_to_index(points, spacing)
    if not ok.all():
        raise ReconstructionError("point cloud is not a set of voxel centroids "
                                  "of its spacing")
    lo = ijk.min(axis=0) - 1
    at = tuple((ijk - lo).T)
    mask = np.zeros(ijk.max(axis=0) - lo + 2, dtype=bool)
    mask[at] = True
    depth = distance_transform_edt(mask, sampling=spacing)[at]
    shallow_below = 2.0 * h + margin   # S
    index = np.flatnonzero(depth <= shallow_below + 2.0 * h + 2.0 * (margin + delta))
    return index, depth[index] < shallow_below


def _workers() -> int:
    """CPUs in this process's affinity mask, or in the machine where the
    platform has no affinity mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _spans_3d(points: np.ndarray) -> bool:
    """Whether the points are neither coplanar nor collinear."""
    if len(points) < 4:
        return False
    centered = points - points.mean(axis=0)
    tol = 1e-9 * (np.abs(centered).max() + 1.0)
    return np.linalg.matrix_rank(centered, tol=tol) == 3


def _delaunay(points: np.ndarray):
    """qhull's (simplices, neighbors) of `points`."""
    try:
        tri = Delaunay(points)
    except QhullError as exc:
        raise ReconstructionError(f"tetrahedralization failed: {exc}") from exc
    return tri.simplices, tri.neighbors


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise dot product of (N, 3) arrays, summed left to right."""
    return u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1] + u[:, 2] * v[:, 2]


def _circumradii(pts: np.ndarray, tets: np.ndarray):
    """(radii, centres, det > 0) per tetrahedron (a, b, c, d) in closed form
    (Shewchuk): with b, c, d relative to a, the centre is a + (|b|^2 c x d +
    |c|^2 d x b + |d|^2 b x c) / (2 det), det = b . (c x d), every sum written
    out elementwise (no BLAS or LAPACK).  Near-singular cells, |det| <= 1e-14
    max|b, c, d|^3, get radius +inf and a NaN centre."""
    a = pts[tets[:, 0]]
    b, c, d = (pts[tets[:, k]] - a for k in (1, 2, 3))
    cd = np.cross(c, d)
    det = _dot(b, cd)
    scale = np.maximum.reduce([np.abs(u).max(axis=1) for u in (b, c, d)])
    good = np.abs(det) > 1e-14 * scale ** 3
    offset = (_dot(b, b)[:, None] * cd + _dot(c, c)[:, None] * np.cross(d, b)
              + _dot(d, d)[:, None] * np.cross(b, c))
    offset /= np.where(good, 2.0 * det, np.nan)[:, None]
    radii = np.where(good, np.sqrt(_dot(offset, offset)), np.inf)
    return radii, offset + a, det > 0


# face j of a tetrahedron is the one opposite its vertex j
_FACES = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


def _boundary_faces(positive: np.ndarray, tets: np.ndarray, neighbors: np.ndarray,
                    keep: np.ndarray):
    """Boundary triangles of the union of kept tetrahedra, unpaired and
    unsorted, each from its smallest vertex and facing away from its
    tetrahedron.

    `neighbors[t, j]` is the tetrahedron across face j of t, or -1 on the
    hull (the -1 lookup into `keep` is masked by the first test).  Face j in
    ascending order, then vertex j, is t's ascending ids after 3 - k swaps,
    k the rank of vertex j; so the face turns toward vertex j, and has its
    last two vertices swapped, iff `positive[t]` equals `k is odd`.
    """
    t, j = np.nonzero(keep[:, None] & ((neighbors < 0) | ~keep[neighbors]))
    tris = np.sort(tets[t[:, None], _FACES[j]], axis=1)
    rank = (tris < tets[t, j][:, None]).sum(axis=1)
    flip = positive[t] == (rank % 2 == 1)
    tris[flip] = tris[flip][:, [0, 2, 1]]
    return tris


def _sole_faces(tris: np.ndarray) -> np.ndarray:
    """Positions of the rows of `tris` whose vertex set occurs once, in
    ascending order of that set: the faces left after pairing those that two
    slabs share across a cut."""
    key = np.sort(tris, axis=1)
    order = np.lexsort((key[:, 2], key[:, 1], key[:, 0]))
    rows = key[order]
    # new[i]: sorted row i starts a run of equal rows (new[-1]: the end)
    new = np.ones(len(rows) + 1, dtype=bool)
    new[1:-1] = np.any(rows[1:] != rows[:-1], axis=1)
    return order[new[:-1] & new[1:]]


def _triangulate(jit, local, sel):
    """(tets, neighbors, radii, centers, positive) of the Delaunay build of
    jit[sel]: ids into `jit` (int32) in qhull's vertex order, so that
    neighbors[t, j] stays across from vertex j, and the `_circumradii` of
    the ascending ids on `local` (relative to the cloud's lowest corner)."""
    tets, neighbors = _delaunay(jit[sel])
    # rebinding frees qhull's slab ids before the radii (holding them raised
    # lumbar_r25's peak RSS on two threads by ~5 MiB)
    tets = sel.astype(np.int32)[tets]
    radii, centers, positive = _circumradii(local, np.sort(tets, axis=1))
    return tets, neighbors, radii, centers, positive


def _slab_tets(jit, local, sel, axis, lo, hi, alpha):
    """(kept, faces) of one slab: the tetrahedra of the Delaunay build of
    jit[sel] with circumradius <= alpha and circumcentre in [lo, hi) along
    `axis` of `local`, as ascending ids into `jit` (int32), and their
    `_boundary_faces`.  Only these leave the worker."""
    if not _spans_3d(jit[sel]):   # no solid tetrahedron
        return np.zeros((0, 4), dtype=np.int32), np.zeros((0, 3), dtype=np.int32)
    tets, neighbors, radii, centers, positive = _triangulate(jit, local, sel)
    own = (radii <= alpha) & (centers[:, axis] >= lo) & (centers[:, axis] < hi)
    return np.sort(tets[own], axis=1), _boundary_faces(positive, tets, neighbors, own)


def _slab_complex(points: np.ndarray, jit: np.ndarray, alpha: float, slabs: int,
                  spacing):
    """(kept, boundary): the kept tetrahedra at `alpha` of the Delaunay build
    of `jit`, the jittered `points`, built in `slabs` slabs on a thread pool
    (module docstring) as (K, 4) ascending int32 ids, and every slab's
    `_boundary_faces`, unpaired.  Cuts need the lattice `spacing`; a cloud
    without one (None) is built as one slab."""
    axis = int(np.argmax(np.ptp(points, axis=0)))
    origin = points.min(axis=0)
    local = jit - origin
    # lattice coordinates are (i + 1/2) step: cut at (i + 3/4) step
    x = np.sort(points[:, axis])
    cuts = [x[len(x) * k // slabs] + 0.25 * spacing[axis] for k in range(1, slabs)]
    bounds = np.concatenate(([-np.inf], np.unique(cuts) - origin[axis], [np.inf]))
    reach = alpha * (1.0 + _SLAB_SLACK)
    at = local[:, axis]
    jobs = [(np.flatnonzero((at >= lo - reach) & (at < hi + reach)), lo, hi)
            for lo, hi in zip(bounds[:-1], bounds[1:])]
    with ThreadPoolExecutor(min(_workers(), len(jobs))) as pool:
        parts = list(pool.map(
            lambda job: _slab_tets(jit, local, job[0], axis, job[1], job[2], alpha),
            jobs))
    return tuple(np.concatenate(part) for part in zip(*parts))


def _signed_volume_per_face(points: np.ndarray, tris: np.ndarray) -> np.ndarray:
    a, b, c = points[tris[:, 0]], points[tris[:, 1]], points[tris[:, 2]]
    return np.einsum("ij,ij->i", a, np.cross(b, c)) / 6.0


def _face_components(nf: int, order: np.ndarray, same: np.ndarray) -> np.ndarray:
    """Connected-component id per face of `nf` faces, via the shared
    undirected edges that `_edge_runs` found: rounds of `_hook` (Shiloach &
    Vishkin 1982) until both faces of every shared edge have one root.  A
    pointer only moves to a smaller face of its component, so the smallest
    face keeps pointing at itself and is the root; ids follow these roots."""
    fo = order % nf   # side i belongs to face i % nf
    fa, fb = fo[:-1][same], fo[1:][same]
    comp = np.arange(nf)
    while not np.array_equal(ra := comp[fa], rb := comp[fb]):
        comp = _hook(comp, ra, rb)
    return np.unique(comp, return_inverse=True)[1]


def _hook(comp: np.ndarray, ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """Hook the larger root of each pair onto the smaller, then shortcut."""
    np.minimum.at(comp, np.maximum(ra, rb), np.minimum(ra, rb))
    while not np.array_equal(comp, up := comp[comp]):
        comp = up
    return comp


def _check_solid(points: np.ndarray) -> None:
    if points.ndim != 2 or points.shape[1] != 3 or not np.isfinite(points).all():
        raise ReconstructionError(
            f"points must be finite (N, 3) coordinates, got shape {points.shape}")
    if len(points) < 4:
        raise ReconstructionError(f"need at least 4 points, got {len(points)}")
    if not _spans_3d(points):
        raise ReconstructionError(
            "points are coplanar or collinear; no solid can be built")


def _surface(points: np.ndarray, index: np.ndarray, shallow: np.ndarray,
             kept: np.ndarray, boundary: np.ndarray):
    """Boundary of the kept tetrahedra in input point ids, with its face
    components and their signed volumes, or (None, reason) if it is not a
    closed manifold enclosing every input point.

    `kept` and `boundary` (`_boundary_faces`, unpaired; paired and sorted
    here) hold positions in `index`, the triangulated points; `shallow`
    marks those that must lie in the complex (`_shell`).
    """
    used = np.zeros(len(index), dtype=bool)
    used[kept.ravel()] = True
    outside = int((shallow & ~used).sum())
    if outside:
        return None, f"{outside} points left outside the complex"
    # the wall of the pruned hollow: no shallow vertex
    faces = boundary[shallow[boundary].any(axis=1)]
    tris = index[faces[_sole_faces(faces)]]
    if len(tris) == 0:
        return None, "empty boundary"
    order, same, counts = _edge_runs(tris)
    if not np.all(counts == 2):
        bad = int((counts != 2).sum())
        return None, f"{bad} edges not shared by exactly 2 triangles"
    comp = _face_components(len(tris), order, same)
    vols = np.zeros(comp.max() + 1)
    np.add.at(vols, comp, _signed_volume_per_face(points, tris))
    vol_eps = 1e-9 * float(np.linalg.norm(
        points.max(axis=0) - points.min(axis=0))) ** 3 + 1e-12
    if np.any(np.abs(vols) <= vol_eps):
        return None, "degenerate zero-volume boundary component"
    if not (vols > 0).any():
        return None, "no positively oriented boundary component"
    return (tris, comp, vols), None


def build_alpha_shape(points, alpha: float | str = AUTO) -> TriangleMesh:
    """Reconstruct the closed external surface of a point cloud.

    `alpha` is a finite positive radius in mm, or "auto".  "auto" triangulates
    every point once and binary searches the sorted tetrahedron circumradii
    for one whose boundary is a closed manifold enclosing all input points,
    and returns a circumradius that passes while the next smaller one fails
    (or the smallest one); that number as a numeric alpha gives the same mesh.
    The search assumes that passing is monotone in alpha, which it is not, so
    a smaller circumradius can also pass: on seed 1 of the `stack_auto`
    benchmark spine it returns 4.44 and 6.36 mm for two vertebrae where
    0.866 mm passes (ROADMAP item 1).
    Interior boundary components (cavities) are discarded and counted on the
    returned mesh.

    A `PointCloud` with a numeric alpha above half its voxel diagonal h is
    triangulated only where it is at most 4h deep (mm to the nearest
    lattice point outside the cloud; plus jitter margins), whatever alpha
    is.  The result equals the full build: every tetrahedron wider than a
    lattice cube's circumsphere has its vertices at most 2h deep, so surface
    vertices do, and a kept tetrahedron at such a vertex either spans at
    most 2h or has an empty ball that holds no pruned point: a lattice walk
    inside the ball would join that point to a missing one with no shell
    point between (module docstring).  That shell is triangulated in 3
    slabs per CPU of the affinity mask, on one thread per CPU; a kept
    tetrahedron has its circumcentre in exactly one slab, so the result does
    not depend on the slab count.  A raw point array with a numeric alpha is
    one slab of every point.
    """
    if alpha != AUTO and not is_positive_real(alpha):
        raise ReconstructionError(
            f"alpha must be finite and positive or 'auto', got {alpha}")
    if isinstance(points, PointCloud):
        pts, spacing = np.asarray(points.points, dtype=float), points.spacing
    else:
        pts, spacing = np.asarray(points, dtype=float), None
    _check_solid(pts)
    if alpha == AUTO:
        # every point, all shallow, in one slab with bounds (-inf, inf)
        index, shallow = np.arange(len(pts)), np.ones(len(pts), dtype=bool)
        jit = _jittered(pts)
        tets, neighbors, radii, _, positive = _triangulate(
            jit, jit - pts.min(axis=0), index)
        cand = np.unique(radii[np.isfinite(radii)])
        if cand.size == 0:
            raise ReconstructionError("all tetrahedra are degenerate")

        def evaluate(at: float):
            keep = radii <= at
            return _surface(pts, index, shallow, tets[keep],
                            _boundary_faces(positive, tets, neighbors, keep))

        lo, hi = 0, len(cand) - 1
        result, reason = evaluate(cand[hi])
        if result is None:
            raise ReconstructionError(
                f"no alpha yields a closed manifold enclosing all points: {reason}")
        while lo < hi:
            mid = (lo + hi) // 2
            mid_result, _ = evaluate(cand[mid])
            if mid_result is not None:
                hi = mid
                result = mid_result
            else:
                lo = mid + 1
        alpha_used = float(cand[hi])
    else:
        alpha_used = float(alpha)
        index, shallow = _shell(pts, spacing, alpha_used)
        slabs = 1 if spacing is None else _SLABS_PER_WORKER * _workers()
        kept, boundary = _slab_complex(pts[index], _jittered(pts)[index],
                                       alpha_used, slabs, spacing)
        result, reason = _surface(pts, index, shallow, kept, boundary)
        if result is None:
            raise ReconstructionError(
                f"alpha={alpha_used:g} does not yield a closed manifold "
                f"enclosing all points: {reason}")

    tris, comp, vols = result
    cavities = int((vols < 0).sum())
    tris = tris[vols[comp] > 0]

    used, inverse = np.unique(tris, return_inverse=True)
    return TriangleMesh(vertices=pts[used],
                        triangles=inverse.reshape(tris.shape),
                        alpha_used=alpha_used,
                        cavities_discarded=cavities)


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
