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
only near its border.  Let s_i be the spacing on axis i, h = |s| / 2 half the
voxel diagonal (the lattice's covering radius: a ball of radius above h holds
a lattice point strictly inside), d(p) the mm distance from point p to the
nearest lattice point outside the cloud (one EDT of the cloud's index box),
δ the jitter's largest displacement and ε > 2δ the margin by which a lattice
cube's jittered tetrahedra can exceed radius h (`_lattice_margins`).  Call a
tetrahedron wide if its radius exceeds h + ε and near-cube otherwise.  The
general locality bound (Edelsbrunner & Mücke 1994) would keep every point
within 3 alpha + 2h of the border; the lattice allows a thinner shell.

Lemma: in the Delaunay build of a set of lattice points, every vertex v of a
wide tetrahedron of radius r lies within 2h + 2δ of a lattice point missing
from the set.  Inside the empty circumball shrunk by δ, the ball of radius
h' ∈ (h, r - δ] that touches it towards v's jittered copy holds a lattice
point strictly inside, which the set therefore lacks, at less than 2h' + 2δ
from v.  A vertex on the convex hull has the empty half-space beyond its
face in place of the ball.

Step: let a ball of centre c and radius r > h + ε have the jittered copy v'
of a lattice point v on its sphere, and n = (c - v') / r.  Some axis i has
|n_i| >= s_i / 2h, as the n_i^2 sum to 1; let q = v + sign(n_i) s_i e_i.
Then |q - c|^2 is at most (sqrt(r^2 - 2 r s_i |n_i| + s_i^2) + δ)^2 <=
(sqrt(r^2 - s_i^2 (r - h) / h) + δ)^2, and so q lies less than r - δ from c
if s_i^2 (r - h) >= 4δrh; as (r - h) / r > ε / (h + ε), that holds for every
such ball if s_i^2 ε >= 4δh(h + ε).

For alpha > h + ε the shell is the points with d <= D, the shallow ones
those with d < S, where S = 2h + ε and D = S + m + 2ε + 2δ for every alpha.
Here m = max s_i, one lattice step past S, if the step's condition holds on
every axis: with ε < h / 30 it does wherever the smallest spacing is at
least a fifth of the next smallest.  Otherwise m = 2h, and the lemma stands
in for the step.  The walk below needs 8δ <= (2/√3 - 1) s_i on every axis;
δ is √3 · 1e-6 of the span of the cloud's coordinates, so this holds while
that span is under about 11,000 times the smallest spacing, and the shell
keeps every point where it fails.  Every near-cube tetrahedron has radius
below alpha, so it is kept in any build:

- every vertex of a wide tetrahedron of the cloud is shallow (lemma), so
  its empty ball makes it a tetrahedron of the shell build too.  Every
  vertex of a surface face, which lies between a kept tetrahedron and a
  wide one of radius > alpha, or the hull, is shallow likewise;
- a wide shell tetrahedron with a shallow vertex v, of radius r and centre
  c, is a Delaunay tetrahedron of the cloud: no pruned point p (d(p) > D)
  has its jittered copy in the tetrahedron's open ball B.  The step (where
  m = 2h: the lemma, with h' = min(h + ε, r - δ)) puts less than r - δ
  from c a lattice point q less than m + 2ε + 2δ from v.  Its jittered copy
  lies in B, which holds no shell point, and it would be less than D deep,
  so the cloud lacks q.
  If 2r <= D, p lies within 2r <= D < d(p) of q, which puts q in the cloud.
  If 2r > D, walk from p towards c: a step moves lattice point a by one
  spacing towards c on each axis i where |a_i - c_i| > s_i / 2 (a
  26-neighbour step, at most 2h long), which never lengthens a - c.  From
  |a - c| >= r - δ > h + m / 2 >= s_i, the axis of the largest |a_i - c_i|
  (at least (r - δ)/√3) alone shortens |a - c|^2 by s_i (2(r - δ)/√3 - s_i)
  > (2/√3 - 1) s_i (r - δ) >= 8δ(r - δ) >= 4rδ, so the first step takes p
  from within r + δ of c to within r - δ, and every later point of the walk
  has its jittered copy in B: it is not in the shell, so missing or pruned.
  The walk from q stays within r - δ likewise, and the two walks end at
  most one step apart on each axis, where every |a_i - c_i| <= s_i / 2.
  That chain of 26-neighbour steps from the pruned p to the missing q
  crosses no shell point, so some step joins a pruned point to a missing
  one, which puts the pruned point within 2h < D of the outside.  A hull
  face of the shell with a shallow vertex v is one of the cloud likewise:
  the balls through v's jittered copy that lie beyond its plane hold no
  shell point, and each point beyond the plane lies in the large ones;
- so the two builds agree on each face f with a shallow vertex.  If f is a
  boundary face of either, its side of radius > alpha (or the hull) is in
  both (the first two points).  Its other side has a kept tetrahedron in
  that build and a tetrahedron in the other, as f would otherwise lie on
  the other's hull and so on that one's.  The two are one tetrahedron if
  either is wide, and both kept if both are near-cube: f is on both
  boundaries, facing the same way;
- a shallow point p lies in a kept tetrahedron in both builds or in
  neither: if every tetrahedron at p in one build is wide and not kept, the
  first two points put them, and p's hull faces, in the other build, where
  they fill a neighbourhood of p and so are all of p's tetrahedra;
- so the shell build has every boundary face with a shallow vertex, and
  whether each shallow point is in the complex, exactly as the full cloud
  has them, even where a lattice cube keeps a shallow corner and loses
  another, so that its near-cube tetrahedra differ between the builds.
  Faces with no shallow vertex are the wall of the pruned hollow and are
  dropped;
- a point at depth >= S lies only in near-cube tetrahedra (lemma), so it is
  in the complex, and the "points left outside" check needs only the
  shallow points.

The jitter is drawn on the full cloud and each triangle is written from its
smallest vertex index, so the result equals the full build.  The shell keeps
every point when alpha is within the jitter margin of h.  A raw point array
(no lattice, so no depth and no cuts) is one slab of every point, all
shallow.

Every build is a set of slab jobs (`_slab_table`) over a range [bottom, top]
of alpha on a caller's thread pool (qhull releases the GIL): [alpha, alpha]
over the slabs of the shell for a numeric alpha, and one slab of every point
over [0, inf) for "auto", whose binary search reads the radii, which the
shell changes.  A job owns its tetrahedra of radius <= top with circumcentre
in its core.  It returns each point's smallest owned radius (`lowest`) and a
face table: each face that bounds the owned union at some alpha in the
range, once, from its side of smaller radius lo and turned away from it,
with the interval [lo, hi) over which it does.  hi is the radius across the
face, or +inf across the hull or a tetrahedron the job does not own (one
above top included); a face with equal radii on both sides has no row.  Once
every job has finished, `AlphaShapeBuild` takes the slabs' `lowest` by
minimum and concatenates their tables on the calling thread, and reads the
complex at alpha `at` (`evaluate`) from the rows with lo <= at < hi, once
every shallow point has lowest <= at: once for a numeric alpha, at each
probe for "auto".  A caller that starts the next build before it selects
this one keeps the pool busy while it selects.

The shell of a `PointCloud` with a numeric alpha is triangulated slab by
slab (DeWall, Cignoni, Montani & Scopigno 1998).  Cuts run across the
shell's longest axis at point-count quantiles.  Slab k owns the core
[c_k, c_k+1) along that axis, triangulates every shell point within
top + ε of its core, and owns a tetrahedron iff its circumradius is
<= top and its circumcentre lies in the core.  That is exactly the set of
tetrahedra of radius <= top of one build of the whole shell:

- such a tetrahedron t of the whole shell has an empty ball of radius
  r <= top whose centre lies in exactly one core; its vertices lie within r
  of that centre, so they are all in that slab, where the ball is still
  empty, and t is a Delaunay tetrahedron of the slab;
- conversely a slab tetrahedron with r <= top and its centre in the core
  has a ball within top of the core, so any shell point inside that ball
  would be in the slab; its ball is empty in the whole shell.

Every build triangulates through `_triangulate`, which computes centre and
radius from the vertices in ascending index, on coordinates relative to the
cloud's lowest corner (which the shell keeps).  So every slab and the build
of `auto` compute the same floats: each owned tetrahedron has one owner, for
any number of slabs, and a numeric alpha equal to `auto`'s keeps the same
tetrahedra.  The slack ε = top / 1000 covers the rounding between those
floats and the exact sphere (centres within 4.1e-10 mm, radii 2.3e-10 mm,
measured on the benchmark spines).  At an alpha in the range, the complex
is the owned tetrahedra of radius <= alpha.  If the slab tetrahedron across
face f of an owned t is owned too, it is t's neighbor in the whole shell,
and the row's interval is when f bounds.  Otherwise the row runs to +inf: f
is on the whole boundary while t is kept, or the tetrahedron across it is
owned by one other slab (here it would be t's neighbor), whose row for f
runs to +inf too, so `_sole_faces` in `_surface` drops exactly the faces
between slabs once both sides are kept.

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
from concurrent.futures import Future, ThreadPoolExecutor, wait
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
    """(h, δ, ε, m) of a voxel-centroid cloud: half the voxel diagonal, the
    jitter's largest displacement, the margin by which a lattice cube's
    jittered tetrahedra can exceed circumradius h, and how far the shell
    reaches past its shallow band: one lattice step, the largest spacing, if
    the step (module docstring) clears the jitter on every axis, else 2h."""
    spacing = np.asarray(spacing, dtype=float)
    h = 0.5 * float(np.linalg.norm(spacing))
    delta = np.sqrt(3.0) * _jitter_amplitude(points)
    # A lattice cube's jittered tetrahedra have circumradius h within
    # delta * (1 + 12 sqrt(3) h^3 / cell volume) to first order (their edge
    # matrix has determinant >= the cell volume); twice that covers the rest.
    margin = 2.0 * delta * (1.0 + 12.0 * np.sqrt(3.0) * h ** 3 / np.prod(spacing))
    one_step = spacing.min() ** 2 * margin >= 4.0 * delta * h * (h + margin)
    return h, delta, margin, float(spacing.max()) if one_step else 2.0 * h


def _shell(points: np.ndarray, spacing, alpha):
    """(index, shallow): the points of a voxel-centroid cloud at most
    D = S + m + 2ε + 2δ deep, which the complex triangulates, and the mask
    of those among them shallower than S = 2h + ε (module docstring).  Only
    near-cube tetrahedra (radius <= h + ε) reach deeper than 2h + 2δ, so S
    holds every surface vertex, and alpha keeps every near-cube tetrahedron.
    The shell then reaches one lattice step m = max s_i further, whatever
    alpha is: a wider tetrahedron's empty ball at a shallow vertex holds the
    lattice point one step inside it, so the cloud lacks that point, and
    cannot hold a pruned point, as a lattice walk inside it would join that
    point to a missing one.  m is 2h where the step's gain on a ball barely
    wider than h + ε is within the jitter (`_lattice_margins`).

    Depth is a point's mm distance to the nearest lattice point outside the
    cloud.  Every point is kept and shallow when alpha is within ε of h,
    when the jitter is too coarse for the walk (8δ > (2/√3 - 1) times the
    smallest spacing), and when there is no lattice (`spacing` None: a raw
    point array, or "auto").
    """
    if spacing is None:   # no lattice, no depth
        return np.arange(len(points)), np.ones(len(points), dtype=bool)
    h, delta, margin, step = _lattice_margins(points, spacing)
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
    index = np.flatnonzero(depth <= shallow_below + step + 2.0 * (margin + delta))
    return index, depth[index] < shallow_below


def _workers() -> int:
    """CPUs in this process's affinity mask, or in the machine where the
    platform has no affinity mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def triangulation_pool() -> ThreadPoolExecutor:
    """A thread pool of one worker per CPU (`_workers`), on which
    `start_alpha_shape` runs the triangulation of one build after another."""
    return ThreadPoolExecutor(_workers())


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


# rows 2j and 2j + 1: face j of an ascending tetrahedron, the one opposite
# its vertex j, in ascending order and with its last two vertices swapped
_FACES = np.array([[1, 2, 3], [1, 3, 2], [0, 2, 3], [0, 3, 2],
                   [0, 1, 3], [0, 3, 1], [0, 1, 2], [0, 2, 1]])


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
    jit[sel]: ascending ids into `jit` (int32), with qhull's neighbors
    reordered alike, so that neighbors[t, j] stays across from vertex j, and
    the `_circumradii` on `local` (relative to the cloud's lowest corner)."""
    tets, neighbors = _delaunay(jit[sel])
    # rebinding frees qhull's slab ids before the radii (holding them raised
    # lumbar_r25's peak RSS on two threads by ~5 MiB)
    tets = sel.astype(np.int32)[tets]
    order = np.argsort(tets, axis=1)
    tets = np.take_along_axis(tets, order, axis=1)
    neighbors = np.take_along_axis(neighbors, order, axis=1)
    radii, centers, positive = _circumradii(local, tets)
    return tets, neighbors, radii, centers, positive


def _slab_table(jit, local, sel, axis, start, stop, bottom, top):
    """One slab job over the alpha range [bottom, top] (module docstring):
    (lowest, tris, lo, hi) of the Delaunay build of jit[sel], which owns its
    tetrahedra of radius <= top with circumcentre in [start, stop) along
    `axis` of `local`.  `lowest` spans `jit`; rows are ids into `jit`.

    `neighbors[t, j]` is the tetrahedron across face j of t, or -1 on the
    hull (its lookups are masked).  Face j in ascending order, then vertex
    j, is t's ascending ids after 3 - j swaps; so the face turns toward
    vertex j, and has its last two vertices swapped, iff `positive[t]`
    equals `j is odd`.
    """
    lowest = np.full(len(jit), np.inf)
    if not _spans_3d(jit[sel]):   # no solid tetrahedron
        return lowest, np.zeros((0, 3), dtype=np.int32), np.zeros(0), np.zeros(0)
    tets, neighbors, radii, centers, positive = _triangulate(jit, local, sel)
    own = (radii <= top) & (centers[:, axis] >= start) & (centers[:, axis] < stop)
    np.minimum.at(lowest, tets[own], radii[own, None])
    across = np.where((neighbors >= 0) & own[neighbors], radii[neighbors], np.inf)
    t, j = np.nonzero(own[:, None] & (radii[:, None] < across) & (across > bottom))
    tris = tets[t[:, None], _FACES[2 * j + (positive[t] == (j % 2 == 1))]]
    return lowest, tris, radii[t], across[t, j]


def _slab_complex(points: np.ndarray, jit: np.ndarray, span, slabs: int,
                  spacing, pool) -> list[Future]:
    """The `_slab_table` jobs of the Delaunay build of `jit`, the jittered
    `points`, over the alpha range `span` = (bottom, top) in `slabs` slabs,
    submitted to `pool` (module docstring): futures in slab order.  Cuts
    need the lattice `spacing`; a cloud without one (None) is one slab."""
    axis = int(np.argmax(np.ptp(points, axis=0)))
    origin = points.min(axis=0)
    local = jit - origin
    # lattice coordinates are (i + 1/2) step: cut at (i + 3/4) step
    x = np.sort(points[:, axis])
    cuts = [x[len(x) * k // slabs] + 0.25 * spacing[axis] for k in range(1, slabs)]
    bounds = np.concatenate(([-np.inf], np.unique(cuts) - origin[axis], [np.inf]))
    reach = span[1] * (1.0 + _SLAB_SLACK)
    at = local[:, axis]
    return [pool.submit(_slab_table, jit, local,
                        np.flatnonzero((at >= lo - reach) & (at < hi + reach)),
                        axis, lo, hi, *span)
            for lo, hi in zip(bounds[:-1], bounds[1:])]


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


def _left_outside(shallow: np.ndarray, used: np.ndarray) -> str | None:
    """Why a complex fails when a shallow point (`_shell`) lies in none of
    its kept tetrahedra (`used` false), or None."""
    outside = int((shallow & ~used).sum())
    return f"{outside} points left outside the complex" if outside else None


def _surface(points: np.ndarray, index: np.ndarray, shallow: np.ndarray,
             boundary: np.ndarray):
    """Boundary of a complex that holds every shallow point, in input point
    ids, with its face components and their signed volumes, or (None,
    reason) if it is not a closed manifold.

    `boundary` (face table rows, unpaired; paired and sorted here) holds
    positions in `index`, the triangulated points; `shallow` marks those
    that must lie in the complex (`_shell`), which the caller has checked.
    """
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


def _search(evaluate, lo: np.ndarray, hi: np.ndarray):
    """(surface, alpha) of "auto": a binary search, reading `evaluate`
    (`AlphaShapeBuild`) at each probe, over the candidates for one that
    passes while the next smaller one fails (or the smallest one).

    The candidates are the distinct finite ends `lo`, `hi` of the face
    table over [0, inf), which are the distinct finite circumradii.  Each
    end is one.  And a finite radius r is an end: the tetrahedra of radius r
    joined across faces to one of them are finitely many, so some face of
    theirs has the hull or another radius (a degenerate cell's +inf
    included) across it, and its row ends at r.
    """
    cand = np.unique(np.concatenate((lo, hi[np.isfinite(hi)])))
    if cand.size == 0:
        raise ReconstructionError("all tetrahedra are degenerate")
    first, last = 0, len(cand) - 1
    result, reason = evaluate(cand[last])
    if result is None:
        raise ReconstructionError(
            f"no alpha yields a closed manifold enclosing all points: {reason}")
    while first < last:
        mid = (first + last) // 2
        mid_result, _ = evaluate(cand[mid])
        if mid_result is not None:
            last = mid
            result = mid_result
        else:
            first = mid + 1
    return result, float(cand[last])


class AlphaShapeBuild:
    """One alpha-shape build whose slab jobs have been submitted to a
    thread pool (`start_alpha_shape`; module docstring).  `wait` blocks
    until they have finished or failed; `mesh` merges their face tables and
    selects the surface on the calling thread, then releases them."""

    def __init__(self, points: np.ndarray, alpha, index, shallow, jobs):
        self._points, self._alpha = points, alpha
        self._index, self._shallow = index, shallow
        self._jobs = jobs
        self._lowest = self._table = None

    def wait(self) -> None:
        wait(self._jobs)

    def _merge(self) -> None:
        """Take the jobs' `lowest` by minimum and concatenate their tables
        in slab order; raises the error of the first failed job.  A single
        slab's table is taken as it is: copying auto's raised the peak RSS
        of `stack_auto` by 2.4 MiB."""
        jobs, self._jobs = self._jobs, []
        columns = list(zip(*(job.result() for job in jobs)))
        self._lowest = np.minimum.reduce(columns[0])
        self._table = [c[0] if len(c) == 1 else np.concatenate(c) for c in columns[1:]]

    def evaluate(self, at: float):
        """`_surface` of the complex at alpha `at`, the table's rows with
        lo <= at < hi, once every shallow point has `lowest` <= at, that is,
        lies in a tetrahedron of radius <= at; else (None, reason)."""
        reason = _left_outside(self._shallow, self._lowest <= at)
        if reason:
            return None, reason
        tris, lo, hi = self._table
        return _surface(self._points, self._index, self._shallow,
                        tris[(lo <= at) & (at < hi)])

    def mesh(self) -> TriangleMesh:
        """The surface, once; raises the error of the first failed job, or
        a ReconstructionError if no closed manifold encloses every point."""
        self._merge()
        try:
            if self._alpha == AUTO:
                result, alpha_used = _search(self.evaluate, *self._table[1:])
            else:
                alpha_used = float(self._alpha)
                result, reason = self.evaluate(alpha_used)
                if result is None:
                    raise ReconstructionError(
                        f"alpha={alpha_used:g} does not yield a closed manifold "
                        f"enclosing all points: {reason}")
        finally:
            self._lowest = self._table = None

        tris, comp, vols = result
        cavities = int((vols < 0).sum())
        tris = tris[vols[comp] > 0]

        pts = self._points
        used, inverse = np.unique(tris, return_inverse=True)
        return TriangleMesh(vertices=pts[used],
                            triangles=inverse.reshape(tris.shape),
                            alpha_used=alpha_used,
                            cavities_discarded=cavities)


def start_alpha_shape(points, alpha: float | str,
                      pool: ThreadPoolExecutor) -> AlphaShapeBuild:
    """Check the input of `build_alpha_shape(points, alpha)`, take its shell
    on this thread and submit its triangulation to `pool`."""
    if alpha != AUTO and not is_positive_real(alpha):
        raise ReconstructionError(
            f"alpha must be finite and positive or 'auto', got {alpha}")
    if isinstance(points, PointCloud):
        pts, spacing = np.asarray(points.points, dtype=float), points.spacing
    else:
        pts, spacing = np.asarray(points, dtype=float), None
    _check_solid(pts)
    if alpha == AUTO:   # one slab of every point over every alpha
        span, spacing = (0.0, np.inf), None
    else:
        span = (float(alpha), float(alpha))
    index, shallow = _shell(pts, spacing, span[1])
    slabs = 1 if spacing is None else _SLABS_PER_WORKER * _workers()
    return AlphaShapeBuild(pts, alpha, index, shallow, _slab_complex(
        pts[index], _jittered(pts)[index], span, slabs, spacing, pool))


def build_alpha_shape(points, alpha: float | str = AUTO) -> TriangleMesh:
    """Reconstruct the closed external surface of a point cloud.

    `alpha` is a finite positive radius in mm, or "auto".  "auto" builds the
    face table of every point over every alpha as one slab, and binary
    searches the sorted tetrahedron circumradii for one whose boundary is a
    closed manifold enclosing all input points, reading the table at each
    probe; it returns a circumradius that passes while the next smaller one
    fails (or the smallest one); that number as a numeric alpha gives the
    same mesh.
    The search assumes that passing is monotone in alpha, which it is not, so
    a smaller circumradius can also pass: on seed 1 of the `stack_auto`
    benchmark spine it returns 4.44 and 6.36 mm for two vertebrae where
    0.866 mm passes (ROADMAP item 1).
    Interior boundary components (cavities) are discarded and counted on the
    returned mesh.

    A `PointCloud` with a numeric alpha above half its voxel diagonal h is
    triangulated only where it is at most 2h + max s_i deep (mm to the
    nearest lattice point outside the cloud, s the spacing; plus jitter
    margins), whatever alpha is.  The result equals the full build: every
    tetrahedron wider than a lattice cube's circumsphere has its vertices at
    most 2h deep, so surface vertices do, and narrower ones are kept
    wherever they lie.  A wider tetrahedron's empty ball at such a vertex
    holds the lattice point one step inside it, which the cloud must then
    lack, and no pruned point: a lattice walk inside the ball would join
    that point to a missing one with no shell point between (module
    docstring).  That shell is triangulated in 3 slabs per CPU of the
    affinity mask; a kept tetrahedron has its circumcentre in exactly one
    slab, so the result does not depend on the slab count.  A raw point
    array with a numeric alpha is one slab of every point.

    The slab jobs run on a pool of one thread per CPU that this call starts
    and joins; the merge of their tables and the selection run on the
    calling thread.  A pipeline that builds many clouds calls
    `start_alpha_shape` with one pool for the whole run instead, so that one
    cloud is triangulated while the previous one is selected.
    """
    with triangulation_pool() as pool:
        return start_alpha_shape(points, alpha, pool).mesh()


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
