"""Functional-region segmentation of a vertebra surface.

Each mesh vertex gets its Euclidean distance to the vertebral-body centroid;
a Gaussian kernel density estimate turns those distances into a 1D curve,
and the curve's inflection points (computed in closed form from the kernel
sum, never by finite-differencing the sampled curve) become the distance
thresholds separating body, arch and processes.  Sign changes of d1 and d2
between neighbouring points of one 4096-point grid bracket the roots, and
`DensityCurve.kernel`, the full sum over every sample, refines and
classifies them; each root is the lower of the two adjacent floats where
the sign changes (`_refine_roots`, a bisection), not a solver's tolerance.

The grid pass does not evaluate the full sum on the whole grid.  What the
thresholds read from the grid is the sign of d1 and of d2 at every point,
exact zeros included, and the largest pdf value with its first index; the
pass gives each exactly as `kernel(grid)` would.  With t = (x - s) / h, the
order-k term of sample s at grid point x is exp(-t^2/2) times 1, -t or
t^2 - 1, and each order's sum is divided by a positive normaliser.

- Cut sums.  The samples are sorted, and a block of grid rows sums only
  over the contiguous window of samples within c = 8.5 bandwidths of it
  (`_CUT`, widened by a hair for the rounding of x - s).  A dropped sample
  has |t| > c.  Let g_k(d) bound the size of an order-k term over |t| >= d
  (|t|^k exp(-t^2/2), with t^2 + 1 for t^2 at order 2; it falls for
  d >= 1), and let d be the row's distance to its nearest sample in
  bandwidths.  A dropped term is at most g_k(c), every term is at most
  g_k(d), and n terms summed in any order round by at most gamma_n times
  the sum of their sizes.  So, before normalisation, the cut sum is within

      B_k = n (1 + rho) g_k(c) + n rho g_k(d),   rho = (n + 16) eps

  of the full sum; rho covers both summations, the d2 sum taken as
  sum(t^2 e) - sum(e), and a few ulps between the two passes' terms.
  Where |cut sum| > 2 B_k, the full sum has the cut sum's sign and is
  larger than B_k, which keeps it nonzero after normalisation as long as
  B_k does.
- Tails.  Beyond every sample by more than c, all terms of one order share
  one sign (|t| > c >= 1 makes t^2 - 1 positive), and adding numbers of one
  sign never rounds below the largest of them.  So the full sum there has
  the sign of the nearest sample's term, provided that term is still
  nonzero after normalisation; its exponential must be a normal number, so
  that the last ulp of exp cannot decide.
- Full rows.  Every other row goes through `kernel`, and so does every row
  whose cut pdf lies within 2 B_0 of the top, max(cut pdf - 2 B_0); a row's
  `kernel` value does not depend on the rows that share its call.  Any
  other row's full pdf lies below the top row's by more than that row's
  B_0, a relative gap of at least rho, so after normalisation it can
  neither be the peak nor tie with it.

On the benchmark's vertebrae (1.5k-6k vertices) the cut windows hold 29-54%
of the grid-by-sample cells, and 30-80 rows go through `kernel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import DegenerateDistributionError, ThresholdFailureError
from .volume_io import centroid_mm, is_positive_real

_SQRT2PI = np.sqrt(2.0 * np.pi)
_GRID_POINTS = 4096  # abscissae of the one sampled density curve
_SAMPLE_CHUNK = 4096
# grid x sample cells per block, which bounds peak memory: `kernel` takes
# _CELL_BUDGET // min(n, _SAMPLE_CHUNK) rows against _SAMPLE_CHUNK samples at
# a time, the grid pass _BLOCK_ROWS rows against at most
# _CELL_BUDGET // _BLOCK_ROWS samples of their cut window at a time
_CELL_BUDGET = 500_000
_BLOCK_ROWS = 64
_CUT = 8.5  # kernel cut of the grid pass, in bandwidths; at least 1


class Region(IntEnum):
    BODY = 0
    ARCH = 1
    PROCESS = 2


@dataclass
class DistanceSamples:
    """Per-vertex distance to the body centroid, mm."""

    values: np.ndarray            # (V,) float64, >= 0
    centroid_in_bbox: bool = True


def distance_distribution(mesh, centroid) -> DistanceSamples:
    """Distance of every mesh vertex from the centroid.

    A centroid outside the mesh bounding box is recorded on the result but
    does not stop the computation; pathological anatomy is expected.
    """
    c = centroid_mm(centroid)
    verts = np.asarray(mesh.vertices, dtype=float)
    if len(verts) == 0:
        raise DegenerateDistributionError("mesh has no vertices")
    values = np.linalg.norm(verts - c, axis=1)
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    in_bbox = bool(np.all(c >= lo) and np.all(c <= hi))
    return DistanceSamples(values=values, centroid_in_bbox=in_bbox)


def silverman_bandwidth(values: np.ndarray) -> float:
    """0.9 * min(std, IQR/1.34) * n^(-1/5), with an IQR=0 fallback to std."""
    std = float(np.std(values))
    q75, q25 = np.percentile(values, [75, 25])
    iqr = float(q75 - q25)
    a = min(std, iqr / 1.34) if iqr > 0 else std
    return 0.9 * a * len(values) ** (-0.2)


@dataclass
class DensityCurve:
    """Gaussian KDE of distance samples, with closed-form derivatives.

    The grid pass stores only what the thresholds read, each exactly as
    `kernel(grid)` gives it: `signs`, the signs of d1 and d2 at every grid
    point (exact zeros included), and `peak` and `peak_index`, the largest
    pdf value on the grid and its first index.  `kernel` evaluates the
    full sums anywhere else.
    """

    grid: np.ndarray              # abscissae, mm
    bandwidth: float
    samples: np.ndarray           # retained for exact derivative evaluation
    signs: np.ndarray = field(init=False)   # (2, len(grid)) int8: d1, d2
    peak: float = field(init=False)         # max of the pdf on the grid
    peak_index: int = field(init=False)     # its first grid index

    def __post_init__(self):
        self.signs, self.peak, self.peak_index = _grid_pass(self)

    def _norms(self) -> np.ndarray:
        """n * h**(order + 1) * sqrt(2 pi): the divisor of each order's sum."""
        n, h = len(self.samples), self.bandwidth
        return np.array([n * h ** (order + 1) * _SQRT2PI for order in range(3)])

    def kernel(self, x) -> np.ndarray:
        """pdf, first and second derivative at `x`, as a (3, len(x)) array."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros((3, len(x)))
        h = self.bandwidth
        n = len(self.samples)
        rows = _CELL_BUDGET // min(n, _SAMPLE_CHUNK)
        for r0 in range(0, len(x), rows):
            xr = x[r0:r0 + rows, None]
            acc = out[:, r0:r0 + rows]
            for start in range(0, n, _SAMPLE_CHUNK):
                block = self.samples[start:start + _SAMPLE_CHUNK]
                t = (xr - block[None, :]) / h
                e = np.exp(-0.5 * t * t)
                acc[0] += e.sum(axis=1)
                acc[1] += (-t * e).sum(axis=1)
                acc[2] += ((t * t - 1.0) * e).sum(axis=1)
        return out / self._norms()[:, None]


def _majorant(order: int, d):
    """sup over |t| >= d of |t|**order * exp(-t*t / 2), with t*t + 1 in
    place of t*t for order 2: it bounds the size of every term of that
    order, and its rounding error over the rounding unit, for a sample at
    least d bandwidths from the grid point."""
    d = np.maximum(d, 1.0 if order else 0.0)
    return (d ** order + (order == 2)) * np.exp(-0.5 * d * d)


def _grid_pass(curve: DensityCurve) -> tuple[np.ndarray, float, int]:
    """Signs of d1 and d2 on the grid, and the pdf peak and its first index,
    equal to those of `curve.kernel(curve.grid)` (see the module docstring).
    """
    x = np.asarray(curve.grid, dtype=float)
    h = curve.bandwidth
    s = np.sort(curve.samples)
    n = len(s)
    eps = np.finfo(float).eps
    # the cut, widened past the rounding of x - s and of the window ends
    slack = 1e-6 * _CUT * h + 16 * eps * max(np.abs(x).max(), np.abs(s).max())
    reach = _CUT * h + slack
    sums = np.zeros((3, len(x)))           # raw sums over the cut windows
    for r0 in range(0, len(x), _BLOCK_ROWS):
        xb = x[r0:r0 + _BLOCK_ROWS]
        acc = sums[:, r0:r0 + _BLOCK_ROWS]
        lo = np.searchsorted(s, xb.min() - reach, side="left")
        hi = np.searchsorted(s, xb.max() + reach, side="right")
        step = _CELL_BUDGET // len(xb)
        for c0 in range(lo, hi, step):
            t = np.subtract.outer(xb, s[c0:min(c0 + step, hi)])
            t /= h
            e = t * t
            e *= -0.5
            np.exp(e, out=e)
            acc[0] += e.sum(axis=1)
            acc[1] -= np.einsum("ij,ij->i", t, e)
            t *= t
            acc[2] += np.einsum("ij,ij->i", t, e)
    sums[2] -= sums[0]                     # d2 = sum(t^2 e) - sum(e)

    # bound on |full sum - cut sum| per row: the dropped tail, plus the
    # rounding of both summations over the nearest-sample majorant
    i = np.searchsorted(s, x)
    gap = np.minimum(np.abs(x - s[np.maximum(i - 1, 0)]),
                     np.abs(s[np.minimum(i, n - 1)] - x))
    d = np.maximum(gap - slack, 0.0) / h
    rho = (n + 16) * eps
    err = n * np.array([(1 + rho) * _majorant(k, _CUT) + rho * _majorant(k, d)
                        for k in range(3)])
    norm = curve._norms()[:, None]
    sure = (np.abs(sums[1:]) > 2 * err[1:]) & (err[1:] / norm[1:] > 0)
    signs = np.sign(sums[1:]).astype(np.int8)

    # beyond every sample by more than the cut, all terms of an order share
    # one sign, and the full sum is at least the nearest sample's term; the
    # factor 1 - 1e-9 covers a last-ulp difference of exp between the passes
    tail = np.flatnonzero((x < s[0] - reach) | (x > s[-1] + reach))
    t = (x[tail] - np.where(x[tail] < s[0], s[0], s[-1])) / h
    e = np.exp(-0.5 * t * t)
    near = np.stack([-t * e, (t * t - 1.0) * e])
    held = (e >= np.finfo(float).tiny) & (np.abs(near) * (1 - 1e-9) / norm[1:] > 0)
    signs[:, tail] = np.where(held, np.sign(near), signs[:, tail])
    sure[:, tail] |= held

    # only rows within twice the bound of the top can hold the pdf peak
    top = sums[0] + 2 * err[0] >= np.max(sums[0] - 2 * err[0])
    redo = np.flatnonzero(top | ~sure[0] | ~sure[1])
    rows = curve.kernel(x[redo])
    signs[:, redo] = np.sign(rows[1:])
    j = int(np.argmax(rows[0]))
    return signs, float(rows[0, j]), int(redo[j])


def estimate_density(samples: DistanceSamples, bandwidth: float | None = None,
                     min_bandwidth: float | None = None) -> DensityCurve:
    """Gaussian KDE, with both derivatives, on one 4096-point grid covering
    [0, max(values) + margin].

    Bandwidth defaults to Silverman's rule, floored at `min_bandwidth` when
    given.  Distances measured on a voxel grid are quantized at the voxel
    scale, and Silverman's rule under-smooths such combs on structures only
    a few voxels wide; the pipeline floors the bandwidth at half the voxel
    diagonal.  Requires at least 10 finite samples with nonzero variance.
    """
    values = np.asarray(samples.values, dtype=float)
    if len(values) < 10:
        raise DegenerateDistributionError(
            f"need at least 10 distance samples, got {len(values)}")
    if not np.isfinite(values).all():
        raise DegenerateDistributionError("distance samples must be finite")
    if np.std(values) == 0.0:
        raise DegenerateDistributionError("distance samples have zero variance")
    for name, given in (("bandwidth", bandwidth), ("min_bandwidth", min_bandwidth)):
        if given is not None and not is_positive_real(given):
            raise DegenerateDistributionError(f"{name} must be finite and positive")
    h = float(bandwidth) if bandwidth is not None else silverman_bandwidth(values)
    if min_bandwidth is not None and bandwidth is None:
        h = max(h, float(min_bandwidth))
    if h <= 0:
        raise DegenerateDistributionError(f"bandwidth must be positive, got {h}")
    dmax = float(values.max())
    hi = max(1.05 * dmax, dmax + 4.0 * h)
    return DensityCurve(grid=np.linspace(0.0, hi, _GRID_POINTS), bandwidth=h,
                        samples=values)


@dataclass(frozen=True)
class Thresholds:
    """Distance thresholds at density inflection points, mm.

    t1 bounds the vertebral body, t2 the arch; t3 is the reference distance
    for the process region.  `degraded` marks thresholds recovered from a
    curve without the expected trimodal structure; only then may t2 == t3
    (or t1 == t2 for single-mode fallbacks).
    """

    t1: float
    t2: float
    t3: float
    degraded: bool = False

    def __post_init__(self):
        if not (0.0 < self.t1 <= self.t2 <= self.t3):
            raise ThresholdFailureError(
                f"thresholds must satisfy 0 < t1 <= t2 <= t3, got "
                f"({self.t1}, {self.t2}, {self.t3})")
        if not self.degraded and not (self.t1 < self.t2 < self.t3):
            raise ThresholdFailureError(
                "non-degraded thresholds must be strictly increasing")


def _refine_roots(func, xs: np.ndarray, values: np.ndarray) -> list:
    """Per row r of `values`, row r of `func` sampled on `xs` (func(x) gives
    every row): (roots, left signs), in each bracket where the row changes
    sign the last float with its left sign, the next float having another.
    Bisects every bracket at once, one `func` call per step, to adjacent
    floats (a closed bracket's midpoint is one of its ends and stays put)."""
    sign = np.sign(values)
    row, i = np.nonzero(sign[:, :-1] * sign[:, 1:] < 0)
    left, lo, hi = sign[row, i], xs[i], xs[i + 1]
    mid = 0.5 * (lo + hi)
    while np.any((lo < mid) & (mid < hi)):
        kept = np.sign(func(mid)[row, np.arange(len(mid))]) == left
        lo, hi = np.where(kept, mid, lo), np.where(kept, hi, mid)
        mid = 0.5 * (lo + hi)
    return [(lo[row == r], left[row == r]) for r in range(len(sign))]


def density_critical_points(curve: DensityCurve,
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Density modes and inflections, each ascending, and a descending mask.

    Modes are interior local maxima of the density.  A descending-flank
    inflection is one where the second derivative turns from negative to
    positive, i.e. the falling side of a density hump.  Both root sets are
    bracketed by sign changes of the curve's stored d1 and d2.
    """
    (roots, _), (infl, left_sign) = _refine_roots(
        lambda x: curve.kernel(x)[1:], curve.grid, curve.signs)
    pdf, _, curvature = curve.kernel(roots)
    # bumps carrying under 0.1% of the peak density (e.g. isolated extreme
    # samples under a narrow bandwidth) do not count as modes
    floor = 1e-3 * curve.peak
    modes = roots[(curvature < 0) & (pdf >= floor)]
    return modes, infl, left_sign < 0


def _descending_after(x0: float, infl: np.ndarray, desc: np.ndarray) -> float | None:
    after = infl[(infl > x0) & desc]
    return float(after[0]) if after.size else None


def find_thresholds(curve: DensityCurve) -> Thresholds:
    """Thresholds at the descending-flank inflections of the density modes.

    With three or more modes, t1/t2/t3 follow the first three modes.  With
    exactly two, t3 falls back to the last inflection and the result is
    flagged degraded.  Fewer than two modes (or fewer than two inflections)
    is a threshold failure; callers may then fall back to
    `degraded_thresholds`.
    """
    modes, infl, desc = density_critical_points(curve)
    if len(infl) < 2:
        raise ThresholdFailureError(
            f"density curve has only {len(infl)} inflection points")
    if len(modes) < 2:
        raise ThresholdFailureError(
            f"density curve has {len(modes)} mode(s); need at least 2")

    t1 = _descending_after(modes[0], infl, desc)
    t2 = _descending_after(modes[1], infl, desc)
    if t1 is None or t2 is None:
        raise ThresholdFailureError("missing descending inflection after a mode")
    if len(modes) >= 3:
        t3 = _descending_after(modes[2], infl, desc)
        if t3 is None or not (t1 < t2 < t3):
            raise ThresholdFailureError("inflections do not partition the modes")
        return Thresholds(t1=t1, t2=t2, t3=t3)
    return Thresholds(t1=t1, t2=t2, t3=max(float(infl[-1]), t2), degraded=True)


def degraded_thresholds(curve: DensityCurve) -> Thresholds:
    """Single-mode fallback: t1 at the descending flank of the global mode.

    Used by the pipeline when `find_thresholds` fails, so that a vertebra
    with a collapsed distance distribution still gets a (flagged) labeling
    instead of failing the whole spine.
    """
    _, infl, desc = density_critical_points(curve)
    if len(infl) == 0 or not desc.any():
        raise ThresholdFailureError("density curve has no descending inflection")
    global_mode = float(curve.grid[curve.peak_index])
    t1 = _descending_after(global_mode, infl, desc)
    if t1 is None:
        t1 = float(infl[desc][-1])
    t23 = max(float(infl[-1]), t1)
    return Thresholds(t1=t1, t2=t23, t3=t23, degraded=True)


@dataclass
class RegionLabeling:
    """Functional region per mesh vertex."""

    regions: np.ndarray           # (V,) int8 of Region values

    def mask(self, region: Region) -> np.ndarray:
        return self.regions == int(region)

    def counts(self) -> dict[str, int]:
        return {r.name.lower(): int((self.regions == int(r)).sum()) for r in Region}


def classify_vertices(samples: DistanceSamples, thresholds: Thresholds) -> RegionLabeling:
    """Body: d < t1; arch: t1 <= d < t2; process: d >= t2.

    Boundary ties go to the outer region.
    """
    d = samples.values
    regions = np.full(len(d), int(Region.PROCESS), dtype=np.int8)
    regions[d < thresholds.t2] = int(Region.ARCH)
    regions[d < thresholds.t1] = int(Region.BODY)
    return RegionLabeling(regions=regions)
