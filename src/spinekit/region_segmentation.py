"""Functional-region segmentation of a vertebra surface.

Each mesh vertex gets its Euclidean distance to the vertebral-body centroid;
a Gaussian kernel density estimate turns those distances into a 1D curve,
and the curve's inflection points (computed in closed form from the kernel
sum, never by finite-differencing the sampled curve) become the distance
thresholds separating body, arch and processes.  The curve and both of its
derivatives are sampled once, on one 4096-point grid, by a kernel pass that
shares each block's exponentials between the three orders; sign changes
between neighbouring grid points bracket the roots, and the kernel is
evaluated again only to refine and classify them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np
from scipy.optimize import brentq

from .errors import DegenerateDistributionError, ThresholdFailureError
from .volume_io import centroid_mm

_SQRT2PI = np.sqrt(2.0 * np.pi)
_GRID_POINTS = 4096  # abscissae of the one sampled density curve
_SAMPLE_CHUNK = 4096
_CELL_BUDGET = 500_000  # grid x sample cells per kernel block, bounds peak memory


class Region(IntEnum):
    BODY = 0
    ARCH = 1
    PROCESS = 2


@dataclass
class DistanceSamples:
    """Per-vertex distance to the body centroid, mm."""

    values: np.ndarray            # (V,) float64, >= 0
    centroid: np.ndarray          # (3,) mm
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
    return DistanceSamples(values=values, centroid=c, centroid_in_bbox=in_bbox)


def silverman_bandwidth(values: np.ndarray) -> float:
    """0.9 * min(std, IQR/1.34) * n^(-1/5), with an IQR=0 fallback to std."""
    std = float(np.std(values))
    q75, q25 = np.percentile(values, [75, 25])
    iqr = float(q75 - q25)
    a = min(std, iqr / 1.34) if iqr > 0 else std
    return 0.9 * a * len(values) ** (-0.2)


@dataclass
class DensityCurve:
    """Gaussian KDE of distance samples, with closed-form derivatives."""

    grid: np.ndarray              # ascending abscissae, mm
    bandwidth: float
    samples: np.ndarray           # retained for exact derivative evaluation
    values: np.ndarray = field(init=False)   # (3, len(grid)): pdf, d1, d2

    def __post_init__(self):
        self.values = self.kernel(self.grid)

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
        norm = [n * h ** (order + 1) * _SQRT2PI for order in range(3)]
        return out / np.array(norm)[:, None]


def estimate_density(samples: DistanceSamples, bandwidth: float | None = None,
                     min_bandwidth: float | None = None) -> DensityCurve:
    """Gaussian KDE, with both derivatives, on one 4096-point grid covering
    [0, max(values) + margin].

    Bandwidth defaults to Silverman's rule, floored at `min_bandwidth` when
    given.  Distances measured on a voxel grid are quantized at the voxel
    scale, and Silverman's rule under-smooths such combs on structures only
    a few voxels wide; the pipeline floors the bandwidth at half the voxel
    diagonal.  Requires at least 10 samples with nonzero variance.
    """
    values = np.asarray(samples.values, dtype=float)
    if len(values) < 10:
        raise DegenerateDistributionError(
            f"need at least 10 distance samples, got {len(values)}")
    if np.std(values) == 0.0:
        raise DegenerateDistributionError("distance samples have zero variance")
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


def _refine_roots(func, xs: np.ndarray,
                  values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots of func between consecutive sign changes of `values` on `xs`,
    and the sign of `values` at each root's left bracket."""
    sign = np.sign(values)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    roots = [brentq(func, xs[i], xs[i + 1], xtol=1e-12 * (xs[-1] + 1.0))
             for i in flips]
    return np.asarray(roots), sign[flips]


def density_critical_points(curve: DensityCurve,
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Density modes and inflections, each ascending, and a descending mask.

    Modes are interior local maxima of the density.  A descending-flank
    inflection is one where the second derivative turns from negative to
    positive, i.e. the falling side of a density hump.  Both root sets are
    bracketed by sign changes of the curve's stored d1 and d2.
    """
    pdf_grid, d1, d2 = curve.values
    roots, _ = _refine_roots(lambda x: float(curve.kernel(x)[1, 0]), curve.grid, d1)
    infl, left_sign = _refine_roots(
        lambda x: float(curve.kernel(x)[2, 0]), curve.grid, d2)
    pdf, _, curvature = curve.kernel(roots)
    # bumps carrying under 0.1% of the peak density (e.g. isolated extreme
    # samples under a narrow bandwidth) do not count as modes
    floor = 1e-3 * float(pdf_grid.max())
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
    global_mode = float(curve.grid[int(np.argmax(curve.values[0]))])
    t1 = _descending_after(global_mode, infl, desc)
    if t1 is None:
        t1 = float(infl[desc][-1])
    t23 = max(float(infl[-1]), t1)
    return Thresholds(t1=t1, t2=t23, t3=t23, degraded=True)


@dataclass
class RegionLabeling:
    """Functional region per mesh vertex."""

    regions: np.ndarray           # (V,) int8 of Region values
    thresholds: Thresholds

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
    return RegionLabeling(regions=regions, thresholds=thresholds)
