"""Distance distributions, KDE, thresholds and vertex classification."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import brentq

import spinekit as sk
from spinekit.errors import DegenerateDistributionError, ThresholdFailureError
from spinekit import region_segmentation
from spinekit.region_segmentation import _CELL_BUDGET, _SAMPLE_CHUNK

from conftest import (density_inflections_reference, density_modes_reference,
                      kernel_rows_reference, kernel_sums_reference,
                      vertex_region_truth)

_SQRT2PI = np.sqrt(2 * np.pi)


# -------------------------------------------------- closed-form mixture oracle

def _mix(weights, mus, sigmas):
    """pdf / d1 / d2 of a Gaussian mixture, as callables."""
    params = list(zip(weights, mus, sigmas))

    def pdf(x):
        return sum(w * np.exp(-0.5 * ((x - m) / s) ** 2) / (s * _SQRT2PI)
                   for w, m, s in params)

    def d1(x):
        return sum(-w * ((x - m) / s) * np.exp(-0.5 * ((x - m) / s) ** 2)
                   / (s ** 2 * _SQRT2PI) for w, m, s in params)

    def d2(x):
        return sum(w * (((x - m) / s) ** 2 - 1) * np.exp(-0.5 * ((x - m) / s) ** 2)
                   / (s ** 3 * _SQRT2PI) for w, m, s in params)

    return pdf, d1, d2


def _roots(func, lo, hi, n=4000):
    xs = np.linspace(lo, hi, n)
    vals = np.array([func(x) for x in xs])
    sign = np.sign(vals)
    roots = []
    for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        roots.append(brentq(func, xs[i], xs[i + 1]))
    return np.array(roots)


def _silverman_oracle(x):
    std = np.std(x)
    q75, q25 = np.percentile(x, [75, 25])
    return 0.9 * min(std, (q75 - q25) / 1.34) * len(x) ** (-0.2)


def _mix_samples(rng, n, weights, mus, sigmas):
    comp = rng.choice(len(weights), size=n, p=weights)
    return rng.normal(np.asarray(mus)[comp], np.asarray(sigmas)[comp])


def _as_samples(values):
    return sk.DistanceSamples(values=np.asarray(values, dtype=float))


# -------------------------------------------------------- distance distribution

def test_single_vertex_at_centroid_gives_zero():
    mesh = sk.TriangleMesh(vertices=np.array([[3.0, 4.0, 5.0]]),
                           triangles=np.zeros((0, 3), dtype=int))
    samples = sk.distance_distribution(mesh, np.array([3.0, 4.0, 5.0]))
    assert samples.values.tolist() == [0.0]


def test_sphere_distances_in_quantization_band(sphere_volume, sphere_mesh):
    samples = sk.distance_distribution(sphere_mesh, sphere_volume.centroids[1])
    sq3 = np.sqrt(3.0)
    assert samples.values.min() >= 10.0 - sq3
    assert samples.values.max() <= 10.0 + sq3
    assert samples.centroid_in_bbox


def test_centroid_outside_bbox_flagged(sphere_mesh):
    samples = sk.distance_distribution(sphere_mesh, np.array([-50.0, 0.0, 0.0]))
    assert not samples.centroid_in_bbox
    assert np.all(samples.values > 0)


def test_compound_distances_trimodal(compound, compound_mesh):
    volume, truth = compound
    samples = sk.distance_distribution(compound_mesh, volume.centroids[1])
    bands = [truth.body_band, truth.arch_band, truth.process_band]
    assignment = np.full(len(samples.values), -1)
    for i, (lo, hi) in enumerate(bands):
        assignment[(samples.values >= lo) & (samples.values <= hi)] = i
    assert np.all(assignment >= 0)
    assert all((assignment == i).sum() > 0 for i in range(3))


# ------------------------------------------------------------------ density

def test_estimate_density_zero_variance_error():
    with pytest.raises(DegenerateDistributionError):
        sk.estimate_density(_as_samples(np.full(100, 7.0)))


def test_estimate_density_too_few_samples_error():
    with pytest.raises(DegenerateDistributionError):
        sk.estimate_density(_as_samples([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("name", ["bandwidth", "min_bandwidth"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), True, "1.0", 0.0, -1.0])
def test_estimate_density_rejects_bad_bandwidths(name, value):
    # the rule `PipelineConfig` applies: a finite real above 0, not a bool
    values = np.random.default_rng(0).normal(10.0, 2.0, 200)
    with pytest.raises(DegenerateDistributionError, match="must be finite and positive"):
        sk.estimate_density(_as_samples(values), **{name: value})


def test_density_grid_and_normalization(compound, compound_mesh):
    volume, _ = compound
    samples = sk.distance_distribution(compound_mesh, volume.centroids[1])
    curve = sk.estimate_density(samples)
    assert len(curve.grid) == 4096
    assert curve.signs.shape == (2, 4096)
    assert curve.grid[-1] >= 1.05 * samples.values.max()
    integral = np.trapezoid(curve.kernel(curve.grid)[0], curve.grid)
    assert 0.99 <= integral <= 1.01


def test_kde_normalization_on_synthetic_inputs():
    rng = np.random.default_rng(11)
    for values in (rng.normal(20, 2, 5000),
                   _mix_samples(rng, 5000, [0.5, 0.5], [15, 30], [1, 1])):
        curve = sk.estimate_density(_as_samples(np.abs(values)))
        integral = np.trapezoid(curve.kernel(curve.grid)[0], curve.grid)
        assert 0.99 <= integral <= 1.01


def test_silverman_bandwidth_formula():
    rng = np.random.default_rng(3)
    x = rng.normal(10, 2, 4096)
    assert sk.silverman_bandwidth(x) == pytest.approx(_silverman_oracle(x), rel=1e-12)


def test_kde_peak_location_truncated_normal():
    rng = np.random.default_rng(42)
    draws = rng.normal(20.0, 2.0, 100_000)
    draws = draws[draws > 0]
    curve = sk.estimate_density(_as_samples(draws))
    modes, _, _ = sk.density_critical_points(curve)
    assert len(modes) == 1
    assert abs(modes[0] - 20.0) <= 0.2


def test_kde_two_mode_mixture_maxima():
    rng = np.random.default_rng(7)
    draws = _mix_samples(rng, 20_000, [0.5, 0.5], [15.0, 30.0], [1.0, 1.0])
    curve = sk.estimate_density(_as_samples(draws))
    modes, _, _ = sk.density_critical_points(curve)
    assert len(modes) == 2
    assert abs(modes[0] - 15.0) <= 0.3
    assert abs(modes[1] - 30.0) <= 0.3
    # oracle: modes of the mixture smoothed by the actual bandwidth
    h = _silverman_oracle(draws)
    s = float(np.hypot(1.0, h))
    _, d1, _ = _mix([0.5, 0.5], [15.0, 30.0], [s, s])
    oracle = _roots(d1, 10.0, 35.0)
    oracle_modes = oracle[[0, -1]]       # outer roots are the two maxima
    np.testing.assert_allclose(modes, oracle_modes, atol=0.2)


# ------------------------------------------- fused kernel vs per-order oracle

def _seeded_distances(seed: int, n: int, quantum: float) -> np.ndarray:
    """Mixture of 1-4 normal humps folded to >= 0, optionally quantized."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 5))
    weights = rng.dirichlet(np.ones(k))
    values = np.abs(_mix_samples(rng, n, weights, rng.uniform(2.0, 40.0, k),
                                 rng.uniform(0.3, 4.0, k)))
    return np.round(values / quantum) * quantum if quantum > 0 else values


def _assert_critical_points_match(curve, rows):
    modes, infl, desc = sk.density_critical_points(curve)
    ref_infl, ref_desc = density_inflections_reference(curve, rows)
    assert np.array_equal(modes, density_modes_reference(curve, rows))
    assert np.array_equal(infl, ref_infl)
    assert np.array_equal(desc, ref_desc)


def _assert_grid_pass_matches(curve, rows):
    """The curve's stored signs and pdf peak equal those of the full rows."""
    assert np.array_equal(curve.signs, np.sign(rows[1:]))
    assert curve.peak == rows[0].max()
    assert curve.peak_index == int(np.argmax(rows[0]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       n=st.one_of(st.integers(10, 300), st.integers(3000, 9000)),
       quantum=st.sampled_from((0.0, 0.5)),
       row_blocks=st.floats(0.3, 2.5))
def test_fused_kernel_rows_equal_per_order_sums(seed, n, quantum, row_blocks):
    values = _seeded_distances(seed, n, quantum)
    assume(np.std(values) > 0)
    curve = sk.DensityCurve(grid=np.zeros(1), samples=values,
                            bandwidth=sk.silverman_bandwidth(values))
    # grid lengths on both sides of the per-block row budget
    rows = _CELL_BUDGET // min(n, _SAMPLE_CHUNK)
    x = np.random.default_rng(seed).uniform(
        -5.0, values.max() + 5.0, max(1, int(row_blocks * rows)))
    fused = curve.kernel(x)
    assert fused.shape == (3, len(x))
    for order in range(3):
        assert np.array_equal(fused[order],
                              kernel_sums_reference(curve, x, order))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       n=st.one_of(st.integers(10, 300), st.integers(3000, 9000)),
       quantum=st.sampled_from((0.0, 0.5)),
       bandwidth=st.one_of(st.none(), st.floats(0.1, 3.0)))
def test_critical_points_equal_per_order_passes(seed, n, quantum, bandwidth):
    values = _seeded_distances(seed, n, quantum)
    assume(np.std(values) > 0)
    curve = sk.estimate_density(_as_samples(values), bandwidth=bandwidth)
    rows = kernel_rows_reference(curve)
    full = curve.kernel(curve.grid)
    for order in range(3):
        assert np.array_equal(full[order], rows[order])
    _assert_grid_pass_matches(curve, rows)
    _assert_critical_points_match(curve, rows)


def test_critical_points_equal_per_order_passes_on_compound(compound_segmentation):
    _, curve, _, _ = compound_segmentation
    _assert_critical_points_match(curve, kernel_rows_reference(curve))


def _record_kernel_calls(monkeypatch) -> list[int]:
    """The number of abscissae of every later `DensityCurve.kernel` call."""
    lengths = []
    kernel = sk.DensityCurve.kernel

    def recording_kernel(self, x):
        lengths.append(np.size(x))
        return kernel(self, x)

    monkeypatch.setattr(sk.DensityCurve, "kernel", recording_kernel)
    return lengths


def test_one_grid_evaluation_per_curve(compound_segmentation, monkeypatch):
    # the grid pass evaluates the full kernel only on the rows it cannot
    # certify, and the thresholds and their fallback read the stored signs
    # and peak; the kernel is called again only for brentq and for the roots
    samples = compound_segmentation[0]
    lengths = _record_kernel_calls(monkeypatch)
    curve = sk.estimate_density(samples)
    sk.find_thresholds(curve)
    sk.degraded_thresholds(curve)
    assert lengths and max(lengths) < len(curve.grid)


# ------------------------------------------ certified grid pass vs full rows

@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       n=st.one_of(st.integers(10, 300), st.integers(3000, 9000)),
       quantum=st.sampled_from((0.0, 0.5)),
       bandwidth=st.one_of(st.none(), st.floats(0.05, 3.0)))
def test_grid_pass_signs_and_peak_equal_full_rows(seed, n, quantum, bandwidth):
    # tiny bandwidths leave rows with empty cut windows, between the samples
    # and on both tails, where every term may underflow to zero
    values = _seeded_distances(seed, n, quantum)
    assume(np.std(values) > 0)
    curve = sk.estimate_density(_as_samples(values), bandwidth=bandwidth)
    _assert_grid_pass_matches(curve, kernel_rows_reference(curve))


def _symmetric_clusters_curve() -> sk.DensityCurve:
    """Two clusters of sample pairs x0 -/+ a, dyadic throughout, 48 mm apart
    on a dyadic grid: at each x0 the pairs' d1 terms cancel exactly in sample
    order, and the other cluster's terms underflow to zero, so the full pass
    reads d1 == 0 there.  Towards the grid's ends the nearest term becomes
    subnormal, then vanishes after normalisation, then underflows itself."""
    offsets = np.random.default_rng(5).integers(1, 25, 40) / 8.0
    samples = np.concatenate([np.column_stack([x0 - offsets, x0 + offsets]).ravel()
                              for x0 in (48.0, 96.0)])
    return sk.DensityCurve(grid=np.arange(4608) / 32.0, bandwidth=1.0,
                           samples=samples)


@pytest.mark.parametrize("cut", [region_segmentation._CUT, 30.0])
def test_grid_pass_keeps_exact_zeros(monkeypatch, cut):
    # at a cut of 30 the dropped tail is negligible and the rounding term
    # alone must send the exact zeros to the full kernel
    monkeypatch.setattr(region_segmentation, "_CUT", cut)
    curve = _symmetric_clusters_curve()
    rows = kernel_rows_reference(curve)
    centers = np.searchsorted(curve.grid, [48.0, 96.0])
    assert np.all(rows[1][centers] == 0)
    assert np.all(rows[1][:64] == 0) and np.all(rows[1][-64:] == 0)
    _assert_grid_pass_matches(curve, rows)


def test_grid_pass_with_a_short_cut_recomputes_most_rows(monkeypatch):
    monkeypatch.setattr(region_segmentation, "_CUT", 1.0)
    lengths = _record_kernel_calls(monkeypatch)
    values = _seeded_distances(3, 2000, 0.0)
    curve = sk.estimate_density(_as_samples(values))
    assert lengths[0] > len(curve.grid) // 2
    _assert_grid_pass_matches(curve, kernel_rows_reference(curve))


# ---------------------------------------------------------------- thresholds

def test_thresholds_three_mode_mixture_against_closed_form():
    rng = np.random.default_rng(19)
    draws = _mix_samples(rng, 30_000, [1 / 3] * 3, [15.0, 25.0, 40.0],
                         [1.0, 1.0, 1.0])
    curve = sk.estimate_density(_as_samples(draws))
    th = sk.find_thresholds(curve)
    assert not th.degraded
    assert 15.0 < th.t1 < 25.0
    assert 25.0 < th.t2 < 40.0
    assert th.t3 > 40.0 - 3.0

    # oracle: descending-flank inflections of the h-smoothed mixture
    h = _silverman_oracle(draws)
    s = float(np.hypot(1.0, h))
    _, _, d2 = _mix([1 / 3] * 3, [15.0, 25.0, 40.0], [s, s, s])
    for t, mode in zip((th.t1, th.t2, th.t3), (15.0, 25.0, 40.0)):
        oracle_t = _roots(d2, mode, mode + 5.0)[0]
        assert t == pytest.approx(oracle_t, abs=0.25)


def test_unimodal_curve_threshold_failure():
    rng = np.random.default_rng(5)
    draws = rng.normal(20.0, 2.0, 5000)
    curve = sk.estimate_density(_as_samples(draws))
    with pytest.raises(ThresholdFailureError):
        sk.find_thresholds(curve)


def test_degraded_thresholds_unimodal_fallback():
    rng = np.random.default_rng(5)
    draws = rng.normal(20.0, 2.0, 5000)
    curve = sk.estimate_density(_as_samples(draws))
    th = sk.degraded_thresholds(curve)
    assert th.degraded
    assert th.t1 > 20.0            # descending flank sits past the mode
    assert th.t1 <= th.t2 <= th.t3


def test_compound_pipeline_thresholds_in_band_gaps(compound_segmentation):
    _, _, th, _ = compound_segmentation
    assert not th.degraded
    assert 15.0 < th.t1 < 25.0
    assert 25.0 < th.t2 < 40.0


def test_thresholds_validation():
    with pytest.raises(ThresholdFailureError):
        sk.Thresholds(t1=5.0, t2=4.0, t3=6.0)
    with pytest.raises(ThresholdFailureError):
        sk.Thresholds(t1=5.0, t2=5.0, t3=6.0)            # strict when not degraded
    sk.Thresholds(t1=5.0, t2=5.0, t3=5.0, degraded=True)  # allowed when degraded
    with pytest.raises(ThresholdFailureError):
        sk.Thresholds(t1=0.0, t2=1.0, t3=2.0)


# ------------------------------------------------------------- classification

def test_classify_boundary_ties_go_outward():
    th = sk.Thresholds(t1=5.0, t2=7.0, t3=9.0)
    samples = _as_samples([0.0, 4.999, 5.0, 6.999, 7.0, 100.0])
    labeling = sk.classify_vertices(samples, th)
    expected = [sk.Region.BODY, sk.Region.BODY, sk.Region.ARCH,
                sk.Region.ARCH, sk.Region.PROCESS, sk.Region.PROCESS]
    assert labeling.regions.tolist() == [int(r) for r in expected]


def test_classify_compound_zero_misclassification(compound, compound_mesh,
                                                  compound_segmentation):
    volume, truth = compound
    _, _, _, labeling = compound_segmentation
    gt = vertex_region_truth(compound_mesh, volume, truth)
    assert int((labeling.regions != gt).sum()) == 0


def test_classification_partition_and_monotone(compound_segmentation):
    samples, _, th, labeling = compound_segmentation
    counts = labeling.counts()
    assert sum(counts.values()) == len(samples.values)
    d = samples.values
    body = d[labeling.mask(sk.Region.BODY)]
    arch = d[labeling.mask(sk.Region.ARCH)]
    proc = d[labeling.mask(sk.Region.PROCESS)]
    assert body.max() < arch.min()
    assert arch.max() < proc.min()


def test_scale_equivariance(compound, compound_mesh, compound_segmentation):
    volume, _ = compound
    _, _, th, labeling = compound_segmentation
    s = 2.0
    scaled_mesh = sk.TriangleMesh(vertices=compound_mesh.vertices * s,
                                  triangles=compound_mesh.triangles)
    samples = sk.distance_distribution(scaled_mesh, volume.centroids[1].mm * s)
    th2 = sk.find_thresholds(sk.estimate_density(samples))
    assert th2.t1 == pytest.approx(s * th.t1, rel=1e-6)
    assert th2.t2 == pytest.approx(s * th.t2, rel=1e-6)
    assert th2.t3 == pytest.approx(s * th.t3, rel=1e-6)
    labeling2 = sk.classify_vertices(samples, th2)
    assert np.array_equal(labeling2.regions, labeling.regions)
