"""Per-pixel reference estimators."""

import numpy as np
import pytest

from splidar.baselines import pixelwise_ml, reconstruct_no_scan
from splidar.forward import Kernel, ScanConfig, make_kernel, simulate
from splidar.scene import SPEED_OF_LIGHT, Scene


def gauss_template(size=5, sigma=1.0):
    t = np.arange(size) - size // 2
    g = np.exp(-0.5 * (t / sigma) ** 2)
    return g / g.sum()


def temporal_kernel(g):
    """A Kernel with a one-tap spatial factor and temporal factor g."""
    return Kernel(xy=np.ones(1), temporal=np.asarray(g, dtype=np.float64))


def test_noiseless_spike_recovers_exact_bin():
    g = gauss_template()
    counts = np.zeros((3, 3, 32))
    bins = np.array([[4, 9, 14], [19, 24, 29 - 2], [7, 11, 13]])
    for i in range(3):
        for j in range(3):
            k = bins[i, j]
            counts[i, j, k - 2 : k + 3] = 100 * g
    maps = pixelwise_ml(counts, temporal_kernel(g), b=0.0, window_half=2)
    np.testing.assert_array_equal(
        np.rint(maps.depth / (SPEED_OF_LIGHT / 2.0)).astype(int), bins
    )
    np.testing.assert_allclose(maps.reflectivity, 100.0, rtol=1e-9)
    assert maps.valid.all()


def test_empty_pixels_flagged_invalid():
    counts = np.zeros((2, 2, 16))
    counts[0, 0, 5] = 3
    maps = pixelwise_ml(counts, temporal_kernel(gauss_template()), b=0.0)
    assert maps.valid[0, 0]
    assert not maps.valid[1, 1]
    assert np.isnan(maps.depth[1, 1])
    assert maps.reflectivity[1, 1] == 0.0


def test_background_subtraction_in_reflectivity():
    counts = np.full((1, 1, 20), 2.0)
    counts[0, 0, 8] = 50.0
    maps = pixelwise_ml(counts, temporal_kernel(gauss_template()), b=2.0, window_half=1)
    # window holds 50 + 2 + 2 counts over 3 bins, minus 3 * b
    assert maps.reflectivity[0, 0] == pytest.approx(48.0)


def test_reflectivity_never_negative():
    rng = np.random.default_rng(0)
    counts = rng.poisson(0.5, size=(8, 8, 24)).astype(np.float64)
    maps = pixelwise_ml(counts, temporal_kernel(gauss_template()), b=5.0)
    assert (maps.reflectivity >= 0).all()


def test_pixels_are_independent():
    rng = np.random.default_rng(1)
    counts = rng.poisson(2.0, size=(4, 6, 30)).astype(np.float64)
    kernel = temporal_kernel(gauss_template())
    whole = pixelwise_ml(counts, kernel, b=0.3)
    perm = rng.permutation(4)
    permuted = pixelwise_ml(counts[perm], kernel, b=0.3)
    np.testing.assert_array_equal(whole.depth[perm], permuted.depth)
    np.testing.assert_array_equal(whole.reflectivity[perm], permuted.reflectivity)


def test_log_template_beats_raw_argmax_under_jitter():
    # spread the return over several bins: correlation with the pulse shape
    # pools the evidence, the raw per-bin argmax does not
    rng = np.random.default_rng(2)
    g = gauss_template(7, 1.5)
    n_trials, n_bins, true_bin = 300, 40, 17
    flux = np.zeros(n_bins)
    flux[true_bin - 3 : true_bin + 4] = 6.0 * g
    flux += 0.05
    y = rng.poisson(flux, size=(n_trials, 1, n_bins)).astype(np.float64)
    maps = pixelwise_ml(y, temporal_kernel(g), b=0.05)
    ml_bins = np.rint(maps.depth[:, 0] / (SPEED_OF_LIGHT / 2.0))
    raw_bins = np.argmax(y[:, 0, :], axis=1)
    ml_rmse = np.sqrt(np.mean((ml_bins - true_bin) ** 2))
    raw_rmse = np.sqrt(np.mean((raw_bins - true_bin) ** 2))
    assert ml_rmse <= raw_rmse


def test_ml_input_validation():
    counts = np.zeros((2, 2, 10))
    kernel = temporal_kernel(gauss_template())
    with pytest.raises(ValueError):
        pixelwise_ml(counts[:, :, 0], kernel, 0.0)
    with pytest.raises(ValueError):
        temporal_kernel(np.ones(4) / 4)  # even length
    with pytest.raises(ValueError):
        pixelwise_ml(counts, kernel, -0.5)
    for b in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            pixelwise_ml(counts, kernel, b)
        bad_counts = counts.copy()
        bad_counts[1, 0, 4] = b
        with pytest.raises(ValueError, match="finite"):
            pixelwise_ml(bad_counts, kernel, 0.0)
    bad_counts = counts.copy()
    bad_counts[0, 1, 3] = -1.0
    with pytest.raises(ValueError, match="non-negative"):
        pixelwise_ml(bad_counts, kernel, 0.0)
    with pytest.raises(ValueError, match="longer than the histogram"):
        pixelwise_ml(counts, temporal_kernel(np.ones(11) / 11), 0.0)
    with pytest.raises(ValueError):
        pixelwise_ml(counts, kernel, 0.0, window_half=-1)
    nan, inf = float("nan"), float("inf")
    for g in ([nan, 1, nan], [inf, 1, inf], [-0.5, 2, -0.5], [0, 0, 0]):
        with pytest.raises(ValueError, match="temporal factor"):
            temporal_kernel(g)


def test_ml_requires_an_exactly_symmetric_kernel():
    counts = np.zeros((2, 2, 24))
    counts[0, 0, 9] = 4
    tilted = gauss_template()
    tilted[0] = np.nextafter(tilted[0], 1.0)  # one ulp off its mirror tap
    # [0, 1, 0.5] is also refused for its sum, before its symmetry is read
    for g in ([0.2, 0.5, 0.3], [0.0, 1.0, 0.5], tilted):
        with pytest.raises(ValueError, match="temporal factor"):
            temporal_kernel(g)
    # every kernel the pipeline and the other tests pass is accepted
    kernels = [gauss_template(), gauss_template(7, 1.5)]
    for bin_width in (0.4e-9, 1.6e-9):
        for jitter in (0.0, 1e-9, 3e-9):
            cfg = ScanConfig(jitter_fwhm=jitter, bin_width=bin_width, n_bins=24,
                             sbr_window=24 * bin_width)
            kernels.append(make_kernel(cfg).temporal)
    for g in kernels:
        for maps in (pixelwise_ml(counts, temporal_kernel(g), 0.1),
                     reconstruct_no_scan(counts, temporal_kernel(g), 0.1, 1)):
            assert maps.valid.tolist() == [[True, False], [False, False]]
            assert maps.depth[0, 0] == 9 * SPEED_OF_LIGHT / 2.0


def test_no_scan_factor_one_is_pixelwise():
    scene = Scene(
        reflectivity=np.full((6, 6), 0.7), depth=np.full((6, 6), 2.4)
    )
    cfg = ScanConfig(n=1, jitter_fwhm=1e-9, bin_width=1.6e-9, n_bins=32,
                     sbr_window=48e-9)
    cube = simulate(scene, cfg, ppp=20.0, sbr=2.0, seed=5)
    kernel, b = make_kernel(cfg), cube.background_per_bin
    # factor f reads the scan position at offset (0, 0) of every f x f block
    for f in (1, 2):
        coarse = pixelwise_ml(cube.counts[::f, ::f], kernel, b)
        via = reconstruct_no_scan(cube.counts, kernel, b, f)
        for field in ("depth", "reflectivity", "valid"):
            expected = np.repeat(np.repeat(getattr(coarse, field), f, axis=0), f, axis=1)
            assert getattr(via, field).tobytes() == expected.tobytes()


def test_no_scan_output_is_blocky():
    scene = Scene(
        reflectivity=np.full((8, 8), 0.8),
        depth=np.tile(np.repeat([2.0, 3.2], 4), (8, 1)),
    )
    cfg = ScanConfig(n=2, jitter_fwhm=1e-9, bin_width=1.6e-9, n_bins=32,
                     sbr_window=48e-9)
    cube = simulate(scene, cfg, ppp=50.0, sbr=5.0, seed=6)
    factor = 2 * cfg.n
    maps = reconstruct_no_scan(
        cube.counts, make_kernel(cfg), cube.background_per_bin, factor
    )
    assert maps.depth.shape == (8, 8)
    # every 4x4 block is constant by construction
    for bi in range(2):
        for bj in range(2):
            block = maps.depth[4 * bi : 4 * bi + 4, 4 * bj : 4 * bj + 4]
            finite = block[np.isfinite(block)]
            if finite.size:
                assert np.unique(finite).size == 1


def test_no_scan_rejects_bad_factor():
    scene = Scene(
        reflectivity=np.full((4, 4), 0.5), depth=np.full((4, 4), 2.0)
    )
    cfg = ScanConfig(n=1, jitter_fwhm=1e-9, bin_width=1.6e-9, n_bins=16,
                     sbr_window=25e-9)
    cube = simulate(scene, cfg, ppp=5.0, sbr=1.0, seed=7)
    kernel, b = make_kernel(cfg), cube.background_per_bin
    for factor in (1.5, 0, 3):  # 3 does not divide 4x4
        with pytest.raises(ValueError, match="factor"):
            reconstruct_no_scan(cube.counts, kernel, b, factor)
    with pytest.raises(ValueError, match="3D"):
        reconstruct_no_scan(cube.counts[:, :, 0], kernel, b, 2)
