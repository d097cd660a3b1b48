"""Per-pixel reference estimators."""

import numpy as np
import pytest

from splidar.baselines import pixelwise_ml, reconstruct_no_scan
from splidar.forward import ScanConfig, coarsen, make_kernel, simulate
from splidar.scene import SPEED_OF_LIGHT, Scene


def gauss_template(size=5, sigma=1.0):
    t = np.arange(size) - size // 2
    g = np.exp(-0.5 * (t / sigma) ** 2)
    return g / g.sum()


def test_noiseless_spike_recovers_exact_bin():
    g = gauss_template()
    counts = np.zeros((3, 3, 32))
    bins = np.array([[4, 9, 14], [19, 24, 29 - 2], [7, 11, 13]])
    for i in range(3):
        for j in range(3):
            k = bins[i, j]
            counts[i, j, k - 2 : k + 3] = 100 * g
    maps = pixelwise_ml(counts, g, b=0.0, window_half=2)
    np.testing.assert_array_equal(
        np.rint(maps.depth / (SPEED_OF_LIGHT / 2.0)).astype(int), bins
    )
    np.testing.assert_allclose(maps.reflectivity, 100.0, rtol=1e-9)
    assert maps.valid.all()


def test_empty_pixels_flagged_invalid():
    counts = np.zeros((2, 2, 16))
    counts[0, 0, 5] = 3
    maps = pixelwise_ml(counts, gauss_template(), b=0.0)
    assert maps.valid[0, 0]
    assert not maps.valid[1, 1]
    assert np.isnan(maps.depth[1, 1])
    assert maps.reflectivity[1, 1] == 0.0


def test_background_subtraction_in_reflectivity():
    counts = np.full((1, 1, 20), 2.0)
    counts[0, 0, 8] = 50.0
    maps = pixelwise_ml(counts, gauss_template(), b=2.0, window_half=1)
    # window holds 50 + 2 + 2 counts over 3 bins, minus 3 * b
    assert maps.reflectivity[0, 0] == pytest.approx(48.0)


def test_reflectivity_never_negative():
    rng = np.random.default_rng(0)
    counts = rng.poisson(0.5, size=(8, 8, 24)).astype(np.float64)
    maps = pixelwise_ml(counts, gauss_template(), b=5.0)
    assert (maps.reflectivity >= 0).all()


def test_pixels_are_independent():
    rng = np.random.default_rng(1)
    counts = rng.poisson(2.0, size=(4, 6, 30)).astype(np.float64)
    g = gauss_template()
    whole = pixelwise_ml(counts, g, b=0.3)
    perm = rng.permutation(4)
    permuted = pixelwise_ml(counts[perm], g, b=0.3)
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
    maps = pixelwise_ml(y, g, b=0.05)
    ml_bins = np.rint(maps.depth[:, 0] / (SPEED_OF_LIGHT / 2.0))
    raw_bins = np.argmax(y[:, 0, :], axis=1)
    ml_rmse = np.sqrt(np.mean((ml_bins - true_bin) ** 2))
    raw_rmse = np.sqrt(np.mean((raw_bins - true_bin) ** 2))
    assert ml_rmse <= raw_rmse


def test_ml_input_validation():
    counts = np.zeros((2, 2, 10))
    with pytest.raises(ValueError):
        pixelwise_ml(counts[:, :, 0], gauss_template(), 0.0)
    with pytest.raises(ValueError):
        pixelwise_ml(counts, np.ones(4) / 4, 0.0)  # even length
    with pytest.raises(ValueError):
        pixelwise_ml(counts, gauss_template(), -0.5)
    for b in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            pixelwise_ml(counts, gauss_template(), b)
    with pytest.raises(ValueError):
        pixelwise_ml(counts, np.ones(11) / 11, 0.0)  # longer than histogram
    with pytest.raises(ValueError):
        pixelwise_ml(counts, gauss_template(), 0.0, window_half=-1)


def test_no_scan_factor_one_is_pixelwise():
    scene = Scene(
        reflectivity=np.full((6, 6), 0.7), depth=np.full((6, 6), 2.4)
    )
    cfg = ScanConfig(n=1, jitter_fwhm=1e-9, bin_width=1.6e-9, n_bins=32,
                     sbr_window=48e-9)
    cube = simulate(scene, cfg, ppp=20.0, sbr=2.0, seed=5)
    direct = pixelwise_ml(
        cube, make_kernel(cfg).temporal, cube.background_per_bin
    )
    via = reconstruct_no_scan(cube, 1)
    np.testing.assert_array_equal(direct.depth, via.depth)
    np.testing.assert_array_equal(direct.reflectivity, via.reflectivity)


def test_no_scan_output_is_blocky():
    scene = Scene(
        reflectivity=np.full((8, 8), 0.8),
        depth=np.tile(np.repeat([2.0, 3.2], 4), (8, 1)),
    )
    cfg = ScanConfig(n=2, jitter_fwhm=1e-9, bin_width=1.6e-9, n_bins=32,
                     sbr_window=48e-9)
    cube = simulate(scene, cfg, ppp=50.0, sbr=5.0, seed=6)
    factor = 2 * cfg.n
    maps = reconstruct_no_scan(coarsen(cube, factor), factor)
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
    with pytest.raises(ValueError):
        reconstruct_no_scan(cube, 1.5)
    with pytest.raises(ValueError):
        reconstruct_no_scan(cube, 0)
