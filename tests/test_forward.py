"""Kernel construction, convolution semantics, calibration arithmetic, and
Poisson sampling statistics."""

import json

import numpy as np
import pytest
from scipy import ndimage

from splidar import forward
from splidar.forward import (
    HistogramCube,
    Kernel,
    ScanConfig,
    calibrate_flux,
    convolve3d,
    convolve3d_adjoint,
    load_cube,
    make_kernel,
    rayleigh_resolution,
    save_cube,
    sbr_window_bins,
    simulate,
)
from splidar.scene import Scene, make_resolution_chart


def brute_force_conv3d(spatial, temporal, x):
    """Direct triple-loop zero-padded 'same' convolution (test oracle)."""
    A, B, C = spatial.shape[0] // 2, spatial.shape[1] // 2, temporal.size // 2
    H, W, T = x.shape
    out = np.zeros_like(x, dtype=np.float64)
    for i in range(H):
        for j in range(W):
            for k in range(T):
                acc = 0.0
                for a in range(-A, A + 1):
                    for b in range(-B, B + 1):
                        for c in range(-C, C + 1):
                            ii, jj, kk = i - a, j - b, k - c
                            if 0 <= ii < H and 0 <= jj < W and 0 <= kk < T:
                                acc += (
                                    spatial[a + A, b + B]
                                    * temporal[c + C]
                                    * x[ii, jj, kk]
                                )
                out[i, j, k] = acc
    return out


# --- rayleigh -----------------------------------------------------------


def test_rayleigh_reference_values():
    angle = rayleigh_resolution(1550e-9, 0.279)
    assert angle == pytest.approx(1.355e-5, rel=1e-3)
    assert abs(angle * 1e6 - 13.5) < 0.1  # microradians
    assert abs(angle * 8200 * 100 - 11.1) < 0.1  # centimeters at 8.2 km


def test_rayleigh_unit_ratio_and_errors():
    lam = 2e-6
    assert rayleigh_resolution(lam, 2.44 * lam) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        rayleigh_resolution(0, 1)
    with pytest.raises(ValueError):
        rayleigh_resolution(1e-6, -1)


# --- kernel -------------------------------------------------------------


def test_kernel_sizes_follow_n():
    for n in (1, 4):
        k = make_kernel(ScanConfig(n=n))
        assert k.xy.shape == (2 * n + 1,)
        assert k.n == n


def test_kernel_normalization_and_symmetry():
    k = make_kernel(ScanConfig(n=4))
    assert abs(k.xy.sum() - 1.0) < 1e-12
    assert abs(k.temporal.sum() - 1.0) < 1e-12
    np.testing.assert_array_equal(k.xy, k.xy[::-1])
    np.testing.assert_array_equal(k.temporal, k.temporal[::-1])


def test_temporal_fwhm_measured_on_samples():
    # jitter 1 ns over 100 ps bins -> FWHM near 10 bins on the sampled curve
    k = make_kernel(
        ScanConfig(n=1, jitter_fwhm=1e-9, bin_width=1e-10, sbr_window=20e-9)
    )
    g = k.temporal
    half = g.max() / 2
    above = np.flatnonzero(g >= half)
    # linear interpolation of the half-max crossings on either side
    i0, i1 = above[0], above[-1]
    left = i0 - 1 + (half - g[i0 - 1]) / (g[i0] - g[i0 - 1])
    right = i1 + (g[i1] - half) / (g[i1] - g[i1 + 1])
    fwhm = right - left
    assert abs(fwhm - 10.0) < 0.5


def test_kernel_type_invariants():
    good = np.array([0.25, 0.5, 0.25])
    off_by_one_ulp = good.copy()
    off_by_one_ulp[0] = np.nextafter(0.25, 1.0)
    nan = good.copy()
    nan[1] = np.nan
    for bad in (
        np.ones(2) / 2,  # even length
        np.ones((3, 3)) / 9,  # 2D
        np.array([-0.25, 1.5, -0.25]),  # negative entry
        np.ones(3) / 2,  # sums to 1.5
        nan,
        np.array([np.inf, 1.0, np.inf]),
        np.zeros(3),  # sums to 0
        off_by_one_ulp,
    ):
        with pytest.raises(ValueError):
            Kernel(xy=bad, temporal=np.ones(1))
        with pytest.raises(ValueError):
            Kernel(xy=np.ones(1), temporal=bad)
    k = Kernel(xy=good.tolist(), temporal=np.ones(1))
    assert k.xy.dtype == np.float64 and k.n == 1


def test_zero_jitter_gives_temporal_delta():
    k = make_kernel(ScanConfig(n=1, jitter_fwhm=0.0))
    np.testing.assert_array_equal(k.temporal, [1.0])


# --- convolution --------------------------------------------------------


def delta_kernel():
    return Kernel(xy=np.ones(1), temporal=np.ones(1))


def random_separable_kernel(rng, n, m):
    """Random non-negative Kernel: an exactly symmetric random xy factor of
    2n+1 taps and temporal factor of m taps (v + v[::-1] is symmetric to
    the bit, and so is its normalization)."""

    def sym(size):
        v = rng.random(size)
        v = v + v[::-1]
        return v / v.sum()

    return Kernel(xy=sym(2 * n + 1), temporal=sym(m))


def test_delta_kernel_is_identity():
    rng = np.random.default_rng(0)
    x = rng.random((5, 6, 7))
    np.testing.assert_allclose(convolve3d(delta_kernel(), x, 0.0), x)


def test_zero_volume_gives_constant_background():
    out = convolve3d(make_kernel(ScanConfig(n=2)), np.zeros((7, 7, 9)), 0.25)
    np.testing.assert_allclose(out, 0.25)


def test_unit_voxel_reproduces_kernel_oracle():
    cfg = ScanConfig(n=4, jitter_fwhm=1e-9, bin_width=0.5e-9, n_bins=31,
                     sbr_window=15e-9)
    k = make_kernel(cfg)
    x = np.zeros((9, 9, 31))
    x[4, 4, 15] = 1.0
    out = convolve3d(k, x, 0.0)
    spatial = np.outer(k.xy, k.xy)
    oracle = brute_force_conv3d(spatial, k.temporal, x)
    np.testing.assert_allclose(out, oracle, atol=1e-14)
    # center neighborhood equals the outer-product kernel itself
    r = k.temporal.size // 2
    np.testing.assert_allclose(
        out[0:9, 0:9, 15 - r : 15 + r + 1],
        spatial[:, :, None] * k.temporal[None, None, :],
        atol=1e-14,
    )


def test_convolution_matches_brute_force_on_random_separable_kernels():
    rng = np.random.default_rng(1)
    for n, m in [(1, 3), (1, 5), (2, 3), (1, 1), (2, 5)]:
        k = random_separable_kernel(rng, n, m)
        x = rng.random((6, 5, 7))
        np.testing.assert_allclose(
            convolve3d(k, x, 0.0),
            brute_force_conv3d(np.outer(k.xy, k.xy), k.temporal, x),
            atol=1e-12,
        )


def test_convolution_linearity():
    rng = np.random.default_rng(2)
    k = make_kernel(ScanConfig(n=2))
    x, y = rng.random((8, 8, 12)), rng.random((8, 8, 12))
    lhs = convolve3d(k, 2.0 * x + 3.0 * y, 0.0)
    rhs = 2.0 * convolve3d(k, x, 0.0) + 3.0 * convolve3d(k, y, 0.0)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


def test_mass_conservation_interior_signal():
    k = make_kernel(ScanConfig(n=2))
    x = np.zeros((13, 13, 17))
    rng = np.random.default_rng(3)
    x[4:9, 4:9, 6:11] = rng.random((5, 5, 5))
    out = convolve3d(k, x, 0.0)
    assert abs(out.sum() - x.sum()) <= 1e-10 * x.sum()


def test_adjoint_identity_on_gaussian_and_random_separable_kernels():
    rng = np.random.default_rng(4)
    u, v = rng.random((8, 7, 9)), rng.random((8, 7, 9))
    for k in (make_kernel(ScanConfig(n=2)), random_separable_kernel(rng, 2, 3)):
        lhs = np.vdot(convolve3d(k, u, 0.0), v)
        rhs = np.vdot(u, convolve3d_adjoint(k, v))
        assert abs(lhs - rhs) <= 1e-8 * abs(lhs)


def ndimage_passes(kernel, x):
    """The convolution as three whole-array ndimage passes (reference)."""
    out = ndimage.convolve1d(x, kernel.xy, axis=0, mode="constant")
    out = ndimage.convolve1d(out, kernel.xy, axis=1, mode="constant")
    return ndimage.convolve1d(out, kernel.temporal, axis=2, mode="constant")


@pytest.mark.parametrize("jitter", [0.0, 1e-9, 3e-9])
@pytest.mark.parametrize("n", range(1, 9))
def test_blocked_convolution_matches_ndimage_byte_for_byte(n, jitter):
    # the band products agree with ndimage to rounding, not to the byte; the
    # bytes still match for an all-zero input, which gives all +0.0
    cfg = ScanConfig(n=n, jitter_fwhm=jitter, bin_width=1.6e-9, n_bins=64)
    k = make_kernel(cfg)
    block, side, m = forward._BAND_BLOCK, 2 * n + 1, k.temporal.size
    assert m < block
    rng = np.random.default_rng(n)
    # along each axis once: one short block (or the shortest the kernel
    # allows), exactly one block, and three blocks plus a partial fourth
    short, one, several = (side, m), (max(side, block), block), 3 * block + 5
    for shape in ((short[0], one[0], several), (one[0], several, short[1]),
                  (several, short[0], one[1])):
        signed = rng.standard_normal(shape)
        sparse = np.where(rng.random(shape) < 0.9, 0.0, rng.random(shape))
        for kernel in (k, random_separable_kernel(rng, n, m)):
            for x in (signed, sparse):
                expected = ndimage_passes(kernel, x)
                bound = 1e-14 * np.abs(expected).max()
                for got in (convolve3d(kernel, x, 0.0), convolve3d_adjoint(kernel, x)):
                    assert np.abs(got - expected).max() <= bound
            zero = np.zeros(shape)
            assert convolve3d(kernel, zero, 0.0).tobytes() == zero.tobytes()
            assert convolve3d_adjoint(kernel, zero).tobytes() == zero.tobytes()


def test_kernel_larger_than_volume_errors():
    k = make_kernel(ScanConfig(n=4))
    with pytest.raises(ValueError):
        convolve3d(k, np.zeros((5, 5, 4)), 0.0)


# --- calibration --------------------------------------------------------


def test_calibrate_uniform_flux_arithmetic():
    cfg = ScanConfig(n=1, bin_width=0.8e-9, n_bins=128)
    flux = np.zeros((4, 4, 128))
    flux[:, :, 10:20] = 1.0  # sums to 10 per pixel
    alpha, b = calibrate_flux(flux, ppp=5.0, sbr=1.0, config=cfg)
    assert alpha == pytest.approx(0.5)


def test_calibrate_background_reference_value():
    cfg = ScanConfig(n=1, bin_width=0.8e-9, n_bins=128, sbr_window=100e-9)
    assert sbr_window_bins(cfg) == 125
    flux = np.ones((2, 2, 128))
    _, b = calibrate_flux(flux, ppp=1.0, sbr=0.2, config=cfg)
    assert b == pytest.approx(0.04)


def test_calibrate_errors_and_limits():
    cfg = ScanConfig()
    with pytest.raises(ValueError):
        calibrate_flux(np.zeros((2, 2, 4)), 1.0, 0.2, cfg)
    for ppp, sbr in ((-1.0, 0.2), (1.0, 0.0), (np.nan, 0.2), (np.inf, 0.2),
                     (1.0, np.nan), (1.0, np.inf)):  # inf sbr used to give b = 0
        with pytest.raises(ValueError, match="positive and finite"):
            calibrate_flux(np.ones((2, 2, 4)), ppp, sbr, cfg)


# --- scan config --------------------------------------------------------


def test_scan_config_invariants():
    with pytest.raises(ValueError):
        ScanConfig(n=0)
    with pytest.raises(ValueError):
        ScanConfig(n_bins=4096, bin_width=1e-8, rep_period=1e-5)
    with pytest.raises(ValueError):
        ScanConfig(sbr_window=1.0)
    for bad in ({"n_bins": 64.5}, {"n": 2.5}, {"n_bins": float("inf")}):
        with pytest.raises(ValueError, match="integer"):
            ScanConfig(**bad)
    for name in ("jitter_fwhm", "bin_width", "rep_period", "sbr_window", "t0"):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="finite"):
                ScanConfig(**{name: bad})
    cfg = ScanConfig(n=3.0, n_bins=64.0, bin_width=1.6e-9)
    assert type(cfg.n) is int and type(cfg.n_bins) is int
    assert cfg == ScanConfig(n=3, n_bins=64, bin_width=1.6e-9)
    assert ScanConfig(n=3).fov_fwhm_pixels == 6


def test_scan_config_refuses_wrong_kinds():
    for bad in ({"n": True}, {"n_bins": "64"}, {"jitter_fwhm": True},
                {"bin_width": "1.6e-9"}, {"t0": None}):
        (name, value), = bad.items()
        with pytest.raises(ValueError, match=rf"^scan config: {name} must be"):
            ScanConfig(**bad)
    cfg = ScanConfig(n=np.int64(3), n_bins=np.float64(64.0),
                     bin_width=np.float64(1.6e-9))
    assert type(cfg.n) is int and type(cfg.n_bins) is int
    assert cfg == ScanConfig(n=3, n_bins=64, bin_width=1.6e-9)


# --- simulation ---------------------------------------------------------


def small_scene(h=8, w=8, depth=3.0):
    return Scene(
        reflectivity=np.full((h, w), 0.5), depth=np.full((h, w), depth)
    )


def small_config(**kw):
    base = dict(n=2, jitter_fwhm=1e-9, bin_width=1.6e-9, n_bins=64)
    base.update(kw)
    return ScanConfig(**base)


def test_simulate_deterministic_per_seed():
    scene, cfg = small_scene(), small_config()
    a = simulate(scene, cfg, 5.0, 0.5, seed=42)
    b = simulate(scene, cfg, 5.0, 0.5, seed=42)
    c = simulate(scene, cfg, 5.0, 0.5, seed=43)
    np.testing.assert_array_equal(a.counts, b.counts)
    assert (a.counts != c.counts).any()
    assert a.rng_seed == 42


def test_simulate_zero_scene_with_explicit_background():
    scene = Scene(reflectivity=np.zeros((6, 6)), depth=np.full((6, 6), 1.0))
    cfg = small_config()
    with pytest.raises(ValueError, match="all-zero"):
        simulate(scene, cfg, 1.0, 0.2, seed=0)


def test_simulate_poisson_moments():
    # mean and variance of per-bin counts both approach the flux
    scene, cfg = small_scene(6, 6), small_config()
    cubes = np.stack(
        [simulate(scene, cfg, 5.0, 1.0, seed=s).counts for s in range(150)]
    )
    mean = cubes.mean(axis=0)
    var = cubes.var(axis=0, ddof=1)
    hot = mean > 0.5  # compare where the flux is appreciable
    rel = np.abs(var[hot] - mean[hot]) / mean[hot]
    # chi-square style: sample variance of Poisson has sd ~ lam*sqrt(2/n)
    assert np.median(rel) < 0.25
    total_mean = cubes.sum(axis=(1, 2, 3)).mean() / 36  # per pixel
    expected = 5.0 + cubes.shape[3] * 5.0 / (1.0 * sbr_window_bins(cfg))
    assert abs(total_mean - expected) < 0.5


def test_histogram_cube_validation():
    cfg = small_config()
    with pytest.raises(ValueError):
        HistogramCube(
            counts=np.ones((2, 2, cfg.n_bins)),  # float counts
            config=cfg,
            background_per_bin=0.0,
            rng_seed=0,
        )
    with pytest.raises(ValueError):
        HistogramCube(
            counts=np.ones((2, 2, 5), dtype=np.int64),
            config=cfg,
            background_per_bin=0.0,
            rng_seed=0,
        )
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            HistogramCube(
                counts=np.ones((2, 2, cfg.n_bins), dtype=np.int64),
                config=cfg,
                background_per_bin=bad,
                rng_seed=0,
            )


def test_cube_save_load_round_trip(tmp_path):
    scene, cfg = small_scene(), small_config()
    cube = simulate(scene, cfg, 2.0, 0.4, seed=9)
    p = tmp_path / "cube.sph1"
    save_cube(cube, p)
    back = load_cube(p)
    np.testing.assert_array_equal(back.counts, cube.counts)
    assert back.config == cube.config
    assert back.background_per_bin == cube.background_per_bin
    assert back.rng_seed == 9
    assert back.alpha == pytest.approx(cube.alpha)
    sidecar = tmp_path / "cube.sph1.json"
    good = sidecar.read_text()
    meta = json.loads(good)
    meta["background_per_bin"] = float("nan")
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="finite"):
        load_cube(p)
    meta = json.loads(good)
    meta["config"]["n_bins"] += 1  # sidecar disagrees with the raster
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="bins"):
        load_cube(p)


def test_chart_simulation_shape():
    cube = simulate(
        make_resolution_chart(), small_config(n=4), 10.0, 0.2, seed=0
    )
    assert cube.shape == (120, 128, 64)
