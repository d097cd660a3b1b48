"""Forward model: separable spatiotemporal response kernel, 3D convolution,
flux calibration to target photon budgets, and Poisson histogram sampling for
sub-pixel-scanned acquisition.

The scan grid IS the fine scene grid: each output pixel is one scan position,
and adjacent positions sit 1/(2n) of the detector footprint apart, so the
detector response g_xy (FWHM = 2n fine pixels) couples neighboring pixels.
The temporal response g_t models total system jitter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import ndimage

from .scene import RDVolume, scene_to_rd

_FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))


def rayleigh_resolution(wavelength, aperture):
    """Diffraction-limited angular resolution 2.44 * wavelength / aperture
    of a circular aperture, in radians."""
    if wavelength <= 0 or aperture <= 0:
        raise ValueError("wavelength and aperture must be positive")
    return 2.44 * wavelength / aperture


@dataclass(frozen=True)
class ScanConfig:
    """Acquisition geometry and timing.

    n sets both the scan density (inter-pixel spacing = 1/(2n) of the
    detector footprint) and the spatial kernel footprint FWHM in fine pixels
    (fov_fwhm_pixels = 2n). Times are seconds.
    """

    n: int = 4
    jitter_fwhm: float = 1e-9
    bin_width: float = 0.4e-9
    n_bins: int = 256
    rep_period: float = 1e-5
    sbr_window: float = 100e-9
    t0: float = 0.0

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n}")
        if self.bin_width <= 0 or self.n_bins < 1:
            raise ValueError("bin_width and n_bins must be positive")
        if self.jitter_fwhm < 0:
            raise ValueError("negative jitter_fwhm")
        if self.n_bins * self.bin_width > self.rep_period:
            raise ValueError("time window exceeds repetition period")
        if not (0 < self.sbr_window <= self.n_bins * self.bin_width):
            raise ValueError("sbr_window must fit inside the time window")

    @property
    def fov_fwhm_pixels(self):
        return 2 * self.n

    def to_dict(self):
        return {
            "n": int(self.n),
            "jitter_fwhm": float(self.jitter_fwhm),
            "bin_width": float(self.bin_width),
            "n_bins": int(self.n_bins),
            "rep_period": float(self.rep_period),
            "sbr_window": float(self.sbr_window),
            "t0": float(self.t0),
        }


@dataclass(frozen=True)
class Kernel:
    """Separable response g = spatial (2n+1)x(2n+1) outer temporal (odd m).

    Both factors are non-negative, symmetric about their centers, and sum
    to 1, so the full 3D kernel also has unit mass. The spatial factor must
    be rank 1; its column and row vectors (col, row) are split off once here
    and drive every convolution.
    """

    spatial: np.ndarray
    temporal: np.ndarray
    n: int
    col: np.ndarray = field(init=False, repr=False)
    row: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        s = np.asarray(self.spatial, dtype=np.float64)
        t = np.asarray(self.temporal, dtype=np.float64)
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] != 2 * self.n + 1:
            raise ValueError(f"spatial factor must be (2n+1) square, got {s.shape}")
        if t.ndim != 1 or t.size % 2 == 0:
            raise ValueError(f"temporal factor must be odd-length 1D, got {t.shape}")
        if s.min() < 0 or t.min() < 0:
            raise ValueError("kernel factors must be non-negative")
        for name, arr, total in (("spatial", s, s.sum()), ("temporal", t, t.sum())):
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"{name} factor sums to {total}, expected 1")
        if not np.allclose(s, s[::-1, ::-1], atol=1e-12) or not np.allclose(
            t, t[::-1], atol=1e-12
        ):
            raise ValueError("kernel factors must be centrally symmetric")
        u, sv, vt = np.linalg.svd(s)
        if sv.size > 1 and sv[1] > 1e-12 * sv[0]:
            raise ValueError("spatial factor must be rank 1 (separable)")
        col, row = u[:, 0] * sv[0], vt[0]
        # fix sign so both factors are non-negative
        if col.sum() < 0:
            col, row = -col, -row
        object.__setattr__(self, "spatial", s)
        object.__setattr__(self, "temporal", t)
        object.__setattr__(self, "col", col)
        object.__setattr__(self, "row", row)


def _sampled_gaussian(radius, sigma):
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    if sigma == 0:
        g = (offsets == 0).astype(np.float64)
    else:
        g = np.exp(-0.5 * (offsets / sigma) ** 2)
    return g / g.sum()


def make_kernel(config):
    """Sampled-Gaussian kernel for a scan configuration.

    Spatial: FWHM = 2n fine pixels, truncated to (2n+1)x(2n+1) and
    renormalized; the truncation to one footprint is deliberate and makes
    the effective response tighter than an untruncated Gaussian. Temporal:
    FWHM = jitter_fwhm/bin_width bins, truncated at +-3 sigma (odd length),
    renormalized. jitter_fwhm = 0 degenerates to a one-bin spike.
    """
    if config.n < 1:
        raise ValueError("n must be >= 1")
    sigma_xy = config.fov_fwhm_pixels * _FWHM_TO_SIGMA
    g1 = _sampled_gaussian(config.n, sigma_xy)
    spatial = np.outer(g1, g1)
    spatial /= spatial.sum()
    sigma_t = (config.jitter_fwhm / config.bin_width) * _FWHM_TO_SIGMA
    radius_t = max(1, math.ceil(3.0 * sigma_t)) if sigma_t > 0 else 0
    temporal = _sampled_gaussian(radius_t, sigma_t)
    return Kernel(spatial=spatial, temporal=temporal, n=config.n)


# ---------------------------------------------------------------------------
# separable 3D convolution (zero-padded, "same" size) and its adjoint


def _separable_passes(kernel, volume):
    """Zero-padded "same" convolution of an (H, W, T) array with the kernel:
    one 1D pass per axis (column, row, time)."""
    vol = volume.data if isinstance(volume, RDVolume) else volume
    vol = np.asarray(vol, dtype=np.float64)
    if vol.ndim != 3:
        raise ValueError(f"expected 3D volume, got {vol.shape}")
    side, m = kernel.spatial.shape[0], kernel.temporal.size
    if side > vol.shape[0] or side > vol.shape[1] or m > vol.shape[2]:
        raise ValueError(
            f"kernel {kernel.spatial.shape}+{kernel.temporal.shape} "
            f"larger than volume {vol.shape}"
        )
    out = ndimage.convolve1d(vol, kernel.col, axis=0, mode="constant")
    out = ndimage.convolve1d(out, kernel.row, axis=1, mode="constant")
    if m > 1:
        out = ndimage.convolve1d(out, kernel.temporal, axis=2, mode="constant")
    elif kernel.temporal[0] != 1.0:
        out = out * kernel.temporal[0]
    return out


def convolve3d(kernel, volume, background_per_bin=0.0):
    """Expected flux Lambda = g * data + background, same shape as the input.

    Accepts an RDVolume or a bare 3D array; returns a bare array. Output is
    everywhere >= background_per_bin because kernel and data are non-negative.
    """
    if background_per_bin < 0:
        raise ValueError("negative background_per_bin")
    out = _separable_passes(kernel, volume)
    if background_per_bin:
        out += background_per_bin
    return out


def convolve3d_adjoint(kernel, volume):
    """Backprojection: correlation with g. Kernel factors are centrally
    symmetric, so this is the same convolution, without the background."""
    return _separable_passes(kernel, volume)


# ---------------------------------------------------------------------------
# flux calibration and Poisson sampling


def sbr_window_bins(config):
    """Number of whole bins in the background-accounting window.

    Round half up; the 1e-9 nudge keeps exact half-bin ratios (100 ns over
    1.6 ns, say) from landing a float ulp below the boundary.
    """
    return int(math.floor(config.sbr_window / config.bin_width + 0.5 + 1e-9))


def calibrate_flux(signal_flux, ppp, sbr, config):
    """Scale factor and background level hitting target photon budgets.

    alpha makes the mean over pixels of the per-pixel summed signal flux
    equal ppp. The background rate b = ppp / (sbr * w) puts sbr at the
    target when background is counted over a w-bin window,
    w = round(sbr_window / bin_width).
    """
    if ppp <= 0 or sbr <= 0:
        raise ValueError("ppp and sbr must be positive")
    flux = np.asarray(signal_flux, dtype=np.float64)
    mean_per_pixel = flux.sum() / (flux.shape[0] * flux.shape[1])
    if mean_per_pixel <= 0:
        raise ValueError("all-zero signal flux cannot be calibrated")
    alpha = ppp / mean_per_pixel
    w = sbr_window_bins(config)
    background = ppp / (sbr * w)
    return alpha, background


@dataclass(frozen=True)
class HistogramCube:
    """Photon counts (height, width, n_bins) with acquisition metadata.

    alpha records the flux scale applied at simulation time; cubes built
    outside simulate() may carry alpha = None.
    """

    counts: np.ndarray
    config: ScanConfig
    background_per_bin: float
    rng_seed: int
    alpha: float | None = None

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.ndim != 3:
            raise ValueError(f"expected 3D counts, got {c.shape}")
        if not np.issubdtype(c.dtype, np.integer):
            raise ValueError("counts must be integers")
        if c.size and c.min() < 0:
            raise ValueError("negative counts")
        if c.shape[2] != self.config.n_bins:
            raise ValueError(
                f"counts have {c.shape[2]} bins, config says {self.config.n_bins}"
            )
        if not np.isfinite(self.background_per_bin) or self.background_per_bin < 0:
            raise ValueError("background_per_bin must be finite and non-negative")
        object.__setattr__(self, "counts", c.astype(np.int64))

    @property
    def shape(self):
        return self.counts.shape


def simulate(scene, config, ppp, sbr, seed, background_per_bin=None, alpha=None):
    """Sample a photon-count cube from a scene.

    Pipeline: spike volume -> kernel convolution -> flux calibration ->
    per-voxel Poisson draws. Each pixel gets its own child stream keyed by
    (seed, i, j), so counts are reproducible bit for bit regardless of
    traversal or parallelism. Passing background_per_bin and/or alpha
    bypasses the corresponding calibrated value (this is how an all-zero
    scene can still produce pure-background data).
    """
    rd = scene_to_rd(scene, config.bin_width, config.n_bins, config.t0)
    kernel = make_kernel(config)
    flux = convolve3d(kernel, rd, 0.0)
    if alpha is None:
        total = flux.sum()
        if total > 0:
            alpha, calibrated_b = calibrate_flux(flux, ppp, sbr, config)
        elif background_per_bin is not None:
            alpha, calibrated_b = 0.0, None
        else:
            raise ValueError("all-zero signal flux cannot be calibrated")
    else:
        calibrated_b = ppp / (sbr * sbr_window_bins(config))
    if background_per_bin is None:
        background_per_bin = calibrated_b
    lam = alpha * flux + background_per_bin
    counts = np.empty(lam.shape, dtype=np.int64)
    for i in range(lam.shape[0]):
        for j in range(lam.shape[1]):
            rng = np.random.default_rng((seed, i, j))
            counts[i, j, :] = rng.poisson(lam[i, j, :])
    return HistogramCube(
        counts=counts,
        config=config,
        background_per_bin=float(background_per_bin),
        rng_seed=int(seed),
        alpha=float(alpha),
    )


def coarsen(cube, factor):
    """Keep every factor-th scan position, simulating a conventional
    footprint-by-footprint raster (offset (0, 0))."""
    if int(factor) != factor or factor < 1:
        raise ValueError(f"factor must be an integer >= 1, got {factor}")
    factor = int(factor)
    h, w, _ = cube.shape
    if h % factor or w % factor:
        raise ValueError(f"factor {factor} does not divide {h}x{w}")
    return replace(cube, counts=cube.counts[::factor, ::factor, :].copy())


# ---------------------------------------------------------------------------
# persistence


def save_cube(cube, path):
    """Write counts as an SPH1 file plus a sidecar with the acquisition
    metadata needed to reconstruct from it."""
    from . import io

    meta = {
        "config": cube.config.to_dict(),
        "background_per_bin": float(cube.background_per_bin),
        "seed": int(cube.rng_seed),
        "alpha": None if cube.alpha is None else float(cube.alpha),
    }
    io.write_cube(path, cube.counts, meta)


def load_cube(path):
    from . import io

    data, meta = io.read_cube(path)
    if meta is None:
        raise ValueError(f"cube sidecar missing: {path}.json")
    config = ScanConfig(**meta["config"])
    alpha = meta.get("alpha")
    return HistogramCube(
        counts=data,
        config=config,
        background_per_bin=float(meta["background_per_bin"]),
        rng_seed=int(meta["seed"]),
        alpha=None if alpha is None else float(alpha),
    )
