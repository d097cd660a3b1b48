"""Forward model: separable spatiotemporal response kernel, 3D convolution,
flux calibration to target photon budgets, and Poisson histogram sampling for
sub-pixel-scanned acquisition.

The convolution is the Kronecker product of three band (Toeplitz) matrices,
one per axis, applied as one blocked matrix product per axis (Hansen, Nagy
and O'Leary, Deblurring Images, SIAM 2006, ch. 4).

The scan grid IS the fine scene grid: each output pixel is one scan position,
and adjacent positions sit 1/(2n) of the detector footprint apart, so the
detector response g_xy (FWHM = 2n fine pixels) couples neighboring pixels.
The temporal response g_t models total system jitter.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from . import io
from .scene import _as_volume, scene_to_rd

_FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))
_BAND_BLOCK = 16  # outputs per block of each band-matrix product


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
        io.check_attributes(self, "scan config", SCAN_FIELDS)
        for name in ("n", "n_bins"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.bin_width <= 0:
            raise ValueError("bin_width must be positive")
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
        return {k: (int if kind == "integer" else float)(getattr(self, k))
                for k, kind in SCAN_FIELDS.items()}


# ScanConfig's JSON keys and kinds (io.check_fields): all in a cube sidecar
SCAN_FIELDS = {f.name: "integer" if f.type == "int" else "number"
               for f in fields(ScanConfig)}


@dataclass(frozen=True)
class Kernel:
    """Separable response g = xy (x) xy (x) temporal: one spatial factor
    for both scan axes, one temporal factor.

    Each factor is a finite, non-negative, odd-length 1D array that sums to
    1 and equals its own reverse exactly, so the 3D kernel has unit mass and
    is centrally symmetric. Exact symmetry makes each factor's band matrix
    symmetric to the bit, so the adjoint convolution (a correlation) is the
    same three products as the convolution, with the same bytes.
    """

    xy: np.ndarray
    temporal: np.ndarray

    def __post_init__(self):
        for name in ("xy", "temporal"):
            f = np.asarray(getattr(self, name), dtype=np.float64)
            if f.ndim != 1 or f.size % 2 == 0:
                raise ValueError(f"{name} factor must be odd-length 1D, got {f.shape}")
            if not np.isfinite(f).all() or f.min() < 0:
                raise ValueError(f"{name} factor must be finite and non-negative")
            if abs(f.sum() - 1.0) > 1e-9:
                raise ValueError(f"{name} factor sums to {f.sum()}, expected 1")
            if not np.array_equal(f, f[::-1]):
                raise ValueError(f"{name} factor must equal its reverse exactly")
            object.__setattr__(self, name, f)

    @property
    def n(self):
        """Spatial radius: the xy factor has 2n + 1 taps."""
        return self.xy.size // 2


def _sampled_gaussian(radius, sigma):
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    if sigma == 0:
        g = (offsets == 0).astype(np.float64)
    else:
        g = np.exp(-0.5 * (offsets / sigma) ** 2)
    return g / g.sum()


def make_kernel(config):
    """Sampled-Gaussian kernel for a scan configuration.

    Spatial: FWHM = 2n fine pixels, truncated to 2n+1 taps per axis and
    renormalized; the truncation to one footprint is deliberate and makes
    the effective response tighter than an untruncated Gaussian. Temporal:
    FWHM = jitter_fwhm/bin_width bins, truncated at +-3 sigma (odd length),
    renormalized. jitter_fwhm = 0 degenerates to a one-bin spike. Offsets
    -k and k give the same sample, so both factors are exactly symmetric.
    """
    sigma_xy = config.fov_fwhm_pixels * _FWHM_TO_SIGMA
    sigma_t = (config.jitter_fwhm / config.bin_width) * _FWHM_TO_SIGMA
    radius_t = max(1, math.ceil(3.0 * sigma_t)) if sigma_t > 0 else 0
    return Kernel(xy=_sampled_gaussian(config.n, sigma_xy),
                  temporal=_sampled_gaussian(radius_t, sigma_t))


# ---------------------------------------------------------------------------
# separable 3D convolution (zero-padded, "same" size) and its adjoint


def _separable_passes(kernel, volume):
    """Zero-padded "same" convolution of an (H, W, T) array with the kernel:
    one product per axis (column, row, time) by that factor's band matrix.

    Each product runs over blocks of _BAND_BLOCK outputs and multiplies only
    the inputs within the factor's radius of the block, so its cost is
    linear in the axis length. Kernel makes every factor equal its reverse,
    so each band matrix is symmetric and B[i, o] is B[o, i]."""
    vol = _as_volume(volume)
    if vol.ndim != 3:
        raise ValueError(f"expected 3D volume, got {vol.shape}")
    side, m = kernel.xy.size, kernel.temporal.size
    if side > vol.shape[0] or side > vol.shape[1] or m > vol.shape[2]:
        raise ValueError(f"kernel {side}x{side}x{m} larger than volume {vol.shape}")
    height, width, slices = vol.shape
    out, tmp = np.empty(vol.shape), np.empty(vol.shape)
    xy = kernel.xy.tobytes()
    rows_in, rows_out = vol.reshape(height, -1), out.reshape(height, -1)
    for o, i, band in _band_blocks(xy, height):
        np.matmul(band, rows_in[i], out=rows_out[o])
    for o, i, band in _band_blocks(xy, width):
        np.matmul(band, out[:, i], out=tmp[:, o])
    bins_in, bins_out = tmp.reshape(-1, slices), out.reshape(-1, slices)
    for o, i, band in _band_blocks(kernel.temporal.tobytes(), slices):
        np.matmul(bins_in[:, i], band.T, out=bins_out[:, o])
    return out


@functools.lru_cache(maxsize=64)
def _band_blocks(taps, length):
    """The band matrix B[o, i] = w[i - o + r] of the factor whose float64
    bytes are taps, for an axis of length samples, as (outputs, inputs,
    dense block) for each block of _BAND_BLOCK outputs; inputs reach r
    samples past the block on each side, clipped to the axis."""
    w = np.frombuffer(taps)
    r = w.size // 2
    blocks = []
    for o0 in range(0, length, _BAND_BLOCK):
        o1 = min(o0 + _BAND_BLOCK, length)
        i0, i1 = max(0, o0 - r), min(length, o1 + r)
        d = np.arange(i0, i1) - np.arange(o0, o1)[:, None] + r
        band = np.where(abs(d - r) <= r, w[d.clip(0, 2 * r)], 0.0)
        band.setflags(write=False)  # every caller shares the cached blocks
        blocks.append((slice(o0, o1), slice(i0, i1), band))
    return tuple(blocks)


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
    """Backprojection: correlation with g. Kernel factors equal their
    reverse, so this is the same convolution, without the background."""
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
    if not (0 < ppp < math.inf and 0 < sbr < math.inf):
        raise ValueError("ppp and sbr must be positive and finite")
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


def simulate(scene, config, ppp, sbr, seed):
    """Sample a photon-count cube from a scene.

    Pipeline: spike volume -> kernel convolution -> flux calibration ->
    per-voxel Poisson draws, all from one generator seeded with seed, so a
    seed gives the same counts bit for bit.
    """
    rd = scene_to_rd(scene, config.bin_width, config.n_bins, config.t0)
    flux = convolve3d(make_kernel(config), rd, 0.0)
    alpha, background_per_bin = calibrate_flux(flux, ppp, sbr, config)
    counts = np.random.default_rng(seed).poisson(alpha * flux + background_per_bin)
    return HistogramCube(
        counts=counts,
        config=config,
        background_per_bin=float(background_per_bin),
        rng_seed=int(seed),
        alpha=float(alpha),
    )


# ---------------------------------------------------------------------------
# persistence


def save_cube(cube, path):
    """Write counts as an SPH1 file plus a sidecar with the acquisition
    metadata needed to reconstruct from it."""
    meta = {
        "config": cube.config.to_dict(),
        "background_per_bin": float(cube.background_per_bin),
        "seed": int(cube.rng_seed),
        "alpha": None if cube.alpha is None else float(cube.alpha),
    }
    io.write_cube(path, cube.counts, meta)


def load_cube(path):
    """Inverse of save_cube; a refusal is a ValueError naming the file."""
    data, meta = io.read_cube(path)
    meta = io.check_fields(meta, f"{path}.json", {
        "config": "object", "background_per_bin": "number", "seed": "integer",
        "alpha": "number or null"})
    config = io.check_fields(meta["config"], f"{path}.json config", SCAN_FIELDS)
    with io.naming(path):
        return HistogramCube(data, ScanConfig(**config), meta["background_per_bin"],
                             meta["seed"], meta["alpha"])
