"""Per-pixel reference reconstructions.

Both reference methods treat every scan position independently: the Poisson
maximum-likelihood depth estimate for a known pulse shape (equivalently, the
log-matched filter: cross-correlate the histogram with the log of the
temporal response) and the conventional-scan variant that runs the same
estimator on a coarsened cube and upsamples the result.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .forward import HistogramCube, make_kernel
from .scene import SPEED_OF_LIGHT
from .solver import Maps, _window_sums

_LOG_FLOOR = 1e-12  # keeps log finite when the background is zero


def _cube_parts(y):
    if isinstance(y, HistogramCube):
        cfg = y.config
        return y.counts.astype(np.float64), cfg.bin_width, cfg.t0
    return np.asarray(y, dtype=np.float64), 1.0, 0.0


def pixelwise_ml(y, g_t, b, window_half=None):
    """Independent per-pixel depth/reflectivity via the log-matched filter.

    score(k) = sum_m y[m] * log(g_t[m-k] + b'), with b' the background
    rescaled against the kernel peak. The constant part of the template is
    dropped so the score reduces to a correlation with the non-negative
    profile log(g_t + b') - log(b'), which leaves the argmax unchanged.
    Reflectivity is the background-subtracted count sum in a +-window_half
    window around the peak (default: the kernel half-width). Pixels with no
    counts at all are flagged invalid.
    """
    counts, bin_width, t0 = _cube_parts(y)
    if counts.ndim != 3:
        raise ValueError(f"expected 3D counts, got {counts.shape}")
    g = np.asarray(g_t, dtype=np.float64)
    if g.ndim != 1 or g.size % 2 == 0:
        raise ValueError(f"temporal kernel must be odd-length 1D, got {g.shape}")
    if g.size > counts.shape[2]:
        raise ValueError("temporal kernel longer than the histogram")
    if not np.isfinite(b) or b < 0:
        raise ValueError(f"background must be finite and non-negative, got {b}")
    if window_half is None:
        window_half = g.size // 2

    b_prime = max(b / g.max(), _LOG_FLOOR)
    template = np.log(g + b_prime) - np.log(b_prime)
    score = ndimage.correlate1d(counts, template, axis=2, mode="constant", cval=0.0)
    k_star = np.argmax(score, axis=2)  # ties take the smallest bin

    valid = counts.sum(axis=2) > 0
    depth = (t0 + k_star * bin_width) * (SPEED_OF_LIGHT / 2.0)
    depth = np.where(valid, depth, np.nan)

    in_window, width = _window_sums(counts, k_star, window_half)
    refl = np.maximum(in_window - b * width, 0.0)
    refl = np.where(valid, refl, 0.0)
    return Maps(depth=depth, reflectivity=refl, valid=valid)


def reconstruct_no_scan(cube_coarse, upscale, window_half=None):
    """Conventional-scan reference: per-pixel estimates on a coarsened cube,
    nearest-neighbor upsampled so maps compare like for like with the
    sub-pixel methods. Kernel and background come from the cube metadata.
    """
    if int(upscale) != upscale or upscale < 1:
        raise ValueError(f"upscale must be an integer >= 1, got {upscale}")
    upscale = int(upscale)
    g_t = make_kernel(cube_coarse.config).temporal
    maps = pixelwise_ml(
        cube_coarse, g_t, cube_coarse.background_per_bin, window_half=window_half
    )
    return Maps(
        depth=_nn_upsample(maps.depth, upscale),
        reflectivity=_nn_upsample(maps.reflectivity, upscale),
        valid=_nn_upsample(maps.valid, upscale),
    )


def _nn_upsample(arr, factor):
    return np.repeat(np.repeat(arr, factor, axis=0), factor, axis=1)
