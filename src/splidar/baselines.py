"""Per-pixel reference reconstructions.

Both reference methods treat every scan position independently: the Poisson
maximum-likelihood depth estimate for a known pulse shape (equivalently, the
log-matched filter: cross-correlate the histogram with the log of the
temporal response) and the conventional raster, which runs the same
estimator on every factor-th scan position of a bare count array and
upsamples the result.

The log-matched filter sums in one fixed order: for a template w of
half-width r, score[k] starts as x[k] w[r], then for j = r, ..., 1 adds
(x[k-j] + x[k+j]) w[r-j], with x zero outside the histogram. That is the
order of the reference symmetric correlation the tests compare against byte
for byte. Each step is one elementwise numpy operation and no BLAS call is
made, so for a given cube the scores, and with them the argmax wherever
integer counts make exact ties, do not depend on the BLAS kernel. Summing
x[k-j] and x[k+j] under one weight equals the plain correlation only when
w[r-j] == w[r+j], so pixelwise_ml refuses a temporal kernel that is not
exactly its own reverse.
"""

from __future__ import annotations

import numpy as np

from .solver import Maps, _count_parts, _peak_maps, _window_sums

_LOG_FLOOR = 1e-12  # keeps log finite when the background is zero


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
    counts, bin_width, t0 = _count_parts(y, b)
    g = np.asarray(g_t, dtype=np.float64)
    if g.ndim != 1 or g.size % 2 == 0:
        raise ValueError(f"temporal kernel must be odd-length 1D, got {g.shape}")
    if not (np.isfinite(g).all() and (g >= 0).all() and g.max() > 0):
        raise ValueError("temporal kernel must be finite and non-negative, "
                         "with a positive entry")
    if not np.array_equal(g, g[::-1]):
        raise ValueError("temporal kernel must be symmetric: equal to its own reverse")
    if g.size > counts.shape[2]:
        raise ValueError("temporal kernel longer than the histogram")
    if window_half is None:
        window_half = g.size // 2

    b_prime = max(b / g.max(), _LOG_FLOOR)
    template = np.log(g + b_prime) - np.log(b_prime)
    score = _correlate_symmetric(counts, template)
    k_star = np.argmax(score, axis=2)  # ties take the smallest bin

    in_window, width = _window_sums(counts, k_star, window_half)
    refl = np.maximum(in_window - b * width, 0.0)
    return _peak_maps(k_star, refl, counts.sum(axis=2) > 0, t0, bin_width)


def _correlate_symmetric(x, w):
    """Correlation of each pixel's histogram x[i, j, :] with the symmetric,
    odd-length template w, in the order the module docstring gives."""
    r = w.size // 2
    t = x.shape[2]
    padded = np.zeros(x.shape[:2] + (t + 2 * r,))
    padded[:, :, r:r + t] = x
    score = x * w[r]
    for j in range(r, 0, -1):
        score += (padded[:, :, r - j:r - j + t] + padded[:, :, r + j:r + j + t]) * w[r - j]
    return score


def reconstruct_no_scan(counts, g_t, b, factor, window_half=None):
    """Conventional-raster reference: pixelwise_ml on every factor-th scan
    position along both axes of a bare (H, W, T) count array, at offset
    (0, 0), nearest-neighbor upsampled so maps compare like for like with
    the sub-pixel methods. g_t, b and window_half are pixelwise_ml's.
    """
    if int(factor) != factor or factor < 1:
        raise ValueError(f"factor must be an integer >= 1, got {factor}")
    factor = int(factor)
    counts = np.asarray(counts)
    if counts.ndim != 3:
        raise ValueError(f"expected 3D counts, got {counts.shape}")
    h, w, _ = counts.shape
    if h % factor or w % factor:
        raise ValueError(f"factor {factor} does not divide {h}x{w}")
    maps = pixelwise_ml(counts[::factor, ::factor], g_t, b, window_half=window_half)
    return _nn_upsample_maps(maps, factor)


def _nn_upsample_maps(maps, factor):
    def up(arr):
        return np.repeat(np.repeat(arr, factor, axis=0), factor, axis=1)

    return Maps(depth=up(maps.depth), reflectivity=up(maps.reflectivity),
                valid=up(maps.valid))
