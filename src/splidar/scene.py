"""Ground-truth scenes (reflectivity + depth) and their discrete time-binned
volume form.

A Scene holds a per-pixel (reflectivity, depth) pair on the fine scan grid.
scene_to_rd places each pixel's reflectivity in the time bin matching its
round-trip delay, producing the sparse 3D volume the forward model convolves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import io

SPEED_OF_LIGHT = 299792458.0  # m/s

CHART_HEIGHT = 120
CHART_WIDTH = 128
CHART_BAR_WIDTHS = (6, 5, 4, 3, 2, 1)  # largest to smallest group


@dataclass(frozen=True)
class Scene:
    """Per-pixel ground truth: reflectivity (unitless, >= 0) and depth (m)."""

    reflectivity: np.ndarray
    depth: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.reflectivity, dtype=np.float64)
        d = np.asarray(self.depth, dtype=np.float64)
        if r.ndim != 2 or r.shape != d.shape:
            raise ValueError(f"grid shapes differ: {r.shape} vs {d.shape}")
        if r.size == 0:
            raise ValueError("empty scene")
        if not (np.isfinite(r).all() and np.isfinite(d).all()):
            raise ValueError("reflectivity and depth must be finite")
        if r.min() < 0:
            raise ValueError("negative reflectivity")
        object.__setattr__(self, "reflectivity", r)
        object.__setattr__(self, "depth", d)

    @property
    def height(self):
        return self.reflectivity.shape[0]

    @property
    def width(self):
        return self.reflectivity.shape[1]


@dataclass(frozen=True)
class RDVolume:
    """Non-negative (height, width, n_bins) volume; per-pixel spike index
    encodes depth, spike value encodes reflectivity."""

    data: np.ndarray
    bin_width: float
    t0: float = 0.0

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float64)
        if d.ndim != 3:
            raise ValueError(f"expected 3D data, got shape {d.shape}")
        if d.size and not (d.min() >= 0 and np.isfinite(d.max())):
            raise ValueError("volume entries must be finite and non-negative")
        if not 0 < self.bin_width < np.inf:
            raise ValueError(f"bin_width must be positive and finite: {self.bin_width}")
        if not np.isfinite(self.t0):
            raise ValueError(f"t0 must be finite: {self.t0}")
        object.__setattr__(self, "data", d)

    @property
    def shape(self):
        return self.data.shape


def _as_volume(rd):
    """The float64 array of an RDVolume or of a bare array."""
    return rd.data if isinstance(rd, RDVolume) else np.asarray(rd, dtype=np.float64)


@dataclass(frozen=True)
class ChartGroup:
    width: int  # bar/space width in pixels
    bar_mask: np.ndarray = field(repr=False)
    space_mask: np.ndarray = field(repr=False)


def chart_layout():
    """Geometry of the resolution chart: six 3-bar groups, two rows of three.

    Group g has bars and spaces CHART_BAR_WIDTHS[g] pixels wide inside a
    square box of side 5w (three vertical bars, two spaces). Boxes are
    centered on a 2x3 grid. Returns the groups largest-width first.
    """
    height, width = CHART_HEIGHT, CHART_WIDTH
    row_centers = (height // 4, (3 * height) // 4)
    col_centers = (width // 6, width // 2, (5 * width) // 6)
    groups = []
    for g, w in enumerate(CHART_BAR_WIDTHS):
        cy = row_centers[g // 3]
        cx = col_centers[g % 3]
        side = 5 * w
        y0, x0 = cy - side // 2, cx - side // 2
        bar = np.zeros((height, width), dtype=bool)
        space = np.zeros((height, width), dtype=bool)
        for m in range(5):
            target = bar if m % 2 == 0 else space  # bar, space, bar, space, bar
            target[y0 : y0 + side, x0 + m * w : x0 + (m + 1) * w] = True
        groups.append(ChartGroup(width=w, bar_mask=bar, space_mask=space))
    return groups


def make_resolution_chart(d_fg=3.0, d_bg=5.4, r_bg=0.0):
    """120x128 bar-target scene: reflectivity-1 bars at depth d_fg on an
    r_bg background at depth d_bg.

    Defaults keep the two depths well separated in time: the 2.4 m gap is
    10 bins even at the coarse 1.6 ns binning the experiment suite uses,
    40 bins at the 0.4 ns default.
    """
    if r_bg < 0:
        raise ValueError("negative background reflectivity")
    reflectivity = np.full((CHART_HEIGHT, CHART_WIDTH), float(r_bg))
    depth = np.full((CHART_HEIGHT, CHART_WIDTH), float(d_bg))
    for group in chart_layout():
        reflectivity[group.bar_mask] = 1.0
        depth[group.bar_mask] = float(d_fg)
    return Scene(reflectivity=reflectivity, depth=depth)


def scene_to_rd(scene, bin_width, n_bins, t0=0.0):
    """Spike volume: data[i,j,k] = reflectivity[i,j] at the bin matching the
    pixel's round-trip time, zero elsewhere.

    Bin index is round-half-up of (2*depth/c - t0)/bin_width. Any pixel whose
    delay falls outside [0, n_bins*bin_width) is an error.
    """
    if bin_width <= 0 or n_bins < 1:
        raise ValueError("bin_width and n_bins must be positive")
    delay = 2.0 * scene.depth / SPEED_OF_LIGHT - t0
    frac = delay / bin_width
    bad = (delay < 0) | (frac >= n_bins)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(
            f"pixel ({i},{j}) depth {scene.depth[i, j]:g} m falls outside the "
            f"{n_bins}-bin time window"
        )
    k = np.floor(frac + 0.5).astype(np.int64)  # round-half-up
    bad = k >= n_bins  # rounding can push the last half bin over the edge
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(
            f"pixel ({i},{j}) depth {scene.depth[i, j]:g} m rounds past the "
            f"last time bin"
        )
    data = np.zeros((scene.height, scene.width, n_bins))
    ii, jj = np.indices(k.shape)
    data[ii, jj, k] = scene.reflectivity
    return RDVolume(data=data, bin_width=float(bin_width), t0=float(t0))


# ---------------------------------------------------------------------------
# scene ingestion and persistence


def load_scene(reflectivity_path, depth_path, d_min=None, d_max=None):
    """Build a Scene from image files.

    Reflectivity: graymap values normalize by the format maxval; float maps
    must already sit in [0, 1]. Depth: graymap values map affinely from the
    full code range [0, maxval] onto [d_min, d_max] (both required); float
    maps carry meters directly when d_min/d_max are omitted, otherwise their
    observed [min, max] maps affinely onto [d_min, d_max].
    """
    refl = _load_reflectivity(reflectivity_path)
    depth = _load_depth(depth_path, d_min, d_max)
    if refl.shape != depth.shape:
        raise ValueError(
            f"dimension mismatch: reflectivity {refl.shape} vs depth {depth.shape}"
        )
    return Scene(reflectivity=refl, depth=depth)


def _load_reflectivity(path):
    kind = _sniff(path)
    if kind == "pgm":
        values, maxval = io.read_pgm(path)
        return values.astype(np.float64) / maxval
    values = io.read_pfm(path)
    if not (values.min() >= 0 and values.max() <= 1):  # NaN fails both, before the cast
        raise ValueError(f"float reflectivity must be finite and lie in [0, 1]: {path}")
    return values.astype(np.float64)


def _load_depth(path, d_min, d_max):
    kind = _sniff(path)
    if kind == "pgm":
        if d_min is None or d_max is None:
            raise ValueError("integer depth maps need an explicit [d_min, d_max]")
        values, maxval = io.read_pgm(path)
        return d_min + values.astype(np.float64) / maxval * (d_max - d_min)
    values, lo, hi = _read_float_depth(path)
    if d_min is None or d_max is None:
        return values  # already meters
    return _stretch_depth(values, lo, hi, d_min, d_max)


def _read_float_depth(path):
    """A float depth map in meters as float64, with its min and max."""
    values = io.read_pfm(path)
    lo, hi = float(values.min()), float(values.max())
    if not (lo >= 0 and hi < np.inf):  # NaN fails both, before a cast can signal it
        raise ValueError(f"float depth must be finite and non-negative: {path}")
    return values.astype(np.float64), lo, hi


def _stretch_depth(values, lo, hi, d_min, d_max):
    """Map [lo, hi] affinely onto [d_min, d_max]."""
    if hi > lo:
        return d_min + (values - lo) / (hi - lo) * (d_max - d_min)
    return np.full_like(values, float(d_min))


def _sniff(path):
    with open(path, "rb") as fh:
        magic = fh.read(2)
    if magic in (b"P2", b"P5"):
        return "pgm"
    if magic == b"Pf":
        return "pfm"
    raise ValueError(f"unsupported image format (magic {magic!r}): {path}")


def save_scene(scene, out_dir):
    """Persist as a directory: reflectivity.pgm (16-bit), depth.pfm, meta.json.

    Reflectivity must lie in [0, 1] (16-bit quantization); depth is stored in
    meters. meta.json records the shape and depth range so load_scene_dir
    round-trips the affine mapping as the identity; binning is a ScanConfig's.
    """
    if scene.reflectivity.max() > 1.0:
        raise ValueError("save_scene needs reflectivity in [0, 1]")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    codes = np.rint(scene.reflectivity * 65535).astype(np.int64)
    io.write_pgm(out / "reflectivity.pgm", codes, maxval=65535)
    io.write_pfm(out / "depth.pfm", scene.depth)
    meta = {
        "height": scene.height,
        "width": scene.width,
        "d_min": float(scene.depth.min()),
        "d_max": float(scene.depth.max()),
    }
    io.write_json(out / "meta.json", meta)


def load_scene_dir(scene_dir):
    """Load a save_scene directory. Returns (Scene, meta dict)."""
    d = Path(scene_dir)
    meta_path = d / "meta.json"
    if not meta_path.exists():
        raise ValueError(f"not a scene directory (no meta.json): {scene_dir}")
    meta = io.check_fields(io.read_json(meta_path), meta_path, {
        "height": "integer", "width": "integer", "d_min": "number", "d_max": "number"})
    # depth.pfm holds the depths at float32; meta.json restores the float64
    # ends of their range, and must name the raster's own range to do so.
    # Ends that float32 holds exactly leave the raster as it is: the affine
    # map is then the identity, but not in float64 arithmetic.
    depth, lo, hi = _read_float_depth(d / "depth.pfm")
    d_min, d_max = meta["d_min"], meta["d_max"]
    with np.errstate(over="ignore"):  # beyond float32 is inf, never a raster's end
        ends = (np.float32(d_min), np.float32(d_max))
    if (lo, hi) != ends:
        raise ValueError(
            f"{meta_path} says depths {d_min}..{d_max} m, "
            f"depth.pfm holds {lo}..{hi} m"
        )
    if (d_min, d_max) != (lo, hi):
        depth = _stretch_depth(depth, lo, hi, d_min, d_max)
    reflectivity = _load_reflectivity(d / "reflectivity.pgm")
    with io.naming(d):
        scene = Scene(reflectivity=reflectivity, depth=depth)
    if (meta["height"], meta["width"]) != (scene.height, scene.width):
        raise ValueError(
            f"{meta_path} says {meta['height']}x{meta['width']}, "
            f"the rasters are {scene.height}x{scene.width}"
        )
    return scene, meta
