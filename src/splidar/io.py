"""File formats: portable graymaps, portable float maps, binary count/volume
cubes, and quantized 16-bit map export.

Everything here is a pure function from arrays/paths to arrays/bytes. No domain
types; the domain modules wrap these with their own metadata handling. All
multi-byte binary cube data is little-endian; graymaps follow the netpbm
convention (16-bit samples big-endian).
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

CUBE_MAGIC_COUNTS = b"SPH1"
CUBE_MAGIC_FLOAT = b"SPR1"

MAP_INVALID = 0  # sentinel code in exported 16-bit maps
MAP_LEVELS = 65535  # valid codes occupy 1..65535


# ---------------------------------------------------------------------------
# portable graymap (P2 / P5, 8- or 16-bit)


def write_pgm(path, values, maxval=65535):
    """Write a 2D array of integers in [0, maxval] as binary PGM (P5).

    maxval <= 255 produces single-byte samples, otherwise two-byte big-endian.
    """
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise ValueError(f"expected 2D array, got shape {arr.shape}")
    if not (1 <= maxval <= 65535):
        raise ValueError(f"maxval out of range: {maxval}")
    data = np.rint(arr).astype(np.int64)
    if data.min() < 0 or data.max() > maxval:
        raise ValueError("values outside [0, maxval]")
    h, w = arr.shape
    header = f"P5\n{w} {h}\n{maxval}\n".encode("ascii")
    if maxval <= 255:
        payload = data.astype(np.uint8).tobytes()
    else:
        payload = data.astype(">u2").tobytes()
    Path(path).write_bytes(header + payload)


def _read_pnm_tokens(buf, count):
    """Pull `count` whitespace-separated ASCII tokens, skipping # comments.

    Returns (tokens, offset of the byte after the single whitespace char
    that terminates the last token).
    """
    tokens = []
    i = 0
    n = len(buf)
    while len(tokens) < count:
        while i < n and buf[i : i + 1].isspace():
            i += 1
        if i < n and buf[i : i + 1] == b"#":
            while i < n and buf[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < n and not buf[i : i + 1].isspace():
            i += 1
        if start == i:
            raise ValueError("truncated graymap header")
        tokens.append(buf[start:i])
        if len(tokens) < count:
            continue
        i += 1  # consume exactly one whitespace after the final header token
    return tokens, i


def read_pgm(path):
    """Read P2 or P5 graymap. Returns (values int array, maxval)."""
    buf = Path(path).read_bytes()
    if buf[:2] not in (b"P2", b"P5"):
        raise ValueError(f"not a graymap (magic {buf[:2]!r}): {path}")
    binary = buf[:2] == b"P5"
    (magic, w_tok, h_tok, mv_tok), offset = _read_pnm_tokens(buf, 4)
    w, h, maxval = int(w_tok), int(h_tok), int(mv_tok)
    if w <= 0 or h <= 0 or not (1 <= maxval <= 65535):
        raise ValueError(f"bad graymap dimensions {w}x{h} maxval {maxval}")
    if binary:
        dtype = np.uint8 if maxval <= 255 else np.dtype(">u2")
        need = h * w * dtype.itemsize if maxval > 255 else h * w
        raster = buf[offset : offset + need]
        if len(raster) < need:
            raise ValueError(f"truncated graymap raster: {path}")
        values = np.frombuffer(raster, dtype=dtype).reshape(h, w)
    else:
        tokens, _ = _read_pnm_tokens(buf[offset:], h * w)
        values = np.array([int(t) for t in tokens], dtype=np.int64).reshape(h, w)
    values = values.astype(np.int64)
    if values.max(initial=0) > maxval:
        raise ValueError("graymap sample exceeds stated maxval")
    return values, maxval


def write_ppm(path, rgb):
    """Write an (H, W, 3) uint8 array as binary PPM (P6)."""
    arr = np.asarray(rgb, dtype=np.uint8)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) array, got {arr.shape}")
    h, w, _ = arr.shape
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + arr.tobytes())


# ---------------------------------------------------------------------------
# portable float map (grayscale "Pf")


def write_pfm(path, values):
    """Write a 2D float array as grayscale PFM, little-endian, rows bottom-up."""
    arr = np.asarray(values, dtype=np.float32)
    if arr.ndim != 2:
        raise ValueError(f"expected 2D array, got shape {arr.shape}")
    h, w = arr.shape
    header = f"Pf\n{w} {h}\n-1.0\n".encode("ascii")
    payload = arr[::-1].astype("<f4").tobytes()  # scale < 0 means little-endian
    Path(path).write_bytes(header + payload)


def read_pfm(path):
    """Read grayscale PFM. Returns a 2D float32 array, top row first."""
    buf = Path(path).read_bytes()
    if buf[:2] != b"Pf":
        raise ValueError(f"not a grayscale float map (magic {buf[:2]!r}): {path}")
    (magic, w_tok, h_tok, scale_tok), offset = _read_pnm_tokens(buf, 4)
    w, h = int(w_tok), int(h_tok)
    scale = float(scale_tok)
    if w <= 0 or h <= 0 or scale == 0:
        raise ValueError(f"bad float map header: {path}")
    dtype = np.dtype("<f4") if scale < 0 else np.dtype(">f4")
    need = h * w * 4
    raster = buf[offset : offset + need]
    if len(raster) < need:
        raise ValueError(f"truncated float map raster: {path}")
    values = np.frombuffer(raster, dtype=dtype).reshape(h, w)[::-1]
    return np.ascontiguousarray(values, dtype=np.float32)


# ---------------------------------------------------------------------------
# binary cubes (photon counts and reconstructed volumes) + JSON sidecar

_CUBE_HEADER = struct.Struct("<4sIII")


def write_cube(path, data, meta):
    """Write a 3D cube with its JSON sidecar at path + ".json".

    Integer input -> count cube (magic SPH1, u32 samples); float input ->
    volume cube (magic SPR1, f32 samples). Layout: magic, u32 height, width,
    n_bins (little-endian), then row-major samples.
    """
    arr = np.asarray(data)
    if arr.ndim != 3:
        raise ValueError(f"expected 3D array, got shape {arr.shape}")
    if arr.size and arr.min() < 0:
        raise ValueError("cube values must be non-negative")
    if np.issubdtype(arr.dtype, np.integer):
        if arr.size and arr.max() > np.iinfo(np.uint32).max:
            raise ValueError("counts exceed the u32 range of a count cube")
        magic, payload = CUBE_MAGIC_COUNTS, arr.astype("<u4").tobytes()
    else:
        magic, payload = CUBE_MAGIC_FLOAT, arr.astype("<f4").tobytes()
    h, w, t = arr.shape
    Path(path).write_bytes(_CUBE_HEADER.pack(magic, h, w, t) + payload)
    write_json_sidecar(path, meta)


def read_cube(path):
    """Read an SPH1/SPR1 cube. Returns (data, meta dict or None).

    SPH1 yields int64 counts, SPR1 float64 values. The sidecar is optional on
    read; callers that need acquisition metadata must check for None.
    """
    buf = Path(path).read_bytes()
    if len(buf) < _CUBE_HEADER.size:
        raise ValueError(f"truncated cube header: {path}")
    magic, h, w, t = _CUBE_HEADER.unpack_from(buf)
    if magic not in (CUBE_MAGIC_COUNTS, CUBE_MAGIC_FLOAT):
        raise ValueError(f"not a cube file (magic {magic!r}): {path}")
    dtype = np.dtype("<u4") if magic == CUBE_MAGIC_COUNTS else np.dtype("<f4")
    need = h * w * t * dtype.itemsize
    raster = buf[_CUBE_HEADER.size :]
    if len(raster) < need:
        raise ValueError(f"truncated cube raster: {path}")
    if len(raster) > need:
        raise ValueError(f"{len(raster) - need} bytes after the cube raster: {path}")
    data = np.frombuffer(raster, dtype=dtype).reshape(h, w, t)
    out_dtype = np.int64 if magic == CUBE_MAGIC_COUNTS else np.float64
    meta = read_json_sidecar(path)
    return data.astype(out_dtype), meta


# ---------------------------------------------------------------------------
# quantized 16-bit map export (depth / reflectivity with validity mask)


def write_map(path, values, valid, kind, units, vmin=None, vmax=None):
    """Export a 2D map as 16-bit graymap plus JSON scale sidecar.

    Invalid pixels encode as 0; valid values map affinely from [vmin, vmax]
    onto 1..65535. vmin/vmax default to the min/max over valid pixels; a
    degenerate span encodes every valid pixel as 1.
    """
    arr = np.asarray(values, dtype=np.float64)
    mask = np.asarray(valid, dtype=bool)
    if arr.shape != mask.shape or arr.ndim != 2:
        raise ValueError("map and mask must be 2D with equal shapes")
    if mask.any():
        lo = float(arr[mask].min()) if vmin is None else float(vmin)
        hi = float(arr[mask].max()) if vmax is None else float(vmax)
    else:
        lo = 0.0 if vmin is None else float(vmin)
        hi = 0.0 if vmax is None else float(vmax)
    codes = np.zeros(arr.shape, dtype=np.int64)
    if mask.any():
        if hi > lo:
            frac = np.clip((arr[mask] - lo) / (hi - lo), 0.0, 1.0)
            codes[mask] = 1 + np.rint(frac * (MAP_LEVELS - 1)).astype(np.int64)
        else:
            codes[mask] = 1
    write_pgm(path, codes, maxval=MAP_LEVELS)
    write_json_sidecar(
        path,
        {"kind": kind, "units": units, "vmin": lo, "vmax": hi, "invalid": MAP_INVALID},
    )


def read_map(path):
    """Inverse of write_map. Returns (values, valid mask, meta dict)."""
    codes, maxval = read_pgm(path)
    meta = read_json_sidecar(path)
    if meta is None or "vmin" not in meta or "vmax" not in meta:
        raise ValueError(f"map sidecar missing or incomplete: {path}.json")
    valid = codes != MAP_INVALID
    lo, hi = float(meta["vmin"]), float(meta["vmax"])
    values = np.zeros(codes.shape, dtype=np.float64)
    if hi > lo:
        values[valid] = lo + (codes[valid] - 1) / (MAP_LEVELS - 1) * (hi - lo)
    else:
        values[valid] = lo
    return values, valid, meta


# ---------------------------------------------------------------------------
# sidecars, hashing


def write_json_sidecar(path, meta):
    """Write meta as deterministic JSON next to path (path + ".json")."""
    text = json.dumps(meta, sort_keys=True, indent=2) + "\n"
    Path(str(path) + ".json").write_text(text, encoding="ascii")


def read_json_sidecar(path):
    sidecar = Path(str(path) + ".json")
    if not sidecar.exists():
        return None
    return json.loads(sidecar.read_text(encoding="ascii"))


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
