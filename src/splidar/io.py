"""File formats: portable graymaps, portable float maps, binary count/volume
cubes, and quantized 16-bit map export.

Everything here is a pure function from arrays/paths to arrays/bytes. No domain
types; the domain modules check their JSON documents (sidecars, a scene's
meta.json, an experiment spec) through check_fields, the one place that says
which JSON values are acceptable. All multi-byte binary cube data is
little-endian; graymaps follow the netpbm convention (16-bit samples
big-endian).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
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


def _read_pnm_tokens(buf, count, what):
    """Pull `count` whitespace-separated ASCII tokens, skipping # comments;
    running out is a "truncated {what}".

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
            raise ValueError(f"truncated {what}")
        tokens.append(buf[start:i])
        if len(tokens) < count:
            continue
        i += 1  # consume exactly one whitespace after the final header token
    return tokens, i


def read_pgm(path):
    """Read P2 or P5 graymap. Returns (values int array, maxval)."""
    buf = Path(path).read_bytes()
    with naming(path):
        if buf[:2] not in (b"P2", b"P5"):
            raise ValueError(f"not a graymap (magic {buf[:2]!r})")
        binary = buf[:2] == b"P5"
        (magic, w_tok, h_tok, mv_tok), offset = _read_pnm_tokens(
            buf, 4, "graymap header"
        )
        w, h, maxval = int(w_tok), int(h_tok), int(mv_tok)
        if w <= 0 or h <= 0 or not (1 <= maxval <= 65535):
            raise ValueError(f"bad graymap dimensions {w}x{h} maxval {maxval}")
        if binary:
            dtype = np.uint8 if maxval <= 255 else np.dtype(">u2")
            need = h * w * dtype.itemsize if maxval > 255 else h * w
            raster = buf[offset:]
            if len(raster) < need:
                raise ValueError("truncated graymap raster")
            if len(raster) > need:
                raise ValueError(f"{len(raster) - need} bytes after the graymap raster")
            values = np.frombuffer(raster, dtype=dtype).reshape(h, w)
        else:
            tokens, end = _read_pnm_tokens(buf[offset:], h * w, "graymap raster")
            if not all(t.isdigit() for t in tokens):
                raise ValueError("graymap sample is not a non-negative integer")
            extra = len(buf[offset + end :].split())
            if extra:
                raise ValueError(f"{extra} tokens after the graymap raster")
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
    with naming(path):
        if buf[:2] != b"Pf":
            raise ValueError(f"not a grayscale float map (magic {buf[:2]!r})")
        (magic, w_tok, h_tok, scale_tok), offset = _read_pnm_tokens(
            buf, 4, "float map header"
        )
        w, h = int(w_tok), int(h_tok)
        scale = float(scale_tok)
        if w <= 0 or h <= 0 or scale == 0:
            raise ValueError("bad float map header")
        dtype = np.dtype("<f4") if scale < 0 else np.dtype(">f4")
        need = h * w * 4
        raster = buf[offset:]
        if len(raster) < need:
            raise ValueError("truncated float map raster")
        if len(raster) > need:
            raise ValueError(f"{len(raster) - need} bytes after the float map raster")
    values = np.frombuffer(raster, dtype=dtype).reshape(h, w)[::-1]
    return np.ascontiguousarray(values, dtype=np.float32)


# ---------------------------------------------------------------------------
# binary cubes (photon counts and reconstructed volumes) + JSON sidecar

_CUBE_HEADER = struct.Struct("<4sIII")


def write_cube(path, data, meta):
    """Write a 3D cube with its JSON sidecar at path + ".json".

    Integer input -> count cube (magic SPH1, u32 samples); float input ->
    volume cube (magic SPR1, f32 samples), which must be finite and within
    the float32 range. Layout: magic, u32 height, width, n_bins
    (little-endian), then row-major samples. A refused cube writes nothing.
    """
    arr = np.asarray(data)
    if arr.ndim != 3:
        raise ValueError(f"expected 3D array, got shape {arr.shape}")
    if arr.size and arr.min() < 0:
        raise ValueError("cube values must be non-negative")
    if np.issubdtype(arr.dtype, np.integer):
        if arr.size and arr.max() > np.iinfo(np.uint32).max:
            raise ValueError("counts exceed the u32 range of a count cube")
        magic, dtype = CUBE_MAGIC_COUNTS, "<u4"
    else:
        # "not <=" also refuses NaN, which max propagates
        if arr.size and not arr.max() <= np.finfo(np.float32).max:
            raise ValueError("volume values must be finite and within the float32 range")
        magic, dtype = CUBE_MAGIC_FLOAT, "<f4"
    # the samples go to the file from one row-major array, with no bytes copy
    payload = np.ascontiguousarray(arr, dtype=dtype)
    with open(path, "wb") as fh:
        fh.write(_CUBE_HEADER.pack(magic, *arr.shape))
        fh.write(payload)
    write_json_sidecar(path, meta)


def read_cube(path):
    """Read an SPH1/SPR1 cube and its required sidecar. Returns (data, meta).

    SPH1 yields int64 counts, SPR1 float64 values, which must be finite.
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
    if magic == CUBE_MAGIC_FLOAT and not np.isfinite(data).all():
        raise ValueError(f"non-finite volume values: {path}")
    out_dtype = np.int64 if magic == CUBE_MAGIC_COUNTS else np.float64
    meta = read_json_sidecar(path)
    return data.astype(out_dtype), meta


# ---------------------------------------------------------------------------
# quantized 16-bit map export (depth / reflectivity with validity mask)


def write_map(path, values, valid, kind, units):
    """Export a 2D map as 16-bit graymap plus JSON scale sidecar.

    Invalid pixels encode as 0; valid values map affinely from [vmin, vmax],
    the min and max over valid pixels, onto 1..65535. A degenerate span
    encodes every valid pixel as 1. A non-finite valid value, or a span
    vmax - vmin that overflows, is a ValueError and writes nothing, since
    read_map would refuse or mis-decode it.
    """
    arr = np.asarray(values, dtype=np.float64)
    mask = np.asarray(valid, dtype=bool)
    if arr.shape != mask.shape or arr.ndim != 2:
        raise ValueError("map and mask must be 2D with equal shapes")
    if mask.any():
        lo, hi = float(arr[mask].min()), float(arr[mask].max())
    else:
        lo = hi = 0.0
    if not math.isfinite(hi - lo):  # NaN and inf propagate to the span
        raise ValueError(f"map span [{lo}, {hi}] over valid pixels is not finite")
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
    """Inverse of write_map. Returns (values, valid mask, meta dict).

    The graymap must use write_map's maxval, and the sidecar must hold
    write_map's keys (check_fields) with finite vmin <= vmax whose
    difference is finite; anything else is a ValueError, since its codes
    would decode to wrong or non-finite values.
    """
    codes, maxval = read_pgm(path)
    if maxval != MAP_LEVELS:
        raise ValueError(f"map graymap has maxval {maxval}, expected {MAP_LEVELS}: {path}")
    meta = check_fields(read_json_sidecar(path), f"{path}.json", {
        "kind": "string", "units": "string", "vmin": "number", "vmax": "number",
        "invalid": "integer"})
    valid = codes != MAP_INVALID
    lo, hi = meta["vmin"], meta["vmax"]
    if not lo <= hi:
        raise ValueError(f"map sidecar span [{lo}, {hi}] not ordered: {path}.json")
    if not math.isfinite(hi - lo):
        raise ValueError(f"map sidecar span [{lo}, {hi}] overflows: {path}.json")
    values = np.zeros(codes.shape, dtype=np.float64)
    if hi > lo:
        values[valid] = lo + (codes[valid] - 1) / (MAP_LEVELS - 1) * (hi - lo)
    else:
        values[valid] = lo
    return values, valid, meta


# ---------------------------------------------------------------------------
# JSON files, sidecars, hashing


def write_json(path, obj):
    """Write obj as deterministic JSON: sorted keys, indent 2, ASCII, and a
    trailing newline."""
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    Path(path).write_text(text, encoding="ascii")


def read_json(path):
    """The JSON value in an ASCII file; text that is not ASCII JSON is a
    ValueError naming the file."""
    with naming(path):
        return json.loads(Path(path).read_text(encoding="ascii"))


def write_json_sidecar(path, meta):
    """Write meta as deterministic JSON next to path (path + ".json")."""
    write_json(str(path) + ".json", meta)


def read_json_sidecar(path):
    """The JSON object next to path; a missing sidecar, or one that is not
    an object, is an error."""
    sidecar = Path(str(path) + ".json")
    meta = read_json(sidecar) if sidecar.exists() else None
    if not isinstance(meta, dict):
        raise ValueError(f"sidecar missing or not a JSON object: {sidecar}")
    return meta


@contextlib.contextmanager
def naming(path):
    """Append path to any ValueError raised in the block, so that every
    refusal of a reader names its file once."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{exc}: {path}") from None


def _is_number(value):
    """A finite int or float, Python's or numpy's, that a float can hold; a
    bool is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer,
                                                          np.floating)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


_KINDS = {  # kind: (test, what the value must be)
    "number": (_is_number, "a finite number"),
    "integer": (lambda v: _is_number(v) and float(v).is_integer(), "an integer"),
    "number or null": (lambda v: v is None or _is_number(v), "a finite number or null"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "object": (lambda v: isinstance(v, dict), "a JSON object"),
}


def check_fields(obj, where, required, optional=None):
    """obj, a JSON object, with its values checked against their kinds.

    required and optional map each allowed key to its kind: "number" (a
    finite int or float, not a bool), "integer" (a number with an integral
    value, returned as an int), "number or null", "string", "object", or
    [kind] for a list of values of that kind. A value that is not an
    object, a key outside required and optional, a missing required key or
    a value of another kind is a ValueError naming where and the key.
    Returns a new dict; obj is not changed.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected a JSON object, got {obj!r}")
    fields = {**required, **(optional or {})}
    for problem, keys in (("unknown", set(obj) - set(fields)),
                          ("missing", set(required) - set(obj))):
        if keys:
            raise ValueError(f"{where}: {problem} keys {', '.join(sorted(keys))}")
    return {key: _checked(value, fields[key], where, key) for key, value in obj.items()}


def check_attributes(obj, where, kinds):
    """Check the attributes of a frozen dataclass named in kinds as
    check_fields checks a JSON object's values, and store the checked
    values (an integer as an int) in place."""
    values = check_fields({key: getattr(obj, key) for key in kinds}, where, kinds)
    for key, value in values.items():
        object.__setattr__(obj, key, value)


def _checked(value, kind, where, key):
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ValueError(f"{where}: {key} must be a list, got {value!r}")
        return [_checked(v, kind[0], where, f"{key}[{i}]") for i, v in enumerate(value)]
    test, what = _KINDS[kind]
    if not test(value):
        raise ValueError(f"{where}: {key} must be {what}, got {value!r}")
    return int(value) if kind == "integer" else value


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
