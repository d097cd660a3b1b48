"""File format round-trips, hand-decoded reference bytes, and the refusals
of damaged files and mistyped JSON documents."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from splidar import io
from splidar.forward import HistogramCube, ScanConfig, load_cube, save_cube
from splidar.scene import RDVolume, Scene, load_scene_dir, save_scene
from splidar.solver import load_volume, save_volume


def test_pgm16_hand_decoded_sample(tmp_path):
    # "P5 2 1 65535" followed by big-endian 0x8000, 0x0001
    raw = b"P5\n2 1\n65535\n" + bytes([0x80, 0x00, 0x00, 0x01])
    p = tmp_path / "sample.pgm"
    p.write_bytes(raw)
    values, maxval = io.read_pgm(p)
    assert maxval == 65535
    assert values.tolist() == [[32768, 1]]


def test_pgm8_hand_decoded_sample(tmp_path):
    raw = b"P5\n3 1\n255\n" + bytes([0, 128, 255])
    p = tmp_path / "sample8.pgm"
    p.write_bytes(raw)
    values, maxval = io.read_pgm(p)
    assert maxval == 255
    assert values.tolist() == [[0, 128, 255]]


def test_pgm_ascii_with_comments(tmp_path):
    p = tmp_path / "ascii.pgm"
    p.write_text("P2\n# a comment\n2 2\n# another\n10\n0 5\n10 3\n")
    values, maxval = io.read_pgm(p)
    assert maxval == 10
    assert values.tolist() == [[0, 5], [10, 3]]


@pytest.mark.parametrize("maxval", [255, 65535])
def test_pgm_round_trip(tmp_path, maxval):
    rng = np.random.default_rng(3)
    arr = rng.integers(0, maxval + 1, size=(9, 7))
    p = tmp_path / "rt.pgm"
    io.write_pgm(p, arr, maxval=maxval)
    back, mv = io.read_pgm(p)
    assert mv == maxval
    np.testing.assert_array_equal(back, arr)


@pytest.mark.parametrize("sample", [b"-5", b"+5", b"5.0", b"0x5"])
def test_pgm_ascii_refuses_a_sample_that_is_not_a_non_negative_integer(tmp_path,
                                                                       sample):
    # -5 used to read as a sample, which read_map decodes below vmin
    p = tmp_path / "neg.pgm"
    p.write_bytes(b"P2\n2 1\n65535\n" + sample + b" 3\n")
    with pytest.raises(ValueError, match="not a non-negative integer"):
        io.read_pgm(p)


def test_pgm_ascii_refuses_tokens_after_the_raster(tmp_path):
    p = tmp_path / "extra.pgm"
    p.write_bytes(b"P2\n2 1\n10\n5 3\n7 8\n")
    with pytest.raises(ValueError, match="2 tokens after the graymap raster"):
        io.read_pgm(p)
    # whitespace after the raster is not a token
    p.write_bytes(b"P2\n2 1\n10\n5 3\n\n \t\n")
    assert io.read_pgm(p)[0].tolist() == [[5, 3]]


def test_pgm_rejects_out_of_range(tmp_path):
    with pytest.raises(ValueError):
        io.write_pgm(tmp_path / "bad.pgm", np.array([[300]]), maxval=255)


def test_pfm_round_trip_and_bottom_up_rows(tmp_path):
    arr = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    p = tmp_path / "rt.pfm"
    io.write_pfm(p, arr)
    raw = p.read_bytes()
    # negative scale marks little-endian; raster starts with the bottom row
    assert raw.startswith(b"Pf\n2 2\n-1.0\n")
    bottom = np.frombuffer(raw[-16:], dtype="<f4")
    assert bottom[:2].tolist() == [3.0, 4.0]
    np.testing.assert_array_equal(io.read_pfm(p), arr)


def test_pfm_big_endian_read(tmp_path):
    header = b"Pf\n2 1\n1.0\n"
    payload = np.array([5.0, 6.0], dtype=">f4").tobytes()
    p = tmp_path / "be.pfm"
    p.write_bytes(header + payload)
    np.testing.assert_array_equal(io.read_pfm(p), [[5.0, 6.0]])


def test_count_cube_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    counts = rng.integers(0, 50, size=(4, 5, 6))
    p = tmp_path / "c.sph1"
    io.write_cube(p, counts, {"seed": 1})
    assert p.read_bytes()[:4] == b"SPH1"
    back, meta = io.read_cube(p)
    np.testing.assert_array_equal(back, counts)
    assert back.dtype == np.int64
    assert meta == {"seed": 1}


def test_cube_header_layout(tmp_path):
    counts = np.arange(24).reshape(2, 3, 4)
    p = tmp_path / "h.sph1"
    io.write_cube(p, counts, {})
    raw = p.read_bytes()
    assert raw[:4] == b"SPH1"
    # u32 little-endian height, width, n_bins then row-major samples
    assert np.frombuffer(raw[4:16], dtype="<u4").tolist() == [2, 3, 4]
    assert np.frombuffer(raw[16:], dtype="<u4")[:5].tolist() == [0, 1, 2, 3, 4]


def test_float_cube_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    vol = rng.random((3, 4, 5)).astype(np.float32).astype(np.float64)
    p = tmp_path / "v.spr1"
    io.write_cube(p, vol, {"bin_width": 1e-9})
    assert p.read_bytes()[:4] == b"SPR1"
    back, meta = io.read_cube(p)
    np.testing.assert_array_equal(back, vol)
    assert meta["bin_width"] == 1e-9


def test_cube_rejects_negative(tmp_path):
    with pytest.raises(ValueError):
        io.write_cube(tmp_path / "n.sph1", np.array([[[-1]]]), {})


def test_count_cube_rejects_counts_beyond_u32(tmp_path):
    p = tmp_path / "big.sph1"
    io.write_cube(p, np.array([[[2**32 - 1]]]), {})
    assert io.read_cube(p)[0].item() == 2**32 - 1
    with pytest.raises(ValueError, match="u32"):
        io.write_cube(tmp_path / "over.sph1", np.array([[[2**32 + 5]]]), {})
    assert not (tmp_path / "over.sph1").exists()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1e300])
def test_float_cube_refuses_values_that_float32_cannot_hold(tmp_path, bad):
    # NaN used to be written and then refused by load_volume; 1e300 was
    # written as inf after a RuntimeWarning
    vol = np.ones((2, 2, 3))
    vol[1, 0, 2] = bad
    p = tmp_path / "v.spr1"
    with pytest.raises(ValueError, match="float32 range"):
        io.write_cube(p, vol, {"bin_width": 1e-9})
    assert not p.exists() and not (tmp_path / "v.spr1.json").exists()


def test_read_cube_requires_sidecar(tmp_path):
    p = tmp_path / "s.sph1"
    io.write_cube(p, np.zeros((1, 1, 2), dtype=np.int64), None)
    with pytest.raises(ValueError, match="sidecar"):
        io.read_cube(p)
    (tmp_path / "s.sph1.json").unlink()
    with pytest.raises(ValueError, match="sidecar"):
        io.read_cube(p)


def test_read_cube_rejects_trailing_bytes(tmp_path):
    p = tmp_path / "t.sph1"
    io.write_cube(p, np.arange(6).reshape(1, 2, 3), {})
    p.write_bytes(p.read_bytes() + b"\0")
    with pytest.raises(ValueError, match="after the cube raster"):
        io.read_cube(p)


def test_map_round_trip_with_invalid_sentinel(tmp_path):
    values = np.array([[0.5, 1.5, 2.5], [3.5, 9.0, 2.0]])
    valid = np.array([[True, True, False], [True, True, True]])
    p = tmp_path / "m.pgm"
    io.write_map(p, values, valid, kind="depth", units="m")
    codes, _ = io.read_pgm(p)
    assert codes[0, 2] == io.MAP_INVALID
    back, back_valid, meta = io.read_map(p)
    np.testing.assert_array_equal(back_valid, valid)
    assert meta["kind"] == "depth"
    # quantization error bounded by one code step over the span
    step = (9.0 - 0.5) / (io.MAP_LEVELS - 1)
    assert np.abs(back[valid] - values[valid]).max() <= step
    assert back[0, 2] == 0.0


def test_map_constant_span(tmp_path):
    values = np.full((2, 2), 4.25)
    valid = np.ones((2, 2), dtype=bool)
    p = tmp_path / "const.pgm"
    io.write_map(p, values, valid, kind="depth", units="m")
    back, back_valid, _ = io.read_map(p)
    assert back_valid.all()
    np.testing.assert_array_equal(back, values)


@pytest.mark.parametrize("values", [
    [[0.5, float("nan")]], [[0.5, float("inf")]], [[0.5, float("-inf")]],
    [[-1e308, 1e308]],
])
def test_map_refuses_a_span_that_is_not_finite(tmp_path, values):
    # a NaN at a valid pixel used to write "vmin": NaN, which read_map refuses
    p = tmp_path / "m.pgm"
    with pytest.raises(ValueError, match="not finite"):
        io.write_map(p, np.array(values), np.ones((1, 2), dtype=bool),
                     kind="depth", units="m")
    assert not p.exists() and not (tmp_path / "m.pgm.json").exists()
    # at an invalid pixel the value is never read
    io.write_map(p, np.array(values), np.array([[True, False]]),
                 kind="depth", units="m")
    assert io.read_map(p)[0].tolist() == [[values[0][0], 0.0]]


def test_sha256_file(tmp_path):
    p = tmp_path / "x.bin"
    p.write_bytes(b"abc")
    assert io.sha256_file(p) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


@pytest.mark.parametrize("maxval", [255, 65535])
def test_pgm_rejects_trailing_bytes(tmp_path, maxval):
    p = tmp_path / "t.pgm"
    io.write_pgm(p, np.array([[1, 2], [3, 4]]), maxval=maxval)
    p.write_bytes(p.read_bytes() + b"\0")
    with pytest.raises(ValueError, match="after the graymap raster"):
        io.read_pgm(p)


def test_pfm_rejects_trailing_bytes(tmp_path):
    p = tmp_path / "t.pfm"
    io.write_pfm(p, np.array([[1.0, 2.0], [3.0, 4.0]]))
    p.write_bytes(p.read_bytes() + b"junk1234")
    with pytest.raises(ValueError, match="8 bytes after the float map raster"):
        io.read_pfm(p)


def test_map_rejects_a_graymap_of_another_maxval(tmp_path):
    # code 255 of 255 would decode as 0.039 m on a 0..10 m span, not 10 m
    p = tmp_path / "m.pgm"
    io.write_pgm(p, np.array([[1, 255]]), maxval=255)
    io.write_json_sidecar(p, {"kind": "depth", "units": "m", "vmin": 0.0,
                              "vmax": 10.0, "invalid": io.MAP_INVALID})
    with pytest.raises(ValueError, match="maxval 255"):
        io.read_map(p)


@pytest.mark.parametrize("vmin, vmax", [
    (float("nan"), 1.0), (0.0, float("nan")), (float("-inf"), 1.0),
    (0.0, float("inf")), (2.0, 1.0),
])
def test_map_rejects_a_span_that_is_not_finite_and_ordered(tmp_path, vmin, vmax):
    p = tmp_path / "m.pgm"
    io.write_map(p, np.array([[0.5, 1.5]]), np.ones((1, 2), dtype=bool),
                 kind="depth", units="m")
    meta = io.read_json(str(p) + ".json")
    io.write_json_sidecar(p, {**meta, "vmin": vmin, "vmax": vmax})
    # a non-finite end is refused by its key, finite ends out of order by span
    if np.isfinite([vmin, vmax]).all():
        message = r"span \[2.0, 1.0\] not ordered"
    else:
        message = "vmin" if not np.isfinite(vmin) else "vmax"
    with pytest.raises(ValueError, match=message) as refused:
        io.read_map(p)
    assert "m.pgm.json" in str(refused.value)


def test_map_refuses_a_sidecar_span_that_overflows(tmp_path):
    # each end is finite and in order, but vmax - vmin is inf
    p = tmp_path / "m.pgm"
    io.write_map(p, np.array([[0.5, 1.5]]), np.ones((1, 2), dtype=bool),
                 kind="depth", units="m")
    meta = io.read_json(str(p) + ".json")
    io.write_json_sidecar(p, {**meta, "vmin": -1e308, "vmax": 1e308})
    with pytest.raises(ValueError, match="overflows") as refused:
        io.read_map(p)
    assert "m.pgm.json" in str(refused.value)


# --- refusals name their file ----------------------------------------------


# a P2 raster with too few samples used to be a "truncated graymap header",
# and these refusals named no file
@pytest.mark.parametrize("reader, raw, message", [
    (io.read_pgm, b"P2\n2 2\n10\n1 2 3\n", "truncated graymap raster"),
    (io.read_pgm, b"P5\n2", "truncated graymap header"),
    (io.read_pgm, b"P5\nx 1\n255\n\0", "invalid literal"),
    (io.read_pgm, b"P5\n1 1\n2x5\n\0", "invalid literal"),
    (io.read_pgm, b"P5\n0 1\n255\n", "bad graymap dimensions"),
    (io.read_pgm, b"P2\n1 1\n10\n11\n", "sample exceeds stated maxval"),
    (io.read_pfm, b"Pf\n1", "truncated float map header"),
    (io.read_pfm, b"Pf\n1 1\nabc\n\0\0\0\0", "could not convert"),
])
def test_raster_refusals_name_their_file(tmp_path, reader, raw, message):
    p = tmp_path / "damaged.img"
    p.write_bytes(raw)
    with pytest.raises(ValueError, match=message) as refused:
        reader(p)
    assert str(p) in str(refused.value)


def test_check_fields_kinds():
    fields = {"n": "integer", "x": "number", "s": "string", "o": "object",
              "a": "number or null", "l": ["integer"]}
    ok = {"n": 3.0, "x": 1, "s": "", "o": {}, "a": None, "l": [1, 2.0]}
    checked = io.check_fields(ok, "doc", fields)
    assert checked == {**ok, "n": 3, "l": [1, 2]}
    assert type(checked["n"]) is int and type(checked["x"]) is int
    assert ok["n"] == 3.0  # the input is left as it was
    for key, bad in (("n", 1.5), ("n", True), ("x", False), ("x", float("nan")),
                     ("x", 10**400), ("x", "1"), ("s", 1), ("o", []), ("a", True),
                     ("l", 1), ("l", [1, "2"])):
        with pytest.raises(ValueError, match=rf"^doc: {key}\b"):
            io.check_fields({**ok, key: bad}, "doc", fields)
    with pytest.raises(ValueError, match="^doc: missing keys a, n$"):
        io.check_fields({"x": 1.0}, "doc", {"n": "integer", "a": "number"},
                        {"x": "number"})
    with pytest.raises(ValueError, match="^doc: unknown keys y$"):
        io.check_fields({"y": 1}, "doc", {}, {"x": "number"})
    with pytest.raises(ValueError, match="^doc: expected a JSON object"):
        io.check_fields([], "doc", {})


# One small valid file of each kind the readers load, its loader and the JSON
# document that describes it. Names are unusual so that a message naming the
# file can be told from one that does not.
READERS = ("cube", "volume", "map", "scene")
BAD_VALUES = (None, "1", [1.0], {"v": 1}, True, math.inf)
INTEGER_KEYS = {"seed", "n", "n_bins", "invalid", "height", "width"}


def valid_file(kind, directory):
    """(path, loader, JSON document) for a valid file of kind in directory."""
    directory = Path(directory)
    rng = np.random.default_rng(5)
    if kind == "cube":
        path = directory / "damaged.sph1"
        config = ScanConfig(n=1, bin_width=1.6e-9, n_bins=8, sbr_window=12e-9)
        save_cube(HistogramCube(rng.integers(0, 9, (2, 3, 8)), config, 0.25, 7, 1.5),
                  path)
        return path, load_cube, Path(f"{path}.json")
    if kind == "volume":
        path = directory / "damaged.spr1"
        save_volume(RDVolume(rng.random((2, 3, 4)), bin_width=1.6e-9, t0=2e-9), path)
        return path, load_volume, Path(f"{path}.json")
    if kind == "map":
        path = directory / "damaged.pgm"
        io.write_map(path, rng.random((2, 3)), rng.random((2, 3)) > 0.3,
                     kind="depth", units="m")
        return path, io.read_map, Path(f"{path}.json")
    path = directory / "damaged-scene"
    depth = np.float64(np.float32(rng.uniform(2.0, 6.0, (3, 4))))
    save_scene(Scene(reflectivity=np.full((3, 4), 0.5), depth=depth), path)
    return path, load_scene_dir, path / "meta.json"


def key_paths(obj, prefix=()):
    """The key path of every value in a JSON object, nested objects too."""
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


def damage_key(doc, keys, value=None, drop=False):
    """Replace, or drop, the value at key path keys in a JSON file."""
    obj = json.loads(doc.read_text())
    parent = obj
    for key in keys[:-1]:
        parent = parent[key]
    if drop:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = value
    doc.write_text(json.dumps(obj))


def assert_refused_by_name(load, path, *words):
    with pytest.raises(ValueError) as refused:
        load(path)
    message = str(refused.value)
    assert path.name in message, message
    for word in words:  # as a word of the message, its paths left out
        assert re.search(rf"\b{re.escape(word)}\b",
                         message.replace(str(path.parent), "")), message


@pytest.mark.parametrize("kind", READERS)
def test_a_mistyped_missing_or_unknown_key_is_refused_by_file_and_key(tmp_path,
                                                                      kind):
    # null, strings, lists, objects, bools and Infinity used to raise
    # TypeError, KeyError or OverflowError naming neither; a seed of 1.5, a
    # string number ("1" as a background or a scene height), an unknown key
    # and a volume without t0 (read as 0, which shifts every depth) used to
    # load
    path, load, doc = valid_file(kind, tmp_path)
    good = doc.read_text()
    load(path)
    for keys in key_paths(json.loads(good)):
        values = BAD_VALUES + ((1.5,) if keys[-1] in INTEGER_KEYS else ())
        for value in values:
            # of the right kind: alpha may be null, kind and units are strings
            if (keys[-1], value) in (("alpha", None), ("kind", "1"), ("units", "1")):
                continue
            damage_key(doc, keys, value)
            assert_refused_by_name(load, path, keys[-1])
            doc.write_text(good)
        damage_key(doc, keys, drop=True)
        assert_refused_by_name(load, path, "missing", keys[-1])
        doc.write_text(good)
    damage_key(doc, ("unused",), 1.0)
    assert_refused_by_name(load, path, "unknown", "unused")
    for not_an_object in ([], None, 3, "x"):
        doc.write_text(json.dumps(not_an_object))
        assert_refused_by_name(load, path)


def test_a_nan_raster_or_a_range_beyond_float32_is_refused_by_name(tmp_path):
    # a signalling NaN used to raise a RuntimeWarning from the float64 cast,
    # and a meta.json end beyond float32 one from its float32 cast
    snan = np.array([0x7F800001], dtype="<u4").tobytes()
    for kind in ("volume", "scene"):
        path, load, _ = valid_file(kind, tmp_path)
        raster = path if kind == "volume" else path / "depth.pfm"
        raster.write_bytes(raster.read_bytes()[:-4] + snan)
        assert_refused_by_name(load, path)
    path, load, doc = valid_file("scene", tmp_path / "range")
    damage_key(doc, ("d_max",), 4e45)
    assert_refused_by_name(load, path)
