"""File format round-trips and hand-decoded reference bytes."""

import numpy as np
import pytest

from splidar import io


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
    with pytest.raises(ValueError, match="span"):
        io.read_map(p)
