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


def test_sha256_file(tmp_path):
    p = tmp_path / "x.bin"
    p.write_bytes(b"abc")
    assert io.sha256_file(p) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )
