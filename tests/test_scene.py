"""Chart geometry, scene ingestion, and the spike-volume conversion."""

import json

import numpy as np
import pytest

from splidar import io
from splidar.scene import (
    CHART_BAR_WIDTHS,
    SPEED_OF_LIGHT,
    RDVolume,
    Scene,
    chart_layout,
    load_scene,
    load_scene_dir,
    make_resolution_chart,
    save_scene,
    scene_to_rd,
)
from splidar.solver import extract_depth_reflectivity, load_volume, save_volume


def test_chart_shape_and_determinism():
    a = make_resolution_chart()
    b = make_resolution_chart()
    assert a.reflectivity.shape == (120, 128)
    np.testing.assert_array_equal(a.reflectivity, b.reflectivity)
    np.testing.assert_array_equal(a.depth, b.depth)


def test_chart_bar_pixel_count_oracle():
    # independent count from the layout rule: per group, 3 bars of w x 5w
    expected = sum(3 * w * 5 * w for w in CHART_BAR_WIDTHS)
    assert expected == 1365
    scene = make_resolution_chart()
    assert int(scene.reflectivity.sum()) == expected
    assert int((scene.reflectivity == 1.0).sum()) == expected


def test_chart_bar_widths_largest_and_smallest():
    groups = chart_layout()
    assert groups[0].width == 6
    assert groups[-1].width == 1
    for g in groups:
        # three bars of width w separated by spaces of width w
        cols = np.flatnonzero(g.bar_mask.any(axis=0))
        runs = np.split(cols, np.flatnonzero(np.diff(cols) > 1) + 1)
        assert len(runs) == 3
        assert all(len(r) == g.width for r in runs)
        assert not (g.bar_mask & g.space_mask).any()


def test_chart_depths_and_background():
    scene = make_resolution_chart(d_fg=3.0, d_bg=5.4, r_bg=0.25)
    bars = scene.reflectivity == 1.0
    assert np.all(scene.depth[bars] == 3.0)
    assert np.all(scene.depth[~bars] == 5.4)
    assert np.all(scene.reflectivity[~bars] == 0.25)


def test_scene_validation():
    with pytest.raises(ValueError):
        Scene(reflectivity=np.ones((2, 2)), depth=np.ones((3, 2)))
    with pytest.raises(ValueError):
        Scene(reflectivity=-np.ones((2, 2)), depth=np.ones((2, 2)))
    for bad in (np.nan, np.inf, -np.inf):
        values = np.ones((2, 2))
        values[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            Scene(reflectivity=values, depth=np.ones((2, 2)))
        with pytest.raises(ValueError, match="finite"):
            Scene(reflectivity=np.ones((2, 2)), depth=values)


def test_scene_to_rd_places_single_spikes():
    refl = np.array([[0.5, 0.0], [1.0, 0.25]])
    c = SPEED_OF_LIGHT
    depth = np.array([[0.0, 1.0], [c * 1e-9 / 2, c * 5e-10 / 2]])
    scene = Scene(reflectivity=refl, depth=depth)
    rd = scene_to_rd(scene, bin_width=1e-10, n_bins=100)
    # depth 0 -> bin 0; 2d/c = 1 ns with 100 ps bins -> bin 10
    assert rd.data[0, 0, 0] == 0.5
    assert rd.data[1, 0, 10] == 1.0
    assert rd.data[1, 1, 5] == 0.25
    per_pixel_nonzeros = (rd.data > 0).sum(axis=2)
    np.testing.assert_array_equal(per_pixel_nonzeros, (refl > 0).astype(int))


def test_scene_to_rd_round_half_up():
    c = SPEED_OF_LIGHT
    # delay exactly 2.5 bins: round half up -> bin 3 (chosen representable)
    depth = np.array([[2.5 * 1.0 * c / 2]])
    scene = Scene(reflectivity=np.ones((1, 1)), depth=depth)
    rd = scene_to_rd(scene, bin_width=1.0, n_bins=8)
    assert rd.data[0, 0, 3] == 1.0


def test_scene_to_rd_window_error_names_pixel():
    scene = Scene(
        reflectivity=np.ones((2, 2)),
        depth=np.array([[1.0, 1.0], [1.0, 100.0]]),
    )
    with pytest.raises(ValueError, match=r"\(1,1\)"):
        scene_to_rd(scene, bin_width=1e-9, n_bins=32)


def test_round_trip_exact_on_bin_aligned_depths():
    rng = np.random.default_rng(5)
    bin_width, n_bins = 2e-10, 64
    k = rng.integers(0, n_bins, size=(4, 4))
    depth = k * bin_width * SPEED_OF_LIGHT / 2
    refl = rng.random((4, 4)) + 0.1
    scene = Scene(reflectivity=refl, depth=depth)
    rd = scene_to_rd(scene, bin_width, n_bins)
    maps = extract_depth_reflectivity(rd, window_half=0)
    np.testing.assert_array_equal(maps.depth, depth)
    np.testing.assert_array_equal(maps.reflectivity, refl)
    assert maps.valid.all()


def test_round_trip_within_half_bin_on_generic_depths():
    rng = np.random.default_rng(6)
    bin_width, n_bins = 2e-10, 64
    depth = rng.uniform(0, (n_bins - 1) * bin_width * SPEED_OF_LIGHT / 2, (5, 5))
    scene = Scene(reflectivity=np.ones((5, 5)), depth=depth)
    rd = scene_to_rd(scene, bin_width, n_bins)
    maps = extract_depth_reflectivity(rd, window_half=0)
    half_bin_m = bin_width * SPEED_OF_LIGHT / 4
    assert np.abs(maps.depth - depth).max() <= half_bin_m + 1e-12


def test_load_scene_normalizes_reflectivity(tmp_path):
    io.write_pgm(tmp_path / "r.pgm", np.array([[32768, 65535]]), maxval=65535)
    io.write_pfm(tmp_path / "d.pfm", np.array([[1.0, 2.0]], dtype=np.float32))
    scene = load_scene(tmp_path / "r.pgm", tmp_path / "d.pfm")
    assert scene.reflectivity[0, 0] == pytest.approx(32768 / 65535)
    assert scene.reflectivity[0, 1] == 1.0
    np.testing.assert_array_equal(scene.depth, [[1.0, 2.0]])


def test_load_scene_constant_white_is_all_ones(tmp_path):
    io.write_pgm(tmp_path / "r.pgm", np.full((3, 3), 255), maxval=255)
    io.write_pfm(tmp_path / "d.pfm", np.ones((3, 3), dtype=np.float32))
    scene = load_scene(tmp_path / "r.pgm", tmp_path / "d.pfm")
    assert np.all(scene.reflectivity == 1.0)


def test_load_scene_graymap_depth_affine(tmp_path):
    io.write_pgm(tmp_path / "r.pgm", np.array([[255, 255]]), maxval=255)
    io.write_pgm(tmp_path / "d.pgm", np.array([[0, 255]]), maxval=255)
    scene = load_scene(tmp_path / "r.pgm", tmp_path / "d.pgm", d_min=2.0, d_max=6.0)
    np.testing.assert_allclose(scene.depth, [[2.0, 6.0]])
    with pytest.raises(ValueError):
        load_scene(tmp_path / "r.pgm", tmp_path / "d.pgm")  # range required


def test_load_scene_errors(tmp_path):
    io.write_pgm(tmp_path / "r.pgm", np.array([[1, 2]]), maxval=255)
    io.write_pfm(tmp_path / "d.pfm", np.ones((3, 3), dtype=np.float32))
    with pytest.raises(ValueError, match="mismatch"):
        load_scene(tmp_path / "r.pgm", tmp_path / "d.pfm")
    io.write_pfm(tmp_path / "neg.pfm", -np.ones((1, 2), dtype=np.float32))
    with pytest.raises(ValueError, match="negative"):
        load_scene(tmp_path / "r.pgm", tmp_path / "neg.pfm")
    (tmp_path / "x.bin").write_bytes(b"XYZW")
    with pytest.raises(ValueError, match="unsupported"):
        load_scene(tmp_path / "x.bin", tmp_path / "d.pfm")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 1.5])
def test_load_scene_refuses_a_float_reflectivity_outside_0_1_by_file(tmp_path, bad):
    io.write_pfm(tmp_path / "d.pfm", np.ones((1, 2), dtype=np.float32))
    io.write_pfm(tmp_path / "r.pfm", np.array([[0.5, bad]], dtype=np.float32))
    with pytest.raises(ValueError, match=r"finite and lie in \[0, 1\]") as refused:
        load_scene(tmp_path / "r.pfm", tmp_path / "d.pfm")
    assert "r.pfm" in str(refused.value)


def test_scene_dir_round_trip(tmp_path):
    scene = make_resolution_chart()
    save_scene(scene, tmp_path / "s")
    back, meta = load_scene_dir(tmp_path / "s")
    np.testing.assert_array_equal(back.reflectivity, scene.reflectivity)
    np.testing.assert_array_equal(back.depth, scene.depth)
    assert meta["d_min"] == 3.0 and meta["d_max"] == 5.4
    # binning is not ground truth: a scene that carries it is refused
    (tmp_path / "s" / "meta.json").write_text(json.dumps({**meta, "bin_width": 4e-10}))
    with pytest.raises(ValueError, match="bin_width"):
        load_scene_dir(tmp_path / "s")
    # a sidecar that disagrees with its rasters is refused, naming both shapes
    (tmp_path / "s" / "meta.json").write_text(json.dumps({**meta, "height": 7, "width": 9}))
    with pytest.raises(ValueError, match="7x9.*120x128"):
        load_scene_dir(tmp_path / "s")
    # so is a depth range other than the raster's, which would rescale every
    # depth
    (tmp_path / "s" / "meta.json").write_text(json.dumps({**meta, "d_max": 60.0}))
    with pytest.raises(ValueError, match="60.0 m.*depth.pfm holds 3.0..5.4"):
        load_scene_dir(tmp_path / "s")


def test_scene_dir_round_trip_keeps_float32_depths(tmp_path):
    # depths that float32 holds exactly come back as saved; the affine map
    # onto meta.json's range put 117 of these 3200 pixels 1 ulp off
    for k in range(50):
        rng = np.random.default_rng(k)
        depth = np.float64(np.float32(rng.uniform(1.0, 10.0, (8, 8))))
        scene = Scene(reflectivity=np.full((8, 8), 0.5), depth=depth)
        save_scene(scene, tmp_path / f"s{k}")
        back, _ = load_scene_dir(tmp_path / f"s{k}")
        assert back.depth.tobytes() == depth.tobytes()


def test_rdvolume_validation(tmp_path):
    with pytest.raises(ValueError):
        RDVolume(data=-np.ones((2, 2, 2)), bin_width=1e-9)
    for bad in (np.nan, np.inf):
        data = np.ones((1, 1, 2))
        data[0, 0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            RDVolume(data=data, bin_width=1e-9)
        with pytest.raises(ValueError, match="bin_width"):
            RDVolume(data=np.ones((1, 1, 2)), bin_width=bad)
        with pytest.raises(ValueError, match="t0"):
            RDVolume(data=np.ones((1, 1, 2)), bin_width=1e-9, t0=bad)
    with pytest.raises(ValueError):
        RDVolume(data=np.ones((2, 2)), bin_width=1e-9)
    # so is a volume file whose sidecar says NaN, which would give NaN depths
    save_volume(RDVolume(data=np.ones((1, 1, 2)), bin_width=1e-9), tmp_path / "v.spr1")
    for key in ("bin_width", "t0"):
        io.write_json(tmp_path / "v.spr1.json", {"bin_width": 1e-9, "t0": 0.0, key: np.nan})
        with pytest.raises(ValueError, match=key):
            load_volume(tmp_path / "v.spr1")
