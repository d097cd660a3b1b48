"""Metrics and the experiment harness."""

import filecmp
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from splidar import forward
from splidar.baselines import pixelwise_ml
from splidar.evaluate import (
    KNOWN_METHODS,
    RESOLVED_THRESHOLD,
    RESULTS_COLUMNS,
    ExperimentSpec,
    _at_full_depth,
    _signal_window,
    bar_contrast,
    reconstruct_cell,
    resolved_groups,
    rmse,
    run_experiment,
)
from splidar.forward import HistogramCube, ScanConfig, make_kernel, save_cube, simulate
from splidar.io import read_cube, sha256_file
from splidar.scene import (
    SPEED_OF_LIGHT,
    Scene,
    chart_layout,
    load_scene_dir,
    make_resolution_chart,
    save_scene,
)
from splidar.solver import Maps, SolverConfig, extract_depth_reflectivity, spiral_solve

from conftest import EXPERIMENT_SCAN


# --- metrics ------------------------------------------------------------


def test_rmse_hand_value():
    est = np.array([[1.0, 2.0], [3.0, 4.0]])
    tru = np.zeros((2, 2))
    mask = np.array([[True, True], [False, False]])
    assert rmse(est, tru, mask) == pytest.approx(np.sqrt(2.5))
    assert rmse(est, tru, mask) == rmse(tru, est, mask)


def test_rmse_constant_offset():
    rng = np.random.default_rng(0)
    x = rng.random((5, 5))
    mask = np.ones((5, 5), dtype=bool)
    assert rmse(x + 0.37, x, mask) == pytest.approx(0.37)


def test_rmse_errors():
    x = np.zeros((3, 3))
    with pytest.raises(ValueError):
        rmse(x, x, np.zeros((3, 3), dtype=bool))
    with pytest.raises(ValueError):
        rmse(x, np.zeros((2, 2)), np.ones((3, 3), dtype=bool))


def test_bar_contrast_perfect_chart():
    scene = make_resolution_chart()
    groups = chart_layout()
    contrasts = bar_contrast(scene.reflectivity, groups)
    np.testing.assert_allclose(contrasts, 1.0)
    assert resolved_groups(contrasts) == len(groups)


def test_bar_contrast_uniform_map_is_zero():
    groups = chart_layout()
    contrasts = bar_contrast(np.full((120, 128), 0.5), groups)
    np.testing.assert_allclose(contrasts, 0.0)
    assert resolved_groups(contrasts) == 0


def test_bar_contrast_hand_value_and_clamp():
    groups = chart_layout()
    arr = np.zeros((120, 128))
    arr[groups[0].bar_mask] = 0.8
    arr[groups[0].space_mask] = 0.2
    c = bar_contrast(arr, groups)
    assert c[0] == pytest.approx(0.6)
    # inverted pattern clamps to zero rather than going negative
    arr2 = np.zeros((120, 128))
    arr2[groups[0].bar_mask] = 0.2
    arr2[groups[0].space_mask] = 0.8
    assert bar_contrast(arr2, groups)[0] == 0.0


def test_bar_contrast_blur_orders_groups():
    from scipy import ndimage

    scene = make_resolution_chart()
    blurred = ndimage.gaussian_filter(scene.reflectivity, sigma=2.0)
    c = bar_contrast(blurred, chart_layout())
    assert c[0] > c[-1]
    assert c[0] > RESOLVED_THRESHOLD > c[-1]


def test_bar_contrast_shape_mismatch():
    with pytest.raises(ValueError):
        bar_contrast(np.zeros((10, 10)), chart_layout())


def test_every_method_runs_far_below_one_photon_per_pixel():
    scene = Scene(reflectivity=np.full((8, 8), 0.8),
                  depth=np.tile(np.repeat([2.0, 3.2], 4), (8, 1)))
    cfg = ScanConfig(n=1, jitter_fwhm=1e-9, bin_width=1.6e-9, n_bins=64)
    cube = simulate(scene, cfg, 0.02, 0.2, seed=2)
    assert cube.counts.sum() == 10
    for method in KNOWN_METHODS:
        maps, _, _, _ = reconstruct_cell(cube, method, SolverConfig())
        assert maps.valid.any()
        assert np.isfinite(maps.depth[maps.valid]).all()


def test_readme_python_api_runs(capsys):
    # the documented API, run as written: the section's python blocks in
    # order, in one namespace
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out.startswith("[10, 17] ")


# --- range gate -----------------------------------------------------------


def test_gate_spanning_every_bin_keeps_todays_bytes():
    # one depth per bin, four pixels each: every bin holds signal
    cfg = ScanConfig(n=1, jitter_fwhm=1e-9, bin_width=1.6e-9, n_bins=16,
                     sbr_window=25e-9, t0=3.1e-9)
    k = (np.arange(64) % 16).reshape(8, 8)
    depth = (cfg.t0 + k * cfg.bin_width) * (SPEED_OF_LIGHT / 2.0)
    cube = simulate(Scene(reflectivity=np.full((8, 8), 0.8), depth=depth),
                    cfg, 20.0, 2.0, seed=4)
    kernel = make_kernel(cfg)
    r = kernel.temporal.size // 2
    b = cube.background_per_bin
    assert _signal_window(cube.counts, b, r) == (0, 16)
    solver = SolverConfig(beta=0.05, max_iters=4)
    # reconstruct_cell's methods as they were before the gate, on the whole
    # histogram; noscan read every 2nd scan position. Their maps read at bin
    # width 1 and t0 0, and go to the cube's depth scale as the gate's do
    volume, report = spiral_solve(cube.counts, kernel, b, solver)
    noscan = pixelwise_ml(cube.counts[::2, ::2], kernel, b, window_half=r)
    ungated = {
        "ml": (pixelwise_ml(cube.counts, kernel, b, window_half=r), None, None),
        "noscan": (_repeat_maps(noscan, 2), None, None),
        "deconv3d": (extract_depth_reflectivity(volume, window_half=r), report, volume),
    }
    for method, (maps, report, volume) in ungated.items():
        maps = _at_full_depth(maps, 0, cfg)
        got, got_report, got_volume, settings = reconstruct_cell(cube, method, solver)
        assert settings["window"] == [0, 16]
        for field in ("depth", "reflectivity", "valid"):
            assert getattr(got, field).tobytes() == getattr(maps, field).tobytes()
        if method == "deconv3d":
            assert got_report.to_dict() == report.to_dict()
            assert got_volume.data.tobytes() == volume.data.tobytes()
            assert (got_volume.bin_width, got_volume.t0) == (cfg.bin_width, cfg.t0)


def _repeat_maps(maps, factor):
    """Each map pixel as a factor x factor block."""
    def up(arr):
        return np.repeat(np.repeat(arr, factor, axis=0), factor, axis=1)

    return Maps(depth=up(maps.depth), reflectivity=up(maps.reflectivity),
                valid=up(maps.valid))


def test_gated_noscan_keeps_the_bytes_of_the_coarsened_gated_cube():
    # the experiment chart's seed-0 cube, whose window cuts bins at both ends
    chart = make_resolution_chart(d_fg=3.0, d_bg=5.4, r_bg=0.0)
    cube = simulate(chart, EXPERIMENT_SCAN, 10.0, 0.2, seed=0)
    kernel = make_kernel(EXPERIMENT_SCAN)
    r = kernel.temporal.size // 2
    got, _, _, settings = reconstruct_cell(cube, "noscan", SolverConfig())
    lo, hi = settings["window"]
    assert (lo, hi) == (10, 17) and settings["factor"] == 8
    coarse = pixelwise_ml(cube.counts[::8, ::8, lo:hi], kernel,
                          cube.background_per_bin, window_half=r)
    expected = _at_full_depth(_repeat_maps(coarse, 8), lo, EXPERIMENT_SCAN)
    for field in ("depth", "reflectivity", "valid"):
        assert getattr(got, field).tobytes() == getattr(expected, field).tobytes()


def test_gate_keeps_both_surfaces_of_the_chart():
    chart = make_resolution_chart(r_bg=0.3)  # bars at 3.0 m, background at 5.4 m
    cube = simulate(chart, EXPERIMENT_SCAN, 10.0, 0.2, seed=0)
    r = make_kernel(EXPERIMENT_SCAN).temporal.size // 2
    lo, hi = _signal_window(cube.counts, cube.background_per_bin, r)
    half_bin = EXPERIMENT_SCAN.bin_width * SPEED_OF_LIGHT / 2.0
    for d in (3.0, 5.4):
        k = int(np.rint(d / half_bin))
        assert lo <= k - r and k + r < hi, (d, k, lo, hi)
    assert hi - lo < EXPERIMENT_SCAN.n_bins


def test_gate_keeps_every_count_at_zero_background():
    # criterion 8's noiseless cube: one spike per pixel, b = 0
    rng = np.random.default_rng(0)
    truth = np.zeros((12, 12, 24))
    for i in range(12):
        for j in range(12):
            truth[i, j, rng.integers(0, 24)] = 1000.0 * (0.3 + 0.7 * rng.random())
    sparse = np.zeros((3, 3, 40), dtype=np.int64)
    sparse[0, 1, 9], sparse[2, 2, 23] = 1, 2
    for counts in (truth, sparse):
        held = np.flatnonzero(counts.sum(axis=(0, 1)))
        for r in (0, 1, 3):
            lo, hi = _signal_window(counts, 0.0, r)
            assert lo <= held.min() and held.max() < hi
    assert _signal_window(sparse, 0.0, 1) == (6, 27)


def test_gate_background_only_cube_gets_whole_window():
    cfg = ScanConfig(n=1, jitter_fwhm=1e-9, bin_width=1.6e-9, n_bins=64)
    b = 0.4
    counts = np.random.default_rng(3).poisson(b, size=(32, 32, 64))
    cube = HistogramCube(counts=counts, config=cfg, background_per_bin=b, rng_seed=3)
    for method in ("ml", "noscan"):
        _, _, _, settings = reconstruct_cell(cube, method, SolverConfig())
        assert settings["window"] == [0, 64]
    empty = np.zeros((4, 4, 16), dtype=np.int64)
    assert _signal_window(empty, 0.0, 1) == (0, 16)


def test_results_columns_frozen():
    assert RESULTS_COLUMNS == (
        "method",
        "ppp",
        "seed",
        "rmse_m",
        "rmse_bins",
        "contrasts",
        "iterations",
        "window",
        "status",
    )


# --- experiment spec ----------------------------------------------------


def small_scan():
    return dict(n=1, jitter_fwhm=1e-9, bin_width=1.6e-9, n_bins=16,
                sbr_window=25e-9)


def test_spec_validation():
    ok = dict(
        scene={"kind": "chart"},
        scan=ScanConfig(**small_scan()),
        ppp=(2.0,),
        sbr=1.0,
        seeds=(0,),
        methods=("ml",),
    )
    ExperimentSpec(**ok)
    for key, bad in (
        ("scene", {"kind": "nope"}),
        ("scene", {"kind": ["chart"]}),
        ("scene", "chart"),
        ("scene", {"d_fg": 3.0}),
        ("scene", {"kind": "dir"}),  # missing path
        ("scene", {"kind": "dir", "path": ""}),
        ("scene", {"kind": "dir", "path": "scene", "d_fg": 3.0}),
        ("scene", {"kind": "chart", "path": "scene"}),
        ("scene", {"kind": "chart", "r_bg": "0"}),
        ("methods", ("cnn",)),
        ("methods", ("ml", "ml")),
        ("seeds", (1, 1)),
        ("ppp", ()),
        ("ppp", (10, 10.0)),
        # distinct floats, one cell name: ppp1 (%.10g)
        ("ppp", (1.0, 1.00000000001)),
        ("sbr", 0.0),
    ):
        with pytest.raises(ValueError):
            ExperimentSpec(**{**ok, key: bad})
    # ppp values apart at 10 significant digits name different cells
    assert ExperimentSpec(**{**ok, "ppp": (1.0, 1.000000001)}).ppp == (1.0, 1.000000001)


def test_spec_refuses_wrong_kinds():
    ok = dict(scene={"kind": "chart"}, scan=ScanConfig(**small_scan()), ppp=(2.0,),
              sbr=1.0, seeds=(0,), methods=("ml",))
    for key, bad, where in (("seeds", (1.5,), "seeds[0]"), ("ppp", ("2",), "ppp[0]"),
                            ("sbr", True, "sbr"), ("methods", (1,), "methods[0]"),
                            ("scan", small_scan(), "scan"), ("scan", SolverConfig(), "scan"),
                            ("solver", {"beta": 0.1}, "solver"), ("solver", None, "solver")):
        with pytest.raises(ValueError, match=rf"^spec: {re.escape(where)} must be"):
            ExperimentSpec(**{**ok, key: bad})
    spec = ExperimentSpec(**{**ok, "ppp": [np.float64(2), 1], "seeds": [np.int64(3)]})
    assert spec.ppp == (2.0, 1.0) and spec.seeds == (3,) and type(spec.seeds[0]) is int


def test_spec_dict_round_trip(tmp_path):
    raw = {
        "scene": {"kind": "chart", "d_fg": 2.5, "d_bg": 4.0},
        "scan": small_scan(),
        "ppp": [1, 4],
        "sbr": 0.5,
        "seeds": [0, 1],
        "methods": ["ml", "deconv3d"],
        "solver": {"beta": 0.05, "max_iters": 7},
    }
    spec = ExperimentSpec.from_dict(raw)
    assert spec.ppp == (1.0, 4.0)
    assert spec.solver.beta == 0.05
    assert spec.scene == {"kind": "chart", "d_fg": 2.5, "d_bg": 4.0}
    d = spec.to_dict()
    assert d["scene"]["d_fg"] == 2.5
    assert d["solver"]["max_iters"] == 7
    spec2 = ExperimentSpec.from_dict(d)
    assert spec2 == spec


def test_spec_scene_is_read_only():
    spec = ExperimentSpec.from_dict({"scene": {"kind": "chart", "d_fg": 2.5},
                                     "scan": small_scan(), "ppp": [1], "sbr": 0.5,
                                     "seeds": [0], "methods": ["ml"]})
    before = json.dumps(spec.to_dict())
    with pytest.raises(TypeError):
        spec.scene["path"] = "x"
    assert json.dumps(spec.to_dict()) == before
    # hashable, on the fields other than the scene, and replace() keeps it
    assert hash(spec) == hash(ExperimentSpec.from_dict(spec.to_dict()))
    assert replace(spec, seeds=(1,)).scene == spec.scene


def test_shipped_specs_parse():
    specs = sorted((Path(__file__).parent.parent / "experiments").glob("*.json"))
    assert specs
    for path in specs:
        raw = json.loads(path.read_text())
        spec = ExperimentSpec.from_dict(raw)
        # the manifest's spec block: it parses back to the same spec, and it
        # gives every key of the file with the file's value
        d = spec.to_dict()
        assert ExperimentSpec.from_dict(d) == spec, path.name
        for key, value in raw.items():
            if isinstance(value, dict):
                assert value.items() <= d[key].items(), (path.name, key)
            else:
                assert d[key] == value, (path.name, key)


def test_spec_to_dict_strips_directories(tmp_path):
    spec = ExperimentSpec(
        scene={"kind": "dir", "path": str(tmp_path / "deep" / "scenedir")},
        scan=ScanConfig(**small_scan()),
        ppp=(1.0,),
        sbr=1.0,
        seeds=(0,),
        methods=("ml",),
    )
    assert spec.to_dict()["scene"]["path"] == "scenedir"
    # a dir spec round-trips through the basename of its path
    assert ExperimentSpec.from_dict(spec.to_dict()) == replace(
        spec, scene={"kind": "dir", "path": "scenedir"})


# --- harness ------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_scene_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("tinyscene") / "scene"
    rng = np.random.default_rng(12)
    h = w = 12
    depth = np.full((h, w), 2.0)
    depth[3:9, 5:11] = 2.72  # 3 bins away at 1.6 ns
    refl = np.clip(rng.random((h, w)) * 0.5 + 0.4, 0.0, 1.0)
    refl = np.rint(refl * 65535) / 65535
    scene = Scene(
        reflectivity=refl, depth=np.float32(depth).astype(np.float64)
    )
    save_scene(scene, root)
    return root


def tiny_spec(tiny_dir, **over):
    base = dict(
        scene={"kind": "dir", "path": str(tiny_dir)},
        scan=ScanConfig(**small_scan()),
        ppp=(8.0,),
        sbr=2.0,
        seeds=(0, 1),
        methods=("ml", "noscan", "deconv3d"),
        solver=__import__("splidar").SolverConfig(beta=0.02, max_iters=3),
    )
    base.update(over)
    return ExperimentSpec(**base)


def test_run_experiment_layout_and_rows(tmp_path, tiny_scene_dir):
    out = tmp_path / "run"
    rows = run_experiment(tiny_spec(tiny_scene_dir), out)
    assert len(rows) == 3 * 1 * 2
    assert {r["method"] for r in rows} == {"ml", "noscan", "deconv3d"}
    assert all(r["status"] == "ok" for r in rows)
    assert all(r["contrasts"] == "" for r in rows)  # not a chart scene
    assert (out / "cubes" / "ppp8_seed0.sph1").exists()
    assert (out / "cubes" / "ppp8_seed1.sph1").exists()
    cell = out / "cells" / "deconv3d_ppp8_seed0"
    for name in ("depth.pgm", "reflectivity.pgm", "report.json", "volume.spr1"):
        assert (cell / name).exists(), name
    # baseline cells carry maps only
    ml_cell = out / "cells" / "ml_ppp8_seed0"
    assert (ml_cell / "depth.pgm").exists()
    assert not (ml_cell / "report.json").exists()
    with open(out / "results.csv") as fh:
        header = fh.readline().strip().split(",")
    assert tuple(header) == RESULTS_COLUMNS
    report = json.loads((cell / "report.json").read_text())
    assert report["iterations"] <= 3
    # iterations column mirrors the report for solver rows, 0 for baselines
    by_method = {(r["method"], r["seed"]): r for r in rows}
    assert by_method[("deconv3d", "0")]["iterations"] == str(report["iterations"])
    assert by_method[("ml", "0")]["iterations"] == "0"
    # every cell of a cube reads the same gated bins; the volume keeps only
    # those, and its t0 is the time of the first
    windows = {(r["seed"], r["window"]) for r in rows}
    assert len(windows) == 2
    lo, hi = (int(v) for v in by_method[("deconv3d", "0")]["window"].split(":"))
    assert 0 <= lo < hi <= 16 and hi - lo < 16
    volume, meta = read_cube(cell / "volume.spr1")
    assert volume.shape == (12, 12, hi - lo)
    assert meta["t0"] == lo * 1.6e-9
    # a cell's seconds in microseconds
    timings = (out / "timings.csv").read_text().splitlines()
    assert timings[0] == "cell,seconds" and len(timings) == 1 + len(rows)
    assert all(re.fullmatch(r"\w+,\d+\.\d{6}", line) for line in timings[1:])


def test_run_experiment_deterministic_reruns(tmp_path, tiny_scene_dir):
    spec = tiny_spec(tiny_scene_dir, seeds=(3,), methods=("ml", "deconv3d"))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_experiment(spec, out_a)
    run_experiment(spec, out_b)
    for rel in (
        "results.csv",
        "cubes/ppp8_seed3.sph1",
        "cells/deconv3d_ppp8_seed3/depth.pgm",
        "cells/deconv3d_ppp8_seed3/volume.spr1",
        "cells/deconv3d_ppp8_seed3/report.json",
    ):
        assert filecmp.cmp(out_a / rel, out_b / rel, shallow=False), rel
    ma = json.loads((out_a / "manifest.json").read_text())
    mb = json.loads((out_b / "manifest.json").read_text())
    assert ma["outputs"] == mb["outputs"]
    assert "timings.csv" not in ma["outputs"]
    assert "manifest.json" not in ma["outputs"]


def test_manifest_hashes_verify(tmp_path, tiny_scene_dir):
    spec = tiny_spec(tiny_scene_dir, seeds=(0,), methods=("ml",))
    out = tmp_path / "run"
    run_experiment(spec, out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"]
    for rel, digest in manifest["outputs"].items():
        assert not rel.startswith("/")
        assert sha256_file(out / rel) == digest


def test_run_experiment_refuses_a_directory_that_holds_files(tmp_path, tiny_scene_dir):
    out = tmp_path / "run"
    out.mkdir()  # an existing empty directory is accepted
    rows = run_experiment(tiny_spec(tiny_scene_dir, methods=("ml", "noscan")), out)
    # one cube at a time, but the rows stay method-major
    assert [(r["method"], r["seed"]) for r in rows] == [
        ("ml", "0"), ("ml", "1"), ("noscan", "0"), ("noscan", "1")]
    written = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    # a second run would list the first run's files in its manifest
    with pytest.raises(ValueError, match=re.escape(f"not empty: {out}")):
        run_experiment(tiny_spec(tiny_scene_dir, seeds=(2,), methods=("ml",)), out)
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == written


def test_run_experiment_draws_every_cube_from_one_flux(tmp_path, tiny_scene_dir,
                                                      monkeypatch):
    # the scene's flux is one convolution per sweep; each cube drawn from it
    # has the bytes that simulate gives for its ppp and seed
    calls = []
    convolve = forward.convolve3d

    def counted(*args, **kwargs):
        calls.append(args)
        return convolve(*args, **kwargs)

    monkeypatch.setattr(forward, "convolve3d", counted)
    spec = tiny_spec(tiny_scene_dir, ppp=(2.0, 8.0), methods=("ml", "noscan"))
    out = tmp_path / "run"
    run_experiment(spec, out)
    assert len(calls) == 1
    monkeypatch.undo()
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert sum(rel.startswith("cubes/") for rel in outputs) == 2 * 2 * 2
    scene, _ = load_scene_dir(tiny_scene_dir)
    for ppp in spec.ppp:
        for seed in spec.seeds:
            name = f"ppp{ppp:g}_seed{seed}.sph1"
            ref = tmp_path / name
            save_cube(simulate(scene, spec.scan, ppp, spec.sbr, seed), ref)
            assert outputs[f"cubes/{name}"] == sha256_file(ref)
            assert outputs[f"cubes/{name}.json"] == sha256_file(f"{ref}.json")


def test_cell_failure_recorded_not_fatal(tmp_path, tiny_scene_dir):
    # 12x12 frames cannot be coarsened by 2n = 8; that cell errors, others run
    spec = tiny_spec(
        tiny_scene_dir, methods=("noscan", "ml"), seeds=(0,),
        scan=ScanConfig(**{**small_scan(), "n": 4}),
    )
    rows = run_experiment(spec, tmp_path / "run")
    status = {r["method"]: r["status"] for r in rows}
    assert status["noscan"].startswith("error:")
    assert status["ml"] == "ok"
    csv_text = (tmp_path / "run" / "results.csv").read_text()
    assert "error:" in csv_text
