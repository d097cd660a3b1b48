"""Metrics and the experiment harness."""

import filecmp
import json
from pathlib import Path

import numpy as np
import pytest

from splidar.evaluate import (
    KNOWN_METHODS,
    RESOLVED_THRESHOLD,
    RESULTS_COLUMNS,
    ExperimentSpec,
    bar_contrast,
    reconstruct_cell,
    resolved_groups,
    rmse,
    run_experiment,
)
from splidar.forward import ScanConfig, simulate
from splidar.io import sha256_file
from splidar.scene import Scene, chart_layout, make_resolution_chart, save_scene
from splidar.solver import SolverConfig


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


def test_results_columns_frozen():
    assert RESULTS_COLUMNS == (
        "method",
        "ppp",
        "seed",
        "rmse_m",
        "rmse_bins",
        "contrasts",
        "iterations",
        "status",
    )


# --- experiment spec ----------------------------------------------------


def small_scan():
    return dict(n=1, jitter_fwhm=1e-9, bin_width=1.6e-9, n_bins=16,
                sbr_window=25e-9)


def test_spec_validation():
    ok = dict(
        scene_kind="chart",
        scan=ScanConfig(**small_scan()),
        ppp=(2.0,),
        sbr=1.0,
        seeds=(0,),
        methods=("ml",),
    )
    ExperimentSpec(**ok)
    with pytest.raises(ValueError):
        ExperimentSpec(**{**ok, "scene_kind": "nope"})
    with pytest.raises(ValueError):
        ExperimentSpec(**{**ok, "scene_kind": "dir"})  # missing path
    with pytest.raises(ValueError):
        ExperimentSpec(**{**ok, "methods": ("cnn",)})
    with pytest.raises(ValueError):
        ExperimentSpec(**{**ok, "seeds": (1, 1)})
    with pytest.raises(ValueError):
        ExperimentSpec(**{**ok, "ppp": ()})
    with pytest.raises(ValueError):
        ExperimentSpec(**{**ok, "sbr": 0.0})


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
    assert spec.chart_args == {"d_fg": 2.5, "d_bg": 4.0}
    d = spec.to_dict()
    assert d["scene"]["d_fg"] == 2.5
    assert d["solver"]["max_iters"] == 7
    spec2 = ExperimentSpec.from_dict(d)
    assert spec2 == spec


def test_shipped_specs_parse():
    specs = sorted((Path(__file__).parent.parent / "experiments").glob("*.json"))
    assert specs
    for path in specs:
        ExperimentSpec.from_dict(json.loads(path.read_text()))


def test_spec_to_dict_strips_directories(tmp_path):
    spec = ExperimentSpec(
        scene_kind="dir",
        scene_path=str(tmp_path / "deep" / "scenedir"),
        scan=ScanConfig(**small_scan()),
        ppp=(1.0,),
        sbr=1.0,
        seeds=(0,),
        methods=("ml",),
    )
    assert spec.to_dict()["scene"]["path"] == "scenedir"


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
        scene_kind="dir",
        scene_path=str(tiny_dir),
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
