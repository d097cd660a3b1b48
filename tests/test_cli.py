"""End-to-end command-line coverage: every subcommand, exit codes, and
byte-level determinism of the artifacts."""

import filecmp
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from splidar.cli import _build_parser, main
from splidar.forward import ScanConfig
from splidar.io import read_map, read_pfm, write_pfm, write_pgm
from splidar.scene import load_scene_dir, make_resolution_chart
from splidar.solver import SolverConfig

from test_solver import _run_python


def read_ppm(path):
    with open(path, "rb") as fh:
        assert fh.readline().strip() == b"P6"
        dims = fh.readline().split()
        w, h = int(dims[0]), int(dims[1])
        assert fh.readline().strip() == b"255"
        raw = fh.read(w * h * 3)
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)


@pytest.fixture(scope="module")
def image_pair(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_inputs")
    rng = np.random.default_rng(21)
    refl = (rng.random((8, 8)) * 200 + 30).astype(np.uint16)
    write_pgm(root / "refl.pgm", refl, maxval=255)
    depth = np.full((8, 8), 1.5, dtype=np.float32)
    depth[2:6, 3:7] = 2.46  # four bins away at 1.6 ns
    write_pfm(root / "depth.pfm", depth)
    return root


@pytest.fixture(scope="module")
def scene_dir(image_pair, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_scene") / "scene"
    rc = main([
        "make-scene", "from-files",
        "--reflectivity", str(image_pair / "refl.pgm"),
        "--depth", str(image_pair / "depth.pfm"),
        "-o", str(out),
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def cube_path(scene_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_cube") / "cube.sph1"
    rc = main([
        "simulate", str(scene_dir), "-o", str(out),
        "--n", "1", "--ppp", "20", "--sbr", "2", "--seed", "3",
        "--bins", "16", "--bin-width", "1.6e-9", "--sbr-window", "25e-9",
    ])
    assert rc == 0
    return out


def test_make_scene_chart(tmp_path):
    out = tmp_path / "chart"
    assert main(["make-scene", "chart", "-o", str(out)]) == 0
    for name in ("reflectivity.pgm", "depth.pfm", "meta.json"):
        assert (out / name).exists()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["height"] == 120 and meta["width"] == 128


def test_make_scene_chart_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["make-scene", "chart", "-o", str(a)])
    main(["make-scene", "chart", "-o", str(b)])
    for name in ("reflectivity.pgm", "depth.pfm", "meta.json"):
        assert filecmp.cmp(a / name, b / name, shallow=False)


def test_make_scene_from_files(scene_dir):
    assert (scene_dir / "meta.json").exists()
    depth = read_pfm(scene_dir / "depth.pfm")
    assert depth.shape == (8, 8)


def test_make_scene_missing_input_is_runtime_error(tmp_path):
    rc = main([
        "make-scene", "from-files",
        "--reflectivity", str(tmp_path / "nope.pgm"),
        "--depth", str(tmp_path / "nope.pfm"),
        "-o", str(tmp_path / "scene"),
    ])
    assert rc == 1


def test_simulate_writes_cube_and_sidecar(cube_path):
    assert cube_path.exists()
    sidecar = json.loads((cube_path.parent / "cube.sph1.json").read_text())
    assert sidecar["config"]["n"] == 1
    assert sidecar["seed"] == 3
    assert sidecar["background_per_bin"] > 0


def test_simulate_rerun_byte_identical(scene_dir, tmp_path):
    args = [
        "simulate", str(scene_dir),
        "--n", "1", "--ppp", "20", "--sbr", "2", "--seed", "3",
        "--bins", "16", "--bin-width", "1.6e-9", "--sbr-window", "25e-9",
    ]
    a, b = tmp_path / "a.sph1", tmp_path / "b.sph1"
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert filecmp.cmp(a, b, shallow=False)
    assert filecmp.cmp(
        tmp_path / "a.sph1.json", tmp_path / "b.sph1.json", shallow=False
    )


@pytest.mark.parametrize("flag", [
    ["--ppp", "nan"], ["--ppp", "-1"], ["--sbr", "inf"], ["--n", "0"], ["--bins", "2"],
], ids=["ppp-nan", "ppp-negative", "sbr-inf", "n-zero", "bins-2"])
def test_simulate_bad_setting_is_usage_error(scene_dir, tmp_path, capsys, flag):
    out = tmp_path / "cube.sph1"
    rc = main([
        "simulate", str(scene_dir), "-o", str(out),
        "--n", "1", "--ppp", "20", "--sbr", "2", "--seed", "3",
        "--bins", "16", "--bin-width", "1.6e-9", "--sbr-window", "25e-9",
    ] + flag)
    assert rc == 2
    assert not out.exists()
    assert "invalid simulate settings" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["ml", "noscan", "deconv3d"])
def test_reconstruct_methods(cube_path, tmp_path, method):
    out = tmp_path / method
    args = ["reconstruct", str(cube_path), "--method", method, "-o", str(out)]
    if method == "deconv3d":
        args += ["--beta", "0.05", "--max-iters", "3"]
    assert main(args) == 0
    for name in ("depth.pgm", "reflectivity.pgm", "reconstruct.json"):
        assert (out / name).exists()
    if method == "deconv3d":
        assert (out / "volume.spr1").exists()
        report = json.loads((out / "report.json").read_text())
        trace = report["objective_trace"]
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        assert report["trial_steps"] >= report["iterations"] == len(trace) - 1
        assert len(report["backtracks"]) == report["iterations"]
        assert sum(report["backtracks"]) == report["trial_steps"] - report["iterations"]
    effective = json.loads((out / "reconstruct.json").read_text())
    assert effective["method"] == method
    lo, hi = effective["window"]
    assert 0 <= lo < hi <= 16
    values, valid, meta = read_map(out / "depth.pgm")
    assert values.shape == (8, 8)
    assert meta["kind"] == "depth"


def test_reconstruct_rerun_byte_identical(cube_path, tmp_path):
    args = [
        "reconstruct", str(cube_path), "--method", "deconv3d",
        "--beta", "0.05", "--max-iters", "3",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    for name in ("depth.pgm", "reflectivity.pgm", "volume.spr1", "report.json"):
        assert filecmp.cmp(a / name, b / name, shallow=False), name


@pytest.mark.parametrize("method", ["ml", "noscan", "deconv3d"])
@pytest.mark.parametrize("flag", [["--beta", "nan"], ["--rel-tol", "inf"]],
                         ids=["beta-nan", "rel-tol-inf"])
def test_reconstruct_bad_setting_is_usage_error(cube_path, tmp_path, capsys,
                                                method, flag):
    out = tmp_path / "out"
    rc = main(["reconstruct", str(cube_path), "--method", method, "-o", str(out)]
              + flag)
    assert rc == 2
    assert not out.exists()  # rejected before any output is written
    capsys.readouterr()


def test_reconstruct_unknown_method_is_usage_error(cube_path, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "reconstruct", str(cube_path), "--method", "cnn",
            "-o", str(tmp_path / "x"),
        ])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["reconstruct", "c.sph1", "--method", "ml", "--window-half", "1"],
    ["reconstruct", "c.sph1", "--method", "noscan", "--factor", "2"],
    ["experiment", "spec.json", "--beta", "0.3"],
], ids=["window-half", "factor", "experiment-beta"])
def test_removed_overrides_are_usage_errors(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["-o", str(tmp_path / "out")])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_defaults_are_the_types_defaults(cube_path, tmp_path):
    scene_dir, cube = tmp_path / "chart", tmp_path / "chart.sph1"
    assert main(["make-scene", "chart", "-o", str(scene_dir)]) == 0
    scene, _ = load_scene_dir(scene_dir)
    chart = make_resolution_chart()
    np.testing.assert_array_equal(scene.reflectivity, chart.reflectivity)
    np.testing.assert_array_equal(scene.depth, chart.depth)
    assert main(["simulate", str(scene_dir), "-o", str(cube), "--ppp", "1"]) == 0
    sidecar = json.loads((tmp_path / "chart.sph1.json").read_text())
    assert sidecar["config"] == ScanConfig().to_dict()
    out = tmp_path / "rec"
    assert main([
        "reconstruct", str(cube_path), "--method", "deconv3d", "-o", str(out),
    ]) == 0
    effective = json.loads((out / "reconstruct.json").read_text())
    assert effective["solver"] == SolverConfig().to_dict()


def test_reconstruct_refuses_a_used_output_directory(cube_path, tmp_path, capsys):
    out = tmp_path / "o"
    out.mkdir()  # an existing empty directory is accepted
    assert main(["reconstruct", str(cube_path), "--method", "deconv3d",
                 "--max-iters", "2", "-o", str(out)]) == 0
    written = {p.name: p.read_bytes() for p in out.iterdir()}
    assert "volume.spr1" in written
    capsys.readouterr()
    # an ml run would leave the deconv3d report and volume next to its maps;
    # it is refused before the cube is read, so a missing cube is refused too
    for cube in (cube_path, tmp_path / "missing.sph1"):
        assert main(["reconstruct", str(cube), "--method", "ml", "-o", str(out)]) == 1
        assert (f"error: output directory is not empty: {out}"
                in capsys.readouterr().err)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == written
    assert main(["reconstruct", str(cube_path), "--method", "ml",
                 "-o", str(tmp_path / "new")]) == 0


def test_reconstruct_missing_cube_is_runtime_error(tmp_path):
    rc = main([
        "reconstruct", str(tmp_path / "missing.sph1"),
        "--method", "ml", "-o", str(tmp_path / "out"),
    ])
    assert rc == 1


def test_render_gray_and_sentinel(tmp_path):
    from splidar.io import write_map

    values = np.array([[0.0, 1.0], [2.0, 3.0]])
    valid = np.array([[True, True], [True, False]])
    write_map(tmp_path / "m.pgm", values, valid, kind="depth", units="m")
    out = tmp_path / "m.ppm"
    assert main(["render", str(tmp_path / "m.pgm"), "-o", str(out)]) == 0
    rgb = read_ppm(out)
    assert tuple(rgb[1, 1]) == (255, 0, 255)  # invalid pixel -> magenta
    assert tuple(rgb[0, 0]) == (0, 0, 0)  # valid min -> black
    assert tuple(rgb[1, 0]) == (255, 255, 255)  # valid max -> white
    # fixed range overrides the automatic normalization
    assert main([
        "render", str(tmp_path / "m.pgm"), "-o", str(out),
        "--depth-range", "0", "4",
    ]) == 0
    rgb = read_ppm(out)
    assert tuple(rgb[1, 0]) == (128, 128, 128)  # 2.0 of [0, 4]
    # a reversed, empty or non-finite range is refused before anything is written
    bad = tmp_path / "bad.ppm"
    for lo, hi in (("5", "1"), ("nan", "nan"), ("2", "2"), ("0", "inf")):
        assert main([
            "render", str(tmp_path / "m.pgm"), "-o", str(bad), "--depth-range", lo, hi,
        ]) == 2
        assert not bad.exists()


def test_main_runs_repeatedly_on_one_parser(cube_path, tmp_path, capsys):
    # the parser is built once per process; each call still parses its own
    # arguments from the defaults up, returns its own exit code and writes
    # its own outputs
    assert _build_parser() is _build_parser()
    out = tmp_path / "maps"
    with pytest.raises(SystemExit) as exc:  # argparse: --method is required
        main(["reconstruct", str(cube_path), "-o", str(out)])
    assert exc.value.code == 2
    assert main(["reconstruct", str(cube_path), "--method", "ml", "--beta", "0.1",
                 "-o", str(out)]) == 2
    assert "--beta apply to --method deconv3d only" in capsys.readouterr().err
    assert not out.exists()
    assert main(["reconstruct", str(cube_path), "--method", "ml", "-o", str(out)]) == 0
    assert json.loads((out / "reconstruct.json").read_text())["method"] == "ml"
    assert not (out / "report.json").exists()
    fire, gray = tmp_path / "fire.ppm", tmp_path / "gray.ppm"
    assert main(["render", str(out / "reflectivity.pgm"), "-o", str(fire),
                 "--colormap", "fire", "--depth-range", "0", "1000"]) == 0
    assert main(["render", str(out / "reflectivity.pgm"), "-o", str(gray)]) == 0
    rgb = read_ppm(gray)  # the defaults again: gray over the valid min/max
    assert (rgb[..., 0] == rgb[..., 1]).all() and rgb.max() == 255
    assert read_ppm(fire).max() < 255  # values far below 1000
    assert main(["render", str(out / "missing.pgm"), "-o", str(tmp_path / "x.ppm")]) == 1


def test_render_fire_colormap_endpoints(tmp_path):
    from splidar.io import write_map

    values = np.array([[0.0, 1.0]])
    valid = np.ones((1, 2), dtype=bool)
    write_map(tmp_path / "m.pgm", values, valid, kind="reflectivity", units="r")
    out = tmp_path / "m.ppm"
    assert main([
        "render", str(tmp_path / "m.pgm"), "-o", str(out),
        "--colormap", "fire",
    ]) == 0
    rgb = read_ppm(out)
    assert tuple(rgb[0, 0]) == (0, 0, 0)
    assert tuple(rgb[0, 1]) == (255, 255, 255)


def test_render_uniform_map(tmp_path):
    from splidar.io import write_map

    values = np.full((2, 2), 5.0)
    write_map(tmp_path / "m.pgm", values, np.ones((2, 2), dtype=bool),
              kind="depth", units="m")
    out = tmp_path / "m.ppm"
    assert main(["render", str(tmp_path / "m.pgm"), "-o", str(out)]) == 0
    rgb = read_ppm(out)
    assert (rgb == 0).all()  # zero span normalizes to zero


def test_render_refuses_a_map_whose_sidecar_span_is_nan(tmp_path, capsys):
    from splidar.io import read_json, write_json_sidecar, write_map

    write_map(tmp_path / "m.pgm", np.array([[1.0, 2.0]]), np.ones((1, 2), dtype=bool),
              kind="depth", units="m")
    meta = read_json(tmp_path / "m.pgm.json")
    write_json_sidecar(tmp_path / "m.pgm", {**meta, "vmin": float("nan")})
    out = tmp_path / "m.ppm"
    assert main(["render", str(tmp_path / "m.pgm"), "-o", str(out)]) == 1
    assert "m.pgm.json: vmin must be a finite number" in capsys.readouterr().err
    assert not out.exists()


def experiment_spec_dict(scene_dir):
    return {
        "scene": {"kind": "dir", "path": str(scene_dir)},
        "scan": {"n": 1, "jitter_fwhm": 1e-9, "bin_width": 1.6e-9,
                 "n_bins": 16, "sbr_window": 25e-9},
        "ppp": [8],
        "sbr": 2.0,
        "seeds": [0],
        "methods": ["ml", "deconv3d"],
        "solver": {"beta": 0.05, "max_iters": 3},
    }


def test_experiment_end_to_end(scene_dir, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(experiment_spec_dict(scene_dir)))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["experiment", str(spec_path), "-o", str(out_a)]) == 0
    assert main(["experiment", str(spec_path), "-o", str(out_b)]) == 0
    assert filecmp.cmp(out_a / "results.csv", out_b / "results.csv",
                       shallow=False)
    ma = json.loads((out_a / "manifest.json").read_text())
    mb = json.loads((out_b / "manifest.json").read_text())
    assert ma["outputs"] == mb["outputs"]
    with open(out_a / "results.csv") as fh:
        lines = fh.read().strip().splitlines()
    assert len(lines) == 3  # header + 2 cells


@pytest.mark.parametrize("method", ["ml", "noscan", "deconv3d"])
def test_reconstruct_matches_experiment_cell(scene_dir, tmp_path, method):
    raw = experiment_spec_dict(scene_dir)
    raw["methods"] = [method]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(raw))
    run = tmp_path / "run"
    assert main(["experiment", str(spec_path), "-o", str(run)]) == 0
    cell = run / "cells" / f"{method}_ppp8_seed0"
    out = tmp_path / "cli"
    command = ["reconstruct", str(run / "cubes" / "ppp8_seed0.sph1"), "-o", str(out),
               "--method", method]
    if method == "deconv3d":
        command += ["--beta", "0.05", "--max-iters", "3"]
    else:  # solver flags would do nothing: a usage error, and no output
        for flags in (["--beta", "0.3"], ["--max-iters", "7"], ["--rel-tol", "0.5"],
                      ["--beta", "0.3", "--max-iters", "7", "--rel-tol", "0.5"]):
            assert main(command + flags) == 2
        assert not out.exists()
    assert main(command) == 0
    names = ["depth.pgm", "depth.pgm.json", "reflectivity.pgm",
             "reflectivity.pgm.json"]
    if method == "deconv3d":
        names += ["report.json", "volume.spr1", "volume.spr1.json"]
    assert sorted(p.name for p in cell.iterdir()) == sorted(names)
    for name in names:
        assert filecmp.cmp(cell / name, out / name, shallow=False), name


def test_experiment_bad_spec_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["experiment", str(bad), "-o", str(tmp_path / "o")]) == 2
    assert main([
        "experiment", str(tmp_path / "missing.json"), "-o", str(tmp_path / "o"),
    ]) == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"scene": {"kind": "chart"}, "ppp": [1]}))
    assert main(["experiment", str(wrong), "-o", str(tmp_path / "o")]) == 2
    stale = tmp_path / "stale.json"  # a solver key that SolverConfig no longer has
    raw = experiment_spec_dict(tmp_path)
    raw["solver"]["step_init"] = 1.0
    stale.write_text(json.dumps(raw))
    assert main(["experiment", str(stale), "-o", str(tmp_path / "o")]) == 2
    for key, value in (("tv_inner_iters", 20), ("max_iters", 2.5)):
        raw = experiment_spec_dict(tmp_path)
        raw["solver"][key] = value
        stale.write_text(json.dumps(raw))
        assert main(["experiment", str(stale), "-o", str(tmp_path / "o")]) == 2
    # removed overrides, misspelled keys at the top and in the scene
    for key, value in (("noscan_factor", 2.5), ("window_half", 1.5),
                       ("sedes", [0])):
        raw = experiment_spec_dict(tmp_path)
        raw[key] = value
        stale.write_text(json.dumps(raw))
        assert main(["experiment", str(stale), "-o", str(tmp_path / "o")]) == 2
    raw = experiment_spec_dict(tmp_path)
    raw["scene"]["pth"] = "scene"
    stale.write_text(json.dumps(raw))
    assert main(["experiment", str(stale), "-o", str(tmp_path / "o")]) == 2
    for value in ("0", True, None, [0.0], float("inf")):  # json writes inf as Infinity
        raw["scene"] = {"kind": "chart", "r_bg": value}
        stale.write_text(json.dumps(raw))
        assert main(["experiment", str(stale), "-o", str(tmp_path / "o")]) == 2
    for key, value in (("n_bins", 64.5), ("t0", float("nan"))):  # simulate cannot use them
        raw = experiment_spec_dict(tmp_path)
        raw["scan"][key] = value
        stale.write_text(json.dumps(raw))
        assert main(["experiment", str(stale), "-o", str(tmp_path / "o")]) == 2
    # a scene key that its kind ignores would land in manifest.json unused
    for scene in ({"kind": "dir", "path": "scene", "d_fg": 9.0},
                  {"kind": "chart", "path": "scene"}):
        raw = experiment_spec_dict(tmp_path)
        raw["scene"] = scene
        stale.write_text(json.dumps(raw))
        assert main(["experiment", str(stale), "-o", str(tmp_path / "o")]) == 2
    # json reads NaN and Infinity; simulate cannot use them
    for key, value in (("ppp", [float("nan")]), ("ppp", [1.0, float("inf")]),
                       ("sbr", float("nan")), ("sbr", float("inf"))):
        raw = experiment_spec_dict(tmp_path)
        raw[key] = value
        stale.write_text(json.dumps(raw))
        assert main(["experiment", str(stale), "-o", str(tmp_path / "o")]) == 2
    # a repeated grid value would write two rows to one cell directory
    for key, value in (("methods", ["ml", "ml"]), ("seeds", [0, 0]),
                       ("ppp", [8, 8.0]), ("ppp", [1.0, 1.00000000001])):
        raw = experiment_spec_dict(tmp_path)
        raw[key] = value
        stale.write_text(json.dumps(raw))
        assert main(["experiment", str(stale), "-o", str(tmp_path / "o")]) == 2
        assert "must be non-empty and distinct" in capsys.readouterr().err
    raw = experiment_spec_dict(tmp_path)
    raw["scene"] = {"kind": "dir", "path": "scène"}  # specs are read as ASCII
    stale.write_text(json.dumps(raw, ensure_ascii=False), encoding="utf-8")
    assert main(["experiment", str(stale), "-o", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    capsys.readouterr()


@pytest.mark.parametrize("section, key, value", [
    (None, "seeds", [1.5]), (None, "seeds", ["3"]), (None, "seeds", [True]),
    (None, "ppp", ["1"]), (None, "ppp", [True]), (None, "sbr", True),
    ("solver", "beta", True), ("scan", "n", True),
])
def test_experiment_refuses_a_spec_value_of_the_wrong_kind(tmp_path, capsys, section,
                                                           key, value):
    # these used to run: seeds [1.5] as seed 1, ppp ["1"] as 1.0, beta true
    # as 1.0, and sbr true was stored as a bool
    raw = experiment_spec_dict(tmp_path)
    (raw if section is None else raw[section])[key] = value
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(raw))
    out = tmp_path / "o"
    assert main(["experiment", str(spec_path), "-o", str(out)]) == 2
    assert not out.exists()
    assert re.search(rf"\b{key}(\[0\])? must be", capsys.readouterr().err)


def test_experiment_without_scene_leaves_no_output(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(experiment_spec_dict(tmp_path / "no-scene")))
    out = tmp_path / "o"
    assert main(["experiment", str(spec_path), "-o", str(out)]) == 1
    assert "meta.json" in capsys.readouterr().err
    assert not (out / "cubes").exists() and not (out / "cells").exists()


def test_experiment_failing_cell_returns_runtime_error(scene_dir, tmp_path):
    raw = experiment_spec_dict(scene_dir)
    raw["methods"] = ["noscan"]
    raw["scan"]["n"] = 3  # 2n = 6 does not divide the 8x8 frame
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(raw))
    assert main(["experiment", str(spec_path), "-o", str(tmp_path / "o")]) == 1


def test_experiment_refuses_a_used_output_directory(scene_dir, tmp_path, capsys):
    raw = experiment_spec_dict(scene_dir)
    raw["methods"] = ["ml"]
    spec_path, out = tmp_path / "spec.json", tmp_path / "o"
    spec_path.write_text(json.dumps(raw))
    assert main(["experiment", str(spec_path), "-o", str(out)]) == 0
    raw["seeds"] = [1]
    spec_path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert main(["experiment", str(spec_path), "-o", str(out)]) == 1
    assert f"error: experiment directory is not empty: {out}" in capsys.readouterr().err
    assert not (out / "cells" / "ml_ppp8_seed1").exists()
    assert not (out / "cubes" / "ppp8_seed1.sph1").exists()


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone
    loaded = _run_python("import sys, splidar, splidar.cli; print(sorted("
                         "m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert loaded.strip() == "[]"


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    # the README's Quick start block as written, each command through
    # cli.main in a fresh working directory
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"^```sh\n(.*?)^```$", section, re.S | re.M)
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    assert lines[-1].startswith("splidar render")
    monkeypatch.chdir(tmp_path)
    for line in lines:
        program, *argv = shlex.split(line)
        assert program == "splidar", line
        assert main(argv) == 0, line
    assert (tmp_path / "depth.ppm").stat().st_size > 0
    capsys.readouterr()
