"""Command-line pipeline: scene generation, simulation, reconstruction,
rendering, and experiment sweeps.

Exit codes: 0 success, 1 runtime failure, 2 usage or validation error. Every
command writes byte-identical outputs when rerun with identical inputs and
flags; effective configurations are echoed into JSON sidecars next to the
outputs they describe.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import io
from .evaluate import (
    KNOWN_METHODS,
    ExperimentSpec,
    reconstruct_cell,
    run_experiment,
    save_cell_outputs,
)
from .forward import ScanConfig, load_cube, save_cube, simulate
from .scene import load_scene, load_scene_dir, make_resolution_chart, save_scene
from .solver import SolverConfig

USAGE_ERROR = 2
RUNTIME_ERROR = 1


class _UsageError(Exception):
    pass


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="splidar",
        description="Sub-pixel-scanned single-photon lidar: simulate photon-"
        "count cubes and reconstruct super-resolved depth/reflectivity maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-scene", help="generate or ingest a ground-truth scene")
    kinds = p.add_subparsers(dest="kind", required=True)
    chart = kinds.add_parser("chart", help="120x128 three-bar resolution target")
    chart.add_argument("-o", "--out", required=True, help="output scene directory")
    chart.add_argument("--d-fg", type=float, help="bar depth (m)")
    chart.add_argument("--d-bg", type=float, help="background depth (m)")
    chart.add_argument("--r-bg", type=float, help="background reflectivity")
    chart.set_defaults(func=_cmd_make_scene_chart)
    files = kinds.add_parser("from-files", help="build a scene from image files")
    files.add_argument("-o", "--out", required=True)
    files.add_argument("--reflectivity", required=True, help="graymap or float map")
    files.add_argument("--depth", required=True, help="graymap or float map")
    files.add_argument("--d-min", type=float, default=None)
    files.add_argument("--d-max", type=float, default=None)
    files.set_defaults(func=_cmd_make_scene_files)

    p = sub.add_parser("simulate", help="sample a photon-count cube from a scene")
    p.add_argument("scene_dir")
    p.add_argument("-o", "--out", required=True, help="output cube file (.sph1)")
    p.add_argument("--n", type=int, help="sub-pixel half-width")
    p.add_argument("--ppp", type=float, default=10.0, help="mean signal photons per pixel")
    p.add_argument("--sbr", type=float, default=0.2, help="signal-to-background ratio")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bins", type=int, dest="n_bins", help="time bins")
    p.add_argument("--bin-width", type=float, help="seconds")
    p.add_argument("--jitter", type=float, dest="jitter_fwhm", help="temporal FWHM (s)")
    p.add_argument("--sbr-window", type=float)
    p.add_argument("--rep-period", type=float)
    p.add_argument("--t0", type=float, help="seconds")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reconstruct", help="depth/reflectivity maps from a cube")
    p.add_argument("cube")
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.add_argument("--method", required=True, choices=KNOWN_METHODS)
    p.add_argument("--beta", type=float, help="TV weight")
    p.add_argument("--max-iters", type=int)
    p.add_argument("--rel-tol", type=float)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("render", help="render an exported map to a color image")
    p.add_argument("map")
    p.add_argument("-o", "--out", required=True, help="output image (.ppm)")
    p.add_argument("--colormap", choices=["gray", "fire"], default="gray")
    p.add_argument("--depth-range", type=float, nargs=2, default=None,
                   metavar=("LO", "HI"), help="value range (default: valid min/max)")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("experiment", help="run a sweep described by a JSON spec")
    p.add_argument("spec", help="experiment spec (JSON)")
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_experiment)
    return parser


def _given(args, *names):
    """The named flags that were given, so the callee's defaults hold."""
    return {k: getattr(args, k) for k in names if getattr(args, k) is not None}


def _cmd_make_scene_chart(args):
    scene = make_resolution_chart(**_given(args, "d_fg", "d_bg", "r_bg"))
    save_scene(scene, args.out)
    print(f"wrote {scene.height}x{scene.width} scene to {args.out}")
    return 0


def _cmd_make_scene_files(args):
    scene = load_scene(args.reflectivity, args.depth, d_min=args.d_min, d_max=args.d_max)
    save_scene(scene, args.out)
    print(f"wrote {scene.height}x{scene.width} scene to {args.out}")
    return 0


def _cmd_simulate(args):
    scene, _ = load_scene_dir(args.scene_dir)
    try:
        config = ScanConfig(**_given(
            args, "n", "jitter_fwhm", "bin_width", "n_bins", "rep_period", "sbr_window", "t0"
        ))
        cube = simulate(scene, config, args.ppp, args.sbr, args.seed)
    except ValueError as exc:
        raise _UsageError(f"invalid simulate settings: {exc}")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    save_cube(cube, args.out)
    print(f"wrote {cube.shape[0]}x{cube.shape[1]}x{cube.shape[2]} cube to {args.out}")
    return 0


def _cmd_reconstruct(args):
    given = _given(args, "beta", "max_iters", "rel_tol")
    if given and args.method != "deconv3d":
        flags = ", ".join("--" + k.replace("_", "-") for k in given)
        raise _UsageError(f"{flags} apply to --method deconv3d only")
    try:
        solver = SolverConfig(**given)
    except ValueError as exc:
        raise _UsageError(f"invalid solver settings: {exc}")
    cube = load_cube(args.cube)
    maps, report, volume, settings = reconstruct_cell(cube, args.method, solver)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_cell_outputs(out, maps, report, volume)
    effective = {"method": args.method, "cube": Path(args.cube).name, **settings}
    io.write_json(out / "reconstruct.json", effective)
    print(f"wrote maps to {out}")
    return 0


_SENTINEL_RGB = (255, 0, 255)  # invalid pixels render magenta


def _apply_colormap(norm, name):
    v = np.clip(norm, 0.0, 1.0)
    if name == "gray":
        g = np.rint(v * 255).astype(np.uint8)
        return np.stack([g, g, g], axis=2)
    # fire: black -> red -> yellow -> white
    r = np.clip(3.0 * v, 0, 1)
    g = np.clip(3.0 * v - 1.0, 0, 1)
    b = np.clip(3.0 * v - 2.0, 0, 1)
    return np.rint(np.stack([r, g, b], axis=2) * 255).astype(np.uint8)


def _cmd_render(args):
    if args.depth_range is not None:
        lo, hi = args.depth_range
        if not -np.inf < lo < hi < np.inf:
            raise _UsageError(f"--depth-range needs finite LO < HI, got {lo} {hi}")
    values, valid, _meta = io.read_map(args.map)
    if args.depth_range is None and valid.any():
        lo, hi = float(values[valid].min()), float(values[valid].max())
    elif args.depth_range is None:
        lo, hi = 0.0, 1.0
    span = hi - lo
    norm = (values - lo) / span if span > 0 else np.zeros_like(values)
    rgb = _apply_colormap(norm, args.colormap)
    rgb[~valid] = _SENTINEL_RGB
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    io.write_ppm(args.out, rgb)
    print(f"wrote {args.out}")
    return 0


def _cmd_experiment(args):
    try:
        raw = io.read_json(args.spec)
    except FileNotFoundError:
        raise _UsageError(f"spec file not found: {args.spec}")
    except ValueError as exc:  # not ASCII, or not JSON
        raise _UsageError(f"spec is not valid ASCII JSON: {exc}")
    try:
        spec = ExperimentSpec.from_dict(raw)
    except ValueError as exc:
        raise _UsageError(f"invalid experiment spec: {exc}")
    rows = run_experiment(spec, args.out)
    failures = [r for r in rows if r["status"] != "ok"]
    print(f"wrote {len(rows)} result rows to {args.out} ({len(failures)} failed)")
    return 0 if not failures else RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
