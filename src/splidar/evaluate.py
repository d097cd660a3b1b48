"""Scoring and experiment orchestration.

run_experiment sweeps method x ppp x seed over one scene, simulating (the
scene's flux once, a cube per ppp and seed), reconstructing, and scoring
each cell, and writes a deterministic results table plus a manifest of
content hashes. Wall-clock numbers go to a separate timings file so the
scored outputs are byte-identical across reruns.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import io
from .baselines import pixelwise_ml, reconstruct_no_scan
from .forward import (
    SCAN_FIELDS,
    ScanConfig,
    draw_cube,
    make_kernel,
    save_cube,
    scene_flux,
)
from .scene import (
    SPEED_OF_LIGHT,
    RDVolume,
    chart_layout,
    load_scene_dir,
    make_resolution_chart,
)
from .solver import (
    SOLVER_FIELDS,
    SolverConfig,
    _peak_maps,
    extract_depth_reflectivity,
    save_volume,
    spiral_solve,
)

RESOLVED_THRESHOLD = 0.2  # contrast at or above this counts as resolved
_GATE_SIGMAS = 5.0  # a bin holds signal above this many Poisson sigmas of background

RESULTS_COLUMNS = (
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

KNOWN_METHODS = ("deconv3d", "ml", "noscan")
# the method grid's keys and kinds (io.check_fields), in a spec's JSON and in
# ExperimentSpec; a spec also requires its scene
_GRID_FIELDS = {"ppp": ["number"], "sbr": "number", "seeds": ["integer"],
                "methods": ["string"]}
_SPEC_FIELDS = {"scene": "object", **_GRID_FIELDS}
# each scene kind's required and optional keys (io.check_fields); a chart's
# are make_resolution_chart's arguments
_SCENE_FIELDS = {
    "chart": ({"kind": "string"}, dict.fromkeys(("d_fg", "d_bg", "r_bg"), "number")),
    "dir": ({"kind": "string", "path": "string"}, {}),
}


def rmse(estimate, truth, mask):
    """Root mean square difference over the masked pixels."""
    est = np.asarray(estimate, dtype=np.float64)
    tru = np.asarray(truth, dtype=np.float64)
    m = np.asarray(mask, dtype=bool)
    if est.shape != tru.shape or est.shape != m.shape:
        raise ValueError("shape mismatch")
    if not m.any():
        raise ValueError("empty mask")
    diff = est[m] - tru[m]
    return float(np.sqrt(np.mean(diff * diff)))


def bar_contrast(reflectivity_map, groups):
    """Per-group modulation (bar - space)/(bar + space), clamped to [0, 1].

    groups is the chart layout geometry; a non-positive denominator (both
    regions empty) scores 0.
    """
    arr = np.asarray(reflectivity_map, dtype=np.float64)
    contrasts = []
    for group in groups:
        if group.bar_mask.shape != arr.shape:
            raise ValueError(
                f"map shape {arr.shape} does not match chart layout "
                f"{group.bar_mask.shape}"
            )
        mb = float(arr[group.bar_mask].mean())
        ms = float(arr[group.space_mask].mean())
        denom = mb + ms
        contrasts.append(float(np.clip((mb - ms) / denom, 0.0, 1.0)) if denom > 0 else 0.0)
    return np.array(contrasts)


def resolved_groups(contrasts):
    return int(np.sum(np.asarray(contrasts) >= RESOLVED_THRESHOLD))


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: a scene, a scan configuration, and the method grid. The
    fields are a spec's JSON keys; scene is its JSON object, checked
    against its kind's keys (_SCENE_FIELDS) and held as a read-only view
    (so a spec is hashable, on its other fields)."""

    scene: MappingProxyType = field(hash=False)
    scan: ScanConfig
    ppp: tuple
    sbr: float
    seeds: tuple
    methods: tuple
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        scene = self.scene
        if isinstance(scene, MappingProxyType):  # another spec's, as replace() passes it
            scene = dict(scene)
        kind = scene.get("kind") if isinstance(scene, dict) else None
        if not (isinstance(kind, str) and kind in _SCENE_FIELDS):
            raise ValueError(f"spec: scene must be an object of kind "
                             f"{' or '.join(_SCENE_FIELDS)}, got {scene!r}")
        scene = io.check_fields(scene, "scene", *_SCENE_FIELDS[kind])
        if scene.get("path") == "":
            raise ValueError("scene: path must not be empty")
        object.__setattr__(self, "scene", MappingProxyType(scene))
        for name, kind in (("scan", ScanConfig), ("solver", SolverConfig)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"spec: {name} must be a {kind.__name__}, "
                                 f"got {getattr(self, name)!r}")
        grid = io.check_fields(
            {"ppp": list(self.ppp), "sbr": self.sbr, "seeds": list(self.seeds),
             "methods": list(self.methods)}, "spec", _GRID_FIELDS)
        object.__setattr__(self, "ppp", tuple(float(p) for p in grid["ppp"]))
        object.__setattr__(self, "seeds", tuple(grid["seeds"]))
        object.__setattr__(self, "methods", tuple(grid["methods"]))
        # each value names its cells, and ppp and seed its cubes (ppp by
        # _fmt), so a repeated name would overwrite them
        for key, names in (("ppp", [_fmt(p) for p in self.ppp]),
                           ("seeds", self.seeds), ("methods", self.methods)):
            if not names or len(set(names)) != len(names):
                raise ValueError(f"spec: {key} must be non-empty and distinct, "
                                 f"got {list(names)}")
        if any(not 0 < p < math.inf for p in self.ppp):
            raise ValueError("ppp values must be positive and finite")
        if not 0 < self.sbr < math.inf:
            raise ValueError("sbr must be positive and finite")
        for m in self.methods:
            if m not in KNOWN_METHODS:
                raise ValueError(f"unknown method: {m}")

    @classmethod
    def from_dict(cls, raw):
        """Parse a spec; an unknown, missing or mistyped key is a ValueError,
        and so is a value that the spec or its configs refuse."""
        raw = io.check_fields(raw, "spec", _SPEC_FIELDS,
                              {"scan": "object", "solver": "object"})
        scan = io.check_fields(raw.pop("scan", {}), "spec scan", {}, SCAN_FIELDS)
        solver = io.check_fields(raw.pop("solver", {}), "spec solver", {},
                                 SOLVER_FIELDS)
        return cls(**raw, scan=ScanConfig(**scan), solver=SolverConfig(**solver))

    def to_dict(self):
        scene = dict(self.scene)
        if "path" in scene:
            scene["path"] = Path(scene["path"]).name  # no absolute paths
        return {
            "scene": scene,
            "scan": self.scan.to_dict(),
            "ppp": list(self.ppp),
            "sbr": float(self.sbr),
            "seeds": list(self.seeds),
            "methods": list(self.methods),
            "solver": self.solver.to_dict(),
        }


def _load_spec_scene(spec):
    args = dict(spec.scene)
    if args.pop("kind") == "chart":
        return make_resolution_chart(**args), chart_layout()
    scene, _ = load_scene_dir(args["path"])
    return scene, None


def _signal_window(counts, b, temporal_radius):
    """The bins [lo, hi) that can hold signal, from the counts and b alone.

    A bin qualifies when its pixel-summed count exceeds the background
    H*W*b by more than _GATE_SIGMAS Poisson sigmas, sqrt(H*W*b). The window
    runs from the first to the last qualifying bin, padded by 2r+1 bins on
    each side (r the temporal kernel radius) and clipped to the histogram.
    With no qualifying bin it is the whole histogram.
    """
    height, width, n_bins = counts.shape
    mean = height * width * b
    per_bin = counts.sum(axis=(0, 1))
    hits = np.flatnonzero(per_bin > mean + _GATE_SIGMAS * math.sqrt(mean))
    if not hits.size:
        return 0, n_bins
    pad = 2 * temporal_radius + 1
    return max(0, int(hits[0]) - pad), min(n_bins, int(hits[-1]) + 1 + pad)


def _at_full_depth(maps, lo, config):
    """Maps read from the gated bins [lo, hi) as a bare array, at the full
    histogram's depth scale: (t0 + (lo + k*) bin_width) c/2.

    A bare array reads at bin_width 1 and t0 0, so each valid depth is
    k* c/2 for an integer peak bin k*; c/2 is an integer too, so the
    quotient below is k* exactly.
    """
    k_star = maps.depth / (SPEED_OF_LIGHT / 2.0)
    return _peak_maps(
        lo + k_star, maps.reflectivity, maps.valid, config.t0, config.bin_width
    )


def reconstruct_cell(cube, method, solver):
    """One reconstruction of the bins that can hold signal, reading
    reflectivity over the temporal kernel half-width; noscan steps by one
    footprint, 2n. Every method takes the same three inputs: the gated bins
    (_signal_window) as a bare count array, the Kernel and the background.
    Its maps, read at bin width 1 and t0 0, go back to the cube's depth
    scale (_at_full_depth); the volume keeps the gated bins, its t0 the time
    of the first. Returns (Maps, SolveReport or None, RDVolume or None,
    settings), settings being the values used."""
    config, b = cube.config, cube.background_per_bin
    kernel = make_kernel(config)
    window_half = kernel.temporal.size // 2
    lo, hi = _signal_window(cube.counts, b, window_half)
    counts = cube.counts[:, :, lo:hi]
    settings = {"window": [lo, hi], "window_half": window_half}
    report = volume = None
    if method == "ml":
        maps = pixelwise_ml(counts, kernel, b, window_half=window_half)
    elif method == "noscan":
        settings["factor"] = 2 * config.n
        maps = reconstruct_no_scan(
            counts, kernel, b, settings["factor"], window_half=window_half
        )
    elif method == "deconv3d":
        settings["solver"] = solver.to_dict()
        gated, report = spiral_solve(counts, kernel, b, solver)
        maps = extract_depth_reflectivity(gated, window_half=window_half)
        volume = RDVolume(
            data=gated.data,
            bin_width=config.bin_width,
            t0=config.t0 + lo * config.bin_width,
        )
    else:
        raise ValueError(f"unknown method: {method}")
    return _at_full_depth(maps, lo, config), report, volume, settings


def run_experiment(spec, out_dir):
    """Execute the sweep and persist everything under out_dir.

    The scene's flux (scene_flux) is computed once, and each ppp x seed
    cube is drawn from it (draw_cube), with the bytes of simulate; the
    sweep holds that flux and one cube at a time.

    Layout: cubes/ (one per ppp x seed, shared across methods), cells/ (maps
    and solver reports per method x ppp x seed), results.csv, timings.csv,
    manifest.json. Every output except timings.csv is byte-deterministic for
    a fixed spec. out_dir must not exist yet or be empty, since the manifest
    hashes every file under it. Per-cell failures are recorded in the status
    column and do not abort the sweep. Returns the list of result-row dicts,
    method-major.
    """
    out = Path(out_dir)
    if out.is_dir() and any(out.iterdir()):
        raise ValueError(f"experiment directory is not empty: {out}")
    scene, layout = _load_spec_scene(spec)
    (out / "cubes").mkdir(parents=True, exist_ok=True)
    (out / "cells").mkdir(exist_ok=True)
    truth_valid = scene.reflectivity > 0
    half_bin_m = spec.scan.bin_width * SPEED_OF_LIGHT / 2.0
    flux = scene_flux(scene, spec.scan)

    cells = []  # (method index, row, cell, seconds); one cube held at a time
    for ppp in spec.ppp:
        for seed in spec.seeds:
            cube = draw_cube(flux, spec.scan, ppp, spec.sbr, seed)
            save_cube(cube, out / "cubes" / f"ppp{_fmt(ppp)}_seed{seed}.sph1")
            for index, method in enumerate(spec.methods):
                cell = f"{method}_ppp{_fmt(ppp)}_seed{seed}"
                cell_dir = out / "cells" / cell
                cell_dir.mkdir(exist_ok=True)
                row = {c: "" for c in RESULTS_COLUMNS}
                row.update(method=method, ppp=_fmt(ppp), seed=str(seed))
                started = time.perf_counter()
                try:
                    maps, report, volume, settings = reconstruct_cell(
                        cube, method, spec.solver
                    )
                    row["window"] = "{}:{}".format(*settings["window"])
                    err_m = rmse(maps.depth, scene.depth, maps.valid & truth_valid)
                    row["rmse_m"] = _fmt(err_m)
                    row["rmse_bins"] = _fmt(err_m / half_bin_m)
                    if layout is not None:
                        contrasts = bar_contrast(maps.reflectivity, layout)
                        row["contrasts"] = ";".join(_fmt(c) for c in contrasts)
                    row["iterations"] = str(report.iterations) if report else "0"
                    row["status"] = "ok"
                    save_cell_outputs(cell_dir, maps, report, volume)
                except Exception as exc:  # record and continue the sweep
                    row["status"] = f"error: {exc}"
                cells.append((index, row, cell, time.perf_counter() - started))
            del cube
    cells.sort(key=lambda c: c[0])  # stable: method-major, then ppp, then seed
    rows = [row for _, row, _, _ in cells]

    _write_results(out / "results.csv", rows)
    with open(out / "timings.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cell", "seconds"])
        for _, _, cell, seconds in cells:
            writer.writerow([cell, f"{seconds:.6f}"])
    _write_manifest(out, spec)
    return rows


def _fmt(value):
    return f"{float(value):.10g}"


def save_cell_outputs(cell_dir, maps, report, volume):
    """Write the maps, and the solver report and volume when present."""
    io.write_map(cell_dir / "depth.pgm", maps.depth, maps.valid, kind="depth", units="m")
    io.write_map(
        cell_dir / "reflectivity.pgm",
        maps.reflectivity,
        maps.valid,
        kind="reflectivity",
        units="relative",
    )
    if report is not None:
        io.write_json(cell_dir / "report.json", report.to_dict())
    if volume is not None:
        save_volume(volume, cell_dir / "volume.spr1")


def _write_results(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULTS_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _write_manifest(out, spec):
    hashes = {}
    for p in sorted(out.rglob("*")):
        if p.is_file() and p.name not in ("timings.csv", "manifest.json"):
            hashes[str(p.relative_to(out))] = io.sha256_file(p)
    io.write_json(out / "manifest.json", {"spec": spec.to_dict(), "outputs": hashes})
