"""Scoring and experiment orchestration.

run_experiment sweeps method x ppp x seed over one scene, simulating,
reconstructing, and scoring each cell, and writes a deterministic results
table plus a manifest of content hashes. Wall-clock numbers go to a separate
timings file so the scored outputs are byte-identical across reruns.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import io
from .baselines import pixelwise_ml, reconstruct_no_scan
from .forward import SCAN_FIELDS, ScanConfig, make_kernel, save_cube, simulate
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
# a chart scene's optional keys: make_resolution_chart's arguments
_CHART_FIELDS = dict.fromkeys(("d_fg", "d_bg", "r_bg"), "number")


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
    """One sweep: a scene, a scan configuration, and the method grid."""

    scene_kind: str  # "chart" or "dir"
    scan: ScanConfig
    ppp: tuple
    sbr: float
    seeds: tuple
    methods: tuple
    solver: SolverConfig = field(default_factory=SolverConfig)
    scene_path: str | None = None
    chart_args: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.scene_kind not in ("chart", "dir"):
            raise ValueError(f"unknown scene kind: {self.scene_kind}")
        if self.scene_kind == "dir" and not self.scene_path:
            raise ValueError("scene kind 'dir' needs scene_path")
        if self.scene_kind == "dir" and self.chart_args:
            keys = ", ".join(sorted(self.chart_args))
            raise ValueError(f"scene kind 'dir' takes no chart keys: {keys}")
        if self.scene_kind == "chart" and self.scene_path is not None:
            raise ValueError("scene kind 'chart' takes no path")
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
        if not self.ppp or any(not 0 < p < math.inf for p in self.ppp):
            raise ValueError("ppp values must be positive and finite")
        if not 0 < self.sbr < math.inf:
            raise ValueError("sbr must be positive and finite")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be non-empty and distinct")
        if not self.methods:
            raise ValueError("at least one method required")
        for m in self.methods:
            if m not in KNOWN_METHODS:
                raise ValueError(f"unknown method: {m}")
        io.check_fields(self.chart_args, "scene", {}, _CHART_FIELDS)

    @classmethod
    def from_dict(cls, raw):
        """Parse a spec; an unknown, missing or mistyped key is a ValueError,
        and so is a value that the spec or its configs refuse."""
        raw = io.check_fields(raw, "spec", _SPEC_FIELDS,
                              {"scan": "object", "solver": "object"})
        scene = io.check_fields(raw["scene"], "scene", {"kind": "string"},
                                {"path": "string", **_CHART_FIELDS})
        scan = io.check_fields(raw.get("scan", {}), "spec scan", {}, SCAN_FIELDS)
        solver = io.check_fields(raw.get("solver", {}), "spec solver", {},
                                 SOLVER_FIELDS)
        return cls(
            scene_kind=scene.pop("kind"),
            scene_path=scene.pop("path", None),
            chart_args=scene,
            scan=ScanConfig(**scan),
            ppp=raw["ppp"],
            sbr=raw["sbr"],
            seeds=raw["seeds"],
            methods=raw["methods"],
            solver=SolverConfig(**solver),
        )

    def to_dict(self):
        scene = {"kind": self.scene_kind}
        if self.scene_path:
            scene["path"] = str(Path(self.scene_path).name)  # no absolute paths
        scene.update(self.chart_args)
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
    if spec.scene_kind == "chart":
        return make_resolution_chart(**spec.chart_args), chart_layout()
    scene, _ = load_scene_dir(spec.scene_path)
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
    footprint, 2n. Every method sees the same gated bins (_signal_window)
    and writes maps at the full depth scale; the volume keeps the gated
    bins, its t0 the time of the first. Returns (Maps, SolveReport or None,
    RDVolume or None, settings), settings being the values used."""
    config, b = cube.config, cube.background_per_bin
    kernel = make_kernel(config)
    window_half = kernel.temporal.size // 2
    lo, hi = _signal_window(cube.counts, b, window_half)
    counts = cube.counts[:, :, lo:hi]
    settings = {"window": [lo, hi], "window_half": window_half}
    report = volume = None
    if method == "ml":
        maps = pixelwise_ml(counts, kernel.temporal, b, window_half=window_half)
    elif method == "noscan":
        settings["factor"] = 2 * config.n
        maps = reconstruct_no_scan(
            counts, kernel.temporal, b, settings["factor"], window_half=window_half
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

    Layout: cubes/ (one per ppp x seed, shared across methods), cells/ (maps
    and solver reports per method x ppp x seed), results.csv, timings.csv,
    manifest.json. Every output except timings.csv is byte-deterministic for
    a fixed spec. Per-cell failures are recorded in the status column and do
    not abort the sweep. Returns the list of result-row dicts.
    """
    scene, layout = _load_spec_scene(spec)
    out = Path(out_dir)
    (out / "cubes").mkdir(parents=True, exist_ok=True)
    (out / "cells").mkdir(exist_ok=True)
    truth_valid = scene.reflectivity > 0
    half_bin_m = spec.scan.bin_width * SPEED_OF_LIGHT / 2.0

    cubes = {}
    for ppp in spec.ppp:
        for seed in spec.seeds:
            cube = simulate(scene, spec.scan, ppp, spec.sbr, seed)
            name = f"ppp{_fmt(ppp)}_seed{seed}"
            save_cube(cube, out / "cubes" / f"{name}.sph1")
            cubes[(ppp, seed)] = cube

    rows = []
    timings = []
    for method in spec.methods:
        for ppp in spec.ppp:
            for seed in spec.seeds:
                cell = f"{method}_ppp{_fmt(ppp)}_seed{seed}"
                cell_dir = out / "cells" / cell
                cell_dir.mkdir(exist_ok=True)
                row = {c: "" for c in RESULTS_COLUMNS}
                row.update(method=method, ppp=_fmt(ppp), seed=str(seed))
                started = time.perf_counter()
                try:
                    maps, report, volume, settings = reconstruct_cell(
                        cubes[(ppp, seed)], method, spec.solver
                    )
                    row["window"] = "{}:{}".format(*settings["window"])
                    mask = maps.valid & truth_valid
                    err_m = rmse(
                        np.nan_to_num(maps.depth), scene.depth, mask
                    )
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
                timings.append((cell, time.perf_counter() - started))
                rows.append(row)

    _write_results(out / "results.csv", rows)
    with open(out / "timings.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cell", "seconds"])
        for cell, seconds in timings:
            writer.writerow([cell, f"{seconds:.3f}"])
    _write_manifest(out, spec)
    return rows


def _fmt(value):
    return f"{float(value):.10g}"


def save_cell_outputs(cell_dir, maps, report, volume):
    """Write the maps, and the solver report and volume when present."""
    io.write_map(
        cell_dir / "depth.pgm",
        np.nan_to_num(maps.depth),
        maps.valid,
        kind="depth",
        units="m",
    )
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
