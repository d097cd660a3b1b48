"""Scoring and experiment orchestration.

run_experiment sweeps method x ppp x seed over one scene, simulating,
reconstructing, and scoring each cell, and writes a deterministic results
table plus a manifest of content hashes. Wall-clock numbers go to a separate
timings file so the scored outputs are byte-identical across reruns.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import io
from .baselines import pixelwise_ml, reconstruct_no_scan
from .forward import ScanConfig, coarsen, make_kernel, save_cube, simulate
from .scene import SPEED_OF_LIGHT, chart_layout, load_scene_dir, make_resolution_chart
from .solver import SolverConfig, extract_depth_reflectivity, save_volume, spiral_solve

RESOLVED_THRESHOLD = 0.2  # contrast at or above this counts as resolved

RESULTS_COLUMNS = (
    "method",
    "ppp",
    "seed",
    "rmse_m",
    "rmse_bins",
    "contrasts",
    "iterations",
    "status",
)

KNOWN_METHODS = ("deconv3d", "ml", "noscan")


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


def resolved_groups(contrasts, threshold=RESOLVED_THRESHOLD):
    return int(np.sum(np.asarray(contrasts) >= threshold))


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
    noscan_factor: int | None = None  # default: 2n (one full footprint)
    window_half: int | None = None  # default: temporal kernel half-width

    def __post_init__(self):
        if self.scene_kind not in ("chart", "dir"):
            raise ValueError(f"unknown scene kind: {self.scene_kind}")
        if self.scene_kind == "dir" and not self.scene_path:
            raise ValueError("scene kind 'dir' needs scene_path")
        object.__setattr__(self, "ppp", tuple(float(p) for p in self.ppp))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.ppp or any(p <= 0 for p in self.ppp):
            raise ValueError("ppp values must be positive")
        if self.sbr <= 0:
            raise ValueError("sbr must be positive")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be non-empty and distinct")
        if not self.methods:
            raise ValueError("at least one method required")
        for m in self.methods:
            if m not in KNOWN_METHODS:
                raise ValueError(f"unknown method: {m}")
        if self.noscan_factor is not None and self.noscan_factor < 1:
            raise ValueError(f"noscan_factor must be >= 1: {self.noscan_factor}")
        if self.window_half is not None and self.window_half < 0:
            raise ValueError(f"window_half must be >= 0: {self.window_half}")

    @classmethod
    def from_dict(cls, raw):
        scene = raw.get("scene", {})
        kind = scene.get("kind")
        chart_args = {
            k: scene[k] for k in ("d_fg", "d_bg", "r_bg") if k in scene
        }
        return cls(
            scene_kind=kind,
            scene_path=scene.get("path"),
            chart_args=chart_args,
            scan=ScanConfig(**raw.get("scan", {})),
            ppp=raw["ppp"],
            sbr=raw["sbr"],
            seeds=raw["seeds"],
            methods=raw["methods"],
            solver=SolverConfig(**raw.get("solver", {})),
            noscan_factor=raw.get("noscan_factor"),
            window_half=raw.get("window_half"),
        )

    def to_dict(self):
        scene = {"kind": self.scene_kind}
        if self.scene_path:
            scene["path"] = str(Path(self.scene_path).name)  # no absolute paths
        scene.update(self.chart_args)
        d = {
            "scene": scene,
            "scan": self.scan.to_dict(),
            "ppp": list(self.ppp),
            "sbr": float(self.sbr),
            "seeds": list(self.seeds),
            "methods": list(self.methods),
            "solver": self.solver.to_dict(),
        }
        if self.noscan_factor is not None:
            d["noscan_factor"] = int(self.noscan_factor)
        if self.window_half is not None:
            d["window_half"] = int(self.window_half)
        return d


def _load_spec_scene(spec):
    if spec.scene_kind == "chart":
        return make_resolution_chart(**spec.chart_args), chart_layout()
    scene, _ = load_scene_dir(spec.scene_path)
    return scene, None


def reconstruct_cell(cube, method, solver, window_half=None, noscan_factor=None):
    """One reconstruction; window_half defaults to the temporal kernel
    half-width and noscan_factor to 2n. Returns (Maps, SolveReport or None,
    RDVolume or None, settings), settings being the effective values used."""
    kernel = make_kernel(cube.config)
    if window_half is None:
        window_half = kernel.temporal.size // 2
    settings = {"window_half": int(window_half)}
    if method == "ml":
        maps = pixelwise_ml(
            cube, kernel.temporal, cube.background_per_bin, window_half=window_half
        )
        return maps, None, None, settings
    if method == "noscan":
        factor = noscan_factor if noscan_factor is not None else 2 * cube.config.n
        settings["factor"] = int(factor)
        coarse = coarsen(cube, factor)
        maps = reconstruct_no_scan(coarse, factor, window_half=window_half)
        return maps, None, None, settings
    if method == "deconv3d":
        settings["solver"] = solver.to_dict()
        volume, report = spiral_solve(cube, kernel, cube.background_per_bin, solver)
        maps = extract_depth_reflectivity(volume, window_half=window_half)
        return maps, report, volume, settings
    raise ValueError(f"unknown method: {method}")


def run_experiment(spec, out_dir):
    """Execute the sweep and persist everything under out_dir.

    Layout: cubes/ (one per ppp x seed, shared across methods), cells/ (maps
    and solver reports per method x ppp x seed), results.csv, timings.csv,
    manifest.json. Every output except timings.csv is byte-deterministic for
    a fixed spec. Per-cell failures are recorded in the status column and do
    not abort the sweep. Returns the list of result-row dicts.
    """
    out = Path(out_dir)
    (out / "cubes").mkdir(parents=True, exist_ok=True)
    (out / "cells").mkdir(exist_ok=True)
    scene, layout = _load_spec_scene(spec)
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
                    maps, report, volume, _ = reconstruct_cell(
                        cubes[(ppp, seed)], method, spec.solver,
                        spec.window_half, spec.noscan_factor,
                    )
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
        (cell_dir / "report.json").write_text(
            json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n",
            encoding="ascii",
        )
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
    manifest = {"spec": spec.to_dict(), "outputs": hashes}
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="ascii"
    )
