#!/usr/bin/env python3
"""splidar benchmark: end-to-end timings, output checks and traced layers.

Run from the repository root:

    python3 bench/run.py --workload chart-deconv --seed 0 --seconds 30 --trace 0

It imports splidar from ``src/`` next to this directory, builds its inputs
from ``--seed``, sets up several times, then repeats the workload's operation
until ``--seconds`` have passed (and at least a minimum count has run). Every
operation's outputs are read back from disk and checked. The last line of
standard output is one JSON object: ``correct``, ``attempted`` and ``failed``
(operations, and operations with a failed check), and ``metrics``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run (tracing.py). A full record, with the run
environment, every output's sha256 and the spans, goes to
``.bench_work/results/``. Everything runs in this one process.

Workloads (all on the EXPERIMENT_SCAN geometry: n=4, 64 bins of 1.6 ns,
SBR 0.2):

- chart-deconv: the README quick start. ``splidar reconstruct --method
  deconv3d --beta 0.01`` of the 120x128 chart at ppp 10 (simulate seed =
  workload seed), capped at CHART_MAX_ITERS iterations. Few backtracks;
  the TV prox and the convolutions dominate each iteration.
- natural-lowlight: the synthetic natural scene of the test suite at ppp 1
  with ``--beta 0.1``: a NATURAL_GRID^2 grid of NATURAL_TILE^2 windows
  spread over the 96x96 scene, each solved to its own ``--rel-tol
  1e-3`` stop (tile t uses simulate seed 1000 * seed + t). Backtracking
  dominates.
  Iteration counts differ from tile to tile and seed to seed, so the run
  reports the mean time per tile over many small tiles rather than one
  large solve.
- acquire-sweep: ``run_experiment`` on the chart with methods ml and noscan,
  ppp 1 and 10, simulate seeds seed..seed+2. No solver work: this is the
  control for solver changes. simulate's per-pixel RNG loop and the cube,
  map and manifest writes dominate.

End-to-end metrics, per operation (one ``reconstruct`` call, or one sweep).
Times are the mean over inputs of each input's median, so every tile of
natural-lowlight weighs the same however many times it ran, and the figure
is the time per tile over the whole tile set rather than the time of
whichever tile happens to be the median one (tile solve times differ by up
to 5x with the noise, which made that median swing from seed to seed):

- reconstruct_s: wall time of reconstruction. Deconv workloads: the
  ``splidar reconstruct`` call. acquire-sweep: the per-cell seconds that the
  sweep itself records in timings.csv (reconstruction, scoring, cell writes).
- sweep_s: wall time of the whole operation. Deconv workloads:
  ``reconstruct`` plus ``render`` of both maps, the rest of the quick start.
  acquire-sweep: the ``run_experiment`` call.
- setup_s: median over repeated set-ups (scene, cubes, spec).
- peak_rss_mb: peak resident set size of the process.
- rmse_bins: depth RMSE in half-bins, pooled over the pixels of every input
  (every tile; every ml cell of the sweep), from the maps read back from
  disk. Pooling keeps it steady where per-tile RMSEs swing with the noise;
  noscan cells are left out of it for the same reason (15x16 independent
  pixels each) and only held to the quality ceiling.

The fraction of failed operations and the resolved bar groups are printed
and checked (``QUALITY``) but are not metrics in BENCHMARK.json, whose
metrics must be non-zero on every workload: the first is 0 by design, and
the second does not exist on the natural scene.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io as _io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"

SETUP_REPEATS = 5  # at least this many set-ups, and at least SETUP_MIN_S of them
SETUP_MIN_S = 1.0
CHART_MAX_ITERS = 12
NATURAL_TILE = 12
NATURAL_GRID = 7  # tiles per side, spread evenly over the 96x96 scene
# Stop at a relative change of 1e-3 rather than the CLI's default 1e-4: a
# tile then takes about 50 iterations at 4-5 trial steps each, not about 80
# at 7, and over 100 tile solves (4 seeds) the prox calls of one tile varied
# by 0.43 of their mean, not 0.61. A run therefore fits twice the tiles, and
# its mean time per tile depends half as much on the seed.
NATURAL_REL_TOL = 1e-3
NATURAL_TRACE_STRIDE = 4  # the traced run solves every 4th tile: 13 of 49
SWEEP_SEEDS = 3

SCAN = {"n": 4, "jitter_fwhm": 1e-9, "bin_width": 1.6e-9, "n_bins": 64,
        "rep_period": 1e-5, "sbr_window": 1e-7}
HALF_BIN_M = SCAN["bin_width"] * 299792458.0 / 2.0

# Output quality gates: the depth RMSE of every map (each chart solve, tile
# or sweep cell) at or below the ceiling, and the resolved chart groups at or
# above the floor (sweep: the ml cells at ppp 10). Over seeds 100-109 the
# seed code gave: chart 0.4915 half-bins and 1 group on every seed; natural
# tiles up to 14.1; sweep cells up to 14.1, ml at ppp 10 always 2 groups.
# Not applied with --smoke.
QUALITY = {
    "chart-deconv": {"rmse_bins_max": 0.6, "resolved_groups_min": 1},
    "natural-lowlight": {"rmse_bins_max": 25.0},
    "acquire-sweep": {"rmse_bins_max": 25.0, "resolved_groups_min": 2},
}

END_TO_END_UNITS = {
    "reconstruct_s": "s",
    "sweep_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rmse_bins": "half-bins",
}


def _pin_blas_threads():
    """Run BLAS/OpenMP single-threaded; must run before numpy is imported.

    splidar's solver takes BLAS dot products over whole cubes, which OpenBLAS
    splits across threads. On a machine of a few cores shared with other
    work, the time of those calls then depends on whether the other cores
    are free: on a 2-core VM, 10 solver iterations on a 32x32 tile swung
    between 0.16 and 0.63 s with 2 threads and between 0.13 and 0.26 s with
    one. The whole benchmark is one single-threaded process."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def _import_splidar():
    src = ROOT / "src"
    if not (src / "splidar" / "__init__.py").is_file():
        raise SystemExit(f"error: splidar sources not found under {src.name}/ "
                         "next to the benchmark directory")
    sys.path.insert(0, str(src))
    import splidar  # noqa: F401
    import splidar.cli
    import splidar.evaluate
    import splidar.io
    import splidar.scene
    return splidar


# ---------------------------------------------------------------------------
# run environment


def _git_commit():
    """HEAD of a .git directory at the root, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_environment(nproc, args):
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "workload_seed": args.seed,
        "argv": sys.argv,
        "load": "one single-threaded process, operations run one at a time, no worker pool",
    }


# ---------------------------------------------------------------------------
# checks and helpers


class Checks:
    """Counts operations and the checks that failed in them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def operation(self, label, failures, count=1):
        """Record count operations (sweep cells share their sweep's checks)
        and the failures their checks found."""
        self.attempted += count
        if failures:
            self.failed += count
            self.messages.extend(f"{label}: {f}" for f in failures)


def hash_tree(directory, skip=()):
    """sha256 of every file under directory, keyed by relative path."""
    out = {}
    for path in sorted(Path(directory).rglob("*")):
        if path.is_file() and path.name not in skip:
            out[str(path.relative_to(directory))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def depth_errors(depth, valid, truth):
    """Sum of squared depth errors in half-bins, and the pixel count, over
    pixels valid in both the map and the truth."""
    import numpy as np

    mask = valid & (truth.reflectivity > 0)
    diff = (depth[mask] - truth.depth[mask]) / HALF_BIN_M
    return float(np.dot(diff, diff)), int(mask.sum())


def check_maps(sp, out_dir, truth, failures):
    """Read both maps back and check they are finite where valid. Returns
    the depth errors (depth_errors) and the reflectivity values."""
    import numpy as np

    depth, valid, _ = sp.io.read_map(out_dir / "depth.pgm")
    refl, refl_valid, _ = sp.io.read_map(out_dir / "reflectivity.pgm")
    if not valid.any():
        failures.append("no valid pixel")
    if not (np.isfinite(depth[valid]).all() and np.isfinite(refl[refl_valid]).all()):
        failures.append("non-finite map value where valid")
    sse, n = depth_errors(depth, valid, truth)
    if n == 0:
        failures.append("no pixel valid in both map and truth")
    return sse, n, refl


def rmse_of(errors):
    """Pooled RMSE of (sum of squares, count) pairs."""
    n = sum(c for _, c in errors)
    return math.sqrt(sum(e for e, _ in errors) / n) if n else math.inf


def quiet(fn, *args):
    """Call fn with its standard output discarded."""
    with contextlib.redirect_stdout(_io.StringIO()):
        return fn(*args)


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Op:
    """Result of one timed operation."""

    reconstruct_s: float
    sweep_s: float
    key: str  # the input it ran on
    errors: list  # (sum of squared depth errors, pixels) per map
    hashes: dict
    solves: list = field(default_factory=list)  # (iterations, converged)
    groups: int | None = None  # resolved chart groups, deconv on the chart
    cells: int = 1  # operations this one counts as: sweep cells
    bytes_written: int = 0


class DeconvWorkload:
    """``splidar reconstruct --method deconv3d`` on one or more cubes."""

    primary = "reconstruct_s"  # the time tracing overhead is taken on
    entry = "cli.main"  # the span that covers the primary time

    def __init__(self, name, beta, max_iters, rel_tol, chart):
        self.name = name
        self.beta = beta
        self.max_iters = max_iters
        self.rel_tol = rel_tol
        self.chart = chart
        self.items = []  # (key, cube path, truth scene)
        self.min_ops = 3

    def trace_items(self):
        return self.items

    def operate(self, sp, item, out_dir):
        key, cube, truth = item
        argv = ["reconstruct", str(cube), "-o", str(out_dir), "--method", "deconv3d",
                "--beta", str(self.beta), "--max-iters", str(self.max_iters),
                "--rel-tol", str(self.rel_tol)]
        t0 = time.perf_counter()
        rc = quiet(sp.cli.main, argv)
        t1 = time.perf_counter()
        rcs = [rc]
        for name, cmap in (("depth", "fire"), ("reflectivity", "gray")):
            rcs.append(quiet(sp.cli.main, ["render", str(out_dir / f"{name}.pgm"), "-o",
                                           str(out_dir / f"{name}.ppm"), "--colormap", cmap]))
        t2 = time.perf_counter()
        return Op(t1 - t0, t2 - t0, key, [], {}), rcs

    def check(self, sp, item, out_dir, op, rcs, quality):
        _key, _cube, truth = item
        failures = [f"exit code {rc}" for rc in rcs if rc != 0]
        if failures:
            return failures
        report = json.loads((out_dir / "report.json").read_text())
        trace = report["objective_trace"]
        if any(b > a for a, b in zip(trace, trace[1:])):
            failures.append("objective trace increases")
        op.solves.append((report["iterations"], report["converged"]))
        sse, n, refl = check_maps(sp, out_dir, truth, failures)
        op.errors.append((sse, n))
        err = rmse_of([(sse, n)])
        if quality and err > quality["rmse_bins_max"]:
            failures.append(f"rmse_bins {err:.4f} above {quality['rmse_bins_max']}")
        if self.chart:
            groups = sp.evaluate.resolved_groups(
                sp.evaluate.bar_contrast(refl, sp.scene.chart_layout()))
            op.groups = groups
            if quality and groups < quality["resolved_groups_min"]:
                failures.append(f"{groups} resolved groups, floor {quality['resolved_groups_min']}")
        op.hashes = hash_tree(out_dir)
        return failures


class ChartDeconv(DeconvWorkload):
    def __init__(self, seed, smoke):
        super().__init__("chart-deconv", 0.01, 2 if smoke else CHART_MAX_ITERS, 1e-4, chart=True)
        self.seed = seed
        self.min_ops = 1 if smoke else 3

    def setup(self, sp, work):
        scene_dir, cube = work / "chart_scene", work / "chart.sph1"
        for argv in (["make-scene", "chart", "-o", str(scene_dir)],
                     ["simulate", str(scene_dir), "-o", str(cube), "--n", str(SCAN["n"]),
                      "--ppp", "10", "--sbr", "0.2", "--seed", str(self.seed),
                      "--bins", str(SCAN["n_bins"]), "--bin-width", str(SCAN["bin_width"])]):
            if quiet(sp.cli.main, argv) != 0:
                raise RuntimeError(f"set-up command failed: splidar {argv[0]}")
        truth, _ = sp.scene.load_scene_dir(scene_dir)
        self.items = [("chart", cube, truth)]
        return [cube, Path(str(cube) + ".json")]


def natural_scene(sp, height=96, width=96, seed=7):
    """The test suite's synthetic natural scene: a sloped wall with three
    boxes and an ellipse in front, textured reflectivity, values exact on
    the 16-bit and float32 grids."""
    import numpy as np

    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:height, 0:width]
    depth = 4.2 + 0.8 * (yy / height)
    refl = 0.45 + 0.25 * np.sin(2 * np.pi * xx / 31) * np.cos(2 * np.pi * yy / 23)
    for y0, y1, x0, x1, d, r in ((8, 34, 10, 38, 3.1, 0.9), (50, 86, 20, 52, 3.6, 0.7),
                                 (26, 70, 60, 88, 2.8, 0.55)):
        depth[y0:y1, x0:x1] = d
        refl[y0:y1, x0:x1] = r
    ellipse = ((yy - 72) / 14) ** 2 + ((xx - 24) / 12) ** 2 <= 1.0
    depth[ellipse] = 3.3
    refl[ellipse] = 0.8 + 0.1 * np.sin(2 * np.pi * xx[ellipse] / 9)
    refl += 0.03 * rng.standard_normal((height, width))
    refl = np.clip(refl, 0.15, 1.0)
    refl = np.rint(refl * 65535) / 65535
    depth = np.float64(np.float32(depth))
    return sp.Scene(reflectivity=refl, depth=depth)


class NaturalLowlight(DeconvWorkload):
    def __init__(self, seed, smoke):
        super().__init__("natural-lowlight", 0.1, 20 if smoke else 200, NATURAL_REL_TOL,
                         chart=False)
        self.seed = seed
        self.tiles = 2 if smoke else None
        self.min_ops = 1

    def setup(self, sp, work):
        scene = natural_scene(sp)
        config = sp.ScanConfig(**SCAN)
        starts = [round(k * (scene.width - NATURAL_TILE) / (NATURAL_GRID - 1))
                  for k in range(NATURAL_GRID)]
        corners = [(y0, x0) for y0 in starts for x0 in starts]
        self.items, files = [], []
        for t, (y0, x0) in enumerate(corners[:self.tiles]):
            win = (slice(y0, y0 + NATURAL_TILE), slice(x0, x0 + NATURAL_TILE))
            tile = sp.Scene(reflectivity=scene.reflectivity[win].copy(),
                            depth=scene.depth[win].copy())
            cube = sp.simulate(tile, config, 1.0, 0.2, 1000 * self.seed + t)
            path = work / f"tile{t:02d}.sph1"
            sp.save_cube(cube, path)
            self.items.append((f"tile{t:02d}", path, tile))
            files += [path, Path(str(path) + ".json")]
        return files

    def trace_items(self):
        return self.items[::NATURAL_TRACE_STRIDE]


class AcquireSweep:
    """``run_experiment`` over ml and noscan on the chart."""

    name = "acquire-sweep"
    primary = "sweep_s"
    entry = "evaluate.run_experiment"

    def __init__(self, seed, smoke):
        self.min_ops = 1 if smoke else 2
        self.raw = {
            "scene": {"kind": "chart", "d_fg": 3.0, "d_bg": 5.4, "r_bg": 0.0},
            "scan": dict(SCAN),
            "ppp": [10] if smoke else [1, 10],
            "sbr": 0.2,
            "seeds": [seed + k for k in range(1 if smoke else SWEEP_SEEDS)],
            "methods": ["ml", "noscan"],
        }

    def setup(self, sp, work):
        scene_dir, spec_path = work / "chart_scene", work / "sweep.json"
        if quiet(sp.cli.main, ["make-scene", "chart", "-o", str(scene_dir)]) != 0:
            raise RuntimeError("set-up command failed: splidar make-scene")
        spec_path.write_text(json.dumps(self.raw, sort_keys=True, indent=2) + "\n")
        spec = sp.ExperimentSpec.from_dict(json.loads(spec_path.read_text()))
        truth, _ = sp.scene.load_scene_dir(scene_dir)
        self.items = [("sweep", spec, truth)]
        return [spec_path] + sorted(p for p in scene_dir.iterdir())

    def trace_items(self):
        return self.items

    def operate(self, sp, item, out_dir):
        key, spec, _truth = item
        t0 = time.perf_counter()
        rows = sp.evaluate.run_experiment(spec, out_dir)
        t1 = time.perf_counter()
        with open(out_dir / "timings.csv", newline="") as fh:
            cell_s = sum(float(r["seconds"]) for r in csv.DictReader(fh))
        return Op(cell_s, t1 - t0, key, [], {}), rows

    def check(self, sp, item, out_dir, op, rows, quality):
        _key, _spec, truth = item
        failures = []
        manifest = json.loads((out_dir / "manifest.json").read_text())
        hashes = hash_tree(out_dir, skip=("timings.csv", "manifest.json"))
        if manifest["outputs"] != hashes:
            failures.append("manifest hashes disagree with the files")
        with open(out_dir / "results.csv", newline="") as fh:
            results = list(csv.DictReader(fh))
        if len(results) != len(rows) or not results:
            failures.append("results.csv row count")
        op.cells = len(results)
        layout = sp.scene.chart_layout()
        for row in results:
            cell = f"{row['method']}_ppp{row['ppp']}_seed{row['seed']}"
            if row["status"] != "ok":
                failures.append(f"{cell}: status {row['status']}")
                continue
            sse, n, refl = check_maps(sp, out_dir / "cells" / cell, truth, failures)
            if row["method"] == "ml":
                op.errors.append((sse, n))
            err = rmse_of([(sse, n)])
            if abs(err - float(row["rmse_bins"])) > 1e-3:
                failures.append(f"{cell}: rmse_bins {err:.5f} from the maps, "
                                f"{row['rmse_bins']} in results.csv")
            if quality and err > quality["rmse_bins_max"]:
                failures.append(f"{cell}: rmse_bins {err:.4f} above {quality['rmse_bins_max']}")
            if row["method"] != "ml" or float(row["ppp"]) != 10:
                continue
            groups = sp.evaluate.resolved_groups(sp.evaluate.bar_contrast(refl, layout))
            op.groups = groups if op.groups is None else min(op.groups, groups)
            if quality and groups < quality["resolved_groups_min"]:
                failures.append(f"{cell}: {groups} resolved groups, "
                                f"floor {quality['resolved_groups_min']}")
        op.hashes = hashes
        return failures


WORKLOADS = {
    "chart-deconv": ChartDeconv,
    "natural-lowlight": NaturalLowlight,
    "acquire-sweep": AcquireSweep,
}


# ---------------------------------------------------------------------------
# the run


class Runner:
    def __init__(self, sp, workload, work, smoke):
        self.sp = sp
        self.workload = workload
        self.work = work
        self.quality = None if smoke else QUALITY[workload.name]
        self.checks = Checks()
        self.first_hashes = {}  # item key -> hashes of its first outputs
        self.counter = 0

    def setup(self, repeats, min_s=0.0, tracer=None):
        """Set up into the same directory at least repeats times and until
        min_s seconds have been spent; returns the seconds of each. Every
        repeat must write identical inputs."""
        times, digests = [], []
        while len(times) < repeats or sum(times) < min_s:
            inputs = self.work / "inputs"
            shutil.rmtree(inputs, ignore_errors=True)
            inputs.mkdir(parents=True)
            t0 = time.perf_counter()
            if tracer is None:
                files = self.workload.setup(self.sp, inputs)
            else:
                with tracer.installed(), tracer.span("bench.setup"):
                    files = self.workload.setup(self.sp, inputs)
            times.append(time.perf_counter() - t0)
            digests.append([hashlib.sha256(Path(f).read_bytes()).hexdigest() for f in files])
        self.checks.operation("set-up", ["repeated set-ups wrote different inputs"]
                              if any(d != digests[0] for d in digests) else [])
        return times

    def operation(self, item, tracer=None):
        """Run, time and check one operation; outputs are deleted after."""
        self.counter += 1
        out = self.work / f"op{self.counter:04d}"
        if tracer is None:
            op, status = self.workload.operate(self.sp, item, out)
        else:
            with tracer.installed(), tracer.span("bench.op"):
                op, status = self.workload.operate(self.sp, item, out)
        try:
            failures = self.workload.check(self.sp, item, out, op, status, self.quality)
        except (OSError, ValueError, KeyError) as exc:
            failures = [f"outputs unreadable: {exc}"]
        if op.key not in self.first_hashes:
            self.first_hashes[op.key] = op.hashes
        elif op.hashes != self.first_hashes[op.key]:
            failures.append(f"{op.key}: output bytes differ from an earlier repeat")
        self.checks.operation(f"op {self.counter}", failures, op.cells)
        op.bytes_written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        shutil.rmtree(out, ignore_errors=True)
        return op


def timing_summary(samples):
    """Median, sample count, and the highest percentile that keeps at least
    ten samples above it (none below 20 samples)."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    if n >= 20:
        pct = math.floor(100 * (1 - 10 / n))
        out[f"p{pct}"] = ordered[min(n - 1, math.ceil(pct / 100 * n) - 1)]
    return out


def mean_per_input(ops, attr):
    """Mean over inputs of the median of each input's samples."""
    by_input = {}
    for o in ops:
        by_input.setdefault(o.key, []).append(getattr(o, attr))
    return statistics.fmean(statistics.median(v) for v in by_input.values())


def untraced_run(runner, args):
    wl = runner.workload
    setup_times = runner.setup(SETUP_REPEATS, SETUP_MIN_S)
    items = wl.items
    min_ops = max(wl.min_ops, len(items) + 1)  # at least one repeated input
    ops = []
    start = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - start < args.seconds:
        ops.append(runner.operation(items[len(ops) % len(items)]))
    firsts = list({o.key: o for o in reversed(ops)}.values())  # first op per input
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "reconstruct_s": mean_per_input(ops, "reconstruct_s"),
        "sweep_s": mean_per_input(ops, "sweep_s"),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_mb,
        "rmse_bins": rmse_of([e for o in firsts for e in o.errors]),
    }
    detail = {
        "reconstruct_s": timing_summary([o.reconstruct_s for o in ops]),
        "sweep_s": timing_summary([o.sweep_s for o in ops]),
        "setup_s": timing_summary(setup_times),
        "rmse_bins_max": max(rmse_of([e]) for o in firsts for e in o.errors),
        "reconstruct_samples": [o.reconstruct_s for o in ops],
        "resolved_groups": [o.groups for o in ops],
        "solves": [s for o in ops for s in o.solves],
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, detail, None


def traced_run(runner, args, run_id):
    from tracing import Tracer

    wl = runner.workload
    tracer = Tracer(run_id)
    runner.setup(1, tracer=tracer)
    items = wl.trace_items()
    pairs = []
    start = time.perf_counter()
    # Whole passes over the inputs, so the layer numbers average the same
    # mix on every commit; the side that runs first alternates per pair.
    while (len(pairs) < 2 or time.perf_counter() - start < args.seconds
           or len(pairs) % len(items)):
        item = items[len(pairs) % len(items)]
        if len(pairs) % 2:
            traced = runner.operation(item, tracer)
            plain = runner.operation(item)
        else:
            plain = runner.operation(item)
            traced = runner.operation(item, tracer)
        pairs.append((plain, traced))
    metrics, detail = layer_metrics(tracer, pairs, wl.primary, wl.entry)
    runner.checks.operation("trace", detail["entry_failures"])
    return metrics, detail, tracer


def entry_accounting(tracer, ops, measured, entry):
    """Compare each op's first ``entry`` span with the primary time measured
    around the same call from outside; returns the failures and, per op, the
    share of the measured time that no direct child of the entry span (no
    named layer) covers."""
    failures, unattributed = [], []
    for (lo, hi), seconds in zip(ops, measured):
        spans = tracer.spans
        head = next((i for i in range(lo + 1, hi)
                     if spans[i][3] == lo and spans[i][0] == entry), None)
        if head is None:
            failures.append(f"no {entry} span in a traced op")
            continue
        gap = seconds - (spans[head][2] - spans[head][1])
        if not -1e-4 <= gap <= 0.002 + 0.02 * seconds:
            failures.append(f"{entry} span differs from the measured {seconds:.4f} s "
                            f"by {gap:.4f} s")
        covered = sum(s[2] - s[1] for s in spans[head + 1:hi] if s[3] == head)
        unattributed.append((seconds - covered) / seconds)
    return failures, unattributed


def layer_metrics(tracer, pairs, primary, entry):
    """Per-layer numbers from the spans of the traced operations."""
    own = tracer.self_times()
    ops = tracer.roots("bench.op")
    n_ops = len(ops)
    calls, total, self_s, work_vox, work_bytes = {}, {}, {}, {}, {}
    for lo, hi in ops:
        for i in range(lo, hi):
            name, t0, t1, _parent, work = tracer.spans[i]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (t1 - t0)
            self_s[name] = self_s.get(name, 0.0) + own[i]
            if work:
                work_vox[name] = work_vox.get(name, 0) + work[0]
                work_bytes[name] = work_bytes.get(name, 0) + work[1]
    failures, unattributed = entry_accounting(
        tracer, ops, [getattr(t, primary) for _p, t in pairs], entry)
    sim = [s[2] - s[1] for s in tracer.spans if s[0] == "forward.simulate"]

    def per_call_ms(name):
        return 1e3 * total[name] / calls[name] if calls.get(name) else 0.0

    def per_op(table, name):
        return table.get(name, 0) / n_ops

    solves = [s for _plain, traced in pairs for s in traced.solves]
    iterations = sum(it for it, _ in solves)
    solve_s = total.get("solver.spiral_solve", 0.0)
    values = {}
    prox = "solver.prox_tv_nonneg"
    values[f"{prox}.ms"] = (per_call_ms(prox), "ms")
    values[f"{prox}.calls"] = (per_op(calls, prox), "count")
    values[f"{prox}.share"] = (total.get(prox, 0.0) / solve_s if solve_s else 0.0, "fraction")
    values["solver.trial_steps_per_iter"] = (calls.get(prox, 0) / iterations if iterations else 0.0,
                                             "count")
    values["solver.iterations"] = (iterations / len(solves) if solves else 0.0, "count")
    values["solver.converged"] = (sum(c for _, c in solves) / len(solves) if solves else 0.0,
                                  "fraction")
    values["solver.iter_s"] = (solve_s / iterations if iterations else 0.0, "s")
    values["solver.self_s"] = (self_s.get("solver.spiral_solve", 0.0) / len(solves)
                               if solves else 0.0, "s")
    for name in ("solver.tv_penalty", "solver.extract_depth_reflectivity"):
        values[f"{name}.ms"] = (per_call_ms(name), "ms")
    for name in ("forward.convolve3d", "forward.convolve3d_adjoint", prox):
        n = calls.get(name, 0)
        if name != prox:
            values[f"{name}.ms"] = (per_call_ms(name), "ms")
            values[f"{name}.calls"] = (per_op(calls, name), "count")
        values[f"{name}.computed_voxels"] = (work_vox.get(name, 0) / n if n else 0.0, "count")
        values[f"{name}.computed_mb"] = (work_bytes.get(name, 0) / n / 1e6 if n else 0.0, "MB")
    values["forward.simulate.s"] = (statistics.mean(sim) if sim else 0.0, "s")
    for name in ("baselines.pixelwise_ml", "baselines.reconstruct_no_scan",
                 "io.read_cube", "io.write_cube", "io.write_map", "io.sha256_file"):
        values[f"{name}.ms"] = (per_call_ms(name), "ms")
    values["io.bytes_written"] = (statistics.mean(t.bytes_written for _p, t in pairs), "bytes")
    values["evaluate.run_experiment.self_s"] = (per_op(self_s, "evaluate.run_experiment"), "s")
    values["cli.main.self_s"] = (per_op(self_s, "cli.main"), "s")
    overhead = statistics.median(getattr(t, primary) - getattr(p, primary) for p, t in pairs)
    values["trace.overhead_s"] = (overhead, "s")
    values["trace.unattributed_share"] = (
        statistics.median(unattributed) if unattributed else 1.0, "fraction")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    detail = {"missing_layers": tracer.missing, "entry_failures": failures,
              "traced_ops": n_ops}
    return metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and no quality gates, for the benchmark's own test")
    args = parser.parse_args(argv)

    nproc = _pin_blas_threads()
    sp = _import_splidar()
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}-{time.time_ns()}"
    work = WORK_DIR / "runs" / run_id
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    runner = Runner(sp, workload, work, args.smoke)
    try:
        if args.trace:
            metrics, detail, tracer = traced_run(runner, args, run_id)
        else:
            metrics, detail, tracer = untraced_run(runner, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = runner.checks
    digest = hashlib.sha256(json.dumps(runner.first_hashes, sort_keys=True).encode()).hexdigest()
    record = {
        "environment": run_environment(nproc, args),
        "workload": args.workload,
        "metrics": metrics,
        "detail": detail,
        "failed_frac": checks.failed / checks.attempted,
        "failures": checks.messages,
        "output_digest": digest,
        "outputs": runner.first_hashes,
    }
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run_id}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        (results / f"{run_id}.spans.json").write_text(json.dumps(tracer.to_json()) + "\n")

    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    for name, summary in detail.items():
        print(f"{'detail.' + name:44s} {summary}")
    print(f"{'failed_frac':44s} {record['failed_frac']:.6g} "
          f"({checks.failed} of {checks.attempted} operations)")
    for message in checks.messages:
        print(f"FAILED {message}")
    print(f"{'output_digest':44s} {digest}")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
