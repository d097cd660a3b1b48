"""Full acceptance protocol.

Nine criteria, each printing a single verdict line so the run log reads as a
checklist. The two experiment sweeps are module-scoped fixtures shared
between criteria; the monotonicity criterion re-reads every solver trace
those sweeps produced. Wall-clock budgets: the chart sweep must finish in
5 minutes, the low-light sweep in 30.
"""

import filecmp
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from splidar.cli import main as cli_main
from splidar.evaluate import ExperimentSpec, resolved_groups, run_experiment
from splidar.forward import (
    Kernel,
    ScanConfig,
    calibrate_flux,
    convolve3d,
    convolve3d_adjoint,
    make_kernel,
    rayleigh_resolution,
    sbr_window_bins,
    simulate,
)
from splidar.scene import SPEED_OF_LIGHT, RDVolume, Scene, scene_to_rd
from splidar.solver import (
    SolverConfig,
    extract_depth_reflectivity,
    neg_log_likelihood,
    nll_gradient,
    spiral_solve,
)

import conftest
from conftest import EXPERIMENT_SCAN


def _verdict(num, name, ok, detail):
    line = f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    conftest.ACCEPTANCE_VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _median_rmse(rows, method, ppp):
    vals = [
        float(r["rmse_m"])
        for r in rows
        if r["method"] == method and float(r["ppp"]) == ppp
        and r["status"] == "ok"
    ]
    assert len(vals) == 3, (method, ppp, vals)
    return float(np.median(vals))


def _shipped_spec(name):
    path = Path(__file__).parent.parent / "experiments" / name
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def chart_run(tmp_path_factory):
    spec = ExperimentSpec.from_dict(_shipped_spec("chart.json"))
    out = tmp_path_factory.mktemp("accept_chart")
    started = time.perf_counter()
    rows = run_experiment(spec, out)
    elapsed = time.perf_counter() - started
    return rows, out, elapsed


@pytest.fixture(scope="module")
def natural_run(tmp_path_factory, natural_scene_dir):
    raw = _shipped_spec("lowlight.json")
    raw["scene"]["path"] = str(natural_scene_dir)
    spec = ExperimentSpec.from_dict(raw)
    out = tmp_path_factory.mktemp("accept_natural")
    started = time.perf_counter()
    rows = run_experiment(spec, out)
    elapsed = time.perf_counter() - started
    return rows, out, elapsed


@pytest.fixture(scope="module")
def identity_run():
    rng = np.random.default_rng(0)
    truth = np.zeros((12, 12, 24))
    for i in range(12):
        for j in range(12):
            truth[i, j, rng.integers(0, 24)] = 1000.0 * (0.3 + 0.7 * rng.random())
    delta = Kernel(spatial=np.ones((1, 1)), temporal=np.ones(1), n=0)
    config = SolverConfig(beta=0.0, max_iters=50, rel_tol=1e-12)
    volume, report = spiral_solve(
        truth, delta, 0.0, config, init=np.ones_like(truth)
    )
    return truth, volume, report


@pytest.mark.slow
def test_criterion_1_chart_resolution_ordering(chart_run):
    rows, _, elapsed = chart_run
    counts = {}
    for row in rows:
        assert row["status"] == "ok", row
        contrasts = [float(c) for c in row["contrasts"].split(";")]
        counts[row["method"]] = resolved_groups(contrasts)
    dec, ml, ns = counts["deconv3d"], counts["ml"], counts["noscan"]
    ok = (dec >= ml + 1 >= ns + 2) and elapsed < 300
    _verdict(
        1,
        "chart resolution ordering",
        ok,
        f"resolved groups deconv3d={dec} ml={ml} noscan={ns}, "
        f"chain {dec}>={ml + 1}>={ns + 2}, {elapsed:.0f}s < 300s",
    )


@pytest.mark.slow
def test_criterion_2_lowlight_rmse_ordering(natural_run):
    rows, _, elapsed = natural_run
    ppps = (1.0, 5.0, 10.0)
    dec = {p: _median_rmse(rows, "deconv3d", p) for p in ppps}
    ml = {p: _median_rmse(rows, "ml", p) for p in ppps}
    beats = all(dec[p] < ml[p] for p in ppps)
    monotone = dec[1.0] > dec[5.0] > dec[10.0]
    ok = beats and monotone and elapsed < 1800
    detail = ", ".join(
        f"ppp={p:g}: deconv {dec[p]:.3f} vs ml {ml[p]:.3f}" for p in ppps
    )
    _verdict(
        2,
        "low-light rmse ordering",
        ok,
        f"{detail}; monotone={monotone}; {elapsed:.0f}s < 1800s",
    )


def test_criterion_3_rayleigh_numbers():
    angle = rayleigh_resolution(1550e-9, 0.279)
    footprint_cm = angle * 8200 * 100
    ok = abs(angle * 1e6 - 13.5) < 0.1 and abs(footprint_cm - 11.1) < 0.1
    _verdict(
        3,
        "rayleigh reference numbers",
        ok,
        f"{angle * 1e6:.3f} urad (13.5 +- 0.1), "
        f"{footprint_cm:.2f} cm at 8200 m (11.1 +- 0.1)",
    )


def test_criterion_4_gradient_oracle():
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(20):
        cfg = ScanConfig(
            n=1 + trial % 2,
            jitter_fwhm=(0.5 + (trial % 3)) * 1e-9,
            bin_width=1e-9,
            n_bins=16,
            sbr_window=16e-9,
        )
        k = make_kernel(cfg)
        x = rng.random((5, 5, 16)) + 0.2
        y = rng.poisson(2.0, size=(5, 5, 16)).astype(np.float64)
        b = 0.1 + rng.random()
        grad = nll_gradient(x, y, k, b)
        scale = np.abs(grad).max()
        h = 1e-6
        coords = rng.integers(0, [5, 5, 16], size=(40, 3))
        for i, j, t in coords:
            xp, xm = x.copy(), x.copy()
            xp[i, j, t] += h
            xm[i, j, t] -= h
            fd = (
                neg_log_likelihood(xp, y, k, b)
                - neg_log_likelihood(xm, y, k, b)
            ) / (2 * h)
            worst = max(worst, abs(fd - grad[i, j, t]) / scale)
    ok = worst < 1e-5
    _verdict(
        4,
        "gradient vs central differences",
        ok,
        f"20 instances of 5x5x16, max relative error {worst:.2e} < 1e-5",
    )


def test_criterion_5_adjoint_oracle():
    rng = np.random.default_rng(5)
    worst = 0.0
    for trial in range(20):
        h = int(rng.integers(6, 11))
        w = int(rng.integers(6, 11))
        t = int(rng.integers(10, 21))
        cfg = ScanConfig(
            n=1 + trial % 2,
            jitter_fwhm=(0.5 + (trial % 4) / 2) * 1e-9,
            bin_width=1e-9,
            n_bins=t,
            sbr_window=t * 1e-9,
        )
        k = make_kernel(cfg)
        u = rng.standard_normal((h, w, t))
        v = rng.standard_normal((h, w, t))
        lhs = np.vdot(convolve3d(k, u, 0.0), v)
        rhs = np.vdot(u, convolve3d_adjoint(k, v))
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    ok = worst < 1e-8
    _verdict(
        5,
        "adjoint identity",
        ok,
        f"20 random instances, max relative error {worst:.2e} < 1e-8",
    )


@pytest.mark.slow
def test_criterion_6_monotone_objective_traces(
    chart_run, natural_run, identity_run
):
    traces = []
    for _, out, _ in (chart_run, natural_run):
        for report_path in sorted(Path(out).rglob("report.json")):
            report = json.loads(report_path.read_text())
            traces.append((str(report_path), report["objective_trace"]))
    traces.append(("identity_run", identity_run[2].objective_trace))
    violations = [
        name
        for name, trace in traces
        if any(b > a for a, b in zip(trace, trace[1:]))
    ]
    ok = not violations and len(traces) >= 11
    _verdict(
        6,
        "monotone objective traces",
        ok,
        f"{len(traces)} traces, exact non-increase, violations={violations}",
    )


def test_criterion_7_poisson_calibration():
    cfg = ScanConfig(
        n=2, jitter_fwhm=1e-9, bin_width=0.8e-9, n_bins=128, sbr_window=100e-9
    )
    assert sbr_window_bins(cfg) == 125
    # the worked example: ppp=1, sbr=0.2 over a 125-bin window gives b=0.04
    flux = scene_to_rd(
        Scene(reflectivity=np.full((6, 6), 0.5), depth=np.full((6, 6), 3.0)),
        cfg.bin_width,
        cfg.n_bins,
    ).data
    lam = convolve3d(make_kernel(cfg), flux, 0.0)
    _, b_example = calibrate_flux(lam, ppp=1.0, sbr=0.2, config=cfg)
    example_ok = abs(b_example - 0.04) < 1e-12

    scene = Scene(
        reflectivity=np.full((32, 32), 0.6), depth=np.full((32, 32), 3.0)
    )
    n_seeds, ppp = 100, 10.0
    totals = np.empty(n_seeds)
    background = np.empty(n_seeds)
    b = None
    for s in range(n_seeds):
        cube = simulate(scene, cfg, ppp=ppp, sbr=0.2, seed=s)
        b = cube.background_per_bin
        totals[s] = cube.counts.sum(axis=2).mean()
        background[s] = cube.counts[:, :, 40:].mean()  # signal sits near bin 25
    n_pix = 32 * 32
    sig_mean = totals.mean() - cfg.n_bins * b
    sig_se = np.sqrt((ppp + cfg.n_bins * b) / (n_seeds * n_pix))
    bg_mean = background.mean()
    bg_se = np.sqrt(b / (n_seeds * n_pix * (cfg.n_bins - 40)))
    ok = (
        example_ok
        and abs(b - 0.4) < 1e-12
        and abs(sig_mean - ppp) < 3 * sig_se
        and abs(bg_mean - b) < 3 * bg_se
    )
    _verdict(
        7,
        "poisson calibration moments",
        ok,
        f"signal {sig_mean:.4f} vs {ppp} (3se={3 * sig_se:.4f}), "
        f"background {bg_mean:.5f} vs {b} (3se={3 * bg_se:.5f}), "
        f"example b={b_example:.4f}",
    )


def test_criterion_8_noiseless_identity_recovery(identity_run):
    truth, volume, report = identity_run
    pos = truth > 0
    rel = np.abs(volume.data[pos] - truth[pos]) / truth[pos]
    zero_abs = np.abs(volume.data[~pos]).max()
    ok = rel.max() < 1e-3 and zero_abs < 1e-3 and report.iterations <= 50
    _verdict(
        8,
        "noiseless identity recovery",
        ok,
        f"max relative error {rel.max():.2e} < 1e-3, empty voxels "
        f"{zero_abs:.1e}, {report.iterations} iterations <= 50",
    )


def test_criterion_9_round_trip_and_determinism(tmp_path):
    # volume round trip: bin-aligned scenes survive scene_to_rd -> extract
    rng = np.random.default_rng(9)
    cfg = EXPERIMENT_SCAN
    k = rng.integers(3, 20, size=(10, 10))
    depth = (cfg.t0 + k * cfg.bin_width) * (SPEED_OF_LIGHT / 2.0)
    refl = np.rint(rng.random((10, 10)) * 65534 + 1) / 65535
    scene = Scene(reflectivity=refl, depth=depth)
    rd = scene_to_rd(scene, cfg.bin_width, cfg.n_bins, t0=cfg.t0)
    maps = extract_depth_reflectivity(rd, window_half=0)
    round_trip_ok = (
        np.array_equal(maps.depth, depth)
        and np.array_equal(maps.reflectivity, refl)
        and maps.valid.all()
    )

    # CLI determinism: identical seeds and flags give byte-identical trees
    outputs = []
    for tag in ("a", "b"):
        root = tmp_path / tag
        scene_dir = root / "scene"
        cube = root / "cube.sph1"
        assert cli_main(["make-scene", "chart", "-o", str(scene_dir)]) == 0
        assert cli_main([
            "simulate", str(scene_dir), "-o", str(cube),
            "--n", "4", "--ppp", "10", "--sbr", "0.2", "--seed", "0",
            "--bins", "64", "--bin-width", "1.6e-9",
        ]) == 0
        assert cli_main([
            "reconstruct", str(cube), "-o", str(root / "rec"),
            "--method", "deconv3d", "--beta", "0.01", "--max-iters", "2",
        ]) == 0
        assert cli_main([
            "reconstruct", str(cube), "-o", str(root / "ml"),
            "--method", "ml",
        ]) == 0
        assert cli_main([
            "render", str(root / "rec" / "depth.pgm"),
            "-o", str(root / "depth.ppm"), "--colormap", "fire",
        ]) == 0
        outputs.append(root)
    a, b = outputs
    rel_paths = sorted(
        p.relative_to(a) for p in a.rglob("*") if p.is_file()
    )
    mismatches = [
        str(rel)
        for rel in rel_paths
        if not filecmp.cmp(a / rel, b / rel, shallow=False)
    ]
    cli_ok = not mismatches and len(rel_paths) >= 12
    ok = round_trip_ok and cli_ok
    _verdict(
        9,
        "round trip and determinism",
        ok,
        f"scene round trip exact={round_trip_ok}; {len(rel_paths)} CLI "
        f"artifacts byte-compared, mismatches={mismatches}",
    )
