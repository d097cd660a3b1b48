"""Objective terms, TV prox, solve loop behavior, and map extraction."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize

import splidar
from splidar.baselines import pixelwise_ml, reconstruct_no_scan
from splidar.evaluate import reconstruct_cell
from splidar.forward import HistogramCube, ScanConfig, make_kernel, simulate
from splidar.scene import SPEED_OF_LIGHT, RDVolume, Scene, make_resolution_chart
from splidar.solver import (
    SolveReport,
    SolverConfig,
    extract_depth_reflectivity,
    load_volume,
    neg_log_likelihood,
    nll_gradient,
    ProxScratch,
    prox_tv_nonneg,
    save_volume,
    spiral_solve,
    tv_penalty,
)

from test_forward import brute_force_conv3d, delta_kernel


def small_kernel():
    return make_kernel(
        ScanConfig(n=1, jitter_fwhm=1e-9, bin_width=1e-9, n_bins=8,
                   sbr_window=8e-9)
    )


# --- likelihood ---------------------------------------------------------


def test_nll_matches_loop_oracle():
    rng = np.random.default_rng(0)
    k = small_kernel()
    x = rng.random((5, 5, 8)) * 3
    y = rng.poisson(2.0, size=(5, 5, 8)).astype(np.float64)
    b, floor = 0.3, 1e-10
    lam = brute_force_conv3d(np.outer(k.xy, k.xy), k.temporal, x) + b
    oracle = float(np.sum(lam) - np.sum(y * np.log(np.maximum(lam, floor))))
    got = neg_log_likelihood(x, y, k, b)
    assert got == pytest.approx(oracle, rel=1e-12)


def test_nll_zero_flux_bins_stay_finite():
    k = delta_kernel()
    x = np.zeros((3, 3, 4))
    y = np.ones((3, 3, 4))
    val = neg_log_likelihood(x, y, k, 0.0)
    assert np.isfinite(val)
    # Lambda == floor inside the log: val = -sum(log(floor))
    assert val == pytest.approx(-36 * np.log(1e-10))


def test_likelihood_terms_reject_bad_background():
    x = np.ones((3, 3, 8))
    for bad in (-1.0, float("nan"), float("inf")):
        for term in (neg_log_likelihood, nll_gradient):
            with pytest.raises(ValueError, match="background"):
                term(x, x, small_kernel(), bad)


def test_nll_shape_mismatch():
    with pytest.raises(ValueError):
        neg_log_likelihood(np.zeros((2, 2, 3)), np.zeros((2, 2, 4)),
                           delta_kernel(), 0.0)


def test_gradient_zero_at_perfect_fit():
    rng = np.random.default_rng(1)
    k = small_kernel()
    x = rng.random((6, 6, 8))
    lam = brute_force_conv3d(np.outer(k.xy, k.xy), k.temporal, x) + 0.2
    g = nll_gradient(x, lam, k, 0.2)
    assert np.abs(g).max() < 1e-12


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    k = small_kernel()
    x = rng.random((4, 4, 8)) + 0.5
    y = rng.poisson(3.0, size=(4, 4, 8)).astype(np.float64)
    b = 0.4
    grad = nll_gradient(x, y, k, b)
    h = 1e-6
    scale = np.abs(grad).max()
    idx = [(0, 0, 0), (1, 2, 3), (3, 3, 7), (2, 1, 4)]
    for i, j, t in idx:
        xp, xm = x.copy(), x.copy()
        xp[i, j, t] += h
        xm[i, j, t] -= h
        fd = (
            neg_log_likelihood(xp, y, k, b) - neg_log_likelihood(xm, y, k, b)
        ) / (2 * h)
        assert abs(fd - grad[i, j, t]) < 1e-5 * scale


# --- TV penalty ---------------------------------------------------------


def test_tv_hand_case():
    slice_ = np.array([[0.0, 1.0], [2.0, 3.0]])
    x = slice_[:, :, None]
    # row diffs |2-0|+|3-1| = 4, col diffs |1-0|+|3-2| = 2
    assert tv_penalty(x) == pytest.approx(6.0)
    two = np.repeat(x, 2, axis=2)
    assert tv_penalty(two) == pytest.approx(12.0)
    ramp = np.zeros((1, 1, 3))
    ramp[0, 0] = [0.0, 2.0, 5.0]
    assert tv_penalty(ramp) == 0.0  # bin-axis differences are not penalized


def test_tv_scaling_and_shift_invariance():
    rng = np.random.default_rng(3)
    x = rng.random((6, 7, 4))
    assert tv_penalty(3.0 * x) == pytest.approx(3.0 * tv_penalty(x))
    assert tv_penalty(x + 11.0) == pytest.approx(tv_penalty(x), rel=1e-9)
    assert tv_penalty(np.full((5, 5, 5), 2.3)) == 0.0


# --- TV prox ------------------------------------------------------------


def slice_prox_objective(x, v, w):
    quad = 0.5 * ((x - v) ** 2).sum(axis=(0, 1))
    tv = np.abs(np.diff(x, axis=0)).sum(axis=(0, 1)) + np.abs(
        np.diff(x, axis=1)
    ).sum(axis=(0, 1))
    return quad + w * tv


def test_prox_weight_zero_is_projection():
    rng = np.random.default_rng(4)
    v = rng.normal(size=(5, 6, 3))
    np.testing.assert_array_equal(prox_tv_nonneg(v, 0.0), np.maximum(v, 0))
    np.testing.assert_array_equal(
        prox_tv_nonneg(v, 0.5, inner_iters=0), np.maximum(v, 0)
    )
    # no dual loop runs, so the next call through this workspace starts cold
    dual = np.empty((2 * 5 + 1, 6, 3), dtype=np.float32)
    for weight, iters in ((0.0, 20), (0.5, 0)):
        dual.fill(np.nan)
        np.testing.assert_array_equal(
            prox_tv_nonneg(v, weight, iters, dual=dual), np.maximum(v, 0)
        )
        assert not dual.any()
    with pytest.raises(ValueError):
        prox_tv_nonneg(v, -0.1)
    # a NaN weight used to return max(v, 0) and an infinite one to overflow
    # in the primal update; a gap target must be a finite bound
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="weight"):
            prox_tv_nonneg(v, bad)
    for bad in (-1e-9, -np.inf, np.inf, np.nan):
        with pytest.raises(ValueError, match="gap_target"):
            prox_tv_nonneg(v, 0.5, gap_target=bad)
        with pytest.raises(ValueError, match="gap_target"):
            prox_tv_nonneg(v, 0.0, gap_target=bad)
    # wrong shapes (the two fields stacked, one slice short, one field),
    # float64, and a non-contiguous view, whose flat copy would lose the
    # warm start
    for bad in (np.zeros((2,) + v.shape, np.float32),
                np.zeros((11, 6, 2), np.float32), np.zeros(v.shape, np.float32),
                np.zeros((11, 6, 3)), np.zeros((11, 6, 6), np.float32)[:, :, ::2]):
        with pytest.raises(ValueError, match="dual"):
            prox_tv_nonneg(v, 0.5, dual=bad)
        with pytest.raises(ValueError, match="dual"):
            prox_tv_nonneg(v, 0.0, dual=bad)
    # a scratch of another shape, or a bare array, is refused
    for bad in (ProxScratch((5, 6, 4)), ProxScratch((6, 5, 3)), np.zeros(v.shape)):
        with pytest.raises(ValueError, match="scratch"):
            prox_tv_nonneg(v, 0.5, scratch=bad)
        with pytest.raises(ValueError, match="scratch"):
            prox_tv_nonneg(v, 0.0, scratch=bad)


def test_prox_constant_volume_unchanged():
    v = np.full((6, 6, 2), 1.7)
    np.testing.assert_allclose(prox_tv_nonneg(v, 0.8), v)


def test_prox_output_nonneg_and_never_worse_than_projection():
    rng = np.random.default_rng(5)
    for iters in (1, 3, 20):
        v = rng.normal(size=(7, 6, 4)) * 2
        w = 0.7
        out = prox_tv_nonneg(v, w, inner_iters=iters)
        assert (out >= 0).all()
        got = slice_prox_objective(out, v, w)
        ref = slice_prox_objective(np.maximum(v, 0), v, w)
        assert (got <= ref + 1e-9).all()


def test_prox_two_point_exact():
    # two pixels in a column: each moves toward the other by the weight
    v = np.array([2.0, 0.0]).reshape(2, 1, 1)
    out = prox_tv_nonneg(v, 0.5, inner_iters=200)
    np.testing.assert_allclose(out.ravel(), [1.5, 0.5], atol=1e-4)
    # large weight merges the pair at the mean
    out = prox_tv_nonneg(v, 5.0, inner_iters=200)
    np.testing.assert_allclose(out.ravel(), [1.0, 1.0], atol=1e-4)


def test_prox_1d_column_certified_near_optimal():
    """Duality-gap certificate on a single column.

    For min_{x>=0} 0.5||x-v||^2 + w||Dx||_1 any q with |q|_inf <= 1 yields
    the lower bound g(q) = 0.5||v||^2 - 0.5||max(v - w D^T q, 0)||^2, so
    gap = obj(ours) - g(q) bounds ||ours - optimum||^2 / 2 via the unit
    strong convexity of the quadratic, no matter how q was obtained.
    """
    rng = np.random.default_rng(6)
    n, w = 24, 0.4
    v = rng.normal(1.5, 1.0, size=n)
    out = prox_tv_nonneg(v.reshape(n, 1, 1), w, inner_iters=400).ravel()

    def obj(x):
        return 0.5 * np.sum((x - v) ** 2) + w * np.sum(np.abs(np.diff(x)))

    def dtq(q):
        r = np.zeros(n)
        r[:-1] -= q
        r[1:] += q
        return r

    q = np.zeros(n - 1)
    for _ in range(20000):
        x = np.maximum(v - w * dtq(q), 0.0)
        q = np.clip(q + 0.2 * np.diff(x), -1.0, 1.0)
    bound = 0.5 * np.sum(v * v) - 0.5 * np.sum(
        np.maximum(v - w * dtq(q), 0.0) ** 2
    )
    gap = obj(out) - bound
    assert gap < 1e-6  # implies RMS error below 3e-4 here

    # independent cross-check: at least as good as a smoothed L-BFGS-B solve
    mu = 1e-6

    def smoothed(x):
        d = np.diff(x)
        return 0.5 * np.sum((x - v) ** 2) + w * np.sum(np.sqrt(d * d + mu * mu))

    res = optimize.minimize(
        smoothed,
        np.maximum(v, 0.0),
        method="L-BFGS-B",
        bounds=[(0, None)] * n,
        options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 5000},
    )
    assert obj(out) <= obj(res.x) + 1e-6


# --- solve loop ---------------------------------------------------------


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(beta=-1.0)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="beta"):
            SolverConfig(beta=bad)
    for bad in (-1e-4, float("nan")):
        with pytest.raises(ValueError, match="rel_tol"):
            SolverConfig(rel_tol=bad)
    assert SolverConfig(rel_tol=0.0).rel_tol == 0.0
    with pytest.raises(ValueError, match="max_iters"):
        SolverConfig(max_iters=2.5)
    cfg = SolverConfig(max_iters=300.0)
    assert cfg.max_iters == 300 and type(cfg.max_iters) is int


def test_solver_config_refuses_wrong_kinds():
    for bad in ({"beta": True}, {"beta": "0.1"}, {"max_iters": True},
                {"rel_tol": None}, {"rel_tol": float("inf")}):
        (name, value), = bad.items()
        with pytest.raises(ValueError, match=rf"^solver config: {name} must be"):
            SolverConfig(**bad)
    cfg = SolverConfig(beta=np.float64(0.5), max_iters=np.int64(7))
    assert cfg == SolverConfig(0.5, 7) and type(cfg.max_iters) is int


def test_solve_identity_model_recovers_counts():
    rng = np.random.default_rng(8)
    truth = rng.random((6, 6, 10)) * 4 + 1
    cfg = SolverConfig(beta=0.0, max_iters=50, rel_tol=1e-12)
    vol, rep = spiral_solve(
        truth, delta_kernel(), 0.0, cfg, init=np.ones_like(truth)
    )
    # with a delta kernel and no penalty the optimum is the data itself
    rel = np.abs(vol.data - truth) / truth
    assert rel.max() < 1e-3
    assert rep.iterations <= 50


def test_solve_converges_instantly_at_optimum():
    y = np.full((5, 5, 6), 5.0)
    cfg = SolverConfig(beta=0.0, rel_tol=1e-8)
    vol, rep = spiral_solve(y, delta_kernel(), 0.0, cfg, init=y)
    assert rep.converged
    assert rep.iterations == 1
    assert rep.objective_trace[0] == pytest.approx(rep.objective_trace[1])
    np.testing.assert_allclose(vol.data, y)


@pytest.mark.parametrize("b", [0.0, 0.05])
def test_all_zero_cube_solves_to_zero_with_every_pixel_invalid(b):
    cfg = ScanConfig(n=1, jitter_fwhm=1e-9, bin_width=1e-9, n_bins=8,
                     sbr_window=8e-9)
    cube = HistogramCube(counts=np.zeros((5, 5, 8), dtype=np.int64), config=cfg,
                         background_per_bin=b, rng_seed=0)
    k = make_kernel(cfg)
    vol, rep = spiral_solve(cube.counts, k, b)
    assert rep.converged and rep.iterations == 1
    assert not vol.data.any()
    for maps in (extract_depth_reflectivity(vol), pixelwise_ml(cube.counts, k, b)):
        assert not maps.valid.any()
        assert np.isnan(maps.depth).all()
        assert not maps.reflectivity.any()


def test_solve_trace_monotone_and_report_shape():
    scene = Scene(
        reflectivity=np.full((8, 8), 0.6), depth=np.full((8, 8), 2.0)
    )
    cfg = ScanConfig(n=2, jitter_fwhm=1e-9, bin_width=1.6e-9, n_bins=32,
                     sbr_window=40e-9)
    cube = simulate(scene, cfg, ppp=8.0, sbr=1.0, seed=11)
    k = make_kernel(cfg)
    sol = SolverConfig(beta=0.05, max_iters=25, rel_tol=0.0)
    vol, rep = spiral_solve(cube.counts, k, cube.background_per_bin, sol)
    trace = np.asarray(rep.objective_trace)
    assert not rep.converged  # rel_tol=0 never stops early
    assert rep.iterations == 25
    assert trace.size == rep.iterations + 1
    assert (np.diff(trace) <= 0).all()
    assert len(rep.backtracks) == rep.iterations
    assert min(rep.backtracks) >= 0
    assert sum(rep.backtracks) == rep.trial_steps - rep.iterations
    assert rep.to_dict()["backtracks"] == rep.backtracks
    assert (vol.data >= 0).all()
    assert (vol.bin_width, vol.t0) == (1.0, 0.0)  # a bare array reads at bin width 1
    assert np.isfinite(trace).all()


def test_warm_started_prox_keeps_backtracking_rare(natural_scene):
    # one 12x12 tile of the natural scene at ppp 1, solved as the
    # natural-lowlight benchmark does; a prox cold-started at every trial
    # made 306 trial steps in 60 iterations (5.1 per iteration) here, and
    # BB1 proposals alone 57 in 32 (1.78); alternating BB1 and BB2 makes 32
    # in 29 (1.10)
    win = (slice(42, 54), slice(56, 68))
    tile = Scene(reflectivity=natural_scene.reflectivity[win].copy(),
                 depth=natural_scene.depth[win].copy())
    cfg = ScanConfig(n=4, jitter_fwhm=1e-9, bin_width=1.6e-9, n_bins=64)
    cube = simulate(tile, cfg, ppp=1.0, sbr=0.2, seed=0)
    _, rep, _, _ = reconstruct_cell(cube, "deconv3d",
                                    SolverConfig(beta=0.1, rel_tol=1e-3))
    assert rep.converged
    assert rep.iterations <= rep.trial_steps < 1.25 * rep.iterations
    assert rep.to_dict()["trial_steps"] == rep.trial_steps


def test_alternating_bb_steps_keep_the_chart_free_of_backtracks():
    # the gated seed-0 chart cube at ppp 10, capped at 12 iterations as the
    # chart-deconv benchmark is; BB1 proposals alone overshot and took 19
    # trial steps here, alternating BB1 and BB2 takes 12
    cfg = ScanConfig(n=4, jitter_fwhm=1e-9, bin_width=1.6e-9, n_bins=64)
    cube = simulate(make_resolution_chart(), cfg, ppp=10.0, sbr=0.2, seed=0)
    _, rep, _, _ = reconstruct_cell(
        cube, "deconv3d", SolverConfig(beta=0.01, max_iters=12, rel_tol=0.0)
    )
    assert rep.iterations == 12
    assert rep.trial_steps <= 13


# tile 26 of the natural-lowlight benchmark at seed 1505, solved with no
# relative-change stop; prints the solve report as JSON
_STALLED_SOLVE = """
import json, sys
from splidar import ScanConfig, Scene, SolverConfig, load_scene_dir, simulate
from splidar.evaluate import reconstruct_cell
natural, _ = load_scene_dir(sys.argv[1])
win = (slice(42, 54), slice(70, 82))
tile = Scene(reflectivity=natural.reflectivity[win].copy(),
             depth=natural.depth[win].copy())
cfg = ScanConfig(n=4, jitter_fwhm=1e-9, bin_width=1.6e-9, n_bins=64)
cube = simulate(tile, cfg, ppp=1.0, sbr=0.2, seed=1505026)
_, rep, _, _ = reconstruct_cell(
    cube, "deconv3d", SolverConfig(beta=0.1, max_iters=600, rel_tol=0.0)
)
print(json.dumps(rep.to_dict()))
"""


def _run_python(script, *args, **env_vars):
    """stdout of script run with args in a new interpreter, with env_vars
    set (BLAS settings are fixed at process start); the package and this
    directory's modules are found where this interpreter found them."""
    package_root = str(Path(splidar.__file__).resolve().parent.parent)
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (package_root, str(Path(__file__).parent),
                      env.get("PYTHONPATH")))
    )
    run = subprocess.run([sys.executable, "-c", script, *args], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=300)
    return run.stdout


def test_a_stalled_solve_ends_converged(natural_scene_dir):
    # after iteration 93 the objective has stalled at rounding level and no
    # doubling of alpha passes the decrease test; the solve ends there as
    # converged at the last accepted iterate. The stall iteration follows
    # the last bit of the convolution's products, which depends on the BLAS
    # kernel, so the solve runs on OpenBLAS's generic x86-64 kernel
    # (Prescott), which every x86-64 host can run.
    report = _run_python(_STALLED_SOLVE, str(natural_scene_dir),
                         OPENBLAS_CORETYPE="Prescott")
    rep = SolveReport(**json.loads(report))
    trace = np.asarray(rep.objective_trace)
    assert rep.converged
    assert rep.iterations == 93
    assert len(rep.backtracks) == rep.iterations == trace.size - 1
    assert (np.diff(trace) <= 0).all()
    assert rep.final_rel_change < 1e-12
    # the stalled iteration's 51 rejected trials count in trial_steps only
    assert rep.trial_steps == rep.iterations + sum(rep.backtracks) + 51


def test_solve_deterministic():
    scene = Scene(
        reflectivity=np.full((6, 6), 0.5), depth=np.full((6, 6), 1.5)
    )
    cfg = ScanConfig(n=1, jitter_fwhm=1e-9, bin_width=1.6e-9, n_bins=16,
                     sbr_window=25e-9)
    cube = simulate(scene, cfg, ppp=5.0, sbr=0.5, seed=3)
    k = make_kernel(cfg)
    sol = SolverConfig(beta=0.02, max_iters=15)
    va, ra = spiral_solve(cube.counts, k, cube.background_per_bin, sol)
    data, report = va.data.tobytes(), json.dumps(ra.to_dict())
    # the per-solve buffers are not shared: a solve of another cube in
    # between leaves the first one's volume and report as they were
    other = simulate(Scene(reflectivity=np.full((6, 6), 0.8), depth=np.full((6, 6), 2.0)),
                     cfg, ppp=5.0, sbr=0.5, seed=4)
    vo, _ = spiral_solve(other.counts, k, other.background_per_bin, sol)
    assert vo.data.tobytes() != data
    vb, rb = spiral_solve(cube.counts, k, cube.background_per_bin, sol)
    assert va.data.tobytes() == data == vb.data.tobytes()
    assert json.dumps(ra.to_dict()) == report == json.dumps(rb.to_dict())


# four iterations of the acceptance chart solve, so both BB1 (iterations 2
# and 4) and BB2 (iteration 3) proposals are covered, then a gated 12x12
# natural tile solved as the natural-lowlight benchmark solves its tiles;
# prints each volume's sha256
_CHART_SOLVE = """
import hashlib
from conftest import synth_natural_scene
from splidar import (ScanConfig, Scene, SolverConfig, make_kernel,
                     make_resolution_chart, simulate, spiral_solve)
from splidar.evaluate import reconstruct_cell
cfg = ScanConfig(n=4, jitter_fwhm=1e-9, bin_width=1.6e-9, n_bins=64)
cube = simulate(make_resolution_chart(), cfg, 10.0, 0.2, 0)
solver = SolverConfig(beta=0.01, max_iters=4, rel_tol=0.0)
vol, _ = spiral_solve(cube.counts, make_kernel(cfg), cube.background_per_bin, solver)
print(hashlib.sha256(vol.data.tobytes()).hexdigest())
natural = synth_natural_scene()
win = (slice(42, 54), slice(70, 82))
tile = Scene(reflectivity=natural.reflectivity[win], depth=natural.depth[win])
cube = simulate(tile, cfg, 1.0, 0.2, 1505026)
_, _, vol, _ = reconstruct_cell(cube, "deconv3d", SolverConfig(0.1, 200, 1e-3))
print(hashlib.sha256(vol.data.tobytes()).hexdigest())
"""


def test_solve_bytes_do_not_depend_on_blas_threads():
    digests = {
        _run_python(_CHART_SOLVE, OPENBLAS_NUM_THREADS=threads,
                    OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads).strip()
        for threads in ("1", "2")
    }
    assert len(digests) == 1, digests


def test_solve_rejects_bad_inputs():
    with pytest.raises(ValueError):
        spiral_solve(np.zeros((4, 4)), delta_kernel(), 0.0)
    with pytest.raises(ValueError):
        spiral_solve(np.zeros((4, 4, 4)), delta_kernel(), -1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            spiral_solve(np.ones((4, 4, 4)), delta_kernel(), bad)
        counts = np.ones((4, 4, 4))
        counts[1, 2, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            spiral_solve(counts, delta_kernel(), 0.1)
        init = np.ones((4, 4, 4))
        init[0, 1, 2] = bad
        with pytest.raises(ValueError, match="init must be finite"):
            spiral_solve(np.ones((4, 4, 4)), delta_kernel(), 0.1, init=init)
    counts = np.ones((4, 4, 4))
    counts[2, 2, 2] = -1.0
    with pytest.raises(ValueError, match="non-negative"):
        spiral_solve(counts, delta_kernel(), 0.1)
    with pytest.raises(ValueError, match="shape"):  # would broadcast
        spiral_solve(np.ones((4, 4, 4)), delta_kernel(), 0.1,
                     init=np.ones((4, 4, 1)))



def test_methods_take_bare_counts_and_a_kernel():
    # one contract for deconv3d, ml, noscan and the likelihood terms: a bare
    # count array, the Kernel and the background; a HistogramCube in place
    # of the counts, or a raw template in place of the Kernel, is refused
    cfg = ScanConfig(n=1, jitter_fwhm=1e-9, bin_width=1e-9, n_bins=8,
                     sbr_window=8e-9)
    counts = np.zeros((4, 4, 8), dtype=np.int64)
    counts[1, 2, 3] = 5
    cube = HistogramCube(counts=counts, config=cfg, background_per_bin=0.1,
                         rng_seed=0)
    k, x = make_kernel(cfg), np.ones((4, 4, 8))
    methods = {
        "deconv3d": lambda y, g: spiral_solve(y, g, 0.1, SolverConfig(max_iters=1)),
        "ml": lambda y, g: pixelwise_ml(y, g, 0.1),
        "noscan": lambda y, g: reconstruct_no_scan(y, g, 0.1, 2),
        "nll": lambda y, g: neg_log_likelihood(x, y, g, 0.1),
        "gradient": lambda y, g: nll_gradient(x, y, g, 0.1),
    }
    for name, method in methods.items():
        method(counts, k)
        with pytest.raises((TypeError, ValueError)):
            method(cube, k)
        with pytest.raises(AttributeError):
            method(counts, k.temporal)
    # maps read at bin width 1 and t0 0
    assert methods["ml"](counts, k).depth[1, 2] == 3 * SPEED_OF_LIGHT / 2.0
    # a NaN or a negative count is refused wherever it sits, also at a scan
    # position that noscan drops (factor 2 keeps rows and columns 0 and 2),
    # and integer counts are checked in their own dtype
    for bad, dtype in ((np.nan, np.float64), (-1.0, np.float64), (-1, np.int64),
                       (-1, np.int8)):
        y = counts.astype(dtype)
        y[1, 1, 0] = bad
        for method in methods.values():
            with pytest.raises(ValueError, match="finite and non-negative"):
                method(y, k)

# --- extraction ---------------------------------------------------------


def test_extract_hand_case():
    data = np.zeros((2, 2, 6))
    data[0, 0, 2] = 3.0
    data[0, 0, 3] = 1.0
    data[0, 1, 0] = 2.0
    data[1, 0, 2] = 1.0
    data[1, 0, 4] = 1.0  # tie: smallest bin wins
    rd = RDVolume(data=data, bin_width=2e-9, t0=1e-9)
    maps = extract_depth_reflectivity(rd, window_half=1)
    half_c = SPEED_OF_LIGHT / 2.0
    assert maps.depth[0, 0] == pytest.approx((1e-9 + 2 * 2e-9) * half_c)
    assert maps.depth[0, 1] == pytest.approx(1e-9 * half_c)
    assert maps.depth[1, 0] == pytest.approx((1e-9 + 2 * 2e-9) * half_c)
    assert maps.reflectivity[0, 0] == pytest.approx(4.0)  # bins 1..3
    assert maps.reflectivity[0, 1] == pytest.approx(2.0)  # clipped at edge
    assert not maps.valid[1, 1]
    assert np.isnan(maps.depth[1, 1])
    assert maps.reflectivity[1, 1] == 0.0
    with pytest.raises(ValueError):
        extract_depth_reflectivity(rd, window_half=-1)


def test_extract_window_zero_takes_peak_only():
    data = np.zeros((1, 1, 5))
    data[0, 0] = [0.5, 2.0, 1.0, 0.0, 0.0]
    rd = RDVolume(data=data, bin_width=1e-9, t0=0.0)
    maps = extract_depth_reflectivity(rd, window_half=0)
    assert maps.reflectivity[0, 0] == pytest.approx(2.0)


def test_extract_time_shift_moves_depth_one_bin():
    rng = np.random.default_rng(9)
    data = np.zeros((3, 3, 12))
    data[:, :, 4:7] = rng.random((3, 3, 3)) + 0.5
    rd0 = RDVolume(data=data, bin_width=1e-9, t0=0.0)
    rd1 = RDVolume(data=np.roll(data, 1, axis=2), bin_width=1e-9, t0=0.0)
    m0 = extract_depth_reflectivity(rd0, window_half=1)
    m1 = extract_depth_reflectivity(rd1, window_half=1)
    half_c = SPEED_OF_LIGHT / 2.0
    np.testing.assert_allclose(m1.depth - m0.depth, 1e-9 * half_c)
    np.testing.assert_allclose(m1.reflectivity, m0.reflectivity)


# --- persistence --------------------------------------------------------


def test_volume_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    rd = RDVolume(data=rng.random((4, 5, 6)), bin_width=0.8e-9, t0=2e-9)
    p = tmp_path / "vol.spr1"
    save_volume(rd, p)
    back = load_volume(p)
    np.testing.assert_allclose(back.data, rd.data)  # stored as float32 cube
    assert back.bin_width == rd.bin_width
    assert back.t0 == rd.t0


def test_load_volume_requires_sidecar(tmp_path):
    from splidar.io import write_cube

    p = tmp_path / "bare.spr1"
    write_cube(p, np.zeros((2, 2, 2)), None)
    with pytest.raises(ValueError, match="sidecar"):
        load_volume(p)
