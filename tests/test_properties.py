"""Property tests: the adjoint identity, cubes drawn from one shared flux,
the TV prox guarantees and the TV it hands back, the range gate's effect on
the ml estimator, the ml filter's bytes and file round trips, each on
shapes and values drawn by Hypothesis (profile in conftest.py:
derandomized, no example database)."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from splidar import io
from splidar.baselines import _correlate_symmetric, pixelwise_ml
from splidar.evaluate import _at_full_depth, reconstruct_cell
from splidar.forward import (
    HistogramCube,
    ScanConfig,
    convolve3d,
    convolve3d_adjoint,
    draw_cube,
    make_kernel,
    scene_flux,
    simulate,
)
from splidar.scene import SPEED_OF_LIGHT, Scene
from splidar.solver import (
    _PROX_GAP_CHECK,
    ProxScratch,
    SolverConfig,
    _slice_objectives,
    prox_tv_nonneg,
    tv_penalty,
)

from test_forward import random_separable_kernel
from test_io import BAD_VALUES, READERS, damage_key, key_paths, valid_file

seeds = st.integers(0, 2**32 - 1)


@st.composite
def kernels_and_shapes(draw):
    n = draw(st.integers(0, 2))
    m = 2 * draw(st.integers(0, 3)) + 1
    side = 2 * n + 1
    shape = (draw(st.integers(side, side + 6)), draw(st.integers(side, side + 6)),
             draw(st.integers(m, m + 8)))
    return n, m, shape


@given(kernels_and_shapes(), seeds)
def test_adjoint_identity_on_random_kernels_and_shapes(geometry, seed):
    n, m, shape = geometry
    rng = np.random.default_rng(seed)
    k = random_separable_kernel(rng, n, m)
    u, v = rng.random(shape), rng.random(shape)
    lhs = np.vdot(convolve3d(k, u, 0.0), v)
    rhs = np.vdot(u, convolve3d_adjoint(k, v))
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


@st.composite
def scenes_and_scans(draw):
    """A small scan and a scene whose every depth falls on one of its bins,
    with some reflectivity."""
    n, n_bins = draw(st.integers(1, 2)), draw(st.integers(6, 20))
    config = ScanConfig(n=n, jitter_fwhm=draw(st.sampled_from([0.0, 1e-9, 2e-9])),
                        bin_width=1.6e-9, n_bins=n_bins, sbr_window=4 * 1.6e-9)
    shape = (draw(st.integers(2 * n + 1, 2 * n + 6)),
             draw(st.integers(2 * n + 1, 2 * n + 6)))
    rng = np.random.default_rng(draw(seeds))
    reflectivity = rng.random(shape) * (rng.random(shape) < 0.8)
    assume(reflectivity.any())
    depth = rng.integers(0, n_bins, shape) * (config.bin_width * SPEED_OF_LIGHT / 2)
    return Scene(reflectivity=reflectivity, depth=depth), config


@given(scenes_and_scans(), st.lists(st.floats(1e-3, 50.0), min_size=1, max_size=3),
       st.floats(0.05, 20.0), st.lists(seeds, min_size=1, max_size=3))
def test_cubes_drawn_from_one_flux_match_simulate(scene_and_scan, ppps, sbr, cube_seeds):
    # run_experiment draws every cube of a sweep from one scene_flux
    scene, config = scene_and_scan
    flux = scene_flux(scene, config)
    before = flux.tobytes()
    for ppp in ppps:
        for seed in cube_seeds:
            got = draw_cube(flux, config, ppp, sbr, seed)
            want = simulate(scene, config, ppp, sbr, seed)
            assert got.counts.tobytes() == want.counts.tobytes()
            assert got.background_per_bin.hex() == want.background_per_bin.hex()
            assert got.alpha.hex() == want.alpha.hex()
            assert (got.rng_seed, got.config) == (want.rng_seed, want.config)
    assert flux.tobytes() == before and not flux.flags.writeable


def _slice_objective(x, v, weight):
    """0.5 ||x - v||^2 + weight * TV(x), one value per time slice."""
    tv = np.abs(np.diff(x, axis=0)).sum(axis=(0, 1)) + np.abs(
        np.diff(x, axis=1)
    ).sum(axis=(0, 1))
    return 0.5 * ((x - v) ** 2).sum(axis=(0, 1)) + weight * tv


@given(
    st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)),
    seeds,
    st.floats(0.0, 5.0),
)
@example((1, 5, 4), 0, 0.5)  # no row differences
@example((6, 1, 4), 0, 0.5)  # no column differences
@example((6, 5, 1), 0, 0.5)
@example((1, 1, 1), 0, 0.5)
@example((120, 128, 7), 0, 0.05)  # the gated chart's shape
def test_slice_objectives_match_a_loop_over_time_slices(shape, seed, weight):
    rng = np.random.default_rng(seed)
    x = np.maximum(rng.standard_normal(shape), 0.0)
    v = rng.standard_normal(shape)
    expected = []
    for t in range(shape[2]):
        xt, vt = x[:, :, t], v[:, :, t]
        tv = np.abs(xt[1:] - xt[:-1]).sum() + np.abs(xt[:, 1:] - xt[:, :-1]).sum()
        expected.append(0.5 * np.square(xt - vt).sum() + weight * tv)
    got = _slice_objectives(x, v, weight, np.empty(shape))
    assert got.shape == (shape[2],)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


def _starting_dual(rng, shape, kind):
    """A (2H+1, W, T) float32 start for the prox's workspace (zero row, p1,
    p2): None (the cold start), uniform in the box [-1, 1] in every row,
    the zero row included, or that with NaN, +inf and -inf entries, as a
    float32 loop that overflowed could leave."""
    if kind == "cold":
        return None
    h, w, t = shape
    dual = rng.uniform(-1.0, 1.0, (2 * h + 1, w, t)).astype(np.float32)
    if kind == "non-finite":
        flat = dual.reshape(-1)
        for value in (np.nan, np.inf, -np.inf):
            flat[rng.integers(0, flat.size, 1 + flat.size // 8)] = value
    return dual


@given(
    hnp.array_shapes(min_dims=3, max_dims=3, max_side=8),
    seeds,
    st.floats(0.0, 10.0),
    st.floats(0.0, 5.0),
    st.integers(0, 30),
    st.sampled_from(["cold", "warm", "non-finite"]),
)
def test_prox_nonnegative_and_never_worse_than_projection(shape, seed, scale,
                                                         weight, inner_iters,
                                                         start):
    rng = np.random.default_rng(seed)
    v = scale * rng.standard_normal(shape)
    dual = _starting_dual(rng, shape, start)
    with np.errstate(over="ignore", invalid="ignore"):  # v / weight may overflow
        x = prox_tv_nonneg(v, weight, inner_iters, dual=dual)
    clipped = np.maximum(v, 0.0)
    assert x.shape == v.shape
    assert (x >= 0).all()
    bound = _slice_objective(clipped, v, weight)
    assert (_slice_objective(x, v, weight) <= bound + 1e-12 * np.abs(bound)).all()
    if dual is not None:  # what the next call starts from
        assert np.isfinite(dual).all()
        assert (np.abs(dual) <= 1.0).all()


@given(
    hnp.array_shapes(min_dims=3, max_dims=3, max_side=8),
    seeds,
    st.floats(0.1, 10.0),
    st.floats(1e-3, 5.0),
    st.floats(0.0, 0.5),
    st.sampled_from(["cold", "warm"]),
)
def test_prox_stopped_on_its_gap_target_is_within_it(shape, seed, scale, weight,
                                                     fraction, start):
    # the target is a fraction of the objective at max(v, 0); a stop at the
    # check returns the bytes of a call capped there, so the examples where
    # the output differs from those ran on to the cap and certify nothing
    rng = np.random.default_rng(seed)
    v = scale * rng.standard_normal(shape)
    dual = _starting_dual(rng, shape, start)
    clipped = np.maximum(v, 0.0)
    bound = _slice_objective(clipped, v, weight)
    target = fraction * bound.sum()
    start_copy = None if dual is None else dual.copy()
    x = prox_tv_nonneg(v, weight, dual=dual, gap_target=target)
    stopped = prox_tv_nonneg(v, weight, _PROX_GAP_CHECK, dual=start_copy)
    assume(x.tobytes() == stopped.tobytes())
    assert (x >= 0).all()
    assert (_slice_objective(x, v, weight) <= bound + 1e-12 * np.abs(bound)).all()
    # a feasible point, so no better than the exact prox; the slack covers
    # the float32 rounding of div p inside the gap (a few ulps per voxel)
    reference = prox_tv_nonneg(v, weight, 2000)
    excess = _slice_objective(x, v, weight).sum() - _slice_objective(
        reference, v, weight).sum()
    slack = 1e-6 * weight * np.abs(x).sum() + 1e-12 * bound.sum()
    assert excess <= target + slack


def _reference_prox(v, weight, inner_iters, start=None):
    """The TV prox as first written: the same float32 dual loop on 3D
    fields, with 2D-sliced differences and explicit edge writes. It starts
    from zero or from start = [zero row, p1, p2], whose entries the loop
    never reads (the zero row, p1's last row, p2's last column) set to
    zero, and returns the output and the final (p1, p2), zero in every
    slice the safeguard replaced."""
    vol = np.asarray(v, dtype=np.float64)
    clipped = np.maximum(vol, 0.0)
    if weight == 0 or inner_iters == 0:
        zero = np.zeros(vol.shape, dtype=np.float32)
        return clipped, zero, zero.copy()

    def div(p1, p2, out):
        if p1.shape[0] > 1:
            out[0] = p1[0]
            np.subtract(p1[1:-1], p1[:-2], out=out[1:-1])
            np.negative(p1[-2], out=out[-1])
        else:
            out[:] = 0.0
        if p2.shape[1] > 1:
            out[:, 0] += p2[:, 0]
            out[:, 1:-1] += p2[:, 1:-1]
            out[:, 1:-1] -= p2[:, :-2]
            out[:, -1] -= p2[:, -2]

    p1 = np.zeros(vol.shape, dtype=np.float32)
    p2 = np.zeros_like(p1)
    if start is not None:
        h = vol.shape[0]
        p1[:-1] = start[1:h]
        p2[:, :-1] = start[h + 1 :, :-1]
    u = np.empty_like(p1)
    g = np.empty_like(p1)
    vw = (vol / weight).astype(np.float32)
    for _ in range(inner_iters):
        div(p1, p2, u)
        u -= vw
        np.subtract(u[1:], u[:-1], out=g[:-1])
        g[-1] = 0.0
        g *= 0.249
        p1 += g
        np.clip(p1, -1.0, 1.0, out=p1)
        np.subtract(u[:, 1:], u[:, :-1], out=g[:, :-1])
        g[:, -1] = 0.0
        g *= 0.249
        p2 += g
        np.clip(p2, -1.0, 1.0, out=p2)
    div(p1, p2, u)
    x = np.maximum(vol - weight * u.astype(np.float64), 0.0)
    ok = _slice_objective(x, vol, weight) <= _slice_objective(clipped, vol, weight)
    x[:, :, ~ok] = clipped[:, :, ~ok]
    p1[:, :, ~ok] = 0.0
    p2[:, :, ~ok] = 0.0
    return x, p1, p2


def _prox_input(rng, shape, kind):
    v = 3.0 * rng.standard_normal(shape)
    if kind == "sparse":
        v[rng.random(shape) < 0.8] = 0.0
    elif kind == "non-positive":
        v = -np.abs(v)
    elif kind == "signed zeros":
        v[rng.random(shape) < 0.5] = -0.0
    return v


def _assert_prox_matches_reference(v, weight, inner_iters, dual=None):
    before = v.tobytes()
    start = None if dual is None else dual.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # v / weight may overflow
        expected, p1, p2 = _reference_prox(v, weight, inner_iters, start)
        x = prox_tv_nonneg(v, weight, inner_iters, dual=dual)
    assert v.tobytes() == before
    assert x.shape == expected.shape and x.dtype == expected.dtype
    assert x.tobytes() == expected.tobytes()
    if dual is not None:
        zero = np.zeros((1,) + v.shape[1:], np.float32)
        assert dual.tobytes() == np.concatenate([zero, p1, p2]).tobytes()


@given(
    st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 12)),
    seeds,
    st.sampled_from(["dense", "sparse", "non-positive", "signed zeros"]),
    st.one_of(st.floats(1e-3, 5.0), st.floats(1e-308, 1e-30)),
    st.integers(0, 25),
    st.sampled_from(["cold", "warm"]),
)
def test_prox_matches_the_sliced_reference_byte_for_byte(shape, seed, kind,
                                                         weight, inner_iters,
                                                         start):
    rng = np.random.default_rng(seed)
    v = _prox_input(rng, shape, kind)
    dual = _starting_dual(rng, shape, start)
    _assert_prox_matches_reference(v, weight, inner_iters, dual)


@given(
    st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 12)),
    seeds,
    st.sampled_from(["dense", "sparse", "non-positive", "signed zeros"]),
    st.lists(st.tuples(st.floats(1e-3, 5.0), st.one_of(st.none(), st.floats(0.0, 0.5))),
             min_size=1, max_size=6),
)
@example((6, 5, 4), 0, "dense", [(0.5, None), (0.25, 0.0), (0.125, 0.5), (1.0, 1e-3)])
def test_prox_calls_sharing_one_workspace_match_the_reference(shape, seed, kind, calls):
    # a sequence of calls as spiral_solve makes them: one dual workspace and
    # one scratch, nearby inputs, varying weights and gap targets (None, as
    # in a solve's first iteration, or a fraction of the objective at
    # max(v, 0)). Each call returns, and leaves in the workspace, the bytes
    # of the reference started from the fields the call started from, run
    # for the 5 iterations of a stop at the gap check or to the cap, and of
    # a call with its own workspace capped there.
    rng = np.random.default_rng(seed)
    dual = np.zeros((2 * shape[0] + 1,) + shape[1:], np.float32)
    scratch = ProxScratch(shape)
    zero = np.zeros((1,) + shape[1:], np.float32)
    v = _prox_input(rng, shape, kind)
    for weight, fraction in calls:
        v = v + 0.3 * rng.standard_normal(shape)  # the next trial's input
        target = None
        if fraction is not None:
            target = fraction * _slice_objective(np.maximum(v, 0.0), v, weight).sum()
        start = dual.copy()
        x = prox_tv_nonneg(v, weight, dual=dual, gap_target=target, scratch=scratch)
        for iters in ([20] if target is None else [_PROX_GAP_CHECK, 20]):
            expected, p1, p2 = _reference_prox(v, weight, iters, start)
            if (x.tobytes() == expected.tobytes()
                    and dual.tobytes() == np.concatenate([zero, p1, p2]).tobytes()):
                break
        else:
            pytest.fail(f"no reference stop matches the call (target {target})")
        assert prox_tv_nonneg(v, weight, iters, dual=start).tobytes() == x.tobytes()


@given(
    st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 8)),
    seeds,
    st.sampled_from(["dense", "sparse", "non-positive", "signed zeros"]),
    st.sampled_from(["cold", "warm", "non-finite"]),
    st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(1e-3, 5.0)), st.integers(0, 25),
                       st.one_of(st.none(), st.floats(0.0, 0.5))),
             min_size=1, max_size=4),
)
@example((1, 5, 4), 0, "dense", "warm", [(0.5, 20, None), (0.5, 20, 0.1)])  # no rows
@example((6, 1, 4), 0, "dense", "warm", [(0.5, 20, None), (0.5, 20, 0.1)])  # no columns
@example((6, 5, 4), 0, "dense", "non-finite", [(0.5, 20, None), (0.5, 20, None)])
@example((6, 5, 4), 0, "dense", "cold", [(0.5, 20, None), (0.0, 20, None), (0.5, 0, None)])
def test_prox_hands_back_the_tv_of_its_output(shape, seed, kind, start, calls):
    # spiral_solve reads scratch.tv in place of tv_penalty(x); every call
    # sets it, to None or to the bytes of tv_penalty of its output
    rng = np.random.default_rng(seed)
    dual = _starting_dual(rng, shape, start)
    if dual is None:
        dual = np.zeros((2 * shape[0] + 1,) + shape[1:], np.float32)
    scratch = ProxScratch(shape)
    v = _prox_input(rng, shape, kind)
    for weight, inner_iters, fraction in calls:
        v = v + 0.3 * rng.standard_normal(shape)
        clipped = np.maximum(v, 0.0)
        target = None
        if fraction is not None:
            target = fraction * _slice_objective(clipped, v, weight).sum()
        scratch.tv = -1.0  # no call may leave what it found
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite duals
            x = prox_tv_nonneg(v, weight, inner_iters, dual=dual, gap_target=target,
                               scratch=scratch)
        if weight == 0 or inner_iters == 0:
            assert scratch.tv is None
        elif scratch.tv is None:  # the safeguard replaced a slice by max(v, 0)
            assert any(x[:, :, t].tobytes() == clipped[:, :, t].tobytes()
                       for t in range(shape[2]))
        else:
            assert scratch.tv.hex() == tv_penalty(x).hex()


def test_prox_matches_the_sliced_reference_on_the_chart_shape():
    shape = (120, 128, 64)
    v = _prox_input(np.random.default_rng(0), shape, "signed zeros")
    _assert_prox_matches_reference(v, 0.05, 20)


@st.composite
def returns_over_background(draw):
    """A small cube: background b in every bin plus, per pixel, a pulse of
    the scan's temporal kernel near one shared bin, so the gate often keeps
    only part of the histogram."""
    bin_width = draw(st.sampled_from([0.4e-9, 1e-9, 1.6e-9]))
    n_bins = draw(st.integers(10, 40))
    config = ScanConfig(
        n=1, bin_width=bin_width, n_bins=n_bins, sbr_window=n_bins * bin_width,
        jitter_fwhm=draw(st.sampled_from([0.0, 1.0, 2.5])) * bin_width,
        t0=draw(st.sampled_from([0.0, 2.9e-9, 31e-9])),
    )
    g = make_kernel(config).temporal
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 4)), n_bins)
    b = draw(st.sampled_from([0.0, 0.05, 0.4, 2.0]))
    rng = np.random.default_rng(draw(seeds))
    flux = np.full(shape, b)
    center = draw(st.integers(0, n_bins - 1))
    r = g.size // 2
    for i in range(shape[0]):
        for j in range(shape[1]):
            k = int(np.clip(center + rng.integers(-3, 4), 0, n_bins - 1))
            lo, hi = max(k - r, 0), min(k + r + 1, n_bins)
            flux[i, j, lo:hi] += draw(st.floats(0.0, 30.0)) * g[lo - k + r : hi - k + r]
    counts = rng.poisson(flux)
    return HistogramCube(counts=counts, config=config, background_per_bin=b, rng_seed=0)


@given(returns_over_background())
def test_gated_ml_keeps_the_bytes_of_peaks_inside_the_window(cube):
    # the log-matched-filter template is non-negative, so cutting the bins
    # outside the window can only lower the score of a peak near its edge;
    # a peak at least r bins inside keeps its score, its argmax and its sums
    kernel = make_kernel(cube.config)
    r = kernel.temporal.size // 2
    gated, _, _, settings = reconstruct_cell(cube, "ml", SolverConfig())
    lo, hi = settings["window"]
    bare = pixelwise_ml(cube.counts, kernel, cube.background_per_bin, window_half=r)
    ungated = _at_full_depth(bare, 0, cube.config)
    k_star = np.where(bare.valid, bare.depth / (SPEED_OF_LIGHT / 2.0), -1)
    inside = ungated.valid & (k_star >= lo + r) & (k_star < hi - r)
    assert gated.valid[inside].all()
    assert gated.depth[inside].tobytes() == ungated.depth[inside].tobytes()
    assert gated.reflectivity[inside].tobytes() == ungated.reflectivity[inside].tobytes()


@st.composite
def symmetric_templates(draw):
    """An odd-length, exactly symmetric temporal factor: a make_kernel one
    (jitter 0 gives the single tap [1.0]) or a random one, used as it is or
    as the log template that pixelwise_ml builds from it."""
    if draw(st.booleans()):
        bin_width = draw(st.sampled_from([0.4e-9, 1e-9, 1.6e-9]))
        config = ScanConfig(
            n=1, bin_width=bin_width, n_bins=64, sbr_window=64 * bin_width,
            jitter_fwhm=draw(st.sampled_from([0.0, 0.5, 1.0, 2.5])) * bin_width)
        g = make_kernel(config).temporal
    else:
        half = np.asarray(draw(st.lists(st.floats(0.0, 1.0), max_size=10)))
        g = np.concatenate([half, [draw(st.floats(1e-3, 1.0))], half[::-1]])
    b = draw(st.sampled_from([None, 0.0, 0.05, 2.0]))
    if b is None:
        return g
    b_prime = max(b / g.max(), 1e-12)
    return np.log(g + b_prime) - np.log(b_prime)


@given(symmetric_templates(), st.data(), seeds)
def test_ml_filter_matches_ndimage_byte_for_byte(w, data, seed):
    n_bins = data.draw(st.integers(w.size, 64))
    shape = (data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4)), n_bins)
    density = data.draw(st.sampled_from([0.0, 0.02, 0.2, 1.0]))  # 0: all zero
    rng = np.random.default_rng(seed)
    counts = (rng.poisson(data.draw(st.floats(0.1, 20.0)), shape)
              * (rng.random(shape) < density)).astype(np.float64)
    got = _correlate_symmetric(counts, w)
    expected = ndimage.correlate1d(counts, w, axis=2, mode="constant", cval=0.0)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@given(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
               elements=finite),
    st.data(),
)
def test_map_round_trip_within_half_a_code_step(values, data):
    valid = data.draw(hnp.arrays(bool, values.shape))
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "m.pgm"
        io.write_map(p, values, valid, kind="depth", units="m")
        back, back_valid, meta = io.read_map(p)
    np.testing.assert_array_equal(back_valid, valid)
    assert (back[~valid] == 0).all()
    if valid.any():
        lo, hi = values[valid].min(), values[valid].max()
        assert (meta["vmin"], meta["vmax"]) == (lo, hi)
        half_step = (hi - lo) / (io.MAP_LEVELS - 1) / 2
        slack = 8 * np.spacing(max(abs(lo), abs(hi)))
        assert (np.abs(back[valid] - values[valid]) <= half_step + slack).all()


raster_shapes = hnp.array_shapes(min_dims=2, max_dims=2, max_side=6)


@pytest.mark.parametrize("sample_bytes, maxvals", [(1, (1, 255)), (2, (256, 65535))])
@given(data=st.data())
def test_pgm_round_trip_is_exact(sample_bytes, maxvals, data):
    maxval = data.draw(st.integers(*maxvals))
    values = data.draw(hnp.arrays(np.int64, raster_shapes,
                                  elements=st.integers(0, maxval)))
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "g.pgm"
        io.write_pgm(p, values, maxval=maxval)
        raster = p.read_bytes().split(b"\n", 3)[3]
        back, back_maxval = io.read_pgm(p)
    assert len(raster) == values.size * sample_bytes
    assert back_maxval == maxval
    np.testing.assert_array_equal(back, values)


@given(hnp.arrays(np.float32, raster_shapes, elements=st.floats(width=32)))
def test_pfm_round_trip_is_exact(values):
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "f.pfm"
        io.write_pfm(p, values)
        back = io.read_pfm(p)
    assert back.dtype == np.float32 and back.shape == values.shape
    assert back.tobytes() == values.tobytes()  # NaN and -0.0 included


cube_shapes = hnp.array_shapes(min_dims=3, max_dims=3, min_side=0, max_side=5)


@given(
    st.one_of(
        hnp.arrays(np.uint32, cube_shapes),
        hnp.arrays(np.float32, cube_shapes,
                   elements=st.floats(0, float(np.finfo(np.float32).max), width=32)),
    )
)
def test_cube_round_trip_is_exact(data):
    meta = {"source": "property test", "shape": list(data.shape)}
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "c.cube"
        io.write_cube(p, data, meta)
        back, back_meta = io.read_cube(p)
    assert back.dtype == (np.int64 if data.dtype == np.uint32 else np.float64)
    np.testing.assert_array_equal(back, data)
    assert back_meta == meta


@settings(max_examples=400)
@given(st.sampled_from(READERS),
       st.sampled_from(("byte", "truncation", "value", "dropped key")), st.data())
def test_a_damaged_file_loads_or_is_refused_by_name(kind, damage, data):
    with tempfile.TemporaryDirectory() as tmp:
        path, load, doc = valid_file(kind, tmp)
        if damage in ("byte", "truncation"):  # of any file, sidecars included
            target = data.draw(st.sampled_from(
                sorted(p for p in Path(tmp).rglob("*") if p.is_file())))
            raw = bytearray(target.read_bytes())
            at = data.draw(st.integers(0, len(raw) - 1))
            if damage == "byte":
                raw[at] = data.draw(st.integers(0, 255))
            else:
                del raw[at:]
            target.write_bytes(raw)
        else:
            obj = json.loads(doc.read_text())
            keys = data.draw(st.sampled_from(list(key_paths(obj))))
            if damage == "value":
                damage_key(doc, keys, data.draw(st.sampled_from(BAD_VALUES)))
            else:
                damage_key(doc, keys, drop=True)
        try:
            load(path)
        except ValueError as exc:
            assert path.name in str(exc), str(exc)
