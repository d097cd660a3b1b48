"""Regularized Poisson deconvolution of photon-count cubes.

The reconstruction solves

    minimize  L(x) + beta * TV(x)   subject to  x >= 0,

where L(x) = sum(Lambda - Y * log(Lambda)), Lambda = g * x + b, by a monotone
proximal gradient loop: an inverse step proposed by the two Barzilai-Borwein
ratios in turn (the alternating rule of Dai and Fletcher, 2005), then
backtracking until a sufficient-decrease test holds; a solve ends converged or
at its cap. TV is anisotropic and acts within time slices; its prox is
approximated by dual fixed-point iterations, run in place in one flat float32
workspace that holds both dual fields. A solve allocates that workspace once,
so the dual fields carry over from each trial step, accepted or rejected, to
the next and a prox call starts where the previous one stopped; they start
from zero in every solve, so reruns stay byte-identical. After the first
accepted iteration a prox call stops early once its duality gap, which bounds
its error, is small next to the last accepted decrease of the objective (an
inexact proximal-gradient step: Schmidt, Le Roux and Bach, 2011; Villa,
Salzo, Baldassarre and Verri, 2013); otherwise it runs to its cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import io
from .forward import HistogramCube, convolve3d, convolve3d_adjoint
from .scene import SPEED_OF_LIGHT, RDVolume, _as_volume

_PROX_TAU = 0.249  # dual ascent step, < 1/4 keeps the 2D fixed point stable
_PROX_GAP_CHECK = 5  # inner iteration after which a gap target is checked
_PROX_GAP_KAPPA = 0.1  # prox error allowed per unit of the last accepted decrease
_STEP_INIT = 1.0  # inverse step of the first iteration
_STEP_BOUNDS = (1e-8, 1e8)  # every proposed inverse step is clamped here
_BACKTRACK_ETA = 2.0  # inverse-step growth per rejected trial
_MAX_DOUBLINGS = 50  # doublings in one iteration; a rejection after them is a stall
_ACCEPT_SIGMA = 0.1  # sufficient-decrease fraction
_EPSILON_FLOOR = 1e-10  # floor on Lambda inside the log and the gradient ratio


@dataclass(frozen=True)
class SolverConfig:
    beta: float = 0.1
    max_iters: int = 200
    rel_tol: float = 1e-4

    def __post_init__(self):
        io.check_attributes(self, "solver config", SOLVER_FIELDS)
        if self.beta < 0:
            raise ValueError(f"beta must be non-negative: {self.beta}")
        if self.rel_tol < 0:
            raise ValueError(f"rel_tol must be non-negative: {self.rel_tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1: {self.max_iters}")

    def to_dict(self):
        return {k: (int if kind == "integer" else float)(getattr(self, k))
                for k, kind in SOLVER_FIELDS.items()}


SOLVER_FIELDS = {f.name: "integer" if f.type == "int" else "number"
                 for f in fields(SolverConfig)}


@dataclass(frozen=True)
class SolveReport:
    objective_trace: list
    iterations: int
    converged: bool
    final_rel_change: float
    trial_steps: int  # prox calls, accepted and rejected
    backtracks: list  # rejected trials before each accepted iteration

    def to_dict(self):
        return {
            "objective_trace": [float(v) for v in self.objective_trace],
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "final_rel_change": float(self.final_rel_change),
            "trial_steps": int(self.trial_steps),
            "backtracks": [int(n) for n in self.backtracks],
        }


@dataclass(frozen=True)
class Maps:
    """Per-pixel estimates; valid is False where no return was found."""

    depth: np.ndarray
    reflectivity: np.ndarray
    valid: np.ndarray = field(repr=False)


def _count_parts(y, b):
    """Counts as float64, with the cube's bin_width and t0 (1 and 0 for a
    bare array), after checking the background b. A HistogramCube already
    holds non-negative integers in 3D; a bare array is checked here."""
    if not np.isfinite(b) or b < 0:
        raise ValueError(f"background must be finite and non-negative, got {b}")
    if isinstance(y, HistogramCube):
        return y.counts.astype(np.float64), y.config.bin_width, y.config.t0
    counts = np.asarray(y, dtype=np.float64)
    if counts.ndim != 3:
        raise ValueError(f"expected 3D counts, got {counts.shape}")
    if not (np.isfinite(counts).all() and (counts >= 0).all()):
        raise ValueError("counts must be finite and non-negative")
    return counts, 1.0, 0.0


def _dot(a, b):
    """Inner product by numpy's pairwise summation rather than BLAS, so the
    result does not depend on the BLAS thread count."""
    return float(np.multiply(a, b).sum())


def _nll_of_lambda(lam, counts):
    return float(
        np.sum(lam) - np.sum(counts * np.log(np.maximum(lam, _EPSILON_FLOOR)))
    )


def _nll_gradient_of_lambda(lam, counts, g):
    return convolve3d_adjoint(g, 1.0 - counts / np.maximum(lam, _EPSILON_FLOOR))


def neg_log_likelihood(rd, y, g, b):
    """Poisson fit term sum(Lambda - Y log Lambda), Lambda = g * rd + b.

    The constant log(Y!) is dropped; Lambda is floored inside the log so
    zero-flux bins stay finite.
    """
    x = _as_volume(rd)
    counts, _, _ = _count_parts(y, b)
    if x.shape != counts.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {counts.shape}")
    lam = convolve3d(g, x, b)
    return _nll_of_lambda(lam, counts)


def nll_gradient(rd, y, g, b):
    """Gradient of the fit term: correlation of (1 - Y/Lambda) with g."""
    x = _as_volume(rd)
    counts, _, _ = _count_parts(y, b)
    if x.shape != counts.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {counts.shape}")
    return _nll_gradient_of_lambda(convolve3d(g, x, b), counts, g)


# ---------------------------------------------------------------------------
# anisotropic total variation and its non-negative prox


def tv_penalty(rd):
    """Sum of absolute forward differences along the two spatial axes inside
    each time slice; the trailing edge uses a zero-gradient boundary (no
    wraparound terms)."""
    x = _as_volume(rd)
    return float(np.abs(x[1:] - x[:-1]).sum() + np.abs(x[:, 1:] - x[:, :-1]).sum())


def prox_tv_nonneg(v, weight, inner_iters=20, *, dual=None, gap_target=None):
    """Approximate argmin_{x >= 0} 0.5||x - v||^2 + weight * TV(x).

    Runs up to inner_iters projected dual fixed-point iterations (dual
    variables box-clipped to [-1, 1] componentwise, matching anisotropic
    TV), projects onto x >= 0, then keeps, per time slice, whichever of the
    iterate and max(v, 0) has the lower sub-problem objective. That makes
    two guarantees unconditional: the output is non-negative, and its
    objective never exceeds the one at max(v, 0). weight must be finite and
    non-negative.

    gap_target, if given (finite and non-negative), lets the loop stop
    early. After 5 inner iterations (if inner_iters is larger) it computes
    the primal x = max(v - weight * div p, 0) of its dual fields p and the
    duality gap P(x) - D(p), summed over time slices, where P is the
    sub-problem objective and D(p) = 0.5||v||^2 - 0.5||x||^2 its dual. The
    gap bounds P(x) - P(exact prox). If it is at most gap_target, the loop
    stops there and that x, with its per-slice P, goes to the safeguard, so
    the output is within gap_target of the exact prox's objective (up to
    the float32 rounding of div p). Otherwise the loop runs on to
    inner_iters. A stop after k iterations returns the bytes, and leaves
    the dual fields, of a call with inner_iters=k. gap_target=None (the
    default) always runs inner_iters.

    dual, if given, is a C-contiguous float32 array of shape (2H+1, W, T)
    for a (H, W, T) volume: dual[0] is a zero row, dual[1:H+1] the dual
    field p1 and dual[H+1:] the dual field p2. The loop runs in it in
    place, starting from its fields instead of zero and leaving its final
    fields there, so a caller that passes one workspace to successive calls
    (spiral_solve's trial steps) warm-starts each from the last. The zero
    row, p1's last row and p2's last column (the zero-gradient boundary)
    are set to zero on entry; the fields of every slice the safeguard
    replaces by max(v, 0) (every slice when the loop does not run) are set
    to zero on exit, so a slice whose float32 loop overflowed to NaN starts
    the next call cold. dual=None starts from a zeroed workspace of its
    own. The output depends only on v, weight, inner_iters, gap_target and
    the starting fields, so a rerun of the same sequence of calls gives the
    same bytes.

    The dual loop runs in float32; it is the hot path of the solve, and the
    slice comparison (done in float64) absorbs the rounding. Flattened, the
    workspace is one buffer, so each field shifted back by one row (p1,
    stride W*T) or one column (p2, stride T) is a contiguous slice of it
    too, and every step of the loop is one contiguous pass. p1's last row
    is also p2's leading padding.
    """
    if not (np.isfinite(weight) and weight >= 0):
        raise ValueError(f"weight must be finite and non-negative: {weight}")
    if gap_target is not None and not (np.isfinite(gap_target) and gap_target >= 0):
        raise ValueError(f"gap_target must be finite and non-negative: {gap_target}")
    vol = np.asarray(v, dtype=np.float64)
    height, width, slices = vol.shape
    shape = (2 * height + 1, width, slices)
    if dual is None:
        dual = np.zeros(shape, dtype=np.float32)
    elif not (
        isinstance(dual, np.ndarray)
        and dual.dtype == np.float32
        and dual.shape == shape
        and dual.flags.c_contiguous  # else reshape(-1) would copy
    ):
        raise ValueError(f"dual must be a C-contiguous float32 array of shape {shape}")
    clipped = np.maximum(vol, 0.0)
    if weight == 0 or inner_iters == 0:
        dual.fill(0.0)
        return clipped
    n = vol.size
    row, col = width * slices, slices  # flat strides of the row and column axes
    fields = dual.reshape(-1)
    p1, p1_prev = fields[row : row + n], fields[:n]
    p2, p2_prev = fields[row + n :], fields[row + n - col : row + 2 * n - col]
    live = fields[row:]
    dual[0] = 0.0  # the zero row
    dual[height] = 0.0  # p1's last row
    dual[height + 1 :, -1] = 0.0  # p2's last column
    step = np.zeros(2 * n, dtype=np.float32)
    g1, g2 = step[: n - row], step[n : 2 * n - col]  # p1's last row: no step
    g2_wrap = step[n:].reshape(vol.shape)[:, -1]  # differences across a row end
    u = np.empty(n, dtype=np.float32)
    vw = np.empty(n, dtype=np.float32)
    # the float64 quotient, rounded to float32 as astype would
    np.divide(vol, weight, out=vw.reshape(vol.shape))
    x = np.empty(vol.shape)  # the primal, then the output
    work = np.empty(vol.shape)  # float64 scratch of the objective evaluations
    check = None if gap_target is None else _PROX_GAP_CHECK
    for it in range(inner_iters + 1):
        np.subtract(p1, p1_prev, out=u)  # u = div p, the adjoint of -grad
        u += p2
        u -= p2_prev
        if it in (inner_iters, check):
            # x = max(v - weight * u, 0), with u widened to float64 first
            np.multiply(u.reshape(vol.shape), weight, out=x, dtype=np.float64)
            np.subtract(vol, x, out=x)
            np.maximum(x, 0.0, out=x)
            objective = _slice_objectives(x, vol, weight, work)
            if it == inner_iters:
                break
            # the duality gap P(x) - D(p), with D(p) = 0.5||v||^2 - 0.5||x||^2
            gap = objective.sum() - 0.5 * float(np.square(vol, out=work).sum())
            gap += 0.5 * float(np.square(x, out=work).sum())
            if gap <= gap_target:
                break
        u -= vw
        np.subtract(u[row:], u[: n - row], out=g1)
        np.subtract(u[col:], u[: n - col], out=g2)
        g2_wrap[...] = 0.0
        step *= _PROX_TAU
        live += step
        np.clip(live, -1.0, 1.0, out=live)
    # "not <=" also replaces a slice whose float32 dual loop overflowed to NaN
    ok = objective <= _slice_objectives(clipped, vol, weight, work)
    x[:, :, ~ok] = clipped[:, :, ~ok]
    dual[:, :, ~ok] = 0.0
    return x


def _slice_objectives(x, vol, weight, work):
    """Per time slice, 0.5||x - vol||^2 + weight * TV(x), computed in the
    float64 scratch work (x's shape) rather than in fresh temporaries."""
    height, width, slices = x.shape
    np.subtract(x, vol, out=work)
    np.square(work, out=work)
    quad = 0.5 * _slice_sums(work)
    rows = work[: height - 1]
    np.subtract(x[1:], x[:-1], out=rows)
    np.abs(rows, out=rows)
    tv = _slice_sums(rows)
    cols = work.reshape(-1)[: height * (width - 1) * slices]
    cols = cols.reshape(height, width - 1, slices)
    np.subtract(x[:, 1:], x[:, :-1], out=cols)
    np.abs(cols, out=cols)
    return quad + weight * (tv + _slice_sums(cols))


def _slice_sums(a):
    """Per time slice sums of a C-contiguous (H, W, T) array: over H along
    rows of W*T elements, then over W, rather than numpy's one T-wide inner
    loop per pixel for axis=(0, 1)."""
    height, width, slices = a.shape
    columns = a.reshape(height, width * slices).sum(axis=0)
    return columns.reshape(width, slices).sum(axis=0)


# ---------------------------------------------------------------------------
# main solve loop


def spiral_solve(y, g, b, config=None, init=None):
    """Reconstruct a non-negative volume from a photon-count cube.

    Each iteration takes a gradient step scaled by an inverse step alpha and
    applies the TV prox:  x+ = prox(x - grad/alpha, beta/alpha). alpha starts
    at a Barzilai-Borwein curvature ratio, alternating between the two: BB1,
    <dx, dgrad> / <dx, dx>, after an odd number of accepted iterations and
    BB2, <dgrad, dgrad> / <dx, dgrad>, after an even one. BB2 is never the
    smaller of the two (Cauchy-Schwarz), so it proposes the shorter step;
    BB1 alone overshoots on these problems and costs several rejected
    trials per iteration. The proposal is clamped to [1e-8, 1e8] and falls
    back to the previous accepted alpha, initially 1, when the ratio is not
    positive; alpha then doubles until

        Phi(x+) <= Phi(x) - 0.1 * (alpha/2) * ||x+ - x||^2,

    which makes the objective trace non-increasing by construction. Every
    trial passes the same dual workspace to the prox, so each starts from
    the latest trial's dual fields. Once an iteration has been accepted,
    each trial also passes the prox a gap target of 0.1 times the last
    accepted decrease of Phi, divided by alpha: the prox sub-problem is
    Phi's step model divided by alpha, so the prox may stop early once its
    error in Phi's units is at most a tenth of the last decrease. The
    first iteration's trials run the prox to its cap. Stops as converged on
    a relative change below rel_tol, or at a stall, where an iteration's
    trials all fail up to 50 doublings as the decrease is lost to rounding:
    its trials count in trial_steps only, and the iterate and trace stay at
    the last accepted one. Otherwise stops after max_iters. Default
    initialization is the backprojection g~ * max(Y - b, 0).

    y may be a HistogramCube or a bare count array; with a cube, the output
    volume inherits its bin_width and t0.
    """
    if config is None:
        config = SolverConfig()
    counts, bin_width, t0 = _count_parts(y, b)
    beta = config.beta

    if init is None:
        x = convolve3d_adjoint(g, np.maximum(counts - b, 0.0))
    else:
        x = _as_volume(init)
        if x.shape != counts.shape:
            raise ValueError(f"init shape {x.shape} != counts shape {counts.shape}")
        if not np.isfinite(x).all():
            raise ValueError("init must be finite")
        x = np.maximum(x, 0.0)

    lam = convolve3d(g, x, b)
    phi = _nll_of_lambda(lam, counts) + beta * tv_penalty(x)
    trace = [phi]
    height, width, slices = counts.shape
    dual = np.zeros((2 * height + 1, width, slices), np.float32)  # zero row, p1, p2
    trial_steps = 0
    backtracks = []
    alpha = _STEP_INIT
    converged = False
    rel_change = float("inf")

    for _ in range(config.max_iters):
        grad = _nll_gradient_of_lambda(lam, counts, g)
        if backtracks:  # alpha holds the last accepted inverse step
            dx = x - prev_x
            dg = grad - prev_grad
            curv = _dot(dx, dg)
            if len(backtracks) % 2:  # BB1, <dx, dg> / <dx, dx>
                numer, denom = curv, _dot(dx, dx)
            else:  # BB2, <dg, dg> / <dx, dg>
                numer, denom = _dot(dg, dg), curv
            if denom > 0 and numer > 0:
                alpha = numer / denom
        alpha = float(np.clip(alpha, *_STEP_BOUNDS))

        for doublings in range(_MAX_DOUBLINGS + 1):
            # the prox may stop once alpha times its gap, its error in
            # objective units, is a small fraction of the last decrease
            target = None
            if backtracks:
                target = _PROX_GAP_KAPPA * (trace[-2] - trace[-1]) / alpha
            x_new = prox_tv_nonneg(x - grad / alpha, beta / alpha, dual=dual,
                                   gap_target=target)
            trial_steps += 1
            step = x_new - x
            step_sq = _dot(step, step)
            lam_new = convolve3d(g, x_new, b)
            phi_new = _nll_of_lambda(lam_new, counts) + beta * tv_penalty(x_new)
            if phi_new <= phi - _ACCEPT_SIGMA * (alpha / 2.0) * step_sq:
                break
            alpha *= _BACKTRACK_ETA
        else:  # the objective has stalled at rounding level
            converged = True
            break

        rel_change = np.sqrt(step_sq) / max(np.sqrt(_dot(x, x)), _EPSILON_FLOOR)
        prev_x, prev_grad = x, grad
        x, lam, phi = x_new, lam_new, phi_new
        trace.append(phi)
        backtracks.append(doublings)
        if rel_change < config.rel_tol:
            converged = True
            break

    volume = RDVolume(data=x, bin_width=bin_width, t0=t0)
    report = SolveReport(
        objective_trace=trace,
        iterations=len(backtracks),
        converged=converged,
        final_rel_change=float(rel_change),
        trial_steps=trial_steps,
        backtracks=backtracks,
    )
    return volume, report


def extract_depth_reflectivity(rd, window_half=0):
    """Per-pixel argmax readout of a volume.

    depth = (t0 + k* bin_width) * c/2 at k* = argmax (ties take the smallest
    bin); reflectivity sums the bins within window_half of k*. Pixels whose
    column is all zero are flagged invalid with reflectivity 0.
    """
    data = rd.data
    k_star = np.argmax(data, axis=2)  # first maximum = smallest bin on ties
    refl, _ = _window_sums(data, k_star, window_half)
    peak = np.take_along_axis(data, k_star[:, :, None], axis=2)[:, :, 0]
    return _peak_maps(k_star, refl, peak > 0, rd.t0, rd.bin_width)


def _peak_maps(k_star, refl, valid, t0, bin_width):
    """Maps from per-pixel peak bins: depth (t0 + k* bin_width) * c/2; an
    invalid pixel gets NaN depth and reflectivity 0."""
    depth = (t0 + k_star * bin_width) * (SPEED_OF_LIGHT / 2.0)
    return Maps(
        depth=np.where(valid, depth, np.nan),
        reflectivity=np.where(valid, refl, 0.0),
        valid=valid,
    )


def _window_sums(data, k_star, window_half):
    """Per-pixel sum of data over the bins within window_half of k_star,
    clipped to the histogram; also returns each window's width in bins."""
    if window_half < 0:
        raise ValueError("negative window_half")
    lo = np.maximum(k_star - window_half, 0)
    hi = np.minimum(k_star + window_half + 1, data.shape[2])
    csum = np.concatenate(
        [np.zeros(data.shape[:2] + (1,)), np.cumsum(data, axis=2)], axis=2
    )
    sums = np.take_along_axis(csum, hi[:, :, None], axis=2)[
        :, :, 0
    ] - np.take_along_axis(csum, lo[:, :, None], axis=2)[:, :, 0]
    return sums, hi - lo


# ---------------------------------------------------------------------------
# persistence


def save_volume(rd, path):
    """Write a reconstructed volume as an SPR1 file plus sidecar."""
    meta = {"bin_width": float(rd.bin_width), "t0": float(rd.t0)}
    io.write_cube(path, rd.data, meta)


def load_volume(path):
    """Inverse of save_volume; a refusal is a ValueError naming the file."""
    data, meta = io.read_cube(path)
    meta = io.check_fields(meta, f"{path}.json",
                           {"bin_width": "number", "t0": "number"})
    with io.naming(path):
        return RDVolume(data=data, **meta)
