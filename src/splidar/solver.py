"""Regularized Poisson deconvolution of photon-count cubes.

The reconstruction solves

    minimize  L(x) + beta * TV(x)   subject to  x >= 0,

where L(x) = sum(Lambda - Y * log(Lambda)), Lambda = g * x + b, by a monotone
proximal gradient loop: Barzilai-Borwein inverse-step initialization, then
backtracking until a sufficient-decrease test holds. TV is anisotropic and
acts within time slices; its prox is approximated by a fixed number of dual
fixed-point iterations so every run is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .forward import HistogramCube, convolve3d, convolve3d_adjoint
from .scene import SPEED_OF_LIGHT, RDVolume

_PROX_TAU = 0.249  # dual ascent step, < 1/4 keeps the 2D fixed point stable


@dataclass(frozen=True)
class SolverConfig:
    beta: float = 0.1
    max_iters: int = 200
    rel_tol: float = 1e-4
    step_init: float = 1.0
    step_bounds: tuple = (1e-8, 1e8)
    backtrack_eta: float = 2.0
    accept_sigma: float = 0.1
    tv_inner_iters: int = 20
    epsilon_floor: float = 1e-10

    def __post_init__(self):
        object.__setattr__(self, "step_bounds", tuple(self.step_bounds))
        lo, hi = self.step_bounds
        if not (0 < lo <= hi):
            raise ValueError(f"bad step bounds: {self.step_bounds}")
        if not (0 < self.accept_sigma < 1):
            raise ValueError(f"accept_sigma must be in (0,1): {self.accept_sigma}")
        if self.backtrack_eta <= 1:
            raise ValueError(f"backtrack_eta must exceed 1: {self.backtrack_eta}")
        if self.epsilon_floor <= 0:
            raise ValueError("epsilon_floor must be positive")
        if self.beta < 0 or self.max_iters < 1 or self.tv_inner_iters < 0:
            raise ValueError("bad solver config")

    def to_dict(self):
        return {
            "beta": float(self.beta),
            "max_iters": int(self.max_iters),
            "rel_tol": float(self.rel_tol),
            "step_init": float(self.step_init),
            "step_bounds": [float(self.step_bounds[0]), float(self.step_bounds[1])],
            "backtrack_eta": float(self.backtrack_eta),
            "accept_sigma": float(self.accept_sigma),
            "tv_inner_iters": int(self.tv_inner_iters),
            "epsilon_floor": float(self.epsilon_floor),
        }


@dataclass(frozen=True)
class SolveReport:
    objective_trace: list
    iterations: int
    converged: bool
    final_rel_change: float

    def to_dict(self):
        return {
            "objective_trace": [float(v) for v in self.objective_trace],
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "final_rel_change": float(self.final_rel_change),
        }


@dataclass(frozen=True)
class Maps:
    """Per-pixel estimates; valid is False where no return was found."""

    depth: np.ndarray
    reflectivity: np.ndarray
    valid: np.ndarray = field(repr=False)


def _as_counts(y):
    if isinstance(y, HistogramCube):
        return y.counts.astype(np.float64)
    return np.asarray(y, dtype=np.float64)


def _as_volume(rd):
    return rd.data if isinstance(rd, RDVolume) else np.asarray(rd, dtype=np.float64)


def _nll_of_lambda(lam, counts, floor):
    return float(np.sum(lam) - np.sum(counts * np.log(np.maximum(lam, floor))))


def _nll_gradient_of_lambda(lam, counts, g, floor):
    return convolve3d_adjoint(g, 1.0 - counts / np.maximum(lam, floor))


def neg_log_likelihood(rd, y, g, b, epsilon_floor=1e-10):
    """Poisson fit term sum(Lambda - Y log Lambda), Lambda = g * rd + b.

    The constant log(Y!) is dropped; Lambda is floored inside the log so
    zero-flux bins stay finite.
    """
    x = _as_volume(rd)
    counts = _as_counts(y)
    if x.shape != counts.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {counts.shape}")
    lam = convolve3d(g, x, b)
    return _nll_of_lambda(lam, counts, epsilon_floor)


def nll_gradient(rd, y, g, b, epsilon_floor=1e-10):
    """Gradient of the fit term: correlation of (1 - Y/Lambda) with g."""
    x = _as_volume(rd)
    counts = _as_counts(y)
    if x.shape != counts.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {counts.shape}")
    return _nll_gradient_of_lambda(convolve3d(g, x, b), counts, g, epsilon_floor)


# ---------------------------------------------------------------------------
# anisotropic total variation and its non-negative prox


def tv_penalty(rd):
    """Sum of absolute forward differences along the two spatial axes inside
    each time slice; the trailing edge uses a zero-gradient boundary (no
    wraparound terms)."""
    x = _as_volume(rd)
    return float(np.abs(np.diff(x, axis=0)).sum() + np.abs(np.diff(x, axis=1)).sum())


def prox_tv_nonneg(v, weight, inner_iters=20):
    """Approximate argmin_{x >= 0} 0.5||x - v||^2 + weight * TV(x).

    Runs a fixed number of projected dual fixed-point iterations (dual
    variables box-clipped to [-1, 1] componentwise, matching anisotropic
    TV), projects onto x >= 0, then keeps, per time slice, whichever of the
    iterate and max(v, 0) has the lower sub-problem objective. That makes
    two guarantees unconditional: the output is non-negative, and its
    objective never exceeds the one at max(v, 0).

    The dual loop runs in float32 with preallocated buffers; it is the hot
    path of the solve, and the slice comparison (done in float64) absorbs
    the rounding.
    """
    if weight < 0:
        raise ValueError("negative weight")
    vol = np.asarray(v, dtype=np.float64)
    clipped = np.maximum(vol, 0.0)
    if weight == 0 or inner_iters == 0:
        return clipped
    p1 = np.zeros(vol.shape, dtype=np.float32)
    p2 = np.zeros_like(p1)
    u = np.empty_like(p1)
    g = np.empty_like(p1)
    vw = (vol / weight).astype(np.float32)
    for _ in range(inner_iters):
        _div2_into(p1, p2, u)
        u -= vw
        np.subtract(u[1:], u[:-1], out=g[:-1])
        g[-1] = 0.0
        g *= _PROX_TAU
        p1 += g
        np.clip(p1, -1.0, 1.0, out=p1)
        np.subtract(u[:, 1:], u[:, :-1], out=g[:, :-1])
        g[:, -1] = 0.0
        g *= _PROX_TAU
        p2 += g
        np.clip(p2, -1.0, 1.0, out=p2)
    _div2_into(p1, p2, u)
    x = np.maximum(vol - weight * u.astype(np.float64), 0.0)
    worse = _slice_objectives(x, vol, weight) > _slice_objectives(clipped, vol, weight)
    x[:, :, worse] = clipped[:, :, worse]
    return x


def _div2_into(p1, p2, out):
    """Negative adjoint of the forward-difference gradient, slice by slice.

    A size-1 axis has no differences, so its dual field is skipped."""
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


def _slice_objectives(x, vol, weight):
    quad = 0.5 * ((x - vol) ** 2).sum(axis=(0, 1))
    tv = np.abs(np.diff(x, axis=0)).sum(axis=(0, 1)) + np.abs(
        np.diff(x, axis=1)
    ).sum(axis=(0, 1))
    return quad + weight * tv


# ---------------------------------------------------------------------------
# main solve loop


def spiral_solve(y, g, b, config=None, init=None):
    """Reconstruct a non-negative volume from a photon-count cube.

    Each iteration takes a gradient step scaled by an inverse step alpha and
    applies the TV prox:  x+ = prox(x - grad/alpha, beta/alpha). alpha starts
    at the Barzilai-Borwein curvature ratio <dx, dgrad> / <dx, dx> (clamped
    to step_bounds; falls back to the previous accepted alpha when the ratio
    is not positive) and grows by backtrack_eta until

        Phi(x+) <= Phi(x) - accept_sigma * (alpha/2) * ||x+ - x||^2,

    which makes the objective trace non-increasing by construction. Stops on
    relative change < rel_tol or after max_iters. Default initialization is
    the backprojection g~ * max(Y - b, 0).

    y may be a HistogramCube or a bare count array; with a cube, the output
    volume inherits its bin_width and t0.
    """
    if config is None:
        config = SolverConfig()
    counts = _as_counts(y)
    if counts.ndim != 3:
        raise ValueError(f"expected 3D counts, got {counts.shape}")
    if not np.isfinite(counts).all():
        raise ValueError("counts must be finite")
    if not np.isfinite(b) or b < 0:
        raise ValueError(f"background must be finite and non-negative, got {b}")
    floor = config.epsilon_floor
    beta = config.beta

    if init is None:
        x = convolve3d_adjoint(g, np.maximum(counts - b, 0.0))
    else:
        x = np.maximum(_as_volume(init), 0.0).copy()

    lam = convolve3d(g, x, b)
    phi = _nll_of_lambda(lam, counts, floor) + beta * tv_penalty(x)
    trace = [phi]
    alpha_lo, alpha_hi = config.step_bounds
    last_alpha = float(np.clip(config.step_init, alpha_lo, alpha_hi))
    prev_x = None
    prev_grad = None
    iterations = 0
    converged = False
    rel_change = float("inf")

    for _ in range(config.max_iters):
        grad = _nll_gradient_of_lambda(lam, counts, g, floor)
        if prev_x is None:
            alpha = last_alpha
        else:
            dx = x - prev_x
            dg = grad - prev_grad
            denom = float(np.vdot(dx, dx))
            numer = float(np.vdot(dx, dg))
            alpha = numer / denom if denom > 0 and numer > 0 else last_alpha
        alpha = float(np.clip(alpha, alpha_lo, alpha_hi))

        doublings = 0
        while True:
            x_new = prox_tv_nonneg(
                x - grad / alpha, beta / alpha, config.tv_inner_iters
            )
            step_sq = float(np.vdot(x_new - x, x_new - x))
            lam_new = convolve3d(g, x_new, b)
            phi_new = _nll_of_lambda(lam_new, counts, floor) + beta * tv_penalty(x_new)
            if phi_new <= phi - config.accept_sigma * (alpha / 2.0) * step_sq:
                break
            alpha *= config.backtrack_eta
            doublings += 1
            if doublings > 50:
                raise RuntimeError(
                    f"no acceptable step after 50 backtracks at iteration "
                    f"{iterations} (objective {phi:.6g}); the model is likely "
                    f"inconsistent with the data scale"
                )

        rel_change = np.sqrt(step_sq) / max(float(np.linalg.norm(x)), floor)
        prev_x, prev_grad = x, grad
        x, lam, phi = x_new, lam_new, phi_new
        last_alpha = alpha
        trace.append(phi)
        iterations += 1
        if rel_change < config.rel_tol:
            converged = True
            break

    if isinstance(y, HistogramCube):
        bin_width, t0 = y.config.bin_width, y.config.t0
    else:
        bin_width, t0 = 1.0, 0.0
    volume = RDVolume(data=x, bin_width=bin_width, t0=t0)
    report = SolveReport(
        objective_trace=trace,
        iterations=iterations,
        converged=converged,
        final_rel_change=float(rel_change),
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
    valid = peak > 0
    depth = (rd.t0 + k_star * rd.bin_width) * (SPEED_OF_LIGHT / 2.0)
    depth = np.where(valid, depth, np.nan)
    refl = np.where(valid, refl, 0.0)
    return Maps(depth=depth, reflectivity=refl, valid=valid)


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
    from . import io

    meta = {"bin_width": float(rd.bin_width), "t0": float(rd.t0)}
    io.write_cube(path, rd.data.astype(np.float64), meta)


def load_volume(path):
    from . import io

    data, meta = io.read_cube(path)
    if meta is None:
        raise ValueError(f"volume sidecar missing: {path}.json")
    return RDVolume(
        data=data, bin_width=float(meta["bin_width"]), t0=float(meta.get("t0", 0.0))
    )
