"""In-memory span tracer for the splidar benchmark.

The tracer wraps splidar's public functions from outside the package: for
each layer name below it finds the function object and replaces every binding
of that object in every loaded ``splidar.*`` module, because callers look
functions up in their own namespace (``splidar.evaluate.simulate``,
``splidar.solver.convolve3d``, ``splidar.io.write_cube``, ...). The original
bindings come back in ``finally``. A layer whose module or function no longer
exists is recorded in ``missing`` and its metrics read zero.

A span is ``[name, start, end, parent, work]``: perf_counter seconds, the
index of the enclosing span (None for a root) and, for the three kernels, the
computed work of the call. Spans of one run share ``run_id``. Private helpers
such as ``solver._nll_of_lambda`` are not wrapped, so their time stays in the
caller's self time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

import numpy as np

LAYERS = (
    "solver.spiral_solve",
    "solver.prox_tv_nonneg",
    "solver.tv_penalty",
    "solver.extract_depth_reflectivity",
    "solver.save_volume",
    "forward.simulate",
    "forward.convolve3d",
    "forward.convolve3d_adjoint",
    "forward.coarsen",
    "forward.load_cube",
    "forward.save_cube",
    "baselines.pixelwise_ml",
    "baselines.reconstruct_no_scan",
    "io.read_cube",
    "io.write_cube",
    "io.read_map",
    "io.write_map",
    "io.sha256_file",
    "evaluate.run_experiment",
    "evaluate.reconstruct_cell",
    "cli.main",
)


# Computed work per call, from array sizes, not measured. Bytes count whole-
# array passes of the implementation these models were written against: a
# pass that reads or writes every voxel once at the array's dtype width.


def _voxels(volume):
    """Voxel count of a bare array or an RDVolume."""
    return volume.size if isinstance(volume, np.ndarray) else volume.data.size


def _convolve_work(call):
    """convolve3d: three separable float64 passes (column, row, time), each
    reading and writing the volume, plus one read-write pass adding the
    background when it is non-zero."""
    size = _voxels(call.arguments["volume"])
    passes = 3 + (1 if call.arguments["background_per_bin"] else 0)
    return size, size * passes * 2 * 8


def _adjoint_work(call):
    """convolve3d_adjoint: the same three float64 passes, no background."""
    size = _voxels(call.arguments["volume"])
    return size, size * 3 * 2 * 8


# Per voxel: each dual iteration makes 32 float32 array passes (divergence 9,
# residual 3, two field updates of 10); around the loop, the float64
# clipping, scaling, final divergence, primal update and the two per-slice
# objective evaluations make 412 bytes.
_PROX_BYTES_PER_ITER = 32 * 4
_PROX_BYTES_FIXED = 412


def _prox_work(call):
    """prox_tv_nonneg: the float32 dual loop plus the float64 set-up and
    slice comparison around it."""
    size = call.arguments["v"].size
    iters = call.arguments["inner_iters"]
    return size, size * (iters * _PROX_BYTES_PER_ITER + _PROX_BYTES_FIXED)


WORK_MODELS = {
    "forward.convolve3d": _convolve_work,
    "forward.convolve3d_adjoint": _adjoint_work,
    "solver.prox_tv_nonneg": _prox_work,
}


class Tracer:
    """Collects spans in memory; nothing is written until the caller asks."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.missing = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        """A span around benchmark code, such as one timed operation."""
        rec = self._open(name, None)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name, work):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, work]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        model = WORK_MODELS.get(name)
        sig = inspect.signature(fn) if model else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = None
            if model:
                call = sig.bind(*args, **kwargs)
                call.apply_defaults()
                work = model(call)
            rec = self._open(name, work)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer for the duration of the block."""
        patched = []
        try:
            modules = [m for k, m in list(sys.modules.items())
                       if (k == "splidar" or k.startswith("splidar.")) and m is not None]
            for layer in LAYERS:
                module_name, attr = layer.split(".")
                original = getattr(sys.modules.get(f"splidar.{module_name}"), attr, None)
                if original is None:
                    if layer not in self.missing:
                        self.missing.append(layer)
                    continue
                wrapper = self._wrap(layer, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            patched.append((module, key, original))
            yield self
        finally:
            for module, key, original in reversed(patched):
                setattr(module, key, original)

    def self_times(self):
        """Duration minus the time covered by direct children, per span."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def roots(self, name):
        """(index, end index) of each root span called name; the subtree of a
        root is the contiguous run of spans opened before the next root."""
        starts = [i for i, s in enumerate(self.spans) if s[3] is None]
        ends = starts[1:] + [len(self.spans)]
        return [(i, j) for i, j in zip(starts, ends) if self.spans[i][0] == name]

    def to_json(self):
        return {
            "run_id": self.run_id,
            "missing": self.missing,
            "fields": ["name", "start", "end", "parent", "work"],
            "spans": self.spans,
        }
