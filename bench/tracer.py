"""In-memory tracer for the benchmark's traced run.

From outside the package, wraps the public functions of every slicegap
layer module, the methods of the target classes, the ARPACK entry points
the oracle imports, and two private boundaries: the per-step
``samplers._step_with_level`` and the output writer ``cli._write_atomic``.
Every wrapped call adds to per-function counters (calls, inclusive time,
self time).  Calls into the hot layers (targets, samplers, slice geometry,
closed-form kernels) are aggregated only; calls into the other layers also
leave a span (name, start, end, parent) in memory.  ``summary()`` returns
everything as plain data once the command has finished.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array

LAYERS = ("targets", "slice_geometry", "samplers", "kernels", "spectral_oracle", "diagnostics", "config", "cli", "suite")
PRIVATE_BOUNDARIES = {"samplers": ("_step_with_level",), "cli": ("_write_atomic",)}
TARGET_CLASSES = ("TargetDensity", "UniformInterval", "UniformBall")
AGGREGATE_ONLY = {"targets", "samplers", "slice_geometry", "kernels"}
MAX_SPANS = 50_000

#: one transition each; nested ones (a level move inside a step) count once
STEP_FUNCTIONS = {
    f"samplers.{name}"
    for name in (
        "_step_with_level",
        "simple_slice_step",
        "so_sh_step",
        "hit_and_run_slice_step",
        "har_so_sh_step",
        "k_step_hybrid_step",
        "uniform_level_move",
        "so_sh_level_move",
        "hit_and_run_level_move",
        "har_so_sh_level_move",
        "so_sh_line_move",
    )
}

#: stages timed inclusively, outermost call only
STAGES = {
    "spectral_oracle.build_full_matrix": "assembly",
    "spectral_oracle.build_k_step_matrix": "assembly",
    "spectral_oracle.build_k_step_matrices": "assembly",
    "spectral_oracle.build_level_matrix": "level_matrix",
    "spectral_oracle.op_norm_centered": "spectra",
    "spectral_oracle.op_norm_centered_eig": "spectra",
    "spectral_oracle.spectral_gap": "spectra",
    "spectral_oracle.psd_check": "spectra",
    "spectral_oracle.beta_profile": "beta_profile",
    "spectral_oracle.beta_k_numeric_many": "beta_profile",
    "spectral_oracle.beta_k_numeric": "beta_profile",
    "spectral_oracle.verify_tv_bound": "tv",
    "config.load_config": "config_load",
    "config.load_config_text": "config_load",
    "cli._write_atomic": "write",
}


class Tracer:
    def __init__(self):
        self.functions: dict[str, list] = {}  # key -> [calls, inclusive_s, self_s]
        self.stack: list[list] = []  # frames [key, child_s, span_index]
        self.stage_depth: dict[str, int] = {}
        self.stage_s: dict[str, float] = {}
        self.stage_calls: dict[str, int] = {}
        self.counts: dict[str, float] = {
            "density_calls": 0,
            "density_points": 0,
            "density_in_steps": 0,
            "steps": 0,
            "matrices_assembled": 0,
            "assembled_bytes": 0,
            "beta_bins": 0,
            "arpack_calls": 0,
            "arpack_no_convergence": 0,
            "output_bytes": 0,
            "suite_checks": 0,
        }
        self.density_by_caller: dict[str, int] = {}
        self.step_depth = 0
        self.step_us = array("d")
        self.spans: list[list] = []
        self._after = {
            "spectral_oracle.build_full_matrix": self._count_matrices,
            "spectral_oracle.build_k_step_matrix": self._count_matrices,
            "spectral_oracle.build_k_step_matrices": self._count_matrices,
            "spectral_oracle.beta_profile": self._count_bins,
            "cli._write_atomic": self._count_output,
            "suite.run_verification_suite": self._count_suite,
        }

    # -- result hooks -------------------------------------------------------------

    def _count_matrices(self, args, result, outermost):
        if outermost:
            for K in result.values() if isinstance(result, dict) else (result,):
                self.counts["matrices_assembled"] += 1
                self.counts["assembled_bytes"] += 8 * K.P.shape[0] ** 2

    def _count_bins(self, args, result, outermost):
        self.counts["beta_bins"] += len(result[0])

    def _count_output(self, args, result, outermost):
        self.counts["output_bytes"] += os.path.getsize(args[0])

    def _count_suite(self, args, result, outermost):
        self.counts["suite_checks"] += len(result)

    # -- wrappers -------------------------------------------------------------------

    def _wrap(self, key: str, fn):
        stats = self.functions.setdefault(key, [0, 0.0, 0.0])
        stack, clock = self.stack, time.perf_counter
        stage = STAGES.get(key)
        is_step = key in STEP_FUNCTIONS
        spans = None if key.split(".")[0] in AGGREGATE_ONLY else self.spans
        after = self._after.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = -1
            if spans is not None and len(spans) < MAX_SPANS:
                parent = stack[-1][2] if stack else -1
                span = len(spans)
                spans.append([key, 0.0, 0.0, parent])
            frame = [key, 0.0, span if span >= 0 else (stack[-1][2] if stack else -1)]
            stack.append(frame)
            if stage:
                self.stage_depth[stage] = self.stage_depth.get(stage, 0) + 1
            if is_step:
                self.step_depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if span >= 0:
                    spans[span][1], spans[span][2] = t0, t1
                outermost = True
                if stage:
                    depth = self.stage_depth[stage] - 1
                    self.stage_depth[stage] = depth
                    outermost = depth == 0
                    if outermost:
                        self.stage_s[stage] = self.stage_s.get(stage, 0.0) + dt
                        self.stage_calls[stage] = self.stage_calls.get(stage, 0) + 1
                if is_step:
                    self.step_depth -= 1
                    if self.step_depth == 0:
                        self.counts["steps"] += 1
                        self.step_us.append(dt * 1e6)
            if after is not None:
                after(args, result, outermost)
            return result

        return wrapper

    def _wrap_density(self, key: str, fn):
        """Lean wrapper for ``target.density``: counts calls, points and the calling frame."""
        stats = self.functions.setdefault(key, [0, 0.0, 0.0])
        stack, clock, counts, by_caller = self.stack, time.perf_counter, self.counts, self.density_by_caller

        @functools.wraps(fn)
        def density(target, x):
            t0 = clock()
            try:
                return fn(target, x)
            finally:
                dt = clock() - t0
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt
                counts["density_calls"] += 1
                counts["density_points"] += max(1, getattr(x, "size", 1) // getattr(target, "dim", 1))
                if self.step_depth:
                    counts["density_in_steps"] += 1
                if stack:
                    frame = stack[-1]
                    frame[1] += dt
                    by_caller[frame[0]] = by_caller.get(frame[0], 0) + 1

        return density

    def _wrap_arpack(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def arpack(*args, **kwargs):
            counts["arpack_calls"] += 1
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "ArpackNoConvergence":
                    counts["arpack_no_convergence"] += 1
                raise

        return arpack

    def install(self) -> None:
        """Import every layer module and route all references to its functions through wrappers."""
        importlib.import_module("slicegap.cli")
        importlib.import_module("slicegap.suite")
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"slicegap.{layer}")
            for name, obj in list(vars(mod).items()):
                public = not name.startswith("_") or name in PRIVATE_BOUNDARIES.get(layer, ())
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and public:
                    replaced[obj] = self._wrap(f"{layer}.{name}", obj)
        targets = importlib.import_module("slicegap.targets")
        for cls_name in TARGET_CLASSES:
            cls = getattr(targets, cls_name, None)
            for name, obj in list(vars(cls).items()) if cls is not None else ():
                if inspect.isfunction(obj) and not name.startswith("_"):
                    key = f"targets.{cls_name}.{name}"
                    setattr(cls, name, self._wrap_density(key, obj) if name == "density" else self._wrap(key, obj))
        oracle = importlib.import_module("slicegap.spectral_oracle")
        for name in ("svds", "eigsh"):
            if hasattr(oracle, name):
                setattr(oracle, name, self._wrap_arpack(getattr(oracle, name)))
        for mod in [m for n, m in list(sys.modules.items()) if n == "slicegap" or n.startswith("slicegap.")]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, name, replaced[obj])

    def summary(self) -> dict:
        return {
            "functions": self.functions,
            "stage_s": self.stage_s,
            "stage_calls": self.stage_calls,
            "counts": self.counts,
            "density_by_caller": self.density_by_caller,
            "spans": self.spans,
        }
