"""The package's public surface, and the names the benchmark harness imports.

``slicegap.__all__`` is pinned as a literal, so adding or removing an
export is a visible diff to this file.  ``bench/`` imports a few names by
module path, including one private function; each must keep resolving.
Importing the command line and the suite loads no scipy module that a
command may not call.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slicegap

PUBLIC = [
    "DiscreteKernel",
    "GapReport",
    "Grid",
    "KernelKind",
    "QuasiConcaveComponent",
    "RwCertificate",
    "SamplerConfig",
    "SamplerKind",
    "Shape",
    "SliceGapError",
    "TargetDensity",
    "Trace",
    "beta_k_so_sh_closed_form",
    "build_full_matrix",
    "build_k_step_matrices",
    "build_level_matrix",
    "check_Rdw",
    "check_Rw",
    "combined_norm_bound",
    "diam_level_set",
    "discretize_target",
    "errors",
    "eval_density",
    "gamma_t",
    "gaussian_pair",
    "har_level_norm_bound",
    "har_small_set_weight",
    "kernels",
    "level_set_1d",
    "line_section",
    "mixture_weight",
    "op_norm_centered",
    "psd_check",
    "reversibility_check",
    "run_chain",
    "samplers",
    "slice_geometry",
    "spectral_gap",
    "spectral_oracle",
    "targets",
    "twin_triangles",
    "uniform_sample_level_set",
    "verify_corollary",
    "verify_monotonicity",
    "verify_mt_bound",
    "verify_power_bound",
    "verify_sandwich",
    "verify_theorem_bounds",
    "verify_tv_bound",
    "vol_level_set",
]

#: (module, name) pairs that bench/child.py imports and bench/tracer.py wraps by name
BENCH_NAMES = [
    ("config", "load_config"),
    ("spectral_oracle", "Grid"),
    ("spectral_oracle", "KernelKind"),
    ("spectral_oracle", "build_full_matrix"),
    ("targets", "gaussian_pair"),
    ("targets", "twin_triangles"),
    ("samplers", "_step_with_level"),
    # the tracer counts ARPACK calls by rebinding this attribute, so eigsh stays a module-level import
    ("spectral_oracle", "eigsh"),
]


def test_exports_are_pinned():
    assert sorted(slicegap.__all__) == PUBLIC


@pytest.mark.parametrize("module, name", BENCH_NAMES)
def test_bench_names_resolve(module, name):
    assert callable(getattr(importlib.import_module(f"slicegap.{module}"), name))


def test_import_leaves_out_scipy_stats_and_integrate():
    code = (
        "import sys, slicegap.cli, slicegap.suite; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'integrate'])))"
    )
    src = str(Path(slicegap.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
