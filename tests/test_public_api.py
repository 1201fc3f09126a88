"""The package's public surface, and the names the benchmark harness imports.

``slicegap.__all__`` is pinned as a literal, so adding or removing an
export is a visible diff to this file.  ``bench/`` imports a few names by
module path, including one private function; each must keep resolving.
Importing the command line and the suite loads no scipy module that a
command may not call, and ``scipy.sparse`` loads only for ARPACK.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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
    # the tracer counts ARPACK calls by rebinding this attribute, so eigsh stays a module-level name
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


def _modules_after(code: str, cwd) -> str:
    """The sorted list of ``scipy.sparse`` modules loaded once ``code`` has run in a fresh interpreter, as printed."""
    code += "; import sys; print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"
    src = str(Path(slicegap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


SMALL_2D = """
[target]
preset = gaussian_pair

[sampler]
kind = har_so_sh
w = 3.0

[run]
n = 2000
seed = 5
burn_in = 100

[oracle]
cells = 12,12
levels_m = 4
k_list = 1,2
k_max = 2
tv_n_max = 5
norm_bins = 64
"""


def test_import_sample_and_small_2d_gap_leave_out_scipy_sparse(tmp_path):
    assert _modules_after("import slicegap.cli, slicegap.suite", tmp_path) == "[]"
    (tmp_path / "t2.cfg").write_text(SMALL_2D)
    for command in ("sample", "gap"):
        run = f"import slicegap.cli as c; assert c.main(['{command}', '--config', 't2.cfg', '--out', '{command}']) == 0"
        assert _modules_after(run, tmp_path) == "[]"


def test_arpack_runs_through_the_module_name(monkeypatch):
    # above 800 cells the norm comes from ARPACK, looked up as ``spectral_oracle.eigsh`` at call time
    from slicegap import spectral_oracle as oracle

    calls = []
    arpack = oracle.eigsh
    monkeypatch.setattr(oracle, "eigsh", lambda *args, **kwargs: calls.append(args[0].shape) or arpack(*args, **kwargs))
    t1 = slicegap.twin_triangles()
    grid = oracle.Grid.for_target(t1, 900)
    H = oracle.build_full_matrix(t1, grid, oracle.KernelKind.SO_SH, 3.0, m=20)
    assert H.n > 800
    norm = oracle.op_norm_centered(H)
    assert calls == [(H.n, H.n)]
    root = np.sqrt(H.pi)
    C = (root[:, None] * (H.P - H.pi)) / root[None, :]
    assert norm == pytest.approx(np.abs(np.linalg.eigvalsh(C)).max(), abs=1e-10)
