"""The package's public surface, and the names the benchmark harness imports.

``slicegap.__all__`` is pinned as a literal, so adding or removing an
export is a visible diff to this file.  ``bench/`` imports a few names by
module path; each must keep resolving.  Its tracer wraps the names a module
has, so one it lists that the package no longer defines is skipped.
Importing the command line and the suite loads no scipy module, and
neither does a ``gap`` report, whose norms come from the oracle's own
Lanczos solver, nor ``verify``, whose chi-square and Kolmogorov-Smirnov
tails and beta quadrature are the package's own.  A ``gap`` report and
``verify`` load no ``numpy.ma`` either.  Importing the command line and a
``gap`` report load no OpenSSL (``_hashlib``): the config digest is
CPython's builtin SHA-256.  ``sample`` loads no ``numpy.fft``: its ESS
sums lag products.  ``sample`` and ``verify`` are not held to
that, since they make a ``numpy.random`` generator, and ``numpy.random``
imports ``secrets``, which imports ``hmac``, which loads ``_hashlib``.
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
]


def test_exports_are_pinned():
    assert sorted(slicegap.__all__) == PUBLIC


@pytest.mark.parametrize("module, name", BENCH_NAMES)
def test_bench_names_resolve(module, name):
    assert callable(getattr(importlib.import_module(f"slicegap.{module}"), name))


def test_import_leaves_out_scipy_stats_and_integrate():
    code = (
        "import sys, slicegap.cli, slicegap.suite; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(slicegap.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _modules_after(code: str, cwd, packages: tuple[str, ...] = ("scipy.sparse",)) -> str:
    """The sorted list of modules in ``packages`` loaded once ``code`` has run in a fresh interpreter, as printed."""
    heads = tuple(p + "." for p in packages)
    code += f"; import sys; print(sorted(m for m in sys.modules if (m + '.').startswith({heads!r})))"
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

#: a 1D report on more cells than the dense norm path once took
LARGE_1D = SMALL_2D.replace("gaussian_pair", "twin_triangles").replace("har_so_sh", "so_sh")
LARGE_1D = LARGE_1D.replace("cells = 12,12", "cells = 900").replace("levels_m = 4", "levels_m = 20")
LARGE_1D = LARGE_1D.replace("norm_bins = 64\n", "")  # a 1D beta is exact over the level plan's nodes


def test_import_sample_and_small_2d_gap_leave_out_scipy_sparse(tmp_path):
    assert _modules_after("import slicegap.cli, slicegap.suite", tmp_path, ("scipy.sparse", "_hashlib")) == "[]"
    (tmp_path / "t2.cfg").write_text(SMALL_2D)
    (tmp_path / "t1.cfg").write_text(LARGE_1D)
    # a gap report loads no numpy.ma either: ``np.unique`` without flags would load it; nor OpenSSL, which
    # ``hashlib`` would load for the config digest
    gap = ("scipy", "numpy.ma", "_hashlib")
    # ``sample`` loads no numpy.fft: its ESS sums lag products, and an FFT autocovariance would load it
    sample = ("scipy.sparse", "numpy.fft")
    runs = (("sample", "t2", sample), ("sample", "t1", sample), ("gap", "t2", gap), ("gap", "t1", gap))
    for command, config, packages in runs:
        out = f"{command}-{config}"
        run = f"import slicegap.cli as c; assert c.main(['{command}', '--config', '{config}.cfg', '--out', '{out}']) == 0"
        assert _modules_after(run, tmp_path, packages) == "[]", (command, config)


def test_verify_leaves_out_scipy(tmp_path):
    # nor numpy.ma, which the 2D strip probes' node and count sets would load through ``np.unique``
    run = "import slicegap.cli as c; assert c.main(['verify', '--out', 'v']) == 0"
    assert _modules_after(run, tmp_path, ("scipy", "numpy.ma")) == "[]"


def test_lanczos_runs_through_the_module_name(monkeypatch):
    # every norm without a cached value comes from Lanczos, looked up as ``spectral_oracle._lanczos`` at call
    # time, so a tool can count solves by rebinding it; the Ritz residual stays on the kernel
    from slicegap import spectral_oracle as oracle

    calls = []
    lanczos = oracle._lanczos
    monkeypatch.setattr(oracle, "_lanczos", lambda op, n: calls.append(n) or lanczos(op, n))
    t1 = slicegap.twin_triangles()
    for cells in (300, 900):
        H = oracle.build_full_matrix(t1, oracle.Grid.for_target(t1, cells), oracle.KernelKind.SO_SH, 3.0, m=20)
        norm = oracle.op_norm_centered(H)
        assert calls[-1] == H.n
        root = np.sqrt(H.pi)
        C = (root[:, None] * (H.P - H.pi)) / root[None, :]
        assert abs(norm - np.abs(np.linalg.eigvalsh(C)).max()) <= H.residual + 1e-13
    assert len(calls) == 2


def test_bench_tracer_installs(tmp_path):
    # ``bench/tracer.py`` wraps the oracle's solver names only where they exist, so it still installs
    # and times a norm
    bench = Path(slicegap.__file__).resolve().parents[2] / "bench"
    code = (
        f"import sys; sys.path.insert(0, {str(bench)!r}); from tracer import Tracer; t = Tracer(); t.install(); "
        "import numpy as np, slicegap.spectral_oracle as o; "
        "o.op_norm_centered(o.DiscreteKernel(P=np.full((2, 2), 0.5), pi=np.full(2, 0.5))); "
        "print(t.functions['spectral_oracle.op_norm_centered'][0])"
    )
    src = str(Path(slicegap.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "1"
