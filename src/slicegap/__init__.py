"""Slice samplers over analytic bimodal targets, with a discretized-operator
verification harness for the per-level kernel norms and spectral-gap
inequalities that govern their convergence."""

from .errors import SliceGapError
from .kernels import (
    beta_k_so_sh_closed_form,
    combined_norm_bound,
    gamma_t,
    har_level_norm_bound,
    har_small_set_weight,
    mixture_weight,
)
from .samplers import SamplerConfig, SamplerKind, Trace, run_chain
from .slice_geometry import (
    diam_level_set,
    level_set_1d,
    line_section,
    uniform_sample_level_set,
    vol_level_set,
)
from .spectral_oracle import (
    DiscreteKernel,
    GapReport,
    Grid,
    KernelKind,
    build_full_matrix,
    build_k_step_matrices,
    discretize_target,
    op_norm_centered,
    spectral_gap,
    verify_corollary,
    verify_monotonicity,
    verify_mt_bound,
    verify_power_bound,
    verify_sandwich,
    verify_theorem_bounds,
    verify_tv_bound,
)
from .targets import (
    QuasiConcaveComponent,
    RwCertificate,
    Shape,
    TargetDensity,
    check_Rdw,
    check_Rw,
    eval_density,
    gaussian_pair,
    twin_triangles,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
