"""Slice samplers over analytic bimodal targets, with a discretized-operator
verification harness for the per-level kernel norms and spectral-gap
inequalities that govern their convergence."""

from .errors import SliceGapError
from .kernels import (
    beta_k_so_sh_closed_form,
    combined_level_kernel_density,
    combined_norm_bound,
    gamma_t,
    har_kernel_density,
    har_level_norm_bound,
    har_small_set_weight,
    mixture_weight,
    op_norm_so_sh,
    so_sh_level_kernel_measure,
)
from .samplers import (
    SamplerConfig,
    SamplerKind,
    Trace,
    har_so_sh_step,
    hit_and_run_slice_step,
    k_step_hybrid_step,
    run_chain,
    simple_slice_step,
    so_sh_step,
)
from .slice_geometry import (
    diam_level_set,
    level_density,
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
    beta_k_numeric,
    build_full_matrix,
    build_k_step_matrices,
    build_level_matrix,
    discretize_target,
    op_norm_centered,
    psd_check,
    reversibility_check,
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
    sup_norm,
    twin_triangles,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
