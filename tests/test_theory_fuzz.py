"""Gap-report rows and kernel invariants on random targets of the supported classes.

1D targets are two triangular or Gaussian components that ``check_Rw``
admits at the step width; 2D targets are Gaussian pairs that ``check_Rdw``
admits.  On every drawn target each row of the gap report passes, and H is
stochastic, reversible and PSD with the discretized target as its
stationary law.  A 1D target whose level-set gap reaches the step width
raises ``OutOfClassError`` from the report.  On every drawn 1D target the
level plan's product P v agrees with the assembled P and satisfies
detailed balance as products, and the Lanczos norm of every drawn kernel,
1D or 2D, agrees with the dense spectrum within 1e-12 and within its own
Ritz residual.  The closed-form beta_k of every drawn 1D target agrees with
adaptive quadrature.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import psd_check, reversibility_check
from slicegap.errors import OutOfClassError
from slicegap.kernels import beta_k_so_sh_closed_form, gamma_t
from slicegap.slice_geometry import level_set_1d
from slicegap.spectral_oracle import (
    DiscreteKernel,
    Grid,
    KernelKind,
    build_full_matrix,
    build_k_step_matrices,
    discretize_target,
    op_norm_centered,
    spectrum,
    verify_theorem_bounds,
)
from slicegap.targets import QuasiConcaveComponent, Shape, TargetDensity, check_Rdw, check_Rw

W = 3.0
#: deterministic draws, so the suite runs the same targets every time
FUZZ = settings(max_examples=40, deadline=None, derandomize=True, database=None)

height = st.floats(0.3, 1.0)


@st.composite
def component_1d(draw, mode: float) -> QuasiConcaveComponent:
    shape = draw(st.sampled_from([Shape.TRIANGULAR, Shape.GAUSSIAN]))
    scale = draw(st.floats(0.4, 1.5) if shape is Shape.TRIANGULAR else st.floats(0.5, 4.0))
    return QuasiConcaveComponent(shape, (mode,), draw(height), scale)


targets_1d = st.floats(0.5, 4.5).flatmap(
    lambda sep: st.tuples(component_1d(0.0), component_1d(sep)).map(lambda comps: TargetDensity(1, comps))
)


@st.composite
def gaussian_pair_2d(draw) -> TargetDensity:
    sep, angle = draw(st.floats(0.0, W / 2.0)), draw(st.floats(0.0, np.pi))
    modes = ((0.0, 0.0), (sep * np.cos(angle), sep * np.sin(angle)))
    return TargetDensity(
        2, tuple(QuasiConcaveComponent(Shape.GAUSSIAN, mode, draw(height), draw(st.floats(0.5, 3.0))) for mode in modes)
    )


def admitted_1d(target, w) -> bool:
    try:
        check_Rw(target, w)
    except OutOfClassError:
        return False
    return True


def assert_lanczos_norm(K):
    """K's Lanczos norm agrees with the dense spectrum within 1e-12, and within its Ritz residual (Parlett)."""
    norm, dense = op_norm_centered(K), spectrum(DiscreteKernel(P=K.P, pi=K.pi))[0]
    assert abs(norm - dense) <= 1e-12
    assert abs(norm - dense) <= K.residual + 1e-13


def assert_report_and_kernel(target, grid, kind, m):
    report = verify_theorem_bounds(target, grid, kind, W, [1, 2], m, k_max=3, norm_bins=128)
    assert [c.name for c in report.checks if not c.passed] == []
    H = build_full_matrix(target, grid, kind, W, m)
    assert_lanczos_norm(H)  # before psd_check, whose dense solve would cache the norm
    assert np.abs(H.P.sum(axis=1) - 1.0).max() < 1e-12
    assert reversibility_check(H) < 1e-15
    assert psd_check(H) >= -1e-10
    pi = discretize_target(target, grid)
    assert np.abs(H.pi - pi[H.support]).max() < 1e-14
    assert pi.sum() - pi[H.support].sum() < 1e-14


@FUZZ
@given(target=targets_1d, cells=st.integers(60, 300))
def test_1d_reports_pass(target, cells):
    assume(admitted_1d(target, W))
    assert_report_and_kernel(target, Grid.for_target(target, cells), KernelKind.SO_SH, m=40)


@settings(FUZZ, max_examples=8)
@given(target=gaussian_pair_2d())
def test_2d_reports_pass(target):
    assert check_Rdw(target, W)
    assert_report_and_kernel(target, Grid.for_target(target, (12, 12)), KernelKind.COMBINED, m=8)


@FUZZ
@given(
    target=targets_1d,
    cells=st.integers(20, 400),
    kind=st.sampled_from([KernelKind.UNIFORM, KernelKind.SO_SH, KernelKind.HIT_AND_RUN]),
    k=st.sampled_from([1, 2, 5, 20]),
    seed=st.integers(0, 2**32 - 1),
)
def test_1d_product_matches_the_matrix(target, cells, kind, k, seed):
    assume(admitted_1d(target, W))
    K = build_k_step_matrices(target, Grid.for_target(target, cells), kind, W, [k], m=40)[k]
    u, v = np.random.default_rng(seed).standard_normal((2, K.n))
    assert np.abs(K.apply(v) - K.P @ v).max() <= 1e-14 * np.abs(v).max()
    scale = np.abs(u) @ (K.pi * (K.P @ np.abs(v)))
    assert abs(u @ (K.pi * K.apply(v)) - (K.pi * K.apply(u)) @ v) <= 1e-14 * scale
    assert_lanczos_norm(K)


@FUZZ
@given(target=targets_1d, k=st.sampled_from([1, 2, 5, 20]))
def test_beta_closed_form_matches_quad(target, k):
    # QUADPACK over [0, t2], split at t1, as ``beta_k_so_sh_closed_form`` once integrated; at its former
    # epsrel of 1e-8 the oracle itself is off by up to 1e-9 on some of these targets, so it runs at 1e-12
    integrate = pytest.importorskip("scipy.integrate")
    assume(admitted_1d(target, W))
    cert = check_Rw(target, W)
    assume(cert.t1 < cert.t2)

    def integrand(t):
        return 0.0 if t <= 0.0 else (1.0 - gamma_t(level_set_1d(target, t), W)) ** (2 * k)

    points = [cert.t1] if cert.t1 > 0.0 else None
    val, _ = integrate.quad(integrand, 0.0, cert.t2, points=points, epsrel=1e-12, epsabs=0.0, limit=400)
    assert beta_k_so_sh_closed_form(target, W, k) == pytest.approx(math.sqrt(val / cert.t2), rel=1e-10, abs=0.0)


@FUZZ
@given(target=targets_1d, fraction=st.floats(0.2, 0.9))
def test_gap_reaching_width_raises(target, fraction):
    # a step width below the gap at half the lower component height
    ls = level_set_1d(target, 0.5 * min(c.height for c in target.components))
    assume(ls.parts.nparts == 2)
    with pytest.raises(OutOfClassError):
        verify_theorem_bounds(target, Grid.for_target(target, 200), KernelKind.SO_SH, fraction * ls.delta, [1], 20)
