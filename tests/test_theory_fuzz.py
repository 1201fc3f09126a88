"""Gap-report rows and kernel invariants on random targets of the supported classes.

1D targets are two triangular or Gaussian components that ``check_Rw``
admits at the step width; 2D targets are Gaussian pairs that ``check_Rdw``
admits.  On every drawn target each row of the gap report passes, and H is
stochastic, reversible and PSD with the discretized target as its
stationary law.  A 1D target whose level-set gap reaches the step width
raises ``OutOfClassError`` from the report.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slicegap.errors import MembershipViolationError, OutOfClassError
from slicegap.slice_geometry import level_set_1d
from slicegap.spectral_oracle import (
    Grid,
    KernelKind,
    build_full_matrix,
    discretize_target,
    psd_check,
    reversibility_check,
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
    except MembershipViolationError:
        return False
    return True


def assert_report_and_kernel(target, grid, kind, m):
    report = verify_theorem_bounds(target, grid, kind, W, [1, 2], m, k_max=3, norm_bins=128)
    assert [c.name for c in report.checks if not c.passed] == []
    H = build_full_matrix(target, grid, kind, W, m)
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
@given(target=targets_1d, fraction=st.floats(0.2, 0.9))
def test_gap_reaching_width_raises(target, fraction):
    # a step width below the gap at half the lower component height
    ls = level_set_1d(target, 0.5 * min(c.height for c in target.components))
    assume(ls.parts.nparts == 2)
    with pytest.raises(OutOfClassError):
        verify_theorem_bounds(target, Grid.for_target(target, 200), KernelKind.SO_SH, fraction * ls.delta_t, [1], 20)
