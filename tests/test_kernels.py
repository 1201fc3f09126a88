import math

import numpy as np
import pytest

from oracles import build_level_matrix, psd_check, reversibility_check
from slicegap.errors import OutOfClassError
from slicegap.kernels import (
    beta_k_so_sh_closed_form,
    combined_norm_bound,
    gamma_t,
    har_level_norm_bound,
    mixture_weight,
    sphere_surface_area,
)
from slicegap.slice_geometry import level_set_1d, line_section
from slicegap.spectral_oracle import (
    Grid,
    KernelKind,
    beta_k_numeric_many,
    op_norm_centered,
)
from slicegap.targets import QuasiConcaveComponent, Shape, TargetDensity, uniform_ball

# mixture weight of the reference bimodal target at level one half, step width 3:
# interval lengths 1 and 0.75, gap 1.125, so ((3 - 1.125)/3) * (1.75/2.875)
GAMMA_T1_HALF = (1.875 / 3.0) * (1.75 / 2.875)


def test_sphere_surface_area():
    assert sphere_surface_area(1) == pytest.approx(2.0)
    assert sphere_surface_area(2) == pytest.approx(2.0 * math.pi)
    assert sphere_surface_area(3) == pytest.approx(4.0 * math.pi)
    assert sphere_surface_area(4) == pytest.approx(2.0 * math.pi**2)


class TestGamma:
    def test_no_gap_gives_one(self, t1):
        ls = level_set_1d(t1, 0.9)
        assert gamma_t(ls, 3.0) == 1.0

    def test_direct_arithmetic(self, t1):
        # synthetic numbers: length 1, gap 0.5, width 1 -> (0.5/1) * (1/1.5)
        from slicegap.slice_geometry import LineSection
        from slicegap.targets import Interval

        ls = LineSection.from_intervals([Interval(0.0, 0.5), Interval(1.0, 1.5)])
        assert (ls.length, ls.delta) == (1.0, 0.5)
        assert gamma_t(ls, 1.0) == pytest.approx(1.0 / 3.0)

    def test_vanishes_as_gap_approaches_width(self, t1):
        ls = level_set_1d(t1, 0.5)
        w = ls.delta * (1.0 + 1e-9)
        assert gamma_t(ls, w) < 1e-8

    def test_gap_at_width_rejected(self, t1):
        ls = level_set_1d(t1, 0.5)
        with pytest.raises(OutOfClassError):
            gamma_t(ls, ls.delta)

    def test_t1_frozen_value(self, t1):
        assert gamma_t(level_set_1d(t1, 0.5), 3.0) == pytest.approx(GAMMA_T1_HALF, abs=1e-14)


class TestOpNormSoSh:
    def test_no_gap(self, t1):
        assert 1.0 - gamma_t(level_set_1d(t1, 0.9), 3.0) == 0.0

    def test_t1_value(self, t1):
        assert 1.0 - gamma_t(level_set_1d(t1, 0.5), 3.0) == pytest.approx(1.0 - GAMMA_T1_HALF)

    def test_approaches_one(self, t1):
        ls = level_set_1d(t1, 0.5)
        assert 1.0 - gamma_t(ls, ls.delta * (1 + 1e-12)) > 1.0 - 1e-9

    def test_matches_discretized_second_singular_value(self, t1):
        grid = Grid.for_target(t1, 500)
        for t in (0.2, 0.5, 0.7):
            K = build_level_matrix(t1, grid, t, KernelKind.SO_SH, 3.0)
            root = np.sqrt(K.pi)
            A = (root[:, None] * K.P) / root[None, :]
            svals = np.linalg.svd(A, compute_uv=False)
            assert svals[1] == pytest.approx(1.0 - gamma_t(level_set_1d(t1, t), 3.0), abs=1e-6)


class TestBetaClosedForm:
    def test_unimodal_is_zero(self):
        target = TargetDensity(1, (QuasiConcaveComponent(Shape.TRIANGULAR, (0.0,), 1.0, 1.0),))
        for k in (1, 3, 10):
            assert beta_k_so_sh_closed_form(target, 2.0, k) == 0.0

    def test_nonincreasing_in_k(self, t1):
        vals = [beta_k_so_sh_closed_form(t1, 3.0, k) for k in range(1, 21)]
        assert all(b >= a for a, b in zip(vals[1:], vals[:-1]))

    def test_against_numeric_oracle(self, t1):
        grid = Grid.for_target(t1, 800)
        for k in (1, 5):
            closed = beta_k_so_sh_closed_form(t1, 3.0, k)
            numeric = beta_k_numeric_many(t1, grid, KernelKind.SO_SH, 3.0, [k], m=200, norm_bins=800)[k]
            assert closed == pytest.approx(numeric, abs=5e-3)

    def test_rejects_bad_k(self, t1):
        with pytest.raises(ValueError):
            beta_k_so_sh_closed_form(t1, 3.0, 0)

    def test_nan_integrand_raises(self, t1, monkeypatch):
        import slicegap.kernels

        monkeypatch.setattr(slicegap.kernels, "gamma_t", lambda section, w: math.nan)
        with pytest.raises(ArithmeticError, match="did not settle"):
            beta_k_so_sh_closed_form(t1, 3.0, 1)


class TestHarNormBound:
    def test_disk_value(self):
        disk = uniform_ball((0.0, 0.0), 1.0)
        assert har_level_norm_bound(disk, 0.5) == pytest.approx(0.75)

    def test_in_unit_interval(self, t2):
        for t in (0.05, 0.3, 0.7):
            b = har_level_norm_bound(t2, t)
            assert 0.0 <= b < 1.0

    def test_dominates_discrete_norm(self, t2):
        grid = Grid.for_target(t2, (32, 32))
        for t in (0.1, 0.5):
            K = build_level_matrix(t2, grid, t, KernelKind.HIT_AND_RUN, None)
            assert op_norm_centered(K) <= har_level_norm_bound(t2, t) + 5e-3


class TestCombinedDensity:
    def test_line_weights_match_section(self, t2):
        sec = line_section(t2, 0.5, (0.0, 0.0), (1.0, 0.0))
        weight = mixture_weight(sec.length, sec.delta, 3.0)
        assert 0.0 < weight < 1.0
        gamma = ((3.0 - sec.delta) / 3.0) * (sec.length / (sec.length + sec.delta))
        assert weight == pytest.approx(gamma)


class TestCombinedNormBound:
    def test_disk_value(self):
        disk = uniform_ball((0.0, 0.0), 1.0)
        assert combined_norm_bound(disk, 0.5) == pytest.approx(0.875)

    def test_weaker_than_chord_bound(self, t2):
        for t in (0.05, 0.3, 0.8):
            assert combined_norm_bound(t2, t) >= har_level_norm_bound(t2, t)

    def test_dominates_discrete_norm(self, t2):
        grid = Grid.for_target(t2, (32, 32))
        for t in (0.1, 0.5):
            K = build_level_matrix(t2, grid, t, KernelKind.COMBINED, 3.0)
            assert op_norm_centered(K) <= combined_norm_bound(t2, t) + 5e-3


class TestDiscretizedLevelProperties:
    def test_psd_and_reversible_1d(self, t1):
        grid = Grid.for_target(t1, 500)
        for t in np.linspace(0.05, 0.95, 10):
            for kind in (KernelKind.UNIFORM, KernelKind.SO_SH):
                K = build_level_matrix(t1, grid, float(t), kind, 3.0)
                assert psd_check(K) >= -1e-10
                assert reversibility_check(K) < 1e-10

    def test_psd_and_reversible_2d(self, t2):
        grid = Grid.for_target(t2, (32, 32))
        for t in (0.07, 0.3, 0.6, 0.9):
            for kind in (KernelKind.HIT_AND_RUN, KernelKind.COMBINED):
                K = build_level_matrix(t2, grid, t, kind, 3.0)
                assert psd_check(K) >= -1e-10
                assert reversibility_check(K) < 1e-10

    def test_level_matrices_stochastic_and_invariant(self, t1, t2):
        grid1 = Grid.for_target(t1, 400)
        grid2 = Grid.for_target(t2, (24, 24))
        cases = [
            (t1, grid1, KernelKind.SO_SH),
            (t1, grid1, KernelKind.UNIFORM),
            (t2, grid2, KernelKind.COMBINED),
            (t2, grid2, KernelKind.HIT_AND_RUN),
        ]
        for target, grid, kind in cases:
            for t in (0.15, 0.5, 0.85):
                K = build_level_matrix(target, grid, t, kind, 3.0)
                assert np.abs(K.P.sum(axis=1) - 1.0).max() < 1e-12
                assert np.abs(K.pi @ K.P - K.pi).max() < 1e-10
