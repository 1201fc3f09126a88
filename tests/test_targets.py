import re

import numpy as np
import pytest

from slicegap.errors import OutOfClassError, UnsupportedShapeError
from slicegap.slice_geometry import level_set_1d
from slicegap.targets import (
    QuasiConcaveComponent,
    Shape,
    TargetDensity,
    check_Rdw,
    check_Rw,
    eval_density,
    merge_level,
    uniform_interval,
)


def make_gaussian_pair_1d():
    """Two 1D Gaussians whose level regions overlap below a positive split level."""
    return TargetDensity(
        dim=1,
        components=(
            QuasiConcaveComponent(Shape.GAUSSIAN, (0.0,), 1.0, 1.0),
            QuasiConcaveComponent(Shape.GAUSSIAN, (1.2,), 0.9, 1.5),
        ),
        name="gaussian-pair-1d",
    )


class TestEvalDensity:
    def test_gaussian_peak(self):
        comp = QuasiConcaveComponent(Shape.GAUSSIAN, (0.0,), 1.0, 2.0)
        target = TargetDensity(1, (comp,))
        assert eval_density(target, 0.0) == 1.0

    def test_t2_second_mode_peak(self, t2):
        assert eval_density(t2, (1.5, 0.0)) == pytest.approx(1.0, abs=0)

    def test_triangle_linear_interpolation(self):
        comp = QuasiConcaveComponent(Shape.TRIANGULAR, (-1.0,), 1.0, 1.0)
        target = TargetDensity(1, (comp,))
        assert eval_density(target, -0.5) == pytest.approx(0.5)

    def test_dimension_mismatch(self, t2):
        with pytest.raises(ValueError):
            eval_density(t2, (0.0,))

    def test_zero_outside_support(self, t1):
        assert eval_density(t1, 3.0) == 0.0


class TestSupNorm:
    def test_two_heights(self, t1):
        assert t1.sup_norm == 1.0

    def test_single_component(self):
        target = TargetDensity(1, (QuasiConcaveComponent(Shape.GAUSSIAN, (0.0,), 2.5, 1.0),))
        assert target.sup_norm == 2.5

    def test_t2(self, t2):
        assert t2.sup_norm == 1.0
        # grid search never exceeds the sup norm
        xs = np.random.default_rng(0).uniform(-3, 5, size=(20_000, 2))
        assert np.asarray(t2.density(xs)).max() <= 1.0 + 1e-15


class TestLevelRadius:
    @pytest.mark.parametrize(
        "comp",
        [
            QuasiConcaveComponent(Shape.TRIANGULAR, (0.5,), 1.2, 2.0),
            QuasiConcaveComponent(Shape.GAUSSIAN, (-0.3,), 0.9, 1.7),
        ],
    )
    def test_radius_separates_membership(self, comp):
        rng = np.random.default_rng(3)
        for _ in range(200):
            t = rng.uniform(1e-6, comp.height)
            r = comp.level_radius(t)
            inside = comp.mode[0] + rng.uniform(-1, 1) * r * 0.999
            outside = comp.mode[0] + np.sign(rng.uniform(-1, 1)) * r * 1.001
            assert float(comp.density(inside)) >= t - 1e-12
            assert float(comp.density(outside)) < t

    def test_radius_rejects_bad_level(self):
        comp = QuasiConcaveComponent(Shape.GAUSSIAN, (0.0,), 1.0, 1.0)
        with pytest.raises(ValueError):
            comp.level_radius(1.5)
        with pytest.raises(ValueError):
            comp.level_radius(0.0)


def test_density_is_pointwise_max(t1):
    rng = np.random.default_rng(5)
    xs = rng.uniform(-2.5, 2.5, size=500)
    dens = np.asarray(t1.density(xs))
    comp_vals = np.stack([np.asarray(c.density(xs)) for c in t1.components])
    assert np.all(dens >= comp_vals - 1e-15)
    assert np.allclose(dens, comp_vals.max(axis=0))


class TestCheckRw:
    def test_t1_certificate(self, t1):
        cert = check_Rw(t1, 3.0)
        # triangle supports touch only at zero, so the split level is zero
        assert cert.t1 <= 1e-9
        assert cert.t2 == pytest.approx(0.8)
        assert cert.w == 3.0

    def test_too_small_width_rejected(self, t1):
        with pytest.raises(OutOfClassError):
            check_Rw(t1, 0.5)

    def test_unimodal_degenerate(self):
        target = TargetDensity(1, (QuasiConcaveComponent(Shape.GAUSSIAN, (0.0,), 1.0, 1.0),))
        cert = check_Rw(target, 0.1)
        assert cert.t1 == cert.t2 == target.sup_norm

    def test_certificate_part_counts(self):
        target = make_gaussian_pair_1d()
        cert = check_Rw(target, 3.0)
        assert 0.0 < cert.t1 < cert.t2 == pytest.approx(0.9)
        rng = np.random.default_rng(11)
        for t in cert.t1 + (cert.t2 - cert.t1) * rng.random(100):
            if t <= cert.t1 + 1e-9:
                continue
            assert level_set_1d(target, float(t)).parts.nparts == 2
        for t in cert.t1 * rng.random(50):
            if t <= 0.0:
                continue
            assert level_set_1d(target, float(t)).parts.nparts == 1

    def test_merge_level_is_split_threshold(self):
        target = make_gaussian_pair_1d()
        t_split = merge_level(target)
        assert level_set_1d(target, t_split + 1e-6).parts.nparts == 2
        assert level_set_1d(target, max(t_split - 1e-6, 1e-9)).parts.nparts == 1


class TestCheckRdw:
    def test_t2_with_twice_mode_distance(self, t2):
        assert check_Rdw(t2, 3.0) is True

    def test_too_small_width(self, t2):
        assert check_Rdw(t2, 2.0) is False

    def test_coincident_modes(self):
        target = TargetDensity(
            2,
            (
                QuasiConcaveComponent(Shape.GAUSSIAN, (0.0, 0.0), 1.0, 1.0),
                QuasiConcaveComponent(Shape.GAUSSIAN, (0.0, 0.0), 0.5, 2.0),
            ),
        )
        assert check_Rdw(target, 1e-6) is True

    def test_triangular_unsupported(self, t1):
        with pytest.raises(UnsupportedShapeError):
            check_Rdw(t1, 3.0)


def test_triangular_only_one_dimensional():
    with pytest.raises(UnsupportedShapeError):
        QuasiConcaveComponent(Shape.TRIANGULAR, (0.0, 0.0), 1.0, 1.0)


@pytest.mark.parametrize("lo, hi", [(0.1, 0.7), (0.2, 0.9), (-0.7, 0.9), (1.1, 4.2), (-3.3, 10.01)])
def test_uniform_interval_refuses_edges_it_cannot_reproduce(lo, hi):
    with pytest.raises(ValueError, match=re.escape(f"edges {lo!r} and {hi!r}")):
        uniform_interval(lo, hi)


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 2.0), (-0.7, 1.7)])
def test_uniform_interval_level_region_is_its_edges(lo, hi):
    u = uniform_interval(lo, hi)
    (part,) = level_set_1d(u, 0.5).parts.intervals
    assert (part.lo, part.hi) == (lo, hi)
    assert eval_density(u, lo) == eval_density(u, hi) == 1.0


def test_support_bounds_cover_density(t2):
    bounds = t2.support_bounds(1e-4)
    rng = np.random.default_rng(8)
    pts = rng.uniform(-6, 8, size=(50_000, 2))
    dens = np.asarray(t2.density(pts))
    outside = np.zeros(len(pts), dtype=bool)
    for axis, (lo, hi) in enumerate(bounds):
        outside |= (pts[:, axis] < lo) | (pts[:, axis] > hi)
    assert dens[outside].max() < 1e-4 + 1e-12
