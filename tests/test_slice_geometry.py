import math

import numpy as np
import pytest
from scipy import stats

from oracles import mc_volume, scan_intervals_1d, scan_line_section
from slicegap.errors import EmptyLevelSetError, OffSliceError
from slicegap.slice_geometry import (
    IntervalUnion,
    diam_level_set,
    level_set_1d,
    line_section,
    uniform_sample_level_set,
    vol_level_set,
    vol_level_set_with_error,
)
from slicegap.targets import (
    Interval,
    QuasiConcaveComponent,
    Shape,
    TargetDensity,
    uniform_ball,
    uniform_interval,
)


class TestLevelSet1D:
    def test_t1_bimodal_level_matches_scan(self, t1):
        ls = level_set_1d(t1, 0.5)
        assert ls.parts.nparts == 2
        (a1, b1), (a2, b2) = [(iv.lo, iv.hi) for iv in ls.parts.intervals]
        # frozen values, cross-checked against the dense membership scan below
        assert (a1, b1) == pytest.approx((-1.5, -0.5), abs=1e-12)
        assert (a2, b2) == pytest.approx((0.625, 1.375), abs=1e-12)
        assert ls.delta == pytest.approx(1.125, abs=1e-12)
        assert ls.length == pytest.approx(1.75, abs=1e-12)
        scanned = scan_intervals_1d(t1, 0.5, -2.5, 2.5)
        assert len(scanned) == 2
        for (lo, hi), iv in zip(scanned, ls.parts.intervals):
            assert lo == pytest.approx(iv.lo, abs=5e-6)
            assert hi == pytest.approx(iv.hi, abs=5e-6)

    def test_level_above_second_height_is_single(self, t1):
        ls = level_set_1d(t1, 0.9)
        assert ls.parts.nparts == 1
        assert (ls.parts.intervals[0].lo, ls.parts.intervals[0].hi) == pytest.approx((-1.1, -0.9))
        assert ls.delta == 0.0

    def test_empty_and_invalid_levels(self, t1):
        with pytest.raises(EmptyLevelSetError):
            level_set_1d(t1, 1.0 + 1e-6)
        with pytest.raises(ValueError):
            level_set_1d(t1, 0.0)
        with pytest.raises(ValueError):
            level_set_1d(t1, -0.3)

    def test_nesting(self, t1):
        rng = np.random.default_rng(2)
        for _ in range(100):
            lo, hi = np.sort(rng.uniform(1e-3, 1.0, size=2))
            outer = level_set_1d(t1, float(lo)).parts
            inner = level_set_1d(t1, float(hi)).parts
            for iv in inner.intervals:
                assert any(o.lo - 1e-12 <= iv.lo and iv.hi <= o.hi + 1e-12 for o in outer.intervals)


class TestLineSection:
    def test_axis_chord_hits_both_balls(self, t2):
        sec = line_section(t2, 0.5, (0.0, 0.0), (1.0, 0.0))
        r1 = math.sqrt(math.log(2.0) / 2.0)
        r2 = math.sqrt(math.log(2.0))
        assert sec.parts.nparts == 2
        assert (sec.parts.intervals[0].lo, sec.parts.intervals[0].hi) == pytest.approx((-r1, r1))
        assert (sec.parts.intervals[1].lo, sec.parts.intervals[1].hi) == pytest.approx((1.5 - r2, 1.5 + r2))
        assert sec.delta == pytest.approx(1.5 - r2 - r1)
        scanned = scan_line_section(t2, 0.5, (0.0, 0.0), (1.0, 0.0), -3.0, 4.0)
        assert len(scanned) == 2
        for (lo, hi), iv in zip(scanned, sec.parts.intervals):
            assert lo == pytest.approx(iv.lo, abs=5e-5)
            assert hi == pytest.approx(iv.hi, abs=5e-5)

    def test_perpendicular_chord_misses_far_ball(self, t2):
        sec = line_section(t2, 0.5, (0.0, 0.0), (0.0, 1.0))
        r1 = math.sqrt(math.log(2.0) / 2.0)
        assert sec.parts.nparts == 1
        assert (sec.parts.intervals[0].lo, sec.parts.intervals[0].hi) == pytest.approx((-r1, r1))
        # the far ball radius is below the distance from the line to its mode
        assert math.sqrt(math.log(2.0)) < 1.5

    def test_origin_always_on_section(self, t2):
        rng = np.random.default_rng(4)
        for _ in range(200):
            x = rng.uniform(-1.0, 2.0, size=2)
            rho = float(t2.density(x))
            if rho <= 1e-9:
                continue
            t = rho * rng.uniform(0.05, 0.999)
            theta = rng.standard_normal(2)
            theta /= np.linalg.norm(theta)
            sec = line_section(t2, float(t), x, theta)
            assert sec.parts.contains(0.0, 1e-9)

    def test_membership_scan_consistency(self, t2):
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 1000:
            x = rng.uniform(-0.5, 2.0, size=2)
            rho = float(t2.density(x))
            if rho < 0.05:
                continue
            t = rho * rng.uniform(0.1, 0.99)
            theta = rng.standard_normal(2)
            theta /= np.linalg.norm(theta)
            sec = line_section(t2, float(t), x, theta)
            s = rng.uniform(-3.0, 3.0)
            val = float(t2.density(x + s * theta))
            if abs(val - t) < 1e-9:
                continue
            assert sec.parts.contains(s, 1e-9) == (val >= t)
            checked += 1

    def test_errors(self, t2):
        with pytest.raises(OffSliceError):
            line_section(t2, 0.9, (3.0, 3.0), (1.0, 0.0))
        with pytest.raises(ValueError):
            line_section(t2, 0.5, (0.0, 0.0), (1.0, 1.0))


class TestVolume:
    def test_single_disk(self):
        ball = uniform_ball((0.0, 0.0), 0.7)
        assert vol_level_set(ball, 0.5) == pytest.approx(math.pi * 0.49)

    def test_disjoint_disks(self, t2):
        # at level 0.5 the two balls are disjoint: r1 + r2 < 1.5
        r1 = math.sqrt(math.log(2.0) / 2.0)
        r2 = math.sqrt(math.log(2.0))
        assert r1 + r2 < 1.5
        assert vol_level_set(t2, 0.5) == pytest.approx(math.pi * (r1**2 + r2**2))

    def test_overlapping_disks_against_monte_carlo(self, t2):
        closed = vol_level_set(t2, 0.3)
        est, se = mc_volume(t2, 0.3, (-3.0, -3.0), (4.5, 3.0), n=1_000_000, seed=10)
        assert abs(closed - est) <= 3.0 * se

    def test_three_dimensional_monte_carlo_path(self):
        target = TargetDensity(3, (QuasiConcaveComponent(Shape.GAUSSIAN, (0.0, 0.0, 0.0), 1.0, 1.0),))
        t = math.exp(-1.0)  # level radius exactly 1
        est, se = vol_level_set_with_error(target, t, mc_samples=1 << 17, seed=3)
        assert se > 0
        assert abs(est - 4.0 * math.pi / 3.0) <= 4.0 * se


class TestDiameter:
    def test_single_ball(self):
        assert diam_level_set(uniform_ball((1.0, 2.0), 0.5), 0.5) == pytest.approx(1.0)

    def test_separated_balls(self):
        target = TargetDensity(
            2,
            (
                QuasiConcaveComponent(Shape.GAUSSIAN, (0.0, 0.0), 1.0, 1.0),
                QuasiConcaveComponent(Shape.GAUSSIAN, (3.0, 0.0), 1.0, 1.0),
            ),
        )
        # at level exp(-1) both radii equal one
        assert diam_level_set(target, math.exp(-1.0)) == pytest.approx(5.0)

    def test_t1_extent(self, t1):
        assert diam_level_set(t1, 0.5) == pytest.approx(1.375 - (-1.5))

    def test_empty(self, t1):
        with pytest.raises(EmptyLevelSetError):
            diam_level_set(t1, 1.5)


def test_vol_diam_ratio_bounded(t2):
    for t in (0.05, 0.2, 0.5, 0.9):
        ratio = vol_level_set(t2, t) / diam_level_set(t2, t) ** 2
        assert 0.0 < ratio <= 1.0


class TestUniformSampling:
    def test_single_interval_ks(self):
        u = uniform_interval(0.0, 1.0)
        rng = np.random.default_rng(12)
        xs = np.array([uniform_sample_level_set(u, 0.5, rng)[0] for _ in range(100_000)])
        assert stats.kstest(xs, "uniform").pvalue > 0.01

    def test_two_interval_allocation(self):
        target = TargetDensity(
            1,
            (
                QuasiConcaveComponent(Shape.TRIANGULAR, (0.0,), 1.0, 2.0),
                QuasiConcaveComponent(Shape.TRIANGULAR, (10.0,), 1.0, 6.0),
            ),
        )
        # at level 0.5 the parts have lengths 2 and 6
        rng = np.random.default_rng(13)
        n = 100_000
        xs = np.array([uniform_sample_level_set(target, 0.5, rng)[0] for _ in range(n)])
        p_first = float((xs < 5.0).mean())
        sigma = math.sqrt(0.25 * 0.75 / n)
        assert abs(p_first - 0.25) <= 3.0 * sigma

    def test_overlapping_union_chi2(self, t2):
        # at level 0.3 the two balls overlap; compare cell frequencies with
        # covered-area masses on a grid restricted to the level set
        from oracles import bin_masses_2d

        t = 0.3
        rng = np.random.default_rng(14)
        n = 100_000
        pts = np.array([uniform_sample_level_set(t2, t, rng) for _ in range(n)])
        assert np.all(np.asarray(t2.density(pts)) >= t - 1e-12)
        xedges = np.linspace(-1.2, 2.7, 21)
        yedges = np.linspace(-1.2, 1.2, 21)
        ix = np.clip(np.digitize(pts[:, 0], xedges) - 1, 0, 19)
        iy = np.clip(np.digitize(pts[:, 1], yedges) - 1, 0, 19)
        counts = np.zeros((20, 20))
        np.add.at(counts, (ix, iy), 1.0)
        # covered-area oracle: indicator of the level set, sub-sampled
        level_ind = TargetDensity(
            2,
            (
                QuasiConcaveComponent(Shape.GAUSSIAN, (0.0, 0.0), 1.0, 2.0),
                QuasiConcaveComponent(Shape.GAUSSIAN, (1.5, 0.0), 1.0, 1.0),
            ),
        )

        class LevelIndicator:
            def density(self, x):
                return (np.asarray(level_ind.density(x)) >= t).astype(float)

        probs = bin_masses_2d(LevelIndicator(), xedges, yedges, sub=24)
        from slicegap.diagnostics import chi_square_invariance

        cells = (ix * 20 + iy).astype(int)
        res = chi_square_invariance(cells, probs)
        assert res.p_value > 0.01

    def test_empty_level(self, t1):
        with pytest.raises(EmptyLevelSetError):
            uniform_sample_level_set(t1, 1.2, np.random.default_rng(0))


def test_interval_union_merging():
    union = IntervalUnion.from_intervals([Interval(0.0, 1.0), Interval(0.5, 2.0), Interval(3.0, 4.0)])
    assert union.nparts == 2
    assert union.total_length == pytest.approx(3.0)
    assert union.gaps() == [pytest.approx(1.0)]
    assert union.contains(1.7)
    assert not union.contains(2.5)
    assert union.part_index(3.5) == 1
