import csv
import dataclasses
import gc
import hashlib
import math
import weakref

import numpy as np
import pytest
from scipy import stats

from oracles import ArrayLineTarget, bin_masses_1d, level_move, scan_intervals_1d, step_with_level
from slicegap.errors import ChainError, InvalidStateError, OffSliceError, RunawayExpansionError
from slicegap.kernels import beta_k_so_sh_closed_form, gamma_t
from slicegap.samplers import (
    _BLOCK,
    SamplerConfig,
    SamplerKind,
    Trace,
    _bind_step,
    level_moves,
    read_trace_csv,
    run_chain,
    sample_stationary,
    shrinkage,
    stepping_out,
    transitions,
)
from slicegap.slice_geometry import level_set_1d, line_section
from slicegap.spectral_oracle import Grid, KernelKind, build_full_matrix
from slicegap.targets import (
    QuasiConcaveComponent,
    Shape,
    TargetDensity,
    eval_density,
    twin_triangles,
    uniform_ball,
    uniform_interval,
)


class FakeRng:
    """Scripted uniforms (and Gaussian vectors) for deterministic branch tests."""

    def __init__(self, values, normals=()):
        self.values = list(values)
        self.normals = list(normals)

    def random(self):
        return self.values.pop(0)

    def standard_normal(self, dim):
        return np.asarray(self.normals.pop(0), dtype=float)


class CountingLines:
    """A target whose line densities record each point ``x + s * theta`` they are evaluated at."""

    def __init__(self, target):
        self._target = target
        self.points = []

    def __getattr__(self, name):
        return getattr(self._target, name)

    def line_density(self, x, theta):
        line = self._target.line_density(x, theta)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        theta = np.atleast_1d(np.asarray(theta, dtype=float))

        def counted(s):
            self.points.append((x + s * theta).tolist())
            return line(s)

        return counted


def indicator01(s: float) -> float:
    return 1.0 if 0.0 <= s <= 1.0 else 0.0


class TestSteppingOut:
    def test_bracket_covers_short_slice(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            left, right = stepping_out(indicator01, rng.uniform(0.1, 0.9), 0.5, 2.0, rng)
            assert left <= 0.0 and right >= 1.0
            assert indicator01(left) < 0.5 and indicator01(right) < 0.5

    def test_huge_width_needs_no_expansion(self):
        rng = FakeRng([0.4])  # initial bracket [pos0 - 4, pos0 + 6] already off-slice
        left, right = stepping_out(indicator01, 0.5, 0.5, 10.0, rng)
        assert (left, right) == pytest.approx((0.5 - 4.0, 0.5 + 6.0))

    def test_t1_bracket_coverage_probability(self, t1):
        # the bracket misses the far part exactly when an expansion endpoint
        # lands in the inter-part gap, which happens with probability gap/w;
        # the local part is always covered
        (lo1, hi1), (lo2, hi2) = scan_intervals_1d(t1, 0.5, -2.5, 2.5, n=400_001)
        delta = lo2 - hi1
        rng = np.random.default_rng(2)

        def dens(s):
            return float(t1.density(np.array([s])))

        n = 10_000
        covered = 0
        for _ in range(n):
            left, right = stepping_out(dens, -1.0, 0.5, 3.0, rng)
            assert left < lo1 and right > hi1  # own part always bracketed
            if right > hi2:
                covered += 1
            else:
                assert hi1 < right < lo2  # a miss means the end stopped in the gap
        p = 1.0 - delta / 3.0
        assert abs(covered / n - p) <= 3.0 * math.sqrt(p * (1 - p) / n)

    def test_unbounded_slice_raises(self):
        with pytest.raises(RunawayExpansionError):
            stepping_out(lambda s: 1.0, 0.0, 0.5, 1.0, np.random.default_rng(0), max_loop=50)

    def test_bracket_law_is_translation_invariant(self):
        # same uniforms, shifted slice: the bracket shifts rigidly
        def dens_at(shift):
            return lambda s: 1.0 if shift <= s <= shift + 1.0 else 0.0

        for seed in range(20):
            a = stepping_out(dens_at(0.0), 0.3, 0.5, 0.8, np.random.default_rng(seed))
            b = stepping_out(dens_at(10.0), 10.3, 0.5, 0.8, np.random.default_rng(seed))
            assert b[0] - a[0] == pytest.approx(10.0, abs=1e-12)
            assert b[1] - a[1] == pytest.approx(10.0, abs=1e-12)

    def test_off_slice_start_rejected(self):
        with pytest.raises(OffSliceError):
            stepping_out(indicator01, 5.0, 0.5, 1.0, np.random.default_rng(0))


class TestShrinkage:
    def test_exact_bracket_accepts_first_uniform(self):
        rng = np.random.default_rng(3)
        ys = np.array([shrinkage((0.0, 1.0), 0.5, 0.5, indicator01, rng)[0] for _ in range(50_000)])
        assert stats.kstest(ys, "uniform").pvalue > 0.01

    def test_left_rejection_moves_left_edge(self):
        # first proposal lands off-slice left of the start, second is accepted;
        # the second draw must come from the shrunk bracket [y1, 2]
        fake = FakeRng([0.1, 0.7])
        y1 = -2.0 + 0.1 * 4.0
        y, _ = shrinkage((-2.0, 2.0), 0.5, 0.5, indicator01, fake)
        assert y == pytest.approx(y1 + 0.7 * (2.0 - y1))

    def test_right_rejection_moves_right_edge(self):
        fake = FakeRng([0.9, 0.7])
        y1 = -2.0 + 0.9 * 4.0
        y, _ = shrinkage((-2.0, 2.0), 0.5, 0.5, indicator01, fake)
        assert y == pytest.approx(-2.0 + 0.7 * (y1 - (-2.0)))

    def test_bad_bracket_rejected(self):
        with pytest.raises(ValueError):
            shrinkage((0.0, 1.0), 2.0, 0.5, indicator01, np.random.default_rng(0))


class TestSoShStep:
    def test_unimodal_level_move_is_exact_uniform(self):
        tri = TargetDensity(1, (QuasiConcaveComponent(Shape.TRIANGULAR, (0.0,), 1.0, 1.0),))
        rng = np.random.default_rng(4)
        t = 0.4
        iv = level_set_1d(tri, t).parts.intervals[0]
        cfg = SamplerConfig(SamplerKind.SO_SH, w=3.0)
        ys = level_moves(tri, cfg, t, np.full((30_000, 1), 0.1), rng)[0][:, 0]
        assert stats.kstest((ys - iv.lo) / iv.length, "uniform").pvalue > 0.01

    def test_level_kernel_matches_mixture(self, t1):
        # empirical per-level law against the closed-form two-part mixture
        rng = np.random.default_rng(5)
        t, w, n = 0.5, 3.0, 30_000
        ls = level_set_1d(t1, t)
        gamma = gamma_t(ls, w)
        left, right = ls.parts.intervals
        cfg = SamplerConfig(SamplerKind.SO_SH, w=w)
        ys = level_moves(t1, cfg, t, np.full((n, 1), -1.0), rng)[0][:, 0]
        edges_l = np.linspace(left.lo, left.hi, 13)
        edges_r = np.linspace(right.lo, right.hi, 13)
        counts = np.concatenate([np.histogram(ys, edges_l)[0], np.histogram(ys, edges_r)[0]])
        widths = np.concatenate([np.diff(edges_l), np.diff(edges_r)])
        probs = gamma * widths / ls.length
        probs[:12] += (1.0 - gamma) * widths[:12] / left.length
        probs /= probs.sum()
        chi2 = float(((counts - n * probs) ** 2 / (n * probs)).sum())
        assert stats.chi2.sf(chi2, counts.size - 1) > 0.01

    def test_one_step_kernel_matches_oracle_row(self, t1):
        # empirical one-step law from a grid cell centre against the
        # discretized hybrid-kernel row for that cell
        grid = Grid.for_target(t1, 200)
        H = build_full_matrix(t1, grid, KernelKind.SO_SH, 3.0, m=200)
        start_cell = int(grid.locate([[-1.0]])[0])
        x0 = float(grid.centers[start_cell, 0])
        rng = np.random.default_rng(6)
        n = 50_000
        so_sh = SamplerConfig(SamplerKind.SO_SH, w=3.0)
        ys = transitions(t1, so_sh, np.full((n, 1), x0), rng)[0][:, 0]
        cells = grid.locate(ys[:, None])
        row = H.P[np.searchsorted(H.support, start_cell)]
        probs = np.zeros(grid.n)
        probs[H.support] = row
        # aggregate to 40 bins to keep expected counts healthy
        agg_cells = cells // 5
        agg_probs = probs.reshape(40, 5).sum(axis=1)
        from slicegap.diagnostics import chi_square_invariance

        res = chi_square_invariance(agg_cells, agg_probs)
        assert res.p_value > 0.01

    def test_invariance_from_exact_start(self, t1):
        rng = np.random.default_rng(7)
        n = 30_000
        starts = sample_stationary(t1, n, rng)
        so_sh = SamplerConfig(SamplerKind.SO_SH, w=3.0)
        steps = transitions(t1, so_sh, starts, rng)[0][:, 0]
        edges = np.linspace(-2.0, 2.0, 41)
        probs = bin_masses_1d(t1, edges)
        cells = np.clip(np.digitize(steps, edges) - 1, 0, 39)
        from slicegap.diagnostics import chi_square_invariance

        res = chi_square_invariance(cells, probs)
        assert res.p_value > 0.01


class TestDensityEvaluations:
    """A transition evaluates the density only where the algorithm needs it: never at its start."""

    def test_so_sh_step(self):
        # level 0.75 on the flat [0, 1]; bracket [0.35, 0.65] steps out to [-0.25, 1.25];
        # the proposal at 1.1 is rejected, the one at 0.425 accepted
        target = CountingLines(uniform_interval(0.0, 1.0))
        rng = FakeRng([0.25, 0.5, 0.9, 0.5])
        cfg = SamplerConfig(SamplerKind.SO_SH, w=0.3)
        y, t, rho = _bind_step(target, cfg, rng)([0.5], 1.0)
        left, right, shrunk = [0.35, 0.05, -0.25], [0.65, 0.95, 1.25], [1.1, 0.425]
        assert [p[0] for p in target.points] == pytest.approx(left + right + shrunk)
        assert [0.5] not in target.points
        assert (y[0], t, rho) == (pytest.approx(0.425), 0.75, 1.0)
        assert rng.values == []

    def test_har_so_sh_step(self):
        # direction (0, 1) through (0.6, 0) on the unit disk: the chord is s in [-0.8, 0.8];
        # bracket [-0.25, 0.25] steps out to [-1.25, 1.25]; 1.0 is rejected, -0.125 accepted
        target = CountingLines(uniform_ball((0.0, 0.0), 1.0))
        rng = FakeRng([0.25, 0.5, 0.9, 0.5], normals=[[0.0, 2.0]])
        cfg = SamplerConfig(SamplerKind.HAR_SO_SH, w=0.5)
        y, t, rho = _bind_step(target, cfg, rng)([0.6, 0.0], 1.0)
        left, right, shrunk = [-0.25, -0.75, -1.25], [0.25, 0.75, 1.25], [1.0, -0.125]
        assert target.points == [[0.6, s] for s in left + right + shrunk]
        assert [0.6, 0.0] not in target.points
        assert (y, t, rho) == ([0.6, -0.125], 0.75, 1.0)
        assert rng.values == [] and rng.normals == []


class TestSimpleSlice:
    def test_uniform_target_gives_iid_uniform(self):
        u = uniform_interval(0.0, 1.0)
        rng = np.random.default_rng(8)
        simple = SamplerConfig(SamplerKind.SIMPLE)
        ys = transitions(u, simple, np.full((100_000, 1), 0.9), rng)[0][:, 0]
        assert stats.kstest(ys, "uniform").pvalue > 0.01

    def test_zero_density_state_rejected(self, t1):
        with pytest.raises(InvalidStateError):
            transitions(t1, SamplerConfig(SamplerKind.SIMPLE), np.array([[5.0]]), np.random.default_rng(0))

    def test_invariance(self, t1):
        rng = np.random.default_rng(9)
        n = 30_000
        starts = sample_stationary(t1, n, rng)
        simple = SamplerConfig(SamplerKind.SIMPLE)
        steps = transitions(t1, simple, starts, rng)[0][:, 0]
        edges = np.linspace(-2.0, 2.0, 41)
        probs = bin_masses_1d(t1, edges)
        from slicegap.diagnostics import chi_square_invariance

        res = chi_square_invariance(np.clip(np.digitize(steps, edges) - 1, 0, 39), probs)
        assert res.p_value > 0.01


class TestHitAndRun:
    def test_one_dimensional_reduces_to_uniform_on_level(self, t1):
        rng = np.random.default_rng(10)
        t = 0.5
        ls = level_set_1d(t1, t)
        cfg = SamplerConfig(SamplerKind.HAR)
        ys = level_moves(t1, cfg, t, np.full((30_000, 1), -1.0), rng)[0][:, 0]
        p_left = float((ys < 0.0).mean())
        expect = ls.parts.intervals[0].length / ls.length
        assert abs(p_left - expect) <= 3.0 * math.sqrt(expect * (1 - expect) / ys.size)
        left = ls.parts.intervals[0]
        sel = ys[ys < 0.0]
        assert stats.kstest((sel - left.lo) / left.length, "uniform").pvalue > 0.01

    @staticmethod
    def _chord_law_oracle(t2, x0, pts, m_lvl=200):
        """One-step density of the chord sampler at target points.

        Brute force and independent of the library's geometry: per point the
        level integral of (2/sigma_2) / (|x-y| * chord length), with chord
        sections from the quadratic for each Gaussian component.
        """
        rho0 = float(t2.density(x0))
        modes = [np.asarray(c.mode) for c in t2.components]
        alphas = [c.scale for c in t2.components]
        out = np.empty(len(pts))
        for idx, y in enumerate(pts):
            diff = y - x0
            dist = float(np.linalg.norm(diff))
            theta = diff / dist
            top = min(rho0, float(t2.density(y)))
            if top <= 0.0:
                out[idx] = 0.0
                continue
            ts = (np.arange(m_lvl) + 0.5) * top / m_lvl
            los, his = [], []
            for m_c, a_c in zip(modes, alphas):
                r2 = np.log(1.0 / ts) / a_c
                s_c = float(np.dot(theta, m_c - x0))
                h2 = float(np.dot(m_c - x0, m_c - x0)) - s_c**2
                half = np.sqrt(np.maximum(r2 - h2, 0.0))
                los.append(np.where(r2 > h2, s_c - half, np.nan))
                his.append(np.where(r2 > h2, s_c + half, np.nan))
            both = ~np.isnan(los[0]) & ~np.isnan(los[1])
            len1 = np.where(np.isnan(los[0]), 0.0, his[0] - los[0])
            len2 = np.where(np.isnan(los[1]), 0.0, his[1] - los[1])
            overlap = np.where(
                both, np.maximum(np.minimum(his[0], his[1]) - np.maximum(los[0], los[1]), 0.0), 0.0
            )
            length = len1 + len2 - overlap
            dens_t = (2.0 / (2.0 * math.pi)) / (dist * length)
            out[idx] = float(np.mean(np.where(length > 0, dens_t, 0.0))) * top / rho0
        return out

    def test_2d_one_step_matches_kernel_density(self, t2):
        # empirical one-step law against the continuous chord-kernel density,
        # integrated over cells by sub-sampling with a fine level quadrature;
        # the singular start cell is excluded and the law conditioned on leaving
        x0 = np.array([0.2, 0.1])
        xedges = np.linspace(-2.8, 5.2, 31)
        yedges = np.linspace(-3.8, 3.8, 31)
        start = (int(np.digitize(x0[0], xedges)) - 1, int(np.digitize(x0[1], yedges)) - 1)
        sub = 3
        masses = np.zeros((30, 30))
        for i in range(30):
            xs = np.linspace(xedges[i], xedges[i + 1], sub + 1)
            xs = 0.5 * (xs[:-1] + xs[1:])
            for j in range(30):
                if (i, j) == start:
                    continue
                ys = np.linspace(yedges[j], yedges[j + 1], sub + 1)
                ys = 0.5 * (ys[:-1] + ys[1:])
                gx, gy = np.meshgrid(xs, ys, indexing="ij")
                pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
                vals = self._chord_law_oracle(t2, x0, pts)
                cell_area = (xedges[i + 1] - xedges[i]) * (yedges[j + 1] - yedges[j])
                masses[i, j] = vals.mean() * cell_area
        rng = np.random.default_rng(11)
        n = 100_000
        har = SamplerConfig(SamplerKind.HAR)
        steps = transitions(t2, har, np.tile(x0, (n, 1)), rng)[0]
        ix = np.clip(np.digitize(steps[:, 0], xedges) - 1, 0, 29)
        iy = np.clip(np.digitize(steps[:, 1], yedges) - 1, 0, 29)
        keep = ~((ix == start[0]) & (iy == start[1]))
        cells = (ix[keep] * 30 + iy[keep]).astype(int)
        probs = masses.ravel() / masses.sum()
        from slicegap.diagnostics import chi_square_invariance

        res = chi_square_invariance(cells, probs)
        assert res.p_value > 0.01

    def test_invariance_2d(self, t2):
        rng = np.random.default_rng(12)
        n = 50_000
        starts = sample_stationary(t2, n, rng)
        har = SamplerConfig(SamplerKind.HAR)
        steps = transitions(t2, har, starts, rng)[0]
        from oracles import bin_masses_2d
        from slicegap.diagnostics import chi_square_invariance

        xedges = np.linspace(-2.8, 5.2, 16)
        yedges = np.linspace(-3.8, 3.8, 16)
        probs = bin_masses_2d(t2, xedges, yedges, sub=14)
        ix = np.clip(np.digitize(steps[:, 0], xedges) - 1, 0, 14)
        iy = np.clip(np.digitize(steps[:, 1], yedges) - 1, 0, 14)
        res = chi_square_invariance(ix * 15 + iy, probs)
        assert res.p_value > 0.01


class TestHarSoSh:
    @staticmethod
    def _line_move(target, t, x, theta, rng, w):
        """Neal's stepping-out and shrinkage along the fixed direction ``theta``, with ``x`` at coordinate 0."""
        line = target.line_density(x, theta)
        s, _ = shrinkage(stepping_out(line, 0.0, t, w, rng), 0.0, t, line, rng)
        return x + s * theta

    def test_single_interval_section_uniform(self, t2):
        # a chord that meets only the first ball: output uniform on it
        rng = np.random.default_rng(13)
        t = 0.5
        x = np.array([0.0, 0.0])
        theta = np.array([0.0, 1.0])
        sec = line_section(t2, t, x, theta)
        iv = sec.parts.intervals[0]
        ys = np.array([self._line_move(t2, t, x, theta, rng, 3.0) for _ in range(20_000)])
        ss = ys[:, 1]
        assert stats.kstest((ss - iv.lo) / iv.length, "uniform").pvalue > 0.01

    def test_two_part_section_matches_line_mixture(self, t2):
        from slicegap.kernels import mixture_weight

        rng = np.random.default_rng(14)
        t, w, n = 0.5, 3.0, 30_000
        x = np.array([0.0, 0.0])
        theta = np.array([1.0, 0.0])
        sec = line_section(t2, t, x, theta)
        gamma = mixture_weight(sec.length, sec.delta, w)
        first, second = sec.parts.intervals
        ys = np.array([self._line_move(t2, t, x, theta, rng, w) for _ in range(n)])
        ss = ys[:, 0]
        edges_l = np.linspace(first.lo, first.hi, 13)
        edges_r = np.linspace(second.lo, second.hi, 13)
        counts = np.concatenate([np.histogram(ss, edges_l)[0], np.histogram(ss, edges_r)[0]])
        widths = np.concatenate([np.diff(edges_l), np.diff(edges_r)])
        probs = gamma * widths / sec.length
        probs[:12] += (1.0 - gamma) * widths[:12] / first.length
        probs /= probs.sum()
        chi2 = float(((counts - n * probs) ** 2 / (n * probs)).sum())
        assert stats.chi2.sf(chi2, counts.size - 1) > 0.01

    def test_invariance_2d(self, t2):
        rng = np.random.default_rng(15)
        n = 50_000
        starts = sample_stationary(t2, n, rng)
        har_so_sh = SamplerConfig(SamplerKind.HAR_SO_SH, w=3.0)
        steps = transitions(t2, har_so_sh, starts, rng)[0]
        from oracles import bin_masses_2d
        from slicegap.diagnostics import chi_square_invariance

        xedges = np.linspace(-2.8, 5.2, 16)
        yedges = np.linspace(-3.8, 3.8, 16)
        probs = bin_masses_2d(t2, xedges, yedges, sub=14)
        ix = np.clip(np.digitize(steps[:, 0], xedges) - 1, 0, 14)
        iy = np.clip(np.digitize(steps[:, 1], yedges) - 1, 0, 14)
        res = chi_square_invariance(ix * 15 + iy, probs)
        assert res.p_value > 0.01


class TestKStep:
    def test_uniform_inner_independent_of_k(self, t1):
        rng = np.random.default_rng(16)
        one, seven = SamplerConfig(SamplerKind.SIMPLE), SamplerConfig(SamplerKind.SIMPLE, k_inner=7)
        starts = np.full((20_000, 1), -1.0)
        a = transitions(t1, one, starts, rng)[0][:, 0]
        b = transitions(t1, seven, starts, rng)[0][:, 0]
        assert stats.ks_2samp(a, b).pvalue > 0.01

    def test_large_k_approaches_exact_refresh(self, t1):
        # total variation between the empirical k-step law and the exact
        # refresh law is controlled by the convergence profile
        rng = np.random.default_rng(17)
        n, k = 20_000, 50
        k_step, simple = SamplerConfig(SamplerKind.SO_SH, w=3.0, k_inner=k), SamplerConfig(SamplerKind.SIMPLE)
        starts = np.full((n, 1), -1.0)
        ys = transitions(t1, k_step, starts, rng)[0][:, 0]
        us = transitions(t1, simple, starts, rng)[0][:, 0]
        edges = np.linspace(-2.0, 2.0, 51)
        fy = np.histogram(ys, edges)[0] / n
        fu = np.histogram(us, edges)[0] / n
        tv = 0.5 * np.abs(fy - fu).sum()
        beta = beta_k_so_sh_closed_form(t1, 3.0, k)
        noise = float(np.sqrt(50 / n))  # both histograms fluctuate
        assert tv <= beta + 3.0 * noise

    def test_k_inner_moves_share_one_level(self, t1):
        # reference: one level uniform on (0, density], then k_inner stepping-out moves at it
        cfg = SamplerConfig(SamplerKind.SO_SH, w=3.0, k_inner=3)
        trace = run_chain(t1, cfg, np.array([-1.0]), 50, seed=4)
        rng, x = np.random.default_rng(4), np.array([-1.0])
        for i in range(1, 51):
            t = float(t1.density(x)) * (1.0 - rng.random())
            for _ in range(3):
                x, _ = level_move(t1, cfg, t, x, rng)
            assert trace.levels[i] == t and np.array_equal(trace.states[i], x)
        first = step_with_level(t1, cfg, trace.states[0], np.random.default_rng(4))[0]
        assert np.array_equal(first, trace.states[1])

    def test_k_must_be_positive(self, t1):
        with pytest.raises(ValueError):
            SamplerConfig(SamplerKind.SIMPLE, k_inner=0)


class TestRunChain:
    def test_zero_steps(self, t1):
        trace = run_chain(t1, SamplerConfig(SamplerKind.SIMPLE), np.array([-1.0]), 0, seed=1)
        assert trace.states.shape == (1, 1)
        assert trace.levels[0] == 0.0

    def test_determinism(self, t1):
        cfg = SamplerConfig(SamplerKind.SO_SH, w=3.0)
        a = run_chain(t1, cfg, np.array([-1.0]), 200, seed=42)
        b = run_chain(t1, cfg, np.array([-1.0]), 200, seed=42)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.levels, b.levels)

    def test_trace_invariants(self, t1):
        cfg = SamplerConfig(SamplerKind.SO_SH, w=3.0)
        trace = run_chain(t1, cfg, np.array([-1.0]), 500, seed=3)
        dens = np.asarray(t1.density(trace.states[:, 0]))
        assert np.all(dens > 0)
        assert np.all(trace.levels <= dens + 1e-12)

    def test_marginal_matches_target(self, t1):
        cfg = SamplerConfig(SamplerKind.SO_SH, w=3.0)
        trace = run_chain(t1, cfg, np.array([-1.0]), 100_000, seed=5)
        xs = trace.states[1000:, 0]
        edges = np.linspace(-2.0, 2.0, 41)
        probs = bin_masses_1d(t1, edges)
        counts = np.histogram(xs, edges)[0]
        # the chain is correlated; scale the statistic by the integrated
        # autocorrelation time before reading off a p-value
        from slicegap.diagnostics import acf_ess

        iact = acf_ess(xs).iact
        n_eff = xs.size / iact
        freq = counts / xs.size
        chi2 = float((n_eff * (freq - probs) ** 2 / probs).sum())
        assert stats.chi2.sf(chi2, probs.size - 1) > 0.01

    @staticmethod
    def _assert_fails_where_reference_does(target, cfg, n, seed):
        """Assert that ``run_chain`` fails where the per-call reference loop at one seed does; return the step."""
        rng, x = np.random.default_rng(seed), np.array([-1.0])
        for failing in range(1, n + 1):
            t = eval_density(target, x) * (1.0 - rng.random())
            try:
                x = level_move(target, cfg, t, x, rng)[0]
            except RunawayExpansionError as exc:
                expected = exc
                break
        else:
            pytest.fail("the reference loop never failed")
        with pytest.raises(ChainError) as excinfo:
            run_chain(target, cfg, np.array([-1.0]), n, seed=seed)
        assert excinfo.value.step == failing
        cause = excinfo.value.__cause__
        assert type(cause) is RunawayExpansionError and str(cause) == str(expected)
        assert excinfo.value.cause is cause
        return failing

    def test_step_error_carries_index(self, t1):
        self._assert_fails_where_reference_does(t1, SamplerConfig(SamplerKind.SO_SH, w=0.05, max_loop=3), 50, seed=1)

    def test_step_error_after_first_block_carries_index(self, t1):
        # the failure falls in the second block of steps, after one block of states was written
        cfg = SamplerConfig(SamplerKind.SO_SH, w=0.1, max_loop=40)
        assert _BLOCK < self._assert_fails_where_reference_does(t1, cfg, 2 * _BLOCK + 7, seed=4) <= 2 * _BLOCK

    @pytest.mark.parametrize("call", ["run_chain", "level_moves"])
    def test_target_is_released(self, call):
        # a name no other target has, so no equal target met earlier can stand in for this one
        target = dataclasses.replace(twin_triangles(), name=f"released-by-{call}")
        ref = weakref.ref(target)
        cfg = SamplerConfig(SamplerKind.SO_SH, w=3.0)
        if call == "run_chain":
            run_chain(target, cfg, np.array([-1.0]), 20, seed=1)
        else:
            level_moves(target, cfg, 0.5, np.array([[-1.0]]), np.random.default_rng(1))
        del target
        gc.collect()
        assert ref() is None

    def test_invalid_start(self, t1):
        with pytest.raises(InvalidStateError):
            run_chain(t1, SamplerConfig(SamplerKind.SIMPLE), np.array([9.0]), 10, seed=1)

    @pytest.mark.parametrize(
        "name, config, n",
        [
            ("t1", SamplerConfig(SamplerKind.SO_SH, w=3.0), 20_000),
            ("t2", SamplerConfig(SamplerKind.HAR_SO_SH, w=3.0), 5_000),
            ("t2", SamplerConfig(SamplerKind.HAR_SO_SH, w=3.0, k_inner=3), 2_000),
        ],
    )
    def test_scalar_line_densities_reproduce_array_chain(self, name, config, n, request):
        target = request.getfixturevalue(name)
        x0 = np.asarray(target.components[0].mode) + 0.1
        scalar = run_chain(target, config, x0, n, seed=11)
        reference = run_chain(ArrayLineTarget(target), config, x0, n, seed=11)
        assert np.array_equal(scalar.states, reference.states)
        assert np.array_equal(scalar.levels, reference.levels)


#: (fixture, config) of every kind; the k-step case moves three times per level
CHAIN_CASES = {
    "simple": ("t1", SamplerConfig(SamplerKind.SIMPLE)),
    "simple_2d": ("t2", SamplerConfig(SamplerKind.SIMPLE)),
    "so_sh": ("t1", SamplerConfig(SamplerKind.SO_SH, w=3.0)),
    "so_sh_k3": ("t1", SamplerConfig(SamplerKind.SO_SH, w=3.0, k_inner=3)),
    "har": ("t2", SamplerConfig(SamplerKind.HAR)),
    "har_so_sh": ("t2", SamplerConfig(SamplerKind.HAR_SO_SH, w=3.0)),
    "har_so_sh_k3": ("t2", SamplerConfig(SamplerKind.HAR_SO_SH, w=3.0, k_inner=3)),
}

#: SHA-256 of the uncommented ``trace.csv`` of 2000 steps from the first mode, seed 2024.  A chain
#: is reproducible within one build (numpy, libm), so these digests pin this build's traces.
TRACE_SHA256 = {
    "simple": "f405e1bf9ba839ed5441b12fea9695c3790252717f579033444c101bca8aad9d",
    "simple_2d": "7beabf89e5a61edbad069f7567995626a49f8169252d0f8795069914f98d9f4a",
    "so_sh": "f967896cd07a3d88d8708aa0dfb9c9531c9825379a279e9eb43ca56e1b0480a1",
    "so_sh_k3": "6c5f79a778ba43893b2d3494172b0aee6891e7c08d5a4f97a60746e129b6a219",
    "har": "9902d2b8cf626d74238731df582e5efd00f6021972f9d543889d80fd40952361",
    "har_so_sh": "26617cc8f6d939bda8b0242912542d824787ac366e79a9e61c6e47f14c9e72fd",
    "har_so_sh_k3": "3783886480504411d24f4f6c09d174c47a6eddebca01120e51816987990ae05f",
}


def _reference_chain(target, config, x0, n, seed):
    """The transition as the paper states it: a level uniform on (0, density(x)], then ``k_inner`` calls of ``level_move``."""
    rng = np.random.default_rng(seed)
    x, states, levels = np.atleast_1d(np.asarray(x0, dtype=float)), [], []
    for _ in range(n):
        t = eval_density(target, x) * (1.0 - rng.random())
        for _ in range(config.k_inner):
            x = level_move(target, config, t, x, rng)[0]
        states.append(x)
        levels.append(t)
    return np.array(states), np.array(levels)


class TestLevelMove:
    @pytest.mark.parametrize("case", ["simple", "so_sh", "har", "har_so_sh"])
    def test_k_inner_is_not_read(self, case, request):
        # k_inner repeats the move inside a transition; one level move is one move
        name, config = CHAIN_CASES[case]
        target = request.getfixturevalue(name)
        x = (np.asarray(target.components[0].mode) + 0.1)[None]
        rngs = np.random.default_rng(6), np.random.default_rng(6)
        one = level_moves(target, config, 0.5, x, rngs[0])
        three = level_moves(target, dataclasses.replace(config, k_inner=3), 0.5, x, rngs[1])
        assert one[0].tobytes() == three[0].tobytes() and one[1].tobytes() == three[1].tobytes()
        assert rngs[0].random() == rngs[1].random()

    def test_axis_kind_rejects_two_dimensions(self, t2):
        with pytest.raises(ValueError, match="one-dimensional target"):
            level_moves(t2, SamplerConfig(SamplerKind.SO_SH, w=3.0), 0.5, np.zeros((1, 2)), np.random.default_rng(0))

    @pytest.mark.parametrize("case", ["simple", "simple_2d", "so_sh", "har", "har_so_sh"])
    def test_state_of_another_dimension_rejected(self, case, request):
        # the axis and line moves read the coordinates they zip with, so a short or long state must fail here
        name, config = CHAIN_CASES[case]
        target = request.getfixturevalue(name)
        x = np.zeros((1, 3 - target.dim))
        with pytest.raises(ValueError, match="trailing axis"):
            level_moves(target, config, 0.5, x, np.random.default_rng(0))


#: (target, kind) of the batch tests: every kind on each target whose dimension it allows
BATCH_CASES = [
    (name, kind) for name in ("t1", "u01", "t2") for kind in SamplerKind if (name, kind) != ("t2", SamplerKind.SO_SH)
]


def _batch_case(name, kind, k_inner, request):
    """Target, config and 200 starts from the target's law (uniform on [0, 1] for ``u01``)."""
    target = uniform_interval(0.0, 1.0) if name == "u01" else request.getfixturevalue(name)
    w = 3.0 if kind in (SamplerKind.SO_SH, SamplerKind.HAR_SO_SH) else None
    rng = np.random.default_rng(12)
    starts = rng.random((200, 1)) if name == "u01" else sample_stationary(target, 200, rng)
    return target, SamplerConfig(kind, w=w, k_inner=k_inner), starts


class TestBatches:
    """``transitions`` and ``level_moves`` are the per-call loops with the move bound once, draw for draw."""

    @pytest.mark.parametrize("k_inner", [1, 3])
    @pytest.mark.parametrize("name, kind", BATCH_CASES)
    def test_transitions_are_the_per_call_loop(self, name, kind, k_inner, request):
        target, config, starts = _batch_case(name, kind, k_inner, request)
        batch, loop = np.random.default_rng(3), np.random.default_rng(3)
        states, levels = transitions(target, config, starts, batch)
        steps = [step_with_level(target, config, x, loop) for x in starts]
        assert states.tobytes() == np.array([step[0] for step in steps]).tobytes()
        assert levels.tobytes() == np.array([step[1] for step in steps]).tobytes()
        assert batch.bit_generator.state == loop.bit_generator.state

    @pytest.mark.parametrize("k_inner", [1, 3])
    @pytest.mark.parametrize("name, kind", BATCH_CASES)
    def test_level_moves_are_the_per_call_loop(self, name, kind, k_inner, request):
        target, config, starts = _batch_case(name, kind, k_inner, request)
        t = 0.5 * target.sup_norm
        starts = starts[target.density(starts) >= t]
        batch, loop = np.random.default_rng(3), np.random.default_rng(3)
        states, dens = level_moves(target, config, t, starts, batch)
        moves = [level_move(target, config, t, x, loop) for x in starts]
        assert states.tobytes() == np.array([move[0] for move in moves]).tobytes()
        assert dens.tobytes() == np.array([move[1] for move in moves]).tobytes()
        assert batch.bit_generator.state == loop.bit_generator.state

    def test_start_densities_are_the_per_call_loops(self, t2):
        # on 14 of these starts the array density differs from eval_density in its last bit, and so does the
        # level drawn below it; each start density must come from the line builder, as the per-call loop's does
        starts = sample_stationary(t2, 50_000, np.random.default_rng(12))
        config = SamplerConfig(SamplerKind.HAR_SO_SH, w=3.0)
        batch, loop = np.random.default_rng(5), np.random.default_rng(5)
        states, levels = transitions(t2, config, starts, batch)
        steps = [step_with_level(t2, config, x, loop) for x in starts]
        assert levels.tobytes() == np.array([step[1] for step in steps]).tobytes()
        assert states.tobytes() == np.array([step[0] for step in steps]).tobytes()
        assert batch.bit_generator.state == loop.bit_generator.state

    def test_zero_density_start_rejected(self, t1):
        with pytest.raises(InvalidStateError):
            transitions(t1, SamplerConfig(SamplerKind.SIMPLE), np.array([[-1.0], [5.0]]), np.random.default_rng(0))

    @pytest.mark.parametrize(
        "name, shape", [("t1", (4,)), ("t1", (4, 2)), ("t1", (2, 2, 1)), ("t2", (4, 1)), ("t2", (8,))]
    )
    def test_starts_of_another_shape_rejected(self, name, shape, request):
        # a mis-shaped batch is refused, never reshaped into rows of the target dimension
        target, starts = request.getfixturevalue(name), np.zeros(shape)
        config = SamplerConfig(SamplerKind.SIMPLE)
        with pytest.raises(ValueError, match="trailing axis"):
            transitions(target, config, starts, np.random.default_rng(0))
        with pytest.raises(ValueError, match="trailing axis"):
            level_moves(target, config, 0.5, starts, np.random.default_rng(0))


class TestChainPins:
    @pytest.mark.parametrize("case", sorted(CHAIN_CASES))
    def test_trace_digest(self, case, request, tmp_path):
        name, config = CHAIN_CASES[case]
        target = request.getfixturevalue(name)
        run_chain(target, config, target.components[0].mode, 2000, seed=2024).to_csv(tmp_path / "trace.csv")
        assert hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest() == TRACE_SHA256[case]

    @staticmethod
    def _assert_reference_loop(case, n, request):
        name, config = CHAIN_CASES[case]
        target = request.getfixturevalue(name)
        x0 = np.asarray(target.components[0].mode) + 0.1
        trace = run_chain(target, config, x0, n, seed=31)
        states, levels = _reference_chain(target, config, x0, n, seed=31)
        assert trace.states[1:].tobytes() == states.tobytes()
        assert trace.levels[1:].tobytes() == levels.tobytes()

    @pytest.mark.parametrize("case", sorted(CHAIN_CASES))
    def test_run_chain_is_the_reference_loop(self, case, request):
        self._assert_reference_loop(case, 300, request)

    @pytest.mark.parametrize("case", ["so_sh", "so_sh_k3", "har_so_sh"])
    def test_run_chain_across_blocks_is_the_reference_loop(self, case, request):
        # two write blocks and 7 steps into a third; a so_sh step draws three or more uniforms, so many uniform blocks
        self._assert_reference_loop(case, 2 * _BLOCK + 7, request)


def _csv_writer_bytes(trace, path, comment):
    """The trace as ``csv.writer`` writes it, with per-value 17-digit f-strings."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["step", "level"] + [f"x{i + 1}" for i in range(trace.states.shape[1])])
        for i, (x, lev) in enumerate(zip(trace.states, trace.levels)):
            writer.writerow([i, f"{lev:.17g}"] + [f"{v:.17g}" for v in x])
    return path.read_bytes()


class TestTraceCsv:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_bytes_match_csv_writer(self, dim, tmp_path):
        rng = np.random.default_rng(dim)
        n = 2 * _BLOCK + 88
        states = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-320, 300, (n, dim))
        levels = rng.random(n) * 10.0 ** rng.integers(-300, 300, n)
        special = [-0.0, 1e-300, 1e300, 0.0, -1e300, 5e-324, 0.1]
        for row in (0, _BLOCK - 1, _BLOCK, n - 1):
            states[row] = special[:dim]
            levels[row] = special[row % len(special)]
        states[1:8, 0] = special
        levels[1:8] = special
        trace = Trace(states=states, levels=levels, seed=0, config=SamplerConfig(SamplerKind.SIMPLE))
        trace.to_csv(tmp_path / "new.csv", comment="check")
        expected = _csv_writer_bytes(trace, tmp_path / "old.csv", "check")
        assert (tmp_path / "new.csv").read_bytes() == expected
        assert b",-0," in expected and b",1e-300," in expected and b",1.0000000000000001e+300" in expected

    def test_roundtrip_and_format(self, t1, tmp_path):
        cfg = SamplerConfig(SamplerKind.SO_SH, w=3.0)
        trace = run_chain(t1, cfg, np.array([-1.0]), 25, seed=9)
        path = tmp_path / "trace.csv"
        trace.to_csv(path, comment="check")
        text = path.read_text().splitlines()
        assert text[0] == "# check"
        assert text[1] == "step,level,x1"
        assert len(text) == 2 + 26
        states, levels = read_trace_csv(path)
        assert np.array_equal(states[:, 0], trace.states[:, 0])
        assert np.array_equal(levels, trace.levels)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(SamplerKind.SO_SH)  # missing w
    with pytest.raises(ValueError):
        SamplerConfig(SamplerKind.SO_SH, w=-1.0)
    with pytest.raises(ValueError):
        SamplerConfig(SamplerKind.HAR_SO_SH, k_inner=2)  # missing w
    with pytest.raises(ValueError):
        SamplerConfig(SamplerKind.SIMPLE, k_inner=0)


def test_stationary_sampler_is_exact(t1):
    rng = np.random.default_rng(18)
    xs = sample_stationary(t1, 100_000, rng)[:, 0]
    edges = np.linspace(-2.0, 2.0, 41)
    probs = bin_masses_1d(t1, edges)
    counts = np.histogram(xs, edges)[0]
    chi2 = float(((counts - xs.size * probs) ** 2 / (xs.size * probs)).sum())
    assert stats.chi2.sf(chi2, probs.size - 1) > 0.01


@pytest.mark.parametrize("target", [uniform_ball((0.0, 0.0), 1.0), uniform_interval(0.0, 1.0)], ids=["ball", "interval"])
def test_stationary_sampler_rejects_flat_targets(target):
    with pytest.raises(ValueError, match="flat"):
        sample_stationary(target, 10, np.random.default_rng(0))
