import re
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    beta_node_integral,
    bin_masses_1d,
    build_level_matrix,
    level_integral_kernels,
    level_matrix_1d,
    min_rank_kernel,
    psd_check,
    reversibility_check,
    strip_level_matrix,
)
from slicegap.errors import CoverageError, EmptyLevelSetError, OutOfClassError, UnsupportedShapeError
from slicegap.kernels import beta_k_so_sh_closed_form
from slicegap.slice_geometry import level_set_1d
from slicegap.spectral_oracle import (
    Check,
    DiscreteKernel,
    Grid,
    KernelKind,
    beta_k_numeric_many,
    build_full_matrix,
    build_k_step_matrices,
    density_on_grid,
    discretize_target,
    level_kernels,
    op_norm_centered,
    reversibility_residual,
    spectral_gap,
    spectrum,
    verify_monotonicity,
    verify_mt_bound,
    verify_power_bound,
    verify_sandwich,
    verify_theorem_bounds,
    verify_tv_bound,
)
from slicegap.targets import (
    Interval,
    QuasiConcaveComponent,
    Shape,
    TargetDensity,
    gaussian_pair,
    twin_triangles,
    uniform_ball,
    uniform_interval,
)


def separated_pair() -> TargetDensity:
    """gaussian_pair with its second mode moved from 1.5 to 2.5: strips split over a wide band of levels."""
    return TargetDensity(
        2,
        (
            QuasiConcaveComponent(Shape.GAUSSIAN, (0.0, 0.0), 1.0, 2.0),
            QuasiConcaveComponent(Shape.GAUSSIAN, (2.5, 0.0), 1.0, 1.0),
        ),
    )


def two_state(p: float) -> DiscreteKernel:
    P = np.array([[p, 1 - p], [1 - p, p]])
    return DiscreteKernel(P=P, pi=np.array([0.5, 0.5]), label="two-state")


class TestGrid:
    def test_for_target_1d(self, t1):
        grid = Grid.for_target(t1, 100)
        assert grid.bounds == ((-2.0, 2.0),)
        assert grid.n == 100
        assert grid.cell_vol == pytest.approx(0.04)

    def test_locate_roundtrip(self, t2):
        grid = Grid.for_target(t2, (20, 20))
        idx = grid.locate(grid.centers)
        assert np.array_equal(idx, np.arange(grid.n))

    @pytest.mark.parametrize("cells", [24, 25, 40, 41])
    def test_centres_mirror_bit_for_bit(self, cells):
        # mirrored cells of a symmetric target then have equal densities, and so share their level nodes
        grid = Grid(bounds=((-3.7, 3.7), (-2.3, 2.3)), shape=(cells, cells + 1))
        for (lo, hi), count, axis in zip(grid.bounds, grid.shape, grid.axes):
            assert np.array_equal(axis, -axis[::-1])
            half = np.arange(count // 2)
            assert np.array_equal(axis[half], lo + (hi - lo) / count * (half + 0.5))


class TestDiscretizeTarget:
    def test_uniform_four_cells(self):
        u = uniform_interval(0.0, 1.0)
        grid = Grid(bounds=((0.0, 1.0),), shape=(4,))
        assert np.allclose(discretize_target(u, grid), 0.25)

    def test_triangle_matches_cell_integrals(self):
        tri = TargetDensity(1, (QuasiConcaveComponent(Shape.TRIANGULAR, (0.0,), 1.0, 1.0),))
        grid = Grid(bounds=((-1.0, 1.0),), shape=(200,))
        pi = discretize_target(tri, grid)
        edges = np.linspace(-1.0, 1.0, 201)
        exact = bin_masses_1d(tri, edges)
        # midpoint rule is exact on the linear pieces; only kink cells deviate
        assert np.abs(pi - exact).max() < 1e-4

    def test_t2_normalised(self, t2):
        grid = Grid.for_target(t2, (40, 40))
        pi = discretize_target(t2, grid)
        assert pi.sum() == pytest.approx(1.0)
        assert np.all(pi > 0)

    def test_coverage_error(self, t1):
        grid = Grid(bounds=((5.0, 6.0),), shape=(10,))
        with pytest.raises(CoverageError):
            discretize_target(t1, grid)


class TestBuildLevelMatrix:
    def test_uniform_kind_is_rank_one(self, t1):
        grid = Grid.for_target(t1, 300)
        K = build_level_matrix(t1, grid, 0.5, KernelKind.UNIFORM)
        svals = np.linalg.svd(K.P - K.pi[None, :], compute_uv=False)
        assert svals[0] < 1e-12
        assert spectral_gap(K) == pytest.approx(1.0, abs=1e-10)

    def test_so_sh_second_singular_value(self, t1):
        from slicegap.kernels import gamma_t
        from slicegap.slice_geometry import level_set_1d

        grid = Grid.for_target(t1, 400)
        K = build_level_matrix(t1, grid, 0.5, KernelKind.SO_SH, 3.0)
        root = np.sqrt(K.pi)
        A = (root[:, None] * K.P) / root[None, :]
        s2 = np.linalg.svd(A, compute_uv=False)[1]
        assert s2 == pytest.approx(1.0 - gamma_t(level_set_1d(t1, 0.5), 3.0), abs=1e-6)

    def test_chord_rows_dominate_small_set(self, t2):
        from slicegap.kernels import har_small_set_weight

        grid = Grid.for_target(t2, (32, 32))
        for t in (0.1, 0.4, 0.8):
            K = build_level_matrix(t2, grid, t, KernelKind.HIT_AND_RUN, None)
            assert (K.P - (har_small_set_weight(t2, t) * K.pi)[None, :]).min() >= -5e-3

    def test_chord_rows_on_disk(self):
        disk = uniform_ball((0.0, 0.0), 1.0)
        grid = Grid(bounds=((-1.0, 1.0), (-1.0, 1.0)), shape=(24, 24))
        K = build_level_matrix(disk, grid, 0.5, KernelKind.HIT_AND_RUN, None)
        assert K.P.min() >= 0.0
        # small-set constant for a disk is 1/4 of the uniform weights
        assert (K.P - (0.25 * K.pi)[None, :]).min() >= -5e-3
        assert psd_check(K) >= -1e-10

    def test_empty_slice(self, t1):
        grid = Grid.for_target(t1, 100)
        with pytest.raises(EmptyLevelSetError):
            build_level_matrix(t1, grid, 1.5, KernelKind.UNIFORM)

    def test_strip_kinds_reject_three_dimensions(self, monkeypatch):
        import slicegap.spectral_oracle as oracle

        target = TargetDensity(3, (QuasiConcaveComponent(Shape.GAUSSIAN, (0.0, 0.0, 0.0), 1.0, 1.0),))
        grid = Grid.for_target(target, (5, 5, 5))
        assert build_level_matrix(target, grid, 0.1, KernelKind.UNIFORM).P.shape[0] > 1
        monkeypatch.setattr(oracle, "density_on_grid", lambda *a: pytest.fail("work done before the shape check"))
        for kind in (KernelKind.SO_SH, KernelKind.HIT_AND_RUN, KernelKind.COMBINED):
            with pytest.raises(UnsupportedShapeError, match="3D grid supports only the uniform kind"):
                build_level_matrix(target, grid, 0.1, kind, 3.0)

    def test_axis_kind_rejects_two_dimensions(self, t2):
        grid = Grid.for_target(t2, (8, 8))
        calls = [
            lambda: build_level_matrix(t2, grid, 0.5, KernelKind.SO_SH, 3.0),
            lambda: build_full_matrix(t2, grid, KernelKind.SO_SH, 3.0, m=4),
            lambda: beta_k_numeric_many(t2, grid, KernelKind.SO_SH, 3.0, [1], m=4, norm_bins=16),
        ]
        for call in calls:
            with pytest.raises(UnsupportedShapeError, match="a 2D grid takes the combined kind"):
                call()


class TestBuildFullMatrix:
    def test_uniform_target_is_rank_one(self):
        u = uniform_interval(0.0, 1.0)
        grid = Grid(bounds=((0.0, 1.0),), shape=(50,))
        U = build_full_matrix(u, grid, KernelKind.UNIFORM, None, m=20)
        assert spectral_gap(U) == pytest.approx(1.0, abs=1e-12)

    def test_t1_so_sh_reversibility(self, t1):
        grid = Grid.for_target(t1, 400)
        H = build_full_matrix(t1, grid, KernelKind.SO_SH, 3.0, m=100)
        assert reversibility_check(H) < 1e-8
        assert np.abs(H.pi @ H.P - H.pi).max() < 1e-10

    def test_stationary_weights_close_to_density(self, t1):
        grid = Grid.for_target(t1, 400)
        H = build_full_matrix(t1, grid, KernelKind.SO_SH, 3.0, m=100)
        pi_rho = discretize_target(t1, grid)
        assert np.abs(H.pi - pi_rho).max() < 1e-14

    @pytest.mark.parametrize("kind", [KernelKind.HIT_AND_RUN, KernelKind.COMBINED])
    def test_2d_kernel_is_exact_by_construction(self, t2, kind):
        # positive semi-definite, stochastic, reversible and stationary for the discretized target, with no correction
        grid = Grid.for_target(t2, (24, 24))
        H = build_full_matrix(t2, grid, kind, 3.0, m=16)
        assert psd_check(H) >= -1e-10
        assert np.abs(H.P.sum(axis=1) - 1.0).max() <= 1e-12
        assert reversibility_check(H) < 1e-15
        assert np.abs(H.pi - discretize_target(t2, grid)[H.support]).max() <= 1e-14

    def test_combined_strips_split_separated_modes(self):
        # with the modes apart, the part-local refresh slows the combined kernel visibly
        target = separated_pair()
        grid = Grid.for_target(target, (16, 16))
        gap_har = spectral_gap(build_full_matrix(target, grid, KernelKind.HIT_AND_RUN, 3.0))
        gap_combined = spectral_gap(build_full_matrix(target, grid, KernelKind.COMBINED, 3.0))
        assert abs(gap_har - gap_combined) > 1e-3

    @pytest.mark.parametrize("kind", [KernelKind.HIT_AND_RUN, KernelKind.COMBINED])
    def test_disk_kernel_is_its_level_kernel(self, kind):
        # every level of a flat disk holds the same cells, so H is the level kernel of any level
        disk = uniform_ball((0.0, 0.0), 1.0)
        grid = Grid(bounds=((-1.0, 1.0), (-1.0, 1.0)), shape=(24, 24))
        H = build_full_matrix(disk, grid, kind, 3.0)
        assert H.n < grid.n
        for t in (1e-3, 0.5, 1.0):
            K = build_level_matrix(disk, grid, t, kind, 3.0)
            assert np.array_equal(K.support, H.support)
            assert np.abs(K.P - H.P).max() <= 1e-15


class TestKStep:
    def test_k1_equals_full(self, t1, t2):
        # a k-step set holding k > 1 builds its k=1 kernel alongside the others;
        # in 2D that is the sum over nodes of level matrices, H alone a prefix sum per strip
        grid = Grid.for_target(t1, 200)
        H = build_full_matrix(t1, grid, KernelKind.SO_SH, 3.0, m=50)
        M1 = build_k_step_matrices(t1, grid, KernelKind.SO_SH, 3.0, [1, 2], m=50)[1]
        assert np.abs(H.P - M1.P).max() < 1e-12
        grid2 = Grid.for_target(t2, (14, 14))
        H2 = build_full_matrix(t2, grid2, KernelKind.COMBINED, 3.0, m=8)
        M2 = build_k_step_matrices(t2, grid2, KernelKind.COMBINED, 3.0, [1, 2], m=8)[1]
        assert np.abs(H2.P - M2.P).max() < 1e-12

    def test_uniform_inner_is_k_independent(self, t1):
        grid = Grid.for_target(t1, 200)
        mats = build_k_step_matrices(t1, grid, KernelKind.UNIFORM, None, [1, 7], m=50)
        assert np.array_equal(mats[1].P, mats[7].P)

    def test_rows_approach_exact_refresh(self, t1):
        grid = Grid.for_target(t1, 400)
        U = build_full_matrix(t1, grid, KernelKind.UNIFORM, None, m=100)
        mats = build_k_step_matrices(t1, grid, KernelKind.SO_SH, 3.0, [1, 2, 5, 10, 20], m=100)
        tvs = []
        for k in (1, 2, 5, 10, 20):
            tv = 0.5 * np.abs(mats[k].P - U.P).sum(axis=1).max()
            tvs.append(tv)
            assert tv <= beta_k_so_sh_closed_form(t1, 3.0, k) + 5e-3
        assert all(b <= a + 1e-12 for a, b in zip(tvs, tvs[1:]))


class _DriftingGap:
    """Tent density whose level sets claim a gap that drifts across the grid as the level rises."""

    dim = 1
    sup_norm = 1.0

    def density(self, x):
        x = np.asarray(x, dtype=float)
        r = x[..., 0] if x.ndim and x.shape[-1:] == (1,) else x
        return np.maximum(1.0 - np.abs(r) / 2.0, 0.0)

    def level_regions(self, t):
        half = 2.0 * (1.0 - t)
        mid = half * (t - 0.5)
        return [Interval(-half, mid - 0.01 * half), Interval(mid + 0.01 * half, half)]


class TestLevelPlan:
    """Kernels from the shared level plans against a brute-force loop over their nodes."""

    TARGETS = {
        "twin_triangles": twin_triangles(),
        "one_component": TargetDensity(1, (QuasiConcaveComponent(Shape.GAUSSIAN, (0.3,), 1.2, 2.0),)),
        "uniform_interval": uniform_interval(-1.0, 2.0, 0.5),
        "gaussian_pair": gaussian_pair(),
        "separated_pair": separated_pair(),
    }
    CASES = [
        (kind, name)
        for name in ("one_component", "twin_triangles", "uniform_interval")
        for kind in (KernelKind.UNIFORM, KernelKind.SO_SH)
    ]
    CASES += [
        (kind, name) for name in ("gaussian_pair", "separated_pair") for kind in (KernelKind.HIT_AND_RUN, KernelKind.COMBINED)
    ]

    @staticmethod
    def _assert_exact(K, target, grid):
        """Stochastic, reversible and stationary for the discretized target, with no correction."""
        assert np.abs(K.P.sum(axis=1) - 1.0).max() <= 1e-12
        assert reversibility_check(K) <= 1e-15
        assert np.abs(K.pi - discretize_target(target, grid)[K.support]).max() <= 1e-14

    @pytest.mark.parametrize("kind, name", CASES)
    def test_matches_per_node_loop(self, kind, name):
        # 1D: 300 cells and 60 refinement levels; 2D: the strip plan, whose nodes the reference refines further
        target = self.TARGETS[name]
        grid = Grid.for_target(target, 300 if target.dim == 1 else (12, 12))
        m = 60 if target.dim == 1 else 8
        kernels = build_k_step_matrices(target, grid, kind, 3.0, [1, 2, 5], m)
        support = kernels[1].support
        w = None if kind in (KernelKind.UNIFORM, KernelKind.HIT_AND_RUN) else 3.0
        rho = density_on_grid(target, grid)[support]
        refs = level_integral_kernels(target, grid.centers[support], rho, m, w, (1, 2, 5), grid)
        for k, K in kernels.items():
            assert np.abs(K.P - refs[k]).max() <= 1e-12
            self._assert_exact(K, target, grid)
        if target.dim == 2:
            H = build_full_matrix(target, grid, kind, 3.0, m)
            assert np.abs(H.P - refs[1]).max() <= 1e-12

    def test_uniform_2d_matches_per_node_loop(self, t2):
        grid = Grid.for_target(t2, (14, 14))
        U = build_full_matrix(t2, grid, KernelKind.UNIFORM, None, m=8)
        ref = level_integral_kernels(t2, grid.centers, density_on_grid(t2, grid), 8)[1]
        assert np.abs(U.P - ref).max() <= 1e-12
        self._assert_exact(U, t2, grid)

    def test_gap_that_is_not_nested_raises(self):
        grid = Grid(bounds=((-2.0, 2.0),), shape=(200,))
        with pytest.raises(OutOfClassError, match="not nested"):
            build_full_matrix(_DriftingGap(), grid, KernelKind.SO_SH, 3.0, m=20)


def gaussian_twins_1d() -> TargetDensity:
    """Two 1D Gaussian components of unequal height: level sets of two parts below the lower mode."""
    return TargetDensity(
        1,
        (
            QuasiConcaveComponent(Shape.GAUSSIAN, (0.0,), 1.0, 1.0),
            QuasiConcaveComponent(Shape.GAUSSIAN, (3.0,), 0.6, 1.5),
        ),
    )


class TestPlanProduct:
    """Plan kernels apply P v from their prefix table and gather P only when read."""

    TARGETS = {"twin_triangles": twin_triangles(), "gaussian_twins": gaussian_twins_1d(), "gaussian_pair": gaussian_pair()}
    KINDS_1D = (KernelKind.UNIFORM, KernelKind.SO_SH, KernelKind.HIT_AND_RUN)
    CASES = [(name, kind) for kind in KINDS_1D for name in ("twin_triangles", "gaussian_twins")]
    CASES += [("gaussian_pair", KernelKind.UNIFORM)]

    @classmethod
    def _kernels(cls, name, kind, cells=300):
        target = cls.TARGETS[name]
        grid = Grid.for_target(target, cells if target.dim == 1 else (24, 24))
        return build_k_step_matrices(target, grid, kind, 3.0, [1, 2, 5, 20], m=60)

    @pytest.mark.parametrize("name, kind", CASES)
    def test_product_matches_the_dense_matrix(self, name, kind):
        rng = np.random.default_rng(7)
        for K in self._kernels(name, kind).values():
            assert "P" not in vars(K)
            for _ in range(3):
                u, v = rng.standard_normal((2, K.n))
                assert np.abs(K.apply(v) - K.P @ v).max() <= 1e-14 * np.abs(v).max()
                # detailed balance as products: <u, pi P v> = <pi P u, v>
                scale = np.abs(u) @ (K.pi * (K.P @ np.abs(v)))
                assert abs(u @ (K.pi * K.apply(v)) - (K.pi * K.apply(u)) @ v) <= 1e-14 * scale

    @pytest.mark.parametrize("name, kind", CASES)
    def test_blocked_gather_is_the_min_rank_index(self, name, kind):
        # 600 1D cells: full `ROW_BLOCK` blocks and a partial one
        for K in self._kernels(name, kind, cells=600).values():
            assert np.array_equal(K.P, min_rank_kernel(K.plan, K.table))

    @pytest.mark.parametrize("name, sides", [("twin_triangles", [0, 1]), ("gaussian_twins", [-1, 0, 1])])
    def test_so_sh_cases_read_the_side_rows(self, name, sides):
        # the agreement above covers pairs on one side, on opposite sides and below every gap
        K = self._kernels(name, KernelKind.SO_SH)[1]
        assert np.unique(K.plan.side).tolist() == sides
        assert np.abs(K.table[1:] - K.table[0]).max() > 1e-3

    def test_norm_alone_assembles_nothing(self, t1):
        # Lanczos reads the plan product only
        grid = Grid.for_target(t1, 1000)
        H = build_full_matrix(t1, grid, KernelKind.SO_SH, 3.0, m=60)
        norm = op_norm_centered(H)
        assert "P" not in vars(H)
        assert norm == pytest.approx(spectrum(DiscreteKernel(P=H.P, pi=H.pi))[0], abs=1e-12)

    @staticmethod
    def _corrupted(monkeypatch, change):
        import slicegap.spectral_oracle as oracle

        table = oracle._prefix_table

        def corrupt(*args):
            out = table(*args)
            change(out)
            return out

        monkeypatch.setattr(oracle, "_prefix_table", corrupt)

    @pytest.mark.parametrize("name, row", [("twin_triangles", 0), ("gaussian_pair", 2)], ids=["read-row", "unread-row"])
    def test_nan_in_the_table_rejected(self, monkeypatch, name, row):
        # a uniform plan on a 2D grid has no sides, so no cell reads row 2
        self._corrupted(monkeypatch, lambda table: table.__setitem__((row, 3), np.nan))
        with pytest.raises(ValueError, match="non-finite"):
            self._kernels(name, KernelKind.UNIFORM)

    def test_negative_increment_rejected(self, monkeypatch):
        # every entry stays positive, but one node would subtract a level kernel's weight
        def reverse_node_10(table):
            table[0, 10:] -= 2.0 * (table[0, 10] - table[0, 9])
            assert table.min() > 0.0

        self._corrupted(monkeypatch, reverse_node_10)
        with pytest.raises(ValueError, match="negative level increment"):
            self._kernels("twin_triangles", KernelKind.SO_SH)

    def test_rows_not_summing_to_one_rejected(self, monkeypatch):
        self._corrupted(monkeypatch, lambda table: table.__imul__(1.0 + 1e-6))
        with pytest.raises(ValueError, match="sum to 1 only within"):
            self._kernels("twin_triangles", KernelKind.SO_SH)


class TestPositivityCertificate:
    """psd_H reads a plan kernel's weights: min over nodes of width, gamma and 1 - gamma.

    The controls set the whole-set weight gamma at t1's two-part nodes (m = 400 as in
    ``configs/t1_so_sh.cfg``).  A single non-PSD level kernel leaves H's smallest eigenvalue at
    rounding, so only the certificate sees it.  In 2D the weights are a strip plan's, over directions,
    strips and nodes, and the controls set gamma at its two-part strip nodes on a 10 x 10 grid.
    """

    @staticmethod
    def _set_gamma(monkeypatch, value, nodes):
        import slicegap.spectral_oracle as oracle

        weight = oracle.mixture_weight

        def mutated(length, gap, w):
            gamma = np.array(weight(length, gap, w))
            two = np.flatnonzero(gap > 0.0)
            gamma[two if nodes == "all" else two[two.size // 2]] = value
            return gamma

        monkeypatch.setattr(oracle, "mixture_weight", mutated)

    @staticmethod
    def _psd_row(t1, cells):
        grid = Grid.for_target(t1, cells)
        report = verify_theorem_bounds(t1, grid, KernelKind.SO_SH, 3.0, [1], m=400, k_max=1, tv_n_max=1, norm_bins=64)
        assert report.checks[0].name == "psd_H"
        return report.checks[0]

    def test_weights_in_range_pass(self, t1):
        grid = Grid.for_target(t1, 300)
        H = build_full_matrix(t1, grid, KernelKind.SO_SH, 3.0, m=400)
        assert H.positivity() == 0.0  # gamma is 1 at every one-part node
        assert build_full_matrix(t1, grid, KernelKind.UNIFORM, None, m=400).positivity() > 0.0
        assert self._psd_row(t1, 300).passed

    @pytest.mark.parametrize("cells", [300, 2000])
    def test_one_level_kernel_not_psd_fails(self, monkeypatch, t1, cells):
        self._set_gamma(monkeypatch, 1.5, "one")
        row = self._psd_row(t1, cells)
        assert row.lhs == pytest.approx(0.5) and not row.passed
        if cells == 300:  # the dense smallest eigenvalue cannot see it
            assert psd_check(build_full_matrix(t1, Grid.for_target(t1, cells), KernelKind.SO_SH, 3.0, m=400)) > -1e-10

    def test_every_two_part_node_over_one(self, monkeypatch, t1):
        self._set_gamma(monkeypatch, 1.02, "all")
        row = self._psd_row(t1, 300)
        assert row.lhs == pytest.approx(0.02) and not row.passed
        # on 2000 cells a side increment outweighs the whole-set one, and the kernel is never made
        with pytest.raises(ValueError, match="negative level increment"):
            build_full_matrix(t1, Grid.for_target(t1, 2000), KernelKind.SO_SH, 3.0, m=400)

    @pytest.mark.parametrize("kind", [KernelKind.HIT_AND_RUN, KernelKind.COMBINED])
    def test_strip_kernels_certified_alone_and_in_the_joint_pass(self, t2, kind):
        grid, w = Grid.for_target(t2, (10, 10)), 3.0 if kind is KernelKind.COMBINED else None
        alone = build_full_matrix(t2, grid, kind, w, m=8)  # per-strip prefix sums
        joint = build_k_step_matrices(t2, grid, kind, w, [1, 2], m=8)[1]  # the level-matrix walk
        assert alone.positivity() == joint.positivity() >= 0.0
        for H in (alone, joint):
            assert psd_check(H) >= -1e-10

    @staticmethod
    def _psd_row_2d(t2, shared):
        # H from per-strip prefix sums beside a k-step set on its own grid, or as k=1 of the joint pass
        grid, kgrid = Grid.for_target(t2, (10, 10)), None if shared else Grid.for_target(t2, (8, 8))
        report = verify_theorem_bounds(
            t2, grid, KernelKind.COMBINED, 3.0, [1, 2], m=8, k_max=1, tv_n_max=1, norm_bins=64, kstep_grid=kgrid
        )
        assert report.checks[0].name == "psd_H"
        # the dense smallest eigenvalue, the row's source before the certificate, misses both controls
        assert psd_check(build_full_matrix(t2, grid, KernelKind.COMBINED, 3.0, m=8)) > 0.0
        return report.checks[0]

    @pytest.mark.parametrize("shared", [False, True])
    def test_one_strip_node_not_psd_fails_in_2d(self, monkeypatch, t2, shared):
        import slicegap.spectral_oracle as oracle

        plan = oracle._strip_plan(t2, Grid.for_target(t2, (10, 10)), KernelKind.COMBINED)
        # a strip refreshes in two parts from the first node above its both level while each side has a cell there
        keys, sides = plan.sid.ravel(), np.tile(plan.side, oracle.N_THETA)
        top = np.full((2, plan.both.size), -1)
        np.maximum.at(top, (sides, keys), np.tile(plan.rank, oracle.N_THETA))
        first = np.searchsorted(plan.levels, plan.both, side="right")
        key = np.flatnonzero(first <= top.min(axis=0))[0]
        gamma = oracle._StripPlan.gamma

        def mutated(self, k, j, *args):
            return np.where((k == key) & (j == first[key]), 1.5, gamma(self, k, j, *args))

        monkeypatch.setattr(oracle._StripPlan, "gamma", mutated)
        row = self._psd_row_2d(t2, shared)
        assert row.lhs == pytest.approx(0.5) and not row.passed

    @pytest.mark.parametrize("shared", [False, True])
    def test_every_two_part_strip_node_over_one(self, monkeypatch, t2, shared):
        import slicegap.spectral_oracle as oracle

        monkeypatch.setattr(oracle, "mixture_weight", lambda length, gap, w: np.full(np.shape(length), 1.02))
        row = self._psd_row_2d(t2, shared)
        assert row.lhs == pytest.approx(0.02) and not row.passed


class TestReversibilityResidual:
    """The product test of ``reversibility_U`` and ``reversibility_H``, on every kernel a report makes."""

    ROOT = Path(__file__).resolve().parents[1]

    @classmethod
    def _report_kernels(cls, source):
        """U and H on the main grid, and U and the k-step set on the k-step grid, of a config or of ``verify``."""
        from slicegap.cli import _KIND_MAP
        from slicegap.config import load_config
        from slicegap.targets import twin_triangles

        if source == "verify":  # suite.run_verification_suite's report
            target, kind, w, m, ks = twin_triangles(), KernelKind.SO_SH, 3.0, 150, {1, 2, 3, 4, 5}
            grid = kgrid = Grid.for_target(target, 600)
            km = m
        else:
            cfg = load_config(cls.ROOT / source)
            target, kind, w, m = cfg.target, _KIND_MAP[cfg.sampler.kind], cfg.sampler.w, cfg.levels_m
            grid = Grid.for_target(target, cfg.cells, cfg.eps_cut)
            kgrid, km = Grid.for_target(target, cfg.kstep_cells, cfg.eps_cut), cfg.kstep_m or m
            ks = {*cfg.k_list, *range(1, cfg.k_max + 1)}
        for g, mm in ((grid, m), (kgrid, km)):
            yield build_full_matrix(target, g, KernelKind.UNIFORM, w, mm)
        yield build_full_matrix(target, grid, kind, w, m)
        yield from build_k_step_matrices(target, kgrid, kind, w, ks, km).values()

    @pytest.mark.parametrize("source", ["configs/t1_so_sh.cfg", "bench/gap2d.cfg", "verify"])
    def test_every_report_kernel_passes(self, source):
        for K in self._report_kernels(source):
            assert reversibility_residual(K) < 1e-14, K.label

    def test_a_gather_from_the_other_side_fails(self, monkeypatch):
        # each cell on a side gathers the other side's row, so its same-side term goes to the cells across the
        # gap: on two Gaussians of unequal height the rows still sum to 1 and the kernel is made
        import slicegap.spectral_oracle as oracle

        def other_side(self, table, v):
            nodes, group = self.width.size, self.side + 1
            per_node = np.bincount(group * nodes + self.rank, weights=v, minlength=3 * nodes).reshape(3, nodes)
            off_side = np.stack([per_node.sum(axis=0), per_node[0] + per_node[2], per_node[0] + per_node[1]])
            sums = oracle._min_rank_sums(table[0], off_side)
            sums[1:] += oracle._min_rank_sums(table[1:], per_node[1:])
            return sums[np.where(group > 0, 3 - group, 0), self.rank] / self.rho

        assert reversibility_residual(TestPlanProduct._kernels("gaussian_twins", KernelKind.SO_SH)[1]) < 1e-15
        monkeypatch.setattr(oracle._LevelPlan, "product", other_side)
        K = TestPlanProduct._kernels("gaussian_twins", KernelKind.SO_SH)[1]
        assert not Check("reversibility_H", reversibility_residual(K), 0.0, 1e-8).passed

    def test_a_symmetric_error_is_left_to_construction(self, monkeypatch):
        # same-side pairs reading the other side's row keep the flow symmetric, so no product test can see
        # them; the rows no longer sum to 1, and the kernel is rejected where it is made
        import slicegap.spectral_oracle as oracle

        product = oracle._LevelPlan.product
        monkeypatch.setattr(oracle._LevelPlan, "product", lambda self, table, v: product(self, table[[0, 2, 1]], v))
        with pytest.raises(ValueError, match="sum to 1 only within"):
            TestPlanProduct._kernels("gaussian_twins", KernelKind.SO_SH)


class TestStripWalk:
    """Level matrices walked by weight updates against ``strip_level_matrix``, built one strip at a time."""

    @pytest.mark.parametrize("kind", [KernelKind.HIT_AND_RUN, KernelKind.COMBINED])
    @pytest.mark.parametrize("name", ["gaussian_pair", "separated_pair"])
    def test_every_node_jumps_and_single_nodes(self, kind, name):
        from slicegap.spectral_oracle import _strip_plan

        target = TestLevelPlan.TARGETS[name]
        # a step width of 4 keeps separated_pair's widest strip gap, 3.1 on this grid, inside the class
        grid = Grid.for_target(target, (10, 10))
        combined = kind is KernelKind.COMBINED
        plan = _strip_plan(target, grid, kind)
        nodes = np.arange(plan.levels.size)
        mids, centers = plan.levels - plan.width / 2.0, grid.centers[plan.support[plan.falling]]
        w = 4.0 if combined else None
        refs = [strip_level_matrix(target, grid, centers[:size], t, w) for t, size in zip(mids, plan.size)]
        for walk in (nodes, nodes[1::3], nodes[2::5], *([j] for j in (0, nodes.size // 2, nodes.size - 1))):
            seen = 0
            for j, (A, _) in zip(walk, plan.level_matrices(4.0, walk)):
                assert A.shape == refs[j].shape
                assert np.array_equal(A, A.T)
                assert np.abs(A - refs[j]).max() <= 1e-13
                seen += 1
            assert seen == len(walk)

    @pytest.mark.parametrize("cells", [16, 24])
    def test_no_node_within_rounding_of_the_one_below(self, cells):
        # mirrored cells of gaussian_pair share their density bit for bit, so no pair of them splits a node
        from slicegap.spectral_oracle import _strip_plan

        target = TestLevelPlan.TARGETS["gaussian_pair"]
        plan = _strip_plan(target, Grid.for_target(target, (cells, cells)), KernelKind.COMBINED)
        assert plan.width.min() > 1e-12

    @pytest.mark.parametrize("kind", [KernelKind.HIT_AND_RUN, KernelKind.COMBINED])
    def test_level_matrix_support_follows_falling_density(self, t2, kind):
        grid = Grid.for_target(t2, (12, 12))
        K = build_level_matrix(t2, grid, 0.3, kind, 3.0)
        rho = density_on_grid(t2, grid)[K.support]
        assert np.all(rho >= 0.3 - 1e-12) and np.all(np.diff(rho) <= 0.0)
        assert np.count_nonzero(density_on_grid(t2, grid) >= 0.3 - 1e-12) == K.n

    def test_peaks_at_most_the_sparse_product(self, t2):
        # tracemalloc peaks, with the strip plans cached, of the sparse product F diag(w) F^T that built every
        # level matrix before the walk, measured the same way: 7074845 bytes for the k-step set, 3572828 for one matrix
        import tracemalloc

        g16, g32 = Grid.for_target(t2, (16, 16)), Grid.for_target(t2, (32, 32))
        runs = [
            (lambda: build_k_step_matrices(t2, g16, KernelKind.COMBINED, 3.0, range(1, 6)), 7_074_845),
            # the lowest 2D level probe of ``slicegap verify``
            (lambda: build_level_matrix(t2, g32, 0.5 / 6, KernelKind.COMBINED, 3.0), 3_572_828),
        ]
        for run, bound in runs:
            run()
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound


class TestLevelKernels:
    """``level_kernels`` against one level at a time, and ``spectrum`` against dense references."""

    @pytest.mark.parametrize(
        "case",
        ["1d-one-part", "1d-two-part", "2d-hit_and_run", "2d-combined", "2d-one-cell-top"],
    )
    def test_spectrum_matches_the_full_kernel_references(self, t1, t2, case):
        if case.startswith("1d"):
            t = 0.9 if case == "1d-one-part" else 0.5
            assert level_set_1d(t1, t).parts.nparts == (1 if case == "1d-one-part" else 2)
            K = build_level_matrix(t1, Grid.for_target(t1, 300), t, KernelKind.SO_SH, 3.0)
        else:
            # an odd grid: one cell holds the top density
            grid = Grid.for_target(t2, (15, 15))
            kind = KernelKind.COMBINED if case == "2d-combined" else KernelKind.HIT_AND_RUN
            top = case == "2d-one-cell-top"
            K = build_level_matrix(t2, grid, float(density_on_grid(t2, grid).max()) if top else 0.3, kind, 3.0)
            assert (K.n == 1) == top
        norm, min_eig = spectrum(K)
        # the uniform law is stationary, so the centered operator is P - 1/n
        eig = np.linalg.eigvalsh(K.P - 1.0 / K.n)
        assert norm == pytest.approx(np.abs(eig).max(), abs=1e-12)
        assert min_eig == pytest.approx(np.linalg.eigvalsh(K.P).min(), abs=1e-12)
        if K.n == 1:
            assert (norm, min_eig) == (0.0, 1.0)

    def test_non_symmetric_level_matrix_rejected(self):
        # stochastic, but its rows and columns differ: not a level kernel of the uniform law
        P = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        with pytest.raises(ValueError, match="cycle is not reversible"):
            spectrum(DiscreteKernel(P=P, pi=np.full(3, 1.0 / 3.0), label="cycle"))

    @pytest.mark.parametrize("kind", [KernelKind.SO_SH, KernelKind.UNIFORM, KernelKind.HIT_AND_RUN, KernelKind.COMBINED])
    def test_walk_matches_one_level_at_a_time(self, t1, t2, kind):
        target, grid = (t1, Grid.for_target(t1, 200)) if kind is KernelKind.SO_SH else (t2, Grid.for_target(t2, (12, 12)))
        # two levels on one node, and levels far apart
        levels = [0.05, 0.2, 0.2 + 1e-9, 0.45, 0.6, 0.85]
        seen = 0
        for t, K in zip(levels, level_kernels(target, grid, kind, 3.0, levels)):
            ref = build_level_matrix(target, grid, t, kind, 3.0)
            assert K.label == ref.label
            assert np.array_equal(K.support, ref.support) and np.array_equal(K.pi, ref.pi)
            assert np.abs(K.P - ref.P).max() <= 1e-13
            seen += 1
        assert seen == len(levels)

    @pytest.mark.parametrize("case", ["t1-verify", "t1-criterion-2", "two-gaussian-merge"])
    def test_1d_kernels_are_the_dense_level_matrices(self, t1, case):
        # the plan's sets and sides against each level's own level set: verify's 12 levels on 800 cells,
        # criterion 2's 20 levels on 2000 cells, and levels just above a merge level, whose sets hold a
        # cell of the node below the lowest two-part one
        if case == "two-gaussian-merge":
            target, cells, levels = gaussian_twins_1d(), 800, [0.05167, 0.0517]
            assert [level_set_1d(target, t).parts.nparts for t in levels] == [2, 2]
            assert [level_set_1d(target, t - 1e-4).parts.nparts for t in levels] == [1, 1]
        else:
            target, cells = t1, 800 if case == "t1-verify" else 2000
            count = 12 if case == "t1-verify" else 20
            levels = [(j + 0.5) * 0.8 / count for j in range(count)]
        grid = Grid.for_target(target, cells)
        for t, K in zip(levels, level_kernels(target, grid, KernelKind.SO_SH, 3.0, levels)):
            P, support = level_matrix_1d(target, grid, t, 3.0)
            assert np.array_equal(K.support, support)
            assert np.abs(K.P - P).max() <= 1e-15

    def test_levels_out_of_order_rejected(self, t2):
        grid = Grid.for_target(t2, (12, 12))
        with pytest.raises(ValueError, match="ascending"):
            next(level_kernels(t2, grid, KernelKind.COMBINED, 3.0, [0.4, 0.2]))


class TestOpNorm:
    def test_rank_one(self):
        pi = np.array([0.2, 0.3, 0.5])
        K = DiscreteKernel(P=np.tile(pi, (3, 1)), pi=pi)
        assert op_norm_centered(K) < 1e-14
        assert spectral_gap(K) == pytest.approx(1.0)

    @pytest.mark.parametrize("p", [0.15, 0.5, 0.9])
    def test_two_state_norm(self, p):
        assert op_norm_centered(two_state(p)) == pytest.approx(abs(2 * p - 1), abs=1e-12)

    @pytest.mark.parametrize("a, b", [(0.85, 0.85), (0.5, 0.5), (0.1, 0.1), (0.1, 0.3), (0.7, 0.9), (0.5, 0.25)])
    def test_spectrum_closed_form(self, a, b):
        import slicegap.spectral_oracle as oracle

        # pi = (b, a) / (a + b) and eigenvalues 1 and 1 - a - b; a == b is a two-state chain with uniform pi
        K = DiscreteKernel(P=np.array([[1 - a, a], [b, 1 - b]]), pi=np.array([b, a]) / (a + b))
        assert (oracle._similarity(K) is K.P) == (a == b)  # uniform pi: the similarity is P itself
        norm, low = spectrum(K)
        assert norm == pytest.approx(abs(1 - a - b), abs=1e-12)
        assert low == pytest.approx(1 - a - b, abs=1e-12)

    def test_svd_and_eig_routes_agree_for_reversible(self, t1):
        # Lanczos on the plan product against the dense singular values
        grid = Grid.for_target(t1, 1000)
        H = build_full_matrix(t1, grid, KernelKind.SO_SH, 3.0, m=60)
        root = np.sqrt(H.pi)
        C = (root[:, None] * (H.P - H.pi[None, :])) / root[None, :]
        assert op_norm_centered(H) == pytest.approx(np.linalg.svd(C, compute_uv=False)[0], abs=1e-10)

    def test_non_reversible_kernel_rejected(self):
        # a doubly stochastic cycle: stationary but not reversible
        P = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        with pytest.raises(ValueError, match="not reversible"):
            op_norm_centered(DiscreteKernel(P=P, pi=np.full(3, 1.0 / 3.0)))

    def test_norm_is_solved_once_per_kernel(self, monkeypatch):
        import slicegap.spectral_oracle as oracle

        calls = []
        solve = oracle._lanczos
        monkeypatch.setattr(oracle, "_lanczos", lambda op, n: calls.append(n) or solve(op, n))
        K = two_state(0.9)
        assert spectral_gap(K) == pytest.approx(0.2, abs=1e-12)
        assert op_norm_centered(K) == pytest.approx(0.8, abs=1e-12)
        assert len(calls) == 1

    def test_dense_gap_makes_no_scaled_copy(self, t2):
        # a dense 16 x 16 combined H with a non-uniform pi: its product scales v, not P, and its guard reads a
        # block of rows at a time, so the gap holds less than the scaled copy of P and one block of rows
        import tracemalloc

        import slicegap.spectral_oracle as oracle

        H = build_full_matrix(t2, Grid.for_target(t2, (16, 16)), KernelKind.COMBINED, 3.0)
        assert type(H) is DiscreteKernel and H.pi.min() < H.pi.max()
        tracemalloc.start()
        try:
            gap = spectral_gap(H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gap == pytest.approx(1.0 - spectrum(DiscreteKernel(P=H.P, pi=H.pi))[0], abs=1e-12)
        assert peak < (H.n + oracle.ROW_BLOCK) * H.n * 8
        # one row's weight moved off the diagonal by 1e-6: the rows still sum to one, detailed balance fails
        P = H.P.copy()
        P[100, [101, 100]] += [1e-6, -1e-6]
        with pytest.raises(ValueError, match="off is not reversible"):
            spectral_gap(DiscreteKernel(P=P, pi=H.pi, label="off"))

    @pytest.mark.parametrize(
        "P, pi",
        [
            (np.array([[np.nan, 0.5], [0.5, 0.5]]), np.full(2, 0.5)),
            (np.full((2, 2), 0.5), np.array([0.5, np.nan])),
            (np.full((2, 2), 0.5), np.array([0.5, np.inf])),
        ],
        ids=["nan-in-P", "nan-in-pi", "inf-in-pi"],
    )
    def test_non_finite_entry_rejected(self, P, pi):
        with pytest.raises(ValueError, match="non-finite"):
            DiscreteKernel(P=P, pi=pi)

    def test_row_sum_validation(self):
        P = np.array([[0.7, 0.2], [0.5, 0.5]])
        with pytest.raises(ValueError):
            DiscreteKernel(P=P, pi=np.array([0.5, 0.5]))

    def test_negative_entry_rejected(self):
        P = np.array([[1.1, -0.1], [0.5, 0.5]])
        with pytest.raises(ValueError, match="negative"):
            DiscreteKernel(P=P, pi=np.array([0.5, 0.5]))

    @pytest.mark.parametrize(
        "P, pi",
        [
            (np.full((2, 3), 1.0 / 3.0), np.full(2, 0.5)),
            (np.full((3, 3), 1.0 / 3.0), np.full(2, 0.5)),
            (np.full((3, 3), 1.0 / 3.0), np.full((3, 1), 1.0 / 3.0)),
            (np.full(3, 1.0), np.full(3, 1.0 / 3.0)),
        ],
        ids=["P-not-square", "pi-too-short", "pi-not-a-vector", "P-not-a-matrix"],
    )
    def test_shape_mismatch_names_both_shapes(self, P, pi):
        with pytest.raises(ValueError, match=re.escape(f"got P {P.shape} and pi {pi.shape}")):
            DiscreteKernel(P=P, pi=pi)


class TestLanczos:
    """Norms from ``_lanczos`` against dense ``eigvalsh``."""

    @staticmethod
    def _symmetric(eigenvalues, seed=0):
        Q = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(eigenvalues), len(eigenvalues))))[0]
        return (Q * eigenvalues) @ Q.T

    @pytest.mark.parametrize("kind", [KernelKind.HIT_AND_RUN, KernelKind.COMBINED])
    def test_2d_dense_kernels_match_eigvalsh(self, t2, kind):
        kernels = build_k_step_matrices(t2, Grid.for_target(t2, (12, 12)), kind, 3.0, [1, 2, 5], m=8)
        for K in kernels.values():
            dense = spectrum(DiscreteKernel(P=K.P, pi=K.pi))[0]
            assert abs(op_norm_centered(K) - dense) <= 1e-12
            assert abs(K._norm - dense) <= K.residual + 1e-13

    @pytest.mark.parametrize("n", [1, 2, 7, 60, 400])
    def test_residual_bounds_the_distance_to_an_eigenvalue(self, n):
        # Parlett: for a symmetric C some eigenvalue lies within ||C v - theta v|| of the Ritz value theta
        import slicegap.spectral_oracle as oracle

        eig = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        norm, residual = oracle._lanczos(self._symmetric(eig, n).__matmul__, n)
        assert np.abs(np.abs(eig) - norm).min() <= residual + 1e-13
        assert norm == pytest.approx(np.abs(eig).max(), abs=1e-12)

    def test_a_dominant_negative_end_gives_its_magnitude(self):
        import slicegap.spectral_oracle as oracle

        norm, residual = oracle._lanczos(self._symmetric(np.linspace(-0.9, 0.5, 300)).__matmul__, 300)
        assert norm == pytest.approx(0.9, abs=1e-12)
        assert residual < 1e-14

    @pytest.mark.parametrize("n", [20, 30, 35])
    def test_a_close_top_pair_is_resolved_to_rounding(self, n):
        # two top eigenvalues 1e-6 apart: the run ends with the Krylov space, whose basis only
        # reorthogonalisation keeps orthonormal, so the Ritz pair is an eigenpair to rounding
        import slicegap.spectral_oracle as oracle

        rng = np.random.default_rng(n)
        eig = np.sort(rng.uniform(0.0, 1.0, n))
        eig[-1] = eig[-2] + 1e-6
        norm, residual = oracle._lanczos(self._symmetric(eig, n).__matmul__, n)
        assert norm == pytest.approx(eig[-1], abs=1e-12)
        assert residual < 1e-14

    def test_zero_operator_and_one_cell_divide_by_nothing(self):
        import slicegap.spectral_oracle as oracle

        with np.errstate(all="raise"):
            assert oracle._lanczos(lambda v: 0.0 * v, 5) == (0.0, 0.0)
            assert oracle._lanczos(lambda v: -0.5 * v, 1) == (0.5, 0.0)
            one = DiscreteKernel(P=np.ones((1, 1)), pi=np.ones(1), label="one-cell")
            assert op_norm_centered(one) == 0.0
            assert one.residual == 0.0
            # the uniform refresh of a uniform target is its own stationary projection
            u = uniform_interval(0.0, 1.0)
            U = build_full_matrix(u, Grid.for_target(u, 400), KernelKind.UNIFORM, 3.0, m=10)
            assert op_norm_centered(U) < 1e-15

    def test_step_cap_falls_back_to_spectrum(self, monkeypatch, t1):
        import slicegap.spectral_oracle as oracle

        H = build_full_matrix(t1, Grid.for_target(t1, 300), KernelKind.SO_SH, 3.0, m=60)
        dense = spectrum(DiscreteKernel(P=H.P, pi=H.pi))[0]
        calls = []
        monkeypatch.setattr(oracle, "LANCZOS_STEPS", 3)
        monkeypatch.setattr(oracle, "spectrum", lambda K: calls.append(K) or spectrum(K))
        assert op_norm_centered(H) == pytest.approx(dense, abs=1e-14)
        assert calls == [H]
        assert H.residual is None
        assert op_norm_centered(H) == H._norm  # cached by spectrum
        assert calls == [H]


class TestRowBlocks:
    """The row-blocked checks against their full-matrix formulas, bit for bit."""

    @pytest.fixture(scope="class")
    def K(self):
        # 517 rows: eight full 64-row blocks (two of 256) and a partial one of 5
        rng = np.random.default_rng(517)
        S = rng.random((517, 517)) ** 4
        S += S.T
        S[rng.random(S.shape) < 0.3] = 0.0
        S = np.maximum(S, S.T)
        S[np.diag_indices_from(S)] += 1.0  # a lazy diagonal: the mass that _broken moves
        return DiscreteKernel(P=S / S.sum(axis=1, keepdims=True), pi=S.sum(axis=1), label="random-reversible")

    def test_op_norm_centered(self, K):
        # spectrum is the dense eigvalsh, bit for bit; Lanczos is within its Ritz residual of it
        root = np.sqrt(K.pi)
        C = (root[:, None] * (K.P - K.pi[None, :])) / root[None, :]
        dense = float(np.abs(np.linalg.eigvalsh(C)).max())
        assert spectrum(K)[0] == dense
        fresh = DiscreteKernel(P=K.P, pi=K.pi)
        assert abs(op_norm_centered(fresh) - dense) <= fresh.residual + 1e-13

    @staticmethod
    def _broken(K):
        """K with detailed balance broken between two cells of the partial last block, and nowhere else."""
        P = K.P.copy()
        P[515, [512, 515]] += [5e-3, -5e-3]
        return DiscreteKernel(P=P, pi=K.pi, label="broken")

    def test_op_norm_centered_rejects_broken(self, K):
        with pytest.raises(ValueError, match="broken is not reversible"):
            op_norm_centered(self._broken(K))

    def test_level_spectrum_guard_reaches_the_partial_block(self):
        # a symmetric stochastic matrix: off-diagonal weights scaled below 1, the rest on the diagonal
        rng = np.random.default_rng(517)
        S = rng.random((517, 517))
        S += S.T
        np.fill_diagonal(S, 0.0)
        S /= 1.01 * S.sum(axis=1).max()
        S[np.diag_indices_from(S)] = 1.0 - S.sum(axis=1)
        uniform = np.full(517, 1.0 / 517)
        assert spectrum(DiscreteKernel(P=S, pi=uniform, label="symmetric"))[1] > -1.0
        S[515, 512] += 1e-11
        with pytest.raises(ValueError, match="off is not reversible"):
            spectrum(DiscreteKernel(P=S, pi=uniform, label="off"))

    def test_similarity_guard_holds_for_a_non_uniform_pi(self, K):
        # moves 1e-11 of similarity weight off the diagonal in one row of the partial block; rows still sum to 1
        P = K.P.copy()
        shift = 1e-11 * np.sqrt(K.pi[512] / K.pi[515])
        P[515, [512, 515]] += [shift, -shift]
        off = DiscreteKernel(P=P, pi=K.pi, label="off")
        assert reversibility_check(off) < 1e-8  # too small for a detailed-balance row to see
        for solve in (op_norm_centered, psd_check, spectrum):
            with pytest.raises(ValueError, match="off is not reversible"):
                solve(off)

    def test_nan_is_not_dropped_by_the_blocked_maxima(self, K):
        import slicegap.spectral_oracle as oracle

        bad = DiscreteKernel(P=K.P.copy(), pi=K.pi, label="nan")
        bad.P[515, 512] = np.nan  # after validation, in the partial block only
        assert np.isnan(reversibility_check(bad))
        assert not Check("reversibility_nan", reversibility_check(bad), 0.0, 1e-8).passed
        assert np.isnan(oracle._asymmetry(bad.P))
        with pytest.raises(ValueError, match="nan is not reversible"):
            spectrum(bad)

    def test_psd_check(self, K):
        root = np.sqrt(K.pi)
        assert psd_check(K) == float(np.linalg.eigvalsh((K.P * root[:, None]) / root[None, :]).min())
        # positivity of a kernel that is not reversible is not what the theorem is about
        with pytest.raises(ValueError, match="broken is not reversible"):
            psd_check(self._broken(K))

    def test_reversibility_check(self, K):
        broken = self._broken(K)
        for kernel in (K, broken):
            flow = kernel.pi[:, None] * kernel.P
            assert reversibility_check(kernel) == float(np.abs(flow - flow.T).max())
        assert reversibility_check(broken) > 1e-6 > reversibility_check(K)

    def test_reversibility_residual(self, K):
        # through products: the broken pair moves 9e-6 of the flow the sine pairs read
        assert reversibility_residual(K) < 1e-15
        assert not Check("reversibility_broken", reversibility_residual(self._broken(K)), 0.0, 1e-8).passed
        bad = DiscreteKernel(P=K.P.copy(), pi=K.pi, label="nan")
        bad.P[515, 512] = np.nan
        assert not Check("reversibility_nan", reversibility_residual(bad), 0.0, 1e-8).passed


class TestBetaNumeric:
    def test_uniform_kind_is_zero(self, t1):
        grid = Grid.for_target(t1, 200)
        for k in (1, 4):
            assert beta_k_numeric_many(t1, grid, KernelKind.UNIFORM, None, [k], m=50)[k] == 0.0

    def test_nonincreasing_in_k(self, t1):
        grid = Grid.for_target(t1, 400)
        vals = beta_k_numeric_many(t1, grid, KernelKind.SO_SH, 3.0, list(range(1, 8)), m=100)
        seq = [vals[k] for k in range(1, 8)]
        assert all(b <= a + 1e-12 for a, b in zip(seq, seq[1:]))

    def test_matches_closed_form(self, t1):
        grid = Grid.for_target(t1, 800)
        vals = beta_k_numeric_many(t1, grid, KernelKind.SO_SH, 3.0, [1, 2], m=200)
        for k in (1, 2):
            assert vals[k] == pytest.approx(beta_k_so_sh_closed_form(t1, 3.0, k), abs=5e-3)

    @pytest.mark.parametrize(
        "name, cells, m", [("twin_triangles", 300, 80), ("twin_triangles", 200, 80), ("gaussian_twins_1d", 260, 80)]
    )
    def test_1d_is_the_exact_node_integral(self, name, cells, m):
        # the level plan's prefix sum against a cell-by-cell sum over nodes with their own level sets; on 200
        # and 260 cells, one side of some two-part nodes holds no cell, so their nu is 0
        target = twin_triangles() if name == "twin_triangles" else gaussian_twins_1d()
        grid = Grid.for_target(target, cells)
        rho = density_on_grid(target, grid)
        act = rho > 0.0
        ks = [1, 2, 5, 10, 20]
        ref = beta_node_integral(target, grid.centers[act, 0], rho[act], m, 3.0, ks)
        vals = beta_k_numeric_many(target, grid, KernelKind.SO_SH, 3.0, ks, m)
        assert max(abs(vals[k] - ref[k]) for k in ks) <= 1e-12

    def test_memory_holds_no_whole_cell_by_level_table(self, t1):
        # the 1D profile is one prefix sum over the level plan's nodes; the bound is a quarter of the cells x m
        # float table (6.1 MiB at 2000 cells and m = 400) that a binned profile would read
        import tracemalloc

        grid = Grid.for_target(t1, 2000)
        tracemalloc.start()
        try:
            beta_k_numeric_many(t1, grid, KernelKind.SO_SH, 3.0, [1, 2, 5, 10, 20], m=400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid.n * 400 * 8 / 4

    def test_2d_is_the_node_integral(self, t2):
        # nu is constant between the strip nodes, which lie among the cell and component densities: the exact
        # integral takes one spectrum per interval of positive width and sums each cell's intervals below it
        grid, ks = Grid.for_target(t2, (12, 12)), [1, 2, 5]
        rho = density_on_grid(t2, grid)
        rho, centers = rho[rho > 0.0], grid.centers[rho > 0.0]
        nodes = np.unique(np.concatenate([rho] + [np.asarray(comp.density(centers)) for comp in t2.components]))
        widths = np.diff(nodes, prepend=0.0)
        nus = np.zeros(nodes.size)
        mids = (nodes - widths / 2)[widths > 0.0]
        nus[widths > 0.0] = [spectrum(K)[0] for K in level_kernels(t2, grid, KernelKind.COMBINED, 3.0, mids)]
        reached = nodes[None, :] <= rho[:, None]
        vals = beta_k_numeric_many(t2, grid, KernelKind.COMBINED, 3.0, ks, m=16, norm_bins=512)
        for k in ks:
            assert abs(vals[k] - np.sqrt(np.max(reached @ (widths * nus ** (2 * k)) / rho))) <= 2e-3

    def test_2d_integrates_its_binned_norms(self, t2):
        # each bin of nu adds the part of it below rho(x), clipped to the bin: the top bin counts in part
        grid, ks, bins = Grid.for_target(t2, (12, 12)), [1, 2, 5], 512
        rho = density_on_grid(t2, grid)
        rho = rho[rho > 0.0]
        step = rho.max() / bins
        levels = (np.arange(bins) + 0.5) * step
        nus = np.array([spectrum(K)[0] for K in level_kernels(t2, grid, KernelKind.COMBINED, 3.0, levels)])
        below = np.clip(rho[:, None] - np.arange(bins) * step, 0.0, step)
        vals = beta_k_numeric_many(t2, grid, KernelKind.COMBINED, 3.0, ks, m=16, norm_bins=bins)
        for k in ks:
            assert abs(vals[k] - np.sqrt(np.max(below @ nus ** (2 * k) / rho))) <= 1e-12


@pytest.fixture(scope="module")
def small_report(t1):
    grid = Grid.for_target(t1, 300)
    return verify_theorem_bounds(t1, grid, KernelKind.SO_SH, 3.0, [1, 2, 5], m=80, norm_bins=256)


class TestVerifiers:
    def test_theorem_bounds_pass(self, small_report):
        assert small_report.all_passed
        assert small_report.gap_h <= small_report.gap_u

    def test_report_csv_roundtrip(self, small_report, t1, tmp_path, monkeypatch):
        from slicegap import cli
        from slicegap.config import ExperimentConfig
        from slicegap.samplers import SamplerConfig, SamplerKind

        monkeypatch.setattr(cli, "_gap_report", lambda cfg: small_report)
        cfg = ExperimentConfig(t1, SamplerConfig(SamplerKind.SO_SH, w=3.0), config_hash="x" * 64)
        assert cli.cmd_gap(cfg, tmp_path) == 0
        lines = (tmp_path / "gap_report.csv").read_text().splitlines()
        assert lines[0] == "# config=xxxxxxxxxxxxxxxx seed=1"
        assert lines[1] == "check,lhs,rhs,margin,pass"
        assert len(lines) == 2 + len(small_report.checks)
        assert "ALL CHECKS PASS" in small_report.summary()

    def test_memory_holds_h_and_one_working_array(self, t1):
        # tracemalloc sees numpy's array buffers; the level plan is cached before either measured run
        import tracemalloc

        grid = Grid.for_target(t1, 500)

        def peak(k_max):
            tracemalloc.start()
            try:
                verify_theorem_bounds(t1, grid, KernelKind.SO_SH, 3.0, [1, 2, 5], m=50, k_max=k_max, norm_bins=128)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        verify_theorem_bounds(t1, grid, KernelKind.SO_SH, 3.0, [1], m=50, norm_bins=128)
        low, high = peak(2), peak(10)
        assert high < 6 * grid.n**2 * 8
        assert high <= 1.1 * low

    def test_2d_report_releases_h_before_the_k_step_set(self, t2):
        # tracemalloc peak, with the strip plans cached, of a report whose k-step set has its own grid:
        # 1844363 bytes as measured here, 2370863 when H (524288 bytes) was held through the k-step set
        import tracemalloc

        grid, kgrid = Grid.for_target(t2, (16, 16)), Grid.for_target(t2, (12, 12))

        def run():
            verify_theorem_bounds(
                t2, grid, KernelKind.COMBINED, 3.0, [1, 2, 5], m=8, k_max=5, tv_n_max=5, norm_bins=64, kstep_grid=kgrid
            )

        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_000_000

    def test_uniform_kind_sandwich_is_tight(self):
        u = uniform_interval(0.0, 1.0)
        grid = Grid(bounds=((0.0, 1.0),), shape=(40,))
        report = verify_theorem_bounds(u, grid, KernelKind.UNIFORM, None, [1, 3], m=20, norm_bins=64)
        assert report.all_passed
        assert report.gap_u == pytest.approx(1.0, abs=1e-10)
        assert report.gap_h == pytest.approx(report.gap_u, abs=1e-10)
        assert all(report.beta[k] == 0.0 for k in (1, 3))

    def test_monotonicity_and_power(self, t1):
        grid = Grid.for_target(t1, 300)
        ksteps = build_k_step_matrices(t1, grid, KernelKind.SO_SH, 3.0, range(1, 7), m=80)
        norms = {k: op_norm_centered(K) for k, K in ksteps.items()}
        mono = verify_monotonicity(norms, 6)
        power = verify_power_bound(norms, 6)
        assert all(c.passed for c in mono)
        assert all(c.passed for c in power)

    def test_monotonicity_constant_for_uniform(self):
        u = uniform_interval(0.0, 1.0)
        grid = Grid(bounds=((0.0, 1.0),), shape=(30,))
        ksteps = build_k_step_matrices(u, grid, KernelKind.UNIFORM, None, range(1, 5), m=10)
        mono = verify_monotonicity({k: op_norm_centered(K) for k, K in ksteps.items()}, 4)
        assert all(abs(c.margin) < 1e-12 for c in mono)

    def test_mt_bound(self, t1):
        grid = Grid.for_target(t1, 300)
        check = verify_mt_bound(t1, grid, spectral_gap(build_full_matrix(t1, grid, KernelKind.UNIFORM, None, m=64)))
        assert check.passed
        # mass 1.8 over height 1 times support length 4
        assert check.lhs == pytest.approx(0.45, abs=5e-3)

    def test_mt_bound_uniform_equality(self):
        u = uniform_interval(0.0, 1.0)
        grid = Grid(bounds=((0.0, 1.0),), shape=(30,))
        check = verify_mt_bound(u, grid, spectral_gap(build_full_matrix(u, grid, KernelKind.UNIFORM, None, m=64)))
        assert check.lhs == pytest.approx(1.0)
        assert check.rhs == pytest.approx(1.0, abs=1e-10)

    def test_tv_bound_from_stationarity_is_zero(self, t1):
        grid = Grid.for_target(t1, 200)
        H = build_full_matrix(t1, grid, KernelKind.SO_SH, 3.0, m=50)
        checks = verify_tv_bound(H, nu=H.pi.copy(), n_max=5)
        assert all(c.lhs < 1e-12 for c in checks)

    def test_tv_bound_point_mass(self, t1):
        grid = Grid.for_target(t1, 300)
        checks = verify_tv_bound(build_full_matrix(t1, grid, KernelKind.SO_SH, 3.0, m=80), n_max=50)
        assert all(c.passed for c in checks)

    def test_tv_bound_is_tight_on_two_state_chain(self):
        # from a point mass the TV distance is 1/2 |2p - 1|^n and the L2 norm is 1: the bound holds with equality
        checks = verify_tv_bound(two_state(0.8), n_max=5)
        assert [c.lhs for c in checks] == pytest.approx([c.rhs for c in checks], rel=1e-12)
        assert checks[0].lhs == pytest.approx(0.3)

    def test_tv_bound_fails_an_overstated_gap(self, monkeypatch):
        # 1 - gap at 3/4 of its value puts each TV distance between the bound and twice the bound
        from slicegap import spectral_oracle as oracle

        K = two_state(0.8)
        monkeypatch.setattr(oracle, "spectral_gap", lambda _: 1.0 - 0.75 * 0.6)
        checks = verify_tv_bound(K, n_max=2)
        assert all(c.rhs < c.lhs <= 2.0 * c.rhs for c in checks)
        assert not any(c.passed for c in checks)

    def test_tv_rank_one_collapses_in_one_step(self):
        u = uniform_interval(0.0, 1.0)
        grid = Grid(bounds=((0.0, 1.0),), shape=(30,))
        checks = verify_tv_bound(build_full_matrix(u, grid, KernelKind.UNIFORM, None, m=10), n_max=3)
        assert checks[0].lhs < 1e-12


class TestVerifierNegativeControls:
    """Hand-built kernels that break an inequality must be reported as failed."""

    @staticmethod
    def _lazy(K: DiscreteKernel, hold: float) -> DiscreteKernel:
        return DiscreteKernel(P=hold * np.eye(K.n) + (1.0 - hold) * K.P, pi=K.pi, label=f"lazy-{hold}")

    @pytest.fixture(scope="class")
    def U(self, t1):
        grid = Grid.for_target(t1, 120)
        return build_full_matrix(t1, grid, KernelKind.UNIFORM, None, m=30)

    def test_lazier_k2_breaks_monotonicity(self, U):
        (check,) = verify_monotonicity({1: op_norm_centered(U), 2: op_norm_centered(self._lazy(U, 0.5))}, 2)
        assert not check.passed

    def test_faster_k2_breaks_power_bound(self, U):
        # norm(H)^2 exceeds the norm of a k=2 kernel that mixes in one step
        rank_one = DiscreteKernel(P=np.tile(U.pi, (U.n, 1)), pi=U.pi)
        checks = verify_power_bound({1: op_norm_centered(self._lazy(U, 0.5)), 2: op_norm_centered(rank_one)}, 2)
        assert [c.passed for c in checks] == [True, False]

    def test_lazy_kernel_breaks_doeblin_bound(self, t1, U):
        grid = Grid.for_target(t1, 120)
        assert verify_mt_bound(t1, grid, spectral_gap(U)).passed
        assert not verify_mt_bound(t1, grid, spectral_gap(self._lazy(U, 0.99))).passed

    def test_swapped_kernels_break_sandwich(self, U):
        gap_u, gap_lazy = spectral_gap(U), spectral_gap(self._lazy(U, 0.5))
        assert all(c.passed for c in verify_sandwich(gap_u, gap_lazy, {1: 1.0}))
        upper, _ = verify_sandwich(gap_lazy, gap_u, {1: 1.0})
        assert not upper.passed
        # beta_1 = 0 would make the lazy kernel as fast as the exact refresh
        _, lower = verify_sandwich(gap_u, gap_lazy, {1: 0.0})
        assert not lower.passed


class TestPsdAndReversibility:
    def test_rank_one_psd(self):
        pi = np.full(4, 0.25)
        K = DiscreteKernel(P=np.tile(pi, (4, 1)), pi=pi)
        assert psd_check(K) >= -1e-14

    def test_so_sh_levels_psd(self, t1):
        grid = Grid.for_target(t1, 300)
        for t in (0.2, 0.5, 0.75):
            assert psd_check(build_level_matrix(t1, grid, t, KernelKind.SO_SH, 3.0)) >= -1e-10

    def test_perturbed_matrix_detected(self):
        K = two_state(0.7)
        P = K.P.copy()
        P[0, 0] += 0.05
        P[0, 1] -= 0.05
        bad = DiscreteKernel(P=P, pi=K.pi)
        assert reversibility_check(bad) > 1e-3

    def test_lazy_shift_breaks_psd(self):
        # mixing toward the antisymmetric two-state chain gives a negative eigenvalue
        K = two_state(0.1)
        assert psd_check(K) < -0.5


def test_grid_refinement_stability(t1):
    gaps = []
    for n in (250, 500, 1000):
        grid = Grid.for_target(t1, n)
        U = build_full_matrix(t1, grid, KernelKind.UNIFORM, None, m=100)
        H = build_full_matrix(t1, grid, KernelKind.SO_SH, 3.0, m=100)
        gaps.append((spectral_gap(U), spectral_gap(H)))
    for comp in (0, 1):
        d1 = abs(gaps[1][comp] - gaps[0][comp])
        d2 = abs(gaps[2][comp] - gaps[1][comp])
        assert d2 <= 2.0 * d1 + 1e-6


def test_check_margin_semantics():
    c = Check("x", lhs=1.0, rhs=0.999, tol=5e-3)
    assert c.passed and c.margin == pytest.approx(-1e-3)
    assert not Check("y", lhs=1.0, rhs=0.9, tol=5e-2).passed
