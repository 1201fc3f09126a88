import math

import numpy as np
import pytest
from oracles import geyer_ess
from scipy import stats

from slicegap import diagnostics
from slicegap.diagnostics import (
    AcfEss,
    BinnedHistogram,
    acf_ess,
    chi2_sf,
    chi_square_invariance,
    detailed_balance_test,
    ks_sf,
    kstest_uniform,
    tv_on_grid,
)
from slicegap.errors import DegenerateVarianceError, InsufficientDataError


class TestChiSquareInvariance:
    def test_null_calibration(self):
        # under the null, p-values must be uniform across repetitions
        rng = np.random.default_rng(30)
        pi = np.full(30, 1.0 / 30)
        pvals = [
            chi_square_invariance(rng.choice(30, size=5000, p=pi), pi).p_value for _ in range(200)
        ]
        assert stats.kstest(pvals, "uniform").pvalue > 0.01

    def test_rejection_rate_at_alpha(self):
        rng = np.random.default_rng(31)
        pi = np.linspace(1, 4, 25)
        pi = pi / pi.sum()
        rejections = sum(
            chi_square_invariance(rng.choice(25, size=4000, p=pi), pi).p_value < 0.05
            for _ in range(400)
        )
        # binomial(400, 0.05): three sigma is about 13
        assert abs(rejections - 20) <= 14

    def test_detects_bias(self):
        rng = np.random.default_rng(32)
        pi = np.full(20, 0.05)
        skew = np.concatenate([np.full(10, 0.07), np.full(10, 0.03)])
        res = chi_square_invariance(rng.choice(20, size=20_000, p=skew), pi)
        assert res.p_value < 1e-6

    def test_small_expectation_pooling(self):
        rng = np.random.default_rng(33)
        pi = np.array([0.9] + [0.1 / 99] * 99)  # many near-empty cells
        res = chi_square_invariance(rng.choice(100, size=500, p=pi), pi)
        assert res.dof >= 1
        assert 0.0 <= res.p_value <= 1.0

    def test_insufficient_data(self):
        pi = np.full(10, 0.1)
        with pytest.raises(InsufficientDataError):
            chi_square_invariance(np.array([1, 2, 3]), pi)


class TestChi2Sf:
    """The closed-form chi-square tail, with ``scipy.stats.chi2`` as the oracle."""

    def test_matches_scipy(self):
        xs = np.geomspace(1e-3, 3000.0, 150)
        for dof in range(1, 101):
            want = stats.chi2.sf(xs, dof)
            got = np.array([chi2_sf(float(x), dof) for x in xs])
            keep = want > 1e-300
            assert (np.abs(got[keep] - want[keep]) <= 1e-12 * want[keep]).all(), dof

    def test_ends(self):
        assert chi2_sf(0.0, 1) == chi2_sf(0.0, 2) == chi2_sf(-1.0, 7) == 1.0
        assert chi2_sf(1e5, 3) == 0.0

    def test_nan_statistic_gives_nan(self):
        for dof in (1, 2, 7, 30):
            assert math.isnan(chi2_sf(math.nan, dof))

    @pytest.mark.parametrize("dof", [0, -1, 2.5, math.nan])
    def test_bad_dof_raises(self, dof):
        with pytest.raises(ValueError, match="dof"):
            chi2_sf(1.0, dof)


class TestKsSf:
    """The two-sided Kolmogorov-Smirnov tail, with ``scipy.stats.kstwo`` as the oracle."""

    @pytest.mark.parametrize("n", [141, 200, 1000, 5000, 20_000])
    def test_matches_scipy_across_every_branch(self, n, monkeypatch):
        # branch ends: n d = 1, n d^1.5 = 1.4 (Durbin | Pelz-Good), n d^2 = 2.2 (| Smirnov), d = 1/2, n d = n - 1, d = 1
        ends = np.array([1.0 / n, (1.4 / n) ** (2.0 / 3.0), math.sqrt(2.2 / n), 0.5, 1.0 - 1.0 / n, 1.0])
        near_ends = np.outer(ends, [1.0 - 1e-9, 1.0, 1.0 + 1e-9]).ravel()
        ds = np.unique(np.concatenate([np.geomspace(0.5 / n, 1.1, 60), near_ends]))
        used = set()
        for name in ("_smirnov_sf", "_durbin_cdf", "_pelz_good_cdf"):
            fn = getattr(diagnostics, name)
            monkeypatch.setattr(diagnostics, name, lambda d, n, fn=fn, name=name: used.add(name) or fn(d, n))
        got = np.array([ks_sf(float(d), n) for d in ds])
        assert np.abs(got - stats.kstwo.sf(ds, n)).max() <= 1e-10
        assert used == {"_smirnov_sf", "_durbin_cdf", "_pelz_good_cdf"}

    def test_kstest_uniform_matches_scipy(self):
        rng = np.random.default_rng(41)
        for n in (141, 200, 20_000):
            for xs in (rng.random(n), rng.random(n) ** 1.02, rng.random(n) * 0.999):
                assert kstest_uniform(xs) == pytest.approx(stats.kstest(xs, "uniform").pvalue, abs=1e-10)

    def test_nan_gives_nan(self):
        assert math.isnan(ks_sf(math.nan, 200))
        for where in (0, 100, 199):
            xs = np.random.default_rng(42).random(200)
            xs[where] = math.nan
            assert math.isnan(kstest_uniform(xs))

    def test_small_n_raises(self):
        with pytest.raises(ValueError, match="n > 140"):
            ks_sf(0.1, 140)
        with pytest.raises(ValueError, match="n > 140"):
            kstest_uniform(np.random.default_rng(43).random(100))


class TestDetailedBalance:
    def test_symmetric_pairs_pass(self):
        rng = np.random.default_rng(34)
        a = rng.integers(0, 12, size=100_000)
        b = rng.integers(0, 12, size=100_000)
        res = detailed_balance_test(np.stack([a, b], axis=1), 12)
        assert res.n_exceedances == 0

    def test_cyclic_chain_detected(self):
        # three states cycling forward: flows are maximally asymmetric
        rng = np.random.default_rng(35)
        starts = rng.integers(0, 3, size=30_000)
        nxt = np.where(rng.random(30_000) < 0.9, (starts + 1) % 3, starts)
        res = detailed_balance_test(np.stack([starts, nxt], axis=1), 3)
        assert res.n_exceedances > 0
        assert res.max_residual > 10.0

    def test_no_transitions(self):
        with pytest.raises(InsufficientDataError):
            detailed_balance_test(np.array([[0, 0], [1, 1]]), 4)


def _ar1_series(n, phi, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    for i in range(1, n):
        x[i] += phi * x[i - 1]
    return x


def _direct_acf(x, max_lag):
    """Autocorrelation by one dot product per lag, O(n L)."""
    x = x - x.mean()
    acov = np.array([np.dot(x[: x.size - k], x[k:]) for k in range(max_lag + 1)]) / x.size
    return acov / acov[0]


@pytest.fixture(scope="module")
def acf_cases():
    """AR(1) series of 20000 points with phi 0, 0.5, 0.9 and 0.99, and the first axis of a t1 and a t2 chain."""
    from pathlib import Path

    from slicegap.config import load_config
    from slicegap.samplers import run_chain

    cases = {f"ar1-{phi}": _ar1_series(20_000, phi, 41) for phi in (0.0, 0.5, 0.9, 0.99)}
    for name in ("t1_so_sh", "t2_har_so_sh"):
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg")
        cases[name] = run_chain(cfg.target, cfg.sampler, np.asarray(cfg.x0), 20_000, cfg.seed).states[1000:, 0]
    return cases


class TestAcfEss:
    #: the lag cap of ``acf_ess`` on series of more than 10002 points
    MAX_LAG = 10_000

    def test_matches_direct_autocovariance(self, acf_cases):
        # every lag read equals the direct lag sum, and the lags end at the pair that stops the ESS sum
        for name, x in acf_cases.items():
            acf = acf_ess(x).acf
            assert acf.size == geyer_ess(x, self.MAX_LAG)[1] < self.MAX_LAG, name
            assert np.max(np.abs(acf - _direct_acf(x, acf.size - 1))) <= 1e-12, name

    def test_circular_lags_fail_the_direct_comparison(self, acf_cases, monkeypatch):
        # control: lag products around a circle of n points (np.roll) add x[n-k:] x[:k] to lag k
        x, einsum = acf_cases["ar1-0.9"], np.einsum

        def circular(subscripts, head, tail):
            whole = tail.base  # the centered series, which both operands view
            return einsum(subscripts, whole, np.roll(whole, head.size - whole.size))

        monkeypatch.setattr(np, "einsum", circular)
        acf = acf_ess(x).acf
        monkeypatch.undo()
        assert np.max(np.abs(acf - _direct_acf(x, acf.size - 1))) > 1e-12

    def test_ess_matches_geyer_over_the_full_fft(self, acf_cases):
        for name, x in acf_cases.items():
            assert acf_ess(x).ess == pytest.approx(geyer_ess(x, self.MAX_LAG)[0], rel=1e-9, abs=0.0), name

    def test_truncation_one_pair_late_fails(self, acf_cases):
        # control: summing the first non-positive pair too; at phi = 0 both times may clamp at one
        for name, x in acf_cases.items():
            if name != "ar1-0.0":
                assert acf_ess(x).ess != pytest.approx(geyer_ess(x, self.MAX_LAG, late=1)[0], rel=1e-9, abs=0.0), name

    def test_iid_ess_close_to_n(self):
        rng = np.random.default_rng(36)
        x = rng.standard_normal(100_000)
        res = acf_ess(x)
        assert abs(res.ess / x.size - 1.0) <= 0.05

    def test_two_state_integrated_time(self):
        # hold probability p gives lag-one correlation 2p - 1 and
        # integrated time (1 + (2p-1)) / (1 - (2p-1))
        rng = np.random.default_rng(37)
        p = 0.8
        n = 400_000
        flips = rng.random(n) < 1 - p
        states = np.cumsum(flips) % 2
        res = acf_ess(states.astype(float))
        lam = 2 * p - 1
        expected = (1 + lam) / (1 - lam)
        assert res.iact == pytest.approx(expected, rel=0.10)

    def test_constant_series(self):
        with pytest.raises(DegenerateVarianceError):
            acf_ess(np.ones(100))

    def test_ess_never_exceeds_n(self):
        rng = np.random.default_rng(38)
        for _ in range(10):
            x = rng.standard_normal(5000)
            x = x - 0.9 * np.roll(x, 1)  # negatively correlated
            assert acf_ess(x).ess <= x.size

    def test_affine_invariance(self):
        rng = np.random.default_rng(39)
        x = np.cumsum(rng.standard_normal(20_000)) * 0.01 + rng.standard_normal(20_000)
        a = acf_ess(x)
        b = acf_ess(3.0 * x + 7.0)
        assert a.ess == pytest.approx(b.ess, rel=1e-9)
        assert np.allclose(a.acf[:50], b.acf[:50])

    def test_result_type(self):
        res = acf_ess(np.random.default_rng(0).standard_normal(1000))
        assert isinstance(res, AcfEss)
        assert res.acf[0] == pytest.approx(1.0)


class TestTvOnGrid:
    def test_sampling_noise_scale(self):
        rng = np.random.default_rng(40)
        pi = np.full(50, 0.02)
        n = 100_000
        counts = np.bincount(rng.choice(50, size=n, p=pi), minlength=50).astype(float)
        tv = tv_on_grid(BinnedHistogram(counts=counts, n=n), pi)
        assert tv <= 3.0 * 0.5 * np.sum(np.sqrt(pi * (1 - pi) / n))

    def test_point_mass(self):
        pi = np.array([0.5, 0.3, 0.2])
        hist = BinnedHistogram(counts=np.array([7.0, 0.0, 0.0]), n=7)
        assert tv_on_grid(hist, pi) == pytest.approx(1.0 - 0.5)

    def test_histogram_validation(self):
        with pytest.raises(ValueError):
            BinnedHistogram(counts=np.array([1.0, 2.0]), n=5)
