"""Cross-module verification suite behind the ``verify`` subcommand.

Runs the strongest invariants of every module at desk scale against the
two built-in reference targets and reports one pass/fail line each:
matrix-exact identities, closed-form versus numeric cross-checks,
statistical calibration of the samplers, and the negative-control-ready
norm identity (it consults ``kernels.gamma_t`` at call time).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from . import diagnostics, kernels, samplers, slice_geometry, spectral_oracle as oracle
from .targets import UniformInterval, gaussian_pair, twin_triangles


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _norm_identity_results(target, grid, w, levels, tol) -> SuiteResult:
    worst = 0.0
    for t in levels:
        K = oracle.build_level_matrix(target, grid, t, oracle.KernelKind.SO_SH, w)
        gamma = kernels.gamma_t(slice_geometry.level_set_1d(target, t), w)
        worst = max(worst, abs(oracle.op_norm_centered(K) - (1.0 - gamma)))
    return SuiteResult("so_sh_norm_identity", worst <= tol, f"max |s2 - (1-gamma)| = {worst:.3e}")


def run_verification_suite(seed: int = 20_240_817) -> list[SuiteResult]:
    """Invariant suite over the built-in reference targets."""
    rng = np.random.default_rng(seed)
    results: list[SuiteResult] = []
    t1 = twin_triangles()
    t2 = gaussian_pair()
    w = 3.0

    # matrix-exact identity, consulted through kernels.gamma_t for negative controls
    g_id = oracle.Grid.for_target(t1, 800)
    levels = [(j + 0.5) * 0.8 / 12 for j in range(12)]
    results.append(_norm_identity_results(t1, g_id, w, levels, tol=1e-6))

    # closed-form versus numeric convergence profile
    g_beta = oracle.Grid.for_target(t1, 1600)
    nums, _ = oracle.beta_k_numeric_many(t1, g_beta, oracle.KernelKind.SO_SH, w, [1, 5], m=300, norm_bins=1536)
    worst = max(abs(kernels.beta_k_so_sh_closed_form(t1, w, k) - nums[k]) for k in (1, 5))
    results.append(SuiteResult("beta_closed_vs_numeric", worst <= 2e-3, f"max diff = {worst:.3e}"))

    # assembled kernels: reversibility, sandwich, monotonicity, power, TV, Doeblin bound
    g_full = oracle.Grid.for_target(t1, 600)
    U = oracle.build_full_matrix(t1, g_full, oracle.KernelKind.UNIFORM, None, m=150)
    mats = oracle.build_k_step_matrices(t1, g_full, oracle.KernelKind.SO_SH, w, list(range(1, 6)), m=150)
    H = mats[1]
    resid = max(oracle.reversibility_check(U), oracle.reversibility_check(H))
    results.append(SuiteResult("full_kernel_reversibility", resid < 1e-8, f"max residual = {resid:.3e}"))
    gap_u, gap_h = oracle.spectral_gap(U), oracle.spectral_gap(H)
    betas, _ = oracle.beta_k_numeric_many(t1, g_full, oracle.KernelKind.SO_SH, w, [1, 5], m=150, norm_bins=512)
    sandwich = oracle.verify_sandwich(U, H, betas)
    results.append(SuiteResult("gap_sandwich", all(c.passed for c in sandwich), f"gap_U={gap_u:.4f} gap_H={gap_h:.4f}"))
    mono = oracle.verify_monotonicity(mats, 5)
    powr = oracle.verify_power_bound(mats, 5)
    results.append(SuiteResult("kstep_monotonicity", all(c.passed for c in mono), f"{len(mono)} comparisons"))
    results.append(SuiteResult("kstep_power_bound", all(c.passed for c in powr), f"{len(powr)} comparisons"))
    mt = oracle.verify_mt_bound(t1, g_full, U)
    results.append(SuiteResult("doeblin_gap_bound", mt.passed, f"{mt.lhs:.4f} <= {mt.rhs:.4f}"))
    tv = oracle.verify_tv_bound(H, n_max=30)
    results.append(SuiteResult("tv_decay_bound", all(c.passed for c in tv), f"{len(tv)} steps"))
    psd1 = min(
        oracle.psd_check(oracle.build_level_matrix(t1, g_id, t, oracle.KernelKind.SO_SH, w)) for t in levels
    )
    results.append(SuiteResult("psd_levels_1d", psd1 >= -1e-10, f"min eigenvalue = {psd1:.3e}"))

    # chord kernels on the 2D reference target
    g_2d = oracle.Grid.for_target(t2, (32, 32))
    worst_psd, worst_norm_har, worst_norm_comb, worst_dom = np.inf, -np.inf, -np.inf, np.inf
    for j in range(6):
        t = (j + 0.5) / 6
        for kind in (oracle.KernelKind.HIT_AND_RUN, oracle.KernelKind.COMBINED):
            K = oracle.build_level_matrix(t2, g_2d, t, kind, w)
            worst_psd = min(worst_psd, oracle.psd_check(K))
            norm = oracle.op_norm_centered(K)
            if kind is oracle.KernelKind.HIT_AND_RUN:
                worst_norm_har = max(worst_norm_har, norm - kernels.har_level_norm_bound(t2, t))
                small = (
                    (2.0 / kernels.sphere_surface_area(2))
                    * slice_geometry.vol_level_set(t2, t)
                    / slice_geometry.diam_level_set(t2, t) ** 2
                )
                dom = (K.P - (small * K.pi)[None, :]).min()
                worst_dom = min(worst_dom, dom)
            else:
                worst_norm_comb = max(worst_norm_comb, norm - kernels.combined_norm_bound(t2, t))
    results.append(SuiteResult("psd_levels_2d", worst_psd >= -1e-10, f"min eigenvalue = {worst_psd:.3e}"))
    results.append(SuiteResult("chord_norm_bound", worst_norm_har <= 5e-3, f"worst excess = {worst_norm_har:.3e}"))
    results.append(
        SuiteResult("combined_norm_bound", worst_norm_comb <= 5e-3, f"worst excess = {worst_norm_comb:.3e}")
    )
    results.append(SuiteResult("chord_small_set", worst_dom >= -5e-3, f"worst deficit = {worst_dom:.3e}"))

    # samplers against exact references
    u01 = UniformInterval(0.0, 1.0)
    ys = np.array([samplers.simple_slice_step(u01, np.array([0.3]), rng)[0] for _ in range(20_000)])
    ks_p = float(stats.kstest(ys, "uniform").pvalue)
    results.append(SuiteResult("uniform_slice_ks", ks_p > 0.01, f"p = {ks_p:.3f}"))

    t_lvl, x0 = 0.5, -1.0
    ls = slice_geometry.level_set_1d(t1, t_lvl)
    gamma = kernels.gamma_t(ls, w)
    draws = np.array(
        [samplers.so_sh_level_move(t1, t_lvl, np.array([x0]), rng, w)[0] for _ in range(20_000)]
    )
    left, right = ls.parts.intervals
    counts = np.concatenate(
        [np.histogram(draws, np.linspace(left.lo, left.hi, 13))[0], np.histogram(draws, np.linspace(right.lo, right.hi, 13))[0]]
    )
    widths = np.concatenate([np.diff(np.linspace(left.lo, left.hi, 13)), np.diff(np.linspace(right.lo, right.hi, 13))])
    probs = gamma * widths / ls.length
    probs[:12] += (1.0 - gamma) * widths[:12] / left.length
    probs /= probs.sum()
    chi2 = float((((counts - draws.size * probs) ** 2) / (draws.size * probs)).sum())
    p = float(stats.chi2.sf(chi2, counts.size - 1))
    results.append(SuiteResult("level_kernel_match", p > 0.01, f"chi2 p = {p:.3f}"))

    starts = samplers.sample_stationary(t1, 20_000, rng)
    steps = np.array([samplers.so_sh_step(t1, x, rng, w)[0] for x in starts])
    diag_grid = oracle.Grid.for_target(t1, 40)
    pi_diag = oracle.discretize_target(t1, diag_grid)
    res = diagnostics.chi_square_invariance(diag_grid.locate(steps[:, None]), pi_diag)
    results.append(SuiteResult("invariance_chi2", res.p_value > 0.01, f"p = {res.p_value:.3f}"))
    pairs = np.stack([diag_grid.locate(starts), diag_grid.locate(steps[:, None])], axis=1)
    db = diagnostics.detailed_balance_test(pairs, diag_grid.n)
    results.append(
        SuiteResult("detailed_balance", db.n_exceedances == 0, f"max residual = {db.max_residual:.2f}")
    )

    # test-statistic calibration under the null
    pvals = []
    cal_pi = np.full(30, 1.0 / 30)
    for _ in range(200):
        cells = rng.choice(30, size=5000, p=cal_pi)
        pvals.append(diagnostics.chi_square_invariance(cells, cal_pi).p_value)
    cal_p = float(stats.kstest(pvals, "uniform").pvalue)
    results.append(SuiteResult("chi2_null_calibration", cal_p > 0.01, f"KS p = {cal_p:.3f}"))

    iid = rng.standard_normal(20_000)
    ess = diagnostics.acf_ess(iid).ess
    results.append(SuiteResult("ess_iid", abs(ess / iid.size - 1.0) <= 0.05, f"ess/n = {ess / iid.size:.3f}"))

    return results


def format_suite_table(results: list[SuiteResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = [f"{r.name.ljust(width)}  {'pass' if r.passed else 'FAIL'}  {r.detail}" for r in results]
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return "\n".join(lines)
