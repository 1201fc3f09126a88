"""Theory criteria as functions returning ``Check`` rows, and the ``verify`` suite.

Each criterion that the spectral oracle's ``verify_*`` functions do not
cover is coded once here, with its thresholds: the 1D level probes (the
stepping-out norm identity and PSD level kernels), closed-form against
numeric beta, the law of one stepping-out level move, the 2D strip level
probes, and the null calibration of the chi-square and ESS diagnostics.
Scale comes from the arguments: ``run_verification_suite`` (behind
``slicegap verify``) calls them at desk scale on the built-in reference
targets, with the assembled-kernel rows folded from one
``verify_theorem_bounds`` report, and the acceptance tests call them at
full scale.  The functions reach the oracle, ``kernels``, ``samplers`` and
``diagnostics`` through their modules at call time, so a negative control
can corrupt one of them.
The chi-square and Kolmogorov-Smirnov p-values come from ``diagnostics``
(``chi2_sf``, ``kstest_uniform``), so the suite loads no scipy module.
"""

from __future__ import annotations

import numpy as np

from . import diagnostics, kernels, samplers, slice_geometry, spectral_oracle as oracle
from .spectral_oracle import Check, KernelKind
from .targets import gaussian_pair, twin_triangles, uniform_interval


def level_probes_1d(target, grid, w, levels) -> list[Check]:
    """Stepping-out level kernels on the level plan's sets and sides: norm 1 - gamma_t within 1e-6, PSD within 1e-10."""
    worst, min_eig = 0.0, np.inf
    for t, K in zip(levels, oracle.level_kernels(target, grid, KernelKind.SO_SH, w, levels)):
        norm, low = oracle.spectrum(K)
        gamma = kernels.gamma_t(slice_geometry.level_set_1d(target, t), w)
        worst = max(worst, abs(norm - (1.0 - gamma)))
        min_eig = min(min_eig, low)
    return [Check("so_sh_norm_identity", worst, 0.0, 1e-6), Check("psd_levels_1d", -min_eig, 0.0, 1e-10)]


def beta_closed_vs_numeric(target, grid, w, k_list, m: int) -> list[Check]:
    """Closed-form and numeric beta_k (exact on the level plan's nodes) agree within 2e-3; neither rises with k."""
    ks = sorted(k_list)
    closed = {k: kernels.beta_k_so_sh_closed_form(target, w, k) for k in ks}
    numeric = oracle.beta_k_numeric_many(target, grid, KernelKind.SO_SH, w, ks, m)
    checks = [Check("beta_closed_vs_numeric", max(abs(closed[k] - numeric[k]) for k in ks), 0.0, 2e-3)]
    for label, beta in (("closed", closed), ("numeric", numeric)):
        checks += [Check(f"beta_{label}_k{b}_le_k{a}", beta[b], beta[a], 0.0) for a, b in zip(ks, ks[1:])]
    return checks


def level_move_law(target, t: float, x0: float, w, bins: int, n: int, rng) -> list[Check]:
    """Chi-square p > 0.01 for one batch of n so_sh ``samplers.level_moves`` from ``x0``, ``bins`` bins per part of the mixture."""
    ls = slice_geometry.level_set_1d(target, t)
    gamma = kernels.gamma_t(ls, w)
    config = samplers.SamplerConfig(samplers.SamplerKind.SO_SH, w)
    ys = samplers.level_moves(target, config, t, np.full((n, 1), x0), rng)[0][:, 0]
    edges = [np.linspace(part.lo, part.hi, bins + 1) for part in ls.parts.intervals]
    counts = np.concatenate([np.histogram(ys, e)[0] for e in edges])
    widths = np.concatenate([np.diff(e) for e in edges])
    probs = gamma * widths / ls.length
    local = ls.parts.part_index(x0, slice_geometry.MEMBERSHIP_TOL)
    mine = slice(local * bins, (local + 1) * bins)
    probs[mine] += (1.0 - gamma) * widths[mine] / ls.parts.intervals[local].length
    probs /= probs.sum()
    chi2 = float(((counts - n * probs) ** 2 / (n * probs)).sum())
    return [Check("level_kernel_match", 0.01, diagnostics.chi2_sf(chi2, counts.size - 1), 0.0)]


def strip_level_probes(target, grid, w, levels) -> list[Check]:
    """2D level kernels of both kinds PSD within 1e-10 and under their norm bounds within 5e-3;
    hit-and-run rows above the small-set weight within 5e-3.  One walk per kind over the ascending ``levels``.

    The row names ``chord_norm_bound`` and ``chord_small_set`` predate the strip kernels; they
    stay because the benchmark reads row names as operation names.
    """
    min_eig, excess, deficit = np.inf, {KernelKind.HIT_AND_RUN: -np.inf, KernelKind.COMBINED: -np.inf}, np.inf
    bounds = {KernelKind.HIT_AND_RUN: kernels.har_level_norm_bound, KernelKind.COMBINED: kernels.combined_norm_bound}
    for kind, bound in bounds.items():
        for t, K in zip(levels, oracle.level_kernels(target, grid, kind, w, levels)):
            norm, low = oracle.spectrum(K)
            min_eig = min(min_eig, low)
            excess[kind] = max(excess[kind], norm - bound(target, t))
            if kind is KernelKind.HIT_AND_RUN:
                deficit = min(deficit, float((K.P - kernels.har_small_set_weight(target, t) * K.pi[None, :]).min()))
    return [
        Check("psd_levels_2d", -min_eig, 0.0, 1e-10),
        Check("chord_norm_bound", excess[KernelKind.HIT_AND_RUN], 0.0, 5e-3),
        Check("combined_norm_bound", excess[KernelKind.COMBINED], 0.0, 5e-3),
        Check("chord_small_set", -deficit, 0.0, 5e-3),
    ]


def chi2_null_calibration(cells: int, n: int, replicates: int, rng) -> list[Check]:
    """Chi-square p-values of ``replicates`` (> 140) uniform samples of size n over ``cells`` are uniform: KS p > 0.01."""
    pi = np.full(cells, 1.0 / cells)
    pvals = [diagnostics.chi_square_invariance(rng.choice(cells, size=n, p=pi), pi).p_value for _ in range(replicates)]
    return [Check("chi2_null_calibration", 0.01, diagnostics.kstest_uniform(pvals), 0.0)]


def uniform_slice_ks(ys: np.ndarray) -> list[Check]:
    """Points drawn uniformly on [0, 1] (more than 140 of them) pass a KS test: p > 0.01."""
    return [Check("uniform_slice_ks", 0.01, diagnostics.kstest_uniform(ys), 0.0)]


def ess_iid(series: np.ndarray) -> list[Check]:
    """The ESS of an iid series is its length within 5%."""
    return [Check("ess_iid", abs(diagnostics.acf_ess(series).ess / series.size - 1.0), 0.0, 0.05)]


def _fold(name: str, checks: list[Check]) -> Check:
    """One row for several checks: the one with the least slack, so it passes iff all of them do."""
    worst = min(checks, key=lambda c: c.rhs + c.tol - c.lhs)
    return Check(name, worst.lhs, worst.rhs, worst.tol)


#: seed of ``slicegap verify`` when neither ``--seed`` nor a config gives one
VERIFY_SEED = 20_240_817


def run_verification_suite(seed: int = VERIFY_SEED) -> list[Check]:
    """The criteria at desk scale on the built-in reference targets, one row each."""
    rng = np.random.default_rng(seed)
    t1, t2, w = twin_triangles(), gaussian_pair(), 3.0
    levels_1d = [(j + 0.5) * 0.8 / 12 for j in range(12)]
    identity, psd_1d = level_probes_1d(t1, oracle.Grid.for_target(t1, 800), w, levels_1d)
    beta = beta_closed_vs_numeric(t1, oracle.Grid.for_target(t1, 1600), w, [1, 5], m=300)

    # assembled kernels: one row per family of the report's rows, its psd_H and corollary rows left out
    report = oracle.verify_theorem_bounds(
        t1, oracle.Grid.for_target(t1, 600), KernelKind.SO_SH, w, [1, 5], 150, k_max=5, tv_n_max=30
    )
    rows = [identity, _fold("beta_closed_vs_numeric", beta)]
    for name, family in (
        ("full_kernel_reversibility", "reversibility_"),
        ("gap_sandwich", "sandwich_"),
        ("kstep_monotonicity", "monotone_"),
        ("kstep_power_bound", "power_bound_"),
        ("doeblin_gap_bound", "mt_"),
        ("tv_decay_bound", "tv_decay_"),
    ):
        rows.append(_fold(name, [c for c in report.checks if c.name.startswith(family)]))
    rows.append(psd_1d)
    rows += strip_level_probes(t2, oracle.Grid.for_target(t2, (32, 32)), w, [(j + 0.5) / 6 for j in range(6)])

    # samplers against exact references
    u01 = uniform_interval(0.0, 1.0)
    simple = samplers.SamplerConfig(samplers.SamplerKind.SIMPLE)
    rows += uniform_slice_ks(samplers.transitions(u01, simple, np.full((20_000, 1), 0.3), rng)[0][:, 0])
    rows += level_move_law(t1, 0.5, -1.0, w, bins=12, n=20_000, rng=rng)
    so_sh = samplers.SamplerConfig(samplers.SamplerKind.SO_SH, w)
    starts = samplers.sample_stationary(t1, 20_000, rng)
    steps = samplers.transitions(t1, so_sh, starts, rng)[0][:, 0]
    diag_grid = oracle.Grid.for_target(t1, 40)
    res = diagnostics.chi_square_invariance(diag_grid.locate(steps[:, None]), oracle.discretize_target(t1, diag_grid))
    rows.append(Check("invariance_chi2", 0.01, res.p_value, 0.0))
    pairs = np.stack([diag_grid.locate(starts), diag_grid.locate(steps[:, None])], axis=1)
    db = diagnostics.detailed_balance_test(pairs, diag_grid.n)
    rows.append(Check("detailed_balance", db.max_residual, db.threshold, 0.0))

    # test statistics under the null
    rows += chi2_null_calibration(30, n=5000, replicates=200, rng=rng)
    rows += ess_iid(rng.standard_normal(20_000))
    return rows


def format_suite_table(checks: list[Check]) -> str:
    width = max(len(c.name) for c in checks)
    lines = [
        f"{c.name.ljust(width)}  {'pass' if c.passed else 'FAIL'}  lhs={c.lhs:.4g} rhs={c.rhs:.4g} tol={c.tol:g}"
        for c in checks
    ]
    lines.append(f"{sum(c.passed for c in checks)}/{len(checks)} checks passed")
    return "\n".join(lines)
