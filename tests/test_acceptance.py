"""Acceptance suite: every criterion at full scale, one per test.

The criteria are coded once, in ``slicegap.suite`` and in the spectral
oracle's ``verify_*`` functions, which ``slicegap verify`` runs at desk
scale; these tests call the same functions on larger grids, more levels
and more draws.  What is theirs alone: the session fixtures that build the
expensive kernels once, the runtime gates, the quadrature bin masses of
the invariance tests, the replicate chains of criterion 9, and one
``ACCEPTANCE n`` line per test.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see the lines as they complete.
"""

import time

import numpy as np
import pytest

from oracles import bin_masses_1d, bin_masses_2d, reversibility_check
from slicegap.diagnostics import chi_square_invariance, detailed_balance_test
from slicegap.samplers import SamplerConfig, SamplerKind, sample_stationary, stepping_out, transitions
from slicegap.spectral_oracle import (
    DiscreteKernel,
    Grid,
    KernelKind,
    beta_k_numeric_many,
    build_full_matrix,
    build_k_step_matrices,
    op_norm_centered,
    spectral_gap,
    verify_corollary,
    verify_monotonicity,
    verify_mt_bound,
    verify_power_bound,
    verify_sandwich,
    verify_tv_bound,
)
from slicegap.suite import (
    beta_closed_vs_numeric,
    chi2_null_calibration,
    level_move_law,
    level_probes_1d,
    strip_level_probes,
)

W = 3.0
K_LIST_1D = [1, 2, 5, 10, 20]
K_LIST_2D = [1, 2, 5]
PROBE_LEVELS_2D = [(j + 0.5) / 12 for j in range(12)]


def announce(criterion: int, ok: bool, detail: str) -> bool:
    print(f"\nACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def passed(checks) -> bool:
    return all(c.passed for c in checks)


def worst_excess(checks) -> float:
    return max(c.lhs - c.rhs for c in checks)


@pytest.fixture(scope="session")
def t1_bundle(t1):
    start = time.time()
    grid = Grid.for_target(t1, 2000)
    U = build_full_matrix(t1, grid, KernelKind.UNIFORM, W, m=400)
    H = build_full_matrix(t1, grid, KernelKind.SO_SH, W, m=400)
    betas = beta_k_numeric_many(t1, grid, KernelKind.SO_SH, W, K_LIST_1D, m=400)
    mats = build_k_step_matrices(t1, grid, KernelKind.SO_SH, W, K_LIST_1D, m=400)
    for K in (U, H, *mats.values()):  # spectra count towards the core runtime; each is cached on its kernel
        spectral_gap(K)
    elapsed_core = time.time() - start
    mats.update(build_k_step_matrices(t1, grid, KernelKind.SO_SH, W, [3, 4, 6, 7, 8, 9], m=400))
    return {"grid": grid, "U": U, "H": H, "betas": betas, "mats": mats, "elapsed_core": elapsed_core}


@pytest.fixture(scope="session")
def t2_bundle(t2):
    start = time.time()
    grid = Grid.for_target(t2, (40, 40))
    U = build_full_matrix(t2, grid, KernelKind.UNIFORM, W, m=32)
    H = build_full_matrix(t2, grid, KernelKind.COMBINED, W, m=32)
    betas = beta_k_numeric_many(t2, grid, KernelKind.COMBINED, W, K_LIST_2D, m=32, norm_bins=512)
    probes = {c.name: c for c in strip_level_probes(t2, grid, W, PROBE_LEVELS_2D)}
    coarse = Grid.for_target(t2, (24, 24))
    U_c = build_full_matrix(t2, coarse, KernelKind.UNIFORM, W, m=8)
    betas_c = beta_k_numeric_many(t2, coarse, KernelKind.COMBINED, W, K_LIST_2D, m=8, norm_bins=256)
    ksteps_c = build_k_step_matrices(t2, coarse, KernelKind.COMBINED, W, K_LIST_2D, m=8)
    norms_c = {k: op_norm_centered(K) for k, K in ksteps_c.items()}
    corollary = verify_corollary(spectral_gap(U_c), betas_c, norms_c, tol=1e-2)
    return dict(grid=grid, U=U, H=H, betas=betas, probes=probes, corollary=corollary, elapsed=time.time() - start)


def test_criterion_1_gap_sandwich(t1_bundle):
    """Gap sandwich on the 1D reference target with the mixture kernel."""
    b = t1_bundle
    checks = verify_sandwich(spectral_gap(b["U"]), spectral_gap(b["H"]), b["betas"], tol=5e-3)
    assert announce(
        1,
        passed(checks) and b["elapsed_core"] < 120.0,
        f"gap_U={spectral_gap(b['U']):.4f} gap_H={spectral_gap(b['H']):.4f} "
        f"lower-bounds={[round(c.lhs, 4) for c in checks[1:]]} runtime={b['elapsed_core']:.1f}s",
    )


def test_criterion_2_norm_identity(t1, t1_bundle):
    """Centered norm of each mixture level matrix equals one minus gamma; each is symmetric and PSD."""
    checks = level_probes_1d(t1, t1_bundle["grid"], W, [(j + 0.5) * 0.8 / 20 for j in range(20)])
    detail = f"max |s2 - (1 - gamma)| = {checks[0].lhs:.3e}, min eigenvalue = {-checks[1].lhs:.2e} over 20 levels"
    assert announce(2, passed(checks), detail)


def test_criterion_3_beta_closed_vs_numeric(t1, t1_bundle):
    """Closed-form and numeric convergence profiles agree and decrease."""
    checks = beta_closed_vs_numeric(t1, t1_bundle["grid"], W, (1, 2, 5, 10), m=400)
    mono = passed(checks[1:])
    assert announce(3, passed(checks), f"max |closed - numeric| = {checks[0].lhs:.2e}, both non-increasing: {mono}")


def test_criterion_4_procedure_vs_kernel(t1):
    """Empirical stepping-out/shrinkage law at a fixed level matches the mixture."""
    (check,) = level_move_law(t1, 0.5, -1.0, W, bins=25, n=100_000, rng=np.random.default_rng(101))
    assert announce(4, check.passed, f"chi-square p = {check.rhs:.3f} at n = 100000")


def test_criterion_5_hit_and_run_small_set(t2_bundle):
    """Hit-and-run level rows dominate the small-set mixture and obey the norm bound."""
    dom, norm = t2_bundle["probes"]["chord_small_set"], t2_bundle["probes"]["chord_norm_bound"]
    detail = f"worst domination deficit = {-dom.lhs:.3e}, worst norm excess = {norm.lhs:.3e}"
    assert announce(5, dom.passed and norm.passed, detail)


def test_criterion_6_combined_sampler_theory(t2_bundle):
    """Level-kernel positivity, combined norm bound, gap sandwich and k-step corollary on the 2D target."""
    b = t2_bundle
    psd, norm = b["probes"]["psd_levels_2d"], b["probes"]["combined_norm_bound"]
    sandwich = verify_sandwich(spectral_gap(b["U"]), spectral_gap(b["H"]), b["betas"], tol=1e-2)
    checks = [psd, norm, *sandwich, *b["corollary"]]
    assert announce(
        6,
        passed(checks) and b["elapsed"] < 900.0,
        f"min level eigenvalue = {-psd.lhs:.2e}, worst norm excess = {norm.lhs:.3e}, "
        f"gap_U={spectral_gap(b['U']):.4f} gap_H={spectral_gap(b['H']):.4f}, runtime={b['elapsed']:.0f}s",
    )


def test_criterion_7_monotonicity_and_power_bound(t1_bundle):
    """k-step norms decrease in k and dominate the matching one-step power."""
    norms = {k: op_norm_centered(K) for k, K in t1_bundle["mats"].items()}
    mono = verify_monotonicity(norms, 10, tol=1e-6)
    power = verify_power_bound(norms, 10, tol=1e-6)
    assert announce(
        7,
        passed(mono + power),
        f"worst monotonicity violation = {worst_excess(mono):.2e}, worst power violation = {worst_excess(power):.2e}",
    )


def test_criterion_8_doeblin_bound(t1, t2, t1_bundle, t2_bundle):
    """Mass-over-box lower bound on the exact-refresh gap, both targets."""
    bundles = ((t1, t1_bundle), (t2, t2_bundle))
    checks = [verify_mt_bound(t, b["grid"], spectral_gap(b["U"]), tol=1e-3) for t, b in bundles]
    assert announce(8, passed(checks), "; ".join(f"{c.lhs:.4f} <= {c.rhs:.4f}" for c in checks))


def test_criterion_9_tv_convergence(t1, t1_bundle):
    """Iterated and empirical total variation under the geometric bound."""
    H, grid = t1_bundle["H"], t1_bundle["grid"]
    tv = verify_tv_bound(H, n_max=50, tol=1e-8)  # from a point mass on the heaviest cell
    discrete_ok = passed(tv)

    # empirical replicate chains from the same start cell, coarse binning
    rng = np.random.default_rng(103)
    n_rep = 20_000
    xs = np.full(n_rep, float(grid.centers[t1_bundle["U"].support[int(np.argmax(H.pi))], 0]))
    agg = 50  # fine cells per coarse bin
    pi_coarse = H.pi.reshape(-1, agg).sum(axis=1)
    null_tvs = [0.5 * np.abs(rng.multinomial(n_rep, pi_coarse) / n_rep - pi_coarse).sum() for _ in range(500)]
    allowance = float(np.quantile(null_tvs, 0.999))
    empirical_ok, details, step = True, [], 0
    so_sh = SamplerConfig(SamplerKind.SO_SH, W)
    for n in [5, 10, 15, 20]:
        while step < n:
            xs = transitions(t1, so_sh, xs[:, None], rng)[0][:, 0]
            step += 1
        freq = np.bincount(grid.locate(xs[:, None]) // agg, minlength=pi_coarse.size) / n_rep
        tv_emp = 0.5 * float(np.abs(freq - pi_coarse).sum())
        details.append(f"n={n}: {tv_emp:.4f} <= {tv[n - 1].rhs:.4f}+{allowance:.4f}")
        empirical_ok &= tv_emp <= tv[n - 1].rhs + allowance
    announce(9, discrete_ok and empirical_ok, f"discrete worst excess = {worst_excess(tv):.2e}; " + "; ".join(details))
    assert discrete_ok
    assert empirical_ok


def test_criterion_10_reversibility_and_invariance(t1, t2, t1_bundle, t2_bundle):
    """Detailed balance of every assembled kernel plus calibrated empirical tests."""
    mats = t1_bundle["mats"]
    kernels = [t1_bundle["U"], t1_bundle["H"], mats[2], mats[5], t2_bundle["U"], t2_bundle["H"]]
    worst_resid = max(reversibility_check(K) for K in kernels)
    resid_ok = worst_resid < 1e-8

    rng = np.random.default_rng(104)
    starts = sample_stationary(t1, 100_000, rng)
    so_sh, har_so_sh = SamplerConfig(SamplerKind.SO_SH, W), SamplerConfig(SamplerKind.HAR_SO_SH, W)
    steps = transitions(t1, so_sh, starts, rng)[0][:, 0]
    edges = np.linspace(-2.0, 2.0, 41)
    probs = bin_masses_1d(t1, edges)
    p_t1 = chi_square_invariance(np.clip(np.digitize(steps, edges) - 1, 0, 39), probs).p_value

    steps2 = transitions(t2, har_so_sh, sample_stationary(t2, 100_000, rng), rng)[0]
    xedges, yedges = np.linspace(-2.8, 5.2, 16), np.linspace(-3.8, 3.8, 16)
    ix = np.clip(np.digitize(steps2[:, 0], xedges) - 1, 0, 14)
    iy = np.clip(np.digitize(steps2[:, 1], yedges) - 1, 0, 14)
    p_t2 = chi_square_invariance(ix * 15 + iy, bin_masses_2d(t2, xedges, yedges, sub=14)).p_value
    invariance_ok = p_t1 > 0.01 and p_t2 > 0.01

    calibration_ok = passed(chi2_null_calibration(30, n=5000, replicates=200, rng=rng))

    # negative control one: a sampler that skips the shrinkage acceptance test
    def biased_step(x):
        t = float(t1.density(np.array([x]))) * (1.0 - rng.random())
        left, right = stepping_out(lambda s: float(t1.density(np.array([s]))), x, t, W, rng)
        return left + rng.random() * (right - left)  # first proposal, never checked

    biased = np.array([biased_step(float(x[0])) for x in starts[:20_000]])
    p_biased = chi_square_invariance(np.clip(np.digitize(biased, edges) - 1, 0, 39), probs).p_value
    # negative control two: cyclic three-state transitions violate detailed balance
    starts3 = rng.integers(0, 3, size=30_000)
    nxt = np.where(rng.random(30_000) < 0.9, (starts3 + 1) % 3, starts3)
    db = detailed_balance_test(np.stack([starts3, nxt], axis=1), 3)
    # negative control three: perturbing the heaviest row leaves a residual
    H = t1_bundle["H"]
    P = H.P.copy()
    top = int(np.argmax(H.pi))
    P[top] = np.roll(P[top], 5)
    perturbed = DiscreteKernel(P=P, pi=H.pi.copy())
    negative_ok = p_biased < 1e-6 and db.n_exceedances > 0 and reversibility_check(perturbed) > 1e-6

    ok = resid_ok and invariance_ok and calibration_ok and negative_ok
    announce(
        10,
        ok,
        f"max residual = {worst_resid:.2e}; invariance p = ({p_t1:.3f}, {p_t2:.3f}); "
        f"null calibration ok = {calibration_ok}; negative controls ok = {negative_ok}",
    )
    assert resid_ok
    assert invariance_ok
    assert calibration_ok
    assert negative_ok
