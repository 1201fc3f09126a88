"""Sample-based statistics connecting chains to the operator theory.

Invariance and detailed-balance hypothesis tests on binned samples,
autocorrelation with effective sample size, and binned total-variation
distances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVarianceError, InsufficientDataError


@dataclass(frozen=True)
class BinnedHistogram:
    """Counts per cell of some partition, with the sample size."""

    counts: np.ndarray
    n: int

    def __post_init__(self):
        if int(self.counts.sum()) != self.n:
            raise ValueError("histogram counts must sum to the sample size")


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    dof: int
    p_value: float


@dataclass(frozen=True)
class DetailedBalanceResult:
    max_residual: float
    n_exceedances: int
    threshold: float


@dataclass(frozen=True)
class AcfEss:
    acf: np.ndarray
    iact: float
    ess: float


def chi_square_invariance(cells: np.ndarray, pi: np.ndarray) -> ChiSquareResult:
    """Pearson test of binned one-step outputs against the stationary weights.

    Cells whose expected count falls below five are pooled (smallest
    expectations first) before computing the statistic.
    """
    cells = np.asarray(cells, dtype=int)
    n = cells.size
    counts = np.bincount(cells, minlength=pi.size).astype(float)
    expected = pi * n
    order = np.argsort(expected)
    groups: list[tuple[float, float]] = []
    acc_c = acc_e = 0.0
    for idx in order:
        acc_c += counts[idx]
        acc_e += expected[idx]
        if acc_e >= 5.0:
            groups.append((acc_c, acc_e))
            acc_c = acc_e = 0.0
    if acc_e > 0.0:
        if groups:
            last_c, last_e = groups.pop()
            groups.append((last_c + acc_c, last_e + acc_e))
        else:
            groups.append((acc_c, acc_e))
    if len(groups) < 2:
        raise InsufficientDataError("fewer than two cells remain after pooling; increase the sample size")
    arr = np.asarray(groups)
    statistic = float(((arr[:, 0] - arr[:, 1]) ** 2 / arr[:, 1]).sum())
    dof = len(groups) - 1
    from scipy import stats  # imported on use, to keep package start-up cheap

    return ChiSquareResult(statistic=statistic, dof=dof, p_value=float(stats.chi2.sf(statistic, dof)))


def detailed_balance_test(pair_cells: np.ndarray, n_cells: int) -> DetailedBalanceResult:
    """Standardised asymmetry of transition counts over unordered cell pairs.

    For start cells drawn from the stationary law, N(a, b) and N(b, a) are
    exchangeable, so |N(a,b) - N(b,a)| / sqrt(N(a,b) + N(b,a)) behaves like
    a half-normal score; the exceedance count flags systematic asymmetry.
    """
    threshold = 4.0
    pair_cells = np.asarray(pair_cells, dtype=int)
    counts = np.zeros((n_cells, n_cells))
    np.add.at(counts, (pair_cells[:, 0], pair_cells[:, 1]), 1.0)
    diff = np.abs(counts - counts.T)
    tot = counts + counts.T
    iu = np.triu_indices(n_cells, k=1)
    diff, tot = diff[iu], tot[iu]
    mask = tot > 0
    if not mask.any():
        raise InsufficientDataError("no off-diagonal transitions observed")
    resid = diff[mask] / np.sqrt(tot[mask])
    return DetailedBalanceResult(
        max_residual=float(resid.max()),
        n_exceedances=int((resid > threshold).sum()),
        threshold=threshold,
    )


def acf_ess(values: np.ndarray) -> AcfEss:
    """Autocorrelation with initial-positive-sequence truncation and the ESS.

    Adjacent-lag autocorrelation pairs are summed and the sum truncated at
    its first negative term, which is valid for reversible chains; the
    integrated time is clamped at one so the ESS never exceeds the sample
    size.
    """
    x = np.asarray(values, dtype=float).ravel()
    n = x.size
    if n < 4:
        raise InsufficientDataError("need at least four values")
    x = x - x.mean()
    var = float(np.dot(x, x)) / n
    if var <= 0.0:
        raise DegenerateVarianceError("constant series has no autocorrelation")
    max_lag = min(n - 2, 10_000)
    # FFT autocovariance, normalised to acf[0] = 1
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, size)
    acov = np.fft.irfft(f * np.conj(f), size)[: max_lag + 1] / n
    acf = acov / acov[0]
    # adjacent-pair sums acf[2m] + acf[2m+1], truncated at the first negative
    pair_sums = []
    m = 0
    while 2 * m + 1 <= max_lag:
        g = acf[2 * m] + acf[2 * m + 1]
        if g <= 0.0:
            break
        pair_sums.append(g)
        m += 1
    iact = max(1.0, 2.0 * sum(pair_sums) - 1.0)
    ess = n / iact
    return AcfEss(acf=acf, iact=float(iact), ess=float(ess))


def tv_on_grid(hist: BinnedHistogram, pi: np.ndarray) -> float:
    """Total-variation distance between empirical cell frequencies and weights."""
    freq = hist.counts / hist.n
    return 0.5 * float(np.abs(freq - pi).sum())
