"""Sample-based statistics connecting chains to the operator theory.

Invariance and detailed-balance hypothesis tests on binned samples,
autocorrelation with effective sample size, and binned total-variation
distances.
"""

from __future__ import annotations

import math
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
    return ChiSquareResult(statistic=statistic, dof=dof, p_value=chi2_sf(statistic, dof))


def chi2_sf(x: float, dof: int) -> float:
    """P(X > x) for X chi-square with a positive integer ``dof``, in closed form; NaN for a NaN x.

    With y = x/2 the tail is e^-y sum_{i<dof/2} y^i / i! for even dof, and erfc(sqrt y) plus
    e^-y sum_{i=1}^{(dof-1)/2} y^(i-1/2) / Gamma(i + 1/2) for odd dof.  Each term is summed from its
    logarithm, so that e^-y may underflow while the tail does not.
    """
    if not float(dof).is_integer() or dof < 1:
        raise ValueError(f"chi-square dof must be a positive integer, got {dof!r}")
    if x <= 0.0:
        return 1.0
    y, half = 0.5 * x, 0.5 * (dof % 2)
    head = math.erfc(math.sqrt(y)) if half else 0.0
    return head + math.fsum(math.exp(a * math.log(y) - y - math.lgamma(a + 1.0)) for a in np.arange(dof // 2) + half)


def kstest_uniform(sample) -> float:
    """Two-sided Kolmogorov-Smirnov p-value of a sample against the uniform law on [0, 1]; NaN if any point is NaN."""
    x = np.sort(np.clip(np.asarray(sample, dtype=float).ravel(), 0.0, 1.0))
    n = x.size
    i = np.arange(n)
    return ks_sf(float(np.max(np.maximum((i + 1) / n - x, x - i / n))), n)


def ks_sf(d: float, n: int) -> float:
    """P(D_n >= d) for the two-sided Kolmogorov-Smirnov statistic of n > 140 points; NaN for a NaN d.

    The method selection of Simard and L'Ecuyer (2011), as scipy's ``kstwo.sf`` makes it for n > 140:
    1 at n d <= 1 (Ruben and Gambino: the CDF there is at most n!/n^n < 1e-59); twice Smirnov's
    one-sided tail, exact for d >= 1/2, once n d^2 >= 2.2 or d >= 1/2; else one minus the CDF, from
    Durbin's matrix where n d^1.5 <= 1.4 and from the Pelz-Good series elsewhere.  Smaller n would
    need Pomeranz's method, and raises.
    """
    if not float(n).is_integer() or n <= 140:
        raise ValueError(f"the KS tail is implemented for integer n > 140, got {n!r}")
    if math.isnan(d):
        return math.nan
    if n * d <= 1.0:
        return 1.0
    if n * d * d >= 2.2 or d >= 0.5:
        return min(1.0, 2.0 * _smirnov_sf(d, n))
    return 1.0 - (_durbin_cdf(d, n) if n * d**1.5 <= 1.4 else _pelz_good_cdf(d, n))


def _smirnov_sf(d: float, n: int) -> float:
    """P(D+_n >= d) by the exact sum of Birnbaum and Tingey (1951): d sum_j C(n,j) (d + j/n)^(j-1) (1 - d - j/n)^(n-j)."""
    j = np.arange(n)
    j = j[d + j / n < 1.0]  # the other terms are zero
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    log_terms = log_fact[n] - log_fact[j] - log_fact[n - j] + (j - 1) * np.log(d + j / n) + (n - j) * np.log1p(-d - j / n)
    return d * float(np.exp(log_terms).sum())


def _durbin_cdf(d: float, n: int) -> float:
    """P(D_n < d) from Durbin's matrix (1968) after Marsaglia, Tsang and Wang (2003): n!/n^n (H^n)_kk, k = ceil(n d).

    H^n is taken by squaring, with factors of 2^128 moved into a binary exponent as in scipy's ``_kolmogn_DMTW``;
    n!/n^n enters through its logarithm.
    """
    k = math.ceil(n * d)
    h, m, big = k - n * d, 2 * k - 1, 2.0**128
    inv_fact = 1.0 / np.cumprod(np.r_[1.0, np.arange(1.0, m + 1)])  # 1/j! for j = 0..m
    lag = np.subtract.outer(np.arange(m), np.arange(m)) + 1
    H = np.where(lag >= 0, inv_fact[np.clip(lag, 0, m)], 0.0)
    edge = (1.0 - h ** np.arange(1, m + 1)) * inv_fact[1:]
    edge[-1] = (1.0 - 2.0 * h**m + max(0.0, 2.0 * h - 1.0) ** m) * inv_fact[m]
    H[:, 0], H[-1, :] = edge, edge[::-1]
    power, exponent, h_exponent, left = np.eye(m), 0, 0, n
    while left:
        if left % 2:
            power, exponent = power @ H, exponent + h_exponent
        H, h_exponent, left = H @ H, 2 * h_exponent, left // 2
        if H[k - 1, k - 1] > big:
            H, h_exponent = H / big, h_exponent + 128
    return math.exp(math.log(power[k - 1, k - 1]) + exponent * math.log(2.0) + math.lgamma(n + 1.0) - n * math.log(n))


def _pelz_good_cdf(d: float, n: int) -> float:
    """P(D_n < d) by the Pelz-Good (1976) series K0 + K1/sqrt(n) + K2/n + K3/n^1.5 in z = sqrt(n) d."""
    z = math.sqrt(n) * d
    z2, pi2 = z * z, math.pi**2
    ks = np.arange(1.0, math.ceil(16.0 * z / math.pi) + 1)
    m2 = (2.0 * ks - 1.0) ** 2
    coeffs = [  # of 1, m^2, m^4 and m^6 in the sums over odd m = 2k - 1 of K0, ..., K3
        [1.0, 0.0, 0.0, 0.0],
        [-z2, pi2 / 4.0, 0.0, 0.0],
        [6.0 * z**6 + 2.0 * z**4, (2.0 * z**4 - 5.0 * z2) * pi2 / 4.0, pi2**2 * (1.0 - 2.0 * z2) / 16.0, 0.0],
        [
            -30.0 * z**6 - 90.0 * z**8,
            pi2 * (135.0 * z**4 - 96.0 * z**6) / 4.0,
            pi2**2 * (212.0 * z**4 - 60.0 * z2) / 16.0,
            pi2**3 * (5.0 - 30.0 * z2) / 64.0,
        ],
    ]
    q = np.exp(-pi2 * m2 / (8.0 * z2))
    K = np.polynomial.polynomial.polyval(m2, np.array(coeffs).T) @ q / np.array([z, 6.0 * z**4, 72.0 * z**7, 6480.0 * z**10])
    r = ks**2 * np.exp(-pi2 * ks**2 / (2.0 * z2))  # the sums over all k of K2 and K3
    K[2] -= pi2 * r.sum() / (36.0 * z**3)
    K[3] += pi2 * ((3.0 * z2 - pi2 * ks**2) @ r) / (216.0 * z**6)
    return math.sqrt(2.0 * math.pi) * float(K @ float(n) ** (-0.5 * np.arange(4)))


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
    """Autocorrelation with initial-positive-sequence truncation and the ESS (Geyer 1992).

    The lag-k autocovariance of the centered series is the sum of x[:n-k] x[k:], read one adjacent
    pair of lags (2m, 2m+1) at a time.  The pair sums are truncated at their first non-positive term,
    which is valid for reversible chains, or at lag ``min(n - 2, 10000)``, so the cost is O(n tau) for
    a truncation lag tau, and ``acf`` holds lags 0 up to the last lag read.  Each lag is one
    ``einsum`` of the series against its shift: no BLAS call, and no buffer beyond the centered copy.
    The integrated time is clamped at one so the ESS never exceeds the sample size.
    """
    x = np.array(values, dtype=float).ravel()
    n = x.size
    if n < 4:
        raise InsufficientDataError("need at least four values")
    x -= x.mean()

    def lag(k: int) -> float:
        return float(np.einsum("i,i->", x[: n - k], x[k:]))

    acov0 = lag(0)
    if acov0 <= 0.0:
        raise DegenerateVarianceError("constant series has no autocorrelation")
    acf, pair_sums = [1.0], []
    for k in range(1, min(n - 2, 10_000) + 1, 2):  # the pair of lags k - 1 and k
        acf += [lag(j) / acov0 for j in range(len(acf), k + 1)]
        g = acf[k - 1] + acf[k]
        if g <= 0.0:
            break
        pair_sums.append(g)
    iact = max(1.0, 2.0 * sum(pair_sums) - 1.0)
    return AcfEss(acf=np.array(acf), iact=float(iact), ess=float(n / iact))


def tv_on_grid(hist: BinnedHistogram, pi: np.ndarray) -> float:
    """Total-variation distance between empirical cell frequencies and weights."""
    freq = hist.counts / hist.n
    return 0.5 * float(np.abs(freq - pi).sum())
