"""Reference computations for the benchmark's correctness checks.

Plain numpy and scipy only: nothing here imports ``slicegap``, so a fault in
the package cannot leak into the values its outputs are compared against.
Targets are named by their ``[target] preset`` in the experiment configs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate, linalg

#: level below which the oracle's grid box drops Gaussian tails (``oracle.eps_cut`` default)
EPS_CUT = 1e-4


def twin_density(x) -> np.ndarray:
    """max(1 - |x + 1|, 0.8 (1 - |x - 1|), 0) on points of shape (n,) or (n, 1)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    left = np.maximum(0.0, 1.0 - np.abs(x + 1.0))
    right = 0.8 * np.maximum(0.0, 1.0 - np.abs(x - 1.0))
    return np.maximum(left, right)


def pair_density(x) -> np.ndarray:
    """max(exp(-2 |x|^2), exp(-|x - (1.5, 0)|^2)) on points of shape (n, 2)."""
    x = np.asarray(x, dtype=float).reshape(-1, 2)
    r0 = x[:, 0] ** 2 + x[:, 1] ** 2
    r1 = (x[:, 0] - 1.5) ** 2 + x[:, 1] ** 2
    return np.maximum(np.exp(-2.0 * r0), np.exp(-r1))


def _pair_box() -> list[tuple[float, float]]:
    # each Gaussian h exp(-a r^2) reaches EPS_CUT at radius sqrt(log(h / EPS_CUT) / a)
    r0 = math.sqrt(math.log(1.0 / EPS_CUT) / 2.0)
    r1 = math.sqrt(math.log(1.0 / EPS_CUT) / 1.0)
    return [(min(-r0, 1.5 - r1), max(r0, 1.5 + r1)), (-max(r0, r1), max(r0, r1))]


def _riemann_mass(density, box, cells_per_axis: int) -> float:
    axes = [lo + (hi - lo) * (np.arange(cells_per_axis) + 0.5) / cells_per_axis for lo, hi in box]
    vol = math.prod((hi - lo) / cells_per_axis for lo, hi in box)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    return float(density(pts).sum()) * vol


@dataclass(frozen=True)
class Target:
    name: str
    dim: int
    density: Callable[[np.ndarray], np.ndarray]
    mass: float
    sup: float
    box: tuple[tuple[float, float], ...]

    @property
    def box_volume(self) -> float:
        return math.prod(hi - lo for lo, hi in self.box)


def _targets() -> dict[str, Target]:
    # the two triangles have disjoint supports [-2, 0] and [0, 2] and areas 1 and 0.8
    twin = Target("twin_triangles", 1, twin_density, 1.8, 1.0, ((-2.0, 2.0),))
    # the Gaussian pair's tails beyond +-8 carry less than exp(-36) of its mass
    pair_mass = _riemann_mass(pair_density, [(-8.0, 9.5), (-8.0, 8.0)], 1000)
    pair = Target("gaussian_pair", 2, pair_density, pair_mass, 1.0, tuple(_pair_box()))
    return {t.name: t for t in (twin, pair)}


TARGETS = _targets()


# -- the so_sh level kernel of the twin triangles -------------------------------


def twin_gamma(t, w: float = 3.0):
    """Mixture weight on (0, 0.8): gap 2.25 t, slice length 4 - 4.5 t.

    gamma_t = ((w - 2.25 t) / w) * (4 - 4.5 t) / (4 - 2.25 t).
    """
    t = np.asarray(t, dtype=float)
    return ((w - 2.25 * t) / w) * (4.0 - 4.5 * t) / (4.0 - 2.25 * t)


def twin_beta(k: int, w: float = 3.0) -> float:
    """beta_k = ((1/0.8) int_0^0.8 (1 - gamma_t)^(2k) dt)^(1/2) by adaptive quadrature."""
    val, _ = integrate.quad(lambda t: float(1.0 - twin_gamma(t, w)) ** (2 * k), 0.0, 0.8, epsabs=0.0, epsrel=1e-10)
    return math.sqrt(val / 0.8)


# -- stationary law ---------------------------------------------------------------


def doeblin_bound(target: Target) -> float:
    """Lower bound on the exact-refresh gap: mass / (sup * box volume)."""
    return target.mass / (target.sup * target.box_volume)


def bin_edges(target: Target, bins_per_axis: int) -> list[np.ndarray]:
    return [np.linspace(lo, hi, bins_per_axis + 1) for lo, hi in target.box]


def bin_masses(target: Target, edges: list[np.ndarray], sub: int) -> np.ndarray:
    """Stationary mass of each box bin by a midpoint Riemann sum with ``sub`` points per bin and axis.

    The last entry is the mass outside the box, so the vector sums to one.
    """
    fine = []
    for e in edges:
        h = np.diff(e) / sub
        fine.append((e[:-1, None] + h[:, None] * (np.arange(sub) + 0.5)[None, :]).ravel())
    mesh = np.meshgrid(*fine, indexing="ij")
    vals = target.density(np.stack([m.ravel() for m in mesh], axis=-1)).reshape([f.size for f in fine])
    for axis, e in enumerate(edges):
        n_bins = e.size - 1
        shape = vals.shape[:axis] + (n_bins, sub) + vals.shape[axis + 1 :]
        vals = vals.reshape(shape).sum(axis=axis + 1) * (np.diff(e)[0] / sub)
    inside = vals.ravel() / target.mass
    return np.append(inside, max(0.0, 1.0 - inside.sum()))


def bin_index(points: np.ndarray, edges: list[np.ndarray]) -> np.ndarray:
    """Flat bin of each point in C order over the box bins; points outside get the last index."""
    pts = np.asarray(points, dtype=float).reshape(len(points), -1)
    shape = tuple(e.size - 1 for e in edges)
    idx, outside = [], np.zeros(len(pts), dtype=bool)
    for axis, e in enumerate(edges):
        i = np.searchsorted(e, pts[:, axis], side="right") - 1
        outside |= (i < 0) | (i >= e.size - 1)
        idx.append(np.clip(i, 0, e.size - 2))
    flat = np.ravel_multi_index(idx, shape)
    flat[outside] = math.prod(shape)
    return flat


def discretized_target(target: Target, cells) -> np.ndarray:
    """Density at the cell centres of the oracle grid over ``target.box``, normalised (C order)."""
    axes = [lo + (hi - lo) * (np.arange(c) + 0.5) / c for (lo, hi), c in zip(target.box, cells)]
    mesh = np.meshgrid(*axes, indexing="ij")
    vals = target.density(np.stack([m.ravel() for m in mesh], axis=-1))
    return vals / vals.sum()


def tv(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def tv_allowance(masses: np.ndarray, n_eff: float, false_alarm: float = 1e-4) -> float:
    """Upper bound on the binned TV of ``n_eff`` independent draws, exceeded with probability <= ``false_alarm``.

    E[TV] <= (1/2) sum_j sqrt(p_j (1 - p_j) / n) by Jensen, and TV moves by at
    most 1/n when one draw changes, so McDiarmid's inequality adds
    sqrt(log(1 / false_alarm) / (2 n)).
    """
    p = np.asarray(masses, dtype=float)
    mean_bound = 0.5 * float(np.sqrt(p * (1.0 - p) / n_eff).sum())
    return mean_bound + math.sqrt(math.log(1.0 / false_alarm) / (2.0 * n_eff))


def ess(series: np.ndarray) -> float:
    """Effective sample size by Geyer's initial positive sequence over FFT autocorrelations."""
    x = np.asarray(series, dtype=float).ravel()
    n = x.size
    x = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, size)
    acov = np.fft.irfft(f * np.conj(f), size)[:n] / n
    rho = acov / acov[0]
    pairs = rho[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    stop = np.flatnonzero(pairs <= 0.0)
    pairs = pairs[: stop[0]] if stop.size else pairs
    tau = max(1.0, 2.0 * float(pairs.sum()) - 1.0)
    return n / tau


def min_similarity_eigenvalue(P: np.ndarray, pi: np.ndarray) -> float:
    """Smallest eigenvalue of D^(1/2) P D^(-1/2), D = diag(pi), symmetrised (P is reversible)."""
    root = np.sqrt(pi)
    A = root[:, None] * P / root[None, :]
    return float(linalg.eigh(0.5 * (A + A.T), eigvals_only=True, subset_by_index=[0, 0])[0])
