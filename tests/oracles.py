"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library's analytic geometry: membership is
decided by dense scanning of the density, masses by fine Riemann sums,
and volumes by hit-or-miss Monte Carlo.  The one exception is the level
integral kernel, which takes its 1D level sets from ``level_set_1d`` and
checks how ``spectral_oracle`` assembles kernels from them, one node at a
time.  ``ArrayLineTarget`` runs the samplers' single-point evaluations
through the array ``density`` instead of the scalar line densities.
"""

from __future__ import annotations

import numpy as np

from slicegap.kernels import mixture_weight
from slicegap.slice_geometry import level_set_1d


def scan_intervals_1d(target, t, lo, hi, n=2_000_001):
    """Intervals of {x : density >= t} from a dense membership scan."""
    xs = np.linspace(lo, hi, n)
    mask = np.asarray(target.density(xs)) >= t
    d = np.diff(mask.astype(int))
    starts = xs[1:][d == 1].tolist()
    ends = xs[:-1][d == -1].tolist()
    if mask[0]:
        starts.insert(0, xs[0])
    if mask[-1]:
        ends.append(xs[-1])
    return list(zip(starts, ends))


def scan_line_section(target, t, x, theta, smin, smax, n=1_000_001):
    """Scan of {s : density(x + s*theta) >= t} along one chord."""
    ss = np.linspace(smin, smax, n)
    pts = np.asarray(x)[None, :] + ss[:, None] * np.asarray(theta)[None, :]
    mask = np.asarray(target.density(pts)) >= t
    d = np.diff(mask.astype(int))
    starts = ss[1:][d == 1].tolist()
    ends = ss[:-1][d == -1].tolist()
    if mask[0]:
        starts.insert(0, ss[0])
    if mask[-1]:
        ends.append(ss[-1])
    return list(zip(starts, ends))


def bin_masses_1d(target, edges, sub=400):
    """Stationary mass of each bin by fine midpoint Riemann sums."""
    masses = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        xs = np.linspace(lo, hi, sub + 1)
        mids = 0.5 * (xs[:-1] + xs[1:])
        masses.append(np.asarray(target.density(mids)).sum() * (hi - lo) / sub)
    masses = np.asarray(masses)
    return masses / masses.sum()


def bin_masses_2d(target, xedges, yedges, sub=10):
    """Stationary mass of each 2D bin by sub-sampled midpoint Riemann sums."""
    nx, ny = len(xedges) - 1, len(yedges) - 1
    masses = np.empty((nx, ny))
    for i in range(nx):
        xs = np.linspace(xedges[i], xedges[i + 1], sub + 1)
        xm = 0.5 * (xs[:-1] + xs[1:])
        for j in range(ny):
            ys = np.linspace(yedges[j], yedges[j + 1], sub + 1)
            ym = 0.5 * (ys[:-1] + ys[1:])
            gx, gy = np.meshgrid(xm, ym, indexing="ij")
            pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
            cell_area = (xedges[i + 1] - xedges[i]) * (yedges[j + 1] - yedges[j])
            masses[i, j] = np.asarray(target.density(pts)).mean() * cell_area
    flat = masses.ravel()
    return flat / flat.sum()


def mc_volume(target, t, los, his, n, seed):
    """Hit-or-miss Monte Carlo volume of {density >= t} with standard error."""
    rng = np.random.default_rng(seed)
    los = np.asarray(los, dtype=float)
    his = np.asarray(his, dtype=float)
    pts = los + rng.random((n, los.size)) * (his - los)
    p = float((np.asarray(target.density(pts)) >= t).mean())
    box = float(np.prod(his - los))
    return box * p, box * np.sqrt(max(p * (1 - p), 0.0) / n)


def level_integral_kernel(target, centers, rho, m, w=None, k=1):
    """Kernel of rho(x) H(x, y) = int_0^rho(x) H_t(x, y) dt, one level node at a time.

    The nodes are the sorted distinct densities ``rho`` of the cells at
    ``centers``, refined by ``m`` equal levels up to the top; the level set
    is fixed on the interval below each node.  In 1D its cells, and those
    of each of its parts, are the centers inside the intervals of
    ``level_set_1d`` at the interval's midpoint.  With a step width ``w``,
    a two-part set refreshes over the whole set with the k-step weight
    1 - (1 - gamma)^k and over the part of the current cell otherwise;
    with None it always refreshes over the whole set.  In higher
    dimensions the set holds the cells whose density reaches the node.
    """
    n = rho.size
    flow = np.zeros((n, n))
    below = 0.0
    for top in np.unique(np.concatenate([rho, np.linspace(0.0, rho.max(), m + 1)[1:]])):
        rows = rho >= top
        parts, gamma = [rows], 1.0
        if centers.shape[1] == 1:
            ls = level_set_1d(target, 0.5 * (below + top))
            x = centers[:, 0]
            parts = [(x >= iv.lo - 1e-12) & (x <= iv.hi + 1e-12) for iv in ls.parts.intervals]
            if w is not None and len(parts) == 2:
                gamma = 1.0 - (1.0 - mixture_weight(ls.length, ls.delta_t, w)) ** k
        members = np.logical_or.reduce(parts)
        A = gamma * np.outer(rows, members) / members.sum()
        for part in parts if gamma < 1.0 else ():
            A += (1.0 - gamma) * np.outer(rows & part, part) / max(part.sum(), 1)
        flow += (top - below) * A
        below = top
    return flow / rho[:, None]


class ArrayLineTarget:
    """A target whose line densities call its array ``density`` on one point each.

    Every other attribute is the wrapped target's, so a chain run on the
    adapter is the array-path reference for the same chain on the target.
    """

    def __init__(self, target):
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)

    def line_density(self, x, theta):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        return lambda s: float(self._target.density(x + s * theta))
