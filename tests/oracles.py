"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library's analytic geometry: membership is
decided by dense scanning of the density, masses by fine Riemann sums,
and volumes by hit-or-miss Monte Carlo.  The one exception is the level
integral kernel, which takes its 1D level sets from ``level_set_1d`` and
checks how ``spectral_oracle`` assembles kernels from them, one node at a
time; in 2D it builds each level matrix strip by strip, with component
regions from their level radii.  ``ArrayLineTarget`` runs the samplers'
single-point evaluations through the array ``density`` instead of the
scalar line densities.
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


def level_integral_kernels(target, centers, rho, m, w=None, ks=(1,), grid=None):
    """Kernels of rho(x) H_k(x, y) = int_0^rho(x) H_t^k(x, y) dt for every ``k`` of ``ks``, one level node at a time.

    The nodes are the sorted distinct densities ``rho`` of the cells at
    ``centers``, refined by ``m`` equal levels up to the top; with a 2D
    ``grid`` also every component density of those cells.  The level set
    is fixed on the interval below each node and holds the cells whose
    density reaches the node.  In 1D its parts are the centers inside the
    intervals of ``level_set_1d`` at the interval's midpoint.  With a step
    width ``w``, a two-part set refreshes over the whole set with the
    k-step weight 1 - (1 - gamma)^k and over the part of the current cell
    otherwise; with None it always refreshes over the whole set.  With a
    2D ``grid``, the level matrix of ``strip_level_matrix`` at the
    midpoint is raised to the k-th power; without one, a 2D set is
    refreshed whole.
    """
    n = rho.size
    flows = {k: np.zeros((n, n)) for k in ks}
    strips = grid is not None and grid.dim == 2
    nodes = [rho, np.linspace(0.0, rho.max(), m + 1)[1:]]
    if strips:
        nodes += [np.asarray(comp.density(centers)) for comp in target.components]
    below = 0.0
    for top in np.unique(np.concatenate(nodes)):
        if top <= 0.0:
            continue
        rows = rho >= top
        mid = 0.5 * (below + top)
        if strips:
            level = strip_level_matrix(target, grid, centers[rows], mid, w)
            for k in ks:
                flows[k][np.ix_(rows, rows)] += (top - below) * np.linalg.matrix_power(level, k)
        elif centers.shape[1] == 1:
            for k in ks:
                flows[k] += (top - below) * _two_part_refresh(target, centers[:, 0], rows, mid, w, k)
        else:
            for k in ks:
                flows[k] += (top - below) * np.outer(rows, rows) / rows.sum()
        below = top
    return {k: flow / rho[:, None] for k, flow in flows.items()}


def _two_part_refresh(target, x, rows, t, w, k):
    ls = level_set_1d(target, t)
    parts = [(x >= iv.lo - 1e-12) & (x <= iv.hi + 1e-12) for iv in ls.parts.intervals]
    gamma = 1.0
    if w is not None and len(parts) == 2:
        gamma = 1.0 - (1.0 - mixture_weight(ls.length, ls.delta, w)) ** k
    members = np.logical_or.reduce(parts)
    A = gamma * np.outer(rows, members) / members.sum()
    for part in parts if gamma < 1.0 else ():
        A += (1.0 - gamma) * np.outer(rows & part, part) / max(part.sum(), 1)
    return A


def strip_level_matrix(target, grid, points, t, w=None, n_theta=128):
    """Level kernel at ``t`` on the cells centred at ``points``, one strip of one direction at a time.

    For each of ``n_theta`` directions, a strip holds the points whose
    projection across the direction falls into one cell-wide band.  For
    direction ``a`` the band edges lie (0.5 + a g) mod 1 band widths below
    the lowest projection of all centres of ``grid``, g = (sqrt 5 - 1) / 2.
    A point lies in a component's region when it is within the component's
    level radius at ``t``.  With a step width ``w``, a strip whose points
    lie in two regions and none in both refreshes over the strip with the
    weight gamma of its chord extents and within the point's part otherwise;
    any other strip refreshes over the whole strip.
    """
    n = len(points)
    cell = np.array([(hi - lo) / c for (lo, hi), c in zip(grid.bounds, grid.shape)])
    regions = [
        np.linalg.norm(points - np.asarray(comp.mode), axis=1) <= comp.level_radius(t)
        if t <= comp.height
        else np.zeros(n, dtype=bool)
        for comp in target.components
    ]
    A = np.zeros((n, n))
    for a in range(n_theta):
        phi = (a + 0.5) * np.pi / n_theta
        theta = np.array([np.cos(phi), np.sin(phi)])
        perp = np.array([-theta[1], theta[0]])
        shift = (a * (np.sqrt(5.0) - 1.0) / 2.0 + 0.5) % 1.0
        strip = np.floor((points @ perp - (grid.centers @ perp).min()) / (np.abs(perp) @ cell) + shift).astype(int)
        same = np.equal.outer(strip, strip)
        block = same / same.sum(axis=1)[:, None]
        if w is not None and len(regions) == 2:
            in1, in2 = regions
            eta = points @ theta
            half = (np.abs(theta) @ cell) / 2.0
            for s in np.unique(strip):
                cells = strip == s
                if not (in1 & cells).any() or not (in2 & ~in1 & cells).any() or (in1 & in2 & cells).any():
                    continue
                ends = [(eta[cells & p].min() - half, eta[cells & p].max() + half) for p in (in1, ~in1)]
                (lo1, hi1), (lo2, hi2) = ends
                gamma = mixture_weight((hi1 - lo1) + (hi2 - lo2), max(max(lo1, lo2) - min(hi1, hi2), 0.0), w)
                local = np.equal.outer(in1, in1) & np.outer(cells, cells)
                block[cells] *= gamma
                block += (1.0 - gamma) * local / local.sum(axis=1).clip(1)[:, None]
        A += block / n_theta
    return A


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
