"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library's analytic geometry: membership is
decided by dense scanning of the density, masses by fine Riemann sums,
and volumes by hit-or-miss Monte Carlo.  The one exception is the level
integral kernel, which takes its 1D level sets from ``level_set_1d`` and
checks how ``spectral_oracle`` assembles kernels from them, one node at a
time; in 2D it builds each level matrix strip by strip, with component
regions from their level radii.  ``level_matrix_1d`` builds one 1D level
kernel densely from its own level set, and ``beta_node_integral`` sums
the convergence profile over level nodes cell by cell, both with 1D
level sets from ``level_set_1d``.  ``min_rank_kernel`` gathers a level
plan's matrix through one n x n min-rank index, the reference for the
plan's blocked gather.  ``ArrayLineTarget`` runs the samplers'
single-point evaluations through the array ``density`` instead of the
scalar line densities.

``geyer_ess`` reads Geyer's initial-positive-sequence ESS off the whole
autocovariance of one FFT, the reference for the diagnostics' lag sums.

``level_move`` and ``step_with_level`` bind a sampler's move or transition
per call, the reference that the package's per-chain and per-batch bindings
must reproduce draw for draw.  ``build_level_matrix`` takes one level
kernel from the oracle, and the dense ``psd_check`` and
``reversibility_check`` read a kernel's smallest eigenvalue and its largest
detailed-balance residual off P itself.
"""

from __future__ import annotations

import numpy as np

from slicegap import spectral_oracle as oracle
from slicegap.kernels import gamma_t, mixture_weight
from slicegap.samplers import _MOVES, SamplerConfig, _bind_step
from slicegap.slice_geometry import level_set_1d
from slicegap.spectral_oracle import DiscreteKernel, Grid, KernelKind, level_kernels, spectrum
from slicegap.targets import eval_density


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


def level_matrix_1d(target, grid, t, w=None):
    """Level kernel at ``t`` on the 1D cells whose density is at least t - 1e-12, and those cells' grid indices.

    The parts come from ``level_set_1d`` at t itself: a cell is in the first part when its centre lies
    at most 1e-12 beyond the first interval's end.  With a step width ``w``, a two-part set refreshes
    over the whole set with weight ``gamma_t`` and within the current cell's part otherwise; with None,
    or one part, it refreshes over the whole set.
    """
    idx = np.flatnonzero(np.asarray(target.density(grid.centers), dtype=float) >= t - 1e-12)
    u = np.full(idx.size, 1.0 / idx.size)
    P = np.tile(u, (idx.size, 1))
    ls = level_set_1d(target, t)
    if w is not None and ls.parts.nparts == 2:
        gamma = gamma_t(ls, w)
        in_first = grid.centers[idx, 0] <= ls.parts.intervals[0].hi + 1e-12
        P *= gamma
        for mask in (in_first, ~in_first):
            P[np.ix_(mask, mask)] += (1.0 - gamma) / max(int(mask.sum()), 1)
    return P, idx


def beta_node_integral(target, centers, rho, m, w, ks):
    """beta_k = max over cells x of ((1/rho(x)) sum over nodes up to rho(x) of width_j nu_j^(2k))^(1/2), per ``k``.

    The nodes are the sorted distinct densities ``rho`` of the 1D cells at ``centers``, refined by ``m``
    equal levels up to the top; node j covers the level interval of ``width_j`` below it, and its set
    holds the cells whose density reaches the node.  nu_j is 1 - ``mixture_weight`` of the length and
    gap of ``level_set_1d`` at the interval's midpoint when that set has two parts and both hold a cell,
    a cell lying in the first part when its centre is left of the gap, and 0 otherwise.  Every sum runs
    cell by cell over the nodes in rising order.
    """
    nodes = np.unique(np.concatenate([rho, np.linspace(0.0, rho.max(), m + 1)[1:]]))
    widths = np.diff(nodes, prepend=0.0)
    nus = []
    for top, width in zip(nodes, widths):
        ls = level_set_1d(target, float(top - width / 2))
        first = centers[rho >= top] < ls.parts.intervals[0].hi + ls.delta / 2
        both = ls.parts.nparts == 2 and first.any() and not first.all()
        nus.append(1.0 - mixture_weight(ls.length, ls.delta, w) if both else 0.0)
    betas = {}
    for k in ks:
        worst = 0.0
        for level in rho:
            total = 0.0
            for top, width, nu in zip(nodes, widths, nus):
                if top <= level:
                    total += width * nu ** (2 * k)
            worst = max(worst, total / level)
        betas[k] = float(np.sqrt(worst))
    return betas


def min_rank_kernel(plan, table):
    """A level plan's transition matrix from its full n x n min-rank index into the prefix ``table``.

    Pair (x, y) reads the table at min(rank x, rank y), in the row of their
    shared side when both keep the same side of a gap (row 1 + side), else
    in row 0; the flow is divided by rho(x).
    """
    nodes, side = plan.width.size, plan.side
    index = np.minimum.outer(plan.rank, plan.rank) + np.equal.outer(side, side) * (nodes * (side + 1))
    P = table.ravel()[index]
    P /= plan.rho[:, None]
    return P


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


def _floats(x, dim: int) -> list[float]:
    """A point (array, sequence or scalar) of dimension ``dim`` as a list of Python floats."""
    xs = np.atleast_1d(np.asarray(x, dtype=float)).tolist()
    if len(xs) != dim:
        raise ValueError(f"state {x} does not have the target dimension {dim}")
    return xs


def level_move(target, config: SamplerConfig, t: float, x, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """One level move of ``config.kind`` from ``x`` at level ``t``: the point it accepts and the density there.

    Bound per call with ``config.w`` and ``config.max_loop``; ``config.k_inner``
    belongs to the transition and is not read.
    """
    ys, rho = _MOVES[config.kind](target, rng, config.w, config.max_loop)(t, _floats(x, target.dim))
    return np.array(ys), rho


def step_with_level(
    target, config: SamplerConfig, x: np.ndarray, rng, rho: float | None = None
) -> tuple[np.ndarray, float, float]:
    """One transition: a level draw, then ``config.k_inner`` level moves at that level.

    ``rho`` is the density at ``x`` when the caller already has it.  Returns
    the new state, the level and the density at the new state.
    """
    xs = _floats(x, target.dim)
    if rho is None:
        rho = eval_density(target, x)
    xs, t, rho = _bind_step(target, config, rng)(xs, rho)
    return np.array(xs), t, rho


def build_level_matrix(target, grid: Grid, t: float, kind: KernelKind, w: float | None = None) -> DiscreteKernel:
    """Discretized level kernel at level ``t``: ``level_kernels`` at that one level."""
    return next(level_kernels(target, grid, kind, w, [t]))


def psd_check(K: DiscreteKernel) -> float:
    """Smallest eigenvalue of the similarity transform D^(1/2) P D^(-1/2), from ``spectrum``."""
    return spectrum(K)[1]


def reversibility_check(K: DiscreteKernel) -> float:
    """Largest detailed-balance residual max_ij |pi_i P_ij - pi_j P_ji|."""
    worst = []
    # a block of rows of the flow against the same columns, so no n x n flow or transpose is made
    for start in range(0, K.n, oracle.ROW_BLOCK):
        rows = slice(start, start + oracle.ROW_BLOCK)
        residual = K.pi[rows, None] * K.P[rows]
        residual -= (K.pi[:, None] * K.P[:, rows]).T
        worst.append(np.abs(residual, out=residual).max())
    # np.max, unlike max, keeps a NaN
    return float(np.max(worst, initial=0.0))


def geyer_ess(x, max_lag: int, late: int = 0) -> tuple[float, int]:
    """Geyer's (1992) initial-positive-sequence ESS of a series, and the number of lags that its truncation reads.

    Every lag's autocovariance comes from one FFT of the centered series zero-padded to at least 2n points, a
    circle on which no lag wraps around.  The sums of the lag pairs (2m, 2m + 1) up to ``max_lag`` stop at the
    first non-positive one, which is read but not summed, and ``late`` more pairs are summed past it (a
    negative control).  The integrated time is clamped at one.
    """
    x = np.asarray(x, dtype=float) - np.mean(x)
    size = 1 << (2 * x.size).bit_length()
    f = np.fft.rfft(x, size)
    acov = np.fft.irfft(f * np.conj(f), size)[: x.size]
    pairs = (acov[: 2 * ((max_lag + 1) // 2)] / acov[0]).reshape(-1, 2).sum(axis=1)
    stop = np.flatnonzero(pairs <= 0.0)
    m = int(stop[0]) if stop.size else pairs.size
    iact = max(1.0, 2.0 * pairs[: m + late].sum() - 1.0)
    return x.size / iact, 2 * min(m + 1, pairs.size)
