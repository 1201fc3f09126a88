"""Brute-force ground truth via discretized Markov operators.

Every kernel is reduced to a finite row-stochastic matrix on a regular
grid.  Level kernels live on the sub-grid of cells whose density clears
the level.  A full kernel is the level integral of the paper,
rho(x) H(x, dy) = int_0^rho(x) H_t(x, dy) dt.  Every 1D kernel and every
uniform kernel takes it from one cached level plan per (target, grid, m):
level nodes shared by all cells, with breakpoints at the sorted cell
densities.  Its flow is one prefix sum over nodes, gathered at the
smaller rank of each pair, so these kernels are stochastic and reversible
by construction, with the discretized target as stationary weights.  The
2D chord kernels still average level kernels with a per-row midpoint rule
and symmetrise the resulting flow.  Operator norms are the largest
absolute eigenvalues of the symmetric stationary-similarity transform,
solved once per kernel.

Each ``verify_*`` function checks inequalities of the gap theory, with an
explicit margin, on kernels it is given.  ``verify_theorem_bounds`` is the
one place that assembles the kernels of a gap report, each once, and runs
every check on them.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, eigsh, svds

from .errors import CoverageError, EmptyLevelSetError, OutOfClassError, UnsupportedShapeError
from .kernels import mixture_weight, sphere_surface_area
from .slice_geometry import level_set_1d

#: boundary tolerance when assigning grid cells to a level set
LEVEL_TOL = 1e-12


class KernelKind(str, Enum):
    UNIFORM = "uniform"
    SO_SH = "so_sh"
    HIT_AND_RUN = "hit_and_run"
    COMBINED = "combined"


@dataclass(eq=False)
class Grid:
    """Regular cell grid covering the support of a target."""

    bounds: tuple[tuple[float, float], ...]
    shape: tuple[int, ...]
    axes: list[np.ndarray] = field(init=False, repr=False)
    centers: np.ndarray = field(init=False, repr=False)
    cell_vol: float = field(init=False)

    def __post_init__(self):
        axes = []
        vol = 1.0
        for (lo, hi), cells in zip(self.bounds, self.shape):
            if hi <= lo or cells < 1:
                raise ValueError("grid bounds must be increasing and cell counts positive")
            h = (hi - lo) / cells
            axes.append(lo + h * (np.arange(cells) + 0.5))
            vol *= h
        self.axes = axes
        if len(axes) == 1:
            self.centers = axes[0][:, None]
        else:
            mesh = np.meshgrid(*axes, indexing="ij")
            self.centers = np.stack([m.ravel() for m in mesh], axis=-1)
        self.cell_vol = vol

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def n(self) -> int:
        return self.centers.shape[0]

    @classmethod
    def for_target(cls, target, shape, eps_cut: float = 1e-4) -> "Grid":
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        if len(shape) != target.dim:
            raise ValueError("one cell count per axis is required")
        return cls(bounds=tuple(target.support_bounds(eps_cut)), shape=shape)

    def locate(self, points) -> np.ndarray:
        """Flat cell index of each point (clipped to the grid)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        idx = []
        for axis, (lo, hi), cells in zip(range(self.dim), self.bounds, self.shape):
            h = (hi - lo) / cells
            idx.append(np.clip(((pts[:, axis] - lo) / h).astype(int), 0, cells - 1))
        return np.ravel_multi_index(idx, self.shape)


@dataclass(eq=False)
class DiscreteKernel:
    """Row-stochastic matrix with its stationary weights.

    ``support`` holds the parent-grid indices when the kernel lives on a
    sub-grid (level kernels); None means the full active grid.
    """

    P: np.ndarray
    pi: np.ndarray
    label: str = ""
    support: np.ndarray | None = None
    _norm: float | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.P.min() < 0.0:
            raise ValueError(f"{self.label or 'kernel'} has a negative entry {self.P.min():.3e}")
        drift = np.abs(self.P.sum(axis=1) - 1.0).max()
        if drift > 1e-9:
            raise ValueError(f"rows of {self.label or 'kernel'} sum to 1 only within {drift:.3e}")
        if np.any(self.pi <= 0.0):
            raise ValueError("stationary weights must be strictly positive")
        self.pi = self.pi / self.pi.sum()

    @property
    def n(self) -> int:
        return self.P.shape[0]


@dataclass(frozen=True)
class Check:
    """One verified inequality: pass iff lhs <= rhs + tol."""

    name: str
    lhs: float
    rhs: float
    tol: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs + self.tol


@dataclass
class GapReport:
    """Gaps, convergence profile and the outcome of every inequality check."""

    gap_u: float
    gap_h: float
    beta: dict[int, float]
    checks: list[Check]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_csv(self, path, comment: str | None = None) -> None:
        with open(path, "w", newline="") as fh:
            if comment:
                fh.write(f"# {comment}\n")
            writer = csv.writer(fh)
            writer.writerow(["check", "lhs", "rhs", "margin", "pass"])
            for c in self.checks:
                writer.writerow([c.name, f"{c.lhs:.17g}", f"{c.rhs:.17g}", f"{c.margin:.17g}", c.passed])

    def summary(self) -> str:
        lines = [
            f"gap(U) = {self.gap_u:.6f}",
            f"gap(H) = {self.gap_h:.6f}",
        ]
        for k in sorted(self.beta):
            lines.append(f"beta_{k} = {self.beta[k]:.6f}")
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"[{status}] {c.name}: lhs={c.lhs:.6g} rhs={c.rhs:.6g} margin={c.margin:.3g}")
        lines.append("result: " + ("ALL CHECKS PASS" if self.all_passed else "CHECK FAILURES PRESENT"))
        return "\n".join(lines)


# -- discretization -----------------------------------------------------------


def density_on_grid(target, grid: Grid) -> np.ndarray:
    return np.asarray(target.density(grid.centers), dtype=float)


def discretize_target(target, grid: Grid) -> np.ndarray:
    """Stationary weights proportional to density times cell volume."""
    vals = density_on_grid(target, grid)
    mass = float(vals.sum()) * grid.cell_vol
    if mass <= 0.0:
        raise CoverageError("grid cells carry no density mass; grid misses the support")
    return vals * grid.cell_vol / mass


def _active_cells(vals: np.ndarray) -> np.ndarray:
    idx = np.flatnonzero(vals > 0.0)
    if idx.size == 0:
        raise CoverageError("no grid cell has positive density")
    return idx


# -- level plan: nodes shared by every cell -----------------------------------


@dataclass(eq=False)
class _LevelPlan:
    """Level nodes shared by every active cell of a grid.

    The nodes are the sorted distinct active densities, refined by ``m``
    equal levels up to the top density; a cell's rank is the node of its
    own density.  Node ``j`` stands for the level interval of ``width[j]``
    just below it, on which the level set is fixed: the ``count[j]`` cells
    of rank at least ``j``.  For level kernels A_j reversible with respect
    to the uniform law on their set, the flow

        rho(x) H(x, y) = sum over nodes j <= min(rank x, rank y) of width_j A_j(x, y)

    is symmetric and its rows sum to rho(x), so each kernel is one prefix
    sum over nodes gathered through ``index``, the min-rank matrix.

    In 1D, ``length`` and ``gap`` are the level-set geometry at each
    interval's midpoint, and a two-part node adds a refresh within the part
    of the current cell.  The gaps are nested, so a cell lies on one side
    of every gap below its density.  ``side_count`` holds the cells per
    side and node, and ``index`` points each same-side pair at row 1 (left)
    or 2 (right) of a (3, nodes) table, whose rows add that side's local
    prefix sum to row 0.
    """

    rho: np.ndarray
    support: np.ndarray
    width: np.ndarray
    count: np.ndarray
    index: np.ndarray
    length: np.ndarray | None = None
    gap: np.ndarray | None = None
    side_count: np.ndarray | None = None

    def kernel(self, kind: KernelKind, w, k: int) -> np.ndarray:
        """Transition matrix of ``kind`` taking ``k`` inner steps per level."""
        table = np.empty((3, self.width.size))
        if kind in (KernelKind.UNIFORM, KernelKind.HIT_AND_RUN):
            table[:] = np.cumsum(self.width / self.count)
        else:
            gamma_k = 1.0 - (1.0 - mixture_weight(self.length, self.gap, w)) ** k
            table[:] = np.cumsum(self.width * gamma_k / self.count)
            table[1:] += np.cumsum(self.width * (1.0 - gamma_k) / np.maximum(self.side_count, 1), axis=1)
        P = table.ravel().take(self.index)
        P /= self.rho[:, None]
        return P


@functools.lru_cache(maxsize=2)
def _level_plan(target, grid: Grid, m: int) -> _LevelPlan:
    vals = density_on_grid(target, grid)
    act = _active_cells(vals)
    rho = vals[act]
    levels, rank = np.unique(np.concatenate([rho, np.linspace(0.0, rho.max(), m + 1)[1:]]), return_inverse=True)
    nodes = levels.size
    # indices into a (3, nodes) table take 2 bytes each up to 21845 nodes
    rank = rank[: rho.size].astype(np.min_scalar_type(3 * nodes))
    width = np.diff(levels, prepend=0.0)
    plan = _LevelPlan(rho, act, width, _count_from(rank, nodes), np.minimum.outer(rank, rank))
    if grid.dim == 1:
        _add_sides(plan, target, grid.centers[act, 0], rank, levels - width / 2)
    return plan


def _count_from(rank: np.ndarray, nodes: int) -> np.ndarray:
    """Cells taking part in each node: those whose rank is at least the node's."""
    return np.cumsum(np.bincount(rank, minlength=nodes)[::-1])[::-1]


def _add_sides(plan: _LevelPlan, target, centers: np.ndarray, rank: np.ndarray, mids: np.ndarray) -> None:
    """Level-set geometry per node and the side of the gap each cell keeps."""
    sets = [level_set_1d(target, float(t)) for t in mids]
    plan.length = np.array([ls.length for ls in sets])
    plan.gap = np.array([ls.delta_t for ls in sets])
    two = np.flatnonzero([ls.parts.nparts == 2 for ls in sets])
    nodes = mids.size
    plan.side_count = np.zeros((2, nodes), dtype=np.int64)
    if two.size == 0:
        return
    # every cell in a two-part node's set also takes part in the lowest one
    side = np.full(centers.size, -1)
    taking_part = rank >= two[0]
    side[taking_part] = centers[taking_part] > sets[two[0]].parts.intervals[0].hi
    edges = (
        np.array([sets[j].parts.intervals[0].hi for j in two]),
        -np.array([sets[j].parts.intervals[1].lo for j in two]),
    )
    for s, edge in enumerate(edges):
        mine = side == s
        # the cell of each side nearest the gap, among those taking part in each node
        reach = np.full(nodes, -np.inf)
        np.maximum.at(reach, rank[mine], (1 - 2 * s) * centers[mine])
        reach = np.maximum.accumulate(reach[::-1])[::-1]
        if np.any(reach[two] > edge + LEVEL_TOL):
            raise OutOfClassError("a grid cell changes side of the level-set gap; the gaps are not nested")
        plan.side_count[s] = _count_from(rank[mine], nodes)
    plan.index += np.equal.outer(side, side) * (nodes * (side + 1)).astype(plan.index.dtype)


# -- pairwise chord geometry in dimension >= 2 --------------------------------


def _ball_components(target) -> list[tuple[np.ndarray, object, float]]:
    """(center, radius-at-level callable, height) per convex component."""
    comps = getattr(target, "components", None)
    if comps is not None:
        return [(np.asarray(c.mode), c.level_radius, c.height) for c in comps]
    center = np.asarray(target.center)
    radius = target.radius
    return [(center, lambda t: radius, target.sup_norm)]


@dataclass(eq=False)
class _PairGeometry:
    """Precomputed chord coordinates for every ordered pair of points.

    For the pair (i, j) the chord through point i toward point j carries,
    per component, the coordinate of the mode's foot point and the squared
    distance from the chord line to the mode.  Level sections then follow
    from the component radii alone.
    """

    dist: np.ndarray
    comp_s: list[np.ndarray]
    comp_h2: list[np.ndarray]

    @classmethod
    def build(cls, points: np.ndarray, target) -> "_PairGeometry":
        diff = points[None, :, :] - points[:, None, :]
        dist = np.linalg.norm(diff, axis=-1)
        np.fill_diagonal(dist, np.inf)
        theta = diff / dist[..., None]
        comp_s, comp_h2 = [], []
        for center, _, _ in _ball_components(target):
            v = center[None, :] - points
            s = np.einsum("ijk,ik->ij", theta, v)
            h2 = np.maximum(np.einsum("ik,ik->i", v, v)[:, None] - s**2, 0.0)
            comp_s.append(s)
            comp_h2.append(h2)
        return cls(dist=dist, comp_s=comp_s, comp_h2=comp_h2)


def _chord_density_block(pg: _PairGeometry, target, t: float, rows, cols, kind: KernelKind, w) -> np.ndarray:
    """Pointwise kernel density for a block of (row, col) pairs.

    The diagonal (zero-distance pairs) comes out as zero; the caller adds
    the stay atom so rows integrate to one.
    """
    take = np.ix_(rows, cols)
    dist = pg.dist[take]
    d = target.dim
    comps = _ball_components(target)
    los, his, actives = [], [], []
    for c, (_, radius_at, height) in enumerate(comps):
        if t <= height:
            r2 = radius_at(t) ** 2
            h2 = pg.comp_h2[c][take]
            inside = h2 < r2
            half = np.sqrt(np.maximum(r2 - h2, 0.0))
            s = pg.comp_s[c][take]
            los.append(np.where(inside, s - half, np.nan))
            his.append(np.where(inside, s + half, np.nan))
            actives.append(inside)
        else:
            shape = dist.shape
            los.append(np.full(shape, np.nan))
            his.append(np.full(shape, np.nan))
            actives.append(np.zeros(shape, dtype=bool))
    if len(comps) == 1:
        length = np.where(actives[0], his[0] - los[0], 0.0)
        delta = np.zeros_like(length)
        same = np.ones_like(length, dtype=bool)
        local_len = length
    else:
        a1, a2 = actives
        lo1, lo2 = los
        hi1, hi2 = his
        both = a1 & a2
        gap = np.where(both, np.maximum(lo1, lo2) - np.minimum(hi1, hi2), 0.0)
        disjoint = both & (gap > LEVEL_TOL)
        len1 = np.where(a1, hi1 - lo1, 0.0)
        len2 = np.where(a2, hi2 - lo2, 0.0)
        overlap = np.where(both & ~disjoint, np.minimum(hi1, hi2) - np.maximum(lo1, lo2), 0.0)
        length = len1 + len2 - np.maximum(overlap, 0.0)
        delta = np.where(disjoint, gap, 0.0)
        # part of the origin point (chord coordinate 0) and of the target point (coordinate dist)
        tol = 1e-9
        x_in1 = a1 & (lo1 <= tol) & (hi1 >= -tol)
        y_in1 = a1 & (lo1 <= dist + tol) & (hi1 >= dist - tol)
        y_in2 = a2 & (lo2 <= dist + tol) & (hi2 >= dist - tol)
        same = np.where(disjoint, np.where(x_in1, y_in1, y_in2), True)
        local_len = np.where(disjoint, np.where(x_in1, len1, len2), length)
    sigma = sphere_surface_area(d)
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind is KernelKind.HIT_AND_RUN:
            dens = (2.0 / sigma) / (dist ** (d - 1) * length)
        else:
            gamma = mixture_weight(length, delta, w)
            dens = (2.0 / sigma) * dist ** (1 - d) * (
                gamma / length + (1.0 - gamma) * same / np.where(local_len > 0, local_len, np.inf)
            )
    dens = np.where(np.isfinite(dens) & (length > 0), dens, 0.0)
    return dens


@functools.lru_cache(maxsize=8)
def _pair_geometry(target, grid: Grid) -> _PairGeometry:
    return _PairGeometry.build(grid.centers, target)


def _slice_indices(vals: np.ndarray, t: float) -> np.ndarray:
    return np.flatnonzero(vals >= t - LEVEL_TOL)


def _density_level_rows(
    pg: _PairGeometry, target, grid: Grid, t: float, rows, cols, kind: KernelKind, w
) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalised density rows plus the per-row stay atom.

    Cell-centre quadrature can overshoot mass one near level-set boundaries;
    such rows are scaled back so each row is a probability vector.
    """
    dens = _chord_density_block(pg, target, t, rows, cols, kind, w) * grid.cell_vol
    totals = dens.sum(axis=1)
    if totals.max() > 1.25:
        raise ValueError(f"chord quadrature mass {totals.max():.3f} at level {t}; grid far too coarse")
    over = totals > 1.0
    if np.any(over):
        dens[over] *= ((1.0 - 1e-12) / totals[over])[:, None]
        totals = dens.sum(axis=1)
    return dens, 1.0 - totals


def _strip_level_matrix(target, grid: Grid, t: float, idx: np.ndarray, kind: KernelKind, w, n_theta: int = 128):
    """Level kernel as a direction-quantised mixture of strip projections.

    For each of ``n_theta`` chord directions the slice cells are grouped
    into strips one projected cell wide; the kernel averages, per strip,
    the uniform refresh over the strip (weight gamma) and over the part of
    the current point (weight 1 - gamma).  Being a nonnegative mixture of
    orthogonal projections, the matrix is reversible and positive
    semi-definite to machine precision.
    """
    pts = grid.centers[idx]
    n_s = idx.size
    comps = _ball_components(target)
    memberships = []
    for center, radius_at, height in comps:
        if t <= height:
            r = radius_at(t)
            memberships.append(np.linalg.norm(pts - center, axis=1) <= r + 1e-12)
        else:
            memberships.append(np.zeros(n_s, dtype=bool))
    hx = (grid.bounds[0][1] - grid.bounds[0][0]) / grid.shape[0]
    hy = (grid.bounds[1][1] - grid.bounds[1][0]) / grid.shape[1]
    P = np.zeros((n_s, n_s))
    weight = 1.0 / n_theta
    for a in range(n_theta):
        phi = (a + 0.5) * math.pi / n_theta
        theta = np.array([math.cos(phi), math.sin(phi)])
        perp = np.array([-theta[1], theta[0]])
        xi = pts @ perp
        eta = pts @ theta
        strip_w = hx * abs(perp[0]) + hy * abs(perp[1])
        eta_w = hx * abs(theta[0]) + hy * abs(theta[1])
        sid = np.floor((xi - xi.min()) / strip_w).astype(int)
        order = np.argsort(sid, kind="stable")
        bounds_ = np.flatnonzero(np.diff(sid[order])) + 1
        for cells in np.split(order, bounds_):
            _add_strip_blocks(P, cells, eta, eta_w, memberships, kind, w, weight)
    return P


def _add_strip_blocks(P, cells, eta, eta_w, memberships, kind, w, weight):
    n_c = cells.size
    in1 = memberships[0][cells]
    in2 = memberships[1][cells] if len(memberships) == 2 else np.zeros(n_c, dtype=bool)
    two_parts = in1.any() and (in2 & ~in1).any() and not (in1 & in2).any()
    if kind is KernelKind.HIT_AND_RUN or not two_parts:
        P[np.ix_(cells, cells)] += weight / n_c
        return
    part1 = cells[in1]
    part2 = cells[~in1]
    # chord geometry from the projected cell footprints along the direction
    lo1, hi1 = eta[part1].min() - eta_w / 2, eta[part1].max() + eta_w / 2
    lo2, hi2 = eta[part2].min() - eta_w / 2, eta[part2].max() + eta_w / 2
    gamma = mixture_weight((hi1 - lo1) + (hi2 - lo2), max(max(lo1, lo2) - min(hi1, hi2), 0.0), w)
    P[np.ix_(cells, cells)] += weight * gamma / n_c
    P[np.ix_(part1, part1)] += weight * (1.0 - gamma) / part1.size
    P[np.ix_(part2, part2)] += weight * (1.0 - gamma) / part2.size


# -- kernel builders -----------------------------------------------------------


def build_level_matrix(target, grid: Grid, t: float, kind: KernelKind, w: float | None = None) -> DiscreteKernel:
    """Discretized per-level kernel on the sub-grid of cells clearing level ``t``."""
    if grid.dim >= 3 and kind is not KernelKind.UNIFORM:
        raise UnsupportedShapeError(
            f"{kind.value} level matrices are built from planar strips; a {grid.dim}D grid supports only the uniform kind"
        )
    vals = density_on_grid(target, grid)
    if t > vals.max() + LEVEL_TOL:
        raise EmptyLevelSetError(f"no grid cell clears level {t}")
    idx = _slice_indices(vals, t)
    n_s = idx.size
    u = np.full(n_s, 1.0 / n_s)
    label = f"{kind.value}-level-{t:.6g}"
    if kind is KernelKind.UNIFORM or (grid.dim == 1 and kind is KernelKind.HIT_AND_RUN):
        P = np.tile(u, (n_s, 1))
        return DiscreteKernel(P=P, pi=u, label=label, support=idx)
    if grid.dim == 1:
        ls = level_set_1d(target, t)
        if ls.parts.nparts == 1:
            P = np.tile(u, (n_s, 1))
            return DiscreteKernel(P=P, pi=u, label=label, support=idx)
        gamma = mixture_weight(ls.length, ls.delta_t, w)
        centers = grid.centers[idx, 0]
        first = ls.parts.intervals[0]
        in_first = centers <= first.hi + LEVEL_TOL
        P = np.tile(gamma * u, (n_s, 1))
        for mask in (in_first, ~in_first):
            cnt = int(mask.sum())
            if cnt:
                P[np.ix_(mask, mask)] += (1.0 - gamma) / cnt
        return DiscreteKernel(P=P, pi=u, label=label, support=idx)
    P = _strip_level_matrix(target, grid, t, idx, kind, w)
    return DiscreteKernel(P=P, pi=u, label=label, support=idx)


def _flow_symmetrize(P: np.ndarray, pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Make the kernel exactly reversible by symmetrising its stationary flow.

    The symmetrised flow F = (diag(pi) P + P^T diag(pi)) / 2 defines a
    reversible kernel P' = F / rowsum(F) with stationary weights
    proportional to the row sums; those differ from ``pi`` only by the
    quadrature asymmetry being projected out.
    """
    flow = pi[:, None] * P
    flow = 0.5 * (flow + flow.T)
    r = flow.sum(axis=1)
    if np.abs(r / pi - 1.0).max() > 0.55:
        raise ValueError("flow symmetrization moved too much mass; quadrature inconsistent")
    flow /= r[:, None]
    return flow, r / r.sum()


def build_full_matrix(target, grid: Grid, kind: KernelKind, w: float | None = None, m: int = 64) -> DiscreteKernel:
    """Full transition matrix: the level integral of level kernels."""
    return _build_power_matrix(target, grid, kind, w, (1,), m)[1]


def build_k_step_matrices(
    target, grid: Grid, kind: KernelKind, w: float | None, k_list, m: int = 64
) -> dict[int, DiscreteKernel]:
    """One pass over levels shared by several ``k`` values."""
    return _build_power_matrix(target, grid, kind, w, tuple(k_list), m)


def _build_power_matrix(target, grid, kind, w, k_list, m) -> dict[int, DiscreteKernel]:
    if m < 1 or min(k_list) < 1:
        raise ValueError("m and every k must be at least 1")
    k_list = tuple(sorted(set(k_list)))
    if grid.dim == 1 or kind is KernelKind.UNIFORM:
        plan = _level_plan(target, grid, m)
        pi = plan.rho / plan.rho.sum()
        return {
            k: DiscreteKernel(P=plan.kernel(kind, w, k), pi=pi, label=f"{kind.value}-k{k}-m{m}", support=plan.support)
            for k in k_list
        }
    vals = density_on_grid(target, grid)
    act = _active_cells(vals)
    if act.size != grid.n:
        raise CoverageError("chord kernels require strictly positive density on the whole grid")
    rho = vals[act]
    n = act.size
    pg = _pair_geometry(target, grid)
    order = np.argsort(-rho, kind="stable")
    rho_desc = rho[order]
    kmax = max(k_list)
    mats = {k: np.zeros((n, n)) for k in k_list}
    row_arr = np.empty(1, dtype=int)
    for i in range(n):
        row_arr[0] = i
        for j in range(m):
            t = (j + 0.5) * rho[i] / m
            count = int(np.searchsorted(-rho_desc, -(t - LEVEL_TOL), side="right"))
            cols = order[:count]
            if kmax == 1:
                dens, atom = _density_level_rows(pg, target, grid, t, row_arr, cols, kind, w)
                mats[1][i, cols] += dens[0] / m
                mats[1][i, i] += atom[0] / m
                continue
            A, atoms = _density_level_rows(pg, target, grid, t, cols, cols, kind, w)
            A[np.diag_indices_from(A)] += atoms
            pos = int(np.nonzero(cols == i)[0][0])
            r = A[pos]
            step = 1
            for k in k_list:
                while step < k:
                    r = r @ A
                    step += 1
                mats[k][i, cols] += r / m
    result: dict[int, DiscreteKernel] = {}
    for k in k_list:
        P = mats.pop(k)
        drift = np.abs(P.sum(axis=1) - 1.0).max()
        if drift > 1e-9:
            raise ValueError(f"assembled rows sum to 1 only within {drift:.3e}")
        # per-row level quadrature leaves a detailed-balance residual;
        # project it out so the assembled kernel is exactly reversible
        P, pi_k = _flow_symmetrize(P, rho / rho.sum())
        result[k] = DiscreteKernel(P=P, pi=pi_k, label=f"{kind.value}-k{k}-m{m}", support=act)
    return result


# -- norms and spectra ---------------------------------------------------------


def _centered_similarity(K: DiscreteKernel) -> np.ndarray:
    root = np.sqrt(K.pi)
    return (root[:, None] * (K.P - K.pi[None, :])) / root[None, :]


def op_norm_centered(K: DiscreteKernel) -> float:
    """Operator norm of the kernel minus its stationary projection on L2(pi).

    For a reversible kernel the similarity transform D^(1/2) (P - 1 pi^T)
    D^(-1/2) is symmetric and its norm is its largest eigenvalue in
    absolute value.  Solved once per kernel and cached on it; a transform
    that is not symmetric within 1e-8 raises ValueError.
    """
    if K._norm is None:
        C = _centered_similarity(K)
        # row blocks keep the check from allocating a second n x n array
        for start in range(0, K.n, 256):
            rows = slice(start, start + 256)
            asym = float(np.abs(C[rows] - C[:, rows].T).max())
            if asym > 1e-8:
                raise ValueError(f"{K.label or 'kernel'} is not reversible: similarity asymmetry {asym:.3e}")
        K._norm = _largest_eigenvalue(C, dense_max=800)
    return K._norm


def _largest_eigenvalue(C: np.ndarray, dense_max: int) -> float:
    """Largest absolute eigenvalue of a symmetric matrix.

    Dense up to ``dense_max`` rows, ARPACK above (dense again if it fails).
    """
    n = C.shape[0]
    if n > dense_max:
        try:
            eigs = eigsh(C, k=1, v0=_krylov_start(n), maxiter=5000, tol=0, return_eigenvectors=False)
            return float(np.abs(eigs).max())
        except ArpackNoConvergence:
            pass
    return float(np.abs(np.linalg.eigvalsh(C)).max())


def _largest_singular_value(C: np.ndarray, dense_max: int) -> float:
    """Dense SVD up to ``dense_max`` rows, ARPACK above (dense again if it fails)."""
    n = C.shape[0]
    if n > dense_max:
        try:
            return float(svds(C, k=1, v0=_krylov_start(n), return_singular_vectors=False, maxiter=5000, tol=0)[0])
        except ArpackNoConvergence:
            pass
    return float(np.linalg.svd(C, compute_uv=False)[0])


def _krylov_start(n: int) -> np.ndarray:
    """Deterministic, structure-free start vector for iterative eigensolvers."""
    v = np.sin(np.arange(1, n + 1, dtype=float))
    return v / np.linalg.norm(v)


def spectral_gap(K: DiscreteKernel) -> float:
    return 1.0 - op_norm_centered(K)


def psd_check(K: DiscreteKernel) -> float:
    """Minimum eigenvalue of the symmetrized similarity transform."""
    root = np.sqrt(K.pi)
    A = (root[:, None] * K.P) / root[None, :]
    eigs = np.linalg.eigvalsh(0.5 * (A + A.T))
    return float(eigs.min())


def reversibility_check(K: DiscreteKernel) -> float:
    """Largest detailed-balance residual max_ij |pi_i P_ij - pi_j P_ji|."""
    flow = K.pi[:, None] * K.P
    return float(np.abs(flow - flow.T).max())


# -- numeric beta profile ------------------------------------------------------


def _level_norm(target, grid: Grid, vals: np.ndarray, t: float, kind: KernelKind, w) -> float:
    """Distance of one discretized level kernel to its uniform refresh.

    In 1D the centered two-part mixture kernel is (1 - gamma) times the
    difference of two orthogonal projections of rank two and one, so its
    norm is 1 - gamma whenever both parts hold grid cells.  In higher
    dimensions it is the largest singular value of the centered density
    kernel.
    """
    idx = _slice_indices(vals, t)
    n_s = idx.size
    if n_s == 0 or kind is KernelKind.UNIFORM or (grid.dim == 1 and kind is KernelKind.HIT_AND_RUN):
        return 0.0
    if grid.dim == 1:
        ls = level_set_1d(target, t)
        in_first = grid.centers[idx, 0] <= ls.parts.intervals[0].hi + LEVEL_TOL
        if ls.parts.nparts == 1 or in_first.all() or not in_first.any():
            return 0.0
        return 1.0 - mixture_weight(ls.length, ls.delta_t, w)
    pg = _pair_geometry(target, grid)
    A, atoms = _density_level_rows(pg, target, grid, t, idx, idx, kind, w)
    A[np.diag_indices_from(A)] += atoms
    return _largest_singular_value(A - 1.0 / n_s, dense_max=700)


def beta_profile(
    target, grid: Grid, kind: KernelKind, w, norm_bins: int = 1024
) -> tuple[np.ndarray, float]:
    """Per-level kernel distances on a uniform bin grid over (0, max density]."""
    vals = density_on_grid(target, grid)
    top = float(vals.max())
    width = top / norm_bins
    nus = np.empty(norm_bins)
    for b in range(norm_bins):
        t = (b + 0.5) * width
        nus[b] = _level_norm(target, grid, vals, t, kind, w)
    return nus, width


def beta_k_numeric_many(
    target, grid: Grid, kind: KernelKind, w, k_list, m: int, norm_bins: int = 1024, profile=None
) -> tuple[dict[int, float], int]:
    """Numeric convergence profile sup_x of the row-averaged squared level norms.

    Returns the values per ``k`` and the grid index of the row attaining the
    supremum for the largest ``k``.
    """
    vals = density_on_grid(target, grid)
    act = _active_cells(vals)
    rho = vals[act]
    nus, width = profile if profile is not None else beta_profile(target, grid, kind, w, norm_bins)
    offsets = (np.arange(m) + 0.5) / m
    bins = np.minimum((offsets[None, :] * rho[:, None] / width).astype(int), nus.size - 1)
    nu_rows = nus[bins]
    out: dict[int, float] = {}
    argmax_cell = int(act[0])
    for k in sorted(set(k_list)):
        row_vals = np.mean(nu_rows ** (2 * k), axis=1)
        best = int(np.argmax(row_vals))
        out[k] = float(math.sqrt(row_vals[best]))
        argmax_cell = int(act[best])
    return out, argmax_cell


def beta_k_numeric(
    target, grid: Grid, kind: KernelKind, w, k: int, m: int, norm_bins: int = 1024
) -> float:
    """Numeric counterpart of the closed-form convergence profile for one ``k``."""
    return beta_k_numeric_many(target, grid, kind, w, [k], m, norm_bins)[0][k]


# -- inequality verifiers ------------------------------------------------------


def verify_theorem_bounds(
    target,
    grid: Grid,
    kind: KernelKind,
    w,
    k_list,
    m: int,
    k_max: int = 1,
    tol: float = 5e-3,
    exact_tol: float = 1e-6,
    mt_tol: float = 1e-3,
    tv_tol: float = 1e-8,
    tv_n_max: int = 50,
    norm_bins: int = 1024,
    psd_probe_levels: int = 8,
    kstep_grid: Grid | None = None,
    kstep_m: int | None = None,
) -> GapReport:
    """Assemble the kernels of a gap report once and run every check on them.

    The beta profile comes first, so its level matrices never coexist with
    the kernels.  The k-step set covers ``k_list`` and 1..``k_max`` on
    ``kstep_grid`` with ``kstep_m`` levels (by default the main grid and
    ``m``); when those are the main ones, its k=1 kernel is H and the
    corollary reuses gap(U) and beta.  The exact checks use ``exact_tol``,
    capped at 1e-10 for positivity and 1e-8 for reversibility.
    """
    k_list = sorted(set(k_list))
    kgrid, km = kstep_grid or grid, kstep_m or m
    shared = kgrid is grid and km == m
    beta = beta_k_numeric_many(target, grid, kind, w, k_list, m, norm_bins)[0]
    ksteps = build_k_step_matrices(target, kgrid, kind, w, [*k_list, *range(1, k_max + 1)], km)
    U = build_full_matrix(target, grid, KernelKind.UNIFORM, w, m)
    H = ksteps[1] if shared else build_full_matrix(target, grid, kind, w, m)
    gap_u, gap_h = spectral_gap(U), spectral_gap(H)

    top = float(density_on_grid(target, grid).max())
    levels = [(j + 0.5) * top / psd_probe_levels for j in range(psd_probe_levels)]
    min_eig = min(psd_check(build_level_matrix(target, grid, t, kind, w)) for t in levels)
    checks = [Check("psd_level_kernels", lhs=-min_eig, rhs=0.0, tol=min(1e-10, exact_tol))]
    checks += verify_sandwich(U, H, beta, tol)

    if shared:
        gap_u_k, beta_k = gap_u, beta
    else:
        gap_u_k = spectral_gap(build_full_matrix(target, kgrid, KernelKind.UNIFORM, w, km))
        beta_k = beta_k_numeric_many(target, kgrid, kind, w, k_list, km, norm_bins)[0]
    for k in k_list:
        checks.append(Check(f"corollary_kstep_gap_k{k}", lhs=gap_u_k - beta_k[k], rhs=spectral_gap(ksteps[k]), tol=tol))

    for name, K in (("reversibility_U", U), ("reversibility_H", H)):
        checks.append(Check(name, lhs=reversibility_check(K), rhs=0.0, tol=min(1e-8, exact_tol)))
    checks += verify_monotonicity(ksteps, k_max, exact_tol)
    checks += verify_power_bound(ksteps, k_max, exact_tol)
    checks.append(verify_mt_bound(target, grid, U, mt_tol))
    checks += verify_tv_bound(H, n_max=tv_n_max, tol=tv_tol)
    return GapReport(gap_u=gap_u, gap_h=gap_h, beta=beta, checks=checks)


def verify_sandwich(U: DiscreteKernel, H: DiscreteKernel, beta: dict[int, float], tol: float = 5e-3) -> list[Check]:
    """gap(H) <= gap(U), and (gap(U) - beta_k) / k <= gap(H) for every k of ``beta``."""
    gap_u, gap_h = spectral_gap(U), spectral_gap(H)
    checks = [Check("sandwich_upper_gapH_le_gapU", lhs=gap_h, rhs=gap_u, tol=tol)]
    return checks + [Check(f"sandwich_lower_k{k}", lhs=(gap_u - beta[k]) / k, rhs=gap_h, tol=tol) for k in sorted(beta)]


def verify_monotonicity(ksteps: dict[int, DiscreteKernel], k_max: int, tol: float = 1e-6) -> list[Check]:
    """Centered norms of the k-step kernels must not increase with ``k`` up to ``k_max``."""
    norms = [op_norm_centered(ksteps[k]) for k in range(1, k_max + 1)]
    return [
        Check(f"monotone_norm_k{k + 1}_le_k{k}", lhs=norms[k], rhs=norms[k - 1], tol=tol) for k in range(1, k_max)
    ]


def verify_power_bound(ksteps: dict[int, DiscreteKernel], k_max: int, tol: float = 1e-6) -> list[Check]:
    """The one-step norm to the k-th power is bounded by the k-step norm."""
    norm_h = op_norm_centered(ksteps[1])
    return [
        Check(f"power_bound_k{k}", lhs=norm_h**k, rhs=op_norm_centered(ksteps[k]), tol=tol)
        for k in range(1, k_max + 1)
    ]


def verify_mt_bound(target, grid: Grid, U: DiscreteKernel, tol: float = 1e-3) -> Check:
    """Doeblin lower bound on the exact-refresh gap from mass over box volume."""
    vals = density_on_grid(target, grid)
    act = _active_cells(vals)
    mass = float(vals[act].sum()) * grid.cell_vol
    bound = mass / (float(vals.max()) * act.size * grid.cell_vol)
    return Check("mt_lower_bound_gapU", lhs=bound, rhs=spectral_gap(U), tol=tol)


def verify_tv_bound(H: DiscreteKernel, nu: np.ndarray | None = None, n_max: int = 50, tol: float = 1e-8) -> list[Check]:
    """Iterated total-variation distance against the geometric gap bound."""
    gap = spectral_gap(H)
    pi = H.pi
    if nu is None:
        nu = np.zeros(H.n)
        nu[int(np.argmax(pi))] = 1.0
    nu = np.asarray(nu, dtype=float)
    if nu.shape != (H.n,) or abs(nu.sum() - 1.0) > 1e-12 or nu.min() < 0:
        raise ValueError("nu must be a probability vector on the kernel's cells")
    l2 = float(np.sqrt(np.sum(pi * (nu / pi - 1.0) ** 2)))
    checks = []
    mu = nu.copy()
    for n in range(1, n_max + 1):
        mu = mu @ H.P
        tv = 0.5 * float(np.abs(mu - pi).sum())
        checks.append(Check(f"tv_decay_n{n}", lhs=tv, rhs=(1.0 - gap) ** n * l2, tol=tol))
    return checks
