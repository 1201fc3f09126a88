"""Brute-force ground truth via discretized Markov operators.

Every kernel is reduced to a finite row-stochastic matrix on a regular
grid.  Level kernels live on the sub-grid of cells whose density clears
the level.  A full kernel is the level integral of the paper,
rho(x) H(x, dy) = int_0^rho(x) H_t(x, dy) dt, over level nodes shared by
all cells.  1D and uniform kernels take their nodes from one cached level
plan per (target, grid, m), 2D kernels from one cached strip plan per
(target, grid): 2D level kernels mix refreshes on grid-anchored strips
over 128 directions and change only at its nodes.  A flow is one prefix
sum over nodes gathered at the smaller rank of each pair (2D k-step
kernels sum powers of the level matrices), so every kernel is stochastic
and reversible by construction, with the discretized target as its
stationary weights.  A level-plan kernel applies P v from its prefix
table by cumulative sums over nodes, in O(n + nodes), and assembles P
only when a check first reads it.  The 2D level matrices come from one
walk over the nodes in a single buffer, each node adding only the weight
changes of its strips; each matrix handed out is a view that later nodes
overwrite.  Norms are read off one self-adjoint operator per kernel, the
similarity D^(1/2) P D^(-1/2), which ``_similarity`` builds with one
symmetry guard: P itself when pi is uniform, as on level kernels, else
one scaled copy.  ``spectrum`` solves it once with ``eigvalsh`` for the
centered norm and the smallest eigenvalue; above 800 cells a norm alone
comes from ARPACK, on the level plan's product for a plan kernel, and
``scipy.sparse`` is imported only then.  Every kernel has ``apply``
(P v) and ``positivity``: a dense kernel's smallest eigenvalue, or a plan
kernel's certificate, the least of the weights its table is built from.
``reversibility_residual`` tests detailed balance through products; the
dense ``psd_check`` and ``reversibility_check`` remain as oracles, the
latter reading P against its transpose in blocks of 256 rows.

Each ``verify_*`` function checks inequalities of the gap theory, with an
explicit margin, on the gaps and norms it is given (the TV bound alone
iterates a kernel).  ``verify_theorem_bounds`` is the one place that
makes the kernels of a gap report, each once, and runs every check: it
reduces U to numbers and releases it, then walks the k-step set one
kernel at a time, and reads U and H only through ``apply`` and
``positivity``, so a 1D report above 800 cells makes no n x n array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import CoverageError, EmptyLevelSetError, OutOfClassError, UnsupportedShapeError
from .kernels import gamma_t, mixture_weight
from .slice_geometry import level_set_1d

#: boundary tolerance when assigning grid cells to a level set
LEVEL_TOL = 1e-12

#: density below which a grid box drops a target's tails
EPS_CUT = 1e-4

# margins of the gap report's checks, and its default number of TV steps
TOL_THEOREM = 5e-3  # gap inequalities: sandwich and k-step corollary
TOL_EXACT = 1e-6  # identities of exact kernels: monotone norms, power bound
TOL_MT = 1e-3  # Doeblin bound on gap(U)
TOL_TV = 1e-8  # geometric TV decay
TV_N_MAX = 50

#: rows per block where a check or a gather reads a matrix a block of rows at a time
ROW_BLOCK = 256


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
    def for_target(cls, target, shape, eps_cut: float = EPS_CUT) -> "Grid":
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
    sub-grid (level kernels); None means the full active grid.  The kernels
    of a 1D or uniform level plan are ``_PlanKernel``s, which apply P v
    without P and assemble P on its first read.
    """

    P: np.ndarray = field(repr=False)
    pi: np.ndarray
    label: str = ""
    support: np.ndarray | None = None
    _norm: float | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.P.ndim != 2 or self.P.shape[0] != self.P.shape[1] or self.pi.shape != self.P.shape[:1]:
            shapes = f"got P {self.P.shape} and pi {self.pi.shape}"
            raise ValueError(f"{self.label or 'kernel'} needs a square P and pi of shape (n,); {shapes}")
        self._validate(self.P.sum(axis=1), self.P.min(), "entry")

    def _validate(self, row_sums: np.ndarray, low: float, what: str) -> None:
        """Finite rows and pi, no negative ``what`` (``low`` is the least), rows summing to 1; pi is normalised."""
        if not (np.isfinite(row_sums).all() and np.isfinite(low) and np.isfinite(self.pi).all()):
            raise ValueError(f"{self.label or 'kernel'} has a non-finite entry in P or pi")
        if low < 0.0:
            raise ValueError(f"{self.label or 'kernel'} has a negative {what} {low:.3e}")
        drift = np.abs(row_sums - 1.0).max()
        if drift > 1e-9:
            raise ValueError(f"rows of {self.label or 'kernel'} sum to 1 only within {drift:.3e}")
        if np.any(self.pi <= 0.0):
            raise ValueError("stationary weights must be strictly positive")
        self.pi = self.pi / self.pi.sum()

    @property
    def n(self) -> int:
        return self.pi.size

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.P @ v

    def positivity(self) -> float:
        """Nonnegative when P is shown PSD on L2(pi): here its smallest eigenvalue, from ``spectrum``."""
        return spectrum(self)[1]

    def _similarity_product(self):
        """v -> D^(1/2) P D^(-1/2) v, the similarity built once by ``_similarity`` behind its guard."""
        return _similarity(self).__matmul__


class _PlanKernel(DiscreteKernel):
    """Kernel of a level plan with whole-set refresh weights ``gamma`` per node (None: always whole).

    ``apply`` gives P v from the prefix ``table`` in O(n + nodes), and P is gathered on first read.
    Every entry of P is a table value over rho(x), so a finite table whose increments over nodes are
    nonnegative gives a finite, nonnegative P; its rows sum to 1 when the product of ones is 1.  The flow
    is symmetric by construction, so the similarity product needs no guard.
    """

    def __init__(self, plan: "_LevelPlan", gamma: np.ndarray | None, label: str):
        self.plan, self.gamma, self.label, self.support, self._norm = plan, gamma, label, plan.support, None
        self.table = _prefix_table(plan.width, plan.count, gamma, plan.side_count)
        self.pi = plan.rho / plan.rho.sum()
        self._validate(self.apply(np.ones(plan.rho.size)), np.diff(self.table, prepend=0.0).min(), "level increment")

    @functools.cached_property
    def P(self) -> np.ndarray:
        return self.plan.kernel(self.table)

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.plan.product(self.table, v)

    def positivity(self) -> float:
        """The least of every node's width, gamma and 1 - gamma: a certificate, no spectrum.

        When it is nonnegative each level kernel, gamma times the refresh on its set plus 1 - gamma
        times the refresh within each side, is a nonnegative sum of Gram terms 1_S 1_S^T, so PSD and
        reversible for the uniform law on its set, and so is P (Rudolf and Ullrich 2013).
        """
        weights = (self.plan.width,) if self.gamma is None else (self.plan.width, self.gamma, 1.0 - self.gamma)
        return float(min(a.min() for a in weights))

    def _similarity_product(self):
        root = np.sqrt(self.pi)
        return lambda v: root * self.apply(v / root)


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

    @property
    def vacuous(self) -> list[str]:
        """Lower-bound rows with lhs <= 0: they hold for every gap(H), so they are no evidence."""
        lower = ("sandwich_lower_", "corollary_kstep_gap_")
        return [c.name for c in self.checks if c.name.startswith(lower) and c.lhs <= 0.0]

    def summary(self) -> str:
        lines = [
            f"gap(U) = {self.gap_u:.6f}",
            f"gap(H) = {self.gap_h:.6f}",
        ]
        for k in sorted(self.beta):
            lines.append(f"beta_{k} = {self.beta[k]:.6f}")
        vacuous = self.vacuous
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            flag = " (vacuous)" if c.name in vacuous else ""
            lines.append(f"[{status}] {c.name}: lhs={c.lhs:.6g} rhs={c.rhs:.6g} margin={c.margin:.3g}{flag}")
        result = "ALL CHECKS PASS" if self.all_passed else "CHECK FAILURES PRESENT"
        lines.append(f"result: {result}; {len(vacuous)} vacuous lower bounds")
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
    table over nodes (``table``) read at the smaller ``rank`` of each pair.

    In 1D, ``length`` and ``gap`` are the level-set geometry at each
    interval's midpoint, and a two-part node adds a refresh within the part
    of the current cell.  The gaps are nested, so a cell keeps one side of
    every gap below its density, its ``side`` (-1 below every gap);
    ``side_count`` holds the cells per side and node, and same-side pairs
    read their side's table row.  No n x n array is kept: ``kernel``
    gathers P a block of rows at a time, and ``product`` applies it.
    """

    rho: np.ndarray
    support: np.ndarray
    width: np.ndarray
    count: np.ndarray
    rank: np.ndarray
    side: np.ndarray
    length: np.ndarray | None = None
    gap: np.ndarray | None = None
    side_count: np.ndarray | None = None

    def gamma(self, kind: KernelKind, w, k: int) -> np.ndarray | None:
        """Whole-set refresh weight per node of ``kind`` taking ``k`` inner steps per level; None if always whole."""
        if kind in (KernelKind.UNIFORM, KernelKind.HIT_AND_RUN):
            return None
        return 1.0 - (1.0 - mixture_weight(self.length, self.gap, w)) ** k

    def kernel(self, table: np.ndarray) -> np.ndarray:
        """Transition matrix of ``table``, gathered at each pair's smaller rank ``ROW_BLOCK`` rows at a time."""
        n, flat = self.rho.size, table.ravel()
        own = self.width.size * (self.side + 1)  # each cell's side row; row 0 below every gap
        P = np.empty((n, n))
        for start in range(0, n, ROW_BLOCK):
            rows = slice(start, start + ROW_BLOCK)
            index = np.minimum(self.rank[rows, None], self.rank)
            index += np.where(self.side[rows, None] == self.side, own, 0)
            np.take(flat, index, out=P[rows])
            P[rows] /= self.rho[rows, None]
        return P

    def product(self, table: np.ndarray, v: np.ndarray) -> np.ndarray:
        """P v of ``table`` from one bincount of v per node and side, and cumulative sums over nodes.

        A cell pairs through row 0 with every cell off its side, and through its side's row with the
        cells on it; each row is summed over its own cells, so no row is read as row 0 plus a difference.
        """
        nodes = self.width.size
        group = self.side + 1
        per_node = np.bincount(group * nodes + self.rank, weights=v, minlength=3 * nodes).reshape(3, nodes)
        off_side = np.stack([per_node.sum(axis=0), per_node[0] + per_node[2], per_node[0] + per_node[1]])
        sums = _min_rank_sums(table[0], off_side)
        sums[1:] += _min_rank_sums(table[1:], per_node[1:])
        return sums[group, self.rank] / self.rho


def _min_rank_sums(table: np.ndarray, per_node: np.ndarray) -> np.ndarray:
    """sum over nodes i of table[min(i, j)] per_node[i] at every node j, along the last axis.

    That is table[j] times the sum over i >= j, plus the sum over i < j of table[i] per_node[i].
    """
    sums = table * np.cumsum(per_node[..., ::-1], axis=-1)[..., ::-1]
    sums[..., 1:] += np.cumsum(table * per_node, axis=-1)[..., :-1]
    return sums


def _prefix_table(width, count, gamma=None, side_count=None) -> np.ndarray:
    """Flow per pair as prefix sums over nodes: a (..., 3, nodes) table for ``count`` of shape (..., nodes).

    Row 0 sums width_j gamma_j / count_j, the refresh over the whole set (gamma 1 when None);
    rows 1 and 2 add the part-local term of the left and right side, with ``side_count`` (..., 2, nodes).
    """
    table = np.empty((*count.shape[:-1], 3, count.shape[-1]))
    if gamma is None:
        table[:] = np.cumsum(width / np.maximum(count, 1), axis=-1)[..., None, :]
    else:
        table[:] = np.cumsum(width * gamma / np.maximum(count, 1), axis=-1)[..., None, :]
        table[..., 1:, :] += np.cumsum((width * (1.0 - gamma))[..., None, :] / np.maximum(side_count, 1), axis=-1)
    return table


@functools.lru_cache(maxsize=2)
def _level_plan(target, grid: Grid, m: int) -> _LevelPlan:
    vals = density_on_grid(target, grid)
    act = _active_cells(vals)
    rho = vals[act]
    levels, rank = np.unique(np.concatenate([rho, np.linspace(0.0, rho.max(), m + 1)[1:]]), return_inverse=True)
    rank = rank[: rho.size]
    width = np.diff(levels, prepend=0.0)
    plan = _LevelPlan(rho, act, width, _count_from(rank, (levels.size,)), rank, np.full(rho.size, -1))
    if grid.dim == 1:
        _add_sides(plan, target, grid.centers[act, 0], levels - width / 2)
    return plan


def _count_from(index: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Cells taking part in each node, per group: those whose rank is at least the node's.

    ``index`` is each cell's flat position in ``shape``, whose last axis runs over nodes.
    """
    per_node = np.bincount(index, minlength=math.prod(shape)).reshape(shape)
    return np.cumsum(per_node[..., ::-1], axis=-1)[..., ::-1]


def _add_sides(plan: _LevelPlan, target, centers: np.ndarray, mids: np.ndarray) -> None:
    """Level-set geometry per node and the side of the gap each cell keeps."""
    rank, side = plan.rank, plan.side
    sets = [level_set_1d(target, float(t)) for t in mids]
    plan.length = np.array([ls.length for ls in sets])
    plan.gap = np.array([ls.delta for ls in sets])
    two = np.flatnonzero([ls.parts.nparts == 2 for ls in sets])
    nodes = mids.size
    plan.side_count = np.zeros((2, nodes), dtype=np.int64)
    if two.size == 0:
        return
    # every cell in a two-part node's set also takes part in the lowest one
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
        plan.side_count[s] = _count_from(rank[mine], (nodes,))


# -- strip plan: every 2D level kernel ----------------------------------------

#: line directions of a 2D level kernel, evenly spaced over a half-turn
N_THETA = 128

#: index entries per update of a level matrix walk, which bounds its temporaries
UPDATE_BLOCK = 1 << 16


@dataclass(eq=False)
class _StripPlan:
    """Level kernels of a 2D grid as direction mixtures of refreshes on strips.

    Along each of ``N_THETA`` directions the cells fall into grid-anchored
    strips one projected cell wide; ``sid`` holds each cell's strip key
    ``a * strips + s``.  A_t averages the uniform refresh on the current
    strip's cells at or above t.  A strip whose cells at t lie in two
    component regions and none in both refreshes whole with weight gamma of
    its chord extents, else within the current cell's part, the cells of
    its dominant component (``side``).  A_t is a nonnegative mixture of
    orthogonal projections, so symmetric, PSD and stochastic, and changes
    only at ``levels``: the cell densities and the strips' ``both``, the
    highest level at which one of a strip's cells lies in both regions,
    where the strip can split above it.  ``span`` holds, per side of each
    strip that can split (its ``row``), the lowest and highest chord
    coordinate of the side's first c cells by falling density.

    A level matrix is the sum of w_c 1_c 1_c^T over its columns c: each
    strip key, then each part key ``2 * key + side`` after the strip keys.
    ``falling`` orders the cells by falling density, so node j's
    ``size[j]`` cells lead it.  ``members`` is (member, first), with the
    positions in that order of column c's cells, rising, at
    member[first[c]:first[c + 1]].  ``level_matrices`` walks the nodes in
    one buffer and hands out each A_j as a view that later nodes overwrite.
    """

    rho: np.ndarray
    support: np.ndarray
    levels: np.ndarray
    width: np.ndarray
    rank: np.ndarray
    sid: np.ndarray
    strips: int
    side: np.ndarray
    both: np.ndarray
    row: np.ndarray
    span: np.ndarray

    @functools.cached_property
    def falling(self) -> np.ndarray:
        return np.argsort(-self.rank, kind="stable")

    @functools.cached_property
    def size(self) -> np.ndarray:
        return _count_from(self.rank, (self.levels.size,))

    @functools.cached_property
    def members(self) -> tuple[np.ndarray, np.ndarray]:
        # made on the first walk, not with the plan, so the plan's temporaries are gone by then
        strip, part = self.columns(self.falling)
        # one direction's keys form a run of columns, rising with the direction: sorting each row sorts them all
        member = np.empty((2, *strip.shape), dtype=np.min_scalar_type(self.rho.size))
        for half, keys in enumerate((strip, part)):
            member[half] = np.argsort(keys, axis=1, kind="stable")
        return member.ravel(), np.concatenate([[0], np.cumsum(self.column_count(self.falling))])

    def columns(self, cells) -> tuple[np.ndarray, np.ndarray]:
        """Strip keys and part keys ``2 * key + side`` of ``cells``, one row per direction."""
        sid = self.sid[:, cells]
        return sid, 2 * sid + self.side[cells]

    def column_count(self, cells) -> np.ndarray:
        """Cells of ``cells`` in each level-matrix column: the strip keys, then the part keys."""
        strip, part = self.columns(cells)
        strips = N_THETA * self.strips
        counts = np.bincount(strip.ravel(), minlength=strips), np.bincount(part.ravel(), minlength=2 * strips)
        return np.concatenate(counts)

    def gamma(self, key, j, count0, count1, w):
        """Weight of the whole-strip refresh per strip key at node ``j``, given each side's cells there."""
        two = (self.levels[j] > self.both[key]) & (count0 > 0) & (count1 > 0)
        gamma = np.ones(two.shape)
        if two.any():  # else one region: hit-and-run needs no step width
            key, count0, count1 = (np.broadcast_to(a, two.shape)[two] for a in (key, count0, count1))
            lo0, hi0 = self.span[:, 2 * self.row[key], count0 - 1]
            lo1, hi1 = self.span[:, 2 * self.row[key] + 1, count1 - 1]
            gap = np.maximum(np.maximum(lo0, lo1) - np.minimum(hi0, hi1), 0.0)
            gamma[two] = mixture_weight((hi0 - lo0) + (hi1 - lo1), gap, w)
        return gamma

    def level_matrices(self, w, nodes):
        """A_t on the interval of each of the increasing ``nodes``, over the node's cells in ``falling`` order.

        One buffer spans the first node's cells, and every later node's cells lead it.  A_t is the sum
        of w_c 1_c 1_c^T over the strip and part columns c; moving on to a node adds (w_c - w'_c) 1_c 1_c^T
        over the cells still in c for each column whose weight changed since the last node yielded, the
        first node starting from zero.  Each A_j is handed out as a view that later nodes overwrite.
        """
        (member, first), strip_cols, size = self.members, N_THETA * self.strips, self.size[nodes[0]]
        buf = np.zeros((size, size))
        flat = buf.reshape(-1)
        count = self.column_count(self.falling[:size])
        weight = np.zeros(count.size)
        for j in nodes:
            count -= self.column_count(self.falling[self.size[j] : size])
            size = self.size[j]
            part_count = count[strip_cols:].reshape(-1, 2)
            gamma = self.gamma(np.arange(strip_cols), j, *part_count.T, w)
            local = (1.0 - gamma)[:, None] / (N_THETA * np.maximum(part_count, 1))
            now = np.concatenate([gamma / (N_THETA * np.maximum(count[:strip_cols], 1)), local.ravel()])
            delta, weight = now - weight, now
            changed = np.flatnonzero((delta != 0.0) & (count > 0))
            # the columns of c cells each in blocks of at most UPDATE_BLOCK entries, added pair by pair
            for c in np.unique(count[changed]):
                group, step = changed[count[changed] == c], max(1, UPDATE_BLOCK // c**2)
                for lo in range(0, group.size, step):
                    cols = group[lo : lo + step]
                    cells = member[first[cols, None] + np.arange(c)].astype(np.intp)
                    pairs = cells[:, :, None] * buf.shape[0] + cells[:, None, :]
                    np.add.at(flat, pairs.ravel(), np.repeat(delta[cols], c * c))
            yield buf[:size, :size]

    def kernel(self, w) -> np.ndarray:
        """H from its flow rho(x) H(x, y): per strip, a prefix sum over nodes gathered at the pair's smaller rank."""
        n, nodes, strips = self.rho.size, self.levels.size, self.strips
        flow = np.zeros((n, n))
        for a in range(N_THETA):
            strip = self.sid[a] - a * strips
            count = _count_from(strip * nodes + self.rank, (strips, nodes))
            part_count = _count_from((2 * strip + self.side) * nodes + self.rank, (strips, 2, nodes))
            key = np.arange(strips)[:, None] + a * strips
            gamma = self.gamma(key, np.arange(nodes), *part_count.swapaxes(0, 1), w)
            table = _prefix_table(self.width, count, gamma, part_count)
            rows, cols = _strip_pairs(strip)
            side = np.where(self.side[rows] == self.side[cols], 1 + self.side[rows], 0)
            index = (3 * strip[rows] + side) * nodes + np.minimum(self.rank[rows], self.rank[cols])
            flow[rows, cols] += table.ravel().take(index)
        flow /= N_THETA * self.rho[:, None]
        return flow

    def power_kernels(self, w, k_list):
        """H_k for the sorted ``k_list``, handed out in its order, each flow released as its kernel goes.

        H alone is one prefix sum per strip (``kernel``); a set holding k > 1 sums
        rho(x) H_k(x, y) = sum over nodes j of width_j A_j^k(x, y) for every k in one joint pass, k=1 included.
        """
        if k_list == (1,):
            yield self.kernel(w)
            return
        flows = {k: np.zeros((self.rho.size,) * 2) for k in k_list}
        for width, A in zip(self.width, self.level_matrices(w, range(self.levels.size))):
            size = A.shape[0]
            power, step = A, 1
            for k in k_list:
                while step < k:
                    power = power @ A
                    step += 1
                flows[k][:size, :size] += width * power
        back = np.ix_(*(np.argsort(self.falling),) * 2)
        for k in k_list:
            yield flows.pop(k)[back] / self.rho[:, None]


def _strip_pairs(strip: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of every ordered pair of cells sharing a strip, each cell with itself included."""
    order = np.argsort(strip, kind="stable")
    ordered = strip[order]
    size = np.bincount(strip)[ordered]
    offset = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    return np.repeat(order, size), order[np.repeat(np.searchsorted(ordered, ordered), size) + offset]


@functools.lru_cache(maxsize=4)
def _strip_plan(target, grid: Grid, kind: KernelKind) -> _StripPlan:
    """Strip plan of a 2D grid; hit-and-run takes the target as one region, so every strip refreshes whole."""
    if grid.dim != 2:
        raise UnsupportedShapeError(f"strip level kernels are planar; a {grid.dim}D grid supports only the uniform kind")
    if kind is KernelKind.SO_SH:
        raise UnsupportedShapeError("so_sh steps along the axis of a 1D target; a 2D grid takes the combined kind")
    vals = density_on_grid(target, grid)
    act = _active_cells(vals)
    rho, pts = vals[act], grid.centers[act]
    phi = (np.arange(N_THETA) + 0.5) * (math.pi / N_THETA)
    theta = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    perp = theta[:, ::-1] * [-1.0, 1.0]
    cell = np.array([(hi - lo) / cells for (lo, hi), cells in zip(grid.bounds, grid.shape)])
    xi = (perp @ pts.T - (perp @ grid.centers.T).min(axis=1, keepdims=True)) / (np.abs(perp) @ cell)[:, None]
    # strip edges shift by a golden-ratio sequence over directions: under one shared anchor some
    # nearby cells never share a strip, and the cells on the anchor's diagonals sit on strip edges
    offset = (np.arange(N_THETA) * (math.sqrt(5.0) - 1.0) / 2.0 + 0.5) % 1.0
    strips = int(np.floor(xi.max() + 1.0)) + 1
    sid = (np.floor(xi + offset[:, None]) + np.arange(N_THETA)[:, None] * strips).astype(np.int32)
    values = np.stack([comp.density(pts) for comp in target.components]) if kind is KernelKind.COMBINED else rho[None]
    side = np.argmax(values, axis=0).astype(np.int32)
    keys, sides = sid.ravel(), np.tile(side, N_THETA)
    both = np.zeros(N_THETA * strips)
    if values.shape[0] == 2:  # a cell lies in both regions up to its lower component value
        np.maximum.at(both, keys, np.tile(values.min(axis=0), N_THETA))
    # a strip splits above its both level only while cells of each side stand higher
    top = np.zeros((2, both.size))
    np.maximum.at(top, (sides, keys), np.tile(rho, N_THETA))
    splits = both < top.min(axis=0)
    levels = np.unique(np.concatenate([rho, both[splits & (both > 0.0)]]))
    width, rank = np.diff(levels, prepend=0.0), np.searchsorted(levels, rho)
    # chord extents per side of each strip that splits, growing as cells join by falling density
    row = np.cumsum(splits) - 1
    mine = splits[keys]
    group = 2 * row[keys[mine]] + sides[mine]
    order = np.lexsort((np.tile(-rank, N_THETA)[mine], group))
    group = group[order]
    pos = np.arange(group.size) - np.searchsorted(group, group)
    eta, half = (theta @ pts.T).ravel()[mine][order], np.repeat(np.abs(theta) @ cell / 2.0, rho.size)[mine][order]
    span = np.zeros((2, 2 * row[-1] + 2, pos.max(initial=-1) + 1))
    span[:, group, pos] = eta - half, eta + half
    np.minimum.accumulate(span[0], axis=1, out=span[0])
    np.maximum.accumulate(span[1], axis=1, out=span[1])
    return _StripPlan(rho, act, levels, width, rank, sid, strips, side, both, row, span)


# -- kernel builders -----------------------------------------------------------


def level_kernels(target, grid: Grid, kind: KernelKind, w, levels):
    """The level kernel at each of the ascending ``levels``, on the sub-grid of cells clearing it.

    2D strip kinds walk the levels' distinct nodes once: a kernel lists its cells by falling density,
    and its P is a view that the next node overwrites.  1D and uniform kinds are built level by level.
    """
    levels = [float(t) for t in levels]
    if any(b < a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be ascending")
    strips = grid.dim >= 2 and kind is not KernelKind.UNIFORM
    plan = _strip_plan(target, grid, kind) if strips else None
    vals = plan.rho if strips else density_on_grid(target, grid)
    if levels and levels[-1] > vals.max() + LEVEL_TOL:
        raise EmptyLevelSetError(f"no grid cell clears level {levels[-1]}")
    if strips:
        nodes = np.searchsorted(plan.levels, np.array(levels) - LEVEL_TOL)
        walk, last = plan.level_matrices(w, np.unique(nodes)), -1
        for t, j in zip(levels, nodes):
            if j != last:
                P, last = next(walk), j
                cells = plan.falling[: P.shape[0]]
                u = np.full(cells.size, 1.0 / cells.size)
            yield DiscreteKernel(P=P, pi=u, label=f"{kind.value}-level-{t:.6g}", support=plan.support[cells])
        return
    for t in levels:
        idx = np.flatnonzero(vals >= t - LEVEL_TOL)
        u = np.full(idx.size, 1.0 / idx.size)
        P = np.tile(u, (idx.size, 1))
        ls = None if kind in (KernelKind.UNIFORM, KernelKind.HIT_AND_RUN) else level_set_1d(target, t)
        if ls is not None and ls.parts.nparts == 2:
            gamma = gamma_t(ls, w)
            in_first = grid.centers[idx, 0] <= ls.parts.intervals[0].hi + LEVEL_TOL
            P *= gamma
            for mask in (in_first, ~in_first):
                P[np.ix_(mask, mask)] += (1.0 - gamma) / max(int(mask.sum()), 1)
        yield DiscreteKernel(P=P, pi=u, label=f"{kind.value}-level-{t:.6g}", support=idx)


def build_level_matrix(target, grid: Grid, t: float, kind: KernelKind, w: float | None = None) -> DiscreteKernel:
    """Discretized level kernel at level ``t``: ``level_kernels`` at that one level."""
    return next(level_kernels(target, grid, kind, w, [t]))


def build_full_matrix(target, grid: Grid, kind: KernelKind, w: float | None = None, m: int = 64) -> DiscreteKernel:
    """Full transition matrix: the level integral of level kernels."""
    return dict(_power_kernels(target, grid, kind, w, (1,), m))[1]


def build_k_step_matrices(
    target, grid: Grid, kind: KernelKind, w: float | None, k_list, m: int = 64
) -> dict[int, DiscreteKernel]:
    """One pass over levels shared by several ``k`` values."""
    return dict(_power_kernels(target, grid, kind, w, tuple(k_list), m))


def _power_kernels(target, grid, kind, w, k_list, m):
    """Kernels taking ``k`` inner steps per level, for every ``k`` of ``k_list``, one at a time by increasing ``k``.

    1D and uniform kernels refine their level nodes by ``m`` levels and are plan kernels, one prefix table
    per ``k``, whose P is assembled only when read; 2D strip kernels are exact, ignore ``m``, and come dense
    from one joint pass.  Nothing here keeps a kernel it has handed out.
    """
    if m < 1 or min(k_list) < 1:
        raise ValueError("m and every k must be at least 1")
    k_list = tuple(sorted(set(k_list)))
    if grid.dim == 1 or kind is KernelKind.UNIFORM:
        plan = _level_plan(target, grid, m)
        for k in k_list:
            yield k, _PlanKernel(plan, plan.gamma(kind, w, k), f"{kind.value}-k{k}-m{m}")
        return
    plan = _strip_plan(target, grid, kind)
    mats = plan.power_kernels(w, k_list)
    pi = plan.rho / plan.rho.sum()
    # next() rather than a loop variable: while suspended, this frame holds no matrix it has handed out
    for k in k_list:
        yield k, DiscreteKernel(P=next(mats), pi=pi, label=f"{kind.value}-k{k}-m{m}", support=plan.support)


# -- norms and spectra ---------------------------------------------------------


def _similarity(K: DiscreteKernel) -> np.ndarray:
    """D^(1/2) P D^(-1/2), symmetric within 1e-12 or ValueError.

    With pi uniform it is P itself, a level kernel's view included; else one scaled copy.
    """
    root = np.sqrt(K.pi)
    S = K.P
    if root.min() != root.max():
        S = S * root[:, None]
        S /= root[None, :]
    asym = _asymmetry(S)
    if not asym <= 1e-12:  # a NaN fails too
        raise ValueError(f"{K.label or 'kernel'} is not reversible: similarity asymmetry {asym:.3e}")
    return S


def _asymmetry(A: np.ndarray) -> float:
    """max |A - A^T|, a block of rows against its mirrored columns at a time: no second n x n array is made."""
    blocks = (A[s : s + ROW_BLOCK, s:] - A[s:, s : s + ROW_BLOCK].T for s in range(0, A.shape[0], ROW_BLOCK))
    return float(np.max([np.abs(b).max() for b in blocks], initial=0.0))


def spectrum(K: DiscreteKernel) -> tuple[float, float]:
    """Centered norm and smallest eigenvalue of a reversible kernel on L2(pi), from one ``eigvalsh``.

    The similarity's top eigenvalue is the 1 of sqrt(pi); the norm is the largest absolute
    eigenvalue of the rest, 0 on one cell.  The norm is cached on the kernel.
    """
    eig = np.linalg.eigvalsh(_similarity(K))
    K._norm = float(np.abs(eig[:-1]).max(initial=0.0))
    return K._norm, float(eig[0])


def op_norm_centered(K: DiscreteKernel) -> float:
    """Operator norm of the kernel minus its stationary projection on L2(pi), cached on the kernel.

    Up to 800 cells it is ``spectrum``'s.  Above, ARPACK finds the largest absolute eigenvalue of the
    similarity minus sqrt(pi) sqrt(pi)^T, applied as the kernel's similarity product and a rank-one
    correction: a plan kernel's comes from its prefix table, so its P is never assembled, and a dense
    kernel's is its similarity from ``_similarity``.  No second n x n array is made and P is never
    written; ``spectrum`` is the fallback if ARPACK fails.
    """
    if K._norm is None and K.n > 800:
        from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator

        S, root = K._similarity_product(), np.sqrt(K.pi)
        C = LinearOperator((K.n, K.n), matvec=lambda v: S(v) - root * (root @ v), dtype=float)
        v0 = np.sin(np.arange(1, K.n + 1, dtype=float))  # a deterministic, structure-free start vector
        try:
            eigs = eigsh(C, k=1, v0=v0 / np.linalg.norm(v0), maxiter=5000, tol=0, return_eigenvectors=False)
            K._norm = abs(float(eigs[0]))
        except ArpackNoConvergence:
            pass
    return spectrum(K)[0] if K._norm is None else K._norm


def eigsh(A, **kwargs):
    """ARPACK's ``scipy.sparse.linalg.eigsh``, loaded on the first call.

    Only kernels above 800 cells need ARPACK, so a ``gap`` report on smaller
    grids never loads ``scipy.sparse``; ``verify`` loads it anyway, through
    ``scipy.stats``.  ``op_norm_centered`` hands it a ``LinearOperator``
    over the kernel's similarity product, which for a plan kernel makes no
    n x n array.  Tools that count ARPACK calls rebind this name.
    """
    from scipy.sparse.linalg import eigsh as arpack

    return arpack(A, **kwargs)


def spectral_gap(K: DiscreteKernel) -> float:
    return 1.0 - op_norm_centered(K)


def psd_check(K: DiscreteKernel) -> float:
    """Smallest eigenvalue of the similarity transform D^(1/2) P D^(-1/2), from ``spectrum``."""
    return spectrum(K)[1]


def reversibility_check(K: DiscreteKernel) -> float:
    """Largest detailed-balance residual max_ij |pi_i P_ij - pi_j P_ji|."""
    worst = []
    # a block of rows of the flow against the same columns, so no n x n flow or transpose is made
    for start in range(0, K.n, ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        residual = K.pi[rows, None] * K.P[rows]
        residual -= (K.pi[:, None] * K.P[:, rows]).T
        worst.append(np.abs(residual, out=residual).max())
    # np.max, unlike max, keeps a NaN
    return float(np.max(worst, initial=0.0))


def reversibility_residual(K: DiscreteKernel) -> float:
    """Detailed balance read through products, after Freivalds (1977): 0 when P is pi-reversible.

    The largest, over 4 fixed pairs (u, v) of sine vectors u_i = sin(i j), v_i = sin(i (j + 4)) for
    j = 1..4, of the relative residual |<u, pi P v> - <pi P u, v>| / <|u|, pi P |v|>.  The numerator
    is u^T (F - F^T) v for the flow F = diag(pi) P, which vanishes for every pair exactly when P is
    pi-reversible; a nonzero F - F^T is missed only if it vanishes on all four pairs.  The denominator
    scales it by the flow it reads.  It takes 3 products per pair (``apply``), so a plan kernel makes
    no n x n array.
    """
    cells, worst = np.arange(1, K.n + 1, dtype=float), []
    for j in range(1, 5):
        u, v = np.sin(cells * j), np.sin(cells * (j + 4))
        residual = abs(u @ (K.pi * K.apply(v)) - (K.pi * K.apply(u)) @ v)
        worst.append(residual / (np.abs(u) @ (K.pi * K.apply(np.abs(v)))))
    return float(np.max(worst))


# -- numeric beta profile ------------------------------------------------------


def _level_norm(target, grid: Grid, vals: np.ndarray, t: float, kind: KernelKind, w) -> float:
    """Distance of one discretized 1D or uniform level kernel to its uniform refresh.

    In 1D the centered two-part mixture kernel is (1 - gamma) times the
    difference of two orthogonal projections of rank two and one, so its
    norm is 1 - gamma whenever both parts hold grid cells.
    """
    idx = np.flatnonzero(vals >= t - LEVEL_TOL)
    n_s = idx.size
    if n_s == 0 or kind is KernelKind.UNIFORM or kind is KernelKind.HIT_AND_RUN:
        return 0.0
    ls = level_set_1d(target, t)
    in_first = grid.centers[idx, 0] <= ls.parts.intervals[0].hi + LEVEL_TOL
    if ls.parts.nparts == 1 or in_first.all() or not in_first.any():
        return 0.0
    return 1.0 - gamma_t(ls, w)


def beta_profile(
    target, grid: Grid, kind: KernelKind, w, norm_bins: int = 1024
) -> tuple[np.ndarray, float]:
    """Per-level kernel distances on a uniform bin grid over (0, max density].

    A 2D strip kernel takes the centered norm of each distinct level
    matrix the bins fall on, from ``spectrum``.
    """
    vals = density_on_grid(target, grid)
    top = float(vals.max())
    width = top / norm_bins
    levels = [(b + 0.5) * width for b in range(norm_bins)]
    if grid.dim >= 2 and kind is not KernelKind.UNIFORM:
        plan = _strip_plan(target, grid, kind)
        nodes = np.searchsorted(plan.levels, np.array(levels) - LEVEL_TOL)
        _, first, bins = np.unique(nodes, return_index=True, return_inverse=True)
        norms = [spectrum(K)[0] for K in level_kernels(target, grid, kind, w, [levels[b] for b in first])]
        return np.array(norms)[bins], width
    return np.array([_level_norm(target, grid, vals, t, kind, w) for t in levels]), width


def beta_k_numeric_many(
    target, grid: Grid, kind: KernelKind, w, k_list, m: int, norm_bins: int = 1024
) -> dict[int, float]:
    """Numeric convergence profile sup_x of the row-averaged squared level norms, per ``k``."""
    vals = density_on_grid(target, grid)
    rho = vals[_active_cells(vals)]
    nus, width = beta_profile(target, grid, kind, w, norm_bins)
    offsets = (np.arange(m) + 0.5) / m
    bins = np.minimum((offsets[None, :] * rho[:, None] / width).astype(int), nus.size - 1)
    nu_rows = nus[bins]
    return {k: math.sqrt(np.max(np.mean(nu_rows ** (2 * k), axis=1))) for k in sorted(set(k_list))}


# -- inequality verifiers ------------------------------------------------------


def verify_theorem_bounds(
    target,
    grid: Grid,
    kind: KernelKind,
    w,
    k_list,
    m: int,
    k_max: int = 1,
    tv_n_max: int = TV_N_MAX,
    norm_bins: int = 1024,
    kstep_grid: Grid | None = None,
    kstep_m: int | None = None,
) -> GapReport:
    """Make the kernels of a gap report once and run every check on them.

    The order of work bounds memory.  The beta profile comes first, so its
    level matrices never coexist with the kernels.  U is reduced to gap(U)
    and its reversibility residual, then released.  The k-step set covers
    ``k_list`` and 1..``k_max`` on ``kstep_grid`` with ``kstep_m`` levels (by
    default the main grid and ``m``) and is walked one kernel at a time,
    each kept only as its norm; when those are the main ones, its k=1 kernel
    is H and the corollary reuses gap(U) and beta.  U and H are read only
    through ``apply`` and ``positivity`` (a dense H's one ``spectrum`` gives
    its norm too), so a 1D report above 800 cells, where every norm is
    ARPACK on a plan product, makes no n x n array, and a 2D report holds
    at most H and one working n x n array besides the kernel being solved.
    The margins are the module's ``TOL_*`` constants, read at call time; the
    exact checks use ``TOL_EXACT``, capped at 1e-10 for the positivity of H
    and 1e-8 for reversibility.  H is the one-step kernel whatever k the
    caller adds to ``k_list``: with ``k_inner > 1``, gap(H), ``psd_H``,
    ``reversibility_H``, the upper sandwich and the ``tv_decay_n*`` rows
    describe the one-step H.  The benchmark pins the row count (84 on
    ``configs/t1_so_sh.cfg``, 70 on ``bench/gap2d.cfg``), so two identities
    stay: ``power_bound_k1`` (x <= x) and, on a shared grid,
    ``corollary_kstep_gap_k1`` (``sandwich_lower_k1`` again).
    """
    k_list = sorted(set(k_list))
    kgrid, km = kstep_grid or grid, kstep_m or m
    shared = kgrid is grid and km == m
    beta = beta_k_numeric_many(target, grid, kind, w, k_list, m, norm_bins)
    U = build_full_matrix(target, grid, KernelKind.UNIFORM, w, m)
    gap_u, reversibility_u = spectral_gap(U), reversibility_residual(U)
    del U
    if shared:
        gap_uk, beta_k = gap_u, beta
    else:
        gap_uk = spectral_gap(build_full_matrix(target, kgrid, KernelKind.UNIFORM, w, km))
        beta_k = beta_k_numeric_many(target, kgrid, kind, w, k_list, km, norm_bins)

    norms = {}
    for k, K in _power_kernels(target, kgrid, kind, w, [*k_list, *range(1, k_max + 1)], km):
        if shared and k == 1:
            H, psd_h = K, K.positivity()  # before the norm, which a dense kernel's solve then caches
        norms[k] = op_norm_centered(K)
        del K  # released before the next kernel is built
    if not shared:
        H = build_full_matrix(target, grid, kind, w, m)
        psd_h = H.positivity()
    gap_h = spectral_gap(H)

    checks = [Check("psd_H", lhs=-psd_h, rhs=0.0, tol=min(1e-10, TOL_EXACT))]
    checks += verify_sandwich(gap_u, gap_h, beta, TOL_THEOREM)
    checks += verify_corollary(gap_uk, beta_k, norms, TOL_THEOREM)
    for name, residual in (("reversibility_U", reversibility_u), ("reversibility_H", reversibility_residual(H))):
        checks.append(Check(name, lhs=residual, rhs=0.0, tol=min(1e-8, TOL_EXACT)))
    checks += verify_monotonicity(norms, k_max, TOL_EXACT)
    checks += verify_power_bound(norms, k_max, TOL_EXACT)
    checks.append(verify_mt_bound(target, grid, gap_u, TOL_MT))
    checks += verify_tv_bound(H, n_max=tv_n_max, tol=TOL_TV)
    return GapReport(gap_u=gap_u, gap_h=gap_h, beta=beta, checks=checks)


def verify_sandwich(gap_u: float, gap_h: float, beta: dict[int, float], tol: float = TOL_THEOREM) -> list[Check]:
    """gap(H) <= gap(U), and (gap(U) - beta_k) / k <= gap(H) for every k of ``beta``."""
    checks = [Check("sandwich_upper_gapH_le_gapU", lhs=gap_h, rhs=gap_u, tol=tol)]
    return checks + [Check(f"sandwich_lower_k{k}", lhs=(gap_u - beta[k]) / k, rhs=gap_h, tol=tol) for k in sorted(beta)]


def verify_corollary(
    gap_u: float, beta: dict[int, float], norms: dict[int, float], tol: float = TOL_THEOREM
) -> list[Check]:
    """The k-step corollary gap(U) - beta_k <= gap(H_k) = 1 - ``norms[k]`` for every k of ``beta``."""
    return [Check(f"corollary_kstep_gap_k{k}", gap_u - beta[k], 1.0 - norms[k], tol) for k in sorted(beta)]


def verify_monotonicity(norms: dict[int, float], k_max: int, tol: float = TOL_EXACT) -> list[Check]:
    """Centered norms of the k-step kernels, ``norms[k]``, must not increase with ``k`` up to ``k_max``."""
    return [
        Check(f"monotone_norm_k{k + 1}_le_k{k}", lhs=norms[k + 1], rhs=norms[k], tol=tol) for k in range(1, k_max)
    ]


def verify_power_bound(norms: dict[int, float], k_max: int, tol: float = TOL_EXACT) -> list[Check]:
    """The one-step norm to the k-th power is bounded by the k-step norm, for k up to ``k_max``."""
    return [Check(f"power_bound_k{k}", lhs=norms[1] ** k, rhs=norms[k], tol=tol) for k in range(1, k_max + 1)]


def verify_mt_bound(target, grid: Grid, gap_u: float, tol: float = TOL_MT) -> Check:
    """Doeblin lower bound on the exact-refresh gap ``gap_u`` from mass over box volume."""
    vals = density_on_grid(target, grid)
    act = _active_cells(vals)
    mass = float(vals[act].sum()) * grid.cell_vol
    bound = mass / (float(vals.max()) * act.size * grid.cell_vol)
    return Check("mt_lower_bound_gapU", lhs=bound, rhs=gap_u, tol=tol)


def verify_tv_bound(
    H: DiscreteKernel, nu: np.ndarray | None = None, n_max: int = TV_N_MAX, tol: float = TOL_TV
) -> list[Check]:
    """Iterated total-variation distance against the geometric gap bound, for a pi-reversible H.

    TV(nu H^n, pi) <= 1/2 ||nu/pi - 1||_{L2(pi)} (1 - gap)^n, with the
    factor 1/2 of the total-variation norm.  Each step reads one product:
    detailed balance pi_x H(x, y) = pi_y H(y, x) makes mu H = pi H(mu/pi).
    """
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
        mu = pi * H.apply(mu / pi)
        tv = 0.5 * float(np.abs(mu - pi).sum())
        checks.append(Check(f"tv_decay_n{n}", lhs=tv, rhs=0.5 * (1.0 - gap) ** n * l2, tol=tol))
    return checks
