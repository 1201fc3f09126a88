"""Markov-chain transition procedures and the chain runner.

One transition function, ``_step_with_level``, serves every kind: draw a
level uniformly below the current density value, then move on that level
set ``k_inner`` times (``k_inner > 1`` is the k-step hybrid).  The level
move of a ``SamplerKind`` is exact uniform sampling, stepping-out plus
shrinkage on the axis, a hit-and-run chord draw, or stepping-out plus
shrinkage along a random chord (Neal 2003, *Slice sampling*).

Each level move is defined once and returns the point it accepts and the
density there, from which the chain draws its next level.  Stepping-out
plus shrinkage already evaluated that density on the line, bit for bit
equal to ``eval_density`` there, so a step of those kinds evaluates the
density only where the algorithm needs it.

All randomness flows through an explicit ``numpy.random.Generator``;
chains are reproducible bit-for-bit for a fixed seed within one build.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .errors import (
    ChainError,
    InvalidStateError,
    OffSliceError,
    RunawayExpansionError,
    ShrinkageStallError,
    SliceGapError,
)
from .slice_geometry import line_section, uniform_sample_level_set
from .targets import LineDensity, Shape, eval_density

DEFAULT_MAX_LOOP = 10_000

#: trace rows converted to Python floats at a time when writing CSV
_CSV_BLOCK = 256


class SamplerKind(str, Enum):
    SIMPLE = "simple"
    SO_SH = "so_sh"
    HAR = "har"
    HAR_SO_SH = "har_so_sh"


@dataclass(frozen=True)
class SamplerConfig:
    """Which transition to run and its tuning knobs; ``k_inner`` level moves follow each level draw."""

    kind: SamplerKind = SamplerKind.SIMPLE
    w: float | None = None
    k_inner: int = 1
    max_loop: int = DEFAULT_MAX_LOOP

    def __post_init__(self):
        if self.k_inner < 1:
            raise ValueError("k_inner must be at least 1")
        if self.max_loop < 1:
            raise ValueError("max_loop must be at least 1")
        if self.kind in (SamplerKind.SO_SH, SamplerKind.HAR_SO_SH) and (self.w is None or self.w <= 0):
            raise ValueError(f"kind {self.kind.value} requires a positive step width w")


@dataclass
class Trace:
    """States and accepted levels of one chain run."""

    states: np.ndarray  # (n+1, d)
    levels: np.ndarray  # (n+1,), levels[0] = 0
    seed: int
    config: SamplerConfig = field(repr=False)

    def to_csv(self, path, comment: str | None = None) -> None:
        """Write ``step,level,x1,...,xd`` rows with 17 significant digits and CSV (``\\r\\n``) line ends."""
        d = self.states.shape[1]
        row = "%d" + ",%.17g" * (d + 1) + "\r\n"
        with open(path, "w", newline="") as fh:
            if comment:
                fh.write(f"# {comment}\n")
            fh.write(",".join(["step", "level"] + [f"x{i + 1}" for i in range(d)]) + "\r\n")
            for start in range(0, self.levels.size, _CSV_BLOCK):
                block = np.column_stack((self.levels[start : start + _CSV_BLOCK], self.states[start : start + _CSV_BLOCK]))
                fh.writelines(row % (i, *vals) for i, vals in enumerate(block.tolist(), start))


def read_trace_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read back states and levels from a trace file (comment lines skipped)."""
    levels, states = [], []
    with open(path) as fh:
        rows = [r for r in csv.reader(line for line in fh if not line.startswith("#"))]
    for row in rows[1:]:
        levels.append(float(row[1]))
        states.append([float(v) for v in row[2:]])
    return np.asarray(states), np.asarray(levels)


def _draw_level(rho: float, x: np.ndarray, rng: np.random.Generator) -> float:
    """A level uniform on (0, rho], where ``rho`` is the density at the current state ``x``."""
    if rho <= 0.0:
        raise InvalidStateError(f"density is zero at {x}; no transition defined")
    # uniform on (0, rho]; excluding 0 keeps the level set well defined
    return rho * (1.0 - rng.random())


def _unit_direction(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Uniform direction on the unit sphere via a normalised Gaussian vector."""
    while True:
        g = rng.standard_normal(dim)
        norm = np.linalg.norm(g)
        if norm > 0.0:
            return g / norm


def stepping_out(
    line_density: Callable[[float], float],
    pos0: float,
    t: float,
    w: float,
    rng: np.random.Generator,
    max_loop: int = DEFAULT_MAX_LOOP,
) -> tuple[float, float]:
    """Expand a width-``w`` bracket around ``pos0`` until both ends leave the slice.

    The initial bracket is uniformly phased over ``pos0``; each end then
    retreats in steps of ``w`` while it still lies on the slice.  The result
    satisfies density(L) < t, density(R) < t and L < pos0 < R.
    """
    if line_density(pos0) < t:
        raise OffSliceError(f"stepping-out start {pos0} lies below level {t}")
    u = rng.random()
    left = pos0 - u * w
    right = left + w
    for _ in range(max_loop):
        if line_density(left) < t:
            break
        left -= w
    else:
        raise RunawayExpansionError("left expansion exceeded max_loop; slice unbounded or w too small")
    for _ in range(max_loop):
        if line_density(right) < t:
            break
        right += w
    else:
        raise RunawayExpansionError("right expansion exceeded max_loop; slice unbounded or w too small")
    return left, right


def shrinkage(
    bracket: tuple[float, float],
    pos0: float,
    t: float,
    line_density: Callable[[float], float],
    rng: np.random.Generator,
    max_loop: int = DEFAULT_MAX_LOOP,
) -> tuple[float, float]:
    """Sample inside the bracket, shrinking the rejected side toward ``pos0``; returns the point and its density."""
    left, right = bracket
    if not left < pos0 < right:
        raise ValueError(f"bracket ({left}, {right}) must strictly contain the start {pos0}")
    if line_density(pos0) < t:
        raise OffSliceError(f"shrinkage start {pos0} lies below level {t}")
    for _ in range(max_loop):
        y = left + rng.random() * (right - left)
        rho = line_density(y)
        if rho >= t:
            return y, rho
        if y < pos0:
            left = y
        else:
            right = y
    raise ShrinkageStallError("shrinkage exceeded max_loop; bracket numerically degenerate")


# -- level-conditional moves (fixed level t) --------------------------------
#
# Each move returns the new point and the density there, which the next
# level draw reads.


@functools.cache
def _axis_line(target) -> LineDensity:
    """The density along the axis of a 1D target, built once per target."""
    return target.line_density(0.0, 1.0)


def uniform_level_move(target, t: float, x: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Exact uniform refresh on the level set; ignores the current point."""
    y = uniform_sample_level_set(target, t, rng)
    return y, eval_density(target, y)


def so_sh_level_move(
    target, t: float, x: np.ndarray, rng: np.random.Generator, w: float, max_loop: int = DEFAULT_MAX_LOOP
) -> tuple[np.ndarray, float]:
    """One stepping-out plus shrinkage move on the axis of a 1D target."""
    if target.dim != 1:
        raise ValueError("axis stepping-out requires a one-dimensional target")
    pos0 = float(np.atleast_1d(x)[0])
    density = _axis_line(target)
    bracket = stepping_out(density, pos0, t, w, rng, max_loop)
    y, rho = shrinkage(bracket, pos0, t, density, rng, max_loop)
    return np.array([y]), rho


def hit_and_run_level_move(target, t: float, x: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Uniform draw on the chord through ``x`` in a uniform random direction."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    theta = _unit_direction(rng, target.dim)
    section = line_section(target, t, x, theta)
    y = x + section.parts.sample_uniform(rng) * theta
    return y, eval_density(target, y)


def so_sh_line_move(
    target, t: float, x: np.ndarray, theta: np.ndarray, rng: np.random.Generator, w: float,
    max_loop: int = DEFAULT_MAX_LOOP,
) -> tuple[np.ndarray, float]:
    """Stepping-out plus shrinkage along a fixed direction, anchored at coordinate 0."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    theta = np.asarray(theta, dtype=float)
    density = target.line_density(x, theta)
    bracket = stepping_out(density, 0.0, t, w, rng, max_loop)
    s, rho = shrinkage(bracket, 0.0, t, density, rng, max_loop)
    return x + s * theta, rho


def har_so_sh_level_move(
    target, t: float, x: np.ndarray, rng: np.random.Generator, w: float, max_loop: int = DEFAULT_MAX_LOOP
) -> tuple[np.ndarray, float]:
    """Random direction, then stepping-out plus shrinkage along it."""
    return so_sh_line_move(target, t, x, _unit_direction(rng, target.dim), rng, w, max_loop)


def _level_move(kind: SamplerKind, target, t, x, rng, w, max_loop) -> tuple[np.ndarray, float]:
    """The level move of ``kind`` from ``x``, and the density at the point it returns."""
    if kind is SamplerKind.SO_SH:
        return so_sh_level_move(target, t, x, rng, w, max_loop)
    if kind is SamplerKind.HAR_SO_SH:
        return har_so_sh_level_move(target, t, x, rng, w, max_loop)
    if kind is SamplerKind.SIMPLE:
        return uniform_level_move(target, t, x, rng)
    if kind is SamplerKind.HAR:
        return hit_and_run_level_move(target, t, x, rng)
    raise ValueError(f"no level move for kind {kind}")


def sample_stationary(target, n: int, rng: np.random.Generator) -> np.ndarray:
    """Exact draws from the normalised target by rejection from the component mixture.

    The pointwise maximum of the components is dominated by their sum, so
    proposing from the mass-weighted component mixture and accepting with
    probability max/sum is exact, with acceptance rate at least one half.
    """
    comps = getattr(target, "components", None)
    if comps is None:
        raise ValueError("exact stationary sampling needs component structure")
    masses = []
    for c in comps:
        if c.shape is Shape.TRIANGULAR:
            masses.append(c.height * c.scale)
        else:
            masses.append(c.height * (math.pi / c.scale) ** (target.dim / 2.0))
    masses = np.asarray(masses)
    probs = masses / masses.sum()
    out = np.empty((n, target.dim))
    filled = 0
    while filled < n:
        batch = max(2 * (n - filled), 64)
        which = rng.random(batch) < probs[-1] if len(comps) == 2 else np.zeros(batch, dtype=bool)
        pts = np.empty((batch, target.dim))
        for ci, comp in enumerate(comps):
            mask = which if ci == 1 else ~which
            cnt = int(mask.sum())
            if cnt == 0:
                continue
            mode = np.asarray(comp.mode)
            if comp.shape is Shape.TRIANGULAR:
                u = rng.random((cnt, 2))
                pts[mask] = mode + comp.scale * (u.sum(axis=1) - 1.0)[:, None]
            else:
                pts[mask] = mode + rng.standard_normal((cnt, target.dim)) * math.sqrt(0.5 / comp.scale)
        dens = np.asarray(target.density(pts))
        total = np.zeros(batch)
        for comp in comps:
            total += np.asarray(comp.density(pts))
        keep = pts[rng.random(batch) < dens / total]
        take = min(len(keep), n - filled)
        out[filled : filled + take] = keep[:take]
        filled += take
    return out


def _step_with_level(
    target, config: SamplerConfig, x: np.ndarray, rng, rho: float | None = None
) -> tuple[np.ndarray, float, float]:
    """One transition: a level draw, then ``config.k_inner`` level moves at that level.

    ``rho`` is the density at ``x`` when the caller already has it.  Returns
    the new state, the level and the density at the new state.
    """
    if rho is None:
        rho = eval_density(target, x)
    t = _draw_level(rho, x, rng)
    for _ in range(config.k_inner):
        x, rho = _level_move(config.kind, target, t, x, rng, config.w, config.max_loop)
    return x, t, rho


def run_chain(target, config: SamplerConfig, x0, n: int, seed: int) -> Trace:
    """Run ``n`` transitions from ``x0``; deterministic in all arguments."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    rho = eval_density(target, x0)
    if rho <= 0.0:
        raise InvalidStateError(f"starting point {x0} has zero density")
    rng = np.random.default_rng(seed)
    states = np.empty((n + 1, target.dim))
    levels = np.zeros(n + 1)
    states[0] = x0
    x = x0
    for i in range(1, n + 1):
        try:
            x, t, rho = _step_with_level(target, config, x, rng, rho)
        except SliceGapError as exc:
            raise ChainError(i, exc) from exc
        states[i] = x
        levels[i] = t
    return Trace(states=states, levels=levels, seed=seed, config=config)
