"""Markov-chain transition procedures and the chain runner.

One transition serves every kind: draw a level uniformly below the current
density value, then move on that level set ``k_inner`` times
(``k_inner > 1`` is the k-step hybrid).  The level move of a
``SamplerKind`` is exact uniform sampling, stepping-out plus shrinkage on
the axis, a hit-and-run chord draw, or stepping-out plus shrinkage along a
random chord (Neal 2003, *Slice sampling*).

Each level move is defined once, as a binder that resolves what is fixed
for a chain (the line density builder, or the axis line of a 1D target;
``w``, ``max_loop`` and ``rng.random``) and returns a move on states of
Python floats.  The move returns the point it accepts and the density
there, from which the next level is drawn.  ``run_chain`` binds the
transition once per chain and writes each state and level into
preallocated arrays; ``_step_with_level`` and the public level moves bind
it per call.  Stepping-out plus shrinkage checks its start against that
carried density, bit for bit equal to ``eval_density`` there, so a step
of those kinds evaluates the density only where the algorithm needs it.

All randomness flows through an explicit ``numpy.random.Generator``;
chains are reproducible bit-for-bit for a fixed seed within one build.
"""

from __future__ import annotations

import csv
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
from .targets import LineDensity, Shape, axis_line, eval_density, line_builder

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


def _unit_direction(normal, dim: int) -> list[float]:
    """Uniform direction on the unit sphere via a normalised Gaussian vector, as Python floats.

    ``sqrt(g.dot(g))`` is how ``np.linalg.norm`` computes the norm and each
    ``gi / norm`` is one element of ``g / norm``, so the floats are the
    array form's bits.
    """
    while True:
        g = normal(dim)
        norm = math.sqrt(g.dot(g))
        if norm > 0.0:
            return [gi / norm for gi in g.tolist()]


def _stepping_out_loop(
    line: LineDensity, pos0: float, t: float, w: float, random, max_loop: int
) -> tuple[float, float]:
    """The stepping-out loop; see ``stepping_out``."""
    left = pos0 - random() * w
    right = left + w
    for _ in range(max_loop):
        if line(left) < t:
            break
        left -= w
    else:
        raise RunawayExpansionError("left expansion exceeded max_loop; slice unbounded or w too small")
    for _ in range(max_loop):
        if line(right) < t:
            break
        right += w
    else:
        raise RunawayExpansionError("right expansion exceeded max_loop; slice unbounded or w too small")
    return left, right


def _shrinkage_loop(
    line: LineDensity, left: float, right: float, pos0: float, t: float, random, max_loop: int
) -> tuple[float, float]:
    """The shrinkage loop; see ``shrinkage``."""
    for _ in range(max_loop):
        y = left + random() * (right - left)
        rho = line(y)
        if rho >= t:
            return y, rho
        if y < pos0:
            left = y
        else:
            right = y
    raise ShrinkageStallError("shrinkage exceeded max_loop; bracket numerically degenerate")


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
    return _stepping_out_loop(line_density, pos0, t, w, rng.random, max_loop)


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
    return _shrinkage_loop(line_density, left, right, pos0, t, rng.random, max_loop)


def _so_sh(
    line: LineDensity, pos0: float, t: float, rho: float, w: float, random, max_loop: int
) -> tuple[float, float]:
    """Stepping-out then shrinkage from ``pos0``, whose density ``rho`` proves it lies on the slice."""
    if rho < t:
        raise OffSliceError(f"stepping-out start {pos0} lies below level {t}")
    left, right = _stepping_out_loop(line, pos0, t, w, random, max_loop)
    return _shrinkage_loop(line, left, right, pos0, t, random, max_loop)


def _line_move(
    line: LineDensity, xs: list[float], ts: list[float], t: float, rho: float | None, w: float, random, max_loop: int
) -> tuple[list[float], float]:
    """Stepping-out plus shrinkage on ``line``, anchored at ``xs`` (coordinate 0) along ``ts``."""
    s, rho = _so_sh(line, 0.0, t, line(0.0) if rho is None else rho, w, random, max_loop)
    return [xi + s * ti for xi, ti in zip(xs, ts)], rho


# -- level-conditional moves (fixed level t) --------------------------------
#
# Each kind binds what is fixed for a chain (target, rng, w, max_loop) once
# and returns ``move(t, xs, rho=None) -> (xs, rho)``: the point it accepts
# and the density there, which the next level draw reads.  States are lists
# of Python floats.  ``rho`` is the density at ``xs`` when the caller already
# has it; stepping-out plus shrinkage checks the start against it instead
# of evaluating the density there again.


def _uniform_move(target, rng, w, max_loop):
    def move(t, xs, rho=None):
        y = uniform_sample_level_set(target, t, rng)
        return y.tolist(), eval_density(target, y)

    return move


def _so_sh_move(target, rng, w, max_loop):
    if target.dim != 1:
        raise ValueError("axis stepping-out requires a one-dimensional target")
    line, random = axis_line(target), rng.random

    def move(t, xs, rho=None):
        pos0 = xs[0]
        y, rho = _so_sh(line, pos0, t, line(pos0) if rho is None else rho, w, random, max_loop)
        return [y], rho

    return move


def _har_move(target, rng, w, max_loop):
    normal, dim = rng.standard_normal, target.dim

    def move(t, xs, rho=None):
        x, theta = np.array(xs), np.array(_unit_direction(normal, dim))
        section = line_section(target, t, x, theta)
        y = x + section.parts.sample_uniform(rng) * theta
        return y.tolist(), eval_density(target, y)

    return move


def _har_so_sh_move(target, rng, w, max_loop):
    build, normal, random, dim = line_builder(target), rng.standard_normal, rng.random, target.dim

    def move(t, xs, rho=None):
        ts = _unit_direction(normal, dim)
        return _line_move(build(xs, ts), xs, ts, t, rho, w, random, max_loop)

    return move


_MOVES = {
    SamplerKind.SIMPLE: _uniform_move,
    SamplerKind.SO_SH: _so_sh_move,
    SamplerKind.HAR: _har_move,
    SamplerKind.HAR_SO_SH: _har_so_sh_move,
}


def _floats(x) -> list[float]:
    """A point (array, sequence or scalar) as a list of Python floats."""
    xs = np.asarray(x, dtype=float).tolist()
    return xs if isinstance(xs, list) else [xs]


def _move_once(move, t: float, x) -> tuple[np.ndarray, float]:
    ys, rho = move(t, _floats(x))
    return np.array(ys), rho


def uniform_level_move(target, t: float, x: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Exact uniform refresh on the level set; ignores the current point."""
    return _move_once(_uniform_move(target, rng, None, DEFAULT_MAX_LOOP), t, x)


def so_sh_level_move(
    target, t: float, x: np.ndarray, rng: np.random.Generator, w: float, max_loop: int = DEFAULT_MAX_LOOP
) -> tuple[np.ndarray, float]:
    """One stepping-out plus shrinkage move on the axis of a 1D target."""
    return _move_once(_so_sh_move(target, rng, w, max_loop), t, x)


def hit_and_run_level_move(target, t: float, x: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Uniform draw on the chord through ``x`` in a uniform random direction."""
    return _move_once(_har_move(target, rng, None, DEFAULT_MAX_LOOP), t, x)


def so_sh_line_move(
    target, t: float, x: np.ndarray, theta: np.ndarray, rng: np.random.Generator, w: float,
    max_loop: int = DEFAULT_MAX_LOOP,
) -> tuple[np.ndarray, float]:
    """Stepping-out plus shrinkage along a fixed direction, anchored at coordinate 0."""
    xs, ts = _floats(x), _floats(theta)
    ys, rho = _line_move(target.line_density(xs, ts), xs, ts, t, None, w, rng.random, max_loop)
    return np.array(ys), rho


def har_so_sh_level_move(
    target, t: float, x: np.ndarray, rng: np.random.Generator, w: float, max_loop: int = DEFAULT_MAX_LOOP
) -> tuple[np.ndarray, float]:
    """Random direction, then stepping-out plus shrinkage along it."""
    return _move_once(_har_so_sh_move(target, rng, w, max_loop), t, x)


def sample_stationary(target, n: int, rng: np.random.Generator) -> np.ndarray:
    """Exact draws from the normalised target by rejection from the component mixture.

    The pointwise maximum of the components is dominated by their sum, so
    proposing from the mass-weighted component mixture and accepting with
    probability max/sum is exact, with acceptance rate at least one half.
    Flat components have no draw here, so a target holding one is refused.
    """
    comps = target.components
    if any(c.shape is Shape.FLAT for c in comps):
        raise ValueError("exact stationary sampling has no draw for flat components")
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


def _bind_step(target, config: SamplerConfig, rng):
    """The transition of ``config`` on ``target`` with its move bound once: ``step(xs, rho) -> (xs, t, rho)``.

    ``rho`` is the density at the state ``xs``; the step draws a level
    uniformly on (0, rho], makes ``config.k_inner`` level moves at it and
    returns the new state, the level and the density there.
    """
    move = _MOVES[config.kind](target, rng, config.w, config.max_loop)
    random, k_inner = rng.random, config.k_inner

    def step(xs, rho):
        if rho <= 0.0:
            raise InvalidStateError(f"density is zero at {xs}; no transition defined")
        # uniform on (0, rho]; excluding 0 keeps the level set well defined
        t = rho * (1.0 - random())
        for _ in range(k_inner):
            xs, rho = move(t, xs, rho)
        return xs, t, rho

    return step


def _step_with_level(
    target, config: SamplerConfig, x: np.ndarray, rng, rho: float | None = None
) -> tuple[np.ndarray, float, float]:
    """One transition: a level draw, then ``config.k_inner`` level moves at that level.

    ``rho`` is the density at ``x`` when the caller already has it.  Returns
    the new state, the level and the density at the new state.
    """
    xs = _floats(x)
    if len(xs) != target.dim:
        raise ValueError(f"state {x} does not have the target dimension {target.dim}")
    if rho is None:
        rho = eval_density(target, x)
    xs, t, rho = _bind_step(target, config, rng)(xs, rho)
    return np.array(xs), t, rho


def run_chain(target, config: SamplerConfig, x0, n: int, seed: int) -> Trace:
    """Run ``n`` transitions from ``x0``; deterministic in all arguments.

    The transition is bound once per chain; each step runs on Python floats
    and writes its state and level into the preallocated trace arrays.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    rho = eval_density(target, x0)
    if rho <= 0.0:
        raise InvalidStateError(f"starting point {x0} has zero density")
    rng = np.random.default_rng(seed)
    step = _bind_step(target, config, rng)
    states = np.empty((n + 1, target.dim))
    levels = np.zeros(n + 1)
    states[0] = x0
    xs = x0.tolist()
    for i in range(1, n + 1):
        try:
            xs, t, rho = step(xs, rho)
        except SliceGapError as exc:
            raise ChainError(i, exc) from exc
        states[i] = xs
        levels[i] = t
    return Trace(states=states, levels=levels, seed=seed, config=config)
