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
transition once per chain and ``transitions`` once per batch of
independent starts, and ``level_moves`` binds the move of a kind once per
batch; each writes its states into preallocated arrays, ``run_chain`` a
block of ``_BLOCK`` steps at a time.  No other binding exists.  Every
density that a level draw reads comes from the line builder, bit for bit
equal to ``eval_density``: the start's, and then the one each move
carries.  Stepping-out plus shrinkage checks its start against that
carried density, so a step of those kinds evaluates the density only
where the algorithm needs it.

All randomness flows through an explicit ``numpy.random.Generator``;
chains are reproducible bit-for-bit for a fixed seed within one build.
A ``so_sh`` chain reads its uniforms from ``rng.random(_BLOCK)`` blocks of
its own generator, the same doubles in order; not the HAR kinds, which
draw normals between uniforms, nor batches, whose generator is the caller's.
"""

from __future__ import annotations

import csv
import itertools
import math
import types
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
from .targets import LineDensity, Shape, eval_density, line_builder

DEFAULT_MAX_LOOP = 10_000

#: uniforms drawn, chain steps written and trace rows formatted at a time
_BLOCK = 1024


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
        """Write ``step,level,x1,...,xd`` rows with 17 significant digits and CSV (``\\r\\n``) line ends.

        Each ``_BLOCK`` rows are one ``%`` on the row format repeated; ``%d`` prints a float step as its integer.
        """
        n, d = self.states.shape
        row = "%d" + ",%.17g" * (d + 1) + "\r\n"
        with open(path, "w", newline="") as fh:
            if comment:
                fh.write(f"# {comment}\n")
            fh.write(",".join(["step", "level"] + [f"x{i + 1}" for i in range(d)]) + "\r\n")
            for start in range(0, n, _BLOCK):
                stop = min(start + _BLOCK, n)
                block = np.column_stack((np.arange(start, stop), self.levels[start:stop], self.states[start:stop]))
                fh.write(row * (stop - start) % tuple(block.ravel().tolist()))


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


# -- level-conditional moves (fixed level t) --------------------------------
#
# Each kind binds what is fixed for a chain (target, rng, w, max_loop) once
# and returns ``move(t, xs, rho=None) -> (xs, rho)``: the point it accepts
# and the density there, which the next level draw reads.  States are lists
# of Python floats.  ``rho`` is the density at ``xs`` when the caller already
# has it; stepping-out plus shrinkage checks the start against it instead
# of evaluating the density there again.


def _uniform_move(target, rng, w, max_loop):
    """Exact uniform draw on the level set; its density is ``eval_density``'s, through the builder bound here."""
    build, zeros = line_builder(target), [0.0] * target.dim

    def move(t, xs, rho=None):
        ys = uniform_sample_level_set(target, t, rng).tolist()
        return ys, build(ys, zeros)(0.0)

    return move


def _so_sh_move(target, rng, w, max_loop):
    if target.dim != 1:
        raise ValueError("axis stepping-out requires a one-dimensional target")
    line, random = line_builder(target)([0.0], [1.0]), rng.random

    def move(t, xs, rho=None):
        pos0 = xs[0]
        y, rho = _so_sh(line, pos0, t, line(pos0) if rho is None else rho, w, random, max_loop)
        return [y], rho

    return move


def _har_move(target, rng, w, max_loop):
    """Uniform draw on the chord's section; its density is ``eval_density``'s, through the builder bound here."""
    build, normal, dim = line_builder(target), rng.standard_normal, target.dim
    zeros = [0.0] * dim

    def move(t, xs, rho=None):
        x, theta = np.array(xs), np.array(_unit_direction(normal, dim))
        section = line_section(target, t, x, theta)
        ys = (x + section.parts.sample_uniform(rng) * theta).tolist()
        return ys, build(ys, zeros)(0.0)

    return move


def _har_so_sh_move(target, rng, w, max_loop):
    build, normal, random, dim = line_builder(target), rng.standard_normal, rng.random, target.dim

    def move(t, xs, rho=None):
        ts = _unit_direction(normal, dim)
        line = build(xs, ts)  # the chord through xs along ts, with xs at coordinate 0
        s, rho = _so_sh(line, 0.0, t, line(0.0) if rho is None else rho, w, random, max_loop)
        return [xi + s * ti for xi, ti in zip(xs, ts)], rho

    return move


_MOVES = {
    SamplerKind.SIMPLE: _uniform_move,
    SamplerKind.SO_SH: _so_sh_move,
    SamplerKind.HAR: _har_move,
    SamplerKind.HAR_SO_SH: _har_so_sh_move,
}


def _rows(starts, dim: int) -> np.ndarray:
    """Starts of shape (n, ``dim``) as a float array; any other shape is refused, never reshaped."""
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 2 or starts.shape[1] != dim:
        raise ValueError(f"starts of shape {starts.shape} do not have the trailing axis {dim} of the target")
    return starts


def level_moves(
    target, config: SamplerConfig, t: float, starts, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One level move at level ``t`` from each row of ``starts`` (n, d): the points accepted and the densities there.

    The move is bound once; the draws are those of the kind's move bound per call on the rows in order
    with the same ``rng``, bit for bit.
    """
    starts = _rows(starts, target.dim)
    move = _MOVES[config.kind](target, rng, config.w, config.max_loop)
    states, dens = np.empty_like(starts), np.empty(len(starts))
    for i in range(len(starts)):
        states[i], dens[i] = move(t, starts[i].tolist())
    return states, dens


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


def transitions(target, config: SamplerConfig, starts, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One transition from each row of ``starts`` (n, d): the new states and the levels drawn.

    The transition is bound once, and each start's density comes from the line builder, as ``eval_density``'s
    does; so the draws are those of the transition bound per call on the rows in order with the same ``rng``,
    bit for bit.
    """
    starts = _rows(starts, target.dim)
    step, build, zeros = _bind_step(target, config, rng), line_builder(target), [0.0] * target.dim
    states, levels = np.empty_like(starts), np.empty(len(starts))
    for i in range(len(starts)):
        xs = starts[i].tolist()
        states[i], levels[i], _ = step(xs, build(xs, zeros)(0.0))
    return states, levels


def run_chain(target, config: SamplerConfig, x0, n: int, seed: int) -> Trace:
    """Run ``n`` transitions from ``x0``; deterministic in all arguments.

    The transition is bound once per chain and runs on Python floats; each block of ``_BLOCK`` steps is
    written with one slice assignment per trace array.  A ``so_sh`` chain's binders read its scalar uniforms
    from blocks of its generator, which no caller sees, so reading ahead changes no draw.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    rho = eval_density(target, x0)
    if rho <= 0.0:
        raise InvalidStateError(f"starting point {x0} has zero density")
    rng = gen = np.random.default_rng(seed)
    if config.kind is SamplerKind.SO_SH:  # a source with only ``random``, so any other draw fails loudly
        blocks = iter(lambda: gen.random(_BLOCK).tolist(), None)
        rng = types.SimpleNamespace(random=itertools.chain.from_iterable(blocks).__next__)
    step = _bind_step(target, config, rng)
    states = np.empty((n + 1, target.dim))
    levels = np.zeros(n + 1)
    states[0] = x0
    xs = x0.tolist()
    try:
        for start in range(1, n + 1, _BLOCK):
            block_xs, block_ts = [], []
            for i in range(start, min(start + _BLOCK, n + 1)):
                xs, t, rho = step(xs, rho)
                block_xs += xs
                block_ts.append(t)
            states[start : i + 1] = np.reshape(block_xs, (i + 1 - start, -1))
            levels[start : i + 1] = block_ts
    except SliceGapError as exc:
        raise ChainError(i, exc) from exc
    return Trace(states=states, levels=levels, seed=seed, config=config)
