"""Target densities with exact level-set oracles.

A target is the pointwise maximum of one or two quasi-concave components:
triangular (1D only), Gaussian, or flat on a ball (``uniform_interval`` and
``uniform_ball``).  It exposes its dimension, pointwise density, supremum
norm and, crucially, each level set as a union of at most two elementary
regions (intervals in 1D, Euclidean balls otherwise).  All geometry
downstream is computed from these closed forms, so there is no
root-finding error anywhere in the verification chain.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Union

import numpy as np

from .errors import OutOfClassError, UnsupportedShapeError


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] on the real line."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, s: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= s <= self.hi + tol


@dataclass(frozen=True)
class Ball:
    """Closed Euclidean ball."""

    center: tuple[float, ...]
    radius: float

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def volume(self) -> float:
        d = self.dim
        unit = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
        return unit * self.radius**d

    def contains(self, x: np.ndarray, tol: float = 0.0) -> bool:
        return float(np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(self.center))) <= self.radius + tol


Region = Union[Interval, Ball]

LineDensity = Callable[[float], float]

#: widest point for which a sequential sum of squares reproduces ``np.linalg.norm``
_SCALAR_NORM_MAX_DIM = 7


def _line_floats(x, theta, dim: int) -> tuple[list[float], list[float]]:
    """Coordinates of a point and a direction as Python floats, checked against ``dim``."""
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if dim == 1:
        x, theta = x.reshape(-1), theta.reshape(-1)
    if x.shape != (dim,) or theta.shape != (dim,):
        raise ValueError(f"expected a point and a direction of dimension {dim}, got shapes {x.shape} and {theta.shape}")
    return x.tolist(), theta.tolist()


def _line_norm(xs: list[float], ts: list[float], center) -> Callable[[float], float]:
    """``s -> |x + s*theta - center|``, summing squares in axis order as ``np.linalg.norm`` does."""
    axes = tuple(zip(xs, ts, map(float, center)))

    def norm(s: float) -> float:
        sq = 0.0
        for xi, ti, ci in axes:
            di = xi + s * ti - ci
            sq += di * di
        return math.sqrt(sq)

    return norm


def _array_line_density(target, x, theta) -> LineDensity:
    """Line density through the array ``density``, for points too wide for the scalar norm."""
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    return lambda s: float(target.density(x + s * theta))


class Shape(str, Enum):
    TRIANGULAR = "triangular"
    GAUSSIAN = "gaussian"
    FLAT = "flat"


@dataclass(frozen=True)
class QuasiConcaveComponent:
    """One unimodal building block of a target density.

    ``scale`` is the half-width of the base for the triangular shape (1D
    only), the precision ``a`` in ``height * exp(-a |x - mode|^2)`` for the
    Gaussian shape and the radius of the flat shape's closed ball.  Every
    level set of a component is an interval (1D) or a ball.
    """

    shape: Shape
    mode: tuple[float, ...]
    height: float
    scale: float

    def __post_init__(self):
        if self.height <= 0:
            raise ValueError("component height must be positive")
        if self.scale <= 0:
            raise ValueError("component scale must be positive")
        if self.shape is Shape.TRIANGULAR and len(self.mode) != 1:
            raise UnsupportedShapeError("triangular components are one-dimensional only")

    @property
    def dim(self) -> int:
        return len(self.mode)

    def density(self, x: np.ndarray) -> np.ndarray:
        """Component value at ``x``; broadcasts over leading axes of shape (..., d).

        One-dimensional components also accept bare scalars and arrays of
        scalars without a trailing axis.
        """
        x = np.asarray(x, dtype=float)
        m = np.asarray(self.mode)
        if self.dim == 1:
            xs = x[..., 0] if (x.ndim and x.shape[-1] == 1) else x
            r = np.abs(xs - m[0])
        else:
            r = np.linalg.norm(x - m, axis=-1)
        if self.shape is Shape.FLAT:
            return np.where(r <= self.scale, self.height, 0.0)
        if self.shape is Shape.TRIANGULAR:
            return self.height * np.maximum(0.0, 1.0 - r / self.scale)
        return self.height * np.exp(-self.scale * r**2)

    def line_density(self, x, theta) -> LineDensity:
        """Component value at ``x + s * theta`` as a function of ``s``; see ``TargetDensity.line_density``."""
        if self.dim > _SCALAR_NORM_MAX_DIM:
            return _array_line_density(self, x, theta)
        return self._line(*_line_floats(x, theta, self.dim))

    def _line(self, xs: list[float], ts: list[float]) -> LineDensity:
        h, a = float(self.height), float(self.scale)
        if self.dim > 1:  # Gaussian or flat: triangles are one-dimensional
            radius = _line_norm(xs, ts, self.mode)
            if self.shape is Shape.FLAT:
                return lambda s: h if radius(s) <= a else 0.0
            return lambda s: h * float(np.exp(-a * radius(s) ** 2))
        x0, t0, m0 = xs[0], ts[0], float(self.mode[0])
        if self.shape is Shape.FLAT:
            return lambda s: h if abs(x0 + s * t0 - m0) <= a else 0.0
        if self.shape is Shape.TRIANGULAR:

            def triangle(s: float) -> float:
                v = 1.0 - abs(x0 + s * t0 - m0) / a
                return h * (0.0 if v <= 0.0 else v)  # np.maximum(0.0, v), NaN included

            return triangle
        # r ** 2 is C pow, as numpy squares a float64 scalar; np.exp is numpy's own kernel
        return lambda s: h * float(np.exp(-a * abs(x0 + s * t0 - m0) ** 2))

    def level_radius(self, t: float) -> float:
        """Radius of the level region {component >= t}, defined for 0 < t <= height."""
        if not 0.0 < t <= self.height:
            raise ValueError(f"level {t} outside (0, {self.height}]")
        if self.shape is Shape.FLAT:
            return self.scale
        if self.shape is Shape.TRIANGULAR:
            return self.scale * (1.0 - t / self.height)
        return math.sqrt(math.log(self.height / t) / self.scale)

    def level_region(self, t: float) -> Region | None:
        """Level region at ``t``, or None when the component stays below ``t``."""
        if t > self.height:
            return None
        r = self.level_radius(t)
        if self.dim == 1:
            return Interval(self.mode[0] - r, self.mode[0] + r)
        return Ball(self.mode, r)


@dataclass(frozen=True)
class TargetDensity:
    """Pointwise maximum of one or two quasi-concave components."""

    dim: int
    components: tuple[QuasiConcaveComponent, ...]
    name: str = ""

    def __post_init__(self):
        if not 1 <= len(self.components) <= 2:
            raise ValueError("a target holds one or two components")
        for comp in self.components:
            if comp.dim != self.dim:
                raise ValueError("all components must share the target dimension")

    def density(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.dim > 1 and (x.ndim == 0 or x.shape[-1] != self.dim):
            raise ValueError(f"expected points with trailing axis {self.dim}, got shape {x.shape}")
        vals = [comp.density(x) for comp in self.components]
        return np.maximum.reduce(vals)

    def line_density(self, x, theta) -> LineDensity:
        """Density at ``x + s * theta`` as a function of the Python float ``s``.

        The closure runs on Python floats and reads the component constants
        once.  It repeats the operations of ``density`` on one point in the
        same order, so ``line_density(x, theta)(s)`` equals
        ``float(density(x + s * theta))`` bit for bit; grids and batches of
        points go through ``density``.
        """
        if self.dim > _SCALAR_NORM_MAX_DIM:
            return _array_line_density(self, x, theta)
        return self._line(*_line_floats(x, theta, self.dim))

    @functools.cached_property
    def _axis_line(self) -> LineDensity:
        return self.line_density(0.0, 1.0)

    def _line(self, xs: list[float], ts: list[float]) -> LineDensity:
        lines = [comp._line(xs, ts) for comp in self.components]
        if len(lines) == 1:
            return lines[0]
        first, second = lines

        def line(s: float) -> float:
            a, b = first(s), second(s)
            return a if a >= b else b

        return line

    @property
    def sup_norm(self) -> float:
        return max(comp.height for comp in self.components)

    def level_regions(self, t: float) -> list[Region]:
        """Per-component level regions at level t (components below t drop out)."""
        regions = []
        for comp in self.components:
            region = comp.level_region(t)
            if region is not None:
                regions.append(region)
        return regions

    def support_bounds(self, eps_cut: float) -> list[tuple[float, float]]:
        """Per-axis bounds of a box covering {density >= eps_cut}."""
        los = np.full(self.dim, np.inf)
        his = np.full(self.dim, -np.inf)
        for comp in self.components:
            if comp.shape is not Shape.GAUSSIAN:  # compact support of radius scale
                r = comp.scale
            else:
                r = comp.level_radius(min(eps_cut, comp.height))
            m = np.asarray(comp.mode)
            los = np.minimum(los, m - r)
            his = np.maximum(his, m + r)
        return list(zip(los.tolist(), his.tolist()))


@dataclass(frozen=True)
class RwCertificate:
    """Admissibility certificate for the stepping-out class.

    Below ``t1`` the level set is one interval, on (t1, t2] it splits into
    two, and the inter-part gap stays below ``w`` at every probed level.
    """

    t1: float
    t2: float
    w: float


def line_builder(target) -> Callable[[list[float], list[float]], LineDensity]:
    """``(xs, ts) -> line density`` through a point and along a direction given as Python floats.

    A target on the scalar path gets the builder behind its ``line_density``,
    which skips the array conversion and shape check; anything else, such as a
    wrapper that substitutes or records line densities (the tests' fakes),
    gets ``line_density`` itself.  Either way it is the same, bit for bit.
    """
    if isinstance(target, TargetDensity) and target.dim <= _SCALAR_NORM_MAX_DIM:
        return target._line
    return target.line_density


def axis_line(target) -> LineDensity:
    """Density along the axis of a 1D target, ``line_density(0.0, 1.0)``.

    A ``TargetDensity`` builds it on first use and keeps it for its lifetime;
    anything else, such as a wrapper of the tests, builds it on each call.
    """
    if isinstance(target, TargetDensity):
        return target._axis_line
    return target.line_density(0.0, 1.0)


def eval_density(target, x) -> float:
    """Density of ``target`` at a single point ``x``, through its scalar ``line_density``."""
    x = np.asarray(x, dtype=float)
    return target.line_density(x, np.zeros_like(x))(0.0)


def merge_level(target: TargetDensity) -> float:
    """Smallest level at which the two component regions become disjoint.

    Found by bisection (absolute tolerance 1e-10 in t); the predicate is
    monotone because component level regions are nested.  Returns t2 when
    the regions never separate, and 0 when they are disjoint at all
    positive levels.
    """
    if len(target.components) != 2:
        return 0.0
    c1, c2 = target.components
    t2 = min(c1.height, c2.height)

    def disjoint(t: float) -> bool:
        return _region_gap(c1.level_region(t), c2.level_region(t)) > 0.0

    if not disjoint(t2):
        return t2
    lo, hi = 0.0, t2
    # invariant: not disjoint at lo (or lo = 0), disjoint at hi
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if disjoint(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _region_gap(r1: Region | None, r2: Region | None) -> float:
    if r1 is None or r2 is None:
        return math.inf
    if isinstance(r1, Interval) and isinstance(r2, Interval):
        lo = max(r1.lo, r2.lo)
        hi = min(r1.hi, r2.hi)
        return lo - hi
    dist = float(np.linalg.norm(np.asarray(r1.center) - np.asarray(r2.center)))
    return dist - r1.radius - r2.radius


def check_Rw(target: TargetDensity, w: float) -> RwCertificate:
    """Certify that a 1D target admits stepping-out with width ``w``.

    Computes the split level t1 by bisection, sets t2 to the smaller
    component height, and verifies that the inter-part gap is below ``w``
    on a grid of 64 levels in (t1, t2].
    """
    if target.dim != 1:
        raise ValueError("check_Rw is defined for one-dimensional targets")
    if w <= 0:
        raise ValueError("step width w must be positive")
    if len(target.components) == 1:
        # unimodal targets are trivially admissible: the gap is identically 0
        return RwCertificate(target.sup_norm, target.sup_norm, w)
    c1, c2 = target.components
    t2 = min(c1.height, c2.height)
    t1 = merge_level(target)
    if t1 < t2:
        for t in np.linspace(t1, t2, 65)[1:]:
            gap = _region_gap(c1.level_region(float(t)), c2.level_region(float(t)))
            if gap >= w:
                raise OutOfClassError(
                    f"level-set gap {gap:.6g} at level {t:.6g} reaches the step width {w:.6g}"
                )
    return RwCertificate(t1, t2, w)


def check_Rdw(target: TargetDensity, w: float) -> bool:
    """Admissibility of the combined direction-line sampler: mode distance <= w/2.

    Requires convex level regions, so only Gaussian components qualify.
    """
    if w <= 0:
        raise ValueError("step width w must be positive")
    for comp in target.components:
        if comp.shape is not Shape.GAUSSIAN:
            raise UnsupportedShapeError("combined-class check requires Gaussian components (convex level sets)")
    if len(target.components) == 1:
        return True
    m1 = np.asarray(target.components[0].mode)
    m2 = np.asarray(target.components[1].mode)
    return float(np.linalg.norm(m1 - m2)) <= w / 2.0


def uniform_interval(lo: float, hi: float, height: float = 1.0) -> TargetDensity:
    """Flat density ``height`` on [lo, hi]; its edges m -/+ r are exact when m and r are, as for [0, 1] and [-1, 2]."""
    comp = QuasiConcaveComponent(Shape.FLAT, ((lo + hi) / 2,), height, (hi - lo) / 2)
    return TargetDensity(1, (comp,), name="uniform-interval")


def uniform_ball(center, radius: float, height: float = 1.0) -> TargetDensity:
    """Flat density ``height`` on the closed ball; test fixture for chord-kernel identities."""
    comp = QuasiConcaveComponent(Shape.FLAT, tuple(center), height, radius)
    return TargetDensity(len(comp.mode), (comp,), name="uniform-ball")


def twin_triangles() -> TargetDensity:
    """Reference bimodal 1D target: triangles at -1 and +1 with heights 1 and 0.8."""
    return TargetDensity(
        dim=1,
        components=(
            QuasiConcaveComponent(Shape.TRIANGULAR, (-1.0,), 1.0, 1.0),
            QuasiConcaveComponent(Shape.TRIANGULAR, (1.0,), 0.8, 1.0),
        ),
        name="twin-triangles",
    )


def gaussian_pair() -> TargetDensity:
    """Reference bimodal 2D target: exp(-2|x|^2) against exp(-|x-(1.5,0)|^2)."""
    return TargetDensity(
        dim=2,
        components=(
            QuasiConcaveComponent(Shape.GAUSSIAN, (0.0, 0.0), 1.0, 2.0),
            QuasiConcaveComponent(Shape.GAUSSIAN, (1.5, 0.0), 1.0, 1.0),
        ),
        name="gaussian-pair",
    )
