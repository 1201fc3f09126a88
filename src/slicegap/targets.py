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


def _line_builder(density, components) -> Callable[[list[float], list[float]], LineDensity]:
    """``(xs, ts) -> line density`` of ``density``, the maximum of ``components``, compiled from generated source.

    Each line is one closure, axes and components unrolled, that repeats
    ``density`` on one point in numpy's order: squares summed in axis order,
    ``r ** 2`` through C ``pow`` and numpy's own ``exp``.  The constants are
    arguments of the generated factory, never printed literals.  Points wider
    than ``_SCALAR_NORM_MAX_DIM`` go through the array ``density``.
    """
    dim = density.dim
    if dim > _SCALAR_NORM_MAX_DIM:
        return functools.partial(_array_line_density, density)
    consts, body = {"exp": np.exp, "sqrt": math.sqrt}, [f"p{i} = x{i} + s * t{i}" for i in range(dim)]
    for j, comp in enumerate(components):
        consts.update({f"h{j}": float(comp.height), f"a{j}": float(comp.scale)})
        consts.update({f"m{j}_{i}": float(c) for i, c in enumerate(comp.mode)})
        if dim == 1:
            body.append(f"r{j} = abs(p0 - m{j}_0)")
        else:
            body += [f"d{j}_{i} = p{i} - m{j}_{i}" for i in range(dim)]
            body.append(f"r{j} = sqrt({' + '.join(f'd{j}_{i} * d{j}_{i}' for i in range(dim))})")
        if comp.shape is Shape.FLAT:
            body.append(f"v{j} = h{j} if r{j} <= a{j} else 0.0")
        elif comp.shape is Shape.TRIANGULAR:  # np.maximum(0.0, v), NaN included
            body += [f"v{j} = 1.0 - r{j} / a{j}", f"v{j} = h{j} * (0.0 if v{j} <= 0.0 else v{j})"]
        else:
            body.append(f"v{j} = h{j} * float(exp(-a{j} * r{j} ** 2))")
    body.append("return v0 if v0 >= v1 else v1" if len(components) == 2 else "return v0")
    xs, ts = "".join(f"x{i}, " for i in range(dim)), "".join(f"t{i}, " for i in range(dim))
    head = [f"def make({', '.join(consts)}):", " def build(xs, ts):", f"  {xs}= xs", f"  {ts}= ts", "  def line(s):"]
    namespace = {}
    exec("\n".join([*head, *(f"   {line}" for line in body), "  return line", " return build"]), {}, namespace)
    return namespace["make"](**consts)


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
        return self._line(*_line_floats(x, theta, self.dim))

    @functools.cached_property
    def _line(self) -> Callable[[list[float], list[float]], LineDensity]:
        return _line_builder(self, (self,))

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

        The closure runs on Python floats.  It comes from the target's line
        builder, compiled on first use, and repeats the operations of
        ``density`` on one point in the same order, so
        ``line_density(x, theta)(s)`` equals ``float(density(x + s * theta))``
        bit for bit; grids and batches of points go through ``density``.
        """
        return self._line(*_line_floats(x, theta, self.dim))

    @functools.cached_property
    def _line(self) -> Callable[[list[float], list[float]], LineDensity]:
        return _line_builder(self, self.components)

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

    A ``TargetDensity`` gets the builder behind its ``line_density``, compiled
    on first use, which skips the array conversion and shape check; anything
    else, such as a wrapper that substitutes or records line densities (the
    tests' fakes), gets ``line_density`` itself.  Either way it is the same,
    bit for bit.
    """
    if isinstance(target, TargetDensity):
        return target._line
    return target.line_density


def eval_density(target, x) -> float:
    """Density of ``target`` at a single point ``x``, through its line builder."""
    x = np.asarray(x, dtype=float)
    return line_builder(target)(*_line_floats(x, np.zeros_like(x), target.dim))(0.0)


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
    """Flat density ``height`` on [lo, hi]: a flat component of midpoint m and half-width r.

    Edges that m -/+ r does not give back exactly raise ValueError: [0, 1] and [-1, 2] load, [0.1, 0.7]
    does not.  A point whose |x - m| rounds to r counts as inside, so [0, 1] holds -1e-17.
    """
    m, r = (lo + hi) / 2, (hi - lo) / 2
    if (m - r, m + r) != (lo, hi):
        raise ValueError(f"edges {lo!r} and {hi!r} do not come back from m -/+ r: got {m - r!r} and {m + r!r}")
    comp = QuasiConcaveComponent(Shape.FLAT, (m,), height, r)
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
