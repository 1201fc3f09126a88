"""Exact level-set geometry.

Level sets, line sections, volumes, diameters and exact uniform sampling
on level sets.  Everything is derived from the targets' closed-form level
regions; the only numerics are Monte Carlo union volumes in dimension
three and up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyLevelSetError, OffSliceError
from .targets import Ball, Interval, Region

#: tolerance on density values when testing level-set membership
MEMBERSHIP_TOL = 1e-12


def _draw_index(weights, rng: np.random.Generator) -> int:
    """Index i with probability proportional to weights[i], drawn as ``rng.choice`` draws it with p = weights / sum.

    Runs on Python floats: a sequential sum, the cumulative sum of the
    normalised weights divided by its last entry, and the count of entries
    at or below the uniform.  numpy sums fewer than 8 entries in sequence,
    so this is ``choice``'s arithmetic for the at most two regions a target
    holds (and up to seven weights).
    """
    total = 0.0
    for wi in weights:
        total += wi
    cdf, last = [], 0.0
    for wi in weights:
        last += wi / total
        cdf.append(last)
    u = rng.random()
    return sum(c / last <= u for c in cdf)


@dataclass(frozen=True)
class IntervalUnion:
    """Sorted union of pairwise disjoint closed intervals."""

    intervals: tuple[Interval, ...]

    @classmethod
    def from_intervals(cls, items) -> "IntervalUnion":
        """Build a union, merging overlapping or touching intervals."""
        items = sorted(items, key=lambda iv: iv.lo)
        merged: list[Interval] = []
        for iv in items:
            if merged and iv.lo <= merged[-1].hi + MEMBERSHIP_TOL:
                last = merged.pop()
                merged.append(Interval(last.lo, max(last.hi, iv.hi)))
            else:
                merged.append(iv)
        return cls(tuple(merged))

    @property
    def nparts(self) -> int:
        return len(self.intervals)

    @property
    def total_length(self) -> float:
        return sum(iv.length for iv in self.intervals)

    @property
    def extent(self) -> Interval:
        return Interval(self.intervals[0].lo, self.intervals[-1].hi)

    def gaps(self) -> list[float]:
        return [b.lo - a.hi for a, b in zip(self.intervals, self.intervals[1:])]

    def contains(self, s: float, tol: float = 0.0) -> bool:
        return any(iv.contains(s, tol) for iv in self.intervals)

    def part_index(self, s: float, tol: float = 0.0) -> int:
        for i, iv in enumerate(self.intervals):
            if iv.contains(s, tol):
                return i
        raise ValueError(f"{s} lies in none of the intervals")

    def sample_uniform(self, rng: np.random.Generator) -> float:
        iv = self.intervals[_draw_index([iv.length for iv in self.intervals], rng)]
        return iv.lo + rng.random() * iv.length


@dataclass(frozen=True)
class LineSection:
    """Intersection of a level set with a line, in the line's coordinate.

    ``parts`` is the merged disjoint union of the per-component sections and
    ``delta`` the gap between them (0 for one part).  The section of a 1D
    level set along its axis is the level set itself.
    """

    parts: IntervalUnion
    delta: float

    @classmethod
    def from_intervals(cls, items) -> "LineSection":
        """Merge ``items`` into the section's parts and measure the gap between them."""
        union = IntervalUnion.from_intervals(items)
        return cls(parts=union, delta=union.gaps()[0] if union.nparts == 2 else 0.0)

    @property
    def length(self) -> float:
        return self.parts.total_length


def _validate_level(target, t: float) -> None:
    if t <= 0.0:
        raise ValueError(f"level must be positive, got {t} (K(0) may be unbounded)")
    if t > target.sup_norm + MEMBERSHIP_TOL:
        raise EmptyLevelSetError(f"level {t} exceeds the density maximum {target.sup_norm}")


def level_set_1d(target, t: float) -> LineSection:
    """Level set of a 1D target as a section of at most two intervals."""
    if target.dim != 1:
        raise ValueError("level_set_1d requires a one-dimensional target")
    _validate_level(target, t)
    return LineSection.from_intervals(target.level_regions(min(t, target.sup_norm)))


def line_section(target, t: float, x, theta) -> LineSection:
    """Section of the level set along the line through ``x`` with direction ``theta``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if x.shape != (target.dim,) or theta.shape != (target.dim,):
        raise ValueError("point and direction must match the target dimension")
    if abs(np.linalg.norm(theta) - 1.0) > 1e-12:
        raise ValueError("direction must be a unit vector")
    _validate_level(target, t)
    rho_x = target.line_density(x, theta)(0.0)
    if rho_x < t - MEMBERSHIP_TOL:
        raise OffSliceError(f"density {rho_x} at the origin point is below the level {t}")

    sections = (_line_region_section(region, x, theta) for region in target.level_regions(t))
    present = [iv for iv in sections if iv is not None]
    if not present:
        raise OffSliceError("line misses every level region")  # unreachable when rho(x) >= t
    return LineSection.from_intervals(present)


def _line_region_section(region: Region, x: np.ndarray, theta: np.ndarray) -> Interval | None:
    """Solve for {s : x + s*theta in region}; at most one interval per convex region."""
    if isinstance(region, Interval):
        # theta is +1 or -1 in one dimension
        a = (region.lo - x[0]) / theta[0]
        b = (region.hi - x[0]) / theta[0]
        return Interval(min(a, b), max(a, b))
    center = np.asarray(region.center)
    b = float(np.dot(theta, x - center))
    c = float(np.dot(x - center, x - center)) - region.radius**2
    disc = b * b - c
    if disc <= 0.0:
        return None
    root = math.sqrt(disc)
    return Interval(-b - root, -b + root)


def _disk_overlap_area(r1: float, r2: float, dist: float) -> float:
    """Area of the lens where two disks intersect (closed form)."""
    if dist >= r1 + r2:
        return 0.0
    if dist <= abs(r1 - r2):
        return math.pi * min(r1, r2) ** 2
    alpha = math.acos(np.clip((dist**2 + r1**2 - r2**2) / (2.0 * dist * r1), -1.0, 1.0))
    beta = math.acos(np.clip((dist**2 + r2**2 - r1**2) / (2.0 * dist * r2), -1.0, 1.0))
    tri = 0.5 * math.sqrt(
        max((-dist + r1 + r2) * (dist + r1 - r2) * (dist - r1 + r2) * (dist + r1 + r2), 0.0)
    )
    return r1**2 * alpha + r2**2 * beta - tri


def vol_level_set_with_error(target, t: float, mc_samples: int = 1 << 18, seed: int = 0) -> tuple[float, float]:
    """Level-set volume and its standard error (zero where the value is exact).

    Dimensions one and two use closed forms (interval lengths, disk union
    with the lens correction); higher dimensions fall back to hit-or-miss
    Monte Carlo in a bounding box.
    """
    _validate_level(target, t)
    t = min(t, target.sup_norm)
    if target.dim == 1:
        return level_set_1d(target, t).length, 0.0
    regions = target.level_regions(t)
    balls = [r for r in regions if isinstance(r, Ball)]
    if target.dim == 2:
        if len(balls) == 1:
            return balls[0].volume, 0.0
        dist = float(np.linalg.norm(np.asarray(balls[0].center) - np.asarray(balls[1].center)))
        area = balls[0].volume + balls[1].volume - _disk_overlap_area(balls[0].radius, balls[1].radius, dist)
        return area, 0.0
    los = np.min([np.asarray(b.center) - b.radius for b in balls], axis=0)
    his = np.max([np.asarray(b.center) + b.radius for b in balls], axis=0)
    rng = np.random.default_rng(seed)
    pts = los + rng.random((mc_samples, target.dim)) * (his - los)
    hits = np.asarray(target.density(pts)) >= t
    p = hits.mean()
    box = float(np.prod(his - los))
    return box * p, box * math.sqrt(max(p * (1.0 - p), 0.0) / mc_samples)


def vol_level_set(target, t: float) -> float:
    """Volume of the level set at ``t``; see ``vol_level_set_with_error``."""
    return vol_level_set_with_error(target, t)[0]


def diam_level_set(target, t: float) -> float:
    """Diameter of the level set at ``t``."""
    _validate_level(target, t)
    t = min(t, target.sup_norm)
    if target.dim == 1:
        ext = level_set_1d(target, t).parts.extent
        return ext.length
    balls = [r for r in target.level_regions(t) if isinstance(r, Ball)]
    if len(balls) == 1:
        return 2.0 * balls[0].radius
    dist = float(np.linalg.norm(np.asarray(balls[0].center) - np.asarray(balls[1].center)))
    return max(2.0 * balls[0].radius, 2.0 * balls[1].radius, dist + balls[0].radius + balls[1].radius)


def _sample_region(region: Region, rng: np.random.Generator) -> np.ndarray:
    if isinstance(region, Interval):
        return np.array([region.lo + rng.random() * region.length])
    d = region.dim
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    radius = region.radius * rng.random() ** (1.0 / d)
    return np.asarray(region.center) + radius * direction


def _region_volume(region: Region) -> float:
    return region.length if isinstance(region, Interval) else region.volume


def uniform_sample_level_set(target, t: float, rng: np.random.Generator) -> np.ndarray:
    """Exact uniform draw from the level set at ``t``.

    Chooses a component region with probability proportional to its volume,
    samples uniformly inside, and accepts with probability one over the
    number of regions covering the point.  The output is exactly uniform on
    the union; with at most two regions the expected number of rejections
    is below one.
    """
    _validate_level(target, t)
    regions = target.level_regions(min(t, target.sup_norm))
    if not regions:
        raise EmptyLevelSetError(f"no level region at {t}")
    vols = [_region_volume(r) for r in regions]
    while True:
        point = _sample_region(regions[_draw_index(vols, rng)], rng)
        cover = sum(
            1
            for r in regions
            if (r.contains(point[0], MEMBERSHIP_TOL) if isinstance(r, Interval) else r.contains(point, MEMBERSHIP_TOL))
        )
        if cover == 1 or rng.random() < 1.0 / cover:
            return point
