"""Closed-form per-level transition kernels and operator-norm formulas.

The stepping-out/shrinkage level kernel is a two-point mixture: with weight
``gamma`` it refreshes uniformly over the whole level set, otherwise it
refreshes uniformly over the part containing the current point.  The chord
samplers admit explicit densities off the diagonal and explicit upper
bounds on their distance to the exact uniform refresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import OutOfClassError, SingularityError
from .slice_geometry import (
    MEMBERSHIP_TOL,
    IntervalUnion,
    LevelSet1D,
    LineSection,
    diam_level_set,
    level_set_1d,
    line_section,
    vol_level_set,
)
from .targets import RwCertificate, TargetDensity, check_Rw, eval_density


def sphere_surface_area(d: int) -> float:
    """Surface measure of the unit sphere in d dimensions (2, 2*pi, 4*pi, ...)."""
    if d < 1:
        raise ValueError("dimension must be positive")
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def mixture_weight(length, delta, w: float):
    """Weight ((w - delta)/w) * L / (L + delta) of the full uniform refresh, elementwise.

    Takes slice lengths L and gaps delta as scalars or arrays of one shape;
    an empty slice refreshes fully.  A gap reaching the step width puts the
    target outside the supported class and raises; with 0 <= delta < w the
    weight lies in [0, 1].
    """
    length = np.asarray(length, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if (delta >= w).any():
        raise OutOfClassError(f"level-set gap {delta.max()} reaches the step width {w}")
    if (delta < 0.0).any():
        raise ValueError(f"level-set gap {delta.min()} is negative")
    g = ((w - delta) / w) * np.divide(length, length + delta, out=np.ones_like(length), where=length > 0.0)
    return float(g) if g.ndim == 0 else g


@dataclass(frozen=True)
class SoShLevelKernel:
    """Stepping-out/shrinkage kernel on one level of a 1D target."""

    level_set: LevelSet1D
    w: float
    gamma: float


@dataclass(frozen=True)
class LineKernelWeights:
    """Mixture weight of the stepping-out/shrinkage move along one chord."""

    section: LineSection
    w: float
    gamma: float


@dataclass(frozen=True)
class MixtureMeasure:
    """H_t(x, .) as weights on the full uniform and on the local part."""

    uniform_weight: float
    local_weight: float
    union: IntervalUnion
    local: IntervalUnion


def gamma_t(level_set: LevelSet1D, w: float) -> float:
    """Mixture weight ((w - delta)/w) * |K| / (|K| + delta) of one level set."""
    return mixture_weight(level_set.length, level_set.delta_t, w)


def make_so_sh_kernel(level_set: LevelSet1D, w: float) -> SoShLevelKernel:
    return SoShLevelKernel(level_set=level_set, w=w, gamma=gamma_t(level_set, w))


def line_kernel_weights(section: LineSection, w: float) -> LineKernelWeights:
    """Chord analogue of ``gamma_t`` for the combined sampler."""
    return LineKernelWeights(section=section, w=w, gamma=mixture_weight(section.total_length, section.delta, w))


def so_sh_level_kernel_measure(kernel: SoShLevelKernel, x: float) -> MixtureMeasure:
    """Decompose H_t(x, .) into the uniform part and the part-local part."""
    union = kernel.level_set.parts
    if not union.contains(x, MEMBERSHIP_TOL):
        raise ValueError(f"point {x} does not lie on the level set")
    idx = union.part_index(x, MEMBERSHIP_TOL)
    local = IntervalUnion((union.intervals[idx],))
    return MixtureMeasure(
        uniform_weight=kernel.gamma,
        local_weight=1.0 - kernel.gamma,
        union=union,
        local=local,
    )


def op_norm_so_sh(level_set: LevelSet1D, w: float) -> float:
    """Exact operator distance of the mixture kernel to the uniform refresh: 1 - gamma."""
    return 1.0 - gamma_t(level_set, w)


def beta_k_so_sh_closed_form(
    target: TargetDensity, w: float, k: int, certificate: RwCertificate | None = None
) -> float:
    """Root-mean-square level profile ((1/t2) int_0^t2 (1 - gamma_t)^{2k} dt)^(1/2).

    Adaptive quadrature with the integration domain split at the level where
    the set splits into two parts; the integrand vanishes below the split.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    cert = certificate if certificate is not None else check_Rw(target, w)
    if cert.t2 <= 0.0 or cert.t1 >= cert.t2:
        return 0.0

    def integrand(t: float) -> float:
        if t <= 0.0:
            return 0.0
        return (1.0 - gamma_t(level_set_1d(target, t), w)) ** (2 * k)

    points = [cert.t1] if 0.0 < cert.t1 < cert.t2 else None
    val, _ = integrate.quad(integrand, 0.0, cert.t2, points=points, epsrel=1e-8, epsabs=0.0, limit=400)
    return math.sqrt(max(val, 0.0) / cert.t2)


def _chord_direction(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    diff = y - x
    dist = float(np.linalg.norm(diff))
    if dist == 0.0:
        raise SingularityError("chord density is undefined on the diagonal x = y")
    return diff / dist, dist


def _require_on_slice(target, t: float, *points) -> None:
    for p in points:
        if eval_density(target, p) < t - MEMBERSHIP_TOL:
            raise ValueError(f"point {p} lies below the level {t}")


def har_kernel_density(target, t: float, x, y) -> float:
    """Transition density of the chord sampler at distinct on-slice points.

    Equals (2 / sigma_d) / (|x - y|^(d-1) * |section through x and y|);
    symmetric in its arguments because both see the same chord.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    _require_on_slice(target, t, x, y)
    theta, dist = _chord_direction(x, y)
    section = line_section(target, t, x, theta)
    d = target.dim
    return (2.0 / sphere_surface_area(d)) / (dist ** (d - 1) * section.total_length)


def har_small_set_weight(target, t: float) -> float:
    """Weight (2/sigma_d) vol(K(t)) / diam(K(t))^d of the uniform law that hit-and-run rows at level t dominate."""
    d = target.dim
    return (2.0 / sphere_surface_area(d)) * vol_level_set(target, t) / diam_level_set(target, t) ** d


def har_level_norm_bound(target, t: float) -> float:
    """Upper bound 1 - ``har_small_set_weight`` on the hit-and-run level kernel's distance to the uniform refresh."""
    return 1.0 - har_small_set_weight(target, t)


def combined_level_kernel_density(target, t: float, w: float, x, y) -> float:
    """Density of the direction-line stepping-out/shrinkage kernel at x != y.

    Along the chord from x to y the move is the 1D mixture with weight
    gamma(x, theta): a uniform term over the whole section plus, when y
    falls in the same part as x, a local term over that part.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    _require_on_slice(target, t, x, y)
    theta, dist = _chord_direction(x, y)
    section = line_section(target, t, x, theta)
    gamma = line_kernel_weights(section, w).gamma
    d = target.dim
    base = (2.0 / sphere_surface_area(d)) * dist ** (1 - d)
    value = gamma / section.total_length
    local_idx = section.parts.part_index(0.0, MEMBERSHIP_TOL)
    local = section.parts.intervals[local_idx]
    if local.contains(dist, MEMBERSHIP_TOL):
        value += (1.0 - gamma) / local.length
    return base * value


def combined_norm_bound(target, t: float) -> float:
    """Upper bound 1 - vol(K(t)) / (sigma_d diam(K(t))^d) for the combined kernel."""
    d = target.dim
    vol = vol_level_set(target, t)
    diam = diam_level_set(target, t)
    return 1.0 - vol / (sphere_surface_area(d) * diam**d)
