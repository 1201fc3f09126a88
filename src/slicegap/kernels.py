"""Closed-form per-level kernel quantities.

The stepping-out/shrinkage level kernel is a two-point mixture: with weight
``gamma`` it refreshes uniformly over the whole level set, otherwise it
refreshes uniformly over the part containing the current point, so its
distance to the exact uniform refresh is ``1 - gamma``.  The chord
samplers have explicit upper bounds on that distance.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OutOfClassError
from .slice_geometry import LineSection, diam_level_set, level_set_1d, vol_level_set
from .targets import TargetDensity, check_Rw


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


def gamma_t(section: LineSection, w: float) -> float:
    """Mixture weight ((w - delta)/w) * |K| / (|K| + delta) of one level-set section."""
    return mixture_weight(section.length, section.delta, w)


def beta_k_so_sh_closed_form(target: TargetDensity, w: float, k: int) -> float:
    """Root-mean-square level profile ((1/t2) int_0^t2 (1 - gamma_t)^{2k} dt)^(1/2).

    The integrand vanishes below the split level t1, where the set has one part, so the integral runs
    over [t1, t2] by ``_tanh_sinh``, which tolerates the square-root endpoint that a Gaussian component
    puts at t2; it stops once halving the step changes the estimate by at most 1e-13 relative.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    cert = check_Rw(target, w)
    if cert.t2 <= 0.0 or cert.t1 >= cert.t2:
        return 0.0
    val = _tanh_sinh(lambda t: (1.0 - gamma_t(level_set_1d(target, t), w)) ** (2 * k), cert.t1, cert.t2)
    return math.sqrt(val / cert.t2)


def _tanh_sinh(f, a: float, b: float) -> float:
    """Integral of f over [a, b] by tanh-sinh quadrature (Takahasi and Mori 1974).

    Nodes t = a + (b - a) / (1 + e^(-2s)) with s = (pi/2) sinh(u), on u = j h for |u| <= 3.2, where the
    distance to an end is below 2e-17 (b - a); the step h halves from 1, each level adding only the new
    odd nodes, until the estimate moves by at most 1e-13 relative.  Values that never settle, such as
    NaN, raise after 10 halvings.
    """

    def pair(u: float) -> float:
        s = 0.5 * math.pi * math.sinh(u)
        off = (b - a) / (1.0 + math.exp(2.0 * s))
        return 0.5 * math.pi * math.cosh(u) / math.cosh(s) ** 2 * (f(a + off) + f(b - off))

    h, total = 1.0, 0.5 * math.pi * f(0.5 * (a + b)) + sum(pair(float(j)) for j in range(1, 4))
    est = total
    for _ in range(10):
        h *= 0.5
        total += sum(pair(j * h) for j in range(1, int(3.2 / h) + 1, 2))
        prev, est = est, h * total
        if abs(est - prev) <= 1e-13 * abs(est):
            return 0.5 * (b - a) * est
    raise ArithmeticError(f"tanh-sinh quadrature over [{a}, {b}] did not settle in 10 halvings")


def har_small_set_weight(target, t: float) -> float:
    """Weight (2/sigma_d) vol(K(t)) / diam(K(t))^d of the uniform law that hit-and-run rows at level t dominate."""
    d = target.dim
    return (2.0 / sphere_surface_area(d)) * vol_level_set(target, t) / diam_level_set(target, t) ** d


def har_level_norm_bound(target, t: float) -> float:
    """Upper bound 1 - ``har_small_set_weight`` on the hit-and-run level kernel's distance to the uniform refresh."""
    return 1.0 - har_small_set_weight(target, t)


def combined_norm_bound(target, t: float) -> float:
    """Upper bound 1 - vol(K(t)) / (sigma_d diam(K(t))^d) for the combined kernel."""
    d = target.dim
    vol = vol_level_set(target, t)
    diam = diam_level_set(target, t)
    return 1.0 - vol / (sphere_surface_area(d) * diam**d)
