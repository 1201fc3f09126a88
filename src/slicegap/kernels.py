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

    Adaptive quadrature with the integration domain split at the level where
    the set splits into two parts; the integrand vanishes below the split.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    cert = check_Rw(target, w)
    if cert.t2 <= 0.0 or cert.t1 >= cert.t2:
        return 0.0

    def integrand(t: float) -> float:
        if t <= 0.0:
            return 0.0
        return (1.0 - gamma_t(level_set_1d(target, t), w)) ** (2 * k)

    from scipy import integrate  # imported on use, to keep package start-up cheap

    points = [cert.t1] if 0.0 < cert.t1 < cert.t2 else None
    val, _ = integrate.quad(integrand, 0.0, cert.t2, points=points, epsrel=1e-8, epsabs=0.0, limit=400)
    return math.sqrt(max(val, 0.0) / cert.t2)


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
