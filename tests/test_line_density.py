"""Scalar line densities against the array ``density`` on single points, bit for bit."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from slicegap.targets import (
    QuasiConcaveComponent,
    Shape,
    TargetDensity,
    UniformBall,
    UniformInterval,
    eval_density,
    gaussian_pair,
    twin_triangles,
)

#: extra offsets checked along each drawn line, from a seed hypothesis draws
SWEEP = 64

coord = st.floats(-4.0, 4.0, allow_nan=False)
offset = st.floats(-6.0, 6.0, allow_nan=False)
seed = st.integers(0, 2**32 - 1)

ONE_GAUSSIAN = TargetDensity(1, (QuasiConcaveComponent(Shape.GAUSSIAN, (0.3,), 1.2, 2.0),))
INTERVAL = UniformInterval(-1.0, 2.0, 0.5)
BALL = UniformBall((0.2, -0.1), 1.3, 0.7)


def _assert_bit_identical(target, x, theta, s, sweep_seed):
    """``line_density(x, theta)(s)`` equals the array density at ``x + s*theta`` on every offset."""
    line = target.line_density(x, theta)
    xa, ta = np.asarray(x, dtype=float), np.asarray(theta, dtype=float)
    offsets = [s, 0.0, *np.random.default_rng(sweep_seed).uniform(-6.0, 6.0, SWEEP).tolist()]
    for si in offsets:
        got = line(si)
        expected = float(target.density(xa + si * ta))
        assert type(got) is float
        assert got.hex() == expected.hex(), (x, theta, si)


def _vector(dim):
    return st.lists(coord, min_size=dim, max_size=dim)


@settings(max_examples=300, deadline=None)
@given(x=_vector(1), theta=_vector(1), s=offset, sweep_seed=seed)
def test_twin_triangles(x, theta, s, sweep_seed):
    # coordinates reach +-4, beyond the support [-2, 2]
    _assert_bit_identical(twin_triangles(), x, theta, s, sweep_seed)


@settings(max_examples=300, deadline=None)
@given(x=_vector(2), theta=_vector(2), s=offset, sweep_seed=seed)
def test_gaussian_pair(x, theta, s, sweep_seed):
    _assert_bit_identical(gaussian_pair(), x, theta, s, sweep_seed)


@settings(max_examples=300, deadline=None)
@given(x=_vector(1), theta=_vector(1), s=offset, sweep_seed=seed)
def test_one_component_gaussian(x, theta, s, sweep_seed):
    _assert_bit_identical(ONE_GAUSSIAN, x, theta, s, sweep_seed)


@settings(max_examples=300, deadline=None)
@given(x=st.one_of(st.sampled_from([INTERVAL.lo, INTERVAL.hi]), coord), theta=coord, s=offset, sweep_seed=seed)
def test_uniform_interval_edges_included(x, theta, s, sweep_seed):
    # offset 0 puts the point on an edge whenever x is one
    _assert_bit_identical(INTERVAL, [x], [theta], s, sweep_seed)


@settings(max_examples=300, deadline=None)
@given(x=_vector(2), theta=_vector(2), s=offset, sweep_seed=seed)
def test_uniform_ball(x, theta, s, sweep_seed):
    _assert_bit_identical(BALL, x, theta, s, sweep_seed)


COMPONENTS = [*twin_triangles().components, *gaussian_pair().components, *ONE_GAUSSIAN.components]


@settings(max_examples=300, deadline=None)
@given(x=_vector(2), theta=_vector(2), s=offset, sweep_seed=seed, which=st.integers(0, len(COMPONENTS) - 1))
def test_components(x, theta, s, sweep_seed, which):
    comp = COMPONENTS[which]
    _assert_bit_identical(comp, x[: comp.dim], theta[: comp.dim], s, sweep_seed)


@settings(max_examples=200, deadline=None)
@given(x=_vector(2), which=st.integers(0, 4))
def test_eval_density_is_the_array_density(x, which):
    target = [twin_triangles(), gaussian_pair(), ONE_GAUSSIAN, INTERVAL, BALL][which]
    point = np.asarray(x[: target.dim])
    assert eval_density(target, point).hex() == float(target.density(point)).hex()


def test_wide_points_use_the_array_path():
    target = TargetDensity(9, (QuasiConcaveComponent(Shape.GAUSSIAN, (0.1,) * 9, 1.0, 0.5),))
    rng = np.random.default_rng(4)
    for _ in range(200):
        x, theta = rng.standard_normal(9), rng.standard_normal(9)
        _assert_bit_identical(target, x, theta, float(rng.uniform(-2.0, 2.0)), int(rng.integers(1 << 30)))


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        gaussian_pair().line_density([0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        twin_triangles().line_density([0.0, 1.0], [1.0, 0.0])
