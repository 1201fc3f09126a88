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
    eval_density,
    gaussian_pair,
    twin_triangles,
    uniform_ball,
    uniform_interval,
)

#: extra offsets checked along each drawn line, from a seed hypothesis draws
SWEEP = 64

coord = st.floats(-4.0, 4.0, allow_nan=False)
offset = st.floats(-6.0, 6.0, allow_nan=False)
seed = st.integers(0, 2**32 - 1)

ONE_GAUSSIAN = TargetDensity(1, (QuasiConcaveComponent(Shape.GAUSSIAN, (0.3,), 1.2, 2.0),))
INTERVAL = uniform_interval(-1.0, 2.0, 0.5)
BALL = uniform_ball((0.2, -0.1), 1.3, 0.7)
#: points whose float distance to BALL's centre is exactly its radius
BALL_EDGES = [[1.5, -0.1], [-1.1, -0.1]]
#: BALL next to a smooth component: the pointwise maximum switches between the two shapes
FLAT_AND_GAUSSIAN = TargetDensity(2, (*BALL.components, QuasiConcaveComponent(Shape.GAUSSIAN, (1.0, 0.5), 1.0, 2.0)))


def _pair(shape, dim):
    """Two overlapping components of ``shape`` in ``dim`` dimensions, with modes off the lattice."""
    scales = (2.0, 0.7) if shape is Shape.GAUSSIAN else (2.5, 1.7)
    return TargetDensity(
        dim,
        (
            QuasiConcaveComponent(shape, tuple(0.3 * i - 0.1 for i in range(dim)), 1.0, scales[0]),
            QuasiConcaveComponent(shape, tuple(1.1 - 0.7 * i for i in range(dim)), 0.8, scales[1]),
        ),
    )


#: pairs whose norms sum three and seven squares, so the order of the axes shows; a triangle against a
#: Gaussian in 1D, where the maximum switches between the two formulas; one component twice, for exact ties
PAIRS = {f"{shape.value}_{dim}d": _pair(shape, dim) for shape in (Shape.GAUSSIAN, Shape.FLAT) for dim in (3, 7)}
PAIRS["triangle_and_gaussian"] = TargetDensity(1, (twin_triangles().components[0], ONE_GAUSSIAN.components[0]))
PAIRS["tied"] = TargetDensity(2, gaussian_pair().components[:1] * 2)


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
@given(x=st.one_of(st.sampled_from([-1.0, 2.0]), coord), theta=coord, s=offset, sweep_seed=seed)
def test_uniform_interval_edges_included(x, theta, s, sweep_seed):
    # offset 0 puts the point on an edge whenever x is one
    _assert_bit_identical(INTERVAL, [x], [theta], s, sweep_seed)


@settings(max_examples=300, deadline=None)
@given(x=st.one_of(st.sampled_from(BALL_EDGES), _vector(2)), theta=_vector(2), s=offset, sweep_seed=seed)
def test_uniform_ball(x, theta, s, sweep_seed):
    # offset 0 puts the point on the circle whenever x is one of BALL_EDGES
    _assert_bit_identical(BALL, x, theta, s, sweep_seed)


@settings(max_examples=300, deadline=None)
@given(x=_vector(2), theta=_vector(2), s=offset, sweep_seed=seed)
def test_flat_ball_and_gaussian(x, theta, s, sweep_seed):
    _assert_bit_identical(FLAT_AND_GAUSSIAN, x, theta, s, sweep_seed)


@pytest.mark.parametrize("name", sorted(PAIRS))
@settings(max_examples=300, deadline=None)
@given(data=st.data(), s=offset, sweep_seed=seed)
def test_pairs(name, data, s, sweep_seed):
    target = PAIRS[name]
    x, theta = data.draw(_vector(target.dim)), data.draw(_vector(target.dim))
    _assert_bit_identical(target, x, theta, s, sweep_seed)


COMPONENTS = [
    *twin_triangles().components,
    *gaussian_pair().components,
    *ONE_GAUSSIAN.components,
    *FLAT_AND_GAUSSIAN.components,
]


@settings(max_examples=300, deadline=None)
@given(x=_vector(2), theta=_vector(2), s=offset, sweep_seed=seed, which=st.integers(0, len(COMPONENTS) - 1))
def test_components(x, theta, s, sweep_seed, which):
    comp = COMPONENTS[which]
    _assert_bit_identical(comp, x[: comp.dim], theta[: comp.dim], s, sweep_seed)


EVAL_TARGETS = [twin_triangles(), gaussian_pair(), ONE_GAUSSIAN, INTERVAL, BALL, FLAT_AND_GAUSSIAN]
EVAL_TARGETS += [PAIRS[name] for name in sorted(PAIRS)]


@settings(max_examples=200, deadline=None)
@given(x=_vector(7), which=st.integers(0, len(EVAL_TARGETS) - 1))
def test_eval_density_is_the_array_density(x, which):
    target = EVAL_TARGETS[which]
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
