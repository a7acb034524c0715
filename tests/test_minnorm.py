"""Minimum-norm point over a finite vertex hull."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from codiffsp import min_norm_point


def test_two_unit_vertices():
    q, t = min_norm_point([[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(q, [0.5, 0.5], atol=1e-9)
    assert np.allclose(t, [0.5, 0.5], atol=1e-9)


def test_hull_containing_origin():
    V = [[1.0, 1.0], [-1.0, 1.0], [0.0, -2.0]]
    q, _ = min_norm_point(V)
    assert np.linalg.norm(q) <= 1e-8


def test_singleton():
    q, t = min_norm_point([[2.0]])
    assert q == pytest.approx(2.0)
    assert t.tolist() == [1.0]


def test_coefficients_are_simplex():
    rng = np.random.default_rng(0)
    for _ in range(50):
        V = rng.normal(size=(rng.integers(2, 30), rng.integers(1, 6)))
        q, t = min_norm_point(V)
        assert t.min() >= 0.0
        assert t.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(V.T @ t, q, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(2, 24), st.integers(1, 5)),
        elements=st.floats(-10, 10, allow_nan=False),
    )
)
@example(
    np.array(
        [[0.0, 1.5, 7.0, -1.0], [-1.0, -1.0, -1.0, 0.0], [10.0, 7.5, -1.0, 5.0], [0.0, 0.0, -1.0, -1.0]]
        + [[-1.0, -1.0, -1.0, -1.0]] * 4
    )
)
def test_wolfe_certificate(V):
    q, _ = min_norm_point(V)
    # optimality: the hull lies on the far side of the supporting hyperplane
    slack = (V - q) @ q
    assert slack.min() >= -1e-8
