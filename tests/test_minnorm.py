"""Minimum-norm point over a finite vertex hull and over sums of hulls."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from codiffsp import min_norm_point
from codiffsp._minnorm import _first_columns, _least_norm


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


def test_blocks_match_minkowski_sum():
    # co(V_1) + co(V_2) (+ co(V_3)) + cone(R) against one hull over every
    # sum of one vertex per block; integer draws repeat rows and tie
    rng = np.random.default_rng(11)
    for i in range(300):
        n = int(rng.integers(1, 6))
        scale = 10.0 ** rng.uniform(-4, 4)
        if i % 2:
            draw = lambda k: rng.integers(-2, 3, size=(k, n)).astype(float)
        else:
            draw = lambda k: rng.normal(size=(k, n))
        blocks = [scale * draw(int(rng.integers(1, 5))) for _ in range(int(rng.integers(2, 4)))]
        R = scale * draw(int(rng.integers(0, 3)))
        sizes = [b.shape[0] for b in blocks]
        V = np.vstack(blocks)
        q, t, mu = _least_norm(V, R, sizes)
        assert t.min() >= 0.0 and (mu.size == 0 or mu.min() >= 0.0)
        owner = np.repeat(np.arange(len(sizes)), sizes)
        assert np.allclose(np.bincount(owner, weights=t), 1.0, atol=1e-12)
        assert np.allclose(q, t @ V + mu @ R, atol=1e-12 * scale)
        P = np.array([sum(c) for c in itertools.product(*blocks)])
        ref = _least_norm(P, R)[0]
        assert abs(np.linalg.norm(q) - np.linalg.norm(ref)) <= 1e-12 * scale


def test_first_columns_match_unique():
    # repeated columns, and columns equal up to the sign of a zero
    rng = np.random.default_rng(3)
    for i in range(200):
        n, k = int(rng.integers(1, 5)), int(rng.integers(1, 12))
        E = rng.integers(-1, 2, size=(n, k)).astype(float)
        if i % 2:
            E = np.where(rng.random(E.shape) < 0.5, E * rng.normal(), E)
        E[E == 0.0] *= np.where(rng.random(int((E == 0.0).sum())) < 0.5, -1.0, 1.0)
        _, want = np.unique(E, axis=1, return_index=True)
        assert _first_columns(E).tolist() == sorted(want.tolist())
    E = np.array([[0.0, -0.0, 1.0, 0.0], [1.0, 1.0, 1.0, -0.0]])
    assert _first_columns(E).tolist() == [0, 2, 3]


def _fold_case(rng, sizes, rays):
    """Blocks of the given sizes and rays in R^n at a random scale; integer
    draws in every other case repeat rows and tie."""
    n = int(rng.integers(1, 6))
    scale = 10.0 ** rng.uniform(-4, 4)
    if rng.random() < 0.5:
        draw = lambda k: rng.integers(-2, 3, size=(k, n)).astype(float)
    else:
        draw = lambda k: rng.normal(size=(k, n))
    return [scale * draw(k) for k in sizes], scale * draw(rays), scale


def _check_against_minkowski_sum(blocks, R, scale):
    sizes = [b.shape[0] for b in blocks]
    V = np.vstack(blocks)
    q, t, mu = _least_norm(V, R, sizes)
    assert t.min() >= 0.0 and (mu.size == 0 or mu.min() >= 0.0)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    assert np.allclose(np.bincount(owner, weights=t), 1.0, atol=1e-12)
    assert np.allclose(q, t @ V + mu @ R, atol=1e-12 * scale)
    P = np.array([sum(c) for c in itertools.product(*blocks)])
    ref = _least_norm(P, R)[0]
    assert abs(np.linalg.norm(q) - np.linalg.norm(ref)) <= 1e-12 * scale
    return t, owner


@pytest.mark.parametrize("rays", [False, True])
def test_fold_mixes_one_vertex_and_hull_blocks(rays):
    # one-vertex blocks are translations of the first hull block; the sum
    # of hulls keeps its least-norm point, rays or none
    rng = np.random.default_rng(21 + rays)
    for _ in range(200):
        sizes = [int(k) for k in rng.integers(1, 5, size=int(rng.integers(2, 5)))]
        sizes[int(rng.integers(len(sizes)))] = 1
        sizes[int(rng.integers(len(sizes)))] = int(rng.integers(2, 5))
        blocks, R, scale = _fold_case(rng, sizes, int(rng.integers(1, 3)) if rays else 0)
        _check_against_minkowski_sum(blocks, R, scale)


def test_fold_of_one_vertex_blocks_and_rays():
    # every block a single vertex: the set is one point plus the cone
    rng = np.random.default_rng(23)
    for _ in range(200):
        blocks, R, scale = _fold_case(rng, [1] * int(rng.integers(2, 6)), int(rng.integers(1, 4)))
        t, _owner = _check_against_minkowski_sum(blocks, R, scale)
        assert t.tolist() == [1.0] * len(blocks)


def test_folded_blocks_report_unit_weight():
    # t is exactly 1 on every one-vertex block and on the simplex elsewhere
    rng = np.random.default_rng(29)
    for _ in range(200):
        sizes = [int(k) for k in rng.integers(1, 4, size=int(rng.integers(2, 6)))]
        blocks, R, scale = _fold_case(rng, sizes, int(rng.integers(0, 3)))
        t, owner = _check_against_minkowski_sum(blocks, R, scale)
        lone = np.repeat(np.array(sizes) == 1, sizes)
        assert (t[lone] == 1.0).all()
        for b, k in enumerate(sizes):
            if k > 1:
                assert t[owner == b].min() >= 0.0
                assert abs(t[owner == b].sum() - 1.0) <= 1e-12
