"""Minimum-norm point over a finite vertex hull and over sums of hulls."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import nnls

from codiffsp import (
    DimensionMismatch, NonFinite, SolveOpts, _minnorm, check_optimality, dca_solve, generate,
    inf_stationarity_measure, min_norm_point,
)
from codiffsp._minnorm import (
    PRODUCT_CAP, SEGMENT_MIN_BLOCKS, _first_columns, _layout_least_norm, _least_norm,
    _segments_least_norm, inside,
)


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


@pytest.mark.parametrize("V, error", [
    ([[np.nan, 1.0]], NonFinite),
    ([[np.inf, 1.0], [0.0, 1.0]], NonFinite),
    (np.zeros((2, 0)), DimensionMismatch),
    (np.zeros((0, 2)), DimensionMismatch),
])
def test_min_norm_point_refuses_bad_vertices(V, error):
    with pytest.raises(error):
        min_norm_point(V)


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


def _check_against_minkowski_sum(blocks, R, scale, solve=_least_norm):
    sizes = [b.shape[0] for b in blocks]
    V = np.vstack(blocks)
    q, t, mu = solve(V, R, sizes)
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


def _layout_case(rng, sizes, rays, ints=None):
    """(blocks, R, d, scale): blocks of the given sizes in the layout nu
    declares, d shared coordinates and then m private to each block in turn,
    x-parts weighted by p = 1/B and private parts by sqrt(p) as in
    BlockCodiff.least_norm, at a random scale; R holds unit box normals on
    min(rays, d) distinct shared coordinates.  Integer draws (by default in
    half the cases) repeat rows and tie."""
    d, m, B = int(rng.integers(1, 4)), int(rng.integers(1, 3)), len(sizes)
    rays = min(rays, d)
    scale = 10.0 ** rng.uniform(-4, 4)
    ints = rng.random() < 0.5 if ints is None else ints
    blocks = []
    for b, k in enumerate(sizes):
        rows = np.zeros((k, d + B * m))
        draw = rng.integers(-2, 3, size=(k, d + m)).astype(float) if ints else rng.normal(size=(k, d + m))
        rows[:, :d] = draw[:, :d] / B
        rows[:, d + b * m:d + (b + 1) * m] = draw[:, d:] / np.sqrt(B)
        blocks.append(scale * rows)
    R = np.zeros((rays, d + B * m))
    R[np.arange(rays), rng.permutation(d)[:rays]] = rng.choice([-1.0, 1.0], size=rays)
    return blocks, R, d, scale


def _parts(V, sizes, d):
    """(W, owner): the parts of rows V in nu's layout, row j's d shared
    coordinates and then the private run of its block owner[j]."""
    k, B = V.shape[0], len(sizes)
    owner = np.repeat(np.arange(B), sizes)
    return np.hstack((V[:, :d], V[:, d:].reshape(k, B, -1)[np.arange(k), owner])), owner


def _segments(V, R, sizes, d):
    """The segment path on the parts of rows V and rays R in nu's layout;
    R lies in the shared part."""
    return _segments_least_norm(_parts(V, sizes, d)[0], R[:, :d], tuple(sizes))


def _layout(V, R, sizes, d):
    """_layout_least_norm on the parts of rows V in nu's layout, with R's
    rays, which lie in the shared part, as A's normals."""
    W, owner = _parts(V, sizes, d)
    return _layout_least_norm(W, owner, sizes, R[:, :d])


def _segment_solve(d, ran):
    """A _least_norm that takes the segment path at any block count, NNLS
    where it falls back; ran gets (served, flat) per call, flat when some
    segment has no private part (dy = 0), the one fallback the cases here
    excuse."""
    def solve(V, R, sizes):
        out = _segments(V, R, sizes, d)
        at = np.cumsum(sizes) - np.array(sizes)
        a = at[np.array(sizes) == 2]
        ran.append((out is not None, bool((V[a, d:] == V[a + 1, d:]).all(axis=1).any())))
        return out or _least_norm(V, R, sizes)
    return solve


@pytest.mark.parametrize("rays", [False, True])
def test_segment_path_matches_minkowski_sum(rays):
    # segments and one-vertex blocks at scales 1e-4..1e4, rays on active
    # box faces or none, against one hull over every sum of one vertex per
    # block: the bounds of the NNLS kernel's tests
    rng = np.random.default_rng(31 + rays)
    ran = []
    for _ in range(300):
        sizes = [int(k) for k in rng.integers(1, 3, size=int(rng.integers(2, 7)))]
        sizes[int(rng.integers(len(sizes)))] = 2
        blocks, R, d, scale = _layout_case(rng, sizes, int(rng.integers(1, 3)) if rays else 0)
        t, owner = _check_against_minkowski_sum(blocks, R, scale, _segment_solve(d, ran))
        assert (t[np.repeat(np.array(sizes) == 1, sizes)] == 1.0).all()
    # the path serves every case but those with a segment along x alone,
    # ties on bounds and rays included
    assert all(served or flat for served, flat in ran)
    assert np.mean([served for served, _flat in ran]) >= 0.75


def test_segment_path_with_zero_inside():
    # each segment crosses its private 0 at a weight in (0, 1) and a
    # one-vertex block cancels the x-parts there: q is 0 to rounding
    rng = np.random.default_rng(37)
    ran = []
    for i in range(100):
        B = int(rng.integers(2, 6)) if i % 2 else 40
        blocks, R, d, scale = _layout_case(rng, [2] * B + [1], 0, ints=False)
        m = (blocks[0].shape[1] - d) // (B + 1)
        w = rng.uniform(0.1, 0.9, size=B)
        for b, rows in enumerate(blocks[:B]):
            priv = slice(d + b * m, d + (b + 1) * m)
            rows[0, priv] = -w[b] / (1.0 - w[b]) * rows[1, priv]
        at_w = sum((1.0 - w[b]) * rows[0, :d] + w[b] * rows[1, :d] for b, rows in enumerate(blocks[:B]))
        blocks[B][0] = 0.0
        blocks[B][0, :d] = -at_w
        V = np.vstack(blocks)
        q, t, mu = _segment_solve(d, ran)(V, R, [2] * B + [1])
        assert inside(q, V) and np.linalg.norm(q) <= 1e-12 * scale
        if B < 6:
            _check_against_minkowski_sum(blocks, R, scale, _segment_solve(d, ran))
    assert all(served for served, _flat in ran)


@pytest.mark.parametrize("rays", [0, 1, 2])
def test_segment_path_past_the_crossover_calls_no_nnls(monkeypatch, rays):
    # 40 blocks, a third of one vertex, through _layout_least_norm: never an
    # nnls call, and the NNLS kernel's point to 1e-12 of the scale
    rng = np.random.default_rng(41 + rays)
    cases = []
    for _ in range(60):
        sizes = [int(k) for k in rng.choice([1, 2, 2], size=40)]
        blocks, R, d, scale = _layout_case(rng, sizes, rays, ints=False)
        cases.append((np.vstack(blocks), R, sizes, d, scale))
    want = [_least_norm(V, R, sizes) for V, R, sizes, _d, _s in cases]
    calls = []
    monkeypatch.setattr(_minnorm, "nnls", lambda *a: calls.append(1) or nnls(*a))
    for (V, R, sizes, d, scale), (q0, _t0, _mu0) in zip(cases, want):
        q, t, mu = _layout(V, R, sizes, d)
        owner = np.repeat(np.arange(len(sizes)), sizes)
        assert t.min() >= 0.0 and (mu.size == 0 or mu.min() >= 0.0)
        assert np.allclose(np.bincount(owner, weights=t), 1.0, atol=1e-12)
        assert np.allclose(q, t @ V + mu @ R, atol=1e-12 * scale)
        assert abs(np.linalg.norm(q) - np.linalg.norm(q0)) <= 1e-12 * scale
        # the least-norm point is unique: its coordinates agree too
        assert np.abs(q - q0).max() <= 1e-12 * scale
    assert not calls


def test_segment_path_does_not_depend_on_units():
    # V in other units, rays the same unit normals: the same weights and q
    # in those units, so no slack of the path is absolute
    rng = np.random.default_rng(47)
    for _ in range(30):
        sizes = [int(k) for k in rng.choice([1, 2, 2], size=40)]
        blocks, R, d, scale = _layout_case(rng, sizes, 2, ints=False)
        V = np.vstack(blocks) / scale
        q, t, mu = _segments(V, R, sizes, d)
        for unit in (1e-4, 1e4):
            qu, tu, muu = _segments(unit * V, R, sizes, d)
            assert np.abs(qu / unit - q).max() <= 1e-12 * np.abs(V).max()
            assert np.abs(tu - t).max() <= 1e-9 and np.allclose(muu / unit, mu, atol=1e-9)


def test_segment_with_no_private_part_falls_back():
    # a segment along x alone (dy = 0) has no weight its own block fixes:
    # the call is the NNLS kernel's, bit for bit
    rng = np.random.default_rng(43)
    for _ in range(20):
        blocks, R, d, _scale = _layout_case(rng, [2] * SEGMENT_MIN_BLOCKS + [1], 1)
        b = int(rng.integers(SEGMENT_MIN_BLOCKS))
        blocks[b][1, d:] = blocks[b][0, d:]
        V, sizes = np.vstack(blocks), [2] * SEGMENT_MIN_BLOCKS + [1]
        assert _segments(V, R, sizes, d) is None
        got, want = _layout(V, R, sizes, d), _least_norm(V, R, sizes)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


@pytest.mark.parametrize("shared_part", [False, True])
def test_segment_layout_with_a_private_ray(shared_part):
    # the certificate's constraint rows are rays with y-parts, passed as
    # parts owned by their block: a ray with a private part is not the
    # segment path's, so the input, not the caller, sends the call to NNLS,
    # and it matches the Minkowski sum
    rng = np.random.default_rng(53 + shared_part)
    sizes = [2] * SEGMENT_MIN_BLOCKS + [1]
    blocks, _R, d, scale = _layout_case(rng, sizes, 0, ints=False)
    m = (blocks[0].shape[1] - d) // len(sizes)
    q0 = _least_norm(np.vstack(blocks), _R, sizes)[0]
    # against block b's private part of the point without it, so it shortens q
    b = int(np.argmax([np.abs(q0[d + i * m:d + (i + 1) * m]).max() for i in range(len(sizes))]))
    R = np.zeros((1, q0.shape[0]))
    R[0, d + b * m:d + (b + 1) * m] = -q0[d + b * m:d + (b + 1) * m]
    if shared_part:
        R[0, :d] = rng.normal(size=d) * scale

    def solve(V, R, sizes):
        W, owner = _parts(V, sizes, d)
        ray = np.hstack((R[:, :d], R[:, d + b * m:d + (b + 1) * m]))
        return _layout_least_norm(np.vstack((W, ray)), np.append(owner, b), sizes,
                                  np.zeros((0, d)))

    _check_against_minkowski_sum(blocks, R, scale, solve)


def _product_case(rng, multi, lone, rays):
    """Blocks of the given multi-vertex sizes and `lone` one-vertex blocks,
    shuffled, with their product columns: _fold_case's draws."""
    sizes = list(multi) + [1] * lone
    rng.shuffle(sizes)
    blocks, R, scale = _fold_case(rng, sizes, rays)
    P = np.array([sum(c) for c in itertools.product(*blocks)])
    return blocks, R, scale, P


@pytest.mark.parametrize("rays", [0, 2])
def test_product_path_meets_wolfe_certificate(rays):
    # independent of any least-norm solve: q is optimal over the product
    # columns P_j and the rays r iff <q, P_j - q> >= 0 and <q, r> >= 0
    rng = np.random.default_rng(61 + rays)
    for _ in range(300):
        multi = [int(k) for k in rng.integers(2, 5, size=int(rng.integers(2, 4)))]
        if np.prod(multi) > PRODUCT_CAP:
            continue
        blocks, R, scale, P = _product_case(rng, multi, int(rng.integers(0, 3)),
                                            int(rng.integers(0, rays + 1)))
        sizes = [b.shape[0] for b in blocks]
        q, t, mu = _least_norm(np.vstack(blocks), R, sizes)
        owner = np.repeat(np.arange(len(sizes)), sizes)
        assert t.min() >= 0.0 and (mu.size == 0 or mu.min() >= 0.0)
        assert np.allclose(np.bincount(owner, weights=t), 1.0, atol=1e-12)
        assert np.allclose(q, t @ np.vstack(blocks) + mu @ R, atol=1e-12 * scale)
        tol = 1e-12 * max(float(np.abs(P).max()), float(np.abs(R).max(initial=0.0))) ** 2
        assert ((P - q) @ q).min() >= -tol
        assert (R @ q).min(initial=0.0) >= -tol


@pytest.mark.parametrize("lone", [0, 2])
def test_blocks_past_the_product_cap_match_minkowski_sum(lone):
    # the weighted solve keeps the single-hull reference over the product
    rng = np.random.default_rng(67 + lone)
    for _ in range(40):
        multi = [int(k) for k in rng.integers(3, 6, size=3)]
        if np.prod(multi) <= PRODUCT_CAP:
            multi[0] = PRODUCT_CAP
        blocks, R, scale, _P = _product_case(rng, multi, lone, int(rng.integers(0, 3)))
        _check_against_minkowski_sum(blocks, R, scale)


@pytest.mark.parametrize("multi, product", [
    ((8, 8), True), ((5, 13), False), ((4, 4, 4), True), ((PRODUCT_CAP + 1, 2), False),
])
def test_path_at_the_product_cap(monkeypatch, multi, product):
    # PRODUCT_CAP columns take one single-hull solve over the product, one
    # more takes the weighted solve
    assert (np.prod(multi) <= PRODUCT_CAP) == product
    rng = np.random.default_rng(71)
    blocks, R, scale, _P = _product_case(rng, multi, 1, 1)
    calls, on_support = [], []
    real = _minnorm._blocks_least_norm
    monkeypatch.setattr(_minnorm, "_blocks_least_norm",
                        lambda V, R, sizes=None: calls.append((V.shape[0], sizes)) or real(V, R, sizes))
    monkeypatch.setattr(_minnorm, "_on_support",
                        lambda *a, s=_minnorm._on_support: on_support.append(1) or s(*a))
    _check_against_minkowski_sum(blocks, R, scale)
    # the first call is the kernel's own; the reference solve follows
    rows, sizes = calls[0]
    assert (rows, sizes is None) == ((int(np.prod(multi)), True) if product else (sum(multi), False))
    assert bool(on_support) != product


def test_one_dca_step_and_its_certificates_skip_the_weighted_solve(monkeypatch):
    # at S = 3 every multi-block call of nu and of the certificate fits
    # under PRODUCT_CAP
    def refuse(*args):
        raise AssertionError("the weighted solve ran")
    monkeypatch.setattr(_minnorm, "_on_support", refuse)
    for seed in range(1000, 1004):
        prob = generate(seed, d=2, m=2, S=3, l=2, dc=True)
        rep = dca_solve(prob, 10.0, prob.witness, SolveOpts(max_iter=1, escalate=False))
        check_optimality(prob, 10.0, rep.final_point)
        inf_stationarity_measure(prob, 10.0, rep.final_point)
