"""Codifferential calculus: vertex sets, expansions, quasidifferentials, pruning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codiffsp import (
    CodiffPair,
    Space,
    VertexCapExceeded,
    absolute,
    affine,
    codiff,
    dc,
    dirderiv,
    evaluate,
    expansion_value,
    maximum,
    prune,
    quad,
    quasidiff,
    scale,
)

from conftest import random_case

SP1 = Space(d=1, m=0, q=0)


def _rows(arr):
    return {tuple(np.round(r, 12)) for r in arr}


def test_abs_at_kink():
    cd = codiff(absolute(SP1.x(0)), [0.0])
    assert _rows(cd.hypo) == {(0.0, 1.0), (0.0, -1.0)}
    assert _rows(cd.hyper) == {(0.0, 0.0)}


def test_abs_off_kink():
    # at x=2 the inactive branch carries offset f_i(z) - f(z) = -4
    cd = codiff(absolute(SP1.x(0)), [2.0])
    assert _rows(cd.hypo) == {(0.0, 1.0), (-4.0, -1.0)}
    assert _rows(cd.hyper) == {(0.0, 0.0)}


def test_dc_of_identical_squares():
    sq = SP1.quad([[2.0]], psd=True)
    cd = codiff(dc(sq, sq), [3.0])
    assert _rows(cd.hypo) == {(0.0, 6.0)}
    assert _rows(cd.hyper) == {(0.0, -6.0)}


def test_smooth_atom_shapes():
    sp = Space(d=2, m=1, q=0)
    f = sp.quad(np.diag([2.0, 4.0, 6.0]), lin=[1.0, 0.0, 0.0], psd=True)
    cd = codiff(f, [1.0, 1.0], [1.0])
    assert cd.hypo.shape == (1, 4) and cd.hyper.shape == (1, 4)
    assert np.allclose(cd.hypo[0], [0.0, 3.0, 4.0, 6.0])
    assert np.allclose(cd.hyper[0], [0.0, 0.0, 0.0, 0.0])


def test_zero_at_zero_normalization():
    rng = np.random.default_rng(11)
    for _ in range(25):
        _, f, _, x, y, th = random_case(rng, max_depth=4)
        cd = codiff(f, x, y, th)
        assert abs(cd.hypo[:, 0].max()) <= 1e-12
        assert abs(cd.hyper[:, 0].min()) <= 1e-12



def test_offsets_match_evaluate():
    # the offset of each max branch is a(z) - f(z) with both values exactly
    # as evaluate returns them, not recomputed in another summation order
    sp = Space(d=3, m=2, q=2)
    for seed in range(200):
        rng = np.random.default_rng(seed)
        a, b = (
            sp.affine(c0=rng.normal(), cx=rng.normal(size=3), cy=rng.normal(size=2),
                      ct=rng.normal(size=2))
            for _ in range(2)
        )
        f = maximum(a, b)
        z = (rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2))
        fv = evaluate(f, *z)
        want = sorted([evaluate(a, *z) - fv, evaluate(b, *z) - fv])
        assert sorted(codiff(f, *z).hypo[:, 0].tolist()) == want, seed

def test_expansion_values_abs():
    cd = codiff(absolute(SP1.x(0)), [0.0])
    assert expansion_value(cd, [0.5]) == 0.5
    assert expansion_value(cd, [0.0]) == 0.0
    neg = codiff(scale(-1.0, absolute(SP1.x(0))), [0.0])
    assert expansion_value(neg, [1.0]) == -1.0


def test_expansion_exact_on_piecewise_linear():
    # offsets reconstruct the full envelope, not only the first order term
    sp = Space(d=2, m=0, q=0)
    f = maximum(sp.x(0), sp.x(1), sp.affine(c0=-1.0, cx=[0.5, 0.5]))
    z = np.array([2.0, -1.0])
    cd = codiff(f, z)
    rng = np.random.default_rng(5)
    for _ in range(100):
        h = rng.uniform(-3, 3, 2)
        lhs = evaluate(f, z + h, [])
        rhs = evaluate(f, z, []) + expansion_value(cd, h)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_scale_negative_swaps_sets():
    f = absolute(SP1.x(0))
    cd = codiff(f, [2.0])
    neg = codiff(scale(-3.0, f), [2.0])
    assert _rows(neg.hyper) == {tuple(-3.0 * np.array(v)) for v in _rows(cd.hypo)}
    assert _rows(neg.hypo) == {tuple(-3.0 * np.array(v)) for v in _rows(cd.hyper)}


def test_quasidiff_abs():
    qd = quasidiff(codiff(absolute(SP1.x(0)), [0.0]))
    assert _rows(qd.sub) == {(1.0,), (-1.0,)}
    assert _rows(qd.sup) == {(0.0,)}
    assert dirderiv(qd, [1.0]) == 1.0
    assert dirderiv(qd, [-1.0]) == 1.0


def test_quasidiff_drops_inactive_branch():
    qd = quasidiff(codiff(absolute(SP1.x(0)), [2.0]))
    assert _rows(qd.sub) == {(1.0,)}


def test_dirderiv_matches_max_min_form():
    rng = np.random.default_rng(2)
    qd = quasidiff(
        codiff(absolute(Space(d=3, m=0, q=0).x(0)), [0.0, 1.0, 1.0])
    )
    h = rng.normal(size=3)
    assert dirderiv(qd, h) == pytest.approx(max(qd.sub @ h) + min(qd.sup @ h))


def test_prune_drops_midpoint():
    hypo = np.array([[0.0, 1.0], [0.0, -1.0], [0.0, 0.0]])  # midpoint redundant
    hyper = np.array([[0.0, 0.0]])
    fat = CodiffPair(hypo=hypo, hyper=hyper, dim=1)
    slim = prune(fat)
    assert _rows(slim.hypo) == {(0.0, 1.0), (0.0, -1.0)}


def test_prune_is_idempotent_and_preserves_expansions():
    rng = np.random.default_rng(17)
    for _ in range(20):
        _, f, _, x, y, th = random_case(rng, max_depth=4)
        cd = codiff(f, x, y, th)
        slim = prune(cd)
        again = prune(slim)
        assert slim.hypo.shape == again.hypo.shape
        assert slim.hyper.shape == again.hyper.shape
        for _ in range(100):
            h = rng.normal(size=cd.dim)
            assert expansion_value(slim, h) == pytest.approx(
                expansion_value(cd, h), abs=1e-12
            )


def test_prune_collinear_cloud():
    # 20 points on a segment collapse to its two endpoints
    t = np.linspace(0.0, 1.0, 20)
    hypo = np.stack([np.zeros(20) - t, 1.0 - 2.0 * t], axis=1)
    fat = CodiffPair(hypo=hypo, hyper=np.zeros((1, 2)), dim=1)
    slim = prune(fat)
    assert slim.hypo.shape[0] == 2


def test_prune_scaled_hull_drops_interior():
    # membership is judged relative to the vertex scale, so a hull scaled by
    # 1e8 sheds its interior points as the unit hull does
    rng = np.random.default_rng(3)
    corners = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    inner = rng.uniform(-0.9, 0.9, size=(10, 2))
    for scale_ in (1.0, 1e8):
        pts = scale_ * np.vstack((corners, inner))
        hypo = np.hstack((np.zeros((pts.shape[0], 1)), pts))
        slim = prune(CodiffPair(hypo=hypo, hyper=np.zeros((1, 3)), dim=2))
        assert _rows(slim.hypo / scale_) == _rows(np.hstack((np.zeros((4, 1)), corners)))


def test_vertex_cap_exceeded():
    sp = Space(d=6, m=0, q=0)
    z = np.zeros(6)

    def fan(phase):
        # 70 affines tangent to a circle: every hypo vertex is extreme
        terms = []
        for i in range(70):
            t = phase + 2.0 * np.pi * i / 70.0
            cx = np.zeros(6)
            cx[0], cx[1] = np.cos(t), np.sin(t)
            terms.append(sp.affine(cx=cx))
        return maximum(*terms)

    f = fan(0.0) + fan(0.013)
    with pytest.raises(VertexCapExceeded):
        codiff(f, z)


def test_max_rule_pointwise():
    sp = Space(d=1, m=1, q=0)
    a = sp.quad(np.eye(2), lin=[0.0, -1.0], psd=True)
    b = sp.affine(c0=0.25, cx=[1.0], cy=[0.0])
    f = maximum(a, b)
    x, y = np.array([0.6]), np.array([0.2])
    cd = codiff(f, x, y)
    qd = quasidiff(cd)
    for h in ([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.3, -0.7]):
        fd = (evaluate(f, x + 1e-7 * np.asarray(h)[:1], y + 1e-7 * np.asarray(h)[1:])
              - evaluate(f, x, y)) / 1e-7
        assert dirderiv(qd, h) == pytest.approx(fd, abs=1e-5)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_expansion_dominates_first_order(seed):
    # at alpha -> 0 the expansion reproduces the one-sided derivative
    rng = np.random.default_rng(seed)
    dims, f, K, x, y, th = random_case(rng, max_depth=3)
    d, m, _ = dims
    h = rng.normal(size=d + m)
    nh = np.linalg.norm(h)
    if nh == 0.0:
        return
    h /= nh
    cd = codiff(f, x, y, th)
    a = 1e-5
    lhs = evaluate(f, x + a * h[:d], y + a * h[d:], th)
    rhs = evaluate(f, x, y, th) + expansion_value(cd, a * h)
    assert abs(lhs - rhs) <= 0.5 * K * a * a + 1e-9
