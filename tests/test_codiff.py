"""Codifferential calculus: vertex sets, expansions, quasidifferentials, pruning."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codiffsp import (
    CodiffPair,
    CodiffspError,
    DimensionMismatch,
    FirstStageSet,
    NonFinite,
    Point,
    ScenarioSpace,
    TwoStageProblem,
    Space,
    VertexCapExceeded,
    absolute,
    add,
    affine,
    codiff,
    constant,
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

from codiffsp.codiff import AUTO_PRUNE_AT, _vertex_blocks, _walk, codiff_rows
from codiffsp.model import generate
from codiffsp.optimality import check_optimality, inf_stationarity_measure
from codiffsp.penalty import PenaltySpec, penalty_codiff
from codiffsp.solvers import dc_decompose

from conftest import ragged_case, random_case, random_rows_cases

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



def test_zero_at_zero_check_refuses_nan_offsets():
    f = maximum(Space(2, 1, 1).affine(cx=[1, 2]), constant(1.0))
    with pytest.raises(CodiffspError) as ei:
        codiff(f, [np.nan, 1.0], [1.0], [1.0])
    assert ei.value.code == "ZERO_AT_ZERO"


def test_non_finite_input_is_zero_at_zero_in_a_rows_pass():
    # max(x0, x1) at x0 = -inf: the plan pass's gap x0 - max is -inf, an
    # offset that is not finite; the rows pass refuses it as the walk does,
    # alone or beside a finite row
    sp = Space(2, 1, 1)
    f = maximum(sp.affine(cx=[1.0, 0.0]), sp.affine(cx=[0.0, 1.0]))
    assert f._plan is not None
    for call in (lambda: codiff(f, [-np.inf, 0.0], [1.0], [1.0]),
                 lambda: codiff_rows(f, [[1.0, 0.0], [-np.inf, 0.0]], [[1.0], [1.0]], [1.0])):
        with pytest.raises(CodiffspError) as ei:
            call()
        assert ei.value.code == "ZERO_AT_ZERO"


def test_walk_refuses_nan_rows_as_the_plan_does():
    # f has no plan, so rows go through the walk, whose pruning NNLS raised
    # scipy's ValueError on a NaN; the plan path's answer is ZERO_AT_ZERO
    p, z = ragged_case()
    assert p.f._plan is None
    Y = z.y.copy()
    Y[1] = np.nan
    with pytest.raises(CodiffspError) as ei:
        _vertex_blocks(p.f, z.x, Y, p.scenarios.params)
    assert ei.value.code == "ZERO_AT_ZERO"


def test_overflow_is_nonfinite():
    # finite inputs whose values overflow: inf - inf in the branch gaps, and
    # quad values past the float range at y = 1e200 * witness y; under this
    # suite's settings a RuntimeWarning would fail the test too
    f = maximum(Space(2, 1, 1).affine(cx=[1, 2]), constant(1.0))
    with pytest.raises(NonFinite, match="scenario 0"):
        codiff(f, [1e308, 1e308], [1.0], [1.0])
    p = generate(1000, d=2, m=2, S=3, l=2, dc=True)
    w = p.witness
    with pytest.raises(NonFinite):
        penalty_codiff(p, PenaltySpec("l1_max", 10.0), Point(x=w.x, y=1e200 * w.y)).least_norm(
            p.A, w.x, 1e-9)


def test_overflow_names_the_first_bad_scenario():
    # scenario 1 of three leaves the float range; the others stay finite
    p = generate(1000, d=2, m=2, S=3, l=2, dc=True)
    y = p.witness.y.copy()
    y[1] *= 1e200
    with pytest.raises(NonFinite, match="scenario 1"):
        penalty_codiff(p, PenaltySpec("l1_max", 10.0), Point(x=p.witness.x, y=y))


def test_finite_rows_too_large_to_measure_are_nonfinite():
    # f's slopes 1e100 * z reach 1e160 at x = 1e60 while every value stays
    # finite; the norm of the least-norm point would overflow
    sp = Space(d=1, m=1, q=0)
    g = maximum(sp.affine(-1.0, cy=[1.0]), sp.affine(-2.0, cy=[2.0]))
    p = TwoStageProblem(d=1, m=1, A=FirstStageSet.free(), f=quad(sp.dims, 1e100 * np.eye(2),
                        psd=True), g=(g,), scenarios=ScenarioSpace(
                            probs=np.full(2, 0.5), params=np.zeros((2, 0))))
    z = Point(x=[1e60], y=[[-1.0], [-2.0]])
    assert np.isfinite(penalty_codiff(p, PenaltySpec("l1_max", 10.0), z).H).all()
    for measure in (inf_stationarity_measure, check_optimality):
        with pytest.raises(NonFinite, match="too large"):
            measure(p, 10.0, z)


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


def test_expansion_stack_matches_one_direction():
    # a (K, n) stack gives each row's value; one direction keeps the bits of
    # max_hypo (a + V @ h) + min_hyper (b + W @ h)
    rng = np.random.default_rng(23)
    for _ in range(20):
        _, f, _, x, y, th = random_case(rng, max_depth=4)
        cd = codiff(f, x, y, th)
        H = rng.normal(size=(7, cd.dim)) * 10.0 ** rng.uniform(-6, 1, (7, 1))
        stack = expansion_value(cd, H)
        assert stack.shape == (7,)
        for h, v in zip(H, stack):
            one = expansion_value(cd, h)
            ref = (cd.hypo[:, 0] + cd.hypo[:, 1:] @ h).max() + (cd.hyper[:, 0] + cd.hyper[:, 1:] @ h).min()
            assert type(one) is float and one == float(ref)
            assert v == pytest.approx(one, rel=1e-12, abs=1e-12)


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


# ---------------------------------------------------------------------------
# rows pass against the one-point calculus


def _pair_bits(cd):
    return cd.hypo.shape, cd.hypo.tobytes(), cd.hyper.shape, cd.hyper.tobytes()


def _rows_match_points(f, X, Y, TH):
    """codiff_rows gives every row the bits of codiff at that row (returns
    the pairs), or raises the VertexCapExceeded of the first row whose codiff
    raises (returns None)."""
    want = []
    for x, y, th in zip(X, Y, TH):
        try:
            want.append(codiff(f, x, y, th))
        except VertexCapExceeded as e:
            with pytest.raises(VertexCapExceeded) as ei:
                codiff_rows(f, X, Y, TH)
            assert str(ei.value) == str(e)
            return None
    assert list(map(_pair_bits, codiff_rows(f, X, Y, TH))) == list(map(_pair_bits, want))
    return want


def test_rows_match_one_point_codiff():
    for f, X, Y, TH in random_rows_cases(40):
        assert _rows_match_points(f, X, Y, TH) is not None


def test_rows_values_have_evaluate_bits():
    # the values a rows pass hands back, one pass or row by row when ragged
    for f, X, Y, TH in random_rows_cases(40):
        vals = _vertex_blocks(f, X, Y, TH)[2]
        assert vals.shape == (X.shape[0],) and len(codiff_rows(f, X, Y, TH)) == X.shape[0]
        want = [evaluate(f, x, y, th) for x, y, th in zip(X, Y, TH)]
        assert vals.tobytes() == np.array(want).tobytes()


def test_rows_take_a_shared_x_with_the_bits_of_repeated_rows():
    # x as one (d,) row every row shares: the vertex arrays, values and
    # their shapes of the pass over x repeated, where the root is in x alone
    # and where the sets outgrow a rows pass (the walk's padded rows)
    rng = np.random.default_rng(5)
    cases = [(f, X[0], Y, TH) for f, X, Y, TH in random_rows_cases(20)]
    sp = Space(d=2, m=1, q=1)
    in_x = maximum(sp.affine(0.5, cx=[1.0, -1.0]), absolute(sp.affine(cx=[0.0, 2.0])))
    cases.append((in_x, np.array([0.5, 0.0]), rng.normal(size=(4, 1)), rng.normal(size=(4, 1))))
    p, z = ragged_case()
    cases.append((p.f, z.x, z.y, p.scenarios.params))
    for f, x, Y, TH in cases:
        shared = _vertex_blocks(f, x, Y, TH)
        rows = _vertex_blocks(f, np.repeat(x[None], Y.shape[0], axis=0), Y, TH)
        for u, v in zip(shared, rows, strict=True):
            assert u.shape == v.shape and u.tobytes() == v.tobytes()


def _fan(sp, phase, k):
    # k affines tangent to a circle: every hypo vertex of their max is extreme
    terms = []
    for i in range(k):
        t = phase + 2.0 * np.pi * i / k
        cx = np.zeros(sp.d)
        cx[0], cx[1] = np.cos(t), np.sin(t)
        terms.append(sp.affine(cx=cx))
    return maximum(*terms)


def test_rows_fall_back_where_a_point_prunes():
    rng = np.random.default_rng(3)
    sp = Space(d=6, m=0, q=0)
    X = np.vstack((np.zeros(6), rng.uniform(-1.0, 1.0, (2, 6))))
    none = np.zeros((3, 0))
    # 70 x 70 exceeds MAX_VERTICES in every row
    assert _rows_match_points(_fan(sp, 0.0, 70) + _fan(sp, 0.013, 70), X, none, none) is None
    # 70 x 4 lies between AUTO_PRUNE_AT and MAX_VERTICES: each row prunes
    f = _fan(sp, 0.0, 70) + _fan(sp, 0.013, 4)
    assert all(cd.hypo.shape[0] < 280 for cd in _rows_match_points(f, X, none, none))
    # a sum of 9 abs terms, 2^9 hypo vertices before pruning, five of them
    # at their kinks in the first row: the rows prune to different counts
    sp = Space(d=2, m=1, q=1)
    X, Y, TH = rng.normal(size=(3, 2)), rng.normal(size=(3, 1)), rng.normal(size=(3, 1))
    terms = []
    for i in range(9):
        cx, cy, ct = rng.normal(size=2), rng.normal(size=1), rng.normal(size=1)
        c0 = -float(cx @ X[0] + cy @ Y[0] + ct @ TH[0]) if i < 5 else rng.normal()
        terms.append(absolute(sp.affine(c0, cx, cy, ct)))
    f = add(*terms)
    assert 2**9 > AUTO_PRUNE_AT
    counts = [cd.hypo.shape[0] for cd in _rows_match_points(f, X, Y, TH)]
    assert max(counts) < 2**9 and counts[0] < counts[1]


def test_rows_raise_vertex_cap_like_one_point(monkeypatch):
    cases = random_rows_cases(40)
    monkeypatch.setattr(sys.modules["codiffsp.codiff"], "MAX_VERTICES", 8)
    raised = [_rows_match_points(f, X, Y, TH) is None for f, X, Y, TH in cases]
    assert any(raised) and not all(raised)


def test_quad_gradient_has_matrix_vector_bits():
    # the stacked product (Q @ Z[:, :, None])[..., 0] + lin of the rows pass
    # against Q @ z + lin at each point; Z @ Q.T sums in another order
    rng = np.random.default_rng(5)
    for n in range(2, 7):
        sp = Space(d=1, m=n - 1, q=0)
        B = rng.normal(size=(n, n))
        f = sp.quad(B + B.T, lin=rng.normal(size=n))
        Z = rng.normal(size=(8, n)) * 10.0 ** rng.uniform(-3, 3, (8, 1))
        rows = codiff_rows(f, Z[:, :1], Z[:, 1:], np.zeros((8, 0)))
        for z, cd in zip(Z, rows):
            assert cd.hypo[0, 1:].tobytes() == (f.Q @ z + f.lin).tobytes()


def test_sum_lists_vertices_first_term_outer():
    # hypo of max(a, b) + max(c, e) is [a+c, a+e, b+c, b+e]: the vertex
    # order, and so the bytes, of the calculus before rows
    sp = Space(d=2, m=0, q=0)
    a, b, c, e = ([1.0, 0.0], [2.0, 0.0], [0.0, 10.0], [0.0, 20.0])
    f = maximum(sp.affine(cx=a), sp.affine(cx=b)) + maximum(sp.affine(cx=c), sp.affine(cx=e))
    for cd in [codiff(f, [0.0, 0.0])] + codiff_rows(f, np.zeros((2, 2)), np.zeros((2, 0)),
                                                     np.zeros((2, 0))):
        assert cd.hypo[:, 1:].tolist() == [[1.0, 10.0], [1.0, 20.0], [2.0, 10.0], [2.0, 20.0]]


def test_zero_tie_offsets_follow_builtin_max():
    # at x = 0 the outer max compares -0.0 (the concave child, whose hypo
    # offset is -0.0) with 0.0; the builtin max keeps -0.0 and the offset
    # shift -0.0 - (-0.0) = 0.0 clears the sign, where np.maximum's 0.0 would
    # leave a -0.0 offset.  Likewise in rows.
    x = SP1.x(0)
    f = maximum(scale(-1.0, maximum(x, scale(-1.0, x))), SP1.constant(0.0))
    X = np.array([[0.0], [0.0], [1.0]])
    for cd in [codiff(f, [0.0])] + codiff_rows(f, X, np.zeros((3, 0)), np.zeros((3, 0)))[:2]:
        assert not np.signbit(cd.hypo[:, 0]).any()


def test_rows_check_blocks():
    sp = Space(d=1, m=1, q=1)
    f = absolute(sp.affine(0.0, [1.0], [1.0], [1.0]))
    with pytest.raises(DimensionMismatch):
        codiff_rows(f, np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((2, 2)))
    with pytest.raises(DimensionMismatch):
        codiff_rows(f, np.zeros((2, 1)), np.zeros((3, 1)), np.zeros((2, 1)))
    assert codiff_rows(f, np.zeros((0, 1)), np.zeros((0, 1)), np.zeros((0, 1))) == []


# ---------------------------------------------------------------------------
# the compiled plan against the walk of the rules on numbers


def _generated_cases(S):
    """(expr, x, Y, TH): every integrand of generate(s, dc=True) at S, over
    its scenarios at the witness and at a point moved off it, x shared."""
    cases = []
    for seed in (91000, 1000):
        p = generate(seed, d=2, m=2, S=S, l=2, dc=True)
        dec = dc_decompose(p, 10.0)
        th = p.scenarios.params
        y_out = p.witness.y + 2.0 * np.random.default_rng(seed).normal(size=p.witness.y.shape)
        for f in (p.f, *p.g, p.g_plus, p.penalty_integrand(10.0), dec.plus, dec.minus):
            cases += [(f, p.witness.x, y, th) for y in (p.witness.y, y_out)]
    return cases


def _walked_rows(f, X, Y, TH):
    return [_walk(f, X if X.ndim == 1 else X[r], Y[r], TH[r]) for r in range(Y.shape[0])]


@pytest.mark.parametrize("source", ["random", "S=3", "S=100"])
def test_plan_matches_the_walk(source):
    # the same vertex counts and order as the rules run on each row's
    # numbers, entries within 1e-13 of the set's largest |entry|, values
    # with the same bits
    cases = random_rows_cases(40) if source == "random" else _generated_cases(int(source[2:]))
    planned = 0
    for f, X, Y, TH in cases:
        H, G, v = _vertex_blocks(f, X, Y, TH)
        if f._plan is None:
            assert v.shape == (Y.shape[0],)
            continue
        planned += 1
        for r, (h, g, w) in enumerate(_walked_rows(f, X, Y, TH)):
            for got, want in ((H[r], h[0]), (G[r], g[0])):
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
            assert v[r:r + 1].tobytes() == w.tobytes()
    assert planned >= 0.9 * len(cases)


def test_generated_rows_passes_never_walk(monkeypatch):
    def walk(*args):
        raise AssertionError("a rows pass walked the rules on numbers")

    # codiffsp.codiff names the re-exported function; patch the module's walk
    monkeypatch.setattr(sys.modules["codiffsp.codiff"], "_walk", walk)
    for S in (3, 100):
        for f, x, Y, TH in _generated_cases(S):
            H, G, _v = _vertex_blocks(f, x, Y, TH)
            assert np.isfinite(H).all() and np.isfinite(G).all()  # no pad rows
            codiff(f, x, Y[0], TH[0])
        p = generate(1000, d=2, m=2, S=S, l=2, dc=True)
        penalty_codiff(p, PenaltySpec("l1_max", 10.0), p.witness).least_norm(p.A, p.witness.x, 1e-6)


def test_dc_nodes_keep_zero_offsets_exactly():
    # a dc node's hypo offsets have max exactly 0 and its hyper offsets min
    # exactly 0 with no renormalization, by the plan and by the walk alike
    cases = random_rows_cases(40) + _generated_cases(3)
    seen = 0
    for f, X, Y, TH in cases:
        for e, _kids in f._tape:
            if e.kind != "dc":
                continue
            seen += 1
            walked = [(h[0], g[0]) for h, g, _w in _walked_rows(e, X, Y, TH)]
            for cd in codiff_rows(e, X, Y, TH):
                walked.append((cd.hypo, cd.hyper))
            for hypo, hyper in walked:
                assert hypo[:, 0].max() == 0.0 and hyper[:, 0].min() == 0.0
    assert seen >= 20
