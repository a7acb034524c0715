"""Expression DAG construction, evaluation, predicates, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codiffsp import (
    DimensionMismatch,
    Space,
    ValidationError,
    absolute,
    add,
    affine,
    constant,
    dc,
    evaluate,
    evaluate_batch,
    maximum,
    minimum,
    quad,
    scale,
)
from codiffsp.expr import (
    dc_parts,
    from_json,
    is_affine_struct,
    is_convex_struct,
    is_smooth_struct,
    to_json,
)

from conftest import random_case, random_expr

SP2 = Space(d=1, m=1, q=0)


def test_abs_affine():
    f = absolute(SP2.x(0))
    assert evaluate(f, [-2.0], [0.0]) == 2.0


def test_max_pair_at_kink():
    f = maximum(SP2.x(0), -SP2.x(0))
    assert evaluate(f, [0.0], [0.0]) == 0.0


def test_quad_bowl():
    # (x-1)^2 + (y-1)^2
    f = SP2.quad(2.0 * np.eye(2), lin=[-2.0, -2.0], c0=2.0, psd=True)
    assert evaluate(f, [1.0], [1.0]) == 0.0
    assert evaluate(f, [0.0], [0.0]) == pytest.approx(2.0)


def test_operator_sugar():
    x = SP2.x(0)
    y = SP2.y(0)
    f = 2.0 * x + y - constant(3.0)
    assert evaluate(f, [1.0], [2.0]) == pytest.approx(1.0)
    assert evaluate(-f, [1.0], [2.0]) == pytest.approx(-1.0)
    assert evaluate(abs(f), [0.0], [1.0]) == pytest.approx(2.0)


def test_space_helpers():
    sp = Space(d=2, m=1, q=1)
    assert evaluate(sp.x(1), [0.0, 3.0], [0.0], [0.0]) == 3.0
    assert evaluate(sp.y(0, coeff=-2.0), [0.0, 0.0], [1.5], [0.0]) == -3.0
    assert evaluate(sp.theta(0), [0.0, 0.0], [0.0], [7.0]) == 7.0


def test_dimension_mismatch_on_evaluate():
    f = SP2.x(0)
    with pytest.raises(DimensionMismatch):
        evaluate(f, [1.0, 2.0], [0.0])


def test_dimension_mismatch_on_merge():
    a = Space(d=1, m=1, q=0).x(0)
    b = Space(d=2, m=1, q=0).x(0)
    with pytest.raises(DimensionMismatch):
        add(a, b)


def test_nonfinite_coefficient_rejected():
    with pytest.raises(ValidationError) as ei:
        affine(SP2.dims, c0=float("inf"), cx=[0.0], cy=[0.0], ct=[])
    assert ei.value.code == "NONFINITE"


def test_dc_requires_convex_parts():
    bad = quad(SP2.dims, [[0.0, 1.0], [1.0, 0.0]])  # indefinite
    ok = SP2.quad(np.eye(2), psd=True)
    with pytest.raises(ValidationError) as ei:
        dc(bad, ok)
    assert ei.value.code == "DC_NOT_CONVEX"


def _kinds(e):
    return {e.kind}.union(*(_kinds(ch) for ch in e.children))


def _ref_convex(e):
    """Reference for is_convex_struct, straight from its rules."""
    k, ch = e.kind, e.children
    if k in ("constant", "affine"):
        return True
    if k == "quad":
        return e.psd
    if k in ("add", "max"):
        return all(_ref_convex(c) for c in ch)
    if k == "scale":
        return _ref_convex(ch[0]) if e.lam >= 0.0 else _ref_affine(ch[0])
    if k == "abs":
        return _ref_affine(ch[0])
    return False


def _ref_affine(e):
    return _kinds(e) <= {"constant", "affine", "add", "scale"}


def _ref_smooth(e):
    return not _kinds(e) & {"max", "min", "abs", "dc"}


def test_structural_predicates():
    x = SP2.x(0)
    bowl = SP2.quad(np.eye(2), psd=True)
    assert is_affine_struct(add(x, constant(1.0)))
    assert not is_affine_struct(bowl)
    assert is_convex_struct(maximum(x, bowl))
    assert not is_convex_struct(minimum(x, bowl))
    assert not is_convex_struct(scale(-1.0, bowl))
    assert is_smooth_struct(add(bowl, x))
    assert not is_smooth_struct(absolute(x))
    # a shared node under both a max and a negative scale
    cases = []
    for shared, convex in ((add(x, bowl), False), (add(x, constant(1.0)), True)):
        f = add(maximum(shared, SP2.y(0)), scale(-2.0, shared))
        assert is_convex_struct(f) == convex
        assert not is_affine_struct(f) and not is_smooth_struct(f)
        cases.append(f)
    cases += [random_case(np.random.default_rng(s), max_depth=4)[1] for s in range(50)]
    for f in cases:
        assert is_affine_struct(f) == _ref_affine(f)
        assert is_convex_struct(f) == _ref_convex(f)
        assert is_smooth_struct(f) == _ref_smooth(f)


def test_dc_parts_of_convex():
    bowl = SP2.quad(np.eye(2), psd=True)
    p, mn = dc_parts(maximum(bowl, SP2.x(0)))
    assert mn.kind == "constant" and mn.value == 0.0
    assert evaluate(p, [0.3], [0.4]) == evaluate(maximum(bowl, SP2.x(0)), [0.3], [0.4])


def test_dc_parts_negative_scale_swaps():
    bowl = SP2.quad(np.eye(2), psd=True)
    p, mn = dc_parts(scale(-2.0, dc(bowl, SP2.x(0))))
    z = ([0.7], [-0.2])
    assert evaluate(p, *z) == pytest.approx(2.0 * evaluate(SP2.x(0), *z))
    assert evaluate(mn, *z) == pytest.approx(2.0 * evaluate(bowl, *z))


def test_dc_parts_of_a_max_of_dc_pieces():
    # max_i (p_i - m_i) = max_i (p_i + sum_{k != i} m_k) - sum_k m_k, nested too
    bowl = SP2.quad(np.eye(2), psd=True)
    pieces = (
        dc(maximum(SP2.x(0), SP2.y(0, -1.0)), bowl),
        constant(0.0),
        dc(SP2.affine(0.5, [1.0], [2.0]), absolute(SP2.y(0))),
        maximum(scale(-1.0, bowl), SP2.x(0, 3.0)),
    )
    rng = np.random.default_rng(11)
    for e in (maximum(*pieces), add(SP2.y(0), scale(2.5, maximum(*pieces[:3])))):
        p, mn = dc_parts(e)
        assert is_convex_struct(p) and is_convex_struct(mn)
        for _ in range(50):
            z = (rng.uniform(-3, 3, 1), rng.uniform(-3, 3, 1))
            want = evaluate(e, *z)
            assert evaluate(p, *z) - evaluate(mn, *z) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_json_round_trip_pins_values():
    rng = np.random.default_rng(7)
    for _ in range(20):
        dims, f, _, x, y, th = random_case(rng, max_depth=3)
        g = from_json(to_json(f, dims), dims)
        assert evaluate(g, x, y, th) == evaluate(f, x, y, th)


def test_json_missing_key():
    with pytest.raises(ValidationError) as ei:
        from_json({"kind": "affine", "c0": 1.0}, SP2.dims)
    assert ei.value.code == "PARSE"


def test_json_unknown_kind():
    with pytest.raises(ValidationError):
        from_json({"kind": "powers"}, SP2.dims)


def test_batch_matches_scalar():
    # seed 3 is scale(affine); seeds 4 and 6 hold only quad atoms; 1 and 2
    # mix atoms under max/min/abs/dc.  Bit-identical, not approximately equal.
    for seed in (1, 2, 3, 4, 6):
        rng = np.random.default_rng(seed)
        dims, f, _, x, y, th = random_case(rng, max_depth=4)
        d, m, q = dims
        X = rng.uniform(-2, 2, (40, d))
        Y = rng.uniform(-2, 2, (40, m))
        vals = evaluate_batch(f, X, Y, th)
        for i in range(40):
            assert vals[i] == evaluate(f, X[i], Y[i], th), (seed, i)


def test_batch_keeps_sign_of_zero_ties():
    # max and min of 0.0 and -0.0 return the first, as the builtins do
    sp = Space(d=1, m=0, q=0)
    neg_zero = scale(-1.0, sp.x(0))  # -0.0 at x = 0
    zero = constant(0.0)
    for f in (maximum(neg_zero, zero), maximum(zero, neg_zero),
              minimum(neg_zero, zero), minimum(zero, neg_zero)):
        v = evaluate(f, [0.0])
        assert v == 0.0
        assert np.signbit(evaluate_batch(f, np.zeros((3, 1)), np.zeros((3, 0)), ())).tolist() == [
            bool(np.signbit(v))] * 3


def test_batch_takes_a_theta_per_row():
    # every row has the bits of evaluate at its own theta, signs of zero
    # included; a (q,) theta shared by every row keeps the bits it had
    def bits(v):
        return np.float64(v).tobytes()

    sp = Space(d=1, m=1, q=2)
    # -0.0 + theta_0 keeps theta_0's sign of zero; max keeps the first of a tie
    signed = maximum(affine(sp.dims, -0.0, ct=[1.0, 0.0]), scale(-1.0, sp.theta(1)))
    cases = [(sp.dims, signed)]
    for seed in (1, 2, 3, 4, 6, 7, 8):
        rng = np.random.default_rng(seed)
        dims, f, *_ = random_case(rng, max_depth=4)
        cases.append((dims, f))
    rng = np.random.default_rng(11)
    for (d, m, q), f in cases:
        X = rng.uniform(-2, 2, (40, d))
        Y = rng.uniform(-2, 2, (40, m))
        TH = rng.uniform(-2, 2, (40, q))
        TH[::4] = 0.0
        TH[1::4] = -0.0
        TH[2::8] = np.where(np.arange(q) % 2, 0.0, -0.0)
        rows = evaluate_batch(f, X, Y, TH)
        assert rows.shape == (40,)
        for r in range(40):
            assert bits(rows[r]) == bits(evaluate(f, X[r], Y[r], TH[r])), (f.kind, r)
        for th in TH[:3]:
            shared = evaluate_batch(f, X, Y, th)
            assert [bits(v) for v in shared] == [
                bits(evaluate(f, X[r], Y[r], th)) for r in range(40)]
    rows = evaluate_batch(signed, np.zeros((4, 1)), np.zeros((4, 1)),
                          [[0.0, 0.0], [-0.0, 0.0], [-0.0, -0.0], [0.0, -0.0]])
    assert np.signbit(rows).tolist() == [False, True, True, False]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_combinators_evaluate_pointwise(seed):
    rng = np.random.default_rng(seed)
    a, _ = random_expr(rng, SP2.dims, 2)
    b, _ = random_expr(rng, SP2.dims, 2)
    x = rng.uniform(-2, 2, 1)
    y = rng.uniform(-2, 2, 1)
    va, vb = evaluate(a, x, y), evaluate(b, x, y)
    assert evaluate(add(a, b), x, y) == pytest.approx(va + vb)
    assert evaluate(maximum(a, b), x, y) == max(va, vb)
    assert evaluate(minimum(a, b), x, y) == min(va, vb)
    assert evaluate(scale(-1.5, a), x, y) == pytest.approx(-1.5 * va)
    assert evaluate(absolute(a), x, y) == abs(va)
