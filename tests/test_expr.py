"""Expression DAG construction, evaluation, predicates, serialization."""

import pickle
import re
from types import SimpleNamespace

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
from codiffsp.codiff import _vertex_blocks, codiff, codiff_rows
from codiffsp.expr import (
    _coefficients,
    _value_source,
    dc_parts,
    from_json,
    is_affine_struct,
    is_convex_struct,
    is_smooth_struct,
    node_values,
    row_values,
    to_json,
)

from codiffsp.model import TwoStageProblem, generate
from codiffsp.penalty import PenaltySpec, Phi_c, penalty_codiff, penalty_integrand
from codiffsp.solvers import dc_decompose

from conftest import random_case, random_expr, random_rows_cases, reference_node_values

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


def _scenario_values(f, X, Y, TH):
    # TwoStageProblem.scenario_values with its problem's point check left
    # out, so the rows reach the one block check as they are given
    prob = SimpleNamespace(check_point=lambda z: None, scenarios=SimpleNamespace(params=TH))
    return TwoStageProblem.scenario_values(prob, f, SimpleNamespace(x=X, y=Y))


def _rows_pass_values(f, X, Y, TH):
    # codiff_rows' pairs carry no value; the rows pass under them does
    return np.array([v for *_b, vals in _vertex_blocks(f, X, Y, TH) for v in vals.tolist()])


# every front door of a block of rows, as a function to the (N,) values
DOORS = {
    "evaluate_batch": evaluate_batch,
    "row_values": lambda f, X, Y, TH: row_values(f, X, Y, TH)[0],
    "scenario_values": _scenario_values,
    "codiff_rows": _rows_pass_values,
}


@pytest.mark.parametrize("X, Y, theta", [
    (np.ones((3, 3)), np.ones((3, 1)), [1.0]),  # x too wide: no spill into y
    (np.ones((3, 2)), np.ones((3, 2)), [1.0]),
    (np.ones((3, 2)), np.ones((3, 1)), [1.0, 5.0]),  # theta too long: not cut
    (np.ones((3, 2)), np.ones((3, 1)), np.ones((3, 2))),
    (np.ones((3, 2)), np.ones((2, 1)), [1.0]),  # 3 rows against 2
    (np.ones((3, 2)), np.ones((3, 1)), np.ones((2, 1))),
    (np.ones((3, 2, 1)), np.ones((3, 1)), [1.0]),  # 3-D blocks
    (np.ones((3, 2)), np.ones((3, 1, 1)), [1.0]),
])
def test_batch_rejects_blocks_that_do_not_fit(X, Y, theta):
    # at every front door, codiff_rows included
    f = Space(2, 1, 1).affine(cx=[1, 2], cy=[3], ct=[4])
    for door in (*DOORS.values(), codiff_rows):
        with pytest.raises(DimensionMismatch):
            door(f, X, Y, theta)


@pytest.mark.parametrize("N", [0, 3, 30])  # 30 >= ROWS_MIN_S: the pass on columns
@pytest.mark.parametrize("shape", ["blocks", "shared rows", "one-row blocks", "one-row y"])
def test_front_doors_give_evaluates_bits(shape, N):
    sp = Space(2, 1, 1)
    f = maximum(sp.affine(cx=[1, 2], cy=[3], ct=[4]),
                absolute(sp.affine(-0.5, cx=[1, -1], cy=[2], ct=[-1])),
                sp.quad(np.eye(3), psd=True))
    rng = np.random.default_rng(N)
    X, Y, TH = rng.normal(size=(N, 2)), rng.normal(size=(N, 1)), rng.normal(size=(N, 1))
    X[::3], TH[1::3] = -0.0, 0.0
    if shape == "shared rows":
        X, TH = np.array([0.5, -0.0]), np.array([-0.0])
    elif shape == "one-row blocks":
        X, TH = np.array([[0.5, -0.0]]), np.array([[-0.0]])
    elif shape == "one-row y":
        Y = np.array([[-0.0]])

    def row(A, r):  # row r of a block, the row itself when it is shared
        return A if A.ndim == 1 else A[r % A.shape[0]]

    want = [np.float64(evaluate(f, row(X, r), row(Y, r), row(TH, r))).tobytes()
            for r in range(N)]
    for name, door in DOORS.items():
        vals = door(f, X, Y, TH)
        assert vals.shape == (N,) and [v.tobytes() for v in vals] == want, name
    pairs = codiff_rows(f, X, Y, TH)
    assert len(pairs) == N
    for r, cd in enumerate(pairs):
        one = codiff(f, row(X, r), row(Y, r), row(TH, r))
        assert (cd.hypo.tobytes(), cd.hyper.tobytes()) == (one.hypo.tobytes(), one.hyper.tobytes())


def test_batch_broadcasts_one_row_blocks():
    f = Space(2, 1, 1).affine(cx=[1, 2], cy=[3], ct=[4])
    vals = evaluate_batch(f, np.ones((1, 2)), np.ones((3, 1)), np.array([[1.0], [2.0], [0.0]]))
    assert vals.tolist() == [10.0, 14.0, 6.0]


def test_rows_take_x_as_floats_every_row_shares():
    # x entries as floats beside (n,) y and theta columns give every node
    # the bits of the pass with x as columns, signs of zero included
    sp = Space(d=2, m=1, q=1)
    signed = maximum(affine(sp.dims, -0.0, cx=[1.0, 0.0]), scale(-1.0, sp.x(1)))
    cases = [(sp.dims, signed, [-0.0, 0.0]), (sp.dims, signed, [0.0, -0.0])]
    for seed in (1, 2, 3, 4, 6, 7, 8):
        rng = np.random.default_rng(seed)
        dims, f, _, x, *_ = random_case(rng, max_depth=4)
        cases.append((dims, f, list(x)))
    rng = np.random.default_rng(12)
    for (d, m, q), f, x in cases:
        Y = rng.uniform(-2, 2, (40, m))
        TH = rng.uniform(-2, 2, (40, q))
        cols = list(Y.T) + list(TH.T)
        mixed = node_values(f, [float(v) for v in x] + cols, 40)
        full = node_values(f, list(np.tile(x, (40, 1)).T) + cols, 40)
        assert [np.asarray(v).tobytes() for v in mixed] == [v.tobytes() for v in full], f.kind


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


# ---------------------------------------------------------------------------
# the compiled value functions against the interpreter loop they replaced


def _node_bits(vals):
    return [np.asarray(v, dtype=np.float64).tobytes() for v in vals]


def _matches_reference(f, X, Y, TH):
    """Every node's bits, by the compiled functions and by the reference
    loop: a float pass per row, then one pass on columns with x first as
    the first row's floats, every row sharing them, then as columns."""
    for x, y, th in zip(X, Y, TH):
        w = x.tolist() + y.tolist() + th.tolist()
        got = node_values(f, w)
        assert all(type(v) is float for v in got)
        assert _node_bits(got) == _node_bits(reference_node_values(f, w))
    n, cols = Y.shape[0], list(Y.T) + list(TH.T)
    for xs in (X[0].tolist(), list(X.T)):
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = node_values(f, xs + cols, n), reference_node_values(f, xs + cols, n)
        assert all(isinstance(v, np.ndarray) and v.shape == (n,) for v in got)
        assert _node_bits(got) == _node_bits(want)


def _generated_integrands():
    """(problem, integrands): f, each g_i, the penalized integrand and DCA's
    split of it, for S = 3 and S = 100."""
    out = []
    for seed, S in ((91000, 3), (91001, 100)):
        p = generate(seed, d=2, m=2, S=S, l=2, dc=True)
        split = dc_decompose(p, 10.0)
        out.append((p, (p.f, *p.g, penalty_integrand(p, 10.0), split.plus, split.minus)))
    return out


def test_compiled_values_match_the_reference_loop():
    for f, X, Y, TH in random_rows_cases(40):
        _matches_reference(f, X, Y, TH)
    rng = np.random.default_rng(23)
    for p, integrands in _generated_integrands():
        X = np.broadcast_to(p.witness.x, (p.S, p.d))
        for Y in (p.witness.y, p.witness.y + rng.normal(size=p.witness.y.shape)):
            for f in integrands:
                _matches_reference(f, X, Y, p.scenarios.params)


def test_compiled_values_keep_signed_zeros_and_overflow():
    # u and v take the sign of x_0's and x_1's zero; big overflows to +-inf
    # at x_0 = +-10, and big - big is nan there
    sp = Space(d=2, m=1, q=1)
    u = affine(sp.dims, -0.0, cx=[1.0, 0.0])
    v = affine(sp.dims, -0.0, cx=[0.0, 1.0])
    big = affine(sp.dims, 0.0, cx=[1e308, 0.0])
    nan = dc(big, big)
    wide = sp.quad(1e307 * np.eye(3), psd=True)
    exprs = [maximum(u, v), maximum(v, u), minimum(u, v), minimum(v, u), absolute(u),
             scale(-1.0, u), add(u, v), dc(u, v), absolute(scale(-1.0, big)), wide,
             maximum(nan, u), maximum(u, nan), minimum(nan, u), minimum(u, nan),
             maximum(big, scale(-1.0, big), u), minimum(wide, big, u), add(big, scale(-1.0, big))]
    X = np.array([[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [0.0, 0.0], [10.0, -0.0], [-10.0, 0.0]])
    Y, TH = np.array([[-0.0], [0.0], [2.0], [-0.0], [0.0], [-0.0]]), np.zeros((6, 1))
    for f in exprs:
        # each row's x in turn is the x that the rows of a column pass share
        for r in range(X.shape[0]):
            _matches_reference(f, X[r:], Y[r:], TH[r:])
    assert not np.signbit(evaluate(abs(u), [-0.0, 0.0], [0.0], [0.0]))
    assert np.signbit(evaluate(maximum(u, v), [-0.0, 0.0], [0.0], [0.0]))
    assert np.isnan(evaluate(nan, [10.0, 0.0], [0.0], [0.0]))


def test_wide_nodes_compile_one_statement_per_term():
    # an add of 1,000 children and an atom of 1,000 nonzero coefficients:
    # chained into one expression, either would be past what Python parses
    rng = np.random.default_rng(4)
    sp = Space(d=999, m=1, q=0)
    wide_add = add(*(sp.x(i, float(c)) for i, c in enumerate(rng.normal(size=999))), sp.y(0))
    wide_atom = sp.affine(0.5, cx=rng.normal(size=999), cy=rng.normal(size=1))
    assert len(wide_add.children) == 1000 and len(_coefficients(wide_atom._tape)) == 1001
    X, Y, TH = rng.normal(size=(3, 999)), rng.normal(size=(3, 1)), np.zeros((3, 0))
    for f in (wide_add, wide_atom, maximum(wide_add, wide_atom)):
        _matches_reference(f, X, Y, TH)


def test_expressions_of_one_shape_share_one_code_object():
    p, q = (generate(s, d=2, m=2, S=3, l=2, dc=True) for s in (5, 6))
    for a, b in ((p.f, q.f), (penalty_integrand(p, 10.0), penalty_integrand(q, 3.0))):
        assert a._values is not b._values and a._values.__code__ is b._values.__code__
        assert a._columns.__code__ is b._columns.__code__
        assert a._values.__code__ is not a._columns.__code__
        assert a._values.__defaults__ != b._values.__defaults__


def test_value_source_holds_no_coefficient():
    p = generate(91000, d=2, m=2, S=3, l=2, dc=True)
    f = penalty_integrand(p, 10.0)
    coeffs = _coefficients(f._tape)
    assert 10.0 in coeffs and len(coeffs) > 100
    for columns in (False, True):
        src = _value_source(f._tape, columns)
        # the literal 0.0 starts and the quad's 0.5 are its only numbers
        assert set(re.findall(r"\d+\.\d*(?:e[-+]?\d+)?|\d+e[-+]?\d+", src)) == {"0.0", "0.5"}
        assert not any(repr(c) in src for c in coeffs if c not in (0.0, 0.5))


def test_evaluated_problem_pickles_with_phi_c_bits():
    p = generate(91000, d=2, m=2, S=3, l=2, dc=True)
    spec = PenaltySpec("l1_max", 10.0)
    z = p.witness
    want = Phi_c(p, spec, z)
    penalty_codiff(p, spec, z)
    again = pickle.loads(pickle.dumps(p))
    assert "_values" not in again.f.__dict__
    assert np.float64(Phi_c(again, spec, z)).tobytes() == np.float64(want).tobytes()
    assert np.float64(Phi_c(p, spec, z)).tobytes() == np.float64(want).tobytes()
