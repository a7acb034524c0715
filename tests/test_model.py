"""Problem model: validation, feasibility, JSON round-trip, instance generator."""

import dataclasses
import json

import numpy as np
import pytest

from codiffsp import (
    DimensionMismatch,
    FirstStageSet,
    ParseError,
    Point,
    ScenarioSpace,
    Space,
    TwoStageProblem,
    ValidationError,
    absolute,
    evaluate,
    eval_I,
    generate,
    is_feasible,
    load_problem,
    serialize_problem,
)
from codiffsp.model import ROWS_MIN_S, load_point, serialize_point

MINIMAL = {
    "d": 1,
    "m": 1,
    "A": {"kind": "box", "lower": [-1.0], "upper": [1.0]},
    "scenarios": {"probs": [0.5, 0.5], "params": [[0.0], [1.0]]},
    "f": {"kind": "quad", "Q": [[2.0, 0.0], [0.0, 2.0]], "lin": [0.0, 0.0],
          "c0": 0.0, "psd": True},
    "g": [{"kind": "affine", "c0": -1.0, "cx": [0.0], "cy": [1.0], "ct": [0.0]}],
}


def test_load_minimal():
    p = load_problem(MINIMAL)
    assert (p.d, p.m, p.S, p.ell) == (1, 1, 2, 1)
    assert p.A.kind == "box"
    assert eval_I(p, Point(x=[1.0], y=[[1.0], [1.0]])) == pytest.approx(2.0)


def test_load_rejects_bad_probs():
    bad = dict(MINIMAL, scenarios={"probs": [0.5, 0.6], "params": [[0.0], [1.0]]})
    with pytest.raises(ValidationError) as ei:
        load_problem(bad)
    assert ei.value.code == "PROB_SUM"


def test_load_rejects_nonconvex_dc_part():
    bad = dict(
        MINIMAL,
        f={
            "kind": "dc",
            "plus": {"kind": "quad", "Q": [[0.0, 1.0], [1.0, 0.0]],
                     "lin": [0.0, 0.0], "c0": 0.0, "psd": False},
            "minus": {"kind": "affine", "c0": 0.0, "cx": [0.0], "cy": [0.0],
                      "ct": [0.0]},
        },
    )
    with pytest.raises(ValidationError) as ei:
        load_problem(bad)
    assert ei.value.code == "DC_NOT_CONVEX"


def test_load_missing_key():
    bad = {k: v for k, v in MINIMAL.items() if k != "f"}
    with pytest.raises(ParseError):
        load_problem(bad)


@pytest.mark.parametrize("load, source", [
    (load_problem, dict(MINIMAL, d="one")),
    (load_problem, dict(MINIMAL, p="two")),
    (load_problem, dict(MINIMAL, scenarios={"probs": [0.5, "half"], "params": [[0.0], [1.0]]})),
    (load_problem, dict(MINIMAL, g=[dict(MINIMAL["g"][0], c0="zero")])),
    (load_problem, dict(MINIMAL, A={"kind": "box", "lower": ["low"], "upper": [1.0]})),
    (load_problem, dict(MINIMAL, g=5)),
    (load_point, {"x": [0.0], "y": [[1.0], [1.0, 2.0]]}),
    (load_point, {"x": ["zero"], "y": [[1.0]]}),
    (load_problem, dict(MINIMAL, d=2.7)),  # not cut to 2
    (load_problem, dict(MINIMAL, m=True)),
], ids=["d", "p", "probs", "c0", "A.lower", "g-not-list", "ragged-y", "text-x",
        "d-fraction", "m-bool"])
def test_load_malformed_value_is_parse_error(load, source):
    with pytest.raises(ParseError):
        load(source)


def test_load_takes_an_integral_float_dimension():
    assert load_problem(dict(MINIMAL, d=1.0)).d == 1


def test_load_from_json_text_and_path(tmp_path):
    text = json.dumps(MINIMAL)
    p1 = load_problem(text)
    fp = tmp_path / "prob.json"
    fp.write_text(text)
    p2 = load_problem(str(fp))
    assert serialize_problem(p1) == serialize_problem(p2)


def test_round_trip_preserves_values():
    rng = np.random.default_rng(13)
    for seed in range(10):
        p = generate(seed, d=2, m=2, S=3, l=2, dc=bool(seed % 2))
        p2 = load_problem(json.dumps(serialize_problem(p)))
        for _ in range(10):
            x = rng.uniform(-2, 2, 2)
            y = rng.uniform(-2, 2, (3, 2))
            z = Point(x=x, y=y)
            assert eval_I(p2, z) == eval_I(p, z)
            for g1, g2 in zip(p.g, p2.g):
                assert evaluate(g2, x, y[0], p2.scenarios.params[0]) == evaluate(
                    g1, x, y[0], p.scenarios.params[0]
                )


def test_generate_is_deterministic():
    a = generate(42, d=2, m=1, S=2, l=2, dc=True)
    b = generate(42, d=2, m=1, S=2, l=2, dc=True)
    assert json.dumps(serialize_problem(a), sort_keys=True) == json.dumps(
        serialize_problem(b), sort_keys=True
    )


@pytest.mark.parametrize("seed", [-1, 2.5, "7", None, True])
def test_generate_rejects_bad_seed(seed):
    with pytest.raises(ValidationError) as ei:
        generate(seed, d=2, m=1, S=2, l=2)
    assert ei.value.code == "GEN_SPEC"


def test_generate_accepts_numpy_integer_seed():
    a = serialize_problem(generate(np.int64(42), d=2, m=1, S=2, l=2))
    assert a == serialize_problem(generate(42, d=2, m=1, S=2, l=2))


def test_generate_witness_strictly_feasible():
    for seed in range(8):
        p = generate(seed, d=1 + seed % 3, m=1 + seed % 2, S=1 + seed % 3,
                     l=1 + seed % 2, dc=bool(seed % 2))
        ok, rep = is_feasible(p, p.witness)
        assert ok
        assert rep.x_violation == 0.0
        assert rep.max_violation < -0.1  # generator leaves a real margin


def test_is_feasible_locates_worst_violation():
    p = load_problem(MINIMAL)
    ok, rep = is_feasible(p, Point(x=[0.0], y=[[0.5], [3.0]]))
    assert not ok
    assert rep.feasible is False
    assert (rep.worst_constraint, rep.worst_scenario) == (0, 1)
    assert rep.max_violation == pytest.approx(2.0)


def _feasibility_loop(prob, z):
    """is_feasible's report written out: the first largest g_i value over
    the constraints, then the scenarios, one evaluate each."""
    worst, wi, ws = -np.inf, -1, -1
    for i, gi in enumerate(prob.g):
        for s in range(prob.S):
            v = evaluate(gi, z.x, z.y[s], prob.scenarios.params[s])
            if v > worst:
                worst, wi, ws = v, i, s
    return worst, wi, ws


@pytest.mark.parametrize("S", [ROWS_MIN_S - 1, ROWS_MIN_S, 100])
def test_is_feasible_matches_the_constraint_loop(S):
    # on either side of the rows crossover: the same value, bits and type,
    # and the first of tied worst (i, s); -inf and -1 when l = 0
    rng = np.random.default_rng(S)
    for ell in (0, 2, 3):
        p = generate(1000 + ell, d=2, m=2, S=S, l=ell, dc=True)
        # g_0 twice, every scenario alike: every (i, s) ties
        tied = dataclasses.replace(p, g=p.g[:1] * 2, witness=None, scenarios=ScenarioSpace(
            probs=p.scenarios.probs, params=np.repeat(p.scenarios.params[:1], S, axis=0)))
        for spread in (0.1, 2.0):
            z = Point(x=p.witness.x + spread * rng.normal(size=2),
                      y=p.witness.y + spread * rng.normal(size=(S, 2)))
            same = Point(x=z.x, y=np.repeat(z.y[:1], S, axis=0))
            for prob, pt in ((p, z), (tied, same)):
                _ok, rep = is_feasible(prob, pt)
                got = (rep.max_violation, rep.worst_constraint, rep.worst_scenario)
                want = _feasibility_loop(prob, pt)
                assert type(got[0]) is float
                assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
                assert got[1:] == want[1:]
                if prob is tied and ell:
                    assert got[1:] == (0, 0)


def test_is_feasible_boundary_tolerance():
    p = load_problem(MINIMAL)
    ok, _ = is_feasible(p, Point(x=[1.0], y=[[1.0], [1.0 + 1e-10]]))
    assert ok
    ok2, rep2 = is_feasible(p, Point(x=[1.0 + 1e-3], y=[[0.0], [0.0]]))
    assert not ok2
    assert rep2.x_violation == pytest.approx(1e-3)


def test_first_stage_set_validation():
    with pytest.raises(ValidationError):
        FirstStageSet.box([1.0], [0.0])
    with pytest.raises(ValidationError):
        FirstStageSet.ball([0.0, 0.0], 0.0)
    with pytest.raises(ValidationError):
        FirstStageSet(kind="polytope")


def test_first_stage_projections():
    A = FirstStageSet.box([-1.0, 0.0], [1.0, 2.0])
    assert np.allclose(A.project([3.0, -1.0]), [1.0, 0.0])
    B = FirstStageSet.ball([0.0, 0.0], 1.0)
    assert np.allclose(B.project([2.0, 0.0]), [1.0, 0.0])
    assert np.allclose(B.project([0.3, 0.1]), [0.3, 0.1])
    assert A.contains([0.0, 1.0]) and not A.contains([0.0, 2.1])


def _one_point_projection(A, x):
    # a point at a time, the ball's radius from np.linalg.norm
    if A.kind == "free":
        return x.copy()
    if A.kind == "box":
        return np.clip(x, A.lower, A.upper)
    u = x - A.center
    r = float(np.linalg.norm(u))
    return x.copy() if r <= A.radius else A.center + u * (A.radius / r)


@pytest.mark.parametrize("A", [
    FirstStageSet.free(),
    FirstStageSet.box([-0.5, 0.0, -1.0], [0.5, 2.0, -1.0]),
    FirstStageSet.ball([0.3, -0.2, 1.1], 0.7),
], ids=["free", "box", "ball"])
def test_projection_of_rows_has_one_point_bits(A):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(400, 3)) * 10.0 ** rng.uniform(-3, 1, (400, 1))
    X[:100] = A.project(X[:100])  # points of A; the ball's far ones land on its sphere
    want = np.array([_one_point_projection(A, x) for x in X])
    assert A.project(X).tobytes() == want.tobytes()
    assert [A.project(x).tobytes() for x in X] == [w.tobytes() for w in want]


def test_tangent_projection_box():
    # normal_residual(x, v) is the norm of -v projected onto the tangent cone
    A = FirstStageSet.box([0.0], [1.0])
    assert A.normal_residual([0.0], [2.0]) == 0.0
    assert A.normal_residual([0.0], [-2.0]) == 2.0
    assert A.normal_residual([0.5], [2.0]) == 2.0


def test_point_copies_input():
    x = np.array([1.0])
    y = np.array([[2.0]])
    z = Point(x=x, y=y)
    x[0] = 99.0
    y[0, 0] = 99.0
    assert z.x[0] == 1.0 and z.y[0, 0] == 2.0
    with pytest.raises(ValueError):
        z.x[0] = 5.0


def test_point_round_trip():
    z = Point(x=[0.25], y=[[1.0], [-2.0]])
    z2 = load_point(json.dumps(serialize_point(z)))
    assert np.array_equal(z.x, z2.x) and np.array_equal(z.y, z2.y)


def test_problem_rejects_mismatched_dims():
    sp = Space(d=2, m=1, q=0)
    f = absolute(sp.x(0))
    with pytest.raises(DimensionMismatch):
        TwoStageProblem(
            d=1, m=1, A=FirstStageSet.free(), f=f, g=(),
            scenarios=ScenarioSpace(probs=[1.0], params=np.zeros((1, 0))),
        )


def test_p_exponent_validated():
    p = load_problem(dict(MINIMAL, p=3.0))
    assert p.p_exponent == 3.0
    with pytest.raises(ValidationError) as ei:
        load_problem(dict(MINIMAL, p=0.5))
    assert ei.value.code == "P_EXPONENT"


@pytest.mark.parametrize("build", [
    lambda: ScenarioSpace(probs=[0.5, 0.5], params=[[np.nan], [0.0]]),
    lambda: ScenarioSpace(probs=[0.5, 0.5], params=[[0.0], [-np.inf]]),
    lambda: load_problem(dict(MINIMAL, scenarios={"probs": [0.5, 0.5],
                                                  "params": [[0.0], [np.inf]]})),
    lambda: FirstStageSet.ball([np.nan, 0.0], 1.0),
    lambda: FirstStageSet.ball([0.0, np.inf], 1.0),
], ids=["params-nan", "params-inf", "loaded-params", "center-nan", "center-inf"])
def test_problem_data_must_be_finite(build):
    with pytest.raises(ValidationError) as ei:
        build()
    assert ei.value.code == "NONFINITE"


def test_box_bounds_may_be_infinite():
    A = FirstStageSet.box([-np.inf, 0.0], [np.inf, 1.0])
    assert A.project([5.0, 2.0]).tolist() == [5.0, 1.0]


def test_scenario_space_rejects_zero_prob():
    with pytest.raises(ValidationError):
        ScenarioSpace(probs=[1.0, 0.0], params=np.zeros((2, 0)))
