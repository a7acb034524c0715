"""Expectation functional over finite scenario spaces."""

import dataclasses
import itertools
import warnings

import numpy as np
import pytest

from codiffsp import (
    CodiffPair,
    DimensionMismatch,
    FirstStageSet,
    NonFinite,
    Point,
    ScenarioSpace,
    Space,
    TwoStageProblem,
    absolute,
    add,
    affine,
    block_codiff,
    check_nondegeneracy,
    codiff,
    dc,
    dirderiv,
    evaluate,
    eval_I,
    expansion_value,
    generate,
    I_dirderiv,
    I_expansion,
    minimum,
    Phi_c,
    penalty_codiff,
    quad,
    quasidiff,
    scale,
)
from codiffsp import _minnorm
from codiffsp._minnorm import SEGMENT_MIN_BLOCKS, _least_norm, _segments_least_norm, inside
from codiffsp.codiff import _vertex_blocks
from codiffsp.expectation import (
    ACT_TOL, ENUM_CAP, _integrand_codiff, expect, max_over_selections,
)
from codiffsp.model import ROWS_MIN_S
from codiffsp.optimality import check_optimality, inf_stationarity_measure
from codiffsp.penalty import PenaltySpec, penalty_integrand, phi_l1
from codiffsp.solvers import SolveOpts, _model_start, codiff_descent, dca_solve

from conftest import boundary_point, concave_kinks, one_sided_richardson, ragged_case, rebind


def _prob(f, d, m, probs, params):
    sc = ScenarioSpace(probs=probs, params=np.asarray(params, dtype=float))
    return TwoStageProblem(d=d, m=m, A=FirstStageSet.free(), f=f, g=(),
                           scenarios=sc)


def test_constant_integrand_in_omega():
    sp = Space(d=1, m=1, q=0)
    p = _prob(absolute(sp.x(0)), 1, 1, [0.5, 0.5], np.zeros((2, 0)))
    z = Point(x=[-3.0], y=[[0.0], [1.0]])
    assert eval_I(p, z) == 3.0


def test_single_scenario_degenerates():
    sp = Space(d=1, m=1, q=0)
    f = sp.quad(np.eye(2), psd=True)
    p = _prob(f, 1, 1, [1.0], np.zeros((1, 0)))
    z = Point(x=[1.0], y=[[2.0]])
    assert eval_I(p, z) == evaluate(f, [1.0], [2.0])


def test_theta_weighted_sum():
    sp = Space(d=1, m=1, q=1)
    p = _prob(sp.theta(0), 1, 1, [0.25, 0.75], [[1.0], [3.0]])
    z = Point(x=[0.0], y=[[0.0], [0.0]])
    assert eval_I(p, z) == 2.5


def test_reduction_order_is_pinned():
    rng = np.random.default_rng(9)
    p = generate(31, d=2, m=2, S=4, l=1, dc=True)
    x = rng.uniform(-1, 1, 2)
    y = rng.uniform(-1, 1, (4, 2))
    z = Point(x=x, y=y)
    th = p.scenarios.params
    total = 0.0
    for s in range(4):
        total += float(p.scenarios.probs[s]) * evaluate(p.f, x, y[s], th[s])
    assert eval_I(p, z) == total  # bitwise: ascending-index accumulation


def test_overflow_names_scenario():
    sp = Space(d=1, m=1, q=1)
    f = affine(sp.dims, 0.0, [0.0], [0.0], [1e308])
    p = _prob(f, 1, 1, [0.5, 0.5], [[0.0], [10.0]])
    z = Point(x=[0.0], y=[[0.0], [0.0]])
    with pytest.raises(NonFinite, match="scenario 1"):
        eval_I(p, z)


def test_overflow_on_rows_is_silent_and_names_scenario():
    # ROWS_MIN_S + 2 scenarios take the pass on columns, which raises as
    # the scalar loop does and lets no numpy overflow warning out
    S = ROWS_MIN_S + 2
    sp = Space(d=1, m=1, q=1)
    f = affine(sp.dims, 0.0, [0.0], [0.0], [1e308])
    params = np.zeros((S, 1))
    params[[1, 5]] = 10.0
    p = _prob(f, 1, 1, np.full(S, 1.0 / S), params)
    z = Point(x=[0.0], y=np.zeros((S, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="scenario 1$"):
            eval_I(p, z)


def _bits(v):
    return np.float64(v).tobytes()


def _expect_loop(prob, integrand, z, tilt=None):
    """expect written out: one evaluate per scenario, summed in ascending
    scenario order from 0.0, less the tilt's p-weighted linear forms."""
    th = prob.scenarios.params
    total = 0.0
    for s in range(prob.S):
        total += float(prob.scenarios.probs[s]) * evaluate(integrand, z.x, z.y[s], th[s])
    if tilt is not None:
        lin = tilt[:, :prob.d] @ z.x + (tilt[:, prob.d:] * z.y).sum(axis=1)
        total -= float(prob.scenarios.probs @ lin)
    return total


@pytest.mark.parametrize("S", [ROWS_MIN_S - 1, ROWS_MIN_S, 100])
def test_values_have_the_scenario_loop_bits(S):
    # on either side of the rows crossover: expect with and without a tilt,
    # phi_l1 and Phi_c, the scenario loop of the penalized integrand
    spec = PenaltySpec("l1_max", 10.0)
    infeasible = 0
    for seed in (1000, 1001):
        p = generate(seed, d=2, m=2, S=S, l=2, dc=True)
        rng = np.random.default_rng(seed)
        tilt = rng.normal(size=(S, 4))
        for spread in (0.1, 2.0):
            z = Point(x=p.witness.x + spread * rng.normal(size=2),
                      y=p.witness.y + spread * rng.normal(size=(S, 2)))
            I, phi = _expect_loop(p, p.f, z), _expect_loop(p, p.g_plus, z)
            got = [eval_I(p, z), expect(p, p.f, z, tilt), phi_l1(p, z), Phi_c(p, spec, z)]
            want = [I, _expect_loop(p, p.f, z, tilt), phi,
                    _expect_loop(p, penalty_integrand(p, spec.c), z)]
            assert list(map(_bits, got)) == list(map(_bits, want))
            infeasible += phi > 0.0
    assert infeasible >= 2


@pytest.mark.parametrize("S", [ROWS_MIN_S - 1, ROWS_MIN_S])
def test_integrand_over_other_dims_is_refused(S):
    p = generate(1000, d=2, m=2, S=S, l=1, dc=True)
    with pytest.raises(DimensionMismatch):
        expect(p, Space(d=1, m=1, q=0).x(0), p.witness)


@pytest.mark.parametrize("S", [ROWS_MIN_S - 1, ROWS_MIN_S])
def test_negative_zero_terms_sum_to_positive_zero(S):
    # every p_s * v_s is -0.0; the loop's 0.0 start makes the sum +0.0
    sp = Space(d=1, m=1, q=1)
    p = _prob(scale(-1.0, sp.y(0)), 1, 1, np.full(S, 1.0 / S), np.zeros((S, 1)))
    z = Point(x=[0.0], y=np.zeros((S, 1)))
    assert _bits(eval_I(p, z)) == _bits(_expect_loop(p, p.f, z)) == _bits(0.0)


def test_block_codiff_smooth_singletons():
    sp = Space(d=1, m=1, q=1)
    f = sp.quad(2.0 * np.eye(2), psd=True)
    p = _prob(f, 1, 1, [0.3, 0.7], [[0.0], [1.0]])
    bc = block_codiff(p, Point(x=[1.0], y=[[2.0], [-1.0]]))
    assert bc.S == 2
    assert np.allclose(bc.per_scenario[0].hypo, [[0.0, 2.0, 4.0]])
    assert np.allclose(bc.per_scenario[1].hypo, [[0.0, 2.0, -2.0]])
    for cd in bc.per_scenario:
        assert np.allclose(cd.hyper, 0.0)


def test_block_codiff_kink_in_one_scenario():
    # |x - y|: kink active only where x = y_s
    sp = Space(d=1, m=1, q=0)
    f = absolute(sp.affine(cx=[1.0], cy=[-1.0]))
    p = _prob(f, 1, 1, [0.5, 0.5], np.zeros((2, 0)))
    bc = block_codiff(p, Point(x=[1.0], y=[[1.0], [3.0]]))
    subs = [quasidiff(cd).sub.shape[0] for cd in bc.per_scenario]
    assert subs == [2, 1]


def test_expansion_zero_direction():
    p = generate(5, d=2, m=1, S=3, l=1, dc=False)
    z = p.witness
    bc = block_codiff(p, z)
    assert I_expansion(bc, np.zeros(2), np.zeros((3, 1))) == 0.0


def test_expansion_single_scenario_reduces():
    from codiffsp import codiff, expansion_value

    p = generate(6, d=1, m=2, S=1, l=1, dc=True)
    z = p.witness
    bc = block_codiff(p, z)
    dx = np.array([0.2])
    dy = np.array([[0.1, -0.3]])
    direct = expansion_value(
        codiff(p.f, z.x, z.y[0], p.scenarios.params[0]),
        np.concatenate([dx, dy[0]]),
    )
    assert I_expansion(bc, dx, dy) == pytest.approx(direct, abs=1e-15)


def _expansion_loop(bc, dx, dy):
    """I_expansion as the scenario loop it replaced: sum_s p_s
    expansion_value(pair_s, (dx, dy_s)) in ascending order from 0.0."""
    total = 0.0
    for s, cd in enumerate(bc.per_scenario):
        total += float(bc.probs[s]) * expansion_value(cd, np.hstack((dx, dy[..., s, :])))
    return total


def test_expansion_stack_matches_one_direction():
    # bit for bit with the scenario loop, on the plan's pass and on the
    # walk's padded rows; one direction and a stack call BLAS differently
    p = generate(31, d=2, m=2, S=4, l=1, dc=True)
    rng = np.random.default_rng(2)
    for p, z in ((p, p.witness), ragged_case()):
        bc = block_codiff(p, z)
        DX, DY = rng.normal(size=(5, p.d)), rng.normal(size=(5, p.S, p.m))
        stack = I_expansion(bc, DX, DY)
        assert stack.shape == (5,) and stack.tobytes() == _expansion_loop(bc, DX, DY).tobytes()
        for dx, dy, v in zip(DX, DY, stack):
            one = I_expansion(bc, dx, dy)
            assert one.hex() == _expansion_loop(bc, dx, dy).hex()
            assert one == pytest.approx(v, rel=1e-12, abs=1e-12)
    assert p.f._plan is None and np.isinf(bc.H[:, :, 0]).any()  # the ragged case: padded


def test_directions_without_S_rows_of_m_are_refused():
    p = generate(1000, d=2, m=2, S=3, l=2, dc=True)
    bc = block_codiff(p, p.witness)
    for dy in (np.zeros((4, 2)), np.zeros((3, 3)), np.zeros((2, 3))):
        with pytest.raises(DimensionMismatch):
            I_expansion(bc, np.zeros(2), dy)
        with pytest.raises(DimensionMismatch):
            I_dirderiv(p, p.witness, np.zeros(2), dy)
    with pytest.raises(DimensionMismatch):
        I_expansion(bc, np.zeros((5, 2)), np.zeros((4, 3, 2)))
    assert I_expansion(bc, np.zeros((5, 2)), np.zeros((5, 3, 2))).tolist() == [0.0] * 5


def test_expansion_two_scenario_abs():
    sp = Space(d=1, m=1, q=0)
    p = _prob(absolute(sp.x(0)), 1, 1, [0.5, 0.5], np.zeros((2, 0)))
    bc = block_codiff(p, Point(x=[0.0], y=[[0.0], [0.0]]))
    assert I_expansion(bc, [1.0], np.zeros((2, 1))) == 1.0


def test_dirderiv_examples():
    sp = Space(d=1, m=1, q=0)
    p = _prob(absolute(sp.x(0)), 1, 1, [0.5, 0.5], np.zeros((2, 0)))
    z = Point(x=[0.0], y=[[0.0], [0.0]])
    assert I_dirderiv(p, z, [0.0], np.zeros((2, 1))) == 0.0
    assert I_dirderiv(p, z, [-2.0], [[5.0], [-1.0]]) == 2.0


def _dirderiv_loop(prob, z, hx, hy):
    """I_dirderiv as the scenario loop it replaced: sum_s p_s
    dirderiv(quasidiff(pair_s), (hx, hy_s)) in ascending order from 0.0."""
    bc = block_codiff(prob, z)
    total = 0.0
    for s, cd in enumerate(bc.per_scenario):
        total += float(bc.probs[s]) * dirderiv(quasidiff(cd), np.concatenate((hx, hy[s])))
    return total


def test_dirderiv_reads_the_masked_sets_bit_for_bit():
    # on one rows-pass block (a generated witness, generated witnesses and
    # boundary points at S = 3 and 100, and concave kinks with two
    # zero-offset hyper vertices per scenario) and on one block per
    # scenario (the ragged case, on convex and concave kinks)
    rng = np.random.default_rng(5)
    g = generate(31, d=2, m=2, S=4, l=1, dc=True)
    kinks = concave_kinks(3)
    wide = [generate(1000, d=2, m=2, S=S, l=2, dc=True) for S in (3, 100)]
    cases = [(g, g.witness), (kinks, kinks.witness), ragged_case()]
    for p, z in cases + [(w, z) for w in wide for z in (w.witness, boundary_point(w, 1000))]:
        for _ in range(20):
            hx, hy = rng.normal(size=p.d), rng.normal(size=(p.S, p.m))
            assert I_dirderiv(p, z, hx, hy).hex() == _dirderiv_loop(p, z, hx, hy).hex()


def test_dirderiv_smooth_reduction():
    sp = Space(d=1, m=1, q=1)
    f = sp.quad(2.0 * np.eye(2), psd=True)  # grad (2x, 2y)
    p = _prob(f, 1, 1, [0.25, 0.75], [[0.0], [1.0]])
    z = Point(x=[1.0], y=[[1.0], [2.0]])
    hx, hy = np.array([0.5]), np.array([[1.0], [-1.0]])
    want = 2.0 * 1.0 * 0.5 + 0.25 * (2.0 * 1.0 * 1.0) + 0.75 * (2.0 * 2.0 * -1.0)
    assert I_dirderiv(p, z, hx, hy) == pytest.approx(want, abs=1e-12)


def test_interchange_against_finite_differences():
    rng = np.random.default_rng(23)
    for i in range(12):
        p = generate(100 + i, d=1 + i % 2, m=1 + (i // 2) % 2, S=1 + i % 3,
                     l=1, dc=bool(i % 2))
        z = p.witness
        hx = rng.normal(size=p.d)
        hy = rng.normal(size=(p.S, p.m))
        dd = I_dirderiv(p, z, hx, hy)

        def I_of(a):
            return eval_I(p, Point(x=z.x + a * hx, y=z.y + a * hy))

        D = [(I_of(a) - I_of(0.0)) / a for a in (1e-3, 1e-4, 1e-5)]
        d1 = (10.0 * D[1] - D[0]) / 9.0
        d2 = (10.0 * D[2] - D[1]) / 9.0
        fd = (100.0 * d2 - d1) / 99.0
        assert abs(fd - dd) <= 1e-6 * (1.0 + abs(dd))


def test_sampled_lipschitz_bound():
    rng = np.random.default_rng(41)
    p = generate(77, d=2, m=2, S=2, l=1, dc=True)
    base = p.witness
    for _ in range(20):
        u1 = rng.normal(size=2 + 2 * 2)
        u2 = rng.normal(size=2 + 2 * 2)
        u1 *= rng.uniform(0, 1) / np.linalg.norm(u1)
        u2 *= rng.uniform(0, 1) / np.linalg.norm(u2)
        z1 = Point(x=base.x + u1[:2], y=base.y + u1[2:].reshape(2, 2))
        z2 = Point(x=base.x + u2[:2], y=base.y + u2[2:].reshape(2, 2))
        vmax = 0.0
        for z in (z1, z2):
            bc = block_codiff(p, z)
            for cd in bc.per_scenario:
                vmax = max(vmax, np.linalg.norm(cd.hypo[:, 1:], axis=1).max(),
                           np.linalg.norm(cd.hyper[:, 1:], axis=1).max())
        Lhat = 2.0 * vmax * 1.1
        gap = abs(eval_I(p, z1) - eval_I(p, z2))
        dist = np.sqrt(np.sum((z1.x - z2.x) ** 2) + np.sum((z1.y - z2.y) ** 2))
        assert gap <= Lhat * dist + 1e-12


def _bits(*objs):
    """Every array and number in objs, through dataclasses and sequences,
    with its bytes."""
    out = []
    for o in objs:
        if dataclasses.is_dataclass(o):
            out.append(_bits(*(getattr(o, f.name) for f in dataclasses.fields(o))))
        elif isinstance(o, (tuple, list)):
            out.append(_bits(*o))
        elif isinstance(o, (np.ndarray, float)):
            a = np.asarray(o)
            out.append((a.dtype.str, a.shape, a.tobytes()))
        else:
            out.append((type(o), o))
    return tuple(out)


def _one_point_blocks(expr, X, Y, TH):
    """The rows pass's triple built one row at a time, as the scenario loop
    of one codiff call per row that the rows pass replaced; X is (N, d) or
    the (d,) x every row shares.  No rows differentiate no point."""
    X = np.broadcast_to(X, (len(Y), np.shape(X)[-1]))
    rows = [_vertex_blocks(expr, X[r:r + 1], Y[r:r + 1], TH[r:r + 1]) for r in range(len(Y))]
    return tuple(map(np.concatenate, zip(*rows))) if rows else _vertex_blocks(expr, X, Y, TH)


def test_scenario_layers_never_differentiate_point_by_point(monkeypatch):
    p = generate(1000, d=2, m=2, S=5, l=2, dc=True)
    y_out = p.witness.y + 2.0 * np.random.default_rng(0).normal(size=(5, 2))
    z_out = Point(x=p.witness.x, y=y_out)
    spec = PenaltySpec("l1_max", 10.0)

    def results():
        return _bits(
            [penalty_codiff(p, spec, z).per_scenario for z in (p.witness, z_out)],
            check_optimality(p, 10.0, p.witness),
            [inf_stationarity_measure(p, 10.0, z) for z in (p.witness, z_out)],
            check_nondegeneracy(p, samples=100, seed=3),
        )

    with monkeypatch.context() as mp:
        # codiff_rows and every layer reach the rows pass through _vertex_blocks
        assert rebind(mp, _vertex_blocks, _one_point_blocks) >= 3
        want = results()

    def one_point(*args, **kwargs):
        raise AssertionError("a scenario layer called codiff one point at a time")

    assert rebind(monkeypatch, codiff, one_point) > 0
    assert results() == want


def test_solver_paths_build_no_pairs(monkeypatch):
    # nu, the step model, DCA's tilt and the certificate read BlockCodiff's
    # masks; CodiffPairs are for the one-point surface only
    p = generate(1000, d=2, m=2, S=5, l=2, dc=True)
    z_out = Point(x=p.witness.x, y=p.witness.y + 2.0 * np.random.default_rng(0).normal(size=(5, 2)))
    assert phi_l1(p, z_out) > 0.0

    def results():
        return _bits(
            dca_solve(p, 10.0, p.witness, SolveOpts(max_iter=1, escalate=False)),
            codiff_descent(p, 10.0, p.witness, SolveOpts(cd_max_iter=5)),
            inf_stationarity_measure(p, 10.0, z_out),
        )

    want = results()

    def pairs(*args, **kwargs):
        raise AssertionError("a solver path built a CodiffPair or a quasidiff")

    for orig in (CodiffPair, quasidiff):
        assert rebind(monkeypatch, orig, pairs) > 0
    assert results() == want


# ---------------------------------------------------------------------------
# the one search over superdifferential selections


def _table_score(values):
    """score(choice) = (values[choice], choice), recording every call."""
    calls = []

    def score(choice):
        calls.append(choice)
        return float(values[choice]), choice

    return score, calls


def test_selection_tie_goes_to_first_in_product_order():
    values = np.array([[0.0, 3.0], [3.0, 1.0]])
    score, _ = _table_score(values)
    value, choice, exhaustive, checked = max_over_selections([np.zeros((2, 1))] * 2, score)
    assert (value, choice, exhaustive, checked) == (3.0, (0, 1), True, 4)


def test_no_sets_score_the_empty_choice_once():
    # every generated instance's case: no scenario has several zero-offset
    # hyper vertices, so the one choice is scored directly
    calls = []

    def score(choice):
        calls.append(choice)
        return 2.5, "payload"

    assert max_over_selections([], score) == (2.5, "payload", True, 1)
    assert calls == [()]


def test_selection_search_exhaustive_up_to_cap():
    sups = [np.zeros((2, 1))] * 4  # 16 choices
    assert 2 ** 4 == ENUM_CAP
    score, calls = _table_score(np.arange(16.0).reshape((2,) * 4))
    value, choice, exhaustive, checked = max_over_selections(sups, score)
    assert exhaustive and checked == len(calls) == ENUM_CAP
    assert (value, choice) == (15.0, (1, 1, 1, 1))
    score, calls = _table_score(np.arange(ENUM_CAP + 1.0))
    _v, _c, exhaustive, checked = max_over_selections([np.zeros((ENUM_CAP + 1, 1))], score)
    assert not exhaustive and checked == len(calls)


def test_greedy_selection_never_below_its_start():
    rng = np.random.default_rng(0)
    for _ in range(20):
        sups = [rng.normal(size=(int(rng.integers(2, 4)), 2)) for _ in range(5)]
        start = tuple(int(np.argmin((W * W).sum(axis=1))) for W in sups)
        values = rng.normal(size=[W.shape[0] for W in sups])
        score, calls = _table_score(values)
        value, choice, exhaustive, checked = max_over_selections(sups, score)
        assert not exhaustive and calls[0] == start and checked == len(calls)
        assert value == values[choice] >= values[start]


def _nu_by_selection(bc, A, x, eps):
    """[(nu, q)] for every selection of zero-offset hyper vertices, in
    product order: the scenario pairs' quasidiff(., eps) sets, each row of
    scenario s embedded in the joint coordinates (x, y_1..y_S) as p_s times
    its x-part and sqrt(p_s) times its y-part in y_s's columns, A's normals
    in x, one _least_norm each, q then in the L2(P) coordinates."""
    sets = [quasidiff(cd, eps) for cd in bc.per_scenario]
    sub = np.vstack([qd.sub for qd in sets])
    sv = np.repeat(np.arange(bc.S), [qd.sub.shape[0] for qd in sets])
    normals, out = A.normal_rays(x, eps), []
    d, k, p = bc.d, sv.shape[0], bc.probs[sv][:, None]
    Rj = np.hstack((normals, np.zeros((normals.shape[0], bc.S * bc.m))))
    for choice in itertools.product(*[range(qd.sup.shape[0]) for qd in sets]):
        V = sub + np.array([qd.sup[c] for qd, c in zip(sets, choice)])[sv]
        Vj = np.zeros((k, d + bc.S * bc.m))
        Vj[:, :d] = p * V[:, :d]
        Vj[:, d:].reshape(k, bc.S, bc.m)[np.arange(k), sv] = np.sqrt(p) * V[:, d:]
        q = _least_norm(Vj, Rj, np.bincount(sv).tolist())[0]
        if inside(q, np.vstack((Vj, Rj))):
            q = np.zeros(q.shape[0])
        nu = float(np.linalg.norm(q))
        q[bc.d:] /= np.repeat(np.sqrt(bc.probs), bc.m)
        out.append((nu, q))
    return out


def _min_of_two_pieces(S):
    """(problem, point): f = (x^2 + y^2)/2 + min(y - theta, theta - y), with
    theta_s = 0 on the even scenarios, whose two pieces tie at y_s = 0 (two
    zero-offset hyper vertices), and 1 on the odd ones."""
    dims = Space(d=1, m=1, q=1).dims
    f = add(quad(dims, np.eye(2), psd=True),
            minimum(affine(dims, cy=[1.0], ct=[-1.0]), affine(dims, cy=[-1.0], ct=[1.0])))
    th = (np.arange(S) % 2.0)[:, None]
    p = TwoStageProblem(d=1, m=1, A=FirstStageSet.box([-5.0], [5.0]), f=f, g=(),
                        scenarios=ScenarioSpace(probs=np.full(S, 1.0 / S), params=th))
    return p, Point(x=[0.3], y=np.zeros((S, 1)))


@pytest.mark.parametrize("case", ["kinks", "min_pieces", "ragged"])
def test_nu_is_the_largest_over_the_enumerated_selections(case):
    # the selection search on the vertex arrays against every selection
    # scored by the per-scenario pipeline, bit for bit; the ragged case is
    # the walk path, its one-row blocks padded into one array
    p, z = {"kinks": lambda: (concave_kinks(3), concave_kinks(3).witness),
            "min_pieces": lambda: _min_of_two_pieces(3), "ragged": ragged_case}[case]()
    bc = block_codiff(p, z)
    for eps in (ACT_TOL, 1e-3, 0.1):
        ref = _nu_by_selection(bc, p.A, z.x, eps)
        nu, q, exhaustive = bc.least_norm(p.A, z.x, eps)
        best = max(ref, key=lambda r: r[0])  # the first largest in product order
        assert exhaustive and len(ref) == {"kinks": 8, "min_pieces": 4, "ragged": 2}[case]
        assert (nu.hex(), q.tobytes()) == (best[0].hex(), best[1].tobytes())


def test_nu_past_the_cap_is_a_lower_bound():
    # 2^5 selections: the greedy climb is flagged and never above the largest
    p, z = concave_kinks(5), concave_kinks(5).witness
    bc = block_codiff(p, z)
    nu, _q, exhaustive = bc.least_norm(p.A, z.x, ACT_TOL)
    assert not exhaustive
    assert 0.0 < nu <= max(r[0] for r in _nu_by_selection(bc, p.A, z.x, ACT_TOL))


def _padded(bc, pads=2):
    """bc with pad rows after every scenario's vertices, as the walk pads a
    row of fewer vertices than the most: zero slope and offset -inf (hypo)
    or +inf (hyper)."""
    def pad(A, fill):
        out = np.zeros((A.shape[0], A.shape[1] + pads, A.shape[2]))
        out[:, :A.shape[1]] = A
        out[:, A.shape[1]:, 0] = fill
        return out
    return dataclasses.replace(bc, H=pad(bc.H, -np.inf), G=pad(bc.G, np.inf))


@pytest.mark.parametrize("seed", range(1000, 1012))
def test_plan_and_walk_layouts_agree_bit_for_bit(seed):
    # one rows pass's triple and the same triple plus pad rows: nu, q and
    # the exhaustive flag, the model step that q starts the search at, and
    # the scenario pairs
    p = generate(seed, d=2, m=2, S=3, l=2, dc=True)
    rng = np.random.default_rng(seed)
    z_off = Point(x=p.A.project(p.witness.x + 0.3 * rng.normal(size=2)),
                  y=p.witness.y + 0.5 * rng.normal(size=(3, 2)))
    for z in (p.witness, z_off):
        plan = penalty_codiff(p, PenaltySpec("l1_max", 10.0), z)
        walk = _padded(plan)
        assert _bits(walk.per_scenario) == _bits(plan.per_scenario)
        for eps in (ACT_TOL, 1e-3, 0.1):
            nu, q, exhaustive = plan.least_norm(p.A, z.x, eps)
            nu_w, q_w, exhaustive_w = walk.least_norm(p.A, z.x, eps)
            assert (nu.hex(), q.tobytes(), exhaustive) == (nu_w.hex(), q_w.tobytes(), exhaustive_w)
            assert _model_start(plan, q, nu) == _model_start(walk, q, nu)


def _kinks_six(seed, S=6):
    """S scenarios, each on a concave kink of f = quad + affine - a |y - theta|
    at y_s = theta_s, x drawn: 2^S selections, coupled through x."""
    rng = np.random.default_rng(seed)
    dims = Space(d=2, m=1, q=1).dims
    B = rng.normal(size=(3, 3))
    f = dc(add(quad(dims, B @ B.T / 3, psd=True),
               affine(dims, cx=rng.normal(size=2), cy=rng.normal(size=1), ct=[1.0])),
           scale(float(rng.uniform(0.5, 2.0)), absolute(affine(dims, cy=[1.0], ct=[-1.0]))))
    th = rng.normal(size=(S, 1))
    p = TwoStageProblem(d=2, m=1, A=FirstStageSet.box([-5.0, -5.0], [5.0, 5.0]), f=f, g=(),
                        scenarios=ScenarioSpace(probs=np.full(S, 1.0 / S), params=th))
    return p, Point(x=rng.uniform(-1, 1, 2), y=th.copy())


def test_greedy_selection_finds_the_exhaustive_nu(monkeypatch):
    # 64 selections; the smallest-norm start alone gives nu = 0.52
    p, z = _kinks_six(1)
    greedy = inf_stationarity_measure(p, 10.0, z)
    monkeypatch.setattr("codiffsp.expectation.ENUM_CAP", 2 ** p.S)
    exact = inf_stationarity_measure(p, 10.0, z)
    assert greedy == exact == pytest.approx(-1.7095918609918872)


@pytest.mark.parametrize("seed", [1000, 1001, 1002])
def test_tilt_shifts_every_hypo_slope(seed):
    # row s of the tilt comes off every hypo slope of scenario s, bit for bit;
    # offsets and hyper vertices stay, and expect takes the same linear form
    p = generate(seed, d=2, m=2, S=3, l=2, dc=True)
    rng = np.random.default_rng(seed)
    z = Point(x=p.witness.x + 0.3 * rng.normal(size=2), y=p.witness.y + rng.normal(size=(3, 2)))
    tilt = rng.normal(size=(3, 4))
    integrand = penalty_integrand(p, 10.0)
    plain = _integrand_codiff(p, integrand, z)
    tilted = _integrand_codiff(p, integrand, z, tilt)
    for t, a, b in zip(tilt, plain.per_scenario, tilted.per_scenario):
        assert b.hypo[:, 0].tobytes() == a.hypo[:, 0].tobytes()
        assert b.hypo[:, 1:].tobytes() == (a.hypo[:, 1:] - t).tobytes()
        assert b.hyper.tobytes() == a.hyper.tobytes()
    lin = sum(p.scenarios.probs[s] * (tilt[s] @ np.concatenate((z.x, z.y[s]))) for s in range(3))
    assert expect(p, integrand, z, tilt) == pytest.approx(expect(p, integrand, z) - lin, rel=1e-13)


def _nu_at_boundary(S, seed=1000):
    p = generate(seed, d=2, m=2, S=S, l=2, dc=True)
    z = boundary_point(p, seed)
    bc = penalty_codiff(p, PenaltySpec("l1_max", 10.0), z)
    return lambda: bc.least_norm(p.A, z.x, ACT_TOL)


@pytest.mark.parametrize("seed", [1000, 1001])
def test_nu_past_the_crossover_calls_no_nnls(monkeypatch, seed):
    # at a boundary point every scenario keeps the two vertices of the
    # g_plus kink: nu takes the segment path and agrees with the NNLS kernel
    nu_of = _nu_at_boundary(100, seed)
    with monkeypatch.context() as mp:
        mp.setattr(_minnorm, "SEGMENT_MIN_BLOCKS", 10**9)
        nu0, q0, _ = nu_of()

    def no_nnls(*args):
        raise AssertionError("nu called nnls")

    monkeypatch.setattr(_minnorm, "nnls", no_nnls)
    nu, q, exhaustive = nu_of()
    assert exhaustive and nu > 1.0
    assert abs(nu - nu0) <= 1e-12 * nu0
    assert np.allclose(q, q0, rtol=0.0, atol=1e-11 * nu0)


def test_nu_below_the_crossover_keeps_the_nnls_bits(monkeypatch):
    # one segment block short of the crossover nu is the NNLS kernel's, bit
    # for bit; at the crossover the segment path serves it
    served = []

    def spy(*args):
        served.append(1)
        return _segments_least_norm(*args)

    monkeypatch.setattr(_minnorm, "_segments_least_norm", spy)
    below, at = _nu_at_boundary(SEGMENT_MIN_BLOCKS - 1), _nu_at_boundary(SEGMENT_MIN_BLOCKS)
    got = below()
    assert not served
    at()
    assert served
    monkeypatch.setattr(_minnorm, "SEGMENT_MIN_BLOCKS", 10**9)
    want = below()
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    assert got[1].tobytes() == want[1].tobytes() and got[2] == want[2]
