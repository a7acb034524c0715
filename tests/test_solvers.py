"""DC decomposition, the DCA loop, descent on the penalized codifferential."""

import dataclasses
import sys

import numpy as np
import pytest

from codiffsp import (
    FirstStageSet,
    I_expansion,
    NotDC,
    PenaltySpec,
    Phi_c,
    Point,
    ScenarioSpace,
    Space,
    TwoStageProblem,
    ValidationError,
    absolute,
    add,
    affine,
    dc,
    evaluate,
    evaluate_batch,
    generate,
    inf_stationarity_measure,
    is_feasible,
    maximum,
    quad,
    scale,
)
from codiffsp.codiff import codiff_rows, quasidiff
from codiffsp.expr import dc_parts
from codiffsp.optimality import check_optimality
import codiffsp.solvers as sv
from codiffsp.solvers import (
    SolveOpts,
    codiff_descent,
    convex_subsolve,
    dc_decompose,
    dca_solve,
)

from conftest import abs_free_1d, concave_kinks, coupled_1d, one_scenario, ragged_case, smooth_free_1d

DIMS = Space(d=1, m=1, q=0).dims


def _free_prob(f, g=()):
    return TwoStageProblem(d=1, m=1, A=FirstStageSet.free(), f=f, g=g,
                           scenarios=one_scenario())


def _sample_identity(prob, dec, c, rng, tol=1e-9):
    th = prob.scenarios.params[0]
    for _ in range(50):
        x = rng.uniform(-2, 2, prob.d)
        y = rng.uniform(-2, 2, prob.m)
        direct = evaluate(prob.f, x, y, th)
        if prob.ell:
            direct += c * max(
                0.0, max(evaluate(gi, x, y, th) for gi in prob.g)
            )
        split = evaluate(dec.plus, x, y, th) - evaluate(dec.minus, x, y, th)
        assert split == pytest.approx(direct, abs=tol)


def test_decompose_convex_objective():
    f = quad(DIMS, 2.0 * np.eye(2), psd=True)
    p = _free_prob(f)
    dec = dc_decompose(p, 5.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1)
        assert evaluate(dec.plus, x, y, []) == evaluate(f, x, y, [])
        assert evaluate(dec.minus, x, y, []) == 0.0


def test_decompose_explicit_dc_objective():
    f1 = quad(DIMS, 2.0 * np.eye(2), psd=True)
    f2 = quad(DIMS, np.eye(2), lin=[1.0, 0.0], psd=True)
    p = _free_prob(dc(f1, f2))
    dec = dc_decompose(p, 1.0)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x, y = rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1)
        assert evaluate(dec.plus, x, y, []) == evaluate(f1, x, y, [])
        assert evaluate(dec.minus, x, y, []) == evaluate(f2, x, y, [])


def test_decompose_one_dc_constraint():
    f1 = quad(DIMS, 2.0 * np.eye(2), psd=True)
    f2 = quad(DIMS, np.eye(2), psd=True)
    g1 = maximum(affine(DIMS, 0.3, [1.0], [0.5], []),
                 affine(DIMS, -0.2, [0.0], [1.0], []))
    g2 = quad(DIMS, 0.5 * np.eye(2), psd=True)
    p = _free_prob(dc(f1, f2), g=(dc(g1, g2),))
    dec = dc_decompose(p, 1.0)
    rng = np.random.default_rng(2)
    _sample_identity(p, dec, 1.0, rng)
    for _ in range(20):
        x, y = rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1)
        want_plus = evaluate(f1, x, y, []) + max(
            evaluate(g2, x, y, []), evaluate(g1, x, y, [])
        )
        want_minus = evaluate(f2, x, y, []) + evaluate(g2, x, y, [])
        assert evaluate(dec.plus, x, y, []) == pytest.approx(want_plus, abs=1e-12)
        assert evaluate(dec.minus, x, y, []) == pytest.approx(want_minus, abs=1e-12)


def test_decompose_scales_with_c():
    g1 = maximum(affine(DIMS, 0.3, [1.0], [0.5], []),
                 affine(DIMS, -0.2, [0.0], [1.0], []))
    p = _free_prob(quad(DIMS, 2.0 * np.eye(2), psd=True), g=(g1,))
    dec = dc_decompose(p, 7.5)
    _sample_identity(p, dec, 7.5, np.random.default_rng(3))


def test_decompose_is_built_once_per_problem_and_c(monkeypatch):
    # a second call returns the same split without sampling the identity
    # again, so the parts' tapes and plans are built once; failures are not
    # kept, and every call raises (a negative c by the one check of c)
    p = generate(3, d=2, m=2, S=3, l=2, dc=True)
    dec = dc_decompose(p, 10.0)
    batches = []
    monkeypatch.setattr(sv, "evaluate_batch", lambda *a: batches.append(1) or evaluate_batch(*a))
    again = dc_decompose(p, 10)
    assert again is dec and (again.plus, again.minus) == (dec.plus, dec.minus) and batches == []
    assert dc_decompose(p, 5.0) is not dec and len(batches) == 3
    for _ in range(2):
        with pytest.raises(ValidationError, match="PENALTY_KIND"):
            dc_decompose(p, -1.0)
    f = maximum(affine(DIMS, 0.0, [1.0], [0.0], []), quad(DIMS, [[0.0, 1.0], [1.0, 0.0]]))
    bad = _free_prob(f)
    for _ in range(2):
        with pytest.raises(NotDC):
            dc_decompose(bad, 1.0)


def test_decompose_rejects_non_dc():
    f = maximum(affine(DIMS, 0.0, [1.0], [0.0], []),
                quad(DIMS, [[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(NotDC):
        dc_decompose(_free_prob(f), 1.0)


@pytest.mark.parametrize("q", [0, 2])
def test_decompose_check_is_the_scalar_loop_batched(monkeypatch, q):
    # a split off by max(0, x_1 - 1) fails the sampled identity: the batched
    # check raises on the scalar loop's first failing draw with its values,
    # and evaluates each expression once over the 50 draws
    sp = Space(d=2, m=2, q=q)
    f = quad(sp.dims, np.eye(4), psd=True)
    prob = TwoStageProblem(d=2, m=2, A=FirstStageSet.free(), f=f,
                           g=(sp.affine(-0.5, cx=[0.0, 1.0], cy=[1.0, 0.0]),),
                           scenarios=ScenarioSpace(probs=[1.0], params=np.zeros((1, q))))
    bump = maximum(sp.affine(), sp.affine(-1.0, cx=[1.0, 0.0]))

    def off_split(e):
        plus, minus = dc_parts(e)
        return add(plus, bump), minus

    monkeypatch.setattr(sv, "dc_parts", off_split)
    target = sv.penalty_integrand(prob, 3.0)
    plus, minus = off_split(target)
    rng = np.random.default_rng(0)
    want = None
    for _ in range(50):
        x, y, th = rng.normal(size=2), rng.normal(size=2), rng.normal(size=q)
        lhs = evaluate(plus, x, y, th) - evaluate(minus, x, y, th)
        rhs = evaluate(target, x, y, th)
        if abs(lhs - rhs) > 1e-9 * (1.0 + abs(rhs)):
            want = f"decomposition identity failed: {lhs!r} vs {rhs!r}"
            break
    assert want is not None
    batches = []
    monkeypatch.setattr(sv, "evaluate_batch", lambda *a: batches.append(1) or evaluate_batch(*a))
    with pytest.raises(NotDC) as err:
        dc_decompose(prob, 3.0)
    assert want in str(err.value) and len(batches) == 3


def _hand_split(prob, c):
    """The split written out: with f = f1 - f2 and g_i = g_i1 - g_i2,
    plus = f1 + c max(sum_k g_k2, max_i {g_i1 + sum_{k != i} g_k2}) and
    minus = f2 + c sum_i g_i2."""
    f1, f2 = dc_parts(prob.f)
    if prob.ell == 0 or c == 0.0:
        return f1, f2
    parts = [dc_parts(gi) for gi in prob.g]
    sum_g2 = add(*(p[1] for p in parts)) if len(parts) > 1 else parts[0][1]
    branches = [sum_g2]
    for i, (gi1, _gi2) in enumerate(parts):
        others = [parts[k][1] for k in range(len(parts)) if k != i]
        branches.append(add(gi1, *others) if others else gi1)
    return add(f1, scale(c, maximum(*branches))), add(f2, scale(c, sum_g2))


@pytest.mark.parametrize("mode", [{"dc": True}, {"dc": False}, {"smooth": True}],
                         ids=["dc", "convex", "smooth"])
def test_decompose_has_the_bits_of_the_written_out_split(mode):
    for seed in range(8):
        for ell in range(4):
            p = generate(seed, d=2, m=2, S=3, l=ell, **mode)
            rng = np.random.default_rng(seed)
            X, Y = 2.0 * rng.normal(size=(2, 6, 2))
            TH = rng.normal(size=(6, 2))
            for c in (0.0, 10.0):
                dec = dc_decompose(p, c)
                for got, want in zip((dec.plus, dec.minus), _hand_split(p, c)):
                    for r in range(6):
                        assert (np.float64(evaluate(got, X[r], Y[r], TH[r])).tobytes()
                                == np.float64(evaluate(want, X[r], Y[r], TH[r])).tobytes())
                    for a, b in zip(codiff_rows(got, X, Y, TH), codiff_rows(want, X, Y, TH)):
                        assert a.hypo.shape == b.hypo.shape and a.hyper.shape == b.hyper.shape
                        assert a.hypo.tobytes() == b.hypo.tobytes()
                        assert a.hyper.tobytes() == b.hyper.tobytes()


def _subsolve(integrand, A, z0):
    # one scenario, no tilt: plain minimization of the integrand over A x R
    p = TwoStageProblem(d=1, m=1, A=A, f=integrand, g=(), scenarios=one_scenario())
    return convex_subsolve(p, integrand, np.zeros((1, 2)), z0)


def test_subsolve_quadratic_hits_target():
    z = _subsolve(quad(DIMS, np.eye(2), lin=[-0.7, 1.3], psd=True),
                  FirstStageSet.free(), Point(x=[5.0], y=[[-5.0]]))
    assert z.x[0] == pytest.approx(0.7, abs=1e-6)
    assert z.y[0, 0] == pytest.approx(-1.3, abs=1e-6)


def test_subsolve_linear_pins_box_vertex():
    z = _subsolve(affine(DIMS, 0.0, [1.0], [0.0], []),
                  FirstStageSet.box([-1.0], [2.0]), Point(x=[0.0], y=[[0.0]]))
    assert z.x[0] == pytest.approx(-1.0, abs=1e-6)


def test_subsolve_max_of_affines_finds_crossing():
    z = _subsolve(maximum(affine(DIMS, 0.0, [1.0], [0.0], []),
                          affine(DIMS, 1.0, [-2.0], [0.0], [])),
                  FirstStageSet.free(), Point(x=[3.0], y=[[0.0]]))
    assert z.x[0] == pytest.approx(1.0 / 3.0, abs=1e-4)


def test_subsolve_never_worse_than_start():
    rng = np.random.default_rng(8)
    f = maximum(affine(DIMS, 0.0, [1.0], [1.0], []), quad(DIMS, np.eye(2), psd=True))
    for _ in range(10):
        z0 = Point(x=rng.uniform(-3, 3, 1), y=rng.uniform(-3, 3, (1, 1)))
        z = _subsolve(f, FirstStageSet.free(), z0)
        assert evaluate(f, z.x, z.y[0], []) <= evaluate(f, z0.x, z0.y[0], []) + 1e-12


def test_subsolve_tilt_rows_are_scenario_slopes():
    # sum_s p_s (|(x, y_s)|^2 / 2 - <tilt[s], (x, y_s)>) is least at
    # x = sum_s p_s tilt[s, 0] and y_s = tilt[s, 1]
    f = quad(DIMS, np.eye(2), psd=True)
    sc = ScenarioSpace(probs=[0.25, 0.75], params=np.zeros((2, 0)))
    p = TwoStageProblem(d=1, m=1, A=FirstStageSet.free(), f=f, g=(), scenarios=sc)
    tilt = np.array([[1.0, -2.0], [3.0, 0.5]])
    z = convex_subsolve(p, f, tilt, Point(x=[0.0], y=[[0.0], [0.0]]))
    assert z.x[0] == pytest.approx(2.5, abs=1e-5)
    assert z.y[:, 0] == pytest.approx([-2.0, 0.5], abs=1e-5)


def test_dca_coupled_instance():
    p = coupled_1d()
    rep = dca_solve(p, 10.0, Point(x=[0.0], y=[[0.0]]))
    assert rep.status == "converged"
    assert rep.final_value == pytest.approx(0.5, abs=1e-4)
    assert rep.final_point.x[0] == pytest.approx(1.5, abs=1e-3)
    assert rep.final_point.y[0, 0] == pytest.approx(1.0, abs=1e-3)
    assert rep.final_phi <= 1e-6
    vals = [h[0] for h in rep.history]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    assert rep.history[0][0] == pytest.approx(4.0)  # value at the start point
    # restarted at its stationary end point, DCA reads converged, not stalled
    again = dca_solve(p, 10.0, rep.final_point)
    assert again.status == "converged" and again.iterates == 1


def test_dca_escalates_then_converges():
    p = coupled_1d()
    rep = dca_solve(p, 0.01, Point(x=[0.0], y=[[0.0]]))
    assert rep.status == "converged"
    assert rep.c_final > 0.01  # tenfold growth until the iterate is feasible
    assert rep.final_phi <= 1e-6


def test_dca_flags_exhausted_escalation():
    # y^2 + 1 <= 0 has no feasible point; phi stays 1 at any c
    gbad = quad(DIMS, np.diag([0.0, 2.0]), lin=[0.0, 0.0], c0=1.0, psd=True)
    p = _free_prob(quad(DIMS, 2.0 * np.eye(2), psd=True), g=(gbad,))
    rep = dca_solve(p, 1.0, Point(x=[0.5], y=[[0.5]]))
    assert rep.status == "penalty_escalated(5)"
    assert rep.c_final == pytest.approx(1e5)
    assert rep.final_phi == pytest.approx(1.0, abs=1e-6)


def test_dca_capped_segment_keeps_c():
    # an iteration cap says nothing about c, so the solve ends where it is
    p = generate(0, d=2, m=2, S=3, l=2, dc=True)
    rep = dca_solve(p, 0.01, p.witness, SolveOpts(max_iter=1))
    assert rep.status == "iteration_cap"
    assert rep.c_final == 0.01
    assert rep.iterates == 1
    assert rep.final_phi > 1e-6


def _one_tight_scenario(S=100):
    """x in [-1, 1], f = x^2/2 + (y - 1)^2/2, g = y - theta_s with theta_0 = 0
    and theta_s = 5 otherwise, p_s = 1/S: only scenario 0's constraint can
    bind, and its violation counts in phi at weight 1/S."""
    sp = Space(d=1, m=1, q=1)
    th = np.full((S, 1), 5.0)
    th[0] = 0.0
    return TwoStageProblem(d=1, m=1, A=FirstStageSet.box([-1.0], [1.0]),
                           f=quad(sp.dims, np.eye(2), lin=[0.0, -1.0], c0=0.5, psd=True),
                           g=(sp.affine(cy=[1.0], ct=[-1.0]),),
                           scenarios=ScenarioSpace(probs=np.full(S, 1.0 / S), params=th))


@pytest.mark.parametrize("solve", [dca_solve, codiff_descent], ids=lambda f: f.__name__)
def test_escalation_tests_the_largest_constraint_value(solve):
    # at c = 0.99998 the stationary point has y_0 = 1 - c = 2e-5 > tol_feas
    # but phi = 2e-7 <= tol_feas: a test on phi stopped there, converged and
    # refused by the certificate; the max test raises c to 9.9998
    p = _one_tight_scenario()
    rep = solve(p, 0.99998, Point(x=[0.0], y=np.zeros((100, 1))))
    assert rep.status == "converged" and rep.c_final == pytest.approx(9.9998)
    assert is_feasible(p, rep.final_point)[0]
    check_optimality(p, rep.c_final, rep.final_point)
    # without escalation the same solve ends converged, infeasible by max g
    fixed = solve(p, 0.99998, Point(x=[0.0], y=np.zeros((100, 1))), SolveOpts(escalate=False))
    assert fixed.status == "converged" and fixed.final_phi <= SolveOpts().tol_feas
    assert is_feasible(p, fixed.final_point)[1].max_violation == pytest.approx(2e-5)


def test_feasibility_is_tested_only_where_it_can_escalate(monkeypatch):
    # escalate=False, as the one-step DCA benchmark runs, adds no values pass;
    # a stationary end with escalation on is tested once
    calls = []
    monkeypatch.setattr(sv, "is_feasible", lambda *a: calls.append(a) or is_feasible(*a))
    p = generate(1000, d=2, m=2, S=3, l=2, dc=True)
    dca_solve(p, 10.0, p.witness, SolveOpts(max_iter=1, escalate=False))
    codiff_descent(p, 10.0, p.witness, SolveOpts(escalate=False))
    assert calls == []
    assert codiff_descent(p, 10.0, p.witness).status == "converged"
    assert len(calls) == 1 and calls[0][2] == SolveOpts().tol_feas


def test_dca_stops_on_the_certifiers_measure(monkeypatch):
    # dca_solve's stop test is optimality._inf_stationarity, the measure
    # inf_stationarity_measure and codiffsp certify report
    seen = []
    inner = sv._inf_stationarity
    monkeypatch.setattr(sv, "_inf_stationarity", lambda *a: seen.append(inner(*a)) or seen[-1])
    p = generate(1000, d=2, m=2, S=3, l=2, dc=True)
    rep = dca_solve(p, 10.0, p.witness)
    assert rep.status == "converged" and len(seen) == rep.iterates
    assert -seen[-1][0] <= SolveOpts().tol_stat < -seen[-2][0]
    assert seen[-1][0] == inf_stationarity_measure(p, 10.0, rep.final_point)


@pytest.mark.parametrize("solve", [dca_solve, codiff_descent], ids=lambda f: f.__name__)
def test_no_escalate_keeps_c(solve):
    p = coupled_1d()
    rep = solve(p, 0.01, Point(x=[0.0], y=[[0.0]]), SolveOpts(escalate=False))
    assert rep.c_final == 0.01
    assert rep.final_phi > 1e-6  # tiny c cannot hold the iterate feasible


def test_descent_coupled_instance():
    p = coupled_1d()
    rep = codiff_descent(p, 10.0, Point(x=[0.0], y=[[0.0]]))
    assert rep.status == "converged"
    assert rep.final_value == pytest.approx(0.5, abs=1e-6)
    assert rep.final_point.x[0] == pytest.approx(1.5, abs=1e-6)
    assert rep.final_point.y[0, 0] == pytest.approx(1.0, abs=1e-6)


def test_descent_escalates_then_converges():
    # at c = 0.01 the descent is stationary at phi = 0.99; tenfold raises of
    # c reach the constrained optimum, as dca_solve's do
    p = coupled_1d()
    rep = codiff_descent(p, 0.01, Point(x=[0.0], y=[[0.0]]))
    assert rep.status == "converged"
    assert rep.c_final == 1.0
    assert rep.final_phi <= 1e-6
    assert rep.final_point.x[0] == pytest.approx(1.5, abs=1e-3)
    assert rep.final_point.y[0, 0] == pytest.approx(1.0, abs=1e-3)


def test_descent_smooth_unconstrained():
    p = smooth_free_1d()
    rep = codiff_descent(p, 1.0, Point(x=[-3.0], y=[[4.0]]))
    assert rep.status == "converged"
    assert rep.final_value <= 1e-8
    assert rep.final_point.x[0] == pytest.approx(2.0, abs=1e-3)
    assert rep.final_point.y[0, 0] == pytest.approx(2.0, abs=1e-3)


def test_descent_kink_minimum():
    p = abs_free_1d()
    rep = codiff_descent(p, 1.0, Point(x=[2.7], y=[[0.0]]))
    assert rep.status == "converged"
    assert abs(rep.final_point.x[0]) <= 1e-6


@pytest.mark.parametrize("S", [4, 5, 8])
def test_descent_leaves_concave_kinks_past_enum_cap(S):
    # 2^S selections: 16 are all scored, 32 and 256 exceed ENUM_CAP; the
    # worst selection still sees the rate-2 descent along -y in every case
    p = concave_kinks(S)
    assert inf_stationarity_measure(p, 10.0, p.witness) == pytest.approx(-2.0)
    rep = codiff_descent(p, 10.0, p.witness)
    assert rep.status == "converged"
    assert rep.final_value == pytest.approx(-2.0)


def test_descent_iteration_cap():
    p = coupled_1d()
    rep = codiff_descent(p, 10.0, Point(x=[0.0], y=[[0.0]]),
                         SolveOpts(cd_max_iter=1))
    assert rep.status == "iteration_cap"
    assert rep.iterates == 1


@pytest.mark.parametrize("bad", [
    {"max_iter": -3}, {"max_iter": 0}, {"max_iter": 2.5},
    {"cd_max_iter": -3}, {"cd_max_iter": 0},
    {"tol_stat": float("nan")}, {"tol_stat": -1e-6},
    {"tol_feas": float("inf")}, {"tol_feas": -1.0},
    {"max_iter": True}, {"cd_max_iter": False},
])
def test_solve_opts_rejects_bad_values(bad):
    with pytest.raises(ValidationError) as ei:
        SolveOpts(**bad)
    assert ei.value.code == "SOLVE_OPTS"


def test_descent_reports_stall_not_iteration_cap():
    # tol_stat below what rounding in Phi_c lets a step resolve: near the
    # minimum no Armijo step clears the rounding floor, so both solvers stop
    # stalled well before their caps instead of reporting converged
    p = smooth_free_1d()
    z0 = Point(x=[0.3], y=[[0.2]])
    opts = SolveOpts(tol_stat=1e-12)
    rep = codiff_descent(p, 1.0, z0, opts)
    assert rep.status == "stalled"
    assert rep.iterates < opts.cd_max_iter
    rep = dca_solve(p, 1.0, z0, opts)
    assert rep.status == "stalled"
    assert rep.iterates < opts.max_iter


def test_descent_reports_vertex_cap(monkeypatch):
    # codiffsp.codiff names the re-exported function; patch the module's cap
    monkeypatch.setattr(sys.modules["codiffsp.codiff"], "MAX_VERTICES", 8)
    p = generate(7, d=2, m=2, S=3, l=2, dc=True)
    rep = codiff_descent(p, 10.0, p.witness)
    assert rep.status == "vertex_cap"
    assert rep.iterates == 1
    assert rep.final_value == Phi_c(p, PenaltySpec("l1_max", 10.0), rep.final_point)


def test_subsolve_vertex_cap_keeps_its_start(monkeypatch):
    # past the cap the start's rows pass raises: expect gives its value, the
    # engine meets the cap again and the subproblem ends where it started
    monkeypatch.setattr(sys.modules["codiffsp.codiff"], "MAX_VERTICES", 8)
    p = generate(7, d=2, m=2, S=3, l=2, dc=True)
    plus = dc_decompose(p, 10.0).plus
    values = _count_calls(monkeypatch, "expect")
    z = convex_subsolve(p, plus, np.zeros((3, 4)), p.witness)
    assert values[0] == 1
    assert z.x.tobytes() == p.A.project(p.witness.x).tobytes()
    assert z.y.tobytes() == p.witness.y.tobytes()


def test_both_solvers_agree_on_coupled():
    p = coupled_1d()
    z0 = Point(x=[0.0], y=[[0.0]])
    ra = dca_solve(p, 10.0, z0)
    rb = codiff_descent(p, 10.0, z0)
    assert ra.final_value == pytest.approx(rb.final_value, abs=1e-4)


def _count_calls(monkeypatch, name, module=sv):
    """Count the calls of a module-level ``name`` of ``module``, solvers by
    default."""
    calls = [0]
    inner = getattr(module, name)

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def _descends_on_an_exact_model(monkeypatch, p, z0):
    """codiff_descent on p from z0 (A free, so no projection acts) where the
    model is exact: at every grid step, t up to 2^ARMIJO_DOUBLINGS, it is
    Phi's change along -q to 1e-12 relative, so every search accepts its
    first trial, one valuation per history entry, and takes the grid step
    of least true value among those the Armijo test passes."""
    searches, armijo = [], sv._armijo
    calls = _count_calls(monkeypatch, "_value")

    def recorded(*args):
        before = calls[0]
        step = armijo(*args)
        searches.append((args, calls[0] - before, step))
        return step

    monkeypatch.setattr(sv, "_armijo", recorded)
    rep = codiff_descent(p, 1.0, z0)
    assert rep.status == "converged"
    assert calls[0] == len(rep.history)
    assert searches and all(trials == 1 for _args, trials, _step in searches)
    for (prob, integrand, tilt, z, val, q, nu, _k0), _trials, step in searches:
        grid, model = sv._model(sv._integrand_codiff(prob, integrand, z, tilt), q)
        ts = sv._TS[grid]
        assert ts[0] == 2.0**sv.ARMIJO_DOUBLINGS
        true = np.array([sv.expect(prob, integrand, Point(x=z.x - t * q[:1], y=z.y - t * q[1:]),
                                   tilt) for t in ts]) - val
        assert np.all(np.abs(model - true) <= 1e-12 * np.maximum(1.0, abs(val + true)))
        passing = true < -sv.ARMIJO_SIGMA * ts * nu * nu
        assert step[2] == ts[np.argmin(np.where(passing, true, np.inf))]


@pytest.mark.parametrize("x0", [0.3, 3.7, -0.01])
def test_model_start_is_exact_on_polyhedral(monkeypatch, x0):
    # |x| is polyhedral, so the codifferential's model is exact
    _descends_on_an_exact_model(monkeypatch, abs_free_1d(), Point(x=[x0], y=[[0.0]]))


def _kinked_quads():
    """A free, one scenario: f = max(q1, q2) + |x - y|, q1 and q2 convex
    quadratics; a plan with quad atoms on both sides of a kink."""
    f = add(maximum(quad(DIMS, [[2.0, 0.0], [0.0, 1.0]], lin=[-1.0, 0.5]),
                    quad(DIMS, [[1.0, 0.5], [0.5, 3.0]], lin=[1.0, -2.0], c0=0.3)),
            absolute(affine(DIMS, 0.0, [1.0], [-1.0], [])))
    return TwoStageProblem(d=1, m=1, A=FirstStageSet.free(), f=f, g=(),
                           scenarios=one_scenario())


@pytest.mark.parametrize("case, z0", [
    ("smooth", (-3.0, 4.0)), ("smooth", (10.0, -7.0)),
    ("kinked", (3.0, -2.0)), ("kinked", (-1.5, 2.5)),
])
def test_model_start_is_exact_on_quadratic_pieces(monkeypatch, case, z0):
    # with each plan vertex's Hessian the model is exact on quad atoms too,
    # smooth or across a kink
    p = {"smooth": smooth_free_1d, "kinked": _kinked_quads}[case]()
    _descends_on_an_exact_model(monkeypatch, p, Point(x=[z0[0]], y=[[z0[1]]]))


def _first_order_start(bc, q, nu):
    """The start rule of a walked pass, written out: the smallest k >= 0
    whose t = 2^-k passes the Armijo test on bc's first-order expansion
    along -q (I_expansion), else 0."""
    d, S = bc.d, bc.S
    for k in range(sv.ARMIJO_HALVINGS):
        t = 0.5**k
        model = I_expansion(bc, -t * q[:d], -t * q[d:].reshape(S, -1))
        if model <= -sv.ARMIJO_SIGMA * t * nu * nu:
            return k
    return 0


@pytest.mark.parametrize("x0", [3.7, -2.2, 0.3])
@pytest.mark.parametrize("slope", [0.5, -0.5])
def test_model_start_is_exact_with_tilt(monkeypatch, slope, x0):
    # DCA's subproblem |x| - slope * x is polyhedral too: with the tilt in
    # the model every search accepts its first trial
    trials = []
    armijo = sv._armijo
    calls = _count_calls(monkeypatch, "_value")

    def record_trials(*args):
        before = calls[0]
        step = armijo(*args)
        trials.append(calls[0] - before)
        return step

    monkeypatch.setattr(sv, "_armijo", record_trials)
    p = abs_free_1d()
    z = convex_subsolve(p, p.f, np.array([[slope, 0.0]]), Point(x=[x0], y=[[0.0]]))
    assert abs(z.x[0]) <= 1e-6
    assert len(trials) > 5 and set(trials) == {1}


def test_walk_blocks_pad_into_the_model_as_absent_vertices():
    # an integrand without a plan is walked row by row, unequal vertex
    # counts padded into one array: the padding rows change no model step
    # (rows repeating a real vertex in their place give the same k0), and
    # DCA's tilt is each scenario's mean zero-offset hypo slope
    p, z = ragged_case()
    integrand = sv.penalty_integrand(p, 10.0)
    bc = sv._integrand_codiff(p, integrand, z)
    assert integrand._plan is None and np.isinf(bc.H[:, :, 0]).any()
    same = dataclasses.replace(bc, **{k: np.where(np.isinf(A[:, :, :1]), A[:, :1], A)
                                      for k, A in (("H", bc.H), ("G", bc.G))})
    for eps in (sv.ACT_TOL, 1e-3, 0.1):
        nu, q, _exhaustive = bc.least_norm(p.A, z.x, eps)
        assert nu > 0.0
        for t in (1.0, 1e-3):
            assert sv._model_start(bc, t * q, nu) == sv._model_start(same, t * q, nu)
    want = [np.add.reduceat(qd.sub, [0])[0] / qd.sub.shape[0]
            for qd in map(quasidiff, bc.per_scenario)]
    assert sv._mean_slopes(bc).tobytes() == np.array(want).tobytes()


def _walked_starts(monkeypatch):
    """Check every _model_start call against _first_order_start, with
    _curvature refusing to run; returns the calls' bc.plan values."""
    plans, model_start = [], sv._model_start

    def checked(bc, q, nu):
        plans.append(bc.plan)
        k = model_start(bc, q, nu)
        assert k == _first_order_start(bc, q, nu) and k >= 0
        return k

    def refuse(*args):
        raise AssertionError("curvature gathered on walked rows")

    monkeypatch.setattr(sv, "_model_start", checked)
    monkeypatch.setattr(sv, "_curvature", refuse)
    return plans


def test_walked_rows_keep_the_first_order_start(monkeypatch):
    # an integrand without a plan is walked: no curvature, and the search
    # starts at the largest t <= 1 that its first-order model passes
    plans = _walked_starts(monkeypatch)
    p, z = ragged_case()
    codiff_descent(p, 10.0, z, SolveOpts(cd_max_iter=30))
    assert plans and set(plans) == {None}


def test_walked_plan_keeps_the_first_order_start(monkeypatch):
    # a plan's pass walks once AUTO_PRUNE_AT falls below its peak; the walk
    # prunes, so its rows carry no plan and no curvature.  (A MAX_VERTICES
    # below the peak makes the walk raise instead, before any model start:
    # test_descent_reports_vertex_cap.)
    p = generate(1000, d=2, m=2, S=3, l=2, dc=True)
    integrand = sv.penalty_integrand(p, 10.0)
    assert integrand._plan.peak > 4
    plans = _walked_starts(monkeypatch)
    monkeypatch.setattr(sys.modules["codiffsp.codiff"], "AUTO_PRUNE_AT", 4)
    codiff_descent(p, 10.0, p.witness, SolveOpts(cd_max_iter=30))
    assert plans and set(plans) == {None}


def test_searches_start_at_the_model_step(monkeypatch):
    # on a kinked S = 3 instance some searches start below t = 1, and each
    # accepts the model's step or a later halving of it
    starts, taken = [], []
    model_start, armijo = sv._model_start, sv._armijo

    def record_start(*args):
        starts.append(model_start(*args))
        return starts[-1]

    def record_step(*args):
        step = armijo(*args)
        taken.append(None if step is None else step[2])
        return step

    monkeypatch.setattr(sv, "_model_start", record_start)
    monkeypatch.setattr(sv, "_armijo", record_step)
    p = generate(1000, d=2, m=2, S=3, l=2, dc=True)
    assert codiff_descent(p, 10.0, p.witness).status == "converged"
    assert len(starts) == len(taken) and max(starts) > 0
    for k0, t in zip(starts, taken):
        assert t is None or (t <= 0.5**k0 and np.log2(t) == int(np.log2(t)))


def test_value_calls_stay_few(monkeypatch):
    # counts repeat exactly: 228 and 647 with the exact model's start; a
    # search from t = 1 made 1373 and 2184, the first-order model's start
    # 195 and 931; every start and trial point is one valuation, a rows pass
    calls = _count_calls(monkeypatch, "_value")
    for seed in range(1000, 1004):
        p = generate(seed, d=2, m=2, S=3, l=2, dc=True)
        codiff_descent(p, 10.0, p.witness)
    assert calls[0] <= 250
    calls[0] = 0
    for seed in range(1000, 1004):
        p = generate(seed, d=2, m=2, S=3, l=2, dc=True)
        dca_solve(p, 10.0, p.witness)
    assert calls[0] <= 710


@pytest.mark.parametrize("seed", range(1000, 1004))
def test_descent_converges_on_a_scaled_objective(seed):
    # f scaled by 1e-3 and c = 0.01 keep the minimizers and scale Phi_c by
    # 1e-3: steps past 1 reach them, where steps t <= 1 hit the iteration
    # cap; check_optimality accepts the end point, and its value is the
    # scale-1 solve's, scaled, to within the absolute tol_stat
    p = generate(seed, d=2, m=2, S=3, l=2, dc=True)
    small = dataclasses.replace(p, f=scale(1e-3, p.f))
    rep = codiff_descent(small, 0.01, small.witness)
    assert rep.status == "converged" and rep.c_final == 0.01
    check_optimality(small, rep.c_final, rep.final_point)
    unit = codiff_descent(p, 10.0, p.witness)
    assert rep.final_value == pytest.approx(1e-3 * unit.final_value, abs=SolveOpts().tol_stat)


def test_subsolve_takes_each_codifferential_from_its_trial(monkeypatch):
    # an accepted trial's rows pass is the next iteration's codifferential:
    # one pass at the start and one per Armijo trial, and no value pass
    p = generate(1000, d=2, m=2, S=3, l=2, dc=True)
    dec = dc_decompose(p, 10.0)
    tilt = sv._mean_slopes(sv._integrand_codiff(p, dec.minus, p.witness))
    passes = _count_calls(monkeypatch, "_vertex_blocks", sys.modules["codiffsp.expectation"])
    values = _count_calls(monkeypatch, "expect")
    trials = _armijo_trials(monkeypatch)
    convex_subsolve(p, dec.plus, tilt, p.witness)
    assert trials[0] > 10
    assert (passes[0], values[0]) == (1 + trials[0], 0)


def _armijo_trials(monkeypatch):
    """Count the _value calls made inside _armijo: its trial points."""
    trials, searching, value, armijo = [0], [False], sv._value, sv._armijo

    def counted(*args):
        trials[0] += searching[0]
        return value(*args)

    def search(*args):
        searching[0] = True
        try:
            return armijo(*args)
        finally:
            searching[0] = False

    monkeypatch.setattr(sv, "_value", counted)
    monkeypatch.setattr(sv, "_armijo", search)
    return trials


def test_descent_takes_each_codifferential_from_its_trial(monkeypatch):
    # codiff_descent's twin of the subsolve test: Phi_c's value at the start
    # and at each Armijo trial is one rows pass of f + c g_plus, whose
    # codifferential the next iteration reads, and no value pass runs
    p = generate(1000, d=2, m=2, S=3, l=2, dc=True)
    spec = PenaltySpec("l1_max", 10.0)
    passes = _count_calls(monkeypatch, "_vertex_blocks", sys.modules["codiffsp.expectation"])
    values = _count_calls(monkeypatch, "expect")
    trials = _armijo_trials(monkeypatch)
    rep = codiff_descent(p, 10.0, p.witness, SolveOpts(escalate=False))
    assert rep.status == "converged" and trials[0] > 10
    assert (passes[0], values[0]) == (1 + trials[0], 0)
    assert rep.final_value == Phi_c(p, spec, rep.final_point)


@pytest.mark.parametrize("S, exhaustive", [(4, True), (5, False)])
def test_report_says_whether_nu_was_exhaustive(S, exhaustive):
    # at the start 2^S selections: ENUM_CAP = 16 are all scored, 32 are climbed
    # greedily; nu ~ 2 <= tol_stat stops the descent there either way
    p = concave_kinks(S)
    rep = codiff_descent(p, 10.0, p.witness, SolveOpts(tol_stat=10.0))
    assert (rep.status, rep.iterates, len(rep.history)) == ("converged", 1, 1)
    assert rep.exhaustive is exhaustive
