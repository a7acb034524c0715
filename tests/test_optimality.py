"""Multiplier certificates, the smooth KKT case, inf-stationarity."""

import numpy as np
import pytest

from codiffsp import (
    FirstStageSet,
    InfeasibleCandidate,
    Point,
    ScenarioSpace,
    Space,
    TwoStageProblem,
    ValidationError,
    absolute,
    add,
    affine,
    codiff,
    constant,
    evaluate,
    generate,
    min_norm_point,
    quad,
    quasidiff,
    scale,
)
from codiffsp.optimality import check_optimality, inf_stationarity_measure
from codiffsp.solvers import SolveOpts, codiff_descent, dca_solve

from conftest import (
    concave_kinks, coupled_1d, lambda_two_instance, one_scenario, smooth_free_1d,
)

DIMS = Space(d=1, m=1, q=0).dims


def _smooth_free():
    return TwoStageProblem(
        d=1, m=1, A=FirstStageSet.free(),
        f=quad(DIMS, 2.0 * np.eye(2), psd=True), g=(),
        scenarios=one_scenario(),
    )


def test_analytic_multiplier_is_two():
    p = lambda_two_instance()
    cert = check_optimality(p, 10.0, Point(x=[0.0], y=[[0.0]]))
    assert cert.lambdas[0][0] == pytest.approx(2.0, abs=1e-6)
    assert cert.residual_stationarity <= 1e-9
    assert cert.residual_complementarity <= 1e-9
    assert cert.residual_normal_cone <= 1e-9
    assert cert.budget_sum == pytest.approx(2.0, abs=1e-6)
    assert cert.budget_bound == 10.0
    assert cert.fallback is False


def test_unconstrained_minimum_no_multipliers():
    p = _smooth_free()
    cert = check_optimality(p, 1.0, Point(x=[0.0], y=[[0.0]]))
    assert cert.lambdas.size == 0
    assert cert.residual_stationarity <= 1e-9
    assert cert.residual_normal_cone <= 1e-9


def test_nonstationary_residual_reaches_gradient_norm():
    # x pinned by the degenerate box, f = (y-1)^2: grad at y=-1 is -4
    p = lambda_two_instance()
    cert = check_optimality(p, 10.0, Point(x=[0.0], y=[[-1.0]]))
    assert cert.residual_stationarity >= 4.0 - 1e-6
    assert cert.lambdas[0][0] == 0.0  # g = -1 inactive


def test_free_x_gradient_splits_between_residuals():
    # grad f = (2, 2) at (1, 1): the x-part lands in zeta, so the miss is
    # shared by the y-stationarity and normal-cone residuals
    p = _smooth_free()
    cert = check_optimality(p, 1.0, Point(x=[1.0], y=[[1.0]]))
    joint = np.hypot(cert.residual_stationarity, cert.residual_normal_cone)
    assert joint >= np.sqrt(8.0) - 1e-6


def test_kink_in_x_certifies_true_minimum():
    # f = |x| + y^2 has its minimum at 0; both subgradients (+-1, 0) reach
    # the y-residual 0, and only their midpoint gives zeta = 0
    f = add(absolute(affine(DIMS, cx=[1.0])), quad(DIMS, np.diag([0.0, 2.0]), psd=True))
    p = TwoStageProblem(
        d=1, m=1, A=FirstStageSet.free(), f=f, g=(), scenarios=one_scenario()
    )
    cert = check_optimality(p, 1.0, Point(x=[0.0], y=[[0.0]]))
    assert cert.residual_stationarity <= 1e-9
    assert cert.residual_normal_cone <= 1e-9


@pytest.mark.parametrize("S", [1, 5])
def test_certificate_reports_worst_selection(S):
    # the selection w = +1 of -|y| leaves sub f + w = (0, 2) in every
    # scenario: the condition fails by 2 although w = -1 would meet it
    p = concave_kinks(S)
    cert = check_optimality(p, 10.0, p.witness)
    assert cert.residual_stationarity == pytest.approx(2.0)
    assert cert.checked_selections == 2 * S
    assert cert.fallback is False


def test_infeasible_candidate_rejected():
    p = lambda_two_instance()
    with pytest.raises(InfeasibleCandidate):
        check_optimality(p, 1.0, Point(x=[0.5], y=[[0.0]]))
    with pytest.raises(InfeasibleCandidate):
        check_optimality(p, 1.0, Point(x=[0.0], y=[[2.0]]))


def test_complementarity_structural():
    # inactive constraints carry zero multipliers exactly
    p = coupled_1d()
    z = Point(x=[0.0], y=[[-3.0]])  # g = y - 1 = -4, inactive
    cert = check_optimality(p, 10.0, z)
    assert cert.lambdas[0][0] == 0.0
    assert cert.residual_complementarity <= 1e-8


def test_smooth_kkt_agrees_with_codiff_route():
    # c enters the certificate only as its budget bound: the smooth KKT
    # multiplier and residuals at c = 0 are those at c = 10
    p = lambda_two_instance()
    z = Point(x=[0.0], y=[[0.0]])
    a = check_optimality(p, 10.0, z)
    b = check_optimality(p, 0.0, z)
    assert abs(a.lambdas[0][0] - b.lambdas[0][0]) <= 1e-9
    assert abs(a.residual_stationarity - b.residual_stationarity) <= 1e-6
    assert abs(a.residual_normal_cone - b.residual_normal_cone) <= 1e-6


def test_smooth_kkt_positive_residual_off_optimum():
    p = _smooth_free()
    cert = check_optimality(p, 0.0, Point(x=[0.0], y=[[1.0]]))
    assert cert.residual_stationarity == pytest.approx(2.0, abs=1e-9)


def test_kink_constraint_multiplier():
    # f = (y-2)^2, g = |y| - 1, candidate y = 1: lambda = 2 balances grad -2
    Q = np.zeros((2, 2))
    Q[1, 1] = 2.0
    f = quad(DIMS, Q, lin=[0.0, -4.0], c0=4.0, psd=True)
    g = absolute(Space(d=1, m=1, q=0).y(0)) + constant(-1.0)
    p = TwoStageProblem(d=1, m=1, A=FirstStageSet.box([0.0], [0.0]), f=f,
                        g=(g,), scenarios=one_scenario())
    cert = check_optimality(p, 10.0, Point(x=[0.0], y=[[1.0]]))
    assert cert.lambdas[0][0] == pytest.approx(2.0, abs=1e-6)
    assert cert.residual_stationarity <= 1e-9
    assert cert.residual_complementarity <= 1e-9


def test_inf_stationarity_examples():
    p = _smooth_free()
    at_min = inf_stationarity_measure(p, 1.0, Point(x=[0.0], y=[[0.0]]),
                                      directions=128, seed=0)
    assert at_min >= -1e-9
    off = inf_stationarity_measure(p, 1.0, Point(x=[1.0], y=[[1.0]]),
                                   directions=128, seed=0)
    assert off <= -2.8  # within sampling slack of -|grad| = -2*sqrt(2)

    pk = TwoStageProblem(
        d=1, m=1, A=FirstStageSet.free(),
        f=absolute(Space(d=1, m=1, q=0).x(0)), g=(),
        scenarios=one_scenario(),
    )
    kink = inf_stationarity_measure(pk, 1.0, Point(x=[0.0], y=[[0.0]]),
                                    directions=64, seed=0)
    assert kink >= 0.0


def test_inf_stationarity_is_exact_in_a_narrow_cone():
    # f = 10|y| - 0.01x descends only inside a narrow cone around +x: the
    # measure is -dist(0, co{(-0.01, 10), (-0.01, -10)}) = -0.01
    f = add(scale(10.0, absolute(affine(DIMS, cy=[1.0]))), affine(DIMS, cx=[-0.01]))
    p = TwoStageProblem(d=1, m=1, A=FirstStageSet.free(), f=f, g=(),
                        scenarios=one_scenario())
    z = Point(x=[0.0], y=[[0.0]])
    assert inf_stationarity_measure(p, 1.0, z) == pytest.approx(-0.01, abs=1e-12)


def test_descent_end_points_are_nearly_stationary():
    # either solver's converged status means nu(ACT_TOL) <= tol_stat
    opts = SolveOpts()
    for s in (0, 7):
        p = generate(s, d=2, m=2, S=3, l=2, dc=True)
        for solve in (dca_solve, codiff_descent):
            rep = solve(p, 10.0, p.witness, opts)
            if rep.status == "converged":
                assert inf_stationarity_measure(p, 10.0, rep.final_point) >= -opts.tol_stat


def test_inf_stationarity_rejects_negative_c():
    p = _smooth_free()
    with pytest.raises(ValidationError) as exc:
        inf_stationarity_measure(p, -1.0, Point(x=[0.0], y=[[0.0]]))
    assert exc.value.code == "PENALTY_KIND"


def test_converged_solver_points_certify():
    p = coupled_1d()
    z0 = Point(x=[0.0], y=[[0.0]])
    p7 = generate(7, d=2, m=2, S=3, l=2, dc=True)
    runs = ((p, dca_solve(p, 10.0, z0)), (p, codiff_descent(p, 10.0, z0)),
            (p7, codiff_descent(p7, 10.0, p7.witness)))
    for p, rep in runs:
        assert rep.status == "converged"
        meas = inf_stationarity_measure(p, 10.0, rep.final_point,
                                        directions=128, seed=1)
        assert meas >= -1e-4
        cert = check_optimality(p, 10.0, rep.final_point)
        assert max(cert.residuals.values()) <= 1e-5


def test_smooth_converged_point_has_small_residuals():
    p = smooth_free_1d()
    rep = codiff_descent(p, 1.0, Point(x=[-3.0], y=[[4.0]]))
    cert = check_optimality(p, 1.0, rep.final_point)
    assert cert.residual_stationarity <= 1e-3
    assert cert.residual_normal_cone <= 1e-3


def _two_kink_point(p):
    """Witness x and, per scenario, the y at which both branches of every
    max-of-two-affines constraint vanish: both constraints active at a kink."""
    x = p.witness.x
    Y = []
    for th in p.scenarios.params:
        rows, rhs = [], []
        for g in p.g:
            mx, shift = g.children
            for a in mx.children:
                rows.append(a.cy)
                rhs.append(-(a.c0 + a.cx @ x + a.ct @ th + shift.value))
        Y.append(np.linalg.solve(np.array(rows), np.array(rhs)))
    return Point(x=x, y=np.array(Y))


def _minkowski_residual(p, z, s, lam):
    """y-norm of the min-norm point of co(sub f + w) + sum_i lam_i co(sub g_i + w_i),
    formed as Minkowski vertex sums."""
    th = p.scenarios.params[s]
    qf = quasidiff(codiff(p.f, z.x, z.y[s], th))
    V = qf.sub + qf.sup[0]
    for i, gi in enumerate(p.g):
        if lam[i] > 0.0:
            qg = quasidiff(codiff(gi, z.x, z.y[s], th))
            W = lam[i] * (qg.sub + qg.sup[0])
            V = (V[:, None, :] + W[None, :, :]).reshape(-1, V.shape[1])
    q, _ = min_norm_point(V[:, p.d:])
    return float(np.linalg.norm(q))


def test_kink_certificate_is_exact():
    for s in range(20):
        p = generate(s, d=2, m=4, S=2, l=2, dc=False)
        z = _two_kink_point(p)
        for sc in range(p.S):
            for gi in p.g:
                assert abs(evaluate(gi, z.x, z.y[sc], p.scenarios.params[sc])) <= 1e-9
        cert = check_optimality(p, 10.0, z)
        assert cert.fallback is False
        r = cert.residual_stationarity
        ref = max(_minkowski_residual(p, z, sc, cert.lambdas[sc]) for sc in range(p.S))
        assert abs(r - ref) <= 1e-9 * (1.0 + r)
