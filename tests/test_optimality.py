"""Multiplier certificates, the smooth KKT case, inf-stationarity."""

import itertools

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
    is_feasible,
    quad,
    quasidiff,
    scale,
)
from codiffsp import _minnorm
from codiffsp._minnorm import SEGMENT_MIN_BLOCKS, _blocks_least_norm, _least_norm
from codiffsp.codiff import CodiffPair, _vertex_blocks, codiff_rows
from codiffsp.expectation import ACT_TOL, max_over_selections
from codiffsp.optimality import Certificate, check_optimality, inf_stationarity_measure
from codiffsp.solvers import SolveOpts, codiff_descent, dca_solve

from conftest import (
    boundary_point, concave_kinks, coupled_1d, lambda_two_instance, one_scenario, ragged_case,
    rebind, smooth_free_1d,
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


def test_refusal_names_the_worst_constraint_and_scenario():
    # the message is is_feasible's report: g[1] in scenario 2 is the worst
    sp = Space(d=1, m=1, q=1)
    p = TwoStageProblem(d=1, m=1, A=FirstStageSet.free(), f=quad(sp.dims, np.eye(2), psd=True),
                        g=(sp.affine(-1.0, cy=[1.0]), sp.affine(ct=[1.0])),
                        scenarios=ScenarioSpace(probs=np.full(3, 1 / 3),
                                                params=[[-1.0], [-0.5], [3e-6]]))
    z = Point(x=[0.0], y=[[0.0], [0.0], [1.0 + 2e-6]])
    _ok, rep = is_feasible(p, z)
    assert (rep.worst_constraint, rep.worst_scenario) == (1, 2) and not rep.feasible
    with pytest.raises(InfeasibleCandidate) as ei:
        check_optimality(p, 10.0, z)
    assert str(ei.value) == ("[INFEASIBLE_CANDIDATE] max g = 3.000e-06 at g[1] in scenario 2, "
                             "x off A by 0.000e+00 (tolerance 1.0e-06)")


def test_converged_seed_set_points_are_feasible():
    # every converged S = 3 end point passes the one rule at its default
    # tolerance, in is_feasible and in check_optimality alike
    ends = 0
    for seed in range(1000, 1012):
        p = generate(seed, d=2, m=2, S=3, l=2, dc=True)
        for solve in (dca_solve, codiff_descent):
            rep = solve(p, 10.0, p.witness)
            if rep.status == "converged":
                ends += 1
                assert is_feasible(p, rep.final_point)[0]
                check_optimality(p, 10.0, rep.final_point)
    assert ends == 24


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
                                      directions=128)
    assert at_min >= -1e-9
    off = inf_stationarity_measure(p, 1.0, Point(x=[1.0], y=[[1.0]]),
                                   directions=128)
    assert off <= -2.8  # within sampling slack of -|grad| = -2*sqrt(2)

    pk = TwoStageProblem(
        d=1, m=1, A=FirstStageSet.free(),
        f=absolute(Space(d=1, m=1, q=0).x(0)), g=(),
        scenarios=one_scenario(),
    )
    kink = inf_stationarity_measure(pk, 1.0, Point(x=[0.0], y=[[0.0]]),
                                    directions=64)
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
                                        directions=128)
        assert meas >= -1e-4
        cert = check_optimality(p, 10.0, rep.final_point)
        assert max(cert.residuals.values()) <= SolveOpts().tol_stat


@pytest.mark.parametrize("seed, S, solvers", [
    (1000, 3, (dca_solve, codiff_descent)),
    (1007, 3, (dca_solve, codiff_descent)),
    (1009, 3, (dca_solve, codiff_descent)),
    (1000, 100, (codiff_descent,)),
])
def test_converged_means_certified_in_nus_norm(seed, S, solvers):
    # converged stops at nu(ACT_TOL) <= tol_stat; the certificate measures
    # the same joint set with free multipliers, so every residual is within
    # tol_stat and the stationarity and normal-cone residuals within nu
    tol = SolveOpts().tol_stat
    p = generate(seed, d=2, m=2, S=S, l=2, dc=True)
    for solve in solvers:
        rep = solve(p, 10.0, p.witness)
        assert rep.status == "converged" and rep.exhaustive
        nu = -inf_stationarity_measure(p, 10.0, rep.final_point)
        cert = check_optimality(p, 10.0, rep.final_point)
        assert max(cert.residuals.values()) <= tol
        assert np.hypot(cert.residual_stationarity, cert.residual_normal_cone) <= nu + 1e-13
        pmin = float(p.scenarios.probs.min())
        assert cert.stationarity_max <= cert.residual_stationarity / np.sqrt(pmin) * (1.0 + 1e-12)


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


def _joint_minkowski_point(p, z, lambdas):
    """Least-norm point, in nu's joint coordinates, of the sum over scenarios
    of co(sub f + w) + sum_i lambda_i co(sub g_i + w_i) at the multipliers
    given, plus N_A(x): one hull of the Minkowski vertex sums within and
    across scenarios, the scenario sums weighted by p_s in x and sqrt(p_s)
    in y_s."""
    S, d, m = p.S, p.d, p.m
    blocks = []
    for s, th in enumerate(p.scenarios.params):
        qf = quasidiff(codiff(p.f, z.x, z.y[s], th))
        V = qf.sub + qf.sup[0]
        for i, gi in enumerate(p.g):
            if lambdas[s, i] > 0.0:
                qg = quasidiff(codiff(gi, z.x, z.y[s], th))
                W = lambdas[s, i] * (qg.sub + qg.sup[0])
                V = (V[:, None, :] + W[None, :, :]).reshape(-1, V.shape[1])
        ps = p.scenarios.probs[s]
        E = np.zeros((V.shape[0], d + S * m))
        E[:, :d] = ps * V[:, :d]
        E[:, d + s * m:d + (s + 1) * m] = np.sqrt(ps) * V[:, d:]
        blocks.append(E)
    P = np.array([sum(rows) for rows in itertools.product(*blocks)])
    normals = p.A.normal_rays(z.x, ACT_TOL)
    return _least_norm(P, np.hstack((normals, np.zeros((normals.shape[0], S * m)))))[0]


def test_kink_certificate_is_exact():
    # the joint point trades x against y, so the reference is the joint
    # Minkowski sum at the certificate's multipliers: its least-norm point
    # lies in that subset of the cone set, and so is the same point
    for s in range(20):
        p = generate(s, d=2, m=4, S=2, l=2, dc=False)
        z = _two_kink_point(p)
        for sc in range(p.S):
            for gi in p.g:
                assert abs(evaluate(gi, z.x, z.y[sc], p.scenarios.params[sc])) <= 1e-9
        cert = check_optimality(p, 10.0, z)
        assert cert.fallback is False
        q = _joint_minkowski_point(p, z, cert.lambdas)
        r, ref = cert.residual_stationarity, float(np.linalg.norm(q[p.d:]))
        assert abs(r - ref) <= 1e-9 * (1.0 + r)
        r, ref = cert.residual_normal_cone, float(np.linalg.norm(q[:p.d]))
        assert abs(r - ref) <= 1e-9 * (1.0 + r)


def _scenario_by_scenario(prob, c, z):
    """check_optimality as one CodiffPair, one quasidiff per function and one
    selection search per scenario, with nu's joint system assembled scenario
    by scenario; the kernel is the one without the fold."""
    S, d, m, ell = prob.S, prob.d, prob.m, prob.ell
    X, Y, TH = np.broadcast_to(z.x, (S, d)), z.y, prob.scenarios.params
    cg = [codiff_rows(gi, X, Y, TH) for gi in prob.g]
    gv = [_vertex_blocks(gi, X, Y, TH)[2] for gi in prob.g]
    cf = codiff_rows(prob.f, X, Y, TH)
    gvals = [[float(v[s]) for v in gv] for s in range(S)]
    Vs, Rs, owners, checked, exhaustive = [], [], [], [], []
    for s in range(S):
        qf = quasidiff(cf[s], ACT_TOL)
        qgs = [quasidiff(cg_i[s], ACT_TOL) for cg_i in cg]
        act = [i for i in range(ell) if gvals[s][i] >= -ACT_TOL]
        sup_sets = [qf.sup] + [qgs[i].sup for i in act]

        def residual(choice, qf=qf, qgs=qgs, act=act, sup_sets=sup_sets):
            V = qf.sub + sup_sets[0][choice[0]]
            R = np.vstack([V[:0]] + [qgs[i].sub + sup_sets[1 + j][choice[1 + j]]
                                     for j, i in enumerate(act)])
            return float(np.linalg.norm(_blocks_least_norm(V[:, d:], R[:, d:])[0])), (V, R)

        _res, (V, R), exh, chk = max_over_selections(sup_sets, residual)
        Vs.append(V), Rs.append(R), checked.append(chk), exhaustive.append(exh)
        owners.append(np.repeat(np.array(act, dtype=int), [qgs[i].sub.shape[0] for i in act]))

    probs = prob.scenarios.probs

    def embed(s, M):
        C = np.zeros((M.shape[0], d + S * m))
        C[:, :d] = probs[s] * M[:, :d]
        C[:, d + s * m:d + (s + 1) * m] = np.sqrt(probs[s]) * M[:, d:]
        return C

    normals = prob.A.normal_rays(z.x, ACT_TOL)
    V = np.vstack([embed(s, Vs[s]) for s in range(S)])
    R = np.vstack([embed(s, Rs[s]) for s in range(S)]
                  + [np.hstack((normals, np.zeros((normals.shape[0], S * m))))])
    q, t, mu = _blocks_least_norm(V, R, [V_s.shape[0] for V_s in Vs])
    ts = np.split(t, np.cumsum([V_s.shape[0] for V_s in Vs])[:-1])
    mus = np.split(mu, np.cumsum([R_s.shape[0] for R_s in Rs]))
    u = []
    for V_s, R_s, t_s, mu_s in zip(Vs, Rs, ts, mus):
        u_s = np.zeros(d + m)
        for w, row in zip(np.concatenate((t_s, mu_s)), np.vstack((V_s, R_s))):
            u_s = u_s + w * row
        u.append(u_s)
    # np.bincount over no rays gives int zeros; lambdas are float64 throughout
    lambdas = np.array([np.bincount(o, weights=mu_s, minlength=ell).astype(float)
                        for o, mu_s in zip(owners, mus)]).reshape(S, ell)
    zeta = np.array([u_s[:d] for u_s in u])
    comp = [abs(lam * g) for lam_s, g_s in zip(lambdas, gvals) for lam, g in zip(lam_s, g_s)]
    return Certificate(
        lambdas=lambdas,
        zeta=zeta,
        residual_stationarity=float(np.linalg.norm(q[d:])),
        residual_complementarity=max(comp, default=0.0),
        residual_normal_cone=prob.A.normal_residual(z.x, prob.scenarios.probs @ zeta, tol=ACT_TOL),
        stationarity_max=max(float(np.linalg.norm(u_s[d:])) for u_s in u),
        budget_sum=float(lambdas.max(axis=0).sum()) if ell else 0.0,
        budget_bound=float(c),
        checked_selections=sum(checked),
        fallback=not all(exhaustive),
    )


def _cert_bits(cert):
    return (cert.lambdas.dtype.str, cert.lambdas.shape, cert.lambdas.tobytes(),
            cert.zeta.dtype.str, cert.zeta.shape, cert.zeta.tobytes(),
            *(np.float64(v).tobytes() for v in (
                cert.residual_stationarity, cert.residual_complementarity,
                cert.residual_normal_cone, cert.stationarity_max, cert.budget_sum,
                cert.budget_bound)),
            cert.checked_selections, cert.fallback)


def _point_only_cases():
    for seed, S in ((1000, 3), (1007, 3), (1000, 100)):
        p = generate(seed, d=2, m=2, S=S, l=2, dc=True)
        yield p, p.witness
        yield p, boundary_point(p, seed)


def _mixed_cases():
    # concave kinks in f at y = 0, a constraint y <= a: scenarios on the
    # kink (two zero-offset hyper vertices), on the constraint and neither
    base = concave_kinks(6)
    for a in (0.0, 0.5):
        g = affine(base.f.dims, -a, cy=[1.0])
        p = TwoStageProblem(d=1, m=1, A=base.A, f=base.f, g=(g,), scenarios=base.scenarios)
        yield p, Point(x=[0.0], y=[[0.0], [a], [-1.0], [0.0], [a], [-0.25]])
    for S in (1, 5):
        p = concave_kinks(S)
        yield p, p.witness


@pytest.mark.parametrize("kind", ["point", "mixed", "ragged"])
def test_certificate_has_the_bits_of_the_scenario_loop(monkeypatch, kind):
    cases = {"point": _point_only_cases, "mixed": _mixed_cases,
             "ragged": lambda: [ragged_case()]}[kind]()
    assert rebind(monkeypatch, _least_norm,
                  lambda V, R, sizes=None: _blocks_least_norm(V, R, sizes)) > 0
    for p, z in cases:
        cert = check_optimality(p, 10.0, z)
        assert _cert_bits(cert) == _cert_bits(_scenario_by_scenario(p, 10.0, z))
        if kind == "point":
            assert cert.checked_selections == p.S and not cert.fallback
        elif kind == "mixed":
            assert cert.checked_selections > p.S
        else:
            assert p.f._plan is None  # the walk's padded rows
            assert cert.checked_selections > p.S and cert.lambdas[2, 0] >= 0.0


def test_point_selections_build_no_pairs_and_search_nothing(monkeypatch):
    p = generate(1000, d=2, m=2, S=20, l=2, dc=True)
    points = [p.witness, boundary_point(p, 1000)]
    want = [_cert_bits(check_optimality(p, 10.0, z)) for z in points]

    def per_scenario(*args, **kwargs):
        raise AssertionError("a point selection did per-scenario work")

    for orig in (quasidiff, CodiffPair, max_over_selections):
        assert rebind(monkeypatch, orig, per_scenario) > 0
    assert [_cert_bits(check_optimality(p, 10.0, z)) for z in points] == want
    assert check_optimality(p, 10.0, points[1]).lambdas.max() > 0.0


def _kinked_segments(constrained, S=SEGMENT_MIN_BLOCKS):
    """(problem, point): f = (x^2 + y^2)/2 + |y - theta| with every y_s on
    its kink theta_s, two ACT_TOL-active hypo vertices per scenario and one
    hyper vertex; constrained adds g = y - theta, active everywhere, whose
    rows are rays with a y-part."""
    rng = np.random.default_rng(17)
    dims = Space(d=1, m=1, q=1).dims
    f = add(quad(dims, np.eye(2), psd=True), absolute(affine(dims, cy=[1.0], ct=[-1.0])))
    g = (affine(dims, cy=[1.0], ct=[-1.0]),) if constrained else ()
    th = rng.normal(size=(S, 1))
    p = TwoStageProblem(d=1, m=1, A=FirstStageSet.box([-5.0], [5.0]), f=f, g=g,
                        scenarios=ScenarioSpace(probs=rng.dirichlet(np.ones(S)), params=th))
    return p, Point(x=[0.3], y=th.copy())


@pytest.mark.parametrize("constrained", [False, True])
def test_certificate_routes_segments_by_its_rays(monkeypatch, constrained):
    # SEGMENT_MIN_BLOCKS two-vertex scenarios: without a ray the certificate
    # reaches the segment path and agrees with NNLS to rounding; a
    # constraint row with a y-part sends the same call to NNLS
    p, z = _kinked_segments(constrained)
    with monkeypatch.context() as mp:
        mp.setattr(_minnorm, "SEGMENT_MIN_BLOCKS", 10**9)
        want = check_optimality(p, 10.0, z)
    served, real = [], _minnorm._segments_least_norm

    def spy(*args):
        out = real(*args)
        served.append(out is not None)
        return out

    monkeypatch.setattr(_minnorm, "_segments_least_norm", spy)
    got = check_optimality(p, 10.0, z)
    assert served == ([] if constrained else [True])
    assert got.checked_selections == want.checked_selections == p.S
    assert got.residual_stationarity > 0.1
    for a, b in ((got.zeta, want.zeta), (got.lambdas, want.lambdas)):
        assert np.allclose(a, b, rtol=0.0, atol=1e-12)
    for key, r in got.residuals.items():
        assert abs(r - want.residuals[key]) <= 1e-12 * (1.0 + r)
    if constrained:
        assert _cert_bits(got) == _cert_bits(want)
