"""Penalty terms, the penalized objective, and the nondegeneracy check."""

import dataclasses
import math

import numpy as np
import pytest

from codiffsp import (
    FirstStageSet,
    Phi_c,
    Point,
    ScenarioSpace,
    Space,
    TwoStageProblem,
    Unprojectable,
    ValidationError,
    absolute,
    add,
    affine,
    check_nondegeneracy,
    constant,
    dirderiv,
    eval_I,
    generate,
    is_feasible,
    maximum,
    penalty_codiff,
    phi_dist,
    phi_l1,
    quad,
    quasidiff,
    scale,
)
from codiffsp import codiff, evaluate, evaluate_batch, min_norm_point
from codiffsp.codiff import TOL_ZERO
from codiffsp.expectation import max_over_selections
from codiffsp import model, penalty
from codiffsp.penalty import (
    NONDEG_BLOCK,
    NONDEG_WIDENINGS,
    NondegReport,
    PenaltySpec,
    _unique_rows,
    penalty_integrand,
)

from conftest import ball_problem, box_bounds, box_problem, rebind

SP = Space(d=1, m=1, q=0)
ONE = ScenarioSpace(probs=[1.0], params=np.zeros((1, 0)))


def _prob(g, m=1, witness_y=0.0, f=None):
    sp = Space(d=1, m=m, q=0)
    if f is None:
        f = sp.quad(2.0 * np.eye(1 + m), psd=True)
    return TwoStageProblem(
        d=1, m=m, A=FirstStageSet.free(), f=f, g=g, scenarios=ONE,
        witness=Point(x=[0.0], y=[[witness_y] * m]),
    )


def test_penalty_spec_validation():
    assert PenaltySpec("l1_max", 2.0).c == 2.0
    with pytest.raises(ValidationError) as ei:
        PenaltySpec("huber", 1.0)
    assert ei.value.code == "PENALTY_KIND"
    with pytest.raises(ValidationError):
        PenaltySpec("l1_max", -2.0)


def test_phi_dist_feasible_is_zero():
    # box [0,1]: y - 1 <= 0 and -y <= 0
    g = (affine(SP.dims, -1.0, [0.0], [1.0], []),
         affine(SP.dims, 0.0, [0.0], [-1.0], []))
    p = _prob(g)
    assert phi_dist(p, Point(x=[0.0], y=[[0.5]])) == 0.0


def test_phi_dist_box():
    g = (affine(SP.dims, -1.0, [0.0], [1.0], []),
         affine(SP.dims, 0.0, [0.0], [-1.0], []))
    p = _prob(g)
    assert phi_dist(p, Point(x=[0.0], y=[[3.0]])) == pytest.approx(2.0)


def test_phi_dist_ball():
    # |y|^2 - 1 <= 0 in m=2
    sp = Space(d=1, m=2, q=0)
    Q = np.zeros((3, 3))
    Q[1:, 1:] = 2.0 * np.eye(2)
    g = (quad(sp.dims, Q, lin=np.zeros(3), c0=-1.0, psd=True),)
    p = _prob(g, m=2)
    assert phi_dist(p, Point(x=[0.0], y=[[0.0, 2.0]])) == pytest.approx(1.0)


def test_phi_dist_unprojectable():
    g = (maximum(SP.y(0), 2.0 * SP.y(0) + constant(-1.0)),)
    p = _prob(g)
    with pytest.raises(Unprojectable):
        phi_dist(p, Point(x=[0.0], y=[[3.0]]))


def test_phi_dist_no_constraints():
    p = _prob(())
    assert phi_dist(p, Point(x=[0.0], y=[[9.0]])) == 0.0


def test_phi_l1_examples():
    g = (affine(SP.dims, -1.0, [0.0], [1.0], []),)
    p = _prob(g)
    assert phi_l1(p, Point(x=[0.0], y=[[0.5]])) == 0.0
    assert phi_l1(p, Point(x=[0.0], y=[[3.0]])) == pytest.approx(2.0)
    sc2 = ScenarioSpace(probs=[0.5, 0.5], params=np.zeros((2, 0)))
    p2 = TwoStageProblem(d=1, m=1, A=FirstStageSet.free(),
                         f=SP.quad(np.eye(2), psd=True), g=g, scenarios=sc2)
    assert phi_l1(p2, Point(x=[0.0], y=[[3.0], [0.5]])) == pytest.approx(1.0)


def test_phi_c_examples():
    g = (affine(SP.dims, -1.0, [0.0], [1.0], []),)
    p = _prob(g)
    z_in = Point(x=[0.5], y=[[0.5]])
    z_out = Point(x=[0.5], y=[[4.0]])
    assert Phi_c(p, PenaltySpec("l1_max", 0.0), z_out) == eval_I(p, z_out)
    assert Phi_c(p, PenaltySpec("l1_max", 7.0), z_in) == eval_I(p, z_in)
    lo = Phi_c(p, PenaltySpec("l1_max", 1.0), z_out)
    hi = Phi_c(p, PenaltySpec("l1_max", 2.0), z_out)
    assert lo < hi
    assert Phi_c(p, PenaltySpec("dist_p", 2.0), z_in) == eval_I(p, z_in)


def test_penalty_codiff_no_constraints():
    from codiffsp import block_codiff

    p = _prob(())
    z = Point(x=[0.3], y=[[0.7]])
    b1 = penalty_codiff(p, PenaltySpec("l1_max", 3.0), z)
    b2 = block_codiff(p, z)
    assert np.array_equal(b1.per_scenario[0].hypo, b2.per_scenario[0].hypo)
    assert np.array_equal(b1.per_scenario[0].hyper, b2.per_scenario[0].hyper)


def test_penalty_codiff_interior_offsets():
    g = (affine(SP.dims, -1.0, [0.0], [1.0], []),)
    p = _prob(g)
    bc = penalty_codiff(p, PenaltySpec("l1_max", 3.0), Point(x=[0.5], y=[[0.0]]))
    hypo = bc.per_scenario[0].hypo
    rows = {tuple(np.round(r, 12)) for r in hypo}
    # f-vertex at offset 0, inactive constraint branch shifted by c*g = -3
    assert rows == {(0.0, 1.0, 0.0), (-3.0, 1.0, 3.0)}


def test_penalty_codiff_active_tie():
    g = (affine(SP.dims, -1.0, [0.0], [1.0], []),)
    p = _prob(g)
    bc = penalty_codiff(p, PenaltySpec("l1_max", 3.0), Point(x=[0.5], y=[[1.0]]))
    rows = {tuple(np.round(r, 12)) for r in bc.per_scenario[0].hypo}
    assert rows == {(0.0, 1.0, 2.0), (0.0, 1.0, 5.0)}


def test_penalty_codiff_requires_l1():
    p = _prob((affine(SP.dims, -1.0, [0.0], [1.0], []),))
    with pytest.raises(ValidationError):
        penalty_codiff(p, PenaltySpec("dist_p", 1.0), Point(x=[0.0], y=[[0.0]]))


def test_penalty_integrand_is_built_once_per_c(monkeypatch):
    # one root per (problem, c), as g_plus: penalty_codiff builds no Expr
    p = generate(1000, d=2, m=2, S=3, l=2, dc=True)
    spec = PenaltySpec("l1_max", 10.0)
    first = penalty_codiff(p, spec, p.witness)
    root = penalty_integrand(p, 10.0)
    assert penalty_integrand(p, 10) is root and penalty_integrand(p, 5.0) is not root
    assert penalty_integrand(p, 0.0) is p.f
    assert penalty_integrand(generate(1000, d=2, m=2, S=3, l=2, dc=True), 10.0) is not root

    def no_new_expr(*args, **kwargs):
        raise AssertionError("penalty_codiff built an expression")

    monkeypatch.setattr(model, "add", no_new_expr)
    monkeypatch.setattr(model, "scale", no_new_expr)
    again = penalty_codiff(p, spec, p.witness)
    for (_r, H, G, v), (_r2, H2, G2, v2) in zip(first.blocks, again.blocks):
        assert H.tobytes() == H2.tobytes() and G.tobytes() == G2.tobytes()
        assert np.asarray(v).tobytes() == np.asarray(v2).tobytes()


def test_penalty_codiff_directional_derivative():
    rng = np.random.default_rng(6)
    p = generate(19, d=2, m=2, S=2, l=2, dc=True)
    spec = PenaltySpec("l1_max", 4.0)
    z = Point(x=p.witness.x + 0.8, y=p.witness.y + 0.9)  # likely infeasible
    bc = penalty_codiff(p, spec, z)
    hx = rng.normal(size=2)
    hy = rng.normal(size=(2, 2))
    dd = sum(
        float(bc.probs[s])
        * dirderiv(quasidiff(bc.per_scenario[s]), np.concatenate([hx, hy[s]]))
        for s in range(2)
    )
    D = []
    for a in (1e-3, 1e-4, 1e-5):
        za = Point(x=z.x + a * hx, y=z.y + a * hy)
        D.append((Phi_c(p, spec, za) - Phi_c(p, spec, z)) / a)
    d1 = (10.0 * D[1] - D[0]) / 9.0
    d2 = (10.0 * D[2] - D[1]) / 9.0
    fd = (100.0 * d2 - d1) / 99.0
    assert abs(fd - dd) <= 1e-6 * (1.0 + abs(dd))


def test_phi_dist_matches_explicit_projection():
    rng = np.random.default_rng(33)
    for t in range(10):
        m = 1 + t % 2
        S = 1 + t % 3
        p, rows = box_problem(rng, m, S)
        for _ in range(10):
            x = rng.uniform(-0.5, 0.5, 1)
            Y = rng.uniform(-3, 3, (S, m))
            z = Point(x=x, y=Y)
            dists = []
            for s in range(S):
                lo, hi = box_bounds(rows, x, p.scenarios.params[s])
                gap = np.maximum(0.0, np.maximum(Y[s] - hi, lo - Y[s]))
                dists.append(gap.max())  # sup-norm distance to the box
            want = float(np.sum(p.scenarios.probs * np.array(dists) ** 2) ** 0.5)
            assert phi_dist(p, z) == pytest.approx(want, abs=1e-12)


def test_phi_dist_ball_matches_radial_formula():
    rng = np.random.default_rng(34)
    for t in range(10):
        p, (alpha, z0, lx, rr) = ball_problem(rng, 2, 2)
        for _ in range(10):
            x = rng.uniform(-0.5, 0.5, 1)
            Y = rng.uniform(-3, 3, (2, 2))
            dists = []
            for s in range(2):
                r2 = rr * rr - float(lx @ x) / alpha
                r = np.sqrt(max(r2, 0.0))
                dists.append(max(0.0, float(np.linalg.norm(Y[s] - z0)) - r))
            want = float(np.sum(p.scenarios.probs * np.array(dists) ** 2) ** 0.5)
            assert phi_dist(p, Point(x=x, y=Y)) == pytest.approx(want, abs=1e-12)


def _phi_loop(prob, z):
    """phi_l1 written out: scenario by scenario, the largest of 0 and each g_i."""
    th = prob.scenarios.params
    total = 0.0
    for s in range(prob.S):
        worst = 0.0
        for gi in prob.g:
            v = evaluate(gi, z.x, z.y[s], th[s])
            if v > worst:
                worst = v
        total += float(prob.scenarios.probs[s]) * worst
    return total


def test_phi_l1_matches_the_scenario_constraint_loop():
    infeasible = 0
    for seed in range(12):
        for ell in range(4):
            p = generate(seed, d=2, m=2, S=5, l=ell, dc=True)
            assert p.g_plus is p.g_plus  # built once per problem
            rng = np.random.default_rng(seed)
            for _ in range(5):
                z = Point(x=p.witness.x + rng.normal(size=2),
                          y=p.witness.y + 2.0 * rng.normal(size=(5, 2)))
                phi = phi_l1(p, z)
                assert np.float64(phi).tobytes() == np.float64(_phi_loop(p, z)).tobytes()
                infeasible += phi > 0.0
    assert infeasible >= 100


def test_phi_l1_zero_iff_feasible():
    rng = np.random.default_rng(35)
    p = generate(3, d=2, m=2, S=2, l=2, dc=True)
    for _ in range(200):
        z = Point(x=rng.uniform(-1, 1, 2), y=rng.uniform(-1, 1, (2, 2)))
        v = phi_l1(p, z)
        ok, rep = is_feasible(p, z)
        feas_g = p.ell == 0 or rep.max_violation <= 0.0
        assert (v == 0.0) == feas_g


def test_nondeg_opposing_gradients():
    g = (SP.y(0), affine(SP.dims, 0.0, [0.0], [-1.0], []))
    rep = check_nondegeneracy(_prob(g), samples=200, seed=0)
    assert rep.min_hull_distance <= 1e-9
    assert rep.sampled_points > 0


def test_nondeg_single_affine():
    g = (affine(SP.dims, -1.0, [0.0], [1.7], []),)
    rep = check_nondegeneracy(_prob(g), samples=200, seed=0)
    assert rep.min_hull_distance == pytest.approx(1.7, abs=1e-9)


def test_nondeg_abs_constraint():
    g = (absolute(SP.y(0)) + constant(-1.0),)
    rep = check_nondegeneracy(_prob(g), samples=200, seed=0)
    assert rep.min_hull_distance == pytest.approx(1.0, abs=1e-9)
    assert rep.witness_scenario == 0


def test_nondeg_needs_constraints():
    with pytest.raises(ValidationError):
        check_nondegeneracy(_prob(()), samples=10, seed=0)


def test_nondeg_rejects_no_samples():
    g = (affine(SP.dims, -1.0, [0.0], [1.7], []),)
    for samples in (0, -5):
        with pytest.raises(ValidationError) as ei:
            check_nondegeneracy(_prob(g), samples=samples, seed=0)
        assert ei.value.code == "NONDEG_SAMPLES"


@pytest.mark.parametrize("kwargs, code", [
    ({"samples": 2.5}, "NONDEG_SAMPLES"),
    ({"samples": 200.0}, "NONDEG_SAMPLES"),
    ({"seed": -1}, "NONDEG_SEED"),
    ({"seed": 0.5}, "NONDEG_SEED"),
    ({"seed": None}, "NONDEG_SEED"),
    ({"samples": True}, "NONDEG_SAMPLES"),  # a bool is no count
    ({"seed": False}, "NONDEG_SEED"),
])
def test_nondeg_rejects_bad_samples_and_seed(kwargs, code):
    g = (affine(SP.dims, -1.0, [0.0], [1.7], []),)
    with pytest.raises(ValidationError) as ei:
        check_nondegeneracy(_prob(g), **{"samples": 10, "seed": 0, **kwargs})
    assert ei.value.code == code


def test_nondeg_widens_radius_when_every_draw_is_feasible(monkeypatch):
    # the first round's radius bound 2 (1 + |witness y|) stays feasible here;
    # a tenfold wider round must find infeasible points
    p = generate(1003, d=2, m=2, S=3, l=2, dc=True)
    rep = check_nondegeneracy(p, samples=200, seed=1003)
    assert rep.sampled_points > 0
    assert np.isfinite(rep.min_hull_distance)
    monkeypatch.setattr(penalty, "NONDEG_WIDENINGS", 0)
    assert check_nondegeneracy(p, samples=200, seed=1003).sampled_points == 0


def test_unique_rows_matches_np_unique():
    rng = np.random.default_rng(40)
    for _ in range(200):
        a = rng.integers(-2, 3, size=(rng.integers(1, 12), rng.integers(1, 4))) * 0.5
        assert np.array_equal(_unique_rows(a), np.unique(a, axis=0))


def _scalar_nondeg(prob, samples, seed, ray_norm=np.linalg.norm, hits=None):
    """check_nondegeneracy one sample, scenario and constraint at a time.
    ``hits`` collects (distance, sample, scenario) of every infeasible draw
    of the last round."""
    rng = np.random.default_rng(seed)
    base = prob.witness
    if base is None:
        base = Point(x=prob.A.project(np.zeros(prob.d)), y=np.zeros((prob.S, prob.m)))
    th = prob.scenarios.params
    d = prob.d
    scale_r = 2.0 * (1.0 + float(np.linalg.norm(base.y)))
    found, best, wx, wy, ws = 0, math.inf, None, None, -1
    for _round in range(1 + NONDEG_WIDENINGS):
        # the draws of check_nondegeneracy, in its order: every radius, every
        # x step, then every ray (rays drawn in blocks continue one stream)
        R = 10.0 ** rng.uniform(-10.0, math.log10(scale_r), size=samples)
        steps = rng.normal(size=(samples, d)) * 0.1
        U = rng.normal(size=(samples, prob.S, prob.m))
        for k, (r, step, rays) in enumerate(zip(R, steps, U)):
            x = prob.A.project(base.x + step)
            for s, u in enumerate(rays):
                nu = float(ray_norm(u))
                if nu == 0.0:
                    continue
                y_s = base.y[s] + (r / nu) * u
                vals = np.array([evaluate(gi, x, y_s, th[s]) for gi in prob.g])
                vmax = float(vals.max())
                if vmax <= 0.0:
                    continue
                found += 1
                subs, sups = [], []
                for i in np.flatnonzero(vals >= vmax - TOL_ZERO):
                    qd = quasidiff(codiff(prob.g[i], x, y_s, th[s]))
                    subs.append(np.unique(qd.sub[:, d:], axis=0))
                    sups.append(np.unique(qd.sup[:, d:], axis=0))

                def hull_dist(choice):
                    q, _t = min_norm_point(np.vstack([subs[i] + sups[i][w]
                                                      for i, w in enumerate(choice)]))
                    return float(np.linalg.norm(q)), None

                dist = max_over_selections(sups, hull_dist)[0]
                if hits is not None:
                    hits.append((dist, k, s))
                if dist < best:
                    best, wx, wy, ws = dist, x.copy(), y_s.copy(), s
        if found:
            break
        scale_r *= 10.0
    return NondegReport(found, best, wx, wy, ws)


def _report_bits(rep):
    def arr(a):
        return None if a is None else (a.dtype.str, a.shape, a.tobytes())

    return (rep.sampled_points, np.float64(rep.min_hull_distance).tobytes(),
            arr(rep.witness_x), arr(rep.witness_y), type(rep.witness_scenario),
            rep.witness_scenario)


@pytest.mark.parametrize("seed, S, m, samples", [
    (1000, 3, 2, 200),
    (1003, 3, 2, 200),  # every first-round draw is feasible: widening rounds
    (1014, 3, 2, 100),  # tied distances: the first in sample order is the witness
    (1000, 20, 2, 100),  # a row norm off by an ulp moves the witness
    (1017, 20, 2, 100),
    (1003, 5, 4, 100),
    (1004, 3, 2, NONDEG_BLOCK + 7),  # crosses a block boundary
])
def test_nondeg_matches_scalar_reference(seed, S, m, samples):
    p = generate(seed, d=2, m=m, S=S, l=2, dc=True)
    rep = check_nondegeneracy(p, samples=samples, seed=seed)
    ref = _scalar_nondeg(p, samples, seed)
    assert type(rep.witness_scenario) is int
    assert _report_bits(rep) == _report_bits(ref)


def test_nondeg_reference_cases_keep_their_properties():
    # the properties named beside the cases above hold for the sample stream
    p = generate(1014, d=2, m=2, S=3, l=2, dc=True)
    hits = []
    rep = _scalar_nondeg(p, 100, 1014, hits=hits)
    assert sum(dist == rep.min_hull_distance for dist, _k, _s in hits) >= 2
    p = generate(1000, d=2, m=2, S=20, l=2, dc=True)
    summed = lambda u: np.sqrt(np.add.reduce(u * u))  # np.linalg.norm(U, axis=-1)'s rule
    assert _report_bits(_scalar_nondeg(p, 100, 1000, summed)) != _report_bits(
        _scalar_nondeg(p, 100, 1000))
    p = generate(1004, d=2, m=2, S=3, l=2, dc=True)
    hits = []
    _scalar_nondeg(p, NONDEG_BLOCK + 7, 1004, hits=hits)
    assert {k // NONDEG_BLOCK for _d, k, _s in hits} == {0, 1}


@pytest.mark.parametrize("seed", [1000, 1004])
def test_nondeg_matches_scalar_reference_with_a_repeated_constraint(seed, monkeypatch):
    # g[0] twice: every point where g[0] is active has two active
    # constraints, so its hull goes through max_over_selections
    p = generate(seed, d=2, m=2, S=3, l=2, dc=True)
    p = dataclasses.replace(p, g=p.g + (p.g[0],))
    hulls = []

    def counted(V):
        hulls.append(np.shape(V)[0])
        return min_norm_point(V)

    assert rebind(monkeypatch, min_norm_point, counted) > 0
    rep = check_nondegeneracy(p, samples=200, seed=seed)
    assert hulls and max(hulls) >= 2
    assert _report_bits(rep) == _report_bits(_scalar_nondeg(p, 200, seed))


def test_nondeg_kink_on_the_boundary_is_no_point_hull():
    # the witness sits on the kink of |y|; draws within about 1e-9 of it
    # keep both slopes +1 and -1 within TOL_ZERO of active, a hull holding 0
    p = _prob((absolute(SP.y(0)),))
    rep = check_nondegeneracy(p, samples=200, seed=0)
    assert rep.min_hull_distance <= 1e-9
    assert _report_bits(rep) == _report_bits(_scalar_nondeg(p, 200, 0))


def test_nondeg_concave_kink_takes_the_worst_hyper_vertex():
    # g = 1 + 0.2 y - max(0, y, -y): draws within about 1e-9 of the kink keep
    # three zero-offset hyper vertices, slopes 0, -1 and +1, on the one
    # active constraint.  The worst selection, +1, puts them at 1.2; the
    # first, 0, would put them at 0.2, below the 0.8 of the draws with y > 0
    g = add(constant(1.0), SP.affine(cy=[0.2]),
            scale(-1.0, maximum(constant(0.0), SP.y(0), scale(-1.0, SP.y(0)))))
    p = _prob((g,))
    rep = check_nondegeneracy(p, samples=200, seed=0)
    assert rep.min_hull_distance == pytest.approx(0.8)
    assert _report_bits(rep) == _report_bits(_scalar_nondeg(p, 200, 0))


def test_nondeg_point_hulls_skip_the_min_norm_kernel(monkeypatch):
    # every hit of this instance has one active constraint with one
    # zero-offset vertex in each set: a one-point hull, read off the arrays
    p = generate(1000, d=2, m=2, S=20, l=2, dc=True)
    want = _report_bits(check_nondegeneracy(p, samples=200, seed=1000))

    def kernel(*args, **kwargs):
        raise AssertionError("a one-point hull reached min_norm_point")

    assert rebind(monkeypatch, min_norm_point, kernel) > 0
    rep = check_nondegeneracy(p, samples=200, seed=1000)
    assert rep.sampled_points > 0
    assert _report_bits(rep) == want


def test_nondeg_never_evaluates_point_by_point(monkeypatch):
    p = generate(1000, d=2, m=2, S=3, l=2, dc=True)
    samples = NONDEG_BLOCK + 7
    want = _report_bits(check_nondegeneracy(p, samples=samples, seed=5))

    def scalar_evaluate(*args, **kwargs):
        raise AssertionError("check_nondegeneracy evaluated one point at a time")

    rows = []

    def counted_batch(expr, X, Y, theta):
        rows.append(np.shape(X)[0])
        return evaluate_batch(expr, X, Y, theta)

    assert rebind(monkeypatch, evaluate, scalar_evaluate) > 0
    assert rebind(monkeypatch, evaluate_batch, counted_batch) > 0
    assert _report_bits(check_nondegeneracy(p, samples=samples, seed=5)) == want
    # one evaluation per constraint and block, over every (sample, scenario)
    assert rows == [NONDEG_BLOCK * p.S] * p.ell + [7 * p.S] * p.ell


@pytest.mark.parametrize("block", [1, 7, NONDEG_BLOCK])
def test_nondeg_report_does_not_depend_on_the_block(block, monkeypatch):
    p = generate(1004, d=2, m=2, S=3, l=2, dc=True)
    want = _report_bits(_scalar_nondeg(p, 60, 1004))
    monkeypatch.setattr(penalty, "NONDEG_BLOCK", block)
    assert _report_bits(check_nondegeneracy(p, samples=60, seed=1004)) == want


class _CountedGenerator:
    """A numpy Generator that records the name of every draw."""

    def __init__(self, seed, calls):
        self._rng, self._calls = np.random.Generator(np.random.PCG64(seed)), calls

    def __getattr__(self, name):
        self._calls.append(name)
        return getattr(self._rng, name)


@pytest.mark.parametrize("seed, rounds", [(1000, 1), (1003, 2)])
def test_nondeg_draws_in_bulk(seed, rounds, monkeypatch):
    p = generate(seed, d=2, m=2, S=3, l=2, dc=True)
    want = _report_bits(check_nondegeneracy(p, samples=200, seed=seed))
    calls = []
    monkeypatch.setattr(penalty, "NONDEG_BLOCK", 64)
    monkeypatch.setattr(np.random, "default_rng", lambda s: _CountedGenerator(s, calls))
    assert _report_bits(check_nondegeneracy(p, samples=200, seed=seed)) == want
    # per round: every radius, every x step, then the rays of each of 4 blocks
    assert calls == (["uniform", "normal"] + ["normal"] * 4) * rounds
