"""Penalty terms, the penalized objective, and the nondegeneracy check."""

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
)
from codiffsp.penalty import PenaltySpec

from conftest import ball_problem, box_bounds, box_problem

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
    assert rep.empirical is True
    assert rep.sampled_points > 0


def test_nondeg_single_affine():
    g = (affine(SP.dims, -1.0, [0.0], [1.7], []),)
    rep = check_nondegeneracy(_prob(g), samples=200, seed=0)
    assert rep.min_hull_distance == pytest.approx(1.7, abs=1e-9)
    assert rep.threshold_a == rep.min_hull_distance


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


def test_nondeg_widens_radius_when_every_draw_is_feasible():
    # the first round's radius bound 2 (1 + |witness y|) stays feasible here;
    # a tenfold wider round must find infeasible points
    p = generate(1003, d=2, m=2, S=3, l=2, dc=True)
    rep = check_nondegeneracy(p, samples=200, seed=1003)
    assert rep.sampled_points > 0
    assert np.isfinite(rep.min_hull_distance)
