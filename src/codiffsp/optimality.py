"""Candidate certification.

Two checks at a feasible point z = (x, y_1..y_S):

    check_optimality: multiplier form of the first-order necessary condition.
        Per scenario, fix one zero-offset superdifferential vertex w of the
        objective integrand and one w_i per active constraint; then
        nonnegative multipliers lambda and vectors zeta_s must place
        (zeta_s, 0) in co(sub f + w) + sum_i lambda_i co(sub g_i + w_i), with
        E[zeta] in -N_A(x); sub is sliced at ACT_TOL (quasidiff(., ACT_TOL))
        like nu, constraint activity and N_A(x).  Over lambda >= 0 the sum
        is co(sub f + w) plus the cone of the rows of every sub g_i + w_i.
        The p-weighted sum of these scenario sets plus N_A(x) is measured as
        nu measures its own, in the joint coordinates (x, y_1..y_S): the
        rows weighted by expectation._joint_scale, with the rows of the
        active g_i as rays owned by their scenario, in one least-norm solve
        (_minnorm._layout_least_norm).  Its point q is the
        sum of the scenario points u_s = t_s V_s + mu_s R_s: the x-part of q
        is E[zeta] + n with zeta_s the x-part of u_s and n in N_A(x), its
        y-part holds sqrt(p_s) times the y-part of u_s, and the ray weights
        sum per constraint and scenario to lambda_i.

        The residuals are in nu's L2(P) norm: stationarity is ||q_y|| =
        sqrt(sum_s p_s ||u_s,y||^2), normal_cone the distance from E[zeta] to
        -N_A(x), at most ||q_x||, and complementarity max |lambda_i g_i|.
        stationarity_max = max_s ||u_s,y|| is reported beside them and not
        among them: since p_s ||u_s,y||^2 <= stationarity^2, it is at most
        stationarity / sqrt(min_s p_s), 10 times it at S = 100.

        Residuals at most nu.  nu(ACT_TOL) is the same distance for
        Phi_c = f + c max{0, g_1, .., g_l}, its set shifted by the worst of
        Phi_c's selections.  By the sum rule Phi_c's zero-offset hyper
        vertices are w_f + c (w_1 + .. + w_l), one zero-offset hyper vertex
        per function, so each maps onto the certificate's selection
        (w_f, w_i for the active i).  Its hypo vertices are an f-vertex plus
        c times a vertex of the max, all offsets <= 0, so its ACT_TOL slice
        keeps only f-vertices of offset >= -ACT_TOL.  By the max rule the
        hypo piece of g_i is sub g_i - sum_{k != i} h_k over every choice of
        hyper vertices h_k of the other branches (the 0 branch's hypo and
        hyper are {0}), offset by g_i - max{0, g}; shifted by the selection,
        a row with every h_k = w_k is c (sub g_i + w_i), the 0 branch's is
        0, and a row with some h_k != w_k gains c (w_k - h_k), which the
        certificate's set lacks.  So the shifted slice lies in
        co(sub f + w_f) + cone(sub g_i + w_i, i active) when
          (a) c >= 1, so that a kept piece-i row, of offset a with
              c a >= -ACT_TOL, has a >= -ACT_TOL: its g_i-vertex offset and
              g_i - max{0, g} are both >= -ACT_TOL, so g_i is active, and
          (b) no g_k has a hyper vertex other than w_k of offset at most
              ACT_TOL / c, as when each has a single one: convex, or dc
              with a smooth minus part, as generate builds them.
        The least-norm point of the larger set is no longer, and nu, a
        maximum over selections, is no smaller where its search is
        exhaustive: hypot(stationarity, normal_cone) <= ||q|| <= nu, up to
        rounding.

        It works on one BlockCodiff per function, the (S, k, 1+n) vertex
        arrays H and G of its rows pass, masked at ACT_TOL as
        quasidiff(., ACT_TOL) slices them (codiff._masked_rows); no
        CodiffPair or QuasidiffPair is built.  A scenario whose f and
        active g_i each keep one masked vertex in each set is a point
        selection: its one objective vertex and its rays are read off the
        arrays and count as one exhaustive selection checked, with no
        search.  Only the other scenarios go through
        max_over_selections, on their masked slices.  The joint system is
        assembled from every scenario's rows in one step.

    inf_stationarity_measure: -nu(ACT_TOL) of the penalized objective, the
        exact least directional derivative of its ACT_TOL-active first-order
        model over unit directions (BlockCodiff.least_norm), the value both
        solvers stop on; 0 means inf-stationary.

The condition quantifies over all superdifferential selections, so each
scenario keeps its worst, of largest y-residual of its own
co(sub f + w) + cone(sub g_i + w_i), as ``expectation.max_over_selections``
finds it (greedily past ENUM_CAP); the certificate records how many it
scored and whether the search overflowed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._minnorm import _layout_least_norm, _least_norm
from .codiff import _masked_rows, _point_rows
from .errors import InfeasibleCandidate
from .model import Point, TwoStageProblem, check_c, feas_report
from .expectation import (
    ACT_TOL, _integrand_codiff, _joint_scale, block_codiff, max_over_selections,
)
from .penalty import PenaltySpec, penalty_codiff


@dataclass(frozen=True)
class Certificate:
    """Multiplier certificate; residuals near zero certify the condition.

    The residuals are in nu's L2(P) norm, and under the module docstring's
    conditions hypot(stationarity, normal_cone) <= nu.  stationarity_max,
    the largest scenario's own y-residual, is not among them."""

    lambdas: np.ndarray  # (S, ell), nonnegative
    zeta: np.ndarray  # (S, d)
    residual_stationarity: float  # sqrt(sum_s p_s ||u_s,y||^2)
    residual_complementarity: float
    residual_normal_cone: float
    stationarity_max: float  # max_s ||u_s,y|| <= residual_stationarity / sqrt(min_s p_s)
    budget_sum: float  # sum_i max_s lambda_{i,s}
    budget_bound: float | None  # the penalty weight c, when one applies
    checked_selections: int
    fallback: bool = False  # some scenario's selection search was greedy

    def __post_init__(self):
        if self.lambdas.size and self.lambdas.min() < 0:
            raise ValueError("multipliers must be nonnegative")
        for r in (
            self.residual_stationarity,
            self.residual_complementarity,
            self.residual_normal_cone,
        ):
            if r < 0:
                raise ValueError("residuals must be nonnegative")

    @property
    def residuals(self) -> dict[str, float]:
        return {
            "stationarity": self.residual_stationarity,
            "complementarity": self.residual_complementarity,
            "normal_cone": self.residual_normal_cone,
        }

    def to_json(self) -> dict:
        return {
            "lambdas": self.lambdas.tolist(),
            "zeta": self.zeta.tolist(),
            "residuals": self.residuals,
            # max_s ||u_s,y|| <= residuals["stationarity"] / sqrt(min_s p_s)
            "stationarity_max": self.stationarity_max,
            "budget": {"sum": self.budget_sum, "bound": self.budget_bound},
            "checked_selections": self.checked_selections,
            "fallback": self.fallback,
        }


def _worst_selection(d: int, fsets, gsets: list):
    """One scenario's selection of largest y-residual: (V, R, checked,
    exhaustive), from the masked (sub, sup) slopes fsets of f and gsets of
    its active g_i, searched by max_over_selections.  V holds the shifted
    objective vertices and R the shifted rows of the active constraints
    (rays), in constraint order; a selection scores the norm of the
    least-norm point of co(V) + cone(R) in the y-coordinates."""
    sub_f, sup_f = fsets
    sup_sets = [sup_f] + [sup for _sub, sup in gsets]

    def residual(choice):
        V = sub_f + sup_f[choice[0]]
        # lambda_i co(sub g_i + w_i) over lambda_i >= 0 is the cone of its rows
        R = np.vstack([V[:0]] + [sub + sup_sets[1 + j][choice[1 + j]]
                                 for j, (sub, _sup) in enumerate(gsets)])
        return float(np.linalg.norm(_least_norm(V[:, d:], R[:, d:])[0])), (V, R)

    _res, (V, R), exhaustive, checked = max_over_selections(sup_sets, residual)
    return V, R, checked, exhaustive


def check_optimality(prob: TwoStageProblem, c: float, z: Point) -> Certificate:
    """Verify the multiplier condition at a candidate that passes the
    feasibility rule at FEAS_TOL (model.feas_report: max_{i,s} g_i, the test
    the solvers escalate c on); InfeasibleCandidate names the worst g_i.

    Per scenario the rows are those of the worst superdifferential
    selection, the one of largest y-residual: max_over_selections scores all
    of them up to ENUM_CAP, else climbs greedily and the certificate is
    flagged as a fallback; checked_selections counts the selections scored.
    A point selection (see the module docstring) is read off without a
    search.  One least-norm solve in nu's joint coordinates then gives the
    multipliers, zeta and the residuals.  c must pass model.check_c.
    """
    check_c(c)
    prob.check_point(z)
    S, d, m, ell = prob.S, prob.d, prob.m, prob.ell
    # one rows pass per function, a row per scenario; the g_i's passes also
    # give their values, with evaluate's bits, for the feasibility rule
    bg = [_integrand_codiff(prob, gi, z) for gi in prob.g]
    G = np.array([bc.values for bc in bg]).reshape(ell, S)
    rep = feas_report(prob.A.violation(z.x), G)
    if not rep.feasible:
        raise InfeasibleCandidate(
            f"max g = {rep.max_violation:.3e} at g[{rep.worst_constraint}] in scenario "
            f"{rep.worst_scenario}, x off A by {rep.x_violation:.3e} (tolerance {rep.tol:.1e})")
    # each function's arrays and ACT_TOL masks, and its point rows
    fn = [((bc.H, bc.G), _masked_rows(bc.H, bc.G, ACT_TOL)) for bc in [block_codiff(prob, z), *bg]]
    (one_f, Pf), *pg = [_point_rows(*arrays, *mask) for arrays, mask in fn]
    act = G.T >= -ACT_TOL  # (S, ell)
    one_g = np.array([one for one, _P in pg], dtype=bool).reshape(ell, S).T
    Pg = np.array([P for _one, P in pg]).reshape(ell, S, d + m).transpose(1, 0, 2)
    point = one_f & (one_g | ~act).all(axis=1)

    def sets(i, s):  # function i's masked (sub, sup) slopes in scenario s
        (hypo, hyper), (sub, sup, *_n) = fn[i]
        return hypo[s, sub[s], 1:], hyper[s, sup[s], 1:]

    # point scenarios: V_s = Pf[s], R_s the rows Pg[s, i] of the active g_i
    ps, (rs, ri) = np.flatnonzero(point), np.nonzero(act & point[:, None])
    rows = [(Pf[ps], ps, Pg[rs, ri], rs, ri)]
    checked, exhaustive = ps.shape[0], True
    for s in np.flatnonzero(~point).tolist():
        ia = np.flatnonzero(act[s])
        gsets = [sets(1 + i, s) for i in ia.tolist()]
        Vs, Rs, chk, exh = _worst_selection(d, sets(0, s), gsets)
        rows.append((Vs, np.full(Vs.shape[0], s), Rs, np.full(Rs.shape[0], s),
                     np.repeat(ia, [sub.shape[0] for sub, _sup in gsets])))
        checked += chk
        exhaustive &= exh
    # every scenario's rows together, in scenario order
    V, sv, R, sr, owner = (np.concatenate(a) for a in zip(*rows))
    kv, kr = np.argsort(sv, kind="stable"), np.argsort(sr, kind="stable")
    V, sv, R, sr, owner = V[kv], sv[kv], R[kr], sr[kr], owner[kr]

    # nu's weighting, with the constraint rows as rays: the point's x-part
    # is E[zeta] + n, n in N_A(x), and its y-part the sqrt(p_s) u_s,y
    normals, sw = prob.A.normal_rays(z.x, ACT_TOL), np.concatenate((sv, sr))
    W, p = np.concatenate((V, R)), prob.scenarios.probs[sw][:, None]
    _joint_scale(S, W, p, np.sqrt(p), normals)
    q, t, mu = _layout_least_norm(W, sw, np.bincount(sv, minlength=S).tolist(), normals)
    mu = mu[:R.shape[0]]
    lambdas = np.zeros((S, ell))
    np.add.at(lambdas, (sr, owner), mu)
    # u_s = t_s V_s + mu_s R_s, in scenario s's own coordinates (x, y_s)
    u = np.zeros((S, d + m))
    np.add.at(u, sv, t[:, None] * V)
    np.add.at(u, sr, mu[:, None] * R)
    zeta = u[:, :d].copy()
    return Certificate(
        lambdas=lambdas,
        zeta=zeta,
        residual_stationarity=float(np.linalg.norm(q[d:])),
        residual_complementarity=max(np.abs(lambdas * G.T).ravel().tolist(), default=0.0),
        residual_normal_cone=prob.A.normal_residual(z.x, prob.scenarios.probs @ zeta, tol=ACT_TOL),
        stationarity_max=float(np.sqrt(np.vecdot(u[:, d:], u[:, d:])).max()),
        budget_sum=float(lambdas.max(axis=0).sum()) if ell else 0.0,
        budget_bound=float(c),
        checked_selections=checked,
        fallback=not exhaustive,
    )


def _inf_stationarity(prob: TwoStageProblem, c: float, z: Point) -> tuple[float, bool]:
    """(inf_stationarity_measure, the exhaustive flag of its nu's search)."""
    check_c(c)
    nu, _q, exhaustive = penalty_codiff(prob, PenaltySpec("l1_max", float(c)), z).least_norm(
        prob.A, z.x, ACT_TOL)
    return (-nu if nu > 0.0 else 0.0), exhaustive


def inf_stationarity_measure(prob: TwoStageProblem, c: float, z: Point,
                             directions: int = 64) -> float:
    """-nu(ACT_TOL) of the l1_max penalized objective at z, or 0.0 when 0
    lies in the set (inf-stationary).

    nu is the norm of BlockCodiff.least_norm at eps = ACT_TOL, the slice
    check_optimality uses, not scaled with c:
    the distance from 0 to the p-weighted sum of the scenarios'
    ACT_TOL-active hypodifferentials, shifted by the worst zero-offset hyper
    selection, plus N_A(x), a lower bound past ENUM_CAP selections.
    ``directions`` is accepted and ignored: the value is exact, not sampled.
    A negative or non-finite c raises ValidationError (PENALTY_KIND).
    """
    return _inf_stationarity(prob, c, z)[0]
