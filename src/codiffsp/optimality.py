"""Candidate certification.

Two checks at a feasible point z = (x, y_1..y_S):

    check_optimality: multiplier form of the first-order necessary condition.
        Per scenario, fix one zero-offset superdifferential vertex w of the
        objective integrand and one per active constraint; then nonnegative
        multipliers lambda and a vector zeta_s must place (zeta_s, 0) in
        co(sub f + w) + sum_i lambda_i co(sub g_i + w_i), sub sliced at
        ACT_TOL (quasidiff(., ACT_TOL)) like nu, constraint activity and
        N_A(x).  Over lambda >= 0 the sum is co(sub f + w) plus the cone
        spanned by the rows of every sub g_i + w_i, so the y-block residual
        of the inclusion is the distance from 0 to that set in the
        y-coordinates: one exact nonnegative least-squares solve per scenario
        (_minnorm._least_norm).  Its nearest point q_s is unique but the
        combinations reaching it are not, and their x-parts differ; one joint
        solve over all scenarios picks them so that E[zeta] lies nearest to
        -N_A(x).  The ray weights sum per constraint to lambda_i, the x-parts
        are zeta_s and the norms of the y-parts the stationarity residuals.

        It works on one BlockCodiff per function, the vertex arrays of its
        rows pass, masked at ACT_TOL as quasidiff(., ACT_TOL) slices them
        (BlockCodiff.masked); no CodiffPair or QuasidiffPair is built.  A
        scenario whose f and active g_i each keep one masked vertex in each
        set is a point selection: its one objective vertex and its rays are
        read off the arrays and count as one exhaustive selection checked,
        with no search, and without an active constraint q_s is the y-part
        of that vertex, as _least_norm returns a lone row.  Only the other
        scenarios go through max_over_selections, on their masked slices.
        The joint system is assembled from every scenario's rows in one step.

    inf_stationarity_measure: -nu(ACT_TOL) of the penalized objective, the
        exact least directional derivative of its ACT_TOL-active first-order
        model over unit directions (BlockCodiff.least_norm), the value both
        solvers stop on; 0 means inf-stationary.

The condition quantifies over all superdifferential selections, so each
scenario keeps its worst, of largest y-residual, as
``expectation.max_over_selections`` finds it (greedily past ENUM_CAP); the
certificate records how many it scored and whether the search overflowed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._minnorm import _least_norm
from .errors import InfeasibleCandidate
from .model import Point, TwoStageProblem
from .expectation import ACT_TOL, _integrand_codiff, block_codiff, max_over_selections
from .penalty import PenaltySpec, penalty_codiff

FEAS_TOL = 1e-6
# Weight of the y-offset from q against the x-part in the zeta solve.  The
# weighting method (Lawson & Hanson, ch. 22) misses the exact tie-break by
# O(1/Y_WEIGHT^2); about eps^(-1/2) puts that at rounding level.
Y_WEIGHT = 1e8


@dataclass(frozen=True)
class Certificate:
    """Multiplier certificate; residuals near zero certify the condition."""

    lambdas: np.ndarray  # (S, ell), nonnegative
    zeta: np.ndarray  # (S, d)
    residual_stationarity: float
    residual_complementarity: float
    residual_normal_cone: float
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
            "budget": {"sum": self.budget_sum, "bound": self.budget_bound},
            "checked_selections": self.checked_selections,
            "fallback": self.fallback,
        }


def _scenario_solve(d: int, fsets, gsets: list):
    """One scenario's selection of largest y-residual: (V, R, q, checked,
    exhaustive), from the masked (sub, sup) slopes fsets of f and gsets of
    its active g_i, searched by max_over_selections.  V holds the shifted
    objective vertices, R the shifted rows of the active constraints (rays),
    in constraint order, and q the least-norm point of co(V) + cone(R) in
    the y-coordinates."""
    sub_f, sup_f = fsets
    sup_sets = [sup_f] + [sup for _sub, sup in gsets]

    def residual(choice):
        V = sub_f + sup_f[choice[0]]
        # lambda_i co(sub g_i + w_i) over lambda_i >= 0 is the cone of its rows
        R = np.vstack([V[:0]] + [sub + sup_sets[1 + j][choice[1 + j]]
                                 for j, (sub, _sup) in enumerate(gsets)])
        q = _least_norm(V[:, d:], R[:, d:])[0]
        return float(np.linalg.norm(q)), (V, R, q)

    _res, (V, R, q), exhaustive, checked = max_over_selections(sup_sets, residual)
    return V, R, q, checked, exhaustive


def check_optimality(prob: TwoStageProblem, c: float, z: Point) -> Certificate:
    """Verify the multiplier condition at a candidate feasible to FEAS_TOL.

    Per scenario the residual is that of the worst superdifferential
    selection, the one of largest y-residual: max_over_selections scores all
    of them up to ENUM_CAP, else climbs greedily and the certificate is
    flagged as a fallback; checked_selections counts the selections scored.
    One joint solve then picks, on every scenario's y-minimizing face, the
    combinations whose E[zeta] lies nearest to -N_A(x).  A point selection
    (see the module docstring) is scored once without a search.
    """
    prob.check_point(z)
    S, d, m, ell = prob.S, prob.d, prob.m, prob.ell
    # one rows pass per function, a row per scenario; the g_i's passes also
    # give their values, with evaluate's bits, for is_feasible's test: the
    # first largest g_i value in constraint-major order, -inf when l = 0
    bg = [_integrand_codiff(prob, gi, z) for gi in prob.g]
    gv = np.array([np.hstack([v for *_b, v in bc.blocks]) for bc in bg]).reshape(ell, S).T
    worst = max(gv.T.ravel().tolist(), default=-np.inf)
    if not (prob.A.violation(z.x) <= FEAS_TOL and worst <= FEAS_TOL):
        raise InfeasibleCandidate(
            f"candidate violates feasibility by {worst:.3e} (tolerance {FEAS_TOL:.1e})"
        )
    mf, gm = block_codiff(prob, z).masked(ACT_TOL), [bc.masked(ACT_TOL) for bc in bg]
    act, Pf = gv >= -ACT_TOL, mf.P  # act: (S, ell)
    one_g = np.array([mk.one for mk in gm], dtype=bool).reshape(ell, S).T
    Pg = np.array([mk.P for mk in gm]).reshape(ell, S, d + m).transpose(1, 0, 2)
    point = mf.one & (one_g | ~act).all(axis=1)

    # point scenarios: V_s = Pf[s], R_s the rows Pg[s, i] of the active g_i
    ps, (rs, ri) = np.flatnonzero(point), np.nonzero(act & point[:, None])
    rows = [(Pf[ps], ps, Pg[rs, ri], rs, ri)]
    q = Pf[:, d:].copy()  # a lone row without rays is its own least-norm point
    for s in np.flatnonzero(point & act.any(axis=1)).tolist():
        q[s] = _least_norm(Pf[s:s + 1, d:], Pg[s, act[s], d:])[0]
    checked, exhaustive = ps.shape[0], True
    for s in np.flatnonzero(~point).tolist():
        ia = np.flatnonzero(act[s])
        gsets = [gm[i].sets(s) for i in ia.tolist()]
        Vs, Rs, q[s], chk, exh = _scenario_solve(d, mf.sets(s), gsets)
        rows.append((Vs, np.full(Vs.shape[0], s), Rs, np.full(Rs.shape[0], s),
                     np.repeat(ia, [sub.shape[0] for sub, _sup in gsets])))
        checked += chk
        exhaustive &= exh
    # every scenario's rows together, in scenario order
    V, sv, R, sr, owner = (np.concatenate(a) for a in zip(*rows))
    kv, kr = np.argsort(sv, kind="stable"), np.argsort(sr, kind="stable")
    V, sv, R, sr, owner = V[kv], sv[kv], R[kr], sr[kr], owner[kr]

    # Columns over (y_1..y_S, x): scenario s's y-offset from q_s weighted by
    # Y_WEIGHT and its p_s-weighted x-part, then A's outward normals, so the
    # x-part of the least-norm point is E[zeta] + n with n in N_A(x).
    def embed(M, s, shift):
        C = np.zeros((M.shape[0], S * m + d))
        np.put_along_axis(C, s[:, None] * m + np.arange(m), Y_WEIGHT * (M[:, d:] - shift), axis=1)
        C[:, S * m:] = prob.scenarios.probs[s][:, None] * M[:, :d]
        return C

    normals = prob.A.normal_rays(z.x, ACT_TOL)
    nv, nr = np.bincount(sv, minlength=S), np.bincount(sr, minlength=S)
    _, t, mu = _least_norm(
        embed(V, sv, q[sv]),
        np.vstack((embed(R, sr, 0.0), np.hstack((np.zeros((normals.shape[0], S * m)), normals)))),
        nv.tolist(),
    )
    lambdas = np.zeros((S, ell))
    np.add.at(lambdas, (sr, owner), mu[:R.shape[0]])
    # u_s = t_s V_s + mu_s R_s, one product per scenario
    ev, er = np.cumsum(nv).tolist(), np.cumsum(nr).tolist()
    u = np.array([t[a:b] @ V[a:b] + mu[c:e] @ R[c:e]
                  for a, b, c, e in zip([0] + ev[:-1], ev, [0] + er[:-1], er)])
    zeta = u[:, :d].copy()
    return Certificate(
        lambdas=lambdas,
        zeta=zeta,
        residual_stationarity=max(float(np.linalg.norm(u_s[d:])) for u_s in u),
        residual_complementarity=max(np.abs(lambdas * gv).ravel().tolist(), default=0.0),
        residual_normal_cone=prob.A.normal_residual(z.x, prob.scenarios.probs @ zeta, tol=ACT_TOL),
        budget_sum=float(lambdas.max(axis=0).sum()) if ell else 0.0,
        budget_bound=float(c),
        checked_selections=checked,
        fallback=not exhaustive,
    )


def _inf_stationarity(prob: TwoStageProblem, c: float, z: Point) -> tuple[float, bool]:
    """(inf_stationarity_measure, the exhaustive flag of its nu's search)."""
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
