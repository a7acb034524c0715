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
from .codiff import CodiffPair, _codiff_rows_values, codiff_rows, quasidiff
from .errors import InfeasibleCandidate
from .model import Point, TwoStageProblem
from .expectation import ACT_TOL, max_over_selections
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


def _scenario_solve(prob: TwoStageProblem, cf: CodiffPair, cgs: list, gvals: list):
    """One scenario's selection of largest y-residual: (V, R, q, owner,
    checked, exhaustive), from the codifferentials cf of f and cgs of the
    g_i at (x, y_s, theta_s), where the g_i take the values gvals, searched
    by max_over_selections.  V holds the shifted objective vertices, R the
    shifted rows of the active constraints (rays), owner[r] the constraint
    of ray r, and q the least-norm point of co(V) + cone(R) in the
    y-coordinates."""
    d, ell = prob.d, prob.ell
    qf = quasidiff(cf, ACT_TOL)
    qgs = [quasidiff(cg, ACT_TOL) for cg in cgs]
    act = [i for i in range(ell) if gvals[i] >= -ACT_TOL]
    sup_sets = [qf.sup] + [qgs[i].sup for i in act]

    def residual(choice):
        V = qf.sub + sup_sets[0][choice[0]]
        # lambda_i co(sub g_i + w_i) over lambda_i >= 0 is the cone of its rows
        R = np.vstack([V[:0]] + [qgs[i].sub + sup_sets[1 + j][choice[1 + j]]
                                 for j, i in enumerate(act)])
        q = _least_norm(V[:, d:], R[:, d:])[0]
        return float(np.linalg.norm(q)), (V, R, q)

    _res, (V, R, q), exhaustive, checked = max_over_selections(sup_sets, residual)
    owner = np.repeat(np.array(act, dtype=int), [qgs[i].sub.shape[0] for i in act])
    return V, R, q, owner, checked, exhaustive


def check_optimality(prob: TwoStageProblem, c: float, z: Point) -> Certificate:
    """Verify the multiplier condition at a candidate feasible to FEAS_TOL.

    Per scenario the residual is that of the worst superdifferential
    selection, the one of largest y-residual: max_over_selections scores all
    of them up to ENUM_CAP, else climbs greedily and the certificate is
    flagged as a fallback; checked_selections counts the selections scored.
    One joint solve then picks, on every scenario's y-minimizing face, the
    combinations whose E[zeta] lies nearest to -N_A(x).
    """
    prob.check_point(z)
    S, d, m, ell = prob.S, prob.d, prob.m, prob.ell
    # one rows pass per function, a row per scenario; the g_i's passes also
    # give their values, with evaluate's bits, for is_feasible's test: the
    # first largest g_i value in constraint-major order, -inf when l = 0
    X, Y, TH = np.broadcast_to(z.x, (S, d)), z.y, prob.scenarios.params
    cg, gv = zip(*(_codiff_rows_values(gi, X, Y, TH) for gi in prob.g)) if ell else ((), ())
    worst = max((v for v_i in gv for v in v_i.tolist()), default=-np.inf)
    if not (prob.A.violation(z.x) <= FEAS_TOL and worst <= FEAS_TOL):
        raise InfeasibleCandidate(
            f"candidate violates feasibility by {worst:.3e} (tolerance {FEAS_TOL:.1e})"
        )
    cf = codiff_rows(prob.f, X, Y, TH)
    gvals = [[float(v[s]) for v in gv] for s in range(S)]
    Vs, Rs, qs, owners, checked, exhaustive = zip(
        *(_scenario_solve(prob, cf[s], [cg_i[s] for cg_i in cg], gvals[s]) for s in range(S))
    )

    # Columns over (y_1..y_S, x): scenario s's y-offset from q_s weighted by
    # Y_WEIGHT and its p_s-weighted x-part, then A's outward normals, so the
    # x-part of the least-norm point is E[zeta] + n with n in N_A(x).
    def embed(s, M, shift):
        C = np.zeros((M.shape[0], S * m + d))
        C[:, s * m:(s + 1) * m] = Y_WEIGHT * (M[:, d:] - shift)
        C[:, S * m:] = prob.scenarios.probs[s] * M[:, :d]
        return C

    normals = prob.A.normal_rays(z.x, ACT_TOL)
    V = np.vstack([embed(s, Vs[s], qs[s]) for s in range(S)])
    R = np.vstack([embed(s, Rs[s], 0.0) for s in range(S)]
                  + [np.hstack((np.zeros((normals.shape[0], S * m)), normals))])
    _, t, mu = _least_norm(V, R, [V_s.shape[0] for V_s in Vs])
    ts = np.split(t, np.cumsum([V_s.shape[0] for V_s in Vs])[:-1])
    mus = np.split(mu, np.cumsum([R_s.shape[0] for R_s in Rs]))

    u = [t_s @ V_s + mu_s @ R_s for V_s, R_s, t_s, mu_s in zip(Vs, Rs, ts, mus)]
    lambdas = np.array([np.bincount(o, weights=mu_s, minlength=ell) for o, mu_s in zip(owners, mus)])
    zeta = np.array([u_s[:d] for u_s in u])
    comp = [abs(lam * g) for lam_s, g_s in zip(lambdas, gvals) for lam, g in zip(lam_s, g_s)]
    return Certificate(
        lambdas=lambdas,
        zeta=zeta,
        residual_stationarity=max(float(np.linalg.norm(u_s[d:])) for u_s in u),
        residual_complementarity=max(comp, default=0.0),
        residual_normal_cone=prob.A.normal_residual(z.x, prob.scenarios.probs @ zeta, tol=ACT_TOL),
        budget_sum=float(lambdas.max(axis=0).sum()) if ell else 0.0,
        budget_bound=float(c),
        checked_selections=sum(checked),
        fallback=not all(exhaustive),
    )


def inf_stationarity_measure(
    prob: TwoStageProblem,
    c: float,
    z: Point,
    directions: int = 64,
    seed: int = 0,
) -> float:
    """-nu(ACT_TOL) of the l1_max penalized objective at z, or 0.0 when 0
    lies in the set (inf-stationary).

    nu is the norm of BlockCodiff.least_norm at eps = ACT_TOL, the slice
    check_optimality uses, not scaled with c:
    the distance from 0 to the p-weighted sum of the scenarios'
    ACT_TOL-active hypodifferentials, shifted by the worst zero-offset hyper
    selection, plus N_A(x).  ``directions`` and ``seed`` are accepted and
    ignored: the value is exact, not sampled.  A negative or non-finite c
    raises ValidationError (PENALTY_KIND).
    """
    bc = penalty_codiff(prob, PenaltySpec("l1_max", float(c)), z)
    nu = bc.least_norm(prob.A, z.x, ACT_TOL)[0]
    return -nu if nu > 0.0 else 0.0
