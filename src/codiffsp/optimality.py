"""Candidate certification.

Three checks at a feasible point z = (x, y_1..y_S):

    check_optimality: multiplier form of the first-order necessary condition.
        Per scenario, fix one zero-offset superdifferential vertex w of the
        objective integrand and one per active constraint; then nonnegative
        multipliers lambda and a vector zeta_s must place (zeta_s, 0) in
        co(sub f + w) + sum_i lambda_i co(sub g_i + w_i).  Over lambda >= 0
        the sum is co(sub f + w) plus the cone spanned by the rows of every
        sub g_i + w_i, so the y-block residual of the inclusion is the
        distance from 0 to that set in the y-coordinates: one exact
        nonnegative least-squares solve (_minnorm._least_norm).  Its nearest
        point q is unique but the combination reaching it need not be, and
        the combinations' x-parts differ; a second solve picks, among them,
        one of least x-part (0 lies in every normal cone).  Its ray weights
        sum per constraint to lambda_i, its x-part is zeta_s and the norm of
        its y-part is the stationarity measure; E[zeta] must lie in -N_A(x).

    smooth_kkt_check: the same condition when every integrand is smooth,
        returned without a penalty budget bound; each scenario's solve is
        then the nonnegative least-squares system in the gradients.

    inf_stationarity_measure: sampled lower estimate of the directional
        derivative of the penalized integrand over unit feasible directions;
        nonnegativity indicates approximate inf-stationarity.  The derivative
        is taken over the eps-active codifferential vertices, eps = ACT_TOL,
        the same activity tolerance check_optimality applies to constraints.

The condition quantifies over all superdifferential selections; selections
are enumerated exhaustively only when their count is at most ENUM_CAP,
otherwise the smallest-norm vertex of each set is used, and the certificate
records how many were checked.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from ._minnorm import _least_norm
from .codiff import codiff, quasidiff
from .errors import InfeasibleCandidate, NotSmooth
from .expr import evaluate, is_smooth_struct
from .model import Point, TwoStageProblem, is_feasible
from .penalty import ENUM_CAP, PenaltySpec, penalty_codiff

FEAS_TOL = 1e-6
ACT_TOL = 1e-6  # matches solver accuracy; a constraint this close to 0 is active
CONE_TOL = 1e-6
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
    fallback: bool = False  # selection enumeration overflowed

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
    def empirical(self) -> bool:
        """Every selection's multiplier solve is exact, so the certificate
        is empirical exactly when it is a fallback."""
        return self.fallback

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
            "empirical": self.empirical,
            "fallback": self.fallback,
        }


def _scenario_certificate(prob: TwoStageProblem, z: Point, s: int):
    """Best (residual, zeta, lambdas, complementarity, combos_checked, exhaustive)."""
    d, ell = prob.d, prob.ell
    th = prob.scenarios.params[s]
    qf = quasidiff(codiff(prob.f, z.x, z.y[s], th))
    qgs = [quasidiff(codiff(gi, z.x, z.y[s], th)) for gi in prob.g]
    gvals = [float(evaluate(gi, z.x, z.y[s], th)) for gi in prob.g]
    act = [i for i in range(ell) if gvals[i] >= -ACT_TOL]

    sup_sets = [qf.sup] + [qgs[i].sup for i in act]
    exhaustive = math.prod(S.shape[0] for S in sup_sets) <= ENUM_CAP
    if exhaustive:
        combos = list(itertools.product(*(range(S.shape[0]) for S in sup_sets)))
    else:
        # default selection: the smallest-norm vertex of each set
        combos = [tuple(int(np.argmin((S * S).sum(axis=1))) for S in sup_sets)]

    # lambda_i co(sub g_i + w_i) over lambda_i >= 0 is the cone of its rows;
    # owner[r] is the constraint that ray r belongs to
    owner = np.repeat(np.array(act, dtype=int), [qgs[i].sub.shape[0] for i in act])
    best = None
    for combo in combos:
        V = qf.sub + sup_sets[0][combo[0]]
        R = np.vstack(
            [V[:0]] + [qgs[i].sub + sup_sets[1 + j][combo[1 + j]] for j, i in enumerate(act)]
        )
        q = _least_norm(V[:, d:], R[:, d:])[0]
        # least x-part among the combinations whose y-part is q
        _, t, mu = _least_norm(
            np.hstack((Y_WEIGHT * (V[:, d:] - q), V[:, :d])),
            np.hstack((Y_WEIGHT * R[:, d:], R[:, :d])),
        )
        u = t @ V + mu @ R
        res = float(np.linalg.norm(u[d:]))
        if best is None or res < best[0]:
            best = (res, u[:d], np.bincount(owner, weights=mu, minlength=ell))
    res, zeta, lam = best
    comp = max((abs(lam[i] * gvals[i]) for i in range(ell)), default=0.0)
    return res, zeta, lam, comp, len(combos), exhaustive


def check_optimality(prob: TwoStageProblem, c: float, z: Point) -> Certificate:
    """Verify the multiplier condition at a candidate feasible to FEAS_TOL.

    Per scenario, superdifferential selections are enumerated when their
    count is at most ENUM_CAP, otherwise the smallest-norm vertex of each
    set is used and the certificate is flagged as a fallback.  Each
    selection is solved exactly; the scenario keeps the smallest residual.
    """
    ok, rep = is_feasible(prob, z, tol=FEAS_TOL)
    if not ok:
        raise InfeasibleCandidate(
            f"candidate violates feasibility by {rep.max_violation:.3e} "
            f"(tolerance {FEAS_TOL:.1e})"
        )
    c = float(c)
    S, ell = prob.S, prob.ell
    lambdas = np.zeros((S, ell))
    zeta = np.zeros((S, prob.d))
    res_stat = 0.0
    res_comp = 0.0
    checked = 0
    exhaustive_all = True
    for s in range(S):
        res, zs, lam, comp, n, exh = _scenario_certificate(prob, z, s)
        lambdas[s] = lam
        zeta[s] = zs
        res_stat = max(res_stat, res)
        res_comp = max(res_comp, comp)
        checked += n
        exhaustive_all &= exh
    e_zeta = prob.scenarios.probs @ zeta
    res_cone = prob.A.normal_residual(z.x, e_zeta, tol=CONE_TOL)
    budget = float(lambdas.max(axis=0).sum()) if ell else 0.0
    return Certificate(
        lambdas=lambdas,
        zeta=zeta,
        residual_stationarity=res_stat,
        residual_complementarity=res_comp,
        residual_normal_cone=res_cone,
        budget_sum=budget,
        budget_bound=c,
        checked_selections=checked,
        fallback=not exhaustive_all,
    )


def smooth_kkt_check(prob: TwoStageProblem, z: Point) -> Certificate:
    """check_optimality when every integrand is smooth, without a budget bound.

    Each scenario's solve is then the nonnegative least-squares system
    grad_y f + sum_i lambda_i grad_y g_i = 0 over the active constraints,
    with the x-condition aggregated through the normal cone of A.  The
    penalty weight does not enter the certificate apart from its bound.
    """
    if not is_smooth_struct(prob.f) or any(not is_smooth_struct(gi) for gi in prob.g):
        raise NotSmooth("smooth_kkt_check requires smooth f and g")
    return replace(check_optimality(prob, 0.0, z), budget_bound=None)


def inf_stationarity_measure(
    prob: TwoStageProblem,
    c: float,
    z: Point,
    directions: int = 64,
    seed: int = 0,
) -> float:
    """min over sampled unit feasible directions of the penalized integrand's
    directional derivative at z; nonnegative means approximately
    inf-stationary.

    The derivative along h is max <v, h> over hypo vertices with offset
    >= -eps plus min <w, h> over hyper vertices with offset <= eps, with
    eps = ACT_TOL: a kink within ACT_TOL of z counts as active, exactly as
    check_optimality counts a constraint with g >= -ACT_TOL as active, so
    a point the certificate accepts is not rejected here for missing such a
    kink by a solver-accuracy margin.  eps is not scaled with the penalty
    weight c.  Both slices are nonempty by the zero-at-zero normalization.
    The vertices are penalty_codiff's, so a negative or non-finite c raises
    ValidationError (PENALTY_KIND).
    """
    bc = penalty_codiff(prob, PenaltySpec("l1_max", float(c)), z)
    slices = [
        (cd.hypo[cd.hypo[:, 0] >= -ACT_TOL, 1:], cd.hyper[cd.hyper[:, 0] <= ACT_TOL, 1:])
        for cd in bc.per_scenario
    ]
    rng = np.random.default_rng(seed)
    n = prob.d + prob.S * prob.m
    worst = math.inf
    found = 0
    attempts = 0
    while found < directions and attempts < 50 * directions:
        attempts += 1
        h = rng.standard_normal(n)
        hx = prob.A.tangent_project(z.x, h[: prob.d])
        hY = h[prob.d :].reshape(prob.S, prob.m)
        norm = math.sqrt(float(hx @ hx) + float((hY * hY).sum()))
        if norm < 1e-12:
            continue
        hx /= norm
        hY /= norm
        val = 0.0
        for s, (sub, sup) in enumerate(slices):
            h_s = np.concatenate((hx, hY[s]))
            val += float(bc.probs[s]) * float((sub @ h_s).max() + (sup @ h_s).min())
        worst = min(worst, val)
        found += 1
    return worst
