"""Candidate certification.

Three checks at a feasible point z = (x, y_1..y_S):

    check_optimality: multiplier form of the first-order necessary condition.
        Per scenario, fix one zero-offset superdifferential vertex w of the
        objective integrand and one per active constraint; then nonnegative
        multipliers lambda and a vector zeta_s must place (zeta_s, 0) inside
        the hull of {v + w + sum_i lambda_i (v_i + w_i)} over subdifferential
        vertices v, v_i.  The y-block residual of that inclusion is the
        stationarity measure; E[zeta] must lie in -N_A(x).

    smooth_kkt_check: the same condition when every integrand is smooth;
        check_optimality then reduces each scenario to a nonnegative
        least-squares system in the gradients, and smooth_kkt_check returns
        that certificate without a penalty budget bound.

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
from scipy.optimize import nnls

from ._minnorm import min_norm_point
from .codiff import codiff, quasidiff
from .errors import InfeasibleCandidate, NotSmooth
from .expr import evaluate, is_smooth_struct
from .model import Point, TwoStageProblem, is_feasible
from .penalty import ENUM_CAP, PenaltySpec, penalty_codiff

FEAS_TOL = 1e-6
ACT_TOL = 1e-6  # matches solver accuracy; a constraint this close to 0 is active
CONE_TOL = 1e-6
LAMBDA_GRID = 11


@dataclass(frozen=True)
class Certificate:
    """Multiplier certificate; residuals near zero certify the condition.

    empirical is False only when every superdifferential selection was
    enumerated and every scenario reduced to an exact least-squares solve.
    """

    lambdas: np.ndarray  # (S, ell), nonnegative
    zeta: np.ndarray  # (S, d)
    residual_stationarity: float
    residual_complementarity: float
    residual_normal_cone: float
    budget_sum: float  # sum_i max_s lambda_{i,s}
    budget_bound: float | None  # the penalty weight c, when one applies
    checked_selections: int
    empirical: bool
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


TIEBREAK = 1e-3  # x-block pull; squared it must clear the min-norm gap tol


def _pairwise_sum(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return (A[:, None, :] + B[None, :, :]).reshape(-1, A.shape[1])


def _hull_residual(V: np.ndarray, d: int, tiebreak: bool = False) -> tuple[float, np.ndarray]:
    """min ||u_y|| over u in co(V) and the x-block of an attaining u.

    The minimizer's x-block is not unique; with tiebreak the solve also
    weakly minimizes ||u_x||, which favors the normal-cone check (0 lies in
    every normal cone).  The reported residual is the chosen u's ||u_y||.
    """
    if tiebreak:
        W = V.copy()
        W[:, :d] *= TIEBREAK
        _, t = min_norm_point(W)
        u = t @ V
        return float(np.linalg.norm(u[d:])), u[:d]
    q, t = min_norm_point(V[:, d:])
    u = t @ V
    return float(np.linalg.norm(q)), u[:d]


def _selection_residual(
    sub_f: np.ndarray,
    subs: list[np.ndarray],
    lam: np.ndarray,
    d: int,
    tiebreak: bool = False,
) -> tuple[float, np.ndarray]:
    """Residual for fixed multipliers; vertex sets already carry their w."""
    V = sub_f
    for t in range(lam.shape[0]):
        if lam[t] > 0.0:
            V = _pairwise_sum(V, lam[t] * subs[t])
    return _hull_residual(V, d, tiebreak)


def _lambda_search(resfun, n_act: int, c: float):
    """Coarse grid on [0, 10c] then improvement-only coordinate descent."""
    if n_act == 0:
        lam = np.zeros(0)
        return lam, resfun(lam)
    hi = 10.0 * max(c, 1.0)
    best_l = np.zeros(n_act)
    best_r = resfun(best_l)
    if n_act <= 3:
        axes = [np.linspace(0.0, hi, LAMBDA_GRID)] * n_act
        for combo in itertools.product(*axes):
            lam = np.asarray(combo)
            r = resfun(lam)
            if r < best_r:
                best_r, best_l = r, lam
    step = hi / (LAMBDA_GRID - 1)
    while step > 1e-12:
        improved = True
        while improved:
            improved = False
            for j in range(n_act):
                for cand in (best_l[j] - step, best_l[j] + step):
                    if cand < 0.0:
                        continue
                    trial = best_l.copy()
                    trial[j] = cand
                    r = resfun(trial)
                    if r < best_r - 1e-15:
                        best_r, best_l, improved = r, trial, True
        step *= 0.5
    return best_l, best_r


def _scenario_certificate(prob: TwoStageProblem, z: Point, s: int, c: float):
    """Best (residual, zeta, lambdas, combos_checked, exhaustive, smooth)."""
    d, ell = prob.d, prob.ell
    th = prob.scenarios.params[s]
    qf = quasidiff(codiff(prob.f, z.x, z.y[s], th))
    qgs = [quasidiff(codiff(gi, z.x, z.y[s], th)) for gi in prob.g]
    gvals = [float(evaluate(gi, z.x, z.y[s], th)) for gi in prob.g]
    act = [i for i in range(ell) if gvals[i] >= -ACT_TOL]

    sup_sets = [qf.sup] + [qgs[i].sup for i in act]
    smooth = qf.sub.shape[0] == 1 and all(qgs[i].sub.shape[0] == 1 for i in act)

    exhaustive = math.prod(S.shape[0] for S in sup_sets) <= ENUM_CAP
    if exhaustive:
        combos = list(itertools.product(*(range(S.shape[0]) for S in sup_sets)))
    else:
        # default selection: the smallest-norm vertex of each set
        combos = [tuple(int(np.argmin((S * S).sum(axis=1))) for S in sup_sets)]

    best = None
    for combo in combos:
        wf = sup_sets[0][combo[0]]
        shifted = [qgs[act[t]].sub + sup_sets[1 + t][combo[1 + t]] for t in range(len(act))]
        base = qf.sub + wf
        if smooth:
            grad = base[0]
            if act:
                G = np.stack([sh[0][d:] for sh in shifted], axis=1)
                lam_act, res = nnls(G, -grad[d:])
                res = float(res)
                zeta = grad[:d] + sum(
                    lam_act[t] * shifted[t][0][:d] for t in range(len(act))
                )
            else:
                lam_act = np.zeros(0)
                res = float(np.linalg.norm(grad[d:]))
                zeta = grad[:d].copy()
        else:
            lam_act, _ = _lambda_search(
                lambda lam: _selection_residual(base, shifted, lam, d)[0], len(act), c
            )
            res, zeta = _selection_residual(base, shifted, lam_act, d, tiebreak=True)
        if best is None or res < best[0]:
            lam_full = np.zeros(ell)
            for t, i in enumerate(act):
                lam_full[i] = lam_act[t]
            best = (res, zeta, lam_full)
    res, zeta, lam_full = best
    comp = max((abs(lam_full[i] * gvals[i]) for i in range(ell)), default=0.0)
    return res, zeta, lam_full, comp, len(combos), exhaustive, smooth


def check_optimality(prob: TwoStageProblem, c: float, z: Point) -> Certificate:
    """Verify the multiplier condition at a candidate feasible to FEAS_TOL.

    Per scenario, superdifferential selections are enumerated when their
    count is at most ENUM_CAP, otherwise the smallest-norm vertex of each
    set is used and the certificate is flagged as a fallback.  A scenario
    whose objective and active constraints each have a single
    subdifferential vertex is solved exactly by nonnegative least squares.
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
    smooth_all = True
    for s in range(S):
        res, zs, lam, comp, n, exh, sm = _scenario_certificate(prob, z, s, c)
        lambdas[s] = lam
        zeta[s] = zs
        res_stat = max(res_stat, res)
        res_comp = max(res_comp, comp)
        checked += n
        exhaustive_all &= exh
        smooth_all &= sm
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
        empirical=not (exhaustive_all and smooth_all),
        fallback=not exhaustive_all,
    )


def smooth_kkt_check(prob: TwoStageProblem, z: Point) -> Certificate:
    """check_optimality when every integrand is smooth, without a budget bound.

    Every scenario then takes check_optimality's exact route: the
    nonnegative least-squares system grad_y f + sum_i lambda_i grad_y g_i = 0
    over the active constraints, with the x-condition aggregated through
    the normal cone of A.  The penalty weight does not enter that route.
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
