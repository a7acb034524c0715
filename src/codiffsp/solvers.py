"""Solvers for the penalized problem min Phi_c over A x (R^m)^S.

Two routes, both driven by the l1_max penalty:

    dca_solve: difference-of-convex iteration.  The penalized integrand
        splits into convex plus/minus parts; each step linearizes the minus
        part at the current iterate and minimizes the resulting convex
        expectation with a projected subgradient method.  Warm starts plus
        best-iterate inner solves make the objective non-increasing by
        construction.

    codiff_descent: at each iterate builds the block codifferential of the
        penalized integrand, extracts a steepest-descent direction per
        scenario from min-norm points of translated hypodifferentials, and
        applies an Armijo line search.  The min-norm certificate doubles as
        an approximate inf-stationarity measure.

Fixed settings, not exposed in SolveOpts: the convex subsolver runs at most
INNER_ITERS projected-subgradient iterations with base step
1/((k+1)^0.75 |g|); the Armijo search uses sufficient-decrease factor
ARMIJO_SIGMA and at most ARMIJO_HALVINGS halvings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._minnorm import min_norm_point
from .codiff import codiff, quasidiff
from .errors import NotDC, VertexCapExceeded
from .expectation import _integrand_codiff
from .expr import (
    Expr,
    add,
    dc_parts,
    evaluate,
    is_convex_struct,
    maximum,
    scale,
)
from .model import FirstStageSet, Point, TwoStageProblem
from .penalty import PenaltySpec, Phi_c, penalty_integrand, phi_l1

__all__ = [
    "DCDecomposition",
    "SolveOpts",
    "SolveReport",
    "ConvexExpectation",
    "dc_decompose",
    "convex_subsolve",
    "dca_solve",
    "codiff_descent",
    "min_norm_point",
]

INNER_ITERS = 300
ARMIJO_SIGMA = 1e-4
ARMIJO_HALVINGS = 50


@dataclass(frozen=True)
class DCDecomposition:
    """Convex split of the penalized integrand: plus - minus pointwise."""

    plus: Expr
    minus: Expr


@dataclass(frozen=True)
class SolveOpts:
    tol_obj: float = 1e-8
    tol_step: float = 1e-8
    tol_feas: float = 1e-6
    max_iter: int = 500
    escalate: bool = True
    tol_stat: float = 1e-6
    cd_max_iter: int = 1000


@dataclass(frozen=True)
class SolveReport:
    iterates: int
    final_point: Point
    final_value: float
    final_phi: float
    # converged | iteration_cap | stalled | vertex_cap | penalty_escalated(k);
    # stalled: codiff_descent found no descent step while nu > 10 * tol_stat
    status: str
    history: tuple[tuple[float, float, float], ...]  # (value, phi, step)
    c_final: float


def dc_decompose(prob: TwoStageProblem, c: float) -> DCDecomposition:
    """Split f + c*max{0, g_i} into convex plus/minus integrands.

    With f = f1 - f2 and g_i = g_i1 - g_i2 (all parts convex),

        plus  = f1 + c * max( sum_k g_k2,  max_i { g_i1 + sum_{k != i} g_k2 } )
        minus = f2 + c * sum_i g_i2

    where the first max branch carries the 0-branch of max{0, g_i}.  The
    identity plus - minus = f + c*max{0, g_i} is sampled before returning.
    """
    if c < 0.0:
        raise NotDC("penalty parameter must be nonnegative")
    f1, f2 = dc_parts(prob.f)
    if prob.ell == 0 or c == 0.0:
        plus, minus = f1, f2
    else:
        parts = [dc_parts(gi) for gi in prob.g]
        sum_g2 = add(*(p[1] for p in parts)) if len(parts) > 1 else parts[0][1]
        branches = [sum_g2]
        for i, (gi1, _gi2) in enumerate(parts):
            others = [parts[k][1] for k in range(len(parts)) if k != i]
            branches.append(add(gi1, *others) if others else gi1)
        plus = add(f1, scale(c, maximum(*branches)))
        minus = add(f2, scale(c, add(*(p[1] for p in parts))) if len(parts) > 1
                    else scale(c, parts[0][1]))
    if not (is_convex_struct(plus) and is_convex_struct(minus)):
        raise NotDC("decomposition parts are not structurally convex")

    # sampled identity check against the direct penalized integrand
    target = penalty_integrand(prob, c)
    rng = np.random.default_rng(0)
    q = prob.scenarios.q
    for _ in range(50):
        x = rng.normal(size=prob.d)
        y = rng.normal(size=prob.m)
        th = rng.normal(size=q)
        lhs = evaluate(plus, x, y, th) - evaluate(minus, x, y, th)
        rhs = evaluate(target, x, y, th)
        if abs(lhs - rhs) > 1e-9 * (1.0 + abs(rhs)):
            raise NotDC(f"decomposition identity failed: {lhs!r} vs {rhs!r}")
    return DCDecomposition(plus=plus, minus=minus)


# ---------------------------------------------------------------------------
# convex subproblem
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvexExpectation:
    """Objective sum_s p_s integrand(x, y_s, theta_s) - <tilt, (x, y)>."""

    integrand: Expr
    probs: np.ndarray
    params: np.ndarray
    d: int
    m: int
    tilt_x: np.ndarray | None = None
    tilt_y: np.ndarray | None = None  # (S, m)

    @property
    def S(self) -> int:
        return self.probs.shape[0]

    def value(self, x: np.ndarray, Y: np.ndarray) -> float:
        total = 0.0
        for s in range(self.S):
            total += float(self.probs[s]) * evaluate(
                self.integrand, x, Y[s], self.params[s]
            )
        if self.tilt_x is not None:
            total -= float(self.tilt_x @ x)
            total -= float((self.tilt_y * Y).sum())
        return total

    def subgrad(self, x: np.ndarray, Y: np.ndarray):
        gx = np.zeros(self.d)
        gY = np.zeros((self.S, self.m))
        for s in range(self.S):
            qd = quasidiff(codiff(self.integrand, x, Y[s], self.params[s]))
            v = qd.sub.mean(axis=0)  # deterministic element of the subdifferential
            gx += float(self.probs[s]) * v[: self.d]
            gY[s] = float(self.probs[s]) * v[self.d :]
        if self.tilt_x is not None:
            gx -= self.tilt_x
            gY -= self.tilt_y
        return gx, gY


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(phi, a: float, b: float, iters: int = 40):
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = phi(c), phi(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = phi(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = phi(d)
    return (c, fc) if fc <= fd else (d, fd)


def _coordinate_polish(value, A: FirstStageSet, x, Y, fcur, sweeps=3):
    """Improvement-only cyclic 1D minimization of value(x, Y) over every
    coordinate.

    Subgradient steps stall on the smooth coordinates once a kink
    coordinate locks in; per-coordinate golden-section search cleans
    those up without ever accepting a worse point.  Exact on convex
    lines, a safe heuristic otherwise (only strict improvements pass).
    """
    x = x.copy()
    Y = Y.copy()
    S, m = Y.shape
    coords = [("x", j) for j in range(x.shape[0])] + [
        ("y", (s, j)) for s in range(S) for j in range(m)
    ]
    for _ in range(sweeps):
        improved = False
        for block, idx in coords:

            def phi(t: float) -> float:
                if block == "x":
                    x2 = x.copy()
                    x2[idx] += t
                    return value(A.project(x2), Y)
                Y2 = Y.copy()
                Y2[idx] += t
                return value(x, Y2)

            a, b = -1.0, 1.0
            fa, fb = phi(a), phi(b)
            while fa < fcur and a > -1e6:
                a *= 4.0
                fa = phi(a)
            while fb < fcur and b < 1e6:
                b *= 4.0
                fb = phi(b)
            t, ft = _golden_min(phi, a, b)
            if ft < fcur - 1e-15 * (1.0 + abs(fcur)):
                if block == "x":
                    x[idx] += t
                    x = A.project(x)
                else:
                    Y[idx] += t
                fcur = ft
                improved = True
        if not improved:
            break
    return x, Y, fcur


def convex_subsolve(ce: ConvexExpectation, A: FirstStageSet, z0: Point) -> Point:
    """Projected subgradient descent returning the best iterate.

    Base step: diminishing 1/(k+1)^0.75 normalized by the subgradient
    norm, for at most INNER_ITERS iterations.  An improvement-only
    line search along the projected arc runs first each iteration; when it
    fails (kinks), the base step keeps the classical convergence guarantee.
    A final coordinate polish sharpens the smooth coordinates.  The result
    never exceeds the objective at z0.
    """
    x = A.project(z0.x)
    Y = np.array(z0.y, dtype=np.float64)
    fcur = ce.value(x, Y)
    fbest, xbest, Ybest = fcur, x.copy(), Y.copy()
    t_ls = 1.0
    stall = 0
    for k in range(INNER_ITERS):
        gx, gY = ce.subgrad(x, Y)
        gn = math.sqrt(float(gx @ gx) + float((gY * gY).sum()))
        if gn <= 1e-15:
            break
        accepted = False
        t = t_ls
        for _ in range(20):
            x2 = A.project(x - t * gx)
            Y2 = Y - t * gY
            f2 = ce.value(x2, Y2)
            if f2 < fcur - 1e-15 * (1.0 + abs(fcur)):
                gain = fcur - f2
                x, Y, fcur = x2, Y2, f2
                t_ls = min(t * 2.0, 1e6)
                accepted = True
                stall = stall + 1 if gain <= 1e-13 * (1.0 + abs(fcur)) else 0
                break
            t *= 0.5
        if not accepted:
            step = 1.0 / (((k + 1) ** 0.75) * gn)
            x = A.project(x - step * gx)
            Y = Y - step * gY
            fcur = ce.value(x, Y)
            t_ls = max(t_ls * 0.5, 1e-12)
        if fcur < fbest:
            fbest, xbest, Ybest = fcur, x.copy(), Y.copy()
        if stall >= 3:
            break
    xbest, Ybest, _f = _coordinate_polish(ce.value, A, xbest, Ybest, fbest)
    return Point(x=xbest, y=Ybest)


# ---------------------------------------------------------------------------
# DCA
# ---------------------------------------------------------------------------


def dca_solve(
    prob: TwoStageProblem, c: float, z0: Point, opts: SolveOpts | None = None
) -> SolveReport:
    """DCA on Phi_c with the l1_max penalty.

    Each outer iteration minimizes plus-expectation minus the linearization
    of the minus-expectation, warm-started at the current point; since the
    inner solver never returns a worse point than its start, the penalized
    objective is non-increasing.  When the final iterate stays infeasible
    beyond tol_feas and escalation is enabled, c grows tenfold (at most 5
    times) and the iteration restarts from the current point; the report's
    history covers the final penalty segment.
    """
    opts = opts or SolveOpts()
    prob.check_point(z0)
    z = Point(x=prob.A.project(z0.x), y=z0.y)
    c_now = float(c)
    escalations = 0
    total_iters = 0
    while True:
        spec = PenaltySpec("l1_max", c_now)
        dec = dc_decompose(prob, c_now)
        minus = ConvexExpectation(
            integrand=dec.minus,
            probs=prob.scenarios.probs,
            params=prob.scenarios.params,
            d=prob.d,
            m=prob.m,
        )
        val = Phi_c(prob, spec, z)
        history = [(val, phi_l1(prob, z), 0.0)]
        status = "iteration_cap"
        for _k in range(opts.max_iter):
            total_iters += 1
            xi_x, xi_y = minus.subgrad(z.x, z.y)
            ce = ConvexExpectation(
                integrand=dec.plus,
                probs=prob.scenarios.probs,
                params=prob.scenarios.params,
                d=prob.d,
                m=prob.m,
                tilt_x=xi_x,
                tilt_y=xi_y,
            )
            z_new = convex_subsolve(ce, prob.A, z)
            v_new = Phi_c(prob, spec, z_new)
            if v_new > val:  # fp guard; warm start makes this vacuous
                z_new, v_new = z, val
            step = math.sqrt(
                float(np.sum((z_new.x - z.x) ** 2)) + float(np.sum((z_new.y - z.y) ** 2))
            )
            history.append((v_new, phi_l1(prob, z_new), step))
            decrease = val - v_new
            z, val = z_new, v_new
            if decrease < opts.tol_obj or step < opts.tol_step:
                status = "converged"
                break
        phi = phi_l1(prob, z)
        if phi > opts.tol_feas and opts.escalate and escalations < 5:
            escalations += 1
            c_now *= 10.0
            continue
        break
    if phi > opts.tol_feas and escalations > 0:
        status = f"penalty_escalated({escalations})"
    return SolveReport(
        iterates=total_iters,
        final_point=z,
        final_value=val,
        final_phi=phi,
        status=status,
        history=tuple(history),
        c_final=c_now,
    )


# ---------------------------------------------------------------------------
# codifferential descent
# ---------------------------------------------------------------------------


def _steepest_block(cd):
    """Most-violated hyper selection for one scenario: the largest min-norm
    of the hypodifferential translated by a zero-offset hyper vertex.
    Returns (nu, q) with q the (1+d+m) augmented min-norm point."""
    nu_best = -1.0
    q_best = None
    for w in quasidiff(cd).sup:
        V = np.array(cd.hypo)
        V[:, 1:] += w
        q, _t = min_norm_point(V)
        nu = float(np.linalg.norm(q))
        if nu > nu_best:
            nu_best = nu
            q_best = q
    return nu_best, q_best


def codiff_descent(
    prob: TwoStageProblem, c: float, z0: Point, opts: SolveOpts | None = None
) -> SolveReport:
    """Armijo descent along block min-norm directions of the penalized
    integrand's codifferential.  Stops when every scenario's stationarity
    measure (the largest translated min-norm) falls below tol_stat.

    When no step is found (the Armijo search and the coordinate pass both
    fail, or the direction vanishes), the status is converged if nu is
    within 10 * tol_stat and stalled otherwise; iteration_cap means
    cd_max_iter iterations ran out."""
    opts = opts or SolveOpts()
    prob.check_point(z0)
    spec = PenaltySpec("l1_max", float(c))
    integrand = penalty_integrand(prob, spec.c)
    z = Point(x=prob.A.project(z0.x), y=z0.y)
    val = Phi_c(prob, spec, z)
    phi = phi_l1(prob, z)
    history = [(val, phi, 0.0)]
    t0 = 1.0
    status = "iteration_cap"
    it = 0
    for it in range(1, opts.cd_max_iter + 1):
        try:
            bc = _integrand_codiff(prob, integrand, z)
        except VertexCapExceeded:
            status = "vertex_cap"
            break
        a_avg = 0.0
        hx = np.zeros(prob.d)
        hY = np.zeros((prob.S, prob.m))
        for s in range(prob.S):
            _nu_s, q = _steepest_block(bc.per_scenario[s])
            a_avg += float(prob.scenarios.probs[s]) * q[0]
            hx -= float(prob.scenarios.probs[s]) * q[1 : 1 + prob.d]
            hY[s] = -q[1 + prob.d :]
        hx = prob.A.tangent_project(z.x, hx)
        # Stationarity of the expectation: per-scenario x-gradients may cancel,
        # so measure the assembled element (averaged offset and x-part,
        # per-scenario y-parts) after removing directions blocked by A.
        hsq = float(hx @ hx + (hY * hY).sum())
        nu = float(np.sqrt(a_avg * a_avg + hsq))
        if nu <= opts.tol_stat:
            status = "converged"
            break
        # Near a kink the min-norm mass sits in the offset coordinate and the
        # gradient part of h shrinks quadratically; searching along the unit
        # ray keeps trial displacements useful.  Same ray, rescaled.
        hnorm = float(np.sqrt(hsq))
        if hnorm <= 1e-18:
            status = "converged" if nu <= 10.0 * opts.tol_stat else "stalled"
            break
        hx /= hnorm
        hY /= hnorm
        slope = nu * nu / hnorm
        t = t0
        accepted = False
        for _ in range(ARMIJO_HALVINGS):
            z_t = Point(x=prob.A.project(z.x + t * hx), y=z.y + t * hY)
            v_t = Phi_c(prob, spec, z_t)
            # strict: a trial below the value's ulp must not pass as progress
            if v_t < val - ARMIJO_SIGMA * t * slope:
                accepted = True
                break
            t *= 0.5
        if accepted:
            z, val = z_t, v_t
            phi = phi_l1(prob, z)
            history.append((val, phi, t))
            t0 = min(t * 2.0, 1e3)
        else:
            # The assembled direction can be blocked by an active face of A
            # while feasible descent still exists along the face.  Try an
            # improvement-only coordinate pass before giving up.
            xb, Yb, vb = _coordinate_polish(
                lambda x, Y: Phi_c(prob, spec, Point(x=x, y=Y)), prob.A, z.x, z.y, val
            )
            if vb < val - 1e-12 * (1.0 + abs(val)):
                z = Point(x=xb, y=Yb)
                val = vb
                phi = phi_l1(prob, z)
                history.append((val, phi, 0.0))
                t0 = 1.0
                continue
            history.append((val, phi, 0.0))
            status = "converged" if nu <= 10.0 * opts.tol_stat else "stalled"
            break
    return SolveReport(
        iterates=it,
        final_point=z,
        final_value=val,
        final_phi=phi,
        status=status,
        history=tuple(history),
        c_final=float(c),
    )
