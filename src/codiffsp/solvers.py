"""Solvers for the penalized problem min Phi_c over A x (R^m)^S.

Both solvers step through one descent engine, _descend: at each iterate an
Armijo step along -q, q the joint least-norm point of the objective's
eps-active block codifferential plus the normal cone of A
(BlockCodiff.least_norm), with eps shrinking from 0.1 to ACT_TOL.  One
rows pass per point (_value) gives its value and the next codifferential.

    dca_solve: difference-of-convex iteration.  The penalized integrand
        splits into convex plus/minus parts; each step linearizes the minus
        part at the current iterate, one mean masked subgradient per
        scenario as a row of the tilt, and minimizes E[plus] minus that
        tilt with the engine (convex_subsolve), which accepts only strict
        decreases, so the objective is non-increasing.

    codiff_descent: the engine on Phi_c itself, E[f + c g_plus].

Both run inside one penalty loop, _solve, which owns the start point, the
status and the report.  A penalty segment is converged when nu(ACT_TOL) of
Phi_c, inf_stationarity_measure, is at most tol_stat.  When a segment ends
stationary (converged or stalled) at a point that fails the feasibility
rule at tol_feas, max_{s,i} g_i(x, y_s, theta_s) > tol_feas
(model.feas_report, check_optimality's test), the exact-penalty result says
c is too small: c grows tenfold, at most 5 times, unless escalation is off.
Capped segments end the solve as they are.  Both solvers' history covers
the final penalty segment, with phi_l1 taken once per entry.

Fixed settings, not exposed in SolveOpts: the convex subproblem runs at
most INNER_ITERS iterations to INNER_TOL; the Armijo search has factor
ARMIJO_SIGMA, tries t = 2^-k for -ARMIJO_DOUBLINGS <= k < ARMIJO_HALVINGS
and has the rounding floor ARMIJO_ROUND (model's tolerance ladder).  It
starts where the model of the objective along -q says (_model_start).  On
rows from a compiled plan the model adds each vertex's Hessian and is
exact on the plan's quadratic pieces, so the search starts at the grid
step of least model value among those that pass, which may exceed 1; on
walked rows it is the first-order model, and the search starts at the
largest step t <= 1 that passes.  The model ignores the projection onto
A.  Most searches take their first trial.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .codiff import TOL_ZERO, _masked_rows, _Plan
from .errors import NonFinite, NotDC, ValidationError, VertexCapExceeded
from .expectation import ACT_TOL, BlockCodiff, _expected, _integrand_codiff, expect
from .expr import Expr, dc_parts, evaluate_batch, is_convex_struct
from .model import FEAS_TOL, Point, TwoStageProblem, check_c, check_int, is_feasible
from .optimality import _inf_stationarity
from .penalty import PenaltySpec, Phi_c, penalty_integrand, phi_l1

__all__ = [
    "DCDecomposition",
    "SolveOpts",
    "SolveReport",
    "dc_decompose",
    "convex_subsolve",
    "dca_solve",
    "codiff_descent",
]

INNER_ITERS = 300
INNER_TOL = 1e-6
ARMIJO_SIGMA = 1e-4
ARMIJO_HALVINGS = 50
ARMIJO_DOUBLINGS = 10
ARMIJO_ROUND = 1e-14
_TS = 0.5 ** np.arange(-ARMIJO_DOUBLINGS, ARMIJO_HALVINGS)  # the Armijo steps t = 2^-k
_ARMIJO_LINE = -ARMIJO_SIGMA * _TS  # the Armijo test's line at every t, per unit nu^2


@dataclass(frozen=True)
class DCDecomposition:
    """Convex split of the penalized integrand: plus - minus pointwise."""

    plus: Expr
    minus: Expr


@dataclass(frozen=True)
class SolveOpts:
    tol_feas: float = FEAS_TOL
    max_iter: int = 500
    escalate: bool = True
    tol_stat: float = 1e-6
    cd_max_iter: int = 1000

    def __post_init__(self):
        for name in ("max_iter", "cd_max_iter"):
            check_int(getattr(self, name), 1, "SOLVE_OPTS", name)
        for name in ("tol_feas", "tol_stat"):
            v = getattr(self, name)
            if not (isinstance(v, numbers.Real) and math.isfinite(v) and v >= 0.0):
                raise ValidationError("SOLVE_OPTS", f"{name} must be finite and >= 0, got {v!r}")


@dataclass(frozen=True)
class SolveReport:
    iterates: int
    final_point: Point
    final_value: float
    final_phi: float
    # converged | iteration_cap | stalled | vertex_cap | penalty_escalated(k).
    # Both solvers: converged iff nu(ACT_TOL) of Phi_c <= tol_stat.  stalled:
    # codiff_descent finds no Armijo step at eps = ACT_TOL; dca_solve takes an
    # outer step without strict decrease.  penalty_escalated(k): k tenfold
    # raises of c after stationary segments whose end points had
    # max_{s,i} g_i > tol_feas, and the final point's still does.
    status: str
    history: tuple[tuple[float, float, float], ...]  # (value, phi, step)
    c_final: float
    # False when the final segment's last nu came from a greedy selection
    # search (past ENUM_CAP): a lower bound, and so is a converged on it.
    exhaustive: bool


def dc_decompose(prob: TwoStageProblem, c: float) -> DCDecomposition:
    """Split the penalized integrand f + c * g_plus into convex plus/minus
    integrands: dc_parts of penalty_integrand, whose max rule carries the
    0-branch of g_plus like any other.  The identity plus - minus =
    f + c * g_plus is sampled before returning.  Built once per problem and
    c, on first success, as the penalized integrand is, so the parts' tapes
    and codifferential plans are too.
    """
    check_c(c)
    c = float(c)
    if c in prob._dc_splits:
        return prob._dc_splits[c]
    target = penalty_integrand(prob, c)
    plus, minus = dc_parts(target)
    if not (is_convex_struct(plus) and is_convex_struct(minus)):
        raise NotDC("decomposition parts are not structurally convex")

    # sampled identity check against the direct penalized integrand at 50
    # draws, a row each of x, y and theta in turn: the generator's stream
    # of drawing the three parts one sample at a time; evaluate_batch has
    # evaluate's bits at each row
    d, m = prob.d, prob.m
    W = np.random.default_rng(0).normal(size=(50, d + m + prob.scenarios.q))
    X, Y, TH = W[:, :d], W[:, d:d + m], W[:, d + m:]
    lhs = evaluate_batch(plus, X, Y, TH) - evaluate_batch(minus, X, Y, TH)
    rhs = evaluate_batch(target, X, Y, TH)
    bad = np.flatnonzero(np.abs(lhs - rhs) > 1e-9 * (1.0 + np.abs(rhs)))
    if bad.size:
        raise NotDC(f"decomposition identity failed: {float(lhs[bad[0]])!r} vs "
                    f"{float(rhs[bad[0]])!r}")
    prob._dc_splits[c] = DCDecomposition(plus=plus, minus=minus)
    return prob._dc_splits[c]


# ---------------------------------------------------------------------------
# descent engine
# ---------------------------------------------------------------------------


def _model(bc: BlockCodiff, q: np.ndarray) -> tuple[slice, np.ndarray]:
    """(grid, model): the model's change of the objective at z - t q for the
    steps t of _TS[grid], all of them on a plan's rows, t <= 1 on walked
    ones.  It is the expansion of bc with every vertex, offsets included
    (I_expansion's; a tilt is already in bc's slopes), plus on a plan's
    rows each vertex's 1/2 t^2 <q_s, H_v q_s> (_curvature), which makes it
    exact along the line (codiff module docstring) across every kink; a
    walk may prune vertices, so its rows get the first-order part alone.
    It ignores the projection onto A.  Each slope along q is taken once and
    scaled by every t exactly, t being a power of two."""
    H, G, S, plan = bc.H, bc.G, bc.S, bc.plan
    grid = slice(None) if plan is not None else slice(ARMIJO_DOUBLINGS, None)
    ts = _TS[grid]
    # row s: scenario s's (q_x, q_ys); the model's direction is its negative
    h = np.empty((S, H.shape[2] - 1, 1))
    h[:, :bc.d, 0], h[:, bc.d:, 0] = q[:bc.d], q[bc.d:].reshape(S, -1)
    k1 = H.shape[1]
    if plan is None:
        half = np.zeros((S, k1 + G.shape[1], 1))
    else:
        half = 0.5 * _curvature(plan, h[:, :, 0]).T[:, :, None]
    at = half * ts
    for A, rows in ((H, at[:, :k1]), (G, at[:, k1:])):
        # vertex (a, v) at every t, a + t (t half - <v, q_s>), in place; with
        # half 0 it has the bits of a - t <v, q_s> but for the sign of a zero
        rows -= np.matmul(A[:, :, 1:], h)
        rows *= ts
        rows += A[:, :, :1]
    # + 0.0 as I_expansion's: an all -0.0 sum reads +0.0
    return grid, np.cumsum(bc.probs[:, None] * (at[:, :k1].max(axis=1) + at[:, k1:].min(axis=1)),
                           axis=0)[-1] + 0.0


def _curvature(plan: _Plan, h: np.ndarray) -> np.ndarray:
    """(K, S): <h_s, H_v h_s> for every vertex v of the plan and row s of h
    (S, n), H_v = sum_j qt[v, j] Q_j, from each quad atom's <h_s, Q_j h_s>.
    Both sums are elementwise products summed over a middle axis, in order,
    never BLAS, so their bits do not depend on BLAS threading."""
    hh = (h[:, :, None] * h[:, None, :]).reshape(h.shape[0], -1).T
    return (plan.qt[:, :, None] * (plan.hq[:, :, None] * hh).sum(axis=1)).sum(axis=1)


def _model_start(bc: BlockCodiff, q: np.ndarray, nu: float) -> int:
    """The k at which the Armijo search along -q starts, t = 2^-k on _model's
    grid: for a plan's rows, whose model is exact, the step of least model
    value among those that pass the Armijo test on it, so a step may exceed
    1 (k >= -ARMIJO_DOUBLINGS); for walked rows, the largest step t <= 1
    that passes.  0 where none passes."""
    grid, model = _model(bc, q)
    passing = model <= _ARMIJO_LINE[grid] * nu * nu
    if not passing.any():
        return 0
    if bc.plan is None:
        return int(np.argmax(passing))
    return int(np.argmin(np.where(passing, model, np.inf))) - ARMIJO_DOUBLINGS


def _mean_slopes(bc: BlockCodiff) -> np.ndarray:
    """DCA's tilt from the minus part's bc: row s the mean of scenario s's
    zero-offset hypo slopes, summed in row order."""
    sub, _sup, n_sub, _n_sup = _masked_rows(bc.H, bc.G, TOL_ZERO)
    return np.add.reduceat(bc.H[sub, 1:], np.cumsum(n_sub) - n_sub) / n_sub[:, None]


def _value(prob: TwoStageProblem, integrand: Expr, z: Point, tilt: np.ndarray | None):
    """(value, bc) at z: expect's value, less the tilt, summed by _expected
    from one rows pass, and that pass's BlockCodiff; expect's value and None
    where the pass raises NonFinite or VertexCapExceeded."""
    try:
        bc = _integrand_codiff(prob, integrand, z, tilt)
    except (NonFinite, VertexCapExceeded):
        return expect(prob, integrand, z, tilt), None
    return _expected(prob, bc.values, z, tilt), bc


def _armijo(prob: TwoStageProblem, integrand: Expr, tilt: np.ndarray | None, z: Point,
            val: float, q: np.ndarray, nu: float, k0: int):
    """First (point, value, t, bc) of _value along z - t q, x projected onto
    A, t = 2^-k for k0 <= k < ARMIJO_HALVINGS (k0 >= -ARMIJO_DOUBLINGS, so
    t may exceed 1), that decreases the value by at least
    ARMIJO_SIGMA * t * nu^2; None when none does."""
    d = z.x.shape[0]
    hx, hY = -q[:d], -q[d:].reshape(z.y.shape)
    slope = ARMIJO_SIGMA * nu * nu
    noise = ARMIJO_ROUND * (1.0 + abs(val))  # rounding in val, not progress
    for k in range(k0, ARMIJO_HALVINGS):
        t = 0.5**k
        z_t = Point(x=prob.A.project(z.x + t * hx), y=z.y + t * hY)
        v_t, bc_t = _value(prob, integrand, z_t, tilt)
        if v_t < val - max(slope * t, noise):
            return z_t, v_t, t, bc_t
    return None


def _descend(prob: TwoStageProblem, integrand: Expr, z: Point, tol: float, max_iter: int,
             tilt: np.ndarray | None = None):
    """Armijo descent on the expectation of the integrand less the tilt,
    along -q from BlockCodiff.least_norm of its block codifferential at z.

    eps starts at ACT_TOL * 1e5 = 0.1 and shrinks tenfold, never growing
    back, when no Armijo step passes or nu(eps) <= tol * eps / ACT_TOL: the
    threshold shrinks with eps (Bagirov & Ugon's paired sequences), because
    a vertex up to eps from active can hold nu(eps) near 0 while nu at a
    finer eps is large.  A taken trial's rows pass (_value) is the next
    codifferential.  Returns (steps, status, iterations, exhaustive): steps
    lists (point, value, t), from (z, value, 0.0) at z, one entry per
    accepted step; status is converged (nu(ACT_TOL) <= tol), stalled (no
    step passes at eps = ACT_TOL), vertex_cap (a codifferential outgrew
    codiff.MAX_VERTICES) or iteration_cap; exhaustive is the flag of the
    last nu's selection search (True before any).
    """
    val, bc = _value(prob, integrand, z, tilt)
    steps = [(z, val, 0.0)]
    level, it, exhaustive = 5, 0, True
    for it in range(1, max_iter + 1):
        try:
            if bc is None:
                bc = _integrand_codiff(prob, integrand, z, tilt)
        except VertexCapExceeded:
            return steps, "vertex_cap", it, exhaustive
        while True:
            wide = 10.0**level
            nu, q, exhaustive = bc.least_norm(prob.A, z.x, ACT_TOL * wide)
            step = None
            if nu > tol * wide:
                step = _armijo(prob, integrand, tilt, z, val, q, nu, _model_start(bc, q, nu))
            if step is not None:
                break
            if level == 0:
                return steps, ("converged" if nu <= tol else "stalled"), it, exhaustive
            level -= 1
        z, val, t, bc = step
        steps.append((z, val, t))
    return steps, "iteration_cap", it, exhaustive


# ---------------------------------------------------------------------------
# convex subproblem
# ---------------------------------------------------------------------------


def convex_subsolve(prob: TwoStageProblem, integrand: Expr, tilt: np.ndarray, z0: Point) -> Point:
    """Minimize sum_s p_s (integrand(x, y_s, theta_s) - <tilt[s], (x, y_s)>)
    over A x (R^m)^S from z0 (x projected onto A) with the descent engine:
    at most INNER_ITERS iterations to nu(ACT_TOL) <= INNER_TOL.

    Row s of tilt (S, d+m) is a slope of scenario s, taken off its hypo
    slopes.  A vertex cap ends the descent at its last point, never above
    the objective at the projected start.
    """
    z = Point(x=prob.A.project(z0.x), y=z0.y)
    return _descend(prob, integrand, z, INNER_TOL, INNER_ITERS, tilt)[0][-1][0]


# ---------------------------------------------------------------------------
# the penalty loop both solvers share
# ---------------------------------------------------------------------------


def _solve(prob: TwoStageProblem, c: float, z0: Point, opts: SolveOpts | None, run) -> SolveReport:
    """Minimize Phi_c from z0, x projected onto A, one penalty segment at a
    time, escalating c as the module docstring says.  run(spec, z, opts)
    runs one segment from z and returns (steps, status, iterations,
    exhaustive) in the shape of _descend, each value Phi_c's.  Iterations
    sum over the segments; the history and the exhaustive flag are the
    final one's.  is_feasible tests an end point only where it can escalate
    c or mark the status escalated."""
    opts = opts or SolveOpts()
    check_c(c)
    prob.check_point(z0)
    z = Point(x=prob.A.project(z0.x), y=z0.y)
    c_now = float(c)
    escalations = 0
    total_iters = 0
    while True:
        steps, status, it, exhaustive = run(PenaltySpec("l1_max", c_now), z, opts)
        total_iters += it
        z, val, _t = steps[-1]
        can_raise = opts.escalate and status in ("converged", "stalled")
        infeasible = (can_raise or escalations > 0) and not is_feasible(prob, z, opts.tol_feas)[0]
        if not (infeasible and can_raise and escalations < 5):
            break
        escalations += 1
        c_now *= 10.0
    if infeasible and escalations > 0:
        status = f"penalty_escalated({escalations})"
    history = tuple((v, phi_l1(prob, z_k), t) for z_k, v, t in steps)
    return SolveReport(
        iterates=total_iters,
        final_point=z,
        final_value=val,
        final_phi=history[-1][1],
        status=status,
        history=history,
        c_final=c_now,
        exhaustive=exhaustive,
    )


def dca_solve(
    prob: TwoStageProblem, c: float, z0: Point, opts: SolveOpts | None = None
) -> SolveReport:
    """DCA on Phi_c with the l1_max penalty, escalating c as _solve does.

    Each outer iteration minimizes plus-expectation minus the linearization
    of the minus-expectation, warm-started at the current point, and takes
    the result only when it strictly decreases Phi_c.  After each outer
    step the segment is converged when nu(ACT_TOL) of Phi_c <= tol_stat
    (inf_stationarity_measure's nu), else stalled when the step did not move;
    iteration_cap after max_iter outer steps.  The history's step is the
    Euclidean length of the accepted move.
    """

    def run(spec: PenaltySpec, z: Point, opts: SolveOpts):
        dec = dc_decompose(prob, spec.c)
        val = Phi_c(prob, spec, z)
        steps = [(z, val, 0.0)]
        for k in range(1, opts.max_iter + 1):
            tilt = _mean_slopes(_integrand_codiff(prob, dec.minus, z))
            z_new = convex_subsolve(prob, dec.plus, tilt, z)
            v_new = Phi_c(prob, spec, z_new)
            moved = v_new < val
            if moved:
                step = np.hypot(np.linalg.norm(z_new.x - z.x), np.linalg.norm(z_new.y - z.y))
                steps.append((z_new, v_new, float(step)))
                z, val = z_new, v_new
            inf, exhaustive = _inf_stationarity(prob, spec.c, z)
            if -inf <= opts.tol_stat:
                return steps, "converged", k, exhaustive
            if not moved:
                return steps, "stalled", k, exhaustive
        return steps, "iteration_cap", opts.max_iter, exhaustive

    return _solve(prob, c, z0, opts, run)


def codiff_descent(
    prob: TwoStageProblem, c: float, z0: Point, opts: SolveOpts | None = None
) -> SolveReport:
    """The descent engine on Phi_c with the l1_max penalty, escalating c as
    _solve does: a segment is converged when nu(ACT_TOL) <= tol_stat, stalled
    when no Armijo step passes at eps = ACT_TOL, iteration_cap after
    cd_max_iter iterations.  The history's step is the multiple t of -q
    taken."""

    def run(spec: PenaltySpec, z: Point, opts: SolveOpts):
        return _descend(prob, penalty_integrand(prob, spec.c), z, opts.tol_stat, opts.cd_max_iter)

    return _solve(prob, c, z0, opts, run)
