"""Solvers for the penalized problem min Phi_c over A x (R^m)^S.

Both solvers step through one descent engine, _descend: at each iterate an
Armijo step along -q, q the joint least-norm point of the objective's
eps-active block codifferential plus the normal cone of A
(BlockCodiff.least_norm), with eps shrinking from 0.1 to ACT_TOL.

    dca_solve: difference-of-convex iteration.  The penalized integrand
        splits into convex plus/minus parts; each step linearizes the minus
        part at the current iterate, one mean masked subgradient per
        scenario (BlockCodiff.masked) as a row of the tilt, and minimizes
        E[plus] minus that linear tilt with the engine on the problem's own
        expectation layer (expect, _integrand_codiff).  The engine accepts
        only strict decreases, so the objective is non-increasing.

    codiff_descent: the engine on Phi_c itself.

Both run inside one penalty loop, _solve, which owns the start point, the
status and the report.  A penalty segment is converged when nu(ACT_TOL) of
Phi_c, inf_stationarity_measure, is at most tol_stat.  When a segment ends
stationary (converged or stalled) with phi > tol_feas, the exact-penalty
result says c is too small: c grows tenfold, at most 5 times, unless
escalation is off.  Capped segments end the solve as they are.  Both
solvers' history covers the final penalty segment.

Fixed settings, not exposed in SolveOpts: the convex subproblem runs at
most INNER_ITERS iterations to tolerance INNER_TOL; the Armijo search has
sufficient-decrease factor ARMIJO_SIGMA, tries t = 2^-k for k up to
ARMIJO_HALVINGS - 1, and counts no decrease within ARMIJO_ROUND * (1 + |value|)
as progress.  It starts at the largest such t whose decrease the block
codifferential's first-order model, offsets included, says passes
(_model_start), and halves from there; polyhedral pieces make that model
exact, so most searches take their first trial.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .codiff import TOL_ZERO
from .errors import NotDC, ValidationError, VertexCapExceeded
from .expectation import ACT_TOL, BlockCodiff, I_expansion, _integrand_codiff, expect
from .expr import Expr, dc_parts, evaluate_batch, is_convex_struct
from .model import FirstStageSet, Point, TwoStageProblem, check_int
from .penalty import PenaltySpec, _Phi_c_and_phi, penalty_codiff, penalty_integrand

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
ARMIJO_ROUND = 1e-14


@dataclass(frozen=True)
class DCDecomposition:
    """Convex split of the penalized integrand: plus - minus pointwise."""

    plus: Expr
    minus: Expr


@dataclass(frozen=True)
class SolveOpts:
    tol_feas: float = 1e-6
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
    # raises of c after stationary infeasible segments, still infeasible.
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
    if c < 0.0:
        raise NotDC("penalty parameter must be nonnegative")
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


def _model_start(bc: BlockCodiff, q: np.ndarray, nu: float) -> int:
    """The smallest k < ARMIJO_HALVINGS whose step t = 2^-k passes the
    Armijo test on the first-order model of the objective along -q, else 0.

    The model is the expansion of bc with every vertex, offsets included
    (I_expansion; a tilt is already in bc's slopes): it holds across the
    kinks that a step crosses, where the eps-active slice that chose q does
    not.  It ignores the projection onto A."""
    ts = 0.5 ** np.arange(ARMIJO_HALVINGS)
    hx, hY = -q[:bc.d], -q[bc.d:].reshape(bc.S, bc.m)
    model = I_expansion(bc, ts[:, None] * hx, ts[:, None, None] * hY)
    passing = np.flatnonzero(model <= -ARMIJO_SIGMA * ts * nu * nu)
    return int(passing[0]) if passing.size else 0


def _armijo(value, A: FirstStageSet, z: Point, val: float, q: np.ndarray, nu: float, k0: int):
    """First (point, value, t, phi) along z - t q, t = 2^-k for k = k0,
    k0 + 1, ... up to ARMIJO_HALVINGS - 1, that decreases value by at least
    ARMIJO_SIGMA * t * nu^2, value(z) giving (value, phi); None when none
    does."""
    d = z.x.shape[0]
    hx = -q[:d]
    hY = -q[d:].reshape(z.y.shape)
    slope = ARMIJO_SIGMA * nu * nu
    noise = ARMIJO_ROUND * (1.0 + abs(val))  # rounding in val, not progress
    for k in range(k0, ARMIJO_HALVINGS):
        t = 0.5**k
        z_t = Point(x=A.project(z.x + t * hx), y=z.y + t * hY)
        v_t, phi_t = value(z_t)
        if v_t < val - max(slope * t, noise):
            return z_t, v_t, t, phi_t
    return None


def _descend(prob: TwoStageProblem, integrand: Expr, value, z: Point, tol: float,
             max_iter: int, tilt: np.ndarray | None = None):
    """Armijo descent on value(z) along -q from BlockCodiff.least_norm of the
    integrand's block codifferential at z, with the tilt in its slopes
    (_integrand_codiff).

    eps starts at ACT_TOL * 1e5 = 0.1 and shrinks tenfold, never growing
    back, when no Armijo step passes or nu(eps) <= tol * eps / ACT_TOL: the
    threshold shrinks with eps (Bagirov & Ugon's paired sequences), because
    a vertex up to eps from active can hold nu(eps) near 0 while nu at a
    finer eps is large.  Every Armijo search starts at the largest step
    t = 2^-k that the block codifferential's first-order model says passes
    (_model_start).  value(z) gives (value, phi), phi the penalty term or
    None.  Returns (steps, status, iterations, exhaustive): steps lists
    (point, value, t, phi), from (z, value, 0.0, phi) at z, one entry per
    accepted step; status is converged (nu(ACT_TOL) <= tol), stalled (no
    step passes at eps = ACT_TOL), vertex_cap (a codifferential outgrew
    codiff.MAX_VERTICES) or iteration_cap; exhaustive is the flag of the
    last nu's selection search (True before any).
    """
    val, phi = value(z)
    steps = [(z, val, 0.0, phi)]
    level = 5
    it = 0
    exhaustive = True
    for it in range(1, max_iter + 1):
        try:
            bc = _integrand_codiff(prob, integrand, z, tilt)
        except VertexCapExceeded:
            return steps, "vertex_cap", it, exhaustive
        while True:
            wide = 10.0**level
            nu, q, exhaustive = bc.least_norm(prob.A, z.x, ACT_TOL * wide)
            step = None
            if nu > tol * wide:
                step = _armijo(value, prob.A, z, val, q, nu, _model_start(bc, q, nu))
            if step is not None:
                break
            if level == 0:
                return steps, ("converged" if nu <= tol else "stalled"), it, exhaustive
            level -= 1
        steps.append(step)
        z, val = step[:2]
    return steps, "iteration_cap", it, exhaustive


# ---------------------------------------------------------------------------
# convex subproblem
# ---------------------------------------------------------------------------


def convex_subsolve(prob: TwoStageProblem, integrand: Expr, tilt: np.ndarray, z0: Point) -> Point:
    """Minimize sum_s p_s (integrand(x, y_s, theta_s) - <tilt[s], (x, y_s)>)
    over A x (R^m)^S from z0 (x projected onto A) with the descent engine:
    at most INNER_ITERS iterations to nu(ACT_TOL) <= INNER_TOL.

    Row s of tilt (S, d+m) is a slope of scenario s.  The problem's own
    expectation layer takes it, expect for the value and _integrand_codiff
    for the codifferential, so the model is tilted scenario by scenario.  A
    vertex cap ends the descent at its last point, so the result never
    exceeds the objective at the projected start.
    """
    z = Point(x=prob.A.project(z0.x), y=z0.y)
    steps = _descend(prob, integrand, lambda z: (expect(prob, integrand, z, tilt), None), z,
                     INNER_TOL, INNER_ITERS, tilt)[0]
    return steps[-1][0]


# ---------------------------------------------------------------------------
# the penalty loop both solvers share
# ---------------------------------------------------------------------------


def _solve(prob: TwoStageProblem, c: float, z0: Point, opts: SolveOpts | None, run) -> SolveReport:
    """Minimize Phi_c from z0, x projected onto A, one penalty segment at a
    time, escalating c as the module docstring says.  run(spec, z, opts)
    runs one segment from z and returns (steps, status, iterations,
    exhaustive) in the shape of _descend, each step's phi that of its
    Phi_c evaluation.  Iterations sum over the segments; the history and
    the exhaustive flag are the final one's."""
    opts = opts or SolveOpts()
    prob.check_point(z0)
    z = Point(x=prob.A.project(z0.x), y=z0.y)
    c_now = float(c)
    escalations = 0
    total_iters = 0
    while True:
        steps, status, it, exhaustive = run(PenaltySpec("l1_max", c_now), z, opts)
        total_iters += it
        z, val, _t, phi = steps[-1]
        if not (phi > opts.tol_feas and status in ("converged", "stalled")
                and opts.escalate and escalations < 5):
            break
        escalations += 1
        c_now *= 10.0
    if phi > opts.tol_feas and escalations > 0:
        status = f"penalty_escalated({escalations})"
    return SolveReport(
        iterates=total_iters,
        final_point=z,
        final_value=val,
        final_phi=phi,
        status=status,
        history=tuple((v, phi_k, t) for _z, v, t, phi_k in steps),
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
        val, phi = _Phi_c_and_phi(prob, spec, z)
        steps = [(z, val, 0.0, phi)]
        for k in range(1, opts.max_iter + 1):
            # row s: the mean zero-offset subgradient of minus in scenario s
            mk = _integrand_codiff(prob, dec.minus, z).masked(TOL_ZERO)
            tilt = np.add.reduceat(mk.sub, mk.sub_at[:-1]) / np.diff(mk.sub_at)[:, None]
            z_new = convex_subsolve(prob, dec.plus, tilt, z)
            v_new, phi_new = _Phi_c_and_phi(prob, spec, z_new)
            moved = v_new < val
            if moved:
                step = np.hypot(np.linalg.norm(z_new.x - z.x), np.linalg.norm(z_new.y - z.y))
                steps.append((z_new, v_new, float(step), phi_new))
                z, val = z_new, v_new
            nu, _q, exhaustive = penalty_codiff(prob, spec, z).least_norm(prob.A, z.x, ACT_TOL)
            if nu <= opts.tol_stat:
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
        return _descend(prob, penalty_integrand(prob, spec.c),
                        lambda z: _Phi_c_and_phi(prob, spec, z),
                        z, opts.tol_stat, opts.cd_max_iter)

    return _solve(prob, c, z0, opts, run)
