"""The expectation functional I(x, y) = sum_s p_s f(x, y_s, theta_s).

Its codifferential over the joint space factors scenario-blockwise: one
CodiffPair per scenario, never the exponential product polytope.  All
reductions run in ascending scenario order so results are bit-reproducible.
Every per-scenario integrand, f or a solver's penalized or DC part, goes
through the same two scenario sums: expect for the value and
_integrand_codiff for the codifferential, and both take DCA's tilt, a
linear form per scenario.  _integrand_codiff differentiates
all S scenarios in one rows pass (``codiff._vertex_blocks``), row s being
(x, y_s) with theta_s, as (S, k, 1+n) vertex arrays, takes the tilt off
their hypo slopes and only then builds the pairs; each scenario's pair
has the bits of ``codiff`` at its point, less the tilt, and an integrand
large enough to be pruned falls back to one scenario at a time.  The value
path stays one ``evaluate`` per scenario: at S = 3, the common size, a rows
evaluation costs more than the scalar loop.

The hypodifferential of I is the p-weighted Minkowski sum of the scenario
hypodifferentials, each embedded in the (x, y_s) block of (x, y_1..y_S).
BlockCodiff.least_norm returns its point of least norm over the eps-active
vertices plus the normal cone of A: the steepest-descent direction and the
inf-stationarity measure nu(eps) of the solvers and of the certifier.
Every condition holds for all zero-offset superdifferential selections:
max_over_selections is the one search for the worst of them, for nu, the
certificate's residual and the nondegeneracy constant alike.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._minnorm import _least_norm, inside
from .codiff import CodiffPair, _codiff_pairs, _vertex_blocks, dirderiv, expansion_value, quasidiff
from .errors import DimensionMismatch, NonFinite
from .expr import Expr, evaluate
from .model import FirstStageSet, Point, TwoStageProblem

# A vertex (or a constraint) within ACT_TOL of active counts as active; the
# descent engine stops at eps = ACT_TOL and the certifier uses the same.
ACT_TOL = 1e-6
# max_over_selections scores every selection up to this many, climbs beyond.
ENUM_CAP = 16


def max_over_selections(sups: list[np.ndarray], score) -> tuple[float, object, bool, int]:
    """(value, payload, exhaustive, checked): the largest ``score(choice)``,
    a (value, payload) pair, over the choices of one row index per vertex
    set of ``sups``.  Up to ENUM_CAP choices all are scored and a tie goes to
    the first in product order; beyond, a greedy ascent starts from each
    set's smallest-norm row and, for at most 5 sweeps, takes each one-set
    change that gains more than 1e-15: a lower bound, never below its start.
    checked counts the calls of score."""
    counts = [W.shape[0] for W in sups]
    if (total := math.prod(counts)) <= ENUM_CAP:
        best = max(map(score, itertools.product(*map(range, counts))), key=lambda t: t[0])
        return *best, True, total
    choice = tuple(int(np.argmin((W * W).sum(axis=1))) for W in sups)
    best, checked = score(choice), 1
    for _sweep in range(5):
        start = choice
        for i, n in enumerate(counts):
            for w in range(n):
                if w != choice[i]:
                    trial_choice = choice[:i] + (w,) + choice[i + 1:]
                    trial, checked = score(trial_choice), checked + 1
                    if trial[0] > best[0] + 1e-15:
                        best, choice = trial, trial_choice
        if choice == start:
            break
    return *best, False, checked


@dataclass(frozen=True, eq=False)
class BlockCodiff:
    """Scenario-factored codifferential of the expectation integrand."""

    per_scenario: tuple[CodiffPair, ...]
    probs: np.ndarray
    d: int
    m: int

    def __post_init__(self):
        if len(self.per_scenario) != self.probs.shape[0]:
            raise DimensionMismatch("one codifferential pair per scenario required")
        for s, cd in enumerate(self.per_scenario):
            if cd.dim != self.d + self.m:
                raise DimensionMismatch(
                    f"scenario {s} pair has dim {cd.dim}, expected {self.d + self.m}"
                )

    @property
    def S(self) -> int:
        return len(self.per_scenario)

    def least_norm(
        self, A: FirstStageSet, x: np.ndarray, eps: float
    ) -> tuple[float, np.ndarray, bool]:
        """(nu, q, exhaustive) for the set D = sum_s co(G_s + w_s) + N of
        slopes, maximized over the selections w_s of zero-offset hyper vertices.

        G_s holds the slopes of scenario s's hypo vertices with offset >= -eps,
        a tilt included (_integrand_codiff); N is the cone of A's outward
        normals within eps of x.  A slope g of scenario s acts on a direction
        h as p_s <g, (h_x, h_ys)>, and directions carry the L2(P) norm
        ||h||^2 = ||h_x||^2 + sum_s p_s ||h_ys||^2 of the second stage: nu is
        the dual-norm distance from 0 to D, along -q the eps-active model
        falls at rate at least nu^2, over the selections max_over_selections
        searches; exhaustive is False past ENUM_CAP, where nu is the greedy
        ascent's lower bound.  When 0 lies in D, nu = 0 and q = 0.
        """
        d, m, S = self.d, self.m, self.S
        n = d + S * m
        qds = [quasidiff(cd, eps) for cd in self.per_scenario]
        sups = [qd.sup for qd in qds]
        normals = A.normal_rays(x, eps)
        R = np.hstack((normals, np.zeros((normals.shape[0], S * m))))
        sizes = [qd.sub.shape[0] for qd in qds]
        rows = np.repeat(np.arange(S), sizes)
        cols = d + rows[:, None] * m + np.arange(m)
        p = self.probs[rows][:, None]

        def nu_of(choice):
            G = np.vstack([qds[s].sub + sups[s][w] for s, w in enumerate(choice)])
            V = np.zeros((G.shape[0], n))
            V[:, :d] = p * G[:, :d]
            np.put_along_axis(V, cols, np.sqrt(p) * G[:, d:], axis=1)
            q = _least_norm(V, R, sizes)[0]
            if inside(q, np.vstack((V, R))):
                q = np.zeros(n)
            return float(np.linalg.norm(q)), q

        nu, q, exhaustive, _checked = max_over_selections(sups, nu_of)
        q[d:] /= np.repeat(np.sqrt(self.probs), m)
        return nu, q, exhaustive


def expect(
    prob: TwoStageProblem, integrand: Expr, z: Point, tilt: np.ndarray | None = None
) -> float:
    """sum_s p_s integrand(x, y_s, theta_s), summed in ascending scenario
    order, less sum_s p_s <tilt[s], (x, y_s)> when a tilt (S, d+m) is given;
    NonFinite when a scenario's term is not finite."""
    prob.check_point(z)
    th = prob.scenarios.params
    total = 0.0
    for s in range(prob.S):
        v = evaluate(integrand, z.x, z.y[s], th[s])
        if not math.isfinite(v):
            raise NonFinite(f"integrand not finite in scenario {s}")
        total += float(prob.scenarios.probs[s]) * v
    if tilt is not None:
        lin = tilt[:, :prob.d] @ z.x + (tilt[:, prob.d:] * z.y).sum(axis=1)
        total -= float(prob.scenarios.probs @ lin)
    return total


def eval_I(prob: TwoStageProblem, z: Point) -> float:
    """I(x, y): expect of the problem's objective f."""
    return expect(prob, prob.f, z)


def block_codiff(prob: TwoStageProblem, z: Point) -> BlockCodiff:
    """codiff of f at (x, y_s, theta_s) for every scenario s."""
    return _integrand_codiff(prob, prob.f, z)


def _integrand_codiff(prob: TwoStageProblem, integrand: Expr, z: Point,
                      tilt: np.ndarray | None = None) -> BlockCodiff:
    """codiff of a per-scenario integrand at (x, y_s, theta_s) for every s,
    in one rows pass with a row per scenario, less <tilt[s], (x, y_s)> as
    in expect: row s of tilt comes off every hypo slope of scenario s."""
    prob.check_point(z)
    X = np.broadcast_to(z.x, (prob.S, prob.d))
    blocks = _vertex_blocks(integrand, X, z.y, prob.scenarios.params)
    if tilt is not None:
        # an offset less +0.0 keeps its bits, -0.0 included
        shift = np.hstack((np.zeros((prob.S, 1)), tilt))
        blocks = [(rows, H - shift[rows, None], G, v) for rows, H, G, v in blocks]
    return BlockCodiff(
        per_scenario=tuple(_codiff_pairs(blocks)), probs=prob.scenarios.probs,
        d=prob.d, m=prob.m,
    )


def I_expansion(bc: BlockCodiff, dx, dy):
    """First-order expansion of I: sum_s p_s expansion_value(pair_s, (dx, dy_s)),
    in ascending scenario order.  One direction, dx (d,) and dy (S, m), gives
    a float; a stack of K, dx (K, d) and dy (K, S, m), the (K,) values."""
    dx = np.asarray(dx, dtype=np.float64)
    stack = dx.ndim == 2
    if not stack:
        dx = dx.ravel()[None]
    dy = np.asarray(dy, dtype=np.float64).reshape(dx.shape[0], bc.S, -1)
    if dx.shape[1] != bc.d or dy.shape[2] != bc.m:
        raise DimensionMismatch(
            f"direction blocks ({dx.shape[1]}, {dy.shape[2]}) do not match ({bc.d}, {bc.m})"
        )
    total = 0.0
    for s in range(bc.S):
        h_s = np.hstack((dx, dy[:, s]))
        total += float(bc.probs[s]) * expansion_value(bc.per_scenario[s], h_s if stack else h_s[0])
    return total


def I_dirderiv(prob: TwoStageProblem, z: Point, hx, hy) -> float:
    """Directional derivative of I at z: the weighted sum of per-scenario
    directional derivatives along (hx, hy_s)."""
    bc = block_codiff(prob, z)
    hx = np.asarray(hx, dtype=np.float64).ravel()
    hy = np.asarray(hy, dtype=np.float64).reshape(bc.S, -1)
    if hx.shape[0] != bc.d or hy.shape[1] != bc.m:
        raise DimensionMismatch(
            f"direction blocks ({hx.shape[0]}, {hy.shape[1]}) do not match ({bc.d}, {bc.m})"
        )
    total = 0.0
    for s in range(bc.S):
        qd = quasidiff(bc.per_scenario[s])
        total += float(bc.probs[s]) * dirderiv(qd, np.concatenate((hx, hy[s])))
    return total
