"""The expectation functional I(x, y) = sum_s p_s f(x, y_s, theta_s).

Its codifferential over the joint space factors scenario-blockwise, never
the exponential product polytope.  All reductions run in ascending scenario
order so results are bit-reproducible.  Every per-scenario integrand, f or a
solver's penalized or DC part, goes through the same two scenario sums:
expect for the value and _integrand_codiff for the codifferential, and both
take DCA's tilt, a linear form per scenario.  _integrand_codiff
differentiates all S scenarios in one rows pass (``codiff._vertex_blocks``),
row s being (x, y_s) with theta_s; a BlockCodiff keeps its (S, k, 1+n)
vertex arrays, less the tilt in the hypo slopes, or one block per scenario
where the integrand is large enough to be pruned.  nu, the step model, DCA's
tilt and the certificate read one set of masks of them (BlockCodiff.masked);
CodiffPairs are built only for the one-point surface.  expect takes every
scenario's value from one pass as well (TwoStageProblem.scenario_values),
a rows pass from model.ROWS_MIN_S scenarios on and a float pass per
scenario below, where a rows pass's fixed cost exceeds the loop's.

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
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._minnorm import _least_norm, inside
from .codiff import CodiffPair, _codiff_pairs, _masked_rows, _vertex_blocks, dirderiv, quasidiff
from .errors import DimensionMismatch, NonFinite
from .expr import Expr
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


class Masks(NamedTuple):
    """BlockCodiff.masked: the hypo slopes with offset >= -eps (sub) and the
    zero-offset hyper slopes (sup) of every scenario in turn, scenario s's
    from rows sub_at[s] and sup_at[s] on, and _masked_rows' one and P."""

    sub: np.ndarray
    sub_at: np.ndarray
    sup: np.ndarray
    sup_at: np.ndarray
    one: np.ndarray
    P: np.ndarray

    def sets(self, s: int) -> tuple[np.ndarray, np.ndarray]:
        """Scenario s's quasidiff(., eps) sub and sup."""
        a, w = self.sub_at, self.sup_at
        return self.sub[a[s]:a[s + 1]], self.sup[w[s]:w[s + 1]]


@dataclass(frozen=True, eq=False)
class BlockCodiff:
    """Scenario-factored codifferential of the expectation integrand: the
    blocks of codiff._vertex_blocks, a row per scenario, less any tilt."""

    blocks: tuple
    probs: np.ndarray
    d: int
    m: int

    @property
    def S(self) -> int:
        return self.probs.shape[0]

    @cached_property
    def per_scenario(self) -> tuple[CodiffPair, ...]:
        return tuple(_codiff_pairs(self.blocks))

    def masked(self, eps: float) -> Masks:
        """codiff._masked_rows at eps over every block, in scenario order."""
        parts = []
        for _rows, H, G, _v in self.blocks:
            sub, sup, one, P = _masked_rows(H, G, eps)
            parts.append((H[sub, 1:], sub.sum(axis=1), G[sup, 1:], sup.sum(axis=1), one, P))
        sub, n_sub, sup, n_sup, one, P = map(np.concatenate, zip(*parts))
        at = np.zeros((2, self.S + 1), dtype=np.intp)
        at[0, 1:], at[1, 1:] = n_sub.cumsum(), n_sup.cumsum()
        return Masks(sub, at[0], sup, at[1], one, P)

    def least_norm(self, A: FirstStageSet, x: np.ndarray,
                   eps: float) -> tuple[float, np.ndarray, bool]:
        """(nu, q, exhaustive) for the set D = sum_s co(G_s + w_s) + N of
        slopes, maximized over the selections w_s of zero-offset hyper vertices.

        G_s holds the slopes of scenario s's hypo vertices with offset >= -eps,
        a tilt included (_integrand_codiff); N is the cone of A's outward
        normals within eps of x.  A slope g of scenario s acts on a direction
        h as p_s <g, (h_x, h_ys)>, and directions carry the L2(P) norm
        ||h||^2 = ||h_x||^2 + sum_s p_s ||h_ys||^2 of the second stage: nu is
        the dual-norm distance from 0 to D, along -q the eps-active model
        falls at rate at least nu^2, over the selections max_over_selections
        searches over the scenarios with several zero-offset hyper vertices
        (a one-vertex set changes none of its choices); exhaustive is False
        past ENUM_CAP, where nu is the greedy ascent's lower bound.  When 0
        lies in D, nu = 0 and q = 0.
        """
        d, m, S = self.d, self.m, self.S
        n = d + S * m
        mk = self.masked(eps)
        sizes = np.diff(mk.sub_at)
        rows = np.repeat(np.arange(S), sizes)
        multi = np.flatnonzero(np.diff(mk.sup_at) > 1)
        sups = [mk.sets(s)[1] for s in multi.tolist()]
        normals = A.normal_rays(x, eps)
        R = np.hstack((normals, np.zeros((normals.shape[0], S * m))))
        cols = d + rows[:, None] * m + np.arange(m)
        p = self.probs[rows][:, None]

        def nu_of(choice):
            at = mk.sup_at[:-1].copy()  # a scenario's first sup row, or its chosen one
            at[multi] += np.asarray(choice, dtype=np.intp)
            Gw = mk.sub + mk.sup[at][rows]
            V = np.zeros((Gw.shape[0], n))
            V[:, :d] = p * Gw[:, :d]
            np.put_along_axis(V, cols, np.sqrt(p) * Gw[:, d:], axis=1)
            q = _least_norm(V, R, sizes.tolist())[0]
            if inside(q, np.vstack((V, R))):
                q = np.zeros(n)
            return float(np.linalg.norm(q)), q

        nu, q, exhaustive, _checked = max_over_selections(sups, nu_of)
        q[d:] /= np.repeat(np.sqrt(self.probs), m)
        return nu, q, exhaustive


def expect(
    prob: TwoStageProblem, integrand: Expr, z: Point, tilt: np.ndarray | None = None
) -> float:
    """sum_s p_s integrand(x, y_s, theta_s), less sum_s p_s <tilt[s], (x, y_s)>
    when a tilt (S, d+m) is given; NonFinite names the first scenario whose
    term is not finite.

    The values come from TwoStageProblem.scenario_values, with evaluate's
    bits: one rows pass over every scenario from model.ROWS_MIN_S scenarios
    on, and a float pass per scenario below.  The crossover exists because a
    rows pass has a fixed cost, about that of 10 float passes, that does not
    grow with S.  cumsum adds the p_s v_s in ascending scenario order, and
    + 0.0 is the ascending loop's 0.0 start (an all -0.0 sum reads +0.0), so
    the sum has that loop's bits.
    """
    v = prob.scenario_values(integrand, z)
    total = float((prob.scenarios.probs * v).cumsum()[-1] + 0.0)
    # every p_s > 0, so a finite total has finite terms
    if not math.isfinite(total) and not (ok := np.isfinite(v)).all():
        raise NonFinite(f"integrand not finite in scenario {int(np.argmin(ok))}")
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
    X = np.repeat(z.x[None], prob.S, axis=0)
    blocks = _vertex_blocks(integrand, X, z.y, prob.scenarios.params)
    if tilt is not None:
        # an offset less +0.0 keeps its bits, -0.0 included
        shift = np.hstack((np.zeros((prob.S, 1)), tilt))
        blocks = [(rows, H - shift[rows, None], G, v) for rows, H, G, v in blocks]
    return BlockCodiff(blocks=tuple(blocks), probs=prob.scenarios.probs, d=prob.d, m=prob.m)


def I_expansion(bc: BlockCodiff, dx, dy):
    """First-order expansion of I: sum_s p_s expansion_value(pair_s, (dx, dy_s)),
    in ascending scenario order.  One direction, dx (d,) and dy (S, m), gives
    a float; a stack of K, dx (K, d) and dy (K, S, m), the (K,) values.  A
    stacked matmul per block and np.cumsum keep the bits of that loop."""
    dx, dy = np.asarray(dx, dtype=np.float64), np.asarray(dy, dtype=np.float64)
    stack = dx.ndim == 2
    if not stack:
        dx, dy = dx.ravel()[None], dy[None]
    if dx.shape[1] != bc.d or dy.shape != (dx.shape[0], bc.S, bc.m):
        raise DimensionMismatch(f"dx {dx.shape[1:]} and dy {dy.shape[1 - stack:]} do not match "
                                f"d = {bc.d}, S = {bc.S} rows of m = {bc.m}")
    terms = []
    for rows, H, G, _v in bc.blocks:
        Y = dy[:, rows].transpose(1, 0, 2)
        h = np.concatenate((np.broadcast_to(dx, (*Y.shape[:2], bc.d)), Y), axis=2)
        h = h.transpose(0, 2, 1)  # each block row's (n, K) directions, as expansion_value's
        up = np.matmul(H[:, :, 1:], h) + H[:, :, :1]
        dn = np.matmul(G[:, :, 1:], h) + G[:, :, :1]
        terms.append(up.max(axis=1) + dn.min(axis=1))
    # + 0.0 as the scalar loop's 0.0 start: an all -0.0 sum reads +0.0
    total = np.cumsum(bc.probs[:, None] * np.concatenate(terms), axis=0)[-1] + 0.0
    return total if stack else float(total[0])


def I_dirderiv(prob: TwoStageProblem, z: Point, hx, hy) -> float:
    """Directional derivative of I at z: the weighted sum of per-scenario
    directional derivatives along (hx, hy_s)."""
    bc = block_codiff(prob, z)
    hx, hy = np.asarray(hx, dtype=np.float64).ravel(), np.asarray(hy, dtype=np.float64)
    if hx.shape[0] != bc.d or hy.shape != (bc.S, bc.m):
        raise DimensionMismatch(f"hx {hx.shape} and hy {hy.shape} do not match d = {bc.d}, "
                                f"S = {bc.S} rows of m = {bc.m}")
    total = 0.0
    for s, cd in enumerate(bc.per_scenario):
        total += float(bc.probs[s]) * dirderiv(quasidiff(cd), np.concatenate((hx, hy[s])))
    return total
