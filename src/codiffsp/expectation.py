"""The expectation functional I(x, y) = sum_s p_s f(x, y_s, theta_s).

Its codifferential over the joint space factors scenario-blockwise, never
the exponential product polytope.  All reductions run in ascending scenario
order so results are bit-reproducible.  Every per-scenario integrand, f or a
solver's penalized or DC part, goes through the same two scenario sums:
expect for the value and _integrand_codiff for the codifferential, and both
take DCA's tilt, a linear form per scenario.  _integrand_codiff
differentiates all S scenarios in one rows pass (``codiff._vertex_blocks``),
row s being (x, y_s) with theta_s, by the integrand's plan, compiled once
per expression (``Expr._plan``): node values, the branch gaps and quad
gradients, then two fixed gather-sums.  For DCA's convex part of a
generated d = m = l = 2 instance the node values, by the integrand's
compiled value function, take about 18 of 80 us at S = 3 (a float pass per
scenario) and 160 of 290 us at S = 100 (one pass on columns); the gathers
and sums are the rest, and they grow with S.  A BlockCodiff keeps
the (S, k, 1+n) vertex arrays, less the tilt in the hypo slopes, or one
block per scenario where the integrand has no plan because it is large
enough to be pruned.  nu, the step model, DCA's tilt and the certificate
read one set of masks of them (BlockCodiff.masked); CodiffPairs are built
only for the one-point surface.  expect takes every scenario's value from
one pass as well (TwoStageProblem.scenario_values), with the rows pass's
choice between a float pass per scenario and one pass on columns
(expr.row_values).

The hypodifferential of I is the p-weighted Minkowski sum of the scenario
hypodifferentials, each embedded in the (x, y_s) block of (x, y_1..y_S).
joint_rows is that embedding, the one both stationarity measures use: p_s
on a scenario row's x-part and sqrt(p_s) on its y_s part, then A's normals
in x.  BlockCodiff.least_norm returns its point of least norm over the
eps-active vertices plus the normal cone of A: the steepest-descent
direction and the inf-stationarity measure nu(eps) of the solvers and of
the certifier; optimality.check_optimality measures the same sum with the
active constraints' rows as rays.  Both declare the layout to the min-norm
kernel: the d x-coordinates, where A's normals live, shared by every
scenario, and y_s private to scenario s, so that a sum of enough two-vertex
scenario blocks with rays in x alone takes the kernel's segment path (a
Newton method on the shared part) in place of one NNLS over all.
Every condition holds for all zero-offset superdifferential selections:
max_over_selections is the one search for the worst of them, for nu, the
certificate's residual and the nondegeneracy constant alike.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

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


class Masks:
    """BlockCodiff.masked: _masked_rows' one and P over every scenario, and
    the hypo slopes with offset >= -eps (sub) and the zero-offset hyper
    slopes (sup) of every scenario in turn, scenario s's from rows sub_at[s]
    and sup_at[s] on.  The stacked slopes are built on first read: a
    certificate whose every scenario is a point selection reads one and P
    alone.  masks holds (H, G, sub, sup) per block of BlockCodiff.blocks."""

    def __init__(self, masks: tuple, one: np.ndarray, P: np.ndarray):
        self.masks, self.one, self.P = masks, one, P

    @cached_property
    def _stacked(self) -> tuple:
        parts = [(H[sub, 1:], sub.sum(axis=1), G[sup, 1:], sup.sum(axis=1))
                 for H, G, sub, sup in self.masks]
        sub, n_sub, sup, n_sup = map(_concat, zip(*parts))
        at = np.zeros((2, n_sub.shape[0] + 1), dtype=np.intp)
        at[0, 1:], at[1, 1:] = n_sub.cumsum(), n_sup.cumsum()
        return sub, at[0], sup, at[1]

    sub = property(lambda self: self._stacked[0])
    sub_at = property(lambda self: self._stacked[1])
    sup = property(lambda self: self._stacked[2])
    sup_at = property(lambda self: self._stacked[3])

    def sets(self, s: int) -> tuple[np.ndarray, np.ndarray]:
        """Scenario s's quasidiff(., eps) sub and sup."""
        a, w = self.sub_at, self.sup_at
        return self.sub[a[s]:a[s + 1]], self.sup[w[s]:w[s + 1]]


def _concat(arrays) -> np.ndarray:
    """np.concatenate of a sequence of arrays, the array itself when it is
    the only one."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def joint_rows(probs: np.ndarray, d: int, normals: np.ndarray, V: np.ndarray, sv: np.ndarray,
               R: np.ndarray | None = None, sr: np.ndarray | None = None):
    """(V', R', scale): rows over (x, y_s) embedded in the joint coordinates
    (x, y_1..y_S) of nu and the certificate.  Row j of V, of scenario
    s = sv[j], becomes p_s times its x-part in x and sqrt(p_s) times its
    y-part in y_s's columns, zero elsewhere; so do the scenario rays R, of
    scenarios sr, and A's outward normals (r, d) follow them in x.  scale is
    the largest |entry| of V' and R', read off the parts they are built of."""
    S, m, k = probs.shape[0], V.shape[1] - d, V.shape[0]
    if R is not None:
        V, sv = np.vstack((V, R)), np.concatenate((sv, sr))
    p = probs[sv][:, None]
    X, Y = p * V[:, :d], np.sqrt(p) * V[:, d:]
    C = np.zeros((V.shape[0], d + S * m))
    C[:, :d] = X
    np.put_along_axis(C, d + sv[:, None] * m + np.arange(m), Y, axis=1)
    N = np.hstack((normals, np.zeros((normals.shape[0], S * m))))
    scale = max(float(np.abs(part).max(initial=0.0)) for part in (X, Y, normals))
    return C[:k], (N if R is None else np.vstack((C[k:], N))), scale


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
        masks, one, P = [], [], []
        for _rows, H, G, _v in self.blocks:
            sub, sup, one_b, P_b = _masked_rows(H, G, eps)
            masks.append((H, G, sub, sup))
            one.append(one_b)
            P.append(P_b)
        return Masks(tuple(masks), _concat(one), _concat(P))

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

        Each selection's point is one _least_norm call over the joint
        coordinates (x, y_1..y_S) of joint_rows, whose scale decides whether
        0 lies in D (_minnorm.inside), with the layout declared (shared=d): x
        shared by every scenario and by A's normals, y_s private to scenario
        s.  From _minnorm.SEGMENT_MIN_BLOCKS scenarios of two vertices on
        (and none of more) that is the kernel's segment path, which agrees
        with the NNLS solve to rounding, not bit for bit; below it, the NNLS
        solve's bits.
        """
        d, m, S = self.d, self.m, self.S
        mk = self.masked(eps)
        sizes = np.diff(mk.sub_at)
        rows = np.repeat(np.arange(S), sizes)
        multi = np.flatnonzero(np.diff(mk.sup_at) > 1)
        sups = [mk.sets(s)[1] for s in multi.tolist()]
        normals = A.normal_rays(x, eps)

        def nu_of(choice):
            at = mk.sup_at[:-1].copy()  # a scenario's first sup row, or its chosen one
            at[multi] += np.asarray(choice, dtype=np.intp)
            V, R, scale = joint_rows(self.probs, d, normals, mk.sub + mk.sup[at][rows], rows)
            q = _least_norm(V, R, sizes.tolist(), shared=d)[0]
            if inside(q, scale):
                q = np.zeros(V.shape[1])
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
    bits: one pass on (S,) columns from expr.ROWS_MIN_S scenarios on, and a
    float pass per scenario below.  The crossover exists because a pass on
    columns has a fixed cost, about that of 10 float passes, that does not
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
    blocks = _vertex_blocks(integrand, z.x, z.y, prob.scenarios.params)
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
