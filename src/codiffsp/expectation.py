"""The expectation functional I(x, y) = sum_s p_s f(x, y_s, theta_s).

Its codifferential over the joint space factors scenario-blockwise, never
the exponential product polytope.  All reductions run in ascending scenario
order so results are bit-reproducible.  Every per-scenario integrand, f or a
solver's penalized or DC part, goes through the same two scenario sums:
expect for the value and _integrand_codiff for the codifferential, and both
take DCA's tilt, a linear form per scenario.  _integrand_codiff
differentiates all S scenarios in one rows pass (``codiff._vertex_blocks``),
row s being (x, y_s) with theta_s, by the integrand's compiled plan: node
values, the branch gaps and quad gradients, then two fixed gather-sums.
For DCA's convex part of a generated d = m = l = 2 instance the node values
take about 15 of 55 us at S = 3 (a float pass per scenario) and 100 of 200
us at S = 100 (one pass on columns); the gathers and sums are the rest.
The pass's values carry evaluate's bits, so _expected sums them into
expect's value: the descent engine (solvers._value) values every point it
tries, Phi_c's included, by one pass.  A BlockCodiff keeps the pass's
triple, the (S, k, 1+n) vertex arrays H (less the tilt) and G and the
values (where the integrand is too large for a plan, the walk's rows
padded into that layout), and nu, the step model, DCA's tilt, the
certificate and I_dirderiv read them and their (S, k) masks
(codiff._masked_rows).

The hypodifferential of I is the p-weighted Minkowski sum of the scenario
hypodifferentials, each embedded in the (x, y_s) block of (x, y_1..y_S):
p_s on a scenario row's x-part and sqrt(p_s) on its y_s part, then A's
normals in x.  BlockCodiff.least_norm returns its point of least norm over
the eps-active vertices plus the normal cone of A: the steepest-descent
direction and the inf-stationarity measure nu(eps) of the solvers and of
the certifier.  optimality.check_optimality measures the same sum with the
active constraints' rows as rays, each owned by its scenario.  Both weigh
their rows by one step (_joint_scale) and hand the min-norm kernel the
weighted rows and rays as parts, x shared by every scenario and y_s
private to scenario s (_minnorm._layout_least_norm), so the dense
(k, d + S m) embedding is built only for the kernel paths that solve on
it.  Every condition holds for all zero-offset superdifferential
selections: max_over_selections is the one search for the worst of them,
for nu, the certificate's residual and the nondegeneracy constant alike.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._minnorm import _inside, _layout_least_norm
from .codiff import (TOL_ZERO, CodiffPair, _codiff_pairs, _masked_rows, _pass_plan, _Plan,
                     _row_dots, _vertex_blocks)
from .errors import DimensionMismatch, NonFinite
from .expr import Expr
from .model import FirstStageSet, Point, TwoStageProblem

# A vertex (or a constraint) within ACT_TOL of active counts as active; the
# descent engine stops at eps = ACT_TOL and the certifier uses the same.
ACT_TOL = 1e-6
# max_over_selections scores every selection up to this many, climbs beyond.
ENUM_CAP = 16
# The largest norm whose square is a finite float.
_SQRT_MAX = math.sqrt(np.finfo(np.float64).max)


def max_over_selections(sups: list[np.ndarray], score) -> tuple[float, object, bool, int]:
    """(value, payload, exhaustive, checked): the largest ``score(choice)``,
    a (value, payload) pair, over the choices of one row index per vertex
    set of ``sups``.  Up to ENUM_CAP choices all are scored and a tie goes to
    the first in product order; beyond, a greedy ascent starts from each
    set's smallest-norm row and, for at most 5 sweeps, takes each one-set
    change that gains more than 1e-15: a lower bound, never below its start.
    checked counts the calls of score."""
    if not sups:  # one choice, the empty one: every generated instance's case
        return *score(()), True, 1
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


def _joint_scale(S: int, W: np.ndarray, p: np.ndarray, root_p: np.ndarray,
                 normals: np.ndarray) -> float:
    """Weigh the rows W (k, d + m) over (x, y_s) in place as nu's joint
    coordinates (x, y_1..y_S) weigh them: row j, of scenario s, by p[j] =
    p_s on its x-part and root_p[j] = sqrt(p_s) on its y-part; A's outward
    normals (r, d) stay as they are.  Returns the largest |entry| of the
    weighted rows and the normals.  The least-norm point is no longer than
    a sum of one row per scenario, of norm at most sqrt(d S^2 + S m) *
    scale: NonFinite refuses rows on which that bound, and so nu's and the
    certificate's norms, overflow."""
    d = normals.shape[1]
    W[:, :d] *= p
    W[:, d:] *= root_p
    scale = float(np.abs(W).max())
    if normals.shape[0]:
        scale = max(scale, float(np.abs(normals).max()))
    if not scale * math.sqrt(d * S * S + S * (W.shape[1] - d)) < _SQRT_MAX:
        raise NonFinite(f"least-norm rows too large to measure: largest |entry| {scale:.3e}")
    return scale


@dataclass(frozen=True, eq=False)
class BlockCodiff:
    """Scenario-factored codifferential of the expectation integrand: the
    (hypo, hyper, values) triple of one codiff._vertex_blocks pass, a row
    per scenario, less any tilt, and the plan the pass ran (None where it
    walked), whose vertex Hessians the step model reads."""

    H: np.ndarray  # (S, k1, 1+n) hypo vertices, the tilt off their slopes
    G: np.ndarray  # (S, k2, 1+n) hyper vertices
    values: np.ndarray  # (S,) the integrand's values, with evaluate's bits
    probs: np.ndarray
    d: int
    m: int
    plan: _Plan | None = None

    @property
    def S(self) -> int:
        return self.probs.shape[0]

    @cached_property
    def per_scenario(self) -> tuple[CodiffPair, ...]:
        return tuple(_codiff_pairs(self.H, self.G))

    def least_norm(self, A: FirstStageSet, x: np.ndarray,
                   eps: float) -> tuple[float, np.ndarray, bool]:
        """(nu, q, exhaustive) for the set D = sum_s co(G_s + w_s) + N of
        slopes, maximized over the selections w_s of zero-offset hyper vertices.

        G_s holds the slopes of scenario s's hypo vertices with offset >= -eps,
        a tilt included; N is the cone of A's outward normals within eps of x.
        A slope g of scenario s acts on a direction h as p_s <g, (h_x, h_ys)>,
        and directions carry the L2(P) norm ||h||^2 = ||h_x||^2 + sum_s p_s
        ||h_ys||^2: nu is the dual-norm distance from 0 to D, and along -q the
        eps-active model falls at rate at least nu^2, over the selections of
        the scenarios with several zero-offset hyper vertices; exhaustive is
        False past ENUM_CAP, where nu is a lower bound.  When 0 lies in D
        (_minnorm._inside at _joint_scale), nu = 0 and q = 0.

        Everything is read off H, G and their codiff._masked_rows at eps:
        the eps-active rows H[sub, 1:] in scenario order, each plus its
        selected zero-offset hyper slope (with one per scenario the one
        choice is ()), weighted by _joint_scale.  Each selection's point is
        one _minnorm._layout_least_norm call on those rows, x shared by every
        scenario and A's normals, y_s private to scenario s: from
        _minnorm.SEGMENT_MIN_BLOCKS two-vertex scenarios on (and none larger)
        the segment path solves on them; else the dense rows are built, and
        the scenarios of several vertices take the product path while their
        counts multiply to at most _minnorm.PRODUCT_CAP, the weighted solve
        past it; all agree to rounding.
        """
        d, S, H, G = self.d, self.S, self.H, self.G
        sub, sup, n_sub, n_sup = _masked_rows(H, G, eps)
        sv, rows = sub.nonzero()[0], H[sub, 1:]
        p = self.probs[sv][:, None]
        root_p, normals, sizes = np.sqrt(p), A.normal_rays(x, eps), n_sub.tolist()
        if G.shape[1] == 1:  # _masked_rows has checked that each is zero-offset
            first, multi = G[:, 0, 1:], []
        else:  # each scenario's first zero-offset one, and those with several
            first = G[np.arange(S), sup.argmax(axis=1), 1:]
            multi = np.flatnonzero(n_sup > 1).tolist()
        sups = [G[s, sup[s], 1:] for s in multi]

        def nu_of(choice):
            g = first
            if choice:
                g = first.copy()
                g[multi] = [W[c] for W, c in zip(sups, choice)]
            W = rows + g[sv]
            scale = _joint_scale(S, W, p, root_p, normals)
            q = _layout_least_norm(W, sv, sizes, normals)[0]
            nu = math.sqrt(q @ q)  # np.linalg.norm's bits
            return (0.0, np.zeros(q.shape[0])) if _inside(nu, scale) else (nu, q)

        nu, q, exhaustive, _checked = max_over_selections(sups, nu_of)
        q[d:].reshape(S, -1)[...] /= np.sqrt(self.probs)[:, None]
        return nu, q, exhaustive


def expect(
    prob: TwoStageProblem, integrand: Expr, z: Point, tilt: np.ndarray | None = None
) -> float:
    """sum_s p_s integrand(x, y_s, theta_s), less sum_s p_s <tilt[s], (x, y_s)>
    when a tilt (S, d+m) is given; NonFinite names the first scenario whose
    term is not finite.  The values come from TwoStageProblem.scenario_values
    with evaluate's bits; cumsum adds the p_s v_s in ascending scenario
    order, and + 0.0 is the ascending loop's 0.0 start (an all -0.0 sum
    reads +0.0), so the sum has that loop's bits."""
    return _expected(prob, prob.scenario_values(integrand, z), z, tilt)


def _expected(prob: TwoStageProblem, v: np.ndarray, z: Point, tilt: np.ndarray | None) -> float:
    """expect's sum of the scenario values v (S,) at z."""
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
    H, G, v = _vertex_blocks(integrand, z.x, z.y, prob.scenarios.params)
    if tilt is not None:  # the pass's own array, offsets untouched
        H[:, :, 1:] -= tilt[:, None]
    return BlockCodiff(H=H, G=G, values=v, probs=prob.scenarios.probs, d=prob.d, m=prob.m,
                       plan=_pass_plan(integrand))


def I_expansion(bc: BlockCodiff, dx, dy):
    """First-order expansion of I: sum_s p_s expansion_value(pair_s, (dx, dy_s)),
    in ascending scenario order.  One direction, dx (d,) and dy (S, m), gives
    a float; a stack of K, dx (K, d) and dy (K, S, m), the (K,) values.  A
    stacked matmul and np.cumsum keep the bits of that loop."""
    dx, dy = np.asarray(dx, dtype=np.float64), np.asarray(dy, dtype=np.float64)
    stack = dx.ndim == 2
    if not stack:
        dx, dy = dx.ravel()[None], dy[None]
    if dx.shape[1] != bc.d or dy.shape != (dx.shape[0], bc.S, bc.m):
        raise DimensionMismatch(f"dx {dx.shape[1:]} and dy {dy.shape[1 - stack:]} do not match "
                                f"d = {bc.d}, S = {bc.S} rows of m = {bc.m}")
    h = np.concatenate((np.broadcast_to(dx, (bc.S, *dx.shape)), dy.transpose(1, 0, 2)), axis=2)
    h = h.transpose(0, 2, 1)  # each scenario's (n, K) directions, as expansion_value's
    up = np.matmul(bc.H[:, :, 1:], h) + bc.H[:, :, :1]
    dn = np.matmul(bc.G[:, :, 1:], h) + bc.G[:, :, :1]
    # + 0.0 as the scalar loop's 0.0 start: an all -0.0 sum reads +0.0
    total = np.cumsum(bc.probs[:, None] * (up.max(axis=1) + dn.min(axis=1)), axis=0)[-1] + 0.0
    return total if stack else float(total[0])


def I_dirderiv(prob: TwoStageProblem, z: Point, hx, hy) -> float:
    """Directional derivative of I at z: sum_s p_s dirderiv(quasidiff(pair_s),
    (hx, hy_s)) in ascending scenario order, from one masked max over the
    hypo and one masked min over the hyper slopes of every scenario at once,
    each product by codiff._row_dots, summed as I_expansion sums."""
    bc = block_codiff(prob, z)
    hx, hy = np.asarray(hx, dtype=np.float64).ravel(), np.asarray(hy, dtype=np.float64)
    if hx.shape[0] != bc.d or hy.shape != (bc.S, bc.m):
        raise DimensionMismatch(f"hx {hx.shape} and hy {hy.shape} do not match d = {bc.d}, "
                                f"S = {bc.S} rows of m = {bc.m}")
    H, G = bc.H, bc.G
    sub, sup, *_counts = _masked_rows(H, G, TOL_ZERO)
    h = np.concatenate((np.broadcast_to(hx, (bc.S, bc.d)), hy), axis=1)[:, None]
    up = np.where(sub, _row_dots(H[:, :, 1:], h), -np.inf).max(axis=1)
    dn = np.where(sup, _row_dots(G[:, :, 1:], h), np.inf).min(axis=1)
    return float(np.cumsum(bc.probs * (up + dn))[-1] + 0.0)
