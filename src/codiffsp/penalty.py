"""Penalty terms, the penalized objective, and the nondegeneracy check.

Two penalty terms are supported:

    dist_p: weighted p-norm of per-scenario distances from y_s to the
            second-stage feasible set, restricted to geometries with exact
            projections (boxes in the max norm, Euclidean balls);
    l1_max: expectation of g_plus = max_i {0, g_i}, which the problem
            builds once (TwoStageProblem.g_plus); phi_l1 is its expect and
            the penalized integrand is f + c * g_plus.

The nondegeneracy checker estimates the uniform constant a > 0 bounding
dist(0, co{sub-vertices of active g_i shifted by a superdifferential
selection}) from below at infeasible points; positivity of that constant is
the sufficient condition under which the l1_max penalty is exact.  It draws
its samples in bulk, so its report does not depend on NONDEG_BLOCK, and reads
the hull distances off one values pass and one rows pass per constraint and
block; only a hull of more than one point reaches the min-norm kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._minnorm import min_norm_point
from .codiff import TOL_ZERO, _masked_rows, _vertex_blocks
from .errors import Unprojectable, ValidationError
from .expectation import BlockCodiff, _integrand_codiff, eval_I, expect, max_over_selections
from .expr import Expr, evaluate_batch
from .model import Point, TwoStageProblem, check_int

# Rounds of check_nondegeneracy, each with a tenfold radius bound, after a
# first round that finds no infeasible point.
NONDEG_WIDENINGS = 3
# Samples whose rays check_nondegeneracy draws and evaluates together; its
# arrays hold at most NONDEG_BLOCK * S * (m + l) floats beside the round's
# samples * (1 + d).  The report does not depend on it.
NONDEG_BLOCK = 256


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty choice: kind in {dist_p, l1_max} and parameter c >= 0."""

    kind: str
    c: float

    def __post_init__(self):
        if self.kind not in ("dist_p", "l1_max"):
            raise ValidationError("PENALTY_KIND", f"unknown penalty kind {self.kind!r}")
        if not (self.c >= 0.0 and math.isfinite(self.c)):
            raise ValidationError("PENALTY_KIND", "penalty parameter c must be >= 0")


# ---------------------------------------------------------------------------
# distance penalty: structural geometry detection
# ---------------------------------------------------------------------------


def _quad_coeffs(e: Expr, dims):
    """Fold a smooth DAG into (Q, lin, ct, c0) over z = (x, y), one tape
    node at a time."""
    if not e.smooth:
        raise Unprojectable("constraint is not smooth")
    d, m, q = dims
    n = d + m
    folds = []
    for node, kids in e._tape:
        k = node.kind
        if k == "quad":
            fold = node.Q.copy(), node.lin.copy(), np.zeros(q), node.c0
        elif k == "constant":
            fold = np.zeros((n, n)), np.zeros(n), np.zeros(q), node.value
        elif k == "affine":
            fold = np.zeros((n, n)), np.concatenate((node.cx, node.cy)), node.ct.copy(), node.c0
        elif k == "add":
            Q, lin, ct, c0 = np.zeros((n, n)), np.zeros(n), np.zeros(q), 0.0
            for j in kids:
                Q2, l2, t2, a2 = folds[j]
                Q += Q2
                lin += l2
                ct += t2
                c0 += a2
            fold = Q, lin, ct, c0
        else:  # scale; smooth DAGs contain no other kinds
            Q, lin, ct, c0 = folds[kids[0]]
            fold = node.lam * Q, node.lam * lin, node.lam * ct, node.lam * c0
        folds.append(fold)
    return folds[-1]


def _detect_geometry(prob: TwoStageProblem):
    """Classify the second-stage feasible set as ("box", rows) or
    ("ball", data); raise UNPROJECTABLE otherwise.

    Box rows: one (j, scale, affine-part) bound per constraint, where
    g_i <= 0 reads y_j <= bound or y_j >= bound with an (x, theta)-affine
    bound.  Ball: a single quadratic alpha|y - z0|^2 <= R^2(x, theta).
    """
    dims = (prob.d, prob.m, prob.scenarios.q)
    try:
        rows = []
        for i, gi in enumerate(prob.g):
            if not gi.affine:
                raise Unprojectable(f"g[{i}] is not affine")
            _Q, lin, ct, c0 = _quad_coeffs(gi, dims)
            cx, cy = lin[: prob.d], lin[prob.d :]
            nz = np.flatnonzero(np.abs(cy) > 1e-12)
            if nz.shape[0] != 1:
                raise Unprojectable(
                    f"g[{i}] bounds {nz.shape[0]} recourse coordinates; need exactly 1"
                )
            j = int(nz[0])
            rows.append((j, float(cy[j]), c0, cx, ct))
        return "box", rows
    except Unprojectable:
        pass
    if len(prob.g) != 1:
        raise Unprojectable("distance penalty needs box constraints or a single ball")
    Q, lin, ct, c0 = _quad_coeffs(prob.g[0], dims)
    d, m = prob.d, prob.m
    scale_ref = max(1.0, float(np.abs(Q).max()))
    if np.abs(Q[:d, :]).max(initial=0.0) > 1e-12 * scale_ref:
        raise Unprojectable("ball detection: quadratic term must not involve x")
    Qy = Q[d:, d:]
    alpha2 = float(Qy[0, 0])
    if alpha2 <= 0.0 or np.abs(Qy - alpha2 * np.eye(m)).max() > 1e-12 * scale_ref:
        raise Unprojectable("ball detection: y-block must be a positive multiple of I")
    alpha = 0.5 * alpha2
    z0 = -lin[d:] / (2.0 * alpha)
    return "ball", (alpha, z0, lin[:d], ct, c0)


def _scenario_dist(kind, data, x, y_s, th_s) -> float:
    if kind == "box":
        worst = 0.0
        for j, coef, c0, cx, ct in data:
            aff = c0 + float(cx @ x) + float(ct @ th_s)
            bound = -aff / coef
            gap = y_s[j] - bound if coef > 0 else bound - y_s[j]
            if gap > worst:
                worst = gap
        return worst
    alpha, z0, lx, ct, c0 = data
    beta = c0 + float(lx @ x) + float(ct @ th_s)
    r2 = float(z0 @ z0) - beta / alpha
    if r2 < 0.0:
        raise Unprojectable("ball feasible set is empty at this point")
    return max(0.0, float(np.linalg.norm(y_s - z0)) - math.sqrt(r2))


def phi_dist(prob: TwoStageProblem, z: Point) -> float:
    """(sum_s p_s dist(y_s, G(x, theta_s))^p)^(1/p) for projectable geometry."""
    prob.check_point(z)
    if prob.ell == 0:
        return 0.0
    kind, data = _detect_geometry(prob)
    p = prob.p_exponent
    th = prob.scenarios.params
    total = 0.0
    for s in range(prob.S):
        dist = _scenario_dist(kind, data, z.x, z.y[s], th[s])
        total += float(prob.scenarios.probs[s]) * dist**p
    return total ** (1.0 / p)


def phi_l1(prob: TwoStageProblem, z: Point) -> float:
    """sum_s p_s max_i {0, g_i(x, y_s, theta_s)}: expect of the problem's
    g_plus; zero exactly on the second-stage feasible region (and everywhere
    when l = 0)."""
    return expect(prob, prob.g_plus, z)


def Phi_c(prob: TwoStageProblem, spec: PenaltySpec, z: Point) -> float:
    """Penalized objective eval_I + c * phi."""
    return _Phi_c_and_phi(prob, spec, z)[0]


def _Phi_c_and_phi(prob: TwoStageProblem, spec: PenaltySpec, z: Point) -> tuple[float, float]:
    """(Phi_c, phi) at z, for the solvers' reports."""
    phi = phi_dist(prob, z) if spec.kind == "dist_p" else phi_l1(prob, z)
    return eval_I(prob, z) + spec.c * phi, phi


def penalty_integrand(prob: TwoStageProblem, c: float) -> Expr:
    """Per-scenario integrand f + c * g_plus of the l1_max penalized
    objective, g_plus = max{0, g_1, ..., g_l}: the problem's own, built once
    per c (TwoStageProblem.penalty_integrand)."""
    return prob.penalty_integrand(c)


def penalty_codiff(prob: TwoStageProblem, spec: PenaltySpec, z: Point) -> BlockCodiff:
    """Block codifferential of the l1_max penalized integrand."""
    if spec.kind != "l1_max":
        raise ValidationError(
            "PENALTY_UNSUPPORTED", "codifferential penalty requires kind = l1_max"
        )
    return _integrand_codiff(prob, penalty_integrand(prob, spec.c), z)


# ---------------------------------------------------------------------------
# nondegeneracy of the constraint system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NondegReport:
    """Empirical lower bound on the constraint-qualification constant."""

    sampled_points: int
    min_hull_distance: float
    witness_x: np.ndarray | None
    witness_y: np.ndarray | None
    witness_scenario: int


def _hull_dist(subs: list[np.ndarray], sups: list[np.ndarray], choice: tuple[int, ...]):
    """(dist(0, co{sub_i + w_i}), None) at the selection w_i = sups[i][choice[i]]."""
    q, _t = min_norm_point(np.vstack([subs[i] + sups[i][w] for i, w in enumerate(choice)]))
    return float(np.linalg.norm(q)), None


def _hull_distances(g, active: np.ndarray, X: np.ndarray, Y: np.ndarray,
                    TH: np.ndarray) -> np.ndarray:
    """dist(0, co{y-parts of the zero-offset hypo vertices of the active g_i
    + w_i}) at the points (X[h], Y[h], TH[h]), g_i active where active[h, i],
    the largest over the selections w_i of zero-offset hyper vertices.

    One rows pass per constraint over the points where it is active; the
    masks are quasidiff's tests at its default eps.  A point with one active
    constraint and one masked vertex in each set is a one-point hull p, and
    sqrt(vecdot(p, p)) has the bits of _hull_dist there (min_norm_point
    returns a lone row as it is).  Every other point goes through
    max_over_selections and _hull_dist on the distinct masked rows.
    """
    d = X.shape[1]
    dist = np.empty(active.shape[0])
    single = active.sum(axis=1) == 1
    hulls: dict[int, list] = {}  # point -> (subs, sups) of each active g_i, in i order
    for gi, col in zip(g, active.T):
        rows = np.flatnonzero(col)
        for block, H, G, _v in _vertex_blocks(gi, X[rows], Y[rows], TH[rows]):
            at = rows[block]
            sub, sup, one, P = _masked_rows(H, G)
            point = single[at] & one
            j = np.flatnonzero(point)
            p = P[j, d:]
            dist[at[j]] = np.sqrt(np.vecdot(p, p))
            for j in np.flatnonzero(~point).tolist():
                hulls.setdefault(int(at[j]), []).append(
                    (_unique_rows(H[j, sub[j], 1 + d:]), _unique_rows(G[j, sup[j], 1 + d:]))
                )
    for h, sets in hulls.items():
        subs, sups = zip(*sets)
        dist[h] = max_over_selections(sups, lambda w: _hull_dist(subs, sups, w))[0]
    return dist


def _unique_rows(a: np.ndarray) -> np.ndarray:
    """The sorted distinct rows of a, as ``np.unique(a, axis=0)`` gives them
    (rows equal up to the sign of a zero count as one) at a fraction of its
    cost on the small vertex sets of one constraint."""
    a = a[np.lexsort(a.T[::-1])]
    keep = np.ones(a.shape[0], dtype=bool)
    keep[1:] = (a[1:] != a[:-1]).any(axis=1)
    return a[keep]


def check_nondegeneracy(
    prob: TwoStageProblem, samples: int = 200, seed: int = 0
) -> NondegReport:
    """Sample infeasible points around the witness and report the smallest
    hull distance dist(0, co{y-part sub-vertices of active g_i + w_i}),
    each the largest over the selections w_i (exactness is existential in
    the selection), as max_over_selections searches them.

    Each round draws ``samples`` points at log-spaced radii up to a bound,
    2 (1 + ||witness y||) at first; a round that finds no infeasible point
    is followed by another from the same generator with the bound ten times
    larger, at most NONDEG_WIDENINGS times.  A reported value bounded away
    from zero supports (never proves) the uniform nondegeneracy condition
    behind l1_max exactness.

    A round draws every radius, then every x step (projected onto A at
    once), then the S rays of each block of NONDEG_BLOCK samples; normals
    drawn in blocks continue one stream, so the report does not depend on
    NONDEG_BLOCK.  Row k * S + s of a block is sample k in scenario s.  Each
    constraint is evaluated once over the block's rows (``evaluate_batch``,
    bit-identical to ``evaluate``), and _hull_distances reads the distances
    at the infeasible rows.  The witness is the first infeasible row in
    sample order with the least distance, the row a sequential strict ``<``
    update keeps.  Ray norms are sqrt(vecdot(u, u)), the bits of
    ``np.linalg.norm(u)`` of each ray, which ``np.linalg.norm(U, axis=-1)``
    misses in the last bit on some rays.
    ``samples`` must be an integer >= 1 (NONDEG_SAMPLES) and ``seed`` an
    integer >= 0 (NONDEG_SEED).
    """
    if prob.ell == 0:
        raise ValidationError("NO_CONSTRAINTS", "nondegeneracy needs l >= 1")
    check_int(samples, 1, "NONDEG_SAMPLES", "samples")
    check_int(seed, 0, "NONDEG_SEED", "seed")
    rng = np.random.default_rng(seed)
    base = prob.witness
    if base is None:
        x0 = prob.A.project(np.zeros(prob.d))
        base = Point(x=x0, y=np.zeros((prob.S, prob.m)))
    th = prob.scenarios.params
    d, m, S = prob.d, prob.m, prob.S
    scale_r = 2.0 * (1.0 + float(np.linalg.norm(base.y)))

    found, best, wx, wy, ws = 0, math.inf, None, None, -1  # the report's fields
    for _round in range(1 + NONDEG_WIDENINGS):
        # log-spaced radii reach both far-out points and razor-thin
        # boundary crossings where several constraints tie as active
        radii = 10.0 ** rng.uniform(-10.0, math.log10(scale_r), size=samples)
        xs = prob.A.project(base.x + rng.normal(size=(samples, d)) * 0.1)
        for start in range(0, samples, NONDEG_BLOCK):
            r, X = radii[start:start + NONDEG_BLOCK], xs[start:start + NONDEG_BLOCK]
            n = r.shape[0]
            U = rng.normal(size=(n, S, m))
            nu = np.sqrt(np.vecdot(U, U))
            drawn = nu != 0.0  # a zero ray has no direction: not a sample
            Y = base.y + (r[:, None] / np.where(drawn, nu, 1.0))[:, :, None] * U
            # row k * S + s of the block is sample k in scenario s
            Xr, Yr, THr = np.repeat(X, S, axis=0), Y.reshape(n * S, m), np.tile(th, (n, 1))
            vals = np.stack([evaluate_batch(gi, Xr, Yr, THr) for gi in prob.g], axis=1)
            vmax = vals.max(axis=1)
            hits = np.flatnonzero(drawn.ravel() & (vmax > 0.0))
            if hits.shape[0] == 0:
                continue
            found += hits.shape[0]
            # g_i is active where its offset in max_i g_i's codifferential is zero
            active = vals[hits] >= vmax[hits, None] - TOL_ZERO
            dist = _hull_distances(prob.g, active, Xr[hits], Yr[hits], THr[hits])
            h = int(np.argmin(dist))  # the first least distance in sample order
            if dist[h] < best:
                best = float(dist[h])
                k, s = divmod(int(hits[h]), S)
                wx, wy, ws = X[k].copy(), Y[k, s].copy(), s
        if found:
            break
        scale_r *= 10.0
    return NondegReport(found, best, wx, wy, ws)
