"""Point of least norm in a sum of hulls plus a cone of rays.

The nearest point to 0 in co(V) + cone(R) is a least-distance problem,
solved exactly by one nonnegative least-squares system (Lawson & Hanson,
Solving Least Squares Problems, 1974, ch. 23):

    w = argmin_{w >= 0} || [V^T R^T; 1^T 0^T] w - e_last ||.

Let sigma be the sum of w's hull part and rho the distance sought.  Every
w with hull sum sigma reaches sigma * (co(V) + cone(R)), so the solve
minimizes sigma^2 rho^2 + (sigma - 1)^2, whence sigma = 1 / (1 + rho^2) > 0.
Dividing w by sigma gives hull weights t on the simplex and ray weights
mu >= 0 with q = V^T t + R^T mu the nearest point.  The coordinate rows are
divided by the largest |entry|, which puts rho at most sqrt(n) and so
sigma at least 1 / (1 + n); the ones row is not, and t and mu do not
change under that scaling.  The active-set solve ends in finitely many
steps; its optimality conditions are the Wolfe certificate <q, v - q> >= 0
for every vertex v (and <q, r> >= 0 for every ray r), up to rounding.

Several hulls co(V_1) + ... + co(V_B) + cone(R).  A one-vertex block (in
nu's sums, a scenario off every kink) is a fixed translation, folded first
into their sum, the shift; a folded block reports t = 1.  The product path:
the sum is itself one hull, co(V_1) + co(V_2) = co{v_1 + v_2 : v_b in V_b},
so one exact solve as above over the product columns P, the shift plus one
vertex per block of several in block order, gives q and mu; block b's
weight on a vertex is the sum of the weights w of the columns that take it,
a marginal, so V^T t = P^T w.  With one block of several vertices or none
it is the fold's one solve, bit for bit.  It costs with the product of the
block sizes, so past PRODUCT_CAP columns the blocks take one ones row each,
weighted by SIMPLEX_WEIGHT (the weighting method, ch. 22) only to find the
support, and the point is solved exactly on that support, each block's
weights held at sum 1 by a pivot vertex (_on_support).  Per call (us) on
nu's calls with two or more such blocks at the witness and boundary points
of generate(1000..1005, d=2, m=2, S=4..12, l=2, dc=True), 2-step DCA
solves, best of 5 on a 2-vCPU x86 host, one BLAS thread:

    columns    1-4  5-16  17-32  33-48  49-64  65-128  129-256
    product     41    48     70     87    107     176      330
    weighted    85    92    101    105    103     109      118

49-64 ties within noise and keeps the exact path.  On a dca_step bench
pass (S = 3) 1187 of nu's 2099 calls and 14 of the certificate's 310 take
the product path and none the weighted one; in the S = 100 seed-set solves
1723 of nu's 1843 calls take the weighted path, 93 the product path and 6
the segment path.  min_norm_point (pruning, nondegeneracy) is one block.

The segment path.  nu and the certificate hand their blocks over in one
layout (_layout_least_norm): the first d coordinates are shared by every
block, and each block has a private run of m more, as the scenario blocks
(x, y_s) are.  They pass only each row's two parts, (x, y_s), with the
block that owns it, and each ray alike: the certificate's constraint rows
are owned by their scenario, and A's normals lie in x and have no owner.
The segment path reads the parts; the dense rows are built only for the
paths above, which solve on them.  When every block has at most two
vertices, at least SEGMENT_MIN_BLOCKS have two and no ray has a nonzero
private part, the problem separates but for the shared part: with
||u||^2 / 2 = max_lam <lam, u> - ||lam||^2 / 2 on that part, the weight
w_b of segment b, vertices a_b + w_b * delta_b,
is the clip to [0, 1] of -(<a_b, delta_b>_private + <lam, delta_b>_shared)
/ ||delta_b||^2 over its private part, affine in lam in R^d (one-vertex
blocks are not folded); a ray r asks <lam, r> >= 0.  This is the
scenario decomposition of progressive hedging (Rockafellar & Wets, Math.
Oper. Res. 16, 1991) on the least-norm problem.  A semismooth Newton method
on lam solves I + sum over free segments of dx dx^T / ||dy||^2 (d x d),
the active rays as equality constraints, each step an Armijo ascent of the
concave dual unless it follows a change of active rays; it starts with the
rays its first point violates active, ends when a whole step repeats the
active set of bounds and rays, and then adds or drops one ray and goes on
if their multipliers or signs ask.  The result's KKT conditions are then
checked: no segment weight and no ray weight can move to shorten q, to
SEGMENT_KKT_TOL on coordinates scaled to at most 1.  A segment with no
private part (dy = 0), no settling within SEGMENT_ITERS steps, a singular
system or a failed check falls back to the NNLS solve above, as do blocks
of three or more vertices and every call below the crossover, which keep
its bits.  Per call on nu's problems at boundary points of generate(s,
d=2, m=2, S, l=2, dc=True), NNLS was faster through 16 segments and the
segment path from 18; at 100 segments it takes 0.3 ms where NNLS took 8-15.

This kernel serves vertex pruning, the joint descent direction and
stationarity measure, the nondegeneracy constant and the certificate.  "0
lies in the set" is one rule (``inside``, ``_inside`` given the norm and
the scale): ||q|| within MEMBERSHIP_TOL of 0
relative to the columns' largest |entry| (at least 1), since the solve
rounds at about 1e-15 times that entry.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import nnls

from .errors import DimensionMismatch, NonFinite

# The kernel has no compiled backend; kept as a constant because the
# benchmark harness records which backend ran.
USING_NUMBA = False

MEMBERSHIP_TOL = 1e-9
# Weight of the per-block ones rows against coordinate rows scaled to at
# most 1; it only has to put the weighted support on the exact one.
SIMPLEX_WEIGHT = 1e3
# Columns up to which blocks of several vertices take the product path, by
# measurement (see above).
PRODUCT_CAP = 64
# Two-vertex blocks from which a call with its layout declared takes the
# segment path, by measurement (see above).
SEGMENT_MIN_BLOCKS = 16
# Newton steps, ray changes included, before the segment path falls back.
SEGMENT_ITERS = 50
# The segment path's slack at a weight's bound, a ray's sign and its KKT
# check, relative to coordinates scaled to at most 1.
SEGMENT_KKT_TOL = 1e-12


def inside(q: np.ndarray, W: np.ndarray) -> bool:
    """0 lies in the set whose least-norm point over the columns W is q."""
    return _inside(float(np.linalg.norm(q)), float(np.abs(W).max()))


def _inside(norm: float, scale: float) -> bool:
    """inside's rule on the norm of q and the columns' largest |entry|."""
    return norm <= MEMBERSHIP_TOL * max(1.0, scale)


def _least_norm(
    V: np.ndarray, R: np.ndarray, sizes: tuple[int, ...] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (q, t, mu): q = V^T t + R^T mu of least norm, t on the simplex
    of every block, mu >= 0.  V is (k, n) float64 with k >= 1, its rows split
    into consecutive blocks of the given sizes (default: one block); R is
    (r, n), r >= 0.  One-vertex blocks are folded into the others first;
    blocks of several vertices take the product path up to PRODUCT_CAP
    columns, the weighted solve past it."""
    k = V.shape[0]
    sizes = (k,) if sizes is None else tuple(sizes)
    multi = [b for b in sizes if b > 1]
    weighted = len(multi) > 1 and math.prod(multi) > PRODUCT_CAP
    # one block is solved as given: the fold's sum would turn its -0.0 into 0.0
    if len(sizes) == 1 or (weighted and 1 not in sizes):
        return _blocks_least_norm(V, R, sizes)
    # the fold: one-vertex blocks are a fixed translation, their sum P
    lone = np.repeat(np.array(sizes) == 1, sizes)
    W, P = (V, None) if len(multi) == len(sizes) else (V[~lone], V[lone].sum(axis=0, keepdims=True))
    t = np.ones(k)
    if weighted:
        W[:multi[0]] += P[0]
        q, t[~lone], mu = _blocks_least_norm(W, R, multi)
        return q, t, mu
    # the product path: one hull over P plus one vertex per block, in order
    at, n = 0, V.shape[1]
    for b in multi:
        P = W[at:at + b] if P is None else (P[:, None] + W[at:at + b]).reshape(-1, n)
        at += b
    q, w, mu = _blocks_least_norm(P, R)
    if len(multi) > 1:  # each block's weights are the marginals of w
        w, K = w.reshape(multi), len(multi)
        w = np.concatenate([w.sum(axis=tuple(a for a in range(K) if a != b)) for b in range(K)])
    if multi:
        t[~lone] = w
    return q, t, mu


def _segment_ready(sizes: tuple[int, ...]) -> bool:
    """The block sizes of the segment path: SEGMENT_MIN_BLOCKS or more of
    two vertices and none of three or more."""
    return sizes.count(2) >= SEGMENT_MIN_BLOCKS and max(sizes) == 2


def _layout_least_norm(P: np.ndarray, owner: np.ndarray, sizes: tuple[int, ...],
                       normals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_least_norm over blocks in the declared layout, given by their parts:
    the first d = normals.shape[1] coordinates are shared by every block and
    each block has its own private run of m more.  Row j of P (k + r, d + m)
    holds a shared part, then its private run in block owner[j]: the first
    k = sum(sizes) rows are the blocks' vertices, the other r are rays.
    normals (r0, d) are rays in the shared part alone, of no block; mu lists
    P's rays, then the normals.  Without a ray that has a private part, and
    with SEGMENT_MIN_BLOCKS or more blocks of two vertices and none of three
    or more, the segment path solves on the parts; else the dense rows
    (k + r, d + B m) are built, rows then rays, for the paths that solve on
    them.  q is in the dense coordinates."""
    sizes = tuple(sizes)
    d, k, n = normals.shape[1], sum(sizes), P.shape[0]
    if _segment_ready(sizes) and not P[k:, d:].any():
        out = _segments_least_norm(P[:k], np.concatenate((P[k:, :d], normals)), sizes)
        if out is not None:
            return out
    B, m = len(sizes), P.shape[1] - d
    C = np.zeros((n + normals.shape[0], d + B * m))
    C[:n, :d], C[n:, :d] = P[:, :d], normals
    C[:n, d:].reshape(n, B, m)[np.arange(n), owner] = P[:, d:]  # a view: row j's block
    return _least_norm(C[:k], C[k:], sizes)


def _segments_least_norm(
    W: np.ndarray, R: np.ndarray, sizes: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The segment path (see the module docstring) on the layout's parts W
    and the rays R (r, d) in the shared part, as _layout_least_norm hands
    them over, or None where it falls back: a segment with no private part,
    no settling within SEGMENT_ITERS steps, a singular system or a failed
    KKT check.  q is returned in the dense coordinates: the shared part,
    then each block's private run."""
    k, d = W.shape[0], R.shape[1]
    X, Y = W[:, :d], W[:, d:]
    sz = np.array(sizes)
    at = np.cumsum(sz) - sz  # every block's first row
    two = sz == 2
    ia, ib = at[two], at[two] + 1
    ax, ay, bx, by = X[ia], Y[ia], X[ib], Y[ib]
    lx = X[at[~two]]
    # coordinates divided by the largest |entry| the solve reads, rays aside
    sc = max(float(np.abs(np.hstack((ax, ay, bx, by))).max()),
             float(np.abs(lx).max(initial=0.0))) or 1.0
    dx, dy, ay = (bx - ax) / sc, (by - ay) / sc, ay / sc
    beta = np.vecdot(dy, dy)
    if not beta.all():
        return None
    alpha = np.vecdot(ay, dy)
    x0 = (lx.sum(axis=0) + ax.sum(axis=0)) / sc
    # rays as unit directions U_j: q's x-part gains nu_j U_j, nu_j = mu_j |R_j| / sc
    rn = np.sqrt(np.vecdot(R, R))
    U = R[rn > 0.0] / rn[rn > 0.0, None]

    def dual(lam):
        """The dual objective at lam, up to a constant, and the unclipped
        segment weights there."""
        raw = -(alpha + dx @ lam) / beta
        w = np.clip(raw, 0.0, 1.0)
        return lam @ (x0 - 0.5 * lam) + beta @ (w * (0.5 * w - raw)), raw

    lam, nu = x0, np.zeros(0)
    on = U @ lam < 0.0  # the rays' active set, from those the start violates
    val, raw = dual(lam)
    state, whole = None, bool(on.any())
    for _ in range(SEGMENT_ITERS):
        # a weight within rounding of a bound sits on it, so that its side
        # does not flip with the last bits of lam
        tol = SEGMENT_KKT_TOL * (1.0 + float(np.abs(lam).max()))
        lo, hi = raw * beta <= tol, (raw - 1.0) * beta >= -tol
        key = (lo.tobytes(), hi.tobytes(), on.tobytes())
        if key == state:
            # lam is the dual optimum on the active rays' null space
            off = np.where(on, np.inf, U @ lam)
            if nu.size and nu.min() < 0.0:
                on[np.flatnonzero(on)[int(np.argmin(nu))]] = False
            elif off.size and off.min() < -tol:
                on[int(np.argmin(off))] = True
            else:
                break
            state, whole = None, True
            continue
        free = ~(lo | hi)
        g = dx[free] / beta[free, None]
        j = int(on.sum())
        K = np.zeros((d + j, d + j))
        K[:d, :d] = np.eye(d) + g.T @ dx[free]
        K[:d, d:], K[d:, :d] = -U[on].T, U[on]
        rhs = np.zeros(d + j)
        rhs[:d] = x0 + dx[hi].sum(axis=0) - alpha[free] @ g
        try:
            sol = np.linalg.solve(K, rhs)
        except np.linalg.LinAlgError:
            return None
        step, nu = sol[:d] - lam, sol[d:]
        # a step after a change of the active rays leaves its start's null
        # space and is taken whole; any other must raise the dual (Armijo)
        frac, rise = 1.0, step @ (x0 + np.clip(raw, 0.0, 1.0) @ dx - lam)
        noise = SEGMENT_KKT_TOL * (1.0 + abs(val))
        while True:
            trial, traw = dual(lam + frac * step)
            if whole or trial >= val + 1e-4 * frac * rise - noise:
                break
            frac *= 0.5
            if frac < 2.0 ** -30:
                return None
        lam, val, raw = lam + frac * step, trial, traw
        state, whole = (key if frac == 1.0 else None), False
    else:
        return None
    w = np.where(lo, 0.0, np.where(hi, 1.0, raw))
    t = np.ones(k)
    t[ia], t[ib] = 1.0 - w, w
    mu = np.zeros(R.shape[0])
    mu[np.flatnonzero(rn > 0.0)[on]] = nu * sc / rn[rn > 0.0][on]
    qx, qy = t @ X + mu @ R, np.add.reduceat(t[:, None] * Y, at)  # qy: each block's own
    q = np.concatenate((qx, qy.ravel()))
    # KKT: no segment's weight and no ray's can move to shorten q
    qx, qy = qx / sc, qy[two] / sc
    slope = dx @ qx + np.vecdot(qy, dy)
    ray = U @ qx
    tol = SEGMENT_KKT_TOL * (1.0 + max(float(np.abs(qx).max()), float(np.abs(qy).max())))
    if not np.isfinite(q).all() or (((w > 0.0) & (slope > tol)) | ((w < 1.0) & (slope < -tol))).any() \
            or (ray < -tol).any() or (on & (ray > tol)).any():
        return None
    return q, t, mu


def _blocks_least_norm(
    V: np.ndarray, R: np.ndarray, sizes: tuple[int, ...] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_least_norm without the fold: every block keeps its ones row."""
    k = V.shape[0]
    sizes = (k,) if sizes is None else tuple(sizes)
    nb = len(sizes)
    if k == nb and R.shape[0] == 0:
        return (V[0].copy() if k == 1 else V.sum(axis=0)), np.ones(k), np.zeros(0)
    W = np.vstack((V, R))
    n = W.shape[1]
    owner = np.repeat(np.arange(nb), sizes)
    weight = 1.0 if nb == 1 else SIMPLEX_WEIGHT
    E = np.zeros((n + nb, W.shape[0]))
    E[:n] = W.T / (float(np.abs(W).max()) or 1.0)
    E[n + owner, np.arange(k)] = weight
    rhs = np.zeros(n + nb)
    rhs[n:] = weight
    if nb == 1:
        w, _ = nnls(E, rhs)
        w /= w[:k].sum()
    else:
        # repeated columns can make nnls return weights that do not match
        # its own residual; solve on the distinct columns only
        first = _first_columns(E)
        w = np.zeros(W.shape[0])
        w[first] = nnls(E[:, first], rhs)[0]
        w = _on_support(V, R, owner, w)
    t, mu = w[:k], w[k:]
    return t @ V + mu @ R, t, mu


def _first_columns(E: np.ndarray) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct column of
    E, the sorted index of np.unique(E, axis=1, return_index=True): columns
    match by value, so + 0.0 folds -0.0 into 0.0 before comparing bytes."""
    seen: dict = {}
    for j, col in enumerate(np.ascontiguousarray(E.T) + 0.0):
        seen.setdefault(col.tobytes(), j)
    return np.fromiter(seen.values(), dtype=np.intp, count=len(seen))


def _on_support(V: np.ndarray, R: np.ndarray, owner: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Exact weights on the support of the weighted solve w: each block's
    largest weight is its pivot, and one least-squares solve over the other
    vertices (less their pivot) and the rays gives the rest.  Negative
    columns leave the support and the solve repeats; a negative pivot falls
    back to w with each block rescaled to sum 1."""
    k = V.shape[0]
    nb = int(owner[-1]) + 1
    hull = np.flatnonzero(w[:k] > 0.0)
    piv = np.zeros(nb, dtype=int)
    for j in hull[np.argsort(w[hull], kind="stable")]:
        piv[owner[j]] = j  # ascending weight: the block's largest wins
    use = w > 0.0
    use[piv] = False
    while True:
        free = np.flatnonzero(use[:k])
        rays = np.flatnonzero(use[k:])
        D = np.vstack((V[free] - V[piv[owner[free]]], R[rays]))
        c = np.linalg.lstsq(D.T, -V[piv].sum(axis=0), rcond=None)[0]
        out = np.zeros_like(w)
        out[free] = c[: free.shape[0]]
        out[k + rays] = c[free.shape[0]:]
        out[piv] = 1.0 - np.bincount(owner[free], weights=out[free], minlength=nb)
        if out.min() >= 0.0:
            return out
        if out[piv].min() < 0.0:
            out = w.copy()
            out[:k] /= np.bincount(owner, weights=w[:k], minlength=nb)[owner]
            return out
        use &= out > 0.0


def min_norm_point(vertices) -> tuple[np.ndarray, np.ndarray]:
    """Return (q, t): q = argmin_{p in co(V)} ||p|| and its simplex coefficients.

    ``vertices`` is a (k, n) array-like of hull vertices, k, n >= 1, else
    DimensionMismatch; NonFinite refuses an entry that is not finite.  On
    return q = V^T t with t >= 0 and sum(t) = 1.
    """
    V = np.atleast_2d(np.asarray(vertices, dtype=np.float64))
    if V.ndim != 2 or 0 in V.shape:
        raise DimensionMismatch(f"min_norm_point needs a (k, n) array, k, n >= 1, not {V.shape}")
    if not np.isfinite(V).all():
        raise NonFinite("min_norm_point's vertices are not all finite")
    q, t, _mu = _least_norm(V, V[:0])
    return q, t
