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

Several hulls co(V_1) + ... + co(V_B) + cone(R) take one ones row per
block.  The blocks' sums then need not share one sigma, so the rows are
weighted by SIMPLEX_WEIGHT (the weighting method, ch. 22) only to find the
support; the point is then solved exactly on that support, each block's
weights held at sum 1 by writing one of its vertices as the pivot.

A block of one vertex is a fixed translation, so it is folded first: the
one-vertex blocks' sum is added to every vertex of the first block of
several, or, when every block has one vertex, is the one vertex left.  A
single block left takes the exact one-block path above, with no
SIMPLEX_WEIGHT and no support solve; a folded block reports t = 1.  In
the scenario sums of nu, the descent direction and the certificate's joint
solve, a scenario off every kink is such a block.

This kernel serves vertex pruning, the joint descent direction and
stationarity measure, the nondegeneracy constant and the certificate.  "0
lies in the set" is one rule (``inside``): ||q|| within MEMBERSHIP_TOL of 0
relative to the columns' largest |entry| (at least 1), since the solve
rounds at about 1e-15 times that entry.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import nnls

# The kernel has no compiled backend; kept as a constant because the
# benchmark harness records which backend ran.
USING_NUMBA = False

MEMBERSHIP_TOL = 1e-9
# Weight of the per-block ones rows against coordinate rows scaled to at
# most 1; it only has to put the weighted support on the exact one.
SIMPLEX_WEIGHT = 1e3


def inside(q: np.ndarray, W: np.ndarray) -> bool:
    """0 lies in the set whose least-norm point over the columns W is q."""
    return float(np.linalg.norm(q)) <= MEMBERSHIP_TOL * max(1.0, float(np.abs(W).max()))


def _least_norm(
    V: np.ndarray, R: np.ndarray, sizes: tuple[int, ...] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (q, t, mu): q = V^T t + R^T mu of least norm, t on the simplex
    of every block, mu >= 0.  V is (k, n) float64 with k >= 1, its rows split
    into consecutive blocks of the given sizes (default: one block); R is
    (r, n), r >= 0.  One-vertex blocks are folded into the others first."""
    k = V.shape[0]
    sizes = (k,) if sizes is None else tuple(sizes)
    if len(sizes) == 1 or 1 not in sizes:
        return _blocks_least_norm(V, R, sizes)
    # a one-vertex block is a fixed translation: add their sum to the first
    # block of several vertices, or keep it as the one vertex left
    lone = np.repeat(np.array(sizes) == 1, sizes)
    shift = V[lone].sum(axis=0)
    multi = [b for b in sizes if b > 1]
    if not multi:
        q, _t, mu = _blocks_least_norm(shift[None], R, (1,))
        return q, np.ones(k), mu
    W = V[~lone]
    W[:multi[0]] += shift
    q, tw, mu = _blocks_least_norm(W, R, multi)
    t = np.ones(k)
    t[~lone] = tw
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

    ``vertices`` is a (k, n) array-like of hull vertices.  On return
    q = V^T t with t >= 0 and sum(t) = 1.
    """
    V = np.atleast_2d(np.asarray(vertices, dtype=np.float64))
    if V.shape[0] == 0:
        raise ValueError("min_norm_point needs at least one vertex")
    q, t, _mu = _least_norm(V, V[:0])
    return q, t
