"""Minimum-norm point of the convex hull of a finite vertex set.

Away-step conditional gradient with exact line search on the simplex
objective t -> 0.5*||V^T t||^2, terminated by the Wolfe certificate
<q, v - q> >= -eps for every vertex v.

This is the package's hot kernel: it runs once per scenario per iteration
inside the descent solver, once per vertex inside pruning, and inside both
certification paths.  It is plain numpy.
"""

from __future__ import annotations

import numpy as np

# The kernel has no compiled backend; kept as a constant because the
# benchmark harness records which backend ran.
USING_NUMBA = False


def _mnp_core(V: np.ndarray, eps: float, max_iter: int):
    """Core iteration. V is (k, n) float64 with k >= 2.

    Returns (q, t, gap) with q = V^T t, t on the simplex, and gap the final
    Wolfe gap max_v <q, q - v>.
    """
    norms2 = np.sum(V * V, axis=1)
    t = np.zeros(V.shape[0])
    j0 = int(np.argmin(norms2))
    t[j0] = 1.0
    q = V[j0].copy()
    # gaps below the fp precision of ||q||^2 are noise, not progress
    tiny = 1e-15 * max(1.0, float(np.max(norms2)))
    gap = 0.0
    for it in range(max_iter):
        g = V @ q
        qq = float(q @ q)
        s = int(np.argmin(g))
        gap = qq - float(g[s])
        if gap <= eps or gap <= tiny:
            break
        ga = np.where(t > 0.0, g, -np.inf)
        a = int(np.argmax(ga))
        gap_away = float(ga[a]) - qq
        if gap >= gap_away:
            # toward step: q(gamma) = q + gamma (v_s - q)
            d = V[s] - q
            dd = float(d @ d)
            if dd <= tiny:
                break
            gamma = gap / dd
            if gamma >= 1.0:
                gamma = 1.0
            t *= 1.0 - gamma
            t[s] += gamma
            q = q + gamma * d
        else:
            # away step: q(gamma) = q + gamma (q - v_a), t <- (1+gamma)t - gamma e_a
            d = q - V[a]
            dd = float(d @ d)
            if dd <= tiny:
                break
            ta = float(t[a])
            gmax = ta / (1.0 - ta) if ta < 1.0 else 1e300
            gamma = gap_away / dd
            if gamma >= gmax:
                # drop step: vertex a leaves the support
                gamma = gmax
                t *= 1.0 + gamma
                t[a] = 0.0
            else:
                t *= 1.0 + gamma
                t[a] -= gamma
            q = q + gamma * d
        if (it + 1) % 256 == 0:
            # kill accumulated drift in the running point
            t /= np.sum(t)
            q = V.T @ np.ascontiguousarray(t)
    return q, t, gap


def _finish(V: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = np.maximum(t, 0.0)
    t /= t.sum()
    return V.T @ t, t


def min_norm_point(
    vertices, eps: float = 1e-10, max_iter: int = 20000
) -> tuple[np.ndarray, np.ndarray]:
    """Return (q, t): q = argmin_{p in co(V)} ||p|| and its simplex coefficients.

    ``vertices`` is a (k, n) array-like of hull vertices.  On return
    q = V^T t with t >= 0, sum(t) = 1, and <q, v - q> >= -eps for every row v
    (within the iteration budget).
    """
    V = np.ascontiguousarray(np.atleast_2d(np.asarray(vertices, dtype=np.float64)))
    if V.shape[0] == 0:
        raise ValueError("min_norm_point needs at least one vertex")
    if V.shape[0] == 1:
        return V[0].copy(), np.ones(1)
    q, t, _gap = _mnp_core(V, eps, max_iter)
    return _finish(V, t)
