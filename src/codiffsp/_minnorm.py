"""Point of least norm in a hull of vertices plus a cone of rays.

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

This kernel serves vertex pruning, the descent solver's per-scenario
direction, the nondegeneracy constant and the multiplier certificate.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import nnls

# The kernel has no compiled backend; kept as a constant because the
# benchmark harness records which backend ran.
USING_NUMBA = False


def _least_norm(V: np.ndarray, R: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (q, t, mu): q = V^T t + R^T mu of least norm, t on the simplex,
    mu >= 0.  V is (k, n) float64 with k >= 1; R is (r, n), r >= 0."""
    k = V.shape[0]
    if k == 1 and R.shape[0] == 0:
        return V[0].copy(), np.ones(1), np.zeros(0)
    W = np.vstack((V, R))
    n = W.shape[1]
    E = np.zeros((n + 1, W.shape[0]))
    E[:n] = W.T / (float(np.abs(W).max()) or 1.0)
    E[n, :k] = 1.0
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    w, _ = nnls(E, rhs)
    w /= w[:k].sum()
    t, mu = w[:k], w[k:]
    return t @ V + mu @ R, t, mu


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
