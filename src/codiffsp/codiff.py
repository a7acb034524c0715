"""Finite-vertex codifferential calculus for expression DAGs.

A codifferential at a point is a pair of polytopes in R x R^n, stored as
vertex arrays whose first column is the offset coordinate:

    hypo: (k1, 1+n) with max offset exactly 0
    hyper: (k2, 1+n) with min offset exactly 0

The pair gives the uniform first-order expansion

    f(z + D) - f(z) ~= max_{(a,v) in hypo} (a + <v, D>)
                     + min_{(b,w) in hyper} (b + <w, D>)

with error o(|D|).  The calculus rules below produce offsets that satisfy
the zero-at-zero normalization exactly in floating point; the constructors
assert it rather than renormalize.

``codiff`` makes one forward pass over the expression's tape: branch values
come from ``expr.node_values``, the evaluator behind ``evaluate``, so the
vertex offsets f_i(z) - f(z) of a max/min/abs node are exact differences
of the values ``evaluate`` returns; smooth nodes, marked by their structural
flag, carry a gradient only.

Quasidifferentials are the zero-offset slices of a codifferential and
represent the directional derivative as max plus min of linear forms;
``quasidiff(cd, eps)`` widens the hypo slice to the eps-active vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._minnorm import inside, min_norm_point
from .errors import CodiffspError, DimensionMismatch, VertexCapExceeded
from .expr import Expr, node_values

TOL_ZERO = 1e-9
MAX_VERTICES = 4096
AUTO_PRUNE_AT = 256


@dataclass(frozen=True, eq=False)
class CodiffPair:
    """Vertex-set codifferential.  Arrays are frozen; never mutate them."""

    hypo: np.ndarray  # (k1, 1+dim)
    hyper: np.ndarray  # (k2, 1+dim)
    dim: int

    def __post_init__(self):
        for name, arr in (("hypo", self.hypo), ("hyper", self.hyper)):
            if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] != 1 + self.dim:
                raise DimensionMismatch(
                    f"{name} must be (k, {1 + self.dim}), got {arr.shape}"
                )
        a = float(self.hypo[:, 0].max())
        b = float(self.hyper[:, 0].min())
        if abs(a) > TOL_ZERO or abs(b) > TOL_ZERO:
            raise CodiffspError(
                "ZERO_AT_ZERO",
                f"offset normalization violated: max hypo offset {a}, min hyper offset {b}",
            )


@dataclass(frozen=True, eq=False)
class QuasidiffPair:
    """Zero-offset slices of a codifferential: sub (k1, dim), sup (k2, dim)."""

    sub: np.ndarray
    sup: np.ndarray
    dim: int


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.setflags(write=False)
    return arr


def _pair(hypo: np.ndarray, hyper: np.ndarray) -> CodiffPair:
    hypo = _manage(hypo)
    hyper = _manage(hyper)
    return CodiffPair(hypo=_freeze(hypo), hyper=_freeze(hyper), dim=hypo.shape[1] - 1)


def _minkowski(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    if A.shape[0] * B.shape[0] > MAX_VERTICES:
        # pruning first keeps desk-scale models exact without silent loss
        A = _manage(A)
        B = _manage(B)
        if A.shape[0] * B.shape[0] > MAX_VERTICES:
            raise VertexCapExceeded(A.shape[0] * B.shape[0], MAX_VERTICES)
    return (A[:, None, :] + B[None, :, :]).reshape(-1, A.shape[1])


def _manage(V: np.ndarray) -> np.ndarray:
    if V.shape[0] > MAX_VERTICES:
        raise VertexCapExceeded(V.shape[0], MAX_VERTICES)
    if V.shape[0] > AUTO_PRUNE_AT:
        V = np.unique(V, axis=0)
        if V.shape[0] > AUTO_PRUNE_AT:
            V = _prune_vertices(V)
        if V.shape[0] > MAX_VERTICES:  # pragma: no cover - prune only shrinks
            raise VertexCapExceeded(V.shape[0], MAX_VERTICES)
    return V


def _prune_vertices(V: np.ndarray) -> np.ndarray:
    """Drop every vertex that is a convex combination of the remaining ones."""
    V = np.unique(V, axis=0)
    k = V.shape[0]
    if k <= 2:
        return V
    keep = np.ones(k, dtype=bool)
    for j in range(k):
        keep[j] = False
        others = V[keep]
        if others.shape[0] == 0:
            keep[j] = True
            continue
        D = others - V[j]
        if not inside(min_norm_point(D)[0], D):
            keep[j] = True
    return V[keep]


def codiff(expr: Expr, x, y=(), theta=()) -> CodiffPair:
    """Codifferential of the DAG at (x, y) in the joint space of dimension
    len(x) + len(y).  theta enters as a fixed parameter."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    theta = np.asarray(theta, dtype=np.float64).ravel()
    if expr.dims is not None:
        d, m, q = expr.dims
        if (x.shape[0], y.shape[0], theta.shape[0]) != (d, m, q):
            raise DimensionMismatch(
                f"point blocks ({x.shape[0]}, {y.shape[0]}, {theta.shape[0]}) "
                f"do not match declared dims ({d}, {m}, {q})"
            )
    n = x.shape[0] + y.shape[0]
    z = np.concatenate((x, y))
    zero = np.zeros((1, 1 + n))
    tape = expr._tape
    vals = node_values(expr, x.tolist() + y.tolist() + theta.tolist())

    def smooth_pair(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        hypo = np.zeros((1, 1 + n))
        hypo[0, 1:] = g
        return hypo, zero

    def max_rule(
        parts: list[tuple[np.ndarray, np.ndarray]], values: list[float]
    ) -> tuple[np.ndarray, np.ndarray]:
        f = max(values)
        hyper = parts[0][1]
        for _hypo_k, hyper_k in parts[1:]:
            hyper = _minkowski(hyper, hyper_k)
        pieces = []
        for i, (hypo_i, _hyper_i) in enumerate(parts):
            S = hypo_i
            for k2, (_h, hyper_k) in enumerate(parts):
                if k2 != i:
                    S = _minkowski(S, -hyper_k)
            S = S.copy()
            S[:, 0] += values[i] - f
            pieces.append(S)
        return np.vstack(pieces), hyper

    # One forward pass over the tape.  A smooth node gets a gradient only: a
    # smooth subtree is one atom, hypo {(0, grad)}, hyper {(0, 0)}.  Keeping
    # negations of smooth pieces in atom form makes abs(x) yield the
    # two-vertex hypo rather than a swapped hyper.
    grads: list = [None] * len(tape)
    pairs: list = [None] * len(tape)

    def part(j: int) -> tuple[np.ndarray, np.ndarray]:
        return smooth_pair(grads[j]) if pairs[j] is None else pairs[j]

    for i, (e, kids) in enumerate(tape):
        k = e.kind
        if e.smooth:
            if k == "constant":
                g = np.zeros(n)
            elif k == "affine":
                g = np.concatenate((e.cx, e.cy))
            elif k == "quad":
                g = e.Q @ z + e.lin
            elif k == "add":
                g = np.zeros(n)
                for j in kids:
                    g = g + grads[j]
            else:  # scale; smooth subtrees contain no other kinds
                g = e.lam * grads[kids[0]]
            grads[i] = g
            continue
        if k == "add":
            hypo, hyper = part(kids[0])
            for j in kids[1:]:
                h2, g2 = part(j)
                hypo = _minkowski(hypo, h2)
                hyper = _minkowski(hyper, g2)
            out = _manage(hypo), _manage(hyper)
        elif k == "scale":
            hypo, hyper = part(kids[0])
            if e.lam >= 0.0:
                out = e.lam * hypo, e.lam * hyper
            else:
                out = e.lam * hyper, e.lam * hypo
        elif k == "max":
            hypo, hyper = max_rule([part(j) for j in kids], [vals[j] for j in kids])
            out = _manage(hypo), _manage(hyper)
        elif k == "min":
            # mirror of max: min f_i = -max(-f_i)
            neg_parts = [(-hyper_j, -hypo_j) for hypo_j, hyper_j in map(part, kids)]
            hypo_m, hyper_m = max_rule(neg_parts, [-vals[j] for j in kids])
            out = _manage(-hyper_m), _manage(-hypo_m)
        elif k == "abs":
            # rewrite as max(u, -u); a smooth u negates to the atom (-grad)
            (j,) = kids
            if tape[j][0].smooth:
                part_n = smooth_pair(-grads[j])
            else:
                hypo, hyper = pairs[j]
                part_n = (-hyper, -hypo)
            hm, gm = max_rule([part(j), part_n], [vals[j], -vals[j]])
            out = _manage(hm), _manage(gm)
        else:  # dc
            hypo_p, hyper_p = part(kids[0])
            hypo_q, hyper_q = part(kids[1])
            # convex children built by these rules carry hyper = {(0, 0)},
            # so this reduces to [hypo of plus, negated hypo of minus]
            hypo = _minkowski(hypo_p, -hyper_q)
            hyper = _minkowski(hyper_p, -hypo_q)
            # restore min-offset normalization; exact no-op when the minus
            # child's max hypo offset is exactly 0
            shift = hyper[:, 0].min()
            if shift != 0.0:
                hyper = hyper.copy()
                hyper[:, 0] -= shift
            out = _manage(hypo), _manage(hyper)
        pairs[i] = out

    hypo, hyper = part(len(tape) - 1)
    return _pair(hypo, hyper)


def expansion_value(cd: CodiffPair, delta) -> float:
    """max over hypo of (a + <v, delta>) plus min over hyper of (b + <w, delta>)."""
    delta = np.asarray(delta, dtype=np.float64).ravel()
    if delta.shape[0] != cd.dim:
        raise DimensionMismatch(f"delta has length {delta.shape[0]}, expected {cd.dim}")
    up = cd.hypo[:, 0] + cd.hypo[:, 1:] @ delta
    dn = cd.hyper[:, 0] + cd.hyper[:, 1:] @ delta
    return float(up.max() + dn.min())


def quasidiff(cd: CodiffPair, eps: float = TOL_ZERO) -> QuasidiffPair:
    """The hypo vertices with offset >= -eps and the zero-offset hyper
    vertices, without their offsets; nonempty by the zero-at-zero
    normalization.  At the default eps both are the zero-offset slices."""
    sub = cd.hypo[cd.hypo[:, 0] >= -eps, 1:]
    sup = cd.hyper[np.abs(cd.hyper[:, 0]) <= TOL_ZERO, 1:]
    if sub.shape[0] == 0 or sup.shape[0] == 0:
        raise CodiffspError(
            "ZERO_AT_ZERO", "no zero-offset vertices: codifferential is inconsistent"
        )
    return QuasidiffPair(sub=_freeze(sub), sup=_freeze(sup), dim=cd.dim)


def dirderiv(qd: QuasidiffPair, h) -> float:
    """Directional derivative: max over sub of <v,h> plus min over sup of <w,h>."""
    h = np.asarray(h, dtype=np.float64).ravel()
    if h.shape[0] != qd.dim:
        raise DimensionMismatch(f"h has length {h.shape[0]}, expected {qd.dim}")
    return float((qd.sub @ h).max() + (qd.sup @ h).min())


def prune(cd: CodiffPair) -> CodiffPair:
    """Remove non-extreme vertices from both sets.  expansion_value is
    unchanged for every direction."""
    return CodiffPair(
        hypo=_freeze(_prune_vertices(cd.hypo)),
        hyper=_freeze(_prune_vertices(cd.hyper)),
        dim=cd.dim,
    )
