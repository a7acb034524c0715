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

``codiff_rows`` differentiates an expression at N points in one forward
pass over its tape.  Row r of (X, Y, Theta) is one point with its own
theta, and every vertex set is an (N, k, 1+n) array: the max/min/abs/dc
rules keep every branch whatever its value, so until a prune runs the
vertex counts depend only on the DAG and the rows share them.  A Minkowski
sum is (A[:, :, None] + B[:, None]).reshape(N, -1, 1+n), in the vertex
order of a one-point sum.  ``_vertex_blocks`` hands out these arrays before
any CodiffPair is built, for callers that read slices of them or shift
them first.  Branch values come from ``expr.node_values``,
the evaluator behind ``evaluate``, so the vertex offsets f_i(z) - f(z) of a
max/min/abs node are exact differences of the values ``evaluate`` returns.
Smooth nodes, marked by their structural flag, carry a gradient only; a
quad's is the stacked product (Q @ Z[:, :, None])[..., 0] + lin, which has
the bits of the one-point Q @ z + lin, where Z @ Q.T and einsum sum in
another order.

Pruning makes the counts differ from row to row.  Where a Minkowski
product or a node set exceeds min(AUTO_PRUNE_AT, MAX_VERTICES), above which
a one-point pass may prune or raise, the expression is differentiated one
row at a time instead, and each row prunes and raises VertexCapExceeded as
a one-point pass does.  ``codiff`` is the one-row call, so every row of a
rows pass has the bits of ``codiff`` at that point.

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


class _Ragged(Exception):
    """A rows pass reached a set that a one-point pass could prune, so the
    rows may no longer share one vertex count."""


def _minkowski(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise Minkowski sums of (N, ka, c) and (N, kb, c) vertex sets, in
    the vertex order of a one-point sum (A's index outer)."""
    N, ka, c = A.shape
    kb = B.shape[1]
    if N != 1 and ka * kb > min(AUTO_PRUNE_AT, MAX_VERTICES):
        raise _Ragged
    if ka * kb > MAX_VERTICES:
        # pruning first keeps desk-scale models exact without silent loss
        A = _manage(A)
        B = _manage(B)
        if A.shape[1] * B.shape[1] > MAX_VERTICES:
            raise VertexCapExceeded(A.shape[1] * B.shape[1], MAX_VERTICES)
    return (A[:, :, None] + B[:, None]).reshape(N, -1, c)


def _manage(V: np.ndarray) -> np.ndarray:
    """V (N, k, c) as it is up to min(AUTO_PRUNE_AT, MAX_VERTICES) vertices;
    above, a single row is refused beyond MAX_VERTICES and pruned beyond
    AUTO_PRUNE_AT."""
    N, k, _c = V.shape
    if k <= min(AUTO_PRUNE_AT, MAX_VERTICES):
        return V
    if N != 1:
        raise _Ragged
    if k > MAX_VERTICES:
        raise VertexCapExceeded(k, MAX_VERTICES)
    W = np.unique(V[0], axis=0)
    if W.shape[0] > AUTO_PRUNE_AT:
        W = _prune_vertices(W)
    if W.shape[0] > MAX_VERTICES:  # pragma: no cover - prune only shrinks
        raise VertexCapExceeded(W.shape[0], MAX_VERTICES)
    return W[None]


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


def _rows_pass(
    expr: Expr, X: np.ndarray, Y: np.ndarray, TH: np.ndarray
) -> tuple[np.ndarray, np.ndarray, object]:
    """(hypo, hyper, value): vertex sets of shapes (N, k1, 1+n) and
    (N, k2, 1+n) at the N rows and the root's node_values entry, a float
    when N == 1; raises _Ragged when N != 1 and a set outgrows the unpruned
    range.  X is (N, d), or one (d,) row that every row shares."""
    N = Y.shape[0]
    n = X.shape[-1] + Y.shape[1]
    Z = np.hstack((np.broadcast_to(X, (N, X.shape[-1])), Y))
    zero = np.zeros((N, 1, 1 + n))
    tape = expr._tape
    # one row takes the float path of node_values, which has the same bits
    # at a small fraction of the cost of (1,) columns; a shared x enters the
    # rows as floats, with the bits of columns
    if N == 1:
        vals = node_values(expr, Z[0].tolist() + TH[0].tolist())
    else:
        xs = X.tolist() if X.ndim == 1 else list(X.T)
        vals = node_values(expr, xs + list(Y.T) + list(TH.T), N)

    def smooth_pair(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        hypo = np.zeros((N, 1, 1 + n))
        hypo[:, 0, 1:] = g
        return hypo, zero

    def max_rule(
        parts: list[tuple[np.ndarray, np.ndarray]], values: list
    ) -> tuple[np.ndarray, np.ndarray]:
        # the builtin max's tie rule (the first maximal value wins), which
        # keeps the sign of a 0.0 / -0.0 tie where np.maximum may not
        f = values[0]
        for v in values[1:]:
            f = np.where(v > f, v, f)
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
            off = S[:, :, 0].T  # (k, N) view; a float value broadcasts too
            off += values[i] - f
            pieces.append(S)
        return np.concatenate(pieces, axis=1), hyper

    # One forward pass over the tape.  A smooth node gets a gradient only: a
    # smooth subtree is one atom, hypo {(0, grad)}, hyper {(0, 0)}.  Keeping
    # negations of smooth pieces in atom form makes abs(x) yield the
    # two-vertex hypo rather than a swapped hyper.  A gradient is (n,) when
    # it is the same in every row, else (N, n).
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
                g = (e.Q @ Z[:, :, None])[..., 0] + e.lin
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
            # restore min-offset normalization; a row whose minus child has
            # max hypo offset exactly 0 subtracts +0.0, which changes no bit
            shift = hyper[:, :, 0].min(axis=1)
            if (shift != 0.0).any():
                hyper = hyper.copy()
                hyper[:, :, 0] -= np.where(shift != 0.0, shift, 0.0)[:, None]
            out = _manage(hypo), _manage(hyper)
        pairs[i] = out

    hypo, hyper = part(len(tape) - 1)
    return _manage(hypo), _manage(hyper), vals[-1]


def codiff_rows(expr: Expr, X, Y, TH) -> list[CodiffPair]:
    """Codifferentials of the DAG at the N points (X[r], Y[r]) in the joint
    space of dimension d + m, row r with the fixed parameter TH[r]; X, Y and
    TH are (N, d), (N, m) and (N, q).  Row r has the bits of
    codiff(expr, X[r], Y[r], TH[r])."""
    return _codiff_pairs(_vertex_blocks(expr, X, Y, TH))


def _vertex_blocks(expr: Expr, X, Y, TH) -> list[tuple[slice, np.ndarray, np.ndarray, object]]:
    """The rows pass's vertex arrays at the N rows of (X, Y, TH), shaped as
    in codiff_rows: [(rows, hypo, hyper, values)], one block over all N rows
    or, where a set outgrows the unpruned range, one block per row, each
    pruned as a one-point pass prunes it.  rows is the slice of the rows a
    block covers; hypo and hyper are its (len, k1, 1+n) and (len, k2, 1+n)
    vertex arrays and values the DAG's values at its rows (node_values).
    X may also be one (d,) row that every row shares."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    TH = np.asarray(TH, dtype=np.float64)
    if X.ndim not in (1, 2) or Y.ndim != 2 or TH.ndim != 2 or not (
        (X.ndim == 1 or X.shape[0] == Y.shape[0]) and Y.shape[0] == TH.shape[0]
    ):
        raise DimensionMismatch(
            f"row blocks {X.shape}, {Y.shape}, {TH.shape} are not (N, .) arrays of one N"
        )
    if expr.dims is not None:
        d, m, q = expr.dims
        if (X.shape[-1], Y.shape[1], TH.shape[1]) != (d, m, q):
            raise DimensionMismatch(
                f"point blocks ({X.shape[-1]}, {Y.shape[1]}, {TH.shape[1]}) "
                f"do not match declared dims ({d}, {m}, {q})"
            )
    N = Y.shape[0]
    if N == 0:
        return []
    try:
        return [(slice(0, N), *_rows_pass(expr, X, Y, TH))]
    except _Ragged:
        return [(slice(r, r + 1), *_rows_pass(expr, X if X.ndim == 1 else X[r:r + 1],
                                              Y[r:r + 1], TH[r:r + 1]))
                for r in range(N)]


def _masked_rows(H: np.ndarray, G: np.ndarray, eps: float = TOL_ZERO):
    """quasidiff(., eps)'s masks over each row's vertices in _vertex_blocks'
    (N, k1, 1+n) hypo and (N, k2, 1+n) hyper arrays: (sub, sup, one, P).
    sub keeps the hypo vertices with offset >= -eps, sup the zero-offset
    hyper vertices; one[r] says row r keeps one vertex in each set, and
    P[r] is the sum of the slopes of its first kept hypo and hyper
    vertices, its one shifted slope when one[r].  Raises ZERO_AT_ZERO, as
    quasidiff does, where a set keeps none."""
    sub = H[:, :, 0] >= -eps
    sup = np.abs(G[:, :, 0]) <= TOL_ZERO
    n_sub, n_sup = sub.sum(axis=1), sup.sum(axis=1)
    if not (n_sub.all() and n_sup.all()):
        raise CodiffspError(
            "ZERO_AT_ZERO", "no zero-offset vertices: codifferential is inconsistent"
        )
    j = np.arange(H.shape[0])
    P = H[j, sub.argmax(axis=1), 1:] + G[j, sup.argmax(axis=1), 1:]
    return sub, sup, (n_sub == 1) & (n_sup == 1), P


def _codiff_pairs(blocks) -> list[CodiffPair]:
    """One CodiffPair per row of _vertex_blocks' blocks, in row order."""
    return [
        CodiffPair(hypo=hypo, hyper=hyper, dim=H.shape[2] - 1)
        for _rows, H, G, _v in blocks
        for hypo, hyper in zip(_freeze(H), _freeze(G))
    ]


def codiff(expr: Expr, x, y=(), theta=()) -> CodiffPair:
    """Codifferential of the DAG at (x, y) in the joint space of dimension
    len(x) + len(y).  theta enters as a fixed parameter.  The one-row call
    of codiff_rows."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    theta = np.asarray(theta, dtype=np.float64).ravel()
    return codiff_rows(expr, x[None], y[None], theta[None])[0]


def expansion_value(cd: CodiffPair, delta):
    """max over hypo of (a + <v, delta>) plus min over hyper of (b + <w, delta>):
    a float for one direction, the (K,) values for a (K, n) stack of them."""
    delta = np.asarray(delta, dtype=np.float64)
    stack = delta.ndim == 2
    if not stack:
        delta = delta.ravel()
    if delta.shape[-1] != cd.dim:
        raise DimensionMismatch(f"delta has length {delta.shape[-1]}, expected {cd.dim}")
    up = (cd.hypo[:, 1:] @ delta.T).T + cd.hypo[:, 0]
    dn = (cd.hyper[:, 1:] @ delta.T).T + cd.hyper[:, 0]
    out = up.max(axis=-1) + dn.min(axis=-1)
    return out if stack else float(out)


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
