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

The rules keep every branch of a max/min/abs/dc node whatever its value,
so until a prune runs the vertices of the root, their count, order and
which branch gaps and atom gradients each one sums, depend on the DAG
alone.  ``_compile`` therefore runs the rules once per expression
(``Expr._plan``, cached like its tape) on coefficient rows instead of
numbers, and ``codiff_rows`` differentiates at N points (X[r], Y[r],
TH[r]), checked and shaped by ``expr._rows``, by that plan in three steps:

  1. node values, from ``expr.row_values``: the expression's compiled
     value function, its float variant once per row below expr.ROWS_MIN_S
     rows and its column variant once on (N,) columns from it on;
  2. the gap f_i - f at every branch of every max, min and abs node, with
     the builtin max's tie rule, and the gradient Q z + lin of every quad
     atom (affine atoms add a constant slope);
  3. two fixed gather-sums: each vertex offset sums its signed gaps and each
     slope its scaled quad gradients, in a fixed order (an elementwise loop
     over the terms, never BLAS), so a row's bits do not depend on N or on
     BLAS threading, and a coefficient 0 never meets an inf.

A plan vertex sums signed branch gaps and atom gradients, so it is the
increment of one branch function, a signed sum of atoms; with its Hessian
H_v = sum_t qc[v, t] Q of its quad atoms the expansion is exact, not only
to o(|D|): f(z + D) - f(z) is the max over hypo of a + <v, D> + <D, H_v D> / 2
plus the min over hyper of the same, for every D.  A walk's pruning keeps
only the first-order expansion.

Every vertex set is an (N, k, 1+n) array, in the vertex order of the rules
(a Minkowski sum lists A's index outer).  A rows pass (``_vertex_blocks``)
hands out one triple, the hypo and hyper arrays and the (N,) values,
before any CodiffPair is built, for callers that read slices of them or
shift them first.  ``codiff`` is the one-row call of the same
plan, so every row of a rows pass has the bits of ``codiff`` at that
point.  Values and single-gap offsets have ``evaluate``'s bits: a gap is
the difference of two values ``evaluate`` returns, and an offset is that
gap with its sign of zero cleared.  Slopes that sum several terms round
once per term in the plan's order, not in the rules' nesting, so they may
differ from a walk of the rules on numbers in the last bits.

An expression gets no plan where a Minkowski product or a node set of the
rules exceeds min(AUTO_PRUNE_AT, MAX_VERTICES), above which a point may
prune or raise, and where it declares no dims.  Its rows go one at a time
through ``_walk``, the rules on one point's numbers, which prune past
AUTO_PRUNE_AT and raise VertexCapExceeded past MAX_VERTICES; ``codiff``
takes the same path there.  The rows pass pads the walk's rows into the
same triple: a row of fewer vertices than the most gets rows of zero
slope and offset -inf (hypo) or +inf (hyper), which no mask keeps and no
max or min takes, and ``codiff_rows`` drops them again.

Non-finite numbers have one rule on both paths.  A row of finite inputs
whose vertices or value are not finite overflowed: NonFinite names it.
A row of non-finite inputs whose vertices are not finite has no
consistent codifferential: ZERO_AT_ZERO.  The pads are then the only
non-finite vertex entries a rows pass returns.

Quasidifferentials are the zero-offset slices of a codifferential and
represent the directional derivative as max plus min of linear forms;
``quasidiff(cd, eps)`` widens the hypo slice to the eps-active vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._minnorm import inside, min_norm_point
from .errors import CodiffspError, DimensionMismatch, NonFinite, VertexCapExceeded
from .expr import Expr, _row_values, _rows, node_values

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
        if not (abs(a) <= TOL_ZERO and abs(b) <= TOL_ZERO):  # NaN violates it too
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


def _minkowski(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The Minkowski sum of the (ka, c) and (kb, c) vertex sets of one point,
    A's index outer; past MAX_VERTICES both are pruned first, and a sum still
    past it raises VertexCapExceeded."""
    if A.shape[0] * B.shape[0] > MAX_VERTICES:
        # pruning first keeps desk-scale models exact without silent loss
        A, B = _manage(A), _manage(B)
        if A.shape[0] * B.shape[0] > MAX_VERTICES:
            raise VertexCapExceeded(A.shape[0] * B.shape[0], MAX_VERTICES)
    return (A[:, None] + B[None]).reshape(-1, A.shape[1])


def _manage(V: np.ndarray) -> np.ndarray:
    """V (k, c) as it is up to min(AUTO_PRUNE_AT, MAX_VERTICES) vertices;
    above, refused beyond MAX_VERTICES and pruned beyond AUTO_PRUNE_AT."""
    k = V.shape[0]
    if k <= min(AUTO_PRUNE_AT, MAX_VERTICES):
        return V
    if k > MAX_VERTICES:
        raise VertexCapExceeded(k, MAX_VERTICES)
    W = np.unique(V, axis=0)
    if W.shape[0] > AUTO_PRUNE_AT:
        W = _prune_vertices(W)
    if W.shape[0] > MAX_VERTICES:  # pragma: no cover - prune only shrinks
        raise VertexCapExceeded(W.shape[0], MAX_VERTICES)
    return W


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


def _rules(tape: tuple, width: int, c: int, leaf, gaps, minkowski, manage):
    """The calculus rules in one forward pass over the tape, on vertex rows
    (k, c) of an offset part (the first width columns) and a slope part:
    (hypo, hyper) of the root.

    leaf(e, i) is the slope part of the gradient of affine or quad atom e at
    tape position i, gaps(i) the list of offset terms that the max rule adds
    to the branches of the max, min or abs node at i, one per branch (the
    min and abs rules run the max rule on -f_j and on (u, -u)); minkowski
    sums two sets and manage takes every set a node yields.  A smooth node
    gets a gradient only: a smooth subtree is one atom, hypo {(0, grad)},
    hyper {(0, 0)}.  Keeping negations of smooth pieces in atom form makes
    abs(x) yield the two-vertex hypo rather than a swapped hyper.
    """
    zero = np.zeros((1, c))

    def smooth_pair(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        hypo = np.zeros((1, c))
        hypo[0, width:] = g
        return hypo, zero

    def max_rule(parts: list, offs: list) -> tuple[np.ndarray, np.ndarray]:
        hyper = parts[0][1]
        for _hypo_k, hyper_k in parts[1:]:
            hyper = minkowski(hyper, hyper_k)
        pieces = []
        for i, (hypo_i, _hyper_i) in enumerate(parts):
            S = hypo_i
            for k2, (_h, hyper_k) in enumerate(parts):
                if k2 != i:
                    S = minkowski(S, -hyper_k)
            S = S.copy()
            S[:, :width] += offs[i]
            pieces.append(S)
        return np.concatenate(pieces), hyper

    grads: list = [None] * len(tape)
    pairs: list = [None] * len(tape)

    def part(j: int) -> tuple[np.ndarray, np.ndarray]:
        return smooth_pair(grads[j]) if pairs[j] is None else pairs[j]

    for i, (e, kids) in enumerate(tape):
        k = e.kind
        if e.smooth:
            if k in ("affine", "quad"):
                g = leaf(e, i)
            elif k == "constant":
                g = np.zeros(c - width)
            elif k == "add":
                g = np.zeros(c - width)
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
                hypo = minkowski(hypo, h2)
                hyper = minkowski(hyper, g2)
            out = manage(hypo), manage(hyper)
        elif k == "scale":
            hypo, hyper = part(kids[0])
            if e.lam >= 0.0:
                out = e.lam * hypo, e.lam * hyper
            else:
                out = e.lam * hyper, e.lam * hypo
        elif k == "max":
            hypo, hyper = max_rule([part(j) for j in kids], gaps(i))
            out = manage(hypo), manage(hyper)
        elif k == "min":
            # mirror of max: min f_i = -max(-f_i)
            neg_parts = [(-hyper_j, -hypo_j) for hypo_j, hyper_j in map(part, kids)]
            hypo_m, hyper_m = max_rule(neg_parts, gaps(i))
            out = manage(-hyper_m), manage(-hypo_m)
        elif k == "abs":
            # rewrite as max(u, -u); a smooth u negates to the atom (-grad)
            (j,) = kids
            if tape[j][0].smooth:
                part_n = smooth_pair(-grads[j])
            else:
                hypo, hyper = pairs[j]
                part_n = (-hyper, -hypo)
            hm, gm = max_rule([part(j), part_n], gaps(i))
            out = manage(hm), manage(gm)
        else:  # dc
            hypo_p, hyper_p = part(kids[0])
            hypo_q, hyper_q = part(kids[1])
            # Convex children built by these rules carry hyper = {(0, 0)}, so
            # this reduces to [hypo of plus, negated hypo of minus].  No
            # renormalization: each child's hypo offsets are <= 0 with max
            # exactly 0, its hyper offsets >= 0 with min exactly 0 (every
            # rule keeps both, the max rule through its zero gap), so
            # hyper_p + (-hypo_q) has offsets >= 0 and one sum of two zeros,
            # exactly +-0, as its least; likewise hypo_p + (-hyper_q).
            out = (manage(minkowski(hypo_p, -hyper_q)),
                   manage(minkowski(hyper_p, -hypo_q)))
        pairs[i] = out

    hypo, hyper = part(len(tape) - 1)
    return manage(hypo), manage(hyper)


def _walk(expr: Expr, x: np.ndarray, y: np.ndarray, th: np.ndarray):
    """(hypo, hyper, value) at one point by the rules on its numbers: the
    (1, k1, 1+n) and (1, k2, 1+n) vertex sets, pruned past AUTO_PRUNE_AT and
    refused past MAX_VERTICES as _manage says, and the (1,) value.  The path
    of an expression without a plan."""
    z = np.concatenate((x, y))
    if not (np.isfinite(z).all() and np.isfinite(th).all()):  # _vertex_blocks' rule, up front
        raise CodiffspError("ZERO_AT_ZERO", "non-finite input: codifferential is inconsistent")
    vals = node_values(expr, z.tolist() + th.tolist())
    tape = expr._tape

    def gaps(i: int) -> list:
        # the builtin max's tie rule, as node_values': the first maximal
        # value wins, which keeps the sign of a 0.0 / -0.0 tie
        e, kids = tape[i]
        if e.kind == "abs":
            v = vals[kids[0]]
            branch = [v, -v]
        else:
            branch = [vals[j] if e.kind == "max" else -vals[j] for j in kids]
        f = max(branch)
        return [v - f for v in branch]

    def leaf(e: Expr, i: int) -> np.ndarray:
        return np.concatenate((e.cx, e.cy)) if e.kind == "affine" else e.Q @ z + e.lin

    hypo, hyper = _rules(tape, 1, 1 + z.shape[0], leaf, gaps, _minkowski, _manage)
    return hypo[None], hyper[None], np.array([vals[-1]])


class _Plan(NamedTuple):
    """An expression's codifferential as fixed linear maps of its node
    values (``_compile``).  Vertex r of the root's hypo (r < k1) or hyper
    (r >= k1) has the offset 0.0 + sum_t oc[r, t] * gap[oi[r, t]] and the
    slope C[r] + sum_t qc[r, t] * qgrad[qi[r, t]], each sum in ascending t.
    gap[j] = w[ga[j]] - w[gb[j]], w the values v of the tape nodes ``at``
    followed by -v, is the max rule's f_i - f at one branch of a max, min or
    abs node; qgrad[j] = Q_j z + lin_j is the gradient of quad atom quads[j].
    Padding terms, at least one per vertex, read gap[len(ga)] and
    qgrad[len(quads)], both -0.0, with coefficient 1.0: they add -0.0, which
    changes no bit.  oc and qc are shaped to broadcast over a last axis of
    rows.  qt is the (K, len(quads)) table whose nonzero entries qi and qc
    list, and hq holds each quad atom's Q, flattened to a row: vertex r's
    Hessian is sum_j qt[r, j] Q_j.  peak is the largest vertex set or
    Minkowski product the rules built."""

    at: tuple
    ga: np.ndarray
    gb: np.ndarray
    oi: np.ndarray
    oc: np.ndarray
    quads: tuple
    qi: np.ndarray
    qc: np.ndarray
    qt: np.ndarray
    hq: np.ndarray
    C: np.ndarray
    k1: int
    peak: int


def _terms(coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(idx, val): the nonzero entries of each row of coef (K, w) in
    ascending column order, padded with index w and value 1.0 to the
    longest row, and to one column at least."""
    nz = coef != 0.0
    T = int(nz.sum(axis=1).max(initial=1))
    idx = np.full((coef.shape[0], T), coef.shape[1], dtype=np.intp)
    val = np.ones((coef.shape[0], T))
    for r, row in enumerate(nz):
        j = np.flatnonzero(row)
        idx[r, :j.size], val[r, :j.size] = j, coef[r, j]
    return idx, val


def _compile(expr: Expr) -> _Plan | None:
    """The plan of expr: the calculus rules run once on coefficient rows
    instead of numbers.  A vertex row holds the coefficients of its offset
    over the branch gaps and of its slope over the quad gradients, then its
    constant slope, the part of its affine atoms.  None for an expression
    without declared dims or with a vertex set or Minkowski product past
    min(AUTO_PRUNE_AT, MAX_VERTICES), where a point may prune or raise."""
    if expr.dims is None:
        return None
    tape = expr._tape
    n = expr.dims[0] + expr.dims[1]
    quads = [i for i, (e, _kids) in enumerate(tape) if e.kind == "quad"]
    # per branch gap f_i - f, the tape positions of f_i and f, each with
    # True where its value enters negated
    slots: list = []
    first: dict = {}  # max/min/abs node -> the slice of its slots
    for i, (e, kids) in enumerate(tape):
        if e.smooth or e.kind not in ("max", "min", "abs"):
            continue
        start = len(slots)
        if e.kind == "abs":
            # the max rule on (u, -u), with max |u|: it differs from the
            # builtin max(u, -u) at most in the sign of a zero gap, which
            # an offset's 0.0 start clears
            slots += [((kids[0], False), (i, False)), ((kids[0], True), (i, False))]
        else:  # a min node is the max rule on -f_j, with max -f
            slots += [((j, e.kind == "min"), (i, e.kind == "min")) for j in kids]
        first[i] = slice(start, len(slots))
    width, nq = len(slots), len(quads)
    eye = np.eye(width + nq)
    limit = min(AUTO_PRUNE_AT, MAX_VERTICES)
    peak = 1

    def manage(V: np.ndarray) -> np.ndarray:
        nonlocal peak
        if V.shape[0] > limit:
            raise VertexCapExceeded(V.shape[0], limit)
        peak = max(peak, V.shape[0])
        return V

    def minkowski(A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return manage((A[:, None] + B[None]).reshape(-1, A.shape[1]))

    def gaps(i: int) -> list:
        return list(eye[first[i], :width])

    def leaf(e: Expr, i: int) -> np.ndarray:
        if e.kind == "quad":
            return np.concatenate((eye[width + quads.index(i), width:], np.zeros(n)))
        return np.concatenate((np.zeros(nq), e.cx, e.cy))

    try:
        hypo, hyper = _rules(tape, width, width + nq + n, leaf, gaps, minkowski, manage)
    except VertexCapExceeded:
        return None
    R = np.vstack((hypo, hyper))
    at = sorted({j for slot in slots for j, _neg in slot} | {len(tape) - 1})
    col = {j: c for c, j in enumerate(at)}
    ga, gb = (np.array([col[slot[k][0]] + len(at) * slot[k][1] for slot in slots],
                       dtype=np.intp) for k in (0, 1))
    oi, oc = _terms(R[:, :width])
    qt = R[:, width:width + nq]
    qi, qc = _terms(qt)
    atoms = tuple(tape[i][0] for i in quads)
    hq = np.array([e.Q.ravel() for e in atoms]).reshape(nq, n * n)
    return _Plan(at=tuple(at), ga=ga, gb=gb, oi=oi, oc=oc[..., None], quads=atoms, qi=qi,
                 qc=qc[..., None, None], qt=qt, hq=hq, C=R[:, width + nq:], k1=hypo.shape[0],
                 peak=peak)


def _plan_pass(expr: Expr, plan: _Plan, X: np.ndarray, Y: np.ndarray, TH: np.ndarray):
    """(hypo, hyper, values) at the N rows, which _vertex_blocks has
    checked, by the plan: the node values (row_values' pass), the gaps and
    the quad gradients, then the two gather-sums of _Plan.  The sums run
    with the rows on the last axis, so every step is one elementwise
    operation over contiguous runs of N."""
    N, (K, n) = Y.shape[0], plan.C.shape
    v = _row_values(expr, X, Y, TH, plan.at)
    out = np.empty((K, 1 + n, N))
    off, slope = out[:, 0], out[:, 1:]
    signed = np.concatenate((v, -v))
    gap = np.empty((plan.ga.shape[0] + 1, N))
    gap[-1] = -0.0
    np.subtract(signed[plan.ga], signed[plan.gb], out=gap[:-1])
    W = gap[plan.oi] * plan.oc
    np.add(W[:, 0], 0.0, out=off)
    for t in range(1, W.shape[1]):
        off += W[:, t]
    slope[...] = plan.C[..., None]
    if plan.quads:
        # written in place: np.hstack of a broadcast x took 5 us more at N = 3
        Z = np.empty((N, n))
        Z[:, :X.shape[-1]], Z[:, X.shape[-1]:] = X, Y
        grad = np.empty((len(plan.quads) + 1, n, N))
        grad[-1] = -0.0
        for j, e in enumerate(plan.quads):
            # the stacked product has the bits of the one-point Q @ z + lin,
            # where Z @ Q.T and einsum sum in another order
            grad[j] = ((e.Q @ Z[:, :, None])[..., 0] + e.lin).T
        W = grad[plan.qi] * plan.qc
        for t in range(W.shape[1]):
            slope += W[:, t]
    out = out.transpose(2, 0, 1)
    return (np.ascontiguousarray(out[:, :plan.k1]), np.ascontiguousarray(out[:, plan.k1:]),
            v[-1].copy())


def codiff_rows(expr: Expr, X, Y, TH) -> list[CodiffPair]:
    """Codifferentials of the DAG at the N points (X[r], Y[r]) in the joint
    space of dimension d + m, row r with the fixed parameter TH[r], for any
    blocks that expr._rows accepts.  Row r has the bits of
    codiff(expr, X[r], Y[r], TH[r])."""
    return _codiff_pairs(*_vertex_blocks(expr, X, Y, TH)[:2])


def _vertex_blocks(expr: Expr, X, Y, TH) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(hypo, hyper, values) at the N rows of (X, Y, TH), checked and shaped
    by expr._rows: the (N, k1, 1+n) and (N, k2, 1+n) vertex arrays and the
    DAG's (N,) values, with evaluate's bits, by the expression's plan in one
    pass or, where it has none, by the walk on each row, pruned as _manage
    prunes and padded as the module docstring says.  Both paths run with
    overflow and invalid operations silenced (raising cost 15 us on a 73 us
    pass at N = 3), and every row's output is tested once, by the module
    docstring's rule for non-finite numbers.  The walk refuses a non-finite
    row before its rules run, since pruning cannot measure its vertices."""
    X, Y, TH = _rows(expr, X, Y, TH)
    plan = _pass_plan(expr)
    with np.errstate(over="ignore", invalid="ignore"):
        if plan is not None:
            return _checked(*_plan_pass(expr, plan, X, Y, TH), X, Y, TH)
        walked = []
        for r in range(Y.shape[0]):
            x, th = (X if X.ndim == 1 else X[r]), (TH if TH.ndim == 1 else TH[r])
            walked.append(_checked(*_walk(expr, x, Y[r], th), x, Y[r:r + 1], th, r))
    H, G = (np.zeros((len(walked), max((w[i].shape[1] for w in walked), default=1),
                      1 + X.shape[-1] + Y.shape[1])) for i in (0, 1))
    H[:, :, 0], G[:, :, 0] = -np.inf, np.inf
    for r, (h, g, _v) in enumerate(walked):
        H[r, :h.shape[1]], G[r, :g.shape[1]] = h[0], g[0]
    return H, G, np.array([v[0] for *_a, v in walked])


def _pass_plan(expr: Expr) -> _Plan | None:
    """The plan a rows pass of expr runs, or None where it walks: where
    expr has no plan, or min(AUTO_PRUNE_AT, MAX_VERTICES) is below its peak."""
    plan = expr._plan
    return plan if plan is not None and plan.peak <= min(AUTO_PRUNE_AT, MAX_VERTICES) else None


def _checked(H: np.ndarray, G: np.ndarray, v: np.ndarray, X: np.ndarray, Y: np.ndarray,
             TH: np.ndarray, at: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(H, G, v), a rows pass's output over the rows at, at + 1, .. of
    (X, Y, TH), once it passes the module docstring's rule: NonFinite names
    the first row of finite inputs that overflowed, and ZERO_AT_ZERO
    refuses a row of non-finite inputs whose vertices are not finite."""
    # counting finite entries is the cheap test; the rows are found on failure
    if (np.count_nonzero(np.isfinite(H)) + np.count_nonzero(np.isfinite(G))
            + np.count_nonzero(np.isfinite(v)) < H.size + G.size + v.size):
        ok = np.isfinite(H).all(axis=(1, 2)) & np.isfinite(G).all(axis=(1, 2))
        finite_in = (np.isfinite(Y).all(axis=1) & np.isfinite(X).all(axis=-1)
                     & np.isfinite(TH).all(axis=-1))
        if (over := np.flatnonzero(~(ok & np.isfinite(v)) & finite_in)).size:
            raise NonFinite(f"codifferential overflows in scenario {at + int(over[0])}")
        if not ok.all():
            raise CodiffspError("ZERO_AT_ZERO", "non-finite input: codifferential is inconsistent")
    return H, G, v


def _masked_rows(H: np.ndarray, G: np.ndarray, eps: float = TOL_ZERO):
    """(sub, sup, n_sub, n_sup): quasidiff(., eps)'s masks over the rows of
    _vertex_blocks' hypo and hyper arrays, the hypo vertices with offset >=
    -eps and the zero-offset hyper vertices, and their counts per row.
    Raises ZERO_AT_ZERO, as quasidiff does, where a set keeps none."""
    sub = H[:, :, 0] >= -eps
    sup = np.abs(G[:, :, 0]) <= TOL_ZERO
    n_sub, n_sup = sub.sum(axis=1), sup.sum(axis=1)
    # count_nonzero is the cheap test that every count is positive
    if np.count_nonzero(n_sub) + np.count_nonzero(n_sup) < 2 * H.shape[0]:
        raise CodiffspError(
            "ZERO_AT_ZERO", "no zero-offset vertices: codifferential is inconsistent"
        )
    return sub, sup, n_sub, n_sup


def _point_rows(H: np.ndarray, G: np.ndarray, sub, sup, n_sub, n_sup):
    """(one, P) of _masked_rows' output: row r keeps one vertex in each set
    where one[r], and P[r], its first kept hypo plus hyper slope, is then that one."""
    j = np.arange(H.shape[0])
    P = H[j, sub.argmax(axis=1), 1:] + G[j, sup.argmax(axis=1), 1:]
    return (n_sub == 1) & (n_sup == 1), P


def _codiff_pairs(H: np.ndarray, G: np.ndarray) -> list[CodiffPair]:
    """One CodiffPair per row of _vertex_blocks' hypo and hyper arrays, in
    row order, less the walk's pad rows."""
    if not (np.isfinite(H[:, -1:, 0]).all() and np.isfinite(G[:, -1:, 0]).all()):
        return [CodiffPair(hypo=_freeze(h[np.isfinite(h[:, 0])]),
                           hyper=_freeze(g[np.isfinite(g[:, 0])]), dim=H.shape[2] - 1)
                for h, g in zip(H, G)]
    return [CodiffPair(hypo=hypo, hyper=hyper, dim=H.shape[2] - 1)
            for hypo, hyper in zip(_freeze(H), _freeze(G))]


def codiff(expr: Expr, x, y=(), theta=()) -> CodiffPair:
    """Codifferential of the DAG at (x, y) in the joint space of dimension
    len(x) + len(y).  theta enters as a fixed parameter.  The one-row call
    of codiff_rows."""
    return codiff_rows(expr, np.ravel(x), np.reshape(y, (1, -1)), np.ravel(theta))[0]


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
    vertices, without their offsets: _masked_rows on one row, nonempty by
    the zero-at-zero normalization.  At the default eps both are the
    zero-offset slices."""
    sub, sup, *_counts = _masked_rows(cd.hypo[None], cd.hyper[None], eps)
    return QuasidiffPair(sub=_freeze(cd.hypo[sub[0], 1:]), sup=_freeze(cd.hyper[sup[0], 1:]),
                         dim=cd.dim)


def dirderiv(qd: QuasidiffPair, h) -> float:
    """Directional derivative: max over sub of <v,h> plus min over sup of
    <w,h>, each product by _row_dots."""
    h = np.asarray(h, dtype=np.float64).ravel()
    if h.shape[0] != qd.dim:
        raise DimensionMismatch(f"h has length {h.shape[0]}, expected {qd.dim}")
    return float(_row_dots(qd.sub, h).max() + _row_dots(qd.sup, h).min())


def _row_dots(V: np.ndarray, h: np.ndarray) -> np.ndarray:
    """<v, h> for every row v of V (..., n), h broadcast against V: the
    products summed elementwise in ascending column order, so a row's bits
    do not depend on its position among the rows, as a BLAS product's do."""
    out = V[..., 0] * h[..., 0]
    for j in range(1, V.shape[-1]):
        out = out + V[..., j] * h[..., j]
    return out


def prune(cd: CodiffPair) -> CodiffPair:
    """Remove non-extreme vertices from both sets.  expansion_value is
    unchanged for every direction."""
    return CodiffPair(
        hypo=_freeze(_prune_vertices(cd.hypo)),
        hyper=_freeze(_prune_vertices(cd.hyper)),
        dim=cd.dim,
    )
