"""Expression DAGs over first-stage variables x, second-stage variables y,
and scenario parameters theta.

The node grammar is deliberately small: affine and quadratic atoms, sums,
scalar multiples, pointwise max/min, absolute value, and an explicit
difference-of-convex node.  There is no general product node; products are
admitted only inside the quadratic atom, which keeps every set produced by
the calculus a polytope with a bounded description.

A quadratic node over z = (x, y) has the value 0.5 * z^T Q z + lin^T z + c0
with Q symmetric; the ``psd`` flag marks structural convexity and is
verified against the spectrum when set.

Every node lists its distinct sub-nodes once, in post-order (``Expr._tape``),
and carries its structural flags (``smooth``, ``convex``, ``affine``), set at
construction from its children's flags.  One loop over the tape,
``node_values``, evaluates every node; ``evaluate`` and ``evaluate_batch``
return its last entry for one point or for a batch, and sum every atom in
one fixed order, so they agree bit for bit at every point, whatever the
batch size.  The codifferential calculus walks the same tape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CodiffspError, DimensionMismatch, NotDC, ValidationError

Dims = tuple[int, int, int]  # (d, m, q)


@dataclass(frozen=True, eq=False)
class Expr:
    """One DAG node.  Construct via the module-level factory functions."""

    kind: str
    children: tuple["Expr", ...] = ()
    dims: Dims | None = None  # None for dimension-free constants
    value: float = 0.0  # constant payload
    c0: float = 0.0  # affine / quad offset
    cx: np.ndarray | None = None
    cy: np.ndarray | None = None
    ct: np.ndarray | None = None
    Q: np.ndarray | None = None
    lin: np.ndarray | None = None
    psd: bool = False
    lam: float = 1.0  # scale payload
    # structural flags, set in __post_init__ from the children's flags
    smooth: bool = field(init=False)  # no max/min/abs/dc node on any path
    convex: bool = field(init=False)  # see is_convex_struct
    affine: bool = field(init=False)  # no curvature, no kinks

    def __post_init__(self):
        k, ch = self.kind, self.children
        if k in ("constant", "affine"):
            smooth = convex = affine_ = True
        elif k == "quad":
            smooth, convex, affine_ = True, self.psd, False
        else:
            linear = k in ("add", "scale")
            smooth = linear and all(c.smooth for c in ch)
            affine_ = linear and all(c.affine for c in ch)
            if k in ("add", "max"):
                convex = all(c.convex for c in ch)
            elif k == "scale":
                convex = ch[0].convex if self.lam >= 0.0 else ch[0].affine
            else:
                convex = k == "abs" and ch[0].affine
        object.__setattr__(self, "smooth", smooth)
        object.__setattr__(self, "convex", convex)
        object.__setattr__(self, "affine", affine_)

    # arithmetic sugar used by the generator and tests
    def __add__(self, other: "Expr") -> "Expr":
        return add(self, other)

    def __sub__(self, other: "Expr") -> "Expr":
        return add(self, scale(-1.0, other))

    def __neg__(self) -> "Expr":
        return scale(-1.0, self)

    def __mul__(self, factor: float) -> "Expr":
        return scale(float(factor), self)

    __rmul__ = __mul__

    def __abs__(self) -> "Expr":
        return absolute(self)

    @cached_property
    def _terms(self) -> tuple:
        """Nonzero coefficients of an affine or quad atom as Python floats,
        indexed into the concatenated point w = (x, y, theta).

        affine: (c0, ((j, c_j), ...)); quad: (rows, lin, c0) with
        rows = ((i, ((j, Q_ij), ...)), ...) and lin = ((j, lin_j), ...).
        """
        def nonzero(coeffs):
            return tuple((j, c) for j, c in enumerate(coeffs) if c != 0.0)

        if self.kind == "affine":
            return self.c0, nonzero(np.concatenate((self.cx, self.cy, self.ct)).tolist())
        rows = tuple((i, nonzero(row)) for i, row in enumerate(self.Q.tolist()))
        return tuple(r for r in rows if r[1]), nonzero(self.lin.tolist()), self.c0

    @cached_property
    def _tape(self) -> tuple:
        """Distinct nodes of the DAG in post-order, each with the tape
        positions of its children: ((node, (j, ...)), ...).  The root is last.
        """
        pos: dict[int, int] = {}
        tape = []
        stack = [(self, False)]
        while stack:
            e, expanded = stack.pop()
            if id(e) in pos:
                continue
            if expanded:
                pos[id(e)] = len(tape)
                tape.append((e, tuple(pos[id(c)] for c in e.children)))
                continue
            stack.append((e, True))
            stack.extend((c, False) for c in reversed(e.children))
        return tuple(tape)


def _frozen(a, shape_len: int | None = None) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if shape_len is not None and arr.shape != (shape_len,):
        raise DimensionMismatch(f"expected length {shape_len}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("NONFINITE", "non-finite coefficient")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _merge_dims(a: Dims | None, b: Dims | None) -> Dims | None:
    if a is None:
        return b
    if b is None:
        return a
    if a != b:
        raise DimensionMismatch(f"incompatible declared dimensions {a} vs {b}")
    return a


def constant(value: float) -> Expr:
    v = float(value)
    if not np.isfinite(v):
        raise ValidationError("NONFINITE", "non-finite constant")
    return Expr(kind="constant", value=v)


def affine(dims: Dims, c0: float = 0.0, cx=None, cy=None, ct=None) -> Expr:
    """c0 + <cx, x> + <cy, y> + <ct, theta>. Omitted blocks are zero."""
    d, m, q = dims
    c0 = float(c0)
    if not np.isfinite(c0):
        raise ValidationError("NONFINITE", "non-finite constant")
    cx = _frozen(np.zeros(d) if cx is None else cx, d)
    cy = _frozen(np.zeros(m) if cy is None else cy, m)
    ct = _frozen(np.zeros(q) if ct is None else ct, q)
    return Expr(kind="affine", dims=(d, m, q), c0=c0, cx=cx, cy=cy, ct=ct)


def quad(dims: Dims, Q, lin=None, c0: float = 0.0, psd: bool | None = None) -> Expr:
    """0.5 z^T Q z + <lin, z> + c0 over z = (x, y).  theta never enters a quad."""
    d, m, _q = dims
    n = d + m
    Qa = np.asarray(Q, dtype=np.float64)
    if Qa.shape != (n, n):
        raise DimensionMismatch(f"quad matrix must be ({n}, {n}), got {Qa.shape}")
    scale_q = 1.0 + float(np.abs(Qa).max(initial=0.0))
    if np.abs(Qa - Qa.T).max(initial=0.0) > 1e-9 * scale_q:
        raise ValidationError("QUAD_ASYMMETRIC", "quad matrix must be symmetric")
    Qa = 0.5 * (Qa + Qa.T)
    if psd is None:
        psd = bool(np.linalg.eigvalsh(Qa).min(initial=0.0) >= -1e-9 * scale_q)
    elif psd:
        if np.linalg.eigvalsh(Qa).min(initial=0.0) < -1e-9 * scale_q:
            raise ValidationError("QUAD_NOT_PSD", "psd flag set but matrix is indefinite")
    Qa = _frozen(Qa.ravel()).reshape(n, n)
    lin = _frozen(np.zeros(n) if lin is None else lin, n)
    return Expr(kind="quad", dims=dims, Q=Qa, lin=lin, c0=float(c0), psd=bool(psd))


def add(*children: Expr) -> Expr:
    if not children:
        raise ValidationError("PARSE", "add needs at least one child")
    dims = None
    for ch in children:
        dims = _merge_dims(dims, ch.dims)
    return Expr(kind="add", children=tuple(children), dims=dims)


def scale(lam: float, child: Expr) -> Expr:
    lam = float(lam)
    if not np.isfinite(lam):
        raise ValidationError("NONFINITE", "non-finite scale factor")
    return Expr(kind="scale", children=(child,), dims=child.dims, lam=lam)


def maximum(*children: Expr) -> Expr:
    if not children:
        raise ValidationError("PARSE", "max needs at least one child")
    dims = None
    for ch in children:
        dims = _merge_dims(dims, ch.dims)
    return Expr(kind="max", children=tuple(children), dims=dims)


def minimum(*children: Expr) -> Expr:
    if not children:
        raise ValidationError("PARSE", "min needs at least one child")
    dims = None
    for ch in children:
        dims = _merge_dims(dims, ch.dims)
    return Expr(kind="min", children=tuple(children), dims=dims)


def absolute(child: Expr) -> Expr:
    return Expr(kind="abs", children=(child,), dims=child.dims)


def dc(plus: Expr, minus: Expr) -> Expr:
    """Difference plus - minus of two structurally convex expressions."""
    for name, ch in (("plus", plus), ("minus", minus)):
        if not is_convex_struct(ch):
            raise ValidationError(
                "DC_NOT_CONVEX", f"dc {name} child is not structurally convex"
            )
    return Expr(kind="dc", children=(plus, minus), dims=_merge_dims(plus.dims, minus.dims))


@dataclass(frozen=True)
class Space:
    """Factory bound to fixed dimensions, for ergonomic model building."""

    d: int
    m: int
    q: int = 0

    @property
    def dims(self) -> Dims:
        return (self.d, self.m, self.q)

    def constant(self, value: float) -> Expr:
        return constant(value)

    def affine(self, c0: float = 0.0, cx=None, cy=None, ct=None) -> Expr:
        return affine(self.dims, c0=c0, cx=cx, cy=cy, ct=ct)

    def x(self, i: int, coeff: float = 1.0) -> Expr:
        cx = np.zeros(self.d)
        cx[i] = coeff
        return affine(self.dims, cx=cx)

    def y(self, j: int, coeff: float = 1.0) -> Expr:
        cy = np.zeros(self.m)
        cy[j] = coeff
        return affine(self.dims, cy=cy)

    def theta(self, k: int, coeff: float = 1.0) -> Expr:
        ct = np.zeros(self.q)
        ct[k] = coeff
        return affine(self.dims, ct=ct)

    def quad(self, Q, lin=None, c0: float = 0.0, psd: bool | None = None) -> Expr:
        return quad(self.dims, Q, lin=lin, c0=c0, psd=psd)


# ---------------------------------------------------------------------------
# evaluation


def _check_point(dims: Dims | None, x, y, theta):
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    theta = np.asarray(theta, dtype=np.float64).ravel()
    if dims is not None:
        d, m, q = dims
        if x.shape[0] != d:
            raise DimensionMismatch(f"x has length {x.shape[0]}, expected {d}")
        if y.shape[0] != m:
            raise DimensionMismatch(f"y has length {y.shape[0]}, expected {m}")
        if theta.shape[0] != q:
            raise DimensionMismatch(f"theta has length {theta.shape[0]}, expected {q}")
    return x, y, theta


def _atom(e: Expr, w: list):
    """Value of an affine or quad atom at w = (x, y, theta), whose entries are
    all floats (one point) or (N,) arrays for the y coordinates (N points;
    x and theta floats or (N,) arrays).

    The order of operations is fixed and independent of N: start from c0 and
    add coefficient * coordinate one coordinate at a time; for a quad,
    0.5 * sum_i z_i * (sum_j Q_ij z_j), then each lin_j * z_j, then c0.
    Every product and sum is rounded on its own (no BLAS reduction, no fused
    multiply-add), so a point gets the same bits on either path.  Zero
    coefficients are skipped on both paths alike.
    """
    if e.kind == "affine":
        v, terms = e._terms
        for j, c in terms:
            v = v + c * w[j]
        return v
    rows, lin, c0 = e._terms
    s = 0.0
    for i, row in rows:
        r = 0.0
        for j, c in row:
            r = r + c * w[j]
        s = s + w[i] * r
    v = 0.5 * s
    for j, c in lin:
        v = v + c * w[j]
    return v + c0


def node_values(expr: Expr, w: list, n: int | None = None) -> list:
    """Value of every node of ``expr._tape`` at w = (x, y, theta), in tape order.

    With ``n`` None, w holds floats (one point) and the values are floats.
    Otherwise every y entry of w is an (n,) column, each x and theta entry a
    float shared by every row or an (n,) column, and every value is an (n,)
    array.  Both cases apply the same operation at every node (``_atom`` at
    the atoms; at max and min, np.where keeps the builtins' first extreme
    value, so a 0.0 / -0.0 tie keeps its sign, where np.maximum and
    np.minimum return the second), so a point's value has the same bits
    either way.
    """
    vals: list = []
    for e, kids in expr._tape:
        k = e.kind
        if k == "constant":
            v = e.value if n is None else np.full(n, e.value)
        elif k in ("affine", "quad"):
            v = _atom(e, w)
            if n is not None and np.ndim(v) == 0:  # the atom reads no column
                v = np.full(n, v)
        elif k == "add":
            v = 0.0
            for j in kids:
                v = v + vals[j]
        elif k == "scale":
            v = e.lam * vals[kids[0]]
        elif k == "max":
            if n is None:
                v = max(vals[j] for j in kids)
            else:
                v = vals[kids[0]]
                for j in kids[1:]:
                    v = np.where(vals[j] > v, vals[j], v)
        elif k == "min":
            if n is None:
                v = min(vals[j] for j in kids)
            else:
                v = vals[kids[0]]
                for j in kids[1:]:
                    v = np.where(vals[j] < v, vals[j], v)
        elif k == "abs":
            v = abs(vals[kids[0]])
        elif k == "dc":
            v = vals[kids[0]] - vals[kids[1]]
        else:  # pragma: no cover
            raise CodiffspError("PARSE", f"unknown node kind {k!r}")
        vals.append(v)
    return vals


def evaluate(expr: Expr, x, y=(), theta=()) -> float:
    """Evaluate the DAG at a single point.  Deterministic, total on finite input."""
    x, y, theta = _check_point(expr.dims, x, y, theta)
    return node_values(expr, x.tolist() + y.tolist() + theta.tolist())[-1]


def evaluate_batch(expr: Expr, X, Y, theta) -> np.ndarray:
    """Vectorized evaluation: X is (N, d), Y is (N, m), theta one (q,) vector
    shared by every row or an (N, q) block, row r with its own theta.

    Returns values with shape (N,).  Each value is bit-identical to
    ``evaluate`` at that point, for any N (see ``node_values``).
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    theta = np.asarray(theta, dtype=np.float64)
    per_row = theta.ndim == 2
    n = max(X.shape[0], Y.shape[0], theta.shape[0] if per_row else 1)
    if X.shape[0] == 1 and n > 1:
        X = np.broadcast_to(X, (n, X.shape[1]))
    if Y.shape[0] == 1 and n > 1:
        Y = np.broadcast_to(Y, (n, Y.shape[1]))
    if per_row and theta.shape[0] == 1 and n > 1:
        theta = np.broadcast_to(theta, (n, theta.shape[1]))
    w = list(X.T) + list(Y.T) + (list(theta.T) if per_row else theta.ravel().tolist())
    return np.asarray(node_values(expr, w, n)[-1], dtype=np.float64)


# ---------------------------------------------------------------------------
# structural predicates


def is_affine_struct(expr: Expr) -> bool:
    """True when the DAG is affine by construction (no curvature, no kinks)."""
    return expr.affine


def is_convex_struct(expr: Expr) -> bool:
    """Structural convexity: affine atoms, psd quadratics, max of convex,
    nonnegative scales of convex, and sums of convex.  Sound, not complete."""
    return expr.convex


def is_smooth_struct(expr: Expr) -> bool:
    """True when no max/min/abs/dc node appears on any path."""
    return expr.smooth


def dc_parts(expr: Expr) -> tuple[Expr, Expr]:
    """Split into (plus, minus) with expr = plus - minus, both structurally convex.

    Handles explicit dc nodes, structurally convex DAGs (minus = 0), and
    sums/scales and maxima of such.  A maximum uses the identity
    max_i (p_i - m_i) = max_i (p_i + sum_{k != i} m_k) - sum_k m_k, the
    algebra of the codifferential's max rule.  Raises NOT_DC otherwise.
    """
    if is_convex_struct(expr):
        return expr, constant(0.0)
    if expr.kind == "dc":
        return expr.children[0], expr.children[1]
    if expr.kind == "add":
        parts = [dc_parts(ch) for ch in expr.children]
        return add(*(p for p, _ in parts)), add(*(mn for _, mn in parts))
    if expr.kind == "max":
        parts = [dc_parts(ch) for ch in expr.children]
        # a convex piece's minus part is 0 and enters no sum
        minus = {i: mn for i, (ch, (_p, mn)) in enumerate(zip(expr.children, parts))
                 if not ch.convex}
        branches = [add(p, *(mn for k, mn in minus.items() if k != i))
                    for i, (p, _mn) in enumerate(parts)]
        return maximum(*branches), add(*minus.values())
    if expr.kind == "scale":
        p, mn = dc_parts(expr.children[0])
        if expr.lam >= 0.0:
            return scale(expr.lam, p), scale(expr.lam, mn)
        return scale(-expr.lam, mn), scale(-expr.lam, p)
    raise NotDC(f"no structural DC form for node kind {expr.kind!r}")


# ---------------------------------------------------------------------------
# JSON serialization (schema shared with problem files)


def to_json(expr: Expr, dims: Dims) -> dict:
    """Serialize to the file schema.  Constants become zero-coefficient affines."""
    d, m, q = dims
    e = expr
    k = e.kind
    if k == "constant":
        return {
            "kind": "affine",
            "c0": e.value,
            "cx": [0.0] * d,
            "cy": [0.0] * m,
            "ct": [0.0] * q,
        }
    if k == "affine":
        return {
            "kind": "affine",
            "c0": e.c0,
            "cx": e.cx.tolist(),
            "cy": e.cy.tolist(),
            "ct": e.ct.tolist(),
        }
    if k == "quad":
        return {
            "kind": "quad",
            "Q": e.Q.tolist(),
            "lin": e.lin.tolist(),
            "c0": e.c0,
            "psd": bool(e.psd),
        }
    if k in ("add", "max", "min"):
        return {"kind": k, "children": [to_json(ch, dims) for ch in e.children]}
    if k == "scale":
        return {"kind": "scale", "lambda": e.lam, "child": to_json(e.children[0], dims)}
    if k == "abs":
        return {"kind": "abs", "child": to_json(e.children[0], dims)}
    if k == "dc":
        return {
            "kind": "dc",
            "plus": to_json(e.children[0], dims),
            "minus": to_json(e.children[1], dims),
        }
    raise CodiffspError("PARSE", f"unknown node kind {k!r}")  # pragma: no cover


def _req(obj: dict, key: str, where: str):
    if key not in obj:
        raise ValidationError("PARSE", f"missing {key!r} in {where} node")
    return obj[key]


def from_json(obj, dims: Dims) -> Expr:
    """Parse and validate one expression node tree against declared dimensions."""
    if not isinstance(obj, dict):
        raise ValidationError("PARSE", f"expression node must be an object, got {type(obj).__name__}")
    kind = _req(obj, "kind", "expression")
    if kind == "affine":
        return affine(
            dims,
            c0=float(_req(obj, "c0", kind)),
            cx=_req(obj, "cx", kind),
            cy=_req(obj, "cy", kind),
            ct=_req(obj, "ct", kind),
        )
    if kind == "quad":
        return quad(
            dims,
            _req(obj, "Q", kind),
            lin=_req(obj, "lin", kind),
            c0=float(_req(obj, "c0", kind)),
            psd=bool(_req(obj, "psd", kind)),
        )
    if kind == "add":
        return add(*(from_json(ch, dims) for ch in _req(obj, "children", kind)))
    if kind == "scale":
        return scale(float(_req(obj, "lambda", kind)), from_json(_req(obj, "child", kind), dims))
    if kind == "max":
        return maximum(*(from_json(ch, dims) for ch in _req(obj, "children", kind)))
    if kind == "min":
        return minimum(*(from_json(ch, dims) for ch in _req(obj, "children", kind)))
    if kind == "abs":
        return absolute(from_json(_req(obj, "child", kind), dims))
    if kind == "dc":
        return dc(from_json(_req(obj, "plus", kind), dims), from_json(_req(obj, "minus", kind), dims))
    raise ValidationError("PARSE", f"unknown expression kind {kind!r}")
