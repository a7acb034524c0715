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
construction from its children's flags.  A block of rows, a point
(x, y_r, theta_r) per row, comes in through five front doors: ``evaluate``
(one row), ``evaluate_batch`` (the root's values), ``row_values``,
``TwoStageProblem.scenario_values`` and the codifferential's rows pass
(``codiff._vertex_blocks``).  Each has its block checked and shaped by
``_rows``, the one statement of what a block may be, and by nothing else.
``row_values`` is the one choice between a float pass per row and one pass
on (N,) columns, made at ROWS_MIN_S rows.  The codifferential calculus
walks the same tape once per expression, to compile ``Expr._plan``
(``codiff``).

``node_values`` evaluates every node by the expression's compiled value
function, in one of two variants generated from the tape on first use and
cached like it: floats for one point (``Expr._values``) and (n,) columns
(``Expr._columns``).  It is straight-line Python, one statement per term,
so no node's width nests an expression.  An atom starts from c0 (a quad
from 0.0: 0.5 * sum_i z_i * sum_j Q_ij z_j, then lin, then c0) and adds
coefficient * coordinate for each nonzero coefficient in ascending order;
a sum starts from the literal 0.0 (0.0 + -0.0 is +0.0) and adds its
children in order; a max or min keeps its first extreme child, the
builtins' rule, which np.where repeats on columns where np.maximum and
np.minimum would take the second, so a 0.0 / -0.0 tie keeps its sign.
Every product and sum rounds on its own, with no BLAS reduction and no
fused multiply-add, so both variants give a point the same bits whatever
the batch size, as does an interpreter loop that applies the same
operations node by node (the tests keep one as the reference).  The source
holds tape and coordinate indices and operators only; every coefficient,
c0, lambda and constant is an argument default.  So expressions of one
shape (node kinds, child positions and atoms' nonzero patterns) share one
code object, compiled on the shape's first use and kept for the process
(``_SHAPES``), and binding an expression's numbers to it makes a new
function.  That function does not pickle: ``Expr.__getstate__`` leaves it
out, and a copy binds its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import FunctionType

import numpy as np

from .errors import CodiffspError, DimensionMismatch, NotDC, ValidationError

Dims = tuple[int, int, int]  # (d, m, q)

# Rows from which row_values evaluates all N rows in one node_values pass on
# (N,) columns.  Below it a float pass per row costs less: at d = m = l = 2 a
# pass on columns costs about as much as 24 compiled float passes, whatever
# N is, for the penalized integrand (110 us against 4.6 us per row), DCA's
# convex part and f, and as much as 14 for g_0 (18 against 1.3 us).
ROWS_MIN_S = 24


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
        """(pattern, coefficients) of an affine or quad atom: the indices of
        its nonzero coefficients into the concatenated point w = (x, y,
        theta), and those coefficients as Python floats in the order its
        value adds them, c0 included.

        affine: pattern (j, ...), coefficients (c0, c_j, ...); quad: pattern
        (rows, lin) with rows ((i, (j, ...)), ...) for the nonzero Q_ij and
        lin (j, ...), coefficients (Q_ij row by row, lin_j, ..., c0).
        """
        def nonzero(coeffs):
            return [(j, c) for j, c in enumerate(coeffs) if c != 0.0]

        if self.kind == "affine":
            terms = nonzero(np.concatenate((self.cx, self.cy, self.ct)).tolist())
            return tuple(j for j, _c in terms), (self.c0, *(c for _j, c in terms))
        rows = [(i, nonzero(row)) for i, row in enumerate(self.Q.tolist())]
        rows = [(i, row) for i, row in rows if row]
        lin = nonzero(self.lin.tolist())
        pattern = (tuple((i, tuple(j for j, _c in row)) for i, row in rows),
                   tuple(j for j, _c in lin))
        coeffs = [c for _i, row in rows for _j, c in row] + [c for _j, c in lin]
        return pattern, (*coeffs, self.c0)

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

    @cached_property
    def _plan(self):
        """The codifferential plan of ``codiff._compile``, or None where the
        expression has none; compiled once, on first use."""
        from .codiff import _compile

        return _compile(self)

    @cached_property
    def _values(self) -> FunctionType:
        """node_values' function of one point, w -> [float per node]."""
        return _value_function(self._tape, False)

    @cached_property
    def _columns(self) -> FunctionType:
        """node_values' function of columns, (w, n) -> [(n,) array per node]."""
        return _value_function(self._tape, True)

    def __getstate__(self) -> dict:
        # a generated function does not pickle; an unpickled copy binds anew
        state = dict(self.__dict__)
        state.pop("_values", None)
        state.pop("_columns", None)
        return state


def _frozen(a, shape_len: int | None = None) -> np.ndarray:
    """A read-only float64 copy of a."""
    arr = np.array(a, dtype=np.float64)
    if shape_len is not None and arr.shape != (shape_len,):
        raise DimensionMismatch(f"expected length {shape_len}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError("NONFINITE", "non-finite coefficient")
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


def _rows(expr: Expr, X, Y, TH) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one check and shape of a block of rows (X[r], Y[r], TH[r]) for a
    rows pass.  X is one (d,) row shared by every row, a (1, d) block or an
    (N, d) block; Y is (N, m), or (1, m) for every row; TH is one (q,) row,
    a (1, q) block or an (N, q) block.  N may be 0.  The widths must be
    expr.dims where it is declared; any other shape is a DimensionMismatch.

    Returns (X, Y, TH) with X (d,) or (N, d), Y (N, m) and TH (q,) or
    (N, q): a one-row X or TH block becomes its shared row, and a one-row
    Y is broadcast to N rows, which copies no value."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    TH = np.asarray(TH, dtype=np.float64)
    counts = {len(a) for a in (X, Y, TH) if a.ndim == 2} - {1}
    if (X.ndim not in (1, 2) or Y.ndim != 2 or TH.ndim not in (1, 2) or len(counts) > 1
            or expr.dims is not None
            and (X.shape[-1], Y.shape[1], TH.shape[-1]) != expr.dims):
        raise DimensionMismatch(f"row blocks {X.shape}, {Y.shape} and {TH.shape} are not "
                                f"shared rows or (N, .) blocks of one N over dims {expr.dims}")
    N = counts.pop() if counts else 1
    if X.ndim == 2 and len(X) == 1:
        X = X[0]
    if TH.ndim == 2 and len(TH) == 1:
        TH = TH[0]
    if len(Y) != N:
        Y = np.broadcast_to(Y, (N, Y.shape[1]))
    return X, Y, TH


_ATOMS = ("affine", "quad")


def _value_source(tape: tuple, columns: bool) -> str:
    """The source of the value function of a tape: straight-line Python that
    does node_values' operations (see the module docstring) in tape order,
    one statement per term, and returns every node's value in a list.  It
    names node values v<tape index>, coordinates w<coordinate index> and
    the t-th entry of _coefficients(tape) k<t>, an argument that takes it
    as its default; it holds no number but the literal 0.0 starts and the
    quad's 0.5."""
    lines, used, t = [], set(), 0

    def k() -> str:
        nonlocal t
        t += 1
        return f"k{t - 1}"

    for i, (e, kids) in enumerate(tape):
        v, kind = f"v{i}", e.kind
        if kind == "constant":
            lines.append(f"{v} = full(n, {k()})" if columns else f"{v} = {k()}")
        elif kind == "affine":
            pattern, _coeffs = e._terms
            used.update(pattern)
            lines.append(f"{v} = {k()}")
            lines += [f"{v} = {v} + {k()} * w{j}" for j in pattern]
        elif kind == "quad":
            (rows, lin), _coeffs = e._terms
            lines.append("s = 0.0")
            for r, row in rows:
                used.add(r)
                used.update(row)
                lines.append("r = 0.0")
                lines += [f"r = r + {k()} * w{j}" for j in row]
                lines.append(f"s = s + w{r} * r")
            used.update(lin)
            lines.append(f"{v} = 0.5 * s")
            lines += [f"{v} = {v} + {k()} * w{j}" for j in lin]
            lines.append(f"{v} = {v} + {k()}")
        elif kind == "add":
            lines.append(f"{v} = 0.0")
            lines += [f"{v} = {v} + v{j}" for j in kids]
        elif kind == "scale":
            lines.append(f"{v} = {k()} * v{kids[0]}")
        elif kind in ("max", "min"):
            op = ">" if kind == "max" else "<"
            lines.append(f"{v} = v{kids[0]}")
            lines += [f"{v} = where(v{j} {op} {v}, v{j}, {v})" if columns
                      else f"if v{j} {op} {v}: {v} = v{j}" for j in kids[1:]]
        elif kind == "abs":
            lines.append(f"{v} = abs(v{kids[0]})")
        elif kind == "dc":
            lines.append(f"{v} = v{kids[0]} - v{kids[1]}")
        else:  # pragma: no cover
            raise CodiffspError("PARSE", f"unknown node kind {kind!r}")
        if columns and kind in _ATOMS:  # an atom that reads no column
            lines.append(f"if not isinstance({v}, ndarray): {v} = full(n, {v})")
    args = ["w"] + ["n"] * columns + [f"k{u}" for u in range(t)]
    body = [f"w{j} = w[{j}]" for j in sorted(used)] + lines
    body.append("return [" + ", ".join(f"v{i}" for i in range(len(tape))) + "]")
    return f"def values({', '.join(args)}):\n    " + "\n    ".join(body) + "\n"


def _coefficients(tape: tuple) -> list:
    """The numbers of a tape in its value source's order: each constant's
    value, each atom's coefficients and each scale's lambda."""
    out = []
    for e, _kids in tape:
        if e.kind in _ATOMS:
            out += e._terms[1]
        elif e.kind == "constant":
            out.append(e.value)
        elif e.kind == "scale":
            out.append(e.lam)
    return out


# value functions by shape, one per variant and DAG structure (node kinds,
# child positions, atoms' nonzero patterns), which fixes the source
_SHAPES: dict[tuple, FunctionType] = {}
_NAMESPACE = {"where": np.where, "full": np.full, "ndarray": np.ndarray}


def _value_function(tape: tuple, columns: bool) -> FunctionType:
    """The tape's value function with its coefficients bound as defaults:
    a new function on the code object of its shape, compiled on the
    shape's first use in the process."""
    key = (columns, *((e.kind, kids, e._terms[0] if e.kind in _ATOMS else None)
                      for e, kids in tape))
    shape = _SHAPES.get(key)
    if shape is None:
        namespace = dict(_NAMESPACE)
        exec(compile(_value_source(tape, columns), "<expr values>", "exec"), namespace)
        shape = _SHAPES[key] = namespace["values"]
    return FunctionType(shape.__code__, shape.__globals__, "values", tuple(_coefficients(tape)))


def node_values(expr: Expr, w: list, n: int | None = None) -> list:
    """Value of every node of ``expr._tape`` at w = (x, y, theta), in tape
    order, by the expression's compiled value function.

    With ``n`` None, w holds floats (one point) and the values are floats.
    Otherwise every y entry of w is an (n,) column, each x and theta entry a
    float shared by every row or an (n,) column, and every value is an (n,)
    array whose rows have the bits of a float pass (module docstring).
    """
    return expr._values(w) if n is None else expr._columns(w, n)


def _row_values(expr: Expr, X: np.ndarray, Y: np.ndarray, TH: np.ndarray,
                at: tuple) -> np.ndarray:
    """row_values on rows that _rows has already checked and shaped."""
    N = Y.shape[0]
    if N < ROWS_MIN_S:
        xs = [X.tolist()] * N if X.ndim == 1 else X.tolist()
        ts = [TH.tolist()] * N if TH.ndim == 1 else TH.tolist()
        fn = expr._values
        rows = [fn(x + y + t) for x, y, t in zip(xs, Y.tolist(), ts)]
        return np.array([v[i] for i in at for v in rows]).reshape(len(at), N)
    xs = X.tolist() if X.ndim == 1 else list(X.T)
    ts = TH.tolist() if TH.ndim == 1 else list(TH.T)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = node_values(expr, xs + list(Y.T) + ts, N)
    return np.array([vals[i] for i in at])


def row_values(expr: Expr, X, Y, TH, at=(-1,)) -> np.ndarray:
    """The values of the tape nodes ``at`` at the N rows (X[r], Y[r], TH[r]),
    a (len(at), N) array, a row per node, with ``evaluate``'s bits in every
    entry.  The blocks are checked and shaped by _rows: a shared x or theta
    row, one-row blocks and N = 0 are all allowed.

    From ROWS_MIN_S rows on, one node_values pass takes y as (N,) columns
    and a shared x or theta as floats; below, node_values runs once per row
    on floats.  An overflow yields inf or nan silently on either path, as it
    does on floats."""
    return _row_values(expr, *_rows(expr, X, Y, TH), at)


def evaluate(expr: Expr, x, y=(), theta=()) -> float:
    """Evaluate the DAG at a single point.  Deterministic, total on finite input."""
    x, y, theta = (np.asarray(a, dtype=np.float64).ravel() for a in (x, y, theta))
    x, Y, theta = _rows(expr, x, y[None], theta)
    return node_values(expr, x.tolist() + Y[0].tolist() + theta.tolist())[-1]


def evaluate_batch(expr: Expr, X, Y, theta) -> np.ndarray:
    """The (N,) values at the rows of (X, Y, theta), each bit-identical to
    ``evaluate`` at that row: row_values at the root, so the blocks take
    any shape that _rows accepts."""
    return row_values(expr, X, Y, theta)[0]


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
