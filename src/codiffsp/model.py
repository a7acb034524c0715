"""Problem data model for two-stage scenario programs.

A problem couples a first-stage feasible set A in R^d with an integrand
f(x, y, theta) and constraint integrands g_i(x, y, theta) over a finite
scenario space.  The scenario parameter vector theta_s carries all the
randomness, so one expression DAG serves every scenario.

Also provides JSON round-trip (problem and point files), feasibility
checking, and a seeded random instance generator.

Feasibility is one rule, feas_report: x lies in A within tol and the
largest g_i(x, y_s, theta_s) over every s and i is at most tol.
is_feasible and ``codiffsp eval`` apply it at FEAS_TOL by default, the
solvers escalate c on it at SolveOpts.tol_feas (default FEAS_TOL), and
check_optimality refuses a candidate on it at FEAS_TOL.

The tolerance ladder (tests/test_model.py::test_tolerance_ladder pins it):

    TOL_ZERO (codiff, 1e-9) gives the zero-offset slices, and so the
        superdifferential selections.  TOL_ZERO <= ACT_TOL: every slice the
        descent engine takes holds the zero-offset one.
    MEMBERSHIP_TOL (_minnorm, 1e-9) decides 0 in a hull, relative to the
        columns' largest |entry|, at least 1.  MEMBERSHIP_TOL <= tol_stat:
        on unit-scale columns, reading 0 as inside never hides a nu above
        tol_stat.
    ACT_TOL (expectation, 1e-6) is nu's final eps, the certificate's slice,
        and constraint and face activity: one eps, so that the
        certificate's set holds nu's shifted slice.
    tol_stat (SolveOpts, 1e-6) bounds nu(ACT_TOL) at a converged segment,
        and so every certificate residual when c >= 1 (optimality).
    FEAS_TOL (here, 1e-6) is the rule's tolerance, shared by the solvers
        (SolveOpts().tol_feas) and the certificate: a converged solve at the
        default options ends at a point that check_optimality accepts.
    SEGMENT_KKT_TOL (_minnorm, 1e-12) decides whether a segment-path point
        passes its KKT check or falls back to NNLS.  SEGMENT_KKT_TOL <=
        MEMBERSHIP_TOL: an accepted point is exact below the 0-in-hull rule.
    ARMIJO_ROUND (solvers, 1e-14, 45 float eps) decides progress: a smaller
        decrease, relative to 1 + |value|, is rounding, and the descent stalls.
    INNER_TOL (solvers, 1e-6) ends DCA's convex subproblem at nu(ACT_TOL)
        <= INNER_TOL <= tol_stat, no looser than DCA's outer test.
"""

from __future__ import annotations

import functools
import json
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, ParseError, ValidationError
from .expr import (  # ROWS_MIN_S: the scenario count of scenario_values' crossover
    ROWS_MIN_S,
    Expr,
    Space,
    add,
    affine,
    constant,
    dc as dc_node,
    from_json,
    maximum,
    quad,
    row_values,
    scale,
    to_json,
)

PROB_TOL = 1e-12
# The feasibility rule's tolerance (module docstring).
FEAS_TOL = 1e-6


def check_int(value, low: int, code: str, name: str) -> None:
    """ValidationError(code) unless value is an integer >= low, as a seed of
    np.random.default_rng (low = 0) or a count must be; a bool is not one."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= low):
        raise ValidationError(code, f"{name} must be an integer >= {low}, got {value!r}")


def check_c(c) -> None:
    """ValidationError(PENALTY_KIND) unless c is real and 0 <= c <= the largest float."""
    if not (isinstance(c, numbers.Real) and 0.0 <= c <= sys.float_info.max):
        raise ValidationError("PENALTY_KIND", f"penalty c must be finite and >= 0, got {c!r}")


@functools.cache
def _faces(d: int) -> np.ndarray:
    """A box's outward normals in R^d, lower faces first; built once per d."""
    return _freeze(np.vstack((-np.eye(d), np.eye(d))))


def _freeze(arr, dtype=np.float64) -> np.ndarray:
    src = arr
    arr = np.ascontiguousarray(arr, dtype=dtype)
    if arr is src and arr.flags.writeable:
        # never flip the write flag on the caller's own array
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ScenarioSpace:
    """Finite probability space: S scenarios with parameters theta_s."""

    probs: np.ndarray  # (S,)
    params: np.ndarray  # (S, q)

    def __post_init__(self):
        probs = _freeze(self.probs)
        if probs.ndim != 1 or probs.shape[0] == 0:
            raise ValidationError("PROB_SUM", "probs must be a nonempty vector")
        if not np.all(probs > 0.0):
            raise ValidationError("PROB_SUM", "every scenario probability must be > 0")
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError("PROB_SUM", f"probabilities sum to {total!r}, not 1")
        params = np.asarray(self.params, dtype=np.float64)
        if params.size == 0:
            params = params.reshape(probs.shape[0], -1)
        if params.ndim != 2 or params.shape[0] != probs.shape[0]:
            raise DimensionMismatch(
                f"params must be ({probs.shape[0]}, q), got {params.shape}"
            )
        if not np.isfinite(params).all():
            raise ValidationError("NONFINITE", "scenario params have non-finite entries")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "params", _freeze(params))

    @property
    def S(self) -> int:
        return self.probs.shape[0]

    @property
    def q(self) -> int:
        return self.params.shape[1]


@dataclass(frozen=True, eq=False)
class FirstStageSet:
    """First-stage feasible set: free, a box, or a closed ball.

    All three admit exact projections and a finite set of unit outward
    normals generating N_A(x), from which the tangent-cone projection and the
    distance to -N_A(x) follow; the solvers and the certifier rely on that.
    """

    kind: str  # free | box | ball
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    center: np.ndarray | None = None
    radius: float = 0.0

    def __post_init__(self):
        if self.kind == "free":
            pass
        elif self.kind == "box":
            lo = _freeze(self.lower)
            up = _freeze(self.upper)
            if lo.ndim != 1 or lo.shape != up.shape:
                raise DimensionMismatch("box bounds must be equal-length vectors")
            if not np.all(lo <= up):
                raise ValidationError("A_INVALID", "box requires lower <= upper")
            object.__setattr__(self, "lower", lo)
            object.__setattr__(self, "upper", up)
        elif self.kind == "ball":
            c = _freeze(self.center)
            if c.ndim != 1:
                raise DimensionMismatch("ball center must be a vector")
            if not np.isfinite(c).all():
                raise ValidationError("NONFINITE", "ball center has non-finite entries")
            if not self.radius > 0.0:
                raise ValidationError("A_INVALID", "ball requires radius > 0")
            object.__setattr__(self, "center", c)
            object.__setattr__(self, "radius", float(self.radius))
        else:
            raise ValidationError("A_INVALID", f"unknown first-stage set kind {self.kind!r}")

    # -- factories ----------------------------------------------------------

    @staticmethod
    def free() -> "FirstStageSet":
        return FirstStageSet(kind="free")

    @staticmethod
    def box(lower, upper) -> "FirstStageSet":
        return FirstStageSet(kind="box", lower=np.asarray(lower), upper=np.asarray(upper))

    @staticmethod
    def ball(center, radius: float) -> "FirstStageSet":
        return FirstStageSet(kind="ball", center=np.asarray(center), radius=float(radius))

    # -- geometry -----------------------------------------------------------

    def check_dim(self, d: int) -> None:
        if self.kind == "box" and self.lower.shape[0] != d:
            raise DimensionMismatch(f"box bounds have length {self.lower.shape[0]}, expected {d}")
        if self.kind == "ball" and self.center.shape[0] != d:
            raise DimensionMismatch(f"ball center has length {self.center.shape[0]}, expected {d}")

    def violation(self, x: np.ndarray) -> float:
        """0 inside; positive scalar measuring how far outside."""
        if self.kind == "free":
            return 0.0
        if self.kind == "box":
            over = np.maximum(self.lower - x, x - self.upper)
            return float(max(0.0, over.max()))
        return float(max(0.0, np.linalg.norm(x - self.center) - self.radius))

    def contains(self, x, tol: float = FEAS_TOL) -> bool:
        return self.violation(np.asarray(x, dtype=np.float64)) <= tol

    def project(self, x) -> np.ndarray:
        """The nearest point of A to x (d,), or to each row of x (n, d), each
        with the bits of its one-point projection: sqrt(vecdot(u, u)) has
        those of np.linalg.norm(u)."""
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "free":
            return x.copy()
        if self.kind == "box":
            return np.clip(x, self.lower, self.upper)
        u = x - self.center
        r = np.sqrt(np.vecdot(u, u))[..., None]
        inside = r <= self.radius
        return np.where(inside, x, self.center + u * (self.radius / np.where(inside, 1.0, r)))

    def normal_rays(self, x, tol: float = 1e-9) -> np.ndarray:
        """Unit outward normals (r, d) of the faces of A within tol of x; their
        cone is N_A(x) when tol covers only the faces through x."""
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "box":
            return _faces(len(x))[np.concatenate((x <= self.lower + tol, x >= self.upper - tol))]
        if self.kind == "ball":
            u = x - self.center
            r = float(np.linalg.norm(u))
            if r >= self.radius - tol and r > 0.0:
                return (u / r)[None, :]
        return np.zeros((0, x.shape[0]))

    def normal_residual(self, x, v, tol: float = 1e-9) -> float:
        """Distance from v to -N_A(x), the norm of the tangent-cone projection
        h of -v (Moreau).  Zero certifies v in -N_A(x).  The normals of a box
        or a ball are orthogonal or opposite in pairs, so h is -v minus each
        normal's positive part."""
        R = self.normal_rays(x, tol)
        h = -np.asarray(v, dtype=np.float64)
        return float(np.linalg.norm(h - np.maximum(R @ h, 0.0) @ R))


@dataclass(frozen=True, eq=False)
class Point:
    """Candidate (x, y): first-stage vector plus one recourse row per scenario."""

    x: np.ndarray  # (d,)
    y: np.ndarray  # (S, m)

    def __post_init__(self):
        x = _freeze(self.x)
        y = np.asarray(self.y, dtype=np.float64)
        if y.size == 0:
            y = y.reshape(max(1, y.shape[0] if y.ndim >= 1 else 1), -1)
        if x.ndim != 1 or y.ndim != 2:
            raise DimensionMismatch("point needs x (d,) and y (S, m)")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValidationError("NONFINITE", "point has non-finite entries")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", _freeze(y))


@dataclass(frozen=True, eq=False)
class TwoStageProblem:
    """Immutable problem container; safe for shared reads."""

    d: int
    m: int
    A: FirstStageSet
    f: Expr
    g: tuple[Expr, ...]
    scenarios: ScenarioSpace
    p_exponent: float = 2.0
    witness: Point | None = None

    def __post_init__(self):
        check_int(self.d, 1, "DIM_MISMATCH", "d")
        check_int(self.m, 1, "DIM_MISMATCH", "m")
        if not (1.0 < self.p_exponent < np.inf):
            raise ValidationError("P_EXPONENT", "p_exponent must lie in (1, inf)")
        self.A.check_dim(self.d)
        object.__setattr__(self, "g", tuple(self.g))
        dims = (self.d, self.m, self.scenarios.q)
        for label, e in (("f", self.f), *((f"g[{i}]", gi) for i, gi in enumerate(self.g))):
            if e.dims is not None and e.dims != dims:
                raise DimensionMismatch(
                    f"{label} is declared over dims {e.dims}, problem has {dims}"
                )
        if self.witness is not None:
            self.check_point(self.witness)

    @property
    def S(self) -> int:
        return self.scenarios.S

    @property
    def ell(self) -> int:
        return len(self.g)

    @functools.cached_property
    def g_plus(self) -> Expr:
        """max{0, g_1, ..., g_l}, the l1_max penalty's integrand; built once
        per problem, on first use, so its tape is too."""
        return maximum(constant(0.0), *self.g)

    def penalty_integrand(self, c: float) -> Expr:
        """f + c * g_plus, the l1_max penalized integrand, or f when l = 0 or
        c = 0; built once per problem and c, on first use, as g_plus is, so
        its tape is too; c passes check_c."""
        check_c(c)
        if self.ell == 0 or c == 0.0:
            return self.f
        c = float(c)
        if c not in self._penalty_integrands:
            self._penalty_integrands[c] = add(self.f, scale(c, self.g_plus))
        return self._penalty_integrands[c]

    @functools.cached_property
    def _penalty_integrands(self) -> dict:
        return {}

    @functools.cached_property
    def _dc_splits(self) -> dict:
        """solvers.dc_decompose's splits, per c."""
        return {}

    def check_point(self, z: Point) -> None:
        if z.x.shape[0] != self.d or z.y.shape != (self.S, self.m):
            raise DimensionMismatch(
                f"point shapes {z.x.shape}/{z.y.shape} do not match "
                f"d={self.d}, S={self.S}, m={self.m}"
            )

    def scenario_values(self, expr: Expr, z: Point) -> np.ndarray:
        """expr(x, y_s, theta_s) for every scenario s, an (S,) array with
        ``evaluate``'s bits at each scenario: expr.row_values at the root,
        one pass on (S,) columns from ROWS_MIN_S scenarios on and a float
        pass per scenario below."""
        self.check_point(z)
        return row_values(expr, z.x, z.y, self.scenarios.params)[0]


@dataclass(frozen=True)
class FeasReport:
    """Outcome of the feasibility rule with the argmax violation located."""

    feasible: bool
    x_violation: float
    max_violation: float  # max_{i,s} g_i(x, y_s, theta_s); -inf when l = 0
    worst_constraint: int  # -1 when l = 0
    worst_scenario: int
    tol: float


def feas_report(x_violation: float, G: np.ndarray, tol: float = FEAS_TOL) -> FeasReport:
    """The feasibility rule (module docstring) on A's violation and the
    (l, S) constraint values G, G[i, s] = g_i(x, y_s, theta_s).  The report
    locates the first largest value in constraint-major order, the entry
    that a loop over i, then s, with a strict > keeps; a NaN fails the rule."""
    if not G.size:
        return FeasReport(x_violation <= tol, x_violation, -np.inf, -1, -1, tol)
    i, s = divmod(int(np.argmax(G)), G.shape[1])
    worst = float(G[i, s])
    return FeasReport(x_violation <= tol and worst <= tol, x_violation, worst, i, s, tol)


def is_feasible(prob: TwoStageProblem, z: Point, tol: float = FEAS_TOL):
    """(ok, report) of feas_report at z: one scenario_values pass per
    constraint."""
    prob.check_point(z)
    G = np.array([prob.scenario_values(gi, z) for gi in prob.g]).reshape(prob.ell, prob.S)
    rep = feas_report(prob.A.violation(z.x), G, tol)
    return rep.feasible, rep


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


def _read_obj(source) -> dict:
    if isinstance(source, dict):
        return source
    if isinstance(source, Path):
        text = source.read_text()
    elif isinstance(source, str):
        if source.lstrip().startswith("{"):
            text = source
        else:
            p = Path(source)
            if not p.exists():
                raise ParseError(f"no such file: {source}")
            text = p.read_text()
    else:
        raise ParseError(f"cannot load from {type(source).__name__}")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    return obj


def _require(obj: dict, key: str):
    if key not in obj:
        raise ParseError(f"missing required key {key!r}")
    return obj[key]


def _set_from_json(obj: dict) -> FirstStageSet:
    kind = _require(obj, "kind")
    if kind == "free":
        return FirstStageSet.free()
    if kind == "box":
        return FirstStageSet.box(_require(obj, "lower"), _require(obj, "upper"))
    if kind == "ball":
        return FirstStageSet.ball(_require(obj, "center"), float(_require(obj, "radius")))
    raise ValidationError("A_INVALID", f"unknown first-stage set kind {kind!r}")


def _set_to_json(A: FirstStageSet) -> dict:
    if A.kind == "free":
        return {"kind": "free"}
    if A.kind == "box":
        return {"kind": "box", "lower": A.lower.tolist(), "upper": A.upper.tolist()}
    return {"kind": "ball", "center": A.center.tolist(), "radius": A.radius}


def _parse_errors(load):
    """Report a malformed value that a loader meets (the ValueError or
    TypeError of a failed conversion) as ParseError; CodiffspErrors, such as
    validation codes, pass through unchanged."""

    @functools.wraps(load)
    def wrapped(source):
        try:
            return load(source)
        except (ValueError, TypeError) as e:
            raise ParseError(f"malformed value: {e}") from None

    return wrapped


@_parse_errors
def load_point(source) -> Point:
    obj = _read_obj(source)
    return Point(x=np.asarray(_require(obj, "x")), y=np.asarray(_require(obj, "y")))


def serialize_point(z: Point) -> dict:
    return {"x": z.x.tolist(), "y": z.y.tolist()}


@_parse_errors
def load_problem(source) -> TwoStageProblem:
    """Build a fully validated problem from a dict, a JSON text, or a file path."""
    obj = _read_obj(source)
    d, m = _require(obj, "d"), _require(obj, "m")
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) and float(v).is_integer()
               for v in (d, m)):
        raise ParseError(f"d and m must be integers, got {d!r} and {m!r}")
    d, m = int(d), int(m)
    sc = _require(obj, "scenarios")
    probs = np.asarray(_require(sc, "probs"), dtype=np.float64)
    S = probs.shape[0] if probs.ndim == 1 else 0
    params = sc.get("params")
    if params is None:
        params = np.zeros((S, 0))
    else:
        params = np.asarray(params, dtype=np.float64)
        if params.size == 0:
            params = params.reshape(S, -1) if params.ndim >= 1 else np.zeros((S, 0))
    scenarios = ScenarioSpace(probs=probs, params=params)
    dims = (d, m, scenarios.q)
    f = from_json(_require(obj, "f"), dims)
    g = tuple(from_json(gi, dims) for gi in _require(obj, "g"))
    witness = None
    if obj.get("witness") is not None:
        witness = load_point(obj["witness"])
    return TwoStageProblem(
        d=d,
        m=m,
        A=_set_from_json(_require(obj, "A")),
        f=f,
        g=g,
        scenarios=scenarios,
        p_exponent=float(obj.get("p", 2.0)),
        witness=witness,
    )


def serialize_problem(prob: TwoStageProblem) -> dict:
    dims = (prob.d, prob.m, prob.scenarios.q)
    out = {
        "d": prob.d,
        "m": prob.m,
        "p": prob.p_exponent,
        "A": _set_to_json(prob.A),
        "scenarios": {
            "probs": prob.scenarios.probs.tolist(),
            "params": prob.scenarios.params.tolist(),
        },
        "f": to_json(prob.f, dims),
        "g": [to_json(gi, dims) for gi in prob.g],
    }
    if prob.witness is not None:
        out["witness"] = serialize_point(prob.witness)
    return out


# ---------------------------------------------------------------------------
# seeded instance generator
# ---------------------------------------------------------------------------


def _psd_matrix(rng, n: int, scale: float) -> np.ndarray:
    M = rng.normal(size=(n, n)) / max(1.0, np.sqrt(n))
    return scale * (M.T @ M)


def generate(
    seed: int,
    *,
    d: int,
    m: int,
    S: int,
    l: int,
    dc: bool = True,
    smooth: bool = False,
) -> TwoStageProblem:
    """Deterministic random instance.

    The objective is coercive by construction: its convex quadratic part
    dominates the concave part by a margin mu > 0, so f >= mu|z|^2 plus
    lower-order terms.  Each constraint is shifted so the recorded witness
    point is strictly feasible with a positive margin in every scenario.
    """
    for name, value, low in (("d", d, 1), ("m", m, 1), ("S", S, 1), ("l", l, 0), ("seed", seed, 0)):
        check_int(value, low, "GEN_SPEC", name)
    rng = np.random.default_rng(seed)
    q = m
    n = d + m
    sp = Space(d=d, m=m, q=q)

    raw = rng.uniform(0.5, 1.5, S)
    probs = raw / raw.sum()
    probs[-1] += 1.0 - probs.sum()
    params = rng.normal(size=(S, q))

    x_w = rng.uniform(-0.5, 0.5, d)
    half = rng.uniform(0.6, 1.4, d)
    A = FirstStageSet.box(x_w - half, x_w + half)
    y_w = rng.uniform(-0.5, 0.5, (S, m))

    def rand_affine(scale: float = 1.0) -> Expr:
        return affine(
            sp.dims,
            c0=float(rng.normal() * scale),
            cx=rng.normal(size=d) * scale,
            cy=rng.normal(size=m) * scale,
            ct=rng.normal(size=q) * scale,
        )

    nu = float(rng.uniform(0.05, 0.15))
    mu = float(rng.uniform(0.2, 0.5))
    P_Q = _psd_matrix(rng, n, 0.3) + (mu + nu) * np.eye(n)
    plus_parts = [
        quad(sp.dims, P_Q, lin=rng.normal(size=n) * 0.5, c0=float(rng.normal() * 0.5), psd=True),
        rand_affine(0.5),
    ]
    if not smooth:
        plus_parts.append(maximum(*(rand_affine(0.7) for _ in range(3))))
    plus = add(*plus_parts)
    if smooth:
        f = plus
    elif dc:
        minus = quad(
            sp.dims,
            _psd_matrix(rng, n, 0.05) + nu * np.eye(n),
            lin=rng.normal(size=n) * 0.3,
            psd=True,
        )
        f = dc_node(plus, minus)
    else:
        f = plus

    g = []
    for i in range(l):
        if smooth:
            raw_g = rand_affine(1.0)
        elif dc and i % 2 == 1:
            raw_g = dc_node(
                maximum(rand_affine(1.0), rand_affine(1.0)),
                quad(sp.dims, _psd_matrix(rng, n, 0.03), psd=True),
            )
        else:
            raw_g = maximum(rand_affine(1.0), rand_affine(1.0))
        worst = max(row_values(raw_g, x_w, y_w, params)[0].tolist())
        margin = float(rng.uniform(0.3, 0.8))
        g.append(add(raw_g, constant(-(worst + margin))))

    return TwoStageProblem(
        d=d,
        m=m,
        A=A,
        f=f,
        g=tuple(g),
        scenarios=ScenarioSpace(probs=probs, params=params),
        witness=Point(x=x_w, y=y_w),
    )
