"""Shared builders for the test suite.

Random expression corpora track an analytic curvature modulus K alongside
each expression: K bounds the spectral norm of the Hessian of every smooth
piece, so the first-order expansion error along any unit ray is at most
(K / 2) * alpha^2.  Kinks contribute nothing to that error because the
vertex offsets reproduce the piecewise-linear skeleton exactly.
"""

import sys

import numpy as np

from codiffsp import (
    FirstStageSet,
    Point,
    ScenarioSpace,
    Space,
    TwoStageProblem,
    VertexCapExceeded,
    absolute,
    add,
    affine,
    codiff,
    constant,
    dc,
    evaluate,
    maximum,
    minimum,
    quad,
    scale,
)


# ---------------------------------------------------------------------------
# random expression-DAG corpus


def rand_affine(rng, dims):
    d, m, q = dims
    e = affine(dims, float(rng.normal()), rng.normal(size=d), rng.normal(size=m),
               rng.normal(size=q))
    return e, 0.0


def rand_psd_quad(rng, dims):
    d, m, q = dims
    n = d + m
    B = rng.normal(size=(n, n)) / np.sqrt(n)
    Q = B @ B.T
    e = quad(dims, Q, lin=rng.normal(size=n), c0=float(rng.normal()), psd=True)
    return e, float(np.linalg.eigvalsh(Q)[-1])


def rand_quad(rng, dims):
    d, m, q = dims
    n = d + m
    B = rng.normal(size=(n, n)) / np.sqrt(n)
    Q = (B + B.T) / 2.0
    e = quad(dims, Q, lin=rng.normal(size=n), c0=float(rng.normal()))
    return e, float(np.abs(np.linalg.eigvalsh(Q)).max())


def random_convex(rng, dims, depth):
    if depth <= 0:
        return rand_affine(rng, dims) if rng.random() < 0.5 else rand_psd_quad(rng, dims)
    k = rng.integers(0, 4)
    if k == 0:
        a, ka = random_convex(rng, dims, depth - 1)
        b, kb = random_convex(rng, dims, depth - 1)
        return add(a, b), ka + kb
    if k == 1:
        lam = float(rng.uniform(0.1, 2.0))
        a, ka = random_convex(rng, dims, depth - 1)
        return scale(lam, a), lam * ka
    if k == 2:
        a, ka = random_convex(rng, dims, depth - 1)
        b, kb = random_convex(rng, dims, depth - 1)
        return maximum(a, b), max(ka, kb)
    return rand_psd_quad(rng, dims)


def random_expr(rng, dims, depth):
    """(expr, K): a random DAG plus its curvature modulus."""
    if depth <= 0:
        r = rng.random()
        if r < 0.3:
            return rand_affine(rng, dims)
        if r < 0.6:
            return rand_quad(rng, dims)
        return constant(float(rng.normal())), 0.0
    k = rng.integers(0, 7)
    if k == 0:
        a, ka = random_expr(rng, dims, depth - 1)
        b, kb = random_expr(rng, dims, depth - 1)
        return add(a, b), ka + kb
    if k == 1:
        lam = float(rng.uniform(-2.0, 2.0))
        a, ka = random_expr(rng, dims, depth - 1)
        return scale(lam, a), abs(lam) * ka
    if k == 2:
        a, ka = random_expr(rng, dims, depth - 1)
        b, kb = random_expr(rng, dims, depth - 1)
        return maximum(a, b), max(ka, kb)
    if k == 3:
        a, ka = random_expr(rng, dims, depth - 1)
        b, kb = random_expr(rng, dims, depth - 1)
        return minimum(a, b), max(ka, kb)
    if k == 4:
        a, ka = random_expr(rng, dims, depth - 1)
        return absolute(a), ka
    if k == 5:
        a, ka = random_convex(rng, dims, depth - 1)
        b, kb = random_convex(rng, dims, depth - 1)
        return dc(a, b), ka + kb
    return rand_quad(rng, dims)


def random_dims(rng):
    # d + m <= 6 overall
    d = int(rng.integers(1, 4))
    m = int(rng.integers(0, 6 - d + 1))
    q = int(rng.integers(0, 3))
    return Space(d=d, m=m, q=q).dims


def random_case(rng, max_depth=5, box=2.0):
    """(dims, expr, K, x, y, theta) whose codifferential fits the vertex cap."""
    while True:
        dims = random_dims(rng)
        d, m, q = dims
        f, K = random_expr(rng, dims, int(rng.integers(1, max_depth + 1)))
        x = rng.uniform(-box, box, d)
        y = rng.uniform(-box, box, m)
        th = rng.uniform(-box, box, q)
        try:
            codiff(f, x, y, th)
        except VertexCapExceeded:
            continue
        return dims, f, K, x, y, th


def kinkify(rng, dims, f, x, y, th):
    """Wrap f so the result has an active kink at (x, y, th)."""
    d, m, q = dims
    cx = rng.normal(size=d)
    cy = rng.normal(size=m)
    ct = rng.normal(size=q)
    a = affine(dims, 0.0, cx, cy, ct)
    av = evaluate(a, x, y, th)
    if rng.random() < 0.5:
        # |a - a(z)| kinks exactly at z
        return add(f, absolute(add(a, constant(-av))))
    # max(f, tilted copy agreeing with f at z)
    fv = evaluate(f, x, y, th)
    return maximum(f, affine(dims, fv - av, cx, cy, ct))


def one_sided_richardson(f, x, y, th, hx, hy):
    """Extrapolated one-sided difference quotient along (hx, hy)."""
    f0 = evaluate(f, x, y, th)
    D = [(evaluate(f, x + a * hx, y + a * hy, th) - f0) / a
         for a in (1e-3, 1e-4, 1e-5)]
    d1 = (10.0 * D[1] - D[0]) / 9.0
    d2 = (10.0 * D[2] - D[1]) / 9.0
    return (100.0 * d2 - d1) / 99.0


# ---------------------------------------------------------------------------
# problems with known second-stage geometry (for the projection oracles)


def box_problem(rng, m, S):
    """One-sided bound rows per coordinate; returns (prob, rows) where
    rows[j] = (hi, cxh, cth, lo, cxl, ctl) so the scenario-s feasible interval
    for y_j is [-lo + cxl@x + ctl@th, hi - cxh@x - cth@th]."""
    d = 1
    dims = Space(d=d, m=m, q=1).dims
    g = []
    rows = []
    for j in range(m):
        up = np.zeros(m)
        up[j] = 1.0
        hi = float(rng.uniform(0.5, 2.0))
        cxh = rng.uniform(-0.3, 0.3, d)
        cth = rng.uniform(-0.2, 0.2, 1)
        g.append(affine(dims, -hi, cxh, up, cth))
        dn = np.zeros(m)
        dn[j] = -1.0
        lo = float(rng.uniform(0.5, 2.0))
        cxl = rng.uniform(-0.3, 0.3, d)
        ctl = rng.uniform(-0.2, 0.2, 1)
        g.append(affine(dims, -lo, cxl, dn, ctl))
        rows.append((hi, cxh, cth, lo, cxl, ctl))
    probs = rng.uniform(0.2, 1.0, S)
    probs /= probs.sum()
    sc = ScenarioSpace(probs=probs, params=rng.uniform(-1, 1, (S, 1)))
    f = affine(dims, 0.0, np.ones(d), np.ones(m), np.zeros(1))
    wit = Point(x=np.zeros(d), y=np.zeros((S, m)))
    prob = TwoStageProblem(d=d, m=m, A=FirstStageSet.free(), f=f, g=tuple(g),
                           scenarios=sc, witness=wit)
    return prob, rows


def box_bounds(rows, x, th_s):
    lo = np.array([-lo_ + float(cxl @ x) + float(ctl @ th_s)
                   for (_, _, _, lo_, cxl, ctl) in rows])
    hi = np.array([hi_ - float(cxh @ x) - float(cth @ th_s)
                   for (hi_, cxh, cth, _, _, _) in rows])
    return lo, hi


def ball_problem(rng, m, S):
    """Single quadratic row alpha*|y - z0|^2 <= alpha*rr^2 - lx@x;
    returns (prob, (alpha, z0, lx, rr))."""
    d = 1
    dims = Space(d=d, m=m, q=1).dims
    n = d + m
    alpha = float(rng.uniform(0.5, 2.0))
    z0 = rng.uniform(-1, 1, m)
    Q = np.zeros((n, n))
    Q[d:, d:] = 2.0 * alpha * np.eye(m)
    lx = rng.uniform(-0.1, 0.1, d)
    lin = np.concatenate([lx, -2.0 * alpha * z0])
    rr = float(rng.uniform(1.0, 2.0))
    c0 = alpha * float(z0 @ z0) - alpha * rr * rr
    g = quad(dims, Q, lin=lin, c0=c0, psd=True)
    probs = rng.uniform(0.2, 1.0, S)
    probs /= probs.sum()
    sc = ScenarioSpace(probs=probs, params=np.zeros((S, 1)))
    f = affine(dims, 0.0, np.ones(d), np.ones(m), np.zeros(1))
    wit = Point(x=np.zeros(d), y=np.tile(z0, (S, 1)))
    prob = TwoStageProblem(d=d, m=m, A=FirstStageSet.free(), f=f, g=(g,),
                           scenarios=sc, witness=wit)
    return prob, (alpha, z0, lx, rr)


# ---------------------------------------------------------------------------
# tiny pinned problems


def one_scenario(q=0):
    return ScenarioSpace(probs=np.array([1.0]), params=np.zeros((1, q)))


def coupled_1d():
    """min (x-2)^2 + (x-y)^2  s.t.  y <= 1,  x in [-5, 5], one scenario.

    Constrained optimum: y = 1, x = 1.5, value 0.5.
    """
    dims = Space(d=1, m=1, q=0).dims
    Q = np.array([[4.0, -2.0], [-2.0, 2.0]])
    f = quad(dims, Q, lin=[-4.0, 0.0], c0=4.0, psd=True)
    g = affine(dims, -1.0, [0.0], [1.0], [])
    return TwoStageProblem(d=1, m=1, A=FirstStageSet.box([-5.0], [5.0]), f=f,
                           g=(g,), scenarios=one_scenario(),
                           witness=Point(x=[0.0], y=[[0.0]]))


def smooth_free_1d():
    """min (x-2)^2 + (x-y)^2 unconstrained; optimum x = y = 2, value 0."""
    dims = Space(d=1, m=1, q=0).dims
    Q = np.array([[4.0, -2.0], [-2.0, 2.0]])
    f = quad(dims, Q, lin=[-4.0, 0.0], c0=4.0, psd=True)
    return TwoStageProblem(d=1, m=1, A=FirstStageSet.free(), f=f, g=(),
                           scenarios=one_scenario())


def abs_free_1d():
    """min |x| as max(x, -x), second stage unused; minimum at 0."""
    dims = Space(d=1, m=1, q=0).dims
    f = maximum(affine(dims, 0.0, [1.0], [0.0], []),
                affine(dims, 0.0, [-1.0], [0.0], []))
    return TwoStageProblem(d=1, m=1, A=FirstStageSet.free(), f=f, g=(),
                           scenarios=one_scenario())


def concave_kinks(S):
    """S equiprobable scenarios, theta_s = 0, x in [-5, 5], no constraints:
    f = (x^2 + y^2)/2 + y - |y - theta|.

    At (0, 0) every scenario sits on its concave kink with two zero-offset
    hyper vertices, 2^S selections in all; along -y f falls at rate 2 and
    reaches its minimum -2 at y_s = -2.
    """
    dims = Space(d=1, m=1, q=1).dims
    f = dc(add(quad(dims, np.eye(2), psd=True), affine(dims, cy=[1.0])),
           absolute(affine(dims, cy=[1.0], ct=[-1.0])))
    sc = ScenarioSpace(probs=np.full(S, 1.0 / S), params=np.zeros((S, 1)))
    return TwoStageProblem(d=1, m=1, A=FirstStageSet.box([-5.0], [5.0]), f=f, g=(),
                           scenarios=sc, witness=Point(x=[0.0], y=np.zeros((S, 1))))


def lambda_two_instance():
    """x pinned to 0 by a degenerate box, f = (y-1)^2, g: y <= 0.

    KKT at (0, 0): grad_y f = -2, so the single multiplier is 2.
    """
    dims = Space(d=1, m=1, q=0).dims
    Q = np.zeros((2, 2))
    Q[1, 1] = 2.0
    f = quad(dims, Q, lin=[0.0, -2.0], c0=1.0, psd=True)
    g = affine(dims, 0.0, [0.0], [1.0], [])
    return TwoStageProblem(d=1, m=1, A=FirstStageSet.box([0.0], [0.0]), f=f,
                           g=(g,), scenarios=one_scenario(),
                           witness=Point(x=[0.0], y=[[-1.0]]))


def boundary_point(p, seed):
    """Each y_s moved from the witness along a seeded ray to where max_i g_i
    reaches 0 from below, by bisection: feasible, some constraint active."""
    rng = np.random.default_rng(seed)
    x, Y = p.witness.x, p.witness.y.copy()
    for s, th in enumerate(p.scenarios.params):
        hi = np.inf
        while hi == np.inf:  # a ray that leaves the feasible set
            u = rng.normal(size=p.m)
            gmax = lambda t: max(evaluate(g, x, Y[s] + t * u, th) for g in p.g)
            hi = next((2.0**k for k in range(20) if gmax(2.0**k) > 0.0), np.inf)
        lo = 0.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if gmax(mid) <= 0.0 else (lo, mid)
        Y[s] = Y[s] + lo * u
    return Point(x=x, y=Y)


def ragged_case():
    """(problem, point): nine abs terms give f 2^9 hypo vertices, more than
    a rows pass keeps, so f is differentiated one scenario at a time (one
    block per scenario); scenario 0 sits on four convex kinks and scenario
    1 on the concave one, scenario 2 on neither; one constraint y <= 0.7."""
    rng = np.random.default_rng(17)
    sp = Space(d=1, m=1, q=1)
    x, Y, TH = np.array([0.3]), np.array([[0.2], [-0.4], [0.7]]), np.array([[0.1], [-0.2], [0.5]])
    terms = []
    for i in range(9):
        cx, cy, ct = rng.normal(size=1), rng.normal(size=1), rng.normal(size=1)
        c0 = -float(cx @ x + cy @ Y[0] + ct @ TH[0]) if i < 4 else float(rng.normal())
        terms.append(absolute(sp.affine(c0, cx, cy, ct)))
    kink = absolute(sp.affine(-float(Y[1, 0]), cy=[1.0]))
    f = dc(add(quad(sp.dims, np.eye(2), psd=True), *terms), kink)
    g = sp.affine(-0.7, cy=[1.0])
    p = TwoStageProblem(d=1, m=1, A=FirstStageSet.box([-1.0], [1.0]), f=f, g=(g,),
                        scenarios=ScenarioSpace(probs=np.full(3, 1 / 3), params=TH))
    return p, Point(x=x, y=Y)


def rebind(monkeypatch, orig, repl):
    """Point every name that refers to ``orig`` in every codiffsp module at
    ``repl``: modules bind library functions at import time, so patching
    one module misses the calls made through the others.  Returns the
    number of names rebound."""
    count = 0
    for name, mod in sorted(sys.modules.items()):
        if mod is not None and (name == "codiffsp" or name.startswith("codiffsp.")):
            for key, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, key, repl)
                    count += 1
    return count
