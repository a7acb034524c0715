"""Command-line surface.

Reports are canonical JSON (sorted keys, fixed separators, trailing
newline) written to the output path or stdout, so equal inputs produce
byte-identical bytes; one-line human summaries go to stderr.

Exit codes: 0 success, 2 validation or usage error, 3 solver stopped
without converging (the report is still written).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import CodiffspError, NonFinite
from .expectation import eval_I
from .model import (
    FEAS_TOL,
    Point,
    generate,
    is_feasible,
    load_point,
    load_problem,
    serialize_point,
    serialize_problem,
)
from .optimality import _inf_stationarity, check_optimality, inf_stationarity_measure
from .penalty import PenaltySpec, Phi_c, check_nondegeneracy, phi_dist, phi_l1
from .solvers import SolveOpts, codiff_descent, dca_solve

_PENALTY_KIND = {"l1": "l1_max", "dist": "dist_p"}


def _canonical(obj: dict) -> str:
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
    except ValueError:  # strict JSON has no inf or nan
        bad = sorted(k for k, v in obj.items() if isinstance(v, float) and not math.isfinite(v))
        raise NonFinite(f"report value not finite: {', '.join(bad) or 'nested'}") from None


def _emit(report: dict, path: str | None) -> None:
    text = _canonical(report)
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _opts_from(args) -> SolveOpts:
    kw = {}
    for name in ("tol_feas", "tol_stat", "max_iter", "cd_max_iter"):
        v = getattr(args, name, None)
        if v is not None:
            kw[name] = v
    if getattr(args, "no_escalate", False):
        kw["escalate"] = False
    return SolveOpts(**kw)


def _start_point(prob, args) -> Point:
    if getattr(args, "start", None):
        return load_point(args.start)
    if prob.witness is not None:
        return prob.witness
    return Point(x=prob.A.project(np.zeros(prob.d)), y=np.zeros((prob.S, prob.m)))


def _cmd_eval(args) -> int:
    prob = load_problem(args.input)
    z = load_point(args.point)
    ok, rep = is_feasible(prob, z, tol=args.tol_feas)
    report = {
        "command": "eval",
        "I": eval_I(prob, z),
        "feasible": bool(ok),
        "x_violation": rep.x_violation,
        "max_violation": rep.max_violation,
        "worst_constraint": rep.worst_constraint,
        "worst_scenario": rep.worst_scenario,
    }
    if args.c is not None:
        spec = PenaltySpec(_PENALTY_KIND[args.penalty], args.c)
        phi = phi_l1(prob, z) if args.penalty == "l1" else phi_dist(prob, z)
        report["penalty"] = args.penalty
        report["c"] = args.c
        report["phi"] = phi
        report["Phi_c"] = Phi_c(prob, spec, z)
    _emit(report, args.output)
    _say(f"I = {report['I']:.9g}, feasible = {ok}")
    return 0


def _cmd_solve(args) -> int:
    prob = load_problem(args.input)
    if args.penalty != "l1":
        raise CodiffspError(
            "PENALTY_UNSUPPORTED",
            "solvers minimize the l1 penalty only; dist has no DC split here",
        )
    z0 = _start_point(prob, args)
    opts = _opts_from(args)
    solve = dca_solve if args.solver == "dca" else codiff_descent
    rep = solve(prob, args.c, z0, opts)
    report = {
        "command": "solve",
        "solver": args.solver,
        "penalty": args.penalty,
        "c": args.c,
        "c_final": rep.c_final,
        "status": rep.status,
        "exhaustive": rep.exhaustive,
        "iterates": rep.iterates,
        "final_value": rep.final_value,
        "final_phi": rep.final_phi,
        "point": serialize_point(rep.final_point),
        "history": [list(h) for h in rep.history],
    }
    _emit(report, args.output)
    if args.point_out:
        Path(args.point_out).write_text(_canonical(serialize_point(rep.final_point)))
    _say(
        f"{args.solver}: {rep.status}, value {rep.final_value:.9g}, "
        f"phi {rep.final_phi:.3g}, {rep.iterates} iterations"
    )
    return 0 if rep.status == "converged" else 3


def _cmd_certify(args) -> int:
    prob = load_problem(args.input)
    z = load_point(args.point)
    cert = check_optimality(prob, args.c, z)
    inf, exhaustive = _inf_stationarity(prob, args.c, z)
    report = {"command": "certify", **cert.to_json(),
              "inf_stationarity": inf, "inf_exhaustive": exhaustive}
    _emit(report, args.output)
    worst = max(cert.residuals.values())
    _say(f"certificate residuals: max {worst:.3e}, budget {cert.budget_sum:.3g}")
    return 0


def _cmd_check_nondeg(args) -> int:
    prob = load_problem(args.input)
    rep = check_nondegeneracy(prob, samples=args.samples, seed=args.seed)
    # no infeasible sample found leaves the distance at +inf; strict JSON has no inf
    dist = rep.min_hull_distance if math.isfinite(rep.min_hull_distance) else None
    report = {
        "command": "check-nondeg",
        "sampled_points": rep.sampled_points,
        "min_hull_distance": dist,
        "witness_scenario": rep.witness_scenario,
    }
    if rep.witness_x is not None:
        report["witness"] = {"x": rep.witness_x.tolist(), "y": rep.witness_y.tolist()}
    else:
        report["witness"] = None
    _emit(report, args.output)
    if dist is None:
        _say(f"no infeasible samples among {args.samples} draws per radius bound")
    else:
        _say(f"min hull distance {dist:.6g} over {rep.sampled_points} points")
    return 0


def _cmd_generate(args) -> int:
    smooth = bool(args.smooth)
    dc = True if args.dc else not smooth
    prob = generate(args.seed, d=args.d, m=args.m, S=args.S, l=args.l, dc=dc, smooth=smooth)
    _emit(serialize_problem(prob), args.output)
    _say(f"generated d={args.d} m={args.m} S={args.S} l={args.l} dc={dc} smooth={smooth}")
    return 0


def _cmd_selftest(args) -> int:
    from . import (
        FirstStageSet, ScenarioSpace, Space, TwoStageProblem, absolute, add, affine, dc,
        min_norm_point, quad,
    )

    failures = []

    def check(name: str, fn) -> None:
        try:
            fn()
        except Exception as e:  # selftest reports, never raises
            failures.append(f"{name}: {e}")

    def t_minnorm():
        q, _ = min_norm_point(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]))
        assert np.linalg.norm(q) <= 1e-9

    def t_generate_roundtrip():
        prob = generate(3, d=2, m=2, S=3, l=2)
        again = load_problem(serialize_problem(prob))
        z = prob.witness
        assert abs(eval_I(prob, z) - eval_I(again, z)) == 0.0
        ok, _ = is_feasible(prob, z)
        assert ok

    def t_solve_and_certify():
        prob = generate(5, d=2, m=2, S=2, l=1, dc=False, smooth=True)
        rep = dca_solve(prob, 10.0, prob.witness)
        assert rep.status == "converged"
        vals = [h[0] for h in rep.history]
        assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))
        cert = check_optimality(prob, 10.0, rep.final_point)
        assert max(cert.residuals.values()) <= SolveOpts().tol_stat

    def t_descent():
        prob = generate(5, d=2, m=2, S=2, l=1, dc=False, smooth=True)
        rep = codiff_descent(prob, 10.0, prob.witness)
        assert rep.status == "converged"

    dims = Space(d=1, m=1, q=0).dims

    def box_1d(f, g=(), S=1):
        scenarios = ScenarioSpace(probs=np.full(S, 1.0 / S), params=np.zeros((S, 0)))
        return TwoStageProblem(d=1, m=1, A=FirstStageSet.box([-5.0], [5.0]), f=f, g=g,
                               scenarios=scenarios)

    def t_escalation():
        # min (x-2)^2 + (x-y)^2 s.t. y <= 1, x in [-5, 5]: c = 0.01 is too
        # small to hold a stationary point feasible; both solvers raise c
        # tenfold until (1.5, 1) is stationary
        f = quad(dims, [[4.0, -2.0], [-2.0, 2.0]], lin=[-4.0, 0.0], c0=4.0, psd=True)
        prob = box_1d(f, (affine(dims, -1.0, [0.0], [1.0], []),))
        z0 = Point(x=[0.0], y=[[0.0]])
        for solve in (dca_solve, codiff_descent):
            rep = solve(prob, 0.01, z0)
            assert rep.status == "converged" and rep.c_final == 1.0 and rep.final_phi <= 1e-6, (
                f"{solve.__name__}: {rep.status} at c {rep.c_final}, phi {rep.final_phi:.3g}")

    def t_selections():
        # (x^2 + y^2)/2 + y - |y| in 5 scenarios, each on its kink, falls at
        # rate 2 along -y: 32 selections, past ENUM_CAP, and the worst counts
        prob = box_1d(dc(add(quad(dims, np.eye(2), psd=True), affine(dims, cy=[1.0])),
                         absolute(affine(dims, cy=[1.0]))), S=5)
        z = Point(x=[0.0], y=np.zeros((5, 1)))
        nu, cert = inf_stationarity_measure(prob, 10.0, z), check_optimality(prob, 10.0, z)
        assert nu <= -1.0 and cert.residual_stationarity >= 1.0, (
            f"nu {nu:.3g}, stationarity residual {cert.residual_stationarity:.3g}")

    checks = [
        ("min_norm_point", t_minnorm),
        ("generate_roundtrip", t_generate_roundtrip),
        ("solve_and_certify", t_solve_and_certify),
        ("codiff_descent", t_descent),
        ("escalation", t_escalation),
        ("selections", t_selections),
    ]
    for name, fn in checks:
        check(name, fn)
    report = {"command": "selftest", "passed": len(checks) - len(failures), "failed": failures}
    _emit(report, args.output)
    _say("selftest: " + ("ok" if not failures else f"{len(failures)} failed"))
    return 0 if not failures else 1


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="codiffsp",
        description="two-stage nonsmooth stochastic programs via codifferentials",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_io(sp, point: bool = False):
        sp.add_argument("-i", "--input", required=True, help="problem JSON path")
        if point:
            sp.add_argument("--point", required=True, help="point JSON path {x, y}")
        sp.add_argument("-o", "--output", default=None, help="report path (default stdout)")

    sp = sub.add_parser("eval", help="evaluate I and penalties at a point")
    add_io(sp, point=True)
    sp.add_argument("--penalty", choices=("l1", "dist"), default="l1")
    sp.add_argument("--c", type=float, default=None)
    sp.add_argument("--tol-feas", dest="tol_feas", type=float, default=FEAS_TOL,
                    help="feasible when x lies in A and max g_i over every scenario is "
                         "at most this (default %(default)s, certify's)")
    sp.set_defaults(fn=_cmd_eval)

    sp = sub.add_parser("solve", help="minimize the penalized objective")
    add_io(sp)
    sp.add_argument("--solver", choices=("dca", "cd"), default="dca")
    sp.add_argument("--penalty", choices=("l1", "dist"), default="l1")
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--start", default=None, help="initial point JSON (default: witness)")
    sp.add_argument("--point-out", dest="point_out", default=None, help="also write the final point")
    sp.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    sp.add_argument("--cd-max-iter", dest="cd_max_iter", type=int, default=None)
    sp.add_argument("--tol-feas", dest="tol_feas", type=float, default=None,
                    help="escalation's feasibility test: max g_i over every scenario "
                         f"at most this (default {FEAS_TOL}, certify's)")
    sp.add_argument("--tol-stat", dest="tol_stat", type=float, default=None)
    sp.add_argument("--no-escalate", dest="no_escalate", action="store_true",
                    help="keep c fixed; by default c grows tenfold (at most 5 times) "
                         "while a solve ends stationary with max g_i above --tol-feas")
    sp.set_defaults(fn=_cmd_solve)

    sp = sub.add_parser("certify", help="check optimality conditions at a point")
    add_io(sp, point=True)
    sp.add_argument("--c", type=float, required=True)
    sp.set_defaults(fn=_cmd_certify)

    sp = sub.add_parser("check-nondeg", help="sample the constraint nondegeneracy constant")
    add_io(sp)
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=_cmd_check_nondeg)

    sp = sub.add_parser("generate", help="emit a seeded random instance")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--S", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--dc", action="store_true", help="include a concave part (default unless --smooth)")
    sp.add_argument("--smooth", action="store_true", help="smooth f and affine g")
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(fn=_cmd_generate)

    sp = sub.add_parser("selftest", help="run a built-in end-to-end battery")
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(fn=_cmd_selftest)

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CodiffspError as e:
        _say(str(e))
        return 2
    except OSError as e:
        _say(f"[IO] {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
