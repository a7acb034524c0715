"""Workloads, timed passes, correctness gates and metrics of the benchmark.

A run builds its inputs from the workload seed (instance seeds are
``seed, seed + 1, ...``), then repeats passes over the same inputs until the
time budget is spent.  A pass runs four phases for each instance in turn,
each timed as the wall time of the library calls inside it, scaled by the
machine's speed (``SpeedClock``):

    solve    codiff_descent / dca_solve from the witness, at c = 10
    eval     Phi_c + penalty_codiff at every evaluation point
    certify  check_optimality + inf_stationarity_measure (64 directions)
    nondeg   check_nondegeneracy (200 samples) per instance

Only the public ``codiffsp`` API is called.  Gates, quality statistics and
input generation run outside the timed regions.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy

import codiffsp as cs
from speed import SpeedClock
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"  # span files of traced runs

C = 10.0
SPEC = cs.PenaltySpec("l1_max", C)
INF_DIRECTIONS = 64
NONDEG_SAMPLES = 200
CERT_TOL = 1e-6  # feasibility and residual bound of a certified point
VALUE_RTOL = 1e-12  # gates on recomputed objective values
SETUP_REPS = 5  # fresh processes timed per run, spread over the first pass
N_CHECK = 1  # instances re-run after the timed passes for the determinism gate
PHASES = ("solve", "eval", "certify", "nondeg")

# boundary points: grid refinement of a bracketing interval along a ray
RAY_TRIES = 16
T_MAX = 2.0**20
GRID = 64
GRID_ROUNDS = 5


@dataclass(frozen=True)
class Workload:
    """Every instance is evaluated, certified and checked for
    nondegeneracy; the first ``solves`` instances are also solved."""

    S: int
    instances: int
    solves: int = 0
    solver: str | None = None  # "cd" or "dca" when solves > 0
    solve_opts: dict = field(default_factory=dict)


WORKLOADS = {
    # One DCA outer iteration per solve: convex_subsolve's scalar evaluate
    # calls dominate and min-norm is nearly absent from the solve.  The
    # cheaper phases run on more instances than the solve, because their
    # per-instance cost varies more.
    "dca_step": Workload(
        S=3, instances=120, solves=30, solver="dca",
        solve_opts={"max_iter": 1, "escalate": False},
    ),
    # S = 100, no solve: the per-scenario loops in expectation and penalty
    # dominate; min-norm runs on certificate and nondegeneracy hulls.
    "wide_eval": Workload(S=100, instances=18),
    # Full solves to the solvers' own stop.  Not in BENCHMARK.json: one
    # solve's time depends so much on the instance that a run's total moves
    # by more than any allowed bound from one seed window to the next.
    "cd_small": Workload(S=3, instances=8, solves=8, solver="cd"),
    "dca_small": Workload(S=3, instances=4, solves=4, solver="dca"),
}


def dims(wl: Workload) -> dict:
    return {"d": 2, "m": 2, "S": wl.S, "l": 2, "dc": True}


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    from codiffsp import _minnorm

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "codiffsp": cs.__version__,
        "minnorm_backend": "numba" if _minnorm.USING_NUMBA else "numpy",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "CODIFFSP_THREADS": os.environ.get("CODIFFSP_THREADS"),
        "processes": 1,
    }


# ---------------------------------------------------------------------------
# inputs


@dataclass
class Item:
    seed: int
    prob: cs.TwoStageProblem
    eval_points: list  # [(label, Point)]
    certify_points: list  # [(label, Point)]; a solve adds its final point


def build_problems(wl: Workload, seeds) -> list:
    """generate, then the serialize_problem -> JSON -> load_problem round
    trip a command-line user pays on every call."""
    return [
        cs.load_problem(json.dumps(cs.serialize_problem(cs.generate(s, **dims(wl)))))
        for s in seeds
    ]


def _gmax_batch(prob, x, Ys, theta) -> np.ndarray:
    return np.max([cs.evaluate_batch(g, x[None, :], Ys, theta) for g in prob.g], axis=0)


def edge_points(prob, seed: int) -> tuple:
    """(boundary, infeasible) points: each y_s moves from the witness along a
    seeded unit ray.  The boundary point sits where max_i g_i reaches 0 from
    below (feasible, constraints active); the infeasible point is the first
    coarse grid point past the crossing (penalty active)."""
    rng = np.random.default_rng(seed)
    x = prob.witness.x
    Y0 = prob.witness.y
    Yb = Y0.copy()
    Yi = Y0.copy()
    for s in range(prob.S):
        th = prob.scenarios.params[s]
        for _ in range(RAY_TRIES):
            u = rng.standard_normal(prob.m)
            u /= np.linalg.norm(u)
            hi = 1.0
            while hi < T_MAX and _gmax_batch(prob, x, (Y0[s] + hi * u)[None, :], th)[0] <= 0.0:
                hi *= 2.0
            if hi < T_MAX:
                break
        else:
            raise RuntimeError(f"no constraint crossing found in scenario {s}")
        lo = 0.0
        first_bad = hi
        for r in range(GRID_ROUNDS):
            ts = np.linspace(lo, hi, GRID + 1)
            bad = np.flatnonzero(_gmax_batch(prob, x, Y0[s] + ts[:, None] * u, th) > 0.0)
            bad = bad[bad > 0]
            if bad.size == 0:
                break
            lo, hi = ts[bad[0] - 1], ts[bad[0]]
            if r == 0:
                first_bad = hi
        Yb[s] = Y0[s] + lo * u
        Yi[s] = Y0[s] + first_bad * u
    return cs.Point(x=x, y=Yb), cs.Point(x=x, y=Yi)


def build_items(seeds, probs) -> list:
    items = []
    for s, prob in zip(seeds, probs):
        zb, zi = edge_points(prob, s)
        items.append(Item(
            seed=s,
            prob=prob,
            eval_points=[("witness", prob.witness), ("boundary", zb), ("infeasible", zi)],
            certify_points=[("witness", prob.witness), ("boundary", zb)],
        ))
    return items


# ---------------------------------------------------------------------------
# one pass


@dataclass
class Pass:
    clock: SpeedClock
    records: list  # one JSON-able dict per instance
    attempted: int = 0
    failed: int = 0
    solves: list = field(default_factory=list)  # (prob, report)
    certs: list = field(default_factory=list)  # (label, Certificate or None if it raised)
    evals: list = field(default_factory=list)  # (prob, Point, Phi_c value)

    @property
    def times(self) -> dict:
        return self.clock.scaled

    @property
    def total(self) -> float:
        return sum(self.times.values())


def _digest(bc) -> str:
    h = hashlib.sha256()
    for pair in bc.per_scenario:
        h.update(pair.hypo.tobytes())
        h.update(pair.hyper.tobytes())
    return h.hexdigest()[:16]


def _solve(wl: Workload, prob, z0):
    opts = cs.SolveOpts(**wl.solve_opts)
    if wl.solver == "cd":
        return cs.codiff_descent(prob, C, z0, opts)
    return cs.dca_solve(prob, C, z0, opts)


class _Call:
    """Times one library call into a phase and counts its outcome; a call
    that raises is recorded as failed and the pass goes on."""

    def __init__(self, ps: Pass, phase: str):
        self.ps = ps
        self.phase = phase

    def __call__(self, fn, *args, **kwargs):
        self.ps.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # recorded, counted, reported
            self.ps.clock.add(self.phase, time.perf_counter() - t0)
            self.ps.failed += 1
            if not isinstance(exc, cs.CodiffspError):
                traceback.print_exc(file=sys.stderr)
            return None, {"error": getattr(exc, "code", type(exc).__name__)}
        self.ps.clock.add(self.phase, time.perf_counter() - t0)
        return out, None


def _finite(v: float, ps: Pass) -> None:
    if not math.isfinite(v):
        ps.failed += 1


def run_pass(wl: Workload, items, tracer: Tracer | None = None, before_item=None) -> Pass:
    """One pass over the items.  Phases interleave per instance, so each
    phase's time is spread over the whole pass and sees the same mix of
    machine speeds as the others.  ``before_item(i)`` runs untimed before
    item i."""
    ps = Pass(clock=SpeedClock(PHASES), records=[])

    def phase(name):
        if tracer is not None:
            tracer.phase = name
        return _Call(ps, name)

    for i, it in enumerate(items):
        if before_item is not None:
            before_item(i)
        rec = {"seed": it.seed}
        ps.records.append(rec)
        eval_points = list(it.eval_points)
        certify_points = list(it.certify_points)

        if i < wl.solves:
            rep, err = phase("solve")(_solve, wl, it.prob, it.prob.witness)
            if err is None:
                _finite(rep.final_value, ps)
                ps.solves.append((it.prob, rep))
                eval_points.append(("final", rep.final_point))
                certify_points.append(("final", rep.final_point))
            rec["solve"] = err or {
                "status": rep.status,
                "iterates": rep.iterates,
                "final_value": rep.final_value,
                "final_phi": rep.final_phi,
                "c_final": rep.c_final,
                "point": cs.serialize_point(rep.final_point),
                "history": [list(h) for h in rep.history],
            }

        call = phase("eval")
        rec["eval"] = []
        for label, z in eval_points:
            val, err = call(cs.Phi_c, it.prob, SPEC, z)
            if err is None:
                _finite(val, ps)
                ps.evals.append((it.prob, z, val))
            bc, err2 = call(cs.penalty_codiff, it.prob, SPEC, z)
            rec["eval"].append({"point": label, "Phi_c": err or val,
                                "codiff": err2 or _digest(bc)})

        call = phase("certify")
        rec["certify"] = []
        for label, z in certify_points:
            cert, err = call(cs.check_optimality, it.prob, C, z)
            ps.certs.append((label, cert))
            inf, err2 = call(cs.inf_stationarity_measure, it.prob, C, z, directions=INF_DIRECTIONS)
            if err2 is None:
                _finite(inf, ps)
            rec["certify"].append({"point": label, "certificate": err or cert.to_json(),
                                   "inf_stationarity": err2 or inf})

        rep, err = phase("nondeg")(cs.check_nondegeneracy, it.prob,
                                   samples=NONDEG_SAMPLES, seed=it.seed)
        if err is None:
            _finite(rep.min_hull_distance, ps)
        rec["nondeg"] = err or {
            "sampled_points": rep.sampled_points,
            "min_hull_distance": rep.min_hull_distance,
            "witness_scenario": rep.witness_scenario,
        }
    ps.clock.flush()
    if tracer is not None:
        tracer.phase = ""
    return ps


# ---------------------------------------------------------------------------
# correctness gates (outside the timed regions)


def solve_gate(ps: Pass) -> list[str]:
    """Each solve's final_value equals Phi_c recomputed at its final point
    and is at most the value at the start point."""
    errors = []
    for prob, rep in ps.solves:
        spec = cs.PenaltySpec("l1_max", rep.c_final)
        again = cs.Phi_c(prob, spec, rep.final_point)
        if abs(rep.final_value - again) > VALUE_RTOL * max(1.0, abs(again)):
            errors.append(f"final_value {rep.final_value!r} != Phi_c {again!r}")
        z0 = cs.Point(x=prob.A.project(prob.witness.x), y=prob.witness.y)
        start = cs.Phi_c(prob, spec, z0)
        if not rep.final_value <= start:
            errors.append(f"final_value {rep.final_value!r} above start value {start!r}")
    return errors


def eval_gate(ps: Pass) -> list[str]:
    """Phi_c agrees with a per-scenario evaluate_batch recomputation of the
    penalized integrand, relative to the sum of |p_s * value_s|."""
    errors = []
    for prob, z, val in ps.evals:
        integrand = cs.penalty_integrand(prob, C)
        th = prob.scenarios.params
        per = np.array([
            cs.evaluate_batch(integrand, z.x[None, :], z.y[s][None, :], th[s])[0]
            for s in range(prob.S)
        ])
        p = prob.scenarios.probs
        total = float(p @ per)
        if abs(val - total) > VALUE_RTOL * float(p @ np.abs(per)):
            errors.append(f"Phi_c {val!r} != per-scenario recomputation {total!r}")
    return errors


def determinism_gate(reference: Pass, others) -> list[str]:
    """The canonical JSON of every result is byte-identical between runs of
    the same inputs in one process."""
    errors = []
    for other in others:
        n = len(other.records)
        if canonical(other.records) != canonical(reference.records[:n]):
            errors.append(f"results differ between two runs over {n} instances")
    return errors


# ---------------------------------------------------------------------------
# statistics


def quality(ps: Pass) -> dict:
    """Where the solves stopped and how well the candidates certify.  A
    solve counts as certified when check_optimality accepts its final point
    as feasible (tolerance 1e-6) and every residual is at most 1e-6."""
    reps = [rep for _, rep in ps.solves]
    certs = [c for _, c in ps.certs if c is not None]
    finals = [c for label, c in ps.certs if label == "final"]
    final_res = [max(c.residuals.values()) for c in finals if c is not None]
    steps = [h[2] for rep in reps for h in rep.history[1:]]
    return {
        "solvers.final_value": statistics.fmean(r.final_value for r in reps) if reps else 0.0,
        "solvers.iterations": sum(r.iterates for r in reps),
        "solvers.step_accept_frac": sum(s > 0.0 for s in steps) / len(steps) if steps else 0.0,
        "solvers.status_converged_frac":
            sum(r.status == "converged" for r in reps) / len(reps) if reps else 0.0,
        "solvers.cert_residual": max(final_res, default=0.0),
        "optimality.cert_residual": max((max(c.residuals.values()) for c in certs), default=0.0),
        "optimality.certified_frac":
            sum(r <= CERT_TOL for r in final_res) / len(finals) if finals else 0.0,
        "optimality.checked_selections": sum(c.checked_selections for c in certs),
        "bench.failed_frac": ps.failed / ps.attempted if ps.attempted else 0.0,
    }


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name in ("solvers.final_value", "solvers.cert_residual", "optimality.cert_residual"):
        return "value"
    return "count"


# ---------------------------------------------------------------------------
# runs


def setup_probe(wl: Workload, seeds) -> dict:
    """Set-up seconds of a fresh process (see setup_probe.py): scaled and
    raw."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    arg = json.dumps({"seeds": list(seeds), "dims": dims(wl)})
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), arg],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> value
    report: dict  # everything printed before the result line


def timed_run(wl: Workload, seed: int, seconds: float) -> Outcome:
    seeds = range(seed, seed + wl.instances)
    items = build_items(seeds, build_problems(wl, seeds))
    # set-up processes spread over the first pass, so that one slow stretch
    # of the host does not set the run's median
    marks = {k * len(items) // SETUP_REPS for k in range(SETUP_REPS)}
    setup = []

    def between(i):
        if not passes and i in marks:
            setup.append(setup_probe(wl, seeds))

    passes = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(wl, items, before_item=between))
        now = time.perf_counter()
        if now - t_start + (now - t0) > seconds:
            break
    first = passes[0]
    recheck = run_pass(wl, items[:N_CHECK])
    errors = solve_gate(first) + eval_gate(first) + determinism_gate(first, passes[1:] + [recheck])
    med = {ph: statistics.median(p.times[ph] for p in passes) for ph in PHASES}
    metrics = {
        "setup_s": statistics.median(x["setup_s"] for x in setup),
        "pass_s": statistics.median(p.total for p in passes),
        "certify_s": med["certify"],
        "eval_s": med["eval"],
        "nondeg_s": med["nondeg"],
    }
    report = {
        "passes": len(passes),
        "setup_s_samples": setup,
        "phase_s": med,
        "phase_raw_s": {ph: statistics.median(p.clock.raw[ph] for p in passes) for ph in PHASES},
        "quality": quality(first),
        "gate_errors": errors,
    }
    return Outcome(not errors, first.attempted, first.failed, metrics, report)


def traced_run(wl: Workload, seed: int, name: str) -> Outcome:
    """One untraced pass, then the same pass with every public function
    wrapped; the difference of their wall times is the tracing overhead."""
    seeds = range(seed, seed + wl.instances)
    items = build_items(seeds, build_problems(wl, seeds))
    untraced = run_pass(wl, items)
    tracer = Tracer()
    with tracer:
        tracer.phase = "setup"
        probs = build_problems(wl, seeds)
        traced = run_pass(wl, [replace(it, prob=p) for it, p in zip(items, probs)], tracer)
    errors = solve_gate(untraced) + eval_gate(untraced) + determinism_gate(untraced, [traced])
    top = tracer.top_level_by_phase()
    overhead = traced.total - untraced.total
    metrics = tracer.layer_metrics()
    metrics.update(quality(untraced))
    metrics.update({f"phase.{ph}_s": untraced.times[ph] for ph in PHASES})
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / untraced.total
    metrics["trace.span_cover_frac"] = (
        sum(top.get(ph, 0.0) for ph in PHASES) / sum(traced.clock.raw.values()))
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"spans-{name}-{seed}.npz")
    report = {
        "phase_s": {
            ph: {"untraced": untraced.clock.raw[ph], "traced": traced.clock.raw[ph],
                 "top_level_spans": top.get(ph, 0.0)}
            for ph in PHASES
        },
        "spans": len(tracer.spans),
        "gate_errors": errors,
    }
    return Outcome(not errors, untraced.attempted, untraced.failed, metrics, report)


def run(name: str, seed: int, seconds: float, trace: bool, workloads=None) -> Outcome:
    wl = (workloads or WORKLOADS)[name]
    if trace:
        out = traced_run(wl, seed, name)
    else:
        out = timed_run(wl, seed, seconds)
    out.report = {"workload": name, "seed": seed, "S": wl.S, "instances": wl.instances,
                  "solves": wl.solves, "environment": environment(), **out.report}
    return out


def result_line(out: Outcome) -> str:
    return json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in out.metrics.items()},
    })
