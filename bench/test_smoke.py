"""Fast smoke test of the benchmark harness at a tiny size.

Runs every workload listed in BENCHMARK.json with one small instance,
timed and traced, and checks the result line against the declared metrics.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for _p in (str(BENCH), str(ROOT / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import codiffsp as cs  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    name: replace(wl, S=min(wl.S, 4), instances=1, solves=min(wl.solves, 1))
    for name, wl in harness.WORKLOADS.items()
}


@pytest.fixture()
def tiny(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(harness, "SETUP_REPS", 1)
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)

    def go(name, trace):
        rc = run.main(["--workload", name, "--seed", "5", "--seconds", "0.1",
                       "--trace", str(trace)], workloads=TINY)
        return rc, json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    return go


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_listed_workload_reports_declared_metrics(tiny, name, trace):
    rc, res = tiny(name, trace)
    assert rc == 0
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def _pass(records=(), **kw):
    return harness.Pass(clock=None, records=list(records), **kw)


def test_gates_reject_wrong_values():
    prob = cs.generate(1, d=2, m=2, S=3, l=2, dc=True)
    z = prob.witness
    val = cs.Phi_c(prob, harness.SPEC, z)
    ok = _pass(evals=[(prob, z, val)])
    bad = _pass(evals=[(prob, z, val * (1 + 1e-9) + 1e-9)])
    assert harness.eval_gate(ok) == []
    assert len(harness.eval_gate(bad)) == 1
    rep = cs.codiff_descent(prob, harness.C, z, cs.SolveOpts(cd_max_iter=1))
    assert harness.solve_gate(_pass(solves=[(prob, rep)])) == []
    off = replace(rep, final_value=rep.final_value + 1e-6)
    assert harness.solve_gate(_pass(solves=[(prob, off)]))
    same = _pass([{"seed": 1, "x": 0.3}])
    assert harness.determinism_gate(same, [_pass([{"seed": 1, "x": 0.3}])]) == []
    assert harness.determinism_gate(same, [_pass([{"seed": 1, "x": 0.1 + 0.2}])])


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", SPEC["workloads"][0]["name"],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
