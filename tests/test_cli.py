"""End-to-end command-line runs in subprocesses."""

import json
import subprocess
import sys

import pytest

from codiffsp import serialize_point, serialize_problem
from conftest import concave_kinks, coupled_1d

CLI = [sys.executable, "-m", "codiffsp.cli"]


def run(*argv, cwd=None):
    return subprocess.run(CLI + list(argv), capture_output=True, text=True, cwd=cwd)


@pytest.fixture()
def prob_file(tmp_path):
    fp = tmp_path / "prob.json"
    r = run("generate", "--seed", "7", "--d", "2", "--m", "2", "--S", "3",
            "--l", "2", "--dc", "-o", str(fp))
    assert r.returncode == 0, r.stderr
    return fp


def test_generate_deterministic_bytes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ("generate", "--seed", "7", "--d", "2", "--m", "2", "--S", "3",
            "--l", "2", "--dc")
    assert run(*args, "-o", str(a)).returncode == 0
    assert run(*args, "-o", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_schema(prob_file):
    obj = json.loads(prob_file.read_text())
    assert set(obj) >= {"d", "m", "p", "A", "scenarios", "f", "g", "witness"}
    assert obj["d"] == 2 and len(obj["g"]) == 2
    assert len(obj["scenarios"]["probs"]) == 3


def test_eval_reports_feasibility(prob_file, tmp_path):
    obj = json.loads(prob_file.read_text())
    pt = tmp_path / "pt.json"
    pt.write_text(json.dumps(obj["witness"]))
    r = run("eval", "-i", str(prob_file), "--point", str(pt), "--c", "5.0")
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["command"] == "eval"
    assert rep["feasible"] is True
    assert rep["phi"] == 0.0
    assert rep["Phi_c"] == rep["I"]


def test_solve_writes_report_and_point(prob_file, tmp_path):
    out = tmp_path / "out.json"
    pt = tmp_path / "final.json"
    r = run("solve", "-i", str(prob_file), "--c", "10", "--solver", "dca",
            "--penalty", "l1", "-o", str(out), "--point-out", str(pt))
    assert r.returncode == 0, r.stderr
    rep = json.loads(out.read_text())
    assert rep["status"] == "converged"
    assert set(rep) >= {"solver", "c", "c_final", "iterates", "final_value",
                        "final_phi", "point", "history", "exhaustive"}
    assert rep["exhaustive"] is True
    vals = [h[0] for h in rep["history"]]
    assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))
    final = json.loads(pt.read_text())
    assert final == rep["point"]


def test_solve_deterministic_bytes(prob_file, tmp_path):
    a = tmp_path / "ra.json"
    b = tmp_path / "rb.json"
    args = ("solve", "-i", str(prob_file), "--c", "10", "--solver", "cd")
    # determinism must hold whatever the stopping status was
    assert run(*args, "-o", str(a)).returncode in (0, 3)
    assert run(*args, "-o", str(b)).returncode in (0, 3)
    assert a.read_bytes() == b.read_bytes()


def test_solve_rejects_dist_penalty(prob_file):
    r = run("solve", "-i", str(prob_file), "--c", "1", "--penalty", "dist")
    assert r.returncode == 2
    assert "PENALTY_UNSUPPORTED" in r.stderr


def test_solve_iteration_cap_exit_code(prob_file):
    r = run("solve", "-i", str(prob_file), "--c", "10", "--solver", "cd",
            "--cd-max-iter", "1")
    assert r.returncode == 3
    rep = json.loads(r.stdout)
    assert rep["status"] == "iteration_cap"


def test_solve_rejects_bad_iteration_count(prob_file):
    r = run("solve", "-i", str(prob_file), "--c", "10", "--max-iter", "-3")
    assert r.returncode == 2
    assert "[SOLVE_OPTS]" in r.stderr and "Traceback" not in r.stderr


def test_solve_then_certify_round_trip(prob_file, tmp_path):
    pt = tmp_path / "final.json"
    r = run("solve", "-i", str(prob_file), "--c", "10", "--solver", "dca",
            "--point-out", str(pt))
    assert r.returncode == 0, r.stderr
    r2 = run("certify", "-i", str(prob_file), "--point", str(pt), "--c", "10")
    assert r2.returncode == 0, r2.stderr
    cert = json.loads(r2.stdout)
    assert set(cert) >= {"lambdas", "zeta", "residuals", "budget",
                         "checked_selections", "fallback", "inf_stationarity"}
    assert cert["inf_stationarity"] >= -1e-3


def test_certify_residual_is_worst_selection(tmp_path):
    # one scenario on a concave kink: the residual of the worst selection is
    # the rate -inf_stationarity at which f falls
    p = concave_kinks(1)
    fp, pt = tmp_path / "kink.json", tmp_path / "z.json"
    fp.write_text(json.dumps(serialize_problem(p)))
    pt.write_text(json.dumps(serialize_point(p.witness)))
    r = run("certify", "-i", str(fp), "--point", str(pt), "--c", "10")
    assert r.returncode == 0, r.stderr
    cert = json.loads(r.stdout)
    assert cert["inf_stationarity"] == pytest.approx(-2.0)
    assert cert["residuals"]["stationarity"] == pytest.approx(-cert["inf_stationarity"])


@pytest.mark.parametrize("S", [1, 5])
def test_certify_reports_whether_nu_searched_every_selection(tmp_path, S):
    # 2^S selections: 32 are past ENUM_CAP, and nu is then a greedy lower bound
    p = concave_kinks(S)
    fp, pt = tmp_path / "kink.json", tmp_path / "z.json"
    fp.write_text(json.dumps(serialize_problem(p)))
    pt.write_text(json.dumps(serialize_point(p.witness)))
    r = run("certify", "-i", str(fp), "--point", str(pt), "--c", "10")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["inf_exhaustive"] is (S == 1)


def test_certify_rejects_infeasible(prob_file, tmp_path):
    obj = json.loads(prob_file.read_text())
    bad = {"x": obj["witness"]["x"],
           "y": [[v + 50.0 for v in row] for row in obj["witness"]["y"]]}
    pt = tmp_path / "bad.json"
    pt.write_text(json.dumps(bad))
    r = run("certify", "-i", str(prob_file), "--point", str(pt), "--c", "10")
    assert r.returncode == 2
    assert "INFEASIBLE_CANDIDATE" in r.stderr


def test_certify_smooth_flag(tmp_path):
    fp = tmp_path / "sm.json"
    assert run("generate", "--seed", "5", "--d", "2", "--m", "2", "--S", "2",
               "--l", "1", "--smooth", "-o", str(fp)).returncode == 0
    pt = tmp_path / "pt.json"
    r = run("solve", "-i", str(fp), "--c", "10", "--solver", "cd",
            "--point-out", str(pt))
    assert r.returncode == 0, r.stderr
    r2 = run("certify", "-i", str(fp), "--point", str(pt), "--c", "10")
    assert r2.returncode == 0, r2.stderr
    cert = json.loads(r2.stdout)
    assert max(cert["residuals"].values()) <= 1e-3


def test_solve_cd_escalates_c(tmp_path):
    fp = tmp_path / "coupled.json"
    fp.write_text(json.dumps(serialize_problem(coupled_1d())))
    r = run("solve", "-i", str(fp), "--c", "0.01", "--solver", "cd")
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["status"] == "converged"
    assert rep["c_final"] == 1.0


def test_check_nondeg_report(prob_file):
    r = run("check-nondeg", "-i", str(prob_file), "--samples", "400", "--seed", "1")
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["command"] == "check-nondeg"
    assert rep["sampled_points"] > 0
    assert rep["min_hull_distance"] >= 0.0
    assert rep["witness"] is not None


def test_check_nondeg_no_infeasible_samples(tmp_path):
    # constraint y - 1e9 <= 0 never trips, so the report must degrade gracefully
    prob = {
        "d": 1, "m": 1,
        "A": {"kind": "box", "lower": [-1.0], "upper": [1.0]},
        "scenarios": {"probs": [1.0], "params": [[0.0]]},
        "f": {"kind": "affine", "c0": 0.0, "cx": [0.0], "cy": [1.0], "ct": [0.0]},
        "g": [{"kind": "affine", "c0": -1e9, "cx": [0.0], "cy": [1.0], "ct": [0.0]}],
        "witness": {"x": [0.0], "y": [[0.0]]},
    }
    pf = tmp_path / "slack.json"
    pf.write_text(json.dumps(prob))
    r = run("check-nondeg", "-i", str(pf), "--samples", "30", "--seed", "0")
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["sampled_points"] == 0
    assert rep["min_hull_distance"] is None
    assert rep["witness"] is None


def test_missing_input_is_exit_2(tmp_path):
    r = run("eval", "-i", str(tmp_path / "nope.json"),
            "--point", str(tmp_path / "nope2.json"))
    assert r.returncode == 2
    # a malformed value is a structured parse error, not a traceback
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"d": "two", "m": 1}))
    r = run("check-nondeg", "-i", str(bad))
    assert r.returncode == 2
    assert "[PARSE]" in r.stderr and "Traceback" not in r.stderr


def test_selftest_passes():
    r = run("selftest")
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["passed"] == 10 and rep["failed"] == []


@pytest.mark.parametrize("argv, code", [
    (("generate", "--seed", "-1", "--d", "2", "--m", "2", "--S", "3", "--l", "2"), "[GEN_SPEC]"),
    (("check-nondeg", "--seed", "-1"), "[NONDEG_SEED]"),
    (("check-nondeg", "--samples", "0"), "[NONDEG_SAMPLES]"),
])
def test_bad_seed_or_samples_is_exit_2(prob_file, argv, code):
    if argv[0] == "check-nondeg":
        argv += ("-i", str(prob_file))
    r = run(*argv)
    assert r.returncode == 2
    assert code in r.stderr and "Traceback" not in r.stderr


def test_solve_reports_a_greedy_nu(tmp_path):
    # 32 selections at the start of concave_kinks(5): past ENUM_CAP
    fp = tmp_path / "kinks.json"
    fp.write_text(json.dumps(serialize_problem(concave_kinks(5))))
    r = run("solve", "-i", str(fp), "--c", "10", "--solver", "cd", "--tol-stat", "10")
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert (rep["status"], rep["exhaustive"]) == ("converged", False)
