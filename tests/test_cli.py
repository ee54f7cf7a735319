import json
from pathlib import Path

import numpy as np
import pytest

from plqsqp.cli import main
from plqsqp.errors import ParseError, ValidationError
from plqsqp.probio import load_problem, save_problem

from conftest import make_p1


@pytest.fixture
def p1_file(tmp_path):
    path = tmp_path / "p1.json"
    save_problem(path, make_p1(), {"xbar": [1.0], "lambdabar": [1.0]})
    return str(path)


@pytest.fixture
def elqp_file(tmp_path):
    from plqsqp.generators import generate_elqp
    gp = generate_elqp(n=2, m=2, seed=3)
    path = tmp_path / "elqp.json"
    save_problem(path, gp.problem, gp.metadata())
    return str(path)


def test_load_problem_roundtrip(tmp_path, p1_file):
    problem, md = load_problem(p1_file)
    assert md["xbar"] == [1.0]
    resaved = tmp_path / "resaved.json"
    save_problem(resaved, problem, md)
    again, md2 = load_problem(resaved)
    assert problem.to_dict() == again.to_dict()
    assert md == md2


def test_load_rejects_nonsymmetric_piece_matrix(tmp_path, p1_file):
    with open(p1_file) as fh:
        raw = json.load(fh)
    raw["problem"]["g"]["pieces"][0]["A"] = [[0.0]]
    raw["problem"]["g"]["pieces"][0]["A"] = [[0.0]]
    raw["problem"]["g"]["m"] = 2  # force a 2x2 reshape of a nonsymmetric A
    raw["problem"]["g"]["pieces"] = [{
        "C": {"A": [[1.0, 0.0]], "b": [0.0], "E": [], "d": []},
        "A": [[0.0, 1.0], [0.0, 0.0]], "a": [0.0, 0.0], "alpha": 0.0}]
    bad = tmp_path / "bad_sym.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(ValidationError, match="A symmetric"):
        load_problem(bad)


def test_load_rejects_empty_piece(tmp_path, p1_file):
    with open(p1_file) as fh:
        raw = json.load(fh)
    raw["problem"]["g"]["pieces"][0]["C"] = {
        "A": [[1.0], [-1.0]], "b": [-1.0, -1.0], "E": [], "d": []}
    bad = tmp_path / "bad_empty.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(ValidationError, match="C nonempty"):
        load_problem(bad)


def test_load_rejects_malformed_json(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_problem(bad)


def test_load_rejects_missing_field(tmp_path, p1_file):
    with open(p1_file) as fh:
        raw = json.load(fh)
    del raw["problem"]["Theta"]
    bad = tmp_path / "missing.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(ParseError, match="Theta"):
        load_problem(bad)


def test_solve_command_p1(tmp_path, p1_file):
    out = tmp_path / "run"
    code = main(["solve", "--problem", p1_file, "--x0", "0.0", "--lambda0", "0.0",
                 "--out", str(out)])
    assert code == 0
    trace = (out / "trace.csv").read_text().strip().splitlines()
    assert trace[0].startswith("k,x0,lambda0,residual")
    assert len(trace) == 3  # header + start + one step
    report = (out / "rate_report.txt").read_text()
    assert "classification: superlinear" in report


def test_solve_exit_code_on_failure(tmp_path, p1_file):
    # starting extremely far with a tiny iteration budget: not converged
    from plqsqp.generators import generate
    from plqsqp.probio import save_problem as save
    gp = generate("critical_showcase", seed=0)
    path = tmp_path / "p2.json"
    save(path, gp.problem, {"xbar": [0.0], "lambdabar": [0.0]})
    out = tmp_path / "runfail"
    code = main(["solve", "--problem", str(path), "--x0", "0.5",
                 "--lambda0", "-1.0", "--max-iter", "3", "--out", str(out)])
    assert code == 2
    assert (out / "error.json").exists()
    assert (out / "trace.csv").exists()


def test_solve_determinism(tmp_path, elqp_file):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = main(["solve", "--problem", elqp_file, "--x0", "0.3,0.1",
                     "--lambda0", "0.2,0.2", "--seed", "7", "--out", str(out)])
        assert code == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


def test_diagnose_command(tmp_path, p1_file):
    out = tmp_path / "diag"
    code = main(["diagnose", "--problem", p1_file, "--out", str(out)])
    assert code == 0
    text = (out / "verdicts.txt").read_text()
    assert "noncritical" in text and "holds" in text
    rows = (out / "verdicts.csv").read_text().strip().splitlines()
    assert rows[0] == "condition,result,detail"
    assert len(rows) == 4


def test_diagnose_critical_showcase_exit_zero(tmp_path):
    from plqsqp.generators import generate
    gp = generate("critical_showcase", seed=0)
    path = tmp_path / "p2.json"
    save_problem(path, gp.problem, {"xbar": [0.0], "lambdabar": [-1.0]})
    out = tmp_path / "diag2"
    code = main(["diagnose", "--problem", str(path), "--out", str(out)])
    assert code == 0  # the diagnosis itself succeeded
    text = (out / "verdicts.txt").read_text()
    assert "fails" in text


def test_sweep_command(tmp_path, elqp_file):
    out = tmp_path / "sweep"
    code = main(["sweep", "--problem", elqp_file, "--n-starts", "3",
                 "--modes", "exact,bfgs", "--radius", "0.3", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    summary = (out / "sweep_summary.csv").read_text().strip().splitlines()
    assert len(summary) == 7  # header + 2 modes x 3 starts
    assert len(list(Path(out).glob("run_*.csv"))) == 6


def test_sweep_determinism(tmp_path, elqp_file):
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        main(["sweep", "--problem", elqp_file, "--n-starts", "2", "--seed", "3",
              "--out", str(out)])
        outs.append((out / "sweep_summary.csv").read_bytes())
    assert outs[0] == outs[1]


def test_check_calculus_command(tmp_path, p1_file):
    out = tmp_path / "calc"
    code = main(["check-calculus", "--problem", p1_file, "--n-cases", "40",
                 "--out", str(out)])
    assert code == 0
    rows = (out / "calculus_report.csv").read_text().strip().splitlines()
    assert rows[0] == "property,failures,checked"
    assert all(row.split(",")[1] == "0" for row in rows[1:])


def test_generate_command(tmp_path):
    target = tmp_path / "gen.json"
    code = main(["generate", "--kind", "minmax", "--seed", "2",
                 "--params", json.dumps({"n": 3, "m": 3, "n_active": 2}),
                 "--out-file", str(target)])
    assert code == 0
    problem, md = load_problem(target)
    assert md["kind"] == "minmax"
    from plqsqp.kkt import kkt_residual
    assert kkt_residual(problem, np.asarray(md["xbar"]),
                        np.asarray(md["lambdabar"])) <= 1e-10


def test_validation_exit_code(tmp_path):
    bad = tmp_path / "nope.json"
    bad.write_text("{}")
    code = main(["solve", "--problem", str(bad), "--out", str(tmp_path / "o")])
    assert code == 3


def test_lp_solver_failure_exits_with_solver_error(tmp_path, p1_file, monkeypatch):
    # a HiGHS failure is a toolkit error, so diagnose reports it and exits 2
    import types

    import plqsqp.lp

    def failing_linprog(*args, **kwargs):
        return types.SimpleNamespace(status=4, message="numerical difficulties")

    monkeypatch.setattr(plqsqp.lp, "linprog", failing_linprog)
    out = tmp_path / "diag_fail"
    assert main(["diagnose", "--problem", p1_file, "--out", str(out)]) == 2
    assert json.loads((out / "error.json").read_text())["error"] == "SolverFailure"
