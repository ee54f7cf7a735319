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


def test_load_rejects_a_top_level_that_is_no_object(tmp_path, capsys):
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ParseError, match="JSON object"):
        load_problem(bad)
    assert main(["solve", "--problem", str(bad), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("validation error: ")


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


def test_diagnose_does_not_depend_on_the_seed(tmp_path):
    # below the face cap SOSC draws nothing from the generator, and the
    # calmness check (the other user of --seed) is off by default
    from plqsqp.generators import generate
    gp = generate("critical_showcase", seed=0)
    path = tmp_path / "showcase.json"
    save_problem(path, gp.problem, gp.metadata())
    outs = [tmp_path / f"seed{seed}" for seed in (0, 1)]
    for seed, out in zip((0, 1), outs):
        assert main(["diagnose", "--problem", str(path), "--seed", str(seed),
                     "--out", str(out)]) == 0
    for name in ("verdicts.txt", "verdicts.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


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


def test_reference_last_iterate_ignores_embedded_kkt_point(tmp_path):
    # rating against the last iterate must not depend on an embedded xbar
    embedded = tmp_path / "nlp.json"
    assert main(["generate", "--kind", "nlp", "--seed", "2", "--out-file", str(embedded)]) == 0
    raw = json.loads(embedded.read_text())
    md = raw["metadata"]
    start = ["--x0=" + ",".join(map(repr, md["xbar"])),
             "--lambda0=" + ",".join(map(repr, md["lambdabar"]))]
    del md["xbar"], md["lambdabar"]
    stripped = tmp_path / "nlp_stripped.json"
    stripped.write_text(json.dumps(raw))
    outputs = []
    for path in (embedded, stripped):
        out = tmp_path / path.stem
        main(["sweep", "--problem", str(path), "--modes", "bfgs", "--n-starts", "3",
              "--reference", "last-iterate", "--out", str(out / "sweep"), *start])
        main(["solve", "--problem", str(path), "--mode", "bfgs",
              "--reference", "last-iterate", "--out", str(out / "solve"), *start])
        rows = (out / "sweep" / "sweep_summary.csv").read_text().splitlines()[1:]
        outputs.append(([row.split(",")[6] for row in rows],
                        (out / "solve" / "rate_report.txt").read_text()))
    assert outputs[0] == outputs[1]


def test_linear_sweep_reads_linear_without_a_reference(tmp_path):
    # critical_showcase seed 0 converges linearly (every step halves); rated
    # against its last iterate it read superlinear, its step lengths do not
    embedded = tmp_path / "showcase.json"
    assert main(["generate", "--kind", "critical_showcase", "--seed", "0",
                 "--out-file", str(embedded)]) == 0
    raw = json.loads(embedded.read_text())
    del raw["metadata"]["xbar"], raw["metadata"]["lambdabar"]
    stripped = tmp_path / "showcase_stripped.json"
    stripped.write_text(json.dumps(raw))
    for path in (embedded, stripped):
        out = tmp_path / path.stem
        assert main(["sweep", "--problem", str(path), "--modes", "bfgs", "--n-starts", "3",
                     "--seed", "5", "--x0", "0", "--lambda0", "0", "--out", str(out)]) == 0
        rows = (out / "sweep_summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[6] for row in rows] == ["linear"] * 3


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


@pytest.mark.parametrize("argv", [
    ["solve", "--x0", "1,abc"],
    ["solve", "--reference", "1,2"],
    ["sweep", "--modes", "exact,newton"],
    ["generate", "--kind", "nlp", "--params", '{"bogus": 1}'],
    ["generate", "--kind", "nlp", "--params", "[1"],
    ["solve", "--x0", "0.3,0.1,0.2"],
    ["solve", "--lambda0", "0.3,0.1"],
    ["solve", "--reference", "1,2;1"],
    ["sweep", "--reference", "1;1,2"],
    ["solve", "--tol", "-1"],
    ["solve", "--max-iter", "0"],
    ["sweep", "--tol", "-1"],
    ["sweep", "--max-iter", "0"],
    ["generate", "--kind", "critical_showcase", "--params", '{"bogus": 1}'],
    ["generate", "--kind", "nlp", "--params", '{"n": 1, "n_eq": 2}'],
    ["generate", "--kind", "minmax", "--params", '{"n_active": 0}'],
    ["generate", "--kind", "elqp", "--params", '{"m": 0}'],
    ["generate", "--kind", "elqp", "--params", '{"n": -1}'],
    ["sweep", "--radius", "nan"],
    ["sweep", "--n-starts", "-1"],
    ["check-calculus", "--n-cases", "-5"],
    ["generate", "--kind", "nlp", "--params", '{"n_ineq": -1}'],
    ["generate", "--kind", "nlp", "--params", '{"n": 0, "n_eq": 0, "n_ineq": 1, "n_active": 0}'],
    ["generate", "--kind", "nlp", "--params", '{"n_active": -1}'],
    ["generate", "--kind", "minmax", "--params", '{"n": 0, "n_active": 1}'],
    ["generate", "--kind", "elqp", "--params", '{"box": [1, 0]}'],
    ["solve", "--x0", "nan"],
    ["solve", "--lambda0", "inf"],
    ["solve", "--reference", "1;-inf"],
    ["sweep", "--reference", "nan;1"],
])
def test_malformed_values_exit_with_validation_error(tmp_path, p1_file, capsys, argv):
    target = (["--out-file", str(tmp_path / "gen.json")] if argv[0] == "generate"
              else ["--problem", p1_file, "--out", str(tmp_path / "o")])
    assert main(argv + target) == 3
    assert capsys.readouterr().err.startswith("validation error: ")


@pytest.mark.parametrize("command", ["solve", "sweep", "diagnose"])
def test_embedded_point_of_the_wrong_length_is_a_validation_error(tmp_path, capsys, command):
    path = tmp_path / "p1.json"
    save_problem(path, make_p1(), {"xbar": [1.0, 2.0], "lambdabar": [1.0]})
    assert main([command, "--problem", str(path), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "validation error: xbar: expected 1 values, got 2\n"


def test_calculus_suites_pass_where_pieces_meet(tmp_path, capsys):
    # at points where all three max pieces meet, the second quotient took
    # g(z) and g(z + t w) from different pieces, whose values at z differ
    # by rounding: one false failure in 40 cases
    target = tmp_path / "mm.json"
    assert main(["generate", "--kind", "minmax", "--seed", "7", "--out-file", str(target)]) == 0
    assert main(["check-calculus", "--problem", str(target), "--n-cases", "40", "--seed", "1",
                 "--out", str(tmp_path / "o")]) == 0
    assert "second-order difference quotient equality: 0/40 failures" in capsys.readouterr().out


def test_lp_solver_failure_exits_with_solver_error(tmp_path, monkeypatch):
    # an undecided implicit-equality system is a toolkit error, so diagnose
    # reports it and exits 2: an NNLS answer of NaNs verifies no decision.
    # NLP seed 2 has a noncriticality system that needs the NNLS (P1's are
    # decided by their u = 0 certificates)
    import sys

    import plqsqp.lp

    problem = tmp_path / "nlp.json"
    assert main(["generate", "--kind", "nlp", "--seed", "2", "--out-file", str(problem)]) == 0

    nonneg_lstsq, decisions = plqsqp.lp.nonneg_lstsq, []

    def unverified(M, r):
        if sys._getframe(1).f_code.co_name != "implicit_equalities":
            return nonneg_lstsq(M, r)  # projections, as before
        decisions.append(M.shape)
        return np.full(M.shape[1], np.nan), np.nan

    monkeypatch.setattr(plqsqp.lp, "nonneg_lstsq", unverified)
    out = tmp_path / "diag_fail"
    assert main(["diagnose", "--problem", str(problem), "--out", str(out)]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "SolverFailure" and "implicit equalities" in record["message"]
    assert len(decisions) == 1


@pytest.mark.parametrize("command", ["solve", "diagnose"])
def test_solver_failure_while_loading_writes_error_json(tmp_path, p1_file, monkeypatch,
                                                        capsys, command):
    # a toolkit error raised before the run or the checks, here by the
    # load's convexity certificate (its facet decision is a nearest point),
    # still exits 2 with error.json in an --out directory that did not exist yet
    import plqsqp.probio
    from plqsqp.errors import SolverFailure

    message = "nearest point: neither the face point nor the Farkas vector verifies"

    def failing(g):
        raise SolverFailure(message)

    monkeypatch.setattr(plqsqp.probio, "check_convexity", failing)
    out = tmp_path / "fresh" / "out"
    assert main([command, "--problem", p1_file, "--out", str(out)]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record == {"error": "SolverFailure", "message": message}
    assert capsys.readouterr().err == f"solver error: {message}\n"
