import sys

import numpy as np
import pytest

from plqsqp import polyhedral, sqp
from plqsqp.errors import DegenerateStep, MaxIterReached, TooShortTrace
from plqsqp.kkt import CompositeProblem, PrimalDual, kkt_point
from plqsqp.polyhedral import ConeFamily, PolyCone
from plqsqp.sqp import (
    IterateRecord,
    SQPConfig,
    bfgs_update,
    rate_report,
    run_classification,
    run_sqp,
    trace_csv_rows,
)

from conftest import make_p1, make_p2
from oracles import lagrangian


def test_p1_converges_in_one_step():
    p1 = make_p1()
    trace = run_sqp(p1, [0.0], [0.0], SQPConfig())
    assert len(trace) - 1 == 1
    assert np.allclose(trace[-1].x, [1.0], atol=1e-10)
    assert np.allclose(trace[-1].lam, [1.0], atol=1e-10)
    assert trace[-1].residual <= 1e-10


def test_one_subproblem_solve_per_iteration(monkeypatch):
    # the first step (size about 0.26) lies far outside delta0, so the
    # radius must grow (three times) inside the first solve: no iteration
    # solves its subproblem twice
    from plqsqp.generators import generate
    gp = generate("minmax", seed=7, n=3, m=3, n_active=2)
    calls = []
    solve = sqp.solve_subproblem

    def spy(spec):
        calls.append(spec.delta)
        return solve(spec)

    monkeypatch.setattr(sqp, "solve_subproblem", spy)
    x0 = gp.xbar + 0.3 * np.ones(3) / np.sqrt(3.0)
    trace = run_sqp(gp.problem, x0, gp.lambdabar + 0.1, SQPConfig(delta0=1e-3))
    assert trace[-1].residual <= 1e-10
    assert calls[0] == 1e-3 and trace[1].step_norm > 1e-1
    assert len(calls) == len(trace) - 1 == 4


def test_exact_run_on_elqp_spends_few_qps(qp_calls):
    # the QPs are the subproblems' piece QPs, tried from the pieces holding
    # Phi(x_k); each residual's prox projects instead and runs none (75
    # QPs when the prox ran a QP per piece, visited by bound alone)
    from plqsqp.generators import generate
    gp = generate("elqp", n=3, m=3, seed=5)
    qp_calls.clear()
    trace = run_sqp(gp.problem, gp.xbar + 0.3, gp.lambdabar + 0.3, SQPConfig())
    assert trace[-1].residual <= 1e-10
    assert len(qp_calls) <= 15


@pytest.mark.parametrize("mode", ["exact", "bfgs"])
def test_phi_is_evaluated_once_per_iterate(mode, monkeypatch):
    # an iterate's residual, its subproblem's linearization and the BFGS
    # gradients at x_k and x_{k+1} share one evaluation of Phi, J and
    # grad phi: beyond the first residual's own evaluations, at most one
    # Poly2Map.value per record (the loop evaluated Phi about three times
    # per iterate); that hess_xx L comes from the quadratic data, not from
    # a Lagrangian routine, is test_sqp_iterates_evaluate_the_smooth_data_once
    from plqsqp import kkt
    from plqsqp.generators import generate
    gp = generate("elqp", n=3, m=3, seed=5)
    fresh = generate("elqp", n=3, m=3, seed=5).problem  # shares no memo with gp
    x0, l0 = gp.xbar + 0.3, gp.lambdabar + 0.3
    calls = []
    value = kkt.Poly2Map.value

    def spy_value(self, x):
        calls.append(1)
        return value(self, x)

    monkeypatch.setattr(kkt.Poly2Map, "value", spy_value)
    kkt.kkt_residual(fresh, x0, l0)
    first = len(calls)
    calls.clear()
    trace = run_sqp(gp.problem, x0, l0, SQPConfig(hessian_mode=mode))
    assert trace[-1].residual <= 1e-10 and len(trace) >= 2
    assert len(calls) <= first + len(trace), (len(calls), first, len(trace))


def test_subproblems_start_at_the_piece_holding_Phi_xk(monkeypatch):
    # exact runs on two criterion-4 instances: trying the pieces holding
    # Phi(x_k) first answers most subproblems with their first QP, and a
    # dual fixed by stationarity is dropped without a repair (index order
    # ran about 2.5 QPs per subproblem and a repair per rejected candidate)
    from plqsqp import subqp
    from plqsqp.generators import generate
    counts = {"solve": 0, "qp": 0, "repair": 0}

    def counting(module, name, key):
        inner = getattr(module, name)

        def spy(*args, **kwargs):
            counts[key] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)

    counting(sqp, "solve_subproblem", "solve")
    counting(subqp, "active_set_qp", "qp")
    counting(subqp, "_repair_dual", "repair")
    rng = np.random.default_rng(100)
    for kind, params, seed in (("elqp", dict(n=3, m=3), 5),
                               ("minmax", dict(n=4, m=4, n_active=3), 7)):
        gp = generate(kind, seed=seed, **params)
        n, m = gp.problem.n, gp.problem.m
        for _ in range(5):
            d = rng.standard_normal(n + m)
            d /= np.linalg.norm(d)
            x0 = gp.xbar + 0.5 * d[:n] * rng.uniform(0.3, 1.0)
            l0 = gp.lambdabar + 0.5 * d[n:] * rng.uniform(0.3, 1.0)
            trace = run_sqp(gp.problem, x0, l0, SQPConfig(max_iter=15))
            assert trace[-1].residual <= 1e-10
    assert counts["qp"] < 1.5 * counts["solve"]
    assert counts["repair"] == 0


def _guessing_kernel(monkeypatch, guesses):
    """Wrap the subproblem's QP kernel: with `guesses` False it drops the
    face guess; each call appends (guessed, iterations) to the returned list."""
    from plqsqp import subqp
    kernel, calls = subqp.active_set_qp, []

    def spy(*args, face=None, **kwargs):
        res = kernel(*args, face=face if guesses else None, **kwargs)
        calls.append((face is not None and guesses, res.iterations))
        return res

    monkeypatch.setattr(subqp, "active_set_qp", spy)
    return calls


@pytest.mark.parametrize("mode", ["exact", "bfgs"])
def test_a_stale_face_misses_and_leaves_the_trace(mode, monkeypatch):
    # starts about 2.6 away (x, λ) on the criterion-4 nlp instance: a piece's face
    # changes between two iterations, so its guess must miss and the kernel
    # answers; the traces equal those of runs without guesses, to rounding
    from plqsqp.generators import generate
    gp = generate("nlp", n=4, n_eq=1, n_ineq=2, seed=2)
    rng = np.random.default_rng(21)
    starts = [(gp.xbar + rng.standard_normal(4), gp.lambdabar + rng.standard_normal(3))
              for _ in range(4)]
    config = SQPConfig(hessian_mode=mode, monitors=False)
    runs, calls = {}, {}
    for guesses in (True, False):
        calls[guesses] = _guessing_kernel(monkeypatch, guesses)
        runs[guesses] = [run_sqp(gp.problem, x0, l0, config) for x0, l0 in starts]
        monkeypatch.undo()
    guessed = [iters for was_guessed, iters in calls[True] if was_guessed]
    assert 0 in guessed and any(iters > 0 for iters in guessed)  # hits and misses
    for with_guess, without in zip(runs[True], runs[False]):
        assert [r.piece_index for r in with_guess] == [r.piece_index for r in without]
        for a, b in zip(with_guess, without):
            assert np.linalg.norm(a.x - b.x) <= 1e-13 * (1.0 + np.linalg.norm(b.x))
            assert np.linalg.norm(a.lam - b.lam) <= 1e-13 * (1.0 + np.linalg.norm(b.lam))


def test_runs_share_no_guess(monkeypatch):
    # face guesses are run state: two runs on one problem give bitwise the
    # same traces in either order (each order on a fresh problem)
    from plqsqp.generators import generate
    calls = _guessing_kernel(monkeypatch, True)

    def traces(order):
        gp = generate("minmax", n=4, m=4, n_active=3, seed=7)
        starts = {"A": (gp.xbar + 0.4, gp.lambdabar - 0.3),
                  "B": (gp.xbar - 0.5, gp.lambdabar + 0.2)}
        return {key: run_sqp(gp.problem, *starts[key], SQPConfig()) for key in order}

    forward, backward = traces("AB"), traces("BA")
    assert (True, 0) in calls  # the runs do guess, and hit
    for key in "AB":
        assert len(forward[key]) == len(backward[key]) > 2
        for a, b in zip(forward[key], backward[key]):
            assert np.array_equal(a.x, b.x) and np.array_equal(a.lam, b.lam)
            assert (a.residual, a.dm_D, a.dm_full, a.piece_index) \
                == (b.residual, b.dm_D, b.dm_full, b.piece_index)


def test_runs_sharing_a_reference_build_its_cones_once(point_builds):
    from plqsqp.generators import generate
    gp = generate("minmax", seed=7, n=3, m=3, n_active=2)
    x0, lam0 = gp.xbar + 0.05, gp.lambdabar + 0.05
    config = SQPConfig(hessian_mode="bfgs", reference=PrimalDual(gp.xbar, gp.lambdabar))
    first = run_sqp(gp.problem, x0, lam0, config)
    second = run_sqp(gp.problem, x0 - 0.1, lam0, config)
    assert first[-1].residual <= 1e-10 and second[-1].residual <= 1e-10
    assert len(point_builds) == 1
    # the kept cones give the monitors of a problem that never saw them
    fresh = CompositeProblem(gp.problem.phi, gp.problem.Phi, gp.problem.g, gp.problem.Theta)
    again = run_sqp(fresh, x0 - 0.1, lam0, config)
    assert len(point_builds) == 2
    assert any(rec.dm_D > 0.0 for rec in second)
    assert [(r.dm_D, r.dm_Dplus, r.dm_full) for r in second] == \
        [(r.dm_D, r.dm_Dplus, r.dm_full) for r in again]
    # another reference builds again; a reference that is no KKT point
    # keeps the full-norm fallback, built once
    run_sqp(gp.problem, x0, lam0, SQPConfig(hessian_mode="bfgs", reference=None))
    assert len(point_builds) == 3
    off = SQPConfig(hessian_mode="bfgs", reference=PrimalDual(x0, lam0))
    runs = [run_sqp(gp.problem, x0, lam0, off) for _ in range(2)]
    assert len(point_builds) == 4
    assert all(r.dm_D == r.dm_full for r in runs[1][1:])


@pytest.mark.parametrize("kind, params, seed", [
    ("minmax", dict(n=4, m=4, n_active=3), 7),
    ("nlp", dict(n=4, n_eq=1, n_ineq=2), 2),
    ("elqp", dict(n=3, m=3), 5),
])
def test_loading_runs_no_qp(kind, params, seed, qp_calls, tmp_path):
    # the certificates' sample points project onto min-max cells, the
    # orthant and ELQP's box pieces: one least-distance NNLS each (the QP
    # route ran 220, 200 and 487 QPs)
    from plqsqp.generators import generate
    from plqsqp.probio import load_problem, save_problem
    gp = generate(kind, seed=seed, **params)
    path = tmp_path / "problem.json"
    save_problem(path, gp.problem, gp.metadata())
    qp_calls.clear()
    load_problem(path)
    assert qp_calls == []


def test_monitors_project_without_a_qp():
    # the Dennis-More monitors project onto the members of D, and the
    # projections are not all zero (the QP route ran 21 QPs here); that no
    # projection runs a QP is the source rule
    # test_qp_kernel_serves_the_prox_and_the_subproblem_only
    from plqsqp.generators import generate
    gp = generate("minmax", seed=7, n=4, m=4, n_active=3)
    config = SQPConfig(hessian_mode="bfgs", reference=PrimalDual(gp.xbar, gp.lambdabar))
    trace = run_sqp(gp.problem, gp.xbar + 0.05, gp.lambdabar + 0.05, config)
    assert trace[-1].residual <= 1e-10
    assert any(rec.dm_D > 0.0 for rec in trace)


@pytest.mark.parametrize("delta0", [0.0, -1.0, np.nan])
def test_config_rejects_a_radius_that_cannot_grow(delta0):
    with pytest.raises(ValueError, match="delta0"):
        SQPConfig(delta0=delta0)


@pytest.mark.parametrize("settings", [dict(tol=0.0), dict(tol=np.nan), dict(max_iter=0)])
def test_config_rejects_a_run_that_cannot_stop(settings):
    # a NaN tolerance compares false both ways: the run ended after max_iter
    # iterations and returned its trace as if converged
    with pytest.raises(ValueError, match="tol must be positive"):
        SQPConfig(**settings)


def test_start_at_kkt_point_stops_immediately():
    p1 = make_p1()
    trace = run_sqp(p1, [1.0], [1.0], SQPConfig())
    assert len(trace) == 1 and trace[0].step_norm == 0.0


def test_p2_critical_multiplier_slow_behavior():
    """Hand oracle: the subproblem recursion at the critical multiplier is

        x_{k+1} = x_k / 2,   lambda_{k+1} = -1/2 + lambda_k / 2,

    so from (0.1, -1) the iterates halve and the rate is linear, never
    superlinear.
    """
    p2 = make_p2()
    config = SQPConfig(max_iter=40, reference=PrimalDual(np.zeros(1), -np.ones(1)))
    trace = run_sqp(p2, [0.1], [-1.0], config)
    xs = [rec.x[0] for rec in trace]
    x_oracle = 0.1
    for k in range(1, min(len(xs), 10)):
        x_oracle /= 2.0
        assert abs(xs[k] - x_oracle) <= 1e-12
    cls = run_classification(trace, PrimalDual(np.zeros(1), -np.ones(1)))
    assert cls != "superlinear"
    rep = rate_report(trace, PrimalDual(np.zeros(1), -np.ones(1)))
    assert rep.classification == "linear"
    assert all(abs(r - 0.5) <= 1e-8 for r in rep.ratios_primal)


def test_exact_mode_dennis_more_identically_zero(rng):
    from plqsqp.generators import generate
    gp = generate("minmax", seed=7, n=3, m=3, n_active=2)
    ref = PrimalDual(gp.xbar, gp.lambdabar)
    d = rng.standard_normal(3)
    x0 = gp.xbar + 0.3 * d / np.linalg.norm(d)
    trace = run_sqp(gp.problem, x0, gp.lambdabar + 0.1 * rng.standard_normal(3),
                    SQPConfig(reference=ref))
    for rec in trace[1:]:
        assert rec.dm_full <= 1e-12
        assert rec.dm_D <= 1e-12 and rec.dm_Dplus <= 1e-12


def test_exact_mode_monitors_project_nothing(monkeypatch):
    # (hess - H) s is exactly 0 in exact mode, so no record projects it onto
    # a member of D; the ratios are those of the route that projects it
    from plqsqp.generators import generate
    gp = generate("minmax", seed=7, n=4, m=4, n_active=3)
    x0, lam0 = gp.xbar + 0.3, gp.lambdabar - 0.2
    config = SQPConfig(reference=PrimalDual(gp.xbar, gp.lambdabar))
    projections = []
    project = polyhedral.project

    def spy(P, z):
        projections.append(sys._getframe(1).f_code.co_name)
        return project(P, z)

    def every_member(family, v):
        if family.kind == "subspace":
            return family.basis @ (family.basis.T @ v)
        return min((project(m, v) for m in family.members), key=lambda p: np.linalg.norm(v - p))

    monkeypatch.setattr(polyhedral, "project", spy)
    trace = run_sqp(gp.problem, x0, lam0, config)
    assert len(trace) > 2 and "project_cone_union" not in projections
    monkeypatch.setattr(sqp, "project_cone_union", every_member)
    again = run_sqp(gp.problem, x0, lam0, config)
    assert [(r.dm_D, r.dm_Dplus, r.dm_full) for r in trace] == \
        [(r.dm_D, r.dm_Dplus, r.dm_full) for r in again]


# -- BFGS update ----------------------------------------------------------------

def test_bfgs_secant_already_satisfied():
    H = bfgs_update(np.eye(2), [1.0, 0.0], [1.0, 0.0])
    assert np.allclose(H, np.eye(2), atol=1e-12)


def test_bfgs_hand_rank2_example():
    H = bfgs_update(np.eye(2), [1.0, 0.0], [2.0, 0.0])
    assert np.allclose(H, np.diag([2.0, 1.0]), atol=1e-12)


def test_bfgs_damping_keeps_positive_definite():
    H = bfgs_update(np.eye(2), [1.0, 0.0], [-2.0, 0.0])
    assert np.linalg.eigvalsh(H).min() > 0.0
    assert np.allclose(H, H.T)


def test_bfgs_degenerate_step():
    with pytest.raises(DegenerateStep):
        bfgs_update(np.eye(2), [0.0, 0.0], [1.0, 0.0])


# -- Dennis-More values -----------------------------------------------------------

def _dm_of_step(problem, xk, lamk, H, x_next, D, Dplus):
    """The monitors' ratios for the step xk -> x_next of model Hessian H:
    r = (hess_xx L(xk, lamk) - H) step, as run_sqp keeps it on a record."""
    step = np.asarray(x_next, dtype=float) - np.asarray(xk, dtype=float)
    _, _, hess = lagrangian(problem, xk, lamk)
    return sqp._dm_ratios((hess - np.asarray(H, dtype=float)) @ step,
                          float(np.linalg.norm(step)), D, Dplus)


def test_dm_exact_hessian_gives_zero():
    p1 = make_p1()
    point = kkt_point(p1, [1.0], [1.0])
    vals = _dm_of_step(p1, [0.0], [0.0], [[1.0]], [1.0], point.D, point.Dplus)
    assert vals == (0.0, 0.0, 0.0)


def test_dm_trivial_cone_projects_to_zero():
    p1 = make_p1()
    point = kkt_point(p1, [1.0], [1.0])  # D is the zero cone
    dm_D, dm_Dp, dm_full = _dm_of_step(p1, [0.0], [0.0], [[5.0]], [1.0], point.D, point.Dplus)
    assert dm_D == 0.0 and dm_Dp == 0.0
    assert abs(dm_full - 4.0) <= 1e-12  # |hess - H| = |1 - 5| along a unit step


def test_dm_identity_unit_ratio():
    p1 = make_p1()
    whole = ConeFamily("union", members=(PolyCone.whole(1),))
    sub = ConeFamily("subspace", basis=np.eye(1))
    dm_D, dm_Dp, dm_full = _dm_of_step(p1, [0.0], [0.0], [[0.0]], [2.0], whole, sub)
    assert abs(dm_full - 1.0) <= 1e-12
    assert abs(dm_D - 1.0) <= 1e-12 and abs(dm_Dp - 1.0) <= 1e-12


def test_dm_values_do_not_change_when_the_step_shrinks():
    # each ratio is positively homogeneous in the step, down to steps near
    # convergence; xk = 0 keeps the scaled step exact
    from plqsqp.generators import generate
    p1 = make_p1()
    half_line = ConeFamily("union", members=(PolyCone.from_rows(np.eye(1), np.zeros((0, 1))),))
    sub = ConeFamily("subspace", basis=np.eye(1))
    for H, expected in (([[0.5]], 0.0), ([[3.0]], 2.0)):  # r = (1 - H) step
        for step in (1.0, 1e-12):
            dm_D, _, dm_full = _dm_of_step(p1, [0.0], [1.0], H, [step], half_line, sub)
            assert dm_D == expected and abs(dm_full - abs(1.0 - H[0][0])) <= 1e-15
    gp = generate("minmax", seed=7, n=4, m=4, n_active=3)
    point = kkt_point(gp.problem, gp.xbar, gp.lambdabar)
    rng = np.random.default_rng(5)
    xk = np.zeros(4)
    for _ in range(10):
        H = rng.standard_normal((4, 4))
        d = rng.standard_normal(4)
        unit = _dm_of_step(gp.problem, xk, gp.lambdabar, H + H.T, d, point.D, point.Dplus)
        tiny = _dm_of_step(gp.problem, xk, gp.lambdabar, H + H.T, 1e-12 * d,
                           point.D, point.Dplus)
        assert np.allclose(tiny, unit, rtol=1e-12, atol=0.0)


def test_dm_zero_step_keeps_zero_values():
    # a step that moves only the multiplier has no ratio: its record keeps
    # dm_* = 0.0, and so does a record whose step is zero beside a model error
    p1 = make_p1()
    trace = run_sqp(p1, [1.0], [0.0], SQPConfig())
    assert trace[1].step_norm == 0.0 and trace[1].lam[0] == 1.0
    rec = IterateRecord(1, np.ones(1), np.ones(1), 0.0, 0.0, _error=np.ones(1))
    sqp._attach_monitors(p1, [rec], None)
    assert [(r.dm_D, r.dm_Dplus, r.dm_full) for r in trace + [rec]] == [(0.0, 0.0, 0.0)] * 3


# -- rate report -------------------------------------------------------------------

def _fake_trace(errors, lam_errors=None):
    lam_errors = lam_errors or errors
    trace = []
    for k, (ex, el) in enumerate(zip(errors, lam_errors)):
        step = abs(errors[k] - errors[k - 1]) if k else 0.0
        trace.append(IterateRecord(k, np.array([ex]), np.array([el]),
                                   residual=ex, step_norm=step))
    return trace


def test_rate_report_superlinear_rule():
    errs = [1.0, 0.5, 0.1, 0.004, 1.6e-5]  # ratios .5, .2, .04, .004
    rep = rate_report(_fake_trace(errs), PrimalDual(np.zeros(1), np.zeros(1)))
    assert rep.classification == "superlinear"
    assert rep.ratios_primal[-1] < 0.1


def test_rate_report_linear_rule():
    errs = [1.0, 0.5, 0.25, 0.125, 0.0625]
    rep = rate_report(_fake_trace(errs), PrimalDual(np.zeros(1), np.zeros(1)))
    assert rep.classification == "linear"


@pytest.mark.parametrize("converged", [False, True])
def test_linear_sequences_never_read_superlinear(converged):
    # errors c q^k for q in [0.1, 0.95], with and without a landed last
    # iterate: the geometric mean of three ratios q is not below 0.1
    ref = PrimalDual(np.zeros(1), np.zeros(1))
    for q in np.linspace(0.1, 0.95, 18):
        for c in (3e-7, 1e-3, 1.0, 7.3, 1e4):
            for K in (5, 8, 12):
                errs = [c * q ** k for k in range(K)]
                for tail in ([], [1e-16]):
                    trace = _fake_trace(errs + tail)
                    if converged:
                        trace[-1].residual = 0.0
                    assert rate_report(trace, ref).classification != "superlinear", (q, c, K)


def test_non_monotone_superlinear_sequences_read_superlinear():
    # criterion 5's min-max seed 11, start 0 ends with the ratios 0.0097,
    # 0.022, 0.0017; random ratios 0.3 U(0.2, 3) / (k + 1)^2 tend to 0 with
    # no monotone tail in most runs.  Each converged run reads superlinear
    ref = PrimalDual(np.zeros(1), np.zeros(1))
    rng = np.random.default_rng(15)
    runs = [[0.3, 0.1, 0.0097, 0.022, 0.0017]] + [
        0.3 * rng.uniform(0.2, 3.0, 6) / (1.0 + np.arange(6)) ** 2 for _ in range(50)]
    unordered = 0
    for ratios in runs:
        trace = _fake_trace(list(np.cumprod(np.r_[1.0, ratios])))
        trace[-1].residual = 0.0
        rep = rate_report(trace, ref)
        assert rep.classification == "superlinear", ratios
        tail = rep.ratios_primal[-3:]
        unordered += not tail[0] > tail[1] > tail[2]
    assert unordered >= 25


def test_rate_report_stalled_rule():
    trace = _fake_trace([0.3, 0.3, 0.3, 0.3, 0.3])
    for rec in trace:
        rec.step_norm = 0.0
        rec.residual = 0.3
    rep = rate_report(trace, PrimalDual(np.zeros(1), np.zeros(1)))
    assert rep.classification == "stalled"


# a quadratic run (NLP n=4, generator seed 2) whose last iterate lands at rounding level
LANDING_ERRS = [2.2e-1, 6.5e-3, 1.3e-5, 2.9e-11, 3.2e-16]


def test_rate_report_ignores_iterates_landed_on_the_reference():
    ref = PrimalDual(np.zeros(1), np.zeros(1))
    rep = rate_report(_fake_trace(LANDING_ERRS), ref)
    assert rep.classification == "superlinear"
    assert run_classification(_fake_trace(LANDING_ERRS), ref) == "superlinear"
    # the reported ratios still cover every step, the landed one included
    assert len(rep.ratios_primal) == 4
    assert abs(rep.ratios_primal[-1] - 3.2e-16 / 2.9e-11) <= 1e-12


def test_landed_linear_run_stays_linear():
    errs = [1.0, 0.5, 0.25, 0.125, 0.0625, 1e-16]
    rep = rate_report(_fake_trace(errs), PrimalDual(np.zeros(1), np.zeros(1)))
    assert rep.classification == "linear"


def test_landing_rule_needs_a_converged_run():
    trace = _fake_trace(LANDING_ERRS)
    for rec in trace:
        rec.residual = 1.0
    ref = PrimalDual(np.zeros(1), np.zeros(1))
    assert rate_report(trace, ref).classification == "sublinear"
    assert run_classification(trace, ref) == "sublinear"


def test_rate_report_without_reference_reads_step_lengths():
    # errors to the last iterate (0.9375, 0.4375, 0.1875, 0.0625, 0) shrink
    # faster and faster and read superlinear; the steps halve throughout
    rep = rate_report(_fake_trace([1.0, 0.5, 0.25, 0.125, 0.0625]))
    assert rep.classification == "linear"
    assert rep.ratios_primal == [0.5, 0.5, 0.5]
    # a converged run whose three steps shrink fast has no landed step, yet
    # too few steps for three ratios: it counts as superlinear
    trace = _fake_trace([1.0, 0.1, 1e-3, 1e-7])
    trace[-1].residual = 0.0
    assert rate_report(trace).classification == "superlinear"


def test_rate_report_short_trace_raises():
    with pytest.raises(TooShortTrace):
        rate_report(_fake_trace([1.0, 0.1]))


def test_run_classification_short_converged_counts_superlinear():
    trace = _fake_trace([1.0, 0.0])
    trace[-1].residual = 0.0
    assert run_classification(trace) == "superlinear"


def test_unmonitored_runs_keep_the_iterates_and_build_no_cones(point_builds):
    # a criterion-4 instance, exact and BFGS: monitors=False changes no
    # iterate, residual, step or piece and leaves every dm_* at 0.0
    from plqsqp.generators import generate
    gp = generate("minmax", seed=7, n=4, m=4, n_active=3)
    ref = PrimalDual(gp.xbar, gp.lambdabar)
    x0, lam0 = gp.xbar + 0.05, gp.lambdabar + 0.05
    modes = ("exact", "bfgs")
    quiet = {mode: run_sqp(gp.problem, x0, lam0,
                           SQPConfig(hessian_mode=mode, reference=ref, monitors=False))
             for mode in modes}
    assert point_builds == []
    for mode in modes:
        loud = run_sqp(gp.problem, x0, lam0, SQPConfig(hessian_mode=mode, reference=ref))
        assert loud[-1].residual <= 1e-10 and len(quiet[mode]) == len(loud) > 2
        assert any(rec.dm_full > 0.0 for rec in loud) == (mode == "bfgs")  # exact: no model error
        for q, r in zip(quiet[mode], loud):
            assert np.array_equal(q.x, r.x) and np.array_equal(q.lam, r.lam)
            assert (q.residual, q.step_norm, q.piece_index) == \
                (r.residual, r.step_norm, r.piece_index)
            assert (q.dm_D, q.dm_Dplus, q.dm_full) == (0.0, 0.0, 0.0)
    assert len(point_builds) == 1  # the monitored runs share one reference build


def test_unmonitored_max_iter_reached_carries_the_same_trace():
    p2 = make_p2()
    traces = []
    for monitors in (False, True):
        with pytest.raises(MaxIterReached) as info:
            run_sqp(p2, [0.5], [-1.0], SQPConfig(max_iter=3, monitors=monitors))
        traces.append(info.value.trace)
    quiet, loud = traces
    assert len(quiet) == len(loud) == 4
    assert all(np.array_equal(q.x, r.x) and np.array_equal(q.lam, r.lam)
               and q.residual == r.residual for q, r in zip(quiet, loud))
    assert all((q.dm_D, q.dm_Dplus, q.dm_full) == (0.0, 0.0, 0.0) for q in quiet)


def test_max_iter_reached_carries_trace():
    p2 = make_p2()
    with pytest.raises(MaxIterReached) as info:
        run_sqp(p2, [0.5], [-1.0], SQPConfig(max_iter=3))
    assert len(info.value.trace) == 4


def test_trace_csv_schema():
    p1 = make_p1()
    trace = run_sqp(p1, [0.0], [0.0], SQPConfig())
    header, rows = trace_csv_rows(trace, 1, 1)
    assert header == ["k", "x0", "lambda0", "residual", "step_norm",
                      "dm_D", "dm_Dplus", "dm_full", "piece_index"]
    assert len(rows) == len(trace) and all(len(r) == len(header) for r in rows)
