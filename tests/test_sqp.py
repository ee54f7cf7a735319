import numpy as np
import pytest

from plqsqp.errors import DegenerateStep, MaxIterReached, TooShortTrace, ZeroStep
from plqsqp.kkt import PrimalDual, cone_D, kkt_point, subspace_Dplus
from plqsqp.polyhedral import ConeFamily, PolyCone
from plqsqp.sqp import (
    IterateRecord,
    SQPConfig,
    bfgs_update,
    dennis_more_values,
    rate_report,
    run_classification,
    run_sqp,
    trace_csv_rows,
)

from conftest import make_p1, make_p2


def test_p1_converges_in_one_step():
    p1 = make_p1()
    trace = run_sqp(p1, [0.0], [0.0], SQPConfig())
    assert len(trace) - 1 == 1
    assert np.allclose(trace[-1].x, [1.0], atol=1e-10)
    assert np.allclose(trace[-1].lam, [1.0], atol=1e-10)
    assert trace[-1].residual <= 1e-10


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

def test_dm_exact_hessian_gives_zero():
    p1 = make_p1()
    point = kkt_point(p1, [1.0], [1.0])
    D, Dp = cone_D(point), subspace_Dplus(point)
    vals = dennis_more_values(p1, [0.0], [0.0], [[1.0]], [1.0], D, Dp)
    assert vals == (0.0, 0.0, 0.0)


def test_dm_trivial_cone_projects_to_zero():
    p1 = make_p1()
    point = kkt_point(p1, [1.0], [1.0])
    D, Dp = cone_D(point), subspace_Dplus(point)  # D is the zero cone
    dm_D, dm_Dp, dm_full = dennis_more_values(p1, [0.0], [0.0], [[5.0]], [1.0], D, Dp)
    assert dm_D == 0.0 and dm_Dp == 0.0
    assert abs(dm_full - 4.0) <= 1e-12  # |hess - H| = |1 - 5| along a unit step


def test_dm_identity_unit_ratio():
    p1 = make_p1()
    whole = ConeFamily("union", members=(PolyCone.whole(1),))
    sub = ConeFamily("subspace", basis=np.eye(1))
    dm_D, dm_Dp, dm_full = dennis_more_values(p1, [0.0], [0.0], [[0.0]], [2.0],
                                              whole, sub)
    assert abs(dm_full - 1.0) <= 1e-12
    assert abs(dm_D - 1.0) <= 1e-12 and abs(dm_Dp - 1.0) <= 1e-12


def test_dm_zero_step_raises():
    p1 = make_p1()
    with pytest.raises(ZeroStep):
        dennis_more_values(p1, [1.0], [1.0], [[1.0]], [1.0], None, None)


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


def test_rate_report_stalled_rule():
    trace = _fake_trace([0.3, 0.3, 0.3, 0.3, 0.3])
    for rec in trace:
        rec.step_norm = 0.0
        rec.residual = 0.3
    rep = rate_report(trace, PrimalDual(np.zeros(1), np.zeros(1)))
    assert rep.classification == "stalled"


def test_rate_report_short_trace_raises():
    with pytest.raises(TooShortTrace):
        rate_report(_fake_trace([1.0, 0.1]), "last-iterate")


def test_run_classification_short_converged_counts_superlinear():
    trace = _fake_trace([1.0, 0.0])
    trace[-1].residual = 0.0
    assert run_classification(trace, "last-iterate") == "superlinear"


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
