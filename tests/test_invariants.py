"""Cross-module invariants tied to the convergence theory."""

import numpy as np

from plqsqp.diagnostics import check_noncritical
from plqsqp.errors import MaxIterReached, PLQError, SubproblemFailure
from plqsqp.generators import generate
from plqsqp.kkt import PrimalDual, kkt_point, kkt_residual, multiplier_set
from plqsqp.sqp import SQPConfig, rate_report, run_classification, run_sqp

from conftest import make_p1, make_p2
from test_acceptance import CRITERION4_INSTANCES


INSTANCES = [
    ("nlp", dict(n=4, n_eq=1, n_ineq=2), 2),
    ("minmax", dict(n=3, m=3, n_active=2), 11),
]


def test_monotone_residual_near_solutions():
    # once the residual drops below 1e-2 on SOSC + unique-multiplier
    # instances, it decreases strictly until the stopping tolerance
    for kind, params, seed in INSTANCES:
        gp = generate(kind, seed=seed, **params)
        rng = np.random.default_rng(5)
        for _ in range(5):
            d = rng.standard_normal(gp.problem.n)
            x0 = gp.xbar + 0.4 * d / np.linalg.norm(d)
            l0 = gp.lambdabar + 0.2 * rng.standard_normal(gp.problem.m)
            trace = run_sqp(gp.problem, x0, l0, SQPConfig(max_iter=20))
            residuals = [rec.residual for rec in trace]
            started = False
            for prev, cur in zip(residuals, residuals[1:]):
                if started or prev < 1e-2:
                    started = True
                    assert cur < prev


def test_superlinear_runs_show_small_decreasing_dm(rng):
    # primal superlinear classification implies the projected model error
    # along the last steps is far below the unit step-normalized scale
    found = 0
    for kind, params, seed in INSTANCES:
        gp = generate(kind, seed=seed, **params)
        ref = PrimalDual(gp.xbar, gp.lambdabar)
        for _ in range(6):
            d = rng.standard_normal(gp.problem.n)
            x0 = gp.xbar + 0.45 * d / np.linalg.norm(d)
            l0 = gp.lambdabar + 0.2 * rng.standard_normal(gp.problem.m)
            try:
                trace = run_sqp(gp.problem, x0, l0,
                                SQPConfig(hessian_mode="bfgs", max_iter=60,
                                          reference=ref))
            except PLQError:
                continue
            if run_classification(trace, ref) != "superlinear":
                continue
            found += 1
            dms = [rec.dm_D for rec in trace[1:] if rec.step_norm > 0]
            assert all(v <= 0.1 for v in dms[-3:])
            assert min(dms[-3:]) < dms[0]  # decreasing trend over the run
    assert found >= 2


def test_vanishing_model_error_with_noncriticality_gives_superlinear(rng):
    # runs whose full Hessian-model error vanishes at a noncritical
    # multiplier must show a superlinear primal tail
    for kind, params, seed in INSTANCES:
        gp = generate(kind, seed=seed, **params)
        ref = PrimalDual(gp.xbar, gp.lambdabar)
        assert check_noncritical(gp.problem, gp.xbar, gp.lambdabar).passed
        for _ in range(4):
            d = rng.standard_normal(gp.problem.n)
            x0 = gp.xbar + 0.4 * d / np.linalg.norm(d)
            l0 = gp.lambdabar + 0.2 * rng.standard_normal(gp.problem.m)
            try:
                trace = run_sqp(gp.problem, x0, l0,
                                SQPConfig(hessian_mode="bfgs", max_iter=60,
                                          reference=ref))
            except PLQError:
                continue
            dms = [rec.dm_full for rec in trace[1:] if rec.step_norm > 0]
            if len(trace) < 4 or dms[-1] > 1e-3:
                continue
            final_ratio = rate_report(trace, ref).ratios_primal[-1]
            assert final_ratio < 0.1


def test_error_bound_ratio_matches_calmness_verdict():
    # Prop-3.8-style equivalence: the residual-based ratio
    # (|x - xbar| + dist(lam, Lambda)) / kkt_residual is bounded exactly
    # when the calmness estimate is
    p1 = make_p1()
    point = kkt_point(p1, [1.0], [1.0])
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(60):
        x = 1.0 + 1e-2 * rng.standard_normal()
        lam = 1.0 + 1e-2 * rng.standard_normal()
        r = kkt_residual(p1, [x], [lam])
        if r <= 1e-14:
            continue
        lhs = abs(x - 1.0) + abs(lam - multiplier_set(point, [lam])[0])
        worst = max(worst, lhs / r)
    assert worst < 10.0  # bounded: the error bound holds

    p2 = make_p2()
    point2 = kkt_point(p2, [0.0], [-1.0])
    ratios = []
    for t in (1e-2, 1e-3, 1e-4):
        r = kkt_residual(p2, [t], [-1.0])
        # the multiplier set is all of R: lam = -1 + t is its own projection
        assert abs(multiplier_set(point2, [-1.0 + t])[0] - (-1.0 + t)) <= 1e-12
        lhs = t + 0.0
        ratios.append(lhs / r)
    assert ratios[-1] > 10.0 * ratios[0]  # unbounded under criticality


def test_recorded_residuals_equal_the_public_residual():
    # run_sqp's residuals read the smooth data shared with the subproblem
    # and the BFGS update; each must equal kkt_residual on a problem that
    # shares none of it, bit for bit
    rng = np.random.default_rng(7)
    for kind, params, seed in CRITERION4_INSTANCES:
        gp = generate(kind, seed=seed, **params)
        fresh = generate(kind, seed=seed, **params).problem
        n, m = gp.problem.n, gp.problem.m
        for mode in ("exact", "bfgs"):
            d = rng.standard_normal(n + m)
            d *= 0.4 / np.linalg.norm(d)
            try:
                trace = run_sqp(gp.problem, gp.xbar + d[:n], gp.lambdabar + d[n:],
                                SQPConfig(hessian_mode=mode))
            except (MaxIterReached, SubproblemFailure) as exc:
                trace = exc.trace
            assert len(trace) >= 2
            for rec in trace:
                assert rec.residual == kkt_residual(fresh, rec.x, rec.lam), (kind, mode, rec.k)
