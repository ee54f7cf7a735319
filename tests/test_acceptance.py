"""Acceptance battery: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Tolerances and budgets are pinned here and nowhere else.
"""

import time

import numpy as np

from plqsqp.diagnostics import (
    check_noncritical,
    check_sosc,
    check_unique_multiplier,
    estimate_calmness,
    verify_reduction_lemma,
)
from plqsqp.errors import PLQError
from plqsqp.generators import generate
from plqsqp.kkt import CompositeProblem, Poly2Map, PrimalDual
from plqsqp.plq import plq_abs, plq_indicator, plq_quadratic
from plqsqp.polyhedral import Polyhedron
from plqsqp.properties import (
    moreau_polarity_suite,
    projection_suite,
    prox_resolvent_suite,
    second_quotient_suite,
    subdifferential_duality_suite,
    tangent_localization_suite,
)
from plqsqp.sqp import SQPConfig, rate_report, run_classification, run_sqp

from conftest import make_degenerate_range, make_p1, make_p2
from oracles import grid_noncritical_oracle


def _report(num, ok, text):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {text}"
    print(line)
    assert ok, line


def _g_fixtures():
    # rebuild the 2-piece 2-D fixture without the pytest fixture machinery
    from plqsqp.plq import Piece, PLQFunction
    left = Piece(Polyhedron.from_dict({"A": [[1.0, 0.0]], "b": [0.0],
                                       "E": [], "d": []}, n=2),
                 np.diag([0.0, 1.0]), [-1.0, 0.0], 0.0)
    right = Piece(Polyhedron.from_dict({"A": [[-1.0, 0.0]], "b": [0.0],
                                        "E": [], "d": []}, n=2),
                  np.diag([2.0, 1.0]), [-1.0, 0.0], 0.0)
    two_piece = PLQFunction(2, [left, right])
    return [
        ("abs", plq_abs()),
        ("ind_nonpos", plq_indicator(Polyhedron.nonpos(1))),
        ("half_square", plq_quadratic([[1.0]])),
        ("two_piece_2d", two_piece),
    ]


def test_criterion_1_calculus_suite():
    """Prox resolvent, duality, quotient equality, projection properties."""
    t0 = time.time()
    failures = []
    rng = np.random.default_rng(1)
    for name, g in _g_fixtures():
        f, total, _ = prox_resolvent_suite(g, rng, n_cases=200)
        failures.append((f"{name}:prox", f, total))
        f, total, _ = subdifferential_duality_suite(g, rng, n_cases=50)
        failures.append((f"{name}:duality", f, total))
        f, total, _ = second_quotient_suite(g, rng, n_cases=200)
        failures.append((f"{name}:quotient", f, total))
    simplex = Polyhedron(np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                         np.array([1.0, 0.0, 0.0]), np.zeros((0, 2)), np.zeros(0))
    for P in (simplex, Polyhedron.nonpos(1), Polyhedron.box([-1.0, 0.0], [1.0, 2.0])):
        f, total, _ = projection_suite(P, rng, n_cases=200)
        failures.append(("projection", f, total))
        f, total, _ = tangent_localization_suite(P, rng, n_cases=100)
        failures.append(("tangent-localization", f, total))
    from plqsqp.polyhedral import PolyCone
    cone = PolyCone.from_rows(np.array([[1.0, 0.5], [-0.2, -1.0]]), np.zeros((0, 2)))
    f, total, _ = moreau_polarity_suite(cone, rng, n_cases=100)
    failures.append(("moreau", f, total))
    elapsed = time.time() - t0
    bad = [(n, f, t) for n, f, t in failures if f]
    _report(1, not bad and elapsed < 10.0,
            f"calculus suites 0 failures across {len(failures)} batteries "
            f"in {elapsed:.1f}s (< 10 s)" if not bad else f"failures: {bad}")


CRITERION2_ANCHORS = {
    "abs": ([0.0], [1.0]),
    "ind_nonpos": ([0.0], [1.0]),
    "half_square": ([1.0], [1.0]),
    "two_piece_2d": ([0.0, 0.0], [-1.0, 0.0]),
}


def test_criterion_2_reduction_lemma():
    """500+500 samples at eps = 1e-2 on every fixture, zero violations."""
    t0 = time.time()
    bad = []
    for name, g in _g_fixtures():
        z, v = CRITERION2_ANCHORS[name]
        verdict = verify_reduction_lemma(g, z, v, eps=1e-2, n_samples=500,
                                         rng=np.random.default_rng(2))
        if verdict.result != "holds":
            bad.append((name, verdict.detail))
    elapsed = time.time() - t0
    _report(2, not bad and elapsed < 5.0,
            f"reduction lemma holds on all 4 fixtures, 500+500 samples each, "
            f"{elapsed:.1f}s (< 5 s)" if not bad else f"violations: {bad}")


def test_criterion_3_critical_multiplier_discrimination():
    """Exact LP route and the grid brute-force oracle agree on P2."""
    p2 = make_p2()
    points = [(-1.0, "fails"), (0.0, "holds"), (1.0, "holds"), (-0.5, "holds")]
    ok = True
    notes = []
    for lam, expected in points:
        verdict = check_noncritical(p2, [0.0], [lam])
        oracle_noncritical = grid_noncritical_oracle(p2, [0.0], [lam])
        agree = (verdict.result == "holds") == oracle_noncritical
        right = verdict.result == expected
        if expected == "fails" and verdict.certificate is None:
            right = False
        ok &= agree and right
        notes.append(f"lam={lam}: {verdict.result}")
    _report(3, ok, "P2 criticality verdicts " + ", ".join(notes)
            + "; LP route agrees with the grid oracle on all four points")


CRITERION4_INSTANCES = [
    ("elqp", dict(n=2, m=2), 3),
    ("elqp", dict(n=3, m=3), 5),
    ("nlp", dict(n=4, n_eq=1, n_ineq=2), 2),
    ("minmax", dict(n=3, m=3, n_active=2), 11),
    ("minmax", dict(n=4, m=4, n_active=3), 7),
]


def test_criterion_4_basic_sqp_superlinear():
    """Exact-mode convergence from 10 nearby starts on 5 verified instances."""
    ok = True
    notes = []
    multi_piece_multistep = 0
    for kind, params, seed in CRITERION4_INSTANCES:
        gp = generate(kind, seed=seed, **params)
        ref = PrimalDual(gp.xbar, gp.lambdabar)
        sosc = check_sosc(gp.problem, gp.xbar, gp.lambdabar,
                          rng=np.random.default_rng(0))
        unique = check_unique_multiplier(gp.problem, gp.xbar, gp.lambdabar)
        assert sosc.result == "heuristic_holds" and unique.result == "holds"
        rng = np.random.default_rng(100)
        n, m = gp.problem.n, gp.problem.m
        t0 = time.time()
        wins = 0
        min_iters_seen = []
        for _ in range(10):
            d = rng.standard_normal(n + m)
            d /= np.linalg.norm(d)
            x0 = gp.xbar + 0.5 * d[:n] * rng.uniform(0.3, 1.0)
            l0 = gp.lambdabar + 0.5 * d[n:] * rng.uniform(0.3, 1.0)
            try:
                trace = run_sqp(gp.problem, x0, l0,
                                SQPConfig(max_iter=15, reference=ref))
            except PLQError:
                continue
            iters = len(trace) - 1
            min_iters_seen.append(iters)
            converged = trace[-1].residual <= 1e-10 and iters <= 15
            cls = run_classification(trace, ref)
            pd_ratio = (rate_report(trace, ref).ratios_pd[-1]
                        if len(trace) >= 4 else 0.0)
            wins += int(converged and cls == "superlinear" and pd_ratio < 0.1)
        elapsed = time.time() - t0
        inst_ok = wins >= 9 and elapsed < 5.0
        if kind == "minmax" and min(min_iters_seen) >= 3:
            multi_piece_multistep += 1
        ok &= inst_ok
        notes.append(f"{kind}(seed {seed}): {wins}/10 superlinear, {elapsed:.1f}s")
    ok &= multi_piece_multistep >= 2
    _report(4, ok, "; ".join(notes)
            + f"; {multi_piece_multistep} multi-piece instances took >= 3 iterations")


def _identity_mode_fixture():
    """Lagrangian Hessian diag(0.3, 1.7), far from the identity; g inactive."""
    n = 2
    phi = Poly2Map(np.zeros(1), np.zeros((1, n)), np.array([np.diag([0.3, 1.7])]))
    Phi = Poly2Map(np.array([-2.0]), np.array([[1.0, 1.0]]), np.zeros((1, n, n)))
    return CompositeProblem(phi, Phi, plq_indicator(Polyhedron.nonpos(1)),
                            Polyhedron.whole_space(n))


def test_criterion_5_quasi_newton_characterization():
    """(i) every converged BFGS run reads superlinear and shows vanishing
    projected model error; (ii) without the Dennis-More property the rate
    is only linear."""
    instances = [
        ("elqp", dict(n=3, m=3), 5),
        ("nlp", dict(n=4, n_eq=1, n_ineq=2), 2),
        ("minmax", dict(n=3, m=3, n_active=2), 11),
    ]
    converged_runs = superlinear_runs = 0
    counterexamples = 0
    for kind, params, seed in instances:
        gp = generate(kind, seed=seed, **params)
        assert np.all(gp.problem.Theta.A.shape[0] == 0)  # Theta = R^n instances
        ref = PrimalDual(gp.xbar, gp.lambdabar)
        rng = np.random.default_rng(123)
        for _ in range(10):
            n, m = gp.problem.n, gp.problem.m
            d = rng.standard_normal(n)
            d /= np.linalg.norm(d)
            x0 = gp.xbar + 0.45 * d
            l0 = gp.lambdabar + 0.2 * rng.standard_normal(m)
            try:
                trace = run_sqp(gp.problem, x0, l0,
                                SQPConfig(hessian_mode="bfgs", max_iter=60,
                                          reference=ref))
            except PLQError:
                continue
            if trace[-1].residual > 1e-10:
                continue
            converged_runs += 1
            superlinear_runs += run_classification(trace, ref) == "superlinear"
            dms = [r.dm_D for r in trace[1:] if r.step_norm > 0]
            if not (dms[-1] < 0.05 and dms[-1] < dms[0]):
                counterexamples += 1
    part_i = superlinear_runs == converged_runs == 30 and counterexamples == 0

    prob = _identity_mode_fixture()
    ref = PrimalDual(np.zeros(2), np.zeros(1))
    trace = run_sqp(prob, [0.4, 0.4], [0.0],
                    SQPConfig(hessian_mode="fixed_identity", max_iter=100,
                              reference=ref))
    rep = rate_report(trace, ref)
    dms = [r.dm_full for r in trace[1:] if r.step_norm > 0]
    part_ii = min(dms) >= 0.2 and rep.classification == "linear"
    _report(5, part_i and part_ii,
            f"(i) {superlinear_runs} of {converged_runs} converged BFGS runs "
            f"superlinear, {counterexamples} "
            f"counterexamples to decreasing dm_D < 0.05; (ii) identity mode: "
            f"dm_full >= {min(dms):.2f} with {rep.classification} rate")


def test_criterion_6_error_bound_calmness():
    """Bounded calmness modulus under noncriticality; blow-up at a critical
    multiplier."""
    radii = [1e-2, 1e-3, 1e-4]
    p1 = make_p1()
    v1 = estimate_calmness(p1, [1.0], [1.0], radii=radii, n_samples=8,
                           mode="full", rng=np.random.default_rng(0))
    k1 = v1.certificate
    stable_p1 = v1.result == "heuristic_holds" and max(k1) / min(k1) < 2.0

    gp = generate("elqp", seed=3, n=2, m=2)
    v2 = estimate_calmness(gp.problem, gp.xbar, gp.lambdabar, radii=radii,
                           n_samples=8, mode="full", rng=np.random.default_rng(0))
    k2 = v2.certificate
    stable_elqp = v2.result == "heuristic_holds" and max(k2) / min(k2) < 2.0

    p2 = make_p2()
    v3 = estimate_calmness(p2, [0.0], [-1.0], radii=radii, n_samples=8,
                           mode="full", rng=np.random.default_rng(0))
    k3 = v3.certificate
    growth = k3[-1] / k3[0]
    blows_up = v3.result == "heuristic_fails" and growth > 10.0
    _report(6, stable_p1 and stable_elqp and blows_up,
            f"P1 kappa variation {max(k1) / min(k1):.2f}x (< 2), ELQP "
            f"{max(k2) / min(k2):.2f}x (< 2), P2 at the critical multiplier "
            f"grows {growth:.1f}x (> 10)")


def test_criterion_7_primal_estimates():
    """Primal moduli: P_D route under SOSC, P_D+ route under noncriticality
    with a nonunique multiplier set."""
    radii = [1e-2, 1e-3, 1e-4]
    p1 = make_p1()
    vd = estimate_calmness(p1, [1.0], [1.0], radii=radii, n_samples=8,
                           mode="primal_D", rng=np.random.default_rng(0))
    kd = vd.certificate
    sosc_stable = vd.result == "heuristic_holds" and max(kd) / min(kd) < 2.0

    dr = make_degenerate_range()
    lam = [0.5, 0.5]
    noncrit = check_noncritical(dr, [0.0], lam).result == "holds"
    nonunique = check_unique_multiplier(dr, [0.0], lam).result == "fails"
    vp = estimate_calmness(dr, [0.0], lam, radii=radii, n_samples=8,
                           mode="primal_Dplus", rng=np.random.default_rng(0))
    kp = vp.certificate
    dplus_stable = vp.result == "heuristic_holds" and max(kp) / min(kp) < 2.0
    vf = estimate_calmness(dr, [0.0], lam, radii=radii, n_samples=8,
                           mode="full", rng=np.random.default_rng(0))
    kf = vf.certificate
    full_tolerates = vf.result == "heuristic_holds" and max(kf) / min(kf) < 2.0
    _report(7, sosc_stable and noncrit and nonunique and dplus_stable
            and full_tolerates,
            f"SOSC instance primal-D modulus varies {max(kd) / min(kd):.2f}x; "
            f"nonunique-multiplier instance is noncritical, primal-D+ modulus "
            f"varies {max(kp) / min(kp):.2f}x and the full mode tolerates the "
            f"nonuniqueness ({max(kf) / min(kf):.2f}x)")


def test_criterion_8_cross_theorem_consistency():
    """Implication table over fixtures with known local minimizers:
    (sosc and unique) iff (noncritical and unique and local-min)."""
    rows = []
    # (problem, xbar, lambdabar, known local minimizer flag)
    p1 = make_p1()
    rows.append(("P1", p1, [1.0], [1.0], True))
    p2 = make_p2()
    rows.append(("P2(lam=0)", p2, [0.0], [0.0], True))
    rows.append(("P2(lam=-1)", p2, [0.0], [-1.0], True))
    dr = make_degenerate_range()
    rows.append(("degenerate", dr, [0.0], [0.5, 0.5], True))
    for kind, params, seed in CRITERION4_INSTANCES[:3]:
        gp = generate(kind, seed=seed, **params)
        rows.append((f"{kind}({seed})", gp.problem, gp.xbar, gp.lambdabar, True))
    violations = []
    for name, prob, x, lam, localmin in rows:
        sosc = check_sosc(prob, x, lam, rng=np.random.default_rng(0)).passed
        unique = check_unique_multiplier(prob, x, lam).passed
        noncritical = check_noncritical(prob, x, lam).passed
        left = sosc and unique
        right = noncritical and unique and localmin
        if left != right:
            violations.append((name, sosc, unique, noncritical))
    _report(8, not violations,
            f"condition table consistent on {len(rows)} KKT points, "
            f"0 violations" if not violations else f"violations: {violations}")
