import time

import numpy as np
import pytest
from scipy.linalg import null_space

from plqsqp import diagnostics, lp, polyhedral
from plqsqp.diagnostics import (
    check_noncritical,
    check_sosc,
    check_unique_multiplier,
    estimate_calmness,
    verify_reduction_lemma,
)
from plqsqp.errors import NotAKKTPoint, NotASubgradient, PLQError, TooManyRows
from plqsqp.generators import generate
from plqsqp.kkt import (
    CompositeProblem,
    Poly2Map,
    PrimalDual,
    kkt_point,
    kkt_residual,
    multiplier_set,
)
from plqsqp.plq import (
    Piece,
    PLQFunction,
    plq_indicator,
    plq_quadratic,
    second_subderivative,
)
from plqsqp.polyhedral import PolyCone, Polyhedron, contains
from plqsqp.sqp import SQPConfig, run_sqp

from conftest import make_degenerate_range, make_dual_lq, make_p1, make_p2
from oracles import (
    criticality_feasible_at,
    faces_by_closure_walk,
    grid_noncritical_oracle,
    lagrangian,
    min_form_by_subsets,
    noncritical_by_patterns,
    unique_multiplier_by_coordinates,
)
from test_theta_constrained import LAMBAR, XBAR, box_fixture


# -- noncriticality -----------------------------------------------------------

def _minmax_4x4():
    gp = generate("minmax", seed=7, n=4, m=4, n_active=3)
    return gp.problem, gp.metadata()


def _count_calls(monkeypatch, modules, name):
    """Count calls of function `name`, rebound in each of `modules`."""
    count = [0]
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return count


def test_noncritical_minmax_lp_count(monkeypatch):
    # the walk decides each active piece with its face and K_Theta's open,
    # finds no solution, and so walks no face: 3 decisions (the product took
    # 61 pattern decisions and 3 face-walk decisions)
    prob, md = _minmax_4x4()
    decisions = _count_calls(monkeypatch, [lp, polyhedral, diagnostics], "implicit_equalities")
    walks = _count_calls(monkeypatch, [polyhedral, diagnostics], "enumerate_faces")
    verdict = check_noncritical(prob, md["xbar"], md["lambdabar"])
    assert verdict.result == "holds" and verdict.detail == "3 pattern decisions force w = 0"
    assert decisions[0] == 3 and walks[0] == 0


def test_noncritical_decision_budget_raises_before_deciding_past_it(monkeypatch):
    prob, md = _minmax_4x4()
    monkeypatch.setattr(diagnostics, "MAX_PATTERN_DECISIONS", 2)
    patterns = _count_calls(monkeypatch, [diagnostics], "_solve_pattern")
    with pytest.raises(TooManyRows):
        check_noncritical(prob, md["xbar"], md["lambdabar"])
    assert patterns[0] == 2


def test_noncritical_minmax_k5_is_decided_in_under_a_second():
    # the pattern product had 9,031 patterns here (30 s)
    gp = generate("minmax", seed=7, n=6, m=6, n_active=5)
    start = time.process_time()
    verdict = check_noncritical(gp.problem, gp.xbar, gp.lambdabar)
    assert time.process_time() - start < 1.0
    assert verdict.result == "holds"


def test_noncritical_minmax_k6_gets_an_answer():
    # the pattern product counted 144,495 patterns here and raised TooManyRows
    gp = generate("minmax", seed=7, n=7, m=7, n_active=6)
    assert check_noncritical(gp.problem, gp.xbar, gp.lambdabar).result == "holds"


def _singular_along_a_critical_direction(gp):
    """gp's problem with phi's Hessian changed so that hess_xx L becomes
    H - H v v^T H / (v^T H v), v in the null space of J's rows with
    lambda != 0 (the active ones): J v lies in every active piece's critical
    cone and H v = 0.  phi's linear term keeps grad phi(xbar)."""
    prob, x, lam = gp.problem, gp.xbar, gp.lambdabar
    _, _, H = lagrangian(prob, x, lam)
    v = null_space(prob.Phi.jacobian(x)[lam != 0.0])[:, 0]
    Hv = H @ v
    dQ = -np.outer(Hv, Hv) / (v @ Hv)
    phi = Poly2Map(prob.phi.c, prob.phi.l - dQ @ x, (prob.phi.Q[0] + dQ)[None])
    return CompositeProblem(phi, prob.Phi, prob.g, prob.Theta), x, lam


def _abs_with_an_overlapping_piece(H, lam1):
    """phi = <H x, x>/2 - lam1 x_1, Phi = x and g(y) = |y_1| on R^2, written
    with three pieces: y_1 <= 0, y_1 >= 0 and {y_1 >= 0, y_2 <= 0}, which
    overlaps the second.  (0, (lam1, 0)) is a KKT pair for |lam1| <= 1."""
    def piece(A, a):
        C = Polyhedron(np.asarray(A, dtype=float), np.zeros(len(A)), np.zeros((0, 2)), np.zeros(0))
        return Piece(C, np.zeros((2, 2)), a, 0.0)

    g = PLQFunction(2, [piece([[1.0, 0.0]], [-1.0, 0.0]), piece([[-1.0, 0.0]], [1.0, 0.0]),
                        piece([[-1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])])
    lam = np.array([lam1, 0.0])
    phi = Poly2Map(np.zeros(1), -lam[None], np.asarray(H, dtype=float)[None])
    Phi = Poly2Map(np.zeros(2), np.eye(2), np.zeros((2, 2, 2)))
    return CompositeProblem(phi, Phi, g, Polyhedron.whole_space(2)), np.zeros(2), lam


def _pattern_walk_cases():
    for k in range(1, 5):
        gp = generate("minmax", seed=7, n=k + 1, m=k + 1, n_active=k)
        yield f"minmax k={k}", gp.problem, gp.xbar, gp.lambdabar
        yield f"minmax k={k} singular", *_singular_along_a_critical_direction(gp)
    for seed in range(3):
        gp = generate("nlp", seed=seed, n=3, n_eq=1, n_ineq=2)
        yield f"nlp seed {seed} singular", *_singular_along_a_critical_direction(gp)
    for lam in (0.0, -1.0):
        yield f"P2 lam={lam}", make_p2(), [0.0], [lam]
    for lam in ([0.5, 0.5], [1.0, 0.0]):
        yield f"degenerate_range lam={lam}", make_degenerate_range(), [0.0], lam
    gp = generate("critical_showcase", seed=0)
    for lam in (gp.lambdabar, [-1.0]):
        yield f"critical_showcase lam={lam[0]}", gp.problem, gp.xbar, lam
    for H in ([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]],
              [[1.0, 2.0], [2.0, 1.0]]):
        for lam1 in (-1.0, 0.0, 1.0):
            yield f"overlapping |y1| H={H} lam1={lam1}", *_abs_with_an_overlapping_piece(H, lam1)


def test_noncritical_walk_agrees_with_the_pattern_product():
    # the walk's leaves are the product's patterns, and it prunes only
    # relaxations without a solution, so the verdicts agree; every
    # certificate passes the fixed-w feasibility oracle
    verdicts = []
    for name, prob, x, lam in _pattern_walk_cases():
        verdict = check_noncritical(prob, x, lam)
        assert verdict.passed == noncritical_by_patterns(prob, x, lam)[0], name
        if not verdict.passed:
            assert criticality_feasible_at(prob, x, lam, verdict.certificate), name
        verdicts.append((name, verdict.result))
    critical = {name for name, result in verdicts if result == "fails"}
    assert any("overlapping" in name for name in critical), verdicts
    assert any("singular" in name for name in critical), verdicts
    assert len(critical) < len(verdicts), verdicts


def test_simplicial_face_lists_keep_the_verdicts(monkeypatch):
    # enumerate_faces lists a simplicial cone's faces without closures; the
    # noncriticality and SOSC verdicts and certificates are the closure walk's
    cases = list(_pattern_walk_cases()) + [
        ("orthant", _orthant_problem(np.array([[1.0, -3.0], [-3.0, 1.0]])), [0.0, 0.0], [0.0]),
        ("wedge", _wide_wedge_problem(), [0.0, 0.0], [0.0])]

    def verdicts():
        out = []
        for name, prob, x, lam in cases:
            for check in (check_noncritical, check_sosc):
                v = check(prob, x, lam)
                cert = None if v.certificate is None else np.asarray(v.certificate).tobytes()
                out.append((name, v.condition, v.result, v.detail, cert))
        return out

    walked = verdicts()
    assert sum("exact over" in detail for *_, detail, _ in walked) >= 10
    monkeypatch.setattr(diagnostics, "enumerate_faces", lambda cone: [
        polyhedral.Face(cone, key) for key in faces_by_closure_walk(cone)])
    assert verdicts() == walked


def test_p2_criticality_discrimination():
    p2 = make_p2()
    v = check_noncritical(p2, [0.0], [-1.0])
    assert v.result == "fails" and v.certificate is not None
    assert abs(abs(v.certificate[0]) - 1.0) <= 1e-9
    for lam in (0.0, 1.0, -0.5):
        assert check_noncritical(p2, [0.0], [lam]).result == "holds"


def test_p2_lp_route_agrees_with_grid_oracle():
    p2 = make_p2()
    for lam in (-1.0, 0.0, 1.0, -0.5):
        lp_noncritical = check_noncritical(p2, [0.0], [lam]).result == "holds"
        assert lp_noncritical == grid_noncritical_oracle(p2, [0.0], [lam])


def test_noncritical_trivial_cone_example():
    # phi = x^2/2, Phi = x, g = indicator({0}): dom of the proto-derivative
    # forces w = 0
    phi = Poly2Map(np.zeros(1), np.zeros((1, 1)), np.array([[[1.0]]]))
    Phi = Poly2Map(np.zeros(1), np.array([[1.0]]), np.zeros((1, 1, 1)))
    prob = CompositeProblem(phi, Phi, plq_indicator(Polyhedron.point([0.0])),
                            Polyhedron.whole_space(1))
    assert check_noncritical(prob, [0.0], [0.0]).result == "holds"


def test_noncritical_2d_grid_agreement(rng):
    from plqsqp.generators import generate
    gp = generate("nlp", seed=4, n=2, n_eq=1, n_ineq=1)
    verdict = check_noncritical(gp.problem, gp.xbar, gp.lambdabar)
    assert verdict.result == "holds"
    assert grid_noncritical_oracle(gp.problem, gp.xbar, gp.lambdabar,
                                   grid=np.arange(-1.0, 1.001, 0.05))


def test_noncritical_requires_kkt_point():
    p1 = make_p1()
    with pytest.raises(NotAKKTPoint):
        check_noncritical(p1, [0.5], [0.0])


def test_zero_hessian_minmax_is_critical_with_exact_certificate():
    """With a vanishing Lagrangian Hessian and piecewise-linear g, u = 0 is
    always in the proto-derivative, so every direction mapped into the
    critical cone of g certifies criticality; the certificate direction is
    generally off any fixed grid, which is why only the exact fixed-w
    oracle can confirm it."""
    from plqsqp.generators import generate_minmax

    gp = generate_minmax(n=2, m=3, n_active=2, seed=0)
    prob = gp.problem
    S = np.einsum("k,kij->ij", gp.lambdabar, prob.Phi.Q)
    lphi = -((-S) @ gp.xbar) - prob.Phi.jacobian(gp.xbar).T @ gp.lambdabar
    phi0 = Poly2Map(np.zeros(1), lphi.reshape(1, -1), (-S).reshape(1, 2, 2))
    degenerate = CompositeProblem(phi0, prob.Phi, prob.g, prob.Theta)
    assert kkt_residual(degenerate, gp.xbar, gp.lambdabar) <= 1e-9
    verdict = check_noncritical(degenerate, gp.xbar, gp.lambdabar)
    assert verdict.result == "fails"
    assert criticality_feasible_at(degenerate, gp.xbar, gp.lambdabar,
                                   verdict.certificate)


# -- second-order approximation link (stationary points of the reduced problem)

def test_second_order_approximation_unique_stationary_point():
    # where noncriticality holds, w = 0 is the only stationary point of
    # min <hess w, w> + d^2 g(Phi(xbar), lam)(J w) over the Theta critical cone
    p2 = make_p2()
    for lam, expect_unique in ((0.0, True), (-1.0, False)):
        _, grad, hess = lagrangian(p2, [0.0], [lam])
        J = p2.Phi.jacobian([0.0])
        z = p2.Phi.value([0.0])
        stationary = []
        for w in np.arange(-1.0, 1.001, 1e-2):
            wv = np.array([w])
            d2 = second_subderivative(p2.g, z, [lam], J @ wv)
            if not np.isfinite(d2):
                continue
            q = float(wv @ hess @ wv) + d2
            # stationarity of the quadratic form on the line: derivative 0
            if abs(2.0 * (hess[0, 0] * w)) <= 1e-9:
                stationary.append(w)
        only_zero = all(abs(w) <= 1e-9 for w in stationary)
        assert only_zero == expect_unique


# -- uniqueness -----------------------------------------------------------------

def test_unique_multiplier_examples():
    p1 = make_p1()
    assert check_unique_multiplier(p1, [1.0], [1.0]).result == "holds"
    p2 = make_p2()
    assert check_unique_multiplier(p2, [0.0], [0.5]).result == "fails"
    phi = Poly2Map(np.zeros(1), np.zeros((1, 1)), np.array([[[1.0]]]))
    Phi = Poly2Map(np.zeros(1), np.array([[1.0]]), np.zeros((1, 1, 1)))
    smooth = CompositeProblem(phi, Phi, plq_quadratic(np.zeros((1, 1))),
                              Polyhedron.whole_space(1))
    assert check_unique_multiplier(smooth, [0.0], [0.0]).result == "holds"


def test_unique_multiplier_degenerate_range(degenerate_range):
    v = check_unique_multiplier(degenerate_range, [0.0], [0.5, 0.5])
    assert v.result == "fails" and v.certificate is not None


def _uniqueness_cases():
    for kind in ("nlp", "elqp", "critical_showcase", "minmax"):
        for seed in range(4):
            gp = generate(kind, seed=seed)
            yield f"{kind} seed {seed}", gp.problem, gp.xbar, gp.lambdabar
    yield "P1", make_p1(), [1.0], [1.0]
    for lam in (0.0, 0.5, -1.0):
        yield f"P2 lam={lam}", make_p2(), [0.0], [lam]
    for lam in ([0.5, 0.5], [0.2, 0.8]):
        yield f"degenerate_range lam={lam}", make_degenerate_range(), [0.0], lam
    yield "box", box_fixture(), XBAR, LAMBAR


def test_unique_multiplier_matches_the_coordinate_oracle(monkeypatch):
    # one implicit-equality decision (the dual cone condition) settles it;
    # the multiplier polyhedron's coordinate ranges agree, and a failing
    # certificate is a direction that stays inside that polyhedron
    decisions = _count_calls(monkeypatch, [lp, polyhedral, diagnostics], "implicit_equalities")
    outcomes = set()
    for name, prob, x, lam in _uniqueness_cases():
        before = decisions[0]
        verdict = check_unique_multiplier(prob, x, lam)
        assert decisions[0] - before == 1, name
        assert verdict.passed == unique_multiplier_by_coordinates(prob, x, lam), name
        outcomes.add(verdict.result)
        if not verdict.passed:
            u = verdict.certificate
            moved = np.asarray(lam, dtype=float) + 1e-3 * u / np.abs(u).max()
            point = kkt_point(prob, x, lam)
            assert np.linalg.norm(multiplier_set(point, moved) - moved) <= 1e-9, name
    assert outcomes == {"holds", "fails"}


# -- SOSC -------------------------------------------------------------------------

def test_sosc_examples(rng):
    p1 = make_p1()
    v = check_sosc(p1, [1.0], [1.0], rng=rng)
    assert v.result == "heuristic_holds" and "trivial" in v.detail
    phi = Poly2Map(np.zeros(1), np.zeros((1, 1)), np.array([[[1.0]]]))
    Phi = Poly2Map(np.zeros(1), np.array([[1.0]]), np.zeros((1, 1, 1)))
    smooth = CompositeProblem(phi, Phi, plq_quadratic(np.zeros((1, 1))),
                              Polyhedron.whole_space(1))
    assert check_sosc(smooth, [0.0], [0.0], rng=rng).result == "heuristic_holds"
    p2 = make_p2()
    v = check_sosc(p2, [0.0], [-1.0], rng=rng)
    assert v.result == "heuristic_fails"
    w = v.certificate
    _, _, hess = lagrangian(p2, [0.0], [-1.0])
    assert abs(float(w @ hess @ w)) <= 1e-8  # exact certificate of failure


def test_sosc_negative_curvature_found(rng):
    # a genuinely indefinite Lagrangian over the whole line
    phi = Poly2Map(np.zeros(1), np.zeros((1, 1)), np.array([[[-1.0]]]))
    Phi = Poly2Map(np.zeros(1), np.array([[1.0]]), np.zeros((1, 1, 1)))
    prob = CompositeProblem(phi, Phi, plq_quadratic(np.zeros((1, 1))),
                            Polyhedron.whole_space(1))
    v = check_sosc(prob, [0.0], [0.0], rng=rng)
    assert v.result == "heuristic_fails"


def _wide_wedge_problem(rows=21):
    """phi = |x|^2/2 over a 2-D wedge cut by `rows` rows, all active at 0; g = 0."""
    angles = np.pi * (0.6 + 0.8 * np.arange(rows) / (rows - 1))
    Theta = Polyhedron(np.column_stack([np.cos(angles), np.sin(angles)]), np.zeros(rows),
                       np.zeros((0, 2)), np.zeros(0))
    phi = Poly2Map(np.zeros(1), np.zeros((1, 2)), np.eye(2).reshape(1, 2, 2))
    Phi = Poly2Map(np.zeros(1), np.zeros((1, 2)), np.zeros((1, 2, 2)))
    return CompositeProblem(phi, Phi, plq_quadratic([[0.0]]), Theta)


def test_sosc_wide_wedge_is_decided_by_walking_its_four_faces(rng):
    # Theta is a 2-D wedge cut by 21 rows, all active at 0: 2^21 row subsets,
    # but the face walk finds its 4 faces well under the face cap, so the
    # verdict is exact
    v = check_sosc(_wide_wedge_problem(), [0.0, 0.0], [0.0], rng=rng)
    assert v.result == "heuristic_holds"
    assert "exact over 4 faces" in v.detail and "inconclusive" not in v.detail


def test_sosc_is_inconclusive_above_the_face_cap(rng, monkeypatch):
    # a member whose face walk refuses ends the check without an answer:
    # no sampled fallback runs (it would project), and no certificate
    def refuse(cone):
        raise TooManyRows("refused")

    monkeypatch.setattr(diagnostics, "enumerate_faces", refuse)
    projections = _count_calls(monkeypatch, [diagnostics], "project")
    v = check_sosc(_wide_wedge_problem(), [0.0, 0.0], [0.0], rng=rng)
    assert v.result == "heuristic_fails" and not v.passed
    assert v.certificate is None
    assert v.detail.startswith("inconclusive: member 0")
    assert projections[0] == 0


def _orthant_problem(Q):
    """phi = x^T Q x / 2 over R^2_+, g = 0; (0, 0) is a KKT point."""
    phi = Poly2Map(np.zeros(1), np.zeros((1, 2)), Q.reshape(1, 2, 2))
    Phi = Poly2Map(np.zeros(1), np.zeros((1, 2)), np.zeros((1, 2, 2)))
    return CompositeProblem(phi, Phi, plq_quadratic([[0.0]]), Polyhedron.nonneg(2))


def test_sosc_finds_a_failure_inside_a_face(rng):
    # phi = x^T Q x / 2 over R^2_+ at 0: both rays have form value 1 and the
    # lineality space is {0}, but Q is negative on the interior direction (1, 1)
    Q = np.array([[1.0, -3.0], [-3.0, 1.0]])
    prob = _orthant_problem(Q)
    v = check_sosc(prob, [0.0, 0.0], [0.0], rng=rng)
    assert v.result == "heuristic_fails"
    assert np.linalg.norm(v.certificate - np.array([1.0, 1.0]) / np.sqrt(2.0)) <= 1e-9
    assert abs(float(v.certificate @ Q @ v.certificate) + 2.0) <= 1e-9


def _random_cone_and_form(rng):
    """A cone in R^2..R^4 with 1-6 rows, 0-1 equality rows and often a
    lineality space, and a generic symmetric form of mixed sign."""
    n = int(rng.integers(2, 5))
    k = int(rng.integers(1, n + 1))  # the rows live in k dimensions: lineality n - k
    B = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :k]
    A = rng.standard_normal((int(rng.integers(1, 7)), k))
    if rng.random() < 0.75:  # keep a random center interior to the rows
        A = -np.sign(A @ rng.standard_normal(k))[:, None] * A
    E = rng.standard_normal((int(rng.integers(0, 2)), n))
    Q = rng.standard_normal((n, n))
    return PolyCone.from_rows(A @ B.T, E, n), Q + Q.T


def test_face_minimum_matches_subset_oracle():
    rng = np.random.default_rng(31)
    nontrivial = 0
    for _ in range(100):
        M, Q = _random_cone_and_form(rng)
        val, w, _ = diagnostics._face_minimum(M, Q)
        expected, _ = min_form_by_subsets(M, Q)
        if np.isinf(expected):
            assert w is None and np.isinf(val)
            continue
        nontrivial += 1
        assert abs(val - expected) <= 1e-8 * (1.0 + abs(expected))
        assert contains(M, w) and abs(np.linalg.norm(w) - 1.0) <= 1e-12
        assert abs(float(w @ Q @ w) - val) <= 1e-12 * (1.0 + abs(val))
    assert nontrivial >= 50


def test_cone_checks_on_dual_lq_g_raise_plq_error():
    prob = make_dual_lq()
    assert kkt_residual(prob, [0.0], [0.5]) <= 1e-12
    for check in (check_noncritical, check_unique_multiplier, check_sosc):
        with pytest.raises(PLQError):
            check(prob, [0.0], [0.5])
    # Lambda's lifted system needs pieces, and is built before any sample
    with pytest.raises(PLQError):
        estimate_calmness(prob, [0.0], [0.5], mode="full")


# -- reduction lemma -----------------------------------------------------------

def test_reduction_lemma_quadratic_case(rng, g_quad):
    v = verify_reduction_lemma(g_quad, [1.0], [1.0], eps=1e-2, n_samples=60, rng=rng)
    assert v.result == "holds"


def test_reduction_lemma_abs_kink(rng, g_abs):
    v = verify_reduction_lemma(g_abs, [0.0], [1.0], eps=1e-2, n_samples=80, rng=rng)
    assert v.result == "holds"
    v = verify_reduction_lemma(g_abs, [0.0], [0.3], eps=1e-2, n_samples=40, rng=rng)
    assert v.result == "holds"


def test_reduction_lemma_two_piece_interface(g_two_piece_2d):
    # some sampled directions lie within 1e-8 but not 1e-9 of a piece
    # critical cone; membership must use one tolerance throughout
    v = verify_reduction_lemma(g_two_piece_2d, [0.0, 0.0], [-1.0, 0.0], eps=1e-2,
                               n_samples=500, rng=np.random.default_rng(15))
    assert v.result == "holds"


def test_reduction_lemma_samples_lie_within_eps_of_their_base_points(
        monkeypatch, g_ind_nonpos, g_two_piece_2d):
    # Minty's map is firmly nonexpansive, so every tested forward sample
    # (w, u) of gph dg - (zbar, vbar) and every backward sample (z, v) of
    # gph dg lies within eps of (0, 0) and of (zbar, vbar): none is skipped.
    # Each direction is one block call with a row per sample
    tested = []
    member = diagnostics.in_subgradient_graph

    def spy(f, z, v):
        tested.append((f, np.asarray(z), np.asarray(v)))
        return member(f, z, v)

    monkeypatch.setattr(diagnostics, "in_subgradient_graph", spy)
    eps = 1e-2
    for g, zbar, vbar in ((g_ind_nonpos, [0.0], [1.0]),
                          (g_two_piece_2d, [0.0, 0.0], [-1.0, 0.0])):
        tested.clear()
        v = verify_reduction_lemma(g, zbar, vbar, eps=eps, n_samples=100,
                                   rng=np.random.default_rng(2))
        assert v.result == "holds"
        assert [f is g for f, _, _ in tested] == [False, True]
        for f, z, u in tested:
            assert z.shape == u.shape == (100, g.m)
            base_z, base_v = (zbar, vbar) if f is g else (0.0, 0.0)
            assert np.all(np.hypot(np.linalg.norm(z - base_z, axis=1),
                                   np.linalg.norm(u - base_v, axis=1)) <= eps * (1.0 + 1e-12))


def test_reduction_lemma_rejects_non_subgradient(g_abs):
    with pytest.raises(NotASubgradient):
        verify_reduction_lemma(g_abs, [0.0], [2.0])


def test_reduction_lemma_bisection_finds_locality_threshold(rng):
    """Crafted instance where a large eps breaks locality.

    g(z) = max(0, |z| - 1) has extra kinks at +-1; around (0, 0) the
    reduction identity holds only inside |.| < 1, so bisection on eps
    must settle below roughly 1.4 (the diagonal reach of the kink).
    """
    from plqsqp.plq import Piece, PLQFunction
    g = PLQFunction(1, [
        Piece(Polyhedron.box([-1.0], [1.0]), np.zeros((1, 1)), [0.0], 0.0),
        Piece(Polyhedron.box([1.0], [np.inf]), np.zeros((1, 1)), [1.0], -1.0),
        Piece(Polyhedron.box([-np.inf], [-1.0]), np.zeros((1, 1)), [-1.0], -1.0),
    ])
    lo, hi = 0.0, 4.0
    for _ in range(12):
        eps = 0.5 * (lo + hi)
        v = verify_reduction_lemma(g, [0.0], [0.0], eps=eps, n_samples=60,
                                   rng=np.random.default_rng(3))
        if v.result == "holds":
            lo = eps
        else:
            hi = eps
    assert 0.9 <= hi <= 3.0  # threshold located near the kink scale
    assert lo < hi


# -- calmness (smoke level; full battery in the acceptance suite) ---------------

def test_calmness_p1_bounded(rng):
    p1 = make_p1()
    v = estimate_calmness(p1, [1.0], [1.0], radii=[1e-2, 1e-3], n_samples=5,
                          mode="full", rng=rng)
    assert v.result == "heuristic_holds"
    assert not v.detail.startswith("inconclusive")


def test_calmness_builds_no_monitor_cones(rng, point_builds):
    # the perturbed solves read only their last iterate, so run_sqp builds
    # no KKT point for the Dennis-More monitors; the point calmness itself
    # reads at (1, 1) is built beforehand and kept
    p1 = make_p1()
    kkt_point(p1, [1.0], [1.0])
    point_builds.clear()
    v = estimate_calmness(p1, [1.0], [1.0], radii=[1e-2, 1e-3], n_samples=5,
                          mode="full", rng=rng)
    assert v.result == "heuristic_holds"
    assert point_builds == []


def test_checks_and_monitors_at_one_pair_share_one_kkt_point(point_builds, monkeypatch):
    # the three exact checks, calmness (reading D) and a monitored run
    # anchored there build one KKT point and one critical cone D
    from plqsqp import kkt
    cones = []
    cone_D = kkt.cone_D

    def spy(point):
        cones.append(point)
        return cone_D(point)

    monkeypatch.setattr(kkt, "cone_D", spy)
    gp = generate("minmax", seed=7, n=3, m=3, n_active=2)
    problem, x, lam = gp.problem, gp.xbar, gp.lambdabar
    assert check_noncritical(problem, x, lam).result == "holds"
    assert check_unique_multiplier(problem, x, lam).result == "holds"
    assert check_sosc(problem, x, lam).result == "heuristic_holds"
    calm = estimate_calmness(problem, x, lam, radii=[1e-2, 1e-3], n_samples=2,
                             mode="primal_D", rng=np.random.default_rng(0))
    assert calm.condition == "primal_estimate_D"
    trace = run_sqp(problem, x + 0.05, lam + 0.05,
                    SQPConfig(hessian_mode="bfgs", reference=PrimalDual(x, lam)))
    assert any(rec.dm_D > 0.0 for rec in trace)
    assert len(point_builds) == 1 and len(cones) == 1


def test_calmness_checks_its_mode_first():
    # (0, 0) is no KKT point of P1: an unknown mode must still read as such
    with pytest.raises(ValueError, match="unknown calmness mode"):
        estimate_calmness(make_p1(), [0.0], [0.0], mode="dual")


def test_calmness_zero_perturbation_guard(rng):
    # a (0,0) perturbation must not poison the ratio with a 0/0 sample
    p1 = make_p1()
    v = estimate_calmness(p1, [1.0], [1.0], radii=[1e-2, 1e-3], n_samples=3,
                          mode="full", rng=rng)
    assert np.all(np.isfinite(v.certificate))


def test_calmness_without_usable_samples_reads_inconclusive():
    # at critical_showcase's embedded point no perturbed problem has a KKT
    # point near (0, 0), so every radius is left without a sample: the
    # result name stays, and the detail says there is no evidence
    gp = generate("critical_showcase", seed=0)
    v = estimate_calmness(gp.problem, gp.xbar, gp.lambdabar, mode="full",
                          rng=np.random.default_rng(0))
    assert v.result == "heuristic_fails"
    assert v.detail.startswith("inconclusive: 3 of 3 radii without usable samples")
    assert "skipped=24" in v.detail and np.all(np.isnan(v.certificate))


def test_multiplier_distance_uses_projection(degenerate_range):
    point = kkt_point(degenerate_range, [0.0], [0.5, 0.5])
    lam = np.array([2.0, 2.0])
    p = multiplier_set(point, lam)
    assert abs(p.sum() - 1.0) <= 1e-9 and np.all(p >= -1e-12)
