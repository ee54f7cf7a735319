import numpy as np
import pytest

from plqsqp.diagnostics import (
    check_noncritical,
    check_sosc,
    check_unique_multiplier,
    estimate_calmness,
    verify_reduction_lemma,
)
from plqsqp.errors import NotAKKTPoint, NotASubgradient, PLQError
from plqsqp.kkt import (
    CompositeProblem,
    Poly2Map,
    kkt_residual,
    lagrangian,
    multiplier_set,
)
from plqsqp.plq import (
    plq_indicator,
    plq_quadratic,
    second_subderivative,
)
from plqsqp.polyhedral import Polyhedron, project

from conftest import make_dual_lq, make_p1, make_p2
from oracles import grid_noncritical_oracle


# -- noncriticality -----------------------------------------------------------

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
    from oracles import criticality_feasible_at
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


def test_sosc_cone_over_ray_enumeration_cap_falls_back_to_multistart(rng):
    # Theta is a 2-D wedge cut by 21 rows, all active at 0; ray enumeration
    # refuses more than 20 rows, so the multistart heuristic decides
    rows = 21
    angles = np.pi * (0.6 + 0.8 * np.arange(rows) / (rows - 1))
    Theta = Polyhedron(np.column_stack([np.cos(angles), np.sin(angles)]), np.zeros(rows),
                       np.zeros((0, 2)), np.zeros(0))
    phi = Poly2Map(np.zeros(1), np.zeros((1, 2)), np.eye(2).reshape(1, 2, 2))
    Phi = Poly2Map(np.zeros(1), np.zeros((1, 2)), np.zeros((1, 2, 2)))
    prob = CompositeProblem(phi, Phi, plq_quadratic([[0.0]]), Theta)
    assert check_sosc(prob, [0.0, 0.0], [0.0], rng=rng).result == "heuristic_holds"


def test_cone_checks_on_dual_lq_g_raise_plq_error():
    prob = make_dual_lq()
    assert kkt_residual(prob, [0.0], [0.5]) <= 1e-12
    for check in (check_noncritical, check_unique_multiplier, check_sosc):
        with pytest.raises(PLQError):
            check(prob, [0.0], [0.5])


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


def test_calmness_zero_perturbation_guard(rng):
    # a (0,0) perturbation must not poison the ratio with a 0/0 sample
    p1 = make_p1()
    v = estimate_calmness(p1, [1.0], [1.0], radii=[1e-2, 1e-3], n_samples=3,
                          mode="full", rng=rng)
    assert np.all(np.isfinite(v.certificate))


def test_multiplier_distance_uses_projection(degenerate_range):
    lam_set = multiplier_set(degenerate_range, [0.0])
    lam = np.array([2.0, 2.0])
    p = project(lam_set, lam)
    assert abs(p.sum() - 1.0) <= 1e-9 and np.all(p >= -1e-12)
