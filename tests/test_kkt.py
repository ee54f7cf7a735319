import numpy as np
import pytest

from plqsqp.errors import NotAKKTPoint, PointNotInTheta, PointOutsideDomain
from plqsqp.kkt import (
    CompositeProblem,
    Poly2Map,
    cone_D,
    kkt_point,
    kkt_residual,
    lagrangian,
    multiplier_set,
    perturbed_problem,
    subspace_Dplus,
)
from plqsqp.plq import plq_quadratic
from plqsqp.polyhedral import Polyhedron, contains

from conftest import make_dual_lq


def finite_difference_grad(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return out


def test_lagrangian_hand_example(p1):
    value, grad, hess = lagrangian(p1, [1.0], [1.0])
    assert abs(value - 0.5) <= 1e-12
    assert np.allclose(grad, [0.0]) and np.allclose(hess, [[1.0]])


def test_lagrangian_zero_multiplier_reduces_to_phi(p1):
    value, grad, hess = lagrangian(p1, [3.0], [0.0])
    assert abs(value - 0.5) <= 1e-12  # phi(3) = (3-2)^2/2
    assert np.allclose(grad, [1.0]) and np.allclose(hess, [[1.0]])


def test_lagrangian_affine_inner_map_hessian_constant(p1, rng):
    for _ in range(5):
        lam = rng.standard_normal(1)
        _, _, hess = lagrangian(p1, rng.standard_normal(1), lam)
        assert np.allclose(hess, [[1.0]])


def test_lagrangian_matches_finite_differences(rng):
    n, m = 3, 2
    phi = Poly2Map(np.array([0.3]), rng.standard_normal((1, n)),
                   np.array([np.eye(n) + 0.1]))
    Qs = rng.standard_normal((m, n, n))
    Qs = 0.5 * (Qs + np.transpose(Qs, (0, 2, 1)))
    Phi = Poly2Map(rng.standard_normal(m), rng.standard_normal((m, n)), Qs)
    prob = CompositeProblem(phi, Phi, plq_quadratic(np.zeros((m, m))),
                            Polyhedron.whole_space(n))
    for _ in range(10):
        x = rng.standard_normal(n)
        lam = rng.standard_normal(m)
        value, grad, hess = lagrangian(prob, x, lam)
        fd = finite_difference_grad(lambda y: lagrangian(prob, y, lam)[0], x)
        assert np.linalg.norm(grad - fd) <= 1e-6 * (1.0 + np.linalg.norm(grad))
        fdh = np.column_stack([
            finite_difference_grad(lambda y: lagrangian(prob, y, lam)[1][i], x)
            for i in range(n)])
        assert np.linalg.norm(hess - fdh) <= 1e-5 * (1.0 + np.linalg.norm(hess))


def test_kkt_residual_examples(p1):
    assert kkt_residual(p1, [1.0], [1.0]) <= 1e-12
    assert abs(kkt_residual(p1, [1.1], [1.0]) - 0.2) <= 1e-9


def test_kkt_residual_unconstrained_smooth_case(rng):
    # g == 0 and Theta = R^n: the residual is the gradient norm
    n = 2
    phi = Poly2Map(np.zeros(1), np.array([[1.0, -2.0]]), np.array([np.eye(n)]))
    Phi = Poly2Map(np.zeros(1), np.zeros((1, n)), np.zeros((1, n, n)))
    prob = CompositeProblem(phi, Phi, plq_quadratic(np.zeros((1, 1))),
                            Polyhedron.whole_space(n))
    for _ in range(10):
        x = rng.standard_normal(n)
        grad = phi.jacobian(x)[0]
        assert abs(kkt_residual(prob, x, np.zeros(1)) - np.linalg.norm(grad)) <= 1e-10


def test_kkt_residual_requires_theta_membership(p1):
    box = Polyhedron.box([0.0], [2.0])
    prob = CompositeProblem(p1.phi, p1.Phi, p1.g, box)
    with pytest.raises(PointNotInTheta):
        kkt_residual(prob, [3.0], [0.0])


def test_multiplier_set_p1(p1):
    lam_set = multiplier_set(p1, [1.0])
    assert contains(lam_set, [1.0], 1e-9)
    for bad in ([0.5], [1.5], [-1.0]):
        assert not contains(lam_set, bad, 1e-9)


def test_multiplier_set_p2_all_reals(p2):
    lam_set = multiplier_set(p2, [0.0])
    for lam in (-7.0, 0.0, 13.0):
        assert contains(lam_set, [lam], 1e-9)


def test_multiplier_set_interior_smooth():
    # smooth unconstrained stationary point: subdiff of the zero function is {0}
    n = 1
    phi = Poly2Map(np.zeros(1), np.zeros((1, n)), np.array([[[1.0]]]))
    Phi = Poly2Map(np.zeros(1), np.array([[1.0]]), np.zeros((1, n, n)))
    prob = CompositeProblem(phi, Phi, plq_quadratic(np.zeros((1, 1))),
                            Polyhedron.whole_space(n))
    lam_set = multiplier_set(prob, [0.0])
    assert contains(lam_set, [0.0], 1e-9) and not contains(lam_set, [0.1], 1e-9)


def test_multiplier_set_matches_residual_grid(p1, p2, degenerate_range):
    # oracle: Lambda(xbar) = {lam : kkt_residual(xbar, lam) <= 1e-8} on a grid
    for prob, xbar in ((p1, [1.0]), (p2, [0.0])):
        lam_set = multiplier_set(prob, xbar)
        for lam in np.arange(-2.0, 2.01, 0.125):
            in_set = contains(lam_set, [lam], 1e-9)
            small_res = kkt_residual(prob, xbar, [lam]) <= 1e-8
            assert in_set == small_res
    lam_set = multiplier_set(degenerate_range, [0.0])
    for l1 in np.arange(-0.5, 1.51, 0.25):
        for l2 in np.arange(-0.5, 1.51, 0.25):
            in_set = contains(lam_set, [l1, l2], 1e-9)
            small_res = kkt_residual(degenerate_range, [0.0], [l1, l2]) <= 1e-8
            assert in_set == small_res


def test_cone_d_p1_trivial(p1):
    D = cone_D(kkt_point(p1, [1.0], [1.0]))
    assert D.member_contains([0.0])
    assert not D.member_contains([1e-3]) and not D.member_contains([-1e-3])


def test_cone_d_unconstrained_smooth():
    n = 2
    phi = Poly2Map(np.zeros(1), np.zeros((1, n)), np.array([np.eye(n)]))
    Phi = Poly2Map(np.zeros(1), np.zeros((1, n)), np.zeros((1, n, n)))
    prob = CompositeProblem(phi, Phi, plq_quadratic(np.zeros((1, 1))),
                            Polyhedron.whole_space(n))
    point = kkt_point(prob, np.zeros(n), np.zeros(1))
    D = cone_D(point)
    assert D.member_contains([5.0, -3.0])
    Dp = subspace_Dplus(point)
    assert Dp.basis.shape[1] == n


def test_cone_d_p2_whole_line(p2):
    # the Jacobian vanishes, so the membership condition is vacuous
    D = cone_D(kkt_point(p2, [0.0], [0.0]))
    assert D.member_contains([7.0]) and D.member_contains([-7.0])


def test_cone_d_multiplier_invariance(degenerate_range, rng):
    # two distinct multipliers give the same cone membership pattern
    D1 = cone_D(kkt_point(degenerate_range, [0.0], [0.5, 0.5]))
    D2 = cone_D(kkt_point(degenerate_range, [0.0], [0.2, 0.8]))
    for _ in range(200):
        w = 2.0 * rng.standard_normal(1)
        assert D1.member_contains(w) == D2.member_contains(w)


def test_kkt_point_checks_the_residual_and_defers_the_cones(p1):
    with pytest.raises(NotAKKTPoint):
        kkt_point(p1, [0.5], [0.0])
    point = kkt_point(p1, [1.0], [1.0])
    _, grad, hess = lagrangian(p1, [1.0], [1.0])
    assert point.residual <= 1e-12
    assert np.allclose(point.grad, grad) and np.allclose(point.hess, hess)
    # a dual-LQ g has no pieces: the smooth data is there, the cones raise
    point = kkt_point(make_dual_lq(), [0.0], [0.5])
    assert point.J.shape == (1, 1)
    with pytest.raises(PointOutsideDomain):
        cone_D(point)


def test_subspace_dplus_p1(p1):
    Dp = subspace_Dplus(kkt_point(p1, [1.0], [1.0]))
    assert Dp.basis.shape[1] == 0  # the zero subspace


def test_perturbed_problem_examples(p1):
    same = perturbed_problem(p1, [0.0], [0.0])
    assert np.allclose(same.phi.l, p1.phi.l) and np.allclose(same.Phi.c, p1.Phi.c)
    shifted = perturbed_problem(p1, [0.0], [0.1])
    # the constraint x - 1 + 0.1 <= 0 moves the solution to 0.9
    assert abs(shifted.Phi.value([0.9])[0]) <= 1e-12
    # linear tilt moves an unconstrained quadratic minimizer by v / Q
    n = 1
    phi = Poly2Map(np.zeros(1), np.zeros((1, n)), np.array([[[2.0]]]))
    Phi = Poly2Map(np.zeros(1), np.zeros((1, n)), np.zeros((1, n, n)))
    prob = CompositeProblem(phi, Phi, plq_quadratic(np.zeros((1, 1))),
                            Polyhedron.whole_space(n))
    tilted = perturbed_problem(prob, [0.5], [0.0])
    xstar = 0.5 / 2.0
    assert np.linalg.norm(tilted.phi.jacobian([xstar])[0]) <= 1e-12


def test_residual_is_locally_lipschitz(p1, rng):
    # continuity estimate on sampled pairs in a fixed ball
    base = np.array([1.0]), np.array([1.0])
    pairs = [(base[0] + 0.3 * rng.standard_normal(1),
              base[1] + 0.3 * rng.standard_normal(1)) for _ in range(30)]
    C = None
    for (x1, l1) in pairs:
        for (x2, l2) in pairs:
            d = np.sqrt(np.linalg.norm(x1 - x2) ** 2 + np.linalg.norm(l1 - l2) ** 2)
            if d <= 1e-12:
                continue
            gap = abs(kkt_residual(p1, x1, l1) - kkt_residual(p1, x2, l2))
            ratio = gap / d
            C = ratio if C is None else max(C, ratio)
    assert C is not None and C <= 10.0  # small fixed ball: modest constant


def test_dplus_strictly_enlarges_d_on_weakly_active_constraint():
    """g = indicator(z <= 0) weakly active (multiplier zero): the critical
    cone of g is a half-line, so its span doubles it and the projected
    model errors differ between the two monitors."""
    from plqsqp.plq import plq_indicator
    from plqsqp.polyhedral import project_cone_union

    phi = Poly2Map(np.zeros(1), np.zeros((1, 2)), np.array([np.eye(2)]))
    Phi = Poly2Map(np.zeros(1), np.array([[1.0, 0.0]]), np.zeros((1, 2, 2)))
    prob = CompositeProblem(phi, Phi, plq_indicator(Polyhedron.nonpos(1)),
                            Polyhedron.whole_space(2))
    assert kkt_residual(prob, [0.0, 0.0], [0.0]) <= 1e-12
    point = kkt_point(prob, [0.0, 0.0], [0.0])
    D, Dp = cone_D(point), subspace_Dplus(point)
    assert D.member_contains([-1.0, 0.0]) and not D.member_contains([1.0, 0.0])
    assert Dp.basis.shape[1] == 2
    assert np.allclose(project_cone_union(D, [1.0, 0.0]), [0.0, 0.0])
    assert np.allclose(project_cone_union(Dp, [1.0, 0.0]), [1.0, 0.0])


def test_multiplier_set_with_dual_lq_g():
    # the dual-LQ subdifferential route: the solution face of the dual QP
    from plqsqp.plq import DualLQ

    h = DualLQ(Polyhedron.box([0.0, 0.0], [1.0, 1.0]), np.diag([1.0, 0.5]))
    lam = np.array([0.4, 1.0])
    zbar = np.array([0.4, 1.2])  # B lam plus an outward normal at the bound
    A = np.array([[1.0, 0.3], [0.2, -1.0]])
    xbar = np.array([0.3, -0.2])
    Q = 1.5 * np.eye(2)
    phi = Poly2Map(np.zeros(1), (A.T @ lam - Q @ xbar).reshape(1, -1),
                   Q.reshape(1, 2, 2))
    Phi = Poly2Map(zbar + A @ xbar, -A, np.zeros((2, 2, 2)))
    prob = CompositeProblem(phi, Phi, h, Polyhedron.whole_space(2))
    assert kkt_residual(prob, xbar, lam) <= 1e-12
    lam_set = multiplier_set(prob, xbar)
    assert contains(lam_set, lam, 1e-8)
    assert not contains(lam_set, lam + 0.1, 1e-8)
