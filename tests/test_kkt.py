import numpy as np
import pytest

from plqsqp.errors import NotAKKTPoint, PointNotInTheta, PointOutsideDomain
from plqsqp.kkt import (
    CompositeProblem,
    Poly2Map,
    cone_D,
    kkt_point,
    kkt_residual,
    multiplier_set,
    perturbed_problem,
    subspace_Dplus,
)
from plqsqp.plq import plq_quadratic, prox_any
from plqsqp.polyhedral import Polyhedron, contains

from conftest import make_degenerate_range, make_dual_lq, make_p1, make_p2
from oracles import lagrangian, multiplier_set_hrep
from test_acceptance import CRITERION4_INSTANCES
from test_theta_constrained import LAMBAR, XBAR, box_fixture


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


def test_kkt_residual_at_a_kkt_point_runs_at_most_one_prox_qp(qp_calls):
    # the prox point at a KKT pair is Phi(xbar) itself, and the pieces
    # holding it are visited first; by bound order alone the 27-piece g
    # runs 21 piece QPs before one passes the subgradient test
    from plqsqp.generators import generate
    gp = generate("elqp", n=3, m=3, seed=5)
    qp_calls.clear()
    assert kkt_residual(gp.problem, gp.xbar, gp.lambdabar) <= 1e-10
    assert len(qp_calls) <= 1


def test_dual_lq_prox_and_kkt_residual_run_no_qp(qp_calls):
    # the dual-LQ prox is one projection in Omega's frame; the value QP of
    # dual_lq_eval_prox is not run for a prox nobody reads the value of
    prob = make_dual_lq()
    qp_calls.clear()
    assert abs(prox_any(prob.g, [0.5])[0] - 0.25) <= 1e-12  # u = z / 2 on [0, 1]
    assert kkt_residual(prob, [0.0], [0.5]) <= 1e-12
    assert qp_calls == []


def test_kkt_residual_requires_theta_membership(p1):
    box = Polyhedron.box([0.0], [2.0])
    prob = CompositeProblem(p1.phi, p1.Phi, p1.g, box)
    with pytest.raises(PointNotInTheta):
        kkt_residual(prob, [3.0], [0.0])


def _in_set(point, lam) -> bool:
    """Whether lam is its own projection onto Lambda(point.x), to 1e-9."""
    return bool(np.linalg.norm(multiplier_set(point, lam) - lam) <= 1e-9)


def test_multiplier_set_p1(p1):
    # Lambda(1) = {1}: every point projects onto it, exactly, as the QP answers
    # a zero step at the point it computed on its working rows
    point = kkt_point(p1, [1.0], [1.0])
    for u in ([1.0], [0.5], [1.5], [-1.0], [40.0]):
        assert multiplier_set(point, u).tolist() == [1.0]


def test_multiplier_set_p2_all_reals(p2):
    point = kkt_point(p2, [0.0], [0.0])
    for lam in (-7.0, 0.0, 13.0):
        assert np.linalg.norm(multiplier_set(point, [lam]) - lam) <= 1e-12


def test_multiplier_set_interior_smooth():
    # smooth unconstrained stationary point: subdiff of the zero function is {0}
    n = 1
    phi = Poly2Map(np.zeros(1), np.zeros((1, n)), np.array([[[1.0]]]))
    Phi = Poly2Map(np.zeros(1), np.array([[1.0]]), np.zeros((1, n, n)))
    prob = CompositeProblem(phi, Phi, plq_quadratic(np.zeros((1, 1))),
                            Polyhedron.whole_space(n))
    point = kkt_point(prob, [0.0], [0.0])
    for u in ([0.0], [0.1], [-3.0]):
        assert np.linalg.norm(multiplier_set(point, u)) <= 1e-12


def test_multiplier_set_matches_residual_grid(p1, p2, degenerate_range):
    # oracle: Lambda(xbar) = {lam : kkt_residual(xbar, lam) <= 1e-8} on a grid
    for prob, xbar, lam in ((p1, [1.0], [1.0]), (p2, [0.0], [0.0])):
        point = kkt_point(prob, xbar, lam)
        for lam in np.arange(-2.0, 2.01, 0.125):
            in_set = _in_set(point, [lam])
            small_res = kkt_residual(prob, xbar, [lam]) <= 1e-8
            assert in_set == small_res
    point = kkt_point(degenerate_range, [0.0], [0.5, 0.5])
    for l1 in np.arange(-0.5, 1.51, 0.25):
        for l2 in np.arange(-0.5, 1.51, 0.25):
            in_set = _in_set(point, [l1, l2])
            small_res = kkt_residual(degenerate_range, [0.0], [l1, l2]) <= 1e-8
            assert in_set == small_res


def _multiplier_cases():
    """(name, problem, xbar, lambdabar) of P1, P2 at lam = 0 and -1, the
    degenerate range, the box fixture (plain and with Phi bent) and the
    criterion-4 instances at their embedded KKT points."""
    from plqsqp.generators import generate
    yield "P1", make_p1(), [1.0], [1.0]
    for lam in (0.0, -1.0):
        yield f"P2 lam={lam}", make_p2(), [0.0], [lam]
    yield "degenerate_range", make_degenerate_range(), [0.0], [0.5, 0.5]
    for extra in (0.0, 0.6):
        yield f"box {extra}", box_fixture(phi_quad_extra=extra), XBAR, LAMBAR
    for kind, params, seed in CRITERION4_INSTANCES:
        gp = generate(kind, seed=seed, **params)
        yield f"{kind} seed {seed}", gp.problem, gp.xbar, gp.lambdabar


def test_multiplier_set_projects_as_the_eliminated_oracle(monkeypatch):
    # the route's projection is the oracle's H-representation's (`project`)
    # to 1e-9 (1 + |u|), for points near lambdabar and far from it; the
    # lifted system's least-norm point is found once per point, and every
    # QP starts there, so the kernel runs no nearest point of its own
    from plqsqp import kkt, qp
    from plqsqp.polyhedral import project

    starts, kernel_starts = [], []
    feasible, nearest = kkt.feasible_point, qp.nearest_point
    monkeypatch.setattr(kkt, "feasible_point", lambda *a: starts.append(1) or feasible(*a))
    monkeypatch.setattr(qp, "nearest_point", lambda *a: kernel_starts.append(1) or nearest(*a))
    rng = np.random.default_rng(5)
    cases = list(_multiplier_cases())
    assert len(cases) == 11
    for name, prob, x, lam in cases:
        point = kkt_point(prob, x, lam)
        ref = multiplier_set_hrep(prob, x)
        for u in np.asarray(lam) + np.vstack([1e-3 * rng.standard_normal((4, prob.m)),
                                              3.0 * rng.standard_normal((4, prob.m))]):
            assert np.linalg.norm(multiplier_set(point, u) - project(ref, u)) \
                <= 1e-9 * (1.0 + np.linalg.norm(u)), name
    assert len(starts) == len(cases) and not kernel_starts


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


def test_kkt_point_keeps_the_last_pair(p1, point_builds):
    # one residual per pair asked in a row, a failed pair included; the kept
    # point reads its cones once and does not alias the caller's arrays
    x = np.array([1.0])
    point = kkt_point(p1, x, [1.0])
    x[0] = 0.5
    assert kkt_point(p1, [1.0], np.ones(1)) is point and point.x[0] == 1.0
    assert len(point_builds) == 1
    assert point.D is point.D and point.Dplus is point.Dplus
    assert len(point.D.members) == len(cone_D(point).members)
    for _ in range(2):
        with pytest.raises(NotAKKTPoint, match="exceeds"):
            kkt_point(p1, x, [0.0])
    assert len(point_builds) == 2
    assert kkt_point(p1, [1.0], [1.0]) is not point and len(point_builds) == 3


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
    # the oracle's dual-LQ subdifferential: the solution face of the dual QP;
    # the projection route needs pieces and raises
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
    lam_set = multiplier_set_hrep(prob, xbar)
    assert contains(lam_set, lam, 1e-8)
    assert not contains(lam_set, lam + 0.1, 1e-8)
    with pytest.raises(PointOutsideDomain):
        multiplier_set(kkt_point(prob, xbar, lam), lam)


def test_dplus_spans_the_pieces_when_a_dependent_span_comes_first():
    """g = indicator of {z2 = 0} on R^3 with pieces {z2 = z3 = 0} and {z2 = 0}:
    the piece spans are span{e1} and span{e1, e3}, so D+ = span{e1, e3}.
    Stacking the spans puts e1 twice before e3; a basis taken from the
    first rank-many QR columns missed e3."""
    from plqsqp.plq import Piece, PLQFunction

    n = 3
    line = Polyhedron(np.zeros((0, n)), [], np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                      [0.0, 0.0])
    plane = Polyhedron(np.zeros((0, n)), [], np.array([[0.0, 1.0, 0.0]]), [0.0])
    g = PLQFunction(n, [Piece(line, np.zeros((n, n)), np.zeros(n), 0.0),
                        Piece(plane, np.zeros((n, n)), np.zeros(n), 0.0)])
    phi = Poly2Map(np.zeros(1), np.zeros((1, n)), np.array([np.eye(n)]))
    Phi = Poly2Map(np.zeros(n), np.eye(n), np.zeros((n, n, n)))
    prob = CompositeProblem(phi, Phi, g, Polyhedron.whole_space(n))
    B = subspace_Dplus(kkt_point(prob, np.zeros(n), np.zeros(n))).basis
    assert np.allclose(B @ B.T, np.diag([1.0, 0.0, 1.0]), atol=1e-12)
