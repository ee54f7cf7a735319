import numpy as np
import pytest

from plqsqp import subqp
from plqsqp.errors import AllCandidatesOutsideDelta, NoFeasiblePiece
from plqsqp.kkt import CompositeProblem, Poly2Map, kkt_residual
from plqsqp.plq import plq_abs, plq_indicator
from plqsqp.polyhedral import Polyhedron
from plqsqp.subqp import SubproblemSpec, solve_subproblem, subproblem_residual

from conftest import make_p1


def test_p1_single_newton_step_solves_exactly():
    p1 = make_p1()
    sols = solve_subproblem(SubproblemSpec([0.0], [0.0], [[1.0]], p1))
    best = sols[0]
    assert np.allclose(best.x_next, [1.0], atol=1e-10)
    assert np.allclose(best.lambda_next, [1.0], atol=1e-10)
    assert best.residual <= 1e-9
    # the full problem is quadratic/affine, so the step lands on the KKT point
    assert kkt_residual(p1, best.x_next, best.lambda_next) <= 1e-8


def test_single_piece_matches_plain_qp():
    # g an indicator with affine Phi and quadratic phi: one QP, solved directly
    n = 2
    phi = Poly2Map(np.zeros(1), np.array([[-1.0, 0.0]]), np.array([np.eye(n)]))
    Phi = Poly2Map(np.zeros(1), np.array([[1.0, 1.0]]), np.zeros((1, n, n)))
    prob = CompositeProblem(phi, Phi, plq_indicator(Polyhedron.nonpos(1)),
                            Polyhedron.whole_space(n))
    sols = solve_subproblem(SubproblemSpec(np.zeros(n), np.zeros(1), np.eye(n), prob))
    assert len(sols) == 1
    x = sols[0].x_next
    # oracle: minimize ||x||^2/2 - x1 subject to x1 + x2 <= 0
    # KKT: x = (1 - l, -l), complementarity gives l = 1/2, x = (1/2, -1/2)
    assert np.allclose(x, [0.5, -0.5], atol=1e-9)
    assert np.allclose(sols[0].lambda_next, [0.5], atol=1e-9)


def test_two_piece_abs_returns_candidates_per_piece():
    # min x^2/2 + |x - 1| from x0 = 3: both pieces admit candidates
    phi = Poly2Map(np.zeros(1), np.zeros((1, 1)), np.array([[[1.0]]]))
    Phi = Poly2Map(np.array([-1.0]), np.array([[1.0]]), np.zeros((1, 1, 1)))
    prob = CompositeProblem(phi, Phi, plq_abs(), Polyhedron.whole_space(1))
    sols = solve_subproblem(SubproblemSpec([3.0], [0.0], [[1.0]], prob))
    assert 1 <= len(sols) <= 2
    assert {s.piece_index for s in sols} <= {0, 1}
    best = sols[0]
    # solution of the convex problem: subgradient x + sign(x-1) ∋ 0 -> x = 1, lam in [-1,1] with x=1: 1 + lam = 0
    assert np.allclose(best.x_next, [1.0], atol=1e-9)
    assert np.allclose(best.lambda_next, [-1.0], atol=1e-9)
    for s in sols:
        assert s.residual <= 1e-9


def brute_force_composite(prob, xk, lamk, H, lo=-3.0, hi=3.0, res=1e-3):
    """Grid minimizer of the subproblem objective (n = 1 instances)."""
    from plqsqp.plq import evaluate
    grid = np.arange(lo, hi + res, res)
    J = prob.Phi.jacobian(xk)
    gphi = prob.phi.jacobian(xk)[0]
    best, best_val = None, np.inf
    for xi in grid:
        step = np.array([xi]) - xk
        y = prob.Phi.value(xk) + J @ step
        val = float(gphi @ step) + 0.5 * float(step @ np.asarray(H) @ step) \
            + evaluate(prob.g, y)
        if val < best_val:
            best, best_val = xi, val
    return best, best_val


@pytest.mark.parametrize("x0", [-2.0, 0.5, 2.5])
def test_convex_subproblem_matches_grid_bruteforce(x0):
    phi = Poly2Map(np.zeros(1), np.array([[0.3]]), np.array([[[1.0]]]))
    Phi = Poly2Map(np.array([-0.7]), np.array([[1.0]]), np.array([[[0.4]]]))
    prob = CompositeProblem(phi, Phi, plq_abs(), Polyhedron.whole_space(1))
    spec = SubproblemSpec([x0], [0.1], [[1.2]], prob)
    sols = solve_subproblem(spec)
    xg, _ = brute_force_composite(prob, np.array([x0]), np.array([0.1]), [[1.2]])
    assert abs(sols[0].x_next[0] - xg) <= 5e-3


def test_newton_exactness_on_quadratic_affine_data(rng):
    # phi quadratic, Phi affine, H = hess L: first step lands on a KKT point
    n, m = 2, 1
    M = rng.standard_normal((n, n))
    Q = M @ M.T + 0.5 * np.eye(n)
    phi = Poly2Map(np.zeros(1), rng.standard_normal((1, n)), np.array([Q]))
    Phi = Poly2Map(rng.standard_normal(m), rng.standard_normal((m, n)),
                   np.zeros((m, n, n)))
    prob = CompositeProblem(phi, Phi, plq_indicator(Polyhedron.nonpos(1)),
                            Polyhedron.whole_space(n))
    x0 = rng.standard_normal(n)
    sols = solve_subproblem(SubproblemSpec(x0, np.zeros(m), Q, prob))
    best = sols[0]
    assert kkt_residual(prob, best.x_next, best.lambda_next) <= 1e-8


def test_all_candidates_satisfy_residual_bound(rng):
    phi = Poly2Map(np.zeros(1), np.zeros((1, 2)), np.array([np.eye(2)]))
    Phi = Poly2Map(np.zeros(2), np.eye(2), np.zeros((2, 2, 2)))
    prob = CompositeProblem(phi, Phi, plq_abs_2d(), Polyhedron.whole_space(2))
    for _ in range(5):
        x0 = rng.standard_normal(2)
        spec = SubproblemSpec(x0, rng.standard_normal(2), np.eye(2), prob)
        for sol in solve_subproblem(spec):
            assert sol.residual <= 1e-9
            assert subproblem_residual(spec, sol.x_next, sol.lambda_next) <= 1e-8


def plq_abs_2d():
    """|z1| + |z2| as a 4-piece separable function."""
    from plqsqp.plq import plq_separable
    cell = [(-np.inf, 0.0, 0.0, -1.0, 0.0), (0.0, np.inf, 0.0, 1.0, 0.0)]
    return plq_separable([cell, cell])


def test_repair_dual_recovers_a_subgradient_on_a_kink(monkeypatch):
    # min x^2/2 - x/2 + |x| + |x| through Phi(x) = (x, x): every candidate is
    # xi = 0, where y = (0, 0) lies on all four pieces of |z1| + |z2|; piece 0
    # recovers a dual outside the subdifferential [-1, 1]^2, and the repair
    # system over the four active pieces finds one inside it
    phi = Poly2Map(np.zeros(1), np.array([[-0.5]]), np.array([[[1.0]]]))
    Phi = Poly2Map(np.zeros(2), np.array([[1.0], [1.0]]), np.zeros((2, 1, 1)))
    prob = CompositeProblem(phi, Phi, plq_abs_2d(), Polyhedron.whole_space(1))
    repaired = []
    repair = subqp._repair_dual

    def spy(*args):
        lam = repair(*args)
        repaired.append(lam)
        return lam

    monkeypatch.setattr(subqp, "_repair_dual", spy)
    sols = solve_subproblem(SubproblemSpec([0.0], [0.0], [[1.0]], prob))
    assert len(sols) == 4
    for sol in sols:
        assert np.allclose(sol.x_next, [0.0], atol=1e-12)
        assert np.all(np.abs(sol.lambda_next) <= 1.0 + 1e-12)
        # stationarity at xi = 0: -1/2 + lam_1 + lam_2 = 0
        assert abs(sol.lambda_next.sum() - 0.5) <= 1e-12
        assert sol.residual <= 1e-9
    assert sum(lam is not None for lam in repaired) == 1


def test_no_feasible_piece():
    # linearization at x0 = 0 of Phi(x) = x^2 + 1 cannot reach {0}
    phi = Poly2Map(np.zeros(1), np.zeros((1, 1)), np.array([[[1.0]]]))
    Phi = Poly2Map(np.array([1.0]), np.zeros((1, 1)), np.array([[[2.0]]]))
    prob = CompositeProblem(phi, Phi, plq_indicator(Polyhedron.point([0.0])),
                            Polyhedron.whole_space(1))
    with pytest.raises(NoFeasiblePiece):
        solve_subproblem(SubproblemSpec([0.0], [0.0], [[1.0]], prob))


def test_delta_filter():
    p1 = make_p1()
    spec = SubproblemSpec([0.0], [0.0], [[1.0]], p1, delta=1e-3)
    with pytest.raises(AllCandidatesOutsideDelta):
        solve_subproblem(spec)  # the step to (1, 1) has size sqrt(2) > delta
    sols = solve_subproblem(SubproblemSpec([0.0], [0.0], [[1.0]], p1, delta=2.0))
    assert np.allclose(sols[0].x_next, [1.0], atol=1e-10)


def test_survivors_sorted_by_step_then_objective():
    phi = Poly2Map(np.zeros(1), np.zeros((1, 1)), np.array([[[1.0]]]))
    Phi = Poly2Map(np.array([0.0]), np.array([[1.0]]), np.zeros((1, 1, 1)))
    prob = CompositeProblem(phi, Phi, plq_abs(), Polyhedron.whole_space(1))
    sols = solve_subproblem(SubproblemSpec([0.4], [0.0], [[1.0]], prob))
    steps = [float(np.linalg.norm(s.x_next - 0.4)) for s in sols]
    assert steps == sorted(steps)
