import numpy as np
import pytest

from plqsqp import subqp
from plqsqp.errors import NoFeasiblePiece
from plqsqp.kkt import CompositeProblem, Poly2Map, kkt_residual
from plqsqp.plq import plq_abs, plq_indicator, plq_separable
from plqsqp.polyhedral import Polyhedron
from plqsqp.subqp import SubproblemSpec, solve_subproblem

from conftest import make_p1
from oracles import subproblem_residual


def test_p1_single_newton_step_solves_exactly():
    p1 = make_p1()
    best = solve_subproblem(SubproblemSpec([0.0], [0.0], [[1.0]], p1))
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
    sol = solve_subproblem(SubproblemSpec(np.zeros(n), np.zeros(1), np.eye(n), prob))
    assert sol.piece_index == 0
    # oracle: minimize ||x||^2/2 - x1 subject to x1 + x2 <= 0
    # KKT: x = (1 - l, -l), complementarity gives l = 1/2, x = (1/2, -1/2)
    assert np.allclose(sol.x_next, [0.5, -0.5], atol=1e-9)
    assert np.allclose(sol.lambda_next, [0.5], atol=1e-9)


def test_two_piece_abs_returns_the_piece_holding_Phi_xk():
    # min x^2/2 + |x - 1|: the solution y = x - 1 = 0 lies on both pieces,
    # and the piece holding Phi(x0) = x0 - 1 answers, with the same pair
    phi = Poly2Map(np.zeros(1), np.zeros((1, 1)), np.array([[[1.0]]]))
    Phi = Poly2Map(np.array([-1.0]), np.array([[1.0]]), np.zeros((1, 1, 1)))
    prob = CompositeProblem(phi, Phi, plq_abs(), Polyhedron.whole_space(1))
    for x0, holder in ((3.0, 1), (-1.0, 0)):
        spec = SubproblemSpec([x0], [0.0], [[1.0]], prob)
        best = solve_subproblem(spec)
        assert best.piece_index == holder
        # solution of the convex problem: subgradient x + sign(x-1) ∋ 0 -> x = 1, lam in [-1,1] with x=1: 1 + lam = 0
        assert np.allclose(best.x_next, [1.0], atol=1e-9)
        assert np.allclose(best.lambda_next, [-1.0], atol=1e-9)
        assert best.residual <= 1e-9
        assert subproblem_residual(spec, best.x_next, best.lambda_next) <= 1e-8


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
    sol = solve_subproblem(spec)
    xg, _ = brute_force_composite(prob, np.array([x0]), np.array([0.1]), [[1.2]])
    assert abs(sol.x_next[0] - xg) <= 5e-3


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
    best = solve_subproblem(SubproblemSpec(x0, np.zeros(m), Q, prob))
    assert kkt_residual(prob, best.x_next, best.lambda_next) <= 1e-8


def test_all_candidates_satisfy_residual_bound(rng):
    phi = Poly2Map(np.zeros(1), np.zeros((1, 2)), np.array([np.eye(2)]))
    Phi = Poly2Map(np.zeros(2), np.eye(2), np.zeros((2, 2, 2)))
    prob = CompositeProblem(phi, Phi, plq_abs_2d(), Polyhedron.whole_space(2))
    for _ in range(5):
        x0 = rng.standard_normal(2)
        spec = SubproblemSpec(x0, rng.standard_normal(2), np.eye(2), prob)
        sol = solve_subproblem(spec)
        assert sol.residual <= 1e-9
        # the prox-form oracle shares no code with the residual it checks
        assert subproblem_residual(spec, sol.x_next, sol.lambda_next) <= 1e-8


def plq_abs_2d():
    """|z1| + |z2| as a 4-piece separable function."""
    cell = [(-np.inf, 0.0, 0.0, -1.0, 0.0), (0.0, np.inf, 0.0, 1.0, 0.0)]
    return plq_separable([cell, cell])


def test_repair_dual_recovers_a_subgradient_on_a_kink(monkeypatch):
    # min x^2/2 - x/2 + |x| + |x| through Phi(x) = (x, x): every candidate is
    # xi = 0, where y = (0, 0) lies on all four pieces of |z1| + |z2|; piece 0
    # recovers a dual outside the subdifferential [-1, 1]^2, the repair
    # system over the four active pieces finds one inside it, and that
    # repaired candidate is the answer
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
    sol = solve_subproblem(SubproblemSpec([0.0], [0.0], [[1.0]], prob))
    assert sol.piece_index == 0
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
    # the step to (1, 1) has size sqrt(2) > delta: the radius grows
    # 1e-3 -> 1e-2 -> ... -> 10, which holds it
    p1 = make_p1()
    sol = solve_subproblem(SubproblemSpec([0.0], [0.0], [[1.0]], p1, delta=1e-3))
    assert np.allclose(sol.x_next, [1.0], atol=1e-10)
    sol = solve_subproblem(SubproblemSpec([0.0], [0.0], [[1.0]], p1, delta=2.0))
    assert np.allclose(sol.x_next, [1.0], atol=1e-10)


@pytest.mark.parametrize("delta", [0.0, -1.0, np.nan])
def test_radius_must_be_positive(delta):
    # a radius that is not positive could never grow to hold a step
    with pytest.raises(ValueError, match="delta"):
        SubproblemSpec([0.0], [0.0], [[1.0]], make_p1(), delta=delta)


def _abs_2d_problem(Theta):
    """min |xi|^2/2 + (-2, 1/2).xi + |xi_1| + |xi_2| over Theta (H = I is
    the exact model): the minimizer (1, 0), with lam = (1, -1/2), lies in
    pieces 2 and 3 of |z1| + |z2|."""
    phi = Poly2Map(np.zeros(1), np.array([[-2.0, 0.5]]), np.array([np.eye(2)]))
    Phi = Poly2Map(np.zeros(2), np.eye(2), np.zeros((2, 2, 2)))
    return CompositeProblem(phi, Phi, plq_abs_2d(), Theta)


def _assert_abs_2d_answer(spec, sol):
    assert np.allclose(sol.x_next, [1.0, 0.0], atol=1e-12)
    # stationarity: xi + (-2, 1/2) + lam = 0
    assert np.allclose(sol.lambda_next, [1.0, -0.5], atol=1e-12)
    assert sol.residual <= 1e-9
    assert subproblem_residual(spec, sol.x_next, sol.lambda_next) <= 1e-8


def test_stops_at_the_first_verified_piece(monkeypatch):
    # Phi(xk) = (0.3, -0.2) lies in piece 2 only: its QP, started at xk,
    # answers, and the loop never reaches pieces 0, 1 or 3
    prob = _abs_2d_problem(Polyhedron.whole_space(2))
    starts = []
    qp = subqp.active_set_qp

    def spy(*args, **kwargs):
        starts.append(kwargs.get("x0"))
        return qp(*args, **kwargs)

    monkeypatch.setattr(subqp, "active_set_qp", spy)
    spec = SubproblemSpec([0.3, -0.2], [0.0, 0.0], np.eye(2), prob)
    sol = solve_subproblem(spec)
    assert sol.piece_index == 2
    assert len(starts) == 1
    assert np.array_equal(starts[0], spec.xk)
    _assert_abs_2d_answer(spec, sol)


def test_fixed_dual_skips_the_repair(monkeypatch):
    # Phi(xk) = (-0.3, -0.2) lies in piece 0, whose QP (and then piece 1's)
    # lands on xi_1 = 0 with a recovered dual outside the subdifferential.
    # J = I is injective and Theta = R^2 has no normals, so stationarity
    # fixes that dual: both candidates are dropped without a repair, and
    # piece 2 answers
    prob = _abs_2d_problem(Polyhedron.whole_space(2))
    fixed, repaired = [], []
    is_fixed, repair = subqp._dual_is_fixed, subqp._repair_dual

    def fixed_spy(*args):
        fixed.append(is_fixed(*args))
        return fixed[-1]

    def repair_spy(*args):
        repaired.append(repair(*args))
        return repaired[-1]

    monkeypatch.setattr(subqp, "_dual_is_fixed", fixed_spy)
    monkeypatch.setattr(subqp, "_repair_dual", repair_spy)
    spec = SubproblemSpec([-0.3, -0.2], [0.0, 0.0], np.eye(2), prob)
    sol = solve_subproblem(spec)
    assert sol.piece_index == 2
    assert fixed == [True, True] and repaired == []
    _assert_abs_2d_answer(spec, sol)


def _visited_pieces(monkeypatch, prob, J):
    """A list that grows by the index of each piece whose QP is called,
    told by its rows C_i.A J after Theta's."""
    visited = []
    qp, rows = subqp.active_set_qp, prob.Theta.n_ineq

    def spy(Q, c, A, *args, **kwargs):
        visited.append(next(i for i, piece in enumerate(prob.g.pieces)
                            if np.array_equal(A[rows:], piece.C.A @ J)))
        return qp(Q, c, A, *args, **kwargs)

    monkeypatch.setattr(subqp, "active_set_qp", spy)
    return visited


def test_a_rejected_candidate_sends_the_walk_to_the_pieces_holding_its_point(monkeypatch):
    # over Theta = {xi_2 <= -1/2}, Phi(xk) = (-0.3, -0.7) lies in piece 0
    # (z <= 0), whose QP stops at y = (0, -1/2) with a dual lam_1 = 2
    # outside [-1, 1] that no repair mends; y lies in pieces 0 and 2 only,
    # so piece 2 goes next, before piece 1 (z_1 <= 0 <= z_2, infeasible
    # here), and answers xi = (1, -1/2), lam = (1, -1)
    prob = _abs_2d_problem(Polyhedron(np.array([[0.0, 1.0]]), np.array([-0.5]),
                                      np.zeros((0, 2)), np.zeros(0)))
    visited = _visited_pieces(monkeypatch, prob, np.eye(2))
    spec = SubproblemSpec([-0.3, -0.7], [0.0, 0.0], np.eye(2), prob)
    sol = solve_subproblem(spec)
    assert visited == [0, 2] and sol.piece_index == 2
    assert np.allclose(sol.x_next, [1.0, -0.5], atol=1e-12)
    assert np.allclose(sol.lambda_next, [1.0, -1.0], atol=1e-12)
    assert subproblem_residual(spec, sol.x_next, sol.lambda_next) <= 1e-8


def test_elqp_walk_reaches_the_answer_in_two_piece_qps(monkeypatch):
    # ELQP n = m = 3 (seed 5) with exact H is its own model, so one
    # subproblem lands on (xbar, lambdabar), whose Phi lies in piece 9.
    # From xk with Phi(xk) in piece 10 only, that piece's QP stops on its
    # facet with piece 9 and is rejected; piece 9 goes next and answers
    # (index order after piece 10 ran pieces 0-8 first: 11 QPs)
    from plqsqp.generators import generate
    from plqsqp.plq import active_indices
    gp = generate("elqp", n=3, m=3, seed=5)
    prob, xk = gp.problem, np.array([-0.3, 0.6, -0.4])
    assert active_indices(prob.g, prob.Phi.value(xk)) == [10]
    visited = _visited_pieces(monkeypatch, prob, prob.Phi.jacobian(xk))
    sol = solve_subproblem(SubproblemSpec(xk, gp.lambdabar, prob.phi.Q[0], prob))
    assert visited == [10, 9] and sol.piece_index == 9
    assert np.allclose(sol.x_next, gp.xbar, rtol=0.0, atol=1e-10)
    assert np.allclose(sol.lambda_next, gp.lambdabar, rtol=0.0, atol=1e-10)


def _qp_starts(monkeypatch):
    """A list that grows by (z, start) on every start a QP computes: the
    point of its constraint set nearest z."""
    from plqsqp import qp
    calls = []
    nearest_point = qp.nearest_point

    def spy(*args):
        calls.append((args[-1], nearest_point(*args)))
        return calls[-1][1]

    monkeypatch.setattr(qp, "nearest_point", spy)
    return calls


def test_hinted_answer_needs_no_phase_one(monkeypatch):
    # xk lies in Theta and Phi(xk) in piece 2, which holds the answer: its
    # QP starts at xk, so no feasible point is computed
    prob = _abs_2d_problem(Polyhedron.box([-2.0, -2.0], [2.0, 2.0]))
    phase_one = _qp_starts(monkeypatch)
    spec = SubproblemSpec([0.3, -0.2], [0.0, 0.0], np.eye(2), prob)
    sol = solve_subproblem(spec)
    assert sol.piece_index == 2 and phase_one == []
    _assert_abs_2d_answer(spec, sol)


def test_start_outside_Theta_moves_to_the_nearest_point(monkeypatch):
    # xk = (3, -0.2) lies outside Theta = [-2, 2]^2, so it cannot start the
    # QP of piece 2 (xi_1 >= 0 >= xi_2), which holds Phi(xk) and is visited
    # first: that QP starts at the point of its set nearest xk, (2, -0.2)
    prob = _abs_2d_problem(Polyhedron.box([-2.0, -2.0], [2.0, 2.0]))
    starts = _qp_starts(monkeypatch)
    spec = SubproblemSpec([3.0, -0.2], [0.0, 0.0], np.eye(2), prob)
    sol = solve_subproblem(spec)
    assert sol.piece_index == 2 and len(starts) == 1
    assert np.array_equal(starts[0][0], spec.xk)
    assert np.allclose(starts[0][1], [2.0, -0.2], rtol=0.0, atol=1e-15)
    _assert_abs_2d_answer(spec, sol)


def test_indefinite_H_returns_the_first_verified_piece_inside_delta_in_hinted_order():
    # phi(x) = x1 x2 + (x1 + x2)/2 over the box [-2, 2]^2 with g = 0 split
    # into four quadrant pieces: with H = hess phi the model is phi itself,
    # whose local minimizers (-2, 2) and (2, -2) are verified candidates of
    # pieces 1 and 2.
    half = [(-np.inf, 0.0, 0.0, 0.0, 0.0), (0.0, np.inf, 0.0, 0.0, 0.0)]
    H = np.array([[0.0, 1.0], [1.0, 0.0]])
    phi = Poly2Map(np.zeros(1), np.array([[0.5, 0.5]]), H[None])
    Phi = Poly2Map(np.zeros(2), np.eye(2), np.zeros((2, 2, 2)))
    prob = CompositeProblem(phi, Phi, plq_separable([half, half]),
                            Polyhedron.box([-2.0, -2.0], [2.0, 2.0]))
    lamk = [0.0, 0.0]
    # From xk = (1/2, -1) in piece 2, that piece answers before piece 1:
    # index order would return (-2, 2), a different verified pair
    held = solve_subproblem(SubproblemSpec([0.5, -1.0], lamk, H, prob))
    assert held.piece_index == 2
    assert np.allclose(held.x_next, [2.0, -2.0], atol=1e-12)
    # From xk = (1, 1/2) in piece 3, that piece's QP stops at (0, 0) with a
    # dual that is not a subgradient, and the rest follow in index order:
    # piece 1 at step sqrt(11.25), then piece 2 at step sqrt(7.25).
    xk = [1.0, 0.5]
    first = solve_subproblem(SubproblemSpec(xk, lamk, H, prob))
    assert first.piece_index == 1
    assert np.allclose(first.x_next, [-2.0, 2.0], atol=1e-12)
    # a delta between the two steps leaves the farther one
    near = solve_subproblem(SubproblemSpec(xk, lamk, H, prob, delta=3.0))
    assert near.piece_index == 2
    assert np.allclose(near.x_next, [2.0, -2.0], atol=1e-12)
    # a delta below both grows tenfold until it holds the shorter step, and
    # the first visited piece inside that radius answers: 1 -> 10 holds both
    grown_past_both = solve_subproblem(SubproblemSpec(xk, lamk, H, prob, delta=1.0))
    assert grown_past_both.piece_index == 1
    assert np.allclose(grown_past_both.x_next, [-2.0, 2.0], atol=1e-12)
    # 0.3 -> 3 holds sqrt(7.25) only
    grown_between = solve_subproblem(SubproblemSpec(xk, lamk, H, prob, delta=0.3))
    assert grown_between.piece_index == 2
    assert np.allclose(grown_between.x_next, [2.0, -2.0], atol=1e-12)
    for sol in (held, first, near, grown_past_both, grown_between):
        assert np.allclose(sol.lambda_next, 0.0, atol=1e-12)
        assert sol.residual <= 1e-9


def test_a_nonconvex_face_guess_reaches_the_kernel(monkeypatch):
    # the indefinite quadrant model above, from xk = (1/2, -1) in piece 2:
    # on the guessed empty face the reduced Hessian is H itself (eigenvalues
    # +1 and -1), so the guess is refused and the kernel answers exactly as
    # without it; the face the kernel ends on is then a guess that answers
    half = [(-np.inf, 0.0, 0.0, 0.0, 0.0), (0.0, np.inf, 0.0, 0.0, 0.0)]
    H = np.array([[0.0, 1.0], [1.0, 0.0]])
    phi = Poly2Map(np.zeros(1), np.array([[0.5, 0.5]]), H[None])
    Phi = Poly2Map(np.zeros(2), np.eye(2), np.zeros((2, 2, 2)))
    prob = CompositeProblem(phi, Phi, plq_separable([half, half]),
                            Polyhedron.box([-2.0, -2.0], [2.0, 2.0]))
    kernel, answers = subqp.active_set_qp, []

    def spy(*args, **kwargs):
        answers.append(kernel(*args, **kwargs))
        return answers[-1]

    monkeypatch.setattr(subqp, "active_set_qp", spy)
    plain = solve_subproblem(SubproblemSpec([0.5, -1.0], [0.0, 0.0], H, prob))
    refused = solve_subproblem(SubproblemSpec([0.5, -1.0], [0.0, 0.0], H, prob, faces={2: []}))
    assert plain.piece_index == refused.piece_index == 2 and len(answers) == 2
    assert answers[1].iterations == answers[0].iterations > 0
    assert np.array_equal(answers[1].x, answers[0].x) and answers[1].work == answers[0].work
    assert np.array_equal(refused.x_next, plain.x_next)
    assert np.array_equal(refused.lambda_next, plain.lambda_next)
    assert np.allclose(plain.x_next, [2.0, -2.0], atol=1e-12)
    assert refused.faces == {2: answers[0].work}
    hit = solve_subproblem(SubproblemSpec([0.5, -1.0], [0.0, 0.0], H, prob, faces=plain.faces))
    assert answers[2].iterations == 0 and hit.piece_index == 2
    assert np.allclose(hit.x_next, plain.x_next, rtol=0.0, atol=1e-15)
