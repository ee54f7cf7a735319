import numpy as np
import pytest

from plqsqp.errors import Infeasible, Unbounded
from plqsqp.polyhedral import Polyhedron
from plqsqp.qp import active_set_qp

from oracles import qp_kkt_residual


def grid_minimum(Q, c, A, b, E, d, lo=-3.0, hi=3.0, res=1e-3):
    """Brute-force minimizer over a grid restricted to the feasible set."""
    n = len(c)
    axes = [np.arange(lo, hi + res, res) for _ in range(n)]
    best, best_val = None, np.inf
    if n == 1:
        pts = axes[0].reshape(-1, 1)
    else:
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
    feas = np.ones(len(pts), dtype=bool)
    if len(A):
        feas &= np.all(pts @ np.asarray(A).T <= np.asarray(b) + 1e-9, axis=1)
    if len(E):
        feas &= np.all(np.abs(pts @ np.asarray(E).T - np.asarray(d)) <= res, axis=1)
    pts = pts[feas]
    vals = 0.5 * np.einsum("ki,ij,kj->k", pts, np.asarray(Q), pts) + pts @ np.asarray(c)
    k = int(np.argmin(vals))
    return pts[k], float(vals[k])


def test_nonneg_quadrant_example():
    P = Polyhedron.nonneg(2)
    res = active_set_qp(np.eye(2), [-1.0, -1.0], P.A, P.b, P.E, P.d)
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-10)
    assert qp_kkt_residual(np.eye(2), [-1.0, -1.0], P.A, P.b, P.E, P.d, res) <= 1e-10


def test_equality_symmetry_example():
    P = Polyhedron(np.zeros((0, 2)), [], np.array([[1.0, 1.0]]), [1.0])
    res = active_set_qp(np.eye(2), [0.0, 0.0], P.A, P.b, P.E, P.d)
    assert np.allclose(res.x, [0.5, 0.5], atol=1e-10)


def test_unbounded_detection():
    P = Polyhedron.nonneg(2)
    with pytest.raises(Unbounded):
        active_set_qp(np.diag([1.0, 0.0]), [0.0, -1.0], P.A, P.b, P.E, P.d)


def test_infeasible_detection():
    P = Polyhedron(np.array([[1.0], [-1.0]]), [-1.0, -1.0], np.zeros((0, 1)), [])
    with pytest.raises(Infeasible):
        active_set_qp(np.eye(1), [0.0], P.A, P.b, P.E, P.d)


def test_duplicated_rank_deficient_equality_rows():
    # the second row is twice the first: rank one, and the min-norm
    # multipliers must still certify stationarity
    E, d = np.array([[1.0, 1.0], [2.0, 2.0]]), np.array([1.0, 2.0])
    res = active_set_qp(np.eye(2), np.zeros(2), None, None, E, d)
    assert np.allclose(res.x, [0.5, 0.5], atol=1e-12)
    assert qp_kkt_residual(np.eye(2), np.zeros(2), None, None, E, d, res) <= 1e-12


def test_zero_curvature_without_descent_is_optimal_not_unbounded():
    # e2 has zero curvature and zero gradient: the objective is bounded,
    # so the minimizer keeps x0's second coordinate instead of a ray
    Q, c = np.diag([1.0, 0.0]), np.array([-1.0, 0.0])
    res = active_set_qp(Q, c, None, None, None, None, x0=[0.0, 0.7])
    assert qp_kkt_residual(Q, c, None, None, None, None, res) <= 1e-12
    assert np.allclose(res.x, [1.0, 0.7], atol=1e-12)
    assert abs(res.objective + 0.5) <= 1e-12


def test_one_factorization_per_working_set(monkeypatch):
    # from a feasible x0 with no active row: one full step to the
    # unconstrained minimizer, unblocked, then the zero-step optimality
    # check on the same (empty) working set, which reuses its frame
    from plqsqp import qp
    frame = qp.affine_frame
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return frame(*args, **kwargs)

    monkeypatch.setattr(qp, "affine_frame", spy)
    res = active_set_qp(np.eye(2), [-1.0, -1.0], np.array([[1.0, 0.0]]), [5.0], None, None,
                        x0=[0.0, 0.0])
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-12)
    assert qp_kkt_residual(np.eye(2), [-1.0, -1.0], np.array([[1.0, 0.0]]), [5.0],
                           None, None, res) <= 1e-12
    assert res.iterations == 2
    assert len(calls) == 1


def test_negative_curvature_returns_stationary_point():
    # concave objective over a box: stationary (vertex) point expected
    A = np.vstack([np.eye(2), -np.eye(2)])
    b = np.array([1.0, 1.0, 1.0, 1.0])
    res = active_set_qp(-np.eye(2), np.zeros(2), A, b, None, None, x0=[0.3, -0.2])
    assert np.max(np.abs(res.x)) >= 1.0 - 1e-9
    assert qp_kkt_residual(-np.eye(2), np.zeros(2), A, b, np.zeros((0, 2)),
                           np.zeros(0), res) <= 1e-9


@pytest.mark.parametrize("seed", range(12))
def test_random_convex_qps_match_grid_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 3))
    M = rng.standard_normal((n, n))
    Q = M @ M.T + 0.3 * np.eye(n)
    c = rng.uniform(-1.0, 1.0, size=n)
    # random box plus one general row
    lo = rng.uniform(-2.0, -0.5, size=n)
    hi = rng.uniform(0.5, 2.0, size=n)
    A = np.vstack([np.eye(n), -np.eye(n), rng.standard_normal((1, n))])
    b = np.concatenate([hi, -lo, rng.uniform(0.5, 1.5, size=1)])
    res = active_set_qp(Q, c, A, b, None, None)
    assert qp_kkt_residual(Q, c, A, b, np.zeros((0, n)), np.zeros(0), res) <= 1e-10
    xg, vg = grid_minimum(Q, c, A, b, [], [], res=1e-3 if n == 1 else 2e-2)
    tol = 5e-3 if n == 1 else 5e-2
    assert np.linalg.norm(res.x - xg) <= tol
    assert res.objective <= vg + 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_random_equality_constrained_qps(seed):
    rng = np.random.default_rng(100 + seed)
    n = 3
    M = rng.standard_normal((n, n))
    Q = M @ M.T + 0.5 * np.eye(n)
    c = rng.standard_normal(n)
    E = rng.standard_normal((1, n))
    d = rng.standard_normal(1)
    res = active_set_qp(Q, c, None, None, E, d)
    # oracle: closed-form KKT solve of the equality-constrained QP
    K = np.block([[Q, E.T], [E, np.zeros((1, 1))]])
    sol = np.linalg.solve(K, np.concatenate([-c, d]))
    assert np.allclose(res.x, sol[:n], atol=1e-9)
    assert np.allclose(res.nu, sol[n:], atol=1e-8)


def test_multipliers_certify_kkt():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = 2
        M = rng.standard_normal((n, n))
        Q = M @ M.T + 0.2 * np.eye(n)
        c = rng.standard_normal(n)
        A = np.vstack([-np.eye(n), rng.standard_normal((2, n))])
        b = np.concatenate([np.zeros(n), rng.uniform(0.2, 2.0, size=2)])
        try:
            res = active_set_qp(Q, c, A, b, None, None)
        except Infeasible:
            continue
        assert np.all(res.mu >= 0.0)
        assert qp_kkt_residual(Q, c, A, b, np.zeros((0, n)), np.zeros(0), res) <= 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_duplicated_rows_do_not_cycle(seed):
    # duplicated and scaled constraint copies make the vertex degenerate;
    # lowest-index selection must still terminate at a KKT point
    rng = np.random.default_rng(400 + seed)
    n = 3
    M = rng.standard_normal((n, n))
    Q = M @ M.T + 0.2 * np.eye(n)
    c = rng.standard_normal(n)
    A = rng.standard_normal((4, n))
    b = rng.uniform(-0.2, 1.0, size=4)
    A = np.vstack([A, A[0], 2.0 * A[0], A[1]])
    b = np.concatenate([b, [b[0], 2.0 * b[0], b[1]]])
    try:
        res = active_set_qp(Q, c, A, b, None, None)
    except Infeasible:
        return
    assert qp_kkt_residual(Q, c, A, b, np.zeros((0, n)), np.zeros(0), res) <= 1e-9


@pytest.mark.parametrize("seed", range(24))
def test_only_the_true_face_answers_a_guess(seed):
    # strictly convex QPs with a rank-deficient equality pair and duplicated
    # (one scaled) inequality rows, at |x| from 1e-3 to 1e3.  The answer's
    # working rows answer a guess with 0 iterations; a subset, a superset
    # and the equality-only face (whose minimizer leaves the set) must miss,
    # and a miss runs the kernel exactly as without a guess
    rng = np.random.default_rng(900 + seed)
    n = int(rng.integers(2, 6))
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    M = rng.standard_normal((n, n))
    Q = M @ M.T + 0.3 * np.eye(n)
    x_feas = scale * rng.standard_normal(n)
    A = np.vstack([np.eye(n), -np.eye(n), rng.standard_normal((2, n))])  # a box and two rows
    b = A @ x_feas + scale * rng.uniform(0.1, 1.0, size=2 * n + 2)
    A, b = np.vstack([A, A[0], 2.0 * A[-1]]), np.concatenate([b, [b[0], 2.0 * b[-1]]])
    e = rng.standard_normal(n)
    E, d = np.vstack([e, 3.0 * e]), np.array([e @ x_feas, 3.0 * (e @ x_feas)])
    v = rng.standard_normal(n)
    c = -Q @ (x_feas + 10.0 * scale * (v - (e @ v) / (e @ e) * e))  # pulls out of the box
    x0 = x_feas if seed % 2 else scale * rng.standard_normal(n)
    ref = active_set_qp(Q, c, A, b, E, d, x0=x0)
    assert ref.iterations > 0 and ref.work
    assert qp_kkt_residual(Q, c, A, b, E, d, ref) <= 1e-9 * scale * (1.0 + np.linalg.norm(c))

    hit = active_set_qp(Q, c, A, b, E, d, x0=x0, face=ref.work)
    assert hit.iterations == 0 and hit.work == ref.work
    for got, want in ((hit.x, ref.x), (hit.mu, ref.mu), (hit.nu, ref.nu)):
        assert np.linalg.norm(got - want) <= 1e-10 * max(np.linalg.norm(want), scale)

    slack = (b - A @ ref.x) / (1.0 + np.abs(b))
    K = np.block([[Q, E.T], [E, np.zeros((2, 2))]])  # rank-deficient: least squares
    x_eq = np.linalg.lstsq(K, np.concatenate([-c, d]), rcond=None)[0][:n]
    assert np.max(A @ x_eq - b) > 1e-6 * (1.0 + np.abs(b).max())  # the equality face leaves
    faces = [
        [j for j in ref.work if j != ref.work[int(np.argmax(ref.mu[ref.work]))]],
        sorted(ref.work + [int(np.argmax(slack))]),
        [],
    ]
    for face in faces:
        miss = active_set_qp(Q, c, A, b, E, d, x0=x0, face=face)
        assert miss.iterations == ref.iterations and miss.work == ref.work
        for got, want in ((miss.x, ref.x), (miss.mu, ref.mu), (miss.nu, ref.nu)):
            assert np.array_equal(got, want)
