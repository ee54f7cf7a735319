import itertools
import sys
import time

import numpy as np
import pytest

from plqsqp import polyhedral
from plqsqp.nonneg import nonneg_lstsq
from plqsqp.errors import (
    DimensionMismatch,
    EmptyPolyhedron,
    Infeasible,
    NotANormalVector,
    PointNotInSet,
    TooManyRows,
)
from plqsqp.polyhedral import (
    ConeFamily,
    PolyCone,
    Polyhedron,
    contains,
    cone_rays,
    critical_cone,
    enumerate_faces,
    fourier_motzkin,
    interior_point,
    lineality_basis,
    normal_cone_dist,
    normal_cone_dist_at_rows,
    project,
    project_cone_union,
    span_basis,
    tangent_cone,
)

from oracles import (
    face_cone,
    faces_by_closure_walk,
    faces_by_subsets,
    generated_cone_hrep,
    normal_cone_dist_by_stacked_nnls,
    prune_redundant_by_lp,
    rays_by_subsets,
    vertices,
)

SIMPLEX = Polyhedron(np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                     np.array([1.0, 0.0, 0.0]), np.zeros((0, 2)), np.zeros(0))


# -- membership ------------------------------------------------------------

def test_contains_examples():
    nonpos = Polyhedron.nonpos(1)
    assert contains(nonpos, [0.0], 0.0)
    assert not contains(nonpos, [1e-3], 1e-6)
    assert contains(SIMPLEX, [0.5, 0.5], 0.0)


def test_contains_on_a_block_is_contains_per_row(rng):
    # rows of a block answer bitwise as one point each, on polyhedra with
    # inequality rows, equality rows, both and neither; points on the
    # equality hull, near the boundary and far off; a 0-row block is empty
    for P in (SIMPLEX, Polyhedron.whole_space(2), Polyhedron.point([0.5, -1.0]),
              Polyhedron(np.array([[1.0, 1.0, 0.0], [0.0, -1.0, 0.0]]), np.array([1.0, 0.0]),
                         np.array([[1.0, -1.0, 1.0]]), np.array([0.25]))):
        inner = interior_point(P)
        X = np.vstack([inner + 0.5 * rng.standard_normal((40, P.dim)),
                       np.array([project(P, x) for x in inner + rng.standard_normal((40, P.dim))])])
        for tol in (0.0, 1e-9, 1e-3):
            inside = contains(P, X, tol)
            assert inside.dtype == bool and inside.shape == (len(X),)
            assert inside.tolist() == [contains(P, x, tol) for x in X]
        assert contains(P, np.zeros((0, P.dim))).shape == (0,)
        with pytest.raises(DimensionMismatch):
            contains(P, np.zeros((3, P.dim + 1)))


# -- projection ------------------------------------------------------------

def test_project_examples():
    assert np.allclose(project(Polyhedron.nonneg(2), [-1.0, 2.0]), [0.0, 2.0])
    assert np.allclose(project(Polyhedron.point([0.0]), [7.0]), [0.0])


def test_project_on_a_block_agrees_with_its_rows(rng):
    # a block of points answers as its rows do one at a time, on sets with
    # and without equality rows and on a cone; a block on an empty set raises
    sets = [SIMPLEX, Polyhedron.box([-1.0, 0.0], [1.0, 2.0]), Polyhedron.nonpos(1),
            Polyhedron(np.array([[1.0, 1.0, 0.0]]), [1.0], np.array([[1.0, -1.0, 1.0]]), [0.5]),
            *ZERO_RHS_CONES]
    for P in sets:
        Z = 3.0 * rng.standard_normal((40, P.dim))
        X = project(P, Z)
        assert X.shape == Z.shape
        for x, z in zip(X, Z):
            assert np.linalg.norm(x - project(P, z)) <= 1e-12 * (1.0 + np.linalg.norm(z))
    with pytest.raises(DimensionMismatch):
        project(SIMPLEX, np.zeros((3, 3)))
    empty = Polyhedron(np.array([[1.0], [-1.0]]), [-1.0, -1.0], np.zeros((0, 1)), [])
    with pytest.raises(EmptyPolyhedron):
        project(empty, np.zeros((3, 1)))


def test_project_simplex_grid_oracle():
    # brute-force grid + the analytic projection onto x1 + x2 = 1
    z = np.array([1.0, 1.0])
    grid = np.arange(0.0, 1.0005, 1e-3)
    pts = np.array([(a, b) for a in grid for b in grid if a + b <= 1.0 + 1e-12])
    k = int(np.argmin(((pts - z) ** 2).sum(axis=1)))
    assert np.linalg.norm(pts[k] - [0.5, 0.5]) <= 2e-3
    analytic = z - (z.sum() - 1.0) / 2.0  # projection onto the hyperplane
    p = project(SIMPLEX, z)
    assert np.allclose(p, [0.5, 0.5], atol=1e-10)
    assert np.allclose(p, analytic, atol=1e-10)


def test_projection_idempotent_and_variational_inequality(rng):
    for _ in range(100):
        z = 3.0 * rng.standard_normal(2)
        p = project(SIMPLEX, z)
        assert np.linalg.norm(project(SIMPLEX, p) - p) <= 1e-9
        x = project(SIMPLEX, rng.standard_normal(2))
        assert float((z - p) @ (x - p)) <= 1e-9


# zero right-hand sides, each read by `project` as a cone: redundant rows
# (one a multiple of another, one implied) with an equality row, a wedge
# with a two-dimensional lineality space, and a plain Polyhedron (a
# min-max cell) that is no PolyCone instance
ZERO_RHS_CONES = [
    PolyCone.from_rows(np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 1.0, 0.0],
                                 [0.0, 1.0, 0.0], [1.0, 2.0, 0.0]]),
                       np.array([[1.0, -1.0, 1.0]])),
    PolyCone.from_rows(np.array([[1.0, -1.0, 0.0, 0.0]]), np.zeros((0, 4))),
    Polyhedron(np.array([[1.0, -1.0, 0.0], [-1.0, 0.0, 1.0], [0.5, 0.5, -1.0]]),
               np.zeros(3), np.zeros((0, 3)), np.zeros(0)),
]


@pytest.mark.parametrize("cone", ZERO_RHS_CONES, ids=["redundant_eq", "lineality", "cell"])
def test_cone_projection_is_positively_homogeneous(cone, rng):
    for _ in range(25):
        v = rng.standard_normal(cone.dim)
        p = project(cone, v)
        for t in (1e-14, 1e-8, 1.0, 1e6):
            assert np.linalg.norm(project(cone, t * v) - t * p) <= 1e-12 * t * np.linalg.norm(v)


def test_cone_projection_matches_the_qp_kernel(rng):
    # 200 random cones at unit scale, some with duplicated rows and
    # equality rows, against the QP the projection no longer runs
    from plqsqp.qp import active_set_qp
    for _ in range(200):
        n = int(rng.integers(1, 6))
        A = rng.standard_normal((int(rng.integers(0, 7)), n))
        if A.shape[0] and rng.random() < 0.3:
            A = np.vstack([A, 2.0 * A[0]])
        E = rng.standard_normal((int(rng.integers(0, min(n, 3))), n))
        v = rng.standard_normal(n)
        K = PolyCone.from_rows(A, E, n)
        x = active_set_qp(np.eye(n), -v, A, np.zeros(A.shape[0]), E, np.zeros(E.shape[0])).x
        assert np.linalg.norm(project(K, v) - x) <= 1e-10


def _random_polyhedron(rng):
    """A polyhedron in R^n, n <= 5, with a nonzero right-hand side: random
    rows around a random center (some sets empty), at times a duplicated
    inequality row, and at times equality rows.  One in ten is the
    redundant case: 4 equality rows in R^2 whose right-hand side is
    consistent only to rounding."""
    if rng.random() < 0.1:
        E = rng.standard_normal((4, 2))
        A = rng.standard_normal((int(rng.integers(0, 3)), 2))
        x = rng.standard_normal(2)
        return Polyhedron(A, A @ x + rng.random(A.shape[0]), E, E @ x)
    n = int(rng.integers(1, 6))
    A = rng.standard_normal((int(rng.integers(0, 8)), n))
    if A.shape[0] and rng.random() < 0.3:
        A = np.vstack([A, 2.0 * A[0]])
    center = rng.standard_normal(n)
    b = A @ center + rng.standard_normal(A.shape[0])
    if A.shape[0] and rng.random() < 0.3:
        b = np.append(b[:-1], 2.0 * b[0])  # the duplicated row's offset
    E = rng.standard_normal((int(rng.integers(0, min(n, 3))), n))
    return Polyhedron(A, b, E, E @ center)


def test_projection_matches_the_qp_kernel(rng):
    # 300 random polyhedra with nonzero right-hand sides, |z| from 1e-3 to
    # 1e3, against the QP the projection no longer runs; the set is empty
    # exactly when the QP finds it infeasible
    from plqsqp.qp import active_set_qp
    empty = 0
    for _ in range(300):
        P = _random_polyhedron(rng)
        z = 10.0 ** rng.uniform(-3.0, 3.0) * rng.standard_normal(P.dim)
        try:
            x = active_set_qp(np.eye(P.dim), -z, P.A, P.b, P.E, P.d).x
        except Infeasible:
            with pytest.raises(EmptyPolyhedron):
                project(P, z)
            empty += 1
            continue
        scale = max(1.0, np.linalg.norm(z), np.linalg.norm(x))
        assert np.linalg.norm(project(P, z) - x) <= 1e-10 * scale
    assert 0 < empty < 150


@pytest.mark.parametrize("P, z, expected", [
    (Polyhedron.box([0.0, 0.0], [1e-12, 1e-12]), [3e-12, -2e-12], [1e-12, 0.0]),
    (Polyhedron.box([-np.inf, -np.inf], [1e-14, np.inf]), [5e-13, 1.0], [1e-14, 1.0]),
], ids=["tiny_box", "tiny_halfspace"])
def test_projection_onto_small_scale_sets(P, z, expected):
    # the QP route's absolute tolerances gave (0, 1e-12) on the box and z
    # itself, 4.9e-13 outside, on the half-space; compared entrywise at
    # the sets' own scale
    assert np.allclose(project(P, z), expected, rtol=1e-9, atol=1e-20)


def test_projection_onto_a_set_holding_the_origin_runs_no_feasibility():
    # every b_i >= 0 and d = 0 put the origin in P, so P is not empty; the
    # answers are the closed forms
    cone = PolyCone.from_rows([[1.0, 1.0]], np.zeros((0, 2)))
    assert np.allclose(project(cone, [2.0, 0.0]), [1.0, -1.0])
    box = Polyhedron.box([-1.0, 0.0], [1.0, 2.0])
    assert np.allclose(project(box, [3.0, -1.0]), [1.0, 0.0])


# -- tangent and normal cones ----------------------------------------------

def test_tangent_cone_examples():
    T = tangent_cone(Polyhedron.nonpos(1), [0.0])
    assert T.n_ineq == 1 and contains(T, [-5.0]) and not contains(T, [0.1])
    T = tangent_cone(Polyhedron.nonpos(1), [-1.0])
    assert T.n_ineq == 0  # interior point: whole line
    T = tangent_cone(Polyhedron.nonneg(2), [0.0, 1.0])
    assert contains(T, [1.0, -9.0]) and not contains(T, [-1.0, 0.0])
    with pytest.raises(PointNotInSet):
        tangent_cone(Polyhedron.nonpos(1), [1.0])


def test_tangent_localization(rng):
    P = SIMPLEX
    for _ in range(100):
        x = project(P, rng.standard_normal(2))
        T = tangent_cone(P, x)
        slacks = [float(P.b[i] - P.A[i] @ x) for i in range(P.n_ineq)
                  if P.b[i] - P.A[i] @ x > 1e-8]
        eps0 = 0.5 * min(slacks) if slacks else 0.5
        w = rng.standard_normal(2)
        w = eps0 * w / np.linalg.norm(w)
        assert contains(T, w) == contains(P, x + w)


def _bitwise_equal(P, Q):
    return all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in ((P.A, Q.A), (P.b, Q.b), (P.E, Q.E), (P.d, Q.d)))


def _pattern_points(two_piece_2d):
    """(P, [two points sharing one activity pattern], ...) covering every pattern
    of the box [-1, 1] x [0, 2] and of each piece of two_piece_2d."""
    box = Polyhedron.box([-1.0, 0.0], [1.0, 2.0])
    # per coordinate: both points at the lower bound, inside, or at the upper bound
    spots = ([(-1.0, -1.0), (-0.5, 0.5), (1.0, 1.0)], [(0.0, 0.0), (0.5, 1.5), (2.0, 2.0)])
    out = [(box, [np.array([a[k], b[k]]) for k in range(2)])
           for a, b in itertools.product(*spots)]
    for piece in two_piece_2d.pieces:
        out.append((piece.C, [np.array([0.0, -1.0]), np.array([0.0, 3.0])]))
        inside = -piece.C.A[0, 0]  # a point with z1 strictly inside the piece
        out.append((piece.C, [np.array([inside, 0.0]), np.array([2.0 * inside, 5.0])]))
    return out


def test_tangent_cone_is_one_per_pattern(g_two_piece_2d):
    for P, (x, y) in _pattern_points(g_two_piece_2d):
        J = polyhedral.active_rows(P, x)
        fresh = PolyCone.from_rows(P.A[J], P.E, P.dim)
        assert _bitwise_equal(tangent_cone(P, x), fresh)
        assert _bitwise_equal(tangent_cone(P, y), fresh)


def test_interior_point_returns_a_copy():
    x = interior_point(SIMPLEX)
    kept = x.copy()
    x[:] = 99.0
    assert np.array_equal(interior_point(SIMPLEX), kept)
    assert interior_point(Polyhedron(np.array([[1.0], [-1.0]]), np.array([-1.0, 0.0]),
                                     np.zeros((0, 1)), np.zeros(0))) is None


def test_normal_cone_dist_examples():
    nonpos = Polyhedron.nonpos(1)
    assert normal_cone_dist(nonpos, [0.0], [1.0]) <= 1e-12
    assert abs(normal_cone_dist(nonpos, [0.0], [-1.0]) - 1.0) <= 1e-12
    free = Polyhedron.whole_space(2)
    assert abs(normal_cone_dist(free, [0.3, -2.0], [3.0, 4.0]) - 5.0) <= 1e-12


def test_normal_cone_dist_brute_force_grid(rng):
    # oracle: min over a multiplier grid of ||sum mu_j a_j - v||
    P = SIMPLEX
    for _ in range(20):
        x = project(P, rng.standard_normal(2))
        active = [i for i in range(3) if P.b[i] - P.A[i] @ x <= 1e-8]
        v = rng.standard_normal(2)
        dist = normal_cone_dist(P, x, v)
        grid = np.arange(0.0, 5.0, 0.01)
        if not active:
            oracle = np.linalg.norm(v)
        elif len(active) == 1:
            a = P.A[active[0]]
            oracle = min(np.linalg.norm(mu * a - v) for mu in grid)
        else:
            A = P.A[active]
            oracle = min(np.linalg.norm(m1 * A[0] + m2 * A[1] - v)
                         for m1 in grid[::5] for m2 in grid[::5])
        assert dist <= oracle + 1e-9
        assert oracle - dist <= 0.08  # grid resolution slack


def test_membership_iff_zero_distance(rng):
    P = SIMPLEX
    x = np.array([0.0, 0.0])  # vertex: normal cone spanned by two rows
    for _ in range(50):
        mu = rng.uniform(0.0, 2.0, size=2)
        v = mu[0] * P.A[1] + mu[1] * P.A[2]
        assert normal_cone_dist(P, x, v) <= 1e-9
    assert normal_cone_dist(P, x, [1.0, 1.0]) > 0.5


def _count_nnls(monkeypatch):
    calls = []

    def spy(M, r):
        calls.append(sys._getframe(1).f_code.co_name)
        return nonneg_lstsq(M, r)

    monkeypatch.setattr(polyhedral, "nonneg_lstsq", spy)
    return calls


def _random_rows_and_multipliers(rng):
    """(P, J, v): a polyhedron in R^1..R^5 with duplicated, dependent and
    equality rows at a scale from 1e-8 to 1e8, a set J of its rows, and a v
    in N_P or off it."""
    n = int(rng.integers(1, 6))
    A = rng.standard_normal((int(rng.integers(0, 7)), n))
    if len(A) >= 2 and rng.random() < 0.4:
        A[1] = rng.uniform(0.5, 2.0) * A[0]  # duplicated direction
    if len(A) >= 3 and rng.random() < 0.4:
        A[2] = A[0] - 2.0 * A[1]  # a rank-deficient stack
    E = rng.standard_normal((int(rng.integers(0, 3)), n))
    if len(E) and len(A) and rng.random() < 0.3:
        E[0] = A[0]  # an equality row repeating an inequality row
    if len(E) and len(A) >= 2 and rng.random() < 0.3:
        A[1] = -rng.uniform(0.5, 2.0) * E[0]  # an inequality row opposite an equality row
    scale = 10.0 ** rng.uniform(-8.0, 8.0)
    P = Polyhedron(scale * A, np.zeros(len(A)), scale * E, np.zeros(len(E)))
    J = sorted(rng.choice(len(A), size=int(rng.integers(0, len(A) + 1)), replace=False).tolist())
    C = np.vstack([P.A[J], P.E])
    size = 10.0 ** rng.uniform(-8.0, 8.0)
    if rng.random() < 0.5:  # inside: a nonnegative combination of the rows
        y = np.concatenate([rng.uniform(0.0, 1.0, len(J)), rng.standard_normal(len(E))])
        v = C.T @ y / max(np.linalg.norm(C.T @ y), 1e-300)
    else:
        v = rng.standard_normal(n)
    return P, J, size * v


def test_normal_cone_distance_agrees_with_the_stacked_nnls(monkeypatch):
    # the least-squares certificate answers most calls, one face step most of
    # the rest (a second row set looked up on P) and the NNLS the others;
    # each way the distance is the NNLS's on [A_J^T, E^T, -E^T] (flat rows
    # left out: kept, a row ∝ an equality row is a column of rounding size
    # on N, and 11 of these draws read a wrong distance)
    rng = np.random.default_rng(30)
    calls, faces = _count_nnls(monkeypatch), []
    derived = polyhedral._derived

    def spy(P, key, build):
        faces.append(key[0] == "NF")
        return derived(P, key, build)

    monkeypatch.setattr(polyhedral, "_derived", spy)
    certified = stepped = 0
    for _ in range(600):
        P, J, v = _random_rows_and_multipliers(rng)
        before, faces[:] = len(calls), []
        dist = normal_cone_dist_at_rows(P, J, v)
        certified += sum(faces) == 1
        stepped += sum(faces) == 2 and len(calls) == before
        expected = normal_cone_dist_by_stacked_nnls(P, J, v)
        scale = max(1.0, np.abs(P.A[J]).max(initial=0.0), np.abs(P.E).max(initial=0.0),
                    np.abs(v).max())
        assert abs(dist - expected) <= 1e-12 * scale, (P, J, v)
    assert 100 <= certified and 50 <= stepped and 20 <= len(calls), (certified, stepped, len(calls))


def test_repeated_normal_cone_distances_build_one_frame(monkeypatch):
    # P's equality frame is built once, and shared with `project`; the
    # pseudo-inverse of (A N)_J is kept on P per J: a second v at the same
    # rows builds no frame, and a nonnegative y runs no NNLS
    frames = []
    build = polyhedral.affine_frame

    def frame_spy(A, E):
        frames.append(1)
        return build(A, E)

    monkeypatch.setattr(polyhedral, "affine_frame", frame_spy)
    nnls = _count_nnls(monkeypatch)
    P = Polyhedron(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 0.0]]),
                   np.zeros(3), np.array([[1.0, -1.0, 0.0, 0.0]]), np.zeros(1))
    for mu0, mu2, nu, t in ((1.0, 0.5, 2.0, 0.0), (2.0, 3.0, -3.0, 1.0), (1e6, 2e6, 1e5, 3.0)):
        v = mu0 * P.A[0] + mu2 * P.A[2] + nu * P.E[0] + [0.0, 0.0, 0.0, t]
        assert abs(normal_cone_dist_at_rows(P, [0, 2], v) - t) <= 1e-9 * max(1.0, np.abs(v).max())
    assert len(frames) == 2 and nnls == []
    assert normal_cone_dist_at_rows(P, [1], P.A[1]) <= 1e-12  # another pattern, another frame
    assert len(frames) == 3 and nnls == []
    project(P, [1.0, 2.0, 3.0, 4.0])
    assert len(frames) == 3


def test_normal_cone_distances_on_a_block_are_the_per_row_distances():
    # a block of v answers as one call per row, to rounding, whichever route
    # each row takes: the certificate, the face step or the NNLS; a 0-row
    # block is empty
    rng = np.random.default_rng(31)
    for _ in range(150):
        P, J, v = _random_rows_and_multipliers(rng)
        size = np.abs(v).max()
        V = np.vstack([v, size * rng.standard_normal((5, P.dim)), -v, 0.0 * v])
        dist = normal_cone_dist_at_rows(P, J, V)
        assert dist.shape == (len(V),)
        for d, row in zip(dist, V):
            assert abs(d - normal_cone_dist_at_rows(P, J, row)) <= 1e-13 * max(1.0, size)
        assert normal_cone_dist_at_rows(P, J, np.zeros((0, P.dim))).shape == (0,)


def test_a_negative_least_squares_multiplier_takes_one_face_step(monkeypatch):
    calls = _count_nnls(monkeypatch)
    # row 0 of R^2_- at the origin: y = -1 for v = -e1; the face step drops
    # the row, and u = 0 with C(Cᵀu - w) = 1 >= 0 gives the distance 1
    assert normal_cone_dist(Polyhedron.nonpos(2), [0.0, 0.0], [-1.0, 0.0]) == 1.0
    # opposite rows -e1 and e1: the least-norm y for v = e1 is (-1/2, 1/2),
    # and the face of row 1 alone gives u = (0, 1) at distance 0
    P = Polyhedron(np.array([[-1.0, 0.0], [1.0, 0.0]]), np.zeros(2), np.zeros((0, 2)), np.zeros(0))
    assert normal_cone_dist_at_rows(P, [0, 1], [1.0, 0.0]) <= 1e-12
    assert calls == []


def test_a_negative_least_squares_multiplier_reaches_the_nnls(monkeypatch):
    # rows (0, -1) and (1, 2), v = (-1, 2): y = (-4, -1), so the face step
    # keeps no row, and u = 0 fails on row 1 (C(Cᵀu - w) = (2, -3)); the NNLS
    # answers u = (0, 3/5), at distance 4/sqrt(5)
    calls = _count_nnls(monkeypatch)
    P = Polyhedron(np.array([[0.0, -1.0], [1.0, 2.0]]), np.zeros(2), np.zeros((0, 2)), np.zeros(0))
    assert abs(normal_cone_dist_at_rows(P, [0, 1], [-1.0, 2.0]) - 4.0 / np.sqrt(5.0)) <= 1e-15
    assert calls == ["normal_cone_dist_at_rows"]


def test_a_multiplier_negative_by_rounding_is_clipped(monkeypatch):
    # v = 1.9 A_0 + 0 A_1 + 0.63 E_0 lies on a face of N_P: in P's equality
    # frame its least-squares y_1 reads -5e-16, and clipped at 0 it meets the
    # lower bound ||r||, so the distance needs no NNLS and is the stacked NNLS's
    calls = _count_nnls(monkeypatch)
    A = np.array([[0.13, -0.13, 0.64], [0.1, -0.54, 0.36]])
    E = np.array([[1.3, 0.95, -0.7]])
    P = Polyhedron(A, np.zeros(2), E, np.zeros(1))
    v = A.T @ [1.9, 0.0] + E.T @ [0.63]
    _, N, AN = polyhedral.affine_frame(A, E)
    assert -1e-15 < (v @ N @ polyhedral.affine_frame(AN[:0], AN)[0])[1] < 0.0
    dist = normal_cone_dist_at_rows(P, [0, 1], v)
    assert calls == []
    assert abs(dist - normal_cone_dist_by_stacked_nnls(P, [0, 1], v)) <= 1e-15


# -- critical cones ----------------------------------------------------------

def test_critical_cone_examples():
    K = critical_cone(Polyhedron.nonneg(2), [0.0, 1.0], [-1.0, 0.0])
    assert contains(K, [0.0, 5.0]) and contains(K, [0.0, -5.0])
    assert not contains(K, [0.5, 0.0])
    K = critical_cone(Polyhedron.whole_space(3), [1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    assert contains(K, [9.0, -9.0, 1.0])
    K = critical_cone(Polyhedron.point([0.0]), [0.0], [5.0])
    assert contains(K, [0.0]) and not contains(K, [1e-3])
    with pytest.raises(NotANormalVector):
        critical_cone(Polyhedron.nonpos(1), [0.0], [-1.0])


# -- faces, rays, spans ------------------------------------------------------

def test_enumerate_faces_orthant():
    C = PolyCone.from_rows(-np.eye(2), np.zeros((0, 2)))
    faces = enumerate_faces(C)
    assert len(faces) == 4
    dims = sorted(span_basis(face_cone(f)).shape[1] for f in faces)
    assert dims == [0, 1, 1, 2]


def test_enumerate_faces_whole_space_and_dedup():
    assert len(enumerate_faces(PolyCone.whole(3))) == 1
    C = PolyCone.from_rows(np.array([[1.0], [-1.0]]), np.zeros((0, 1)))
    faces = enumerate_faces(C)
    assert len(faces) == 1  # all subsets give {w = 0}


def test_enumerate_faces_dedup_sampled_affine_hull_oracle(rng):
    # oracle: two faces equal iff sampled projections coincide
    C = PolyCone.from_rows(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]),
                           np.zeros((0, 2)))
    faces = enumerate_faces(C)
    cones = [face_cone(f) for f in faces]
    for i, j in itertools.combinations(range(len(cones)), 2):
        same = all(
            np.linalg.norm(project(cones[i], z) - project(cones[j], z)) <= 1e-8
            for z in rng.standard_normal((25, 2)))
        assert not same, "duplicate faces survived deduplication"


def test_face_cap():
    C = PolyCone.from_rows(-np.eye(4), np.zeros((0, 4)))
    with pytest.raises(TooManyRows):
        enumerate_faces(C, cap=3)


def test_face_cap_raises_on_a_simplicial_cone_before_the_walk():
    # R^11_+ has 2^11 faces, and its 11 free rows are independent, so the
    # cap raises at once (the walk spent about 2.5 s of CPU before raising);
    # with a lineality direction and an equality row too
    orthant = PolyCone.from_rows(-np.eye(11), np.zeros((0, 11)))
    lifted = PolyCone.from_rows(np.hstack([-np.eye(11), np.ones((11, 2))]), np.eye(13)[12:])
    for C in (orthant, lifted):
        start = time.process_time()
        with pytest.raises(TooManyRows):
            enumerate_faces(C)
        assert time.process_time() - start < 0.1
    assert len(enumerate_faces(PolyCone.from_rows(-np.eye(10), np.zeros((0, 10))))) == 1024


def _simplicial_cones():
    # R^k_+, R^k_+ with a lineality direction, with an equality row, and a
    # sheared copy whose rows are independent but not orthogonal
    for k in range(1, 7):
        yield PolyCone.from_rows(-np.eye(k), np.zeros((0, k)))
        yield PolyCone.from_rows(np.hstack([-np.eye(k), np.ones((k, 1))]), np.zeros((0, k + 1)))
        yield PolyCone.from_rows(np.hstack([-np.eye(k), np.ones((k, 2))]), np.eye(k + 2)[k + 1:])
        yield PolyCone.from_rows(-np.eye(k) - np.triu(np.ones((k, k)), 1), np.zeros((0, k)))


def test_simplicial_face_walk_lists_the_closure_walk_in_order():
    for C in _simplicial_cones():
        assert [f.active for f in enumerate_faces(C)] == faces_by_closure_walk(C)


def test_simplicial_face_walk_runs_one_closure(monkeypatch):
    calls = []
    closure = polyhedral._forced_active

    def spy(cone, fixed):
        calls.append(fixed)
        return closure(cone, fixed)

    monkeypatch.setattr(polyhedral, "_forced_active", spy)
    start = time.process_time()
    faces = enumerate_faces(PolyCone.from_rows(-np.eye(10), np.zeros((0, 10))))
    assert len(faces) == 1024 and calls == [frozenset()]
    assert time.process_time() - start < 0.5  # the closure walk took about 2 s
    del calls[:]
    assert len(enumerate_faces(_wedge(5))) == 4 and len(calls) > 1  # not simplicial


def test_cone_rays_orthant():
    rays, lin = cone_rays(PolyCone.from_rows(-np.eye(2), np.zeros((0, 2))))
    assert lin.shape[1] == 0
    assert len(rays) == 2
    assert all(min(np.linalg.norm(r - e) for e in np.eye(2)) <= 1e-9 for r in rays)


def _wedge(rows):
    """Pointed 2-D wedge of half-angle 0.1 pi around e1, cut by `rows` rows
    whose normals sweep [0.6 pi, 1.4 pi]; all but the two extreme rows are
    redundant."""
    angles = np.pi * (0.6 + 0.8 * np.arange(rows) / (rows - 1))
    return PolyCone.from_rows(np.column_stack([np.cos(angles), np.sin(angles)]),
                              np.zeros((0, 2)))


def test_wide_wedge_has_four_faces():
    # 21 rows make 2^21 row subsets, but the wedge has four faces
    faces = enumerate_faces(_wedge(21))
    assert len(faces) == 4
    assert sorted(len(f.active) for f in faces) == [0, 1, 1, 21]


def test_wide_wedge_rays_are_its_two_edges():
    rays, lin = cone_rays(_wedge(21))
    assert lin.shape[1] == 0 and len(rays) == 2
    edges = [np.array([np.cos(a), np.sin(a)]) for a in (0.1 * np.pi, -0.1 * np.pi)]
    assert all(min(np.linalg.norm(r - e) for r in rays) <= 1e-9 for e in edges)


def _random_cone(rng):
    """A cone in R^2..R^4 with duplicated, redundant and equality rows, and
    often a nontrivial lineality space or implicit equalities."""
    n = int(rng.integers(2, 5))
    lin = int(rng.integers(0, n - 1))  # lineality dimension, pointed part >= 2
    B = np.linalg.qr(rng.standard_normal((n, n)))[0][:, lin:]  # complement of L
    center = rng.standard_normal(n - lin)
    rows = []
    for _ in range(int(rng.integers(2, 6))):
        a = rng.standard_normal(n - lin)
        rows.append(-np.sign(a @ center) * a)  # center stays interior
    if rng.random() < 0.5:
        rows.append(rows[0].copy())  # duplicated
    if rng.random() < 0.5:
        rows.append(rows[0] + 2.0 * rows[1])  # redundant
    if rng.random() < 0.25:
        rows.append(-rows[1])  # makes row 1 an implicit equality
    eqs = []
    if n - lin >= 3 and rng.random() < 0.5:
        eqs.append(rng.standard_normal(n - lin))
    rows = np.array(rows[:7])  # the oracles walk all 2^rows subsets
    return PolyCone.from_rows(rows @ B.T, np.array(eqs).reshape(-1, n - lin) @ B.T, n)


def test_face_walk_matches_subset_enumeration(rng):
    for _ in range(24):
        C = _random_cone(rng)
        faces = enumerate_faces(C)
        keys = [f.active for f in faces]
        assert len(set(keys)) == len(keys)
        assert set(keys) == faces_by_subsets(C)
        assert all(keys[0] <= k for k in keys)  # the cone itself comes first
        rays, lin = cone_rays(C)
        expected = rays_by_subsets(C)
        assert len(rays) == len(expected)
        assert all(min(np.linalg.norm(r - q) for q in expected) <= 1e-8 for r in rays)
        assert all(contains(C, r, 1e-9) and np.linalg.norm(lin.T @ r) <= 1e-9 for r in rays)


def test_span_and_lineality():
    # half-plane {w1 <= 0} in R^2: span is R^2, lineality is the w2 axis
    C = PolyCone.from_rows(np.array([[1.0, 0.0]]), np.zeros((0, 2)))
    assert span_basis(C).shape[1] == 2
    L = lineality_basis(C)
    assert L.shape[1] == 1 and abs(abs(L[1, 0]) - 1.0) <= 1e-12


# -- cone families -----------------------------------------------------------

def test_project_cone_union_examples():
    F = ConeFamily("union", members=(PolyCone.from_rows(-np.eye(1), np.zeros((0, 1))),))
    assert np.allclose(project_cone_union(F, [-2.0]), [0.0])
    ray_x = PolyCone.from_rows(np.array([[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                               np.zeros((0, 2)))
    ray_y = PolyCone.from_rows(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]]),
                               np.zeros((0, 2)))
    F = ConeFamily("union", members=(ray_x, ray_y))
    assert np.allclose(project_cone_union(F, [1.0, 2.0]), [0.0, 2.0])
    S = ConeFamily("subspace", basis=np.array([[1.0], [0.0]]))
    assert np.allclose(project_cone_union(S, [3.0, 4.0]), [3.0, 0.0])


def test_project_cone_union_choice_does_not_change_with_scale():
    # the second member is nearer to v; at v = (1, 1) both are equally near
    # and the first listed wins, at every scale
    left = PolyCone.from_rows(np.array([[1.0, 0.0]]), np.zeros((0, 2)))
    below = PolyCone.from_rows(np.array([[0.0, 1.0]]), np.zeros((0, 2)))
    F = ConeFamily("union", members=(left, below))
    for v, nearest in (([1.0, 0.5], [1.0, 0.0]), ([1.0, 1.0], [0.0, 1.0])):
        v = np.array(v)
        p = project_cone_union(F, v)
        assert np.allclose(p, nearest, atol=1e-15)
        small = project_cone_union(F, 1e-13 * v)
        assert np.linalg.norm(small - 1e-13 * p) <= 1e-12 * 1e-13 * np.linalg.norm(v)


def test_projecting_zero_onto_a_cone_family_projects_nothing(monkeypatch):
    projections = []
    project_ = polyhedral.project

    def spy(P, z):
        projections.append(1)
        return project_(P, z)

    monkeypatch.setattr(polyhedral, "project", spy)
    wedge = ConeFamily("union", members=(_wedge(5), PolyCone.from_rows(np.eye(2), np.zeros((0, 2)))))
    plane = ConeFamily("subspace", basis=np.array([[1.0], [0.0]]))
    empty = ConeFamily("subspace", basis=np.zeros((2, 0)))
    for F in (wedge, plane, empty):
        p = project_cone_union(F, np.zeros(2))
        assert p.shape == (2,) and not p.any()
    assert projections == []
    project_cone_union(wedge, [1.0, 1.0])
    assert len(projections) == 2  # any other v projects onto every member
    assert np.array_equal(project_cone_union(empty, [1.0, 1.0]), [0.0, 0.0])


def test_moreau_polarity(rng):
    C = PolyCone.from_rows(np.array([[1.0, 0.5], [-0.2, -1.0]]), np.zeros((0, 2)))
    for _ in range(100):
        v = 2.0 * rng.standard_normal(2)
        p = project(C, v)
        assert abs(float(p @ (v - p))) <= 1e-9


# -- Fourier-Motzkin ---------------------------------------------------------

def test_generated_cone_hrep_membership(rng):
    G = np.array([[1.0, 0.0], [1.0, 1.0]])
    H = generated_cone_hrep(G, np.zeros((0, 2)))
    for _ in range(200):
        mu = rng.uniform(0.0, 3.0, size=2)
        assert contains(H, G.T @ mu, 1e-8)
    for v in ([0.0, 1.0], [-1.0, 0.0], [1.0, -0.1]):
        assert not contains(H, v, 1e-8)


def test_fourier_motzkin_box_shadow():
    # project {(x, y): 0 <= y <= 1, x - y <= 0, -x - y <= 0} onto x: [-1, 1]
    A = np.array([[0.0, 1.0], [0.0, -1.0], [1.0, -1.0], [-1.0, -1.0]])
    b = np.array([1.0, 0.0, 0.0, 0.0])
    shadow = fourier_motzkin(A, b, np.zeros((0, 2)), np.zeros(0), keep=[0])
    for x, expect in [(-1.0, True), (0.0, True), (1.0, True), (1.2, False), (-1.3, False)]:
        assert contains(shadow, [x], 1e-9) == expect


def test_fourier_motzkin_equality_pivot():
    # {(x, y): x + y = 1, y >= 0} onto x gives x <= 1
    A = np.array([[0.0, -1.0]])
    b = np.zeros(1)
    E = np.array([[1.0, 1.0]])
    d = np.array([1.0])
    shadow = fourier_motzkin(A, b, E, d, keep=[0])
    assert contains(shadow, [0.99], 1e-9) and not contains(shadow, [1.01], 1e-9)


def _integer_system(rng, kind, offset):
    """(A, b, E, d) of a set holding an integer point x0, with entries in
    {-1, 0, 1} and integer slacks, translated by a vector of norm `offset`.
    Kinds 0-2 and 4 are bounded by a box around x0 and add: 0 a copy of a
    row and copies scaled by 1e-3 and 1e3; 1 a row nearly parallel to row
    j, (1 - 1e-6) a_j + 1e-6 a_k, implied or cutting by 1e-6 where x0
    allows; 2 a row moved along an equality, implied only through it; 4 the
    rows ±s e_i of an equality row, s a power of 2 from 2^-10 to 2^10, at
    ±s d_i or looser by 1: rows flat on the equalities.  Kind 3 has at most
    n + 1 rows and no box, so objectives are often unbounded.
    Integer data keep every LP gap at 0, at least about 1/16 or 1e-6 times
    that: outside the band, near 1e-9 of the translation, where the LP's
    tolerance and the NNLS residual's differ."""
    n = int(rng.integers(2 if kind in (2, 4) else 1, 5))
    x0 = rng.integers(-2, 3, n).astype(float)
    p = int(rng.integers(1, n + 2 if kind == 3 else 2 * n + 2))
    A = rng.integers(-1, 2, (p, n)).astype(float)
    b = A @ x0 + rng.integers(0, 3, p)
    E = rng.integers(-1, 2, (int(rng.integers(1 if kind in (2, 4) else 0, n)), n)).astype(float)
    if kind != 3:
        w = rng.integers(1, 4, n)
        A, b = np.vstack([A, np.eye(n), -np.eye(n)]), np.r_[b, x0 + w, w - x0]
    j, k, m = rng.integers(len(A), size=3)
    if kind == 0:
        A = np.vstack([A, A[j], 1e-3 * A[k], 1e3 * A[m]])
        b = np.r_[b, b[j], 1e-3 * b[k], 1e3 * b[m]]
    elif kind == 1:
        A = np.vstack([A, (1.0 - 1e-6) * A[j] + 1e-6 * A[k]])
        b = np.r_[b, max((1.0 - 1e-6) * b[j] + 1e-6 * (b[k] - rng.integers(0, 2)), A[-1] @ x0)]
    elif kind == 2:
        s = rng.choice([-1.0, 1.0])
        A = np.vstack([A, A[k] + s * E[0]])
        b = np.r_[b, b[k] + s * (E[0] @ x0) + rng.integers(0, 2)]
    perm = rng.permutation(len(A))
    c = rng.standard_normal(n)
    c *= offset / np.linalg.norm(c)
    A, b, d = A[perm], b[perm] + A[perm] @ c, E @ (x0 + c)
    if kind == 4:  # after the translation, so that s d_i is exact
        i, s = rng.integers(len(E)), rng.choice([2.0 ** -10, 1.0, 2.0, 2.0 ** 10], 2) * [1.0, -1.0]
        at = rng.integers(len(b) + 1, size=2)
        A = np.insert(A, at, np.outer(s, E[i]), axis=0)
        b = np.insert(b, at, s * d[i] + rng.integers(0, 2, 2))
    return A, b, E, d


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_prune_redundant_keeps_the_rows_the_lp_keeps(offset):
    # one verified NNLS per row (the affine Farkas lemma) against one LP
    # per row, in the same order, on sets translated by `offset`
    rng = np.random.default_rng(17)
    dropped = kept = 0
    for trial in range(150):
        A, b, E, d = _integer_system(rng, trial % 5, offset)
        rows = prune_redundant_by_lp(A, b, E, d)
        A_kept, b_kept = polyhedral.prune_redundant(A, b, E, d)
        assert np.array_equal(A_kept, A[rows]) and np.array_equal(b_kept, b[rows]), trial
        dropped, kept = dropped + len(b) - len(rows), kept + len(rows)
    assert dropped > 300 and kept > 300


def test_vertices_of_simplex():
    V = vertices(SIMPLEX)
    expect = [np.array(v) for v in ([0.0, 0.0], [1.0, 0.0], [0.0, 1.0])]
    assert len(V) == 3
    for e in expect:
        assert min(np.linalg.norm(e - v) for v in V) <= 1e-9


def test_fourier_motzkin_random_shadows_match_lp_oracle(rng):
    # oracle: a point is in the projection iff the lifted system is feasible
    from plqsqp.lp import feasible_point

    for trial in range(10):
        A = rng.standard_normal((5, 3))
        b = rng.uniform(0.5, 1.5, size=5)  # contains the origin
        shadow = fourier_motzkin(A, b, np.zeros((0, 3)), np.zeros(0), keep=[0, 1])
        for _ in range(30):
            pt = rng.uniform(-2.0, 2.0, size=2)
            # oracle: feasibility of the 1-D remainder in the third coordinate
            ok = feasible_point(A[:, 2:3], b - A[:, :2] @ pt,
                                np.zeros((0, 1)), np.zeros(0)) is not None
            assert contains(shadow, pt, 1e-7) == ok
