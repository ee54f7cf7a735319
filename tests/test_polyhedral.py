import itertools

import numpy as np
import pytest

from plqsqp.errors import NotANormalVector, PointNotInSet, TooManyRows
from plqsqp.polyhedral import (
    ConeFamily,
    PolyCone,
    Polyhedron,
    contains,
    cone_rays,
    critical_cone,
    enumerate_faces,
    fourier_motzkin,
    generated_cone_hrep,
    lineality_basis,
    normal_cone_dist,
    project,
    project_cone_union,
    span_basis,
    tangent_cone,
)

from oracles import face_cone, vertices

SIMPLEX = Polyhedron(np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                     np.array([1.0, 0.0, 0.0]), np.zeros((0, 2)), np.zeros(0))


# -- membership ------------------------------------------------------------

def test_contains_examples():
    nonpos = Polyhedron.nonpos(1)
    assert contains(nonpos, [0.0], 0.0)
    assert not contains(nonpos, [1e-3], 1e-6)
    assert contains(SIMPLEX, [0.5, 0.5], 0.0)


# -- projection ------------------------------------------------------------

def test_project_examples():
    assert np.allclose(project(Polyhedron.nonneg(2), [-1.0, 2.0]), [0.0, 2.0])
    assert np.allclose(project(Polyhedron.point([0.0]), [7.0]), [0.0])


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


def test_cone_rays_orthant():
    rays, lin = cone_rays(PolyCone.from_rows(-np.eye(2), np.zeros((0, 2))))
    assert lin.shape[1] == 0
    assert len(rays) == 2
    assert all(min(np.linalg.norm(r - e) for e in np.eye(2)) <= 1e-9 for r in rays)


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
