import itertools

import numpy as np
import pytest

from plqsqp.errors import (
    DimensionMismatch,
    NotASubgradient,
    PointOutsideDomain,
    ValidationError,
)
from plqsqp.plq import (
    DualLQ,
    _membership,
    Piece,
    PLQFunction,
    active_indices,
    check_consistency,
    check_convexity,
    dual_lq_eval_prox,
    evaluate,
    in_subgradient_graph,
    piece_critical_cones,
    plq_vector_max,
    prox,
    sample_domain_points,
    subgradient_dist,
    proto_derivative_contains,
    second_order_model,
    second_subderivative,
    subderivative,
    subdifferential,
)
from plqsqp.polyhedral import (
    Polyhedron,
    contains,
    critical_cone,
    interior_point,
    project,
)
from plqsqp.properties import (
    prox_resolvent_suite,
    second_quotient_suite,
    subdifferential_duality_suite,
)

from oracles import (
    consistency_by_sampling,
    convexity_by_sampling,
    intersect,
    prox_all_pieces,
    proto_derivative_set,
    subdifferential_hrep,
    subgradient_dist_by_pieces,
    vertices,
)
from test_acceptance import CRITERION2_ANCHORS, CRITERION4_INSTANCES, _g_fixtures


# -- evaluation --------------------------------------------------------------

def test_eval_examples(g_abs, g_ind_nonpos, g_quad):
    assert evaluate(g_abs, [-3.0]) == 3.0
    assert evaluate(g_ind_nonpos, [1.0]) == np.inf
    assert evaluate(g_quad, [2.0]) == 2.0


def test_active_indices_examples(g_abs, g_ind_nonpos):
    assert active_indices(g_abs, [0.0]) == [0, 1]
    assert active_indices(g_abs, [5.0]) == [1]
    assert active_indices(g_ind_nonpos, [-1.0]) == [0]
    with pytest.raises(PointOutsideDomain):
        active_indices(g_ind_nonpos, [1.0])


# -- subdifferential ---------------------------------------------------------

def test_subdifferential_abs_kink(g_abs):
    # hand oracle: the intersection of v + 1 in R_+ and v - 1 in R_- is [-1, 1],
    # so the projection is the clip; a point moves iff it lies outside
    U = np.array([[-1.0], [1.0], [0.0], [1.0 + 1e-6], [-1.1], [7.5], [-3.0]])
    assert np.array_equal(subdifferential(g_abs, [0.0], U), np.clip(U, -1.0, 1.0))
    assert subdifferential(g_abs, [0.0], [0.25]).tolist() == [0.25]


def test_subdifferential_smooth_points(g_abs, g_quad):
    # a single gradient: every point projects onto it
    U = np.array([[1.0], [0.99], [-4.0], [3.01]])
    assert np.array_equal(subdifferential(g_abs, [2.0], U), np.ones((4, 1)))
    assert np.array_equal(subdifferential(g_quad, [3.0], U), np.full((4, 1), 3.0))


def _faces_and_points(g, rng, k=12):
    """k points of dom g and up to k more on faces that two pieces share."""
    Z = list(sample_domain_points(g, rng, k))
    for i, j in itertools.combinations(range(len(g.pieces)), 2):
        both = intersect(g.pieces[i].C, g.pieces[j].C)
        if len(Z) < 2 * k and (z0 := interior_point(both)) is not None:
            Z.append(project(both, z0 + rng.standard_normal(g.m)))
    return Z


def test_subdifferential_projects_as_the_eliminated_oracle(rng):
    # the four calculus fixtures, the convex functions of `_certificate_cases`
    # and the ELQP and min-max g's of criterion 4, at points of dom g and of
    # faces two pieces share: each row of a block projects as the oracle's
    # H-representation does (`project`), and as it does alone, to rounding
    from plqsqp.generators import generate
    gs = [g for _, g in _g_fixtures()] + _certificate_cases(rng)[0] \
        + [generate(kind, seed=seed, **params).problem.g
           for kind, params, seed in CRITERION4_INSTANCES if kind != "nlp"]
    shared = 0
    for g in gs:
        Z = _faces_and_points(g, rng, k=6)
        for z in Z:
            shared += len(active_indices(g, z)) > 1
            U = 3.0 * rng.standard_normal((5, g.m))
            P = subdifferential(g, z, U)
            ref = project(subdifferential_hrep(g, z), U)
            assert np.all(np.linalg.norm(P - ref, axis=1)
                          <= 1e-9 * (1.0 + np.linalg.norm(U, axis=1))), (g.m, z)
            assert np.linalg.norm(P[2] - subdifferential(g, z, U[2])) \
                <= 1e-12 * (1.0 + np.linalg.norm(U[2]))
    assert len(gs) == 32 and shared >= 50, shared


def test_subdifferential_answers_at_m_10():
    # at a 4-way tie of max_j z_j the subdifferential is the unit simplex on
    # the tied coordinates (the rest 0): the projection is the sorted
    # closed form, t = (sum of the k largest - 1) / k at the last k with
    # a positive entry (Held, Wolfe & Crowder, 1974)
    g = plq_vector_max(10)
    z = np.array([1.0, 0.0, 1.0, -2.0, 1.0, 0.5, 0.0, 1.0, -1.0, 0.0])
    tied = z == 1.0
    rng = np.random.default_rng(11)
    U = 2.0 * rng.standard_normal((20, 10))
    for u, p in zip(U, subdifferential(g, z, U)):
        s = np.sort(u[tied])[::-1]
        t = max((np.cumsum(s)[k] - 1.0) / (k + 1) for k in range(len(s))
                if s[k] > (np.cumsum(s)[k] - 1.0) / (k + 1))
        expect = np.where(tied, np.maximum(u - t, 0.0), 0.0)
        assert np.linalg.norm(p - expect) <= 1e-12 * (1.0 + np.linalg.norm(u))


def test_subderivative_examples(g_abs, g_ind_nonpos, g_quad):
    assert subderivative(g_abs, [0.0], [-2.0]) == 2.0
    assert subderivative(g_ind_nonpos, [0.0], [1.0]) == np.inf
    assert subderivative(g_quad, [1.0], [4.0]) == 4.0


# -- critical cones ----------------------------------------------------------

def test_critical_cone_abs_boundary_subgradient(g_abs):
    # hand: piece R_- gives T cap [2]-perp = {0}; piece R_+ gives R_+; the
    # second-order model's pieces are these cones and dom h is their union
    h = second_order_model(g_abs, [0.0], [1.0])
    assert len(h.pieces) == 2
    left, right = (p.C for p in h.pieces)
    assert contains(left, [0.0]) and not contains(left, [-1e-3])
    assert contains(right, [3.0]) and not contains(right, [-1e-3])
    assert np.isfinite(h([2.0])) and not np.isfinite(h([-0.1]))


def test_critical_cone_abs_interior_subgradient(g_abs):
    # v = 0.5 interior: both members collapse to {0}
    for piece in second_order_model(g_abs, [0.0], [0.5]).pieces:
        assert contains(piece.C, [0.0]) and not contains(piece.C, [1e-3])


def test_critical_cone_quadratic(g_quad):
    h = second_order_model(g_quad, [1.0], [1.0])
    assert np.isfinite(h([123.0])) and np.isfinite(h([-5.0]))
    with pytest.raises(NotASubgradient):
        second_order_model(g_quad, [1.0], [2.0])


def test_proto_derivative_direction_just_outside_critical_cone(g_ind_nonpos):
    # K = {0} at (0, 1); w = 5e-9 is outside K at the membership tolerance
    assert not proto_derivative_contains(g_ind_nonpos, [0.0], [1.0], [5e-9], [0.0])


# -- second subderivative ------------------------------------------------------

def test_second_subderivative_examples(g_abs, g_ind_nonpos, g_quad):
    # indicator: d^2 is the indicator of the critical cone (paper formula)
    assert second_subderivative(g_ind_nonpos, [0.0], [1.0], [0.0]) == 0.0
    assert second_subderivative(g_ind_nonpos, [0.0], [1.0], [1.0]) == np.inf
    assert second_subderivative(g_ind_nonpos, [0.0], [1.0], [-1.0]) == np.inf
    assert second_subderivative(g_quad, [1.0], [1.0], [3.0]) == 9.0
    assert second_subderivative(g_abs, [0.0], [1.0], [2.0]) == 0.0


# -- proto-derivative ----------------------------------------------------------

def test_proto_derivative_at_zero_is_polar(g_abs):
    # paper: D(dg)(z, v)(0) = K_g(z, v)^*; here K_g = R_+ so the polar is R_-
    for u in (-5.0, -0.1, 0.0):
        assert proto_derivative_contains(g_abs, [0.0], [1.0], [0.0], [u])
    for u in (0.1, 2.0):
        assert not proto_derivative_contains(g_abs, [0.0], [1.0], [0.0], [u])


def test_proto_derivative_quadratic(g_quad):
    assert proto_derivative_contains(g_quad, [1.0], [1.0], [2.0], [2.0])
    assert not proto_derivative_contains(g_quad, [1.0], [1.0], [2.0], [3.0])


def test_proto_derivative_contains_matches_the_eliminated_oracle(rng):
    # at the criterion-2 anchors and the criterion-4 KKT points, u in
    # D(dg)(z, v)(w) read off the second-order model must agree with the
    # oracle's eliminated H-representation, for w in a critical cone or
    # not and u in the set or not
    from plqsqp.generators import generate
    cases = [(g, *CRITERION2_ANCHORS[name]) for name, g in _g_fixtures()]
    for kind, params, seed in CRITERION4_INSTANCES:
        gp = generate(kind, seed=seed, **params)
        cases.append((gp.problem.g, gp.problem.Phi.value(gp.xbar), gp.lambdabar))
    seen = {True: 0, False: 0}
    for g, z, v in cases:
        cones = piece_critical_cones(g, z, v)
        for _ in range(40):
            w = rng.standard_normal(g.m)
            if rng.uniform() < 0.75:
                w = project(cones[rng.integers(len(cones))][1], w)
            u = rng.standard_normal(g.m)
            try:
                U = proto_derivative_set(g, z, v, w)
            except PointOutsideDomain:
                expect = False
            else:
                if rng.uniform() < 0.5:
                    u = project(U, u)
                expect = contains(U, u, 1e-8)
            assert proto_derivative_contains(g, z, v, w, u) == expect
            seen[expect] += 1
    assert min(seen.values()) >= 50, seen


# -- prox ----------------------------------------------------------------------

def test_prox_examples(g_abs, g_ind_nonpos, g_quad):
    assert np.allclose(prox(g_abs, [2.0]), [1.0])
    assert np.allclose(prox(g_ind_nonpos, [0.7]), [0.0])
    assert np.allclose(prox(g_quad, [3.0]), [1.5])


def test_prox_tests_a_verified_point_inside_the_value_tie(g_two_piece_2d):
    # the left piece's point (0, x2/2) ties the true prox ((1 + x1)/3, x2/2)
    # of the right piece within 1e-12 in value; the right point passes the
    # exact subgradient test and must be returned though it is no strict
    # improvement
    x = np.array([-0.99999902, -0.00438564])
    z = prox(g_two_piece_2d, x)
    assert np.linalg.norm(z - [(1.0 + x[0]) / 3.0, x[1] / 2.0]) <= 1e-15
    assert subgradient_dist(g_two_piece_2d, z, x - z) <= 1e-12


def test_prox_rejects_a_non_finite_argument(g_abs):
    for x in ([np.nan], [np.inf]):
        with pytest.raises(DimensionMismatch):
            prox(g_abs, x)


def test_prox_resolvent_identity(rng, g_abs, g_ind_nonpos, g_quad, g_two_piece_2d):
    for g in (g_abs, g_ind_nonpos, g_quad, g_two_piece_2d):
        failures, total, _ = prox_resolvent_suite(g, rng, n_cases=200)
        assert failures == 0 and total == 200


def test_prox_soft_threshold_oracle(rng, g_abs):
    # closed form: prox_{|.|}(x) = sign(x) * max(|x| - 1, 0)
    for _ in range(100):
        x = float(3.0 * rng.standard_normal())
        expect = np.sign(x) * max(abs(x) - 1.0, 0.0)
        assert abs(prox(g_abs, [x])[0] - expect) <= 1e-10


def test_prox_near_matches_oracle(rng, g_abs, g_ind_nonpos, g_quad, g_two_piece_2d):
    # the hint only orders the pieces: with no hint, the answer itself, a
    # point of dom g or a point outside it, prox returns the least-value
    # piece point of the all-pieces oracle, which shares none of its order
    from plqsqp.generators import generate
    g_elqp = generate("elqp", n=3, m=3, seed=5).problem.g
    assert len(g_elqp.pieces) == 27
    outside_tried = 0
    for g in (g_abs, g_ind_nonpos, g_quad, g_two_piece_2d, g_elqp):
        probes = (10.0 * rng.standard_normal(g.m) for _ in range(20))
        outside = next((z for z in probes if evaluate(g, z) == np.inf), None)
        outside_tried += outside is not None
        for _ in range(25):
            x = 3.0 * rng.standard_normal(g.m)
            expect = prox_all_pieces(g, x)
            for near in (None, expect, sample_domain_points(g, rng, 1)[0], outside):
                z = prox(g, x, near=near)
                assert np.linalg.norm(z - expect) <= 1e-10
                assert subgradient_dist(g, z, x - z) <= 1e-8
    assert outside_tried == 1  # only the indicator has points outside its domain


def test_prox_hint_only_orders_the_pieces(rng, monkeypatch, g_abs, g_ind_nonpos,
                                         g_quad, g_two_piece_2d):
    # the pieces holding `near` are projected onto first; the order must not
    # move the answer, whether near is the answer itself or another point
    # of dom g.  A projection onto a piece's frame is recorded by its rows.
    from plqsqp import plq
    projected = []
    projection = plq.nearest_point

    def spy(A, *args):
        projected.append(A)
        return projection(A, *args)

    monkeypatch.setattr(plq, "nearest_point", spy)
    for g in (g_abs, g_ind_nonpos, g_quad, g_two_piece_2d):
        for _ in range(25):
            x = 3.0 * rng.standard_normal(g.m)
            expect = prox(g, x)
            away = sample_domain_points(g, rng, 1, radius=3.0)[0]
            for near in (expect, away):
                projected.clear()
                assert np.linalg.norm(prox(g, x, near=near) - expect) <= 1e-12
                if near is expect:
                    holding = [g._table.frames[i][2][0] for i in active_indices(g, near)]
                    assert any(projected[0] is A for A in holding)


def test_prox_hinted_at_its_answer_bounds_only_the_answering_piece(rng, monkeypatch):
    # with near = prox(x), the first piece holding near answers: one bound and
    # one value, where bounding every piece before the first projection takes
    # 28 values on these 27 pieces
    from plqsqp.generators import generate
    g = generate("elqp", n=3, m=3, seed=5).problem.g
    assert len(g.pieces) == 27
    values = []
    value = Piece.value
    monkeypatch.setattr(Piece, "value", lambda p, z: values.append(p) or value(p, z))
    for _ in range(20):
        x = 3.0 * rng.standard_normal(g.m)
        expect = prox(g, x)
        values.clear()
        assert np.linalg.norm(prox(g, x, near=expect) - expect) <= 1e-12 * (1.0 + np.linalg.norm(x))
        assert len(values) <= 2, len(values)


def test_subgradient_dist_matches_the_per_piece_reference(rng):
    # membership, active rows and normal-cone distances read off one product
    # with the stacked rows must match each piece tested and measured on its
    # own, at random points of dom g and at points of faces shared by two
    # pieces, for subgradients and for other vectors; the critical cones built
    # from the stacked rows must be the per-piece ones
    from plqsqp.generators import generate
    shared = 0
    for kind, params, seed in CRITERION4_INSTANCES:
        g = generate(kind, seed=seed, **params).problem.g
        points = list(sample_domain_points(g, rng, 15))
        pairs = [(i, j) for i in range(len(g.pieces)) for j in range(i + 1, len(g.pieces))]
        for k in rng.permutation(len(pairs))[:30]:
            both = intersect(g.pieces[pairs[k][0]].C, g.pieces[pairs[k][1]].C)
            z0 = interior_point(both)
            if z0 is not None:
                points.append(project(both, z0 + rng.standard_normal(g.m)))
                shared += 1
        for z in points:
            for v in (rng.standard_normal(g.m),
                      subdifferential(g, z, rng.standard_normal(g.m))):
                expect, holding = subgradient_dist_by_pieces(g, z, v)
                assert active_indices(g, z) == holding
                assert abs(subgradient_dist(g, z, v) - expect) <= 1e-12 * (1.0 + expect)
                if expect > 1e-7:
                    continue
                for (i, K), j in zip(piece_critical_cones(g, z, v), holding, strict=True):
                    ref = critical_cone(g.pieces[j].C, z, v - g.pieces[j].gradient(z))
                    assert i == j and np.array_equal(K.A, ref.A) and np.array_equal(K.E, ref.E)
    assert shared >= 30


def _block_cases(rng):
    """(g, Z, V) per function: the four calculus fixtures (half_square's one
    piece has no rows) and the convex functions of `_certificate_cases` (some
    with equality rows); Z holds 12 points of dom g and up to 12 more on faces
    that two pieces share, V random vectors and subgradients in turn."""
    for g in [g for _, g in _g_fixtures()] + _certificate_cases(rng)[0]:
        Z = _faces_and_points(g, rng)
        V = [subdifferential(g, z, rng.standard_normal(g.m)) if k % 2 else
             rng.standard_normal(g.m) for k, z in enumerate(Z)]
        yield g, np.array(Z), np.array(V)


def test_block_calculus_answers_as_one_call_per_row(rng):
    # booleans and subderivatives bitwise, distances to rounding; a 0-row
    # block is empty
    cases = 0
    for g, Z, V in _block_cases(rng):
        member, AZ = _membership(g, Z)
        for z, m, az in zip(Z, member, AZ):
            m1, az1 = _membership(g, z)
            assert np.array_equal(m, m1) and np.allclose(az, az1, rtol=1e-14, atol=1e-14)
        dist = subgradient_dist(g, Z, V)
        for d, z, v in zip(dist, Z, V):
            assert abs(d - subgradient_dist(g, z, v)) <= 1e-12 * (1.0 + d)
        assert in_subgradient_graph(g, Z, V).tolist() == \
            [in_subgradient_graph(g, z, v) for z, v in zip(Z, V)]
        W = np.vstack([rng.standard_normal((20, g.m)), -V])
        for z in Z[::4]:
            value = subderivative(g, z, W)
            assert np.array_equal(value, [subderivative(g, z, w) for w in W])
        empty = np.zeros((0, g.m))
        assert _membership(g, empty)[0].shape == (0, len(g.pieces))
        for out in (subgradient_dist(g, empty, empty), in_subgradient_graph(g, empty, empty),
                    subderivative(g, Z[0], empty)):
            assert out.shape == (0,)
        cases += 1
    assert cases == 28


def test_a_block_with_a_point_outside_dom_g(rng):
    # subgradient_dist raises as the per-point call does; in_subgradient_graph
    # reads False on that row, as the per-point call does
    g = _g_fixtures()[1][1]  # the indicator of R_-
    Z, V = np.array([[-1.0], [0.0], [2.0]]), np.array([[0.0], [1.0], [0.0]])
    with pytest.raises(PointOutsideDomain):
        subgradient_dist(g, Z[2], V[2])
    with pytest.raises(PointOutsideDomain):
        subgradient_dist(g, Z, V)
    assert in_subgradient_graph(g, Z, V).tolist() == [True, True, False] == \
        [in_subgradient_graph(g, z, v) for z, v in zip(Z, V)]
    h = next(g for g, *_ in _block_cases(rng) if g.pieces[0].C.n_eq)  # +inf off a subspace
    z = project(h.pieces[0].C, np.zeros(h.m)) + 1.0
    with pytest.raises(PointOutsideDomain):
        subgradient_dist(h, np.vstack([z, project(h.pieces[0].C, z)]), np.zeros((2, h.m)))


def _embedded(rng, g0, n):
    """g0 (on R^k) on a random k-dimensional affine subspace of R^n, +inf
    off it: every piece carries n - k mixed equality rows and a quadratic
    term indefinite off the subspace, with eigenvalues below -1 there, so
    A + I is indefinite although g is convex."""
    k = g0.m
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
    V, W = basis[:, :k], basis[:, k:]
    center = rng.standard_normal(n)
    off = np.diag(rng.uniform(-4.0, -1.5, size=n - k))
    cross = rng.standard_normal((k, n - k))
    E = rng.standard_normal((n - k, n - k)) @ W.T
    pieces = []
    for p in g0.pieces:
        M = V @ p.A @ V.T + W @ off @ W.T + V @ cross @ W.T + W @ cross.T @ V.T
        C = Polyhedron(p.C.A @ V.T, p.C.b + p.C.A @ V.T @ center, E, E @ center)
        pieces.append(Piece(C, M, V @ p.a - M @ center,
                            p.alpha + 0.5 * center @ M @ center - p.a @ V.T @ center))
    return PLQFunction(n, pieces)


def test_prox_on_pieces_indefinite_off_their_hull_matches_oracle(rng):
    # 20 convex functions, each a separable dual-box or a vector-max PLQ
    # function on a random affine subspace of R^3 to R^5, 10 points each,
    # hinted and not; the oracle runs every piece's QP on the kernel, which
    # the prox no longer calls.  The stationary point of A + I on all of R^n
    # is no lower bound here: a prox bounding pieces by it skips the right
    # piece on 125 of these 200 points
    from plqsqp.generators import _box_dual_cells
    from plqsqp.plq import plq_separable
    line = Polyhedron(np.zeros((0, 2)), np.zeros(0), [[0.0, 1.0]], [0.0])
    g = PLQFunction(2, [Piece(line, np.diag([1.0, -3.0]), [0.0, 0.0], 0.0)])
    assert np.linalg.norm(prox(g, [3.0, 5.0]) - [1.5, 0.0]) <= 1e-10 * 1.5
    cases = 0
    for trial in range(20):
        k = 1 + trial % 2
        g0 = plq_vector_max(2) if trial % 5 == 4 else plq_separable(
            [_box_dual_cells(lo, lo + rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.5))
             for lo in rng.uniform(-1.0, 0.5, size=k)])
        g = _embedded(rng, g0, n=3 + trial % 3)
        for _ in range(10):
            x = 3.0 * rng.standard_normal(g.m)
            expect = prox_all_pieces(g, x)
            for near in (None, expect):
                z = prox(g, x, near=near)
                assert np.linalg.norm(z - expect) <= 1e-10 * (1.0 + np.linalg.norm(expect))
            cases += 1
    assert cases == 200


def test_an_equality_held_as_two_inequalities_is_rejected_at_construction_and_load(tmp_path):
    # C = {0 <= z2 <= 0}: A + I = diag(2, -2) is indefinite on the null space
    # of C's (absent) equality rows, so the piece has no least-distance frame;
    # the function is refused when it is built and its file when it is loaded,
    # before any prox could visit the piece
    from plqsqp.kkt import CompositeProblem, Poly2Map
    from plqsqp.probio import load_problem, save_problem
    slab = Polyhedron([[0.0, 1.0], [0.0, -1.0]], [0.0, 0.0], np.zeros((0, 2)), np.zeros(0))
    good = Piece(slab, np.diag([1.0, 3.0]), [0.0, 0.0], 0.0)
    bad = Piece(slab, np.diag([1.0, -3.0]), [0.0, 0.0], 0.0)
    with pytest.raises(ValidationError, match="piece 1: .* not positive definite"):
        PLQFunction(2, [good, bad])
    problem = CompositeProblem(Poly2Map(np.zeros(1), np.zeros((1, 2)), np.zeros((1, 2, 2))),
                               Poly2Map(np.zeros(2), np.eye(2), np.zeros((2, 2, 2))),
                               PLQFunction(2, [good]), Polyhedron.whole_space(2))
    path = tmp_path / "slab.json"
    save_problem(path, problem)
    load_problem(path)
    path.write_text(path.read_text().replace("3.0", "-3.0"))
    with pytest.raises(ValidationError, match="piece 0: .* not positive definite"):
        load_problem(path)


# -- dual LQ --------------------------------------------------------------------

def test_dual_lq_box_example():
    h = DualLQ(Polyhedron.box([0.0], [1.0]), [[0.0]])
    value, px = dual_lq_eval_prox(h, [2.0])
    assert abs(value - 2.0) <= 1e-10 and np.allclose(px, [1.0])


def test_dual_lq_quadratic_example():
    h = DualLQ(Polyhedron.whole_space(1), [[1.0]])
    value, px = dual_lq_eval_prox(h, [3.0])
    assert abs(value - 4.5) <= 1e-10 and np.allclose(px, [1.5])


def test_dual_lq_point_example():
    h = DualLQ(Polyhedron.point([0.0]), [[0.0]])
    value, px = dual_lq_eval_prox(h, [5.0])
    assert abs(value) <= 1e-12 and np.allclose(px, [5.0])


def test_dual_lq_unbounded_value():
    h = DualLQ(Polyhedron.whole_space(1), [[0.0]])
    value, px = dual_lq_eval_prox(h, [1.0])
    assert value == np.inf
    assert np.allclose(px, [0.0])  # prox of the support-like function


def test_dual_lq_matches_separable_pieces(rng):
    # f_{[0,1]^2, diag(b)} evaluated both ways
    from plqsqp.generators import _box_dual_cells
    from plqsqp.plq import plq_separable
    beta = [0.7, 1.3]
    h = DualLQ(Polyhedron.box([0.0, 0.0], [1.0, 1.0]), np.diag(beta))
    g = plq_separable([_box_dual_cells(0.0, 1.0, b) for b in beta])
    for _ in range(100):
        z = 2.0 * rng.standard_normal(2)
        value, px = dual_lq_eval_prox(h, z)
        assert abs(value - evaluate(g, z)) <= 1e-9
        assert np.linalg.norm(px - prox(g, z)) <= 1e-8


def test_dual_lq_prox_matches_the_qp_kernel(rng):
    # random Omega with equality rows and PSD B, singular at times, against
    # the QP of the Moreau identity, which the prox no longer runs
    from plqsqp.qp import active_set_qp
    for _ in range(100):
        m = int(rng.integers(1, 5))
        center = rng.standard_normal(m)
        A = rng.standard_normal((int(rng.integers(0, 6)), m))
        E = rng.standard_normal((int(rng.integers(0, m)), m))
        O = Polyhedron(A, A @ center + rng.random(A.shape[0]), E, E @ center)
        F = rng.standard_normal((int(rng.integers(0, m + 1)), m))
        h = DualLQ(O, F.T @ F)
        z = 3.0 * rng.standard_normal(m)
        u = active_set_qp(h.B + np.eye(m), -z, O.A, O.b, O.E, O.d).x
        px = dual_lq_eval_prox(h, z)[1]
        assert np.linalg.norm(px - (z - u)) <= 1e-10 * (1.0 + np.linalg.norm(z))


def test_dual_lq_subdifferential_is_argmax():
    # the oracle's dual-LQ subdifferential, which `oracles.multiplier_set_hrep` reads
    h = DualLQ(Polyhedron.box([0.0], [1.0]), [[1.0]])
    sub = subdifferential_hrep(h, [0.5])  # argmax over [0,1] of .5u - u^2/2
    assert contains(sub, [0.5], 1e-9) and not contains(sub, [0.6], 1e-9)


def test_interleaved_points_match_a_fresh_function(rng, g_abs, g_two_piece_2d):
    # the memos on g and its pieces must never answer for another point: z2 is
    # one ulp off a kink, another piece's interior, or the other side of |z|
    kink = np.array([0.0, 0.3])
    cases = [(g_two_piece_2d, kink, np.nextafter(kink, 1.0)),
             (g_two_piece_2d, kink, np.array([1.0, -0.5])),
             (g_abs, np.zeros(1), np.nextafter(np.zeros(1), -1.0)),
             (g_abs, np.zeros(1), np.array([2.0]))]
    for g, z1, z2 in cases:
        ws = rng.standard_normal((10, g.m))
        for z in (z1, z2, z1):
            fresh = PLQFunction.from_dict(g.to_dict())
            assert np.array_equal(subdifferential(g, z, 3.0 * ws), subdifferential(fresh, z, 3.0 * ws))
            assert [subderivative(g, z, w) for w in ws] == \
                [subderivative(fresh, z, w) for w in ws]


# -- invariants ------------------------------------------------------------------

def test_duality_suite(rng, g_abs, g_two_piece_2d):
    for g in (g_abs, g_two_piece_2d):
        failures, checked, _ = subdifferential_duality_suite(g, rng, n_cases=50)
        assert failures == 0 and checked > 0


def test_duality_suite_counts_one_failure_per_case(monkeypatch):
    # the four fixtures at seeds 0-9 check 50 cases each, none failing, as
    # when each direction was drawn and tested alone; with a subderivative
    # below the true one, every case fails once however many directions do
    from plqsqp import properties
    for _, g in _g_fixtures():
        assert [subdifferential_duality_suite(g, np.random.default_rng(seed), n_cases=50)[:2]
                for seed in range(10)] == [(0, 50)] * 10
    monkeypatch.setattr(properties, "subderivative", lambda g, z, W: subderivative(g, z, W) - 10.0)
    for _, g in _g_fixtures():
        failures, checked, _ = subdifferential_duality_suite(g, np.random.default_rng(0), 50)
        assert failures == checked == 50


def test_block_suites_keep_their_counts_at_seeds_0_to_9(monkeypatch):
    # every suite maps its samples by block calls; at seeds 0-9 the
    # resolvent, projection, tangent and Moreau suites check every case, the
    # quotient suite checks some, and none fails, as when each point was
    # mapped alone.  With projections off by 1e-6 more at each call, every
    # projection case fails once
    from plqsqp import properties
    from plqsqp.diagnostics import verify_reduction_lemma
    from plqsqp.polyhedral import PolyCone
    simplex = Polyhedron(np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                         np.array([1.0, 0.0, 0.0]), np.zeros((0, 2)), np.zeros(0))
    sets = (simplex, Polyhedron.nonpos(1), Polyhedron.box([-1.0, 0.0], [1.0, 2.0]))
    cone = PolyCone.from_rows(np.array([[1.0, 0.5], [-0.2, -1.0]]), np.zeros((0, 2)))
    gs = dict(_g_fixtures())
    for seed in range(10):
        rng = np.random.default_rng(seed)
        for g in gs.values():
            assert prox_resolvent_suite(g, rng, n_cases=200)[:2] == (0, 200)
            failures, checked, _ = second_quotient_suite(g, rng, n_cases=200)
            assert failures == 0 and checked > 0
        for P in sets:
            assert properties.projection_suite(P, rng, n_cases=200)[:2] == (0, 200)
            assert properties.tangent_localization_suite(P, rng, n_cases=100)[:2] == (0, 100)
        assert properties.moreau_polarity_suite(cone, rng, n_cases=100)[:2] == (0, 100)
        verdict = verify_reduction_lemma(gs["half_square"], [1.0], [1.0], eps=1e-2,
                                         n_samples=500, rng=rng)
        assert verdict.result == "holds", verdict.detail
    shifts = itertools.count(1)
    monkeypatch.setattr(properties, "project", lambda P, z: project(P, z) + 1e-6 * next(shifts))
    for P in sets:
        assert properties.projection_suite(P, np.random.default_rng(0), 200)[:2] == (200, 200)


def test_quotient_and_tangent_suites_count_one_failure_per_case(monkeypatch):
    # a second-order value 1 below the true one fails every checked quotient
    # case exactly once (the host piece's form disagrees); a tangent cone
    # missing its first active row holds steps that leave the set
    from plqsqp import plq, polyhedral, properties
    for _, g in _g_fixtures():
        expect = second_quotient_suite(g, np.random.default_rng(0), n_cases=200)[1]
        with monkeypatch.context() as patch:
            patch.setattr(properties, "second_form",
                          lambda g, groups, W: plq.second_form(g, groups, W) - 1.0)
            assert second_quotient_suite(g, np.random.default_rng(0), 200)[:2] == (expect, expect)
    simplex = Polyhedron(np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                         np.array([1.0, 0.0, 0.0]), np.zeros((0, 2)), np.zeros(0))
    monkeypatch.setattr(properties, "tangent_cone_at_rows",
                        lambda P, J: polyhedral.tangent_cone_at_rows(P, J[1:]))
    for P in (simplex, Polyhedron.nonpos(1), Polyhedron.box([-1.0, 0.0], [1.0, 2.0])):
        failures, checked, _ = properties.tangent_localization_suite(
            P, np.random.default_rng(0), n_cases=100)
        assert 0 < failures <= checked == 100


def test_block_calculus_over_distinct_points_agrees_with_its_rows(rng):
    # the four calculus fixtures, the convex functions of `_certificate_cases`
    # and the ELQP and min-max g's of criterion 4, at points of dom g and of
    # faces two pieces share: subdifferential and subderivative over a block
    # of distinct z answer as one-point calls do, and the block second
    # subderivative as the first critical cone of `piece_critical_cones`
    # holding w does (finite for w drawn in a critical cone)
    from plqsqp.generators import generate
    gs = [g for _, g in _g_fixtures()] + _certificate_cases(rng)[0] \
        + [generate(kind, seed=seed, **params).problem.g
           for kind, params, seed in CRITERION4_INSTANCES if kind != "nlp"]
    finite = 0
    for g in gs:
        Z = np.array(_faces_and_points(g, rng, k=6))
        U, W3 = 3.0 * rng.standard_normal(Z.shape), rng.standard_normal((len(Z), 5, g.m))
        V = subdifferential(g, Z, U)
        for z, u, v, W in zip(Z, U, V, W3):
            assert np.linalg.norm(v - subdifferential(g, z, u)) <= 1e-12 * (1.0 + np.linalg.norm(u))
        assert np.array_equal(subderivative(g, Z, W3),
                              [subderivative(g, z, W) for z, W in zip(Z, W3)])
        W = rng.standard_normal(Z.shape)
        for k, (z, v) in enumerate(zip(Z, V)):
            cones = piece_critical_cones(g, z, v)
            if k % 3:
                W[k] = project(cones[rng.integers(len(cones))][1], W[k])
        d2 = second_subderivative(g, Z, V, W)
        for z, v, w, value in zip(Z, V, W, d2):
            ref = next((w @ g.pieces[i].A @ w for i, K in piece_critical_cones(g, z, v)
                        if contains(K, w)), np.inf)
            for other in (ref, second_subderivative(g, z, v, w)):
                assert value == other or abs(value - other) <= 1e-12 * (1.0 + abs(other))
            finite += bool(np.isfinite(value))
    assert len(gs) == 32 and finite >= 200, finite


def test_every_critical_cone_of_an_embedded_function_projects():
    # on functions embedded in an affine subspace the critical cones of
    # sampled (z, v) are cut by v's component off the equality rows, or not
    # at all where v lies in their span: each takes a projection into
    # itself, with no near-singular equality stack (which raised
    # EmptyPolyhedron)
    valid = _certificate_cases(np.random.default_rng(0))[0]
    for item in (4, 12, 20, 22):
        g = valid[item]
        for seed in range(3):
            rng = np.random.default_rng(seed)
            Z = sample_domain_points(g, rng, 200)
            V = subdifferential(g, Z, rng.standard_normal(Z.shape))
            for z, v in zip(Z, V):
                for _, K in piece_critical_cones(g, z, v):
                    assert contains(K, project(K, rng.standard_normal(g.m)))


def test_block_prox_agrees_with_its_rows(rng):
    # the four calculus fixtures, the convex functions of `_certificate_cases`
    # and the ELQP and min-max instances of criterion 4: a block of points
    # maps as its rows do one at a time, with no hint, a hint point in dom g,
    # and a block of hints (the answers, then other points of dom g); a
    # non-finite row raises
    from plqsqp.generators import generate
    gs = [g for _, g in _g_fixtures()] + _certificate_cases(rng)[0] \
        + [generate(kind, seed=seed, **params).problem.g
           for kind, params, seed in CRITERION4_INSTANCES if kind != "nlp"]
    for g in gs:
        X = 3.0 * rng.standard_normal((8, g.m))
        expect = np.array([prox(g, x) for x in X])
        away = sample_domain_points(g, rng, len(X), radius=3.0)
        for near in (None, away[0], expect, away):
            hints = [None] * len(X) if near is None else np.broadcast_to(near, X.shape)
            rows = np.array([prox(g, x, near=h) for x, h in zip(X, hints)])
            Z = prox(g, X, near=near)
            assert Z.shape == X.shape
            assert np.all(np.linalg.norm(Z - rows, axis=1)
                          <= 1e-12 * (1.0 + np.linalg.norm(X, axis=1)))
        X[3, -1] = np.nan
        with pytest.raises(DimensionMismatch):
            prox(g, X)


def test_second_quotient_suite(rng, g_abs, g_quad, g_two_piece_2d):
    for g in (g_abs, g_quad, g_two_piece_2d):
        failures, checked, _ = second_quotient_suite(g, rng, n_cases=100)
        assert failures == 0 and checked > 0


def test_outer_lipschitz_of_subdifferential(rng, g_abs, g_two_piece_2d):
    # vertices of subdiff(z), from the oracle's H-representation, stay within
    # ell * |z - zbar| of subdiff(zbar), measured by the projection route
    for g, zbar in ((g_abs, np.zeros(1)), (g_two_piece_2d, np.zeros(2))):
        ell = None
        for radius in (1e-1, 1e-2, 1e-3):
            worst = 0.0
            for _ in range(40):
                z = zbar + radius * rng.standard_normal(g.m)
                if not np.isfinite(evaluate(g, z)):
                    continue
                sub = subdifferential_hrep(g, z)
                pts = vertices(sub) if sub.n_ineq + sub.n_eq >= sub.dim else []
                if not pts:
                    pts = [subdifferential(g, z, rng.standard_normal(g.m))]
                for v in pts:
                    gap = np.linalg.norm(v - subdifferential(g, zbar, v))
                    worst = max(worst, gap / max(np.linalg.norm(z - zbar), 1e-15))
            if ell is None:
                ell = max(worst, 1.0) * 1.5  # estimate once at the largest radius
            else:
                assert worst <= ell


def test_consistency_and_convexity_certificates(g_two_piece_2d):
    ok, _ = check_consistency(g_two_piece_2d)
    assert ok
    ok, _ = check_convexity(g_two_piece_2d)
    assert ok


def test_certificates_reject_bad_functions():
    # discontinuous across the interface: consistency must fail
    bad = PLQFunction(1, [
        Piece(Polyhedron.nonpos(1), np.zeros((1, 1)), [0.0], 0.0),
        Piece(Polyhedron.nonneg(1), np.zeros((1, 1)), [0.0], 1.0),
    ])
    ok, _ = check_consistency(bad)
    assert not ok
    # concave kink: convexity must fail
    nonconvex = PLQFunction(1, [
        Piece(Polyhedron.nonpos(1), np.zeros((1, 1)), [1.0], 0.0),
        Piece(Polyhedron.nonneg(1), np.zeros((1, 1)), [-1.0], 0.0),
    ])
    ok, _ = check_convexity(nonconvex)
    assert not ok


def test_the_facet_normal_is_read_off_a_row_tight_on_the_facet():
    # C_0 = {z1 <= 0, z2 <= z1} meets C_1 = {z1 >= 0, z2 <= 0} in the ray
    # {z1 = 0, z2 <= 0}; at its least-norm point 0 the row z2 - z1 <= 0 of
    # C_0 is active too, but only z1 <= 0 holds on the whole facet, and only
    # it points out of C_0.  g = max(z1, 0) is convex there, -max(z1, 0) is not
    def piece(A, a):
        C = Polyhedron(np.asarray(A, dtype=float), np.zeros(2), np.zeros((0, 2)), np.zeros(0))
        return Piece(C, np.zeros((2, 2)), a, 0.0)

    left = piece([[-1.0, 1.0], [1.0, 0.0]], [0.0, 0.0])
    for slope, convex in ((1.0, True), (-1.0, False)):
        g = PLQFunction(2, [left, piece([[-1.0, 0.0], [0.0, 1.0]], [slope, 0.0])])
        assert check_consistency(g)[0]
        assert check_convexity(g)[0] == convex


def _three_piece_abs():
    """|y_1| on R^2 with three pieces: y_1 <= 0, y_1 >= 0 and {y_1 >= 0,
    y_2 <= 0}, which overlaps the second."""
    def piece(A, a):
        C = Polyhedron(np.asarray(A, dtype=float), np.zeros(len(A)), np.zeros((0, 2)), np.zeros(0))
        return Piece(C, np.zeros((2, 2)), a, 0.0)

    return PLQFunction(2, [piece([[1.0, 0.0]], [-1.0, 0.0]), piece([[-1.0, 0.0]], [1.0, 0.0]),
                           piece([[-1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])])


def _certificate_cases(rng):
    """(valid, broken): convex PLQ functions, and copies of them that are
    inconsistent (one piece's alpha shifted) or nonconvex (one kink's
    slopes swapped)."""
    from plqsqp.generators import _box_dual_cells
    from plqsqp.plq import plq_separable
    valid, broken = [], []
    for trial in range(24):
        k = 1 + trial % 2
        lows = rng.uniform(-1.0, 0.5, size=k)
        beta = rng.uniform(0.0, 1.5) * (trial % 3 > 0)  # beta = 0: piecewise linear cells
        cells = [_box_dual_cells(lo, lo + rng.uniform(0.5, 2.0), beta) for lo in lows]
        g0 = {0: plq_separable(cells), 1: plq_separable(cells),
              2: plq_vector_max(2 + trial % 3), 3: _three_piece_abs()}[trial % 4]
        g = _embedded(rng, g0, n=g0.m + 1 + trial % 2) if trial % 8 >= 4 else g0
        valid.append(g)
        shifted = list(g.pieces)
        shifted[-1] = Piece(shifted[-1].C, shifted[-1].A, shifted[-1].a, shifted[-1].alpha + 0.5)
        broken.append(PLQFunction(g.m, shifted))
        if trial % 4 == 0 and trial % 3 == 0:  # coordinate 0's two linear cells swap slopes
            (lo, hi, quad, left, const), (_, _, _, right, _) = cells[0]
            swapped = [[(lo, hi, quad, right, const), (hi, np.inf, quad, left, const)]]
            g1 = plq_separable(swapped + cells[1:])
            broken.append(_embedded(rng, g1, n=g1.m + 1) if trial % 8 >= 4 else g1)
        if trial % 4 == 2 and trial % 3 == 2:  # min(z_1, z_2): the max's slopes swapped
            g1 = plq_vector_max(2)
            g1 = PLQFunction(2, [Piece(p.C, p.A, q.a, p.alpha)
                                 for p, q in zip(g1.pieces, g1.pieces[::-1])])
            broken.append(_embedded(rng, g1, n=3) if trial % 8 >= 4 else g1)
    return valid, broken


def test_exact_certificates_agree_with_the_sampled_oracles(rng):
    # 24 convex functions: separable dual-box cells, vector maxima and the
    # overlapping three-piece |y_1|, some on a random affine subspace; both
    # routes accept each.  Every broken copy is rejected by the exact route,
    # which is stronger than rejecting the copies the sampler rejects
    from plqsqp.plq import _apart
    valid, broken = _certificate_cases(rng)
    assert len(valid) >= 20 and len(broken) >= 20
    for g in valid:
        assert check_consistency(g)[0] and check_convexity(g)[0]
        # the bounds prune drops only pairs that do not meet
        for i, j in zip(*np.nonzero(np.triu(_apart(g), 1))):
            assert interior_point(intersect(g.pieces[i].C, g.pieces[j].C)) is None
        assert consistency_by_sampling(g, rng)[0] and convexity_by_sampling(g, rng)[0]
    sampled = 0
    for g in broken:
        exact = check_consistency(g)[0] and check_convexity(g)[0]
        assert not exact
        sampled += not (consistency_by_sampling(g, rng)[0] and convexity_by_sampling(g, rng)[0])
    assert sampled >= 20


def _thin_facet():
    """Continuous, each piece convex, and concave across x_1 = 0 where
    x_2 < -0.98: q = x_2^2 on {x_1 <= 0, |x_2| <= 1} and
    q = x_1^2 + x_1 x_2 + 0.98 x_1 + x_2^2 on {x_1 >= 0, |x_2| <= 1}."""
    def piece(sign, A, a):
        C = Polyhedron([[sign, 0.0], [0.0, 1.0], [0.0, -1.0]], [0.0, 1.0, 1.0],
                       np.zeros((0, 2)), np.zeros(0))
        return Piece(C, A, a, 0.0)

    return PLQFunction(2, [piece(1.0, np.diag([0.0, 2.0]), [0.0, 0.0]),
                           piece(-1.0, [[2.0, 1.0], [1.0, 2.0]], [0.98, 0.0])])


def test_a_function_nonconvex_near_one_facet_is_rejected(tmp_path, capsys):
    # the sampled certificates, with the seed the load used to draw for two
    # pieces, accept it; the exact ones refuse it, and so do the load and
    # `plqsqp solve` (exit 3)
    from plqsqp.cli import main
    from plqsqp.kkt import CompositeProblem, Poly2Map
    from plqsqp.probio import load_problem, save_problem
    g = _thin_facet()
    sampler = np.random.default_rng(20242)
    assert consistency_by_sampling(g, sampler)[0] and convexity_by_sampling(g, sampler)[0]
    assert check_consistency(g)[0]
    ok, why = check_convexity(g)
    assert not ok and "pieces 0 and 1" in why
    # midpoint convexity fails across the facet at x_2 = -0.99
    assert g([0.0, -0.99]) > 0.5 * (g([-0.005, -0.99]) + g([0.005, -0.99])) + 1e-6
    problem = CompositeProblem(Poly2Map(np.zeros(1), np.zeros((1, 2)), np.eye(2)[None]),
                               Poly2Map(np.zeros(2), np.eye(2), np.zeros((2, 2, 2))),
                               g, Polyhedron.whole_space(2))
    path = tmp_path / "thin.json"
    save_problem(path, problem)
    with pytest.raises(ValidationError, match="convexity certificate failed"):
        load_problem(path)
    assert main(["solve", "--problem", str(path), "--x0", "0.5,0.5",
                 "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("validation error: convexity certificate failed")


def test_a_union_of_pieces_that_do_not_meet_is_refused(tmp_path):
    # the indicator of {|x| >= 1} as the pieces {x <= -1} and {x >= 1}: each
    # piece and each facet pass, but no two pieces meet, so dom g is not
    # connected and cannot be convex; the certificate and the load refuse it
    from plqsqp.kkt import CompositeProblem, Poly2Map
    from plqsqp.probio import load_problem, save_problem
    def ray(s):  # {s x <= -1}
        return Piece(Polyhedron(np.array([[s]]), [-1.0], np.zeros((0, 1)), []),
                     np.zeros((1, 1)), [0.0], 0.0)

    g = PLQFunction(1, [ray(1.0), ray(-1.0)])
    assert check_consistency(g)[0]
    ok, why = check_convexity(g)
    assert not ok and "not connected" in why
    problem = CompositeProblem(Poly2Map(np.zeros(1), np.zeros((1, 1)), np.eye(1)[None]),
                               Poly2Map(np.zeros(1), np.eye(1), np.zeros((1, 1, 1))),
                               g, Polyhedron.whole_space(1))
    path = tmp_path / "gap.json"
    save_problem(path, problem)
    with pytest.raises(ValidationError, match="convexity certificate failed"):
        load_problem(path)


def test_piece_invariants():
    with pytest.raises(ValidationError, match="A symmetric"):
        Piece(Polyhedron.nonpos(2), np.array([[0.0, 1.0], [0.0, 0.0]]),
              [0.0, 0.0], 0.0)
    with pytest.raises(ValidationError, match="C nonempty"):
        empty = Polyhedron(np.array([[1.0], [-1.0]]), [-1.0, -1.0],
                           np.zeros((0, 1)), [])
        Piece(empty, np.zeros((1, 1)), [0.0], 0.0)
    with pytest.raises(ValidationError):
        Piece(Polyhedron.nonpos(1), np.zeros((2, 2)), [0.0], 0.0)


def test_vector_max(g_abs):
    gmax = plq_vector_max(3)
    assert evaluate(gmax, [1.0, 3.0, 2.0]) == 3.0
    assert active_indices(gmax, [2.0, 2.0, 0.0]) == [0, 1]
    # subdifferential at a two-way tie is the simplex face: its points are
    # their own projections, and a point off it moves onto it
    z = [2.0, 2.0, 0.0]
    for v in ([0.5, 0.5, 0.0], [1.0, 0.0, 0.0]):
        assert np.linalg.norm(subdifferential(gmax, z, v) - v) <= 1e-12
    assert np.allclose(subdifferential(gmax, z, [0.5, 0.4, 0.1]), [0.55, 0.45, 0.0], atol=1e-12)
