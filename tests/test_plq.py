import numpy as np
import pytest

from plqsqp.errors import NotASubgradient, PointOutsideDomain, ValidationError
from plqsqp.plq import (
    DualLQ,
    Piece,
    PLQFunction,
    active_indices,
    check_consistency,
    check_convexity,
    critical_cone_g,
    dual_lq_eval_prox,
    dual_lq_subdifferential,
    evaluate,
    plq_vector_max,
    prox,
    proto_derivative_contains,
    second_subderivative,
    subderivative,
    subdifferential,
)
from plqsqp.polyhedral import Polyhedron, contains, project
from plqsqp.properties import (
    prox_resolvent_suite,
    second_quotient_suite,
    subdifferential_duality_suite,
)

from oracles import vertices


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
    # hand oracle: the intersection of v + 1 in R_+ and v - 1 in R_- is [-1, 1]
    sub = subdifferential(g_abs, [0.0])
    for v, expect in [(-1.0, True), (1.0, True), (0.0, True),
                      (1.0 + 1e-6, False), (-1.1, False)]:
        assert contains(sub, [v], 1e-9) == expect


def test_subdifferential_smooth_points(g_abs, g_quad):
    sub = subdifferential(g_abs, [2.0])
    assert contains(sub, [1.0]) and not contains(sub, [0.99])
    sub = subdifferential(g_quad, [3.0])
    assert contains(sub, [3.0]) and not contains(sub, [3.01])


def test_subderivative_examples(g_abs, g_ind_nonpos, g_quad):
    assert subderivative(g_abs, [0.0], [-2.0]) == 2.0
    assert subderivative(g_ind_nonpos, [0.0], [1.0]) == np.inf
    assert subderivative(g_quad, [1.0], [4.0]) == 4.0


# -- critical cones ----------------------------------------------------------

def test_critical_cone_abs_boundary_subgradient(g_abs):
    # hand: piece R_- gives T cap [2]-perp = {0}; piece R_+ gives R_+
    F = critical_cone_g(g_abs, [0.0], [1.0])
    assert len(F.members) == 2
    left, right = F.members
    assert contains(left, [0.0]) and not contains(left, [-1e-3])
    assert contains(right, [3.0]) and not contains(right, [-1e-3])
    assert F.member_contains([2.0]) and not F.member_contains([-0.1])


def test_critical_cone_abs_interior_subgradient(g_abs):
    # v = 0.5 interior: both members collapse to {0}
    F = critical_cone_g(g_abs, [0.0], [0.5])
    for member in F.members:
        assert contains(member, [0.0]) and not contains(member, [1e-3])


def test_critical_cone_quadratic(g_quad):
    F = critical_cone_g(g_quad, [1.0], [1.0])
    assert F.member_contains([123.0]) and F.member_contains([-5.0])
    with pytest.raises(NotASubgradient):
        critical_cone_g(g_quad, [1.0], [2.0])


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


# -- prox ----------------------------------------------------------------------

def test_prox_examples(g_abs, g_ind_nonpos, g_quad):
    assert np.allclose(prox(g_abs, [2.0]), [1.0])
    assert np.allclose(prox(g_ind_nonpos, [0.7]), [0.0])
    assert np.allclose(prox(g_quad, [3.0]), [1.5])


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


def test_dual_lq_subdifferential_is_argmax():
    h = DualLQ(Polyhedron.box([0.0], [1.0]), [[1.0]])
    sub = dual_lq_subdifferential(h, [0.5])  # argmax over [0,1] of .5u - u^2/2
    assert contains(sub, [0.5], 1e-9) and not contains(sub, [0.6], 1e-9)


# -- invariants ------------------------------------------------------------------

def test_duality_suite(rng, g_abs, g_two_piece_2d):
    for g in (g_abs, g_two_piece_2d):
        failures, checked, _ = subdifferential_duality_suite(g, rng, n_cases=50)
        assert failures == 0 and checked > 0


def test_second_quotient_suite(rng, g_abs, g_quad, g_two_piece_2d):
    for g in (g_abs, g_quad, g_two_piece_2d):
        failures, checked, _ = second_quotient_suite(g, rng, n_cases=100)
        assert failures == 0 and checked > 0


def test_outer_lipschitz_of_subdifferential(rng, g_abs, g_two_piece_2d):
    # vertices of subdiff(z) stay within ell * |z - zbar| of subdiff(zbar)
    for g, zbar in ((g_abs, np.zeros(1)), (g_two_piece_2d, np.zeros(2))):
        base = subdifferential(g, zbar)
        ell = None
        for radius in (1e-1, 1e-2, 1e-3):
            worst = 0.0
            for _ in range(40):
                z = zbar + radius * rng.standard_normal(g.m)
                if not np.isfinite(evaluate(g, z)):
                    continue
                sub = subdifferential(g, z)
                pts = vertices(sub) if sub.n_ineq + sub.n_eq >= sub.dim else []
                if not pts:
                    pts = [project(sub, rng.standard_normal(g.m))]
                for v in pts:
                    gap = np.linalg.norm(v - project(base, v))
                    worst = max(worst, gap / max(np.linalg.norm(z - zbar), 1e-15))
            if ell is None:
                ell = max(worst, 1.0) * 1.5  # estimate once at the largest radius
            else:
                assert worst <= ell


def test_consistency_and_convexity_certificates(rng, g_two_piece_2d):
    ok, _ = check_consistency(g_two_piece_2d, rng)
    assert ok
    ok, _ = check_convexity(g_two_piece_2d, rng)
    assert ok


def test_certificates_reject_bad_functions(rng):
    # discontinuous across the interface: consistency must fail
    bad = PLQFunction(1, [
        Piece(Polyhedron.nonpos(1), np.zeros((1, 1)), [0.0], 0.0),
        Piece(Polyhedron.nonneg(1), np.zeros((1, 1)), [0.0], 1.0),
    ])
    ok, _ = check_consistency(bad, rng)
    assert not ok
    # concave kink: convexity must fail
    nonconvex = PLQFunction(1, [
        Piece(Polyhedron.nonpos(1), np.zeros((1, 1)), [1.0], 0.0),
        Piece(Polyhedron.nonneg(1), np.zeros((1, 1)), [-1.0], 0.0),
    ])
    ok, _ = check_convexity(nonconvex, rng)
    assert not ok


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
    # subdifferential at a two-way tie is the simplex face
    sub = subdifferential(gmax, [2.0, 2.0, 0.0])
    assert contains(sub, [0.5, 0.5, 0.0], 1e-8)
    assert contains(sub, [1.0, 0.0, 0.0], 1e-8)
    assert not contains(sub, [0.5, 0.4, 0.1], 1e-8)
