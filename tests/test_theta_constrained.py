"""End-to-end coverage for instances with a nontrivial constraint set.

Box-constrained fixture with hand-derived KKT data:

    minimize ½|x - (-1, 1)|^2 + |x1 + x2 - 1|   over x in [0, 2]^2.

The unconstrained pull toward (-1, 1) is clamped by the lower bound, so
xbar = (0, 1) with multiplier 0: grad phi(xbar) = (1, 0), the linearized
argument sits at the kink, and -grad_x L = (-1, 0) is normal to the box
at xbar.  The critical-direction cone is trivial.
"""

import numpy as np

from plqsqp.diagnostics import (
    check_noncritical,
    check_sosc,
    check_unique_multiplier,
    estimate_calmness,
)
from plqsqp.kkt import (
    CompositeProblem,
    Poly2Map,
    PrimalDual,
    cone_D,
    kkt_point,
    kkt_residual,
    multiplier_set,
)
from plqsqp.plq import evaluate, plq_abs
from plqsqp.polyhedral import Polyhedron, contains
from plqsqp.sqp import SQPConfig, run_classification, run_sqp

from conftest import make_p1

XBAR = np.array([0.0, 1.0])
LAMBAR = np.array([0.0])


def box_fixture(phi_quad_extra=0.0):
    """The fixture above; phi_quad_extra bends Phi quadratically in x1
    without moving the KKT pair (the extra term vanishes to first order
    at xbar)."""
    phi = Poly2Map(np.array([1.0]), np.array([[1.0, -1.0]]), np.array([np.eye(2)]))
    Q = np.zeros((1, 2, 2))
    Q[0, 0, 0] = phi_quad_extra
    Phi = Poly2Map(np.array([-1.0]), np.array([[1.0, 1.0]]), Q)
    Theta = Polyhedron.box([0.0, 0.0], [2.0, 2.0])
    return CompositeProblem(phi, Phi, plq_abs(), Theta)


def test_hand_kkt_point_is_exact():
    prob = box_fixture()
    assert kkt_residual(prob, XBAR, LAMBAR) <= 1e-12
    prob_q = box_fixture(phi_quad_extra=0.6)
    assert kkt_residual(prob_q, XBAR, LAMBAR) <= 1e-12


def test_solver_lands_on_the_clamped_solution():
    prob = box_fixture()
    for x0, l0 in ([1.5, 0.5], [0.5]), ([0.2, 1.8], [-0.9]), ([2.0, 2.0], [0.0]):
        trace = run_sqp(prob, x0, l0, SQPConfig())
        assert np.linalg.norm(trace[-1].x - XBAR) <= 1e-9
        assert abs(trace[-1].lam[0]) <= 1e-9
        assert trace[-1].residual <= 1e-10
        # every iterate respects the box
        for rec in trace:
            assert contains(prob.Theta, rec.x, 1e-9)


def test_quadratic_inner_map_takes_multiple_steps_superlinearly():
    prob = box_fixture(phi_quad_extra=0.6)
    ref = PrimalDual(XBAR, LAMBAR)
    trace = run_sqp(prob, [1.5, 0.5], [0.5], SQPConfig(reference=ref))
    assert trace[-1].residual <= 1e-10
    assert len(trace) - 1 >= 2  # the linearization genuinely iterates
    assert run_classification(trace, ref) == "superlinear"


def test_multiplier_set_is_the_origin():
    prob = box_fixture()
    lam_set = multiplier_set(prob, XBAR)
    assert contains(lam_set, [0.0], 1e-9)
    for bad in ([0.5], [-0.5]):
        assert not contains(lam_set, bad, 1e-9)


def test_critical_direction_cone_is_trivial():
    # K_Theta((0,1), (-1,0)) = {0} x R and both kink cones of |.| collapse
    # to {0}, so the pullback forces w = 0
    prob = box_fixture()
    D = cone_D(kkt_point(prob, XBAR, LAMBAR))
    assert D.member_contains([0.0, 0.0])
    for w in ([0.0, 1.0], [0.0, -1.0], [1.0, 0.0]):
        assert not D.member_contains(w)


def test_diagnostics_on_the_box_instance():
    prob = box_fixture()
    assert check_noncritical(prob, XBAR, LAMBAR).result == "holds"
    assert check_unique_multiplier(prob, XBAR, LAMBAR).result == "holds"
    verdict = check_sosc(prob, XBAR, LAMBAR, rng=np.random.default_rng(0))
    assert verdict.result == "heuristic_holds"
    calm = estimate_calmness(prob, XBAR, LAMBAR, radii=[1e-2, 1e-3], n_samples=5,
                             mode="full", rng=np.random.default_rng(0))
    assert calm.result == "heuristic_holds"


def test_start_outside_domain_of_g_is_restored():
    # Phi(x0) outside dom g is allowed; the linearized subproblem restores
    # feasibility in one step on affine data
    p1 = make_p1()
    x0 = np.array([2.0])
    assert not np.isfinite(evaluate(p1.g, p1.Phi.value(x0)))
    trace = run_sqp(p1, x0, [0.0], SQPConfig())
    assert np.allclose(trace[-1].x, [1.0], atol=1e-10)
    assert trace[-1].residual <= 1e-10
