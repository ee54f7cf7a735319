import numpy as np
import pytest

from plqsqp import kkt, plq, qp, subqp
from plqsqp.kkt import CompositeProblem, Poly2Map
from plqsqp.plq import (
    DualLQ,
    Piece,
    PLQFunction,
    plq_abs,
    plq_indicator,
    plq_quadratic,
)
from plqsqp.polyhedral import Polyhedron


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def qp_calls(monkeypatch):
    """A list that grows by one on every active_set_qp call in the package."""
    calls = []
    kernel = qp.active_set_qp

    def spy(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    for module in (plq, subqp):
        monkeypatch.setattr(module, "active_set_qp", spy)
    return calls


@pytest.fixture
def point_builds(monkeypatch):
    """A list that grows by one on every KKT point built: each `kkt_point`
    memo miss evaluates its residual once, and nothing else in `kkt`
    evaluates one (run_sqp and the CLI call their own imported name)."""
    built = []
    residual = kkt.kkt_residual

    def spy(*args, **kwargs):
        built.append(args)
        return residual(*args, **kwargs)

    monkeypatch.setattr(kkt, "kkt_residual", spy)
    return built


@pytest.fixture
def g_abs():
    return plq_abs()


@pytest.fixture
def g_ind_nonpos():
    return plq_indicator(Polyhedron.nonpos(1))


@pytest.fixture
def g_quad():
    return plq_quadratic([[1.0]])


@pytest.fixture
def g_two_piece_2d():
    """Convex 2-D PLQ with two pieces meeting along z1 = 0.

    g(z) = -z1 + z2^2/2 on {z1 <= 0} and z1^2 - z1 + z2^2/2 on {z1 >= 0};
    values and slopes match on the interface, curvature jumps.
    """
    left = Piece(Polyhedron.nonpos(2).from_dict(
        {"A": [[1.0, 0.0]], "b": [0.0], "E": [], "d": []}, n=2),
        np.diag([0.0, 1.0]), [-1.0, 0.0], 0.0)
    right = Piece(Polyhedron.from_dict(
        {"A": [[-1.0, 0.0]], "b": [0.0], "E": [], "d": []}, n=2),
        np.diag([2.0, 1.0]), [-1.0, 0.0], 0.0)
    return PLQFunction(2, [left, right])


def make_p1():
    """phi = (x-2)^2/2, Phi = x - 1, g = indicator(z <= 0), Theta = R.

    KKT point (1, 1); the unique multiplier is 1 and the critical
    direction cone is trivial.
    """
    phi = Poly2Map(np.array([2.0]), np.array([[-2.0]]), np.array([[[1.0]]]))
    Phi = Poly2Map(np.array([-1.0]), np.array([[1.0]]), np.array([[[0.0]]]))
    return CompositeProblem(phi, Phi, plq_indicator(Polyhedron.nonpos(1)),
                            Polyhedron.whole_space(1))


def make_p2():
    """phi = x^2, Phi = x^2, g = indicator({0}), Theta = R.

    Degenerate: Lambda(0) is all of R and lambda = -1 is critical.
    """
    phi = Poly2Map(np.zeros(1), np.zeros((1, 1)), np.array([[[2.0]]]))
    Phi = Poly2Map(np.zeros(1), np.zeros((1, 1)), np.array([[[2.0]]]))
    return CompositeProblem(phi, Phi, plq_indicator(Polyhedron.point([0.0])),
                            Polyhedron.whole_space(1))


def make_degenerate_range():
    """phi = x^2/2 - x, Phi = (x, x), g = indicator(R_-^2), Theta = R.

    At xbar = 0 the multiplier set is the segment {lam >= 0, lam1+lam2=1}
    (nonunique), yet every multiplier in its relative interior is
    noncritical; exercises the D vs D_+ distinction.
    """
    phi = Poly2Map(np.zeros(1), np.array([[-1.0]]), np.array([[[1.0]]]))
    Phi = Poly2Map(np.zeros(2), np.array([[1.0], [1.0]]), np.zeros((2, 1, 1)))
    return CompositeProblem(phi, Phi, plq_indicator(Polyhedron.nonpos(2)),
                            Polyhedron.whole_space(1))


def make_dual_lq():
    """phi = x^2/2 - x/2, Phi = x + 1/2, g = sup_{u in [0,1]} zu - u^2/2, Theta = R.

    g is given only by its dual representation (no pieces); KKT point
    (0, 1/2), where g'(1/2) = 1/2.
    """
    phi = Poly2Map(np.zeros(1), np.array([[-0.5]]), np.array([[[1.0]]]))
    Phi = Poly2Map(np.array([0.5]), np.array([[1.0]]), np.zeros((1, 1, 1)))
    return CompositeProblem(phi, Phi, DualLQ(Polyhedron.box([0.0], [1.0]), [[1.0]]),
                            Polyhedron.whole_space(1))


@pytest.fixture
def p1():
    return make_p1()


@pytest.fixture
def p2():
    return make_p2()


@pytest.fixture
def degenerate_range():
    return make_degenerate_range()
