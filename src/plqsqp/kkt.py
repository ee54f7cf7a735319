"""Composite problem model and KKT-point calculus.

The model is  minimize phi(x) + g(Phi(x))  subject to x in Theta, with
phi and Phi given by exact quadratic data (value = c + <l,x> + ½<Qx,x>
per output), g piecewise linear-quadratic (or its dual-LQ form), and
Theta polyhedral.  Keeping the smooth data quadratic makes every
derivative exact, which matters when measuring convergence rates.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import null_space

from .errors import (
    DimensionMismatch,
    NotAKKTPoint,
    PointNotInTheta,
    PointOutsideDomain,
)
from .plq import (
    DualLQ,
    PLQFunction,
    dual_lq_subdifferential,
    piece_critical_cones,
    prox_any,
    subdifferential,
    value_any,
)
from .polyhedral import (
    ConeFamily,
    PolyCone,
    Polyhedron,
    contains,
    critical_cone,
    fourier_motzkin,
    intersect,
    normal_cone_dist,
    normal_cone_generators,
    span_basis,
)

KKT_TOL = 1e-6  # loose tolerance used by preconditions that require a KKT point


@dataclass(frozen=True)
class Poly2Map:
    """Quadratic map R^n -> R^k: component j is c_j + <l_j, x> + ½<Q_j x, x>."""

    c: np.ndarray  # (k,)
    l: np.ndarray  # (k, n)
    Q: np.ndarray  # (k, n, n), each symmetric

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        l = np.asarray(self.l, dtype=float)
        if l.ndim == 1:
            l = l.reshape(1, -1)
        Q = np.asarray(self.Q, dtype=float)
        if Q.ndim == 2:
            Q = Q.reshape(1, *Q.shape)
        if Q.size == 0:
            Q = np.zeros((c.size, l.shape[1], l.shape[1]))
        for j in range(Q.shape[0]):
            if np.abs(Q[j] - Q[j].T).max(initial=0.0) > 1e-12:
                raise DimensionMismatch("Q must be symmetric")
        Q = 0.5 * (Q + np.transpose(Q, (0, 2, 1)))
        if not (c.shape[0] == l.shape[0] == Q.shape[0]) or Q.shape[1] != l.shape[1]:
            raise DimensionMismatch("inconsistent quadratic map data")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "Q", Q)

    @property
    def n(self) -> int:
        return self.l.shape[1]

    @property
    def k(self) -> int:
        return self.c.shape[0]

    def value(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).ravel()
        return self.c + self.l @ x + 0.5 * np.einsum("kij,i,j->k", self.Q, x, x)

    def jacobian(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).ravel()
        return self.l + np.einsum("kij,j->ki", self.Q, x)

    def hessian_weighted(self, weights) -> np.ndarray:
        weights = np.asarray(weights, dtype=float).ravel()
        return np.einsum("k,kij->ij", weights, self.Q)

    @staticmethod
    def from_dicts(items, n):
        c = np.array([float(np.asarray(it.get("c", 0.0)).ravel()[0]) for it in items])
        l = np.array([np.asarray(it.get("l", np.zeros(n)), dtype=float).ravel() for it in items])
        Q = np.array([np.asarray(it.get("Q", np.zeros((n, n))), dtype=float).reshape(n, n)
                      for it in items])
        return Poly2Map(c, l, Q)

    def component_dict(self, j):
        return {"c": float(self.c[j]), "l": self.l[j].tolist(),
                "Q": self.Q[j].tolist()}


@dataclass(frozen=True)
class CompositeProblem:
    phi: Poly2Map  # n -> 1
    Phi: Poly2Map  # n -> m
    g: object  # PLQFunction or DualLQ
    Theta: Polyhedron

    def __post_init__(self):
        if self.phi.k != 1:
            raise DimensionMismatch("phi must be scalar valued")
        if self.phi.n != self.Phi.n or self.Theta.dim != self.phi.n:
            raise DimensionMismatch("x-space dimensions disagree")
        gm = self.g.m if isinstance(self.g, (PLQFunction, DualLQ)) else None
        if gm != self.Phi.k:
            raise DimensionMismatch("g dimension differs from the range of Phi")

    @property
    def n(self) -> int:
        return self.phi.n

    @property
    def m(self) -> int:
        return self.Phi.k

    def objective(self, x) -> float:
        return float(self.phi.value(x)[0]) + value_any(self.g, self.Phi.value(x))

    def to_dict(self):
        g = self.g.to_dict()
        return {
            "phi": self.phi.component_dict(0),
            "Phi": [self.Phi.component_dict(j) for j in range(self.m)],
            "g": g,
            "Theta": self.Theta.to_dict(),
        }

    @staticmethod
    def from_dict(obj):
        phi_d = obj["phi"]
        n = len(np.asarray(phi_d.get("l", [])).ravel())
        if n == 0:
            n = len(np.asarray(obj["phi"].get("Q", [[0.0]])))
        phi = Poly2Map.from_dicts([phi_d], n)
        Phi = Poly2Map.from_dicts(obj["Phi"], n)
        gd = obj["g"]
        g = DualLQ.from_dict(gd) if "Omega" in gd else PLQFunction.from_dict(gd)
        Theta = Polyhedron.from_dict(obj["Theta"], n=n)
        return CompositeProblem(phi, Phi, g, Theta)


@dataclass(frozen=True)
class PrimalDual:
    x: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float).ravel()
        lam = np.asarray(self.lam, dtype=float).ravel()
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(lam))):
            raise DimensionMismatch("primal-dual pair must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "lam", lam)


# ---------------------------------------------------------------------------
# Lagrangian calculus
# ---------------------------------------------------------------------------

def lagrangian(problem: CompositeProblem, x, lam):
    """(L, grad_x L, hess_xx L) with L(x, lam) = phi(x) + <Phi(x), lam>."""
    x = np.asarray(x, dtype=float).ravel()
    lam = np.asarray(lam, dtype=float).ravel()
    if x.size != problem.n or lam.size != problem.m:
        raise DimensionMismatch("lagrangian argument dimensions")
    value = float(problem.phi.value(x)[0]) + float(problem.Phi.value(x) @ lam)
    grad = problem.phi.jacobian(x)[0] + problem.Phi.jacobian(x).T @ lam
    hess = problem.phi.Q[0] + problem.Phi.hessian_weighted(lam)
    return value, grad, hess


def kkt_residual(problem: CompositeProblem, x, lam, theta_tol: float = 1e-8) -> float:
    """dist(-grad_x L, N_Theta(x)) + ||Phi(x) - prox_g(lam + Phi(x))||."""
    x = np.asarray(x, dtype=float).ravel()
    lam = np.asarray(lam, dtype=float).ravel()
    if not contains(problem.Theta, x, theta_tol):
        raise PointNotInTheta("x must lie in Theta")
    _, grad, _ = lagrangian(problem, x, lam)
    stat = normal_cone_dist(problem.Theta, x, -grad)
    z = problem.Phi.value(x)
    comp = float(np.linalg.norm(z - prox_any(problem.g, lam + z)))
    return stat + comp


def multiplier_set(problem: CompositeProblem, x) -> Polyhedron:
    """Lambda(x) as an H-representation in lambda-space.

    The stationarity part {lam : -grad phi - J^T lam in N_Theta(x)} is
    produced by eliminating the Theta normal-cone multipliers; it is then
    intersected with the subdifferential of g at Phi(x).
    """
    x = np.asarray(x, dtype=float).ravel()
    if not contains(problem.Theta, x, 1e-8):
        raise PointOutsideDomain("x must lie in Theta")
    z = problem.Phi.value(x)
    if isinstance(problem.g, PLQFunction):
        if not np.isfinite(value_any(problem.g, z)):
            raise PointOutsideDomain("Phi(x) outside dom g")
        sub = subdifferential(problem.g, z)
    else:
        sub = dual_lq_subdifferential(problem.g, z)
    m = problem.m
    J = problem.Phi.jacobian(x)
    G, L = normal_cone_generators(problem.Theta, x)
    k, j = G.shape[0], L.shape[0]
    # variables (lam, mu, nu): J^T lam + G^T mu + L^T nu = -grad phi, mu >= 0
    E = np.hstack([J.T, G.T, L.T])
    d = -problem.phi.jacobian(x)[0]
    A = np.hstack([np.zeros((k, m)), -np.eye(k), np.zeros((k, j))])
    b = np.zeros(k)
    stat = fourier_motzkin(A, b, E, d, keep=list(range(m)))
    return intersect(stat, sub)


@dataclass(frozen=True)
class KKTPoint:
    """A KKT pair with the data every consumer reads there, checked once.

    Built by kkt_point.  The smooth data (residual, grad_x L, hess_xx L
    and the Jacobian J of Phi) is computed up front; the cones are
    computed on first use, so consumers that need only the smooth data
    (and a dual-LQ g, which has no pieces) never build them.
    """

    problem: CompositeProblem
    x: np.ndarray
    lam: np.ndarray
    residual: float
    grad: np.ndarray
    hess: np.ndarray
    J: np.ndarray

    @cached_property
    def theta_cone(self) -> PolyCone:
        """K_Theta(x, -grad_x L)."""
        return critical_cone(self.problem.Theta, self.x, -self.grad)

    @cached_property
    def piece_cones(self) -> list:
        """[(i, K_i)]: the critical cones of the pieces of g active at Phi(x)."""
        if not isinstance(self.problem.g, PLQFunction):
            raise PointOutsideDomain("critical cones need a piece representation of g")
        return piece_critical_cones(self.problem.g, self.problem.Phi.value(self.x), self.lam)

    @cached_property
    def D_members(self) -> list:
        """[(i, M_i)]: K_Theta intersected with the pullback of K_i through J."""
        cones = self.piece_cones
        KT, J = self.theta_cone, self.J
        return [(i, PolyCone.from_rows(np.vstack([KT.A, K.A @ J]),
                                       np.vstack([KT.E, K.E @ J]), self.problem.n))
                for i, K in cones]


def kkt_point(problem: CompositeProblem, x, lam, tol: float = KKT_TOL) -> KKTPoint:
    """Check the KKT residual at (x, lam) once and gather the data there.

    Raises NotAKKTPoint when the residual exceeds tol.
    """
    x = np.asarray(x, dtype=float).ravel()
    lam = np.asarray(lam, dtype=float).ravel()
    r = kkt_residual(problem, x, lam)
    if r > tol:
        raise NotAKKTPoint(f"KKT residual {r:.3e} exceeds {tol:.1e}")
    _, grad, hess = lagrangian(problem, x, lam)
    return KKTPoint(problem, x, lam, r, grad, hess, problem.Phi.jacobian(x))


def cone_D(point: KKTPoint) -> ConeFamily:
    """The critical-direction cone as a union of polyhedral members.

    Each member pairs the Theta critical cone with the pullback of one
    piece critical cone of g through the Jacobian of Phi; the union does
    not depend on the choice of multiplier.
    """
    return ConeFamily("union", members=tuple(M for _, M in point.D_members))


def subspace_Dplus(point: KKTPoint) -> ConeFamily:
    """The subspace {w in span K_Theta : Jw in span K_g} as a basis family."""
    problem = point.problem
    n, m = problem.n, problem.m
    spans = [span_basis(K) for _, K in point.piece_cones]
    BT = span_basis(point.theta_cone)
    stacked = np.hstack([np.zeros((m, 0))] + spans)
    Bg = np.linalg.qr(stacked)[0][:, : np.linalg.matrix_rank(stacked)] if stacked.shape[1] \
        else stacked
    M = np.vstack([np.eye(n) - BT @ BT.T, (np.eye(m) - Bg @ Bg.T) @ point.J])
    N = null_space(M)
    basis = N if N.size else np.zeros((n, 0))
    return ConeFamily("subspace", basis=basis)


def perturbed_problem(problem: CompositeProblem, v, p) -> CompositeProblem:
    """Canonical perturbation: objective phi - <v, x>, inner map Phi + p."""
    v = np.asarray(v, dtype=float).ravel()
    p = np.asarray(p, dtype=float).ravel()
    if v.size != problem.n or p.size != problem.m:
        raise DimensionMismatch("perturbation dimensions")
    phi = Poly2Map(problem.phi.c, problem.phi.l - v.reshape(1, -1), problem.phi.Q)
    Phi = Poly2Map(problem.Phi.c + p, problem.Phi.l, problem.Phi.Q)
    return CompositeProblem(phi, Phi, problem.g, problem.Theta)
