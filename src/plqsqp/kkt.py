"""Composite problem model and KKT-point calculus.

The model is  minimize phi(x) + g(Phi(x))  subject to x in Theta, with
phi and Phi given by exact quadratic data (value = c + <l,x> + ½<Qx,x>
per output), g piecewise linear-quadratic (or its dual-LQ form), and
Theta polyhedral.  Keeping the smooth data quadratic makes every
derivative exact, which matters when measuring convergence rates.

`kkt_point` is the one place where the data at a KKT pair is built: the
residual check, grad_x L, hess_xx L, and on first read the critical cone D,
its subspace enlargement D+ and the lifted system of the multiplier set.
The SQP monitors and every diagnostic read that one point, kept on the
problem for the last pair asked.  The multiplier set Lambda(x) is not
built as a set: `multiplier_set` projects onto it by one QP over the
multipliers of the normal cones (`multiplier_system`), the system that the
subproblem's dual repair decides too.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyPolyhedron,
    NotAKKTPoint,
    PointNotInTheta,
    PointOutsideDomain,
)
from .lp import LPBuilder, affine_frame, feasible_point
from .plq import DualLQ, PLQFunction, active_indices, piece_critical_cones, prox_any
from .polyhedral import (
    ConeFamily,
    PolyCone,
    Polyhedron,
    contains,
    critical_cone,
    normal_cone_dist,
    normal_cone_generators,
    span_basis,
)
from .qp import active_set_qp

KKT_TOL = 1e-6  # loose tolerance used by preconditions that require a KKT point
THETA_TOL = 1e-8  # x in Theta iff every row of Theta holds within THETA_TOL


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


def _smooth_data(problem: CompositeProblem, x):
    """(Phi(x), J(x), grad phi(x)) at a raveled float x, as read-only arrays.

    The last answer is kept on the problem, keyed by x's bytes, so an SQP
    iterate's residual, subproblem and BFGS gradients share one evaluation.
    """
    key = x.tobytes()
    memo = getattr(problem, "_smooth_memo", None)
    if memo is None or memo[0] != key:
        memo = (key, (problem.Phi.value(x), problem.Phi.jacobian(x), problem.phi.jacobian(x)[0]))
        for a in memo[1]:
            a.flags.writeable = False  # shared by every caller at x
        object.__setattr__(problem, "_smooth_memo", memo)
    return memo[1]


def kkt_residual(problem: CompositeProblem, x, lam) -> float:
    """dist(-grad_x L, N_Theta(x)) + ||Phi(x) - prox_g(lam + Phi(x))||.

    Phi(x), J(x) and grad phi(x) come from `_smooth_data`.  The prox visits
    the pieces holding z = Phi(x) first: near a KKT pair the prox point is
    z itself, so the first projection usually answers.
    """
    x = np.asarray(x, dtype=float).ravel()
    lam = np.asarray(lam, dtype=float).ravel()
    if not contains(problem.Theta, x, THETA_TOL):
        raise PointNotInTheta("x must lie in Theta")
    if lam.size != problem.m:
        raise DimensionMismatch("multiplier dimension differs from the range of Phi")
    z, J, gphi = _smooth_data(problem, x)
    stat = normal_cone_dist(problem.Theta, x, -(gphi + J.T @ lam))
    comp = float(np.linalg.norm(z - prox_any(problem.g, lam + z, near=z)))
    return stat + comp


def multiplier_system(problem: CompositeProblem, J, x, grad, z, pieces) -> LPBuilder:
    """The multipliers at x as one linear system in (lam, Theta's normal
    multipliers, each listed piece's normal multipliers), laid out by
    `LPBuilder`: stationarity grad + J^T lam + N_Theta(x) = 0, and for every
    piece j in `pieces`, lam - grad_j(z) in N_{C_j}(z), each normal cone by
    its generators (`normal_cone_generators`), the multipliers of
    inequality rows nonnegative."""
    GT, LT = normal_cone_generators(problem.Theta, x)
    normals = [(j, *normal_cone_generators(problem.g.pieces[j].C, z)) for j in pieces]
    sizes = [("lam", problem.m), ("GT", GT.shape[0]), ("LT", LT.shape[0])]
    for j, G, L in normals:
        sizes += [(f"G{j}", G.shape[0]), (f"L{j}", L.shape[0])]
    lp = LPBuilder(sizes)
    lp.add_eq({"lam": J.T, "GT": GT.T, "LT": LT.T}, -grad)
    for j, G, L in normals:
        lp.add_eq({"lam": np.eye(problem.m), f"G{j}": -G.T, f"L{j}": -L.T},
                  problem.g.pieces[j].gradient(z))
    lp.add_nonneg("GT")
    for j, _, _ in normals:
        lp.add_nonneg(f"G{j}")
    return lp


@dataclass(frozen=True)
class KKTPoint:
    """A KKT pair with the data every consumer reads there, checked once.

    Built by kkt_point only.  The smooth data (residual, grad_x L,
    hess_xx L and the Jacobian J of Phi) is computed up front; the cones,
    D and D+ included, and the lifted multiplier system are computed on
    first read, so consumers that need only the smooth data (and a dual-LQ
    g, which has no pieces) never build them.
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
        return piece_critical_cones(self.problem.g, _smooth_data(self.problem, self.x)[0], self.lam)

    @cached_property
    def D_members(self) -> list:
        """[(i, M_i)]: K_Theta intersected with the pullback of K_i through J."""
        cones = self.piece_cones
        KT, J = self.theta_cone, self.J
        return [(i, PolyCone.from_rows(np.vstack([KT.A, K.A @ J]),
                                       np.vstack([KT.E, K.E @ J]), self.problem.n))
                for i, K in cones]

    @cached_property
    def D(self) -> ConeFamily:
        """The critical cone D (`cone_D`)."""
        return cone_D(self)

    @cached_property
    def Dplus(self) -> ConeFamily:
        """The subspace enlargement D+ of D (`subspace_Dplus`)."""
        return subspace_Dplus(self)

    @cached_property
    def lifted(self) -> tuple:
        """(builder, (A, b, E, d), start): Lambda(x) lifted into the
        multipliers of the normal cones (`multiplier_system` at z = Phi(x),
        over the pieces active there), and its least-norm point
        (`feasible_point`), where every projection onto Lambda(x) starts."""
        if not isinstance(self.problem.g, PLQFunction):
            raise PointOutsideDomain("multiplier sets need a piece representation of g")
        z, _, gphi = _smooth_data(self.problem, self.x)
        lp = multiplier_system(self.problem, self.J, self.x, gphi, z,
                               active_indices(self.problem.g, z))
        system = lp.system()
        start = feasible_point(*system)
        if start is None:
            raise EmptyPolyhedron("the multiplier set is empty")
        return lp, system, start


def kkt_point(problem: CompositeProblem, x, lam) -> KKTPoint:
    """The KKTPoint at (x, lam); raises NotAKKTPoint when the KKT residual
    exceeds KKT_TOL.

    The last answer, the point or the residual that failed, is kept on the
    problem as `_point_memo`, keyed by the bytes of (x, lam), so the SQP
    monitors and the checks at one pair share one point and its cones.
    """
    x = np.array(x, dtype=float).ravel()  # copies: the kept point must not alias the caller's
    lam = np.array(lam, dtype=float).ravel()
    key = (x.tobytes(), lam.tobytes())
    memo = getattr(problem, "_point_memo", None)
    if memo is None or memo[0] != key:
        r = kkt_residual(problem, x, lam)
        if r > KKT_TOL:
            memo = (key, r)
        else:
            _, J, gphi = _smooth_data(problem, x)
            hess = problem.phi.Q[0] + problem.Phi.hessian_weighted(lam)
            memo = (key, KKTPoint(problem, x, lam, r, gphi + J.T @ lam, hess, J))
        object.__setattr__(problem, "_point_memo", memo)
    if not isinstance(memo[1], KKTPoint):
        raise NotAKKTPoint(f"KKT residual {memo[1]:.3e} exceeds {KKT_TOL:.1e}")
    return memo[1]


def multiplier_set(point: KKTPoint, u) -> np.ndarray:
    """The point of Lambda(point.x) nearest u: one `active_set_qp` over the
    lifted system of `KKTPoint.lifted`, with Q = I on the lam block and 0
    elsewhere, started at that system's least-norm point, so the kernel
    runs no feasibility step of its own.  A dual-LQ g raises
    PointOutsideDomain, an empty system EmptyPolyhedron."""
    lp, system, start = point.lifted
    lo, hi = lp.offsets["lam"]
    Q, c = np.zeros((lp.nvar, lp.nvar)), np.zeros(lp.nvar)
    Q[lo:hi, lo:hi] = np.eye(hi - lo)
    c[lo:hi] = -np.asarray(u, dtype=float).ravel()
    return lp.block(active_set_qp(Q, c, *system, x0=start).x, "lam")


def cone_D(point: KKTPoint) -> ConeFamily:
    """The critical-direction cone as a union of polyhedral members.

    Each member pairs the Theta critical cone with the pullback of one
    piece critical cone of g through the Jacobian of Phi; the union does
    not depend on the choice of multiplier.
    """
    return ConeFamily("union", members=tuple(M for _, M in point.D_members))


def subspace_Dplus(point: KKTPoint) -> ConeFamily:
    """The subspace {w in span K_Theta : Jw in span K_g} as a basis family.

    With B_T a basis of span K_Theta and P one of the directions normal to
    every piece span (the null space of the stacked spans S, S = [S_i]),
    D+ is {B_T a : P^T J B_T a = 0}: two `affine_frame`s.
    """
    BT = span_basis(point.theta_cone)
    S = np.hstack([np.zeros((point.problem.m, 0))] + [span_basis(K) for _, K in point.piece_cones])
    _, _, JBP = affine_frame((point.J @ BT).T, S.T)  # (P^T J B_T)^T
    return ConeFamily("subspace", basis=affine_frame(BT, JBP.T)[2])


def perturbed_problem(problem: CompositeProblem, v, p) -> CompositeProblem:
    """Canonical perturbation: objective phi - <v, x>, inner map Phi + p."""
    v = np.asarray(v, dtype=float).ravel()
    p = np.asarray(p, dtype=float).ravel()
    if v.size != problem.n or p.size != problem.m:
        raise DimensionMismatch("perturbation dimensions")
    phi = Poly2Map(problem.phi.c, problem.phi.l - v.reshape(1, -1), problem.phi.Q)
    Phi = Poly2Map(problem.Phi.c + p, problem.Phi.l, problem.Phi.Q)
    return CompositeProblem(phi, Phi, problem.g, problem.Theta)
