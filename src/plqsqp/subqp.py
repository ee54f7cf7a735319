"""SQP subproblem: exact solution by per-piece convex QP enumeration.

The subproblem at (x_k, lambda_k) linearizes the inner map and keeps g:

    minimize  <grad phi_k, xi - x_k> + ½<H(xi - x_k), xi - x_k>
              + g(Phi(x_k) + J_k (xi - x_k))     over xi in Theta.

Since dom g is the union of the pieces, the subproblem splits into one
QP per piece over (xi, y) with y equal to the linearized argument.  The
dual step is recovered from the y-block multipliers, every candidate is
verified against the subproblem KKT residual, and candidates whose
primal-dual step exceeds the localization radius delta are discarded.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    AllCandidatesOutsideDelta,
    Infeasible,
    NoFeasiblePiece,
    PointOutsideDomain,
    Unbounded,
)
from .kkt import CompositeProblem
from .lp import feasible_point
from .plq import PLQFunction, prox_any
from .polyhedral import contains, normal_cone_dist, normal_cone_generators
from .qp import active_set_qp

SUB_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class SubproblemSpec:
    xk: np.ndarray
    lambdak: np.ndarray
    H: np.ndarray
    problem: CompositeProblem
    delta: float = np.inf

    def __post_init__(self):
        object.__setattr__(self, "xk", np.asarray(self.xk, dtype=float).ravel())
        object.__setattr__(self, "lambdak", np.asarray(self.lambdak, dtype=float).ravel())
        H = np.asarray(self.H, dtype=float)
        H = 0.5 * (H + H.T)
        object.__setattr__(self, "H", H)


@dataclass(frozen=True)
class SubproblemSolution:
    x_next: np.ndarray
    lambda_next: np.ndarray
    piece_index: int
    qp_status: str  # "optimal" | "stationary"
    objective: float
    residual: float  # generalized-equation residual of the subproblem KKT


def subproblem_residual(spec: SubproblemSpec, x, lam) -> float:
    """KKT residual of the subproblem's generalized equation at (x, lam).

    Same prox/normal-cone form as the outer KKT residual, on linearized
    data.  Fast path: when lam is a subgradient at the linearized point,
    the resolvent identity makes y a fixed point of the prox, and the
    prox term is bounded by the subgradient distance (nonexpansiveness),
    so the prox call is skipped.
    """
    problem = spec.problem
    x = np.asarray(x, dtype=float).ravel()
    lam = np.asarray(lam, dtype=float).ravel()
    J = problem.Phi.jacobian(spec.xk)
    gphi = problem.phi.jacobian(spec.xk)[0]
    grad = gphi + spec.H @ (x - spec.xk) + J.T @ lam
    stat = normal_cone_dist(problem.Theta, x, -grad)
    y = problem.Phi.value(spec.xk) + J @ (x - spec.xk)
    comp = None
    if isinstance(problem.g, PLQFunction):
        from .plq import evaluate, subgradient_dist
        if np.isfinite(evaluate(problem.g, y)):
            gap = subgradient_dist(problem.g, y, lam)
            if gap <= 1e-11 * (1.0 + np.linalg.norm(lam)):
                comp = gap
    if comp is None:
        comp = float(np.linalg.norm(y - prox_any(problem.g, lam + y)))
    return stat + comp


def _repair_dual(spec, xi, y, active_pieces):
    """Find lam with the exact subproblem KKT at xi, given the active pieces.

    Linear feasibility over (lam, Theta normal multipliers, per-piece
    normal multipliers); returns None when no such lam exists.
    """
    problem = spec.problem
    n, m = problem.n, problem.m
    J = problem.Phi.jacobian(spec.xk)
    gphi = problem.phi.jacobian(spec.xk)[0]
    base = gphi + spec.H @ (xi - spec.xk)
    GT, LT = normal_cone_generators(problem.Theta, xi)
    blocks = [("theta", GT, LT, None)]
    for j in active_pieces:
        p = problem.g.pieces[j]
        Gj, Lj = normal_cone_generators(p.C, y)
        blocks.append((j, Gj, Lj, p.gradient(y)))
    nvar = m + sum(G.shape[0] + L.shape[0] for _, G, L, _ in blocks)
    Aeq, beq, Aub, bub = [], [], [], []
    col = m
    cols = {}
    for name, G, L, _ in blocks:
        cols[name] = (col, col + G.shape[0], col + G.shape[0] + L.shape[0])
        col = cols[name][2]
    # stationarity: base + J^T lam + GT^T mu + LT^T nu = 0
    row = np.zeros((n, nvar))
    row[:, :m] = J.T
    c0, c1, c2 = cols["theta"]
    if GT.shape[0]:
        row[:, c0:c1] = GT.T
    if LT.shape[0]:
        row[:, c1:c2] = LT.T
    Aeq.append(row)
    beq.append(-base)
    # per piece: lam - grad_j(y) = Gj^T eta + Lj^T zeta
    for name, G, L, grad_j in blocks[1:]:
        c0, c1, c2 = cols[name]
        row = np.zeros((m, nvar))
        row[:, :m] = np.eye(m)
        if G.shape[0]:
            row[:, c0:c1] = -G.T
        if L.shape[0]:
            row[:, c1:c2] = -L.T
        Aeq.append(row)
        beq.append(grad_j)
    # nonnegativity of the conic multipliers
    for name, G, _, _ in blocks:
        c0, c1, _ = cols[name]
        for k in range(c0, c1):
            r = np.zeros(nvar)
            r[k] = -1.0
            Aub.append(r)
            bub.append(0.0)
    sol = feasible_point(np.asarray(Aub).reshape(-1, nvar) if Aub else np.zeros((0, nvar)),
                         np.asarray(bub), np.vstack(Aeq), np.concatenate(beq))
    if sol is None:
        return None
    return sol[:m]


def solve_subproblem(spec: SubproblemSpec) -> list:
    """All localized subproblem KKT solutions, best first.

    One QP per feasible piece; survivors of the delta filter are sorted
    by primal step length, then objective.  Raises NoFeasiblePiece when
    no piece admits a feasible linearized point and
    AllCandidatesOutsideDelta when every candidate violates delta.
    """
    problem = spec.problem
    if not isinstance(problem.g, PLQFunction):
        raise PointOutsideDomain("subproblem solver needs a piece representation of g")
    n = problem.n
    J = problem.Phi.jacobian(spec.xk)
    r = problem.Phi.value(spec.xk) - J @ spec.xk
    gphi = problem.phi.jacobian(spec.xk)[0]
    phival = float(problem.phi.value(spec.xk)[0])
    Theta = problem.Theta

    candidates = []
    feasible_seen = False
    for i, piece in enumerate(problem.g.pieces):
        # constraints over xi: Theta rows plus piece rows composed with y = r + J xi
        A = np.vstack([Theta.A, piece.C.A @ J])
        b = np.concatenate([Theta.b, piece.C.b - (piece.C.A @ r if piece.C.n_ineq else np.zeros(0))])
        E = np.vstack([Theta.E, piece.C.E @ J])
        d = np.concatenate([Theta.d, piece.C.d - (piece.C.E @ r if piece.C.n_eq else np.zeros(0))])
        x_feas = feasible_point(A, b, E, d)
        if x_feas is None:
            continue
        feasible_seen = True
        Q = spec.H + J.T @ piece.A @ J
        c = (gphi - spec.H @ spec.xk) + J.T @ (piece.A @ r + piece.a)
        try:
            res = active_set_qp(Q, c, A, b, E, d, x0=x_feas)
        except (Unbounded, Infeasible):
            continue
        xi = res.x
        y = r + J @ xi
        mu_c = res.mu[Theta.n_ineq:]
        nu_c = res.nu[Theta.n_eq:]
        lam = piece.gradient(y).copy()
        if piece.C.n_ineq:
            lam += piece.C.A.T @ mu_c
        if piece.C.n_eq:
            lam += piece.C.E.T @ nu_c
        # the recovered dual satisfies this piece's condition; when the
        # linearized point sits on several pieces the subgradient test can
        # fail and an exact feasibility LP decides whether any dual works
        from .plq import subgradient_dist
        gap = subgradient_dist(problem.g, y, lam)
        if gap > 1e-11 * (1.0 + np.linalg.norm(lam)):
            active = [j for j, pj in enumerate(problem.g.pieces) if contains(pj.C, y)]
            lam_fix = _repair_dual(spec, xi, y, active)
            if lam_fix is None:
                continue
            lam = lam_fix
        rsub = subproblem_residual(spec, xi, lam)
        if rsub > SUB_RESIDUAL_TOL:
            continue
        step = xi - spec.xk
        objective = (phival + float(gphi @ step) + 0.5 * float(step @ spec.H @ step)
                     + piece.value(y))
        candidates.append(SubproblemSolution(
            x_next=xi, lambda_next=lam, piece_index=i,
            qp_status=res.status, objective=objective, residual=rsub))

    if not candidates:
        raise NoFeasiblePiece(
            "no piece admits a solvable linearized subproblem" if not feasible_seen
            else "all piece subproblems were unbounded or unverifiable")

    survivors = []
    for cand in candidates:
        size = np.sqrt(float(np.linalg.norm(cand.x_next - spec.xk) ** 2
                             + np.linalg.norm(cand.lambda_next - spec.lambdak) ** 2))
        if size <= spec.delta:
            survivors.append(cand)
    if not survivors:
        raise AllCandidatesOutsideDelta(
            f"all {len(candidates)} candidates violate the localization radius {spec.delta:g}")
    survivors.sort(key=lambda s: (float(np.linalg.norm(s.x_next - spec.xk)), s.objective))
    return survivors
