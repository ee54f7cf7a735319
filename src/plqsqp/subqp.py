"""SQP subproblem: exact solution by per-piece convex QP enumeration.

The subproblem at (x_k, lambda_k) linearizes the inner map and keeps g:

    minimize  <grad phi_k, xi - x_k> + ½<H(xi - x_k), xi - x_k>
              + g(Phi(x_k) + J_k (xi - x_k))     over xi in Theta.

Since dom g is the union of the pieces, the subproblem splits into one
QP per piece over xi, with the piece rows composed with the linearized
argument y = r + J xi.  `SubproblemSpec` computes the linearization once.
Each candidate is verified in three steps:

1. gap: the dual recovered from the piece's multipliers must be a
   subgradient of g at y (it always satisfies its own piece);
2. repair: when it is not, one feasibility system over all active
   pieces decides whether any dual gives the exact subproblem KKT
   conditions at xi, and the candidate is dropped when none does.  When
   stationarity alone fixes the dual at xi, the recovered dual is the
   only one and the candidate is dropped without that system;
3. residual: the subproblem KKT residual, which reuses the gap of step 1
   (recomputed only after a repair), must be at most SUB_RESIDUAL_TOL.

The pieces holding Phi(x_k) are visited first, then the rest, each group
in index order.  A rejected candidate (dropped by step 2 or above the
bound of step 3) moves the unvisited pieces holding its y to the front,
in index order: they meet there, and the answer is often one of them
(`_normal_dists` lists them with the gap).  A piece's QP first tries its
face in `spec.faces` (the rows it ended on in the last call), else starts
at x_k when x_k is feasible for it, and otherwise at the point of its
constraint set nearest x_k.  The
first verified candidate whose primal-dual step lies within the
localization radius delta is the answer: the SQP method needs one
localized KKT pair, not all of them.  When every verified candidate lies
outside delta, the same pass grows the radius tenfold until it holds one.
When H is positive definite the subproblem is strictly convex, so every
verified candidate has the same xi and the order only decides which of the
pieces meeting at xi is reported.  With an indefinite H the order can pick
another verified pair inside delta; the method allows any.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import Infeasible, NoFeasiblePiece, PointOutsideDomain, Unbounded
from .kkt import CompositeProblem, _smooth_data, multiplier_system
from .lp import affine_frame, feasible_point
from .plq import PLQFunction, _membership, _normal_dists, prox_any, subgradient_dist
from .polyhedral import normal_cone_dist, normal_cone_generators
from .qp import active_set_qp

SUB_RESIDUAL_TOL = 1e-9
DELTA_GROWTH = 10.0  # factor by which a radius holding no candidate grows


@dataclass(frozen=True)
class SubproblemSpec:
    """Subproblem data at (xk, lambdak).

    The linearization at xk is read once, on construction, from
    `kkt._smooth_data` (filled by the SQP residual at xk): J,
    r = Phi(xk) - J xk and gphi = grad phi(xk).  The radius delta must be
    positive, so that solve_subproblem can grow it.
    """

    xk: np.ndarray
    lambdak: np.ndarray
    H: np.ndarray
    problem: CompositeProblem
    delta: float = np.inf
    faces: dict = field(default_factory=dict)  # piece index -> working rows to try first
    J: np.ndarray = field(init=False, repr=False)
    r: np.ndarray = field(init=False, repr=False)
    gphi: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.delta > 0:  # NaN fails too
            raise ValueError("delta must be positive")
        xk = np.asarray(self.xk, dtype=float).ravel()
        object.__setattr__(self, "xk", xk)
        object.__setattr__(self, "lambdak", np.asarray(self.lambdak, dtype=float).ravel())
        H = np.asarray(self.H, dtype=float)
        H = 0.5 * (H + H.T)
        object.__setattr__(self, "H", H)
        z, J, gphi = _smooth_data(self.problem, xk)
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "r", z - J @ xk)
        object.__setattr__(self, "gphi", gphi)


@dataclass(frozen=True)
class SubproblemSolution:
    x_next: np.ndarray
    lambda_next: np.ndarray
    piece_index: int
    residual: float  # generalized-equation residual of the subproblem KKT
    faces: dict  # piece index -> working rows at its answer, for every piece QP of the call


def _gap_passes(gap, lam) -> bool:
    return gap <= 1e-11 * (1.0 + np.linalg.norm(lam))


def _residual(spec, x, y, lam, gap) -> float:
    """Subproblem KKT residual at (x, lam), with y = r + J x and `gap` the
    subgradient distance of lam at y.

    The prox/normal-cone form of the outer KKT residual on the linearized
    data.  When lam is a subgradient at y, the resolvent identity makes y a
    fixed point of the prox, and the prox term is bounded by the
    subgradient distance (nonexpansiveness), so that distance stands in
    for the prox call; otherwise the prox visits the pieces holding y
    first."""
    grad = spec.gphi + spec.H @ (x - spec.xk) + spec.J.T @ lam
    stat = normal_cone_dist(spec.problem.Theta, x, -grad)
    if _gap_passes(gap, lam):
        return stat + gap
    return stat + float(np.linalg.norm(y - prox_any(spec.problem.g, lam + y, near=y)))


def _dual_is_fixed(spec, xi) -> bool:
    """Whether stationarity at xi admits only one dual lam.

    gphi + H (xi - xk) + J^T lam + N_Theta(xi) = 0 fixes lam when J^T has
    rank m and its range meets the span of Theta's active normals G only
    at 0, that is when appending J^T to G adds no direction to the null
    space: dim null [J^T | G] = dim null G (`affine_frame`).
    """
    G = np.vstack(normal_cone_generators(spec.problem.Theta, xi)).T
    JG = np.hstack([spec.J.T, G])
    return affine_frame(JG[:0], JG)[1].shape[1] == affine_frame(G[:0], G)[1].shape[1]


def _repair_dual(spec, xi, y, active_pieces):
    """A dual lam with the exact subproblem KKT conditions at xi, or None.

    Called when the dual recovered from one piece is not a subgradient at
    y, and skipped when `_dual_is_fixed` holds, as no other dual then
    satisfies stationarity.  One feasibility system in (lam, Theta normal
    multipliers, per active piece normal multipliers), `kkt.multiplier_system`
    on the linearized data: stationarity gphi + H (xi - xk) + J^T lam +
    N_Theta(xi) = 0, and for every active piece j, lam - grad_j(y) in
    N_{C_j}(y).
    """
    lp = multiplier_system(spec.problem, spec.J, xi, spec.gphi + spec.H @ (xi - spec.xk), y,
                           active_pieces)
    sol = feasible_point(*lp.system())
    return None if sol is None else lp.block(sol, "lam")


def solve_subproblem(spec: SubproblemSpec) -> SubproblemSolution:
    """The first verified subproblem KKT pair within delta.

    One QP per piece, started at x_k or nearest it: the pieces holding
    Phi(x_k) first, then the rest, each group in index order, but the
    unvisited pieces holding a rejected candidate's y next.  A piece whose
    QP is infeasible is skipped, and one whose QP is unbounded is feasible
    but yields no candidate.  The first candidate that passes the gap,
    repair and residual checks with a primal-dual step of size at most delta
    is returned; with an indefinite H that may be another verified pair than
    index order would return.  When every verified candidate lies outside
    delta, the radius is multiplied by DELTA_GROWTH until it holds the
    smallest step, and the first visited candidate inside it is returned.
    Raises NoFeasiblePiece when no piece yields a verified candidate.
    """
    problem = spec.problem
    if not isinstance(problem.g, PLQFunction):
        raise PointOutsideDomain("subproblem solver needs a piece representation of g")
    J, r, H, xk = spec.J, spec.r, spec.H, spec.xk
    Theta = problem.Theta

    hinted, _ = _membership(problem.g, r + J @ xk)
    queue = sorted(range(len(hinted)), key=lambda i: not hinted[i])  # stable: index order within
    feasible_seen = False
    faces = {}  # shared by the call's solutions, so that each holds every piece QP of it
    outside = []  # (step size, solution) of verified candidates outside delta
    while queue:
        i = queue.pop(0)
        piece = problem.g.pieces[i]
        # constraints over xi: Theta rows plus piece rows composed with y = r + J xi
        A = np.vstack([Theta.A, piece.C.A @ J])
        b = np.concatenate([Theta.b, piece.C.b - (piece.C.A @ r if piece.C.n_ineq else np.zeros(0))])
        E = np.vstack([Theta.E, piece.C.E @ J])
        d = np.concatenate([Theta.d, piece.C.d - (piece.C.E @ r if piece.C.n_eq else np.zeros(0))])
        Q = H + J.T @ piece.A @ J
        c = (spec.gphi - H @ xk) + J.T @ (piece.A @ r + piece.a)
        try:
            res = active_set_qp(Q, c, A, b, E, d, x0=xk, face=spec.faces.get(i))
        except Infeasible:
            continue
        except Unbounded:  # feasible, but without a candidate
            feasible_seen = True
            continue
        feasible_seen = True
        faces[i] = res.work
        xi = res.x
        y = r + J @ xi
        mu_c = res.mu[Theta.n_ineq:]
        nu_c = res.nu[Theta.n_eq:]
        lam = piece.gradient(y).copy()
        if piece.C.n_ineq:
            lam += piece.C.A.T @ mu_c
        if piece.C.n_eq:
            lam += piece.C.E.T @ nu_c
        dists = _normal_dists(problem.g, y, lam)
        holding = [j for j, *_ in dists]  # the pieces holding y, in index order
        gap = max(dist for *_, dist in dists)
        if not _gap_passes(gap, lam):
            lam = None if _dual_is_fixed(spec, xi) else _repair_dual(spec, xi, y, holding)
            if lam is not None:
                gap = subgradient_dist(problem.g, y, lam)
        if lam is None or (rsub := _residual(spec, xi, y, lam, gap)) > SUB_RESIDUAL_TOL:
            # rejected: the unvisited pieces holding y go next
            queue = [j for j in holding if j in queue] + [j for j in queue if j not in holding]
            continue
        sol = SubproblemSolution(x_next=xi, lambda_next=lam, piece_index=i, residual=rsub,
                                 faces=faces)
        size = np.sqrt(float(np.linalg.norm(xi - xk) ** 2
                             + np.linalg.norm(lam - spec.lambdak) ** 2))
        if size > spec.delta:
            outside.append((size, sol))
            continue
        return sol

    if outside:
        radius, smallest = spec.delta, min(size for size, _ in outside)
        while smallest > radius:
            radius *= DELTA_GROWTH
        return next(sol for size, sol in outside if size <= radius)
    raise NoFeasiblePiece(
        "no piece admits a solvable linearized subproblem" if not feasible_seen
        else "all piece subproblems were unbounded or unverifiable")
