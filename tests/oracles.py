"""Independent brute-force oracles shared by the unit and acceptance tests.

These deliberately avoid the production code paths they check: the
noncriticality oracle scans a grid of directions and decides each one
with the eliminated proto-derivative H-representation, not with the
activity-pattern LPs used by the diagnostics module.  The enumerations
and residuals below serve only as test references, so they live here
rather than in the package.
"""

import itertools

import numpy as np

from plqsqp.errors import PointOutsideDomain, TooManyRows
from plqsqp.kkt import lagrangian
from plqsqp.lp import feasible_point
from plqsqp.plq import piece_critical_cones
from plqsqp.polyhedral import (
    PolyCone,
    Polyhedron,
    contains,
    critical_cone,
    generated_cone_hrep,
    intersect,
    normal_cone_generators,
)


def vertices(P: Polyhedron, cap: int = 20) -> list:
    """Vertices of a (bounded or not) polyhedron by basis enumeration."""
    n = P.dim
    rows = np.vstack([P.A, P.E])
    rhs = np.concatenate([P.b, P.d])
    m = rows.shape[0]
    if m < n:
        return []
    if m > cap:
        raise TooManyRows(f"vertex enumeration over {m} rows exceeds cap {cap}")
    out = []
    for subset in itertools.combinations(range(m), n):
        M = rows[list(subset)]
        if abs(np.linalg.det(M)) <= 1e-10:
            continue
        x = np.linalg.solve(M, rhs[list(subset)])
        if contains(P, x, 1e-8) and not any(np.linalg.norm(x - y) <= 1e-8 for y in out):
            out.append(x)
    return out


def face_cone(face) -> PolyCone:
    """The face of a PolyCone as a cone: its active rows become equalities."""
    idx = sorted(face.active)
    R = np.delete(face.parent.A, idx, axis=0) if idx else face.parent.A
    S = np.vstack([face.parent.E, face.parent.A[idx]]) if idx else face.parent.E
    return PolyCone.from_rows(R, S, face.parent.dim)


def proto_derivative_set(g, z, v, w) -> Polyhedron:
    """H-representation of D(dg)(z, v)(w); empty system when w is not critical."""
    w = np.asarray(w, dtype=float).ravel()
    cones = piece_critical_cones(g, z, v)
    holding = [(i, K) for i, K in cones if contains(K, w, 1e-8)]
    if not holding:
        raise PointOutsideDomain("w outside the critical cone of g")
    result = None
    for i, K in holding:
        G, L = normal_cone_generators(K, w)
        cone = generated_cone_hrep(G, L, n=g.m)
        shift = g.pieces[i].A @ w
        member = Polyhedron(cone.A, cone.b + (cone.A @ shift if cone.n_ineq else np.zeros(0)),
                            cone.E, cone.d + (cone.E @ shift if cone.n_eq else np.zeros(0)))
        result = member if result is None else intersect(result, member)
    return result




def criticality_feasible_at(problem, xbar, lambdabar, w):
    """Exact fixed-w feasibility of the criticality system."""
    xbar = np.asarray(xbar, dtype=float).ravel()
    lambdabar = np.asarray(lambdabar, dtype=float).ravel()
    w = np.asarray(w, dtype=float).ravel()
    _, grad, hess = lagrangian(problem, xbar, lambdabar)
    KT = critical_cone(problem.Theta, xbar, -grad)
    if not contains(KT, w, 1e-9):
        return False
    J = problem.Phi.jacobian(xbar)
    y = J @ w
    try:
        uset = proto_derivative_set(problem.g, problem.Phi.value(xbar), lambdabar, y)
    except Exception:
        return False
    G, L = normal_cone_generators(KT, w)
    m, n = problem.m, problem.n
    nvar = m + G.shape[0] + L.shape[0]
    Aeq = [np.hstack([J.T, G.T if G.size else np.zeros((n, 0)),
                      L.T if L.size else np.zeros((n, 0))])]
    beq = [-hess @ w]
    if uset.n_eq:
        Aeq.append(np.hstack([uset.E, np.zeros((uset.n_eq, nvar - m))]))
        beq.append(uset.d)
    Aub, bub = [], []
    if uset.n_ineq:
        Aub.append(np.hstack([uset.A, np.zeros((uset.n_ineq, nvar - m))]))
        bub.append(uset.b)
    for k in range(G.shape[0]):
        row = np.zeros(nvar)
        row[m + k] = -1.0
        Aub.append(row.reshape(1, -1))
        bub.append(np.zeros(1))
    sol = feasible_point(np.vstack(Aub) if Aub else np.zeros((0, nvar)),
                         np.concatenate(bub) if bub else np.zeros(0),
                         np.vstack(Aeq), np.concatenate(beq))
    return sol is not None


def grid_noncritical_oracle(problem, xbar, lambdabar, grid=None):
    """Brute-force scan of the max-norm unit shell for critical directions."""
    n = problem.n
    if grid is None:
        grid = np.arange(-1.0, 1.0 + 1e-9, 1e-2)
    if n == 1:
        shell = [np.array([1.0]), np.array([-1.0])]
    else:
        shell = []
        for i in range(n):
            for s in (-1.0, 1.0):
                for vals in np.ndindex(*(len(grid),) * (n - 1)):
                    w = np.empty(n)
                    w[i] = s
                    w[[j for j in range(n) if j != i]] = [grid[v] for v in vals]
                    shell.append(w)
    for w in shell:
        if criticality_feasible_at(problem, xbar, lambdabar, w):
            return False
    return True


def qp_kkt_residual(Q, c, A, b, E, d, res) -> float:
    """Stationarity + feasibility + complementarity residual of a QPResult."""
    Q = np.asarray(Q, dtype=float)
    c = np.asarray(c, dtype=float).ravel()
    n = c.size
    A = np.asarray(A, dtype=float).reshape(-1, n) if A is not None else np.zeros((0, n))
    b = np.asarray(b, dtype=float).ravel() if b is not None else np.zeros(0)
    E = np.asarray(E, dtype=float).reshape(-1, n) if E is not None else np.zeros((0, n))
    d = np.asarray(d, dtype=float).ravel() if d is not None else np.zeros(0)
    x, mu, nu = res.x, res.mu, res.nu
    r = np.linalg.norm(Q @ x + c + (A.T @ mu if A.size else 0.0) + (E.T @ nu if E.size else 0.0))
    if A.size:
        viol = np.maximum(A @ x - b, 0.0)
        r += float(np.linalg.norm(viol)) + abs(float(mu @ (b - A @ x)))
    if E.size:
        r += float(np.linalg.norm(E @ x - d))
    return float(r)
