"""Independent brute-force oracles shared by the unit and acceptance tests.

These deliberately avoid the production code paths they check: the
noncriticality oracle scans a grid of directions and decides each one
with the eliminated proto-derivative H-representation, not with the
activity-pattern systems used by the diagnostics module; the pattern
oracle decides those systems for every pattern of the product, not by
the pruned walk; and the uniqueness oracle bounds the multiplier
polyhedron coordinate by coordinate, not with the dual cone condition.
The load certificates of a piecewise g are sampled here, at projected
points and midpoints, not decided on the piece table.  Subdifferentials
and multiplier sets are built here as H-representations, each normal cone
by Fourier-Motzkin elimination of its generators, the oracles of the
projection routes `plq.subdifferential` and `kkt.multiplier_set`.  The
enumerations, residuals and the Lagrangian below serve only as test
references, so they live here rather than in the package.
"""

import itertools

import numpy as np
from scipy.linalg import null_space

from plqsqp import diagnostics
from plqsqp.errors import (
    DimensionMismatch,
    PointOutsideDomain,
    SolverFailure,
    TooManyRows,
    Unbounded,
)
from plqsqp.kkt import THETA_TOL, _smooth_data, kkt_point
from plqsqp.lp import FEAS_TOL, LP_OPTIMAL, affine_frame, feasible_point, solve_lp
from plqsqp.nonneg import nonneg_lstsq
from plqsqp.qp import active_set_qp
from plqsqp.plq import (
    PLQFunction,
    active_indices,
    evaluate,
    piece_critical_cones,
    prox,
    sample_domain_point,
)
from plqsqp.polyhedral import (
    PolyCone,
    Polyhedron,
    _as_matrix,
    _forced_active,
    contains,
    critical_cone,
    enumerate_faces,
    fourier_motzkin,
    interior_point,
    lineality_basis,
    normal_cone_dist,
    normal_cone_generators,
    project,
    prune_redundant,
)


def intersect(P: Polyhedron, Q: Polyhedron) -> Polyhedron:
    """P ∩ Q, their rows stacked in order."""
    if P.dim != Q.dim:
        raise DimensionMismatch("intersection dimension mismatch")
    return Polyhedron(np.vstack([P.A, Q.A]), np.concatenate([P.b, Q.b]),
                      np.vstack([P.E, Q.E]), np.concatenate([P.d, Q.d]))


def generated_cone_hrep(G, L, n=None) -> Polyhedron:
    """H-representation of {G^T mu + L^T nu : mu >= 0} by eliminating (mu, nu)
    (`polyhedral.fourier_motzkin`).

    G rows generate the conic part, L rows the lineality part.
    """
    G = np.asarray(G, dtype=float)
    L = np.asarray(L, dtype=float)
    if n is None:
        n = G.shape[1] if G.size else L.shape[1]
    G = _as_matrix(G, n)
    L = _as_matrix(L, n)
    k, j = G.shape[0], L.shape[0]
    # variables y = (v, mu, nu) in R^{n+k+j}: v - G^T mu - L^T nu = 0, -mu <= 0
    E = np.hstack([np.eye(n), -G.T, -L.T])
    d = np.zeros(n)
    A = np.hstack([np.zeros((k, n)), -np.eye(k), np.zeros((k, j))])
    b = np.zeros(k)
    return fourier_motzkin(A, b, E, d, keep=list(range(n)))


def _shifted(cone: Polyhedron, shift) -> Polyhedron:
    """shift + cone."""
    return Polyhedron(cone.A, cone.b + cone.A @ shift, cone.E, cone.d + cone.E @ shift)


def subdifferential_hrep(g, z) -> Polyhedron:
    """H-representation of the subdifferential of g at z.

    A piecewise g intersects the shifted normal cones A_i z + a_i +
    N_{C_i}(z) of its active pieces, each eliminated from its generators,
    and prunes redundant rows (`polyhedral.prune_redundant`).  A dual-LQ g
    gives the argmax face of its dual QP (`active_set_qp`); raises
    PointOutsideDomain where the supremum is +inf."""
    z = np.asarray(z, dtype=float).ravel()
    if not isinstance(g, PLQFunction):
        try:
            u = active_set_qp(g.B, -z, g.Omega.A, g.Omega.b, g.Omega.E, g.Omega.d).x
        except Unbounded as exc:
            raise PointOutsideDomain("supremum is +inf at z") from exc
        grad = z - g.B @ u  # linear part of the objective on the solution set
        return Polyhedron(g.Omega.A, g.Omega.b, np.vstack([g.Omega.E, g.B, grad.reshape(1, -1)]),
                          np.concatenate([g.Omega.d, g.B @ u, [float(grad @ u)]]))
    result = Polyhedron.whole_space(g.m)
    for i in active_indices(g, z):
        cone = generated_cone_hrep(*normal_cone_generators(g.pieces[i].C, z), n=g.m)
        result = intersect(result, _shifted(cone, g.pieces[i].gradient(z)))
    if result.n_ineq > 2:
        result = Polyhedron(*prune_redundant(result.A, result.b, result.E, result.d),
                            result.E, result.d)
    return result


def multiplier_set_hrep(problem, x) -> Polyhedron:
    """H-representation of Lambda(x) in lambda-space: `subdifferential_hrep`
    at Phi(x) cut by the preimage of N_Theta(x), eliminated from its
    generators, under lam -> -grad phi - J^T lam."""
    x = np.asarray(x, dtype=float).ravel()
    if not contains(problem.Theta, x, THETA_TOL):
        raise PointOutsideDomain("x must lie in Theta")
    z, J, gphi = _smooth_data(problem, x)
    if isinstance(problem.g, PLQFunction) and not np.isfinite(evaluate(problem.g, z)):
        raise PointOutsideDomain("Phi(x) outside dom g")
    N = generated_cone_hrep(*normal_cone_generators(problem.Theta, x), n=problem.n)
    return intersect(Polyhedron(-N.A @ J.T, N.b + N.A @ gphi, -N.E @ J.T, N.d + N.E @ gphi),
                     subdifferential_hrep(problem.g, z))


def lagrangian(problem, x, lam):
    """(L, grad_x L, hess_xx L) with L(x, lam) = phi(x) + <Phi(x), lam>,
    evaluated from the maps directly, not through `kkt._smooth_data`."""
    x = np.asarray(x, dtype=float).ravel()
    lam = np.asarray(lam, dtype=float).ravel()
    if x.size != problem.n or lam.size != problem.m:
        raise DimensionMismatch("lagrangian argument dimensions")
    value = float(problem.phi.value(x)[0]) + float(problem.Phi.value(x) @ lam)
    grad = problem.phi.jacobian(x)[0] + problem.Phi.jacobian(x).T @ lam
    hess = problem.phi.Q[0] + problem.Phi.hessian_weighted(lam)
    return value, grad, hess


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


def faces_by_subsets(cone: PolyCone) -> set:
    """Forced-active keys of all 2^r inequality-row subsets: every face once."""
    r = cone.n_ineq
    return {_forced_active(cone, frozenset(subset))
            for size in range(r + 1) for subset in itertools.combinations(range(r), size)}


def faces_by_closure_walk(cone: PolyCone) -> list:
    """Forced-active keys of the faces, in the order of `enumerate_faces`:
    the same walk over the face lattice with one closure per (face, row) pair
    and no shortcut for simplicial cones."""
    walk = [_forced_active(cone, frozenset())]
    seen = set(walk)
    for key in walk:
        for j in range(cone.n_ineq):
            if j not in key:
                child = _forced_active(cone, key | {j})
                if child not in seen:
                    seen.add(child)
                    walk.append(child)
    return walk


def rays_by_subsets(cone: PolyCone) -> list:
    """Extreme rays modulo the lineality space, by null spaces of all row subsets.

    A subset whose null space (with the equality rows) is one dimension
    above the lineality space spans a ray when one of its two unit
    directions orthogonal to the lineality space lies in the cone.
    """
    L = lineality_basis(cone)
    rays = []
    for size in range(cone.n_ineq + 1):
        for subset in itertools.combinations(range(cone.n_ineq), size):
            S = np.vstack([cone.E, cone.A[list(subset)]])
            N = null_space(S) if S.size else np.eye(cone.dim)
            if N.shape[1] != L.shape[1] + 1:
                continue
            Nperp = N - L @ (L.T @ N)
            u = Nperp[:, int(np.argmax(np.linalg.norm(Nperp, axis=0)))]
            u = u / np.linalg.norm(u)
            for s in (u, -u):
                if contains(cone, s, 1e-9) and not any(
                        np.linalg.norm(s - q) <= 1e-8 for q in rays):
                    rays.append(s)
    return rays


def min_form_by_subsets(cone: PolyCone, Q):
    """(minimum, unit minimizer) of w^T Q w over the cone's unit directions.

    Every eigenvector v of Q restricted to null([E; A_S]), for every subset
    S of the inequality rows, is a candidate when v or -v lies in the cone.
    For a generic Q the minimizer is one of them: it is the least
    eigenvector on the span of the face whose relative interior holds it.
    (inf, None) when the cone is {0}.
    """
    best, best_w = np.inf, None
    for size in range(cone.n_ineq + 1):
        for subset in itertools.combinations(range(cone.n_ineq), size):
            S = np.vstack([cone.E, cone.A[list(subset)]])
            N = null_space(S) if S.size else np.eye(cone.dim)
            if N.shape[1] == 0:
                continue
            _, vecs = np.linalg.eigh(N.T @ Q @ N)
            for v in (N @ vecs).T:
                for s in (v, -v):
                    val = float(s @ Q @ s)
                    if val < best and contains(cone, s, 1e-9):
                        best, best_w = val, s
    return best, best_w


def nonzero_block_by_coordinates(lp, name):
    """A solution of an `LPBuilder`'s homogeneous rows with t > 0 (block "t")
    and block `name` nonzero, or None, by up to 2 LPs per block coordinate.

    For each coordinate j and sign sigma, maximize t subject to the rows,
    sigma * x_j >= t and t <= 1.  The system is homogeneous, so the optimum
    is 0 or 1; the first solution reaching 1 is returned.
    """
    A_ub, b_ub, A_eq, b_eq = lp.system()
    lo, hi = lp.offsets[name]
    t = lp.offsets["t"][0]
    c, cap = np.zeros(lp.nvar), np.zeros(lp.nvar)
    c[t], cap[t] = -1.0, 1.0
    for j in range(lo, hi):
        for sigma in (1.0, -1.0):
            bound = np.zeros(lp.nvar)
            bound[j], bound[t] = -sigma, 1.0
            status, x, val = solve_lp(c, np.vstack([A_ub, bound, cap]),
                                      np.concatenate([b_ub, [0.0, 1.0]]), A_eq, b_eq)
            if status == LP_OPTIMAL and -val >= 0.5:
                return x
    return None


def prox_all_pieces(g, x) -> np.ndarray:
    """prox_g(x) as the least-value point over every piece QP.

    Every piece runs its QP min ½<(A_i + I)z, z> + <a_i - x, z> over C_i,
    with no bound pruning and no early return.
    """
    x = np.asarray(x, dtype=float).ravel()
    best, best_val = None, np.inf
    for p in g.pieces:
        z = active_set_qp(p.A + np.eye(g.m), p.a - x, p.C.A, p.C.b, p.C.E, p.C.d).x
        val = p.value(z) + 0.5 * float((x - z) @ (x - z))
        if val < best_val:
            best, best_val = z, val
    return best


def consistency_by_sampling(g, rng):
    """(ok, why): whether overlapping pieces agree at sampled points of their
    intersection, max(2, 50 // pieces) projections per meeting pair, each
    to 1e-9 (1 + |value|): the sampled counterpart of `plq.check_consistency`."""
    for i in range(len(g.pieces)):
        for j in range(i + 1, len(g.pieces)):
            both = intersect(g.pieces[i].C, g.pieces[j].C)
            z0 = interior_point(both)
            if z0 is None:
                continue
            for _ in range(max(2, 50 // len(g.pieces))):
                z = project(both, z0 + rng.standard_normal(g.m))
                vi, vj = g.pieces[i].value(z), g.pieces[j].value(z)
                if abs(vi - vj) > 1e-9 * (1 + abs(vi)):
                    return False, f"pieces {i} and {j} disagree at {z.tolist()}"
    return True, ""


def convexity_by_sampling(g, rng):
    """(ok, why): midpoint convexity over 100 sampled pairs of domain points,
    midpoints outside dom g skipped: the sampled counterpart of
    `plq.check_convexity`."""
    for _ in range(100):
        z1, z2 = sample_domain_point(g, rng), sample_domain_point(g, rng)
        t = float(rng.uniform(0.1, 0.9))
        fm = evaluate(g, t * z1 + (1 - t) * z2)
        if not np.isfinite(fm):
            continue
        bound = t * evaluate(g, z1) + (1 - t) * evaluate(g, z2)
        if fm > bound + 1e-9 * (1 + abs(bound)):
            return False, f"convexity violated at t={t}"
    return True, ""


def normal_cone_dist_by_stacked_nnls(P, J, v):
    """dist(v, N_P(x)) at an x of P whose active rows are J, by one verified
    NNLS on [A_Jᵀ, Eᵀ, -Eᵀ]: each free equality multiplier split into its
    positive and negative parts, the form `polyhedral.normal_cone_dist_at_rows`
    solved before it moved to P's equality frame."""
    return nonneg_lstsq(np.hstack([P.A[J].T, P.E.T, -P.E.T]), v)[1]


def subgradient_dist_by_pieces(g, z, v):
    """(max dist(v - A_i z - a_i, N_{C_i}(z)), [i]) over the pieces i whose
    `contains` holds at z, each piece tested and measured on its own by
    `polyhedral.normal_cone_dist`, with no stacked rows."""
    holding = [i for i, p in enumerate(g.pieces) if contains(p.C, z)]
    if not holding:
        raise PointOutsideDomain("z lies outside dom g")
    return max(normal_cone_dist(g.pieces[i].C, z, v - g.pieces[i].gradient(z))
               for i in holding), holding


def proto_derivative_set(g, z, v, w) -> Polyhedron:
    """H-representation of D(dg)(z, v)(w); empty system when w is not critical."""
    w = np.asarray(w, dtype=float).ravel()
    cones = piece_critical_cones(g, z, v)
    holding = [(i, K) for i, K in cones if contains(K, w, 1e-8)]
    if not holding:
        raise PointOutsideDomain("w outside the critical cone of g")
    result = Polyhedron.whole_space(g.m)
    for i, K in holding:
        cone = generated_cone_hrep(*normal_cone_generators(K, w), n=g.m)
        result = intersect(result, _shifted(cone, g.pieces[i].A @ w))
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
    except PointOutsideDomain:  # y outside the critical cone of g: no u at all
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


def noncritical_by_patterns(problem, xbar, lambdabar):
    """(noncritical, certificate or None) by deciding every complete pattern.

    The product of the choices, with no pruning: each nonempty subset S of
    the active pieces, a face of K_Theta, a face of each critical cone in S
    and one violated row of every other piece's cone.  Each pattern is
    decided by `diagnostics._solve_pattern` with no choice left open; the
    first solution is the certificate.
    """
    point = kkt_point(problem, xbar, lambdabar)
    cones = dict(point.piece_cones)
    face_opts = {i: [sorted(f.active) for f in enumerate_faces(K)] for i, K in cones.items()}
    JT_opts = [sorted(f.active) for f in enumerate_faces(point.theta_cone)]
    for size in range(1, len(cones) + 1):
        for S in itertools.combinations(cones, size):
            options = [JT_opts, *(face_opts[i] for i in S),
                       *(diagnostics._exclusion_choices(i, cones[i]) for i in cones if i not in S)]
            for JT, *choice in itertools.product(*options):
                w = diagnostics._solve_pattern(point, JT, dict(zip(S, choice)), choice[len(S):])
                if w is not None:
                    return False, w
    return True, None


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


def unique_multiplier_by_coordinates(problem, x, lam) -> bool:
    """Whether Lambda(x) is the single point lam: min and max of each
    coordinate over `multiplier_set_hrep` by LP, each equal to lam_j to 1e-7
    relative."""
    lam = np.asarray(lam, dtype=float).ravel()
    Lam = multiplier_set_hrep(problem, x)
    for j in range(problem.m):
        for sign in (1.0, -1.0):
            status, _, val = solve_lp(sign * np.eye(problem.m)[j],
                                      A_ub=Lam.A if Lam.n_ineq else None,
                                      b_ub=Lam.b if Lam.n_ineq else None,
                                      A_eq=Lam.E if Lam.n_eq else None,
                                      b_eq=Lam.d if Lam.n_eq else None)
            if status != LP_OPTIMAL or abs(sign * val - lam[j]) > 1e-7 * (1 + abs(lam[j])):
                return False
    return True


def phase_one_empty(A, b, E, d) -> bool:
    """Whether {A x <= b, E x = d} is empty, by one HiGHS phase 1 on the
    violations s: minimize sum s subject to A x - s <= b, s >= 0 and
    E x = d, with a positive optimum (relative to the data) or no x with
    E x = d meaning empty."""
    p, n = A.shape
    status, sol, total = solve_lp(np.r_[np.zeros(n), np.ones(p)],
                                  np.block([[A, -np.eye(p)], [np.zeros((p, n)), -np.eye(p)]]),
                                  np.r_[b, np.zeros(p)], np.hstack([E, np.zeros((len(E), p))]), d)
    if status != LP_OPTIMAL:
        return True
    return total > 1e-9 * (1.0 + float(np.abs(np.r_[b, d]).max(initial=0.0)))


def nearest_point_by_nnls(A, b, E, d, z):
    """The point of {A x <= b, E x = d} nearest z, or None when the set is
    empty, by the route `lp.nearest_point` took before its face
    certificate: x0 = z - E⁺(E z - d), one verified NNLS on
    [-(A N)ᵀ; hᵀ/||h||] for the active rows J whenever x0 violates a row of
    h = A x0 - b, then the nearest point of {A_J x = b_J, E x = d} by
    `np.linalg.lstsq`.  A point is returned only when every row holds to
    FEAS_TOL (1 + |r| + |M|(|x| + |z|)); emptiness needs a Farkas vector
    or a row constant on E x = d that x0 misses; rows constant on
    E x = d that mislead the NNLS are dropped; else SolverFailure."""
    pinv, N, AN = affine_frame(A, E)

    def holds(M, r, x, gap):
        excess = gap(M @ x - r)
        return not len(M) or excess.max() <= FEAS_TOL or bool(np.all(excess <= FEAS_TOL * (
            1.0 + np.abs(r) + np.abs(M) @ (np.abs(x) + np.abs(z)))))

    x0 = z - pinv @ (E @ z - d)
    if not holds(E, d, x0, np.abs):
        return None
    h = A @ x0 - b
    if not np.any(h > 0.0):
        return x0
    u, _ = nonneg_lstsq(np.vstack([-AN.T, h / np.linalg.norm(h)]), np.eye(AN.shape[1] + 1)[-1])
    C = np.vstack([A[u > 0.0], E])
    x = z - np.linalg.lstsq(C, C @ z - np.concatenate([b[u > 0.0], d]), rcond=None)[0]
    if holds(A, b, x, lambda r: r) and holds(E, d, x, np.abs):
        return x
    tol = FEAS_TOL * (1.0 + np.abs(b) + np.abs(A) @ (np.abs(x0) + np.abs(z)))
    farkas = np.linalg.norm(AN.T @ u) <= FEAS_TOL * np.linalg.norm(AN) * np.linalg.norm(u)
    flat = np.linalg.norm(AN, axis=1) <= FEAS_TOL * np.linalg.norm(A, axis=1)
    if farkas and u @ tol < h @ u or np.any(flat & (h > tol)):
        return None
    if np.any(flat & (h > 0.0)):
        return nearest_point_by_nnls(A[~flat], b[~flat], E, d, z)
    raise SolverFailure("nearest point oracle: no face point or Farkas vector verifies")


def implicit_equalities_by_lp(M, rows):
    """The implicit rows among `rows` of {y : M y <= 0} and a point y there, by
    the LP of Freund, Roundy & Todd (1985): max sum s_k <= 1, M y <= 0 >= M[k] y + s_k."""
    p, n, r = M.shape[0], M.shape[1], len(rows)
    A_ub = np.vstack([np.hstack([M, np.zeros((p, r))]),
                      np.hstack([M[rows], np.eye(r)]),
                      np.hstack([np.zeros((r, n)), np.eye(r)])])
    b_ub = np.concatenate([np.zeros(p + r), np.ones(r)])
    status, sol, _ = solve_lp(np.concatenate([np.zeros(n), -np.ones(r)]), A_ub, b_ub)
    assert status == LP_OPTIMAL, status
    return [k for k, s in zip(rows, sol[n:]) if s < 0.5], sol[:n]


def prune_redundant_by_lp(A, b, E, d):
    """The rows of {A x <= b, E x = d} that `polyhedral.prune_redundant` keeps,
    by one HiGHS LP per row: row i goes when max a_i x over the kept others
    is finite and at most b_i + 1e-9 (1 + |b_i|).  Returns the kept indices."""
    keep = list(range(A.shape[0]))
    i = 0
    while i < len(keep):
        others = [k for k in keep if k != keep[i]]
        status, _, val = solve_lp(-A[keep[i]], A[others], b[others], E, d)
        if status == LP_OPTIMAL and -val <= b[keep[i]] + 1e-9 * (1.0 + abs(b[keep[i]])):
            keep.pop(i)
        else:
            i += 1
    return keep


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


def subproblem_residual(spec, x, lam) -> float:
    """Prox form of the SQP subproblem's KKT residual at (x, lam).

    ||x - P_Theta(x - grad)|| + ||y - prox_g(lam + y)||, with y = r + J x
    and grad the gradient of the subproblem Lagrangian on the linearized
    data of `spec`.  Both terms vanish exactly at the subproblem's KKT
    pairs.  The solver's own residual measures stationarity by a
    normal-cone distance and replaces the prox term by a subgradient
    distance; this one takes neither.
    """
    x = np.asarray(x, dtype=float).ravel()
    lam = np.asarray(lam, dtype=float).ravel()
    y = spec.r + spec.J @ x
    grad = spec.gphi + spec.H @ (x - spec.xk) + spec.J.T @ lam
    stat = np.linalg.norm(x - project(spec.problem.Theta, x - grad))
    comp = np.linalg.norm(y - prox(spec.problem.g, lam + y))
    return float(stat + comp)
