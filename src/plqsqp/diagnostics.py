"""Structural condition checks at KKT points.

Noncriticality and multiplier uniqueness are decided exactly: both
reduce, after enumerating activity patterns of the critical cones, to
homogeneous LPs whose optimum is 0 or 1, so a single threshold separates
the verdicts.  The second-order sufficient condition is verified
heuristically (copositivity over polyhedral cones is hard in general):
exact eigenvalue tests on lineality spaces, exact sign tests on extreme
rays, and multistart projected gradient in between.  Calmness and the
primal estimates are sampled empirically by solving perturbed KKT
systems.  Failure certificates are always exact vectors.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import EmptyPolyhedron, PLQError, TooManyRows
from .kkt import (
    CompositeProblem,
    cone_D,
    kkt_point,
    multiplier_set,
    perturbed_problem,
    subspace_Dplus,
)
from .lp import LP_OPTIMAL, solve_lp
from .plq import (
    PLQFunction,
    evaluate,
    piece_critical_cones,
    subgradient_dist,
)
from .polyhedral import (
    contains,
    cone_rays,
    lineality_basis,
    normal_cone_dist,
    project,
    project_cone_union,
    span_basis,
)
from .sqp import SQPConfig, run_sqp

MAX_PATTERN_LPS = 40000


@dataclass(frozen=True)
class Verdict:
    condition: str
    result: str  # holds | fails | heuristic_holds | heuristic_fails
    certificate: object = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.result in ("holds", "heuristic_holds")


# ---------------------------------------------------------------------------
# noncriticality (exact)
# ---------------------------------------------------------------------------

class _LPBuilder:
    """Accumulates a sparse-ish dense LP: max t over homogeneous rows + cap."""

    def __init__(self, sizes):
        self.offsets = {}
        off = 0
        for name, size in sizes:
            self.offsets[name] = (off, off + size)
            off += size
        self.nvar = off
        self.eq_rows, self.eq_rhs = [], []
        self.ub_rows, self.ub_rhs = [], []

    def row(self, parts):
        r = np.zeros(self.nvar)
        for name, block in parts.items():
            lo, hi = self.offsets[name]
            r[lo:hi] = block
        return r

    def add_eq(self, parts, rhs=0.0):
        self.eq_rows.append(self.row(parts))
        self.eq_rhs.append(rhs)

    def add_ub(self, parts, rhs=0.0):
        self.ub_rows.append(self.row(parts))
        self.ub_rhs.append(rhs)

    def add_nonneg(self, name):
        """Every coordinate of block `name` is nonnegative."""
        lo, hi = self.offsets[name]
        for k in range(hi - lo):
            e = np.zeros(hi - lo)
            e[k] = -1.0
            self.add_ub({name: e})

    def maximize_t(self):
        lo, _ = self.offsets["t"]
        c = np.zeros(self.nvar)
        c[lo] = -1.0
        status, x, val = solve_lp(
            c,
            A_ub=np.asarray(self.ub_rows) if self.ub_rows else None,
            b_ub=np.asarray(self.ub_rhs) if self.ub_rhs else None,
            A_eq=np.asarray(self.eq_rows) if self.eq_rows else None,
            b_eq=np.asarray(self.eq_rhs) if self.eq_rhs else None,
        )
        if status != LP_OPTIMAL:
            return 0.0, None
        return -val, x

    def block(self, x, name):
        lo, hi = self.offsets[name]
        return x[lo:hi]


def _exclusion_choices(K):
    """Ways to force y outside cone K: one violated row per choice."""
    out = []
    for r in range(K.n_ineq):
        out.append(("ineq", r, +1.0))
    for r in range(K.n_eq):
        out.append(("eq", r, +1.0))
        out.append(("eq", r, -1.0))
    return out


def _solve_pattern(problem, hess, J, KT, cones_by_piece, Amats, S_set, JT, faces,
                   exclusions, obj):
    n, m = hess.shape[0], J.shape[0]
    sizes = [("w", n), ("u", m), ("t", 1), ("mu", len(JT)), ("nu", KT.n_eq)]
    for i in S_set:
        sizes.append((f"eta{i}", len(faces[i])))
        sizes.append((f"zeta{i}", cones_by_piece[i].n_eq))
    lp = _LPBuilder(sizes)
    RT, ST = KT.A, KT.E
    for r in JT:
        lp.add_eq({"w": RT[r]})
    for r in range(KT.n_ineq):
        if r not in JT:
            lp.add_ub({"w": RT[r]})
    for r in range(ST.shape[0]):
        lp.add_eq({"w": ST[r]})
    for row in range(n):
        parts = {"w": hess[row], "u": J[:, row]}
        if JT:
            parts["mu"] = RT[list(JT)][:, row]
        if ST.shape[0]:
            parts["nu"] = ST[:, row]
        lp.add_eq(parts)
    for i in S_set:
        K = cones_by_piece[i]
        Ri, Si, Ai = K.A, K.E, Amats[i]
        Ji = faces[i]
        for r in Ji:
            lp.add_eq({"w": Ri[r] @ J})
        for r in range(K.n_ineq):
            if r not in Ji:
                lp.add_ub({"w": Ri[r] @ J})
        for r in range(Si.shape[0]):
            lp.add_eq({"w": Si[r] @ J})
        # u - A_i J w = Ri[Ji]^T eta + Si^T zeta
        for row in range(m):
            parts = {"u": np.eye(m)[row], "w": -(Ai @ J)[row]}
            if Ji:
                parts[f"eta{i}"] = -Ri[list(Ji)][:, row]
            if Si.shape[0]:
                parts[f"zeta{i}"] = -Si[:, row]
            lp.add_eq(parts)
        lp.add_nonneg(f"eta{i}")
    lp.add_nonneg("mu")
    # exclusions: sigma * (row . J w) >= t for each excluded piece
    for (i, kind, r, sigma) in exclusions:
        K = cones_by_piece[i]
        row = K.A[r] if kind == "ineq" else K.E[r]
        lp.add_ub({"w": -sigma * (row @ J), "t": np.array([1.0])})
    # objective coordinate: sigma * w_j >= t ; cap t <= 1
    j, sigma = obj
    e = np.zeros(n)
    e[j] = -sigma
    lp.add_ub({"w": e, "t": np.array([1.0])})
    lp.add_ub({"t": np.array([1.0])}, rhs=1.0)
    tstar, x = lp.maximize_t()
    if x is None or tstar < 0.5:
        return None
    w = lp.block(x, "w")
    u = lp.block(x, "u")
    return w, u


def check_noncritical(problem: CompositeProblem, xbar, lambdabar,
                      tol: float = 1e-6) -> Verdict:
    """Exact noncriticality decision by activity-pattern enumeration.

    The criticality system is a finite union of polyhedral cones in
    (w, u); each pattern fixes the active face of every participating
    critical cone and one violated row per excluded piece, making the
    system linear.  A homogeneous LP maximizing a certified lower bound
    t on |w_j| then has optimum exactly 0 or 1, so any optimum above 0.5
    yields an exact nonzero certificate.
    """
    point = kkt_point(problem, xbar, lambdabar, tol)
    cones = point.piece_cones
    hess, J, KT = point.hess, point.J, point.theta_cone
    n = hess.shape[0]
    pieces = [i for i, _ in cones]
    cones_by_piece = {i: K for i, K in cones}
    Amats = {i: problem.g.pieces[i].A for i in pieces}
    always_in = [i for i in pieces
                 if cones_by_piece[i].n_ineq == 0 and cones_by_piece[i].n_eq == 0]

    # enumerate patterns, counting LPs against the cap
    patterns = []
    for size in range(1, len(pieces) + 1):
        for S_set in itertools.combinations(pieces, size):
            if any(i in always_in and i not in S_set for i in pieces):
                continue
            excluded = [i for i in pieces if i not in S_set]
            excl_opts = [[(i, *choice) for choice in _exclusion_choices(cones_by_piece[i])]
                         for i in excluded]
            if any(not opts for opts in excl_opts):
                continue
            face_opts = []
            for i in S_set:
                K = cones_by_piece[i]
                face_opts.append([tuple(sorted(f))
                                  for sz in range(K.n_ineq + 1)
                                  for f in itertools.combinations(range(K.n_ineq), sz)])
            JT_opts = [tuple(sorted(f))
                       for sz in range(KT.n_ineq + 1)
                       for f in itertools.combinations(range(KT.n_ineq), sz)]
            for JT in JT_opts:
                for face_combo in itertools.product(*face_opts):
                    faces = {i: list(face_combo[k]) for k, i in enumerate(S_set)}
                    for excl_combo in itertools.product(*excl_opts) if excl_opts else [()]:
                        patterns.append((S_set, list(JT), faces, list(excl_combo)))
    total = len(patterns) * 2 * n
    if total > MAX_PATTERN_LPS:
        raise TooManyRows(f"{total} pattern LPs exceed the cap {MAX_PATTERN_LPS}")

    for (S_set, JT, faces, exclusions) in patterns:
        for j in range(n):
            for sigma in (1.0, -1.0):
                found = _solve_pattern(problem, hess, J, KT, cones_by_piece, Amats,
                                       S_set, JT, faces, exclusions, (j, sigma))
                if found is None:
                    continue
                w, u = found
                w = w / np.abs(w).max()
                return Verdict("noncritical", "fails", certificate=w,
                               detail=f"critical direction found (pieces {list(S_set)})")
    return Verdict("noncritical", "holds",
                   detail=f"all {len(patterns)} activity patterns force w = 0")


# ---------------------------------------------------------------------------
# multiplier uniqueness (exact, two agreeing routes)
# ---------------------------------------------------------------------------

def _dual_condition_nonzero(point):
    """A nonzero u with -J^T u in K_Theta^* and u in K_g^*, or None."""
    problem = point.problem
    cones = point.piece_cones
    KT, J = point.theta_cone, point.J
    m = problem.m
    sizes = [("u", m), ("t", 1), ("muT", KT.n_ineq), ("nuT", KT.n_eq)]
    for i, K in cones:
        sizes.append((f"eta{i}", K.n_ineq))
        sizes.append((f"zeta{i}", K.n_eq))
    for j in range(m):
        for sigma in (1.0, -1.0):
            lp = _LPBuilder(sizes)
            # -J^T u = KT.A^T muT + KT.E^T nuT, muT >= 0
            for row in range(problem.n):
                parts = {"u": -J[:, row]}
                if KT.n_ineq:
                    parts["muT"] = -KT.A[:, row]
                if KT.n_eq:
                    parts["nuT"] = -KT.E[:, row]
                lp.add_eq(parts)
            lp.add_nonneg("muT")
            # u in K_g^* = intersection of the piece polars
            for i, K in cones:
                for row in range(m):
                    parts = {"u": np.eye(m)[row]}
                    if K.n_ineq:
                        parts[f"eta{i}"] = -K.A[:, row]
                    if K.n_eq:
                        parts[f"zeta{i}"] = -K.E[:, row]
                    lp.add_eq(parts)
                lp.add_nonneg(f"eta{i}")
            e = np.zeros(m)
            e[j] = -sigma
            lp.add_ub({"u": e, "t": np.array([1.0])})
            lp.add_ub({"t": np.array([1.0])}, rhs=1.0)
            tstar, x = lp.maximize_t()
            if x is not None and tstar >= 0.5:
                u = lp.block(x, "u")
                return u / np.abs(u).max()
    return None


def check_unique_multiplier(problem: CompositeProblem, xbar, lambdabar,
                            tol: float = 1e-6) -> Verdict:
    """Exact uniqueness of the multiplier, decided by two independent routes.

    Geometric route: coordinate LPs bound the multiplier polyhedron; it
    is a singleton iff every coordinate has equal min and max.  Dual
    route: existence of a nonzero u in K_g^* with -J^T u in K_Theta^*.
    The routes must agree.
    """
    point = kkt_point(problem, xbar, lambdabar, tol)
    u = _dual_condition_nonzero(point)
    lambdabar = point.lam
    Lam = multiplier_set(problem, point.x)
    geometric_unique = True
    witness = None
    for j in range(problem.m):
        e = np.zeros(problem.m)
        e[j] = 1.0
        for sign in (1.0, -1.0):
            status, lam_opt, val = solve_lp(sign * e, A_ub=Lam.A if Lam.n_ineq else None,
                                            b_ub=Lam.b if Lam.n_ineq else None,
                                            A_eq=Lam.E if Lam.n_eq else None,
                                            b_eq=Lam.d if Lam.n_eq else None)
            if status != LP_OPTIMAL or abs(sign * val - lambdabar[j]) > 1e-7 * (1 + abs(lambdabar[j])):
                geometric_unique = False
                witness = lam_opt
                break
        if not geometric_unique:
            break
    dual_unique = u is None
    if geometric_unique != dual_unique:
        raise PLQError(
            f"uniqueness routes disagree: geometric={geometric_unique}, dual={dual_unique}")
    if geometric_unique:
        return Verdict("unique_multiplier", "holds",
                       detail="multiplier polyhedron is the single point; dual condition agrees")
    return Verdict("unique_multiplier", "fails", certificate=u if u is not None else witness,
                   detail="second multiplier direction exists; dual condition agrees")


# ---------------------------------------------------------------------------
# second-order sufficient condition (heuristic with exact certificates)
# ---------------------------------------------------------------------------

def _member_min_quadratic(M, Q, rng, samples):
    """Multistart projected-gradient minimum of w^T Q w over M cap sphere."""
    best_val, best_w = np.inf, None
    starts = []
    for _ in range(samples):
        w = project(M, rng.standard_normal(M.dim))
        nw = np.linalg.norm(w)
        if nw > 1e-10:
            starts.append(w / nw)
    eta = 1.0 / max(1.0, float(np.abs(np.linalg.eigvalsh(Q)).max()))
    for w in starts:
        for _ in range(80):
            w_new = project(M, w - eta * (Q @ w))
            nw = np.linalg.norm(w_new)
            if nw <= 1e-12:
                break
            w_new = w_new / nw
            if np.linalg.norm(w_new - w) <= 1e-12:
                w = w_new
                break
            w = w_new
        val = float(w @ Q @ w)
        if val < best_val:
            best_val, best_w = val, w
    return best_val, best_w


def check_sosc(problem: CompositeProblem, xbar, lambdabar, samples: int = 30,
               rng=None, tol: float = 1e-6) -> Verdict:
    """Heuristic positivity of the second-order form on the critical cone.

    Per member of the critical-direction cone: exact eigenvalue test on
    the lineality space, exact sign test on every enumerated boundary
    ray, multistart projected gradient elsewhere.  Failure certificates
    are exact directions with a nonpositive form value.
    """
    point = kkt_point(problem, xbar, lambdabar, tol)
    rng = rng or np.random.default_rng(0)
    J = point.J
    nontrivial = 0
    global_min = np.inf
    for i, M in point.D_members:
        B = span_basis(M)
        if B.shape[1] == 0:
            continue
        nontrivial += 1
        Q = point.hess + J.T @ problem.g.pieces[i].A @ J
        Q = 0.5 * (Q + Q.T)
        L = lineality_basis(M)
        if L.shape[1]:
            evals, vecs = np.linalg.eigh(L.T @ Q @ L)
            if evals[0] <= 1e-8:
                w = L @ vecs[:, 0]
                return Verdict("sosc", "heuristic_fails", certificate=w / np.linalg.norm(w),
                               detail=f"lineality direction with form value {evals[0]:.3e}")
        try:
            rays, _ = cone_rays(M)
        except TooManyRows:
            rays = []
        for r in rays:
            val = float(r @ Q @ r)
            global_min = min(global_min, val)
            if val <= 1e-8:
                return Verdict("sosc", "heuristic_fails", certificate=r,
                               detail=f"boundary ray with form value {val:.3e}")
        val, w = _member_min_quadratic(M, Q, rng, samples)
        global_min = min(global_min, val)
        if w is not None and val <= 1e-8:
            return Verdict("sosc", "heuristic_fails", certificate=w,
                           detail=f"multistart direction with form value {val:.3e}")
    if nontrivial == 0:
        return Verdict("sosc", "heuristic_holds", detail="D trivial")
    return Verdict("sosc", "heuristic_holds",
                   detail=f"minimum form value over all starts {global_min:.3e}")


# ---------------------------------------------------------------------------
# reduction lemma (exact membership on sampled graph points)
# ---------------------------------------------------------------------------

class _ShiftedConeCache:
    """H-representations of shifted normal cones, keyed by activity pattern.

    N_C(z) depends on z only through the active rows, so one elimination
    per pattern serves every sample sharing that pattern.
    """

    def __init__(self):
        self.store = {}

    def hrep(self, key, C, z):
        from .polyhedral import generated_cone_hrep, normal_cone_generators
        pattern = (key, tuple(sorted(
            i for i in range(C.n_ineq)
            if C.b[i] - C.A[i] @ z <= 1e-8 * (1.0 + abs(C.b[i])))))
        cone = self.store.get(pattern)
        if cone is None:
            G, L = normal_cone_generators(C, z)
            cone = generated_cone_hrep(G, L, n=C.dim)
            self.store[pattern] = cone
        return cone


def _intersection_rows(cones_and_shifts, m):
    """Polyhedron for the intersection of shifted cones {shift + cone}."""
    from .polyhedral import Polyhedron as Poly
    As, bs, Es, ds = [], [], [], []
    for cone, shift in cones_and_shifts:
        if cone.n_ineq:
            As.append(cone.A)
            bs.append(cone.b + cone.A @ shift)
        if cone.n_eq:
            Es.append(cone.E)
            ds.append(cone.d + cone.E @ shift)
    return Poly(np.vstack(As) if As else np.zeros((0, m)),
                np.concatenate(bs) if bs else np.zeros(0),
                np.vstack(Es) if Es else np.zeros((0, m)),
                np.concatenate(ds) if ds else np.zeros(0))


def verify_reduction_lemma(g: PLQFunction, zbar, vbar, eps: float = 1e-2,
                           n_samples: int = 500, rng=None) -> Verdict:
    """Sampled two-sided check of the local graph coincidence.

    Graph points of the subgradient mapping within eps of (zbar, vbar)
    must shift to graph points of the proto-derivative, and vice versa;
    both memberships are checked exactly.  Zero violations required.
    """
    rng = rng or np.random.default_rng(0)
    zbar = np.asarray(zbar, dtype=float).ravel()
    vbar = np.asarray(vbar, dtype=float).ravel()
    if subgradient_dist(g, zbar, vbar) > 1e-7:
        from .errors import NotASubgradient
        raise NotASubgradient("vbar must be a subgradient at zbar")
    from .plq import active_indices
    idx = [i for i, p in enumerate(g.pieces) if contains(p.C, zbar)]
    cones = piece_critical_cones(g, zbar, vbar)
    cache = _ShiftedConeCache()
    violations = 0
    checked_fwd = 0

    def proto_contains(w, u, tol=1e-8):
        holding = [(i, K) for i, K in cones if contains(K, w)]
        if not holding:
            return False
        return all(normal_cone_dist(K, w, u - g.pieces[i].A @ w) <= tol
                   for i, K in holding)

    # forward: gph dg - (zbar, vbar) subset of gph D(dg)(zbar, vbar)
    attempts = 0
    while checked_fwd < n_samples and attempts < 20 * n_samples:
        attempts += 1
        i = idx[attempts % len(idx)]
        C = g.pieces[i].C
        radius = float(rng.uniform(0.0, eps / 2.0))
        z = project(C, zbar + radius * rng.standard_normal(g.m))
        if np.linalg.norm(z - zbar) > eps / np.sqrt(2.0):
            continue
        # subdifferential at z as cached shifted normal cones
        act = active_indices(g, z)
        sub = _intersection_rows(
            [(cache.hrep(("sd", j), g.pieces[j].C, z), g.pieces[j].gradient(z))
             for j in act], g.m)
        try:
            v = project(sub, vbar + (eps / 4.0) * rng.standard_normal(g.m))
        except EmptyPolyhedron:
            continue
        if np.sqrt(np.linalg.norm(z - zbar) ** 2 + np.linalg.norm(v - vbar) ** 2) > eps:
            continue
        checked_fwd += 1
        if not proto_contains(z - zbar, v - vbar):
            violations += 1
    # backward: gph D(dg)(zbar, vbar) cap eps-ball subset of gph dg - (zbar, vbar)
    checked_bwd = 0
    attempts = 0
    while checked_bwd < n_samples and attempts < 20 * n_samples:
        attempts += 1
        i, K = cones[attempts % len(cones)]
        w = project(K, rng.standard_normal(g.m))
        holding = [(j, Kj) for j, Kj in cones if contains(Kj, w, 1e-9)]
        if not holding:
            continue
        uset = _intersection_rows(
            [(cache.hrep(("pd", j), Kj, w), g.pieces[j].A @ w)
             for j, Kj in holding], g.m)
        target = g.pieces[i].A @ w + float(rng.uniform(0.0, 1.0)) * rng.standard_normal(g.m)
        try:
            u = project(uset, target)
        except EmptyPolyhedron:
            continue
        size = np.sqrt(np.linalg.norm(w) ** 2 + np.linalg.norm(u) ** 2)
        scale = float(rng.uniform(0.2, 1.0)) * (eps / 2.0) / max(size, eps / 2.0)
        w2, u2 = scale * w, scale * u
        checked_bwd += 1
        z2, v2 = zbar + w2, vbar + u2
        if not np.isfinite(evaluate(g, z2)) or subgradient_dist(g, z2, v2) > 1e-8:
            violations += 1
    result = "holds" if violations == 0 else "fails"
    return Verdict("reduction_lemma", result,
                   certificate=violations if violations else None,
                   detail=f"{checked_fwd} forward + {checked_bwd} backward samples, "
                          f"{violations} violations, eps={eps:g}")


# ---------------------------------------------------------------------------
# calmness and primal estimates (empirical)
# ---------------------------------------------------------------------------

def _solve_perturbed(problem, v, p, xbar, lambdabar, rho, rng, tol=1e-11):
    """A KKT point of the perturbed problem near (xbar, lambdabar), or None.

    Warm-starts at the reference pair; when the linearization degenerates
    there (e.g. a vanishing Jacobian), jittered restarts recover.
    """
    pert = perturbed_problem(problem, v, p)
    starts = [(xbar, lambdabar)]
    for _ in range(2):
        jitter = project(problem.Theta,
                         xbar + max(10 * rho, 1e-3) * rng.standard_normal(problem.n))
        starts.append((jitter, lambdabar + max(10 * rho, 1e-3)
                       * rng.standard_normal(problem.m)))
    best = None
    best_dist = np.inf
    for (x0, l0) in starts:
        try:
            trace = run_sqp(pert, x0, l0,
                            SQPConfig(tol=tol, max_iter=30, delta0=max(10 * rho, 1e-4)))
        except PLQError:
            continue
        x, lam = trace[-1].x, trace[-1].lam
        dist = np.sqrt(np.linalg.norm(x - xbar) ** 2 + np.linalg.norm(lam - lambdabar) ** 2)
        if dist < best_dist:
            best, best_dist = (x, lam), dist
        if best_dist <= 10 * rho:
            break  # already well inside the localization neighborhood
    if best is None:
        return None
    # honor the neighborhood restriction of the solution map
    if best_dist > 0.5 * (1.0 + np.linalg.norm(xbar) + np.linalg.norm(lambdabar)):
        return None
    return best


def estimate_calmness(problem: CompositeProblem, xbar, lambdabar, radii=None,
                      n_samples: int = 8, mode: str = "full", rng=None,
                      tol: float = 1e-6) -> Verdict:
    """Empirical calmness modulus of the perturbed-KKT solution map.

    For each radius, perturbations (v, p) are sampled on the sphere, the
    perturbed KKT system is solved near (xbar, lambdabar), and the worst
    ratio lhs/rhs for the requested mode is recorded.  The verdict holds
    when the modulus stays within a factor 2 across the two smallest
    radii.
    """
    point = kkt_point(problem, xbar, lambdabar, tol)
    if mode not in ("full", "primal_D", "primal_Dplus"):
        raise ValueError(f"unknown calmness mode {mode!r}")
    radii = sorted(radii or [1e-2, 1e-3, 1e-4], reverse=True)
    rng = rng or np.random.default_rng(0)
    xbar, lambdabar = point.x, point.lam
    n, m = problem.n, problem.m
    Lam = multiplier_set(problem, xbar)
    D = cone_D(point) if mode == "primal_D" else None
    Dp = subspace_Dplus(point) if mode == "primal_Dplus" else None
    kappas = []
    failures = 0
    for rho in radii:
        worst = 0.0
        got = 0
        for _ in range(n_samples):
            direction = rng.standard_normal(n + m)
            direction = direction / np.linalg.norm(direction)
            scale = rho * float(rng.uniform(0.05, 1.0))  # ball sample, ||(v,p)|| <= rho
            v, p = scale * direction[:n], scale * direction[n:]
            sol = _solve_perturbed(problem, v, p, xbar, lambdabar, rho, rng)
            if sol is None:
                failures += 1
                continue
            x, lam = sol
            if mode == "full":
                lhs = float(np.linalg.norm(x - xbar)
                            + np.linalg.norm(lam - project(Lam, lam)))
                rhs = float(np.linalg.norm(v) + np.linalg.norm(p))
            elif mode == "primal_D":
                lhs = float(np.linalg.norm(x - xbar))
                rhs = float(np.linalg.norm(project_cone_union(D, v)) + np.linalg.norm(p))
            else:
                lhs = float(np.linalg.norm(x - xbar))
                rhs = float(np.linalg.norm(project_cone_union(Dp, v)) + np.linalg.norm(p))
            if rhs <= 1e-15:
                continue  # 0/0 guard
            got += 1
            worst = max(worst, lhs / rhs)
        kappas.append(worst if got else np.nan)
    condition = {"full": "calmness", "primal_D": "primal_estimate_D",
                 "primal_Dplus": "primal_estimate_Dplus"}[mode]
    valid = [k for k in kappas if np.isfinite(k) and k > 0]
    if len(valid) >= 2:
        ratio = kappas[-1] / kappas[-2] if kappas[-2] > 0 else np.inf
        bounded = np.isfinite(ratio) and ratio <= 2.0
    else:
        bounded = False
        ratio = np.nan
    result = "heuristic_holds" if bounded else "heuristic_fails"
    return Verdict(condition, result, certificate=np.asarray(kappas),
                   detail=f"radii={radii}, kappa={['%.4g' % k for k in kappas]}, "
                          f"smallest-ratio={ratio:.3g}, skipped={failures}")
