"""Structural condition checks at KKT points.

Noncriticality and multiplier uniqueness are decided exactly, as
homogeneous linear systems, each by one implicit-equality decision and
a rank test (`LPBuilder.nonzero_block`): noncriticality has one system
per partial activity pattern that its pruned walk reaches, uniqueness
the single dual cone condition (the multiplier polyhedron is not built).  The
second-order sufficient condition is exact too, by one eigenvalue test
per face of each critical-cone member; a member above 1,024 faces makes
the verdict inconclusive.  It keeps the heuristic_* result names that
callers compare against.  The reduction lemma is sampled on one
second-order model h = ½ d²g: each subgradient graph, of g and of h, is
sampled by prox (Minty's parametrization) and tested against the other
with the exact subgradient test.  Calmness and the primal estimates are
sampled empirically by solving perturbed KKT systems.  Failure
certificates are always exact vectors.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import PLQError, TooManyRows
from .kkt import CompositeProblem, kkt_point, multiplier_set, perturbed_problem
from .lp import LPBuilder, affine_frame, implicit_equalities
from .plq import PLQFunction, in_subgradient_graph, prox, second_order_model
from .polyhedral import enumerate_faces, project, project_cone_union
from .sqp import SQPConfig, run_sqp

MAX_PATTERN_DECISIONS = 40000  # `check_noncritical`'s budget, in pattern decisions


@dataclass(frozen=True)
class Verdict:
    condition: str
    result: str  # holds | fails | heuristic_holds | heuristic_fails (SOSC, exact)
    certificate: object = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.result in ("holds", "heuristic_holds")


# ---------------------------------------------------------------------------
# noncriticality (exact)
# ---------------------------------------------------------------------------

def _exclusion_choices(i, K):
    """Ways to force y outside cone K of piece i: (i, r) with r y > 0 for a row r."""
    return [(i, r) for r in [*K.A, *(sigma * e for e in K.E for sigma in (1.0, -1.0))]]


def _rows_times(R, J):
    """Each row of R times J as a vector-matrix product, so a row equals an
    exclusion row's `row @ J` exactly (a matrix product may round otherwise)."""
    return (R[:, None, :] @ J)[:, 0]


def _face_rows(K, face):
    """(rows held at 0, rows carrying multipliers) of a face of K; an open
    face (None) holds none at 0 and puts multipliers on every row."""
    return ([], list(range(K.n_ineq))) if face is None else (face, face)


def _solve_pattern(point, JT, faces, exclusions):
    """A nonzero w of one partial pattern's linear system at a KKT point, or None.

    JT is K_Theta's face, `faces` maps each piece of S to its face, and each
    exclusion (i, r) asks r J w >= t > 0 of a row r of piece i's cone.  Open
    faces (None) are relaxed (`_face_rows`) and unplaced pieces are free, so
    every completion's solution solves this system.  One implicit-equality
    decision settles it (`LPBuilder.nonzero_block`).
    """
    hess, J, KT, cones = point.hess, point.J, point.theta_cone, dict(point.piece_cones)
    zeroT, multT = _face_rows(KT, JT)
    rows = {i: _face_rows(cones[i], face) for i, face in faces.items()}
    sizes = [("w", J.shape[1]), ("u", J.shape[0]), ("t", 1), ("mu", len(multT)), ("nu", KT.n_eq)]
    for i, (_, mult) in rows.items():
        sizes += [(f"eta{i}", len(mult)), (f"zeta{i}", cones[i].n_eq)]
    lp = LPBuilder(sizes)
    lp.add_eq({"w": KT.A[zeroT]})
    lp.add_ub({"w": np.delete(KT.A, zeroT, axis=0)})
    lp.add_eq({"w": KT.E})
    lp.add_eq({"w": hess, "u": J.T, "mu": KT.A[multT].T, "nu": KT.E.T})
    for i, (zero, mult) in rows.items():
        K = cones[i]
        lp.add_eq({"w": _rows_times(K.A[zero], J)})
        lp.add_ub({"w": _rows_times(np.delete(K.A, zero, axis=0), J)})
        lp.add_eq({"w": _rows_times(K.E, J)})
        # u - A_i J w = R_i[mult]^T eta + S_i^T zeta
        lp.add_eq({"u": np.eye(J.shape[0]), "w": -(point.problem.g.pieces[i].A @ J),
                   f"eta{i}": -K.A[mult].T, f"zeta{i}": -K.E.T})
        lp.add_nonneg(f"eta{i}")
    lp.add_nonneg("mu")
    for _, r in exclusions:
        lp.add_ub({"w": -(r @ J), "t": 1.0})
    x = lp.nonzero_block("w")
    return None if x is None else lp.block(x, "w")


def check_noncritical(problem: CompositeProblem, xbar, lambdabar) -> Verdict:
    """Exact noncriticality decision by one pruned walk over activity patterns.

    A pattern makes the criticality system linear: a set S of active pieces,
    a face of K_Theta, a face of each critical cone in S and one violated row
    of every other piece's cone.  The walk fixes one choice at a time, depth
    first: i0, the least piece of S, and its face, then K_Theta's face, then
    each other piece, which joins S with a face (only after i0) or is
    excluded.  Each partial pattern gets one decision (`_solve_pattern`), and
    the walk goes no deeper below one without w != 0.  The leaves are the
    complete patterns, so the verdict is exact, also for overlapping pieces,
    and a leaf's w is an exact certificate.  Faces (`enumerate_faces`) are
    walked only where a branch needs them.  A decision past
    MAX_PATTERN_DECISIONS raises TooManyRows before it runs.
    """
    point = kkt_point(problem, xbar, lambdabar)
    cones = dict(point.piece_cones)
    decisions = 0

    @cache
    def faces_of(i):
        """The faces of piece i's cone, K_Theta's for None, walked once."""
        return [sorted(f.active) for f in enumerate_faces(cones.get(i, point.theta_cone))]

    def walk(i0, JT, faces, exclusions):
        """A certificate and the pieces of S below a partial pattern, or None."""
        nonlocal decisions
        if decisions >= MAX_PATTERN_DECISIONS:
            raise TooManyRows(f"pattern decisions exceed the budget {MAX_PATTERN_DECISIONS}")
        decisions += 1
        w = _solve_pattern(point, JT, faces, exclusions)
        if w is None:
            return None
        j = next((j for j in cones if j not in faces and j not in dict(exclusions)), None)
        if faces[i0] is None:
            below = [(JT, {i0: face}, exclusions) for face in faces_of(i0)]
        elif JT is None:
            below = [(face, faces, exclusions) for face in faces_of(None)]
        elif j is not None:
            joins = faces_of(j) if j > i0 else []  # S's least piece is i0
            below = [(JT, {**faces, j: face}, exclusions) for face in joins]
            below += [(JT, faces, (*exclusions, c)) for c in _exclusion_choices(j, cones[j])]
        else:
            return w, sorted(faces)
        return next(filter(None, (walk(i0, *child) for child in below)), None)

    found = next(filter(None, (walk(i0, None, {i0: None}, ()) for i0 in cones)), None)
    if found is None:
        return Verdict("noncritical", "holds", detail=f"{decisions} pattern decisions force w = 0")
    return Verdict("noncritical", "fails", certificate=found[0],
                   detail=f"critical direction found (pieces {found[1]})")


# ---------------------------------------------------------------------------
# multiplier uniqueness (exact, one implicit-equality decision)
# ---------------------------------------------------------------------------

def _dual_condition_nonzero(point):
    """A nonzero u with -J^T u in K_Theta^* and u in K_g^*, or None."""
    cones = point.piece_cones
    KT, J = point.theta_cone, point.J
    m = point.problem.m
    sizes = [("u", m), ("t", 1), ("muT", KT.n_ineq), ("nuT", KT.n_eq)]
    for i, K in cones:
        sizes.append((f"eta{i}", K.n_ineq))
        sizes.append((f"zeta{i}", K.n_eq))
    lp = LPBuilder(sizes)
    # -J^T u = KT.A^T muT + KT.E^T nuT, muT >= 0
    lp.add_eq({"u": -J.T, "muT": -KT.A.T, "nuT": -KT.E.T})
    lp.add_nonneg("muT")
    # u in K_g^* = intersection of the piece polars
    for i, K in cones:
        lp.add_eq({"u": np.eye(m), f"eta{i}": -K.A.T, f"zeta{i}": -K.E.T})
        lp.add_nonneg(f"eta{i}")
    x = lp.nonzero_block("u")
    return None if x is None else lp.block(x, "u")


def check_unique_multiplier(problem: CompositeProblem, xbar, lambdabar) -> Verdict:
    """Exact uniqueness of the multiplier by the dual cone condition.

    Lambda(xbar) is the single point lambdabar iff no u != 0 has u in
    K_g^* and -J^T u in K_Theta^*, ^* the polar and K_g the intersection
    of the active pieces' critical cones (Kyparisis 1985; the strict-MFCQ
    analogue of Bonnans 1994).  One implicit-equality decision settles it
    (`_dual_condition_nonzero`); on failure such a u is the certificate:
    lambdabar + t u stays a multiplier for small t > 0.
    """
    point = kkt_point(problem, xbar, lambdabar)
    u = _dual_condition_nonzero(point)
    if u is None:
        return Verdict("unique_multiplier", "holds",
                       detail="dual cone condition admits only u = 0")
    return Verdict("unique_multiplier", "fails", certificate=u,
                   detail="dual cone condition admits u != 0: a second multiplier direction")


# ---------------------------------------------------------------------------
# second-order sufficient condition (exact face walk)
# ---------------------------------------------------------------------------

def _face_minimum(M, Q):
    """(minimum, unit minimizer, faces walked) of w^T Q w over M cap sphere.

    The minimizer lies in the relative interior of a face F and is there a
    least eigenvector of Q on span F (Kaplan's eigenvector criterion for
    copositivity, carried from the orthant to a polyhedral cone).  Each
    face whose least eigenvalue is below the best so far gets one decision,
    `lp.implicit_equalities` of the rows off F on its eigenspace V: V meets
    relint F iff its point is negative on every row.  M = {0} gives
    (inf, None, 1); more than 1,024 faces raise TooManyRows.
    """
    faces = enumerate_faces(M)
    best, best_w = np.inf, None
    for face in faces:
        active = sorted(face.active)
        _, Z, QZ = affine_frame(Q, np.vstack([M.E, M.A[active]]))  # Z spans F
        evals, vecs = np.linalg.eigh(QZ.T @ Z)
        if not evals.size or evals[0] >= best:
            continue  # the face {0}, or no lower value
        V = Z @ vecs[:, evals <= evals[0] + 1e-9 * (1.0 + np.abs(evals).max())]
        off = np.delete(M.A, active, axis=0) @ V
        w = V[:, 0]  # with no row off F, F is a subspace and its own relint
        if len(off):
            _, c = implicit_equalities(off)  # off c <= -1 off the zero and implicit rows
            if np.any(off @ c > -0.5):
                continue
            w = V @ c
        w = w / np.linalg.norm(w)
        best, best_w = float(w @ Q @ w), w
    return best, best_w, len(faces)


def check_sosc(problem: CompositeProblem, xbar, lambdabar, rng=None) -> Verdict:
    """Positivity of the second-order form on the critical cone D, exactly.

    Each member of D is decided by its face walk (`_face_minimum`).
    Certificates are unit directions of D with form value <= 1e-8.  A
    member above 1,024 faces ends the check: the result reads
    heuristic_fails with no certificate, the detail "inconclusive: member
    i of D: ...", as calmness reports missing evidence.  The results keep
    the heuristic_* names callers compare against.  `rng` is accepted and
    not read.  Like every check, it first asks `kkt_point` (KKT_TOL).
    """
    point = kkt_point(problem, xbar, lambdabar)
    J = point.J
    n_faces, global_min = 0, np.inf
    for i, M in point.D_members:
        Q = point.hess + J.T @ problem.g.pieces[i].A @ J
        Q = 0.5 * (Q + Q.T)
        try:
            val, w, walked = _face_minimum(M, Q)
        except TooManyRows as exc:
            return Verdict("sosc", "heuristic_fails", certificate=None,
                           detail=f"inconclusive: member {i} of D: {exc}")
        n_faces += walked
        if w is not None and val <= 1e-8:
            return Verdict("sosc", "heuristic_fails", certificate=w,
                           detail=f"exact over {walked} faces: critical direction "
                                  f"with form value {val:.3e}")
        global_min = min(global_min, val)
    if not np.isfinite(global_min):
        return Verdict("sosc", "heuristic_holds", detail="D trivial")
    return Verdict("sosc", "heuristic_holds",
                   detail=f"exact over {n_faces} faces: minimum form value {global_min:.3e}")


# ---------------------------------------------------------------------------
# reduction lemma (exact membership on sampled graph points)
# ---------------------------------------------------------------------------

def verify_reduction_lemma(g: PLQFunction, zbar, vbar, eps: float = 1e-2,
                           n_samples: int = 500, rng=None) -> Verdict:
    """Sampled two-sided check of the local graph coincidence.

    Near (zbar, vbar), gph dg - (zbar, vbar) must coincide with gph dh for
    the `second_order_model` h = ½ d²g(zbar, vbar).  Each direction samples
    one graph by Minty's parametrization x -> (prox(x), x - prox(x)), with
    delta uniform in the eps-ball, and tests the sample against the other
    graph exactly: per direction, one block `prox` call maps all its samples
    and one `in_subgradient_graph` call tests them as a row block.
    Forward: x = zbar + vbar + delta, z = prox_g(x), and (z - zbar,
    x - z - vbar) must lie in gph dh.  Backward: w = prox_h(delta), and
    (zbar + w, vbar + delta - w) must lie in gph dg.  Minty's map is firmly
    nonexpansive, so every sample lies within eps of its base point and no
    attempt is skipped.  Zero violations required.
    """
    rng = rng or np.random.default_rng(0)
    zbar = np.asarray(zbar, dtype=float).ravel()
    vbar = np.asarray(vbar, dtype=float).ravel()
    h = second_order_model(g, zbar, vbar)  # NotASubgradient unless vbar in dg(zbar)

    def balls():  # n_samples deltas uniform in the eps-ball, drawn one after another
        ds = (rng.standard_normal(g.m) for _ in range(n_samples))
        return np.reshape([eps * float(rng.uniform()) ** (1.0 / g.m) * d / np.linalg.norm(d)
                           for d in ds], (n_samples, g.m))

    X = zbar + vbar + balls()  # forward: gph dg - (zbar, vbar) in gph dh
    Z = prox(g, X, near=zbar)
    violations = int(np.count_nonzero(~in_subgradient_graph(h, Z - zbar, X - Z - vbar)))
    D = balls()  # backward: gph dh in gph dg - (zbar, vbar)
    W = prox(h, D)
    violations += int(np.count_nonzero(~in_subgradient_graph(g, zbar + W, vbar + D - W)))
    result = "holds" if violations == 0 else "fails"
    return Verdict("reduction_lemma", result,
                   certificate=violations if violations else None,
                   detail=f"{n_samples} forward + {n_samples} backward samples, "
                          f"{violations} violations, eps={eps:g}")


# ---------------------------------------------------------------------------
# calmness and primal estimates (empirical)
# ---------------------------------------------------------------------------

def _solve_perturbed(problem, v, p, xbar, lambdabar, rho, rng):
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
                            SQPConfig(tol=1e-11, max_iter=30, delta0=max(10 * rho, 1e-4),
                                      monitors=False))
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
                      n_samples: int = 8, mode: str = "full", rng=None) -> Verdict:
    """Empirical calmness modulus of the perturbed-KKT solution map.

    (xbar, lambdabar) must pass `kkt_point` (KKT_TOL).  For each radius rho,
    perturbations (v, p) are sampled in the ball: a uniform random direction
    scaled to a norm uniform in [0.05 rho, rho].  The perturbed KKT system is
    solved to residual 1e-11 near (xbar, lambdabar), and the worst ratio
    lhs/rhs for the requested mode is recorded.  The verdict holds when the
    modulus stays within a factor 2 across the two smallest radii.  In full
    mode lhs reads dist(lam, Lambda(xbar)) as the step to `multiplier_set`'s
    projection, so a dual-LQ g raises PointOutsideDomain.  With
    usable samples at fewer than two radii there is no evidence either way:
    the result reads fails, the detail "inconclusive".
    """
    if mode not in ("full", "primal_D", "primal_Dplus"):
        raise ValueError(f"unknown calmness mode {mode!r}")
    point = kkt_point(problem, xbar, lambdabar)
    radii = sorted(radii or [1e-2, 1e-3, 1e-4], reverse=True)
    rng = rng or np.random.default_rng(0)
    xbar, lambdabar = point.x, point.lam
    n, m = problem.n, problem.m
    if mode == "full":
        point.lifted  # Lambda(xbar)'s system, built before any sample: a dual-LQ g raises here
    family = point.D if mode == "primal_D" else point.Dplus if mode == "primal_Dplus" else None
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
                            + np.linalg.norm(lam - multiplier_set(point, lam)))
                rhs = float(np.linalg.norm(v) + np.linalg.norm(p))
            else:
                lhs = float(np.linalg.norm(x - xbar))
                rhs = float(np.linalg.norm(project_cone_union(family, v)) + np.linalg.norm(p))
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
    detail = (f"radii={radii}, kappa={['%.4g' % k for k in kappas]}, "
              f"smallest-ratio={ratio:.3g}, skipped={failures}")
    if len(valid) < 2:
        detail = (f"inconclusive: {len(radii) - len(valid)} of {len(radii)} radii "
                  f"without usable samples, {detail}")
    return Verdict(condition, result, certificate=np.asarray(kappas), detail=detail)
