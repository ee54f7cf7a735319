"""First- and second-order variational calculus for convex piecewise
linear-quadratic functions.

A PLQ function is given by polyhedral pieces C_i with quadratic data
(A_i, a_i, alpha_i); on C_i the value is ½<A_i z, z> + <a_i, z> + alpha_i
and the domain is the union of the pieces.  The calculus implemented
here: subdifferentials as H-representations, subderivatives, critical
cones (as unions of polyhedral cones), second subderivatives,
proto-derivatives of the subgradient mapping, and proximal points.

DualLQ is the dual representation sup_{u in Omega} {<z,u> - ½<u,Bu>}; it
is kept separate from the piece representation and supports evaluation,
prox, and subdifferentials only.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    Infeasible,
    NoPiece,
    NotASubgradient,
    PointOutsideDomain,
    QPFailure,
    Unbounded,
    ValidationError,
)
from .polyhedral import (
    ConeFamily,
    Polyhedron,
    contains,
    critical_cone,
    generated_cone_hrep,
    intersect,
    interior_point,
    is_empty,
    normal_cone_dist,
    normal_cone_generators,
    project,
    prune_redundant,
    tangent_cone,
)
from .qp import active_set_qp

SUBGRAD_TOL = 1e-7


@dataclass(frozen=True)
class Piece:
    """One polyhedral piece with its quadratic data."""

    C: Polyhedron
    A: np.ndarray
    a: np.ndarray
    alpha: float

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        a = np.asarray(self.a, dtype=float).ravel()
        m = self.C.dim
        try:
            A = A.reshape(m, m) if A.size else np.zeros((m, m))
        except ValueError as exc:
            raise ValidationError(f"piece quadratic term must be {m}x{m}") from exc
        if a.size != m:
            raise ValidationError("piece linear term has wrong dimension")
        if np.abs(A - A.T).max(initial=0.0) > 1e-12:
            raise ValidationError("A symmetric")
        if is_empty(self.C):
            raise ValidationError("C nonempty")
        object.__setattr__(self, "A", 0.5 * (A + A.T))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "alpha", float(self.alpha))

    def value(self, z) -> float:
        z = np.asarray(z, dtype=float).ravel()
        return 0.5 * float(z @ self.A @ z) + float(self.a @ z) + self.alpha

    def gradient(self, z) -> np.ndarray:
        return self.A @ np.asarray(z, dtype=float).ravel() + self.a


@dataclass(frozen=True)
class PLQFunction:
    m: int
    pieces: tuple

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))
        if not self.pieces:
            raise ValidationError("PLQ function needs at least one piece")
        for p in self.pieces:
            if p.C.dim != self.m:
                raise ValidationError("piece dimension differs from m")

    def __call__(self, z) -> float:
        return evaluate(self, z)

    def to_dict(self):
        return {"m": self.m,
                "pieces": [{"C": p.C.to_dict(), "A": p.A.tolist(),
                            "a": p.a.tolist(), "alpha": p.alpha}
                           for p in self.pieces]}

    @staticmethod
    def from_dict(obj):
        m = int(obj["m"])
        pieces = [Piece(Polyhedron.from_dict(q["C"], n=m), q.get("A", []),
                        q["a"], q.get("alpha", 0.0)) for q in obj["pieces"]]
        return PLQFunction(m, pieces)


@dataclass(frozen=True)
class DualLQ:
    """g(z) = sup_{u in Omega} {<z,u> - ½<u,Bu>} with Omega polyhedral, B PSD."""

    Omega: Polyhedron
    B: np.ndarray

    def __post_init__(self):
        m = self.Omega.dim
        B = np.asarray(self.B, dtype=float).reshape(m, m) if np.asarray(self.B).size \
            else np.zeros((m, m))
        if np.abs(B - B.T).max(initial=0.0) > 1e-10:
            raise ValidationError("B symmetric")
        if np.linalg.eigvalsh(0.5 * (B + B.T)).min() < -1e-10:
            raise ValidationError("B positive semidefinite")
        if is_empty(self.Omega):
            raise ValidationError("Omega nonempty")
        object.__setattr__(self, "B", 0.5 * (B + B.T))

    @property
    def m(self) -> int:
        return self.Omega.dim

    def to_dict(self):
        return {"Omega": self.Omega.to_dict(), "B": self.B.tolist()}

    @staticmethod
    def from_dict(obj):
        Omega = Polyhedron.from_dict(obj["Omega"])
        return DualLQ(Omega, obj.get("B", np.zeros((Omega.dim, Omega.dim))))


# ---------------------------------------------------------------------------
# pointwise calculus
# ---------------------------------------------------------------------------

def _membership(g: PLQFunction, z, tol: float = 1e-9):
    """Boolean piece-membership vector, via a cached stacked-row matrix."""
    cache = getattr(g, "_stacked_rows", None)
    if cache is None:
        rows, rhs, srows, srhs, slices = [], [], [], [], []
        lo = so = 0
        for p in g.pieces:
            rows.append(p.C.A)
            rhs.append(p.C.b)
            srows.append(p.C.E)
            srhs.append(p.C.d)
            slices.append((lo, lo + p.C.n_ineq, so, so + p.C.n_eq))
            lo += p.C.n_ineq
            so += p.C.n_eq
        cache = (np.vstack(rows), np.concatenate(rhs),
                 np.vstack(srows), np.concatenate(srhs), slices)
        object.__setattr__(g, "_stacked_rows", cache)
    A, b, E, d, slices = cache
    z = np.asarray(z, dtype=float).ravel()
    ineq_ok = (A @ z <= b + tol) if A.size else np.ones(0, dtype=bool)
    eq_ok = (np.abs(E @ z - d) <= tol) if E.size else np.ones(0, dtype=bool)
    out = np.empty(len(g.pieces), dtype=bool)
    for i, (l0, l1, s0, s1) in enumerate(slices):
        out[i] = bool(ineq_ok[l0:l1].all()) and bool(eq_ok[s0:s1].all())
    return out


def evaluate(g: PLQFunction, z) -> float:
    """g(z); +inf outside the union of the pieces."""
    z = np.asarray(z, dtype=float).ravel()
    if z.size != g.m:
        raise DimensionMismatch("argument dimension mismatch")
    member = _membership(g, z)
    for i in np.flatnonzero(member):
        return g.pieces[i].value(z)
    return np.inf


def active_indices(g: PLQFunction, z) -> list:
    """I(z) = {i : z in C_i}; raises when z is outside the domain."""
    z = np.asarray(z, dtype=float).ravel()
    idx = [int(i) for i in np.flatnonzero(_membership(g, z))]
    if not idx:
        raise PointOutsideDomain("z lies outside dom g")
    return idx


def subgradient_dist(g: PLQFunction, z, v) -> float:
    """max over active pieces of dist(v - A_i z - a_i, N_{C_i}(z))."""
    z = np.asarray(z, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    dists = [normal_cone_dist(g.pieces[i].C, z, v - g.pieces[i].gradient(z))
             for i in active_indices(g, z)]
    return max(dists)


def subdifferential(g: PLQFunction, z) -> Polyhedron:
    """H-representation of the subdifferential at z.

    Each active piece contributes the shifted normal cone
    A_i z + a_i + N_{C_i}(z), whose H-representation is obtained by
    eliminating the cone multipliers; the pieces are then intersected.
    Elimination is capped at m <= 8; membership tests at any dimension
    go through subgradient_dist instead.
    """
    if g.m > 8:
        from .errors import TooManyRows
        raise TooManyRows("subdifferential H-representations are built for m <= 8")
    z = np.asarray(z, dtype=float).ravel()
    idx = active_indices(g, z)
    result = None
    for i in idx:
        p = g.pieces[i]
        G, L = normal_cone_generators(p.C, z)
        cone = generated_cone_hrep(G, L, n=g.m)
        w = p.gradient(z)
        shifted = Polyhedron(cone.A, cone.b + (cone.A @ w if cone.n_ineq else np.zeros(0)),
                             cone.E, cone.d + (cone.E @ w if cone.n_eq else np.zeros(0)))
        result = shifted if result is None else intersect(result, shifted)
    if result.n_ineq > 2:
        A, b = prune_redundant(result.A, result.b,
                               result.E if result.n_eq else None,
                               result.d if result.n_eq else None)
        result = Polyhedron(A, b, result.E, result.d)
    return result


def subderivative(g: PLQFunction, z, w) -> float:
    """dg(z)(w): <A_i z + a_i, w> on the tangent cone of an active piece, else +inf."""
    z = np.asarray(z, dtype=float).ravel()
    w = np.asarray(w, dtype=float).ravel()
    for i in active_indices(g, z):
        if contains(tangent_cone(g.pieces[i].C, z), w):
            return float(g.pieces[i].gradient(z) @ w)
    return np.inf


def piece_critical_cones(g: PLQFunction, z, v, tol: float = SUBGRAD_TOL):
    """[(i, K_{C_i}(z, v_i))] for active pieces, v_i = v - A_i z - a_i."""
    z = np.asarray(z, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if subgradient_dist(g, z, v) > tol:
        raise NotASubgradient("v is not a subgradient of g at z")
    out = []
    for i in active_indices(g, z):
        vi = v - g.pieces[i].gradient(z)
        out.append((i, critical_cone(g.pieces[i].C, z, vi)))
    return out


def critical_cone_g(g: PLQFunction, z, v, tol: float = SUBGRAD_TOL) -> ConeFamily:
    """K_g(z, v) as the union of the active pieces' critical cones."""
    members = tuple(K for _, K in piece_critical_cones(g, z, v, tol))
    return ConeFamily("union", members=members)


def second_subderivative(g: PLQFunction, z, v, w, tol: float = SUBGRAD_TOL) -> float:
    """d^2 g(z, v)(w): the piece quadratic form on the critical cone, else +inf."""
    w = np.asarray(w, dtype=float).ravel()
    for i, K in piece_critical_cones(g, z, v, tol):
        if contains(K, w):
            return float(w @ g.pieces[i].A @ w)
    return np.inf


def proto_derivative_contains(g: PLQFunction, z, v, w, u, tol: float = 1e-8) -> bool:
    """Whether u lies in D(dg)(z, v)(w).

    True iff w is in the critical cone of g and, for every active piece
    whose critical cone contains w, u - A_i w is normal to that cone at w.
    """
    w = np.asarray(w, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    cones = piece_critical_cones(g, z, v)
    holding = [(i, K) for i, K in cones if contains(K, w)]
    if not holding:
        return False
    for i, K in holding:
        if normal_cone_dist(K, w, u - g.pieces[i].A @ w) > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# proximal mappings
# ---------------------------------------------------------------------------

def prox(g: PLQFunction, x) -> np.ndarray:
    """argmin_z g(z) + ½||x - z||^2 by strongly convex per-piece QPs.

    Ties across pieces go to the earliest piece, which keeps traces
    deterministic.
    """
    x = np.asarray(x, dtype=float).ravel()
    eye = np.eye(g.m)
    # the unconstrained minimizer of each strongly convex piece objective
    # bounds that piece's QP from below, so pieces are visited best-bound
    # first and pruned once a candidate beats their bound
    entries = []
    for idx, p in enumerate(g.pieces):
        Q = p.A + eye
        c = p.a - x
        try:
            z_u = np.linalg.solve(Q, -c)
        except np.linalg.LinAlgError:
            z_u = None
            lb = -np.inf
        else:
            lb = p.value(z_u) + 0.5 * float(np.linalg.norm(x - z_u) ** 2)
        entries.append((lb, idx, p, Q, c, z_u))
    entries.sort(key=lambda e: (e[0], e[1]))
    best = None
    best_val = np.inf
    best_idx = len(g.pieces)
    for lb, idx, p, Q, c, z_u in entries:
        if lb > best_val + 1e-12:
            break
        if z_u is not None and contains(p.C, z_u, 1e-12):
            z = z_u
        else:
            try:
                res = active_set_qp(Q, c, p.C.A, p.C.b, p.C.E, p.C.d)
            except (Infeasible, QPFailure):
                continue
            z = res.x
        val = p.value(z) + 0.5 * float(np.linalg.norm(x - z) ** 2)
        # ties across pieces go to the earliest piece index
        if val < best_val - 1e-12 or (abs(val - best_val) <= 1e-12 and idx < best_idx):
            best, best_val, best_idx = z, val, idx
            # the prox point is the unique solution of the resolvent
            # inclusion, so an incumbent passing the exact subgradient
            # test is the global answer
            if subgradient_dist(g, z, x - z) <= 1e-10 * (1.0 + np.linalg.norm(x)):
                return z
    if best is None:
        raise NoPiece("dom g is empty or no piece QP was solvable")
    return best


def dual_lq_eval_prox(h: DualLQ, z):
    """(f_{Omega,B}(z), prox_{f}(z)).

    The value is the optimum of the concave QP over Omega (+inf when the
    supremum is unbounded); the prox comes from the Moreau identity
    prox_f(x) = x - argmin_{u in Omega} ½<(B+I)u, u> - <x, u>.
    """
    z = np.asarray(z, dtype=float).ravel()
    m = h.m
    O = h.Omega
    try:
        value = -active_set_qp(h.B, -z, O.A, O.b, O.E, O.d).objective
    except Unbounded:
        value = np.inf
    pres = active_set_qp(h.B + np.eye(m), -z, O.A, O.b, O.E, O.d)
    return value, z - pres.x


def dual_lq_subdifferential(h: DualLQ, z) -> Polyhedron:
    """Subdifferential of f_{Omega,B} at z: the argmax face of the dual QP."""
    z = np.asarray(z, dtype=float).ravel()
    try:
        res = active_set_qp(h.B, -z, h.Omega.A, h.Omega.b, h.Omega.E, h.Omega.d)
    except Unbounded as exc:
        raise PointOutsideDomain("supremum is +inf at z") from exc
    u = res.x
    grad = z - h.B @ u  # linear part of the objective on the solution set
    E = np.vstack([h.Omega.E, h.B, grad.reshape(1, -1)])
    d = np.concatenate([h.Omega.d, h.B @ u, [float(grad @ u)]])
    return Polyhedron(h.Omega.A, h.Omega.b, E, d)


def prox_any(g, x) -> np.ndarray:
    """Prox for either representation of g."""
    if isinstance(g, DualLQ):
        return dual_lq_eval_prox(g, x)[1]
    return prox(g, x)


def value_any(g, z) -> float:
    if isinstance(g, DualLQ):
        return dual_lq_eval_prox(g, z)[0]
    return evaluate(g, z)


# ---------------------------------------------------------------------------
# certificates (sampling-based validation of user-supplied pieces)
# ---------------------------------------------------------------------------

def sample_domain_point(g: PLQFunction, rng, around=None, radius=1.0):
    """A random point of dom g, stratified over pieces."""
    i = int(rng.integers(len(g.pieces)))
    C = g.pieces[i].C
    center = interior_point(C) if around is None else np.asarray(around, dtype=float)
    if center is None:
        return None
    return project(C, center + radius * rng.standard_normal(g.m))


def check_consistency(g: PLQFunction, rng, n_samples: int = 50, tol: float = 1e-9):
    """Values of overlapping pieces must agree on shared points."""
    for i in range(len(g.pieces)):
        for j in range(i + 1, len(g.pieces)):
            both = intersect(g.pieces[i].C, g.pieces[j].C)
            z0 = interior_point(both)
            if z0 is None:
                continue
            for _ in range(max(2, n_samples // max(1, len(g.pieces)))):
                z = project(both, z0 + rng.standard_normal(g.m))
                if abs(g.pieces[i].value(z) - g.pieces[j].value(z)) > tol * (1 + abs(g.pieces[i].value(z))):
                    return False, f"pieces {i} and {j} disagree at {z.tolist()}"
    return True, ""


def check_convexity(g: PLQFunction, rng, n_samples: int = 100, tol: float = 1e-9):
    """Midpoint convexity certificate over sampled domain pairs."""
    for _ in range(n_samples):
        z1 = sample_domain_point(g, rng)
        z2 = sample_domain_point(g, rng)
        if z1 is None or z2 is None:
            continue
        t = float(rng.uniform(0.1, 0.9))
        zm = t * z1 + (1 - t) * z2
        fm = evaluate(g, zm)
        if not np.isfinite(fm):
            continue
        bound = t * evaluate(g, z1) + (1 - t) * evaluate(g, z2)
        if fm > bound + tol * (1 + abs(bound)):
            return False, f"convexity violated at t={t}"
    return True, ""


# ---------------------------------------------------------------------------
# standard constructions
# ---------------------------------------------------------------------------

def plq_abs() -> PLQFunction:
    """|z| on the line as two linear pieces."""
    return PLQFunction(1, [
        Piece(Polyhedron.nonpos(1), np.zeros((1, 1)), [-1.0], 0.0),
        Piece(Polyhedron.nonneg(1), np.zeros((1, 1)), [1.0], 0.0),
    ])


def plq_indicator(C: Polyhedron) -> PLQFunction:
    """Indicator of a polyhedral set as a single zero piece."""
    m = C.dim
    return PLQFunction(m, [Piece(C, np.zeros((m, m)), np.zeros(m), 0.0)])


def plq_quadratic(A, a=None, alpha=0.0) -> PLQFunction:
    """Globally quadratic function ½<Az,z> + <a,z> + alpha."""
    A = np.asarray(A, dtype=float)
    m = A.shape[0]
    a = np.zeros(m) if a is None else np.asarray(a, dtype=float)
    return PLQFunction(m, [Piece(Polyhedron.whole_space(m), A, a, alpha)])


def plq_vector_max(m: int) -> PLQFunction:
    """g(z) = max_j z_j with the usual cell decomposition."""
    pieces = []
    for j in range(m):
        rows = []
        for i in range(m):
            if i == j:
                continue
            r = np.zeros(m)
            r[i] = 1.0
            r[j] = -1.0
            rows.append(r)
        C = Polyhedron(np.asarray(rows).reshape(-1, m), np.zeros(m - 1),
                       np.zeros((0, m)), np.zeros(0))
        a = np.zeros(m)
        a[j] = 1.0
        pieces.append(Piece(C, np.zeros((m, m)), a, 0.0))
    return PLQFunction(m, pieces)


def plq_separable(coordinate_pieces) -> PLQFunction:
    """Product of one-dimensional PLQ functions.

    `coordinate_pieces[j]` lists (lo, hi, quad, lin, const) cells for
    coordinate j; the cells are combined into all product pieces, so the
    total count multiplies across coordinates.
    """
    import itertools as it
    m = len(coordinate_pieces)
    pieces = []
    for combo in it.product(*[range(len(c)) for c in coordinate_pieces]):
        lo = np.full(m, -np.inf)
        hi = np.full(m, np.inf)
        A = np.zeros((m, m))
        a = np.zeros(m)
        alpha = 0.0
        for j, k in enumerate(combo):
            l, hgh, quad, lin, const = coordinate_pieces[j][k]
            lo[j], hi[j] = l, hgh
            A[j, j] = quad
            a[j] = lin
            alpha += const
        pieces.append(Piece(Polyhedron.box(lo, hi), A, a, alpha))
    return PLQFunction(m, pieces)
