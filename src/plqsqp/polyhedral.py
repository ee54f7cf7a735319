"""Exact desk-scale polyhedral geometry in H-representation.

A Polyhedron is {x : A x <= b, E x = d}; a PolyCone is the homogeneous
case b = 0, d = 0.  Everything here is built from three exact kernels:
the dense active-set QP (projections), nonnegative least squares
(normal-cone distances), and HiGHS LPs (feasibility, implicit
equalities, redundancy).  Values are immutable after construction and
all operations are pure.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import null_space

from .errors import (
    DimensionMismatch,
    EmptyPolyhedron,
    Infeasible,
    NotANormalVector,
    PointNotInSet,
    TooManyRows,
)
from .lp import LP_OPTIMAL, feasible_point, solve_lp
from .qp import active_set_qp

ACT_TOL = 1e-8  # row i active iff b_i - A_i x <= ACT_TOL * (1 + |b_i|)


def _as_matrix(M, n):
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return np.zeros((0, n))
    return M.reshape(-1, n)


@dataclass(frozen=True)
class Polyhedron:
    """H-representation set {x in R^n : A x <= b, E x = d}."""

    A: np.ndarray
    b: np.ndarray
    E: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        E = np.asarray(self.E, dtype=float)
        if A.ndim != 2 and A.size == 0 and E.ndim == 2:
            A = np.zeros((0, E.shape[1]))
        if A.ndim != 2:
            raise DimensionMismatch("A must be a matrix")
        n = A.shape[1] if A.shape[1] else (E.shape[1] if E.ndim == 2 else 0)
        object.__setattr__(self, "A", _as_matrix(A, n))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float).ravel())
        object.__setattr__(self, "E", _as_matrix(E, n))
        object.__setattr__(self, "d", np.asarray(self.d, dtype=float).ravel())
        if self.A.shape[0] != self.b.size or self.E.shape[0] != self.d.size:
            raise DimensionMismatch("row/rhs count mismatch")
        if self.A.shape[1] != self.E.shape[1]:
            raise DimensionMismatch("A and E column counts differ")
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.b))
                and np.all(np.isfinite(self.E)) and np.all(np.isfinite(self.d))):
            raise DimensionMismatch("polyhedron data must be finite")

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    @property
    def n_ineq(self) -> int:
        return self.A.shape[0]

    @property
    def n_eq(self) -> int:
        return self.E.shape[0]

    # -- constructors -------------------------------------------------
    @staticmethod
    def whole_space(n):
        return Polyhedron(np.zeros((0, n)), np.zeros(0), np.zeros((0, n)), np.zeros(0))

    @staticmethod
    def nonneg(n):
        return Polyhedron(-np.eye(n), np.zeros(n), np.zeros((0, n)), np.zeros(0))

    @staticmethod
    def nonpos(n):
        return Polyhedron(np.eye(n), np.zeros(n), np.zeros((0, n)), np.zeros(0))

    @staticmethod
    def box(lo, hi):
        lo = np.asarray(lo, dtype=float).ravel()
        hi = np.asarray(hi, dtype=float).ravel()
        n = lo.size
        rows, rhs = [], []
        for j in range(n):
            if np.isfinite(hi[j]):
                r = np.zeros(n)
                r[j] = 1.0
                rows.append(r)
                rhs.append(hi[j])
            if np.isfinite(lo[j]):
                r = np.zeros(n)
                r[j] = -1.0
                rows.append(r)
                rhs.append(-lo[j])
        A = np.asarray(rows).reshape(-1, n)
        return Polyhedron(A, np.asarray(rhs), np.zeros((0, n)), np.zeros(0))

    @staticmethod
    def point(x):
        x = np.asarray(x, dtype=float).ravel()
        n = x.size
        return Polyhedron(np.zeros((0, n)), np.zeros(0), np.eye(n), x)

    def to_dict(self):
        return {"A": self.A.tolist(), "b": self.b.tolist(),
                "E": self.E.tolist(), "d": self.d.tolist()}

    @staticmethod
    def from_dict(obj, n=None):
        A = np.asarray(obj.get("A", []), dtype=float)
        E = np.asarray(obj.get("E", []), dtype=float)
        if n is None:
            n = A.shape[1] if A.ndim == 2 and A.size else (
                E.shape[1] if E.ndim == 2 and E.size else None)
        if n is None:
            raise DimensionMismatch("cannot infer dimension from empty polyhedron")
        return Polyhedron(_as_matrix(A, n), obj.get("b", []), _as_matrix(E, n), obj.get("d", []))


@dataclass(frozen=True)
class PolyCone(Polyhedron):
    """Polyhedron with b = 0 and d = 0; contains the origin."""

    def __post_init__(self):
        super().__post_init__()
        if self.b.size and np.any(self.b != 0.0):
            raise DimensionMismatch("PolyCone requires b = 0")
        if self.d.size and np.any(self.d != 0.0):
            raise DimensionMismatch("PolyCone requires d = 0")

    @staticmethod
    def from_rows(R, S, n=None):
        R = np.asarray(R, dtype=float)
        S = np.asarray(S, dtype=float)
        if n is None:
            n = R.shape[1] if R.ndim == 2 and R.size else S.shape[1]
        R = _as_matrix(R, n)
        S = _as_matrix(S, n)
        return PolyCone(R, np.zeros(R.shape[0]), S, np.zeros(S.shape[0]))

    @staticmethod
    def whole(n):
        return PolyCone.from_rows(np.zeros((0, n)), np.zeros((0, n)), n)

    @staticmethod
    def origin(n):
        return PolyCone.from_rows(np.zeros((0, n)), np.eye(n), n)


@dataclass(frozen=True)
class Face:
    """Face of a PolyCone: the inequality rows in `active` hold with equality."""

    parent: PolyCone
    active: frozenset = field(default_factory=frozenset)


# ---------------------------------------------------------------------------
# membership / activity
# ---------------------------------------------------------------------------

def contains(P: Polyhedron, x, tol: float = 1e-9) -> bool:
    """True iff A x <= b + tol and |E x - d| <= tol componentwise."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != P.dim:
        raise DimensionMismatch(f"point has dim {x.size}, set has dim {P.dim}")
    if P.n_ineq and np.any(P.A @ x - P.b > tol):
        return False
    if P.n_eq and np.any(np.abs(P.E @ x - P.d) > tol):
        return False
    return True


def active_rows(P: Polyhedron, x) -> list:
    """Indices of inequality rows active at x (scale-invariant tolerance)."""
    x = np.asarray(x, dtype=float).ravel()
    if not P.n_ineq:
        return []
    slack = P.b - P.A @ x
    return [i for i in range(P.n_ineq) if slack[i] <= ACT_TOL * (1.0 + abs(P.b[i]))]


def is_empty(P: Polyhedron) -> bool:
    return feasible_point(P.A, P.b, P.E, P.d) is None


def interior_point(P: Polyhedron):
    """A relative-interior-ish feasible point, or None if P is empty."""
    return feasible_point(P.A, P.b, P.E, P.d)


# ---------------------------------------------------------------------------
# projection and cones
# ---------------------------------------------------------------------------

def project(P: Polyhedron, z) -> np.ndarray:
    """Nearest point of P to z (unique): argmin ||x - z||^2 / 2 over P."""
    z = np.asarray(z, dtype=float).ravel()
    if z.size != P.dim:
        raise DimensionMismatch("projection point dimension mismatch")
    if contains(P, z, 1e-12):
        return z.copy()
    try:
        res = active_set_qp(np.eye(P.dim), -z, P.A, P.b, P.E, P.d)
    except Infeasible as exc:
        raise EmptyPolyhedron(str(exc)) from exc
    return res.x


def tangent_cone(P: Polyhedron, x, tol: float = 1e-9) -> PolyCone:
    """Tangent cone at x: active inequality rows plus all equality rows."""
    if not contains(P, x, tol):
        raise PointNotInSet("tangent cone requires a point of the set")
    J = active_rows(P, x)
    return PolyCone.from_rows(P.A[J], P.E, P.dim)


def normal_cone_dist(P: Polyhedron, x, v, tol: float = 1e-9) -> float:
    """dist(v, N_P(x)) with N_P(x) = {A_J^T mu + E^T nu : mu >= 0}.

    Computed by verified nonnegative least squares after splitting the
    free equality multipliers into positive and negative parts.
    """
    if not contains(P, x, tol):
        raise PointNotInSet("normal cone requires a point of the set")
    v = np.asarray(v, dtype=float).ravel()
    J = active_rows(P, x)
    cols = []
    if J:
        cols.append(P.A[J].T)
    if P.n_eq:
        cols.append(P.E.T)
        cols.append(-P.E.T)
    if not cols:
        return float(np.linalg.norm(v))
    from .nonneg import nonneg_lstsq
    M = np.hstack(cols)
    _, dist = nonneg_lstsq(M, v)
    return dist


def critical_cone(P: Polyhedron, x, v, tol: float = 1e-7) -> PolyCone:
    """K_P(x, v) = T_P(x) intersected with the hyperplane v^T w = 0."""
    v = np.asarray(v, dtype=float).ravel()
    if normal_cone_dist(P, x, v) > tol:
        raise NotANormalVector("v is not a normal vector at x")
    T = tangent_cone(P, x)
    if np.linalg.norm(v) <= tol:
        return T
    S = np.vstack([T.E, v.reshape(1, -1)])
    return PolyCone.from_rows(T.A, S, P.dim)


def normal_cone_generators(P: Polyhedron, x):
    """(G, L): N_P(x) = {G^T mu + L^T nu : mu >= 0}; rows of G and L."""
    J = active_rows(P, x)
    G = P.A[J] if J else np.zeros((0, P.dim))
    return G, P.E


# ---------------------------------------------------------------------------
# faces, rays, spans
# ---------------------------------------------------------------------------

def _implicit_equalities(M, rows) -> list:
    """Nonzero rows k of `rows` with M[k] y = 0 on all of {y : M y <= 0}."""
    out = []
    for k in rows:
        row = M[k]
        if np.linalg.norm(row) <= 1e-12:
            continue
        # row y <= 0 on the cone; implicit equality iff min row y = 0
        status, _, val = solve_lp(
            row, A_ub=np.vstack([M, -row.reshape(1, -1)]),
            b_ub=np.concatenate([np.zeros(M.shape[0]), [1.0]]))
        if status == LP_OPTIMAL and val >= -1e-9:
            out.append(k)
    return out


def _forced_active(cone: PolyCone, fixed) -> frozenset:
    """Rows that hold with equality on all of the face with `fixed` active."""
    idx = sorted(fixed)
    S = np.vstack([cone.E, cone.A[idx]]) if idx else cone.E
    N = null_space(S) if S.size else np.eye(cone.dim)
    if N.size == 0 or N.shape[1] == 0:
        return frozenset(range(cone.n_ineq))
    M = cone.A @ N
    zero = [k for k in range(cone.n_ineq) if np.linalg.norm(M[k]) <= 1e-12]
    free = [k for k in range(cone.n_ineq) if k not in fixed]
    return frozenset(fixed) | frozenset(zero) | frozenset(_implicit_equalities(M, free))


def enumerate_faces(cone: PolyCone, cap: int = 20) -> list:
    """All distinct faces from turning inequality-row subsets into equalities.

    Faces are deduplicated by their forced-active row sets; the list always
    contains the cone itself and its lineality space.
    """
    r = cone.n_ineq
    if r > cap:
        raise TooManyRows(f"2^{r} face subsets exceed the cap 2^{cap}")
    seen = {}
    for size in range(r + 1):
        for subset in itertools.combinations(range(r), size):
            key = _forced_active(cone, frozenset(subset))
            if key not in seen:
                seen[key] = Face(cone, key)
    return list(seen.values())


def span_basis(cone: PolyCone) -> np.ndarray:
    """Orthonormal basis of span(K) = K - K for a polyhedral convex cone."""
    N = null_space(cone.E) if cone.E.size else np.eye(cone.dim)
    if N.size == 0 or N.shape[1] == 0:
        return np.zeros((cone.dim, 0))
    M = cone.A @ N
    implicit = _implicit_equalities(M, range(M.shape[0]))
    if implicit:
        Y = null_space(M[implicit])
        if Y.size == 0 or Y.shape[1] == 0:
            return np.zeros((cone.dim, 0))
        B = N @ Y
    else:
        B = N
    # orthonormalize
    Qb, _ = np.linalg.qr(B)
    return Qb[:, : np.linalg.matrix_rank(B)]


def lineality_basis(cone: PolyCone) -> np.ndarray:
    """Orthonormal basis of K intersect -K = {w : Aw = 0, Ew = 0}."""
    S = np.vstack([cone.A, cone.E]) if (cone.n_ineq or cone.n_eq) else np.zeros((0, cone.dim))
    if S.size == 0:
        return np.eye(cone.dim)
    N = null_space(S)
    return N if N.size else np.zeros((cone.dim, 0))


def cone_rays(cone: PolyCone, cap: int = 20):
    """(rays, lineality): boundary rays of K found by rank-(dim-1) activity.

    Rays are unit vectors orthogonal to the lineality space; together with
    the lineality basis they span the cone.  Exact membership of each ray
    is verified before it is returned.
    """
    r = cone.n_ineq
    if r > cap:
        raise TooManyRows(f"2^{r} subsets exceed the cap 2^{cap}")
    L = lineality_basis(cone)
    ldim = L.shape[1]
    rays = []
    for size in range(r + 1):
        for subset in itertools.combinations(range(r), size):
            S = np.vstack([cone.E, cone.A[list(subset)]]) if (cone.n_eq or subset) \
                else np.zeros((0, cone.dim))
            N = null_space(S) if S.size else np.eye(cone.dim)
            if N.size == 0 or N.shape[1] != ldim + 1:
                continue
            # direction modulo lineality
            if ldim:
                Nperp = N - L @ (L.T @ N)
                u = Nperp[:, int(np.argmax(np.linalg.norm(Nperp, axis=0)))]
            else:
                u = N[:, 0]
            nu = np.linalg.norm(u)
            if nu <= 1e-10:
                continue
            u = u / nu
            for s in (u, -u):
                if cone.n_ineq and np.any(cone.A @ s > 1e-9):
                    continue
                if any(np.linalg.norm(s - q) <= 1e-8 for q in rays):
                    continue
                rays.append(s.copy())
    return rays, L


# ---------------------------------------------------------------------------
# cone families and unions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeFamily:
    """Union of polyhedral cones, or a linear subspace given by a basis."""

    kind: str  # "union" | "subspace"
    members: tuple = ()
    basis: np.ndarray = None  # orthonormal columns, subspace kind only

    def __post_init__(self):
        if self.kind not in ("union", "subspace"):
            raise DimensionMismatch("ConeFamily kind must be union or subspace")
        object.__setattr__(self, "members", tuple(self.members))
        if self.kind == "subspace" and self.basis is None:
            raise DimensionMismatch("subspace family needs a basis")

    @property
    def dim(self) -> int:
        if self.kind == "subspace":
            return self.basis.shape[0]
        return self.members[0].dim

    def member_contains(self, v, tol=1e-9) -> bool:
        if self.kind == "subspace":
            v = np.asarray(v, dtype=float).ravel()
            return bool(np.linalg.norm(v - self.basis @ (self.basis.T @ v)) <= tol)
        return any(contains(m, v, tol) for m in self.members)


def project_cone_union(family: ConeFamily, v) -> np.ndarray:
    """Nearest point of the family to v; exact memberwise comparison.

    Ties between union members are broken by listed order, matching the
    deterministic-trace convention used throughout the toolkit.
    """
    v = np.asarray(v, dtype=float).ravel()
    if family.kind == "subspace":
        B = family.basis
        if B.shape[1] == 0:
            return np.zeros_like(v)
        return B @ (B.T @ v)
    best = None
    best_dist = np.inf
    for m in family.members:
        p = project(m, v)
        dist = np.linalg.norm(v - p)
        if dist < best_dist - 1e-12:
            best, best_dist = p, dist
    return best


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination
# ---------------------------------------------------------------------------

def _dedup_rows(A, b):
    """Drop duplicate and trivially void rows after unit normalization."""
    rows, rhs = [], []
    for i in range(A.shape[0]):
        a = A[i]
        nb = float(np.linalg.norm(a))
        if nb <= 1e-12:
            continue  # 0 <= b rows are assumed valid here; caller checks
        a = a / nb
        beta = b[i] / nb
        dup = False
        for k in range(len(rows)):
            if np.linalg.norm(rows[k] - a) <= 1e-10 and abs(rhs[k] - beta) <= 1e-10:
                dup = True
                break
            if np.linalg.norm(rows[k] - a) <= 1e-10 and rhs[k] <= beta:
                dup = True  # strictly weaker copy
                break
        if not dup:
            rows.append(a)
            rhs.append(beta)
    if not rows:
        return np.zeros((0, A.shape[1])), np.zeros(0)
    return np.asarray(rows), np.asarray(rhs)


def prune_redundant(A, b, E=None, d=None):
    """Remove inequality rows implied by the rest (one LP per row)."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    keep = list(range(A.shape[0]))
    i = 0
    while i < len(keep):
        idx = keep[i]
        others = [k for k in keep if k != idx]
        status, _, val = solve_lp(
            -A[idx],
            A_ub=A[others] if others else None,
            b_ub=b[others] if others else None,
            A_eq=E if E is not None and len(E) else None,
            b_eq=d if d is not None and len(d) else None,
        )
        if status == LP_OPTIMAL and -val <= b[idx] + 1e-9 * (1.0 + abs(b[idx])):
            keep.pop(i)
        else:
            i += 1
    return A[keep], b[keep]


def fourier_motzkin(A, b, E, d, keep, prune=True) -> Polyhedron:
    """Project {y : A y <= b, E y = d} onto the coordinates in `keep`.

    Equalities are used as Gaussian pivots first; remaining variables are
    eliminated by pairing opposite-sign inequality rows.  Redundant rows
    are pruned by LP after each elimination to control growth.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    E = np.asarray(E, dtype=float)
    d = np.asarray(d, dtype=float).ravel()
    N = A.shape[1] if A.size else E.shape[1]
    A = _as_matrix(A, N)
    E = _as_matrix(E, N)
    keep = list(keep)
    elim = [v for v in range(N) if v not in keep]

    for v in elim:
        # Gaussian pivot on an equality row when available
        pivot = None
        if E.shape[0]:
            cols = np.abs(E[:, v])
            j = int(np.argmax(cols))
            if cols[j] > 1e-10:
                pivot = j
        if pivot is not None:
            row = E[pivot] / E[pivot, v]
            rhs = d[pivot] / E[pivot, v]
            if A.shape[0]:
                f = A[:, v].copy()
                A = A - np.outer(f, row)
                b = b - f * rhs
            mask = np.arange(E.shape[0]) != pivot
            E2, d2 = E[mask], d[mask]
            if E2.shape[0]:
                f = E2[:, v].copy()
                E2 = E2 - np.outer(f, row)
                d2 = d2 - f * rhs
            E, d = E2, d2
            continue
        # Fourier-Motzkin on the inequalities
        if not A.shape[0]:
            continue
        col = A[:, v]
        pos = np.where(col > 1e-10)[0]
        neg = np.where(col < -1e-10)[0]
        zero = np.where(np.abs(col) <= 1e-10)[0]
        new_rows = [A[zero]]
        new_rhs = [b[zero]]
        for i in pos:
            for j in neg:
                r = A[i] * (-col[j]) + A[j] * col[i]
                r[v] = 0.0
                new_rows.append(r.reshape(1, -1))
                new_rhs.append(np.array([b[i] * (-col[j]) + b[j] * col[i]]))
        A = np.vstack(new_rows) if new_rows else np.zeros((0, N))
        b = np.concatenate(new_rhs) if new_rhs else np.zeros(0)
        A, b = _dedup_rows(A, b)
        if prune and A.shape[0] > 2 * N + 4:
            A, b = prune_redundant(A, b, E if E.size else None, d if d.size else None)

    # all eliminated columns must now be zero
    if elim:
        if A.size and np.abs(A[:, elim]).max(initial=0.0) > 1e-9:
            raise DimensionMismatch("elimination left residual coefficients")
        if E.size and np.abs(E[:, elim]).max(initial=0.0) > 1e-9:
            raise DimensionMismatch("elimination left residual equality coefficients")
    Ak = A[:, keep] if A.size else np.zeros((0, len(keep)))
    Ek = E[:, keep] if E.size else np.zeros((0, len(keep)))
    Ak, b = _dedup_rows(Ak, b) if Ak.size else (np.zeros((0, len(keep))), b[:0])
    if prune and Ak.shape[0]:
        Ak, b = prune_redundant(Ak, b, Ek if Ek.size else None, d if d.size else None)
    return Polyhedron(Ak, b, Ek, d)


def generated_cone_hrep(G, L, n=None) -> Polyhedron:
    """H-representation of {G^T mu + L^T nu : mu >= 0} by eliminating (mu, nu).

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


def intersect(P: Polyhedron, Q: Polyhedron) -> Polyhedron:
    if P.dim != Q.dim:
        raise DimensionMismatch("intersection dimension mismatch")
    return Polyhedron(np.vstack([P.A, Q.A]), np.concatenate([P.b, Q.b]),
                      np.vstack([P.E, Q.E]), np.concatenate([P.d, Q.d]))
