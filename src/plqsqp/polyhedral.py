"""Exact desk-scale polyhedral geometry in H-representation.

A Polyhedron is {x : A x <= b, E x = d}; a PolyCone is the homogeneous
case b = 0, d = 0.  Everything here is built from two exact kernels:
verified nonnegative least squares (the least-distance program of
`lp.nearest_point` for projections and emptiness, implicit equalities,
redundancy and normal-cone distances) and `lp.affine_frame`.  The last two
decide on the null space of the equality rows, so no NNLS carries a free
multiplier, and rows flat there (`lp.flat_rows`) generate nothing.  Values
are immutable and operations pure.  Derived data is memoized on the
polyhedron (`_derived`): its least-norm point, its equality frame (E⁺, a
basis N of null(E) and A N, with the face memo of `lp.nearest_point`),
shared by projections and normal cones, and per activity pattern J its
tangent cone and (A N)_J⁺, since N_P(x) and T_P(x) depend on x only
through the active rows.  The memos are deterministic, so concurrent
calls stay safe; returned cones are shared and must not be written to.
`contains`, `normal_cone_dist_at_rows` and `project` take a (k, n) block
of points, one answer per row.  No runtime path eliminates a variable:
`fourier_motzkin` and the redundancy pruning it calls serve the benchmark's
tracer and the test oracles only.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyPolyhedron,
    NotANormalVector,
    PointNotInSet,
    TooManyRows,
)
from .lp import FEAS_TOL, affine_frame, flat_rows, implicit_equalities, nearest_point
from .nonneg import _OPT_TOL, nonneg_lstsq

ACT_TOL = 1e-8  # row i active iff b_i - A_i x <= ACT_TOL * (1 + |b_i|)
MEMBER_TOL = 1e-9  # x in P iff every row holds within MEMBER_TOL (`contains`)
NORMAL_TOL = 1e-7  # v is normal to P at x iff dist(v, N_P(x)) <= NORMAL_TOL


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


@dataclass(frozen=True)
class Face:
    """Face of a PolyCone: the inequality rows in `active` hold with equality."""

    parent: PolyCone
    active: frozenset = field(default_factory=frozenset)


# ---------------------------------------------------------------------------
# membership / activity
# ---------------------------------------------------------------------------

def contains(P: Polyhedron, x, tol: float = MEMBER_TOL):
    """True iff A x <= b + tol and |E x - d| <= tol componentwise; a (k, n)
    block of points gives one boolean per row."""
    X = np.asarray(x, dtype=float)
    if X.shape[-1:] != (P.dim,):
        raise DimensionMismatch(f"point has shape {X.shape}, set has dim {P.dim}")
    out = (X @ P.A.T - P.b > tol).any(axis=-1)
    if P.n_eq:
        out |= (np.abs(X @ P.E.T - P.d) > tol).any(axis=-1)
    return ~out if X.ndim > 1 else not out


def active_rows(P: Polyhedron, x) -> list:
    """Indices of inequality rows active at x (scale-invariant tolerance)."""
    x = np.asarray(x, dtype=float).ravel()
    if not P.n_ineq:
        return []
    slack = P.b - P.A @ x
    return [i for i in range(P.n_ineq) if slack[i] <= ACT_TOL * (1.0 + abs(P.b[i]))]


def _derived(P: Polyhedron, key, build):
    """build(), computed once per P and key and kept on P."""
    memo = P.__dict__.get("_memo")
    if memo is None:
        memo = {}
        object.__setattr__(P, "_memo", memo)
    if key not in memo:
        memo[key] = build()
    return memo[key]


def interior_point(P: Polyhedron):
    """The least-norm point of P (a fresh copy), or None if P is empty: its
    `nearest_point` to the origin, in the `affine_frame` that `project` keeps."""
    x = _derived(P, "interior", lambda: nearest_point(
        P.A, P.b, P.E, P.d, _derived(P, "frame", lambda: affine_frame(P.A, P.E)),
        np.zeros(P.dim)))
    return None if x is None else x.copy()


# ---------------------------------------------------------------------------
# projection and cones
# ---------------------------------------------------------------------------

def project(P: Polyhedron, z) -> np.ndarray:
    """Nearest point of P to z (unique), or per row of a (k, n) block, by
    `nearest_point` in P's `affine_frame` (kept on P); an empty P raises
    EmptyPolyhedron."""
    z = np.asarray(z, dtype=float)
    z = z if z.ndim == 2 else z.ravel()
    if z.shape[-1] != P.dim:
        raise DimensionMismatch("projection point dimension mismatch")
    frame = _derived(P, "frame", lambda: affine_frame(P.A, P.E))
    x = nearest_point(P.A, P.b, P.E, P.d, frame, z)
    if x is None:
        raise EmptyPolyhedron("cannot project onto an empty polyhedron")
    return x


def tangent_cone(P: Polyhedron, x) -> PolyCone:
    """Tangent cone at x: active inequality rows plus all equality rows."""
    if not contains(P, x):
        raise PointNotInSet("tangent cone requires a point of the set")
    return tangent_cone_at_rows(P, active_rows(P, x))


def normal_cone_dist(P: Polyhedron, x, v) -> float:
    """dist(v, N_P(x)) with N_P(x) = {A_J^T mu + E^T nu : mu >= 0}."""
    if not contains(P, x):
        raise PointNotInSet("normal cone requires a point of the set")
    return normal_cone_dist_at_rows(P, active_rows(P, x), v)


def normal_cone_dist_at_rows(P: Polyhedron, J, v):
    """dist(v, N_P(x)) at an x of P whose active rows are J, one per row of a
    (k, n) block v: min_{μ >= 0} ||Cᵀμ − w|| with C = (A N)_J less its `flat_rows`
    and w = Nᵀv in P's equality frame (E⁺, N, A N), as E's free multipliers meet
    v off N exactly.  The least-squares residual r = Cᵀy − w at y = (C⁺)ᵀw, C⁺
    kept on P per row set ("NF"), bounds it below when C r passes the NNLS
    first-order test; clipped at 0, ||Cᵀy⁺ − w|| bounds it above and is it when
    the two agree to rounding.  A row that misses takes one face step: the rows
    of y >= 0 (and of C r < −_OPT_TOL·scale) give u; if g = C(Cᵀu − w) >= 0, the
    distance is within uᵀg / ||Cᵀu − w|| of ||Cᵀu − w|| (−(Cᵀu − w) is in the
    polar cone), which answers when that is rounding.  Else one verified NNLS."""
    V = np.asarray(v, dtype=float)
    if not (J or P.n_eq):
        return np.sqrt(np.vecdot(V, V)) if V.ndim > 1 else float(np.linalg.norm(V))
    _, N, AN = _derived(P, "frame", lambda: affine_frame(P.A, P.E))

    def face(J):  # (rows of J not flat, C, C⁺, max(1, |C|), rounding: len(C)·eps)
        return _derived(P, ("NF", tuple(J)), lambda: (
            rows := np.asarray(J, dtype=int)[~flat_rows(P.A[J], AN[J])], C := AN[rows],
            affine_frame(C[:0], C)[0], np.abs(C).max(initial=1.0), len(C) * np.finfo(float).eps))
    rows, C, pinv, top, eps = face(J)
    W = V @ N
    Y = W @ pinv
    R = Y @ C - W
    Yp = np.maximum(Y, 0.0)  # below 0 by rounding only, or not
    D = Yp @ C - W
    dist, scale, G = np.sqrt(np.vecdot(D, D)), np.abs(W).max(axis=-1, initial=top), R @ C.T
    ok = (np.abs(G).max(axis=-1, initial=0.0) <= _OPT_TOL * scale) & (dist - np.sqrt(np.vecdot(
        R, R)) <= eps * np.maximum(top * Yp.max(axis=-1, initial=1.0), scale))
    if np.count_nonzero(ok) < ok.size:  # one face step per row that misses, then the NNLS
        (dist, scale, miss), (W, Y, G) = np.atleast_1d(dist, scale, ~ok), np.atleast_2d(W, Y, G)
        for k in np.flatnonzero(miss):
            keep = (Y[k] >= 0.0) | (G[k] < -_OPT_TOL * scale[k])
            u = np.zeros(len(C))
            u[keep] = np.maximum(W[k] @ face(rows[keep].tolist())[2], 0.0)
            dist[k] = np.linalg.norm(r := C.T @ u - W[k])
            tol = eps * max(top * u.max(initial=1.0), scale[k])
            if (g := C @ r).min(initial=0.0) < -top * tol or u @ g > tol * dist[k]:
                dist[k] = nonneg_lstsq(C.T, W[k])[1]
    return dist if V.ndim > 1 else dist.item()


def critical_cone(P: Polyhedron, x, v) -> PolyCone:
    """K_P(x, v) = T_P(x) intersected with the hyperplane v^T w = 0."""
    v = np.asarray(v, dtype=float).ravel()
    if normal_cone_dist(P, x, v) > NORMAL_TOL:
        raise NotANormalVector("v is not a normal vector at x")
    return tangent_cone_at_rows(P, active_rows(P, x), v)


def tangent_cone_at_rows(P: Polyhedron, J, v=None) -> PolyCone:
    """T_P(x) at an x of P whose active rows are J, kept on P per J; cut by
    v^T w = 0 unless v is None or ||v|| <= NORMAL_TOL: the critical cone K_P(x, v)."""
    T = _derived(P, ("T", tuple(J)), lambda: PolyCone.from_rows(P.A[J], P.E, P.dim))
    if v is None or np.linalg.norm(v) <= NORMAL_TOL:
        return T
    return PolyCone.from_rows(T.A, np.vstack([T.E, v.reshape(1, -1)]), P.dim)


def normal_cone_generators(P: Polyhedron, x):
    """(G, L): N_P(x) = {G^T mu + L^T nu : mu >= 0}; rows of G and L."""
    J = active_rows(P, x)
    G = P.A[J] if J else np.zeros((0, P.dim))
    return G, P.E


# ---------------------------------------------------------------------------
# faces, rays, spans
# ---------------------------------------------------------------------------

def _forced_active(cone: PolyCone, fixed) -> frozenset:
    """Rows that hold with equality on all of the face with `fixed` active."""
    _, _, M = affine_frame(cone.A, np.vstack([cone.E, cone.A[sorted(fixed)]]))
    zero = [k for k in range(cone.n_ineq) if np.linalg.norm(M[k]) <= 1e-12]
    free = [k for k in range(cone.n_ineq) if k not in fixed]
    return frozenset(fixed) | frozenset(zero) | frozenset(implicit_equalities(M, free)[0])


def enumerate_faces(cone: PolyCone, cap: int = 1024) -> list:
    """All faces of the cone, each keyed by its forced-active row set.

    A closure walk over the face lattice: start from the closure of no
    rows (the cone itself), and from each new key F try the closure of
    F plus one more row.  Every face is reached, and the cost grows with
    the number of faces, not with 2^rows.  The first face is the cone
    itself and the list contains its lineality space.  `cap` counts faces:
    more raise TooManyRows.  When the k rows free after the first closure
    are independent on its equality space, each key plus one row is its own
    closure: the 2^k faces need no more closures, and 2^k > cap raises at once.
    """
    walk = [_forced_active(cone, frozenset())]
    free = [k for k in range(cone.n_ineq) if k not in walk[0]]
    simplicial = False
    if 0 < len(free) <= cone.dim:  # else no closure is left, or the rows are dependent
        _, _, M = affine_frame(cone.A[free], np.vstack([cone.E, cone.A[sorted(walk[0])]]))
        simplicial = affine_frame(M[:0], M)[1].shape[1] == M.shape[1] - len(free)
    if simplicial and 2 ** len(free) > cap:
        raise TooManyRows(f"a simplicial cone with 2^{len(free)} faces exceeds {cap} faces")
    seen = set(walk)
    for key in walk:
        for j in range(cone.n_ineq):
            if j in key:
                continue
            child = key | {j} if simplicial else _forced_active(cone, key | {j})
            if child not in seen:
                if len(walk) >= cap:
                    raise TooManyRows(f"more than {cap} faces")
                seen.add(child)
                walk.append(child)
    return [Face(cone, key) for key in walk]


def span_basis(cone: PolyCone) -> np.ndarray:
    """Orthonormal basis of span(K) = K - K for a polyhedral convex cone."""
    _, N, M = affine_frame(cone.A, cone.E)
    implicit, _ = implicit_equalities(M)
    # N and null(M[implicit]) have orthonormal columns, so their product does too
    return affine_frame(N, M[implicit])[2]


def lineality_basis(cone: PolyCone) -> np.ndarray:
    """Orthonormal basis of K intersect -K = {w : Aw = 0, Ew = 0}."""
    return affine_frame(cone.A[:0], np.vstack([cone.A, cone.E]))[1]


def cone_rays(cone: PolyCone):
    """(rays, lineality): the extreme rays of K modulo its lineality space.

    A ray is a face one dimension above the lineality space, taken from
    `enumerate_faces` (whose face cap applies).  Each is returned as a
    unit vector orthogonal to the lineality space and signed into K;
    together with the lineality basis the rays span the cone.
    """
    L = lineality_basis(cone)
    rays = []
    for face in enumerate_faces(cone):
        _, N, LN = affine_frame(L.T, np.vstack([cone.E, cone.A[sorted(face.active)]]))
        if N.shape[1] != L.shape[1] + 1:
            continue
        # the one direction of the face orthogonal to the lineality space;
        # rows off the face are <= 0 on it, and one of them is < 0
        Nperp = N - L @ LN
        u = Nperp[:, int(np.argmax(np.linalg.norm(Nperp, axis=0)))]
        u = u / np.linalg.norm(u)
        rays.append(u if np.sum(cone.A @ u) < 0 else -u)
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

    def member_contains(self, v) -> bool:
        if self.kind == "subspace":
            v = np.asarray(v, dtype=float).ravel()
            return bool(np.linalg.norm(v - self.basis @ (self.basis.T @ v)) <= MEMBER_TOL)
        return any(contains(m, v) for m in self.members)


def project_cone_union(family: ConeFamily, v) -> np.ndarray:
    """Nearest point of the family to v; exact memberwise comparison.

    Ties between union members (distances within 1e-12 ||v||) are broken
    by listed order, matching the deterministic-trace convention used
    throughout the toolkit; the tolerance is relative, so the choice does
    not change when v is scaled.
    """
    v = np.asarray(v, dtype=float).ravel()
    if not v.any():  # every member is a cone, so each projects 0 to 0
        return np.zeros_like(v)
    if family.kind == "subspace":
        return family.basis @ (family.basis.T @ v)
    best = None
    best_dist = np.inf
    tie = 1e-12 * float(np.linalg.norm(v))
    for m in family.members:
        p = project(m, v)
        dist = np.linalg.norm(v - p)
        if dist < best_dist - tie:
            best, best_dist = p, dist
    return best


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination (the test oracles' H-representations)
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


def prune_redundant(A, b, E, d):
    """Remove inequality rows implied by the rest of {A x <= b, E x = d}.

    Rows (a_j, b_j) and (e_k, d_k) are scaled to ||a_j|| = 1, then every
    right-hand side is divided by σ = 1 + the largest, so a residual reads
    a gap relative to the data's scale.  Row i goes when A_Oᵀu + Eᵀv = a_i
    and b_Oᵀu + dᵀv + s = b_i with u, s >= 0 over the kept rows O (affine
    Farkas); v leaves on the null space of the equality columns, where
    `flat_rows` generate nothing: one verified NNLS, residual <= FEAS_TOL (1 + ||(a_i, b_i)||).
    """
    norms = np.linalg.norm(np.vstack([A, E]), axis=1)
    cols = np.vstack([np.vstack([A, E]).T, np.r_[b, d]]) / np.where(norms > 0.0, norms, 1.0)
    cols[-1] /= 1.0 + np.abs(cols[-1, norms > 0.0]).max(initial=0.0)
    G = np.vstack([cols[:, :len(b)].T, np.eye(len(cols))[-1]])  # the rows' columns, then s's
    live = ~flat_rows(G, M := affine_frame(G, cols[:, len(b):].T)[2])
    keep = list(range(len(b)))
    i = 0
    while i < len(keep):
        k = keep[i]
        _, res = nonneg_lstsq(M[[j for j in keep + [len(b)] if j != k and live[j]]].T, M[k])
        if res <= FEAS_TOL * (1.0 + np.linalg.norm(cols[:, k])):
            keep.pop(i)
        else:
            i += 1
    return A[keep], b[keep]


def fourier_motzkin(A, b, E, d, keep) -> Polyhedron:
    """Project {y : A y <= b, E y = d} onto the coordinates in `keep`.

    Equalities are used as Gaussian pivots first; remaining variables are
    eliminated by pairing opposite-sign inequality rows.  Redundant rows
    are pruned (`prune_redundant`) to control growth.
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
        if A.shape[0] > 2 * N + 4:
            A, b = prune_redundant(A, b, E, d)

    # all eliminated columns must now be zero
    if elim:
        if A.size and np.abs(A[:, elim]).max(initial=0.0) > 1e-9:
            raise DimensionMismatch("elimination left residual coefficients")
        if E.size and np.abs(E[:, elim]).max(initial=0.0) > 1e-9:
            raise DimensionMismatch("elimination left residual equality coefficients")
    Ak = A[:, keep] if A.size else np.zeros((0, len(keep)))
    Ek = E[:, keep] if E.size else np.zeros((0, len(keep)))
    Ak, b = _dedup_rows(Ak, b) if Ak.size else (np.zeros((0, len(keep))), b[:0])
    if Ak.shape[0]:
        Ak, b = prune_redundant(Ak, b, Ek, d)
    return Polyhedron(Ak, b, Ek, d)
