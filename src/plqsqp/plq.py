"""First- and second-order variational calculus for convex piecewise
linear-quadratic functions.

A PLQ function is given by polyhedral pieces C_i with quadratic data
(A_i, a_i, alpha_i); on C_i the value is ½<A_i z, z> + <a_i, z> + alpha_i
and the domain is the union of the pieces.  The calculus implemented
here: projections onto subdifferentials, subderivatives, critical
cones (one polyhedral cone per active piece), second subderivatives, the
second-order model ½ d²g as a PLQ function (its subgradient graph is the
proto-derivative graph of the subgradient mapping), and proximal points.
Each function builds one table (`_PieceTable`) at construction: every
piece's rows stacked with the piece owning each row, and every piece's
least-distance frame, so membership, active rows and subgradient tests
at a point are one product with it, and a bad piece fails there.  They
take row blocks: `subgradient_dist` and `in_subgradient_graph` of (Z, V),
`prox` and `Piece.value` of a block X, and `subderivative` of a block W of
directions at one z, one answer per row.  A 1-D argument is a block of
one, except that a 1-D `prox` keeps its one-point route.  No
subdifferential is built as a set: `subdifferential` projects onto it
through the active pieces' tangent cones (Moreau's identity for dg(z)), at
any m, and membership is a `subgradient_dist` within tolerance.  The load
certificates are exact on the pieces: consistency on the affine hull
of every intersection of two pieces, and convexity from each piece's
curvature on its hull and the gradient jump across every shared facet,
on a domain taken to be convex: its connectedness is checked, its
convexity is not.

DualLQ is the dual representation sup_{u in Omega} {<z,u> - ½<u,Bu>}; it
is kept separate from the piece representation and supports evaluation
and prox only.
"""

import itertools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NotASubgradient,
    PointOutsideDomain,
    Unbounded,
    ValidationError,
)
from .lp import FEAS_TOL, affine_frame, feasible_point, nearest_point, row_groups
from .polyhedral import (
    ACT_TOL,
    MEMBER_TOL,
    NORMAL_TOL,
    PolyCone,
    Polyhedron,
    active_rows,
    contains,
    interior_point,
    normal_cone_dist_at_rows,
    project,
    span_basis,
    tangent_cone,
    tangent_cone_at_rows,
)
from .qp import active_set_qp


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
        if interior_point(self.C) is None:
            raise ValidationError("C nonempty")
        object.__setattr__(self, "A", 0.5 * (A + A.T))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "alpha", float(self.alpha))

    def value(self, z):
        """½<A z, z> + <a, z> + alpha, or per row of a (k, m) block."""
        z = np.asarray(z, dtype=float)
        if z.ndim > 1:
            return 0.5 * np.vecdot(z @ self.A, z) + z @ self.a + self.alpha
        z = z.ravel()
        return 0.5 * float(z @ self.A @ z) + float(self.a @ z) + self.alpha

    def gradient(self, z) -> np.ndarray:
        """A z + a, or per row of a (k, m) block."""
        return (self.A @ np.asarray(z, dtype=float).T).T + self.a


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
        object.__setattr__(self, "_table", _piece_table(self.pieces))

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
        if interior_point(self.Omega) is None:
            raise ValidationError("Omega nonempty")
        object.__setattr__(self, "B", 0.5 * (B + B.T))
        object.__setattr__(self, "_frame", _ldp_frame(self.Omega, self.B, "Omega"))

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

# piece i owns rows start[i]:start[i + 1] of A, act is `active_rows`' threshold
# of each; M z <= hi stacks A z <= b and ±(E z - d) <= 0 at MEMBER_TOL, and
# inc[k, i] says that row k of M belongs to piece i
_PieceTable = namedtuple("_PieceTable", "A b act owner start M hi inc frames")


def _piece_table(pieces) -> _PieceTable:
    Cs = [p.C for p in pieces]
    (A, b, E, d), count = _rows(*Cs), [C.n_ineq for C in Cs]
    owner, eq_owner = (np.repeat(np.arange(len(Cs)), k) for k in (count, [C.n_eq for C in Cs]))
    return _PieceTable(A, b, ACT_TOL * (1.0 + np.abs(b)), owner, np.cumsum([0] + count),
                       np.vstack([A, E, -E]), np.concatenate([b, d, -d]) + MEMBER_TOL,
                       np.concatenate([owner, eq_owner, eq_owner])[:, None] == np.arange(len(Cs)),
                       tuple(_ldp_frame(p.C, p.A, f"piece {i}") for i, p in enumerate(pieces)))


def _membership(g: PLQFunction, z):
    """(piece-membership vector, A z over the table's inequality rows) at z, or
    per row of a (k, m) block: one product with the stacked rows M, whose
    violated rows one boolean product with the incidence carries onto pieces."""
    T = g._table
    MZ = (T.M @ np.asarray(z, dtype=float).T).T
    return ~(~(MZ <= T.hi) @ T.inc), MZ[..., :len(T.b)]


def evaluate(g: PLQFunction, z) -> float:
    """g(z); +inf outside the union of the pieces."""
    z = np.asarray(z, dtype=float).ravel()
    if z.size != g.m:
        raise DimensionMismatch("argument dimension mismatch")
    for i in np.flatnonzero(_membership(g, z)[0]):
        return g.pieces[i].value(z)
    return np.inf


def active_indices(g: PLQFunction, z) -> list:
    """I(z) = {i : z in C_i}; raises when z is outside the domain."""
    idx = [int(i) for i in np.flatnonzero(_membership(g, z)[0])]
    if not idx:
        raise PointOutsideDomain("z lies outside dom g")
    return idx


def _piece_dists(g: PLQFunction, member, active, Z, V) -> list:
    """[(i, J_i, V_i, dist(V_i, N_{C_i}(z)))] over the pieces in `member`, with
    V_i = V - A_i Z - a_i, for a point Z or a block of points that share those
    pieces and the table's `active` rows: one normal-cone product per piece."""
    T = g._table
    out = []
    for i in np.flatnonzero(member):
        J = np.flatnonzero(active[T.start[i]:T.start[i + 1]]).tolist()
        Vi = V - g.pieces[i].gradient(Z)
        out.append((int(i), J, Vi, normal_cone_dist_at_rows(g.pieces[i].C, J, Vi)))
    return out


def _normal_dists(g: PLQFunction, z, v) -> list:
    """`_piece_dists` over the pieces holding z, with v_i = v - A_i z - a_i and
    J_i the rows of C_i active at z, membership and activity both read off the
    one product of `_membership`."""
    z = np.asarray(z, dtype=float).ravel()
    member, Az = _membership(g, z)
    if not member.any():
        raise PointOutsideDomain("z lies outside dom g")
    return _piece_dists(g, member, g._table.b - Az <= g._table.act, z,
                        np.asarray(v, dtype=float).ravel())


def subgradient_dist(g: PLQFunction, z, v):
    """max over active pieces of dist(v - A_i z - a_i, N_{C_i}(z)) (`_normal_dists`).
    Row blocks (Z, V) give one distance per row: rows grouped by their pieces
    and active rows (the mask's bytes) take one `_piece_dists` per group."""
    Z, V = np.asarray(z, dtype=float), np.asarray(v, dtype=float)
    if Z.ndim == 1:
        return max(dist for *_, dist in _normal_dists(g, Z, V))
    T = g._table
    member, AZ = _membership(g, Z)
    if not member.any(axis=1).all():
        raise PointOutsideDomain("a point of the block lies outside dom g")
    dist = np.empty(len(Z))
    for mask, rows in row_groups(np.hstack([member, T.b - AZ <= T.act])):
        dist[rows] = np.max([d for *_, d in _piece_dists(
            g, mask[:len(g.pieces)], mask[len(g.pieces):], Z[rows], V[rows])], axis=0)
    return dist


def _tangents(g: PLQFunction, z) -> list:
    """[(T_{C_i}(z), A_i z + a_i)] over the pieces active at z, kept on g for
    the last z, keyed by its bytes, so many directions or points at one z
    build them once."""
    z = np.asarray(z, dtype=float).ravel()
    key = z.tobytes()
    memo = getattr(g, "_tangent_memo", None)
    if memo is None or memo[0] != key:
        memo = (key, [(tangent_cone(g.pieces[i].C, z), g.pieces[i].gradient(z))
                      for i in active_indices(g, z)])
        object.__setattr__(g, "_tangent_memo", memo)
    return memo[1]


def subdifferential(g: PLQFunction, z, u) -> np.ndarray:
    """The point of ∂g(z) nearest u, or one point per row of a (k, m) block.

    The subderivative dg(z) is the support function of ∂g(z) (Rockafellar
    & Wets, *Variational Analysis*, 8.30), so by Moreau's identity the
    projection is u - prox_{dg(z)}(u).  dg(z) is <s_i, w> on the tangent
    cone T_i of each active piece, s_i = A_i z + a_i (`_tangents`), so the
    prox is the best of w_i = `project`(T_i, u - s_i), each valued
    <s_i, w_i> + ½||w_i - u||², ties to the lower piece index.  No
    H-representation is built, and m is not capped.
    """
    U = np.asarray(u, dtype=float)
    W, best = np.zeros_like(U), np.full(U.shape[:-1], np.inf)
    for T, s in _tangents(g, z):
        Wi = project(T, U - s)
        D = Wi - U
        val = Wi @ s + 0.5 * np.vecdot(D, D)
        better = val < best  # strict, so a tie keeps the lower index
        W, best = np.where(better[..., None], Wi, W), np.where(better, val, best)
    return U - W


def subderivative(g: PLQFunction, z, w):
    """dg(z)(w): <A_i z + a_i, w> on the tangent cone of the first active piece
    holding w (`_tangents`), else +inf; a (k, m) block of directions gives one
    value per row."""
    W = np.asarray(w, dtype=float)
    value = np.full(W.shape[:-1], np.inf)
    for T, grad in reversed(_tangents(g, z)):  # so the first cone holding a row writes last
        value = np.where(contains(T, W), np.vecdot(W, grad), value)
    return value if W.ndim > 1 else float(value)


def piece_critical_cones(g: PLQFunction, z, v):
    """[(i, K_{C_i}(z, v_i))] for active pieces, v_i = v - A_i z - a_i: each
    T_{C_i}(z) from the table's active rows cut by v_i^T w = 0 (`tangent_cone_at_rows`),
    after one normal-cone NNLS per piece bounded by NORMAL_TOL (`_normal_dists`)."""
    normals = _normal_dists(g, z, v)
    if max(dist for *_, dist in normals) > NORMAL_TOL:
        raise NotASubgradient("v is not a subgradient of g at z")
    return [(i, tangent_cone_at_rows(g.pieces[i].C, J, vi)) for i, J, vi, _ in normals]


def second_subderivative(g: PLQFunction, z, v, w) -> float:
    """d^2 g(z, v)(w): the piece quadratic form on the critical cone, else +inf."""
    return second_form(g, piece_critical_cones(g, z, v), w)


def second_form(g: PLQFunction, cones, w) -> float:
    """w^T A_i w for the first (i, K) of `piece_critical_cones` with w in K,
    else +inf: d^2 g(z, v)(w) from cones already built at (z, v)."""
    w = np.asarray(w, dtype=float).ravel()
    for i, K in cones:
        if contains(K, w):
            return float(w @ g.pieces[i].A @ w)
    return np.inf


def second_order_model(g: PLQFunction, z, v) -> PLQFunction:
    """h = ½ d²g(z, v) as a PLQ function: piece k is (K_i, A_i, 0, 0) for the
    k-th (i, K_i) of `piece_critical_cones`, so piece k of h is the k-th
    index of `active_indices(g, z)`.  gph dh is the graph of the
    proto-derivative D(dg)(z, v) (Rockafellar & Wets, *Variational
    Analysis*, 13.40), which gph dg - (z, v) coincides with near (z, v)."""
    return PLQFunction(g.m, [Piece(K, g.pieces[i].A, np.zeros(g.m), 0.0)
                             for i, K in piece_critical_cones(g, z, v)])


def in_subgradient_graph(f: PLQFunction, z, v):
    """Whether (z, v) lies in gph df: z in dom f and `subgradient_dist` <= 1e-8;
    row blocks (Z, V) give one boolean per row."""
    Z, V = np.asarray(z, dtype=float), np.asarray(v, dtype=float)
    inside = _membership(f, Z)[0].any(axis=-1)
    if Z.ndim == 1:
        return bool(inside and subgradient_dist(f, Z, V) <= 1e-8)
    inside[inside] = subgradient_dist(f, Z[inside], V[inside]) <= 1e-8
    return inside


def proto_derivative_contains(g: PLQFunction, z, v, w, u) -> bool:
    """Whether u lies in D(dg)(z, v)(w), that is u in dh(w) for the
    `second_order_model` h at (z, v)."""
    return in_subgradient_graph(second_order_model(g, z, v), w, u)


# ---------------------------------------------------------------------------
# proximal mappings
# ---------------------------------------------------------------------------

def _ldp_frame(C: Polyhedron, M, label):
    """(z0, G, ldp, Q z0), built with each PLQFunction's table and each DualLQ,
    that make argmin ½<Qz, z> + <c, z> over C, Q = M + I, a projection.

    z0 = E⁺d, N spans null(E) (`affine_frame`), L Lᵀ = Nᵀ Q N and
    G = N L⁻ᵀ; then z = z0 + G y makes the objective ½||y - y_u||² plus a
    constant, y_u = -Gᵀ(Q z0 + c), and C becomes {y : A G y <= b - A z0},
    whose arrays and `affine_frame` are `ldp` (None when null(E) = {0}).
    Only Nᵀ Q N need be positive definite, so A may be indefinite off the
    equalities; when it is not (an equality held as two inequalities),
    building or loading g raises ValidationError.
    """
    pinv, N, AN = affine_frame(C.A, C.E)
    z0 = pinv @ C.d
    Q = M + np.eye(C.dim)
    try:
        L = np.linalg.cholesky(N.T @ Q @ N)
    except np.linalg.LinAlgError as exc:
        raise ValidationError(f"{label}: its quadratic term plus I is not positive "
                              "definite on the null space of its equality rows") from exc
    k = N.shape[1]
    AG, no_rows = np.linalg.solve(L, AN.T).T, np.zeros((0, k))
    ldp = (AG, C.b - C.A @ z0, no_rows, np.zeros(0), affine_frame(AG, no_rows)) if k else None
    return z0, np.linalg.solve(L, N.T).T, ldp, Q @ z0


def prox(g: PLQFunction, x, near=None) -> np.ndarray:
    """argmin_z g(z) + ½||x - z||^2, one projection per piece (`_ldp_frame`).

    Each piece's value is bounded below by its least value on its
    equalities' hull.  The pieces holding `near` go first, in index order,
    each bounded when reached; then the rest best bound first, ties to the
    lower index, bounded only now.  A piece bounded above the incumbent is
    skipped.  Each point valued at most the incumbent's + 1e-12 takes the
    exact subgradient test x - z in dg(z); the first to pass is the unique
    prox point, so `near` changes only the order.  When none passes
    (rounding), the least value wins, ties to the lowest index.  A
    non-finite x raises DimensionMismatch.  A (k, m) block x gives one
    point per row (`_prox_rows`), `near` a point or a block of hints.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DimensionMismatch("prox argument must be finite")
    if x.ndim > 1:
        return _prox_rows(g, x, near)
    x = x.ravel()

    def bounded(idx):  # (bound, index, y_u)
        p, (z0, G, _, Qz0) = g.pieces[idx], g._table.frames[idx]
        y_u = G.T @ (x - Qz0 - p.a)
        z_u = z0 + G @ y_u
        return p.value(z_u) + 0.5 * float(np.linalg.norm(x - z_u) ** 2), idx, y_u

    def order():
        hinted = np.zeros(len(g.pieces), dtype=bool) if near is None else _membership(g, near)[0]
        yield from map(bounded, np.flatnonzero(hinted))
        yield from sorted(map(bounded, np.flatnonzero(~hinted)), key=lambda e: e[:2])

    best = None
    best_val = np.inf
    best_idx = len(g.pieces)
    for lb, idx, y_u in order():
        if lb > best_val + 1e-12:
            continue  # hinted pieces break the bound order, so skip, not stop
        p, (z0, G, ldp, _) = g.pieces[idx], g._table.frames[idx]
        z = z0 if ldp is None else z0 + G @ nearest_point(*ldp, y_u)
        val = p.value(z) + 0.5 * float(np.linalg.norm(x - z) ** 2)
        if val > best_val + 1e-12:
            continue
        if subgradient_dist(g, z, x - z) <= 1e-10 * (1.0 + np.linalg.norm(x)):
            return z
        if val < best_val - 1e-12 or idx < best_idx:
            best, best_val, best_idx = z, val, idx
    return best


def _prox_rows(g: PLQFunction, X, near) -> np.ndarray:
    """`prox` per row of a (k, m) block X.  Every piece bounds every row in one
    product per piece, and each row orders its pieces as `prox` does, in one
    `lexsort`.  Round r visits each open row's r-th piece: per piece, one block
    `nearest_point` and one block `subgradient_dist`.  The skip and fallback
    rules are `prox`'s, row by row, and a row closes when its test passes."""
    T, (k, m), n = g._table, X.shape, len(g.pieces)
    hinted = np.zeros((k, n), dtype=bool) if near is None \
        else np.broadcast_to(_membership(g, near)[0], (k, n))
    Y, bound = [], np.empty((k, n))
    for i, (p, (z0, G, _, Qz0)) in enumerate(zip(g.pieces, T.frames)):
        Y.append((X - Qz0 - p.a) @ G)
        D = X - (Zu := z0 + Y[i] @ G.T)
        bound[:, i] = p.value(Zu) + 0.5 * np.vecdot(D, D)
    order = np.lexsort((np.where(hinted, 0.0, bound), ~hinted))  # stable: ties by index
    out, best_val, best_idx = np.full((k, m), np.nan), np.full(k, np.inf), np.full(k, n)
    tol, open_ = 1e-10 * (1.0 + np.linalg.norm(X, axis=1)), np.ones(k, dtype=bool)
    for visit in order.T:
        live = open_ & ~(bound[np.arange(k), visit] > best_val + 1e-12)
        for i in np.flatnonzero(np.bincount(visit[live], minlength=n)):
            rows = np.flatnonzero(live & (visit == i))
            z0, G, ldp, _ = T.frames[i]
            Z = np.broadcast_to(z0, (len(rows), m)) if ldp is None \
                else z0 + nearest_point(*ldp, Y[i][rows]) @ G.T
            D = X[rows] - Z
            val = g.pieces[i].value(Z) + 0.5 * np.vecdot(D, D)
            go = ~(val > best_val[rows] + 1e-12)
            rows, Z, D, val = rows[go], Z[go], D[go], val[go]
            hit = subgradient_dist(g, Z, D) <= tol[rows]
            better = hit | (val < best_val[rows] - 1e-12) | (i < best_idx[rows])
            out[rows[better]], best_val[rows[better]] = Z[better], val[better]
            best_idx[rows[better]] = i
            open_[rows[hit]] = False
        if not open_.any():
            break
    return out


def _dual_lq_prox(h: DualLQ, z) -> np.ndarray:
    """prox_{f_{Omega,B}}(z) = z - argmin_{u in Omega} ½<(B+I)u, u> - <z, u>
    (Moreau), one projection in Omega's `_ldp_frame`."""
    z = np.asarray(z, dtype=float).ravel()
    u0, G, ldp, Qu0 = h._frame
    u = u0 if ldp is None else u0 + G @ nearest_point(*ldp, G.T @ (z - Qu0))
    return z - u


def dual_lq_eval_prox(h: DualLQ, z):
    """(f_{Omega,B}(z), prox_{f}(z)).

    The value is the optimum of the concave QP over Omega (+inf when the
    supremum is unbounded), on the QP kernel as B may be singular; the
    prox is `_dual_lq_prox`.
    """
    z = np.asarray(z, dtype=float).ravel()
    O = h.Omega
    try:
        value = -active_set_qp(h.B, -z, O.A, O.b, O.E, O.d).objective
    except Unbounded:
        value = np.inf
    return value, _dual_lq_prox(h, z)


def prox_any(g, x, near=None) -> np.ndarray:
    """Prox for either representation of g; `near` is prox's visiting hint
    (a dual-LQ g has no pieces to order and ignores it)."""
    if isinstance(g, DualLQ):
        return _dual_lq_prox(g, x)
    return prox(g, x, near)


# ---------------------------------------------------------------------------
# certificates (exact validation of user-supplied pieces on a domain taken convex)
# ---------------------------------------------------------------------------

def sample_domain_point(g: PLQFunction, rng, radius=1.0):
    """A random point of dom g, stratified over pieces (each nonempty, so
    its interior point exists)."""
    C = g.pieces[int(rng.integers(len(g.pieces)))].C
    return project(C, interior_point(C) + radius * rng.standard_normal(g.m))


def _rows(*Cs):
    """(A, b, E, d) of the intersection of the polyhedra Cs, rows stacked in order."""
    return (np.vstack([C.A for C in Cs]), np.concatenate([C.b for C in Cs]),
            np.vstack([C.E for C in Cs]), np.concatenate([C.d for C in Cs]))


def _hull(A, b, E, d):
    """(z0, H) for P = {A x <= b, E x = d}: its least-norm point z0
    (`feasible_point`, as `interior_point`) and an orthonormal basis H of
    the directions of aff P, so aff P = z0 + span H; None when P is empty.
    Rows inactive at z0 hold strictly on P, z0 the witness; the implicit
    equalities among the active rows J are those of the cone
    {A_J y <= 0, E y = 0}, whose span is H (`span_basis`)."""
    z0 = feasible_point(A, b, E, d)
    if z0 is None:
        return None
    J = b - A @ z0 <= ACT_TOL * (1.0 + np.abs(b))
    return z0, span_basis(PolyCone.from_rows(A[J], E, len(z0)))


def _apart(g: PLQFunction) -> np.ndarray:
    """apart[i, j]: the bounds that the table's single-coordinate rows put on
    pieces i and j leave a gap above FEAS_TOL of its scale in some coordinate,
    so C_i and C_j do not meet."""
    T, n = g._table, len(g.pieces)
    lo, hi = np.full((n, g.m), -np.inf), np.full((n, g.m), np.inf)
    single = np.flatnonzero(np.count_nonzero(T.A, axis=1) == 1)
    k = np.argmax(T.A[single] != 0.0, axis=1)
    coef, owner = T.A[single, k], T.owner[single]
    bound, up = T.b[single] / coef, coef > 0.0
    np.minimum.at(hi, (owner[up], k[up]), bound[up])
    np.maximum.at(lo, (owner[~up], k[~up]), bound[~up])
    apart = np.zeros((n, n), dtype=bool)
    for k in range(g.m):
        apart |= lo[:, None, k] - hi[None, :, k] \
            > FEAS_TOL * (1.0 + np.abs(lo[:, None, k]) + np.abs(hi[None, :, k]))
    return apart | apart.T


def _meetings(g: PLQFunction) -> list:
    """[(i, j, z0, H)] for the pieces i < j that meet: z0 is the least-norm
    point of F = C_i ∩ C_j and aff F = z0 + span H (`_hull`).  Pairs that
    `_apart` rules out are not built.  Kept on g, as both certificates read it."""
    memo = getattr(g, "_meeting_memo", None)
    if memo is None:
        memo = []
        for i, j in zip(*np.nonzero(np.triu(~_apart(g), 1))):
            hull = _hull(*_rows(g.pieces[i].C, g.pieces[j].C))
            if hull is not None:
                memo.append((int(i), int(j), *hull))
        object.__setattr__(g, "_meeting_memo", memo)
    return memo


def _negligible(x, ref) -> bool:
    """Whether max|x| <= 1e-9 (1 + max|ref|), the scale on which two piece
    values count as equal."""
    return np.abs(x).max(initial=0.0) <= 1e-9 * (1.0 + np.abs(ref).max(initial=0.0))


def check_consistency(g: PLQFunction):
    """Whether the pieces agree wherever two of them meet; (ok, why).

    Exact on the piece table: the quadratic difference (ΔA, Δa, Δα) of
    pieces i and j vanishes on F = C_i ∩ C_j iff it vanishes on aff F =
    z0 + span H (`_meetings`), that is iff Hᵀ ΔA H = 0, Hᵀ(ΔA z0 + Δa) = 0
    and the difference at z0 is 0, each to 1e-9 of piece i's matching term
    (`_negligible`)."""
    for i, j, z0, H in _meetings(g):
        p, q = g.pieces[i], g.pieces[j]
        if not (_negligible(H.T @ (p.A - q.A) @ H, H.T @ p.A @ H)
                and _negligible(H.T @ (p.gradient(z0) - q.gradient(z0)), H.T @ p.gradient(z0))
                and _negligible(p.value(z0) - q.value(z0), p.value(z0))):
            return False, f"pieces {i} and {j} disagree on their intersection, near {z0.tolist()}"
    return True, ""


def check_convexity(g: PLQFunction):
    """Whether g, its pieces consistent (`check_consistency`), is convex; (ok, why).

    Exact on the piece table (Rockafellar & Wets, *Variational Analysis*,
    Def. 10.20; Sun, JOTA 72, 1992): each A_i is positive semidefinite on
    the directions H_i of aff C_i, and across each facet F of two full
    pieces (hull dimension d, the largest) meeting in dimension d - 1 the
    gradient jumps outward: (∇q_j - ∇q_i)·n >= 0 on F, n the unit normal
    of aff F in aff C_i pointing out of C_i (along a row of C_i that holds
    with equality on F).  On z0 + H y the jump is h0 + cᵀy with
    c = Hᵀ(A_j - A_i) n; a c that `_negligible` leaves constant decides by
    h0, else F's rows at z0 + H y with cᵀy <= -h0 - tol must be empty
    (`feasible_point`), tol NORMAL_TOL of the gradients' scale, above the
    FEAS_TOL band of that decision.

    The criterion assumes dom g, the union of the pieces, convex.  Only its
    connectedness is checked: the graph of meeting pairs (`_meetings`) must
    join every piece, as a convex union of closed pieces needs.  A connected
    union may still be nonconvex and pass.
    """
    linked = np.eye(len(g.pieces), dtype=bool)
    for i, j, *_ in _meetings(g):
        linked[i, j] = linked[j, i] = True
    reach = linked[0]
    for _ in g.pieces:
        reach = reach @ linked
    if not reach.all():
        return False, (f"pieces {np.flatnonzero(~reach).tolist()} are not joined to piece 0 "
                       "by meeting pieces, so dom g is not connected")
    hulls = [_hull(*_rows(p.C))[1] for p in g.pieces]
    for i, (p, H) in enumerate(zip(g.pieces, hulls)):
        if not _negligible(np.minimum(np.linalg.eigvalsh(H.T @ p.A @ H), 0.0), H.T @ p.A @ H):
            return False, f"piece {i}: its quadratic term is not positive semidefinite on its hull"
    d = max(H.shape[1] for H in hulls)
    for i, j, z0, H in _meetings(g):
        if H.shape[1] != d - 1 or min(hulls[i].shape[1], hulls[j].shape[1]) < d:
            continue
        p, q, C = g.pieces[i], g.pieces[j], g.pieces[i].C
        tight = C.A[active_rows(C, z0)]  # the rows of C_i that hold with equality on F
        tight = tight[np.linalg.norm(tight @ H, axis=1) <= FEAS_TOL * np.linalg.norm(tight, axis=1)]
        out = hulls[i] @ (hulls[i].T @ tight.T)
        n = out[:, np.argmax(np.linalg.norm(out, axis=0))]
        n = n / np.linalg.norm(n)
        gp, gq = p.gradient(z0) @ n, q.gradient(z0) @ n
        h0, c = gq - gp, H.T @ (q.A - p.A) @ n
        tol = NORMAL_TOL * (1.0 + abs(gp) + abs(gq))
        if _negligible(c, q.A - p.A):
            inward = h0 < -tol
        else:  # rows flat on aff F hold on all of it
            A, b, _, _ = _rows(C, q.C)
            AH = A @ H
            keep = np.linalg.norm(AH, axis=1) > FEAS_TOL * np.linalg.norm(A, axis=1)
            inward = feasible_point(np.vstack([AH[keep], c]),
                                    np.append((b - A @ z0)[keep], -h0 - tol),
                                    np.zeros((0, len(c))), np.zeros(0)) is not None
        if inward:
            return False, (f"pieces {i} and {j}: the gradient jumps inward across their facet "
                           f"near {z0.tolist()}")
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


def plq_quadratic(A) -> PLQFunction:
    """Globally quadratic function ½<Az,z>."""
    A = np.asarray(A, dtype=float)
    m = A.shape[0]
    return PLQFunction(m, [Piece(Polyhedron.whole_space(m), A, np.zeros(m), 0.0)])


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
    m = len(coordinate_pieces)
    pieces = []
    for combo in itertools.product(*[range(len(c)) for c in coordinate_pieces]):
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
