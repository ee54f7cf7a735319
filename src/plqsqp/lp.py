"""Nearest points and implicit equalities of polyhedra, by verified NNLS.

`nearest_point` is the one feasibility route, `implicit_equalities`
decides the homogeneous systems that `LPBuilder` lays out, and
`affine_frame` is the one SVD behind every null space, pseudo-inverse,
least-squares point and rank decision of the package; a frame keeps its
face pseudo-inverses per row set, so most nearest points are one or two
products, certified by their multipliers.  `nearest_point` also takes a
(k, n) block of points: one face product per group of rows that violate
the same rows (`row_groups`).  An answer that does not verify raises
`SolverFailure`.  `solve_lp` (HiGHS, free variables) runs on no
path of the package: the benchmark's tracer and the test oracles read it.
"""

import numpy as np
from scipy.optimize import linprog

from .errors import SolverFailure
from .nonneg import nonneg_lstsq

LP_OPTIMAL = 0
LP_INFEASIBLE = 2
LP_UNBOUNDED = 3
ZERO_BLOCK = 1e-9  # largest singular value of a block that is zero on a cone
FEAS_TOL = 1e-9  # a row holds within FEAS_TOL of its rounding scale (`nearest_point` and cones)


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None):
    """Minimize c @ x over {A_ub x <= b_ub, A_eq x = b_eq}, all variables free.

    Returns (status, x, objective) with status one of LP_OPTIMAL,
    LP_INFEASIBLE, LP_UNBOUNDED; x is None unless optimal.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    kw = {}
    if A_ub is not None and len(A_ub) > 0:
        kw["A_ub"] = np.asarray(A_ub, dtype=float).reshape(-1, n)
        kw["b_ub"] = np.asarray(b_ub, dtype=float).ravel()
    if A_eq is not None and len(A_eq) > 0:
        kw["A_eq"] = np.asarray(A_eq, dtype=float).reshape(-1, n)
        kw["b_eq"] = np.asarray(b_eq, dtype=float).ravel()
    res = linprog(c, bounds=[(None, None)] * n, method="highs", **kw)
    if res.status == 0:
        return LP_OPTIMAL, np.asarray(res.x, dtype=float), float(res.fun)
    if res.status == 2:
        return LP_INFEASIBLE, None, np.inf
    if res.status == 3:
        return LP_UNBOUNDED, None, -np.inf
    raise SolverFailure(f"linprog failed with status {res.status}: {res.message}")


class Frame(tuple):
    """(E⁺, N, A N) with `faces`: (C, C⁺) per row mask J of A, C = [A_J; E]."""

    def __new__(cls, pinv, N, AN):
        frame = super().__new__(cls, (pinv, N, AN))
        frame.faces = {}
        return frame


def affine_frame(A, E):
    """(E⁺, N, A N): the pseudo-inverse of E, an orthonormal basis N of
    null(E), and the rows of A on it, as a `Frame`.  One SVD, with the rank
    cutoff of `lstsq` (max(E.shape)·eps·s₀); without rows, E⁺ is empty and N = I.

    This is the one SVD of the package: every null space, pseudo-inverse,
    least-squares point and rank decision in it (equality and face frames,
    span bases, the QP kernel's working sets, D⁺, dual uniqueness) reads it."""
    if not len(E):  # the SVD's answer, at a fraction of its call overhead
        return Frame(np.zeros((E.shape[1], 0)), np.eye(E.shape[1]), A @ np.eye(E.shape[1]))
    U, s, Vt = np.linalg.svd(E)
    rank = int(np.sum(s > max(E.shape) * np.finfo(float).eps * s.max(initial=0.0)))
    N = Vt[rank:].T
    return Frame(Vt[:rank].T @ (U[:, :rank].T / s[:rank, None]), N, A @ N)


def flat_rows(A, AN):
    """||(A N)_j|| <= FEAS_TOL ||A_j||: row j is in the span of E's rows, and generates nothing."""
    return np.linalg.norm(AN, axis=1) <= FEAS_TOL * np.linalg.norm(A, axis=1)


def _holds(M, r, x, z, gap, floor):
    """Whether gap(M x - r) <= FEAS_TOL (floor + |r| + |M| (|x| + |z|)) row by
    row, or per point of (k, n) blocks x and z."""
    if not len(M):
        return True
    excess = gap((M @ x.T).T - r)
    return excess.max() <= FEAS_TOL * floor or np.all(excess <= FEAS_TOL * (
        floor + np.abs(r) + (np.abs(M) @ (np.abs(x) + np.abs(z)).T).T), axis=-1)


def row_groups(masks):
    """[(mask, rows)]: the rows of a (k, p) boolean block grouped by their mask
    (its bytes), in the order each mask first appears."""
    groups = {}
    for k, mask in enumerate(masks):
        groups.setdefault(mask.tobytes(), []).append(k)
    return [(masks[rows[0]], np.asarray(rows)) for rows in groups.values()]


def _face_point(A, b, E, d, frame, z, J):
    """(x, y): x = z - C⁺(C z - r), nearest z on {A_J x = b_J, E x = d} if
    that is not empty, and the least-norm y with z - x = Cᵀy (`Frame.faces`);
    per row of a (k, n) block z."""
    if (key := J.tobytes()) not in frame.faces:
        frame.faces[key] = (C := np.vstack([A[J], E])), affine_frame(C[:0], C)[0]
    C, pinv = frame.faces[key]
    step = (pinv @ ((C @ z.T).T - np.concatenate([b[J], d])).T).T
    return z - step, step @ pinv


def nearest_point(A, b, E, d, frame, z):
    """The point of {A x <= b, E x = d} nearest z, or None when the set is empty.

    One least-distance program (Lawson & Hanson, *Solving Least Squares
    Problems*, 1974, ch. 23) in the set's `affine_frame` (E⁺, N, A N).
    x0 = z - E⁺(E z - d) meets the equalities, and x = x0 + N w.  If x0
    violates no row of h = A x0 - b, it is the answer.  Else the face point
    x of the rows V it violates (`_face_point`) is the answer if y_V >= 0,
    A_V x = b_V, E x = d and A x <= b, each row to FEAS_TOL of its own
    scale: a KKT certificate, positively homogeneous on a cone.  Else one
    active-set step gives a second face J: V without its rows of y < 0,
    plus the rows outside V that x violates; J's face point answers under
    the same certificate (skipped when J is empty, as its point is x0, or
    is V again).  Else one verified NNLS solve on [-(A N)ᵀ; hᵀ / ||h||]
    against the last unit vector answers min ||w|| s.t. -(A N) w >= h; the
    positive entries of its u are the rows active at the answer, whose face
    point it then is.

    Every answer is verified: a point only when it lies in the set
    (`_holds`, floor 1 after the NNLS).  The set is empty when x0 misses
    E x = d, or when u is a Farkas vector, (A N)ᵀu = 0 < hᵀu: ||(A N)ᵀu||
    within FEAS_TOL of its scale ||A N|| ||u||, and hᵀu above the rows'
    tolerances uᵀtol.  A row with A N = 0 (to FEAS_TOL) is constant on
    E x = d: x0 decides it, and the program is solved again without such
    rows.  Else `SolverFailure`.

    A (k, n) block z answers with a (k, n) block, or None when the set is
    empty (`_nearest_rows`).
    """
    if z.ndim > 1:
        return _nearest_rows(A, b, E, d, frame, z)
    pinv, N, AN = frame
    x0 = z - pinv @ (E @ z - d)
    if not _holds(E, d, x0, z, np.abs, 1.0):
        return None
    h = A @ x0 - b
    V = h > 0.0
    if not V.any():
        return x0
    for _ in range(2):  # V's face, then one active-set step from it
        x, y = _face_point(A, b, E, d, frame, z, V)
        k = np.count_nonzero(V)
        if y[:k].min() >= 0.0 and _holds(E, d, x, z, np.abs, 0.0) \
                and _holds(A, b, x, z, lambda r: np.where(V, np.abs(r), r), 0.0):
            return x
        J = ~V & (A @ x > b)
        J[V] = y[:k] >= 0.0
        if not J.any() or np.array_equal(J, V):
            break
        V = J
    u, _ = nonneg_lstsq(np.vstack([-AN.T, h / np.linalg.norm(h)]), np.eye(AN.shape[1] + 1)[-1])
    x = _face_point(A, b, E, d, frame, z, u > 0.0)[0]
    if _holds(A, b, x, z, lambda r: r, 1.0) and _holds(E, d, x, z, np.abs, 1.0):
        return x
    tol = FEAS_TOL * (1.0 + np.abs(b) + np.abs(A) @ (np.abs(x0) + np.abs(z)))
    farkas = np.linalg.norm(AN.T @ u) <= FEAS_TOL * np.linalg.norm(AN) * np.linalg.norm(u)
    flat = flat_rows(A, AN)
    if farkas and u @ tol < h @ u or np.any(flat & (h > tol)):
        return None
    if np.any(flat & (h > 0.0)):  # their columns (0, h_i / ||h||) misled u
        return nearest_point(A[~flat], b[~flat], E, d, Frame(pinv, N, AN[~flat]), z)
    raise SolverFailure("nearest point: neither the face point nor the Farkas vector verifies")


def _nearest_rows(A, b, E, d, frame, Z):
    """`nearest_point` of each row of a (k, n) block Z: x0 per row, then the
    rows grouped by the rows V their x0 violates (`row_groups`), one face
    product per group (`_face_point`) and its certificate row by row.  A row
    that misses takes the one-point route; None when the set is empty."""
    X = Z - ((E @ Z.T).T - d) @ frame[0].T
    if not np.all(_holds(E, d, X, Z, np.abs, 1.0)):
        return None
    for V, rows in row_groups((A @ X.T).T > b):
        if not V.any():
            continue
        x, y = _face_point(A, b, E, d, frame, Z[rows], V)
        ok = (y[:, :np.count_nonzero(V)].min(axis=1) >= 0.0) \
            & _holds(E, d, x, Z[rows], np.abs, 0.0) \
            & _holds(A, b, x, Z[rows], lambda r: np.where(V, np.abs(r), r), 0.0)
        X[rows] = x
        for k in rows[~ok]:
            if (x := nearest_point(A, b, E, d, frame, Z[k])) is None:
                return None
            X[k] = x
    return X


def feasible_point(A, b, E, d):
    """The least-norm point of {A x <= b, E x = d}, or None (`nearest_point`)."""
    return nearest_point(A, b, E, d, affine_frame(A, E), np.zeros(A.shape[1]))


def implicit_equalities(M, rows=None):
    """(implicit, y): the nonzero rows k of `rows` (default all) with M[k] y = 0
    on all of {y : M y <= 0}, and a point y there with M[k] y <= -1 on the rest.

    Rows of norm > 1e-12 whose |cos| is within FEAS_TOL of 1 are compared
    by their unit normals first, to FEAS_TOL: a row with a negative multiple
    among them is implicit, and so is its partner, and positive multiples
    are one class.  The lines of the opposite rows are taken out in their
    `affine_frame` N, so no NNLS sees an opposite pair of columns.  Then
    Gordan's alternative decides each undecided row k (Lawson & Hanson,
    ch. 23): with G one row per other class, opposite rows and rows flat on
    N left out, r = G^T u + M[k] on N at the least u >= 0 (u = 0 without
    the NNLS when G M[k] >= 0) is 0 (k implicit), or c = -N r/||r|| has
    M c <= 0 > M[k] c and decides every row it holds strictly.  Both are
    verified to FEAS_TOL of the row norms, else `SolverFailure`; y is the
    scaled sum of the latter.
    """
    norms = np.linalg.norm(M, axis=1)
    live = norms > 1e-12  # rows a null-space basis zeroed generate nothing
    rows = [k for k in (range(len(M)) if rows is None else rows) if live[k]]
    if not rows:
        return [], np.zeros(M.shape[1])
    kind = np.where(live, np.arange(len(M)), -1)  # the first row of each live row's class
    paired = np.zeros(len(M), dtype=bool)  # the rows with a negative multiple
    N, MN, columns = np.eye(M.shape[1]), M, live  # columns: one row per class, unpaired
    i = j = ()
    if np.count_nonzero(live) > 1:  # the live pairs i < j with |cos| near 1
        U = M / np.where(live, norms, 1.0)[:, None]
        i, j = np.nonzero(np.abs(U @ U.T) >= 1.0 - FEAS_TOL)
        i, j = i[i < j], j[i < j]
    if len(i):  # the FEAS_TOL tests
        same = np.linalg.norm(U[i] - U[j], axis=1) <= FEAS_TOL
        facing = np.linalg.norm(U[i] + U[j], axis=1) <= FEAS_TOL
        np.minimum.at(kind, j[same], i[same])
        paired[i[facing]] = paired[j[facing]] = True
        lines = paired.copy()  # one normal per line: rounding between copies is no direction
        lines[j[same | facing]] = False
        if not paired[rows].all():  # else every row asked about is decided
            _, N, MN = affine_frame(M, U[lines])
        columns = (kind == np.arange(len(M))) & ~paired & ~flat_rows(M, MN)
    asked, strict = np.zeros(len(M), dtype=bool), np.zeros(len(M), dtype=bool)
    asked[rows] = True
    tol, equal, y = FEAS_TOL * norms, set(kind[paired]), np.zeros(M.shape[1])
    bound = np.where(live, tol, np.inf)  # no row may exceed it at a certificate
    for k in rows:
        if strict[k] or kind[k] in equal:
            continue
        G = MN[columns & (kind != kind[k])]
        r = MN[k] if not len(G) or (G @ MN[k]).min() >= 0.0 \
            else G.T @ nonneg_lstsq(G.T, -MN[k])[0] + MN[k]
        length = np.sqrt(r.dot(r))  # np.linalg.norm(r), without its checks
        if length <= tol[k]:
            equal.add(kind[k])  # -M[k] = G^T u on N: an implicit equality
            continue
        c = -N @ r / length
        Mc = M @ c
        if not (Mc[k] < -tol[k] and (Mc <= bound).all()):
            raise SolverFailure(f"implicit equalities: no answer for row {k} verifies")
        strict |= asked & (Mc < -tol)
        y += c
    top = max((M[k] @ y for k in np.flatnonzero(strict)), default=-1.0)
    if top >= 0.0:
        raise SolverFailure("implicit equalities: summed certificates cancel on a strict row")
    return [k for k in rows if not strict[k]], y / -top


class LPBuilder:
    """Dense linear system over named blocks of columns.

    `sizes` lists (name, width) in column order.  Each `add_eq`/`add_ub`
    adds k rows at once: `parts` maps block names to coefficients (a
    vector for one row, a k-row matrix for k rows; a scalar broadcasts),
    and columns outside the named blocks are zero.
    """

    def __init__(self, sizes):
        self.offsets = {}
        off = 0
        for name, size in sizes:
            self.offsets[name] = (off, off + size)
            off += size
        self.nvar = off
        self._eq, self._ub = [], []  # (rows, rhs) per call

    def _rows(self, parts, rhs):
        blocks = {name: np.atleast_2d(np.asarray(block, dtype=float))
                  for name, block in parts.items()}
        rows = np.zeros((max(b.shape[0] for b in blocks.values()), self.nvar))
        for name, block in blocks.items():
            lo, hi = self.offsets[name]
            rows[:, lo:hi] = block
        return rows, np.broadcast_to(np.asarray(rhs, dtype=float), rows.shape[:1])

    def add_eq(self, parts, rhs=0.0):
        self._eq.append(self._rows(parts, rhs))

    def add_ub(self, parts):
        self._ub.append(self._rows(parts, 0.0))

    def add_nonneg(self, name):
        """Every coordinate of block `name` is nonnegative."""
        lo, hi = self.offsets[name]
        self.add_ub({name: np.diag(np.full(hi - lo, -1.0))})

    def system(self):
        """(A_ub, b_ub, A_eq, b_eq), rows in the order added."""
        def stack(calls):
            if not calls:
                return np.zeros((0, self.nvar)), np.zeros(0)
            return np.vstack([r for r, _ in calls]), np.concatenate([b for _, b in calls])
        return (*stack(self._ub), *stack(self._eq))

    def block(self, x, name):
        lo, hi = self.offsets[name]
        return x[lo:hi]

    def nonzero_block(self, name):
        """A solution of the homogeneous rows with t > 0 (block "t") and block
        `name` nonzero, or None.

        One decision: with the row t >= 0 appended and the equalities removed
        by a null-space basis N, `implicit_equalities` finds the cone's implicit
        equalities and a point with slack >= 1 on every other row.  A solution
        exists iff t >= 0 is not implicit and the block's rows of the hull basis
        H = N null(implicit rows) have a singular value above ZERO_BLOCK (both
        null spaces are `affine_frame`s).  The point is the solution; if its
        block is zero, it moves along the column of H with the largest block
        norm, keeping half of every row's slack.  The solution is scaled so
        that the block's largest entry is 1.
        """
        A_ub, _, A_eq, _ = self.system()
        lo, hi = self.offsets[name]
        _, N, M = affine_frame(np.vstack([A_ub, -np.eye(self.nvar)[self.offsets["t"][0]]]), A_eq)
        implicit, y = implicit_equalities(M)
        if len(M) - 1 in implicit or np.linalg.norm(M[-1]) <= 1e-12:
            return None  # t = 0 on the whole cone
        _, Y, H = affine_frame(N, M[implicit])
        Hb = H[lo:hi]
        if not Hb.size or np.linalg.norm(Hb, 2) <= ZERO_BLOCK:
            return None
        x = N @ y
        if np.linalg.norm(x[lo:hi]) <= ZERO_BLOCK * np.linalg.norm(x):
            j = int(np.argmax(np.linalg.norm(Hb, axis=0)))
            slack, d = -(M @ y), M @ Y[:, j]
            # rows off the implicit ones have slack >= 1, the implicit ones none
            step = min((0.5 * s / abs(dk) for s, dk in zip(slack, d) if s > 0.5 and dk),
                       default=1.0)
            x = x + np.copysign(step, x[lo:hi] @ Hb[:, j]) * (N @ Y[:, j])
        return x / np.abs(x[lo:hi]).max()
