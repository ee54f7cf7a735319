"""Dense primal active-set solver for small quadratic programs.

Solves  min ½ xᵀQx + cᵀx  s.t.  A x <= b,  E x = d  at desk scale, from
x0 when it is feasible, else from the point of the set nearest x0.

When Q is positive semidefinite on the feasible directions the returned
point is a global minimizer; otherwise iteration stops at a first-order
KKT (stationary) point.  Each working-set iteration is one null-space step
(Nocedal & Wright, ch. 16) from two factorizations, kept per working set
(the optimality check after a full unblocked step reuses them):

- the `affine_frame` (C⁺, Z, Q Z) of the working rows C, one SVD with the
  rank cutoff of `lstsq` (max(C.shape)·eps·s₀).  It gives the min-norm
  correction x + C⁺(r − C x) onto C x = r, the null-space basis Z, and,
  at a zero step, the answer (the step's point, on C x = r, not the x it
  started from) and its least-squares multipliers y = (C⁺)ᵀ(−∇);
- at most one eigendecomposition of the reduced Hessian ZᵀQZ.  It gives
  the Newton step over the positive-curvature directions, or an unbounded
  ray (negative curvature, or linear descent along zero curvature).

The starting working set keeps an active row when it shrinks the null
space of the rows kept so far, so its rows stay independent.  A guessed
face is tried first by one such step from x0, kept only at a KKT point.

A step is cut at the first blocking row and a ray must meet one; ties
and leaving rows go to the lowest index, Bland style, to avoid cycling
on degenerate data.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, QPFailure, Unbounded
from .lp import affine_frame, nearest_point

_CURV_REL = 1e-11
_RAY_TOL = 1e-11
_STEP_TOL = 1e-12
_MULT_TOL = 1e-9
_ACTIVE_TOL = 1e-9  # a row within _ACTIVE_TOL (1 + |b_j|) of its bound is active


@dataclass
class QPResult:
    x: np.ndarray
    mu: np.ndarray  # inequality multipliers, mu >= 0, complementary
    nu: np.ndarray  # equality multipliers
    objective: float
    iterations: int  # 0 when the guessed face answered
    work: list  # the working rows at the answer


def _objective(Q, c, x):
    return 0.5 * float(x @ Q @ x) + float(c @ x)


def _holds(A, b, E, d, x, tol):
    """Whether x satisfies every row within tol (1 + |rhs|)."""
    return bool(np.all(A @ x <= b + tol * (1.0 + np.abs(b)))
                and np.all(np.abs(E @ x - d) <= tol * (1.0 + np.abs(d))))


_Frame = namedtuple("_Frame", "C r pinv Z eigvals V curv_tol")


def _frame(Q, A, b, E, d, work):
    """Working rows C x = r, (C⁺, Z), and ZᵀQZ's eigenpairs and curvature cutoff."""
    C = np.vstack([E, A[work]])
    pinv, Z, QZ = affine_frame(Q, C)
    eigvals, V = np.linalg.eigh(QZ.T @ Z)
    return _Frame(C, np.concatenate([d, b[work]]), pinv, Z, eigvals, V,
                  _CURV_REL * float(np.abs(eigvals).max(initial=1.0)))


def _step(Q, c, frame, x):
    """From x_p = x + C⁺(r − C x) on C x = r: (the Newton point over the
    positive curvature, None), or (x_p, a descent ray) when there is one."""
    C, r, pinv, Z, eigvals, V, curv_tol = frame
    x_p = x + pinv @ (r - C @ x)
    if not Z.shape[1]:
        return x_p, None
    g = Z.T @ (Q @ x_p + c)
    gV = V.T @ g
    jneg = int(np.argmin(eigvals))
    lin = np.where((np.abs(eigvals) <= curv_tol)
                   & (np.abs(gV) > _RAY_TOL * max(1.0, float(np.linalg.norm(g)))))[0]
    if eigvals[jneg] < -curv_tol:
        return x_p, Z @ (-V[:, jneg] if gV[jneg] > 0 else V[:, jneg])
    if lin.size:
        return x_p, Z @ (-np.sign(gV[lin[0]]) * V[:, lin[0]])
    pos = eigvals > curv_tol
    return x_p - Z @ (V[:, pos] @ (gV[pos] / eigvals[pos])), None


def _answer(Q, c, x, y, p, q, work, iterations):
    """The QPResult at x with working-set multipliers y = (ν, μ_work)."""
    mu = np.zeros(p)
    mu[work] = np.maximum(y[q:], 0.0)
    return QPResult(x, mu, y[:q], _objective(Q, c, x), iterations, work)


def _independent_active_rows(A, E, active):
    """Greedy subset of `active` whose rows, stacked under E, stay independent:
    a row is kept when it shrinks the null space of the stack (`affine_frame`).
    A stack of full row rank keeps every row at the cost of one frame."""
    if not active or affine_frame(A[:0], np.vstack([E, A[active]]))[1].shape[1] \
            == A.shape[1] - len(E) - len(active):
        return active
    keep, nullity = [], affine_frame(A[:0], E)[1].shape[1]
    for j in active:
        N = affine_frame(A[:0], np.vstack([E, A[keep + [j]]]))[1]
        if N.shape[1] < nullity:
            keep, nullity = keep + [j], N.shape[1]
    return keep


def _ratio_test(A, b, x, direction, work, cap):
    """Longest step t <= cap along `direction` keeping the rows outside
    `work` feasible, and the row that blocks it (lowest index among ties),
    or None when no row blocks before the cap."""
    Ad = A @ direction
    rows = [j for j in range(A.shape[0]) if j not in work and Ad[j] > 1e-12]
    if not rows:
        return cap, None
    alphas = np.maximum(b[rows] - A[rows] @ x, 0.0) / Ad[rows]
    amin = float(alphas.min())
    if amin >= cap * (1.0 - 1e-12) - 1e-12:  # within rounding of the cap
        return cap, None
    enter = min(j for j, a in zip(rows, alphas) if a <= amin + 1e-12 * (1.0 + amin))
    return amin, enter


def active_set_qp(Q, c, A, b, E, d, x0=None, face=None):
    """Solve the QP from x0 (default the origin), or from the point of the
    constraint set nearest x0 (`lp.nearest_point`) when x0 is infeasible.

    A `face` of inequality rows answers by its own step, in 0 iterations, when
    its ZᵀQZ is positive definite, every row holds and μ_face ≥ −_MULT_TOL.

    Raises Infeasible when the constraint set is empty, Unbounded when a
    feasible descent ray with no blocking row is found, and QPFailure when
    the iteration cap 100 (rows + n + 5) is reached.
    """
    Q = 0.5 * (np.asarray(Q, dtype=float) + np.asarray(Q, dtype=float).T)
    c = np.asarray(c, dtype=float).ravel()
    n = c.size
    A = np.asarray(A, dtype=float).reshape(-1, n) if A is not None else np.zeros((0, n))
    b = np.asarray(b, dtype=float).ravel() if b is not None else np.zeros(0)
    E = np.asarray(E, dtype=float).reshape(-1, n) if E is not None else np.zeros((0, n))
    d = np.asarray(d, dtype=float).ravel() if d is not None else np.zeros(0)
    p, q = A.shape[0], E.shape[0]

    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).ravel().copy()
    if face is not None:
        frame = _frame(Q, A, b, E, d, face)
        x_f = _step(Q, c, frame, x)[0]
        y = frame.pinv.T @ -(Q @ x_f + c)
        if np.all(frame.eigvals > frame.curv_tol) and _holds(A, b, E, d, x_f, _ACTIVE_TOL) \
                and np.all(y[q:] >= -_MULT_TOL):
            return _answer(Q, c, x_f, y, p, q, list(face), 0)
    if not _holds(A, b, E, d, x, 1e-8):
        x = nearest_point(A, b, E, d, affine_frame(A, E), x)
        if x is None:
            raise Infeasible("QP constraint set is empty")

    slack = b - A @ x
    active = [j for j in range(p) if slack[j] <= _ACTIVE_TOL * (1.0 + abs(b[j]))]
    work = _independent_active_rows(A, E, active)

    max_iter = 100 * (p + q + n + 5)
    factored = None  # the working set whose factors are held
    for it in range(max_iter):
        if work != factored:
            factored = list(work)
            frame = _frame(Q, A, b, E, d, work)
        x_new, ray = _step(Q, c, frame, x)

        if ray is not None:
            alpha, enter = _ratio_test(A, b, x, ray, work, np.inf)
            if enter is None:
                raise Unbounded("descent ray with no blocking row")
            x = x + alpha * ray
            work = sorted(work + [enter])
            continue

        step = x_new - x
        if np.linalg.norm(step) <= _STEP_TOL * (1.0 + np.linalg.norm(x)):
            y = frame.pinv.T @ -(Q @ x_new + c)
            negs = [k for k, m in enumerate(y[q:]) if m < -_MULT_TOL]
            if not negs:
                return _answer(Q, c, x_new, y, p, q, work, it + 1)
            work.remove(min(work[k] for k in negs))
            continue

        alpha, enter = _ratio_test(A, b, x, step, work, 1.0)
        x = x + alpha * step
        if enter is not None:
            work = sorted(work + [enter])

    raise QPFailure(f"active-set QP did not terminate in {max_iter} iterations")
