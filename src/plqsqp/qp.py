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
  at a zero step, the least-squares multipliers y = (C⁺)ᵀ(−∇);
- at most one eigendecomposition of the reduced Hessian ZᵀQZ.  It gives
  the Newton step over the positive-curvature directions, or an unbounded
  ray (negative curvature, or linear descent along zero curvature).

The starting working set keeps an active row when it shrinks the null
space of the rows kept so far, so its rows stay independent.

A step is cut at the first blocking row and a ray must meet one; ties
and leaving rows go to the lowest index, Bland style, to avoid cycling
on degenerate data.
"""

from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, QPFailure, Unbounded
from .lp import affine_frame, nearest_point

_CURV_REL = 1e-11
_RAY_TOL = 1e-11
_STEP_TOL = 1e-12
_MULT_TOL = 1e-9


@dataclass
class QPResult:
    x: np.ndarray
    mu: np.ndarray  # inequality multipliers, mu >= 0, complementary
    nu: np.ndarray  # equality multipliers
    objective: float
    iterations: int


def _objective(Q, c, x):
    return 0.5 * float(x @ Q @ x) + float(c @ x)


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


def active_set_qp(Q, c, A, b, E, d, x0=None):
    """Solve the QP from x0 (default the origin), or from the point of the
    constraint set nearest x0 (`lp.nearest_point`) when x0 is infeasible.

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
    if not (np.all(A @ x <= b + 1e-8 * (1.0 + np.abs(b)))
            and np.all(np.abs(E @ x - d) <= 1e-8 * (1.0 + np.abs(d)))):
        x = nearest_point(A, b, E, d, affine_frame(A, E), x)
        if x is None:
            raise Infeasible("QP constraint set is empty")

    slack = b - A @ x
    active = [j for j in range(p) if slack[j] <= 1e-9 * (1.0 + abs(b[j]))]
    work = _independent_active_rows(A, E, active)

    max_iter = 100 * (p + q + n + 5)
    factored = None  # the working set whose factors are held
    for it in range(max_iter):
        if work != factored:
            factored = list(work)
            C = np.vstack([E, A[work]])
            pinv, Z, QZ = affine_frame(Q, C)
            if Z.shape[1]:
                eigvals, V = np.linalg.eigh(QZ.T @ Z)
        x_p = x + pinv @ (np.concatenate([d, b[work]]) - C @ x)

        x_new, ray = x_p, None
        if Z.shape[1]:
            g = Z.T @ (Q @ x_p + c)
            curv_tol = _CURV_REL * max(1.0, float(np.abs(eigvals).max()))
            gV = V.T @ g
            jneg = int(np.argmin(eigvals))
            lin = np.where((np.abs(eigvals) <= curv_tol)
                           & (np.abs(gV) > _RAY_TOL * max(1.0, float(np.linalg.norm(g)))))[0]
            if eigvals[jneg] < -curv_tol:
                ray = Z @ (-V[:, jneg] if gV[jneg] > 0 else V[:, jneg])
            elif lin.size:
                ray = Z @ (-np.sign(gV[lin[0]]) * V[:, lin[0]])
            else:
                pos = eigvals > curv_tol
                x_new = x_p - Z @ (V[:, pos] @ (gV[pos] / eigvals[pos]))

        if ray is not None:
            alpha, enter = _ratio_test(A, b, x, ray, work, np.inf)
            if enter is None:
                raise Unbounded("descent ray with no blocking row")
            x = x + alpha * ray
            work = sorted(work + [enter])
            continue

        step = x_new - x
        if np.linalg.norm(step) <= _STEP_TOL * (1.0 + np.linalg.norm(x)):
            y = pinv.T @ -(Q @ x + c)
            nu_w, mu_w = y[:q], y[q:]
            negs = [k for k, m in enumerate(mu_w) if m < -_MULT_TOL]
            if not negs:
                mu = np.zeros(p)
                mu[work] = np.maximum(mu_w, 0.0)
                return QPResult(x, mu, nu_w, _objective(Q, c, x), it + 1)
            work.remove(min(work[k] for k in negs))
            continue

        alpha, enter = _ratio_test(A, b, x, step, work, 1.0)
        x = x + alpha * step
        if enter is not None:
            work = sorted(work + [enter])

    raise QPFailure(f"active-set QP did not terminate in {max_iter} iterations")
