"""Dense primal active-set solver for small quadratic programs.

Solves  min ½ xᵀQx + cᵀx  s.t.  A x <= b,  E x = d  at desk scale.

When Q is positive semidefinite on the feasible directions the returned
point is a global minimizer; otherwise iteration stops at a first-order
KKT (stationary) point.  Equality-constrained subproblems are solved by
the null-space method with an eigendecomposition of the reduced Hessian,
which also exposes unbounded rays (negative curvature, or linear descent
along zero-curvature directions).  Entering and leaving rows are chosen
by lowest index, Bland style, to avoid cycling on degenerate data.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space

from .errors import Infeasible, QPFailure, Unbounded
from .lp import feasible_point

_CURV_REL = 1e-11
_RAY_TOL = 1e-11
_STEP_TOL = 1e-12
_MULT_TOL = 1e-9


@dataclass
class QPResult:
    x: np.ndarray
    mu: np.ndarray  # inequality multipliers, mu >= 0, complementary
    nu: np.ndarray  # equality multipliers
    status: str  # "optimal" or "stationary"
    objective: float
    iterations: int


def _objective(Q, c, x):
    return 0.5 * float(x @ Q @ x) + float(c @ x)


def _independent_active_rows(A, E, active):
    """Greedy subset of `active` whose rows, stacked under E, stay independent."""
    rows = [E[i] for i in range(E.shape[0])]
    keep = []
    rank = np.linalg.matrix_rank(np.asarray(rows)) if rows else 0
    for j in active:
        trial = rows + [A[j]]
        r = np.linalg.matrix_rank(np.asarray(trial))
        if r > rank:
            rows = trial
            rank = r
            keep.append(j)
    return keep


def active_set_qp(Q, c, A, b, E, d, x0=None, tol=1e-10, max_iter=None):
    """Solve the QP; returns a QPResult with KKT residual <= tol scale.

    Raises Infeasible when the constraint set is empty and Unbounded when a
    feasible descent ray with no blocking row is found.
    """
    Q = 0.5 * (np.asarray(Q, dtype=float) + np.asarray(Q, dtype=float).T)
    c = np.asarray(c, dtype=float).ravel()
    n = c.size
    A = np.asarray(A, dtype=float).reshape(-1, n) if A is not None else np.zeros((0, n))
    b = np.asarray(b, dtype=float).ravel() if b is not None else np.zeros(0)
    E = np.asarray(E, dtype=float).reshape(-1, n) if E is not None else np.zeros((0, n))
    d = np.asarray(d, dtype=float).ravel() if d is not None else np.zeros(0)
    p, q = A.shape[0], E.shape[0]

    if x0 is not None:
        x = np.asarray(x0, dtype=float).ravel().copy()
        ok = (not p or np.all(A @ x <= b + 1e-8 * (1.0 + np.abs(b)))) and (
            not q or np.all(np.abs(E @ x - d) <= 1e-8 * (1.0 + np.abs(d)))
        )
        if not ok:
            x0 = None
    if x0 is None:
        x = feasible_point(A, b, E, d)
        if x is None:
            raise Infeasible("QP constraint set is empty")

    psd = bool(np.linalg.eigvalsh(Q).min() >= -1e-10 * max(1.0, np.abs(Q).max())) if n else True

    slack = b - A @ x if p else np.zeros(0)
    active = [j for j in range(p) if slack[j] <= 1e-9 * (1.0 + abs(b[j]))]
    work = _independent_active_rows(A, E, active)

    if max_iter is None:
        max_iter = 100 * (p + q + n + 5)

    for it in range(max_iter):
        C = np.vstack([E, A[work]]) if (q or work) else np.zeros((0, n))
        rhs = np.concatenate([d, b[work]]) if (q or work) else np.zeros(0)

        if C.shape[0]:
            corr = np.linalg.lstsq(C, rhs - C @ x, rcond=None)[0]
            x_p = x + corr
            Z = null_space(C)
        else:
            x_p = x
            Z = np.eye(n)

        ray = None
        if Z.shape[1]:
            Hz = Z.T @ Q @ Z
            Hz = 0.5 * (Hz + Hz.T)
            g = Z.T @ (Q @ x_p + c)
            x_new = None
            # definite fast path; singular or indefinite Hz falls through
            # to the eigendecomposition for ray detection
            try:
                diag_scale = float(np.abs(np.diag(Hz)).max(initial=0.0))
                if diag_scale > 0 and np.linalg.cond(Hz) < 1e12:
                    Lc = np.linalg.cholesky(Hz)
                    y = -np.linalg.solve(Lc.T, np.linalg.solve(Lc, g))
                    x_new = x_p + Z @ y
            except np.linalg.LinAlgError:
                x_new = None
            if x_new is None:
                eigvals, V = np.linalg.eigh(Hz)
                scale = max(1.0, float(np.abs(eigvals).max()))
                curv_tol = _CURV_REL * scale
                gV = V.T @ g
                gscale = max(1.0, float(np.linalg.norm(g)))
                jneg = int(np.argmin(eigvals))
                if eigvals[jneg] < -curv_tol:
                    dz = -V[:, jneg] if gV[jneg] > 0 else V[:, jneg]
                    ray = Z @ dz
                else:
                    zero = np.abs(eigvals) <= curv_tol
                    lin = np.where(zero & (np.abs(gV) > _RAY_TOL * gscale))[0]
                    if lin.size:
                        j = int(lin[0])
                        ray = Z @ (-np.sign(gV[j]) * V[:, j])
                if ray is None:
                    pos = eigvals > curv_tol
                    y = -V[:, pos] @ (gV[pos] / eigvals[pos]) if pos.any() \
                        else np.zeros(Z.shape[1])
                    x_new = x_p + Z @ y
        else:
            x_new = x_p

        if ray is not None:
            ray = ray / np.linalg.norm(ray)
            Ad = A @ ray if p else np.zeros(0)
            slack = b - A @ x if p else np.zeros(0)
            blocking = [j for j in range(p) if j not in work and Ad[j] > 1e-12]
            if not blocking:
                raise Unbounded("descent ray with no blocking row")
            alphas = np.array([max(slack[j], 0.0) / Ad[j] for j in blocking])
            amin = float(alphas.min())
            enter = min(
                j for j, a in zip(blocking, alphas) if a <= amin + 1e-12 * (1.0 + amin)
            )
            x = x + amin * ray
            work.append(enter)
            work.sort()
            continue

        step = x_new - x
        if np.linalg.norm(step) <= _STEP_TOL * (1.0 + np.linalg.norm(x)):
            grad = Q @ x + c
            if C.shape[0]:
                y = np.linalg.lstsq(C.T, -grad, rcond=None)[0]
                nu_w, mu_w = y[:q], y[q:]
            else:
                nu_w, mu_w = np.zeros(0), np.zeros(0)
            negs = [k for k, m in enumerate(mu_w) if m < -_MULT_TOL]
            if not negs:
                mu = np.zeros(p)
                for k, j in enumerate(work):
                    mu[j] = max(mu_w[k], 0.0)
                status = "optimal" if psd else "stationary"
                return QPResult(x, mu, nu_w.copy(), status, _objective(Q, c, x), it + 1)
            drop = min(work[k] for k in negs)
            work.remove(drop)
            continue

        Ad = A @ step if p else np.zeros(0)
        slack = b - A @ x if p else np.zeros(0)
        blocking = [j for j in range(p) if j not in work and Ad[j] > 1e-12]
        alpha = 1.0
        enter = None
        for j in blocking:
            aj = max(slack[j], 0.0) / Ad[j]
            if aj < alpha - 1e-12 * (1.0 + alpha):
                alpha = aj
                enter = j
            elif enter is not None and aj <= alpha + 1e-12 * (1.0 + alpha):
                enter = min(enter, j)
        x = x + alpha * step
        if enter is not None:
            work.append(enter)
            work.sort()

    raise QPFailure(f"active-set QP did not terminate in {max_iter} iterations")

