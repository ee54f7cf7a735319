"""Thin wrappers around scipy's HiGHS LP solver.

All variables are free unless the caller encodes bounds as rows; HiGHS is
used for feasibility oracles, redundancy tests, and the homogeneous
cone LPs in the diagnostics module.
"""

import numpy as np
from scipy.optimize import linprog

from .errors import SolverFailure

LP_OPTIMAL = 0
LP_INFEASIBLE = 2
LP_UNBOUNDED = 3


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


def feasible_point(A, b, E, d):
    """A point of {A x <= b, E x = d}, or None when the set is empty.

    Fast path: verified nonnegative least squares on the slack form (the
    residual is zero iff the system is feasible).  Falls back to a
    phase-1 LP when the least-squares verdict is numerically ambiguous.
    """
    from .nonneg import nonneg_lstsq

    A = np.asarray(A, dtype=float)
    E = np.asarray(E, dtype=float)
    n = A.shape[1] if A.size else E.shape[1]
    p = A.shape[0] if A.size else 0
    q = E.shape[0] if E.size else 0
    b = np.asarray(b, dtype=float).ravel()
    d = np.asarray(d, dtype=float).ravel()
    if p + q == 0:
        return np.zeros(n)
    # variables u = (x+, x-, s) >= 0 with A(x+ - x-) + s = b, E(x+ - x-) = d
    top = np.hstack([A, -A, np.eye(p)]) if p else np.zeros((0, 2 * n + p))
    bot = np.hstack([E, -E, np.zeros((q, p))]) if q else np.zeros((0, 2 * n + p))
    M = np.vstack([top, bot])
    rhs = np.concatenate([b, d])
    scale = 1.0 + float(np.abs(rhs).max(initial=0.0))
    u, residual = nonneg_lstsq(M, rhs)
    if residual <= 1e-10 * scale:
        return u[:n] - u[n:2 * n]
    if residual >= 1e-7 * scale:
        return None
    # ambiguous: decide by LP below
    # variables (x, t): A x - t <= b, E x = d, minimize t with t >= -1 cap
    c = np.zeros(n + 1)
    c[n] = 1.0
    rows = []
    rhs = []
    if p:
        rows.append(np.hstack([A, -np.ones((p, 1))]))
        rhs.append(np.asarray(b, dtype=float))
    cap = np.zeros((1, n + 1))
    cap[0, n] = -1.0
    rows.append(cap)
    rhs.append(np.array([1.0]))
    A_ub = np.vstack(rows)
    b_ub = np.concatenate(rhs)
    A_eq = b_eq = None
    if E.size:
        A_eq = np.hstack([E, np.zeros((E.shape[0], 1))])
        b_eq = np.asarray(d, dtype=float)
    status, x, _ = solve_lp(c, A_ub, b_ub, A_eq, b_eq)
    if status != LP_OPTIMAL:
        return None
    if x[n] > 1e-9:
        return None
    return x[:n]
