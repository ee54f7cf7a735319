"""Verified NNLS: nearest points, implicit equalities, redundancy and normal cones.

min_{u >= 0} ||M u - r|| answers with the first of scipy's `nnls`, u = 0
and scipy's BVLS (bounded-variable least squares) that passes the
first-order test `_is_optimal`, else raises `SolverFailure`; the residual
is recomputed from u.  No caller builds a free multiplier as columns c and
-c, on which BVLS answered with a huge u.  BVLS stays: scipy's `nnls` also
stops short without opposite columns, where u = 0 is optimal (an
`implicit_equalities` input) or is not (a `prune_redundant` input on box
rows); `tests/test_lp.py` keeps both.
"""

import numpy as np
from scipy.optimize import lsq_linear
from scipy.optimize import nnls as _scipy_nnls

from .errors import SolverFailure

_OPT_TOL = 1e-8


def _is_optimal(M, r, u, scale):
    g = M.T @ (M @ u - r)
    return g.min(initial=0.0) >= -_OPT_TOL * scale \
        and abs(u @ g) <= _OPT_TOL * scale * (1.0 + np.linalg.norm(u))


def nonneg_lstsq(M, r):
    """argmin_{u >= 0} ||M u - r||; returns (u, true residual norm)."""
    M = np.asarray(M, dtype=float)
    r = np.asarray(r, dtype=float).ravel()
    if M.size == 0 or M.shape[1] == 0:
        return np.zeros(M.shape[1] if M.ndim == 2 else 0), float(np.linalg.norm(r))
    scale = max(1.0, float(np.abs(M).max()), float(np.abs(r).max()))
    for solve in (lambda: _scipy_nnls(M, r, maxiter=50 * max(M.shape))[0],
                  lambda: np.zeros(M.shape[1]),
                  lambda: np.maximum(lsq_linear(M, r, bounds=(0.0, np.inf), method="bvls").x, 0.0)):
        try:
            u = solve()
        except RuntimeError:  # scipy's nnls at its iteration cap
            continue
        if _is_optimal(M, r, u, scale):
            return u, float(np.linalg.norm(M @ u - r))
    raise SolverFailure("nonneg least squares: no answer verifies")
