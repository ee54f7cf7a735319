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


def _is_optimal(M, r, u):
    """The first-order test of min_{u >= 0} ||M u - r||: the gradient
    g = Mᵀ(M u - r) is >= 0 and uᵀg = 0, to _OPT_TOL of the data's own
    scale s = max|M| max|r| and to _OPT_TOL s ||u||₁, with no floor.  The
    scale leaves u out, or the huge u of a degenerate system would pass."""
    g = M.T @ (M @ u - r)
    s = np.abs(M).max() * np.abs(r).max(initial=0.0)
    return g.min(initial=0.0) >= -_OPT_TOL * s \
        and abs(u @ g) <= _OPT_TOL * s * np.abs(u).sum()


def nonneg_lstsq(M, r):
    """argmin_{u >= 0} ||M u - r||; returns (u, true residual norm)."""
    M = np.asarray(M, dtype=float)
    r = np.asarray(r, dtype=float).ravel()
    if M.size == 0 or M.shape[1] == 0:
        return np.zeros(M.shape[1] if M.ndim == 2 else 0), float(np.linalg.norm(r))
    for solve in (lambda: _scipy_nnls(M, r, maxiter=50 * max(M.shape))[0],
                  lambda: np.zeros(M.shape[1]),
                  lambda: np.maximum(lsq_linear(M, r, bounds=(0.0, np.inf), method="bvls").x, 0.0)):
        try:
            u = solve()
        except RuntimeError:  # scipy's nnls at its iteration cap
            continue
        if _is_optimal(M, r, u):
            return u, float(np.linalg.norm(M @ u - r))
    raise SolverFailure("nonneg least squares: no answer verifies")
