"""Verified NNLS: nearest points, implicit equalities, redundancy and normal cones.

scipy's rewritten nnls can terminate prematurely on some small systems,
returning a non-optimal point and a wrong residual scalar.  This wrapper
never trusts the reported residual: it recomputes it from the returned
vector and checks first-order optimality of the cone-constrained least
squares problem; on failure it re-solves with scipy's bounded-variable
least squares (BVLS), which answers degenerate systems with their honest
residual instead of a descent ray.  BVLS can fail too, with a huge u on
opposite columns, so the answer is the first of BVLS's, scipy's and u = 0
that is optimal, else the one of least true residual (a huge u can round
to a residual below the optimum's).  A normal-cone distance or a nearest
point reaches it only when its certificate fails (`polyhedral`, `lp`).
"""

import numpy as np
from scipy.optimize import lsq_linear
from scipy.optimize import nnls as _scipy_nnls

_OPT_TOL = 1e-8


def _is_optimal(M, r, u, scale):
    g = M.T @ (M @ u - r)
    if g.size and float(g.min()) < -_OPT_TOL * scale:
        return False
    comp = abs(float(u @ g))
    return comp <= _OPT_TOL * scale * (1.0 + float(np.linalg.norm(u)))


def nonneg_lstsq(M, r):
    """argmin_{u >= 0} ||M u - r||; returns (u, true residual norm)."""
    M = np.asarray(M, dtype=float)
    r = np.asarray(r, dtype=float).ravel()
    if M.size == 0 or M.shape[1] == 0:
        return np.zeros(M.shape[1] if M.ndim == 2 else 0), float(np.linalg.norm(r))
    scale = max(1.0, float(np.abs(M).max()), float(np.abs(r).max()))
    try:
        u, _ = _scipy_nnls(M, r, maxiter=50 * max(M.shape))
    except RuntimeError:
        u = None
    if u is None or not _is_optimal(M, r, u, scale):
        bvls = np.maximum(lsq_linear(M, r, bounds=(0.0, np.inf), method="bvls").x, 0.0)
        u = min((c for c in (bvls, u, np.zeros(M.shape[1])) if c is not None),
                key=lambda c: (not _is_optimal(M, r, c, scale), np.linalg.norm(M @ c - r)))
    return u, float(np.linalg.norm(M @ u - r))
