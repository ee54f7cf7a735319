"""Local SQP driver with exact-Hessian and quasi-Newton modes.

Implements the generic method: stop when the KKT residual is below
tolerance, otherwise solve the localized subproblem and move to its
first surviving solution.  Per-iteration monitors record step norms and
the three Dennis-More quantities (projection of the Hessian-model error
onto the critical cone, onto its subspace enlargement, and the full
norm), all normalized by the step length.  No globalization: the method
is purely local by design.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AllCandidatesOutsideDelta,
    DegenerateStep,
    MaxIterReached,
    NoFeasiblePiece,
    PLQError,
    SubproblemFailure,
    TooShortTrace,
    ZeroStep,
)
from .kkt import (
    CompositeProblem,
    PrimalDual,
    cone_D,
    kkt_point,
    kkt_residual,
    lagrangian,
    subspace_Dplus,
)
from .polyhedral import ConeFamily, project_cone_union
from .subqp import SubproblemSpec, solve_subproblem

DELTA_GROWTH = 10.0
DELTA_FLOOR = 1e-6
MAX_DELTA_ENLARGEMENTS = 60


@dataclass(frozen=True)
class SQPConfig:
    hessian_mode: str = "exact"  # "exact" | "bfgs" | "fixed_identity"
    tol: float = 1e-10
    max_iter: int = 100
    bfgs_damping: float = 0.2
    delta0: float = np.inf  # localization radius for the first step
    reference: PrimalDual = None  # anchor for monitors; final iterate when None

    def __post_init__(self):
        if self.hessian_mode not in ("exact", "bfgs", "fixed_identity"):
            raise ValueError(f"unknown hessian mode {self.hessian_mode!r}")
        if self.tol <= 0 or self.max_iter < 1:
            raise ValueError("tol must be positive and max_iter at least 1")


@dataclass
class IterateRecord:
    k: int
    x: np.ndarray
    lam: np.ndarray
    residual: float
    step_norm: float
    dm_D: float = 0.0
    dm_Dplus: float = 0.0
    dm_full: float = 0.0
    piece_index: int = -1
    _error: np.ndarray = field(default=None, repr=False)  # (hess - H) step, pre-normalization


@dataclass(frozen=True)
class RateReport:
    ratios_primal: list
    ratios_pd: list
    classification: str  # "superlinear" | "linear" | "sublinear" | "stalled"
    reference_point: PrimalDual


def bfgs_update(H, s, y, damping: float = 0.2) -> np.ndarray:
    """Powell-damped BFGS update; preserves symmetry and definiteness."""
    H = np.asarray(H, dtype=float)
    s = np.asarray(s, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if np.linalg.norm(s) <= 1e-14:
        raise DegenerateStep("BFGS step is numerically zero")
    Hs = H @ s
    sHs = float(s @ Hs)
    rho = float(s @ y)
    if rho < damping * sHs:
        theta = (1.0 - damping) * sHs / (sHs - rho)
        y = theta * y + (1.0 - theta) * Hs
        rho = float(s @ y)
    Hn = H - np.outer(Hs, Hs) / sHs + np.outer(y, y) / rho
    return 0.5 * (Hn + Hn.T)


def dennis_more_values(problem, xk, lambdak, H, x_next,
                       D: ConeFamily, Dplus: ConeFamily):
    """(||P_D r||, ||P_{D+} r||, ||r||) / ||step|| with r the model error.

    r = (hess_xx L(xk, lambdak) - H)(x_next - xk).
    """
    xk = np.asarray(xk, dtype=float).ravel()
    x_next = np.asarray(x_next, dtype=float).ravel()
    step = x_next - xk
    ns = float(np.linalg.norm(step))
    if ns <= 0.0:
        raise ZeroStep("Dennis-More values need a nonzero step")
    _, _, hess = lagrangian(problem, xk, lambdak)
    return _dm_ratios((hess - np.asarray(H, dtype=float)) @ step, ns, D, Dplus)


def _dm_ratios(r, step_norm, D, Dplus):
    """(||P_D r||, ||P_{D+} r||, ||r||) / step_norm; a family given as None
    falls back to the full norm."""
    norms = [np.linalg.norm(r if F is None else project_cone_union(F, r)) for F in (D, Dplus, None)]
    return tuple(float(v) / step_norm for v in norms)


def _hessian(problem, x, lam, mode, H_qn):
    if mode == "exact":
        return lagrangian(problem, x, lam)[2]
    if mode == "fixed_identity":
        return np.eye(problem.n)
    return H_qn


def _attach_monitors(problem, trace, reference):
    """Fill dm_* on each record against the cones at the anchor point."""
    if not trace:
        return
    anchor = reference if reference is not None else PrimalDual(trace[-1].x, trace[-1].lam)
    try:
        point = kkt_point(problem, anchor.x, anchor.lam)
        D, Dplus = cone_D(point), subspace_Dplus(point)
    except PLQError:
        D = Dplus = None  # monitors fall back to the full norm
    for rec in trace:
        if rec._error is None or rec.step_norm <= 0.0:
            continue
        rec.dm_D, rec.dm_Dplus, rec.dm_full = _dm_ratios(rec._error, rec.step_norm, D, Dplus)


def run_sqp(problem: CompositeProblem, x0, lambda0, config: SQPConfig = None) -> list:
    """Run the SQP iteration; returns the list of IterateRecord rows.

    The first record is the starting point; each later record is one
    accepted subproblem solution.  Raises SubproblemFailure or
    MaxIterReached with the partial trace attached.
    """
    config = config or SQPConfig()
    x = np.asarray(x0, dtype=float).ravel().copy()
    lam = np.asarray(lambda0, dtype=float).ravel().copy()
    residual = kkt_residual(problem, x, lam)
    trace = [IterateRecord(0, x.copy(), lam.copy(), residual, 0.0)]
    H_qn = np.eye(problem.n)
    delta = config.delta0
    for k in range(1, config.max_iter + 1):
        if residual <= config.tol:
            break
        H = _hessian(problem, x, lam, config.hessian_mode, H_qn)
        sols = None
        dk = delta
        for _ in range(MAX_DELTA_ENLARGEMENTS):
            try:
                sols = solve_subproblem(SubproblemSpec(x, lam, H, problem, dk))
                break
            except AllCandidatesOutsideDelta:
                dk = dk * DELTA_GROWTH if np.isfinite(dk) else 1.0
            except NoFeasiblePiece as exc:
                _attach_monitors(problem, trace, config.reference)
                raise SubproblemFailure(str(exc), trace) from exc
        if sols is None:
            _attach_monitors(problem, trace, config.reference)
            raise SubproblemFailure("localization radius could not be enlarged enough", trace)
        sol = sols[0]
        s = sol.x_next - x
        ds = sol.lambda_next - lam
        step_norm = float(np.linalg.norm(s))
        _, _, hess_now = lagrangian(problem, x, lam)
        err = (hess_now - H) @ s
        if config.hessian_mode == "bfgs" and step_norm > 1e-14:
            gL_new = lagrangian(problem, sol.x_next, sol.lambda_next)[1]
            gL_old = lagrangian(problem, x, sol.lambda_next)[1]
            H_qn = bfgs_update(H_qn, s, gL_new - gL_old, config.bfgs_damping)
        x, lam = sol.x_next.copy(), sol.lambda_next.copy()
        residual = kkt_residual(problem, x, lam)
        delta = max(DELTA_GROWTH * float(np.sqrt(step_norm ** 2 + np.linalg.norm(ds) ** 2)),
                    DELTA_FLOOR)
        trace.append(IterateRecord(k, x.copy(), lam.copy(), residual, step_norm,
                                   piece_index=sol.piece_index, _error=err))
    else:
        if residual > config.tol:
            _attach_monitors(problem, trace, config.reference)
            raise MaxIterReached(
                f"no convergence in {config.max_iter} iterations (residual {residual:.2e})",
                trace)
    _attach_monitors(problem, trace, config.reference)
    return trace


def _safe_ratio(num, den):
    if den <= 1e-300:
        return 0.0 if num <= 1e-300 else np.inf
    return num / den


def rate_report(trace, reference="last-iterate") -> RateReport:
    """Convergence-rate ratios and their classification over a trace.

    Classification rule: the last three primal ratios strictly decreasing
    with the final one below 0.1 means superlinear; ratios confined to
    [0.1, 0.95] with spread below 0.2 means linear; vanishing steps
    without convergence means stalled; anything else is sublinear.
    """
    if len(trace) < 4:
        raise TooShortTrace("rate estimation needs at least 4 iterates")
    if reference == "last-iterate":
        ref = PrimalDual(trace[-1].x, trace[-1].lam)
    else:
        ref = reference
    errs_x = [float(np.linalg.norm(rec.x - ref.x)) for rec in trace]
    errs_pd = [float(np.sqrt(np.linalg.norm(rec.x - ref.x) ** 2
                             + np.linalg.norm(rec.lam - ref.lam) ** 2)) for rec in trace]
    K = min(6, len(trace) - 1)
    ratios_primal = [_safe_ratio(errs_x[j + 1], errs_x[j])
                     for j in range(len(trace) - 1 - K, len(trace) - 1)]
    ratios_pd = [_safe_ratio(errs_pd[j + 1], errs_pd[j])
                 for j in range(len(trace) - 1 - K, len(trace) - 1)]
    tail = ratios_primal[-3:]
    finite = [r for r in ratios_primal if np.isfinite(r)]
    if len(tail) == 3 and all(np.isfinite(t) for t in tail) and \
            tail[0] > tail[1] > tail[2] and tail[2] < 0.1:
        cls = "superlinear"
    elif finite and all(0.1 <= r <= 0.95 for r in finite) and \
            (max(finite) - min(finite)) < 0.2:
        cls = "linear"
    else:
        steps = [rec.step_norm for rec in trace[-3:]]
        if max(steps) <= 1e-14 and trace[-1].residual > 1e-10:
            cls = "stalled"
        elif max(errs_x[-3:]) <= 1e-14:
            cls = "superlinear"  # landed exactly on the reference
        else:
            cls = "stalled" if max(steps) <= 1e-14 else "sublinear"
    return RateReport(ratios_primal, ratios_pd, cls, ref)


def run_classification(trace, reference="last-iterate", tol: float = 1e-10) -> str:
    """Classification that tolerates very short traces.

    Convergence in one or two steps (exact Newton on quadratic data) has
    no meaningful ratio history and counts as superlinear; otherwise the
    rate report rule applies.
    """
    if len(trace) < 4:
        return "superlinear" if trace[-1].residual <= tol else "stalled"
    return rate_report(trace, reference).classification


def trace_csv_rows(trace, n, m):
    """CSV header and rows for a trace (deterministic float formatting)."""
    header = (["k"] + [f"x{i}" for i in range(n)] + [f"lambda{j}" for j in range(m)]
              + ["residual", "step_norm", "dm_D", "dm_Dplus", "dm_full", "piece_index"])
    rows = []
    for rec in trace:
        row = ([str(rec.k)] + [repr(float(v)) for v in rec.x]
               + [repr(float(v)) for v in rec.lam]
               + [repr(float(rec.residual)), repr(float(rec.step_norm)),
                  repr(float(rec.dm_D)), repr(float(rec.dm_Dplus)),
                  repr(float(rec.dm_full)), str(rec.piece_index)])
        rows.append(row)
    return header, rows
