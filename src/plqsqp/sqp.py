"""Local SQP driver with exact-Hessian, identity and damped-BFGS modes.

Implements the generic method: stop when the KKT residual is below
tolerance, otherwise solve the localized subproblem and move to the
first verified KKT pair within the radius delta (the pieces holding Phi(x)
first, so ties between pieces meeting at one point go to those; with an
indefinite model Hessian that order can pick a different verified pair
inside delta, which the method allows; `solve_subproblem` grows delta
when no verified pair lies inside it).  A piece QP first tries the face it
ended on at the last iteration: run state, never a memo on the problem.
Per-iteration monitors record step norms and the three Dennis-More
quantities (projection of the Hessian-model error onto the critical
cone D, onto its subspace enlargement D+, and the full norm), all
normalized by the step length, in one place (`_dm_ratios`).  D and D+ are
those of the anchor's `kkt_point`, the one the diagnostics read too; a
caller that reads only the iterates turns the monitors off
(`SQPConfig(monitors=False)`), and its records keep dm_* = 0.0.
No globalization: the method is purely local by design.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateStep,
    MaxIterReached,
    NoFeasiblePiece,
    PLQError,
    SubproblemFailure,
    TooShortTrace,
)
from .kkt import CompositeProblem, PrimalDual, _smooth_data, kkt_point, kkt_residual
from .polyhedral import project_cone_union
from .subqp import DELTA_GROWTH, SubproblemSpec, solve_subproblem

DELTA_FLOOR = 1e-6
BFGS_DAMPING = 0.2  # Powell: damp y when s^T y < BFGS_DAMPING s^T H s
LANDED_REL = 1e-13  # relative distance to a reference that is rounding, not a rate


@dataclass(frozen=True)
class SQPConfig:
    """Settings of one run; the BFGS update is damped by the constant BFGS_DAMPING."""

    hessian_mode: str = "exact"  # "exact" | "bfgs" | "fixed_identity"
    tol: float = 1e-10
    max_iter: int = 100
    delta0: float = np.inf  # localization radius for the first step
    reference: PrimalDual = None  # anchor for monitors; final iterate when None
    monitors: bool = True  # Dennis-More dm_* per record; off leaves them 0.0 and builds no cones

    def __post_init__(self):
        if self.hessian_mode not in ("exact", "bfgs", "fixed_identity"):
            raise ValueError(f"unknown hessian mode {self.hessian_mode!r}")
        if not self.tol > 0 or self.max_iter < 1:  # NaN fails too
            raise ValueError("tol must be positive and max_iter at least 1")
        if not self.delta0 > 0:  # NaN fails too
            raise ValueError("delta0 must be positive")


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


def bfgs_update(H, s, y) -> np.ndarray:
    """Powell-damped BFGS update; preserves symmetry and definiteness."""
    H = np.asarray(H, dtype=float)
    s = np.asarray(s, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if np.linalg.norm(s) <= 1e-14:
        raise DegenerateStep("BFGS step is numerically zero")
    Hs = H @ s
    sHs = float(s @ Hs)
    rho = float(s @ y)
    if rho < BFGS_DAMPING * sHs:
        theta = (1.0 - BFGS_DAMPING) * sHs / (sHs - rho)
        y = theta * y + (1.0 - theta) * Hs
        rho = float(s @ y)
    Hn = H - np.outer(Hs, Hs) / sHs + np.outer(y, y) / rho
    return 0.5 * (Hn + Hn.T)


def _dm_ratios(r, step_norm, D, Dplus):
    """(||P_D r||, ||P_{D+} r||, ||r||) / step_norm; a family given as None
    falls back to the full norm."""
    norms = [np.linalg.norm(r if F is None else project_cone_union(F, r)) for F in (D, Dplus, None)]
    return tuple(float(v) / step_norm for v in norms)


def _attach_monitors(problem, trace, reference):
    """Fill dm_* on each record against D and D+ at the anchor, or against
    the full norm when the anchor is no KKT point of a piece g.

    `kkt_point` keeps the anchor's point and its cones on the problem, so
    runs sharing a reference (a sweep, or many starts against one known
    point) build them once.
    """
    anchor = reference if reference is not None else PrimalDual(trace[-1].x, trace[-1].lam)
    try:
        point = kkt_point(problem, anchor.x, anchor.lam)
        D, Dplus = point.D, point.Dplus
    except PLQError:
        D = Dplus = None
    for rec in trace:
        if rec._error is None or rec.step_norm <= 0.0:
            continue
        rec.dm_D, rec.dm_Dplus, rec.dm_full = _dm_ratios(rec._error, rec.step_norm, D, Dplus)


def run_sqp(problem: CompositeProblem, x0, lambda0, config: SQPConfig = None) -> list:
    """Run the SQP iteration; returns the list of IterateRecord rows.

    The first record is the starting point; each later record is one
    accepted subproblem solution.  Phi, J and grad phi are evaluated once
    per iterate (`kkt._smooth_data`), for its residual, its subproblem and
    the BFGS gradients grad phi + J^T lambda_{k+1} at x_k and x_{k+1}.
    Raises SubproblemFailure or MaxIterReached with the partial trace attached.
    """
    config = config or SQPConfig()
    x = np.asarray(x0, dtype=float).ravel().copy()
    lam = np.asarray(lambda0, dtype=float).ravel().copy()
    residual = kkt_residual(problem, x, lam)
    trace = [IterateRecord(0, x.copy(), lam.copy(), residual, 0.0)]
    H_qn = np.eye(problem.n)
    delta = config.delta0
    faces = {}  # piece index -> the working rows its QP ended on at the last iteration
    failure = None
    for k in range(1, config.max_iter + 1):
        if residual <= config.tol:
            break
        hess = problem.phi.Q[0] + problem.Phi.hessian_weighted(lam)  # hess_xx L(x, lam)
        if config.hessian_mode == "exact":
            H = hess
        elif config.hessian_mode == "fixed_identity":
            H = np.eye(problem.n)
        else:
            H = H_qn
        try:
            sol = solve_subproblem(SubproblemSpec(x, lam, H, problem, delta, faces))
        except NoFeasiblePiece as exc:
            failure = exc
            break
        s = sol.x_next - x
        ds = sol.lambda_next - lam
        step_norm = float(np.linalg.norm(s))
        err = (hess - H) @ s
        if config.hessian_mode == "bfgs" and step_norm > 1e-14:
            _, J, gphi = _smooth_data(problem, x)
            _, J_new, gphi_new = _smooth_data(problem, sol.x_next)
            gL_new = gphi_new + J_new.T @ sol.lambda_next
            gL_old = gphi + J.T @ sol.lambda_next
            H_qn = bfgs_update(H_qn, s, gL_new - gL_old)
        x, lam, faces = sol.x_next.copy(), sol.lambda_next.copy(), sol.faces
        residual = kkt_residual(problem, x, lam)
        delta = max(DELTA_GROWTH * float(np.sqrt(step_norm ** 2 + np.linalg.norm(ds) ** 2)),
                    DELTA_FLOOR)
        trace.append(IterateRecord(k, x.copy(), lam.copy(), residual, step_norm,
                                   piece_index=sol.piece_index, _error=err))
    if config.monitors:
        _attach_monitors(problem, trace, config.reference)
    if failure is not None:
        raise SubproblemFailure(str(failure), trace) from failure
    if residual > config.tol:
        raise MaxIterReached(
            f"no convergence in {config.max_iter} iterations (residual {residual:.2e})", trace)
    return trace


def _safe_ratio(num, den):
    if den <= 1e-300:
        return 0.0 if num <= 1e-300 else np.inf
    return num / den


def _tail_ratios(errs):
    """Ratios of successive errors over the last (at most six) steps."""
    K = min(6, len(errs) - 1)
    return [_safe_ratio(errs[j + 1], errs[j]) for j in range(len(errs) - 1 - K, len(errs) - 1)]


def rate_report(trace, reference: PrimalDual = None, tol: float = 1e-10) -> RateReport:
    """Convergence-rate ratios and their classification over a trace.

    Errors are measured against `reference`; without one, the step
    lengths ||x_{k+1} - x_k|| stand in for them (errors to the last iterate
    carry a factor 1 - q^(N-k) that makes a linear run read superlinear).
    Classification rule: the last three primal ratios below 0.5 with
    geometric mean below 0.1 (decreasing strictly unless the run converged)
    means superlinear; ratios confined to [0.1, 0.95] with spread below 0.2
    means linear; vanishing steps without convergence means stalled;
    anything else is sublinear.

    When the run converged (final residual <= tol), errors (or steps) at
    most LANDED_REL (1 + |x_ref|) have landed: their size is rounding, not
    a rate.  The rule then reads only the values before the first landed
    one, and fewer than four of them count as superlinear.  The reported
    ratios always cover the whole trace.
    """
    if len(trace) < 4:
        raise TooShortTrace("rate estimation needs at least 4 iterates")
    ref = reference if reference is not None else PrimalDual(trace[-1].x, trace[-1].lam)
    # (primal, dual) differences: to the reference, else between iterates
    diffs = ([(rec.x - ref.x, rec.lam - ref.lam) for rec in trace] if reference is not None
             else [(rec.x - prev.x, rec.lam - prev.lam) for prev, rec in zip(trace, trace[1:])])
    errs_x = [float(np.linalg.norm(dx)) for dx, _ in diffs]
    errs_pd = [float(np.sqrt(np.linalg.norm(u) ** 2 + np.linalg.norm(v) ** 2)) for u, v in diffs]
    errs = errs_x
    converged = trace[-1].residual <= tol
    if converged:
        floor = LANDED_REL * (1.0 + float(np.linalg.norm(ref.x)))
        errs = errs_x[:next((k for k, e in enumerate(errs_x) if e <= floor), len(errs_x))]
    ratios = _tail_ratios(errs)
    tail = ratios[-3:]
    finite = [r for r in ratios if np.isfinite(r)]
    steps = [rec.step_norm for rec in trace[-3:]]
    if converged and len(errs) < 4:
        cls = "superlinear"  # landed before a rate could show
    elif len(tail) == 3 and max(tail) < 0.5 and np.prod(tail) < 1e-3 \
            and (converged or tail[0] > tail[1] > tail[2]):
        cls = "superlinear"
    elif finite and all(0.1 <= r <= 0.95 for r in finite) and \
            (max(finite) - min(finite)) < 0.2:
        cls = "linear"
    elif max(steps) <= 1e-14 and trace[-1].residual > 1e-10:
        cls = "stalled"
    elif max(errs[-3:]) <= 1e-14:
        cls = "superlinear"  # landed exactly on the reference
    else:
        cls = "stalled" if max(steps) <= 1e-14 else "sublinear"
    return RateReport(_tail_ratios(errs_x), _tail_ratios(errs_pd), cls, ref)


def run_classification(trace, reference: PrimalDual = None, tol: float = 1e-10) -> str:
    """Classification that tolerates very short traces.

    Convergence in one or two steps (exact Newton on quadratic data) has
    no meaningful ratio history and counts as superlinear; otherwise the
    rate report rule applies.
    """
    if len(trace) < 4:
        return "superlinear" if trace[-1].residual <= tol else "stalled"
    return rate_report(trace, reference, tol).classification


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
