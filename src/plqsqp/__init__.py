"""SQP solver and variational diagnostics for piecewise linear-quadratic
composite optimization problems: minimize phi(x) + g(Phi(x)) over x in a
polyhedral set, with g convex piecewise linear-quadratic."""

from .errors import PLQError
from .polyhedral import (
    ConeFamily,
    Face,
    PolyCone,
    Polyhedron,
    contains,
    critical_cone,
    enumerate_faces,
    normal_cone_dist,
    project,
    project_cone_union,
    tangent_cone,
)
from .plq import (
    DualLQ,
    Piece,
    PLQFunction,
    active_indices,
    critical_cone_g,
    dual_lq_eval_prox,
    evaluate,
    prox,
    proto_derivative_contains,
    second_subderivative,
    subderivative,
    subdifferential,
)
from .kkt import (
    CompositeProblem,
    KKTPoint,
    Poly2Map,
    PrimalDual,
    cone_D,
    kkt_point,
    kkt_residual,
    lagrangian,
    multiplier_set,
    perturbed_problem,
    subspace_Dplus,
)
from .subqp import SubproblemSolution, SubproblemSpec, solve_subproblem
from .sqp import (
    IterateRecord,
    RateReport,
    SQPConfig,
    bfgs_update,
    dennis_more_values,
    rate_report,
    run_sqp,
)
from .diagnostics import (
    Verdict,
    check_noncritical,
    check_sosc,
    check_unique_multiplier,
    estimate_calmness,
    verify_reduction_lemma,
)
from .generators import GeneratedProblem, generate
from .probio import load_problem, save_problem

__version__ = "0.1.0"

__all__ = [
    "PLQError", "Polyhedron", "PolyCone", "Face", "ConeFamily",
    "contains", "project", "tangent_cone", "normal_cone_dist", "critical_cone",
    "enumerate_faces", "project_cone_union",
    "Piece", "PLQFunction", "DualLQ", "evaluate", "active_indices",
    "subdifferential", "subderivative", "critical_cone_g", "second_subderivative",
    "proto_derivative_contains", "prox", "dual_lq_eval_prox",
    "Poly2Map", "CompositeProblem", "PrimalDual", "lagrangian", "kkt_residual",
    "KKTPoint", "kkt_point",
    "multiplier_set", "cone_D", "subspace_Dplus", "perturbed_problem",
    "SubproblemSpec", "SubproblemSolution", "solve_subproblem",
    "SQPConfig", "IterateRecord", "RateReport", "run_sqp", "bfgs_update",
    "dennis_more_values", "rate_report",
    "Verdict", "check_noncritical", "check_unique_multiplier", "check_sosc",
    "verify_reduction_lemma", "estimate_calmness",
    "GeneratedProblem", "generate", "load_problem", "save_problem",
]
