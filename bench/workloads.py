"""The four workloads: one round of operations each, with independent checks.

A round is a fixed list of operations; a run repeats whole rounds.  Each
operation is (label, call, check): `call` runs the package on the loaded
inputs and is timed, `check` verifies its output with plain numpy against
an answer known by construction or in closed form and returns an error
message (or None).  The checks never call the package.
"""

from collections import namedtuple

import numpy as np

# Package functions are called through their modules, so that the tracer's
# rebinding of module attributes also sees the benchmark's own calls.
from plqsqp import diagnostics, plq, polyhedral, properties, sqp
from plqsqp.kkt import PrimalDual
from plqsqp.polyhedral import PolyCone, Polyhedron
from plqsqp.sqp import SQPConfig

from fixtures import SOLVE_INSTANCES, instance_name

# starts per instance in one round; unequal counts keep the median and the
# 90th percentile of operation times inside one instance's cluster of times
SOLVE_STARTS = {"exact": 24, "bfgs": 16}
SOLVE_TOL = 1e-10
SOLVE_MAX_ITER = {"exact": 50, "bfgs": 100}
CALMNESS_RADII = [1e-2, 1e-3, 1e-4]


# group: the acceptance-gate bucket ("criterion1"), or (instance, mode, xbar) in solve
Op = namedtuple("Op", "label call check group", defaults=(None,))


def _arr(v):
    return np.asarray(v, dtype=float).ravel()


def _hess_lagrangian(problem, lam):
    """Hessian of the Lagrangian of quadratic data, from the raw arrays."""
    return problem.phi.Q[0] + np.einsum("k,kij->ij", _arr(lam), problem.Phi.Q)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def superlinear(xs, xbar, residual, tol=SOLVE_TOL):
    """Criterion 4's classification rule on the primal errors, with the
    floating-point floor taken out.

    An iterate within 1e-13 (relative) of the reference has landed: its
    error is rounding, not a rate, so it and any later iterates are dropped
    before the rule applies (criterion 4's own rule reads a quadratic step that lands there,
    e.g. errors 1.7e-5, 7e-11, 3e-16, as "sublinear").  Runs with fewer than
    four remaining iterates that reach the tolerance count as superlinear;
    otherwise the last three of the last six error ratios must decrease
    strictly with the final one below 0.1.
    """
    if residual > tol:
        return False
    floor = 1e-13 * (1.0 + float(np.linalg.norm(xbar)))
    errs = [float(np.linalg.norm(x - xbar)) for x in xs]
    errs = errs[:next((i for i, e in enumerate(errs) if e <= floor), len(errs))]
    if len(errs) < 4:
        return True
    k = min(6, len(errs) - 1)
    tail = [errs[j + 1] / errs[j] for j in range(len(errs) - 1 - k, len(errs) - 1)][-3:]
    return tail[0] > tail[1] > tail[2] and tail[2] < 0.1


def solve_round(inputs, rng):
    """Seeded starts within 0.5 of the KKT point, per instance and mode."""
    ops = []
    for kind, params, gen_seed in SOLVE_INSTANCES:
        key = instance_name(kind, params, gen_seed)
        problem, md = inputs[key]
        xbar, lbar = _arr(md["xbar"]), _arr(md["lambdabar"])
        n, m = xbar.size, lbar.size
        for mode in ("exact", "bfgs"):
            config = SQPConfig(hessian_mode=mode, tol=SOLVE_TOL, max_iter=SOLVE_MAX_ITER[mode],
                               reference=PrimalDual(xbar, lbar))
            for s in range(SOLVE_STARTS[mode]):
                d = rng.standard_normal(n + m)
                d /= np.linalg.norm(d)
                x0 = xbar + 0.5 * d[:n] * rng.uniform(0.3, 1.0)
                l0 = lbar + 0.5 * d[n:] * rng.uniform(0.3, 1.0)

                def call(problem=problem, x0=x0, l0=l0, config=config):
                    return sqp.run_sqp(problem, x0, l0, config)

                def check(trace, xbar=xbar, lbar=lbar):
                    last = trace[-1]
                    if not last.residual <= SOLVE_TOL:
                        return f"final residual {last.residual:.2e}"
                    dist = np.sqrt(np.linalg.norm(last.x - xbar) ** 2
                                   + np.linalg.norm(last.lam - lbar) ** 2)
                    if dist > 1e-7:
                        return f"ended {dist:.2e} from the constructed KKT point"
                    return None

                ops.append(Op(f"{key}/{mode}/{s}", call, check, group=(key, mode, xbar)))
    return ops


def solve_round_checks(ops, outputs):
    """At least 90% of the exact-mode runs per instance must be superlinear."""
    problems = []
    tally = {}
    for op, out in zip(ops, outputs):
        key, mode, xbar = op.group
        if mode != "exact":
            continue
        wins, total = tally.get(key, (0, 0))
        ok = out is not None and superlinear([r.x for r in out], xbar, out[-1].residual)
        tally[key] = (wins + ok, total + 1)
    for key, (wins, total) in tally.items():
        if wins < 0.9 * total:
            problems.append(f"{key}: {wins}/{total} exact-mode runs superlinear")
    return problems


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------

def _expect(result, cert_check=None):
    """Check: the verdict result matches; a `fails` certificate passes its test."""
    def check(verdict):
        if verdict.result != result:
            return f"verdict {verdict.result}, expected {result}"
        if verdict.result.endswith("fails"):
            cert = verdict.certificate
            if cert is None:
                return "failure verdict without a certificate"
            return cert_check(_arr(cert))
        return None
    return check


def _critical_direction_check(problem, lam):
    """P2 at lambda = -1: J(0) = 0 and D(dg) contains (0, u) for all u, so a
    critical direction is any w != 0 with hess_xx L w = 0."""
    H = _hess_lagrangian(problem, lam)

    def check(w):
        if np.linalg.norm(w) <= 1e-12 or np.linalg.norm(H @ w) > 1e-9 * np.linalg.norm(w):
            return f"certificate {w} is not a critical direction"
        return None
    return check


def _second_multiplier_check(problem, x, lam, in_subdiff):
    """A nonuniqueness certificate u: J^T u = 0 (Theta = R^n) and lam + t u
    stays a subgradient of g at Phi(x) for a small t > 0."""
    J = problem.Phi.l + np.einsum("kij,j->ki", problem.Phi.Q, _arr(x))

    def check(u):
        if np.linalg.norm(u) <= 1e-12 or np.linalg.norm(J.T @ u) > 1e-9 * np.linalg.norm(u):
            return f"certificate {u} does not keep stationarity"
        if not in_subdiff(_arr(lam) + 1e-3 * u / np.abs(u).max()):
            return f"certificate {u} leaves the subdifferential"
        return None
    return check


def _nonpositive_form_check(problem, lam):
    """P2 at lambda = -1: the critical cone is R, so an SOSC failure is a
    direction with w^T hess_xx L w <= 0."""
    H = _hess_lagrangian(problem, lam)

    def check(w):
        if np.linalg.norm(w) <= 1e-12 or float(w @ H @ w) > 1e-8 * float(w @ w):
            return f"certificate {w} has a positive form value"
        return None
    return check


def diagnose_points(inputs):
    """(label, problem, x, lam, {check name: expected-result check})."""
    points = []
    for kind, params, gen_seed in SOLVE_INSTANCES:
        key = instance_name(kind, params, gen_seed)
        problem, md = inputs[key]
        # PD Lagrangian Hessian and independent active gradients by construction
        points.append((key, problem, md["xbar"], md["lambdabar"], {
            "noncritical": _expect("holds"), "unique": _expect("holds"),
            "sosc": _expect("heuristic_holds")}))
    p1, md = inputs["P1"]
    points.append(("P1", p1, md["xbar"], md["lambdabar"], {
        "noncritical": _expect("holds"), "unique": _expect("holds"),
        "sosc": _expect("heuristic_holds")}))
    p2, md = inputs["P2"]
    anything = lambda lam: True  # the subdifferential of the indicator of {0} is R
    for lam in (md["lambdabar"], md["critical_lambda"]):
        critical = lam[0] == -1.0
        points.append((f"P2(lam={lam[0]:g})", p2, md["xbar"], lam, {
            "noncritical": _expect("fails", _critical_direction_check(p2, lam)) if critical
            else _expect("holds"),
            "unique": _expect("fails", _second_multiplier_check(p2, md["xbar"], lam, anything)),
            "sosc": _expect("heuristic_fails", _nonpositive_form_check(p2, lam)) if critical
            else _expect("heuristic_holds")}))
    dr, md = inputs["degenerate"]
    nonneg = lambda lam: bool(np.all(lam >= 0.0))  # subdifferential of ind(R_-^2) at 0
    points.append(("degenerate", dr, md["xbar"], md["lambdabar"], {
        "noncritical": _expect("holds"),
        "unique": _expect("fails", _second_multiplier_check(dr, md["xbar"], md["lambdabar"],
                                                            nonneg)),
        "sosc": _expect("heuristic_holds")}))
    for key in ("wide15", "wide21"):
        problem, md = inputs[key]
        # hess_xx L = I, so the form is positive on every nonzero direction
        points.append((key, problem, md["xbar"], md["lambdabar"],
                       {"sosc": _expect("heuristic_holds")}))
    return points


def diagnose_round(inputs, rng):
    checks = {"noncritical": diagnostics.check_noncritical,
              "unique": diagnostics.check_unique_multiplier, "sosc": diagnostics.check_sosc}
    ops = []
    for label, problem, x, lam, expected in diagnose_points(inputs):
        for cname, check in expected.items():
            fn = checks[cname]
            if cname == "sosc":
                sosc_rng = np.random.default_rng(rng.integers(2 ** 63))

                def call(fn=fn, problem=problem, x=x, lam=lam, r=sosc_rng):
                    return fn(problem, x, lam, rng=r)
            else:
                def call(fn=fn, problem=problem, x=x, lam=lam):
                    return fn(problem, x, lam)
            ops.append(Op(f"{label}/{cname}", call, check))
    return ops


# ---------------------------------------------------------------------------
# calmness
# ---------------------------------------------------------------------------

def _elqp_modulus_bound(problem, md):
    """Lipschitz bound of the perturbed ELQP solution map (v, p) -> (x, lam).

    g is a sum of g_j(z) = sup_{u in [lo, hi]} {z u - beta_j u^2 / 2}, which is
    C^1 with grad g Lipschitz of constant b = 1 / min beta.  The objective
    is strongly convex of modulus mu = lambda_min(Q), so with a = ||A||
    |x - xbar| <= (|v| + a b |p|) / mu and |lam - lambar| <= b (a |x - xbar| + |p|).
    """
    a = float(np.linalg.norm(problem.Phi.l, 2))
    b = 1.0 / min(md["beta"])
    mu = float(np.linalg.eigvalsh(problem.phi.Q[0]).min())
    cx = max(1.0, a * b) / mu
    return cx + b * (a * cx + 1.0)


def _within(bound):
    """Check: every sampled modulus is positive, finite and at most `bound`.

    The estimate is a maximum of |solution shift| / |perturbation| over
    samples, so it cannot exceed the true Lipschitz modulus of the solution
    map when the perturbed problems are solved correctly.
    """
    def check(verdict):
        k = _arr(verdict.certificate)
        if not (np.all(np.isfinite(k)) and k.min() > 0):
            return f"moduli {k} are not all positive and finite"
        if k.max() > bound * (1.0 + 1e-4):
            return f"modulus {k.max():.4g} exceeds the closed-form bound {bound:.4g}"
        return None
    return check


def calmness_round(inputs, rng):
    """Perturbed-KKT moduli at noncritical points with closed-form bounds.

    P1 (x = 1 - p, lam = 1 + v + p): full modulus <= 2, primal-D modulus = 1
    (D = {0}).  Degenerate range (x = min(-p1, -p2), lam1 + lam2 = 1 + v - x):
    full modulus <= 2, primal-D+ modulus <= 1 (D+ = {0}).  ELQP seed 3: the
    strong-convexity bound above.
    """
    elqp = instance_name(*SOLVE_INSTANCES[0])
    plan = [
        ("P1", "full", 2.0),
        ("P1", "primal_D", 1.0),
        (elqp, "full", _elqp_modulus_bound(*inputs[elqp])),
        ("degenerate", "primal_Dplus", 1.0),
        ("degenerate", "full", 2.0),
    ]
    ops = []
    for key, mode, bound in plan:
        problem, md = inputs[key]
        op_rng = np.random.default_rng(rng.integers(2 ** 63))

        def call(problem=problem, x=md["xbar"], lam=md["lambdabar"], mode=mode, r=op_rng):
            return diagnostics.estimate_calmness(problem, x, lam, radii=CALMNESS_RADII,
                                                 n_samples=8, mode=mode, rng=r)
        ops.append(Op(f"{key}/{mode}", call, _within(bound)))
    return ops


# ---------------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------------

def _suite_ok(out):
    failures, checked, name = out
    if failures or checked <= 0:
        return f"{name}: {failures} failures in {checked} cases"
    return None


def _lemma_holds(verdict):
    return None if verdict.result == "holds" else f"reduction lemma {verdict.detail}"


def _closed_form(g, xs, expected):
    def call():
        return [plq.prox(g, x) for x in xs]

    def check(out):
        err = max(float(np.abs(z - e).max()) for z, e in zip(out, expected))
        return None if err <= 1e-9 else f"prox off the closed form by {err:.2e}"
    return call, check


def calculus_round(inputs, rng):
    """Criterion-1 suites, criterion-2 reduction lemma, closed-form spot checks."""
    gs = {name[2:]: inputs[name][0].g for name in inputs if name.startswith("g_")}
    ops = []
    for name, g in gs.items():
        for suite, n_cases in ((properties.prox_resolvent_suite, 200),
                               (properties.subdifferential_duality_suite, 50),
                               (properties.second_quotient_suite, 200)):
            r = np.random.default_rng(rng.integers(2 ** 63))
            ops.append(Op(f"{name}/{suite.__name__}",
                          lambda suite=suite, g=g, r=r, n=n_cases: suite(g, r, n_cases=n),
                          _suite_ok, group="criterion1"))
    simplex = Polyhedron(np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                         np.array([1.0, 0.0, 0.0]), np.zeros((0, 2)), np.zeros(0))
    box = Polyhedron.box([-1.0, 0.0], [1.0, 2.0])
    for pname, P in (("simplex", simplex), ("nonpos", Polyhedron.nonpos(1)), ("box", box)):
        for suite, n_cases in ((properties.projection_suite, 200),
                               (properties.tangent_localization_suite, 100)):
            r = np.random.default_rng(rng.integers(2 ** 63))
            ops.append(Op(f"{pname}/{suite.__name__}",
                          lambda suite=suite, P=P, r=r, n=n_cases: suite(P, r, n_cases=n),
                          _suite_ok, group="criterion1"))
    cone = PolyCone.from_rows(np.array([[1.0, 0.5], [-0.2, -1.0]]), np.zeros((0, 2)))
    r = np.random.default_rng(rng.integers(2 ** 63))
    ops.append(Op("cone/moreau_polarity_suite",
                  lambda r=r: properties.moreau_polarity_suite(cone, r, n_cases=100),
                  _suite_ok, group="criterion1"))

    # Only criterion 2's half_square anchor is kept.  At the other three,
    # whose critical cones have rows, verify_reduction_lemma raises
    # PointNotInSet on some sample seeds: it tests cone membership at 1e-8,
    # then normal_cone_dist re-tests it at 1e-9.
    anchors = {"half_square": ([1.0], [1.0])}
    for name, (z, v) in anchors.items():
        r = np.random.default_rng(rng.integers(2 ** 63))
        ops.append(Op(f"{name}/reduction_lemma",
                      lambda g=gs[name], z=z, v=v, r=r: diagnostics.verify_reduction_lemma(
                          g, z, v, eps=1e-2, n_samples=500, rng=r),
                      _lemma_holds))

    xs = 3.0 * rng.standard_normal((200, 1))
    soft = np.sign(xs) * np.maximum(np.abs(xs) - 1.0, 0.0)
    ops.append(Op("abs/prox_soft_threshold", *_closed_form(gs["abs"], xs, soft)))
    ops.append(Op("ind_nonpos/prox_projection",
                  *_closed_form(gs["ind_nonpos"], xs, np.minimum(xs, 0.0))))
    ops.append(Op("half_square/prox_halving", *_closed_form(gs["half_square"], xs, xs / 2.0)))
    pts = 3.0 * rng.standard_normal((200, 2))
    lo, hi = np.array([-1.0, 0.0]), np.array([1.0, 2.0])

    def box_call():
        return [polyhedral.project(box, p) for p in pts]

    def box_check(out):
        err = float(np.abs(np.asarray(out) - np.clip(pts, lo, hi)).max())
        return None if err <= 1e-9 else f"box projection off np.clip by {err:.2e}"
    ops.append(Op("box/projection_clip", box_call, box_check))
    return ops


WORKLOADS = {
    "solve": (solve_round, solve_round_checks),
    "diagnose": (diagnose_round, None),
    "calmness": (calmness_round, None),
    "calculus": (calculus_round, None),
}
