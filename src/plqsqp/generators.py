"""Seeded instance generators with analytically known KKT points.

Each generator picks the target primal-dual pair first and then solves
for the linear terms of the data, so the pair satisfies the KKT system
by construction; the pair is returned alongside the problem and embedded
in the problem file metadata.  Rate measurements need this ground truth.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BadParams
from .kkt import CompositeProblem, Poly2Map, kkt_residual
from .plq import plq_indicator, plq_separable, plq_vector_max
from .polyhedral import Polyhedron

KINDS = ("nlp", "elqp", "critical_showcase", "minmax")


@dataclass(frozen=True)
class GeneratedProblem:
    problem: CompositeProblem
    xbar: np.ndarray
    lambdabar: np.ndarray
    kind: str
    info: dict = field(default_factory=dict)

    def metadata(self):
        md = {"kind": self.kind, "xbar": self.xbar.tolist(),
              "lambdabar": self.lambdabar.tolist()}
        md.update({k: v for k, v in self.info.items()
                   if isinstance(v, (int, float, str, list))})
        return md


def _random_symmetric(rng, n, scale=1.0):
    M = rng.standard_normal((n, n))
    return scale * 0.5 * (M + M.T)


def _spd_completion(base, shift_to=0.5):
    """Add a multiple of the identity so the matrix is PD with margin."""
    w = np.linalg.eigvalsh(base).min()
    if w < shift_to:
        base = base + (shift_to - w) * np.eye(base.shape[0])
    return base


def _close_instance(rng, xbar, lam, Qs, ls, cs, J, g):
    """The composite with phi completed so hess_xx L is PD with margin and
    (xbar, lam) is a KKT pair, or None when the KKT check fails."""
    n = xbar.size
    S = np.einsum("k,kij->ij", lam, Qs)
    Qphi = _spd_completion(_random_symmetric(rng, n, 0.5) - S, shift_to=0.6)
    lphi = -(Qphi @ xbar) - J.T @ lam
    phi = Poly2Map(np.zeros(1), lphi.reshape(1, -1), Qphi.reshape(1, n, n))
    problem = CompositeProblem(phi, Poly2Map(cs, ls, Qs), g, Polyhedron.whole_space(n))
    return problem if kkt_residual(problem, xbar, lam) <= 1e-10 else None


def generate_nlp(n=3, n_eq=1, n_ineq=2, n_active=None, seed=0, curvature=0.3):
    """Nonlinear program encoded as a composite: g indicates {0}^s x R_-^t.

    Quadratic constraint maps, PD Lagrangian Hessian (so the second-order
    condition holds), and independent active gradients (so the multiplier
    is unique).
    """
    rng = np.random.default_rng(seed)
    m = n_eq + n_ineq
    if n_active is None:
        n_active = (n_ineq + 1) // 2
    if n < 1 or n_eq < 0 or m < 1 or not 0 <= n_active <= n_ineq or n_eq + n_active > n:
        raise BadParams("need n >= 1, n_eq >= 0, 0 <= n_active <= n_ineq, at least one "
                        "constraint and no more active constraints than variables")
    for _ in range(50):
        xbar = rng.uniform(-1.0, 1.0, size=n)
        Qs = np.array([_random_symmetric(rng, n, curvature) for _ in range(m)])
        ls = rng.uniform(-1.0, 1.0, size=(m, n))
        J = ls + np.einsum("kij,j->ki", Qs, xbar)
        active = list(range(n_eq)) + [n_eq + t for t in range(n_active)]
        if np.linalg.matrix_rank(J[active]) < len(active):
            continue
        lam = np.zeros(m)
        lam[:n_eq] = rng.uniform(-1.0, 1.0, size=n_eq)
        lam[n_eq:n_eq + n_active] = rng.uniform(0.5, 1.5, size=n_active)
        cs = np.empty(m)
        for j in range(m):
            val = float(ls[j] @ xbar + 0.5 * xbar @ Qs[j] @ xbar)
            slack = 0.0 if j in active else -float(rng.uniform(0.4, 1.0))
            cs[j] = slack - val
        dom = Polyhedron(np.eye(m)[n_eq:], np.zeros(n_ineq), np.eye(m)[:n_eq], np.zeros(n_eq))
        problem = _close_instance(rng, xbar, lam, Qs, ls, cs, J, plq_indicator(dom))
        if problem is not None:
            return GeneratedProblem(problem, xbar, lam, "nlp",
                                    {"n_eq": n_eq, "n_ineq": n_ineq,
                                     "n_active": n_active, "seed": seed})
    raise BadParams("could not generate a well-posed NLP instance")


def _box_dual_cells(lo, hi, beta):
    """Cells of sup_{u in [lo,hi]} {zu - beta u^2 / 2} on the z-line."""
    if beta > 0:
        return [
            (-np.inf, beta * lo, 0.0, lo, -0.5 * beta * lo * lo),
            (beta * lo, beta * hi, 1.0 / beta, 0.0, 0.0),
            (beta * hi, np.inf, 0.0, hi, -0.5 * beta * hi * hi),
        ]
    return [(-np.inf, 0.0, 0.0, lo, 0.0), (0.0, np.inf, 0.0, hi, 0.0)]


def generate_elqp(n=2, m=2, seed=0, beta_range=(0.5, 1.5), box=(0.0, 1.0),
                  boundary_fraction=0.5):
    """Extended linear-quadratic program with a separable dual-box g.

    phi is strongly convex quadratic, Phi affine (Phi = b - Ax), and
    g(z) = sup_{u in [lo,hi]^m} {<z,u> - ½<u, diag(beta) u>}, emitted as
    an explicit separable piece representation (3 cells per coordinate).
    The target multiplier mixes interior and boundary coordinates.
    """
    if n < 1 or m < 1 or len(box) != 2 or not box[0] <= box[1]:
        raise BadParams(f"need n, m >= 1 and a box lo <= hi, got {n!r}, {m!r} and {box!r}")
    rng = np.random.default_rng(seed)
    lo, hi = box
    beta = rng.uniform(*beta_range, size=m)
    A = rng.standard_normal((m, n))
    Q = _spd_completion(_random_symmetric(rng, n, 0.5), shift_to=0.8)
    xbar = rng.uniform(-1.0, 1.0, size=n)
    lam = np.empty(m)
    zbar = np.empty(m)
    for j in range(m):
        if rng.uniform() < boundary_fraction:
            at_hi = rng.uniform() < 0.5
            lam[j] = hi if at_hi else lo
            normal = float(rng.uniform(0.2, 1.0)) * (1.0 if at_hi else -1.0)
        else:
            lam[j] = float(rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo)))
            normal = 0.0
        zbar[j] = beta[j] * lam[j] + normal
    b = zbar + A @ xbar
    q = A.T @ lam - Q @ xbar
    phi = Poly2Map(np.zeros(1), q.reshape(1, -1), Q.reshape(1, n, n))
    Phi = Poly2Map(b, -A, np.zeros((m, n, n)))
    g = plq_separable([_box_dual_cells(lo, hi, beta[j]) for j in range(m)])
    problem = CompositeProblem(phi, Phi, g, Polyhedron.whole_space(n))
    if kkt_residual(problem, xbar, lam) > 1e-10:
        raise BadParams(f"ELQP construction failed its own KKT check (seed {seed})")
    info = {"seed": seed, "beta": beta.tolist(), "box": list(box),
            "Omega_box": [lo, hi], "dual_B_diag": beta.tolist()}
    return GeneratedProblem(problem, xbar, lam, "elqp", info)


def generate_minmax(n=3, m=3, n_active=2, seed=0, curvature=0.4):
    """Min-max instance: minimize phi(x) + max_j Phi_j(x), quadratic Phi.

    The max over quadratic components makes the composite genuinely
    nonsmooth and nonquadratic, so the SQP method takes several steps.
    The multiplier lives on the unit simplex over the active components.
    """
    rng = np.random.default_rng(seed)
    if n < 1 or n_active < 1 or n_active > min(m, n + 1):
        raise BadParams("need n >= 1 and active components between 1 and min(m, n+1)")
    for _ in range(50):
        xbar = rng.uniform(-1.0, 1.0, size=n)
        Qs = np.array([_random_symmetric(rng, n, curvature) for _ in range(m)])
        ls = rng.uniform(-1.0, 1.0, size=(m, n))
        J = ls + np.einsum("kij,j->ki", Qs, xbar)
        lam = np.zeros(m)
        w = rng.uniform(0.5, 1.5, size=n_active)
        lam[:n_active] = w / w.sum()
        # uniqueness of the simplex weights needs affine independence of
        # the active gradients
        diffs = J[1:n_active] - J[0]
        if n_active > 1 and np.linalg.matrix_rank(diffs) < n_active - 1:
            continue
        tval = float(rng.uniform(-0.5, 0.5))
        cs = np.empty(m)
        for j in range(m):
            val = float(ls[j] @ xbar + 0.5 * xbar @ Qs[j] @ xbar)
            target = tval if j < n_active else tval - float(rng.uniform(0.4, 1.0))
            cs[j] = target - val
        problem = _close_instance(rng, xbar, lam, Qs, ls, cs, J, plq_vector_max(m))
        if problem is not None:
            return GeneratedProblem(problem, xbar, lam, "minmax",
                                    {"seed": seed, "n_active": n_active})
    raise BadParams("could not generate a well-posed min-max instance")


def generate_critical_showcase(seed=0):
    """The degenerate scalar instance: phi = x^2, Phi = x^2, g = indicator of {0}.

    Every real number is a multiplier at xbar = 0; lambda = -1 is the
    critical one (the Lagrangian Hessian 2 + 2*lambda vanishes there).
    The recorded pair uses the noncritical lambda = 0.
    """
    phi = Poly2Map(np.zeros(1), np.zeros((1, 1)), np.array([[[2.0]]]))
    Phi = Poly2Map(np.zeros(1), np.zeros((1, 1)), np.array([[[2.0]]]))
    problem = CompositeProblem(phi, Phi, plq_indicator(Polyhedron.point([0.0])),
                               Polyhedron.whole_space(1))
    return GeneratedProblem(problem, np.zeros(1), np.zeros(1), "critical_showcase",
                            {"critical_lambda": -1.0, "multiplier_set": "all reals",
                             "seed": seed})


def generate(kind: str, seed: int = 0, **params) -> GeneratedProblem:
    """Dispatch by kind; see the individual generators for parameters."""
    if kind == "nlp":
        return generate_nlp(seed=seed, **params)
    if kind == "elqp":
        return generate_elqp(seed=seed, **params)
    if kind == "minmax":
        return generate_minmax(seed=seed, **params)
    if kind == "critical_showcase":
        return generate_critical_showcase(seed=seed, **params)
    raise BadParams(f"unknown kind {kind!r}; choose from {KINDS}")
