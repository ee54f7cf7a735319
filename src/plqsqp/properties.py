"""Randomized property suites for the calculus layers.

Each suite returns (failures, checked, detail).  They are shared by the
check-calculus CLI command and by the acceptance tests; all sampling is
driven by a caller-supplied generator so runs are reproducible.  Every
suite draws its cases as blocks, one draw per kind of sample, and answers
them with a fixed number of block calls (`prox`, `project`,
`subdifferential`, `subderivative`, `second_form`, `_membership`), cones
built once per group of points sharing pieces and active rows.  No suite
loops over its cases; a case whose critical cone is cut projects alone.
"""

import numpy as np

from .errors import PointNotInSet
from .lp import affine_frame, row_groups
from .plq import (
    PLQFunction,
    _membership,
    critical_groups,
    prox,
    sample_domain_points,
    second_form,
    subderivative,
    subdifferential,
    subgradient_dist,
)
from .polyhedral import (
    ACT_TOL,
    Polyhedron,
    contains,
    cut_cone,
    interior_point,
    project,
    tangent_cone,
    tangent_cone_at_rows,
)


def prox_resolvent_suite(g: PLQFunction, rng, n_cases: int = 200):
    """x - prox(x) must be a subgradient at prox(x) (resolvent identity); the
    x are drawn as one block, mapped by one block `prox` call and the pairs
    tested in one call."""
    X = 3.0 * rng.standard_normal((n_cases, g.m))
    Z = prox(g, X)
    failures = int(np.count_nonzero(subgradient_dist(g, Z, X - Z) > 1e-8))
    return failures, n_cases, "prox resolvent identity"


def subdifferential_duality_suite(g: PLQFunction, rng, n_cases: int = 200):
    """v in subdiff(z) iff <v, w> <= dg(z)(w) for the sampled directions.

    Subgradients must satisfy the inequality for every one of 100
    directions; non-subgradients must violate it along the separating
    direction, the step to their projection, or one of 5 more.  Both points
    are projections onto the subdifferential (`subdifferential`), and all
    cases' directions are one (n, 100, m) and one (n, 6, m) block, each
    valued by one `subderivative` call.
    """
    Z = sample_domain_points(g, rng, n_cases)
    V = subdifferential(g, Z, 2.0 * rng.standard_normal((n_cases, g.m)))
    W = rng.standard_normal((n_cases, 100, g.m))
    dv = subderivative(g, Z, W)
    tol = 1e-9 * np.where(np.isfinite(dv), 1.0 + np.abs(dv), 1.0)
    failures = np.any(np.vecdot(W, V[:, None]) > dv + tol, axis=1).astype(int)
    outside = V + rng.standard_normal((n_cases, g.m))
    sep = outside - subdifferential(g, Z, outside)
    dirs = np.concatenate([sep[:, None], rng.standard_normal((n_cases, 5, g.m))], axis=1)
    failures += (np.linalg.norm(sep, axis=1) > 1e-6) & ~np.any(
        np.vecdot(dirs, outside[:, None]) > subderivative(g, Z, dirs) + 1e-9, axis=1)
    return int(failures.sum()), n_cases, "subdifferential-subderivative duality"


def second_quotient_suite(g: PLQFunction, rng, n_cases: int = 200):
    """Second-order difference quotients equal the second subderivative.

    PLQ functions are exactly quadratic along critical rays near the base
    point, so the parabolic quotient matches d^2 g for every t inside the
    locally exact region (t0 scales it into that region, capped at the
    host piece's first inactive boundary along w).  Each case draws z, a
    subgradient v, one of its critical cones (`critical_groups`) and w in
    it; d^2 g must agree with the host piece's form, and the quotient with
    d^2 g at t = 1e-2, 1e-3 and 1e-4, one failure at most per case.  w is
    put back on E and on the rows of T it holds, and the quotient evaluated
    in extended precision: at t = 1e-4 the division by t^2/2 amplifies
    double rounding of g, and of <v, w> through the multipliers, past the
    asserted tolerance.
    """
    n, ld = n_cases, np.longdouble
    Z = sample_domain_points(g, rng, n)
    V = subdifferential(g, Z, rng.standard_normal((n, g.m)))
    groups, counts = critical_groups(g, Z, V), _membership(g, Z)[0].sum(axis=1)
    pick, W = rng.integers(0, counts), rng.standard_normal((n, g.m))
    host, picked = np.zeros(n, dtype=int), []
    for rows, cones in groups:
        for pos, (i, T, C) in enumerate(cones):
            mine, C = rows[pick[rows] == pos], C[pick[rows] == pos]
            host[mine], cut = i, C.any(axis=1)
            picked.append((mine, T))
            if not cut.all():
                W[mine[~cut]] = project(T, W[mine[~cut]])
            for k, c in zip(mine[cut], C[cut]):
                W[k] = project(cut_cone(T, c), W[k])
    norm = np.linalg.norm(W, axis=1)
    W /= np.where(norm > 1e-10, norm, 1.0)[:, None]
    d2 = second_form(g, groups, W)
    checked = (norm > 1e-10) & np.isfinite(d2)
    Wl = W.astype(ld)
    for mine, T in picked:  # onto E and the rows of T that w holds, per set of those rows
        on = np.abs(W[mine] @ T.A.T) <= 1e-9 * np.linalg.norm(T.A, axis=1)
        for S, rows in row_groups(on):
            if len(M := np.vstack([T.E, T.A[S]])):
                Wl[mine[rows]] -= (Wl[mine[rows]] @ M.T.astype(ld)) \
                    @ affine_frame(M[:0], M)[0].T.astype(ld)
    d2_host, t_cross = np.zeros(n), np.full(n, np.inf)
    for i in np.flatnonzero(np.bincount(host, minlength=len(g.pieces))):
        mine, C = host == i, g.pieces[i].C
        d2_host[mine] = np.vecdot(W[mine] @ g.pieces[i].A, W[mine])
        slack, rate = C.b - Z[mine] @ C.A.T, W[mine] @ C.A.T
        crossing = (rate > 1e-12) & (slack > 1e-12)
        t_cross[mine] = np.min(np.where(crossing, slack, np.inf) / np.where(crossing, rate, 1.0),
                               axis=1, initial=np.inf)
    bad = checked & (np.abs(d2_host - d2) > 1e-8 * (1.0 + np.abs(d2)))
    live = np.flatnonzero(checked & ~bad)
    Zl, Wl, d2 = Z[live].astype(ld), Wl[live], d2[live]
    t0 = 1e-2 * (1.0 + np.linalg.norm(Z[live], axis=1)) / (1.0 + np.linalg.norm(W[live], axis=1))
    vw = np.vecdot(V[live].astype(ld), Wl)
    for t in (1e-2, 1e-3, 1e-4):
        teff = np.minimum(np.minimum(t, t0), 0.9 * t_cross[live]).astype(ld)
        Zt = Zl + teff[:, None] * Wl
        member, inc = _membership(g, Zt)[0], np.full(len(live), np.inf, dtype=ld)
        for i, p in enumerate(g.pieces):  # g(zt) - g(z) on the first piece holding zt
            on, A = member[:, i] & ~member[:, :i].any(axis=1), p.A.astype(ld)
            inc[on] = 0.5 * (np.vecdot(Zt[on] @ A, Zt[on]) - np.vecdot(Zl[on] @ A, Zl[on])) \
                + (Zt[on] - Zl[on]) @ p.a.astype(ld)
        quot = ((inc - teff * vw) / (0.5 * teff * teff)).astype(float)
        bad[live] |= ~np.isfinite(quot) | (np.abs(quot - d2) > 1e-8 * (1.0 + np.abs(d2)))
    return int(np.count_nonzero(bad)), int(np.count_nonzero(checked)), \
        "second-order difference quotient equality"


def projection_suite(P: Polyhedron, rng, n_cases: int = 200):
    """Idempotency and the variational inequality of the nearest-point map."""
    inner = interior_point(P)
    if inner is None:
        return 0, 0, "projection properties (empty set skipped)"
    R = rng.standard_normal((n_cases, 2 * P.dim))  # each case's z, then its x
    Z = inner + 3.0 * R[:, :P.dim]
    PZ, PX = project(P, Z), project(P, inner + R[:, P.dim:])
    failures = (np.linalg.norm(project(P, PZ) - PZ, axis=1) > 1e-9) \
        | (np.vecdot(Z - PZ, PX - PZ) > 1e-9 * (1.0 + np.linalg.norm(Z, axis=1)))
    return int(np.count_nonzero(failures)), n_cases, \
        "projection idempotency + variational inequality"


def tangent_localization_suite(P: Polyhedron, rng, n_cases: int = 100):
    """w in T_P(x) iff x + w in P, for steps below the inactive-row slack.
    The x are one block `project` (each must lie in P), and the w are
    tested in one `contains` per group of x sharing their active rows."""
    base = interior_point(P)
    if base is None:
        return 0, 0, "tangent localization (empty set skipped)"
    X = project(P, base + rng.standard_normal((n_cases, P.dim)))
    if not contains(P, X).all():
        raise PointNotInSet("tangent cone requires a point of the set")
    slack = P.b - X @ P.A.T
    act = slack <= ACT_TOL * (1.0 + np.abs(P.b))
    eps0 = np.min(np.where(act, 1.0, 0.5 * slack / np.maximum(np.linalg.norm(P.A, axis=1), 1e-12)),
                  axis=1, initial=1.0)
    W = rng.standard_normal((n_cases, P.dim))
    W *= (eps0 * rng.uniform(0.05, 1.0, n_cases) / np.linalg.norm(W, axis=1))[:, None]
    tangent = np.zeros(n_cases, dtype=bool)
    for mask, rows in row_groups(act):
        tangent[rows] = contains(tangent_cone_at_rows(P, np.flatnonzero(mask).tolist()), W[rows])
    return int(np.count_nonzero(tangent != contains(P, X + W))), n_cases, \
        "tangent cone localization"


def moreau_polarity_suite(C, rng, n_cases: int = 100):
    """<P_C v, v - P_C v> = 0 for cone projections."""
    V = 2.0 * rng.standard_normal((n_cases, C.dim))
    Pv = project(C, V)
    failures = np.abs(np.vecdot(Pv, V - Pv)) > 1e-9 * (1.0 + np.vecdot(V, V))
    return int(np.count_nonzero(failures)), n_cases, "Moreau polarity of cone projections"


def run_calculus_suites(g, Theta, rng, n_cases: int = 200):
    """All suites for one instance; list of (name, failures, checked)."""
    results = []
    for fn, args in [
        (prox_resolvent_suite, (g, rng, n_cases)),
        (subdifferential_duality_suite, (g, rng, max(50, n_cases // 4))),
        (second_quotient_suite, (g, rng, n_cases)),
    ]:
        failures, checked, name = fn(*args)
        results.append((name, failures, checked))
    failures, checked, name = projection_suite(Theta, rng, n_cases)
    results.append((name, failures, checked))
    failures, checked, name = tangent_localization_suite(Theta, rng, max(50, n_cases // 2))
    results.append((name, failures, checked))
    base = interior_point(Theta)
    if base is not None:
        cone = tangent_cone(Theta, project(Theta, base))
        failures, checked, name = moreau_polarity_suite(cone, rng, max(50, n_cases // 2))
        results.append((name, failures, checked))
    return results
