"""Randomized property suites for the calculus layers.

Each suite returns (failures, checked, detail).  They are shared by the
check-calculus CLI command and by the acceptance tests; all sampling is
driven by a caller-supplied generator so runs are reproducible.  The
duality, resolvent, projection and Moreau suites draw their directions
and points as blocks, map each block by one `prox` or `project` call and
test it in one `subderivative` or `subgradient_dist` call or one numpy
product; the tangent and second-quotient suites go point by point.
"""

import numpy as np

from .plq import (
    PLQFunction,
    piece_critical_cones,
    prox,
    sample_domain_point,
    second_form,
    subderivative,
    subdifferential,
    subgradient_dist,
)
from .polyhedral import (
    Polyhedron,
    active_rows,
    contains,
    interior_point,
    project,
    tangent_cone,
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

    Subgradients must satisfy the inequality for every direction;
    non-subgradients must violate it along the separating direction, the
    step to their projection.  Each case draws its 100 directions, and its
    6 separating ones, as one block and takes one `subderivative` call per
    block; both points are projections onto the subdifferential
    (`subdifferential`).
    """
    failures = 0
    checked = 0
    for _ in range(n_cases):
        z = sample_domain_point(g, rng)
        v_in = subdifferential(g, z, 2.0 * rng.standard_normal(g.m))
        checked += 1
        W = rng.standard_normal((100, g.m))
        dv = subderivative(g, z, W)
        tol = 1e-9 * np.where(np.isfinite(dv), 1.0 + np.abs(dv), 1.0)
        failures += bool(np.any(W @ v_in > dv + tol))
        outside = v_in + rng.standard_normal(g.m)
        sep = outside - subdifferential(g, z, outside)
        if np.linalg.norm(sep) > 1e-6:
            dirs = np.vstack([sep, rng.standard_normal((5, g.m))])
            failures += not np.any(dirs @ outside > subderivative(g, z, dirs) + 1e-9)
    return failures, checked, "subdifferential-subderivative duality"


def _increment_extended(g: PLQFunction, z, zt):
    """g(zt) - g(z) in extended precision (the t^-2 quotient needs the
    headroom), both values from the first piece holding zt; +inf when none
    does.  Pieces meeting at z agree there only up to rounding, which the
    quotient would amplify past its tolerance."""
    for p in g.pieces:
        if contains(p.C, np.asarray(zt, dtype=float)):
            A = p.A.astype(np.longdouble)
            a = p.a.astype(np.longdouble)
            return 0.5 * (zt @ A @ zt - z @ A @ z) + a @ (zt - z)
    return np.longdouble(np.inf)


def second_quotient_suite(g: PLQFunction, rng, n_cases: int = 200):
    """Second-order difference quotients equal the second subderivative.

    PLQ functions are exactly quadratic along critical rays near the base
    point, so the parabolic quotient matches d^2 g for every t inside the
    locally exact region (t0 scales it into that region).  The quotient
    is evaluated in extended precision: at t = 1e-4 the division by t^2/2
    amplifies double-rounding of g past the asserted tolerance.
    """
    failures = 0
    checked = 0
    for _ in range(n_cases):
        z = sample_domain_point(g, rng)
        v = subdifferential(g, z, rng.standard_normal(g.m))
        cones = piece_critical_cones(g, z, v)
        idx = int(rng.integers(len(cones)))
        i, K = cones[idx]
        w = project(K, rng.standard_normal(g.m))
        nw = np.linalg.norm(w)
        if nw <= 1e-10:
            continue
        w = w / nw
        d2 = second_form(g, cones, w)
        if not np.isfinite(d2):
            continue
        checked += 1
        t0 = 1e-2 * (1.0 + np.linalg.norm(z)) / (1.0 + np.linalg.norm(w))
        # stay inside the locally exact region: cap at the first inactive
        # boundary of the host piece crossed along w
        C = g.pieces[i].C
        t_cross = np.inf
        if C.n_ineq:
            slack = C.b - C.A @ z
            rate = C.A @ w
            for r in range(C.n_ineq):
                if rate[r] > 1e-12 and slack[r] > 1e-12:
                    t_cross = min(t_cross, slack[r] / rate[r])
        zl = z.astype(np.longdouble)
        wl = w.astype(np.longdouble)
        vl = v.astype(np.longdouble)
        d2_host = float(w @ g.pieces[i].A @ w)
        if abs(d2_host - d2) > 1e-8 * (1.0 + abs(d2)):
            failures += 1  # piece quadratic forms disagree on a shared direction
            continue
        for t in (1e-2, 1e-3, 1e-4):
            teff = np.longdouble(min(t, t0, 0.9 * t_cross))
            quot = float((_increment_extended(g, zl, zl + teff * wl) - teff * (vl @ wl))
                         / (0.5 * teff * teff))
            if not np.isfinite(quot) or abs(quot - d2) > 1e-8 * (1.0 + abs(d2)):
                failures += 1
                break
    return failures, checked, "second-order difference quotient equality"


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
    """w in T_P(x) iff x + w in P, for steps below the inactive-row slack."""
    failures = 0
    checked = 0
    base = interior_point(P)
    if base is None:
        return 0, 0, "tangent localization (empty set skipped)"
    for _ in range(n_cases):
        x = project(P, base + rng.standard_normal(P.dim))
        T = tangent_cone(P, x)
        act = set(active_rows(P, x))
        eps0 = 1.0
        for i in range(P.n_ineq):
            if i in act:
                continue
            slack = float(P.b[i] - P.A[i] @ x)
            eps0 = min(eps0, 0.5 * slack / max(np.linalg.norm(P.A[i]), 1e-12))
        w = rng.standard_normal(P.dim)
        w = eps0 * float(rng.uniform(0.05, 1.0)) * w / np.linalg.norm(w)
        checked += 1
        if contains(T, w) != contains(P, x + w):
            failures += 1
    return failures, checked, "tangent cone localization"


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
