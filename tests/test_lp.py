import numpy as np
import pytest

from plqsqp import lp as lp_module
from plqsqp import nonneg
from plqsqp.errors import SolverFailure
from plqsqp.lp import LPBuilder, affine_frame, nearest_point
from plqsqp.polyhedral import PolyCone, Polyhedron, project

from oracles import (
    implicit_equalities_by_lp,
    multiplier_set_hrep,
    nearest_point_by_nnls,
    nonzero_block_by_coordinates,
    phase_one_empty,
)


def _agrees_with_oracle(lp, name):
    """nonzero_block and the coordinate-LP oracle give the same answer, and a
    solution satisfies every row to 1e-9 with t > 0 and the block's largest
    entry 1.  Returns the solution."""
    x = lp.nonzero_block(name)
    assert (x is None) == (nonzero_block_by_coordinates(lp, name) is None)
    if x is not None:
        A_ub, _, A_eq, _ = lp.system()
        xs = x / np.abs(x).max()
        assert np.all(A_ub @ xs <= 1e-9) and np.all(np.abs(A_eq @ xs) <= 1e-9)
        assert lp.block(x, "t")[0] > 0.0
        assert np.abs(lp.block(x, name)).max() == 1.0
    return x


def test_block_zero_on_the_cone_gives_none():
    # w >= 0 and w1 + w2 <= 0 are implicit equalities: w = 0 on the cone
    lp = LPBuilder([("w", 2), ("v", 2), ("t", 1)])
    lp.add_nonneg("w")
    lp.add_ub({"w": [1.0, 1.0]})
    lp.add_ub({"v": [-1.0, 0.0], "t": 1.0})
    assert _agrees_with_oracle(lp, "w") is None
    assert _agrees_with_oracle(lp, "v") is not None
    # w = 0 by the equalities
    lp = LPBuilder([("w", 2), ("v", 1), ("t", 1)])
    lp.add_eq({"w": [[1.0, 1.0], [1.0, -1.0]]})
    assert _agrees_with_oracle(lp, "w") is None


def test_t_forced_to_zero_gives_none():
    # w1 >= t and -w1 >= t leave only t = 0
    lp = LPBuilder([("w", 2), ("t", 1)])
    lp.add_ub({"w": [-1.0, 0.0], "t": 1.0})
    lp.add_ub({"w": [1.0, 0.0], "t": 1.0})
    assert _agrees_with_oracle(lp, "w") is None
    # t = 0 by an equality
    lp = LPBuilder([("w", 2), ("t", 1)])
    lp.add_eq({"t": 1.0})
    assert _agrees_with_oracle(lp, "w") is None


def test_equalities_only():
    lp = LPBuilder([("w", 2), ("u", 1), ("t", 1)])
    lp.add_eq({"w": [[1.0, 1.0]], "u": [-1.0]})
    assert _agrees_with_oracle(lp, "w") is not None
    lp.add_eq({"w": [[1.0, -1.0]]})
    lp.add_eq({"u": 1.0})
    assert _agrees_with_oracle(lp, "w") is None


@pytest.mark.parametrize("rows", [
    [],  # w meets no row
    [([1.0], -1.0), ([-1.0], -1.0)],  # -v <= w <= v bounds the step
])
def test_zero_block_at_the_lp_point_moves_along_the_hull(monkeypatch, rows):
    points = []
    implicit_equalities = lp_module.implicit_equalities

    def spy(M, rows=None):
        implicit, y = implicit_equalities(M, rows)
        points.append(y)
        return implicit, y

    monkeypatch.setattr(lp_module, "implicit_equalities", spy)
    lp = LPBuilder([("w", 1), ("v", 1), ("t", 1)])
    lp.add_ub({"v": -1.0, "t": 1.0})
    for w, v in rows:
        lp.add_ub({"w": w, "v": v})
    x = _agrees_with_oracle(lp, "w")
    # no equalities, so the LP point is the solution before the move
    assert len(points) == 1 and points[0][0] == 0.0
    assert x is not None and abs(x[0]) == 1.0


def test_random_systems_agree_with_the_coordinate_oracle():
    rng = np.random.default_rng(5)
    answers = []
    for _ in range(150):
        nw, nv = int(rng.integers(1, 4)), int(rng.integers(0, 3))
        lp = LPBuilder([("w", nw), ("v", nv), ("t", 1)])
        for _ in range(int(rng.integers(0, 6))):
            parts = {"w": rng.integers(-2, 3, nw).astype(float),
                     "t": float(rng.integers(0, 2))}
            if nv:
                parts["v"] = rng.integers(-2, 3, nv).astype(float)
            lp.add_ub(parts)
            if rng.random() < 0.3:  # the opposite row: an implicit equality
                lp.add_ub({k: -np.asarray(c) for k, c in parts.items() if k != "t"})
        for _ in range(int(rng.integers(0, 2))):
            lp.add_eq({"w": rng.integers(-2, 3, nw).astype(float)})
        answers.append(_agrees_with_oracle(lp, "w") is not None)
    assert any(answers) and not all(answers)


def test_nonneg_lstsq_raises_on_a_degenerate_system():
    # columns +-c_k span R^3 twice over: scipy's nnls, u = 0 and BVLS all
    # fail verification, and no unverified answer comes back
    C = np.array([[0.41809884672577885, -0.45264929211044586, -0.2861233930974505],
                  [-0.5677696061279298, -0.2155971630897659, -0.136280766370423],
                  [-1.0, 0.0, 0.0],
                  [0.0, -1.0, -0.6321083424855996]]).T
    with pytest.raises(SolverFailure):
        nonneg.nonneg_lstsq(np.hstack([C, -C]), np.array([0.0, 0.0, 1.0]))


def test_nonneg_lstsq_answers_u_0_before_bvls_when_scipy_stops_short(monkeypatch):
    # from an `implicit_equalities` call of the simplicial face lists: no
    # opposite columns, yet scipy's nnls returns u = (0.245, 0.196) with a
    # positive gradient (0.123, 0.196), and u = 0 is optimal
    M = np.array([[-0.5, 0.44644341748168054], [4.7087151020676514e-17, -0.7754847193688317],
                  [0.5, 0.44644341748168054]])
    r = np.array([0.31659031096317414, 0.3645195239514815, 0.31659031096317414])
    monkeypatch.setattr(nonneg, "lsq_linear", lambda *args, **kw: pytest.fail("BVLS ran"))
    u, residual = nonneg.nonneg_lstsq(M, r)
    assert np.array_equal(u, np.zeros(2)) and residual == np.linalg.norm(r)


def test_nonneg_lstsq_answers_by_bvls_when_scipy_and_u_0_fail(monkeypatch):
    # a redundancy decision on box rows (`prune_redundant`), with no opposite
    # columns: scipy's nnls stops short and u = 0 is not optimal, so BVLS
    # answers, and its answer verifies
    M = np.array([[0.5740740740740741, 0.0, -0.425925925925926, 0.37037037037037035],
                  [-0.5, 0.0, 0.5, -2.1382073066854867e-17],
                  [0.037037037037037035, 1.0, 0.037037037037037035, 0.1851851851851852],
                  [-0.32168839020136736, -0.5, -0.32168839020136736, 0.22867535608054693],
                  [-0.02138334330331948, 0.5773502691896258, -0.021383343303319514,
                   -0.10691671651659737],
                  [0.1111111111111111, -1.0, 0.1111111111111111, 0.5555555555555556],
                  [-0.425925925925926, 0.0, 0.5740740740740741, 0.37037037037037035],
                  [0.18518518518518517, 0.0, 0.18518518518518517, 0.9259259259259259]]).T
    r = np.array([0.1799501138193067, 0.0, 0.8870568950058542, 0.0694413107095868])
    bvls, calls = nonneg.lsq_linear, []
    monkeypatch.setattr(nonneg, "lsq_linear",
                        lambda *args, **kw: calls.append(1) or bvls(*args, **kw))
    u, residual = nonneg.nonneg_lstsq(M, r)
    assert calls == [1] and nonneg._is_optimal(M, r, u)
    assert residual == np.linalg.norm(M @ u - r) < np.linalg.norm(r)


# rows 2 and 3 are opposite up to rounding
OPPOSITE_ROWS = np.array([
    [-0.691308916675178, 0.12605263709825118, -0.07875731334910006],
    [0.11502168769467623, 0.6910054108156073, 0.09634071612470993],
    [0.13313146198596415, 0.1150847939923442, -0.9843939780500586],
    [-0.13313146198596418, -0.11508479399234423, 0.9843939780500586]])


def test_nonneg_lstsq_keeps_its_best_answer_when_bvls_fails():
    # scipy's answer fails the optimality check (residual 0.7153); u = 0
    # (0.7071) is optimal and answers before BVLS, which returned u ~ 2.2e15
    # with residual 0.8365 here
    M, r = OPPOSITE_ROWS[1:].T, -OPPOSITE_ROWS[0]
    u, residual = nonneg.nonneg_lstsq(M, r)
    assert residual == np.linalg.norm(M @ u - r) <= np.linalg.norm(r)
    assert np.abs(u).max() <= 1e3
    implicit, y = lp_module.implicit_equalities(OPPOSITE_ROWS)
    assert implicit == [2, 3]
    slack = OPPOSITE_ROWS @ y
    assert np.all(slack[:2] <= -1.0 + 1e-12) and np.all(np.abs(slack[2:]) <= 1e-9)


def test_nonneg_lstsq_on_small_data_never_answers_u_0(monkeypatch):
    # M = 1e-6 [[1, .3], [.2, 1]], r = 1e-7 (1, 1): u = 0 leaves the gradient
    # -1e-13 (1.2, 1.3), and the optimum u ~ (0.074, 0.085) fits r to ~1e-23.
    # Measured on the data's own scale, u = 0 fails the first-order test, so
    # with scipy's nnls stopping short BVLS's optimum answers, or the call raises
    M, r = 1e-6 * np.array([[1.0, 0.3], [0.2, 1.0]]), 1e-7 * np.ones(2)

    def stops_short(*args, **kw):
        raise RuntimeError("iteration cap")

    monkeypatch.setattr(nonneg, "_scipy_nnls", stops_short)
    assert not nonneg._is_optimal(M, r, np.zeros(2))
    try:
        u, residual = nonneg.nonneg_lstsq(M, r)
    except SolverFailure:
        return
    assert np.allclose(u, np.linalg.solve(M, r), rtol=1e-6, atol=0.0) and residual <= 1e-20


def test_a_row_in_the_span_of_opposite_rows_is_no_column():
    # rows 0 and 3, and 1 and 4, are opposite; row 5 = -(row 0 + row 1) is 0
    # off their lines, where the cone is the half-line c y <= 0.  As an NNLS
    # column it would let u grow without bound and make row 2 look implicit
    a, b, c = np.random.default_rng(8).standard_normal((3, 3))
    M = np.array([a, b, c, -2.0 * a, -0.4 * b, -(a + b)])
    implicit, y = lp_module.implicit_equalities(M)
    assert implicit == implicit_equalities_by_lp(M, list(range(6)))[0] == [0, 1, 3, 4, 5]
    assert M[2] @ y <= -1.0 + 1e-12


def _random_cone(rng, kind):
    """Random rows M of a cone {y : M y <= 0}, shuffled; kind 1 repeats a row
    scaled by a positive factor, kind 2 adds the opposite of a row, kind 3
    adds two rows of norm 1e-16 (zeroed by a null-space basis), kind 4 a row
    that is nearly the sum of two others and kind 5 minus that sum."""
    n = int(rng.integers(1, 5))
    p = int(rng.integers(1, 2 * n + 2))
    M = rng.standard_normal((p, n))
    i, j = rng.integers(p, size=2)
    extra = {0: np.zeros((0, n)), 1: rng.uniform(0.5, 2.0) * M[i],
             2: -rng.uniform(0.5, 2.0) * M[i], 3: 1e-16 * rng.standard_normal((2, n)),
             4: M[i] + M[j] + 1e-13 * rng.standard_normal(n), 5: -(M[i] + M[j])}[kind]
    M = np.vstack([M, extra])
    return M[rng.permutation(len(M))]


def test_implicit_equalities_agree_with_the_lp():
    # the verified NNLS decisions give the LP's implicit rows, on all rows
    # and on subsets; y meets M y <= 0 and M[k] y <= -1 on every other
    # nonzero row of `rows`
    rng = np.random.default_rng(13)
    found = []
    for trial in range(360):
        M = _random_cone(rng, trial % 6)
        rows = None if trial % 2 else sorted(rng.choice(len(M), int(rng.integers(len(M) + 1)),
                                                        replace=False).tolist())
        implicit, y = lp_module.implicit_equalities(M, rows)
        norms = np.linalg.norm(M, axis=1)
        nonzero = [k for k in (range(len(M)) if rows is None else rows) if norms[k] > 1e-12]
        assert implicit == (implicit_equalities_by_lp(M, nonzero)[0] if nonzero else []), trial
        strict = [k for k in nonzero if k not in implicit]
        assert np.all(M @ y <= 1e-9 * (1.0 + norms * np.linalg.norm(y))), trial
        assert np.all(M[strict] @ y <= -1.0 + 1e-12), trial
        found.append(bool(implicit))
    assert 0.2 <= np.mean(found) <= 0.8


@pytest.mark.parametrize("answer", ["zero", "nan"])
def test_unverified_implicit_equality_answers_raise_solver_failure(monkeypatch, answer):
    # x1 <= 0, x2 <= x1 and -x2 <= 0 are implicit (their sum is 0), x3 <= 0
    # is not, and no two rows are opposite, so row 0 needs the NNLS.  u = 0
    # gives it the y = -M[0], which breaks x2 <= x1, and a u of NaNs
    # verifies nothing: no answer is returned
    M = np.array([[1.0, 0.0, 0.0], [-1.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
    assert lp_module.implicit_equalities(M)[0] \
        == implicit_equalities_by_lp(M, [0, 1, 2, 3])[0] == [0, 1, 2]
    fill = {"zero": 0.0, "nan": np.nan}[answer]
    monkeypatch.setattr(lp_module, "nonneg_lstsq", lambda G, r: (np.full(G.shape[1], fill), 1.0))
    with pytest.raises(SolverFailure):
        lp_module.implicit_equalities(M)


# a homogeneous system of the noncriticality walk: rows 0 and 5 are zero by
# rounding, row 4 = -2.9989 row 2, rows 7 and 8 are equal and row 9 = -row 7;
# the NNLS on the opposite columns used to leave row 3 undecided
FACING_ROWS = np.array([
    [3.8816242315814395e-17, -3.977527206809047e-17, -3.367288741651514e-17,
     5.375291455021525e-18, -1.5336358432793128e-17],
    [0.47066948095449895, 0.029515318366676913, 0.10050341142079147,
     0.04109356574744668, 0.15309322231505784],
    [-0.02499767779143313, -0.08985994905835604, -0.000750630990619217,
     -0.22534470100135348, 0.15515740630804897],
    [-0.045281225370759445, 0.20148298555966365, -0.28309239999107966,
     0.4824781019928309, 0.1567062366030954],
    [0.07496530015778011, 0.26948015369774514, 0.0022510601980286933,
     0.6757840984461454, -0.4653000823768991],
    [5.328781399131774e-17, -5.46043916918492e-17, -4.622690023940808e-17,
     7.379321493147398e-18, -2.1054099178938285e-17],
    [0.0877912500888694, 0.20796093804214366, -0.22412439096528128,
     -0.1722270897471779, -0.11663484526075651],
    [-0.23901695964425373, 0.7531583644848933, 0.5476979493213513,
     -0.09894418832850999, 0.25663276274485525],
    [-0.23901695964425385, 0.7531583644848933, 0.5476979493213513,
     -0.09894418832851, 0.25663276274485525],
    [0.2390169596442538, -0.7531583644848933, -0.5476979493213513,
     0.09894418832850999, -0.25663276274485525]])


def test_opposite_rows_are_implicit_before_any_nnls(monkeypatch):
    # the opposite pairs are decided by their unit normals, the equal rows
    # are one column, and no NNLS sees an opposite pair of columns
    columns = []
    nonneg_lstsq = lp_module.nonneg_lstsq

    def spy(G, r):
        columns.append(G.T / np.linalg.norm(G.T, axis=1)[:, None])
        return nonneg_lstsq(G, r)

    monkeypatch.setattr(lp_module, "nonneg_lstsq", spy)
    implicit, y = lp_module.implicit_equalities(FACING_ROWS)
    nonzero = [1, 2, 3, 4, 6, 7, 8, 9]
    assert implicit == implicit_equalities_by_lp(FACING_ROWS, nonzero)[0] == [2, 4, 7, 8, 9]
    slack = FACING_ROWS @ y
    assert np.all(slack[[1, 3, 6]] <= -1.0 + 1e-12)
    assert np.all(np.abs(slack[implicit]) <= 1e-9)
    # the NNLS runs on the 3 directions off the two lines of opposite rows
    assert columns and {unit.shape[1] for unit in columns} == {3}
    for unit in columns:
        gaps = np.linalg.norm(unit[:, None] + unit[None], axis=2)
        assert gaps.min() > 1e-3


def _frame_stack(kind):
    r = np.random.default_rng(5).standard_normal((3, 4))
    return {"empty": np.zeros((0, 4)), "zero": np.zeros((2, 4)),
            "duplicated": np.vstack([r[0], r[1], r[0], -2.0 * r[1]]),
            "nearly_dependent": np.vstack([r[0], r[1], r[0] + r[1] + 1e-13 * r[2]]),
            "full_rank": r}[kind]


@pytest.mark.parametrize("kind", ["empty", "zero", "duplicated", "nearly_dependent", "full_rank"])
def test_affine_frame_agrees_with_numpy(kind):
    # E+ is numpy's pseudo-inverse at lstsq's cutoff, N has orthonormal
    # columns spanning null(E), dim N = n - rank E, and A N is A on N
    E = _frame_stack(kind)
    A = np.random.default_rng(6).standard_normal((3, 4))
    pinv, N, AN = affine_frame(A, E)
    expected = np.linalg.pinv(E, max(E.shape) * np.finfo(float).eps) if len(E) else np.zeros((4, 0))
    scale = max(1.0, np.abs(expected).max(initial=0.0))
    assert pinv.shape == expected.shape
    assert np.allclose(pinv, expected, rtol=0.0, atol=1e-12 * scale)
    assert np.allclose(N.T @ N, np.eye(N.shape[1]), rtol=0.0, atol=1e-14)
    assert np.abs(E @ N).max(initial=0.0) <= 1e-14 * max(1.0, np.abs(E).max(initial=0.0))
    rank = np.linalg.matrix_rank(E) if len(E) else 0  # numpy's cutoff is lstsq's too
    assert N.shape[1] == 4 - rank
    assert rank == {"empty": 0, "zero": 0, "duplicated": 2, "nearly_dependent": 3,
                    "full_rank": 3}[kind]
    assert np.array_equal(AN, A @ N)


def _random_system(rng, kind):
    """(A, b, E, d): random rows with random slacks, some negative, and fewer
    equalities than unknowns; kind 1 repeats two rows, kind 2 adds the
    opposite of a row (a slab of width 0, 1e-9 or 1e-3) and kind 3 repeats
    an equality row with another right-hand side."""
    n = int(rng.integers(1, 5))
    p = int(rng.integers(1, 3 * n + 2))
    A = rng.standard_normal((p, n))
    b = A @ rng.standard_normal(n) + rng.uniform(-1.0, 1.0, p)
    q = int(rng.integers(0, n))
    E = rng.standard_normal((q, n))
    d = rng.standard_normal(q)
    if kind == 1:
        k = rng.integers(p, size=2)
        A, b = np.vstack([A, A[k]]), np.r_[b, b[k]]
    elif kind == 2:
        k = int(rng.integers(p))
        A, b = np.vstack([A, -A[k]]), np.r_[b, rng.choice([0.0, 1e-9, 1e-3]) - b[k]]
    elif kind == 3 and q:
        E, d = np.vstack([E, E[0]]), np.r_[d, d[0] + 1.0]
    return A, b, E, d


@pytest.mark.parametrize("offset", [0.0, 1e-12, 1e6])
def test_nearest_point_agrees_with_the_phase_one_oracle(offset):
    # the set and z are translated by c of size `offset`; emptiness must
    # agree with HiGHS, and every returned point must lie in its set (an
    # undecided case would raise SolverFailure)
    rng = np.random.default_rng(11)
    verdicts = []
    for trial in range(200):
        A, b, E, d = _random_system(rng, trial % 4)
        c = offset * rng.standard_normal(A.shape[1])
        b, d = b + A @ c, d + E @ c
        x = nearest_point(A, b, E, d, affine_frame(A, E), c + 3.0 * rng.standard_normal(c.size))
        empty = phase_one_empty(A, b, E, d)
        assert (x is None) == empty, trial
        if x is not None:
            assert np.all(A @ x - b <= 1e-8 * (1.0 + np.abs(b) + np.abs(A) @ np.abs(x))), trial
            assert np.all(np.abs(E @ x - d) <= 1e-8 * (1.0 + np.abs(d) + np.abs(E) @ np.abs(x)))
        verdicts.append(empty)
    assert 20 <= sum(verdicts) <= 180


def _count_nnls(monkeypatch):
    calls = []
    nnls = lp_module.nonneg_lstsq
    monkeypatch.setattr(lp_module, "nonneg_lstsq", lambda M, r: calls.append(M) or nnls(M, r))
    return calls


def test_face_certificate_agrees_with_the_nnls_route(monkeypatch):
    # random sets with equality rows, duplicated and opposite rows, and
    # empty ones, with b, d and z scaled by s in [1e-8, 1e8] (and the rows
    # by up to 1e3 either way in one trial of five): the certificate and the
    # NNLS-then-face route agree on emptiness and on the point; both the
    # certificate and the NNLS after it answer many of them
    calls = _count_nnls(monkeypatch)
    rng = np.random.default_rng(32)
    certified = fallbacks = empty = 0
    for trial in range(400):
        A, b, E, d = _random_system(rng, trial % 4)
        s = 10.0 ** rng.uniform(-8.0, 8.0)
        if trial % 5 == 0:
            A = A * 10.0 ** rng.uniform(-3.0, 3.0)
        b, d, z = s * b, s * d, 3.0 * s * rng.standard_normal(A.shape[1])
        frame = affine_frame(A, E)
        before = len(calls)
        x = nearest_point(A, b, E, d, frame, z)
        expected = nearest_point_by_nnls(A, b, E, d, z)
        assert (x is None) == (expected is None), trial
        if x is None:
            empty += 1
            continue
        assert np.linalg.norm(x - expected) <= 1e-12 * (np.linalg.norm(z) + np.linalg.norm(x))
        violated = np.any(A @ (z - frame[0] @ (E @ z - d)) > b)
        certified += violated and len(calls) == before
        fallbacks += len(calls) > before
    assert min(certified, fallbacks, empty) >= 50, (certified, fallbacks, empty)


def test_nearest_point_on_a_block_agrees_with_its_rows(monkeypatch):
    # random sets with equality rows, duplicated and opposite rows, and empty
    # ones, each with a block of 12 points: a block answers as its rows do one
    # at a time, and None for the whole block on an empty set; rows of some
    # blocks that return points reach the NNLS
    calls = _count_nnls(monkeypatch)
    rng = np.random.default_rng(37)
    empty = reached = 0
    for trial in range(150):
        A, b, E, d = _random_system(rng, trial % 4)
        Z = 3.0 * rng.standard_normal((12, A.shape[1]))
        before = len(calls)
        X = nearest_point(A, b, E, d, affine_frame(A, E), Z)
        nnls = len(calls) - before
        rows = [nearest_point(A, b, E, d, affine_frame(A, E), z) for z in Z]
        if X is None:
            empty += 1
            assert all(x is None for x in rows), trial
            continue
        reached += nnls > 0
        assert X.shape == Z.shape
        for x, row, z in zip(X, rows, Z):
            assert np.linalg.norm(x - row) <= 1e-12 * (1.0 + np.linalg.norm(z)), trial
    assert empty >= 10 and reached >= 10, (empty, reached)


def test_repeated_projections_at_one_pattern_build_one_face_inverse(monkeypatch):
    # the triangle x >= 0, x1 + x2 <= 1: three points beyond its long edge
    # share one face pseudo-inverse, kept on P's frame, and run no NNLS;
    # a point beyond a vertex builds one more
    frames = []
    build = lp_module.affine_frame
    monkeypatch.setattr(lp_module, "affine_frame", lambda A, E: frames.append(E) or build(A, E))
    calls = _count_nnls(monkeypatch)
    P = Polyhedron(np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]), np.array([0.0, 0.0, 1.0]),
                   np.zeros((0, 2)), np.zeros(0))
    for z, x in (((0.8, 0.7), (0.55, 0.45)), ((1.0, 0.5), (0.75, 0.25)), ((0.6, 1.0), (0.3, 0.7))):
        assert np.allclose(project(P, z), x, rtol=0.0, atol=1e-15)
    assert len(frames) == 1 and calls == []
    assert np.allclose(project(P, [3.0, -1.0]), [1.0, 0.0], rtol=0.0, atol=1e-15)
    assert len(frames) == 2 and calls == []


def test_a_negative_face_multiplier_leaves_the_face_in_one_step(monkeypatch):
    # z = (1, 5) violates x1 <= 0 and x1 + 0.1 x2 <= 0; their vertex 0
    # needs the multiplier -49 on x1 <= 0, so the next face drops that row:
    # the answer lies on the second row alone, and no NNLS runs
    calls = _count_nnls(monkeypatch)
    A, E = np.array([[1.0, 0.0], [1.0, 0.1]]), np.zeros((0, 2))
    z = np.array([1.0, 5.0])
    x = nearest_point(A, np.zeros(2), E, np.zeros(0), affine_frame(A, E), z)
    assert calls == []
    assert np.allclose(x, z - 1.5 / 1.01 * A[1], rtol=0.0, atol=1e-15)
    expected = nearest_point_by_nnls(A, np.zeros(2), E, np.zeros(0), z)
    assert np.allclose(x, expected, rtol=0.0, atol=1e-15)


def test_a_violated_row_joins_the_second_face(monkeypatch):
    # the triangle x >= 0, x1 + x2 <= 1: z = (2, 0.5) violates only
    # x1 + x2 <= 1, and the point of that line nearest z, (1.25, -0.25),
    # misses x2 >= 0; the face of both rows, the vertex (1, 0), has the
    # multipliers (0.5, 1) and certifies, with no NNLS
    calls = _count_nnls(monkeypatch)
    A, E = np.array([[0.0, -1.0], [-1.0, 0.0], [1.0, 1.0]]), np.zeros((0, 2))
    x = nearest_point(A, np.array([0.0, 0.0, 1.0]), E, np.zeros(0), affine_frame(A, E),
                      np.array([2.0, 0.5]))
    assert calls == []
    assert np.allclose(x, [1.0, 0.0], rtol=0.0, atol=1e-15)


def test_cone_projections_stay_positively_homogeneous():
    # rows at their own scale, with no absolute floor: the certificate and
    # the NNLS after it give t P(v) at t v for t from 1e-14 to 1e8, on
    # random cones with duplicated, opposite and equality rows
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        A = rng.standard_normal((int(rng.integers(1, 7)), n))
        if rng.random() < 0.3:
            A = np.vstack([A, 2.0 * A[0]])
        if rng.random() < 0.3:
            A = np.vstack([A, -A[-1]])
        K = PolyCone.from_rows(A, rng.standard_normal((int(rng.integers(0, min(n, 3))), n)), n)
        v = rng.standard_normal(n)
        p = project(K, v)
        for t in 10.0 ** np.arange(-14, 9, 2):
            assert np.linalg.norm(project(K, t * v) - t * p) <= 1e-12 * t * np.linalg.norm(v)


def test_unverified_answers_raise_solver_failure(monkeypatch):
    # {x1 <= x2, x2 >= 0, x1 >= 1, x2 <= c}: z = (-3, -3) violates x2 >= 0
    # and x1 >= 1, and their vertex (1, 0) misses x1 <= x2; those three rows
    # meet in no point, so both faces fail and the NNLS decides, whether
    # the set is empty (c = 0.5) or not (c = 2, nearest point (1, 1)).
    # u = e_0 certifies nothing: its face point z misses x2 >= 0, and
    # (A N)^T u = A_0 is not zero, so it proves no emptiness; no point is
    # returned unverified
    A = np.array([[1.0, -1.0], [0.0, -1.0], [-1.0, 0.0], [0.0, 1.0]])
    E, d = np.zeros((0, 2)), np.zeros(0)
    frame = affine_frame(A, E)
    nonempty, empty = np.array([0.0, 0.0, -1.0, 2.0]), np.array([0.0, 0.0, -1.0, 0.5])
    z = np.array([-3.0, -3.0])
    calls = _count_nnls(monkeypatch)
    assert np.allclose(nearest_point(A, nonempty, E, d, frame, z), [1.0, 1.0])
    assert nearest_point(A, empty, E, d, frame, z) is None
    assert len(calls) == 2
    calls = []
    monkeypatch.setattr(lp_module, "nonneg_lstsq",
                        lambda M, r: calls.append(M) or (np.eye(M.shape[1])[0], 1.0))
    for b in (nonempty, empty):
        with pytest.raises(SolverFailure):
            nearest_point(A, b, E, d, frame, z)
    assert len(calls) == 2
    # {x = 1e-17, x <= 0, x >= -5} misses x <= 0 by rounding only: a u with
    # both rows in its support misplaces the point, and its h^T u = 5e-18 > 0
    # lies below the rows' tolerances, so it proves no emptiness either.
    # Both rows are constant on x = 1e-17 and x0 meets them within their
    # tolerances, so the program without them answers x0
    monkeypatch.setattr(lp_module, "nonneg_lstsq", lambda M, r: (np.array([1.0, 1e-18]), 0.0))
    A, b, E, d = np.array([[1.0], [-1.0]]), np.array([0.0, 5.0]), np.eye(1), np.array([1e-17])
    assert nearest_point(A, b, E, d, affine_frame(A, E), np.zeros(1)) == [1e-17]
    assert nearest_point(A, b + [-1e-3, 0.0], E, d, affine_frame(A, E), np.zeros(1)) is None


def test_rows_constant_on_the_equalities_do_not_mislead_the_program():
    # a critical cone of `generate --kind nlp --seed 2` met by
    # `check-calculus`: x2 <= 0 lies in the span of the equalities, and x0
    # misses it by 4e-17, so its NNLS column (0, h_0 / ||h||) reached the
    # target alone with u_0 = 1e15, certifying neither a point nor emptiness
    A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    E = np.array([[1.0, 0.0, 0.0], [0.12344982762125528, 0.24100118718383526, 0.0]])
    z = np.array([0.22109862652705262, 0.11741391541961445, 0.04029483305288428])
    x = nearest_point(A, np.zeros(2), E, np.zeros(2), affine_frame(A, E), z)
    assert np.linalg.norm(x) <= 1e-15


def test_no_nnls_sees_an_opposite_pair_of_columns(monkeypatch):
    # solves from perturbed starts and the oracle's multiplier sets at the KKT
    # points (Fourier-Motzkin and `prune_redundant`) hand the NNLS no columns
    # c and -c: free multipliers stay in their equality frame, and BVLS never runs
    import sys

    from plqsqp import polyhedral
    from plqsqp.generators import generate
    from plqsqp.sqp import SQPConfig, run_sqp

    inputs = []

    def spy(nnls):
        return lambda M, r: inputs.append((sys._getframe(1).f_code.co_name, M)) or nnls(M, r)

    for module in (lp_module, polyhedral):
        monkeypatch.setattr(module, "nonneg_lstsq", spy(module.nonneg_lstsq))
    monkeypatch.setattr(nonneg, "lsq_linear", lambda *args, **kw: pytest.fail("BVLS ran"))
    for kind, params, seed in (("elqp", dict(n=2, m=2), 3), ("minmax", dict(n=3, m=3), 11)):
        gp = generate(kind, seed=seed, **params)
        trace = run_sqp(gp.problem, gp.xbar + 0.2, gp.lambdabar - 0.2, SQPConfig(monitors=False))
        multiplier_set_hrep(gp.problem, gp.xbar)
        assert trace[-1].residual <= 1e-10, kind
    assert "prune_redundant" in {name for name, _ in inputs}
    for name, M in inputs:
        norms = np.linalg.norm(M, axis=0)
        U = M / np.where(norms > 0.0, norms, 1.0)
        assert not np.triu(U.T @ U <= -1.0 + 1e-9, 1).any(), name
