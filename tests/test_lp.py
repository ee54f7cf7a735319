import numpy as np
import pytest

from plqsqp import lp as lp_module
from plqsqp.lp import LPBuilder

from oracles import nonzero_block_by_coordinates


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


def test_nonneg_lstsq_answers_a_degenerate_system():
    # columns +-c_k span R^3 twice over; scipy's nnls fails verification
    # here, and the QP fallback it used to take raised Unbounded
    from plqsqp.nonneg import nonneg_lstsq
    C = np.array([[0.41809884672577885, -0.45264929211044586, -0.2861233930974505],
                  [-0.5677696061279298, -0.2155971630897659, -0.136280766370423],
                  [-1.0, 0.0, 0.0],
                  [0.0, -1.0, -0.6321083424855996]]).T
    M, r = np.hstack([C, -C]), np.array([0.0, 0.0, 1.0])
    u, residual = nonneg_lstsq(M, r)
    assert np.all(np.isfinite(u)) and np.all(u >= 0.0)
    assert residual == np.linalg.norm(M @ u - r)
