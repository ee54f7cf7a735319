"""Benchmark inputs: every problem the workloads use.

All problems are built here from the package's public constructors and
generators, written with `save_problem`, read back with `load_problem`
(certificate checks on) and handed to the workloads in their loaded form.
Known answers travel in the file metadata, exactly as the CLI uses them.
"""

import json

import numpy as np

from plqsqp import generators, probio  # through the modules, so the tracer sees the calls
from plqsqp.kkt import CompositeProblem, Poly2Map
from plqsqp.plq import Piece, PLQFunction, plq_abs, plq_indicator, plq_quadratic
from plqsqp.polyhedral import Polyhedron

# The five criterion-4 instances of the acceptance battery: (kind, params, seed).
SOLVE_INSTANCES = [
    ("elqp", dict(n=2, m=2), 3),
    ("elqp", dict(n=3, m=3), 5),
    ("nlp", dict(n=4, n_eq=1, n_ineq=2), 2),
    ("minmax", dict(n=3, m=3, n_active=2), 11),
    ("minmax", dict(n=4, m=4, n_active=3), 7),
]

def instance_name(kind, params, seed):
    dims = "-".join(f"{k}{v}" for k, v in params.items())
    return f"{kind}-{dims}-s{seed}"


def _p1():
    """phi = (x-2)^2/2, Phi = x - 1, g = indicator(z <= 0); KKT point (1, 1)."""
    phi = Poly2Map(np.array([2.0]), np.array([[-2.0]]), np.array([[[1.0]]]))
    Phi = Poly2Map(np.array([-1.0]), np.array([[1.0]]), np.array([[[0.0]]]))
    return CompositeProblem(phi, Phi, plq_indicator(Polyhedron.nonpos(1)),
                            Polyhedron.whole_space(1))


def _p2():
    """phi = x^2, Phi = x^2, g = indicator({0}); every lambda is a multiplier at 0."""
    phi = Poly2Map(np.zeros(1), np.zeros((1, 1)), np.array([[[2.0]]]))
    Phi = Poly2Map(np.zeros(1), np.zeros((1, 1)), np.array([[[2.0]]]))
    return CompositeProblem(phi, Phi, plq_indicator(Polyhedron.point([0.0])),
                            Polyhedron.whole_space(1))


def _degenerate_range():
    """phi = x^2/2 - x, Phi = (x, x), g = indicator(R_-^2); multipliers form a segment."""
    phi = Poly2Map(np.zeros(1), np.array([[-1.0]]), np.array([[[1.0]]]))
    Phi = Poly2Map(np.zeros(2), np.array([[1.0], [1.0]]), np.zeros((2, 1, 1)))
    return CompositeProblem(phi, Phi, plq_indicator(Polyhedron.nonpos(2)),
                            Polyhedron.whole_space(1))


def wide_cone_rows(rows, rotation=0.0):
    """Outer normals of a pointed 2-D cone, every row active at the origin.

    The normals sweep the angles [0.6 pi, 1.4 pi] (turned by `rotation`),
    so the cone is the wedge of half-angle 0.1 pi around the direction
    (cos rotation, sin rotation); all but the two extreme rows are redundant.
    """
    angles = rotation + np.pi * (0.6 + 0.8 * np.arange(rows) / (rows - 1))
    return np.column_stack([np.cos(angles), np.sin(angles)])


def _wide_cone(rows, rotation):
    """phi = |x|^2/2 over the wide cone Theta, g = 0; KKT point x = 0, lambda = 0."""
    A = wide_cone_rows(rows, rotation)
    Theta = Polyhedron(A, np.zeros(rows), np.zeros((0, 2)), np.zeros(0))
    phi = Poly2Map(np.zeros(1), np.zeros((1, 2)), np.eye(2).reshape(1, 2, 2))
    Phi = Poly2Map(np.zeros(1), np.zeros((1, 2)), np.zeros((1, 2, 2)))
    return CompositeProblem(phi, Phi, plq_quadratic([[0.0]]), Theta)


def calculus_fixtures():
    """The four fixture g's of acceptance criteria 1 and 2, by name."""
    left = Piece(Polyhedron(np.array([[1.0, 0.0]]), np.zeros(1), np.zeros((0, 2)), np.zeros(0)),
                 np.diag([0.0, 1.0]), [-1.0, 0.0], 0.0)
    right = Piece(Polyhedron(np.array([[-1.0, 0.0]]), np.zeros(1), np.zeros((0, 2)), np.zeros(0)),
                  np.diag([2.0, 1.0]), [-1.0, 0.0], 0.0)
    return {
        "abs": plq_abs(),
        "ind_nonpos": plq_indicator(Polyhedron.nonpos(1)),
        "half_square": plq_quadratic([[1.0]]),
        "two_piece_2d": PLQFunction(2, [left, right]),
    }


def _carrier(g):
    """A problem whose only role is to carry a fixture g through a problem file."""
    m = g.m
    phi = Poly2Map(np.zeros(1), np.zeros((1, m)), np.eye(m).reshape(1, m, m))
    Phi = Poly2Map(np.zeros(m), np.eye(m), np.zeros((m, m, m)))
    return CompositeProblem(phi, Phi, g, Polyhedron.whole_space(m))


def build_problems(seed):
    """{name: (problem, metadata)} for every input of every workload.

    The metadata records the known KKT point(s).  Only the wide 15-row
    cone depends on the seed (its rotation); the 21-row cone is fixed.
    """
    out = {}
    for kind, params, gen_seed in SOLVE_INSTANCES:
        gp = generators.generate(kind, seed=gen_seed, **params)
        out[instance_name(kind, params, gen_seed)] = (gp.problem, gp.metadata())
    out["P1"] = (_p1(), {"xbar": [1.0], "lambdabar": [1.0]})
    out["P2"] = (_p2(), {"xbar": [0.0], "lambdabar": [0.0], "critical_lambda": [-1.0]})
    out["degenerate"] = (_degenerate_range(), {"xbar": [0.0], "lambdabar": [0.5, 0.5]})
    rotation = float(np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi))
    out["wide15"] = (_wide_cone(15, rotation), {"xbar": [0.0, 0.0], "lambdabar": [0.0],
                                                "rotation": rotation})
    out["wide21"] = (_wide_cone(21, 0.0), {"xbar": [0.0, 0.0], "lambdabar": [0.0],
                                           "rotation": 0.0})
    for name, g in calculus_fixtures().items():
        out[f"g_{name}"] = (_carrier(g), {})
    return out


def _canonical(problem):
    return json.dumps(problem.to_dict(), sort_keys=True)


def round_trip(problems, workdir):
    """Save and reload every problem; the reloaded one must match exactly."""
    workdir.mkdir(parents=True, exist_ok=True)
    loaded = {}
    for name, (problem, metadata) in problems.items():
        path = workdir / f"{name}.json"
        probio.save_problem(path, problem, metadata)
        back, md = probio.load_problem(path)
        if _canonical(back) != _canonical(problem) or md != json.loads(json.dumps(metadata)):
            raise RuntimeError(f"problem file round trip changed {name}")
        loaded[name] = (back, md)
    return loaded
