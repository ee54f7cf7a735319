"""Source rules for the package, checked over its syntax trees.

No handler may catch everything: a bare `except:`, `except Exception` or
`except BaseException` (alone or inside a tuple) hides defects behind
fallbacks.  Every name the package exports must exist.  Imports sit at
module top: no function-body import is left to break a cycle.  Every
function the benchmark's tracer wraps must exist where it looks.
Every top-level function and class is used elsewhere in the package or
exported.  Every error class has a raise site in the package, so that a
class which is only caught cannot linger.  No function of the package
eliminates a cone: nothing references `fourier_motzkin` (kept for the
tracer, the test oracles call it) or `generated_cone_hrep` (a test
oracle), so subdifferentials and multiplier sets are projected onto, not
built; implicit equalities go through the one decision of
`lp.implicit_equalities` (verified NNLS).
Subgradient-graph calculus lives in `plq` and `polyhedral`: the
diagnostics build no polyhedron, measure no normal-cone distance and
eliminate no normal cone of their own (no `normal_cone_hrep`,
`shifted_intersection` or `proto_contains`).  The dense QP kernel serves
the dual-LQ value (`plq`), the subproblem's piece QPs (`subqp`) and the
projection onto a multiplier set (`kkt`) only; projections onto polyhedra,
the prox and nonnegative least squares run without it.  PLQ membership
and subgradient tests read the function's stacked piece rows and make no
per-piece membership, activity or normal-cone call.
Multiplier uniqueness has one route, the dual cone condition's
implicit-equality decision: `check_unique_multiplier` and the helpers it
calls build no multiplier polyhedron and run no LP of their own.  The SQP
driver and its subproblem data reach Phi, J and grad phi through
`kkt._smooth_data` only, the one evaluation per iterate that they share,
and a KKT point reads Phi(x) there too.  KKT-point data has one builder:
a `KKTPoint` is constructed in `kkt.kkt_point` only, and the SQP driver
and the diagnostics read the cones D and D+ from that point, calling
neither `cone_D` nor `subspace_Dplus`.  Every defaulted parameter of the
package (dataclass fields included) is passed, by name or position, by
some call in `src/`, `bench/` or `tests/`, or is listed with its reason
in `KNOBS_ALLOWED`.
Feasibility, emptiness and projection have one route, the least-distance
program of `lp.nearest_point`: `feasible_point` builds no slack form and
keeps no residual band, `project` runs no emptiness pre-check, a QP
computes its start through it alone, and the prox frames build no
polyhedron.  Verified NNLS serves that program, implicit-equality and
redundancy decisions and normal-cone distances only, and no function but
`lp.solve_lp` itself names `solve_lp` or `linprog`: no LP runs on any
path of the package.  Subspaces have one frame:
`lp.affine_frame` is the only place that names an SVD, a null space or a
range basis (`svd`, `null_space`, `orth`), `scipy.linalg` is not
imported, and `matrix_rank` is left to the generators, whose accepted
seeds it decides.  The property suites draw their cases as blocks: no
function of `properties` calls `range`, so none loops over its cases
(`for ... in range(n_cases)`).
"""

import ast
import importlib
import inspect
from pathlib import Path

import plqsqp
from plqsqp import errors

PACKAGE = Path(plqsqp.__file__).resolve().parent
BROAD = {"Exception", "BaseException"}
# (file, function, imported module) of the function-body imports allowed
CYCLE_BREAKING_IMPORTS = set()
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
# top-level definitions that may stay unreferenced and unexported, with why
UNUSED_ALLOWED = {
    "cone_rays": "bench/tracer.py wraps it until ROADMAP item 7",
    "fourier_motzkin": "bench/tracer.py wraps it until ROADMAP item 7; the test oracles call it",
    "solve_lp": "bench/tracer.py wraps it until ROADMAP item 7; the test oracles call it",
}
# defaulted parameters that no call passes, with why they stay
_MONITOR_FIELD = "the Dennis-More monitors write it after construction"
_GENERATOR_PARAM = "reachable through `plqsqp generate --params`"
KNOBS_ALLOWED = {
    "sqp.IterateRecord(dm_D)": _MONITOR_FIELD,
    "sqp.IterateRecord(dm_Dplus)": _MONITOR_FIELD,
    "sqp.IterateRecord(dm_full)": _MONITOR_FIELD,
    "generators.generate_nlp(curvature)": _GENERATOR_PARAM,
    "generators.generate_elqp(beta_range)": _GENERATOR_PARAM,
    "generators.generate_elqp(box)": _GENERATOR_PARAM,
    "generators.generate_elqp(boundary_fraction)": _GENERATOR_PARAM,
    "generators.generate_minmax(curvature)": _GENERATOR_PARAM,
}


def _caught_names(handler):
    if handler.type is None:
        return {"<bare>"}
    nodes = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {node.id for node in nodes if isinstance(node, ast.Name)}


def test_no_broad_exception_handlers():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler):
                broad = _caught_names(node) & (BROAD | {"<bare>"})
                if broad:
                    found.append(f"{path.name}:{node.lineno} catches {sorted(broad)}")
    assert not found, found


def test_every_export_resolves():
    missing = [name for name in plqsqp.__all__ if not hasattr(plqsqp, name)]
    assert not missing, missing


def test_function_body_imports_only_break_cycles():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, ast.ImportFrom):
                        found.add((path.name, fn.name, node.module))
                    elif isinstance(node, ast.Import):
                        found.update((path.name, fn.name, a.name) for a in node.names)
    assert found <= CYCLE_BREAKING_IMPORTS, sorted(found - CYCLE_BREAKING_IMPORTS)


def test_traced_functions_resolve():
    # read TRACED from the syntax tree: importing the benchmark is not needed
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TRACED" for t in node.targets))
    assert traced
    missing = [(mod, fn) for mod, fn in traced
               if not inspect.isfunction(getattr(importlib.import_module(f"plqsqp.{mod}"),
                                                 fn, None))]
    assert not missing, missing


def _referenced_names(tree):
    """(name, line) of every name, attribute and imported name in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno


def test_every_definition_is_used_or_exported():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    refs = [(file, name, line) for file, tree in trees.items()
            for name, line in _referenced_names(tree)]
    unused = set()
    for file, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    or node.name in plqsqp.__all__:
                continue
            # a reference from inside the definition itself does not count
            if not any(name == node.name
                       and not (ref_file == file and node.lineno <= line <= node.end_lineno)
                       for ref_file, name, line in refs):
                unused.add(node.name)
    assert unused == set(UNUSED_ALLOWED), sorted(unused ^ set(UNUSED_ALLOWED))


def _defaulted_params(tree):
    """(owner, called name, param, position or None) of each defaulted
    parameter of a function, method or `__init__`, and of each defaulted
    dataclass field, in `tree`.  A method is called by attribute, an
    `__init__` or a dataclass by its class name; the position counts
    arguments as a call writes them, `self` left out."""
    classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    methods = {id(item): cls for cls in classes for item in cls.body}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = methods.get(id(fn))
        bound = cls is not None and not any(getattr(d, "id", None) == "staticmethod"
                                             for d in fn.decorator_list)
        called = cls.name if cls is not None and fn.name == "__init__" else fn.name
        owner = f"{cls.name}.{fn.name}" if cls is not None else fn.name
        positional = fn.args.posonlyargs + fn.args.args
        for pos, arg in enumerate(positional[len(positional) - len(fn.args.defaults):],
                                  len(positional) - len(fn.args.defaults)):
            yield owner, called, arg.arg, pos - bound
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield owner, called, arg.arg, None
    for cls in classes:
        if not any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
            continue
        fields = [item for item in cls.body if isinstance(item, ast.AnnAssign)
                  and not _is_field_call(item.value, "init")]
        for pos, item in enumerate(fields):
            if item.value is not None and (not _is_field_call(item.value) or any(
                    _is_field_call(item.value, kw) for kw in ("default", "default_factory"))):
                yield cls.name, cls.name, item.target.id, pos


def _is_field_call(node, keyword=None):
    """Whether `node` is a `field(...)` call, passing `keyword` when given."""
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "field" \
        and (keyword is None or any(kw.arg == keyword for kw in node.keywords))


def _passed_arguments(tree):
    """(called name, keyword or position) of each argument of each call in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            yield from ((name, pos) for pos in range(len(node.args)))
            yield from ((name, kw.arg) for kw in node.keywords if kw.arg is not None)


def test_every_default_has_a_caller():
    roots = [PACKAGE, Path(__file__).resolve().parent, TRACER.parent]
    passed = {arg for path in sorted(p for root in roots for p in root.glob("*.py"))
              for arg in _passed_arguments(ast.parse(path.read_text(), filename=str(path)))}
    unpassed = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for owner, called, param, pos in _defaulted_params(
                ast.parse(path.read_text(), filename=str(path))):
            if (called, param) not in passed and (called, pos) not in passed:
                unpassed.add(f"{path.stem}.{owner}({param})")
    assert unpassed == set(KNOBS_ALLOWED), \
        f"{len(unpassed - set(KNOBS_ALLOWED))} unpassed: " \
        + ", ".join(sorted(unpassed - set(KNOBS_ALLOWED))) \
        + "; allowed but passed or gone: " + ", ".join(sorted(set(KNOBS_ALLOWED) - unpassed))


def _raised_names(tree):
    """Names of the classes raised by `raise X` or `raise X(...)` in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id


def test_every_error_is_raised():
    raised = set()
    for path in sorted(PACKAGE.glob("*.py")):
        raised.update(_raised_names(ast.parse(path.read_text(), filename=str(path))))
    classes = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and issubclass(obj, errors.PLQError)
               and obj is not errors.PLQError}
    assert classes, "no error classes found"
    assert not classes - raised, sorted(classes - raised)


def test_cone_elimination_has_one_route():
    # the route is the test oracles': no function of the package eliminates
    users = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in _statements(ast.parse(path.read_text(), filename=str(path))):
            users.update((path.name, name, ref) for ref, _ in _referenced_names(node)
                         if ref in {"fourier_motzkin", "generated_cone_hrep"})
    assert not users, sorted(users)


def _statements(tree):
    """(name, node) of each top-level statement and each class member, imports
    left out; a statement without a name is named by its line."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for item in node.body if isinstance(node, ast.ClassDef) else [node]:
            yield getattr(item, "name", f"line {item.lineno}"), item


def test_implicit_equalities_have_one_route():
    defs, users, own_lps = set(), set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in _statements(ast.parse(path.read_text(), filename=str(path))):
            if "implicit_equalit" in name:
                defs.add((path.name, name))
                continue
            names = {ref for ref, _ in _referenced_names(node)}
            if "implicit_equalities" in names:
                users.add((path.name, name))
                own_lps.update((path.name, name, lp) for lp in names & {"solve_lp", "linprog"})
    assert defs == {("lp.py", "implicit_equalities")}, sorted(defs)
    assert users == {("lp.py", "nonzero_block"), ("polyhedral.py", "span_basis"),
                     ("polyhedral.py", "_forced_active"),
                     ("diagnostics.py", "_face_minimum")}, sorted(users)
    # its users decide with it alone and run no LP of their own
    assert not own_lps, sorted(own_lps)


def test_diagnostics_keep_no_calculus_of_their_own():
    path = PACKAGE / "diagnostics.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    found = sorted({(name, line) for name, line in _referenced_names(tree)
                    if name in {"Polyhedron", "normal_cone_dist", "normal_cone_hrep",
                                "shifted_intersection", "proto_contains"}})
    assert not found, found


def test_qp_kernel_serves_the_dual_lq_supremum_and_the_subproblem_only():
    users = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in _statements(ast.parse(path.read_text(), filename=str(path))):
            if name != "active_set_qp" \
                    and any(ref == "active_set_qp" for ref, _ in _referenced_names(node)):
                users.add((path.name, name))
    # the dual-LQ value, whose B may be singular, the subproblem's piece QPs,
    # which may be nonconvex, and the projection onto a multiplier set, whose
    # Q is zero on the normal cones' multipliers
    assert users == {("plq.py", "dual_lq_eval_prox"), ("subqp.py", "solve_subproblem"),
                     ("kkt.py", "multiplier_set")}, sorted(users)


def test_pointwise_plq_tests_read_the_stacked_piece_rows():
    path = PACKAGE / "plq.py"
    seen, per_piece = set(), set()
    for name, node in _statements(ast.parse(path.read_text(), filename=str(path))):
        if name in {"_membership", "_normal_dists", "subgradient_dist"}:
            seen.add(name)
            per_piece.update((name, ref) for ref, _ in _referenced_names(node)
                             if ref in {"contains", "active_rows", "normal_cone_dist"})
    assert not per_piece, sorted(per_piece)
    assert seen == {"_membership", "_normal_dists", "subgradient_dist"}, sorted(seen)


def test_multiplier_uniqueness_has_one_route():
    path = PACKAGE / "diagnostics.py"
    defs = {name: node for name, node in _statements(ast.parse(path.read_text(),
                                                                filename=str(path)))}
    # check_unique_multiplier and every module function it reaches
    reached, todo = set(), ["check_unique_multiplier"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        todo.extend(ref for ref, _ in _referenced_names(defs[name]) if ref in defs)
    found = sorted((name, ref) for name in reached for ref, _ in _referenced_names(defs[name])
                   if ref in {"multiplier_set", "solve_lp"})
    assert reached >= {"check_unique_multiplier", "_dual_condition_nonzero"}, sorted(reached)
    assert not found, found


def test_sqp_iterates_evaluate_the_smooth_data_once():
    seen, direct = set(), set()
    for file, owner in (("sqp.py", "run_sqp"), ("subqp.py", "SubproblemSpec"),
                        ("kkt.py", "KKTPoint")):
        path = PACKAGE / file
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if getattr(node, "name", None) == owner:
                seen.add(owner)
                names = {ref for ref, _ in _referenced_names(node)}
                assert "_smooth_data" in names, owner
                direct.update((owner, ref) for ref in names
                              & {"lagrangian", "value", "jacobian", "Poly2Map"})
    assert seen == {"run_sqp", "SubproblemSpec", "KKTPoint"}, sorted(seen)
    assert not direct, sorted(direct)


def test_kkt_point_data_has_one_builder():
    built = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in _statements(ast.parse(path.read_text(), filename=str(path))):
            built.update((path.name, name) for call in ast.walk(node)
                         if isinstance(call, ast.Call)
                         and "KKTPoint" in (getattr(call.func, "id", None),
                                            getattr(call.func, "attr", None)))
    assert built == {("kkt.py", "kkt_point")}, sorted(built)
    cones = set()
    for file in ("sqp.py", "diagnostics.py"):
        path = PACKAGE / file
        cones.update((file, name, line) for name, line
                     in _referenced_names(ast.parse(path.read_text(), filename=str(path)))
                     if name in {"cone_D", "subspace_Dplus"})
    assert not cones, sorted(cones)


def test_feasibility_has_one_route():
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in _statements(ast.parse(path.read_text(), filename=str(path))):
            defs[(path.name, name)] = node

    def calls(file, name):
        return {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                for node in ast.walk(defs[(file, name)]) if isinstance(node, ast.Call)}

    feasible = defs[("lp.py", "feasible_point")]
    constants = [node.value for node in ast.walk(feasible)
                 if isinstance(node, ast.Constant) and isinstance(node.value, float)]
    assert "nearest_point" in calls("lp.py", "feasible_point")
    assert not constants, constants  # no residual band
    assert not calls("lp.py", "feasible_point") & {"hstack", "eye", "nonneg_lstsq", "solve_lp"}
    assert not calls("polyhedral.py", "project") & {"is_empty", "interior_point"}
    assert "nearest_point" in calls("qp.py", "active_set_qp")
    assert not calls("qp.py", "active_set_qp") & {"feasible_point", "interior_point",
                                                  "nonneg_lstsq", "solve_lp", "project"}
    for name in ("_ldp_frame", "prox", "_prox_rows", "_dual_lq_prox"):
        assert not calls("plq.py", name) & {"Polyhedron", "project"}, name
    assert "nearest_point" in calls("plq.py", "_prox_rows")
    nnls = {key for key in defs if key[1] != "nonneg_lstsq" and "nonneg_lstsq" in calls(*key)}
    assert nnls == {("lp.py", "nearest_point"), ("lp.py", "implicit_equalities"),
                    ("polyhedral.py", "normal_cone_dist_at_rows"),
                    ("polyhedral.py", "prune_redundant")}, sorted(nnls)
    # one nearest-point routine: a block reaches the face products only through
    # `_nearest_rows`, which `nearest_point` alone calls and whose misses go
    # back to `nearest_point`
    assert not calls("lp.py", "_nearest_rows") & {"Polyhedron", "project"}
    assert {key for key in defs if "_face_point" in calls(*key)} \
        == {("lp.py", "nearest_point"), ("lp.py", "_nearest_rows")}
    assert {key for key in defs if "_nearest_rows" in calls(*key)} == {("lp.py", "nearest_point")}
    assert "nearest_point" in calls("lp.py", "_nearest_rows")


def test_no_lp_on_a_runtime_path():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in _statements(ast.parse(path.read_text(), filename=str(path))):
            if (path.name, name) != ("lp.py", "solve_lp"):
                found.update((path.name, name, ref) for ref, _ in _referenced_names(node)
                             if ref in {"solve_lp", "linprog"})
    assert not found, sorted(found)


def test_subspaces_have_one_frame():
    # every null space, pseudo-inverse and rank decision reads `affine_frame`,
    # and so does every least-squares point: no `lstsq` in the package
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found.update((path.name, m, node.lineno) for m in modules
                         if m.startswith("scipy.linalg"))
        for name, node in _statements(tree):
            for ref, line in _referenced_names(node):
                if ref in {"svd", "null_space", "orth"} \
                        and (path.name, name) != ("lp.py", "affine_frame") \
                        or ref == "matrix_rank" and path.name != "generators.py" \
                        or ref == "lstsq":
                    found.add((path.name, ref, line))
    assert not found, sorted(found)
    lp = ast.parse((PACKAGE / "lp.py").read_text())
    assert "svd" in {ref for name, node in _statements(lp) if name == "affine_frame"
                     for ref, _ in _referenced_names(node)}


def test_property_suites_draw_their_cases_as_blocks():
    # no function of `properties` loops over its cases: nothing there calls
    # `range`, so suites loop over groups of points, pieces and step lengths
    path = PACKAGE / "properties.py"
    found = sorted((name, line) for name, node in _statements(ast.parse(path.read_text()))
                   for ref, line in _referenced_names(node) if ref == "range")
    assert not found, found
