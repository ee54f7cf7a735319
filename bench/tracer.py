"""Span tracer that works on the package from outside.

`Tracer.install()` imports every `plqsqp` module, then rebinds each traced
public function in every module namespace that holds it, the defining
module included.  Names imported inside function bodies (for example
`from .nonneg import nonneg_lstsq` in `lp.feasible_point`) resolve through
the defining module's attribute at call time, so they are traced too.
Callers outside the package (the benchmark's workloads) must likewise call
through the module (`sqp.run_sqp`), not through a name imported earlier.

A span is (name, start, end, parent, error type, extra).  Spans stay in
memory; per-layer metrics are derived from them once the run is over.
"""

import functools
import importlib
import pkgutil
import sys
import time
from collections import defaultdict

import plqsqp

# (module, function) pairs wrapped by the tracer.
TRACED = [
    ("qp", "active_set_qp"),
    ("lp", "solve_lp"),
    ("lp", "feasible_point"),
    ("nonneg", "nonneg_lstsq"),
    ("polyhedral", "project"),
    ("polyhedral", "normal_cone_dist"),
    ("polyhedral", "project_cone_union"),
    ("polyhedral", "cone_rays"),
    ("polyhedral", "span_basis"),
    ("polyhedral", "fourier_motzkin"),
    ("plq", "prox"),
    ("plq", "subgradient_dist"),
    ("plq", "active_indices"),
    ("plq", "subdifferential"),
    ("kkt", "kkt_residual"),
    ("kkt", "multiplier_set"),
    ("kkt", "cone_D"),
    ("kkt", "subspace_Dplus"),
    ("subqp", "solve_subproblem"),
    ("sqp", "run_sqp"),
    ("diagnostics", "check_noncritical"),
    ("diagnostics", "check_unique_multiplier"),
    ("diagnostics", "check_sosc"),
    ("diagnostics", "estimate_calmness"),
    ("diagnostics", "verify_reduction_lemma"),
    ("properties", "prox_resolvent_suite"),
    ("properties", "subdifferential_duality_suite"),
    ("properties", "second_quotient_suite"),
    ("properties", "projection_suite"),
    ("properties", "tangent_localization_suite"),
    ("properties", "moreau_polarity_suite"),
    ("probio", "load_problem"),
]

SUITES = {f"properties.{fn}" for mod, fn in TRACED if mod == "properties"}

# span tuple fields
NAME, START, END, PARENT, ERROR, EXTRA = range(6)


def _extra_of(name, result, exc):
    """Iteration counts carried by return values (or by the raised error)."""
    if name == "qp.active_set_qp" and result is not None:
        return result.iterations
    if name == "sqp.run_sqp":
        trace = result if result is not None else getattr(exc, "trace", None)
        return len(trace) - 1 if trace else 0
    return 0


def _modules():
    for info in pkgutil.iter_modules(plqsqp.__path__):
        importlib.import_module(f"plqsqp.{info.name}")
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "plqsqp" or name.startswith("plqsqp."))]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self._saved = []  # (module, attribute, original) for uninstall

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, type(exc).__name__,
                              _extra_of(name, None, exc))
                raise
            t1 = clock()
            stack.pop()
            spans[idx] = (name, t0, t1, parent, None, _extra_of(name, result, None))
            return result

        return traced

    def install(self):
        modules = _modules()
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"plqsqp.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def mark(self):
        """Index of the next span; two marks bound the spans of one operation."""
        return len(self.spans)


def layer_unit(name):
    """Unit of a per-layer metric: figures are per round (load: per set-up)."""
    if name == "probio.load_problem.total_s":
        return "s/setup"
    if name.endswith("qp_per_call"):
        return "qp/call"
    if name.endswith("_s"):
        return "s/round"
    return "count/round"


def _ancestors_named(spans, idx, names):
    """Names in `names` that occur on the ancestor chain of span idx."""
    found = set()
    p = spans[idx][PARENT]
    while p >= 0:
        n = spans[p][NAME]
        if n in names:
            found.add(n)
        p = spans[p][PARENT]
    return found


def layer_metrics(spans, op_windows, rounds, setup_windows):
    """Per-layer metrics of the measured rounds, per round.

    `op_windows` lists (first span, end span, speed factor) per operation;
    span durations are multiplied by their operation's factor.
    `probio.load_problem.total_s` comes from `setup_windows`, per set-up
    repetition.
    """
    measured = [(i, f) for lo, hi, f in op_windows for i in range(lo, hi)]
    calls = defaultdict(int)
    failed = defaultdict(int)
    extra = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    child_s = defaultdict(float)
    for i, f in measured:
        sp = spans[i]
        if sp[PARENT] >= 0:
            child_s[sp[PARENT]] += (sp[END] - sp[START]) * f
    for i, f in measured:
        sp = spans[i]
        name = sp[NAME]
        dur = (sp[END] - sp[START]) * f
        calls[name] += 1
        failed[name] += sp[ERROR] is not None
        extra[name] += sp[EXTRA]
        self_s[name] += dur - child_s[i]
        if name not in _ancestors_named(spans, i, {name}):
            total_s[name] += dur  # outermost span of its name only

    watched = {"lp.feasible_point", "nonneg.nonneg_lstsq", "plq.prox",
               "subqp.solve_subproblem", "diagnostics.check_noncritical", "sqp.run_sqp"}
    lp_fallbacks = qp_fallbacks = lp_in_noncritical = 0
    qp_in_prox = qp_in_subproblem = 0
    enlargements = 0
    monitor_s = 0.0
    for i, f in measured:
        sp = spans[i]
        name = sp[NAME]
        parent = spans[sp[PARENT]][NAME] if sp[PARENT] >= 0 else None
        if name == "lp.solve_lp":
            lp_fallbacks += parent == "lp.feasible_point"
            lp_in_noncritical += "diagnostics.check_noncritical" in _ancestors_named(
                spans, i, watched)
        elif name == "qp.active_set_qp":
            anc = _ancestors_named(spans, i, watched)
            qp_fallbacks += parent == "nonneg.nonneg_lstsq"
            qp_in_prox += "plq.prox" in anc
            qp_in_subproblem += "subqp.solve_subproblem" in anc
        elif name == "subqp.solve_subproblem":
            enlargements += sp[ERROR] == "AllCandidatesOutsideDelta" and parent == "sqp.run_sqp"
        if name in ("kkt.cone_D", "kkt.subspace_Dplus", "polyhedral.project_cone_union") \
                and parent == "sqp.run_sqp":
            monitor_s += (sp[END] - sp[START]) * f

    load_s = sum((spans[i][END] - spans[i][START]) * f for lo, hi, f in setup_windows
                 for i in range(lo, hi) if spans[i][NAME] == "probio.load_problem")
    setup_repeats = len(setup_windows)

    r = float(rounds)

    def per_call(num, name):
        return num / calls[name] if calls[name] else 0.0

    values = {
        "qp.active_set_qp.calls": calls["qp.active_set_qp"] / r,
        "qp.active_set_qp.self_s": self_s["qp.active_set_qp"] / r,
        "qp.active_set_qp.iterations": extra["qp.active_set_qp"] / r,
        "qp.active_set_qp.failed": failed["qp.active_set_qp"] / r,
        "lp.solve_lp.calls": calls["lp.solve_lp"] / r,
        "lp.solve_lp.self_s": self_s["lp.solve_lp"] / r,
        "lp.feasible_point.calls": calls["lp.feasible_point"] / r,
        "lp.feasible_point.self_s": self_s["lp.feasible_point"] / r,
        "lp.feasible_point.lp_fallbacks": lp_fallbacks / r,
        "nonneg.nonneg_lstsq.calls": calls["nonneg.nonneg_lstsq"] / r,
        "nonneg.nonneg_lstsq.self_s": self_s["nonneg.nonneg_lstsq"] / r,
        "nonneg.nonneg_lstsq.qp_fallbacks": qp_fallbacks / r,
        "polyhedral.project.calls": calls["polyhedral.project"] / r,
        "polyhedral.project.self_s": self_s["polyhedral.project"] / r,
        "polyhedral.normal_cone_dist.self_s": self_s["polyhedral.normal_cone_dist"] / r,
        "polyhedral.project_cone_union.total_s": total_s["polyhedral.project_cone_union"] / r,
        "polyhedral.cone_rays.total_s": total_s["polyhedral.cone_rays"] / r,
        "polyhedral.span_basis.total_s": total_s["polyhedral.span_basis"] / r,
        "polyhedral.fourier_motzkin.total_s": total_s["polyhedral.fourier_motzkin"] / r,
        "plq.subdifferential.total_s": total_s["plq.subdifferential"] / r,
        "kkt.multiplier_set.total_s": total_s["kkt.multiplier_set"] / r,
        "properties.suites.total_s": sum(total_s[s] for s in SUITES) / r,
        "plq.prox.calls": calls["plq.prox"] / r,
        "plq.prox.total_s": total_s["plq.prox"] / r,
        "plq.prox.qp_per_call": per_call(qp_in_prox, "plq.prox"),
        "plq.subgradient_dist.total_s": total_s["plq.subgradient_dist"] / r,
        "plq.active_indices.self_s": self_s["plq.active_indices"] / r,
        "kkt.kkt_residual.calls": calls["kkt.kkt_residual"] / r,
        "kkt.kkt_residual.total_s": total_s["kkt.kkt_residual"] / r,
        "kkt.cone_D.total_s": total_s["kkt.cone_D"] / r,
        "kkt.subspace_Dplus.total_s": total_s["kkt.subspace_Dplus"] / r,
        "sqp.run_sqp.monitor_s": monitor_s / r,
        "subqp.solve_subproblem.calls": calls["subqp.solve_subproblem"] / r,
        "subqp.solve_subproblem.self_s": self_s["subqp.solve_subproblem"] / r,
        "subqp.solve_subproblem.total_s": total_s["subqp.solve_subproblem"] / r,
        "subqp.solve_subproblem.qp_per_call": per_call(qp_in_subproblem, "subqp.solve_subproblem"),
        "subqp.solve_subproblem.failed": failed["subqp.solve_subproblem"] / r,
        "sqp.run_sqp.calls": calls["sqp.run_sqp"] / r,
        "sqp.run_sqp.iterations": extra["sqp.run_sqp"] / r,
        "sqp.run_sqp.failed": failed["sqp.run_sqp"] / r,
        "sqp.run_sqp.radius_enlargements": enlargements / r,
        "diagnostics.check_noncritical.total_s": total_s["diagnostics.check_noncritical"] / r,
        "diagnostics.check_noncritical.lp_calls": lp_in_noncritical / r,
        "diagnostics.check_unique_multiplier.total_s":
            total_s["diagnostics.check_unique_multiplier"] / r,
        "diagnostics.check_sosc.total_s": total_s["diagnostics.check_sosc"] / r,
        "diagnostics.estimate_calmness.total_s": total_s["diagnostics.estimate_calmness"] / r,
        "diagnostics.verify_reduction_lemma.total_s":
            total_s["diagnostics.verify_reduction_lemma"] / r,
        "probio.load_problem.total_s": load_s / setup_repeats,
    }
    shares = {name: self_s[name] for name in self_s}
    return values, shares, dict(calls)
