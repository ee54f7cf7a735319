"""Command line interface: solve, diagnose, sweep, check-calculus, generate.

Exit codes: 0 success, 2 solver/check failure, 3 validation or parse
failure.  All randomness flows through one seeded generator recorded in
the outputs, and float formatting is fixed, so identical invocations
produce byte-identical files.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .diagnostics import (
    check_noncritical,
    check_sosc,
    check_unique_multiplier,
    estimate_calmness,
)
from .errors import MaxIterReached, PLQError, SubproblemFailure, ParseError, ValidationError
from .generators import KINDS, generate
from .kkt import PrimalDual, kkt_residual
from .plq import PLQFunction
from .polyhedral import interior_point, project
from .probio import load_problem, save_problem
from .properties import run_calculus_suites
from .sqp import SQPConfig, rate_report, run_classification, run_sqp, trace_csv_rows

MODE_MAP = {"exact": "exact", "bfgs": "bfgs", "identity": "fixed_identity"}


def _parse_vector(text):
    try:
        vector = np.array([float(tok) for tok in text.split(",") if tok.strip() != ""])
    except ValueError as exc:
        raise ParseError(f"not a comma-separated vector: {text!r}") from exc
    if not np.all(np.isfinite(vector)):
        raise ParseError(f"vector entries must be finite: {text!r}")
    return vector


def _sized(vector, size, flag):
    """`vector` when it has `size` entries; ParseError naming `flag` otherwise."""
    if vector.size != size:
        raise ParseError(f"{flag}: expected {size} values, got {vector.size}")
    return vector


def _check_run_settings(args):
    """--tol and --max-iter as SQPConfig accepts them (NaN tolerances fail too)."""
    if not args.tol > 0 or args.max_iter < 1:
        raise ParseError(f"--tol must be positive and --max-iter at least 1, "
                         f"got {args.tol!r} and {args.max_iter!r}")


def _resolve_reference(args, problem, metadata, from_metadata):
    """The reference pair given by --reference, else (when `from_metadata`)
    the file's embedded KKT point, else None: rates against the last iterate.
    `--reference last-iterate` always gives None."""
    if args.reference == "last-iterate":
        return None
    if args.reference is not None:
        xs, sep, ls = args.reference.partition(";")
        if not sep:
            raise ParseError(f"--reference needs 'x1,..;l1,..', got {args.reference!r}")
        return PrimalDual(_sized(_parse_vector(xs), problem.n, "--reference"),
                          _sized(_parse_vector(ls), problem.m, "--reference"))
    if from_metadata and "xbar" in metadata:
        return PrimalDual(_sized(np.asarray(metadata["xbar"], dtype=float), problem.n, "xbar"),
                          _sized(np.asarray(metadata["lambdabar"], dtype=float), problem.m,
                                 "lambdabar"))
    return None


def _resolve_start(problem, metadata, args):
    if args.x0 is not None:
        x0 = _sized(_parse_vector(args.x0), problem.n, "--x0")
    elif "xbar" in metadata:
        x0 = _sized(np.asarray(metadata["xbar"], dtype=float), problem.n, "xbar")
    else:
        base = interior_point(problem.Theta)
        if base is None:
            raise ValidationError("Theta is empty; no feasible start")
        x0 = base
    if args.lambda0 is not None:
        lam0 = _sized(_parse_vector(args.lambda0), problem.m, "--lambda0")
    elif "lambdabar" in metadata:
        lam0 = _sized(np.asarray(metadata["lambdabar"], dtype=float), problem.m, "lambdabar")
    else:
        lam0 = np.zeros(problem.m)
    return project(problem.Theta, x0), lam0


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_error(outdir, exc):
    record = {"error": type(exc).__name__, "message": str(exc)}
    with open(Path(outdir) / "error.json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_solve(args):
    _check_run_settings(args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    problem, metadata = load_problem(args.problem)
    x0, lam0 = _resolve_start(problem, metadata, args)
    reference = _resolve_reference(args, problem, metadata, from_metadata=args.x0 is not None)
    config = SQPConfig(hessian_mode=MODE_MAP[args.mode], tol=args.tol,
                       max_iter=args.max_iter, reference=reference)
    status = 0
    try:
        trace = run_sqp(problem, x0, lam0, config)
    except (SubproblemFailure, MaxIterReached) as exc:
        trace = exc.trace
        _write_error(outdir, exc)
        status = 2
    header, rows = trace_csv_rows(trace, problem.n, problem.m)
    _write_csv(outdir / "trace.csv", header, rows)
    lines = [f"iterations: {len(trace) - 1}",
             f"final residual: {trace[-1].residual!r}",
             f"final x: {trace[-1].x.tolist()}",
             f"final lambda: {trace[-1].lam.tolist()}"]
    cls = run_classification(trace, reference, config.tol)
    lines.append(f"classification: {cls}")
    if len(trace) >= 4:
        rep = rate_report(trace, reference)
        lines.append(f"primal ratios: {[repr(r) for r in rep.ratios_primal]}")
        lines.append(f"primal-dual ratios: {[repr(r) for r in rep.ratios_pd]}")
    report = "\n".join(lines) + "\n"
    (outdir / "rate_report.txt").write_text(report)
    sys.stdout.write(report)
    return status


def _cmd_diagnose(args):
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    problem, metadata = load_problem(args.problem)
    x0, lam0 = _resolve_start(problem, metadata, args)
    residual = kkt_residual(problem, x0, lam0)
    verdicts = [fn(problem, x0, lam0)
                for fn in (check_noncritical, check_unique_multiplier, check_sosc)]
    if args.calmness:
        verdicts.append(estimate_calmness(problem, x0, lam0, mode="full",
                                          rng=np.random.default_rng(args.seed)))
    header = ["condition", "result", "detail"]
    rows = [[v.condition, v.result, v.detail] for v in verdicts]
    _write_csv(outdir / "verdicts.csv", header, rows)
    width = max(len(v.condition) for v in verdicts)
    lines = [f"KKT residual at the tested point: {residual:.3e}"]
    for v in verdicts:
        lines.append(f"{v.condition:<{width}}  {v.result:<16}  {v.detail}")
    report = "\n".join(lines) + "\n"
    (outdir / "verdicts.txt").write_text(report)
    sys.stdout.write(report)
    return 0


def _cmd_sweep(args):
    modes = [m.strip() for m in args.modes.split(",")]
    if not set(modes) <= set(MODE_MAP):
        raise ParseError(f"--modes: choose from {sorted(MODE_MAP)}, got {args.modes!r}")
    _check_run_settings(args)
    if args.n_starts < 1 or not 0.0 <= args.radius < np.inf:
        raise ParseError(f"--n-starts must be at least 1 and --radius finite and "
                         f"nonnegative, got {args.n_starts!r} and {args.radius!r}")
    problem, metadata = load_problem(args.problem)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    x0, lam0 = _resolve_start(problem, metadata, args)
    reference = _resolve_reference(args, problem, metadata, from_metadata=True)
    rng = np.random.default_rng(args.seed)
    summary = []
    n_ok = 0
    for mode in modes:
        for i in range(args.n_starts):
            dx = rng.standard_normal(problem.n)
            dl = rng.standard_normal(problem.m)
            xs = project(problem.Theta, x0 + args.radius * dx / max(np.linalg.norm(dx), 1e-12))
            ls = lam0 + args.radius * dl / max(np.linalg.norm(dl), 1e-12)
            run_id = f"{mode}_{i:03d}"
            config = SQPConfig(hessian_mode=MODE_MAP[mode], tol=args.tol,
                               max_iter=args.max_iter, reference=reference)
            try:
                trace = run_sqp(problem, xs, ls, config)
                failed = ""
            except (SubproblemFailure, MaxIterReached) as exc:
                trace = exc.trace
                failed = type(exc).__name__
            header, rows = trace_csv_rows(trace, problem.n, problem.m)
            _write_csv(outdir / f"run_{run_id}.csv", header, rows)
            cls = run_classification(trace, reference, args.tol)
            converged = trace[-1].residual <= args.tol and not failed
            n_ok += int(converged)
            summary.append([run_id, mode, str(i), str(len(trace) - 1),
                            repr(float(trace[-1].residual)), str(converged).lower(),
                            cls, failed])
    _write_csv(outdir / "sweep_summary.csv",
               ["run_id", "mode", "start", "iterations", "final_residual",
                "converged", "classification", "failure"], summary)
    sys.stdout.write(f"{n_ok}/{len(summary)} runs converged; summary in "
                     f"{outdir / 'sweep_summary.csv'}\n")
    return 0 if n_ok else 2


def _cmd_check_calculus(args):
    if args.n_cases < 1:
        raise ParseError(f"--n-cases must be at least 1, got {args.n_cases!r}")
    problem, _ = load_problem(args.problem)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    if not isinstance(problem.g, PLQFunction):
        sys.stderr.write("check-calculus needs a piece representation of g\n")
        return 3
    rng = np.random.default_rng(args.seed)
    results = run_calculus_suites(problem.g, problem.Theta, rng, n_cases=args.n_cases)
    rows = [[name, str(failures), str(checked)] for name, failures, checked in results]
    _write_csv(outdir / "calculus_report.csv", ["property", "failures", "checked"], rows)
    bad = 0
    for name, failures, checked in results:
        verdict = "pass" if failures == 0 else "FAIL"
        sys.stdout.write(f"{verdict}  {name}: {failures}/{checked} failures\n")
        bad += failures
    return 0 if bad == 0 else 2


def _cmd_generate(args):
    try:
        params = json.loads(args.params) if args.params else {}
        gp = generate(args.kind, seed=args.seed, **params)
    except (json.JSONDecodeError, TypeError) as exc:  # not a JSON dict the generator takes
        raise ParseError(f"--params: {exc}") from exc
    save_problem(args.out_file, gp.problem, gp.metadata())
    sys.stdout.write(f"wrote {args.out_file} (kind={gp.kind}, "
                     f"kkt point embedded in metadata)\n")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="plqsqp",
        description="SQP solver and variational diagnostics for piecewise "
                    "linear-quadratic composite optimization")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--problem", required=True, help="problem JSON file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--x0", default=None, help="comma-separated start point")
        p.add_argument("--lambda0", default=None, help="comma-separated dual start")

    p = sub.add_parser("solve", help="run the SQP method and emit a trace")
    common(p)
    p.add_argument("--mode", choices=sorted(MODE_MAP), default="exact")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--reference", default=None,
                   help="'x1,..;l1,..' reference pair for rate ratios")

    p = sub.add_parser("diagnose", help="run structural condition checks")
    common(p)
    p.add_argument("--calmness", action="store_true",
                   help="also estimate the calmness modulus (slower)")

    p = sub.add_parser("sweep", help="grid of runs over starts and modes")
    common(p)
    p.add_argument("--modes", default="exact", help="comma list: exact,bfgs,identity")
    p.add_argument("--n-starts", type=int, default=10)
    p.add_argument("--radius", type=float, default=0.5)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--reference", default=None)

    p = sub.add_parser("check-calculus", help="run the calculus property suites")
    common(p)
    p.add_argument("--n-cases", type=int, default=200)

    p = sub.add_parser("generate", help="write a generated instance file")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--params", default=None, help="JSON dict of generator parameters")
    p.add_argument("--out-file", required=True)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"solve": _cmd_solve, "diagnose": _cmd_diagnose, "sweep": _cmd_sweep,
                "check-calculus": _cmd_check_calculus, "generate": _cmd_generate}
    try:
        return handlers[args.command](args)
    except (ParseError, ValidationError) as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return 3
    except PLQError as exc:  # in solve and diagnose, error.json records it
        if args.command in ("solve", "diagnose"):
            _write_error(args.out, exc)
        sys.stderr.write(f"solver error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
