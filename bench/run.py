"""Benchmark for plqsqp: one workload per invocation, from one process.

    python3 bench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  The run sets up its inputs (timed as `setup_s`), runs
as many whole rounds of the workload's operations as fit in `--seconds`,
checks every output, and prints one JSON object as its last line: the
end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
A results file (and, when traced, a spans file) goes to `bench/out/`.

Times are normalized to a reference machine speed by `SpeedProbe`; see
bench/README.md for why.
"""

import os

# Pin BLAS/OpenMP pools to one thread before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3
REF_KERNEL_S = 3e-3  # reference time of one speed-kernel call
SAMPLE_PERIOD_S = 0.05  # speed samples during an operation (untraced runs)
MIN_OP_S = 0.025  # untraced, shorter operations are timed over several calls
MAX_CALLS = 9
# wall-clock gates of the acceptance battery, in seconds (criterion 4: per
# instance); criterion 2 has no figure here, as three of its anchors are left out
GATES = {"criterion1": 10.0, "criterion4": 5.0}


def _import_package():
    """Import numpy, scipy and plqsqp from this checkout; returns seconds taken."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.optimize  # noqa: F401
    import plqsqp
    here = Path(plqsqp.__file__).resolve()
    if ROOT / "src" not in here.parents:
        raise ImportError(f"plqsqp imported from {here}, not from {ROOT / 'src'}")
    import fixtures  # noqa: F401
    import workloads  # noqa: F401
    return time.perf_counter() - t0


class SpeedProbe:
    """Measures operations in seconds at a reference machine speed.

    The machine's speed can drift (on a shared 2-vCPU virtual machine a
    fixed loop of Python arithmetic took anywhere from 0.12 to 0.32 s), so
    raw times can spread more than any useful bound.  The probe times a
    fixed kernel of small dense solves and Python arithmetic, which does
    not touch plqsqp, at the end of every operation and every `period`
    seconds while one runs (from a SIGALRM handler, between bytecodes).
    An operation is a list of segments between kernel samples; once the
    run is over, each segment is scaled by REF_KERNEL_S over the machine
    speed at its ends, taken as the median of the SMOOTH kernel samples
    centred there.  Kernel time itself is never part of a segment.  With
    period 0 only the ends of operations are sampled.
    """

    SMOOTH = 5

    def __init__(self, period):
        import numpy as np
        rng = np.random.default_rng(12345)
        self._solve = np.linalg.solve
        self._mats = [rng.standard_normal((4, 4)) + 4.0 * np.eye(4) for _ in range(8)]
        self.period = period
        self.samples = []
        self._segments = []
        self._active = False
        self._seg0 = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        self._kernel()

    def _kernel(self):
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(50):
            for A in self._mats:
                x = self._solve(A, A[0])
                acc += float(x @ x) + sum(i * 0.5 for i in range(20))
        self.samples.append(time.perf_counter() - t0)

    def _close_segment(self, t):
        self._segments.append((t - self._seg0, len(self.samples) - 1, len(self.samples)))
        self._kernel()
        self._seg0 = time.perf_counter()

    def _tick(self, signum, frame):
        if self._active:
            self._close_segment(time.perf_counter())

    def measure(self, fn):
        """(result, exception, segments, raw seconds) of fn()."""
        self._segments = []
        result = error = None
        self._seg0 = time.perf_counter()
        self._active = True
        if self.period:
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        try:
            result = fn()
        except Exception as exc:  # a failing operation is counted, not fatal
            error = exc
        finally:
            self._active = False
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._close_segment(t1)
        segments = self._segments
        return result, error, segments, sum(dt for dt, _, _ in segments)

    def speed(self, i):
        half = self.SMOOTH // 2
        return statistics.median(self.samples[max(0, i - half):i + half + 1])

    def normalize(self, segments):
        """Seconds at the reference speed; call after the last measurement."""
        return sum(dt * 2.0 * REF_KERNEL_S / (self.speed(i) + self.speed(j))
                   for dt, i, j in segments)


def _environment():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def run_setup(seed, probe, tracer):
    """Generate and round-trip every input SETUP_REPEATS times.

    Returns the loaded inputs and, per repetition, its probe segments and
    (first span, end span).
    """
    import fixtures

    work = OUT_DIR / f"tmp-{os.getpid()}"
    reps, windows = [], []
    inputs = None
    try:
        for _ in range(SETUP_REPEATS):
            lo = tracer.mark() if tracer else 0
            inputs, error, segments, _ = probe.measure(
                lambda: fixtures.round_trip(fixtures.build_problems(seed), work))
            if error is not None:
                raise error
            reps.append(segments)
            windows.append((lo, tracer.mark() if tracer else 0))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return inputs, reps, windows


def run_rounds(workload, inputs, seed, seconds, probe, tracer):
    """As many whole rounds as fit in `seconds` (at least one).

    Returns the per-operation records (with the probe segments of each
    timed call), the check
    problems found, and per operation (first span, end span).
    """
    import numpy as np
    from workloads import WORKLOADS

    build, round_check = WORKLOADS[workload]
    records, problems, windows = [], [], []
    start = time.perf_counter()
    r = 0
    # another round only when it is expected to end within `seconds`
    while r == 0 or (time.perf_counter() - start) * (r + 1) / r <= seconds:
        ops = build(inputs, np.random.default_rng([seed, r]))
        outputs = []
        for op in ops:
            lo = tracer.mark() if tracer else 0
            out, exc, segments, raw = probe.measure(op.call)
            windows.append((lo, tracer.mark() if tracer else 0))
            calls, raws = [segments], [raw]
            # untraced, a short operation is called again until MIN_OP_S have
            # passed; its time is the median call (only the first is checked)
            while exc is None and tracer is None and sum(raws) < MIN_OP_S \
                    and len(calls) < MAX_CALLS:
                _, _, segments, raw = probe.measure(op.call)
                calls.append(segments)
                raws.append(raw)
            error = None if exc is None else f"{type(exc).__name__}: {exc}"
            wrong = op.check(out) if exc is None else None
            if wrong:
                problems.append(f"round {r} {op.label}: {wrong}")
            outputs.append(out)
            records.append({"round": r, "op": op.label, "calls": calls,
                            "raw_ms": 1e3 * statistics.median(raws), "error": error, "wrong": wrong,
                            "group": op.group if isinstance(op.group, str) else None})
        if round_check is not None:
            problems += [f"round {r}: {p}" for p in round_check(ops, outputs)]
        r += 1
    return records, problems, windows


def _gate_margins(workload, records, rounds):
    """Time of each gated acceptance criterion as the battery runs it, and
    the gate's margin: criterion 4 is 10 exact-mode starts per instance,
    criterion 1 one pass of its batteries (one round)."""
    buckets = {}
    for rec in records:
        key, mode = (rec["op"].split("/") + [""])[:2]
        if workload == "solve" and mode == "exact":
            buckets.setdefault(f"criterion4:{key}", []).append(rec["ms"])
        elif workload == "calculus" and rec["group"]:
            buckets.setdefault(rec["group"], []).append(rec["ms"])
    out = {}
    for name, ms in sorted(buckets.items()):
        took = (10 * statistics.mean(ms) if name.startswith("criterion4")
                else sum(ms) / rounds) / 1e3
        gate = GATES[name.split(":")[0]]
        out[name] = {"seconds": round(took, 4), "gate_s": gate,
                     "margin": round(1.0 - took / gate, 4)}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["solve", "diagnose", "calmness", "calculus"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    try:
        import_s = _import_package()
    except ImportError as exc:
        print(f"cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    from tracer import Tracer, layer_metrics, layer_unit

    probe = SpeedProbe(0 if args.trace else SAMPLE_PERIOD_S)
    tracer = Tracer().install() if args.trace else None
    inputs, setup_segments, setup_windows = run_setup(args.seed, probe, tracer)
    records, problems, op_windows = run_rounds(
        args.workload, inputs, args.seed, args.seconds, probe, tracer)
    if tracer:
        tracer.uninstall()

    # the import ran before numpy could time the kernel: scale by the first samples
    import_s *= REF_KERNEL_S / probe.speed(0)
    setup_reps = [probe.normalize(segments) for segments in setup_segments]
    round_times = {}
    for rec in records:
        rec["ms"] = 1e3 * statistics.median(probe.normalize(c) for c in rec.pop("calls"))
        round_times[rec["round"]] = round_times.get(rec["round"], 0.0) + rec["ms"] / 1e3
    round_times = list(round_times.values())
    rounds = len(round_times)
    attempted = len(records)
    failed = sum(1 for rec in records if rec["error"] or rec["wrong"])
    op_ms = [rec["ms"] for rec in records if not (rec["error"] or rec["wrong"])]
    wall_s = statistics.median(round_times)

    result = {"correct": not problems, "attempted": attempted, "failed": failed}
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "rounds": rounds, "round_s": round_times, "wall_s": wall_s,
               "import_s": import_s, "setup_repetitions_s": setup_reps,
               "kernel_s": {"median": statistics.median(probe.samples),
                            "min": min(probe.samples), "max": max(probe.samples),
                            "count": len(probe.samples)},
               "environment": _environment(), "problems": problems,
               "failures": sorted({f"{rec['op']}: {rec['error'] or rec['wrong']}"
                                   for rec in records if rec["error"] or rec["wrong"]}),
               "gates": _gate_margins(args.workload, records, rounds)}
    if tracer is None:
        result["metrics"] = {
            "setup_s": {"value": import_s + statistics.median(setup_reps), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "op_ms_p50": {"value": statistics.median(op_ms), "unit": "ms"},
            "op_ms_p90": {"value": statistics.quantiles(op_ms, n=10, method="inclusive")[8],
                          "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    else:
        factors = [rec["ms"] / rec["raw_ms"] for rec in records]
        setup_factors = [norm / sum(dt for dt, _, _ in segs)
                         for norm, segs in zip(setup_reps, setup_segments)]
        values, self_s, calls = layer_metrics(
            tracer.spans, [(lo, hi, f) for (lo, hi), f in zip(op_windows, factors)], rounds,
            [(lo, hi, f) for (lo, hi), f in zip(setup_windows, setup_factors)])
        result["metrics"] = {name: {"value": v, "unit": layer_unit(name)}
                             for name, v in values.items()}
        traced_s = sum(round_times)
        details["self_share"] = {name: round(s / traced_s, 4) for name, s in
                                 sorted(self_s.items(), key=lambda kv: -kv[1])}
        details["calls"] = calls
        names = sorted({sp[0] for sp in tracer.spans})
        index = {n: i for i, n in enumerate(names)}
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        with open(OUT_DIR / f"spans-{args.workload}-s{args.seed}.json", "w") as fh:
            json.dump({"names": names,
                       "fields": ["name", "start", "end", "parent", "error", "extra"],
                       "setup_windows": setup_windows, "op_windows": op_windows,
                       "op_factors": factors,
                       "spans": [[index[s[0]], round(s[1], 7), round(s[2], 7), s[3], s[4], s[5]]
                                 for s in tracer.spans]}, fh)
    details["metrics"] = result["metrics"]
    details["ops"] = records
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out_path = OUT_DIR / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    out_path.write_text(json.dumps(details, indent=1, default=str) + "\n")

    print(f"workload {args.workload}: {rounds} round(s), {attempted} operations, "
          f"{failed} failed; environment {json.dumps(details['environment'])}")
    for name, gate in details["gates"].items():
        print(f"gate {name}: {gate['seconds']:.2f} s of {gate['gate_s']:.0f} s "
              f"(margin {100 * gate['margin']:.0f}%)")
    for line in details["failures"] + problems:
        print(f"failure: {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
