"""symmeq benchmark runner.

    python3 perfbench/run.py --workload analyze|welfare|extend|check \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src, nothing is installed.  One single-threaded process runs whole rounds
of a workload's operations in a closed loop (one caller; the next
operation starts when the last returns) until S seconds of operation time
have been measured, checking every answer outside the timed region.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every round twice,
untraced and traced in alternating order, and prints the per-layer
metrics, per operation, from spans recorded around symmeq's public
functions; the spans are written to perfbench/out/.  The last line of stdout is the result object; the line
before it records the machine and the run.
"""

import os

# pin BLAS/OpenMP pools before numpy is imported anywhere
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

import workloads
from spans import ROOT as ROOT_SPAN
from spans import TARGETS, Tracer
from workloads import KnownFault

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_STARTS = 15         # cold interpreter starts per run, spread over it
MIN_OPS = 40              # enough samples for a tail with 10 beyond it
TAIL_BEYOND = 10
WALL_LIMIT_S = 120.0      # start no round after this much wall time

SPAN_NAMES = {f"{module}.{fn}" for module, fn, _ in TARGETS}
# per-layer metrics computed from more than one span field
DERIVED = (
    "exchange.cp_factorize.exact_ratio",
    "orbits.orbit_vars",
    "bench.remainder_s",
    "bench.traced_op_s",
    "bench.untraced_op_s",
    "bench.tracing_overhead_s",
)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_symmeq():
    if not (SRC / "symmeq" / "__init__.py").is_file():
        fail(f"no symmeq sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import symmeq
    import symmeq.cli

    if Path(symmeq.__file__).resolve().parent != SRC / "symmeq":
        fail(f"imported symmeq from {symmeq.__file__}, not from {SRC}")
    return symmeq


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def cold_start():
    """Wall time of a fresh interpreter importing symmeq.cli."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import symmeq.cli"],
        cwd=ROOT, env=child_env(), capture_output=True, timeout=60,
    )
    if proc.returncode != 0:
        fail(f"cold import failed: {proc.stderr.decode()[-500:]}")
    return time.perf_counter() - t0


def reference_loop():
    """A fixed pure-Python Fraction loop; its time shows machine drift."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 6001):
        acc += Fraction(i % 97, i)
    return time.perf_counter() - t0


class Stats:
    def __init__(self):
        self.durations = []
        self.by_kind = {}
        self.failed = 0
        self.unexpected = 0   # failures other than an op's named known fault
        self.failures = []    # the first unexpected ones

    def record(self, kind, dt, reason):
        self.durations.append(dt)
        self.by_kind.setdefault(kind, []).append(dt)
        if reason is not None:
            self.fail(f"{kind}: {reason}", isinstance(reason, KnownFault))

    def fail(self, what, known=False):
        self.failed += 1
        if not known:
            self.unexpected += 1
            if len(self.failures) < 5:
                self.failures.append(what)


def run_op(op, call):
    """Time one operation; the check runs after the clock stops."""
    t0 = time.perf_counter()
    try:
        result, error = call(op.run), None
    except Exception:
        result, error = None, traceback.format_exc(limit=3)
    dt = time.perf_counter() - t0
    if error is not None:
        return dt, f"raised {error.strip().splitlines()[-1]}"
    try:
        return dt, op.check(result)
    except Exception:
        return dt, "check raised " + traceback.format_exc(limit=2).strip().splitlines()[-1]


def tail(durations):
    """The highest percentile with TAIL_BEYOND samples above it."""
    d = sorted(durations)
    return d[len(d) - TAIL_BEYOND - 1], 100.0 * (len(d) - TAIL_BEYOND) / len(d)


def per_layer_metrics(spec, summary, n_ops, untraced_s, traced_s):
    """Every per-layer metric BENCHMARK.json names, per operation.  A name
    other than DERIVED is "<module>.<function>.<field>", read off the span
    summary: calls, self_s, total_s or a count the tracer records."""
    cp = summary.get("exchange.cp_factorize", {})
    derived = {
        "exchange.cp_factorize.exact_ratio": cp.get("exact", 0) / cp["calls"] if cp.get("calls") else 0.0,
        "orbits.orbit_vars": sum(
            summary.get(s, {}).get("orbit_vars", 0)
            for s in ("orbits.extendability_lp", "orbits.extension_lp")
        ) / n_ops,
        "bench.remainder_s": summary[ROOT_SPAN]["self_s"] / n_ops,
        "bench.traced_op_s": summary[ROOT_SPAN]["total_s"] / n_ops,
        "bench.untraced_op_s": untraced_s / n_ops,
        "bench.tracing_overhead_s": (traced_s - untraced_s) / n_ops,
    }
    out = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name in derived:
            value = derived[name]
        else:
            span, field = name.rsplit(".", 1)
            if span not in SPAN_NAMES:
                fail(f"per-layer metric {name} names no traced function")
            value = summary.get(span, {}).get(field, 0) / n_ops
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def run_round(ops, stats):
    for op in ops:
        dt, reason = run_op(op, lambda f: f())
        stats.record(op.kind, dt, reason)


def run_traced(ops, tracer, stats):
    tracer.install()
    try:
        for op in ops:
            op_id = len(stats.durations)
            dt, reason = run_op(op, lambda f: tracer.run_op(op_id, f))
            stats.record(op.kind, dt, reason)
    finally:
        tracer.uninstall()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    symmeq = import_symmeq()
    import numpy

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    wall0 = time.perf_counter()
    ref = [reference_loop() for _ in range(3)]
    setup = []

    with tempfile.TemporaryDirectory(prefix="tmp-", dir=out_dir) as tmp:
        workload = workloads.WORKLOADS[args.workload](symmeq, args.seed, tmp)
        run_round(workload.round()[:3], Stats())   # warm-up, not counted

        plain, traced = Stats(), Stats()
        tracer = Tracer()
        plain_s = traced_s = 0.0
        rounds = 0
        while (
            plain_s + traced_s < args.seconds or len(plain.durations) < MIN_OPS
        ) and time.perf_counter() - wall0 < WALL_LIMIT_S:
            # cold starts for setup_s, spread evenly over the run's op time
            while not args.trace and len(setup) < SETUP_STARTS * min(1.0, plain_s / args.seconds):
                setup.append(cold_start())
            ops = workload.round()
            # a traced run replays each round traced; the two passes swap
            # order every round, since a replayed op runs a few % faster
            passes = [lambda: run_round(ops, plain)]
            if args.trace:
                passes.append(lambda: run_traced(ops, tracer, traced))
                if rounds % 2:
                    passes.reverse()
            for run_pass in passes:
                gc.collect()
                run_pass()
            plain_s, traced_s = sum(plain.durations), sum(traced.durations)
            rounds += 1
        while not args.trace and len(setup) < SETUP_STARTS:
            setup.append(cold_start())
        ref += [reference_loop() for _ in range(3)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for reason in workloads.verify_deferred(getattr(workload, "deferred", [])):
            plain.fail(reason)

    n = len(plain.durations)
    if n < MIN_OPS:
        fail(f"only {n} operations in {WALL_LIMIT_S:.0f} s of wall time, fewer than {MIN_OPS}")
    p_tail, pct = tail(plain.durations)
    # correct: every answer re-verified, except an op's named known fault
    correct = plain.unexpected + traced.unexpected == 0
    info_trace = {}
    if args.trace:
        summary = tracer.summary()
        root = summary[ROOT_SPAN]["total_s"]
        residual = sum(row["self_s"] for row in summary.values()) - root
        info_trace = {"self_time_residual_s": residual}
        if abs(residual) > 1e-6 * max(1.0, root):
            correct = False
            plain.failures.append(f"self times miss the traced op time by {residual} s")
        metrics = per_layer_metrics(spec, summary, len(traced.durations), plain_s, traced_s)
        tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics = {
            "ops_per_s": {"value": n / plain_s, "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(plain.durations), "unit": "s"},
            "op_tail_s": {"value": p_tail, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "reference_loop_s": [round(x, 5) for x in ref],
        "cold_starts_s": [round(x, 4) for x in setup],
        "rounds": rounds,
        "ops": n,
        "op_tail_percentile": round(pct, 2),
        "op_tail_samples_beyond": TAIL_BEYOND,
        "mean_s_by_kind": {
            k: round(statistics.mean(v), 5) for k, v in sorted(plain.by_kind.items())
        },
        "known_fault_failures": plain.failed + traced.failed - plain.unexpected - traced.unexpected,
        "unexpected_failures": plain.unexpected + traced.unexpected,
        "failures": plain.failures + traced.failures[:2],
        **info_trace,
        "wall_s": round(time.perf_counter() - wall0, 3),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": n + len(traced.durations),
        "failed": plain.failed + traced.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
