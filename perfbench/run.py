"""Benchmark of the four paths frdecomp users run; see perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is percolation, sampling, certify, reconstruct, or all (each workload in
its own process, one after the other).  With --trace 0 the run sets up
SETUP_REPS times, then performs whole rounds of the workload's operations
until S seconds have passed, then checks every output.  With --trace 1 it
sets up once under the tracer, runs whole rounds for S seconds, alternately
untraced and traced, and reports per-layer metrics.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.  The exit code is 0
when every check passed, 1 when one failed, and 2 when the checkout has no
package to measure.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import env  # noqa: E402  (pins BLAS threads before numpy loads)

WORKLOADS = ("percolation", "sampling", "certify", "reconstruct")
SETUP_REPS = 3
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def timed_rounds(wl, seconds):
    """Whole rounds until `seconds` have passed: (ops, elapsed, round times)."""
    ops, k, times = 0, 0, []
    t0 = last = time.perf_counter()
    while True:
        ops += wl.run_round(k)
        k += 1
        now = time.perf_counter()
        times.append(now - last)
        last = now
        if now - t0 >= seconds:
            return ops, now - t0, times


def alternate_traced_rounds(wl, tracer, seconds):
    """Whole rounds for `seconds`, alternately untraced and traced, so that
    drift in the machine's speed falls on both alike.  Returns per-side
    (ops, busy seconds, rounds), untraced first."""
    ops, busy, rounds = [0, 0], [0.0, 0.0], [0, 0]
    start = time.perf_counter()
    k = 0
    while k < 2 or time.perf_counter() - start < seconds:
        side = k % 2
        with tracer.during("traced") if side else contextlib.nullcontext():
            t0 = time.perf_counter()
            ops[side] += wl.run_round(k)
            busy[side] += time.perf_counter() - t0
        rounds[side] += 1
        k += 1
    return ops, busy, rounds


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_one(args):
    try:
        env.use_checkout_sources()
    except env.MissingPackageError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import numpy
    import scipy
    import spans
    import workloads

    import_s = time.perf_counter() - _T_START
    wl = workloads.WORKLOADS[args.workload](args.seed)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "operation": wl.operation,
              "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                          "numpy": numpy.__version__, "scipy": scipy.__version__,
                          "blas_threads": env.BLAS_THREADS}}
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(spans.frdecomp_targets())
        wl.tracer = tracer
        with tracer.during("setup"):
            wl.setup()
        ops, busy, rounds = alternate_traced_rounds(wl, tracer, args.seconds)
        with tracer.during("check", wrappers=False):
            problems, failed = wl.check()
        attempted = sum(ops)
        metrics = tracer.layer_metrics(rounds[1])
        rate_u, rate_t = ops[0] / busy[0], ops[1] / busy[1]
        metrics["trace.overhead_pct"] = 100.0 * (rate_u - rate_t) / rate_u
        units = spans.LAYER_METRICS
        detail.update(untraced_ops_per_s=rate_u, traced_ops_per_s=rate_t,
                      traced_rounds=rounds[1])
        trace_path = output_path("traces", args, "jsonl")
        tracer.write_jsonl(trace_path)
        detail["trace_file"] = os.path.relpath(trace_path, env.ROOT)
    else:
        setup_times = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        attempted, elapsed, rounds = timed_rounds(wl, args.seconds)
        peak = peak_rss_mb()  # before the checks, which must not set it
        problems, failed = wl.check()
        metrics = {"setup_s": import_s + statistics.median(setup_times),
                   "ops_per_s": attempted / elapsed,
                   "peak_rss_mb": peak}
        units = END_TO_END
        detail.update(import_s=import_s, setup_times_s=setup_times,
                      timed_s=elapsed, round_times_s=rounds)
    detail["problems"] = problems
    detail["failures"] = {f"{m} t={t:.4g}": p for (m, t), p in
                          getattr(wl, "failures", {}).items()}
    result = {"correct": not problems, "attempted": int(attempted),
              "failed": int(failed),
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    report(result, detail)
    with open(output_path("results", args, "json"), "w") as f:
        json.dump({**result, "detail": detail}, f, indent=1, default=str)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def output_path(kind, args, ext):
    folder = os.path.join(env.OUT_DIR, kind)
    os.makedirs(folder, exist_ok=True)
    return os.path.join(folder, f"{args.workload}-seed{args.seed}-trace{args.trace}.{ext}")


def report(result, detail):
    print(f"workload {detail['workload']} (seed {detail['seed']}); "
          f"operation: {detail['operation']}")
    print(f"attempted {result['attempted']}, failed {result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")
    for problem in detail["problems"][:20]:
        print(f"CHECK FAILED: {problem}")
    if not detail["problems"]:
        print("checks: all passed")


def run_all(args):
    """Every workload in its own process, so that peaks do not mix."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
        status = max(status, proc.returncode)
    print(json.dumps(combined))
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
