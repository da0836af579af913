#!/usr/bin/env python3
"""Benchmark of the cellfree_maxmin package: three workloads, end to end and
layer by layer.

    python3 perfbench/run.py --workload paper-both --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both modes

Run from the repository root. With --trace 0 the run measures the end-to-end
metrics with tracing off; with --trace 1 it runs the same call sequence once
untraced and once traced (half of --seconds each) and reports the per-layer
metrics and the tracing overhead. Human-readable lines come first; the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics. README.md in this directory documents the workloads and
metrics; BASELINE.md holds the first measured baseline.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
PACKAGE_INIT = os.path.join(SRC, "cellfree_maxmin", "__init__.py")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Child process of the set-up measurement: process start to ready, i.e. the
# imports plus one run of the workload's experiment on a tiny instance.
SETUP_CODE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.harness.run_experiment(workloads.WORKLOADS[sys.argv[3]].tiny_config(sys.argv[4]))
"""

E2E = (  # name, unit, better
    ("setup_s", "s", "lower"),
    ("instances_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def environment() -> dict:
    import numpy
    from cellfree_maxmin import kernels

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    backend = getattr(kernels, "active_backend", None)
    return {
        "kernel_backend": backend() if callable(backend) else "absent",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": git_sha(),
    }


def measure_setup(workload, out_root: str) -> list:
    """Wall seconds of SETUP_REPEATS child processes, run one at a time."""
    from workloads import CLOCK

    times = []
    for i in range(SETUP_REPEATS):
        out_dir = os.path.join(out_root, f"setup{i}")
        t0 = CLOCK()
        subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, BENCH_DIR, workload.name, out_dir],
                       check=True, timeout=SETUP_TIMEOUT_S, stdin=subprocess.DEVNULL)
        times.append(CLOCK() - t0)
        shutil.rmtree(out_dir, ignore_errors=True)
    return times


def fmt(value: float) -> str:
    return f"{value:.6g}"


def print_metric(name, value, unit, note):
    print(f"metric {name} = {fmt(value)} {unit} ({note})")


def end_to_end(workload, seed, seconds, out_root) -> dict:
    from stats import median_and_tail
    from workloads import PROBE_REF_S, run_segment

    setup = measure_setup(workload, out_root)
    seg = run_segment(workload, seed, seconds, out_root)
    per_instance = [r.wall_s / r.instances for r in seg.records]
    p50, tail, q = median_and_tail(per_instance)
    n, calls = seg.instances, len(seg.records)
    per_cycle = workload.instances * workload.cycle
    values = {
        "setup_s": (statistics.median(setup), f"lower better, median of n={len(setup)} "
                    "child processes: imports + tiny warm-up run"),
        "instances_per_s": (per_cycle / seg.cycle_s(),
                            f"higher better, normalised, instances of one cycle over the sum of "
                            f"each call group's median call, n={calls} calls, {n} instances"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "lower better, n=1 process"),
    }
    units = {name: unit for name, unit, _ in E2E}
    for name, (value, note) in values.items():
        print_metric(name, value, units[name], note)

    print_metric("instances_per_s.wall", per_cycle / seg.cycle_s(normalised=False), "1/s",
                 f"higher better, wall time, n={calls} calls; report only")
    print_metric("instances_per_s.mean", n / seg.busy_s, "1/s",
                 f"higher better, {n} instances in {fmt(seg.busy_s)} s busy; report only")
    print_metric("host_probe_s.p50", statistics.median(r.probe_s for r in seg.records), "s",
                 f"reference {fmt(PROBE_REF_S)} s, n={calls}; report only")
    print_metric("instance_s.p50", p50, "s", f"lower better, n={calls} calls; report only")
    print_metric("instance_s.tail", tail, "s", f"lower better, p{q}, n={calls} calls; report only")
    failed, attempted, base = workload.failed_frac(seg.records)
    print_metric("failed_frac", failed / attempted, "ratio",
                 f"lower better, {failed} of {attempted} {base}; report only")
    recs = seg.records
    if workload.name == "paper-both":
        for key in ("apg_solve_s", "bisection_solve_s"):
            samples = [r.values[key] for r in recs if key in r.values]
            k50, ktail, kq = median_and_tail(samples)
            print_metric(f"{key}.p50", k50, "s", f"lower better, n={len(samples)}; report only")
            print_metric(f"{key}.tail", ktail, "s",
                         f"lower better, p{kq}, n={len(samples)}; report only")
        for key in ("apg_min_rate_nats", "bisection_t_star_nats"):
            samples = [r.values[key] for r in recs if key in r.values]
            print_metric(f"{key}.mean", statistics.fmean(samples), "nat",
                         f"higher better, n={len(samples)} instances; report only")
    if workload.name == "cdf-apg":
        total = sum(r.values.get("apg_min_rate_nats_sum", 0.0) for r in recs)
        print_metric("apg_min_rate_nats.mean", total / n, "nat",
                     f"higher better, n={n} trials; report only")
    print_calls(seg)
    print_digest(workload, seg)
    return result_line(seg, {name: {"value": values[name][0], "unit": unit}
                             for name, unit, _ in E2E})


def print_calls(seg):
    print("call_s " + " ".join(f"{r.wall_s:.4f}" for r in seg.records))
    print("probe_s " + " ".join(f"{r.probe_s:.5f}" for r in seg.records))


def print_digest(workload, seg):
    print(f"digest {seg.digest} (non-timing output bytes of the first "
          f"{workload.prefix_calls} calls); repeated inputs with other output: "
          f"{seg.repeat_mismatches()}")


def result_line(segments, metrics) -> dict:
    """The last output line; prints every failure by name first."""
    segments = segments if isinstance(segments, list) else [segments]
    for seg in segments:
        for record in seg.records:
            for excursion in record.excursions:
                print(f"FAIL {excursion} (statistical; judged over the run)")
        for failure in seg.failures():
            print(f"FAIL {failure}")
    return {
        "correct": not any(seg.failures() for seg in segments),
        "attempted": sum(seg.instances for seg in segments),
        "failed": sum(seg.failed_instances() for seg in segments),
        "metrics": metrics,
    }


def traced(workload, seed, seconds, out_root) -> dict:
    import layers
    from tracer import Tracer
    from workloads import CLOCK, run_segment

    untraced = run_segment(workload, seed, seconds / 2.0, out_root)
    tracer = Tracer(layers.hooks(), clock=CLOCK)

    def prefix_counts():
        counts = {name: s.calls for name, s in sorted(tracer.stats.items())}
        counts.update(sorted(tracer.counters.items()))
        return counts

    with tracer:
        seg = run_segment(workload, seed, seconds / 2.0, out_root, tracer=tracer,
                          on_prefix=prefix_counts)
    metrics = layers.layer_metrics(tracer, seg.instances)
    metrics["harness.bytes_written"] = (sum(r.bytes_written for r in seg.records) / seg.instances,
                                        "B/inst")
    paired = min(len(untraced.records), len(seg.records))
    busy_untraced = sum(r.norm_s for r in untraced.records[:paired])
    busy_traced = sum(r.norm_s for r in seg.records[:paired])
    metrics["trace_overhead_frac"] = (1.0 - busy_untraced / busy_traced, "ratio")

    print(f"traced {seg.instances} instances in {len(seg.records)} calls; overhead paired over "
          f"the first {paired} calls: {fmt(busy_untraced)} s untraced, {fmt(busy_traced)} s "
          "traced (normalised)")
    for name, (value, unit) in metrics.items():
        print_metric(name, value, unit, "per layer")
    for name in tracer.absent:
        print(f"absent {name} (entry point not found; its metrics are left out)")
    print("span share of traced busy time (total, self):")
    for name, share, self_share in layers.layer_shares(tracer, seg.busy_s):
        print(f"  {name:40s} {100 * share:6.2f}% {100 * self_share:6.2f}%")
    counts = seg.prefix_snapshot or {}
    print(f"prefix counters {json.dumps(counts, sort_keys=True)} "
          f"(first {workload.prefix_calls} traced calls)")
    print_digest(workload, seg)
    return result_line([untraced, seg], {name: {"value": value, "unit": unit}
                                         for name, (value, unit) in metrics.items()})


def run_one(args) -> dict:
    sys.path[:0] = [SRC, BENCH_DIR]
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    out_root = os.path.join(OUT_ROOT, str(os.getpid()))
    os.makedirs(out_root, exist_ok=True)
    try:
        print(f"env {json.dumps(environment(), sort_keys=True)}")
        print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} "
              f"trace {args.trace}")
        workloads.harness.run_experiment(workload.tiny_config(os.path.join(out_root, "warm")))
        if args.trace:
            return traced(workload, args.seed, args.seconds, out_root)
        return end_to_end(workload, args.seed, args.seconds, out_root)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        try:
            os.rmdir(OUT_ROOT)
        except OSError:
            pass  # another run still uses it


def run_all(args) -> dict:
    """Every workload in both modes, one child process at a time."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                                  stdin=subprocess.DEVNULL)
            print(proc.stdout, end="", flush=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-both", "cdf-apg", "mc-verify", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(PACKAGE_INIT):
        print(f"error: package source not found at {os.path.relpath(PACKAGE_INIT, ROOT)}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    # a terminated run still removes its output directory and set-up child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload == "all":
        sys.path[:0] = [SRC, BENCH_DIR]
        result = run_all(args)
    else:
        result = run_one(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
