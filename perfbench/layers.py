"""The package's layers as the benchmark traces them, and the per-layer
metrics derived from one traced run.

Layers are the package modules netgen, rates, kernels, solver_apg,
solver_bisection and harness (cli is a thin argparse shim and is not traced).
Every hook is a public entry point named by its dotted path; see tracer.py.
"""

from typing import Dict, List, Tuple

from stats import median_and_tail
from tracer import Hook, Tracer

KERNELS = (
    "soft_min_value",
    "soft_min_value_grad",
    "project_ball_orthant",
    "soc_residuals",
    "margin_value",
    "margin_value_grad",
    "rate_apg_step",
    "user_rates",
)

# Operation counts of the two value+gradient kernels per call, computed from
# the shapes of their arguments (gs is (T, M), mu is (N, M)): two T x M
# products forward and two backward, plus element-wise work on mu. Bytes count
# gs and asq read twice and mu/grad traffic. These are computed, not measured.
FLOP_MODEL = {
    "soft_min_value_grad": (lambda t, m, n: 8 * t * m + 3 * n * m),
    "margin_value_grad": (lambda t, m, n: 8 * t * m + 4 * n * m),
}


def _bytes_model(t: int, m: int, n: int) -> int:
    return 8 * (4 * t * m + 4 * n * m)


def _count_flops(kernel: str):
    flops = FLOP_MODEL[kernel]

    def on_call(tracer: Tracer, args, kwargs):
        try:
            t, m = args[0].shape
            n = args[3].shape[0]
        except (IndexError, AttributeError, ValueError):
            tracer.mark_absent(f"kernels.{kernel}.flops_computed")
            return
        tracer.count(f"kernels.{kernel}.flops", flops(t, m, n))
        tracer.count(f"kernels.{kernel}.bytes", _bytes_model(t, m, n))

    return on_call


def _count_attr(tracer: Tracer, counter: str, result, attr: str) -> None:
    """Add result.attr to a counter; a result without the attribute marks the
    counter absent instead of counting zero."""
    value = getattr(result, attr, None)
    if value is None:
        tracer.mark_absent(counter)
    else:
        tracer.count(counter, value)


def _on_apg_solve(tracer: Tracer, report, args, kwargs):
    _count_attr(tracer, "solver_apg.iterations", report, "iterations")
    _count_attr(tracer, "solver_apg.extrapolation_rejections", report,
                "extrapolation_rejections")
    bt_y = getattr(report, "trace_bt_y", None)
    bt_mu = getattr(report, "trace_bt_mu", None)
    if bt_y is None or bt_mu is None:
        tracer.mark_absent("solver_apg.backtracks")
    else:
        tracer.count("solver_apg.backtracks", int(bt_y.sum()) + int(bt_mu.sum()))


def _on_oracle(tracer: Tracer, result, args, kwargs):
    _count_attr(tracer, "solver_bisection.oracle_iters", result, "iterations")
    status = getattr(result, "status", None)
    if status is None:
        tracer.mark_absent("solver_bisection.decided_frac")
    elif status == "undecided":
        tracer.count("solver_bisection.undecided")


def _on_smallscale_block(tracer: Tracer, block, args, kwargs):
    tracer.count("netgen.smallscale.draws", int(block[0].shape[0]))


def hooks() -> List[Hook]:
    """Every traced entry point. A traced run wraps them all, whatever the
    workload; one a workload never reaches reports zero calls."""
    out = [
        Hook("harness.run_experiment"),
        Hook("netgen.generate_instance"),
        Hook("netgen.iter_smallscale_blocks", span="netgen.smallscale", generator=True,
             on_result=_on_smallscale_block),
        Hook("rates.build_rate_model"),
        Hook("rates.rate_oracle_monte_carlo"),
        Hook("solver_apg.apg_solve_continuation",
             on_result=lambda tr, *a: tr.count("solver_apg.solves")),
        Hook("solver_apg.apg_solve", on_result=_on_apg_solve),
        Hook("solver_apg.monotone_apg",
             rename={"solver_bisection.feasibility_oracle": "solver_bisection.oracle_apg"}),
        Hook("solver_bisection.bisection_solve"),
        Hook("solver_bisection.feasibility_oracle", keep_durations=True, on_result=_on_oracle),
    ]
    for kernel in KERNELS:
        out.append(Hook(f"kernels.IMPL.{kernel}",
                        on_call=_count_flops(kernel) if kernel in FLOP_MODEL else None))
    return out


Metrics = Dict[str, Tuple[float, str]]


def layer_metrics(tracer: Tracer, instances: int) -> Metrics:
    """Per-layer metrics of one traced run, as {name: (value, unit)}.

    Counts, byte and second totals are per traced instance (unit suffix
    `/inst`), so that they compare across runs that completed different
    numbers of instances. A ratio whose base is zero (no calls on this
    workload) reads 0. Metrics of an absent entry point are left out;
    tracer.absent names them."""
    stats, counters = tracer.stats, tracer.counters
    absent = set(tracer.absent)
    out: Metrics = {}

    def span(name):
        return stats.get(name)

    def total(name):
        s = span(name)
        return s.total_s if s else 0.0

    def self_s(*names):
        return sum(stats[n].self_s for n in names if n in stats)

    def calls(name):
        s = span(name)
        return s.calls if s else 0

    def ratio(num, den):
        return num / den if den else 0.0

    def put(name, value, unit, needs=()):
        if any(n in absent for n in needs):
            return
        if unit in ("count", "s", "B", "flop"):
            value, unit = ratio(value, instances), unit + "/inst"
        out[name] = (float(value), unit)

    put("netgen.generate_instance.calls", calls("netgen.generate_instance"), "count",
        ["netgen.generate_instance"])
    put("netgen.generate_instance.s", total("netgen.generate_instance"), "s",
        ["netgen.generate_instance"])
    put("netgen.smallscale.s", total("netgen.smallscale"), "s", ["netgen.iter_smallscale_blocks"])
    put("netgen.smallscale.draws", counters.get("netgen.smallscale.draws", 0), "count",
        ["netgen.iter_smallscale_blocks"])

    put("rates.build_rate_model.s", total("rates.build_rate_model"), "s",
        ["rates.build_rate_model"])
    put("rates.rate_oracle_monte_carlo.self_s", self_s("rates.rate_oracle_monte_carlo"), "s",
        ["rates.rate_oracle_monte_carlo"])
    put("rates.mc_s_per_1e5_draws",
        ratio(total("rates.rate_oracle_monte_carlo"),
              counters.get("netgen.smallscale.draws", 0) / 1e5), "s/1e5draws",
        ["rates.rate_oracle_monte_carlo", "netgen.iter_smallscale_blocks"])

    for kernel in KERNELS:
        name, path = f"kernels.{kernel}", f"kernels.IMPL.{kernel}"
        put(f"{name}.calls", calls(name), "count", [path])
        put(f"{name}.s", total(name), "s", [path])
        put(f"{name}.us_per_call", 1e6 * ratio(total(name), calls(name)), "us/call", [path])
    for kernel in FLOP_MODEL:
        name = f"kernels.{kernel}"
        needs = [f"kernels.IMPL.{kernel}", f"{name}.flops_computed"]
        flops = counters.get(f"{name}.flops", 0)
        put(f"{name}.flops_computed", flops, "flop", needs)
        put(f"{name}.bytes_computed", counters.get(f"{name}.bytes", 0), "B", needs)
        put(f"{name}.gflops_achieved", 1e-9 * ratio(flops, total(name)), "GFLOP/s", needs)

    iters = counters.get("solver_apg.iterations", 0)
    put("solver_apg.solves", counters.get("solver_apg.solves", 0), "count",
        ["solver_apg.apg_solve_continuation"])
    put("solver_apg.iterations", iters, "count",
        ["solver_apg.apg_solve", "solver_apg.iterations"])
    put("solver_apg.us_per_iteration", 1e6 * ratio(total("solver_apg.apg_solve"), iters), "us/iter",
        ["solver_apg.apg_solve", "solver_apg.iterations"])
    put("solver_apg.backtracks", counters.get("solver_apg.backtracks", 0), "count",
        ["solver_apg.apg_solve", "solver_apg.backtracks"])
    put("solver_apg.extrapolation_rejections",
        counters.get("solver_apg.extrapolation_rejections", 0), "count",
        ["solver_apg.apg_solve", "solver_apg.extrapolation_rejections"])
    put("solver_apg.self_s",
        self_s("solver_apg.apg_solve_continuation", "solver_apg.apg_solve",
               "solver_apg.monotone_apg"), "s", ["solver_apg.apg_solve"])

    oracle = span("solver_bisection.feasibility_oracle")
    n_oracle = calls("solver_bisection.feasibility_oracle")
    oracle_iters = counters.get("solver_bisection.oracle_iters", 0)
    p50, tail, _ = median_and_tail(oracle.durations if oracle else [])
    needs = ["solver_bisection.feasibility_oracle"]
    put("solver_bisection.oracle_calls", n_oracle, "count", needs)
    put("solver_bisection.oracle_iters", oracle_iters, "count",
        needs + ["solver_bisection.oracle_iters"])
    put("solver_bisection.iters_per_oracle_call", ratio(oracle_iters, n_oracle), "iter/call",
        needs + ["solver_bisection.oracle_iters"])
    put("solver_bisection.oracle_call_s.p50", p50, "s/call", needs)
    put("solver_bisection.oracle_call_s.tail", tail, "s/call", needs)
    put("solver_bisection.decided_frac",
        ratio(n_oracle - counters.get("solver_bisection.undecided", 0), n_oracle), "ratio",
        needs + ["solver_bisection.decided_frac"])
    put("solver_bisection.oracle_apg_self_s", self_s("solver_bisection.oracle_apg"), "s",
        ["solver_apg.monotone_apg"])

    put("harness.self_s", self_s("harness.run_experiment"), "s", ["harness.run_experiment"])
    return out


def layer_shares(tracer: Tracer, wall_s: float) -> List[Tuple[str, float, float]]:
    """(span, total share, self share) of the traced wall time, largest first."""
    rows = [(name, s.total_s / wall_s, s.self_s / wall_s) for name, s in tracer.stats.items()]
    return sorted(rows, key=lambda r: -r[1])
