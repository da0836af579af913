#!/usr/bin/env python3
"""Time the compiled APG stage (apg_chain in apg_stage.c) and the Monte-Carlo
oracle.

For each size (M APs, N groups, K users per group) and both objectives, the
rate soft minimum of apg_solve and the cone margin of the bisection oracle,
prints for the compiled stage:

  * microseconds per value and per value+gradient evaluation through
    apg_objective (one ctypes call, which also allocates its scratch and
    copies gs and asq into the user-minor layout, as each stage does once);
  * milliseconds per fixed stage of 300 iterations (stopping rules off)
    through solver_apg.compiled_chain, as a chain of one stage.

It then prints seconds per 1e5 draws of the Monte-Carlo rate oracle
(rates.rate_oracle_monte_carlo) at M=8, 2x3, on one thread and on every CPU
the process may use.

Each figure is the median of --repeats timed blocks. Run after any change to
apg_stage.c or the Monte-Carlo oracle:

    PYTHONPATH=src python benchmarks/bench_kernels.py [--repeats 5]
"""

import argparse
import ctypes
import math
import statistics
import time
from unittest import mock

import numpy as np

from cellfree_maxmin import (Dimensions, PhysicalConfig, build_rate_model, epa_rates,
                             generate_instance, kernels, native, pool, rate_oracle_monte_carlo)
from cellfree_maxmin.harness import random_feasible_power
from cellfree_maxmin.solver_apg import compiled_chain
from cellfree_maxmin.solver_bisection import GAP_CHECK_EVERY

SIZES = [(100, 4, 10), (150, 2, 15), (200, 2, 15), (50, 2, 10)]
STAGE_ITERS = 300
RATE_SIGMA = 100.0
MARGIN_SIGMA = 1000.0
MC_SIZE = (8, 2, 3)
MC_DRAWS = 100_000


def median_time(fn, repeats, min_block_s=0.05):
    """Median seconds per call of fn() over `repeats` blocks of equal length."""
    fn()  # warm
    calls, t0 = 1, time.perf_counter()
    fn()
    one = max(time.perf_counter() - t0, 1e-9)
    calls = max(1, int(min_block_s / one))
    blocks = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        blocks.append((time.perf_counter() - t0) / calls)
    return statistics.median(blocks)


def bench_size(lib, m_aps, n_groups, users_per_group, repeats):
    """Rows (objective, value us, value+grad us, stage ms)."""
    dims = Dimensions.uniform(m_aps, n_groups, users_per_group)
    model = build_rate_model(generate_instance(dims, PhysicalConfig(), seed=0))
    gs, asq, ptr = model.gamma_sqrt, model.a_sq, model.group_ptr
    T, M = gs.shape
    rng = np.random.default_rng(0)
    mu = np.ascontiguousarray(rng.uniform(0.05, 0.6, size=(n_groups, m_aps)))
    mu = kernels.IMPL.project_ball_orthant(mu)
    level = epa_rates(model).min_rate

    rows = []
    for kind, name, sigma, t in ((native.RATE, "rate", RATE_SIGMA, 0.0),
                                 (native.MARGIN, "margin", MARGIN_SIGMA, level)):
        grad = np.empty_like(mu)
        aux = ctypes.c_double()
        args = (kind, gs.ctypes.data, asq.ctypes.data, ptr.ctypes.data, T, n_groups, M,
                model.rho_bar, sigma, t, mu.ctypes.data)
        rows.append((name,
                     median_time(lambda: lib.apg_objective(*args, None, aux), repeats) * 1e6,
                     median_time(lambda: lib.apg_objective(*args, grad.ctypes.data, aux),
                                 repeats) * 1e6,
                     # a plateau tolerance of 0 never stops; eps_soc = -inf: the
                     # feasible and infeasible exits never fire
                     median_time(lambda: compiled_chain(lib, kind, model, mu, (sigma,), (0.0,),
                                                        STAGE_ITERS, t=t, eps_soc=-math.inf,
                                                        gap_check_every=GAP_CHECK_EVERY),
                                 repeats, min_block_s=0.0) * 1e3))
    return rows


def bench_monte_carlo(repeats):
    """Rows (threads, seconds per 1e5 draws) of the Monte-Carlo oracle on one
    thread and on all CPUs; the thread count has no setting, so the one-thread
    run patches the CPU count the oracle reads."""
    dims = Dimensions.uniform(*MC_SIZE)
    instance = generate_instance(dims, PhysicalConfig(), seed=0)
    mu = random_feasible_power(dims, 0)

    def run():
        rate_oracle_monte_carlo(instance, mu, MC_DRAWS, seed=0)

    rows = []
    for threads in sorted({1, pool.cpu_count()}):
        with mock.patch.object(pool, "cpu_count", lambda: threads):
            rows.append((threads, median_time(run, repeats, min_block_s=0.0) * 1e5 / MC_DRAWS))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    lib = native.load_library()
    print(f"compiled stage: {lib.apg_lanes()} users per vector")
    print(f"{'size':>16s} {'objective':>9s} {'value us':>9s} "
          f"{'val+grad us':>11s} {f'{STAGE_ITERS} it ms':>9s}")
    for m, n, k in SIZES:
        for name, t_v, t_vg, t_stage in bench_size(lib, m, n, k, args.repeats):
            print(f"M={m:<4d} N={n} K={k:<3d} {name:>9s} {t_v:9.2f} {t_vg:11.2f} {t_stage:9.2f}")
    m, n, k = MC_SIZE
    print(f"\nMonte-Carlo oracle, M={m} N={n} K={k}, {MC_DRAWS} draws per call")
    for threads, s_per_1e5 in bench_monte_carlo(args.repeats):
        print(f"{threads:3d} thread(s): {s_per_1e5:.3f} s per 1e5 draws")


if __name__ == "__main__":
    main()
