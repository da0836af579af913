"""Tests of the benchmark's own machinery. Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from cellfree_maxmin import (  # noqa: E402
    BisectionConfig,
    Dimensions,
    PhysicalConfig,
    bisection_solve,
    build_rate_model,
    build_soc_system,
    generate_instance,
    kernels,
    netgen,
    solver_apg,
)
from tracer import Hook, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def tiny():
    dims = Dimensions.uniform(num_aps=4, num_groups=2, users_per_group=2)
    instance = generate_instance(dims, PhysicalConfig(), seed=3)
    return instance, build_rate_model(instance)


def test_self_time_excludes_hooked_children_and_uninstall_restores():
    original_impl = kernels.IMPL
    original_project = solver_apg.project_feasible
    tracer = Tracer([Hook("solver_apg.project_feasible"),
                     Hook("kernels.IMPL.project_ball_orthant")])
    with tracer:
        assert kernels.IMPL is not original_impl
        for _ in range(3):
            solver_apg.project_feasible([[0.5, -1.0, 2.0]], num_aps=3)
    assert kernels.IMPL is original_impl
    assert solver_apg.project_feasible is original_project
    outer = tracer.stats["solver_apg.project_feasible"]
    inner = tracer.stats["kernels.project_ball_orthant"]
    assert outer.calls == inner.calls == 3
    assert outer.self_s == pytest.approx(outer.total_s - inner.total_s, abs=1e-9)
    assert tracer.absent == []


def test_missing_entry_points_are_absent_not_raised():
    tracer = Tracer([Hook("kernels.IMPL.no_such_kernel"), Hook("netgen.no_such_function"),
                     Hook("no_such_module.f")])
    with tracer:
        pass
    assert tracer.absent == ["kernels.IMPL.no_such_kernel", "netgen.no_such_function",
                             "no_such_module.f"]
    metrics = layers.layer_metrics(Tracer([], absent=["kernels.IMPL.rate_apg_step"]), 1)
    assert "kernels.rate_apg_step.calls" not in metrics
    assert "kernels.margin_value.calls" in metrics


def test_generator_spans_count_draws(tiny):
    instance, _ = tiny
    tracer = Tracer([h for h in layers.hooks() if h.path == "netgen.iter_smallscale_blocks"])
    with tracer:
        blocks = list(netgen.iter_smallscale_blocks(instance, netgen.SMALLSCALE_BLOCK + 5, 1))
    assert len(blocks) == 2
    # the third next() ends the iteration and is timed too
    assert tracer.stats["netgen.smallscale"].calls == 3
    assert tracer.counters["netgen.smallscale.draws"] == netgen.SMALLSCALE_BLOCK + 5


def test_oracle_loop_is_charged_to_bisection(tiny):
    _, model = tiny
    tracer = Tracer(layers.hooks())
    with tracer:
        bisection_solve(build_soc_system(model), BisectionConfig(tol_t=0.5, oracle_iter_cap=50))
    names = set(tracer.stats)
    assert "solver_bisection.feasibility_oracle" in names
    assert "solver_apg.monotone_apg" not in names
    metrics = layers.layer_metrics(tracer, 1)
    assert metrics["solver_bisection.oracle_calls"][0] >= 1
    assert metrics["kernels.margin_value_grad.flops_computed"][0] > 0


def test_disabled_tracer_records_nothing(tiny):
    _, model = tiny
    tracer = Tracer(layers.hooks(), enabled=False)
    with tracer:
        solver_apg.apg_solve_continuation(model, (100.0,))
    assert tracer.stats == {} and tracer.counters == {}


def test_per_layer_names_match_benchmark_json(tiny):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    produced = set(layers.layer_metrics(Tracer([]), 1)) | {"harness.bytes_written",
                                                        "trace_overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == produced


@pytest.mark.parametrize("n, q", [(1, 50), (19, 50), (20, 50), (40, 75), (100, 90), (5000, 99)])
def test_tail_percentile_leaves_ten_samples_beyond(n, q):
    assert stats.tail_percentile(n) == q


def test_percentile_matches_linear_interpolation():
    assert stats.percentile([3.0, 1.0, 2.0, 4.0], 50.0) == 2.5
    assert stats.median_and_tail([]) == (0.0, 0.0, 50)


def test_chance_excursions_allowed():
    assert workloads.excursions_allowed(0) == 0
    assert 1 <= workloads.excursions_allowed(150) <= 5
    assert workloads.excursions_allowed(1500) > workloads.excursions_allowed(150)


def test_timing_fields_are_left_out_of_the_digest(tmp_path):
    (tmp_path / "summary.csv").write_text("key,value\napg_wall_s,0.5\napg_iterations,7\n")
    (tmp_path / "trace.csv").write_text("iter,f,elapsed_s\n0,1.0,0.25\n")
    (tmp_path / "resolved_config.json").write_text("{}")
    body = workloads.output_bytes_without_timing(str(tmp_path)).decode()
    assert "0.5" not in body and "0.25" not in body
    assert "apg_iterations,7" in body and "0,1.0" in body


def test_fails_without_result_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc-verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
