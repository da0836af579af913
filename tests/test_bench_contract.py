"""The package keeps every entry point the benchmark's tracer hooks.

perfbench/ wraps public functions by dotted path at run time and leaves out
the metrics of a path that no longer resolves. A renamed or removed entry
point therefore drops metrics from a traced run without failing it. This
test runs one tiny experiment of each benchmark workload's kind under the
tracer and checks that every hook resolves and that the traced metrics are
exactly the per-layer names BENCHMARK.json declares, all finite.
"""

import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
sys.path.insert(0, BENCH_DIR)

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

from cellfree_maxmin import pool  # noqa: E402
from cellfree_maxmin.harness import ExperimentConfig, run_experiment  # noqa: E402

# metrics the benchmark's run.py adds to layer_metrics in a traced run
RUN_METRICS = ("harness.bytes_written", "trace_overhead_frac")


def test_traced_metrics_match_benchmark(tmp_path, monkeypatch):
    monkeypatch.setattr(pool, "cpu_count", lambda: 2)
    base = dict(num_aps=6, group_sizes=(2, 2), master_seed=3)
    configs = [
        ExperimentConfig(kind="convergence", out_dir=str(tmp_path / "convergence"), **base),
        ExperimentConfig(kind="cdf", trials=4, out_dir=str(tmp_path / "cdf"), **base),
        ExperimentConfig(kind="verify-rate", trials=1, mc_draws=5000,
                         out_dir=str(tmp_path / "verify"), **base),
    ]
    with Tracer(layers.hooks()) as tracer:
        for cfg in configs:
            run_experiment(cfg)
    assert tracer.absent == []

    metrics = {name: value for name, (value, _unit) in
               layers.layer_metrics(tracer, instances=6).items()}
    metrics.update({name: 0.0 for name in RUN_METRICS})
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {entry["name"] for entry in json.load(fh)["per_layer"]}
    assert set(metrics) == declared
    assert all(math.isfinite(v) for v in metrics.values()), \
        [name for name, v in metrics.items() if not math.isfinite(v)]
    json.dumps(metrics, allow_nan=False)
    # each workload's own layers did work
    for name in ("solver_apg.iterations", "solver_bisection.oracle_calls",
                 "rates.rate_oracle_monte_carlo.self_s"):
        assert metrics[name] > 0, name
