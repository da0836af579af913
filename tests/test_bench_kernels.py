"""Smoke test of benchmarks/bench_kernels.py: the script loads and each of
its timing functions returns finite positive figures at a tiny size."""

import importlib.util
import math
import pathlib

from cellfree_maxmin import native

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernels.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_kernels_figures_are_finite_and_positive():
    bench = load_script()
    rows = bench.bench_size(native.load_library(), 4, 2, 2, repeats=1)
    assert [row[0] for row in rows] == ["rate", "margin"]
    mc_rows = bench.bench_monte_carlo(1)
    assert mc_rows and mc_rows[0][0] == 1
    for figure in [x for row in rows for x in row[1:]] + [row[1] for row in mc_rows]:
        assert math.isfinite(figure) and figure > 0
