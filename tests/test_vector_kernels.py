"""The compiled stage's vector exp and log1p against the C library, the numpy
port of exp against the compiled one, and stage results, Monte-Carlo normals
and block sums that do not depend on the lane width the library was built
for."""

import dataclasses

import math
import platform

import numpy as np
import pytest

from cellfree_maxmin import (
    ApgConfig,
    MonteCarloRateReport,
    Dimensions,
    PhysicalConfig,
    apg_solve_continuation,
    build_rate_model,
    epa_power,
    generate_instance,
    kernels,
    native,
    rate_oracle_monte_carlo,
)
from cellfree_maxmin.harness import random_feasible_power
from cellfree_maxmin.netgen import SMALLSCALE_BLOCK, smallscale_key
from cellfree_maxmin.solver_apg import compiled_chain
from conftest import sampled_draws
from test_normals import compiled_normals

SPECIALS = np.array([0.0, -0.0, -math.inf, math.inf, math.nan, 5e-324, -5e-324, -708.0,
                     -708.5, -745.0, -745.2, -746.0, -1e300, 709.7, 709.8, 710.0, 1e300])


@pytest.fixture(scope="module")
def lib():
    return native.load_library()


def call(fn, x):
    x = np.ascontiguousarray(x, dtype=float)
    out = np.empty_like(x)
    fn(x.ctypes.data, out.ctypes.data, x.size)
    return out


def ulp_distance(a, b):
    """Distance in units in the last place of finite doubles of one sign."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


def libm(fn, x):
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def same_bits(a, b):
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and np.array_equal(
        a[~nan].view(np.int64), b[~nan].view(np.int64))


def exp_points():
    """The stage's exp arguments -sigma*(v - min v) <= 0, down past the
    smallest subnormal result, in 1.2e6 points."""
    rng = np.random.default_rng(0)
    return np.concatenate([-rng.uniform(0.0, 746.0, 600_000),
                           -rng.uniform(0.0, 1.0, 300_000),
                           -np.exp(rng.uniform(math.log(1e-300), math.log(746.0), 300_000))])


def test_exp_within_one_ulp_of_libm(lib):
    x = exp_points()
    got = call(lib.apg_vexp, x)
    assert ulp_distance(got, libm(math.exp, x)).max() <= 1


def test_log1p_within_one_ulp_of_libm(lib):
    """Over the stage's arguments b/c >= 0, from subnormals to 1e300."""
    rng = np.random.default_rng(1)
    x = np.concatenate([rng.uniform(0.0, 1.0, 400_000),
                        np.exp(rng.uniform(math.log(1e-320), math.log(1e300), 600_000)),
                        [1e-320, 2.0 ** -53, 2.0 ** -52, math.sqrt(2.0) - 1.0, 1e300]])
    got = call(lib.apg_vlog1p, x)
    assert ulp_distance(got, libm(math.log1p, x)).max() <= 1


def test_special_values(lib):
    e = call(lib.apg_vexp, [0.0, -0.0, -math.inf, math.nan, -708.5, -745.0, -746.0, 710.0])
    assert e[0] == 1.0 and e[1] == 1.0 and e[2] == 0.0 and math.isnan(e[3])
    assert 0.0 < e[4] < 2.3e-308 and e[5] == 5e-324 and e[6] == 0.0 and e[7] == math.inf
    below = call(lib.apg_vexp, -np.linspace(708.5, 800.0, 1001))
    assert (below < 2.3e-308).all() and (below >= 0.0).all()
    lg = call(lib.apg_vlog1p, [0.0, math.inf, math.nan, 1e-320, 2.0 ** -53])
    assert lg[0] == 0.0 and not math.copysign(1.0, lg[0]) < 0
    assert lg[1] == math.inf and math.isnan(lg[2])
    assert lg[3] == 1e-320 and lg[4] == 2.0 ** -53


def test_numpy_exp_equals_compiled_exp(lib):
    x = np.concatenate([exp_points(), SPECIALS])
    assert same_bits(kernels._exp(x), call(lib.apg_vexp, x))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 17])
def test_array_tails(lib, n):
    """Arrays that end in a partial vector are filled and nothing past them."""
    x = -np.arange(1.0, n + 2.0)
    out = np.full(n + 1, 7.0)
    lib.apg_vexp(x.ctypes.data, out.ctypes.data, n)
    assert same_bits(out[:n], kernels._exp(x[:n])) and out[n] == 7.0


# -march=native alone, then without AVX-512, then without AVX: on an AVX-512
# host 8, 4 and 2 users per vector
LANE_FLAGS = [(), ("-mno-avx512f",), ("-mno-avx",)]
LANE_CASES = [(50, (10,) * 10), (17, (7, 9, 2)), (100, (10,) * 4)]


@pytest.fixture(scope="module")
def lane_libs(tmp_path_factory):
    cache = tmp_path_factory.mktemp("lane_cache")
    libs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(cache))
        for extra in LANE_FLAGS:
            mp.setattr(native, "CFLAGS", native.CFLAGS + extra)
            libs.append(native.load_library.__wrapped__())
    return libs


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the lane-width flags are x86 options")
@pytest.mark.parametrize("case", LANE_CASES, ids=["M50-10x10", "M17-7x9x2", "M100-4x10"])
def test_stage_results_do_not_depend_on_lane_width(lane_libs, case):
    num_aps, group_sizes = case
    dims = Dimensions(num_aps, len(group_sizes), group_sizes)
    model = build_rate_model(generate_instance(dims, PhysicalConfig(), seed=1))
    assert lane_libs[-1].apg_lanes() == 2
    x0 = epa_power(model.num_aps, model.num_groups)
    optimum = apg_solve_continuation(model, (100.0, 1000.0))[-1].f_true
    tol = ApgConfig().stop_tol
    # margin levels that run long (up to the iteration cap) or end infeasible
    runs = [[compiled_chain(lib, native.RATE, model, x0, (100.0,), (tol,), 300)[0]]
            + [compiled_chain(lib, native.MARGIN, model, x0, (3000.0,), (tol,), 300, t=t,
                              eps_soc=1e-6, gap_check_every=25)[0]
               for t in (0.999 * optimum, optimum + 0.02)]
            for lib in lane_libs]
    for stages in runs[1:]:
        for got, ref in zip(stages, runs[0]):
            assert got.termination == ref.termination
            assert got.iterations == ref.iterations
            assert got.evaluations == ref.evaluations
            assert same_bits(got.power, ref.power)
            assert same_bits(got.trace_f_sigma, ref.trace_f_sigma)


# one group (d = 3, no cross-group moments), a group of one user, unequal
# groups, 18 + 3 entries per AP (odd N: in the last chunk, of one AP, the
# noise's last entry is drawn alone, not in a pair), and the mc-verify shape
MC_LANE_CASES = [(6, (4,)), (5, (1, 3)), (10, (2, 5, 1)), (17, (7, 9, 2)), (8, (3, 3))]
# under, at and over one pass of 8 draw slots, and past one block
MC_LANE_DRAWS = [1, 7, 8, 9, SMALLSCALE_BLOCK + 5]


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the lane-width flags are x86 options")
@pytest.mark.parametrize("case", MC_LANE_CASES,
                         ids=["M6-4", "M5-1x3", "M10-2x5x1", "M17-7x9x2", "M8-3x3"])
def test_monte_carlo_does_not_depend_on_lane_width(lane_libs, monkeypatch, case):
    """Oracle reports, sampled draws and the unit normals, through mc_block,
    mc_pilot and mc_normals, are bit-identical on 8, 4 and 2 lanes."""
    num_aps, group_sizes = case
    dims = Dimensions(num_aps, len(group_sizes), group_sizes)
    instance = generate_instance(dims, PhysicalConfig(), seed=2)
    mu = random_feasible_power(dims, seed=3)
    runs = []
    for lib in lane_libs:
        monkeypatch.setattr(native, "load_library", lambda lib=lib: lib)
        runs.append([rate_oracle_monte_carlo(instance, mu, draws, seed=4)
                     for draws in MC_LANE_DRAWS]
                    + [sampled_draws(instance, MC_LANE_DRAWS[-1], seed=4),
                       (compiled_normals(smallscale_key(4), SMALLSCALE_BLOCK, MC_LANE_DRAWS[-2],
                                         num_aps * (dims.num_users + dims.num_groups)),)])
    for got in runs[1:]:
        for a, b in zip(got[:-2], runs[0][:-2]):
            for field in dataclasses.fields(MonteCarloRateReport):
                assert same_bits(np.ravel(getattr(a, field.name)).view(float),
                                 np.ravel(getattr(b, field.name)).view(float)), field.name
        for draws, ref_draws in zip(got[-2:], runs[0][-2:]):
            for a, b in zip(draws, ref_draws):
                assert same_bits(a.view(float), b.view(float))
