"""The compiled monotone-APG stage (apg_stage.c) against the numpy reference:
per-evaluation parity, oracle stages, the no-compiler fallback, NaN data,
the stage's own clock, and a first build shared by concurrent processes or
threads."""

import ctypes
import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from cellfree_maxmin import (
    ApgConfig,
    BisectionConfig,
    Dimensions,
    LineSearchError,
    PhysicalConfig,
    PowerControl,
    apg_solve,
    apg_solve_continuation,
    bisection_solve,
    build_rate_model,
    build_soc_system,
    epa_rates,
    feasibility_oracle,
    generate_instance,
    kernels,
    native,
    rate_upper_bound,
)
from cellfree_maxmin import solver_apg, solver_bisection
from cellfree_maxmin.solver_apg import compiled_stage, monotone_apg, objective_closures
from cellfree_maxmin.solver_bisection import FEASIBLE, INFEASIBLE, _support_gap
from conftest import make_model, random_feasible_matrix

# group sizes that are no multiple of any lane width (2, 4 or 8 users per
# vector), on 1, 3 and 17 APs: partial vectors, single-user groups, one AP
ODD_SHAPES = [(m, g) for g in ((1,), (3, 5), (1, 30), (7, 9, 2)) for m in (1, 3, 17)]


def shape_id(num_aps, group_sizes):
    return f"M{num_aps}-{'x'.join(map(str, group_sizes))}"


def shaped_model(num_aps, group_sizes, seed):
    dims = Dimensions(num_aps, len(group_sizes), tuple(group_sizes))
    return build_rate_model(generate_instance(dims, PhysicalConfig(), seed=seed))


@pytest.fixture(scope="module")
def lib():
    lib = native.load_library()
    if lib is None:
        pytest.skip("no C compiler: the compiled APG stage cannot be built")
    return lib


@pytest.fixture
def numpy_engine(monkeypatch):
    """Make the loader report "no compiler" so the solvers take the numpy path."""
    monkeypatch.setattr(native, "load_library", lambda: None)
    assert kernels.active_backend() == "numpy"


def compiled_objective(lib, kind, model, mu, sigma, t=0.0, grad=True):
    """(f, aux, grad or None) of one compiled evaluation; grad=False takes the
    value-only path. Checks that the evaluation stays inside the scratch
    length the library reports."""
    gs, asq, ptr = model.gamma_sqrt, model.a_sq, model.group_ptr
    T, M = gs.shape
    mu = np.ascontiguousarray(mu, dtype=float)
    g = np.empty_like(mu) if grad else None
    n = lib.apg_scratch_len(T, mu.shape[0], M)
    scratch = np.full(n + 64, -7.0)  # the tail past n must stay untouched
    aux = ctypes.c_double()
    f = lib.apg_objective(kind, gs.ctypes.data, asq.ctypes.data, ptr.ctypes.data, T,
                          mu.shape[0], M, model.rho_bar, sigma, t, mu.ctypes.data,
                          None if g is None else g.ctypes.data, scratch.ctypes.data, aux)
    assert (scratch[n:] == -7.0).all()
    return f, aux.value, g


def margin_closures(model, t, sigma_f, eps_soc=1e-6, gap_check_every=25):
    """The oracle's value, value_grad and monitor on the numpy kernels."""
    impl = kernels.IMPL
    gs, asq, ptr, rho = model.gamma_sqrt, model.a_sq, model.group_ptr, model.rho_bar

    def value(mat):
        return impl.margin_value(gs, asq, ptr, mat, rho, t, sigma_f)

    def value_grad(mat):
        return impl.margin_value_grad(gs, asq, ptr, mat, rho, t, sigma_f)

    def monitor(x, f, aux, it):
        if aux <= eps_soc:
            return FEASIBLE
        if it % gap_check_every == 0:
            fs, _, grad = value_grad(x)
            if -(fs + _support_gap(grad, x)) > -eps_soc:
                return INFEASIBLE
        return None

    return value, value_grad, monitor


def test_engine_is_compiled_when_the_library_loads(lib):
    assert kernels.active_backend() == "compiled"


def test_lane_width(lib):
    assert lib.apg_lanes() in (2, 4, 8)


@pytest.mark.parametrize("case", [pytest.param((9, (2, 2, 2), seed), id=str(seed))
                                  for seed in range(3)]
                         + [pytest.param((m, g, 3), id=shape_id(m, g)) for m, g in ODD_SHAPES])
def test_per_evaluation_parity(lib, case):
    num_aps, group_sizes, seed = case
    rng = np.random.default_rng(seed)
    model = shaped_model(num_aps, group_sizes, seed)
    impl = kernels.IMPL
    args = (model.gamma_sqrt, model.a_sq, model.group_ptr)
    for _ in range(10):
        mat = random_feasible_matrix(model, rng)
        sigma = float(rng.uniform(10.0, 2000.0))
        t = float(rng.uniform(0.05, 1.5))
        cases = [
            (native.RATE, sigma, 0.0,
             impl.soft_min_value(*args, mat, model.rho_bar, sigma),
             impl.soft_min_value_grad(*args, mat, model.rho_bar, sigma)),
            (native.MARGIN, sigma, t,
             impl.margin_value(*args, mat, model.rho_bar, t, sigma),
             impl.margin_value_grad(*args, mat, model.rho_bar, t, sigma)),
        ]
        for kind, sg, level, ref_v, ref_vg in cases:
            f, aux, _ = compiled_objective(lib, kind, model, mat, sg, level, grad=False)
            assert f == pytest.approx(ref_v[0], rel=1e-12, abs=1e-15)
            assert aux == pytest.approx(ref_v[1], rel=1e-12, abs=1e-15)
            f, aux, g = compiled_objective(lib, kind, model, mat, sg, level)
            assert f == pytest.approx(ref_vg[0], rel=1e-12, abs=1e-15)
            assert aux == pytest.approx(ref_vg[1], rel=1e-12, abs=1e-15)
            np.testing.assert_allclose(g, ref_vg[2], rtol=1e-12,
                                       atol=1e-12 * np.abs(ref_vg[2]).max())


# (num_aps, group_sizes, seed, gap_check_every); the odd shapes check the
# certificate every 10 iterations, before the plateau stop (window 20) can end
# a stage that converged at once, as the single-user single-AP one does
@pytest.mark.parametrize("case", [pytest.param((10, (3, 3), seed, 25), id=str(seed))
                                  for seed in range(4)]
                         + [pytest.param((m, g, 0, 10), id=shape_id(m, g)) for m, g in ODD_SHAPES])
@pytest.mark.parametrize("level", ["below_optimum", "above_optimum", "above_bound"])
def test_margin_stage_matches_monotone_apg(lib, case, level):
    """Same status, iteration count and iterate as the numpy stage. Runs that
    hover at the feasibility boundary for hundreds of iterations amplify the
    last-bit differences of the dot products until the trajectories part; the
    levels here end by a status well before that."""
    num_aps, group_sizes, seed, gap_check_every = case
    model = shaped_model(num_aps, group_sizes, seed)
    optimum = apg_solve_continuation(model, (100.0, 1000.0))[-1].min_rate
    t = {"below_optimum": optimum - min(0.003, optimum / 10),  # t >= 0 on tiny optima
         "above_optimum": optimum + 0.02,
         "above_bound": rate_upper_bound(model) + 0.1}[level]
    sigma_f = 3000.0
    x0 = random_feasible_matrix(model, np.random.default_rng(seed))
    cfg = ApgConfig(max_iters=300, stop_tol=1e-9, stop_window=20)
    value, value_grad, monitor = margin_closures(model, t, sigma_f,
                                                 gap_check_every=gap_check_every)
    ref = monotone_apg(value_grad, value, kernels.IMPL.project_ball_orthant, x0, cfg,
                       monitor=monitor)
    got = compiled_stage(lib, native.MARGIN, model, x0, cfg, sigma_f, t=t,
                         eps_soc=1e-6, gap_check_every=gap_check_every)
    assert got.termination == ref.termination
    assert got.termination == (FEASIBLE if level == "below_optimum" else INFEASIBLE)
    assert got.iterations == ref.iterations
    np.testing.assert_allclose(got.x, ref.x, rtol=0, atol=1e-10)
    assert got.aux == pytest.approx(ref.aux, rel=1e-10, abs=1e-12)
    if got.termination == INFEASIBLE:
        assert got.certified_bound > -1e-6


@pytest.mark.parametrize("overrides", [
    {},
    # extrapolated steps too long for the capped search: every one is rejected
    {"alpha_y0": 1e6, "line_search_cap": 5},
])
def test_rate_stage_trace_and_clock(lib, small_model, overrides):
    cfg = ApgConfig(max_iters=50, stop_tol=0.0, stop_window=1000, **overrides)
    mat0 = PowerControl.epa(small_model.num_aps, small_model.num_groups).by_group
    ref = monotone_apg(*objective_closures(small_model, 100.0), mat0, cfg)
    ticks = iter(range(1000))
    got = compiled_stage(lib, native.RATE, small_model, mat0, cfg, 100.0,
                         clock=lambda: float(next(ticks)))
    np.testing.assert_allclose(got.trace_f, ref.trace_f, rtol=1e-12)
    np.testing.assert_allclose(got.trace_alpha_y, ref.trace_alpha_y, rtol=1e-12)
    np.testing.assert_allclose(got.trace_alpha_mu, ref.trace_alpha_mu, rtol=1e-12)
    np.testing.assert_array_equal(got.trace_bt_y, ref.trace_bt_y)
    np.testing.assert_array_equal(got.trace_bt_mu, ref.trace_bt_mu)
    assert got.extrapolation_rejections == ref.extrapolation_rejections
    assert (got.extrapolation_rejections == 50) == bool(overrides)
    # one clock call to start, then one per trace entry
    np.testing.assert_array_equal(got.trace_elapsed, np.arange(1, 52, dtype=float))


class TestNumpyFallback:
    def test_apg_solve(self, small_model, numpy_engine):
        """The fallback stage is monotone_apg over objective_closures: the
        report carries its result and every trace unchanged, on a fixed
        iteration count, a plateau stop and all-rejected extrapolations."""
        closures = objective_closures(small_model, 100.0)
        mat0 = PowerControl.epa(small_model.num_aps, small_model.num_groups).by_group
        for overrides in ({"max_iters": 200, "stop_tol": 0.0, "stop_window": 10_000}, {},
                          {"alpha_y0": 1e6, "line_search_cap": 5}):
            cfg = ApgConfig(**overrides)
            ref = monotone_apg(*closures, mat0, cfg)
            rep = apg_solve(small_model, cfg=cfg)
            assert (rep.f_sigma, rep.min_rate) == (ref.f, ref.aux)
            assert (rep.termination, rep.iterations) == (ref.termination, ref.iterations)
            assert rep.extrapolation_rejections == ref.extrapolation_rejections
            np.testing.assert_array_equal(rep.power.by_group, ref.x)
            for got, want in ((rep.trace_f_sigma, ref.trace_f), (rep.trace_f_true, ref.trace_aux),
                              (rep.trace_alpha_y, ref.trace_alpha_y),
                              (rep.trace_alpha_mu, ref.trace_alpha_mu),
                              (rep.trace_bt_y, ref.trace_bt_y),
                              (rep.trace_bt_mu, ref.trace_bt_mu)):
                assert len(got) == ref.iterations + 1
                np.testing.assert_array_equal(got, want)
        assert ref.extrapolation_rejections == ref.iterations > 0  # the last config

    def test_feasibility_oracle(self, numpy_engine):
        system = build_soc_system(make_model(10, 2, 2, seed=5))
        model = system.model
        cfg = BisectionConfig(oracle_iter_cap=400)
        feasible = feasibility_oracle(system, epa_rates(model).min_rate, cfg=cfg)
        assert feasible.status == FEASIBLE and feasible.max_residual <= 1e-6
        infeasible = feasibility_oracle(system, rate_upper_bound(model) + 0.1, cfg=cfg)
        assert infeasible.status == INFEASIBLE
        assert infeasible.certified_lower_bound > -1e-6

    def test_oracle_engines_agree(self, lib, monkeypatch):
        """Whole oracle calls (sharpness continuation, several stages) just
        below and above the optimum. Like single stages, calls that run for
        hundreds of iterations near the boundary can part at rounding level
        (seed 6 of this shape does); these end by a status first."""
        system = build_soc_system(make_model(10, 2, 2, seed=5))
        optimum = apg_solve_continuation(system.model, (100.0, 1000.0))[-1].min_rate
        levels = [optimum - 5e-4, optimum + 5e-4]
        compiled = [feasibility_oracle(system, t) for t in levels]
        monkeypatch.setattr(native, "load_library", lambda: None)
        reference = [feasibility_oracle(system, t) for t in levels]
        assert [r.status for r in reference] == [FEASIBLE, INFEASIBLE]
        for got, ref in zip(compiled, reference):
            assert (got.status, got.iterations) == (ref.status, ref.iterations)
            np.testing.assert_allclose(got.last_iterate, ref.last_iterate, rtol=0, atol=1e-10)


def nan_model():
    model = make_model(6, 2, 2, seed=3)
    gs = model.gamma_sqrt.copy()
    gs[1, 2] = math.nan
    return dataclasses.replace(model, gamma_sqrt=gs)


class TestNanData:
    def test_apg_solve_compiled(self, lib):
        with pytest.raises(LineSearchError):
            apg_solve(nan_model())

    def test_apg_solve_numpy(self, numpy_engine):
        with pytest.raises(LineSearchError):
            apg_solve(nan_model())

    def test_oracle_names_nan_compiled(self, lib):
        with pytest.raises(ValueError, match="non-finite oracle data \\(gamma_sqrt\\)"):
            feasibility_oracle(build_soc_system(nan_model()), 0.3)

    def test_oracle_names_nan_numpy(self, numpy_engine):
        with pytest.raises(ValueError, match="non-finite oracle data \\(gamma_sqrt\\)"):
            feasibility_oracle(build_soc_system(nan_model()), 0.3)

    def test_margin_stage_both_engines(self, lib):
        model = nan_model()
        x0 = PowerControl.epa(model.num_aps, model.num_groups).by_group
        cfg = ApgConfig(max_iters=5)
        value, value_grad, monitor = margin_closures(model, 0.3, 100.0)
        with pytest.raises(LineSearchError):
            monotone_apg(value_grad, value, kernels.IMPL.project_ball_orthant, x0, cfg,
                         monitor=monitor)
        with pytest.raises(LineSearchError):
            compiled_stage(lib, native.MARGIN, model, x0, cfg, 100.0, t=0.3, eps_soc=1e-6,
                           gap_check_every=25)


class TestStalledStage:
    """At M=4 and M=5, 2x15, seed 1, a margin stage's plain-branch step
    underflows until its trial is the iterate itself, which value and
    value_grad round 1 ulp apart: the stage ends "stalled" instead of raising
    LineSearchError, and bisection goes on."""

    @staticmethod
    def check(num_aps, monkeypatch, stage_name):
        stage = getattr(solver_bisection, stage_name)
        terminations = []

        def recording_stage(*args, **kwargs):
            result = stage(*args, **kwargs)
            terminations.append(result.termination)
            return result

        monkeypatch.setattr(solver_bisection, stage_name, recording_stage)
        model = shaped_model(num_aps, (15, 15), seed=1)
        cfg = BisectionConfig()
        report = bisection_solve(build_soc_system(model), cfg)
        apg = apg_solve_continuation(model, (100.0, 1000.0))[-1]
        assert "stalled" in terminations
        assert abs(report.t_star - apg.min_rate) <= cfg.tol_t

    @pytest.mark.parametrize("num_aps", [4, 5])
    def test_compiled(self, lib, monkeypatch, num_aps):
        self.check(num_aps, monkeypatch, "compiled_stage")

    @pytest.mark.parametrize("num_aps", [4, 5])
    def test_numpy(self, numpy_engine, monkeypatch, num_aps):
        self.check(num_aps, monkeypatch, "monotone_apg")


def test_library_path_keys_on_host_cpu(monkeypatch):
    """The library is built for the host CPU, so another CPU behind the same
    cache directory gets another file; the same CPU always the same one."""
    def path_on(cpu):
        monkeypatch.setattr(native, "_host_cpu", lambda: cpu)
        return native._library_path(sys.executable)  # any existing file as compiler

    avx2 = path_on("fpu sse2 avx avx2")
    assert path_on("fpu sse2 avx avx2 avx512f") != avx2
    assert path_on("fpu sse2 avx avx2") == avx2
    monkeypatch.undo()
    assert native._host_cpu()


def test_failed_build_prints_nothing(tmp_path, monkeypatch, capfd):
    if not any(map(native.shutil.which, native.COMPILERS)):
        pytest.skip("no C compiler")
    bad = tmp_path / "bad.c"
    bad.write_text("this is not C\n")
    monkeypatch.setattr(native, "SOURCE", str(bad))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    assert native.load_library.__wrapped__() is None
    out, err = capfd.readouterr()
    assert out == "" and err == ""
    assert os.listdir(tmp_path / "cache" / "cellfree_maxmin") == []


def test_concurrent_first_build(lib, tmp_path):
    """Fresh processes sharing an empty cache, one of them running its cdf
    trials on two threads, all build or load the library, and the CLI they
    run prints nothing."""
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "cache"))
    cdf_cfg = tmp_path / "cdf.json"
    cdf_cfg.write_text(json.dumps({"num_aps": 6, "group_sizes": [2, 2], "trials": 4,
                                   "workers": 2, "apg": {"max_iters": 300}}))
    commands = [["single-solve", "--seed", "2"], ["single-solve", "--seed", "2"],
                ["cdf", "--config", str(cdf_cfg)]]
    procs = [
        subprocess.Popen([sys.executable, "-m", "cellfree_maxmin.cli", *cmd,
                          "--out", str(tmp_path / f"run{i}")],
                         env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for i, cmd in enumerate(commands)
    ]
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        assert out == "" and err == ""
    assert [p.suffix for p in (tmp_path / "cache" / "cellfree_maxmin").iterdir()] == [".so"]
    rates = [(tmp_path / f"run{i}" / "solution_rates.csv").read_bytes() for i in range(2)]
    assert rates[0] == rates[1]
    assert (tmp_path / "run2" / "trial_minrates.csv").exists()


def test_threads_build_once(lib, tmp_path, monkeypatch):
    """Threads that load the library together for the first time build it
    once; the others load the file the first one built."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    real_build, builds = native._build, []

    def counting_build(compiler, target):
        builds.append(target)
        time.sleep(0.2)  # keep the other threads waiting at the cache miss
        return real_build(compiler, target)

    monkeypatch.setattr(native, "_build", counting_build)
    barrier = threading.Barrier(4)
    loaded = []

    def load():
        barrier.wait(timeout=30)
        loaded.append(native.load_library())

    native.load_library.cache_clear()
    try:
        threads = [threading.Thread(target=load) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        native.load_library.cache_clear()  # later tests load the default cache's file
    assert len(builds) == 1
    assert len(loaded) == 4 and all(got is not None for got in loaded)


def test_stage_clock(lib, monkeypatch):
    """Without an injected clock the compiled stage times itself with the C
    clock, called without entering Python; an injected clock is called as
    before."""
    lib = native.load_library()
    assert abs(lib.apg_clock() - time.monotonic()) < 0.05
    seen = []
    real_stage = solver_apg.compiled_stage

    def spy(*args, clock=None, **kwargs):
        seen.append(clock)
        return real_stage(*args, clock=clock, **kwargs)

    monkeypatch.setattr(solver_apg, "compiled_stage", spy)
    model = make_model(num_aps=10, users_per_group=3, seed=2)
    cfg = ApgConfig(max_iters=200)
    own = apg_solve(model, cfg=cfg)
    calls = []

    def injected():
        calls.append(None)
        return 0.0

    fake = apg_solve(model, cfg=cfg, clock=injected)
    assert seen == [lib.apg_clock, injected]
    # inside the stage one call per iterate; around it, apg_solve's start and
    # end and compiled_stage's start
    assert len(calls) == (own.iterations + 1) + 3
    assert np.array_equal(own.power.mu, fake.power.mu)
    assert np.array_equal(own.trace_f_sigma, fake.trace_f_sigma)
    elapsed = own.trace_elapsed_s
    assert elapsed[0] >= 0.0 and (np.diff(elapsed) >= 0.0).all() and elapsed[-1] > 0.0
    assert own.wall_time_s >= elapsed[-1]
    assert not fake.trace_elapsed_s.any() and fake.wall_time_s == 0.0
