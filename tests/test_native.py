"""The compiled monotone-APG stages (apg_chain in apg_stage.c) against the
numpy reference: per-evaluation parity, oracle stages, NaN data, the
stage's own clock, the guards of compiled_chain, the loader's errors, and a
first build shared by concurrent processes or threads."""

import ctypes
import dataclasses
import functools
import inspect
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellfree_maxmin import (
    ApgConfig,
    BisectionConfig,
    Dimensions,
    LineSearchError,
    PhysicalConfig,
    RateModel,
    apg_solve,
    apg_solve_continuation,
    bisection_solve,
    build_rate_model,
    epa_power,
    epa_rates,
    feasibility_oracle,
    generate_instance,
    kernels,
    native,
    rate_oracle_monte_carlo,
    rate_upper_bound,
)
from cellfree_maxmin import solver_apg, solver_bisection
from cellfree_maxmin.netgen import SMALLSCALE_BLOCK, iter_smallscale_blocks
from cellfree_maxmin.solver_apg import compiled_chain, monotone_apg
from cellfree_maxmin.solver_bisection import EPS_SOC, FEASIBLE, INFEASIBLE, _support_gap
from conftest import kernel_args, make_model, random_feasible_matrix

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
    return native.load_library()


def one_stage(lib, kind, model, x0, cfg, sigma, **kwargs):
    """The SolveReport of a compiled_chain of one stage at sharpness `sigma`
    with cfg's budget and plateau tolerance."""
    return compiled_chain(lib, kind, model, x0, (sigma,), (cfg.stop_tol,), cfg.max_iters,
                          **kwargs)[0]


def compiled_objective(lib, kind, model, mu, sigma, t=0.0, grad=True):
    """(f, aux, grad or None) of one compiled evaluation; grad=False takes the
    value-only path."""
    gs, asq, ptr = model.gamma_sqrt, model.a_sq, model.group_ptr
    T, M = gs.shape
    mu = np.ascontiguousarray(mu, dtype=float)
    g = np.empty_like(mu) if grad else None
    aux = ctypes.c_double()
    f = lib.apg_objective(kind, gs.ctypes.data, asq.ctypes.data, ptr.ctypes.data, T,
                          mu.shape[0], M, model.rho_bar, sigma, t, mu.ctypes.data,
                          None if g is None else g.ctypes.data, aux)
    return f, aux.value, g


def objective_closures(model, sigma):
    """(value_grad, value, project) of the rate objective at `sigma` on the
    numpy kernels (read from kernels.IMPL here), in monotone_apg's argument
    order; the value functions return (f_sigma, true min-rate[, grad])."""
    impl = kernels.IMPL
    gs, asq, ptr, rho = model.gamma_sqrt, model.a_sq, model.group_ptr, model.rho_bar

    def value(mat):
        return impl.soft_min_value(gs, asq, ptr, mat, rho, sigma)

    def value_grad(mat):
        return impl.soft_min_value_grad(gs, asq, ptr, mat, rho, sigma)

    return value_grad, value, impl.project_ball_orthant


def margin_closures(model, t, sigma_f, eps_soc=1e-6, gap_check_every=25):
    """The oracle's value, value_grad and monitor on the numpy kernels."""
    impl = kernels.IMPL
    gs, asq, ptr, rho = model.gamma_sqrt, model.a_sq, model.group_ptr, model.rho_bar

    def value(mat):
        return impl.margin_value(gs, asq, ptr, mat, rho, t, sigma_f)

    def value_grad(mat):
        return impl.margin_value_grad(gs, asq, ptr, mat, rho, t, sigma_f)

    def monitor(x, f, aux, it):
        if aux >= -eps_soc:
            return FEASIBLE
        if it % gap_check_every == 0:
            fs, _, grad = value_grad(x)
            if -(fs + _support_gap(grad, x)) > -eps_soc:
                return INFEASIBLE
        return None

    return value, value_grad, monitor


def test_lane_width(lib):
    assert lib.apg_lanes() in (2, 4, 8)


# APs on both sides of the gradient's register blocks of 4 vectors (16 or 32
# entries, or 8 on a 2-lane build), with a single-user group
BLOCK_EDGE_SHAPES = [(m, (1, 6, 3)) for m in (1, 7, 31, 32, 33, 63, 100)]


@pytest.mark.parametrize("case", [pytest.param((9, (2, 2, 2), seed), id=str(seed))
                                  for seed in range(3)]
                         + [pytest.param((m, g, 3), id=shape_id(m, g))
                            for m, g in ODD_SHAPES + BLOCK_EDGE_SHAPES])
def test_per_evaluation_parity(lib, case):
    """Both objectives' value and value+gradient paths against the numpy
    reference: the margin bit for bit, the rate within 1e-12 relative."""
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
            if kind == native.MARGIN:
                got = compiled_objective(lib, kind, model, mat, sg, level, grad=False)
                assert np.array(got[:2]).tobytes() == np.array(ref_v).tobytes()
                got = compiled_objective(lib, kind, model, mat, sg, level)
                assert np.array(got[:2]).tobytes() == np.array(ref_vg[:2]).tobytes()
                assert got[2].tobytes() == ref_vg[2].tobytes()
                continue
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
MARGIN_CASES = ([pytest.param((10, (3, 3), seed, 25), id=str(seed)) for seed in range(4)]
                + [pytest.param((m, g, 0, 10), id=shape_id(m, g)) for m, g in ODD_SHAPES])
LEVELS = ["below_optimum", "above_optimum", "above_bound"]


def margin_level(model, level):
    """Oracle level t just below the APG optimum, above it, or above the
    zero-interference bound."""
    optimum = apg_solve_continuation(model, (100.0, 1000.0))[-1].f_true
    return {"below_optimum": optimum - min(0.003, optimum / 10),  # t >= 0 on tiny optima
            "above_optimum": optimum + 0.02,
            "above_bound": rate_upper_bound(model) + 0.1}[level]


@pytest.mark.parametrize("case", MARGIN_CASES)
@pytest.mark.parametrize("level", LEVELS)
def test_margin_stage_matches_monotone_apg(lib, case, level):
    """Same status, iteration count, iterate, min cone margin and f_sigma
    trace as the numpy stage, bit for bit: both evaluate every margin by the
    same formula, summed in the same order."""
    num_aps, group_sizes, seed, gap_check_every = case
    model = shaped_model(num_aps, group_sizes, seed)
    t = margin_level(model, level)
    sigma_f = 3000.0
    x0 = random_feasible_matrix(model, np.random.default_rng(seed))
    cfg = ApgConfig(max_iters=300, stop_tol=1e-9)
    value, value_grad, monitor = margin_closures(model, t, sigma_f,
                                                 gap_check_every=gap_check_every)
    ref = monotone_apg(value_grad, value, kernels.IMPL.project_ball_orthant, x0, cfg,
                       monitor=monitor)
    got = one_stage(lib, native.MARGIN, model, x0, cfg, sigma_f, t=t,
                    eps_soc=1e-6, gap_check_every=gap_check_every)
    assert got.termination == ref.termination
    assert got.termination == (FEASIBLE if level == "below_optimum" else INFEASIBLE)
    assert got.iterations == ref.iterations
    assert got.power.tobytes() == ref.power.tobytes()
    assert np.float64(got.f_true).tobytes() == np.float64(ref.f_true).tobytes()
    assert got.trace_f_sigma.tobytes() == np.array(ref.trace_f_sigma).tobytes()
    # f_true is the min cone margin: minus the max residual at the last iterate,
    # whose soc_residuals take BLAS dot products
    residuals = kernels.IMPL.soc_residuals(*kernel_args(model, got.power), t)
    assert got.f_true == pytest.approx(-residuals.max(), rel=1e-12, abs=1e-15)
    if got.termination == FEASIBLE:
        assert got.f_true >= -EPS_SOC
    if got.termination == INFEASIBLE:
        assert got.certified_bound > -1e-6


@pytest.mark.xfail(strict=True, reason="a sigma_f=3000 margin stage plateaus at a max "
                   "residual near 5.9e-6 at a level below this instance's optimum")
def test_margin_stage_certifies_a_level_below_a_tiny_optimum(lib):
    """The below_optimum case of M1-7x9x2 at 0.9 x 1.339e-9 nats, the APG
    min-rate that a variant of the step policy reaches, instead of
    0.9 x 2.89e-10: same start point, ApgConfig and sigma_f as
    test_margin_stage_matches_monotone_apg."""
    model = shaped_model(1, (7, 9, 2), 0)
    x0 = random_feasible_matrix(model, np.random.default_rng(0))
    cfg = ApgConfig(max_iters=300, stop_tol=1e-9)
    got = one_stage(lib, native.MARGIN, model, x0, cfg, 3000.0, t=1.205e-9,
                    eps_soc=1e-6, gap_check_every=10)
    assert got.termination == FEASIBLE


@pytest.mark.parametrize("overrides", [
    {},
    # extrapolated steps too long for the capped search: every one is rejected
    {"ALPHA_Y0": 1e6, "LINE_SEARCH_CAP": 5},
])
def test_rate_stage_trace_and_clock(lib, small_model, monkeypatch, overrides):
    for name, value in overrides.items():
        monkeypatch.setattr(solver_apg, name, value)
    cfg = ApgConfig(max_iters=50, stop_tol=0.0)
    mat0 = epa_power(small_model.num_aps, small_model.num_groups)
    ref = monotone_apg(*objective_closures(small_model, 100.0), mat0, cfg)
    got = one_stage(lib, native.RATE, small_model, mat0, cfg, 100.0)
    np.testing.assert_allclose(got.trace_f_sigma, ref.trace_f_sigma, rtol=1e-12)
    np.testing.assert_allclose(got.trace_alpha_y, ref.trace_alpha_y, rtol=1e-12)
    np.testing.assert_allclose(got.trace_alpha_mu, ref.trace_alpha_mu, rtol=1e-12)
    np.testing.assert_array_equal(got.trace_bt_y, ref.trace_bt_y)
    np.testing.assert_array_equal(got.trace_bt_mu, ref.trace_bt_mu)
    assert got.extrapolation_rejections == ref.extrapolation_rejections
    assert (got.extrapolation_rejections == 50) == bool(overrides)
    # one C-clock stamp per trace entry, measured from before the stage
    elapsed = got.trace_elapsed_s
    assert elapsed.shape == (51,) and elapsed[0] >= 0.0 and (np.diff(elapsed) >= 0.0).all()


# the rate stage of test_rate_stage_trace_and_clock, and the same stage with
# every extrapolation rejected (solver_apg step-policy constants patched)
RATE_CASES = [pytest.param(("rate", ()), id="rate"),
              pytest.param(("rate", (("ALPHA_Y0", 1e6), ("LINE_SEARCH_CAP", 5))),
                           id="rate-rejected")]
STEP_POLICY_CASES = RATE_CASES + [
    pytest.param(("margin", case.values[0], level), id=f"{level}-{case.id}")
    for case in MARGIN_CASES for level in LEVELS]


@functools.lru_cache(maxsize=None)
def recorded_runs(case):
    """(compiled stage, monotone_apg result, status of each reference step,
    objective calls of the reference run, those made by its monitor) of one
    rate or margin parity case. Every objective call goes through the
    kernels, which are swapped for counting ones while the reference runs.
    A rate case's step-policy constants hold for both runs."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in case[1] if case[0] == "rate" else ():
            mp.setattr(solver_apg, name, value)
        return _record_runs(case)


def _record_runs(case):
    lib = native.load_library()
    if case[0] == "rate":
        model = shaped_model(12, (3, 3), 42)
        x0 = epa_power(model.num_aps, model.num_groups)
        cfg = ApgConfig(max_iters=50, stop_tol=0.0)
        got = one_stage(lib, native.RATE, model, x0, cfg, 100.0)

        def closures():
            value_grad, value, _ = objective_closures(model, 100.0)
            return value, value_grad, None
    else:
        (num_aps, group_sizes, seed, gap_check_every), level = case[1:]
        model = shaped_model(num_aps, group_sizes, seed)
        t = margin_level(model, level)
        x0 = random_feasible_matrix(model, np.random.default_rng(seed))
        cfg = ApgConfig(max_iters=300, stop_tol=1e-9)
        got = one_stage(lib, native.MARGIN, model, x0, cfg, 3000.0, t=t, eps_soc=1e-6,
                        gap_check_every=gap_check_every)

        def closures():
            return margin_closures(model, t, 3000.0, gap_check_every=gap_check_every)

    impl, calls, monitor_calls, statuses = kernels.IMPL, [0], [0], []

    def counted(fn):
        def call(*args):
            calls[0] += 1
            return fn(*args)
        return call

    def recording_step(*args):
        step = impl.rate_apg_step(*args)
        statuses.append(step.status)
        return step

    kernels.IMPL = impl._replace(
        rate_apg_step=recording_step,
        **{name: counted(getattr(impl, name)) for name in (
            "soft_min_value", "soft_min_value_grad", "margin_value", "margin_value_grad")})
    try:
        value, value_grad, monitor = closures()

        def counted_monitor(*args):
            before = calls[0]
            reason = monitor(*args)
            monitor_calls[0] += calls[0] - before
            return reason

        ref = monotone_apg(value_grad, value, impl.project_ball_orthant, x0, cfg,
                           monitor=counted_monitor if monitor else None)
    finally:
        kernels.IMPL = impl
    return got, ref, statuses[:ref.iterations], calls[0], monitor_calls[0]


@pytest.mark.parametrize("case", STEP_POLICY_CASES)
def test_stage_counters_match_monotone_apg(case):
    """The compiled stage counts the objective calls the reference makes,
    the oracle's certificate checks included, and the same skipped plain
    branches and rejected extrapolations."""
    got, ref, statuses, calls, monitor_calls = recorded_runs(case)
    assert got.evaluations == calls
    assert ref.evaluations == calls - monitor_calls
    assert got.plain_skips == ref.plain_skips == statuses.count("skipped")
    assert got.extrapolation_rejections == statuses.count("rejected")
    if case[0] == "rate":
        # an accepted extrapolation that gains enough skips the plain branch
        assert (got.plain_skips > 0) == (not case[1])


@pytest.mark.parametrize("case", STEP_POLICY_CASES)
def test_skipped_iterations_keep_the_plain_step(case):
    """A skipped plain branch runs no search and keeps its step."""
    got, ref, statuses, _, _ = recorded_runs(case)
    np.testing.assert_array_equal(got.trace_bt_mu, ref.trace_bt_mu)
    for it, status in enumerate(statuses, start=1):
        if status == "skipped":
            assert got.trace_bt_mu[it] == 0
            assert got.trace_alpha_mu[it] == got.trace_alpha_mu[it - 1]


@pytest.mark.parametrize("case", STEP_POLICY_CASES)
def test_steps_grow_only_after_first_try_runs(case):
    """A branch's step rises above its previous value only after its last
    STEP_GROW_AFTER searches all accepted their first trial, or at its first
    search of the stage; it does rise when, after such a run, the search
    accepts its first trial again."""
    got, ref, statuses, _, _ = recorded_runs(case)
    np.testing.assert_array_equal(got.trace_bt_y, ref.trace_bt_y)
    np.testing.assert_array_equal(got.trace_bt_mu, ref.trace_bt_mu)
    branches = [(got.trace_alpha_y, got.trace_bt_y, lambda s: True, lambda s: s != "rejected"),
                (got.trace_alpha_mu, got.trace_bt_mu, lambda s: s != "skipped", lambda s: True)]
    for alpha, bt, searched, accepted in branches:
        run = solver_apg.STEP_GROW_AFTER
        for it, status in enumerate(statuses, start=1):
            rose = alpha[it] > alpha[it - 1]
            if not searched(status):
                assert not rose
                continue
            first_try = accepted(status) and bt[it] == 0
            full = run >= solver_apg.STEP_GROW_AFTER
            # a grown step that backtracks once may land an ulp above the old one
            assert full or not rose
            assert rose or not (full and first_try)
            run = run + 1 if first_try else 0


def nan_model():
    model = make_model(6, 2, 2, seed=3)
    gs = model.gamma_sqrt.copy()
    gs[1, 2] = math.nan
    return dataclasses.replace(model, gamma_sqrt=gs)


class TestNanData:
    def test_apg_solve_compiled(self, lib):
        with pytest.raises(LineSearchError):
            apg_solve(nan_model())

    def test_oracle_names_nan_compiled(self, lib):
        with pytest.raises(ValueError, match="non-finite oracle data \\(gamma_sqrt\\)"):
            feasibility_oracle(nan_model(), 0.3)

    def test_margin_stage_both_engines(self, lib):
        model = nan_model()
        x0 = epa_power(model.num_aps, model.num_groups)
        cfg = ApgConfig(max_iters=5)
        value, value_grad, monitor = margin_closures(model, 0.3, 100.0)
        with pytest.raises(LineSearchError):
            monotone_apg(value_grad, value, kernels.IMPL.project_ball_orthant, x0, cfg,
                         monitor=monitor)
        with pytest.raises(LineSearchError):
            one_stage(lib, native.MARGIN, model, x0, cfg, 100.0, t=0.3, eps_soc=1e-6,
                      gap_check_every=25)


class TestUnderflowedStep:
    """At M=4 and M=5, 2x15, seed 1, margin stages' plain-branch steps
    underflow until the trial is the iterate itself. value and value_grad
    round alike, so that trial passes its test: bisection ends, every stage
    with a reason of STOP_REASONS, at APG's optimum."""

    @pytest.mark.parametrize("num_aps", [4, 5])
    def test_compiled(self, lib, monkeypatch, num_aps):
        oracle = solver_bisection.feasibility_oracle
        terminations = []

        def recording_oracle(*args, **kwargs):
            result = oracle(*args, **kwargs)
            terminations.extend(result.stages)
            return result

        monkeypatch.setattr(solver_bisection, "feasibility_oracle", recording_oracle)
        model = shaped_model(num_aps, (15, 15), seed=1)
        cfg = BisectionConfig()
        report = bisection_solve(model, cfg)
        apg = apg_solve_continuation(model, (100.0, 1000.0))[-1]
        assert terminations and set(terminations) <= set(native.STOP_REASONS.values())
        assert abs(report.t_star - apg.f_true) <= cfg.tol_t


# random feasible points on shapes with partial vectors, among them the two
# where margin steps underflow (4, 2x15) and the tiny optima of (1, 7x9x2)
INVARIANT_SHAPES = [(9, (2, 2, 2)), (4, (15, 15)), (1, (7, 9, 2)), (17, (3, 5))]


@pytest.mark.parametrize("shape", INVARIANT_SHAPES, ids=lambda s: shape_id(*s))
def test_value_path_equals_value_grad_path(lib, shape):
    """Each objective's value path returns the (f, aux) of its value+gradient
    path bit for bit, in both engines: a search compares a trial's value
    with value_grad's f at its start, so a zero step must tie."""
    model = shaped_model(*shape, seed=1)
    rng = np.random.default_rng(11)
    impl = kernels.IMPL
    for _ in range(10):
        mat = random_feasible_matrix(model, rng)
        args = kernel_args(model, mat)
        sigma = float(rng.uniform(10.0, 2000.0))
        t = float(rng.uniform(0.05, 1.5))
        pairs = [(impl.soft_min_value(*args, sigma), impl.soft_min_value_grad(*args, sigma)),
                 (impl.margin_value(*args, t, sigma), impl.margin_value_grad(*args, t, sigma))]
        pairs += [(compiled_objective(lib, kind, model, mat, sigma, level, grad=False),
                   compiled_objective(lib, kind, model, mat, sigma, level))
                  for kind, level in ((native.RATE, 0.0), (native.MARGIN, t))]
        for value, value_grad in pairs:
            assert np.array(value[:2]).tobytes() == np.array(value_grad[:2]).tobytes()


CANARY = -7.25


@pytest.mark.parametrize("shape", [(1, (1,)), (17, (7, 9, 2)), (40, (1, 6))],
                         ids=lambda s: shape_id(*s))
def test_chain_writes_only_its_traces(lib, shape):
    """apg_chain (a one-stage rate chain and a three-stage margin chain)
    writes the first iterations + 1 entries of each trace row of its last
    stage and nothing else of the buffer around them: the rest of every row,
    and 8 doubles on each side of the traces, keep their canary."""
    model = shaped_model(*shape, seed=1)
    gs, asq, ptr = model.gamma_sqrt, model.a_sq, model.group_ptr
    (T, M), N = gs.shape, model.num_groups
    mat = random_feasible_matrix(model, np.random.default_rng(5))
    t = 1.5 * epa_rates(model).min_rate
    for kind, level, sigmas, tols, cap in ((native.RATE, 0.0, (100.0,), (0.0,), 60),
                                           (native.MARGIN, t, (30.0, 300.0, 3000.0),
                                            (1e-4, 1e-6, 1e-8), 150)):
        S, x = len(sigmas), np.array(mat)
        whole = np.full(7 * (cap + 1) + 16, CANARY)
        traces, out = whole[8:-8].reshape(7, cap + 1), native.StageResult()
        lib.apg_chain(kind, gs.ctypes.data, asq.ctypes.data, ptr.ctypes.data, T, N, M,
                      model.rho_bar, level, S, (ctypes.c_double * S)(*sigmas),
                      (ctypes.c_double * S)(*tols), solver_apg.stage_config(cap, 1e-6, 10),
                      x.ctypes.data, traces.ctypes.data, (ctypes.c_int64 * S)(), out)
        k = out.iterations + 1
        assert (whole[:8] == CANARY).all() and (whole[-8:] == CANARY).all()
        assert (traces[:, k:] == CANARY).all() and not (traces[:, :k] == CANARY).any()


def test_package_data_ships_every_build_file():
    """An installed package builds its library from native.SOURCES and
    native.HEADERS on first use, so pyproject.toml's package data names
    each of them."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        shipped = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["cellfree_maxmin"]
    needed = {os.path.basename(path) for path in native.SOURCES + native.HEADERS}
    assert needed - set(shipped) == set()


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


def test_library_path_keys_on_header(tmp_path, monkeypatch):
    """The sources include simd.h, so an edited header gets another file
    instead of a stale library."""
    original = native._library_path(sys.executable)  # any existing file as compiler
    header = tmp_path / "simd.h"
    header.write_bytes(pathlib.Path(native.HEADERS[0]).read_bytes())
    monkeypatch.setattr(native, "HEADERS", (str(header),))
    assert native._library_path(sys.executable) == original
    header.write_text(header.read_text().replace("#define LANES 2", "#define LANES 1"))
    assert native._library_path(sys.executable) != original


def test_sources_build_without_warnings(tmp_path):
    """The library's sources compile cleanly under -Wall -Wextra with the
    build's own flags (into a private file, not the shared cache)."""
    compiler = next(filter(None, map(native.shutil.which, native.COMPILERS)))
    proc = subprocess.run([compiler, *native.CFLAGS, "-Wall", "-Wextra", "-Werror",
                           "-o", str(tmp_path / "lib.so"), *native.SOURCES, "-lm"],
                          stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=native.BUILD_TIMEOUT_S)
    assert proc.returncode == 0, proc.stderr


# a RATE stage and MARGIN stages at two levels (above the equal power
# allocation's min-rate, and above the zero-interference bound) on one group
# of one user at one AP and on groups (7, 9, 2) at 17 APs; the compiled oracle
# on both, ending feasible, infeasible and out of budget on the second, and
# just above the optimum, with a budget that ends mid-schedule and with a
# finer step that makes a chain of 40 stages; the three Monte-Carlo entries
# on 1003 draws, no multiple of any lane width; and bisection on 2 groups of
# 15 users at 4 APs, whose margin stages take zero steps. apg_objective and
# apg_chain (one rate stage, two margin stages) are also called directly, so
# the engine's own exact-size allocations of both are checked.
SANITIZED_RUN = """
import ctypes, sys
import numpy as np
from cellfree_maxmin import (BisectionConfig, Dimensions, PhysicalConfig,
                             bisection_solve, build_rate_model, epa_power, epa_rates,
                             feasibility_oracle, generate_instance, native,
                             rate_oracle_monte_carlo, rate_upper_bound, solver_bisection)
from cellfree_maxmin.harness import random_feasible_power
from cellfree_maxmin.netgen import iter_smallscale_blocks, smallscale_key
from cellfree_maxmin.solver_apg import compiled_chain, stage_config

lib = native._declare(ctypes.CDLL(sys.argv[1]))
native.load_library = lambda: lib
for num_aps, group_sizes in ((1, (1,)), (17, (7, 9, 2))):
    dims = Dimensions(num_aps, len(group_sizes), group_sizes)
    instance = generate_instance(dims, PhysicalConfig(), seed=1)
    model = build_rate_model(instance)
    x0 = epa_power(num_aps, len(group_sizes))
    compiled_chain(lib, native.RATE, model, x0, (100.0,), (1e-9,), 200)
    for t in (2.0 * epa_rates(model).min_rate, rate_upper_bound(model) + 0.1):
        compiled_chain(lib, native.MARGIN, model, x0, (3000.0,), (1e-9,), 200, t=t,
                       eps_soc=1e-6, gap_check_every=25)
    epa = epa_rates(model).min_rate
    T, N, M = model.num_users, len(group_sizes), num_aps
    data = (model.gamma_sqrt.ctypes.data, model.a_sq.ctypes.data, model.group_ptr.ctypes.data,
            T, N, M, model.rho_bar)
    x, grad, out = np.array(x0), np.empty_like(x0), native.StageResult()
    codes, traces = (ctypes.c_int64 * 2)(), np.empty((7, 201))
    lib.apg_objective(native.MARGIN, *data, 3000.0, 1.2 * epa, x.ctypes.data, grad.ctypes.data,
                      ctypes.c_double())
    lib.apg_chain(native.RATE, *data, 0.0, 1, (ctypes.c_double * 1)(100.0),
                  (ctypes.c_double * 1)(1e-9), stage_config(200, 0.0, 1), x.ctypes.data,
                  traces.ctypes.data, codes, out)
    lib.apg_chain(native.MARGIN, *data, 1.2 * epa, 2, (ctypes.c_double * 2)(300.0, 3000.0),
                  (ctypes.c_double * 2)(1e-6, 1e-9), stage_config(200, 1e-6, 25),
                  x.ctypes.data, traces.ctypes.data, codes, out)
    statuses = [feasibility_oracle(model, t, cfg=BisectionConfig(oracle_iter_cap=cap)).status
                for t, cap in ((1.2 * epa, 4000), (rate_upper_bound(model) + 0.1, 4000),
                               (1.5 * epa, 5))]
    assert num_aps == 1 or statuses == ["feasible", "infeasible", "undecided"], statuses
    t = 1.01 * bisection_solve(model).t_star
    capped = feasibility_oracle(model, t, cfg=BisectionConfig(oracle_iter_cap=100))
    step, solver_bisection.SMOOTHING_STEP = solver_bisection.SMOOTHING_STEP, 1.19
    chained = feasibility_oracle(model, t)
    solver_bisection.SMOOTHING_STEP = step
    assert 1 < len(capped.stages) < 6 and len(chained.stages) == 40, (capped, chained)
    rate_oracle_monte_carlo(instance, random_feasible_power(dims, seed=2), 1003, seed=3)
    list(iter_smallscale_blocks(instance, 1003, seed=3))
    out = np.empty((2, 1003, 7))
    lib.mc_normals(smallscale_key(3), 5, 1003, 7, out.ctypes.data)
# margin stages whose plain-branch steps underflow to a zero step
bisection_solve(build_rate_model(generate_instance(Dimensions(4, 2, (15, 15)),
                                                   PhysicalConfig(), seed=1)))
"""


def sanitized_run(tmp_path, flags, env=None):
    """SANITIZED_RUN in a child process, over the sources built with the
    build's flags plus `flags`; skips when the compiler rejects the flags."""
    compiler = next(filter(None, map(native.shutil.which, native.COMPILERS)))
    probe = tmp_path / "probe.c"
    probe.write_text("int probe(int x) { return x + 1; }\n")
    if subprocess.run([compiler, *native.CFLAGS, *flags, "-o", str(tmp_path / "probe.so"),
                       str(probe)], stdin=subprocess.DEVNULL, capture_output=True,
                      timeout=native.BUILD_TIMEOUT_S).returncode != 0:
        pytest.skip(f"{compiler} rejects {' '.join(flags)}")
    library = tmp_path / "sanitized.so"
    proc = subprocess.run([compiler, *native.CFLAGS, *flags, "-o", str(library),
                           *native.SOURCES, "-lm"], stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=native.BUILD_TIMEOUT_S)
    assert proc.returncode == 0, proc.stderr
    src = os.path.dirname(os.path.dirname(os.path.abspath(native.__file__)))
    env = dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", SANITIZED_RUN, str(library)],
                          stdin=subprocess.DEVNULL, capture_output=True, text=True, env=env,
                          timeout=300)


def test_library_runs_clean_under_the_undefined_behaviour_sanitizer(tmp_path):
    """The sources built with -fsanitize=undefined (aborting on the first
    report) run stages of both kinds, the compiled oracle's chains and every
    Monte-Carlo entry with no report."""
    run = sanitized_run(tmp_path, ["-O1", "-fsanitize=undefined", "-fno-sanitize-recover=all"])
    assert run.returncode == 0 and "runtime error" not in run.stderr, run.stderr


def test_library_runs_clean_under_the_address_sanitizer(tmp_path):
    """The same run with the sources built with -fsanitize=address: no read
    or write outside a buffer. The interpreter is not built with the
    sanitizer, so its runtime is preloaded, and leak checking, which would
    report the interpreter's own allocations, is off. The interpreter
    allocates with malloc, so the small ctypes buffers the library writes
    (the chain's stop codes, its results) are checked too, not carved out
    of Python's own pools."""
    compiler = next(filter(None, map(native.shutil.which, native.COMPILERS)))
    runtime = subprocess.run([compiler, "-print-file-name=libasan.so"], capture_output=True,
                             text=True, timeout=60).stdout.strip()
    if not os.path.isabs(runtime):
        pytest.skip(f"{compiler} names no AddressSanitizer runtime")
    run = sanitized_run(tmp_path, ["-O1", "-fsanitize=address", "-fno-omit-frame-pointer"],
                        env={"LD_PRELOAD": runtime, "ASAN_OPTIONS": "detect_leaks=0",
                             "PYTHONMALLOC": "malloc"})
    assert run.returncode == 0 and "AddressSanitizer" not in run.stderr, run.stderr


def test_failed_build_prints_nothing(lib, tmp_path, monkeypatch, capfd):
    """A source the compiler rejects raises an error naming the compiler and
    the source, prints nothing and leaves no file in the cache."""
    compiler = next(filter(None, map(native.shutil.which, native.COMPILERS)))
    bad = tmp_path / "bad.c"
    bad.write_text("this is not C\n")
    monkeypatch.setattr(native, "SOURCES", (str(bad),))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    with pytest.raises(RuntimeError) as excinfo:
        native.load_library.__wrapped__()
    assert compiler in str(excinfo.value) and str(bad) in str(excinfo.value)
    out, err = capfd.readouterr()
    assert out == "" and err == ""
    assert os.listdir(tmp_path / "cache" / "cellfree_maxmin") == []


def test_build_prunes_stale_libraries(tmp_path, monkeypatch):
    """A build removes the cache's libraries last written over
    STALE_LIBRARY_AGE_S ago; a fresh one, which another process may be about
    to load, an old temporary build file and an unrelated file stay."""
    compiler = next(filter(None, map(native.shutil.which, native.COMPILERS)))
    source = tmp_path / "tiny.c"
    source.write_text("int tiny(void) { return 1; }\n")
    monkeypatch.setattr(native, "SOURCES", (str(source),))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    cache = tmp_path / "cache" / "cellfree_maxmin"
    cache.mkdir(parents=True)
    day_old = time.time() - native.STALE_LIBRARY_AGE_S - 60.0
    files = {name: cache / name for name in (
        "apg_stage-00112233445566aa.so", "apg_stage-00112233445566bb.so",
        "tmpk2v9x1qz.so", "notes.txt")}
    for name, path in files.items():
        path.write_bytes(b"")
        if name != "apg_stage-00112233445566bb.so":
            os.utime(path, (day_old, day_old))
    target = native._library_path(compiler)
    native._build(compiler, target)
    assert sorted(os.listdir(cache)) == sorted(
        [os.path.basename(target), "apg_stage-00112233445566bb.so", "tmpk2v9x1qz.so",
         "notes.txt"])


def test_no_compiler_raises(monkeypatch):
    monkeypatch.setattr(native.shutil, "which", lambda name: None)
    with pytest.raises(RuntimeError, match="cc or gcc"):
        native.load_library.__wrapped__()


# the CLI in a process that sees two CPUs, so cdf trials run on two threads
# on any host
TWO_CPU_CLI = ("import sys; from cellfree_maxmin import cli, pool; "
               "pool.cpu_count = lambda: 2; sys.exit(cli.main(sys.argv[1:]))")


def test_concurrent_first_build(lib, tmp_path):
    """Fresh processes sharing an empty cache, one of them running its cdf
    trials on two threads, all build or load the library, and the CLI they
    run prints nothing."""
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "cache"))
    cdf_cfg = tmp_path / "cdf.json"
    cdf_cfg.write_text(json.dumps({"num_aps": 6, "group_sizes": [2, 2], "trials": 4}))
    commands = [["single-solve", "--seed", "2"], ["single-solve", "--seed", "2"],
                ["cdf", "--config", str(cdf_cfg)]]
    procs = [
        subprocess.Popen([sys.executable, "-c", TWO_CPU_CLI, *cmd,
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


def test_stage_clock(lib):
    """The stage times itself with the C clock and takes no clock of its own.
    apg_solve reads an injected clock exactly twice, around the stage, and
    scales the stage's stamps onto that span; without one, the stamps and
    the wall time are both on the C clock."""
    assert abs(lib.apg_clock() - time.monotonic()) < 0.05
    assert "clock" not in inspect.signature(compiled_chain).parameters
    model = make_model(num_aps=10, users_per_group=3, seed=2)
    cfg = ApgConfig(max_iters=200)
    own = apg_solve(model, cfg=cfg)
    elapsed = own.trace_elapsed_s
    assert elapsed.shape == (own.iterations + 1,)
    assert elapsed[0] >= 0.0 and (np.diff(elapsed) >= 0.0).all() and elapsed[-1] > 0.0
    assert own.wall_time_s >= elapsed[-1]

    for readings in ([0.0, 0.0], [0.0, 10.0]):
        span = readings[-1]
        got = apg_solve(model, cfg=cfg, clock=lambda: readings.pop(0))
        assert not readings  # read exactly twice: a third reading raises
        elapsed = got.trace_elapsed_s
        assert got.wall_time_s == span and elapsed[-1] == span
        assert elapsed[0] >= 0.0 and (np.diff(elapsed) >= 0.0).all()
        if span == 0.0:
            assert not elapsed.any()
        assert np.array_equal(own.power, got.power)
        assert np.array_equal(own.trace_f_sigma, got.trace_f_sigma)


def test_stop_codes_match_the_engine():
    """native.STOP_REASONS names exactly the codes of apg_stage.c's STOP_*
    enum, so no code the engine returns goes unnamed, and both sources
    return native.NO_MEMORY when an allocation fails."""
    assert native.SOURCES[0].endswith("apg_stage.c")
    source = pathlib.Path(native.SOURCES[0]).read_text()
    enum = re.search(r"enum \{([^}]*\bSTOP_[^}]*)\}", source).group(1)
    codes = [int(code) for code in re.findall(r"\bSTOP_\w+ = (\d+)", enum)]
    assert len(codes) == len(re.findall(r"\bSTOP_\w+", enum))
    assert sorted(codes) == sorted(native.STOP_REASONS)
    for path in native.SOURCES:
        assert f"#define NO_MEMORY ({native.NO_MEMORY})" in pathlib.Path(path).read_text()


def test_library_exports_exactly_the_declared_entries(lib):
    """The library's exported functions are the ones _declare types: a
    leftover entry, or one called without its argument types, fails."""
    nm = native.shutil.which("nm")
    if nm is None:
        pytest.skip("no nm on PATH")
    proc = subprocess.run([nm, "-D", "--defined-only", lib._name], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    exported = {fields[2] for fields in map(str.split, proc.stdout.splitlines())
                if len(fields) == 3 and fields[1] == "T"}
    fresh = native._declare(ctypes.CDLL(lib._name))
    declared = {name for name, fn in vars(fresh).items()
                if isinstance(fn, ctypes._CFuncPtr) and fn.argtypes is not None}
    assert exported == declared


def test_library_takes_no_python_callback(lib):
    """No entry that _declare types takes or returns a C function pointer, so
    the compiled code never calls back into the interpreter."""
    entries = {name: fn for name, fn in vars(lib).items() if isinstance(fn, ctypes._CFuncPtr)}
    assert {"apg_chain", "apg_objective", "mc_block"} <= set(entries)
    for name, fn in entries.items():
        types = list(fn.argtypes or ()) + [fn.restype]
        assert not any(isinstance(t, type) and issubclass(t, ctypes._CFuncPtr)
                       for t in types), name


def test_stage_without_clock_reads_the_c_clock(lib):
    """A stage given no clock, as the oracle's are, stamps its iterations
    with lib.apg_clock, measured from its own start."""
    model = make_model(num_aps=10, users_per_group=3, seed=2)
    x0 = epa_power(model.num_aps, model.num_groups)
    before = lib.apg_clock()
    got = one_stage(lib, native.RATE, model, x0, ApgConfig(max_iters=50, stop_tol=0.0),
                    100.0)
    after = lib.apg_clock()
    elapsed = got.trace_elapsed_s
    assert elapsed.shape == (51,) and elapsed[0] >= 0.0 and (np.diff(elapsed) >= 0.0).all()
    assert 0.0 < elapsed[-1] <= after - before


class NoLibrary:
    """A library stand-in that fails on first use: a guard must raise before
    any call into the engine."""

    def __getattr__(self, name):
        raise AssertionError(f"the engine was called ({name})")


@pytest.mark.parametrize("kind, sigmas, tols, kwargs, match", [
    (native.RATE, (), (), {}, "equally long and non-empty"),
    (native.RATE, (100.0, 1000.0), (1e-6,), {}, "equally long and non-empty"),
    (native.RATE, (100.0,), (1e-6, 1e-6), {}, "equally long and non-empty"),
    (native.RATE, (100.0,), (-1e-6,), {}, "stop_tol must be finite and >= 0"),
    (native.MARGIN, (100.0, 1000.0), (1e-6, math.nan), {}, "stop_tol must be finite"),
    (native.RATE, (100.0,), (math.inf,), {}, "stop_tol must be finite and >= 0"),
    (native.RATE, (100.0,), (1e-6,), {"max_iters": -1}, "max_iters must be >= 0"),
    (native.MARGIN, (100.0,), (1e-6,), {"t": 0.3, "gap_check_every": 0},
     "gap_check_every must be >= 1"),
], ids=["empty", "more-sigmas", "more-tols", "negative-tol", "nan-tol", "inf-tol",
        "negative-budget", "no-gap-check"])
def test_compiled_chain_refuses_bad_schedules(kind, sigmas, tols, kwargs, match):
    model = make_model(num_aps=6, users_per_group=2, seed=3)
    x0 = epa_power(model.num_aps, model.num_groups)
    kwargs = {"max_iters": 50, **kwargs}
    with pytest.raises(ValueError, match=match):
        compiled_chain(NoLibrary(), kind, model, x0, sigmas, tols, **kwargs)



class NoMemory:
    """A library stand-in whose entries all fail to allocate their work."""

    def apg_clock(self):
        return 0.0

    def apg_chain(self, *args):
        return native.NO_MEMORY

    mc_block = mc_pilot = apg_chain


def test_allocation_failure_raises_memory_error(monkeypatch):
    """An entry that returns NO_MEMORY makes its caller raise MemoryError
    naming it: compiled_chain, the Monte-Carlo oracle (two blocks, so the
    pool's threads run one) and the small-scale draws."""
    stub = NoMemory()
    monkeypatch.setattr(native, "load_library", lambda: stub)
    model = make_model(num_aps=6, users_per_group=2, seed=3)
    with pytest.raises(MemoryError, match="apg_chain"):
        compiled_chain(stub, native.RATE, model, epa_power(model.num_aps, model.num_groups),
                       (100.0,), (1e-6,), 50)
    dims = Dimensions(4, 2, (2, 2))
    instance = generate_instance(dims, PhysicalConfig(), seed=1)
    with pytest.raises(MemoryError, match="mc_block"):
        rate_oracle_monte_carlo(instance, epa_power(4, 2), SMALLSCALE_BLOCK + 1, seed=1)
    with pytest.raises(MemoryError, match="mc_pilot"):
        next(iter_smallscale_blocks(instance, 10, seed=1))

BALL_EDGE = math.sqrt(1.0 + kernels.BALL_SLACK)


def ulps_from(x, k):
    for _ in range(abs(k)):
        x = np.nextafter(x, math.copysign(math.inf, k))
    return float(x)


@st.composite
def projection_inputs(draw):
    """(N, M) points with negative entries, zeros of both signs, and columns
    of squared norm far above 1 (up to overflow, with entries up to 2e300)
    or within a few ulps of 1 + BALL_SLACK (one positive entry, the rest
    clipped to zero)."""
    num_groups, num_aps = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    entries = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))
    x = np.array(draw(st.lists(entries, min_size=num_groups * num_aps,
                               max_size=num_groups * num_aps))).reshape(num_groups, num_aps)
    for m in range(num_aps):
        kind = draw(st.sampled_from(["as drawn", "far", "edge"]))
        if kind == "far":
            x[:, m] *= 10.0 ** draw(st.integers(1, 300))
        elif kind == "edge":
            x[:, m] = np.minimum(x[:, m], 0.0)
            row = draw(st.integers(0, num_groups - 1))
            x[row, m] = ulps_from(BALL_EDGE, draw(st.integers(-2, 2)))
    return x


@settings(max_examples=100, deadline=None, derandomize=True)
@given(x=projection_inputs())
def test_compiled_projection_matches_numpy_bit_for_bit(lib, x):
    """A stage of zero iterations returns its projected start point, which is
    kernels.IMPL.project_ball_orthant's to the bit."""
    num_groups, num_aps = x.shape
    model = RateModel(gamma_sqrt=np.ones((num_groups, num_aps)),
                      a_sq=np.ones((num_groups, num_aps)),
                      group_ptr=np.arange(num_groups + 1), rho_bar=1.0)
    got = one_stage(lib, native.RATE, model, x, ApgConfig(max_iters=0), 100.0)
    with np.errstate(over="ignore"):  # squared norms may overflow
        expected = kernels.IMPL.project_ball_orthant(np.ascontiguousarray(x))
    assert got.power.tobytes() == expected.tobytes()


def test_projection_of_a_column_whose_squared_norm_overflows(lib):
    """Both projections divide such a column by its largest entry before
    taking its norm; a column holding +inf or NaN keeps inf / inf and NaN."""
    x = np.array([[1e160, math.inf, math.nan], [3e160, 1.0, 1.0]])
    model = RateModel(gamma_sqrt=np.ones((2, 3)), a_sq=np.ones((2, 3)),
                      group_ptr=np.arange(3), rho_bar=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = kernels.IMPL.project_ball_orthant(x)
        got = one_stage(lib, native.RATE, model, x, ApgConfig(max_iters=0), 100.0)
    np.testing.assert_allclose(expected[:, 0], [0.1 ** 0.5, 0.9 ** 0.5], rtol=1e-15)
    assert np.isnan(expected[0, 1]) and expected[1, 1] == 0.0
    assert np.isnan(expected[0, 2]) and expected[1, 2] == 1.0
    assert got.power.tobytes() == expected.tobytes()
