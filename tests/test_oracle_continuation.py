"""The bisection oracle's compiled continuation, one multi-stage
solver_apg.compiled_chain call, against the loop it replaced: one
single-stage compiled_chain call per stage of the sharpness schedule, with
the candidate pick over kernels.IMPL.soc_residuals and np.median. Both must
return the same bits."""

import math
import types

import numpy as np
import pytest

from cellfree_maxmin import (
    BisectionConfig,
    LineSearchError,
    apg_solve_continuation,
    bisection_solve,
    epa_power,
    epa_rates,
    feasibility_oracle,
    is_feasible,
    kernels,
    native,
    rate_upper_bound,
    solver_bisection,
)
from cellfree_maxmin.rates import as_mu_matrix
from cellfree_maxmin.solver_apg import compiled_chain
from cellfree_maxmin.solver_bisection import (
    EPS_SOC,
    FEASIBLE,
    GAP_CHECK_EVERY,
    INFEASIBLE,
    SMOOTHING_COARSE_T,
    SMOOTHING_QUALITY,
    UNDECIDED,
    OracleResult,
    _support_gap,
)
from conftest import make_model
from test_native import nan_model, shaped_model

PAPER_SHAPES = [(100, (10,) * 4), (150, (15, 15)), (200, (15, 15))]


@pytest.fixture(scope="module")
def lib():
    return native.load_library()


def reference_stages(lib, model, t, x, sens, cfg, max_res):
    """The sharpness continuation from x as one single-stage compiled_chain
    call per stage, then the last certificate when it ends undecided."""
    gs, asq, ptr, rho = model.gamma_sqrt, model.a_sq, model.group_ptr, model.rho_bar
    log_t = math.log(max(model.num_users, 2))
    res_fine = max(SMOOTHING_QUALITY * cfg.tol_t, 1e-12)
    res_coarse = max(SMOOTHING_COARSE_T, res_fine)
    resolutions = [res_coarse]
    while resolutions[-1] > res_fine * (1.0 + 1e-9):
        resolutions.append(max(resolutions[-1] / solver_bisection.SMOOTHING_STEP, res_fine))

    iters_used = 0
    sigma_f = 0.0
    stages = []
    for res_t in resolutions:
        sigma_f = float(np.clip(log_t / max(res_t * sens, 1e-300), 1e-3, 1e12))
        budget = cfg.oracle_iter_cap - iters_used
        if budget <= 0:
            break
        result, reasons, iterations = compiled_chain(
            lib, native.MARGIN, model, x, (sigma_f,), (0.02 * res_t * sens,), budget, t=t,
            eps_soc=EPS_SOC, gap_check_every=GAP_CHECK_EVERY)
        stages += reasons
        iters_used += iterations
        x = result.power
        max_res = -result.f_true
        if result.termination == FEASIBLE:
            return OracleResult(FEASIBLE, x, iters_used, max_res, stages=tuple(stages))
        if result.termination == INFEASIBLE:
            return OracleResult(INFEASIBLE, x, iters_used, max_res,
                                certified_lower_bound=result.certified_bound,
                                stages=tuple(stages))

    fs, _, grad = kernels.IMPL.margin_value_grad(gs, asq, ptr, x, rho, t, sigma_f)
    lower = -(fs + _support_gap(grad, x))
    status = INFEASIBLE if lower > -EPS_SOC else UNDECIDED
    return OracleResult(status, x, iters_used, max_res, certified_lower_bound=lower,
                        stages=tuple(stages))


def reference_oracle(lib, model, t, warm=(), cfg=None):
    """feasibility_oracle as one single-stage compiled_chain call per stage."""
    cfg = cfg or BisectionConfig()
    gs, asq, ptr, rho = model.gamma_sqrt, model.a_sq, model.group_ptr, model.rho_bar
    candidates = [as_mu_matrix(w, model) for w in warm]
    candidates.append(epa_power(model.num_aps, model.num_groups))
    best, best_res = None, math.inf
    for cand in candidates:
        cand = np.ascontiguousarray(cand)
        r = float(kernels.IMPL.soc_residuals(gs, asq, ptr, cand, rho, t).max())
        if r < best_res:
            best, best_res = cand, r
    if best_res <= EPS_SOC and is_feasible(best):
        return OracleResult(FEASIBLE, best, 0, best_res)
    et1 = math.expm1(t)
    dvals = np.sqrt(kernels._user_pc(gs, asq, ptr, best, rho)[1])
    sens = math.exp(t) / (2.0 * math.sqrt(et1)) * float(np.median(dvals))
    return reference_stages(lib, model, t, best, sens, cfg, best_res)


def bits(value):
    return None if value is None else np.float64(value).tobytes()


def assert_same(got, ref):
    assert got.status == ref.status
    assert got.power.tobytes() == ref.power.tobytes()
    assert got.iterations == ref.iterations
    assert bits(got.max_residual) == bits(ref.max_residual)
    assert bits(got.certified_lower_bound) == bits(ref.certified_lower_bound)
    assert got.stages == ref.stages


@pytest.fixture(scope="module", params=PAPER_SHAPES,
                ids=lambda shape: f"M{shape[0]}-{len(shape[1])}x{shape[1][0]}")
def paper(request):
    num_aps, groups = request.param
    model = shaped_model(num_aps, groups, seed=1)
    return model, bisection_solve(model).t_star


@pytest.mark.parametrize("fraction", [0.5, 0.99, 1.01, 1.5, "above bound"])
def test_paper_levels(lib, paper, fraction):
    model, t_star = paper
    t = rate_upper_bound(model) + 0.1 if fraction == "above bound" else fraction * t_star
    assert_same(feasibility_oracle(model, t), reference_oracle(lib, model, t))


def test_budget_runs_out_partway_through_the_schedule(lib):
    """The cap ends the second of six stages, so the last certificate reads
    the sharpness computed for the third just before the budget check."""
    model = shaped_model(100, (10,) * 4, seed=1)
    t = 1.01 * bisection_solve(model).t_star
    cfg = BisectionConfig(oracle_iter_cap=100)
    ref = reference_oracle(lib, model, t, cfg=cfg)
    assert ref.stages == ("objective_plateau", "max_iters") and ref.status == UNDECIDED
    assert_same(feasibility_oracle(model, t, cfg=cfg), ref)


@pytest.mark.parametrize("model, cfg", [
    # the run perfbench/test_perfbench.py pins
    (make_model(4, 2, 2, seed=3), BisectionConfig(tol_t=0.5, oracle_iter_cap=50)),
    (shaped_model(1, (7, 9, 2), seed=1), BisectionConfig()),
], ids=["tiny-pinned", "M1-7x9x2"])
def test_every_oracle_call_of_a_bisection(lib, monkeypatch, model, cfg):
    """Each call of a whole bisection, with its warm starts, matches; so does
    the oracle given those starts as plain arrays. bisection_solve passes
    them scored, with the EPA point last."""
    oracle = solver_bisection.feasibility_oracle
    epa = epa_power(model.num_aps, model.num_groups)
    calls = []

    def compared(model, t, warm=(), cfg=None):
        got = oracle(model, t, warm=warm, cfg=cfg)
        assert isinstance(warm, solver_bisection._Candidates)
        assert warm[-1].mu.tobytes() == epa.tobytes()
        arrays = [point.mu for point in warm[:-1]]
        assert_same(got, oracle(model, t, warm=arrays, cfg=cfg))
        assert_same(got, reference_oracle(lib, model, t, warm=arrays, cfg=cfg))
        calls.append(got.iterations)
        return got

    monkeypatch.setattr(solver_bisection, "feasibility_oracle", compared)
    bisection_solve(model, cfg)
    assert any(calls)


def test_nan_data_fails_the_line_search_alike(lib):
    """NaN data reach the stages only past the candidate pick, which refuses
    them; started directly, both continuations raise the same error."""
    model = nan_model()
    x0 = epa_power(model.num_aps, model.num_groups)
    errors = []
    for run in (lambda: solver_bisection._continuation(lib, model, 0.3, x0, 1.0,
                                                      BisectionConfig()),
                lambda: reference_stages(lib, model, 0.3, x0, 1.0, BisectionConfig(), 1.0)):
        with pytest.raises(LineSearchError) as excinfo:
            run()
        err = excinfo.value
        errors.append((err.iteration, *map(bits, (err.alpha, err.f_current, err.f_best))))
    assert errors[0] == errors[1]


def test_infinite_plateau_tolerance_is_refused(lib):
    model = make_model(6, 2, 2, seed=3)
    x0 = epa_power(model.num_aps, model.num_groups)
    with pytest.raises(ValueError, match="^stop_tol must be finite and >= 0"):
        solver_bisection._continuation(lib, model, 0.3, x0, math.inf, BisectionConfig())


def test_schedule_longer_than_32_stages_runs(lib, monkeypatch):
    """A finer step makes a longer schedule, here of 72 stages that each
    plateau just above the optimum; the chain runs them all."""
    model = make_model(6, 2, 2, seed=3)
    t = 1.01 * bisection_solve(model).t_star
    monkeypatch.setattr(solver_bisection, "SMOOTHING_STEP", 1.1)
    ref = reference_oracle(lib, model, t)
    assert len(ref.stages) == 72
    assert_same(feasibility_oracle(model, t), ref)


@pytest.mark.parametrize("tol_t", [1e-12, 1e-4, 0.5])
@pytest.mark.parametrize("groups", [(1,), (10,) * 4], ids=["T1", "T40"])
def test_schedule_is_the_reference_loops(monkeypatch, tol_t, groups):
    """_smoothing_schedule returns the sharpness and plateau tolerance of
    every stage that reference_stages runs, to the bit: its stages, stubbed
    to plateau after one iteration, record what they are given."""
    model = shaped_model(3, groups, seed=1)
    x0 = epa_power(model.num_aps, model.num_groups)
    cfg = BisectionConfig(tol_t=tol_t)
    given = []

    def chain(lib, kind, model, x, sigmas, tols, max_iters, **kwargs):
        given.extend(zip(sigmas, tols))
        report = types.SimpleNamespace(termination="objective_plateau", power=x, f_true=0.0,
                                       certified_bound=None)
        return report, ("objective_plateau",), 1

    monkeypatch.setitem(globals(), "compiled_chain", chain)
    for sens in (0.3, 1.0, 1.7, 3.3, 12.5, 1e-6, 4e5):
        given.clear()
        reference_stages(None, model, 0.5, x0, sens, cfg, 0.0)
        sigmas, tols = solver_bisection._smoothing_schedule(tol_t, sens, model.num_users)
        assert np.array(given).T.tobytes() == np.array([sigmas, tols]).tobytes()
    assert len(sigmas) == {1e-12: 16, 1e-4: 6, 0.5: 1}[tol_t]


def test_witness_outside_s_is_projected_first(lib):
    """A warm start outside S that meets every residual is no witness: the
    first stage projects it. This one (column norm 7.07) used to come back
    as "feasible" after no iteration, at five times the EPA level."""
    model = make_model(6, 2, 2, seed=3)
    t = 5.0 * epa_rates(model).min_rate
    warm = [np.full((2, 6), 5.0)]
    assert not is_feasible(warm[0])
    res = feasibility_oracle(model, t, warm=warm)
    assert res.iterations > 0
    assert is_feasible(res.power)
    assert res.status != FEASIBLE or res.max_residual <= EPS_SOC


def test_level_zero_is_witnessed_in_s(lib):
    """At level 0 a warm start outside S meets every residual, and the
    sensitivity the stages need is infinite: the EPA point is the witness."""
    model = make_model(6, 2, 2, seed=3)
    res = feasibility_oracle(model, 0.0, warm=[np.full((2, 6), 5.0)])
    assert res.status == FEASIBLE and res.iterations == 0
    assert np.array_equal(res.power, epa_power(model.num_aps, model.num_groups))
    assert res.max_residual <= 0.0


@pytest.mark.parametrize("kind", [native.RATE, native.MARGIN], ids=["rate", "margin"])
def test_chain_is_a_loop_of_single_stage_chains(lib, kind):
    """A chain of three stages returns the last report of three single-stage
    chains, each from the iterate of the one before on the budget left, to
    the bit but for the clock trace, with their stop reasons and summed
    iterations. The margin stages run just above the optimum, where they
    plateau twice and then use up the budget."""
    model = shaped_model(17, (7, 9, 2), seed=1)
    x = epa_power(model.num_aps, model.num_groups)
    t = 0.0
    if kind == native.MARGIN:
        t = 1.001 * apg_solve_continuation(model, (100.0, 1000.0))[-1].f_true
    sigmas, tols, cap = (30.0, 300.0, 3000.0), (1e-4, 1e-6, 1e-8), 400
    options = {"t": t, "eps_soc": EPS_SOC, "gap_check_every": GAP_CHECK_EVERY}
    got = compiled_chain(lib, kind, model, x, sigmas, tols, cap, **options)
    reasons, used = (), 0
    for sigma, tol in zip(sigmas, tols):
        last, stage, iterations = compiled_chain(lib, kind, model, x, (sigma,), (tol,),
                                                 cap - used, **options)
        x, reasons, used = last.power, reasons + stage, used + iterations
    assert got[1:] == (reasons, used) and len(reasons) == 3
    fields = ("power", "f_sigma", "f_true", "iterations", "termination", "sigma",
              "trace_f_sigma", "trace_f_true", "trace_alpha_y", "trace_alpha_mu",
              "trace_bt_y", "trace_bt_mu", "extrapolation_rejections", "plain_skips",
              "evaluations", "certified_bound")
    for name in fields:
        assert np.asarray(getattr(got[0], name)).tobytes() == \
            np.asarray(getattr(last, name)).tobytes(), name
