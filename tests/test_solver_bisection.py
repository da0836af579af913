import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellfree_maxmin import (
    BisectionConfig,
    Dimensions,
    PhysicalConfig,
    apg_solve_continuation,
    bisection_solve,
    build_rate_model,
    build_soc_system,
    epa_rates,
    feasibility_oracle,
    generate_instance,
    is_feasible,
    kernels,
    min_rate,
    rate_upper_bound,
    rates_vector,
    solver_bisection,
)
from conftest import kernel_args, make_model, random_feasible_matrix


@pytest.fixture(scope="module")
def model():
    return make_model(10, 2, 2, seed=5)


def test_build_soc_system_is_the_model(model):
    assert build_soc_system(model) is model


class TestSocResidual:
    def test_level_zero_always_feasible(self, model):
        rng = np.random.default_rng(0)
        mat = random_feasible_matrix(model, rng)
        res = kernels.IMPL.soc_residuals(*kernel_args(model, mat), 0.0)
        assert (res <= 0).all()

    def test_zero_power_infeasible(self, model):
        mat = np.zeros((2, model.num_aps))
        res = kernels.IMPL.soc_residuals(*kernel_args(model, mat), 0.5)
        assert np.allclose(res, math.sqrt(math.expm1(0.5)), rtol=1e-12)

    def test_equivalent_to_rate_threshold(self, model):
        # residual <= 0 exactly when the user rate clears the level
        rng = np.random.default_rng(1)
        ptr = model.group_ptr
        for _ in range(40):
            mat = random_feasible_matrix(model, rng)
            t = float(rng.uniform(0.01, 1.5))
            res = kernels.IMPL.soc_residuals(*kernel_args(model, mat), t)
            rates = rates_vector(model, mat).rates
            for u in range(model.num_users):
                if abs(rates[u] - t) > 1e-10:
                    assert (res[u] <= 0) == (rates[u] >= t)


class TestUpperBound:
    def test_bounds_every_rate(self, model):
        rng = np.random.default_rng(2)
        ub = rate_upper_bound(model)
        for _ in range(50):
            mat = random_feasible_matrix(model, rng)
            assert rates_vector(model, mat).rates.max() <= ub + 1e-12


class TestFeasibilityOracle:
    def test_level_zero(self, model):
        res = feasibility_oracle(model, 0.0)
        assert res.status == "feasible"
        assert res.max_residual <= 1e-6

    def test_epa_level_is_witnessed(self, model):
        t = epa_rates(model).min_rate
        res = feasibility_oracle(model, t)
        assert res.status == "feasible"
        assert min_rate(model, res.power) >= t - 1e-5

    def test_above_upper_bound_certified_infeasible(self, model):
        res = feasibility_oracle(model, rate_upper_bound(model) + 0.1)
        assert res.status == "infeasible"
        # the last iterate comes back on every status, as a warm start
        assert res.power.shape == (model.num_groups, model.num_aps)
        assert is_feasible(res.power)
        assert res.certified_lower_bound is not None
        assert res.certified_lower_bound > -1e-6

    @pytest.mark.parametrize("t", [-0.1, math.nan, math.inf])
    def test_level_must_be_finite_and_nonnegative(self, model, t):
        # a negative level used to reach the residuals as sqrt(e^t - 1) of
        # a negative number, and the error then blamed the residuals
        with pytest.raises(ValueError, match="^level t must be finite and >= 0"):
            feasibility_oracle(model, t)

    def test_uses_cfg_eps_soc(self, monkeypatch):
        # the EPA point misses level EPA + 1e-4 by a residual of 4.6e-4, which
        # the loose tolerance accepts before any stage runs
        model = make_model(6, 2, 2, seed=3)
        t = epa_rates(model).min_rate + 1e-4
        assert feasibility_oracle(model, t).iterations > 0
        monkeypatch.setattr(solver_bisection, "EPS_SOC", 1e-2)
        res = feasibility_oracle(model, t)
        assert res.status == "feasible"
        assert res.iterations == 0
        assert 0.0 < res.max_residual <= 1e-2

    def test_monotone_feasibility(self, model):
        rng = np.random.default_rng(3)
        t_feas = epa_rates(model).min_rate
        for _ in range(5):
            t_lower = float(rng.uniform(0.0, t_feas))
            res = feasibility_oracle(model, t_lower)
            assert res.status == "feasible"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(num_aps=st.integers(1, 12),
       group_sizes=st.lists(st.integers(1, 5), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_oracle_never_refutes_a_witnessed_level(num_aps, group_sizes, seed):
    """No level that a point of S reaches is certified infeasible: not the
    equal power allocation's min-rate, nor 0.999 x the APG continuation's.
    Given the APG point as its start, the oracle takes it without a stage."""
    dims = Dimensions(num_aps, len(group_sizes), tuple(group_sizes))
    model = build_rate_model(generate_instance(dims, PhysicalConfig(), seed))
    apg = apg_solve_continuation(model, (100.0, 1000.0))[-1]
    for t in (epa_rates(model).min_rate, 0.999 * apg.f_true):
        assert feasibility_oracle(model, t).status != "infeasible", t
    warm = feasibility_oracle(model, 0.999 * apg.f_true, warm=(apg.power,))
    assert warm.status == "feasible" and warm.iterations == 0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(num_aps=st.integers(1, 8),
       group_sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1),
       fraction=st.floats(0.0, 1.0))
def test_feasible_verdict_has_a_witness_in_s(num_aps, group_sizes, seed, fraction):
    """Every "feasible" verdict carries a point of S (is_feasible:
    nonnegative, each AP's squared norm within 1 + FEASIBILITY_SLACK) whose
    recomputed residuals are all <= EPS_SOC. Levels are drawn in
    [0, rate_upper_bound]: uniformly, and log-uniformly above the equal power
    allocation's min-rate, where the oracle's stages find the witnesses."""
    dims = Dimensions(num_aps, len(group_sizes), tuple(group_sizes))
    model = build_rate_model(generate_instance(dims, PhysicalConfig(), seed))
    upper, epa = rate_upper_bound(model), epa_rates(model).min_rate
    for t in (fraction * upper, epa * (upper / epa) ** fraction):
        res = feasibility_oracle(model, t)
        if res.status != "feasible":
            continue
        assert is_feasible(res.power), t
        residual = kernels.IMPL.soc_residuals(*kernel_args(model, res.power), t).max()
        assert residual <= solver_bisection.EPS_SOC, (t, residual)


class TestBisectionSolve:
    def test_scalar_problem(self):
        model = make_model(1, 1, 1, seed=6)
        report = bisection_solve(model)
        grid = np.linspace(0.0, 1.0, 20001)
        best = max(min_rate(model, np.array([[g]])) for g in grid)
        assert report.t_star == pytest.approx(best, abs=2e-4)

    def test_epa_lower_bound(self, model):
        report = bisection_solve(model)
        assert report.t_star >= epa_rates(model).min_rate - 1e-6

    def test_witness_consistency(self, model):
        report = bisection_solve(model)
        assert is_feasible(report.power)
        assert report.min_rate >= report.t_star - 10 * solver_bisection.EPS_SOC

    def test_bracket_evolution(self, model):
        cfg = BisectionConfig()
        report = bisection_solve(model, cfg)
        upper0 = report.initial_upper_bound + max(cfg.tol_t, 1e-6)
        assert len(report.steps) <= math.ceil(math.log2(upper0 / cfg.tol_t)) + 1
        lo_prev, hi_prev = -math.inf, math.inf
        for step in report.steps:
            assert step.t_lo < step.t_hi
            assert step.t_lo >= lo_prev and step.t_hi <= hi_prev
            lo_prev, hi_prev = step.t_lo, step.t_hi
            assert step.oracle_status in ("feasible", "infeasible", "undecided")

    def test_agreement_with_apg(self):
        model = make_model(10, 2, 2, seed=7)
        report = bisection_solve(model)
        apg = apg_solve_continuation(model, (100.0, 1000.0))[-1]
        assert abs(apg.f_true - report.t_star) <= 1e-3

    def test_tol_below_the_spacing_of_doubles_ends(self, monkeypatch):
        """Near t* ~ 0.036 doubles are about 7e-18 apart, so at tol_t 1e-20
        the bracket closes before hi - lo reaches tol_t: the midpoint rounds
        to an end. Bisection stops there instead of calling the oracle
        forever; the wrapped oracle raises after 2000 calls, so such a loop
        fails instead of hanging."""
        oracle = solver_bisection.feasibility_oracle
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            if len(calls) > 2000:
                raise RuntimeError(f"bisection still bisects at t={args[1]!r}")
            return oracle(*args, **kwargs)

        monkeypatch.setattr(solver_bisection, "feasibility_oracle", counted)
        report = bisection_solve(make_model(4, 2, 2, seed=3),
                                 BisectionConfig(tol_t=1e-20, oracle_iter_cap=50))
        last = report.steps[-1]
        mid = 0.5 * (last.t_lo + last.t_hi)
        lo, hi = (mid, last.t_hi) if last.oracle_status == "feasible" else (last.t_lo, mid)
        assert len(report.steps) == len(calls) < 100
        assert math.nextafter(lo, math.inf) == hi

    def test_steps_csv(self, model, tmp_path):
        report = bisection_solve(model)
        path = tmp_path / "steps.csv"
        report.write_steps_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,t_lo,t_hi,oracle_iters,oracle_status"
        assert len(lines) == 1 + len(report.steps)

    def test_deterministic(self, model):
        a = bisection_solve(model, clock=lambda: 0.0)
        b = bisection_solve(model, clock=lambda: 0.0)
        assert a.t_star == b.t_star
        assert np.array_equal(a.power, b.power)
        assert [s.oracle_status for s in a.steps] == [s.oracle_status for s in b.steps]

    @pytest.mark.parametrize("key,bad", [("tol_t", 0.0), ("tol_t", math.nan),
                                         ("tol_t", math.inf), ("oracle_iter_cap", 0),
                                         ("oracle_iter_cap", math.nan)])
    def test_config_validation(self, key, bad):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            BisectionConfig(**{key: bad})

    # the cap crosses into the compiled oracle as an int64: 10.5 used to fail
    # deep in numpy, and a string tol_t in a comparison, with unnamed errors
    @pytest.mark.parametrize("key,bad", [("oracle_iter_cap", 10.5), ("oracle_iter_cap", True),
                                         ("tol_t", "1e-4"), ("tol_t", True)])
    def test_config_names_a_value_of_the_wrong_type(self, key, bad):
        with pytest.raises(ValueError, match=f"^{key} must be a"):
            BisectionConfig(**{key: bad})
