import math

import numpy as np
import pytest

from cellfree_maxmin import (
    BisectionConfig,
    PowerControl,
    apg_solve_continuation,
    bisection_solve,
    build_soc_system,
    epa_rates,
    feasibility_oracle,
    min_rate,
    rate_upper_bound,
    rates_vector,
    soc_residual,
    user_rate,
)
from conftest import make_model, random_feasible_matrix


@pytest.fixture(scope="module")
def system():
    return build_soc_system(make_model(10, 2, 2, seed=5))


class TestSocResidual:
    def test_level_zero_always_feasible(self, system):
        rng = np.random.default_rng(0)
        mat = random_feasible_matrix(system.model, rng)
        res = soc_residual(system, mat, 0.0)
        assert (res <= 0).all()

    def test_zero_power_infeasible(self, system):
        mat = np.zeros((2, system.model.num_aps))
        res = soc_residual(system, mat, 0.5)
        assert np.allclose(res, math.sqrt(math.expm1(0.5)), rtol=1e-12)

    def test_equivalent_to_rate_threshold(self, system):
        # residual <= 0 exactly when the user rate clears the level
        rng = np.random.default_rng(1)
        model = system.model
        ptr = model.group_ptr
        for _ in range(40):
            mat = random_feasible_matrix(model, rng)
            t = float(rng.uniform(0.01, 1.5))
            res = soc_residual(system, mat, t)
            rates = rates_vector(model, mat).rates
            for u in range(model.num_users):
                if abs(rates[u] - t) > 1e-10:
                    assert (res[u] <= 0) == (rates[u] >= t)


class TestUpperBound:
    def test_bounds_every_rate(self, system):
        rng = np.random.default_rng(2)
        ub = rate_upper_bound(system.model)
        for _ in range(50):
            mat = random_feasible_matrix(system.model, rng)
            assert rates_vector(system.model, mat).rates.max() <= ub + 1e-12


class TestFeasibilityOracle:
    def test_level_zero(self, system):
        res = feasibility_oracle(system, 0.0)
        assert res.status == "feasible"
        assert res.max_residual <= 1e-6

    def test_epa_level_is_witnessed(self, system):
        t = epa_rates(system.model).min_rate
        res = feasibility_oracle(system, t)
        assert res.status == "feasible"
        assert min_rate(system.model, PowerControl.from_matrix(res.mu)) >= t - 1e-5

    def test_above_upper_bound_certified_infeasible(self, system):
        res = feasibility_oracle(system, rate_upper_bound(system.model) + 0.1)
        assert res.status == "infeasible"
        assert res.certified_lower_bound is not None
        assert res.certified_lower_bound > -1e-6

    def test_monotone_feasibility(self, system):
        rng = np.random.default_rng(3)
        t_feas = epa_rates(system.model).min_rate
        for _ in range(5):
            t_lower = float(rng.uniform(0.0, t_feas))
            res = feasibility_oracle(system, t_lower)
            assert res.status == "feasible"


class TestBisectionSolve:
    def test_scalar_problem(self):
        model = make_model(1, 1, 1, seed=6)
        report = bisection_solve(build_soc_system(model))
        grid = np.linspace(0.0, 1.0, 20001)
        best = max(user_rate(model, np.array([g]), 0, 0) for g in grid)
        assert report.t_star == pytest.approx(best, abs=2e-4)

    def test_epa_lower_bound(self, system):
        report = bisection_solve(system)
        assert report.t_star >= epa_rates(system.model).min_rate - 1e-6

    def test_witness_consistency(self, system):
        cfg = BisectionConfig()
        report = bisection_solve(system, cfg)
        assert report.power.is_feasible()
        assert report.min_rate >= report.t_star - 10 * cfg.eps_soc

    def test_bracket_evolution(self, system):
        cfg = BisectionConfig()
        report = bisection_solve(system, cfg)
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
        report = bisection_solve(build_soc_system(model))
        apg = apg_solve_continuation(model, (100.0, 1000.0))[-1]
        assert abs(apg.min_rate - report.t_star) <= 1e-3

    def test_steps_csv(self, system, tmp_path):
        report = bisection_solve(system)
        path = tmp_path / "steps.csv"
        report.write_steps_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,t_lo,t_hi,oracle_iters,oracle_status"
        assert len(lines) == 1 + len(report.steps)

    def test_deterministic(self, system):
        a = bisection_solve(system, clock=lambda: 0.0)
        b = bisection_solve(system, clock=lambda: 0.0)
        assert a.t_star == b.t_star
        assert np.array_equal(a.power.mu, b.power.mu)
        assert [s.oracle_status for s in a.steps] == [s.oracle_status for s in b.steps]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BisectionConfig(tol_t=0.0)
        with pytest.raises(ValueError):
            BisectionConfig(t_upper=-1.0)
