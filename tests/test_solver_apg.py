import math

import numpy as np
import pytest

from cellfree_maxmin import (
    ApgConfig,
    Dimensions,
    LineSearchError,
    NetworkInstance,
    PhysicalConfig,
    apg_solve,
    apg_solve_continuation,
    build_rate_model,
    epa_power,
    is_feasible,
    min_rate,
    project_feasible,
    rates_vector,
    smooth_gradient,
    smooth_objective,
    user_rate,
)
from cellfree_maxmin.kernels import _soft_min
from cellfree_maxmin.solver_apg import monotone_apg
from conftest import make_model, random_feasible_matrix


def dykstra_projection(x, iters=600):
    """Independent projection oracle: Dykstra's alternating projections onto
    the orthant and the per-AP unit balls converge to the exact Euclidean
    projection onto the intersection."""
    x = np.asarray(x, dtype=float)
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    u = x.copy()
    for _ in range(iters):
        y = np.maximum(u + p, 0.0)
        p = u + p - y
        w = y + q
        nrm = np.sqrt((w * w).sum(axis=0, keepdims=True))
        scale = np.maximum(nrm, 1.0)
        u = w / scale
        q = w - u
    return u


def projection_kkt_residual(x, u):
    """Max violation of the optimality conditions of min ||x-u|| over
    {u >= 0, ||u_m|| <= 1} per AP: stationarity u - x + lam*u - nu = 0 with
    nu >= 0, nu*u = 0, lam >= 0, lam*(||u||^2-1) = 0."""
    worst = 0.0
    for m in range(x.shape[1]):
        xm, um = x[:, m], u[:, m]
        nsq = float(um @ um)
        worst = max(worst, nsq - 1.0)                      # ball feasibility
        worst = max(worst, float((-um).max()))             # orthant feasibility
        lam = 0.0
        active = nsq > 1.0 - 1e-9
        if active:
            pos = um > 0
            if pos.any():
                lam = max(0.0, float(np.mean((xm[pos] - um[pos]) / um[pos])))
        nu = um - xm + lam * um
        worst = max(worst, float((-nu).max()))             # dual feasibility
        worst = max(worst, float(np.abs(nu * um).max()))   # complementary slackness
        if not active and nsq < 1.0 - 1e-9:
            worst = max(worst, abs(lam))
    return worst


class TestProjection:
    def test_interior_unchanged(self):
        x = np.array([[0.3], [0.4]])
        out = project_feasible(x)
        assert np.array_equal(out, x)

    def test_clip_then_scale(self):
        out = project_feasible(np.array([[-1.0], [2.0]]))
        assert np.array_equal(out, np.array([[0.0], [1.0]]))

    def test_flat_vector_api(self):
        out = project_feasible(np.array([-1.0, 0.5, 2.0, 0.5]), num_aps=2)
        assert out.shape == (2, 2)
        assert is_feasible(out)

    def test_flat_requires_num_aps(self):
        with pytest.raises(ValueError):
            project_feasible(np.ones(4))

    def test_idempotent_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.normal(scale=2.0, size=(3, 5))
            once = project_feasible(x)
            twice = project_feasible(once)
            assert np.array_equal(once, twice)

    def test_nonexpansive(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = rng.normal(scale=2.0, size=(4, 3))
            y = rng.normal(scale=2.0, size=(4, 3))
            px = project_feasible(x)
            py = project_feasible(y)
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12

    def test_kkt_conditions(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            x = rng.normal(scale=1.5, size=(3, 4))
            u = project_feasible(x)
            assert projection_kkt_residual(x, u) <= 1e-8

    def test_against_dykstra(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(scale=1.5, size=(10, 2))  # 10-dim per-AP blocks
            u = project_feasible(x)
            ref = dykstra_projection(x)
            assert np.allclose(u, ref, atol=1e-8)


class TestSmoothObjective:
    def test_equal_rates_identity(self):
        # identical users across symmetric groups tie exactly under EPA
        dims = Dimensions(3, 2, (2, 2))
        zeta = np.tile(np.array([[1.0], [2.0], [0.5]]), (1, 4))
        inst = NetworkInstance(dims, zeta, 0.3 * zeta, 1.0, 0.2, 0.2,
                               config=PhysicalConfig(pilot_len_symbols=2))
        model = build_rate_model(inst)
        mu = epa_power(3, 2)
        rates = rates_vector(model, mu).rates
        assert np.all(rates == rates[0])
        assert smooth_objective(model, mu, 123.0) == rates[0]

    def test_sandwich_bound(self, small_model):
        # min_rate <= smooth_objective <= min_rate + ln(T)/sigma at random
        # feasible points of small_model and of five random group layouts
        rng = np.random.default_rng(4)
        models = [small_model] + [make_model(int(rng.integers(2, 12)), int(rng.integers(1, 4)),
                                             int(rng.integers(1, 5)), seed=seed)
                                  for seed in range(5)]
        for model in models:
            for sigma in (10.0, 100.0, 1e4):
                bound = math.log(model.num_users) / sigma
                for _ in range(50):
                    mat = random_feasible_matrix(model, rng)
                    f = min_rate(model, mat)
                    fs = smooth_objective(model, mat, sigma)
                    assert f <= fs <= f + bound + 1e-12

    def test_sigma_must_be_positive(self, small_model):
        with pytest.raises(ValueError):
            apg_solve(small_model, sigma=0.0)

    # a stage keeps max_iters + 1 trace entries
    @pytest.mark.parametrize("key,bad", [("max_iters", -1), ("max_iters", math.nan),
                                         ("stop_tol", math.nan), ("stop_tol", math.inf),
                                         ("stop_tol", -1e-9)])
    def test_apg_config_validation(self, key, bad):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            ApgConfig(**{key: bad})

    @pytest.mark.parametrize("bad", [{"stop_window": 0}, {"stop_window": -50, "max_iters": 200},
                                     {"max_iters": -1}])
    def test_apg_config_rejects_bad_stop_window_and_max_iters(self, bad):
        # the plateau window is the constant STOP_WINDOW, so a config that
        # still names stop_window fails instead of being ignored
        if "stop_window" in bad:
            error, match = TypeError, "stop_window"
        else:
            error, match = ValueError, "^max_iters must be"
        with pytest.raises(error, match=match):
            ApgConfig(**bad)


def soft_min(values, sigma):
    """The solvers' soft minimum -ln(mean(exp(-sigma*v)))/sigma."""
    return _soft_min(np.asarray(values, dtype=float), sigma)[3]


class TestSoftMinHelper:
    def test_equal_values_identity(self):
        assert soft_min(np.full(7, 1.25), sigma=100.0) == 1.25

    def test_hand_value(self):
        # two values {0, 1} at sigma = 1: -ln((1 + e^-1)/2)
        expected = -math.log(0.5 * (1.0 + math.exp(-1.0)))
        assert soft_min([0.0, 1.0], 1.0) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(0.3799, abs=1e-4)

    def test_sandwich(self):
        rng = np.random.default_rng(2)
        vals = rng.uniform(0.0, 2.0, size=11)
        for sigma in (10.0, 1e4):
            s = soft_min(vals, sigma)
            assert vals.min() <= s <= vals.min() + math.log(len(vals)) / sigma


class TestSmoothGradient:
    def test_finite_differences(self):
        rng = np.random.default_rng(5)
        step = 1e-6
        for seed in range(3):
            model = make_model(6, 2, 2, seed=seed)
            for _ in range(10):
                mat = random_feasible_matrix(model, rng, scale=0.5)
                grad = smooth_gradient(model, mat, 100.0)
                assert grad.shape == mat.shape
                fd = np.empty_like(grad)
                for i in np.ndindex(mat.shape):
                    up = mat.copy(); up[i] += step
                    dn = mat.copy(); dn[i] -= step
                    fd[i] = (
                        smooth_objective(model, up, 100.0)
                        - smooth_objective(model, dn, 100.0)
                    ) / (2 * step)
                err = np.abs(fd - grad).max() / max(np.abs(fd).max(), 1e-12)
                assert err < 1e-5

    def test_single_user_equals_rate_gradient(self):
        model = make_model(5, 1, 1, seed=1)
        rng = np.random.default_rng(6)
        mat = random_feasible_matrix(model, rng)
        # with one user the softmax weight degenerates to 1 for any sigma
        g1 = smooth_gradient(model, mat, 7.0)
        g2 = smooth_gradient(model, mat, 9000.0)
        np.testing.assert_allclose(g1, g2, rtol=1e-12)

    def test_zero_block_gradient(self):
        model = make_model(4, 2, 1, seed=2)
        mat = np.zeros((2, 4))
        mat[0] = 0.5
        grad = smooth_gradient(model, mat, 100.0)
        assert np.all(grad[1] == 0.0)

    def test_block_sparsity_of_rate_gradient(self):
        # a single user's rate gradient lives in its own group block
        model = make_model(4, 2, 1, seed=3)
        rng = np.random.default_rng(7)
        mat = random_feasible_matrix(model, rng)
        base = user_rate(model, mat, 0, 0)
        bumped = mat.copy()
        bumped[1, 2] += 1e-3
        assert user_rate(model, bumped, 0, 0) == base


class TestApgSolve:
    def test_scalar_problem_full_power(self):
        model = make_model(1, 1, 1, seed=4)
        report = apg_solve(model)
        assert report.power[0, 0] == pytest.approx(1.0, abs=1e-6)
        # grid-search oracle over the 1-D feasible interval
        grid = np.linspace(0.0, 1.0, 20001)
        best = max(user_rate(model, np.array([[g]]), 0, 0) for g in grid)
        assert report.min_rate == pytest.approx(best, abs=1e-8)

    def test_monotone_trace(self, small_model):
        report = apg_solve(small_model)
        assert np.all(np.diff(report.trace_f_sigma) >= 0)

    def test_final_feasible_and_sandwich(self, small_model):
        report = apg_solve(small_model)
        assert is_feasible(report.power)
        bound = math.log(small_model.num_users) / report.sigma
        assert np.all(report.trace_f_true <= report.trace_f_sigma + 1e-12)
        assert np.all(report.trace_f_sigma <= report.trace_f_true + bound + 1e-12)

    def test_t_sequence_recurrence(self):
        t = [1.0, 1.0]
        for _ in range(500):
            t.append(0.5 + math.sqrt(t[-1] ** 2 + 0.25))
        # grows like n/2 (asymptotically, up to a logarithmic correction)
        assert t[500] == pytest.approx(500 / 2, rel=0.02)
        for i in range(2, 500):
            assert t[i] == 0.5 + math.sqrt(t[i - 1] ** 2 + 0.25)

    def test_symmetric_instance_equalizes_groups(self):
        # identical users across two groups: the optimum serves both equally
        dims = Dimensions(6, 2, (2, 2))
        rng = np.random.default_rng(8)
        col = rng.uniform(0.5, 2.0, size=(6, 1))
        zeta = np.tile(col, (1, 4))
        inst = NetworkInstance(dims, zeta, 0.35 * zeta, 1.0, 0.2, 0.2,
                               config=PhysicalConfig(pilot_len_symbols=2))
        model = build_rate_model(inst)
        report = apg_solve(model)
        rates = rates_vector(model, report.power).rates
        assert abs(rates[:2].min() - rates[2:].min()) < 1e-6

    def test_never_below_epa_smoothed(self, small_model):
        report = apg_solve(small_model)
        mu0 = epa_power(small_model.num_aps, small_model.num_groups)
        assert report.f_sigma >= smooth_objective(small_model, mu0, report.sigma) - 1e-12

    def test_deterministic(self, small_model):
        a = apg_solve(small_model, clock=lambda: 0.0)
        b = apg_solve(small_model, clock=lambda: 0.0)
        assert np.array_equal(a.power, b.power)
        assert np.array_equal(a.trace_f_sigma, b.trace_f_sigma)

    def test_mu0_validation(self, small_model):
        with pytest.raises(ValueError):
            apg_solve(small_model, mu0=np.zeros((2, small_model.num_aps)))
        too_big = np.full((2, small_model.num_aps), 0.9)
        with pytest.raises(ValueError):
            apg_solve(small_model, mu0=too_big)

    def test_continuation_schedule(self, small_model):
        reports = apg_solve_continuation(small_model, (100.0, 1000.0))
        assert len(reports) == 2
        assert reports[1].sigma == 1000.0
        # refining the smoothing cannot lose true min-rate beyond tolerance
        assert reports[1].min_rate >= reports[0].min_rate - 1e-6
        with pytest.raises(ValueError):
            apg_solve_continuation(small_model, ())

    def test_trace_csv(self, small_model, tmp_path):
        report = apg_solve(small_model)
        path = tmp_path / "trace.csv"
        report.write_trace_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ("iter,f_sigma_nats,f_true_nats,alpha_y,alpha_mu,"
                            "backtracks_y,backtracks_mu,elapsed_s")
        assert len(lines) == 1 + len(report.trace_f_sigma)


class TestDriver:
    def test_line_search_error_on_inconsistent_objective(self):
        # a NaN objective can never satisfy the sufficient-increase test
        def bad_value(x):
            return float("nan"), 0.0

        def bad_value_grad(x):
            return float("nan"), 0.0, np.ones_like(x)

        with pytest.raises(LineSearchError):
            monotone_apg(bad_value_grad, bad_value, lambda x: x,
                         np.full((1, 2), 0.5), ApgConfig(max_iters=3))

    def test_stalled_when_value_and_value_grad_round_apart(self):
        """With a zero gradient every trial is the iterate itself, and a
        value_grad one ulp above value fails every sufficient-increase test:
        the step has underflowed, so the run ends "stalled", not raising."""
        f_mu = 0.25

        def value(x):
            return f_mu, 0.0

        def value_grad(x):
            return math.nextafter(f_mu, math.inf), 0.0, np.zeros_like(x)

        x0 = np.full((1, 2), 0.5)
        res = monotone_apg(value_grad, value, lambda x: x, x0, ApgConfig(max_iters=3))
        assert (res.termination, res.iterations) == ("stalled", 0)
        np.testing.assert_array_equal(res.x, x0)
        assert list(res.trace_f) == [f_mu]

    def test_driver_matches_fused_solver(self, small_model):
        from test_native import objective_closures

        mat0 = epa_power(small_model.num_aps, small_model.num_groups)
        cfg = ApgConfig(max_iters=200, stop_tol=0.0)
        res = monotone_apg(*objective_closures(small_model, 100.0), mat0, cfg)
        rep = apg_solve(small_model, cfg=cfg)
        assert res.f == pytest.approx(rep.f_sigma, rel=1e-12)
        np.testing.assert_allclose(res.x, rep.power, rtol=1e-10, atol=1e-14)
