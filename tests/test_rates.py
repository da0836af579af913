import math

import numpy as np
import pytest

from cellfree_maxmin import (
    Dimensions,
    NetworkInstance,
    PhysicalConfig,
    build_rate_model,
    epa_power,
    epa_rates,
    generate_instance,
    is_feasible,
    min_rate,
    rate_oracle_monte_carlo,
    rates_vector,
    user_rate,
)
from conftest import random_feasible_matrix

PI = math.pi


def rate_eta_form(instance, eta, n, u):
    """Independent scalar evaluation of the rate from the power coefficients
    eta (the pre-substitution form, unnormalized noise)."""
    rho, sig2 = instance.rho_d_w, instance.noise_variance_w
    n_groups = instance.dims.num_groups
    num = 0.25 * PI * rho * sum(
        math.sqrt(eta[m, n] * instance.gamma[m, u]) for m in range(instance.dims.num_aps)
    ) ** 2
    den = rho * sum(
        eta[m, n] * (n_groups * instance.zeta[m, u] - 0.25 * PI * instance.gamma[m, u])
        for m in range(instance.dims.num_aps)
    ) + sig2
    return math.log1p(num / den)


def epa_direct_form(instance, u):
    """Independent evaluation of the equal-power special case."""
    rho, sig2 = instance.rho_d_w, instance.noise_variance_w
    n_groups = instance.dims.num_groups
    m_aps = instance.dims.num_aps
    num = (PI * rho / (4 * n_groups)) * sum(
        math.sqrt(instance.gamma[m, u]) for m in range(m_aps)
    ) ** 2
    den = rho * sum(
        instance.zeta[m, u] - (PI / (4 * n_groups)) * instance.gamma[m, u] for m in range(m_aps)
    ) + sig2
    return math.log1p(num / den)


class TestPowerControl:
    """Power control is the (N, M) array mu; row n is group n's per-AP block."""

    def test_feasibility_predicate(self):
        assert is_feasible(np.array([[0.6], [0.8]]))
        assert not is_feasible(np.array([[0.8], [0.8]]))
        assert not is_feasible(np.array([[-0.1], [0.5]]))

    def test_epa_point(self):
        mu = epa_power(num_aps=4, num_groups=4)
        assert mu.shape == (4, 4)
        assert np.allclose(mu, 0.5)
        assert is_feasible(mu)

    def test_only_the_matrix_form_is_accepted(self, small_model):
        mat = epa_power(small_model.num_aps, small_model.num_groups)
        for wrong in (mat.ravel(), mat.T, mat[:, :-1]):
            with pytest.raises(ValueError, match="N, M"):
                rates_vector(small_model, wrong)


class TestRateModel:
    def test_interference_diag_substitution(self):
        # gamma = zeta/2 with a single group: entries sqrt(zeta * (1 - pi/8))
        dims = Dimensions(2, 1, (1,))
        zeta = np.array([[2.0], [3.0]])
        inst = NetworkInstance(dims, zeta, 0.5 * zeta, 1.0, 0.2, 0.2,
                               config=PhysicalConfig(pilot_len_symbols=1))
        model = build_rate_model(inst)
        assert np.allclose(
            np.sqrt(model.a_sq[0]),
            np.sqrt(zeta[:, 0] * (1.0 - PI / 8.0)),
            rtol=1e-15,
        )

    def test_group_count_shifts_diagonal(self):
        zeta = np.array([[2.0, 2.0]])
        gamma = np.array([[0.5, 0.5]])
        one = NetworkInstance(Dimensions(1, 1, (2,)), zeta, gamma, 1.0, 0.2, 0.2,
                              config=PhysicalConfig(pilot_len_symbols=1))
        two = NetworkInstance(Dimensions(1, 2, (1, 1)), zeta, gamma, 1.0, 0.2, 0.2,
                              config=PhysicalConfig(pilot_len_symbols=2))
        m1 = build_rate_model(one)
        m2 = build_rate_model(two)
        # doubling N adds exactly N*zeta = 2.0 to each squared entry
        assert np.allclose(m2.a_sq - m1.a_sq, zeta.T, rtol=1e-15)

    def test_scalar_reimplementation(self, small_instance, small_model):
        inst, model = small_instance, small_model
        n_groups = inst.dims.num_groups
        for u in range(inst.dims.num_users):
            for m in range(inst.dims.num_aps):
                expected = math.sqrt(
                    n_groups * inst.zeta[m, u] - 0.25 * PI * inst.gamma[m, u]
                )
                assert np.sqrt(model.a_sq[u, m]) == pytest.approx(expected, rel=1e-14)

    def test_rejects_corrupted_instance(self):
        # gamma < zeta makes the diagonal positive for every valid instance,
        # so corrupting gamma requires bypassing the dataclass validation
        dims = Dimensions(1, 1, (1,))
        good = NetworkInstance(dims, np.array([[1.0]]), np.array([[0.999]]), 1.0, 0.2, 0.2,
                               config=PhysicalConfig(pilot_len_symbols=1))
        build_rate_model(good)
        corrupted = object.__new__(NetworkInstance)
        for name, value in vars(good).items():
            object.__setattr__(corrupted, name, value)
        object.__setattr__(corrupted, "gamma", np.array([[5.0]]))
        with pytest.raises(ValueError, match="corrupted"):
            build_rate_model(corrupted)


class TestUserRate:
    def test_zero_power(self, small_model):
        mu = np.zeros((2, small_model.num_aps))
        assert user_rate(small_model, mu, 0, 0) == 0.0
        assert min_rate(small_model, mu) == 0.0

    def test_scalar_closed_form(self):
        dims = Dimensions(1, 1, (1,))
        inst = generate_instance(dims, PhysicalConfig(pilot_len_symbols=1), seed=2)
        model = build_rate_model(inst)
        rho = inst.rho_d_w / inst.noise_variance_w
        g, z = inst.gamma[0, 0], inst.zeta[0, 0]
        expected = math.log1p(
            0.25 * PI * rho * g / (rho * (z - 0.25 * PI * g) + 1.0)
        )
        assert user_rate(model, np.ones((1, 1)), 0, 0) == pytest.approx(expected, rel=1e-12)

    def test_eta_form_equivalence(self, small_instance, small_model):
        rng = np.random.default_rng(3)
        for _ in range(5):
            mat = random_feasible_matrix(small_model, rng)
            eta = (mat ** 2).T
            rv = rates_vector(small_model, mat)
            ptr = small_model.group_ptr
            for n in range(small_model.num_groups):
                for u in range(ptr[n], ptr[n + 1]):
                    assert rv.rates[u] == pytest.approx(
                        rate_eta_form(small_instance, eta, n, u), rel=1e-12
                    )

    def test_invariant_to_other_groups(self, small_model):
        rng = np.random.default_rng(4)
        mat = random_feasible_matrix(small_model, rng)
        r0 = user_rate(small_model, mat, 0, 1)
        perturbed = mat.copy()
        perturbed[1] *= 0.3  # other group's block
        assert user_rate(small_model, perturbed, 0, 1) == r0

    def test_numerator_monotone(self, small_model):
        rng = np.random.default_rng(5)
        mat = random_feasible_matrix(small_model, rng, scale=0.4)
        gs = small_model.gamma_sqrt
        p = gs[0] @ mat[0]
        bumped = mat.copy()
        bumped[0, 3] += 0.05
        assert gs[0] @ bumped[0] >= p


class TestEpaRates:
    def test_matches_user_rate_exactly(self, small_model):
        epa = epa_rates(small_model)
        mu = epa_power(small_model.num_aps, small_model.num_groups)
        direct = rates_vector(small_model, mu)
        assert np.array_equal(epa.rates, direct.rates)

    def test_single_group_is_full_power(self):
        dims = Dimensions.uniform(4, 1, 2)
        model = build_rate_model(generate_instance(dims, PhysicalConfig(), seed=6))
        epa = epa_rates(model)
        ones = rates_vector(model, np.ones((1, 4)))
        assert np.array_equal(epa.rates, ones.rates)

    def test_direct_special_case_form(self, small_instance, small_model):
        epa = epa_rates(small_model)
        for u in range(small_model.num_users):
            assert epa.rates[u] == pytest.approx(epa_direct_form(small_instance, u), rel=1e-13)


class TestMinRate:
    def test_brute_force(self, small_model):
        rng = np.random.default_rng(7)
        mat = random_feasible_matrix(small_model, rng)
        rv = rates_vector(small_model, mat)
        assert min_rate(small_model, mat) == rv.rates.min()


class TestRateVectorExport:
    def test_rows_and_units(self, small_model, tmp_path):
        # repr round-trips, so the file's bits are exactly its nats / ln 2
        path = tmp_path / "rates.csv"
        epa_rates(small_model).write_csv(path)
        rows = path.read_text().strip().splitlines()[1:]
        assert len(rows) == small_model.num_users
        assert rows[0].split(",")[:2] == ["0", "0"]
        for row in rows:
            nats, bits = (float(x) for x in row.split(",")[2:])
            assert bits == nats / math.log(2.0)

    def test_csv(self, small_model, tmp_path):
        path = tmp_path / "rates.csv"
        epa_rates(small_model).write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "group,user,rate_nats,rate_bits"
        assert len(lines) == 1 + small_model.num_users


class TestMonteCarloOracle:
    def test_zero_eta(self, small_instance):
        mu = np.zeros((small_instance.dims.num_groups, small_instance.dims.num_aps))
        rep = rate_oracle_monte_carlo(small_instance, mu, draws=2000, seed=0)
        assert np.all(rep.rate_nats == 0.0)
        assert np.all(rep.std_error == 0.0)
        assert np.all(rep.mean_gain == 0.0)

    def test_single_group_closed_form(self):
        dims = Dimensions.uniform(4, 1, 1)
        inst = generate_instance(dims, PhysicalConfig(), seed=8)
        model = build_rate_model(inst)
        mu = np.full((1, 4), math.sqrt(0.7))
        rep = rate_oracle_monte_carlo(inst, mu, draws=200_000, seed=8)
        closed = rates_vector(model, mu).rates
        assert rep.n_std_errs(closed).max() < 3.0

    def test_mean_gain_moment(self, small_instance):
        inst = small_instance
        rng = np.random.default_rng(9)
        eta = rng.uniform(0.05, 0.45, size=(inst.dims.num_aps, inst.dims.num_groups))
        rep = rate_oracle_monte_carlo(inst, np.sqrt(eta.T), draws=150_000, seed=9)
        ptr = inst.group_ptr
        for n in range(inst.dims.num_groups):
            for u in range(ptr[n], ptr[n + 1]):
                predicted = 0.5 * math.sqrt(PI) * np.sqrt(eta[:, n] * inst.gamma[:, u]).sum()
                err = abs(rep.mean_gain[u] - predicted)
                assert err < 3.0 * rep.mean_gain_se[u]
                # the imaginary part vanishes in expectation
                assert abs(rep.mean_gain[u].imag) < 3.0 * rep.mean_gain_se[u]

    def test_two_group_random_eta(self, small_instance, small_model):
        rng = np.random.default_rng(10)
        mat = random_feasible_matrix(small_model, rng)
        rep = rate_oracle_monte_carlo(small_instance, mat, draws=200_000, seed=10)
        closed = rates_vector(small_model, mat).rates
        assert rep.n_std_errs(closed).max() < 3.0

    def test_deterministic(self, small_instance):
        mu = np.full((small_instance.dims.num_groups, small_instance.dims.num_aps),
                     math.sqrt(0.3))
        a = rate_oracle_monte_carlo(small_instance, mu, draws=9000, seed=11)
        b = rate_oracle_monte_carlo(small_instance, mu, draws=9000, seed=11)
        assert np.array_equal(a.rate_nats, b.rate_nats)
        assert np.array_equal(a.std_error, b.std_error)

    def test_rejects_bad_eta(self, small_instance):
        shape = (small_instance.dims.num_groups, small_instance.dims.num_aps)
        # the transposed (M, N) layout, M != N, and a flat vector
        for wrong in (np.zeros(shape[::-1]), np.zeros(shape).ravel(), np.zeros((3, 3))):
            with pytest.raises(ValueError, match="N, M"):
                rate_oracle_monte_carlo(small_instance, wrong, 10, 0)
        with pytest.raises(ValueError, match="nonnegative"):
            rate_oracle_monte_carlo(small_instance, np.full(shape, -0.1), 10, 0)

    @pytest.mark.parametrize("bad", [True, 1000.0, 0, -5])
    def test_rejects_draws_that_are_not_a_positive_integer(self, small_instance, bad):
        # True would run one draw and report draws=True
        mu = epa_power(small_instance.dims.num_aps, small_instance.dims.num_groups)
        with pytest.raises(ValueError, match="draws must be"):
            rate_oracle_monte_carlo(small_instance, mu, bad, 0)

    @pytest.mark.parametrize("bad", [1.5, True, -1])
    def test_rejects_seeds_that_are_not_a_nonnegative_integer(self, small_instance, bad):
        mu = epa_power(small_instance.dims.num_aps, small_instance.dims.num_groups)
        with pytest.raises(ValueError, match="seed must be"):
            rate_oracle_monte_carlo(small_instance, mu, 10, bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_eta(self, small_instance, bad):
        shape = (small_instance.dims.num_groups, small_instance.dims.num_aps)
        with pytest.raises(ValueError, match="finite"):
            rate_oracle_monte_carlo(small_instance, np.full(shape, bad), 10, 0)
        mu = np.full(shape, 0.2)
        mu[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            rate_oracle_monte_carlo(small_instance, mu, 10, 0)
