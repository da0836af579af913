import json
import math

import numpy as np
import pytest

from cellfree_maxmin import (
    Dimensions,
    PhysicalConfig,
    generate_geometry,
    generate_instance,
    instance_from_json,
    instance_to_json,
    large_scale_fading,
    noise_power,
)
from cellfree_maxmin.netgen import (
    BOLTZMANN_J_PER_K,
    gamma_coefficients,
    iter_smallscale_blocks,
    path_loss_db,
    smallscale_key,
    stream_rng,
)
from conftest import sampled_draws


def test_dimensions_validation():
    with pytest.raises(ValueError):
        Dimensions(0, 1, (1,))
    with pytest.raises(ValueError):
        Dimensions(1, 2, (1,))
    with pytest.raises(ValueError):
        Dimensions(1, 1, (0,))
    d = Dimensions.uniform(3, 2, 4)
    assert d.num_users == 8


def test_physical_config_validation():
    with pytest.raises(ValueError):
        PhysicalConfig(bandwidth_hz=0.0)
    with pytest.raises(ValueError):
        PhysicalConfig(pathloss_d0_m=50.0)


class TestNoisePower:
    def test_reference_constants(self):
        # 20 MHz, 290 K, 9 dB noise figure
        expected = 1.38e-23 * 290.0 * 20e6 * 10.0 ** 0.9
        got = noise_power(PhysicalConfig())
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(6.36e-13, rel=1e-2)

    def test_unit_case(self):
        cfg = PhysicalConfig(bandwidth_hz=1.0, temperature_k=1.0, noise_figure_db=0.0)
        assert noise_power(cfg) == pytest.approx(BOLTZMANN_J_PER_K, rel=1e-15)

    def test_linear_in_bandwidth(self):
        a = noise_power(PhysicalConfig(bandwidth_hz=20e6))
        b = noise_power(PhysicalConfig(bandwidth_hz=40e6))
        assert b == pytest.approx(2.0 * a, rel=1e-15)


class TestRngStreams:
    def test_seed_record_reproduces(self):
        a = stream_rng(7, 1).standard_normal(8)
        b = stream_rng(7, 1).standard_normal(8)
        assert np.array_equal(a, b)

    def test_streams_are_independent(self):
        geom = stream_rng(7, 0).standard_normal(8)
        shadow = stream_rng(7, 1).standard_normal(8)
        assert not np.array_equal(geom, shadow)

    def test_sub_key_is_its_own_stream(self):
        # the sub-key extends the seed sequence: (seed, stream, key...)
        keyed = stream_rng(7, 2, 5).standard_normal(8)
        same = np.random.default_rng(np.random.SeedSequence([7, 2, 5])).standard_normal(8)
        assert np.array_equal(keyed, same)
        assert not np.array_equal(keyed, stream_rng(7, 2).standard_normal(8))
        assert not np.array_equal(keyed, stream_rng(7, 2, 6).standard_normal(8))

    @pytest.mark.parametrize("bad", [1.5, 1.0, True, np.float64(2.0), "1", -1])
    def test_seed_must_be_a_nonnegative_integer(self, bad):
        # int() would take 1.5, 1.0 and True as seed 1
        for draw in (lambda: stream_rng(bad, 0), lambda: smallscale_key(bad),
                     lambda: generate_instance(Dimensions(2, 1, (1,)), PhysicalConfig(), bad)):
            with pytest.raises(ValueError, match="seed must be"):
                draw()

    def test_numpy_integer_seed_is_the_same_seed(self):
        assert smallscale_key(np.int64(3)) == smallscale_key(3)
        assert np.array_equal(stream_rng(np.uint32(3), 1).standard_normal(4),
                              stream_rng(3, 1).standard_normal(4))


class TestGeometry:
    def test_deterministic(self):
        dims = Dimensions.uniform(5, 2, 3)
        a1, u1 = generate_geometry(dims, 1000.0, seed=9)
        a2, u2 = generate_geometry(dims, 1000.0, seed=9)
        assert np.array_equal(a1, a2) and np.array_equal(u1, u2)

    def test_uniform_mean(self):
        dims = Dimensions(1, 1, (10_000,))
        _, users = generate_geometry(dims, 1000.0, seed=1)
        assert np.allclose(users.mean(axis=0), 500.0, rtol=0.01)

    def test_containment(self):
        dims = Dimensions.uniform(1, 1, 1)
        ap, user = generate_geometry(dims, 250.0, seed=3)
        assert ap.shape == (1, 2) and (ap >= 0).all() and (ap <= 250.0).all()
        assert (user >= 0).all() and (user <= 250.0).all()


class TestLargeScaleFading:
    def test_symmetry_without_shadowing(self):
        cfg = PhysicalConfig(shadow_std_db=1e-12)
        ap = np.array([[0.0, 0.0]])
        users = np.array([[100.0, 0.0], [0.0, 100.0]])  # equidistant
        zeta = large_scale_fading(ap, users, cfg, seed=0)
        assert zeta[0, 0] == pytest.approx(zeta[0, 1], rel=1e-9)

    def test_far_field_slope(self):
        # halving the distance in the 35 dB/decade region
        cfg = PhysicalConfig()
        ratio_db = path_loss_db(np.array([100.0]), cfg) - path_loss_db(np.array([200.0]), cfg)
        assert 10 ** (ratio_db[0] / 10.0) == pytest.approx(2.0 ** 3.5, rel=1e-12)

    def test_mid_slope_and_floor(self):
        cfg = PhysicalConfig()
        # 20 dB/decade between the breakpoints
        diff = path_loss_db(np.array([20.0]), cfg) - path_loss_db(np.array([40.0]), cfg)
        assert diff[0] == pytest.approx(20.0 * math.log10(2.0), rel=1e-12)
        # constant below the minimum distance
        assert path_loss_db(np.array([1.0]), cfg)[0] == path_loss_db(np.array([10.0]), cfg)[0]
        # continuous at the outer breakpoint
        eps = 1e-9
        assert path_loss_db(np.array([50.0]), cfg)[0] == pytest.approx(
            path_loss_db(np.array([50.0 + eps]), cfg)[0], abs=1e-6
        )

    def test_shadowing_standard_deviation(self):
        cfg = PhysicalConfig()
        ap = np.zeros((1, 2))
        users = np.column_stack([np.full(100_000, 300.0), np.zeros(100_000)])
        zeta = large_scale_fading(ap, users, cfg, seed=5)
        pl_lin = 10 ** (path_loss_db(np.array([300.0]), cfg)[0] / 10.0)
        shadow_db = 10.0 * np.log10(zeta[0] / pl_lin)
        assert shadow_db.std(ddof=1) == pytest.approx(9.0, rel=0.02)

    def test_no_shadowing_inside_breakpoint(self):
        cfg = PhysicalConfig()
        ap = np.zeros((1, 2))
        users = np.array([[30.0, 0.0]])
        z1 = large_scale_fading(ap, users, cfg, seed=1)
        z2 = large_scale_fading(ap, users, cfg, seed=2)
        assert z1[0, 0] == z2[0, 0]  # deterministic below d1


class TestGammaCoefficients:
    def test_hand_example(self):
        # one AP, one 2-user group: zeta = [1, 3], rho_p*tau_p = 2, sigma2 = 1
        dims = Dimensions(1, 1, (2,))
        zeta = np.array([[1.0, 3.0]])
        gamma = gamma_coefficients(zeta, dims, pilot_power_w=2.0, pilot_len_symbols=1.0,
                                   noise_variance_w=1.0)
        assert gamma[0, 0] == pytest.approx(2.0 / 9.0, rel=1e-15)
        assert gamma[0, 1] == pytest.approx(2.0, rel=1e-15)

    def test_scalar_reimplementation(self, small_instance):
        inst = small_instance
        rt = inst.rho_p_w * inst.config.pilot_len_symbols
        ptr = inst.group_ptr
        for m in range(inst.dims.num_aps):
            for n in range(inst.dims.num_groups):
                lo, hi = ptr[n], ptr[n + 1]
                denom = inst.noise_variance_w + rt * sum(inst.zeta[m, u] for u in range(lo, hi))
                for u in range(lo, hi):
                    expected = rt * inst.zeta[m, u] ** 2 / denom
                    assert inst.gamma[m, u] == pytest.approx(expected, rel=1e-13)

    def test_perfect_estimation_limit(self):
        dims = Dimensions(1, 1, (1,))
        zeta = np.array([[2.0]])
        gamma = gamma_coefficients(zeta, dims, 1e8, 1.0, 1.0)
        assert gamma[0, 0] / zeta[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_no_pilot_limit(self):
        dims = Dimensions(1, 1, (1,))
        zeta = np.array([[2.0]])
        gamma = gamma_coefficients(zeta, dims, 1e-12, 1.0, 1.0)
        assert gamma[0, 0] < 1e-10


class TestInstanceInvariants:
    def test_gamma_below_zeta(self, small_instance):
        assert (small_instance.gamma > 0).all()
        assert (small_instance.gamma < small_instance.zeta).all()

    def test_interference_diag_positive(self, small_instance):
        n = small_instance.dims.num_groups
        assert (n * small_instance.zeta - 0.25 * math.pi * small_instance.gamma > 0).all()

    def test_determinism(self):
        dims = Dimensions.uniform(6, 2, 2)
        a = generate_instance(dims, PhysicalConfig(), seed=11)
        b = generate_instance(dims, PhysicalConfig(), seed=11)
        assert np.array_equal(a.zeta, b.zeta) and np.array_equal(a.gamma, b.gamma)

    def test_zeta_independent_of_powers(self):
        dims = Dimensions.uniform(6, 2, 2)
        a = generate_instance(dims, PhysicalConfig(data_power_w=0.2, pilot_power_w=0.2), seed=11)
        b = generate_instance(dims, PhysicalConfig(data_power_w=0.7, pilot_power_w=0.05), seed=11)
        assert np.array_equal(a.zeta, b.zeta)
        assert not np.array_equal(a.gamma, b.gamma)

    def test_pilot_length_must_cover_groups(self):
        dims = Dimensions.uniform(4, 3, 1)
        with pytest.raises(ValueError):
            generate_instance(dims, PhysicalConfig(pilot_len_symbols=2), seed=0)


def block_sums(instance, count, seed, reduce):
    """Sum of reduce(block) over the draw blocks of iter_smallscale_blocks:
    the statistics below stream through the draws instead of holding them."""
    return sum(reduce(blk) for blk in iter_smallscale_blocks(instance, count, seed))


class TestSmallScale:
    def test_unit_variance(self, small_instance):
        count = 60_000
        total = block_sums(small_instance, count, 2, lambda b: (b.g_re ** 2 + b.g_im ** 2).sum())
        assert total / (count * small_instance.zeta.size) == pytest.approx(1.0, rel=5e-3)

    def test_estimator_correlation(self, small_instance):
        inst = small_instance
        count = 200_000
        ptr = inst.group_ptr
        first = ptr[:-1]  # first user of each group

        def cross(b):
            # sums over draws of g_mu * conj(z_mn) for u the first user of group n
            g_re, g_im = b.g_re[:, :, first], b.g_im[:, :, first]
            return np.stack([(g_re * b.z_re + g_im * b.z_im).sum(axis=0),
                             (g_im * b.z_re - g_re * b.z_im).sum(axis=0)])

        re, im = block_sums(inst, count, 7, cross) / count
        for n in range(inst.dims.num_groups):
            u = int(ptr[n])
            corr = np.sqrt(inst.zeta[:, u]) * (re[:, n] + 1j * im[:, n])
            assert np.allclose(np.abs(corr), np.sqrt(inst.gamma[:, u]), rtol=0.01)

    def test_unit_variance_z(self, small_instance):
        count = 60_000
        total = block_sums(small_instance, count, 3, lambda b: (b.z_re ** 2 + b.z_im ** 2).sum())
        size = count * small_instance.dims.num_aps * small_instance.dims.num_groups
        assert total / size == pytest.approx(1.0, rel=6e-3)

    def test_circular_symmetry(self, small_instance):
        count = 50_000

        def phase_sum(b):
            r = np.hypot(b.z_re, b.z_im)
            return np.array([(b.z_re / r).sum(), (b.z_im / r).sum()])

        n = count * small_instance.dims.num_aps * small_instance.dims.num_groups
        mean = block_sums(small_instance, count, 4, phase_sum) / n
        # 3 sigma for the mean of unit-modulus draws (per-axis var 1/2)
        assert abs(complex(*mean)) < 3.0 / math.sqrt(2 * n) * 2

    def test_block_determinism(self, small_instance):
        g1, z1 = sampled_draws(small_instance, 10_000, seed=5)
        g2, z2 = sampled_draws(small_instance, 10_000, seed=5)
        assert np.array_equal(g1, g2) and np.array_equal(z1, z2)
        # a shorter run is a prefix of a longer one (per-block substreams)
        g3, _ = sampled_draws(small_instance, 4_096, seed=5)
        assert np.array_equal(g1[:4096], g3)


class TestJsonRoundTrip:
    def test_value_exact(self, small_instance):
        text = instance_to_json(small_instance)
        back = instance_from_json(text)
        assert np.array_equal(back.zeta, small_instance.zeta)
        assert np.array_equal(back.gamma, small_instance.gamma)
        assert back.noise_variance_w == small_instance.noise_variance_w
        assert back.dims == small_instance.dims
        assert back.config == small_instance.config

    @pytest.mark.parametrize("field, value", [
        ("rho_d_w", -0.2), ("rho_d_w", 0.0), ("rho_d_w", math.inf),
        ("rho_p_w", -1.0), ("rho_p_w", math.nan),
        ("noise_variance_w", math.nan), ("noise_variance_w", 0.0), ("noise_variance_w", "1e-13"),
        ("zeta", math.inf), ("zeta", math.nan), ("gamma", math.nan), ("gamma", math.inf),
        ("seed", 1.5), ("seed", -1), ("seed", True),
    ])
    def test_non_physical_document_is_refused(self, small_instance, field, value):
        """Every number read from the document is checked: a ValueError names
        the field instead of a negative rate or a failed line search later.
        zeta and gamma are mutated in their first entry."""
        doc = json.loads(instance_to_json(small_instance))
        if field in ("zeta", "gamma"):
            doc[f"{field}_row_major"][0] = value
        else:
            doc[field] = value
        # json writes NaN and Infinity, which its reader takes back
        with pytest.raises(ValueError, match=f"^{field}"):
            instance_from_json(json.dumps(doc))

    def test_json_is_plain_document(self, small_instance):
        doc = json.loads(instance_to_json(small_instance))
        assert doc["dims"]["num_aps"] == small_instance.dims.num_aps
        assert len(doc["zeta_row_major"]) == small_instance.zeta.size
