"""The compiled small-scale pipeline against a complex-arithmetic reference
fed by the numpy port of its normal generator (normals_reference): the same
draws (g bit-identical, z to rounding) and the same Monte-Carlo rate
report."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellfree_maxmin import (
    Dimensions,
    MonteCarloRateReport,
    PhysicalConfig,
    generate_instance,
    rate_oracle_monte_carlo,
)
from cellfree_maxmin.harness import random_feasible_power
from cellfree_maxmin.netgen import SMALLSCALE_BLOCK, iter_smallscale_blocks
from conftest import sampled_draws
from normals_reference import OUTCOMES, SLOW_OUTCOMES, block_normals

# (num_aps, group_sizes): equal, single-user, unequal, many-group and
# single-AP shapes. The compiled pass draws its APs in chunks of at least 64
# entries (T + N per AP): one chunk of all 8 APs at (8, 2x3), 6 + 4 APs at
# (10, 2x5x1), 8 + 5 at (13, 2x3), 32 + 4 at (36, 1) and 32 + 8 at (40, 1),
# the shapes with one user and one group per AP. At (40, 1) the standard
# error needs the slack for the cancellation in cov_mean (reference_oracle).
SHAPES = [(8, (3, 3)), (4, (1,)), (10, (2, 5, 1)), (20, (4, 4, 4, 4)), (1, (1, 1)),
          (13, (3, 3)), (36, (1,)), (40, (1,))]
# a multiple of neither the block size nor the pass's 8 draw slots
DRAWS = 2 * SMALLSCALE_BLOCK + 1234


def reference_complex_normal(normals, variance=1.0):
    scale = np.sqrt(variance / 2.0)
    return scale * (normals[0] + 1j * normals[1])


def reference_block(instance, seed, block_idx, count):
    dims = instance.dims
    m, t = instance.zeta.shape
    rt = instance.rho_p_w * instance.config.pilot_len_symbols
    g_normals, w_normals = block_normals(seed, block_idx, count, m, t, dims.num_groups)
    g = reference_complex_normal(g_normals)
    w = reference_complex_normal(w_normals, variance=instance.noise_variance_w)
    h = np.sqrt(instance.zeta)[None, :, :] * g
    ptr = instance.group_ptr
    z = np.empty((count, m, dims.num_groups), dtype=complex)
    for n in range(dims.num_groups):
        lo, hi = ptr[n], ptr[n + 1]
        ytilde = np.sqrt(rt) * h[:, :, lo:hi].sum(axis=2) + w[:, :, n]
        denom = rt * instance.zeta[:, lo:hi].sum(axis=1) + instance.noise_variance_w
        z[:, :, n] = ytilde / np.sqrt(denom)[None, :]
    return g, z


def reference_blocks(instance, count, seed):
    done = block_idx = 0
    while done < count:
        n = min(SMALLSCALE_BLOCK, count - done)
        yield reference_block(instance, seed, block_idx, n)
        done += n
        block_idx += 1


def reference_oracle(instance, mu, draws, seed):
    """The per-group einsum oracle, moments and delta-method tail: (report,
    se_scale). se_scale is the standard error formed from the uncancelled
    term s2/draws of cov_mean alone, over absolute values: the scale of the
    rounding that the cancellation s2/draws - theta theta^T leaves in the
    standard error, in either summation order."""
    dims = instance.dims
    ptr = instance.group_ptr
    n_groups = dims.num_groups
    t_users = dims.num_users
    d = 3 + (n_groups - 1)
    s1 = np.zeros((t_users, d))
    s2 = np.zeros((t_users, d, d))
    sqrt_zeta = np.sqrt(instance.zeta)
    for g, z in reference_blocks(instance, draws, seed):
        h = sqrt_zeta[None, :, :] * g
        phase = z / np.abs(z)
        for n in range(n_groups):
            lo, hi = int(ptr[n]), int(ptr[n + 1])
            hw = h[:, :, lo:hi] * mu[n][None, :, None]
            a = np.einsum("bmk,bm->bk", hw, np.conj(phase[:, :, n]))
            x = np.empty((a.shape[0], hi - lo, d))
            x[:, :, 0] = a.real
            x[:, :, 1] = a.imag
            x[:, :, 2] = np.abs(a) ** 2
            col = 3
            for j in range(n_groups):
                if j == n:
                    continue
                aj = np.einsum("bmk,bm->bk", hw, np.conj(phase[:, :, j]))
                x[:, :, col] = np.abs(aj) ** 2
                col += 1
            s1[lo:hi] += x.sum(axis=0)
            s2[lo:hi] += np.einsum("bkp,bkq->kpq", x, x)

    theta = s1 / draws
    if draws > 1:
        cov_mean = (s2 / draws - np.einsum("kp,kq->kpq", theta, theta)) / (draws - 1)
    else:
        cov_mean = np.zeros_like(s2)
    rho = instance.rho_d_w
    x0, y0, m2 = theta[:, 0], theta[:, 1], theta[:, 2]
    csum = theta[:, 3:].sum(axis=1) if d > 3 else np.zeros(t_users)
    e2 = x0 * x0 + y0 * y0
    total = rho * m2 + rho * csum + instance.noise_variance_w
    den = total - rho * e2
    grad = np.zeros((t_users, d))
    grad[:, 0] = 2.0 * rho * x0 / den
    grad[:, 1] = 2.0 * rho * y0 / den
    grad[:, 2:] = (rho / total - rho / den)[:, None]
    var_rate = np.einsum("kp,kpq,kq->k", grad, cov_mean, grad)
    var_scale = np.einsum("kp,kpq,kq->k", np.abs(grad), np.abs(s2) / draws,
                          np.abs(grad)) / max(draws - 1, 1)
    report = MonteCarloRateReport(
        mean_gain=x0 + 1j * y0,
        gain_variance=np.maximum(m2 - e2, 0.0),
        cross_power=csum,
        rate_nats=np.log1p(rho * e2 / den),
        std_error=np.sqrt(np.maximum(var_rate, 0.0)),
        mean_gain_se=np.sqrt(np.maximum(cov_mean[:, 0, 0] + cov_mean[:, 1, 1], 0.0)),
        draws=draws,
    )
    return report, np.sqrt(var_scale)


@pytest.fixture(scope="module", params=SHAPES, ids=lambda s: f"M{s[0]}-{'x'.join(map(str, s[1]))}")
def instance(request):
    num_aps, sizes = request.param
    return generate_instance(Dimensions(num_aps, len(sizes), sizes), PhysicalConfig(), seed=3)


def test_draws_match_reference(instance):
    """Through mc_pilot, with normals that leave the slow path each way; the
    reference lays out each draw's entries as g's (m, k), then the pilot
    noise's (m, n)."""
    g, z = sampled_draws(instance, DRAWS, seed=5)
    SLOW_OUTCOMES.clear()
    g_ref, z_ref = map(np.concatenate, zip(*reference_blocks(instance, DRAWS, 5)))
    assert min(SLOW_OUTCOMES[k] for k in OUTCOMES) > 10, SLOW_OUTCOMES
    assert g.shape == g_ref.shape and z.shape == z_ref.shape
    assert np.array_equal(g, g_ref)
    # the pilot sums run in another order; relative to the largest |z|, as
    # single entries near zero come out of cancellation
    assert np.abs(z - z_ref).max() <= 1e-14 * np.abs(z_ref).max()


def test_blocks_are_real_parts(instance):
    """The run cut at SMALLSCALE_BLOCK draws, each block in its own real
    arrays: Re g, Im g (n, M, T), then Re z, Im z (n, M, N)."""
    blocks = list(iter_smallscale_blocks(instance, DRAWS, seed=5))
    assert [b.g_re.shape[0] for b in blocks] == [SMALLSCALE_BLOCK, SMALLSCALE_BLOCK, 1234]
    m, t = instance.zeta.shape
    n_groups = instance.dims.num_groups
    for b in blocks:
        assert [a.shape[1:] for a in b] == [(m, t), (m, t), (m, n_groups), (m, n_groups)]
        assert all(a.dtype == np.float64 for a in b)
    assert not np.shares_memory(blocks[0].g_re, blocks[1].g_re)


def log_terms(ref, instance):
    """|log(total)| + |log(den)| of each user's rate from the reference's
    moments: the scale of the rounding of log(total) - log(den), the form the
    rate had before log1p(rho e2 / den)."""
    rho = instance.rho_d_w
    e2 = np.abs(ref.mean_gain) ** 2
    total = rho * (ref.gain_variance + e2 + ref.cross_power) + instance.noise_variance_w
    return np.abs(np.log(total)) + np.abs(np.log(total - rho * e2))


def assert_report_matches(got, ref, se_scale, instance, rate_atol=0.0):
    """Every field to rtol 1e-12; the standard error also to 1e-12 of
    se_scale (reference_oracle), the rate also to rate_atol."""
    for field in dataclasses.fields(MonteCarloRateReport):
        a, b = getattr(got, field.name), getattr(ref, field.name)
        if field.name == "rate_nats":
            assert (np.abs(a - b) <= 1e-12 * np.abs(b) + rate_atol).all(), (a, b)
        elif field.name == "std_error":
            assert (np.abs(a - b) <= 1e-12 * (np.abs(b) + se_scale)).all(), (a, b)
        elif field.name == "draws":
            assert a == b
        elif field.name == "cross_power" and instance.dims.num_groups == 1:
            assert np.array_equal(a, b)
        else:
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0, err_msg=field.name)


def test_report_matches_reference(instance):
    """Through mc_block, with normals that leave the slow path each way."""
    mu = random_feasible_power(instance.dims, seed=4)
    got = rate_oracle_monte_carlo(instance, mu, DRAWS, seed=6)
    SLOW_OUTCOMES.clear()
    ref, se_scale = reference_oracle(instance, mu, DRAWS, seed=6)
    assert min(SLOW_OUTCOMES[k] for k in OUTCOMES) > 10, SLOW_OUTCOMES
    assert_report_matches(got, ref, se_scale, instance)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(num_aps=st.integers(1, 6), group_sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       draws=st.integers(16, 600), seed=st.integers(0, 2 ** 16))
def test_report_matches_reference_on_small_shapes(num_aps, group_sizes, draws, seed):
    """Random small shapes and draw counts that end mid-pass of the compiled
    block; at least 16 draws, so that the sample variances are not rounding
    noise of the reference's |a|^2. A rate is also allowed rtol 1e-12 of
    the two logs of about 30 (noise power near 1e-13 W) whose difference it
    was before both sides took log1p."""
    dims = Dimensions(num_aps, len(group_sizes), tuple(group_sizes))
    instance = generate_instance(dims, PhysicalConfig(), seed=seed)
    mu = random_feasible_power(dims, seed=seed + 1)
    got = rate_oracle_monte_carlo(instance, mu, draws, seed=seed + 2)
    ref, se_scale = reference_oracle(instance, mu, draws, seed=seed + 2)
    assert_report_matches(got, ref, se_scale, instance,
                          rate_atol=1e-12 * log_terms(ref, instance))
