"""The Monte-Carlo rate oracle's block pool: bit-identical reports for every
thread count, the draws of iter_smallscale_blocks reduced, errors raised inside a
worker, and bounded memory."""

import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from cellfree_maxmin import Dimensions, PhysicalConfig, generate_instance, rate_oracle_monte_carlo
from cellfree_maxmin import pool, rates
from cellfree_maxmin.harness import random_feasible_power
from cellfree_maxmin.netgen import (
    SMALLSCALE_BLOCK,
    block_sizes,
    iter_smallscale_blocks,
    pilot_model,
    smallscale_key,
)

DRAW_COUNTS = [1, SMALLSCALE_BLOCK + 5, 3 * SMALLSCALE_BLOCK + 77]

# tracemalloc peak of one 200k-draw call at M=8, 2x3 (seed 1) with the
# serial, whole-block oracle this pool replaced: every block's temporaries
# at once, 12_721_067 bytes measured (numpy 2.4, Python 3.11)
SERIAL_PEAK_BYTES = 12_721_067
# growth allowed from 50k to 200k draws: interpreter free lists (measured
# 15-45 KB, saturating); a scratch and sums kept per block would add 0.35 MB
FREE_LIST_SLACK_BYTES = 64 * 1024


def mc_case(num_aps=8, group_sizes=(3, 3), seed=1):
    dims = Dimensions(num_aps, len(group_sizes), group_sizes)
    return generate_instance(dims, PhysicalConfig(), seed), random_feasible_power(dims, seed)


def serial_report(instance, mu, draws, seed):
    """The reduction without the pool: one block call per block, added in
    order."""
    pilot, weight = pilot_model(instance), rates._weights(instance, mu)
    d = instance.dims.num_groups + 2
    s1 = np.zeros((instance.dims.num_users, d))
    s2 = np.zeros((instance.dims.num_users, d, d))
    for b, n in enumerate(block_sizes(draws)):
        block_s1, block_s2 = rates._block_moments(pilot, weight, smallscale_key(seed), b, n)
        s1 += block_s1
        s2 += block_s2
    return rates._moment_report(instance, s1, s2, draws)


@pytest.mark.parametrize("draws", DRAW_COUNTS)
@pytest.mark.parametrize("shape", [(8, (3, 3)), (10, (2, 5, 1))], ids=["M8-3x3", "M10-2x5x1"])
def test_reports_bit_identical_for_any_thread_count(monkeypatch, shape, draws):
    instance, mu = mc_case(*shape, seed=4)
    reference = serial_report(instance, mu, draws, seed=9)
    for workers in (1, 2, 3, 6):
        monkeypatch.setattr(pool, "cpu_count", lambda: workers)
        got = rate_oracle_monte_carlo(instance, mu, draws, seed=9)
        for field in dataclasses.fields(got):
            assert np.array_equal(getattr(got, field.name), getattr(reference, field.name)), \
                (workers, field.name)


def test_stress_more_threads_than_cores(monkeypatch):
    """Six threads, whatever the host's CPU count, switching as often as the
    interpreter allows: any scratch shared by two threads at once would
    corrupt a block and change the sums."""
    instance, mu = mc_case(4, (1, 2), seed=2)
    draws = 12 * SMALLSCALE_BLOCK + 3
    reference = serial_report(instance, mu, draws, seed=3)
    monkeypatch.setattr(pool, "cpu_count", lambda: 6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = rate_oracle_monte_carlo(instance, mu, draws, seed=3)
    finally:
        sys.setswitchinterval(interval)
    for field in dataclasses.fields(got):
        assert np.array_equal(getattr(got, field.name), getattr(reference, field.name)), field.name


def test_worker_error_reaches_caller(monkeypatch):
    instance, mu = mc_case()
    real_block = rates._block_moments

    def failing_block(pilot, weight, key, block_idx, count):
        if block_idx == 2:
            raise RuntimeError("moment reduction failed on block 2")
        return real_block(pilot, weight, key, block_idx, count)

    monkeypatch.setattr(pool, "cpu_count", lambda: 2)
    monkeypatch.setattr(rates, "_block_moments", failing_block)
    threads_before = threading.active_count()
    with pytest.raises(RuntimeError, match="block 2"):
        rate_oracle_monte_carlo(instance, mu, 6 * SMALLSCALE_BLOCK, seed=1)
    assert threading.active_count() == threads_before


@pytest.mark.parametrize("workers", [1, 2])
def test_oracle_reduces_sampled_draws(monkeypatch, workers):
    """The oracle's moment sums are a numpy reduction, block by block, of
    the (g, z) of iter_smallscale_blocks: the oracle draws the same normals
    and forms the same pilot observation, whatever the thread count."""
    instance, mu = mc_case(10, (2, 5, 1), seed=4)
    draws = 2 * SMALLSCALE_BLOCK + 9
    monkeypatch.setattr(pool, "cpu_count", lambda: workers)
    weights = rates._weights(instance, mu)
    s1, s2 = rates._moment_sums(instance, weights, draws, seed=9)
    ptr, n_groups = instance.group_ptr, instance.dims.num_groups
    ref1, ref2 = 0.0, 0.0
    for block in iter_smallscale_blocks(instance, draws, seed=9):
        g, z = block.g_re + 1j * block.g_im, block.z_re + 1j * block.z_im
        # a[b, u, j] = sum_m sqrt(zeta mu^2)_mu g_bmu conj(z_bmj / |z_bmj|)
        a = np.einsum("mu,bmu,bmj->buj", weights, g, np.conj(z / np.abs(z)))
        x = np.empty((g.shape[0], instance.dims.num_users, n_groups + 2))
        for n in range(n_groups):
            own = a[:, ptr[n]:ptr[n + 1], n]
            x[:, ptr[n]:ptr[n + 1], :3] = np.stack([own.real, own.imag, np.abs(own) ** 2],
                                                    axis=2)
            others = [j for j in range(n_groups) if j != n]
            x[:, ptr[n]:ptr[n + 1], 3:] = np.abs(a[:, ptr[n]:ptr[n + 1], others]) ** 2
        ref1 = ref1 + x.sum(axis=0)
        ref2 = ref2 + np.einsum("bup,buq->upq", x, x)
    np.testing.assert_allclose(s1, ref1, rtol=1e-12)
    np.testing.assert_allclose(s2, ref2, rtol=1e-12)


def traced_peak(instance, mu, draws):
    tracemalloc.start()
    try:
        rate_oracle_monte_carlo(instance, mu, draws, seed=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory(monkeypatch):
    instance, mu = mc_case()
    rate_oracle_monte_carlo(instance, mu, 2 * SMALLSCALE_BLOCK, seed=1)  # warm caches
    monkeypatch.setattr(pool, "cpu_count", lambda: 2)
    peak = traced_peak(instance, mu, 200_000)
    assert peak <= SERIAL_PEAK_BYTES, peak
    # draws do not accumulate; timing between two threads moves their peak,
    # so growth is checked inline, where it is deterministic
    monkeypatch.setattr(pool, "cpu_count", lambda: 1)
    small, large = traced_peak(instance, mu, 50_000), traced_peak(instance, mu, 200_000)
    assert large <= small + FREE_LIST_SLACK_BYTES, (small, large)
