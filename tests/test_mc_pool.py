"""The Monte-Carlo rate oracle's block pool: bit-identical reports for every
thread count, errors raised inside a worker, and bounded memory, with a
thread count cut to a memory budget."""

import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from cellfree_maxmin import Dimensions, PhysicalConfig, generate_instance, rate_oracle_monte_carlo
from cellfree_maxmin import pool, rates
from cellfree_maxmin.harness import random_feasible_eta
from cellfree_maxmin.netgen import (
    SMALLSCALE_BLOCK,
    block_buffers,
    block_sizes,
    pilot_model,
    sample_small_scale,
)

DRAW_COUNTS = [1, SMALLSCALE_BLOCK + 5, 3 * SMALLSCALE_BLOCK + 77]

# tracemalloc peak of one 200k-draw call at M=8, 2x3 (seed 1) with the
# serial, whole-block oracle this pool replaced: every block's temporaries
# at once, 12_721_067 bytes measured (numpy 2.4, Python 3.11)
SERIAL_PEAK_BYTES = 12_721_067
# growth allowed from 50k to 200k draws: interpreter free lists (measured
# 15-45 KB, saturating); a retained block buffer alone would add 0.8 MB
FREE_LIST_SLACK_BYTES = 64 * 1024


def mc_case(num_aps=8, group_sizes=(3, 3), seed=1):
    dims = Dimensions(num_aps, len(group_sizes), group_sizes)
    return generate_instance(dims, PhysicalConfig(), seed), random_feasible_eta(dims, seed)


def serial_report(instance, eta, draws, seed):
    """The reduction without the pool: one block call per block, each in
    fresh buffers, added in order."""
    pilot, weight = pilot_model(instance), rates._weights(instance, eta)
    d = instance.dims.num_groups + 2
    s1 = np.zeros((instance.dims.num_users, d))
    s2 = np.zeros((instance.dims.num_users, d, d))
    for b, n in enumerate(block_sizes(draws)):
        block_s1, block_s2 = rates._block_moments(pilot, weight, seed, b, n,
                                                  block_buffers(pilot, n))
        s1 += block_s1
        s2 += block_s2
    return rates._moment_report(instance, s1, s2, draws)


@pytest.mark.parametrize("draws", DRAW_COUNTS)
@pytest.mark.parametrize("shape", [(8, (3, 3)), (10, (2, 5, 1))], ids=["M8-3x3", "M10-2x5x1"])
def test_reports_bit_identical_for_any_thread_count(monkeypatch, shape, draws):
    instance, eta = mc_case(*shape, seed=4)
    reference = serial_report(instance, eta, draws, seed=9)
    for workers in (1, 2, 3, 6):
        monkeypatch.setattr(pool, "cpu_count", lambda: workers)
        got = rate_oracle_monte_carlo(instance, eta, draws, seed=9)
        for field in dataclasses.fields(got):
            assert np.array_equal(getattr(got, field.name), getattr(reference, field.name)), \
                (workers, field.name)


def test_stress_more_threads_than_cores(monkeypatch):
    """Six threads, whatever the host's CPU count, switching as often as the
    interpreter allows: a buffer set shared by two threads at once would
    corrupt a block and change the sums."""
    instance, eta = mc_case(4, (1, 2), seed=2)
    draws = 12 * SMALLSCALE_BLOCK + 3
    reference = serial_report(instance, eta, draws, seed=3)
    monkeypatch.setattr(pool, "cpu_count", lambda: 6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = rate_oracle_monte_carlo(instance, eta, draws, seed=3)
    finally:
        sys.setswitchinterval(interval)
    for field in dataclasses.fields(got):
        assert np.array_equal(getattr(got, field.name), getattr(reference, field.name)), field.name


def test_worker_error_reaches_caller(monkeypatch):
    instance, eta = mc_case()
    real_block = rates._block_moments

    def failing_block(pilot, weight, seed, block_idx, count, buffers):
        if block_idx == 2:
            raise RuntimeError("moment reduction failed on block 2")
        return real_block(pilot, weight, seed, block_idx, count, buffers)

    monkeypatch.setattr(pool, "cpu_count", lambda: 2)
    monkeypatch.setattr(rates, "_block_moments", failing_block)
    threads_before = threading.active_count()
    with pytest.raises(RuntimeError, match="block 2"):
        rate_oracle_monte_carlo(instance, eta, 6 * SMALLSCALE_BLOCK, seed=1)
    assert threading.active_count() == threads_before


@pytest.mark.parametrize("workers", [1, 2])
def test_oracle_z_equals_sampled_z(monkeypatch, workers):
    """The z each block call leaves in its buffers, which the oracle reduced,
    is sample_small_scale's z bit for bit: the pilot observation has one
    implementation."""
    instance, eta = mc_case(10, (2, 5, 1), seed=4)
    draws = 2 * SMALLSCALE_BLOCK + 9
    m_aps, n_groups = instance.dims.num_aps, instance.dims.num_groups
    seen = {}
    real_block = rates._block_moments

    def keep_z(pilot, weight, seed, block_idx, count, buffers):
        out = real_block(pilot, weight, seed, block_idx, count, buffers)
        z = buffers.z[:2 * count * m_aps * n_groups].reshape(2, count, m_aps, n_groups)
        seen[block_idx] = z.copy()
        return out

    monkeypatch.setattr(pool, "cpu_count", lambda: workers)
    monkeypatch.setattr(rates, "_block_moments", keep_z)
    rate_oracle_monte_carlo(instance, eta, draws, seed=9)
    _, z = sample_small_scale(instance, draws, seed=9)
    assert sorted(seen) == [0, 1, 2]
    for part, ref in enumerate((z.real, z.imag)):
        got = np.concatenate([seen[b][part] for b in sorted(seen)])
        assert np.array_equal(got.view(np.int64), np.ascontiguousarray(ref).view(np.int64))


def traced_peak(instance, eta, draws):
    tracemalloc.start()
    try:
        rate_oracle_monte_carlo(instance, eta, draws, seed=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory(monkeypatch):
    instance, eta = mc_case()
    rate_oracle_monte_carlo(instance, eta, 2 * SMALLSCALE_BLOCK, seed=1)  # warm caches
    monkeypatch.setattr(pool, "cpu_count", lambda: 2)
    peak = traced_peak(instance, eta, 200_000)
    assert peak <= SERIAL_PEAK_BYTES, peak
    # draws do not accumulate; timing between two threads moves their peak,
    # so growth is checked inline, where it is deterministic
    monkeypatch.setattr(pool, "cpu_count", lambda: 1)
    small, large = traced_peak(instance, eta, 50_000), traced_peak(instance, eta, 200_000)
    assert large <= small + FREE_LIST_SLACK_BYTES, (small, large)


def test_thread_bytes_match_measured_peak(monkeypatch):
    """_thread_bytes, which the thread count is sized by, is what one thread
    holds: the tracemalloc peak of a call on one thread."""
    monkeypatch.setattr(pool, "cpu_count", lambda: 1)
    for num_aps, group_sizes in ((8, (3, 3)), (30, (5, 5, 5))):
        instance, eta = mc_case(num_aps, group_sizes)
        t_users, n_groups = sum(group_sizes), len(group_sizes)
        expected = rates._thread_bytes(num_aps, t_users, n_groups, 3 + n_groups - 1,
                                       SMALLSCALE_BLOCK)
        rate_oracle_monte_carlo(instance, eta, 2 * SMALLSCALE_BLOCK, seed=1)  # warm caches
        peak = traced_peak(instance, eta, 3 * SMALLSCALE_BLOCK)
        assert 0.95 * expected <= peak <= 1.05 * expected, (num_aps, peak, expected)


def test_thread_count_fits_memory_budget(monkeypatch):
    """Sized without starting a thread, on a host with 64 CPUs."""
    monkeypatch.setattr(pool, "cpu_count", lambda: 64)
    blocks = block_sizes(200_000)
    assert len(blocks) == 49
    # M=8, 2x3 (the verify-rate default): 4 MB a thread, one thread per block
    assert rates._thread_bytes(8, 6, 2, 4, SMALLSCALE_BLOCK) < 5e6
    assert rates._block_workers(8, 6, 2, 4, blocks) == 49
    # M=100, 4x10: 290 MB a thread, as many as the budget holds
    per_thread = rates._thread_bytes(100, 40, 4, 6, SMALLSCALE_BLOCK)
    workers = rates._block_workers(100, 40, 4, 6, blocks)
    assert workers == rates.MOMENT_MEMORY_BUDGET // per_thread == 3
    # one buffer set beyond the budget still runs, on one thread
    assert rates._thread_bytes(4000, 40, 4, 6, SMALLSCALE_BLOCK) > rates.MOMENT_MEMORY_BUDGET
    assert rates._block_workers(4000, 40, 4, 6, blocks) == 1
