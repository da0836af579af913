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
from cellfree_maxmin.netgen import SMALLSCALE_BLOCK, block_sizes, iter_smallscale_blocks

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
    """The reduction without the pool: whole fresh blocks from
    iter_smallscale_blocks, one _moment_vectors call each, in order."""
    weight, pick = rates._moment_layout(instance, eta)
    t_users = weight.shape[1]
    d = pick.shape[0] // t_users
    s1 = np.zeros((t_users, d))
    s2 = np.zeros((t_users, d, d))
    for blk in iter_smallscale_blocks(instance, draws, seed):
        x = rates._moment_vectors(blk, weight, pick)
        s1 += x.sum(axis=0)
        s2 += np.matmul(x.transpose(1, 2, 0), x.transpose(1, 0, 2))
    return rates._moment_report(instance, s1, s2, draws)


@pytest.mark.parametrize("draws", DRAW_COUNTS)
@pytest.mark.parametrize("shape", [(8, (3, 3)), (10, (2, 5, 1))], ids=["M8-3x3", "M10-2x5x1"])
def test_reports_bit_identical_for_any_thread_count(monkeypatch, shape, draws):
    instance, eta = mc_case(*shape, seed=4)
    reference = serial_report(instance, eta, draws, seed=9)
    for workers in (1, 2, 3):
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
    current = threading.local()
    real_block, real_moments = rates.smallscale_block, rates._moment_vectors

    def tagged_block(pilot, seed, block_idx, count, buffers=None):
        current.block = block_idx
        return real_block(pilot, seed, block_idx, count, buffers)

    def failing_moments(blk, weight, pick):
        if current.block == 2:
            raise RuntimeError("moment reduction failed on block 2")
        return real_moments(blk, weight, pick)

    monkeypatch.setattr(pool, "cpu_count", lambda: 2)
    monkeypatch.setattr(rates, "smallscale_block", tagged_block)
    monkeypatch.setattr(rates, "_moment_vectors", failing_moments)
    threads_before = threading.active_count()
    with pytest.raises(RuntimeError, match="block 2"):
        rate_oracle_monte_carlo(instance, eta, 6 * SMALLSCALE_BLOCK, seed=1)
    assert threading.active_count() == threads_before


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
    # M=8, 2x3 (the verify-rate default): 6 MB a thread, one thread per block
    assert rates._thread_bytes(8, 6, 2, 4, SMALLSCALE_BLOCK) < 7e6
    assert rates._block_workers(8, 6, 2, 4, blocks) == 49
    # M=100, 4x10: 340 MB a thread, as many as the budget holds
    per_thread = rates._thread_bytes(100, 40, 4, 6, SMALLSCALE_BLOCK)
    workers = rates._block_workers(100, 40, 4, 6, blocks)
    assert workers == rates.MOMENT_MEMORY_BUDGET // per_thread == 3
    # one buffer set beyond the budget still runs, on one thread
    assert rates._thread_bytes(4000, 40, 4, 6, SMALLSCALE_BLOCK) > rates.MOMENT_MEMORY_BUDGET
    assert rates._block_workers(4000, 40, 4, 6, blocks) == 1
