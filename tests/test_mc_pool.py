"""The Monte-Carlo rate oracle's block pool: bit-identical reports for every
thread count, errors raised inside a worker, and bounded memory."""

import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from cellfree_maxmin import Dimensions, PhysicalConfig, generate_instance, rate_oracle_monte_carlo
from cellfree_maxmin import rates
from cellfree_maxmin.harness import random_feasible_eta
from cellfree_maxmin.netgen import SMALLSCALE_BLOCK, iter_smallscale_blocks

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
        monkeypatch.setattr(rates, "_cpu_count", lambda: workers)
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
    monkeypatch.setattr(rates, "_cpu_count", lambda: 6)
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

    monkeypatch.setattr(rates, "_cpu_count", lambda: 2)
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
    monkeypatch.setattr(rates, "_cpu_count", lambda: 2)
    peak = traced_peak(instance, eta, 200_000)
    assert peak <= SERIAL_PEAK_BYTES, peak
    # draws do not accumulate; timing between two threads moves their peak,
    # so growth is checked inline, where it is deterministic
    monkeypatch.setattr(rates, "_cpu_count", lambda: 1)
    small, large = traced_peak(instance, eta, 50_000), traced_peak(instance, eta, 200_000)
    assert large <= small + FREE_LIST_SLACK_BYTES, (small, large)
