"""The compiled Monte-Carlo normal generator (mc_block.c): Philox4x32-10
known answers on the numpy port, compiled normals equal to the port's bit for
bit, their distribution, and draws that depend only on (seed, draw, entry),
not on how a run is cut into blocks."""

import math

import numpy as np
import pytest

from cellfree_maxmin import Dimensions, PhysicalConfig, generate_instance, native, netgen
from cellfree_maxmin.netgen import smallscale_key
from conftest import sampled_draws

import normals_reference as ref

# Random123's known-answer vectors for Philox4x32-10: (counter, key, output)
PHILOX_KAT = [
    ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2, (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
    ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344), (0xA4093822, 0x299F31D0),
     (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)),
]


def compiled_normals(key, first, count, entries):
    """mc_normals: the run's draws first .. first+count-1."""
    out = np.empty((2, count, entries))
    native.load_library().mc_normals(key, first, count, entries, out.ctypes.data)
    return out


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("counter, key, expected", PHILOX_KAT)
def test_philox_known_answers(counter, key, expected):
    assert tuple(int(x) for x in ref.philox4x32(counter, key)) == expected


def test_compiled_normals_equal_port():
    """Calls that end mid-pass (1003 = 125 * 8 + 3 draws) and whose draw
    index passes 2^32 inside a pass (a carry into c2 in lanes 5-7), on an
    odd entry count (the last entry drawn alone, not in a pair) and an even
    one, with normals through the fast path and every way out of the slow
    path: the tail, a wedge accept on the first further word, a fast accept
    on the second and more Philox words."""
    key, first = smallscale_key(11), 2**32 - 501
    ref.SLOW_OUTCOMES.clear()
    for entries in (37, 38):
        got = compiled_normals(key, first, 1003, entries)
        expected = ref.normals(key, first, 1003, entries)
        assert same_bits(got, expected), entries
        assert (np.abs(got) > ref.ZIG_R).sum() > 10  # tail normals
    assert min(ref.SLOW_OUTCOMES[k] for k in ref.OUTCOMES) > 10, ref.SLOW_OUTCOMES


def test_distribution():
    """First two moments and a Kolmogorov-Smirnov test at level 1e-3 over
    2^20 normals of one block, and the share beyond the ziggurat's tail
    start, each against the standard normal."""
    x = compiled_normals(smallscale_key(0), 0, 4096, 128).ravel()
    n = x.size
    assert abs(x.mean()) < 4.0 / math.sqrt(n)
    assert abs(x.var() - 1.0) < 4.0 * math.sqrt(2.0 / n)
    cdf = 0.5 * np.fromiter(map(math.erfc, (-np.sort(x) / math.sqrt(2.0)).tolist()), float, n)
    steps = np.arange(1, n + 1) / n
    d = max((steps - cdf).max(), (cdf - steps + 1.0 / n).max())
    assert d < math.sqrt(-0.5 * math.log(1e-3 / 2.0)) / math.sqrt(n), d
    p_tail = math.erfc(ref.ZIG_R / math.sqrt(2.0))
    tail = (np.abs(x) > ref.ZIG_R).sum()
    assert abs(tail - n * p_tail) < 4.0 * math.sqrt(n * p_tail), tail


def test_shorter_run_is_a_prefix():
    key = smallscale_key(3)
    assert same_bits(compiled_normals(key, 1, 13, 9),
                     compiled_normals(key, 1, 1003, 9)[:, :13])
    assert same_bits(compiled_normals(key, 1, 1003, 5),
                     compiled_normals(key, 1, 1003, 9)[:, :, :5])
    instance = generate_instance(Dimensions(6, 2, (2, 3)), PhysicalConfig(), seed=1)
    g1, z1 = sampled_draws(instance, 5_000, seed=2)
    g2, z2 = sampled_draws(instance, 9_000, seed=2)
    assert np.array_equal(g1, g2[:5_000]) and np.array_equal(z1, z2[:5_000])


def test_blocks_and_seeds_draw_apart():
    a = compiled_normals(smallscale_key(3), 0, 64, 8)
    assert not np.isin(a, compiled_normals(smallscale_key(3), 64, 64, 8)).any()
    assert not np.isin(a, compiled_normals(smallscale_key(3), 2**32, 64, 8)).any()
    assert not np.isin(a, compiled_normals(smallscale_key(4), 0, 64, 8)).any()


def test_draws_do_not_depend_on_block_size(monkeypatch):
    """A draw's normals depend on its index in the run, not on the block
    holding it: a call from draw 4096 repeats a longer call's tail, and
    the sampled draws are unchanged with 1000-draw blocks."""
    key = smallscale_key(5)
    assert same_bits(compiled_normals(key, 4096, 1003, 9),
                     compiled_normals(key, 0, 5099, 9)[:, 4096:])
    instance = generate_instance(Dimensions(6, 2, (2, 3)), PhysicalConfig(), seed=1)
    g1, z1 = sampled_draws(instance, 4_500, seed=2)
    monkeypatch.setattr(netgen, "SMALLSCALE_BLOCK", 1000)
    assert len(netgen.block_sizes(4_500)) == 5
    g2, z2 = sampled_draws(instance, 4_500, seed=2)
    assert np.array_equal(g1, g2) and np.array_equal(z1, z2)
