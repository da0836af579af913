"""numpy reference of the compiled Monte-Carlo normal generator (mc_block.c):
Philox4x32-10 in uint64 arithmetic, the 128-layer ziggurat with its tables
from the same libm calls (Python's math module), the run-wide draw counters
and the entry layout of the compiled small-scale draws. Every step repeats
the C code operation for operation, so the normals agree bit for bit."""

import collections
import math

import numpy as np

from cellfree_maxmin.netgen import SMALLSCALE_BLOCK, smallscale_key

M0, M1 = 0xD2511F53, 0xCD9E8D57
W0, W1 = 0x9E3779B9, 0xBB67AE85
LO32 = np.uint64(0xFFFFFFFF)

ZIG_R = 3.442619855899
ZIG_V = 9.91256303526217e-3
TWO52 = 4503599627370496.0

# the ways a slow-path normal finishes, by its first round: the tail (layer
# 0), a wedge accept on its first further word, its second further word on
# the fast path, or more Philox words
OUTCOMES = ("tail", "wedge", "second", "further")
# how many normals drawn so far finished each way; tests clear and read it
SLOW_OUTCOMES = collections.Counter()


def philox4x32(counter, key):
    """Philox4x32-10 of counters (4, ...) (each word below 2^32) under the
    key (k0, k1): the four output words, as uint64 arrays."""
    c0, c1, c2, c3 = (np.asarray(c, dtype=np.uint64) for c in counter)
    k0, k1 = int(key[0]), int(key[1])
    for r in range(10):
        if r:
            k0, k1 = (k0 + W0) & 0xFFFFFFFF, (k1 + W1) & 0xFFFFFFFF
        p0, p1 = c0 * np.uint64(M0), c2 * np.uint64(M1)
        c0, c1, c2, c3 = ((p1 >> np.uint64(32)) ^ c1 ^ np.uint64(k0), p1 & LO32,
                          (p0 >> np.uint64(32)) ^ c3 ^ np.uint64(k1), p0 & LO32)
    return c0, c1, c2, c3


def zig_tables():
    """(w, f, k): the layer widths over 2^52, edge densities and fast-path
    bounds, computed as zig_init computes them."""
    w, f, k = [0.0] * 128, [0.0] * 128, [0] * 128
    dn = tn = ZIG_R
    q = ZIG_V / math.exp(-0.5 * dn * dn)
    k[0] = int(dn / q * TWO52)
    w[0] = q / TWO52
    w[127] = dn / TWO52
    f[0] = 1.0
    f[127] = math.exp(-0.5 * dn * dn)
    for i in range(126, 0, -1):
        dn = math.sqrt(-2.0 * math.log(ZIG_V / dn + math.exp(-0.5 * dn * dn)))
        k[i + 1] = int(dn / tn * TWO52)
        tn = dn
        f[i] = math.exp(-0.5 * dn * dn)
        w[i] = dn / TWO52
    return w, f, k


ZIG_W, ZIG_F, ZIG_K = zig_tables()


def _split(key):
    return key & 0xFFFFFFFF, key >> 32


def _normal(r):
    """The normals of words r: magnitude r >> 12 times the width of layer
    r & 127, with the sign of bit 7."""
    idx = (r & np.uint64(127)).astype(np.intp)
    x = (r >> np.uint64(12)).astype(float) * np.asarray(ZIG_W)[idx]
    return np.where((r >> np.uint64(7)) & np.uint64(1), -x, x)


def _fast(r):
    """Whether words r are accepted at once: magnitude below the layer's
    bound."""
    idx = (r & np.uint64(127)).astype(np.intp)
    return (r >> np.uint64(12)).astype(np.int64) < np.asarray(ZIG_K, dtype=np.int64)[idx]


def _libm(fn, x):
    """fn of the C library over an array (numpy's own exp and log1p may
    round differently)."""
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _slow(r, counter, key):
    """zig_slow for every rejected word r at once. Word n of a normal's
    further words is word n % 2 of Philox under ~key on its counter with c3
    raised by 2 (n // 2); the tail and the wedges repeat until every normal
    is accepted."""
    c0, c1, c2, c3 = counter
    slow_key = _split(~key & 0xFFFFFFFFFFFFFFFF)
    r = r.copy()
    out = np.full(r.size, np.nan)
    used = np.zeros(r.size, dtype=np.uint64)
    f = np.asarray(ZIG_F)

    def word(at):
        n = used[at]
        used[at] += 1
        x0, x1, x2, x3 = philox4x32(
            (c0[at], c1[at], c2[at], c3[at] + (n >> np.uint64(1)) * np.uint64(2)), slow_key)
        return np.where(n & np.uint64(1), x2 | x3 << np.uint64(32), x0 | x1 << np.uint64(32))

    def uniform(at):
        return (word(at) >> np.uint64(11)).astype(float) * 2.0 ** -53

    todo = np.arange(r.size)
    first_round = True
    while todo.size:
        tail = (r[todo] & np.uint64(127)) == 0
        at = todo[tail]
        if first_round:
            SLOW_OUTCOMES["tail"] += at.size
        xx = -(1.0 / ZIG_R) * _libm(math.log1p, -uniform(at))
        yy = -_libm(math.log1p, -uniform(at))
        ok = yy + yy > xx * xx
        neg = ((r[at] >> np.uint64(7)) & np.uint64(1)).astype(bool)
        out[at[ok]] = np.where(neg, -(ZIG_R + xx), ZIG_R + xx)[ok]
        at = todo[~tail]
        i = (r[at] & np.uint64(127)).astype(np.intp)
        x = _normal(r[at])
        ok = f[i] + uniform(at) * (f[i - 1] - f[i]) < _libm(math.exp, -0.5 * x * x)
        out[at[ok]] = x[ok]
        at = at[~ok]
        r[at] = word(at)
        fast = _fast(r[at])
        out[at[fast]] = _normal(r[at[fast]])
        if first_round:
            SLOW_OUTCOMES.update(wedge=int(ok.sum()), second=int(fast.sum()),
                                 further=int((~fast).sum()))
            first_round = False
        todo = todo[np.isnan(out[todo])]
    return out


def _ziggurat(r, counter, half, key):
    """Normals of the 64-bit words r; the rejected ones through _slow on
    their counters with c3 = half."""
    x = _normal(r)
    slow = ~_fast(r)
    c0, c1, c2 = (c[slow] for c in counter[:3])
    x[slow] = _slow(r[slow], (c0, c1, c2, np.full_like(c0, half)), key)
    return x


def normals(key, first, count, entries):
    """Unit normals (2, count, entries) of the run's draws first ..
    first+count-1, Re then Im, as mc_normals writes them."""
    draw, entry = np.meshgrid(np.uint64(first) + np.arange(count, dtype=np.uint64),
                              np.arange(entries, dtype=np.uint64), indexing="ij")
    counter = (entry, draw & LO32, draw >> np.uint64(32), np.zeros_like(draw))
    x0, x1, x2, x3 = philox4x32(counter, _split(key))
    return np.stack([_ziggurat(x0 | x1 << np.uint64(32), counter, 0, key),
                     _ziggurat(x2 | x3 << np.uint64(32), counter, 1, key)])


def block_normals(seed, block, count, num_aps, t_users, n_groups):
    """The unit normals of block `block` of `seed`, as mc_pilot draws them:
    g's (2, count, M, T) and the pilot noise's (2, count, M, N)."""
    out = normals(smallscale_key(seed), block * SMALLSCALE_BLOCK, count,
                  num_aps * (t_users + n_groups))
    split = num_aps * t_users
    return (out[:, :, :split].reshape(2, count, num_aps, t_users),
            out[:, :, split:].reshape(2, count, num_aps, n_groups))
