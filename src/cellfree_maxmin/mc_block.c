/* One block of the Monte-Carlo rate oracle in a single pass, with its own
 * unit normals.
 *
 * Normals. Every unit normal is a pure function of (key, draw, entry), the
 * draw counted from 0 over the whole run: Philox4x32-10 (Salmon, Moraes,
 * Dror & Shaw, SC 2011) on the counter
 *
 *   (c0, c1, c2, c3) = (entry, draw mod 2^32, draw div 2^32, 0)
 *
 * under the 64-bit key k0 + 2^32 k1 gives four 32-bit words x0..x3; the
 * 64-bit words x0 + 2^32 x1 and x2 + 2^32 x3 become the Re and Im normals of
 * that entry through a 128-layer Marsaglia-Tsang ziggurat (J. Stat. Softw.
 * 2000) whose tables are computed when the library is loaded. A word r
 * gives the layer r & 127, the sign bit 7 and the 52-bit magnitude r >> 12.
 * Entries of one draw are g's (m, k) at m*T + k, then the pilot noise w's
 * (m, n) at M*T + m*N + n. A call draws the run's draws first ..
 * first+count-1, so how a run is cut into blocks of draws does not change
 * its normals. The ziggurat's rare slow path (2.8% of normals) takes its
 * further 64-bit words, in order, from Philox under the complemented key
 * ~key on the counter (c0, c1, c2, half + 2*i), i = 0, 1, ..., half 0 for Re
 * and 1 for Im, two words per counter.
 *
 * The slow normals wait in a queue until the pass has drawn a chunk of at
 * least CHUNK = 64 entries (whole APs in mc_block and mc_pilot), or 64 are
 * waiting. A chunk's 1024 normals hold about 29 slow ones, so when
 * finish_slow takes them 8 at a time, its groups run at or near 8 lanes:
 * one vector Philox call gives each its first two further words, and its
 * first round runs lane-wide (the wedge test on the first word, with one
 * libm exp per lane, then the fast test on the second). That round ends
 * about 97% of them. The tail (layer 0), and the normals whose second word
 * misses the fast path too, go on in the scalar zig_slow with their streams
 * where it would have them, so every word, libm call and accept decision is
 * the one zig_slow alone would make. Each normal depends on its counter
 * alone, so neither the chunk nor the queue changes a bit of it.
 *
 * Pass. Per draw b and AP m:
 *
 *   gs_mk = SQRT_HALF * g_mk                                 small-scale gain
 *   z_mn  = (sum_{k in group n} pilot[m, k] gs_mk + noise_scale * w_mn)
 *           / z_scale[m, n]                          pilot-estimate variable
 *   p_mn  = z_mn / |z_mn|                                      beam phase
 *
 * with every sum over k ascending and in complex arithmetic on the real and
 * imaginary parts. The pilot observation has this one implementation, shared
 * by mc_pilot (which returns gs and z) and mc_block (which reduces them).
 *
 * mc_block then forms, for every user u of group n and every group j, the
 * gain a_uj = sum_m weight[m, u] gs_mu conj(p_mj) over m ascending, and the
 * user's moment vector
 *
 *   x_u = (Re a_un, Im a_un, |a_un|^2, |a_uj|^2 for each j != n ascending),
 *
 * d = N + 2 entries, and returns the block sums s1 (T, d) of x and s2
 * (T, d, d) of x x^T.
 *
 * Draws are the SIMD lanes. Each pass takes SLOTS = 8 consecutive draws, and
 * draw b always lands in slot b mod SLOTS, whatever the lane width: one
 * vector Philox call draws two entries for all the slots, their rounds
 * interleaved (an odd last entry is drawn alone), and the pass's arithmetic
 * holds LANES of the slots per vector, SLOTS / LANES vectors. The ziggurat
 * tables are read by one load per slot: on an AVX-512 host that measured
 * faster than the gather instructions. The slots whose words miss the
 * fast path come out of one vector compare as a bit mask, and only those
 * are queued, in slot order. Every slot keeps its
 * own moment sums, in draw order; at the end of the block the slots are added
 * in slot order. Lanes never share a sum, the generator is integer
 * arithmetic and one exact product per fast-path normal, and every operation
 * is the same in each lane, so normals and block sums are bit-identical on
 * 8-, 4- and 2-lane builds. Build without -ffast-math and without FP
 * contraction (see apg_stage.c).
 *
 * The pass works chunk by chunk: it draws the entries of the chunk's APs
 * (chunk_aps of them, the fewest that hold CHUNK entries, at most M) into
 * slot-minor tiles (APs, T, SLOTS) and (APs, N, SLOTS), finishes their slow
 * normals, and then, AP by AP in ascending m, forms z and the phases and
 * adds the gains. The slots past the end of the last pass hold g = 0 and
 * w = 1, written after the finish, which would overwrite them with the slow
 * normals of their draws: their phases are finite and their gains zero, so
 * they add zeros to the sums and are never written out. The tiles hold
 * fewer than CHUNK + T + N entries whatever M is.
 *
 * mc_block and mc_pilot malloc their scratch (or return NO_MEMORY, else 0);
 * apart from the ziggurat tables, written once at load, the code keeps no
 * static state, so threads may run blocks at once.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#if defined(__SSE2__)
#include <immintrin.h>
#endif

#include "simd.h"

#define SLOTS 8
#define SQRT_HALF 0.70710678118654752440
#define VECS (SLOTS / LANES)
#define NO_MEMORY (-1)

/* one 32-bit Philox word (or a 64-bit ziggurat word) per slot */
typedef uint64_t words __attribute__((vector_size(SLOTS * sizeof(uint64_t))));
typedef int64_t swords __attribute__((vector_size(SLOTS * sizeof(int64_t))));
typedef double slots __attribute__((vector_size(SLOTS * sizeof(double))));

/* ------------------------------------------------------------------------
 * Philox4x32-10
 * ------------------------------------------------------------------------ */

#define PHILOX_M0 0xD2511F53u
#define PHILOX_M1 0xCD9E8D57u
#define PHILOX_W0 0x9E3779B9u
#define PHILOX_W1 0xBB67AE85u
#define LO32 0xFFFFFFFFu

#define INLINE static inline __attribute__((always_inline))

/* a * m for every slot, a and m below 2^32: the even-lane 32x32 -> 64-bit
 * multiply of the widest integer vectors the build has */
#if defined(__AVX512F__)
typedef __m512i hw;
#define MUL_EPU32(a, m) _mm512_mul_epu32(a, _mm512_set1_epi64(m))
#elif defined(__AVX2__)
typedef __m256i hw;
#define MUL_EPU32(a, m) _mm256_mul_epu32(a, _mm256_set1_epi64x(m))
#elif defined(__SSE2__)
typedef __m128i hw;
#define MUL_EPU32(a, m) _mm_mul_epu32(a, _mm_set1_epi64x(m))
#endif

INLINE words mul32(words a, uint32_t m)
{
#ifdef MUL_EPU32
    hw part[sizeof(words) / sizeof(hw)];
    memcpy(part, &a, sizeof a);
    for (size_t h = 0; h < sizeof(words) / sizeof(hw); h++)
        part[h] = MUL_EPU32(part[h], m);
    memcpy(&a, part, sizeof a);
    return a;
#else
    return a * m;
#endif
}

/* one round on one counter per slot, in place */
INLINE void philox_round(words c[4], uint32_t k0, uint32_t k1)
{
    const words p0 = mul32(c[0], PHILOX_M0), p1 = mul32(c[2], PHILOX_M1);
    c[0] = (p1 >> 32) ^ c[1] ^ k0;
    c[2] = (p0 >> 32) ^ c[3] ^ k1;
    c[1] = p1 & LO32;
    c[3] = p0 & LO32;
}

/* the ten rounds on one counter per slot, in place */
INLINE void philox(words c[4], uint64_t key)
{
    uint32_t k0 = (uint32_t)key, k1 = (uint32_t)(key >> 32);
    for (int r = 0; r < 10; r++, k0 += PHILOX_W0, k1 += PHILOX_W1)
        philox_round(c, k0, k1);
}

/* the same on two counters per slot, their rounds interleaved: the two
 * dependency chains fill each other's multiply latency */
INLINE void philox2(words a[4], words b[4], uint64_t key)
{
    uint32_t k0 = (uint32_t)key, k1 = (uint32_t)(key >> 32);
    for (int r = 0; r < 10; r++, k0 += PHILOX_W0, k1 += PHILOX_W1) {
        philox_round(a, k0, k1);
        philox_round(b, k0, k1);
    }
}

/* the same on one counter, in scalar code: the slow path below calls the C
 * library between its words, and wide vectors there would cost a state
 * transition per call */
static void philox1(uint32_t c[4], uint64_t key)
{
    uint32_t k0 = (uint32_t)key, k1 = (uint32_t)(key >> 32);
    for (int r = 0; r < 10; r++) {
        if (r)
            k0 += PHILOX_W0, k1 += PHILOX_W1;
        const uint64_t p0 = (uint64_t)c[0] * PHILOX_M0, p1 = (uint64_t)c[2] * PHILOX_M1;
        const uint32_t c0 = (uint32_t)(p1 >> 32) ^ c[1] ^ k0;
        const uint32_t c2 = (uint32_t)(p0 >> 32) ^ c[3] ^ k1;
        c[1] = (uint32_t)p1, c[3] = (uint32_t)p0, c[0] = c0, c[2] = c2;
    }
}

/* bit j set where lane j of the comparison a >= b holds */
INLINE unsigned lanes_ge(swords a, swords b)
{
#if defined(__AVX512F__)
    return _mm512_cmpge_epi64_mask((__m512i)a, (__m512i)b);
#else
    const swords ge = a >= b;
    unsigned mask = 0;
    for (int j = 0; j < SLOTS; j++)
        mask |= (unsigned)(ge[j] & 1) << j;
    return mask;
#endif
}

/* ------------------------------------------------------------------------
 * 128-layer ziggurat
 * ------------------------------------------------------------------------ */

#define ZIG_LAYERS 128
#define ZIG_R 3.442619855899        /* start of the tail */
#define ZIG_V 9.91256303526217e-3   /* area of each layer */
#define TWO52 4503599627370496.0

/* layer i covers |x| < w[i] 2^52; the magnitude r >> 12 is accepted at once
 * below k[i] (x inside the layer's rectangle under the curve); f[i] is the
 * density exp(-x^2/2) at the layer's edge */
static struct {
    double w[ZIG_LAYERS], f[ZIG_LAYERS];
    int64_t k[ZIG_LAYERS];
} zig;

__attribute__((constructor)) static void zig_init(void)
{
    double dn = ZIG_R, tn = ZIG_R;
    const double q = ZIG_V / exp(-0.5 * dn * dn);
    zig.k[0] = (int64_t)(dn / q * TWO52);
    zig.k[1] = 0;
    zig.w[0] = q / TWO52;
    zig.w[ZIG_LAYERS - 1] = dn / TWO52;
    zig.f[0] = 1.0;
    zig.f[ZIG_LAYERS - 1] = exp(-0.5 * dn * dn);
    for (int i = ZIG_LAYERS - 2; i >= 1; i--) {
        dn = sqrt(-2.0 * log(ZIG_V / dn + exp(-0.5 * dn * dn)));
        zig.k[i + 1] = (int64_t)(dn / tn * TWO52);
        tn = dn;
        zig.f[i] = exp(-0.5 * dn * dn);
        zig.w[i] = dn / TWO52;
    }
}

/* table[idx], one layer per slot, by one load per slot: on AVX-512 hosts
 * measured faster than the gather instructions */
INLINE slots gather(const double *table, words idx)
{
    slots v;
    for (int j = 0; j < SLOTS; j++)
        v[j] = table[idx[j]];
    return v;
}

INLINE swords gather_k(words idx)
{
    swords k;
    for (int j = 0; j < SLOTS; j++)
        k[j] = zig.k[idx[j]];
    return k;
}

/* the normals of words r, one per slot: the magnitude r >> 12 (below 2^52,
 * so exact as the exponent of 2^52 over its bits, less 2^52) times the
 * layer's width, with the sign of bit 7 */
INLINE slots zig_xs(words r)
{
    const slots m = (slots)(r >> 12 | 0x4330000000000000u) - TWO52;
    return (slots)((words)(m * gather(zig.w, r & 127)) ^ (r >> 7 & 1) << 63);
}

/* the slots whose words r miss the fast path, as a bit mask */
INLINE unsigned zig_misses(words r)
{
    return lanes_ge((swords)(r >> 12), gather_k(r & 127));
}

/* the slow path's further words of one normal */
typedef struct {
    uint32_t c[4];
    uint64_t key;
    uint32_t x[4];
    int left;
} Stream;

static uint64_t next_word(Stream *s)
{
    if (!s->left) {
        memcpy(s->x, s->c, sizeof s->x);
        philox1(s->x, s->key);
        s->c[3] += 2;
        s->left = 2;
    }
    const int i = 2 * (2 - s->left--);
    return s->x[i] | (uint64_t)s->x[i + 1] << 32;
}

static double next_uniform(Stream *s)
{
    return (double)(next_word(s) >> 11) * 0x1.0p-53;
}

/* the normal of word r */
static double zig_x(uint64_t r)
{
    const double x = (double)(r >> 12) * zig.w[r & 127];
    return r >> 7 & 1 ? -x : x;
}

/* the normal whose fast-path word r was rejected: the tail beyond ZIG_R
 * (layer 0) or the wedge test, then fresh words until one is accepted */
static double zig_slow(uint64_t r, Stream *s)
{
    for (;;) {
        const int64_t i = r & 127;
        const double x = zig_x(r);
        if (i == 0) {
            double xx, yy;
            do {
                xx = -(1.0 / ZIG_R) * log1p(-next_uniform(s));
                yy = -log1p(-next_uniform(s));
            } while (!(yy + yy > xx * xx));
            return r >> 7 & 1 ? -(ZIG_R + xx) : ZIG_R + xx;
        }
        if (zig.f[i] + next_uniform(s) * (zig.f[i - 1] - zig.f[i]) < exp(-0.5 * x * x))
            return x;
        r = next_word(s);
        if ((int64_t)(r >> 12) < zig.k[r & 127])
            return zig_x(r);
    }
}

/* entries drawn, at least, per finish_slow outside an overflow: 1024
 * normals, about 29 of them slow, so its groups run at or near SLOTS lanes */
#define CHUNK 64

/* the normals whose fast-path words were rejected, finished together by
 * finish_slow once their fast neighbours are written: per normal its word
 * r, its counter (c0 + 2^32 c3, c1, c2), where it goes and its scale */
#define PENDING 64

typedef struct {
    uint64_t key;
    int n;
    uint64_t r[PENDING], c03[PENDING], c1[PENDING], c2[PENDING];
    double *out[PENDING], scale[PENDING];
} Slow;

INLINE words load_words(const uint64_t *p)
{
    words v;
    memcpy(&v, p, sizeof v);
    return v;
}

/* the first round of zig_slow for queued normals i0 .. i0+n-1 at once (n <=
 * SLOTS, i0 a multiple of SLOTS; the lanes past n read unused entries), from
 * the two words of each one's first Philox call: the wedge test on the
 * first, then the fast test on the second. The tail (layer 0), and the
 * normals whose second word misses the fast path too, go on in zig_slow
 * with their streams where it would have them. */
static void finish_group(Slow *q, int i0, int n)
{
    const words r = load_words(q->r + i0), c03 = load_words(q->c03 + i0);
    const words c[4] = {c03 & LO32, load_words(q->c1 + i0), load_words(q->c2 + i0), c03 >> 32};
    words x[4] = {c[0], c[1], c[2], c[3]};
    philox(x, ~q->key);
    /* the first word as a uniform, exact below 2^53; the tail's lanes (layer
     * 0, idx <= 0) read layer 127 for f[i - 1] and ignore it */
    const words idx = r & 127, r2 = x[2] | x[3] << 32;
    const swords bits = (swords)((x[0] | x[1] << 32) >> 11);
    const slots u = __builtin_convertvector(bits, slots) * 0x1.0p-53;
    const slots f = gather(zig.f, idx), wedge = f + u * (gather(zig.f, (idx - 1) & 127) - f);
    const slots x1 = zig_xs(r), arg = -0.5 * x1 * x1, x2 = zig_xs(r2);
    const unsigned all = (1u << n) - 1, tail = all & lanes_ge((swords){0}, (swords)idx);
    const unsigned miss2 = zig_misses(r2);
    double lanes[4][SLOTS];
    memcpy(lanes[0], &wedge, sizeof wedge);
    memcpy(lanes[1], &arg, sizeof arg);
    memcpy(lanes[2], &x1, sizeof x1);
    memcpy(lanes[3], &x2, sizeof x2);
#if defined(__AVX__)
    /* clean upper vector state for the C library's SSE code */
    _mm256_zeroupper();
#endif
    unsigned first = 0;
    for (unsigned m = all & ~tail; m; m &= m - 1) {
        const int j = __builtin_ctz(m);
        first |= (unsigned)(lanes[0][j] < exp(lanes[1][j])) << j;
    }
    const unsigned rest = all & ~first & (tail | miss2);
    for (unsigned m = all & ~rest; m; m &= m - 1) {
        const int j = __builtin_ctz(m);
        *q->out[i0 + j] = q->scale[i0 + j] * (first >> j & 1 ? lanes[2][j] : lanes[3][j]);
    }
    for (unsigned m = rest; m; m &= m - 1) {
        const int j = __builtin_ctz(m), more = !(tail >> j & 1);
        Stream s = {{(uint32_t)c[0][j], (uint32_t)c[1][j], (uint32_t)c[2][j],
                     (uint32_t)c[3][j] + 2}, ~q->key,
                    {(uint32_t)x[0][j], (uint32_t)x[1][j], (uint32_t)x[2][j],
                     (uint32_t)x[3][j]}, more ? 0 : 2};
        *q->out[i0 + j] = q->scale[i0 + j] * zig_slow(more ? r2[j] : r[j], &s);
    }
}

static void finish_slow(Slow *q)
{
    for (int i0 = 0; i0 < q->n; i0 += SLOTS)
        finish_group(q, i0, q->n - i0 < SLOTS ? q->n - i0 : SLOTS);
    q->n = 0;
}

/* scale * (the normals of words r) into out[0 .. SLOTS); the rejected ones
 * go to q, in slot order, with their counters (e, lo[slot], hi[slot], half) */
INLINE void zig_slots(words r, double scale, int64_t e, words lo, words hi, uint32_t half,
                      double *out, Slow *q)
{
    const slots x = scale * zig_xs(r);
    memcpy(out, &x, sizeof x);
    unsigned miss = zig_misses(r);
    if (miss && q->n > PENDING - SLOTS)
        finish_slow(q);
    for (; miss; miss &= miss - 1) {
        const int j = __builtin_ctz(miss), i = q->n++;
        q->r[i] = r[j], q->c03[i] = (uint32_t)e | (uint64_t)half << 32;
        q->c1[i] = lo[j], q->c2[i] = hi[j];
        q->out[i] = out + j, q->scale[i] = scale;
    }
}

/* scale * (unit normals) of entries e .. e+n-1 for the draws b0 ..
 * b0+SLOTS-1 of the run, entry e+i into rows re[i SLOTS ..] and
 * im[i SLOTS ..], complete after finish_slow(q). Two entries share each
 * Philox call; an odd last one is drawn alone. */
static void draw_entries(uint64_t b0, int64_t e, int64_t n, double scale, double *re, double *im,
                         Slow *q)
{
    const words iota = {0, 1, 2, 3, 4, 5, 6, 7};
    const words at = iota + (b0 & LO32), lo = at & LO32, hi = (b0 >> 32) + (at >> 32);
    int64_t i = 0;
    for (; i + 1 < n; i += 2) {
        words a[4] = {(words){0} + (uint32_t)(e + i), lo, hi, (words){0}};
        words b[4] = {(words){0} + (uint32_t)(e + i + 1), lo, hi, (words){0}};
        philox2(a, b, q->key);
        zig_slots(a[0] | a[1] << 32, scale, e + i, lo, hi, 0, re + i * SLOTS, q);
        zig_slots(a[2] | a[3] << 32, scale, e + i, lo, hi, 1, im + i * SLOTS, q);
        zig_slots(b[0] | b[1] << 32, scale, e + i + 1, lo, hi, 0, re + (i + 1) * SLOTS, q);
        zig_slots(b[2] | b[3] << 32, scale, e + i + 1, lo, hi, 1, im + (i + 1) * SLOTS, q);
    }
    if (i < n) {
        words a[4] = {(words){0} + (uint32_t)(e + i), lo, hi, (words){0}};
        philox(a, q->key);
        zig_slots(a[0] | a[1] << 32, scale, e + i, lo, hi, 0, re + i * SLOTS, q);
        zig_slots(a[2] | a[3] << 32, scale, e + i, lo, hi, 1, im + i * SLOTS, q);
    }
}

/* ------------------------------------------------------------------------
 * The pass
 * ------------------------------------------------------------------------ */

typedef struct {
    int64_t M, T, N, d;
    const int64_t *gptr;    /* (N+1,) users of group n are gptr[n]:gptr[n+1] */
    const double *pilot;    /* (M, T) sqrt(rho_p tau_p zeta) */
    const double *z_scale;  /* (M, N) */
    double noise_scale;
} Pilot;

/* scratch, each array with the slot as its minor index; a chunk is up to
 * chunk_aps consecutive APs, drawn together */
typedef struct {
    double *gre, *gim;  /* (chunk, T, SLOTS) gs of one chunk */
    double *zre, *zim;  /* (chunk, N, SLOTS) w, then z, of one chunk */
    double *pre, *pim;  /* (N, SLOTS) phases at one AP */
    double *are, *aim;  /* (T, N, SLOTS) gains */
    double *x;          /* (d, SLOTS) one user's moment vector */
    double *s1, *s2;    /* (T, d, SLOTS), (T, d(d+1)/2, SLOTS) slot sums */
} Scratch;

static int64_t tri(int64_t d)
{
    return d * (d + 1) / 2;
}

/* APs per chunk: the fewest that hold CHUNK entries, so that the slow
 * normals of one finish_slow fill its groups, but no more than M */
static int64_t chunk_aps(int64_t M, int64_t T, int64_t N)
{
    const int64_t n = (CHUNK + T + N - 1) / (T + N);
    return n < M ? n : M;
}

static int64_t scratch_len(int64_t M, int64_t T, int64_t N)
{
    const int64_t d = N + 2;
    return SLOTS * (2 * chunk_aps(M, T, N) * (T + N) + 2 * N + 2 * T * N + d + T * d
                    + T * tri(d));
}

static Scratch carve(double *w, const Pilot *P)
{
    const int64_t T = P->T, N = P->N, d = P->d, chunk = chunk_aps(P->M, T, N);
    Scratch s;
    s.gre = w, w += SLOTS * chunk * T;
    s.gim = w, w += SLOTS * chunk * T;
    s.zre = w, w += SLOTS * chunk * N;
    s.zim = w, w += SLOTS * chunk * N;
    s.pre = w, w += SLOTS * N;
    s.pim = w, w += SLOTS * N;
    s.are = w, w += SLOTS * T * N;
    s.aim = w, w += SLOTS * T * N;
    s.x = w, w += SLOTS * d;
    s.s1 = w, w += SLOTS * T * d;
    s.s2 = w;
    return s;
}

static vec vsqrt(vec v)
{
    for (int j = 0; j < LANES; j++)
        v[j] = sqrt(v[j]);
    return v;
}

/* row_j[i] = tile[i, j] over n entries for the k present slots */
static void scatter(double *restrict dst, const double *restrict tile, int64_t stride,
                    int64_t n, int64_t k)
{
    for (int64_t i = 0; i < n; i++)
        for (int64_t j = 0; j < k; j++)
            dst[j * stride + i] = tile[i * SLOTS + j];
}

/* unit normals of entries 0 .. entries-1 for draws first .. first+count-1
 * of the run: out is (2, count, entries), Re then Im */
void mc_normals(uint64_t key, int64_t first, int64_t count, int64_t entries, double *out)
{
    double re[CHUNK * SLOTS], im[CHUNK * SLOTS];
    Slow q = {.key = key};
    for (int64_t b0 = 0; b0 < count; b0 += SLOTS) {
        const int64_t k = count - b0 < SLOTS ? count - b0 : SLOTS;
        for (int64_t e0 = 0; e0 < entries; e0 += CHUNK) {
            const int64_t n = entries - e0 < CHUNK ? entries - e0 : CHUNK;
            draw_entries(first + b0, e0, n, 1.0, re, im, &q);
            finish_slow(&q);
            scatter(out + b0 * entries + e0, re, entries, n, k);
            scatter(out + (count + b0) * entries + e0, im, entries, n, k);
        }
    }
}

/* the chunk of APs m0 .. m0+n-1, draws b0 .. b0+k-1 (k <= SLOTS) of the
 * run, into the tiles: gs, and the noise normals w. The absent slots get
 * g = 0 and w = 1 only after finish_slow, which writes the slow normals of
 * their draws. */
static void draw_chunk(const Pilot *P, Slow *q, int64_t m0, int64_t n, int64_t b0, int64_t k,
                       const Scratch *s)
{
    const int64_t T = P->T, N = P->N;
    draw_entries(b0, m0 * T, n * T, SQRT_HALF, s->gre, s->gim, q);
    draw_entries(b0, P->M * T + m0 * N, n * N, 1.0, s->zre, s->zim, q);
    finish_slow(q);
    for (int64_t j = k; j < SLOTS; j++) {
        for (int64_t u = 0; u < n * T; u++)
            s->gre[u * SLOTS + j] = s->gim[u * SLOTS + j] = 0.0;
        for (int64_t i = 0; i < n * N; i++)
            s->zre[i * SLOTS + j] = 1.0, s->zim[i * SLOTS + j] = 0.0;
    }
}

/* z of AP m, the chunk's AP i, in its tiles in place of w, and its phases
 * into pre/pim */
static void pilot_ap(const Pilot *P, int64_t m, int64_t i, const Scratch *s)
{
    const int64_t N = P->N;
    const double *c = P->pilot + m * P->T;
    const double *gre = s->gre + i * P->T * SLOTS, *gim = s->gim + i * P->T * SLOTS;
    for (int64_t n = 0; n < N; n++) {
        const int64_t lo = P->gptr[n], hi = P->gptr[n + 1];
        const double zs = P->z_scale[m * N + n];
        double *zre = s->zre + (i * N + n) * SLOTS, *zim = s->zim + (i * N + n) * SLOTS;
        for (int v = 0; v < VECS; v++) {
            const int64_t o = v * LANES;
            vec yr = splat(c[lo]) * load(gre + lo * SLOTS + o);
            vec yi = splat(c[lo]) * load(gim + lo * SLOTS + o);
            for (int64_t u = lo + 1; u < hi; u++) {
                yr += splat(c[u]) * load(gre + u * SLOTS + o);
                yi += splat(c[u]) * load(gim + u * SLOTS + o);
            }
            yr += P->noise_scale * load(zre + o);
            yi += P->noise_scale * load(zim + o);
            vec zr = yr / zs, zi = yi / zs;
            vec r = vsqrt(zr * zr + zi * zi);
            store(zre + o, zr);
            store(zim + o, zi);
            store(s->pre + n * SLOTS + o, zr / r);
            store(s->pim + n * SLOTS + o, zi / r);
        }
    }
}

/* gs (2, count, M, T) and z (2, count, M, N) of draws first .. first+count-1
 * of the run */
int mc_pilot(int64_t M, int64_t T, int64_t N, const int64_t *gptr, const double *c,
             double noise_scale, const double *z_scale, uint64_t key, int64_t first,
             int64_t count, double *g, double *z)
{
    const Pilot P = {M, T, N, N + 2, gptr, c, z_scale, noise_scale};
    Slow q = {.key = key};
    double *scratch = malloc(scratch_len(M, T, N) * sizeof(double));
    if (!scratch)
        return NO_MEMORY;
    const Scratch s = carve(scratch, &P);
    const int64_t MT = M * T, MN = M * N, chunk = chunk_aps(M, T, N);
    for (int64_t b0 = 0; b0 < count; b0 += SLOTS) {
        const int64_t k = count - b0 < SLOTS ? count - b0 : SLOTS;
        for (int64_t m0 = 0; m0 < M; m0 += chunk) {
            const int64_t n = M - m0 < chunk ? M - m0 : chunk;
            draw_chunk(&P, &q, m0, n, first + b0, k, &s);
            for (int64_t i = 0; i < n; i++)
                pilot_ap(&P, m0 + i, i, &s);
            scatter(g + b0 * MT + m0 * T, s.gre, MT, n * T, k);
            scatter(g + (count + b0) * MT + m0 * T, s.gim, MT, n * T, k);
            scatter(z + b0 * MN + m0 * N, s.zre, MN, n * N, k);
            scatter(z + (count + b0) * MN + m0 * N, s.zim, MN, n * N, k);
        }
    }
    free(scratch);
    return 0;
}

/* a_uj += weight[m, u] gs_mu conj(p_mj) for every user and group, over the
 * slots of one pass at AP m, the chunk's AP i */
static void add_gains(const Pilot *P, const double *weight, int64_t m, int64_t i,
                      const Scratch *s)
{
    const int64_t T = P->T, N = P->N;
    const double *gre = s->gre + i * T * SLOTS, *gim = s->gim + i * T * SLOTS;
    for (int64_t u = 0; u < T; u++) {
        const vec w = splat(weight[m * T + u]);
        for (int v = 0; v < VECS; v++) {
            const int64_t o = v * LANES;
            const vec hr = load(gre + u * SLOTS + o) * w;
            const vec hi = load(gim + u * SLOTS + o) * w;
            for (int64_t j = 0; j < N; j++) {
                double *ar = s->are + (u * N + j) * SLOTS + o;
                double *ai = s->aim + (u * N + j) * SLOTS + o;
                const vec pr = load(s->pre + j * SLOTS + o), pi = load(s->pim + j * SLOTS + o);
                vec r = load(ar), i = load(ai);
                r += hr * pr;
                r += hi * pi;
                i += hi * pr;
                i -= hr * pi;
                store(ar, r);
                store(ai, i);
            }
        }
    }
}

/* each user's moment vector from the gains of one pass, added to its slot
 * sums */
static void add_moments(const Pilot *P, const Scratch *s)
{
    const int64_t N = P->N, d = P->d, t2 = tri(d);
    for (int64_t n = 0; n < N; n++) {
        for (int64_t u = P->gptr[n]; u < P->gptr[n + 1]; u++) {
            for (int v = 0; v < VECS; v++) {
                const int64_t o = v * LANES;
                const vec r = load(s->are + (u * N + n) * SLOTS + o);
                const vec i = load(s->aim + (u * N + n) * SLOTS + o);
                store(s->x + o, r);
                store(s->x + SLOTS + o, i);
                store(s->x + 2 * SLOTS + o, r * r + i * i);
                for (int64_t j = 0, col = 3; j < N; j++) {
                    if (j == n)
                        continue;
                    const vec rj = load(s->are + (u * N + j) * SLOTS + o);
                    const vec ij = load(s->aim + (u * N + j) * SLOTS + o);
                    store(s->x + col++ * SLOTS + o, rj * rj + ij * ij);
                }
                for (int64_t p = 0, e = 0; p < d; p++) {
                    const vec xp = load(s->x + p * SLOTS + o);
                    double *s1 = s->s1 + (u * d + p) * SLOTS + o;
                    store(s1, load(s1) + xp);
                    for (int64_t q = p; q < d; q++, e++) {
                        double *s2 = s->s2 + (u * t2 + e) * SLOTS + o;
                        store(s2, load(s2) + xp * load(s->x + q * SLOTS + o));
                    }
                }
            }
        }
    }
}

static double slot_sum(const double *a)
{
    double acc = a[0];
    for (int j = 1; j < SLOTS; j++)
        acc += a[j];
    return acc;
}

/* Moment sums s1 (T, d) and s2 (T, d, d) of draws first .. first+count-1 of
 * the run, with the per-user weights weight (M, T) = sqrt(zeta_mu eta_mn), n
 * the user's group. */
int mc_block(int64_t M, int64_t T, int64_t N, const int64_t *gptr, const double *c,
             double noise_scale, const double *z_scale, uint64_t key, int64_t first,
             int64_t count, const double *weight, double *s1, double *s2)
{
    const Pilot P = {M, T, N, N + 2, gptr, c, z_scale, noise_scale};
    Slow q = {.key = key};
    double *scratch = malloc(scratch_len(M, T, N) * sizeof(double));
    if (!scratch)
        return NO_MEMORY;
    const Scratch s = carve(scratch, &P);
    const int64_t d = P.d, t2 = tri(d), chunk = chunk_aps(M, T, N);
    memset(s.s1, 0, SLOTS * T * d * sizeof(double));
    memset(s.s2, 0, SLOTS * T * t2 * sizeof(double));
    for (int64_t b0 = 0; b0 < count; b0 += SLOTS) {
        const int64_t k = count - b0 < SLOTS ? count - b0 : SLOTS;
        memset(s.are, 0, SLOTS * T * N * sizeof(double));
        memset(s.aim, 0, SLOTS * T * N * sizeof(double));
        for (int64_t m0 = 0; m0 < M; m0 += chunk) {
            const int64_t n = M - m0 < chunk ? M - m0 : chunk;
            draw_chunk(&P, &q, m0, n, first + b0, k, &s);
            for (int64_t i = 0; i < n; i++) {
                pilot_ap(&P, m0 + i, i, &s);
                add_gains(&P, weight, m0 + i, i, &s);
            }
        }
        add_moments(&P, &s);
    }
    for (int64_t u = 0; u < T; u++) {
        for (int64_t p = 0, e = 0; p < d; p++) {
            s1[u * d + p] = slot_sum(s.s1 + (u * d + p) * SLOTS);
            for (int64_t q = p; q < d; q++, e++)
                s2[(u * d + p) * d + q] = s2[(u * d + q) * d + p] =
                    slot_sum(s.s2 + (u * t2 + e) * SLOTS);
        }
    }
    free(scratch);
    return 0;
}
