/* One block of the Monte-Carlo rate oracle in a single pass.
 *
 * A block holds `count` joint draws of unit normals, drawn by numpy in the
 * stream order Re g, Im g, Re w, Im w: g is (2, count, M, T) and w is
 * (2, count, M, N), both row-major. Per draw b and AP m:
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
 * draw b always lands in slot b mod SLOTS, whatever the lane width: a vector
 * holds LANES of the slots, and a pass runs SLOTS / LANES vectors. Every slot
 * keeps its own moment sums, in draw order; at the end of the block the
 * slots are added in slot order. Lanes never share a sum and every operation
 * is the same in each lane, so block sums are bit-identical on 8-, 4- and
 * 2-lane builds. Build without -ffast-math and without FP contraction (see
 * apg_stage.c).
 *
 * A pass first copies its draws into slot-minor tiles (M, T, SLOTS) and
 * (M, N, SLOTS), and at its end copies z back into the caller's array in
 * place of w. The slots past the
 * end of the last pass hold g = 0 and w = 1: their phases are finite and
 * their gains zero, so they add zeros to the sums and nothing is written
 * back for them.
 *
 * The caller allocates the scratch (mc_scratch_len doubles); the code keeps
 * no static state, so threads may run blocks at once in their own scratch.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#define SLOTS 8
#define SQRT_HALF 0.70710678118654752440

#if defined(__AVX512F__)
#define LANES 8
#elif defined(__AVX__)
#define LANES 4
#else
#define LANES 2
#endif

#define VECS (SLOTS / LANES)

typedef double vec __attribute__((vector_size(LANES * sizeof(double))));

typedef struct {
    int64_t M, T, N, d;
    const int64_t *gptr;    /* (N+1,) users of group n are gptr[n]:gptr[n+1] */
    const double *pilot;    /* (M, T) sqrt(rho_p tau_p zeta) */
    const double *z_scale;  /* (M, N) */
    double noise_scale;
} Pilot;

/* scratch, each array with the slot as its minor index */
typedef struct {
    double *gre, *gim;  /* (M, T, SLOTS) gs of one pass */
    double *zre, *zim;  /* (M, N, SLOTS) w, then z, of one pass */
    double *pre, *pim;  /* (N, SLOTS) phases at one AP */
    double *are, *aim;  /* (T, N, SLOTS) gains */
    double *x;          /* (d, SLOTS) one user's moment vector */
    double *s1, *s2;    /* (T, d, SLOTS), (T, d(d+1)/2, SLOTS) slot sums */
} Scratch;

static int64_t tri(int64_t d)
{
    return d * (d + 1) / 2;
}

int64_t mc_scratch_len(int64_t M, int64_t T, int64_t N)
{
    const int64_t d = N + 2;
    return SLOTS * (2 * M * (T + N) + 2 * N + 2 * T * N + d + T * d + T * tri(d));
}

static Scratch carve(double *w, const Pilot *P)
{
    const int64_t M = P->M, T = P->T, N = P->N, d = P->d;
    Scratch s;
    s.gre = w, w += SLOTS * M * T;
    s.gim = w, w += SLOTS * M * T;
    s.zre = w, w += SLOTS * M * N;
    s.zim = w, w += SLOTS * M * N;
    s.pre = w, w += SLOTS * N;
    s.pim = w, w += SLOTS * N;
    s.are = w, w += SLOTS * T * N;
    s.aim = w, w += SLOTS * T * N;
    s.x = w, w += SLOTS * d;
    s.s1 = w, w += SLOTS * T * d;
    s.s2 = w;
    return s;
}

static vec splat(double a)
{
    vec v;
    for (int j = 0; j < LANES; j++)
        v[j] = a;
    return v;
}

static vec load(const double *p)
{
    vec v;
    memcpy(&v, p, sizeof v);
    return v;
}

static void store(double *p, vec v)
{
    memcpy(p, &v, sizeof v);
}

static vec vsqrt(vec v)
{
    for (int j = 0; j < LANES; j++)
        v[j] = sqrt(v[j]);
    return v;
}

/* tile[i, j] = scale * row_j[i] over n entries for the k present slots, and
 * absent for the others; row_j = src + j * stride */
static void gather(double *restrict tile, const double *restrict src, int64_t stride,
                   int64_t n, int64_t k, double scale, double absent)
{
    if (k == SLOTS) {
        for (int64_t i = 0; i < n; i++)
            for (int j = 0; j < SLOTS; j++)
                tile[i * SLOTS + j] = scale * src[j * stride + i];
        return;
    }
    for (int64_t i = 0; i < n; i++)
        for (int j = 0; j < SLOTS; j++)
            tile[i * SLOTS + j] = j < k ? scale * src[j * stride + i] : absent;
}

/* row_j[i] = tile[i, j] over n entries for the k present slots */
static void scatter(double *restrict dst, const double *restrict tile, int64_t stride,
                    int64_t n, int64_t k)
{
    for (int64_t i = 0; i < n; i++)
        for (int64_t j = 0; j < k; j++)
            dst[j * stride + i] = tile[i * SLOTS + j];
}

/* The draws b0 .. b0+k-1 (k <= SLOTS) into the tiles: gs, and the noise
 * normals w (g = 0, w = 1 in the absent slots) */
static void load_pass(const Pilot *P, const double *g, const double *wz, int64_t count,
                      int64_t b0, int64_t k, const Scratch *s)
{
    const int64_t MT = P->M * P->T, MN = P->M * P->N;
    gather(s->gre, g + b0 * MT, MT, MT, k, SQRT_HALF, 0.0);
    gather(s->gim, g + (count + b0) * MT, MT, MT, k, SQRT_HALF, 0.0);
    gather(s->zre, wz + b0 * MN, MN, MN, k, 1.0, 1.0);
    gather(s->zim, wz + (count + b0) * MN, MN, MN, k, 1.0, 0.0);
}

/* z of AP m, in the tiles in place of w, and its phases into pre/pim */
static void pilot_ap(const Pilot *P, int64_t m, const Scratch *s)
{
    const int64_t T = P->T, N = P->N;
    const double *c = P->pilot + m * T;
    const double *gre = s->gre + m * T * SLOTS, *gim = s->gim + m * T * SLOTS;
    for (int64_t n = 0; n < N; n++) {
        const int64_t lo = P->gptr[n], hi = P->gptr[n + 1];
        const double zs = P->z_scale[m * N + n];
        double *zre = s->zre + (m * N + n) * SLOTS, *zim = s->zim + (m * N + n) * SLOTS;
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

/* the pass's z back into wz, in place of w */
static void store_z(const Pilot *P, double *wz, int64_t count, int64_t b0, int64_t k,
                    const Scratch *s)
{
    const int64_t MN = P->M * P->N;
    scatter(wz + b0 * MN, s->zre, MN, MN, k);
    scatter(wz + (count + b0) * MN, s->zim, MN, MN, k);
}

/* gs and z of `count` draws: g is scaled in place to gs and w is replaced
 * by z. */
void mc_pilot(int64_t M, int64_t T, int64_t N, const int64_t *gptr, const double *c,
              double noise_scale, const double *z_scale, int64_t count, double *g,
              double *wz, double *scratch)
{
    const Pilot P = {M, T, N, N + 2, gptr, c, z_scale, noise_scale};
    const Scratch s = carve(scratch, &P);
    const int64_t MT = M * T;
    for (int64_t b0 = 0; b0 < count; b0 += SLOTS) {
        const int64_t k = count - b0 < SLOTS ? count - b0 : SLOTS;
        load_pass(&P, g, wz, count, b0, k, &s);
        for (int64_t m = 0; m < M; m++)
            pilot_ap(&P, m, &s);
        store_z(&P, wz, count, b0, k, &s);
        scatter(g + b0 * MT, s.gre, MT, MT, k);
        scatter(g + (count + b0) * MT, s.gim, MT, MT, k);
    }
}

/* a_uj += weight[m, u] gs_mu conj(p_mj) for every user and group, over the
 * slots of one pass at AP m */
static void add_gains(const Pilot *P, const double *weight, int64_t m, const Scratch *s)
{
    const int64_t T = P->T, N = P->N;
    for (int64_t u = 0; u < T; u++) {
        const vec w = splat(weight[m * T + u]);
        for (int v = 0; v < VECS; v++) {
            const int64_t o = v * LANES;
            const vec hr = load(s->gre + (m * T + u) * SLOTS + o) * w;
            const vec hi = load(s->gim + (m * T + u) * SLOTS + o) * w;
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

/* Moment sums s1 (T, d) and s2 (T, d, d) of `count` draws, with the
 * per-user weights weight (M, T) = sqrt(zeta_mu eta_mn), n the user's group.
 * On return wz holds the draws' z, as after mc_pilot; g is left as it is. */
void mc_block(int64_t M, int64_t T, int64_t N, const int64_t *gptr, const double *c,
              double noise_scale, const double *z_scale, int64_t count, const double *g,
              double *wz, const double *weight, double *scratch, double *s1, double *s2)
{
    const Pilot P = {M, T, N, N + 2, gptr, c, z_scale, noise_scale};
    const Scratch s = carve(scratch, &P);
    const int64_t d = P.d, t2 = tri(d);
    memset(s.s1, 0, SLOTS * T * d * sizeof(double));
    memset(s.s2, 0, SLOTS * T * t2 * sizeof(double));
    for (int64_t b0 = 0; b0 < count; b0 += SLOTS) {
        const int64_t k = count - b0 < SLOTS ? count - b0 : SLOTS;
        memset(s.are, 0, SLOTS * T * N * sizeof(double));
        memset(s.aim, 0, SLOTS * T * N * sizeof(double));
        load_pass(&P, g, wz, count, b0, k, &s);
        for (int64_t m = 0; m < M; m++) {
            pilot_ap(&P, m, &s);
            add_gains(&P, weight, m, &s);
        }
        store_z(&P, wz, count, b0, k, &s);
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
}
