/* A chain of fixed-sigma monotone-APG stages in a single call (apg_chain).
 *
 * A stage is the loop of solver_apg.monotone_apg, run over one of two smooth
 * objectives on the per-AP orthant-ball set S:
 *
 *   APG_RATE    soft minimum of the user rates (apg_solve);
 *   APG_MARGIN  soft minimum of the cone margins at level t, with the exits
 *               of the bisection feasibility oracle: "feasible" once the min
 *               cone margin is >= -eps, "infeasible" once the Frank-Wolfe
 *               bound certifies the min-max residual above -eps (checked
 *               every gap_every iterations).
 *
 * apg_chain runs the stages it is given, each at its own sharpness and
 * plateau tolerance, in order and warm-started at the last iterate of the one
 * before: apg_solve's rate stage is a chain of one, the bisection oracle's
 * sharpness continuation a chain of margin stages. It sets no stage's
 * settings (solver_bisection computes the oracle's smoothing schedule), so a
 * chain equals a Python loop of one single-stage chain per stage bit for
 * bit; that loop is the reference in tests/test_oracle_continuation.py.
 *
 * Step policy of each iteration, in this order:
 *
 *   1. the extrapolated search from y; its accepted trial zn is taken as the
 *      next iterate at once when f(zn) >= f(mu) + delta*||zn - y||^2 (f(mu)
 *      is known from the previous iteration), and the plain branch is skipped:
 *      no value_grad(mu), no search, its step and first-try count unchanged;
 *   2. otherwise the plain search from mu and the monotone pick.
 *
 * Each search starts from its branch's current step, grown by 1/kappa only
 * when that branch's last step_grow_after searches all accepted their first
 * trial. The counts of such searches in a row start full, so each branch's
 * first search of a stage grows; a search that backtracks (or is rejected)
 * resets its count, and a skipped plain branch leaves it as it was. A
 * rejected extrapolation restores the step it started from.
 *
 * value is the first half of value_grad, and a margin is always the product
 * form lin*p_u - sqrt(e^t - 1)*sqrt(rho*q_u + 1), so a trial equal to the
 * iterate (an underflowed step) passes its test, and a failed plain-branch
 * search ("line_search") means a NaN objective or a wrong gradient.
 *
 * Every formula mirrors the numpy reference in kernels.py term by term. The
 * per-user exp and log1p are the vector kernels vexp and vlog1p below, built
 * from +, -, *, /, compares and bit operations only (no libm, no libmvec),
 * each within 1 ulp of the C library. The margin kernels sum in the order
 * given below, and kernels._exp repeats vexp operation for operation, so a
 * margin stage equals monotone_apg bit for bit; the rate kernels take the
 * dot products and log1p from numpy, so a rate stage agrees with it up to
 * their rounding. Build without -ffast-math and without FP contraction: a NaN
 * objective must keep failing the sufficient-increase test, as it does in
 * numpy, and the kernels must round the same on every lane width.
 *
 * Invariant for every edit of the kernels: each per-user sum
 * p_u = gs_u . mu_n, q_u = asq_u . mu_n^2 runs over m in ascending order,
 * one multiply then one add per term, with no FMA and no reassociation; each
 * gradient entry and the soft minimum's weight sum add their users in
 * ascending order, from +0.0. SIMD lanes hold different users (or different
 * m in the gradient), never parts of one sum, and vexp and vlog1p work lane
 * by lane, so results are bit-identical for every lane width. The gradient
 * takes each group's entries in blocks of 4 vectors of m, held in registers
 * while the group's users are added in ascending order and stored once per
 * block; the last M mod 4*LANES entries go through accumulate. So every
 * entry's sum, and with it every bit, is the one of a loop over users.
 *
 * Array conventions follow kernels.py: gs, asq are (T, M) row-major, gptr is
 * the (N+1,) group pointer, iterates are (N, M) row-major. For the dot
 * products each objective copies gs and asq into an (M, Tp) user-minor
 * layout in which every group is padded with zero columns to whole vectors
 * of LANES users; apg_chain makes these copies once for all its stages.
 * Per-user arrays (p, q, the rates or margins and their weights) hold
 * Tv = T rounded up to whole vectors; the padding entries are computed and
 * never read.
 *
 * Callers pass only inputs and outputs. apg_chain and apg_objective
 * allocate their work with posix_memalign at a 64-byte boundary and at
 * exactly the length they use, the user-minor copies first, and free it
 * before they return. So a stage's speed does not follow where the allocator
 * put a buffer, and a one-double overrun lands where a sanitizer sees it.
 * When the allocation fails, apg_chain returns NO_MEMORY and apg_objective
 * NaN.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#include "simd.h"

#define PI 3.141592653589793
#define BALL_SLACK 1e-12

typedef int64_t ivec __attribute__((vector_size(LANES * sizeof(double))));
typedef uint64_t uvec __attribute__((vector_size(LANES * sizeof(double))));

enum { APG_RATE = 0, APG_MARGIN = 1 };
enum {
    STOP_MAX_ITERS = 0,
    STOP_PLATEAU = 1,
    STOP_LINE_SEARCH = 2,
    STOP_FEASIBLE = 3,
    STOP_INFEASIBLE = 4
};
#define NO_MEMORY (-1)

typedef struct {
    double delta, kappa, alpha_y0, alpha_mu0, eps;
    int64_t max_iters, stop_window, line_search_cap, gap_every, step_grow_after;
} StageConfig;

/* per-call outputs besides the iterate and the traces */
typedef struct {
    int64_t iterations, rejections;
    int64_t evaluations, plain_skips;  /* value + value_grad calls; skipped plain branches */
    double f, aux;
    double alpha_mu, f_mu, f_best;  /* line-search failure */
    double bound;                   /* certified bound at the last gap check */
    int64_t stages, total_iterations;  /* apg_chain: stages run, their summed iterations */
} StageResult;

typedef struct {
    int kind;
    const double *gs, *asq;
    const int64_t *gptr;
    int64_t T, N, M, Tp, Tv;
    double rho, sigma;
    double set1, lin;  /* margin constants at level t: sqrt(e^t - 1), sqrt(pi*rho/4) */
    double *gt, *at;  /* (M, Tp) user-minor copies of gs, asq */
    double *v, *c, *pq, *acc;  /* scratch after them, in this order: Tv, Tv, 2Tv, M */
} Objective;

/* k rounded up to whole vectors: the columns of a group of k users in the
 * user-minor copies, and (k = T) the length of every per-user array */
static int64_t padded(int64_t k)
{
    return (k + LANES - 1) / LANES * LANES;
}

/* n doubles at a 64-byte boundary, or NULL */
static double *alloc64(int64_t n)
{
    void *p;
    return posix_memalign(&p, 64, n * sizeof(double)) ? NULL : p;
}

int64_t apg_lanes(void)
{
    return LANES;
}

/* Seconds on the monotonic clock: a stage stamps each iteration with it. */
double apg_clock(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

/* The squared norm of column out[0], out[M], ... overflowed: divide the
 * column by its largest entry and return its new squared norm, or, when that
 * entry is +inf, leave the column as it is and return inf. */
static double rescale_column(double *out, int64_t N, int64_t M)
{
    double top = 0.0;
    for (int64_t n = 0; n < N; n++)
        top = out[n * M] > top ? out[n * M] : top;
    if (isinf(top))
        return top;
    double nsq = 0.0;
    for (int64_t n = 0; n < N; n++) {
        out[n * M] /= top;
        nsq += out[n * M] * out[n * M];
    }
    return nsq;
}

static void project(const double *x, double *out, double *nsq, int64_t N, int64_t M)
{
    for (int64_t m = 0; m < M; m++)
        nsq[m] = 0.0;
    for (int64_t n = 0; n < N; n++) {
        for (int64_t m = 0; m < M; m++) {
            double v = x[n * M + m];
            double u = v <= 0.0 ? 0.0 : v;  /* -0 to +0, keeps NaN: as np.maximum */
            out[n * M + m] = u;
            nsq[m] += u * u;
        }
    }
    for (int64_t m = 0; m < M; m++) {
        if (nsq[m] > 1.0 + BALL_SLACK) {
            if (isinf(nsq[m]))
                nsq[m] = rescale_column(out + m, N, M);
            double s = sqrt(nsq[m]);
            for (int64_t n = 0; n < N; n++)
                out[n * M + m] /= s;
        }
    }
}

/* lane by lane m ? a : b, for masks of all ones or all zeros */
static vec blend(ivec m, vec a, vec b)
{
    return (vec)((m & (ivec)a) | (~m & (ivec)b));
}

#define LN2_HI 6.93147180369123816490e-01 /* 0x3fe62e42fee00000: 32 bits */
#define LN2_LO 1.90821492927058770002e-10 /* 0x3dea39ef35793c76 */
#define INV_LN2 1.44269504088896338700e+00
#define ROUND_MAGIC 0x1.8p52 /* x + it - it rounds x to an integer, which its low bits hold */

/* exact doubles of small integers */
static vec to_double(ivec k)
{
    return (vec)((uvec)k + (uvec)splat(ROUND_MAGIC)) - ROUND_MAGIC;
}

/* exp of each lane, within 1 ulp: Cody-Waite reduction x = k ln2 + s with
 * |s| <= ln2/2, the degree-13 Taylor polynomial of exp(s) (its truncation
 * error is below 5e-18), and 2^k applied as two factors, so a subnormal
 * result is rounded once. Lanes below -750 give 0, above 710 inf; NaN stays
 * NaN. kernels._exp repeats it operation for operation. */
static vec vexp(vec x)
{
    x = blend(x < -750.0, splat(-750.0), x);
    x = blend(x > 710.0, splat(710.0), x);
    vec t = x * INV_LN2 + ROUND_MAGIC;
    vec q = t - ROUND_MAGIC;
    ivec k = (ivec)t - (ivec)splat(ROUND_MAGIC);
    vec s = (x - q * LN2_HI) - q * LN2_LO;
    vec u = splat(1.0 / 6227020800.0);
    u = u * s + 1.0 / 479001600.0;
    u = u * s + 1.0 / 39916800.0;
    u = u * s + 1.0 / 3628800.0;
    u = u * s + 1.0 / 362880.0;
    u = u * s + 1.0 / 40320.0;
    u = u * s + 1.0 / 5040.0;
    u = u * s + 1.0 / 720.0;
    u = u * s + 1.0 / 120.0;
    u = u * s + 1.0 / 24.0;
    u = u * s + 1.0 / 6.0;
    u = u * s + 0.5;
    u = s * s * u + s + 1.0;
    ivec k1 = k >> 1, k2 = k - k1;
    return u * (vec)(((uvec)k1 + 1023) << 52) * (vec)(((uvec)k2 + 1023) << 52);
}

/* log1p of each lane x >= 0, within 1 ulp: fdlibm's s_log1p.c without its
 * branches. u = 1 + x = 2^k (1 + f) with sqrt(2)/2 <= 1 + f < sqrt(2), c the
 * rounding error of u relative to u, s = f/(2 + f), and log(1 + f) from the
 * series in s^2 (Lp1-Lp7). +inf gives +inf; NaN stays NaN. */
static vec vlog1p(vec x)
{
    vec u = x + 1.0;
    uvec hu = (uvec)u >> 32;
    ivec k = (ivec)(hu >> 20) - 1023;
    vec c = blend(k > 0, 1.0 - (u - x), x - (u - 1.0)) / u;
    uvec m = hu & 0xfffff;
    ivec big = (ivec)(m >= 0x6a09e); /* 1 + f would pass sqrt(2): halve it */
    k -= big;
    uvec hi = m | (0x3ff00000 - ((uvec)big & 0x00100000));
    vec f = (vec)((hi << 32) | ((uvec)u & 0xffffffff)) - 1.0;
    vec hfsq = 0.5 * f * f;
    vec s = f / (2.0 + f);
    vec z = s * s;
    vec r = z * (6.666666666666735130e-01 +
            z * (3.999999999940941908e-01 +
            z * (2.857142874366239149e-01 +
            z * (2.222219843214978396e-01 +
            z * (1.818357216161805012e-01 +
            z * (1.531383769920937332e-01 +
            z * 1.479819860511658591e-01))))));
    vec dk = to_double(k);
    vec y = dk * LN2_HI - ((hfsq - (s * (hfsq + r) + (dk * LN2_LO + c))) - f);
    return blend(x == INFINITY, x, y);
}

/* out = kernel(x) over n entries, for checking the kernels against the C
 * library */
static void over_array(vec (*kernel)(vec), const double *x, double *out, int64_t n)
{
    for (int64_t i = 0; i < n; i += LANES) {
        const int64_t k = n - i < LANES ? n - i : LANES;
        double buf[LANES] = {0};
        memcpy(buf, x + i, k * sizeof(double));
        store(buf, kernel(load(buf)));
        memcpy(out + i, buf, k * sizeof(double));
    }
}

void apg_vexp(const double *x, double *out, int64_t n)
{
    over_array(vexp, x, out, n);
}

void apg_vlog1p(const double *x, double *out, int64_t n)
{
    over_array(vlog1p, x, out, n);
}

/* p_u = gs_u . mu_n and q_u = asq_u . mu_n^2 for the users of group n, whose
 * columns in the user-minor copies start at col: one user per lane, two
 * vectors of users per pass over m */
static void group_pq(const Objective *o, const double *mu, int64_t n, int64_t col,
                     double *p, double *q)
{
    const int64_t M = o->M, Tp = o->Tp, hi = o->gptr[n + 1];
    const double *row = mu + n * M;
    for (int64_t u = o->gptr[n]; u < hi; u += 2 * LANES, col += 2 * LANES) {
        const double *gc = o->gt + col, *ac = o->at + col;
        vec p0 = {0}, q0 = {0}, p1 = {0}, q1 = {0};
        if (hi - u > LANES) {
            for (int64_t m = 0; m < M; m++) {
                const vec *g = (const vec *)(gc + m * Tp), *a = (const vec *)(ac + m * Tp);
                double r = row[m], r2 = r * r;
                p0 += g[0] * r;
                p1 += g[1] * r;
                q0 += a[0] * r2;
                q1 += a[1] * r2;
            }
        } else {
            for (int64_t m = 0; m < M; m++) {
                const vec *g = (const vec *)(gc + m * Tp), *a = (const vec *)(ac + m * Tp);
                double r = row[m], r2 = r * r;
                p0 += g[0] * r;
                q0 += a[0] * r2;
            }
        }
        for (int64_t j = 0; j < LANES && u + j < hi; j++) {
            p[u + j] = p0[j];
            q[u + j] = q0[j];
        }
        for (int64_t j = 0; j < LANES && u + LANES + j < hi; j++) {
            p[u + LANES + j] = p1[j];
            q[u + LANES + j] = q1[j];
        }
    }
}

/* p (first Tv entries of pq) and q (last Tv) of every user at mu; the
 * padding entries past T keep their values */
static void user_pq(const Objective *o, const double *mu, double *pq)
{
    int64_t col = 0;
    for (int64_t n = 0; n < o->N; n++) {
        group_pq(o, mu, n, col, pq, pq + o->Tv);
        col += padded(o->gptr[n + 1] - o->gptr[n]);
    }
}

/* minimum that propagates NaN, as ndarray.min */
static double vmin(const double *v, int64_t T)
{
    double lo = v[0];
    for (int64_t u = 1; u < T; u++)
        if (v[u] < lo || isnan(v[u]))
            lo = v[u];
    return lo;
}

/* v[u] = exp(-sigma*(v[u] - lo)) over whole vectors, lo = min of the first
 * T; returns lo and sets *wsum to the sum of the first T weights, added in
 * ascending order */
static double soft_weights(const Objective *o, double *wsum)
{
    const double lo = vmin(o->v, o->T), sigma = o->sigma;
    for (int64_t u = 0; u < o->Tv; u += LANES)
        store(o->v + u, vexp(-sigma * (load(o->v + u) - lo)));
    double s = 0.0;
    for (int64_t u = 0; u < o->T; u++)
        s += o->v[u];
    *wsum = s;
    return lo;
}

/* objective value from the p and q of user_pq; *aux is the true objective,
 * the min-rate or the min cone margin. v receives the soft minimum's weights
 * and *wsum their sum; with_c also fills c, for the gradient. */
static inline __attribute__((always_inline)) double
soft_value(const Objective *o, const double *pq, int with_c, double *wsum, double *aux)
{
    const int64_t T = o->T;
    const double rho = o->rho, *p = pq, *q = pq + o->Tv;
    if (o->kind == APG_RATE) {
        const double b = 0.25 * PI * rho;
        for (int64_t u = 0; u < o->Tv; u += LANES) {
            vec pu = load(p + u), c = rho * load(q + u) + 1.0;
            store(o->v + u, vlog1p(b * pu * pu / c));
            if (with_c)
                store(o->c + u, c);
        }
    } else {
        for (int64_t u = 0; u < T; u++) {
            double d = sqrt(rho * q[u] + 1.0);
            o->v[u] = o->lin * p[u] - o->set1 * d;
            if (with_c)
                o->c[u] = 1.0 / d;
        }
    }
    double lo = soft_weights(o, wsum);
    *aux = lo;
    return lo - log(*wsum / T) / o->sigma;
}

static double value(const Objective *o, const double *pq, double *aux)
{
    double wsum;
    return soft_value(o, pq, 0, &wsum, aux);
}

/* g += wg * gu and acc += wa * au over the M entries */
static void accumulate(double *restrict g, double *restrict acc, const double *restrict gu,
                       const double *restrict au, double wg, double wa, int64_t M)
{
    for (int64_t m = 0; m < M; m++) {
        g[m] += wg * gu[m];
        acc[m] += wa * au[m];
    }
}

/* entries per register block of the gradient */
#define BLOCK (4 * LANES)

/* value and gradient at mu, from the p and q of user_pq at mu */
static double value_grad(const Objective *o, const double *mu, const double *pq, double *grad,
                         double *aux)
{
    const int64_t M = o->M, Mb = M - M % BLOCK;
    const double rho = o->rho, *p = pq;
    double wsum, f = soft_value(o, pq, 1, &wsum, aux);  /* v now holds the weights */

    /* each user's gradient weights, in place: v[u] becomes wg, c[u] wa */
    for (int64_t u = 0; u < o->T; u++) {
        double w = o->v[u] / wsum;
        if (o->kind == APG_RATE) {
            double c = o->c[u];
            double bc = 0.25 * PI * rho * p[u] * p[u] + c;
            o->v[u] = w * (0.5 * PI * rho) * p[u] / bc;
            o->c[u] = w * 2.0 * rho * (1.0 / bc - 1.0 / c);
        } else {
            o->v[u] = w;
            o->c[u] = w * o->c[u];
        }
    }
    for (int64_t n = 0; n < o->N; n++) {
        const int64_t lo = o->gptr[n], hi = o->gptr[n + 1];
        double *g = grad + n * M;
        const double *row = mu + n * M;
        /* g = sum_u wg_u gs_u and acc = sum_u wa_u asq_u, a block at a time */
        for (int64_t m = 0; m < Mb; m += BLOCK) {
            vec g0 = {0}, g1 = {0}, g2 = {0}, g3 = {0}, a0 = {0}, a1 = {0}, a2 = {0}, a3 = {0};
            for (int64_t u = lo; u < hi; u++) {
                const double *gu = o->gs + u * M + m, *au = o->asq + u * M + m;
                const double wg = o->v[u], wa = o->c[u];
                g0 += wg * load(gu);
                g1 += wg * load(gu + LANES);
                g2 += wg * load(gu + 2 * LANES);
                g3 += wg * load(gu + 3 * LANES);
                a0 += wa * load(au);
                a1 += wa * load(au + LANES);
                a2 += wa * load(au + 2 * LANES);
                a3 += wa * load(au + 3 * LANES);
            }
            store(g + m, g0);
            store(g + m + LANES, g1);
            store(g + m + 2 * LANES, g2);
            store(g + m + 3 * LANES, g3);
            store(o->acc + m, a0);
            store(o->acc + m + LANES, a1);
            store(o->acc + m + 2 * LANES, a2);
            store(o->acc + m + 3 * LANES, a3);
        }
        for (int64_t m = Mb; m < M; m++) {
            g[m] = 0.0;
            o->acc[m] = 0.0;
        }
        for (int64_t u = lo; u < hi; u++)
            accumulate(g + Mb, o->acc + Mb, o->gs + u * M + Mb, o->asq + u * M + Mb, o->v[u],
                       o->c[u], M - Mb);
        if (o->kind == APG_RATE) {
            for (int64_t m = 0; m < M; m++)
                g[m] = g[m] + o->acc[m] * row[m];
        } else {
            for (int64_t m = 0; m < M; m++)
                g[m] = o->lin * g[m] - (o->set1 * rho * o->acc[m]) * row[m];
        }
    }
    return f;
}

/* Frank-Wolfe gap max_{s in S} <grad, s - x> */
static double support_gap(const double *grad, const double *x, double *nsq, int64_t N, int64_t M)
{
    double support = 0.0, inner = 0.0;
    for (int64_t m = 0; m < M; m++)
        nsq[m] = 0.0;
    for (int64_t n = 0; n < N; n++) {
        for (int64_t m = 0; m < M; m++) {
            double g = grad[n * M + m], pos = g > 0.0 ? g : 0.0;
            nsq[m] += pos * pos;
            inner += g * x[n * M + m];
        }
    }
    for (int64_t m = 0; m < M; m++)
        support += sqrt(nsq[m]);
    return support - inner;
}

/* The objective, with its user-minor copies and then its scratch in one
 * block from alloc64 at o.gt (NULL if that fails) that the caller frees.
 * The caller clears the per-user scratch. */
static Objective objective(int kind, const double *gs, const double *asq, const int64_t *gptr,
                           int64_t T, int64_t N, int64_t M, double rho, double sigma, double t)
{
    int64_t Tp = 0;
    for (int64_t n = 0; n < N; n++)
        Tp += padded(gptr[n + 1] - gptr[n]);
    const int64_t Tv = padded(T);
    /* the copies first: every row of Tp columns starts at whole vectors */
    double *gt = alloc64(2 * M * Tp + 4 * Tv + M);
    if (!gt)
        return (Objective){.gt = NULL};
    double *at = gt + M * Tp, *v = at + M * Tp;
    Objective o = {kind, gs, asq, gptr, T, N, M, Tp, Tv, rho, sigma, 0.0, 0.0, gt, at,
                   v, v + Tv, v + 2 * Tv, v + 4 * Tv};
    if (kind == APG_MARGIN) {
        o.set1 = sqrt(expm1(t));
        o.lin = sqrt(0.25 * PI * rho);
    }
    for (int64_t n = 0, col = 0; n < N; n++) {
        const int64_t lo = gptr[n], k = gptr[n + 1] - lo;
        for (int64_t m = 0; m < M; m++) {
            double *gr = gt + m * Tp + col, *ar = at + m * Tp + col;
            int64_t j = 0;
            for (; j < k; j++) {
                gr[j] = gs[(lo + j) * M + m];
                ar[j] = asq[(lo + j) * M + m];
            }
            for (; j < padded(k); j++)
                gr[j] = ar[j] = 0.0;
        }
        col += padded(k);
    }
    return o;
}

/* Zero the per-user scratch v, c, p/q and acc: their padding lanes enter the
 * kernels, so they must start finite. */
static void clear(const Objective *o)
{
    memset(o->v, 0, (4 * o->Tv + o->M) * sizeof(double));
}

/* One evaluation at mu, for checking single evaluations against numpy: the
 * value path when grad is NULL, else the value+gradient path. Writes aux;
 * returns the objective, or NaN (aux NaN) when its scratch cannot be
 * allocated. */
double apg_objective(int kind, const double *gs, const double *asq, const int64_t *gptr,
                     int64_t T, int64_t N, int64_t M, double rho, double sigma, double t,
                     const double *mu, double *grad, double *aux)
{
    Objective o = objective(kind, gs, asq, gptr, T, N, M, rho, sigma, t);
    if (!o.gt)
        return *aux = NAN;
    clear(&o);
    user_pq(&o, mu, o.pq);
    double f = grad ? value_grad(&o, mu, o.pq, grad, aux) : value(&o, o.pq, aux);
    free(o.gt);
    return f;
}

static double sq_dist(const double *a, const double *b, int64_t len)
{
    double s = 0.0;
    for (int64_t i = 0; i < len; i++) {
        double d = a[i] - b[i];
        s += d * d;
    }
    return s;
}

/* One stage on objective o at plateau tolerance stop_tol, in apg_chain's
 * work (9 N M + 6 Tv doubles at 64 bytes); see apg_chain. Kept out of line:
 * the stage's speed follows its code's placement, and inlined into apg_chain
 * the bisection oracle ran a few percent slower. */
static __attribute__((noinline)) int
run_stage(Objective o, const StageConfig *cfg, double stop_tol, double *x, double *work,
          double *trace_f, double *trace_aux, double *trace_ay, double *trace_am,
          int64_t *trace_bty, int64_t *trace_btm, double *trace_clock, StageResult *out)
{
    const int64_t N = o.N, M = o.M, L = N * M, Tv = o.Tv;
    double *mu = work, *mu_prev = mu + L, *z = mu_prev + L, *y = z + L, *zn = y + L;
    double *vn = zn + L, *tmp = vn + L, *gy = tmp + L, *gmu = gy + L;
    /* p and q of the trial points y, zn, vn; those of mu are kept from the
     * trial that was accepted as mu */
    double *pq_y = gmu + L, *pq_z = pq_y + 2 * Tv, *pq_v = pq_z + 2 * Tv;
    memset(pq_y, 0, 6 * Tv * sizeof(double));
    clear(&o);
    double *pq_mu = o.pq;
    const double kappa = cfg->kappa, delta = cfg->delta;
    const int64_t grow_after = cfg->step_grow_after;

    project(x, mu, o.acc, N, M);
    memcpy(mu_prev, mu, L * sizeof(double));
    memcpy(z, mu, L * sizeof(double));
    double t_prev = 1.0, t_cur = 1.0;
    double ay = cfg->alpha_y0, am = cfg->alpha_mu0;
    /* first-try acceptances in a row; full, so each branch's first search grows */
    int64_t run_y = grow_after, run_mu = grow_after;
    user_pq(&o, mu, pq_mu);
    double aux_cur, f_cur = value(&o, pq_mu, &aux_cur);
    int64_t evals = 1;

    trace_f[0] = f_cur;
    trace_aux[0] = aux_cur;
    trace_ay[0] = ay;
    trace_am[0] = am;
    trace_bty[0] = 0;
    trace_btm[0] = 0;
    trace_clock[0] = apg_clock();

    int code = STOP_MAX_ITERS;
    out->iterations = 0;
    out->rejections = 0;
    out->plain_skips = 0;
    out->bound = NAN;
    for (int64_t it = 1; it <= cfg->max_iters; it++) {
        /* projected extrapolation */
        double a = t_prev / t_cur, b = (t_prev - 1.0) / t_cur;
        for (int64_t i = 0; i < L; i++)
            tmp[i] = mu[i] + a * (z[i] - mu[i]) + b * (mu[i] - mu_prev[i]);
        project(tmp, y, o.acc, N, M);
        user_pq(&o, y, pq_y);
        double aux_unused, fy = value_grad(&o, y, pq_y, gy, &aux_unused);
        evals++;

        double ay_in = ay, fz = 0.0, aux_z = 0.0, dz = 0.0;
        int64_t bt_y = 0;
        int z_ok = 0;
        if (run_y >= grow_after)
            ay = ay / kappa;
        while (bt_y <= cfg->line_search_cap) {
            for (int64_t i = 0; i < L; i++)
                tmp[i] = y[i] + ay * gy[i];
            project(tmp, zn, o.acc, N, M);
            user_pq(&o, zn, pq_z);
            fz = value(&o, pq_z, &aux_z);
            evals++;
            dz = delta * sq_dist(zn, y, L);
            if (fz >= fy + dz) {
                z_ok = 1;
                break;
            }
            ay *= kappa;
            bt_y++;
        }
        if (!z_ok)
            ay = ay_in;  /* a rejected extrapolation must not sink the step */
        run_y = z_ok && bt_y == 0 ? run_y + 1 : 0;

        double fv = 0.0, aux_v = 0.0;
        int64_t bt_mu = 0;
        int skip = z_ok && fz >= f_cur + dz;
        if (skip) {
            out->plain_skips++;
        } else {
            double fmu = value_grad(&o, mu, pq_mu, gmu, &aux_unused), f_best = -INFINITY;
            evals++;
            int v_ok = 0;
            if (run_mu >= grow_after)
                am = am / kappa;
            while (bt_mu <= cfg->line_search_cap) {
                for (int64_t i = 0; i < L; i++)
                    tmp[i] = mu[i] + am * gmu[i];
                project(tmp, vn, o.acc, N, M);
                user_pq(&o, vn, pq_v);
                fv = value(&o, pq_v, &aux_v);
                evals++;
                if (fv > f_best)
                    f_best = fv;
                if (fv >= fmu + delta * sq_dist(vn, mu, L)) {
                    v_ok = 1;
                    break;
                }
                am *= kappa;
                bt_mu++;
            }
            if (!v_ok) {
                out->iterations = it;
                out->alpha_mu = am;
                out->f_mu = fmu;
                out->f_best = f_best;
                code = STOP_LINE_SEARCH;
                break;
            }
            run_mu = bt_mu == 0 ? run_mu + 1 : 0;
        }

        double t_next = 0.5 + sqrt(t_cur * t_cur + 0.25);
        int take_z = skip || (z_ok && fz > fv);
        if (!z_ok)
            out->rejections++;
        memcpy(mu_prev, mu, L * sizeof(double));
        memcpy(mu, take_z ? zn : vn, L * sizeof(double));
        memcpy(z, z_ok ? zn : vn, L * sizeof(double));
        double *spare = pq_mu;
        if (take_z) {
            pq_mu = pq_z;
            pq_z = spare;
        } else {
            pq_mu = pq_v;
            pq_v = spare;
        }
        t_prev = t_cur;
        t_cur = t_next;
        f_cur = take_z ? fz : fv;
        aux_cur = take_z ? aux_z : aux_v;

        trace_f[it] = f_cur;
        trace_aux[it] = aux_cur;
        trace_ay[it] = ay;
        trace_am[it] = am;
        trace_bty[it] = bt_y;
        trace_btm[it] = bt_mu;
        trace_clock[it] = apg_clock();
        out->iterations = it;

        if (o.kind == APG_MARGIN) {
            if (aux_cur >= -cfg->eps) {
                code = STOP_FEASIBLE;
                break;
            }
            if (it % cfg->gap_every == 0) {
                double fs = value_grad(&o, mu, pq_mu, gmu, &aux_unused);
                evals++;
                double lower = -(fs + support_gap(gmu, mu, o.acc, N, M));
                out->bound = lower;
                if (lower > -cfg->eps) {
                    code = STOP_INFEASIBLE;
                    break;
                }
            }
        }
        if (it >= cfg->stop_window &&
            fabs(trace_f[it] - trace_f[it - cfg->stop_window]) < stop_tol) {
            code = STOP_PLATEAU;
            break;
        }
    }
    memcpy(x, mu, L * sizeof(double));
    out->evaluations = evals;
    out->f = f_cur;
    out->aux = aux_cur;
    return code;
}

/* Run the stages i = 0, 1, ..., S - 1 (S >= 1) of objective `kind` (at level
 * t for APG_MARGIN) from x, projected first, in order, each from the last
 * iterate of the one before; x receives the last iterate. Stage i runs at
 * sharpness sigmas[i] with plateau tolerance tols[i] on the budget
 * cfg->max_iters less the iterations of the stages before it; a stage after
 * the first runs only while that is positive. The chain ends at the first
 * stage that ends feasible, infeasible or in a failed line search. codes[i]
 * receives stage i's STOP_* code, and out the last stage's result, the
 * stages run and their summed iterations (a failed stage's not counted).
 * Returns the last stage's code, or NO_MEMORY when the work cannot be
 * allocated. The stages share one set of user-minor copies, so the chain
 * equals one single-stage chain per stage.
 *
 * traces receives the traces of the last stage run, cfg->max_iters + 1
 * entries each: f, aux, alpha_y, alpha_mu, raw apg_clock() readings, then the
 * backtracks of each branch as int64. */
int apg_chain(int kind, const double *gs, const double *asq, const int64_t *gptr,
              int64_t T, int64_t N, int64_t M, double rho, double t,
              int64_t S, const double *sigmas, const double *tols,
              const StageConfig *cfg, double *x, double *traces, int64_t *codes,
              StageResult *out)
{
    const int64_t n = cfg->max_iters + 1;
    int64_t *bt = (int64_t *)(traces + 5 * n);
    double *work = alloc64(9 * N * M + 6 * padded(T));
    Objective o = objective(kind, gs, asq, gptr, T, N, M, rho, sigmas[0], t);
    if (!work || !o.gt) {
        free(work);
        free(o.gt);
        return NO_MEMORY;
    }
    StageConfig stage = *cfg;
    int64_t i = 0, iterations = 0;
    int code = STOP_MAX_ITERS;
    while (i < S && (i == 0 || iterations < cfg->max_iters)) {
        stage.max_iters = cfg->max_iters - iterations;
        o.sigma = sigmas[i];
        code = run_stage(o, &stage, tols[i], x, work, traces, traces + n, traces + 2 * n,
                         traces + 3 * n, bt, bt + n, traces + 4 * n, out);
        codes[i++] = code;
        if (code == STOP_LINE_SEARCH)
            break;
        iterations += out->iterations;
        if (code == STOP_FEASIBLE || code == STOP_INFEASIBLE)
            break;
    }
    free(work);
    free(o.gt);
    out->stages = i;
    out->total_iterations = iterations;
    return code;
}
