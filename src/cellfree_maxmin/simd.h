/* The lane width of apg_stage.c and mc_block.c, and the vector type and
 * helpers both build on.
 *
 * A vector holds LANES doubles: 8 under __AVX512F__, 4 under __AVX__, else
 * 2, chosen by compiler macros with no option. Neither source lets lanes
 * share a sum, so their results are bit-identical for every lane width.
 * load and store go through memcpy and need no alignment.
 *
 * native._library_path hashes this file with the sources, so an edit here
 * builds the library afresh.
 */

#ifndef CELLFREE_MAXMIN_SIMD_H
#define CELLFREE_MAXMIN_SIMD_H

#include <string.h>

#if defined(__AVX512F__)
#define LANES 8
#elif defined(__AVX__)
#define LANES 4
#else
#define LANES 2
#endif

typedef double vec __attribute__((vector_size(LANES * sizeof(double))));

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

#endif
