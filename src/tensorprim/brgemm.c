/* Batch-reduce GEMM inner loops in the pinned accumulation order.
 *
 * acc (M x N, column-major, ld M) already holds beta*C.  For each batch
 * entry e in ascending order and each output element (i, j):
 *
 *     part = +0
 *     for kk = 0 .. K-1:  part = part + A_e(i, kk) * B_e(kk, j)
 *     acc(i, j) = acc(i, j) + part
 *
 * A_e(i, kk) lives at a[e][i + kk*lda] and B_e(kk, j) at b[e][kk + j*ldb].
 * Every product is rounded before it is added, because the build passes
 * -ffp-contract=off and no fast-math flag; the vectoriser works across i,
 * which leaves each element's sequence of operations untouched.  Partials
 * for a block of MB rows are kept in a local array, so a call needs no
 * scratch memory from its caller and concurrent calls share nothing.  On
 * x86-64 Linux each kernel is also built for AVX2 and picked at load time
 * (5.0 -> 4.2 ms a `dense` benchmark step on a 2-vCPU x86-64 VM); AVX2
 * brings no fused multiply-add, so both builds give the same bits.
 * Building with -DMULTIVERSION= leaves only the default build, which the
 * tests use to check its bits on machines that have AVX2.
 *
 * One kernel per (input storage, accumulator) pair.  BF16 widens by a
 * 16-bit shift; integer kernels add in uint32_t, so wrap-around is defined
 * and gives the bits of INT32 two's-complement arithmetic.
 */

#include <float.h>
#include <stdint.h>
#include <string.h>

/* The pinned order needs each float operation rounded to its own type.  A
 * target that keeps excess precision (x87) fails the build here, and brgemm
 * then takes its numpy path. */
#if FLT_EVAL_METHOD != 0
#error "brgemm.c needs FLT_EVAL_METHOD == 0"
#endif

#define MB 32

#ifndef MULTIVERSION
#if defined(__GNUC__) && defined(__x86_64__) && defined(__linux__)
#define MULTIVERSION __attribute__((target_clones("avx2", "default")))
#else
#define MULTIVERSION
#endif
#endif

static inline float bf16_widen(uint16_t x)
{
    uint32_t u = (uint32_t)x << 16;
    float f;
    memcpy(&f, &u, sizeof f);
    return f;
}

#define LOAD_SAME(x) (x)
#define LOAD_BF16(x) bf16_widen(x)
#define LOAD_U32(x) ((uint32_t)(int32_t)(x))

#define DEFINE_BRGEMM(NAME, TIN, TACC, LOAD)                                   \
static inline __attribute__((always_inline)) void                             \
NAME##_rows(TACC *restrict c, const TIN *a, int64_t lda, const TIN *b,         \
            int64_t k, int64_t rows)                                           \
{                                                                              \
    TACC part[MB];                                                             \
    for (int64_t i = 0; i < rows; i++)                                         \
        part[i] = 0;                                                           \
    for (int64_t kk = 0; kk < k; kk++) {                                       \
        const TACC bv = LOAD(b[kk]);                                           \
        const TIN *ak = a + kk * lda;                                          \
        for (int64_t i = 0; i < rows; i++)                                     \
            part[i] = part[i] + LOAD(ak[i]) * bv;                              \
    }                                                                          \
    for (int64_t i = 0; i < rows; i++)                                         \
        c[i] = c[i] + part[i];                                                 \
}                                                                              \
                                                                               \
MULTIVERSION void                                                              \
NAME(int64_t count, int64_t m, int64_t n, int64_t k,                           \
     const TIN *const *a, int64_t lda, const TIN *const *b, int64_t ldb,       \
     TACC *restrict acc)                                                       \
{                                                                              \
    const int64_t full = m - m % MB;                                           \
    for (int64_t e = 0; e < count; e++) {                                      \
        for (int64_t j = 0; j < n; j++) {                                      \
            const TIN *bj = b[e] + j * ldb;                                    \
            TACC *cj = acc + j * m;                                            \
            for (int64_t i0 = 0; i0 < full; i0 += MB)                          \
                NAME##_rows(cj + i0, a[e] + i0, lda, bj, k, MB);               \
            if (full < m)                                                      \
                NAME##_rows(cj + full, a[e] + full, lda, bj, k, m - full);     \
        }                                                                      \
    }                                                                          \
}

DEFINE_BRGEMM(brgemm_f32, float, float, LOAD_SAME)
DEFINE_BRGEMM(brgemm_f64, double, double, LOAD_SAME)
DEFINE_BRGEMM(brgemm_bf16, uint16_t, float, LOAD_BF16)
DEFINE_BRGEMM(brgemm_i8, int8_t, uint32_t, LOAD_U32)
DEFINE_BRGEMM(brgemm_i32, int32_t, uint32_t, LOAD_U32)
