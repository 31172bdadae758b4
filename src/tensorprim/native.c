/* The native kernels of tensorprim, each in its pinned order: the
 * batch-reduce GEMM of the contraction, the ROWS / COLS / ALL reductions of
 * the operator set, and a block of the xorshift128 dropout streams.  Every
 * kernel gives, bit for bit, what its numpy reference path gives.  Which of
 * the two runs is decided in native.py alone: without a build, under the
 * test-only switch or while a verify fault is set, every caller takes its
 * numpy path.
 *
 * Every float operation is rounded to its own type, because the build
 * passes -ffp-contract=off and no fast-math flag, and the vectoriser works
 * across independent elements, which leaves each element's sequence of
 * operations untouched.  The brgemm kernels allocate their scratch per call
 * and the others need none, so concurrent calls share nothing.  On x86-64
 * Linux each kernel is also built for AVX2 and picked at load time (5.0 ->
 * 4.2 ms a `dense` benchmark step on a 2-vCPU x86-64 VM); AVX2 brings no
 * fused multiply-add, so both builds give the same bits.  Building with
 * -DMULTIVERSION= leaves only the default build, which the tests use to
 * check its bits on machines that have AVX2.
 *
 * BRGEMM.  acc (M x N, column-major, ld M) already holds beta*C.  For each
 * batch entry e in ascending order and each output element (i, j):
 *
 *     part = +0
 *     for kk = 0 .. K-1:  part = part + A_e(i, kk) * B_e(kk, j)
 *     acc(i, j) = acc(i, j) + part
 *
 * B_e(kk, j) lives at b[e][kk + j*ldb].  A PLAIN A_e(i, kk) lives at
 * a[e][i + kk*lda]; a VNNI one ([K/alpha][M][alpha], alpha = 2 for 16-bit
 * and 4 for 8-bit elements, the tail group zero-padded) at
 * a[e][(kk/alpha)*M*alpha + i*alpha + kk%alpha].  Either is read in place:
 * the kernel copies A_e one block of MB rows at a time into its scratch,
 * widened to the accumulator type and column-major, and runs the k loop of
 * every column from there, the block's partials in a local array.  The
 * scratch (MB x K accumulator elements) is malloc'd per call; when that
 * fails the kernel returns 1 with acc untouched, and the caller takes its
 * numpy path.  One kernel per (input storage, accumulator) pair: BF16 widens
 * by a 16-bit shift, and a VNNI BF16 pair is read as one uint32 lane and
 * split as the emulated path splits it (the low element lane << 16, the high
 * one lane & 0xFFFF0000), which gives the same FP32 values; INT8 is sign
 * extended; integer kernels add in uint32_t, so wrap-around is defined and
 * gives the bits of INT32 two's-complement arithmetic.
 *
 * REDUCE.  x (M x N, column-major, element (i, j) at x[i + j*ld]; ld 0
 * reads one column N times) folds into out (M, N or 1 elements):
 *
 *     ROWS  each row in ascending column order
 *     COLS  each column in ascending row order
 *     ALL   each column in ascending row order, then those partials in
 *           ascending column order
 *
 * SUM folds from +0 and MUL from 1, MIN and MAX from the first element,
 * by acc = op(acc, v) with acc = (acc > v || acc != acc) ? acc : v for MAX
 * (MIN the mirror image): a NaN is kept and a tie returns the second
 * operand.  With `squared` each v is v*v, rounded to the accumulator type
 * before it is combined.  ROWS vectorises across rows; COLS and the row
 * stage of ALL run CB columns interleaved, CB independent chains, because
 * one chain at a time was slower than numpy on 8 x 4096.
 *
 * XORSHIFT.  Marsaglia's xorshift128 ("Xorshift RNGs", J. Stat. Softw.
 * 8(14), 2003), one stream per column, in uint32_t arithmetic only.
 */

#include <float.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* The pinned order needs each float operation rounded to its own type.  A
 * target that keeps excess precision (x87) fails the build here, and every
 * caller then takes its numpy path. */
#if FLT_EVAL_METHOD != 0
#error "native.c needs FLT_EVAL_METHOD == 0"
#endif

#ifndef MULTIVERSION
#if defined(__GNUC__) && defined(__x86_64__) && defined(__linux__)
#define MULTIVERSION __attribute__((target_clones("avx2", "default")))
#else
#define MULTIVERSION
#endif
#endif

#define INLINE static inline __attribute__((always_inline))

/* ------------------------------------------------------------------------ */
/* batch-reduce GEMM                                                         */
/* ------------------------------------------------------------------------ */

#define MB 32

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

/* Slot r of the VNNI group at p, widened.  BF16 reads its pair as one
 * uint32 lane: slot 0 (the low half) by a 16-bit left shift, slot 1 by
 * masking the low 16 bits. */
#define VLOAD_SAME(p, r) ((p)[r])
#define VLOAD_U32(p, r) LOAD_U32((p)[r])
#define VLOAD_BF16(p, r) bf16_lane(p, r)

static inline float bf16_lane(const uint16_t *p, int64_t r)
{
    uint32_t u;
    memcpy(&u, p, sizeof u);
    u = r ? u & 0xFFFF0000u : u << 16;
    float f;
    memcpy(&f, &u, sizeof f);
    return f;
}

/* ALPHA is the VNNI group size of TIN, or 1 for a type without a VNNI form,
 * whose VNNI branch the compiler then drops.  The k loop always runs all MB
 * rows of a block, so it compiles once; rows past the block's end are zero
 * in the scratch and their partials are never stored.  K >= 1.  Returns 0,
 * or 1 with acc untouched when the scratch cannot be allocated. */
#define DEFINE_BRGEMM(NAME, TIN, TACC, LOAD, ALPHA, VLOAD)                     \
/* s (MB x k, column-major, ld MB) = rows i0 .. i0+rows-1 of A, widened */     \
INLINE void                                                                    \
NAME##_unpack(TACC *restrict s, const TIN *a, int64_t lda, int64_t vnni,       \
              int64_t m, int64_t k, int64_t i0, int64_t rows)                  \
{                                                                              \
    for (int64_t kk = 0; kk < k; kk++) {                                       \
        TACC *sk = s + kk * MB;                                                \
        if (ALPHA > 1 && vnni) {                                               \
            const TIN *ag = a + ((kk / ALPHA) * m + i0) * ALPHA;               \
            for (int64_t i = 0; i < rows; i++)                                 \
                sk[i] = VLOAD(ag + i * ALPHA, kk % ALPHA);                     \
        } else {                                                               \
            const TIN *ak = a + kk * lda + i0;                                 \
            for (int64_t i = 0; i < rows; i++)                                 \
                sk[i] = LOAD(ak[i]);                                           \
        }                                                                      \
        for (int64_t i = rows; i < MB; i++)                                    \
            sk[i] = 0;                                                         \
    }                                                                          \
}                                                                              \
                                                                               \
MULTIVERSION int64_t                                                           \
NAME(int64_t count, int64_t m, int64_t n, int64_t k,                           \
     const TIN *const *a, int64_t lda, const TIN *const *b, int64_t ldb,       \
     TACC *restrict acc, int64_t a_vnni)                                       \
{                                                                              \
    if (k > PTRDIFF_MAX / (int64_t)(MB * sizeof(TACC)))                        \
        return 1;                                                              \
    TACC *s = malloc((size_t)k * MB * sizeof(TACC));                           \
    if (s == NULL)                                                             \
        return 1;                                                              \
    for (int64_t e = 0; e < count; e++)                                        \
        for (int64_t i0 = 0; i0 < m; i0 += MB) {                               \
            const int64_t rows = m - i0 < MB ? m - i0 : MB;                    \
            NAME##_unpack(s, a[e], lda, a_vnni, m, k, i0, rows);               \
            for (int64_t j = 0; j < n; j++) {                                  \
                const TIN *bj = b[e] + j * ldb;                                \
                TACC *cj = acc + j * m + i0;                                   \
                TACC part[MB];                                                 \
                for (int64_t i = 0; i < MB; i++)                               \
                    part[i] = 0;                                               \
                for (int64_t kk = 0; kk < k; kk++) {                           \
                    const TACC bv = LOAD(bj[kk]);                              \
                    const TACC *sk = s + kk * MB;                              \
                    for (int64_t i = 0; i < MB; i++)                           \
                        part[i] = part[i] + sk[i] * bv;                        \
                }                                                              \
                for (int64_t i = 0; i < rows; i++)                             \
                    cj[i] = cj[i] + part[i];                                   \
            }                                                                  \
        }                                                                      \
    free(s);                                                                   \
    return 0;                                                                  \
}

DEFINE_BRGEMM(brgemm_f32, float, float, LOAD_SAME, 2, VLOAD_SAME)
DEFINE_BRGEMM(brgemm_f64, double, double, LOAD_SAME, 1, VLOAD_SAME)
DEFINE_BRGEMM(brgemm_bf16, uint16_t, float, LOAD_BF16, 2, VLOAD_BF16)
DEFINE_BRGEMM(brgemm_i8, int8_t, uint32_t, LOAD_U32, 4, VLOAD_U32)

/* ------------------------------------------------------------------------ */
/* reductions                                                                */
/* ------------------------------------------------------------------------ */

/* the codes of ops.ReduceAxis and ops.ReduceOp, as ops passes them */
enum { AXIS_ROWS, AXIS_COLS, AXIS_ALL };
enum { OP_SUM, OP_MUL, OP_MIN, OP_MAX };

#define RB 64   /* rows folded together by ROWS */
#define CB 8    /* columns folded together by COLS and ALL */

/* Every helper takes op and sq as constants from the switch in the
 * exported kernel, so each (op, sq) pair compiles into its own loops. */
#define DEFINE_REDUCE(NAME, T)                                                 \
INLINE T NAME##_comb(T acc, T v, int op)                                       \
{                                                                              \
    switch (op) {                                                              \
    case OP_SUM: return acc + v;                                               \
    case OP_MUL: return acc * v;                                               \
    case OP_MIN: return (acc < v || acc != acc) ? acc : v;                     \
    default:     return (acc > v || acc != acc) ? acc : v;                     \
    }                                                                          \
}                                                                              \
                                                                               \
INLINE T NAME##_load(const T *p, int sq)                                       \
{                                                                              \
    const T v = *p;                                                            \
    return sq ? v * v : v;                                                     \
}                                                                              \
                                                                               \
/* out[i] = the fold of row i; blocks of RB rows, columns in order */          \
INLINE void NAME##_rows(int64_t m, int64_t n, const T *x, int64_t ld,          \
                        int op, int sq, T *restrict out)                       \
{                                                                              \
    for (int64_t i0 = 0; i0 < m; i0 += RB) {                                   \
        const int64_t rows = m - i0 < RB ? m - i0 : RB;                        \
        const T *xb = x + i0;                                                  \
        T acc[RB];                                                             \
        int64_t j = 0;                                                         \
        if (op == OP_SUM || op == OP_MUL) {                                    \
            for (int64_t i = 0; i < rows; i++)                                 \
                acc[i] = op == OP_SUM ? 0 : 1;                                 \
        } else {                                                               \
            for (int64_t i = 0; i < rows; i++)                                 \
                acc[i] = NAME##_load(xb + i, sq);                              \
            j = 1;                                                             \
        }                                                                      \
        for (; j < n; j++) {                                                   \
            const T *xj = xb + j * ld;                                         \
            for (int64_t i = 0; i < rows; i++)                                 \
                acc[i] = NAME##_comb(acc[i], NAME##_load(xj + i, sq), op);     \
        }                                                                      \
        for (int64_t i = 0; i < rows; i++)                                     \
            out[i0 + i] = acc[i];                                              \
    }                                                                          \
}                                                                              \
                                                                               \
/* acc[c] = the fold of column c (c < cb), the cb chains interleaved */        \
INLINE void NAME##_cols(int64_t m, int64_t cb, const T *x, int64_t ld,         \
                        int op, int sq, T *restrict acc)                       \
{                                                                              \
    int64_t i = 0;                                                             \
    if (op == OP_SUM || op == OP_MUL) {                                        \
        for (int64_t c = 0; c < cb; c++)                                       \
            acc[c] = op == OP_SUM ? 0 : 1;                                     \
    } else {                                                                   \
        for (int64_t c = 0; c < cb; c++)                                       \
            acc[c] = NAME##_load(x + c * ld, sq);                              \
        i = 1;                                                                 \
    }                                                                          \
    for (; i < m; i++)                                                         \
        for (int64_t c = 0; c < cb; c++)                                       \
            acc[c] = NAME##_comb(acc[c], NAME##_load(x + i + c * ld, sq), op); \
}                                                                              \
                                                                               \
INLINE void NAME##_run(int64_t m, int64_t n, const T *x, int64_t ld,           \
                       int64_t axis, int op, int sq, T *restrict out)          \
{                                                                              \
    if (axis == AXIS_ROWS) {                                                   \
        NAME##_rows(m, n, x, ld, op, sq, out);                                 \
        return;                                                                \
    }                                                                          \
    T part[CB];                                                                \
    T total = op == OP_MUL ? 1 : 0;                                            \
    for (int64_t j0 = 0; j0 < n; j0 += CB) {                                   \
        const int64_t cb = n - j0 < CB ? n - j0 : CB;                          \
        T *acc = axis == AXIS_COLS ? out + j0 : part;                          \
        if (cb == CB)                                                          \
            NAME##_cols(m, CB, x + j0 * ld, ld, op, sq, acc);                  \
        else    /* the last n % CB columns one at a time (less code) */        \
            for (int64_t c = 0; c < cb; c++)                                   \
                NAME##_cols(m, 1, x + (j0 + c) * ld, ld, op, sq, acc + c);     \
        if (axis == AXIS_ALL)   /* MIN and MAX start from the first partial */ \
            for (int64_t c = 0; c < cb; c++)                                   \
                total = j0 + c == 0 && (op == OP_MIN || op == OP_MAX)          \
                    ? part[0] : NAME##_comb(total, part[c], op);               \
    }                                                                          \
    if (axis == AXIS_ALL)                                                      \
        out[0] = total;                                                        \
}                                                                              \
                                                                               \
MULTIVERSION void                                                              \
NAME(int64_t m, int64_t n, const T *x, int64_t ld, int64_t axis, int64_t op,   \
     int64_t squared, T *restrict out)                                         \
{                                                                              \
    switch (op * 2 + (squared != 0)) {                                         \
    case 0: NAME##_run(m, n, x, ld, axis, OP_SUM, 0, out); break;              \
    case 1: NAME##_run(m, n, x, ld, axis, OP_SUM, 1, out); break;              \
    case 2: NAME##_run(m, n, x, ld, axis, OP_MUL, 0, out); break;              \
    case 3: NAME##_run(m, n, x, ld, axis, OP_MUL, 1, out); break;              \
    case 4: NAME##_run(m, n, x, ld, axis, OP_MIN, 0, out); break;              \
    case 5: NAME##_run(m, n, x, ld, axis, OP_MIN, 1, out); break;              \
    case 6: NAME##_run(m, n, x, ld, axis, OP_MAX, 0, out); break;              \
    default: NAME##_run(m, n, x, ld, axis, OP_MAX, 1, out); break;             \
    }                                                                          \
}

DEFINE_REDUCE(reduce_f32, float)
DEFINE_REDUCE(reduce_f64, double)

/* ------------------------------------------------------------------------ */
/* xorshift128 streams                                                       */
/* ------------------------------------------------------------------------ */

/* Advance each of the `streams` streams `rows` times.  state holds the
 * words x, y, z, w of every stream as four consecutive rows of `streams`
 * words and is left as the steps leave it; out (rows x streams, row-major)
 * gets (w >> 8) * 2^-24 of the i-th step in row i, exact in FP32. */
MULTIVERSION void
xorshift_uniform(int64_t streams, int64_t rows, uint32_t *restrict state,
                 float *restrict out)
{
    uint32_t *restrict x = state;
    uint32_t *restrict y = state + streams;
    uint32_t *restrict z = state + 2 * streams;
    uint32_t *restrict w = state + 3 * streams;
    for (int64_t i = 0; i < rows; i++) {
        float *o = out + i * streams;
        for (int64_t c = 0; c < streams; c++) {
            const uint32_t t = x[c] ^ (x[c] << 11);
            const uint32_t wn = (w[c] ^ (w[c] >> 19)) ^ (t ^ (t >> 8));
            x[c] = y[c];
            y[c] = z[c];
            z[c] = w[c];
            w[c] = wn;
            o[c] = (float)(wn >> 8) * 0x1p-24f;
        }
    }
}
