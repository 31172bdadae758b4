/* The native kernels of tensorprim, each in its pinned order: the
 * batch-reduce GEMM of the contraction, the ROWS / COLS / ALL reductions of
 * the operator set, a block of the xorshift128 PRNG streams, FP32 DROPOUT,
 * the three FP32 approximation engines (rational tanh, piecewise cubic,
 * exp), PACK, UNPACK and the split SGD step, and the plan program that runs
 * an equation's FP32 and FP64 elementwise, conversion and REDUCE SUM steps
 * (MULADD and NMULADD among them: a direct call of either runs numpy, in
 * ops).
 * Every kernel gives, bit for bit, what its numpy reference path gives.
 * Which of the two runs is decided in native.py alone: without a build or
 * while a verify fault is set, every caller takes its numpy path.
 *
 * Every float operation is rounded to its own type, because the build
 * passes -ffp-contract=off and no fast-math flag, and the vectoriser works
 * across independent elements, which leaves each element's sequence of
 * operations untouched.  A select inside an engine loop is a mask, never
 * a branch: under the default -ftrapping-math GCC will not if-convert
 * `c ? a : b` when an arm is a float operation, and a loop with a branch
 * in it does not vectorise.  The brgemm kernels allocate their scratch per
 * call and the others need none, so concurrent calls share nothing.  On
 * x86-64 Linux every kernel is also built for AVX2, and the brgemm kernels
 * for AVX-512F too; the loader picks the widest build the CPU runs.  Neither
 * target brings a fused multiply-add under -ffp-contract=off, so every
 * build gives the same bits.  Building with -DMULTIVERSION= leaves only the
 * default build; the tests also build it with -mavx2, to check the bits of
 * the AVX2 code on machines that would pick AVX-512F.
 *
 * Every kernel but brgemm and the program takes one ABI: (m, n), then each
 * operand as a column-major block (address, ld), element (i, j) at
 * p[i + j*ld], inputs first, then the kernel's own scalars.  native.run
 * alone calls them.  An input may have ld 0 (one column read n times).  An
 * output overlaps no other operand, not even as exactly an input.  A stream
 * state that a kernel advances, and the halves that split SGD updates, are
 * output blocks.
 *
 * The brgemm, reduce, split SGD and program kernels return a status: 0, or
 * 2 when a float result (split SGD, and a program's CONVERT: an operand) is
 * a NaN.  The caller then recomputes the call on its numpy path (a program:
 * the whole plan; split SGD: the columns it did not write), because which
 * payload survives where two NaNs meet depends on the order of the operands
 * of + and *, which the compiler may swap.
 *
 * BRGEMM.  acc (M x N, column-major, ld M) already holds beta*C.  For each
 * batch entry e in ascending order and each output element (i, j):
 *
 *     part = +0
 *     for kk = 0 .. K-1:  part = part + A_e(i, kk) * B_e(kk, j)
 *     acc(i, j) = acc(i, j) + part
 *
 * Each side (A, B) of the batch comes as a base address plus either a table
 * of byte offsets, entry e at base + offs[e] (the offset and address forms;
 * an address side over several buffers passes base 0 and the addresses), or
 * a byte stride, entry e at base + e*stride (the stride form, no table).
 * B_e(kk, j) lives at b_e[kk + j*ldb].  A PLAIN A_e(i, kk) lives at
 * a_e[i + kk*lda]; a VNNI one ([K/alpha][M][alpha], alpha = 2 for 16-bit
 * and 4 for 8-bit elements, the tail group zero-padded) at
 * a_e[(kk/alpha)*M*alpha + i*alpha + kk%alpha].  Either is read in place:
 * the kernel copies A_e one block of MB rows at a time into its scratch,
 * widened to the accumulator type and column-major, and runs the k loops of
 * NB columns at a time from there, their partials in a local array (NB
 * independent chains per row, each in its own pinned order).  The scratch
 * (MB x K accumulator elements) is malloc'd per call; when that fails the
 * kernel returns 1 with acc untouched, and the caller takes its numpy path.
 * One kernel per (input storage, accumulator) pair: BF16 widens by a 16-bit
 * shift, and a VNNI BF16 pair is read as one uint32 lane and split as the
 * emulated path splits it (the low element lane << 16, the high one lane &
 * 0xFFFF0000), which gives the same FP32 values; INT8 is sign extended;
 * integer kernels add in uint32_t, so wrap-around is defined and gives the
 * bits of INT32 two's-complement arithmetic.
 *
 * REDUCE.  x (M x N) folds into out (M x 1, 1 x N or 1 x 1):
 *
 *     ROWS  each row in ascending column order
 *     COLS  each column in ascending row order
 *     ALL   each column in ascending row order, then those partials in
 *           ascending column order
 *
 * ROWS may also fold a column table: given cols (N int64 indices, in range,
 * possibly repeated and out of order), row i folds x(i, cols[0]),
 * x(i, cols[1]), ... in list order: the fold of the block a gather of those
 * columns would make, without making it.
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
 * 8(14), 2003), one stream per column, in uint32_t arithmetic only.  A
 * step's uniform is u = (w >> 8) * 2^-24, exact in FP32.
 *
 * DROPOUT.  dropout_f32 runs the whole primitive in one pass: stream c
 * steps once per row i of column c, x(i, c) is kept when u >= p, and out
 * gets x(i, c) * scale where kept and +0 where dropped, selected by an AND
 * with an all-ones or all-zeros word (no branch: a branch on the random
 * keep bit mispredicts often).  The bitmask gets bit i % 8 of byte i / 8
 * of its column set where kept, LSB first, its padding bits 0, and the
 * state is left where the steps leave it, as the PRNG block leaves it.  No
 * status: a kept NaN is x * scale with x the only NaN operand, so it
 * carries x's payload whichever operand order the compiler picks.
 *
 * APPROXIMATIONS.  x (M x N) maps into out (M x N), each element on its
 * own, by the operations of approx.py in its order:
 *
 *     tanh_pade78_f32  ax = |x|, t = ax*ax; num = ((36 t + 6930) t +
 *                      270270) t + 2027025, times ax; den = (((1 t + 630) t
 *                      + 51975) t + 945945) t + 2027025; r = num / den, 1
 *                      where ax > 5; copysign(r, x)
 *     minimax_f32      ax = |x|; i = clamp(bits(ax) >> 22 - base, 0, 15);
 *                      p = ((c3[i] ax + c2[i]) ax + c1[i]) ax + c0[i],
 *                      saturation where ax >= range_max; copysign(p, x)
 *     exp_taylor_f32   r = x*log2e, n = rint(r), y = r - n; q = ((c3 y + c2)
 *                      y + c1) y + 1; q * 2^clamp(n, -126, 127); +inf where
 *                      x > 88, 0 where x < -87
 *
 * Every "where" and float clamp computes both values and selects one
 * through an all-ones or all-zeros mask (select_f32), so each engine's loop
 * runs as packed SIMD arithmetic in every build; the integer clamp of the
 * interval i needs no mask.  rint(r) is (r + 1.5*2^23) - 1.5*2^23, which
 * rounds to even as rintf does for |r| < 2^22; a larger |r| belongs to an
 * x beyond 88 or -87, whose result the last two selects replace.  (The
 * default build expands rintf inline with a branch, which keeps that loop
 * scalar.)
 *
 * SPLIT FP32.  pack_f32 makes each FP32 element's bits hi << 16 | lo, and
 * unpack_f32 splits them into the top and bottom 16 bits, both pure bit
 * moves.  split_sgd_f32 is one SGD step on split FP32 weights, w = hi <<
 * 16 | lo becoming w - g*lr in the halves in place, in one pass with no
 * FP32 scratch: the bits that PACK, NMULADD and UNPACK give, which stay its
 * reference path.  It runs column by column, each checked for a NaN w or g
 * before anything of it is written, and stops at the first such column, so
 * the caller's composition resumes there.
 *
 * PROGRAM.  program runs a run of an equation plan's lowered steps in plan
 * order, each step a record of STEP_LEN int64 (op, type, m, n, ka, kb, kc,
 * a, b, c, d) that carries its own m x n extent and its type (FP32 or
 * FP64); a, b, c and d are operand numbers into one table of int64
 * (address, ld, kind) triples (the plan's arguments, its slots, and out;
 * equation.py lowers the steps as it builds the plan, native.program checks
 * the table once per evaluation).
 * The elementwise opcodes are ADD a + b, SUB a - b, MUL a * b, DIV a / b,
 * SQUARE a * a, RELU (a > 0 ? a : +0, so -0 gives +0 as numpy's maximum(a,
 * +0) does), MAX (a > b || a != a ? a : b: a NaN is kept and a tie of zeros
 * returns b, as np.maximum and the MAX reduce do), RSQRT 1 / sqrt(a),
 * MULADD c + a*b and NMULADD c - a*b, each operation rounded on its own, as
 * ops computes them.  CONVERT writes a into d's type, the other one (FP32
 * to FP64 exactly, FP64 to FP32 rounded to nearest).  ROWS_SUM,
 * ROWS_SUMSQ and COLS_SUM fold a (m x n) into d (m x 1 or 1 x n) by the
 * REDUCE helpers above, in their order.  A unary step names a as b and c,
 * a binary one a as c.
 * An operand's table kind is how the view passed lays it out: PLAIN
 * (element (i, j) at p[i + j*ld]), ROW (p[j*ld], one element per column),
 * COL (p[i], one column read for every column) or SCALAR (p[0]): a column
 * stride of ld or 0 and a row step of 1 or 0.  A step's read kind (ka, kb,
 * kc) says how its extent broadcasts a smaller value, as ops' elementwise
 * join does: a 1 x n value as ROW, m x 1 as COL, 1 x 1 as SCALAR.  A slot's
 * ld is 0 in the table: its occupant is dense.  A step's d is out, a slot
 * that one of its operands occupies (of the step's extent, or smaller and
 * read by broadcast: see DEFINE_PROGRAM), or a slot it alone touches (a
 * CONVERT or REDUCE step, whose value is of another element size or
 * extent).  The transcendental kinds stay kernel calls.
 */

#include <float.h>
#include <math.h>
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
#define MULTIVERSION_BRGEMM __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define MULTIVERSION
#endif
#endif
#ifndef MULTIVERSION_BRGEMM
#define MULTIVERSION_BRGEMM MULTIVERSION
#endif

#define INLINE static inline __attribute__((always_inline))

/* ------------------------------------------------------------------------ */
/* batch-reduce GEMM                                                         */
/* ------------------------------------------------------------------------ */

#define MB 32
#define NB 4

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

/* Entry e of one side of a batch: base + offs[e] bytes, or base + e*stride
 * bytes when offs is NULL (a stride batch).  A side over several buffers
 * passes base 0 and the entries' addresses as offs. */
INLINE const void *entry_at(intptr_t base, const int64_t *offs, int64_t stride, int64_t e)
{
    return (const void *)(base + (offs ? offs[e] : e * stride));
}

#define IS_NAN(x) ((x) != (x))
#define NEVER_NAN(x) 0

/* ALPHA is the VNNI group size of TIN, or 1 for a type without a VNNI form,
 * whose VNNI branch the compiler then drops.  The k loop always runs all MB
 * rows of a block, so it compiles once; rows past the block's end are zero
 * in the scratch and their partials are never stored.  K >= 1.  Returns 0;
 * 1 with acc untouched when the scratch cannot be allocated; 2 when a result
 * is a NaN (ISNAN is NEVER_NAN for the integer kernel). */
#define DEFINE_BRGEMM(NAME, TIN, TACC, LOAD, ALPHA, VLOAD, ISNAN)              \
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
/* acc columns j .. j+nb-1, rows i0 .. i0+rows-1 += this entry's partials */   \
INLINE void                                                                    \
NAME##_cols(const TACC *restrict s, const TIN *be, int64_t ldb, int64_t k,     \
            int64_t j, int64_t nb, TACC *restrict acc, int64_t m, int64_t i0,  \
            int64_t rows)                                                      \
{                                                                              \
    TACC part[NB][MB];                                                         \
    for (int64_t jj = 0; jj < nb; jj++)                                        \
        for (int64_t i = 0; i < MB; i++)                                       \
            part[jj][i] = 0;                                                   \
    for (int64_t kk = 0; kk < k; kk++) {                                       \
        const TACC *sk = s + kk * MB;                                          \
        for (int64_t jj = 0; jj < nb; jj++) {                                  \
            const TACC bv = LOAD(be[(j + jj) * ldb + kk]);                     \
            for (int64_t i = 0; i < MB; i++)                                   \
                part[jj][i] = part[jj][i] + sk[i] * bv;                        \
        }                                                                      \
    }                                                                          \
    for (int64_t jj = 0; jj < nb; jj++) {                                      \
        TACC *cj = acc + (j + jj) * m + i0;                                    \
        for (int64_t i = 0; i < rows; i++)                                     \
            cj[i] = cj[i] + part[jj][i];                                       \
    }                                                                          \
}                                                                              \
                                                                               \
MULTIVERSION_BRGEMM int64_t                                                    \
NAME(int64_t count, int64_t m, int64_t n, int64_t k,                           \
     intptr_t a_base, const int64_t *a_offs, int64_t a_stride, int64_t lda,    \
     intptr_t b_base, const int64_t *b_offs, int64_t b_stride, int64_t ldb,    \
     TACC *restrict acc, int64_t a_vnni)                                       \
{                                                                              \
    if (k > PTRDIFF_MAX / (int64_t)(MB * sizeof(TACC)))                        \
        return 1;                                                              \
    TACC *s = malloc((size_t)k * MB * sizeof(TACC));                           \
    if (s == NULL)                                                             \
        return 1;                                                              \
    for (int64_t e = 0; e < count; e++) {                                      \
        const TIN *ae = entry_at(a_base, a_offs, a_stride, e);                 \
        const TIN *be = entry_at(b_base, b_offs, b_stride, e);                 \
        for (int64_t i0 = 0; i0 < m; i0 += MB) {                               \
            const int64_t rows = m - i0 < MB ? m - i0 : MB;                    \
            NAME##_unpack(s, ae, lda, a_vnni, m, k, i0, rows);                 \
            int64_t j = 0;                                                     \
            for (; j + NB <= n; j += NB)                                       \
                NAME##_cols(s, be, ldb, k, j, NB, acc, m, i0, rows);           \
            for (; j < n; j++)                                                 \
                NAME##_cols(s, be, ldb, k, j, 1, acc, m, i0, rows);            \
        }                                                                      \
    }                                                                          \
    free(s);                                                                   \
    int nan = 0;                                                               \
    for (int64_t i = 0; i < m * n; i++)                                        \
        nan |= ISNAN(acc[i]);                                                  \
    return nan ? 2 : 0;                                                        \
}

DEFINE_BRGEMM(brgemm_f32, float, float, LOAD_SAME, 2, VLOAD_SAME, IS_NAN)
DEFINE_BRGEMM(brgemm_f64, double, double, LOAD_SAME, 1, VLOAD_SAME, IS_NAN)
DEFINE_BRGEMM(brgemm_bf16, uint16_t, float, LOAD_BF16, 2, VLOAD_BF16, IS_NAN)
DEFINE_BRGEMM(brgemm_i8, int8_t, uint32_t, LOAD_U32, 4, VLOAD_U32, NEVER_NAN)

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
/* out[i] = the fold of row i over the columns cols[0], cols[1], ... (0, 1,    \
 * ... when cols is NULL); blocks of RB rows, columns in list order */         \
INLINE void NAME##_rows(int64_t m, int64_t n, const T *x, int64_t ld,          \
                        const int64_t *cols, int op, int sq, T *restrict out)  \
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
            const T *x0 = xb + (cols ? cols[0] : 0) * ld;                      \
            for (int64_t i = 0; i < rows; i++)                                 \
                acc[i] = NAME##_load(x0 + i, sq);                              \
            j = 1;                                                             \
        }                                                                      \
        for (; j < n; j++) {                                                   \
            const T *xj = xb + (cols ? cols[j] : j) * ld;                      \
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
                       int64_t ldo, int64_t axis, int op, int sq,              \
                       T *restrict out)                                        \
{                                                                              \
    if (axis == AXIS_ROWS) {                                                   \
        NAME##_rows(m, n, x, ld, NULL, op, sq, out);                           \
        return;                                                                \
    }                                                                          \
    T part[CB];                                                                \
    T total = op == OP_MUL ? 1 : 0;                                            \
    for (int64_t j0 = 0; j0 < n; j0 += CB) {                                   \
        const int64_t cb = n - j0 < CB ? n - j0 : CB;                          \
        if (cb == CB)                                                          \
            NAME##_cols(m, CB, x + j0 * ld, ld, op, sq, part);                 \
        else    /* the last n % CB columns one at a time (less code) */        \
            for (int64_t c = 0; c < cb; c++)                                   \
                NAME##_cols(m, 1, x + (j0 + c) * ld, ld, op, sq, part + c);    \
        for (int64_t c = 0; c < cb; c++)                                       \
            if (axis == AXIS_COLS)                                             \
                out[(j0 + c) * ldo] = part[c];                                 \
            else    /* ALL: MIN and MAX start from the first partial */        \
                total = j0 + c == 0 && (op == OP_MIN || op == OP_MAX)          \
                    ? part[0] : NAME##_comb(total, part[c], op);               \
    }                                                                          \
    if (axis == AXIS_ALL)                                                      \
        out[0] = total;                                                        \
}                                                                              \
                                                                               \
/* ROWS over the column table cols, in a function of its own: inlined beside   \
 * the others, its loop changed how the compiler vectorised the COLS loops,    \
 * which then ran 1.5x slower. */                                              \
static __attribute__((noinline)) MULTIVERSION void                             \
NAME##_rows_at(int64_t m, int64_t n, const T *x, int64_t ld,                   \
               const int64_t *cols, int64_t op, int64_t squared,               \
               T *restrict out)                                                \
{                                                                              \
    switch (op * 2 + (squared != 0)) {                                         \
    case 0: NAME##_rows(m, n, x, ld, cols, OP_SUM, 0, out); break;             \
    case 1: NAME##_rows(m, n, x, ld, cols, OP_SUM, 1, out); break;             \
    case 2: NAME##_rows(m, n, x, ld, cols, OP_MUL, 0, out); break;             \
    case 3: NAME##_rows(m, n, x, ld, cols, OP_MUL, 1, out); break;             \
    case 4: NAME##_rows(m, n, x, ld, cols, OP_MIN, 0, out); break;             \
    case 5: NAME##_rows(m, n, x, ld, cols, OP_MIN, 1, out); break;             \
    case 6: NAME##_rows(m, n, x, ld, cols, OP_MAX, 0, out); break;             \
    default: NAME##_rows(m, n, x, ld, cols, OP_MAX, 1, out); break;            \
    }                                                                          \
}                                                                              \
                                                                               \
/* out is M x 1 (ROWS), 1 x N (COLS) or 1 x 1 (ALL).  cols, for ROWS alone,    \
 * is NULL or the N column indices to fold, each in [0, columns of x).         \
 * Returns 0, or 2 when a result is a NaN, as the brgemm kernels do. */        \
MULTIVERSION int64_t                                                           \
NAME(int64_t m, int64_t n, const T *x, int64_t ld, T *restrict out,            \
     int64_t ldo, int64_t axis, int64_t op, int64_t squared,                   \
     const int64_t *cols)                                                      \
{                                                                              \
    if (axis == AXIS_ROWS && cols)                                             \
        NAME##_rows_at(m, n, x, ld, cols, op, squared, out);                   \
    else switch (op * 2 + (squared != 0)) {                                    \
    case 0: NAME##_run(m, n, x, ld, ldo, axis, OP_SUM, 0, out); break;         \
    case 1: NAME##_run(m, n, x, ld, ldo, axis, OP_SUM, 1, out); break;         \
    case 2: NAME##_run(m, n, x, ld, ldo, axis, OP_MUL, 0, out); break;         \
    case 3: NAME##_run(m, n, x, ld, ldo, axis, OP_MUL, 1, out); break;         \
    case 4: NAME##_run(m, n, x, ld, ldo, axis, OP_MIN, 0, out); break;         \
    case 5: NAME##_run(m, n, x, ld, ldo, axis, OP_MIN, 1, out); break;         \
    case 6: NAME##_run(m, n, x, ld, ldo, axis, OP_MAX, 0, out); break;         \
    default: NAME##_run(m, n, x, ld, ldo, axis, OP_MAX, 1, out); break;        \
    }                                                                          \
    const int64_t len = axis == AXIS_ROWS ? m : axis == AXIS_COLS ? n : 1;     \
    const int64_t step = axis == AXIS_COLS ? ldo : 1;                          \
    int nan = 0;                                                               \
    for (int64_t i = 0; i < len; i++)                                          \
        nan |= IS_NAN(out[i * step]);                                          \
    return nan ? 2 : 0;                                                        \
}

DEFINE_REDUCE(reduce_f32, float)
DEFINE_REDUCE(reduce_f64, double)

/* ------------------------------------------------------------------------ */
/* xorshift128 streams                                                       */
/* ------------------------------------------------------------------------ */

/* One step of the stream whose words are *x, *y, *z, *w: returns the new w. */
INLINE uint32_t xorshift_step(uint32_t *x, uint32_t *y, uint32_t *z, uint32_t *w)
{
    const uint32_t t = *x ^ (*x << 11);
    const uint32_t wn = (*w ^ (*w >> 19)) ^ (t ^ (t >> 8));
    *x = *y;
    *y = *z;
    *z = *w;
    *w = wn;
    return wn;
}

/* A step's uniform in [0, 1): (w >> 8) * 2^-24, exact in FP32 */
INLINE float xorshift_u(uint32_t w)
{
    return (float)(w >> 8) * 0x1p-24f;
}

/* Advance each of the `streams` streams `rows` times.  state (streams x 4)
 * holds the words x, y, z, w of stream c in row c and is left as the steps
 * leave it; out (streams x rows) gets the uniform of the i-th step in
 * column i. */
MULTIVERSION void
xorshift_uniform(int64_t streams, int64_t rows, uint32_t *restrict state, int64_t lds,
                 float *restrict out, int64_t ldo)
{
    uint32_t *restrict x = state;
    uint32_t *restrict y = state + lds;
    uint32_t *restrict z = state + 2 * lds;
    uint32_t *restrict w = state + 3 * lds;
    for (int64_t i = 0; i < rows; i++) {
        float *o = out + i * ldo;
        for (int64_t c = 0; c < streams; c++)
            o[c] = xorshift_u(xorshift_step(x + c, y + c, z + c, w + c));
    }
}

#define DB 16   /* streams dropout_f32 advances together */

/* Columns c0 .. c0+cb-1 of dropout_f32 (cb <= DB): the streams' words live
 * in local arrays while every row steps them, and each kept value is
 * selected by an AND with an all-ones or all-zeros word, with no branch. */
INLINE void dropout_block(int64_t m, int64_t cb, const float *x, int64_t ldx,
                          uint32_t *state, int64_t lds, float *out, int64_t ldo,
                          uint8_t *mask, int64_t ldm, float p, float scale)
{
    uint32_t sx[DB], sy[DB], sz[DB], sw[DB], bits[DB];
    for (int64_t c = 0; c < cb; c++) {
        sx[c] = state[c];
        sy[c] = state[c + lds];
        sz[c] = state[c + 2 * lds];
        sw[c] = state[c + 3 * lds];
        bits[c] = 0;
    }
    for (int64_t i = 0; i < m; i++) {
        for (int64_t c = 0; c < cb; c++) {
            const uint32_t keep = xorshift_u(xorshift_step(sx + c, sy + c, sz + c, sw + c)) >= p;
            const float v = x[i + c * ldx] * scale;
            uint32_t u;
            memcpy(&u, &v, sizeof u);
            u &= -keep;
            memcpy(out + i + c * ldo, &u, sizeof u);
            bits[c] |= keep << (i & 7);
        }
        if ((i & 7) == 7 || i == m - 1)
            for (int64_t c = 0; c < cb; c++) {
                mask[(i >> 3) + c * ldm] = (uint8_t)bits[c];
                bits[c] = 0;
            }
    }
    for (int64_t c = 0; c < cb; c++) {
        state[c] = sx[c];
        state[c + lds] = sy[c];
        state[c + 2 * lds] = sz[c];
        state[c + 3 * lds] = sw[c];
    }
}

/* DROPOUT of x (m x n, FP32), stream c for column c: row i takes the i-th
 * step's uniform u and keeps x(i, c) when u >= p.  out(i, c) = x(i, c) *
 * scale where kept, +0 where dropped; mask ((m+7)/8 bytes x n) gets bit
 * i % 8 of byte i / 8 of column c set where kept, padding bits 0; state
 * (n x 4, as xorshift_uniform's) is left as uniform_block leaves it. */
MULTIVERSION void
dropout_f32(int64_t m, int64_t n, const float *x, int64_t ldx, uint32_t *restrict state,
            int64_t lds, float *restrict out, int64_t ldo, uint8_t *restrict mask,
            int64_t ldm, float p, float scale)
{
    int64_t c0 = 0;
    for (; c0 + DB <= n; c0 += DB)
        dropout_block(m, DB, x + c0 * ldx, ldx, state + c0, lds, out + c0 * ldo, ldo,
                      mask + c0 * ldm, ldm, p, scale);
    if (c0 < n)
        dropout_block(m, n - c0, x + c0 * ldx, ldx, state + c0, lds, out + c0 * ldo, ldo,
                      mask + c0 * ldm, ldm, p, scale);
}

/* ------------------------------------------------------------------------ */
/* FP32 approximation engines                                                */
/* ------------------------------------------------------------------------ */

/* Where two NaNs meet in an engine, both carry the input's payload, so the
 * operand order the compiler picks cannot change a bit, and no result needs
 * the numpy recompute that brgemm and the reductions make. */

/* c ? a : b, selected by an AND with an all-ones or all-zeros word, as
 * dropout_block selects.  Both values are computed before it, so the
 * vectoriser can if-convert it, as it cannot a `c ? a : b` with a float
 * operation on an arm (see the header). */
INLINE float select_f32(int c, float a, float b)
{
    const uint32_t mask = -(uint32_t)c;
    uint32_t ua, ub;
    memcpy(&ua, &a, sizeof ua);
    memcpy(&ub, &b, sizeof ub);
    const uint32_t u = (ua & mask) | (ub & ~mask);
    float r;
    memcpy(&r, &u, sizeof r);
    return r;
}

/* approx.TANH_PADE78: Horner in t = |x|*|x|, saturating beyond the clamp */
INLINE float tanh_pade78_one(float x)
{
    const float ax = fabsf(x);
    const float t = ax * ax;
    float num = 36.0f;
    num = num * t + 6930.0f;
    num = num * t + 270270.0f;
    num = num * t + 2027025.0f;
    num = num * ax;
    float den = 1.0f;
    den = den * t + 630.0f;
    den = den * t + 51975.0f;
    den = den * t + 945945.0f;
    den = den * t + 2027025.0f;
    float r = num / den;
    r = select_f32(ax > 5.0f, 1.0f, r);
    return copysignf(r, x);
}

/* One of approx's MinimaxTable: c (4 x 16, row-major: c[j*16 + interval])
 * in FP32; the interval is bits(|x|) >> 22 less `base`, clamped to
 * [0, 15]. */
INLINE float minimax_one(float x, const float *c, int32_t base, float range_max,
                         float saturation)
{
    const float ax = fabsf(x);
    uint32_t bits;
    memcpy(&bits, &ax, sizeof bits);
    int32_t idx = (int32_t)(bits >> 22) - base;
    idx = idx < 0 ? 0 : idx > 15 ? 15 : idx;
    float p = ((c[48 + idx] * ax + c[32 + idx]) * ax + c[16 + idx]) * ax + c[idx];
    p = select_f32(ax >= range_max, saturation, p);
    return copysignf(p, x);
}

/* approx.exp_taylor: 2^n * q(y) with n = rint(x*log2e), y = x*log2e - n and
 * the cubic q of approx.EXP_C1 .. EXP_C3; 2^n is
 * built in the exponent field from n clamped to [-126, 127].  The numpy
 * path casts a NaN n to an integer whose 2^n is finite (1.0 on x86-64), so
 * a NaN lane takes n = 0, 2^0 = 1.0, and keeps q's NaN either way. */
#define EXP_LOG2E 0x1.715476p+0f  /* 0x3FB8AA3B */
#define EXP_C1 0x1.62defap-1f     /* 0x3F316F7D */
#define EXP_C2 0x1.f03ddcp-3f     /* 0x3E781EEE */
#define EXP_C3 0x1.cac8cp-5f      /* 0x3D656460 */

INLINE float exp_taylor_one(float x)
{
    const float r = x * EXP_LOG2E;
    const float n = (r + 0x1.8p23f) - 0x1.8p23f;
    const float y = r - n;
    const float q = ((EXP_C3 * y + EXP_C2) * y + EXP_C1) * y + 1.0f;
    float nc = select_f32(n < -126.0f, -126.0f, n);
    nc = select_f32(nc > 127.0f, 127.0f, nc);
    nc = select_f32(nc == nc, nc, 0.0f);
    const uint32_t e = (uint32_t)((int32_t)nc + 127) << 23;
    float pow2;
    memcpy(&pow2, &e, sizeof pow2);
    float out = q * pow2;
    out = select_f32(x > 88.0f, INFINITY, out);
    out = select_f32(x < -87.0f, 0.0f, out);
    return out;
}

MULTIVERSION void
tanh_pade78_f32(int64_t m, int64_t n, const float *x, int64_t ldx, float *restrict out,
                int64_t ldo)
{
    for (int64_t j = 0; j < n; j++)
        for (int64_t i = 0; i < m; i++)
            out[i + j * ldo] = tanh_pade78_one(x[i + j * ldx]);
}

MULTIVERSION void
minimax_f32(int64_t m, int64_t n, const float *x, int64_t ldx, float *restrict out,
            int64_t ldo, const float *coeffs, int64_t base, float range_max, float saturation)
{
    for (int64_t j = 0; j < n; j++)
        for (int64_t i = 0; i < m; i++)
            out[i + j * ldo] = minimax_one(x[i + j * ldx], coeffs, (int32_t)base,
                                           range_max, saturation);
}

MULTIVERSION void
exp_taylor_f32(int64_t m, int64_t n, const float *x, int64_t ldx, float *restrict out,
               int64_t ldo)
{
    for (int64_t j = 0; j < n; j++)
        for (int64_t i = 0; i < m; i++)
            out[i + j * ldo] = exp_taylor_one(x[i + j * ldx]);
}

/* ------------------------------------------------------------------------ */
/* PACK, UNPACK and the split SGD step                                       */
/* ------------------------------------------------------------------------ */

/* A block whose operands all have ld == m runs as one column of m*n
 * elements, one loop instead of n short ones. */

MULTIVERSION void
pack_f32(int64_t m, int64_t n, const uint16_t *restrict hi, int64_t ldh,
         const uint16_t *restrict lo, int64_t ldl, uint32_t *restrict out, int64_t ldo)
{
    if (ldh == m && ldl == m && ldo == m) {
        m *= n;
        n = 1;
    }
    for (int64_t j = 0; j < n; j++)
        for (int64_t i = 0; i < m; i++)
            out[i + j * ldo] = (uint32_t)hi[i + j * ldh] << 16 | lo[i + j * ldl];
}

MULTIVERSION void
unpack_f32(int64_t m, int64_t n, const uint32_t *restrict x, int64_t ldx,
           uint16_t *restrict hi, int64_t ldh, uint16_t *restrict lo, int64_t ldl)
{
    if (ldx == m && ldh == m && ldl == m) {
        m *= n;
        n = 1;
    }
    for (int64_t j = 0; j < n; j++)
        for (int64_t i = 0; i < m; i++) {
            const uint32_t u = x[i + j * ldx];
            hi[i + j * ldh] = (uint16_t)(u >> 16);
            lo[i + j * ldl] = (uint16_t)u;
        }
}

/* One split SGD step in place: each element's w = hi << 16 | lo becomes
 * w - g*lr, the product rounded to FP32 before the difference, as
 * NMULADD computes it, and its bits go back into the halves.  Column by
 * column in ascending order, each checked before it is written: at the
 * first column where a w or g is a NaN the kernel stops, that column and
 * all after it untouched, stores in done[0] how many columns it wrote and
 * returns 2, so the caller runs its numpy path on the rest alone.
 * Operands without a NaN (lr is none: the caller checks it) can only make
 * the default NaN, the same on both paths.  Otherwise done[0] = n and it
 * returns 0. */
INLINE float split_f32(const uint16_t *hi, const uint16_t *lo, int64_t i)
{
    const uint32_t u = (uint32_t)hi[i] << 16 | lo[i];
    float w;
    memcpy(&w, &u, sizeof w);
    return w;
}

MULTIVERSION int64_t
split_sgd_f32(int64_t m, int64_t n, const float *restrict g, int64_t ldg,
              uint16_t *restrict hi, int64_t ldh, uint16_t *restrict lo, int64_t ldl,
              int64_t *restrict done, int64_t ldd, float lr)
{
    (void)ldd;
    for (int64_t j = 0; j < n; j++) {
        const float *gj = g + j * ldg;
        uint16_t *hj = hi + j * ldh, *lj = lo + j * ldl;
        int nan = 0;
        for (int64_t i = 0; i < m; i++)   /* one unordered compare for both */
            nan |= isunordered(split_f32(hj, lj, i), gj[i]);
        if (nan) {
            done[0] = j;
            return 2;
        }
        for (int64_t i = 0; i < m; i++) {
            const float p = gj[i] * lr;
            const float r = split_f32(hj, lj, i) - p;
            uint32_t v;
            memcpy(&v, &r, sizeof v);
            hj[i] = (uint16_t)(v >> 16);
            lj[i] = (uint16_t)v;
        }
    }
    done[0] = n;
    return 0;
}

/* ------------------------------------------------------------------------ */
/* plan programs                                                             */
/* ------------------------------------------------------------------------ */

/* the opcodes of equation._OPCODES, as the planner writes them */
enum { PROG_ADD, PROG_SUB, PROG_MUL, PROG_SQUARE, PROG_RELU, PROG_DIV, PROG_MAX,
       PROG_RSQRT, PROG_MULADD, PROG_NMULADD, PROG_CONVERT, PROG_ROWS_SUM,
       PROG_ROWS_SUMSQ, PROG_COLS_SUM };
/* the fields of a step record, as equation.py lowers them */
enum { STEP_OP, STEP_TYPE, STEP_M, STEP_N, STEP_KA, STEP_KB, STEP_KC,
       STEP_A, STEP_B, STEP_C, STEP_D, STEP_LEN };
/* the kinds of a table operand and of a step's read, in the order of
 * tensor.Bcast: bit 0 is set for one row (ROW, SCALAR), bit 1 for one
 * column (COL, SCALAR) */
enum { KIND_PLAIN, KIND_ROW, KIND_COL, KIND_SCALAR };

#define PB 64   /* rows a step runs at a time when an operand is one per column */

/* The address of operand k (0, 1, 2: a, b, c) of step s, its element (i, j)
 * at p[i*rs + j*cs].  Its table kind and the step's read kind combine by
 * OR: row stride 0 where either is one row, column stride 0 where either is
 * one column.  A slot's ld is 0 in the table: its occupant is dense, ld m,
 * or 1 when the step reads it as one row. */
INLINE intptr_t operand_at(const int64_t *s, const int64_t *table, int k,
                           int64_t *rs, int64_t *cs)
{
    const int64_t *e = table + 3 * s[STEP_A + k];
    const int64_t kind = e[2] | s[STEP_KA + k];
    const int64_t m = s[STEP_M];
    *rs = kind & 1 ? 0 : 1;
    *cs = kind & 2 ? 0 : e[1] ? e[1] : kind & 1 ? 1 : m;
    if (m == 1)     /* one row: what a column reads is one element */
        *rs = *cs != 0;
    return (intptr_t)e[0];
}

/* one step's loop: d[i] = EXPR, a NaN result noted */
#define PROGRAM_LOOP(T, EXPR)                                                  \
    for (int64_t i = 0; i < len; i++) {                                        \
        const T r = (EXPR);                                                    \
        d[i] = r;                                                              \
        nan |= IS_NAN(r);                                                      \
    }

/* NAME##_span runs an elementwise step over len elements, d = op(a, b, c),
 * each operand at unit stride (b and c unread by a unary kind, c by a
 * binary one), and returns 1 when a result is a NaN; RELU tests its input,
 * because its select would turn a NaN into 0.
 *
 * NAME##_map runs an elementwise step over its m x n extent.  A step whose
 * operands and d are all flat (dense at ld m, or SCALAR) runs as one column
 * of m*n; otherwise an operand of one element per column is copied into a
 * block of PB, and each column runs PB rows at a time.  The columns run in
 * descending order, which makes a write into the slot of a value the step
 * reads by broadcast safe: a ROW value (1 x n at ld 1) has element j at
 * p[j], below the first element, (j+1)*m, of every column after j; a COL
 * (m x 1) or SCALAR value lies within column 0, which runs last, element
 * by element in place (a SCALAR one from its copy).
 *
 * NAME##_fold runs a REDUCE SUM step by REDUCE's own fold helpers, so in
 * their pinned order: ROWS (plain or squared) folds the m x n operand a into
 * m x 1, COLS into 1 x n.  a is read at its column stride (0 for a COL view;
 * native.program refuses a ROW or SCALAR one), and d, a slot of its own or
 * out, overlaps it nowhere. */
#define DEFINE_PROGRAM(NAME, T, SQRT, REDUCE)                                  \
INLINE int NAME##_span(int64_t op, int64_t len, const T *a, const T *b,        \
                       const T *c, T *d)                                       \
{                                                                              \
    int nan = 0;                                                               \
    switch (op) {                                                              \
    case PROG_ADD: PROGRAM_LOOP(T, a[i] + b[i]); break;                        \
    case PROG_SUB: PROGRAM_LOOP(T, a[i] - b[i]); break;                        \
    case PROG_MUL: PROGRAM_LOOP(T, a[i] * b[i]); break;                        \
    case PROG_SQUARE: PROGRAM_LOOP(T, a[i] * a[i]); break;                     \
    case PROG_DIV: PROGRAM_LOOP(T, a[i] / b[i]); break;                        \
    case PROG_MAX: PROGRAM_LOOP(T, a[i] > b[i] || a[i] != a[i] ? a[i] : b[i]); \
        break;                                                                 \
    case PROG_RSQRT: PROGRAM_LOOP(T, (T)1 / SQRT(a[i])); break;                \
    case PROG_MULADD: PROGRAM_LOOP(T, c[i] + a[i] * b[i]); break;              \
    case PROG_NMULADD: PROGRAM_LOOP(T, c[i] - a[i] * b[i]); break;             \
    default:                                                                   \
        for (int64_t i = 0; i < len; i++) {                                    \
            const T x = a[i];                                                  \
            d[i] = x > 0 ? x : (T)0;                                           \
            nan |= IS_NAN(x);                                                  \
        }                                                                      \
        break;                                                                 \
    }                                                                          \
    return nan;                                                                \
}                                                                              \
                                                                               \
INLINE int NAME##_map(const int64_t *s, const int64_t *table)                  \
{                                                                              \
    const int64_t m = s[STEP_M];                                               \
    T fill[3][PB];                                                             \
    const T *p[3];                                                             \
    int64_t rs[3], cs[3];                                                      \
    for (int k = 0; k < 3; k++)                                                \
        p[k] = (const T *)operand_at(s, table, k, rs + k, cs + k);             \
    const int64_t *e = table + 3 * s[STEP_D];                                  \
    T *d = (T *)(intptr_t)e[0];                                                \
    const int64_t ldd = e[1] ? e[1] : m;                                       \
    int64_t rows = m, cols = s[STEP_N];                                        \
    if (ldd == m && cs[0] == m * rs[0] && cs[1] == m * rs[1]                   \
            && cs[2] == m * rs[2]) {                                           \
        rows = m * cols;    /* every operand flat: one column */               \
        cols = 1;                                                              \
    }                                                                          \
    const int64_t chunk = !rs[0] || !rs[1] || !rs[2] ? PB : rows;              \
    int nan = 0;                                                               \
    for (int64_t j = cols - 1; j >= 0; j--) {                                  \
        const T *q[3];                                                         \
        for (int k = 0; k < 3; k++) {                                          \
            q[k] = p[k] + j * cs[k];                                           \
            if (!rs[k]) {                                                      \
                const T v = *q[k];                                             \
                for (int64_t i = 0; i < PB && i < rows; i++)                   \
                    fill[k][i] = v;                                            \
                q[k] = fill[k];                                                \
            }                                                                  \
        }                                                                      \
        T *dj = d + j * ldd;                                                   \
        for (int64_t i0 = 0; i0 < rows; i0 += chunk)                           \
            nan |= NAME##_span(s[STEP_OP], rows - i0 < chunk ? rows - i0 : chunk, \
                               rs[0] ? q[0] + i0 : q[0],                       \
                               rs[1] ? q[1] + i0 : q[1],                       \
                               rs[2] ? q[2] + i0 : q[2], dj + i0);             \
    }                                                                          \
    return nan;                                                                \
}                                                                              \
                                                                               \
INLINE int NAME##_fold(const int64_t *s, const int64_t *table)                 \
{                                                                              \
    const int64_t m = s[STEP_M], n = s[STEP_N];                                \
    const int64_t *a = table + 3 * s[STEP_A], *e = table + 3 * s[STEP_D];      \
    const T *x = (const T *)(intptr_t)a[0];                                    \
    const int64_t ld = a[2] & 2 ? 0 : a[1] ? a[1] : m;                         \
    T *out = (T *)(intptr_t)e[0];                                              \
    int64_t len = m, step = 1;                                                 \
    if (s[STEP_OP] == PROG_ROWS_SUM) {                                         \
        REDUCE##_rows(m, n, x, ld, NULL, OP_SUM, 0, out);                      \
    } else if (s[STEP_OP] == PROG_ROWS_SUMSQ) {                                \
        REDUCE##_rows(m, n, x, ld, NULL, OP_SUM, 1, out);                      \
    } else {                                                                   \
        len = n;                                                               \
        step = e[1] ? e[1] : 1;                                                \
        REDUCE##_run(m, n, x, ld, step, AXIS_COLS, OP_SUM, 0, out);            \
    }                                                                          \
    int nan = 0;                                                               \
    for (int64_t i = 0; i < len; i++)                                          \
        nan |= IS_NAN(out[i * step]);                                          \
    return nan;                                                                \
}

DEFINE_PROGRAM(prog_f32, float, sqrtf, reduce_f32)
DEFINE_PROGRAM(prog_f64, double, sqrt, reduce_f64)

/* A CONVERT step: d (m x n, of the step's type) = a, of the other type:
 * FP32 to FP64 exactly, FP64 to FP32 rounded to nearest (+-inf beyond
 * FP32's range), as numpy stores it.  d is a slot of its own or out. */
#define DEFINE_CONVERT(NAME, TIN, TOUT)                                        \
INLINE int NAME(const int64_t *s, const int64_t *table)                        \
{                                                                              \
    const int64_t m = s[STEP_M], n = s[STEP_N];                                \
    int64_t rs, cs;                                                            \
    const TIN *a = (const TIN *)operand_at(s, table, 0, &rs, &cs);             \
    const int64_t *e = table + 3 * s[STEP_D];                                  \
    TOUT *d = (TOUT *)(intptr_t)e[0];                                          \
    const int64_t ldd = e[1] ? e[1] : m;                                       \
    int nan = 0;                                                               \
    for (int64_t j = 0; j < n; j++)                                            \
        for (int64_t i = 0; i < m; i++) {                                      \
            const TIN v = a[i * rs + j * cs];                                  \
            d[i + j * ldd] = (TOUT)v;                                          \
            nan |= IS_NAN(v);                                                  \
        }                                                                      \
    return nan;                                                                \
}

DEFINE_CONVERT(convert_f32_f64, float, double)
DEFINE_CONVERT(convert_f64_f32, double, float)

/* Run `steps` step records of STEP_LEN int64 each, in order, over the
 * operand table: the type field picks FP32 (0) or FP64 (1) operands (for
 * CONVERT, d's type).  Returns 0, or 2 at the first step with a NaN result
 * (CONVERT: operand), the steps before it done: the caller then reruns the
 * whole plan on its numpy path, since which payload survives where two NaNs
 * meet depends on the operand order of + and *, which the compiler may
 * swap. */
MULTIVERSION int64_t
program(int64_t steps, const int64_t *code, const int64_t *table)
{
    for (int64_t k = 0; k < steps; k++) {
        const int64_t *s = code + k * STEP_LEN;
        const int64_t op = s[STEP_OP], fp64 = s[STEP_TYPE];
        int nan;
        if (op == PROG_CONVERT)
            nan = fp64 ? convert_f32_f64(s, table) : convert_f64_f32(s, table);
        else if (op >= PROG_ROWS_SUM)
            nan = fp64 ? prog_f64_fold(s, table) : prog_f32_fold(s, table);
        else
            nan = fp64 ? prog_f64_map(s, table) : prog_f32_map(s, table);
        if (nan)
            return 2;
    }
    return 0;
}
