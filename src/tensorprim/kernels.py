"""Composite deep-learning kernels assembled exclusively from the primitive
operators, the contraction engine and equation plans.

Nothing in this module touches tensor elements directly: all math goes
through primitive calls or planned equations, and buffers are reinterpreted
only through ``view_at``.  A source audit check enforces that no array
library is imported and that no element buffer is indexed or used in
arithmetic.  A layernorm or GROUPNORM call is one evaluation of one cached
equation tree, its statistics included (row folds, FP64 group sums and
statistics, the scaling), which runs as one C program where C runs.

Softmax makes a fixed number of calls, never one per slice: two per-slice
folds, each two COLS reduces whose bits are those of an ALL reduce of every
slice, and two elementwise plans over the whole input, each slice's value
broadcast over its columns.  The sparse kernels make a fixed number of
primitive calls per bag, never one per index: an embedding bag is one
indexed reduce of the table's columns, and binary-reduce gathers each
table's columns into a scratch block once and reduces once, with the
reduction's pinned ascending order.  A split SGD step is one primitive call
(``split_sgd``), which updates the hi/lo halves in place in C with no FP32
scratch; the PACK, NMULADD and UNPACK composition is its reference path
and runs on the columns C leaves, from the first that holds a NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import functools
from typing import Optional, Sequence

from . import equation as eqn
from .dtypes import DType
from .contraction import BrgemmBatch, GemmSpec, brgemm
from .ops import (
    BINARY_MATH,
    DISPATCH_CACHE_SIZE,
    BinaryKind,
    GatherMode,
    ReduceAxis,
    ReduceOp,
    ReduceSpec,
    TernaryKind,
    TransformKind,
    TransformSpec,
    UnaryKind,
    apply_binary,
    apply_ternary,
    apply_unary,
    gather_scatter,
    kernel_for,
    reduce,
    split_sgd,
    transform,
)
from .tensor import (
    Bcast,
    SplitTensor,
    TensorDesc,
    TensorError,
    TensorView,
    alloc,
    broadcast,
    view_at,
)


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SoftmaxSpec:
    """s2 independent softmax instances over s1 x s3 slices."""
    s1: int
    s2: int
    s3: int

    def __post_init__(self):
        if min(self.s1, self.s2, self.s3) < 1:
            raise TensorError(f"softmax extents must be positive, got "
                              f"s1={self.s1} s2={self.s2} s3={self.s3}")


@functools.lru_cache(maxsize=DISPATCH_CACHE_SIZE)
def _softmax_plans(rows: int, cols: int, dtype: DType) -> tuple[eqn.ExecPlan, eqn.ExecPlan]:
    """The two elementwise plans of a softmax over a rows x cols input:
    E = exp(X - R) and Y = E * R, each R a 1 x cols row broadcast over the
    rows.  R and E take the dtype of the input's reduce accumulator."""
    acc = kernel_for(UnaryKind.REDUCE, (TensorDesc(1, 1, 1, dtype),),
                     reduce=ReduceSpec(ReduceAxis.ALL, ReduceOp.SUM)).out_desc.dtype
    row = TensorDesc(rows, cols, 1, acc, Bcast.ROW)
    b = eqn.TreeBuilder([TensorDesc(rows, cols, rows, dtype), row])
    num = b.tree(b.unary(UnaryKind.EXP, b.binary(BinaryKind.SUB, b.leaf(0), b.leaf(1))))
    b = eqn.TreeBuilder([num.root.out_desc, row])
    scale = b.tree(b.binary(BinaryKind.MUL, b.leaf(0), b.leaf(1)))
    return eqn.create_execution_plan(num), eqn.create_execution_plan(scale)


def softmax(spec: SoftmaxSpec, x: TensorView, y: TensorView,
            strategy: eqn.EvalStrategy | None = None) -> None:
    """Slice-wise softmax: each of the s2 instances is normalised over its
    whole s1 x s3 slice (max subtraction, exp, reciprocal-sum scaling).

    All slices run together, at the caller's ``ld``.  A slice's MAX (SUM)
    is two COLS reduces, of the input and then of its s3 column partials,
    which gives the bits of an ALL reduce of the slice: ALL is exactly that
    two-stage fold.  An IDENTITY (a RECIPROCAL, for the sum) spreads each
    slice's value over its s3 columns of a 1 x (s2*s3) row, which the two
    elementwise plans of :func:`_softmax_plans` read as a ROW broadcast."""
    s1, s2, s3 = spec.s1, spec.s2, spec.s3
    if (x.desc.rows, x.desc.cols) != (s1, s2 * s3):
        raise TensorError("softmax input must be s1 x (s2*s3)")
    if (y.desc.rows, y.desc.cols) != (x.desc.rows, x.desc.cols):
        raise TensorError("softmax output shape mismatch")
    num, scale = _softmax_plans(s1, s2 * s3, x.desc.dtype)
    strategy = strategy or eqn.Buffered()
    e = alloc(num.out_desc)
    acc = e.desc.dtype
    part, row = (alloc(TensorDesc(1, s2 * s3, 1, acc)) for _ in range(2))
    value = alloc(TensorDesc(1, s2, 1, acc))

    def grid(v: TensorView) -> TensorView:
        # a 1 x (s2*s3) row as s3 x s2: one column per slice
        return view_at(v.primary, 0, TensorDesc(s3, s2, s3, acc))

    wide = broadcast(row, Bcast.ROW, s1, s2 * s3)
    for src, op, spread, plan, dst in ((x, ReduceOp.MAX, UnaryKind.IDENTITY, num, e),
                                       (e, ReduceOp.SUM, UnaryKind.RECIPROCAL, scale, y)):
        reduce(src, ReduceSpec(ReduceAxis.COLS, op), part)
        reduce(grid(part), ReduceSpec(ReduceAxis.COLS, op), value)
        apply_unary(spread, broadcast(value, Bcast.ROW, s3, s2), grid(row))
        eqn.evaluate(plan, strategy, [src, wide], dst)


# ---------------------------------------------------------------------------
# normalisation
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=DISPATCH_CACHE_SIZE)
def _scaling_plan(rows: int, cols: int, dtype: DType) -> eqn.ExecPlan:
    """Y = (m' * X + v') * G + B as one equation of two cascading FMADDs;
    m', v' broadcast per row (channel), G, B per the caller's layout."""
    x = TensorDesc(rows, cols, rows, dtype)
    colv = TensorDesc(rows, cols, rows, DType.FP32, Bcast.COL)
    b = eqn.TreeBuilder([x, colv, colv, colv, colv])
    inner = b.ternary(TernaryKind.MULADD, b.leaf(0), b.leaf(1), b.leaf(2))
    root = b.ternary(TernaryKind.MULADD, inner, b.leaf(3), b.leaf(4))
    return eqn.create_execution_plan(b.tree(root))


@functools.lru_cache(maxsize=DISPATCH_CACHE_SIZE)
def _norm_plan(rows: int, cols: int, groups: int, eps: float, dtype: DType,
               stat: str = "out") -> tuple[eqn.ExecPlan, tuple[TensorView, ...]]:
    """The plan of a normalisation of a rows x cols input of ``dtype`` over
    ``groups`` groups of consecutive rows, with its constant arguments N (a
    group's element count), 0, eps and -1, FP64 (eps a SCALAR over each
    group's rows), built once.  The plan's arguments are x, the constants,
    then G and B; its root is

    * ``stat`` "out": Y = (x * scale + shift) * G + B, two cascading
      multiply-adds over the rows' FP32 scale and shift;
    * "mean" or "var" (one group per row): the rows x 1 FP32 mu or var.

    A group's sum S (squared sum SS) folds its rows' FP32 row sums, widened
    to FP64, in row order: a ROWS reduce, a widening IDENTITY, a RESHAPE of
    the rows x 1 sums to one column per group and a COLS reduce.  Then mu
    = S/N, var = max(SS/N - mu*mu, 0) (cancellation can go below 0), rstd =
    1/sqrt(var + eps), whose ADD spreads each group's value over its rows,
    and shift = (mu * -1) * rstd, each one correctly rounded FP64
    operation, each statistic narrowed once to FP32 and reshaped to one per
    row.  The tree shares no node, so it folds x five times: the sums of
    scale, and those of shift's mu and rstd.  Every step runs in the plan's
    one C program where C runs (a BF16 x's row sums stay kernel calls)."""
    per = rows // groups
    fp64, fp32 = DType.FP64, DType.FP32
    one = TensorDesc(1, 1, 1, fp64)
    spread = TensorDesc(per, groups, 1, fp64, Bcast.SCALAR)
    consts = (alloc(one, fill=per * cols), alloc(one, fill=0.0),
              broadcast(alloc(one, fill=eps), Bcast.SCALAR, per, groups), alloc(one, fill=-1.0))
    colv = TensorDesc(rows, cols, rows, fp32, Bcast.COL)
    b = eqn.TreeBuilder([TensorDesc(rows, cols, rows, dtype), one, one, spread, one, colv, colv])
    x, n, zero, eps_, minus1, g, bias = range(7)

    def total(squared: bool) -> eqn.EqNode:   # 1 x groups
        sums = b.unary(UnaryKind.REDUCE, b.leaf(x),
                       reduce=ReduceSpec(ReduceAxis.ROWS, ReduceOp.SUM, squared=squared))
        wide = b.reshape(b.unary(UnaryKind.IDENTITY, sums, dtype=fp64), per, groups)
        return b.unary(UnaryKind.REDUCE, wide, reduce=ReduceSpec(ReduceAxis.COLS, ReduceOp.SUM))

    def mean() -> eqn.EqNode:
        return b.binary(BinaryKind.DIV, total(False), b.leaf(n))

    def var() -> eqn.EqNode:
        ms = b.binary(BinaryKind.DIV, total(True), b.leaf(n))
        v = b.binary(BinaryKind.SUB, ms, b.unary(UnaryKind.SQUARE, mean()))
        return b.binary(BinaryKind.MAX, v, b.leaf(zero))

    def rstd() -> eqn.EqNode:   # per x groups
        return b.unary(UnaryKind.RSQRT, b.binary(BinaryKind.ADD, var(), b.leaf(eps_)))

    def per_row(v: eqn.EqNode) -> eqn.EqNode:   # per x groups FP64 -> rows x 1 FP32
        return b.unary(UnaryKind.IDENTITY, b.reshape(v, rows, 1), dtype=fp32)

    if stat == "out":
        shift = b.binary(BinaryKind.MUL, b.binary(BinaryKind.MUL, mean(), b.leaf(minus1)), rstd())
        inner = b.ternary(TernaryKind.MULADD, b.leaf(x), per_row(rstd()), per_row(shift))
        root = b.ternary(TernaryKind.MULADD, inner, b.leaf(g), b.leaf(bias))
    else:
        root = per_row(mean() if stat == "mean" else var())
    return eqn.create_execution_plan(b.tree(root)), consts


def _normalise(x: TensorView, groups: int, eps: float, g: TensorView, b: TensorView,
               out: TensorView, stat: str = "out") -> None:
    """One evaluation of the plan of :func:`_norm_plan` whose root is
    ``stat``, into ``out``."""
    d = x.desc
    plan, consts = _norm_plan(d.rows, d.cols, groups, eps, d.dtype, stat)
    eqn.evaluate(plan, eqn.Buffered(), [x, *consts, g, b], out)


def layernorm(x: TensorView, g: TensorView, b: TensorView, eps: float,
              out: TensorView, mean_out: TensorView | None = None,
              var_out: TensorView | None = None) -> None:
    """Per-row layer normalisation with optional affine scaling.

    One evaluation of the plan of :func:`_norm_plan` with one group per
    row: the row statistics and the scaling, (X - mu) * rstd * G + B as two
    cascading multiply-adds.  ``mean_out``/``var_out`` (rows x 1), when
    given, receive mu and var, each by a plan of its own over the same
    statistics tree.
    """
    rows, cols = x.desc.rows, x.desc.cols
    if cols < 2:
        raise TensorError("layernorm needs a feature dimension of at least 2")
    if eps <= 0:
        raise TensorError("eps must be positive")
    for v, name in ((g, "G"), (b, "B")):
        if (v.desc.rows, v.desc.cols) != (rows, cols):
            raise TensorError(f"{name} must broadcast to the input shape")
    for v in (mean_out, var_out):
        if v is not None and (v.desc.rows, v.desc.cols, v.desc.bcast) != (rows, 1, Bcast.NONE):
            raise TensorError("mean and variance outputs must be rows x 1")

    for stat, dst in (("out", out), ("mean", mean_out), ("var", var_out)):
        if dst is not None:
            _normalise(x, rows, eps, g, b, dst, stat)


class NormMode:
    BATCHNORM = "batchnorm"
    GROUPNORM = "groupnorm"


def norm_scaling(x: TensorView, m_prime: TensorView | None, v_prime: TensorView | None,
                 g: TensorView, b: TensorView, mode: str, out: TensorView,
                 groups: int = 1, eps: float = 1e-5) -> None:
    """Channel scaling Y = (m' * X + v') * G + B as two chained multiply-adds.

    The layout is channels x rest: every per-channel vector broadcasts along
    the columns.  BATCHNORM takes m', v' as inputs; GROUPNORM(g) derives them
    from group statistics of x (g must divide the channel count).
    """
    rows, cols = x.desc.rows, x.desc.cols
    gg = g if (g.desc.rows, g.desc.cols) == (rows, cols) else broadcast(g, Bcast.COL, rows, cols)
    bb = b if (b.desc.rows, b.desc.cols) == (rows, cols) else broadcast(b, Bcast.COL, rows, cols)
    if mode == NormMode.GROUPNORM:
        if groups < 1 or rows % groups != 0:
            raise TensorError(f"groups {groups} does not divide channels {rows}")
        _normalise(x, groups, eps, gg, bb, out)
        return
    if mode != NormMode.BATCHNORM:
        raise TensorError(f"unknown norm mode {mode!r}")
    if m_prime is None or v_prime is None:
        raise TensorError("batchnorm needs m' and v' vectors")
    mp, vp = (v if v.desc.bcast is Bcast.COL else broadcast(v, Bcast.COL, rows, cols)
              for v in (m_prime, v_prime))
    eqn.evaluate(_scaling_plan(rows, cols, x.desc.dtype), eqn.Buffered(),
                 [x, mp, vp, gg, bb], out)


# ---------------------------------------------------------------------------
# split SGD
# ---------------------------------------------------------------------------

def split_fp32(src: TensorView) -> SplitTensor:
    """Split an FP32 view into fresh dense hi/lo 16-bit halves (one UNPACK)."""
    rows, cols = src.desc.rows, src.desc.cols
    split = SplitTensor(alloc(TensorDesc(rows, cols, rows, DType.BF16)),
                        alloc(TensorDesc(rows, cols, rows, DType.INT16)))
    _unpack_into(src, split)
    return split


def pack_fp32(split: SplitTensor, out: TensorView | None = None) -> TensorView:
    """Bitwise inverse of :func:`split_fp32` (one PACK), into ``out`` or a
    fresh dense FP32 view."""
    if out is None:
        out = alloc(TensorDesc(split.rows, split.cols, split.rows, DType.FP32))
    elif out.desc.dtype is not DType.FP32:
        raise TensorError(f"pack_fp32 writes FP32, the output is {out.desc.dtype}")
    apply_binary(BinaryKind.PACK, split.hi, split.lo, out)
    return out


def _unpack_into(w: TensorView, split: SplitTensor) -> None:
    """UNPACK ``w`` into the halves of ``split`` in place: lo goes through
    hi's companion slot, which holds its previous payload again afterwards,
    whether or not the UNPACK raised."""
    hi = split.hi
    saved, hi.secondary = hi.secondary, split.lo.primary
    try:
        apply_unary(UnaryKind.UNPACK, w, hi)
    finally:
        hi.secondary = saved


def split_sgd_step(weights: SplitTensor, grad: TensorView, lr: float) -> None:
    """One SGD step on hi/lo split FP32 weights, W -= lr * grad, bitwise
    identical to plain FP32 SGD on the packed values.  ``ops.split_sgd``
    updates the halves in place in one C pass; the columns it leaves (all
    of them without C, for a BF16 or broadcast gradient or a NaN ``lr``;
    from the first column holding a NaN otherwise) take the reference
    path, :func:`_split_sgd_reference`, which gives the same bits: PACK
    and UNPACK in C where they can, NMULADD in numpy."""
    done = split_sgd(weights, grad, lr)
    rest = weights.cols - done
    if rest == 0:
        return
    if done:
        weights = SplitTensor(weights.hi.col_block(done, rest), weights.lo.col_block(done, rest))
        grad = grad.col_block(done, rest)
    _split_sgd_reference(weights, grad, lr)


def _split_sgd_reference(weights: SplitTensor, grad: TensorView, lr: float) -> None:
    """The split SGD step as three primitive calls: PACK into an FP32
    scratch, W -= lr * grad there in place (NMULADD, ``lr`` a SCALAR view:
    numpy, which reads every operand before it stores), UNPACK."""
    rows, cols = weights.rows, weights.cols
    w = pack_fp32(weights)
    lr_view = alloc(TensorDesc(1, 1, 1, DType.FP32), fill=lr)
    apply_ternary(TernaryKind.NMULADD, grad,
                  broadcast(lr_view, Bcast.SCALAR, rows, cols), w, w)
    _unpack_into(w, weights)


# ---------------------------------------------------------------------------
# sparse embedding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmbeddingSpec:
    rows: int      # number of table entries
    length: int    # feature length per entry


# (table, out) dtypes whose single FP32 (FP64) reduce gives the bits of one
# add per index in ``out``'s precision
_EMBEDDING_DTYPES = {(DType.FP32, DType.FP32), (DType.BF16, DType.FP32),
                     (DType.FP64, DType.FP64)}


def _gather_bag(table: TensorView, indices: Sequence[int]) -> TensorView:
    """The indexed columns of ``table`` as a contiguous scratch block; an
    out-of-range index raises IndexError before anything is written."""
    if table.desc.bcast is not Bcast.NONE:
        raise TensorError("cannot gather the columns of a broadcast table")
    rows = table.desc.rows
    bag = alloc(TensorDesc(rows, len(indices), rows, table.desc.dtype))
    gather_scatter(table, indices, GatherMode.GATHER_COLS, bag)
    return bag


def embedding_gather_reduce(spec: EmbeddingSpec, table: TensorView,
                            indices: Sequence[int], out: TensorView) -> None:
    """Multi-hot lookup: out = sum of the indexed table entries.

    One indexed ROWS SUM ``reduce`` folds the table columns the bag names
    into ``out`` in index order, starting from +0, reading them in place (a
    BF16 table widens only those columns): the bits of a GATHER_COLS into a
    scratch block followed by a ROWS reduce, without the block.  An empty
    bag gives zeros; an out-of-range index raises IndexError and a broadcast
    table TensorError, before any write.  The table stores one entry per
    column (feature dimension contiguous).

    Accepted dtypes, (table, out): (FP32, FP32), (BF16, FP32), (FP64, FP64).
    The reduce accumulates in FP32 (FP64 for an FP64 table), which equals one
    add per index in ``out``'s precision only for these.  Every other pair
    raises TensorError before any write: a BF16 or integer ``out``, an
    integer table, an FP32 or BF16 table into an FP64 ``out`` and an FP64
    table into an FP32 ``out``.
    """
    if (table.desc.rows, table.desc.cols) != (spec.length, spec.rows):
        raise TensorError("table must be length x rows (one entry per column)")
    if (out.desc.rows, out.desc.cols) != (spec.length, 1):
        raise TensorError("output must be length x 1")
    if (table.desc.dtype, out.desc.dtype) not in _EMBEDDING_DTYPES:
        raise TensorError(f"embedding of a {table.desc.dtype.name} table into a "
                          f"{out.desc.dtype.name} output is not supported")
    if len(indices) == 0:
        apply_unary(UnaryKind.ZERO, None, out)
        return
    if table.desc.bcast is not Bcast.NONE:
        raise TensorError("cannot gather the columns of a broadcast table")
    reduce(table, ReduceSpec(ReduceAxis.ROWS, ReduceOp.SUM), out, indices)


# ---------------------------------------------------------------------------
# fully connected
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FcSpec:
    """Blocked fully-connected layer:
    A[M_b][K_b][b_k][b_m] x B[N_b][K_b][b_n][b_k] -> C[N_b][M_b][b_n][b_m]."""
    m_b: int
    n_b: int
    k_b: int
    bm: int
    bn: int
    bk: int
    activation: Optional[UnaryKind] = None


def fc_forward(spec: FcSpec, a_buf, b_buf, c: TensorView) -> None:
    """Per output block: stride-based batch contraction over the K blocks
    (stride_A = bk*bm, stride_B = bn*bk), then the optional activation fused
    on the just-computed block."""
    bm, bn, bk = spec.bm, spec.bn, spec.bk
    if (c.desc.rows, c.desc.cols) != (bm, spec.n_b * spec.m_b * bn) or c.desc.ld != bm:
        raise TensorError("C must be a contiguous bm x (N_b*M_b*bn) block container")
    gspec = GemmSpec(m=bm, n=bn, k=bk, lda=bm, ldb=bk, ldc=bm,
                     in_dtype=DType.FP32, out_dtype=DType.FP32, beta=0.0)
    a_stride = bk * bm
    b_stride = bn * bk
    for ib_n in range(spec.n_b):
        for ib_m in range(spec.m_b):
            batch = BrgemmBatch.stride((a_buf, ib_m * spec.k_b * a_stride),
                                       (b_buf, ib_n * spec.k_b * b_stride),
                                       a_stride, b_stride, spec.k_b)
            cblk = c.col_block((ib_n * spec.m_b + ib_m) * bn, bn)
            brgemm(gspec, batch, cblk)
            if spec.activation is not None:
                apply_unary(spec.activation, cblk, cblk)


# ---------------------------------------------------------------------------
# 1D dilated convolution
# ---------------------------------------------------------------------------

_CONV_BLOCK_Q = 8  # output positions per batch contraction


@dataclass(frozen=True)
class DilatedConvSpec:
    in_channels: int     # C
    out_channels: int    # K
    width: int           # W (input positions)
    out_width: int       # Q (output positions)
    taps: int            # S (filter size)
    dilation: int        # d

    def __post_init__(self):
        if self.out_width + (self.taps - 1) * self.dilation > self.width:
            raise TensorError("output width exceeds the dilated receptive field")


def dilated_conv1d_forward(spec: DilatedConvSpec, inp: TensorView,
                           weights: TensorView, out: TensorView) -> None:
    """Forward pass: transpose the weights once, then per position block run
    an address-based batch contraction over the filter taps, with the input
    pointers at dilated offsets pos + s*d.

    ``inp`` is C x W (one column per position); ``weights`` is (C*S) x K with
    row s*C + c holding tap s of input channel c; ``out`` is K x Q.
    """
    c_ch, k_ch, s_taps, d = spec.in_channels, spec.out_channels, spec.taps, spec.dilation
    if (inp.desc.rows, inp.desc.cols) != (c_ch, spec.width):
        raise TensorError("input must be C x W")
    if (weights.desc.rows, weights.desc.cols) != (c_ch * s_taps, k_ch):
        raise TensorError("weights must be (C*S) x K")
    if (out.desc.rows, out.desc.cols) != (k_ch, spec.out_width):
        raise TensorError("output must be K x Q")

    wt = alloc(TensorDesc(k_ch, c_ch * s_taps, k_ch, weights.desc.dtype))
    transform(weights, TransformSpec(TransformKind.TRANSPOSE), wt)

    full = GemmSpec(m=k_ch, n=_CONV_BLOCK_Q, k=c_ch, lda=k_ch, ldb=inp.desc.ld,
                    ldc=out.desc.ld, in_dtype=wt.desc.dtype,
                    out_dtype=out.desc.dtype, beta=0.0)
    a_refs = [(wt.primary, s * c_ch * k_ch) for s in range(s_taps)]
    for pos in range(0, spec.out_width, _CONV_BLOCK_Q):
        bq = min(_CONV_BLOCK_Q, spec.out_width - pos)
        gspec = full if bq == _CONV_BLOCK_Q else replace(full, n=bq)
        b_refs = [(inp.primary, (pos + s * d) * inp.desc.ld) for s in range(s_taps)]
        brgemm(gspec, BrgemmBatch.address(a_refs, b_refs), out.col_block(pos, bq))


# ---------------------------------------------------------------------------
# binary-reduce aggregation
# ---------------------------------------------------------------------------

def binary_reduce_aggregate(table0: TensorView, table1: TensorView,
                            idx0: Sequence[int], idx1: Sequence[int],
                            binary: BinaryKind, reduce_op: ReduceOp,
                            out: TensorView) -> None:
    """Feature aggregation: reduce over i of
    binary(table0[:, idx0[i]], table1[:, idx1[i]]), in index order.

    One GATHER_COLS per table, one elementwise ``binary`` over the two
    gathered blocks into a scratch block of ``out``'s dtype (each element
    narrowed to it), then one ROWS reduce into ``out``.  SUM starts from +0
    (no pairs give zeros); MIN/MAX start from the first pair and need one.

    The tables may have any dtypes, both float or both integer (a mixed pair
    raises InvalidSpecError); ``out`` must be FP32 or FP64, where the
    reduce's accumulation precision is ``out``'s own.  A BF16 or integer
    ``out`` raises TensorError before any write.
    """
    if len(idx0) != len(idx1):
        raise TensorError("index lists must have equal length")
    if table0.desc.rows != table1.desc.rows:
        raise TensorError("feature lengths differ")
    if (out.desc.rows, out.desc.cols) != (table0.desc.rows, 1):
        raise TensorError("output must be feature-length x 1")
    if reduce_op not in (ReduceOp.SUM, ReduceOp.MAX, ReduceOp.MIN):
        raise TensorError("reduce must be SUM, MAX or MIN")
    if binary not in BINARY_MATH:
        raise TensorError(f"{binary} is not an elementwise binary kind")
    if out.desc.dtype not in (DType.FP32, DType.FP64):
        raise TensorError(f"aggregation into a {out.desc.dtype.name} output is not supported")
    if len(idx0) == 0:
        if reduce_op is not ReduceOp.SUM:
            raise TensorError("MIN/MAX aggregation needs at least one index pair")
        apply_unary(UnaryKind.ZERO, None, out)
        return
    g0 = _gather_bag(table0, idx0)
    g1 = _gather_bag(table1, idx1)
    pairs = alloc(TensorDesc(g0.desc.rows, g0.desc.cols, g0.desc.rows, out.desc.dtype))
    apply_binary(binary, g0, g1, pairs)
    reduce(pairs, ReduceSpec(ReduceAxis.ROWS, reduce_op), out)
