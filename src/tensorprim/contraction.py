"""GEMM and batch-reduce GEMM with a bitwise-fixed accumulation order.

The contraction C = beta*C + sum_i A_i x B_i sums each batch entry's
partial from zero along ascending k, rounding every product before adding
it, and folds the partials onto beta*C one at a time in ascending batch
order; C is stored once at the end.  Every output element therefore sees one
fixed sequence of IEEE operations, which makes all results bit-reproducible
and lets the three batch addressing variants be compared bitwise.

Two paths compute that sequence and give the same bits.  The C kernels in
``native.c`` (built on first use, see ``native``) read every A and B block
in place through per-entry pointers, PLAIN or VNNI, and widen BF16 and INT8
themselves; only native VNNI BF16 is first widened here, by the ``dtypes``
codec, and runs through the FP32 kernel.  The numpy reference path stacks
the widened blocks into (n, M, K) and (n, K, N) arrays and runs one loop
over k for all entries at once (numpy neither fuses the multiply-add nor
reorders it).  It runs when no C compiler or cached build is available, for
buffers that cannot be read in place, and it recomputes any float result
that holds a NaN: the compiler may swap the operands of ``*`` and ``+``,
which only matters for which NaN payload survives where two NaNs meet.

Like a TPP, a call is a single-core building block: it computes all of C on
the caller's thread.  Blocking and parallelism belong to the caller's loop
nest; a caller that computes C as tiles, one call per tile, in any order or
from several threads, gets the same bits, since each element's sequence does
not depend on the other elements.

BF16 and INT8 inputs widen exactly to FP32 / INT32 before the multiply;
the optional EMULATED_SPLIT path reconstructs the FP32 operands from the
packed pair layout with mask/shift arithmetic instead (odd halves by
zero-masking, even halves by a left shift), which is bit-identical.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import native
from .dtypes import DType, IdentityEnum, bf16_to_fp32, widen
from .tensor import TensorError, TensorView, vnni_alpha, vnni_pack_a, vnni_unpack_a


def accumulator_dtype(in_dtype: DType) -> DType:
    """The accumulator (and output) type of a contraction over ``in_dtype``."""
    if in_dtype is DType.FP64:
        return DType.FP64
    if in_dtype is DType.INT8:
        return DType.INT32
    return DType.FP32


class ALayout(IdentityEnum):
    PLAIN = "plain"
    VNNI = "vnni"


class ComputePath(IdentityEnum):
    NATIVE = "native"
    EMULATED_SPLIT = "emulated_split"


@dataclass(frozen=True)
class GemmSpec:
    m: int
    n: int
    k: int
    lda: int
    ldb: int
    ldc: int
    in_dtype: DType = DType.FP32
    out_dtype: DType = DType.FP32
    beta: float = 0.0
    a_layout: ALayout = ALayout.PLAIN
    compute_path: ComputePath = ComputePath.NATIVE

    def __post_init__(self):
        if min(self.m, self.n, self.k) < 1:
            raise TensorError("GEMM extents must be positive")
        if self.in_dtype not in (DType.FP64, DType.FP32, DType.BF16, DType.INT8):
            raise TensorError(f"unsupported input dtype {self.in_dtype}")
        want_out = self.acc_dtype
        if self.out_dtype is not want_out:
            raise TensorError(f"output dtype must be {want_out} for {self.in_dtype} inputs")
        if self.a_layout is ALayout.PLAIN and self.lda < self.m:
            raise TensorError("lda < M")
        if self.ldb < self.k:
            raise TensorError("ldb < K")
        if self.ldc < self.m:
            raise TensorError("ldc < M")
        if self.compute_path is ComputePath.EMULATED_SPLIT and self.in_dtype is not DType.BF16:
            raise TensorError("EMULATED_SPLIT applies to BF16 inputs")
        if self.a_layout is ALayout.VNNI:
            vnni_alpha(self.in_dtype)  # raises for types without a VNNI form

    @property
    def acc_dtype(self) -> DType:
        return accumulator_dtype(self.in_dtype)

    @property
    def alpha(self) -> int:
        return vnni_alpha(self.in_dtype)


Ref = tuple[np.ndarray, int]  # (flat buffer, element offset)


def _as_ref(x) -> Ref:
    if isinstance(x, TensorView):
        return (x.primary, 0)
    if isinstance(x, np.ndarray):
        return (x, 0)
    buf, off = x
    if isinstance(buf, TensorView):
        buf = buf.primary
    return (buf, int(off))


@dataclass(frozen=True, eq=False)
class BrgemmBatch:
    """The (A_i, B_i) block sequence in one of three addressing variants.

    All variants describe the same abstract sequence; blocks may alias each
    other (but never the output).
    """

    a_refs: tuple[Ref, ...]
    b_refs: tuple[Ref, ...]

    @property
    def n(self) -> int:
        return len(self.a_refs)

    @staticmethod
    def address(a_refs: Sequence, b_refs: Sequence) -> "BrgemmBatch":
        a = tuple(_as_ref(r) for r in a_refs)
        b = tuple(_as_ref(r) for r in b_refs)
        if len(a) != len(b):
            raise TensorError(f"batch length mismatch: {len(a)} A blocks, {len(b)} B blocks")
        return BrgemmBatch(a, b)

    @staticmethod
    def offset(a_base, b_base, a_offsets: Sequence[int], b_offsets: Sequence[int]) -> "BrgemmBatch":
        if len(a_offsets) != len(b_offsets):
            raise TensorError("offset batch length mismatch")
        ab, ao = _as_ref(a_base)
        bb, bo = _as_ref(b_base)
        a = tuple((ab, ao + int(o)) for o in a_offsets)
        b = tuple((bb, bo + int(o)) for o in b_offsets)
        return BrgemmBatch(a, b)

    @staticmethod
    def stride(a_base, b_base, stride_a: int, stride_b: int, count: int) -> "BrgemmBatch":
        ab, ao = _as_ref(a_base)
        bb, bo = _as_ref(b_base)
        a = tuple((ab, ao + i * int(stride_a)) for i in range(count))
        b = tuple((bb, bo + i * int(stride_b)) for i in range(count))
        return BrgemmBatch(a, b)


# ---------------------------------------------------------------------------
# operand loading
# ---------------------------------------------------------------------------

def _check_block(buf: np.ndarray, off: int, rows: int, cols: int, ld: int) -> None:
    need = off + ld * (cols - 1) + rows
    if off < 0 or need > buf.size:
        raise TensorError(f"block exceeds buffer: need {need}, have {buf.size}")


def _strided2d(buf: np.ndarray, off: int, rows: int, cols: int, ld: int) -> np.ndarray:
    _check_block(buf, off, rows, cols, ld)
    s = buf.strides[0]
    return np.lib.stride_tricks.as_strided(buf[off:], shape=(rows, cols),
                                           strides=(s, ld * s))


def _load_a(spec: GemmSpec, ref: Ref) -> np.ndarray:
    """A block as a widened logical (M, K) array."""
    buf, off = ref
    if spec.a_layout is ALayout.PLAIN:
        block = _strided2d(buf, off, spec.m, spec.k, spec.lda)
        if spec.compute_path is ComputePath.EMULATED_SPLIT:
            return _widen_emulated(vnni_pack_a(block, 2), spec.m, spec.k)
        return widen(block, spec.in_dtype)
    al = spec.alpha
    size = -(-spec.k // al) * spec.m * al
    if off < 0 or buf.size - off < size:
        raise TensorError("VNNI block exceeds buffer")
    flat = buf[off:off + size]
    if spec.compute_path is ComputePath.EMULATED_SPLIT:
        return _widen_emulated(flat, spec.m, spec.k)
    return widen(vnni_unpack_a(flat, al, spec.m, spec.k), spec.in_dtype)


def _load_b(spec: GemmSpec, ref: Ref) -> np.ndarray:
    """B block as a widened logical (K, N) array."""
    buf, off = ref
    return widen(_strided2d(buf, off, spec.k, spec.n, spec.ldb), spec.in_dtype)


def _widen_emulated(flat: np.ndarray, m: int, k: int) -> np.ndarray:
    """Reconstruct FP32 operands from BF16 pairs in the VNNI layout with
    mask/shift arithmetic: the even (low-half) element by an unmasked load
    plus a 32-bit left shift, the odd (high-half) element by zero-masking the
    low 16 bits."""
    groups = -(-k // 2)
    lanes = flat.copy()              # fresh buffer: aligned for the u32 view
    u32 = lanes.view(np.uint32)      # one lane per pair
    even = (u32 << np.uint32(16)).view(np.float32).reshape(groups, m)
    odd = (u32 & np.uint32(0xFFFF0000)).view(np.float32).reshape(groups, m)
    out = np.empty((m, groups * 2), dtype=np.float32)
    out[:, 0::2] = even.T
    out[:, 1::2] = odd.T
    return out[:, :k]


def _in_place_pointers(refs, rows: int, cols: int, ld: int):
    """A ctypes table of the addresses of column-major blocks read in place,
    after each block's bounds check; None when a buffer is not 1-D,
    contiguous and aligned."""
    bases: dict[int, int] = {}
    ptrs = []
    for buf, off in refs:
        _check_block(buf, off, rows, cols, ld)
        base = bases.get(id(buf))
        if base is None:
            if buf.ndim != 1 or buf.strides[0] != buf.itemsize or not buf.flags.aligned:
                return None
            base = bases[id(buf)] = buf.ctypes.data
        ptrs.append(base + off * buf.itemsize)
    return (ctypes.c_void_p * len(ptrs))(*ptrs)


def _widened_spans(refs, rows: int, cols: int, ld: int) -> tuple[Ref, ...]:
    """``refs`` moved into FP32 copies of their BF16 buffers: one
    ``bf16_to_fp32`` call per distinct buffer, over the span its blocks
    touch (after each block's bounds check)."""
    spans: dict[int, tuple[np.ndarray, int, int]] = {}
    for buf, off in refs:
        _check_block(buf, off, rows, cols, ld)
        end = off + ld * (cols - 1) + rows
        _, lo, hi = spans.get(id(buf), (buf, off, end))
        spans[id(buf)] = (buf, min(lo, off), max(hi, end))
    wide = {key: (bf16_to_fp32(buf[lo:hi]), lo) for key, (buf, lo, hi) in spans.items()}
    return tuple((wide[id(buf)][0], off - wide[id(buf)][1]) for buf, off in refs)


# ---------------------------------------------------------------------------
# the kernel
# ---------------------------------------------------------------------------

# the C kernel of each input type, reading its blocks in place
_KERNEL = {DType.FP32: "brgemm_f32", DType.FP64: "brgemm_f64",
           DType.BF16: "brgemm_bf16", DType.INT8: "brgemm_i8"}


def _scaled_c(spec: GemmSpec, cw: np.ndarray) -> np.ndarray:
    """beta*C as a fresh column-major accumulator (beta 0 ignores C, beta 1
    takes it unscaled)."""
    acc_np = spec.acc_dtype.storage.type
    if spec.beta == 0.0:
        return np.zeros(cw.shape, dtype=acc_np, order="F")
    acc = np.array(cw, dtype=acc_np, order="F")
    if spec.beta != 1.0:
        acc *= acc_np(spec.beta)
    return acc


def _brgemm_numpy(spec: GemmSpec, batch: BrgemmBatch, acc: np.ndarray) -> None:
    """The reference path: the widened A_i stacked into (n, M, K) and the B_i
    into (n, K, N), one loop over k adding the rank-1 updates of all n entry
    partials at once, then the fold onto ``acc`` in batch order (reversed
    under the ``k-order`` or ``batch-fold`` fault of ``native``)."""
    a = np.stack([_load_a(spec, ref) for ref in batch.a_refs])
    b = np.stack([_load_b(spec, ref) for ref in batch.b_refs])
    part = np.zeros((batch.n, spec.m, spec.n), dtype=acc.dtype)
    ks = range(spec.k - 1, -1, -1) if native.fault == "k-order" else range(spec.k)
    entries = range(batch.n - 1, -1, -1) if native.fault == "batch-fold" else range(batch.n)
    with np.errstate(all="ignore"):
        for k in ks:
            part += a[:, :, k, None] * b[:, None, k, :]
        for i in entries:
            acc += part[i]


def _brgemm_native(spec: GemmSpec, batch: BrgemmBatch, cw: np.ndarray) -> bool:
    """Run the C kernel of the input type into C (``cw``).  It reads every
    block in place: PLAIN at its ld, VNNI as its (M*alpha) x ceil(K/alpha)
    column-major form, and PLAIN EMULATED_SPLIT BF16 as plain BF16 (a plain
    layout has no pairs to split, and the shift gives the same bits).  Native
    VNNI BF16 is the one exception: the span of each buffer its blocks touch
    is widened by ``dtypes.bf16_to_fp32`` first and read by the FP32 kernel,
    so that BF16 native and emulated stay two implementations to compare.

    Every bounds check runs before the first write to C.  Returns False for
    the numpy path to compute C when the library is off, a buffer cannot be
    read in place, the kernel could not allocate its scratch or a float
    result holds a NaN; C then holds what it held, or, under beta 0, maybe
    partial sums that the numpy path overwrites."""
    vnni = spec.a_layout is ALayout.VNNI
    widened = vnni and spec.in_dtype is DType.BF16 and spec.compute_path is ComputePath.NATIVE
    fn = native.kernel("brgemm_f32" if widened else _KERNEL[spec.in_dtype])
    if fn is None:
        return False
    if vnni:
        al = spec.alpha
        a_dims = (spec.m * al, -(-spec.k // al), spec.m * al)
    else:
        a_dims = (spec.m, spec.k, spec.lda)
    b_dims = (spec.k, spec.n, spec.ldb)
    a_refs, b_refs = batch.a_refs, batch.b_refs
    if widened:   # the spans must outlive the C call that reads them
        a_refs, b_refs = _widened_spans(a_refs, *a_dims), _widened_spans(b_refs, *b_dims)
    a_ptrs = _in_place_pointers(a_refs, *a_dims)
    b_ptrs = None if a_ptrs is None else _in_place_pointers(b_refs, *b_dims)
    if b_ptrs is None:
        return False
    # beta 0 into a dense C: accumulate in C itself, no copy
    direct = spec.beta == 0.0 and cw.dtype == spec.acc_dtype.storage and cw.flags.f_contiguous
    if direct:
        acc = cw
        acc.fill(0)
    else:
        acc = _scaled_c(spec, cw)
    if fn(batch.n, spec.m, spec.n, spec.k, a_ptrs, spec.lda, b_ptrs, spec.ldb,
          acc.ctypes.data, vnni):
        return False
    if acc.dtype.kind == "f" and np.isnan(acc).any():
        return False
    if not direct:
        cw[:, :] = acc
    return True


def brgemm(spec: GemmSpec, batch: BrgemmBatch, c: TensorView) -> None:
    """C = beta*C + sum_i A_i x B_i with bitwise-fixed accumulation order.

    Per output element: each batch entry's contribution is summed from zero
    along ascending k, and the entry partials are then folded onto beta*C in
    ascending batch order.  The per-entry grouping makes exact-arithmetic
    identities hold exactly in floating point too (duplicating a batch entry
    doubles the result bitwise; a negated duplicate cancels to exact zero).

    The C kernel reads every block in place, PLAIN or VNNI, and gives the
    bits of the numpy reference path.  When a float result holds a NaN, the
    call is recomputed on the numpy path from beta*C: the compiler may swap
    the operands of ``*`` and ``+``, which decides which payload survives
    where two NaNs meet, and only there (without NaNs, IEEE ``+`` and ``*``
    commute bitwise, and a NaN never leaves a chain).  A block that exceeds
    its buffer raises ``TensorError`` before C is written.  The call
    computes all of C on the caller's thread; blocking C into tiles and
    running tiles on threads is the caller's loop nest, and gives the same
    bits.
    """
    if (c.desc.rows, c.desc.cols) != (spec.m, spec.n):
        raise TensorError(f"C must be {spec.m}x{spec.n}")
    if c.desc.dtype is not spec.out_dtype:
        raise TensorError(f"C dtype {c.desc.dtype} != {spec.out_dtype}")
    if c.desc.ld != spec.ldc:
        raise TensorError("C ld mismatch")
    storage = spec.in_dtype.storage
    buffers = {id(buf): buf for buf, _ in (*batch.a_refs, *batch.b_refs)}
    for buf in buffers.values():
        if buf.dtype != storage:
            raise TensorError(f"{buf.dtype} block buffer under a {spec.in_dtype} spec")
        if np.may_share_memory(c.primary, buf):
            raise TensorError("C must not alias any batch input")

    cw = c.as2d()
    if batch.n and _brgemm_native(spec, batch, cw):
        return
    acc = _scaled_c(spec, cw)
    if batch.n:
        _brgemm_numpy(spec, batch, acc)
    cw[:, :] = acc


def gemm(spec: GemmSpec, a, b, c: TensorView) -> None:
    """Single contraction C = beta*C + A x B (a one-entry batch)."""
    brgemm(spec, BrgemmBatch.address([_as_ref(a)], [_as_ref(b)]), c)


def spec_for_views(a: TensorView, b: TensorView, c: TensorView, beta: float = 0.0,
                   a_layout: ALayout = ALayout.PLAIN,
                   compute_path: ComputePath = ComputePath.NATIVE) -> GemmSpec:
    """Build a GemmSpec from plain (non-VNNI) operand views."""
    return GemmSpec(m=a.desc.rows, n=b.desc.cols, k=a.desc.cols,
                    lda=a.desc.ld, ldb=b.desc.ld, ldc=c.desc.ld,
                    in_dtype=a.desc.dtype, out_dtype=c.desc.dtype, beta=beta,
                    a_layout=a_layout, compute_path=compute_path)


def matmul(a: TensorView, b: TensorView, out: TensorView) -> None:
    """Binary MatMul: GEMM with beta = 0."""
    if a.desc.cols != b.desc.rows:
        raise TensorError(f"matmul inner dims {a.desc.cols} != {b.desc.rows}")
    spec = spec_for_views(a, b, out, beta=0.0)
    gemm(spec, a, b, out)
