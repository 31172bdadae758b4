"""GEMM and batch-reduce GEMM with a bitwise-fixed accumulation order.

The contraction C = beta*C + sum_i A_i x B_i sums each batch entry's
partial from zero along ascending k, rounding every product before adding
it, and folds the partials onto beta*C one at a time in ascending batch
order; C is stored once at the end.  Every output element therefore sees one
fixed sequence of IEEE operations, which makes all results bit-reproducible
and lets the three batch addressing variants be compared bitwise.

Two paths compute that sequence and give the same bits.  The C kernels in
``native.c`` (built on first use, see ``native``) read every A and B block
in place, PLAIN or VNNI, and widen BF16 and INT8 themselves; only native
VNNI BF16 is first widened here, by the ``dtypes`` codec, and runs through
the FP32 kernel.  A side of a batch whose blocks share one buffer reaches C
as that buffer's address plus the blocks' offsets (or their stride), and is
bounds-checked once, by its lowest and highest offset; an address side over
several buffers reaches C as a table of addresses.  The numpy reference path
stacks the widened blocks into (n, M, K) and (n, K, N) arrays and runs one
loop over k for all entries at once (numpy neither fuses the multiply-add nor
reorders it).  It runs when no C compiler or cached build is available, for
buffers that cannot be read in place, and it recomputes any float result
that holds a NaN, which the C kernel reports: the compiler may swap the
operands of ``*`` and ``+``, which only matters for which NaN payload
survives where two NaNs meet.

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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import native
from .dtypes import DType, IdentityEnum, bf16_to_fp32, widen
from .tensor import (Bcast, TensorError, TensorView, vnni_alpha, vnni_extent, vnni_pack_a,
                     vnni_unpack_a)


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


# the C kernel of each input type, reading its blocks in place
_KERNEL = {DType.FP32: "brgemm_f32", DType.FP64: "brgemm_f64",
           DType.BF16: "brgemm_bf16", DType.INT8: "brgemm_i8"}


@dataclass(frozen=True)
class GemmSpec:
    """The fields below describe a contraction; the facts derived from them
    are computed once, at construction, and take no part in ``==``, ``hash``
    or ``repr``: the accumulator type, the C kernel that runs the spec,
    whether its blocks are ``widened`` to FP32 first (native VNNI BF16, read
    by ``brgemm_f32``), and the (rows, cols, ld) of an A and a B block as that
    kernel reads them in place (VNNI A as its (M*alpha) x ceil(K/alpha)
    column-major form)."""

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
    acc_dtype: DType = field(init=False, compare=False, repr=False)
    kernel: str = field(init=False, compare=False, repr=False)
    widened: bool = field(init=False, compare=False, repr=False)
    a_dims: tuple[int, int, int] = field(init=False, compare=False, repr=False)
    b_dims: tuple[int, int, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if min(self.m, self.n, self.k) < 1:
            raise TensorError("GEMM extents must be positive")
        if self.in_dtype not in _KERNEL:
            raise TensorError(f"unsupported input dtype {self.in_dtype}")
        acc = accumulator_dtype(self.in_dtype)
        if self.out_dtype is not acc:
            raise TensorError(f"output dtype must be {acc} for {self.in_dtype} inputs")
        vnni = self.a_layout is ALayout.VNNI
        if not vnni and self.lda < self.m:
            raise TensorError("lda < M")
        if self.ldb < self.k:
            raise TensorError("ldb < K")
        if self.ldc < self.m:
            raise TensorError("ldc < M")
        if self.compute_path is ComputePath.EMULATED_SPLIT and self.in_dtype is not DType.BF16:
            raise TensorError("EMULATED_SPLIT applies to BF16 inputs")
        if vnni:  # vnni_alpha raises for types without a VNNI form
            rows, cols = vnni_extent(self.m, self.k, vnni_alpha(self.in_dtype))
            a_dims = (rows, cols, rows)
        else:
            a_dims = (self.m, self.k, self.lda)
        widened = (vnni and self.in_dtype is DType.BF16
                   and self.compute_path is ComputePath.NATIVE)
        facts = {"acc_dtype": acc, "widened": widened, "a_dims": a_dims,
                 "b_dims": (self.k, self.n, self.ldb),
                 "kernel": "brgemm_f32" if widened else _KERNEL[self.in_dtype]}
        for name, value in facts.items():
            object.__setattr__(self, name, value)

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


def _one_buffer(refs: tuple[Ref, ...]):
    """``refs`` as (buffer, offsets) when they all lie in one buffer."""
    if not refs or any(buf is not refs[0][0] for buf, _ in refs):
        return None
    return (refs[0][0], tuple(off for _, off in refs))


class BrgemmBatch:
    """The (A_i, B_i) block sequence in one of three addressing variants.

    All variants describe the same abstract sequence; blocks may alias each
    other (but never the output).  ``a_refs`` and ``b_refs`` list the blocks
    as (buffer, element offset) pairs.  A side whose blocks all lie in one
    buffer (an offset or stride side always, an address side when its refs
    share a buffer) is kept as ``a_one`` / ``b_one`` alone, a (buffer,
    offsets) pair whose offsets are a ``range`` for a nonzero stride and a
    tuple otherwise, and its refs are built only when asked for; ``a_one`` /
    ``b_one`` is None for an address side over several buffers.  A batch is
    immutable, and its length ``n`` is that of its sides.
    """

    __slots__ = ("n", "a_one", "b_one", "_a_refs", "_b_refs")

    def __init__(self, a_one=None, b_one=None, a_refs=None, b_refs=None):
        """Each side given once, as (buffer, offsets) or as refs."""
        a_one, a_refs, n = _side(a_one, a_refs)
        b_one, b_refs, n_b = _side(b_one, b_refs)
        if n != n_b:
            raise TensorError(f"batch length mismatch: {n} A blocks, {n_b} B blocks")
        for name, value in (("n", n), ("a_one", a_one), ("b_one", b_one),
                            ("_a_refs", a_refs), ("_b_refs", b_refs)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("a BrgemmBatch is immutable")

    def __delattr__(self, name):
        raise AttributeError("a BrgemmBatch is immutable")

    @property
    def a_refs(self) -> tuple[Ref, ...]:
        return self._a_refs if self._a_refs is not None else _refs(self.a_one)

    @property
    def b_refs(self) -> tuple[Ref, ...]:
        return self._b_refs if self._b_refs is not None else _refs(self.b_one)

    def _buffers(self) -> list[np.ndarray]:
        """The distinct block buffers, each once (none for an empty batch)."""
        if not self.n:
            return []
        if self.a_one is not None and self.b_one is not None:
            a, b = self.a_one[0], self.b_one[0]
            return [a] if a is b else [a, b]
        return list({id(buf): buf for buf, _ in (*self.a_refs, *self.b_refs)}.values())

    @staticmethod
    def address(a_refs: Sequence, b_refs: Sequence) -> "BrgemmBatch":
        a = tuple(_as_ref(r) for r in a_refs)
        b = tuple(_as_ref(r) for r in b_refs)
        a_one, b_one = _one_buffer(a), _one_buffer(b)
        return BrgemmBatch(a_one, b_one, a if a_one is None else None,
                           b if b_one is None else None)

    @staticmethod
    def offset(a_base, b_base, a_offsets: Sequence[int], b_offsets: Sequence[int]) -> "BrgemmBatch":
        if len(a_offsets) != len(b_offsets):
            raise TensorError("offset batch length mismatch")
        ab, ao = _as_ref(a_base)
        bb, bo = _as_ref(b_base)
        return BrgemmBatch((ab, tuple(ao + int(o) for o in a_offsets)),
                           (bb, tuple(bo + int(o) for o in b_offsets)))

    @staticmethod
    def stride(a_base, b_base, stride_a: int, stride_b: int, count: int) -> "BrgemmBatch":
        ab, ao = _as_ref(a_base)
        bb, bo = _as_ref(b_base)
        return BrgemmBatch((ab, _strided(ao, int(stride_a), count)),
                           (bb, _strided(bo, int(stride_b), count)))


def _side(one, refs):
    """(one, refs, length) of a side given once, copied so that it cannot
    change after the batch is built."""
    if (one is None) == (refs is None):
        raise TensorError("each side of a batch is (buffer, offsets) or refs")
    if one is None:
        refs = tuple(refs)
        return None, refs, len(refs)
    buf, offsets = one
    if type(offsets) is not range:
        offsets = tuple(offsets)
    return (buf, offsets), None, len(offsets)


def _strided(first: int, stride: int, count: int):
    if stride == 0:
        return (first,) * count
    return range(first, first + count * stride, stride)


def _refs(one) -> tuple[Ref, ...]:
    buf, offsets = one
    return tuple((buf, off) for off in offsets)


# ---------------------------------------------------------------------------
# operand loading
# ---------------------------------------------------------------------------

def _check_extent(buf: np.ndarray, lo: int, hi: int, dims: tuple[int, int, int]) -> int:
    """Bounds-check blocks at offsets lo .. hi of ``buf``; returns the end
    of the last."""
    rows, cols, ld = dims
    need = hi + ld * (cols - 1) + rows
    if lo < 0 or need > buf.size:
        raise TensorError(f"block exceeds buffer: offsets {lo}..{hi} need {need} "
                          f"elements, have {buf.size}")
    return need


def _strided2d(buf: np.ndarray, off: int, rows: int, cols: int, ld: int) -> np.ndarray:
    _check_extent(buf, off, off, (rows, cols, ld))
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
    flat = buf[off:_check_extent(buf, off, off, spec.a_dims)]
    if spec.compute_path is ComputePath.EMULATED_SPLIT:
        return _widen_emulated(flat, spec.m, spec.k)
    return widen(vnni_unpack_a(flat, spec.alpha, spec.m, spec.k), spec.in_dtype)


def _load_b(spec: GemmSpec, ref: Ref) -> np.ndarray:
    """B block as a widened logical (K, N) array."""
    buf, off = ref
    return widen(_strided2d(buf, off, spec.k, spec.n, spec.ldb), spec.in_dtype)


def _widen_emulated(flat: np.ndarray, m: int, k: int) -> np.ndarray:
    """Reconstruct FP32 operands from BF16 pairs in the VNNI layout with
    mask/shift arithmetic: the even (low-half) element by an unmasked load
    plus a 32-bit left shift, the odd (high-half) element by zero-masking the
    low 16 bits."""
    groups = vnni_extent(m, k, 2)[1]
    lanes = flat.copy()              # fresh buffer: aligned for the u32 view
    u32 = lanes.view(np.uint32)      # one lane per pair
    even = (u32 << np.uint32(16)).view(np.float32).reshape(groups, m)
    odd = (u32 & np.uint32(0xFFFF0000)).view(np.float32).reshape(groups, m)
    out = np.empty((m, groups * 2), dtype=np.float32)
    out[:, 0::2] = even.T
    out[:, 1::2] = odd.T
    return out[:, :k]


def _address(buf: np.ndarray) -> int:
    """The address of the first element of a 1-D contiguous ``buf``
    (``from_buffer`` reads it in a third of the time ``buf.ctypes.data``
    takes, but only for a writable buffer)."""
    if buf.flags.writeable:
        return ctypes.addressof(ctypes.c_char.from_buffer(buf))
    return buf.ctypes.data


def _native_base(buf: np.ndarray, lo: int, hi: int, dims: tuple[int, int, int],
                 widened: bool, keep: list):
    """(address of element 0, element size) of ``buf`` as the C kernel reads
    it, after the bounds check of blocks at offsets lo .. hi.  Under
    ``widened`` the span those blocks touch is widened to FP32 first and
    appended to ``keep``, which must outlive the C call.  None when the
    buffer the kernel would read is not 1-D, contiguous and aligned."""
    end = _check_extent(buf, lo, hi, dims)
    origin = 0
    if widened:
        buf, origin = bf16_to_fp32(buf[lo:end]), lo
        keep.append(buf)
    size = buf.itemsize
    if buf.ndim != 1 or buf.strides[0] != size or not buf.flags.aligned:
        return None
    return _address(buf) - origin * size, size


def _native_side(one, refs, dims: tuple[int, int, int], widened: bool, keep: list):
    """One side of a batch as the C kernel takes it, (base, offsets, stride)
    in bytes: entry e at base + offsets[e], or at base + e*stride when the
    offsets are None.  Each distinct buffer is checked and addressed once
    (:func:`_native_base`); None when one cannot be read in place."""
    if one is None:
        return _native_table(refs, dims, widened, keep)
    buf, offsets = one
    strided = type(offsets) is range
    ends = (offsets[0], offsets[-1]) if strided else offsets
    got = _native_base(buf, min(ends), max(ends), dims, widened, keep)
    if got is None:
        return None
    base, size = got
    if strided:
        return base + offsets[0] * size, None, offsets.step * size
    return base, (ctypes.c_int64 * len(offsets))(*[off * size for off in offsets]), 0


def _native_table(refs, dims: tuple[int, int, int], widened: bool, keep: list):
    """An address side over several buffers: base 0 and a table of the
    blocks' addresses."""
    spans: dict[int, list] = {}
    for buf, off in refs:
        span = spans.setdefault(id(buf), [buf, off, off])
        span[1], span[2] = min(span[1], off), max(span[2], off)
    bases = {}
    for key, (buf, lo, hi) in spans.items():
        bases[key] = _native_base(buf, lo, hi, dims, widened, keep)
        if bases[key] is None:
            return None
    table = []
    for buf, off in refs:
        base, size = bases[id(buf)]
        table.append(base + off * size)
    return 0, (ctypes.c_int64 * len(table))(*table), 0


# ---------------------------------------------------------------------------
# the kernel
# ---------------------------------------------------------------------------

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


def _brgemm_native(spec: GemmSpec, batch: BrgemmBatch, c: TensorView) -> bool:
    """Run the C kernel of the spec into C.  It reads every block in place:
    PLAIN at its ld, VNNI as its (M*alpha) x ceil(K/alpha) column-major form,
    and PLAIN EMULATED_SPLIT BF16 as plain BF16 (a plain layout has no pairs
    to split, and the shift gives the same bits).  Native VNNI BF16 is the
    one exception: the span of each buffer its blocks touch is widened by
    ``dtypes.bf16_to_fp32`` first and read by the FP32 kernel, so that BF16
    native and emulated stay two implementations to compare.

    Every bounds check runs before the first write to C.  Returns False for
    the numpy path to compute C when the library is off, a buffer cannot be
    read in place, the kernel could not allocate its scratch (status 1) or a
    float result holds a NaN (status 2); C then holds what it held, or, under
    beta 0, maybe partial sums that the numpy path overwrites."""
    fn = native.kernel(spec.kernel)
    if fn is None:
        return False
    keep: list[np.ndarray] = []
    a = _native_side(batch.a_one, batch._a_refs, spec.a_dims, spec.widened, keep)
    b = None if a is None else _native_side(batch.b_one, batch._b_refs, spec.b_dims,
                                            spec.widened, keep)
    if b is None:
        return False
    m, n = spec.m, spec.n
    buf = c.primary
    # beta 0 into a dense C: accumulate in C itself, no copy
    if spec.beta == 0.0 and (spec.ldc == m or n == 1) and buf.flags.aligned:
        acc = buf[:m * n]
        acc.fill(0)
        cw, acc_address = None, _address(acc)
    else:
        cw = c.as2d()
        acc = _scaled_c(spec, cw)
        acc_address = acc.ctypes.data
    if fn(batch.n, m, n, spec.k, *a, spec.lda, *b, spec.ldb, acc_address,
          spec.a_layout is ALayout.VNNI):
        return False
    if cw is not None:
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
    commute bitwise, and a NaN never leaves a chain).  Each side's blocks
    are bounds-checked per buffer, from the lowest to the highest offset in
    it, whatever their order; a block that exceeds its buffer raises
    ``TensorError`` before C is written.  The call computes all of C on the
    caller's thread; blocking C into tiles and running tiles on threads is
    the caller's loop nest, and gives the same bits.
    """
    d = c.desc
    if d.rows != spec.m or d.cols != spec.n:
        raise TensorError(f"C must be {spec.m}x{spec.n}")
    if d.dtype is not spec.out_dtype:
        raise TensorError(f"C dtype {d.dtype} != {spec.out_dtype}")
    if d.ld != spec.ldc:
        raise TensorError("C ld mismatch")
    if d.bcast is not Bcast.NONE:
        raise TensorError("C must not be a broadcast view")
    storage = spec.in_dtype.storage
    for buf in batch._buffers():
        if buf.dtype != storage:
            raise TensorError(f"{buf.dtype} block buffer under a {spec.in_dtype} spec")
        if np.may_share_memory(c.primary, buf):
            raise TensorError("C must not alias any batch input")

    if batch.n and _brgemm_native(spec, batch, c):
        return
    cw = c.as2d()
    acc = _scaled_c(spec, cw)
    if batch.n:
        _brgemm_numpy(spec, batch, acc)
    cw[:, :] = acc


def gemm(spec: GemmSpec, a, b, c: TensorView) -> None:
    """Single contraction C = beta*C + A x B (a one-entry batch)."""
    brgemm(spec, BrgemmBatch.address([_as_ref(a)], [_as_ref(b)]), c)


def spec_for_views(a: TensorView, b: TensorView, c: TensorView, beta: float = 0.0) -> GemmSpec:
    """Build a GemmSpec from plain (non-VNNI) operand views."""
    return GemmSpec(m=a.desc.rows, n=b.desc.cols, k=a.desc.cols,
                    lda=a.desc.ld, ldb=b.desc.ld, ldc=c.desc.ld,
                    in_dtype=a.desc.dtype, out_dtype=c.desc.dtype, beta=beta)


def matmul(a: TensorView, b: TensorView, out: TensorView) -> None:
    """Binary MatMul: GEMM with beta = 0."""
    if a.desc.cols != b.desc.rows:
        raise TensorError(f"matmul inner dims {a.desc.cols} != {b.desc.rows}")
    spec = spec_for_views(a, b, out, beta=0.0)
    gemm(spec, a, b, out)
