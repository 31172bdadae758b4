"""The 2D tensor operator set: unary / binary / ternary kinds, dispatch,
reductions, layout transforms, gather/scatter and deterministic dropout.

A primitive is described once (``KernelSpec``: kind, input descriptors,
flags) and validated once: ``infer_output_desc`` is the only check of a
spec, and ``dispatch`` caches the ``Kernel`` built from it, which then runs
without re-checking.  ``apply_*``, ``reduce``, ``transform`` and
``replicate_cols`` dispatch the spec of their views and run its kernel, and
a kernel called from a plan step enters through the ``apply_*`` of its
family, so every primitive call takes this one path.  ZERO and PRNG, whose
extent is the output's, run directly.

Every operator follows the same blueprint: load logical sub-tensors (with
broadcast and datatype widening applied), run the point operation in the
compute precision, store once (narrowing to the output's dtype).
Reductions use a fixed, ascending accumulation order so results are
bit-reproducible.  The reductions and the xorshift streams run C kernels
(``native.c``) when the library is built; their numpy code is the
reference path and gives the same bits.  Every call runs on the caller's
thread; blocking and threads belong to the caller's loop nest.
"""

from __future__ import annotations

from dataclasses import dataclass
import enum
import functools
from typing import Callable, Optional, Sequence

import numpy as np

from . import approx, contraction, native
from .approx import Approx
from .dtypes import DType, narrow, pack_fp32_bits, split_fp32_bits, widen
from .tensor import (
    Bcast,
    TensorDesc,
    TensorError,
    TensorView,
    bool_to_mask,
    mask_to_bool,
    vnni_alpha,
    vnni_pack_a,
    vnni_unpack_a,
)


class UnaryKind(enum.Enum):
    IDENTITY = "identity"
    ZERO = "zero"
    SQUARE = "square"
    INC = "inc"
    DEC = "dec"
    SQRT = "sqrt"
    RECIPROCAL = "reciprocal"
    RSQRT = "rsqrt"
    EXP = "exp"
    PRNG = "prng"
    QUANTIZE = "quantize"
    DEQUANTIZE = "dequantize"
    REDUCE = "reduce"
    TRANSFORM = "transform"
    UNPACK = "unpack"
    REPLICATE_COLS = "replicate_cols"
    TANH = "tanh"
    TANH_INV = "tanh_inv"
    RELU = "relu"
    RELU_INV = "relu_inv"
    SIGMOID = "sigmoid"
    SIGMOID_INV = "sigmoid_inv"
    GELU = "gelu"
    GELU_INV = "gelu_inv"
    DROPOUT = "dropout"
    DROPOUT_INV = "dropout_inv"


class BinaryKind(enum.Enum):
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MAX = "max"
    MIN = "min"
    MATMUL = "matmul"
    PACK = "pack"
    COMPARE = "compare"


class TernaryKind(enum.Enum):
    GEMM = "gemm"
    MULADD = "muladd"
    NMULADD = "nmuladd"
    BLEND = "blend"


class CmpOp(enum.Enum):
    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"


class ReduceAxis(enum.Enum):
    ROWS = "rows"  # output M x 1: each row reduced across its columns
    COLS = "cols"  # output 1 x N: each column reduced across its rows
    ALL = "all"    # output 1 x 1


class ReduceOp(enum.Enum):
    SUM = "sum"
    MUL = "mul"
    MIN = "min"
    MAX = "max"


@dataclass(frozen=True)
class ReduceSpec:
    axis: ReduceAxis
    op: ReduceOp
    squared: bool = False


class TransformKind(enum.Enum):
    TRANSPOSE = "transpose"
    VNNI = "vnni"
    VNNI_TO_VNNIT = "vnni_to_vnnit"


@dataclass(frozen=True)
class TransformSpec:
    kind: TransformKind
    alpha: int = 0          # VNNI inner group size (2 for 16-bit, 4 for 8-bit)
    alpha_out: int = 0      # output group size for VNNI_TO_VNNIT
    rows: int = 0           # logical pre-VNNI extent, needed by VNNI_TO_VNNIT
    cols: int = 0


class GatherMode(enum.Enum):
    GATHER_ROWS = "gather_rows"
    GATHER_COLS = "gather_cols"
    SCATTER_ROWS = "scatter_rows"
    SCATTER_COLS = "scatter_cols"
    GATHER2D = "gather2d"
    SCATTER2D = "scatter2d"


_TANH_SELECTORS = (Approx.PADE78, Approx.MINIMAX16, Approx.EXACT)
_GELU_SELECTORS = (Approx.MINIMAX16, Approx.EXACT)

# The approximation selectors each kind implements, its default first; a
# spec naming any other selector is rejected at dispatch.
APPROX_SELECTORS: dict[UnaryKind, tuple[Approx, ...]] = {
    UnaryKind.TANH: _TANH_SELECTORS,
    UnaryKind.TANH_INV: _TANH_SELECTORS,
    UnaryKind.SIGMOID: _TANH_SELECTORS,
    UnaryKind.SIGMOID_INV: _TANH_SELECTORS,
    UnaryKind.GELU: _GELU_SELECTORS,
    UnaryKind.GELU_INV: _GELU_SELECTORS,
    UnaryKind.EXP: (Approx.TAYLOR2, Approx.EXACT),
}
# The flags of ``KernelSpec`` each kind reads besides ``approx``; a spec
# setting any other flag is rejected at dispatch.
KIND_FLAGS: dict[UnaryKind | BinaryKind | TernaryKind, tuple[str, ...]] = {
    UnaryKind.REDUCE: ("reduce",),
    UnaryKind.TRANSFORM: ("transform",),
    UnaryKind.REPLICATE_COLS: ("times",),
    UnaryKind.RELU: ("bitmask_output",),
    UnaryKind.DROPOUT: ("dropout_p",),
    UnaryKind.DROPOUT_INV: ("dropout_p",),
    BinaryKind.COMPARE: ("cmp",),
}
_FLAGS = ("reduce", "transform", "cmp", "bitmask_output", "dropout_p", "times")

# The math of every fusable kind: ndarray functions taking and returning
# compute-dtype values, bound into each ``Kernel`` (``Kernel.math``) that both
# a kernel call and the tiled equation engine run.
# Unary entries take the approximation selector as a second argument.
UNARY_MATH: dict[UnaryKind, Callable[[np.ndarray, Optional[Approx]], np.ndarray]] = {
    UnaryKind.IDENTITY: lambda x, sel: x,
    UnaryKind.SQUARE: lambda x, sel: x * x,
    UnaryKind.INC: lambda x, sel: x + x.dtype.type(1),
    UnaryKind.DEC: lambda x, sel: x - x.dtype.type(1),
    UnaryKind.SQRT: lambda x, sel: np.sqrt(x),
    UnaryKind.RECIPROCAL: lambda x, sel: x.dtype.type(1) / x,
    UnaryKind.RSQRT: lambda x, sel: x.dtype.type(1) / np.sqrt(x),
    UnaryKind.EXP: lambda x, sel: approx.exp_taylor(x) if sel is not Approx.EXACT else np.exp(x),
    UnaryKind.TANH: lambda x, sel: approx.tanh(x, sel),
    UnaryKind.SIGMOID: lambda x, sel: approx.sigmoid_via_tanh(x, sel),
    UnaryKind.GELU: lambda x, sel: approx.gelu(x, sel),
    UnaryKind.RELU: lambda x, sel: np.maximum(x, x.dtype.type(0)),
}
BINARY_MATH: dict[BinaryKind, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    BinaryKind.ADD: np.add,
    BinaryKind.SUB: np.subtract,
    BinaryKind.MUL: np.multiply,
    BinaryKind.DIV: np.true_divide,
    BinaryKind.MAX: np.maximum,
    BinaryKind.MIN: np.minimum,
}
TERNARY_MATH: dict[TernaryKind, Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = {
    TernaryKind.MULADD: lambda a, b, c: c + a * b,
    TernaryKind.NMULADD: lambda a, b, c: c - a * b,
}

_CMP_PREDICATE = {CmpOp.EQ: np.equal, CmpOp.NE: np.not_equal, CmpOp.LT: np.less,
                  CmpOp.LE: np.less_equal, CmpOp.GT: np.greater,
                  CmpOp.GE: np.greater_equal}

class InvalidSpecError(ValueError):
    """Kernel spec rejected; ``code`` is one of 'shape', 'dtype', 'flag'."""

    def __init__(self, code: str, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code


# test-only fault hook: verify's negative control flips reduction order to
# demonstrate that the bitwise-equivalence checks actually bite
_FAULT_DESCENDING_REDUCE = False


# ---------------------------------------------------------------------------
# xorshift128 PRNG (one independent stream per output column)
# ---------------------------------------------------------------------------

_U64 = np.uint64
_SPLITMIX_GAMMA = _U64(0x9E3779B97F4A7C15)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    z = (x + _SPLITMIX_GAMMA)
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


class PrngState:
    """Marsaglia xorshift128 state: four 32-bit words per stream.

    Streams are seeded as ``seed XOR column-index`` expanded through
    splitmix64, so evaluation parallelised over columns stays deterministic.
    A stream is never all-zero.
    """

    def __init__(self, seed: int, ncols: int = 1):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        base = np.arange(ncols, dtype=np.uint64) ^ _U64(self.seed)
        a = _splitmix64(base)
        b = _splitmix64(a)
        self.x = (a & _U64(0xFFFFFFFF)).astype(np.uint32)
        self.y = (a >> _U64(32)).astype(np.uint32)
        self.z = (b & _U64(0xFFFFFFFF)).astype(np.uint32)
        self.w = (b >> _U64(32)).astype(np.uint32)
        dead = (self.x | self.y | self.z | self.w) == 0
        if np.any(dead):
            self.w = np.where(dead, np.uint32(1), self.w)

    def step(self) -> np.ndarray:
        """Advance every stream once; returns one 32-bit word per stream."""
        t = self.x ^ (self.x << np.uint32(11))
        self.x, self.y, self.z = self.y, self.z, self.w
        self.w = (self.w ^ (self.w >> np.uint32(19))) ^ (t ^ (t >> np.uint32(8)))
        return self.w

    def uniform_block(self, rows: int) -> np.ndarray:
        """rows x ncols FP32 uniforms in [0, 1), row i from the i-th step:
        one call of the C kernel, or, without it, a loop of :meth:`step`;
        both leave the same state."""
        out = np.empty((rows, self.x.size), dtype=np.float32)
        fn = native.kernel("xorshift_uniform")
        if fn is not None:
            state = np.stack([self.x, self.y, self.z, self.w])  # a fresh uint32 array
            fn(self.x.size, rows, state.ctypes.data, out.ctypes.data)
            self.x, self.y, self.z, self.w = state
            return out
        for i in range(rows):
            w = self.step()
            out[i, :] = (w >> np.uint32(8)).astype(np.float32) * np.float32(2.0 ** -24)
        return out


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _compute_values(v: TensorView) -> np.ndarray:
    """Logical window widened to the compute dtype."""
    return widen(v.logical2d(), v.desc.dtype)


def _store(out: TensorView, values: np.ndarray) -> None:
    out.as2d()[:, :] = narrow(values, out.desc.dtype)


def _require_logical_shape(v: TensorView, rows: int, cols: int, what: str) -> None:
    if (v.desc.rows, v.desc.cols) != (rows, cols):
        raise TensorError(f"{what}: expected {rows}x{cols}, got {v.desc.rows}x{v.desc.cols}")


def _join_shapes(shapes: Sequence[tuple[int, int]]) -> tuple[int, int]:
    rows = max(s[0] for s in shapes)
    cols = max(s[1] for s in shapes)
    for r, c in shapes:
        if r not in (1, rows) or c not in (1, cols):
            raise InvalidSpecError("shape", f"cannot broadcast-join {shapes}")
    return rows, cols


def _mask_from(view: TensorView, what: str) -> np.ndarray:
    if view.secondary is None:
        raise TensorError(f"{what} requires a recorded bitmask in secondary")
    return mask_to_bool(view.secondary, view.desc.rows, view.desc.cols)


# ---------------------------------------------------------------------------
# dispatch: the one place a spec is validated
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    """A fully-specified primitive instance; output shape is a total function
    of (kind, inputs, flags)."""

    kind: UnaryKind | BinaryKind | TernaryKind
    ins: tuple[TensorDesc, ...]
    approx: Approx | None = None
    reduce: ReduceSpec | None = None
    transform: TransformSpec | None = None
    cmp: CmpOp | None = None
    bitmask_output: bool = False
    dropout_p: float | None = None
    times: int | None = None


def infer_output_desc(spec: KernelSpec) -> TensorDesc:
    """The output descriptor of ``spec``, or InvalidSpecError ('shape',
    'dtype' or 'flag') if no call could run it.  Every check of a spec's
    kind, flags, input shapes and input dtypes lives here."""
    k, ins = spec.kind, spec.ins
    if spec.approx is not None and spec.approx not in APPROX_SELECTORS.get(k, ()):
        raise InvalidSpecError("flag", f"{k.name} does not implement {spec.approx}")
    for flag in _FLAGS:
        value = getattr(spec, flag)
        if value is not None and value is not False and flag not in KIND_FLAGS.get(k, ()):
            raise InvalidSpecError("flag", f"{k.name} does not read {flag}")
    if isinstance(k, UnaryKind):
        if len(ins) != 1:
            raise InvalidSpecError("shape", "unary spec takes one input desc")
        d = ins[0]
        if k is UnaryKind.REDUCE:
            if spec.reduce is None:
                raise InvalidSpecError("flag", "REDUCE needs a ReduceSpec")
            r, c = {ReduceAxis.ROWS: (d.rows, 1), ReduceAxis.COLS: (1, d.cols),
                    ReduceAxis.ALL: (1, 1)}[spec.reduce.axis]
            out_dt = DType.FP64 if d.dtype is DType.FP64 else DType.FP32
            return TensorDesc(r, c, r, out_dt)
        if k is UnaryKind.TRANSFORM:
            return _transform_desc(spec.transform, d)
        if k is UnaryKind.REPLICATE_COLS:
            if spec.times is None or spec.times < 1:
                raise InvalidSpecError("flag", "REPLICATE_COLS needs times >= 1")
            return TensorDesc(d.rows, spec.times, d.rows, d.dtype)
        if k is UnaryKind.QUANTIZE:
            if d.dtype is not DType.FP32:
                raise InvalidSpecError("dtype", "QUANTIZE takes FP32")
            return TensorDesc(d.rows, d.cols, d.rows, DType.INT8)
        if k is UnaryKind.DEQUANTIZE:
            if d.dtype is not DType.INT8:
                raise InvalidSpecError("dtype", "DEQUANTIZE takes INT8")
            return TensorDesc(d.rows, d.cols, d.rows, DType.FP32)
        if k is UnaryKind.UNPACK:
            if d.dtype is not DType.FP32:
                raise InvalidSpecError("dtype", "UNPACK takes FP32")
            return TensorDesc(d.rows, d.cols, d.rows, DType.BF16)
        if k in (UnaryKind.DROPOUT, UnaryKind.DROPOUT_INV) and spec.dropout_p is None:
            raise InvalidSpecError("flag", f"{k.name} needs p")
        if k is UnaryKind.DROPOUT and not 0.0 <= spec.dropout_p < 1.0:
            raise InvalidSpecError("flag", f"dropout p must be in [0, 1), got {spec.dropout_p}")
        if k in (UnaryKind.ZERO, UnaryKind.PRNG):
            raise InvalidSpecError("flag", f"{k.name} takes its extent from out: use apply_unary")
        return TensorDesc(d.rows, d.cols, d.rows, d.dtype)
    if isinstance(k, BinaryKind):
        if len(ins) != 2:
            raise InvalidSpecError("shape", "binary spec takes two input descs")
        a, b = ins
        if k is BinaryKind.MATMUL:
            if a.cols != b.rows:
                raise InvalidSpecError("shape", f"matmul inner dims {a.cols} != {b.rows}")
            if b.dtype is not a.dtype:
                raise InvalidSpecError("dtype", f"matmul B is {b.dtype}, A is {a.dtype}")
            return TensorDesc(a.rows, b.cols, a.rows, contraction.accumulator_dtype(a.dtype))
        if k is BinaryKind.PACK:
            if a.dtype.bits != 16 or b.dtype.bits != 16:
                raise InvalidSpecError("dtype", "PACK inputs are 16-bit pattern tensors")
            if (a.rows, a.cols) != (b.rows, b.cols):
                raise InvalidSpecError("shape", "PACK hi/lo shape mismatch")
            return TensorDesc(a.rows, a.cols, a.rows, DType.FP32)
        rows, cols = _join_shapes([(a.rows, a.cols), (b.rows, b.cols)])
        if k is BinaryKind.COMPARE:
            if spec.cmp is None:
                raise InvalidSpecError("flag", "COMPARE needs a predicate")
            return TensorDesc(rows, cols, rows, DType.BIT)
        if a.dtype.is_float != b.dtype.is_float:
            raise InvalidSpecError("dtype", "mixed int/float elementwise inputs")
        out_dt = DType.FP64 if DType.FP64 in (a.dtype, b.dtype) else (
            a.dtype if a.dtype == b.dtype else
            (DType.FP32 if a.dtype.is_float else DType.INT32))
        return TensorDesc(rows, cols, rows, out_dt)
    if isinstance(k, TernaryKind):
        if len(ins) != 3:
            raise InvalidSpecError("shape", "ternary spec takes three input descs")
        a, b, c = ins
        if k is TernaryKind.GEMM:
            if a.cols != b.rows or (c.rows, c.cols) != (a.rows, b.cols):
                raise InvalidSpecError("shape", "GEMM operand shapes inconsistent")
            acc = contraction.accumulator_dtype(a.dtype)
            if b.dtype is not a.dtype or c.dtype is not acc:
                raise InvalidSpecError("dtype", f"GEMM takes B of {a.dtype} and C of {acc}, "
                                                f"got {b.dtype} and {c.dtype}")
            return TensorDesc(c.rows, c.cols, c.rows, c.dtype)
        rows, cols = _join_shapes([(a.rows, a.cols), (b.rows, b.cols), (c.rows, c.cols)])
        if k is TernaryKind.BLEND:
            if c.dtype is not DType.BIT:
                raise InvalidSpecError("dtype", "BLEND selector must be a bitmask")
            return TensorDesc(rows, cols, rows,
                              DType.FP64 if DType.FP64 in (a.dtype, b.dtype) else DType.FP32
                              if a.dtype.is_float else DType.INT32)
        out_dt = DType.FP64 if DType.FP64 in (a.dtype, b.dtype, c.dtype) else (
            DType.FP32 if a.dtype.is_float else DType.INT32)
        return TensorDesc(rows, cols, rows, out_dt)
    raise InvalidSpecError("flag", f"unknown kind {k}")


def _transform_desc(t: TransformSpec | None, d: TensorDesc) -> TensorDesc:
    """The output of :func:`transform`; VNNI_TO_VNNIT takes the VNNI view of
    a ``rows`` x ``cols`` tensor to that of its transpose."""
    if t is None:
        raise InvalidSpecError("flag", "TRANSFORM needs a TransformSpec")
    if t.kind is TransformKind.TRANSPOSE:
        return TensorDesc(d.cols, d.rows, d.cols, d.dtype)
    if t.kind is TransformKind.VNNI:
        _check_alpha(d.dtype, t.alpha)
        rows, groups = d.rows * t.alpha, -(-d.cols // t.alpha)
    elif t.kind is TransformKind.VNNI_TO_VNNIT:
        _check_alpha(d.dtype, t.alpha)
        _check_alpha(d.dtype, t.alpha_out)
        if t.rows <= 0 or t.cols <= 0:
            raise InvalidSpecError("shape", "VNNI_TO_VNNIT needs the logical extent")
        if (d.rows, d.cols) != (t.rows * t.alpha, -(-t.cols // t.alpha)):
            raise InvalidSpecError("shape", "VNNI_TO_VNNIT input does not match the extent")
        rows, groups = t.cols * t.alpha_out, -(-t.rows // t.alpha_out)
    else:
        raise InvalidSpecError("flag", f"unknown transform {t.kind}")
    return TensorDesc(rows, groups, rows, d.dtype)


def _check_alpha(dtype: DType, alpha: int) -> None:
    try:
        want = vnni_alpha(dtype)
    except TensorError as e:
        raise InvalidSpecError("dtype", str(e)) from None
    if alpha != want:
        raise InvalidSpecError("flag", f"alpha {alpha} incompatible with {dtype} (want {want})")


class Kernel:
    """An immutable, dispatched primitive instance: its spec was validated
    and its kind's implementation bound when it was built.

    A call checks only that each operand has the extent and dtype of the
    spec and ``out`` the output extent; ``out``'s dtype is free (the store
    narrows to it) except where the kind writes raw storage: a bitmask
    (COMPARE), BF16 patterns (UNPACK) or a layout copy (TRANSFORM).  The
    call enters through the public function of its family
    (``apply_unary``, ``apply_binary``, ``apply_ternary``), which finds the
    kernel of the operands' descriptors in the dispatch cache, so a plan
    step and a direct call take the same path and neither re-validates.

    ``math`` is the kind's bound ndarray function for the fusable kinds
    (compute-dtype arrays in, compute-dtype array out, flags applied), the
    same math the call runs; the tiled equation strategies run it on numpy
    slices of each tile.  It is None for every other kind."""

    __slots__ = ("spec", "out_desc", "math", "_ins", "_impl")

    def __init__(self, spec: KernelSpec):
        self.spec = spec
        self.out_desc = infer_output_desc(spec)
        self._ins = tuple((d.rows, d.cols, d.dtype) for d in spec.ins)
        k = spec.kind
        self.math: Optional[Callable[..., np.ndarray]] = None
        if k in UNARY_MATH and not (k is UnaryKind.RELU and spec.bitmask_output):
            fn, sel = UNARY_MATH[k], spec.approx or APPROX_SELECTORS.get(k, (None,))[0]
            self.math = lambda x: fn(x, sel)
        elif k in BINARY_MATH:
            self.math = BINARY_MATH[k]
        elif k in TERNARY_MATH:
            self.math = TERNARY_MATH[k]
        self._impl = (functools.partial(_elementwise, self.math) if self.math is not None
                      else functools.partial(_IMPL[k], spec))

    def __call__(self, *views: TensorView, out: TensorView) -> None:
        got = tuple([(v.desc.rows, v.desc.cols, v.desc.dtype) for v in views])
        if got != self._ins:
            raise TensorError(f"{self.spec.kind} kernel takes {self._ins}, got {got}")
        s = self.spec
        k = s.kind
        if isinstance(k, UnaryKind):
            apply_unary(k, views[0], out, approx_flag=s.approx, reduce_spec=s.reduce,
                        transform_spec=s.transform, bitmask_output=s.bitmask_output,
                        dropout_p=s.dropout_p, times=s.times)
        elif isinstance(k, BinaryKind):
            apply_binary(k, views[0], views[1], out, cmp=s.cmp)
        else:
            apply_ternary(k, views[0], views[1], views[2], out)

    def _run(self, views: tuple[TensorView, ...], out: TensorView) -> None:
        od = self.out_desc
        if (out.desc.rows, out.desc.cols) != (od.rows, od.cols):
            raise TensorError(f"{self.spec.kind} output: expected {od.rows}x{od.cols}, "
                              f"got {out.desc.rows}x{out.desc.cols}")
        if out.desc.bcast is not Bcast.NONE:
            raise TensorError(f"{self.spec.kind} output must not be a broadcast view")
        self._impl(*views, out)


DISPATCH_CACHE_SIZE = 1024  # kernels kept; the least recently dispatched is dropped first


@functools.lru_cache(maxsize=DISPATCH_CACHE_SIZE)
def dispatch(spec: KernelSpec) -> Kernel:
    """Validate a spec and return the (cached) kernel for it; a bad spec
    raises InvalidSpecError and is not cached."""
    return Kernel(spec)


# ---------------------------------------------------------------------------
# entry points: describe the call, dispatch it, run the kernel
# ---------------------------------------------------------------------------

def apply_unary(kind: UnaryKind, inp: Optional[TensorView], out: TensorView,
                approx_flag: Approx | None = None,
                reduce_spec: ReduceSpec | None = None,
                transform_spec: TransformSpec | None = None,
                bitmask_output: bool = False,
                dropout_p: float | None = None,
                times: int | None = None) -> None:
    """Apply a unary operator; elementwise kinds require matching logical
    shapes (broadcast allowed on the input only).  ZERO and PRNG take their
    extent from ``out``, not from an input, so they run without dispatch."""
    if kind is UnaryKind.ZERO:
        out.as2d()[:, :] = 0
        return
    if inp is None:
        raise TensorError(f"{kind} requires an input view")
    if kind is UnaryKind.PRNG:
        _prng_fill(inp, out)
        return
    if kind is UnaryKind.REPLICATE_COLS and times is None:
        times = out.desc.cols
    dispatch(KernelSpec(kind, (inp.desc,), approx=approx_flag, reduce=reduce_spec,
                        transform=transform_spec, bitmask_output=bitmask_output,
                        dropout_p=dropout_p, times=times))._run((inp,), out)


def reduce(inp: TensorView, spec: ReduceSpec, out: TensorView) -> None:
    """Reduce rows / columns / everything with a fixed ascending index order.

    Accumulation happens in FP32 (FP64 for FP64 inputs) regardless of the
    storage dtype.  SUM starts from 0, MUL from 1; MIN/MAX fold from the
    first element along the order.  A C kernel runs the fold when the
    library is built (``reduce_backend()``), the numpy fold otherwise, with
    the same bits.
    """
    dispatch(KernelSpec(UnaryKind.REDUCE, (inp.desc,), reduce=spec))._run((inp,), out)


def transform(inp: TensorView, spec: TransformSpec, out: TensorView) -> None:
    """Transpose, VNNI formatting, or VNNI to VNNI-transpose.

    VNNI re-lays a logical M x N tensor (linear layout ``[N][M]``) as
    ``[N/alpha][M][alpha]``: groups of ``alpha`` consecutive columns become
    the innermost dimension, the tail group zero-padded.  The resulting view
    is (M * alpha) x ceil(N / alpha) with a contiguous leading dimension.
    ``out`` holds the input's dtype (a layout copy does not convert).
    """
    dispatch(KernelSpec(UnaryKind.TRANSFORM, (inp.desc,), transform=spec))._run((inp,), out)


def replicate_cols(inp: TensorView, times: int, out: TensorView) -> None:
    """Replicate an M x 1 column a fixed number of times."""
    dispatch(KernelSpec(UnaryKind.REPLICATE_COLS, (inp.desc,), times=times))._run((inp,), out)


def apply_binary(kind: BinaryKind, a: TensorView, b: TensorView, out: TensorView,
                 cmp: CmpOp | None = None) -> None:
    dispatch(KernelSpec(kind, (a.desc, b.desc), cmp=cmp))._run((a, b), out)


def apply_ternary(kind: TernaryKind, a: TensorView, b: TensorView, c: TensorView,
                  out: TensorView) -> None:
    dispatch(KernelSpec(kind, (a.desc, b.desc, c.desc)))._run((a, b, c), out)


# ---------------------------------------------------------------------------
# kernel implementations: the spec is valid and the extents match; only
# runtime payloads (companions, PRNG state, scales) and output storage are
# checked here
# ---------------------------------------------------------------------------

def _elementwise(math: Callable[..., np.ndarray], *operands: TensorView) -> None:
    """Run a fusable kind's bound math; the last operand is the output."""
    *views, out = operands
    with np.errstate(all="ignore"):
        r = math(*[_compute_values(v) for v in views])
    _store(out, r)


def _relu_with_mask(spec: KernelSpec, inp: TensorView, out: TensorView) -> None:
    x = _compute_values(inp)
    with np.errstate(all="ignore"):
        r = UNARY_MATH[UnaryKind.RELU](x, None)
        out.secondary = bool_to_mask(x > 0)
    _store(out, r)


def _relu_inv(spec: KernelSpec, inp: TensorView, out: TensorView) -> None:
    mask = _mask_from(inp, "RELU_INV")
    x = _compute_values(inp)
    _store(out, np.where(mask, x, x.dtype.type(0)))


_ACTIVATION_GRAD = {UnaryKind.TANH_INV: lambda x, sel: approx.tanh_grad(x, sel),
                    UnaryKind.SIGMOID_INV: lambda x, sel: approx.sigmoid_grad(x, sel),
                    UnaryKind.GELU_INV: lambda x, sel: approx.gelu_grad(x, sel)}


def _activation_grad(spec: KernelSpec, inp: TensorView, out: TensorView) -> None:
    """dy * f'(x): dy in primary, the forward input x in secondary."""
    if inp.secondary is None:
        raise TensorError("backward kind requires the forward input in secondary")
    x = _compute_values(TensorView(inp.desc, np.asarray(inp.secondary)))
    sel = spec.approx or APPROX_SELECTORS[spec.kind][0]
    with np.errstate(all="ignore"):
        r = _compute_values(inp) * _ACTIVATION_GRAD[spec.kind](x, sel)
    _store(out, r)


def _unpack(spec: KernelSpec, inp: TensorView, out: TensorView) -> None:
    """FP32 -> two 16-bit halves: hi into out.primary (BF16 patterns), lo into
    out.secondary."""
    if out.desc.dtype is not DType.BF16:
        raise InvalidSpecError("dtype", "UNPACK output holds BF16 (hi) patterns")
    hi, lo = split_fp32_bits(inp.as2d())
    out.as2d()[:, :] = hi
    if out.secondary is None or out.secondary.size < lo.size:
        out.secondary = np.empty(inp.desc.rows * inp.desc.cols, dtype=np.uint16)
    out.secondary.reshape(inp.desc.cols, inp.desc.rows).T[:, :] = lo


def _prng_fill(inp: TensorView, out: TensorView) -> None:
    if out.desc.dtype is not DType.FP32:
        raise InvalidSpecError("dtype", "PRNG output must be FP32")
    state = (inp.tertiary or {}).get("prng")
    if state is None:
        raise InvalidSpecError("flag", "PRNG needs a PrngState in tertiary")
    if state.x.size != out.desc.cols:
        state = PrngState(state.seed, out.desc.cols)
    out.as2d()[:, :] = state.uniform_block(out.desc.rows)


def _dropout(spec: KernelSpec, inp: TensorView, out: TensorView) -> None:
    state = (inp.tertiary or {}).get("prng")
    if state is None:
        raise InvalidSpecError("flag", "DROPOUT needs a PrngState in tertiary")
    if state.x.size != inp.desc.cols:
        state = PrngState(state.seed, inp.desc.cols)
    p = spec.dropout_p
    keep = state.uniform_block(inp.desc.rows) >= np.float32(p)
    out.secondary = bool_to_mask(keep)
    x = _compute_values(inp)
    with np.errstate(all="ignore"):
        r = np.where(keep, x * x.dtype.type(1.0 / (1.0 - p)), x.dtype.type(0))
    _store(out, r)


def _dropout_inv(spec: KernelSpec, inp: TensorView, out: TensorView) -> None:
    mask = _mask_from(inp, "DROPOUT_INV")
    x = _compute_values(inp)
    p = spec.dropout_p
    scale = x.dtype.type(1.0 / (1.0 - p)) if p < 1.0 else x.dtype.type(0)
    with np.errstate(all="ignore"):
        r = np.where(mask, x * scale, x.dtype.type(0))
    _store(out, r)


def _quantize(spec: KernelSpec, inp: TensorView, out: TensorView) -> None:
    """Symmetric per-tensor INT8 quantization; the scale lands in
    out.tertiary['scale']."""
    x = _compute_values(inp).astype(np.float64)
    scale = (inp.tertiary or {}).get("scale")
    if scale is None:
        amax = float(np.max(np.abs(x))) if x.size else 0.0
        scale = amax / 127.0 if amax > 0 else 1.0
    _store(out, np.clip(np.rint(x / scale), -127, 127).astype(np.int8))
    out.tertiary = dict(out.tertiary or {})
    out.tertiary["scale"] = float(scale)


def _dequantize(spec: KernelSpec, inp: TensorView, out: TensorView) -> None:
    scale = (inp.tertiary or {}).get("scale")
    if scale is None:
        raise InvalidSpecError("flag", "DEQUANTIZE needs tertiary['scale']")
    _store(out, _compute_values(inp).astype(np.float32) * np.float32(scale))


_REDUCE_COMBINE = {
    ReduceOp.SUM: np.add,
    ReduceOp.MUL: np.multiply,
    ReduceOp.MIN: np.minimum,
    ReduceOp.MAX: np.maximum,
}
# the codes ``native.c`` gives each axis and op
_REDUCE_AXIS_CODE = {ReduceAxis.ROWS: 0, ReduceAxis.COLS: 1, ReduceAxis.ALL: 2}
_REDUCE_OP_CODE = {ReduceOp.SUM: 0, ReduceOp.MUL: 1, ReduceOp.MIN: 2, ReduceOp.MAX: 3}
_REDUCE_KERNEL = {np.dtype(np.float32): "reduce_f32", np.dtype(np.float64): "reduce_f64"}


def reduce_backend() -> str:
    """``"native"`` when reductions run the C kernels, ``"numpy"`` when they
    run the numpy fold (no compiler, a fault, or the test-only switch)."""
    if _FAULT_DESCENDING_REDUCE:
        return "numpy"
    return "native" if native.library() is not None else "numpy"


def _reduce(spec: KernelSpec, inp: TensorView, out: TensorView) -> None:
    """Fold in FP32 (FP64 for FP64 inputs) in the pinned order.

    BF16 and integer inputs widen here and run as FP32.  The C kernel
    (``native.c``) and the numpy fold give the same bits; a result that
    holds a NaN is recomputed on the numpy fold, as ``contraction.brgemm``
    does, because the compiler may swap the operands of ``+`` and ``*``,
    which decides which payload survives where two NaNs meet."""
    rs, d = spec.reduce, inp.desc
    acc_dt = np.float64 if d.dtype is DType.FP64 else np.float32
    x = _compute_values(inp).astype(acc_dt, copy=False)
    if reduce_backend() == "numpy" or np.isnan(r := _reduce_native(rs, x)).any():
        r = _reduce_numpy(rs, x)
    _store(out, r)


def _reduce_native(rs: ReduceSpec, x: np.ndarray) -> np.ndarray:
    """The C fold of ``x``, read in place when its rows are contiguous
    (a padded ``ld`` or a COL broadcast is), else from a column-major copy."""
    rows, cols = x.shape
    step = x.itemsize
    if (rows > 1 and x.strides[0] != step) or not x.flags.aligned:
        x = np.asfortranarray(x)
    r = np.empty((rows if rs.axis is ReduceAxis.ROWS else 1,
                  cols if rs.axis is ReduceAxis.COLS else 1), x.dtype)
    native.kernel(_REDUCE_KERNEL[x.dtype])(
        rows, cols, x.ctypes.data, x.strides[1] // step, _REDUCE_AXIS_CODE[rs.axis],
        _REDUCE_OP_CODE[rs.op], rs.squared, r.ctypes.data)
    return r


def _reduce_numpy(rs: ReduceSpec, x: np.ndarray) -> np.ndarray:
    """The reference fold: one numpy call per column (ROWS) or row (COLS and
    the row stage of ALL); reversed under the ``reduce-order`` fault."""
    rows, cols = x.shape
    comb = _REDUCE_COMBINE[rs.op]

    def fold(slices: list[np.ndarray]) -> np.ndarray:
        order = list(reversed(slices)) if _FAULT_DESCENDING_REDUCE else slices
        if rs.op is ReduceOp.SUM:
            acc = np.zeros_like(order[0])
        elif rs.op is ReduceOp.MUL:
            acc = np.ones_like(order[0])
        else:
            acc = order[0].copy()
            order = order[1:]
        for s in order:
            acc = comb(acc, s)
        return acc

    with np.errstate(all="ignore"):
        if rs.squared:
            x = x * x
        if rs.axis is ReduceAxis.ROWS:
            return fold([x[:, j] for j in range(cols)]).reshape(rows, 1)
        per_col = fold([x[i, :] for i in range(rows)])
        if rs.axis is ReduceAxis.COLS:
            return per_col.reshape(1, cols)
        # the column partials fold in one ``accumulate`` call, from 0 (SUM)
        # or 1 (MUL), or from the first partial (MIN, MAX); ``accumulate`` is
        # sequential by definition, ``ufunc.reduce`` may sum pairwise
        if _FAULT_DESCENDING_REDUCE:
            per_col = per_col[::-1]
        if rs.op is ReduceOp.SUM:
            per_col = np.concatenate([np.zeros(1, x.dtype), per_col])
        elif rs.op is ReduceOp.MUL:
            per_col = np.concatenate([np.ones(1, x.dtype), per_col])
        return comb.accumulate(per_col)[-1:].reshape(1, 1)


def _transform(spec: KernelSpec, inp: TensorView, out: TensorView) -> None:
    if out.desc.dtype is not inp.desc.dtype:
        raise InvalidSpecError("dtype", f"a transform copies {inp.desc.dtype} storage, "
                                        f"the output is {out.desc.dtype}")
    t = spec.transform
    if t.kind is TransformKind.TRANSPOSE:
        out.as2d()[:, :] = inp.logical2d().T
        return
    a = inp.logical2d()
    if t.kind is TransformKind.VNNI_TO_VNNIT:
        flat = a.T.reshape(-1)  # column-major order of the VNNI view
        a = vnni_unpack_a(flat, t.alpha, t.rows, t.cols).T
    alpha = t.alpha if t.kind is TransformKind.VNNI else t.alpha_out
    # the column-major order of ``out`` is the VNNI layout
    out.as2d()[:, :] = vnni_pack_a(a, alpha).reshape(out.desc.cols, out.desc.rows).T


def _replicate_cols(spec: KernelSpec, inp: TensorView, out: TensorView) -> None:
    if inp.desc.phys_cols != 1:
        raise TensorError("replicate_cols input must be M x 1")
    _store(out, np.repeat(_compute_values(inp)[:, :1], spec.times, axis=1))


def _pack(spec: KernelSpec, hi: TensorView, lo: TensorView, out: TensorView) -> None:
    _store(out, pack_fp32_bits(hi.as2d(), lo.as2d()))


def _compare(spec: KernelSpec, a: TensorView, b: TensorView, out: TensorView) -> None:
    if out.desc.dtype is not DType.BIT:
        raise InvalidSpecError("dtype", "COMPARE output is a bitmask")
    bits = _CMP_PREDICATE[spec.cmp](_compute_values(a), _compute_values(b))
    out.primary[:] = bool_to_mask(bits)


def _gemm(spec: KernelSpec, a: TensorView, b: TensorView, c: TensorView,
          out: TensorView) -> None:
    # out = C + A x B; ``out`` must not alias A or B
    out.as2d()[:, :] = c.logical2d()
    contraction.gemm(contraction.spec_for_views(a, b, out, beta=1.0), a, b, out)


def _blend(spec: KernelSpec, a: TensorView, b: TensorView, c: TensorView,
           out: TensorView) -> None:
    mask = mask_to_bool(c.primary, c.desc.rows, c.desc.cols)
    _store(out, np.where(mask, _compute_values(a), _compute_values(b)))


# the implementation of every kind without bound math (RELU: with a bitmask)
_IMPL: dict[UnaryKind | BinaryKind | TernaryKind, Callable[..., None]] = {
    UnaryKind.RELU: _relu_with_mask,
    UnaryKind.RELU_INV: _relu_inv,
    UnaryKind.TANH_INV: _activation_grad,
    UnaryKind.SIGMOID_INV: _activation_grad,
    UnaryKind.GELU_INV: _activation_grad,
    UnaryKind.DROPOUT: _dropout,
    UnaryKind.DROPOUT_INV: _dropout_inv,
    UnaryKind.QUANTIZE: _quantize,
    UnaryKind.DEQUANTIZE: _dequantize,
    UnaryKind.UNPACK: _unpack,
    UnaryKind.REDUCE: _reduce,
    UnaryKind.TRANSFORM: _transform,
    UnaryKind.REPLICATE_COLS: _replicate_cols,
    BinaryKind.MATMUL: lambda spec, a, b, out: contraction.matmul(a, b, out),
    BinaryKind.PACK: _pack,
    BinaryKind.COMPARE: _compare,
    TernaryKind.GEMM: _gemm,
    TernaryKind.BLEND: _blend,
}


# ---------------------------------------------------------------------------
# layout helpers outside dispatch
# ---------------------------------------------------------------------------

def shuffle_network_transpose(inp: TensorView, out: TensorView) -> None:
    """Transpose a square 2^k x 2^k 32-bit tile with k interleave stages.

    Each register holds one column.  Per stage the interleave width doubles
    and register pairs sit at doubling distances; after log2(n) stages
    register j holds row j of the input.
    """
    d = inp.desc
    n = d.rows
    if d.cols != n or n & (n - 1) or not 4 <= n <= 16:
        raise TensorError("shuffle transpose needs a 4/8/16 square tile")
    if d.dtype.bits != 32:
        raise InvalidSpecError("dtype", "shuffle transpose is specified for 32-bit elements")
    _require_logical_shape(out, n, n, "shuffle transpose output")

    regs = [inp.as2d()[:, j].copy() for j in range(n)]
    stages = n.bit_length() - 1
    for s in range(stages):
        w = 1 << s
        nxt = [None] * n
        for base in range(0, n, 2 * w):
            for j in range(w):
                u, v = regs[base + j], regs[base + j + w]
                nxt[base + 2 * j] = _interleave(u, v, w, lo=True)
                nxt[base + 2 * j + 1] = _interleave(u, v, w, lo=False)
        regs = nxt
    o = out.as2d()
    for j in range(n):
        o[:, j] = regs[j]


def _interleave(u: np.ndarray, v: np.ndarray, w: int, lo: bool) -> np.ndarray:
    """unpacklo/unpackhi at chunk width w: alternate w-wide chunks of u and v
    drawn from the low (or high) half."""
    n = u.size
    cu = u.reshape(n // w, w)
    cv = v.reshape(n // w, w)
    half = n // (2 * w)
    sel = slice(0, half) if lo else slice(half, None)
    mixed = np.stack([cu[sel], cv[sel]], axis=1)  # (half, 2, w)
    return mixed.reshape(n)


# ---------------------------------------------------------------------------
# gather / scatter
# ---------------------------------------------------------------------------

def gather_scatter(inp: TensorView, indices, mode: GatherMode, out: TensorView) -> None:
    """Gather/scatter rows, columns or (row, col) elements.

    Index bounds are validated before any write.  Gathers are pure copies,
    one fancy-index assignment each.  Scatters apply in ascending source
    order, so duplicate targets are deterministic last-writer-wins; they stay
    loops because numpy leaves unspecified which write wins when one
    fancy-index assignment repeats a target.  ``inp`` is read through its
    logical (broadcast) window; a broadcast ``out`` raises TensorError.
    """
    if indices is None:
        raise InvalidSpecError("flag", f"{mode} requires an index companion")
    if out.desc.bcast is not Bcast.NONE:
        raise TensorError(f"{mode} cannot write a broadcast output")
    idx = np.asarray(indices)
    src = inp.logical2d()
    dst = out.as2d()

    if mode in (GatherMode.GATHER2D, GatherMode.SCATTER2D):
        if idx.ndim != 2 or idx.shape[1] != 2:
            raise InvalidSpecError("shape", "2D modes need (k, 2) offset pairs")
        ref = src if mode is GatherMode.GATHER2D else dst
        if np.any(idx[:, 0] < 0) or np.any(idx[:, 0] >= ref.shape[0]) \
                or np.any(idx[:, 1] < 0) or np.any(idx[:, 1] >= ref.shape[1]):
            raise IndexError("2D offset out of bounds")
        k = idx.shape[0]
        if mode is GatherMode.GATHER2D:
            _require_logical_shape(out, k, 1, "GATHER2D output")
            dst[:, 0] = src[idx[:, 0], idx[:, 1]]
        else:
            _require_logical_shape(inp, k, 1, "SCATTER2D input")
            for t in range(k):
                dst[idx[t, 0], idx[t, 1]] = src[t, 0]
        return

    if idx.ndim != 1:
        raise InvalidSpecError("shape", "row/col modes need a flat index list")
    k = idx.size
    axis_len = {
        GatherMode.GATHER_ROWS: src.shape[0], GatherMode.GATHER_COLS: src.shape[1],
        GatherMode.SCATTER_ROWS: dst.shape[0], GatherMode.SCATTER_COLS: dst.shape[1],
    }[mode]
    if k and (idx.min() < 0 or idx.max() >= axis_len):
        raise IndexError(f"{mode} index out of bounds")

    if mode is GatherMode.GATHER_COLS:
        _require_logical_shape(out, src.shape[0], k, "GATHER_COLS output")
        dst[:, :] = src[:, idx]
    elif mode is GatherMode.GATHER_ROWS:
        _require_logical_shape(out, k, src.shape[1], "GATHER_ROWS output")
        dst[:, :] = src[idx, :]
    elif mode is GatherMode.SCATTER_COLS:
        _require_logical_shape(inp, dst.shape[0], k, "SCATTER_COLS input")
        for t in range(k):
            dst[:, idx[t]] = src[:, t]
    else:
        _require_logical_shape(inp, k, dst.shape[1], "SCATTER_ROWS input")
        for t in range(k):
            dst[idx[t], :] = src[t, :]


def affine_offsets(rows: int, cols: int, row_stride: int, col_stride: int,
                   base_row: int = 0, base_col: int = 0) -> np.ndarray:
    """(rows * cols, 2) offset pairs for strided element access, column-major
    element order."""
    jj, ii = np.meshgrid(np.arange(cols), np.arange(rows))
    r = (base_row + ii * row_stride).T.reshape(-1)
    c = (base_col + jj * col_stride).T.reshape(-1)
    return np.stack([r, c], axis=1)


def _check_offsets(offs: np.ndarray, shape: tuple[int, int], what: str) -> None:
    """Every offset pair inside ``shape``; a negative offset would wrap."""
    if np.any(offs < 0) or np.any(offs[:, 0] >= shape[0]) or np.any(offs[:, 1] >= shape[1]):
        raise IndexError(f"strided {what} out of bounds")


def strided_load(inp: TensorView, out: TensorView, row_stride: int, col_stride: int,
                 base_row: int = 0, base_col: int = 0) -> None:
    """Strided 2D load: out[i, j] = in[base_row + i*row_stride, base_col + j*col_stride].
    A stride of 0 reads one element many times (a broadcast read)."""
    offs = affine_offsets(out.desc.rows, out.desc.cols, row_stride, col_stride,
                          base_row, base_col)
    src = inp.as2d()
    _check_offsets(offs, src.shape, "load")
    dst = out.as2d()
    dst[:, :] = src[offs[:, 0], offs[:, 1]].reshape(out.desc.cols, out.desc.rows).T


def strided_store(inp: TensorView, out: TensorView, row_stride: int, col_stride: int,
                  base_row: int = 0, base_col: int = 0) -> None:
    """Strided 2D store: out[base_row + i*row_stride, base_col + j*col_stride] = in[i, j].

    A stride of 0 along an extent above 1 would send several elements to one
    location, where numpy leaves the winner unspecified: TensorError."""
    if (row_stride == 0 and inp.desc.rows > 1) or (col_stride == 0 and inp.desc.cols > 1):
        raise TensorError("strided store with stride 0 writes several elements to one place")
    offs = affine_offsets(inp.desc.rows, inp.desc.cols, row_stride, col_stride,
                          base_row, base_col)
    dst = out.as2d()
    _check_offsets(offs, dst.shape, "store")
    src = inp.as2d()
    dst[offs[:, 0], offs[:, 1]] = src.T.reshape(-1)


