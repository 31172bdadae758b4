"""The 2D tensor operator set: unary / binary / ternary kinds, dispatch,
reductions, layout transforms, gather/scatter and deterministic dropout.

A primitive is described once (``KernelSpec``: kind, input descriptors,
flags) and validated once: ``infer_output_desc`` is the only check of a
spec, and one cache, keyed by the plain tuple of a spec's fields
(``kernel_for``), holds the ``Kernel`` built from it, which then runs
without re-checking.  ``dispatch``, the equation ``TreeBuilder``,
``apply_*``, ``reduce``, ``transform`` and ``replicate_cols`` all look
kernels up there; the entry points run the kernel of their views'
descriptors, and a kernel called from a plan step enters through the one of
them that runs its kind, so every primitive call takes this one path.  ZERO
and PRNG, whose extent is the output's, run directly.

Every operator follows the same blueprint: load logical sub-tensors (with
broadcast and datatype widening applied), run the point operation in the
compute precision, store once (narrowing to the output's dtype).
Reductions use a fixed, ascending accumulation order so results are
bit-reproducible.  The reductions (an indexed ROWS reduce too), the
xorshift streams, FP32 DROPOUT, PACK, UNPACK and the in-place split SGD
step (``split_sgd``) run C kernels (``native.c``) wherever ``native.run``
accepts their operands; their numpy code (for ``split_sgd``, the caller's
PACK, NMULADD and UNPACK) is the reference path and gives the same bits.
A direct MULADD or NMULADD runs numpy, as ADD and MUL do; C runs them
only as steps of an equation's plan program (``native.program``).
Every call runs on the caller's thread; blocking and threads belong to the
caller's loop nest.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
from typing import Callable, Optional

import numpy as np

from . import approx, contraction, native
from .approx import Approx
from .dtypes import DType, IdentityEnum, narrow, pack_fp32_bits, split_fp32_bits, widen
from .tensor import (
    Bcast,
    SplitTensor,
    TensorDesc,
    TensorError,
    TensorView,
    bool_to_mask,
    mask_to_bool,
    vnni_alpha,
    vnni_extent,
    vnni_pack_a,
    vnni_unpack_a,
)


class UnaryKind(IdentityEnum):
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


class BinaryKind(IdentityEnum):
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MAX = "max"
    MIN = "min"
    MATMUL = "matmul"
    PACK = "pack"
    COMPARE = "compare"


class TernaryKind(IdentityEnum):
    GEMM = "gemm"
    MULADD = "muladd"
    NMULADD = "nmuladd"
    BLEND = "blend"


class CmpOp(IdentityEnum):
    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"


class ReduceAxis(IdentityEnum):
    ROWS = "rows"  # output M x 1: each row reduced across its columns
    COLS = "cols"  # output 1 x N: each column reduced across its rows
    ALL = "all"    # output 1 x 1


class ReduceOp(IdentityEnum):
    SUM = "sum"
    MUL = "mul"
    MIN = "min"
    MAX = "max"


@dataclass(frozen=True)
class ReduceSpec:
    axis: ReduceAxis
    op: ReduceOp
    squared: bool = False


class TransformKind(IdentityEnum):
    TRANSPOSE = "transpose"
    VNNI = "vnni"
    VNNI_TO_VNNIT = "vnni_to_vnnit"
    RESHAPE = "reshape"     # the column-major order of the values at rows x cols


@dataclass(frozen=True)
class TransformSpec:
    kind: TransformKind
    alpha: int = 0          # VNNI inner group size (2 for 16-bit, 4 for 8-bit)
    alpha_out: int = 0      # output group size for VNNI_TO_VNNIT
    rows: int = 0           # logical pre-VNNI extent, needed by VNNI_TO_VNNIT;
    cols: int = 0           # the output extent of RESHAPE


class GatherMode(IdentityEnum):
    GATHER_ROWS = "gather_rows"
    GATHER_COLS = "gather_cols"
    SCATTER_ROWS = "scatter_rows"
    SCATTER_COLS = "scatter_cols"
    GATHER2D = "gather2d"
    SCATTER2D = "scatter2d"


_TANH_SELECTORS = (Approx.PADE78, Approx.MINIMAX16, Approx.EXACT)
_GELU_SELECTORS = (Approx.MINIMAX16, Approx.EXACT)

# The approximation selectors each kind implements, its default (the one
# ``approx`` runs for None) first; dispatch rejects any other selector.
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
    """Marsaglia xorshift128 state: four 32-bit words per stream, the rows
    x, y, z, w of ``words`` (4 x streams, C-ordered, so that its transpose
    is the streams x 4 block, at ld streams, that the C kernel advances).

    Streams are seeded as ``seed XOR column-index`` expanded through
    splitmix64, so evaluation parallelised over columns stays deterministic.
    A stream is never all-zero.
    """

    def __init__(self, seed: int, ncols: int = 1):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        base = np.arange(ncols, dtype=np.uint64) ^ _U64(self.seed)
        a = _splitmix64(base)
        b = _splitmix64(a)
        low = _U64(0xFFFFFFFF)
        self.words = np.stack([a & low, a >> _U64(32), b & low, b >> _U64(32)]).astype(np.uint32)
        self.words[3, ~self.words.any(axis=0)] = 1
        self.x, self.y, self.z, self.w = self.words   # views, updated in place

    def step(self) -> np.ndarray:
        """Advance every stream once; returns one 32-bit word per stream."""
        t = self.x ^ (self.x << np.uint32(11))
        new_w = (self.w ^ (self.w >> np.uint32(19))) ^ (t ^ (t >> np.uint32(8)))
        self.words[:3] = self.words[1:]
        self.words[3] = new_w
        return new_w

    def uniform_block(self, rows: int) -> np.ndarray:
        """rows x ncols FP32 uniforms in [0, 1), row i from the i-th step:
        one call of the C kernel, or, without it, a loop of :meth:`step`;
        both leave the same state."""
        out = np.empty((rows, self.words.shape[1]), dtype=np.float32)
        # C sees both transposed: streams x 4 and streams x rows, at ld streams
        if native.run("xorshift_uniform", out.shape[1], rows, (), (self.words.T, out.T)):
            return out
        shared = native.fault == "prng-shared"
        for i in range(rows):
            w = self.step()
            if shared:
                w = w[:1]   # every column draws stream 0's word
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


def _check_out(out: TensorView, what: object, dtype: DType | None = None) -> None:
    """The output rule of every primitive: ``out`` is not a broadcast view
    (TensorError), and a primitive that writes storage as it is (a bitmask,
    BF16 patterns, FP32 uniforms, a layout copy) passes the ``dtype`` that
    storage has, which ``out`` must hold: InvalidSpecError('dtype')."""
    if out.desc.bcast is not Bcast.NONE:
        raise TensorError(f"{what} output must not be a broadcast view")
    if dtype is not None and out.desc.dtype is not dtype:
        raise InvalidSpecError("dtype", f"{what} writes {dtype} storage, "
                                        f"the output is {out.desc.dtype}")


def _require_logical_shape(v: TensorView, rows: int, cols: int, what: str) -> None:
    if (v.desc.rows, v.desc.cols) != (rows, cols):
        raise TensorError(f"{what}: expected {rows}x{cols}, got {v.desc.rows}x{v.desc.cols}")


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
    kind, flags, input shapes and input dtypes lives here; a BIT operand is
    'dtype' for every kind but as the selector of BLEND."""
    k, ins = spec.kind, spec.ins
    if spec.approx is not None and spec.approx not in APPROX_SELECTORS.get(k, ()):
        raise InvalidSpecError("flag", f"{k.name} does not implement {spec.approx}")
    for flag in _FLAGS:
        value = getattr(spec, flag)
        if value is not None and value is not False and flag not in KIND_FLAGS.get(k, ()):
            raise InvalidSpecError("flag", f"{k.name} does not read {flag}")
    if any(d.dtype is DType.BIT for d in (ins[:2] if k is TernaryKind.BLEND else ins)):
        raise InvalidSpecError("dtype", f"{k.name} takes no BIT operand (only a BLEND selector)")
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
            _plain_operands(k, ins)
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
        if k is BinaryKind.COMPARE and spec.cmp is None:
            raise InvalidSpecError("flag", "COMPARE needs a predicate")
        return _join(k, ins)
    if isinstance(k, TernaryKind):
        if len(ins) != 3:
            raise InvalidSpecError("shape", "ternary spec takes three input descs")
        a, b, c = ins
        if k is TernaryKind.GEMM:
            _plain_operands(k, ins)
            if a.cols != b.rows or (c.rows, c.cols) != (a.rows, b.cols):
                raise InvalidSpecError("shape", "GEMM operand shapes inconsistent")
            acc = contraction.accumulator_dtype(a.dtype)
            if b.dtype is not a.dtype or c.dtype is not acc:
                raise InvalidSpecError("dtype", f"GEMM takes B of {a.dtype} and C of {acc}, "
                                                f"got {b.dtype} and {c.dtype}")
            return TensorDesc(c.rows, c.cols, c.rows, c.dtype)
        return _join(k, ins)
    raise InvalidSpecError("flag", f"unknown kind {k}")


def _plain_operands(k: BinaryKind | TernaryKind, ins: tuple[TensorDesc, ...]) -> None:
    """A contraction reads each operand as a dense block: a broadcast view
    is InvalidSpecError('shape')."""
    if any(d.bcast is not Bcast.NONE for d in ins):
        raise InvalidSpecError("shape", f"{k.name} takes no broadcast operand")


def _join(k: BinaryKind | TernaryKind, ins: tuple[TensorDesc, ...]) -> TensorDesc:
    """The output of an elementwise binary or ternary kind.  Its shape joins
    every input's by broadcast (a BLEND selector's too).  Its dtype is BIT
    for COMPARE; otherwise it promotes the value operands (all but the BLEND
    selector, which must be a bitmask): FP64 if any is, else FP32 for floats
    and INT32 for integers, but a binary kind keeps a dtype both share.
    Integer and float value operands together are InvalidSpecError('dtype')."""
    rows, cols = max([d.rows for d in ins]), max([d.cols for d in ins])
    if any(d.rows not in (1, rows) or d.cols not in (1, cols) for d in ins):
        raise InvalidSpecError("shape", f"cannot broadcast-join {[(d.rows, d.cols) for d in ins]}")
    if k is BinaryKind.COMPARE:
        return TensorDesc(rows, cols, rows, DType.BIT)
    if k is TernaryKind.BLEND and ins[2].dtype is not DType.BIT:
        raise InvalidSpecError("dtype", "BLEND selector must be a bitmask")
    dtypes = {d.dtype for d in (ins[:2] if k is TernaryKind.BLEND else ins)}
    if len({dt.is_float for dt in dtypes}) > 1:
        raise InvalidSpecError("dtype", f"mixed int/float elementwise inputs to {k.name}")
    if DType.FP64 in dtypes:
        out = DType.FP64
    elif len(dtypes) == 1 and isinstance(k, BinaryKind):
        out = ins[0].dtype
    else:
        out = DType.FP32 if ins[0].dtype.is_float else DType.INT32
    return TensorDesc(rows, cols, rows, out)


def _transform_desc(t: TransformSpec | None, d: TensorDesc) -> TensorDesc:
    """The output of :func:`transform`; VNNI_TO_VNNIT takes the VNNI view of
    a ``rows`` x ``cols`` tensor to that of its transpose."""
    if t is None:
        raise InvalidSpecError("flag", "TRANSFORM needs a TransformSpec")
    if t.kind is TransformKind.TRANSPOSE:
        return TensorDesc(d.cols, d.rows, d.cols, d.dtype)
    if t.kind is TransformKind.RESHAPE:
        if min(t.rows, t.cols) < 1 or t.rows * t.cols != d.rows * d.cols:
            raise InvalidSpecError("shape", f"cannot reshape {d.rows}x{d.cols} "
                                            f"to {t.rows}x{t.cols}")
        return TensorDesc(t.rows, t.cols, t.rows, d.dtype)
    if t.kind is TransformKind.VNNI:
        _check_alpha(d.dtype, t.alpha)
        rows, groups = vnni_extent(d.rows, d.cols, t.alpha)
    elif t.kind is TransformKind.VNNI_TO_VNNIT:
        _check_alpha(d.dtype, t.alpha)
        _check_alpha(d.dtype, t.alpha_out)
        if t.rows <= 0 or t.cols <= 0:
            raise InvalidSpecError("shape", "VNNI_TO_VNNIT needs the logical extent")
        if (d.rows, d.cols) != vnni_extent(t.rows, t.cols, t.alpha):
            raise InvalidSpecError("shape", "VNNI_TO_VNNIT input does not match the extent")
        rows, groups = vnni_extent(t.cols, t.rows, t.alpha_out)
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
    spec, that ``out`` has the output extent and that it follows the output
    rule (``_check_out``): its dtype is free (the store narrows to it)
    except where the kind writes storage as it is: a bitmask (COMPARE), BF16
    patterns (UNPACK) or a layout copy (TRANSFORM).  The
    call enters through the public function of its kind (``reduce``,
    ``transform``, ``replicate_cols`` or the ``apply_*`` of its family),
    which finds the kernel of the operands' descriptors and the spec's flags
    in the one dispatch cache (``kernel_for``: this kernel, unless it was
    dropped from the cache), so a plan step and a direct call take the same
    path and neither re-validates.

    ``math`` is the kind's bound ndarray function for the fusable kinds
    (compute-dtype arrays in, compute-dtype array out, flags applied), the
    same math the call runs; the tiled equation strategies run it on numpy
    slices of each tile, and a direct call runs it through ``_elementwise``.
    It is None for every other kind."""

    __slots__ = ("spec", "out_desc", "math", "_ins", "_impl", "_raw_dtype")

    def __init__(self, spec: KernelSpec):
        self.spec = spec
        out = infer_output_desc(spec)
        # an equal input descriptor stands for the output, so that cache keys
        # and views holding either compare by identity
        self.out_desc = next((d for d in spec.ins if d == out), out)
        self._ins = tuple((d.rows, d.cols, d.dtype) for d in spec.ins)
        k = spec.kind
        # the dtype of the kinds that write their output's storage as it is
        self._raw_dtype = out.dtype if k in (UnaryKind.TRANSFORM, UnaryKind.UNPACK,
                                             BinaryKind.COMPARE) else None
        self.math: Optional[Callable[..., np.ndarray]] = None
        if k in UNARY_MATH and not (k is UnaryKind.RELU and spec.bitmask_output):
            fn, sel = UNARY_MATH[k], spec.approx
            self.math = lambda x: fn(x, sel)
        elif k in BINARY_MATH:
            self.math = BINARY_MATH[k]
        elif k in TERNARY_MATH:
            self.math = TERNARY_MATH[k]
        if self.math is not None:
            self._impl = functools.partial(_elementwise, self.math)
        else:
            self._impl = functools.partial(_IMPL[k], spec)

    def __call__(self, *views: TensorView, out: TensorView) -> None:
        got = tuple([(v.desc.rows, v.desc.cols, v.desc.dtype) for v in views])
        if got != self._ins:
            raise TensorError(f"{self.spec.kind} kernel takes {self._ins}, got {got}")
        s = self.spec
        k = s.kind
        if k is UnaryKind.REDUCE:
            reduce(views[0], s.reduce, out)
        elif k is UnaryKind.TRANSFORM:
            transform(views[0], s.transform, out)
        elif k is UnaryKind.REPLICATE_COLS:
            replicate_cols(views[0], s.times, out)
        elif isinstance(k, UnaryKind):
            apply_unary(k, views[0], out, approx_flag=s.approx,
                        bitmask_output=s.bitmask_output, dropout_p=s.dropout_p)
        elif isinstance(k, BinaryKind):
            apply_binary(k, views[0], views[1], out, cmp=s.cmp)
        else:
            apply_ternary(k, views[0], views[1], views[2], out)

    def _run(self, views: tuple[TensorView, ...], out: TensorView, *extra) -> None:
        """Check ``out`` and run; ``extra`` goes to the implementation after
        ``out`` (the column indices of an indexed reduce)."""
        od = self.out_desc
        if (out.desc.rows, out.desc.cols) != (od.rows, od.cols):
            raise TensorError(f"{self.spec.kind} output: expected {od.rows}x{od.cols}, "
                              f"got {out.desc.rows}x{out.desc.cols}")
        _check_out(out, self.spec.kind, self._raw_dtype)
        self._impl(*views, out, *extra)


DISPATCH_CACHE_SIZE = 1024  # kernels kept; the least recently dispatched is dropped first


@functools.lru_cache(maxsize=DISPATCH_CACHE_SIZE)
def _cached_kernel(key: tuple) -> Kernel:
    return Kernel(KernelSpec(*key))


def kernel_for(kind: UnaryKind | BinaryKind | TernaryKind, ins: tuple[TensorDesc, ...],
               approx: Approx | None = None, reduce: ReduceSpec | None = None,
               transform: TransformSpec | None = None, cmp: CmpOp | None = None,
               bitmask_output: bool = False, dropout_p: float | None = None,
               times: int | None = None) -> Kernel:
    """The kernel of the spec with these fields, from the one dispatch cache.

    The cache is keyed by the plain tuple of the fields in ``KernelSpec``
    order, built here and nowhere else, so equal specs share one entry
    however they are named; the ``KernelSpec`` is built, and validated,
    only on a miss.  A bad spec raises InvalidSpecError and is not cached."""
    return _cached_kernel((kind, ins, approx, reduce, transform, cmp, bitmask_output,
                           dropout_p, times))


def dispatch(spec: KernelSpec) -> Kernel:
    """Validate a spec and return the (cached) kernel for it; a bad spec
    raises InvalidSpecError and is not cached."""
    return kernel_for(spec.kind, spec.ins, spec.approx, spec.reduce, spec.transform,
                      spec.cmp, spec.bitmask_output, spec.dropout_p, spec.times)


dispatch.cache_info = _cached_kernel.cache_info


# ---------------------------------------------------------------------------
# entry points: describe the call, dispatch it, run the kernel
# ---------------------------------------------------------------------------

def apply_unary(kind: UnaryKind, inp: Optional[TensorView], out: TensorView,
                approx_flag: Approx | None = None,
                bitmask_output: bool = False,
                dropout_p: float | None = None) -> None:
    """Apply a unary operator; elementwise kinds require matching logical
    shapes (broadcast allowed on the input only).  ZERO and PRNG take their
    extent from ``out``, not from an input, so they run without dispatch.
    REDUCE, TRANSFORM and REPLICATE_COLS enter through :func:`reduce`,
    :func:`transform` and :func:`replicate_cols`."""
    if kind is UnaryKind.ZERO:
        _check_out(out, kind)
        out.as2d()[:, :] = 0
        return
    if inp is None:
        raise TensorError(f"{kind} requires an input view")
    if kind is UnaryKind.PRNG:
        _check_out(out, kind, DType.FP32)
        out.as2d()[:, :] = _prng_state(inp, out.desc.cols).uniform_block(out.desc.rows)
        return
    kernel_for(kind, (inp.desc,), approx_flag, bitmask_output=bitmask_output,
               dropout_p=dropout_p)._run((inp,), out)


def reduce(inp: TensorView, spec: ReduceSpec, out: TensorView, indices=None) -> None:
    """Reduce rows / columns / everything with a fixed ascending index order.

    Accumulation happens in FP32 (FP64 for FP64 inputs) regardless of the
    storage dtype.  SUM starts from 0, MUL from 1; MIN/MAX fold from the
    first element along the order.  A C kernel runs the fold when the
    library is built (``native.backend()``), the numpy fold otherwise, with
    the same bits.

    ``indices`` (a flat, non-empty list of column indices) makes a ROWS
    reduce fold the columns ``indices[0], indices[1], ...`` of ``inp`` in
    list order, repeats included: by definition the bits of a GATHER_COLS
    of those columns followed by a ROWS reduce, without the gathered block.
    Any other axis raises InvalidSpecError ('flag'), an empty or not flat
    list InvalidSpecError ('shape'), and an index outside the columns (or
    not an integer) IndexError, all before any write.
    """
    kernel = kernel_for(UnaryKind.REDUCE, (inp.desc,), reduce=spec)
    if indices is None:
        kernel._run((inp,), out)
    else:
        kernel._run((inp,), out, _column_indices(spec, inp.desc.cols, indices))


def _column_indices(spec: ReduceSpec, cols: int, indices) -> np.ndarray:
    """``indices`` of an indexed reduce over ``cols`` columns, checked, as a
    contiguous int64 array."""
    if spec.axis is not ReduceAxis.ROWS:
        raise InvalidSpecError("flag", f"indices select columns of a ROWS reduce, not {spec.axis}")
    idx = np.asarray(indices)
    if idx.ndim != 1 or idx.size == 0:
        raise InvalidSpecError("shape", "reduce indices must be a flat, non-empty list")
    if idx.dtype.kind not in "iu":
        raise IndexError(f"reduce indices must be integers, not {idx.dtype}")
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    if idx.view(np.uint64).max() >= cols:   # a negative index reads as a huge one
        raise IndexError(f"reduce index out of bounds for {cols} columns")
    return idx


def transform(inp: TensorView, spec: TransformSpec, out: TensorView) -> None:
    """Transpose, VNNI formatting, VNNI to VNNI-transpose, or reshape.

    RESHAPE lays the values out at ``spec.rows`` x ``spec.cols`` in the
    same column-major order, as ``view_at`` reads a dense buffer at another
    extent.  VNNI re-lays a logical M x N tensor (linear layout
    ``[N][M]``) as ``[N/alpha][M][alpha]``: groups of ``alpha`` consecutive
    columns become the innermost dimension, the tail group zero-padded.  The resulting view
    is (M * alpha) x ceil(N / alpha) with a contiguous leading dimension.
    ``out`` holds the input's dtype (a layout copy does not convert).
    """
    kernel_for(UnaryKind.TRANSFORM, (inp.desc,), transform=spec)._run((inp,), out)


def replicate_cols(inp: TensorView, times: int, out: TensorView) -> None:
    """Replicate an M x 1 column a fixed number of times."""
    kernel_for(UnaryKind.REPLICATE_COLS, (inp.desc,), times=times)._run((inp,), out)


def apply_binary(kind: BinaryKind, a: TensorView, b: TensorView, out: TensorView,
                 cmp: CmpOp | None = None) -> None:
    kernel_for(kind, (a.desc, b.desc), cmp=cmp)._run((a, b), out)


def apply_ternary(kind: TernaryKind, a: TensorView, b: TensorView, c: TensorView,
                  out: TensorView) -> None:
    kernel_for(kind, (a.desc, b.desc, c.desc))._run((a, b, c), out)


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
    with np.errstate(all="ignore"):
        r = _compute_values(inp) * _ACTIVATION_GRAD[spec.kind](x, spec.approx)
    _store(out, r)


def _unpack(spec: KernelSpec, inp: TensorView, out: TensorView) -> None:
    """FP32 -> two 16-bit halves: hi into out.primary (BF16 patterns), lo into
    out.secondary (INT16 patterns) at the output's layout, ``ld`` included;
    a None companion gets a fresh zeroed buffer.  A companion that is not a
    flat uint16 buffer of at least ``out.desc.min_buffer_len`` elements
    raises TensorError before anything is written.

    A pure bit move, so the C kernel runs on every value (NaN, Inf and
    subnormals too) unless the input is a broadcast view or ``native.run``
    refuses an operand (the input, hi and lo overlapping, say); the numpy
    path gives the same bits, with the halves swapped under the
    ``unpack-swap`` fault of ``native``."""
    d = out.desc
    lo_desc = TensorDesc(d.rows, d.cols, d.ld, DType.INT16)
    if out.secondary is None:
        out.secondary = np.zeros(lo_desc.min_buffer_len, dtype=np.uint16)
    lo = TensorView(lo_desc, out.secondary)
    if inp.desc.bcast is Bcast.NONE and native.run("unpack_f32", d.rows, d.cols, (inp,),
                                                   (out, lo)):
        return
    hi_bits, lo_bits = split_fp32_bits(inp.as2d())
    if native.fault == "unpack-swap":
        hi_bits, lo_bits = lo_bits, hi_bits
    out.as2d()[:, :] = hi_bits
    lo.as2d()[:, :] = lo_bits


def _prng_state(view: TensorView, cols: int) -> PrngState:
    """The PrngState in ``view.tertiary["prng"]`` with ``cols`` streams; one
    of another width is rebuilt from its seed and stored back, so the next
    call advances it."""
    state = (view.tertiary or {}).get("prng")
    if state is None:
        raise InvalidSpecError("flag", "PRNG and DROPOUT need a PrngState in tertiary")
    if state.x.size != cols:
        state = view.tertiary["prng"] = PrngState(state.seed, cols)
    return state


def _dropout(spec: KernelSpec, inp: TensorView, out: TensorView) -> None:
    """Keep x(i, j) where the i-th uniform of stream j is >= p, as
    ``x * (1/(1-p))`` in the compute dtype, and write +0 elsewhere; the
    bitmask of the kept elements goes to ``out.secondary``.

    An FP32 input that is not broadcast, into an FP32 ``out``, runs the
    ``dropout_f32`` engine where ``native.run`` accepts the operands (not
    in place, say): one pass that steps the streams, writes ``out`` and the
    bitmask, and leaves the state as :meth:`PrngState.uniform_block` does.
    A NaN x keeps its own payload on both paths, since ``x * scale`` has no
    other NaN operand.  The numpy path is the reference."""
    p, d = spec.dropout_p, inp.desc
    state = _prng_state(inp, d.cols)
    if d.dtype is DType.FP32 and out.desc.dtype is DType.FP32 and d.bcast is Bcast.NONE:
        bpc = (d.rows + 7) // 8
        mask = np.empty(bpc * d.cols, np.uint8)
        if native.run("dropout_f32", d.rows, d.cols, (inp,),
                      (state.words.T, out, mask.reshape(d.cols, bpc).T),
                      float(np.float32(p)), float(np.float32(1.0 / (1.0 - p)))):
            out.secondary = mask
            return
    keep = state.uniform_block(d.rows) >= np.float32(p)
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
_REDUCE_KERNEL = {DType.FP32: "reduce_f32", DType.FP64: "reduce_f64"}


def _reduce(spec: KernelSpec, inp: TensorView, out: TensorView,
            indices: np.ndarray | None = None) -> None:
    """Fold in FP32 (FP64 for FP64 inputs) in the pinned order, over the
    columns ``indices`` (checked by ``reduce``) when given.

    BF16 and integer inputs widen here and run as FP32; with ``indices``,
    only the indexed columns widen.  The C kernel (``native.c``) reads the
    values in place (a padded ``ld``, a COL broadcast at ld 0 and the
    indexed columns too), writes an ``out`` of the accumulator's dtype in
    place and any other through ``_store``, and gives the numpy fold's bits;
    a result that holds a NaN (the C kernel reports it) is recomputed on the
    numpy fold, as ``contraction.brgemm`` does, because the compiler may swap
    the operands of ``+`` and ``*``, which decides which payload survives
    where two NaNs meet.  The numpy fold of an indexed reduce folds the
    gathered columns ``x[:, indices]``."""
    rs, d = spec.reduce, inp.desc
    acc = DType.FP64 if d.dtype is DType.FP64 else DType.FP32
    src = inp.logical2d()
    if indices is not None and d.dtype is not acc:
        src, indices = src[:, indices], None
    x = widen(src, d.dtype).astype(acc.storage, copy=False)
    r = out if out.desc.dtype is acc else np.empty((out.desc.rows, out.desc.cols), x.dtype)
    cols, n = (None, x.shape[1]) if indices is None else (native.address(indices), indices.size)
    if not native.run(_REDUCE_KERNEL[acc], d.rows, n, (x,), (r,), _REDUCE_AXIS_CODE[rs.axis],
                      _REDUCE_OP_CODE[rs.op], rs.squared, cols):
        r = _reduce_numpy(rs, x if indices is None else x[:, indices])
    if r is not out:
        _store(out, r)


def _reduce_numpy(rs: ReduceSpec, x: np.ndarray) -> np.ndarray:
    """The reference fold: one numpy call per column (ROWS) or row (COLS and
    the row stage of ALL); reversed under the ``reduce-order`` fault of
    ``native``."""
    rows, cols = x.shape
    comb = _REDUCE_COMBINE[rs.op]
    descending = native.fault == "reduce-order"

    def fold(slices: list[np.ndarray]) -> np.ndarray:
        order = list(reversed(slices)) if descending else slices
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
        if descending:
            per_col = per_col[::-1]
        if rs.op is ReduceOp.SUM:
            per_col = np.concatenate([np.zeros(1, x.dtype), per_col])
        elif rs.op is ReduceOp.MUL:
            per_col = np.concatenate([np.ones(1, x.dtype), per_col])
        return comb.accumulate(per_col)[-1:].reshape(1, 1)


def _transform(spec: KernelSpec, inp: TensorView, out: TensorView) -> None:
    t = spec.transform
    if t.kind is TransformKind.TRANSPOSE:
        out.as2d()[:, :] = inp.logical2d().T
        return
    a = inp.logical2d()
    if t.kind is TransformKind.RESHAPE:
        out.as2d()[:, :] = a.reshape(t.rows, t.cols, order="F")
        return
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
    """The FP32 of bits ``hi << 16 | lo``, stored into ``out`` as any value
    is.  A pure bit move, so the C kernel runs on every value (NaN, Inf and
    subnormals too) into an FP32 ``out`` from halves that are not broadcast
    views, where ``native.run`` accepts the operands (``out`` overlapping
    neither half, say); the numpy path gives the same bits, and narrows to
    any other output dtype."""
    d = out.desc
    if d.dtype is DType.FP32 and hi.desc.bcast is Bcast.NONE and lo.desc.bcast is Bcast.NONE \
            and native.run("pack_f32", d.rows, d.cols, (hi, lo), (out,)):
        return
    _store(out, pack_fp32_bits(hi.as2d(), lo.as2d()))


def _compare(spec: KernelSpec, a: TensorView, b: TensorView, out: TensorView) -> None:
    bits = _CMP_PREDICATE[spec.cmp](_compute_values(a), _compute_values(b))
    mask = bool_to_mask(bits)
    out.primary[:mask.size] = mask   # a longer buffer keeps its tail


def _gemm(spec: KernelSpec, a: TensorView, b: TensorView, c: TensorView,
          out: TensorView) -> None:
    # out = C + A x B; ``out`` must not alias A or B
    out.as2d()[:, :] = c.logical2d()
    contraction.gemm(contraction.spec_for_views(a, b, out, beta=1.0), a, b, out)


def _blend(spec: KernelSpec, a: TensorView, b: TensorView, c: TensorView,
           out: TensorView) -> None:
    d = c.desc
    mask = np.broadcast_to(mask_to_bool(c.primary, d.phys_rows, d.phys_cols), (d.rows, d.cols))
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
    register j holds row j of the input, read through its logical
    (broadcast) window.  ``out`` holds the input's dtype (a layout copy).
    """
    d = inp.desc
    n = d.rows
    if d.cols != n or n & (n - 1) or not 4 <= n <= 16:
        raise TensorError("shuffle transpose needs a 4/8/16 square tile")
    if d.dtype.bits != 32:
        raise InvalidSpecError("dtype", "shuffle transpose is specified for 32-bit elements")
    _require_logical_shape(out, n, n, "shuffle transpose output")
    _check_out(out, "shuffle transpose", d.dtype)

    x = inp.logical2d()
    regs = [x[:, j].copy() for j in range(n)]
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
    one fancy-index assignment each.  Scatters are last-writer-wins in
    ascending source order: SCATTER_ROWS and SCATTER_COLS loop, and
    SCATTER2D assigns only each target's last writer (numpy leaves the
    winner of a target repeated in one assignment unspecified).  ``inp`` is
    read through its logical (broadcast) window; ``out`` follows the output
    rule with the input's dtype, as a gather or scatter copies storage.

    GATHER2D and SCATTER2D take k (row, col) offset pairs, and their other
    side (``out`` of a gather, ``inp`` of a scatter) is any view of k
    elements, the t-th pair matching its t-th element in column-major order.
    """
    if indices is None:
        raise InvalidSpecError("flag", f"{mode} requires an index companion")
    _check_out(out, mode, inp.desc.dtype)
    idx = np.asarray(indices)
    src = inp.logical2d()
    dst = out.as2d()

    if mode in (GatherMode.GATHER2D, GatherMode.SCATTER2D):
        if idx.ndim != 2 or idx.shape[1] != 2:
            raise InvalidSpecError("shape", "2D modes need (k, 2) offset pairs")
        ref = src if mode is GatherMode.GATHER2D else dst
        if np.any(idx < 0) or np.any(idx >= ref.shape):  # each pair against (rows, cols)
            raise IndexError("2D offset out of bounds")
        k = idx.shape[0]
        side = (out if mode is GatherMode.GATHER2D else inp).desc
        if side.rows * side.cols != k:
            raise TensorError(f"{mode} side is {side.rows}x{side.cols}, not {k} elements")
        if mode is GatherMode.GATHER2D:
            dst[:, :] = src[idx[:, 0], idx[:, 1]].reshape(side.cols, side.rows).T
        else:
            last = k - 1 - np.unique(np.ravel_multi_index(idx.T, dst.shape)[::-1],
                                     return_index=True)[1]
            dst[idx[last, 0], idx[last, 1]] = src.T.reshape(-1)[last]
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


def strided_load(inp: TensorView, out: TensorView, row_stride: int, col_stride: int,
                 base_row: int = 0, base_col: int = 0) -> None:
    """Strided 2D load: out[i, j] = in[base_row + i*row_stride, base_col + j*col_stride],
    the GATHER2D of :func:`affine_offsets`.  A stride of 0 reads one element
    many times (a broadcast read)."""
    gather_scatter(inp, affine_offsets(out.desc.rows, out.desc.cols, row_stride, col_stride,
                                       base_row, base_col), GatherMode.GATHER2D, out)


def strided_store(inp: TensorView, out: TensorView, row_stride: int, col_stride: int,
                  base_row: int = 0, base_col: int = 0) -> None:
    """Strided 2D store: out[base_row + i*row_stride, base_col + j*col_stride] = in[i, j],
    the SCATTER2D of :func:`affine_offsets`.

    A stride of 0 along an extent above 1 would send several elements to one
    location: TensorError."""
    if (row_stride == 0 and inp.desc.rows > 1) or (col_stride == 0 and inp.desc.cols > 1):
        raise TensorError("strided store with stride 0 writes several elements to one place")
    gather_scatter(inp, affine_offsets(inp.desc.rows, inp.desc.cols, row_stride, col_stride,
                                       base_row, base_col), GatherMode.SCATTER2D, out)


# ---------------------------------------------------------------------------
# split SGD
# ---------------------------------------------------------------------------

def split_sgd(weights: SplitTensor, grad: TensorView, lr: float) -> int:
    """One SGD step, ``w - grad*lr``, on the leading columns of the split
    FP32 ``weights`` (w = hi << 16 | lo), in place in one C pass with no
    FP32 scratch; returns how many columns it updated, and the caller runs
    its reference path (PACK, NMULADD, UNPACK) on the rest.  ``lr`` is
    narrowed to FP32 as a stored value is, and the product is rounded to
    FP32 before the difference, as NMULADD computes it.

    C stops before the first column holding a NaN w or gradient and leaves
    it and every later column untouched, since which payload survives
    where two NaNs meet depends on the operand order of ``*``, which the
    compiler may swap.  It updates no column (0) without a library or with
    a fault set, for a NaN ``lr``, a gradient that is not a plain FP32 view,
    halves that are broadcast views, or an operand ``native.run`` refuses
    (overlapping halves, say)."""
    rows, cols = weights.rows, weights.cols
    gd = grad.desc
    if (gd.rows, gd.cols) != (rows, cols):
        raise TensorError(f"gradient shape mismatch: {gd.rows}x{gd.cols}, the weights "
                          f"{rows}x{cols}")
    hi, lo = weights.hi, weights.lo
    if (gd.dtype is not DType.FP32 or gd.bcast is not Bcast.NONE
            or hi.desc.bcast is not Bcast.NONE or lo.desc.bcast is not Bcast.NONE):
        return 0
    lr32 = narrow(np.asarray(lr), DType.FP32)
    if lr32 != lr32:
        return 0
    done = np.zeros(1, np.int64)
    native.run("split_sgd_f32", rows, cols, (grad,), (hi, lo, done), float(lr32))
    return int(done[0])
