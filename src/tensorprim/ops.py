"""The 2D tensor operator set: unary / binary / ternary kinds, dispatch,
reductions, layout transforms, gather/scatter and deterministic dropout.

Every operator follows the same blueprint: load logical sub-tensors (with
broadcast and datatype widening applied), run the point operation in the
compute precision, store once (narrowing if the output is BF16).  Reductions
use a fixed, ascending accumulation order so results are bit-reproducible.
Every call runs on the caller's thread; blocking and threads belong to the
caller's loop nest.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
import enum
import threading
from typing import Callable, Optional, Sequence

import numpy as np

from . import approx, contraction
from .approx import Approx
from .dtypes import DType, narrow, pack_fp32_bits, widen
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
    GATHER = "gather"
    SCATTER = "scatter"
    GATHER2D = "gather2d"
    SCATTER2D = "scatter2d"
    STRIDED_LOAD = "strided_load"
    STRIDED_STORE = "strided_store"
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
    BRGEMM = "brgemm"
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


_GATHER_MODE = {UnaryKind.GATHER: GatherMode.GATHER_COLS,
                UnaryKind.SCATTER: GatherMode.SCATTER_COLS,
                UnaryKind.GATHER2D: GatherMode.GATHER2D,
                UnaryKind.SCATTER2D: GatherMode.SCATTER2D}

DEFAULT_APPROX = {
    UnaryKind.TANH: Approx.PADE78,
    UnaryKind.TANH_INV: Approx.PADE78,
    UnaryKind.SIGMOID: Approx.PADE78,
    UnaryKind.SIGMOID_INV: Approx.PADE78,
    UnaryKind.GELU: Approx.MINIMAX16,
    UnaryKind.GELU_INV: Approx.MINIMAX16,
    UnaryKind.EXP: Approx.TAYLOR2,
}

# The math of every fusable kind: ndarray functions taking and returning
# compute-dtype values, shared by ``apply_*`` and the tiled equation engine.
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
        """rows x ncols FP32 uniforms in [0, 1), row i from the i-th step."""
        out = np.empty((rows, self.x.size), dtype=np.float32)
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
# unary
# ---------------------------------------------------------------------------

def apply_unary(kind: UnaryKind, inp: Optional[TensorView], out: TensorView,
                approx_flag: Approx | None = None,
                reduce_spec: ReduceSpec | None = None,
                transform_spec: TransformSpec | None = None,
                bitmask_output: bool = False,
                dropout_p: float | None = None,
                times: int | None = None) -> None:
    """Apply a unary operator; elementwise kinds require matching logical
    shapes (broadcast allowed on the input only)."""
    if kind is UnaryKind.ZERO:
        out.as2d()[:, :] = 0
        return
    if inp is None:
        raise TensorError(f"{kind} requires an input view")

    if kind is UnaryKind.REDUCE:
        if reduce_spec is None:
            raise InvalidSpecError("flag", "REDUCE needs a ReduceSpec")
        reduce(inp, reduce_spec, out)
        return
    if kind is UnaryKind.TRANSFORM:
        if transform_spec is None:
            raise InvalidSpecError("flag", "TRANSFORM needs a TransformSpec")
        transform(inp, transform_spec, out)
        return
    if kind is UnaryKind.REPLICATE_COLS:
        replicate_cols(inp, times if times is not None else out.desc.cols, out)
        return
    if kind in _GATHER_MODE:
        gather_scatter(inp, inp.secondary, _GATHER_MODE[kind], out)
        return
    if kind is UnaryKind.UNPACK:
        _unpack(inp, out)
        return
    if kind is UnaryKind.PRNG:
        _prng_fill(inp, out)
        return
    if kind is UnaryKind.QUANTIZE:
        _quantize(inp, out)
        return
    if kind is UnaryKind.DEQUANTIZE:
        _dequantize(inp, out)
        return
    if kind in (UnaryKind.STRIDED_LOAD, UnaryKind.STRIDED_STORE):
        raise InvalidSpecError("flag", "use strided_load/strided_store helpers")

    # elementwise math kinds
    _require_logical_shape(out, inp.desc.rows, inp.desc.cols, f"{kind} output")
    x = _compute_values(inp)
    sel = approx_flag or DEFAULT_APPROX.get(kind)
    with np.errstate(all="ignore"):
        if kind in UNARY_MATH:
            r = UNARY_MATH[kind](x, sel)
            if kind is UnaryKind.RELU and bitmask_output:
                out.secondary = bool_to_mask(x > 0)
        elif kind is UnaryKind.RELU_INV:
            mask = _mask_from(inp, "RELU_INV")
            r = np.where(mask, x, x.dtype.type(0))
        elif kind is UnaryKind.TANH_INV:
            r = x * approx.tanh_grad(_forward_arg(inp), sel)
        elif kind is UnaryKind.SIGMOID_INV:
            r = x * approx.sigmoid_grad(_forward_arg(inp), sel)
        elif kind is UnaryKind.GELU_INV:
            r = x * approx.gelu_grad(_forward_arg(inp), sel)
        elif kind is UnaryKind.DROPOUT:
            r = _dropout(inp, out, x, dropout_p)
        elif kind is UnaryKind.DROPOUT_INV:
            if dropout_p is None:
                raise InvalidSpecError("flag", "DROPOUT_INV needs the keep probability")
            mask = _mask_from(inp, "DROPOUT_INV")
            scale = x.dtype.type(1.0 / (1.0 - dropout_p)) if dropout_p < 1.0 else x.dtype.type(0)
            r = np.where(mask, x * scale, x.dtype.type(0))
        else:
            raise InvalidSpecError("flag", f"unhandled unary kind {kind}")
    _store(out, r)


def _forward_arg(inp: TensorView) -> np.ndarray:
    """Backward activation kinds carry dy in primary and the forward input x
    in secondary (same layout as the descriptor)."""
    if inp.secondary is None:
        raise TensorError("backward kind requires the forward input in secondary")
    x = TensorView(inp.desc, np.asarray(inp.secondary))
    return _compute_values(x)


def _unpack(inp: TensorView, out: TensorView) -> None:
    """FP32 -> two 16-bit halves: hi into out.primary (BF16 patterns), lo into
    out.secondary.  Other dtypes are rejected."""
    if inp.desc.dtype is not DType.FP32:
        raise InvalidSpecError("dtype", "UNPACK supports FP32 inputs only")
    if out.desc.dtype is not DType.BF16:
        raise InvalidSpecError("dtype", "UNPACK output holds BF16 (hi) patterns")
    _require_logical_shape(out, inp.desc.rows, inp.desc.cols, "UNPACK output")
    u = inp.as2d().view(np.uint32)
    out.as2d()[:, :] = (u >> np.uint32(16)).astype(np.uint16)
    lo = (u & np.uint32(0xFFFF)).astype(np.uint16)
    if out.secondary is None or out.secondary.size < lo.size:
        out.secondary = np.empty(inp.desc.rows * inp.desc.cols, dtype=np.uint16)
    out.secondary.reshape(inp.desc.cols, inp.desc.rows).T[:, :] = lo


def _prng_fill(inp: TensorView, out: TensorView) -> None:
    if out.desc.dtype is not DType.FP32:
        raise InvalidSpecError("dtype", "PRNG output must be FP32")
    state = (inp.tertiary or {}).get("prng") if inp is not None else None
    if state is None:
        raise InvalidSpecError("flag", "PRNG needs a PrngState in tertiary")
    if state.x.size != out.desc.cols:
        state = PrngState(state.seed, out.desc.cols)
    out.as2d()[:, :] = state.uniform_block(out.desc.rows)


def _dropout(inp: TensorView, out: TensorView, x: np.ndarray, p: float | None) -> np.ndarray:
    if p is None:
        raise InvalidSpecError("flag", "DROPOUT needs the drop probability p")
    if not 0.0 <= p < 1.0:
        raise InvalidSpecError("flag", f"dropout p must be in [0, 1), got {p}")
    state = (inp.tertiary or {}).get("prng")
    if state is None:
        raise InvalidSpecError("flag", "DROPOUT needs a PrngState in tertiary")
    if state.x.size != inp.desc.cols:
        state = PrngState(state.seed, inp.desc.cols)
    u = state.uniform_block(inp.desc.rows)
    keep = u >= np.float32(p)
    out.secondary = bool_to_mask(keep)
    scale = x.dtype.type(1.0 / (1.0 - p))
    return np.where(keep, x * scale, x.dtype.type(0))


def _quantize(inp: TensorView, out: TensorView) -> None:
    """Symmetric per-tensor INT8 quantization; the scale lands in
    out.tertiary['scale']."""
    if inp.desc.dtype is not DType.FP32 or out.desc.dtype is not DType.INT8:
        raise InvalidSpecError("dtype", "QUANTIZE is FP32 -> INT8")
    x = inp.as2d().astype(np.float64)
    scale = (inp.tertiary or {}).get("scale")
    if scale is None:
        amax = float(np.max(np.abs(x))) if x.size else 0.0
        scale = amax / 127.0 if amax > 0 else 1.0
    q = np.clip(np.rint(x / scale), -127, 127).astype(np.int8)
    out.as2d()[:, :] = q
    out.tertiary = dict(out.tertiary or {})
    out.tertiary["scale"] = float(scale)


def _dequantize(inp: TensorView, out: TensorView) -> None:
    if inp.desc.dtype is not DType.INT8 or out.desc.dtype is not DType.FP32:
        raise InvalidSpecError("dtype", "DEQUANTIZE is INT8 -> FP32")
    scale = (inp.tertiary or {}).get("scale")
    if scale is None:
        raise InvalidSpecError("flag", "DEQUANTIZE needs tertiary['scale']")
    out.as2d()[:, :] = inp.as2d().astype(np.float32) * np.float32(scale)


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

_REDUCE_COMBINE = {
    ReduceOp.SUM: np.add,
    ReduceOp.MUL: np.multiply,
    ReduceOp.MIN: np.minimum,
    ReduceOp.MAX: np.maximum,
}


def reduce(inp: TensorView, spec: ReduceSpec, out: TensorView) -> None:
    """Reduce rows / columns / everything with a fixed ascending index order.

    Accumulation happens in FP32 (FP64 for FP64 inputs) regardless of the
    storage dtype.  SUM starts from 0, MUL from 1; MIN/MAX fold from the
    first element along the order.
    """
    d = inp.desc
    exp_shape = {ReduceAxis.ROWS: (d.rows, 1), ReduceAxis.COLS: (1, d.cols),
                 ReduceAxis.ALL: (1, 1)}[spec.axis]
    _require_logical_shape(out, *exp_shape, what="reduce output")

    acc_dt = np.float64 if d.dtype is DType.FP64 else np.float32
    x = _compute_values(inp).astype(acc_dt, copy=False)
    if spec.squared:
        x = x * x
    comb = _REDUCE_COMBINE[spec.op]

    def fold(slices: list[np.ndarray]) -> np.ndarray:
        order = list(reversed(slices)) if _FAULT_DESCENDING_REDUCE else slices
        if spec.op is ReduceOp.SUM:
            acc = np.zeros_like(order[0])
        elif spec.op is ReduceOp.MUL:
            acc = np.ones_like(order[0])
        else:
            acc = order[0].copy()
            order = order[1:]
        for s in order:
            acc = comb(acc, s)
        return acc

    if spec.axis is ReduceAxis.ROWS:
        r = fold([x[:, j] for j in range(d.cols)]).reshape(d.rows, 1)
    elif spec.axis is ReduceAxis.COLS:
        r = fold([x[i, :] for i in range(d.rows)]).reshape(1, d.cols)
    else:
        per_col = fold([x[i, :] for i in range(d.rows)])
        r = fold([per_col[j:j + 1] for j in range(d.cols)]).reshape(1, 1)
    _store(out, r)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def transform(inp: TensorView, spec: TransformSpec, out: TensorView) -> None:
    """Transpose, VNNI formatting, or VNNI to VNNI-transpose.

    VNNI re-lays a logical M x N tensor (linear layout ``[N][M]``) as
    ``[N/alpha][M][alpha]``: groups of ``alpha`` consecutive columns become
    the innermost dimension, the tail group zero-padded.  The resulting view
    is (M * alpha) x ceil(N / alpha) with a contiguous leading dimension.
    """
    if spec.kind is TransformKind.TRANSPOSE:
        d = inp.desc
        _require_logical_shape(out, d.cols, d.rows, "TRANSPOSE output")
        out.as2d()[:, :] = inp.logical2d().T
        return
    if spec.kind is TransformKind.VNNI:
        _check_alpha(inp.desc.dtype, spec.alpha)
        _store_vnni(out, inp.logical2d(), spec.alpha, "VNNI output")
        return
    if spec.kind is TransformKind.VNNI_TO_VNNIT:
        _check_alpha(inp.desc.dtype, spec.alpha)
        _check_alpha(out.desc.dtype, spec.alpha_out)
        if spec.rows <= 0 or spec.cols <= 0:
            raise InvalidSpecError("shape", "VNNI_TO_VNNIT needs the logical extent")
        groups = -(-spec.cols // spec.alpha)
        if (inp.desc.rows, inp.desc.cols) != (spec.rows * spec.alpha, groups):
            raise InvalidSpecError("shape", "VNNI_TO_VNNIT input does not match the extent")
        flat = inp.logical2d().T.reshape(-1)  # column-major order of the VNNI view
        logical = vnni_unpack_a(flat, spec.alpha, spec.rows, spec.cols)
        _store_vnni(out, logical.T, spec.alpha_out, "VNNI_TO_VNNIT output")
        return
    raise InvalidSpecError("flag", f"unknown transform {spec.kind}")


def _check_alpha(dtype: DType, alpha: int) -> None:
    try:
        want = vnni_alpha(dtype)
    except TensorError as e:
        raise InvalidSpecError("dtype", str(e)) from None
    if alpha != want:
        raise InvalidSpecError("flag", f"alpha {alpha} incompatible with {dtype} (want {want})")


def _store_vnni(out: TensorView, a: np.ndarray, alpha: int, what: str) -> None:
    """Pack logical (M, N) ``a`` into ``out``, an (M * alpha) x ceil(N / alpha)
    view whose column-major order is the VNNI layout."""
    rows, groups = a.shape[0] * alpha, -(-a.shape[1] // alpha)
    _require_logical_shape(out, rows, groups, what)
    out.as2d()[:, :] = vnni_pack_a(a, alpha).reshape(groups, rows).T


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


def strided_load(inp: TensorView, out: TensorView, row_stride: int, col_stride: int,
                 base_row: int = 0, base_col: int = 0) -> None:
    """Strided 2D load: out[i, j] = in[base_row + i*row_stride, base_col + j*col_stride]."""
    offs = affine_offsets(out.desc.rows, out.desc.cols, row_stride, col_stride,
                          base_row, base_col)
    src = inp.as2d()
    if np.any(offs[:, 0] >= src.shape[0]) or np.any(offs[:, 1] >= src.shape[1]):
        raise IndexError("strided load out of bounds")
    dst = out.as2d()
    dst[:, :] = src[offs[:, 0], offs[:, 1]].reshape(out.desc.cols, out.desc.rows).T


def strided_store(inp: TensorView, out: TensorView, row_stride: int, col_stride: int,
                  base_row: int = 0, base_col: int = 0) -> None:
    """Strided 2D store: out[base_row + i*row_stride, base_col + j*col_stride] = in[i, j]."""
    offs = affine_offsets(inp.desc.rows, inp.desc.cols, row_stride, col_stride,
                          base_row, base_col)
    dst = out.as2d()
    if np.any(offs[:, 0] >= dst.shape[0]) or np.any(offs[:, 1] >= dst.shape[1]):
        raise IndexError("strided store out of bounds")
    src = inp.as2d()
    dst[offs[:, 0], offs[:, 1]] = src.T.reshape(-1)


def replicate_cols(inp: TensorView, times: int, out: TensorView) -> None:
    """Replicate an M x 1 column a fixed number of times."""
    d = inp.desc
    if d.phys_cols != 1:
        raise TensorError("replicate_cols input must be M x 1")
    _require_logical_shape(out, d.rows, times, "replicate_cols output")
    _store(out, np.repeat(_compute_values(inp)[:, :1], times, axis=1))


# ---------------------------------------------------------------------------
# binary / ternary
# ---------------------------------------------------------------------------

def apply_binary(kind: BinaryKind, a: TensorView, b: TensorView, out: TensorView,
                 cmp: CmpOp | None = None) -> None:
    if kind is BinaryKind.MATMUL:
        contraction.matmul(a, b, out)
        return
    if kind is BinaryKind.PACK:
        _pack_binary(a, b, out)
        return

    xa, xb = _compute_values(a), _compute_values(b)
    try:
        rows, cols = _join_shapes([xa.shape, xb.shape])
    except InvalidSpecError as e:
        raise TensorError(str(e)) from None

    if kind is BinaryKind.COMPARE:
        if cmp is None:
            raise InvalidSpecError("flag", "COMPARE needs a predicate")
        if out.desc.dtype is not DType.BIT:
            raise InvalidSpecError("dtype", "COMPARE output is a bitmask")
        _require_logical_shape(out, rows, cols, "COMPARE output")
        bits = np.broadcast_to(_CMP_PREDICATE[cmp](xa, xb), (rows, cols))
        out.primary[:] = bool_to_mask(bits)
        return

    _require_logical_shape(out, rows, cols, f"{kind} output")
    with np.errstate(all="ignore"):
        r = BINARY_MATH[kind](xa, xb)
    _store(out, np.broadcast_to(r, (rows, cols)))


def _pack_binary(hi: TensorView, lo: TensorView, out: TensorView) -> None:
    if hi.desc.dtype.bits != 16 or lo.desc.dtype.bits != 16:
        raise InvalidSpecError("dtype", "PACK inputs are 16-bit pattern tensors")
    if (hi.desc.rows, hi.desc.cols) != (lo.desc.rows, lo.desc.cols):
        raise TensorError("PACK hi/lo shape mismatch")
    if out.desc.dtype is not DType.FP32:
        raise InvalidSpecError("dtype", "PACK output is FP32")
    _require_logical_shape(out, hi.desc.rows, hi.desc.cols, "PACK output")
    out.as2d()[:, :] = pack_fp32_bits(hi.as2d(), lo.as2d())


def apply_ternary(kind: TernaryKind, a: TensorView, b: TensorView, c: TensorView,
                  out: TensorView) -> None:
    if kind is TernaryKind.GEMM:
        # out = C + A x B; ``out`` must not alias A or B
        out.as2d()[:, :] = c.logical2d()
        contraction.gemm(contraction.spec_for_views(a, b, out, beta=1.0), a, b, out)
        return
    if kind is TernaryKind.BRGEMM:
        raise InvalidSpecError("flag", "BRGEMM lives in the contraction module")
    if kind is TernaryKind.BLEND:
        if c.desc.dtype is not DType.BIT:
            raise InvalidSpecError("dtype", "BLEND selector must be a bitmask")
        xa, xb = _compute_values(a), _compute_values(b)
        rows, cols = _join_shapes([xa.shape, xb.shape])
        _require_logical_shape(out, rows, cols, "BLEND output")
        mask = mask_to_bool(c.primary, c.desc.rows, c.desc.cols)
        _store(out, np.where(mask, np.broadcast_to(xa, (rows, cols)),
                             np.broadcast_to(xb, (rows, cols))))
        return
    xa, xb, xc = _compute_values(a), _compute_values(b), _compute_values(c)
    rows, cols = _join_shapes([xa.shape, xb.shape, xc.shape])
    _require_logical_shape(out, rows, cols, f"{kind} output")
    with np.errstate(all="ignore"):
        r = TERNARY_MATH[kind](xa, xb, xc)
    _store(out, np.broadcast_to(r, (rows, cols)))


# ---------------------------------------------------------------------------
# dispatch
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
    index_desc: TensorDesc | None = None


def infer_output_desc(spec: KernelSpec) -> TensorDesc:
    k, ins = spec.kind, spec.ins
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
            t = spec.transform
            if t is None:
                raise InvalidSpecError("flag", "TRANSFORM needs a TransformSpec")
            if t.kind is TransformKind.TRANSPOSE:
                return TensorDesc(d.cols, d.rows, d.cols, d.dtype)
            if t.kind is TransformKind.VNNI:
                g = -(-d.cols // t.alpha)
                return TensorDesc(d.rows * t.alpha, g, d.rows * t.alpha, d.dtype)
            g = -(-t.rows // t.alpha_out)
            return TensorDesc(t.cols * t.alpha_out, g, t.cols * t.alpha_out, d.dtype)
        if k is UnaryKind.REPLICATE_COLS:
            if spec.times is None or spec.times < 1:
                raise InvalidSpecError("flag", "REPLICATE_COLS needs times >= 1")
            return TensorDesc(d.rows, spec.times, d.rows, d.dtype)
        if k in _GATHER_MODE:
            if spec.index_desc is None:
                raise InvalidSpecError("flag", f"{k} needs an index companion descriptor")
            kk = spec.index_desc.rows * spec.index_desc.cols
            if k is UnaryKind.GATHER:
                return TensorDesc(d.rows, kk, d.rows, d.dtype)
            if k is UnaryKind.GATHER2D:
                return TensorDesc(kk, 1, kk, d.dtype)
            return TensorDesc(d.rows, d.cols, d.rows, d.dtype)
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
        if k in (UnaryKind.STRIDED_LOAD, UnaryKind.STRIDED_STORE):
            raise InvalidSpecError("flag", "use strided_load/strided_store helpers")
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
        if k is TernaryKind.BRGEMM:
            raise InvalidSpecError("flag", "BRGEMM takes a block batch: use contraction.brgemm")
        if k is TernaryKind.GEMM:
            if a.cols != b.rows or (c.rows, c.cols) != (a.rows, b.cols):
                raise InvalidSpecError("shape", "GEMM operand shapes inconsistent")
            acc = contraction.accumulator_dtype(a.dtype)
            if b.dtype is not a.dtype or c.dtype is not acc:
                raise InvalidSpecError("dtype", f"GEMM takes B of {a.dtype} and C of {acc}, "
                                                f"got {b.dtype} and {c.dtype}")
            return TensorDesc(c.rows, c.cols, c.rows, c.dtype)
        if k is TernaryKind.BLEND:
            if c.dtype is not DType.BIT:
                raise InvalidSpecError("dtype", "BLEND selector must be a bitmask")
            rows, cols = _join_shapes([(a.rows, a.cols), (b.rows, b.cols)])
            return TensorDesc(rows, cols, rows,
                              DType.FP64 if DType.FP64 in (a.dtype, b.dtype) else DType.FP32
                              if a.dtype.is_float else DType.INT32)
        rows, cols = _join_shapes([(a.rows, a.cols), (b.rows, b.cols), (c.rows, c.cols)])
        out_dt = DType.FP64 if DType.FP64 in (a.dtype, b.dtype, c.dtype) else (
            DType.FP32 if a.dtype.is_float else DType.INT32)
        return TensorDesc(rows, cols, rows, out_dt)
    raise InvalidSpecError("flag", f"unknown kind {k}")


class Kernel:
    """An immutable, dispatched primitive instance.  Its flags apply to the
    operand views each call passes.

    ``math`` is the kind's bound ndarray function for the fusable kinds
    (compute-dtype arrays in, compute-dtype array out, flags applied), the
    same math the call runs; the tiled equation strategies run it on numpy
    slices of each tile.  It is None for every other kind."""

    __slots__ = ("spec", "out_desc", "math")

    def __init__(self, spec: KernelSpec):
        self.spec = spec
        self.out_desc = infer_output_desc(spec)
        k = spec.kind
        self.math: Optional[Callable[..., np.ndarray]] = None
        if k in UNARY_MATH and not spec.bitmask_output:
            fn, sel = UNARY_MATH[k], spec.approx or DEFAULT_APPROX.get(k)
            self.math = lambda x: fn(x, sel)
        elif k in BINARY_MATH:
            self.math = BINARY_MATH[k]
        elif k in TERNARY_MATH:
            self.math = TERNARY_MATH[k]

    def __call__(self, *views: TensorView, out: TensorView) -> None:
        s = self.spec
        k = s.kind
        if isinstance(k, UnaryKind):
            apply_unary(k, views[0] if views else None, out, approx_flag=s.approx,
                        reduce_spec=s.reduce, transform_spec=s.transform,
                        bitmask_output=s.bitmask_output, dropout_p=s.dropout_p,
                        times=s.times)
        elif isinstance(k, BinaryKind):
            apply_binary(k, views[0], views[1], out, cmp=s.cmp)
        else:
            apply_ternary(k, views[0], views[1], views[2], out)


DISPATCH_CACHE_SIZE = 1024  # kernels kept; the least recently dispatched is dropped first
_dispatch_cache: OrderedDict[KernelSpec, Kernel] = OrderedDict()
_dispatch_lock = threading.Lock()


def dispatch(spec: KernelSpec) -> Kernel:
    """Validate a spec and return the (cached) kernel for it."""
    with _dispatch_lock:
        kern = _dispatch_cache.get(spec)
        if kern is None:
            kern = Kernel(spec)  # raises InvalidSpecError on a bad spec
            _dispatch_cache[spec] = kern
            if len(_dispatch_cache) > DISPATCH_CACHE_SIZE:
                _dispatch_cache.popitem(last=False)
        else:
            _dispatch_cache.move_to_end(spec)
        return kern
