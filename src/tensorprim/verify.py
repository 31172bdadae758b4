"""Named property checks for every module, with independent oracles.

This module owns the verification machinery the command line exposes: each
check re-derives its expected values through a route separate from the code
under test (scalar loops, exhaustive enumeration, a subset-lattice search
over evaluation orders, high-precision references) and reports a measured
value against a fixed budget.

The faults of ``native`` are negative controls.  ``reduce-order`` flips the
accumulation direction of the reduction primitive; ``k-order`` and
``batch-fold`` reverse the contraction's k loop or its fold of the batch
entries; ``unpack-swap`` swaps the halves UNPACK writes, and
``prng-shared`` draws every column's uniforms from stream 0.  Running the
suite with a fault injected demonstrates that the bitwise-equivalence checks
actually detect ordering bugs while the planner checks (which do not depend
on arithmetic order) stay green.
"""

from __future__ import annotations

import ast
from concurrent.futures import ThreadPoolExecutor
import contextlib
from dataclasses import dataclass
import inspect
import math
import os
import traceback
from typing import Callable, Iterator

import numpy as np

from . import approx, contraction as gemm_engine, equation as eqn, kernels, native, ops, tensor as tz
from .dtypes import DType, bf16_to_fp32, fp32_to_bf16_rne, pack_fp32_bits, split_fp32_bits
from .ops import (
    Approx,
    BinaryKind,
    GatherMode,
    ReduceAxis,
    ReduceOp,
    ReduceSpec,
    TernaryKind,
    UnaryKind,
)
from .tensor import Bcast, TensorDesc, alloc, broadcast, from_array, to_array


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float | str
    budget: float | str
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: measured={self.measured} budget={self.budget}" + (
            f" ({self.detail})" if self.detail else "")


@contextlib.contextmanager
def inject_fault(name: str | None) -> Iterator[None]:
    """Set ``native.fault`` (one of ``native.FAULTS``, None for none) inside
    the ``with`` block.  While a fault is set, every C kernel is off and the
    numpy path it names runs with the fault applied.  The fault is cleared
    on leaving the block, also when the block raises."""
    if name not in (None, *native.FAULTS):
        raise ValueError(f"unknown fault {name!r}")
    native.fault = name
    try:
        yield
    finally:
        native.fault = None


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# core-tensor checks
# ---------------------------------------------------------------------------

def check_bf16_roundtrip(seed: int = 0) -> CheckResult:
    """Every BF16 pattern survives widen -> narrow bitwise (2^16 loop)."""
    pats = np.arange(1 << 16, dtype=np.uint16)
    back = fp32_to_bf16_rne(bf16_to_fp32(pats))
    bad = int(np.count_nonzero(back != pats))
    return CheckResult("core-bf16-roundtrip", bad == 0, bad, 0)


def check_bf16_rne(seed: int = 0) -> CheckResult:
    """FP32->BF16 returns a nearest BF16 neighbour, ties to even mantissa LSB,
    checked exhaustively on the 2^16 tie midpoints and on random patterns."""
    base = np.arange(1 << 16, dtype=np.uint32)
    finite = base[((base >> 7) & 0xFF) != 0xFF]  # skip inf/nan patterns
    lo = (finite << np.uint32(16))
    mid = lo | np.uint32(0x8000)  # exact midpoint between adjacent bf16
    got = fp32_to_bf16_rne(mid.view(np.float32))
    want = np.where((finite & 1) == 0, finite, finite + 1).astype(np.uint32)
    # rounding up at the top of a binade correctly carries into the exponent
    bad = int(np.count_nonzero(got.astype(np.uint32) != want))

    rng = np.random.default_rng(seed)
    pats = rng.integers(0, 1 << 32, size=200000, dtype=np.uint32)
    vals = pats.view(np.float32)
    # values in the top half-ulp of the BF16 range correctly round to inf;
    # the nearest-neighbour distance argument below only covers the rest
    ok = np.isfinite(vals) & (np.abs(vals) < 3.38e38)
    vals = vals[ok]
    got_r = bf16_to_fp32(fp32_to_bf16_rne(vals)).astype(np.float64)
    lo_n = bf16_to_fp32((vals.view(np.uint32) >> np.uint32(16)).astype(np.uint16)).astype(np.float64)
    hi_n = bf16_to_fp32(((vals.view(np.uint32) >> np.uint32(16)) + np.uint32(1)).astype(np.uint16)).astype(np.float64)
    v64 = vals.astype(np.float64)
    d_got = np.abs(got_r - v64)
    d_best = np.minimum(np.abs(lo_n - v64), np.abs(hi_n - v64))
    not_nearest = int(np.count_nonzero(d_got > d_best))
    return CheckResult("core-bf16-rne", bad == 0 and not_nearest == 0,
                       bad + not_nearest, 0, "midpoints + nearest-neighbour")


def check_split_pack(seed: int = 0) -> CheckResult:
    """pack(split(x)) == x bitwise for 10^6 random bit patterns."""
    rng = np.random.default_rng(seed)
    pats = rng.integers(0, 1 << 32, size=1_000_000, dtype=np.uint32).view(np.float32)
    hi, lo = split_fp32_bits(pats)
    back = pack_fp32_bits(hi, lo)
    bad = int(np.count_nonzero(back.view(np.uint32) != pats.view(np.uint32)))
    return CheckResult("core-split-pack-identity", bad == 0, bad, 0)


def check_addressing(seed: int = 0) -> CheckResult:
    """Column-major addressing: every (i, j) written through the 2D window
    is read back from the flat buffer at i + j*ld, with ld > M."""
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(20):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        ld = m + int(rng.integers(0, 4))
        v = alloc(TensorDesc(m, n, ld, DType.FP32))
        vals = rng.standard_normal((m, n)).astype(np.float32)
        v.as2d()[:, :] = vals
        flat = np.array([[v.primary[i + j * ld] for j in range(n)] for i in range(m)])
        if not _bits_equal(flat, vals):
            bad += 1
    return CheckResult("core-colmajor-addressing", bad == 0, bad, 0)


def check_broadcast(seed: int = 0) -> CheckResult:
    """Materialised ROW/COL/SCALAR broadcasts equal explicit replication."""
    rng = np.random.default_rng(seed)
    m, n = 5, 7
    row = rng.standard_normal((1, n)).astype(np.float32)
    col = rng.standard_normal((m, 1)).astype(np.float32)
    sca = rng.standard_normal((1, 1)).astype(np.float32)
    ok = True
    ok &= _bits_equal(np.array(broadcast(from_array(row), Bcast.ROW, m, n).logical2d()),
                      np.repeat(row, m, axis=0))
    ok &= _bits_equal(np.array(broadcast(from_array(col), Bcast.COL, m, n).logical2d()),
                      np.repeat(col, n, axis=1))
    ok &= _bits_equal(np.array(broadcast(from_array(sca), Bcast.SCALAR, m, n).logical2d()),
                      np.full((m, n), sca[0, 0], dtype=np.float32))
    return CheckResult("core-broadcast-materialize", bool(ok), int(not ok), 0)


# ---------------------------------------------------------------------------
# primitive-op checks
# ---------------------------------------------------------------------------

def check_elementwise_scalar_oracle(seed: int = 0) -> CheckResult:
    """Exact elementwise kinds agree bitwise with a scalar reference loop."""
    rng = np.random.default_rng(seed)
    m, n = 6, 5
    x = rng.standard_normal((m, n)).astype(np.float32)
    y = rng.standard_normal((m, n)).astype(np.float32)
    bad = 0

    def run_unary(kind, ref):
        nonlocal bad
        out = alloc(TensorDesc(m, n, m, DType.FP32))
        ops.apply_unary(kind, from_array(x), out)
        want = np.empty_like(x)
        for i in range(m):
            for j in range(n):
                want[i, j] = ref(x[i, j])
        if not _bits_equal(to_array(out), want):
            bad += 1

    one = np.float32(1)
    zero = np.float32(0)
    run_unary(UnaryKind.SQUARE, lambda a: np.float32(a) * np.float32(a))
    run_unary(UnaryKind.INC, lambda a: np.float32(a) + one)
    run_unary(UnaryKind.DEC, lambda a: np.float32(a) - one)
    run_unary(UnaryKind.RELU, lambda a: max(np.float32(a), zero))

    def run_binary(kind, ref):
        nonlocal bad
        out = alloc(TensorDesc(m, n, m, DType.FP32))
        ops.apply_binary(kind, from_array(x), from_array(y), out)
        want = np.empty_like(x)
        for i in range(m):
            for j in range(n):
                want[i, j] = ref(x[i, j], y[i, j])
        if not _bits_equal(to_array(out), want):
            bad += 1

    run_binary(BinaryKind.ADD, lambda a, b: np.float32(a) + np.float32(b))
    run_binary(BinaryKind.SUB, lambda a, b: np.float32(a) - np.float32(b))
    run_binary(BinaryKind.MUL, lambda a, b: np.float32(a) * np.float32(b))
    run_binary(BinaryKind.MAX, lambda a, b: max(np.float32(a), np.float32(b)))
    run_binary(BinaryKind.MIN, lambda a, b: min(np.float32(a), np.float32(b)))

    out = alloc(TensorDesc(m, n, m, DType.FP32))
    c = rng.standard_normal((m, n)).astype(np.float32)
    ops.apply_ternary(TernaryKind.MULADD, from_array(x), from_array(y), from_array(c), out)
    want = np.empty_like(x)
    for i in range(m):
        for j in range(n):
            want[i, j] = np.float32(c[i, j]) + np.float32(x[i, j]) * np.float32(y[i, j])
    if not _bits_equal(to_array(out), want):
        bad += 1
    return CheckResult("ops-elementwise-scalar-oracle", bad == 0, bad, 0)


def check_backward_finite_diff(seed: int = 0) -> CheckResult:
    """TANH/SIGMOID/GELU backward kinds vs central differences of the forward
    approximation (FP64, step 1e-3, probes in [-3, 3] off interval seams)."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-3.0, 3.0, size=4000)
    # keep probes away from the half-binade seams so the difference quotient
    # never straddles two fitted cubics
    seams = np.array([f * 2.0 ** e for e in range(-7, 3) for f in (1.0, 1.5)])
    keep = np.all(np.abs(np.abs(pts)[:, None] - seams[None, :]) > 5e-3, axis=1)
    keep &= np.abs(pts) > 5e-3
    pts = pts[keep]
    h = 1e-3
    worst = 0.0
    # default selectors only: under the MINIMAX16 flag the backward rule
    # dy*(1 - tanh(x)^2) is deliberately not the derivative of the piecewise
    # cubic, so a difference quotient of that forward is the wrong yardstick
    cases = [
        (UnaryKind.TANH_INV, lambda v, s: approx.tanh(v, s), Approx.PADE78),
        (UnaryKind.SIGMOID_INV, lambda v, s: approx.sigmoid_via_tanh(v, s), Approx.PADE78),
        (UnaryKind.GELU_INV, lambda v, s: approx.gelu(v, s), Approx.MINIMAX16),
    ]
    for kind, fwd, sel in cases:
        fd = (fwd(pts + h, sel) - fwd(pts - h, sel)) / (2 * h)
        dy = from_array(np.ones((1, pts.size)))
        dy.secondary = pts.reshape(-1).copy()
        out = alloc(TensorDesc(1, pts.size, 1, DType.FP64))
        ops.apply_unary(kind, dy, out, approx_flag=sel)
        got = to_array(out)[0]
        denom = np.maximum(np.abs(fd), 1e-2)  # relative where the slope is meaningful
        worst = max(worst, float(np.max(np.abs(got - fd) / denom)))
    return CheckResult("ops-backward-finite-diff", worst <= 1e-3, worst, 1e-3)


_M32, _M64 = 0xFFFFFFFF, 0xFFFFFFFFFFFFFFFF


def _splitmix64(v: int) -> int:
    z = (v + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def xorshift_steps(x: int, y: int, z: int, w: int, steps: int) -> tuple[list[int], tuple]:
    """Marsaglia's xorshift128 in scalar 32-bit integer arithmetic: the
    words ``w`` of ``steps`` steps from the state (x, y, z, w), and the state
    they leave."""
    words = []
    for _ in range(steps):
        t = (x ^ (x << 11)) & _M32
        x, y, z = y, z, w
        w = (w ^ (w >> 19)) ^ (t ^ (t >> 8))
        words.append(w)
    return words, (x, y, z, w)


def xorshift_seed(seed: int, col: int) -> tuple[int, int, int, int]:
    """The documented state of stream ``col`` of ``PrngState(seed)``: a =
    splitmix64(seed XOR col), b = splitmix64(a), words (a low, a high, b low,
    b high), w = 1 if all four are zero."""
    a = _splitmix64((seed ^ col) & _M64)
    b = _splitmix64(a)
    x, y, z, w = a & _M32, a >> 32, b & _M32, b >> 32
    return x, y, z, w if x | y | z | w else 1


def _dropout_definition_mismatches(seed: int) -> int:
    """Two DROPOUT calls on one state, random x at a padded ld into a padded
    output, 37 rows (not a multiple of 8) and 21 streams (not a multiple of
    the C engine's block of 16), against the definition: stream c draws
    u = (w >> 8) * 2^-24 per row from its scalar recurrence, keeps x where
    u >= p as x * (1/(1-p)) in FP32, writes +0 elsewhere and sets bit i % 8
    of byte i / 8 of column c where kept; the state ends where the steps
    leave it.  Returns the number of mismatching calls and states."""
    rng = np.random.default_rng(seed)
    rows, cols, p = 37, 21, 0.3
    x = rng.standard_normal((rows, cols)).astype(np.float32)
    buf = np.zeros((rows + 3) * cols, np.float32)
    buf.reshape(cols, rows + 3)[:, :rows] = x.T
    v = tz.view_at(buf, 0, TensorDesc(rows, cols, rows + 3, DType.FP32))
    v.tertiary = {"prng": ops.PrngState(seed, cols)}
    starts = [xorshift_seed(seed, c) for c in range(cols)]
    scale = np.float32(1.0 / (1.0 - p))
    bad = 0
    for _ in range(2):
        out = alloc(TensorDesc(rows, cols, rows + 2, DType.FP32))
        ops.apply_unary(UnaryKind.DROPOUT, v, out, dropout_p=p)
        want = np.zeros((rows, cols), np.float32)
        mask = bytearray((rows + 7) // 8 * cols)
        for c in range(cols):
            words, starts[c] = xorshift_steps(*starts[c], rows)
            for i, w in enumerate(words):
                if np.float32((w >> 8) * 2.0 ** -24) >= np.float32(p):
                    want[i, c] = x[i, c] * scale
                    mask[c * ((rows + 7) // 8) + i // 8] |= 1 << (i % 8)
        bad += not (_bits_equal(to_array(out), want)
                    and bytes(out.secondary) == bytes(mask))
    state = v.tertiary["prng"].words
    bad += sum(tuple(int(word) for word in state[:, c]) != starts[c] for c in range(cols))
    return bad


def check_dropout(seed: int = 7) -> CheckResult:
    """Keep rate within 3 sigma of 1-p over 10^6 draws; same seed gives the
    same mask and values; and the masks, values and states of two calls
    equal the definition, computed from the scalar recurrence."""
    m = n = 1000
    worst = 0.0
    off = _dropout_definition_mismatches(seed)
    ok = off == 0
    x = np.ones((m, n), dtype=np.float32)
    for p in (0.1, 0.5, 0.9):
        masks = []
        for _ in range(2):
            v = from_array(x)
            v.tertiary = {"prng": ops.PrngState(seed, n)}
            out = alloc(TensorDesc(m, n, m, DType.FP32))
            ops.apply_unary(UnaryKind.DROPOUT, v, out, dropout_p=p)
            masks.append((tz.mask_to_bool(out.secondary, m, n), to_array(out)))
        same = np.array_equal(masks[0][0], masks[1][0]) and _bits_equal(masks[0][1], masks[1][1])
        ok &= same
        keep, vals = masks[0]
        rate = keep.mean()
        sigma = math.sqrt(p * (1 - p) / (m * n))
        worst = max(worst, abs(rate - (1 - p)) / (3 * sigma))
        ok &= bool(np.all(vals[~keep] == 0))
        ok &= _bits_equal(vals[keep], np.full(int(keep.sum()), np.float32(1 / (1 - p))))
    return CheckResult("ops-dropout-stats", ok and worst <= 1.0, worst, 1.0,
                       f"worst |rate-(1-p)| in units of 3 sigma; {off} calls or states "
                       "off the definition")


def check_gather_scatter_permutation(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(20):
        m, n = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        x = rng.standard_normal((m, n)).astype(np.float32)
        perm = rng.permutation(n)
        xv = from_array(x)
        g = alloc(TensorDesc(m, n, m, DType.FP32))
        ops.gather_scatter(xv, perm, GatherMode.GATHER_COLS, g)
        s = alloc(TensorDesc(m, n, m, DType.FP32))
        ops.gather_scatter(g, perm, GatherMode.SCATTER_COLS, s)
        if not _bits_equal(to_array(s), x):
            bad += 1
    return CheckResult("ops-gather-scatter-permutation", bad == 0, bad, 0)


def check_transpose(seed: int = 0) -> CheckResult:
    """Transpose is an involution; the shuffle network equals it on 4/8/16."""
    rng = np.random.default_rng(seed)
    bad = 0
    for m, n in ((3, 7), (8, 2), (5, 5)):
        x = rng.standard_normal((m, n)).astype(np.float32)
        t1 = alloc(TensorDesc(n, m, n, DType.FP32))
        ops.transform(from_array(x), ops.TransformSpec(ops.TransformKind.TRANSPOSE), t1)
        t2 = alloc(TensorDesc(m, n, m, DType.FP32))
        ops.transform(t1, ops.TransformSpec(ops.TransformKind.TRANSPOSE), t2)
        if not _bits_equal(to_array(t2), x):
            bad += 1
    for k in (4, 8, 16):
        x = rng.standard_normal((k, k)).astype(np.float32)
        o1 = alloc(TensorDesc(k, k, k, DType.FP32))
        ops.shuffle_network_transpose(from_array(x), o1)
        if not _bits_equal(to_array(o1), x.T.copy()):
            bad += 1
    return CheckResult("ops-transpose", bad == 0, bad, 0)


def check_prng_recurrence(seed: int = 5) -> CheckResult:
    """Vectorised xorshift128, one step at a time and a block of steps at
    once, matches a scalar reference recurrence: each step's word, each
    block row's (w >> 8) * 2^-24, and the state the steps leave."""
    st, blk = ops.PrngState(seed, 3), ops.PrngState(seed, 3)
    got = [int(st.step()[1]) for _ in range(64)]
    uniforms = blk.uniform_block(64)[:, 1]
    want, (x, y, z, w) = xorshift_steps(*xorshift_seed(seed, 1), 64)
    bad = sum(a != b for a, b in zip(got, want))
    bad += sum(float(u) != (v >> 8) * 2.0 ** -24 for u, v in zip(uniforms, want))
    bad += sum(int(getattr(p, word)[1]) != v for p in (st, blk)
               for word, v in zip("xyzw", (x, y, z, w)))
    return CheckResult("ops-prng-recurrence", bad == 0, bad, 0)


def check_quantize_roundtrip(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3, 3, size=(16, 16)).astype(np.float32)
    xv = from_array(x)
    q = alloc(TensorDesc(16, 16, 16, DType.INT8))
    ops.apply_unary(UnaryKind.QUANTIZE, xv, q)
    d = alloc(TensorDesc(16, 16, 16, DType.FP32))
    ops.apply_unary(UnaryKind.DEQUANTIZE, q, d)
    scale = q.tertiary["scale"]
    err = float(np.max(np.abs(to_array(d) - x)))
    return CheckResult("ops-quantize-roundtrip", err <= scale / 2 + 1e-9, err, scale / 2)


def reduce_oracle(x: np.ndarray, axis: ReduceAxis, op: ReduceOp) -> np.ndarray:
    """The documented reduction order of an FP32 or FP64 ``x`` in scalar
    loops: ROWS folds each row in ascending column order, COLS each column
    in ascending row order, ALL each column in ascending row order and then
    those partials in ascending column order.  SUM folds from +0, MUL from
    1, MIN and MAX from the first element, by plain comparisons that keep a
    NaN and return the second operand on a tie.  Returns the reduced shape,
    in ``x``'s dtype."""
    comb = {ReduceOp.SUM: np.add, ReduceOp.MUL: np.multiply,
            ReduceOp.MIN: lambda a, b: a if a < b or a != a else b,
            ReduceOp.MAX: lambda a, b: a if a > b or a != a else b}[op]
    start = {ReduceOp.SUM: x.dtype.type(0), ReduceOp.MUL: x.dtype.type(1)}.get(op)

    def fold(values):
        values = list(values)
        acc = values.pop(0) if start is None else start
        for v in values:
            acc = comb(acc, v)
        return acc

    rows, cols = x.shape
    if axis is ReduceAxis.ROWS:
        return np.array([[fold(x[i, j] for j in range(cols))] for i in range(rows)], x.dtype)
    per_col = [fold(x[i, j] for i in range(rows)) for j in range(cols)]
    return np.array([per_col] if axis is ReduceAxis.COLS else [[fold(per_col)]], x.dtype)


def check_reduce_determinism(seed: int = 0) -> CheckResult:
    """ALL, ROWS and COLS reductions with SUM and MAX equal the ascending
    scalar-loop oracle, bitwise."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((33, 29)).astype(np.float32)
    bad = 0
    for axis in (ReduceAxis.ALL, ReduceAxis.ROWS, ReduceAxis.COLS):
        for op in (ReduceOp.SUM, ReduceOp.MAX):
            want = reduce_oracle(x, axis, op)
            o = alloc(TensorDesc(*want.shape, want.shape[0], DType.FP32))
            ops.reduce(from_array(x), ReduceSpec(axis, op), o)
            bad += not _bits_equal(to_array(o), want)
    return CheckResult("ops-reduce-determinism", bad == 0, bad, 0)


# ---------------------------------------------------------------------------
# gemm checks
# ---------------------------------------------------------------------------

def _colmajor_flat(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, order="F").reshape(-1, order="F").copy()


def _random_operands(rng, m, n, k, count, dtype: DType):
    if dtype is DType.INT8:
        a = rng.integers(-100, 100, size=(m, k * count), dtype=np.int8)
        b = rng.integers(-100, 100, size=(k, n * count), dtype=np.int8)
    elif dtype is DType.BF16:
        a = fp32_to_bf16_rne(rng.standard_normal((m, k * count)).astype(np.float32))
        b = fp32_to_bf16_rne(rng.standard_normal((k, n * count)).astype(np.float32))
    else:
        a = rng.standard_normal((m, k * count)).astype(dtype.storage)
        b = rng.standard_normal((k, n * count)).astype(dtype.storage)
    return _colmajor_flat(a), _colmajor_flat(b)


def _pinned_order_oracle(af: np.ndarray, bf: np.ndarray, m: int, n: int, k: int,
                         count: int, dtype: DType, acc: DType) -> np.ndarray:
    """The documented contraction order with beta = 0, re-derived here from
    the consecutive column-major blocks of ``af`` and ``bf``: each entry's
    partial from zero along ascending k, the partials folded onto zero in
    ascending batch order."""
    if dtype is DType.BF16:
        af, bf = bf16_to_fp32(af), bf16_to_fp32(bf)
    af, bf = af.astype(acc.storage), bf.astype(acc.storage)
    out = np.zeros((m, n), dtype=acc.storage)
    with np.errstate(all="ignore"):
        for i in range(count):
            a = af[i * m * k:(i + 1) * m * k].reshape(k, m).T
            b = bf[i * k * n:(i + 1) * k * n].reshape(n, k).T
            part = np.zeros((m, n), dtype=acc.storage)
            for kk in range(k):
                part += a[:, kk, None] * b[None, kk, :]
            out += part
    return out


def check_brgemm_variants(seed: int = 0, cases: int = 200) -> CheckResult:
    """ADDRESS == OFFSET == STRIDE == the pinned-order oracle, bitwise; n=1,
    beta=1 equals plain GEMM."""
    rng = np.random.default_rng(seed)
    bad = 0
    for dtype in (DType.FP64, DType.FP32, DType.BF16, DType.INT8):
        acc = {DType.FP64: DType.FP64, DType.INT8: DType.INT32}.get(dtype, DType.FP32)
        for _ in range(cases):
            m, n, k = (int(rng.integers(1, 33)) for _ in range(3))
            cnt = int(rng.integers(1, 9))
            af, bf = _random_operands(rng, m, n, k, cnt, dtype)
            spec = gemm_engine.GemmSpec(m, n, k, m, k, m, in_dtype=dtype,
                                        out_dtype=acc, beta=0.0)
            a_offs = [i * k * m for i in range(cnt)]
            b_offs = [i * n * k for i in range(cnt)]
            batches = [
                gemm_engine.BrgemmBatch.address([(af, o) for o in a_offs],
                                                [(bf, o) for o in b_offs]),
                gemm_engine.BrgemmBatch.offset(af, bf, a_offs, b_offs),
                gemm_engine.BrgemmBatch.stride(af, bf, k * m, n * k, cnt),
            ]
            outs = []
            for b in batches:
                c = alloc(TensorDesc(m, n, m, acc))
                gemm_engine.brgemm(spec, b, c)
                outs.append(np.array(c.as2d()))
            want = _pinned_order_oracle(af, bf, m, n, k, cnt, dtype, acc)
            if not all(_bits_equal(out, want) for out in outs):
                bad += 1
        # n=1 with beta=1 equals gemm with beta=1
        m, n, k = 5, 4, 6
        af, bf = _random_operands(rng, m, n, k, 1, dtype)
        spec = gemm_engine.GemmSpec(m, n, k, m, k, m, in_dtype=dtype, out_dtype=acc, beta=1.0)
        c0 = rng.standard_normal((m, n)).astype(acc.storage) if acc is not DType.INT32 \
            else rng.integers(-50, 50, size=(m, n)).astype(np.int32)
        c1 = from_array(c0.copy())
        c2 = from_array(c0.copy())
        gemm_engine.brgemm(spec, gemm_engine.BrgemmBatch.address([(af, 0)], [(bf, 0)]), c1)
        gemm_engine.gemm(spec, (af, 0), (bf, 0), c2)
        if not _bits_equal(np.array(c1.as2d()), np.array(c2.as2d())):
            bad += 1
    return CheckResult("gemm-variant-equivalence", bad == 0, bad, 0)


def check_tiling_invariance(seed: int = 0) -> CheckResult:
    """One brgemm call over all of C equals, bitwise, the pinned-order oracle
    and C computed by the caller as m_b x n_b tiles, one call per tile, with
    the tiles run in order and from 4 concurrent threads."""
    rng = np.random.default_rng(seed)
    m, n, k, cnt = 37, 23, 29, 4
    bad = 0
    for dtype in (DType.FP32, DType.FP64, DType.BF16):
        acc = DType.FP64 if dtype is DType.FP64 else DType.FP32
        af, bf = _random_operands(rng, m, n, k, cnt, dtype)
        whole = alloc(TensorDesc(m, n, m, acc))
        gemm_engine.brgemm(gemm_engine.GemmSpec(m, n, k, m, k, m, in_dtype=dtype, out_dtype=acc),
                           gemm_engine.BrgemmBatch.stride(af, bf, k * m, n * k, cnt), whole)
        if not _bits_equal(whole.as2d(), _pinned_order_oracle(af, bf, m, n, k, cnt, dtype, acc)):
            bad += 1
        for m_b, n_b in ((m, n), (1, 1), (8, 3), (37, 23), (5, 16), (16, 2)):
            for threads in (1, 4):
                c = alloc(TensorDesc(m, n, m, acc))

                def tile(start):
                    i0, j0 = start
                    mb, nb = min(m_b, m - i0), min(n_b, n - j0)
                    spec = gemm_engine.GemmSpec(mb, nb, k, m, k, m, in_dtype=dtype,
                                                out_dtype=acc)
                    batch = gemm_engine.BrgemmBatch.stride((af, i0), (bf, j0 * k),
                                                           k * m, n * k, cnt)
                    gemm_engine.brgemm(spec, batch, c.row_block(i0, mb).col_block(j0, nb))

                starts = [(i0, j0) for j0 in range(0, n, n_b) for i0 in range(0, m, m_b)]
                with ThreadPoolExecutor(max_workers=threads) as pool:
                    list(pool.map(tile, starts))
                if not _bits_equal(whole.as2d(), c.as2d()):
                    bad += 1
    return CheckResult("gemm-tiling-invariance", bad == 0, bad, 0)


def check_bf16_emulation(seed: int = 0, cases: int = 200) -> CheckResult:
    """EMULATED_SPLIT == NATIVE bitwise, including subnormal/NaN patterns;
    on the non-adversarial cases both also equal the pinned-order oracle."""
    rng = np.random.default_rng(seed)
    bad = 0
    for case in range(cases):
        m, n, k = (int(rng.integers(1, 17)) for _ in range(3))
        cnt = int(rng.integers(1, 5))
        if case % 4 == 0:
            # adversarial bit patterns: subnormals, NaNs, infs, zeros
            a = rng.integers(0, 1 << 16, size=(m, k * cnt), dtype=np.uint16)
            b = fp32_to_bf16_rne(rng.standard_normal((k, n * cnt)).astype(np.float32))
            af, bf = _colmajor_flat(a), _colmajor_flat(b)
        else:
            af, bf = _random_operands(rng, m, n, k, cnt, DType.BF16)
        outs = []
        for path in (gemm_engine.ComputePath.NATIVE, gemm_engine.ComputePath.EMULATED_SPLIT):
            spec = gemm_engine.GemmSpec(m, n, k, m, k, m, in_dtype=DType.BF16,
                                        out_dtype=DType.FP32, beta=0.0, compute_path=path)
            batch = gemm_engine.BrgemmBatch.stride(af, bf, k * m, n * k, cnt)
            c = alloc(TensorDesc(m, n, m, DType.FP32))
            gemm_engine.brgemm(spec, batch, c)
            outs.append(np.array(c.as2d()))
        if not _bits_equal(outs[0], outs[1]):
            bad += 1
        elif case % 4 and not _bits_equal(
                outs[0], _pinned_order_oracle(af, bf, m, n, k, cnt, DType.BF16, DType.FP32)):
            bad += 1
    return CheckResult("gemm-bf16-emulation", bad == 0, bad, 0)


def check_vnni(seed: int = 0) -> CheckResult:
    """VNNI pack/unpack is a bijection; GEMM on VNNI A equals plain A, and
    both equal the pinned-order oracle."""
    rng = np.random.default_rng(seed)
    bad = 0
    for dtype, alpha in ((DType.BF16, 2), (DType.INT8, 4)):
        acc = DType.INT32 if dtype is DType.INT8 else DType.FP32
        for _ in range(50):
            m, n = int(rng.integers(1, 17)), int(rng.integers(1, 17))
            k = int(rng.integers(1, 17))
            if dtype is DType.INT8:
                a = rng.integers(-100, 100, size=(m, k), dtype=np.int8)
                b = rng.integers(-100, 100, size=(k, n), dtype=np.int8)
            else:
                a = fp32_to_bf16_rne(rng.standard_normal((m, k)).astype(np.float32))
                b = fp32_to_bf16_rne(rng.standard_normal((k, n)).astype(np.float32))
            packed = tz.vnni_pack_a(a, alpha)
            if not _bits_equal(tz.vnni_unpack_a(packed, alpha, m, k), a):
                bad += 1
                continue
            af, bf = _colmajor_flat(a), _colmajor_flat(b)
            cp = alloc(TensorDesc(m, n, m, acc))
            gemm_engine.gemm(gemm_engine.GemmSpec(m, n, k, m, k, m, in_dtype=dtype,
                                                  out_dtype=acc),
                             (af, 0), (bf, 0), cp)
            cv = alloc(TensorDesc(m, n, m, acc))
            gemm_engine.gemm(gemm_engine.GemmSpec(m, n, k, m, k, m, in_dtype=dtype,
                                                  out_dtype=acc,
                                                  a_layout=gemm_engine.ALayout.VNNI),
                             (packed, 0), (bf, 0), cv)
            want = _pinned_order_oracle(af, bf, m, n, k, 1, dtype, acc)
            if not (_bits_equal(cp.as2d(), want) and _bits_equal(cv.as2d(), want)):
                bad += 1
    return CheckResult("gemm-vnni", bad == 0, bad, 0)


def check_int8_oracle(seed: int = 0) -> CheckResult:
    """INT8 path against a widening scalar oracle (INT32 accumulate)."""
    rng = np.random.default_rng(seed)
    m, n, k = 7, 5, 9
    a = rng.integers(-128, 128, size=(m, k), dtype=np.int8)
    b = rng.integers(-128, 128, size=(k, n), dtype=np.int8)
    c = alloc(TensorDesc(m, n, m, DType.INT32))
    gemm_engine.gemm(gemm_engine.GemmSpec(m, n, k, m, k, m, in_dtype=DType.INT8,
                                          out_dtype=DType.INT32),
                     (_colmajor_flat(a), 0), (_colmajor_flat(b), 0), c)
    want = np.zeros((m, n), dtype=np.int32)
    for i in range(m):
        for j in range(n):
            acc = np.int32(0)
            for kk in range(k):
                acc = np.int32(acc + np.int32(a[i, kk]) * np.int32(b[kk, j]))
            want[i, j] = acc
    ok = _bits_equal(np.array(c.as2d()), want)
    return CheckResult("gemm-int8-oracle", ok, int(not ok), 0)


def check_gemm_linearity(seed: int = 0) -> CheckResult:
    """brgemm over {(A,B),(A,B)} with beta=0 equals 2*gemm(A,B) in FP64, and
    gemm(A,B) equals the pinned-order oracle."""
    rng = np.random.default_rng(seed)
    m = n = k = 8
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    af, bf = _colmajor_flat(a), _colmajor_flat(b)
    spec = gemm_engine.GemmSpec(m, n, k, m, k, m, in_dtype=DType.FP64, out_dtype=DType.FP64)
    c2 = alloc(TensorDesc(m, n, m, DType.FP64))
    gemm_engine.brgemm(spec, gemm_engine.BrgemmBatch.address([(af, 0)] * 2, [(bf, 0)] * 2), c2)
    c1 = alloc(TensorDesc(m, n, m, DType.FP64))
    gemm_engine.gemm(spec, (af, 0), (bf, 0), c1)
    ok = (_bits_equal(np.array(c2.as2d()), 2.0 * np.array(c1.as2d()))
          and _bits_equal(c1.as2d(), _pinned_order_oracle(af, bf, m, n, k, 1, DType.FP64,
                                                          DType.FP64)))
    return CheckResult("gemm-linearity", ok, int(not ok), 0,
                       "x+x == 2*x exactly in IEEE")


# ---------------------------------------------------------------------------
# approximation budget checks
# ---------------------------------------------------------------------------

def check_pade_budget(seed: int = 0) -> CheckResult:
    g = np.linspace(-5, 5, 1_000_001).astype(np.float32)
    err = float(np.max(np.abs(approx.tanh_pade78(g).astype(np.float64) -
                              np.tanh(g.astype(np.float64)))))
    return CheckResult("approx-pade-tanh", err <= approx.PADE_TANH_MAX_ABS_ERR,
                       err, approx.PADE_TANH_MAX_ABS_ERR)


def check_minimax_budget(seed: int = 0) -> CheckResult:
    g = np.linspace(-4, 4, 1_000_001).astype(np.float32)
    err = float(np.max(np.abs(approx.minimax_eval(approx.TANH_MINIMAX, g).astype(np.float64)
                              - np.tanh(g.astype(np.float64)))))
    return CheckResult("approx-minimax-tanh", err <= approx.MINIMAX_TANH_MAX_ABS_ERR,
                       err, approx.MINIMAX_TANH_MAX_ABS_ERR)


def check_exp_budget(seed: int = 0) -> CheckResult:
    g = np.linspace(-10, 10, 1_000_001).astype(np.float32)
    rel = float(np.max(np.abs(approx.exp_taylor(g).astype(np.float64) /
                              np.exp(g.astype(np.float64)) - 1.0)))
    return CheckResult("approx-exp-taylor", rel <= approx.EXP_MAX_REL_ERR,
                       rel, approx.EXP_MAX_REL_ERR)


def check_sigmoid_budget(seed: int = 0) -> CheckResult:
    """Sigmoid error stays within 1.1x half the underlying tanh error (the
    identity halves the argument and scales the error by 1/2)."""
    g = np.linspace(-10, 10, 1_000_001).astype(np.float32)
    ref = 1.0 / (1.0 + np.exp(-g.astype(np.float64)))
    err = float(np.max(np.abs(approx.sigmoid_via_tanh(g).astype(np.float64) - ref)))
    budget = approx.SIGMOID_BUDGET_FACTOR * approx.PADE_TANH_MAX_ABS_ERR
    return CheckResult("approx-sigmoid-identity", err <= budget, err, budget)


def check_approx_bounds(seed: int = 0) -> CheckResult:
    """Range and monotonicity of the fitted activations on the test grid.

    The piecewise cubics are discontinuous by up to twice the per-interval
    fit error at the half-binade seams, so monotonicity there is enforced
    with a slack of the table budget; the smooth rational forms only get a
    few ulps of float32 evaluation noise.
    """
    g = np.linspace(-8, 8, 200_001).astype(np.float32)
    worst = 0.0
    ok = True
    for f, lo, hi, slack in (
            (approx.tanh_pade78, -1.0, 1.0, 5e-7),
            (lambda v: approx.minimax_eval(approx.TANH_MINIMAX, v), -1.0, 1.0,
             approx.MINIMAX_TANH_MAX_ABS_ERR),
            (approx.sigmoid_via_tanh, 0.0, 1.0, 5e-7)):
        y = f(g).astype(np.float64)
        ok &= bool(np.all(y >= lo - 1e-7) and np.all(y <= hi + 1e-7))
        dip = float(max(0.0, -np.min(np.diff(y))))
        worst = max(worst, dip - slack)
        ok &= dip <= slack
    ok &= bool(np.all(approx.exp_taylor(g) > 0))
    return CheckResult("approx-bounds-monotonic", ok, worst, 0,
                       "largest monotonicity dip beyond the allowed seam slack")


# ---------------------------------------------------------------------------
# equation checks and oracles
# ---------------------------------------------------------------------------

def score_oracle(tree: eqn.EqTree) -> dict[int, int]:
    """Independent register-score computation: one pass over the post-order
    node list, from scratch, instead of the builder's node-by-node scoring."""
    scores: dict[int, int] = {}
    for n in tree.nodes():
        if n.is_leaf:
            scores[n.node_id] = 0
            continue
        cs = [scores[c.node_id] for c in n.children]
        leaves = [c.is_leaf for c in n.children]
        if len(cs) == 1:
            scores[n.node_id] = 1 if leaves[0] else cs[0]
        elif len(cs) == 2:
            scores[n.node_id] = cs[0] + 1 if cs[0] == cs[1] else max(cs)
        else:
            scores[n.node_id] = 1 if all(leaves) else max(3, *cs)
    return scores


def min_temp_slots(tree: eqn.EqTree) -> int:
    """Minimum live temporaries over ALL evaluation orders with greedy slot
    recycling, by dynamic programming over the lattice of completed-node
    subsets (a node is executable once its children are done; at execution
    its children's slots are freed before its own is taken, so the slot
    count of an order is its peak number of unconsumed outputs)."""
    internal = tree.internal_nodes()
    n = len(internal)
    if n == 0:
        return 0
    if n > 20:
        raise ValueError("brute-force oracle is for small trees")
    idx = {node.node_id: i for i, node in enumerate(internal)}
    kids = [[idx[c.node_id] for c in node.children if not c.is_leaf]
            for node in internal]
    parent = [None] * n
    for i, node in enumerate(internal):
        for c in node.children:
            if not c.is_leaf:
                parent[idx[c.node_id]] = i
    kid_mask = [0] * n
    for i, ks in enumerate(kids):
        for c in ks:
            kid_mask[i] |= 1 << c

    full = (1 << n) - 1
    best = {0: 0}
    order = sorted(range(full + 1), key=lambda s: bin(s).count("1"))

    def live(state: int) -> int:
        cnt = 0
        for i in range(n):
            if state >> i & 1 and (parent[i] is None or not state >> parent[i] & 1):
                cnt += 1
        return cnt

    for s in order:
        if s not in best:
            continue
        base = best[s]
        for i in range(n):
            if s >> i & 1:
                continue
            if (s & kid_mask[i]) != kid_mask[i]:
                continue
            t = s | (1 << i)
            peak = max(base, live(t))
            if peak < best.get(t, 1 << 30):
                best[t] = peak
    return best[full]


def random_score_tree(rng, max_internal: int = 9) -> eqn.EqTree:
    """Random tree of elementwise ops for planner checks (shape-uniform)."""
    d = TensorDesc(4, 4, 4, DType.FP32)
    b = eqn.TreeBuilder([d])
    target = int(rng.integers(1, max_internal + 1))
    count = [0]

    def gen(depth: int) -> eqn.EqNode:
        if count[0] >= target or (depth > 2 and rng.random() < 0.4):
            return b.leaf(0)
        count[0] += 1
        r = rng.random()
        if r < 0.3:
            return b.unary(UnaryKind.TANH, gen(depth + 1))
        if r < 0.8:
            return b.binary(BinaryKind.ADD, gen(depth + 1), gen(depth + 1))
        return b.ternary(TernaryKind.MULADD, gen(depth + 1), gen(depth + 1), gen(depth + 1))

    root = gen(0)
    if root.is_leaf:
        root = b.unary(UnaryKind.RELU, root)
    return b.tree(root)


def check_worked_example(seed: int = 0) -> CheckResult:
    """The canonical five-op example: root score 2, exactly 2 temp slots."""
    d = TensorDesc(4, 4, 4, DType.FP32)
    plan = eqn.plan_equation("tanh(T0) + (T1 matmul T2) / (T3 - T4)", [d] * 5)
    ok = plan.tree.root.score == 2 and plan.temp_count == 2
    return CheckResult("equation-worked-example", ok,
                       f"score={plan.tree.root.score} temps={plan.temp_count}",
                       "score=2 temps=2")


def check_score_crosscheck(seed: int = 0, trees: int = 10_000) -> CheckResult:
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(trees):
        t = random_score_tree(rng)
        oracle = score_oracle(t)
        for node in t.nodes():
            if node.score != oracle[node.node_id]:
                bad += 1
                break
    return CheckResult("equation-score-crosscheck", bad == 0, bad, 0,
                       f"{trees} random trees")


def check_plan_validity(seed: int = 0, trees: int = 2000) -> CheckResult:
    """Replay step bindings: every temp read sees the value its child wrote,
    with no intervening recycle-and-rewrite."""
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(trees):
        t = random_score_tree(rng)
        plan = eqn.create_execution_plan(t)
        step_of = {s.node: s for s in plan.steps}
        holder: dict[int, int] = {}
        ok = True
        for s in plan.steps:
            for c, (kind, ref) in zip(s.node.children, s.inputs):
                if kind == "tmp" and holder.get(ref) != c.node_id:
                    ok = False
            for c in s.node.children:
                if not c.is_leaf and holder.get(step_of[c].output[1]) == c.node_id:
                    del holder[step_of[c].output[1]]
            holder[s.output[1]] = s.node.node_id
        # timestamps must order children before parents
        for s in plan.steps:
            for c in s.node.children:
                if not c.is_leaf and step_of[c].timestamp >= s.timestamp:
                    ok = False
        if not ok:
            bad += 1
    return CheckResult("equation-plan-validity", bad == 0, bad, 0, f"{trees} random trees")


def check_minimality(seed: int = 0, trees: int = 1000, max_nodes: int = 9) -> CheckResult:
    """Planner temp_count equals the brute-force minimum over all evaluation
    orders, for random trees with at most ``max_nodes`` internal nodes."""
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(trees):
        t = random_score_tree(rng, max_internal=max_nodes)
        plan = eqn.create_execution_plan(t)
        if plan.temp_count != min_temp_slots(t):
            bad += 1
    return CheckResult("equation-minimality", bad == 0, bad, 0,
                       f"{trees} trees, <= {max_nodes} internal nodes")


def random_equation(rng, dtype: DType, rows: int = 4, cols: int = 4):
    """Random well-shaped equation over fresh argument slots, together with
    matching random argument arrays."""
    descs: list[TensorDesc] = []

    def new_leaf(r, c):
        descs.append(TensorDesc(r, c, r, dtype))
        return len(descs) - 1

    leaf_slots: list[int] = []

    def gen(r, c, depth):
        roll = rng.random()
        if depth >= 3 or roll < 0.25:
            slot = new_leaf(r, c)
            leaf_slots.append(slot)
            return ("leaf", slot)
        if roll < 0.45:
            kind = rng.choice([UnaryKind.TANH, UnaryKind.SIGMOID, UnaryKind.EXP,
                               UnaryKind.RELU, UnaryKind.SQUARE, UnaryKind.GELU,
                               UnaryKind.INC])
            return ("un", kind, gen(r, c, depth + 1))
        if roll < 0.75:
            kind = rng.choice([BinaryKind.ADD, BinaryKind.SUB, BinaryKind.MUL,
                               BinaryKind.MAX, BinaryKind.MIN])
            shape2 = (r, c)
            r2 = rng.random()
            if r2 < 0.15:
                shape2 = (1, 1)
            elif r2 < 0.25:
                shape2 = (r, 1)
            elif r2 < 0.35:
                shape2 = (1, c)
            return ("bin", kind, gen(r, c, depth + 1), gen(*shape2, depth + 1))
        if roll < 0.85:
            kk = int(rng.integers(2, 5))
            return ("mm", gen(r, kk, depth + 1), gen(kk, c, depth + 1))
        if roll < 0.95:
            return ("tern", rng.choice([TernaryKind.MULADD, TernaryKind.NMULADD]),
                    gen(r, c, depth + 1), gen(r, c, depth + 1), gen(r, c, depth + 1))
        ax = rng.choice([ReduceAxis.ALL, ReduceAxis.ROWS, ReduceAxis.COLS])
        opr = rng.choice([ReduceOp.SUM, ReduceOp.MAX])
        inner = gen(r, c, depth + 1)
        red = ("red", ReduceSpec(ax, opr), inner, r, c)
        # reduces feed an elementwise join so the root keeps its shape
        return ("bin", BinaryKind.ADD, gen(r, c, depth + 1), red)

    shape_tree = gen(rows, cols, 0)

    def build(b: eqn.TreeBuilder, t):
        tag = t[0]
        if tag == "leaf":
            return b.leaf(t[1])
        if tag == "un":
            return b.unary(t[1], build(b, t[2]))
        if tag == "bin":
            return b.binary(t[1], build(b, t[2]), build(b, t[3]))
        if tag == "mm":
            return b.binary(BinaryKind.MATMUL, build(b, t[1]), build(b, t[2]))
        if tag == "tern":
            return b.ternary(t[1], build(b, t[2]), build(b, t[3]), build(b, t[4]))
        return b.unary(UnaryKind.REDUCE, build(b, t[2]), reduce=t[1])

    builder = eqn.TreeBuilder(descs)
    root = build(builder, shape_tree)
    if root.is_leaf:
        root = builder.unary(UnaryKind.TANH, root)
    tree = builder.tree(root)
    args = []
    for d in descs:
        vals = rng.uniform(0.2, 1.5, size=(d.rows, d.cols)).astype(d.dtype.storage)
        args.append(from_array(vals, d.dtype))
    return tree, args


def kernel_trees(rng) -> list[tuple[str, eqn.ExecPlan, list]]:
    """The trees of the composite kernels, each with arguments: softmax's
    two (16 x 64 in 4 slices of 16 x 16; random x, and a random exp in
    [0, 1), each with the 1.0 constant), then layernorm (16 x 64, one
    group per row) and GROUPNORM (16 x 64 in 4 groups), each with random x,
    its constants, and G and B broadcast per channel."""
    num, scale, one = kernels._softmax_plans(16, 4, 16, DType.FP32)
    x = from_array((4.0 * rng.standard_normal((16, 64))).astype(np.float32))
    e = from_array(rng.random((16, 64), dtype=np.float32))
    trees = [("softmax-num-tree", num, [x, one]), ("softmax-den-tree", scale, [e, one])]
    for name, groups in (("layernorm-tree", 16), ("groupnorm-tree", 4)):
        plan, consts = kernels._norm_plan(16, 64, groups, 1e-5, DType.FP32)
        gb = [broadcast(from_array(rng.standard_normal((16, 1)).astype(np.float32)),
                        Bcast.COL, 16, 64) for _ in range(2)]
        x = from_array(rng.standard_normal((16, 64)).astype(np.float32))
        trees.append((name, plan, [x, *consts, *gb]))
    return trees


def _evaluate_tiled(plan, strategy, args, budget: int) -> np.ndarray:
    """``plan`` evaluated under ``strategy`` with ``equation._TILE_BLOCK_BYTES``
    set to ``budget`` (restored on leaving, also when evaluation raises)."""
    got = alloc(plan.out_desc)
    saved, eqn._TILE_BLOCK_BYTES = eqn._TILE_BLOCK_BYTES, budget
    try:
        eqn.evaluate(plan, strategy, args, got)
    finally:
        eqn._TILE_BLOCK_BYTES = saved
    return to_array(got)


def check_fusion_fidelity(seed: int = 0, equations: int = 1000) -> CheckResult:
    """BUFFERED (its lowered C program where C runs), BUFFERED step by step
    (a ``step_hook`` selects that path), TILE_FUSED (where legal), HYBRID
    and naive per-node evaluation agree bitwise over FP32 and FP64 inputs,
    for random equations and the trees of the composite kernels
    (``kernel_trees``).
    The tiled strategies run at the default block budget, where a small
    equation's region is one block, and at one tile per block (budget 1),
    where the 2 x 2 tiles cut every region.  The detail counts the FP32 and
    FP64 steps lowered into programs, so a program path that ran nothing
    would show."""
    rng = np.random.default_rng(seed)
    bad = 0
    fused_seen = 0
    lowered = 0
    per_step = lambda step, dead: None
    cases = [(plan, args) for _, plan, args in kernel_trees(np.random.default_rng([seed, 1]))]
    for i in range(equations):
        dtype = DType.FP64 if i % 2 else DType.FP32
        tree, args = random_equation(rng, dtype)
        cases.append((eqn.create_execution_plan(tree), args))
    for plan, args in cases:
        tree = plan.tree
        od = plan.out_desc
        ref = alloc(od)
        eqn.evaluate_naive(tree, args, ref)
        refa = to_array(ref)
        got = alloc(od)
        eqn.evaluate(plan, eqn.Buffered(), args, got)
        lowered += sum([r.steps for r in plan.program.schedule if type(r) is eqn.Run])
        got_s = alloc(od)
        eqn.evaluate(plan, eqn.Buffered(), args, got_s, step_hook=per_step)
        if not (_bits_equal(to_array(got), refa) and _bits_equal(to_array(got_s), refa)):
            bad += 1
            continue
        tiled = [eqn.Hybrid(2, 2)]
        if all(s.node.fusable() for s in plan.steps):
            fused_seen += 1
            tiled.append(eqn.TileFused(2, 2))
        if not all(_bits_equal(_evaluate_tiled(plan, strategy, args, budget), refa)
                   for budget in (eqn._TILE_BLOCK_BYTES, 1) for strategy in tiled):
            bad += 1
    return CheckResult("equation-fusion-fidelity", bad == 0, bad, 0,
                       f"{equations} equations and the softmax, layernorm and groupnorm "
                       f"trees, {fused_seen} tile-fusable, {lowered} steps lowered, program "
                       f"on {native.backend()}")


def check_temp_bytes_metric(seed: int = 0) -> CheckResult:
    """Softmax, batchnorm scaling, layernorm and groupnorm plans, the worked
    example and the first two seeded
    random equations whose plans recycle a slot, one whose intermediates
    all have one size and one whose slots differ in size: temp_bytes <=
    naive materialisation, strictly less whenever the plan recycled a slot.
    Over all 1000 random plans, temp_bytes (each slot charged at its
    largest occupant) never exceeds naive."""
    ok = True
    details = []
    plans = []
    plans.append(("batchnorm-scale", kernels._scaling_plan(16, 64, DType.FP32)))
    plans += [(name, plan) for name, plan, _ in kernel_trees(np.random.default_rng(seed))]
    sq = TensorDesc(16, 16, 16, DType.FP32)
    wk = eqn.plan_equation("tanh(T0) + (T1 matmul T2) / (T3 - T4)", [sq] * 5)
    plans.append(("worked-example", wk))
    rng = np.random.default_rng(seed)
    one = mixed = None
    over = 0
    for draw in range(1000):
        p = eqn.create_execution_plan(random_equation(rng, DType.FP32, 16, 16)[0])
        over += p.temp_bytes > p.naive_bytes
        if not p.recycled:
            continue
        if one is None and len({s.node.out_desc.nbytes for s in p.steps if not s.is_root}) == 1:
            one = (f"random-{draw}", p)
        if mixed is None and len(set(p.slot_bytes.values())) > 1:
            mixed = (f"random-mixed-{draw}", p)
    for name, found in (("one intermediate size", one), ("slots of several sizes", mixed)):
        if found is None:
            ok = False
            details.append(f"no random plan of {name} recycled a slot")
        else:
            plans.append(found)
    for name, p in plans:
        ok &= p.temp_bytes <= p.naive_bytes
        if p.recycled:
            ok &= p.temp_bytes < p.naive_bytes
        details.append(f"{name}: fused={p.temp_bytes} naive={p.naive_bytes}")
    ok &= over == 0
    details.append(f"{over} of 1000 random plans above naive")
    return CheckResult("equation-temp-bytes", bool(ok), "; ".join(details),
                       "fused <= naive (strict when recycling)")


def check_poison_liveness(seed: int = 0) -> CheckResult:
    """NaN-poisoning every dead (recycled, unwritten) slot between steps
    leaves the result unchanged: the poisoned evaluation (step by step, as
    a ``step_hook`` selects) equals the clean one, which runs the plan's C
    program where C runs, for the worked example in FP64 and FP32 and the
    trees of the composite kernels (``kernel_trees``)."""
    rng = np.random.default_rng(seed)
    cases = []
    for dtype in (DType.FP64, DType.FP32):
        d = TensorDesc(4, 4, 4, dtype)
        plan = eqn.plan_equation("tanh(T0) + (T1 matmul T2) / (T3 - T4)", [d] * 5)
        cases.append((plan, [from_array(rng.uniform(0.2, 1.5, size=(4, 4)).astype(dtype.storage))
                             for _ in range(5)]))
    cases += [(plan, args) for _, plan, args in kernel_trees(rng)]

    def hook(step, dead_views):
        for v in dead_views:
            v.as2d()[:, :] = np.nan

    bad = 0
    for plan, args in cases:
        clean, poisoned = alloc(plan.out_desc), alloc(plan.out_desc)
        eqn.evaluate(plan, eqn.Buffered(), args, clean)
        eqn.evaluate(plan, eqn.Buffered(), args, poisoned, step_hook=hook)
        bad += not _bits_equal(to_array(clean), to_array(poisoned))
    return CheckResult("equation-poison-liveness", bad == 0, bad, 0,
                       "the worked example and the softmax, layernorm and groupnorm trees")


# ---------------------------------------------------------------------------
# kernel checks
# ---------------------------------------------------------------------------

def softmax_oracle(x: np.ndarray) -> np.ndarray:
    """One FP32 softmax slice in the documented order: the ALL MAX and ALL
    SUM of :func:`reduce_oracle`, ``approx.exp_taylor`` of ``x - max`` and
    the sum's FP32 reciprocal, multiplied in."""
    e = approx.exp_taylor(x - reduce_oracle(x, ReduceAxis.ALL, ReduceOp.MAX)[0, 0])
    return e * (np.float32(1) / reduce_oracle(e, ReduceAxis.ALL, ReduceOp.SUM)[0, 0])


def check_softmax(seed: int = 0, instances: int = 100) -> CheckResult:
    """Every slice sums to 1 and is within tolerance of a float64 softmax,
    and equals :func:`softmax_oracle` bitwise; one to eight slices, at a
    padded ``ld`` in two instances out of three, whose padding stays
    unwritten."""
    rng = np.random.default_rng(seed)
    worst_sum = 0.0
    worst_ref = 0.0
    bad = 0
    for _ in range(instances):
        # slice sizes as in attention blocks; at least ~128 elements so no
        # single probability dominates and the sum stays well conditioned
        s1, s2, s3 = int(rng.integers(4, 12)), int(rng.integers(1, 9)), int(rng.integers(32, 48))
        ld = s1 + int(rng.integers(0, 3))
        spec = kernels.SoftmaxSpec(s1, s2, s3)
        x = rng.random((s1, s2 * s3), dtype=np.float32)
        xb = np.full((s2 * s3, ld), np.nan, np.float32)  # column-major, NaN padding
        xb[:, :s1] = x.T
        yb = np.full_like(xb, np.nan)
        desc = TensorDesc(s1, s2 * s3, ld, DType.FP32)
        kernels.softmax(spec, tz.view_at(xb.reshape(-1), 0, desc),
                        tz.view_at(yb.reshape(-1), 0, desc))
        bad += not np.isnan(yb[:, s1:]).all()
        y = yb[:, :s1].T
        for j in range(s2):
            sl = y[:, j * s3:(j + 1) * s3]
            bad += not _bits_equal(sl, softmax_oracle(x[:, j * s3:(j + 1) * s3]))
            worst_sum = max(worst_sum, abs(float(sl.sum()) - 1.0))
            xs = x[:, j * s3:(j + 1) * s3].astype(np.float64)
            ref = np.exp(xs - xs.max())
            ref /= ref.sum()
            worst_ref = max(worst_ref, float(np.max(np.abs(sl - ref))))
    ok = bad == 0 and worst_sum <= 1e-6 and worst_ref <= 1e-5
    return CheckResult("kernels-softmax", ok,
                       f"bitwise-mismatches={bad} sum={worst_sum:.2e} ref={worst_ref:.2e}",
                       "mismatches=0 sum<=1e-6 ref<=1e-5")


def norm_oracle(x: np.ndarray, groups: int, eps: float) -> np.ndarray:
    """Per-channel (scale, shift, mean, var) of an FP32 ``x`` in the
    documented order, as a (4, rows, 1) FP32 array: FP32 row sums and squared
    sums folded from +0 in ascending column order, then Python floats (IEEE
    doubles) summed per group in ascending row order, the variance clamped
    at 0, each statistic rounded once to FP32."""
    rows, cols = x.shape
    s = np.zeros(rows, np.float32)
    ss = np.zeros(rows, np.float32)
    for j in range(cols):
        s = s + x[:, j]
        ss = ss + x[:, j] * x[:, j]
    per = rows // groups
    stats = np.empty((4, rows), np.float32)
    for gi in range(groups):
        chans = range(gi * per, (gi + 1) * per)
        gs = gss = 0.0
        for c in chans:
            gs += float(s[c])
            gss += float(ss[c])
        mu = gs / (per * cols)
        var = max(gss / (per * cols) - mu * mu, 0.0)
        rstd = 1.0 / math.sqrt(var + eps)
        for c in chans:
            stats[:, c] = (rstd, -mu * rstd, mu, var)
    return stats[:, :, None]


def check_layernorm(seed: int = 0, instances: int = 100) -> CheckResult:
    """Unit mean and variance per row, within tolerance of a float64
    reference, and bitwise equal to the documented-order oracle (output,
    mean and variance)."""
    rng = np.random.default_rng(seed)
    worst_mean = worst_var = worst_ref = 0.0
    bad = 0
    for _ in range(instances):
        m = int(rng.integers(2, 17))
        n = int(rng.integers(8, 65))
        x = rng.standard_normal((m, n)).astype(np.float32)
        xv = from_array(x)
        g = broadcast(from_array(np.ones((1, n), dtype=np.float32)), Bcast.ROW, m, n)
        b = broadcast(from_array(np.zeros((1, n), dtype=np.float32)), Bcast.ROW, m, n)
        out = alloc(TensorDesc(m, n, m, DType.FP32))
        mo, vo = (alloc(TensorDesc(m, 1, m, DType.FP32)) for _ in range(2))
        kernels.layernorm(xv, g, b, 1e-5, out, mo, vo)
        scale, shift, mean, var = norm_oracle(x, m, 1e-5)
        one, zero = np.float32(1), np.float32(0)
        if not (_bits_equal(to_array(out), zero + (shift + x * scale) * one)
                and _bits_equal(to_array(mo), mean) and _bits_equal(to_array(vo), var)):
            bad += 1
        o = to_array(out).astype(np.float64)
        worst_mean = max(worst_mean, float(np.max(np.abs(o.mean(axis=1)))))
        worst_var = max(worst_var, float(np.max(np.abs(o.var(axis=1) - 1.0))))
        mu = x.astype(np.float64).mean(axis=1, keepdims=True)
        v64 = x.astype(np.float64).var(axis=1, keepdims=True)
        ref = (x - mu) / np.sqrt(v64 + 1e-5)
        worst_ref = max(worst_ref, float(np.max(np.abs(o - ref))))
    ok = bad == 0 and worst_mean <= 1e-6 and worst_var <= 1e-4 and worst_ref <= 1e-5
    return CheckResult("kernels-layernorm", ok,
                       f"bitwise-mismatches={bad} mean={worst_mean:.2e} "
                       f"var={worst_var:.2e} ref={worst_ref:.2e}",
                       "mismatches=0 mean<=1e-6 var<=1e-4 ref<=1e-5")


def check_groupnorm(seed: int = 0, instances: int = 100) -> CheckResult:
    """GROUPNORM scaling equals :func:`norm_oracle` bitwise: out = B +
    (shift + x*scale) * G in FP32, G and B per channel, with groups of one
    channel, of several and of all channels, at a padded ``ld`` in two
    instances out of three (x and out, NaN padding that stays unwritten),
    and the 256 x 256 case of 8 groups."""
    rng = np.random.default_rng(seed)
    bad = 0
    cases = [(8, 32, 256, 0)]
    for _ in range(instances):
        per, groups = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        shape = int(rng.integers(0, 3))   # one channel a group, all channels in one, or not
        per, groups = (1, groups) if shape == 0 else (per, 1) if shape == 1 else (per, groups)
        cases.append((groups, per * groups, int(rng.integers(1, 41)), int(rng.integers(0, 3))))
    for groups, rows, cols, pad in cases:
        ld = rows + pad
        x = rng.standard_normal((rows, cols)).astype(np.float32)
        g = (1.0 + 0.25 * rng.standard_normal((rows, 1))).astype(np.float32)
        b = (0.25 * rng.standard_normal((rows, 1))).astype(np.float32)
        xb = np.full((cols, ld), np.nan, np.float32)  # column-major, NaN padding
        xb[:, :rows] = x.T
        yb = np.full_like(xb, np.nan)
        desc = TensorDesc(rows, cols, ld, DType.FP32)
        kernels.norm_scaling(tz.view_at(xb.reshape(-1), 0, desc), None, None,
                             from_array(g), from_array(b), kernels.NormMode.GROUPNORM,
                             tz.view_at(yb.reshape(-1), 0, desc), groups=groups, eps=1e-5)
        scale, shift, _, _ = norm_oracle(x, groups, 1e-5)
        bad += not (np.isnan(yb[:, rows:]).all()
                    and _bits_equal(yb[:, :rows].T, b + (shift + x * scale) * g))
    return CheckResult("kernels-groupnorm", bad == 0, bad, 0,
                       f"{len(cases)} instances, 256x256 in 8 groups among them")


def check_embedding_fused(seed: int = 0, instances: int = 100) -> CheckResult:
    """The embedding bag equals materialise-then-reduce and a numpy loop of
    one FP32 add per index, in index order, bitwise; FP64 path equals the
    one-hot contraction exactly."""
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(instances):
        mm, ee = int(rng.integers(2, 20)), int(rng.integers(1, 24))
        k = int(rng.integers(1, 9))
        table = rng.standard_normal((ee, mm)).astype(np.float32)
        idx = rng.integers(0, mm, size=k)
        tv = from_array(table)
        out = alloc(TensorDesc(ee, 1, ee, DType.FP32))
        kernels.embedding_gather_reduce(kernels.EmbeddingSpec(mm, ee), tv, list(idx), out)
        gath = alloc(TensorDesc(ee, k, ee, DType.FP32))
        ops.gather_scatter(tv, idx, GatherMode.GATHER_COLS, gath)
        red = alloc(TensorDesc(ee, 1, ee, DType.FP32))
        ops.reduce(gath, ReduceSpec(ReduceAxis.ROWS, ReduceOp.SUM), red)
        want = np.zeros(ee, dtype=np.float32)
        for p in idx:  # index order, one FP32 add per index
            want = want + table[:, p]
        if not (_bits_equal(to_array(out), to_array(red))
                and _bits_equal(to_array(out)[:, 0], want)):
            bad += 1
    # FP64 one-hot contraction comparison (distinct indices)
    table = rng.standard_normal((6, 10))
    idx = [1, 4, 7]
    tv = from_array(table)
    out = alloc(TensorDesc(6, 1, 6, DType.FP64))
    kernels.embedding_gather_reduce(kernels.EmbeddingSpec(10, 6), tv, idx, out)
    onehot = np.zeros(10)
    onehot[idx] = 1.0
    want = np.zeros(6)
    for p in range(10):  # ascending accumulation like the kernel
        if onehot[p]:
            want = want + table[:, p]
    if not _bits_equal(to_array(out)[:, 0], want):
        bad += 1
    return CheckResult("kernels-embedding-fused", bad == 0, bad, 0)


def check_fc_fused(seed: int = 0, instances: int = 100) -> CheckResult:
    """FC with fused activation equals contraction-then-activation bitwise,
    and the contraction equals the pinned-order oracle per output block."""
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(instances):
        mb, nb, kb = (int(rng.integers(1, 4)) for _ in range(3))
        bm, bn, bk = (int(rng.integers(1, 6)) for _ in range(3))
        a = rng.standard_normal((mb, kb, bk, bm)).astype(np.float32)
        b = rng.standard_normal((nb, kb, bn, bk)).astype(np.float32)
        c1 = alloc(TensorDesc(bm, nb * mb * bn, bm, DType.FP32))
        kernels.fc_forward(kernels.FcSpec(mb, nb, kb, bm, bn, bk,
                                          activation=UnaryKind.RELU),
                           a.reshape(-1), b.reshape(-1), c1)
        c2 = alloc(TensorDesc(bm, nb * mb * bn, bm, DType.FP32))
        kernels.fc_forward(kernels.FcSpec(mb, nb, kb, bm, bn, bk, activation=None),
                           a.reshape(-1), b.reshape(-1), c2)
        want = np.concatenate([_pinned_order_oracle(a[i_m].reshape(-1), b[i_n].reshape(-1),
                                                    bm, bn, bk, kb, DType.FP32, DType.FP32)
                               for i_n in range(nb) for i_m in range(mb)], axis=1)
        ok = _bits_equal(to_array(c2), want)
        ops.apply_unary(UnaryKind.RELU, c2, c2)
        if not (ok and _bits_equal(to_array(c1), to_array(c2))):
            bad += 1
    return CheckResult("kernels-fc-fused", bad == 0, bad, 0)


def check_dilated_conv(seed: int = 0, instances: int = 100) -> CheckResult:
    """Contraction-based dilated conv equals the direct four-loop oracle
    bitwise (same tap-then-channel order)."""
    rng = np.random.default_rng(seed)
    bad = 0
    for case in range(instances):
        c = int(rng.integers(1, 5))
        kk = int(rng.integers(1, 4))
        s = int(rng.integers(1, 6))
        dd = int(rng.integers(1, 4))
        q = int(rng.integers(1, 12))
        w = q + (s - 1) * dd + int(rng.integers(0, 4))
        x = rng.standard_normal((c, w)).astype(np.float32)
        wt = rng.standard_normal((c * s, kk)).astype(np.float32)
        ov = alloc(TensorDesc(kk, q, kk, DType.FP32))
        kernels.dilated_conv1d_forward(
            kernels.DilatedConvSpec(c, kk, w, q, s, dd), from_array(x), from_array(wt), ov)
        ref = np.zeros((kk, q), dtype=np.float32)
        for qq in range(q):
            for k2 in range(kk):
                acc = np.float32(0)
                for ss in range(s):  # one partial per tap, taps folded in order
                    part = np.float32(0)
                    for cc in range(c):
                        part = np.float32(part + np.float32(wt[ss * c + cc, k2] *
                                                            x[cc, qq + ss * dd]))
                    acc = np.float32(acc + part)
                ref[k2, qq] = acc
        if not _bits_equal(to_array(ov), ref):
            bad += 1
    return CheckResult("kernels-dilated-conv", bad == 0, bad, 0)


_PAIR_ORACLE = {BinaryKind.ADD: np.add, BinaryKind.MUL: np.multiply,
                BinaryKind.MAX: np.maximum}
_FOLD_ORACLE = {ReduceOp.SUM: np.add, ReduceOp.MAX: np.maximum, ReduceOp.MIN: np.minimum}


def check_binary_reduce(seed: int = 0, instances: int = 100) -> CheckResult:
    """Binary-reduce aggregation equals gather, binary, reduce materialised
    and a numpy loop of one FP32 binary and one fold per index pair, in index
    order, bitwise."""
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(instances):
        f = int(rng.integers(1, 16))
        n0, n1 = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        k = int(rng.integers(1, 8))
        t0 = rng.standard_normal((f, n0)).astype(np.float32)
        t1 = rng.standard_normal((f, n1)).astype(np.float32)
        i0 = rng.integers(0, n0, size=k)
        i1 = rng.integers(0, n1, size=k)
        binary = rng.choice([BinaryKind.ADD, BinaryKind.MUL, BinaryKind.MAX])
        red = rng.choice([ReduceOp.SUM, ReduceOp.MAX, ReduceOp.MIN])
        out = alloc(TensorDesc(f, 1, f, DType.FP32))
        kernels.binary_reduce_aggregate(from_array(t0), from_array(t1),
                                        list(i0), list(i1), binary, red, out)
        # oracle: materialise both gathers, apply the binary, reduce rows
        g0 = alloc(TensorDesc(f, k, f, DType.FP32))
        g1 = alloc(TensorDesc(f, k, f, DType.FP32))
        ops.gather_scatter(from_array(t0), i0, GatherMode.GATHER_COLS, g0)
        ops.gather_scatter(from_array(t1), i1, GatherMode.GATHER_COLS, g1)
        bo = alloc(TensorDesc(f, k, f, DType.FP32))
        ops.apply_binary(binary, g0, g1, bo)
        ro = alloc(TensorDesc(f, 1, f, DType.FP32))
        ops.reduce(bo, ReduceSpec(ReduceAxis.ROWS, red), ro)
        pair, fold = _PAIR_ORACLE[binary], _FOLD_ORACLE[red]
        if red is ReduceOp.SUM:
            want, start = np.zeros(f, dtype=np.float32), 0
        else:
            want, start = pair(t0[:, i0[0]], t1[:, i1[0]]), 1
        for t in range(start, k):  # index order
            want = fold(want, pair(t0[:, i0[t]], t1[:, i1[t]]))
        if not (_bits_equal(to_array(out), to_array(ro))
                and _bits_equal(to_array(out)[:, 0], want)):
            bad += 1
    return CheckResult("kernels-binary-reduce", bad == 0, bad, 0)


# NaN padding: hi << 16 | lo of the halves' padding and the gradient's
# padding are NaNs, so a read of either would show
_SGD_PAD = {DType.BF16: np.uint16(0x7FC1), DType.INT16: np.uint16(0x0BAD),
            DType.FP32: np.uint32(0x7F80DEAD).view(np.float32)}


def _sgd_view(values: np.ndarray, dtype: DType, pad: int) -> tz.TensorView:
    """``values`` (storage dtype) in a view at ld rows + ``pad``, its
    padding ``_SGD_PAD``."""
    rows, cols = values.shape
    buf = np.full((cols, rows + pad), _SGD_PAD[dtype], dtype.storage)
    buf[:, :rows] = values.T
    return tz.TensorView(TensorDesc(rows, cols, rows + pad, dtype), buf.reshape(-1))


def _sgd_padding_kept(v: tz.TensorView) -> bool:
    d = v.desc
    pad = v.primary.reshape(d.cols, d.ld)[:, d.rows:]
    return _bits_equal(pad, np.full(pad.shape, _SGD_PAD[d.dtype], pad.dtype))


def check_split_sgd(seed: int = 0, steps: int = 100) -> CheckResult:
    """``steps`` split SGD steps, ten on each random shape, the halves and
    the gradient at random padded lds with NaN padding that must stay
    untouched, against plain FP32 SGD on the packed bits.  On half of the
    shapes a NaN enters the gradient in a random column at a random step;
    from then on the C pass stops at that column and the reference path
    resumes there.  Every fifth step takes a BF16 gradient, which runs the
    reference path alone."""
    rng = np.random.default_rng(seed)
    lr = 0.02
    lr32 = np.float32(lr)
    ok, done, nan_steps = True, 0, 0
    while ok and done < steps:
        rows, cols = (int(x) for x in rng.integers(1, 40, 2))
        pad_w, pad_g = (int(x) for x in rng.integers(0, 4, 2))
        ref = rng.standard_normal((rows, cols)).astype(np.float32)
        bits = ref.view(np.uint32)
        split = tz.SplitTensor(_sgd_view((bits >> 16).astype(np.uint16), DType.BF16, pad_w),
                               _sgd_view((bits & 0xFFFF).astype(np.uint16), DType.INT16, pad_w))
        nan_step = int(rng.integers(0, 10)) if rng.random() < 0.5 else -1
        for k in range(min(10, steps - done)):
            g = rng.standard_normal((rows, cols)).astype(np.float32)
            if k == nan_step:
                g[rng.integers(rows), rng.integers(cols)] = np.nan
            if done % 5 == 4:
                gv = _sgd_view(fp32_to_bf16_rne(g), DType.BF16, pad_g)
            else:
                gv = _sgd_view(g, DType.FP32, pad_g)
            nan_steps += bool(np.isnan(ref).any())
            kernels.split_sgd_step(split, gv, lr)
            with np.errstate(invalid="ignore"):
                ref = ref - to_array(gv) * lr32
            done += 1
            if not (_bits_equal(pack_fp32_bits(split.hi.as2d(), split.lo.as2d()), ref)
                    and _sgd_padding_kept(split.hi) and _sgd_padding_kept(split.lo)):
                ok = False
                break
    return CheckResult("kernels-split-sgd", ok, int(not ok), 0,
                       f"{steps} steps on random padded shapes bitwise, "
                       f"{nan_steps} after a NaN entered")


def check_kernels_source_audit(seed: int = 0) -> CheckResult:
    """The composite-kernel module must not import an array library, nor
    index or do arithmetic on raw element buffers; all math flows through
    primitives."""
    src = inspect.getsource(kernels)
    tree = ast.parse(src)
    violations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "numpy":
                    violations.append(f"import numpy (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "numpy":
                violations.append(f"from numpy import (line {node.lineno})")
        elif isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Attribute) and f.attr in ("as2d", "logical2d"):
                violations.append(f"raw buffer access .{f.attr} (line {node.lineno})")
        elif isinstance(node, ast.Subscript):
            v = node.value
            if isinstance(v, ast.Attribute) and v.attr in ("primary", "secondary"):
                violations.append(f"indexed raw buffer .{v.attr} (line {node.lineno})")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and sub.attr in ("primary", "secondary"):
                    violations.append(f"arithmetic on raw buffer (line {node.lineno})")
                    break
    return CheckResult("kernels-source-audit", not violations,
                       "; ".join(violations) or "clean", "no direct element math")


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# keyed by the exact name each check reports
ALL_CHECKS: dict[str, Callable[..., CheckResult]] = {
    "core-bf16-roundtrip": check_bf16_roundtrip,
    "core-bf16-rne": check_bf16_rne,
    "core-split-pack-identity": check_split_pack,
    "core-colmajor-addressing": check_addressing,
    "core-broadcast-materialize": check_broadcast,
    "ops-elementwise-scalar-oracle": check_elementwise_scalar_oracle,
    "ops-backward-finite-diff": check_backward_finite_diff,
    "ops-dropout-stats": check_dropout,
    "ops-gather-scatter-permutation": check_gather_scatter_permutation,
    "ops-transpose": check_transpose,
    "ops-prng-recurrence": check_prng_recurrence,
    "ops-quantize-roundtrip": check_quantize_roundtrip,
    "ops-reduce-determinism": check_reduce_determinism,
    "gemm-variant-equivalence": check_brgemm_variants,
    "gemm-tiling-invariance": check_tiling_invariance,
    "gemm-bf16-emulation": check_bf16_emulation,
    "gemm-vnni": check_vnni,
    "gemm-int8-oracle": check_int8_oracle,
    "gemm-linearity": check_gemm_linearity,
    "approx-pade-tanh": check_pade_budget,
    "approx-minimax-tanh": check_minimax_budget,
    "approx-exp-taylor": check_exp_budget,
    "approx-sigmoid-identity": check_sigmoid_budget,
    "approx-bounds-monotonic": check_approx_bounds,
    "equation-worked-example": check_worked_example,
    "equation-score-crosscheck": check_score_crosscheck,
    "equation-plan-validity": check_plan_validity,
    "equation-minimality": check_minimality,
    "equation-fusion-fidelity": check_fusion_fidelity,
    "equation-temp-bytes": check_temp_bytes_metric,
    "equation-poison-liveness": check_poison_liveness,
    "kernels-softmax": check_softmax,
    "kernels-layernorm": check_layernorm,
    "kernels-groupnorm": check_groupnorm,
    "kernels-embedding-fused": check_embedding_fused,
    "kernels-fc-fused": check_fc_fused,
    "kernels-dilated-conv": check_dilated_conv,
    "kernels-binary-reduce": check_binary_reduce,
    "kernels-split-sgd": check_split_sgd,
    "kernels-source-audit": check_kernels_source_audit,
}


def run_checks(only: list[str] | None = None, seed: int = 0,
               max_nodes: int | None = None) -> list[CheckResult]:
    """Run the named checks (default all) in registry order.  A check that
    raises is reported as FAIL with the exception in ``detail``, and the
    remaining checks still run."""
    names = list(ALL_CHECKS)
    if only:
        missing = [o for o in only if o not in ALL_CHECKS]
        if missing:
            raise KeyError(f"unknown checks: {missing}; available: {names}")
        names = [n for n in names if n in only]
    results = []
    for n in names:
        fn = ALL_CHECKS[n]
        kwargs = {"seed": seed}
        if max_nodes is not None and "max_nodes" in inspect.signature(fn).parameters:
            kwargs["max_nodes"] = max_nodes
        try:
            results.append(fn(**kwargs))
        except Exception as e:
            where = traceback.extract_tb(e.__traceback__)[-1]
            results.append(CheckResult(
                n, False, "raised", "no exception",
                f"{type(e).__name__}: {e} (at {os.path.basename(where.filename)}:{where.lineno})"))
    return results
