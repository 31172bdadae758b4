"""The four benchmark workloads: seeded inputs, one step each, and the
independent numpy oracles that gate them.

Every workload drives the public ``tensorprim`` API only (attribute access on
the package, default knobs: no ``threads=``, no ``blocking=``, no private
helpers), so a later change to internals cannot break the benchmark and the
outside-in tracer sees every call.  Inputs come from ``numpy`` generators
seeded by the benchmark seed; the library never sees the seed.

A workload object offers:

* ``step(i)``  - the timed work of step ``i``;
* ``outputs(i)`` - the arrays step ``i`` wrote, in a fixed order (digested);
* ``key(i)``   - which steps must produce identical outputs: steps ``i`` and
  ``i + n_keys`` must produce the same outputs (``n_keys`` is 1 except for
  ``eqn_cold``, whose steps cycle through a pool of equations);
* ``check(i)`` - compare the outputs of step ``i`` against a numpy oracle;
  raises :class:`GateError` on a mismatch.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re

import numpy as np

U = 2.0 ** -24  # unit roundoff of FP32

# Documented approximation budgets (tensorprim/approx.py module constants and
# docstrings), restated here so the oracle does not depend on library names.
PADE_TANH_ABS = 1e-5          # rational tanh on [-5, 5]
TANH_SATURATION_ABS = 1.0 - math.tanh(5.0)  # |x| > 5 saturates to +-1
SIGMOID_FACTOR = 1.1          # sigmoid inherits 1.1x the tanh budget
MINIMAX_ABS = 2e-3            # 16-interval piecewise cubic tables
EXP_REL = 3e-4                # exp via 2^n * cubic(2^y)


class GateError(AssertionError):
    """An output failed its oracle."""


def digest(arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).view(np.uint8).tobytes())
    return h.hexdigest()


def _bits_equal(got, want, what: str) -> None:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape or got.dtype != want.dtype \
            or got.tobytes() != want.tobytes():
        raise GateError(f"{what}: not bitwise equal to the oracle")


def _within(got, want, tol, what: str) -> None:
    err = np.abs(np.asarray(got, dtype=np.float64) - want)
    bad = ~(err <= tol)  # also catches NaN
    if np.any(bad):
        i = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise GateError(f"{what}: |error| {float(err[i]):.3e} exceeds budget "
                        f"{float(np.broadcast_to(tol, err.shape)[i]):.3e} at {i}")


class Workload:
    name = ""
    layers: tuple[str, ...] = ()  # layers the traced run must see called
    n_keys = 1

    def key(self, i: int) -> int:
        return i % self.n_keys


def _colmajor(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, order="F").reshape(-1, order="F").copy()


def _bf16_rne(x: np.ndarray) -> np.ndarray:
    """FP32 -> BF16 patterns, round to nearest even (finite inputs only)."""
    u = np.asarray(x, dtype=np.float32).view(np.uint32).astype(np.uint64)
    return ((u + 0x7FFF + ((u >> 16) & 1)) >> 16).astype(np.uint16)


def _widen_bf16(bits: np.ndarray) -> np.ndarray:
    return (bits.astype(np.uint32) << 16).view(np.float32)


def _vnni(a: np.ndarray, alpha: int) -> np.ndarray:
    """Logical (M, K) A block into the flat [K/alpha][M][alpha] layout."""
    m, k = a.shape
    return np.ascontiguousarray(a.reshape(m, k // alpha, alpha).transpose(1, 0, 2)).reshape(-1)


def _pinned_contraction(a_blocks, b_blocks, acc_dtype) -> np.ndarray:
    """The documented accumulation order of ``brgemm`` with beta = 0: each
    batch entry's partial is summed from zero along ascending k, and the
    partials are folded in ascending batch order.  ``a_blocks`` is
    (..., count, M, K) and ``b_blocks`` (..., count, K, N); the leading axes
    are independent contractions evaluated side by side."""
    a_blocks = np.asarray(a_blocks, dtype=acc_dtype)
    b_blocks = np.asarray(b_blocks, dtype=acc_dtype)
    lead = np.broadcast_shapes(a_blocks.shape[:-3], b_blocks.shape[:-3])
    count, m, k = a_blocks.shape[-3:]
    n = b_blocks.shape[-1]
    acc = np.zeros(lead + (m, n), dtype=acc_dtype)
    with np.errstate(all="ignore"):
        for i in range(count):
            part = np.zeros_like(acc)
            for kk in range(k):
                part += a_blocks[..., i, :, kk, None] * b_blocks[..., i, None, kk, :]
            acc += part
    return acc


# ---------------------------------------------------------------------------
# dense: contraction with all three addressing variants and every path
# ---------------------------------------------------------------------------

class Dense(Workload):
    """FC (STRIDE batches, fused ReLU), dilated conv (ADDRESS batches), and
    VNNI brgemm in BF16 native, BF16 emulated and INT8 (OFFSET batches)."""

    name = "dense"
    layers = ("contraction", "kernels", "dtypes")

    FC = dict(m_b=4, n_b=4, k_b=4, bm=32, bn=32, bk=32)
    CONV = dict(c=32, k=32, w=96, q=64, s=5, d=4)
    M = N = K = 64
    COUNT = 8

    def __init__(self, tp, seed: int):
        self.tp = tp
        rng = np.random.default_rng([seed, 1])
        f = self.FC
        self.fc_a = rng.standard_normal(f["m_b"] * f["k_b"] * f["bk"] * f["bm"]).astype(np.float32)
        self.fc_b = rng.standard_normal(f["n_b"] * f["k_b"] * f["bn"] * f["bk"]).astype(np.float32)
        self.fc_spec = tp.FcSpec(f["m_b"], f["n_b"], f["k_b"], f["bm"], f["bn"], f["bk"],
                                 activation=tp.UnaryKind.RELU)
        self.fc_c = tp.alloc(tp.TensorDesc(f["bm"], f["n_b"] * f["m_b"] * f["bn"], f["bm"],
                                           tp.DType.FP32))

        c = self.CONV
        self.conv_x = rng.standard_normal((c["c"], c["w"])).astype(np.float32)
        self.conv_w = rng.standard_normal((c["c"] * c["s"], c["k"])).astype(np.float32)
        self.conv_spec = tp.DilatedConvSpec(c["c"], c["k"], c["w"], c["q"], c["s"], c["d"])
        self.conv_xv = tp.from_array(self.conv_x)
        self.conv_wv = tp.from_array(self.conv_w)
        self.conv_out = tp.alloc(tp.TensorDesc(c["k"], c["q"], c["k"], tp.DType.FP32))

        m, n, k, cnt = self.M, self.N, self.K, self.COUNT
        # BF16 operands: FP32 normals rounded to BF16 patterns
        self.bf_a = _bf16_rne(rng.standard_normal((cnt, m, k)).astype(np.float32))
        self.bf_b = _bf16_rne(rng.standard_normal((cnt, k, n)).astype(np.float32))
        self.bf_a_buf = np.concatenate([_vnni(self.bf_a[i], 2) for i in range(cnt)])
        self.bf_b_buf = np.concatenate([_colmajor(self.bf_b[i]) for i in range(cnt)])
        self.i8_a = rng.integers(-128, 128, size=(cnt, m, k)).astype(np.int8)
        self.i8_b = rng.integers(-128, 128, size=(cnt, k, n)).astype(np.int8)
        self.i8_a_buf = np.concatenate([_vnni(self.i8_a[i], 4) for i in range(cnt)])
        self.i8_b_buf = np.concatenate([_colmajor(self.i8_b[i]) for i in range(cnt)])
        self.offsets = [i * m * k for i in range(cnt)]
        self.b_offsets = [i * k * n for i in range(cnt)]

        def spec(dtype, path):
            out = tp.DType.INT32 if dtype is tp.DType.INT8 else tp.DType.FP32
            return tp.GemmSpec(m, n, k, m, k, m, in_dtype=dtype, out_dtype=out, beta=0.0,
                               a_layout=tp.ALayout.VNNI, compute_path=path)

        self.bf_native_spec = spec(tp.DType.BF16, tp.ComputePath.NATIVE)
        self.bf_emul_spec = spec(tp.DType.BF16, tp.ComputePath.EMULATED_SPLIT)
        self.i8_spec = spec(tp.DType.INT8, tp.ComputePath.NATIVE)
        self.bf_native_c = tp.alloc(tp.TensorDesc(m, n, m, tp.DType.FP32))
        self.bf_emul_c = tp.alloc(tp.TensorDesc(m, n, m, tp.DType.FP32))
        self.i8_c = tp.alloc(tp.TensorDesc(m, n, m, tp.DType.INT32))

    def step(self, i: int) -> None:
        tp = self.tp
        tp.fc_forward(self.fc_spec, self.fc_a, self.fc_b, self.fc_c)
        tp.dilated_conv1d_forward(self.conv_spec, self.conv_xv, self.conv_wv, self.conv_out)
        for spec, c in ((self.bf_native_spec, self.bf_native_c),
                        (self.bf_emul_spec, self.bf_emul_c)):
            batch = tp.BrgemmBatch.offset(self.bf_a_buf, self.bf_b_buf,
                                          self.offsets, self.b_offsets)
            tp.brgemm(spec, batch, c)
        batch = tp.BrgemmBatch.offset(self.i8_a_buf, self.i8_b_buf,
                                      self.offsets, self.b_offsets)
        tp.brgemm(self.i8_spec, batch, self.i8_c)

    def outputs(self, i: int) -> list:
        return [v.primary for v in (self.fc_c, self.conv_out, self.bf_native_c,
                                    self.bf_emul_c, self.i8_c)]

    def check(self, i: int) -> None:
        f = self.FC
        a4 = self.fc_a.reshape(f["m_b"], f["k_b"], f["bk"], f["bm"]).transpose(0, 1, 3, 2)
        b4 = self.fc_b.reshape(f["n_b"], f["k_b"], f["bn"], f["bk"]).transpose(0, 1, 3, 2)
        # (n_b, m_b, bm, bn) output blocks, each a K_b-entry stride batch
        acc = _pinned_contraction(a4[None, :, :, :, :], b4[:, None, :, :, :], np.float32)
        want = np.maximum(acc, np.float32(0))
        got = _colmajor_blocks(self.fc_c.primary, f["bm"], f["bn"], f["n_b"] * f["m_b"])
        _bits_equal(got, want.reshape(-1, f["bm"], f["bn"]), "fc_forward FP32+ReLU")

        c = self.CONV
        # tap s contributes W_s (K x C) x X[:, q + s*d] as one batch entry
        w_taps = self.conv_w.reshape(c["s"], c["c"], c["k"]).transpose(0, 2, 1)
        x_taps = np.stack([self.conv_x[:, s * c["d"]:s * c["d"] + c["q"]] for s in range(c["s"])])
        want = _pinned_contraction(w_taps, x_taps, np.float32)
        _bits_equal(self.tp.to_array(self.conv_out), want, "dilated_conv1d_forward")

        want = _pinned_contraction(_widen_bf16(self.bf_a), _widen_bf16(self.bf_b), np.float32)
        _bits_equal(self.tp.to_array(self.bf_native_c), want, "brgemm BF16 native")
        _bits_equal(self.tp.to_array(self.bf_emul_c), self.tp.to_array(self.bf_native_c),
                    "brgemm BF16 emulated vs native")
        want = self.i8_a.astype(np.int64) @ self.i8_b.astype(np.int64)
        _bits_equal(self.tp.to_array(self.i8_c), want.sum(axis=0).astype(np.int32),
                    "brgemm INT8")


def _colmajor_blocks(flat: np.ndarray, rows: int, cols: int, nblocks: int) -> np.ndarray:
    """(nblocks, rows, cols) view of consecutive column-major blocks."""
    return flat[:rows * cols * nblocks].reshape(nblocks, cols, rows).transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# norm_softmax: cached plans executed many times
# ---------------------------------------------------------------------------

class NormSoftmax(Workload):
    """softmax under Buffered() and Hybrid(16, 16), layernorm and GROUPNORM
    scaling; every plan is built on the first step and reused."""

    name = "norm_softmax"
    layers = ("equation", "kernels", "ops", "approx")

    S1, S2, S3 = 64, 8, 64
    LN = 256
    GN_C, GN_W, GN_G = 256, 256, 8
    EPS = 1e-5

    def __init__(self, tp, seed: int):
        self.tp = tp
        rng = np.random.default_rng([seed, 2])
        fp32 = tp.DType.FP32
        s1, s2, s3 = self.S1, self.S2, self.S3
        self.sm_spec = tp.SoftmaxSpec(s1, s2, s3)
        self.sm_x = (4.0 * rng.standard_normal((s1, s2 * s3))).astype(np.float32)
        self.sm_xv = tp.from_array(self.sm_x)
        self.sm_buffered = tp.alloc(tp.TensorDesc(s1, s2 * s3, s1, fp32))
        self.sm_hybrid = tp.alloc(tp.TensorDesc(s1, s2 * s3, s1, fp32))
        self.strategies = (tp.Buffered(), tp.Hybrid(16, 16))

        n = self.LN
        self.ln_x = rng.standard_normal((n, n)).astype(np.float32)
        self.ln_g = (1.0 + 0.1 * rng.standard_normal((1, n))).astype(np.float32)
        self.ln_b = (0.1 * rng.standard_normal((1, n))).astype(np.float32)
        self.ln_xv = tp.from_array(self.ln_x)
        self.ln_gv = tp.broadcast(tp.from_array(self.ln_g), tp.Bcast.ROW, n, n)
        self.ln_bv = tp.broadcast(tp.from_array(self.ln_b), tp.Bcast.ROW, n, n)
        self.ln_out = tp.alloc(tp.TensorDesc(n, n, n, fp32))

        c, w = self.GN_C, self.GN_W
        self.gn_x = (0.5 + rng.standard_normal((c, w))).astype(np.float32)
        self.gn_g = (1.0 + 0.1 * rng.standard_normal((c, 1))).astype(np.float32)
        self.gn_b = (0.1 * rng.standard_normal((c, 1))).astype(np.float32)
        self.gn_xv = tp.from_array(self.gn_x)
        self.gn_gv = tp.from_array(self.gn_g)
        self.gn_bv = tp.from_array(self.gn_b)
        self.gn_out = tp.alloc(tp.TensorDesc(c, w, c, fp32))

    def step(self, i: int) -> None:
        tp = self.tp
        for strategy, y in zip(self.strategies, (self.sm_buffered, self.sm_hybrid)):
            tp.softmax(self.sm_spec, self.sm_xv, y, strategy=strategy)
        tp.layernorm(self.ln_xv, self.ln_gv, self.ln_bv, self.EPS, self.ln_out)
        tp.norm_scaling(self.gn_xv, None, None, self.gn_gv, self.gn_bv,
                        tp.NormMode.GROUPNORM, self.gn_out, groups=self.GN_G, eps=self.EPS)

    def outputs(self, i: int) -> list:
        return [v.primary for v in (self.sm_buffered, self.sm_hybrid, self.ln_out, self.gn_out)]

    def check(self, i: int) -> None:
        tp = self.tp
        _bits_equal(tp.to_array(self.sm_hybrid), tp.to_array(self.sm_buffered),
                    "softmax Hybrid(16,16) vs Buffered")
        s1, s2, s3 = self.S1, self.S2, self.S3
        x = self.sm_x.astype(np.float64).reshape(s1, s2, s3)
        e = np.exp(x - x.max(axis=(0, 2), keepdims=True))
        want = (e / e.sum(axis=(0, 2), keepdims=True)).reshape(s1, s2 * s3)
        # exp error on numerator and the summed denominator, plus FP32
        # rounding of the s1*s3-term ascending sum, reciprocal and product
        # and the rounding of x - max, which exp turns into a relative error
        span = np.ptp(x, axis=(0, 2), keepdims=True)
        rel = 2 * EXP_REL + (s1 * s3 + 4) * U + span * U
        rel = np.broadcast_to(rel, x.shape).reshape(s1, s2 * s3)
        _within(tp.to_array(self.sm_buffered), want, rel * want, "softmax")

        x = self.ln_x.astype(np.float64)
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        want = (x - mu) / np.sqrt(var + self.EPS) * self.ln_g + self.ln_b
        _within(tp.to_array(self.ln_out), want, _norm_tol(x, want), "layernorm")

        c, w, g = self.GN_C, self.GN_W, self.GN_G
        x = self.gn_x.astype(np.float64)
        grp = x.reshape(g, c // g, w)
        mu = grp.mean(axis=(1, 2), keepdims=True)
        var = grp.var(axis=(1, 2), keepdims=True)
        want = ((grp - mu) / np.sqrt(var + self.EPS)).reshape(c, w) * self.gn_g + self.gn_b
        _within(tp.to_array(self.gn_out), want, _norm_tol(x, want), "groupnorm")


def _norm_tol(x: np.ndarray, want: np.ndarray):
    """Error budget of a normalisation whose statistics come from FP32 row
    sums of x and x*x: each sum of n = row length terms is good to n*u of
    the second moment, which the variance sees relative to itself; the two
    multiply-adds add a few roundings of the output."""
    n = x.shape[1]
    stat = 4 * n * U * float(np.mean(x * x)) / float(x.var())
    return (stat + 8 * U) * (np.abs(want) + 1.0)


# ---------------------------------------------------------------------------
# sparse_update: many small ops calls, writes beside reads
# ---------------------------------------------------------------------------

def _zipf_indices(rng, n: int, size, a: float = 1.2) -> np.ndarray:
    return (rng.zipf(a, size=size) - 1) % n


class SparseUpdate(Workload):
    """Embedding bags, binary-reduce aggregation, split SGD in place and
    dropout with per-column xorshift streams."""

    name = "sparse_update"
    layers = ("ops", "kernels")

    LEN = 64
    ROWS = 32768
    BAGS, BAG = 16, 32
    PAIRS = 64
    T1_COLS = 4096
    SGD_COLS = 4096
    LR = 0.01
    DROP_COLS = 512
    DROP_P = 0.25

    def __init__(self, tp, seed: int):
        self.tp = tp
        rng = np.random.default_rng([seed, 3])
        fp32 = tp.DType.FP32
        n = self.LEN
        self.table = rng.standard_normal((n, self.ROWS)).astype(np.float32)
        self.table_v = tp.from_array(self.table)
        self.emb_spec = tp.EmbeddingSpec(self.ROWS, n)
        self.bags = _zipf_indices(rng, self.ROWS, (self.BAGS, self.BAG))
        self.bag_lists = [[int(p) for p in bag] for bag in self.bags]
        self.bag_out = [tp.alloc(tp.TensorDesc(n, 1, n, fp32)) for _ in range(self.BAGS)]

        self.t1 = rng.standard_normal((n, self.T1_COLS)).astype(np.float32)
        self.t1_v = tp.from_array(self.t1)
        self.i0 = _zipf_indices(rng, self.ROWS, self.PAIRS)
        self.i1 = rng.integers(0, self.T1_COLS, size=self.PAIRS)
        self.i0_list = [int(p) for p in self.i0]
        self.i1_list = [int(p) for p in self.i1]
        self.agg_sum = tp.alloc(tp.TensorDesc(n, 1, n, fp32))
        self.agg_max = tp.alloc(tp.TensorDesc(n, 1, n, fp32))

        self.w0 = rng.standard_normal((n, self.SGD_COLS)).astype(np.float32)
        self.grad = rng.standard_normal((n, self.SGD_COLS)).astype(np.float32)
        self.grad_v = tp.from_array(self.grad)
        self.weights = tp.split_fp32(tp.from_array(self.w0))
        self.hi0 = self.weights.hi.primary.copy()
        self.lo0 = self.weights.lo.primary.copy()

        self.drop_x = rng.standard_normal((n, self.DROP_COLS)).astype(np.float32)
        self.drop_seed = int(rng.integers(0, 2 ** 63))
        self.drop_xv = tp.from_array(self.drop_x)
        self.drop_out = tp.alloc(tp.TensorDesc(n, self.DROP_COLS, n, fp32))

    def step(self, i: int) -> None:
        tp = self.tp
        for bag, out in zip(self.bag_lists, self.bag_out):
            tp.embedding_gather_reduce(self.emb_spec, self.table_v, bag, out)
        tp.binary_reduce_aggregate(self.table_v, self.t1_v, self.i0_list, self.i1_list,
                                   tp.BinaryKind.MUL, tp.ReduceOp.SUM, self.agg_sum)
        tp.binary_reduce_aggregate(self.table_v, self.t1_v, self.i0_list, self.i1_list,
                                   tp.BinaryKind.SUB, tp.ReduceOp.MAX, self.agg_max)
        # the update is in place: every step starts from the same weights
        np.copyto(self.weights.hi.primary, self.hi0)
        np.copyto(self.weights.lo.primary, self.lo0)
        tp.split_sgd_step(self.weights, self.grad_v, self.LR)
        # a fresh stream state per step, so every step draws the same mask
        self.drop_xv.tertiary = {"prng": tp.PrngState(self.drop_seed, self.DROP_COLS)}
        tp.apply_unary(tp.UnaryKind.DROPOUT, self.drop_xv, self.drop_out,
                       dropout_p=self.DROP_P)

    def outputs(self, i: int) -> list:
        return ([v.primary for v in self.bag_out]
                + [self.agg_sum.primary, self.agg_max.primary,
                   self.weights.hi.primary, self.weights.lo.primary,
                   self.drop_out.primary, self.drop_out.secondary])

    def check(self, i: int) -> None:
        tp = self.tp
        want = np.zeros((self.BAGS, self.LEN), dtype=np.float32)
        for t in range(self.BAG):  # index order, one FP32 add per index
            want += self.table[:, self.bags[:, t]].T
        got = np.stack([tp.to_array(v)[:, 0] for v in self.bag_out])
        _bits_equal(got, want, "embedding_gather_reduce")

        prod = self.table[:, self.i0] * self.t1[:, self.i1]
        want = np.zeros(self.LEN, dtype=np.float32)
        for t in range(self.PAIRS):
            want = want + prod[:, t]
        _bits_equal(tp.to_array(self.agg_sum)[:, 0], want, "binary_reduce MUL/SUM")
        diff = self.table[:, self.i0] - self.t1[:, self.i1]
        want = diff[:, 0]
        for t in range(1, self.PAIRS):
            want = np.maximum(want, diff[:, t])
        _bits_equal(tp.to_array(self.agg_max)[:, 0], want, "binary_reduce SUB/MAX")

        w = self.w0 - self.grad * np.float32(self.LR)
        bits = _colmajor(w).view(np.uint32)
        _bits_equal(self.weights.hi.primary, (bits >> 16).astype(np.uint16), "split_sgd hi")
        _bits_equal(self.weights.lo.primary, (bits & 0xFFFF).astype(np.uint16), "split_sgd lo")

        keep = xorshift_uniform(self.drop_seed, self.LEN, self.DROP_COLS) >= np.float32(self.DROP_P)
        scale = np.float32(1.0 / (1.0 - self.DROP_P))
        want = np.where(keep, self.drop_x * scale, np.float32(0))
        _bits_equal(tp.to_array(self.drop_out), want, "dropout values")
        mask = np.packbits(keep, axis=0, bitorder="little").T.reshape(-1)
        _bits_equal(self.drop_out.secondary, mask, "dropout bitmask")


def _splitmix64(x: np.ndarray) -> np.ndarray:
    z = x + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def xorshift_uniform(seed: int, rows: int, cols: int) -> np.ndarray:
    """Independent rendering of the documented dropout stream: per column a
    Marsaglia xorshift128 state seeded by splitmix64(seed ^ column), row i
    from the i-th step as (w >> 8) * 2^-24."""
    base = np.arange(cols, dtype=np.uint64) ^ np.uint64(seed)
    a = _splitmix64(base)
    b = _splitmix64(a)
    lo32 = np.uint64(0xFFFFFFFF)
    x, y = (a & lo32).astype(np.uint32), (a >> np.uint64(32)).astype(np.uint32)
    z, w = (b & lo32).astype(np.uint32), (b >> np.uint64(32)).astype(np.uint32)
    w = np.where((x | y | z | w) == 0, np.uint32(1), w)
    out = np.empty((rows, cols), dtype=np.float32)
    for r in range(rows):
        t = x ^ (x << np.uint32(11))
        x, y, z = y, z, w
        w = (w ^ (w >> np.uint32(19))) ^ (t ^ (t >> np.uint32(8)))
        out[r] = (w >> np.uint32(8)).astype(np.float32) * np.float32(2.0 ** -24)
    return out


# ---------------------------------------------------------------------------
# eqn_cold: parse, score, plan and evaluate a fresh equation every step
# ---------------------------------------------------------------------------

UNARY = ("tanh", "sigmoid", "gelu", "exp", "relu", "square")
BINARY = ("+", "-", "*")
UNARY_SHARE = 0.3  # of all tree nodes; the rest are binary nodes and leaves
MAX_DEPTH = 16     # from this depth on, subtrees are balanced binary splits


def random_equation(rng, n_nodes: int, n_args: int):
    """A random elementwise equation of exactly ``n_nodes`` tree nodes.

    The numbers of unary nodes, binary nodes and leaves are fixed by
    ``n_nodes``, since evaluation and planning cost mostly follow them; the
    seed picks the shape, the operators and the arguments.  Operators are
    picked bottom-up against an interval bound of the operand magnitude (exp
    only below 3, square below 30, products below 1e3), so no value
    overflows FP32 and every result stays comparable with the oracle.  The
    depth stays near 30 at most, far from the recursion limits that very
    deep equations exercise.

    Returns ``(text, tree)`` with ``tree`` a nested tuple for the oracle.
    """
    n_unary = round(UNARY_SHARE * n_nodes)
    n_unary += (n_nodes - 1 - n_unary) % 2  # leaves = binary nodes + 1

    def gen(unary: int, binary: int, depth: int):
        if unary == binary == 0:
            j = int(rng.integers(n_args))
            return f"T{j}", ("arg", j), 1.0
        if unary and (binary == 0 or (depth < MAX_DEPTH
                                      and rng.random() * (unary + binary) < unary)):
            text, node, bound = gen(unary - 1, binary, depth + 1)
            allowed = [op for op in UNARY
                       if (op != "exp" or bound <= 3.0) and (op != "square" or bound <= 30.0)]
            op = allowed[int(rng.integers(len(allowed)))]
            if op in ("tanh", "sigmoid"):
                bound = 1.0
            elif op == "exp":
                bound = math.exp(bound)
            elif op == "square":
                bound = bound * bound
            return f"{op}({text})", (op, node), bound
        rest = binary - 1
        b_left = rest // 2 if depth >= MAX_DEPTH else int(rng.integers(rest + 1))
        u_left = round(unary * (2 * b_left + 1) / (2 * rest + 2))
        lt, ln, lb = gen(u_left, b_left, depth + 1)
        rt, rn, rb = gen(unary - u_left, rest - b_left, depth + 1)
        ops = BINARY if lb * rb <= 1e3 else BINARY[:2]
        op = ops[int(rng.integers(len(ops)))]
        bound = lb * rb if op == "*" else lb + rb
        return f"({lt} {op} {rt})", (op, ln, rn), bound

    text, tree, _ = gen(n_unary, (n_nodes - 1 - n_unary) // 2, 0)
    return text, tree


_erf = np.vectorize(math.erf, otypes=[np.float64])


def oracle_eval(tree, args: list[np.ndarray]):
    """Exact float64 value of an equation and an elementwise bound on the
    error the FP32 library may make, propagated node by node from the
    documented approximation budgets and FP32 rounding."""
    op = tree[0]
    if op == "arg":
        return args[tree[1]].astype(np.float64), np.zeros(args[tree[1]].shape)
    if len(tree) == 2:
        x, e = oracle_eval(tree[1], args)
        if op == "tanh":
            v = np.tanh(x)
            err = e + PADE_TANH_ABS + TANH_SATURATION_ABS * (np.abs(x) > 4.0)
        elif op == "sigmoid":
            v = 0.5 * (np.tanh(0.5 * x) + 1.0)
            err = 0.25 * e + 0.5 * SIGMOID_FACTOR * (
                PADE_TANH_ABS + TANH_SATURATION_ABS * (np.abs(x) > 8.0))
        elif op == "gelu":
            v = 0.5 * x * (1.0 + _erf(x / math.sqrt(2.0)))
            err = 1.13 * e + 0.5 * (np.abs(x) + e) * MINIMAX_ABS
        elif op == "exp":
            v = np.exp(x)
            err = np.exp(x + e) * (1.0 + EXP_REL) - v
        elif op == "relu":
            v = np.maximum(x, 0.0)
            err = e
        else:  # square
            v = x * x
            err = 2.0 * np.abs(x) * e + e * e
        return v, err + 4 * U * (np.abs(v) + err)
    (x, ex), (y, ey) = oracle_eval(tree[1], args), oracle_eval(tree[2], args)
    if op == "+":
        v, err = x + y, ex + ey
    elif op == "-":
        v, err = x - y, ex + ey
    else:
        v, err = x * y, np.abs(x) * ey + np.abs(y) * ex + ex * ey
    return v, err + 2 * U * (np.abs(v) + err)


class EqnCold(Workload):
    """One fresh equation per step: parse, register scores, plan, evaluate
    once under Buffered().  Steps cycle through a seeded pool whose node
    counts are spread evenly over 50..300, so the median step is set by the
    node-count distribution and not by the seed; the first equation, the
    one set-up runs, always has the median node count.

    Each pass over the pool renames the arguments by its own seeded
    permutation and passes the argument tensors in the matching order, so
    step ``i`` computes exactly what step ``i % POOL`` computed (one digest
    per pool entry) from an equation text no earlier pass used: a plan
    cache keyed on the text cannot turn this cold-planning traffic warm."""

    name = "eqn_cold"
    layers = ("equation", "ops", "approx")

    n_keys = POOL = 64
    MIN_NODES, MAX_NODES = 50, 300
    ARGS = 6
    SHAPE = (16, 16)

    def __init__(self, tp, seed: int):
        self.tp = tp
        rng = np.random.default_rng([seed, 4])
        sizes = np.linspace(self.MIN_NODES, self.MAX_NODES, self.POOL).round().astype(int)
        rng.shuffle(sizes)
        first = int(np.flatnonzero(sizes == np.sort(sizes)[self.POOL // 2])[0])
        sizes[[0, first]] = sizes[[first, 0]]
        self.pool = [random_equation(rng, int(n), self.ARGS) for n in sizes]
        # "T{j}" placeholders: template.format(*perm) names argument j T<perm[j]>
        self.templates = [re.sub(r"T(\d+)", r"T{\1}", text) for text, _ in self.pool]
        self.args = [rng.uniform(-1.0, 1.0, self.SHAPE).astype(np.float32)
                     for _ in range(self.ARGS)]
        self.arg_views = [tp.from_array(a) for a in self.args]
        perms = list(itertools.permutations(range(self.ARGS)))
        order = np.random.default_rng([seed, 5]).permutation(len(perms))
        self.perms = [perms[j] for j in order]
        d = tp.TensorDesc(*self.SHAPE, self.SHAPE[0], tp.DType.FP32)
        self.descs = [d] * self.ARGS
        self.out = tp.alloc(d)
        self.strategy = tp.Buffered()

    def renamed(self, i: int) -> tuple[str, list]:
        """Step ``i``'s equation text and its argument tensors in order."""
        perm = self.perms[(i // self.POOL) % len(self.perms)]
        views = [None] * self.ARGS
        for j, p in enumerate(perm):
            views[p] = self.arg_views[j]
        return self.templates[i % self.POOL].format(*perm), views

    def step(self, i: int) -> None:
        tp = self.tp
        text, views = self.renamed(i)
        plan = tp.plan_equation(text, self.descs)
        tp.evaluate(plan, self.strategy, views, self.out)

    def outputs(self, i: int) -> list:
        return [self.out.primary]

    def check(self, i: int) -> None:
        tp = self.tp
        text, views = self.renamed(i)
        tree = self.pool[i % self.POOL][1]
        got = tp.to_array(self.out)
        naive = tp.alloc(self.out.desc)
        tp.evaluate_naive(tp.parse_equation(text, self.descs), views, naive)
        _bits_equal(got, tp.to_array(naive), f"equation {i % self.POOL} planned vs naive")
        want, err = oracle_eval(tree, self.args)
        _within(got, want, 2.0 * err + 1e-30, f"equation {i % self.POOL} vs float64 oracle")


WORKLOADS = {cls.name: cls for cls in (Dense, NormSoftmax, SparseUpdate, EqnCold)}
