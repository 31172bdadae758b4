from concurrent.futures import ThreadPoolExecutor
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

from tensorprim import (
    ALayout,
    Bcast,
    BrgemmBatch,
    ComputePath,
    DType,
    GemmSpec,
    TensorDesc,
    TensorError,
    TransformKind,
    TransformSpec,
    alloc,
    brgemm,
    from_array,
    gemm,
    matmul,
    to_array,
    transform,
    vnni_extent,
    vnni_pack_a,
    vnni_unpack_a,
    view_at,
)
from tensorprim import contraction, native
from tensorprim.dtypes import bf16_to_fp32, fp32_to_bf16_rne

from util import bits_equal, colmajor_flat


def D(m, n, dtype=DType.FP32):
    return TensorDesc(m, n, m, dtype)


def spec_mnk(m, n, k, dtype=DType.FP32, **kw):
    acc = {DType.FP64: DType.FP64, DType.INT8: DType.INT32}.get(dtype, DType.FP32)
    return GemmSpec(m, n, k, m, k, m, in_dtype=dtype, out_dtype=acc, **kw)


def test_identity_times_x():
    x = np.arange(4, dtype=np.float32).reshape(2, 2)
    c = alloc(D(2, 2))
    gemm(spec_mnk(2, 2, 2), from_array(np.eye(2, dtype=np.float32)), from_array(x), c)
    assert bits_equal(to_array(c), x)


def test_fp64_matches_triple_loop_bitwise():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    c = alloc(D(3, 3, DType.FP64))
    gemm(spec_mnk(3, 3, 3, DType.FP64), from_array(a), from_array(b), c)
    # oracle mirrors the documented order: product chain from zero, then the
    # entry partial is added onto the (here zero) base
    want = np.zeros((3, 3))
    for m in range(3):
        for n in range(3):
            part = 0.0
            for k in range(3):
                part = part + a[m, k] * b[k, n]
            want[m, n] = 0.0 + part
    assert bits_equal(to_array(c), want)


def test_beta_one_adds_previous_contents():
    a = from_array(np.eye(2, dtype=np.float32))
    b = from_array(np.full((2, 2), 3.0, dtype=np.float32))
    c = from_array(np.ones((2, 2), dtype=np.float32))
    gemm(spec_mnk(2, 2, 2, beta=1.0), a, b, c)
    assert to_array(c).tolist() == [[4.0, 4.0], [4.0, 4.0]]


def test_beta_zero_overwrites_nan():
    a = from_array(np.eye(2, dtype=np.float32))
    b = from_array(np.ones((2, 2), dtype=np.float32))
    c = from_array(np.full((2, 2), np.nan, dtype=np.float32))
    gemm(spec_mnk(2, 2, 2, beta=0.0), a, b, c)
    assert to_array(c).tolist() == [[1.0, 1.0], [1.0, 1.0]]


def test_general_beta():
    a = from_array(np.eye(2, dtype=np.float32))
    b = from_array(np.ones((2, 2), dtype=np.float32))
    c = from_array(np.full((2, 2), 2.0, dtype=np.float32))
    gemm(spec_mnk(2, 2, 2, beta=0.5), a, b, c)
    assert to_array(c).tolist() == [[2.0, 2.0], [2.0, 2.0]]


def test_brgemm_n1_beta1_equals_gemm():
    rng = np.random.default_rng(1)
    m, n, k = 5, 4, 6
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)
    c0 = rng.standard_normal((m, n)).astype(np.float32)
    c1, c2 = from_array(c0.copy()), from_array(c0.copy())
    sp = spec_mnk(m, n, k, beta=1.0)
    brgemm(sp, BrgemmBatch.address([from_array(a)], [from_array(b)]), c1)
    gemm(sp, from_array(a), from_array(b), c2)
    assert bits_equal(to_array(c1), to_array(c2))


def test_brgemm_variants_describe_same_sequence():
    rng = np.random.default_rng(2)
    m, n, k, cnt = 4, 3, 5, 3
    a = rng.standard_normal((m, k * cnt)).astype(np.float32)
    b = rng.standard_normal((k, n * cnt)).astype(np.float32)
    af, bf = colmajor_flat(a), colmajor_flat(b)
    sp = spec_mnk(m, n, k)
    outs = []
    for batch in (BrgemmBatch.address([(af, i * k * m) for i in range(cnt)],
                                      [(bf, i * n * k) for i in range(cnt)]),
                  BrgemmBatch.offset(af, bf, [i * k * m for i in range(cnt)],
                                     [i * n * k for i in range(cnt)]),
                  BrgemmBatch.stride(af, bf, k * m, n * k, cnt)):
        c = alloc(D(m, n))
        brgemm(sp, batch, c)
        outs.append(to_array(c))
    assert bits_equal(outs[0], outs[1]) and bits_equal(outs[1], outs[2])


def test_brgemm_negated_duplicate_cancels_exactly():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6))
    b = rng.standard_normal((6, 6))
    batch = BrgemmBatch.address([from_array(a), from_array(-a)],
                                [from_array(b), from_array(b)])
    c = alloc(D(6, 6, DType.FP64))
    brgemm(spec_mnk(6, 6, 6, DType.FP64), batch, c)
    assert np.all(to_array(c) == 0.0)


def test_brgemm_duplicate_entry_doubles_exactly():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((8, 8))
    b = rng.standard_normal((8, 8))
    sp = spec_mnk(8, 8, 8, DType.FP64)
    c2 = alloc(D(8, 8, DType.FP64))
    brgemm(sp, BrgemmBatch.address([from_array(a)] * 2, [from_array(b)] * 2), c2)
    c1 = alloc(D(8, 8, DType.FP64))
    gemm(sp, from_array(a), from_array(b), c1)
    assert bits_equal(to_array(c2), 2.0 * to_array(c1))


def test_brgemm_empty_batch_beta_semantics():
    sp = spec_mnk(2, 2, 2, beta=1.0)
    c = from_array(np.full((2, 2), 7.0, dtype=np.float32))
    brgemm(sp, BrgemmBatch.address([], []), c)
    assert np.all(to_array(c) == 7.0)
    sp0 = spec_mnk(2, 2, 2, beta=0.0)
    brgemm(sp0, BrgemmBatch.address([], []), c)
    assert np.all(to_array(c) == 0.0)


def test_brgemm_inconsistent_batch_rejected():
    with pytest.raises(TensorError):
        BrgemmBatch.address([np.zeros(4, np.float32)], [])


def test_brgemm_rejects_c_aliasing_inputs():
    a = from_array(np.ones((2, 2), dtype=np.float32))
    b = from_array(np.ones((2, 2), dtype=np.float32))
    with pytest.raises(TensorError):
        gemm(spec_mnk(2, 2, 2), a, b, a)


def test_tiling_and_threads_bitwise_invariant():
    """A caller that computes C as m_b x n_b tiles, one brgemm call per tile,
    in order or from 4 threads, gets the bits of one call over all of C."""
    rng = np.random.default_rng(5)
    m, n, k, cnt = 19, 11, 13, 3
    af = colmajor_flat(rng.standard_normal((m, k * cnt)).astype(np.float32))
    bf = colmajor_flat(rng.standard_normal((k, n * cnt)).astype(np.float32))
    whole = alloc(D(m, n))
    brgemm(spec_mnk(m, n, k), BrgemmBatch.stride(af, bf, k * m, n * k, cnt), whole)
    for m_b, n_b in ((m, n), (1, 1), (4, 4), (7, 2)):
        for threads in (1, 4):
            c = alloc(D(m, n))

            def tile(start):
                i0, j0 = start
                mb, nb = min(m_b, m - i0), min(n_b, n - j0)
                sp = GemmSpec(mb, nb, k, m, k, m)
                batch = BrgemmBatch.stride((af, i0), (bf, j0 * k), k * m, n * k, cnt)
                brgemm(sp, batch, c.row_block(i0, mb).col_block(j0, nb))

            starts = [(i0, j0) for j0 in range(0, n, n_b) for i0 in range(0, m, m_b)]
            with ThreadPoolExecutor(max_workers=threads) as pool:
                list(pool.map(tile, starts))
            assert bits_equal(to_array(whole), to_array(c))


def test_vnni_pack_single_group():
    a = np.array([[1, 2], [3, 4], [5, 6]], dtype=np.uint16)  # K=2, alpha=2
    flat = vnni_pack_a(a, 2)
    assert flat.tolist() == [1, 2, 3, 4, 5, 6]
    assert np.array_equal(vnni_unpack_a(flat, 2, 3, 2), a)


def test_vnni_gemm_matches_plain_bitwise():
    rng = np.random.default_rng(6)
    for dtype, alpha in ((DType.BF16, 2), (DType.INT8, 4)):
        m, n, k = 5, 4, 7
        if dtype is DType.INT8:
            a = rng.integers(-100, 100, size=(m, k), dtype=np.int8)
            b = rng.integers(-100, 100, size=(k, n), dtype=np.int8)
        else:
            a = fp32_to_bf16_rne(rng.standard_normal((m, k)).astype(np.float32))
            b = fp32_to_bf16_rne(rng.standard_normal((k, n)).astype(np.float32))
        acc = DType.INT32 if dtype is DType.INT8 else DType.FP32
        cp = alloc(D(m, n, acc))
        gemm(spec_mnk(m, n, k, dtype), (colmajor_flat(a), 0), (colmajor_flat(b), 0), cp)
        cv = alloc(D(m, n, acc))
        gemm(spec_mnk(m, n, k, dtype, a_layout=ALayout.VNNI),
             (vnni_pack_a(a, alpha), 0), (colmajor_flat(b), 0), cv)
        assert bits_equal(np.array(cp.as2d()), np.array(cv.as2d()))


def test_vnni_transform_output_is_a_vnni_operand():
    """The VNNI transform and the contraction share one layout: the
    transform's output buffer, used as A, gives the plain-A result bitwise,
    also when K leaves a zero-padded tail group."""
    rng = np.random.default_rng(13)
    m, n = 5, 4
    for dtype, alpha in ((DType.BF16, 2), (DType.INT8, 4)):
        acc = DType.INT32 if dtype is DType.INT8 else DType.FP32
        for k in sorted({3 * alpha, 3 * alpha + 1, 4 * alpha - 1}):
            if dtype is DType.INT8:
                a = rng.integers(-128, 128, size=(m, k), dtype=np.int8)
                b = rng.integers(-128, 128, size=(k, n), dtype=np.int8)
            else:
                a = fp32_to_bf16_rne(rng.standard_normal((m, k)).astype(np.float32))
                b = fp32_to_bf16_rne(rng.standard_normal((k, n)).astype(np.float32))
            av = alloc(D(m, k, dtype))
            av.as2d()[:, :] = a
            packed = alloc(D(*vnni_extent(m, k, alpha), dtype))
            transform(av, TransformSpec(TransformKind.VNNI, alpha=alpha), packed)
            cp = alloc(D(m, n, acc))
            gemm(spec_mnk(m, n, k, dtype), av, (colmajor_flat(b), 0), cp)
            paths = [ComputePath.NATIVE]
            if dtype is DType.BF16:
                paths.append(ComputePath.EMULATED_SPLIT)
            for path in paths:
                cv = alloc(D(m, n, acc))
                gemm(spec_mnk(m, n, k, dtype, a_layout=ALayout.VNNI, compute_path=path),
                     packed, (colmajor_flat(b), 0), cv)
                assert bits_equal(np.array(cp.as2d()), np.array(cv.as2d()))


@pytest.mark.parametrize("dtype", [DType.FP32, DType.FP64])
def test_vnni_layout_needs_a_narrow_type(dtype):
    with pytest.raises(TensorError):
        spec_mnk(4, 4, 4, dtype, a_layout=ALayout.VNNI)
    assert spec_mnk(4, 4, 4, DType.BF16, a_layout=ALayout.VNNI).alpha == 2
    assert spec_mnk(4, 4, 4, DType.INT8, a_layout=ALayout.VNNI).alpha == 4
    # an A block is read in place as its VNNI view, tail group included
    for dt, alpha in ((DType.BF16, 2), (DType.INT8, 4)):
        rows, cols = vnni_extent(5, 7, alpha)
        assert spec_mnk(5, 4, 7, dt, a_layout=ALayout.VNNI).a_dims == (rows, cols, rows)


def test_bf16_emulated_single_product():
    a = fp32_to_bf16_rne(np.array([[1.5]], dtype=np.float32))
    b = fp32_to_bf16_rne(np.array([[2.0]], dtype=np.float32))
    for path in (ComputePath.NATIVE, ComputePath.EMULATED_SPLIT):
        c = alloc(D(1, 1))
        gemm(spec_mnk(1, 1, 1, DType.BF16, compute_path=path),
             (colmajor_flat(a), 0), (colmajor_flat(b), 0), c)
        assert to_array(c)[0, 0] == 3.0


def test_bf16_emulated_matches_native_bitwise():
    rng = np.random.default_rng(7)
    m = n = k = 8
    a = fp32_to_bf16_rne(rng.standard_normal((m, k)).astype(np.float32))
    b = fp32_to_bf16_rne(rng.standard_normal((k, n)).astype(np.float32))
    outs = []
    for path in (ComputePath.NATIVE, ComputePath.EMULATED_SPLIT):
        c = alloc(D(m, n))
        gemm(spec_mnk(m, n, k, DType.BF16, compute_path=path),
             (colmajor_flat(a), 0), (colmajor_flat(b), 0), c)
        outs.append(to_array(c))
    assert bits_equal(outs[0], outs[1])


def test_bf16_emulated_subnormal_and_nan_patterns():
    rng = np.random.default_rng(8)
    # raw patterns: exercises subnormals, NaNs, infinities
    a = rng.integers(0, 1 << 16, size=(4, 6), dtype=np.uint16)
    b = fp32_to_bf16_rne(rng.standard_normal((6, 5)).astype(np.float32))
    outs = []
    for path in (ComputePath.NATIVE, ComputePath.EMULATED_SPLIT):
        c = alloc(D(4, 5))
        gemm(spec_mnk(4, 5, 6, DType.BF16, compute_path=path),
             (colmajor_flat(a), 0), (colmajor_flat(b), 0), c)
        outs.append(to_array(c))
    assert bits_equal(outs[0], outs[1])


def test_int8_accumulates_in_int32_without_saturation():
    a = np.full((1, 300), 127, dtype=np.int8)
    b = np.full((300, 1), 127, dtype=np.int8)
    c = alloc(D(1, 1, DType.INT32))
    gemm(spec_mnk(1, 1, 300, DType.INT8), (colmajor_flat(a), 0), (colmajor_flat(b), 0), c)
    assert int(to_array(c)[0, 0]) == 127 * 127 * 300  # ≈ 4.8M: no int8/int16 saturation


def test_matmul_wrapper_and_dim_guard():
    a = from_array(np.ones((2, 3), dtype=np.float32))
    b = from_array(np.ones((3, 4), dtype=np.float32))
    out = alloc(D(2, 4))
    matmul(a, b, out)
    assert np.all(to_array(out) == 3.0)
    with pytest.raises(TensorError):
        matmul(a, from_array(np.ones((2, 2), dtype=np.float32)), out)


def test_spec_validation():
    with pytest.raises(TensorError):
        GemmSpec(2, 2, 2, 1, 2, 2)  # lda < m
    with pytest.raises(TensorError):
        GemmSpec(2, 2, 2, 2, 2, 2, in_dtype=DType.BF16, out_dtype=DType.FP64)
    with pytest.raises(TensorError):
        GemmSpec(2, 2, 2, 2, 2, 2, in_dtype=DType.FP32,
                 out_dtype=DType.FP32, compute_path=ComputePath.EMULATED_SPLIT)


# ---------------------------------------------------------------------------
# edge cases against a scalar per-element reference
# ---------------------------------------------------------------------------

_PAD = {DType.FP64: np.array([0x7FF8_0000_0000_BEEF], np.uint64).view(np.float64)[0],
        DType.FP32: np.array([0x7FC0_BEEF], np.uint32).view(np.float32)[0],
        DType.BF16: np.uint16(0x7FC1), DType.INT8: np.int8(99)}
_C_SENTINEL = {DType.FP64: -12345.0, DType.FP32: -12345.0, DType.INT32: -12345}


def _scalar_brgemm(a_blocks, b_blocks, c0, beta, acc_np):
    """The documented order, one output element at a time: each entry's
    partial from zero along ascending k, then folded onto beta*C in ascending
    batch order (beta 0 ignores C, beta 1 takes it unscaled)."""
    rows, cols = c0.shape
    out = np.empty_like(c0)
    with np.errstate(all="ignore"):
        for i in range(rows):
            for j in range(cols):
                if beta == 0.0:
                    acc = acc_np(0)
                elif beta == 1.0:
                    acc = c0[i, j]
                else:
                    acc = c0[i, j] * acc_np(beta)
                for ab, bb in zip(a_blocks, b_blocks):
                    part = acc_np(0)
                    for k in range(ab.shape[1]):
                        part = part + ab[i, k] * bb[k, j]
                    acc = acc + part
                out[i, j] = acc
    return out


def _edge_values(rng, dtype, shape):
    if dtype is DType.INT8:
        return rng.choice(np.array([127, -128, -127, 126], np.int8), size=shape)
    x = rng.standard_normal(shape).astype(np.float32)
    return fp32_to_bf16_rne(x) if dtype is DType.BF16 else x.astype(dtype.storage)


def _widened(x, dtype):
    if dtype is DType.BF16:
        return bf16_to_fp32(x)
    return x.astype(np.int32) if dtype is DType.INT8 else x


def _nan(dtype, payload, negative=False):
    """A quiet NaN of ``dtype`` (storage form) with the given payload."""
    if dtype is DType.BF16:
        return np.uint16((0xFFC0 if negative else 0x7FC0) | payload)
    if dtype is DType.FP64:
        bits = np.array([(0xFFF8 << 48 if negative else 0x7FF8 << 48) | payload], np.uint64)
        return bits.view(np.float64)[0]
    bits = np.array([(0xFFC00000 if negative else 0x7FC00000) | payload], np.uint32)
    return bits.view(np.float32)[0]


EDGE_CASES = {
    # name: (dtype, m, n, k, count, (lda, ldb, ldc) padding, beta, options)
    "m1": (DType.FP32, 1, 4, 5, 2, (0, 0, 0), 0.0, ()),
    "n1": (DType.FP32, 4, 1, 5, 2, (0, 0, 0), 1.0, ()),
    "k1": (DType.FP64, 3, 4, 1, 3, (0, 0, 0), 0.5, ()),
    "all-extents-1": (DType.FP32, 1, 1, 1, 2, (2, 2, 2), 1.0, ()),
    "padded-ld": (DType.FP32, 5, 4, 6, 2, (3, 2, 1), 0.5, ()),
    "beta0": (DType.FP32, 4, 3, 5, 2, (1, 1, 1), 0.0, ()),
    "beta1": (DType.FP32, 4, 3, 5, 2, (1, 1, 1), 1.0, ()),
    "beta0.5": (DType.FP32, 4, 3, 5, 2, (1, 1, 1), 0.5, ()),
    "duplicated-entry": (DType.FP64, 4, 4, 4, 2, (1, 0, 0), 0.0, ("dup",)),
    "negated-entry": (DType.FP32, 4, 4, 4, 2, (0, 1, 0), 0.0, ("neg",)),
    "fp32-nan-inf-subnormal": (DType.FP32, 4, 3, 5, 2, (1, 1, 1), 1.0, ("special",)),
    "fp32-signed-zeros": (DType.FP32, 3, 3, 1, 2, (0, 0, 0), 1.0, ("zeros",)),
    "bf16-vnni-odd-k-native": (DType.BF16, 3, 4, 5, 2, (0, 1, 1), 1.0, ("vnni",)),
    "bf16-vnni-odd-k-emulated": (DType.BF16, 3, 4, 5, 2, (0, 1, 1), 1.0,
                                 ("vnni", "emulated")),
    "bf16-plain-emulated": (DType.BF16, 3, 4, 5, 2, (2, 1, 0), 0.0, ("emulated",)),
    "fp32-competing-nan-payloads": (DType.FP32, 4, 4, 5, 2, (1, 1, 1), 1.0, ("nans",)),
    "fp64-competing-nan-payloads": (DType.FP64, 4, 4, 5, 2, (1, 1, 1), 1.0, ("nans",)),
    "bf16-competing-nan-payloads": (DType.BF16, 4, 4, 5, 2, (1, 1, 1), 1.0, ("nans",)),
    "int8-extremes": (DType.INT8, 3, 4, 6, 3, (1, 2, 1), 1.0, ()),
    "int8-vnni-k-tail": (DType.INT8, 3, 4, 7, 2, (0, 1, 1), 0.0, ("vnni",)),
    # VNNI A unpacked by the C kernel one block of 32 rows at a time
    "vnni-bf16-native-m33": (DType.BF16, 33, 3, 6, 2, (0, 1, 1), 1.0, ("vnni",)),
    "vnni-bf16-emulated-m33": (DType.BF16, 33, 3, 6, 2, (0, 1, 1), 0.5,
                               ("vnni", "emulated")),
    "vnni-int8-m33": (DType.INT8, 33, 3, 8, 2, (0, 1, 1), 1.0, ("vnni",)),
    "vnni-bf16-native-m70": (DType.BF16, 70, 2, 5, 2, (0, 0, 1), 0.0, ("vnni",)),
    "vnni-bf16-emulated-m70": (DType.BF16, 70, 2, 5, 2, (0, 0, 1), 1.0, ("vnni", "emulated")),
    "vnni-int8-m70": (DType.INT8, 70, 2, 7, 2, (0, 1, 0), 1.0, ("vnni",)),
    # K tails: a last group that is partly zero padding
    "vnni-bf16-native-k1": (DType.BF16, 4, 3, 1, 2, (0, 1, 1), 1.0, ("vnni",)),
    "vnni-bf16-emulated-k1": (DType.BF16, 4, 3, 1, 2, (0, 1, 1), 1.0, ("vnni", "emulated")),
    "vnni-bf16-native-k3": (DType.BF16, 4, 3, 3, 2, (0, 0, 1), 0.5, ("vnni",)),
    "vnni-bf16-emulated-k3": (DType.BF16, 4, 3, 3, 2, (0, 0, 1), 0.5, ("vnni", "emulated")),
    "vnni-int8-k1": (DType.INT8, 4, 3, 1, 2, (0, 1, 1), 1.0, ("vnni",)),
    "vnni-int8-k2": (DType.INT8, 4, 3, 2, 2, (0, 1, 1), 1.0, ("vnni",)),
    "vnni-int8-k5": (DType.INT8, 4, 3, 5, 2, (0, 1, 1), 1.0, ("vnni",)),
    "vnni-bf16-native-competing-nan-payloads": (DType.BF16, 4, 4, 5, 2, (0, 1, 1), 1.0,
                                                ("vnni", "nans")),
    "vnni-bf16-emulated-competing-nan-payloads": (DType.BF16, 4, 4, 5, 2, (0, 1, 1), 1.0,
                                                  ("vnni", "emulated", "nans")),
    # beta 0 accumulates in a dense C itself, and through a copy into a padded one
    "vnni-bf16-native-beta0-dense-c": (DType.BF16, 5, 4, 6, 2, (0, 1, 0), 0.0, ("vnni",)),
    "vnni-bf16-emulated-beta0-padded-c": (DType.BF16, 5, 4, 6, 2, (0, 1, 2), 0.0,
                                          ("vnni", "emulated")),
    "vnni-int8-beta0-dense-c": (DType.INT8, 5, 4, 6, 2, (0, 0, 0), 0.0, ("vnni",)),
    "vnni-int8-beta0-padded-c": (DType.INT8, 5, 4, 6, 2, (0, 1, 2), 0.0, ("vnni",)),
}


@pytest.mark.parametrize("kind", ["address", "offset", "stride"])
@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_brgemm_edge_cases_match_scalar_reference(case, kind, gemm_backend, monkeypatch):
    dtype, m, n, k, count, (pa, pb, pc), beta, opts = EDGE_CASES[case]
    rng = np.random.default_rng(sorted(EDGE_CASES).index(case))
    acc = {DType.FP64: DType.FP64, DType.INT8: DType.INT32}.get(dtype, DType.FP32)
    layout = ALayout.VNNI if "vnni" in opts else ALayout.PLAIN
    path = ComputePath.EMULATED_SPLIT if "emulated" in opts else ComputePath.NATIVE
    lda, ldb, ldc = m + pa, k + pb, m + pc
    a = [_edge_values(rng, dtype, (m, k)) for _ in range(count)]
    b = [_edge_values(rng, dtype, (k, n)) for _ in range(count)]
    if "neg" in opts:
        a[1] = -a[0]
        b[1] = b[0]
    if "zeros" in opts:  # a partial starts at +0, so an all -0 chain still ends +0
        a = [rng.choice(np.array([-0.0, 0.0], np.float32), size=(m, k)) for _ in a]
    if "special" in opts:
        a[0][0, 0] = _PAD[DType.FP32]                      # NaN with a payload
        a[0][1, 1] = np.float32(1e-40)                     # subnormal
        a[0][2, 2] = np.float32(-0.0)
        b[0][3, 1] = np.float32(np.inf)
        b[0][1, 2] = np.float32(-1e-42)
        b[1][4, 0] = np.float32(-np.inf)
    if "nans" in opts:
        # NaNs of three payloads meet in a product (0, 0), in a partial
        # (row 1: A's NaN from k=0 meets B's at k=3), in the batch fold (row 3)
        # and in the fold onto C (row 2)
        a[0][0, 0], b[0][0, 0] = _nan(dtype, 0x11), _nan(dtype, 0x22, True)
        a[0][1, 0], b[0][3, 1] = _nan(dtype, 0x11, True), _nan(dtype, 0x22)
        a[1][2, 1] = _nan(dtype, 0x33)
        a[0][3, 4], a[1][3, 2] = _nan(dtype, 0x11), _nan(dtype, 0x22, True)

    # each block at its own place in one flat buffer, padding never read
    if layout is ALayout.VNNI:
        a_flat = [vnni_pack_a(x, 2 if dtype is DType.BF16 else 4) for x in a]
    else:
        a_flat = []
        for x in a:
            blk = np.full((k, lda), _PAD[dtype], dtype=x.dtype)
            blk[:, :m] = x.T
            a_flat.append(blk.reshape(-1))
    b_flat = []
    for x in b:
        blk = np.full((n, ldb), _PAD[dtype], dtype=x.dtype)
        blk[:, :k] = x.T
        b_flat.append(blk.reshape(-1))
    sa, sb = a_flat[0].size, b_flat[0].size
    entries = [0] * count if "dup" in opts else list(range(count))
    if kind == "address":
        batch = BrgemmBatch.address([(a_flat[i], 0) for i in entries],
                                    [(b_flat[i], 0) for i in entries])
    else:
        abuf, bbuf = np.concatenate(a_flat), np.concatenate(b_flat)
        if kind == "offset":
            batch = BrgemmBatch.offset(abuf, bbuf, [i * sa for i in entries],
                                       [i * sb for i in entries])
        else:
            step = 0 if "dup" in opts else 1
            batch = BrgemmBatch.stride(abuf, bbuf, step * sa, step * sb, count)

    if acc is DType.INT32:
        c0 = rng.integers(-1000, 1000, size=(m, n)).astype(np.int32)
    else:
        c0 = rng.standard_normal((m, n)).astype(acc.storage)
    if "zeros" in opts:
        c0[:] = -0.0
    if "nans" in opts:
        c0[2, :] = _nan(acc, 0x33, True)
    spec = GemmSpec(m, n, k, lda, ldb, ldc, in_dtype=dtype, out_dtype=acc, beta=beta,
                    a_layout=layout, compute_path=path)

    def run():
        cbuf = np.full(ldc * n, _C_SENTINEL[acc], dtype=acc.storage)
        cbuf.reshape(n, ldc)[:, :m] = c0.T
        c = view_at(cbuf, 0, TensorDesc(m, n, ldc, acc))
        brgemm(spec, batch, c)
        assert np.all(cbuf.reshape(n, ldc)[:, m:] == _C_SENTINEL[acc])  # ldc padding untouched
        return np.array(c.as2d())

    got = run()
    want = _scalar_brgemm([_widened(a[i], dtype) for i in entries],
                          [_widened(b[i], dtype) for i in entries], c0, beta, acc.storage.type)
    if "nans" in opts:
        # numpy's scalar and vector loops keep different payloads where two
        # NaNs meet (README), so the scalar reference fixes only where NaNs are
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan) and bits_equal(got[~nan], want[~nan])
    else:
        assert bits_equal(got, want)
    if "neg" in opts:
        assert np.all(got == 0.0)
    if gemm_backend != "numpy":
        monkeypatch.setattr(native, "_lib", False)
        assert bits_equal(got, run())


@pytest.mark.parametrize("a_dtype, b_dtype", [(np.float32, np.uint16), (np.uint16, np.float32),
                                              (np.float32, np.float32)])
def test_brgemm_rejects_buffers_of_another_dtype(a_dtype, b_dtype):
    """A BF16 spec reads uint16 patterns; a float32 buffer would be read as
    pairs of patterns, so it is refused, not reinterpreted."""
    sp = spec_mnk(2, 2, 2, DType.BF16)
    c = alloc(D(2, 2))
    with pytest.raises(TensorError):
        gemm(sp, (np.ones(4, a_dtype), 0), (np.ones(4, b_dtype), 0), c)
    with pytest.raises(TensorError):
        matmul(from_array(np.ones((2, 2), np.float32)),
               from_array(np.ones((2, 2), np.float32), DType.BF16), c)


# ---------------------------------------------------------------------------
# VNNI A read in place by the C kernel
# ---------------------------------------------------------------------------

def _vnni_calls(m, n, k, count, seed):
    """The three VNNI calls of a dense step (BF16 native, BF16 emulated,
    INT8; OFFSET batches into a dense C, beta 0) as (spec, batch) pairs."""
    rng = np.random.default_rng(seed)
    calls = []
    for dtype, path in ((DType.BF16, ComputePath.NATIVE),
                        (DType.BF16, ComputePath.EMULATED_SPLIT),
                        (DType.INT8, ComputePath.NATIVE)):
        alpha = 2 if dtype is DType.BF16 else 4
        a = [_edge_values(rng, dtype, (m, k)) for _ in range(count)]
        b = [_edge_values(rng, dtype, (k, n)) for _ in range(count)]
        abuf = np.concatenate([vnni_pack_a(x, alpha) for x in a])
        bbuf = np.concatenate([colmajor_flat(x) for x in b])
        sa, sb = abuf.size // count, bbuf.size // count
        batch = BrgemmBatch.offset(abuf, bbuf, [i * sa for i in range(count)],
                                   [i * sb for i in range(count)])
        calls.append((spec_mnk(m, n, k, dtype, a_layout=ALayout.VNNI, compute_path=path),
                      batch))
    return calls


def _run(spec, batch):
    c = alloc(D(spec.m, spec.n, spec.out_dtype))
    brgemm(spec, batch, c)
    return to_array(c)


def test_dense_vnni_calls_never_take_the_numpy_path(gemm_backend, monkeypatch):
    """The dense step's VNNI calls run in C alone on a native backend: no
    silent fallback to the numpy path."""
    calls = _vnni_calls(64, 64, 64, 8, seed=31)
    with monkeypatch.context() as mp:
        mp.setattr(native, "_lib", False)
        want = [_run(spec, batch) for spec, batch in calls]
    entered = []
    numpy_path = contraction._brgemm_numpy

    def counted(*args):
        entered.append(args[0])
        return numpy_path(*args)

    monkeypatch.setattr(contraction, "_brgemm_numpy", counted)
    got = [_run(spec, batch) for spec, batch in calls]
    assert all(bits_equal(g, w) for g, w in zip(got, want))
    assert len(entered) == (3 if gemm_backend == "numpy" else 0)


def test_vnni_calls_from_four_threads_on_one_buffer_give_the_same_bits(gemm_backend):
    """Each call unpacks A into its own scratch: four threads running the
    three VNNI calls at once over shared A buffers get the one-thread bits."""
    calls = _vnni_calls(70, 48, 33, 6, seed=32)
    want = [_run(spec, batch) for spec, batch in calls]
    start = threading.Barrier(4)

    def worker(_):
        start.wait(timeout=60)
        return [[_run(spec, batch) for spec, batch in calls] for _ in range(10)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(worker, range(4), timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert all(bits_equal(g, w) for rounds in results for outs in rounds
               for g, w in zip(outs, want))


@pytest.mark.parametrize("beta, ldc_pad", [(0.0, 0), (0.0, 2), (1.0, 0)])
def test_vnni_a_one_element_short_raises_before_writing_c(beta, ldc_pad, gemm_backend):
    """A VNNI A block that ends one element past its buffer raises
    ``TensorError`` and leaves every bit of C (padding included) as it was,
    also where a beta-0 call would accumulate in C itself."""
    m, n, k = 5, 4, 7
    for spec, batch in _vnni_calls(m, n, k, 2, seed=33):
        spec = GemmSpec(m, n, k, m, k, m + ldc_pad, in_dtype=spec.in_dtype,
                        out_dtype=spec.out_dtype, beta=beta, a_layout=ALayout.VNNI,
                        compute_path=spec.compute_path)
        abuf = batch.a_refs[0][0]
        short = BrgemmBatch.address([(abuf[:-1], off) for _, off in batch.a_refs],
                                    batch.b_refs)
        cbuf = np.arange(spec.ldc * n).astype(spec.out_dtype.storage)
        before = cbuf.copy()
        with pytest.raises(TensorError):
            brgemm(spec, short, view_at(cbuf, 0, TensorDesc(m, n, spec.ldc, spec.out_dtype)))
        assert bits_equal(cbuf, before)


@pytest.mark.skipif(shutil.which(native.CC) is None, reason="no C compiler on PATH")
@pytest.mark.parametrize("name", ["brgemm_f32", "brgemm_bf16", "brgemm_i8"])
def test_vnni_kernel_reports_a_failed_scratch_allocation(name):
    """A VNNI call whose scratch cannot be allocated returns 1 and writes
    nothing: malloc refuses 2^57 bytes, and a size that overflows is
    refused before malloc."""
    fn = native.kernel(name)
    acc = np.full(4, 7, np.int32)
    for k in (1 << 50, 1 << 62):
        assert fn(0, 1, 1, k, 0, None, 0, 1, 0, None, 0, 1, acc.ctypes.data, 1) == 1
    assert np.all(acc == 7)


@pytest.mark.skipif(shutil.which(native.CC) is None, reason="no C compiler on PATH")
def test_failed_scratch_allocation_takes_the_numpy_path(monkeypatch):
    """When a kernel reports that it could not allocate its scratch, the call
    is computed on the numpy path, with its bits."""
    calls = _vnni_calls(33, 5, 6, 2, seed=34)
    with monkeypatch.context() as mp:
        mp.setattr(native, "_lib", False)
        want = [_run(spec, batch) for spec, batch in calls]
    monkeypatch.setattr(native, "kernel", lambda name: lambda *args: 1)
    assert all(bits_equal(_run(spec, batch), w) for (spec, batch), w in zip(calls, want))


# ---------------------------------------------------------------------------
# the C kernel build
# ---------------------------------------------------------------------------

def _fp32_call(monkeypatch):
    """A small FP32 STRIDE call; returns (run, want) where ``run()`` computes
    C and ``want`` is C from the numpy reference path."""
    rng = np.random.default_rng(21)
    m, n, k, cnt = 9, 7, 11, 3
    af = colmajor_flat(rng.standard_normal((m, k * cnt)).astype(np.float32))
    bf = colmajor_flat(rng.standard_normal((k, n * cnt)).astype(np.float32))

    def run():
        c = alloc(D(m, n))
        brgemm(spec_mnk(m, n, k), BrgemmBatch.stride(af, bf, k * m, n * k, cnt), c)
        return to_array(c)

    with monkeypatch.context() as mp:
        mp.setattr(native, "_lib", False)
        want = run()
    return run, want


def test_buffers_not_readable_in_place_take_the_numpy_path(monkeypatch):
    """A strided or misaligned block buffer is not handed to C; the call
    still gives the numpy path's bits."""
    rng = np.random.default_rng(22)
    m, n, k = 5, 4, 6
    a = colmajor_flat(rng.standard_normal((m, k)).astype(np.float32))
    b = colmajor_flat(rng.standard_normal((k, n)).astype(np.float32))
    strided = np.zeros(2 * a.size, np.float32)[::2]
    strided[:] = a
    raw = np.zeros(b.nbytes + 1, np.uint8)
    misaligned = raw[1:].view(np.float32)
    misaligned[:] = b
    assert not misaligned.flags.aligned
    for a_buf, b_buf in ((strided, b), (a, misaligned)):
        outs = []
        with monkeypatch.context() as mp:
            for _ in range(2):  # as loaded, then with C off
                c = alloc(D(m, n))
                gemm(spec_mnk(m, n, k), (a_buf, 0), (b_buf, 0), c)
                outs.append(to_array(c))
                mp.setattr(native, "_lib", False)
        assert bits_equal(outs[0], outs[1])


@pytest.mark.skipif(shutil.which(native.CC) is None, reason="no C compiler on PATH")
def test_native_source_compiles_without_warnings():
    """Every function native.c calls is declared and every warning of -Wall
    is an error here: a missing <math.h>, say, leaves fabsf, rintf and
    copysignf implicitly declared, which the build itself only warns about."""
    r = subprocess.run([native.CC, *native.FLAGS, "-fsyntax-only", "-Wall", "-Werror",
                        str(native.SOURCE)], capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr


def test_missing_compiler_falls_back_to_numpy(tmp_path, monkeypatch):
    run, want = _fp32_call(monkeypatch)
    monkeypatch.setattr(native, "CC", str(tmp_path / "no-such-cc"))
    monkeypatch.setattr(native, "CACHE_DIR", tmp_path / "cache")
    monkeypatch.setattr(native, "_lib", None)
    assert bits_equal(run(), want)
    assert native.backend() == "numpy"
    assert not any((tmp_path / "cache").glob("*"))


@pytest.mark.skipif(shutil.which(native.CC) is None, reason="no C compiler on PATH")
def test_cold_cache_built_once_from_four_threads_deletes_stale_builds(tmp_path, monkeypatch):
    """Four threads make the first call at once into a cache that holds
    stale builds: one build, no temporary file left behind, every thread
    gets the numpy path's bits.  The build removes the cache's builds of
    other sources or flags, also those made under the library's old name
    ``brgemm-*.so``, and leaves files that are not builds alone."""
    run, want = _fp32_call(monkeypatch)
    monkeypatch.setattr(native, "CACHE_DIR", tmp_path)
    monkeypatch.setattr(native, "_lib", None)
    stale = ["brgemm-0123456789abcdef.so", "native-0123456789abcdef.so"]
    for name in stale:
        (tmp_path / name).write_bytes(b"stale")
    (tmp_path / "other.so").write_bytes(b"kept")
    builds = []
    build = native._build

    def counted_build(path):
        builds.append(path)
        return build(path)

    monkeypatch.setattr(native, "_build", counted_build)
    start = threading.Barrier(4)

    def first_call(_):
        start.wait(timeout=60)
        return run()

    with ThreadPoolExecutor(max_workers=4) as pool:
        outs = list(pool.map(first_call, range(4), timeout=300))
    assert all(bits_equal(out, want) for out in outs)
    assert native.backend() == "native"
    assert len(builds) == 1
    assert [p.suffix for p in tmp_path.iterdir()] == [".so", ".so"]
    names = sorted(p.name for p in tmp_path.iterdir())
    assert len(names) == 2 and "other.so" in names
    assert names[0].startswith("native-") and names[0] not in stale


# ---------------------------------------------------------------------------
# one-buffer sides: bounds-checked by their extent, addressed once
# ---------------------------------------------------------------------------

def _blocks(m, n, k, count, seed):
    """``count`` FP32 A blocks (m x k) and B blocks (k x n), each side
    concatenated in one buffer, block i at i * block size."""
    rng = np.random.default_rng(seed)
    a = [rng.standard_normal((m, k)).astype(np.float32) for _ in range(count)]
    b = [rng.standard_normal((k, n)).astype(np.float32) for _ in range(count)]
    return a, b, np.concatenate([colmajor_flat(x) for x in a]), \
        np.concatenate([colmajor_flat(x) for x in b])


def _brgemm_into_sentinel(spec, batch, beta_c=None):
    """Run ``batch`` into a C padded by 2 rows of sentinels (and, for beta 1,
    holding ``beta_c``); returns the whole C buffer."""
    m, n = spec.m, spec.n
    cbuf = np.full(spec.ldc * n, -12345.0, np.float32)
    if beta_c is not None:
        cbuf.reshape(n, spec.ldc)[:, :m] = beta_c.T
    brgemm(spec, batch, view_at(cbuf, 0, TensorDesc(m, n, spec.ldc, DType.FP32)))
    return cbuf


def _want(a, b, entries, c0=None):
    m, n = a[0].shape[0], b[0].shape[1]
    return _scalar_brgemm([a[i] for i in entries], [b[i] for i in entries],
                          np.zeros((m, n), np.float32) if c0 is None else c0,
                          0.0 if c0 is None else 1.0, np.float32)


@pytest.mark.parametrize("order", [(2, 0, 3, 1), (3, 1, 0, 2), (1, 3, 2, 0)])
def test_unsorted_offsets_run_in_their_order(order, gemm_backend):
    """Offsets in any order: entry i is block order[i], folded in batch
    order, whichever entry holds the lowest and the highest offset."""
    m, n, k = 5, 4, 6
    a, b, abuf, bbuf = _blocks(m, n, k, 4, seed=41)
    spec = GemmSpec(m, n, k, m, k, m + 2)
    batch = BrgemmBatch.offset(abuf, bbuf, [i * m * k for i in order],
                               [i * k * n for i in order])
    got = _brgemm_into_sentinel(spec, batch).reshape(n, m + 2)
    assert bits_equal(got[:, :m].T, _want(a, b, order))
    assert np.all(got[:, m:] == -12345.0)


@pytest.mark.parametrize("side", ["a", "b"])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_an_unsorted_side_is_checked_by_its_highest_offset(side, where, gemm_backend):
    """One offset of three lies one element past the end of its buffer, at
    the start, in the middle or at the end of the batch: a check by the
    first and last entry alone would miss the middle one.  The call raises
    ``TensorError`` and leaves every bit of C as it was."""
    m, n, k = 4, 3, 5
    a, b, abuf, bbuf = _blocks(m, n, k, 3, seed=42)
    a_offs, b_offs = [m * k, 0, 2 * m * k], [k * n, 0, 2 * k * n]
    offs, size = (a_offs, abuf.size) if side == "a" else (b_offs, bbuf.size)
    block = m * k if side == "a" else k * n
    offs[where] = size - block + 1
    for beta, ldc in ((0.0, m), (0.0, m + 2), (1.0, m)):
        spec = GemmSpec(m, n, k, m, k, ldc, beta=beta)
        cbuf = np.arange(ldc * n, dtype=np.float32)
        before = cbuf.copy()
        with pytest.raises(TensorError):
            brgemm(spec, BrgemmBatch.offset(abuf, bbuf, a_offs, b_offs),
                   view_at(cbuf, 0, TensorDesc(m, n, ldc, DType.FP32)))
        assert bits_equal(cbuf, before)


def test_stride_zero_repeats_one_block(gemm_backend):
    """Stride 0 reads the same blocks count times: the bits of an address
    batch that lists them count times, at the first and at the last place
    of the buffers."""
    m, n, k = 4, 5, 3
    a, b, abuf, bbuf = _blocks(m, n, k, 2, seed=43)
    spec = GemmSpec(m, n, k, m, k, m)
    for i in (0, 1):
        sa, sb = i * m * k, i * k * n
        got = _brgemm_into_sentinel(spec, BrgemmBatch.stride((abuf, sa), (bbuf, sb), 0, 0, 3))
        assert bits_equal(got.reshape(n, m).T, _want(a, b, [i] * 3))
        ref = _brgemm_into_sentinel(spec, BrgemmBatch.address([(abuf, sa)] * 3,
                                                              [(bbuf, sb)] * 3))
        assert bits_equal(got, ref)


def test_a_negative_stride_walks_down_the_buffer(gemm_backend):
    m, n, k = 3, 4, 5
    a, b, abuf, bbuf = _blocks(m, n, k, 3, seed=44)
    spec = GemmSpec(m, n, k, m, k, m)
    batch = BrgemmBatch.stride((abuf, 2 * m * k), (bbuf, 2 * k * n), -m * k, -k * n, 3)
    got = _brgemm_into_sentinel(spec, batch)
    assert bits_equal(got.reshape(n, m).T, _want(a, b, [2, 1, 0]))


@pytest.mark.parametrize("make", [
    lambda abuf, bbuf, sa, sb: BrgemmBatch.offset(abuf, bbuf, [-1, sa], [0, sb]),
    lambda abuf, bbuf, sa, sb: BrgemmBatch.offset(abuf, bbuf, [0, sa], [-sb, 0]),
    lambda abuf, bbuf, sa, sb: BrgemmBatch.stride((abuf, -1), bbuf, sa, sb, 2),
    lambda abuf, bbuf, sa, sb: BrgemmBatch.stride((abuf, sa), (bbuf, sb), -sa, -sb, 3),
    lambda abuf, bbuf, sa, sb: BrgemmBatch.address([(abuf, sa), (abuf, -sa)],
                                                   [(bbuf, 0), (bbuf, sb)]),
], ids=["offset-a", "offset-b", "stride-first", "stride-down-past-zero", "address-one-buffer"])
def test_a_negative_offset_raises_before_c_is_written(make, gemm_backend):
    m, n, k = 3, 4, 5
    _, _, abuf, bbuf = _blocks(m, n, k, 2, seed=45)
    cbuf = np.arange(m * n, dtype=np.float32)
    before = cbuf.copy()
    with pytest.raises(TensorError):
        brgemm(GemmSpec(m, n, k, m, k, m), make(abuf, bbuf, m * k, k * n),
               view_at(cbuf, 0, TensorDesc(m, n, m, DType.FP32)))
    assert bits_equal(cbuf, before)


@pytest.mark.parametrize("kind", ["address", "offset", "stride"])
@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_a_last_block_one_element_past_the_end_raises_before_c_is_written(kind, beta,
                                                                          gemm_backend):
    m, n, k = 4, 3, 5
    _, _, abuf, bbuf = _blocks(m, n, k, 2, seed=46)
    sa, sb = m * k, k * n
    short = bbuf[:-1]
    batch = {"address": BrgemmBatch.address([(abuf, 0), (abuf, sa)], [(short, 0), (short, sb)]),
             "offset": BrgemmBatch.offset(abuf, short, [0, sa], [0, sb]),
             "stride": BrgemmBatch.stride(abuf, short, sa, sb, 2)}[kind]
    cbuf = np.arange(m * n, dtype=np.float32)
    before = cbuf.copy()
    with pytest.raises(TensorError):
        brgemm(GemmSpec(m, n, k, m, k, m, beta=beta), batch,
               view_at(cbuf, 0, TensorDesc(m, n, m, DType.FP32)))
    assert bits_equal(cbuf, before)
    # the same batch over the whole buffer runs
    full = BrgemmBatch.stride(abuf, bbuf, sa, sb, 2)
    _brgemm_into_sentinel(GemmSpec(m, n, k, m, k, m + 2), full)


@pytest.mark.parametrize("kind", ["address", "offset", "stride", "address-two-buffers"])
def test_c_aliasing_an_input_is_rejected(kind, gemm_backend):
    """C may not share memory with any block buffer, the one buffer of a
    side or any buffer of an address side over several."""
    m, n, k = 4, 4, 4
    _, _, abuf, bbuf = _blocks(m, n, k, 2, seed=47)
    other = bbuf.copy()
    batch = {"address": BrgemmBatch.address([(abuf, 0), (abuf, 16)], [(bbuf, 0), (bbuf, 16)]),
             "offset": BrgemmBatch.offset(abuf, bbuf, [0, 16], [0, 16]),
             "stride": BrgemmBatch.stride(abuf, bbuf, 16, 16, 2),
             "address-two-buffers": BrgemmBatch.address([(abuf, 0), (abuf, 16)],
                                                        [(other, 0), (bbuf, 16)])}[kind]
    before = bbuf.copy()
    with pytest.raises(TensorError, match="alias"):
        brgemm(GemmSpec(m, n, k, m, k, m), batch,
               view_at(bbuf, 16, TensorDesc(m, n, m, DType.FP32)))
    assert bits_equal(bbuf, before)


def test_refs_are_those_of_each_constructor():
    """``a_refs`` and ``b_refs`` list (buffer, offset) pairs: the buffer of a
    view, the base offset added, offsets as Python ints, in batch order."""
    abuf, bbuf = np.zeros(64, np.float32), np.zeros(64, np.float32)
    av = from_array(np.zeros((4, 4), np.float32))
    offs = np.array([8, 0, 4], np.int64)

    def same(got, want):
        assert len(got) == len(want)
        for (gb, go), (wb, wo) in zip(got, want):
            assert gb is wb and go == wo and type(go) is int

    batch = BrgemmBatch.address([av, (abuf, np.int64(3)), abuf], [(bbuf, 1), (av, 2), bbuf])
    same(batch.a_refs, [(av.primary, 0), (abuf, 3), (abuf, 0)])
    same(batch.b_refs, [(bbuf, 1), (av.primary, 2), (bbuf, 0)])
    assert batch.n == 3
    batch = BrgemmBatch.offset((abuf, 2), av, offs, [1, 2, 3])
    same(batch.a_refs, [(abuf, 10), (abuf, 2), (abuf, 6)])
    same(batch.b_refs, [(av.primary, 1), (av.primary, 2), (av.primary, 3)])
    for stride in (5, 0, -2):
        batch = BrgemmBatch.stride((abuf, 7), (av, 1), stride, 3, 4)
        same(batch.a_refs, [(abuf, 7 + i * stride) for i in range(4)])
        same(batch.b_refs, [(av.primary, 1 + i * 3) for i in range(4)])
        assert batch.n == 4
    for count in (0, -1):
        batch = BrgemmBatch.stride(abuf, bbuf, 4, 4, count)
        assert batch.n == 0 and batch.a_refs == () and batch.b_refs == ()


def test_a_batch_is_immutable_and_its_sides_agree_in_length(gemm_backend):
    """The C kernel walks ``n`` entries of each side: ``n`` is the length of
    the sides as given, which must agree, and neither can change after the
    batch is built, so no count can outrun the offsets that were checked."""
    m, n, k = 3, 4, 5
    a, b, abuf, bbuf = _blocks(m, n, k, 3, seed=49)
    sa, sb = m * k, k * n
    batch = BrgemmBatch.stride(abuf, bbuf, sa, sb, 2)
    for name in ("n", "a_one", "b_one", "_a_refs", "_b_refs", "other"):
        with pytest.raises(AttributeError):
            setattr(batch, name, 3)
    with pytest.raises(AttributeError):
        del batch.n
    assert batch.n == 2
    for sides in (dict(a_one=(abuf, (0, sa)), b_one=(bbuf, (0,))),
                  dict(a_one=(abuf, range(0, 3 * sa, sa)), b_one=(bbuf, range(0, 2 * sb, sb))),
                  dict(a_refs=[(abuf, 0)], b_one=(bbuf, (0, sb)))):
        with pytest.raises(TensorError, match="mismatch"):
            BrgemmBatch(**sides)
    for sides in (dict(a_one=(abuf, (0,))),
                  dict(a_one=(abuf, (0,)), a_refs=[(abuf, 0)], b_one=(bbuf, (0,)))):
        with pytest.raises(TensorError, match="each side"):
            BrgemmBatch(**sides)
    # the offsets are copied: growing the caller's list afterwards changes
    # neither the count nor the blocks the call reads
    a_offs, b_offs = [2 * sa, 0], [2 * sb, 0]
    direct = BrgemmBatch((abuf, a_offs), (bbuf, b_offs))
    a_offs.append(abuf.size)
    b_offs.append(bbuf.size)
    assert direct.n == 2
    spec = GemmSpec(m, n, k, m, k, m + 2)
    got = _brgemm_into_sentinel(spec, direct).reshape(n, m + 2)
    assert bits_equal(got[:, :m].T, _want(a, b, [2, 0]))
    assert np.all(got[:, m:] == -12345.0)


def test_a_nan_in_the_last_result_takes_the_numpy_path(gemm_backend, monkeypatch):
    """The C kernel reports a NaN anywhere in C, the last element included:
    the call is then computed on the numpy path, with its bits."""
    m, n, k = 5, 4, 3
    a, b, abuf, bbuf = _blocks(m, n, k, 2, seed=48)
    abuf[m * k + m - 1] = np.inf       # entry 1: A(m-1, 0) = inf, B(0, n-1) = 0,
    bbuf[k * n + (n - 1) * k] = 0.0    # so inf * 0 makes C(m-1, n-1) alone a NaN
    entered = []
    numpy_path = contraction._brgemm_numpy

    def counted(*args):
        entered.append(args[0])
        return numpy_path(*args)

    monkeypatch.setattr(contraction, "_brgemm_numpy", counted)
    spec = GemmSpec(m, n, k, m, k, m)
    got = _brgemm_into_sentinel(spec, BrgemmBatch.stride(abuf, bbuf, m * k, k * n, 2))
    with monkeypatch.context() as mp:
        mp.setattr(native, "_lib", False)
        want = _brgemm_into_sentinel(spec, BrgemmBatch.stride(abuf, bbuf, m * k, k * n, 2))
    assert bits_equal(got, want) and list(np.flatnonzero(np.isnan(got))) == [m * n - 1]
    assert len(entered) == 2


@pytest.mark.skipif(shutil.which(native.CC) is None, reason="no C compiler on PATH")
@pytest.mark.parametrize("name, dtype", [("brgemm_f32", np.float32), ("brgemm_f64", np.float64)])
def test_the_c_kernel_reports_a_nan_result_by_its_status(name, dtype):
    fn = native.kernel(name)
    a = np.ones(6, dtype)                 # two 1 x 3 A blocks
    b = np.ones(6, dtype)                 # two 3 x 1 B blocks
    acc = np.zeros(1, dtype)
    size = a.itemsize

    def call():
        acc[:] = 0
        return fn(2, 1, 1, 3, a.ctypes.data, None, 3 * size, 1,
                  b.ctypes.data, None, 3 * size, 3, acc.ctypes.data, 0)

    assert call() == 0 and acc[0] == 6
    b[5] = np.nan
    assert call() == 2 and np.isnan(acc[0])


@pytest.mark.parametrize("bcast", [Bcast.ROW, Bcast.COL, Bcast.SCALAR])
def test_a_broadcast_c_is_rejected_before_any_write(bcast, gemm_backend):
    """A broadcast C has fewer physical elements than M x N: the call
    raises instead of writing M x N results past its buffer."""
    m = n = k = 8
    d = TensorDesc(m, n, m, DType.FP32, bcast)
    cbuf = np.arange(d.min_buffer_len + 4, dtype=np.float32)
    before = cbuf.copy()
    a, b = np.ones(m * k, np.float32), np.ones(k * n, np.float32)
    for beta in (0.0, 1.0):
        with pytest.raises(TensorError, match="broadcast"):
            gemm(GemmSpec(m, n, k, m, k, m, beta=beta), (a, 0), (b, 0), view_at(cbuf, 0, d))
    assert bits_equal(cbuf, before)
