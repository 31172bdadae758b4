from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from tensorprim import (
    Bcast,
    BinaryKind,
    DType,
    DilatedConvSpec,
    EmbeddingSpec,
    FcSpec,
    GatherMode,
    InvalidSpecError,
    NormMode,
    ReduceAxis,
    ReduceOp,
    ReduceSpec,
    SoftmaxSpec,
    SplitTensor,
    TensorDesc,
    TensorError,
    TensorView,
    UnaryKind,
    alloc,
    apply_binary,
    apply_unary,
    binary_reduce_aggregate,
    broadcast,
    dilated_conv1d_forward,
    embedding_gather_reduce,
    fc_forward,
    from_array,
    gather_scatter,
    layernorm,
    norm_scaling,
    reduce,
    softmax,
    split_fp32,
    pack_fp32,
    split_sgd_step,
    to_array,
    view_at,
)
from tensorprim import verify
from tensorprim.equation import Buffered, EquationError, Hybrid, TileFused
from tensorprim.verify import norm_oracle

from util import bits_equal, oracle_softmax


def D(m, n, dtype=DType.FP32):
    return TensorDesc(m, n, m, dtype)


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

def test_softmax_constant_slice_is_uniform():
    spec = SoftmaxSpec(4, 2, 8)
    x = from_array(np.full((4, 16), 3.25, dtype=np.float32))
    y = alloc(D(4, 16))
    softmax(spec, x, y)
    assert np.allclose(to_array(y), 1.0 / 32, atol=1e-7)


def test_softmax_slices_sum_to_one_and_match_reference():
    rng = np.random.default_rng(0)
    spec = SoftmaxSpec(8, 3, 32)
    x = rng.random((8, 96), dtype=np.float32)
    xv, yv = from_array(x), alloc(D(8, 96))
    softmax(spec, xv, yv)
    y = to_array(yv)
    for j in range(3):
        sl = y[:, j * 32:(j + 1) * 32]
        assert abs(float(sl.sum()) - 1.0) <= 1e-6
        xs = x[:, j * 32:(j + 1) * 32].astype(np.float64)
        ref = np.exp(xs - xs.max())
        ref /= ref.sum()
        assert np.max(np.abs(sl - ref)) <= 1e-5


def test_softmax_shape_guard():
    with pytest.raises(TensorError):
        softmax(SoftmaxSpec(4, 2, 8), from_array(np.zeros((4, 15), np.float32)),
                alloc(D(4, 15)))


@pytest.mark.parametrize("extents", [(4, -2, -8), (0, 1, 1), (1, 0, 1), (1, 1, 0)])
def test_softmax_spec_rejects_a_non_positive_extent(extents):
    """(4, -2, -8) would match a 4 x 16 input: the spec itself refuses it."""
    with pytest.raises(TensorError):
        SoftmaxSpec(*extents)


def _padded_softmax_view(values, dtype, pad):
    """``values`` in a ``dtype`` view whose columns are ``pad`` elements
    apart beyond its rows, the padding a NaN (BF16: its pattern 0x7FC1)."""
    rows, cols = values.shape
    ld = rows + pad
    if dtype is DType.BF16:
        buf = np.full(ld * cols, 0x7FC1, np.uint16)
    else:
        buf = np.full(ld * cols, np.nan, dtype.storage)
    v = view_at(buf, 0, TensorDesc(rows, cols, ld, dtype))
    apply_unary(UnaryKind.IDENTITY, from_array(values), v)
    return v


def _softmax_values(s1, s2, s3, rng, odd):
    """Random slices; with ``odd``, slice j % 5 holds a NaN (0), a +Inf (1),
    a -Inf (2), only -0 (3) or subnormals (4).  The NaNs share one payload:
    where NaNs of two payloads meet, which one survives is not pinned
    (README, NaN sign and payload)."""
    x = 4.0 * rng.standard_normal((s1, s2 * s3))
    if odd:
        for j in range(s2):
            sl = x[:, j * s3:(j + 1) * s3]
            i, k = rng.integers(0, s1), rng.integers(0, s3)
            if j % 5 == 0:
                sl[i, k] = np.nan
            elif j % 5 == 1:
                sl[i, k] = np.inf
            elif j % 5 == 2:
                sl[i, k] = -np.inf
            elif j % 5 == 3:
                sl[:, :] = -0.0
            else:
                sl[:, :] *= 1e-40
    return x.astype(np.float32)


_SOFTMAX_STRATEGIES = [Buffered(), Hybrid(16, 16), Hybrid(3, 5), TileFused(16, 16)]


@pytest.mark.parametrize("in_dt, out_dt", [(DType.FP32, DType.FP32), (DType.BF16, DType.BF16),
                                           (DType.BF16, DType.FP32), (DType.FP64, DType.FP64),
                                           (DType.FP32, DType.BF16)],
                         ids=lambda d: d.name)
@pytest.mark.parametrize("extents", [(1, 1, 1), (1, 5, 7), (9, 1, 13), (11, 6, 1),
                                     (17, 8, 23), (64, 8, 64)])
@pytest.mark.parametrize("odd", [False, True], ids=["finite", "nan-inf-zero"])
@pytest.mark.parametrize("pad", [0, 3])
def test_batched_softmax_equals_the_per_slice_oracle(in_dt, out_dt, extents, odd, pad,
                                                     native_backend):
    """All slices at once give the bits of two plans per slice with ALL
    reduces, under every strategy (TileFused too: both plans are
    elementwise), at a padded ``ld`` that is never written, and in place."""
    spec = SoftmaxSpec(*extents)
    values = _softmax_values(*extents, np.random.default_rng(sum(extents) + pad), odd)
    x = _padded_softmax_view(values, in_dt, pad)
    want = _padded_softmax_view(np.zeros_like(values), out_dt, pad)
    oracle_softmax(spec, x, want)
    for strategy in _SOFTMAX_STRATEGIES:
        got = _padded_softmax_view(np.zeros_like(values), out_dt, pad)
        softmax(spec, x, got, strategy)
        assert bits_equal(got.primary, want.primary), strategy
    if in_dt is out_dt:
        softmax(spec, x, x)
        assert bits_equal(x.primary, want.primary)


@pytest.mark.parametrize("dtype", [DType.INT32, DType.INT8])
def test_softmax_of_an_integer_input_raises_before_any_write(dtype):
    x = from_array(np.ones((4, 6), dtype.storage), dtype)
    y = alloc(D(4, 6), fill=7.0)
    with pytest.raises(EquationError):
        softmax(SoftmaxSpec(4, 2, 3), x, y)
    assert np.all(to_array(y) == 7.0)


# ---------------------------------------------------------------------------
# layernorm / norm scaling
# ---------------------------------------------------------------------------

def _gb(m, n, gval=1.0, bval=0.0):
    g = broadcast(from_array(np.full((1, n), gval, dtype=np.float32)), Bcast.ROW, m, n)
    b = broadcast(from_array(np.full((1, n), bval, dtype=np.float32)), Bcast.ROW, m, n)
    return g, b


def test_layernorm_constant_row_yields_shift():
    m, n = 3, 16
    x = from_array(np.full((m, n), 5.0, dtype=np.float32))
    g, b = _gb(m, n, gval=2.0, bval=0.75)
    out = alloc(D(m, n))
    layernorm(x, g, b, 1e-5, out)
    # sigma = 0, guarded by eps: output collapses to B
    assert np.allclose(to_array(out), 0.75, atol=1e-6)


def test_layernorm_normalises_and_matches_reference():
    rng = np.random.default_rng(1)
    m, n = 7, 48
    x = rng.standard_normal((m, n)).astype(np.float32)
    g, b = _gb(m, n)
    out = alloc(D(m, n))
    mo, vo = alloc(D(m, 1)), alloc(D(m, 1))
    layernorm(from_array(x), g, b, 1e-5, out, mo, vo)
    o = to_array(out).astype(np.float64)
    assert np.max(np.abs(o.mean(axis=1))) <= 1e-6
    assert np.max(np.abs(o.var(axis=1) - 1.0)) <= 1e-4
    mu = x.astype(np.float64).mean(axis=1, keepdims=True)
    var = x.astype(np.float64).var(axis=1, keepdims=True)
    assert np.max(np.abs(o - (x - mu) / np.sqrt(var + 1e-5))) <= 1e-5
    assert np.allclose(to_array(mo)[:, 0], mu[:, 0], atol=1e-5)
    assert np.allclose(to_array(vo)[:, 0], var[:, 0], atol=1e-4)


def test_layernorm_guards():
    x = from_array(np.ones((2, 8), dtype=np.float32))
    g, b = _gb(2, 8)
    with pytest.raises(TensorError):
        layernorm(x, g, b, 0.0, alloc(D(2, 8)))
    with pytest.raises(TensorError):
        layernorm(from_array(np.ones((2, 1), dtype=np.float32)), g, b, 1e-5, alloc(D(2, 1)))
    for wrong in (alloc(D(1, 1)), alloc(D(2, 2))):
        with pytest.raises(TensorError):
            layernorm(x, g, b, 1e-5, alloc(D(2, 8)), var_out=wrong)


def test_norm_scaling_identity():
    x = from_array(np.arange(12, dtype=np.float32).reshape(3, 4))
    ones = from_array(np.ones((3, 1), dtype=np.float32))
    zeros = from_array(np.zeros((3, 1), dtype=np.float32))
    out = alloc(D(3, 4))
    norm_scaling(x, ones, zeros, ones, zeros, NormMode.BATCHNORM, out)
    assert bits_equal(to_array(out), np.arange(12, dtype=np.float32).reshape(3, 4))


def test_batchnorm_matches_two_pass_oracle():
    rng = np.random.default_rng(2)
    n_, c_, h_, w_ = 2, 4, 3, 3
    x4 = rng.standard_normal((n_, c_, h_, w_)).astype(np.float32)
    # channels x (batch*spatial) layout
    x2 = x4.transpose(1, 0, 2, 3).reshape(c_, n_ * h_ * w_)
    mu = x2.astype(np.float64).mean(axis=1)
    var = x2.astype(np.float64).var(axis=1)
    eps = 1e-5
    rstd = 1.0 / np.sqrt(var + eps)
    mp = from_array(rstd.reshape(-1, 1).astype(np.float32))
    vp = from_array((-mu * rstd).reshape(-1, 1).astype(np.float32))
    gv = rng.standard_normal((c_, 1)).astype(np.float32)
    bv = rng.standard_normal((c_, 1)).astype(np.float32)
    out = alloc(D(c_, n_ * h_ * w_))
    norm_scaling(from_array(x2), mp, vp, from_array(gv), from_array(bv),
                 NormMode.BATCHNORM, out)
    ref = ((x2.astype(np.float64) - mu[:, None]) * rstd[:, None]) * gv + bv
    assert np.max(np.abs(to_array(out) - ref)) <= 1e-5


def test_groupnorm_full_groups_equal_per_channel_stats():
    rng = np.random.default_rng(3)
    c_, l_ = 6, 20
    x = rng.standard_normal((c_, l_)).astype(np.float32)
    ones = from_array(np.ones((c_, 1), dtype=np.float32))
    zeros = from_array(np.zeros((c_, 1), dtype=np.float32))
    out = alloc(D(c_, l_))
    norm_scaling(from_array(x), None, None, ones, zeros, NormMode.GROUPNORM,
                 out, groups=c_)
    # groups == channels: per-channel statistics (instance-norm style)
    mu = x.astype(np.float64).mean(axis=1, keepdims=True)
    var = x.astype(np.float64).var(axis=1, keepdims=True)
    ref = (x - mu) / np.sqrt(var + 1e-5)
    assert np.max(np.abs(to_array(out) - ref)) <= 1e-5


def test_groupnorm_group_count_guard():
    x = from_array(np.ones((6, 4), dtype=np.float32))
    ones = from_array(np.ones((6, 1), dtype=np.float32))
    for groups in (4, 0, -2):
        with pytest.raises(TensorError):
            norm_scaling(x, None, None, ones, ones, NormMode.GROUPNORM,
                         alloc(D(6, 4)), groups=groups)


def _norm_inputs(rows, cols):
    """Random rows, rows of +0 and -0, and rows holding subnormals."""
    rng = np.random.default_rng(17)
    x = rng.standard_normal((rows, cols)).astype(np.float32)
    x[1] = np.where(rng.random(cols) < 0.5, np.float32(0.0), np.float32(-0.0))
    x[2, ::3] = np.float32(1e-40) * rng.choice([-1, 1], size=x[2, ::3].shape)
    x[3, 1::2] = np.float32(1.4e-45)
    return x


def _padded(x, pad, fill=np.nan):
    """``x`` as a view whose ld exceeds its rows, padding filled with ``fill``."""
    rows, cols = x.shape
    d = TensorDesc(rows, cols, rows + pad, DType.FP32)
    v = view_at(np.full(d.min_buffer_len + 5, fill, np.float32), 0, d)
    v.as2d()[:, :] = x
    return v


@pytest.mark.parametrize("pad", [0, 3])
def test_layernorm_bits_match_the_documented_order(pad):
    rows, cols = 6, 37
    x = _norm_inputs(rows, cols)
    rng = np.random.default_rng(18)
    g = rng.standard_normal((rows, cols)).astype(np.float32)
    b = rng.standard_normal((rows, cols)).astype(np.float32)
    out = _padded(np.zeros_like(x), pad)
    mo, vo = alloc(D(rows, 1)), alloc(D(rows, 1))
    layernorm(_padded(x, pad), from_array(g), from_array(b), 1e-5, out, mo, vo)
    scale, shift, mean, var = norm_oracle(x, rows, 1e-5)
    assert bits_equal(to_array(out), b + (shift + x * scale) * g)
    assert bits_equal(to_array(mo), mean) and bits_equal(to_array(vo), var)


@pytest.mark.parametrize("groups", [1, 2, 6])
@pytest.mark.parametrize("pad", [0, 3])
def test_groupnorm_bits_match_the_documented_order(groups, pad):
    rows, cols = 6, 37
    x = _norm_inputs(rows, cols)
    rng = np.random.default_rng(19)
    g = rng.standard_normal((rows, 1)).astype(np.float32)
    b = rng.standard_normal((rows, 1)).astype(np.float32)
    out = _padded(np.zeros_like(x), pad)
    norm_scaling(_padded(x, pad), None, None, from_array(g), from_array(b),
                 NormMode.GROUPNORM, out, groups=groups, eps=1e-5)
    scale, shift, _, _ = norm_oracle(x, groups, 1e-5)
    assert bits_equal(to_array(out), b + (shift + x * scale) * g)


def test_each_norm_call_is_one_evaluation_of_one_program(native_backend):
    """An FP32 layernorm and a GROUPNORM norm_scaling each evaluate one plan
    once, which runs as one C program call where C runs, and call no
    primitive (every node is a program step); on the numpy backend the
    same one evaluation runs per step.  With ``mean_out`` and ``var_out``
    layernorm evaluates one plan more for each, and both equal
    :func:`norm_oracle` bitwise."""
    from tensorprim import equation, kernels, native, ops

    rng = np.random.default_rng(23)
    rows, cols = 8, 40
    x = rng.standard_normal((rows, cols)).astype(np.float32)
    g = rng.standard_normal((rows, 1)).astype(np.float32)
    b = rng.standard_normal((rows, 1)).astype(np.float32)
    calls = {"evaluate": 0, "program": 0, "primitive": 0}

    def counted(name, fn):
        def call(*a, **k):
            calls[name] += 1
            return fn(*a, **k)
        return call

    def program(*a, **k):
        run = make(*a, **k)
        return None if run is None else counted("program", run)

    def norm_calls(fn):
        for key in calls:
            calls[key] = 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(equation, "evaluate", counted("evaluate", equation.evaluate))
            mp.setattr(native, "program", program)
            for module in (ops, kernels):
                for name in ("reduce", "apply_unary", "apply_binary", "apply_ternary"):
                    mp.setattr(module, name, counted("primitive", getattr(module, name)))
            fn()
        return dict(calls)

    make = native.program
    c = native_backend != "numpy"

    def want(evaluations):
        return evaluations, evaluations * c, not c

    gb = _gb(rows, cols)
    mo, vo = alloc(D(rows, 1)), alloc(D(rows, 1))
    for fn, evaluations in [
            (lambda: norm_scaling(from_array(x), None, None, from_array(g), from_array(b),
                                  NormMode.GROUPNORM, alloc(D(rows, cols)), groups=2, eps=1e-5), 1),
            (lambda: layernorm(from_array(x), *gb, 1e-5, alloc(D(rows, cols))), 1),
            (lambda: layernorm(from_array(x), *gb, 1e-5, alloc(D(rows, cols)), mo, vo), 3)]:
        got = norm_calls(fn)
        assert (got["evaluate"], got["program"], got["primitive"] > 0) == want(evaluations)
    _, _, mean, var = norm_oracle(x, rows, 1e-5)
    assert bits_equal(to_array(mo), mean) and bits_equal(to_array(vo), var)


def test_norm_variance_lost_to_cancellation_is_clamped_at_zero():
    """ss/n - mu*mu of a constant row of 1000.1 cancels below -eps; the
    variance is clamped at 0 instead of reaching a negative square root."""
    x = from_array(np.full((1, 64), 1000.1, dtype=np.float32))
    g, b = _gb(1, 64)
    out, mo, vo = alloc(D(1, 64)), alloc(D(1, 1)), alloc(D(1, 1))
    layernorm(x, g, b, 1e-5, out, mo, vo)
    assert np.all(np.isfinite(to_array(out)))
    assert bits_equal(to_array(vo), np.zeros((1, 1), np.float32))

    x8 = from_array(np.full((8, 64), 1000.1, dtype=np.float32))
    ones = from_array(np.ones((8, 1), dtype=np.float32))
    zeros = from_array(np.zeros((8, 1), dtype=np.float32))
    out8 = alloc(D(8, 64))
    norm_scaling(x8, None, None, ones, zeros, NormMode.GROUPNORM, out8, groups=2)
    assert np.all(np.isfinite(to_array(out8)))


def test_layernorm_bf16_statistics_round_to_nearest_even():
    """Means of 3.5 (exact in BF16) and 1 + 2^-8 (a tie, to even: 1.0)."""
    x = from_array(np.array([[3.0, 4.0], [1.0, 1.0078125]], dtype=np.float32))
    g, b = _gb(2, 2)
    mo, vo = alloc(D(2, 1, DType.BF16)), alloc(D(2, 1, DType.BF16))
    layernorm(x, g, b, 1e-5, alloc(D(2, 2)), mo, vo)
    assert to_array(mo)[:, 0].tolist() == [3.5, 1.0]
    assert to_array(vo)[0, 0] == 0.25


# ---------------------------------------------------------------------------
# split SGD
# ---------------------------------------------------------------------------

def test_split_sgd_zero_lr_is_identity():
    rng = np.random.default_rng(4)
    w0 = rng.standard_normal((4, 4)).astype(np.float32)
    split = split_fp32(from_array(w0))
    hi0, lo0 = np.array(split.hi.as2d()), np.array(split.lo.as2d())
    split_sgd_step(split, from_array(rng.standard_normal((4, 4)).astype(np.float32)), 0.0)
    assert bits_equal(np.array(split.hi.as2d()), hi0)
    assert bits_equal(np.array(split.lo.as2d()), lo0)


def test_split_sgd_exact_cancellation():
    w0 = np.array([[4.0, -2.0]], dtype=np.float32)
    split = split_fp32(from_array(w0))
    lr = 0.5
    grad = w0 / np.float32(lr)
    split_sgd_step(split, from_array(grad), lr)
    assert np.all(to_array(pack_fp32(split)) == 0.0)


def test_split_sgd_tracks_fp32_reference_bitwise():
    rng = np.random.default_rng(5)
    w0 = rng.standard_normal((6, 5)).astype(np.float32)
    split = split_fp32(from_array(w0))
    ref = w0.copy()
    lr32 = np.float32(0.01)
    for _ in range(100):
        grad = rng.standard_normal((6, 5)).astype(np.float32)
        split_sgd_step(split, from_array(grad), 0.01)
        ref = ref - grad * lr32
    assert bits_equal(to_array(pack_fp32(split)), ref)


def _split_at(w: np.ndarray, ld: int) -> SplitTensor:
    """``w`` split into halves with leading dimension ``ld``, padding zero."""
    rows, cols = w.shape
    bits = w.view(np.uint32)
    hi = alloc(TensorDesc(rows, cols, ld, DType.BF16))
    lo = alloc(TensorDesc(rows, cols, ld, DType.INT16))
    hi.as2d()[:, :] = (bits >> 16).astype(np.uint16)
    lo.as2d()[:, :] = (bits & 0xFFFF).astype(np.uint16)
    return SplitTensor(hi, lo)


def test_split_sgd_on_padded_ld_halves_steps_like_fp32_sgd():
    rng = np.random.default_rng(8)
    w0 = rng.standard_normal((3, 4)).astype(np.float32)
    padded, dense = _split_at(w0, 5), split_fp32(from_array(w0))
    ref, lr32 = w0.copy(), np.float32(0.01)
    for _ in range(20):
        g = rng.standard_normal((3, 4)).astype(np.float32)
        split_sgd_step(padded, from_array(g), 0.01)
        split_sgd_step(dense, from_array(g), 0.01)
        ref = ref - g * lr32
    assert bits_equal(to_array(pack_fp32(padded)), ref)
    assert bits_equal(to_array(pack_fp32(dense)), ref)
    for half in (padded.hi, padded.lo):  # rows 3 and 4 between columns are padding
        assert np.all(half.primary[[3, 4, 8, 9, 13, 14]] == 0)
    assert padded.hi.secondary is None and dense.hi.secondary is None


def test_a_raising_unpack_restores_the_hi_companion():
    split = split_fp32(from_array(np.ones((2, 2), dtype=np.float32)))
    marker = np.zeros(4, dtype=np.uint16)
    split.hi.secondary = marker
    split.lo.primary = split.lo.primary.view(np.int16)  # PACK reads it, UNPACK refuses it
    hi0 = split.hi.primary.copy()
    with pytest.raises(TensorError):
        split_sgd_step(split, from_array(np.ones((2, 2), dtype=np.float32)), 0.5)
    assert split.hi.secondary is marker and bits_equal(split.hi.primary, hi0)


def test_split_sgd_accepts_bf16_gradients():
    rng = np.random.default_rng(6)
    w0 = rng.standard_normal((3, 3)).astype(np.float32)
    split = split_fp32(from_array(w0))
    g32 = rng.standard_normal((3, 3)).astype(np.float32)
    gb = from_array(g32, DType.BF16)
    split_sgd_step(split, gb, 0.1)
    widened = to_array(gb)  # exact widening of the stored bf16 patterns
    ref = w0 - widened * np.float32(0.1)
    assert bits_equal(to_array(pack_fp32(split)), ref)


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

def test_embedding_single_index():
    rng = np.random.default_rng(7)
    table = rng.standard_normal((5, 8)).astype(np.float32)
    out = alloc(D(5, 1))
    embedding_gather_reduce(EmbeddingSpec(8, 5), from_array(table), [3], out)
    assert bits_equal(to_array(out)[:, 0], table[:, 3])


def test_embedding_duplicate_index_doubles():
    table = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    out = alloc(D(2, 1))
    embedding_gather_reduce(EmbeddingSpec(2, 2), from_array(table), [1, 1], out)
    assert to_array(out)[:, 0].tolist() == [4.0, 8.0]


def test_embedding_equals_one_hot_contraction_fp64():
    rng = np.random.default_rng(8)
    table = rng.standard_normal((6, 10))
    idx = [2, 5, 9]
    out = alloc(D(6, 1, DType.FP64))
    embedding_gather_reduce(EmbeddingSpec(10, 6), from_array(table), idx, out)
    onehot = np.zeros(10)
    onehot[idx] = 1.0
    acc = np.zeros(6)
    for p in range(10):
        if onehot[p]:
            acc = acc + table[:, p]
    assert bits_equal(to_array(out)[:, 0], acc)


def test_embedding_fused_equals_gather_then_reduce_bitwise():
    rng = np.random.default_rng(9)
    table = rng.standard_normal((7, 9)).astype(np.float32)
    idx = np.array([8, 0, 3, 3, 1])
    tv = from_array(table)
    fused = alloc(D(7, 1))
    embedding_gather_reduce(EmbeddingSpec(9, 7), tv, list(idx), fused)
    g = alloc(D(7, 5))
    gather_scatter(tv, idx, GatherMode.GATHER_COLS, g)
    red = alloc(D(7, 1))
    reduce(g, ReduceSpec(ReduceAxis.ROWS, ReduceOp.SUM), red)
    assert bits_equal(to_array(fused), to_array(red))
    want = np.zeros(7, dtype=np.float32)
    for p in idx:  # index order, one FP32 add per index
        want = want + table[:, p]
    assert bits_equal(to_array(fused)[:, 0], want)


def test_embedding_bounds_checked_before_accumulation():
    table = from_array(np.ones((3, 4), dtype=np.float32))
    out = alloc(D(3, 1), fill=9.0)
    with pytest.raises(IndexError):
        embedding_gather_reduce(EmbeddingSpec(4, 3), table, [0, 4], out)
    assert np.all(to_array(out) == 9.0)


# ---------------------------------------------------------------------------
# fully connected
# ---------------------------------------------------------------------------

def _fc_reference(a4, b4, spec):
    mtot, ktot, ntot = spec.m_b * spec.bm, spec.k_b * spec.bk, spec.n_b * spec.bn
    a2 = np.zeros((mtot, ktot))
    b2 = np.zeros((ktot, ntot))
    for ibm in range(spec.m_b):
        for ik in range(spec.k_b):
            a2[ibm * spec.bm:(ibm + 1) * spec.bm, ik * spec.bk:(ik + 1) * spec.bk] = a4[ibm, ik].T
    for ibn in range(spec.n_b):
        for ik in range(spec.k_b):
            b2[ik * spec.bk:(ik + 1) * spec.bk, ibn * spec.bn:(ibn + 1) * spec.bn] = b4[ibn, ik].T
    return a2, b2


def test_fc_degenerate_blocking_equals_plain_gemm():
    rng = np.random.default_rng(10)
    spec = FcSpec(2, 2, 2, 1, 1, 1)
    a4 = rng.standard_normal((2, 2, 1, 1)).astype(np.float32)
    b4 = rng.standard_normal((2, 2, 1, 1)).astype(np.float32)
    c = alloc(D(1, 2 * 2 * 1))
    fc_forward(spec, a4.reshape(-1), b4.reshape(-1), c)
    a2, b2 = _fc_reference(a4, b4, spec)
    ref = a2 @ b2
    got = to_array(c).reshape(-1)
    for ibn in range(2):
        for ibm in range(2):
            assert np.isclose(got[ibn * 2 + ibm], ref[ibm, ibn], atol=1e-6)


def test_fc_with_relu_equals_unfused_oracle_bitwise():
    rng = np.random.default_rng(11)
    spec = FcSpec(2, 3, 2, 4, 3, 5, activation=UnaryKind.RELU)
    a4 = rng.standard_normal((2, 2, 5, 4)).astype(np.float32)
    b4 = rng.standard_normal((3, 2, 3, 5)).astype(np.float32)
    c1 = alloc(D(4, 3 * 2 * 3))
    fc_forward(spec, a4.reshape(-1), b4.reshape(-1), c1)
    spec0 = FcSpec(2, 3, 2, 4, 3, 5, activation=None)
    c2 = alloc(D(4, 3 * 2 * 3))
    fc_forward(spec0, a4.reshape(-1), b4.reshape(-1), c2)
    from tensorprim import apply_unary
    apply_unary(UnaryKind.RELU, c2, c2)
    assert bits_equal(to_array(c1), to_array(c2))


def test_fc_matches_unblocked_fp64_reference():
    rng = np.random.default_rng(12)
    spec = FcSpec(2, 2, 3, 4, 5, 3)
    a4 = rng.standard_normal((2, 3, 3, 4)).astype(np.float32)
    b4 = rng.standard_normal((2, 3, 5, 3)).astype(np.float32)
    c = alloc(D(4, 2 * 2 * 5))
    fc_forward(spec, a4.reshape(-1), b4.reshape(-1), c)
    a2, b2 = _fc_reference(a4, b4, spec)
    ref = a2 @ b2
    carr = to_array(c)
    rel = 0.0
    for ibn in range(2):
        for ibm in range(2):
            blk = carr[:, (ibn * 2 + ibm) * 5:(ibn * 2 + ibm + 1) * 5]
            want = ref[ibm * 4:(ibm + 1) * 4, ibn * 5:(ibn + 1) * 5]
            rel = max(rel, float(np.max(np.abs(blk - want) / np.maximum(np.abs(want), 1e-6))))
    assert rel <= 1e-4


def test_fc_concurrent_callers_bitwise_identical():
    """fc_forward called from 4 threads at once, each writing its own C,
    gives the bits of a serial call."""
    rng = np.random.default_rng(13)
    spec = FcSpec(3, 3, 2, 4, 4, 4, activation=UnaryKind.RELU)
    a = rng.standard_normal(3 * 2 * 4 * 4).astype(np.float32)
    b = rng.standard_normal(3 * 2 * 4 * 4).astype(np.float32)
    serial = alloc(D(4, 3 * 3 * 4))
    fc_forward(spec, a, b, serial)
    outs = [alloc(D(4, 3 * 3 * 4)) for _ in range(4)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        list(pool.map(lambda c: fc_forward(spec, a, b, c), outs))
    for c in outs:
        assert bits_equal(to_array(serial), to_array(c))


# ---------------------------------------------------------------------------
# dilated convolution
# ---------------------------------------------------------------------------

def _conv_oracle(wt, x, c, kk, s, d, q):
    ref = np.zeros((kk, q), dtype=np.float32)
    for qq in range(q):
        for k2 in range(kk):
            acc = np.float32(0)
            for ss in range(s):
                part = np.float32(0)
                for cc in range(c):
                    part = np.float32(part + np.float32(wt[ss * c + cc, k2] * x[cc, qq + ss * d]))
                acc = np.float32(acc + part)
            ref[k2, qq] = acc
    return ref


def test_conv_pointwise_single_tap_is_gemm():
    rng = np.random.default_rng(14)
    c_, k_, w_, q_ = 3, 2, 10, 10
    x = rng.standard_normal((c_, w_)).astype(np.float32)
    wt = rng.standard_normal((c_, k_)).astype(np.float32)
    out = alloc(D(k_, q_))
    dilated_conv1d_forward(DilatedConvSpec(c_, k_, w_, q_, 1, 5), from_array(x),
                           from_array(wt), out)
    ref = wt.astype(np.float64).T @ x.astype(np.float64)
    assert np.max(np.abs(to_array(out) - ref)) <= 1e-5


def test_conv_impulse_reproduces_weights_at_taps():
    c_, k_, s_, d_ = 1, 2, 3, 2
    q_ = 6
    w_ = q_ + (s_ - 1) * d_
    x = np.zeros((c_, w_), dtype=np.float32)
    x[0, 4] = 1.0
    wt = np.arange(s_ * c_ * k_, dtype=np.float32).reshape(s_ * c_, k_) + 1
    out = alloc(D(k_, q_))
    dilated_conv1d_forward(DilatedConvSpec(c_, k_, w_, q_, s_, d_), from_array(x),
                           from_array(wt), out)
    o = to_array(out)
    # output position q sees tap s when q + s*d == 4
    for k2 in range(k_):
        for qq in range(q_):
            hits = [wt[s2, k2] for s2 in range(s_) if qq + s2 * d_ == 4]
            assert o[k2, qq] == (hits[0] if hits else 0.0)


def test_conv_matches_four_loop_oracle_bitwise():
    rng = np.random.default_rng(15)
    c_, k_, s_, d_, w_, q_ = 3, 2, 5, 2, 28, 20
    x = rng.standard_normal((c_, w_)).astype(np.float32)
    wt = rng.standard_normal((c_ * s_, k_)).astype(np.float32)
    out = alloc(D(k_, q_))
    dilated_conv1d_forward(DilatedConvSpec(c_, k_, w_, q_, s_, d_), from_array(x),
                           from_array(wt), out)
    assert bits_equal(to_array(out), _conv_oracle(wt, x, c_, k_, s_, d_, q_))


def test_conv_width_guard():
    with pytest.raises(TensorError):
        DilatedConvSpec(1, 1, 10, 9, 3, 2)  # 9 + 2*2 > 10


# ---------------------------------------------------------------------------
# binary-reduce aggregation
# ---------------------------------------------------------------------------

def test_binary_reduce_single_pair():
    t0 = np.array([[1.0], [2.0]], dtype=np.float32)
    t1 = np.array([[10.0], [20.0]], dtype=np.float32)
    out = alloc(D(2, 1))
    binary_reduce_aggregate(from_array(t0), from_array(t1), [0], [0],
                            BinaryKind.ADD, ReduceOp.SUM, out)
    assert to_array(out)[:, 0].tolist() == [11.0, 22.0]


def test_binary_reduce_zero_table_reduces_to_embedding():
    rng = np.random.default_rng(16)
    t0 = rng.standard_normal((5, 6)).astype(np.float32)
    zeros = np.zeros((5, 1), dtype=np.float32)
    idx = [4, 1, 1, 0]
    out = alloc(D(5, 1))
    binary_reduce_aggregate(from_array(t0), from_array(zeros), idx, [0] * len(idx),
                            BinaryKind.ADD, ReduceOp.SUM, out)
    emb = alloc(D(5, 1))
    embedding_gather_reduce(EmbeddingSpec(6, 5), from_array(t0), idx, emb)
    assert bits_equal(to_array(out), to_array(emb))


def test_binary_reduce_matches_materialized_oracle_bitwise():
    rng = np.random.default_rng(17)
    f, n0, n1, k = 6, 7, 5, 4
    t0 = rng.standard_normal((f, n0)).astype(np.float32)
    t1 = rng.standard_normal((f, n1)).astype(np.float32)
    i0 = rng.integers(0, n0, size=k)
    i1 = rng.integers(0, n1, size=k)
    for binary, red in ((BinaryKind.ADD, ReduceOp.SUM), (BinaryKind.MUL, ReduceOp.MAX),
                        (BinaryKind.SUB, ReduceOp.MIN)):
        out = alloc(D(f, 1))
        binary_reduce_aggregate(from_array(t0), from_array(t1), list(i0), list(i1),
                                binary, red, out)
        g0, g1 = alloc(D(f, k)), alloc(D(f, k))
        gather_scatter(from_array(t0), i0, GatherMode.GATHER_COLS, g0)
        gather_scatter(from_array(t1), i1, GatherMode.GATHER_COLS, g1)
        bo = alloc(D(f, k))
        apply_binary(binary, g0, g1, bo)
        ro = alloc(D(f, 1))
        reduce(bo, ReduceSpec(ReduceAxis.ROWS, red), ro)
        assert bits_equal(to_array(out), to_array(ro))
        pair = {BinaryKind.ADD: np.add, BinaryKind.MUL: np.multiply,
                BinaryKind.SUB: np.subtract}[binary]
        fold = {ReduceOp.SUM: np.add, ReduceOp.MAX: np.maximum,
                ReduceOp.MIN: np.minimum}[red]
        if red is ReduceOp.SUM:
            want, start = np.zeros(f, dtype=np.float32), 0
        else:
            want, start = pair(t0[:, i0[0]], t1[:, i1[0]]), 1
        for t in range(start, k):  # index order
            want = fold(want, pair(t0[:, i0[t]], t1[:, i1[t]]))
        assert bits_equal(to_array(out)[:, 0], want)


def test_binary_reduce_guards():
    t = from_array(np.ones((3, 3), dtype=np.float32))
    out = alloc(D(3, 1))
    with pytest.raises(TensorError):
        binary_reduce_aggregate(t, t, [0, 1], [0], BinaryKind.ADD, ReduceOp.SUM, out)
    with pytest.raises(IndexError):
        binary_reduce_aggregate(t, t, [5], [0], BinaryKind.ADD, ReduceOp.SUM, out)


def test_binary_reduce_rejects_a_float_table_with_an_integer_one():
    t = from_array(np.ones((3, 3), dtype=np.float32))
    i8 = from_array(np.ones((3, 3), dtype=np.int8))
    out = alloc(D(3, 1), fill=9.0)
    with pytest.raises(InvalidSpecError) as e:
        binary_reduce_aggregate(t, i8, [0], [1], BinaryKind.MUL, ReduceOp.SUM, out)
    assert e.value.code == "dtype" and np.all(to_array(out) == 9.0)


# ---------------------------------------------------------------------------
# sparse kernels against the per-index loops they replaced
# ---------------------------------------------------------------------------

def _embedding_loop(table, indices, out):
    """Oracle: zero ``out``, then one ADD per index in index order, each
    rounded to ``out``'s dtype (the kernel's former implementation)."""
    apply_unary(UnaryKind.ZERO, None, out)
    for p in indices:
        apply_binary(BinaryKind.ADD, out, table.col_block(int(p), 1), out)


def _binary_reduce_loop(t0, t1, idx0, idx1, binary, reduce_op, out):
    """Oracle: one binary into a temporary of ``out``'s dtype and one fold
    per index pair, in index order (the kernel's former implementation)."""
    fold = {ReduceOp.SUM: BinaryKind.ADD, ReduceOp.MAX: BinaryKind.MAX,
            ReduceOp.MIN: BinaryKind.MIN}[reduce_op]
    tmp = alloc(D(t0.desc.rows, 1, out.desc.dtype))
    start = 0
    if reduce_op is ReduceOp.SUM:
        apply_unary(UnaryKind.ZERO, None, out)
    else:
        apply_binary(binary, t0.col_block(int(idx0[0]), 1),
                     t1.col_block(int(idx1[0]), 1), out)
        start = 1
    for i in range(start, len(idx0)):
        apply_binary(binary, t0.col_block(int(idx0[i]), 1),
                     t1.col_block(int(idx1[i]), 1), tmp)
        apply_binary(fold, out, tmp, out)


SENTINEL = 0xA5  # every byte of a buffer before the data is written


def _sentinel_view(rows, cols, dtype, pad):
    d = TensorDesc(rows, cols, rows + pad, dtype)
    buf = np.full(d.min_buffer_len * dtype.storage.itemsize, SENTINEL, np.uint8)
    return TensorView(d, buf.view(dtype.storage))


def _table(values, dtype, pad=0):
    """``values`` stored as ``dtype`` with ld = rows + pad, sentinel padding."""
    v = _sentinel_view(*values.shape, dtype, pad)
    v.as2d()[:, :] = from_array(values, dtype).as2d()
    return v


def _assert_kernel_matches_loop(kernel, loop, rows, dtype, pad):
    """Run both into column 1 of a sentinel-filled rows x 3 buffer with
    ld = rows + pad: the whole buffers must agree bitwise, and nothing
    outside the written column may change."""
    bases = []
    for fn in (kernel, loop):
        base = _sentinel_view(rows, 3, dtype, pad)
        fn(base.col_block(1, 1))
        bases.append(base)
    got, want = bases
    assert bits_equal(got.primary, want.primary)
    untouched = np.ones(got.primary.size, dtype=bool)
    untouched[rows + pad:2 * (rows + pad) - pad] = False
    assert np.all(got.primary.view(np.uint8).reshape(got.primary.size, -1)[untouched]
                  == SENTINEL)


_FINITE = np.array([0.0, -0.0, 1e-45, -1e-45, 1e-40, -3e-39, 1.5, -2.25, 1024.0], np.float32)
_ODD = np.array([np.nan, np.inf, -np.inf,
                 np.uint32(0xFFC00123).view(np.float32)], np.float32)


def _specials(rng, rows, cols, bag):
    """FP32 table of signed zeros, subnormals and normals; every other row
    has one NaN or infinity among the ``bag`` columns (distinct), so no
    operation of an in-order fold ever meets two NaNs."""
    t = rng.choice(_FINITE, size=(rows, cols))
    for r in range(0, rows, 2):
        t[r, rng.choice(bag)] = _ODD[r // 2 % len(_ODD)]
    return t


def _embedding_case(name):
    rng = np.random.default_rng(sorted(EMBEDDING_CASES).index(name))
    rows, cols, dtype, pad, idx = EMBEDDING_CASES[name]
    out_dtype = DType.FP64 if dtype is DType.FP64 else DType.FP32
    if name == "specials":
        values = _specials(rng, rows, cols, idx)
    elif name == "signed-zeros":
        values = np.full((rows, cols), -0.0)
    else:
        values = rng.standard_normal((rows, cols))
    return _table(values.astype(out_dtype.storage), dtype, pad), idx, out_dtype


# name -> (length, table entries, table dtype, ld padding, indices)
EMBEDDING_CASES = {
    "duplicates": (6, 9, DType.FP32, 0, [4, 4, 0, 4, 8, 0]),
    "k1": (6, 9, DType.FP32, 0, [3]),
    "length1": (1, 7, DType.FP32, 0, [6, 0, 6, 2]),
    "int64-array": (5, 8, DType.FP32, 0, np.array([7, 1, 1, 5], dtype=np.int64)),
    "bf16-table": (7, 11, DType.BF16, 0, [10, 3, 3, 0, 6, 2]),
    "fp64": (7, 11, DType.FP64, 0, [10, 3, 3, 0, 6, 2]),
    "padded": (5, 6, DType.FP32, 3, [5, 0, 2, 2]),
    "specials": (12, 10, DType.FP32, 0, [9, 2, 6, 0, 4]),
    "signed-zeros": (3, 4, DType.FP32, 0, [1, 2, 1]),
}


@pytest.mark.parametrize("name", sorted(EMBEDDING_CASES))
@pytest.mark.parametrize("out_pad", [0, 2])
def test_embedding_edge_cases_match_per_index_loop(name, out_pad):
    table, idx, out_dtype = _embedding_case(name)
    length, entries = table.desc.rows, table.desc.cols
    spec = EmbeddingSpec(entries, length)
    _assert_kernel_matches_loop(
        lambda out: embedding_gather_reduce(spec, table, idx, out),
        lambda out: _embedding_loop(table, idx, out), length, out_dtype, out_pad)


# name -> (length, (table0 dtype, table1 dtype), out dtype, ld padding, idx0, idx1)
BINARY_REDUCE_CASES = {
    "duplicates": (6, (DType.FP32, DType.FP32), DType.FP32, 0, [4, 4, 0, 4], [1, 1, 2, 1]),
    "k1": (6, (DType.FP32, DType.FP32), DType.FP32, 0, [3], [2]),
    "length1": (1, (DType.FP32, DType.FP32), DType.FP32, 0, [6, 0, 6], [0, 3, 3]),
    "int64-array": (5, (DType.FP32, DType.FP32), DType.FP32, 0,
                    np.array([7, 1, 5], dtype=np.int64), np.array([0, 3, 3], dtype=np.int64)),
    "bf16-fp32-tables": (7, (DType.BF16, DType.FP32), DType.FP32, 0, [5, 3, 3, 0], [1, 2, 0, 2]),
    "fp64": (7, (DType.FP64, DType.FP64), DType.FP64, 0, [5, 3, 3, 0], [1, 2, 0, 2]),
    "fp32-tables-fp64-out": (7, (DType.FP32, DType.FP32), DType.FP64, 0, [5, 3, 0], [1, 2, 2]),
    "fp64-tables-fp32-out": (7, (DType.FP64, DType.FP64), DType.FP32, 0, [5, 3, 0], [1, 2, 2]),
    "int8-tables": (4, (DType.INT8, DType.INT8), DType.FP32, 0, [5, 3, 0], [1, 2, 2]),
    "padded": (5, (DType.FP32, DType.BF16), DType.FP32, 3, [5, 0, 2, 2], [3, 0, 1, 3]),
    "specials": (12, (DType.FP32, DType.FP32), DType.FP32, 0, [5, 2, 6, 0, 4], [3, 0, 1, 3, 2]),
    "signed-zeros": (3, (DType.FP32, DType.FP32), DType.FP32, 0, [1, 2, 1], [0, 3, 3]),
}


@pytest.mark.parametrize("name", sorted(BINARY_REDUCE_CASES))
@pytest.mark.parametrize("binary", [BinaryKind.ADD, BinaryKind.SUB, BinaryKind.MUL,
                                    BinaryKind.DIV, BinaryKind.MAX, BinaryKind.MIN])
@pytest.mark.parametrize("reduce_op", [ReduceOp.SUM, ReduceOp.MAX, ReduceOp.MIN])
def test_binary_reduce_edge_cases_match_per_index_loop(name, binary, reduce_op):
    rng = np.random.default_rng(sorted(BINARY_REDUCE_CASES).index(name))
    length, (dt0, dt1), out_dtype, pad, i0, i1 = BINARY_REDUCE_CASES[name]
    if name == "specials":
        v0 = _specials(rng, length, 7, i0)
        v1 = rng.choice(np.array([-1.5, 2.0, 0.75, -0.5], np.float32), size=(length, 4))
    elif name == "int8-tables":
        v0 = rng.integers(-128, 128, size=(length, 6)).astype(np.int8)
        v1 = rng.integers(-128, 128, size=(length, 3)).astype(np.int8)
        v1[v1 == 0] = 1  # DIV: no integer division by zero
    elif name == "signed-zeros":
        v0, v1 = np.full((length, 3), -0.0), np.ones((length, 4))
    else:
        v0 = rng.standard_normal((length, 8))
        v1 = rng.standard_normal((length, 4))
    t0 = _table(v0.astype(dt0.storage if dt0 is not DType.BF16 else np.float32), dt0, pad)
    t1 = _table(v1.astype(dt1.storage if dt1 is not DType.BF16 else np.float32), dt1, pad)
    _assert_kernel_matches_loop(
        lambda out: binary_reduce_aggregate(t0, t1, i0, i1, binary, reduce_op, out),
        lambda out: _binary_reduce_loop(t0, t1, i0, i1, binary, reduce_op, out),
        length, out_dtype, pad)


@pytest.mark.parametrize("indices", [[], np.array([], dtype=np.int64)])
def test_empty_bags(indices):
    table = from_array(np.ones((3, 4), dtype=np.float32))
    out = alloc(D(3, 1), fill=9.0)
    embedding_gather_reduce(EmbeddingSpec(4, 3), table, indices, out)
    assert bits_equal(to_array(out), np.zeros((3, 1), np.float32))
    out = alloc(D(3, 1), fill=9.0)
    binary_reduce_aggregate(table, table, indices, indices, BinaryKind.MUL, ReduceOp.SUM, out)
    assert bits_equal(to_array(out), np.zeros((3, 1), np.float32))
    for red in (ReduceOp.MAX, ReduceOp.MIN):
        out = alloc(D(3, 1), fill=9.0)
        with pytest.raises(TensorError):
            binary_reduce_aggregate(table, table, indices, indices, BinaryKind.ADD, red, out)
        assert np.all(to_array(out) == 9.0)


_INT_TYPES = (DType.INT32, DType.INT16, DType.INT8)
_STORED = (DType.FP64, DType.FP32, DType.BF16, *_INT_TYPES)
REJECTED_EMBEDDING = [(t, o) for t in _STORED for o in _STORED
                      if (t, o) not in ((DType.FP32, DType.FP32), (DType.BF16, DType.FP32),
                                        (DType.FP64, DType.FP64))]


@pytest.mark.parametrize("table_dtype,out_dtype", REJECTED_EMBEDDING,
                         ids=[f"{t.name}-{o.name}" for t, o in REJECTED_EMBEDDING])
def test_embedding_rejects_dtype_pairs_before_any_write(table_dtype, out_dtype):
    table = alloc(D(4, 5, table_dtype))
    out = _sentinel_view(4, 1, out_dtype, 0)
    with pytest.raises(TensorError):
        embedding_gather_reduce(EmbeddingSpec(5, 4), table, [1, 1, 3], out)
    assert np.all(out.primary.view(np.uint8) == SENTINEL)


@pytest.mark.parametrize("out_dtype", [DType.BF16, *_INT_TYPES])
def test_binary_reduce_rejects_narrow_outputs_before_any_write(out_dtype):
    table = alloc(D(4, 5))
    out = _sentinel_view(4, 1, out_dtype, 0)
    for red in (ReduceOp.SUM, ReduceOp.MAX):
        with pytest.raises(TensorError):
            binary_reduce_aggregate(table, table, [1, 3], [0, 2], BinaryKind.ADD, red, out)
    assert np.all(out.primary.view(np.uint8) == SENTINEL)


def test_sparse_kernels_reject_broadcast_tables_and_bad_indices_before_any_write():
    col = from_array(np.ones((3, 1), dtype=np.float32))
    bcast = broadcast(col, Bcast.COL, 3, 4)
    table = from_array(np.ones((3, 4), dtype=np.float32))
    out = alloc(D(3, 1), fill=9.0)
    with pytest.raises(TensorError):
        embedding_gather_reduce(EmbeddingSpec(4, 3), bcast, [0, 1], out)
    with pytest.raises(TensorError):
        binary_reduce_aggregate(table, bcast, [0], [1], BinaryKind.ADD, ReduceOp.SUM, out)
    for idx in ([0, -1], np.array([3, 4]), [7]):
        with pytest.raises(IndexError):
            embedding_gather_reduce(EmbeddingSpec(4, 3), table, idx, out)
        with pytest.raises(IndexError):
            binary_reduce_aggregate(table, table, [0] * len(idx), idx,
                                    BinaryKind.ADD, ReduceOp.MAX, out)
        with pytest.raises(IndexError):
            binary_reduce_aggregate(table, table, idx, [0] * len(idx),
                                    BinaryKind.ADD, ReduceOp.SUM, out)
    assert np.all(to_array(out) == 9.0)


# ---------------------------------------------------------------------------
# module-level audit
# ---------------------------------------------------------------------------

def test_kernels_module_audit():
    r = verify.check_kernels_source_audit()
    assert r.passed, r.detail


@pytest.mark.parametrize("line, flagged", [
    ("w = v.secondary[1:3]", "indexed raw buffer .secondary"),
    ("v.primary[0] = 1.0", "indexed raw buffer .primary"),
    ("w = v.primary", None),
])
def test_kernels_audit_flags_indexed_buffers(monkeypatch, line, flagged):
    monkeypatch.setattr(verify.inspect, "getsource", lambda mod: f"def f(v):\n    {line}\n")
    r = verify.check_kernels_source_audit()
    assert r.passed is (flagged is None)
    assert flagged is None or flagged in r.measured


def test_kernel_plan_caches_are_bounded_like_dispatch():
    from tensorprim import kernels, ops
    for cached in (kernels._softmax_plans, kernels._scaling_plan):
        assert cached.cache_info().maxsize == ops.DISPATCH_CACHE_SIZE
    assert kernels._scaling_plan(4, 6, DType.FP32) is kernels._scaling_plan(4, 6, DType.FP32)
