import math

import numpy as np
import pytest

from tensorprim import (
    Approx,
    Bcast,
    BinaryKind,
    CmpOp,
    DType,
    GatherMode,
    InvalidSpecError,
    KernelSpec,
    PrngState,
    ReduceAxis,
    ReduceOp,
    ReduceSpec,
    TensorDesc,
    TensorError,
    TensorView,
    TernaryKind,
    TransformKind,
    TransformSpec,
    UnaryKind,
    alloc,
    apply_binary,
    apply_ternary,
    apply_unary,
    broadcast,
    dispatch,
    from_array,
    gather_scatter,
    reduce,
    replicate_cols,
    shuffle_network_transpose,
    strided_load,
    strided_store,
    to_array,
    transform,
    vnni_pack_a,
    vnni_unpack_a,
)
from tensorprim.tensor import bool_to_mask, mask_to_bool
from tensorprim.verify import reduce_oracle

from util import bits_equal


def D(m, n, dtype=DType.FP32):
    return TensorDesc(m, n, m, dtype)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def test_dispatch_add_kernel():
    spec = KernelSpec(BinaryKind.ADD, (D(4, 4), D(4, 4)))
    kern = dispatch(spec)
    a = from_array(np.ones((4, 4), dtype=np.float32))
    b = from_array(np.full((4, 4), 2.0, dtype=np.float32))
    out = alloc(kern.out_desc)
    kern(a, b, out=out)
    assert np.all(to_array(out) == 3.0)


def test_dispatch_caches_by_spec_equality():
    s1 = KernelSpec(UnaryKind.RELU, (D(2, 2),))
    s2 = KernelSpec(UnaryKind.RELU, (D(2, 2),))
    assert dispatch(s1) is dispatch(s2)


def test_dispatch_distinct_approx_flags():
    pade = dispatch(KernelSpec(UnaryKind.TANH, (D(1, 8),), approx=Approx.PADE78))
    mmx = dispatch(KernelSpec(UnaryKind.TANH, (D(1, 8),), approx=Approx.MINIMAX16))
    assert pade is not mmx
    x = from_array(np.linspace(-2, 2, 8, dtype=np.float32).reshape(1, 8))
    o1, o2 = alloc(D(1, 8)), alloc(D(1, 8))
    pade(x, out=o1)
    mmx(x, out=o2)
    assert not bits_equal(to_array(o1), to_array(o2))  # different approximations
    assert np.allclose(to_array(o1), to_array(o2), atol=3e-3)


@pytest.mark.parametrize("spec", [
    KernelSpec(UnaryKind.DROPOUT, (D(4, 4),)),
    KernelSpec(UnaryKind.DROPOUT_INV, (D(4, 4),)),
    KernelSpec(UnaryKind.TANH, (D(4, 4),), approx=Approx.TAYLOR2),
    KernelSpec(UnaryKind.EXP, (D(4, 4),), approx=Approx.PADE78),
    KernelSpec(UnaryKind.SQUARE, (D(4, 4),), approx=Approx.EXACT),
    # flags the kind never reads
    KernelSpec(UnaryKind.TANH, (D(4, 4),), times=3),
    KernelSpec(UnaryKind.TANH, (D(4, 4),), dropout_p=0.5),
    KernelSpec(UnaryKind.TANH, (D(4, 4),), dropout_p=0.0),
    KernelSpec(UnaryKind.EXP, (D(4, 4),), cmp=CmpOp.LT),
    KernelSpec(UnaryKind.SQRT, (D(4, 4),), reduce=ReduceSpec(ReduceAxis.ROWS, ReduceOp.SUM)),
    KernelSpec(UnaryKind.IDENTITY, (D(4, 4),), transform=TransformSpec(TransformKind.TRANSPOSE)),
    KernelSpec(UnaryKind.SIGMOID, (D(4, 4),), bitmask_output=True),
    KernelSpec(UnaryKind.REDUCE, (D(4, 4),), reduce=ReduceSpec(ReduceAxis.ROWS, ReduceOp.SUM),
               times=2),
    KernelSpec(UnaryKind.DROPOUT, (D(4, 4),), dropout_p=0.5, bitmask_output=True),
    KernelSpec(BinaryKind.ADD, (D(4, 4), D(4, 4)), reduce=ReduceSpec(ReduceAxis.ALL, ReduceOp.MAX)),
    KernelSpec(BinaryKind.MUL, (D(4, 4), D(4, 4)), cmp=CmpOp.EQ),
    KernelSpec(BinaryKind.COMPARE, (D(4, 4), D(4, 4)), cmp=CmpOp.EQ, times=1),
    KernelSpec(TernaryKind.MULADD, (D(4, 4), D(4, 4), D(4, 4)), dropout_p=0.5),
])
def test_dispatch_rejects_specs_no_call_can_run(spec):
    with pytest.raises(InvalidSpecError) as e:
        dispatch(spec)
    assert e.value.code == "flag"


_KIND_FLAGS = {
    UnaryKind.REDUCE: dict(reduce=ReduceSpec(ReduceAxis.ROWS, ReduceOp.SUM)),
    UnaryKind.TRANSFORM: dict(transform=TransformSpec(TransformKind.TRANSPOSE)),
    UnaryKind.REPLICATE_COLS: dict(times=3),
    UnaryKind.DROPOUT: dict(dropout_p=0.5),
    UnaryKind.DROPOUT_INV: dict(dropout_p=0.5),
    BinaryKind.COMPARE: dict(cmp=CmpOp.LT),
}
_KIND_DTYPES = {
    UnaryKind.DEQUANTIZE: (DType.INT8,),
    BinaryKind.PACK: (DType.BF16, DType.BF16),
    TernaryKind.BLEND: (DType.FP32, DType.FP32, DType.BIT),
}


@pytest.mark.parametrize("layout", [
    dict(ld=7), dict(ld=1, bcast=Bcast.ROW), dict(ld=4, bcast=Bcast.COL),
    dict(ld=1, bcast=Bcast.SCALAR)], ids=["padded", "row", "col", "scalar"])
def test_every_kernel_output_is_dense(layout):
    """Whatever the inputs' leading dimension or broadcast, a kernel's
    ``out_desc`` has ``ld == rows`` and no broadcast, so a plan or a caller
    allocates it as it is."""
    kinds = [k for family in (UnaryKind, BinaryKind, TernaryKind) for k in family
             if k not in (UnaryKind.ZERO, UnaryKind.PRNG)]  # these run without dispatch
    for k in kinds:
        arity = 1 if isinstance(k, UnaryKind) else 2 if isinstance(k, BinaryKind) else 3
        dtypes = _KIND_DTYPES.get(k, (DType.FP32,) * arity)
        ins = tuple(TensorDesc(4, 4, dtype=dt, **layout) for dt in dtypes)
        od = dispatch(KernelSpec(k, ins, **_KIND_FLAGS.get(k, {}))).out_desc
        assert od.ld == od.rows and od.bcast is Bcast.NONE, (k, od)


def test_dispatch_shape_error_code():
    with pytest.raises(InvalidSpecError) as e:
        dispatch(KernelSpec(BinaryKind.MATMUL, (D(4, 3), D(4, 4))))
    assert e.value.code == "shape"


@pytest.mark.parametrize("spec", [
    KernelSpec(BinaryKind.MATMUL, (D(4, 3), D(3, 4, DType.BF16))),
    KernelSpec(BinaryKind.MATMUL, (D(4, 3, DType.BF16), D(3, 4))),
    KernelSpec(TernaryKind.GEMM, (D(4, 3), D(3, 4, DType.FP64), D(4, 4))),
    KernelSpec(TernaryKind.GEMM, (D(4, 3), D(3, 4), D(4, 4, DType.BF16))),
    KernelSpec(TernaryKind.GEMM, (D(4, 3, DType.INT8), D(3, 4, DType.INT8), D(4, 4))),
])
def test_dispatch_rejects_mixed_contraction_dtypes(spec):
    """B must have A's type and the GEMM addend C the accumulator type."""
    with pytest.raises(InvalidSpecError) as e:
        dispatch(spec)
    assert e.value.code == "dtype"


@pytest.mark.parametrize("spec, code", [
    (KernelSpec(UnaryKind.TRANSFORM, (D(4, 2, DType.BF16),),
                transform=TransformSpec(TransformKind.VNNI, alpha=4)), "flag"),
    (KernelSpec(UnaryKind.TRANSFORM, (D(4, 2),),
                transform=TransformSpec(TransformKind.VNNI, alpha=2)), "dtype"),
    (KernelSpec(UnaryKind.TRANSFORM, (D(8, 2, DType.BF16),),
                transform=TransformSpec(TransformKind.VNNI_TO_VNNIT, alpha=2, alpha_out=2,
                                        rows=4, cols=2)), "shape"),
    (KernelSpec(BinaryKind.PACK, (D(2, 2), D(2, 2))), "dtype"),
    (KernelSpec(BinaryKind.PACK, (D(2, 2, DType.BF16), D(2, 3, DType.BF16))), "shape"),
    (KernelSpec(UnaryKind.DROPOUT, (D(4, 4),), dropout_p=1.0), "flag"),
    (KernelSpec(UnaryKind.DROPOUT, (D(4, 4),), dropout_p=-0.1), "flag"),
])
def test_dispatch_rejects_what_only_a_call_used_to_check(spec, code):
    """VNNI alpha, the VNNI_TO_VNNIT extent, PACK's two equal-shaped 16-bit
    inputs and dropout p in [0, 1) are spec properties: dispatch checks them."""
    with pytest.raises(InvalidSpecError) as e:
        dispatch(spec)
    assert e.value.code == code


def test_kernel_call_checks_only_extents_and_input_dtypes():
    kern = dispatch(KernelSpec(BinaryKind.ADD, (D(4, 4), D(4, 4))))
    a = from_array(np.ones((4, 4), dtype=np.float32))
    for bad in (from_array(np.ones((4, 3), dtype=np.float32)), from_array(np.ones((4, 4)))):
        with pytest.raises(TensorError):
            kern(a, bad, out=alloc(D(4, 4)))
    with pytest.raises(TensorError):
        kern(a, a, out=alloc(D(4, 3)))
    with pytest.raises(TensorError):
        kern(a, out=alloc(D(4, 4)))
    wide = alloc(D(4, 4, DType.FP64))  # the output dtype is free: the store narrows
    kern(a, a, out=wide)
    assert np.all(to_array(wide) == 2.0)


def test_validation_runs_once_per_spec(monkeypatch):
    """Building a plan dispatches its nodes; evaluating it, or repeating a
    direct call on the same descriptors, validates nothing again; a kernel
    call enters through the ``apply_*`` of its family."""
    import tensorprim.ops as ops
    from tensorprim import Buffered, plan_equation, evaluate
    calls = []
    infer = ops.infer_output_desc
    monkeypatch.setattr(ops, "infer_output_desc", lambda spec: calls.append(spec) or infer(spec))
    plan = plan_equation("relu(T0 + T1) * T0 - exp(T1)", [D(3, 5), D(3, 5)])
    assert calls
    x = from_array(np.linspace(-1, 1, 15, dtype=np.float32).reshape(3, 5))
    out1, out2 = alloc(D(3, 5)), alloc(D(3, 5))
    calls.clear()
    entered = []
    for name in ("apply_unary", "apply_binary", "apply_ternary"):
        monkeypatch.setattr(ops, name, lambda *a, _fn=getattr(ops, name), _name=name, **kw:
                            entered.append(_name) or _fn(*a, **kw))
    evaluate(plan, Buffered(), [x, x], out1)
    evaluate(plan, Buffered(), [x, x], out2)
    assert calls == [] and bits_equal(to_array(out1), to_array(out2))
    assert sorted(entered) == ["apply_binary"] * 6 + ["apply_unary"] * 4
    monkeypatch.undo()
    monkeypatch.setattr(ops, "infer_output_desc", lambda spec: calls.append(spec) or infer(spec))
    y = from_array(np.ones((7, 3), dtype=np.float32))
    apply_binary(BinaryKind.SUB, y, y, alloc(D(7, 3)))
    calls.clear()
    apply_binary(BinaryKind.SUB, y, y, alloc(D(7, 3)))
    assert calls == []


def test_dispatch_cache_is_bounded_lru():
    """Every equation node dispatches a kernel; trees over more distinct
    shapes than the bound leave at most the bound cached."""
    import tensorprim.ops as ops
    from tensorprim import TreeBuilder
    bound = ops.DISPATCH_CACHE_SIZE
    hot = KernelSpec(UnaryKind.RELU, (D(1, 1),))
    kept = dispatch(hot)
    for i in range(bound + 50):
        b = TreeBuilder([D(2, i + 1)])
        b.tree(b.unary(UnaryKind.RELU, b.leaf(0)))
        if i % 100 == 0:
            assert dispatch(hot) is kept  # recently used: never the one dropped
        assert dispatch.cache_info().currsize <= bound
    assert dispatch.cache_info().currsize == bound
    assert dispatch(KernelSpec(UnaryKind.RELU, (D(1, 1),))) is kept
    misses = dispatch.cache_info().misses
    dispatch(KernelSpec(UnaryKind.RELU, (D(2, 1),)))
    assert dispatch.cache_info().misses == misses + 1  # least recently used: dropped


# ---------------------------------------------------------------------------
# unary elementwise
# ---------------------------------------------------------------------------

def test_square_example():
    x = from_array(np.array([[1, -2], [3, 0]], dtype=np.float32))
    out = alloc(D(2, 2))
    apply_unary(UnaryKind.SQUARE, x, out)
    assert to_array(out).tolist() == [[1, 4], [9, 0]]


def test_relu_with_mask_example():
    x = from_array(np.array([[-1.0, 2.0]], dtype=np.float32))
    out = alloc(D(1, 2))
    apply_unary(UnaryKind.RELU, x, out, bitmask_output=True)
    assert to_array(out).tolist() == [[0.0, 2.0]]
    assert mask_to_bool(out.secondary, 1, 2).tolist() == [[False, True]]


def test_exp_at_one_matches_reference():
    x = from_array(np.array([[1.0]], dtype=np.float32))
    out = alloc(D(1, 1))
    apply_unary(UnaryKind.EXP, x, out)
    assert abs(to_array(out)[0, 0] / math.e - 1.0) <= 3e-4
    assert abs(to_array(out)[0, 0] - 2.7182817) < 1e-3


def test_identity_converts_dtype():
    x = from_array(np.array([[1.25, -3.0]], dtype=np.float32))
    out = alloc(D(1, 2, DType.FP64))
    apply_unary(UnaryKind.IDENTITY, x, out)
    assert to_array(out).dtype == np.float64
    assert to_array(out).tolist() == [[1.25, -3.0]]


def test_zero_ignores_input():
    out = alloc(D(2, 2), fill=7.0)
    apply_unary(UnaryKind.ZERO, None, out)
    assert np.all(to_array(out) == 0.0)


def test_inc_dec_sqrt_reciprocal_rsqrt():
    x = from_array(np.array([[4.0, 16.0]], dtype=np.float32))
    for kind, want in [(UnaryKind.INC, [5.0, 17.0]), (UnaryKind.DEC, [3.0, 15.0]),
                       (UnaryKind.SQRT, [2.0, 4.0]), (UnaryKind.RECIPROCAL, [0.25, 0.0625]),
                       (UnaryKind.RSQRT, [0.5, 0.25])]:
        out = alloc(D(1, 2))
        apply_unary(kind, x, out)
        assert to_array(out).tolist() == [want]


def test_backward_kinds_require_companions():
    x = from_array(np.ones((2, 2), dtype=np.float32))
    out = alloc(D(2, 2))
    with pytest.raises(TensorError):
        apply_unary(UnaryKind.RELU_INV, x, out)
    with pytest.raises(TensorError):
        apply_unary(UnaryKind.TANH_INV, x, out)


def test_relu_inv_uses_recorded_mask():
    x = from_array(np.array([[-1.0, 2.0, 0.5]], dtype=np.float32))
    fwd = alloc(D(1, 3))
    apply_unary(UnaryKind.RELU, x, fwd, bitmask_output=True)
    dy = from_array(np.array([[10.0, 20.0, 30.0]], dtype=np.float32))
    dy.secondary = fwd.secondary
    out = alloc(D(1, 3))
    apply_unary(UnaryKind.RELU_INV, dy, out)
    assert to_array(out).tolist() == [[0.0, 20.0, 30.0]]


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

def test_reduce_sum_all_ones():
    out = alloc(D(1, 1))
    reduce(from_array(np.ones((2, 2), dtype=np.float32)),
           ReduceSpec(ReduceAxis.ALL, ReduceOp.SUM), out)
    assert to_array(out)[0, 0] == 4.0


def test_reduce_max_cols_example():
    out = alloc(D(1, 2))
    reduce(from_array(np.array([[1, 5], [3, 2]], dtype=np.float32)),
           ReduceSpec(ReduceAxis.COLS, ReduceOp.MAX), out)
    assert to_array(out).tolist() == [[3.0, 5.0]]


def test_reduce_sum_squared():
    out = alloc(D(1, 1))
    reduce(from_array(np.array([[1, 2, 3]], dtype=np.float32)),
           ReduceSpec(ReduceAxis.ALL, ReduceOp.SUM, squared=True), out)
    assert to_array(out)[0, 0] == 14.0


def test_reduce_rows_and_accumulation_dtype():
    # BF16 storage accumulates in FP32
    x32 = np.array([[1.5, 2.5, -1.0], [0.5, 0.5, 0.5]], dtype=np.float32)
    xb = from_array(x32, DType.BF16)
    out = alloc(D(2, 1))
    reduce(xb, ReduceSpec(ReduceAxis.ROWS, ReduceOp.SUM), out)
    assert to_array(out)[:, 0].tolist() == [3.0, 1.5]


def test_reduce_fixed_ascending_order():
    # ascending order differs bitwise from descending on this data
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 50)).astype(np.float32)
    out = alloc(D(1, 1))
    reduce(from_array(x), ReduceSpec(ReduceAxis.ROWS, ReduceOp.SUM), out)
    asc = np.float32(0)
    for v in x[0]:
        asc = asc + v
    assert to_array(out)[0, 0] == asc


def test_numpy_pairwise_reduce_is_not_the_pinned_order():
    """``np.add.reduce`` sums a contiguous axis pairwise, so it must never
    stand in for the sequential fold: on this 1 x 300 row the two differ."""
    x = np.random.default_rng(3).standard_normal((1, 300)).astype(np.float32)
    seq = np.float32(0)
    for v in x[0]:
        seq = seq + v
    assert np.add.reduce(x[0]).tobytes() != seq.tobytes()
    out = alloc(D(1, 1))
    reduce(from_array(x), ReduceSpec(ReduceAxis.ROWS, ReduceOp.SUM), out)
    assert to_array(out)[0, 0].tobytes() == seq.tobytes()


@pytest.mark.parametrize("axis", list(ReduceAxis))
@pytest.mark.parametrize("op", list(ReduceOp))
def test_reduce_equals_the_ascending_loop_oracle(axis, op):
    rng = np.random.default_rng(4)
    shape = (24, 150)
    if op is ReduceOp.MUL:  # stay clear of overflow and underflow
        x = rng.uniform(0.9, 1.1, shape).astype(np.float32)
    else:
        x = rng.standard_normal(shape).astype(np.float32)
    want = reduce_oracle(x, axis, op)
    out = alloc(D(*want.shape))
    reduce(from_array(x), ReduceSpec(axis, op), out)
    assert bits_equal(to_array(out), want)


_POS0, _NEG0 = 0x00000000, 0x80000000  # FP32 bit patterns of +0 and -0


def test_min_max_ties_return_the_second_operand():
    """MIN and MAX keep their second operand when the two compare equal,
    which pins the sign of a zero result.  Inputs and expected outputs are
    literal sign bits; nothing here calls numpy's min or max."""
    def f32(bits):
        return np.array(bits, dtype=np.uint32).view(np.float32)

    def bits(v):
        return np.ascontiguousarray(to_array(v)).view(np.uint32).tolist()

    a, b = from_array(f32([[_POS0, _NEG0]])), from_array(f32([[_NEG0, _POS0]]))
    for kind in (BinaryKind.MAX, BinaryKind.MIN):
        out = alloc(D(1, 2))
        apply_binary(kind, a, b, out)
        assert bits(out) == [[_NEG0, _POS0]], kind
    out = alloc(D(1, 2))
    apply_unary(UnaryKind.RELU, b, out)  # RELU(x) = MAX(x, +0)
    assert bits(out) == [[_POS0, _POS0]]
    # rows [+0, -0] and [-0, +0]; each fold runs acc = op(acc, next element)
    x = f32([[_POS0, _NEG0], [_NEG0, _POS0]])
    for axis, want in ((ReduceAxis.ROWS, [[_NEG0], [_POS0]]),
                       (ReduceAxis.COLS, [[_NEG0, _POS0]]),
                       (ReduceAxis.ALL, [[_POS0]])):
        for op in (ReduceOp.MAX, ReduceOp.MIN):
            out = alloc(D(len(want), len(want[0])))
            reduce(from_array(x), ReduceSpec(axis, op), out)
            assert bits(out) == want, (axis, op)
            assert reduce_oracle(x, axis, op).view(np.uint32).tolist() == want, (axis, op)


def test_reduce_shape_guard():
    with pytest.raises(TensorError):
        reduce(from_array(np.ones((2, 2), dtype=np.float32)),
               ReduceSpec(ReduceAxis.ROWS, ReduceOp.SUM), alloc(D(1, 2)))


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def test_transpose_example():
    x = from_array(np.array([[1, 2, 3], [4, 5, 6]], dtype=np.float32))
    out = alloc(D(3, 2))
    transform(x, TransformSpec(TransformKind.TRANSPOSE), out)
    assert to_array(out).tolist() == [[1, 4], [2, 5], [3, 6]]


def test_transpose_involution():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 3)).astype(np.float32)
    t = alloc(D(3, 5))
    transform(from_array(x), TransformSpec(TransformKind.TRANSPOSE), t)
    back = alloc(D(5, 3))
    transform(t, TransformSpec(TransformKind.TRANSPOSE), back)
    assert bits_equal(to_array(back), x)


def test_vnni_roundtrip_index_formula():
    rng = np.random.default_rng(3)
    pats = rng.integers(0, 1 << 16, size=(4, 6), dtype=np.uint16)
    flat = vnni_pack_a(pats, 2)
    assert flat.shape == (24,)  # 3 groups x 4 rows x 2
    # element (m, k) lands at group k//2, row m, slot k%2
    for m in range(4):
        for k in range(6):
            assert flat[(k // 2) * 8 + m * 2 + (k % 2)] == pats[m, k]
    assert np.array_equal(vnni_unpack_a(flat, 2, 4, 6), pats)


def test_vnni_tail_padding():
    pats = np.arange(6, dtype=np.uint16).reshape(2, 3)  # 3 cols, alpha 2
    flat = vnni_pack_a(pats, 2)
    assert flat.shape == (8,)  # 2 groups x 2 rows x 2
    assert np.array_equal(vnni_unpack_a(flat, 2, 2, 3), pats)
    assert flat[5] == 0  # padded slot of the tail group


def test_vnni_transform_op_and_alpha_guard():
    x32 = np.linspace(0, 1, 8, dtype=np.float32).reshape(4, 2)
    xb = from_array(x32, DType.BF16)
    spec = TransformSpec(TransformKind.VNNI, alpha=2)
    out = alloc(TensorDesc(8, 1, 8, DType.BF16))
    transform(xb, spec, out)
    assert bits_equal(vnni_unpack_a(out.primary, 2, 4, 2), np.array(xb.as2d()))
    with pytest.raises(InvalidSpecError):
        transform(xb, TransformSpec(TransformKind.VNNI, alpha=4), out)


def test_vnni_to_vnnit_composition():
    rng = np.random.default_rng(4)
    m, n = 6, 4
    pats = rng.integers(0, 1 << 16, size=(m, n), dtype=np.uint16)
    v = from_array(np.zeros((m, n), np.float32), DType.BF16)
    v.as2d()[:, :] = pats
    vn = alloc(TensorDesc(m * 2, n // 2, m * 2, DType.BF16))
    transform(v, TransformSpec(TransformKind.VNNI, alpha=2), vn)
    # composed op on the VNNI tensor
    out = alloc(TensorDesc(n * 2, m // 2, n * 2, DType.BF16))
    transform(vn, TransformSpec(TransformKind.VNNI_TO_VNNIT, alpha=2, alpha_out=2,
                                rows=m, cols=n), out)
    # oracle: de-format, transpose, re-format
    assert bits_equal(out.primary, vnni_pack_a(pats.T, 2))


@pytest.mark.parametrize("out_dtype", [DType.FP32, DType.FP64])
def test_transform_output_holds_the_input_dtype(out_dtype):
    """A transform copies storage: a BF16 VNNI_TO_VNNIT or TRANSPOSE into an
    output of another dtype would store bit patterns as values (1.0 as
    16256.0), so it raises before any write."""
    m, n = 4, 2
    vn = from_array(np.ones((m * 2, n // 2), np.float32), DType.BF16)
    out = alloc(TensorDesc(n * 2, m // 2, n * 2, out_dtype))
    for inp, spec, o in ((vn, TransformSpec(TransformKind.VNNI_TO_VNNIT, alpha=2, alpha_out=2,
                                           rows=m, cols=n), out),
                         (vn, TransformSpec(TransformKind.TRANSPOSE),
                          alloc(TensorDesc(1, 8, 1, out_dtype)))):
        with pytest.raises(InvalidSpecError) as e:
            transform(inp, spec, o)
        assert e.value.code == "dtype"
        assert not np.any(to_array(o))


# ---------------------------------------------------------------------------
# shuffle-network transpose
# ---------------------------------------------------------------------------

def test_shuffle_identity_tile():
    eye = np.eye(4, dtype=np.float32)
    out = alloc(D(4, 4))
    shuffle_network_transpose(from_array(eye), out)
    assert bits_equal(to_array(out), eye)


def test_shuffle_matches_transpose_16():
    x = (16 * np.arange(16)[:, None] + np.arange(16)[None, :]).astype(np.float32)
    out = alloc(D(16, 16))
    shuffle_network_transpose(from_array(x), out)
    assert bits_equal(to_array(out), x.T.copy())


def test_shuffle_two_stage_simulation_4x4():
    """Stage-by-stage oracle: interleave pairs at doubling widths."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 4)).astype(np.float32)
    regs = [x[:, j].copy() for j in range(4)]

    def unpack_lo(u, v, w):
        cu, cv = u.reshape(-1, w), v.reshape(-1, w)
        half = u.size // (2 * w)
        return np.stack([cu[:half], cv[:half]], axis=1).reshape(-1)

    def unpack_hi(u, v, w):
        cu, cv = u.reshape(-1, w), v.reshape(-1, w)
        half = u.size // (2 * w)
        return np.stack([cu[half:], cv[half:]], axis=1).reshape(-1)

    # stage 1: 32-bit interleaves of neighbours; stage 2: 64-bit at distance 2
    t = [unpack_lo(regs[0], regs[1], 1), unpack_hi(regs[0], regs[1], 1),
         unpack_lo(regs[2], regs[3], 1), unpack_hi(regs[2], regs[3], 1)]
    o = [unpack_lo(t[0], t[2], 2), unpack_hi(t[0], t[2], 2),
         unpack_lo(t[1], t[3], 2), unpack_hi(t[1], t[3], 2)]
    manual = np.stack(o, axis=1)
    out = alloc(D(4, 4))
    shuffle_network_transpose(from_array(x), out)
    assert bits_equal(to_array(out), manual)
    assert bits_equal(manual, x.T.copy())


def test_shuffle_rejects_bad_tiles():
    with pytest.raises(TensorError):
        shuffle_network_transpose(from_array(np.zeros((5, 5), np.float32)), alloc(D(5, 5)))
    with pytest.raises(InvalidSpecError):
        shuffle_network_transpose(from_array(np.zeros((4, 4))), alloc(D(4, 4, DType.FP64)))


# ---------------------------------------------------------------------------
# gather / scatter
# ---------------------------------------------------------------------------

def test_gather_cols_reorders():
    x = from_array(np.array([[1, 2, 3], [4, 5, 6]], dtype=np.float32))
    out = alloc(D(2, 2))
    gather_scatter(x, np.array([2, 0]), GatherMode.GATHER_COLS, out)
    assert to_array(out).tolist() == [[3, 1], [6, 4]]


def test_gather_scatter_rows():
    x = from_array(np.array([[1, 2], [3, 4], [5, 6]], dtype=np.float32))
    out = alloc(D(2, 2))
    gather_scatter(x, np.array([2, 0]), GatherMode.GATHER_ROWS, out)
    assert to_array(out).tolist() == [[5, 6], [1, 2]]
    back = alloc(D(3, 2))
    gather_scatter(out, np.array([2, 0]), GatherMode.SCATTER_ROWS, back)
    b = to_array(back)
    assert b[2].tolist() == [5, 6] and b[0].tolist() == [1, 2]


@pytest.mark.parametrize("kind", [UnaryKind.ZERO, UnaryKind.PRNG])
def test_zero_and_prng_run_only_through_apply_unary(kind):
    """ZERO and PRNG take their extent from ``out``: no spec describes them,
    and apply_unary runs them directly (PRNG into FP32 from any input)."""
    with pytest.raises(InvalidSpecError) as e:
        dispatch(KernelSpec(kind, (D(2, 3, DType.BF16),)))
    assert e.value.code == "flag"
    src = alloc(D(2, 3, DType.BF16))
    src.tertiary = {"prng": PrngState(5, 3)}
    out = alloc(D(2, 3), fill=7.0)
    apply_unary(kind, src, out)
    vals = to_array(out)
    assert np.all(vals == 0) if kind is UnaryKind.ZERO else np.all((vals >= 0) & (vals < 1))


def test_prng_unary_fills_deterministic_uniforms():
    src = alloc(D(1, 1))
    src.tertiary = {"prng": PrngState(123, 6)}
    out1 = alloc(D(64, 6))
    apply_unary(UnaryKind.PRNG, src, out1)
    src2 = alloc(D(1, 1))
    src2.tertiary = {"prng": PrngState(123, 6)}
    out2 = alloc(D(64, 6))
    apply_unary(UnaryKind.PRNG, src2, out2)
    vals = to_array(out1)
    assert bits_equal(vals, to_array(out2))
    assert np.all(vals >= 0.0) and np.all(vals < 1.0)
    assert 0.3 < vals.mean() < 0.7


def test_scatter_then_gather_identity():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, 5)).astype(np.float32)
    perm = rng.permutation(5)
    s = alloc(D(3, 5))
    gather_scatter(from_array(x), perm, GatherMode.SCATTER_COLS, s)
    g = alloc(D(3, 5))
    gather_scatter(s, perm, GatherMode.GATHER_COLS, g)
    assert bits_equal(to_array(g), x)


def test_gather2d_example():
    x = from_array(np.array([["1", "2"], ["3", "4"]], dtype=np.float32))
    out = alloc(D(2, 1))
    gather_scatter(x, np.array([[0, 0], [1, 1]]), GatherMode.GATHER2D, out)
    assert to_array(out)[:, 0].tolist() == [1.0, 4.0]


@pytest.mark.parametrize("mode", [GatherMode.GATHER_COLS, GatherMode.GATHER_ROWS,
                                  GatherMode.GATHER2D])
def test_gathers_match_element_loop_with_padded_ld(mode):
    """Each gather is one fancy-index copy: duplicate indices, padded-ld
    source and destination (padding untouched) and a NaN payload all copy
    exactly as an element-by-element loop does."""
    rng = np.random.default_rng(8)
    src = TensorView(TensorDesc(4, 5, 7, DType.FP32),
                     rng.standard_normal(7 * 4 + 4).astype(np.float32))
    src.as2d()[1, 2] = np.uint32(0xFFC00123).view(np.float32)
    x = src.as2d()
    idx = {GatherMode.GATHER_COLS: np.array([2, 0, 2, 4]),
           GatherMode.GATHER_ROWS: np.array([3, 1, 1]),
           GatherMode.GATHER2D: np.array([[1, 2], [0, 4], [1, 2], [3, 0]])}[mode]
    want = {GatherMode.GATHER_COLS: lambda: [[x[i, j] for j in idx] for i in range(4)],
            GatherMode.GATHER_ROWS: lambda: [[x[i, j] for j in range(5)] for i in idx],
            GatherMode.GATHER2D: lambda: [[x[i, j]] for i, j in idx]}[mode]()
    want = np.array(want, dtype=np.float32)
    rows, cols = want.shape
    out = TensorView(TensorDesc(rows, cols, rows + 2, DType.FP32),
                     np.full((rows + 2) * cols, -7.0, np.float32))
    gather_scatter(src, idx, mode, out)
    assert bits_equal(to_array(out), want)
    assert np.all(out.primary.reshape(cols, rows + 2)[:, rows:] == -7.0)


@pytest.mark.parametrize("bcast, phys, idx", [(Bcast.COL, (3, 1), [2]),
                                               (Bcast.ROW, (1, 4), [0, 1, 2, 3])],
                         ids=["col", "row"])
def test_gather_cols_reads_the_logical_broadcast_view(bcast, phys, idx):
    x = np.random.default_rng(9).standard_normal(phys).astype(np.float32)
    src = broadcast(from_array(x), bcast, 3, 4)
    out = alloc(D(3, len(idx)))
    gather_scatter(src, np.array(idx), GatherMode.GATHER_COLS, out)
    assert bits_equal(to_array(out), to_array(src)[:, idx])


def test_scatter_into_broadcast_output_rejected():
    dst = broadcast(alloc(D(3, 1), fill=5.0), Bcast.COL, 3, 4)
    with pytest.raises(TensorError):
        gather_scatter(from_array(np.ones((3, 1), np.float32)), np.array([2]),
                       GatherMode.SCATTER_COLS, dst)
    assert np.all(dst.primary == 5.0)


@pytest.mark.parametrize("call", [
    lambda dst: apply_unary(UnaryKind.IDENTITY, from_array(np.ones((3, 4), np.float32)), dst),
    lambda dst: replicate_cols(from_array(np.ones((3, 1), np.float32)), 4, dst),
], ids=["apply_unary", "replicate_cols"])
def test_direct_call_into_a_broadcast_output_rejected(call):
    dst = broadcast(alloc(D(3, 1), fill=5.0), Bcast.COL, 3, 4)
    with pytest.raises(TensorError):
        call(dst)
    assert np.all(dst.primary == 5.0)


def test_out_of_bounds_rejected_before_write():
    x = from_array(np.ones((2, 2), dtype=np.float32))
    out = alloc(D(2, 2), fill=5.0)
    with pytest.raises(IndexError):
        gather_scatter(x, np.array([0, 7]), GatherMode.GATHER_COLS, out)
    assert np.all(to_array(out) == 5.0)  # untouched


def test_scatter_duplicate_last_writer_wins():
    x = from_array(np.array([[1.0, 2.0]], dtype=np.float32))
    out = alloc(D(1, 2))
    gather_scatter(x, np.array([0, 0]), GatherMode.SCATTER_COLS, out)
    assert to_array(out)[0, 0] == 2.0


def test_strided_load_store_affine():
    x = from_array(np.arange(24, dtype=np.float32).reshape(4, 6))
    out = alloc(D(2, 3))
    strided_load(x, out, row_stride=2, col_stride=2)
    assert to_array(out).tolist() == [[0, 2, 4], [12, 14, 16]]
    dst = alloc(D(4, 6))
    strided_store(out, dst, row_stride=2, col_stride=2)
    back = to_array(dst)
    assert back[0, 0] == 0 and back[2, 4] == 16 and back[1, 1] == 0


def test_strided_load_rejects_negative_offsets():
    x = from_array(np.arange(24, dtype=np.float32).reshape(4, 6))
    with pytest.raises(IndexError):
        strided_load(x, alloc(D(2, 2)), row_stride=1, col_stride=1, base_row=-1)
    with pytest.raises(IndexError):
        strided_load(x, alloc(D(2, 2)), row_stride=1, col_stride=-1, base_col=0)


def test_strided_load_with_stride_zero_is_a_broadcast_read():
    x = from_array(np.arange(24, dtype=np.float32).reshape(4, 6))
    out = alloc(D(2, 3))
    strided_load(x, out, row_stride=1, col_stride=0, base_col=5)
    assert to_array(out).tolist() == [[5, 5, 5], [11, 11, 11]]


def test_strided_store_rejects_negative_offsets_before_any_write():
    src = from_array(np.ones((2, 3), dtype=np.float32))
    dst = alloc(D(4, 6), fill=7.0)
    with pytest.raises(IndexError):
        strided_store(src, dst, row_stride=1, col_stride=-1, base_col=1)
    assert np.all(to_array(dst) == 7.0)


def test_strided_store_rejects_stride_zero_along_an_extent_above_one():
    dst = alloc(D(4, 6), fill=7.0)
    with pytest.raises(TensorError):
        strided_store(from_array(np.ones((2, 3), dtype=np.float32)), dst, 1, 0)
    with pytest.raises(TensorError):
        strided_store(from_array(np.ones((2, 3), dtype=np.float32)), dst, 0, 1)
    assert np.all(to_array(dst) == 7.0)
    strided_store(from_array(np.full((1, 3), 2.0, dtype=np.float32)), dst, 0, 2, base_row=3)
    assert to_array(dst)[3].tolist() == [2, 7, 2, 7, 2, 7]


def test_replicate_cols_examples():
    x = from_array(np.array([[1.0], [2.0]], dtype=np.float32))
    out = alloc(D(2, 3))
    replicate_cols(x, 3, out)
    assert to_array(out).tolist() == [[1, 1, 1], [2, 2, 2]]
    one = alloc(D(2, 1))
    replicate_cols(x, 1, one)
    assert bits_equal(to_array(one), to_array(x))
    # equals COL-broadcast materialisation
    bc = broadcast(x, Bcast.COL, 2, 3)
    assert bits_equal(to_array(out), np.array(bc.logical2d()))


# ---------------------------------------------------------------------------
# binary / ternary
# ---------------------------------------------------------------------------

def test_binary_examples():
    a = from_array(np.array([[5.0, 5.0]], dtype=np.float32))
    b = from_array(np.array([[2.0, 3.0]], dtype=np.float32))
    out = alloc(D(1, 2))
    apply_binary(BinaryKind.SUB, a, b, out)
    assert to_array(out).tolist() == [[3.0, 2.0]]


def test_compare_gt_bitmask():
    a = from_array(np.array([[1.0, 4.0]], dtype=np.float32))
    b = from_array(np.array([[2.0, 3.0]], dtype=np.float32))
    out = alloc(TensorDesc(1, 2, 1, DType.BIT))
    apply_binary(BinaryKind.COMPARE, a, b, out, cmp=CmpOp.GT)
    assert mask_to_bool(out.primary, 1, 2).tolist() == [[False, True]]


def test_mul_scalar_broadcast():
    x = from_array(np.array([[1, 2], [3, 4]], dtype=np.float32))
    two = broadcast(from_array(np.array([[2.0]], dtype=np.float32)), Bcast.SCALAR, 2, 2)
    out = alloc(D(2, 2))
    apply_binary(BinaryKind.MUL, x, two, out)
    assert to_array(out).tolist() == [[2, 4], [6, 8]]


def test_div_ieee_semantics():
    a = from_array(np.array([[1.0, -1.0, 0.0]], dtype=np.float32))
    b = from_array(np.array([[0.0, 0.0, 0.0]], dtype=np.float32))
    out = alloc(D(1, 3))
    apply_binary(BinaryKind.DIV, a, b, out)
    r = to_array(out)[0]
    assert np.isposinf(r[0]) and np.isneginf(r[1]) and np.isnan(r[2])


def test_matmul_binary_delegates_to_contraction():
    a = from_array(np.eye(3, dtype=np.float32))
    b = from_array(np.arange(9, dtype=np.float32).reshape(3, 3))
    out = alloc(D(3, 3))
    apply_binary(BinaryKind.MATMUL, a, b, out)
    assert bits_equal(to_array(out), np.arange(9, dtype=np.float32).reshape(3, 3))


def test_pack_binary_matches_split():
    x = np.array([[2.75, -0.375]], dtype=np.float32)
    from tensorprim import split_fp32
    s = split_fp32(from_array(x))
    out = alloc(D(1, 2))
    apply_binary(BinaryKind.PACK, s.hi, s.lo, out)
    assert bits_equal(to_array(out), x)


def test_ternary_examples():
    a = from_array(np.array([[1.0, 2.0]], dtype=np.float32))
    b = from_array(np.array([[3.0, 4.0]], dtype=np.float32))
    c = from_array(np.array([[10.0, 10.0]], dtype=np.float32))
    out = alloc(D(1, 2))
    apply_ternary(TernaryKind.MULADD, a, b, c, out)
    assert to_array(out).tolist() == [[13.0, 18.0]]
    apply_ternary(TernaryKind.NMULADD, a, b, c, out)
    assert to_array(out).tolist() == [[7.0, 2.0]]


def test_blend_with_bitmask():
    a = from_array(np.array([[1.0, 1.0]], dtype=np.float32))
    b = from_array(np.array([[9.0, 9.0]], dtype=np.float32))
    mask = alloc(TensorDesc(1, 2, 1, DType.BIT))
    mask.primary[:] = bool_to_mask(np.array([[True, False]]))
    out = alloc(D(1, 2))
    apply_ternary(TernaryKind.BLEND, a, b, mask, out)
    assert to_array(out).tolist() == [[1.0, 9.0]]
    with pytest.raises(InvalidSpecError):
        apply_ternary(TernaryKind.BLEND, a, b, b, out)


def test_mixed_int_float_elementwise_call_is_rejected():
    """A direct call validates as tree building does: no silent promotion."""
    a = from_array(np.ones((2, 2), dtype=np.int32))
    b = from_array(np.ones((2, 2), dtype=np.float32))
    with pytest.raises(InvalidSpecError) as e:
        apply_binary(BinaryKind.ADD, a, b, alloc(D(2, 2)))
    assert e.value.code == "dtype"


def test_binary_shapes_that_cannot_join_are_a_shape_error():
    a = from_array(np.ones((2, 3), dtype=np.float32))
    b = from_array(np.ones((3, 2), dtype=np.float32))
    with pytest.raises(InvalidSpecError) as e:
        apply_binary(BinaryKind.MUL, a, b, alloc(D(3, 3)))
    assert e.value.code == "shape"


def test_contraction_calls_with_mixed_dtypes_are_spec_errors():
    a = from_array(np.ones((2, 2), dtype=np.float32))
    b = from_array(np.ones((2, 2), dtype=np.float32), DType.BF16)
    with pytest.raises(InvalidSpecError):
        apply_binary(BinaryKind.MATMUL, a, b, alloc(D(2, 2)))
    c = from_array(np.ones((2, 2)))
    with pytest.raises(InvalidSpecError):
        apply_ternary(TernaryKind.GEMM, a, a, c, alloc(D(2, 2)))


def test_pack_shape_mismatch_and_blend_selector_shape_are_spec_errors():
    hi = from_array(np.ones((2, 2), dtype=np.float32), DType.BF16)
    lo = from_array(np.ones((2, 3), dtype=np.float32), DType.BF16)
    with pytest.raises(InvalidSpecError) as e:
        apply_binary(BinaryKind.PACK, hi, lo, alloc(D(2, 2)))
    assert e.value.code == "shape"
    a = from_array(np.ones((2, 2), dtype=np.float32))
    mask = alloc(TensorDesc(3, 2, 3, DType.BIT))
    with pytest.raises(InvalidSpecError) as e:
        apply_ternary(TernaryKind.BLEND, a, a, mask, alloc(D(2, 2)))
    assert e.value.code == "shape"


def test_pack_and_dequantize_store_into_any_output_dtype():
    """As for every kind but COMPARE, UNPACK and PRNG, the store narrows to
    the output's dtype."""
    x = np.array([[2.75, -0.375]], dtype=np.float32)
    from tensorprim import split_fp32
    s = split_fp32(from_array(x))
    wide = alloc(D(1, 2, DType.FP64))
    apply_binary(BinaryKind.PACK, s.hi, s.lo, wide)
    assert to_array(wide).tolist() == [[2.75, -0.375]]
    q = alloc(D(1, 2, DType.INT8))
    apply_unary(UnaryKind.QUANTIZE, from_array(x), q)
    d32, d64 = alloc(D(1, 2)), alloc(D(1, 2, DType.FP64))
    apply_unary(UnaryKind.DEQUANTIZE, q, d32)
    apply_unary(UnaryKind.DEQUANTIZE, q, d64)
    assert bits_equal(to_array(d64), to_array(d32).astype(np.float64))


# ---------------------------------------------------------------------------
# PRNG / dropout
# ---------------------------------------------------------------------------

def test_prng_state_never_zero_and_xorshift():
    st = PrngState(0, 4)
    assert np.all((st.x | st.y | st.z | st.w) != 0)
    x, y, z, w = int(st.x[2]), int(st.y[2]), int(st.z[2]), int(st.w[2])
    got = int(st.step()[2])
    t = (x ^ (x << 11)) & 0xFFFFFFFF
    want = (w ^ (w >> 19)) ^ (t ^ (t >> 8))
    assert got == want


@pytest.mark.parametrize("streams, rows", [(1, 1), (3, 7), (37, 64)])
def test_uniform_block_equals_the_step_loop(streams, rows, native_backend):
    """A block of steps gives the uniforms and leaves the state of that many
    single steps, on every backend, and later steps continue from it."""
    blk, loop = PrngState(11, streams), PrngState(11, streams)
    for _ in range(2):
        got = blk.uniform_block(rows)
        want = np.stack([(loop.step() >> np.uint32(8)).astype(np.float32) * np.float32(2.0 ** -24)
                         for _ in range(rows)])
        assert bits_equal(got, want)
        for word in "xyzw":
            assert bits_equal(getattr(blk, word), getattr(loop, word)), word
    assert bits_equal(blk.step(), loop.step())


def test_dropout_p0_is_identity():
    x = from_array(np.arange(6, dtype=np.float32).reshape(2, 3))
    x.tertiary = {"prng": PrngState(1, 3)}
    out = alloc(D(2, 3))
    apply_unary(UnaryKind.DROPOUT, x, out, dropout_p=0.0)
    assert bits_equal(to_array(out), np.arange(6, dtype=np.float32).reshape(2, 3))
    assert np.all(mask_to_bool(out.secondary, 2, 3))


def test_dropout_requires_state_and_valid_p():
    x = from_array(np.ones((2, 2), dtype=np.float32))
    out = alloc(D(2, 2))
    with pytest.raises(InvalidSpecError):
        apply_unary(UnaryKind.DROPOUT, x, out, dropout_p=0.5)
    x.tertiary = {"prng": PrngState(0, 2)}
    with pytest.raises(InvalidSpecError):
        apply_unary(UnaryKind.DROPOUT, x, out, dropout_p=1.5)


def test_dropout_forward_backward_masks_agree():
    x = from_array(np.ones((16, 8), dtype=np.float32))
    x.tertiary = {"prng": PrngState(9, 8)}
    fwd = alloc(D(16, 8))
    apply_unary(UnaryKind.DROPOUT, x, fwd, dropout_p=0.5)
    dy = from_array(np.ones((16, 8), dtype=np.float32))
    dy.secondary = fwd.secondary
    back = alloc(D(16, 8))
    apply_unary(UnaryKind.DROPOUT_INV, dy, back, dropout_p=0.5)
    keep = mask_to_bool(fwd.secondary, 16, 8)
    vals = to_array(back)
    assert np.all(vals[keep] == 2.0) and np.all(vals[~keep] == 0.0)


def test_quantize_dequantize_roundtrip():
    rng = np.random.default_rng(7)
    x = rng.uniform(-2, 2, (8, 8)).astype(np.float32)
    q = alloc(D(8, 8, DType.INT8))
    apply_unary(UnaryKind.QUANTIZE, from_array(x), q)
    d = alloc(D(8, 8))
    apply_unary(UnaryKind.DEQUANTIZE, q, d)
    assert np.max(np.abs(to_array(d) - x)) <= q.tertiary["scale"] / 2 + 1e-9


def test_unpack_rejects_non_fp32():
    x = from_array(np.ones((2, 2)))
    with pytest.raises(InvalidSpecError):
        apply_unary(UnaryKind.UNPACK, x, alloc(D(2, 2, DType.BF16)))
