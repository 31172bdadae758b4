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
    TreeBuilder,
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
    vnni_extent,
    vnni_pack_a,
    vnni_unpack_a,
)
from tensorprim.equation import EquationError
from tensorprim.ops import APPROX_SELECTORS
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


@pytest.mark.parametrize("dtype, tiny", [(DType.FP32, 1e-40), (DType.FP64, 1e-310)])
@pytest.mark.parametrize("kind", list(APPROX_SELECTORS))
def test_no_selector_runs_the_listed_default(kind, dtype, tiny, native_backend):
    """A kernel passes ``approx=None`` through to ``approx``, which picks the
    default that ``APPROX_SELECTORS`` lists first: both give the same bits,
    on signed zeros, infinities, a NaN and subnormals too."""
    x = np.array([[0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 0.75, -2.5]])
    outs = []
    for sel in (None, APPROX_SELECTORS[kind][0]):
        inp = from_array(x, dtype)
        inp.secondary = inp.primary.copy()  # the forward input of a backward kind
        out = alloc(D(1, x.shape[1], dtype))
        apply_unary(kind, inp, out, approx_flag=sel)
        outs.append(to_array(out))
    assert bits_equal(*outs)


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


def test_one_kernel_cache_serves_every_entry_point(monkeypatch):
    """For one kind, descriptors and flags, ``dispatch``, ``TreeBuilder``
    and the entry point that runs the kind all get the identical kernel,
    and the second and third lookups are hits of ``dispatch.cache_info``."""
    import tensorprim.ops as ops
    from tensorprim import PrngState, TreeBuilder
    x, y = D(13, 7), D(13, 7)
    col = D(13, 1)
    mask = TensorDesc(13, 7, 13, DType.BIT)
    rs = ReduceSpec(ReduceAxis.COLS, ReduceOp.MAX)
    tr = TransformSpec(TransformKind.TRANSPOSE)
    cases = [  # (spec, entry point call on views, tree node build or None)
        (KernelSpec(UnaryKind.TANH, (x,), approx=Approx.MINIMAX16),
         lambda v, o: apply_unary(UnaryKind.TANH, v[0], o, approx_flag=Approx.MINIMAX16),
         lambda b: b.unary(UnaryKind.TANH, b.leaf(0), approx=Approx.MINIMAX16)),
        (KernelSpec(UnaryKind.RELU, (x,)),
         lambda v, o: apply_unary(UnaryKind.RELU, v[0], o),
         lambda b: b.unary(UnaryKind.RELU, b.leaf(0))),
        (KernelSpec(UnaryKind.RELU, (x,), bitmask_output=True),
         lambda v, o: apply_unary(UnaryKind.RELU, v[0], o, bitmask_output=True), None),
        (KernelSpec(UnaryKind.DROPOUT, (x,), dropout_p=0.25),
         lambda v, o: apply_unary(UnaryKind.DROPOUT, v[0], o, dropout_p=0.25), None),
        (KernelSpec(UnaryKind.REDUCE, (x,), reduce=rs),
         lambda v, o: reduce(v[0], rs, o),
         lambda b: b.unary(UnaryKind.REDUCE, b.leaf(0), reduce=rs)),
        (KernelSpec(UnaryKind.TRANSFORM, (x,), transform=tr),
         lambda v, o: transform(v[0], tr, o),
         lambda b: b.unary(UnaryKind.TRANSFORM, b.leaf(0), transform=tr)),
        (KernelSpec(UnaryKind.REPLICATE_COLS, (col,), times=5),
         lambda v, o: replicate_cols(v[0], 5, o), None),
        (KernelSpec(BinaryKind.SUB, (x, y)),
         lambda v, o: apply_binary(BinaryKind.SUB, v[0], v[1], o),
         lambda b: b.binary(BinaryKind.SUB, b.leaf(0), b.leaf(1))),
        (KernelSpec(BinaryKind.COMPARE, (x, y), cmp=CmpOp.GE),
         lambda v, o: apply_binary(BinaryKind.COMPARE, v[0], v[1], o, cmp=CmpOp.GE),
         lambda b: b.binary(BinaryKind.COMPARE, b.leaf(0), b.leaf(1), cmp=CmpOp.GE)),
        (KernelSpec(TernaryKind.MULADD, (x, y, x)),
         lambda v, o: apply_ternary(TernaryKind.MULADD, v[0], v[1], v[2], o),
         lambda b: b.ternary(TernaryKind.MULADD, b.leaf(0), b.leaf(1), b.leaf(0))),
        (KernelSpec(TernaryKind.BLEND, (x, y, mask)),
         lambda v, o: apply_ternary(TernaryKind.BLEND, v[0], v[1], v[2], o), None),
    ]
    ran = []
    run = ops.Kernel._run
    monkeypatch.setattr(ops.Kernel, "_run", lambda k, views, out: ran.append(k) or run(k, views, out))
    rng = np.random.default_rng(40)
    for spec, call, build in cases:
        kern = dispatch(spec)
        views = [alloc(d) for d in spec.ins]
        for v in views:
            if v.desc.dtype is not DType.BIT:
                v.as2d()[:, :] = rng.uniform(-1, 1, (v.desc.phys_rows, v.desc.phys_cols))
        views[0].tertiary = {"prng": PrngState(3, 7)}
        before = dispatch.cache_info()
        ran.clear()
        call(views, alloc(kern.out_desc))
        after = dispatch.cache_info()
        assert ran == [kern] and ran[0] is kern, spec
        assert (after.hits, after.misses) == (before.hits + 1, before.misses), spec
        if build is not None:
            b = TreeBuilder(list(spec.ins[:2]))
            assert build(b).kernel is kern, spec
            assert dispatch.cache_info().hits == after.hits + 1, spec
    # flags passed by position or by name, or left at their defaults, key one entry
    size = dispatch.cache_info().currsize
    tanh = dispatch(cases[0][0])
    assert ops.kernel_for(UnaryKind.TANH, (x,), Approx.MINIMAX16) is tanh
    assert ops.kernel_for(UnaryKind.TANH, (x,), approx=Approx.MINIMAX16, cmp=None,
                          bitmask_output=False, times=None) is tanh
    assert dispatch.cache_info().currsize == size


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
    # FP32 -> BF16 -> FP32 is exact on values BF16 holds
    vals = np.array([[1.0, -2.5, 0.15625]], dtype=np.float32)
    b, back = alloc(D(1, 3, DType.BF16)), alloc(D(1, 3))
    apply_unary(UnaryKind.IDENTITY, from_array(vals), b)
    apply_unary(UnaryKind.IDENTITY, b, back)
    assert b.primary.tolist() == [0x3F80, 0xC020, 0x3E20]
    assert bits_equal(to_array(back), vals)
    # BF16 and FP32 widen to FP64 exactly
    wide = alloc(D(1, 3, DType.FP64))
    apply_unary(UnaryKind.IDENTITY, b, wide)
    assert bits_equal(to_array(wide), vals.astype(np.float64))
    apply_unary(UnaryKind.IDENTITY, from_array(np.array([[1.5]], dtype=np.float32)),
                wide.col_block(0, 1))
    assert to_array(wide)[0, 0] == 1.5


@pytest.mark.parametrize("dtype, want", [
    (DType.INT8, [127, -128, 127, 0, 2, -2, 127]),
    (DType.INT32, [300, -300, 2 ** 31 - 1, 0, 2, -2, 2 ** 31 - 1]),
], ids=["int8", "int32"])
def test_float_into_integer_rounds_toward_zero_and_saturates(dtype, want):
    """A direct call and a plan under Buffered and Hybrid store alike, with
    no RuntimeWarning: NaN stores 0, and INT32's top bound holds although
    FP32 rounds 2^31 - 1 up to 2^31."""
    from tensorprim import Buffered, Hybrid, evaluate, plan_equation
    x = from_array(np.array([[300, -300, 1e10, np.nan, 2.9, -2.9, 2.0 ** 31]], np.float32))
    plan = plan_equation("identity(T0)", [x.desc])
    for run in (lambda o: apply_unary(UnaryKind.IDENTITY, x, o),
                lambda o: evaluate(plan, Buffered(), [x], o),
                lambda o: evaluate(plan, Hybrid(1, 3), [x], o)):
        out = alloc(D(1, 7, dtype))
        run(out)
        assert to_array(out).tolist() == [want]


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
    assert vnni_extent(2, 3, 2) == (4, 2)  # the (rows * alpha) x groups view of it
    assert np.array_equal(vnni_unpack_a(flat, 2, 2, 3), pats)
    assert flat[5] == 0  # padded slot of the tail group
    for rows, cols, alpha, want in ((1, 1, 2, (2, 1)), (3, 4, 4, (12, 1)), (3, 5, 4, (12, 2)),
                                    (2, 9, 4, (8, 3)), (5, 8, 2, (10, 4))):
        assert vnni_extent(rows, cols, alpha) == want
        assert vnni_pack_a(np.ones((rows, cols), np.uint16), alpha).size == want[0] * want[1]


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
    """Also with tail groups on both sides; both transforms' outputs have the
    ``vnni_extent`` of their logical tensors."""
    rng = np.random.default_rng(4)
    for m, n in ((6, 4), (5, 3)):
        pats = rng.integers(0, 1 << 16, size=(m, n), dtype=np.uint16)
        v = from_array(np.zeros((m, n), np.float32), DType.BF16)
        v.as2d()[:, :] = pats
        vnni = TransformSpec(TransformKind.VNNI, alpha=2)
        vnnit = TransformSpec(TransformKind.VNNI_TO_VNNIT, alpha=2, alpha_out=2, rows=m, cols=n)
        vn = alloc(D(*vnni_extent(m, n, 2), DType.BF16))
        assert dispatch(KernelSpec(UnaryKind.TRANSFORM, (v.desc,), transform=vnni)).out_desc \
            == vn.desc
        transform(v, vnni, vn)
        # composed op on the VNNI tensor
        out = alloc(D(*vnni_extent(n, m, 2), DType.BF16))
        assert dispatch(KernelSpec(UnaryKind.TRANSFORM, (vn.desc,), transform=vnnit)).out_desc \
            == out.desc
        transform(vn, vnnit, out)
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


def _tile_4x4():
    return from_array(np.arange(16, dtype=np.float32).reshape(4, 4))


def _prng_source():
    src = alloc(D(1, 1))
    src.tertiary = {"prng": PrngState(3, 4)}
    return src


@pytest.mark.parametrize("call", [
    lambda dst: apply_unary(UnaryKind.ZERO, None, dst),
    lambda dst: apply_unary(UnaryKind.PRNG, _prng_source(), dst),
    lambda dst: strided_load(_tile_4x4(), dst, 1, 1),
    lambda dst: strided_store(from_array(np.full((1, 2), 7.0, np.float32)), dst, 0, 2,
                              base_col=1),
    lambda dst: shuffle_network_transpose(_tile_4x4(), dst),
], ids=["zero", "prng", "strided_load", "strided_store", "shuffle"])
def test_write_into_a_row_broadcast_output_rejected(call):
    """No primitive writes through the one physical row a ROW broadcast
    shares (ZERO stored [0, 0, 0, 0] there, a strided store [5, 7, 5, 7])."""
    base = alloc(D(1, 4), fill=5.0)
    with pytest.raises(TensorError):
        call(broadcast(base, Bcast.ROW, 4, 4))
    assert base.primary.tolist() == [5.0] * 4


@pytest.mark.parametrize("call, out_desc", [
    (lambda o: gather_scatter(from_array(np.array([[2.0, -1.0]], np.float32), DType.BF16),
                              np.array([0, 1]), GatherMode.GATHER_COLS, o), D(1, 2)),
    (lambda o: gather_scatter(from_array(np.array([[300.5, 1e10]], np.float32)),
                              np.array([0, 1]), GatherMode.GATHER_COLS, o), D(1, 2, DType.INT8)),
    (lambda o: strided_load(from_array(np.array([[2.0, -1.0]], np.float32), DType.BF16),
                            o, 1, 1), D(1, 2)),
    (lambda o: shuffle_network_transpose(_tile_4x4(), o), D(4, 4, DType.INT32)),
], ids=["gather-bf16-fp32", "gather-fp32-int8", "strided_load-bf16-fp32", "shuffle-fp32-int32"])
def test_layout_copy_into_another_dtype_rejected(call, out_desc):
    """A gather, a strided load and the shuffle transpose copy storage as it
    is: into another dtype they stored BF16 2.0 as 16384.0 and truncated
    FP32 values into integers, so they raise before any write."""
    out = alloc(out_desc)
    with pytest.raises(InvalidSpecError) as e:
        call(out)
    assert e.value.code == "dtype"
    assert not np.any(to_array(out))


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


@pytest.mark.parametrize("call, want", [
    (lambda x, o: strided_load(x, o, row_stride=1, col_stride=2, base_row=1, base_col=1),
     lambda x: x[1:3, 1::2]),
    (shuffle_network_transpose, lambda x: x.T),
], ids=["strided_load", "shuffle"])
def test_layout_copy_reads_the_logical_broadcast_view(call, want):
    x = broadcast(from_array(np.array([[1.0, 2.0, 3.0, 4.0]], np.float32)), Bcast.ROW, 4, 4)
    want = want(to_array(x))
    out = alloc(D(*want.shape))
    call(x, out)
    assert bits_equal(to_array(out), want)


@pytest.mark.parametrize("mode", [GatherMode.GATHER2D, GatherMode.SCATTER2D])
def test_2d_modes_take_a_rows_by_cols_side_in_column_major_order(mode):
    """The t-th offset pair matches the t-th element of a 3 x 2 side with a
    padded ``ld``, column-major, as an element loop does (a repeated target
    keeps its last writer); the padding stays untouched."""
    rng = np.random.default_rng(10)
    idx = np.array([[1, 2], [0, 4], [3, 3], [2, 0], [1, 2], [3, 4]])
    side = TensorView(TensorDesc(3, 2, 5, DType.FP32), np.full(5 + 3, -7.0, np.float32))
    big = from_array(rng.standard_normal((4, 5)).astype(np.float32))
    if mode is GatherMode.GATHER2D:
        gather_scatter(big, idx, mode, side)
        x = to_array(big)
        want = [[x[tuple(idx[t + 3 * j])] for j in range(2)] for t in range(3)]
        assert bits_equal(to_array(side), np.array(want, np.float32))
        assert side.primary[3:5].tolist() == [-7.0, -7.0]
    else:
        side.as2d()[:, :] = rng.standard_normal((3, 2)).astype(np.float32)
        want = to_array(big)
        for t, (i, j) in enumerate(idx):
            want[i, j] = to_array(side)[t % 3, t // 3]
        gather_scatter(side, idx, mode, big)
        assert bits_equal(to_array(big), want)


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


@pytest.mark.parametrize("bcast, phys", [(Bcast.ROW, (1, 4)), (Bcast.COL, (3, 1)),
                                         (Bcast.SCALAR, (1, 1))], ids=["row", "col", "scalar"])
def test_blend_reads_a_broadcast_selector_through_its_logical_window(bcast, phys):
    rng = np.random.default_rng(11)
    a, b = rng.standard_normal((2, 3, 4)).astype(np.float32)
    sel = np.array([1, 0, 1, 0][:phys[0] * phys[1]], bool).reshape(phys)
    mask = TensorView(TensorDesc(*phys, phys[0], DType.BIT), bool_to_mask(sel))
    out = alloc(D(3, 4))
    apply_ternary(TernaryKind.BLEND, from_array(a), from_array(b),
                  broadcast(mask, bcast, 3, 4), out)
    assert bits_equal(to_array(out), np.where(sel, a, b))


def test_mixed_int_float_elementwise_call_is_rejected():
    """A direct call, a dispatch and a tree build reject an integer and a
    float value operand alike, whichever position holds the odd one (a
    BLEND selector is not a value operand): no silent promotion."""
    i32 = from_array(np.ones((2, 2), dtype=np.int32))
    f32 = from_array(np.ones((2, 2), dtype=np.float32))
    with pytest.raises(InvalidSpecError) as e:
        apply_binary(BinaryKind.ADD, i32, f32, alloc(D(2, 2)))
    assert e.value.code == "dtype"
    mask = TensorView(TensorDesc(2, 2, 2, DType.BIT), bool_to_mask(np.eye(2)))
    cases = [(kind, [odd if j == pos else even for j in range(3)])
             for kind in (TernaryKind.MULADD, TernaryKind.NMULADD)
             for pos in range(3) for even, odd in ((f32, i32), (i32, f32))]
    cases += [(TernaryKind.BLEND, [odd if j == pos else even for j in range(2)] + [mask])
              for pos in range(2) for even, odd in ((f32, i32), (i32, f32))]
    for kind, views in cases:
        descs = tuple(v.desc for v in views)
        with pytest.raises(InvalidSpecError) as e:
            apply_ternary(kind, *views, alloc(D(2, 2)))
        assert e.value.code == "dtype"
        with pytest.raises(InvalidSpecError) as e:
            dispatch(KernelSpec(kind, descs))
        assert e.value.code == "dtype"
        b = TreeBuilder(descs)
        with pytest.raises(EquationError, match=r"\[dtype\]"):
            b.ternary(kind, b.leaf(0), b.leaf(1), b.leaf(2))


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


def test_prng_state_of_another_width_advances():
    """A state of another width is rebuilt with one stream per column once
    and then advances: PRNG fills and DROPOUT masks are the first two blocks
    of a fresh state of the right width."""
    x = from_array(np.arange(32, dtype=np.float32).reshape(4, 8))
    x.tertiary = {"prng": PrngState(7, 1)}
    fresh = PrngState(7, 8)
    for _ in range(2):
        out = alloc(D(4, 8))
        apply_unary(UnaryKind.PRNG, x, out)
        assert bits_equal(to_array(out), fresh.uniform_block(4))
    x.tertiary = {"prng": PrngState(7, 1)}
    fresh = PrngState(7, 8)
    for _ in range(2):
        out = alloc(D(4, 8))
        apply_unary(UnaryKind.DROPOUT, x, out, dropout_p=0.5)
        keep = fresh.uniform_block(4) >= np.float32(0.5)
        assert bits_equal(to_array(out), np.where(keep, to_array(x) * np.float32(2), 0))
        assert np.array_equal(mask_to_bool(out.secondary, 4, 8), keep)


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


def _unpack_patterns(rows, cols, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**32, size=(rows, cols), dtype=np.uint64).astype(np.uint32)


@pytest.mark.parametrize("ld", [3, 5])
def test_unpack_writes_lo_at_the_output_ld(ld):
    bits = _unpack_patterns(3, 4, ld)
    hi = alloc(TensorDesc(3, 4, ld, DType.BF16))
    lo = alloc(TensorDesc(3, 4, ld, DType.INT16))
    hi.secondary = lo.primary
    apply_unary(UnaryKind.UNPACK, from_array(bits.view(np.float32)), hi)
    assert hi.secondary is lo.primary
    assert np.array_equal(hi.as2d(), bits >> 16)
    assert np.array_equal(lo.as2d(), bits & 0xFFFF)


def test_unpack_without_companion_allocates_one_at_the_output_layout():
    bits = _unpack_patterns(3, 4, 1)
    hi = alloc(TensorDesc(3, 4, 5, DType.BF16))
    apply_unary(UnaryKind.UNPACK, from_array(bits.view(np.float32)), hi)
    assert hi.secondary.dtype == np.uint16 and hi.secondary.size == hi.desc.min_buffer_len
    lo = TensorView(TensorDesc(3, 4, 5, DType.INT16), hi.secondary)
    assert np.array_equal(lo.as2d(), bits & 0xFFFF)


def test_unpack_fills_a_larger_companion_in_place():
    bits = _unpack_patterns(3, 4, 2)
    comp = np.full(30, 0xABCD, dtype=np.uint16)
    hi = alloc(D(3, 4, DType.BF16))
    hi.secondary = comp
    apply_unary(UnaryKind.UNPACK, from_array(bits.view(np.float32)), hi)
    assert hi.secondary is comp
    assert np.array_equal(comp[:12].reshape(4, 3).T, bits & 0xFFFF)
    assert np.all(comp[12:] == 0xABCD)


@pytest.mark.parametrize("companion", [
    np.zeros(11, dtype=np.uint16),         # smaller than 3 x 4
    np.zeros(12, dtype=np.int32),          # not 16-bit patterns
    np.zeros(12, dtype=np.float32),
    np.zeros((4, 3), dtype=np.uint16),     # not flat
], ids=["small", "int32", "fp32", "2d"])
def test_unpack_rejects_a_bad_companion_before_any_write(companion):
    hi = alloc(D(3, 4, DType.BF16), fill=0.5)
    hi.secondary = companion
    before, comp_before = hi.primary.copy(), companion.copy()
    with pytest.raises(TensorError):
        apply_unary(UnaryKind.UNPACK, from_array(np.ones((3, 4), dtype=np.float32)), hi)
    assert bits_equal(hi.primary, before) and bits_equal(companion, comp_before)
    assert hi.secondary is companion


_BIT = D(2, 2, DType.BIT)


@pytest.mark.parametrize("spec", [
    KernelSpec(BinaryKind.ADD, (_BIT, _BIT)),
    KernelSpec(BinaryKind.ADD, (D(2, 2), _BIT)),
    KernelSpec(UnaryKind.TANH, (_BIT,)),
    KernelSpec(UnaryKind.IDENTITY, (_BIT,)),
    KernelSpec(UnaryKind.REDUCE, (_BIT,), reduce=ReduceSpec(ReduceAxis.ALL, ReduceOp.SUM)),
    KernelSpec(BinaryKind.MATMUL, (_BIT, _BIT)),
    KernelSpec(BinaryKind.COMPARE, (_BIT, _BIT), cmp=CmpOp.EQ),
    KernelSpec(TernaryKind.MULADD, (_BIT, D(2, 2), D(2, 2))),
    KernelSpec(TernaryKind.BLEND, (_BIT, D(2, 2), _BIT)),
], ids=["add", "add-right", "tanh", "identity", "reduce", "matmul", "compare", "muladd",
        "blend-value"])
def test_bit_operands_are_rejected_at_dispatch(spec):
    with pytest.raises(InvalidSpecError) as e:
        dispatch(spec)
    assert e.value.code == "dtype"
    b = TreeBuilder(list(spec.ins))
    leaves = [b.leaf(i) for i in range(len(spec.ins))]
    with pytest.raises(EquationError, match="dtype"):
        if len(leaves) == 1:
            b.unary(spec.kind, *leaves, reduce=spec.reduce)
        elif len(leaves) == 2:
            b.binary(spec.kind, *leaves, cmp=spec.cmp)
        else:
            b.ternary(spec.kind, *leaves)
