"""PACK, UNPACK, FP32 MULADD / NMULADD, DROPOUT and the split SGD step at
their edges, and the one operand rule of ``native.run`` for every engine,
on every backend: the C engines as loaded, their default build, and the
numpy path.  Each case runs once on the backend under test and once, on
fresh operands, on the numpy reference path, and the whole buffers
(padding included) must be bitwise equal; values are also checked against
plain numpy bit arithmetic."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tensorprim import (
    Bcast,
    BinaryKind,
    DType,
    ReduceAxis,
    ReduceOp,
    ReduceSpec,
    SplitTensor,
    TensorDesc,
    TernaryKind,
    UnaryKind,
    alloc,
    apply_binary,
    apply_ternary,
    apply_unary,
    approx,
    broadcast,
    kernels,
    native,
    ops,
    reduce,
    split_sgd_step,
    to_array,
    view_at,
)
from tensorprim.dtypes import fp32_to_bf16_rne, pack_fp32_bits, split_fp32_bits
from tensorprim.tensor import mask_to_bool

from util import bits_equal

_SENTINEL = {np.dtype(np.uint16): 0xA5A5, np.dtype(np.float32): np.float32(-7.25),
             np.dtype(np.float64): -7.25}
# NaNs of both signs and several payloads (quiet and signalling), +-Inf, +-0,
# subnormals and the extremes of the normal range, as FP32 bit patterns
_SPECIALS = np.array([0x7FC00000, 0xFFC00000, 0x7FC0BEEF, 0xFFD00123, 0x7F800001, 0xFFBFFFFF,
                      0x7F800000, 0xFF800000, 0x00000000, 0x80000000, 0x00000001, 0x807FFFFF,
                      0x00400000, 0x00800000, 0x7F7FFFFF, 0xFF7FFFFF], dtype=np.uint32)


def patterns(rows, cols, seed) -> np.ndarray:
    """rows x cols random 32-bit patterns with every special one mixed in."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**32, size=rows * cols, dtype=np.uint64).astype(np.uint32)
    k = min(bits.size, _SPECIALS.size)
    bits[rng.permutation(bits.size)[:k]] = _SPECIALS[rng.permutation(_SPECIALS.size)[:k]]
    return bits.reshape(rows, cols)


def padded(values: np.ndarray, dtype: DType, pad: int = 0, j0: int = 0, extra: int = 0,
           fill=None):
    """``values`` (storage dtype) in a view whose columns are ``pad``
    elements apart beyond its rows, as the column block at ``j0`` of a
    buffer ``extra`` columns wider; every element outside it is a
    sentinel (``fill``, a storage-dtype scalar, if given)."""
    rows, cols = values.shape
    ld = rows + pad
    st = dtype.storage
    buf = np.full(ld * (cols + extra), _SENTINEL[st] if fill is None else fill, dtype=st)
    buf.reshape(cols + extra, ld)[j0:j0 + cols, :rows] = values.T
    whole = view_at(buf, 0, TensorDesc(rows, cols + extra, ld, dtype))
    return whole.col_block(j0, cols) if extra else whole


def outside_untouched(view, fill=None) -> bool:
    """Every element of the buffer ``padded`` made outside ``view``'s window
    holds the sentinel (``fill``, if given), bit for bit."""
    d, whole = view.desc, view.primary.base
    mask = np.ones(whole.size, bool)
    start = (view.primary.__array_interface__["data"][0]
             - whole.__array_interface__["data"][0]) // whole.itemsize
    for j in range(d.cols):
        mask[start + j * d.ld:start + j * d.ld + d.rows] = False
    want = np.array(_SENTINEL[whole.dtype] if fill is None else fill, whole.dtype)
    return bits_equal(whole[mask], np.full(int(mask.sum()), want))


def on_both(make, call, monkeypatch):
    """Run ``call`` on the views ``make()`` returns, on the backend under
    test and then on fresh views on the numpy path; assert every buffer is
    bitwise equal between the two, and return the first run's views."""
    views = make()
    call(*views)
    with monkeypatch.context() as mp:
        mp.setattr(native, "_lib", False)
        ref = make()
        call(*ref)
    for v, r in zip(views, ref):
        assert bits_equal(v.primary, r.primary)
        if r.secondary is not None:
            assert bits_equal(v.secondary, r.secondary)
    return views


@pytest.fixture
def numpy_calls(monkeypatch):
    """Counts the calls of the numpy paths of PACK, UNPACK and MULADD.  A
    kernel binds ``_elementwise`` when it is built, so the dispatch cache
    is emptied before and after the test: its kernels bind the counter."""
    calls = {"pack": 0, "unpack": 0, "muladd": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ops, "pack_fp32_bits", counting("pack", ops.pack_fp32_bits))
    monkeypatch.setattr(ops, "split_fp32_bits", counting("unpack", ops.split_fp32_bits))
    monkeypatch.setattr(ops, "_elementwise", counting("muladd", ops._elementwise))
    ops._cached_kernel.cache_clear()
    yield calls
    ops._cached_kernel.cache_clear()


def numpy_runs(native_backend) -> int:
    """The numpy calls of a case that C runs on a native backend."""
    return 0 if native_backend != "numpy" else 1


SHAPES = [(1, 1), (1, 13), (13, 1), (37, 19)]


# ---------------------------------------------------------------------------
# PACK and UNPACK
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("pads", [(0, 0, 0), (3, 1, 5)], ids=["dense", "padded"])
def test_pack_and_unpack_move_every_bit_pattern(shape, pads, native_backend, numpy_calls,
                                                monkeypatch):
    rows, cols = shape
    bits = patterns(rows, cols, rows * 100 + cols)
    pin, phi, plo = pads

    def make():
        x = padded(bits.view(np.float32), DType.FP32, pin)
        hi = padded(np.zeros(shape, np.uint16), DType.BF16, phi)
        hi.secondary = padded(np.zeros(shape, np.uint16), DType.INT16, phi).primary
        return x, hi

    x, hi = on_both(make, lambda x, hi: apply_unary(UnaryKind.UNPACK, x, hi), monkeypatch)
    assert numpy_calls["unpack"] == numpy_runs(native_backend) + 1
    lo = view_at(hi.secondary, 0, TensorDesc(rows, cols, hi.desc.ld, DType.INT16))
    want_hi, want_lo = split_fp32_bits(bits.view(np.float32))
    assert bits_equal(hi.as2d(), want_hi) and bits_equal(lo.as2d(), want_lo)
    assert outside_untouched(hi) and outside_untouched(lo)

    def make_pack():
        h = padded(want_hi, DType.BF16, phi)
        lo_half = padded(want_lo, DType.INT16, plo)
        return h, lo_half, padded(np.zeros(shape, np.float32), DType.FP32, pin)

    *_, out = on_both(make_pack, lambda h, l, o: apply_binary(BinaryKind.PACK, h, l, o),
                      monkeypatch)
    assert numpy_calls["pack"] == numpy_runs(native_backend) + 1
    assert bits_equal(out.as2d().view(np.uint32), bits)
    assert bits_equal(pack_fp32_bits(want_hi, want_lo).view(np.uint32), bits)
    assert outside_untouched(out)


def test_pack_and_unpack_into_column_blocks_of_larger_buffers(native_backend, numpy_calls,
                                                              monkeypatch):
    """Column blocks of larger buffers, read from and written to, each with
    an ld that is not the other's; and dense inputs into a column block."""
    bits = patterns(6, 5, 9)

    for x_place in (dict(pad=2, j0=3, extra=4), dict(pad=0)):
        def make():
            x = padded(bits.view(np.float32), DType.FP32, **x_place)
            hi = padded(np.zeros((6, 5), np.uint16), DType.BF16, 1, j0=2, extra=3)
            return x, hi

        _, hi = on_both(make, lambda x, hi: apply_unary(UnaryKind.UNPACK, x, hi), monkeypatch)
        lo = view_at(hi.secondary, 0, TensorDesc(6, 5, hi.desc.ld, DType.INT16))
        want_hi, want_lo = split_fp32_bits(bits.view(np.float32))
        assert bits_equal(hi.as2d(), want_hi) and bits_equal(lo.as2d(), want_lo)
        assert outside_untouched(hi)

    for pads in ((1, 4), (0, 0)):
        def make_pack():
            return (padded(want_hi, DType.BF16, pads[0], j0=pads[0], extra=2 * pads[0]),
                    padded(want_lo, DType.INT16, pads[1], j0=pads[1], extra=2 * pads[1]),
                    padded(np.zeros((6, 5), np.float32), DType.FP32, 3, j0=4, extra=4))

        *_, out = on_both(make_pack, lambda h, l, o: apply_binary(BinaryKind.PACK, h, l, o),
                          monkeypatch)
        assert bits_equal(out.as2d().view(np.uint32), bits)
        assert outside_untouched(out)
    assert numpy_calls["unpack"] == 2 * (numpy_runs(native_backend) + 1)
    assert numpy_calls["pack"] == 2 * (numpy_runs(native_backend) + 1)


def test_pack_into_another_dtype_narrows_on_the_numpy_path(native_backend, numpy_calls,
                                                          monkeypatch):
    bits = np.array([[0x40300000, 0xBEC00000]], np.uint32)   # 2.75, -0.375
    hi, lo = split_fp32_bits(bits.view(np.float32))

    def make():
        return (padded(hi, DType.BF16), padded(lo, DType.INT16),
                alloc(TensorDesc(1, 2, 1, DType.FP64)))

    *_, out = on_both(make, lambda h, l, o: apply_binary(BinaryKind.PACK, h, l, o), monkeypatch)
    assert out.as2d().tolist() == [[2.75, -0.375]]
    assert numpy_calls["pack"] == 2


def test_unpack_and_pack_where_buffers_overlap_take_the_numpy_path(native_backend, numpy_calls,
                                                                   monkeypatch):
    """An UNPACK whose lo companion is the input's own memory, and a PACK
    whose output is the memory of its hi half, give the numpy path's bits."""
    bits = patterns(4, 3, 11)

    def make_unpack():
        x = padded(bits.view(np.float32), DType.FP32)
        hi = alloc(TensorDesc(4, 3, 4, DType.BF16))
        hi.secondary = x.primary.view(np.uint16)[5:5 + 12]   # inside x, not at its start
        return x, hi

    x, _ = on_both(make_unpack, lambda x, hi: apply_unary(UnaryKind.UNPACK, x, hi), monkeypatch)
    assert numpy_calls["unpack"] == 2

    def make_pack():
        out = padded(np.zeros((4, 3), np.float32), DType.FP32)
        h = view_at(out.primary.view(np.uint16), 2, TensorDesc(4, 3, 4, DType.BF16))
        h.as2d()[:, :] = split_fp32_bits(bits.view(np.float32))[0]
        return h, padded(bits.astype(np.uint16), DType.INT16), out

    on_both(make_pack, lambda h, l, o: apply_binary(BinaryKind.PACK, h, l, o), monkeypatch)
    assert numpy_calls["pack"] == 2


# ---------------------------------------------------------------------------
# FP32 MULADD and NMULADD
# ---------------------------------------------------------------------------

def finite(rows, cols, seed) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((rows, cols)).astype(np.float32)


def operand(values: np.ndarray, scalar: bool, pad: int):
    """A full view of ``values`` at a padded ``ld``, or its element (0, 0)
    as a SCALAR of that extent (in a padded 1 x 1 buffer)."""
    rows, cols = values.shape
    if not scalar:
        return padded(values, DType.FP32, pad)
    one = padded(values[:1, :1], DType.FP32, pad)
    return broadcast(one, Bcast.SCALAR, rows, cols)


def logical(v) -> np.ndarray:
    return np.broadcast_to(v.as2d(), (v.desc.rows, v.desc.cols))


MASKS = list(range(8))   # bit t: operand t (a, b, c) is a SCALAR


@pytest.mark.parametrize("kind", [TernaryKind.MULADD, TernaryKind.NMULADD])
@pytest.mark.parametrize("scalars", MASKS, ids=[f"s{m:03b}" for m in MASKS])
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("dense", [False, True], ids=["padded", "dense"])
def test_muladd_with_full_and_scalar_operands(kind, scalars, shape, dense, native_backend,
                                              numpy_calls, monkeypatch):
    """Every operand and ``out`` at a padded ``ld`` of its own, or all dense."""
    rows, cols = shape
    vals = [finite(rows, cols, 10 * t + rows) for t in range(3)]

    def make():
        a, b, c = (operand(vals[t], scalars >> t & 1, pad=0 if dense else t + 1)
                   for t in range(3))
        return a, b, c, padded(np.zeros(shape, np.float32), DType.FP32, 0 if dense else 2)

    a, b, c, out = on_both(make, lambda a, b, c, o: apply_ternary(kind, a, b, c, o), monkeypatch)
    assert numpy_calls["muladd"] == 2   # no C engine: numpy on every backend
    av, bv, cv = logical(a), logical(b), logical(c)
    want = cv + av * bv if kind is TernaryKind.MULADD else cv - av * bv
    assert bits_equal(out.as2d(), want)
    assert outside_untouched(out)


@pytest.mark.parametrize("kind", [TernaryKind.MULADD, TernaryKind.NMULADD])
@pytest.mark.parametrize("shape", SHAPES)
def test_muladd_in_place_into_c(kind, shape, native_backend, numpy_calls, monkeypatch):
    """``out`` is ``c`` (same buffer, ld and dtype), as in split SGD, with
    ``c`` dense, at a padded ld and in a column block of a larger buffer."""
    rows, cols = shape
    a_vals, c_vals = finite(rows, cols, 1), finite(rows, cols, 2)

    for place in (dict(pad=0), dict(pad=3), dict(pad=1, j0=2, extra=3)):
        def make():
            c = padded(c_vals, DType.FP32, **place)
            lr = operand(np.full((rows, cols), 0.01, np.float32), True, 0)
            return operand(a_vals, False, place["pad"]), lr, c

        a, lr, c = on_both(make, lambda a, lr, c: apply_ternary(kind, a, lr, c, c), monkeypatch)
        p = a_vals * np.float32(0.01)
        want = c_vals + p if kind is TernaryKind.MULADD else c_vals - p
        assert bits_equal(c.as2d(), want)
        assert outside_untouched(c)
    assert numpy_calls["muladd"] == 3 * 2


def test_muladd_into_a_column_block_of_a_larger_buffer(native_backend, numpy_calls, monkeypatch):
    """Dense inputs, and an output whose ld is not theirs."""
    vals = [finite(5, 4, t) for t in range(3)]

    def make():
        a, b, c = (padded(v, DType.FP32) for v in vals)
        return a, b, c, padded(np.zeros((5, 4), np.float32), DType.FP32, 2, j0=3, extra=5)

    *_, out = on_both(make, lambda a, b, c, o: apply_ternary(TernaryKind.MULADD, a, b, c, o),
                      monkeypatch)
    assert bits_equal(out.as2d(), vals[2] + vals[0] * vals[1])
    assert outside_untouched(out)
    assert numpy_calls["muladd"] == 2


@pytest.mark.parametrize("kind", [TernaryKind.MULADD, TernaryKind.NMULADD])
@pytest.mark.parametrize("where", ["a", "b", "c", "scalar"])
def test_a_nan_operand_gives_the_numpy_bits_in_place(kind, where, native_backend, numpy_calls,
                                                     monkeypatch):
    """NaNs of different payloads meet in a*b and in c +- p; ``out`` is
    ``c``, and the numpy path reads the operands as they were."""
    rows, cols = 7, 6
    bits = [finite(rows, cols, t).view(np.uint32).copy() for t in range(3)]
    nan_at = {"a": [0], "b": [1], "c": [2], "scalar": [0, 1, 2]}[where]
    for t in nan_at:
        bits[t][::2, ::3] = _SPECIALS[[0, 3, 4][t]]
        bits[t][1, 1] = _SPECIALS[[1, 2, 5][t]]

    def make():
        a = padded(bits[0].view(np.float32), DType.FP32, 2)
        b = operand(bits[1].view(np.float32), where == "scalar", 1)
        c = padded(bits[2].view(np.float32), DType.FP32, 3)
        return a, b, c

    a, b, c = on_both(make, lambda a, b, c: apply_ternary(kind, a, b, c, c), monkeypatch)
    assert np.isnan(c.as2d()).any()
    # numpy ran once per backend
    assert numpy_calls["muladd"] == 2


def test_muladd_outputs_overlapping_an_input_take_the_numpy_path(native_backend, numpy_calls,
                                                                 monkeypatch):
    """``out`` one column into ``c``'s buffer, and ``out`` at the address of
    ``a`` with another ld: the numpy path reads every input before it
    stores, and the C kernel would not."""
    vals = [finite(4, 6, t) for t in range(3)]

    def shifted():
        buf = np.zeros(4 * 8, np.float32)
        c = view_at(buf, 0, TensorDesc(4, 6, 4, DType.FP32))
        c.as2d()[:, :] = vals[2]
        out = view_at(buf, 4, TensorDesc(4, 6, 4, DType.FP32))
        return padded(vals[0], DType.FP32), padded(vals[1], DType.FP32), c, out

    def other_ld():
        buf = np.zeros(5 * 6, np.float32)
        a = view_at(buf, 0, TensorDesc(4, 6, 4, DType.FP32))
        a.as2d()[:, :] = vals[0]
        out = view_at(buf, 0, TensorDesc(4, 6, 5, DType.FP32))
        return a, padded(vals[1], DType.FP32), padded(vals[2], DType.FP32), out

    def scalar_in_out():
        out = padded(vals[2], DType.FP32)
        b = broadcast(view_at(out.primary, 5, TensorDesc(1, 1, 1, DType.FP32)),
                      Bcast.SCALAR, 4, 6)
        return padded(vals[0], DType.FP32), b, padded(vals[2], DType.FP32), out

    for make in (shifted, other_ld, scalar_in_out):
        on_both(make, lambda a, b, c, o: apply_ternary(TernaryKind.NMULADD, a, b, c, o),
                monkeypatch)
    assert numpy_calls["muladd"] == 6


def test_read_only_outputs_raise_as_on_the_numpy_path(native_backend):
    """A C kernel never writes a buffer numpy holds read-only: each call
    raises numpy's ValueError and leaves the buffer as it was."""
    bits = patterns(3, 4, 12)
    x = padded(bits.view(np.float32), DType.FP32)
    hi, lo = split_fp32_bits(bits.view(np.float32))

    def read_only(dtype):
        v = padded(np.zeros((3, 4), dtype.storage), dtype)
        v.primary.flags.writeable = False
        return v

    out, ro_hi, ro_lo = read_only(DType.FP32), read_only(DType.BF16), read_only(DType.INT16)
    w = padded(np.zeros((3, 4), np.uint16), DType.BF16)
    w.secondary = ro_lo.primary
    calls = [lambda: apply_ternary(TernaryKind.MULADD, x, x, x, out),
             lambda: apply_binary(BinaryKind.PACK, padded(hi, DType.BF16),
                                  padded(lo, DType.INT16), out),
             lambda: apply_unary(UnaryKind.UNPACK, x, ro_hi),
             lambda: apply_unary(UnaryKind.UNPACK, x, w)]
    for call in calls:
        with pytest.raises(ValueError, match="read-only"):
            call()
    for v in (out, ro_hi, ro_lo):
        assert not v.primary.any()


def test_a_buffer_swapped_for_a_short_one_raises_as_on_the_numpy_path(native_backend):
    """``TensorView`` checks its buffer when it is built; one assigned
    later that is too short never reaches a C kernel."""
    x = padded(finite(3, 4, 1), DType.FP32)
    out = padded(np.zeros((3, 4), np.float32), DType.FP32)
    short = padded(finite(3, 4, 2), DType.FP32)
    short.primary = short.primary[:5]
    hi = padded(np.zeros((3, 4), np.uint16), DType.BF16)
    hi.primary = hi.primary[:11]
    for call in (lambda: apply_ternary(TernaryKind.MULADD, x, short, x, out),
                 lambda: apply_ternary(TernaryKind.MULADD, x, x, x, short),
                 lambda: apply_unary(UnaryKind.UNPACK, x, hi),
                 lambda: apply_binary(BinaryKind.PACK, hi, padded(np.zeros((3, 4), np.uint16),
                                                                 DType.INT16), out)):
        with pytest.raises((TypeError, ValueError), match="too small|incompatible"):
            call()
    assert not out.primary.any()


@pytest.mark.parametrize("dtypes", [(DType.FP64, DType.FP32), (DType.BF16, DType.FP32),
                                    (DType.FP32, DType.BF16)],
                         ids=["fp64-in", "bf16-in", "bf16-out"])
def test_muladd_of_other_dtypes_runs_numpy(dtypes, native_backend, monkeypatch):
    in_dt, out_dt = dtypes
    vals = [finite(3, 5, t) for t in range(3)]

    def make():
        ins = [padded(np.asarray(v, in_dt.storage) if in_dt is not DType.BF16
                      else split_fp32_bits(v)[0], in_dt, 1) for v in vals]
        return (*ins, alloc(TensorDesc(3, 5, 3, out_dt)))

    on_both(make, lambda a, b, c, o: apply_ternary(TernaryKind.MULADD, a, b, c, o), monkeypatch)


def test_muladd_with_a_row_or_col_broadcast_runs_numpy(native_backend, monkeypatch):
    row, col, full = finite(1, 6, 1), finite(4, 1, 2), finite(4, 6, 3)

    def make():
        return (broadcast(padded(row, DType.FP32), Bcast.ROW, 4, 6),
                broadcast(padded(col, DType.FP32), Bcast.COL, 4, 6),
                padded(full, DType.FP32), padded(np.zeros((4, 6), np.float32), DType.FP32))

    *_, out = on_both(make, lambda a, b, c, o: apply_ternary(TernaryKind.MULADD, a, b, c, o),
                      monkeypatch)
    assert bits_equal(out.as2d(), full + row * col)


# ---------------------------------------------------------------------------
# DROPOUT
# ---------------------------------------------------------------------------

DROP_ROWS = [1, 7, 8, 9, 64]   # whole and partial mask bytes
DROP_COLS = [5, 16, 21]        # below, at and above the engine's block of 16 streams


def dropout_twice(x_bits: np.ndarray, p: float, pads) -> list:
    """Two DROPOUT calls on one stream state, x at ld rows + pads[0] and
    each output at ld rows + pads[1]: per call, the whole output buffer,
    the bitmask and the state words after it."""
    rows, cols = x_bits.shape
    x = padded(x_bits.view(np.float32), DType.FP32, pads[0])
    state = ops.PrngState(11, cols)
    x.tertiary = {"prng": state}
    got = []
    for _ in range(2):
        out = padded(np.zeros((rows, cols), np.float32), DType.FP32, pads[1])
        apply_unary(UnaryKind.DROPOUT, x, out, dropout_p=p)
        assert outside_untouched(out)
        got.append((out.primary.base.copy(), out.secondary.copy(), state.words.copy()))
    return got


@pytest.mark.parametrize("rows", DROP_ROWS)
@pytest.mark.parametrize("cols", DROP_COLS)
@pytest.mark.parametrize("pads", [(0, 0), (3, 2)], ids=["dense", "padded"])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.999])
def test_dropout_engine_gives_the_numpy_bits(rows, cols, pads, p, native_backend, runs,
                                             monkeypatch):
    """Every special pattern in x (NaNs of several payloads, +-Inf, -0,
    subnormals): the outputs, the bitmasks and the states the two calls
    leave equal the numpy path's bitwise, and C ran on a native backend."""
    x_bits = patterns(rows, cols, rows * 100 + cols)
    got = dropout_twice(x_bits, p, pads)
    with monkeypatch.context() as mp:
        mp.setattr(native, "_lib", False)
        want = dropout_twice(x_bits, p, pads)
    for g, w in zip(got, want):
        assert all(bits_equal(a, b) for a, b in zip(g, w))
    ran = [r for r in runs if r[0] == "dropout_f32"]
    assert ran == [("dropout_f32", native_backend != "numpy")] * 2 + [("dropout_f32", False)] * 2


def test_a_kept_nan_keeps_its_own_payload(native_backend):
    """x * scale has one NaN operand, so a kept NaN is x's, quieted, on
    every backend: no numpy rerun is needed."""
    nans = np.array([0x7FC00000, 0xFFC00000, 0x7FC0BEEF, 0xFFD00123, 0x7F800001, 0xFFBFFFFF],
                    np.uint32)
    x_bits = np.resize(nans, (9, 20))
    (out, mask, _), _ = dropout_twice(x_bits, 0.5, (0, 0))
    keep = mask_to_bool(mask, 9, 20)
    assert 0 < keep.sum() < keep.size
    got = out.view(np.uint32).reshape(20, 9).T
    assert bits_equal(got[keep], x_bits[keep] | 0x00400000)
    assert np.all(got[~keep] == 0)


def test_dropout_in_place_takes_the_numpy_path(native_backend, runs, monkeypatch):
    """``out`` is x: ``native.run`` refuses the overlap, and the numpy path
    gives the values an out-of-place call gives."""
    x_bits = patterns(9, 21, 5)

    def make():
        x = padded(x_bits.view(np.float32), DType.FP32, 2)
        x.tertiary = {"prng": ops.PrngState(3, 21)}
        return (x,)

    (x,) = on_both(make, lambda v: apply_unary(UnaryKind.DROPOUT, v, v, dropout_p=0.25),
                   monkeypatch)
    assert ("dropout_f32", True) not in runs
    (src,) = make()
    out = alloc(TensorDesc(9, 21, 9, DType.FP32))
    apply_unary(UnaryKind.DROPOUT, src, out, dropout_p=0.25)
    assert bits_equal(x.as2d(), out.as2d()) and bits_equal(x.secondary, out.secondary)


# ---------------------------------------------------------------------------
# split SGD end to end
# ---------------------------------------------------------------------------

def test_split_sgd_step_matches_fp32_sgd_on_special_weights(native_backend, monkeypatch):
    """Weights holding every special pattern, at a padded ld: one step is
    plain FP32 SGD on the packed values, bit for bit, and both backends agree."""
    bits = patterns(9, 7, 3)
    grad = finite(9, 7, 4)

    def make():
        hi, lo = split_fp32_bits(bits.view(np.float32))
        return (padded(hi, DType.BF16, 2), padded(lo, DType.INT16, 2), padded(grad, DType.FP32, 1))

    hi, lo, _ = on_both(make, lambda h, l, g: split_sgd_step(SplitTensor(h, l), g, 0.125),
                        monkeypatch)
    with np.errstate(all="ignore"):
        want = bits.view(np.float32) - grad * np.float32(0.125)
    got = pack_fp32_bits(hi.as2d(), lo.as2d())
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert bits_equal(got[~nan], want[~nan])


# -0, subnormals, +-Inf, the extremes of the normal range and 1, no NaN
_SGD_SPECIALS = np.array([0x00000000, 0x80000000, 0x00000001, 0x807FFFFF, 0x00400000,
                          0x7F800000, 0xFF800000, 0x7F7FFFFF, 0xFF7FFFFF, 0x3F800000],
                         dtype=np.uint32)
_NANS = _SPECIALS[:6]   # quiet and signalling NaNs of both signs, several payloads
# NaN padding: hi << 16 | lo of the halves' padding is a NaN, and so is the
# gradient's, so a C read of either would stop a column that holds no NaN
_NAN_FILL = {DType.BF16: np.uint16(0x7FC1), DType.INT16: np.uint16(0x0BAD),
             DType.FP32: np.uint32(0x7F80DEAD).view(np.float32)}
_SGD_PROPERTY = settings(derandomize=True, max_examples=120, deadline=None, database=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture,
                                                HealthCheck.too_slow])


def sgd_values(rng, rows, cols) -> np.ndarray:
    """rows x cols FP32 normals with up to ten of ``_SGD_SPECIALS`` mixed in."""
    x = rng.standard_normal((rows, cols)).astype(np.float32)
    k = min(x.size, _SGD_SPECIALS.size, int(rng.integers(0, x.size + 1)))
    x.reshape(-1).view(np.uint32)[rng.permutation(x.size)[:k]] = rng.choice(_SGD_SPECIALS, k)
    return x


def whole(view) -> np.ndarray:
    """The whole buffer behind ``view``, padding and other columns included."""
    return view.primary if view.primary.base is None else view.primary.base


@pytest.fixture
def reference_cols(monkeypatch):
    """The column count of every call of the split SGD reference path."""
    seen = []
    real = kernels._split_sgd_reference

    def spy(weights, grad, lr):
        seen.append(weights.cols)
        return real(weights, grad, lr)

    monkeypatch.setattr(kernels, "_split_sgd_reference", spy)
    return seen


@_SGD_PROPERTY
@given(data=st.data(), rows=st.sampled_from([1, 2, 7, 64, 67]),
       cols=st.sampled_from([1, 2, 5, 33]),
       pads=st.tuples(st.integers(0, 3), st.integers(0, 3)),
       place=st.sampled_from([(0, 0), (1, 2), (2, 3)]),
       nan_at=st.sampled_from([None, "first", "middle", "last"]),
       nan_in=st.sampled_from(["w", "g", "both"]),
       lr=st.sampled_from([0.01, 0.0, -0.375, np.nan, 1e300, 2.0 ** -130]),
       grad_kind=st.sampled_from(["fp32", "fp32", "bf16", "scalar"]))
def test_split_sgd_step_is_fp32_sgd_and_the_reference_bits(data, rows, cols, pads, place,
                                                           nan_at, nan_in, lr, grad_kind,
                                                           native_backend, runs,
                                                           reference_cols):
    """One step on halves and a gradient at different padded lds (NaN
    padding), each view a column block of a wider buffer: the whole buffers
    equal those of the reference composition run alone, the window holds
    plain FP32 SGD on the packed bits (w - g*float32(lr)), and C runs
    exactly where it may: a full pass without a NaN, stopping at the first
    column with a NaN w or g (first, middle or last; any payload) and the
    reference resuming there, and not at all for a BF16 or SCALAR gradient
    or a NaN lr."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    w = sgd_values(rng, rows, cols)
    g = sgd_values(rng, rows, cols)
    j = {None: None, "first": 0, "middle": cols // 2, "last": cols - 1}[nan_at]
    if j is not None:
        i = int(rng.integers(rows))
        if nan_in in ("w", "both"):
            w.view(np.uint32)[i, j] = rng.choice(_NANS)
        if nan_in in ("g", "both"):
            g.view(np.uint32)[i, j] = rng.choice(_NANS)
    pad_w, pad_g = pads
    j0, extra = place
    w_bits = w.view(np.uint32)

    def make():
        hi = padded((w_bits >> 16).astype(np.uint16), DType.BF16, pad_w, j0, extra,
                    _NAN_FILL[DType.BF16])
        lo = padded((w_bits & 0xFFFF).astype(np.uint16), DType.INT16, pad_w, extra - j0, extra,
                    _NAN_FILL[DType.INT16])
        if grad_kind == "bf16":
            gv = padded(fp32_to_bf16_rne(g), DType.BF16, pad_g, j0, extra, _NAN_FILL[DType.BF16])
        elif grad_kind == "scalar":
            one = padded(g[:1, :1], DType.FP32, pad_g, 0, 0, _NAN_FILL[DType.FP32])
            gv = broadcast(one, Bcast.SCALAR, rows, cols)
        else:
            gv = padded(g, DType.FP32, pad_g, j0, extra, _NAN_FILL[DType.FP32])
        return SplitTensor(hi, lo), gv

    split, gv = make()
    runs.clear()   # the fixtures live across the examples
    reference_cols.clear()
    split_sgd_step(split, gv, lr)
    calls = ([r for r in runs if r[0] == "split_sgd_f32"], list(reference_cols))
    ref_split, ref_g = make()
    kernels._split_sgd_reference(ref_split, ref_g, lr)
    for got, want in ((split.hi, ref_split.hi), (split.lo, ref_split.lo), (gv, ref_g)):
        assert bits_equal(whole(got), whole(want))
    assert outside_untouched(split.hi, _NAN_FILL[DType.BF16])
    assert outside_untouched(split.lo, _NAN_FILL[DType.INT16])

    with np.errstate(all="ignore"):
        lr32 = np.float32(lr)
        g32 = to_array(gv)
        want = w - g32 * lr32
    got = pack_fp32_bits(split.hi.as2d(), split.lo.as2d())
    # where two NaNs meet in the product, the payload kept depends on the
    # operand order numpy's loop picks; everywhere else the bits are pinned
    free = np.isnan(g32) & np.isnan(lr32)
    assert bits_equal(got[~free], want[~free])
    assert np.isnan(got[free]).all()

    in_c = grad_kind == "fp32" and not np.isnan(lr32)
    nan_cols = np.flatnonzero(np.isnan(w).any(axis=0) | np.isnan(g).any(axis=0))
    written = int(nan_cols[0]) if nan_cols.size else cols
    if not in_c:
        assert calls == ([], [cols])
    elif native_backend == "numpy":
        assert calls == ([("split_sgd_f32", False)], [cols])
    elif written == cols:
        assert calls == ([("split_sgd_f32", True)], [])
    else:
        assert calls == ([("split_sgd_f32", False)], [cols - written])


def test_split_sgd_engine_reads_distinct_lds(native_backend):
    """The engine alone, on arrays whose columns lie at three different lds
    (hi, lo and the gradient): the halves hold w - g*lr of the packed bits
    and the count of columns written; a NaN in column 3 stops it there with
    columns 3 and later untouched."""
    rows, cols = 5, 6
    rng = np.random.default_rng(17)
    w, g = sgd_values(rng, rows, cols), sgd_values(rng, rows, cols)
    lr = np.float32(0.25)
    for nan_col in (None, 3):
        if nan_col is not None:
            g[1, nan_col] = np.nan
        bits = w.view(np.uint32)
        hi = np.full((rows + 1, cols), 0x7FC1, np.uint16, order="F")
        lo = np.full((rows + 3, cols), 0x0BAD, np.uint16, order="F")
        gg = np.full((rows + 2, cols), np.nan, np.float32, order="F")
        hi[:rows], lo[:rows], gg[:rows] = bits >> 16, bits & 0xFFFF, g
        done = np.zeros((1, 1), np.int64)
        ran = native.run("split_sgd_f32", rows, cols, (gg[:rows],), (hi[:rows], lo[:rows], done),
                         float(lr))
        if native_backend == "numpy":
            assert not ran and done[0, 0] == 0
            continue
        k = cols if nan_col is None else nan_col
        assert ran == (nan_col is None) and done[0, 0] == k
        with np.errstate(all="ignore"):
            want = (w - g * lr).view(np.uint32)
        want[:, k:] = bits[:, k:]
        assert bits_equal(pack_fp32_bits(hi[:rows], lo[:rows]), want.view(np.float32))
        assert (hi[rows:] == 0x7FC1).all() and (lo[rows:] == 0x0BAD).all()


# ---------------------------------------------------------------------------
# the one operand rule of native.run, for every engine
# ---------------------------------------------------------------------------

@pytest.fixture
def runs(monkeypatch):
    """(engine, whether C ran) for every ``native.run`` call."""
    seen = []
    real = native.run

    def spy(name, *args):
        ran = real(name, *args)
        seen.append((name, ran))
        return ran

    monkeypatch.setattr(native, "run", spy)
    return seen


@pytest.fixture
def c_args(monkeypatch):
    """(engine, its C arguments) for every C engine call."""
    seen = []
    real = native.kernel

    def kernel(name):
        fn = real(name)
        if fn is None:
            return None

        def recorded(*args):
            seen.append((name, args))
            return fn(*args)
        return recorded

    monkeypatch.setattr(native, "kernel", kernel)
    return seen


def unaligned(shape, dtype) -> np.ndarray:
    """A zeroed column-major array of ``dtype`` one byte off its alignment."""
    rows, cols = shape
    size = np.dtype(dtype).itemsize
    a = np.zeros(rows * cols * size + 1, np.uint8)[1:].view(dtype).reshape(cols, rows).T
    assert not a.flags.aligned
    return a


def engine_operands(name):
    """(ins, outs, scalars) of a valid m x n = 3 x 5 call of engine
    ``name``, each operand a column-major array."""
    rng = np.random.default_rng(7)
    f32 = lambda: np.asfortranarray(rng.standard_normal((3, 5)), np.float32)
    u16 = lambda: np.asfortranarray(rng.integers(0, 2**16, (3, 5)), np.uint16)
    empty = lambda dt, shape=(3, 5): np.zeros(shape, dt, order="F")
    table = approx.TANH_MINIMAX
    return {
        "reduce_f32": ((f32(),), (empty(np.float32, (3, 1)),), (0, 0, 0, None)),
        "reduce_f64": ((np.asfortranarray(f32(), np.float64),), (empty(np.float64, (3, 1)),),
                       (0, 0, 0, None)),
        "xorshift_uniform": ((), (np.asfortranarray(rng.integers(1, 2**32, (3, 4)), np.uint32),
                                  empty(np.float32)), ()),
        # x; state (n x 4), out, mask ((m + 7) // 8 bytes x n); p, scale
        "dropout_f32": ((f32(),), (np.asfortranarray(rng.integers(1, 2**32, (5, 4)), np.uint32),
                                   empty(np.float32), empty(np.uint8, (1, 5))), (0.5, 2.0)),
        "tanh_pade78_f32": ((f32(),), (empty(np.float32),), ()),
        "exp_taylor_f32": ((f32(),), (empty(np.float32),), ()),
        "minimax_f32": ((f32(),), (empty(np.float32),),
                        (table.coeffs_address, table.base, table.range_max, table.saturation)),
        "pack_f32": ((u16(), u16()), (empty(np.float32),), ()),
        "unpack_f32": ((f32(),), (empty(np.uint16), empty(np.uint16)), ()),
        # g; hi and lo (the halves of finite weights), done; lr
        "split_sgd_f32": ((f32(),), (*(np.asfortranarray(h) for h in split_fp32_bits(f32())),
                                     empty(np.int64, (1, 1))), (0.5,)),
    }[name]


@pytest.mark.parametrize("name", sorted(native.ENGINES))
def test_run_refuses_an_unaligned_operand_of_every_engine(name, native_backend):
    """Each operand in turn one byte off its alignment: ``run`` returns
    False and writes nothing; aligned, C runs (on a native backend).  A
    byte operand (the dropout bitmask) is aligned at every address."""
    ins, outs, scalars = engine_operands(name)
    n = len(ins) + len(outs)
    assert n == native.ENGINES[name][0]
    for k in range(n):
        ops_ = [a.copy(order="F") for a in (*ins, *outs)]
        if ops_[k].itemsize == 1:
            continue
        bad = unaligned(ops_[k].shape, ops_[k].dtype)
        bad[...] = ops_[k]
        ops_[k] = bad
        before = [a.copy() for a in ops_]
        assert not native.run(name, 3, 5, tuple(ops_[:len(ins)]), tuple(ops_[len(ins):]),
                              *scalars)
        assert all(bits_equal(a, b) for a, b in zip(ops_, before))
    assert native.run(name, 3, 5, ins, outs, *scalars) == (native_backend != "numpy")


@pytest.mark.parametrize("name", sorted(native.ENGINES))
def test_run_refuses_an_output_that_is_exactly_another_operand(name, native_backend):
    """Each output in turn and an earlier operand (an input where the
    engine has one) are one array, so the same address, ld and end:
    ``run`` returns False and writes nothing, as for any other overlap.
    The array holds either operand's extent in 8-byte elements, so a
    ``run`` that let the call through would fail here, not corrupt
    memory."""
    ins, outs, scalars = engine_operands(name)
    nin, n = len(ins), len(ins) + len(outs)
    for t, k in [(t, k) for k in range(nin, n) for t in range(k)]:
        ops_ = [a.copy(order="F") for a in (*ins, *outs)]
        shape = np.maximum(ops_[t].shape, ops_[k].shape)
        ops_[t] = ops_[k] = np.asfortranarray(np.random.default_rng(k).standard_normal(shape))
        before = [a.copy() for a in ops_]
        assert not native.run(name, 3, 5, tuple(ops_[:nin]), tuple(ops_[nin:]), *scalars)
        assert all(bits_equal(a, b) for a, b in zip(ops_, before))


def unaligned_view(values: np.ndarray, dtype: DType):
    """A dense view of ``values`` (storage dtype) over a buffer one byte off
    its alignment."""
    v = view_at(unaligned((values.size, 1), dtype.storage)[:, 0], 0,
                TensorDesc(*values.shape, values.shape[0], dtype))
    v.as2d()[:, :] = values
    return v


UNALIGNED_CALLS = {
    "reduce_f32": lambda: (unaligned_view(finite(6, 5, 1), DType.FP32),
                           alloc(TensorDesc(6, 1, 6, DType.FP32))),
    "reduce_f64": lambda: (unaligned_view(finite(6, 5, 1).astype(np.float64), DType.FP64),
                           alloc(TensorDesc(6, 1, 6, DType.FP64))),
    "tanh_pade78_f32": lambda: (unaligned_view(finite(6, 5, 2), DType.FP32),
                                alloc(TensorDesc(6, 5, 6, DType.FP32))),
    "exp_taylor_f32": lambda: (unaligned_view(finite(6, 5, 3), DType.FP32),
                               alloc(TensorDesc(6, 5, 6, DType.FP32))),
    "minimax_f32": lambda: (unaligned_view(finite(6, 5, 4), DType.FP32),
                            alloc(TensorDesc(6, 5, 6, DType.FP32))),
    "pack_f32": lambda: (unaligned_view(patterns(6, 5, 5).astype(np.uint16), DType.BF16),
                         padded(patterns(6, 5, 6).astype(np.uint16), DType.INT16),
                         alloc(TensorDesc(6, 5, 6, DType.FP32))),
    "unpack_f32": lambda: (unaligned_view(patterns(6, 5, 7).view(np.float32), DType.FP32),
                           alloc(TensorDesc(6, 5, 6, DType.BF16))),
    "split_sgd_f32": lambda: (unaligned_view(finite(6, 5, 11), DType.FP32),
                              *(padded(h, dt) for h, dt in zip(split_fp32_bits(finite(6, 5, 12)),
                                                               (DType.BF16, DType.INT16)))),
}
ROWS_SUM = ReduceSpec(ReduceAxis.ROWS, ReduceOp.SUM)
# the public call that reaches each engine, on views
PUBLIC_CALLS = {
    "reduce_f32": lambda x, o: reduce(x, ROWS_SUM, o),
    "reduce_f64": lambda x, o: reduce(x, ROWS_SUM, o),
    "tanh_pade78_f32": lambda x, o: apply_unary(UnaryKind.TANH, x, o),
    "exp_taylor_f32": lambda x, o: apply_unary(UnaryKind.EXP, x, o),
    "minimax_f32": lambda x, o: apply_unary(UnaryKind.GELU, x, o),
    "pack_f32": lambda h, l, o: apply_binary(BinaryKind.PACK, h, l, o),
    "unpack_f32": lambda x, o: apply_unary(UnaryKind.UNPACK, x, o),
    "split_sgd_f32": lambda g, hi, lo: split_sgd_step(SplitTensor(hi, lo), g, 0.5),
}


@pytest.mark.parametrize("name", sorted(UNALIGNED_CALLS))
def test_an_unaligned_view_takes_the_numpy_path_with_its_bits(name, native_backend, runs,
                                                              monkeypatch):
    """Every engine a caller can hand a view to: its public call on an
    unaligned operand declines C and gives the numpy path's bits."""
    on_both(UNALIGNED_CALLS[name], PUBLIC_CALLS[name], monkeypatch)
    assert (name, False) in runs and (name, True) not in runs


def test_a_col_broadcast_reduce_input_reaches_c_at_ld_0(native_backend, runs, c_args,
                                                        monkeypatch):
    col = finite(7, 1, 11)
    for axis in ReduceAxis:
        out_rows, out_cols = {ReduceAxis.ROWS: (7, 1), ReduceAxis.COLS: (1, 9),
                              ReduceAxis.ALL: (1, 1)}[axis]

        def make():
            return (broadcast(padded(col, DType.FP32), Bcast.COL, 7, 9),
                    alloc(TensorDesc(out_rows, out_cols, out_rows, DType.FP32)))

        on_both(make, lambda x, o: reduce(x, ReduceSpec(axis, ReduceOp.SUM), o), monkeypatch)
    native_run = native_backend != "numpy"
    assert runs[::2] == [("reduce_f32", native_run)] * 3   # runs[1::2]: the numpy reruns
    assert [args[3] for _, args in c_args] == ([0] * 3 if native_run else [])   # x's ld


def test_every_engine_is_reached_from_its_public_entry(native_backend, runs):
    """On a native backend every engine runs in C from its public entry:
    ``apply_*``, ``reduce``, PRNG, DROPOUT, ``split_sgd_step`` and the
    ``approx`` functions."""
    x = padded(finite(16, 16, 12), DType.FP32, 3)
    f32 = lambda: alloc(TensorDesc(16, 16, 16, DType.FP32))
    for name, call in PUBLIC_CALLS.items():
        if name == "reduce_f64":
            call(padded(finite(16, 16, 13).astype(np.float64), DType.FP64),
                 alloc(TensorDesc(16, 1, 16, DType.FP64)))
        elif name.startswith("reduce"):
            call(x, alloc(TensorDesc(16, 1, 16, DType.FP32)))
        elif name == "pack_f32":
            hi, lo = split_fp32_bits(x.as2d())
            call(padded(hi, DType.BF16), padded(lo, DType.INT16), f32())
        elif name == "unpack_f32":
            call(x, alloc(TensorDesc(16, 16, 16, DType.BF16)))
        elif name == "split_sgd_f32":
            hi, lo = split_fp32_bits(finite(16, 16, 14))
            call(x, padded(hi, DType.BF16), padded(lo, DType.INT16))
        else:
            call(x, f32())
    x.tertiary = {"prng": ops.PrngState(5, 16)}
    apply_unary(UnaryKind.PRNG, x, f32())
    apply_unary(UnaryKind.DROPOUT, x, f32(), dropout_p=0.5)
    values = x.as2d()
    approx.tanh_pade78(values)
    approx.exp_taylor(values)
    approx.minimax_eval(approx.TANH_MINIMAX, values)
    want = {"tanh_pade78_f32": 2, "exp_taylor_f32": 2, "minimax_f32": 2,
            # on the numpy path DROPOUT draws its uniforms through the PRNG's
            "xorshift_uniform": 1 if native_backend != "numpy" else 2}
    if native_backend == "numpy":   # and split SGD takes its PACK, NMULADD, UNPACK path
        want.update(pack_f32=2, unpack_f32=2)
    assert {name for name, _ in runs} == set(native.ENGINES)
    for name in native.ENGINES:
        assert runs.count((name, native_backend != "numpy")) == want.get(name, 1), name


def test_a_reduce_into_its_own_input_gives_the_numpy_bits(native_backend, monkeypatch):
    """An M x 1 input reduced (ROWS, squared) into itself, with a NaN: no
    kernel may write over an input, so C declines and the numpy fold reads
    the input as it was."""
    col = finite(9, 1, 14)
    col[4, 0] = np.nan

    def make():
        return (padded(col, DType.FP32),)

    (v,) = on_both(make, lambda v: reduce(v, ReduceSpec(ReduceAxis.ROWS, ReduceOp.SUM, True), v),
                   monkeypatch)
    want = col * col
    assert bits_equal(v.as2d()[[0, 1, 2, 3, 5, 6, 7, 8]], want[[0, 1, 2, 3, 5, 6, 7, 8]])
