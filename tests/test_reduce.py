"""Reductions at their edges, on every backend: the C kernels as loaded,
their default (non-AVX2) build, and the numpy fold.  Each case is compared
bitwise with the numpy fold and with the scalar-loop ``reduce_oracle``."""

import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tensorprim import (
    Bcast,
    DType,
    ReduceAxis,
    ReduceOp,
    ReduceSpec,
    TensorDesc,
    alloc,
    broadcast,
    from_array,
    native,
    ops,
    reduce,
    to_array,
    view_at,
)
from tensorprim.verify import reduce_oracle

from util import bits_equal

_POS0, _NEG0 = 0x00000000, 0x80000000  # FP32 bit patterns of +0 and -0
_PAD = np.array([0x7FC0_BEEF], np.uint32).view(np.float32)[0]  # NaN padding, never read
_NAN = {np.dtype(np.float32): np.array([0x7FC0_0123], np.uint32).view(np.float32)[0],
        np.dtype(np.float64): np.array([0x7FF8_0000_0000_0123], np.uint64).view(np.float64)[0]}


def f32(bits):
    return np.array(bits, dtype=np.uint32).view(np.float32)


def padded(x: np.ndarray, pad: int) -> "ops.TensorView":
    """``x`` in a view whose columns are ``pad`` elements apart beyond its
    rows, the padding a NaN that a read of it would carry into the result."""
    rows, cols = x.shape
    ld = rows + pad
    buf = np.full(ld * cols, _PAD, dtype=x.dtype)
    buf.reshape(cols, ld)[:, :rows] = x.T
    dtype = DType.FP64 if x.dtype == np.float64 else DType.FP32
    return view_at(buf, 0, TensorDesc(rows, cols, ld, dtype))


def oracle(view, rs: ReduceSpec) -> np.ndarray:
    """``reduce_oracle`` of the view's logical values, widened to the
    accumulator type and, for ``squared``, squared in it first."""
    acc = np.float64 if view.desc.dtype is DType.FP64 else np.float32
    x = to_array(view).astype(acc)
    with np.errstate(all="ignore"):
        return reduce_oracle(x * x if rs.squared else x, rs.axis, rs.op)


def check(view, rs: ReduceSpec, monkeypatch) -> np.ndarray:
    """Reduce ``view``; assert the bits equal the numpy fold's and the
    oracle's (NaNs: the numpy fold's bits, the oracle's positions)."""
    rows, cols = {ReduceAxis.ROWS: (view.desc.rows, 1), ReduceAxis.COLS: (1, view.desc.cols),
                  ReduceAxis.ALL: (1, 1)}[rs.axis]
    out_dt = DType.FP64 if view.desc.dtype is DType.FP64 else DType.FP32

    def run():
        out = alloc(TensorDesc(rows, cols, rows, out_dt))
        reduce(view, rs, out)
        return to_array(out)

    got = run()
    with monkeypatch.context() as mp:
        mp.setattr(native, "_USE_NATIVE", False)
        assert bits_equal(got, run()), rs
    want = oracle(view, rs)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan), rs
    assert bits_equal(got[~nan], want[~nan]), rs
    return got


SPECS = [ReduceSpec(axis, op, sq) for axis in ReduceAxis for op in ReduceOp
         for sq in (False, True)]
SPEC_IDS = [f"{s.axis.value}-{s.op.value}{'-sq' if s.squared else ''}" for s in SPECS]


@pytest.mark.parametrize("rs", SPECS, ids=SPEC_IDS)
@pytest.mark.parametrize("shape", [(1, 1), (1, 13), (13, 1), (9, 11), (37, 70)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_op_and_axis_at_each_extent(rs, shape, dtype, native_backend, monkeypatch):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    if rs.op is ReduceOp.MUL:  # stay clear of overflow and underflow
        x = rng.uniform(0.95, 1.05, shape).astype(dtype)
    else:
        x = rng.standard_normal(shape).astype(dtype)
    check(from_array(x), rs, monkeypatch)
    check(padded(x, 3), rs, monkeypatch)


@pytest.mark.parametrize("rs", SPECS, ids=SPEC_IDS)
def test_row_and_col_broadcast_inputs(rs, native_backend, monkeypatch):
    rng = np.random.default_rng(5)
    row = from_array(rng.uniform(0.9, 1.1, (1, 10)).astype(np.float32))
    col = from_array(rng.uniform(0.9, 1.1, (7, 1)).astype(np.float32))
    check(broadcast(row, Bcast.ROW, 7, 10), rs, monkeypatch)
    check(broadcast(col, Bcast.COL, 7, 10), rs, monkeypatch)
    check(broadcast(from_array(np.float32([[1.5]])), Bcast.SCALAR, 3, 4), rs, monkeypatch)


@pytest.mark.parametrize("squared", [False, True])
@pytest.mark.parametrize("dtype", [DType.BF16, DType.INT8, DType.FP64])
def test_bf16_int8_and_fp64_inputs(dtype, squared, native_backend, monkeypatch):
    rng = np.random.default_rng(6)
    if dtype is DType.INT8:
        x = from_array(rng.integers(-128, 128, (9, 12), dtype=np.int8))
    else:
        x = from_array(rng.standard_normal((9, 12)), dtype)
    for axis in ReduceAxis:
        for op in (ReduceOp.SUM, ReduceOp.MIN, ReduceOp.MAX):
            check(x, ReduceSpec(axis, op, squared), monkeypatch)


@pytest.mark.parametrize("axis", list(ReduceAxis))
def test_an_all_negative_zero_sum_is_positive_zero(axis, native_backend, monkeypatch):
    got = check(from_array(f32([[_NEG0] * 9] * 10)), ReduceSpec(axis, ReduceOp.SUM),
                monkeypatch)
    assert set(got.view(np.uint32).ravel().tolist()) == {_POS0}


def test_min_max_zero_ties_keep_the_second_operand(native_backend, monkeypatch):
    """Rows [+0, -0] and [-0, +0]: each fold keeps the later zero, which
    the sign bits pin (the ROWS MAX of [+0, -0] is -0)."""
    x = from_array(f32([[_POS0, _NEG0], [_NEG0, _POS0]]))
    for axis, want in ((ReduceAxis.ROWS, [[_NEG0], [_POS0]]),
                       (ReduceAxis.COLS, [[_NEG0, _POS0]]),
                       (ReduceAxis.ALL, [[_POS0]])):
        for op in (ReduceOp.MAX, ReduceOp.MIN):
            got = check(x, ReduceSpec(axis, op), monkeypatch)
            assert np.ascontiguousarray(got).view(np.uint32).tolist() == want, (axis, op)
    # and across more columns than one interleaved block holds
    wide = from_array(f32([[_POS0, _NEG0] * 9]))
    for op in (ReduceOp.MAX, ReduceOp.MIN):
        got = check(wide, ReduceSpec(ReduceAxis.ALL, op), monkeypatch)
        assert got.view(np.uint32).tolist() == [[_NEG0]]


@pytest.mark.parametrize("rs", SPECS, ids=SPEC_IDS)
def test_infinities_and_subnormals(rs, native_backend, monkeypatch):
    x = np.float32([[np.inf, 1e-40, -1e-42, 2.0, -0.0, 1e-45],
                    [3.0, -np.inf, 1e-38, -1e-40, 0.5, -2.0],
                    [1e-40, 1e-40, -1e-41, 1e-44, -1e-45, 1e-39],
                    [-1.0, 4.0, np.inf, 1e-40, -3.0, 0.0]])
    check(from_array(x), rs, monkeypatch)
    check(from_array(x[2:3]), rs, monkeypatch)   # a row of subnormals only
    check(from_array(x[:2].astype(np.float64) * 1e-270), rs, monkeypatch)


@pytest.mark.parametrize("rs", SPECS, ids=SPEC_IDS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_nan_result_is_the_numpy_folds(rs, dtype, native_backend, monkeypatch):
    """A NaN with a payload reaches every output: the result is recomputed
    on the numpy fold, so it keeps that fold's bits, payload included."""
    x = np.random.default_rng(7).uniform(0.9, 1.1, (10, 9)).astype(dtype)
    x[:, 4] = _NAN[np.dtype(dtype)]
    x[3, :] = -_NAN[np.dtype(dtype)]
    folds = []
    numpy_fold = ops._reduce_numpy

    def counted(*args):
        folds.append(args)
        return numpy_fold(*args)

    monkeypatch.setattr(ops, "_reduce_numpy", counted)
    got = check(from_array(x), rs, monkeypatch)
    assert np.isnan(got).all()
    if native_backend != "numpy":
        assert len(folds) == 2   # the native call's fallback, and the forced numpy run


@pytest.mark.skipif(shutil.which(native.CC) is None, reason="no C compiler on PATH")
def test_a_result_without_nan_runs_only_the_c_kernel(monkeypatch):
    monkeypatch.setattr(ops, "_reduce_numpy", None)   # any call would raise
    out = alloc(TensorDesc(1, 1, 1, DType.FP32))
    reduce(from_array(np.ones((5, 6), np.float32)), ReduceSpec(ReduceAxis.ALL, ReduceOp.SUM),
           out)
    assert to_array(out)[0, 0] == 30.0


_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.25, -7.0, 1e-40, -1e-42,
                           np.inf, -np.inf, 1e30, -1e30, 1.5e-38, 0.999, 1.001])


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(data=st.data(), rows=st.integers(1, 20), cols=st.integers(1, 20),
       fp64=st.booleans(), pad=st.integers(0, 2),
       rs=st.sampled_from(SPECS))
def test_random_inputs_match_the_numpy_fold_and_the_oracle(data, rows, cols, fp64, pad, rs):
    """Derandomised: the same examples on every run.  Runs on the backend
    this machine has; the numpy fold is checked inside ``check``."""
    values = data.draw(st.lists(_VALUES, min_size=rows * cols, max_size=rows * cols))
    x = np.array(values, np.float64 if fp64 else np.float32).reshape(rows, cols)
    with pytest.MonkeyPatch.context() as mp:
        check(padded(x, pad), rs, mp)
