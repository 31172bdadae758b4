"""Reductions at their edges, on every backend: the C kernels as loaded,
their default and AVX2-only builds, and the numpy fold.  Each case is compared
bitwise with the numpy fold and with the scalar-loop ``reduce_oracle``."""

import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tensorprim import (
    Bcast,
    DType,
    GatherMode,
    InvalidSpecError,
    ReduceAxis,
    ReduceOp,
    ReduceSpec,
    TensorDesc,
    alloc,
    broadcast,
    from_array,
    gather_scatter,
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
        mp.setattr(native, "_lib", False)
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


@pytest.mark.parametrize("axis", list(ReduceAxis), ids=[a.value for a in ReduceAxis])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_nan_in_the_last_result_alone_takes_the_numpy_fold(axis, dtype, native_backend,
                                                              monkeypatch):
    """One NaN input, in the last row and column: it reaches the last
    result only, which the C kernel reports by its status; the call keeps
    the numpy fold's bits, payload included."""
    x = np.random.default_rng(8).uniform(0.9, 1.1, (7, 6)).astype(dtype)
    x[-1, -1] = _NAN[np.dtype(dtype)]
    folds = []
    numpy_fold = ops._reduce_numpy

    def counted(*args):
        folds.append(args)
        return numpy_fold(*args)

    monkeypatch.setattr(ops, "_reduce_numpy", counted)
    got = check(padded(x, 1), ReduceSpec(axis, ReduceOp.SUM), monkeypatch).ravel()
    assert list(np.flatnonzero(np.isnan(got))) == [got.size - 1]
    assert bits_equal(got[-1:], np.array([_NAN[np.dtype(dtype)]]))
    assert len(folds) == 2   # the fallback (or numpy backend) run, and the forced numpy run


@pytest.mark.skipif(shutil.which(native.CC) is None, reason="no C compiler on PATH")
@pytest.mark.parametrize("name, dtype", [("reduce_f32", np.float32), ("reduce_f64", np.float64)])
def test_the_c_fold_reports_a_nan_result_by_its_status(name, dtype):
    """ROWS SUM over every column (cols NULL) and over the listed columns."""
    fn = native.kernel(name)
    x = np.ones((4, 3), dtype, order="F")
    out = np.zeros(4, dtype)
    listed = np.array([2, 0, 2], np.int64)

    def call(cols=None):
        n, address = (3, None) if cols is None else (cols.size, cols.ctypes.data)
        return fn(4, n, x.ctypes.data, 4, out.ctypes.data, 4, 0, 0, 0, address)

    assert call() == 0 and np.all(out == 3)
    assert call(listed[:2]) == 0 and np.all(out == 2)
    x[3, 2] = np.nan
    assert call() == 2 and np.isnan(out[3]) and np.all(out[:3] == 3)
    assert call(listed) == 2 and np.isnan(out[3]) and np.all(out[:3] == 3)
    assert call(listed[1:2]) == 0 and np.all(out == 1)   # column 0 holds no NaN


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


@pytest.mark.parametrize("squared", [False, True])
@pytest.mark.parametrize("op", list(ReduceOp), ids=[o.value for o in ReduceOp])
@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (7, 11), (33, 20)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_all_is_a_cols_fold_of_the_column_partials(dtype, shape, op, squared, native_backend):
    """An ALL reduce gives the bits of a COLS reduce (``squared`` applies to
    it alone) followed by a COLS reduce of its 1 x n partials reinterpreted
    as n x 1: ``softmax`` folds all its slices at once on this fact.  Dense
    and padded inputs, finite values and ones with NaNs of two payloads,
    infinities, -0 and subnormals."""
    rows, cols = shape
    rng = np.random.default_rng(rows * 100 + cols)
    if op is ReduceOp.MUL:  # stay clear of overflow and underflow
        x = rng.uniform(0.95, 1.05, shape).astype(dtype)
    else:
        x = rng.standard_normal(shape).astype(dtype)
    tiny = np.finfo(dtype).smallest_subnormal
    specials = np.array([_NAN[np.dtype(dtype)], -_NAN[np.dtype(dtype)], np.inf, -np.inf,
                         -0.0, 3 * tiny, -tiny], dtype)
    odd = x.copy()
    hit = rng.random(shape) < 0.25
    odd[hit] = rng.choice(specials, int(hit.sum()))
    acc = DType.FP64 if dtype is np.float64 else DType.FP32
    for values in (x, odd):
        for pad in (0, 3):
            view = padded(values, pad)
            whole, staged = (alloc(TensorDesc(1, 1, 1, acc)) for _ in range(2))
            part = alloc(TensorDesc(1, cols, 1, acc))
            reduce(view, ReduceSpec(ReduceAxis.ALL, op, squared), whole)
            reduce(view, ReduceSpec(ReduceAxis.COLS, op, squared), part)
            reduce(view_at(part.primary, 0, TensorDesc(cols, 1, cols, acc)),
                   ReduceSpec(ReduceAxis.COLS, op), staged)
            assert bits_equal(whole.primary, staged.primary), (pad, values is odd)


# ---------------------------------------------------------------------------
# indexed ROWS reduce
# ---------------------------------------------------------------------------

ROWS_SPECS = [ReduceSpec(ReduceAxis.ROWS, op, sq) for op in ReduceOp for sq in (False, True)]
ROWS_IDS = [f"{s.op.value}{'-sq' if s.squared else ''}" for s in ROWS_SPECS]
# repeated, out of order, one index, every column reversed
INDEX_LISTS = {"repeated": [3, 3, 0, 3, 5], "unordered": [6, 1, 4, 0], "one": [2],
               "reversed": [6, 5, 4, 3, 2, 1, 0]}


def gathered_then_reduced(view, rs: ReduceSpec, idx) -> np.ndarray:
    """The definition: GATHER_COLS of ``idx`` into a dense block, then a
    ROWS reduce of it."""
    d = view.desc
    bag = alloc(TensorDesc(d.rows, len(idx), d.rows, d.dtype))
    gather_scatter(view, idx, GatherMode.GATHER_COLS, bag)
    out = alloc(TensorDesc(d.rows, 1, d.rows, DType.FP64 if d.dtype is DType.FP64 else DType.FP32))
    reduce(bag, rs, out)
    return out.primary


@pytest.mark.parametrize("rs", ROWS_SPECS, ids=ROWS_IDS)
@pytest.mark.parametrize("idx", list(INDEX_LISTS.values()), ids=list(INDEX_LISTS))
@pytest.mark.parametrize("dtype", [DType.FP32, DType.BF16, DType.FP64], ids=lambda d: d.name)
@pytest.mark.parametrize("nans", [False, True], ids=["finite", "nans"])
def test_an_indexed_reduce_is_gather_then_reduce(rs, idx, dtype, nans, native_backend,
                                                 monkeypatch):
    """Every op and ``squared``, FP32, BF16 (into FP32) and FP64 tables,
    dense and at a padded ld: the bits of a gather followed by a reduce, on
    the backend under test and on the numpy path.  NaN entries of two
    payloads take the numpy fold once, through the C kernel's status."""
    rng = np.random.default_rng(len(idx) * 10 + int(rs.squared))
    values = rng.uniform(0.9, 1.1, (9, 7)) if rs.op is ReduceOp.MUL else \
        rng.standard_normal((9, 7))
    acc = np.float64 if dtype is DType.FP64 else np.float32
    if nans:
        values = values.astype(acc)
        values[2, idx[-1]] = _NAN[np.dtype(acc)]
        values[5, idx[0]] = -_NAN[np.dtype(acc)]
    folds = []
    numpy_fold = ops._reduce_numpy

    def counted(*args):
        folds.append(args)
        return numpy_fold(*args)

    for pad in (0, 3):
        table = from_array(values.astype(acc), dtype) if pad == 0 else \
            view_at(from_array(np.vstack([values, np.full((pad, 7), np.nan)]).astype(acc),
                               dtype).primary, 0, TensorDesc(9, 7, 9 + pad, dtype))
        want = gathered_then_reduced(table, rs, idx)
        out = alloc(TensorDesc(9, 1, 9, DType.FP64 if dtype is DType.FP64 else DType.FP32))
        monkeypatch.setattr(ops, "_reduce_numpy", counted)
        folds.clear()
        reduce(table, rs, out, idx)
        monkeypatch.setattr(ops, "_reduce_numpy", numpy_fold)
        assert bits_equal(out.primary, want), pad
        assert len(folds) == (1 if nans or native_backend == "numpy" else 0)
        assert np.isnan(out.primary).any() == nans
        with monkeypatch.context() as mp:
            mp.setattr(native, "_lib", False)
            ref = alloc(out.desc)
            reduce(table, rs, ref, np.array(idx))
        assert bits_equal(out.primary, ref.primary), pad


def test_an_indexed_reduce_of_a_col_broadcast_reads_its_one_column(native_backend,
                                                                   monkeypatch):
    col = from_array(np.random.default_rng(3).standard_normal((6, 1)).astype(np.float32))
    table = broadcast(col, Bcast.COL, 6, 5)
    out = alloc(TensorDesc(6, 1, 6, DType.FP32))
    reduce(table, ReduceSpec(ReduceAxis.ROWS, ReduceOp.SUM), out, [4, 0, 4])
    assert bits_equal(out.primary, gathered_then_reduced(table, ROWS_SPECS[0], [4, 0, 4]))


@pytest.mark.parametrize("idx, error", [
    ([0, 7], IndexError), ([-1], IndexError), (np.array([3, -8]), IndexError),
    (np.array([2**63], np.uint64), IndexError), ([1.0], IndexError), ([True], IndexError),
    ([], InvalidSpecError), ([[0, 1]], InvalidSpecError)])
def test_bad_indices_raise_before_any_write(idx, error, native_backend):
    table = from_array(np.ones((4, 7), np.float32))
    out = alloc(TensorDesc(4, 1, 4, DType.FP32), fill=9.0)
    with pytest.raises(error):
        reduce(table, ReduceSpec(ReduceAxis.ROWS, ReduceOp.SUM), out, idx)
    assert np.all(out.primary == 9.0)


@pytest.mark.parametrize("axis", [ReduceAxis.COLS, ReduceAxis.ALL])
def test_indices_on_another_axis_raise(axis, native_backend):
    table = from_array(np.ones((4, 7), np.float32))
    out = alloc(TensorDesc(1, 7 if axis is ReduceAxis.COLS else 1, 1, DType.FP32), fill=9.0)
    with pytest.raises(InvalidSpecError):
        reduce(table, ReduceSpec(axis, ReduceOp.SUM), out, [0, 1])
    assert np.all(out.primary == 9.0)
