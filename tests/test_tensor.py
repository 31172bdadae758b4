import enum
import importlib
import pickle

import numpy as np
import pytest

from tensorprim import (
    Approx,
    BinaryKind,
    Bcast,
    DType,
    KernelSpec,
    SplitTensor,
    TensorDesc,
    TensorError,
    TensorView,
    alloc,
    apply_unary,
    broadcast,
    from_array,
    pack_fp32,
    split_fp32,
    UnaryKind,
    dispatch,
    to_array,
)
from tensorprim.dtypes import IdentityEnum
from tensorprim.ops import APPROX_SELECTORS, KIND_FLAGS
from tensorprim.tensor import bitmask_bytes, bool_to_mask, mask_to_bool, view_at

from util import bits_equal


def test_desc_validation():
    with pytest.raises(TensorError):
        TensorDesc(0, 3, 1, DType.FP32)
    with pytest.raises(TensorError):
        TensorDesc(4, 3, 2, DType.FP32)  # ld < rows
    d = TensorDesc(4, 3, 6, DType.FP32)
    assert d.min_buffer_len == 6 * 2 + 4


def test_column_major_addressing_with_padding():
    rng = np.random.default_rng(0)
    for _ in range(10):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        ld = m + int(rng.integers(0, 3))
        v = alloc(TensorDesc(m, n, ld, DType.FP64))
        ref = rng.standard_normal((m, n))
        for i in range(m):
            for j in range(n):
                v.as2d()[i, j] = ref[i, j]
        # element (i, j) must land at flat index i + j*ld
        for i in range(m):
            for j in range(n):
                assert v.primary[i + j * ld] == ref[i, j]
        assert bits_equal(to_array(v), ref)


def test_buffer_too_small_rejected():
    with pytest.raises(TensorError):
        TensorView(TensorDesc(4, 4, 4, DType.FP32), np.zeros(15, np.float32))


def test_strided_primary_rejected():
    with pytest.raises(TensorError, match="contiguous"):
        TensorView(TensorDesc(2, 2, 2, DType.FP32), np.zeros(8, np.float32)[::2])


def test_as2d_with_padded_ld_is_a_writable_zero_copy_window():
    v = alloc(TensorDesc(3, 4, 5, DType.FP64))
    v.primary[:] = -1.0
    w = v.as2d()
    assert w.shape == (3, 4) and w.flags.writeable
    assert np.shares_memory(w, v.primary)
    vals = np.arange(12, dtype=np.float64).reshape(3, 4)
    w[:, :] = vals
    for i in range(3):
        for j in range(4):
            assert v.primary[i + 5 * j] == vals[i, j]
    pad = np.ones(v.primary.size, bool)
    pad[[i + 5 * j for i in range(3) for j in range(4)]] = False
    assert np.all(v.primary[pad] == -1.0)


def test_blocks_of_a_padded_view_round_trip():
    rng = np.random.default_rng(3)
    v = alloc(TensorDesc(5, 6, 7, DType.FP32))
    ref = rng.standard_normal((5, 6)).astype(np.float32)
    v.as2d()[:, :] = ref
    sub = v.col_block(2, 3).row_block(1, 3)
    assert bits_equal(to_array(sub), ref[1:4, 2:5])
    assert bits_equal(to_array(v.row_block(1, 3).col_block(2, 3)), ref[1:4, 2:5])
    sub.as2d()[:, :] = 0.0
    ref[1:4, 2:5] = 0.0
    assert bits_equal(to_array(v), ref)


def test_broadcast_views_match_replication():
    rng = np.random.default_rng(1)
    m, n = 4, 6
    row = rng.standard_normal((1, n)).astype(np.float32)
    col = rng.standard_normal((m, 1)).astype(np.float32)
    sca = rng.standard_normal((1, 1)).astype(np.float32)
    assert bits_equal(np.array(broadcast(from_array(row), Bcast.ROW, m, n).logical2d()),
                      np.repeat(row, m, axis=0))
    assert bits_equal(np.array(broadcast(from_array(col), Bcast.COL, m, n).logical2d()),
                      np.repeat(col, n, axis=1))
    assert bits_equal(np.array(broadcast(from_array(sca), Bcast.SCALAR, m, n).logical2d()),
                      np.full((m, n), sca[0, 0], np.float32))


def test_broadcast_shape_guards():
    v = from_array(np.zeros((2, 3), dtype=np.float32))
    with pytest.raises(TensorError):
        broadcast(v, Bcast.ROW, 4, 3)
    with pytest.raises(TensorError):
        broadcast(v, Bcast.SCALAR, 4, 4)


def test_col_and_row_blocks_are_views():
    v = from_array(np.arange(24, dtype=np.float32).reshape(4, 6))
    cb = v.col_block(2, 3)
    rb = v.row_block(1, 2)
    assert bits_equal(to_array(cb), np.arange(24, dtype=np.float32).reshape(4, 6)[:, 2:5])
    assert bits_equal(to_array(rb), np.arange(24, dtype=np.float32).reshape(4, 6)[1:3, :])
    cb.as2d()[0, 0] = -1.0
    assert to_array(v)[0, 2] == -1.0  # shared storage


def test_view_at_offsets():
    buf = np.arange(20, dtype=np.float32)
    v = view_at(buf, 4, TensorDesc(2, 3, 4, DType.FP32))
    assert to_array(v)[0, 0] == 4.0 and to_array(v)[1, 2] == 13.0


def test_split_pack_views():
    x = from_array(np.array([[1.0, 3.141592653589793]], dtype=np.float32))
    s = split_fp32(x)
    assert int(s.hi.as2d()[0, 0]) == 0x3F80 and int(s.lo.as2d()[0, 0]) == 0x0000
    y = pack_fp32(s)
    assert bits_equal(to_array(y), to_array(x))
    # a padded source splits into dense halves, which pack into a padded view
    w = np.array([[1.0, -0.1, np.inf], [np.nan, 3e-40, -0.0]], dtype=np.float32)
    src = alloc(TensorDesc(2, 3, 4, DType.FP32))
    src.as2d()[:, :] = w
    s = split_fp32(src)
    assert s.hi.desc.ld == s.lo.desc.ld == 2
    back = alloc(TensorDesc(2, 3, 3, DType.FP32))
    assert pack_fp32(s, back) is back and bits_equal(to_array(back), w)
    with pytest.raises(TensorError):
        pack_fp32(s, alloc(TensorDesc(2, 3, 2, DType.FP64)))


def test_split_halves_must_share_one_ld():
    hi = alloc(TensorDesc(3, 4, 5, DType.BF16))
    with pytest.raises(TensorError, match="ld"):
        SplitTensor(hi, alloc(TensorDesc(3, 4, 3, DType.INT16)))
    assert SplitTensor(hi, alloc(TensorDesc(3, 4, 5, DType.INT16))).rows == 3


def test_alloc_fill_stores_through_narrow():
    b = alloc(TensorDesc(2, 2, 2, DType.BF16), fill=1.5)
    assert np.all(b.primary == 0x3FC0) and np.all(to_array(b) == 1.5)
    r = alloc(TensorDesc(1, 1, 1, DType.BF16), fill=1.00390625)  # a tie: rounds to even
    assert int(r.primary[0]) == 0x3F80
    assert np.all(alloc(TensorDesc(2, 2, 2, DType.INT8), fill=300).primary == 44)
    assert np.all(alloc(TensorDesc(2, 2, 2, DType.INT8), fill=-129).primary == 127)
    assert np.all(alloc(TensorDesc(1, 2, 1, DType.INT32), fill=-7).primary == -7)
    # the kernels' FP32 and FP64 constants keep their bits
    for dt, np_dt in ((DType.FP32, np.float32), (DType.FP64, np.float64)):
        for c in (0.02, 1e-5, -1.0, 0.1):
            v = alloc(TensorDesc(2, 3, 4, dt), fill=c)
            assert bits_equal(to_array(v), np.full((2, 3), c, dtype=np_dt))
            assert np.all(v.primary[2:4] == 0)  # the ld padding stays zero


def test_to_array_reads_int16_values_as_widening_does():
    """INT16 storage holds uint16 bits; ``to_array`` returns the int16
    values, the ones IDENTITY into INT32 stores."""
    v = view_at(np.array([0xFFFF, 5, 0x8000, 0x7FFF], np.uint16), 0,
                TensorDesc(1, 4, 1, DType.INT16))
    got = to_array(v)
    assert got.dtype == np.int16 and got.tolist() == [[-1, 5, -32768, 32767]]
    wide = alloc(TensorDesc(1, 4, 1, DType.INT32))
    apply_unary(UnaryKind.IDENTITY, v, wide)
    assert to_array(wide).tolist() == got.tolist()


def test_bitmask_layout_column_padded():
    b = np.zeros((10, 3), dtype=bool)
    b[0, 0] = b[9, 1] = b[3, 2] = True
    m = bool_to_mask(b)
    # one bit per element, rows LSB-first, 2 bytes per column for 10 rows
    assert m.size == 2 * 3
    assert m[0] == 0x01            # row 0 of column 0
    assert m[3] == 0x02            # row 9 -> bit 1 of byte 1 in column 1
    assert m[4] == 0x08            # row 3 of column 2
    assert np.array_equal(mask_to_bool(m, 10, 3), b)


# ---------------------------------------------------------------------------
# descriptor facts computed once; enums that hash by identity
# ---------------------------------------------------------------------------

def _facts_by_formula(d: TensorDesc) -> tuple[int, int, int, int]:
    """phys_rows, phys_cols, min_buffer_len and nbytes by the formulas of the
    properties they replaced."""
    pr = 1 if d.bcast in (Bcast.ROW, Bcast.SCALAR) else d.rows
    pc = 1 if d.bcast in (Bcast.COL, Bcast.SCALAR) else d.cols
    if d.dtype is DType.BIT:
        return pr, pc, bitmask_bytes(pr, pc), bitmask_bytes(d.rows, d.cols)
    return pr, pc, d.ld * (pc - 1) + pr, d.rows * d.cols * d.dtype.storage.itemsize


@pytest.mark.parametrize("dtype", list(DType))
@pytest.mark.parametrize("bcast", list(Bcast))
@pytest.mark.parametrize("ld", [5, 13])
def test_desc_facts_match_their_formulas(dtype, bcast, ld):
    d = TensorDesc(5, 3, ld, dtype, bcast)
    assert (d.phys_rows, d.phys_cols, d.min_buffer_len, d.nbytes) == _facts_by_formula(d)
    twin = TensorDesc(5, 3, ld, dtype, bcast)
    assert twin is not d and twin == d and hash(twin) == hash(d)
    assert d != TensorDesc(5, 3, ld + 1, dtype, bcast)
    assert repr(d) == (f"TensorDesc(rows=5, cols=3, ld={ld}, dtype={dtype!r}, "
                       f"bcast={bcast!r})")
    back = pickle.loads(pickle.dumps(d))
    assert back == d and back.min_buffer_len == d.min_buffer_len


def _library_enums() -> set[type]:
    mods = [importlib.import_module(f"tensorprim.{name}") for name in (
        "approx", "bench", "cli", "contraction", "dtypes", "equation", "kernels", "native",
        "ops", "tensor", "verify")]
    return {v for m in mods for v in vars(m).values()
            if isinstance(v, type) and issubclass(v, enum.Enum) and v.__members__}


def test_every_library_enum_hashes_by_identity_and_survives_pickle():
    enums = _library_enums()
    assert DType in enums and UnaryKind in enums and Approx in enums
    for cls in enums:
        assert issubclass(cls, IdentityEnum)
        for member in cls:
            back = pickle.loads(pickle.dumps(member))
            assert back is member and hash(back) == object.__hash__(member)


def test_pickled_members_still_key_the_library_tables():
    def rt(v):
        return pickle.loads(pickle.dumps(v))

    assert APPROX_SELECTORS[rt(UnaryKind.TANH)] == APPROX_SELECTORS[UnaryKind.TANH]
    assert KIND_FLAGS[rt(BinaryKind.COMPARE)] == ("cmp",)
    d = TensorDesc(4, 4, 4, DType.FP32)
    kern = dispatch(KernelSpec(UnaryKind.TANH, (d,), approx=Approx.MINIMAX16))
    assert dispatch(KernelSpec(rt(UnaryKind.TANH), (rt(d),), approx=rt(Approx.MINIMAX16))) is kern
