from fractions import Fraction
import math

import numpy as np

from tensorprim.dtypes import (
    DType,
    bf16_to_fp32,
    fp32_to_bf16_rne,
    narrow,
    pack_fp32_bits,
    split_fp32_bits,
    widen,
)

from util import bits_equal


def test_dtype_bits_match_variants():
    assert {d: d.bits for d in DType} == {
        DType.FP64: 64, DType.FP32: 32, DType.BF16: 16,
        DType.INT32: 32, DType.INT16: 16, DType.INT8: 8, DType.BIT: 1,
    }


def test_bf16_widening_aliases_fp32():
    # appending 16 zero bits must give an FP32 whose upper half is the pattern
    pats = np.arange(1 << 16, dtype=np.uint16)
    wide = bf16_to_fp32(pats)
    assert np.array_equal(wide.view(np.uint32) >> 16, pats.astype(np.uint32))
    assert np.array_equal(wide.view(np.uint32) & 0xFFFF, np.zeros(1 << 16, np.uint32))


def test_bf16_roundtrip_exhaustive():
    # includes NaN payload cases: truncation must reproduce every pattern
    pats = np.arange(1 << 16, dtype=np.uint16)
    assert np.array_equal(fp32_to_bf16_rne(bf16_to_fp32(pats)), pats)


def test_rne_rounds_down_just_above_one():
    got = fp32_to_bf16_rne(np.uint32(0x3F800001).view(np.float32))
    assert int(got) == 0x3F80


def test_rne_known_values():
    assert int(fp32_to_bf16_rne(np.float32(1.0))) == 0x3F80
    assert float(bf16_to_fp32(np.uint16(0x3F80))) == 1.0


def test_rne_ties_to_even_on_midpoints():
    # exact midpoints between adjacent BF16 values: even mantissa LSB wins
    base = np.arange(1 << 16, dtype=np.uint32)
    finite = base[((base >> 7) & 0xFF) != 0xFF]
    mid = (finite << np.uint32(16)) | np.uint32(0x8000)
    got = fp32_to_bf16_rne(mid.view(np.float32)).astype(np.uint32)
    want = np.where((finite & 1) == 0, finite, finite + 1)
    assert np.array_equal(got, want)


def test_rne_result_is_nearest_neighbor():
    rng = np.random.default_rng(0)
    pats = rng.integers(0, 1 << 32, size=100_000, dtype=np.uint32).view(np.float32)
    vals = pats[np.isfinite(pats) & (np.abs(pats) < 3.38e38)]
    v64 = vals.astype(np.float64)
    got = bf16_to_fp32(fp32_to_bf16_rne(vals)).astype(np.float64)
    lo = bf16_to_fp32((vals.view(np.uint32) >> 16).astype(np.uint16)).astype(np.float64)
    hi = bf16_to_fp32(((vals.view(np.uint32) >> 16) + 1).astype(np.uint16)).astype(np.float64)
    best = np.minimum(np.abs(lo - v64), np.abs(hi - v64))
    assert np.all(np.abs(got - v64) <= best)


def test_rne_nan_stays_nan():
    nans = np.array([0x7FC00001, 0x7F800001, 0xFFC00000, 0x7F80FFFF], dtype=np.uint32)
    out = fp32_to_bf16_rne(nans.view(np.float32))
    assert np.all(np.isnan(bf16_to_fp32(out)))


def test_split_known_patterns():
    hi, lo = split_fp32_bits(np.float32(1.0))
    assert (int(hi), int(lo)) == (0x3F80, 0x0000)
    pi = np.uint32(0x40490FDB).view(np.float32)
    hi, lo = split_fp32_bits(pi)
    assert (int(hi), int(lo)) == (0x4049, 0x0FDB)


def test_pack_known_patterns():
    assert float(pack_fp32_bits(np.uint16(0x3F80), np.uint16(0))) == 1.0
    z = pack_fp32_bits(np.uint16(0), np.uint16(0))
    assert float(z) == 0.0 and int(np.asarray(z).view(np.uint32)) == 0  # +0.0


def test_split_pack_random_corpus():
    rng = np.random.default_rng(1)
    pats = rng.integers(0, 1 << 32, size=1_000_000, dtype=np.uint32).view(np.float32)
    hi, lo = split_fp32_bits(pats)
    assert bits_equal(pack_fp32_bits(hi, lo), pats)


def _nearest_bf16(x: float) -> int:
    """The BF16 pattern nearest ``x`` (ties to even), by exact rational
    arithmetic; magnitudes from the midpoint above the largest finite BF16
    up round to infinity."""
    sign = 0x8000 if math.copysign(1.0, x) < 0 else 0
    if math.isinf(x):
        return sign | 0x7F80
    if x == 0.0:
        return sign
    ulp = Fraction(2) ** (max(math.frexp(abs(x))[1] - 1, -126) - 7)
    value = round(Fraction(abs(x)) / ulp) * ulp  # round() on a Fraction ties to even
    if value >= Fraction(2) ** 128:
        return sign | 0x7F80
    return sign | int(np.float32(float(value)).view(np.uint32)) >> 16


def test_fp64_to_bf16_rounds_once():
    """1 + 2^-8 + 2^-30 lies just above the tie between 1.0 and 1.0078125:
    rounding to FP32 first would make it an exact tie and round it to 1.0."""
    assert int(narrow(np.array([1 + 2 ** -8 + 2 ** -30]), DType.BF16)[0]) == 0x3F81
    assert int(narrow(np.array([1 + 2 ** -8]), DType.BF16)[0]) == 0x3F80  # a true tie


def test_fp64_to_bf16_matches_exact_nearest_even():
    rng = np.random.default_rng(23)
    pats = rng.integers(0, 0x7F7F, size=600, dtype=np.uint16)
    lo = bf16_to_fp32(pats).astype(np.float64)
    mids = (lo + bf16_to_fp32(pats + 1).astype(np.float64)) / 2
    xs = np.concatenate([
        mids, np.nextafter(mids, 0), np.nextafter(mids, np.inf), -mids,
        rng.standard_normal(600) * np.exp2(rng.integers(-140, 130, size=600)),
        [0.0, -0.0, 5e-324, -5e-324, 1e-45, 2.0 ** -134, np.nextafter(2.0 ** -134, 1),
         np.nextafter(2.0 ** -134, 0), 1e-40, 3.3895313892515355e38, 3.39e38, 3.4e38, 1e39,
         -1e300, np.inf, -np.inf]])
    got = narrow(xs, DType.BF16)
    want = np.array([_nearest_bf16(float(x)) for x in xs], dtype=np.uint16)
    assert xs.size > 3000
    assert bits_equal(got, want)


def test_bf16_narrowing_keeps_nan_and_fp32_bits():
    nan = narrow(np.array([np.nan, -np.nan]), DType.BF16)
    assert np.all(np.isnan(bf16_to_fp32(nan)))
    assert bits_equal(nan >> 15, np.array([0, 1], dtype=np.uint16))
    x = np.random.default_rng(24).standard_normal(1000).astype(np.float32)
    assert bits_equal(narrow(x, DType.BF16), fp32_to_bf16_rne(x))


def test_int16_widens_sign_extended():
    """INT16 is stored as uint16 bits; its values are int16."""
    stored = np.array([[0xFFFF, 0x8000, 0x7FFF, 0x0001]], dtype=np.uint16)
    got = widen(stored, DType.INT16)
    assert got.dtype == np.int32 and got.tolist() == [[-1, -32768, 32767, 1]]
    cols = np.lib.stride_tricks.as_strided(stored, (2, 2), (2, 4))   # a strided window
    assert widen(cols, DType.INT16).tolist() == [[-1, 0x7FFF], [-32768, 1]]


def test_int16_narrowing_saturates_floats_to_the_int16_range():
    values = np.array([-1e9, -32768.5, -1.7, -0.5, np.nan, 2.9, 32767.9, 1e9, np.inf, -np.inf])
    got = narrow(values, DType.INT16)
    assert got.dtype == np.uint16
    assert got.view(np.int16).tolist() == [-32768, -32768, -1, 0, 0, 2, 32767, 32767, 32767,
                                           -32768]
    assert narrow(values.astype(np.float32), DType.INT16).tolist() == got.tolist()
    # integers wrap, as every integer store does
    ints = np.array([-1, 65535, 70000, -32769], dtype=np.int32)
    assert narrow(ints, DType.INT16).view(np.int16).tolist() == [-1, -1, 4464, 32767]
    assert widen(narrow(ints, DType.INT16), DType.INT16).tolist() == [-1, -1, 4464, 32767]


def test_fp64_beyond_fp32_range_narrows_to_inf_silently():
    """An FP64 value beyond FP32's range stores as +-inf, a scalar and an
    array alike, with no overflow warning (warnings are errors here)."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = narrow(np.array([1e300, -1e300, 3.5e38, -np.inf, 2.0]), DType.FP32)
        scalar = narrow(np.asarray(-1e300), DType.FP32)
    assert got.dtype == np.float32
    assert got.tolist() == [np.inf, -np.inf, np.inf, -np.inf, 2.0]
    assert scalar.dtype == np.float32 and scalar == -np.inf
