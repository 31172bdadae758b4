"""Element datatypes and bit-level precision codecs.

All tensors in this library store their elements in one of the `DType`
variants below.  BF16 values are kept as raw uint16 bit patterns; widening a
BF16 pattern by appending 16 zero low bits yields the exact FP32 value it
denotes, and that identity is what every mixed-precision code path in the
library relies on.
"""

from __future__ import annotations

import enum

import numpy as np


class IdentityEnum(enum.Enum):
    """The base of the library's enums.  A member is a singleton (a pickle
    round trip returns the same object), so it hashes by identity: dict and
    cache lookups keyed by members, or by descriptors and specs holding them,
    run in C instead of calling ``Enum.__hash__``."""

    __hash__ = object.__hash__


class DType(IdentityEnum):
    FP64 = "fp64"
    FP32 = "fp32"
    BF16 = "bf16"
    INT32 = "int32"
    INT16 = "int16"
    INT8 = "int8"
    BIT = "bit"

    @property
    def bits(self) -> int:
        return _BITS[self]

    @property
    def storage(self) -> np.dtype:
        """Numpy dtype used for the backing buffer.

        BF16 and INT16 are carried as raw 16-bit patterns (uint16); BIT
        tensors are packed into uint8 bytes, one column at a time.
        """
        return _STORAGE[self]

    @property
    def is_float(self) -> bool:
        return self in (DType.FP64, DType.FP32, DType.BF16)


_BITS = {
    DType.FP64: 64,
    DType.FP32: 32,
    DType.BF16: 16,
    DType.INT32: 32,
    DType.INT16: 16,
    DType.INT8: 8,
    DType.BIT: 1,
}

_STORAGE = {
    DType.FP64: np.dtype(np.float64),
    DType.FP32: np.dtype(np.float32),
    DType.BF16: np.dtype(np.uint16),
    DType.INT32: np.dtype(np.int32),
    DType.INT16: np.dtype(np.uint16),
    DType.INT8: np.dtype(np.int8),
    DType.BIT: np.dtype(np.uint8),
}

# dtype used for arithmetic when the storage dtype is narrower than the
# compute precision (BF16 computes in FP32, INT8 accumulates in INT32)
COMPUTE_DTYPE = {
    DType.FP64: np.dtype(np.float64),
    DType.FP32: np.dtype(np.float32),
    DType.BF16: np.dtype(np.float32),
    DType.INT32: np.dtype(np.int32),
    DType.INT16: np.dtype(np.int32),
    DType.INT8: np.dtype(np.int32),
}


def bf16_to_fp32(bits: np.ndarray) -> np.ndarray:
    """Widen BF16 bit patterns to FP32 exactly (append 16 zero low bits)."""
    bits = np.asarray(bits, dtype=np.uint16)
    return (bits.astype(np.uint32) << 16).view(np.float32)


def fp32_to_bf16_rne(values: np.ndarray) -> np.ndarray:
    """Narrow FP32 to BF16 bit patterns, rounding the dropped 16 bits to
    nearest, ties to even.

    NaN payloads are truncated (never rounded, so a NaN can not turn into an
    infinity); if truncation would clear the whole mantissa the quiet bit is
    forced so the result stays a NaN.
    """
    v = np.asarray(values, dtype=np.float32)
    u = v.view(np.uint32)
    lsb = (u >> np.uint32(16)) & np.uint32(1)
    rounded = ((u + np.uint32(0x7FFF) + lsb) >> np.uint32(16)).astype(np.uint16)
    trunc = (u >> np.uint32(16)).astype(np.uint16)
    # keep NaNs NaN: truncate, and set the quiet bit if the payload vanished
    nan_fix = np.where((trunc & np.uint16(0x7F)) == 0, trunc | np.uint16(0x40), trunc)
    return np.where(np.isnan(v), nan_fix, rounded)


def widen(stored: np.ndarray, dtype: DType) -> np.ndarray:
    """Stored elements of ``dtype`` in its compute dtype (BF16 patterns
    widened exactly, narrow integers sign-extended)."""
    a = bf16_to_fp32(stored) if dtype is DType.BF16 else stored
    cd = COMPUTE_DTYPE[dtype]
    return a if a.dtype == cd else a.astype(cd)


def _to_fp32_round_to_odd(values: np.ndarray) -> np.ndarray:
    """FP64 values in FP32, rounded to odd: truncated toward zero, then the
    last bit set if the result is inexact.  FP32 keeps at least 2 bits more
    than BF16, so rounding this once more, to nearest even, gives the BF16
    nearest the FP64 value (direct rounding twice can land on a false tie).
    Overflow lands on the largest finite FP32; NaNs convert as a cast does."""
    v = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        r = v.astype(np.float32)
        u = r.view(np.uint32) - (np.abs(r) > np.abs(v)).astype(np.uint32)
        inexact = (u.view(np.float32) != v) & ~np.isnan(v)
    return (u | inexact.astype(np.uint32)).view(np.float32)


def narrow(values: np.ndarray, dtype: DType) -> np.ndarray:
    """Compute values in the storage representation of ``dtype``: BF16
    rounds to nearest even (once, from any input precision); a float value
    stored into an integer type rounds toward zero and saturates to the
    storage type's range, and NaN stores 0; every other store casts
    (integers wrap)."""
    v = np.asarray(values)
    if dtype is DType.BF16:
        if v.dtype != np.float32:
            v = _to_fp32_round_to_odd(v)
        return fp32_to_bf16_rne(v)
    st = dtype.storage
    if st.kind != "f" and v.dtype.kind == "f":
        # clipped in FP64: in FP32, INT32's top, 2^31 - 1, rounds up to 2^31
        info = np.iinfo(st)
        v = np.where(np.isnan(v), 0.0, np.clip(v.astype(np.float64), info.min, info.max))
    return v.astype(st, copy=False)


def split_fp32_bits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split FP32 values into (hi, lo) 16-bit halves; pure bit split."""
    u = np.asarray(values, dtype=np.float32).view(np.uint32)
    return (u >> np.uint32(16)).astype(np.uint16), (u & np.uint32(0xFFFF)).astype(np.uint16)


def pack_fp32_bits(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Bitwise inverse of :func:`split_fp32_bits`."""
    hi = np.asarray(hi, dtype=np.uint16).astype(np.uint32)
    lo = np.asarray(lo, dtype=np.uint16).astype(np.uint32)
    return ((hi << 16) | lo).view(np.float32)
