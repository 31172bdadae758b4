"""2D tensor descriptors, views, broadcast semantics, bitmask companions and
the VNNI layout.

Storage is column-major: element (i, j) of an M x N tensor lives at linear
index ``i + j * ld`` of the flat backing buffer, with ``ld >= M``.  Broadcast
views keep a reduced physical extent (one row / one column / one element) but
present the full logical M x N shape.

Bitmask companions carry one bit per logical element, rows packed LSB-first
within a column and every column padded up to a byte boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dtypes import DType, IdentityEnum, bf16_to_fp32, narrow


class TensorError(ValueError):
    """Raised for malformed descriptors, shape mismatches and bad buffers."""


class Bcast(IdentityEnum):
    NONE = "none"
    ROW = "row"        # physical 1 x N, replicated M times
    COL = "col"        # physical M x 1, replicated N times
    SCALAR = "scalar"  # physical 1 x 1, replicated M x N times


@dataclass(frozen=True)
class TensorDesc:
    """The five fields below describe a tensor; the four facts derived from
    them are computed once, at construction, and take no part in ``==``,
    ``hash`` or ``repr``.

    ``phys_rows`` x ``phys_cols`` is the physical extent (1 along a
    broadcast axis), ``min_buffer_len`` the elements a backing buffer needs,
    and ``nbytes`` the dense logical size in bytes (used for temp sizing)."""

    rows: int
    cols: int
    ld: int
    dtype: DType
    bcast: Bcast = Bcast.NONE
    phys_rows: int = field(init=False, compare=False, repr=False)
    phys_cols: int = field(init=False, compare=False, repr=False)
    min_buffer_len: int = field(init=False, compare=False, repr=False)
    nbytes: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise TensorError(f"extent must be positive, got {self.rows}x{self.cols}")
        if self.ld < 1:
            raise TensorError(f"ld must be positive, got {self.ld}")
        if self.bcast is Bcast.NONE and self.dtype is not DType.BIT and self.ld < self.rows:
            raise TensorError(f"ld {self.ld} < rows {self.rows}")
        pr = 1 if self.bcast in (Bcast.ROW, Bcast.SCALAR) else self.rows
        pc = 1 if self.bcast in (Bcast.COL, Bcast.SCALAR) else self.cols
        if self.dtype is DType.BIT:
            need = bitmask_bytes(pr, pc)
            size = bitmask_bytes(self.rows, self.cols)
        else:
            need = self.ld * (pc - 1) + pr
            size = self.rows * self.cols * self.dtype.storage.itemsize
        object.__setattr__(self, "phys_rows", pr)
        object.__setattr__(self, "phys_cols", pc)
        object.__setattr__(self, "min_buffer_len", need)
        object.__setattr__(self, "nbytes", size)


@dataclass
class TensorView:
    """A descriptor plus runtime payloads.

    ``primary`` is the flat element buffer.  ``secondary`` optionally holds a
    companion buffer: a packed bitmask or the lo-halves of a split FP32
    tensor (and, for backward activation kernels, the forward input).  ``tertiary`` carries auxiliary scalars such as a quantization
    scale or a PRNG seed.
    """

    desc: TensorDesc
    primary: np.ndarray
    secondary: Optional[np.ndarray] = None
    tertiary: Optional[dict] = field(default=None)

    def __post_init__(self):
        buf = np.asarray(self.primary)
        if buf.ndim != 1:
            raise TensorError("primary buffer must be flat (1-D)")
        if not buf.flags.c_contiguous:
            raise TensorError("primary buffer must be contiguous (unit stride)")
        if buf.dtype != self.desc.dtype.storage:
            raise TensorError(
                f"buffer dtype {buf.dtype} does not match {self.desc.dtype}")
        if buf.size < self.desc.min_buffer_len:
            raise TensorError(
                f"buffer too small: {buf.size} < {self.desc.min_buffer_len}")
        self.primary = buf

    # -- raw 2D access -----------------------------------------------------

    def as2d(self) -> np.ndarray:
        """Writable physical 2D window (phys_rows x phys_cols), zero copy."""
        d = self.desc
        if d.dtype is DType.BIT:
            raise TensorError("BIT tensors are packed; use mask_to_bool")
        buf = self.primary
        step = buf.itemsize
        return np.ndarray((d.phys_rows, d.phys_cols), buf.dtype, buf, 0, (step, d.ld * step))

    def logical2d(self) -> np.ndarray:
        """Read-only logical M x N window with broadcast applied."""
        d = self.desc
        phys = self.as2d()
        if d.bcast is Bcast.NONE:
            return phys
        return np.broadcast_to(phys, (d.rows, d.cols))

    # -- sub-views -----------------------------------------------------------

    def col_block(self, j0: int, ncols: int) -> "TensorView":
        """Zero-copy view of columns [j0, j0 + ncols)."""
        d = self.desc
        if d.bcast is not Bcast.NONE:
            raise TensorError("col_block on broadcast view")
        if j0 < 0 or j0 + ncols > d.cols:
            raise TensorError("column block out of range")
        off = j0 * d.ld
        sub = TensorDesc(d.rows, ncols, d.ld, d.dtype)
        return TensorView(sub, self.primary[off:off + sub.min_buffer_len])

    def row_block(self, i0: int, nrows: int) -> "TensorView":
        """Zero-copy view of rows [i0, i0 + nrows)."""
        d = self.desc
        if d.bcast is not Bcast.NONE:
            raise TensorError("row_block on broadcast view")
        if i0 < 0 or i0 + nrows > d.rows:
            raise TensorError("row block out of range")
        sub = TensorDesc(nrows, d.cols, d.ld, d.dtype)
        n = d.ld * (d.cols - 1) + i0 + nrows
        return TensorView(sub, self.primary[i0:n])


def alloc(d: TensorDesc, fill=None) -> TensorView:
    """A zeroed view of ``d``; ``fill``, if given, is stored in every element
    as any value is (``narrow``: BF16 rounds, integers wrap)."""
    buf = np.zeros(d.min_buffer_len, dtype=d.dtype.storage)
    v = TensorView(d, buf)
    if fill is not None and d.dtype is not DType.BIT:
        v.as2d()[:, :] = narrow(np.asarray(fill), d.dtype)
    return v


def view_at(buffer: np.ndarray, offset: int, d: TensorDesc) -> TensorView:
    """View into ``buffer`` starting at element ``offset``."""
    return TensorView(d, buffer[offset:offset + d.min_buffer_len])


def from_array(a: np.ndarray, dtype: DType | None = None) -> TensorView:
    """Copy a 2D numpy array into a fresh contiguous column-major view.

    FP32/FP64 arrays destined for a BF16 view are narrowed with
    round-to-nearest-even.
    """
    a = np.atleast_2d(np.asarray(a))
    if dtype is None:
        dtype = {np.dtype(np.float64): DType.FP64,
                 np.dtype(np.float32): DType.FP32,
                 np.dtype(np.int32): DType.INT32,
                 np.dtype(np.int8): DType.INT8}.get(a.dtype)
        if dtype is None:
            raise TensorError(f"no DType mapping for {a.dtype}")
    rows, cols = a.shape
    d = TensorDesc(rows, cols, rows, dtype)
    v = alloc(d)
    v.as2d()[:, :] = narrow(a, dtype)
    return v


def broadcast(v: TensorView, bcast: Bcast, rows: int, cols: int) -> TensorView:
    """Wrap a physical 1xN / Mx1 / 1x1 view as a logical rows x cols one."""
    d = v.desc
    if bcast is Bcast.ROW and (d.rows, d.cols) != (1, cols):
        raise TensorError("ROW broadcast needs a 1 x N source")
    if bcast is Bcast.COL and (d.rows, d.cols) != (rows, 1):
        raise TensorError("COL broadcast needs an M x 1 source")
    if bcast is Bcast.SCALAR and (d.rows, d.cols) != (1, 1):
        raise TensorError("SCALAR broadcast needs a 1 x 1 source")
    nd = TensorDesc(rows, cols, d.ld, d.dtype, bcast)
    return TensorView(nd, v.primary, v.secondary, v.tertiary)


def to_array(v: TensorView) -> np.ndarray:
    """Dense logical copy as a numpy array of its values: BF16 widened to
    FP32, and INT16 as int16 (its storage holds the uint16 bits)."""
    a = np.array(v.logical2d())
    if v.desc.dtype is DType.BF16:
        return bf16_to_fp32(a)
    if v.desc.dtype is DType.INT16:
        return a.view(np.int16)
    return a


# -- bitmask companions ------------------------------------------------------

def bitmask_bytes(rows: int, cols: int) -> int:
    return ((rows + 7) // 8) * cols


def bool_to_mask(b: np.ndarray) -> np.ndarray:
    """Pack a boolean M x N array into the column-padded bitmask layout."""
    b = np.asarray(b, dtype=bool)
    rows, cols = b.shape
    bpc = (rows + 7) // 8
    padded = np.zeros((bpc * 8, cols), dtype=np.uint8)
    padded[:rows, :] = b
    # packbits along rows, LSB-first within each byte
    return np.packbits(padded, axis=0, bitorder="little").T.reshape(-1).copy()


def mask_to_bool(mask: np.ndarray, rows: int, cols: int) -> np.ndarray:
    bpc = (rows + 7) // 8
    m = np.asarray(mask, dtype=np.uint8).reshape(cols, bpc).T
    bits = np.unpackbits(m, axis=0, bitorder="little")
    return bits[:rows, :].astype(bool)


# -- VNNI layout ----------------------------------------------------------------

def vnni_alpha(dtype: DType) -> int:
    """VNNI group size: 2 for 16-bit, 4 for 8-bit elements; wider types have
    no VNNI form."""
    if dtype.bits == 16:
        return 2
    if dtype.bits == 8:
        return 4
    raise TensorError(f"no VNNI group size for {dtype}")


def vnni_extent(rows: int, cols: int, alpha: int) -> tuple[int, int]:
    """(rows * alpha, ceil(cols / alpha)): the extent of a tensor's VNNI view."""
    return rows * alpha, -(-cols // alpha)


def vnni_pack_a(a_patterns: np.ndarray, alpha: int) -> np.ndarray:
    """Plain (M, K) A into the [K/alpha][M][alpha] flat layout, zero-padded
    tail group; element (m, k) lands at group k//alpha, row m, slot k%alpha.

    Read column-major as an (M * alpha) x ceil(K / alpha) tensor, the flat
    array is the VNNI transform's output view."""
    if alpha not in (2, 4):
        raise TensorError("alpha must be 2 (16-bit) or 4 (8-bit)")
    m, k = a_patterns.shape
    groups = vnni_extent(m, k, alpha)[1]
    padded = np.zeros((m, groups * alpha), dtype=a_patterns.dtype)
    padded[:, :k] = a_patterns
    return np.ascontiguousarray(padded.reshape(m, groups, alpha).transpose(1, 0, 2)).reshape(-1)


def vnni_unpack_a(flat: np.ndarray, alpha: int, m: int, k: int) -> np.ndarray:
    """Inverse of :func:`vnni_pack_a` (drops tail padding)."""
    rows, groups = vnni_extent(m, k, alpha)
    grid = flat[:groups * rows].reshape(groups, m, alpha)
    return grid.transpose(1, 0, 2).reshape(m, groups * alpha)[:, :k]


# -- split tensors -------------------------------------------------------------

@dataclass
class SplitTensor:
    """FP32 tensor stored as separate hi / lo 16-bit halves.

    ``hi`` holds the 16 MSBs of every element (a valid BF16 tensor); ``lo``
    the 16 LSBs.  ``(hi << 16) | lo`` recovers the FP32 bit pattern exactly.
    The halves share one extent and one ``ld``: UNPACK writes lo at hi's.
    """

    hi: TensorView
    lo: TensorView

    def __post_init__(self):
        h, l = self.hi.desc, self.lo.desc
        if (h.rows, h.cols) != (l.rows, l.cols):
            raise TensorError("hi/lo shape mismatch")
        if h.ld != l.ld:
            raise TensorError(f"hi/lo ld mismatch: {h.ld} != {l.ld}")
        if h.dtype is not DType.BF16 or l.dtype is not DType.INT16:
            raise TensorError("hi must be BF16 patterns, lo INT16 patterns")

    @property
    def rows(self) -> int:
        return self.hi.desc.rows

    @property
    def cols(self) -> int:
        return self.hi.desc.cols
