"""Build and load the C kernels (``native.c``) on first use: the
batch-reduce GEMM of ``contraction``, the reductions, xorshift streams and
split-FP32 and multiply-add engines of ``ops``, and the three FP32
approximation engines of ``approx``:

* ``tanh_pade78_f32``: t = |x|*|x|, numerator and denominator by Horner in
  t (the numerator times |x|), their quotient, 1 beyond the clamp, the sign
  of x copied on;
* ``minimax_f32``: the interval from the bits of |x|, the cubic by Horner
  in |x|, the saturation value from ``range_max`` on, the sign copied on;
* ``exp_taylor_f32``: r = x*log2e, n = rint(r), y = r - n, the cubic by
  Horner in y, times 2^n built in the exponent field, +inf above and 0
  below the band.

Each takes a column-major FP32 block (rows, cols, ld) and runs the
operations of its numpy reference in the same order.  The engines of
``ops`` take every operand as a column-major block at its own ``ld``:

* ``pack_f32`` (rows, cols, hi, ldh, lo, ldl, out, ldo): PACK, each FP32
  element's bits ``hi << 16 | lo``;
* ``unpack_f32`` (rows, cols, x, ldx, hi, lo, ld): UNPACK, the top and
  bottom 16 bits of each FP32 element, hi and lo at one ``ld``;
* ``muladd_f32`` (rows, cols, a, lda, b, ldb, c, ldc, out, ldo, scalars,
  neg): MULADD ``c + a*b``, or NMULADD ``c - a*b`` when ``neg`` is set, the
  product rounded before the sum; bit 0, 1 or 2 of ``scalars`` marks a
  SCALAR a, b or c.  It returns 2, writing nothing, when an operand holds
  a NaN.  This module alone
chooses between a C kernel and its numpy reference path, and
:func:`backend` reports the choice.

The shared library is compiled once per machine with the system C compiler
and cached in this package's ``__pycache__/``, under a name keyed by a hash
of the C source, the compiler flags and the platform.  Later processes load
the cached build without starting the compiler.  When no compiler is
installed or the build fails, :func:`library` returns None and every caller
takes its numpy path; nothing is downloaded.
"""

from __future__ import annotations

import ctypes
import os
from pathlib import Path
import platform
import sys
import threading

import numpy as np

CC = "gcc"
FLAGS = ("-O3", "-ffp-contract=off", "-fno-fast-math", "-fPIC", "-shared")
SOURCE = Path(__file__).with_name("native.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
_STALE = ("native-*.so", "brgemm-*.so")   # builds of other sources, flags or names

_i64, _ptr, _addr = ctypes.c_int64, ctypes.c_void_p, ctypes.c_ssize_t
# (count, m, n, k, a_base, a_offs, a_stride, lda, b_base, b_offs, b_stride,
# ldb, acc, a_vnni): entry e of a side at base + offs[e] bytes, or at
# base + e*stride bytes when offs is NULL
_SIDE = [_addr, _ptr, _i64, _i64]
_BRGEMM = [_i64] * 4 + _SIDE + _SIDE + [_ptr, _i64]
# (m, n, x, ld, axis, op, squared, out)
_REDUCE = [_i64, _i64, _ptr, _i64, _i64, _i64, _i64, _ptr]
# (m, n, x, ld, out)
_ENGINE = [_i64, _i64, _ptr, _i64, _ptr]
_BLOCK = [_ptr, _i64]   # a column-major block: (address, ld)
# the argument types of every kernel of the library
ARGTYPES: dict[str, list] = {
    "brgemm_f32": _BRGEMM, "brgemm_f64": _BRGEMM, "brgemm_bf16": _BRGEMM,
    "brgemm_i8": _BRGEMM,
    "reduce_f32": _REDUCE, "reduce_f64": _REDUCE,
    "xorshift_uniform": [_i64, _i64, _ptr, _ptr],   # (streams, rows, state, out)
    "tanh_pade78_f32": _ENGINE, "exp_taylor_f32": _ENGINE,
    # (..., out, coeffs, base, range_max, saturation)
    "minimax_f32": _ENGINE + [_ptr, _i64, ctypes.c_float, ctypes.c_float],
    "pack_f32": [_i64, _i64] + _BLOCK * 3,
    "unpack_f32": [_i64, _i64] + _BLOCK + [_ptr, _ptr, _i64],
    "muladd_f32": [_i64, _i64] + _BLOCK * 4 + [_i64, _i64],
}
# the kernels that return a status (0: done; 1: nothing done, no scratch; 2:
# a float result or operand is a NaN); the others return nothing
RESTYPES = {name: _i64 for name in ARGTYPES
            if name.startswith(("brgemm_", "reduce_", "muladd_"))}

# Negative controls for ``verify`` (``fault``: None or one name), each
# breaking one pinned rule of a numpy path: reversing the reduction fold of
# ``ops``, the k loop or the batch fold of ``contraction.brgemm``, or
# swapping the halves that UNPACK writes.  While one is set, every C kernel
# is off, so the faulted path is the one that runs.
FAULTS = ("reduce-order", "k-order", "batch-fold", "unpack-swap")
fault: str | None = None

_lock = threading.Lock()
_lib: ctypes.CDLL | None | bool = None   # None: not tried yet; False: unavailable


def library() -> ctypes.CDLL | None:
    """The loaded kernel library, building it on the first call; None if a
    fault is set or it is unavailable (``_lib`` False, which turns C off)."""
    global _lib
    if fault is not None:
        return None
    if _lib is None:
        with _lock:
            if _lib is None:
                _lib = _load() or False
    return _lib or None


def backend() -> str:
    """``"native"`` when the C kernels run, ``"numpy"`` when every caller
    takes its numpy reference path."""
    return "numpy" if library() is None else "native"


def kernel(name: str):
    """The kernel ``name`` of :func:`library`, ready to call; None if the
    library is unavailable."""
    lib = library()
    if lib is None:
        return None
    fn = getattr(lib, name)
    if fn.argtypes is None:
        fn.restype = RESTYPES.get(name)   # set first: argtypes marks fn as ready
        fn.argtypes = ARGTYPES[name]
    return fn


def address(buf: np.ndarray) -> int:
    """The address of the first element of a 1-D contiguous ``buf``
    (``from_buffer`` reads it in a third of the time ``buf.ctypes.data``
    takes, but only for a writable buffer)."""
    if buf.flags.writeable:
        return ctypes.addressof(ctypes.c_char.from_buffer(buf))
    return buf.ctypes.data


def _load() -> ctypes.CDLL | None:
    import hashlib

    source = SOURCE.read_bytes()
    key = hashlib.sha256(source + repr((FLAGS, sys.platform, platform.machine())).encode())
    path = CACHE_DIR / f"native-{key.hexdigest()[:16]}.so"
    if not path.exists() and not _build(path):
        return None
    try:
        return ctypes.CDLL(str(path))
    except OSError:
        return None


def _build(path: Path) -> bool:
    """Compile into a private temporary name, then move it into place, so a
    concurrent process never loads a half-written library.  A successful
    build deletes the cache's other (stale) builds."""
    import subprocess

    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(exist_ok=True)
        subprocess.run([CC, *FLAGS, "-o", str(tmp), str(SOURCE)],
                       check=True, capture_output=True, timeout=300)
        os.replace(tmp, path)
    except (OSError, subprocess.SubprocessError):
        tmp.unlink(missing_ok=True)
        return False
    for pattern in _STALE:
        for stale in path.parent.glob(pattern):
            if stale != path:
                try:
                    stale.unlink()
                except OSError:
                    pass
    return True
