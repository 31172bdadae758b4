"""Build and load the C kernels (``native.c``) on first use: the
batch-reduce GEMM of ``contraction``, and the reductions and xorshift
streams of ``ops``.  It alone chooses between a C kernel and its numpy
reference path, and :func:`backend` reports the choice.

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

CC = "gcc"
FLAGS = ("-O3", "-ffp-contract=off", "-fno-fast-math", "-fPIC", "-shared")
SOURCE = Path(__file__).with_name("native.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
_STALE = ("native-*.so", "brgemm-*.so")   # builds of other sources, flags or names

_i64, _ptr = ctypes.c_int64, ctypes.c_void_p
# (count, m, n, k, a_ptrs, lda, b_ptrs, ldb, acc, a_vnni)
_BRGEMM = [_i64] * 4 + [_ptr, _i64, _ptr, _i64, _ptr, _i64]
# (m, n, x, ld, axis, op, squared, out)
_REDUCE = [_i64, _i64, _ptr, _i64, _i64, _i64, _i64, _ptr]
# the argument types of every kernel of the library
ARGTYPES: dict[str, list] = {
    "brgemm_f32": _BRGEMM, "brgemm_f64": _BRGEMM, "brgemm_bf16": _BRGEMM,
    "brgemm_i8": _BRGEMM,
    "reduce_f32": _REDUCE, "reduce_f64": _REDUCE,
    "xorshift_uniform": [_i64, _i64, _ptr, _ptr],   # (streams, rows, state, out)
}
# the kernels that return a status (nonzero: the call did nothing); the
# others return nothing
RESTYPES = {name: _i64 for name in ARGTYPES if name.startswith("brgemm_")}

# Test-only switch: False makes :func:`library` return None, so every
# caller of a C kernel takes its numpy path.
_USE_NATIVE = True

# Negative controls for ``verify`` (``fault``: None or one name), each
# reversing one pinned order of a numpy path: the reduction fold of ``ops``,
# the k loop and the batch fold of ``contraction.brgemm``.  While one is
# set, every C kernel is off, so the faulted path is the one that runs.
FAULTS = ("reduce-order", "k-order", "batch-fold")
fault: str | None = None

_lock = threading.Lock()
_lib: ctypes.CDLL | None | bool = None   # None: not tried yet; False: unavailable


def library() -> ctypes.CDLL | None:
    """The loaded kernel library, building it on the first call; None if it
    cannot be built here, the test-only switch is off or a fault is set."""
    global _lib
    if not _USE_NATIVE or fault is not None:
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
