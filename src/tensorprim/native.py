"""Build and load the C BRGEMM kernels (``brgemm.c``) on first use.

The shared library is compiled once per machine with the system C compiler
and cached in this package's ``__pycache__/``, under a name keyed by a hash
of the C source, the compiler flags and the platform.  Later processes load
the cached build without starting the compiler.  When no compiler is
installed or the build fails, :func:`library` returns None and callers take
their numpy path; nothing is downloaded.
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
SOURCE = Path(__file__).with_name("brgemm.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")

# every kernel has the signature (count, m, n, k, a_ptrs, lda, b_ptrs, ldb, acc)
_ARGTYPES = [ctypes.c_int64] * 4 + [ctypes.c_void_p, ctypes.c_int64,
                                    ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]

_lock = threading.Lock()
_lib: ctypes.CDLL | None | bool = None   # None: not tried yet; False: unavailable


def library() -> ctypes.CDLL | None:
    """The loaded kernel library, building it on the first call; None if it
    cannot be built here."""
    global _lib
    if _lib is None:
        with _lock:
            if _lib is None:
                _lib = _load() or False
    return _lib or None


def kernel(name: str):
    """The kernel ``name`` of :func:`library`, ready to call; None if the
    library cannot be built here."""
    lib = library()
    if lib is None:
        return None
    fn = getattr(lib, name)
    if fn.argtypes is None:
        fn.restype = None        # set first: argtypes marks fn as ready
        fn.argtypes = _ARGTYPES
    return fn


def _load() -> ctypes.CDLL | None:
    import hashlib

    source = SOURCE.read_bytes()
    key = hashlib.sha256(source + repr((FLAGS, sys.platform, platform.machine())).encode())
    path = CACHE_DIR / f"brgemm-{key.hexdigest()[:16]}.so"
    if not path.exists() and not _build(path):
        return None
    try:
        return ctypes.CDLL(str(path))
    except OSError:
        return None


def _build(path: Path) -> bool:
    """Compile into a private temporary name, then move it into place, so a
    concurrent process never loads a half-written library."""
    import subprocess

    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(exist_ok=True)
        subprocess.run([CC, *FLAGS, "-o", str(tmp), str(SOURCE)],
                       check=True, capture_output=True, timeout=300)
        os.replace(tmp, path)
        return True
    except (OSError, subprocess.SubprocessError):
        tmp.unlink(missing_ok=True)
        return False
