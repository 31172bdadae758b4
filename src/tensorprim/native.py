"""Build and load the C kernels (``native.c``) on first use: the
batch-reduce GEMM of ``contraction``, the reductions, xorshift streams,
dropout and split-FP32 engines of ``ops`` (the split SGD step among them,
which updates the hi/lo halves in place in one pass, while ``kernels``'
PACK, NMULADD and UNPACK composition is its reference path and resumes at
a column holding a NaN), the three FP32 approximation engines of
``approx``, and the plan program of ``equation`` (the one C MULADD and
NMULADD: a direct call of either runs numpy), one entry whose steps each
carry their extent and element type: elementwise (FP32 EXP among them),
FP32/FP64 conversion and fold (SUM, COLS MAX) steps, so a layernorm or
GROUPNORM is one call, and a softmax two.

Every kernel but brgemm and the plan program takes one ABI, as the paper
defines a primitive on 2-D blocks: ``(m, n)``, then each operand as a
column-major block ``(address, ld)``, inputs first, then the kernel's own
scalars (:data:`ENGINES` lists how many blocks and which scalars).  They
are called through :func:`run` alone, which decides whether the operands
can be read in place and returns False whenever the caller must take its
numpy reference path instead; brgemm keeps its batch ABI (a base plus
offsets or a stride per side) and is called by ``contraction``.  A plan
program reads its blocks from one operand table of int64 (address, ld,
kind) triples, which :func:`program` writes and checks once per evaluation
before it hands out the runner of its runs.
This module alone chooses between a C kernel and its numpy reference path,
and :func:`backend` reports the choice.

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
from typing import Callable, Sequence

import numpy as np

from .dtypes import DType
from .tensor import Bcast

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
# (blocks, scalars) of every kernel but brgemm, whose arguments are (m, n),
# an (address, ld) per block and then the scalars
_REDUCE = (2, [_i64] * 3 + [_ptr])   # x, out; axis, op, squared, cols (int64 or NULL)
_MAP = (2, [])              # x, out
_f32 = ctypes.c_float
ENGINES: dict[str, tuple[int, list]] = {
    "reduce_f32": _REDUCE, "reduce_f64": _REDUCE,
    "xorshift_uniform": _MAP,   # state, out
    "dropout_f32": (4, [_f32, _f32]),   # x, state, out, mask; p, scale
    "tanh_pade78_f32": _MAP, "exp_taylor_f32": _MAP,
    # coeffs, base, range_max, saturation
    "minimax_f32": (2, [_ptr, _i64, _f32, _f32]),
    "pack_f32": (3, []),        # hi, lo, out
    "unpack_f32": (3, []),      # x, hi, lo
    # g, hi, lo (both read and written), done (int64: the columns written); lr
    "split_sgd_f32": (4, [_f32]),
}
# the element types of the plan program's steps, by their type field (0, 1)
PROGRAM_DTYPES = (DType.FP32, DType.FP64)
# the argument types of every kernel of the library
ARGTYPES: dict[str, list] = {
    "brgemm_f32": _BRGEMM, "brgemm_f64": _BRGEMM, "brgemm_bf16": _BRGEMM,
    "brgemm_i8": _BRGEMM,
    "program": [_i64, _ptr, _ptr],   # steps, code, table: see program
    **{name: [_i64, _i64] + [_ptr, _i64] * blocks + scalars
       for name, (blocks, scalars) in ENGINES.items()},
}
# the kernels that return a status (0: done; 1: nothing done, no scratch; 2:
# a float result or operand is a NaN, and split_sgd_f32 stopped at its
# column); the others return nothing
RESTYPES = {name: _i64 for name in ARGTYPES
            if name.startswith(("brgemm_", "reduce_", "program", "split_sgd_"))}

# Negative controls for ``verify`` (``fault``: None or one name), each
# breaking one pinned rule of a numpy path: reversing the reduction fold of
# ``ops``, the k loop or the batch fold of ``contraction.brgemm``, swapping
# the halves that UNPACK writes, or drawing every column's uniforms from
# stream 0.  While one is set, every C kernel is off, so the faulted path is
# the one that runs.
FAULTS = ("reduce-order", "k-order", "batch-fold", "unpack-swap", "prng-shared")
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
        return _addressof(_from_buffer(buf))
    return buf.ctypes.data


_addressof, _from_buffer = ctypes.addressof, ctypes.c_char.from_buffer
_BLOCKS = (Bcast.NONE, Bcast.SCALAR)   # the views C reads as a block or one element
# a program's operand kinds by their code: bit 0 set for one row, bit 1 for one column
_KINDS = {Bcast.NONE: 0, Bcast.ROW: 1, Bcast.COL: 2, Bcast.SCALAR: 3}


def _block(view, out: bool, kinds: tuple = _BLOCKS) -> tuple[int, int, int] | None:
    """The block ``(start, end, ld)`` of a ``TensorView`` C can read in
    place, ``end`` one byte past the last element it spans, or None: its
    flat buffer must still be what ``TensorView`` checked (1-D, contiguous,
    of the storage dtype, long enough) and aligned, its broadcast must be
    one of ``kinds`` (by default no ROW or COL view), and an ``out``put
    must be writable."""
    buf, d = view.primary, view.desc
    flags = buf.flags
    if not (flags.aligned and flags.c_contiguous and buf.ndim == 1
            and buf.dtype == d.dtype.storage and buf.size >= d.min_buffer_len
            and d.bcast in kinds and (flags.writeable or not out)):
        return None
    start = address(buf)   # buf is contiguous and starts at the block
    return start, start + d.min_buffer_len * buf.itemsize, d.ld


def run(name: str, m: int, n: int, ins: tuple, outs: tuple, *scalars) -> bool:
    """Run the kernel ``name`` (one of :data:`ENGINES`) on the m x n problem
    of the blocks ``ins`` and ``outs``; False when nothing ran (or, for a
    kernel that reports a NaN, when nothing was kept; ``split_sgd_f32``
    keeps the columns before the NaN and counts them in its ``done``
    block) and the caller must take its numpy path: no library, a fault
    set, an operand refused below, or a nonzero status.

    An operand is a ``TensorView`` or an ndarray holding the extent its
    kernel reads; it is refused unless C can read it in place:

    * a view's flat buffer is still what ``TensorView`` checked (1-D,
      contiguous, of the storage dtype, long enough) and is aligned; it is
      the block (``native.address``, ``desc.ld``), and a SCALAR view the
      element there (the kernel's scalars say so), never a ROW or COL one;
    * an array (1-D: one column) is aligned and has unit-stride columns at
      an ld of at least its rows, or, as an input, of 0 (one column read
      for every column, as of a COL broadcast);
    * an output is writable and overlaps no other operand, not even as
      exactly an input (the same address, ld and end): numpy raises for a
      read-only output, and reads every input before it stores, which a
      kernel writing as it reads would not."""
    fn = kernel(name)
    if fn is None:
        return False
    args, spans, nin = [m, n], [], len(ins)
    for k, op in enumerate(ins + outs):
        out = k >= nin
        if isinstance(op, np.ndarray):
            flags, size = op.flags, op.itemsize
            if op.ndim == 2:
                rows, cols = op.shape
            elif op.ndim == 1:
                rows, cols = op.shape[0], 1
            else:
                return False
            if flags.f_contiguous:
                ld = rows
            elif op.ndim == 2:   # unit-stride columns at any ld
                rs, cs = op.strides
                ld = cs // size
                if (rs != size and rows > 1) or ld * size != cs or (ld < rows and (ld or out)):
                    return False
            else:
                return False
            if not (rows and cols and flags.aligned) or (out and not flags.writeable):
                return False
            start = address(op[:, 0] if op.ndim == 2 else op)
            end = start + ((cols - 1) * ld + rows) * size
        else:
            block = _block(op, out)
            if block is None:
                return False
            start, end, ld = block
        if out:
            for s, e in spans:
                if s < end and start < e:
                    return False
        spans.append((start, end))
        args.append(start)
        args.append(ld)
    args.extend(scalars)
    return not fn(*args)


def program(args: Sequence, reads: Sequence[int], folds: Sequence[int],
            slots: dict[int, np.ndarray], nslots: int, out,
            out_dtype: DType | None) -> Callable[[int, int], bool] | None:
    """The runner of a plan program, its operands checked once for all of
    its runs: ``run(code, steps)`` calls ``program`` on the ``steps`` step
    records at address ``code`` and returns False when the run reports a
    NaN.  None when C cannot run the program and the plan takes its
    per-step path: no library, a fault set, or an operand refused below.

    The operand table holds an (address, ld, kind) triple of int64 for each
    argument, then each of the ``nslots`` slots, then ``out``, each written
    once; the kind is the code of the view's ``Bcast`` (NONE, ROW, COL,
    SCALAR), read from the view passed, not from what the plan declared.
    The program reads the arguments ``reads``, writes the ``slots`` (byte
    buffers by slot number) and, unless ``out_dtype`` is None, ``out`` in
    that dtype; every other entry stays (0, 0, 0).  An argument is refused
    unless it is an FP32 or FP64 view that :func:`_block` takes, broadcast
    or not, but never a ROW or SCALAR one where a REDUCE step reads it (it
    is in ``folds``: a fold reads rows at unit stride); ``out`` is refused
    unless it is a plain view of ``out_dtype`` that :func:`_block` takes and
    overlaps no argument at all, read by the program or not, so that a
    rerun of the plan reads every argument as it was.  A slot passes ld 0
    (its occupant is dense) and is refused only if it is not aligned for
    FP64."""
    fn = kernel("program")
    if fn is None:
        return None
    base = len(args)
    table = (_i64 * (3 * (base + nslots + 1)))()
    starts = {}   # argument -> the address of its flat buffer
    for i in reads:
        v = args[i]
        d = v.desc
        block = _block(v, False, _KINDS) if d.dtype in PROGRAM_DTYPES else None
        if block is None:
            return None
        kind = _KINDS[d.bcast]
        if kind & 1 and i in folds:
            return None
        starts[i] = block[0]
        table[3 * i:3 * i + 3] = (block[0], block[2], kind)
    for slot, buf in slots.items():
        start = address(buf)
        if start & 7:
            return None
        table[3 * (base + slot)] = start
    if out_dtype is not None:
        block = _block(out, True) if out.desc.dtype is out_dtype else None
        if block is None:
            return None
        start, end, ld = block
        for i, v in enumerate(args):
            buf = v.primary
            s = starts.get(i)
            if s is None:
                if not buf.flags.c_contiguous:
                    return None
                s = address(buf)
            if s < end and start < s + buf.nbytes:
                return None
        table[-3:-1] = (start, ld)
    at = _addressof(table)

    def run(code: int, steps: int) -> bool:
        return not fn(steps, code, at)

    run.table = table   # the table C reads lives as long as its runner
    return run


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
