"""The machine-speed reference that step times are normalised by.

On a shared virtual machine the same code runs up to half again as slowly
when neighbours are busy, in spells from under a second to minutes, so raw
step times from two runs of one commit can differ by more than any useful
regression bound.  The benchmark therefore runs :func:`reference_probe`
between steps and reports each step's wall time scaled by ``REFERENCE_S``
over the mean wall time of the probes just before and just after it:
milliseconds at the machine speed where the probe takes exactly
``REFERENCE_S``.  Set-up times are scaled by probes run in the same fresh
process.  The raw wall times are printed next to the normalised ones.

The probe does not touch ``tensorprim``, so no library change can move it.
It imitates the library's cost profile: Python-level argument checks around
numpy calls on 64-element columns, and the rank-1 tile updates of the
contraction loop.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 1e-3
REPS = 60  # about 1 ms on a 2-vCPU cloud virtual machine

_COL = np.linspace(-1.0, 1.0, 64, dtype=np.float32).reshape(64, 1)
_TILE = np.linspace(0.5, 1.5, 64 * 6, dtype=np.float32).reshape(64, 6)


class _View:
    __slots__ = ("a", "rows", "cols")

    def __init__(self, a: np.ndarray):
        self.a = a
        self.rows, self.cols = a.shape


def _op(x: _View, y: _View, out: _View) -> None:
    if (x.rows, y.rows) != (out.rows, out.rows):
        raise ValueError("shape")
    with np.errstate(all="ignore"):
        r = np.add(x.a, y.a) if x.cols == y.cols else np.maximum(x.a, y.a[:, :1])
    out.a[:, :] = np.asarray(r).astype(out.a.dtype, copy=False)


def reference_probe() -> float:
    """Run the fixed reference work once and return its wall time."""
    t0 = time.perf_counter()
    x, y = _View(_COL), _View(_COL.copy())
    out = _View(np.empty_like(_COL))
    acc = np.zeros((64, 6), np.float32)
    for k in range(REPS):
        _op(x, y, out)
        _op(out, _View(_TILE), out)
        acc += _COL * _TILE[k % 6:k % 6 + 1, :]
    return time.perf_counter() - t0
