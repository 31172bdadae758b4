"""Micro-benchmarks: wall times, derived FLOP rates, and the deterministic
scratch-memory comparison between planned and naive equation evaluation.
Contraction and softmax rows name the ``backend`` that ran them: the C
kernels (``"native"``) or the numpy reference paths (``"numpy"``).

Timings are hardware-dependent and never gate anything; the only asserted
facts are that differently-fused evaluations produce identical bits before
being timed, and that the planner's scratch footprint never exceeds naive
materialisation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import contraction as gemm_engine, equation as eqn, kernels, native
from .contraction import ALayout, ComputePath
from .dtypes import DType, fp32_to_bf16_rne
from .tensor import TensorDesc, alloc, from_array, to_array, vnni_alpha, vnni_pack_a


@dataclass
class BenchResult:
    name: str
    median_s: float
    min_s: float
    gflops: float
    extra: dict

    def row(self) -> dict:
        return {"name": self.name, "median_s": self.median_s, "min_s": self.min_s,
                "gflops": self.gflops, **self.extra}


def _time(fn, repeats: int) -> tuple[float, float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2], times[0]


# one row per supported contraction path: (input type, A layout, compute path)
BRGEMM_PATHS = (
    (DType.FP64, ALayout.PLAIN, ComputePath.NATIVE),
    (DType.FP32, ALayout.PLAIN, ComputePath.NATIVE),
    (DType.BF16, ALayout.PLAIN, ComputePath.NATIVE),
    (DType.BF16, ALayout.VNNI, ComputePath.EMULATED_SPLIT),
    (DType.INT8, ALayout.VNNI, ComputePath.NATIVE),
)


def bench_brgemm(m: int = 64, n: int = 64, k: int = 64, count: int = 16,
                 dtype: DType = DType.FP32, repeats: int = 5, seed: int = 0,
                 a_layout: ALayout = ALayout.PLAIN,
                 compute_path: ComputePath = ComputePath.NATIVE) -> BenchResult:
    rng = np.random.default_rng(seed)
    if dtype is DType.INT8:
        a = rng.integers(-128, 128, size=(count, m, k), dtype=np.int8)
        b = rng.integers(-128, 128, size=(count, k, n), dtype=np.int8)
    else:
        a = rng.standard_normal((count, m, k)).astype(np.float32)
        b = rng.standard_normal((count, k, n)).astype(np.float32)
        if dtype is DType.BF16:
            a, b = fp32_to_bf16_rne(a), fp32_to_bf16_rne(b)
        else:
            a, b = a.astype(dtype.storage), b.astype(dtype.storage)
    # A_i and B_i are consecutive column-major blocks; VNNI A blocks are packed
    if a_layout is ALayout.VNNI:
        a_blocks = [vnni_pack_a(blk, vnni_alpha(dtype)) for blk in a]
    else:
        a_blocks = [blk.T.reshape(-1) for blk in a]
    af = np.concatenate(a_blocks)
    bf = b.transpose(0, 2, 1).reshape(-1).copy()
    acc = gemm_engine.accumulator_dtype(dtype)
    spec = gemm_engine.GemmSpec(m, n, k, m, k, m, in_dtype=dtype, out_dtype=acc,
                                a_layout=a_layout, compute_path=compute_path)
    batch = gemm_engine.BrgemmBatch.stride(af, bf, a_blocks[0].size, n * k, count)
    c = alloc(TensorDesc(m, n, m, acc))
    med, mn = _time(lambda: gemm_engine.brgemm(spec, batch, c), repeats)
    flops = 2.0 * m * n * k * count
    checksum = float(np.sum(np.array(c.as2d(), dtype=np.float64)))
    path = ("-vnni" if a_layout is ALayout.VNNI else "") + (
        "-emulated" if compute_path is ComputePath.EMULATED_SPLIT else "")
    return BenchResult(f"brgemm-{dtype.value}{path}-{m}x{n}x{k}x{count}", med, mn,
                       flops / med / 1e9, {"checksum": checksum,
                                           "backend": native.backend()})


def bench_fc(m_b: int = 4, n_b: int = 4, k_b: int = 4, bm: int = 32, bn: int = 32,
             bk: int = 32, repeats: int = 5, seed: int = 0) -> BenchResult:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(m_b * k_b * bk * bm).astype(np.float32)
    b = rng.standard_normal(n_b * k_b * bn * bk).astype(np.float32)
    c = alloc(TensorDesc(bm, n_b * m_b * bn, bm, DType.FP32))
    spec = kernels.FcSpec(m_b, n_b, k_b, bm, bn, bk, activation=None)
    med, mn = _time(lambda: kernels.fc_forward(spec, a, b, c), repeats)
    flops = 2.0 * (m_b * bm) * (n_b * bn) * (k_b * bk)
    checksum = float(np.sum(np.array(c.as2d(), dtype=np.float64)))
    return BenchResult(f"fc-{m_b * bm}x{n_b * bn}x{k_b * bk}", med, mn,
                       flops / med / 1e9, {"checksum": checksum,
                                           "backend": native.backend()})


def bench_softmax(s1: int = 64, s2: int = 8, s3: int = 64, repeats: int = 5,
                  seed: int = 0) -> list[BenchResult]:
    rng = np.random.default_rng(seed)
    spec = kernels.SoftmaxSpec(s1, s2, s3)
    x = from_array(rng.random((s1, s2 * s3), dtype=np.float32))
    results = []
    outs = {}
    p1, p2 = kernels._softmax_plans(s1, s2 * s3, DType.FP32)
    fused_bytes = p1.temp_bytes + p2.temp_bytes
    naive_bytes = p1.naive_bytes + p2.naive_bytes
    for name, strategy in (("buffered", eqn.Buffered()),
                           ("hybrid", eqn.Hybrid(16, 16))):
        y = alloc(TensorDesc(s1, s2 * s3, s1, DType.FP32))
        med, mn = _time(lambda: kernels.softmax(spec, x, y, strategy=strategy), repeats)
        outs[name] = to_array(y)
        checksum = float(np.sum(outs[name].astype(np.float64)))
        results.append(BenchResult(f"softmax-{name}-{s1}x{s2}x{s3}", med, mn,
                                   float("nan"),
                                   {"checksum": checksum,
                                    "backend": native.backend(),
                                    "plan_temp_bytes": fused_bytes,
                                    "naive_temp_bytes": naive_bytes}))
    # identical outputs are a precondition for comparing the timings at all
    ref = next(iter(outs.values()))
    for name, arr in outs.items():
        if arr.tobytes() != ref.tobytes():
            raise AssertionError(f"softmax strategy {name} diverged; refusing to time")
    assert fused_bytes <= naive_bytes
    return results
