"""Acceptance criteria, one test per criterion.

Each test runs the criterion at its stated tolerance and scale, prints a
pass/fail line with the measured value and elapsed time (visible under
``pytest -s``), and asserts both the property and the time budget.  The
contraction criteria (04-07) run once on the C kernels and once on the numpy
reference path.
"""

import time

from tensorprim import DType, TensorDesc, verify
from tensorprim.equation import plan_equation


def _report(num: int, label: str, t0: float, budget_s: float, results):
    elapsed = time.time() - t0
    if not isinstance(results, (list, tuple)):
        results = [results]
    ok = all(r.passed for r in results)
    detail = "; ".join(f"{r.name}={r.measured}" for r in results)
    status = "PASS" if ok and elapsed < budget_s else "FAIL"
    print(f"[{status}] criterion {num:2d} ({elapsed:6.2f}s / {budget_s:.0f}s) "
          f"{label}: {detail}", flush=True)
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s ({elapsed:.1f}s)"


def test_criterion_01_worked_example():
    t0 = time.time()
    d = TensorDesc(8, 8, 8, DType.FP32)
    plan = plan_equation("tanh(T0) + (T1 matmul T2) / (T3 - T4)", [d] * 5)
    r = verify.check_worked_example()
    assert plan.tree.root.score == 2 and plan.temp_count == 2
    _report(1, "planner reproduces the worked example (score 2, 2 temps)", t0, 1.0, r)


def test_criterion_02_planner_minimality():
    t0 = time.time()
    r = verify.check_minimality(seed=2024, trees=1000, max_nodes=9)
    _report(2, "temp_count equals brute-force minimum on 1000 random trees", t0, 60.0, r)


def test_criterion_03_fusion_fidelity():
    t0 = time.time()
    r = verify.check_fusion_fidelity(seed=2024, equations=1000)
    _report(3, "buffered / tile-fused / naive agree bitwise (fp32 + fp64)", t0, 60.0, r)


def test_criterion_04_brgemm_variant_equivalence(gemm_backend):
    t0 = time.time()
    r = verify.check_brgemm_variants(seed=2024, cases=200)
    _report(4, f"ADDRESS == OFFSET == STRIDE == pinned-order oracle bitwise, n=1/beta=1 "
               f"equals GEMM ({gemm_backend})", t0, 30.0, r)


def test_criterion_05_tiling_invariance(gemm_backend):
    t0 = time.time()
    r = verify.check_tiling_invariance(seed=2024)
    _report(5, f"one call == caller-side tiles, 6 blockings x threads {{1,4}} ({gemm_backend})",
            t0, 30.0, r)


def test_criterion_06_bf16_emulation(gemm_backend):
    t0 = time.time()
    r = verify.check_bf16_emulation(seed=2024, cases=200)
    _report(6, f"EMULATED_SPLIT == NATIVE BF16 bitwise incl. subnormal/NaN ({gemm_backend})",
            t0, 30.0, r)


def test_criterion_07_vnni(gemm_backend):
    t0 = time.time()
    r = verify.check_vnni(seed=2024)
    _report(7, f"VNNI pack/unpack bijection; VNNI GEMM == plain GEMM bitwise ({gemm_backend})",
            t0, 10.0, r)


def test_criterion_08_split_sgd():
    t0 = time.time()
    rs = [verify.check_split_sgd(seed=2024, steps=100),
          verify.check_split_pack(seed=2024)]
    _report(8, "100-step split-SGD bitwise; pack(split(x)) identity on 10^6", t0, 10.0, rs)


def test_criterion_09_approximation_budgets():
    t0 = time.time()
    rs = [verify.check_pade_budget(), verify.check_minimax_budget(),
          verify.check_exp_budget(), verify.check_sigmoid_budget(),
          verify.check_backward_finite_diff(seed=2024)]
    _report(9, "pade<=1e-5, minimax<=2e-3, exp<=3e-4, sigmoid<=1.1x, inv-fd<=1e-3",
            t0, 30.0, rs)


def test_criterion_10_shuffle_transpose():
    t0 = time.time()
    r = verify.check_transpose(seed=2024)
    _report(10, "shuffle network == direct transpose on 4/8/16 tiles", t0, 1.0, r)


def test_criterion_11_kernel_oracles():
    t0 = time.time()
    rs = [verify.check_softmax(seed=2024, instances=100),
          verify.check_layernorm(seed=2024, instances=100),
          verify.check_groupnorm(seed=2024, instances=100),
          verify.check_embedding_fused(seed=2024, instances=100),
          verify.check_binary_reduce(seed=2024, instances=100),
          verify.check_fc_fused(seed=2024, instances=100),
          verify.check_dilated_conv(seed=2024, instances=100)]
    _report(11, "softmax/layernorm tolerances, groupnorm bits; fused == unfused bitwise x100", t0, 60.0, rs)


def test_criterion_12_fusion_benefit_metric():
    t0 = time.time()
    r = verify.check_temp_bytes_metric()
    _report(12, "plan temp_bytes <= naive bytes, strict under recycling", t0, 1.0, r)


def test_criterion_13_dropout_statistics():
    t0 = time.time()
    r = verify.check_dropout(seed=2024)
    _report(13, "keep rate within 3 sigma over 10^6 for p in {.1,.5,.9}", t0, 10.0, r)
