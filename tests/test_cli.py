import json
import os
from pathlib import Path
import shutil
import subprocess
import sys

import pytest

from tensorprim import native, verify
from tensorprim.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_plan_worked_example(capsys):
    code, out, _ = run_cli(["plan", "tanh(T0) + (T1 matmul T2) / (T3 - T4)",
                            "--args", "4x4,4x4,4x4,4x4,4x4"], capsys)
    assert code == 0
    assert "root register score: 2" in out
    assert "temp slots: 2" in out


def test_plan_relu_single_step(capsys):
    code, out, _ = run_cli(["plan", "relu(T0)"], capsys)
    assert code == 0
    assert "temp slots: 1" in out
    assert sum(ln.lstrip().startswith("t=") for ln in out.splitlines()) == 1


def test_plan_balanced_tree(capsys):
    code, out, _ = run_cli(["plan", "((T0+T1)+(T2+T3)) + ((T4+T5)+(T6+T7))"], capsys)
    assert code == 0
    assert "temp slots: 3" in out


@pytest.mark.parametrize("text, line", [
    ("relu(T0 + T1) * T0", "C program: 3 of 3 steps in 1 runs"),
    ("tanh(T0)", "C program: 0 of 1 steps in 0 runs")])
def test_plan_shows_its_c_program(text, line, capsys):
    code, out, _ = run_cli(["plan", text], capsys)
    assert code == 0
    assert line in out.splitlines()


def test_plan_parse_error_exit_code(capsys):
    code, _, err = run_cli(["plan", "tanh(T0"], capsys)
    assert code == 2
    assert "position" in err


def test_plan_json_format(capsys):
    code, out, _ = run_cli(["plan", "relu(T0)", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)[0]
    assert doc["temp_count"] == 1
    assert doc["steps"][0]["op"] == "relu"


def test_plan_dot_output(tmp_path, capsys):
    dot = tmp_path / "plan.dot"
    code, _, _ = run_cli(["plan", "tanh(T0) + T1", "--dot", str(dot)], capsys)
    assert code == 0
    assert "digraph" in dot.read_text()


def test_verify_subset_passes(capsys):
    code, out, _ = run_cli(["verify", "--only",
                            "core-bf16-roundtrip,equation-worked-example"], capsys)
    assert code == 0
    assert "2/2 checks passed" in out


def test_verify_reports_a_raising_check_and_runs_the_rest(monkeypatch, capsys):
    from tensorprim import verify

    def broken(seed=0):
        raise RuntimeError("boom")

    monkeypatch.setitem(verify.ALL_CHECKS, "core-bf16-rne", broken)
    results = verify.run_checks(only=["core-bf16-rne", "core-split-pack-identity"])
    assert [r.name for r in results] == ["core-bf16-rne", "core-split-pack-identity"]
    assert not results[0].passed and "RuntimeError: boom" in results[0].detail
    assert results[1].passed
    code, out, _ = run_cli(["verify", "--only", "core-bf16-rne,core-split-pack-identity"],
                           capsys)
    assert code == 1
    assert "[FAIL] core-bf16-rne" in out and "RuntimeError: boom" in out
    assert "1/2 checks passed" in out


@pytest.mark.parametrize("text", ["+".join(["T0"] * 1200),
                                  "(" * 1200 + "T0+T0" + ")" * 1200],
                         ids=["flat-sum", "nested-parentheses"])
def test_plan_too_deep_is_a_one_line_usage_error(text, capsys):
    code, out, err = run_cli(["plan", text, "--args", "2x2"], capsys)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "MAX_DEPTH" in err
    assert "Traceback" not in err


def test_verify_unknown_check_usage_error(capsys):
    code, _, err = run_cli(["verify", "--only", "no-such-check"], capsys)
    assert code == 2
    assert "no-such-check" in err


def test_verify_report_formats(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(["verify", "--only", "core-bf16-roundtrip",
                          "--format", "json", "--out", str(out_path)], capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc[0]["name"] == "core-bf16-roundtrip" and doc[0]["passed"]

    csv_path = tmp_path / "report.csv"
    code, _, _ = run_cli(["verify", "--only", "core-bf16-roundtrip",
                          "--format", "csv", "--out", str(csv_path)], capsys)
    assert code == 0
    assert csv_path.read_text().splitlines()[0].startswith("budget,detail")


def test_verify_fault_injection_negative_control(capsys):
    """The reduce-order fault breaks the fused-vs-oracle bitwise checks but
    not the planner minimality check nor the contraction order, and the
    failure exits nonzero."""
    code, out, _ = run_cli(["verify", "--inject-fault", "reduce-order", "--only",
                            "equation-minimality,gemm-variant-equivalence,"
                            "kernels-embedding-fused,kernels-layernorm,"
                            "kernels-groupnorm,kernels-softmax,ops-reduce-determinism"],
                           capsys)
    assert code == 1
    assert "[PASS] equation-minimality" in out
    assert "[PASS] gemm-variant-equivalence" in out
    assert "[FAIL] kernels-embedding-fused" in out
    assert "[FAIL] kernels-layernorm" in out
    assert "[FAIL] kernels-groupnorm" in out
    assert "[FAIL] kernels-softmax" in out
    assert "[FAIL] ops-reduce-determinism" in out
    # and the fault does not leak into subsequent runs
    code2, out2, _ = run_cli(["verify", "--only", "kernels-embedding-fused"], capsys)
    assert code2 == 0


@pytest.mark.parametrize("fault", ["k-order", "batch-fold"])
def test_contraction_faults_fail_the_gemm_and_conv_checks(fault, capsys):
    """A reversed k loop or batch fold fails every gemm and contraction-kernel
    check, each of which compares with the pinned-order oracle; the planner
    check does not depend on arithmetic order and passes, and so does the
    reduction order.  gemm-vnni runs one-entry batches and gemm-linearity
    folds two equal entries, so only the k loop can reach them."""
    failing = ["gemm-variant-equivalence", "gemm-tiling-invariance",
               "gemm-bf16-emulation", "kernels-fc-fused", "kernels-dilated-conv"]
    failing += ["gemm-vnni", "gemm-linearity"] if fault == "k-order" else []
    checks = ",".join(["equation-minimality", "ops-reduce-determinism", *failing])
    code, out, _ = run_cli(["verify", "--inject-fault", fault, "--only", checks], capsys)
    assert code == 1
    assert "[PASS] equation-minimality" in out
    assert "[PASS] ops-reduce-determinism" in out
    for name in failing:
        assert f"[FAIL] {name}" in out
    code2, _, _ = run_cli(["verify", "--only", checks], capsys)
    assert code2 == 0


def test_unpack_swap_fault_fails_the_split_sgd_check(capsys):
    """Swapped UNPACK halves break the split SGD trajectory; the planner
    checks and the pack/split identity of the codecs do not go through
    UNPACK and pass."""
    checks = "equation-minimality,equation-plan-validity,core-split-pack-identity,kernels-split-sgd"
    code, out, _ = run_cli(["verify", "--inject-fault", "unpack-swap", "--only", checks], capsys)
    assert code == 1
    assert "[FAIL] kernels-split-sgd" in out
    for name in ("equation-minimality", "equation-plan-validity", "core-split-pack-identity"):
        assert f"[PASS] {name}" in out
    code2, _, _ = run_cli(["verify", "--only", checks], capsys)
    assert code2 == 0


def test_prng_shared_fault_fails_the_dropout_and_prng_checks(capsys):
    """Every column drawing stream 0's words breaks DROPOUT against its
    definition and the PRNG against its scalar recurrence; the reductions
    and the split SGD do not draw and pass."""
    checks = "ops-dropout-stats,ops-prng-recurrence,ops-reduce-determinism,kernels-split-sgd"
    code, out, _ = run_cli(["verify", "--inject-fault", "prng-shared", "--only", checks], capsys)
    assert code == 1
    assert "[FAIL] ops-dropout-stats" in out and "[FAIL] ops-prng-recurrence" in out
    assert "[PASS] ops-reduce-determinism" in out and "[PASS] kernels-split-sgd" in out
    code2, _, _ = run_cli(["verify", "--only", checks], capsys)
    assert code2 == 0


def test_inject_fault_is_cleared_when_the_block_raises():
    """A fault turns every C kernel off inside the block; leaving it, also
    by an exception, restores the fault-free results and backend."""
    before = native.backend()
    with pytest.raises(RuntimeError):
        with verify.inject_fault("reduce-order"):
            assert native.backend() == "numpy"
            assert not verify.check_embedding_fused(instances=20).passed
            raise RuntimeError("check crashed")
    assert native.backend() == before
    assert verify.check_embedding_fused(instances=20).passed
    with pytest.raises(ValueError):
        with verify.inject_fault("no-such-fault"):
            pass


def test_verify_seed_determinism(capsys):
    args = ["verify", "--only", "kernels-softmax", "--seed", "11"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


@pytest.mark.parametrize("cmd", [["verify"], ["plan", "relu(T0)"], ["approx-report"],
                                 ["bench"]])
def test_threads_is_usage_error(cmd, capsys):
    """Every call runs on the caller's thread, so no subcommand takes --threads."""
    with pytest.raises(SystemExit) as e:
        main([*cmd, "--threads", "2"])
    assert e.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", [["plan", "T0 + T1", "--args", "4x4,0x4"],
                                 ["bench", "--op", "brgemm", "--m", "0"]],
                         ids=["plan-zero-extent", "bench-zero-extent"])
def test_invalid_input_is_a_one_line_usage_error(cmd, capsys):
    code, out, err = run_cli(cmd, capsys)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "extent" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("cmd, arg", [(["plan", "T0 + T1", "--args", "4xa"], "--args"),
                                      (["bench", "--op", "brgemm", "--count", "0"], "--count"),
                                      (["bench", "--op", "fc", "--repeats", "0"], "--repeats")],
                         ids=["plan-bad-shape", "bench-count-0", "bench-repeats-0"])
def test_malformed_argument_is_a_one_line_usage_error(cmd, arg, capsys):
    with pytest.raises(SystemExit) as e:
        main(cmd)
    assert e.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and arg in err
    assert "Traceback" not in err


def test_seed_is_usage_error_for_plan(capsys):
    """plan draws no random numbers, so it takes no --seed."""
    with pytest.raises(SystemExit) as e:
        main(["plan", "relu(T0)", "--seed", "1"])
    assert e.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_bench_reports_metrics(capsys):
    code, out, _ = run_cli(["bench", "--op", "brgemm", "--m", "16", "--n", "16",
                            "--k", "16", "--count", "4", "--repeats", "2"], capsys)
    assert code == 0
    assert "GFLOP/s" in out


def test_bench_softmax_scratch_comparison(capsys):
    code, out, _ = run_cli(["bench", "--op", "softmax", "--repeats", "2"], capsys)
    assert code == 0
    assert "scratch fused/naive" in out


def test_bench_deterministic_checksums(capsys):
    """Two runs give the same rows and checksums; ``--op all`` has one brgemm
    row per contraction path (K = 7 leaves a padded VNNI tail)."""
    want = {"brgemm": ["brgemm-fp32-8x8x7x2"],
            "all": ["brgemm-fp64-8x8x7x2", "brgemm-fp32-8x8x7x2", "brgemm-bf16-8x8x7x2",
                    "brgemm-bf16-vnni-emulated-8x8x7x2", "brgemm-int8-vnni-8x8x7x2"]}
    for op, names in want.items():
        args = ["bench", "--op", op, "--m", "8", "--n", "8", "--k", "7",
                "--count", "2", "--repeats", "1", "--format", "json", "--seed", "3"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        rows1, rows2 = json.loads(out1), json.loads(out2)
        assert [r["name"] for r in rows1] == [r["name"] for r in rows2]
        assert [r["checksum"] for r in rows1] == [r["checksum"] for r in rows2]
        assert [r["name"] for r in rows1 if r["name"].startswith("brgemm-")] == names


def test_bench_rows_name_the_contraction_backend(monkeypatch, capsys):
    """Contraction rows name the backend of ``brgemm``, softmax rows that of
    the reductions; with ``native._lib`` False both run on numpy."""
    args = ["bench", "--op", "all", "--m", "8", "--n", "8", "--k", "8", "--count", "2",
            "--repeats", "1", "--format", "json"]

    def backends():
        rows = json.loads(run_cli(args, capsys)[1])
        return {r["name"].split("-")[0]: r.get("backend") for r in rows}

    want = "native" if shutil.which(native.CC) else "numpy"
    assert backends() == {"brgemm": want, "fc": want, "softmax": want}
    monkeypatch.setattr(native, "_lib", False)
    assert backends() == {"brgemm": "numpy", "fc": "numpy", "softmax": "numpy"}


def test_approx_report_and_coefficients(tmp_path, capsys):
    coeff = tmp_path / "coeff.json"
    code, out, _ = run_cli(["approx-report", "--coefficients", str(coeff)], capsys)
    assert code == 0
    assert "approx-pade-tanh" in out
    doc = json.loads(coeff.read_text())
    assert "tanh_pade78" in doc and "minimax" in doc


def test_console_script_entrypoint():
    proc = subprocess.run([sys.executable, "-m", "tensorprim.cli", "plan", "relu(T0)"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "temp slots: 1" in proc.stdout


def test_python_dash_m_runs_the_cli_from_a_source_checkout():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "tensorprim", "verify", "--only",
                           "core-bf16-roundtrip"], cwd=root, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH="src"), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "core-bf16-roundtrip" in proc.stdout


def test_usage_error_exit_code():
    proc = subprocess.run([sys.executable, "-m", "tensorprim.cli", "frobnicate"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
