"""Tests of the benchmark itself: its gates must catch a single wrong bit,
and its tracer must see every layer without changing a result.

    python3 -m pytest -q perfbench
"""

import io
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import workloads
from tracer import LAYER, Tracer, layer_metrics

tp = run.import_library()
PER_LAYER = {m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]}


def flip_bit(arr: np.ndarray) -> None:
    arr.view(np.uint8)[0] ^= np.uint8(1)


@pytest.fixture(scope="module")
def sparse():
    w = workloads.SparseUpdate(tp, 5)
    expected, problems, changed = run.gate(w, 5)
    assert problems == [] and not changed
    return w, expected


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_oracle_rejects_one_flipped_output_bit(name):
    w = workloads.WORKLOADS[name](tp, 3)
    w.step(0)
    w.check(0)
    flip_bit(w.outputs(0)[0])
    with pytest.raises(workloads.GateError):
        w.check(0)


def test_timed_loop_counts_a_corrupted_step(sparse):
    w, expected = sparse
    step = w.step

    def corrupt_third(i):
        step(i)
        if i == 2:
            flip_bit(w.outputs(i)[0])

    w.step = corrupt_third
    try:
        times, attempted, failed = run.timed_loop(w, expected, 0.0, 5)
    finally:
        del w.step
    assert (attempted, failed, len(times)) == (5, 1, 5)


def test_timed_loop_counts_a_raising_step(sparse):
    w, expected = sparse

    def boom(i):
        raise RuntimeError("injected")

    w.step = boom
    try:
        times, attempted, failed = run.timed_loop(w, expected, 0.0, 3, log=io.StringIO())
    finally:
        del w.step
    assert (attempted, failed, times) == (3, 3, [])


def test_default_seed_digests_are_checked(sparse, monkeypatch):
    w, _ = sparse
    monkeypatch.setattr(run, "recorded_digests", lambda: {w.name: ["0" * 32]})
    _, problems, changed = run.gate(workloads.SparseUpdate(tp, 5), 5)
    assert changed and problems


def module_bindings():
    return {(name, attr): value for name, mod in sys.modules.items()
            if name == "tensorprim" or name.startswith("tensorprim.")
            for attr, value in vars(mod).items() if callable(value)}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracer_sees_the_named_layers_and_changes_no_bit(name):
    w = workloads.WORKLOADS[name](tp, 4)
    plain = []
    for i in range(2):
        w.step(i)
        plain.append(workloads.digest(w.outputs(i)))
    before = module_bindings()
    init = tp.TensorView.__init__
    tracer = Tracer()
    with tracer:
        assert module_bindings() != before
        traced = []
        for i in range(2):
            w.step(i)
            traced.append(workloads.digest(w.outputs(i)))
    assert traced == plain
    assert module_bindings() == before and tp.TensorView.__init__ is init
    seen = {s[LAYER] for s in tracer.spans}
    assert set(w.layers) <= seen
    assert tracer.views > 0
    assert set(layer_metrics(tracer, 2)) == PER_LAYER - {"trace.overhead_frac"}


def test_calls_that_raise_count_as_errors():
    w = workloads.Dense(tp, 0)
    tracer = Tracer()
    with tracer:
        w.step(0)
        for call in (lambda: tp.brgemm(None, None, None),
                     lambda: tp.apply_unary(None, None, None),
                     lambda: tp.create_execution_plan(None),
                     lambda: tp.evaluate(None, tp.Buffered(), [], None)):
            with pytest.raises(Exception):
                call()
    m = layer_metrics(tracer, 1)
    assert m["contraction.errors"] == 1 and m["ops.errors"] == 1
    assert m["equation.errors"] == 2 and m["equation.evaluate.calls"] == 1
    assert m["contraction.calls"] == 16 + 8 + 3 + 1
    assert m["contraction.batch_entries"] == 16 * 4 + 8 * 5 + 3 * 8


def test_dense_contraction_counts():
    w = workloads.Dense(tp, 0)
    tracer = Tracer()
    with tracer:
        w.step(0)
    m = layer_metrics(tracer, 1)
    # FC: 16 blocks of 4 entries; conv: 8 position blocks of 5 taps; 3 brgemm of 8
    assert m["contraction.calls"] == 16 + 8 + 3
    assert m["contraction.batch_entries"] == 16 * 4 + 8 * 5 + 3 * 8
    fc = 2 * 128 ** 3
    conv = 2 * 32 * 64 * 32 * 5
    assert m["contraction.gflop"] == pytest.approx((fc + conv + 3 * 2 * 64 ** 3 * 8) / 1e9)
    assert m["ops.transform.calls"] == 1 and m["ops.unary.calls"] == 16


def test_equations_have_the_requested_size():
    rng = np.random.default_rng(0)
    for n in (50, 51, 175, 300):
        text, tree = workloads.random_equation(rng, n, 6)

        def count(t):
            return 1 if t[0] == "arg" else 1 + sum(count(c) for c in t[1:])

        assert count(tree) == n
        assert len(tp.parse_equation(text, [tp.TensorDesc(4, 4, 4, tp.DType.FP32)] * 6).nodes()) == n


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dense",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
