"""A plan's lowered C program against its per-step path, on every backend:
the C kernels as loaded, their default build, and the numpy reference paths
(where nothing is run in C).  BUFFERED without a ``step_hook`` runs each run
of lowered ADD/SUB/MUL/SQUARE/RELU steps as one C call; with a hook it runs
every step on its own; both must give the bits of ``evaluate_naive``."""

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tensorprim import (
    Bcast,
    BinaryKind,
    Buffered,
    DType,
    ReduceAxis,
    ReduceOp,
    ReduceSpec,
    TensorDesc,
    TreeBuilder,
    UnaryKind,
    alloc,
    broadcast,
    create_execution_plan,
    evaluate,
    evaluate_naive,
    from_array,
    native,
    ops,
    plan_equation,
    view_at,
)
from tensorprim import equation

from util import bits_equal

_PAD = np.float32(12345.0)   # finite padding: a C read of it would not rerun
_FINITE = [0.0, 1.0, -1.0, 0.5, -0.75, 2.0, 3.25, -1.5, 0.125, 1.0e-3]
# -0, subnormals and large values (squares overflow to inf) run in C; NaN,
# inf - inf and 0 * inf make a run report a NaN, and the plan reruns per step
_SPECIAL = [-0.0, 1e-40, -1e-42, 1.5e-38, 1e30, -1e30, np.inf, -np.inf, np.nan,
            np.array(0x7FC0_0123, np.uint32).view(np.float32)]
_PER_STEP = lambda step, dead: None   # a step_hook: selects the per-step path


def D(m, n, dtype=DType.FP32, ld=None, bcast=Bcast.NONE):
    return TensorDesc(m, n, m if ld is None else ld, dtype, bcast)


def padded_view(values: np.ndarray, pad: int) -> "ops.TensorView":
    """FP32 ``values`` in a view whose columns are ``pad`` elements apart
    beyond its rows, the padding finite and never to be read."""
    rows, cols = values.shape
    ld = rows + pad
    buf = np.full(ld * cols, _PAD, dtype=np.float32)
    buf.reshape(cols, ld)[:, :rows] = values.T
    return view_at(buf, 0, D(rows, cols, ld=ld))


class Runs:
    """Records the status of every program run (True: done, False: it
    reported a NaN) by wrapping the runner ``native.program`` hands out."""

    def __init__(self, monkeypatch):
        self.done: list[bool] = []
        self.refused = 0
        make = native.program

        def program(*a, **kw):
            run = make(*a, **kw)
            if run is None:
                self.refused += 1
                return None

            def recorded(*args):
                ok = run(*args)
                self.done.append(ok)
                return ok
            return recorded

        monkeypatch.setattr(native, "program", program)


def three_ways(plan, make_args, out_desc, out_pad=0, out_is_arg=None):
    """The output buffers of evaluate_naive, BUFFERED per step and BUFFERED
    (program) of ``plan``, each over fresh arguments from ``make_args``; the
    output is a padded view, or argument ``out_is_arg`` itself."""
    results = []
    for mode in ("naive", "per-step", "program"):
        args = make_args()
        if out_is_arg is not None:
            out = args[out_is_arg]
        else:
            rows, cols = out_desc.rows, out_desc.cols
            ld = rows + out_pad
            buf = np.full(ld * cols, 7, dtype=out_desc.dtype.storage)
            out = view_at(buf, 0, TensorDesc(rows, cols, ld, out_desc.dtype))
        if mode == "naive":
            evaluate_naive(plan.tree, args, out)
        else:
            hook = _PER_STEP if mode == "per-step" else None
            evaluate(plan, Buffered(), args, out, step_hook=hook)
        results.append(out.primary.copy())
    return results


# ---------------------------------------------------------------------------
# random equations
# ---------------------------------------------------------------------------

_EXTENTS = st.sampled_from([1, 2, 3, 5, 8, 16, 17])


class RandomEquation:
    """A random FP32 equation drawn from ``data``: mostly lowered kinds, with
    TANH and EXP (per-step kinds), and, with ``mix``, MATMUL, a ROWS REDUCE
    joined back by ADD, and arguments declared as broadcasts.  Leaves take
    new argument slots or reuse one of the same descriptor."""

    def __init__(self, data, m, n, mix, depth=4):
        self.data, self.mix = data, mix
        self.descs: list[TensorDesc] = []
        self.builder = TreeBuilder([])
        spec = self._gen(m, n, depth)
        self.builder.args = self.descs
        root = self._build(spec)
        if root.is_leaf:
            root = self.builder.unary(UnaryKind.RELU, root)
        self.tree = self.builder.tree(root)

    def _draw(self, strategy):
        return self.data.draw(strategy)

    def _leaf(self, m, n, plain=False):
        bcast = Bcast.NONE
        if self.mix and not plain and self._draw(st.integers(0, 5)) == 0:
            bcast = self._draw(st.sampled_from([Bcast.ROW, Bcast.COL, Bcast.SCALAR]))
        same = [i for i, d in enumerate(self.descs) if (d.rows, d.cols, d.bcast) == (m, n, bcast)]
        if same and self._draw(st.booleans()):
            return ("leaf", self._draw(st.sampled_from(same)))
        self.descs.append(D(m, n, ld=1 if bcast is not Bcast.NONE else None, bcast=bcast))
        return ("leaf", len(self.descs) - 1)

    def _gen(self, m, n, depth, plain=False):
        """The spec of an m x n subtree; ``plain``: a leaf right here is no
        broadcast (a contraction takes no broadcast operand)."""
        kinds = ["leaf", "add", "sub", "mul", "square", "relu", "tanh", "exp"]
        if self.mix:
            kinds += ["matmul", "reduce"]
        kind = "leaf" if depth == 0 else self._draw(st.sampled_from(kinds))
        if kind == "leaf":
            return self._leaf(m, n, plain)
        if kind in ("square", "relu", "tanh", "exp"):
            return (kind, self._gen(m, n, depth - 1))
        if kind == "matmul":
            k = self._draw(_EXTENTS)
            return (kind, self._gen(m, k, depth - 1, True), self._gen(k, n, depth - 1, True))
        if kind == "reduce":   # (m x k) -> m x 1, added to an m x n operand
            k = self._draw(_EXTENTS)
            return ("reduce", self._gen(m, k, depth - 1), self._gen(m, n, depth - 1))
        return (kind, self._gen(m, n, depth - 1), self._gen(m, n, depth - 1))

    def _build(self, t):
        b = self.builder
        tag = t[0]
        if tag == "leaf":
            return b.leaf(t[1])
        if tag in ("square", "relu", "tanh", "exp"):
            return b.unary(UnaryKind[tag.upper()], self._build(t[1]))
        if tag == "matmul":
            return b.binary(BinaryKind.MATMUL, self._build(t[1]), self._build(t[2]))
        if tag == "reduce":
            red = b.unary(UnaryKind.REDUCE, self._build(t[1]),
                          reduce=ReduceSpec(ReduceAxis.ROWS, ReduceOp.SUM))
            return b.binary(BinaryKind.ADD, self._build(t[2]), red)
        return b.binary(BinaryKind[tag.upper()], self._build(t[1]), self._build(t[2]))

    def values(self, special):
        """One physical value array per argument slot, its elements drawn by
        a seeded generator (a list of hundreds of drawn elements would exceed
        what hypothesis draws for one example) from ``_FINITE``, about one
        in eight from ``_SPECIAL`` with ``special``."""
        rng = np.random.default_rng(self._draw(st.integers(0, 2**32 - 1)))
        out = []
        for d in self.descs:
            x = rng.choice(np.array(_FINITE, np.float32), (d.phys_rows, d.phys_cols))
            if special:
                hit = rng.random(x.shape) < 0.125
                x[hit] = rng.choice(np.array(_SPECIAL, np.float32), int(hit.sum()))
            out.append(x)
        return out


def arg_views(eq: RandomEquation, values, pads):
    """Fresh views of the arguments: padded plain views, or broadcasts of a
    padded physical view where declared."""
    views = []
    for d, v, pad in zip(eq.descs, values, pads):
        phys = padded_view(v, pad)
        views.append(phys if d.bcast is Bcast.NONE else broadcast(phys, d.bcast, d.rows, d.cols))
    return views


_PROPERTY = settings(derandomize=True, max_examples=40, deadline=None, database=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture,
                                            HealthCheck.too_slow])


def _check_random(data, m, n, mix, special, native_backend, out_pad, out_choice):
    eq = RandomEquation(data, m, n, mix)
    plan = create_execution_plan(eq.tree)
    values = eq.values(special)
    pads = [data.draw(st.integers(0, 3)) for _ in eq.descs]
    od = plan.out_desc
    # out: a padded FP32 view, a BF16 one, or exactly an argument of its shape
    out_is_arg = None
    plain = [i for i, d in enumerate(eq.descs)
             if (d.rows, d.cols, d.bcast) == (od.rows, od.cols, Bcast.NONE)]
    if out_choice == "arg" and plain:
        out_is_arg = plain[0]
    out_desc = D(od.rows, od.cols, DType.BF16) if out_choice == "bf16" else od
    with pytest.MonkeyPatch.context() as mp:
        runs = Runs(mp)
        naive, per_step, program = three_ways(plan, lambda: arg_views(eq, values, pads),
                                              out_desc, out_pad, out_is_arg)
    assert bits_equal(per_step, naive)
    assert bits_equal(program, naive)
    lowered = sum([r.steps for r in plan.program.schedule if type(r) is equation.Run])
    refused = plan.program.writes_out and (out_is_arg is not None or out_choice == "bf16")
    if native_backend == "numpy" or not lowered:
        assert runs.done == []
    elif refused:
        assert runs.done == [] and runs.refused == 1
    else:
        # every run until one reports a NaN, and none after it
        assert runs.done and all(runs.done[:-1]) and runs.refused == 0
    return runs


@_PROPERTY
@given(data=st.data(), m=_EXTENTS, n=_EXTENTS, out_pad=st.integers(0, 2),
       out_choice=st.sampled_from(["fp32", "fp32", "arg", "bf16"]))
def test_random_finite_equations_equal_the_per_step_path(data, m, n, out_pad, out_choice,
                                                         native_backend):
    """Lowered kinds with TANH and EXP, at padded ld, extents of 1, ``out``
    padded, BF16, or an argument itself; finite arguments."""
    _check_random(data, m, n, False, False, native_backend, out_pad, out_choice)


@_PROPERTY
@given(data=st.data(), m=_EXTENTS, n=_EXTENTS, out_pad=st.integers(0, 2),
       out_choice=st.sampled_from(["fp32", "arg"]))
def test_random_special_values_equal_the_per_step_path(data, m, n, out_pad, out_choice,
                                                       native_backend):
    """NaN (two payloads), +-Inf, -0 and subnormal arguments: a run that
    makes a NaN reruns the plan per step, and either way the bits are the
    per-step ones."""
    _check_random(data, m, n, False, True, native_backend, out_pad, out_choice)


@_PROPERTY
@given(data=st.data(), m=_EXTENTS, n=_EXTENTS, out_pad=st.integers(0, 2),
       special=st.booleans())
def test_random_mixed_plans_equal_the_per_step_path(data, m, n, out_pad, special,
                                                    native_backend):
    """Lowered steps between MATMUL, ROWS REDUCE and broadcast arguments,
    runs of several extents."""
    _check_random(data, m, n, True, special, native_backend, out_pad, "fp32")


# ---------------------------------------------------------------------------
# what is lowered, and when the program runs
# ---------------------------------------------------------------------------

def lowered_kinds(plan):
    """The kinds of the plan's steps that its program runs, in order."""
    prog = plan.program or equation._lower(plan)
    kinds, steps = [], iter(plan.steps)
    for item in prog.schedule:
        if type(item) is equation.Run:
            kinds += [next(steps).node.kind for _ in range(item.steps)]
        else:
            assert next(steps) is item
    return kinds


def test_only_plain_fp32_add_sub_mul_square_relu_steps_are_lowered():
    plan = plan_equation("relu(T0 + T1) * T0 - square(T1)", [D(3, 5)] * 2)
    assert lowered_kinds(plan) == [BinaryKind.ADD, UnaryKind.RELU, BinaryKind.MUL,
                                   UnaryKind.SQUARE, BinaryKind.SUB]
    prog = equation._lower(plan)
    assert sum(type(r) is equation.Run for r in prog.schedule) == 1
    assert prog.writes_out and prog.reads == (0, 1) and prog.code.size == 4 * 5
    # other kinds, FP64 or BF16 steps, broadcast arguments (declared, or
    # joined from a smaller extent) and a BF16 child stay kernel calls
    for text, descs in [("tanh(T0) / exp(T1)", [D(3, 5)] * 2),
                        ("T0 + T1", [D(3, 5, DType.FP64)] * 2),
                        ("T0 + T1", [D(3, 5, DType.BF16)] * 2),
                        ("T0 + T1", [D(3, 5), D(3, 5, ld=1, bcast=Bcast.ROW)]),
                        ("T0 * T1", [D(3, 5), D(1, 5)]),
                        ("inc(T0) + T1", [D(3, 5, DType.BF16), D(3, 5)])]:
        assert lowered_kinds(plan_equation(text, descs)) == [], text
    # a MATMUL and the steps around it
    mixed = plan_equation("T0 matmul T1 + square(T2)", [D(3, 4), D(4, 5), D(3, 5)])
    assert lowered_kinds(mixed) == [UnaryKind.SQUARE, BinaryKind.ADD]


def test_runs_split_at_kernel_calls_and_extent_changes():
    plan = plan_equation("tanh(T0 + T1) * T1 + square(T2 matmul T3)",
                         [D(4, 4), D(4, 4), D(4, 2), D(2, 4)])
    prog = equation._lower(plan)
    runs = [(r.m, r.n, r.steps) for r in prog.schedule if type(r) is equation.Run]
    assert sum(s for _, _, s in runs) == 4 and prog.code.size == 4 * 4
    assert all((m, n) == (4, 4) for m, n, _ in runs)
    # the value of T0 + T1 is read by the TANH kernel call: its run publishes it
    first = next(r for r in prog.schedule if type(r) is equation.Run)
    assert [d.rows for _, d in first.live] == [4]


def test_the_program_is_lowered_once_and_cached_on_the_plan(monkeypatch):
    plan = plan_equation("T0 * T1 - T0", [D(2, 3)] * 2)
    assert plan.program is None
    calls = []
    lower = equation._lower
    monkeypatch.setattr(equation, "_lower", lambda p: calls.append(p) or lower(p))
    x = from_array(np.ones((2, 3), np.float32))
    for _ in range(3):
        evaluate(plan, Buffered(), [x, x], alloc(D(2, 3)))
    assert len(calls) == 1 and plan.program is not None
    # a step_hook neither lowers nor runs the program
    fresh = plan_equation("T0 * T1 - T0", [D(2, 3)] * 2)
    evaluate(fresh, Buffered(), [x, x], alloc(D(2, 3)), step_hook=_PER_STEP)
    assert fresh.program is None


def test_lowered_steps_enter_no_primitive(native_backend):
    """Where C runs, a plan of lowered steps alone makes no kernel call;
    on the numpy backend every step is one."""
    plan = plan_equation("relu(T0 - T1) * square(T1) + T0", [D(7, 9)] * 2)
    rng = np.random.default_rng(1)
    args = [from_array(rng.standard_normal((7, 9)).astype(np.float32)) for _ in range(2)]
    out = alloc(D(7, 9))
    called = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("apply_unary", "apply_binary", "apply_ternary"):
            mp.setattr(ops, name, lambda *a, _fn=getattr(ops, name), **k:
                       called.append(a[0]) or _fn(*a, **k))
        evaluate(plan, Buffered(), args, out)
    assert len(called) == (5 if native_backend == "numpy" else 0)
    want = alloc(D(7, 9))
    evaluate_naive(plan.tree, args, want)
    assert bits_equal(out.primary, want.primary)


def _nan_plan():
    plan = plan_equation("tanh(T0 * T1) + (T1 - T0)", [D(4, 3)] * 2)
    x = np.arange(12, dtype=np.float32).reshape(4, 3)
    y = x.copy()
    y[2, 1] = np.array(0x7FC0_0042, np.uint32).view(np.float32)
    return plan, x, y


def test_a_run_that_makes_a_nan_reruns_the_plan_per_step(native_backend):
    plan, x, y = _nan_plan()
    kernel_calls = []
    got = alloc(D(4, 3))
    with pytest.MonkeyPatch.context() as mp:
        runs = Runs(mp)
        binary = ops.apply_binary
        mp.setattr(ops, "apply_binary",
                   lambda *a, **k: kernel_calls.append(a[0].value) or binary(*a, **k))
        evaluate(plan, Buffered(), [from_array(x), from_array(y)], got)
    want = alloc(D(4, 3))
    evaluate_naive(plan.tree, [from_array(x), from_array(y)], want)
    assert bits_equal(got.primary, want.primary)
    # the first run, T0 * T1, reports the NaN; the rerun, like the numpy
    # backend, runs MUL, SUB and ADD as kernel calls
    assert runs.done == ([] if native_backend == "numpy" else [False])
    assert kernel_calls == ["mul", "sub", "add"]


def test_operands_c_cannot_take_select_the_per_step_path(native_backend):
    """``out`` overlapping an argument, a broadcast view for an argument
    declared plain, an unaligned argument, or a BF16 ``out``: the program is
    refused before any run, and the bits are the per-step ones."""
    plan = plan_equation("(T0 + T1) * T1", [D(4, 4)] * 2)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 4)).astype(np.float32)
    y = rng.standard_normal((4, 4)).astype(np.float32)

    def shifted_out():   # out starts one column into T0's buffer
        big = np.zeros(24, np.float32)
        big[:16] = x.T.reshape(-1)
        return [view_at(big, 0, D(4, 4)), from_array(y)], view_at(big, 4, D(4, 4))

    def unaligned_arg():
        raw = np.zeros(16 * 4 + 1, np.uint8)[1:].view(np.float32)
        v = view_at(raw, 0, D(4, 4))
        v.as2d()[:, :] = x
        return [v, from_array(y)], alloc(D(4, 4))

    def broadcast_arg():
        return [from_array(x), broadcast(from_array(y[:1]), Bcast.ROW, 4, 4)], alloc(D(4, 4))

    def bf16_out():
        return [from_array(x), from_array(y)], alloc(D(4, 4, DType.BF16))

    for case in (shifted_out, unaligned_arg, broadcast_arg, bf16_out):
        outs = []
        for hook in (None, _PER_STEP):
            args, out = case()
            with pytest.MonkeyPatch.context() as mp:
                runs = Runs(mp)
                evaluate(plan, Buffered(), args, out, step_hook=hook)
            outs.append(out.primary.copy())
            assert runs.done == [], case.__name__
            assert runs.refused == (hook is None), case.__name__
        assert bits_equal(outs[0], outs[1]), case.__name__


def test_threads_share_one_plan(native_backend):
    """Scratch and the operand table are made per evaluation: four threads
    evaluating one plan at once get the bits of one evaluation."""
    plan = plan_equation("square(T0 - T1) * relu(T1) + tanh(T0)", [D(33, 17)] * 2)
    rng = np.random.default_rng(4)
    args = [from_array(rng.standard_normal((33, 17)).astype(np.float32)) for _ in range(2)]
    want = alloc(D(33, 17))
    evaluate_naive(plan.tree, args, want)
    outs = [alloc(D(33, 17)) for _ in range(4)]

    def work(out):
        for _ in range(20):
            evaluate(plan, Buffered(), args, out)

    threads = [threading.Thread(target=work, args=(o,)) for o in outs]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert all(bits_equal(o.primary, want.primary) for o in outs)


@pytest.mark.parametrize("text", ["relu(T0) * T1", "T0 + T1", "T0 - T1", "T0 * T1",
                                  "square(T0) * T1", "relu(T0 - T1)"])
def test_signed_zeros_and_subnormals_in_c(text, native_backend):
    """RELU gives +0 for -0 (numpy's maximum(-0, +0)), the signs of zero
    sums, differences and products are numpy's, and subnormals are neither
    flushed nor read as zero: each opcode's bits, seen through a plan that
    keeps them (a product by 1 keeps the sign of a zero)."""
    plan = plan_equation(text, [D(1, 8)] * 2)
    x = np.array([[-0.0, 0.0, -0.0, 1e-40, -1e-40, 1e-20, -2.0, 3.0]], np.float32)
    y = np.array([[1.0, -0.0, 0.0, 1.0, 1e-40, 1e-20, 1.0, -1.0]], np.float32)
    got, want = alloc(D(1, 8)), alloc(D(1, 8))
    evaluate(plan, Buffered(), [from_array(x), from_array(y)], got)
    evaluate_naive(plan.tree, [from_array(x), from_array(y)], want)
    assert bits_equal(got.primary, want.primary)
