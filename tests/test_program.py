"""A plan's lowered C program against its per-step path, on every backend:
the C kernels as loaded, their default build, and the numpy reference paths
(where nothing is run in C).  BUFFERED without a ``step_hook`` runs each run
of lowered steps (ADD/SUB/MUL/DIV/MAX/SQUARE/RELU/RSQRT/MULADD/NMULADD,
FP32 <-> FP64 conversions, ROWS and COLS SUM folds, each FP32 or FP64 over
its own extent, and RESHAPEs, which emit no code) as one C call, each
argument read as the view passed lays it out (plain, ROW, COL or SCALAR)
and each smaller operand by broadcast; with a hook it runs every step on
its own; both must give the bits of ``evaluate_naive``."""

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tensorprim import (
    Bcast,
    BinaryKind,
    Buffered,
    DType,
    Hybrid,
    ReduceAxis,
    ReduceOp,
    ReduceSpec,
    TensorDesc,
    TernaryKind,
    TileFused,
    TreeBuilder,
    UnaryKind,
    alloc,
    broadcast,
    create_execution_plan,
    evaluate,
    evaluate_naive,
    from_array,
    kernels,
    native,
    ops,
    plan_equation,
    view_at,
)
from tensorprim import equation
from tensorprim.dtypes import narrow

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
    """FP32 (or FP64) ``values`` in a view whose columns are ``pad``
    elements apart beyond its rows, the padding finite and never to be
    read."""
    rows, cols = values.shape
    ld = rows + pad
    dtype = DType.FP64 if values.dtype == np.float64 else DType.FP32
    buf = np.full(ld * cols, _PAD, dtype=values.dtype)
    buf.reshape(cols, ld)[:, :rows] = values.T
    return view_at(buf, 0, D(rows, cols, dtype, ld=ld))


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
_UNARY = ("square", "relu", "rsqrt", "tanh", "exp")
_BINARY = ("add", "sub", "mul", "div", "max")
_TERNARY = ("muladd", "nmuladd")
# the folds a program runs, and one that stays a kernel call
_REDUCES = [ReduceSpec(ReduceAxis.ROWS, ReduceOp.SUM), ReduceSpec(ReduceAxis.COLS, ReduceOp.SUM),
            ReduceSpec(ReduceAxis.ROWS, ReduceOp.SUM, squared=True),
            ReduceSpec(ReduceAxis.ROWS, ReduceOp.MAX)]


class RandomEquation:
    """A random FP32 or FP64 equation drawn from ``data``: mostly lowered
    kinds, with TANH and EXP (per-step kinds), and, with ``mix``, MATMUL, a
    ROWS (plain, squared or MAX) or COLS REDUCE joined back by ADD, binary
    operands of a smaller extent (1 x n, m x 1, 1 x 1, a subtree or an
    argument) that the join broadcasts, and arguments declared as ROW, COL
    or SCALAR broadcasts.  Leaves take new argument slots or reuse one of
    the same descriptor.  A broadcast operand of a MATMUL is an error at
    build (asserted), and the MATMUL then reads the RELU of that leaf."""

    def __init__(self, data, m, n, mix, dtype=DType.FP32, depth=4):
        self.data, self.mix, self.dtype = data, mix, dtype
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

    def _leaf(self, m, n):
        bcast = Bcast.NONE
        if self.mix and self._draw(st.integers(0, 5)) == 0:
            bcast = self._draw(st.sampled_from([Bcast.ROW, Bcast.COL, Bcast.SCALAR]))
        same = [i for i, d in enumerate(self.descs) if (d.rows, d.cols, d.bcast) == (m, n, bcast)]
        if same and self._draw(st.booleans()):
            return ("leaf", self._draw(st.sampled_from(same)))
        ld = 1 if bcast is not Bcast.NONE else None
        self.descs.append(D(m, n, self.dtype, ld=ld, bcast=bcast))
        return ("leaf", len(self.descs) - 1)

    def _gen(self, m, n, depth):
        """The spec of an m x n subtree."""
        kinds = ["leaf", *_UNARY, *_BINARY, *_TERNARY]
        if self.mix:
            kinds += ["matmul", "reduce"]
        kind = "leaf" if depth == 0 else self._draw(st.sampled_from(kinds))
        if kind == "leaf":
            return self._leaf(m, n)
        if kind in _UNARY:
            return (kind, self._gen(m, n, depth - 1))
        if kind == "matmul":
            k = self._draw(_EXTENTS)
            return (kind, self._gen(m, k, depth - 1), self._gen(k, n, depth - 1))
        if kind == "reduce":   # m x k -> m x 1 or k x n -> 1 x n, added to an m x n operand
            k = self._draw(_EXTENTS)
            spec = self._draw(st.sampled_from(_REDUCES))
            shape = (k, n) if spec.axis is ReduceAxis.COLS else (m, k)
            return ("reduce", spec, self._gen(*shape, depth - 1), self._gen(m, n, depth - 1))
        if kind in _TERNARY:
            return (kind, *[self._gen(m, n, depth - 1) for _ in range(3)])
        left = right = (m, n)
        if self.mix and self._draw(st.integers(0, 2)) == 0:   # one read by broadcast
            small = self._draw(st.sampled_from([(1, n), (m, 1), (1, 1)]))
            left, right = (small, right) if self._draw(st.booleans()) else (left, small)
        return (kind, self._gen(*left, depth - 1), self._gen(*right, depth - 1))

    def _build(self, t):
        b = self.builder
        tag = t[0]
        if tag == "leaf":
            return b.leaf(t[1])
        if tag in _UNARY:
            return b.unary(UnaryKind[tag.upper()], self._build(t[1]))
        if tag == "matmul":
            operands = [self._build(t[1]), self._build(t[2])]
            wide = [v.is_leaf and self.descs[v.arg_slot].bcast is not Bcast.NONE
                    for v in operands]
            if any(wide):
                with pytest.raises(equation.EquationError, match="no broadcast operand"):
                    b.binary(BinaryKind.MATMUL, *operands)
                operands = [b.unary(UnaryKind.RELU, v) if w else v for v, w in zip(operands, wide)]
            return b.binary(BinaryKind.MATMUL, *operands)
        if tag == "reduce":
            red = b.unary(UnaryKind.REDUCE, self._build(t[2]), reduce=t[1])
            return b.binary(BinaryKind.ADD, self._build(t[3]), red)
        if tag in _TERNARY:
            return b.ternary(TernaryKind[tag.upper()], *[self._build(c) for c in t[1:]])
        return b.binary(BinaryKind[tag.upper()], self._build(t[1]), self._build(t[2]))

    def values(self, special):
        """One physical value array per argument slot, its elements drawn by
        a seeded generator (a list of hundreds of drawn elements would exceed
        what hypothesis draws for one example) from ``_FINITE``, about one
        in eight from ``_SPECIAL`` with ``special``."""
        rng = np.random.default_rng(self._draw(st.integers(0, 2**32 - 1)))
        dtype = self.dtype.storage
        out = []
        for d in self.descs:
            x = rng.choice(np.array(_FINITE, dtype), (d.phys_rows, d.phys_cols))
            if special:
                hit = rng.random(x.shape) < 0.125
                x[hit] = rng.choice(np.array(_SPECIAL, dtype), int(hit.sum()))
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


_DTYPES = st.sampled_from([DType.FP32, DType.FP64])


def _check_random(data, m, n, mix, special, native_backend, out_pad, out_choice):
    eq = RandomEquation(data, m, n, mix, data.draw(_DTYPES))
    plan = create_execution_plan(eq.tree)
    values = eq.values(special)
    pads = [data.draw(st.integers(0, 3)) for _ in eq.descs]
    od = plan.out_desc
    # out: a padded view, a BF16 one, or exactly an argument of its shape
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
    # out overlapping an argument or of another dtype than the root's, or
    # a REDUCE step reading a ROW or SCALAR argument (a fold reads rows at
    # unit stride), refuses the program
    refused = (plan.program.out_dtype is not None and (out_is_arg is not None
                                                       or out_choice == "bf16")
               or any(eq.descs[i].bcast in (Bcast.ROW, Bcast.SCALAR)
                      for i in plan.program.folds))
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
    """Lowered kinds with TANH and EXP, FP32 or FP64, at padded ld, extents
    of 1, ``out`` padded, BF16, or an argument itself; finite arguments
    (RSQRT of a negative, or a division 0/0, still makes a NaN)."""
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
    """Lowered steps between MATMUL, ROWS REDUCE and ROW, COL and SCALAR
    arguments (read in C), runs of several extents."""
    _check_random(data, m, n, True, special, native_backend, out_pad, "fp32")


@_PROPERTY
@given(data=st.data(), m=_EXTENTS, n=_EXTENTS)
def test_a_run_publishes_exactly_the_values_kernel_steps_read(data, m, n):
    """Each ``Run``'s ``live`` holds the (slot, descriptor) of exactly the
    lowered nodes whose parent is a kernel step, worked out from the plan's
    steps and the nodes' children."""
    eq = RandomEquation(data, m, n, True, data.draw(_DTYPES))
    plan = create_execution_plan(eq.tree)
    schedule = plan.program.schedule
    run_of, steps = {}, iter(plan.steps)   # lowered node -> its run's place in the schedule
    for i, item in enumerate(schedule):
        if type(item) is equation.Run:
            for _ in range(item.steps):
                run_of[next(steps).node] = i
        else:
            assert next(steps) is item
    assert all((equation._step_record(s.node) is not None) == (s.node in run_of)
               for s in plan.steps)
    slot_of = {s.node: s.output[1] for s in plan.steps}
    want = {i: set() for i, item in enumerate(schedule) if type(item) is equation.Run}
    for s in plan.steps:
        if s.node not in run_of:
            for c in s.node.children:
                if c in run_of:
                    want[run_of[c]].add((slot_of[c], c.out_desc))
    for i, published in want.items():
        live = schedule[i].live
        assert len(set(live)) == len(live) and set(live) == published


def equal_but_for_nan_sign_and_payload(got: np.ndarray, want: np.ndarray) -> bool:
    """Bitwise equal, but for README's "NaN sign and payload" exception:
    where two NaNs meet, numpy's vector and scalar loops may keep different
    ones, so an element's bits may differ only where both hold a NaN."""
    differ = got.view(f"u{got.itemsize}") != want.view(f"u{want.itemsize}")
    return bool(np.isnan(got[differ]).all() and np.isnan(want[differ]).all())


@_PROPERTY
@given(data=st.data(), m=_EXTENTS, n=_EXTENTS, mix=st.booleans(), special=st.booleans(),
       tm=st.sampled_from([1, 2, 3, 16]), tn=st.sampled_from([1, 2, 3, 16]),
       budget=st.sampled_from([1, equation._TILE_BLOCK_BYTES]))
def test_random_equations_tile_to_the_naive_bits(data, m, n, mix, special, tm, tn, budget,
                                                native_backend):
    """Hybrid(tm, tn), and TileFused(tm, tn) where every step is fusable,
    give ``evaluate_naive``'s bits for random equations, finite or with
    ``_SPECIAL`` values, tiles of 1 to 16 against extents of 1 to 17, each
    block one tile (a budget of 1 byte) or the whole region; where two NaNs
    meet, README's exception holds (a few examples in thousands with two
    NaN payloads show it)."""
    eq = RandomEquation(data, m, n, mix, data.draw(_DTYPES))
    plan = create_execution_plan(eq.tree)
    values = eq.values(special)
    pads = [data.draw(st.integers(0, 3)) for _ in eq.descs]
    strategies = [Hybrid(tm, tn)]
    if all(s.node.fusable() for s in plan.steps):
        strategies.append(TileFused(tm, tn))
    want = alloc(plan.out_desc)
    evaluate_naive(plan.tree, arg_views(eq, values, pads), want)
    for strategy in strategies:
        got = alloc(plan.out_desc)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(equation, "_TILE_BLOCK_BYTES", budget)
            evaluate(plan, strategy, arg_views(eq, values, pads), got)
        assert equal_but_for_nan_sign_and_payload(got.primary, want.primary), strategy


# ---------------------------------------------------------------------------
# what is lowered, and when the program runs
# ---------------------------------------------------------------------------

def records(plan):
    """The step records of the plan's program, one row each."""
    return plan.program.code.reshape(-1, equation._STEP_LEN)


def lowered_kinds(plan):
    """The kinds of the plan's steps that its program runs, in order."""
    prog = plan.program
    kinds, steps = [], iter(plan.steps)
    for item in prog.schedule:
        if type(item) is equation.Run:
            kinds += [next(steps).node.kind for _ in range(item.steps)]
        else:
            assert next(steps) is item
    return kinds


def test_float_elementwise_steps_of_one_dtype_are_lowered():
    plan = plan_equation("relu(T0 + T1) * T0 - square(T1) / rsqrt(T0)", [D(3, 5)] * 2)
    assert sorted([k.value for k in lowered_kinds(plan)]) == [
        "add", "div", "mul", "relu", "rsqrt", "square", "sub"]
    prog = plan.program
    assert sum(type(r) is equation.Run for r in prog.schedule) == 1
    assert prog.out_dtype is DType.FP32 and prog.reads == (0, 1) and prog.folds == ()
    assert prog.code.size == equation._STEP_LEN * 7
    # MAX, MULADD and NMULADD, all FP64, over arguments declared ROW, COL
    # and SCALAR: FP64 steps (type 1) of the plan's extent
    b = TreeBuilder([D(3, 5, DType.FP64), D(3, 5, DType.FP64, ld=1, bcast=Bcast.ROW),
                     D(3, 5, DType.FP64, bcast=Bcast.COL),
                     D(3, 5, DType.FP64, ld=1, bcast=Bcast.SCALAR)])
    inner = b.ternary(TernaryKind.MULADD, b.leaf(0), b.leaf(1), b.leaf(2))
    outer = b.ternary(TernaryKind.NMULADD, inner, b.leaf(3), b.leaf(0))
    plan = create_execution_plan(b.tree(b.binary(BinaryKind.MAX, outer, b.leaf(3))))
    assert lowered_kinds(plan) == [TernaryKind.MULADD, TernaryKind.NMULADD, BinaryKind.MAX]
    prog = plan.program
    assert [r.steps for r in prog.schedule] == [3]
    assert [tuple(r[:7]) for r in records(plan)] == [(8, 1, 3, 5, 0, 0, 0), (9, 1, 3, 5, 0, 0, 0),
                                                     (6, 1, 3, 5, 0, 0, 0)]
    assert prog.out_dtype is DType.FP64 and prog.reads == (0, 1, 2, 3)
    # a join from a smaller extent reads the smaller value by broadcast: a
    # 1 x n one as ROW (1), m x 1 as COL (2), 1 x 1 as SCALAR (3)
    for descs, kind in [([D(3, 5), D(1, 5)], 1), ([D(3, 5), D(3, 1)], 2),
                        ([D(3, 5, DType.FP64), D(1, 1, DType.FP64)], 3)]:
        plan = plan_equation("T0 * relu(T1)", descs)
        assert lowered_kinds(plan) == [UnaryKind.RELU, BinaryKind.MUL]
        relu, mul = records(plan)
        assert tuple(relu[2:7]) == (descs[1].rows, descs[1].cols, 0, 0, 0)
        assert tuple(mul[2:7]) == (3, 5, 0, kind, 0)
    # the transcendental and other kinds, BF16 steps, a BF16 child, steps
    # of mixed FP32 and FP64 and an IDENTITY to its own dtype stay kernel
    # calls
    unary = ["tanh", "sigmoid", "gelu", "exp", "sqrt", "reciprocal", "inc", "identity"]
    for text, descs in [*[(f"{name}(T0)", [D(3, 5)]) for name in unary],
                        ("T0 + T1", [D(3, 5, DType.BF16)] * 2),
                        ("inc(T0) + T1", [D(3, 5, DType.BF16), D(3, 5)]),
                        ("T0 + T1", [D(3, 5, DType.FP64), D(3, 5)]),
                        ("T0 - T1", [D(3, 5), D(3, 5, DType.FP64, ld=1, bcast=Bcast.ROW)])]:
        assert lowered_kinds(plan_equation(text, descs)) == [], text
    # a MATMUL and the steps around it
    mixed = plan_equation("T0 matmul T1 + square(T2)", [D(3, 4), D(4, 5), D(3, 5)])
    assert lowered_kinds(mixed) == [UnaryKind.SQUARE, BinaryKind.ADD]


def test_conversions_folds_and_reshapes_are_lowered():
    """An IDENTITY to the other float dtype is a CONVERT over its extent,
    a ROWS (plain or squared) or COLS SUM reduce of FP32 or FP64 a fold
    over its operand's extent, and a RESHAPE of a non-leaf emits no code and
    keeps its child's slot; other reduces, a BF16 operand and a RESHAPE of
    a leaf or at the root stay kernel calls."""
    rows = ReduceSpec(ReduceAxis.ROWS, ReduceOp.SUM)
    b = TreeBuilder([D(6, 4), D(2, 3, DType.FP64)])
    sums = b.unary(UnaryKind.REDUCE, b.leaf(0), reduce=rows)                 # 6 x 1
    wide = b.reshape(b.unary(UnaryKind.IDENTITY, sums, dtype=DType.FP64), 2, 3)
    col = b.unary(UnaryKind.REDUCE, wide, reduce=ReduceSpec(ReduceAxis.COLS, ReduceOp.SUM))
    root = b.unary(UnaryKind.IDENTITY, b.binary(BinaryKind.ADD, col, b.leaf(1)),
                   dtype=DType.FP32)
    plan = create_execution_plan(b.tree(root))
    assert [r.steps for r in plan.program.schedule] == [5]
    assert [tuple(r[:7]) for r in records(plan)] == [
        (11, 0, 6, 4, 0, 0, 0), (10, 1, 6, 1, 0, 0, 0), (13, 1, 2, 3, 0, 0, 0),
        (0, 1, 2, 3, 1, 0, 1), (10, 0, 2, 3, 0, 0, 0)]
    assert plan.program.folds == (0,) and plan.program.out_dtype is DType.FP32
    by_kind = {s.node.kind: s for s in plan.steps if s.node.kind is UnaryKind.TRANSFORM}
    reshape = by_kind[UnaryKind.TRANSFORM]
    assert reshape.output == reshape.inputs[0]
    # the squared ROWS fold; MAX, ALL and squared COLS folds and a BF16
    # operand stay kernel calls
    for spec, dtype, code in [(ReduceSpec(ReduceAxis.ROWS, ReduceOp.SUM, True), DType.FP32, 12),
                              (ReduceSpec(ReduceAxis.ROWS, ReduceOp.MAX), DType.FP32, None),
                              (ReduceSpec(ReduceAxis.ALL, ReduceOp.SUM), DType.FP64, None),
                              (ReduceSpec(ReduceAxis.COLS, ReduceOp.SUM, True), DType.FP32, None),
                              (rows, DType.BF16, None)]:
        b = TreeBuilder([D(3, 4, dtype)])
        red = b.unary(UnaryKind.REDUCE, b.leaf(0), reduce=spec)
        assert equation._step_record(red) == (None if code is None else (code, int(dtype is DType.FP64), 3, 4,
                                                       0, 0, 0)), spec
    b = TreeBuilder([D(3, 4)])
    assert equation._step_record(b.reshape(b.leaf(0), 4, 3)) is None
    plan = create_execution_plan(b.tree(b.reshape(b.unary(UnaryKind.RELU, b.leaf(0)), 4, 3)))
    assert lowered_kinds(plan) == [UnaryKind.RELU] and plan.program.out_dtype is None
    # an IDENTITY converts only to FP32 or FP64
    for kind, dtype in [(UnaryKind.RELU, DType.FP64), (UnaryKind.IDENTITY, DType.BF16)]:
        with pytest.raises(equation.EquationError, match="converts"):
            TreeBuilder([D(3, 4)]).unary(kind, TreeBuilder([D(3, 4)]).leaf(0), dtype=dtype)


def test_a_contraction_with_a_broadcast_operand_is_an_error_at_build():
    """A MATMUL or GEMM reads dense blocks: a broadcast operand fails the
    spec (InvalidSpecError 'shape') and so the build (EquationError), not
    every evaluation."""
    with pytest.raises(equation.EquationError, match="no broadcast operand"):
        plan_equation("T0 matmul T1", [D(2, 3, ld=1, bcast=Bcast.ROW), D(3, 2)])
    with pytest.raises(ops.InvalidSpecError) as e:
        ops.kernel_for(TernaryKind.GEMM, (D(2, 3), D(3, 2, bcast=Bcast.COL), D(2, 2)))
    assert e.value.code == "shape"


def test_runs_split_at_kernel_calls_alone():
    plan = plan_equation("tanh(T0 + T1) * T1 + square(T2 matmul T3)",
                         [D(4, 4), D(4, 4), D(4, 2), D(2, 4)])
    prog = plan.program
    runs = [r.steps for r in prog.schedule if type(r) is equation.Run]
    assert sum(runs) == 4 and prog.code.size == equation._STEP_LEN * 4
    assert all(tuple(r[2:4]) == (4, 4) for r in records(plan))
    # the value of T0 + T1 is read by the TANH kernel call: its run publishes it
    first = next(r for r in prog.schedule if type(r) is equation.Run)
    assert [d.rows for _, d in first.live] == [4]
    # FP32 and FP64 steps, and steps of several extents, join one run: each
    # step carries its own type and extent
    b = TreeBuilder([D(4, 4), D(4, 4, DType.FP64), D(1, 4, DType.FP64)])
    wide = b.unary(UnaryKind.IDENTITY, b.unary(UnaryKind.SQUARE, b.leaf(0)), dtype=DType.FP64)
    plan = create_execution_plan(b.tree(b.binary(BinaryKind.MUL,
                                                 b.unary(UnaryKind.RELU, b.leaf(2)), wide)))
    assert [r.steps for r in plan.program.schedule] == [4]
    assert [tuple(r[1:4]) for r in records(plan)] == [(0, 4, 4), (1, 4, 4), (1, 1, 4),
                                                      (1, 4, 4)]
    # an ADD of FP32 and FP64 stays a kernel call between two runs
    wide = b.binary(BinaryKind.ADD, b.unary(UnaryKind.SQUARE, b.leaf(0)), b.leaf(1))
    plan = create_execution_plan(b.tree(b.binary(BinaryKind.MUL, b.leaf(1), wide)))
    assert lowered_kinds(plan) == [UnaryKind.SQUARE, BinaryKind.MUL]
    assert [type(r) for r in plan.program.schedule] == [equation.Run, equation.PlanStep,
                                                        equation.Run]


def test_a_plan_carries_its_program_from_the_start(native_backend):
    """``create_execution_plan`` returns the plan with its program, and no
    evaluation replaces it: BUFFERED with and without a ``step_hook`` (which
    runs no program) and Hybrid."""
    plan = plan_equation("T0 * T1 - T0", [D(2, 3)] * 2)
    prog = plan.program
    assert [type(r) for r in prog.schedule] == [equation.Run]
    assert prog.code.size == equation._STEP_LEN * 2
    x = from_array(np.ones((2, 3), np.float32))
    for hook in (None, _PER_STEP):
        with pytest.MonkeyPatch.context() as mp:
            runs = Runs(mp)
            evaluate(plan, Buffered(), [x, x], alloc(D(2, 3)), step_hook=hook)
        assert plan.program is prog
        if hook is None:
            assert runs.done == ([] if native_backend == "numpy" else [True])
        else:
            assert runs.done == [] and runs.refused == 0   # no program was asked for
    evaluate(plan, Hybrid(1, 2), [x, x], alloc(D(2, 3)))
    assert plan.program is prog


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
    """``out`` overlapping an argument, an unaligned argument, a BF16 or
    FP64 ``out`` of an FP32 plan: the program is refused before any run,
    and the bits are the per-step ones."""
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

    def bf16_out():
        return [from_array(x), from_array(y)], alloc(D(4, 4, DType.BF16))

    def fp64_out():
        return [from_array(x), from_array(y)], alloc(D(4, 4, DType.FP64))

    for case in (shifted_out, unaligned_arg, bf16_out, fp64_out):
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


def _kind_view(values: np.ndarray, bcast: Bcast, pad: int) -> "ops.TensorView":
    """An m x n view of ``bcast`` kind over ``values``: the whole block
    (NONE, padded), its first row (ROW, its elements ``pad + 1`` apart), its
    first column (COL) or its first element (SCALAR)."""
    m, n = values.shape
    if bcast is Bcast.NONE:
        return padded_view(values, pad)
    if bcast is Bcast.ROW:
        src = padded_view(values[:1], pad)   # 1 x n, ld pad + 1
    elif bcast is Bcast.COL:
        src = padded_view(values[:, :1], pad)
    else:
        src = padded_view(values[:1, :1], pad)
    return broadcast(src, bcast, m, n)


@pytest.mark.parametrize("dtype", [DType.FP32, DType.FP64])
@pytest.mark.parametrize("declared, passed", [
    (Bcast.COL, Bcast.ROW), (Bcast.COL, Bcast.COL), (Bcast.ROW, Bcast.COL),
    (Bcast.NONE, Bcast.SCALAR), (Bcast.NONE, Bcast.COL), (Bcast.NONE, Bcast.ROW),
    (Bcast.SCALAR, Bcast.NONE)])
@pytest.mark.parametrize("m, n", [(5, 7), (1, 6), (6, 1), (70, 3)])
def test_operand_kinds_come_from_the_views_passed(declared, passed, dtype, m, n,
                                                  native_backend):
    """One plan, its G and B declared ``declared``, evaluated with views of
    kind ``passed``: the program reads each as passed and gives the
    per-step bits, as the norm scaling plan is evaluated with ROW G and B
    by layernorm and COL ones by groupnorm.  70 rows run a one-per-column
    operand in blocks of 64 and a tail."""
    x_desc = D(m, n, dtype)
    g_desc = D(m, n, dtype, ld=1 if declared is not Bcast.NONE else None, bcast=declared)
    b = TreeBuilder([x_desc, g_desc, g_desc])
    inner = b.ternary(TernaryKind.MULADD, b.leaf(0), b.leaf(1), b.leaf(2))
    root = b.binary(BinaryKind.MAX, b.ternary(TernaryKind.NMULADD, inner, b.leaf(1), b.leaf(0)),
                    b.leaf(2))
    plan = create_execution_plan(b.tree(root))
    rng = np.random.default_rng(m * 100 + n)
    vals = [rng.standard_normal((m, n)).astype(dtype.storage) for _ in range(3)]
    vals[2][0, 0] = -0.0   # a MAX tie between -0 and +0 where x is +0
    vals[0][0, 0] = 0.0

    def make():
        return [_kind_view(vals[0], Bcast.NONE, 1), _kind_view(vals[1], passed, 2),
                _kind_view(vals[2], passed, 0)]

    with pytest.MonkeyPatch.context() as mp:
        runs = Runs(mp)
        naive, per_step, program = three_ways(plan, make, plan.out_desc, out_pad=1)
    assert bits_equal(per_step, naive) and bits_equal(program, naive)
    assert runs.done == ([] if native_backend == "numpy" else [True])


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


@pytest.mark.parametrize("dtype", [DType.FP32, DType.FP64])
@pytest.mark.parametrize("text", ["relu(T0) * T1", "T0 + T1", "T0 - T1", "T0 * T1",
                                  "square(T0) * T1", "relu(T0 - T1)", "T0 / T1",
                                  "rsqrt(T1) * T0", "max", "muladd", "nmuladd"])
def test_signed_zeros_and_subnormals_in_c(text, dtype, native_backend):
    """RELU gives +0 for -0 (numpy's maximum(-0, +0)), MAX returns its
    second operand on a tie of zeros, the signs of zero sums, differences,
    products and quotients are numpy's, and subnormals are neither flushed
    nor read as zero: each opcode's bits, seen through a plan that keeps
    them (a product by 1 keeps the sign of a zero)."""
    if text in ("max", "muladd", "nmuladd"):
        b = TreeBuilder([D(1, 8, dtype)] * 2)
        if text == "max":
            root = b.binary(BinaryKind.MAX, b.leaf(0), b.leaf(1))
        else:
            root = b.ternary(TernaryKind[text.upper()], b.leaf(0), b.leaf(1), b.leaf(0))
        plan = create_execution_plan(b.tree(root))
    else:
        plan = plan_equation(text, [D(1, 8, dtype)] * 2)
    sub = 1e-310 if dtype is DType.FP64 else 1e-40
    x = np.array([[-0.0, 0.0, -0.0, sub, -sub, 1e-20, -2.0, 3.0]], dtype.storage)
    y = np.array([[1.0, -0.0, 0.0, 1.0, sub, 1e-20, 1.0, -1.0]], dtype.storage)
    if text == "T0 / T1":   # signed infinities for zeros: -0 / inf, not 0 / 0
        y = np.where(y == 0, np.copysign(np.inf, y), y).astype(dtype.storage)
    got, want = alloc(D(1, 8, dtype)), alloc(D(1, 8, dtype))
    with pytest.MonkeyPatch.context() as mp:
        runs = Runs(mp)
        evaluate(plan, Buffered(), [from_array(x), from_array(y)], got)
    evaluate_naive(plan.tree, [from_array(x), from_array(y)], want)
    assert bits_equal(got.primary, want.primary)
    # RSQRT of -1 is a NaN, and its run reruns the plan per step
    nan = text.startswith("rsqrt")
    assert runs.done == ([] if native_backend == "numpy" else [not nan])


@pytest.mark.parametrize("dtype", [DType.FP32, DType.FP64])
def test_rsqrt_is_two_roundings_and_max_keeps_the_nan(dtype, native_backend):
    """RSQRT is 1 / sqrt(x) with each operation rounded, as ``ops``
    computes it, over many random magnitudes (a rounding fused into one
    differs on some of them); MAX of a NaN is the NaN, whose run reruns the
    plan per step."""
    rng = np.random.default_rng(11)
    x = np.exp(rng.uniform(-80, 80, (64, 64))).astype(dtype.storage)
    plan = plan_equation("rsqrt(T0)", [D(64, 64, dtype)])
    got, want = alloc(D(64, 64, dtype)), alloc(D(64, 64, dtype))
    with pytest.MonkeyPatch.context() as mp:
        runs = Runs(mp)
        evaluate(plan, Buffered(), [from_array(x)], got)
    evaluate_naive(plan.tree, [from_array(x)], want)
    assert bits_equal(got.primary, want.primary)
    assert runs.done == ([] if native_backend == "numpy" else [True])
    b = TreeBuilder([D(1, 4, dtype)] * 2)
    plan = create_execution_plan(b.tree(b.binary(BinaryKind.MAX, b.leaf(0), b.leaf(1))))
    x = np.array([[np.nan, 1.0, -np.inf, 0.0]], dtype.storage)
    y = np.array([[1.0, np.nan, np.nan, -0.0]], dtype.storage)
    got, want = alloc(D(1, 4, dtype)), alloc(D(1, 4, dtype))
    with pytest.MonkeyPatch.context() as mp:
        runs = Runs(mp)
        evaluate(plan, Buffered(), [from_array(x), from_array(y)], got)
    evaluate_naive(plan.tree, [from_array(x), from_array(y)], want)
    assert bits_equal(got.primary, want.primary)
    assert runs.done == ([] if native_backend == "numpy" else [False])


# ---------------------------------------------------------------------------
# the normalisation trees of the norm kernels: one program each
# ---------------------------------------------------------------------------

def _per_step_only(mp):
    """Refuse every program, so each plan runs its per-step path."""
    mp.setattr(native, "program", lambda *a, **k: None)


def _norm_view(x: np.ndarray, dtype: DType, pad: int) -> "ops.TensorView":
    """FP32 values ``x`` stored as ``dtype`` in a view whose columns are
    ``pad`` NaN elements apart beyond its rows."""
    rows, cols = x.shape
    d = D(rows, cols, dtype, ld=rows + pad)
    v = view_at(narrow(np.full(d.min_buffer_len, np.nan, np.float32), dtype), 0, d)
    v.as2d()[:, :] = narrow(x, dtype)
    return v


def _norm_parts(plan):
    """The plan of a norm tree and the plans of its subtrees of the rows'
    FP32 scale and shift (the operands of its inner multiply-add)."""
    inner = plan.tree.root.children[0]
    return [plan] + [create_execution_plan(equation.EqTree(inner.children[k], plan.tree.args))
                     for k in (1, 2)]


def _program_and_per_step(plans, args, native_backend, finite=True):
    """Each plan evaluated by its program and per step, from fresh
    outputs: the two results' bytes, bitwise equal; where C runs, every
    program ran (and, with ``finite`` values, reported no NaN)."""
    got = []
    for per_step in (False, True):
        out = []
        with pytest.MonkeyPatch.context() as mp:
            runs = Runs(mp)
            if per_step:
                _per_step_only(mp)
            for plan in plans:
                dst = alloc(D(plan.out_desc.rows, plan.out_desc.cols))
                evaluate(plan, Buffered(), args, dst)
                out.append(dst.primary)
        got.append(np.concatenate(out))
        if not per_step and native_backend != "numpy":
            assert runs.refused == 0 and runs.done and (all(runs.done) or not finite)
    assert bits_equal(got[0], got[1])
    return got[0]


# eps down to FP32's smallest normal, where 1/sqrt(eps) of a variance of 0
# still narrows to a finite FP32 statistic, and FP64's, where it narrows to
# inf
_EPS = st.sampled_from([1e-5, 1.0, 1.1754943508222875e-38, 2.2250738585072014e-308])


@_PROPERTY
@given(data=st.data(), per=st.sampled_from([1, 2, 3, 7]), groups=st.sampled_from([1, 2, 5, 8]),
       cols=st.sampled_from([1, 2, 3, 9]), eps=_EPS,
       fill=st.sampled_from(["normal", "offset", "constant", "special"]),
       pad=st.sampled_from([0, 0, 2]), dtype=st.sampled_from([DType.FP32, DType.FP32, DType.BF16]))
def test_norm_statistics_plans_equal_the_per_step_path(data, per, groups, cols, eps, fill, pad,
                                                       dtype, native_backend):
    """GROUPNORM of groups of one row, of several and of all rows (and
    layernorm, with its mean and variance, where each group is one row),
    by the one program of its tree against its per-step path: ordinary
    values, a large offset whose variance cancels below 0, constant rows
    (variance 0), NaN and Inf rows, eps from 1 down to the smallest FP32
    normal, extents of 1, x at a padded ld (NaN padding, never read), and
    a BF16 x, whose row sums stay kernel calls between the program's
    runs."""
    rows = per * groups
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((rows, cols)).astype(np.float32)
    if fill == "offset":
        x = (np.float32(3000.0) + np.float32(1e-3) * x).astype(np.float32)
    elif fill == "constant":
        x[:] = np.float32(rng.standard_normal())
    elif fill == "special":
        r = int(rng.integers(rows))
        x[r, int(rng.integers(cols))] = rng.choice(np.array([np.nan, np.inf, -np.inf],
                                                            np.float32))
    g = rng.standard_normal((rows, 1)).astype(np.float32)
    bias = rng.standard_normal((rows, 1)).astype(np.float32)
    row_g, row_b = (broadcast(from_array(rng.standard_normal((1, cols)).astype(np.float32)),
                              Bcast.ROW, rows, cols) for _ in range(2))
    outs = []
    for per_step in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            runs = Runs(mp)
            if per_step:
                _per_step_only(mp)
            got = alloc(D(rows, cols))
            kernels.norm_scaling(_norm_view(x, dtype, pad), None, None, from_array(g),
                                 from_array(bias), kernels.NormMode.GROUPNORM, got,
                                 groups=groups, eps=eps)
            outs.append(got.primary.copy())
            if cols >= 2:
                ln, mean, var = alloc(D(rows, cols)), alloc(D(rows, 1)), alloc(D(rows, 1))
                kernels.layernorm(_norm_view(x, dtype, pad), row_g, row_b, eps, ln, mean, var)
                outs += [ln.primary.copy(), mean.primary.copy(), var.primary.copy()]
        if not per_step and native_backend != "numpy":
            # an eps of FP64's smallest normal over a variance of 0 makes an
            # infinite FP32 scale, and so a NaN result, from finite x
            assert runs.refused == 0 and runs.done
            assert all(runs.done) or fill == "special" or eps < 1e-300
            if dtype is DType.FP32:   # one run per evaluation
                assert len(runs.done) == (4 if cols >= 2 else 1) or not all(runs.done)
    half = len(outs) // 2
    for a, b in zip(outs[:half], outs[half:]):
        assert bits_equal(a, b)


@_PROPERTY
@given(data=st.data(), groups=st.sampled_from([1, 2, 8, 63, 64, 65, 130]),
       n=st.sampled_from([1, 2, 3, 256, 4096]),
       eps=st.sampled_from([1e-5, 2.2250738585072014e-308, 2.3e-308, 4.9e-324]),
       fill=st.sampled_from(["normal", "cancel", "zero", "special"]))
def test_statistics_plans_equal_their_per_step_path(data, groups, n, eps, fill,
                                                    native_backend):
    """The GROUPNORM tree of ``groups`` groups of ``n`` elements (built
    past the plan cache, by ``__wrapped__``), and its subtrees of the rows'
    scale and shift, by their programs against their per-step path: ordinary sums, constant groups whose variance cancels
    below 0 (SS/n < (S/n)^2), all zero (a MAX tie of zeros), NaN, Inf and
    values whose squares overflow FP32, and eps near the smallest FP64
    normal or the smallest subnormal; more than 64 groups run a statistic
    of one element per column in blocks of 64 and a tail."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    per = 2 if n % 2 == 0 and n > 2 else 1
    rows, cols = groups * per, n // per
    x = (rng.standard_normal((rows, cols)) * 4).astype(np.float32)
    if fill == "cancel":
        x = np.repeat(np.float32(1000.1) * rng.integers(1, 9, (rows, 1)).astype(np.float32),
                      cols, axis=1)
    elif fill == "zero":
        x = rng.choice(np.array([0.0, -0.0], np.float32), (rows, cols))
    elif fill == "special":
        hit = rng.random((rows, cols)) < 0.3 / cols
        x[hit] = rng.choice(np.array([np.nan, np.inf, -np.inf, 3e38, -2e19], np.float32),
                            int(hit.sum()))
    plan, consts = kernels._norm_plan.__wrapped__(rows, cols, groups, eps, DType.FP32)
    gb = [broadcast(from_array(rng.standard_normal((rows, 1)).astype(np.float32)),
                    Bcast.COL, rows, cols) for _ in range(2)]
    # an eps below FP32's range over a variance of 0 makes an infinite FP32
    # scale, and a NaN result (0 * inf, inf - inf) from finite x
    _program_and_per_step(_norm_parts(plan), [from_array(x), *consts, *gb], native_backend,
                          finite=fill != "special" and eps > 1e-300)


@pytest.mark.parametrize("v", [0.0, -0.0, 1.1, 3.0])
def test_statistics_plan_clamps_the_variance_at_plus_zero(v, native_backend):
    """The tree of one group of one element with eps -0 (built through the
    cache's ``__wrapped__``, since -0.0 == 0.0 would share an entry): var =
    SS - S*S, the FP32 square less the exact one, is +0 or, for 1.1, below
    0, and MAX(var, +0) gives +0, so rstd = 1/sqrt(+0 + -0) is +inf (a -0
    var, whose tie the MAX rule sends to +0 too, cannot arise: SS is a sum
    from +0); inf is no NaN, so where C runs the scale's program keeps its
    result, equal to the per-step one.  The variance plan gives +0."""
    plan, consts = kernels._norm_plan.__wrapped__(1, 1, 1, -0.0, DType.FP32)
    var_plan, _ = kernels._norm_plan.__wrapped__(1, 1, 1, -0.0, DType.FP32, "var")
    gb = [alloc(D(1, 1, bcast=Bcast.COL), fill=1.0)] * 2
    args = [from_array(np.array([[v]], np.float32)), *consts, *gb]
    scale = _program_and_per_step(_norm_parts(plan)[1:2], args, native_backend)
    assert scale[0] == np.inf
    var = _program_and_per_step([var_plan], args, native_backend)
    assert bits_equal(var, np.zeros(1, np.float32))


@pytest.mark.parametrize("groups", [1, 2, 6])
def test_norm_steps_that_change_size_write_a_slot_of_their_own(groups, native_backend):
    """In a norm tree, every CONVERT and REDUCE step writes a slot that
    none of its operands occupies, so it never writes over bytes it still
    reads, and a RESHAPE keeps its operand's slot (the same bytes, no
    code); NaN-poisoning every slot a step leaves dead (a ``step_hook``,
    per step) gives the bits of the clean evaluation, by the program where
    C runs: no step reads a slot the plan recycled."""
    rows, cols = 6, 5
    plan, consts = kernels._norm_plan(rows, cols, groups, 1e-5, DType.FP32)
    fresh = reshapes = 0
    for step in plan.steps:
        tmp = [ref for kind, ref in step.inputs if kind == "tmp"]
        if equation._fresh(step.node):
            fresh += 1
            assert step.output[1] not in tmp
        elif step.node.kind is UnaryKind.TRANSFORM:
            reshapes += 1
            assert [step.output[1]] == tmp
    assert fresh == 5 * 3 + 2 and reshapes == 5 + 2
    rng = np.random.default_rng(groups)
    args = [from_array(rng.standard_normal((rows, cols)).astype(np.float32)), *consts,
            *[from_array(rng.standard_normal((rows, cols)).astype(np.float32))] * 2]

    def poison(step, dead):
        for v in dead:
            v.as2d()[:, :] = np.nan

    clean, poisoned = alloc(D(rows, cols)), alloc(D(rows, cols))
    with pytest.MonkeyPatch.context() as mp:
        runs = Runs(mp)
        evaluate(plan, Buffered(), args, clean)
    assert runs.done == ([] if native_backend == "numpy" else [True])
    evaluate(plan, Buffered(), args, poisoned, step_hook=poison)
    assert bits_equal(clean.primary, poisoned.primary)
