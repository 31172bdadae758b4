"""Outside-in tracer: times every ``tensorprim`` layer by wrapping its public
functions where they are bound, without changing a line of the library.

Modules bind each other's functions in two ways.  ``kernels`` does
``from .ops import apply_unary`` and ``contraction`` does
``from .dtypes import bf16_to_fp32``, which copies the function into the
importer's namespace; ``equation`` calls ``ops.apply_unary`` through the
module attribute.  :class:`Tracer` therefore replaces the function object in
every loaded ``tensorprim`` module namespace that holds it (the package
itself included), which covers both, and counts ``TensorView``
constructions through the class ``__init__``.  :meth:`Tracer.restore` puts
every original binding back.

Spans (layer, function, start, end, parent) are kept in memory; the
per-layer metrics are computed from them after the run, with a layer's self
time being its spans' durations minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

# The operator entry points of each layer.  Names that a library version
# lacks are skipped; the benchmark then notices the missing calls.
LAYERS = {
    "kernels": ("softmax", "layernorm", "norm_scaling", "split_sgd_step",
                "embedding_gather_reduce", "fc_forward", "dilated_conv1d_forward",
                "binary_reduce_aggregate"),
    "equation": ("parse_equation", "assign_register_score", "create_execution_plan",
                 "plan_equation", "evaluate", "evaluate_naive"),
    "contraction": ("brgemm", "gemm", "matmul"),
    "ops": ("apply_unary", "apply_binary", "apply_ternary", "reduce", "transform",
            "gather_scatter", "strided_load", "strided_store", "replicate_cols",
            "shuffle_network_transpose"),
    "approx": ("tanh", "tanh_grad", "sigmoid_via_tanh", "sigmoid_grad", "gelu",
               "gelu_grad", "exp_taylor", "tanh_pade78", "minimax_eval", "minimax_grad"),
    "dtypes": ("bf16_to_fp32", "fp32_to_bf16_rne", "split_fp32_bits", "pack_fp32_bits"),
}
PLAN_FUNCS = {"parse_equation", "assign_register_score", "create_execution_plan",
              "plan_equation"}
OPS_FAMILY = {"apply_unary": "unary", "apply_binary": "binary", "apply_ternary": "ternary",
              "reduce": "reduce"}  # every other ops entry point is a transform
UNARY_DELEGATES = {"reduce": "reduce", "transform": "transform", "replicate_cols": "transform",
                   "gather": "transform", "scatter": "transform", "gather2d": "transform",
                   "scatter2d": "transform"}

# span record fields
LAYER, FUNC, START, END, PARENT, INFO = range(6)


PACKAGE = "tensorprim"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.views = 0
        self.alloc_calls = 0
        self.alloc_bytes = 0
        self.errors: dict[str, int] = defaultdict(int)

    # -- installing and removing the wrappers --------------------------------

    def _rebind(self, original, replacement) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> "Tracer":
        for layer, names in LAYERS.items():
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            for name in names:
                fn = getattr(mod, name, None)
                if callable(fn):
                    self._rebind(fn, self._span_wrapper(layer, name, fn))
        tensor = sys.modules[f"{PACKAGE}.tensor"]
        self._rebind(tensor.alloc, self._alloc_wrapper(tensor.alloc))
        view_cls = tensor.TensorView
        init = view_cls.__init__
        self._saved.append((view_cls, "__init__", init))

        @functools.wraps(init)
        def counted_init(this, *args, **kwargs):
            self.views += 1
            init(this, *args, **kwargs)

        view_cls.__init__ = counted_init
        return self

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- wrappers ----------------------------------------------------------------

    def _span_wrapper(self, layer: str, name: str, fn):
        spans, stack, errors = self.spans, self._stack, self.errors
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, None]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            rec[INFO] = describe(layer, name, args, kwargs, result)
            return result

        return traced

    def _alloc_wrapper(self, fn):
        @functools.wraps(fn)
        def counted_alloc(d, *args, **kwargs):
            try:
                view = fn(d, *args, **kwargs)
            except BaseException:
                self.errors["tensor"] += 1
                raise
            self.alloc_calls += 1
            self.alloc_bytes += view.primary.nbytes
            return view

        return counted_alloc

    # -- output --------------------------------------------------------------------

    def write(self, path) -> None:
        """All spans as gzipped JSON lines, times relative to the first."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "layer": s[LAYER], "name": s[FUNC],
                                    "start_us": round((s[START] - t0) * 1e6, 2),
                                    "end_us": round((s[END] - t0) * 1e6, 2),
                                    "parent": s[PARENT], "info": s[INFO]}) + "\n")


def describe(layer: str, name: str, args, kwargs, result):
    """The per-call facts the per-layer metrics need, read from the
    arguments' descriptors (never from tensor contents)."""
    if layer == "contraction" and name == "brgemm":
        spec, batch = args[0], args[1]
        path = spec.in_dtype.value
        if path == "bf16" and spec.compute_path.value == "emulated_split":
            path = "bf16_emulated"
        return {"path": path, "entries": batch.n,
                "flop": 2 * spec.m * spec.n * spec.k * batch.n}
    if layer == "equation":
        if name == "create_execution_plan":
            return {"steps": len(result.steps), "temp_bytes": result.temp_bytes}
        if name == "evaluate":
            strategy = args[1] if len(args) > 1 else kwargs.get("strategy")
            return {"strategy": type(strategy).__name__.lower()}
        return None
    if layer == "ops":
        views = [a for a in (*args, *kwargs.values()) if hasattr(a, "desc")]
        family = OPS_FAMILY.get(name, "transform")
        if name == "apply_unary":
            family = UNARY_DELEGATES.get(getattr(args[0], "value", ""), "unary")
        out = views[-1].desc if views else None
        return {"family": family,
                "elems": out.rows * out.cols if out else 0,
                "bytes": sum(v.desc.nbytes for v in views)}
    return None


def layer_metrics(tracer: Tracer, steps: int) -> dict[str, float]:
    """Per-step per-layer metrics from the recorded spans.

    A layer's ``calls`` counts its outermost spans only (a layer calling
    into itself, as ``gemm`` calling ``brgemm``, is one call).  Rates use the
    inclusive time of those outermost spans.  A call that raised counts in
    ``calls``, ``self_ms`` and ``errors`` but adds nothing to the facts read
    from its descriptors (flop, entries, plan steps, families, bytes)."""
    spans = tracer.spans
    child_cover = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_cover[s[PARENT]] += s[END] - s[START]
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    top_s: dict[str, float] = defaultdict(float)
    path_flop: dict[str, float] = defaultdict(float)
    path_s: dict[str, float] = defaultdict(float)
    eq_self: dict[str, float] = defaultdict(float)
    ops_family: dict[str, int] = defaultdict(int)
    flop = entries = plan_calls = plan_steps = plan_temp = evaluate_calls = 0
    ops_elems = ops_bytes = 0
    top_contraction = -1
    for i, s in enumerate(spans):
        layer, name, info = s[LAYER], s[FUNC], s[INFO]
        dur = s[END] - s[START]
        own = dur - child_cover[i]
        self_s[layer] += own
        parent = spans[s[PARENT]] if s[PARENT] >= 0 else None
        outermost = parent is None or parent[LAYER] != layer
        if outermost:
            calls[layer] += 1
            top_s[layer] += dur
        if layer == "equation" and name in PLAN_FUNCS:
            eq_self["plan"] += own
            if outermost or parent[FUNC] not in PLAN_FUNCS:
                plan_calls += 1
        elif layer == "equation" and name == "evaluate":
            evaluate_calls += 1
        if layer == "contraction" and outermost:
            top_contraction = i
        if info is None:  # raised, or a function with no per-call facts
            continue
        if layer == "contraction":
            if name == "brgemm":
                flop += info["flop"]
                entries += info["entries"]
                path_flop[info["path"]] += info["flop"]
                path_s[info["path"]] += spans[top_contraction][END] - spans[top_contraction][START]
        elif layer == "equation":
            if name == "create_execution_plan":
                plan_steps += info["steps"]
                plan_temp += info["temp_bytes"]
            elif name == "evaluate":
                eq_self[info["strategy"]] += own
        elif layer == "ops" and outermost:
            ops_family[info["family"]] += 1
            ops_elems += info["elems"]
            ops_bytes += info["bytes"]

    def rate(f, secs):
        return f / secs / 1e9 if secs > 0 else 0.0

    n = max(steps, 1)
    ms = 1e3 / n
    m = {
        "contraction.calls": calls["contraction"] / n,
        "contraction.batch_entries": entries / n,
        "contraction.self_ms": self_s["contraction"] * ms,
        "contraction.gflop": flop / 1e9 / n,
        "contraction.gflop_per_s": rate(flop, top_s["contraction"]),
        "contraction.fp32.gflop_per_s": rate(path_flop["fp32"], path_s["fp32"]),
        "contraction.bf16.gflop_per_s": rate(path_flop["bf16"], path_s["bf16"]),
        "contraction.bf16_emulated.gflop_per_s": rate(path_flop["bf16_emulated"],
                                                      path_s["bf16_emulated"]),
        "contraction.int8.gop_per_s": rate(path_flop["int8"], path_s["int8"]),
        "equation.plan.calls": plan_calls / n,
        "equation.plan.self_ms": eq_self["plan"] * ms,
        "equation.plan.steps": plan_steps / n,
        "equation.plan.temp_bytes": plan_temp / n,
        "equation.evaluate.calls": evaluate_calls / n,
        "equation.buffered.self_ms": eq_self["buffered"] * ms,
        "equation.hybrid.self_ms": eq_self["hybrid"] * ms,
        "ops.calls": calls["ops"] / n,
        **{f"ops.{fam}.calls": ops_family[fam] / n
           for fam in ("unary", "binary", "ternary", "reduce", "transform")},
        "ops.self_ms": self_s["ops"] * ms,
        "ops.us_per_call": self_s["ops"] * 1e6 / calls["ops"] if calls["ops"] else 0.0,
        "ops.melems": ops_elems / 1e6 / n,
        "ops.computed_mb": ops_bytes / 2 ** 20 / n,
        "kernels.calls": calls["kernels"] / n,
        "kernels.self_ms": self_s["kernels"] * ms,
        "approx.calls": calls["approx"] / n,
        "approx.self_ms": self_s["approx"] * ms,
        "tensor.views": tracer.views / n,
        "tensor.alloc.calls": tracer.alloc_calls / n,
        "tensor.alloc.mb": tracer.alloc_bytes / 2 ** 20 / n,
        "dtypes.calls": calls["dtypes"] / n,
        "dtypes.self_ms": self_s["dtypes"] * ms,
    }
    for layer in (*LAYERS, "tensor"):
        m[f"{layer}.errors"] = tracer.errors[layer] / n
    return m
