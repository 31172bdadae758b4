"""Matrix-equation trees: build, score, plan, and evaluate fused operator
chains.

An equation is a tree whose internal nodes are primitive operators and whose
leaves are argument tensors.  Planning happens in two passes:

1. every node gets a register score counting the temporaries its subtree
   needs (leaves 0; unary nodes inherit, or take 1 over a leaf; binary nodes
   take max of the children, plus one when the children tie; ternary nodes
   take 1 when all children are leaves, else max(3, children)), plus the
   exact requirement used for ordering (see ``_assign_need``);
2. a recursive walk visits children in decreasing-requirement order (ties
   left-to-right), stamps each node on completion, and reserves / inherits /
   recycles temporary slots so that the live set never exceeds the minimum
   over all evaluation orders.

Evaluation replays the plan either through full-size slot buffers
(BUFFERED), through slices of whole tiles when every operator is a pure
elementwise map (TILE_FUSED), or through a mix where only the elementwise
regions are tiled (HYBRID).  A tiled region runs each node's bound ndarray
math (``Kernel.math``) on numpy slices, one block of tiles within a fixed
byte budget at a time, and rounds every result to the node's dtype, as
storing a temporary does.  All three produce bitwise-identical
results to naive per-node evaluation because each node runs the same math on
the same values in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import heapq
import json
import re
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import ops
from .dtypes import COMPUTE_DTYPE, narrow, widen
from .ops import (
    Approx,
    BinaryKind,
    CmpOp,
    InvalidSpecError,
    Kernel,
    KernelSpec,
    ReduceSpec,
    TernaryKind,
    TransformSpec,
    UnaryKind,
)
from .tensor import Bcast, TensorDesc, TensorView, alloc

OpKind = Union[UnaryKind, BinaryKind, TernaryKind]

# Deepest operation nesting an equation may have (a leaf has depth 0).  The
# tree walks of building, planning, evaluation and export recurse one or two
# interpreter frames per level and the parser three per parenthesis level,
# so this keeps them inside Python's default limit of 1000 frames; library
# and benchmark equations stay below 30 levels.
MAX_DEPTH = 256


@dataclass
class EqNode:
    node_id: int
    kind: Optional[OpKind]                 # None marks a leaf
    children: list["EqNode"] = field(default_factory=list)
    arg_slot: Optional[int] = None         # leaf binding
    out_desc: Optional[TensorDesc] = None
    kernel: Optional[Kernel] = None        # the dispatched primitive
    depth: int = 0                         # longest path down to a leaf
    score: int = -1
    need: int = -1       # true minimal temps for this subtree (drives visit order)
    timestamp: int = -1
    temp_id: Optional[int] = None

    @property
    def is_leaf(self) -> bool:
        return self.kind is None

    def fusable(self) -> bool:
        """A pure per-element map (its kernel has bound ndarray math), so it
        may run inside a tiled region."""
        return self.kernel is not None and self.kernel.math is not None

    def label(self) -> str:
        if self.is_leaf:
            return f"T{self.arg_slot}"
        return self.kind.value


@dataclass
class EqTree:
    root: EqNode
    args: list[TensorDesc]

    def nodes(self) -> list[EqNode]:
        """All nodes, parents after children (post-order)."""
        out: list[EqNode] = []

        def walk(n: EqNode):
            for c in n.children:
                walk(c)
            out.append(n)

        walk(self.root)
        return out

    def internal_nodes(self) -> list[EqNode]:
        return [n for n in self.nodes() if not n.is_leaf]


class EquationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

class TreeBuilder:
    """Programmatic tree construction: every operation node is bound to the
    kernel dispatched for its children's descriptors, whose output descriptor
    becomes the node's."""

    def __init__(self, args: Sequence[TensorDesc]):
        self.args = list(args)
        self._next = 0

    def _nid(self) -> int:
        self._next += 1
        return self._next - 1

    def leaf(self, slot: int) -> EqNode:
        if not 0 <= slot < len(self.args):
            raise EquationError(f"argument slot {slot} out of range")
        return EqNode(self._nid(), None, [], arg_slot=slot, out_desc=self.args[slot])

    def _op(self, kind: OpKind, children: list[EqNode], **flags) -> EqNode:
        depth = 1 + max(c.depth for c in children)
        if depth > MAX_DEPTH:
            raise EquationError(f"equation deeper than MAX_DEPTH = {MAX_DEPTH} operations")
        spec = KernelSpec(kind, tuple(c.out_desc for c in children), **flags)
        try:
            kern = ops.dispatch(spec)
        except InvalidSpecError as e:
            raise EquationError(f"shape inference failed at {kind.value}: {e}") from None
        return EqNode(self._nid(), kind, children, out_desc=kern.out_desc, kernel=kern,
                      depth=depth)

    def unary(self, kind: UnaryKind, child: EqNode, approx: Approx | None = None,
              reduce: ReduceSpec | None = None,
              transform: TransformSpec | None = None) -> EqNode:
        return self._op(kind, [child], approx=approx, reduce=reduce, transform=transform)

    def binary(self, kind: BinaryKind, left: EqNode, right: EqNode,
               cmp: CmpOp | None = None) -> EqNode:
        return self._op(kind, [left, right], cmp=cmp)

    def ternary(self, kind: TernaryKind, left: EqNode, middle: EqNode,
                right: EqNode) -> EqNode:
        return self._op(kind, [left, middle, right])

    def tree(self, root: EqNode) -> EqTree:
        if root.is_leaf:
            raise EquationError("the root must be an operation, not a bare argument")
        seen: set[int] = set()

        def check(n: EqNode):
            if n.node_id in seen:
                raise EquationError("node reused: equations are trees, not DAGs")
            seen.add(n.node_id)
            if n.is_leaf:
                if n.children:
                    raise EquationError("leaf with children")
            else:
                want = 1 if isinstance(n.kind, UnaryKind) else \
                    2 if isinstance(n.kind, BinaryKind) else 3
                if len(n.children) != want:
                    raise EquationError(f"{n.kind} expects {want} children")
            for c in n.children:
                check(c)

        check(root)
        return EqTree(root, list(self.args))


# ---------------------------------------------------------------------------
# text grammar:  expr := term (('+'|'-') term)*
#                term := factor (('*'|'/'|'matmul') factor)*
#                factor := name '(' expr ')' | 'T<k>' | '(' expr ')'
# ---------------------------------------------------------------------------

_UNARY_NAMES = {
    "tanh": UnaryKind.TANH, "sigmoid": UnaryKind.SIGMOID, "gelu": UnaryKind.GELU,
    "exp": UnaryKind.EXP, "relu": UnaryKind.RELU, "sqrt": UnaryKind.SQRT,
    "rsqrt": UnaryKind.RSQRT, "reciprocal": UnaryKind.RECIPROCAL,
    "square": UnaryKind.SQUARE, "inc": UnaryKind.INC, "dec": UnaryKind.DEC,
    "identity": UnaryKind.IDENTITY,
}

_TOKEN_RE = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<sym>[-+*/()]))")


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Parser:
    def __init__(self, text: str, builder: TreeBuilder):
        self.text = text
        self.b = builder
        self.pos = 0
        self.toks: list[tuple[str, str, int]] = []
        self._tokenize()
        self.i = 0
        self.nesting = 0

    def _tokenize(self):
        pos = 0
        while pos < len(self.text):
            m = _TOKEN_RE.match(self.text, pos)
            if not m or m.end() == pos:
                if self.text[pos:].strip():
                    raise ParseError(f"unexpected character {self.text[pos:pos+1]!r}", pos)
                break
            if m.group("name"):
                self.toks.append(("name", m.group("name"), m.start("name")))
            else:
                self.toks.append(("sym", m.group("sym"), m.start("sym")))
            pos = m.end()

    def _peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else ("eof", "", len(self.text))

    def _next(self):
        t = self._peek()
        self.i += 1
        return t

    def parse(self) -> EqNode:
        node = self.expr()
        kind, val, pos = self._peek()
        if kind != "eof":
            raise ParseError(f"trailing input {val!r}", pos)
        return node

    def expr(self) -> EqNode:
        node = self.term()
        while True:
            kind, val, _ = self._peek()
            if kind == "sym" and val in "+-":
                self._next()
                rhs = self.term()
                node = self.b.binary(BinaryKind.ADD if val == "+" else BinaryKind.SUB,
                                     node, rhs)
            else:
                return node

    def term(self) -> EqNode:
        node = self.factor()
        while True:
            kind, val, _ = self._peek()
            if kind == "sym" and val in "*/":
                self._next()
                rhs = self.factor()
                node = self.b.binary(BinaryKind.MUL if val == "*" else BinaryKind.DIV,
                                     node, rhs)
            elif kind == "name" and val == "matmul":
                self._next()
                rhs = self.factor()
                node = self.b.binary(BinaryKind.MATMUL, node, rhs)
            else:
                return node

    def factor(self) -> EqNode:
        kind, val, pos = self._next()
        if kind == "name" and re.fullmatch(r"T\d+", val):
            return self.b.leaf(int(val[1:]))
        unary = None
        if kind == "name" and val in _UNARY_NAMES:
            unary = _UNARY_NAMES[val]
            kind, v2, pos = self._next()
            if v2 != "(":
                raise ParseError(f"expected '(' after {val}", pos)
        elif kind == "name":
            raise ParseError(f"unknown identifier {val!r}", pos)
        elif val != "(":
            raise ParseError(f"unexpected token {val!r}", pos)
        # a parenthesised group; the parser recurses three frames deep per level
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ParseError(f"parentheses nested deeper than MAX_DEPTH = {MAX_DEPTH}", pos)
        node = self.expr()
        _, v3, p3 = self._next()
        if v3 != ")":
            raise ParseError("expected ')'", p3)
        self.nesting -= 1
        return node if unary is None else self.b.unary(unary, node)


def parse_equation(text: str, args: Sequence[TensorDesc]) -> EqTree:
    b = TreeBuilder(args)
    return b.tree(_Parser(text, b).parse())


# ---------------------------------------------------------------------------
# register scores
# ---------------------------------------------------------------------------

def assign_register_score(tree: EqTree) -> EqTree:
    """Annotate every node with the number of temporaries its subtree needs."""

    def score(n: EqNode) -> None:
        if n.is_leaf:
            n.score = 0
            return
        for c in n.children:
            score(c)
        if isinstance(n.kind, UnaryKind):
            child = n.children[0]
            n.score = 1 if child.is_leaf else child.score
        elif isinstance(n.kind, BinaryKind):
            l, r = n.children
            n.score = l.score + 1 if l.score == r.score else max(l.score, r.score)
        else:
            l, m, r = n.children
            if l.is_leaf and m.is_leaf and r.is_leaf:
                n.score = 1
            else:
                n.score = max(3, l.score, m.score, r.score)

    score(tree.root)
    _assign_need(tree.root)
    return tree


def _assign_need(n: EqNode) -> int:
    """Minimal concurrent temporaries to evaluate the subtree at ``n``.

    Evaluating non-leaf children in decreasing-need order, the j-th child
    runs while j-1 earlier outputs are held, so the subtree needs
    max_j(need_j + j - 1); with only leaf children one slot is taken for the
    node itself.  For unary/binary trees this coincides with the register
    score; the ternary score's floor of 3 can over- or under-state the true
    requirement, so planning order and slot counts use this value.
    """
    if n.is_leaf:
        n.need = 0
        return 0
    kid_needs = sorted((_assign_need(c) for c in n.children if not c.is_leaf),
                       reverse=True)
    if not kid_needs:
        n.need = 1
    else:
        n.need = max(v + j for j, v in enumerate(kid_needs))
    return n.need


# ---------------------------------------------------------------------------
# execution plan
# ---------------------------------------------------------------------------

Binding = tuple[str, int]  # ("arg", slot) or ("tmp", temp id)


@dataclass
class PlanStep:
    timestamp: int
    node: EqNode
    inputs: tuple[Binding, ...]
    output: Binding
    is_root: bool


@dataclass
class ExecPlan:
    tree: EqTree
    steps: list[PlanStep]
    temp_count: int           # distinct slots reserved by the planner
    rep_bytes: int            # representative slot size: max non-root intermediate
    naive_bytes: int          # sum of non-root intermediate sizes
    recycled: bool            # whether any slot was ever freed and reused

    @property
    def temp_bytes(self) -> int:
        """Scratch footprint: materialised slots x representative size."""
        slots = {s.output[1] for s in self.steps if not s.is_root}
        return len(slots) * self.rep_bytes

    @property
    def out_desc(self) -> TensorDesc:
        return self.tree.root.out_desc


def create_execution_plan(tree: EqTree) -> ExecPlan:
    """Timestamped evaluation order with minimal temporary slots.

    Children are visited in decreasing order of their true temp requirement
    (ties left-to-right; for unary/binary trees this requirement equals the
    register score, for ternary nodes the score's floor of 3 would misorder
    some trees); a node inherits the slot of a preferred non-leaf child
    (left, then right, then middle) and recycles the slots of the remaining
    non-leaf children.
    """
    if tree.root.score < 0 or tree.root.need < 0:
        assign_register_score(tree)

    free: list[int] = []
    next_slot = 0
    clock = 0
    steps: list[PlanStep] = []
    recycled_any = False

    def reserve() -> int:
        nonlocal next_slot
        if free:
            return heapq.heappop(free)
        next_slot += 1
        return next_slot - 1

    def recycle(slot: Optional[int]) -> None:
        nonlocal recycled_any
        if slot is not None:
            heapq.heappush(free, slot)
            recycled_any = True

    def stamp(n: EqNode) -> None:
        nonlocal clock
        n.timestamp = clock
        clock += 1

    def emit(n: EqNode) -> None:
        ins = tuple(("arg", c.arg_slot) if c.is_leaf else ("tmp", c.temp_id)
                    for c in n.children)
        steps.append(PlanStep(n.timestamp, n, ins, ("tmp", n.temp_id),
                              is_root=n is tree.root))

    def plan(n: EqNode) -> None:
        if n.is_leaf:
            return
        if isinstance(n.kind, UnaryKind):
            child = n.children[0]
            plan(child)
            stamp(n)
            n.temp_id = reserve() if child.is_leaf else child.temp_id
        elif isinstance(n.kind, BinaryKind):
            l, r = n.children
            for c in sorted((l, r), key=lambda c: -c.need):
                plan(c)
            stamp(n)
            if l.is_leaf and r.is_leaf:
                n.temp_id = reserve()
            elif not l.is_leaf:
                n.temp_id = l.temp_id
                if not r.is_leaf:
                    recycle(r.temp_id)
            else:
                n.temp_id = r.temp_id
        else:
            l, m, r = n.children
            for c in sorted((l, m, r), key=lambda c: -c.need):
                plan(c)
            stamp(n)
            if l.is_leaf and m.is_leaf and r.is_leaf:
                n.temp_id = reserve()
            elif not l.is_leaf:
                n.temp_id = l.temp_id
                if not m.is_leaf:
                    recycle(m.temp_id)
                if not r.is_leaf:
                    recycle(r.temp_id)
            elif not r.is_leaf:
                n.temp_id = r.temp_id
                if not m.is_leaf:
                    recycle(m.temp_id)
            else:
                n.temp_id = m.temp_id
        emit(n)

    plan(tree.root)
    steps.sort(key=lambda s: s.timestamp)
    non_root = [s.node.out_desc.nbytes for s in steps if not s.is_root]
    return ExecPlan(tree, steps, temp_count=next_slot,
                    rep_bytes=max(non_root, default=0),
                    naive_bytes=sum(non_root), recycled=recycled_any)


def plan_equation(text: str, args: Sequence[TensorDesc]) -> ExecPlan:
    return create_execution_plan(assign_register_score(parse_equation(text, args)))


# ---------------------------------------------------------------------------
# evaluation strategies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Buffered:
    pass


@dataclass(frozen=True)
class TileFused:
    tile_m: int
    tile_n: int


@dataclass(frozen=True)
class Hybrid:
    tile_m: int
    tile_n: int


EvalStrategy = Union[Buffered, TileFused, Hybrid]


def _run_node(n: EqNode, ins: list[TensorView], out: TensorView) -> None:
    k = n.kind
    # contraction and layout nodes cannot write over an operand; when the
    # node inherited its child's temp slot, stage through a fresh buffer
    # (the copy is an exact bit move)
    if k is BinaryKind.MATMUL or k is TernaryKind.GEMM or k is UnaryKind.TRANSFORM:
        if any(np.may_share_memory(v.primary, out.primary) for v in ins):
            staged = alloc(out.desc.contiguous())
            n.kernel(*ins, out=staged)
            out.as2d()[:, :] = staged.as2d()
            return
    n.kernel(*ins, out=out)


class _SlotArena:
    """Byte arenas for temp slots; each slot serves differently-shaped
    intermediates over its lifetime."""

    def __init__(self, plan: ExecPlan):
        cap: dict[int, int] = {}
        for s in plan.steps:
            if s.is_root:
                continue
            slot = s.output[1]
            cap[slot] = max(cap.get(slot, 0), s.node.out_desc.nbytes)
        self.bufs = {slot: np.zeros(n, dtype=np.uint8) for slot, n in cap.items()}
        self.views: dict[int, TensorView] = {}

    def out_view(self, slot: int, desc: TensorDesc) -> TensorView:
        d = desc.contiguous()
        raw = self.bufs[slot]
        if d.dtype.storage == np.uint8:
            buf = raw[:d.min_buffer_len]
        else:
            nb = d.min_buffer_len * d.dtype.storage.itemsize
            buf = raw[:nb].view(d.dtype.storage)
        v = TensorView(d, buf)
        self.views[slot] = v
        return v


def evaluate(plan: ExecPlan, strategy: EvalStrategy, args: Sequence[TensorView],
             out: TensorView, step_hook: Callable | None = None) -> None:
    """Execute a plan.  ``step_hook(step, dead_views)`` runs after every
    buffered step with the views whose slots are recycled but not yet
    rewritten (test instrumentation: poisoning them must not change the
    result)."""
    _check_args(plan, args, out)
    if isinstance(strategy, Buffered):
        _eval_buffered(plan, args, out, step_hook)
    elif isinstance(strategy, TileFused):
        for s in plan.steps:
            if not s.node.fusable():
                raise EquationError(
                    f"TILE_FUSED is only legal for elementwise trees; {s.node.label()} is not")
        _eval_tiled(plan.steps, args, out, strategy.tile_m, strategy.tile_n)
    elif isinstance(strategy, Hybrid):
        _eval_hybrid(plan, args, out, strategy)
    else:
        raise EquationError(f"unknown strategy {strategy!r}")


def _check_args(plan: ExecPlan, args: Sequence[TensorView], out: TensorView) -> None:
    if len(args) != len(plan.tree.args):
        raise EquationError(f"expected {len(plan.tree.args)} arguments, got {len(args)}")
    for i, (v, d) in enumerate(zip(args, plan.tree.args)):
        if (v.desc.rows, v.desc.cols, v.desc.dtype) != (d.rows, d.cols, d.dtype):
            raise EquationError(f"argument {i} does not match its declared descriptor")
    od = plan.out_desc
    if (out.desc.rows, out.desc.cols) != (od.rows, od.cols):
        raise EquationError("output shape mismatch")
    if out.desc.bcast is not Bcast.NONE:
        raise EquationError("the output must not be a broadcast view")


def _eval_buffered(plan: ExecPlan, args: Sequence[TensorView], out: TensorView,
                   step_hook: Callable | None) -> None:
    arena = _SlotArena(plan)
    # slots whose occupant's parent has already run are dead until rewritten
    last_write: dict[int, int] = {}
    for s in plan.steps:
        ins = [args[ref] if kind == "arg" else arena.views[ref]
               for (kind, ref) in s.inputs]
        if s.is_root:
            dst = out
        else:
            dst = arena.out_view(s.output[1], s.node.out_desc)
            last_write[s.output[1]] = s.timestamp
        _run_node(s.node, ins, dst)
        if step_hook is not None:
            dead = [arena.views[slot] for slot, t in last_write.items()
                    if s.timestamp >= _slot_death(plan, slot, t)]
            step_hook(s, dead)


def _slot_death(plan: ExecPlan, slot: int, write_ts: int) -> int:
    """Timestamp at which the value written into ``slot`` at ``write_ts`` is
    consumed (the parent's step)."""
    for s in plan.steps:
        if s.timestamp <= write_ts:
            continue
        if any(k == "tmp" and r == slot for (k, r) in s.inputs):
            return s.timestamp
    return plan.steps[-1].timestamp + 1 if plan.steps else 0


# Bytes a tiled region's live values may take per block (see ``_eval_tiled``).
_TILE_BLOCK_BYTES = 1 << 18


def _block_extent(rows: int, cols: int, tile_m: int, tile_n: int,
                  elem_bytes: int) -> tuple[int, int]:
    """Rows and columns of a block of whole tiles over a ``rows`` x ``cols``
    region: as many tiles as fit ``_TILE_BLOCK_BYTES`` at ``elem_bytes`` per
    element, rows first, at least one tile.  The walk's slices cut a block
    to the extent."""
    tm, tn = min(tile_m, rows), min(tile_n, cols)
    fit = _TILE_BLOCK_BYTES // elem_bytes
    block_m = min(rows, tm * max(1, fit // (tm * tn)))
    return block_m, tn * max(1, fit // (block_m * tn))


def _eval_tiled(steps: list[PlanStep], args: Sequence[TensorView], out: TensorView,
                tile_m: int, tile_n: int,
                materialized: dict[int, TensorView] | None = None) -> None:
    """Run ``steps`` (all fusable, the region's root last) in blocks of whole
    tiles.

    Every argument or materialised input is read once, whole, in its compute
    dtype; each block slices those arrays and runs the nodes' bound math.  A
    block is ``km * tile_m`` x ``kn * tile_n`` (cut to the extent), as many
    tiles as fit ``_TILE_BLOCK_BYTES`` for the region's live values (its
    inputs plus one compute-dtype array per node), grown along rows first
    because storage is column-major, and never less than one tile.  A node's
    block is narrowed to its dtype and widened back, as storing and
    reloading a temporary would, and the root's block is narrowed into its
    slice of ``out``.  Every node is elementwise and rounds every element at
    the same point, so the block shape changes no bit.  Each value keeps its
    physical extent: a row, column or scalar operand broadcasts inside the
    math, as it would through a view."""
    materialized = materialized or {}
    root = steps[-1].node
    rows, cols = root.out_desc.rows, root.out_desc.cols
    region = {s.node.node_id: i for i, s in enumerate(steps)}
    inputs: list[tuple[np.ndarray, bool, bool]] = []  # (values, tile rows?, tile cols?)
    read: dict[int, int] = {}    # id(view) -> position in inputs
    source: dict[int, int] = {}  # node id of a child outside the region -> position in inputs
    for s in steps:
        for c, (_, ref) in zip(s.node.children, s.inputs):
            if c.node_id in region:
                continue
            v = materialized[c.node_id] if c.node_id in materialized else args[ref]
            if id(v) not in read:
                a = widen(v.as2d(), v.desc.dtype)
                read[id(v)] = len(inputs)
                inputs.append((a, a.shape[0] != 1, a.shape[1] != 1))
            source[c.node_id] = read[id(v)]
    # per block, the values list holds the input blocks, then each step's block
    program = [(s.node.kernel.math,
                [len(inputs) + region[c.node_id] if c.node_id in region else source[c.node_id]
                 for c in s.node.children],
                s.node.out_desc.dtype)
               for s in steps]
    body, (root_math, root_refs, _) = program[:-1], program[-1]
    elem_bytes = (sum(a.itemsize for a, _, _ in inputs)
                  + sum(COMPUTE_DTYPE[s.node.out_desc.dtype].itemsize for s in steps))
    block_m, block_n = _block_extent(rows, cols, tile_m, tile_n, elem_bytes)

    out2d = out.as2d()
    whole = slice(None)
    with np.errstate(all="ignore"):
        for i0 in range(0, rows, block_m):
            rs = slice(i0, i0 + block_m)
            for j0 in range(0, cols, block_n):
                cs = slice(j0, j0 + block_n)
                vals = [a[rs if tr else whole, cs if tc else whole] for a, tr, tc in inputs]
                for math, refs, dtype in body:
                    r = math(*[vals[k] for k in refs])
                    vals.append(widen(narrow(r, dtype), dtype))
                r = root_math(*[vals[k] for k in root_refs])
                out2d[rs, cs] = narrow(r, out.desc.dtype)


def _eval_hybrid(plan: ExecPlan, args: Sequence[TensorView], out: TensorView,
                 strategy: Hybrid) -> None:
    """Buffered execution of the non-elementwise nodes, tiled execution of
    each maximal elementwise region.

    Fused regions run lazily when a non-elementwise consumer needs them,
    which stretches value lifetimes past the plan's timestamps; every
    materialised intermediate therefore gets a private buffer rather than a
    recycled plan slot."""
    by_node: dict[int, PlanStep] = {s.node.node_id: s for s in plan.steps}
    materialized: dict[int, TensorView] = {}

    def flush_region(top: EqNode, dst: TensorView) -> None:
        region: list[PlanStep] = []

        def collect(n: EqNode):
            if n.is_leaf or n.node_id in materialized:
                return
            for c in n.children:
                collect(c)
            region.append(by_node[n.node_id])

        collect(top)
        region.sort(key=lambda s: s.timestamp)
        _eval_tiled(region, args, dst, strategy.tile_m, strategy.tile_n, materialized)

    for s in plan.steps:
        if s.node.fusable():
            if s.is_root:
                flush_region(s.node, out)
            continue  # non-root fusable nodes are deferred into a region flush
        ins = []
        for c, (kind, ref) in zip(s.node.children, s.inputs):
            if c.is_leaf:
                ins.append(args[ref])
            elif c.node_id in materialized:
                ins.append(materialized[c.node_id])
            else:
                v = alloc(c.out_desc.contiguous())
                flush_region(c, v)
                materialized[c.node_id] = v
                ins.append(v)
        dst = out if s.is_root else alloc(s.node.out_desc.contiguous())
        _run_node(s.node, ins, dst)
        if not s.is_root:
            materialized[s.node.node_id] = dst


def evaluate_naive(tree: EqTree, args: Sequence[TensorView], out: TensorView) -> None:
    """Reference evaluation: one freshly materialised tensor per node, same
    kernels, no plan machinery."""

    def run(n: EqNode) -> TensorView:
        if n.is_leaf:
            return args[n.arg_slot]
        ins = [run(c) for c in n.children]
        dst = out if n is tree.root else alloc(n.out_desc.contiguous())
        _run_node(n, ins, dst)
        return dst

    run(tree.root)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def export_plan(plan: ExecPlan, fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps(plan_to_dict(plan), indent=2, sort_keys=True)
    if fmt == "dot":
        return _export_dot(plan)
    raise EquationError(f"unknown export format {fmt!r}")


def plan_to_dict(plan: ExecPlan) -> dict:
    def desc_dict(d: TensorDesc) -> dict:
        return {"rows": d.rows, "cols": d.cols, "ld": d.ld,
                "dtype": d.dtype.value, "bcast": d.bcast.value}

    return {
        "args": [desc_dict(d) for d in plan.tree.args],
        "steps": [
            {
                "t": s.timestamp,
                "node": s.node.node_id,
                "op": s.node.label(),
                "score": s.node.score,
                "inputs": [list(b) for b in s.inputs],
                "output": "out" if s.is_root else list(s.output),
                "shape": [s.node.out_desc.rows, s.node.out_desc.cols],
                "dtype": s.node.out_desc.dtype.value,
            }
            for s in plan.steps
        ],
        "temp_count": plan.temp_count,
        "temp_bytes": plan.temp_bytes,
        "rep_bytes": plan.rep_bytes,
        "naive_bytes": plan.naive_bytes,
    }


def import_plan(text: str) -> dict:
    """Parse an exported plan back into its canonical dict form."""
    doc = json.loads(text)
    for key in ("args", "steps", "temp_count", "temp_bytes"):
        if key not in doc:
            raise EquationError(f"plan document missing {key!r}")
    return doc


def _export_dot(plan: ExecPlan) -> str:
    lines = ["digraph equation {", "  rankdir=BT;"]
    for n in plan.tree.nodes():
        if n.is_leaf:
            lines.append(f'  n{n.node_id} [shape=box,label="T{n.arg_slot}"];')
        else:
            tmp = "out" if n is plan.tree.root else f"tmp{n.temp_id}"
            lines.append(
                f'  n{n.node_id} [label="{n.label()}\\nv={n.score} t={n.timestamp} {tmp}"];')
    for n in plan.tree.nodes():
        for c in n.children:
            lines.append(f"  n{c.node_id} -> n{n.node_id};")
    lines.append("}")
    return "\n".join(lines)
