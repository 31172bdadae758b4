"""Matrix-equation trees: build, score, plan, and evaluate fused operator
chains.

An equation is a tree whose internal nodes are primitive operators and whose
leaves are argument tensors.  Planning happens in two passes:

1. every node gets a register score counting the temporaries its subtree
   needs (leaves 0; unary nodes inherit, or take 1 over a leaf; binary nodes
   take max of the children, plus one when the children tie; ternary nodes
   take 1 when all children are leaves, else max(3, children)), plus the
   exact requirement used for ordering (see ``_score``); ``TreeBuilder``,
   which the parser builds through, is the one place both are set, as it
   builds each node, from its children's;
2. a walk over an explicit stack visits children in decreasing-requirement
   order (ties left-to-right), and gives each node, on completion, a plan
   step with its timestamp and a temporary slot by one rule for every
   arity: inherit the slot of the first non-leaf child (left, right,
   middle) and recycle the others, so that the live set never exceeds the
   minimum over all evaluation orders (a REDUCE, or an IDENTITY that
   converts, takes a slot of its own: ``_fresh``).  The same walk lowers
   the steps C runs into the plan's program (``Program``).  The plan records each
   slot's byte size; planning writes nothing onto the nodes, so trees that
   share a node plan independently, and nothing onto the plan once it is
   built.

No walk over a tree recurses, the parser included (it climbs precedence
with an explicit stack), so the interpreter's recursion limit bounds no
equation.

Evaluation replays the plan's decisions.  BUFFERED runs every step into its
planned slot, over byte buffers of the recorded sizes made fresh for each
call; each run of consecutive FP32 and FP64 steps that a program runs
(``_step_record``: the elementwise kinds of ``_OPCODES``, conversions,
REDUCE SUM folds, and RESHAPEs, which emit no code), lowered as the plan
was built into its C program (``ExecPlan.program``), runs in one native
call, each step over its own extent, reading each argument as the view
passed lays it out (plain, ROW, COL or SCALAR) and each smaller operand by
broadcast; every other step is one kernel call, and a program that meets
a NaN or an operand C cannot take leaves the plan to its per-step path.
HYBRID runs the non-elementwise nodes the same way, into private buffers,
and each maximal region of pure elementwise maps (TILE_FUSED: the whole
tree, which must be one such region) in blocks of whole tiles: each node's
bound ndarray math (``Kernel.math``) runs on numpy slices, one block within
a fixed byte budget at a time, and every result is rounded to the node's
dtype, as storing a temporary does.  All three produce bitwise-identical
results to naive per-node evaluation because each node runs the same math
on the same values in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import heapq
import json
import re
import string
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import native, ops
from .dtypes import COMPUTE_DTYPE, DType, narrow, widen
from .ops import (
    Approx,
    BinaryKind,
    CmpOp,
    InvalidSpecError,
    Kernel,
    ReduceAxis,
    ReduceOp,
    ReduceSpec,
    TernaryKind,
    TransformKind,
    TransformSpec,
    UnaryKind,
)
from .tensor import Bcast, TensorDesc, TensorView, alloc

OpKind = Union[UnaryKind, BinaryKind, TernaryKind]

# Deepest operation nesting an equation may have (a leaf has depth 0), and
# deepest parenthesis nesting its text may have.  This is a limit of the
# product, not a guard of the interpreter stack, which no tree walk uses:
# it bounds the work and the error of one fused chain, while library and
# benchmark equations stay below 30 levels.
MAX_DEPTH = 256


@dataclass(eq=False)
class EqNode:
    """An equation tree node.  It compares by identity and its ``repr``
    names its children by id, so neither walks the tree."""

    node_id: int
    kind: Optional[OpKind]                 # None marks a leaf
    children: list["EqNode"] = field(default_factory=list)
    arg_slot: Optional[int] = None         # leaf binding
    out_desc: Optional[TensorDesc] = None
    kernel: Optional[Kernel] = None        # the dispatched primitive
    depth: int = 0                         # longest path down to a leaf
    score: int = -1
    need: int = -1       # true minimal temps for this subtree (drives visit order)

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

    def __repr__(self) -> str:
        kids = [c.node_id for c in self.children]
        return f"EqNode({self.node_id}, {self.label()}, children={kids})"


@dataclass
class EqTree:
    root: EqNode
    args: list[TensorDesc]

    def nodes(self) -> list[EqNode]:
        """All nodes, parents after children (post-order): the reverse of a
        walk that takes each node before its children, right to left."""
        out: list[EqNode] = []
        stack = [self.root]
        while stack:
            n = stack.pop()
            out.append(n)
            stack.extend(n.children)
        out.reverse()
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
    becomes the node's, and gets its register score and need (``_score``)."""

    def __init__(self, args: Sequence[TensorDesc]):
        self.args = list(args)
        self._next = 0  # the next node id

    def leaf(self, slot: int) -> EqNode:
        if not 0 <= slot < len(self.args):
            raise EquationError(f"argument slot {slot} out of range")
        self._next += 1
        return EqNode(self._next - 1, None, [], slot, self.args[slot], None, 0, 0, 0)

    def _op(self, kind: OpKind, children: list[EqNode], approx: Approx | None = None,
            reduce: ReduceSpec | None = None, transform: TransformSpec | None = None,
            cmp: CmpOp | None = None, dtype: DType | None = None) -> EqNode:
        depth = 1 + max([c.depth for c in children])
        if depth > MAX_DEPTH:
            raise EquationError(f"equation deeper than MAX_DEPTH = {MAX_DEPTH} operations")
        try:
            kern = ops.kernel_for(kind, tuple([c.out_desc for c in children]), approx, reduce,
                                  transform, cmp)
        except InvalidSpecError as e:
            raise EquationError(f"shape inference failed at {kind.value}: {e}") from None
        od = kern.out_desc
        if dtype is not None and dtype is not od.dtype:
            if kind is not UnaryKind.IDENTITY or dtype not in native.PROGRAM_DTYPES \
                    or not od.dtype.is_float:
                raise EquationError(f"only an IDENTITY of a float value converts, to FP32 or "
                                    f"FP64: {kind.value} of {od.dtype.name} to {dtype.name}")
            od = TensorDesc(od.rows, od.cols, od.rows, dtype)
        self._next += 1
        node = EqNode(self._next - 1, kind, children, None, od, kern, depth)
        _score(node)
        return node

    def unary(self, kind: UnaryKind, child: EqNode, approx: Approx | None = None,
              reduce: ReduceSpec | None = None, transform: TransformSpec | None = None,
              dtype: DType | None = None) -> EqNode:
        """A unary node; ``dtype`` (an IDENTITY's alone) names the float type
        its value takes: FP64 holds any float exactly, and FP32 takes FP64
        rounded to nearest (+-inf beyond its range), as ``narrow`` stores."""
        return self._op(kind, [child], approx, reduce, transform, dtype=dtype)

    def reshape(self, child: EqNode, rows: int, cols: int) -> EqNode:
        """The child's values at ``rows`` x ``cols`` in the same column-major
        order: the bytes of a dense value read at a new extent, as
        ``view_at`` reads them (a TRANSFORM of kind RESHAPE).  Over a
        non-leaf child, and not as the root, it emits no program code: the
        node keeps its child's slot, and the steps that read it read those
        bytes."""
        return self._op(UnaryKind.TRANSFORM, [child], transform=TransformSpec(
            TransformKind.RESHAPE, rows=rows, cols=cols))

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
        stack = [root]  # parents before children, left to right
        while stack:
            n = stack.pop()
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
            stack.extend(reversed(n.children))
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

# a name, or any other single non-space character (one outside ``_SYMBOLS``
# is an error)
_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|\S")
_NAME_START = frozenset(string.ascii_letters + "_")
_SYMBOLS = frozenset("-+*/()")
_ARG_RE = re.compile(r"T\d+")
_ADD_OPS = {"+": BinaryKind.ADD, "-": BinaryKind.SUB}
_MUL_OPS = {"*": BinaryKind.MUL, "/": BinaryKind.DIV, "matmul": BinaryKind.MATMUL}


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _tokens(text: str) -> list[str]:
    """The tokens of ``text``, then "" for its end: names and symbols."""
    vals = _TOKEN_RE.findall(text)
    bad = {v for v in set(vals) if v[0] not in _NAME_START and v not in _SYMBOLS}
    if bad:
        i = next(k for k, v in enumerate(vals) if v in bad)
        raise ParseError(f"unexpected character {vals[i]!r}", _position(text, i))
    vals.append("")
    return vals


def _position(text: str, i: int) -> int:
    """Where token ``i`` of ``text`` starts (its length for the end); found
    again only for an error message."""
    starts = [m.start() for m in _TOKEN_RE.finditer(text)]
    return starts[i] if i < len(starts) else len(text)


def _parse(text: str, b: TreeBuilder) -> EqNode:
    """Precedence climbing over the tokens, with an explicit stack of the
    open parenthesised groups in place of recursion.

    Each group holds at most one pending ``+``/``-`` and one pending
    ``*``/``/``/``matmul`` (its left operand waiting for the right).  When
    an operand completes, the pending multiplicative operator takes it, then
    the next token is read: another multiplicative operator waits for its
    operand; otherwise the pending additive operator takes the result, and
    either an additive operator waits or the group ends.  Nodes are made,
    and errors raised, at the points of the grammar's left-to-right
    recursive descent, so node ids, error messages and positions are those
    of that parser."""
    vals = _tokens(text)
    i = 0
    groups: list[tuple] = []  # per open group: (its unary kind, enclosing add, enclosing mul)
    add = mul = None          # this group's pending (kind, left operand)
    while True:
        # an operand: open groups up to a leaf
        val = vals[i]
        if _ARG_RE.fullmatch(val):
            node = b.leaf(int(val[1:]))
            i += 1
        else:
            unary = _UNARY_NAMES.get(val)
            if unary is not None:
                i += 1
                if vals[i] != "(":
                    raise ParseError(f"expected '(' after {val}", _position(text, i))
            elif val == "":
                raise ParseError("unexpected end of equation", _position(text, i))
            elif val not in _SYMBOLS:
                raise ParseError(f"unknown identifier {val!r}", _position(text, i))
            elif val != "(":
                raise ParseError(f"unexpected token {val!r}", _position(text, i))
            if len(groups) >= MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than MAX_DEPTH = {MAX_DEPTH}",
                                 _position(text, i))
            i += 1
            groups.append((unary, add, mul))
            add = mul = None
            continue
        # the operand is complete: apply pending operators, close groups
        while True:
            if mul is not None:
                node = b.binary(mul[0], mul[1], node)
                mul = None
            val = vals[i]
            kind = _MUL_OPS.get(val)
            if kind is not None:
                i += 1
                mul = (kind, node)
                break
            if add is not None:
                node = b.binary(add[0], add[1], node)
                add = None
            kind = _ADD_OPS.get(val)
            if kind is not None:
                i += 1
                add = (kind, node)
                break
            if not groups:
                if val:
                    raise ParseError(f"trailing input {val!r}", _position(text, i))
                return node
            if val != ")":
                raise ParseError("expected ')'", _position(text, i))
            i += 1
            unary, add, mul = groups.pop()
            if unary is not None:
                node = b.unary(unary, node)


def parse_equation(text: str, args: Sequence[TensorDesc]) -> EqTree:
    """The tree of ``text`` over arguments ``args``; every node is built
    with its kernel, score and need, so the tree needs no further walk."""
    b = TreeBuilder(args)
    root = _parse(text, b)
    if root.is_leaf:
        raise EquationError("the root must be an operation, not a bare argument")
    return EqTree(root, list(b.args))


# ---------------------------------------------------------------------------
# register scores
# ---------------------------------------------------------------------------

def _score(n: EqNode) -> None:
    """Set the register score and the need of ``n`` from its children's.

    The need is the minimal number of concurrent temporaries to evaluate the
    subtree at ``n``.  Evaluating non-leaf children in decreasing-need order,
    the j-th child runs while j-1 earlier outputs are held, so the subtree
    needs max_j(need_j + j - 1); with only leaf children one slot is taken
    for the node itself; a leaf needs 0.  A node that takes a slot of its
    own (``_fresh``) holds its child's while it writes it, so over a non-leaf
    child it needs at least 2.  For unary/binary trees of other nodes this
    coincides with the register score; the ternary score's floor of 3 can
    over- or under-state the true requirement, so planning order and slot
    counts use this value.
    """
    kids = n.children
    if n.kind is None:
        n.score = n.need = 0
    elif len(kids) == 1:
        c = kids[0]
        n.score, n.need = (1, 1) if c.kind is None else (c.score, c.need)
        if c.kind is not None and n.need < 2 and _fresh(n):
            n.need = 2
    elif len(kids) == 2:
        # with a leaf's need of 0, max_j(need_j + j) takes the score's form
        l, r = kids
        n.score = l.score + 1 if l.score == r.score else max(l.score, r.score)
        n.need = l.need + 1 if l.need == r.need else max(l.need, r.need)
    else:
        if all(c.kind is None for c in kids):
            n.score = 1
        else:
            n.score = max(3, *(c.score for c in kids))
        needs = sorted([c.need for c in kids if c.kind is not None], reverse=True)
        n.need = max([v + j for j, v in enumerate(needs)], default=1)


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
    temp_count: int              # distinct slots reserved by the planner
    slot_bytes: dict[int, int]   # slot -> bytes of its largest non-root occupant
    naive_bytes: int             # sum of non-root intermediate sizes
    recycled: bool               # whether any slot was ever freed and reused
    # the steps lowered for BUFFERED, as the planner's walk emits them
    program: Program = field(repr=False, compare=False)

    @property
    def rep_bytes(self) -> int:
        """Representative slot size: the largest non-root intermediate."""
        return max(self.slot_bytes.values(), default=0)

    @property
    def temp_bytes(self) -> int:
        """Scratch footprint: the bytes of every slot, as BUFFERED allocates
        them.  Each slot is charged at its largest occupant, so this never
        exceeds naive materialisation."""
        return sum(self.slot_bytes.values())

    @property
    def out_desc(self) -> TensorDesc:
        return self.tree.root.out_desc


def create_execution_plan(tree: EqTree) -> ExecPlan:
    """Timestamped evaluation order with minimal temporary slots.

    Children are visited in decreasing order of their true temp requirement
    (ties left-to-right; for unary/binary trees this requirement equals the
    register score, for ternary nodes the score's floor of 3 would misorder
    some trees).  A node inherits the slot of its first non-leaf child in
    the order left, right, middle and recycles the slots of the others; a
    node over leaves only takes the lowest free slot, or a new one, and so
    does a node that needs a slot of its own (``_fresh``), before it
    recycles its children's.  The same walk lowers the plan's ``program``.
    A tree not scored by ``TreeBuilder`` (its root has no score) is an
    EquationError.
    """
    if tree.root.score < 0 or tree.root.need < 0:
        raise EquationError("the tree carries no register scores: build it with TreeBuilder")

    free: list[int] = []
    temp_count = 0
    steps: list[PlanStep] = []
    slot_bytes: dict[int, int] = {}
    recycled = False
    # a walk that takes each node before its children, pushing them in visit
    # order so the last is taken first, is the visit order reversed
    root = tree.root
    order: list[EqNode] = []
    stack = [root]
    while stack:
        n = stack.pop()
        order.append(n)
        kids = n.children
        if len(kids) > 1:
            kids = sorted(kids, key=_by_need)  # stable: ties stay left to right
        for c in kids:
            if c.kind is not None:
                stack.append(c)
    slot_of: dict[EqNode, int] = {}  # the plan's slots live here, not on the nodes
    # the program, lowered in the same walk: a step whose node has a step
    # record (``_step_record``) joins the open run, or opens one; every
    # other step stays a kernel call and publishes its lowered children's
    # slots
    nargs = len(tree.args)
    schedule: list = []   # the steps, each run as [steps, live]
    code: list[int] = []
    reads: set[int] = set()
    folds: set[int] = set()
    run = None            # the open run
    run_of: dict[EqNode, list] = {}  # lowered node -> its run
    out_dtype = None
    for n in reversed(order):
        kids = n.children
        inputs = []
        refs = []   # the operand numbers of the inputs in the program's table
        held = []   # the slots of the non-leaf children, the one to inherit first
        for c in kids:
            if c.kind is None:
                inputs.append(("arg", c.arg_slot))
                refs.append(c.arg_slot)
            else:
                c_slot = slot_of[c]
                inputs.append(("tmp", c_slot))
                refs.append(nargs + c_slot)
                held.append(c_slot)
        if len(held) == 2 and len(kids) == 3 and kids[0].kind is None:
            held.reverse()   # the right child before the middle one
        is_root = n is root
        # the root writes out, so it may keep a child's slot as its own
        if held and (is_root or len(kids) > 1 or not _fresh(n)):
            slot = held.pop(0)
        elif free:
            slot = heapq.heappop(free)
        else:
            slot = temp_count
            temp_count += 1
        for other in held:
            heapq.heappush(free, other)
            recycled = True
        slot_of[n] = slot
        if not is_root:
            slot_bytes[slot] = max(slot_bytes.get(slot, 0), n.out_desc.nbytes)
        step = PlanStep(len(steps), n, tuple(inputs), ("tmp", slot), is_root)
        steps.append(step)
        record = _step_record(n)
        if record is None or (is_root and not record):
            run = None
            for c in kids:
                if c in run_of:
                    run_of[c][1].append((slot_of[c], c.out_desc))
            schedule.append(step)
            continue
        if run is None:
            run = [0, []]
            schedule.append(run)
        run_of[n] = run
        if not record:   # a RESHAPE: its child's bytes in its child's slot
            continue
        run[0] += 1
        for ref in refs:
            if ref < nargs:
                reads.add(ref)
        if record[0] >= _FOLD and refs[0] < nargs:
            folds.add(refs[0])
        if len(refs) == 1:   # a unary step reads a as b and c, a binary one as c
            refs *= 3
        elif len(refs) == 2:
            refs.append(refs[0])
        code += record
        code += refs
        # the root is the last step, so temp_count is final when it writes out
        code.append(nargs + (temp_count if is_root else slot))
        if is_root:
            out_dtype = n.out_desc.dtype

    program = np.array(code, dtype=np.int64)
    at = native.address(program) if code else 0
    for i, item in enumerate(schedule):
        if type(item) is list:
            count, live = item
            schedule[i] = Run(count, at, tuple(live))
            at += 8 * _STEP_LEN * count
    naive = sum(s.node.out_desc.nbytes for s in steps if not s.is_root)
    return ExecPlan(tree, steps, temp_count, slot_bytes, naive, recycled,
                    Program(tuple(schedule), program, tuple(sorted(reads)),
                            tuple(sorted(folds)), out_dtype))


def _by_need(n: EqNode) -> int:
    return -n.need


def plan_equation(text: str, args: Sequence[TensorDesc]) -> ExecPlan:
    return create_execution_plan(parse_equation(text, args))


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
            staged = alloc(out.desc)
            n.kernel(*ins, out=staged)
            out.as2d()[:, :] = staged.as2d()
            return
    n.kernel(*ins, out=out)


def _slot_view(buf: np.ndarray, desc: TensorDesc) -> TensorView:
    """``desc`` (a kernel output, so dense) over the head of a slot's bytes."""
    return TensorView(desc, buf[:desc.nbytes].view(desc.dtype.storage))


def evaluate(plan: ExecPlan, strategy: EvalStrategy, args: Sequence[TensorView],
             out: TensorView, step_hook: Callable | None = None) -> None:
    """Execute a plan.  ``step_hook(step, dead_views)`` runs after every
    buffered step with the views of the slots that step recycled (test
    instrumentation: poisoning them must not change the result); with a
    hook, BUFFERED runs every step on its own, running no program."""
    _check_args(plan, args, out)
    if isinstance(strategy, Buffered):
        _eval_buffered(plan, args, out, step_hook)
    elif isinstance(strategy, (TileFused, Hybrid)):
        if isinstance(strategy, TileFused):
            for s in plan.steps:
                if not s.node.fusable():
                    raise EquationError(
                        f"TILE_FUSED is only legal for elementwise trees; {s.node.label()} is not")
        _eval_hybrid(plan, args, out, strategy.tile_m, strategy.tile_n)
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
    """Run the plan's program (``ExecPlan.program``) where C takes its
    operands, else every step on its own.  A run that makes a NaN reruns
    the whole plan step by step from fresh scratch: the arguments were
    never written and ``out`` overlaps none of them, so the rerun gives the
    per-step bits."""
    # fresh slot buffers per call, so concurrent evaluations of one plan
    # share nothing
    bufs = {slot: np.zeros(n, dtype=np.uint8) for slot, n in plan.slot_bytes.items()}
    prog = plan.program
    if step_hook is None and prog.code.size:
        run = native.program(args, prog.reads, prog.folds, bufs, plan.temp_count, out,
                             prog.out_dtype)
        if run is not None:
            if _run_schedule(prog.schedule, args, out, bufs, None, run):
                return
            bufs = {slot: np.zeros(n, dtype=np.uint8) for slot, n in plan.slot_bytes.items()}
    _run_schedule(plan.steps, args, out, bufs, step_hook, None)


def _run_schedule(schedule: Sequence, args: Sequence[TensorView], out: TensorView,
                  bufs: dict[int, np.ndarray], step_hook: Callable | None,
                  run: Callable | None) -> bool:
    """Run plan steps and lowered runs in order over the slot buffers
    ``bufs``, each run by one call of ``run`` (``native.program``); False as
    soon as a run reports a NaN."""
    views: dict[int, TensorView] = {}  # slot -> view of its current occupant
    made: dict[tuple[int, TensorDesc], TensorView] = {}  # one view per slot and descriptor
    for s in schedule:
        if type(s) is Run:
            if not run(s.address, s.steps):
                return False
            for slot, desc in s.live:
                views[slot] = _slot_dst(made, bufs, slot, desc)
            continue
        ins = [args[ref] if kind == "arg" else views[ref] for (kind, ref) in s.inputs]
        if s.is_root:
            dst = out
        else:
            dst = views[s.output[1]] = _slot_dst(made, bufs, s.output[1], s.node.out_desc)
        _run_node(s.node, ins, dst)
        if step_hook is not None:
            step_hook(s, [views[ref] for (kind, ref) in s.inputs
                          if kind == "tmp" and ref != s.output[1]])
    return True


def _slot_dst(made: dict[tuple[int, TensorDesc], TensorView], bufs: dict[int, np.ndarray],
              slot: int, desc: TensorDesc) -> TensorView:
    """The view of ``desc`` over ``slot``, made once per evaluation; a
    kernel that left a payload on its output keeps that view."""
    key = (slot, desc)
    dst = made.get(key)
    if dst is None or dst.secondary is not None or dst.tertiary is not None:
        dst = made[key] = _slot_view(bufs[slot], desc)
    return dst


# ---------------------------------------------------------------------------
# lowering: BUFFERED's FP32 and FP64 steps as one C program
# ---------------------------------------------------------------------------

# the elementwise kinds a program runs, by their opcode in native.c's program
_OPCODES = {BinaryKind.ADD: 0, BinaryKind.SUB: 1, BinaryKind.MUL: 2, UnaryKind.SQUARE: 3,
            UnaryKind.RELU: 4, BinaryKind.DIV: 5, BinaryKind.MAX: 6, UnaryKind.RSQRT: 7,
            TernaryKind.MULADD: 8, TernaryKind.NMULADD: 9}
_CONVERT = 10   # an IDENTITY from FP32 to FP64 or back
# the REDUCE specs a program folds, by opcode; every opcode from _FOLD up is a fold
_FOLD = 11
_FOLDS = {ReduceSpec(ReduceAxis.ROWS, ReduceOp.SUM): _FOLD,
          ReduceSpec(ReduceAxis.ROWS, ReduceOp.SUM, squared=True): _FOLD + 1,
          ReduceSpec(ReduceAxis.COLS, ReduceOp.SUM): _FOLD + 2}
_STEP_LEN = 11   # int64 fields of a step record: the 7 of ``_step_record``, a, b, c, d


def _step_record(node: EqNode) -> tuple | None:
    """The fixed fields of the program step that runs ``node``: (op, type,
    m, n, ka, kb, kc), type 1 for FP64 and 0 for FP32, m x n the extent
    the step runs over, and each k how it reads its operand a, b or c (a
    Bcast code: a 1 x n value as ROW, m x 1 as COL, 1 x 1 as SCALAR, as
    ``ops._join`` broadcasts them).  () for a RESHAPE of a non-leaf child, which emits
    no code; None when the node stays a kernel call.

    A program runs the elementwise kinds of ``_OPCODES`` (RELU without a
    bitmask) whose value and operands are all FP32, or all FP64; an IDENTITY
    that converts FP32 to FP64 or back (CONVERT, over its value's extent);
    and the REDUCE SUM folds of ``_FOLDS`` of an FP32 or FP64 operand (over
    the operand's extent).  A leaf may be declared a broadcast of any kind,
    since the program reads each argument as the view passed to
    ``evaluate`` lays it out."""
    od = node.out_desc
    dtype = od.dtype
    if dtype is not DType.FP32 and dtype is not DType.FP64:
        return None
    kind, kernel, children = node.kind, node.kernel, node.children
    fp64 = int(dtype is DType.FP64)
    a = children[0].out_desc
    op = _OPCODES.get(kind)
    if op is None:
        if kind is UnaryKind.REDUCE:
            op = _FOLDS.get(kernel.spec.reduce)
            return None if op is None or a.dtype is not dtype else \
                (op, fp64, a.rows, a.cols, 0, 0, 0)
        if kind is UnaryKind.IDENTITY:
            return None if a.dtype is dtype or a.dtype not in native.PROGRAM_DTYPES else \
                (_CONVERT, fp64, od.rows, od.cols, 0, 0, 0)
        if kind is UnaryKind.TRANSFORM:
            return () if kernel.spec.transform.kind is TransformKind.RESHAPE \
                and children[0].kind is not None else None
        return None
    if kernel.math is None or a.dtype is not dtype:
        return None
    m, n = od.rows, od.cols
    ka = (a.rows != m) | (a.cols != n) << 1
    if len(children) == 1:
        return (op, fp64, m, n, ka, ka, ka)
    b = children[1].out_desc
    if b.dtype is not dtype:
        return None
    kb = (b.rows != m) | (b.cols != n) << 1
    if len(children) == 2:
        return (op, fp64, m, n, ka, kb, ka)
    c = children[2].out_desc
    if c.dtype is not dtype:
        return None
    return (op, fp64, m, n, ka, kb, (c.rows != m) | (c.cols != n) << 1)


def _fresh(n: EqNode) -> bool:
    """Whether ``n`` takes a slot none of its children holds: a REDUCE, or
    an IDENTITY that converts, writes a value of another extent or element
    size than the one it reads, which a program step writing in place would
    overwrite before reading it.  Every other step writes in place safely:
    an elementwise one reads each element before it writes it (a broadcast
    operand too, see native.c), a RESHAPE writes nothing, and a kernel call
    reads its operands whole first (``_run_node`` stages the layouts and
    contractions)."""
    return n.kind is UnaryKind.REDUCE or (n.kind is UnaryKind.IDENTITY and
                                          n.out_desc.dtype is not n.children[0].out_desc.dtype)


class Run(NamedTuple):
    """Consecutive lowered steps, run by one C call: its ``steps`` step
    records of ``_STEP_LEN`` int64 at ``address`` (op, type, m, n, ka, kb,
    kc, a, b, c, d), each with its own extent and type, name operands of
    the program's table (the arguments, then the slots, then ``out``; a
    unary step reads a three times, a binary one reads a as its unused c);
    ``live`` holds the (slot, descriptor) of each value it makes that a step
    outside the program reads."""

    steps: int
    address: int
    live: tuple[tuple[int, TensorDesc], ...]


class Program(NamedTuple):
    """A plan lowered for BUFFERED: ``schedule`` is the plan's steps in
    order, each maximal run of lowered steps replaced by its ``Run``;
    ``code`` holds all their step records (int64), ``reads`` lists the
    arguments they read and ``folds`` those a REDUCE step reads, and
    ``out_dtype`` is the dtype in which one writes the root, None when the
    root stays a kernel call."""

    schedule: tuple
    code: np.ndarray
    reads: tuple[int, ...]
    folds: tuple[int, ...]
    out_dtype: DType | None


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
                tile_m: int, tile_n: int, materialized: dict[int, TensorView]) -> None:
    """Run ``steps`` (all fusable, the region's root last) in blocks of whole
    tiles; a child outside the region is an argument or a value in
    ``materialized`` (by node id).

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
    root = steps[-1].node
    rows, cols = root.out_desc.rows, root.out_desc.cols
    region = {s.node.node_id: i for i, s in enumerate(steps)}
    inputs: list[tuple[np.ndarray, bool, bool]] = []  # (values, tile rows?, tile cols?)
    read: dict[int, int] = {}    # id(view) -> position in inputs
    source: dict[int, int] = {}  # node id of a child outside the region -> position in inputs
    for s in steps:
        for c, (kind, ref) in zip(s.node.children, s.inputs):
            if c.node_id in region:
                continue
            v = args[ref] if kind == "arg" else materialized[c.node_id]
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
                 tile_m: int, tile_n: int) -> None:
    """Buffered execution of the non-elementwise nodes and tiled execution of
    each maximal elementwise region, at the step of the region's root.

    One reverse pass over the steps (parents before children) puts every
    fusable node in the region of its fusable parent, or makes it the root
    of a region of its own.  Tiled nodes write no slot, so a region reads
    its inputs after the plan may have recycled their slots; every
    materialised value therefore gets a private buffer rather than a plan
    slot."""
    regions: dict[int, list[PlanStep]] = {}  # region root's node id -> steps, root first
    region_of: dict[int, int] = {}           # node id -> its region root's node id
    for s in reversed(plan.steps):
        n = s.node
        if n.fusable():
            top = region_of.get(n.node_id, n.node_id)
            regions.setdefault(top, []).append(s)
            for c in n.children:
                region_of[c.node_id] = top

    materialized: dict[int, TensorView] = {}
    for s in plan.steps:
        n = s.node
        region = regions.get(n.node_id)
        if region is None and n.fusable():
            continue  # runs inside its region
        dst = out if s.is_root else alloc(n.out_desc)
        if region is not None:
            _eval_tiled(region[::-1], args, dst, tile_m, tile_n, materialized)
        else:
            _run_node(n, [args[ref] if kind == "arg" else materialized[c.node_id]
                          for c, (kind, ref) in zip(n.children, s.inputs)], dst)
        materialized[n.node_id] = dst


def evaluate_naive(tree: EqTree, args: Sequence[TensorView], out: TensorView) -> None:
    """Reference evaluation: one freshly materialised tensor per node, same
    kernels, no plan machinery."""

    done: dict[int, TensorView] = {}  # node id -> value not yet consumed
    for n in tree.nodes():
        if n.is_leaf:
            done[n.node_id] = args[n.arg_slot]
            continue
        ins = [done.pop(c.node_id) for c in n.children]
        dst = out if n is tree.root else alloc(n.out_desc)
        _run_node(n, ins, dst)
        done[n.node_id] = dst


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


def _export_dot(plan: ExecPlan) -> str:
    step_of = {s.node: s for s in plan.steps}
    lines = ["digraph equation {", "  rankdir=BT;"]
    for n in plan.tree.nodes():
        if n.is_leaf:
            lines.append(f'  n{n.node_id} [shape=box,label="T{n.arg_slot}"];')
        else:
            s = step_of[n]
            tmp = "out" if s.is_root else f"tmp{s.output[1]}"
            lines.append(
                f'  n{n.node_id} [label="{n.label()}\\nv={n.score} t={s.timestamp} {tmp}"];')
    for n in plan.tree.nodes():
        for c in n.children:
            lines.append(f"  n{c.node_id} -> n{n.node_id};")
    lines.append("}")
    return "\n".join(lines)
