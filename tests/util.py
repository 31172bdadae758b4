"""Shared test helpers."""

import heapq
import re

import numpy as np

from tensorprim import (
    BinaryKind,
    Buffered,
    ReduceAxis,
    ReduceOp,
    ReduceSpec,
    TensorDesc,
    UnaryKind,
    alloc,
    create_execution_plan,
    evaluate,
)
from tensorprim.equation import (
    _ARG_RE,
    _UNARY_NAMES,
    MAX_DEPTH,
    ExecPlan,
    ParseError,
    PlanStep,
    TreeBuilder,
)


def bits_equal(a, b) -> bool:
    """Bitwise array equality (NaN payloads included)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def colmajor_flat(x: np.ndarray) -> np.ndarray:
    """Flatten a 2D array into its column-major element order."""
    return np.asarray(x, order="F").reshape(-1, order="F").copy()


# ---------------------------------------------------------------------------
# the recursive equation parser and planner, kept as the oracle of the
# iterative ones (both follow the grammar and the planning rule literally)
# ---------------------------------------------------------------------------

def oracle_parse(text, args):
    """The equation tree of ``text`` by left-to-right recursive descent over
    ``expr := term (('+'|'-') term)*``, ``term := factor (('*'|'/'|'matmul')
    factor)*``, ``factor := name '(' expr ')' | 'T<k>' | '(' expr ')'``;
    every node's score and need are then set again by the documented rule."""
    b = TreeBuilder(args)
    tree = b.tree(_OracleParser(text, b).parse())
    for n in oracle_nodes(tree.root):
        oracle_score(n)
    return tree


def oracle_nodes(n):
    """The nodes of the tree under ``n``, children before parents."""
    return [m for c in n.children for m in oracle_nodes(c)] + [n]


_ORACLE_TOKEN_RE = re.compile(r"(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<sym>[-+*/()])|(?P<bad>\S)")


class _OracleParser:
    def __init__(self, text, builder):
        self.text = text
        self.b = builder
        self.toks = []
        for m in _ORACLE_TOKEN_RE.finditer(text):
            if m.lastgroup == "bad":
                raise ParseError(f"unexpected character {m.group()!r}", m.start())
            self.toks.append((m.lastgroup, m.group(), m.start()))
        self.i = 0
        self.nesting = 0

    def _peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else ("eof", "", len(self.text))

    def _next(self):
        t = self._peek()
        self.i += 1
        return t

    def parse(self):
        node = self.expr()
        kind, val, pos = self._peek()
        if kind != "eof":
            raise ParseError(f"trailing input {val!r}", pos)
        return node

    def expr(self):
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

    def term(self):
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

    def factor(self):
        kind, val, pos = self._next()
        if kind == "name" and _ARG_RE.fullmatch(val):
            return self.b.leaf(int(val[1:]))
        unary = None
        if kind == "name" and val in _UNARY_NAMES:
            unary = _UNARY_NAMES[val]
            kind, v2, pos = self._next()
            if v2 != "(":
                raise ParseError(f"expected '(' after {val}", pos)
        elif kind == "name":
            raise ParseError(f"unknown identifier {val!r}", pos)
        elif kind == "eof":
            raise ParseError("unexpected end of equation", pos)
        elif val != "(":
            raise ParseError(f"unexpected token {val!r}", pos)
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ParseError(f"parentheses nested deeper than MAX_DEPTH = {MAX_DEPTH}", pos)
        node = self.expr()
        _, v3, p3 = self._next()
        if v3 != ")":
            raise ParseError("expected ')'", p3)
        self.nesting -= 1
        return node if unary is None else self.b.unary(unary, node)


def oracle_score(n):
    """Score and need of ``n`` from its children's, by the documented rule."""
    kids = n.children
    if n.kind is None:
        n.score = n.need = 0
    elif len(kids) == 1:
        c = kids[0]
        n.score, n.need = (1, 1) if c.kind is None else (c.score, c.need)
    else:
        if len(kids) == 2:
            l, r = kids
            n.score = l.score + 1 if l.score == r.score else max(l.score, r.score)
        elif all(c.kind is None for c in kids):
            n.score = 1
        else:
            n.score = max(3, *(c.score for c in kids))
        needs = sorted([c.need for c in kids if c.kind is not None], reverse=True)
        n.need = max([v + j for j, v in enumerate(needs)], default=1)


def oracle_plan(tree):
    """The execution plan of a scored tree by a recursive walk: children in
    decreasing-need order (ties left to right), each node stamped when its
    children are done; it inherits the slot of its first non-leaf child in
    the order left, right, middle and frees the others, or takes the lowest
    free slot, or a new one."""
    free, steps, slot_bytes, slot_of = [], [], {}, {}
    state = {"count": 0, "recycled": False}

    def plan(n):
        kids = n.children
        for c in sorted(kids, key=lambda c: -c.need) if len(kids) > 1 else kids:
            if not c.is_leaf:
                plan(c)
        held = [slot_of[c] for c in (n.children[0], *n.children[:0:-1]) if not c.is_leaf]
        if held:
            slot_of[n] = held[0]
            for slot in held[1:]:
                heapq.heappush(free, slot)
                state["recycled"] = True
        elif free:
            slot_of[n] = heapq.heappop(free)
        else:
            slot_of[n] = state["count"]
            state["count"] += 1
        is_root = n is tree.root
        if not is_root:
            slot_bytes[slot_of[n]] = max(slot_bytes.get(slot_of[n], 0), n.out_desc.nbytes)
        steps.append(PlanStep(len(steps), n,
                              tuple(("arg", c.arg_slot) if c.is_leaf else ("tmp", slot_of[c])
                                    for c in n.children),
                              ("tmp", slot_of[n]), is_root))

    plan(tree.root)
    naive = sum(s.node.out_desc.nbytes for s in steps if not s.is_root)
    return ExecPlan(tree, steps, state["count"], slot_bytes, naive, state["recycled"], None)


def enumerate_min_slots(tree) -> int:
    """Literal exhaustive enumeration of every topological order with greedy
    free-then-allocate slot simulation (cross-checks the lattice search of
    ``verify.min_temp_slots``)."""
    internal = tree.internal_nodes()
    n = len(internal)
    idx = {node.node_id: i for i, node in enumerate(internal)}
    kids = [[idx[c.node_id] for c in node.children if not c.is_leaf] for node in internal]
    best = [1 << 30]

    def rec(done: set, slot_of: dict, free: list, used: int, peak: int):
        if len(done) == n:
            best[0] = min(best[0], peak)
            return
        if peak >= best[0]:
            return
        for i in range(n):
            if i in done or any(c not in done for c in kids[i]):
                continue
            freed = [slot_of[c] for c in kids[i]]
            f2 = sorted(free + freed)
            if f2:
                slot, rest = f2[0], f2[1:]
                u2, p2 = used, peak
            else:
                slot, rest = used, []
                u2, p2 = used + 1, max(peak, used + 1)
            slot_of[i] = slot
            done.add(i)
            rec(done, slot_of, rest, u2, p2)
            done.remove(i)
            del slot_of[i]

    rec(set(), {}, [], 0, 0)
    return best[0]


# ---------------------------------------------------------------------------
# the per-slice softmax, kept as the oracle of the batched one: two plans of
# three steps on every s1 x s3 slice, each slice's MAX and SUM an ALL reduce
# ---------------------------------------------------------------------------

def oracle_softmax(spec, x, y):
    """Softmax of ``x`` into ``y`` one slice at a time, under Buffered: the
    plans exp(X - max(X)) and X' * reciprocal(sum(X')) over each s1 x s3
    slice, through one slice-sized scratch."""
    b = TreeBuilder([TensorDesc(spec.s1, spec.s3, spec.s1, x.desc.dtype)])
    mx = b.unary(UnaryKind.REDUCE, b.leaf(0), reduce=ReduceSpec(ReduceAxis.ALL, ReduceOp.MAX))
    t1 = b.tree(b.unary(UnaryKind.EXP, b.binary(BinaryKind.SUB, b.leaf(0), mx)))
    b = TreeBuilder([t1.root.out_desc])
    sm = b.unary(UnaryKind.REDUCE, b.leaf(0), reduce=ReduceSpec(ReduceAxis.ALL, ReduceOp.SUM))
    t2 = b.tree(b.binary(BinaryKind.MUL, b.leaf(0), b.unary(UnaryKind.RECIPROCAL, sm)))
    p1, p2 = create_execution_plan(t1), create_execution_plan(t2)
    scratch = alloc(p1.out_desc)
    for j in range(spec.s2):
        evaluate(p1, Buffered(), [x.col_block(j * spec.s3, spec.s3)], scratch)
        evaluate(p2, Buffered(), [scratch], y.col_block(j * spec.s3, spec.s3))
