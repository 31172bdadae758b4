import json
from unittest import mock

import numpy as np
import pytest

from tensorprim import (
    BinaryKind,
    Buffered,
    DType,
    Hybrid,
    TensorDesc,
    TernaryKind,
    TileFused,
    TreeBuilder,
    UnaryKind,
    alloc,
    create_execution_plan,
    evaluate,
    evaluate_naive,
    export_plan,
    from_array,
    parse_equation,
    plan_equation,
    to_array,
)
from tensorprim.equation import MAX_DEPTH, EquationError, ParseError, plan_to_dict
from tensorprim import equation, verify

from util import bits_equal, enumerate_min_slots, oracle_nodes, oracle_parse, oracle_plan


def D(m, n, dtype=DType.FP32):
    return TensorDesc(m, n, m, dtype)


WORKED = "tanh(T0) + (T1 matmul T2) / (T3 - T4)"


# ---------------------------------------------------------------------------
# construction and parsing
# ---------------------------------------------------------------------------

def test_worked_example_structure():
    tree = parse_equation(WORKED, [D(4, 4)] * 5)
    nodes = tree.nodes()
    assert sum(n.is_leaf for n in nodes) == 5
    assert sum(not n.is_leaf for n in nodes) == 5
    assert tree.root.kind is BinaryKind.ADD


def test_single_leaf_root_rejected():
    with pytest.raises(EquationError):
        parse_equation("T0", [D(4, 4)])


def test_mismatched_matmul_dims_rejected():
    with pytest.raises(EquationError):
        parse_equation("T0 matmul T1", [D(4, 3), D(4, 4)])


def test_nodes_bound_to_dispatched_kernels():
    tree = parse_equation(WORKED, [D(4, 4)] * 5)
    for n in tree.internal_nodes():
        assert n.kernel.spec.kind is n.kind
        assert n.out_desc == n.kernel.out_desc
    assert tree.root.out_desc == D(4, 4)


def test_dropout_node_rejected_at_build():
    """An equation has no drop probability to give a DROPOUT node."""
    b = TreeBuilder([D(4, 4)])
    with pytest.raises(EquationError, match="DROPOUT needs p"):
        b.unary(UnaryKind.DROPOUT, b.leaf(0))


def test_parse_error_has_position():
    with pytest.raises(ParseError) as e:
        parse_equation("tanh(T0", [D(2, 2)])
    assert e.value.pos == 7
    # the character after a space is the one named, not the space
    with pytest.raises(ParseError, match=r"unexpected character '\$'") as e:
        parse_equation("T0 + $T1", [D(2, 2)] * 2)
    assert e.value.pos == 5
    # text that ends where an operand is due names the end, not an empty token
    for text in ("tanh(", "T0 +", "T0 matmul", ""):
        with pytest.raises(ParseError, match="unexpected end of equation") as e:
            parse_equation(text, [D(2, 2)])
        assert e.value.pos == len(text)


def test_unknown_identifier():
    with pytest.raises(ParseError):
        parse_equation("frobnicate(T0)", [D(2, 2)])


def test_dag_reuse_rejected():
    b = TreeBuilder([D(2, 2)])
    leaf = b.leaf(0)
    n = b.unary(UnaryKind.RELU, leaf)
    with pytest.raises(EquationError):
        b.tree(b.binary(BinaryKind.ADD, n, n))


# ---------------------------------------------------------------------------
# the iterative parser and planner against the recursive oracle
# ---------------------------------------------------------------------------

_UNARY_TEXTS = sorted(equation._UNARY_NAMES)
_SEPARATORS = ("", " ", "  ", "\t", "\n", " \t ")


def _random_equation_text(rng, max_depth=6):
    """A random equation text and its argument descriptors.  Unary names,
    ``+ - * /`` (the right operand possibly broadcast), ``matmul`` on
    compatible shapes, redundant parentheses, argument names with a leading
    zero and random whitespace all occur; operands are parenthesised where
    precedence would regroup them."""
    dtype = DType.FP64 if rng.random() < 0.3 else DType.FP32
    descs = []

    def arg(r, c):
        same = [k for k, d in enumerate(descs) if (d.rows, d.cols) == (r, c)]
        if same and rng.random() < 0.5:
            k = same[int(rng.integers(len(same)))]
        else:
            descs.append(TensorDesc(r, c, r, dtype))
            k = len(descs) - 1
        return [f"T{k}" if rng.random() < 0.9 else f"T0{k}"]

    def wrap(toks, level, need):
        return toks if level >= need else ["(", *toks, ")"]

    def gen(r, c, depth):
        """(tokens, level) of an r x c expression; level 0 is a sum, 1 a
        product, 2 an operand."""
        roll = rng.random()
        if depth >= max_depth or roll < 0.2:
            return arg(r, c), 2
        if roll < 0.45:
            name = _UNARY_TEXTS[int(rng.integers(len(_UNARY_TEXTS)))]
            return [name, "(", *gen(r, c, depth + 1)[0], ")"], 2
        if roll < 0.55:
            return ["(", *gen(r, c, depth + 1)[0], ")"], 2
        if roll < 0.7:
            k = int(rng.integers(1, 5))
            left, right = gen(r, k, depth + 1), gen(k, c, depth + 1)
            return [*wrap(*left, 1), "matmul", *wrap(*right, 2)], 1
        op = "+-*/"[int(rng.integers(4))]
        level = 0 if op in "+-" else 1
        r2, c2 = [(r, c), (r, c), (1, 1), (r, 1), (1, c)][int(rng.integers(5))]
        left, right = gen(r, c, depth + 1), gen(r2, c2, depth + 1)
        return [*wrap(*left, level), op, *wrap(*right, level + 1)], level

    r, c = (int(v) for v in rng.integers(1, 5, size=2))
    toks = [rng.choice(_SEPARATORS)]
    for tok in gen(r, c, 0)[0]:
        sep = rng.choice(_SEPARATORS)
        if not sep and (toks[-1][-1:].isalnum() and tok[0].isalnum()):
            sep = " "  # two names must not run together
        toks += [sep, tok]
    return "".join(toks + [rng.choice(_SEPARATORS)]), descs


def _corrupt(rng, text):
    """``text`` truncated, or with one character dropped, or with a token
    inserted."""
    i = int(rng.integers(len(text) + 1))
    roll = rng.random()
    if roll < 0.35:
        return text[:i]
    if roll < 0.6 and text:
        return text[:max(i - 1, 0)] + text[i:]
    junk = ["(", ")", "+", "*", "/", "T9", "tanh", "matmul", "$", "3", "frob", " "]
    return text[:i] + junk[int(rng.integers(len(junk)))] + text[i:]


def _outcome(parse, plan, text, descs):
    """The plan and tree of ``text``, or the error it raises."""
    try:
        tree = parse(text, descs)
    except (ParseError, EquationError) as e:
        return type(e), str(e), getattr(e, "pos", None)
    return plan(tree), tree


_NODE_FIELDS = ("node_id", "kind", "arg_slot", "out_desc", "depth", "score", "need")


def _assert_same_outcome(text, descs):
    got = _outcome(parse_equation, create_execution_plan, text, descs)
    want = _outcome(oracle_parse, oracle_plan, text, descs)
    if len(want) == 3:
        assert got == want, text
        return
    (plan, tree), (oplan, otree) = got, want
    assert export_plan(plan, "json") == export_plan(oplan, "json"), text
    assert plan.temp_count == oplan.temp_count and plan.recycled == oplan.recycled
    nodes, onodes = tree.nodes(), oracle_nodes(otree.root)
    assert len(nodes) == len(onodes)
    for n, o in zip(nodes, onodes):
        assert [getattr(n, f) for f in _NODE_FIELDS] == [getattr(o, f) for f in _NODE_FIELDS]
        assert n.kernel is o.kernel
    assert len(plan.steps) == len(oplan.steps)
    for s, o in zip(plan.steps, oplan.steps):
        assert (s.timestamp, s.node.node_id, s.inputs, s.output, s.is_root) == \
            (o.timestamp, o.node.node_id, o.inputs, o.output, o.is_root)


def test_parser_and_planner_match_the_recursive_oracle():
    """400 random equations: the iterative parser and planner give the
    recursive descent's and the recursive planner's plan JSON byte for
    byte, every node's score, need, depth and kernel, and every step's
    timestamp and slots."""
    rng = np.random.default_rng(17)
    seen_ops, planned = set(), 0
    while planned < 400:
        text, descs = _random_equation_text(rng)
        _assert_same_outcome(text, descs)
        try:
            tree = parse_equation(text, descs)
        except EquationError:  # a bare argument, possibly parenthesised
            continue
        planned += 1
        seen_ops |= {n.kind for n in tree.internal_nodes()}
    assert {BinaryKind.ADD, BinaryKind.SUB, BinaryKind.MUL, BinaryKind.DIV,
            BinaryKind.MATMUL} <= seen_ops
    assert {equation._UNARY_NAMES[name] for name in _UNARY_TEXTS} <= seen_ops


def test_parse_errors_match_the_recursive_oracle():
    """Truncated and corrupted texts raise the oracle's error: the same
    type, message and position (or both parse, to the same plan)."""
    rng = np.random.default_rng(18)
    kinds = ("unexpected character", "unexpected end", "unexpected token",
             "unknown identifier", "expected '('", "expected ')'", "trailing input",
             "argument slot", "the root must")
    met = set()
    for _ in range(400):
        text, descs = _random_equation_text(rng, max_depth=4)
        for _ in range(3):
            bad = _corrupt(rng, text)
            _assert_same_outcome(bad, descs)
            try:
                parse_equation(bad, descs)
            except (ParseError, EquationError) as e:
                met |= {k for k in kinds if str(e).startswith(k)}
    assert met == set(kinds)


# ---------------------------------------------------------------------------
# register scores
# ---------------------------------------------------------------------------

def test_worked_example_root_score_two():
    tree = parse_equation(WORKED, [D(4, 4)] * 5)
    assert tree.root.score == 2


def test_unary_chain_scores_all_one():
    b = TreeBuilder([D(3, 3)])
    node = b.leaf(0)
    for _ in range(7):
        node = b.unary(UnaryKind.TANH, node)
    tree = b.tree(node)
    assert all(n.score == 1 for n in tree.internal_nodes())


def test_balanced_binary_tree_score_is_depth():
    for depth in range(1, 5):
        b = TreeBuilder([D(2, 2)])

        def build(d):
            if d == 0:
                return b.leaf(0)
            return b.binary(BinaryKind.ADD, build(d - 1), build(d - 1))

        tree = b.tree(build(depth))
        assert tree.root.score == depth


def _need_by_rule(n) -> int:
    """The documented need: 0 for a leaf, 1 over leaves only, else
    max_j(need_j + j) over the non-leaf children in decreasing-need order
    (j from 0)."""
    if n.is_leaf:
        return 0
    needs = sorted((_need_by_rule(c) for c in n.children if not c.is_leaf), reverse=True)
    return max((v + j for j, v in enumerate(needs)), default=1)


def test_tree_builder_scores_every_node_as_it_builds():
    """Every node TreeBuilder returns (and every parsed node) carries the
    score of the independent oracle and the documented need; no later walk
    sets them, and the planner refuses a tree without them."""
    rng0, rng3 = np.random.default_rng(0), np.random.default_rng(3)
    trees = [verify.random_score_tree(rng0) for _ in range(500)]
    trees += [verify.random_score_tree(rng3) for _ in range(300)]
    trees += [parse_equation(WORKED, [D(4, 4)] * 5),
              parse_equation("exp(T0 - T1) * gelu(T2) + sigmoid(T0 / T2)", [D(3, 3)] * 3)]
    for t in trees:
        oracle = verify.score_oracle(t)
        for n in t.nodes():
            assert n.score == oracle[n.node_id]
            assert n.need == _need_by_rule(n)
    d = D(4, 4)
    leaf = equation.EqNode(0, None, [], 0, d)
    unscored = equation.EqTree(equation.EqNode(1, UnaryKind.RELU, [leaf], out_desc=d), [d])
    with pytest.raises(EquationError, match="register scores"):
        create_execution_plan(unscored)


def test_ternary_score_rules():
    b = TreeBuilder([D(2, 2)])
    all_leaves = b.ternary(TernaryKind.MULADD, b.leaf(0), b.leaf(0), b.leaf(0))
    assert all_leaves.score == 1
    b2 = TreeBuilder([D(2, 2)])
    deep = b2.ternary(TernaryKind.MULADD, b2.unary(UnaryKind.RELU, b2.leaf(0)),
                      b2.leaf(0), b2.leaf(0))
    assert deep.score == 3  # max(3, 1, 0, 0) per the scoring rule


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------

def test_worked_example_plan_two_slots_and_timestamps():
    plan = plan_equation(WORKED, [D(4, 4)] * 5)
    assert plan.temp_count == 2
    ops_in_order = [s.node.label() for s in plan.steps]
    # contraction-first traversal: the higher-scoring div subtree precedes tanh
    assert ops_in_order == ["matmul", "sub", "div", "tanh", "add"]
    assert [s.timestamp for s in plan.steps] == [0, 1, 2, 3, 4]
    # div inherits the matmul slot and recycles the sub slot, tanh reuses it
    by_label = {s.node.label(): s for s in plan.steps}
    assert by_label["div"].output[1] == by_label["matmul"].output[1]
    assert by_label["tanh"].output[1] == by_label["sub"].output[1]


def test_unary_chain_single_slot():
    plan = plan_equation("tanh(relu(exp(T0)))", [D(4, 4)])
    assert plan.temp_count == 1
    assert all(s.output[1] == 0 for s in plan.steps)


def test_relu_single_step():
    plan = plan_equation("relu(T0)", [D(4, 4)])
    assert plan.temp_count == 1 and len(plan.steps) == 1


def test_balanced_three_level_tree_three_slots():
    plan = plan_equation("((T0+T1)+(T2+T3)) + ((T4+T5)+(T6+T7))", [D(4, 4)] * 8)
    assert plan.tree.root.score == 3
    assert plan.temp_count == 3


def test_plan_timestamps_topological():
    rng = np.random.default_rng(1)
    for _ in range(200):
        t = verify.random_score_tree(rng)
        plan = create_execution_plan(t)
        stamp = {s.node: s.timestamp for s in plan.steps}
        for s in plan.steps:
            for c in s.node.children:
                if not c.is_leaf:
                    assert stamp[c] < s.timestamp


def test_minimality_vs_subset_dp():
    rng = np.random.default_rng(2)
    for _ in range(300):
        t = verify.random_score_tree(rng)
        plan = create_execution_plan(t)
        assert plan.temp_count == verify.min_temp_slots(t)


def test_subset_dp_agrees_with_literal_enumeration():
    """The lattice search must match brute-force order enumeration."""
    rng = np.random.default_rng(3)
    for _ in range(150):
        t = verify.random_score_tree(rng, max_internal=6)
        assert verify.min_temp_slots(t) == enumerate_min_slots(t)


def test_root_score_equals_temp_count_for_unary_binary_trees():
    rng = np.random.default_rng(4)
    count = 0
    for _ in range(300):
        t = verify.random_score_tree(rng)
        if any(isinstance(n.kind, TernaryKind) for n in t.internal_nodes()):
            continue
        plan = create_execution_plan(t)
        assert plan.temp_count == t.root.score
        count += 1
    assert count > 50


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_buffered_matches_naive_bitwise_on_worked_example():
    rng = np.random.default_rng(5)
    plan = plan_equation(WORKED, [D(4, 4, DType.FP64)] * 5)
    args = [from_array(rng.uniform(0.2, 1.5, (4, 4))) for _ in range(5)]
    o1, o2 = alloc(D(4, 4, DType.FP64)), alloc(D(4, 4, DType.FP64))
    evaluate(plan, Buffered(), args, o1)
    evaluate_naive(plan.tree, args, o2)
    assert bits_equal(to_array(o1), to_array(o2))


def test_tiled_matches_buffered_on_elementwise_tree():
    rng = np.random.default_rng(6)
    plan = plan_equation("tanh(T0) * (T1 + T2) - exp(T3)", [D(6, 6)] * 4)
    args = [from_array(rng.uniform(0.2, 1.5, (6, 6)).astype(np.float32)) for _ in range(4)]
    outs = []
    for strat in (Buffered(), TileFused(2, 3), TileFused(4, 4), Hybrid(2, 2)):
        o = alloc(D(6, 6))
        evaluate(plan, strat, args, o)
        outs.append(to_array(o))
    for o in outs[1:]:
        assert bits_equal(outs[0], o)


def test_tile_fused_handles_broadcast_arguments():
    """The layernorm-style scaling equation (two cascading multiply-adds with
    COL/ROW broadcast vectors) must tile identically to buffered."""
    from tensorprim import Bcast, TernaryKind, broadcast
    rng = np.random.default_rng(12)
    rows, cols = 6, 8
    x = TensorDesc(rows, cols, rows, DType.FP32)
    colv = TensorDesc(rows, cols, rows, DType.FP32, Bcast.COL)
    rowv = TensorDesc(rows, cols, 1, DType.FP32, Bcast.ROW)
    scav = TensorDesc(rows, cols, 1, DType.FP32, Bcast.SCALAR)
    b = TreeBuilder([x, colv, colv, rowv, scav])
    inner = b.ternary(TernaryKind.MULADD, b.leaf(0), b.leaf(1), b.leaf(2))
    root = b.ternary(TernaryKind.MULADD, inner, b.leaf(3), b.leaf(4))
    plan = create_execution_plan(b.tree(root))
    args = [
        from_array(rng.standard_normal((rows, cols)).astype(np.float32)),
        broadcast(from_array(rng.standard_normal((rows, 1)).astype(np.float32)),
                  Bcast.COL, rows, cols),
        broadcast(from_array(rng.standard_normal((rows, 1)).astype(np.float32)),
                  Bcast.COL, rows, cols),
        broadcast(from_array(rng.standard_normal((1, cols)).astype(np.float32)),
                  Bcast.ROW, rows, cols),
        broadcast(from_array(rng.standard_normal((1, 1)).astype(np.float32)),
                  Bcast.SCALAR, rows, cols),
    ]
    o1, o2 = alloc(D(rows, cols)), alloc(D(rows, cols))
    evaluate(plan, Buffered(), args, o1)
    evaluate(plan, TileFused(2, 3), args, o2)
    assert bits_equal(to_array(o1), to_array(o2))


def test_tile_fused_illegal_with_matmul():
    plan = plan_equation("T0 matmul T1", [D(4, 4), D(4, 4)])
    args = [from_array(np.ones((4, 4), dtype=np.float32)) for _ in range(2)]
    with pytest.raises(EquationError):
        evaluate(plan, TileFused(2, 2), args, alloc(D(4, 4)))


def test_poisoning_recycled_temps_is_harmless():
    rng = np.random.default_rng(7)
    plan = plan_equation(WORKED, [D(4, 4, DType.FP64)] * 5)
    args = [from_array(rng.uniform(0.2, 1.5, (4, 4))) for _ in range(5)]
    clean = alloc(D(4, 4, DType.FP64))
    evaluate(plan, Buffered(), args, clean)

    poisoned = alloc(D(4, 4, DType.FP64))
    hits = []

    def hook(step, dead):
        hits.extend(dead)
        for v in dead:
            v.as2d()[:, :] = np.nan

    evaluate(plan, Buffered(), args, poisoned, step_hook=hook)
    assert hits  # the worked example does recycle a slot
    assert bits_equal(to_array(clean), to_array(poisoned))


def test_threads_evaluating_one_plan_get_single_thread_bits():
    """Every evaluation makes its own buffers: two threads running one plan
    at once, each on its own arguments, get the bits each gets alone."""
    from concurrent.futures import ThreadPoolExecutor
    import threading
    rng = np.random.default_rng(31)
    cases = [(plan_equation("tanh(T0) * (T1 + T2) - exp(T0) / sqrt(T2)", [D(64, 64)] * 3),
              (Buffered(), Hybrid(16, 16), TileFused(16, 16))),
             (plan_equation("exp(T0 - T1) * (T2 matmul T1) + T1", [D(64, 64)] * 3),
              (Buffered(), Hybrid(16, 16)))]
    for plan, strategies in cases:
        inputs = [[from_array(rng.uniform(0.2, 1.5, (64, 64)).astype(np.float32))
                   for _ in range(3)] for _ in range(2)]
        for strat in strategies:
            alone = []
            for args in inputs:
                alone.append(alloc(plan.out_desc))
                evaluate(plan, strat, args, alone[-1])
            start = threading.Barrier(2, timeout=30)

            def run(i):
                start.wait()
                outs = [alloc(plan.out_desc) for _ in range(20)]
                for o in outs:
                    evaluate(plan, strat, inputs[i], o)
                return all(bits_equal(o.primary, alone[i].primary) for o in outs)

            with ThreadPoolExecutor(2) as pool:
                assert all(pool.map(run, range(2))), strat


def test_fusion_fidelity_random_sample():
    rng = np.random.default_rng(8)
    for i in range(60):
        dtype = DType.FP64 if i % 2 else DType.FP32
        tree, args = verify.random_equation(rng, dtype)
        plan = create_execution_plan(tree)
        ref = alloc(plan.out_desc)
        evaluate_naive(tree, args, ref)
        for strat in (Buffered(), Hybrid(2, 2)):
            got = alloc(plan.out_desc)
            evaluate(plan, strat, args, got)
            assert bits_equal(to_array(got), to_array(ref))
        if all(s.node.fusable() for s in plan.steps):
            got = alloc(plan.out_desc)
            evaluate(plan, TileFused(2, 2), args, got)
            assert bits_equal(to_array(got), to_array(ref))


def test_ternary_gemm_node_all_strategies():
    """relu(T0) x T1 + T2 * T3 as a ternary GEMM node under an elementwise
    root; the GEMM inherits relu's slot, so Buffered stages its output.
    Small integers keep every sum exact, so numpy is a bitwise oracle."""
    rng = np.random.default_rng(12)
    m, k, n = 5, 3, 6
    descs = [D(m, k), D(k, n), D(m, n), D(m, n), D(m, n)]
    vals = [rng.integers(-4, 5, size=(d.rows, d.cols)).astype(np.float32) for d in descs]
    b = TreeBuilder(descs)
    g = b.ternary(TernaryKind.GEMM, b.unary(UnaryKind.RELU, b.leaf(0)), b.leaf(1),
                  b.binary(BinaryKind.MUL, b.leaf(2), b.leaf(3)))
    tree = b.tree(b.binary(BinaryKind.ADD, g, b.leaf(4)))
    plan = create_execution_plan(tree)
    args = [from_array(v) for v in vals]
    ref = alloc(plan.out_desc)
    evaluate_naive(tree, args, ref)
    want = np.maximum(vals[0], 0) @ vals[1] + vals[2] * vals[3] + vals[4]
    assert bits_equal(to_array(ref), want.astype(np.float32))
    for strat in (Buffered(), Hybrid(2, 4)):
        got = alloc(plan.out_desc)
        evaluate(plan, strat, args, got)
        assert bits_equal(to_array(got), to_array(ref))


def test_mixed_contraction_dtypes_rejected_at_build():
    """An FP32 x BF16 matmul used to build and read BF16 bit patterns as
    values; a GEMM node with a BF16 addend used to fail only in evaluate."""
    with pytest.raises(EquationError):
        plan_equation("T0 matmul T1", [D(2, 2), D(2, 2, DType.BF16)])
    b = TreeBuilder([D(2, 3), D(3, 2), D(2, 2, DType.BF16)])
    with pytest.raises(EquationError):
        b.tree(b.ternary(TernaryKind.GEMM, b.leaf(0), b.leaf(1), b.leaf(2)))


def test_argument_validation():
    plan = plan_equation("relu(T0)", [D(4, 4)])
    with pytest.raises(EquationError):
        evaluate(plan, Buffered(), [], alloc(D(4, 4)))
    with pytest.raises(EquationError):
        evaluate(plan, Buffered(), [from_array(np.ones((3, 3), dtype=np.float32))],
                 alloc(D(4, 4)))


# ---------------------------------------------------------------------------
# tiled evaluation edge cases: every strategy agrees bitwise with naive
# ---------------------------------------------------------------------------

_TILES = ((1, 1), (3, 5), (64, 64))  # unit, non-dividing, larger than the tensor


def _strategies_agree(plan, args, out_desc=None):
    """Evaluate naively, Buffered, Hybrid and (when every node is
    elementwise) TileFused at each of ``_TILES``, the tiled strategies both
    in blocks of tiles and one tile per block; every output buffer, padding
    included, must be bitwise the naive one, and the padding must keep its
    sentinel bytes.  Returns the naive output."""
    out_desc = out_desc or plan.out_desc

    def fresh():
        o = alloc(out_desc)
        o.primary.view(np.uint8)[:] = 0xA5
        return o

    ref = fresh()
    evaluate_naive(plan.tree, args, ref)
    pad = np.ones(ref.primary.size, bool)
    pad[[i + j * out_desc.ld for i in range(out_desc.rows) for j in range(out_desc.cols)]] = False
    assert np.all(ref.primary[pad].view(np.uint8) == 0xA5)
    strategies = [Buffered()] + [Hybrid(m, n) for m, n in _TILES]
    if all(s.node.fusable() for s in plan.steps):
        strategies += [TileFused(m, n) for m, n in _TILES]
    for strat in strategies:
        for budget in (equation._TILE_BLOCK_BYTES, 1):  # 1: one tile per block
            got = fresh()
            with mock.patch.object(equation, "_TILE_BLOCK_BYTES", budget):
                evaluate(plan, strat, args, got)
            assert bits_equal(got.primary, ref.primary), (strat, budget)
    return ref


def test_tiles_need_not_divide_the_extent():
    rng = np.random.default_rng(21)
    plan = plan_equation("tanh(T0) * (T1 + T2) - exp(T3) / sqrt(T4)", [D(7, 11)] * 5)
    args = [from_array(rng.uniform(0.1, 2.0, (7, 11)).astype(np.float32)) for _ in range(5)]
    assert np.all(np.isfinite(to_array(_strategies_agree(plan, args))))
    # a mixed plan: Hybrid tiles the elementwise regions around the matmul
    plan = plan_equation("exp(T0 - T1) * (T2 matmul T3) + T1", [D(7, 11), D(7, 11), D(7, 4),
                                                                D(4, 11)])
    args = [from_array(rng.uniform(-1.0, 1.0, (d.rows, d.cols)).astype(np.float32))
            for d in plan.tree.args]
    _strategies_agree(plan, args)


def test_bf16_arguments_and_intermediates_round_at_every_node():
    rng = np.random.default_rng(22)
    text = "gelu(T0) * T1 + sigmoid(T2 - T0) / (T1 * T1 + T2)"
    plan = plan_equation(text, [D(6, 9, DType.BF16)] * 3)
    assert all(s.node.out_desc.dtype is DType.BF16 for s in plan.steps)
    vals = [rng.uniform(0.5, 2.0, (6, 9)).astype(np.float32) for _ in range(3)]
    ref = _strategies_agree(plan, [from_array(v, DType.BF16) for v in vals])
    # rounding only the final FP32 result gives other bits
    plan32 = plan_equation(text, [D(6, 9)] * 3)
    o32 = alloc(D(6, 9))
    evaluate(plan32, Buffered(), [from_array(to_array(from_array(v, DType.BF16))) for v in vals],
             o32)
    assert not bits_equal(ref.primary, from_array(to_array(o32), DType.BF16).primary)


def test_int8_wraps_at_every_node():
    rng = np.random.default_rng(23)
    a, b, c = (rng.integers(-128, 128, (5, 7)).astype(np.int8) for _ in range(3))
    a[0, :3], b[0, :3] = (127, 100, -128), (127, 2, -1)  # wrap to 1, -56 and -128
    # relu sees the wrapped product, so wrapping only the result would differ
    plan = plan_equation("relu(T0 * T1) - T2 + inc(T0)", [D(5, 7, DType.INT8)] * 3)
    assert plan.out_desc.dtype is DType.INT8
    ref = _strategies_agree(plan, [from_array(v) for v in (a, b, c)])
    want = np.maximum(a * b, np.int8(0)) - c + (a + np.int8(1))  # int8 arithmetic wraps
    assert bits_equal(to_array(ref), want)


def test_broadcast_and_single_row_or_column_arguments():
    from tensorprim import Bcast, broadcast
    rng = np.random.default_rng(24)
    rows, cols = 7, 10
    descs = [D(rows, cols), TensorDesc(rows, cols, 1, DType.FP32, Bcast.ROW),
             TensorDesc(rows, cols, rows, DType.FP32, Bcast.COL),
             TensorDesc(rows, cols, 1, DType.FP32, Bcast.SCALAR), D(1, cols), D(rows, 1)]
    b = TreeBuilder(descs)
    scaled = b.binary(BinaryKind.MUL, b.binary(BinaryKind.ADD, b.leaf(0), b.leaf(1)), b.leaf(2))
    outer = b.binary(BinaryKind.MAX, b.unary(UnaryKind.EXP, b.leaf(4)),
                     b.unary(UnaryKind.INC, b.leaf(5)))  # 1 x N against M x 1
    fma = b.ternary(TernaryKind.MULADD, scaled, b.leaf(3), outer)
    root = b.binary(BinaryKind.MIN, fma, b.unary(UnaryKind.SQUARE, b.leaf(4)))
    plan = create_execution_plan(b.tree(root))

    def vals(r, c):
        return rng.standard_normal((r, c)).astype(np.float32)

    args = [from_array(vals(rows, cols)),
            broadcast(from_array(vals(1, cols)), Bcast.ROW, rows, cols),
            broadcast(from_array(vals(rows, 1)), Bcast.COL, rows, cols),
            broadcast(from_array(vals(1, 1)), Bcast.SCALAR, rows, cols),
            from_array(vals(1, cols)), from_array(vals(rows, 1))]
    _strategies_agree(plan, args)


def test_padded_output_keeps_its_padding():
    rng = np.random.default_rng(25)
    out_desc = TensorDesc(6, 5, 9, DType.FP32)
    plan = plan_equation("relu(T0 - T1) * exp(T1)", [D(6, 5)] * 2)
    args = [from_array(rng.standard_normal((6, 5)).astype(np.float32)) for _ in range(2)]
    _strategies_agree(plan, args, out_desc)
    plan = plan_equation("(relu(T0) * T1) matmul T2", [D(6, 4), D(6, 4), D(4, 5)])
    args = [from_array(rng.standard_normal((d.rows, d.cols)).astype(np.float32))
            for d in plan.tree.args]
    _strategies_agree(plan, args, out_desc)


@pytest.mark.parametrize("dtype", [DType.FP32, DType.BF16])
def test_nan_inf_and_subnormal_inputs(dtype):
    """NaN (with a payload), infinities, subnormals and signed zeros pass
    through every strategy with the same bits.  Only T0 carries NaN, so no
    operation meets two NaNs: which of two NaNs survives is left open by
    IEEE 754, and numpy's vector and scalar loops choose differently."""
    rng = np.random.default_rng(26)
    payload_nan = np.uint32(0x7FC12345).view(np.float32)
    tiny = np.float32(1e-40)  # subnormal in FP32 and BF16
    t0 = [np.nan, payload_nan, np.inf, -np.inf, tiny, -tiny, 0.0, -0.0, 0.75, -2.5]
    t1 = [tiny, -tiny, 0.0, -0.0, 1.0, -1.5, 3.0, 0.25]
    t2 = [tiny, 0.0, -0.0, np.inf, 2.0, 1e30]
    vals = [rng.permutation(np.resize(np.array(t, np.float32), 8 * 9)).reshape(8, 9)
            for t in (t0, t1, t2)]
    text = "tanh(T0) * T1 + exp(T1) / (T1 * T1 + inc(T1)) - sqrt(T2)"
    plan = plan_equation(text, [D(8, 9, dtype)] * 3)
    ref = to_array(_strategies_agree(plan, [from_array(v, dtype) for v in vals]))
    assert np.isnan(ref).any() and np.isinf(ref).any() and np.isfinite(ref).any()


def test_tiled_views_do_not_grow_with_the_tile_count(monkeypatch):
    """Tiles slice numpy arrays: softmax under Hybrid(1, 1) builds exactly as
    many TensorViews as under one tile over the whole input."""
    from tensorprim import SoftmaxSpec, TensorView, softmax
    spec = SoftmaxSpec(8, 2, 8)
    x = from_array(np.random.default_rng(27).standard_normal((8, 16)).astype(np.float32))
    made = [0]
    post_init = TensorView.__post_init__

    def counted(self):
        made[0] += 1
        post_init(self)

    monkeypatch.setattr(TensorView, "__post_init__", counted)
    counts, outs = [], []
    for strategy in (Hybrid(1, 1), Hybrid(64, 64)):
        y = alloc(D(8, 16))
        softmax(spec, x, y, strategy=strategy)  # plans are built and cached here
        made[0] = 0
        softmax(spec, x, y, strategy=strategy)
        counts.append(made[0])
        outs.append(y)
    assert counts[0] == counts[1]
    assert bits_equal(outs[0].primary, outs[1].primary)


def test_a_region_runs_in_blocks_of_whole_tiles_ragged_edges_included(monkeypatch):
    """With a budget of a few 3 x 5 tiles, a 37 x 23 region runs in several
    blocks that partition it, the ragged last row and column included, and
    stays bitwise equal to naive evaluation."""
    rng = np.random.default_rng(28)
    plan = plan_equation("tanh(T0) * (T1 + T2) - exp(T3)", [D(37, 23)] * 4)
    args = [from_array(rng.uniform(0.2, 1.5, (37, 23)).astype(np.float32)) for _ in range(4)]
    ref = alloc(D(37, 23))
    evaluate_naive(plan.tree, args, ref)
    root = plan.steps[-1].node
    blocks = []

    def math(*xs, inner=root.kernel.math):
        r = inner(*xs)
        blocks.append(r.shape)
        return r

    monkeypatch.setattr(root.kernel, "math", math)
    # 4 tiles of 15 elements at 36 B each: 4 FP32 inputs and 5 FP32 nodes
    monkeypatch.setattr(equation, "_TILE_BLOCK_BYTES", 4 * 15 * 36)
    for strat in (TileFused(3, 5), Hybrid(3, 5)):
        blocks.clear()
        got = alloc(D(37, 23))
        evaluate(plan, strat, args, got)
        assert bits_equal(got.primary, ref.primary), strat
        assert 1 < len(blocks) < 13 * 5  # fewer blocks than tiles
        assert sum(r * c for r, c in blocks) == 37 * 23
        assert all(r % 3 == 0 or r == 37 % 3 for r, _ in blocks)
        assert all(c % 5 == 0 or c == 23 % 5 for _, c in blocks)
        assert 37 % 3 in {r for r, _ in blocks} and 23 % 5 in {c for _, c in blocks}


def test_softmax_hybrid_runs_exp_once_per_block_of_whole_tiles(monkeypatch):
    """Softmax 64 x (8 x 64) under Hybrid(16, 16) runs its exp plan once
    over the whole input, in blocks of whole tiles: one ``exp_taylor`` call
    per block (two at the current budget), not one per slice or per tile."""
    from tensorprim import SoftmaxSpec, approx, softmax
    spec = SoftmaxSpec(64, 8, 64)
    x = from_array(np.random.default_rng(29).standard_normal((64, 512)).astype(np.float32))
    y = alloc(D(64, 512))
    softmax(spec, x, y, strategy=Hybrid(16, 16))  # plans are built and cached here
    calls = [0]
    exp_taylor = approx.exp_taylor

    def counted(v):
        calls[0] += 1
        return exp_taylor(v)

    monkeypatch.setattr(approx, "exp_taylor", counted)
    softmax(spec, x, y, strategy=Hybrid(16, 16))
    # a block holds the two inputs and the SUB and EXP values, 16 B per element
    block_m, block_n = equation._block_extent(64, 512, 16, 16, 16)
    blocks = len(range(0, 64, block_m)) * len(range(0, 512, block_n))
    assert calls[0] == blocks == 2
    assert calls[0] < (64 // 16) * (512 // 16)


def test_no_block_array_exceeds_the_budget(monkeypatch):
    rng = np.random.default_rng(30)
    plan = plan_equation("sigmoid(T0 * T1) + T2 / (T0 - T1)", [D(40, 40)] * 3)
    args = [from_array(rng.uniform(0.2, 1.5, (40, 40)).astype(np.float32)) for _ in range(3)]
    budget = 4096
    largest = [0]

    def watched(inner):
        def math(*xs):
            r = inner(*xs)
            largest[0] = max([largest[0], r.nbytes] + [v.nbytes for v in xs])
            return r
        return math

    for s in plan.steps:
        monkeypatch.setattr(s.node.kernel, "math", watched(s.node.kernel.math))
    monkeypatch.setattr(equation, "_TILE_BLOCK_BYTES", budget)
    ref, got = alloc(D(40, 40)), alloc(D(40, 40))
    evaluate_naive(plan.tree, args, ref)  # kernel calls, not the patched math
    evaluate(plan, TileFused(4, 4), args, got)
    assert 4 * 4 * 4 <= largest[0] <= budget
    assert bits_equal(got.primary, ref.primary)


# ---------------------------------------------------------------------------
# depth limit
# ---------------------------------------------------------------------------

def test_equation_at_the_depth_limit_plans_evaluates_and_exports():
    args = [from_array(np.full((3, 4), 0.5, np.float32))]
    flat_sum = "+".join(["T0"] * (MAX_DEPTH + 1))
    relu_chain = "relu(" * MAX_DEPTH + "T0" + ")" * MAX_DEPTH
    for text, want in ((flat_sum, 0.5 * (MAX_DEPTH + 1)), (relu_chain, 0.5)):
        plan = plan_equation(text, [D(3, 4)])
        assert plan.tree.root.depth == MAX_DEPTH
        ref = _strategies_agree(plan, args)
        assert np.all(to_array(ref) == want)
        assert json.loads(export_plan(plan, "json")) == plan_to_dict(plan)
        assert export_plan(plan, "dot").count("->") == len(plan.tree.nodes()) - 1
    nested = "(" * MAX_DEPTH + "T0+T0" + ")" * MAX_DEPTH
    assert parse_equation(nested, [D(3, 4)]).root.depth == 1


def test_deeper_equations_raise_typed_errors():
    with pytest.raises(EquationError, match="MAX_DEPTH"):
        plan_equation("+".join(["T0"] * (MAX_DEPTH + 2)), [D(2, 2)])
    with pytest.raises(ParseError, match="MAX_DEPTH"):
        parse_equation("(" * (MAX_DEPTH + 1) + "T0+T0" + ")" * (MAX_DEPTH + 1), [D(2, 2)])
    b = TreeBuilder([D(2, 2)])
    node = b.leaf(0)
    for _ in range(MAX_DEPTH):
        node = b.unary(UnaryKind.RELU, node)
    with pytest.raises(EquationError, match="MAX_DEPTH"):
        b.unary(UnaryKind.RELU, node)


def test_depth_limit_errors_match_the_recursive_oracle():
    """At and just past MAX_DEPTH, nested parentheses, unary chains and
    flat sums plan as the oracle plans them, or raise its error at its
    position."""
    for n in (MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1, MAX_DEPTH + 2):
        for text in ("(" * n + "T0+T0" + ")" * n, "relu(" * n + "T0" + ")" * n,
                     "exp(" * n + "(T0" + ")" * n, "+".join(["T0"] * n),
                     "T0 * " + "(T0 - " * n + "T0" + ")" * n):
            _assert_same_outcome(text, [D(2, 3)])


_NO_RECURSION = """
import contextlib, io, sys
import numpy as np
import tensorprim as tp
from tensorprim import cli, equation
from tensorprim.equation import MAX_DEPTH, EquationError, ParseError

sys.setrecursionlimit(100)  # far below MAX_DEPTH: a walk that recursed would fail
d = tp.TensorDesc(3, 4, 3, tp.DType.FP32)
x = tp.from_array(np.full((3, 4), 0.5, np.float32))
b = equation.TreeBuilder([d])
node = b.leaf(0)
for _ in range(MAX_DEPTH):
    node = b.unary(tp.UnaryKind.RELU, node)
trees = [b.tree(node)] + [equation.parse_equation(text, [d]) for text in (
    "relu(" * MAX_DEPTH + "T0" + ")" * MAX_DEPTH,
    "(" * MAX_DEPTH + "T0+T0" + ")" * MAX_DEPTH)]
chain = trees[1]
again = equation.parse_equation("relu(" * MAX_DEPTH + "T0" + ")" * MAX_DEPTH, [d])
assert chain.root == chain.root and chain.root != again.root and chain != again
assert repr(chain.root) == f"EqNode({MAX_DEPTH}, relu, children=[{MAX_DEPTH - 1}])"
assert repr(chain).startswith("EqTree(root=EqNode(")
for tree in trees:
    assert len(tree.nodes()) in (MAX_DEPTH + 1, 3)
    plan = equation.create_execution_plan(tree)
    for run in (lambda o: equation.evaluate(plan, tp.Buffered(), [x], o),
                lambda o: equation.evaluate(plan, tp.Hybrid(2, 2), [x], o),
                lambda o: equation.evaluate_naive(tree, [x], o)):
        out = tp.alloc(d)
        run(out)
        assert np.all(tp.to_array(out) == (0.5 if len(tree.nodes()) > 3 else 1.0))
    assert equation.export_plan(plan, "dot").count("->") == len(tree.nodes()) - 1
    equation.export_plan(plan, "json")
deep = 10 ** 4
for text in ("(" * deep + "T0" + ")" * deep, "relu(" * deep + "T0" + ")" * deep,
             "+".join(["T0"] * deep)):
    try:
        equation.plan_equation(text, [d])
    except (ParseError, EquationError):
        pass
    else:
        raise AssertionError("a 10^4-deep equation planned")
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert cli.main(["plan", text, "--args", "3x4"]) == 2, err.getvalue()
print("ok")
"""


def test_no_tree_walk_recurses():
    """Under a recursion limit far below MAX_DEPTH, parsing, planning,
    ``nodes``, ``TreeBuilder.tree``, both evaluations, the dot export and
    ``repr`` and ``==`` of nodes and trees all handle equations MAX_DEPTH
    deep, and 10^4-deep texts raise typed errors (exit 2 from ``tensorprim
    plan``), never RecursionError."""
    import os
    from pathlib import Path
    import subprocess
    import sys
    src = str(Path(equation.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    r = subprocess.run([sys.executable, "-c", _NO_RECURSION], env=env,
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0 and r.stdout.strip() == "ok", r.stderr


# ---------------------------------------------------------------------------
# temp bytes metric
# ---------------------------------------------------------------------------

def test_temp_bytes_never_exceeds_naive_and_strict_under_recycling():
    rng = np.random.default_rng(9)
    for _ in range(300):
        t = verify.random_score_tree(rng)
        plan = create_execution_plan(t)
        assert plan.temp_bytes <= plan.naive_bytes
        if plan.recycled:
            assert plan.temp_bytes < plan.naive_bytes


def test_temp_bytes_sums_the_slots_of_a_plan_of_several_sizes():
    """Each slot is charged at its own largest occupant, as BUFFERED
    allocates it: the first recycling random plan of seed 2024 has slots of
    different sizes, and charging every slot at the largest (3072 B) would
    exceed naive materialisation."""
    rng = np.random.default_rng(2024)
    while True:
        plan = create_execution_plan(verify.random_equation(rng, DType.FP32, 16, 16)[0])
        if plan.recycled:
            break
    assert plan.temp_bytes == sum(plan.slot_bytes.values()) == 1156
    assert plan.naive_bytes == 1416
    assert len(plan.slot_bytes) * plan.rep_bytes == 3072


def test_worked_example_temp_bytes():
    plan = plan_equation(WORKED, [D(4, 4)] * 5)
    assert plan.rep_bytes == 4 * 4 * 4
    assert plan.temp_bytes == 2 * 64 and plan.naive_bytes == 4 * 64


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_json_round_trip():
    plan = plan_equation(WORKED, [D(4, 4)] * 5)
    text = export_plan(plan, "json")
    assert json.loads(text) == plan_to_dict(plan)


def test_dot_contains_all_nodes():
    plan = plan_equation(WORKED, [D(4, 4)] * 5)
    dot = export_plan(plan, "dot")
    assert dot.count("shape=box") == 5  # leaves
    assert sum(op in dot for op in ("tanh", "matmul", "sub", "div", "add")) == 5
    assert "v=2" in dot and "tmp0" in dot and "tmp1" in dot


def test_planning_one_tree_leaves_another_that_shares_a_node_alone():
    b = TreeBuilder([D(4, 4)] * 3)
    x = b.binary(BinaryKind.ADD, b.leaf(0), b.leaf(1))
    first = create_execution_plan(b.tree(b.unary(UnaryKind.TANH, x)))
    dot, doc = export_plan(first, "dot"), export_plan(first, "json")
    assert f'n{x.node_id} [label="add\\nv=1 t=0 tmp0"]' in dot
    second = create_execution_plan(
        b.tree(b.binary(BinaryKind.MUL,
                        b.binary(BinaryKind.SUB, b.leaf(1), b.leaf(2)), x)))
    assert [(s.node, s.timestamp, s.output) for s in second.steps if s.node is x] == \
        [(x, 1, ("tmp", 1))]
    assert export_plan(first, "dot") == dot and export_plan(first, "json") == doc


def test_export_rejects_unknown_format():
    plan = plan_equation("relu(T0)", [D(2, 2)])
    with pytest.raises(EquationError):
        export_plan(plan, "yaml")
