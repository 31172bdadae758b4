"""A walk through the primitive operator set.

Run with:  python demos/01_primitives.py
"""

import numpy as np

from tensorprim import (
    Bcast, BinaryKind, CmpOp, DType, GatherMode, PrngState, ReduceAxis, ReduceOp,
    ReduceSpec, TensorDesc, TernaryKind, TransformKind, TransformSpec, UnaryKind,
    alloc, apply_binary, apply_ternary, apply_unary, broadcast, from_array,
    gather_scatter, reduce, shuffle_network_transpose, to_array, transform,
)
from tensorprim.tensor import mask_to_bool

print("== 2D views are column-major with an explicit leading dimension ==")
x = from_array(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], dtype=np.float32))
print("x =\n", to_array(x))
print("flat storage (columns contiguous):", x.primary)

print("\n== elementwise unary: square, relu with a recorded bitmask ==")
out = alloc(TensorDesc(2, 3, 2, DType.FP32))
apply_unary(UnaryKind.SQUARE, x, out)
print("square(x) =\n", to_array(out))

neg = from_array(np.array([[-1.0, 2.0, -0.5]], dtype=np.float32))
r = alloc(TensorDesc(1, 3, 1, DType.FP32))
apply_unary(UnaryKind.RELU, neg, r, bitmask_output=True)
print("relu:", to_array(r)[0], " mask bits:", mask_to_bool(r.secondary, 1, 3)[0])

print("\n== binary with broadcast: multiply by a scalar view ==")
two = broadcast(from_array(np.array([[2.0]], dtype=np.float32)), Bcast.SCALAR, 2, 3)
out2 = alloc(TensorDesc(2, 3, 2, DType.FP32))
apply_binary(BinaryKind.MUL, x, two, out2)
print("x * 2 =\n", to_array(out2))

print("\n== ternary multiply-add: c + a*b ==")
c = from_array(np.full((2, 3), 10.0, dtype=np.float32))
out3 = alloc(TensorDesc(2, 3, 2, DType.FP32))
apply_ternary(TernaryKind.MULADD, x, x, c, out3)
print("c + x*x =\n", to_array(out3))

print("\n== reductions run in a fixed ascending order ==")
s = alloc(TensorDesc(1, 1, 1, DType.FP32))
reduce(x, ReduceSpec(ReduceAxis.ALL, ReduceOp.SUM), s)
print("sum(x) =", to_array(s)[0, 0])
sq = alloc(TensorDesc(2, 1, 2, DType.FP32))
reduce(x, ReduceSpec(ReduceAxis.ROWS, ReduceOp.SUM, squared=True), sq)
print("row sums of squares:", to_array(sq)[:, 0])

print("\n== transforms: transpose, and layout change as bit movement ==")
t = alloc(TensorDesc(3, 2, 3, DType.FP32))
transform(x, TransformSpec(TransformKind.TRANSPOSE), t)
print("x^T =\n", to_array(t))

tile = from_array(np.arange(16, dtype=np.float32).reshape(4, 4))
st = alloc(TensorDesc(4, 4, 4, DType.FP32))
shuffle_network_transpose(tile, st)
print("shuffle-network transpose equals the direct one:",
      np.array_equal(to_array(st), np.arange(16, dtype=np.float32).reshape(4, 4).T))

print("\n== gather / scatter ==")
g = alloc(TensorDesc(2, 2, 2, DType.FP32))
gather_scatter(x, np.array([2, 0]), GatherMode.GATHER_COLS, g)
print("columns [2, 0]:\n", to_array(g))

print("\n== compare produces a packed bitmask ==")
mask = alloc(TensorDesc(2, 3, 2, DType.BIT))
apply_binary(BinaryKind.COMPARE, x, out2, mask, cmp=CmpOp.LT)
print("x < 2x everywhere positive:", mask_to_bool(mask.primary, 2, 3).all())

print("\n== deterministic dropout: one xorshift stream per column ==")
big = from_array(np.ones((4, 8), dtype=np.float32))
big.tertiary = {"prng": PrngState(seed=42, ncols=8)}
d = alloc(TensorDesc(4, 8, 4, DType.FP32))
apply_unary(UnaryKind.DROPOUT, big, d, dropout_p=0.5)
print("kept values are scaled by 1/(1-p):\n", to_array(d))
