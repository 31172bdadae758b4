"""The composite deep-learning kernels, each assembled purely from
primitives, contractions and equation plans.

Run with:  python demos/04_kernels.py
"""

import numpy as np

from tensorprim import (
    Bcast, BinaryKind, DType, DilatedConvSpec, EmbeddingSpec, FcSpec, ReduceOp,
    SoftmaxSpec, TensorDesc, UnaryKind,
    alloc, binary_reduce_aggregate, broadcast, dilated_conv1d_forward,
    embedding_gather_reduce, fc_forward, from_array, layernorm, pack_fp32,
    softmax, split_fp32, split_sgd_step, to_array,
)

rng = np.random.default_rng(0)
D = lambda m, n, dt=DType.FP32: TensorDesc(m, n, m, dt)

print("== softmax over blocked slices ==")
spec = SoftmaxSpec(s1=8, s2=2, s3=32)
x = from_array(rng.random((8, 64), dtype=np.float32))
y = alloc(D(8, 64))
softmax(spec, x, y)
out = to_array(y)
print("slice sums:", [round(float(out[:, j * 32:(j + 1) * 32].sum()), 7) for j in range(2)])

print("\n== layernorm: reduces + FP64 statistics primitives + one two-FMADD equation ==")
xs = rng.standard_normal((4, 32)).astype(np.float32)
g = broadcast(from_array(np.ones((1, 32), dtype=np.float32)), Bcast.ROW, 4, 32)
b = broadcast(from_array(np.zeros((1, 32), dtype=np.float32)), Bcast.ROW, 4, 32)
o = alloc(D(4, 32))
layernorm(from_array(xs), g, b, 1e-5, o)
oarr = to_array(o)
print("row means ~0:", np.abs(oarr.mean(axis=1)).max() < 1e-6,
      "| row vars ~1:", np.abs(oarr.var(axis=1) - 1).max() < 1e-4)

print("\n== split SGD: hi/lo halves, full FP32 accuracy in the optimizer ==")
w0 = rng.standard_normal((4, 4)).astype(np.float32)
split = split_fp32(from_array(w0))
ref = w0.copy()
for _ in range(50):
    gr = rng.standard_normal((4, 4)).astype(np.float32)
    split_sgd_step(split, from_array(gr), 0.05)
    ref = ref - gr * np.float32(0.05)
print("50 steps bitwise equal to FP32 SGD:",
      to_array(pack_fp32(split)).tobytes() == ref.tobytes())
print("the hi halves alone are the BF16 weights used by forward/backward")

print("\n== sparse embedding: fused gather-reduce ==")
table = rng.standard_normal((6, 10)).astype(np.float32)  # one entry per column
out_e = alloc(D(6, 1))
embedding_gather_reduce(EmbeddingSpec(rows=10, length=6), from_array(table),
                        [7, 2, 7], out_e)
print("lookup [7, 2, 7]:", to_array(out_e)[:, 0])

print("\n== fully connected on blocked layouts, activation fused ==")
fc = FcSpec(m_b=2, n_b=2, k_b=3, bm=4, bn=4, bk=4, activation=UnaryKind.RELU)
a4 = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
b4 = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
c = alloc(D(4, 2 * 2 * 4))
fc_forward(fc, a4.reshape(-1), b4.reshape(-1), c)
print("output blocks live in C[N_b][M_b][bn][bm]; block (0,0):\n",
      to_array(c)[:, :4])

print("\n== 1D dilated convolution as a per-tap address batch ==")
conv = DilatedConvSpec(in_channels=3, out_channels=2, width=28, out_width=20,
                       taps=5, dilation=2)
inp = rng.standard_normal((3, 28)).astype(np.float32)
wt = rng.standard_normal((15, 2)).astype(np.float32)  # row s*C + c
oc = alloc(D(2, 20))
dilated_conv1d_forward(conv, from_array(inp), from_array(wt), oc)
print("conv output shape:", to_array(oc).shape)

print("\n== binary-reduce aggregation over indexed feature columns ==")
t0 = rng.standard_normal((5, 8)).astype(np.float32)
t1 = rng.standard_normal((5, 6)).astype(np.float32)
agg = alloc(D(5, 1))
binary_reduce_aggregate(from_array(t0), from_array(t1), [0, 3, 5], [1, 1, 4],
                        BinaryKind.ADD, ReduceOp.MAX, agg)
print("max over pairwise sums:", to_array(agg)[:, 0])
