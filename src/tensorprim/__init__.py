"""tensorprim: a portable library of precision-aware 2D tensor primitives.

The package provides a compact operator set over column-major 2D views
(elementwise math, reductions, layout transforms, gather/scatter,
deterministic dropout), a batch-reduce matrix-contraction engine with three
block-addressing variants and a bit-accurate BF16 emulation path, polynomial
approximations for the transcendental activations, an equation-tree planner
that minimises live temporaries, and composite deep-learning kernels built
solely from those pieces.
"""

from .dtypes import (
    DType,
    bf16_to_fp32,
    fp32_to_bf16_rne,
    pack_fp32_bits,
    split_fp32_bits,
)
from .tensor import (
    Bcast,
    SplitTensor,
    TensorDesc,
    TensorError,
    TensorView,
    alloc,
    broadcast,
    from_array,
    to_array,
    view_at,
    vnni_extent,
    vnni_pack_a,
    vnni_unpack_a,
)
from .ops import (
    Approx,
    BinaryKind,
    CmpOp,
    GatherMode,
    InvalidSpecError,
    Kernel,
    KernelSpec,
    PrngState,
    ReduceAxis,
    ReduceOp,
    ReduceSpec,
    TernaryKind,
    TransformKind,
    TransformSpec,
    UnaryKind,
    apply_binary,
    apply_ternary,
    apply_unary,
    dispatch,
    gather_scatter,
    reduce,
    replicate_cols,
    shuffle_network_transpose,
    strided_load,
    strided_store,
    transform,
)
from .contraction import (
    ALayout,
    BrgemmBatch,
    ComputePath,
    GemmSpec,
    brgemm,
    gemm,
    matmul,
)
from .equation import (
    Buffered,
    EqNode,
    EqTree,
    ExecPlan,
    Hybrid,
    TileFused,
    TreeBuilder,
    create_execution_plan,
    evaluate,
    evaluate_naive,
    export_plan,
    parse_equation,
    plan_equation,
)
from .kernels import (
    DilatedConvSpec,
    EmbeddingSpec,
    FcSpec,
    NormMode,
    SoftmaxSpec,
    binary_reduce_aggregate,
    dilated_conv1d_forward,
    embedding_gather_reduce,
    fc_forward,
    layernorm,
    norm_scaling,
    pack_fp32,
    softmax,
    split_fp32,
    split_sgd_step,
)

__version__ = "0.1.0"
