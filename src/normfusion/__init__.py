"""Deferred-normalization operation fusion for transformer inference.

Layernorm, RMSNorm, and Softmax each end in a scalar normalization whose
denominator is a whole-vector reduction. Because scalars commute with the
matrix multiplication that always follows, the division can be deferred
until after the product: the static parts fold into the weights at compile
time, and the reduction becomes free to overlap the matmul on a second
engine. The transformation is algebraically exact: fused and conventional
paths agree to rounding.

The package provides the exact kernels (``tensor``, ``norms``, ``fusion``),
a pre-LN decoder block in both forms plus its operation graph (``block``),
a two-engine latency simulator quantifying the hidden collective time
(``simulator``), and a CLI (``cli``).
"""

from .block import (
    BlockConfig,
    BlockWeights,
    Node,
    OpGraph,
    build_graph,
    random_block_weights,
    run_conventional,
    run_fused,
)
from .fusion import (
    FoldedLinear,
    LlamaMlpWeights,
    fold_layernorm_linear,
    fold_rmsnorm_linear,
    fused_layernorm_matmul,
    fused_rmsnorm_llama_mlp,
    fused_rmsnorm_matmul,
    fused_softmax_matmul,
    silu,
    swiglu,
)
from .jsonio import ConfigError, RunConfig, load_config
from .norms import (
    LayerNormParams,
    RmsNormParams,
    layernorm,
    moments,
    rmsnorm,
    root_mean_square,
    softmax_numerators,
    softmax_stable,
)
from .simulator import (
    CostModel,
    LatencyReport,
    Timeline,
    TimelineEntry,
    compare,
    node_latency,
    schedule,
)
from .tensor import matmul, max_rel_error

__version__ = "0.1.0"

__all__ = [
    "BlockConfig",
    "BlockWeights",
    "ConfigError",
    "CostModel",
    "FoldedLinear",
    "LatencyReport",
    "LayerNormParams",
    "LlamaMlpWeights",
    "Node",
    "OpGraph",
    "RmsNormParams",
    "RunConfig",
    "Timeline",
    "TimelineEntry",
    "build_graph",
    "compare",
    "fold_layernorm_linear",
    "fold_rmsnorm_linear",
    "fused_layernorm_matmul",
    "fused_rmsnorm_llama_mlp",
    "fused_rmsnorm_matmul",
    "fused_softmax_matmul",
    "layernorm",
    "load_config",
    "matmul",
    "max_rel_error",
    "moments",
    "node_latency",
    "random_block_weights",
    "rmsnorm",
    "root_mean_square",
    "run_conventional",
    "run_fused",
    "schedule",
    "silu",
    "softmax_numerators",
    "softmax_stable",
    "swiglu",
]
