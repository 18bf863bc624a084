"""No kernel writes into its caller's arrays.

`gelu`, the norms, the softmax, the fused evaluators and `swiglu` are
checked on both matmul kernels, on adversarial rows (row offsets up to
1e8, near-constant rows, ±1e3 logits): inputs come back bit-unchanged,
read-only inputs are accepted and give the same bits, and no result
shares memory with an input.
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from normfusion.block import gelu
from normfusion.fusion import (
    fold_layernorm_linear,
    fold_rmsnorm_linear,
    fused_layernorm_matmul,
    fused_rmsnorm_matmul,
    fused_softmax_matmul,
    swiglu,
)
from normfusion.norms import (
    LayerNormParams,
    RmsNormParams,
    layernorm,
    rmsnorm,
    softmax_numerators,
    softmax_stable,
)

N, M = 12, 5
_rng = np.random.default_rng(71)
LN = LayerNormParams(gamma=_rng.uniform(0.5, 1.5, N), beta=_rng.standard_normal(N), epsilon=1e-5)
RMS = RmsNormParams(gamma=_rng.uniform(0.5, 1.5, N), epsilon=1e-6)
F = _rng.standard_normal((N, M))
LN_FOLD, RMS_FOLD = fold_layernorm_linear(LN, F), fold_rmsnorm_linear(RMS, F)
V = _rng.standard_normal((N, M))
V_PER_HEAD = _rng.standard_normal((2, N, M))
W_DOWN = _rng.standard_normal((N // 2, 3))


def read_only(a: np.ndarray) -> np.ndarray:
    out = a.copy()
    out.setflags(write=False)
    return out


def v_for(x):
    """`fused_softmax_matmul`'s V: one matrix, or one per head for a stack per head."""
    return V_PER_HEAD if x.ndim == 3 else V


# name -> call on one argument of N columns
CALLS = {
    "gelu": gelu,
    "layernorm": lambda x: layernorm(x, LN),
    "rmsnorm": lambda x: rmsnorm(x, RMS),
    "softmax_numerators": lambda x: softmax_numerators(x)[0],
    "softmax_stable": softmax_stable,
    "fused_layernorm_matmul": lambda x: fused_layernorm_matmul(x, LN_FOLD, LN.epsilon),
    "fused_rmsnorm_matmul": lambda x: fused_rmsnorm_matmul(x, RMS_FOLD, RMS.epsilon),
    "fused_softmax_matmul": lambda x: fused_softmax_matmul(x, read_only(v_for(x))),
    "swiglu": lambda x: swiglu(x, read_only(W_DOWN)),
}


def rows(case: str, rng, shape) -> np.ndarray:
    """Adversarial rows of width N: offsets up to 1e8, near-constant rows, ±1e3 logits."""
    x = rng.standard_normal(shape)
    if case == "offset":
        return x + rng.choice([-1e8, -1e4, 1e2, 1e6, 1e8], size=shape[:-1] + (1,))
    if case == "near-constant":
        return rng.uniform(-2.0, 2.0, size=shape[:-1] + (1,)) + 1e-9 * x
    if case == "logits":
        return rng.uniform(-1e3, 1e3, size=shape)
    return x


CASES = ["plain", "offset", "near-constant", "logits"]
SHAPES = {"row": (N,), "stack": (4, N), "per head": (2, 3, N)}
# the fused norm evaluators and swiglu take a row or a stack; the rest also a stack per head
ROWS_ONLY = {"fused_layernorm_matmul", "fused_rmsnorm_matmul", "swiglu"}
PARAMS = [(name, shape) for name in CALLS for shape in SHAPES if not (name in ROWS_ONLY and shape == "per head")]
IDS = [f"{name}-{shape}" for name, shape in PARAMS]


@pytest.mark.parametrize("kernel", ["einsum", "chunked"])
@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("name,shape", PARAMS, ids=IDS)
def test_inputs_are_never_written(request, name, shape, case, kernel):
    if kernel == "chunked":
        request.getfixturevalue("chunked_kernel")
    x = rows(case, np.random.default_rng(72), SHAPES[shape])
    kept = x.copy()
    out = CALLS[name](x)
    assert_array_equal(x.view(np.uint64), kept.view(np.uint64))
    assert not np.shares_memory(out, x)
    assert_array_equal(CALLS[name](read_only(x)).view(np.uint64), out.view(np.uint64))
