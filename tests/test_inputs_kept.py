"""No kernel writes into its caller's arrays.

`gelu`, `matmul` (on 1-D, 2-D and 3-D rows, with a C-order, transposed or
Fortran-order matrix), `ordered_sum`, `moments`, the norms, the softmax,
the fused evaluators, `swiglu` and both block paths of both variants are
checked on both matmul kernels, on adversarial rows (row offsets up to
1e8, near-constant rows, ±1e3 logits): inputs and weights come back
bit-unchanged, read-only inputs and weights are accepted and give the
same bits, and no result shares memory with an input or a weight.
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from normfusion.block import VARIANTS, BlockConfig, BlockWeights, gelu, run_conventional, run_fused
from normfusion.fusion import (
    LlamaMlpWeights,
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
    moments,
    rmsnorm,
    softmax_numerators,
    softmax_stable,
)
from normfusion.tensor import matmul, ordered_sum

N, M = 12, 5
_rng = np.random.default_rng(71)
LN = LayerNormParams(gamma=_rng.uniform(0.5, 1.5, N), beta=_rng.standard_normal(N), epsilon=1e-5)
RMS = RmsNormParams(gamma=_rng.uniform(0.5, 1.5, N), epsilon=1e-6)
F = _rng.standard_normal((N, M))
LN_FOLD, RMS_FOLD = fold_layernorm_linear(LN, F), fold_rmsnorm_linear(RMS, F)
V = _rng.standard_normal((N, M))
V_PER_HEAD = _rng.standard_normal((2, N, M))
W_DOWN = _rng.standard_normal((N // 2, 3))

# `matmul`'s matrix in three layouts: C order, a transposed view and Fortran order
B_LAYOUTS = {
    "c": (V, V_PER_HEAD),
    "transposed-b": tuple(np.ascontiguousarray(b.swapaxes(-1, -2)).swapaxes(-1, -2) for b in (V, V_PER_HEAD)),
    "fortran-b": tuple(np.asfortranarray(b) for b in (V, V_PER_HEAD)),
}

# the block's raw weights, as a caller holds them before `BlockWeights` copies them
SEQ, HIDDEN = 4, 8
BLOCKS = {variant: BlockConfig(d_model=N, n_heads=2, seq_len=SEQ, mlp_hidden=HIDDEN, variant=variant)
          for variant in VARIANTS}
BLOCK_ARRAYS = {
    name: _rng.standard_normal(shape) / np.sqrt(shape[0])
    for name, shape in (("w_q", (N, N)), ("w_k", (N, N)), ("w_v", (N, N)), ("w_o", (N, N)),
                        ("fc1", (N, HIDDEN)), ("fc2", (HIDDEN, N)), ("w_gate", (N, HIDDEN)),
                        ("w_up", (N, HIDDEN)), ("w_down", (HIDDEN, N)))
}
BLOCK_ARRAYS.update(gamma1=_rng.uniform(0.8, 1.2, N), gamma2=_rng.uniform(0.8, 1.2, N),
                    beta1=0.05 * _rng.standard_normal(N), beta2=0.05 * _rng.standard_normal(N))


def read_only(a: np.ndarray) -> np.ndarray:
    """A read-only copy of `a` in its memory layout."""
    out = a.copy(order="K")
    out.setflags(write=False)
    return out


class Weights:
    """Hands a call its weight arrays, as given or as read-only copies, and keeps each one handed out."""

    def __init__(self, frozen: bool):
        self.frozen = frozen
        self.given: list[tuple[np.ndarray, np.ndarray]] = []  # (array handed out, its bits when handed out)

    def __call__(self, a: np.ndarray) -> np.ndarray:
        a = read_only(a) if self.frozen else a
        self.given.append((a, a.copy(order="K")))
        return a


def block_weights(variant: str, w: Weights) -> BlockWeights:
    """The block's weights, built from `BLOCK_ARRAYS` as `w` hands them out."""
    def a(name):
        return w(BLOCK_ARRAYS[name])

    eps = BLOCKS[variant].epsilon_ln
    if variant == "standard-gelu":
        norms = {f"ln{i}": LayerNormParams(gamma=a(f"gamma{i}"), beta=a(f"beta{i}"), epsilon=eps) for i in (1, 2)}
        mlp = dict(fc1=a("fc1"), fc2=a("fc2"))
    else:
        norms = {f"ln{i}": RmsNormParams(gamma=a(f"gamma{i}"), epsilon=eps) for i in (1, 2)}
        mlp = dict(mlp=LlamaMlpWeights(w_gate=a("w_gate"), w_up=a("w_up"), w_down=a("w_down")))
    return BlockWeights(w_q=a("w_q"), w_k=a("w_k"), w_v=a("w_v"), w_o=a("w_o"), **norms, **mlp)


def per_rank(pair, x):
    """The matrix of `pair` for a row or a stack, the stack per head for a stack per head."""
    return pair[x.ndim == 3]


# name -> call on one argument of N columns and the `Weights` that hands out its weights;
# it returns one result or a tuple of them
CALLS = {
    "gelu": lambda x, w: gelu(x),
    **{f"matmul-{layout}": (lambda x, w, pair=pair: matmul(x, w(per_rank(pair, x))))
       for layout, pair in B_LAYOUTS.items()},
    "ordered_sum": lambda x, w: ordered_sum(x),
    "moments": lambda x, w: moments(x),
    "layernorm": lambda x, w: layernorm(x, LN),
    "rmsnorm": lambda x, w: rmsnorm(x, RMS),
    "softmax_numerators": lambda x, w: softmax_numerators(x),
    "softmax_stable": lambda x, w: softmax_stable(x),
    "fused_layernorm_matmul": lambda x, w: fused_layernorm_matmul(x, LN_FOLD),
    "fused_rmsnorm_matmul": lambda x, w: fused_rmsnorm_matmul(x, RMS_FOLD),
    "fused_softmax_matmul": lambda x, w: fused_softmax_matmul(x, w(per_rank(B_LAYOUTS["c"], x))),
    "swiglu": lambda x, w: swiglu(x, w(W_DOWN)),
    **{f"{run.__name__}-{variant}": (lambda x, w, run=run, variant=variant:
                                     run(BLOCKS[variant], block_weights(variant, w), x))
       for run in (run_conventional, run_fused) for variant in VARIANTS},
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
SHAPES = {"row": (N,), "stack": (SEQ, N), "per head": (2, 3, N)}


def shapes_of(name: str) -> tuple[str, ...]:
    """The fused norm evaluators and swiglu take a row or a stack, a block its rows; the rest all three."""
    if name.startswith(("run_conventional", "run_fused")):
        return ("stack",)
    if name in ("fused_layernorm_matmul", "fused_rmsnorm_matmul", "swiglu"):
        return ("row", "stack")
    return tuple(SHAPES)


PARAMS = [(name, shape) for name in CALLS for shape in shapes_of(name)]
IDS = [f"{name}-{shape}" for name, shape in PARAMS]


def results(out) -> tuple:
    return out if isinstance(out, tuple) else (out,)


def assert_bits_equal(actual, expected):
    assert_array_equal(np.asarray(actual).view(np.uint64), np.asarray(expected).view(np.uint64))


@pytest.mark.parametrize("kernel", ["einsum", "chunked"])
@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("name,shape", PARAMS, ids=IDS)
def test_inputs_are_never_written(request, name, shape, case, kernel):
    if kernel == "chunked":
        request.getfixturevalue("chunked_kernel")
    x = rows(case, np.random.default_rng(72), SHAPES[shape])
    kept = x.copy()
    given = Weights(frozen=False)
    out = results(CALLS[name](x, given))
    assert_bits_equal(x, kept)
    for weight, weight_kept in given.given:
        assert_bits_equal(weight, weight_kept)
    for result in out:
        assert not np.shares_memory(result, x)
        assert not any(np.shares_memory(result, weight) for weight, _ in given.given)
    frozen = Weights(frozen=True)
    again = results(CALLS[name](read_only(x), frozen))
    assert len(frozen.given) == len(given.given) and len(again) == len(out)
    for result_again, result in zip(again, out):
        assert_bits_equal(result_again, result)
