"""Compile-time weight folding and deferred-normalization execution.

The observation: each normalization is a scalar factor (1/sqrt(var+eps),
1/rms, 1/sum-of-exps) applied to a vector that immediately hits a linear
layer. Scalars commute with matrix multiplication, so the division can be
deferred until after the product. Everything static (the centering
matrix I - E/n, the diagonal scale, the bias) folds into the weight
matrix ahead of time:

    layernorm(x) @ F  ==  (x @ W_folded) / sqrt(var(x) + eps) + bias_folded
        with W_folded = (I - E/n) @ diag(gamma) @ F,  bias_folded = beta @ F

    softmax(x) @ V    ==  (exp(x - max) @ V) / sum(exp(x - max))

The reduction producing the scalar and the big matmul have no data
dependency on each other; they only join at the final scale. That
independence is a contract on the code structure (no shared
intermediates), not a threading requirement; a two-engine machine can
overlap them, and the simulator module quantifies the win.

Equivalence to the conventional forms is algebraic, so fused and
conventional paths agree to rounding (~1e-13 relative), well inside the
1e-10 contract.

The fused evaluators take one row (1-D) or a stack of rows (2-D), as
`norms` and `tensor.matmul` do, and return the same rank. They keep no
reduction of their own: the collective scalar comes from the same `norms`
reduction the conventional form calls (`moments`, `root_mean_square`,
`softmax_numerators`), after checking only the shapes, so the reduction
proves the rows finite as it does for the conventional form (see the
one finiteness rule in `tensor`). Every reduction runs left to right along the
row and the product's columns are independent, so a row's result is
bit-identical either way; the deferred scale is one scalar per row,
applied along the last axis as `norms` applies it.

The gated MLP has one tail, `swiglu`: silu(gate) * up through the down
projection. Its 1/rms cannot be deferred past silu, so only the gate|up
product overlaps the reduction: `fused_rmsnorm_llama_mlp` is one
`fused_rmsnorm_matmul` over the joined gate and up folds, then `swiglu`,
the same steps the block's fused path takes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .norms import LayerNormParams, RmsNormParams, moments, root_mean_square, softmax_numerators
from .tensor import _reject, _rows, as_matrix, as_row_vector, frozen_copy, matmul, ordered_sum

__all__ = [
    "FoldedLinear",
    "RmsFoldedLinear",
    "LlamaMlpWeights",
    "fold_layernorm_linear",
    "fused_layernorm_matmul",
    "fused_softmax_matmul",
    "fold_rmsnorm_linear",
    "fused_rmsnorm_matmul",
    "fused_rmsnorm_llama_mlp",
    "silu",
    "swiglu",
]

# 1-vector annihilation tolerance for folded layernorm weights: the rows of
# (I - E/n) sum to zero, so constants must map to (numerically) zero.
_FOLD_ANNIHILATION_TOL = 1e-10


@dataclass(frozen=True)
class FoldedLinear:
    """Layernorm folded into a linear layer, built once at compile time.

    folded_weight = (I - E/n) @ diag(gamma) @ F     (n x m)
    folded_bias   = beta @ F                        (length m)
    """

    folded_weight: np.ndarray
    folded_bias: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "folded_weight", as_matrix(self.folded_weight))
        object.__setattr__(self, "folded_bias", as_row_vector(self.folded_bias))
        if self.folded_weight.shape[1] != self.folded_bias.size:
            raise ValueError(
                f"folded bias length {self.folded_bias.size} does not match "
                f"folded weight columns {self.folded_weight.shape[1]}"
            )


@dataclass(frozen=True)
class RmsFoldedLinear:
    """RMSNorm scale folded into a linear layer: folded_weight = diag(gamma) @ F."""

    folded_weight: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "folded_weight", as_matrix(self.folded_weight))


@dataclass(frozen=True)
class LlamaMlpWeights:
    """Gated MLP weights: up-projection, gate, and down-projection."""

    w_gate: np.ndarray
    w_up: np.ndarray
    w_down: np.ndarray

    def __post_init__(self):
        for name in ("w_gate", "w_up", "w_down"):
            object.__setattr__(self, name, frozen_copy(as_matrix(getattr(self, name))))
        n, h = self.w_gate.shape
        if self.w_up.shape != (n, h):
            raise ValueError(f"w_up shape {self.w_up.shape} != w_gate shape {(n, h)}")
        if self.w_down.shape != (h, n):
            raise ValueError(f"w_down shape {self.w_down.shape}, expected {(h, n)}")


def fold_layernorm_linear(p: LayerNormParams, f) -> FoldedLinear:
    """Fold layernorm's static pieces into the downstream weight matrix.

    Row-scaling by gamma and column-centering realize
    (I - E/n) @ diag(gamma) @ F in O(n*m) without materializing the n x n
    factors. Column sums use the same left-to-right order as every other
    reduction here, and the result is checked against the row-space
    annihilation invariant: the all-ones vector must map to ~0.
    """
    f = as_matrix(f)
    if f.shape[0] != p.n:
        raise ValueError(
            f"weight rows {f.shape[0]} do not match normalized dimension {p.n}"
        )
    scaled = p.gamma[:, np.newaxis] * f
    folded_weight = scaled - ordered_sum(scaled, axis=0) / p.n
    folded_bias = matmul(p.beta, f)

    ones_image = np.abs(ordered_sum(folded_weight, axis=0))
    limit = _FOLD_ANNIHILATION_TOL * max(1.0, float(np.max(np.abs(folded_weight)))) * p.n
    if float(np.max(ones_image)) > limit:
        raise ValueError("folded weight does not annihilate constant inputs")
    return FoldedLinear(folded_weight=folded_weight, folded_bias=folded_bias)


def fused_layernorm_matmul(x, fl: FoldedLinear, epsilon: float) -> np.ndarray:
    """Evaluate layernorm(x) @ F through the folded weights, per row of `x`.

    The variance reduction and the x @ folded_weight product are
    independent tasks; they meet only at the final scale-and-bias.
    """
    rows = _rows(x)
    n = rows.shape[-1]
    if n != fl.folded_weight.shape[0]:
        _reject(
            rows, f"input length {n} does not match folded weight rows {fl.folded_weight.shape[0]}"
        )
    if not (np.isfinite(epsilon) and epsilon > 0):
        _reject(rows, f"epsilon must be a positive finite scalar, got {epsilon}")

    variance = moments(rows).variance           # collective task
    projected = matmul(rows, fl.folded_weight)  # matmul task, overlappable
    return projected / np.sqrt(variance + epsilon)[..., np.newaxis] + fl.folded_bias


def fused_softmax_matmul(x, v) -> np.ndarray:
    """Evaluate softmax(x) @ V per row of `x`, the denominator deferred past the matmul.

    Numerators are max-shifted, so the path is overflow-safe for any
    finite logits; the shift cancels between numerator and denominator.
    """
    rows = _rows(x)
    if np.shape(v)[:1] != rows.shape[-1:]:
        _reject(rows, f"input length {rows.shape[-1]} does not match matrix shape {np.shape(v)}")

    numerators, denominator = softmax_numerators(rows)  # denominator: collective task
    projected = matmul(numerators, v)                   # matmul task, overlappable
    with np.errstate(under="ignore"):  # a product of subnormal numerators
        return projected / denominator[..., np.newaxis]


def fold_rmsnorm_linear(p: RmsNormParams, f) -> RmsFoldedLinear:
    """Fold the RMSNorm scale vector into the downstream weight matrix."""
    f = as_matrix(f)
    if f.shape[0] != p.n:
        raise ValueError(
            f"weight rows {f.shape[0]} do not match normalized dimension {p.n}"
        )
    return RmsFoldedLinear(folded_weight=p.gamma[:, np.newaxis] * f)


def _join_columns(folds: list) -> FoldedLinear | RmsFoldedLinear:
    """Folded projections side by side as one read-only fold: the same columns, in one product."""
    weight = np.hstack([f.folded_weight for f in folds])
    weight.setflags(write=False)
    if isinstance(folds[0], RmsFoldedLinear):
        return RmsFoldedLinear(folded_weight=weight)
    bias = np.hstack([f.folded_bias for f in folds])
    bias.setflags(write=False)
    return FoldedLinear(folded_weight=weight, folded_bias=bias)


def fused_rmsnorm_matmul(x, rfl: RmsFoldedLinear, epsilon: float = 0.0) -> np.ndarray:
    """Evaluate rmsnorm(x) @ F per row of `x` through the folded weights, 1/rms deferred."""
    rows = _rows(x)
    if rows.shape[-1] != rfl.folded_weight.shape[0]:
        _reject(
            rows, f"input length {rows.shape[-1]} does not match folded weight rows {rfl.folded_weight.shape[0]}"
        )
    r = root_mean_square(rows, epsilon)[..., np.newaxis]  # collective task
    projected = matmul(rows, rfl.folded_weight)           # matmul task, overlappable
    return projected / r


def silu(z) -> np.ndarray:
    """z * sigmoid(z), branch-selected so exp never overflows."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    with np.errstate(under="ignore"):  # past |z| ~ 708, exp's subnormal or 0 is correctly rounded
        out[pos] = z[pos] / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = z[~pos] * ez / (1.0 + ez)
    return out


def swiglu(gate_up, w_down) -> np.ndarray:
    """silu(gate) * up through the down projection, per row of the gate|up join.

    `gate_up` holds the normalized gate and up projections side by side:
    2h columns for a down projection of h rows.
    """
    gate_up = np.asarray(gate_up, dtype=np.float64)
    h = np.shape(w_down)[0]
    if gate_up.shape[-1:] != (2 * h,):
        raise ValueError(f"gate|up shape {gate_up.shape} does not match down projection rows {h}")
    return matmul(silu(gate_up[..., :h]) * gate_up[..., h:], w_down)


def fused_rmsnorm_llama_mlp(
    x,
    gate_folded: RmsFoldedLinear,
    up_folded: RmsFoldedLinear,
    w_down,
    epsilon: float = 0.0,
) -> np.ndarray:
    """Gated MLP, per row of `x`, with RMSNorm folded into the gate and up projections.

    Both projections consume raw x, so the rms reduction can overlap them.
    The deferred 1/rms must be applied before the gate non-linearity
    (scalars do not commute past silu), so the down-projection is outside
    the overlap. This is the maximal exact fusion for this layer, and the
    block's own: one product over the joined folds, then `swiglu`.
    """
    n, h = gate_folded.folded_weight.shape
    if up_folded.folded_weight.shape != (n, h):
        raise ValueError(f"up projection shape {up_folded.folded_weight.shape}, expected gate's {(n, h)}")
    if np.shape(w_down) != (h, n):
        raise ValueError(f"down projection shape {np.shape(w_down)}, expected {(h, n)}")
    gate_up = _join_columns([gate_folded, up_folded])
    return swiglu(fused_rmsnorm_matmul(x, gate_up, epsilon), w_down)
