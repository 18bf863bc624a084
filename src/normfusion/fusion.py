"""Compile-time weight folding and deferred-normalization execution.

The observation: each normalization is a scalar factor (1/sqrt(var+eps),
1/rms, 1/sum-of-exps) applied to a vector that immediately hits a linear
layer. Scalars commute with matrix multiplication, so the division can be
deferred until after the product. Everything static (the centering
matrix I - E/n, the diagonal scale, the bias) folds into the weight
matrix ahead of time:

    layernorm(x) @ F  ==  (x @ W_folded) / sqrt(var(x) + eps) + bias_folded
        with W_folded = (I - E/n) @ diag(gamma) @ F,  bias_folded = beta @ F

    rmsnorm(x) @ F    ==  (x @ W_folded) / rms(x),  with W_folded = diag(gamma) @ F

    softmax(x) @ V    ==  (exp(x - max) @ V) / sum(exp(x - max))

The reduction producing the scalar and the big matmul have no data
dependency on each other; they only join at the final scale. That
independence is a contract on the code structure (no shared
intermediates), not a threading requirement; a two-engine machine can
overlap them, and the simulator module quantifies the win. Equivalence to
the conventional forms is algebraic, so the two paths agree to rounding
(~1e-13 relative), well inside the 1e-10 contract.

The folds (`fold_layernorm_linear`, `fold_rmsnorm_linear`) each return
one read-only `FoldedLinear`, which carries its norm's epsilon. The fused
evaluators (`fused_layernorm_matmul`, `fused_rmsnorm_matmul`,
`fused_softmax_matmul`) check only shapes and keep no reduction of their
own: the collective scalar comes from the `norms` reduction the
conventional form calls. Each applies the deferred per-row scale, and
adds a folded bias, in place on the array `matmul` returned and returns
it: the same IEEE operations in the same order as dividing into a new
array, with no second product-sized array. The gated MLP has one tail,
`swiglu`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .norms import LayerNormParams, RmsNormParams, _prescaled_root, _shifted_moments, softmax_numerators
from .tensor import _adopt, _check_operands, _number, _reject, _require_width, _rows, _store, as_matrix, as_row_vector, matmul

__all__ = [
    "FoldedLinear",
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
    """A normalization folded into a linear layer, built once at compile time.

    layernorm: folded_weight = (I - E/n) @ diag(gamma) @ F   (n x m)
               folded_bias   = beta @ F                      (length m)
    RMSNorm:   folded_weight = diag(gamma) @ F, no folded_bias (None)

    `epsilon` is the folded norm's, which the fused evaluators add to its
    reduction. Built from plain arrays, a fold names it as a keyword,
    positive with a folded bias and non-negative without, and its arrays
    are checked and copied; the fold functions hand over their own
    through `tensor._adopt`.
    """

    folded_weight: np.ndarray
    folded_bias: np.ndarray | None = None
    epsilon: float = field(kw_only=True)

    def __post_init__(self):
        weight = as_matrix(self.folded_weight)
        bias = None if self.folded_bias is None else as_row_vector(self.folded_bias)
        if bias is not None and weight.shape[1] != bias.size:
            raise ValueError(
                f"folded bias length {bias.size} does not match folded weight columns {weight.shape[1]}"
            )
        epsilon = _number(self.epsilon, "epsilon", positive=bias is not None)
        self._set_up(weight.copy(), None if bias is None else bias.copy(), epsilon)

    def _set_up(self, folded_weight: np.ndarray, folded_bias: np.ndarray | None, epsilon: float) -> None:
        """Store the fold's arrays, ones no caller holds, read-only, and its checked epsilon."""
        _store(self, folded_weight=folded_weight, folded_bias=folded_bias, epsilon=epsilon)

    def __reduce__(self):
        return _adopt, (FoldedLinear, self.folded_weight, self.folded_bias, self.epsilon)


@dataclass(frozen=True)
class LlamaMlpWeights:
    """Gated MLP weights: gate, up and down projections, stored through `tensor._store`.

    Gate and up are stored once, joined: `w_gate_up` is an (n, 2h) array,
    and `w_gate` and `w_up` are its column views, so the site's one
    product reads the join with no further copy.
    """

    w_gate: np.ndarray
    w_up: np.ndarray
    w_down: np.ndarray
    w_gate_up: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gate, up, down = (as_matrix(getattr(self, name)) for name in ("w_gate", "w_up", "w_down"))
        n, h = gate.shape
        if up.shape != (n, h):
            raise ValueError(f"w_up shape {up.shape} != w_gate shape {(n, h)}")
        if down.shape != (h, n):
            raise ValueError(f"w_down shape {down.shape}, expected {(h, n)}")
        self._set_up(np.hstack([gate, up]), down.copy())  # the join is a new array: the private copy

    def _set_up(self, w_gate_up: np.ndarray, w_down: np.ndarray) -> None:
        """Store gate|up, its two column views and the down projection, arrays no caller holds, read-only."""
        w_gate, w_up = np.hsplit(w_gate_up, 2)
        _store(self, w_gate_up=w_gate_up, w_gate=w_gate, w_up=w_up, w_down=w_down)

    def __reduce__(self):
        return _adopt, (LlamaMlpWeights, self.w_gate_up, self.w_down)


def _scale_rows(p: LayerNormParams | RmsNormParams, f) -> np.ndarray:
    """diag(gamma) @ F as a new array, the static piece both norms fold into the weight.

    F's shape is checked here, its values are not: a non-finite F makes
    the scaled copy non-finite, and each fold names it before an overflow.
    """
    f = _rows(f, 2)
    if f.shape[0] != p.n:
        _reject(f, f"weight rows {f.shape[0]} do not match normalized dimension {p.n}")
    with np.errstate(all="ignore"):
        return p.gamma[:, np.newaxis] * f


def fold_layernorm_linear(p: LayerNormParams, f) -> FoldedLinear:
    """Fold layernorm's static pieces into the downstream weight matrix, read-only.

    Row-scaling by gamma and column-centering realize
    (I - E/n) @ diag(gamma) @ F in O(n*m) with no n x n factor and, beside
    the folded weight, only row-sized arrays. The column sums of
    diag(gamma) @ F are `matmul(gamma, F)`: the same rounded products,
    summed in index order from +0.0. Their means are subtracted in place
    from the scaled copy, so a column whose scaled entries are all -0.0
    folds to -0.0. The result is checked against the row-space
    annihilation invariant: column j of `matmul` of the all-ones row by it
    must be at most 1e-10 * n * max(1, max |column j|). Each step and
    limit is per column, so projections joined column-wise fold to the
    bits of each folded alone. A finite F whose scaled entries,
    column sums, centred entries, bias or ones-row sums overflow float64
    raises a `ValueError` naming the overflow. The fold carries `p.epsilon`.
    """
    folded_weight = _scale_rows(p, f)
    with np.errstate(all="ignore"):  # a finite weight's overflow is named below
        folded_weight -= matmul(p.gamma, f) / p.n  # its output scan proves F finite
        col_max = np.maximum(folded_weight.max(axis=0), -folded_weight.min(axis=0))  # NaN or inf where any entry is
    folded_bias = matmul(p.beta, f)
    if not (np.isfinite(col_max).all() and np.isfinite(folded_bias).all()
            and np.isfinite(ones_image := matmul(np.ones(p.n), folded_weight)).all()):
        raise ValueError("layernorm fold: the folded weight or bias is non-finite (float64 overflow)")

    if (np.abs(ones_image) > _FOLD_ANNIHILATION_TOL * p.n * np.maximum(1.0, col_max)).any():
        raise ValueError("folded weight does not annihilate constant inputs")
    return _adopt(FoldedLinear, folded_weight, folded_bias, p.epsilon)


def fold_rmsnorm_linear(p: RmsNormParams, f) -> FoldedLinear:
    """Fold the RMSNorm scale vector into the downstream weight matrix, read-only; no bias; an overflow is named.

    The fold carries `p.epsilon`, as `fold_layernorm_linear`'s does.
    """
    folded_weight = _scale_rows(p, f)
    if not np.isfinite(folded_weight).all():
        as_matrix(f)  # a non-finite F is named first
        raise ValueError("rmsnorm fold: the folded weight is non-finite (float64 overflow)")
    return _adopt(FoldedLinear, folded_weight, None, p.epsilon)


def _fold_rows(x, fold: FoldedLinear, layernorm: bool) -> np.ndarray:
    """`x` as rows, checked to fit `fold`, and `fold` checked to be the norm's kind."""
    rows = _rows(x)
    _require_width(rows, fold.folded_weight.shape[0], "folded weight rows")
    if (fold.folded_bias is not None) != layernorm:
        kinds = ("an RMSNorm fold (no folded_bias)", "a layernorm fold (with folded_bias)")
        _reject(rows, f"expected {kinds[layernorm]}, got {kinds[not layernorm]}")
    return rows


def fused_layernorm_matmul(x, fl: FoldedLinear) -> np.ndarray:
    """Evaluate layernorm(x) @ F through the folded weights, per row of `x`.

    Both tasks take the shifted rows y of `norms._shifted_moments`: the
    folded weight maps constants to zero, so y @ folded_weight is
    x @ folded_weight in exact arithmetic. The variance reduction and the
    product are independent tasks; they meet only at the final
    scale-and-bias, with the fold's epsilon.

    |y| can be twice |x|, so y's product can overflow float64 where x's
    would not. Such a row, and only such a row, is multiplied unshifted:
    the overflow headroom is the unshifted product's, and a row whose
    unshifted product overflows too stays non-finite.
    """
    rows = _fold_rows(x, fl, layernorm=True)
    shifted, _, _, variance = _shifted_moments(rows)  # element-wise, then collective task
    projected = matmul(shifted, fl.folded_weight)     # matmul task, overlappable
    if not np.isfinite(projected).all():
        overflowed = ~np.isfinite(projected).all(axis=-1)
        projected[overflowed] = matmul(rows[overflowed], fl.folded_weight)
    projected /= np.sqrt(variance + fl.epsilon)[..., np.newaxis]
    projected += fl.folded_bias
    return projected


def fused_rmsnorm_matmul(x, rfl: FoldedLinear) -> np.ndarray:
    """Evaluate rmsnorm(x) @ F per row of `x` through the folded weights, 1/rms deferred.

    As `rmsnorm` does, it divides the product of the pre-scaled rows of
    `norms._prescaled_root`, with the fold's epsilon, by their pre-scaled
    root. Where epsilon outweighs a small row, its pre-scaled root exceeds
    1, and its pre-scaled product can overflow where the unscaled one
    would not. Such a row, and only such a row, is multiplied unscaled and
    divided by the unscaled root, so the pre-scale costs no overflow
    headroom. Those rows are found in the product before the other rows
    are divided.
    """
    rows = _fold_rows(x, rfl, layernorm=False)
    s, scaled, root = _prescaled_root(rows, rfl.epsilon)  # element-wise pre-scale, then collective task
    projected = matmul(scaled, rfl.folded_weight)     # matmul task, overlappable
    overflowed = None if np.isfinite(projected).all() else ~np.isfinite(projected).all(axis=-1)
    with np.errstate(under="ignore"):  # a subnormal result, or unscaled root, is correctly rounded
        projected /= root[..., np.newaxis]
        if overflowed is not None:
            projected[overflowed] = (matmul(rows[overflowed], rfl.folded_weight)
                                     / np.ldexp(root, -s)[overflowed][..., np.newaxis])
    return projected


def fused_softmax_matmul(x, v) -> np.ndarray:
    """Evaluate softmax(x) @ V per row of `x`, the denominator deferred past the matmul.

    `x` is a row or a stack of rows times a matrix `v`, or a stack per
    head (h, m, k) times one matrix per head (h, k, n). Numerators are
    max-shifted, so the path is overflow-safe for any finite logits; the
    shift cancels between numerator and denominator.
    """
    rows = _rows(x)
    if np.shape(v)[-2:-1] != rows.shape[-1:]:
        _check_operands(rows, v)  # `matmul`'s order: x's checks, then v's rank and finiteness
        raise ValueError(f"input length {rows.shape[-1]} does not match matrix shape {np.shape(v)}")

    numerators, denominator = softmax_numerators(rows)  # denominator: collective task
    projected = matmul(numerators, v)                   # matmul task, overlappable
    with np.errstate(under="ignore"):  # a product of subnormal numerators
        projected /= denominator[..., np.newaxis]
    return projected


def silu(z) -> np.ndarray:
    """z * sigmoid(z), branch-selected so exp never overflows; silu(-inf) is -inf * 0, NaN.

    z >= 0 takes z / (1 + exp(-z)), the rest (NaN included) z * exp(z) /
    (1 + exp(z)), by one chain in place on a copy of z: e = exp(min(z, -z)),
    -|z| that keeps a NaN's own sign, out = z * e, z copied back where
    z >= 0, then out / (1 + e), each element's IEEE operations in its
    formula's order, so no two NaNs of opposite sign meet. Ufuncs read
    only the copy: numpy buffers a strided operand (`swiglu`'s gate half).
    """
    z = np.asarray(z, dtype=np.float64)
    out, e = z.copy(), np.empty(z.shape)
    with np.errstate(under="ignore", invalid="ignore"):  # exp's subnormal or 0 past |z| ~ 708 is correctly rounded
        np.exp(np.minimum(out, np.negative(out, out=e), out=e), out=e)
        nonnegative = out >= 0
        out *= e  # +inf * 0 is NaN here, replaced below
        np.copyto(out, z, where=nonnegative)
        e += 1.0
        out /= e
    return out


def swiglu(gate_up, w_down) -> np.ndarray:
    """silu(gate) * up through the down projection, per row of the gate|up join.

    `gate_up` holds the normalized gate and up projections side by side:
    2h columns for a down projection of h rows; up scales silu's output in place.
    """
    gate_up = np.asarray(gate_up, dtype=np.float64)
    h = np.shape(w_down)[0]
    if gate_up.shape[-1:] != (2 * h,):
        raise ValueError(f"gate|up shape {gate_up.shape} does not match down projection rows {h}")
    gated = silu(gate_up[..., :h])
    with np.errstate(under="ignore"):  # a subnormal silu(gate) * up is correctly rounded
        gated *= gate_up[..., h:]
    return matmul(gated, w_down)


def fused_rmsnorm_llama_mlp(x, gate_folded: FoldedLinear, up_folded: FoldedLinear, w_down) -> np.ndarray:
    """Gated MLP, per row of `x`, with RMSNorm folded into the gate and up projections.

    Both projections consume raw x, so the rms reduction can overlap them.
    The deferred 1/rms must be applied before the gate non-linearity
    (scalars do not commute past silu), so the down-projection is outside
    the overlap. This is the maximal exact fusion for this layer, and the
    block's own: one product over the joined folds, then `swiglu`. Both
    folds must carry the same epsilon, the join's.
    """
    n, h = gate_folded.folded_weight.shape
    if up_folded.folded_weight.shape != (n, h):
        raise ValueError(f"up projection shape {up_folded.folded_weight.shape}, expected gate's {(n, h)}")
    if np.shape(w_down) != (h, n):
        raise ValueError(f"down projection shape {np.shape(w_down)}, expected {(h, n)}")
    for fold in (gate_folded, up_folded):  # a layernorm fold is named by its kind, not by the join
        rows = _fold_rows(x, fold, layernorm=False)
    if (eps := gate_folded.epsilon) != up_folded.epsilon:
        _reject(rows, f"gate and up folds' epsilons differ: {eps} and {up_folded.epsilon}")
    gate_up = _adopt(FoldedLinear, np.hstack([gate_folded.folded_weight, up_folded.folded_weight]), None, eps)
    return swiglu(fused_rmsnorm_matmul(x, gate_up), w_down)
