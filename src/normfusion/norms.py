"""Reference normalizations and their element-wise/collective split.

Layernorm, RMSNorm, and numerically stable Softmax in their conventional
form. Each one hides a reduction (mean/variance, mean square, exponential
sum) that needs every element of the vector in one place (the
"collective" part) plus purely element-wise work. `moments`,
`root_mean_square` and `softmax_numerators` expose the collective part;
the fusion module defers it past the matmul.

Every function takes one row (1-D) or a stack of rows (2-D) and reduces
each row left to right along the last axis with `tensor.ordered_sum`, so
a row's result is bit-identical either way. The fused evaluators take
their collective values from these same functions, so the conventional
and fused paths divide by bit-identical scalars by construction.

Those three are the only implementations of the reductions: `layernorm`,
`rmsnorm` and the fused evaluators check shapes and call them. By the one
finiteness rule (see `tensor`), `moments` and `root_mean_square` scan
their per-row results, computed under `np.errstate(all="ignore")`, as a
NaN or infinity makes its row's result non-finite for good; softmax
scans its input, as a -inf logit gives a finite result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import _reject, _rows, as_row_vector, as_rows, frozen_copy, ordered_sum

__all__ = [
    "LayerNormParams",
    "RmsNormParams",
    "MomentStats",
    "moments",
    "layernorm",
    "rmsnorm",
    "root_mean_square",
    "softmax_stable",
    "softmax_numerators",
]


@dataclass(frozen=True)
class LayerNormParams:
    """Trainable scale/bias and divide-guard epsilon for Layernorm."""

    gamma: np.ndarray
    beta: np.ndarray
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", frozen_copy(as_row_vector(self.gamma)))
        object.__setattr__(self, "beta", frozen_copy(as_row_vector(self.beta)))
        if self.gamma.size != self.beta.size:
            raise ValueError(
                f"gamma/beta length mismatch: {self.gamma.size} vs {self.beta.size}"
            )
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be a positive finite scalar, got {self.epsilon}")

    @property
    def n(self) -> int:
        return self.gamma.size


@dataclass(frozen=True)
class RmsNormParams:
    """Trainable scale for RMSNorm.

    epsilon defaults to 0 to match the zero-mean formulation exactly;
    production models usually run with a small positive value, so it is
    configurable but never silently enabled.
    """

    gamma: np.ndarray
    epsilon: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "gamma", frozen_copy(as_row_vector(self.gamma)))
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be a non-negative finite scalar, got {self.epsilon}")

    @property
    def n(self) -> int:
        return self.gamma.size


@dataclass(frozen=True)
class MomentStats:
    """Mean and variance of one row (scalars) or of each row of a stack (arrays)."""

    mean: float | np.ndarray
    variance: float | np.ndarray


def _check_width(x: np.ndarray, n: int) -> None:
    if x.shape[-1] != n:
        _reject(x, f"input length {x.shape[-1]} does not match params length {n}")


def moments(x) -> MomentStats:
    """Mean and population variance (divisor n) of a row, per row of a stack.

    Population variance is load-bearing: the fused path divides by the
    same sqrt(variance + eps), and a sample-variance mismatch here would
    silently break fused/conventional equivalence.
    """
    x = _rows(x)
    n = x.shape[-1]
    with np.errstate(all="ignore"):
        mean = ordered_sum(x, axis=-1) / n
        dev = x - mean[..., np.newaxis]
        variance = ordered_sum(dev * dev, axis=-1) / n
    if not np.isfinite(variance).all():  # a non-finite input, or a finite row's sums overflowed
        _reject(x, "layernorm: a row's mean or variance is non-finite (float64 overflow)")
    return MomentStats(mean=mean, variance=variance)


def layernorm(x, p: LayerNormParams) -> np.ndarray:
    """(x - mean) / sqrt(variance + eps) * gamma + beta, per row."""
    x = _rows(x)
    _check_width(x, p.n)
    st = moments(x)
    denom = np.sqrt(st.variance + p.epsilon)[..., np.newaxis]
    return ((x - st.mean[..., np.newaxis]) / denom) * p.gamma + p.beta


def root_mean_square(x, epsilon: float) -> float | np.ndarray:
    """sqrt(mean(x**2) + eps) of a row, per row of a stack."""
    x = _rows(x)
    with np.errstate(all="ignore"):
        mean_sq = ordered_sum(x * x, axis=-1) / x.shape[-1]
    if not np.isfinite(mean_sq).all():  # a non-finite input, or a finite row's squares overflowed
        _reject(x, "rmsnorm: a row's mean square is non-finite (float64 overflow)")
    if np.any(mean_sq + epsilon == 0.0):
        raise ValueError("rms of an all-zero vector with epsilon=0 divides by zero")
    return np.sqrt(mean_sq + epsilon)


def rmsnorm(x, p: RmsNormParams) -> np.ndarray:
    """x / sqrt(mean(x**2) + eps) * gamma, per row."""
    x = _rows(x)
    _check_width(x, p.n)
    return (x / root_mean_square(x, p.epsilon)[..., np.newaxis]) * p.gamma


def softmax_numerators(x) -> tuple[np.ndarray, float | np.ndarray]:
    """Max-shifted exponential numerators and their sum, per row.

    The shift by the row's max cancels in numerators/denominator, so this
    is the exact decomposition of the stable softmax: the numerators are
    element-wise work, the denominator is the collective. The denominator
    is the left-to-right sum of the numerators, which makes
    `numerators @ ones == denominator` bit-exact.
    """
    x = as_rows(x)
    # far below the max a numerator rounds to a subnormal or 0, and a shift
    # past -1.8e308 to -inf gives 0: each correctly rounded, not an error
    with np.errstate(over="ignore", under="ignore"):
        numerators = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return numerators, ordered_sum(numerators, axis=-1)


def softmax_stable(x) -> np.ndarray:
    """Softmax with max-subtraction, per row; finite for any finite input."""
    numerators, denominator = softmax_numerators(x)
    with np.errstate(under="ignore"):  # a subnormal numerator
        return numerators / denominator[..., np.newaxis]
