"""Reference normalizations and their element-wise/collective split.

Layernorm, RMSNorm, and numerically stable Softmax in their conventional
form. Each one hides a reduction (mean/variance, mean square, exponential
sum) that needs every element of the vector in one place (the
"collective" part) plus purely element-wise work. `softmax_numerators`
exposes that split directly; the fusion module builds on it.

All reductions go through `tensor.ordered_sum` so the conventional and
fused paths see bit-identical collective values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import as_row_vector, frozen_copy, ordered_sum

__all__ = [
    "LayerNormParams",
    "RmsNormParams",
    "MomentStats",
    "moments",
    "layernorm",
    "rmsnorm",
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
    mean: float
    variance: float

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError(f"variance must be non-negative, got {self.variance}")


def moments(x) -> MomentStats:
    """Mean and population variance (divisor n) of a row vector.

    Population variance is load-bearing: the fused path divides by the
    same sqrt(variance + eps), and a sample-variance mismatch here would
    silently break fused/conventional equivalence.
    """
    x = as_row_vector(x)
    n = x.size
    mean = ordered_sum(x) / n
    dev = x - mean
    variance = ordered_sum(dev * dev) / n
    return MomentStats(mean=float(mean), variance=float(variance))


def layernorm(x, p: LayerNormParams) -> np.ndarray:
    """(x - mean) / sqrt(variance + eps) * gamma + beta."""
    x = as_row_vector(x)
    if x.size != p.n:
        raise ValueError(f"input length {x.size} does not match params length {p.n}")
    st = moments(x)
    denom = math.sqrt(st.variance + p.epsilon)
    return ((x - st.mean) / denom) * p.gamma + p.beta


def rmsnorm(x, p: RmsNormParams) -> np.ndarray:
    """x / sqrt(mean(x**2) + eps) * gamma."""
    x = as_row_vector(x)
    if x.size != p.n:
        raise ValueError(f"input length {x.size} does not match params length {p.n}")
    mean_sq = float(ordered_sum(x * x)) / x.size
    if mean_sq + p.epsilon == 0.0:
        raise ValueError("rmsnorm of an all-zero vector with epsilon=0 divides by zero")
    return (x / math.sqrt(mean_sq + p.epsilon)) * p.gamma


def softmax_numerators(x) -> tuple[np.ndarray, float]:
    """Max-shifted exponential numerators and their sum.

    The shift by max(x) cancels in numerators/denominator, so this is the
    exact decomposition of the stable softmax: the numerators are
    element-wise work, the denominator is the collective. The denominator
    is the left-to-right sum of the numerators, which makes
    `numerators @ ones == denominator` bit-exact.
    """
    x = as_row_vector(x)
    numerators = np.exp(x - np.max(x))
    denominator = float(ordered_sum(numerators))
    return numerators, denominator


def softmax_stable(x) -> np.ndarray:
    """Softmax with max-subtraction; finite for any finite input."""
    numerators, denominator = softmax_numerators(x)
    return numerators / denominator
