"""Reference normalizations, each split into its collective and element-wise parts.

Layernorm, RMSNorm and the stable softmax in their conventional form.
Each hides a reduction that needs every element of a row in one place
(the "collective" part) beside purely element-wise work; `fusion` defers
the collective part past the matmul. Each reduction is computed in one
function, which the conventional norms here and the fused evaluators
both call, so both paths divide by bit-identical scalars:
`_shifted_moments` (layernorm's shift), `_prescaled_root` (RMSNorm's
pre-scale) and `softmax_numerators`. Every function takes the row forms
of `tensor._rows` and reduces each row left to right with
`tensor.ordered_sum`, by `tensor`'s finiteness rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import _number, _reject, _require_width, _rows, _store, as_row_vector, as_rows, ordered_sum

__all__ = [
    "LayerNormParams",
    "RmsNormParams",
    "moments",
    "layernorm",
    "rmsnorm",
    "root_mean_square",
    "softmax_stable",
    "softmax_numerators",
]


@dataclass(frozen=True)
class LayerNormParams:
    """Layernorm's scale and bias, stored through `tensor._store`, and its positive divide-guard epsilon."""

    gamma: np.ndarray
    beta: np.ndarray
    epsilon: float

    def __post_init__(self):
        _store(self, gamma=as_row_vector(self.gamma).copy(), beta=as_row_vector(self.beta).copy())
        if self.gamma.size != self.beta.size:
            raise ValueError(
                f"gamma/beta length mismatch: {self.gamma.size} vs {self.beta.size}"
            )
        object.__setattr__(self, "epsilon", _number(self.epsilon, "epsilon"))

    def __reduce__(self):  # a copy or an unpickled one is rebuilt by the constructor, read-only
        return LayerNormParams, (self.gamma, self.beta, self.epsilon)

    @property
    def n(self) -> int:
        return self.gamma.size


@dataclass(frozen=True)
class RmsNormParams:
    """RMSNorm's scale, stored through `tensor._store`, and its non-negative epsilon.

    epsilon defaults to 0 to match the zero-mean formulation exactly;
    production models usually run with a small positive value, so it is
    configurable but never silently enabled.
    """

    gamma: np.ndarray
    epsilon: float = 0.0

    def __post_init__(self):
        _store(self, gamma=as_row_vector(self.gamma).copy())
        object.__setattr__(self, "epsilon", _number(self.epsilon, "epsilon", positive=False))

    def __reduce__(self):  # as LayerNormParams'
        return RmsNormParams, (self.gamma, self.epsilon)

    @property
    def n(self) -> int:
        return self.gamma.size


def _shifted_moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each row of `x` shifted by its first element, then centred, the shifted rows' mean, and the variance.

    The shift y = x - x[..., :1] is a layernorm site's element-wise half
    (the op graph's `{site}.elementwise` node); the rest is its collective
    half. Layernorm does not see a constant added to a row, and the folded
    weight maps constants to zero, so both layernorm paths take y in place
    of `x`, formed once per site. Where a row's entries lie within a
    factor of 2 of its first, as at a large DC offset, each difference is
    exact (Sterbenz), so the offset costs no accuracy. The variance is the
    population variance (divisor n), which both paths divide by. A
    non-finite variance (a non-finite input, or a finite row whose spread
    or sums overflow float64) is rejected after `x` is scanned.
    """
    n = x.shape[-1]
    with np.errstate(all="ignore"):
        shifted = x - x[..., :1]
        mean = ordered_sum(shifted) / n
        dev = shifted - mean[..., np.newaxis]
        variance = ordered_sum(dev * dev) / n
    if not np.isfinite(variance).all():
        _reject(x, "layernorm: a row's mean or variance is non-finite (float64 overflow)")
    return shifted, dev, mean, variance


def moments(x) -> tuple[float | np.ndarray, float | np.ndarray]:
    """The pair (mean, population variance) of a row, per row of a stack, from `_shifted_moments`.

    The mean is `x[..., 0]` plus the shifted rows' mean.
    """
    x = _rows(x)
    _, _, mean, variance = _shifted_moments(x)
    return x[..., 0] + mean, variance


def layernorm(x, p: LayerNormParams) -> np.ndarray:
    """(x - mean) / sqrt(variance + eps) * gamma + beta, per row.

    The centred rows are the shifted rows less their own mean, never `x`
    less a rounded `x[..., 0] + mean`.
    """
    x = _rows(x)
    _require_width(x, p.n, "params length")
    _, dev, _, variance = _shifted_moments(x)
    denom = np.sqrt(variance + p.epsilon)[..., np.newaxis]
    with np.errstate(under="ignore"):  # a subnormal scaled element is correctly rounded
        return (dev / denom) * p.gamma + p.beta


def _prescaled_root(x: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's pre-scale exponent s, the rows x * 2**s, and their root sqrt(mean((x * 2**s)**2) + eps * 4**s).

    A row below 0.5 at its largest is scaled up (never down) by the 2**s
    that brings it into [0.5, 1), epsilon by 4**s, each exactly
    (`np.ldexp`), so no nonzero row's squares all underflow and the root
    is a normal number. s stops where epsilon * 4**s would reach 2**1000,
    which a scaled mean square (at most 1) cannot move. Rows with s = 0
    are `x`'s own bits. Both RMSNorm paths divide the pre-scaled rows, or
    their product, by the pre-scaled root, which gives x / rms(x) without
    ever rounding the rms to a subnormal, so with epsilon 0 RMSNorm does
    not see a power-of-two scale of its rows. An all-zero row with epsilon
    0 raises. `epsilon` is already checked, where it entered:
    `RmsNormParams`, `FoldedLinear` or `root_mean_square`.
    """
    with np.errstate(all="ignore"):
        cap = max(0, (1000 - math.frexp(epsilon)[1]) // 2) if epsilon else None
        s = np.clip(-np.frexp(np.abs(x).max(axis=-1))[1], 0, cap)
        scaled = np.ldexp(x, s[..., np.newaxis])
        mean_sq = ordered_sum(np.square(scaled)) / x.shape[-1]
    if not np.isfinite(mean_sq).all():  # a non-finite input, or a finite row's squares overflowed
        _reject(x, "rmsnorm: a row's mean square is non-finite (float64 overflow)")
    if np.any(mean_sq + (eps := np.ldexp(epsilon, 2 * s)) == 0.0):  # an all-zero row, epsilon 0
        raise ValueError("rms of an all-zero vector with epsilon=0 divides by zero")
    return s, scaled, np.sqrt(mean_sq + eps)


def root_mean_square(x, epsilon: float) -> float | np.ndarray:
    """sqrt(mean(x**2) + eps) of a row, per row of a stack.

    The root of the pre-scaled rows (`_prescaled_root`), scaled back down
    exactly where it stays a normal number: with epsilon 0 the root of
    x * 2**-k is x's times 2**-k, bit for bit, and other rows keep their
    bits. An rms below float64's normal range is correctly rounded to a
    subnormal; `rmsnorm` and `fused_rmsnorm_matmul` never divide by it.

    It is the one kernel given a raw epsilon, so it checks it, by
    `RmsNormParams`' rule, after naming a non-finite row.
    """
    x = _rows(x)
    try:
        epsilon = _number(epsilon, "rmsnorm: epsilon", positive=False)
    except ValueError as e:
        _reject(x, str(e))
    s, _, root = _prescaled_root(x, epsilon)
    with np.errstate(under="ignore"):  # an rms below float64's normal range is correctly rounded
        return np.ldexp(root, -s)


def rmsnorm(x, p: RmsNormParams) -> np.ndarray:
    """x / sqrt(mean(x**2) + eps) * gamma, per row, taken as the pre-scaled rows over their pre-scaled root."""
    x = _rows(x)
    _require_width(x, p.n, "params length")
    _, scaled, root = _prescaled_root(x, p.epsilon)
    with np.errstate(under="ignore"):  # a subnormal scaled element is correctly rounded
        return (scaled / root[..., np.newaxis]) * p.gamma


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
        numerators = np.exp(x - x.max(axis=-1, keepdims=True))
    return numerators, ordered_sum(numerators)


def softmax_stable(x) -> np.ndarray:
    """Softmax with max-subtraction, per row; finite for any finite input."""
    numerators, denominator = softmax_numerators(x)
    with np.errstate(under="ignore"):  # a subnormal numerator
        return numerators / denominator[..., np.newaxis]
