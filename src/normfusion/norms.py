"""Reference normalizations and their element-wise/collective split.

Layernorm, RMSNorm, and numerically stable Softmax in their conventional
form. Each one hides a reduction (mean/variance, mean square, exponential
sum) that needs every element of the vector in one place (the
"collective" part) plus purely element-wise work. `moments`,
`root_mean_square` and `softmax_numerators` expose the collective part;
the fusion module defers it past the matmul.

Every function takes one row (1-D), a stack of rows (2-D) or a stack per
head (3-D, as attention's scores come) and reduces each row left to right
along the last axis with `tensor.ordered_sum`, so a row's result is
bit-identical whichever form carries it: one softmax call serves every
head. The fused evaluators take their collective values from these same
functions, so the conventional and fused paths divide by bit-identical
scalars by construction.

Each reduction is computed in one place: `_shifted_moments` (which also
returns each row shifted by its first element, so a layernorm site forms
those rows once), `_prescaled_root` (which also returns each row scaled
by a power of two, so both RMSNorm forms divide those rows, or their
product, by its root) and `softmax_numerators`. Every norm and fused
evaluator checks shapes and calls them. By the one finiteness rule (see
`tensor`), the first two scan their per-row results, computed under
`np.errstate(all="ignore")`, as a NaN or infinity makes its row's result
non-finite for good; softmax scans its input, as a -inf logit gives a
finite result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import _real, _reject, _require_width, _rows, _store, as_row_vector, as_rows, ordered_sum

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


def _epsilon(v, positive: bool, name: str = "epsilon") -> int | float:
    """`v` as the epsilon `name`, by `tensor._real`: positive for layernorm (and a fold with a bias), else non-negative."""
    if (eps := _real(v)) is None or not (eps > 0 if positive else eps >= 0):
        raise ValueError(f"{name} must be a {'positive' if positive else 'non-negative'} finite scalar, got {v}")
    return eps


@dataclass(frozen=True)
class LayerNormParams:
    """Layernorm's scale/bias (read-only copies) and divide-guard epsilon (a real, not a bool, stored plain)."""

    gamma: np.ndarray
    beta: np.ndarray
    epsilon: float

    def __post_init__(self):
        _store(self, gamma=as_row_vector(self.gamma).copy(), beta=as_row_vector(self.beta).copy())
        if self.gamma.size != self.beta.size:
            raise ValueError(
                f"gamma/beta length mismatch: {self.gamma.size} vs {self.beta.size}"
            )
        object.__setattr__(self, "epsilon", _epsilon(self.epsilon, positive=True))

    def __reduce__(self):  # a copy or an unpickled one is rebuilt by the constructor, read-only
        return LayerNormParams, (self.gamma, self.beta, self.epsilon)

    @property
    def n(self) -> int:
        return self.gamma.size


@dataclass(frozen=True)
class RmsNormParams:
    """Trainable scale for RMSNorm.

    epsilon defaults to 0 to match the zero-mean formulation exactly;
    production models usually run with a small positive value, so it is
    configurable but never silently enabled. It is stored as
    `LayerNormParams` stores its epsilon, and gamma as a read-only copy.
    """

    gamma: np.ndarray
    epsilon: float = 0.0

    def __post_init__(self):
        _store(self, gamma=as_row_vector(self.gamma).copy())
        object.__setattr__(self, "epsilon", _epsilon(self.epsilon, positive=False))

    def __reduce__(self):  # as LayerNormParams'
        return RmsNormParams, (self.gamma, self.epsilon)

    @property
    def n(self) -> int:
        return self.gamma.size


def _shifted_moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each row of `x` shifted by its first element, then centred, the shifted rows' mean, and the variance.

    The shift y = x - x[..., :1] is a layernorm site's element-wise half;
    the rest is its collective half. Layernorm does not see a constant
    added to a row, and the folded weight maps constants to zero, so both
    layernorm paths take y in place of `x`, formed once per site. Where a
    row's entries lie within a factor of 2 of its first, as at a large DC
    offset, each difference is exact (Sterbenz), so the offset costs no
    accuracy. A non-finite variance (a non-finite input, or a finite row
    whose spread or sums overflow float64) is rejected after `x` is scanned.
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
    """The pair (mean, population variance (divisor n)) of a row, per row of a stack.

    Population variance is load-bearing: the fused path divides by the
    same sqrt(variance + eps), and a sample-variance mismatch here would
    silently break fused/conventional equivalence.

    Both are taken on the shifted rows `x - x[..., :1]` (`_shifted_moments`),
    so a large row offset costs the variance no accuracy; the mean is
    `x[..., 0]` plus the shifted rows' mean.
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
    ever rounding the rms to a subnormal. `epsilon` is already checked,
    where it entered: `RmsNormParams`, `FoldedLinear` or `root_mean_square`.
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
    if (real := _real(epsilon)) is None or real < 0:
        _reject(x, f"rmsnorm: epsilon must be a non-negative finite scalar, got {epsilon}")
    s, _, root = _prescaled_root(x, real)
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
