"""Deterministic dense linear-algebra kernels.

Everything in this package runs in 64-bit floats. The kernels here avoid
BLAS and numpy's pairwise reductions on purpose: every sum is accumulated
strictly left-to-right over the reduction axis, so results are
bit-reproducible across runs and bit-equal to a naive scalar loop. numpy's
elementwise `*` and `+` do not fuse multiply-adds, which keeps the
guarantee intact on stock builds.

Row vectors are 1-D float64 arrays, matrices are 2-D float64 arrays
(row-major). Activations are rows multiplying weights on the right.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_row_vector",
    "as_matrix",
    "as_rows",
    "frozen_copy",
    "matmul",
    "ordered_sum",
    "max_rel_error",
]


def as_row_vector(x) -> np.ndarray:
    """Validate and return `x` as a finite 1-D float64 array."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D row vector, got shape {v.shape}")
    if v.size == 0:
        raise ValueError("row vector must have length >= 1")
    if not np.all(np.isfinite(v)):
        raise ValueError("row vector contains non-finite elements")
    return v


def as_matrix(a) -> np.ndarray:
    """Validate and return `a` as a finite 2-D float64 array."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise ValueError("matrix dimensions must be >= 1")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite elements")
    return m


def as_rows(x) -> np.ndarray:
    """Validate `x` as one row (1-D) or a stack of rows (2-D), returned as given."""
    return as_matrix(x) if np.ndim(x) == 2 else as_row_vector(x)


def frozen_copy(a: np.ndarray) -> np.ndarray:
    """A private, read-only copy of `a`: later writes to `a` cannot reach it."""
    out = a.copy()
    out.setflags(write=False)
    return out


def ordered_sum(a: np.ndarray, axis: int | None = None):
    """Sum with strict left-to-right accumulation order.

    `np.add.accumulate` applies the operation sequentially, unlike
    `np.sum`, which reassociates (pairwise summation). The last prefix sum
    is therefore bit-equal to `acc = 0.0; for v in a: acc += v`.
    """
    a = np.asarray(a, dtype=np.float64)
    if axis is None:
        a = a.ravel()
        axis = 0
    return np.take(np.add.accumulate(a, axis=axis), -1, axis=axis)


def matmul(a, b) -> np.ndarray:
    """Operator product A @ B with a fixed summation order.

    Accumulates rank-1 updates over the inner dimension in index order, so
    each output element is the left-to-right sum of its products,
    bit-equal to the naive triple loop.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(
            f"matmul dimension mismatch: {a.shape[0]}x{a.shape[1]} times {b.shape[0]}x{b.shape[1]}"
        )
    out = np.zeros((a.shape[0], b.shape[1]))
    for k in range(a.shape[1]):
        out += a[:, k, np.newaxis] * b[k, :]
    return out


def rowvec_matmul(x, b) -> np.ndarray:
    """Row-vector times matrix, returning a 1-D array. Same kernel as `matmul`."""
    x = as_row_vector(x)
    return matmul(x[np.newaxis, :], b)[0]


def max_rel_error(actual, expected) -> float:
    """Norm-wise relative error: max|a - e| / max(max|e|, eps-floor).

    Element-wise relative error is ill-posed where an individual output
    element cancels to ~0, so deviations are measured against the overall
    scale of the expected result.
    """
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if actual.shape != expected.shape:
        raise ValueError(f"shape mismatch: {actual.shape} vs {expected.shape}")
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    return float(np.max(np.abs(actual - expected))) / scale
