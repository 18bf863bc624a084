"""Deterministic dense linear-algebra kernels.

Everything in this package runs in 64-bit floats. The kernels here avoid
BLAS and numpy's pairwise reductions on purpose: every sum is accumulated
strictly left-to-right over the reduction axis, so results are
bit-reproducible across runs and bit-equal to a naive scalar loop. numpy's
elementwise `*` and `+` do not fuse multiply-adds, which keeps the
guarantee intact on stock builds.

`matmul` forms its products a chunk of the inner dimension at a time, in
one vectorised call into a buffer of at most `_CHUNK_ELEMENTS` float64
(256 KiB; one output-sized slice if the output is larger), and then adds
the chunk's slices into the output one at a time, in index order, so it
stays bit-equal to the naive loop. Its extra memory is that one buffer,
whatever the inner dimension.

Row vectors are 1-D float64 arrays, matrices are 2-D float64 arrays
(row-major). Activations are rows multiplying weights on the right: like
every `norms` and `fusion` kernel, `matmul` takes one row (1-D), giving a
1-D result, or a stack of rows (2-D). The rows of a stack are
independent, so a row's result is bit-identical either way.
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

# Products per chunk of `matmul`'s inner dimension: 2**15 float64, 256 KiB.
_CHUNK_ELEMENTS = 1 << 15


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
    """Operator product A @ B with a fixed summation order; `a` is a row or a stack.

    Accumulates rank-1 updates over the inner dimension in index order, so
    each output element is the left-to-right sum of its products, starting
    from +0.0, bit-equal to the naive triple loop.

    The inner dimension is taken in chunks of c = max(1, min(k, budget //
    (m*n))) indices. For each chunk one `einsum("km,kn->kmn")` forms all c
    rank-1 slices a[:, i] * b[i, :] into a buffer allocated once per call.
    That einsum has no summed index: each element is one rounded product,
    with no reassociation and no BLAS call. It writes 0 + a*b, so a -0.0
    product comes out +0.0, which changes nothing: the accumulator starts
    at +0.0, no sum of it with a zero can become -0.0, and adding a zero of
    either sign to a nonzero value returns the value. A broadcast
    `np.multiply` forms the same products but allocates a temporary beside
    the buffer, and runs slower. The slices are then added into the output
    one `np.add` per index, in index order: the same sequence of IEEE
    additions as a loop of `out += a[:, i:i+1] * b[i]`. One row runs as a
    one-row stack.

    Memory beyond the output is the one buffer: at most `_CHUNK_ELEMENTS`
    float64, or one m x n slice when m*n is larger (c = 1).
    """
    a = as_rows(a)
    b = as_matrix(b)
    if a.shape[-1] != b.shape[0]:
        raise ValueError(f"matmul dimension mismatch: {a.shape} times {b.shape}")
    rows = a.reshape(-1, b.shape[0])
    (m, k), n = rows.shape, b.shape[1]
    c = max(1, min(k, _CHUNK_ELEMENTS // (m * n)))
    out = np.zeros((m, n))
    products = np.empty((c, m, n))
    for start in range(0, k, c):
        chunk = products[: min(c, k - start)]
        np.einsum("km,kn->kmn", rows.T[start : start + c], b[start : start + c], out=chunk)
        for product in chunk:
            np.add(out, product, out=out)
    return out.reshape(a.shape[:-1] + (n,))


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
