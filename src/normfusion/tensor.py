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
the chunk's slices into the output in index order, so it stays bit-equal
to the naive loop. For outputs narrow enough that a chunk holds at least
`_REDUCE_MIN_PRODUCTS` slices, that is one `np.add.reduce` along the
buffer's slow axis, whose slot 0 holds the running sum. Wider outputs, and
a single output element, whose reduce numpy would sum pairwise, take one
`np.add` per index. numpy documents pairwise summation only along the fast
axis; that describes precision, not a promised order, so the bitwise tests
against the triple loop are the guarantee. Its extra memory is that one
buffer, whatever the inner dimension.

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
# Fewest products per chunk, beside the running sum, that `matmul` adds with
# one reduce; below it the reduce is slower than one `np.add` per index.
_REDUCE_MIN_PRODUCTS = 8


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
    v = np.asarray(x, dtype=np.float64)
    if v.ndim == 2:
        return as_matrix(v)
    if v.ndim == 1:
        return as_row_vector(v)
    raise ValueError(f"expected one row (1-D) or a stack of rows (2-D), got shape {v.shape}")


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

    The inner dimension is taken in chunks. For each chunk one
    `einsum("km,kn->kmn")` forms its rank-1 slices a[:, i] * b[i, :] into
    a buffer allocated once per call. That einsum has no summed index:
    each element is one rounded product, with no reassociation and no BLAS
    call. It writes 0 + a*b, so a -0.0 product comes out +0.0, which
    changes nothing: the accumulator starts at +0.0, no sum of it with a
    zero can become -0.0, and adding a zero of either sign to a nonzero
    value returns the value. A broadcast `np.multiply` forms the same
    products but allocates a temporary beside the buffer, and runs slower.

    The slices are then added into the output in index order, one of two
    ways; both make the same sequence of IEEE additions as a loop of
    `out += a[:, i:i+1] * b[i]`:
    - *One reduce per chunk.* Slot 0 of the buffer holds the running sum,
      the chunk's c products fill slots 1..c, and one `np.add.reduce`
      along axis 0 writes the new sum into the output. The reduction axis
      is not the buffer's fast axis, so numpy adds slot after slot, each
      into every output element. numpy documents its pairwise summation as
      used only along the fast axis; that note describes precision and
      does not promise an order, so the bitwise tests against the triple
      loop are the guarantee.
    - *One `np.add` per index*, in two cases. With one output element
      (m*n == 1) the buffer is 1-D in memory, its reduction axis is the
      fast axis, and numpy would sum it pairwise. Where the buffer holds
      fewer than `_REDUCE_MIN_PRODUCTS` products beside the running sum,
      numpy's axis-0 reduce costs more per element than the Python-level
      adds it saves, so wide outputs stay here.
    One row runs as a one-row stack.

    Memory beyond the output is the one buffer: at most `_CHUNK_ELEMENTS`
    float64 (c = budget // (m*n), less the running sum's slot when
    reducing), or one m x n slice when m*n is larger (c = 1).
    """
    a = as_rows(a)
    b = as_matrix(b)
    if a.shape[-1] != b.shape[0]:
        raise ValueError(f"matmul dimension mismatch: {a.shape} times {b.shape}")
    rows = a.reshape(-1, b.shape[0])
    (m, k), n = rows.shape, b.shape[1]
    slots = _CHUNK_ELEMENTS // (m * n)  # m x n slices the budget holds
    reduce = m * n > 1 and slots > _REDUCE_MIN_PRODUCTS
    first = 1 if reduce else 0  # slot 0 carries the running sum into the reduce
    c = max(1, min(k, slots - first))
    out = np.zeros((m, n))
    buf = np.empty((first + c, m, n))
    for start in range(0, k, c):
        stop = min(start + c, k)
        chunk = buf[first : first + stop - start]
        np.einsum("km,kn->kmn", rows.T[start:stop], b[start:stop], out=chunk)
        if reduce:
            buf[0] = out
            np.add.reduce(buf[: 1 + stop - start], axis=0, out=out)
        else:
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
