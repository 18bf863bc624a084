"""Deterministic dense linear-algebra kernels.

Everything in this package runs in 64-bit floats. The kernels here avoid
BLAS and numpy's pairwise reductions on purpose: every sum is accumulated
strictly left-to-right over the reduction axis, so results are
bit-reproducible across runs and bit-equal to a naive scalar loop. numpy's
elementwise `*` and `+` round separately, never as one fused
multiply-add; the one kernel here that might fuse them runs only where a
probe shows that it does not.

`matmul` has two exact kernels, picked once at import:
- `_summing_einsum` is one `np.einsum("mk,kn->mn")`. With C-contiguous
  operands and n >= 2, numpy's iterator runs k outside an inner loop of
  `out[j] += a * b[j]`, so each product goes straight into its output
  element in index order, starting from +0.0. A transposed view, a
  Fortran-order operand or n == 1 would make k the inner loop, whose sum
  is reassociated, so operands are copied to C order where they are not
  in it, and a one-column `b` is padded with a zero column.
- That is the triple loop's arithmetic only if the loop does not fuse the
  multiply and the add, and some builds do (NEON implements it with a
  fused multiply-add). So `_sums_in_order` runs the einsum kernel on trap
  operands: a product whose fused and unfused sums differ, a sum that any
  other order rounds differently, and all -0.0 products, each in its own
  output element, in the bulk and the tail of the vector loop, with
  n == 1 and with one output element. It compares the bits with a Python
  triple loop, and `_EINSUM_IN_ORDER` records the answer.
- Where any bit differs, `matmul` takes `_chunked_matmul`, exact on any
  build: it forms the products a chunk of the inner dimension at a time
  into a buffer of at most `_CHUNK_ELEMENTS` float64 (256 KiB; one
  output-sized slice if the output is larger), and adds the chunk's
  slices into the output in index order.
Neither order is a documented numpy promise, so the bitwise tests against
the triple loop, run on both kernels, are the guarantee.

One finiteness rule holds for every public kernel here and in `norms`
and `fusion`: check shapes, then prove the input finite once, on the
smallest array that proves it. Where a NaN or infinity in the input
makes some element of the result non-finite, and computing it raises no
floating-point error, a finite result proves finite input. Only a
non-finite one runs `as_rows`/`as_matrix`, which name a bad input before
an overflow is reported; `_reject` names it before a mismatch with the
other arguments (a width, an epsilon). `matmul` scans its m x n output:
each operand value enters a whole row or column of products (m, n >= 1),
`inf * 0` is NaN, and a sum stays non-finite once one term is. The
summing einsum raises no floating-point error, and the chunked kernel
runs under `np.errstate(all="ignore")`. The rejection tests, run on both
kernels with non-finite values beside zero partners, are the guarantee.

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

# Products per chunk of `_chunked_matmul`'s inner dimension: 2**15 float64,
# 256 KiB.
_CHUNK_ELEMENTS = 1 << 15
# Fewest products per chunk, beside the running sum, that `_chunked_matmul`
# adds with one reduce; below it the reduce is slower than one `np.add` per
# index.
_REDUCE_MIN_PRODUCTS = 8


def _row_vector(x) -> np.ndarray:
    """`x` as a 1-D float64 array of length >= 1; its values are not checked."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D row vector, got shape {v.shape}")
    if v.size == 0:
        raise ValueError("row vector must have length >= 1")
    return v


def _matrix(a) -> np.ndarray:
    """`a` as a 2-D float64 array with both dimensions >= 1; its values are not checked."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise ValueError("matrix dimensions must be >= 1")
    return m


def _rows(x) -> np.ndarray:
    """`x` as `_matrix` (a stack of rows) or `_row_vector` (one row); its values are not checked."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim == 2:
        return _matrix(v)
    if v.ndim == 1:
        return _row_vector(v)
    raise ValueError(f"expected one row (1-D) or a stack of rows (2-D), got shape {v.shape}")


def as_row_vector(x) -> np.ndarray:
    """Validate and return `x` as a finite 1-D float64 array."""
    v = _row_vector(x)
    if not np.all(np.isfinite(v)):
        raise ValueError("row vector contains non-finite elements")
    return v


def as_matrix(a) -> np.ndarray:
    """Validate and return `a` as a finite 2-D float64 array."""
    m = _matrix(a)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite elements")
    return m


def as_rows(x) -> np.ndarray:
    """Validate `x` as one row (1-D) or a stack of rows (2-D), returned as given."""
    v = _rows(x)
    return as_matrix(v) if v.ndim == 2 else as_row_vector(v)


def _reject(x: np.ndarray, message: str):
    """Raise `ValueError(message)` about a well-shaped `x`, after `as_rows(x)` names a non-finite value."""
    as_rows(x)
    raise ValueError(message)


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

    Each output element is the left-to-right sum of its products over the
    inner dimension, starting from +0.0, bit-equal to the naive triple loop.
    One row runs as a one-row stack.

    Where the import-time probe found numpy's summing `einsum` exact
    (`_EINSUM_IN_ORDER`), this is one `_summing_einsum` call, which writes
    each product straight into its output element. The probe runs that
    kernel on traps a fused multiply-add, any other summation order or a
    -0.0 start would round differently, and compares the bits with a
    triple loop. The kernel copies operands to C order and pads a
    one-column `b` to two columns, because a transposed view, a
    Fortran-order operand or n == 1 makes numpy run the inner dimension as
    its inner loop, which it reassociates. Elsewhere `matmul` is
    `_chunked_matmul`, which forms the products a chunk at a time in a
    buffer and adds them in index order.

    Both operands must be finite. The shape checks run first; then the
    product is computed and its output scanned once (see the module
    docstring). Only a non-finite output runs `as_rows(a)` and
    `as_matrix(b)`: they raise for a non-finite operand, and where finite
    products overflowed the output is returned. Operands that are both
    misshapen or mismatched and non-finite raise what `as_rows(a)` and
    then `as_matrix(b)` raise.
    """
    try:
        a, b = _rows(a), _matrix(b)
        shapes_agree = a.shape[-1] == b.shape[0]
    except (TypeError, ValueError):
        shapes_agree = False
    if not shapes_agree:
        _check_operands(a, b)  # raises the first error in the validators' order
        raise ValueError(f"matmul dimension mismatch: {a.shape} times {b.shape}")
    rows = a.reshape(-1, b.shape[0])
    if _EINSUM_IN_ORDER:
        out = _summing_einsum(rows, b)
    else:
        with np.errstate(all="ignore"):
            out = _chunked_matmul(rows, b)
    if not np.isfinite(out).all():
        _check_operands(a, b)
    return out.reshape(a.shape[:-1] + (b.shape[1],))


def _check_operands(a, b) -> None:
    """`matmul`'s full operand checks, in order: `as_rows(a)`, then `as_matrix(b)`."""
    as_rows(a)
    as_matrix(b)


def _summing_einsum(rows: np.ndarray, b: np.ndarray) -> np.ndarray:
    """rows @ b as one `einsum("mk,kn->mn")`, in index order where the probe says so.

    `einsum` starts the output at +0.0. With both operands C-contiguous
    and n >= 2, numpy's iterator orders the axes (m, k, n): its inner loop
    is `out[j] += a * b[j]` over n, and k runs outside it in ascending
    order. Unless the loop fuses the multiply and the add, those are the
    triple loop's IEEE operations. Other layouts can make k the inner
    loop, where the sum is reassociated: a transposed view or a
    Fortran-order operand does, and so does n == 1. So both operands are
    copied to C order where they are not in it, and a one-column `b` is
    padded with a zero column, whose results are dropped. Memory beyond
    the output is those copies, and none for C-contiguous operands with
    n >= 2. No BLAS call is made (`optimize=False`).
    """
    n = b.shape[1]
    if n == 1:
        b = np.concatenate([b, np.zeros_like(b)], axis=1)
    out = np.einsum("mk,kn->mn", np.ascontiguousarray(rows), np.ascontiguousarray(b), optimize=False)
    return out[:, :1].copy() if n == 1 else out


def _chunked_matmul(rows: np.ndarray, b: np.ndarray) -> np.ndarray:
    """rows @ b, adding chunks of formed products in index order; exact on any build.

    The inner dimension is taken in chunks. For each chunk one
    `einsum("km,kn->kmn")` forms its rank-1 slices a[:, i] * b[i, :] into
    a buffer allocated once per call. That einsum has no summed index:
    each element is one rounded product, with no reassociation and no BLAS
    call (a fused multiply-add into the zeroed element rounds it the
    same). It writes 0 + a*b, so a -0.0 product comes out +0.0, which
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

    Memory beyond the output is the one buffer: at most `_CHUNK_ELEMENTS`
    float64 (c = budget // (m*n), less the running sum's slot when
    reducing), or one m x n slice when m*n is larger (c = 1).
    """
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
    return out


def _probe_operands() -> tuple[np.ndarray, np.ndarray]:
    """Trap operands for `_sums_in_order`: three rows, each trap in its own output element.

    Every column holds the traps, so they reach both the SIMD bulk and the
    scalar tail of a kernel whose vectors hold up to 32 float64 (n = 35).
    - Row 0, fused multiply-add: 1 * -(1 + 2**-29) + (1 + 2**-30)**2. The
      rounded square is 1 + 2**-29, so the sum is 0.0; a fused kernel
      keeps the square's 2**-60 and returns that. Its other products are
      zero, so no later term absorbs the residue.
    - Row 1, order: 1 + 2**-53 + 2**-53 + ... rounds back to 1 at every
      step of the left-to-right sum; any order that adds small terms
      together first (pairwise, SIMD lanes, reversed) ends above 1.
    - Row 2, start value: every product is -0.0, and 0.0 + (-0.0) is
      +0.0; a sum started from the first product, or from -0.0, is -0.0.
    """
    k, n = 19, 35
    a = np.zeros((3, k))
    a[0, :2] = 1.0, 1.0 + 2.0**-30
    a[1, 2:] = 1.0
    a[2, 1:] = -0.0
    b = np.full((k, n), 2.0**-53)
    b[0], b[1], b[2] = -(1.0 + 2.0**-29), 1.0 + 2.0**-30, 1.0
    return a, b


def _triple_loop(rows: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The reference order, in Python floats: acc = 0.0, then acc += a * b per index."""
    out = np.zeros((rows.shape[0], b.shape[1]))
    columns = b.T.tolist()
    for i, row in enumerate(rows.tolist()):
        for j, column in enumerate(columns):
            acc = 0.0
            for x, y in zip(row, column):
                acc += x * y
            out[i, j] = acc
    return out


def _sums_in_order(kernel) -> bool:
    """Whether `kernel(rows, b)` is bit-equal to the triple loop on the trap operands.

    It is run on the full traps, on their first column alone (n == 1) and
    on one trap element (m*n == 1); the one-column `b` is a column view, as
    `matmul` may be given, not a C-contiguous array.
    """
    a, b = _probe_operands()
    cases = ((a, b), (a, b[:, :1]), (a[1:2], b[:, -1:]))
    return all(
        np.array_equal(kernel(x, y).view(np.uint64), _triple_loop(x, y).view(np.uint64)) for x, y in cases
    )


# Whether `matmul` runs as `_summing_einsum`: this numpy's summing einsum
# passed the bit-exactness probe. Fixed once, at import.
_EINSUM_IN_ORDER = _sums_in_order(_summing_einsum)


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
