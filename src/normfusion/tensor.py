"""Deterministic float64 kernels, and the checks every module shares.

`matmul` and `ordered_sum` sum strictly left to right, never through BLAS
or numpy's pairwise reductions, so their bits are a naive scalar loop's
on every numpy build and CPU kernel tier; each docstring states its order.
Results built on numpy's `exp` and `tanh` (the softmax, `gelu`, `silu`)
are bit-reproducible only on the same numpy build and CPU kernel tier,
as numpy picks those kernels at run time by CPU.

The shared contracts each live in one function: `_rows`, the row forms
every kernel takes; `_store` and `_adopt`, the read-only storage of every
weight; `_number`, the rule of every numeric field.

One finiteness rule holds for every public kernel here and in `norms`
and `fusion`, and for the block's input: check shapes (`_rows`), then
prove the input finite once, on the smallest array that proves it
(`_finite`, the one scan; `as_row_vector`, `as_matrix` and `as_rows` are
the two in turn). Where a NaN or infinity in the input makes some element
of the result non-finite, and computing it raises no floating-point
error, a finite result proves finite input, and only a non-finite one
runs the input scan, which names a bad input before an overflow:
- `matmul` scans its output: each operand value enters a whole row or
  column of its slice's products, `inf * 0` is NaN, a sum stays
  non-finite once one term is, and neither kernel raises a
  floating-point error;
- `norms._shifted_moments` and `norms._prescaled_root` scan their
  per-row results, computed under `np.errstate(all="ignore")`;
- softmax scans its input, as a -inf logit gives a finite result;
- the block leaves its input to ln1's reduction.
`_reject` runs the scan before naming a mismatch with the other arguments
(a width, through `_require_width`, or an epsilon). The rejection tests,
run on both `matmul` kernels with non-finite values beside zero partners,
are the guarantee.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys

import numpy as np

__all__ = [
    "as_row_vector",
    "as_matrix",
    "as_rows",
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


def _rows(x, ndim: int | None = None) -> np.ndarray:
    """`x` as float64 with every dimension >= 1; its values are not checked.

    With no `ndim`, `x` is one of the row forms every kernel in `norms`
    and `fusion`, and `matmul`'s left operand, takes: one row (1-D), a
    stack of rows (2-D), or a stack per head (3-D, heads first, as
    attention's scores come). Each kernel works along the last axis, and
    the rows of a stack and the slices of a batch are independent, so a
    row's result is bit-identical whichever form carries it. With `ndim`,
    `x` has exactly that rank.
    """
    v = np.asarray(x, dtype=np.float64)
    if ndim is None and v.ndim not in (1, 2, 3):
        raise ValueError(
            f"expected one row (1-D), a stack of rows (2-D) or a stack per head (3-D), got shape {v.shape}"
        )
    if ndim is not None and v.ndim != ndim:
        kind = "1-D row vector" if ndim == 1 else f"{ndim}-D matrix"
        raise ValueError(f"expected a {kind}, got shape {v.shape}")
    if 0 in v.shape:
        raise ValueError("row vector must have length >= 1" if v.ndim == 1 else "matrix dimensions must be >= 1")
    return v


def _finite(v: np.ndarray) -> np.ndarray:
    """`v`, after proving every element finite; a 1-D `v` is named a row vector, any other a matrix."""
    if not np.isfinite(v).all():
        raise ValueError(f"{'row vector' if v.ndim == 1 else 'matrix'} contains non-finite elements")
    return v


def as_row_vector(x) -> np.ndarray:
    """Validate and return `x` as a finite 1-D float64 array."""
    return _finite(_rows(x, 1))


def as_matrix(a) -> np.ndarray:
    """Validate and return `a` as a finite 2-D float64 array."""
    return _finite(_rows(a, 2))


def as_rows(x) -> np.ndarray:
    """Validate `x` as finite: one row (1-D), a stack of rows (2-D) or a stack per head (3-D)."""
    return _finite(_rows(x))


def _reject(x: np.ndarray, message: str):
    """Raise `ValueError(message)` about a well-shaped `x`, after `as_rows(x)` names a non-finite value."""
    as_rows(x)
    raise ValueError(message)


def _require_width(x: np.ndarray, n: int, what: str) -> None:
    """Reject rows `x` that are not `n` wide, `what` naming the `n`, through `_reject`."""
    if x.shape[-1] != n:
        _reject(x, f"input length {x.shape[-1]} does not match {what} {n}")


def _store(obj, **fields) -> None:
    """Set each of `fields` on the frozen dataclass `obj`, every array among them made read-only first.

    This is every weight's one storage step, and it holds the storage
    contract: a stored array is read-only, and no caller holds it, so no
    write can reach a weight and `BlockWeights.folded` never goes stale.
    Each weight class's `__post_init__` checks and copies a caller's
    arrays, and joins (Q|K|V, gate|up) are new arrays; arrays this package
    made come through `_adopt`. Each array is frozen itself, a column view
    as well as its joined buffer, so no order of splitting and freezing
    matters.
    """
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)


def _adopt(cls, *args):
    """A `cls` whose `_set_up(*args)` stores arrays this package made, with no copy and no second scan.

    Each weight class's `__post_init__` ends in the same `_set_up`, which
    stores through `_store`; `_adopt` skips the checks and copies before
    it. Each class's `__reduce__` rebuilds here, so a copy or an unpickled
    weight is read-only, its views lie in its own joined buffer, and its
    values and folds are the original's bits.
    """
    obj = object.__new__(cls)
    obj._set_up(*args)
    return obj


def _integer(v) -> int | None:
    """`v` as a plain int where it is an integer (`operator.index` takes it) and not a bool, else None.

    numpy's bool is refused by type: numpy before 2.x still lets
    `operator.index` take it, as 0 or 1, with only a DeprecationWarning.
    A plain int, the common case, is returned before those checks.
    """
    if type(v) is int:
        return v
    if isinstance(v, (bool, np.bool_)):
        return None
    try:
        return operator.index(v)
    except TypeError:
        return None


def _real(v) -> int | float | None:
    """`v` as `_integer` takes it (2000 stays 2000), else a plain float where it is a finite real and not a bool, else None.

    A NaN, an infinity and an integer beyond float64's range, which
    `float()` would refuse with OverflowError, are not finite. A plain
    float, the common case, is checked before the rest.
    """
    if type(v) is float:
        return v if math.isfinite(v) else None
    if (i := _integer(v)) is not None:
        return i if abs(i) <= sys.float_info.max else None  # int against float compares exactly
    if isinstance(v, (bool, np.bool_)) or not isinstance(v, numbers.Real):
        return None
    return r if math.isfinite(r := float(v)) else None


def _number(v, name: str, *, integer: bool = False, positive: bool = True) -> int | float:
    """`v` as the numeric field `name`: a plain int by `_integer`, or with `integer` False a plain number by `_real`.

    This is the one rule of every count, rate, tolerance and epsilon. A
    bool, Python's or numpy's, is not a number, so a JSON `true` is never
    1; a string, None, NaN, an infinity, an integer beyond float64's range
    and a value of the wrong sign raise `ValueError` naming the field. A
    numpy scalar is returned as a plain number, so a config echoes as JSON
    numbers, and an integer stays one (2000, not 2000.0).
    """
    n = _integer(v) if integer else _real(v)
    if n is None or not (n > 0 if positive else n >= 0):
        raise ValueError(f"{name} must be a {'positive' if positive else 'non-negative'} "
                         f"{'integer' if integer else 'finite scalar'}, got {v!r}")
    return n


def ordered_sum(a: np.ndarray):
    """Sum each row of `a` along its last axis with strict left-to-right accumulation order.

    `np.add.accumulate` applies the operation sequentially, unlike
    `np.sum`, which reassociates (pairwise summation). It starts from the
    first element, so the last prefix sum is bit-equal to
    `acc = a[0]; for v in a[1:]: acc += v` along the row. That is the
    loop from `acc = 0.0` except where every term is -0.0: there the sum
    is -0.0, where the loop from +0.0, like `matmul`, gives +0.0.

    The last prefix is taken with a basic index, not `np.take`: a view of
    the prefix array, which is as large as `a`, or a scalar for one row.
    """
    prefix = np.add.accumulate(np.asarray(a, dtype=np.float64), axis=-1)
    return prefix[..., -1] if prefix.ndim > 1 else prefix[-1]


def matmul(a, b) -> np.ndarray:
    """Operator product A @ B, each output element summed in index order from +0.0: the naive triple loop's bits.

    `a` is one row (1-D) or a stack of rows (2-D) times a matrix `b`, or a
    batch of stacks (h, m, k) times a batch of matrices (h, k, n), giving
    (h, m, n), each slice multiplied on its own. One row runs as a one-row
    stack, and its result is that stack's row 0.

    The kernel is picked once, at import: `_summing_einsum` where the probe
    `_sums_in_order` finds it bit-equal to the triple loop on this numpy
    (`_EINSUM_IN_ORDER`), else `_chunked_matmul`, exact on any build.
    Neither kernel's order is a documented numpy promise, so the bitwise
    tests against the triple loop, run on both kernels, are the guarantee.

    Shape checks run first, then the output is scanned once, by the
    module's finiteness rule. Only a non-finite output runs `as_rows(a)`
    and then `as_matrix(b)`, or `as_rows(b)` for a batch, which raise for
    a non-finite operand; where finite products overflowed the output is
    returned. Operands both misshapen and non-finite raise what those
    checks raise, in that order.
    """
    try:
        a = _rows(a)
        b = _rows(b, max(a.ndim, 2))  # a batch of matrices for a stack per head
        shapes_agree = a.shape[-1] == b.shape[-2] and a.shape[:-2] == b.shape[:-2]
    except (TypeError, ValueError):
        shapes_agree = False
    if not shapes_agree:
        _check_operands(a, b)  # raises the first error in the validators' order
        raise ValueError(f"matmul dimension mismatch: {np.shape(a)} times {np.shape(b)}")
    rows = a[np.newaxis] if a.ndim == 1 else a
    if _EINSUM_IN_ORDER:
        out = _summing_einsum(rows, b)
    else:
        with np.errstate(all="ignore"):
            out = _chunked_matmul(rows, b)
    if not np.isfinite(out).all():
        _check_operands(a, b)
    return out[0] if a.ndim == 1 else out


def _check_operands(a, b) -> None:
    """`matmul`'s full operand checks, in order: `as_rows(a)`, then `as_matrix(b)`, or `as_rows(b)` for a batch."""
    a = as_rows(a)
    (as_rows if a.ndim == 3 else as_matrix)(b)


def _summing_einsum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b as one summing `einsum`, in index order unless this numpy's loop fuses the multiply and the add.

    `a` and `b` are both 2-D, a pair multiplied as `einsum("km,kn->mn")`,
    or both 3-D, a batch multiplied as `einsum("hmk,hkn->hmn")`, and the
    result has their rank. `b` is C order, and `einsum` starts the output
    at +0.0. With n >= 2 only `b` and the output have a stride along n, in
    `b` its smallest, so whatever the layout of `a` numpy's iterator runs
    the inner loop `out[j] += a * b[j]` over n, with k ascending outside
    it, each slice of a batch on its own operands: the triple loop's IEEE
    operations, unless the loop fuses them (NEON builds do). A pair's `a`
    is copied to C order as its transpose (k, m), so the axes run
    (k, m, n): each row of `b` is read once for all m rows while the m x n
    output stays in cache. A batch, attention's small per-head products,
    takes `a` as given. A transposed view or Fortran-order `b` makes k the
    inner loop, whose sum is reassociated, and so can n == 1, so `b` is
    copied to C order where it is not in it, and a one-column `b` is
    padded with a zero column, whose results are dropped. No BLAS call is
    made (`optimize=False`).
    """
    n = b.shape[-1]
    if n == 1:
        b = np.concatenate([b, np.zeros_like(b)], axis=-1)
    elif not b.flags.c_contiguous:
        b = b.copy()
    if a.ndim == 2:
        out = np.einsum("km,kn->mn", a.T.copy(), b, optimize=False)
    else:
        out = np.einsum("hmk,hkn->hmn", a, b, optimize=False)
    return out[..., :1].copy() if n == 1 else out


def _chunked_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, adding chunks of formed products in index order; exact on any build.

    `a` and `b` are both 2-D or both 3-D, and the result has their rank;
    the slices of a batch run one after the other through one buffer.

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
      used only along the fast axis, a note on precision, not an order.
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
    (m, k), n = a.shape[-2:], b.shape[-1]
    slots = _CHUNK_ELEMENTS // (m * n)  # m x n slices the budget holds
    reduce = m * n > 1 and slots > _REDUCE_MIN_PRODUCTS
    first = 1 if reduce else 0  # slot 0 carries the running sum into the reduce
    c = max(1, min(k, slots - first))
    out = np.zeros(a.shape[:-1] + (n,))
    buf = np.empty((first + c, m, n))
    for rows, mat, acc in zip(a, b, out) if a.ndim == 3 else ((a, b, out),):
        for start in range(0, k, c):
            stop = min(start + c, k)
            chunk = buf[first : first + stop - start]
            np.einsum("km,kn->kmn", rows.T[start:stop], mat[start:stop], out=chunk)
            if reduce:
                buf[0] = acc
                np.add.reduce(buf[: 1 + stop - start], axis=0, out=acc)
            else:
                for product in chunk:
                    np.add(acc, product, out=acc)
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


def _triple_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The reference order, in Python floats: acc = 0.0, then acc += a * b per index; per slice of a batch."""
    if a.ndim == 3:
        return np.stack([_triple_loop(x, y) for x, y in zip(a, b)])
    out = np.zeros((a.shape[0], b.shape[1]))
    columns = b.T.tolist()
    for i, row in enumerate(a.tolist()):
        for j, column in enumerate(columns):
            acc = 0.0
            for x, y in zip(row, column):
                acc += x * y
            out[i, j] = acc
    return out


def _sums_in_order(kernel) -> bool:
    """Whether `kernel(a, b)` is bit-equal to the triple loop on the trap operands.

    It is run on the full traps, on their first column alone (n == 1), on
    each trap row alone against every column (m == 1, a row vector times
    a matrix), on one trap element (m*n == 1), and on a batch of two
    slices: the traps, then their rows reversed times `b` doubled (each
    product doubles exactly, so the traps still hold), in C order and as a
    view whose rows hold both slices, as attention's queries do. The slices
    differ in both operands, so a kernel that mixes or reorders slices
    fails. The one-column `b` is a column view, as `matmul` may be given.
    """
    a, b = _probe_operands()
    batch_b = np.stack([b, 2.0 * b])
    cases = ((a, b), (a, b[:, :1]), *((a[i : i + 1], b) for i in range(len(a))), (a[1:2], b[:, -1:]),
             (np.stack([a, a[::-1]]), batch_b), (np.stack([a, a[::-1]], axis=1).transpose(1, 0, 2), batch_b))
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
