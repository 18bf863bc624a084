"""Kernel tests: oracles are naive scalar loops written independently."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from normfusion import tensor
from normfusion.tensor import (
    _CHUNK_ELEMENTS,
    _REDUCE_MIN_PRODUCTS,
    _probe_operands,
    _sums_in_order,
    _summing_einsum,
    as_matrix,
    as_row_vector,
    matmul,
    max_rel_error,
    ordered_sum,
)


def matmul_oracle(a, b):
    """Naive triple loop, left-to-right over the inner dimension.

    It runs on Python floats, whose `*` and `+` are each one rounded IEEE
    float64 operation, so that shapes of millions of products stay quick.
    """
    rows, columns = a.tolist(), b.T.tolist()
    out = np.zeros((len(rows), len(columns)))
    for i, row in enumerate(rows):
        for j, column in enumerate(columns):
            acc = 0.0
            for x, y in zip(row, column):
                acc += x * y
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity_times_matrix_is_exact(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal((3, 3))
        assert_array_equal(matmul(np.eye(3), b), b)
        assert_array_equal(matmul(b, np.eye(3)), b)

    def test_scalar_case(self):
        assert_array_equal(matmul([[2.0]], [[3.0]]), [[6.0]])

    def test_matches_triple_loop_oracle_bitwise(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((7, 5))
        b = rng.standard_normal((5, 4))
        assert_array_equal(matmul(a, b), matmul_oracle(a, b))

    @pytest.mark.parametrize("seed", range(5))
    def test_oracle_agreement_more_shapes(self, seed):
        rng = np.random.default_rng(seed)
        rows, inner, cols = rng.integers(1, 9, size=3)
        a = rng.standard_normal((rows, inner))
        b = rng.standard_normal((inner, cols))
        assert_array_equal(matmul(a, b), matmul_oracle(a, b))

    def test_associativity_within_tolerance(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 4))
        b = rng.standard_normal((4, 6))
        c = rng.standard_normal((6, 3))
        left = matmul(matmul(a, b), c)
        right = matmul(a, matmul(b, c))
        assert max_rel_error(left, right) <= 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            matmul(np.ones((2, 3)), np.ones((2, 3)))

    def test_non_finite_rejected(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            matmul(bad, np.eye(2))


def assert_bits_equal(actual, expected):
    """Equal bit patterns, so -0.0 and +0.0 differ."""
    assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


def chunk_rows(m, n):
    """Inner indices per product chunk of `matmul` at an m x n output.

    Where `matmul` adds a chunk with one reduce, one buffer slot holds the
    running sum, so the chunk has one index fewer than the buffer's slots.
    """
    slots = _CHUNK_ELEMENTS // (m * n)
    return slots - 1 if m * n > 1 and slots > _REDUCE_MIN_PRODUCTS else max(1, slots)


def adversarial_operands(rng, m, k, n):
    """Rows of magnitude 1e-200 to 1e150 and about 10% signed zeros.

    Products range from 1e300 down to subnormals (1e-310) and past the
    smallest subnormal, where they underflow to a signed zero; no product
    or sum overflows.
    """
    a = rng.standard_normal((m, k)) * 10.0 ** rng.choice([-150, 0, 150], size=(m, 1))
    b = rng.standard_normal((k, n)) * 10.0 ** rng.choice([-200, -160, 0, 150], size=(k, 1))
    for x in (a, b):
        zero = rng.random(x.shape) < 0.1
        x[zero] = np.copysign(0.0, rng.standard_normal(np.count_nonzero(zero)))
    return a, b


class TestChunkedMatmul:
    """Inner dimensions spanning several product chunks of `_chunked_matmul`.

    These run on the kernel the probe picked, and in `TestChunkedFallback`
    on the chunked kernel, so both stay covered on any host.
    """

    # several chunks with the last one partial, and (200, 3, 200): an output
    # above the budget, one inner index per chunk. (8, 20, 455) is the widest
    # output added by one reduce per chunk, (8, 20, 456) the narrowest added
    # per index; (128, 5, 128) fills the buffer with two slices per chunk.
    @pytest.mark.parametrize(
        "shape",
        [(2, 300, 200), (3, 97, 129), (8, 513, 9), (200, 3, 200), (8, 20, 455), (8, 20, 456), (128, 5, 128)],
    )
    def test_matches_oracle_bitwise(self, shape):
        m, k, n = shape
        c = chunk_rows(m, n)
        assert k > c and (k % c != 0 or m * n > _CHUNK_ELEMENTS)
        a, b = adversarial_operands(np.random.default_rng(k), m, k, n)
        assert_bits_equal(matmul(a, b), matmul_oracle(a, b))

    def test_products_underflow_and_go_subnormal(self):
        a = np.array([[1e-150, -1e-150, 1e-160]])
        b = np.array([[1e-160], [1e-200], [-1e-150]])
        products = a[0] * b[:, 0]
        assert products[0] != 0.0 and abs(products[0]) < np.finfo(np.float64).tiny  # subnormal
        assert products[1] == 0.0 and np.signbit(products[1])  # underflow to -0.0
        assert_bits_equal(matmul(a, b), matmul_oracle(a, b))

    def test_negative_zero_products_sum_to_positive_zero(self):
        # 0.0 + (-0.0) + (-0.0) is +0.0, as in the left-to-right loop
        assert_bits_equal(matmul([[-0.0, 0.0]], [[1.0], [-1.0]]), np.zeros((1, 1)))

    # (128, 5, 128) fills the buffer with two slices; (129, 5, 128) holds one
    @pytest.mark.parametrize(
        "shape", [(8, 513, 128), (2, 300, 200), (200, 3, 200), (128, 5, 128), (129, 5, 128), (8, 20, 455)]
    )
    def test_peak_memory_is_output_plus_one_chunk(self, shape):
        m, k, n = shape
        rng = np.random.default_rng(12)
        a, b = rng.standard_normal((m, k)), rng.standard_normal((k, n))
        tracemalloc.start()
        try:
            matmul(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = m * n * 8
        chunk = max(_CHUNK_ELEMENTS, m * n) * 8
        assert peak <= output + chunk + 4096

    # the larger k spans several chunks at one column and at two
    @pytest.mark.parametrize("k", [100, 2 * _CHUNK_ELEMENTS + 5])
    def test_sums_in_index_order_where_pairwise_would_not(self, k):
        # 1 + 2**-53 rounds back to 1 at every step of the left-to-right sum;
        # a pairwise sum adds the small terms together first and ends above 1
        column = np.full((k, 1), 2.0**-53)
        column[0] = 1.0
        for a in (np.ones(k), np.ones((1, k))):
            assert_bits_equal(matmul(a, column), np.ones(a.shape[:-1] + (1,)))
            # two columns: an output `matmul` adds with one reduce per chunk
            assert_bits_equal(matmul(a, np.hstack([column, column])), np.ones(a.shape[:-1] + (2,)))


@pytest.mark.usefixtures("chunked_kernel")
class TestChunkedFallback(TestChunkedMatmul):
    """`TestChunkedMatmul` on the chunked kernel, as on a host whose einsum fails the probe."""


def fused_multiply_add_loop(a, b):
    """The triple loop with each multiply-add fused into one rounding, via exact fractions."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for i, j in np.ndindex(out.shape):
        acc = 0.0
        for x, y in zip(a[i], b[:, j]):
            acc = float(Fraction(x) * Fraction(y) + Fraction(acc))
        out[i, j] = acc
    return out


def pairwise_sum(a, b):
    """Each output element is `np.sum` of its products: pairwise along the fast axis."""
    products = np.ascontiguousarray(a[:, np.newaxis, :] * b.T[np.newaxis, :, :])
    return np.sum(products, axis=-1)


def sum_from_first_product(a, b):
    """In index order, but started from the first product rather than +0.0."""
    products = np.ascontiguousarray(a[:, np.newaxis, :] * b.T[np.newaxis, :, :])
    return np.add.accumulate(products, axis=-1)[..., -1]


class TestEinsumProbe:
    """`_sums_in_order` accepts the triple loop and rejects kernels that round differently."""

    def test_accepts_triple_loop(self):
        assert _sums_in_order(matmul_oracle)

    def test_agrees_with_this_numpys_einsum(self):
        assert tensor._EINSUM_IN_ORDER == _sums_in_order(_summing_einsum)

    # each stand-in misses on its own trap row, in every column: the SIMD
    # bulk (column 0) and the tail (the last of 35) alike
    @pytest.mark.parametrize(
        "kernel, trap_row",
        [(fused_multiply_add_loop, 0), (pairwise_sum, 1), (sum_from_first_product, 2)],
        ids=["fused-multiply-add", "pairwise", "from-first-product"],
    )
    def test_rejects(self, kernel, trap_row):
        assert not _sums_in_order(kernel)
        a, b = _probe_operands()
        missed = kernel(a, b).view(np.uint64) != matmul_oracle(a, b).view(np.uint64)
        assert missed[trap_row].all() and np.count_nonzero(missed) == b.shape[1]

    def test_einsum_adds_no_buffer(self):
        rng = np.random.default_rng(13)
        a, b = rng.standard_normal((8, 513)), rng.standard_normal((513, 128))
        tracemalloc.start()
        try:
            _summing_einsum(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 128 * 8 + 4096


def reversed_copy(x):
    """`x` as a view with negative strides along both axes, holding the same values."""
    return np.ascontiguousarray(x[::-1, ::-1])[::-1, ::-1]


# operands as other than C-contiguous arrays; `k_h.T` in the attention
# scores is a transposed view like "transposed-b"
LAYOUTS = {
    "transposed-b": lambda a, b: (a, np.ascontiguousarray(b.T).T),
    "fortran-a": lambda a, b: (np.asfortranarray(a), b),
    "fortran-b": lambda a, b: (a, np.asfortranarray(b)),
    "negative-stride-a": lambda a, b: (reversed_copy(a), b),
    "negative-stride-b": lambda a, b: (a, reversed_copy(b)),
    "negative-stride-both": lambda a, b: (reversed_copy(a), reversed_copy(b)),
}


class TestMatmulLayouts:
    """Operand layouts and edge shapes, bit-equal to the triple loop.

    numpy's summing einsum runs the inner dimension in index order for
    C-contiguous operands and n >= 2. The transposed and Fortran-order `b`
    cases, and n == 1, fail if `_summing_einsum` passes them to numpy
    unchanged; the negative-stride cases pass even then on numpy 2.4, and
    stay as coverage.
    """

    @pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
    def test_layout(self, layout):
        a, b = adversarial_operands(np.random.default_rng(14), 8, 100, 9)
        x, y = layout(a, b)
        assert not (x.flags.c_contiguous and y.flags.c_contiguous)
        assert_bits_equal(matmul(x, y), matmul_oracle(a, b))

    # the products are exact, so only the order of the sum shows, and the
    # einsum kernel must keep it whatever the probe found on this build
    @pytest.mark.parametrize(
        "layout, n",
        [(layout, 4) for layout in LAYOUTS.values()] + [(lambda a, b: (a, b), 1)],
        ids=[*LAYOUTS.keys(), "one-column"],
    )
    def test_einsum_kernel_sums_in_index_order(self, layout, n):
        b = np.full((100, n), 2.0**-53)
        b[0] = 1.0
        for m in (1, 3):
            assert_bits_equal(_summing_einsum(*layout(np.ones((m, 100)), b)), np.ones((m, n)))

    # n == 1, m*n == 1, k == 1, a wide row, and a long narrow inner dimension
    @pytest.mark.parametrize("shape", [(8, 100, 1), (1, 100, 1), (8, 1, 9), (1, 3000, 3072), (9, 2**16 + 5, 2)])
    def test_edge_shape(self, shape):
        m, k, n = shape
        a, b = adversarial_operands(np.random.default_rng(k), m, k, n)
        expected = matmul_oracle(a, b)
        assert_bits_equal(matmul(a, b), expected)
        if m == 1:
            assert_bits_equal(matmul(a[0], b), expected[0])


class TestOneRowMatmul:
    """A 1-D `a` is one row, and gives a 1-D result: row 0 of its one-row stack's."""

    # (513, 128) and (300, 200) span several product chunks
    @pytest.mark.parametrize("shape", [(1, 1), (5, 3), (513, 128), (300, 200)])
    def test_row_is_bit_equal_to_one_row_stack(self, shape):
        k, n = shape
        a, b = adversarial_operands(np.random.default_rng(k), 1, k, n)
        out = matmul(a[0], b)
        assert out.shape == (n,)
        assert_bits_equal(out, matmul(a, b)[0])
        assert_bits_equal(out, matmul_oracle(a, b)[0])

    def test_negative_zero_products_sum_to_positive_zero(self):
        assert_bits_equal(matmul([-0.0, 0.0], [[1.0], [-1.0]]), np.zeros(1))

    @pytest.mark.parametrize("a", [np.float64(2.0), np.ones((1, 2, 2))], ids=["0-D", "3-D"])
    def test_a_neither_row_nor_stack_rejected(self, a):
        with pytest.raises(ValueError, match=r"expected one row \(1-D\) or a stack of rows \(2-D\), got shape"):
            matmul(a, np.ones((2, 2)))

    def test_1d_b_rejected(self):
        with pytest.raises(ValueError, match="expected a 2-D matrix"):
            matmul(np.ones(2), np.ones(2))

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            matmul(np.ones(3), np.ones((2, 2)))


NON_FINITE = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}
ROWS_MESSAGE = "^matrix contains non-finite elements$"
ROW_MESSAGE = "^row vector contains non-finite elements$"


def with_bad(x, index, value):
    x = x.copy()
    x[index] = value
    return x


@pytest.mark.usefixtures("strict_fp")
class TestNonFiniteOperands:
    """`matmul` rejects a NaN or infinite operand and lets overflowed finite products through.

    These run on the kernel the probe picked, and in
    `TestNonFiniteOperandsChunked` on the chunked kernel.
    """

    @pytest.mark.parametrize("value", NON_FINITE.values(), ids=NON_FINITE.keys())
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("operand", ["a", "b"])
    def test_rejected(self, operand, where, value):
        rng = np.random.default_rng(20)
        a, b = rng.standard_normal((5, 7)), rng.standard_normal((7, 6))
        x = a if operand == "a" else b
        index = {"first": (0, 0), "middle": (x.shape[0] // 2, x.shape[1] // 2), "last": (-1, -1)}[where]
        if operand == "a":
            a = with_bad(a, index, value)
        else:
            b = with_bad(b, index, value)
        with pytest.raises(ValueError, match=ROWS_MESSAGE):
            matmul(a, b)

    # every product of the bad value is non-finite * 0; all the others are 0
    @pytest.mark.parametrize("value", NON_FINITE.values(), ids=NON_FINITE.keys())
    @pytest.mark.parametrize("shape", [(5, 7, 6), (5, 7, 1), (1, 7, 1)], ids=["stack", "n=1", "mn=1"])
    def test_rejected_beside_zero_partners(self, shape, value):
        m, k, n = shape
        zeros_a, zeros_b = np.zeros((m, k)), np.zeros((k, n))
        for index in [(0, 0), (m // 2, k // 2), (m - 1, k - 1)]:
            with pytest.raises(ValueError, match=ROWS_MESSAGE):
                matmul(with_bad(zeros_a, index, value), zeros_b)
        for index in [(0, 0), (k // 2, n // 2), (k - 1, n - 1)]:
            with pytest.raises(ValueError, match=ROWS_MESSAGE):
                matmul(zeros_a, with_bad(zeros_b, index, value))

    @pytest.mark.parametrize("value", NON_FINITE.values(), ids=NON_FINITE.keys())
    @pytest.mark.parametrize("n", [1, 6])
    def test_row_rejected(self, n, value):
        row, b = np.zeros(7), np.zeros((7, n))
        for index in [0, 3, 6]:
            with pytest.raises(ValueError, match=ROW_MESSAGE):
                matmul(with_bad(row, index, value), b)
            with pytest.raises(ValueError, match=ROWS_MESSAGE):
                matmul(row, with_bad(b, (index, 0), value))

    def test_overflowing_products_return_infinities(self):
        a = np.array([[1e200, 1e200], [-1e200, 1.0]])
        b = np.array([[1e200, -1e200, 1.0], [1e200, -1e200, 0.0]])
        expected = np.array([[np.inf, -np.inf, 1e200], [-np.inf, np.inf, -1e200]])
        assert_bits_equal(matmul(a, b), expected)
        assert_bits_equal(matmul(a[0], b), expected[0])
        assert_bits_equal(matmul(a[:1], b[:, :1]), expected[:1, :1])

    def test_products_overflowing_both_ways_return_nan(self):
        # inf + -inf: NaN from finite operands, returned by both kernels alike
        a, b = np.array([[1e200, 1e200], [1.0, 1.0]]), np.array([[1e200, 1.0], [-1e200, 2.0]])
        out = matmul(a, b)
        assert np.isnan(out[0, 0]) and np.isfinite(out.flat[1:]).all()

    def test_non_finite_named_before_a_shape_error(self):
        bad_a, bad_b = np.array([[np.nan, 1.0, 1.0]]), np.array([[1.0, np.inf], [1.0, 1.0]])
        with pytest.raises(ValueError, match=ROWS_MESSAGE):
            matmul(bad_a, np.ones((2, 2)))  # mismatched
        with pytest.raises(ValueError, match=ROWS_MESSAGE):
            matmul(np.ones((1, 3)), bad_b)  # mismatched
        with pytest.raises(ValueError, match=ROW_MESSAGE):
            matmul(bad_a[0], np.ones(3))  # b not 2-D
        with pytest.raises(ValueError, match=ROWS_MESSAGE):
            matmul(bad_a, np.ones((3, 0)))  # b empty
        with pytest.raises(ValueError, match=ROWS_MESSAGE):
            matmul(bad_a, {})  # b not numeric
        with pytest.raises(ValueError, match=r"^expected a 2-D matrix, got shape \(3,\)$"):
            matmul(np.ones((1, 3)), np.full(3, np.nan))  # b's own shape comes before its values


@pytest.mark.usefixtures("chunked_kernel")
class TestNonFiniteOperandsChunked(TestNonFiniteOperands):
    """`TestNonFiniteOperands` on the chunked kernel."""


def assert_only_the_output_is_scanned(monkeypatch):
    """`matmul` on finite operands gives the triple loop's bits without an operand scan."""
    def scanned(x):
        raise AssertionError("an operand was scanned")

    for name in ("as_rows", "as_matrix", "as_row_vector"):
        monkeypatch.setattr(tensor, name, scanned)
    rng = np.random.default_rng(21)
    a, b = rng.standard_normal((8, 128)), rng.standard_normal((128, 64))
    assert_bits_equal(matmul(a, b), matmul_oracle(a, b))
    assert_bits_equal(matmul(a[0], b[:, :1]), matmul_oracle(a[:1], b[:, :1])[0])


@pytest.mark.usefixtures("chunked_kernel")
def test_chunked_kernel_scans_only_the_output(monkeypatch):
    assert_only_the_output_is_scanned(monkeypatch)


def test_einsum_kernel_scans_only_the_output(monkeypatch):
    monkeypatch.setattr(tensor, "_EINSUM_IN_ORDER", True)
    assert_only_the_output_is_scanned(monkeypatch)


class TestDiag:
    """matmul against a diagonal operand scales exactly, as the folds rely on."""

    def test_column_scaling(self):
        assert_array_equal(matmul(np.diag([2.0, 3.0]), [[1.0], [1.0]]), [[2.0], [3.0]])

    def test_right_multiply_equals_hadamard_exactly(self):
        rng = np.random.default_rng(6)
        x, g = rng.standard_normal(9), rng.standard_normal(9)
        via_diag = matmul(x[np.newaxis, :], np.diag(g))[0]
        assert_array_equal(via_diag, x * g)


class TestOrderedSum:
    def test_bit_equal_to_left_to_right_loop(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(1537)
        acc = 0.0
        for v in x:
            acc += v
        assert ordered_sum(x) == acc

    def test_columnwise_bit_equal_to_row_loop(self):
        rng = np.random.default_rng(10)
        g = rng.standard_normal((41, 7))
        acc = np.zeros(7)
        for i in range(41):
            acc = acc + g[i]
        assert_array_equal(ordered_sum(g, axis=0), acc)


class TestValidation:
    def test_row_vector_rejects_matrix(self):
        with pytest.raises(ValueError, match="1-D"):
            as_row_vector(np.ones((2, 2)))

    def test_row_vector_rejects_empty(self):
        with pytest.raises(ValueError, match="length"):
            as_row_vector([])

    def test_matrix_rejects_vector(self):
        with pytest.raises(ValueError, match="2-D"):
            as_matrix(np.ones(3))

    def test_matrix_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix([[np.inf, 1.0]])


class TestMaxRelError:
    def test_zero_for_equal(self):
        assert max_rel_error([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_scale_normalized(self):
        assert max_rel_error([1000.0, 0.0], [1000.0, 1e-3]) == pytest.approx(1e-6)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            max_rel_error([1.0], [1.0, 2.0])
