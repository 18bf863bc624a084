"""Kernel tests: oracles are naive scalar loops written independently."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from normfusion.tensor import (
    as_matrix,
    as_row_vector,
    matmul,
    max_rel_error,
    ordered_sum,
)


def matmul_oracle(a, b):
    """Naive triple loop, left-to-right over the inner dimension."""
    rows, inner, cols = a.shape[0], a.shape[1], b.shape[1]
    out = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            acc = 0.0
            for k in range(inner):
                acc += a[i, k] * b[k, j]
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
