"""Normalization tests.

Oracles: exact summation via math.fsum for moments, an explicit
matrix-form construction (centering matrix times diagonal scale, built
from the tensor primitives) for layernorm, and 50-digit mpmath arithmetic
for softmax.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from normfusion.norms import (
    LayerNormParams,
    RmsNormParams,
    layernorm,
    moments,
    rmsnorm,
    softmax_numerators,
    softmax_stable,
)
from normfusion.tensor import matmul, max_rel_error

finite_vectors = st.lists(
    st.floats(min_value=-1e306, max_value=1e306, allow_nan=False), min_size=1, max_size=48
)


# finite rows whose variance (or mean) and mean square overflow float64
OVERFLOWING_ROWS = [[1e200, -1e200, 1e200, -1e200], [1.7e308, 1.7e308, 0.0, 1.0]]


def moments_oracle(x):
    """Independent two-pass mean/variance with exact (fsum) accumulation."""
    n = len(x)
    mean = math.fsum(x) / n
    var = math.fsum((v - mean) ** 2 for v in x) / n
    return mean, var


def layernorm_matrix_form_oracle(x, p):
    """(x / sqrt(var+eps)) @ (I - E/n) @ diag(gamma) + beta, via tensor ops."""
    n = x.size
    _, var = moments_oracle(x)
    centering = np.eye(n) - np.full((n, n), 1.0 / n)
    row = (x / math.sqrt(var + p.epsilon))[np.newaxis, :]
    return matmul(matmul(row, centering), np.diag(p.gamma))[0] + p.beta


def softmax_mpmath_oracle(x):
    with mpmath.workdps(50):
        exps = [mpmath.exp(mpmath.mpf(float(v))) for v in x]
        total = mpmath.fsum(exps)
        return np.array([float(e / total) for e in exps])


class TestMoments:
    def test_constant_vector(self):
        st_ = moments([1.0, 1.0, 1.0, 1.0])
        assert st_.mean == 1.0 and st_.variance == 0.0

    def test_plus_minus_one(self):
        st_ = moments([1.0, -1.0])
        assert st_.mean == 0.0 and st_.variance == 1.0

    def test_against_two_pass_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(64) * 3.0 + 0.5
        st_ = moments(x)
        mean, var = moments_oracle(x)
        assert abs(st_.mean - mean) <= 1e-13 * max(1.0, abs(mean))
        assert abs(st_.variance - var) <= 1e-13 * max(1.0, var)


class TestLayernorm:
    def test_unit_variance_passthrough(self):
        p = LayerNormParams(gamma=[1.0, 1.0], beta=[0.0, 0.0], epsilon=1e-12)
        assert_allclose(layernorm([1.0, -1.0], p), [1.0, -1.0], rtol=1e-10)

    def test_constant_input_returns_beta(self):
        rng = np.random.default_rng(12)
        p = LayerNormParams(
            gamma=rng.standard_normal(8), beta=rng.standard_normal(8), epsilon=1e-5
        )
        assert_allclose(layernorm(np.full(8, 3.7), p), p.beta, atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_against_matrix_form_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 64))
        x = rng.standard_normal(n) * rng.uniform(0.1, 5.0)
        p = LayerNormParams(
            gamma=rng.uniform(0.5, 1.5, n), beta=rng.standard_normal(n), epsilon=1e-5
        )
        assert max_rel_error(layernorm(x, p), layernorm_matrix_form_oracle(x, p)) <= 1e-12

    def test_standardizes_output(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(128)
        p = LayerNormParams(gamma=np.ones(128), beta=np.zeros(128), epsilon=1e-12)
        y = layernorm(x, p)
        assert abs(np.mean(y)) <= 1e-10
        assert abs(np.var(y) - 1.0) <= 1e-6

    def test_length_mismatch_rejected(self):
        p = LayerNormParams(gamma=[1.0, 1.0], beta=[0.0, 0.0], epsilon=1e-5)
        with pytest.raises(ValueError, match="length"):
            layernorm([1.0, 2.0, 3.0], p)

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            LayerNormParams(gamma=[1.0], beta=[0.0], epsilon=0.0)

    @pytest.mark.parametrize("row", [[1e200, -1e200, 1e200, -1e200], [1.7e308, 1.7e308, 0.0, 1.0]])
    def test_overflowing_row_names_the_norm(self, row):
        # the variance (or the mean) of a finite row overflows: an error, not beta
        p = LayerNormParams(gamma=np.ones(4), beta=np.full(4, 0.5), epsilon=1e-5)
        stack = np.array([[1.0, 2.0, 3.0, 4.0], row])
        with np.errstate(over="ignore", invalid="ignore"):
            for x in (row, stack):
                with pytest.raises(ValueError, match="layernorm: .*non-finite"):
                    layernorm(x, p)

    @pytest.mark.parametrize("row", OVERFLOWING_ROWS)
    def test_overflowing_row_names_the_norm_under_strict_errors(self, strict_fp, row):
        p = LayerNormParams(gamma=np.ones(4), beta=np.full(4, 0.5), epsilon=1e-5)
        for x in (row, np.array([[1.0, 2.0, 3.0, 4.0], row])):
            with pytest.raises(ValueError, match="layernorm: .*non-finite"):
                layernorm(x, p)


class TestRmsnorm:
    def test_unit_rms_passthrough(self):
        p = RmsNormParams(gamma=[1.0, 1.0, 1.0, 1.0])
        assert_array_equal(rmsnorm([1.0, 1.0, 1.0, 1.0], p), [1.0, 1.0, 1.0, 1.0])

    def test_scaling(self):
        p = RmsNormParams(gamma=[1.0, 2.0])
        assert_allclose(rmsnorm([3.0, -3.0], p), [1.0, -2.0], rtol=1e-15)

    def test_against_scalar_loop(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal(19)
        g = rng.uniform(0.5, 1.5, 19)
        p = RmsNormParams(gamma=g, epsilon=1e-6)
        rms = math.sqrt(math.fsum(v * v for v in x) / 19 + 1e-6)
        expected = np.array([x[i] / rms * g[i] for i in range(19)])
        assert max_rel_error(rmsnorm(x, p), expected) <= 1e-13

    def test_zero_vector_without_epsilon_rejected(self):
        p = RmsNormParams(gamma=[1.0, 1.0])
        with pytest.raises(ValueError, match="zero"):
            rmsnorm([0.0, 0.0], p)

    def test_zero_vector_with_epsilon_ok(self):
        p = RmsNormParams(gamma=[1.0, 1.0], epsilon=1e-6)
        assert_array_equal(rmsnorm([0.0, 0.0], p), [0.0, 0.0])

    @pytest.mark.parametrize("row", [[1e200, -1e200, 1e200, -1e200], [1.7e308, 1.7e308, 0.0, 1.0]])
    def test_overflowing_row_names_the_norm(self, row):
        # the mean square of a finite row overflows: an error, not zeros
        p = RmsNormParams(gamma=np.ones(4), epsilon=1e-6)
        stack = np.array([[1.0, 2.0, 3.0, 4.0], row])
        with np.errstate(over="ignore"):
            for x in (row, stack):
                with pytest.raises(ValueError, match="rmsnorm: .*non-finite"):
                    rmsnorm(x, p)

    @pytest.mark.parametrize("row", OVERFLOWING_ROWS)
    def test_overflowing_row_names_the_norm_under_strict_errors(self, strict_fp, row):
        p = RmsNormParams(gamma=np.ones(4), epsilon=1e-6)
        for x in (row, np.array([[1.0, 2.0, 3.0, 4.0], row])):
            with pytest.raises(ValueError, match="rmsnorm: .*non-finite"):
                rmsnorm(x, p)


class TestSoftmax:
    def test_uniform(self):
        assert_array_equal(softmax_stable([0.0, 0.0, 0.0, 0.0]), np.full(4, 0.25))

    def test_huge_logits_do_not_overflow(self):
        y = softmax_stable([1000.0, 1000.0])
        assert_array_equal(y, [0.5, 0.5])

    @pytest.mark.parametrize("x", [[0.0, -1.0, -740.0, -745.0, -800.0], [[1.0, 2.0, -740.0], [0.0, -1.0, -1e3]],
                                   [1e308, -1e308]],
                             ids=["subnormal-and-zero", "stack", "shift-overflows"])
    def test_underflowing_numerators_are_exact_under_strict_errors(self, x):
        # a numerator far below the max rounds to a subnormal or 0, correctly: not an error
        expected = softmax_numerators(x), softmax_stable(x)
        with np.errstate(all="raise"):
            (num, den), y = softmax_numerators(x), softmax_stable(x)
        for actual, want in ((num, expected[0][0]), (den, expected[0][1]), (y, expected[1])):
            assert_array_equal(np.asarray(actual).view(np.uint64), np.asarray(want).view(np.uint64))

    def test_against_extended_precision_oracle(self):
        rng = np.random.default_rng(15)
        x = rng.uniform(-30, 30, 16)
        y = softmax_stable(x)
        ref = softmax_mpmath_oracle(x)
        assert np.max(np.abs(y - ref) / ref) <= 1e-12

    def test_matches_unshifted_form_when_safe(self):
        rng = np.random.default_rng(16)
        x = rng.uniform(-5, 5, 12)
        unshifted = np.exp(x) / np.sum(np.exp(x))
        assert np.max(np.abs(softmax_stable(x) - unshifted) / unshifted) <= 1e-12

    @given(finite_vectors)
    def test_sums_to_one(self, xs):
        assert abs(math.fsum(softmax_stable(np.array(xs))) - 1.0) <= 1e-12

    @given(
        st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=32),
        st.floats(min_value=-500, max_value=500, allow_nan=False),
    )
    def test_shift_invariance(self, xs, c):
        x = np.array(xs)
        assert np.max(np.abs(softmax_stable(x + c) - softmax_stable(x))) <= 1e-12


class TestSoftmaxNumerators:
    def test_uniform_pair(self):
        num, den = softmax_numerators([0.0, 0.0])
        assert_array_equal(num, [1.0, 1.0])
        assert den == 2.0

    def test_log_two_case(self):
        num, den = softmax_numerators([math.log(2.0), 0.0])
        assert_allclose(num, [1.0, 0.5], rtol=1e-15)
        assert den == pytest.approx(1.5, rel=1e-15)

    def test_exact_consistency_with_softmax(self):
        rng = np.random.default_rng(17)
        x = rng.uniform(-1e3, 1e3, 33)
        num, den = softmax_numerators(x)
        assert_array_equal(softmax_stable(x), num / den)


def _stack(case: str, rng) -> np.ndarray:
    rows, n = 6, 13
    if case == "dc-offset":
        return rng.standard_normal((rows, n)) + rng.choice([-1e4, 1e4], size=(rows, 1))
    if case == "near-constant":
        return rng.uniform(-2.0, 2.0, size=(rows, 1)) + 1e-7 * rng.standard_normal((rows, n))
    return rng.uniform(-1e3, 1e3, size=(rows, n))


@pytest.mark.parametrize("case", ["dc-offset", "near-constant", "large-logits"])
class TestStackOfRows:
    """A stack of rows gives, bit for bit, the stacked results of its rows."""

    def test_moments(self, case):
        x = _stack(case, np.random.default_rng(18))
        st_ = moments(x)
        per_row = [moments(row) for row in x]
        assert_array_equal(st_.mean, [s.mean for s in per_row])
        assert_array_equal(st_.variance, [s.variance for s in per_row])

    def test_layernorm(self, case):
        rng = np.random.default_rng(19)
        x = _stack(case, rng)
        p = LayerNormParams(gamma=rng.uniform(0.5, 1.5, 13), beta=rng.standard_normal(13), epsilon=1e-5)
        assert_array_equal(layernorm(x, p), np.stack([layernorm(row, p) for row in x]))

    def test_rmsnorm(self, case):
        rng = np.random.default_rng(20)
        x = _stack(case, rng)
        p = RmsNormParams(gamma=rng.uniform(0.5, 1.5, 13))
        assert_array_equal(rmsnorm(x, p), np.stack([rmsnorm(row, p) for row in x]))

    def test_softmax_stable(self, case):
        x = _stack(case, np.random.default_rng(21))
        assert_array_equal(softmax_stable(x), np.stack([softmax_stable(row) for row in x]))
