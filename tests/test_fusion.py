"""Folding and fused-execution tests.

The fold oracle builds the centering and diagonal factors explicitly and
multiplies them out with the tensor primitives; the fused-execution oracle
is always the conventional normalize-then-multiply path.
"""

import math
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from normfusion import fusion, tensor
from normfusion.fusion import (
    FoldedLinear,
    LlamaMlpWeights,
    fold_layernorm_linear,
    fold_rmsnorm_linear,
    fused_layernorm_matmul,
    fused_rmsnorm_llama_mlp,
    fused_rmsnorm_matmul,
    fused_softmax_matmul,
    silu,
    swiglu,
)
from normfusion.norms import (
    LayerNormParams,
    RmsNormParams,
    layernorm,
    moments,
    rmsnorm,
    root_mean_square,
    softmax_numerators,
    softmax_stable,
)
from normfusion.tensor import matmul, max_rel_error


def fold_oracle(p: LayerNormParams, f: np.ndarray) -> np.ndarray:
    """(I - E/n) @ diag(gamma) @ F built from explicit matrices."""
    n = f.shape[0]
    centering = np.eye(n) - np.full((n, n), 1.0 / n)
    return matmul(matmul(centering, np.diag(p.gamma)), f)


def random_ln_instance(rng, n, m):
    x = rng.standard_normal(n) * rng.uniform(0.5, 2.0)
    p = LayerNormParams(
        gamma=rng.uniform(0.5, 1.5, n),
        beta=rng.standard_normal(n) * 0.1,
        epsilon=10.0 ** rng.uniform(-8, -4),
    )
    f = rng.standard_normal((n, m)) / math.sqrt(n)
    return x, p, f


class TestFoldLayernormLinear:
    def test_hand_case_identity_weight(self):
        p = LayerNormParams(gamma=[1.0, 1.0], beta=[0.0, 0.0], epsilon=1e-5)
        fl = fold_layernorm_linear(p, np.eye(2))
        assert_allclose(fl.folded_weight, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)
        assert_array_equal(fl.folded_bias, [0.0, 0.0])

    def test_zero_beta_gives_zero_bias(self):
        rng = np.random.default_rng(20)
        p = LayerNormParams(gamma=rng.uniform(0.5, 1.5, 6), beta=np.zeros(6), epsilon=1e-5)
        fl = fold_layernorm_linear(p, rng.standard_normal((6, 9)))
        assert_array_equal(fl.folded_bias, np.zeros(9))

    def test_against_explicit_matrix_oracle(self):
        rng = np.random.default_rng(21)
        p = LayerNormParams(
            gamma=rng.uniform(0.5, 1.5, 8), beta=rng.standard_normal(8), epsilon=1e-5
        )
        f = rng.standard_normal((8, 4))
        fl = fold_layernorm_linear(p, f)
        assert max_rel_error(fl.folded_weight, fold_oracle(p, f)) <= 1e-12
        assert max_rel_error(fl.folded_bias, matmul(p.beta, f)) == 0.0

    def test_row_sum_annihilation(self):
        rng = np.random.default_rng(22)
        for n, m in [(8, 8), (64, 32), (256, 64)]:
            p = LayerNormParams(
                gamma=rng.uniform(0.5, 1.5, n), beta=rng.standard_normal(n), epsilon=1e-5
            )
            fl = fold_layernorm_linear(p, rng.standard_normal((n, m)) / math.sqrt(n))
            ones_image = matmul(np.ones(n), fl.folded_weight)
            assert np.max(np.abs(ones_image)) <= 1e-10

    def test_identity_params_center_the_weight(self):
        # gamma=1, beta=0: folding reduces to column-centering of F
        rng = np.random.default_rng(19)
        f = rng.standard_normal((12, 5))
        fl = fold_layernorm_linear(
            LayerNormParams(gamma=np.ones(12), beta=np.zeros(12), epsilon=1e-5), f
        )
        centered = f - f.mean(axis=0)
        assert max_rel_error(fl.folded_weight, centered) <= 1e-13
        assert_array_equal(fl.folded_bias, np.zeros(5))

    def test_rebuild_is_bit_identical(self):
        rng = np.random.default_rng(23)
        p = LayerNormParams(gamma=rng.uniform(0.5, 1.5, 16), beta=rng.standard_normal(16), epsilon=1e-5)
        f = rng.standard_normal((16, 12))
        first = fold_layernorm_linear(p, f)
        for _ in range(3):
            fused_layernorm_matmul(rng.standard_normal(16), first)
        again = fold_layernorm_linear(p, f)
        assert_array_equal(first.folded_weight, again.folded_weight)
        assert_array_equal(first.folded_bias, again.folded_bias)

    def test_dimension_mismatch_rejected(self):
        p = LayerNormParams(gamma=[1.0, 1.0], beta=[0.0, 0.0], epsilon=1e-5)
        with pytest.raises(ValueError, match="rows"):
            fold_layernorm_linear(p, np.ones((3, 2)))


def small_beside_large(seed: int, offset: float) -> tuple[np.ndarray, np.ndarray]:
    """A (64, 8) projection of N(0,1)/8 plus a DC `offset`, and a (64, 8) neighbour of N(0,1)*1e6."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((64, 8)) / 8.0 + offset, rng.standard_normal((64, 8)) * 1e6


class TestFoldAnnihilationLimit:
    """Each column is checked against its own max, so a joined fold checks each projection as alone."""

    P = LayerNormParams(gamma=np.ones(64), beta=np.zeros(64), epsilon=1e-5)

    @pytest.mark.parametrize("seed", range(3))
    def test_small_projection_rejected_beside_a_larger_one(self, seed):
        # a DC offset of 1e6 leaves ones-row sums of a few times 1e-10 * n: past the small
        # projection's own limit, not past one scaled by its neighbour's max of about 3e6
        small, large = small_beside_large(seed, 1e6)
        for f in (small, np.hstack([small, large])):
            with pytest.raises(ValueError, match="^folded weight does not annihilate constant inputs$"):
                fold_layernorm_linear(self.P, f)

    @pytest.mark.parametrize("seed", range(3))
    def test_small_offset_folds_alone_and_joined_to_the_same_bits(self, seed):
        small, large = small_beside_large(seed, 1e4)
        joined = fold_layernorm_linear(self.P, np.hstack([small, large])).folded_weight
        alone = fold_layernorm_linear(self.P, small).folded_weight
        assert_array_equal(joined[:, :8].view(np.uint64), alone.view(np.uint64))


def fold_by_column_loop(p: LayerNormParams, f: np.ndarray) -> np.ndarray:
    """diag(gamma) @ F less its column sums / n, each sum a Python loop from +0.0 in row order."""
    scaled = p.gamma[:, np.newaxis] * f
    out = scaled.copy()
    for j, column in enumerate(scaled.T.tolist()):
        acc = 0.0
        for v in column:
            acc += v
        out[:, j] = scaled[:, j] - acc / f.shape[0]
    return out


class TestFoldColumnSums:
    """The layernorm fold's centering, bit for bit a column loop from +0.0.

    These run on the kernel the probe picked, and in `TestFoldColumnSumsChunked`
    on the chunked kernel.
    """

    @pytest.mark.parametrize("shape", [(1, 3), (7, 1), (19, 35), (128, 512)])
    def test_bit_equal_to_column_loop(self, shape):
        n, m = shape
        rng = np.random.default_rng(n * m)
        p = LayerNormParams(gamma=rng.uniform(0.5, 1.5, n), beta=rng.standard_normal(n), epsilon=1e-5)
        f = rng.standard_normal((n, m)) * 10.0 ** rng.integers(-3, 4, (n, 1))
        folded = fold_layernorm_linear(p, f).folded_weight
        assert_array_equal(folded.view(np.uint64), fold_by_column_loop(p, f).view(np.uint64))

    def test_all_negative_zero_column_folds_to_negative_zero(self):
        # the column's sum starts from +0.0, so it is +0.0 and -0.0 - 0.0 / n is -0.0
        rng = np.random.default_rng(30)
        p = LayerNormParams(gamma=rng.uniform(0.5, 1.5, 6), beta=rng.standard_normal(6), epsilon=1e-5)
        f = rng.standard_normal((6, 4))
        f[:, 2] = -0.0
        folded = fold_layernorm_linear(p, f).folded_weight
        assert_array_equal(folded.view(np.uint64), fold_by_column_loop(p, f).view(np.uint64))
        assert np.signbit(folded[:, 2]).all()

    def test_fold_makes_no_second_weight_sized_array(self):
        rng = np.random.default_rng(31)
        n, m = 256, 512
        p = LayerNormParams(gamma=rng.uniform(0.5, 1.5, n), beta=rng.standard_normal(n), epsilon=1e-5)
        f = rng.standard_normal((n, m))
        fold_layernorm_linear(p, f)
        tracemalloc.start()
        try:
            fold_layernorm_linear(p, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * f.nbytes


@pytest.mark.usefixtures("chunked_kernel")
class TestFoldColumnSumsChunked(TestFoldColumnSums):
    """`TestFoldColumnSums` on the chunked kernel."""


LN_FOLD_OVERFLOW = "^layernorm fold: the folded weight or bias is non-finite \\(float64 overflow\\)$"
RMS_FOLD_OVERFLOW = "^rmsnorm fold: the folded weight is non-finite \\(float64 overflow\\)$"

# name -> (gamma, beta, F), every value finite; n = len(gamma)
FOLD_OVERFLOWS = {
    # 4e308 overflows the column sums; RMSNorm folds it, as it sums no column
    "column sums": (np.ones(4), np.zeros(4), np.full((4, 2), 1e308)),
    # 1e310 overflows the scaled entries
    "scale": (np.full(4, 1e300), np.zeros(4), np.full((4, 2), 1e10)),
    # the sum is finite, -1.7e308, but 1.7e308 less the mean -5.7e307 is not
    "centred entry": (np.ones(3), np.zeros(3), np.array([[1.7e308], [-1.7e308], [-1.7e308]])),
    # beta @ F is 4e310
    "bias": (np.ones(4), np.full(4, 1e300), np.full((4, 2), 1e10)),
    # the fold is finite, +-1.275e308, but the annihilation check's ones-row sum overflows
    "ones-row sum": (np.ones(4), np.zeros(4), np.array([[0.85e308], [0.85e308], [-1.7e308], [-1.7e308]])),
}


@pytest.mark.parametrize("errors", ["default", "strict"])
@pytest.mark.parametrize("case", FOLD_OVERFLOWS)
class TestFoldOverflow:
    """A finite weight whose fold overflows float64 is named by the fold, in either error mode."""

    def test_layernorm_fold(self, request, case, errors):
        if errors == "strict":
            request.getfixturevalue("strict_fp")
        gamma, beta, f = FOLD_OVERFLOWS[case]
        with pytest.raises(ValueError, match=LN_FOLD_OVERFLOW):
            fold_layernorm_linear(LayerNormParams(gamma=gamma, beta=beta, epsilon=1e-5), f)

    def test_rmsnorm_fold(self, request, case, errors):
        if errors == "strict":
            request.getfixturevalue("strict_fp")
        gamma, _, f = FOLD_OVERFLOWS[case]
        p = RmsNormParams(gamma=gamma)
        if case == "scale":
            with pytest.raises(ValueError, match=RMS_FOLD_OVERFLOW):
                fold_rmsnorm_linear(p, f)
        else:
            assert_array_equal(fold_rmsnorm_linear(p, f).folded_weight, f)

    def test_non_finite_weight_named_first(self, request, case, errors):
        if errors == "strict":
            request.getfixturevalue("strict_fp")
        gamma, beta, f = FOLD_OVERFLOWS[case]
        f = f.copy()
        f[-1, -1] = np.nan
        with pytest.raises(ValueError, match="^matrix contains non-finite elements$"):
            fold_layernorm_linear(LayerNormParams(gamma=gamma, beta=beta, epsilon=1e-5), f)
        with pytest.raises(ValueError, match="^matrix contains non-finite elements$"):
            fold_rmsnorm_linear(RmsNormParams(gamma=gamma), f)


class TestFusedLayernormMatmul:
    def test_constant_input_maps_to_bias(self):
        rng = np.random.default_rng(24)
        p = LayerNormParams(
            gamma=rng.uniform(0.5, 1.5, 8), beta=rng.standard_normal(8), epsilon=1e-5
        )
        fl = fold_layernorm_linear(p, rng.standard_normal((8, 5)))
        out = fused_layernorm_matmul(np.full(8, 2.5), fl)
        assert max_rel_error(out, fl.folded_bias) <= 1e-10

    def test_two_dim_hand_case(self):
        p = LayerNormParams(gamma=[1.0, 1.0], beta=[0.0, 0.0], epsilon=1e-12)
        fl = fold_layernorm_linear(p, np.eye(2))
        assert_allclose(fused_layernorm_matmul([1.0, -1.0], fl), [1.0, -1.0], rtol=1e-10)

    def test_matches_conventional_path_200_instances(self):
        rng = np.random.default_rng(25)
        sizes = [8, 16, 32, 64, 128, 256]
        worst = 0.0
        for trial in range(200):
            n = sizes[trial % len(sizes)]
            x, p, f = random_ln_instance(rng, n, max(2, n // 2))
            expected = matmul(layernorm(x, p), f)
            actual = fused_layernorm_matmul(x, fold_layernorm_linear(p, f))
            worst = max(worst, max_rel_error(actual, expected))
        assert worst <= 1e-10

    def test_near_constant_input(self):
        # variance ~1e-14; epsilon carries the numerics in both paths
        rng = np.random.default_rng(26)
        n = 64
        x = 1.3 + 1e-7 * rng.standard_normal(n)
        p = LayerNormParams(gamma=rng.uniform(0.5, 1.5, n), beta=rng.standard_normal(n), epsilon=1e-5)
        f = rng.standard_normal((n, n)) / 8.0
        expected = matmul(layernorm(x, p), f)
        actual = fused_layernorm_matmul(x, fold_layernorm_linear(p, f))
        assert max_rel_error(actual, expected) <= 1e-10

    def test_epsilon_must_be_positive(self):
        """A layernorm fold's epsilon, named where a fold is built from plain arrays, is positive."""
        fl = fold_layernorm_linear(
            LayerNormParams(gamma=[1.0, 1.0], beta=[0.0, 0.0], epsilon=1e-5), np.eye(2)
        )
        assert fl.epsilon == 1e-5
        with pytest.raises(ValueError, match="^epsilon must be a positive finite scalar, got 0.0$"):
            FoldedLinear(folded_weight=fl.folded_weight, folded_bias=fl.folded_bias, epsilon=0.0)

    @pytest.mark.parametrize("kernel", ["einsum", "chunked"])
    def test_shifted_product_overflow_falls_back_per_row(self, request, strict_fp, kernel):
        """A row whose shifted product overflows, where its unshifted one fits, is multiplied
        unshifted; every other row keeps the shift. Row 0 shifted, [0, 0, -2, -2], meets
        column 0's ±1e308 in products of ±2e308; unshifted, its partial sums stay within ±1e308."""
        if kernel == "chunked":
            request.getfixturevalue("chunked_kernel")
        p = LayerNormParams(gamma=np.ones(4), beta=[0.5, -0.25, 0.25, 0.125], epsilon=1e-5)
        fl = fold_layernorm_linear(p, [[1e308, 1.0], [-1e308, 2.0], [1e308, 3.0], [-1e308, 4.0]])
        x = np.array([[1.0, 1.0, -1.0, -1.0], [0.3, 0.2, 0.1, 0.4]])
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(matmul(x[0] - x[0, 0], fl.folded_weight)).all()
        denom = np.sqrt(moments(x)[1] + p.epsilon)
        expected = np.stack([matmul(x[0], fl.folded_weight) / denom[0] + fl.folded_bias,
                             matmul(x[1] - x[1, 0], fl.folded_weight) / denom[1] + fl.folded_bias])
        out = fused_layernorm_matmul(x, fl)
        assert np.isfinite(out).all()
        assert_array_equal(out.view(np.uint64), expected.view(np.uint64))
        for row, want in zip(x, expected):
            assert_array_equal(fused_layernorm_matmul(row, fl).view(np.uint64), want.view(np.uint64))

    def test_dimension_mismatch_rejected(self):
        fl = fold_layernorm_linear(
            LayerNormParams(gamma=[1.0, 1.0], beta=[0.0, 0.0], epsilon=1e-5), np.eye(2)
        )
        with pytest.raises(ValueError, match="length"):
            fused_layernorm_matmul([1.0, 2.0, 3.0], fl)


class TestFusedSoftmaxMatmul:
    def test_uniform_pair_identity_values(self):
        assert_allclose(fused_softmax_matmul([0.0, 0.0], np.eye(2)), [0.5, 0.5], rtol=1e-15)

    def test_ones_column_gives_exact_one(self):
        rng = np.random.default_rng(27)
        x = rng.uniform(-1e3, 1e3, 37)
        out = fused_softmax_matmul(x, np.ones((37, 1)))
        assert_array_equal(out, [1.0])

    def test_matches_conventional_path_200_instances(self):
        rng = np.random.default_rng(28)
        sizes = [8, 16, 32, 64, 128, 256]
        worst = 0.0
        for trial in range(200):
            n = sizes[trial % len(sizes)]
            x = rng.uniform(-1e3, 1e3, n)
            v = rng.standard_normal((n, max(2, n // 2))) / math.sqrt(n)
            actual = fused_softmax_matmul(x, v)
            assert np.all(np.isfinite(actual))
            expected = matmul(softmax_stable(x), v)
            worst = max(worst, max_rel_error(actual, expected))
        assert worst <= 1e-10

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            fused_softmax_matmul([1.0, 2.0, 3.0], np.eye(2))

    def test_subnormal_numerators_are_exact_under_strict_errors(self):
        # exp(-740) is subnormal; scaled by 1/(1 + exp(-1)) it rounds, correctly: not an error
        x = np.array([[0.0, -1.0, -740.0, -745.0], [0.0, -740.0, -1.0, -1e3]])
        expected = fused_softmax_matmul(x, np.eye(4))
        with np.errstate(all="raise"):
            assert_array_equal(fused_softmax_matmul(x, np.eye(4)).view(np.uint64), expected.view(np.uint64))


class TestFusedSoftmaxPerHead:
    """Every head's scores and values as 3-D stacks: bit for bit the per-head 2-D results.

    These run on the kernel the probe picked, and in `TestFusedSoftmaxPerHeadChunked`
    on the chunked kernel.
    """

    # seq 1 and one head, as blocks may have
    @pytest.mark.parametrize("shape", [(4, 8, 32), (1, 5, 7), (3, 1, 4), (2, 6, 1)])
    def test_matches_per_head_calls(self, shape):
        heads, seq, d_head = shape
        rng = np.random.default_rng(seq * d_head)
        scores = rng.uniform(-1e3, 1e3, (heads, seq, seq))
        v = rng.standard_normal((heads, seq, d_head))
        fused = fused_softmax_matmul(scores, v)
        conventional = matmul(softmax_stable(scores), v)
        assert fused.shape == conventional.shape == (heads, seq, d_head)
        for h in range(heads):
            assert_array_equal(fused[h].view(np.uint64), fused_softmax_matmul(scores[h], v[h]).view(np.uint64))
            assert_array_equal(conventional[h].view(np.uint64),
                               matmul(softmax_stable(scores[h]), v[h]).view(np.uint64))

    @pytest.mark.parametrize("v_shape", [(4, 6, 3), (3, 5, 3), (5, 3)], ids=["inner", "heads", "one-matrix"])
    def test_mismatched_values_rejected(self, v_shape):
        with pytest.raises(ValueError, match="length|dimension mismatch"):
            fused_softmax_matmul(np.zeros((4, 5, 5)), np.ones(v_shape))

    def test_non_finite_head_named(self, strict_fp):
        scores = np.zeros((3, 4, 4))
        scores[1, 2, 3] = np.nan
        with pytest.raises(ValueError, match="^matrix contains non-finite elements$"):
            fused_softmax_matmul(scores, np.ones((3, 4, 2)))
        v = np.ones((3, 4, 2))
        v[1, 0, 1] = np.inf
        with pytest.raises(ValueError, match="^matrix contains non-finite elements$"):
            fused_softmax_matmul(np.zeros((3, 4, 4)), v)


@pytest.mark.usefixtures("chunked_kernel")
class TestFusedSoftmaxPerHeadChunked(TestFusedSoftmaxPerHead):
    """`TestFusedSoftmaxPerHead` on the chunked kernel."""


class TestFoldRmsnormLinear:
    def test_unit_gamma_returns_weight(self):
        rng = np.random.default_rng(29)
        f = rng.standard_normal((5, 7))
        assert_array_equal(fold_rmsnorm_linear(RmsNormParams(gamma=np.ones(5)), f).folded_weight, f)

    def test_diagonal_case(self):
        fl = fold_rmsnorm_linear(RmsNormParams(gamma=[2.0, 3.0]), np.eye(2))
        assert_array_equal(fl.folded_weight, np.diag([2.0, 3.0]))

    def test_against_explicit_matrix_oracle(self):
        rng = np.random.default_rng(30)
        g = rng.uniform(0.5, 1.5, 8)
        f = rng.standard_normal((8, 4))
        fl = fold_rmsnorm_linear(RmsNormParams(gamma=g), f)
        assert max_rel_error(fl.folded_weight, matmul(np.diag(g), f)) == 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            fold_rmsnorm_linear(RmsNormParams(gamma=[1.0, 1.0]), np.ones((3, 2)))


def test_folded_bias_of_the_wrong_length_rejected():
    with pytest.raises(ValueError, match="^folded bias length 3 does not match folded weight columns 4$"):
        FoldedLinear(folded_weight=np.ones((2, 4)), folded_bias=np.zeros(3), epsilon=1e-5)


class TestFoldEpsilon:
    """Each fold carries its norm's epsilon: the fold functions take the params', a caller names it."""

    def test_folds_carry_their_params_epsilon(self):
        f = np.random.default_rng(66).standard_normal((3, 2))
        ln = fold_layernorm_linear(LayerNormParams(gamma=np.ones(3), beta=np.zeros(3), epsilon=np.float32(1e-3)), f)
        rms = fold_rmsnorm_linear(RmsNormParams(gamma=np.ones(3), epsilon=2), f)
        assert (type(ln.epsilon), ln.epsilon) == (float, float(np.float32(1e-3)))
        assert (type(rms.epsilon), rms.epsilon) == (int, 2)

    def test_named_as_a_keyword_with_no_default(self):
        with pytest.raises(TypeError, match="epsilon"):
            FoldedLinear(folded_weight=np.ones((2, 2)))
        with pytest.raises(TypeError):
            FoldedLinear(np.ones((2, 2)), None, 0.0)
        assert FoldedLinear(np.ones((2, 2)), epsilon=np.float64(0.5)).epsilon == 0.5

    # gate and up share one product and one 1/rms, so their folds must share one epsilon
    def test_llama_mlp_rejects_gate_and_up_epsilons_that_differ(self):
        gate, up = (FoldedLinear(folded_weight=np.ones((2, 3)), epsilon=eps) for eps in (1e-6, 1e-5))
        with pytest.raises(ValueError, match="^gate and up folds' epsilons differ: 1e-06 and 1e-05$"):
            fused_rmsnorm_llama_mlp([1.0, 2.0], gate, up, np.ones((3, 2)))


def test_misshapen_down_projection_rejected():
    with pytest.raises(ValueError, match=r"^w_down shape \(3, 4\), expected \(2, 4\)$"):
        LlamaMlpWeights(w_gate=np.ones((4, 2)), w_up=np.ones((4, 2)), w_down=np.ones((3, 4)))


def test_folds_are_read_only():
    rng = np.random.default_rng(32)
    f = rng.standard_normal((4, 3))
    ln = fold_layernorm_linear(LayerNormParams(gamma=rng.uniform(0.5, 1.5, 4), beta=np.ones(4), epsilon=1e-5), f)
    rms = fold_rmsnorm_linear(RmsNormParams(gamma=rng.uniform(0.5, 1.5, 4)), f)
    for array in (ln.folded_weight, ln.folded_bias, rms.folded_weight):
        with pytest.raises(ValueError, match="read-only"):
            array[0, ...] = 1.0


class TestFusedRmsnormMatmul:
    def test_matches_conventional_path(self):
        rng = np.random.default_rng(31)
        for n in (8, 32, 96):
            x = rng.standard_normal(n)
            p = RmsNormParams(gamma=rng.uniform(0.5, 1.5, n), epsilon=1e-6)
            f = rng.standard_normal((n, n)) / math.sqrt(n)
            expected = matmul(rmsnorm(x, p), f)
            actual = fused_rmsnorm_matmul(x, fold_rmsnorm_linear(p, f))
            assert max_rel_error(actual, expected) <= 1e-10

    @pytest.mark.parametrize("kernel", ["einsum", "chunked"])
    def test_prescaled_product_overflow_falls_back_per_row(self, request, strict_fp, kernel):
        """A row whose pre-scaled product overflows, where its unscaled one fits, is multiplied
        unscaled; every other row keeps the pre-scale. Row 0, 64 entries of 1e-10 under epsilon 1,
        is pre-scaled by 2**33 to about 0.86, whose sum of products by 1e307 overflows; unscaled,
        it is 6.4e298. Row 1, at 0.5 and above, needs no pre-scale."""
        if kernel == "chunked":
            request.getfixturevalue("chunked_kernel")
        p = RmsNormParams(gamma=np.ones(64), epsilon=1.0)
        f = np.full((64, 3), 1e307)
        f[:, 1] *= -0.5
        fl = fold_rmsnorm_linear(p, f)
        x = np.stack([np.full(64, 1e-10), np.linspace(-1.0, 1.0, 64)])
        with np.errstate(over="ignore"):
            assert not np.isfinite(matmul(x[0] * 2.0**33, f)).all()
        expected = matmul(x, f) / root_mean_square(x, p.epsilon)[:, np.newaxis]
        out = fused_rmsnorm_matmul(x, fl)
        assert np.isfinite(out).all()
        assert_array_equal(out.view(np.uint64), expected.view(np.uint64))
        for row, want in zip(x, expected):
            assert_array_equal(fused_rmsnorm_matmul(row, fl).view(np.uint64), want.view(np.uint64))

    # a negative or NaN epsilon gave NaN with a RuntimeWarning, and raised
    # FloatingPointError under strict errors; it is now refused where it enters, in the fold
    @pytest.mark.parametrize("errors", ["default", "strict"])
    @pytest.mark.parametrize("epsilon", [-5.0, np.nan])
    def test_bad_epsilon_rejected(self, request, errors, epsilon):
        if errors == "strict":
            request.getfixturevalue("strict_fp")
        with pytest.raises(ValueError, match=f"^epsilon must be a non-negative finite scalar, got {epsilon}$"):
            FoldedLinear(folded_weight=np.ones((3, 2)), epsilon=epsilon)


class TestFoldKind:
    """One `FoldedLinear` for both norms; each fused norm evaluator takes only its own norm's fold."""

    KINDS = ("a layernorm fold (with folded_bias)", "an RMSNorm fold (no folded_bias)")
    # each evaluator, and the index in KINDS and `folds()` of the fold it takes
    EVALUATORS = {
        "fused_layernorm_matmul": (fused_layernorm_matmul, 0),
        "fused_rmsnorm_matmul": (fused_rmsnorm_matmul, 1),
    }

    @staticmethod
    def folds(n=4, m=3):
        rng = np.random.default_rng(62)
        f = rng.standard_normal((n, m))
        gamma = rng.uniform(0.5, 1.5, n)
        ln = fold_layernorm_linear(LayerNormParams(gamma=gamma, beta=rng.standard_normal(n), epsilon=1e-5), f)
        return ln, fold_rmsnorm_linear(RmsNormParams(gamma=gamma), f)

    def test_only_the_layernorm_fold_has_a_bias(self):
        ln, rms = self.folds()
        assert ln.folded_bias.shape == (3,)
        assert rms.folded_bias is None

    # the other norm's fold gave a silently wrong value (a layernorm fold in the
    # RMSNorm evaluator) or a bare AttributeError (an RMSNorm fold in the layernorm one)
    @pytest.mark.parametrize("shape", [(4,), (3, 4)], ids=["row", "stack"])
    @pytest.mark.parametrize("evaluator", list(EVALUATORS))
    def test_other_norms_fold_rejected(self, evaluator, shape):
        call, own = self.EVALUATORS[evaluator]
        folds = self.folds()
        x = np.random.default_rng(63).standard_normal(shape)
        assert call(x, folds[own]).shape == shape[:-1] + (3,)
        message = f"expected {self.KINDS[own]}, got {self.KINDS[1 - own]}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(x, folds[1 - own])

    @pytest.mark.parametrize("evaluator", list(EVALUATORS))
    def test_non_finite_rows_and_a_misfit_width_named_before_the_fold_kind(self, evaluator):
        call, own = self.EVALUATORS[evaluator]
        wrong = self.folds()[1 - own]
        rows = np.ones((3, 4))
        with pytest.raises(ValueError, match="^expected "):
            call(rows, wrong)
        with pytest.raises(ValueError, match="^input length 5 does not match folded weight rows 4$"):
            call(np.ones((3, 5)), wrong)
        rows[1, 2] = np.nan
        with pytest.raises(ValueError, match="^matrix contains non-finite elements$"):
            call(rows, wrong)
        with pytest.raises(ValueError, match="^row vector contains non-finite elements$"):
            call(rows[1], wrong)

    # each fold's kind is checked before the join, whose bias-length check
    # would otherwise reject a layernorm fold beside an RMSNorm fold
    @pytest.mark.parametrize("layernorm_fold", ["gate", "up"])
    def test_llama_mlp_rejects_a_layernorm_fold_beside_an_rmsnorm_fold(self, layernorm_fold):
        ln, rms = self.folds()
        gate, up = (ln, rms) if layernorm_fold == "gate" else (rms, ln)
        rows = np.ones((2, 4))
        message = f"expected {self.KINDS[1]}, got {self.KINDS[0]}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fused_rmsnorm_llama_mlp(rows, gate, up, np.ones((3, 4)))
        rows[0, 1] = np.nan
        with pytest.raises(ValueError, match="^matrix contains non-finite elements$"):
            fused_rmsnorm_llama_mlp(rows, gate, up, np.ones((3, 4)))


class TestSilu:
    def test_against_extended_precision(self):
        zs = np.array([-745.0, -100.0, -20.0, -1.0, -1e-8, 0.0, 1e-8, 1.0, 20.0, 100.0, 745.0])
        out = silu(zs)
        with mpmath.workdps(50):
            ref = np.array([float(mpmath.mpf(z) / (1 + mpmath.exp(-mpmath.mpf(z)))) for z in zs])
        assert np.all(np.isfinite(out))
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref) + 1)

    def test_zero(self):
        assert silu(np.array([0.0]))[0] == 0.0

    def test_exp_underflow_is_exact_under_strict_errors(self):
        # past |z| ~ 708 exp is subnormal or 0, the correctly rounded value, not an error
        z = np.array([800.0, -800.0, 745.0, -745.0, 709.0, -709.0, 1e300, -1e300])
        expected = silu(z)
        with np.errstate(all="raise"):
            assert_array_equal(silu(z).view(np.uint64), expected.view(np.uint64))


    @staticmethod
    def straight_silu(z):
        """The reference: the formula written straight, each half gathered where it is used."""
        out = np.empty_like(z)
        pos = z >= 0
        with np.errstate(under="ignore", invalid="ignore"):
            out[pos] = z[pos] / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            out[~pos] = z[~pos] * ez / (1.0 + ez)
        return out

    @staticmethod
    def gate():
        """An (8, 512) gate holding both halves, the exp limits, the extremes and the non-finite values."""
        z = np.random.default_rng(56).standard_normal((8, 512)) * 30
        far = [0.0, 708.0, 745.0, 1e308, 5e-324, np.inf]
        z.flat[:13] = [*far, *(-v for v in far), np.nan]
        return z

    @pytest.mark.parametrize("strict", [False, True], ids=["default-errors", "strict-errors"])
    def test_is_the_straight_formula_bitwise(self, strict, request):
        z = self.gate()
        expected = self.straight_silu(z)
        if strict:
            request.getfixturevalue("strict_fp")
        assert_array_equal(silu(z).view(np.uint64), expected.view(np.uint64))

    def test_peak_memory_under_three_inputs(self):
        z = self.gate()
        silu(z)
        tracemalloc.start()
        try:
            silu(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * z.nbytes  # out, e and the z >= 0 mask: about 2.15 times on numpy 2.4.6


class TestFusedRmsnormLlamaMlp:
    def _random_instance(self, rng, n):
        h = round(4 * n / 3)
        x = rng.standard_normal(n)
        p = RmsNormParams(gamma=rng.uniform(0.5, 1.5, n), epsilon=0.0)
        w_gate = rng.standard_normal((n, h)) / math.sqrt(n)
        w_up = rng.standard_normal((n, h)) / math.sqrt(n)
        w_down = rng.standard_normal((h, n)) / math.sqrt(h)
        return x, p, w_gate, w_up, w_down

    def test_tiny_rows_are_exact_under_strict_errors(self):
        # rows near 1e-160 with epsilon 1e-6 make gate and up near 1e-157: their product is subnormal
        rng = np.random.default_rng(37)
        x, p, w_gate, w_up, w_down = self._random_instance(rng, 8)
        x, p = np.stack([x, -x]) * 1e-160, RmsNormParams(gamma=p.gamma, epsilon=1e-6)
        args = (x, fold_rmsnorm_linear(p, w_gate), fold_rmsnorm_linear(p, w_up), w_down)
        expected = fused_rmsnorm_llama_mlp(*args)
        with np.errstate(all="raise"):
            assert_array_equal(fused_rmsnorm_llama_mlp(*args).view(np.uint64), expected.view(np.uint64))

    def test_zero_input_with_epsilon(self):
        rng = np.random.default_rng(32)
        p = RmsNormParams(gamma=np.ones(4), epsilon=1e-6)
        out = fused_rmsnorm_llama_mlp(
            np.zeros(4),
            fold_rmsnorm_linear(p, rng.standard_normal((4, 6))),
            fold_rmsnorm_linear(p, rng.standard_normal((4, 6))),
            rng.standard_normal((6, 4)),
        )
        assert_array_equal(out, np.zeros(4))

    def test_scalar_hand_case(self):
        # n=h=1, unit weights, x=2, eps=0: rms=2, gate=up=1, silu(1)*1 through unit down
        p = RmsNormParams(gamma=[1.0])
        out = fused_rmsnorm_llama_mlp(
            [2.0],
            fold_rmsnorm_linear(p, [[1.0]]),
            fold_rmsnorm_linear(p, [[1.0]]),
            [[1.0]],
        )
        with mpmath.workdps(50):
            expected = float(1 / (1 + mpmath.exp(-1)))  # 0.7310585786300049...
        assert out[0] == pytest.approx(expected, rel=1e-14)

    def test_matches_conventional_path_200_instances(self):
        rng = np.random.default_rng(33)
        sizes = [8, 16, 32, 64, 96, 128]
        worst = 0.0
        for trial in range(200):
            n = sizes[trial % len(sizes)]
            x, p, w_gate, w_up, w_down = self._random_instance(rng, n)
            normed = rmsnorm(x, p)
            expected = matmul(
                silu(matmul(normed, w_gate)) * matmul(normed, w_up), w_down
            )
            actual = fused_rmsnorm_llama_mlp(
                x,
                fold_rmsnorm_linear(p, w_gate),
                fold_rmsnorm_linear(p, w_up),
                w_down,
            )
            worst = max(worst, max_rel_error(actual, expected))
        assert worst <= 1e-10

    def test_row_stack_is_bit_identical_to_per_row(self):
        rng = np.random.default_rng(34)
        x, p, w_gate, w_up, w_down = self._random_instance(rng, 12)
        rows = np.stack([x, 3.0 * x + 8.0, rng.standard_normal(12)])
        gate, up = fold_rmsnorm_linear(p, w_gate), fold_rmsnorm_linear(p, w_up)
        assert_array_equal(fused_rmsnorm_llama_mlp(rows, gate, up, w_down),
                           np.stack([fused_rmsnorm_llama_mlp(row, gate, up, w_down) for row in rows]))

    def test_zero_norm_without_epsilon_rejected(self):
        p = RmsNormParams(gamma=[1.0, 1.0])
        fl = fold_rmsnorm_linear(p, np.ones((2, 2)))
        with pytest.raises(ValueError, match="zero"):
            fused_rmsnorm_llama_mlp([0.0, 0.0], fl, fl, np.ones((2, 2)))

    def test_shape_mismatch_rejected(self):
        p = RmsNormParams(gamma=[1.0, 1.0])
        fl = fold_rmsnorm_linear(p, np.ones((2, 3)))
        with pytest.raises(ValueError, match="down projection"):
            fused_rmsnorm_llama_mlp([1.0, 2.0], fl, fl, np.ones((2, 2)))

    @pytest.mark.parametrize("up_shape", [(3, 3), (2, 4)], ids=["rows", "hidden"])
    def test_mismatched_gate_up_folds_rejected(self, up_shape):
        gate = fold_rmsnorm_linear(RmsNormParams(gamma=[1.0, 1.0]), np.ones((2, 3)))
        up = FoldedLinear(folded_weight=np.ones(up_shape), epsilon=0.0)
        with pytest.raises(ValueError, match="up projection shape"):
            fused_rmsnorm_llama_mlp([1.0, 2.0], gate, up, np.ones((3, 2)))

    def test_input_length_mismatch_rejected(self):
        fl = fold_rmsnorm_linear(RmsNormParams(gamma=[1.0, 1.0]), np.ones((2, 3)))
        with pytest.raises(ValueError, match="input length"):
            fused_rmsnorm_llama_mlp([1.0, 2.0, 3.0], fl, fl, np.ones((3, 2)))


class TestSwiglu:
    def test_silu_gate_times_up_through_down_per_row(self):
        rng = np.random.default_rng(35)
        gate_up, w_down = rng.standard_normal((3, 8)), rng.standard_normal((4, 5))
        expected = matmul(silu(gate_up[:, :4]) * gate_up[:, 4:], w_down)
        assert_array_equal(swiglu(gate_up, w_down), expected)
        assert_array_equal(swiglu(gate_up[1], w_down), expected[1])

    def test_width_other_than_twice_down_rows_rejected(self):
        with pytest.raises(ValueError, match="does not match down projection rows 4"):
            swiglu(np.ones((2, 7)), np.ones((4, 5)))

    @pytest.mark.parametrize("errors", ["default", "strict"])
    def test_negative_infinite_gate_named_by_the_product_scan(self, request, errors):
        # silu(-inf) is -inf * 0: NaN, quietly, so `matmul`'s output scan names the input
        if errors == "strict":
            request.getfixturevalue("strict_fp")
        assert not np.isfinite(silu(np.array([-np.inf]))).any()
        with pytest.raises(ValueError, match="^matrix contains non-finite elements$"):
            swiglu(np.array([[-np.inf, 1.0, 2.0, 3.0]]), np.ones((2, 3)))

    def test_subnormal_gate_times_up_is_exact_under_strict_errors(self, strict_fp):
        # silu(gate) * up below 2.2e-308 rounds to the correctly rounded subnormal, not an error
        rng = np.random.default_rng(36)
        gate_up, w_down = rng.standard_normal((3, 8)) * 1e-155, rng.standard_normal((4, 5))
        with np.errstate(all="ignore"):
            gated = silu(gate_up[:, :4]) * gate_up[:, 4:]
            expected = matmul(gated, w_down)
        assert np.any((gated != 0) & (np.abs(gated) < np.finfo(np.float64).tiny))
        assert_array_equal(swiglu(gate_up, w_down).view(np.uint64), expected.view(np.uint64))

    def test_peak_memory_under_two_and_a_half_gates(self):
        """silu runs on a copy of the strided gate half and up is multiplied into its output in place.

        On an (8, 688) gate|up, tracemalloc's peak stays within 2.5 times one
        (8, 344) half: about 2.45 on numpy 2.4.6, where gathered halves and a
        new silu(gate) * up read 3.08. The chunked kernel adds its one buffer.
        """
        rng = np.random.default_rng(38)
        gate_up, w_down = rng.standard_normal((8, 688)), rng.standard_normal((344, 128))
        swiglu(gate_up, w_down)
        tracemalloc.start()
        try:
            swiglu(gate_up, w_down)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * gate_up.nbytes + (0 if tensor._EINSUM_IN_ORDER else tensor._CHUNK_ELEMENTS * 8)


class TestScaleDeferral:
    @given(
        st.floats(min_value=1e-6, max_value=1e6),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    # its one output cancels to 3.3e-4 against terms whose magnitudes sum to 8.0:
    # relative to that output, deferring 1/s errs by 1.69e-12
    @example(3.0, 5, 1, 9225)
    def test_scalar_commutes_past_matmul(self, s, n, m, seed):
        """Deferring 1/s past the product is exact to rounding relative to the size of the terms.

        Each column's difference is bounded by 1e-12 * sum_i |u_i w_ij| / s,
        not by the output, which can cancel far below its terms.
        """
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(n)
        w = rng.standard_normal((n, m))
        deferred = matmul(u, w) * (1.0 / s)
        eager = matmul(u * (1.0 / s), w)
        assert np.all(np.abs(deferred - eager) <= 1e-12 * matmul(np.abs(u), np.abs(w)) / s)


@pytest.mark.parametrize("shape", [(6,), (3, 6)], ids=["row", "stack"])
@pytest.mark.parametrize("name", ["fused_layernorm_matmul", "fused_softmax_matmul", "fused_rmsnorm_matmul"])
def test_deferred_scale_is_applied_in_the_products_own_buffer(monkeypatch, name, shape):
    """Each fused evaluator returns the very array its `matmul` call returned, scaled in place."""
    products = []

    def recording(a, b):
        products.append(product := matmul(a, b))
        return product

    monkeypatch.setattr(fusion, "matmul", recording)
    out = ROWS_KERNELS[name](np.random.default_rng(61).standard_normal(shape))
    assert len(products) == 1 and out is products[0]


def _rows_kernels():
    """Every norm reduction and fused evaluator, as a function of its rows alone (width 6)."""
    rng = np.random.default_rng(60)
    ln = LayerNormParams(gamma=rng.uniform(0.5, 1.5, 6), beta=rng.standard_normal(6), epsilon=1e-5)
    rms = RmsNormParams(gamma=rng.uniform(0.5, 1.5, 6), epsilon=1e-6)
    folded = fold_layernorm_linear(ln, rng.standard_normal((6, 4)))
    rms_folded, gate, up = (fold_rmsnorm_linear(rms, rng.standard_normal((6, 5))) for _ in range(3))
    v, w_down = rng.standard_normal((6, 3)), rng.standard_normal((5, 6))
    return {
        "moments": moments,
        "layernorm": lambda x: layernorm(x, ln),
        "rmsnorm": lambda x: rmsnorm(x, rms),
        "root_mean_square": lambda x: root_mean_square(x, 0.0),
        "softmax_numerators": softmax_numerators,
        "softmax_stable": softmax_stable,
        "fused_layernorm_matmul": lambda x: fused_layernorm_matmul(x, folded),
        "fused_softmax_matmul": lambda x: fused_softmax_matmul(x, v),
        "fused_rmsnorm_matmul": lambda x: fused_rmsnorm_matmul(x, rms_folded),
        "fused_rmsnorm_llama_mlp": lambda x: fused_rmsnorm_llama_mlp(x, gate, up, w_down),
    }


ROWS_KERNELS = _rows_kernels()


@pytest.mark.parametrize("errors", ["default", "strict"])
@pytest.mark.parametrize("where", ["row element", "stack element", "stack row"])
@pytest.mark.parametrize("name,kernel", [
    pytest.param(name, kernel, id=name if kernel == "einsum" else f"{name}-chunked")
    for name in ROWS_KERNELS
    for kernel in (("einsum", "chunked") if name.startswith("fused") else ("einsum",))
])
def test_non_finite_rows_rejected(request, name, kernel, where, errors):
    """A NaN or infinity in the rows raises the validators' own message, in either error mode."""
    if kernel == "chunked":
        request.getfixturevalue("chunked_kernel")
    if errors == "strict":
        request.getfixturevalue("strict_fp")
    stack = np.random.default_rng(61).standard_normal((3, 6))
    x, index, message = {
        "row element": (stack[1], 2, "^row vector contains non-finite elements$"),
        "stack element": (stack, (1, 2), "^matrix contains non-finite elements$"),
        "stack row": (stack, 1, "^matrix contains non-finite elements$"),
    }[where]
    for value in (np.nan, np.inf, -np.inf):
        bad = x.copy()
        bad[index] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                ROWS_KERNELS[name](bad)


@pytest.mark.parametrize("name,call", [
    ("layernorm", lambda x: layernorm(x, LayerNormParams(gamma=np.ones(5), beta=np.zeros(5), epsilon=1e-5))),
    ("rmsnorm", lambda x: rmsnorm(x, RmsNormParams(gamma=np.ones(5)))),
    ("fused_layernorm_matmul", lambda x: fused_layernorm_matmul(
        x, FoldedLinear(folded_weight=np.ones((5, 2)), folded_bias=np.zeros(2), epsilon=1e-5))),
    ("fused_softmax_matmul", lambda x: fused_softmax_matmul(x, np.ones((5, 2)))),
    ("fused_rmsnorm_matmul", lambda x: fused_rmsnorm_matmul(x, FoldedLinear(folded_weight=np.ones((5, 2)), epsilon=0.0))),
    ("fused_rmsnorm_llama_mlp-epsilon", lambda x: fused_rmsnorm_llama_mlp(
        x, *(FoldedLinear(folded_weight=np.ones((6, 2)), epsilon=eps) for eps in (0.0, 1e-6)), np.ones((2, 6)))),
    ("root_mean_square-epsilon", lambda x: root_mean_square(x, np.nan)),
])
def test_non_finite_rows_named_before_a_mismatch(name, call):
    """Rows that are non-finite and do not fit the parameters raise the non-finite error first."""
    rows = np.ones((3, 6))
    with pytest.raises(ValueError, match="length|epsilon"):
        call(rows)
    rows[1, 2] = np.nan
    with pytest.raises(ValueError, match="^matrix contains non-finite elements$"):
        call(rows)
    with pytest.raises(ValueError, match="^row vector contains non-finite elements$"):
        call(rows[1])
