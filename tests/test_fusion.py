"""Folding and fused-execution tests.

The fold oracle builds the centering and diagonal factors explicitly and
multiplies them out with the tensor primitives; the fused-execution oracle
is always the conventional normalize-then-multiply path.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from normfusion.fusion import (
    FoldedLinear,
    RmsFoldedLinear,
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
            fused_layernorm_matmul(rng.standard_normal(16), first, 1e-5)
        again = fold_layernorm_linear(p, f)
        assert_array_equal(first.folded_weight, again.folded_weight)
        assert_array_equal(first.folded_bias, again.folded_bias)

    def test_dimension_mismatch_rejected(self):
        p = LayerNormParams(gamma=[1.0, 1.0], beta=[0.0, 0.0], epsilon=1e-5)
        with pytest.raises(ValueError, match="rows"):
            fold_layernorm_linear(p, np.ones((3, 2)))


class TestFusedLayernormMatmul:
    def test_constant_input_maps_to_bias(self):
        rng = np.random.default_rng(24)
        p = LayerNormParams(
            gamma=rng.uniform(0.5, 1.5, 8), beta=rng.standard_normal(8), epsilon=1e-5
        )
        fl = fold_layernorm_linear(p, rng.standard_normal((8, 5)))
        out = fused_layernorm_matmul(np.full(8, 2.5), fl, p.epsilon)
        assert max_rel_error(out, fl.folded_bias) <= 1e-10

    def test_two_dim_hand_case(self):
        p = LayerNormParams(gamma=[1.0, 1.0], beta=[0.0, 0.0], epsilon=1e-12)
        fl = fold_layernorm_linear(p, np.eye(2))
        assert_allclose(fused_layernorm_matmul([1.0, -1.0], fl, 1e-12), [1.0, -1.0], rtol=1e-10)

    def test_matches_conventional_path_200_instances(self):
        rng = np.random.default_rng(25)
        sizes = [8, 16, 32, 64, 128, 256]
        worst = 0.0
        for trial in range(200):
            n = sizes[trial % len(sizes)]
            x, p, f = random_ln_instance(rng, n, max(2, n // 2))
            expected = matmul(layernorm(x, p), f)
            actual = fused_layernorm_matmul(x, fold_layernorm_linear(p, f), p.epsilon)
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
        actual = fused_layernorm_matmul(x, fold_layernorm_linear(p, f), p.epsilon)
        assert max_rel_error(actual, expected) <= 1e-10

    def test_epsilon_must_be_positive(self):
        fl = fold_layernorm_linear(
            LayerNormParams(gamma=[1.0, 1.0], beta=[0.0, 0.0], epsilon=1e-5), np.eye(2)
        )
        with pytest.raises(ValueError, match="epsilon"):
            fused_layernorm_matmul([1.0, -1.0], fl, 0.0)

    def test_dimension_mismatch_rejected(self):
        fl = fold_layernorm_linear(
            LayerNormParams(gamma=[1.0, 1.0], beta=[0.0, 0.0], epsilon=1e-5), np.eye(2)
        )
        with pytest.raises(ValueError, match="length"):
            fused_layernorm_matmul([1.0, 2.0, 3.0], fl, 1e-5)


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


class TestFusedRmsnormMatmul:
    def test_matches_conventional_path(self):
        rng = np.random.default_rng(31)
        for n in (8, 32, 96):
            x = rng.standard_normal(n)
            p = RmsNormParams(gamma=rng.uniform(0.5, 1.5, n), epsilon=1e-6)
            f = rng.standard_normal((n, n)) / math.sqrt(n)
            expected = matmul(rmsnorm(x, p), f)
            actual = fused_rmsnorm_matmul(x, fold_rmsnorm_linear(p, f), p.epsilon)
            assert max_rel_error(actual, expected) <= 1e-10


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


class TestFusedRmsnormLlamaMlp:
    def _random_instance(self, rng, n):
        h = round(4 * n / 3)
        x = rng.standard_normal(n)
        p = RmsNormParams(gamma=rng.uniform(0.5, 1.5, n), epsilon=0.0)
        w_gate = rng.standard_normal((n, h)) / math.sqrt(n)
        w_up = rng.standard_normal((n, h)) / math.sqrt(n)
        w_down = rng.standard_normal((h, n)) / math.sqrt(h)
        return x, p, w_gate, w_up, w_down

    def test_zero_input_with_epsilon(self):
        rng = np.random.default_rng(32)
        p = RmsNormParams(gamma=np.ones(4), epsilon=1e-6)
        out = fused_rmsnorm_llama_mlp(
            np.zeros(4),
            fold_rmsnorm_linear(p, rng.standard_normal((4, 6))),
            fold_rmsnorm_linear(p, rng.standard_normal((4, 6))),
            rng.standard_normal((6, 4)),
            epsilon=1e-6,
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
            epsilon=0.0,
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
                epsilon=p.epsilon,
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
            fused_rmsnorm_llama_mlp([0.0, 0.0], fl, fl, np.ones((2, 2)), epsilon=0.0)

    def test_shape_mismatch_rejected(self):
        p = RmsNormParams(gamma=[1.0, 1.0])
        fl = fold_rmsnorm_linear(p, np.ones((2, 3)))
        with pytest.raises(ValueError, match="down projection"):
            fused_rmsnorm_llama_mlp([1.0, 2.0], fl, fl, np.ones((2, 2)), epsilon=0.0)

    @pytest.mark.parametrize("up_shape", [(3, 3), (2, 4)], ids=["rows", "hidden"])
    def test_mismatched_gate_up_folds_rejected(self, up_shape):
        gate = fold_rmsnorm_linear(RmsNormParams(gamma=[1.0, 1.0]), np.ones((2, 3)))
        up = RmsFoldedLinear(folded_weight=np.ones(up_shape))
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


class TestScaleDeferral:
    @given(
        st.floats(min_value=1e-6, max_value=1e6),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_scalar_commutes_past_matmul(self, s, n, m, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(n)
        w = rng.standard_normal((n, m))
        deferred = matmul(u, w) * (1.0 / s)
        eager = matmul(u * (1.0 / s), w)
        assert max_rel_error(deferred, eager) <= 1e-12


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
        "fused_layernorm_matmul": lambda x: fused_layernorm_matmul(x, folded, 1e-5),
        "fused_softmax_matmul": lambda x: fused_softmax_matmul(x, v),
        "fused_rmsnorm_matmul": lambda x: fused_rmsnorm_matmul(x, rms_folded, 1e-6),
        "fused_rmsnorm_llama_mlp": lambda x: fused_rmsnorm_llama_mlp(x, gate, up, w_down, 1e-6),
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
        x, FoldedLinear(folded_weight=np.ones((5, 2)), folded_bias=np.zeros(2)), 1e-5)),
    ("fused_layernorm_matmul-epsilon", lambda x: fused_layernorm_matmul(
        x, FoldedLinear(folded_weight=np.ones((6, 2)), folded_bias=np.zeros(2)), 0.0)),
    ("fused_softmax_matmul", lambda x: fused_softmax_matmul(x, np.ones((5, 2)))),
    ("fused_rmsnorm_matmul", lambda x: fused_rmsnorm_matmul(x, RmsFoldedLinear(folded_weight=np.ones((5, 2))))),
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
