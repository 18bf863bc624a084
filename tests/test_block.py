"""Decoder-block tests.

The numeric oracle is a straight-line reference written with plain numpy
(BLAS matmuls, vectorized norms) and no calls into the package kernels.
Graph tests hand-count the work fields and check the structural
invariants the simulator relies on.
"""

import dataclasses
import math
import re
import tracemalloc
import types

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal
from sched_helpers import filtered_site_subgraph, round_trips

import normfusion.block
import normfusion.fusion
import normfusion.tensor as tensor
from normfusion.block import (
    BlockConfig,
    BlockWeights,
    _fold_site,
    _norm_site,
    build_graph,
    gelu,
    random_block_weights,
    run_conventional,
    run_fused,
)
from normfusion.fusion import (
    LlamaMlpWeights,
    fold_layernorm_linear,
    fold_rmsnorm_linear,
    fused_layernorm_matmul,
    fused_rmsnorm_llama_mlp,
    fused_rmsnorm_matmul,
    fused_softmax_matmul,
    silu,
)
from normfusion.norms import LayerNormParams, RmsNormParams, layernorm, rmsnorm, softmax_stable
from normfusion.simulator import CostModel, schedule
from normfusion.tensor import matmul, max_rel_error


def zero_weights(cfg: BlockConfig) -> BlockWeights:
    n, h = cfg.d_model, cfg.mlp_hidden
    z = np.zeros((n, n))
    if cfg.variant == "standard-gelu":
        ln = lambda: LayerNormParams(gamma=np.zeros(n), beta=np.zeros(n), epsilon=cfg.epsilon_ln)
        return BlockWeights(w_q=z, w_k=z, w_v=z, w_o=z, ln1=ln(), ln2=ln(),
                            fc1=np.zeros((n, h)), fc2=np.zeros((h, n)))
    ln = lambda: RmsNormParams(gamma=np.zeros(n), epsilon=cfg.epsilon_ln)
    return BlockWeights(
        w_q=z, w_k=z, w_v=z, w_o=z, ln1=ln(), ln2=ln(),
        mlp=LlamaMlpWeights(w_gate=np.zeros((n, h)), w_up=np.zeros((n, h)), w_down=np.zeros((h, n))),
    )


# --------------------------------------------------------------------------
# straight-line reference (independent of the package kernels)
# --------------------------------------------------------------------------


def reference_block(cfg: BlockConfig, w: BlockWeights, x: np.ndarray) -> np.ndarray:
    def norm(m, params):
        if cfg.variant == "standard-gelu":
            mu = m.mean(axis=1, keepdims=True)
            var = m.var(axis=1, keepdims=True)  # ddof=0: population variance
            return (m - mu) / np.sqrt(var + params.epsilon) * params.gamma + params.beta
        rms = np.sqrt((m**2).mean(axis=1, keepdims=True) + params.epsilon)
        return m / rms * params.gamma

    def softmax_rows(s):
        e = np.exp(s - s.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    d_head = cfg.d_model // cfg.n_heads
    n1 = norm(x, w.ln1)
    q, k, v = n1 @ w.w_q, n1 @ w.w_k, n1 @ w.w_v
    heads = []
    for i in range(cfg.n_heads):
        sl = slice(i * d_head, (i + 1) * d_head)
        scores = q[:, sl] @ k[:, sl].T / math.sqrt(d_head)
        heads.append(softmax_rows(scores) @ v[:, sl])
    hidden = x + np.concatenate(heads, axis=1) @ w.w_o

    n2 = norm(hidden, w.ln2)
    if cfg.variant == "standard-gelu":
        pre = n2 @ w.fc1
        act = 0.5 * pre * (1.0 + np.tanh(0.7978845608028654 * (pre + 0.044715 * pre**3)))
        mlp = act @ w.fc2
    else:
        g, u = n2 @ w.mlp.w_gate, n2 @ w.mlp.w_up
        mlp = (g / (1.0 + np.exp(-g)) * u) @ w.mlp.w_down
    return hidden + mlp


@pytest.mark.parametrize("variant", ["standard-gelu", "llama-swiglu"])
class TestBlockExecution:
    def test_zero_weights_pass_input_through(self, variant):
        cfg = BlockConfig(d_model=8, n_heads=2, seq_len=4, mlp_hidden=12, variant=variant)
        w = zero_weights(cfg)
        x = np.random.default_rng(40).standard_normal((4, 8))
        assert_array_equal(run_conventional(cfg, w, x), x)
        assert_array_equal(run_fused(cfg, w, x), x)

    def test_single_token_sequence(self, variant):
        cfg = BlockConfig(d_model=8, n_heads=2, seq_len=1, mlp_hidden=12, variant=variant)
        rng = np.random.default_rng(41)
        w = random_block_weights(cfg, rng)
        x = rng.standard_normal((1, 8))
        conv = run_conventional(cfg, w, x)
        assert max_rel_error(run_fused(cfg, w, x), conv) <= 1e-12

    def test_against_straight_line_reference(self, variant):
        cfg = BlockConfig(d_model=8, n_heads=2, seq_len=4, mlp_hidden=16, variant=variant)
        rng = np.random.default_rng(42)
        w = random_block_weights(cfg, rng)
        x = rng.standard_normal((4, 8))
        ref = reference_block(cfg, w, x)
        assert max_rel_error(run_conventional(cfg, w, x), ref) <= 1e-10
        assert max_rel_error(run_fused(cfg, w, x), ref) <= 1e-10

    def test_fused_matches_conventional_random_blocks(self, variant):
        rng = np.random.default_rng(43)
        for _ in range(5):
            heads = int(rng.choice([2, 4]))
            cfg = BlockConfig(
                d_model=heads * int(rng.integers(2, 9)),
                n_heads=heads,
                seq_len=int(rng.integers(2, 12)),
                mlp_hidden=int(rng.integers(8, 40)),
                variant=variant,
            )
            w = random_block_weights(cfg, rng)
            x = rng.standard_normal((cfg.seq_len, cfg.d_model))
            err = max_rel_error(run_fused(cfg, w, x), run_conventional(cfg, w, x))
            assert err <= 1e-10

    def test_shape_mismatch_rejected(self, variant):
        cfg = BlockConfig(d_model=8, n_heads=2, seq_len=4, mlp_hidden=12, variant=variant)
        w = random_block_weights(cfg, np.random.default_rng(44))
        with pytest.raises(ValueError, match="input shape"):
            run_conventional(cfg, w, np.zeros((3, 8)))


# --------------------------------------------------------------------------
# row-batched fused execution and compile-once weights
# --------------------------------------------------------------------------


def per_row_fused(cfg: BlockConfig, w: BlockWeights, x: np.ndarray) -> np.ndarray:
    """The fused block composed from the single-row evaluators, one row at a
    time, with every projection folded on its own."""
    d = cfg.d_head
    if cfg.variant == "standard-gelu":
        fold, fused_norm_matmul = fold_layernorm_linear, fused_layernorm_matmul
    else:
        fold, fused_norm_matmul = fold_rmsnorm_linear, fused_rmsnorm_matmul
    q, k, v = (np.stack([fused_norm_matmul(row, fold(w.ln1, m)) for row in x])
               for m in (w.w_q, w.w_k, w.w_v))
    heads = []
    for i in range(cfg.n_heads):
        sl = slice(i * d, (i + 1) * d)
        scores = matmul(q[:, sl], k[:, sl].T) * (1.0 / math.sqrt(d))
        heads.append(np.stack([fused_softmax_matmul(row, v[:, sl]) for row in scores]))
    hidden = x + matmul(np.hstack(heads), w.w_o)
    if cfg.variant == "standard-gelu":
        fc1 = fold(w.ln2, w.fc1)
        mlp = matmul(gelu(np.stack([fused_norm_matmul(row, fc1) for row in hidden])), w.fc2)
    else:
        gate, up = fold(w.ln2, w.mlp.w_gate), fold(w.ln2, w.mlp.w_up)
        mlp = np.stack([fused_rmsnorm_llama_mlp(row, gate, up, w.mlp.w_down) for row in hidden])
    return hidden + mlp


def per_row_conventional(cfg: BlockConfig, w: BlockWeights, x: np.ndarray) -> np.ndarray:
    """The conventional block composed from the single-row norm kernels, one
    row at a time."""
    norm = layernorm if cfg.variant == "standard-gelu" else rmsnorm
    d = cfg.d_head
    normed = np.stack([norm(row, w.ln1) for row in x])
    q, k, v = matmul(normed, w.w_q), matmul(normed, w.w_k), matmul(normed, w.w_v)
    heads = []
    for i in range(cfg.n_heads):
        sl = slice(i * d, (i + 1) * d)
        scores = matmul(q[:, sl], k[:, sl].T) * (1.0 / math.sqrt(d))
        heads.append(matmul(np.stack([softmax_stable(row) for row in scores]), v[:, sl]))
    hidden = x + matmul(np.hstack(heads), w.w_o)
    normed2 = np.stack([norm(row, w.ln2) for row in hidden])
    if cfg.variant == "standard-gelu":
        mlp = matmul(gelu(matmul(normed2, w.fc1)), w.fc2)
    else:
        gate, up = matmul(normed2, w.mlp.w_gate), matmul(normed2, w.mlp.w_up)
        mlp = matmul(silu(gate) * up, w.mlp.w_down)
    return hidden + mlp


def _rows(case: str, rng, seq: int, n: int) -> np.ndarray:
    if case == "near-constant":
        return rng.uniform(-2.0, 2.0, size=(seq, 1)) + 1e-7 * rng.standard_normal((seq, n))
    x = rng.standard_normal((seq, n))
    if case == "dc-offset":
        x += rng.choice([-1e4, -8.0, 8.0, 1e4], size=(seq, 1))
    return x


@pytest.mark.parametrize("variant", ["standard-gelu", "llama-swiglu"])
@pytest.mark.parametrize("case,seq_len", [("plain", 1), ("plain", 7), ("dc-offset", 6), ("near-constant", 5)])
def test_row_batched_fused_is_bit_identical_to_per_row(variant, case, seq_len):
    cfg = BlockConfig(d_model=12, n_heads=3, seq_len=seq_len, mlp_hidden=20, variant=variant)
    rng = np.random.default_rng(47)
    w = random_block_weights(cfg, rng)
    x = _rows(case, rng, seq_len, cfg.d_model)
    assert_array_equal(run_fused(cfg, w, x), per_row_fused(cfg, w, x))
    assert_array_equal(run_conventional(cfg, w, x), per_row_conventional(cfg, w, x))


@pytest.mark.parametrize("variant", ["standard-gelu", "llama-swiglu"])
@pytest.mark.parametrize("n_heads,seq_len", [(1, 5), (3, 1), (4, 6)])
def test_both_matmul_kernels_give_the_same_block(request, variant, n_heads, seq_len):
    """All heads run as one batch per step; both kernels give its bits, one head and seq 1 too."""
    cfg = BlockConfig(d_model=4 * n_heads, n_heads=n_heads, seq_len=seq_len, mlp_hidden=10, variant=variant)
    rng = np.random.default_rng(48)
    w = random_block_weights(cfg, rng)
    x = _rows("dc-offset", rng, seq_len, cfg.d_model)
    expected = run_conventional(cfg, w, x), run_fused(cfg, w, x)
    request.getfixturevalue("chunked_kernel")
    assert_array_equal(run_conventional(cfg, w, x).view(np.uint64), expected[0].view(np.uint64))
    assert_array_equal(run_fused(cfg, w, x).view(np.uint64), expected[1].view(np.uint64))


@pytest.mark.parametrize("strict", [False, True], ids=["default", "strict"])
@pytest.mark.parametrize("path", ["rmsnorm", "fused", "block-conventional", "block-fused"])
def test_rms_underflow_without_epsilon_named(request, path, strict):
    """A finite nonzero row whose squares all underflow gets its RMSNorm; an all-zero row is named.

    The row is [1, -2, 3, 0] * 2**-565 (about 1.7e-170), so with epsilon 0
    its RMSNorm, [0.53, -1.07, 1.60, 0], and the fused path's product are
    bit for bit those of [1, -2, 3, 0]. Both block paths run it and agree.
    """
    if strict:
        request.getfixturevalue("strict_fp")
    p = RmsNormParams(gamma=np.ones(4))
    fold = fold_rmsnorm_linear(p, np.ones((4, 3)))
    cfg = BlockConfig(d_model=4, n_heads=2, seq_len=2, mlp_hidden=6, variant="llama-swiglu")
    w = dataclasses.replace(random_block_weights(cfg, np.random.default_rng(54)), ln1=p)
    run = {
        "rmsnorm": lambda rows: rmsnorm(rows, p),
        "fused": lambda rows: fused_rmsnorm_matmul(rows, fold),
        "block-conventional": lambda rows: run_conventional(cfg, w, rows),
        "block-fused": lambda rows: run_fused(cfg, w, rows),
    }[path]
    row = np.array([1.0, -2.0, 3.0, 0.0])
    tiny = np.array([[1.0, 2.0, 3.0, 4.0], row * 2.0**-565])
    out = run(tiny)
    if path == "rmsnorm":
        assert_array_equal(out[1].view(np.uint64), rmsnorm(row, p).view(np.uint64))
        assert np.allclose(out[1], [0.53, -1.07, 1.60, 0.0], atol=0.005)
    elif path == "fused":
        assert_array_equal(out[1].view(np.uint64), fused_rmsnorm_matmul(row, fold).view(np.uint64))
    else:
        assert np.isfinite(out).all()
        assert max_rel_error(run_fused(cfg, w, tiny), run_conventional(cfg, w, tiny)) <= 1e-10
    with pytest.raises(ValueError, match="^rms of an all-zero vector with epsilon=0 divides by zero$"):
        run(np.array([[1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0]]))


def test_rms_without_epsilon_does_not_see_a_power_of_two_scale(strict_fp):
    """With epsilon 0, RMSNorm of x * 2**-k is RMSNorm of x, bit for bit, for k to 1000; the fused path holds 1e-14."""
    rng = np.random.default_rng(55)
    x, f = rng.standard_normal((4, 64)), rng.standard_normal((64, 16))
    p = RmsNormParams(gamma=rng.uniform(0.5, 1.5, 64))
    fold = fold_rmsnorm_linear(p, f)
    expected, fused = rmsnorm(x, p), fused_rmsnorm_matmul(x, fold)
    for k in range(1001):
        scaled = x * 2.0**-k
        assert_array_equal(scaled * 2.0**k, x)  # the scale itself is exact
        assert_array_equal(rmsnorm(scaled, p).view(np.uint64), expected.view(np.uint64))
        assert max_rel_error(fused_rmsnorm_matmul(scaled, fold), fused) <= 1e-14


def test_rms_below_normal_range_against_longdouble_oracle(strict_fp):
    """With epsilon 0, both RMSNorm paths of x * 2**-k hold 1e-14 of a longdouble oracle for k to 1070.

    Past k ~ 1020 the rms falls below float64's normal range, and at
    k = 1070 the inputs keep only a few bits. The oracle normalizes the
    rounded inputs brought back up exactly, `np.ldexp(xs, k)`, so it
    measures the normalization alone. Both paths divide the pre-scaled
    rows, or their product, by the pre-scaled root, so each is also bit
    for bit the result on `np.ldexp(xs, k)`.
    """
    rng = np.random.default_rng(57)
    x, f = rng.standard_normal((4, 64)), rng.standard_normal((64, 16))
    p = RmsNormParams(gamma=rng.uniform(0.5, 1.5, 64))
    fold = fold_rmsnorm_linear(p, f)
    for k in range(1071):
        with np.errstate(under="ignore"):  # the inputs below float64's normal range round
            xs = np.ldexp(x, -k)
        up = np.ldexp(xs, k).astype(np.longdouble)
        expected = up / np.sqrt((up * up).mean(axis=-1, keepdims=True)) * p.gamma
        conventional, fused = rmsnorm(xs, p), fused_rmsnorm_matmul(xs, fold)
        assert max_rel_error(conventional, expected.astype(np.float64)) <= 1e-14, k
        assert max_rel_error(fused, (expected @ f).astype(np.float64)) <= 1e-14, k
        assert_array_equal(conventional.view(np.uint64), rmsnorm(np.ldexp(xs, k), p).view(np.uint64))
        assert_array_equal(fused.view(np.uint64), fused_rmsnorm_matmul(np.ldexp(xs, k), fold).view(np.uint64))


def test_batched_rms_zero_row_without_epsilon_rejected():
    p = RmsNormParams(gamma=[1.0, 1.0])
    fl = fold_rmsnorm_linear(p, np.ones((2, 3)))
    rows = np.array([[1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="zero"):
        fused_rmsnorm_matmul(rows, fl)
    with pytest.raises(ValueError, match="zero"):
        rmsnorm(rows, p)


@pytest.mark.parametrize("case", ["w_q-scaled", "fc1-scaled", "rows-spread"])
@pytest.mark.parametrize("run", [run_conventional, run_fused], ids=["conventional", "fused"])
def test_overflow_inside_the_block_rejected(run, case):
    """Finite weights whose projections overflow, or rows spanning ±1.7e308, whose spread
    overflows, end in a non-finite rejection."""
    cfg = BlockConfig(d_model=128, n_heads=4, seq_len=8, mlp_hidden=512)
    rng = np.random.default_rng(51)
    w = random_block_weights(cfg, rng)
    x = rng.standard_normal((cfg.seq_len, cfg.d_model))
    if case == "w_q-scaled":
        w = dataclasses.replace(w, w_q=w.w_q * 5e307)
    elif case == "fc1-scaled":
        w = dataclasses.replace(w, fc1=w.fc1 * 5e307)
    else:
        x = x + np.where(np.arange(cfg.d_model) % 2 == 0, 1.7e308, -1.7e308)
    assert np.isfinite(x).all() and all(np.isfinite(m).all() for m in (w.w_q, w.fc1))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
        run(cfg, w, x)


@pytest.mark.parametrize("variant,norm", [("standard-gelu", "layernorm"), ("llama-swiglu", "rmsnorm")])
@pytest.mark.parametrize("run", [run_conventional, run_fused], ids=["conventional", "fused"])
def test_overflowing_rows_name_the_norm(run, variant, norm):
    """A finite row of ±1e200, whose variance or mean square overflows, is rejected by its norm."""
    cfg = BlockConfig(d_model=8, n_heads=2, seq_len=3, mlp_hidden=12, variant=variant)
    rng = np.random.default_rng(52)
    w = random_block_weights(cfg, rng)
    x = rng.standard_normal((cfg.seq_len, cfg.d_model))
    x[1] = np.where(np.arange(cfg.d_model) % 2 == 0, 1e200, -1e200)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match=f"{norm}: .*non-finite"):
        run(cfg, w, x)


@pytest.mark.parametrize("variant,norm", [("standard-gelu", "layernorm"), ("llama-swiglu", "rmsnorm")])
@pytest.mark.parametrize("run", [run_conventional, run_fused], ids=["conventional", "fused"])
def test_overflowing_rows_name_the_norm_under_strict_errors(strict_fp, run, variant, norm):
    """`test_overflowing_rows_name_the_norm` with every floating-point error raising."""
    cfg = BlockConfig(d_model=8, n_heads=2, seq_len=3, mlp_hidden=12, variant=variant)
    rng = np.random.default_rng(52)
    w = random_block_weights(cfg, rng)
    x = rng.standard_normal((cfg.seq_len, cfg.d_model))
    x[1] = np.where(np.arange(cfg.d_model) % 2 == 0, 1e200, -1e200)
    with pytest.raises(ValueError, match=f"{norm}: .*non-finite"):
        run(cfg, w, x)


@pytest.mark.parametrize("variant", ["standard-gelu", "llama-swiglu"])
@pytest.mark.parametrize("run", [run_conventional, run_fused], ids=["conventional", "fused"])
def test_exp_underflow_gives_the_same_bits_under_strict_errors(run, variant):
    """Attention logits spanning more than ~745 underflow exp, which rounds correctly: not an error."""
    cfg = BlockConfig(d_model=16, n_heads=2, seq_len=8, mlp_hidden=24, variant=variant)
    rng = np.random.default_rng(53)
    w = random_block_weights(cfg, rng)
    w = dataclasses.replace(w, w_q=w.w_q * 300)
    x = rng.standard_normal((cfg.seq_len, cfg.d_model))
    expected = run(cfg, w, x)
    with np.errstate(all="raise"):
        assert_array_equal(run(cfg, w, x).view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("run", [run_conventional, run_fused], ids=["conventional", "fused"])
def test_subnormal_gated_product_gives_the_same_bits_under_strict_errors(run):
    """Gate and up projections near 1e-155 make silu(gate) * up subnormal, which rounds correctly: not an error."""
    cfg = BlockConfig(d_model=16, n_heads=2, seq_len=4, mlp_hidden=24, variant="llama-swiglu")
    rng = np.random.default_rng(54)
    w = random_block_weights(cfg, rng)
    mlp = dataclasses.replace(w.mlp, w_gate=w.mlp.w_gate * 1e-155, w_up=w.mlp.w_up * 1e-155)
    w = dataclasses.replace(w, mlp=mlp)
    x = rng.standard_normal((cfg.seq_len, cfg.d_model))
    expected = run(cfg, w, x)
    with np.errstate(all="raise"):
        assert_array_equal(run(cfg, w, x).view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("scale,epsilon", [(1e-160, 1e-6), (1e-307, 1.0)])
@pytest.mark.parametrize("variant", ["standard-gelu", "llama-swiglu"])
@pytest.mark.parametrize("run", [run_conventional, run_fused], ids=["conventional", "fused"])
def test_tiny_rows_give_the_same_bits_under_strict_errors(run, variant, scale, epsilon):
    """Rows near 1e-160 make the attention scores subnormal, rows near 1e-307 the norms' outputs:
    each correctly rounded, not an error. Zero betas keep the layernorm block's activations tiny."""
    cfg = BlockConfig(d_model=16, n_heads=2, seq_len=4, mlp_hidden=24, variant=variant, epsilon_ln=epsilon)
    rng = np.random.default_rng(55)
    w = random_block_weights(cfg, rng)
    if variant == "standard-gelu":
        w = dataclasses.replace(w, **{site: dataclasses.replace(getattr(w, site), beta=np.zeros(16))
                                      for site in ("ln1", "ln2")})
    x = rng.standard_normal((cfg.seq_len, cfg.d_model)) * scale
    expected = run(cfg, w, x)
    with np.errstate(all="raise"):
        assert_array_equal(run(cfg, w, x).view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("variant,epsilon", [("standard-gelu", 1e-1), ("llama-swiglu", 0.0)])
def test_fused_uses_the_weights_epsilon(variant, epsilon):
    """Both paths scale each norm by its own parameters' epsilon, not the config's."""
    cfg = BlockConfig(d_model=8, n_heads=2, seq_len=5, mlp_hidden=12, variant=variant)
    rng = np.random.default_rng(50)
    w = random_block_weights(cfg, rng)
    w = dataclasses.replace(w, ln1=dataclasses.replace(w.ln1, epsilon=epsilon),
                            ln2=dataclasses.replace(w.ln2, epsilon=epsilon))
    assert epsilon != cfg.epsilon_ln
    x = rng.standard_normal((cfg.seq_len, cfg.d_model))
    assert max_rel_error(run_fused(cfg, w, x), run_conventional(cfg, w, x)) <= 1e-10


@pytest.mark.parametrize("variant", ["standard-gelu", "llama-swiglu"])
def test_weights_fold_once(monkeypatch, variant):
    fold_name = "fold_layernorm_linear" if variant == "standard-gelu" else "fold_rmsnorm_linear"
    fold = getattr(normfusion.block, fold_name)
    calls = []

    def counting_fold(p, f):
        calls.append(f)
        return fold(p, f)

    monkeypatch.setattr(normfusion.block, fold_name, counting_fold)
    cfg = BlockConfig(d_model=8, n_heads=2, seq_len=3, mlp_hidden=12, variant=variant)
    w = random_block_weights(cfg, np.random.default_rng(48))
    x = np.random.default_rng(49).standard_normal((3, 8))
    assert w.folded is w.folded
    first = run_fused(cfg, w, x)
    assert_array_equal(run_fused(cfg, w, x), first)
    # one fold per site, on its projections joined in column order: Q|K|V, then fc1 or gate|up
    mlp_in = [w.fc1] if variant == "standard-gelu" else [w.mlp.w_gate, w.mlp.w_up]
    assert len(calls) == 2
    assert_array_equal(calls[0], np.hstack([w.w_q, w.w_k, w.w_v]))
    assert_array_equal(calls[1], np.hstack(mlp_in))


@pytest.mark.parametrize("kernel", ["einsum", "chunked"])
@pytest.mark.parametrize("variant", ["standard-gelu", "llama-swiglu"])
def test_joined_fold_is_the_per_projection_folds_joined(request, variant, kernel):
    """Each site folded in one call has the bits of each projection folded on its own, then joined."""
    if kernel == "chunked":
        request.getfixturevalue("chunked_kernel")
    cfg = BlockConfig(d_model=12, n_heads=3, seq_len=2, mlp_hidden=20, variant=variant)
    w = random_block_weights(cfg, np.random.default_rng(52))
    fold = fold_layernorm_linear if variant == "standard-gelu" else fold_rmsnorm_linear
    mlp_in = (w.fc1,) if variant == "standard-gelu" else (w.mlp.w_gate, w.mlp.w_up)
    for site, mats in {"ln1": (w.w_q, w.w_k, w.w_v), "ln2": mlp_in}.items():
        folds = [fold(getattr(w, site), m) for m in mats]
        compiled = w.folded[site]
        expected = np.hstack([f.folded_weight for f in folds])
        assert_array_equal(compiled.folded_weight.view(np.uint64), expected.view(np.uint64))
        if variant == "standard-gelu":
            expected = np.hstack([f.folded_bias for f in folds])
            assert_array_equal(compiled.folded_bias.view(np.uint64), expected.view(np.uint64))
        else:
            assert compiled.folded_bias is None


@pytest.mark.parametrize("kernel", ["einsum", "chunked"])
@pytest.mark.parametrize("rank", [1, 2], ids=["row", "stack"])
@pytest.mark.parametrize("norm", ["layernorm", "rmsnorm"])
def test_norm_site_is_the_public_kernels(request, norm, rank, kernel):
    """The block's site evaluation has the bits of the public norm, matmul, fold and fused evaluator."""
    if kernel == "chunked":
        request.getfixturevalue("chunked_kernel")
    rng = np.random.default_rng(54)
    n = 12
    if norm == "layernorm":
        p = LayerNormParams(gamma=rng.uniform(0.5, 1.5, n), beta=rng.standard_normal(n), epsilon=1e-5)
        norm_fn, fold_fn, fused_fn = layernorm, fold_layernorm_linear, fused_layernorm_matmul
    else:
        p = RmsNormParams(gamma=rng.uniform(0.5, 1.5, n), epsilon=1e-5)
        norm_fn, fold_fn, fused_fn = rmsnorm, fold_rmsnorm_linear, fused_rmsnorm_matmul
    mats = tuple(rng.standard_normal((n, m)) for m in (5, 7, 3))
    joined = np.hstack(mats)  # a site's one matrix, its projections joined column-wise
    x = rng.standard_normal((4, n)[2 - rank:]) + 100.0

    normed = norm_fn(x, p)
    expected = np.hstack([matmul(normed, m) for m in mats])
    assert_array_equal(_norm_site(x, p, joined).view(np.uint64), expected.view(np.uint64))

    fold, public_fold = _fold_site(p, joined), fold_fn(p, joined)
    assert_array_equal(fold.folded_weight.view(np.uint64), public_fold.folded_weight.view(np.uint64))
    assert (fold.folded_bias is None) == (public_fold.folded_bias is None)
    if fold.folded_bias is not None:
        assert_array_equal(fold.folded_bias.view(np.uint64), public_fold.folded_bias.view(np.uint64))
    assert fold.epsilon == public_fold.epsilon == p.epsilon
    expected = fused_fn(x, public_fold)
    assert_array_equal(_norm_site(x, p, joined, fold).view(np.uint64), expected.view(np.uint64))


def longdouble_layernorm_site(x, p: LayerNormParams, mat) -> np.ndarray:
    """layernorm(x) @ mat per row in np.longdouble, rounded to float64 at the end.

    Each row is first shifted by its first element, which layernorm does
    not see in exact arithmetic. The shift is exact in a 64-bit mantissa
    for every element within a factor of 2^11 of the first, as all are
    at a large offset, so a large row offset costs the oracle nothing.
    """
    y = x.astype(np.longdouble)
    y -= y[:, :1]
    dev = y - y.sum(axis=1, keepdims=True) / y.shape[1]
    var = (dev * dev).sum(axis=1, keepdims=True) / y.shape[1]
    normed = dev / np.sqrt(var + np.longdouble(p.epsilon)) * p.gamma.astype(np.longdouble) + p.beta
    return (normed @ mat.astype(np.longdouble)).astype(np.float64)


extended = pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="np.longdouble is not 80-bit extended precision here")


@extended
@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6, 1e8])
@pytest.mark.parametrize("n, rows", [(256, 8), (4096, 4)])
def test_layernorm_sites_against_a_longdouble_oracle(n, rows, offset):
    """Both layernorm-site paths within 1e-10 of the oracle, on rows offset by ±`offset`, 64 output columns."""
    rng = np.random.default_rng(n)
    p = LayerNormParams(gamma=rng.uniform(0.8, 1.2, n), beta=0.05 * rng.standard_normal(n), epsilon=1e-5)
    mat = rng.standard_normal((n, 64)) / math.sqrt(n)
    x = rng.standard_normal((rows, n)) + offset * rng.choice([-1.0, 1.0], size=(rows, 1))
    expected = longdouble_layernorm_site(x, p, mat)
    assert max_rel_error(_norm_site(x, p, mat), expected) <= 1e-10
    assert max_rel_error(_norm_site(x, p, mat, _fold_site(p, mat)), expected) <= 1e-10


@extended
@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 2, 5, 64, 4096]),
    offset=st.floats(min_value=-1e8, max_value=1e8),
    spread=st.sampled_from([1.0, 1e-3, 1e-6, 1e-9, 0.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_layernorm_sites_against_the_oracle_at_any_offset(n, offset, spread, seed):
    """Both layernorm-site paths within 1e-10 of the oracle: rows at a DC offset up to ±1e8,
    each of its own sign, and near-constant rows, whose spread is down to 1e-9 or nothing."""
    rng = np.random.default_rng(seed)
    p = LayerNormParams(gamma=rng.uniform(0.8, 1.2, n), beta=0.05 * rng.standard_normal(n), epsilon=1e-5)
    mat = rng.standard_normal((n, 16)) / math.sqrt(n)
    x = offset * rng.choice([-1.0, 1.0], size=(3, 1)) + spread * rng.standard_normal((3, n))
    expected = longdouble_layernorm_site(x, p, mat)
    assert max_rel_error(_norm_site(x, p, mat), expected) <= 1e-10
    assert max_rel_error(_norm_site(x, p, mat, _fold_site(p, mat)), expected) <= 1e-10


@extended
@pytest.mark.parametrize("run", [run_conventional, run_fused], ids=["conventional", "fused"])
def test_rows_offset_by_nearly_the_float64_limit_match_the_oracle(run):
    """Rows offset by ±1.7e308, each row its own sign, are constant to float64: both paths
    shift them to zero, so the block is finite and within 1e-10 of the straight-line
    reference run in np.longdouble, whose range holds the rows' sums."""
    cfg = BlockConfig(d_model=128, n_heads=4, seq_len=8, mlp_hidden=512)
    rng = np.random.default_rng(51)
    w = random_block_weights(cfg, rng)
    x = rng.standard_normal((cfg.seq_len, cfg.d_model))
    x = x + np.where(np.arange(cfg.seq_len) % 2 == 0, 1.7e308, -1.7e308)[:, np.newaxis]
    expected = reference_block(cfg, w, x.astype(np.longdouble)).astype(np.float64)
    out = run(cfg, w, x)
    assert np.isfinite(out).all()
    assert max_rel_error(out, expected) <= 1e-10


@pytest.mark.parametrize("variant", ["standard-gelu", "llama-swiglu"])
def test_folded_is_a_read_only_site_mapping(variant):
    cfg = BlockConfig(d_model=8, n_heads=2, seq_len=3, mlp_hidden=12, variant=variant)
    w = random_block_weights(cfg, np.random.default_rng(55))
    assert list(w.folded) == list(w.projections)
    with pytest.raises(TypeError):
        w.folded["ln1"] = w.folded["ln2"]
    with pytest.raises(TypeError):
        del w.folded["ln2"]


def _rebuilt_from_copies(w: BlockWeights) -> tuple[BlockWeights, list[np.ndarray]]:
    """`w` rebuilt from fresh writable copies of its arrays, and those copies."""
    sources = []

    def src(a):
        sources.append(np.array(a))
        return sources[-1]

    if isinstance(w.ln1, LayerNormParams):
        ln = lambda p: LayerNormParams(gamma=src(p.gamma), beta=src(p.beta), epsilon=p.epsilon)
        extra = dict(fc1=src(w.fc1), fc2=src(w.fc2))
    else:
        ln = lambda p: RmsNormParams(gamma=src(p.gamma), epsilon=p.epsilon)
        extra = dict(mlp=LlamaMlpWeights(w_gate=src(w.mlp.w_gate), w_up=src(w.mlp.w_up),
                                         w_down=src(w.mlp.w_down)))
    rebuilt = BlockWeights(w_q=src(w.w_q), w_k=src(w.w_k), w_v=src(w.w_v), w_o=src(w.w_o),
                           ln1=ln(w.ln1), ln2=ln(w.ln2), **extra)
    return rebuilt, sources


@pytest.mark.parametrize("variant", ["standard-gelu", "llama-swiglu"])
def test_weights_are_private_and_read_only(variant):
    cfg = BlockConfig(d_model=8, n_heads=2, seq_len=3, mlp_hidden=12, variant=variant)
    original = random_block_weights(cfg, np.random.default_rng(50))
    x = np.random.default_rng(51).standard_normal((3, 8))
    expected = run_fused(cfg, original, x)

    w, sources = _rebuilt_from_copies(original)
    for a in sources:
        a += 1.0  # writes after construction reach neither w nor its fold
    assert_array_equal(run_fused(cfg, w, x), expected)
    assert_array_equal(run_conventional(cfg, w, x), run_conventional(cfg, original, x))

    with pytest.raises(ValueError, match="read-only"):
        w.w_q[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        w.ln1.gamma[0] = 1.0
    for site in ("ln1", "ln2"):
        fold = w.folded[site]
        for array in (fold.folded_weight, fold.folded_bias):
            if array is not None:
                with pytest.raises(ValueError, match="read-only"):
                    array[0, ...] = 1.0


@pytest.mark.parametrize("variant", ["standard-gelu", "llama-swiglu"])
def test_joined_projections_are_read_only_views_of_one_buffer(variant):
    """Q|K|V and gate|up are each stored once; each site's `projections` entry is that one matrix."""
    cfg = BlockConfig(d_model=8, n_heads=2, seq_len=3, mlp_hidden=12, variant=variant)
    rng = np.random.default_rng(56)
    q, k, v, gate, up = (rng.standard_normal((8, cols)) for cols in (8, 8, 8, 12, 12))
    w = random_block_weights(cfg, rng)
    mlp = None if w.mlp is None else LlamaMlpWeights(w_gate=gate, w_up=up, w_down=w.mlp.w_down)
    w = dataclasses.replace(w, w_q=q, w_k=k, w_v=v, mlp=mlp)
    assert w.w_qkv.shape == (8, 24) and not w.w_qkv.flags.writeable
    for view, source in zip((w.w_q, w.w_k, w.w_v), (q, k, v)):
        assert np.shares_memory(view, w.w_qkv) and not view.flags.writeable
        assert_array_equal(view, source)
    assert_array_equal(w.w_qkv, np.hstack([q, k, v]))
    ln2 = w.fc1
    if variant == "llama-swiglu":
        assert mlp.w_gate_up.shape == (8, 24) and not mlp.w_gate_up.flags.writeable
        for view, source in zip((mlp.w_gate, mlp.w_up), (gate, up)):
            assert np.shares_memory(view, mlp.w_gate_up) and not view.flags.writeable
            assert_array_equal(view, source)
        ln2 = mlp.w_gate_up
    assert list(w.projections) == ["ln1", "ln2"]
    assert w.projections["ln1"] is w.w_qkv and w.projections["ln2"] is ln2


def _weight_arrays(w: BlockWeights) -> dict[str, np.ndarray]:
    """Every array `w` holds, by name, the column views and their joined buffers included."""
    names = ["w_q", "w_k", "w_v", "w_qkv", "w_o", "fc1", "fc2"]
    arrays = {name: getattr(w, name) for name in names if getattr(w, name) is not None}
    for site in ("ln1", "ln2"):
        p = getattr(w, site)
        arrays[f"{site}.gamma"] = p.gamma
        if isinstance(p, LayerNormParams):
            arrays[f"{site}.beta"] = p.beta
    if w.mlp is not None:
        arrays.update({f"mlp.{name}": getattr(w.mlp, name) for name in ("w_gate", "w_up", "w_gate_up", "w_down")})
    return arrays


def _drawn_in_documented_order(cfg: BlockConfig, rng: np.random.Generator) -> BlockWeights:
    """`random_block_weights`' draws made one at a time, in its documented order, through the public constructors."""
    n, h = cfg.d_model, cfg.mlp_hidden
    proj = lambda rows, cols: rng.standard_normal((rows, cols)) / math.sqrt(rows)
    if cfg.variant == "standard-gelu":
        ln1, ln2 = (LayerNormParams(gamma=rng.uniform(0.8, 1.2, size=n), beta=rng.standard_normal(n) * 0.05,
                                    epsilon=cfg.epsilon_ln) for _ in range(2))
        extra = dict(fc1=proj(n, h), fc2=proj(h, n))
    else:
        ln1, ln2 = (RmsNormParams(gamma=rng.uniform(0.8, 1.2, size=n), epsilon=cfg.epsilon_ln) for _ in range(2))
        gate, up, down = proj(n, h), proj(n, h), proj(h, n)
        extra = dict(mlp=LlamaMlpWeights(w_gate=gate, w_up=up, w_down=down))
    q, k, v, o = (proj(n, n) for _ in range(4))
    return BlockWeights(w_q=q, w_k=k, w_v=v, w_o=o, ln1=ln1, ln2=ln2, **extra)


# d_model and mlp_hidden are not squares, so 1/sqrt(fan-in) is inexact and a reciprocal multiply differs
@pytest.mark.parametrize("seed", [60, 61, 62])
@pytest.mark.parametrize("variant", ["standard-gelu", "llama-swiglu"])
def test_random_weights_are_the_documented_draws(variant, seed):
    """Norm parameters, then the MLP, then Q, K, V and W_o, each matrix standard normal / sqrt(fan-in), bit for bit."""
    cfg = BlockConfig(d_model=8, n_heads=2, seq_len=3, mlp_hidden=12, variant=variant)
    w = random_block_weights(cfg, np.random.default_rng(seed))
    expected = _weight_arrays(_drawn_in_documented_order(cfg, np.random.default_rng(seed)))
    arrays = _weight_arrays(w)
    assert list(arrays) == list(expected)
    for name, a in arrays.items():
        assert a.dtype == np.float64 and a.shape == expected[name].shape, name
        assert_array_equal(a.view(np.uint64), expected[name].view(np.uint64), err_msg=name)
    assert (w.ln1.epsilon, w.ln2.epsilon) == (cfg.epsilon_ln, cfg.epsilon_ln)


@pytest.mark.parametrize("variant", ["standard-gelu", "llama-swiglu"])
def test_random_weights_are_read_only_views_of_their_buffers(variant):
    """Every array `random_block_weights` hands over is read-only, and each column view lies in its joined buffer."""
    cfg = BlockConfig(d_model=8, n_heads=2, seq_len=3, mlp_hidden=12, variant=variant)
    w = random_block_weights(cfg, np.random.default_rng(63))
    for name, a in _weight_arrays(w).items():
        assert not a.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0
    _assert_views_fill_their_joins(w)


def _assert_views_fill_their_joins(w: BlockWeights) -> None:
    """Q, K and V, and gate and up, are column views of their joined buffer, side by side and filling it."""
    for views, joined in [((w.w_q, w.w_k, w.w_v), w.w_qkv)] + (
            [] if w.mlp is None else [((w.mlp.w_gate, w.mlp.w_up), w.mlp.w_gate_up)]):
        start = 0
        for view in views:
            assert np.shares_memory(view, joined)
            assert_array_equal(view, joined[:, start:start + view.shape[1]])
            start += view.shape[1]
        assert start == joined.shape[1]


def _assert_bit_equal_and_read_only(copied, original) -> None:
    """Every field of `copied` equals `original`'s, each array bit for bit and read-only."""
    assert type(copied) is type(original)
    for name, value in vars(original).items():
        if isinstance(value, np.ndarray):
            assert not getattr(copied, name).flags.writeable, name
            assert_array_equal(getattr(copied, name).view(np.uint64), value.view(np.uint64), err_msg=name)
        else:
            assert type(getattr(copied, name)) is type(value) and getattr(copied, name) == value, name


@pytest.mark.parametrize("variant", ["standard-gelu", "llama-swiglu"])
def test_copied_and_pickled_weights_are_read_only_views(variant):
    """A copy or an unpickled weight is rebuilt read-only, its views in their joins, with the original's bits and folds.

    numpy's `__deepcopy__` and unpickling make writable arrays, and a
    dataclass rebuilt from its fields kept them: `w_qkv` and `gamma` came
    back writable, and `w_q` no longer a view of `w_qkv`.
    """
    cfg = BlockConfig(d_model=8, n_heads=2, seq_len=3, mlp_hidden=12, variant=variant)
    w = random_block_weights(cfg, np.random.default_rng(65))
    arrays = _weight_arrays(w)
    for copied in round_trips(w):
        assert type(copied) is BlockWeights
        copied_arrays = _weight_arrays(copied)
        assert list(copied_arrays) == list(arrays)
        for name, a in copied_arrays.items():
            assert not a.flags.writeable, name
            assert_array_equal(a.view(np.uint64), arrays[name].view(np.uint64), err_msg=name)
        _assert_views_fill_their_joins(copied)
        assert list(copied.folded) == list(w.folded)
        for site, fold in copied.folded.items():
            _assert_bit_equal_and_read_only(fold, w.folded[site])
    # each part on its own: the norm parameters, the folds and the gated MLP
    for part in [w.ln1, w.ln2, *w.folded.values()] + ([] if w.mlp is None else [w.mlp]):
        for copied in round_trips(part):
            _assert_bit_equal_and_read_only(copied, part)
            if isinstance(part, LlamaMlpWeights):
                assert all(np.shares_memory(view, copied.w_gate_up) for view in (copied.w_gate, copied.w_up))


@pytest.mark.parametrize("variant", ["standard-gelu", "llama-swiglu"])
def test_replace_on_random_weights_copies(variant):
    """`dataclasses.replace` goes through the public constructor: equal arrays, none shared."""
    cfg = BlockConfig(d_model=8, n_heads=2, seq_len=3, mlp_hidden=12, variant=variant)
    w = random_block_weights(cfg, np.random.default_rng(64))
    mlp = None if w.mlp is None else dataclasses.replace(w.mlp)
    replaced = dataclasses.replace(w, mlp=mlp)
    after = _weight_arrays(replaced)
    for name, a in _weight_arrays(w).items():
        if a.ndim == 2:  # every matrix; the norm parameters are kept as the same objects
            assert not np.shares_memory(after[name], a), name
            assert not after[name].flags.writeable, name
            assert_array_equal(after[name], a)


@pytest.mark.parametrize("variant", ["standard-gelu", "llama-swiglu"])
def test_random_weights_peak_memory_is_the_weights_plus_one_matrix(variant):
    """Weights are drawn into the storage they keep: no second copy of them is made.

    tracemalloc's peak inside `random_block_weights` stays within the
    weights' own bytes, plus their largest single matrix (one projection
    drawn before it is copied into its joined buffer), plus a small fixed
    slack.
    """
    cfg = BlockConfig(d_model=128, n_heads=4, seq_len=8, mlp_hidden=512 if variant == "standard-gelu" else 344,
                      variant=variant)
    random_block_weights(cfg, np.random.default_rng(65))  # lazy set-up (imports, caches) runs before the trace
    tracemalloc.start()
    try:
        w = random_block_weights(cfg, np.random.default_rng(65))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = _weight_arrays(w)
    joined = ("w_qkv", "mlp.w_gate_up")
    views = ("w_q", "w_k", "w_v", "mlp.w_gate", "mlp.w_up")
    owned = sum(a.nbytes for name, a in arrays.items() if name not in views)
    largest = max(a.nbytes for name, a in arrays.items() if a.ndim == 2 and name not in joined)
    assert peak <= owned + largest + 16_384


@pytest.mark.parametrize("kernel", ["einsum", "chunked"])
@pytest.mark.parametrize("run,variant,bound", [
    pytest.param(run_conventional, "standard-gelu", 12.5, id="conventional"),
    pytest.param(run_fused, "standard-gelu", 12.5, id="fused"),
    pytest.param(run_conventional, "llama-swiglu", 13.5, id="conventional-llama-swiglu"),
    pytest.param(run_fused, "llama-swiglu", 13.5, id="fused-llama-swiglu"),
])
def test_block_peak_memory_is_its_live_buffers(request, run, variant, bound, kernel):
    """A block call holds only the buffers it still needs, at prefill-gelu's shape and its llama-swiglu twin.

    Each fused site scales its product in place, attention's Q|K|V, scores
    and probabilities are freed before the W_o product, gelu runs in place
    on the pre-activation, and silu runs one chain on a copy of the gate.
    tracemalloc's peak inside one call, folds made before it, stays within
    `bound` times the (8, 128) output. On numpy 2.4.6 the standard-gelu
    block reads about 10.2 times, where a fused site that scales out of
    place reads 18.2, a gelu tail of three (8, 512) arrays 14.2, and
    keeping every stage to the end with both 22.6 (fused) and 18.5
    (conventional). The llama-swiglu block (h 344) reads about 13.0 times,
    where silu's two gathered halves and a new silu(gate) * up read 14.7.
    The chunked kernel adds its one buffer per product.
    """
    if kernel == "chunked":
        request.getfixturevalue("chunked_kernel")
    cfg = BlockConfig(d_model=128, n_heads=4, seq_len=8, mlp_hidden=512 if variant == "standard-gelu" else 344,
                      variant=variant)
    w = random_block_weights(cfg, np.random.default_rng(66))
    x = np.random.default_rng(67).standard_normal((cfg.seq_len, cfg.d_model))
    out = run(cfg, w, x)  # the folds and numpy's lazy set-up are made before the trace
    tracemalloc.start()
    try:
        run(cfg, w, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * out.nbytes + (tensor._CHUNK_ELEMENTS * 8 if kernel == "chunked" else 0)


def test_projections_with_differing_row_counts_rejected():
    ln = LayerNormParams(gamma=np.ones(4), beta=np.zeros(4), epsilon=1e-5)
    with pytest.raises(ValueError, match=re.escape("w_q, w_k and w_v row counts differ: [4, 4, 5]")):
        BlockWeights(w_q=np.ones((4, 4)), w_k=np.ones((4, 4)), w_v=np.ones((5, 4)), w_o=np.ones((4, 4)),
                     ln1=ln, ln2=ln, fc1=np.ones((4, 8)), fc2=np.ones((8, 4)))


def test_single_key_attention_is_value_projection():
    # softmax over one key is [1.0], so the attention output row equals the
    # value projection row; check against that explicitly
    cfg = BlockConfig(d_model=6, n_heads=1, seq_len=1, mlp_hidden=8, variant="standard-gelu")
    rng = np.random.default_rng(45)
    w = random_block_weights(cfg, rng)
    x = rng.standard_normal((1, 6))
    from normfusion.norms import layernorm

    n1 = np.stack([layernorm(row, w.ln1) for row in x])
    v = matmul(n1, w.w_v)
    attn_out = matmul(v, w.w_o)  # probs == [[1.0]] exactly
    hidden = x + attn_out
    n2 = np.stack([layernorm(row, w.ln2) for row in hidden])
    expected = hidden + matmul(gelu(matmul(n2, w.fc1)), w.fc2)
    assert_array_equal(run_conventional(cfg, w, x), expected)


def test_gelu_against_extended_precision():
    # the same tanh formula in 50-digit arithmetic; the error is measured
    # against max(1, |z|), since 1 + tanh cancels for large negative z
    rng = np.random.default_rng(47)
    zs = np.concatenate([rng.standard_normal(500) * 3, rng.uniform(-12.0, 12.0, 500),
                         [-1e3, -20.0, -5.0, -1.0, -1e-8, -1e-300, 0.0, 1e-300, 1e-8, 1.0, 5.0, 20.0, 1e3]])
    with mpmath.workdps(50):
        c = mpmath.sqrt(2 / mpmath.pi)
        ref = np.array([float(z / 2 * (1 + mpmath.tanh(c * (z + mpmath.mpf("0.044715") * z**3))))
                        for z in map(mpmath.mpf, zs)])
    err = np.abs(gelu(zs) - ref) / np.maximum(1.0, np.abs(zs))
    assert np.max(err) <= 4 * np.finfo(np.float64).eps


def test_gelu_past_the_cube_overflow_is_the_exact_limit(strict_fp):
    # beyond |z| ~ 5.6e102 z*z*z overflows; tanh has saturated there, so the
    # result is z for positive z and -0.0 for negative
    z = np.array([5.7e102, -5.7e102, 1e200, -1e200, 1.7e308, -1.7e308])
    assert_array_equal(gelu(z).view(np.uint64), np.where(z > 0, z, -0.0).view(np.uint64))


def straight_line_gelu(z):
    """The tanh formula as one expression of new arrays, the reference for `gelu`'s in-place chain."""
    with np.errstate(over="ignore", under="ignore"):
        return 0.5 * z * (1.0 + np.tanh(0.7978845608028654 * (z + 0.044715 * (z * z * z))))


# past the cube's overflow, far past it, at the largest float64, and subnormals
# (the smallest, the largest, and one between), each of both signs, beside ordinary rows
GELU_EDGES = [5.7e102, 1e200, 1.7e308, 5e-324, 2.2250738585072009e-308, 1e-310]


@pytest.mark.parametrize("shape", [(24,), (2, 12), (2, 3, 4)])
def test_gelu_is_the_straight_line_formula_bitwise(shape):
    rng = np.random.default_rng(52)
    z = rng.permutation(np.concatenate([GELU_EDGES, np.negative(GELU_EDGES), rng.standard_normal(12) * 4]))
    z = z.reshape(shape)
    assert_array_equal(gelu(z).view(np.uint64), straight_line_gelu(z).view(np.uint64))


@pytest.mark.parametrize("z", [0.5, -1e200, np.float64(5e-324)])
def test_gelu_of_a_scalar_is_the_formula_scalar(z):
    out = gelu(z)
    assert isinstance(out, np.float64)
    assert out.view(np.uint64) == straight_line_gelu(np.float64(z)).view(np.uint64)


@pytest.mark.parametrize("scale", [5.7e102, 1e200, 5e307])
@pytest.mark.parametrize("run", [run_conventional, run_fused], ids=["conventional", "fused"])
def test_block_with_an_overflowing_gelu_cube_is_finite(strict_fp, run, scale):
    """fc1 scaled so the pre-activations' cubes overflow: the block output stays finite.

    At 5e307 the fused ln2 product of the shifted rows, which can be twice
    as large as the rows, overflows: those rows are multiplied unshifted, so
    the shift that buys accuracy at a large row offset costs the fused path
    no overflow headroom (`test_shifted_product_overflow_falls_back_per_row`).
    """
    cfg = BlockConfig(d_model=8, n_heads=2, seq_len=3, mlp_hidden=12)
    rng = np.random.default_rng(51)
    w = random_block_weights(cfg, rng)
    w = dataclasses.replace(w, fc1=w.fc1 * scale)
    assert np.isfinite(run(cfg, w, rng.standard_normal((cfg.seq_len, cfg.d_model)))).all()


def test_wrong_norm_params_for_variant_rejected():
    cfg = BlockConfig(d_model=4, n_heads=2, seq_len=2, mlp_hidden=8, variant="llama-swiglu")
    w = random_block_weights(cfg, np.random.default_rng(46))
    bad_cfg = BlockConfig(d_model=4, n_heads=2, seq_len=2, mlp_hidden=8, variant="standard-gelu")
    with pytest.raises(ValueError, match="LayerNormParams"):
        run_conventional(bad_cfg, w, np.zeros((2, 4)))


def _misfit_weights(cfg: BlockConfig, case: str) -> tuple[BlockWeights, str]:
    """Weights for `cfg` with one field that does not fit it, and the message that names it."""
    w = random_block_weights(cfg, np.random.default_rng(47))
    n, h, gelu_block = cfg.d_model, cfg.mlp_hidden, cfg.variant == "standard-gelu"
    layer_norm = lambda k: LayerNormParams(gamma=np.ones(k), beta=np.zeros(k), epsilon=cfg.epsilon_ln)
    rms_norm = lambda k: RmsNormParams(gamma=np.ones(k), epsilon=cfg.epsilon_ln)
    own_norm, other_norm = (layer_norm, rms_norm) if gelu_block else (rms_norm, layer_norm)
    if case == "projection shape":
        return dataclasses.replace(w, w_k=np.ones((n, n + 1))), f"w_k shape {(n, n + 1)}, expected {(n, n)}"
    if case == "norm length":
        return dataclasses.replace(w, ln2=own_norm(n + 1)), "norm parameter length does not match d_model"
    if case == "norm type":
        return dataclasses.replace(w, ln1=other_norm(n)), f"{cfg.variant} blocks use {type(own_norm(n)).__name__}"
    if case == "mlp presence":
        if gelu_block:
            return dataclasses.replace(w, fc2=None), "standard-gelu blocks carry fc1/fc2 and no gated MLP"
        return dataclasses.replace(w, fc1=np.ones((n, h))), "llama-swiglu blocks carry a gated MLP and no fc1/fc2"
    if gelu_block:  # mlp shapes
        return dataclasses.replace(w, fc2=np.ones((h + 1, n))), "fc1/fc2 shapes do not match config"
    mlp = LlamaMlpWeights(w_gate=np.ones((n, h + 1)), w_up=np.ones((n, h + 1)), w_down=np.ones((h + 1, n)))
    return dataclasses.replace(w, mlp=mlp), "gated MLP shapes do not match config"


@pytest.mark.parametrize("case", ["projection shape", "norm length", "norm type", "mlp presence", "mlp shapes"])
@pytest.mark.parametrize("variant", ["standard-gelu", "llama-swiglu"])
def test_weights_that_do_not_fit_the_config_rejected(variant, case):
    # every raise of `BlockWeights.validate`, which both block paths run first
    cfg = BlockConfig(d_model=4, n_heads=2, seq_len=2, mlp_hidden=8, variant=variant)
    w, message = _misfit_weights(cfg, case)
    x = np.zeros((cfg.seq_len, cfg.d_model))
    for check in (w.validate, lambda c: run_conventional(c, w, x), lambda c: run_fused(c, w, x)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check(cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("variant", ["standard-gelu", "llama-swiglu"])
def test_non_finite_input_rejected(strict_fp, variant, bad):
    """Both paths name a non-finite input, proved by ln1's reduction: after the shapes, as every kernel does."""
    cfg = BlockConfig(d_model=4, n_heads=2, seq_len=2, mlp_hidden=8, variant=variant)
    w = random_block_weights(cfg, np.random.default_rng(48))
    misfit, message = _misfit_weights(cfg, "projection shape")
    inputs = []
    for shape, cell in (((2, 4), (0, 0)), ((2, 4), (1, 2)), ((3, 4), (2, 1))):  # the last is misshapen
        inputs.append(np.ones(shape))
        inputs[-1][cell] = bad
    for run in (run_conventional, run_fused):
        for x in inputs:
            with pytest.raises(ValueError, match="^matrix contains non-finite elements$"):
                run(cfg, w, x)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):  # weights that do not fit come first
            run(cfg, misfit, inputs[1])


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        BlockConfig(d_model=10, n_heads=4, seq_len=2, mlp_hidden=8)
    with pytest.raises(ValueError, match="variant"):
        BlockConfig(d_model=8, n_heads=4, seq_len=2, mlp_hidden=8, variant="post-ln")
    with pytest.raises(ValueError, match="positive"):
        BlockConfig(d_model=8, n_heads=4, seq_len=0, mlp_hidden=8)


COUNTS = {"d_model": 8, "n_heads": 4, "seq_len": 2, "mlp_hidden": 8}


@pytest.mark.parametrize("value", [True, False, np.True_, 2.0])
@pytest.mark.parametrize("name", COUNTS)
def test_config_count_that_is_not_an_integer_rejected(name, value):
    # a bool is an int to Python: True was accepted as 1
    with pytest.raises(ValueError, match=f"^{name} must be a positive integer, got {re.escape(repr(value))}$"):
        BlockConfig(**dict(COUNTS, **{name: value}))


def test_config_count_numpy_bool_rejected_where_index_takes_it(monkeypatch):
    # numpy before 2.x lets operator.index take a numpy bool, as 0 or 1, with
    # only a DeprecationWarning: the bool is rejected by its type, not by the index
    monkeypatch.setattr(tensor, "operator", types.SimpleNamespace(index=int))
    for value in (np.True_, np.False_, True):
        assert tensor._integer(value) is None
        with pytest.raises(ValueError, match=f"^n_heads must be a positive integer, got {re.escape(repr(value))}$"):
            BlockConfig(**dict(COUNTS, n_heads=value))
    assert tensor._integer(np.int64(3)) == 3


def test_config_counts_take_numpy_integers_as_plain_ints():
    cfg = BlockConfig(**{name: np.int64(v) if name != "n_heads" else np.uint8(v) for name, v in COUNTS.items()})
    assert [type(getattr(cfg, name)) for name in COUNTS] == [int] * 4
    assert dataclasses.astuple(cfg)[:4] == tuple(COUNTS.values()) and cfg.d_head == 2


# --------------------------------------------------------------------------
# operation graph
# --------------------------------------------------------------------------


def reaches(graph, src: int, dst: int) -> bool:
    """Whether a path of `graph` edges leads from node `src` to node `dst`."""
    seen, frontier = set(), [src]
    while frontier:
        cur = frontier.pop()
        if cur == dst:
            return True
        if cur not in seen:
            seen.add(cur)
            frontier.extend(b for a, b in graph.edges if a == cur)
    return False


class TestGraph:
    cfg = BlockConfig(d_model=8, n_heads=2, seq_len=4, mlp_hidden=16, variant="standard-gelu")

    def test_three_overlappable_collective_sites(self):
        g = build_graph(self.cfg, fused=True)
        collectives = [n for n in g.nodes if n.kind == "collective"]
        assert sorted(n.site for n in collectives) == ["ln1", "ln2", "softmax"]

    def test_conventional_sites_are_chains(self):
        g = build_graph(self.cfg, fused=False)
        for site in ("ln1", "softmax", "ln2"):
            sub = filtered_site_subgraph(g, site)
            ids = [n.id for n in sub.nodes]
            assert len(ids) == 3
            # a chain has exactly one valid topological order
            assert set(sub.edges) == {(ids[0], ids[1]), (ids[1], ids[2])}

    def test_fused_site_cuts_collective_to_matmul_edge(self):
        g = build_graph(self.cfg, fused=True)
        for site in ("ln1", "softmax", "ln2"):
            sub = filtered_site_subgraph(g, site)
            by_kind = {n.kind: n for n in sub.nodes if n.kind != "elementwise"}
            coll, mm = by_kind["collective"], by_kind["matmul"]
            scale = next(n for n in sub.nodes if n.name.endswith(".scale"))
            # independence is structural in the full graph too, not just
            # within the site slice
            assert not reaches(g, coll.id, mm.id)
            assert not reaches(g, mm.id, coll.id)
            assert not reaches(sub, coll.id, mm.id)
            assert {a for a, b in sub.edges if b == scale.id} == {coll.id, mm.id}

    def test_graphs_are_acyclic(self):
        # the scheduler raises on a cycle; its entries come in a topological order
        cm = CostModel(matrix_macs_per_cycle=1.0, vector_elems_per_cycle=1.0)
        for variant in ("standard-gelu", "llama-swiglu"):
            for fused in (False, True):
                g = build_graph(dataclasses.replace(self.cfg, variant=variant), fused=fused)
                # ids are a dependency order, the one `schedule` runs in
                assert all(a < b for a, b in g.edges)
                entries = schedule(g, cm).entries
                assert len(entries) == len(g.nodes)
                pos = {e.node_id: i for i, e in enumerate(entries)}
                assert all(pos[a] < pos[b] for a, b in g.edges)

    def test_qkv_projection_mac_count(self):
        # per matmul: seq * n * m MACs; Q, K and V: 3 * 4 * 8 * 8 = 768
        g = build_graph(self.cfg, fused=False)
        qkv = next(n for n in g.nodes if n.name == "ln1.matmul")
        assert qkv.work == 3 * 4 * 8 * 8 == 768

    def test_hand_counted_work_fields(self):
        seq, n, h, heads = 4, 8, 16, 2
        g = build_graph(self.cfg, fused=False)
        work = {node.name: node.work for node in g.nodes}
        assert work["ln1.elementwise"] == seq * n
        assert work["ln1.collective"] == seq * n
        assert work["attn.logits_matmul"] == seq * seq * n
        assert work["softmax.elementwise"] == heads * seq * seq
        assert work["softmax.matmul"] == seq * seq * n
        assert work["attn.out_matmul"] == seq * n * n
        assert work["ln2.matmul"] == seq * n * h
        assert work["mlp.down_matmul"] == seq * h * n

    def test_matmul_work_identical_between_graphs(self):
        for variant in ("standard-gelu", "llama-swiglu"):
            cfg = BlockConfig(d_model=8, n_heads=2, seq_len=4, mlp_hidden=16, variant=variant)
            conv = build_graph(cfg, fused=False)
            fused = build_graph(cfg, fused=True)
            total = lambda g: sum(n.work for n in g.nodes if n.kind == "matmul")
            assert total(conv) == total(fused)

    def test_scale_work_is_matmul_output_size(self):
        cfg = BlockConfig(d_model=8, n_heads=2, seq_len=4, mlp_hidden=16, variant="llama-swiglu")
        g = build_graph(cfg, fused=True)
        work = {node.name: node.work for node in g.nodes}
        assert work["ln1.scale"] == 3 * 4 * 8      # Q, K, V outputs
        assert work["softmax.scale"] == 4 * 8      # attention output
        assert work["ln2.scale"] == 2 * 4 * 16     # gate and up outputs


# the gelu block's six products (d 128, 4 heads, seq 8, h 512): Q|K|V, the scores,
# the probabilities by V, W_o, fc1 and fc2
GELU_MATMUL_MACS = [393_216, 8_192, 8_192, 131_072, 524_288, 524_288]


@pytest.mark.parametrize("fused", [False, True], ids=["conventional", "fused"])
@pytest.mark.parametrize("variant,hidden", [("standard-gelu", 512), ("llama-swiglu", 344)])
def test_matmul_calls_do_the_graphs_matmul_work(monkeypatch, variant, hidden, fused):
    """The block's `matmul` calls, in call order, do the MACs of `build_graph`'s matmul nodes in id order.

    A call's MACs are its output's size times the inner dimension, batched
    calls included; folds are made before the recording starts.
    """
    cfg = BlockConfig(d_model=128, n_heads=4, seq_len=8, mlp_hidden=hidden, variant=variant)
    rng = np.random.default_rng(67)
    w = random_block_weights(cfg, rng)
    x = rng.standard_normal((cfg.seq_len, cfg.d_model))
    w.folded  # noqa: B018 - the folds' own products are not the block's
    macs = []

    def recording(a, b):
        product = matmul(a, b)
        macs.append(product.size * np.shape(a)[-1])
        return product

    for module in (normfusion.block, normfusion.fusion):
        monkeypatch.setattr(module, "matmul", recording)
    (run_fused if fused else run_conventional)(cfg, w, x)
    nodes = sorted(build_graph(cfg, fused).nodes, key=lambda node: node.id)
    assert macs == [node.work for node in nodes if node.kind == "matmul"]
    if variant == "standard-gelu":
        assert macs == GELU_MATMUL_MACS
