"""Decoder-block tests.

The numeric oracle is a straight-line reference written with plain numpy
(BLAS matmuls, vectorized norms) and no calls into the package kernels.
Graph tests hand-count the work fields and check the structural
invariants the simulator relies on.
"""

import dataclasses
import math
import re

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_array_equal

import normfusion.block
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
    site_subgraph,
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
    eps1, eps2, d = w.ln1.epsilon, w.ln2.epsilon, cfg.d_head
    if cfg.variant == "standard-gelu":
        fold, fused_norm_matmul = fold_layernorm_linear, fused_layernorm_matmul
    else:
        fold, fused_norm_matmul = fold_rmsnorm_linear, fused_rmsnorm_matmul
    q, k, v = (np.stack([fused_norm_matmul(row, fold(w.ln1, m), eps1) for row in x])
               for m in (w.w_q, w.w_k, w.w_v))
    heads = []
    for i in range(cfg.n_heads):
        sl = slice(i * d, (i + 1) * d)
        scores = matmul(q[:, sl], k[:, sl].T) * (1.0 / math.sqrt(d))
        heads.append(np.stack([fused_softmax_matmul(row, v[:, sl]) for row in scores]))
    hidden = x + matmul(np.hstack(heads), w.w_o)
    if cfg.variant == "standard-gelu":
        fc1 = fold(w.ln2, w.fc1)
        mlp = matmul(gelu(np.stack([fused_norm_matmul(row, fc1, eps2) for row in hidden])), w.fc2)
    else:
        gate, up = fold(w.ln2, w.mlp.w_gate), fold(w.ln2, w.mlp.w_up)
        mlp = np.stack([fused_rmsnorm_llama_mlp(row, gate, up, w.mlp.w_down, eps2) for row in hidden])
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
    """A finite nonzero row whose squares all underflow is named as such, not as an all-zero row.

    Its RMSNorm is well defined ([0.53, -1.07, 1.60, 0]) but float64 cannot
    reach it with epsilon 0; an all-zero row keeps its own message.
    """
    if strict:
        request.getfixturevalue("strict_fp")
    p = RmsNormParams(gamma=np.ones(4))
    cfg = BlockConfig(d_model=4, n_heads=2, seq_len=2, mlp_hidden=6, variant="llama-swiglu")
    w = dataclasses.replace(random_block_weights(cfg, np.random.default_rng(54)), ln1=p)
    run = {
        "rmsnorm": lambda rows: rmsnorm(rows, p),
        "fused": lambda rows: fused_rmsnorm_matmul(rows, fold_rmsnorm_linear(p, np.ones((4, 3))), 0.0),
        "block-conventional": lambda rows: run_conventional(cfg, w, rows),
        "block-fused": lambda rows: run_fused(cfg, w, rows),
    }[path]
    tiny = np.array([[1.0, 2.0, 3.0, 4.0], [1e-170, -2e-170, 3e-170, 0.0]])
    with pytest.raises(ValueError, match=r"^rmsnorm: a row's mean square underflows to zero \(float64\) with epsilon=0$"):
        run(tiny)
    with pytest.raises(ValueError, match="^rms of an all-zero vector with epsilon=0 divides by zero$"):
        run(np.array([[1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0]]))


def test_batched_rms_zero_row_without_epsilon_rejected():
    p = RmsNormParams(gamma=[1.0, 1.0])
    fl = fold_rmsnorm_linear(p, np.ones((2, 3)))
    rows = np.array([[1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="zero"):
        fused_rmsnorm_matmul(rows, fl, 0.0)
    with pytest.raises(ValueError, match="zero"):
        rmsnorm(rows, p)


@pytest.mark.parametrize("case", ["w_q-scaled", "fc1-scaled", "rows-shifted"])
@pytest.mark.parametrize("run", [run_conventional, run_fused], ids=["conventional", "fused"])
def test_overflow_inside_the_block_rejected(run, case):
    """Finite weights or rows whose projections overflow end in a non-finite rejection."""
    cfg = BlockConfig(d_model=128, n_heads=4, seq_len=8, mlp_hidden=512)
    rng = np.random.default_rng(51)
    w = random_block_weights(cfg, rng)
    x = rng.standard_normal((cfg.seq_len, cfg.d_model))
    if case == "w_q-scaled":
        w = dataclasses.replace(w, w_q=w.w_q * 5e307)
    elif case == "fc1-scaled":
        w = dataclasses.replace(w, fc1=w.fc1 * 5e307)
    else:
        x = x + np.where(np.arange(cfg.seq_len) % 2 == 0, 1.7e308, -1.7e308)[:, np.newaxis]
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
    for site, mats in w.projections.items():
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
    x = rng.standard_normal((4, n)[2 - rank:]) + 100.0

    normed = norm_fn(x, p)
    expected = np.hstack([matmul(normed, m) for m in mats])
    assert_array_equal(_norm_site(x, p, mats).view(np.uint64), expected.view(np.uint64))

    fold, public_fold = _fold_site(p, mats), fold_fn(p, np.hstack(mats))
    assert_array_equal(fold.folded_weight.view(np.uint64), public_fold.folded_weight.view(np.uint64))
    assert (fold.folded_bias is None) == (public_fold.folded_bias is None)
    if fold.folded_bias is not None:
        assert_array_equal(fold.folded_bias.view(np.uint64), public_fold.folded_bias.view(np.uint64))
    expected = fused_fn(x, public_fold, p.epsilon)
    assert_array_equal(_norm_site(x, p, mats, fold).view(np.uint64), expected.view(np.uint64))


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


@pytest.mark.parametrize("scale", [5.7e102, 1e200, 5e307])
@pytest.mark.parametrize("run", [run_conventional, run_fused], ids=["conventional", "fused"])
def test_block_with_an_overflowing_gelu_cube_is_finite(strict_fp, run, scale):
    """fc1 scaled so the pre-activations' cubes overflow: the block output stays finite."""
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


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        BlockConfig(d_model=10, n_heads=4, seq_len=2, mlp_hidden=8)
    with pytest.raises(ValueError, match="variant"):
        BlockConfig(d_model=8, n_heads=4, seq_len=2, mlp_hidden=8, variant="post-ln")
    with pytest.raises(ValueError, match="positive"):
        BlockConfig(d_model=8, n_heads=4, seq_len=0, mlp_hidden=8)


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
            sub = site_subgraph(g, site)
            ids = [n.id for n in sub.nodes]
            assert len(ids) == 3
            # a chain has exactly one valid topological order
            assert set(sub.edges) == {(ids[0], ids[1]), (ids[1], ids[2])}

    def test_fused_site_cuts_collective_to_matmul_edge(self):
        g = build_graph(self.cfg, fused=True)
        for site in ("ln1", "softmax", "ln2"):
            sub = site_subgraph(g, site)
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

    def test_site_subgraph_rejects_unknown_site(self):
        g = build_graph(self.cfg, fused=False)
        with pytest.raises(ValueError, match="unknown fusion site"):
            site_subgraph(g, "attention")
