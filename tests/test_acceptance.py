"""Acceptance suite.

One test per acceptance criterion, each printing a single pass/fail line
(visible with `pytest -s` or in failure output). Tolerances are pinned
here, not configurable.

Run: pytest tests/test_acceptance.py -v -s
"""

import json
import math
import time

import numpy as np
from numpy.testing import assert_array_equal
from sched_helpers import brute_force_makespan, check_timeline_invariants, filtered_site_subgraph

from normfusion.block import (
    BlockConfig,
    build_graph,
    random_block_weights,
    run_conventional,
    run_fused,
)
from normfusion.cli import default_config_path, main
from normfusion.fusion import (
    fold_layernorm_linear,
    fold_rmsnorm_linear,
    fused_layernorm_matmul,
    fused_rmsnorm_llama_mlp,
    fused_softmax_matmul,
    silu,
)
from normfusion.jsonio import load_config
from normfusion.norms import (
    LayerNormParams,
    RmsNormParams,
    layernorm,
    rmsnorm,
    softmax_numerators,
    softmax_stable,
)
from normfusion.simulator import CostModel, compare, schedule
from normfusion.tensor import matmul, max_rel_error

from test_block import zero_weights

EQUIV_TOL = 1e-10
SIZES = (8, 16, 64, 256, 1024)
INSTANCES_PER_SITE = 1000


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"[ACCEPTANCE] {'PASS' if ok else 'FAIL'} - {name}: {detail}")
    return ok


# The fused/conventional comparison is independent per output column, so the
# output widths are capped: n (the reduction axis, where cancellation and
# deferral live) still spans the full grid up to 1024.
def _out_width(n: int) -> int:
    return min(n, 128)


def _ln_instance(rng, n):
    x = rng.standard_normal(n) * rng.uniform(0.5, 2.0)
    p = LayerNormParams(
        gamma=rng.uniform(0.5, 1.5, n),
        beta=rng.standard_normal(n) * 0.1,
        epsilon=10.0 ** rng.uniform(-8, -4),
    )
    f = rng.standard_normal((n, _out_width(n))) / math.sqrt(n)
    return x, p, f


def test_criterion_fused_equivalence_three_sites():
    """1000 seeded instances per site, n in {8..1024}, rel err <= 1e-10, <= 60 s."""
    rng = np.random.default_rng(2024)
    per_size = INSTANCES_PER_SITE // len(SIZES)
    worst = {"layernorm_linear": 0.0, "softmax_matmul": 0.0, "rmsnorm_llama_mlp": 0.0}
    started = time.perf_counter()

    for n in SIZES:
        for _ in range(per_size):
            x, p, f = _ln_instance(rng, n)
            expected = matmul(layernorm(x, p), f)
            actual = fused_layernorm_matmul(x, fold_layernorm_linear(p, f))
            worst["layernorm_linear"] = max(worst["layernorm_linear"], max_rel_error(actual, expected))

    for n in SIZES:
        for _ in range(per_size):
            x = rng.uniform(-1e3, 1e3, n)
            v = rng.standard_normal((n, _out_width(n))) / math.sqrt(n)
            expected = matmul(softmax_stable(x), v)
            actual = fused_softmax_matmul(x, v)
            worst["softmax_matmul"] = max(worst["softmax_matmul"], max_rel_error(actual, expected))

    for n in SIZES:
        h = min(round(4 * n / 3), 256)
        for _ in range(per_size):
            x = rng.standard_normal(n)
            p = RmsNormParams(gamma=rng.uniform(0.5, 1.5, n), epsilon=0.0)
            w_gate = rng.standard_normal((n, h)) / math.sqrt(n)
            w_up = rng.standard_normal((n, h)) / math.sqrt(n)
            w_down = rng.standard_normal((h, n)) / math.sqrt(h)
            normed = rmsnorm(x, p)
            expected = matmul(
                silu(matmul(normed, w_gate)) * matmul(normed, w_up), w_down
            )
            actual = fused_rmsnorm_llama_mlp(
                x, fold_rmsnorm_linear(p, w_gate), fold_rmsnorm_linear(p, w_up), w_down
            )
            worst["rmsnorm_llama_mlp"] = max(worst["rmsnorm_llama_mlp"], max_rel_error(actual, expected))

    elapsed = time.perf_counter() - started
    worst_overall = max(worst.values())
    ok = worst_overall <= EQUIV_TOL and elapsed <= 60.0
    assert report(
        "fused-vs-conventional equivalence (3 x 1000 instances)",
        ok,
        f"max_rel_err={worst_overall:.3e} (per site: "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
        + f"), elapsed={elapsed:.1f}s",
    )


def test_criterion_full_block_equivalence():
    """100 random blocks, both variants, d_model <= 128, seq <= 32; zero-weight identity."""
    rng = np.random.default_rng(2025)
    worst = 0.0
    for i in range(100):
        variant = ("standard-gelu", "llama-swiglu")[i % 2]
        heads = int(rng.choice([2, 4, 8]))
        cfg = BlockConfig(
            d_model=heads * int(rng.integers(1, 128 // heads + 1)),
            n_heads=heads,
            seq_len=int(rng.integers(1, 33)),
            mlp_hidden=int(rng.integers(4, 129)),
            variant=variant,
        )
        w = random_block_weights(cfg, rng)
        x = rng.standard_normal((cfg.seq_len, cfg.d_model))
        worst = max(worst, max_rel_error(run_fused(cfg, w, x), run_conventional(cfg, w, x)))

    zero_ok = True
    for variant in ("standard-gelu", "llama-swiglu"):
        cfg = BlockConfig(d_model=16, n_heads=4, seq_len=8, mlp_hidden=24, variant=variant)
        w = zero_weights(cfg)
        x = np.random.default_rng(7).standard_normal((8, 16))
        zero_ok = zero_ok and np.array_equal(run_conventional(cfg, w, x), x)
        zero_ok = zero_ok and np.array_equal(run_fused(cfg, w, x), x)

    ok = worst <= EQUIV_TOL and zero_ok
    assert report(
        "full-block equivalence (100 random blocks)",
        ok,
        f"max_rel_err={worst:.3e}, zero-weight identity={'exact' if zero_ok else 'BROKEN'}",
    )


def test_criterion_softmax_robustness():
    """Logits in [-1e3, 1e3]: finite fused path, softmax rows sum to 1 within 1e-12."""
    rng = np.random.default_rng(2026)
    all_finite = True
    worst_sum_dev = 0.0
    for trial in range(200):
        n = SIZES[trial % len(SIZES)]
        x = rng.uniform(-1e3, 1e3, n)
        v = rng.standard_normal((n, max(2, n // 4))) / math.sqrt(n)
        numerators, denominator = softmax_numerators(x)
        projected = matmul(numerators, v)
        out = fused_softmax_matmul(x, v)
        all_finite = all_finite and bool(
            np.all(np.isfinite(numerators))
            and np.isfinite(denominator)
            and np.all(np.isfinite(projected))
            and np.all(np.isfinite(out))
        )
        worst_sum_dev = max(worst_sum_dev, abs(math.fsum(numerators / denominator) - 1.0))
    ok = all_finite and worst_sum_dev <= 1e-12
    assert report(
        "softmax robustness at extreme logits",
        ok,
        f"all finite={all_finite}, worst |sum-1|={worst_sum_dev:.3e}",
    )


def test_criterion_fold_correctness():
    """Ones-vector annihilation <= 1e-10."""
    rng = np.random.default_rng(2027)
    worst_ones = 0.0
    for n in SIZES:
        _, p, f = _ln_instance(rng, n)
        fl = fold_layernorm_linear(p, f)
        ones_image = matmul(np.ones(n), fl.folded_weight)
        worst_ones = max(worst_ones, float(np.max(np.abs(ones_image))))

    ok = worst_ones <= 1e-10
    assert report(
        "fold correctness (annihilation)",
        ok,
        f"worst |ones @ folded|={worst_ones:.3e}",
    )


def test_criterion_scheduler_optimal_on_micrographs():
    """List schedule == brute-force optimum on every fusion-site micro-graph."""
    rng = np.random.default_rng(2028)
    checked = 0
    all_match = True
    for variant in ("standard-gelu", "llama-swiglu"):
        cfg = BlockConfig(d_model=32, n_heads=4, seq_len=8, mlp_hidden=64, variant=variant)
        for fused in (False, True):
            g = build_graph(cfg, fused=fused)
            for site in ("ln1", "softmax", "ln2"):
                sub = filtered_site_subgraph(g, site)
                assert len(sub.nodes) <= 8
                for _ in range(5):
                    cm = CostModel(
                        matrix_macs_per_cycle=float(rng.integers(8, 1024)),
                        vector_elems_per_cycle=float(rng.integers(4, 256)),
                        collective_alpha=float(rng.integers(0, 1000)),
                        collective_beta=float(rng.integers(0, 100)),
                        sync_overhead=float(rng.integers(0, 20)),
                    )
                    tl = schedule(sub, cm)
                    check_timeline_invariants(sub, tl, cm)
                    all_match = all_match and (tl.total == brute_force_makespan(sub, cm))
                    checked += 1
            check_timeline_invariants(g, schedule(g, CostModel(256.0, 64.0, 100.0, 10.0, 4.0)),
                                      CostModel(256.0, 64.0, 100.0, 10.0, 4.0))
    assert report(
        "scheduler optimality on site micro-graphs",
        all_match,
        f"{checked} (site, cost model) cases match the brute-force optimum",
    )


def test_criterion_latency_hiding_law():
    """hidden = min(collective, overlapped matmul) - scale/sync; fused <= conventional."""
    # three documented cases on the ln1 site of an 8-wide 4-token block:
    # works are ew=coll=32, mm=768, scale=96 (cycles == work at unit rates)
    cfg = BlockConfig(d_model=8, n_heads=2, seq_len=4, mlp_hidden=16)
    conv, fused = build_graph(cfg, fused=False), build_graph(cfg, fused=True)
    cases = [
        # (cost model, expected hidden at ln1, hand schedule)
        (CostModel(1.0, 1.0), min(32, 768) - 96,
         "conv 32+32+768=832, fused 32+max(32,768)+96=896"),
        (CostModel(1.0, 1.0, collective_alpha=500.0, sync_overhead=10.0),
         min(532, 768 + 20) - 96 - 10,
         "conv 32+532+10+768=1342, fused 32+max(532,10+768+10)+96=916"),
        (CostModel(1.0, 1.0, collective_alpha=1000.0), 768 - 96,
         "conv 32+1032+768=1832, fused 32+max(1032,768)+96=1160"),
    ]
    law_ok = True
    for cm, expected_hidden, _ in cases:
        rep = compare(conv, fused, cm)
        law_ok = law_ok and rep.per_site_savings[0].hidden_cycles == expected_hidden

    rng = np.random.default_rng(2029)
    dominated = 0
    for _ in range(500):
        heads = int(rng.choice([2, 4, 8]))
        rcfg = BlockConfig(
            d_model=heads * int(rng.integers(4, 17)),
            n_heads=heads,
            seq_len=int(rng.integers(8, 33)),
            mlp_hidden=int(rng.integers(16, 257)),
            variant=("standard-gelu", "llama-swiglu")[int(rng.integers(0, 2))],
        )
        v_rate = float(rng.integers(256, 8193))
        cm = CostModel(
            matrix_macs_per_cycle=v_rate * float(rng.integers(1, 5)),
            vector_elems_per_cycle=v_rate,
            collective_alpha=float(rng.integers(5000, 500001)),
            collective_beta=float(rng.integers(100, 50001)),
            sync_overhead=float(rng.integers(0, 201)),
        )
        rep = compare(build_graph(rcfg, fused=False), build_graph(rcfg, fused=True), cm)
        dominated += rep.fused_total <= rep.conventional_total
    ok = law_ok and dominated == 500
    assert report(
        "latency-hiding law + fused dominance",
        ok,
        f"3 hand cases {'match' if law_ok else 'DIVERGE'}, fused<=conventional in {dominated}/500 pairs",
    )


def test_criterion_speedup_band_reproduction():
    """Shipped cost model + 7B-scale llama block: speedup in [15, 20], <= 5 s."""
    started = time.perf_counter()
    rc = load_config(str(default_config_path("llama7b_sim")))
    assert rc.block.d_model == 4096 and rc.block.n_heads == 32
    assert rc.block.seq_len == 2048 and rc.block.variant == "llama-swiglu"
    rep = compare(build_graph(rc.block, fused=False), build_graph(rc.block, fused=True), rc.cost_model)
    elapsed = time.perf_counter() - started
    ok = 15.0 <= rep.speedup_percent <= 20.0 and elapsed <= 5.0
    assert report(
        "latency-reduction band on 7B-scale block",
        ok,
        f"speedup={rep.speedup_percent:.2f}% (target [15, 20]), elapsed={elapsed:.2f}s",
    )


def test_criterion_determinism(capsys):
    """verify and simulate emit byte-identical reports across repeated runs."""
    outputs = {}
    for command, config in (("verify", "verify_small"), ("simulate", "llama7b_sim")):
        runs = []
        for _ in range(2):
            code = main([command, str(default_config_path(config)), "--quiet"])
            assert code == 0
            runs.append(capsys.readouterr().out)
        outputs[command] = runs[0] == runs[1] and json.loads(runs[0])["seed"] == 42
    ok = all(outputs.values())
    with capsys.disabled():
        assert report(
            "report determinism",
            ok,
            ", ".join(f"{k}: {'byte-identical' if v else 'DIVERGED'}" for k, v in outputs.items()),
        )
