"""Toy-size smoke test of the benchmark.

    python3 -m pytest perfbench/smoke_test.py

Every workload runs for a second in both modes and reports exactly the
metrics BENCHMARK.json names; each checker rejects a corrupted output, and
the measurement loop counts that output as a failed operation.
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import run  # noqa: E402

run.import_normfusion()
import bench  # noqa: E402
import checks  # noqa: E402
import normfusion as nf  # noqa: E402
import workloads  # noqa: E402

# Per-layer metrics that must be non-zero on each workload: the layers it reaches.
REACHED = {
    "prefill-gelu": ("tensor.matmul.calls", "norms.calls", "fusion.fold.calls", "fusion.fused.calls",
                     "block.run_fused.self_ms", "block.fused_over_conv", "tensor.matmul.blas_ratio"),
    "simulate-sweep": ("cli.main.calls", "simulator.schedule.calls", "simulator.compare.calls",
                       "block.build_graph.calls", "simulator.nodes_scheduled"),
}


def _run(*args, cwd=ROOT):
    script = Path(cwd) / "perfbench" / "run.py"
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1

    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in named}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values()), values
        return
    assert all(values[k] > 0 for k in REACHED[workload]), values
    if workload == "simulate-sweep":
        assert values["tensor.matmul.calls"] == 0
    assert values["simulator.llama7b.conv_cycles"] == 9_128_352
    assert values["simulator.llama7b.fused_cycles"] == 7_497_440
    assert round(values["simulator.llama7b.speedup_pct"], 2) == 17.87


def _perturb_fused(state, out):
    x, y = out
    bad = y["run_fused"].copy()
    bad.flat[0] += 1e-8 * np.abs(bad).max()
    return x, dict(y, run_fused=bad)


def _move_before_predecessor(state, out):
    k, reports = out
    code, text = reports["fused"]
    report = json.loads(text)
    pred, succ = nf.build_graph(state.configs[k].block, fused=True).edges[0]
    entries = {e["node_id"]: e for e in report["latency"]["timeline"]}
    shift = entries[succ]["start_cycle"] - (entries[pred]["end_cycle"] - 1)
    entries[succ]["start_cycle"] -= shift
    entries[succ]["end_cycle"] -= shift
    return k, dict(reports, fused=(code, json.dumps(report)))


def _shift_both_total(state, out):
    k, reports = out
    code, text = reports["both"]
    report = json.loads(text)
    report["latency"]["fused_total"] -= 1
    return k, dict(reports, both=(code, json.dumps(report)))


@pytest.mark.parametrize("workload, corrupt, message", [
    ("prefill-gelu", _perturb_fused, "fused output"),
    ("simulate-sweep", _move_before_predecessor, "before node"),
    ("simulate-sweep", _shift_both_total, "single-mode totals"),
])
def test_checker_rejects_corrupted_output(workload, corrupt, message, tmp_path, monkeypatch):
    wl = workloads.WORKLOADS[workload]
    state = wl.setup(3, tmp_path)
    out = wl.op(state, 0, bench.Clock())
    wl.check(state, 0, out)
    with pytest.raises(checks.CheckFailed, match=message):
        wl.check(state, 0, corrupt(state, out))

    # The same corruption inside the measurement loop counts as a failed operation.
    op = wl.op
    monkeypatch.setattr(wl, "op", lambda state, i, clock: corrupt(state, op(state, i, clock)))
    tally = bench.Tally()
    samples = bench.run_loop(wl, state, 0.2, itertools.count(), tally, bench.Clock())
    assert tally.attempted == len(samples) >= 1
    assert tally.failed == tally.attempted


@pytest.mark.parametrize("variant", nf.block.VARIANTS)
def test_oracle_matches_both_block_paths(variant):
    cfg = nf.BlockConfig(d_model=48, n_heads=4, seq_len=6, mlp_hidden=96, variant=variant)
    weights = nf.random_block_weights(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    x = rng.standard_normal((6, 48)) + rng.uniform(-8.0, 8.0, size=(6, 1))
    expected = checks.block_oracle(cfg, weights, x)
    for run_block in (nf.run_conventional, nf.run_fused):
        checks.check_block_output(run_block(cfg, weights, x), expected, variant)


def test_bare_directory_exits_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "prefill-gelu", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
