"""Output checks for the benchmark workloads.

Nothing here calls a normfusion kernel. The block oracle is plain float64
NumPy: BLAS `@` and vectorised norms, softmax, GELU and SiLU, so a defect
shared by the fused and the conventional path still shows. The schedule
checker tests each reported timeline against the edges of `build_graph`
without re-running the scheduler.
"""

from __future__ import annotations

import json
import math

import numpy as np

BLOCK_TOLERANCE = 1e-10  # the repository's fused/conventional equivalence contract
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


class CheckFailed(Exception):
    """An operation's output is wrong."""


def rel_error(actual: np.ndarray, expected: np.ndarray) -> float:
    """Norm-wise relative error max|a - e| / max|e|."""
    if actual.shape != expected.shape:
        raise CheckFailed(f"shape {actual.shape}, expected {expected.shape}")
    scale = max(float(np.abs(expected).max()), 1e-300)
    return float(np.abs(actual - expected).max()) / scale


def _layernorm(x, p):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + p.epsilon) * p.gamma + p.beta


def _rmsnorm(x, p):
    return x / np.sqrt((x * x).mean(axis=1, keepdims=True) + p.epsilon) * p.gamma


def _softmax(s):
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _gelu_tanh(z):
    return 0.5 * z * (1.0 + np.tanh(_SQRT_2_OVER_PI * (z + 0.044715 * z**3)))


def _silu(z):
    # sigmoid(z) == (1 + tanh(z/2)) / 2, which never overflows.
    return z * 0.5 * (1.0 + np.tanh(0.5 * z))


def block_oracle(cfg, w, x: np.ndarray) -> np.ndarray:
    """Pre-LN decoder block (no mask) in float64 with BLAS products."""
    gelu_block = cfg.variant == "standard-gelu"
    norm = _layernorm if gelu_block else _rmsnorm
    seq, heads, d_head = cfg.seq_len, cfg.n_heads, cfg.d_model // cfg.n_heads

    h = norm(x, w.ln1)
    q, k, v = ((h @ m).reshape(seq, heads, d_head).transpose(1, 0, 2) for m in (w.w_q, w.w_k, w.w_v))
    probs = _softmax(q @ k.transpose(0, 2, 1) / math.sqrt(d_head))
    attn = (probs @ v).transpose(1, 0, 2).reshape(seq, cfg.d_model)
    hidden = x + attn @ w.w_o

    h2 = norm(hidden, w.ln2)
    if gelu_block:
        mlp = _gelu_tanh(h2 @ w.fc1) @ w.fc2
    else:
        mlp = (_silu(h2 @ w.mlp.w_gate) * (h2 @ w.mlp.w_up)) @ w.mlp.w_down
    return hidden + mlp


def check_block_output(actual, expected: np.ndarray, what: str) -> float:
    """Return the error of one block output against the oracle; raise above tolerance."""
    err = rel_error(np.asarray(actual, dtype=np.float64), expected)
    if not err <= BLOCK_TOLERANCE:
        raise CheckFailed(f"{what} output is {err:.3e} from the oracle (tolerance {BLOCK_TOLERANCE:g})")
    return err


def _report(code: int, text: str, command: str) -> dict:
    if code != 0:
        raise CheckFailed(f"{command} exited with code {code}")
    try:
        report = json.loads(text)
    except json.JSONDecodeError as e:
        raise CheckFailed(f"{command} report is not JSON: {e}") from None
    if report.get("command") != command:
        raise CheckFailed(f"report command {report.get('command')!r}, expected {command!r}")
    return report


def simulate_report(code: int, text: str, mode: str) -> dict:
    """Parse a `normfusion simulate` report and return its latency section."""
    report = _report(code, text, "simulate")
    if report.get("mode") != mode:
        raise CheckFailed(f"simulate mode {report.get('mode')!r}, expected {mode!r}")
    return report["latency"]


def check_timeline(latency: dict, graph, sync_overhead: float) -> int:
    """Check a single-graph timeline against the graph's edges; return its total.

    Every node appears once on its own engine; no node starts before each
    predecessor ends (plus the sync overhead on cross-engine edges); no
    two nodes overlap on one engine; the total is the last end.
    """
    nodes = {n.id: n for n in graph.nodes}
    entries = latency["timeline"]
    spans = {}
    for e in entries:
        nid = e["node_id"]
        if nid not in nodes or nid in spans:
            raise CheckFailed(f"timeline node {nid} is unknown or repeated")
        node = nodes[nid]
        if (e["kind"], e["engine"]) != (node.kind, node.engine):
            raise CheckFailed(f"node {nid} reported as {e['kind']}/{e['engine']}")
        if not 0 <= e["start_cycle"] <= e["end_cycle"]:
            raise CheckFailed(f"node {nid} has span {e['start_cycle']}..{e['end_cycle']}")
        spans[nid] = (e["start_cycle"], e["end_cycle"])
    if len(spans) != len(nodes):
        raise CheckFailed(f"timeline has {len(spans)} of {len(nodes)} nodes")

    sync = math.ceil(sync_overhead)
    for a, b in graph.edges:
        ready = spans[a][1] + (sync if nodes[a].engine != nodes[b].engine else 0)
        if spans[b][0] < ready:
            raise CheckFailed(f"node {b} starts at {spans[b][0]}, before node {a} is ready at {ready}")
    for engine in {n.engine for n in nodes.values()}:
        busy = sorted(spans[i] for i in nodes if nodes[i].engine == engine)
        for (_, prev_end), (start, _) in zip(busy, busy[1:]):
            if start < prev_end:
                raise CheckFailed(f"two nodes overlap on the {engine} engine at cycle {start}")
    total = max(end for _, end in spans.values())
    if latency["total"] != total:
        raise CheckFailed(f"timeline total {latency['total']}, last node ends at {total}")
    return total


def check_comparison(latency: dict, conv_total: int, fused_total: int) -> float:
    """Check a `--both` report against single-mode totals; return its speedup."""
    got = (latency["conventional_total"], latency["fused_total"])
    if got != (conv_total, fused_total):
        raise CheckFailed(f"--both totals {got}, single-mode totals {(conv_total, fused_total)}")
    speedup = 100.0 * (1.0 - fused_total / conv_total)
    if not math.isclose(latency["speedup_percent"], speedup, rel_tol=1e-12, abs_tol=1e-12):
        raise CheckFailed(f"speedup {latency['speedup_percent']}%, totals give {speedup}%")
    return speedup
