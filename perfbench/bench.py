"""Measurement loop, statistics and result line of the benchmark (see run.py)."""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np

import normfusion.tensor
from normfusion import cli

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
# The run is cut into WINDOWS windows, each a few set-ups and then the closed
# loop. A shared host runs for seconds at a time 1.5-2x slower than in its
# quiet spells, so a median of single set-ups follows the share of slow
# spells in the run. Set-up time is therefore taken like op_min_ms, from the
# fastest time of each part: each of SETUP_ROUNDS rounds sums its parts'
# fastest times over all the windows, and setup_s is the median of those.
WINDOWS = 50
SETUP_ROUNDS = 3
TAIL_LADDER = (99, 95, 90, 75, 50)


class Clock:
    """Times calls into the program; with a tracer, turns it on around them."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times: dict[str, int] = {}  # label -> ns, for the current operation
        self.unattributed_ns = 0

    def call(self, label: str, fn, *args):
        tracer = self.tracer
        if tracer is not None:
            top0 = tracer.top_ns
            tracer.active = True
        t0 = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            elapsed = time.perf_counter_ns() - t0
            if tracer is not None:
                tracer.active = False
                self.unattributed_ns += elapsed - (tracer.top_ns - top0)
            self.times[label] = self.times.get(label, 0) + elapsed


class Tally:
    """Operations attempted and failed, and the worst error figure of each kind."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.worst: dict[str, float] = {}

    def fail(self, i: int, why: str) -> None:
        self.failed += 1
        if self.failed <= 3:
            print(f"perfbench: operation {i} failed: {why}", file=sys.stderr)

    def check(self, wl, state, i: int, out) -> None:
        self.attempted += 1
        try:
            figures = wl.check(state, i, out)
        except checks.CheckFailed as e:
            self.fail(i, str(e))
            return
        for key, value in figures.items():
            self.worst[key] = max(self.worst.get(key, 0.0), value)


def run_loop(wl, state, seconds: float, ops, tally: Tally, clock: Clock) -> list[dict]:
    """Closed loop: issue operations back to back for `seconds` (at least one).

    Returns the per-label call times (ns) of every operation that returned.
    """
    samples = []
    deadline = time.perf_counter() + seconds
    gc.collect()
    for n, i in enumerate(ops):
        if n and time.perf_counter() >= deadline:
            break
        clock.times = {}
        try:
            out = wl.op(state, i, clock)
        except Exception:  # a failed operation is counted, and the loop goes on
            tally.attempted += 1
            tally.fail(i, traceback.format_exc())
            continue
        samples.append(clock.times)
        tally.check(wl, state, i, out)
    return samples


def timings(samples: list[dict], label: str | None = None) -> dict:
    """Fastest, median and tail of one label's times (all labels summed for None), in ms.

    The tail is the highest percentile of TAIL_LADDER with ten samples beyond it.
    """
    ms = [(sum(s.values()) if label is None else s[label]) / 1e6
          for s in samples if label is None or label in s]
    if not ms:
        return {"samples": 0, "min_ms": 0.0, "p50_ms": 0.0, "tail_pct": 0, "tail_ms": 0.0}
    pct = next((p for p in TAIL_LADDER if len(ms) * (100 - p) >= 1000), 50)
    return {"samples": len(ms), "min_ms": min(ms), "p50_ms": statistics.median(ms),
            "tail_pct": pct, "tail_ms": float(np.percentile(ms, pct))}


def host_info() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def llama7b_cycles() -> dict:
    """Simulated cycles of the shipped llama7b config: deterministic, no wall time."""
    code, text = workloads.run_cli(["simulate", str(cli.default_config_path("llama7b_sim")), "--both", "--quiet"])
    latency = checks.simulate_report(code, text, "both")
    out = {
        "simulator.llama7b.conv_cycles": latency["conventional_total"],
        "simulator.llama7b.fused_cycles": latency["fused_total"],
        "simulator.llama7b.speedup_pct": latency["speedup_percent"],
    }
    for s in latency["per_site_savings"]:
        out[f"simulator.llama7b.hidden_cycles.{s['site']}"] = s["hidden_cycles"]
    return out


def fastest_ms(samples: list[dict]) -> float:
    """Sum over labels of each label's fastest time, in ms."""
    labels = {label for s in samples for label in s}
    return sum(timings(samples, label)["min_ms"] for label in labels)


def _set_up(wl, seed, workdir, ops, tally):
    """One set-up: config load, weights or grid, and a warm-up operation.

    Returns the state and the time (ns) of each part: "load", then each
    timed call of the warm-up operation.
    """
    clock = Clock()
    state = clock.call("load", wl.setup, seed, workdir)
    i = next(ops)
    out = wl.op(state, i, clock)
    tally.check(wl, state, i, out)
    return state, clock.times


def _memory_peak(wl, seed, workdir, ops, tally) -> float:
    """tracemalloc peak (MB) over one set-up and one operation."""
    gc.collect()
    tracemalloc.start()
    try:
        state = wl.setup(seed, workdir)
        i = next(ops)
        out = wl.op(state, i, Clock())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tally.check(wl, state, i, out)
    return peak / 2**20


def measure_end_to_end(wl, seed, seconds, workdir) -> tuple[dict, dict, Tally]:
    """Untimed memory pass, then WINDOWS x (SETUP_ROUNDS set-ups, closed loop
    for seconds / WINDOWS).

    Spreading the set-ups over the run lets the fastest time of each of
    their parts fall in one of the host's quiet spells.
    """
    ops, tally = itertools.count(), Tally()
    peak = _memory_peak(wl, seed, workdir, ops, tally)
    setups, samples = [[] for _ in range(SETUP_ROUNDS)], []
    start = time.perf_counter()
    for w in range(WINDOWS):
        for parts in setups:
            state, times = _set_up(wl, seed, workdir, ops, tally)
            parts.append(times)
        window_end = start + (w + 1) * seconds / WINDOWS  # set-ups count towards the run's seconds
        samples += run_loop(wl, state, window_end - time.perf_counter(), ops, tally, Clock())
    if not samples:
        sys.exit("perfbench: no operation completed")
    labels = sorted({label for s in samples for label in s})
    all_setups = [times for parts in setups for times in parts]
    metrics = {
        "op_min_ms": (fastest_ms(samples), "ms"),
        "setup_s": (statistics.median(fastest_ms(parts) for parts in setups) / 1e3, "s"),
        "peak_mem_mb": (peak, "MB"),
        "success_rate": (1.0 - tally.failed / tally.attempted, "ratio"),
    }
    detail = {"op": timings(samples), "calls": {label: timings(samples, label) for label in labels},
              "setup": timings(all_setups),
              "setup_parts": {label: timings(all_setups, label) for label in sorted(all_setups[0])}}
    return metrics, detail, tally


def measure_layers(wl, seed, seconds, workdir) -> tuple[dict, dict, Tally]:
    """WINDOWS windows of the closed loop, alternately untraced and traced.

    Per-layer figures are per traced operation; timings come from the
    untraced windows, and their interleaving keeps host load drift out of
    the traced/untraced comparison.
    """
    ops, tally = itertools.count(), Tally()
    state, _ = _set_up(wl, seed, workdir, ops, tally)
    tracer = tracing.Tracer()
    clock = Clock(tracer)
    plain, traced = [], []
    for w in range(WINDOWS):
        if w % 2 == 0:
            plain += run_loop(wl, state, seconds / WINDOWS, ops, tally, Clock())
        else:
            with tracing.installed(tracer):
                traced += run_loop(wl, state, seconds / WINDOWS, ops, tally, clock)
    if not (plain and traced):
        sys.exit("perfbench: no operation completed")
    n = len(traced)

    metrics = {}
    for layer in tracing.LAYERS:
        calls, self_ns = tracer.layer_totals(layer)
        metrics[f"{layer}.calls"] = (calls / n, "count")
        metrics[f"{layer}.self_ms"] = (self_ns / n / 1e6, "ms")
    matmul_ns = tracer.layer_totals("tensor.matmul")[1]
    metrics["tensor.matmul.macs"] = (tracer.macs / n, "count")
    metrics["tensor.matmul.gmacs_per_s"] = (tracer.macs / matmul_ns if matmul_ns else 0.0, "GMAC/s")
    metrics["tensor.matmul.blas_ratio"] = (
        tracing.blas_ratio(tracer.matmul_shapes, normfusion.tensor.matmul), "ratio")
    metrics["simulator.nodes_scheduled"] = (tracer.nodes_scheduled / n, "count")

    plain_op, traced_op = timings(plain), timings(traced)
    conv, fused = timings(plain, "run_conventional"), timings(plain, "run_fused")
    metrics["op.p50_ms"] = (plain_op["p50_ms"], "ms")
    metrics["op.tail_ms"] = (plain_op["tail_ms"], "ms")
    metrics["block.conv_p50_ms"] = (conv["p50_ms"], "ms")
    metrics["block.fused_p50_ms"] = (fused["p50_ms"], "ms")
    metrics["block.fused_over_conv"] = (fused["p50_ms"] / conv["p50_ms"] if conv["samples"] else 0.0, "ratio")
    metrics["block.conv_rel_err"] = (tally.worst.get("conv_rel_err", 0.0), "ratio")
    metrics["block.fused_rel_err"] = (tally.worst.get("fused_rel_err", 0.0), "ratio")
    metrics["trace.overhead_pct"] = (100.0 * (traced_op["p50_ms"] / plain_op["p50_ms"] - 1.0), "%")
    metrics["trace.unattributed_ms"] = (clock.unattributed_ns / n / 1e6, "ms")
    for name, value in llama7b_cycles().items():
        metrics[name] = (value, "%" if name.endswith("_pct") else "cycles")

    detail = {
        "untraced_op": plain_op,
        "traced_op": traced_op,
        "untraced_calls": {"run_conventional": conv, "run_fused": fused},
        "fused_over_conv_base": "block.conv_p50_ms, untraced",
        "layers_by_root": tracer.by_root(),
    }
    return metrics, detail, tally


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description="normfusion benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.trace:
            metrics, detail, tally = measure_layers(wl, args.seed, args.seconds, workdir)
        else:
            metrics, detail, tally = measure_end_to_end(wl, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail.update(workload=wl.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  worst_errors=tally.worst, host=host_info())
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0
