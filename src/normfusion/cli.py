"""Command-line interface: equivalence verification, latency simulation,
and compile-time weight folding.

All reports are JSON on stdout; progress chatter goes to stderr and can be
silenced with --quiet. Exit codes: 0 success, 1 numerical/acceptance
failure, 2 usage or config error, an input that cannot be read or an output
that cannot be written included. Given the same config and seed, repeated
runs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from .block import _fold_site, _norm_site, build_graph, random_block_weights, run_conventional, run_fused
from .fusion import fused_softmax_matmul, swiglu
from .jsonio import (
    SCHEMA_VERSION,
    ConfigError,
    RunConfig,
    config_dict,
    dumps_report,
    latency_dict,
    load_block_weights,
    load_config,
    save_folded_weights,
    timeline_csv,
    timeline_rows,
    write_text,
)
from .norms import LayerNormParams, RmsNormParams, softmax_stable
from .simulator import compare, schedule
from .tensor import matmul, max_rel_error

__all__ = ["main", "main_entry", "default_config_path"]

_DATA_DIR = Path(__file__).parent / "data"


def default_config_path(name: str = "llama7b_sim") -> Path:
    """Path of a shipped config: "llama7b_sim" or "verify_small"."""
    path = _DATA_DIR / f"{name}.json"
    if not path.exists():
        raise ValueError(f"no shipped config named {name!r}")
    return path


def _norm_site_pair(x, p, mats) -> tuple[np.ndarray, np.ndarray]:
    """A norm site through the block's own site code: conventional, then fused on its fold."""
    return _norm_site(x, p, mats), _norm_site(x, p, mats, _fold_site(p, mats))


def _layernorm_linear(rng, cfg):
    n = cfg.d_model
    x = rng.standard_normal(n)
    params = LayerNormParams(
        gamma=rng.uniform(0.5, 1.5, size=n),
        beta=rng.standard_normal(n) * 0.1,
        epsilon=cfg.epsilon_ln,
    )
    return _norm_site_pair(x, params, (rng.standard_normal((n, n)) / np.sqrt(n),))


def _softmax_matmul(rng, cfg):
    n = cfg.d_model
    x = rng.uniform(-1e3, 1e3, size=n)
    v = rng.standard_normal((n, n)) / np.sqrt(n)
    return matmul(softmax_stable(x), v), fused_softmax_matmul(x, v)


def _rmsnorm_llama_mlp(rng, cfg):
    n, h = cfg.d_model, cfg.mlp_hidden
    x = rng.standard_normal(n)
    params = RmsNormParams(gamma=rng.uniform(0.5, 1.5, size=n), epsilon=cfg.epsilon_ln)
    w_gate = rng.standard_normal((n, h)) / np.sqrt(n)
    w_up = rng.standard_normal((n, h)) / np.sqrt(n)
    w_down = rng.standard_normal((h, n)) / np.sqrt(h)
    return tuple(swiglu(out, w_down) for out in _norm_site_pair(x, params, (w_gate, w_up)))  # the shared tail


def _full_block(rng, cfg):
    weights = random_block_weights(cfg, rng)
    x = rng.standard_normal((cfg.seq_len, cfg.d_model))
    return run_conventional(cfg, weights, x), run_fused(cfg, weights, x)


# The verified sites, in report order. Each entry draws a trial's inputs from its
# rng, keyed [seed, site index, trial], and returns the site's (conventional, fused) pair.
VERIFY_SITES = {
    "layernorm_linear": _layernorm_linear,
    "softmax_matmul": _softmax_matmul,
    "rmsnorm_llama_mlp": _rmsnorm_llama_mlp,
    "full_block": _full_block,
}


def cmd_verify(rc: RunConfig, quiet: bool) -> int:
    sites = {}
    all_pass = True
    for index, (name, site_pair) in enumerate(VERIFY_SITES.items()):
        pairs = (site_pair(np.random.default_rng([rc.seed, index, trial]), rc.block) for trial in range(rc.trials))
        # np.max, unlike max(), propagates a NaN from any trial, so the site fails
        worst = float(np.max([max_rel_error(fused, conventional) for conventional, fused in pairs]))
        ok = worst <= rc.tolerance
        all_pass = all_pass and ok
        # JSON has no NaN or infinity: a non-finite error is written as null
        sites[name] = {"max_rel_err": worst if np.isfinite(worst) else None, "pass": ok}
        if not quiet:
            print(f"verify: {name}: max_rel_err={worst:.3e} "
                  f"({'ok' if ok else 'FAIL'} at tolerance {rc.tolerance:g})", file=sys.stderr)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "seed": rc.seed,
        "trials": rc.trials,
        "tolerance": rc.tolerance,
        "config": config_dict(rc),
        "equivalence": sites,
        "pass": all_pass,
    }
    sys.stdout.write(dumps_report(report))
    return 0 if all_pass else 1


def _csv_path(base: str, mode: str, both: bool) -> Path:
    path = Path(base)
    if not both:
        return path
    stem = path.name[: -len(".csv")] if path.name.endswith(".csv") else path.name
    return path.with_name(f"{stem}.{mode}.csv")


def cmd_simulate(rc: RunConfig, mode: str, csv_base: str | None, quiet: bool) -> int:
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "seed": rc.seed,
        "config": config_dict(rc),
        "mode": mode,
    }
    graphs = {
        name: build_graph(rc.block, fused=(name == "fused"))
        for name in (("conventional", "fused") if mode == "both" else (mode,))
    }
    if mode == "both":
        rep = compare(graphs["conventional"], graphs["fused"], rc.cost_model)
        timelines = {"conventional": rep.conventional_timeline, "fused": rep.fused_timeline}
        report["latency"] = latency_dict(rep)
        if not quiet:
            print(
                f"simulate: conventional={rep.conventional_total} fused={rep.fused_total} "
                f"speedup={rep.speedup_percent:.2f}%", file=sys.stderr,
            )
    else:
        graph = graphs[mode]
        timeline = schedule(graph, rc.cost_model)
        timelines = {mode: timeline}
        report["latency"] = {"total": timeline.total, "timeline": timeline_rows(graph, timeline)}
        if not quiet:
            print(f"simulate: {mode} total={timeline.total} cycles", file=sys.stderr)

    if csv_base is not None:
        for name, graph in graphs.items():
            out = _csv_path(csv_base, name, both=(mode == "both"))
            write_text(out, timeline_csv(graph, timelines[name]), "timeline CSV")
            report.setdefault("csv", []).append(str(out))

    sys.stdout.write(dumps_report(report))
    return 0


def cmd_fold(rc: RunConfig, weights_in: str, weights_out: str, quiet: bool) -> int:
    cfg = rc.block
    # exactly the per-site folds `run_fused` multiplies by
    sites = dict(load_block_weights(weights_in, cfg).folded)
    save_folded_weights(weights_out, cfg, sites)
    if not quiet:
        print(f"fold: wrote {len(sites)} folded site(s) to {weights_out}", file=sys.stderr)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "fold",
        "seed": rc.seed,
        "config": config_dict(rc),
        "sites": sorted(sites),
        "output": weights_out,
    }
    sys.stdout.write(dumps_report(report))
    return 0


# Built on first use, not at import, and shared by every later `main` call:
# it depends on no run-time input, and `parse_args` returns a fresh Namespace
# without changing the parser.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normfusion",
        description="Deferred-normalization fusion: verify equivalence, simulate latency, fold weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="JSON run config (see shipped configs under normfusion/data/)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--quiet", action="store_true", help="suppress non-JSON stderr output")

    p_verify = sub.add_parser("verify", help="randomized fused-vs-conventional equivalence checks")
    common(p_verify)

    p_sim = sub.add_parser("simulate", help="two-engine latency simulation")
    common(p_sim)
    mode = p_sim.add_mutually_exclusive_group()
    mode.add_argument("--both", dest="mode", action="store_const", const="both",
                      help="schedule both graphs and report the speedup (default)")
    mode.add_argument("--fused", dest="mode", action="store_const", const="fused")
    mode.add_argument("--conventional", dest="mode", action="store_const", const="conventional")
    p_sim.set_defaults(mode="both")
    p_sim.add_argument("--csv", metavar="PATH", default=None,
                       help="write timeline CSV (with --both, writes PATH.conventional.csv and PATH.fused.csv)")

    p_fold = sub.add_parser("fold", help="fold norm parameters into downstream weights")
    common(p_fold)
    p_fold.add_argument("weights_in", help="block-weights JSON file")
    p_fold.add_argument("weights_out", help="output folded-weights JSON file")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0

    try:
        rc = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"--seed must be non-negative, got {args.seed}")
            rc = dataclasses.replace(rc, seed=args.seed)
        if args.command == "verify":
            return cmd_verify(rc, args.quiet)
        if args.command == "simulate":
            return cmd_simulate(rc, args.mode, args.csv, args.quiet)
        return cmd_fold(rc, args.weights_in, args.weights_out, args.quiet)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
