"""Command-line interface: equivalence verification and latency simulation.

All reports are JSON on stdout; progress chatter goes to stderr and can be
silenced with --quiet. Exit codes: 0 success, 1 numerical/acceptance
failure, 2 usage or config error (an unreadable config, a cost model that
overflows a node's latency, an unwritable CSV path). Given the same config
and seed, repeated runs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

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
    load_config,
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


def _norm_site_pair(x, p, mat) -> tuple[np.ndarray, np.ndarray]:
    """A norm site through the block's own site code: conventional, then fused on its fold."""
    return _norm_site(x, p, mat), _norm_site(x, p, mat, _fold_site(p, mat))


def _layernorm_linear(rng, cfg):
    n = cfg.d_model
    x = rng.standard_normal(n)
    params = LayerNormParams(
        gamma=rng.uniform(0.5, 1.5, size=n),
        beta=rng.standard_normal(n) * 0.1,
        epsilon=cfg.epsilon_ln,
    )
    return _norm_site_pair(x, params, rng.standard_normal((n, n)) / np.sqrt(n))


def _softmax_matmul(rng, cfg):
    n = cfg.d_model
    x = rng.uniform(-1e3, 1e3, size=n)
    v = rng.standard_normal((n, n)) / np.sqrt(n)
    return matmul(softmax_stable(x), v), fused_softmax_matmul(x, v)


def _rmsnorm_llama_mlp(rng, cfg):
    n, h = cfg.d_model, cfg.mlp_hidden
    x = rng.standard_normal(n)
    params = RmsNormParams(gamma=rng.uniform(0.5, 1.5, size=n), epsilon=cfg.epsilon_ln)
    w_gate_up = np.hstack([rng.standard_normal((n, h)) / np.sqrt(n) for _ in range(2)])  # gate, then up
    w_down = rng.standard_normal((h, n)) / np.sqrt(h)
    return tuple(swiglu(out, w_down) for out in _norm_site_pair(x, params, w_gate_up))  # the shared tail


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
    try:  # a finite cost model can still give a node a latency that overflows float64
        if mode == "both":
            rep = compare(graphs["conventional"], graphs["fused"], rc.cost_model)
            timelines = {"conventional": rep.conventional_timeline, "fused": rep.fused_timeline}
        else:
            timelines = {mode: schedule(graphs[mode], rc.cost_model)}
    except ValueError as e:
        raise ConfigError(str(e)) from e
    if mode == "both":
        report["latency"] = latency_dict(rep)
        if not quiet:
            print(
                f"simulate: conventional={rep.conventional_total} fused={rep.fused_total} "
                f"speedup={rep.speedup_percent:.2f}%", file=sys.stderr,
            )
    else:
        graph, timeline = graphs[mode], timelines[mode]
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


class _Option(NamedTuple):
    """One option of a command: with a `type` it takes one argument, stored through it; without, it stores `const`."""

    dest: str
    default: object
    type: Callable[[str], object] | None = None
    const: object = None
    help: str | None = None
    metavar: str | None = None


# Each command's help and its options after the config, by flag in usage order.
# `_build_parser` and `_parse_in_full` both read this one table. Options that
# share a `dest` are mutually exclusive: simulate's three modes.
_COMMON = {
    "--seed": _Option("seed", None, type=int, help="override the config seed"),
    "--quiet": _Option("quiet", False, const=True, help="suppress non-JSON stderr output"),
}
_COMMANDS = {
    "verify": ("randomized fused-vs-conventional equivalence checks", _COMMON),
    "simulate": ("two-engine latency simulation", {
        **_COMMON,
        "--both": _Option("mode", "both", const="both", help="schedule both graphs and report the speedup (default)"),
        "--fused": _Option("mode", "both", const="fused"),
        "--conventional": _Option("mode", "both", const="conventional"),
        "--csv": _Option("csv", None, type=str, metavar="PATH",
                         help="write timeline CSV (with --both, writes PATH.conventional.csv and PATH.fused.csv)"),
    }),
}


def _parse_in_full(argv) -> argparse.Namespace | None:
    """The Namespace `_build_parser().parse_args(argv)` returns, where every token of `argv` is spelled in full; else None.

    Spelled in full: a command, its config once and not starting with "-",
    and each option by its whole name, at most once and one mode at most,
    with an argument that does not start with "-" and that its `type` takes.
    Everything else is left to argparse: help, abbreviations, `--opt=value`,
    `--`, negative values, repeated or conflicting options, and every usage
    error and its message.
    """
    if not argv or (command := _COMMANDS.get(argv[0])) is None:
        return None
    options = command[1]
    args = {"command": argv[0], "config": None, **{o.dest: o.default for o in options.values()}}
    given = set()
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if args["config"] is not None:
                return None
            args["config"] = token
            continue
        if (option := options.get(token)) is None or option.dest in given:
            return None
        given.add(option.dest)
        if option.type is None:
            args[option.dest] = option.const
            continue
        if (value := next(tokens, "-")).startswith("-"):
            return None
        try:
            args[option.dest] = option.type(value)
        except ValueError:
            return None
    return None if args["config"] is None else argparse.Namespace(**args)


# Built on use, not at import: only for argv `_parse_in_full` leaves to argparse.
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normfusion",
        description="Deferred-normalization fusion: verify equivalence, simulate latency.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="JSON run config (see shipped configs under normfusion/data/)")
        dests = [o.dest for o in options.values()]
        groups = {dest: p.add_mutually_exclusive_group() for dest in dict.fromkeys(dests) if dests.count(dest) > 1}
        for flag, o in options.items():
            target = groups.get(o.dest, p)
            if o.type is None:
                target.add_argument(flag, dest=o.dest, action="store_const", const=o.const, default=o.default,
                                    help=o.help)
            else:
                target.add_argument(flag, type=o.type, default=o.default, help=o.help, metavar=o.metavar)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if (args := _parse_in_full(argv)) is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as e:
            return int(e.code) if e.code is not None else 0

    try:
        rc = load_config(args.config)
        if args.seed is not None:  # RunConfig's seed rule checks it
            rc = dataclasses.replace(rc, seed=args.seed)
        if args.command == "verify":
            return cmd_verify(rc, args.quiet)
        return cmd_simulate(rc, args.mode, args.csv, args.quiet)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
