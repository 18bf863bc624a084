"""The benchmark's two workloads.

Each workload has a set-up (config load, weight or grid generation), one
operation made of timed calls into normfusion's public functions, and a
check of that operation's output. Weights are fixed per run from the seed,
as for a loaded model; each operation draws fresh inputs from
(seed, operation index). Inputs are made and outputs checked outside the
timed calls.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import normfusion as nf
from normfusion import cli

import checks


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run `normfusion ARGV` in this process; return its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _op_rng(seed: int, stream: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, i])


def _cli_seed(seed: int, i: int) -> int:
    return int(_op_rng(seed, 2, i).integers(2**31))


class Workload:
    """One kind of operation, its set-up and its check."""

    name: str

    def setup(self, seed: int, workdir: Path):
        raise NotImplementedError

    def op(self, state, i: int, clock):
        """Run operation `i`, timing each call into normfusion through `clock`."""
        raise NotImplementedError

    def check(self, state, i: int, out) -> dict[str, float]:
        """Raise `checks.CheckFailed` on a wrong output; else return error figures."""
        raise NotImplementedError


class BlockPair(Workload):
    """`run_conventional` and `run_fused` on one input, order alternating per op.

    Inputs are standard-normal rows plus a per-row DC offset in [-8, 8],
    since residual streams are not zero-mean.
    """

    def __init__(self, name: str, cfg: nf.BlockConfig):
        self.name, self.cfg = name, cfg

    def setup(self, seed, workdir):
        return SimpleNamespace(seed=seed, weights=nf.random_block_weights(self.cfg, _op_rng(seed, 0, 0)))

    def op(self, state, i, clock):
        rng = _op_rng(state.seed, 1, i)
        x = rng.standard_normal((self.cfg.seq_len, self.cfg.d_model))
        x += rng.uniform(-8.0, 8.0, size=(self.cfg.seq_len, 1))
        paths = (("run_conventional", nf.run_conventional), ("run_fused", nf.run_fused))
        out = {}
        for label, fn in paths if i % 2 == 0 else paths[::-1]:
            out[label] = clock.call(label, fn, self.cfg, state.weights, x)
        return x, out

    def check(self, state, i, out):
        x, y = out
        expected = checks.block_oracle(self.cfg, state.weights, x)
        return {
            "conv_rel_err": checks.check_block_output(y["run_conventional"], expected, "conventional"),
            "fused_rel_err": checks.check_block_output(y["run_fused"], expected, "fused"),
        }


class SimulateSweep(Workload):
    """In-process `normfusion simulate --both`, `--fused` and `--conventional`
    on one config of a seeded grid, written by the run's first set-up and
    loaded by every set-up.

    The grid spans both variants, d_model 1024-8192, seq 128-8192, and the
    shipped cost model plus one whose collectives cost nothing.
    """

    name = "simulate-sweep"
    modes = ("both", "fused", "conventional")
    grid_size = 16

    def setup(self, seed, workdir):
        shipped = json.loads(cli.default_config_path("llama7b_sim").read_text())
        free = dict(shipped["cost_model"], collective_alpha=0, collective_beta=0)
        rng = _op_rng(seed, 3, 0)
        paths, configs = [], []
        for k in range(self.grid_size):
            variant = nf.block.VARIANTS[k % 2]
            d_model = int(rng.choice([1024, 2048, 4096, 8192]))
            hidden = 4 * d_model if variant == "standard-gelu" else 256 * -(-8 * d_model // 768)
            doc = {
                "block": {"d_model": d_model, "n_heads": d_model // 128,
                          "seq_len": int(rng.choice([128, 256, 512, 1024, 2048, 4096, 8192])),
                          "mlp_hidden": hidden, "variant": variant},
                "cost_model": shipped["cost_model"] if k // 2 % 2 == 0 else free,
            }
            path = workdir / f"sim_{k:02d}.json"
            if not path.exists():  # inputs, not load: only a run's first set-up writes them
                path.write_text(json.dumps(doc))
            paths.append(str(path))
            configs.append(nf.load_config(str(path)))
        return SimpleNamespace(seed=seed, paths=paths, configs=configs)

    def op(self, state, i, clock):
        k = i % self.grid_size
        seed = str(_cli_seed(state.seed, i))
        reports = {mode: clock.call(mode, run_cli, ["simulate", state.paths[k], f"--{mode}", "--seed", seed, "--quiet"])
                   for mode in self.modes}
        return k, reports

    def check(self, state, i, out):
        k, reports = out
        rc = state.configs[k]
        totals = {}
        for mode in ("conventional", "fused"):
            latency = checks.simulate_report(*reports[mode], mode)
            graph = nf.build_graph(rc.block, fused=(mode == "fused"))
            totals[mode] = checks.check_timeline(latency, graph, rc.cost_model.sync_overhead)
        checks.check_comparison(checks.simulate_report(*reports["both"], "both"), totals["conventional"], totals["fused"])
        return {}


WORKLOADS = {
    w.name: w
    for w in (
        # 8 rows, not a longer prefill: on a shared host a shorter operation
        # more often runs whole in a quiet spell, so its fastest time is steadier.
        BlockPair("prefill-gelu", nf.BlockConfig(d_model=128, n_heads=4, seq_len=8, mlp_hidden=512,
                                                 variant="standard-gelu")),
        SimulateSweep(),
    )
}
