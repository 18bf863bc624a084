#!/usr/bin/env python3
"""Fold weights offline through the CLI and prove the file is exact.

`normfusion fold` writes the compiled form of a block's weights: one fold
per norm site (`ln1`: Q|K|V, `ln2`: the MLP's input projections), exactly
the matrices `run_fused` multiplies by. `run_fused` folds from the weights
itself; the file is for inspection or export. Serialization uses
shortest-round-trip decimals, so plain `json` parses every entry back bit
for bit, and a fused run through the parsed arrays matches the in-memory
one exactly.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from normfusion import BlockConfig, FoldedLinear, fused_layernorm_matmul, random_block_weights
from normfusion.cli import main
from normfusion.jsonio import save_block_weights

cfg = BlockConfig(d_model=32, n_heads=4, seq_len=8, mlp_hidden=64, variant="standard-gelu")
rng = np.random.default_rng(3)
weights = random_block_weights(cfg, rng)

workdir = Path(tempfile.mkdtemp(prefix="normfusion_demo_"))
config_path = workdir / "config.json"
config_path.write_text(json.dumps({
    "block": {"d_model": 32, "n_heads": 4, "seq_len": 8, "mlp_hidden": 64,
              "variant": "standard-gelu", "epsilon_ln": 1e-5},
    "cost_model": {"matrix_macs_per_cycle": 65536, "vector_elems_per_cycle": 4096},
    "seed": 3,
}))
weights_path = workdir / "weights.json"
save_block_weights(str(weights_path), cfg, weights)

folded_path = workdir / "folded.json"
print(f"$ normfusion fold {config_path.name} {weights_path.name} {folded_path.name}")
code = main(["fold", str(config_path), str(weights_path), str(folded_path), "--quiet"])
print(f"(exit {code})\n")

# plain json: each matrix is a shape header plus row-major data
sites = json.loads(folded_path.read_text())["sites"]
print("folded sites on disk:", ", ".join(sites))
x = rng.standard_normal((cfg.seq_len, cfg.d_model))
all_exact = True
for site, entry in sites.items():
    m = entry["folded_weight"]
    from_disk = FoldedLinear(folded_weight=np.array(m["data"]).reshape(m["rows"], m["cols"]),
                             folded_bias=np.array(entry["folded_bias"]))
    in_memory = weights.folded[site]
    exact = (np.array_equal(from_disk.folded_weight.view(np.uint64), in_memory.folded_weight.view(np.uint64))
             and np.array_equal(from_disk.folded_bias.view(np.uint64), in_memory.folded_bias.view(np.uint64)))
    run_exact = np.array_equal(fused_layernorm_matmul(x, from_disk, cfg.epsilon_ln),
                               fused_layernorm_matmul(x, in_memory, cfg.epsilon_ln))
    print(f"  {site}: {m['rows']}x{m['cols']} fold bit-identical after JSON: {exact}; "
          f"fused projection from it bit-identical: {run_exact}")
    all_exact = all_exact and exact and run_exact

# idempotence: folding again writes the same bytes
before = folded_path.read_bytes()
main(["fold", str(config_path), str(weights_path), str(folded_path), "--quiet"])
idempotent = folded_path.read_bytes() == before
print("second fold invocation byte-identical:", idempotent)
print(f"\nartifacts left in {workdir}")
raise SystemExit(0 if code == 0 and all_exact and idempotent else 1)
