"""JSON config, weight-file, and report serialization.

Numbers round-trip exactly: floats are serialized with Python's
shortest-round-trip repr (what `json` emits) and parsed back with
correctly-rounded `float()`, so a save/load cycle is bit-lossless. Report
dicts are built in a fixed key order and serialized as one line of JSON,
making repeated runs byte-identical.

Config files use exactly the field names of RunConfig and its BlockConfig
and CostModel (snake_case), and take their defaults from those fields;
unknown keys anywhere are rejected so typos fail loudly instead of
silently falling back to defaults. No key or array element takes a boolean.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from typing import Any

import numpy as np

from .block import BlockConfig, BlockWeights
from .fusion import FoldedLinear, LlamaMlpWeights
from .norms import LayerNormParams, RmsNormParams
from .simulator import CostModel, LatencyReport, Timeline
from .tensor import _integer

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_config",
    "save_block_weights",
    "load_block_weights",
    "save_folded_weights",
    "dumps_report",
    "timeline_rows",
    "timeline_csv",
]

SCHEMA_VERSION = "1"


class ConfigError(ValueError):
    """Malformed or inconsistent configuration / weight file (CLI exit 2)."""


@dataclass(frozen=True)
class RunConfig:
    block: BlockConfig
    cost_model: CostModel
    seed: int = 0
    trials: int = 10
    tolerance: float = 1e-10
    notes: str = ""

    def __post_init__(self):
        for name, least, kind in (("seed", 0, "non-negative"), ("trials", 1, "positive")):
            v = getattr(self, name)
            if (i := _integer(v)) is None or i < least:
                raise ConfigError(f"{name} must be a {kind} integer, got {v!r}")
            object.__setattr__(self, name, i)
        # tolerance 0 is accepted (and will fail verification numerically);
        # negatives are malformed, and so is infinity, which would pass every site.
        if not (self.tolerance >= 0 and self.tolerance < np.inf):
            raise ConfigError(f"tolerance must be non-negative and finite, got {self.tolerance!r}")
        if not isinstance(self.notes, str):  # every report echoes it as a string
            raise ConfigError(f"notes must be a string, got {self.notes!r}")


def _take(mapping: dict, context: str, required: tuple[str, ...], optional: tuple[str, ...]) -> dict:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context} must be a JSON object")
    unknown = set(mapping) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown key(s) in {context}: {', '.join(sorted(unknown))}")
    missing = [k for k in required if k not in mapping]
    if missing:
        raise ConfigError(f"missing key(s) in {context}: {', '.join(missing)}")
    for key, value in mapping.items():
        if isinstance(value, bool):  # a JSON true/false would pass as the number 1/0
            raise ConfigError(f"{context}.{key} must not be a boolean, got {json.dumps(value)}")
        if isinstance(value, list) and bool in set(map(type, value)):  # so would one in an array
            i = next(i for i, v in enumerate(value) if type(v) is bool)
            raise ConfigError(f"{context}.{key}[{i}] must not be a boolean, got {json.dumps(value[i])}")
    return mapping


def _read_json(path: str, what: str) -> Any:
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read {what}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{what} is not valid JSON: {e}") from e


def write_text(path, text: str, what: str) -> None:
    """Write `text` to `path`; a path that cannot be written is a ConfigError naming `what`."""
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as e:
        raise ConfigError(f"cannot write {what}: {e}") from e


def _field_keys(cls) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """A dataclass's required (no default) and optional field names; together, its field order."""
    names = [(f.name, f.default is MISSING) for f in fields(cls)]
    return tuple(n for n, req in names if req), tuple(n for n, req in names if not req)


# Each config section's keys are its dataclass's fields, and its defaults theirs.
_KEYS = {cls: _field_keys(cls) for cls in (RunConfig, BlockConfig, CostModel)}


def load_config(path: str) -> RunConfig:
    raw = _read_json(path, "config file")
    _take(raw, "config", *_KEYS[RunConfig])
    block_raw = _take(raw["block"], "config.block", *_KEYS[BlockConfig])
    cm_raw = _take(raw["cost_model"], "config.cost_model", *_KEYS[CostModel])
    try:
        return RunConfig(**dict(raw, block=BlockConfig(**block_raw), cost_model=CostModel(**cm_raw)))
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e


def config_dict(config) -> dict:
    """A RunConfig (or one of its sections) echoed as a plain dict in the config file's key order."""
    required, optional = _KEYS[type(config)]
    out = {}
    for key in required + optional:
        value = getattr(config, key)
        out[key] = config_dict(value) if type(value) in _KEYS else value
    return out


# --------------------------------------------------------------------------
# Weight files: shape header + row-major full-precision decimal arrays
# --------------------------------------------------------------------------


def _matrix_json(m: np.ndarray) -> dict:
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": [float(v) for v in m.ravel()]}


def _matrix_from_json(obj: Any, context: str) -> np.ndarray:
    _take(obj, context, required=("rows", "cols", "data"), optional=())
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if not (isinstance(rows, int) and isinstance(cols, int) and rows > 0 and cols > 0):
        raise ConfigError(f"{context}: rows/cols must be positive integers")
    if len(data) != rows * cols:
        raise ConfigError(f"{context}: data length {len(data)} != rows*cols {rows * cols}")
    return np.array(data, dtype=np.float64).reshape(rows, cols)


def _vector_json(v: np.ndarray) -> list[float]:
    return [float(x) for x in v]


# A weight file's matrices per variant. The gated MLP's three live in
# `BlockWeights.mlp`; every other name is a `BlockWeights` field.
_GATED_MLP = ("w_gate", "w_up", "w_down")
_MATRICES = {
    "standard-gelu": ("w_q", "w_k", "w_v", "w_o", "fc1", "fc2"),
    "llama-swiglu": ("w_q", "w_k", "w_v", "w_o", *_GATED_MLP),
}


def _norm_json(p: LayerNormParams | RmsNormParams) -> dict:
    entry = {"gamma": _vector_json(p.gamma)}
    if isinstance(p, LayerNormParams):
        entry["beta"] = _vector_json(p.beta)
    entry["epsilon"] = float(p.epsilon)
    return entry


def _save_weight_file(path: str, cfg: BlockConfig, kind: str, **sections) -> None:
    """One weight document: the shared envelope, then `sections`, indented by 2, with a trailing newline."""
    doc = {"schema_version": SCHEMA_VERSION, "kind": kind, "variant": cfg.variant, **sections}
    write_text(path, json.dumps(doc, indent=2) + "\n", f"{kind} file")


def save_block_weights(path: str, cfg: BlockConfig, w: BlockWeights) -> None:
    w.validate(cfg)
    _save_weight_file(
        path, cfg, "block-weights",
        matrices={name: _matrix_json(getattr(w.mlp if name in _GATED_MLP else w, name))
                  for name in _MATRICES[cfg.variant]},
        norms={"ln1": _norm_json(w.ln1), "ln2": _norm_json(w.ln2)},
    )


def load_block_weights(path: str, cfg: BlockConfig) -> BlockWeights:
    doc = _read_json(path, "weight file")
    _take(doc, "weights", required=("schema_version", "kind", "variant", "matrices", "norms"),
          optional=())
    if doc["kind"] != "block-weights":
        raise ConfigError(f"expected a block-weights file, got kind {doc['kind']!r}")
    if doc["variant"] != cfg.variant:
        raise ConfigError(
            f"weight file variant {doc['variant']!r} does not match config {cfg.variant!r}"
        )
    _take(doc["matrices"], "weights.matrices", required=_MATRICES[cfg.variant], optional=())
    _take(doc["norms"], "weights.norms", required=("ln1", "ln2"), optional=())
    params = LayerNormParams if cfg.variant == "standard-gelu" else RmsNormParams
    keys = tuple(f.name for f in fields(params))

    def norm_params(key: str):
        return params(**_take(doc["norms"][key], f"weights.norms.{key}", required=keys, optional=()))

    try:
        mats = {name: _matrix_from_json(obj, f"weights.matrices.{name}")
                for name, obj in doc["matrices"].items()}
        gated = {name: mats.pop(name) for name in _GATED_MLP if name in mats}
        w = BlockWeights(ln1=norm_params("ln1"), ln2=norm_params("ln2"),
                         mlp=LlamaMlpWeights(**gated) if gated else None, **mats)
        w.validate(cfg)
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e
    return w


def save_folded_weights(path: str, cfg: BlockConfig, sites: dict[str, FoldedLinear]) -> None:
    """Write folds for inspection or export; the package never reads this file back."""
    entries = {}
    for name, fold in sites.items():
        entry = {"folded_weight": _matrix_json(fold.folded_weight)}
        if fold.folded_bias is not None:
            entry["folded_bias"] = _vector_json(fold.folded_bias)
        entries[name] = entry
    _save_weight_file(path, cfg, "folded-weights", sites=entries)


# --------------------------------------------------------------------------
# Reports and timeline CSV
# --------------------------------------------------------------------------


def latency_dict(rep: LatencyReport) -> dict:
    return {
        "conventional_total": rep.conventional_total,
        "fused_total": rep.fused_total,
        "per_site_savings": [
            {"site": s.site, "hidden_cycles": s.hidden_cycles} for s in rep.per_site_savings
        ],
        "speedup_percent": rep.speedup_percent,
    }


def dumps_report(report: dict) -> str:
    """Every stdout report as one line of JSON, by json's C encoder; a NaN or infinity raises."""
    return json.dumps(report, allow_nan=False) + "\n"


def timeline_rows(graph, timeline: Timeline) -> list[dict]:
    """One row per timeline entry, in schedule order: the single-mode report's and the CSV's fields."""
    kinds = {n.id: n.kind for n in graph.nodes}
    return [{"node_id": e.node_id, "kind": kinds[e.node_id], "engine": e.engine,
             "start_cycle": e.start, "end_cycle": e.end} for e in timeline.entries]


def timeline_csv(graph, timeline: Timeline) -> str:
    lines = ["node_id,kind,engine,start_cycle,end_cycle"]
    lines += [",".join(str(v) for v in row.values()) for row in timeline_rows(graph, timeline)]
    return "\n".join(lines) + "\n"
